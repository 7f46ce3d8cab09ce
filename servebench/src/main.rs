//! `servebench` — the benchmark of the `sdp-serve` request server.
//!
//! ```text
//! cargo run --release --manifest-path servebench/Cargo.toml -- \
//!     --workload <hot_cached|cold_small|cold_large|zipf_open> \
//!     --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! One run measures in five rounds.  Each round boots the
//! default-config server in-process (`sdp_serve::serve(Config::default())`),
//! warms it up (together, the timed set-up), and drives it over TCP
//! from this thread, with at most two connections (fewer on a one-core
//! host), for a fifth of `--seconds`.  The window is cut into slices of
//! at least half a second; each end-to-end figure is the median over
//! all slices of the run, so a second lost to another tenant of the
//! host moves it little.  After the rounds it checks every answer
//! against `sdp-oracle`, reconciles the client's counts with the
//! server's own `metrics` deltas, and prints every metric as
//! `metric <name> <value> <unit>`.
//!
//! With `--trace 1` it also replays the workload's lines in-process
//! through the server's layers with a span around every call (see
//! [`replay`]), writes the spans to `servebench/out/`, and reports the
//! per-layer metrics.  The last line of output is one JSON object:
//! `{"correct", "attempted", "failed", "metrics"}` holding the
//! end-to-end metrics (`--trace 0`) or the per-layer ones (`--trace 1`).
//! A wrong answer or a failed reconciliation makes the exit code 1.

mod check;
mod driver;
mod replay;
mod sys;
mod workload;

use driver::{connect, drive, Feed, References, Run, FAILED};
use replay::Layers;
use sdp_serve::{json, serve, Config};
use sdp_trace::json::Json;
use std::collections::BTreeMap;
use std::process::ExitCode;
use std::time::{Duration, Instant};
use workload::{Load, Spec, Workload, CLASS_NAMES, HOT_SET};

const USAGE: &str = "usage: servebench --workload <hot_cached|cold_small|cold_large|zipf_open> \
                     --seed <n> --seconds <s> --trace <0|1>";

/// Connections the driver opens, capped by the host's cores.
const MAX_CONNECTIONS: usize = 2;
/// Replies a window slice is sized to hold on average, so that even a
/// slow slice keeps about ten samples beyond its p99.
const SLICE_MIN_SAMPLES: usize = 1500;
/// Server boots per run, each measured for an equal share of the
/// window; `setup_s` is the median of their set-up times.
const ROUNDS: usize = 5;
/// Lines the traced replay may take, and the wall time it may spend.
const REPLAY_LINES: usize = 20_000;
const REPLAY_BUDGET: Duration = Duration::from_millis(1500);
/// Server-side accounting tolerance: the server's mean latency may
/// exceed the mean of its coalesce + queue + engine phases by the
/// cache write that follows the engine, up to this share plus 5 µs.
const PHASE_TOLERANCE: f64 = 0.15;

struct Args {
    spec: &'static Spec,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut it = std::env::args().skip(1);
    let (mut spec, mut seed, mut seconds, mut trace) = (None, 1, 10, false);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("bad value {value:?} for {flag}");
        match flag.as_str() {
            "--workload" => spec = Some(Workload::spec(&value).ok_or_else(bad)?),
            "--seed" => seed = value.parse().map_err(|_| bad())?,
            "--seconds" => {
                seconds = value.parse().ok().filter(|&s| s > 0).ok_or_else(bad)?;
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        spec: spec.ok_or("--workload is required")?,
        seed,
        seconds,
        trace,
    })
}

/// The commit checked out in the working directory, read from `.git`
/// (`none` outside a git checkout).
fn git_rev() -> String {
    let read = |p: &str| {
        std::fs::read_to_string(p)
            .ok()
            .map(|s| s.trim().to_string())
    };
    let Some(head) = read(".git/HEAD") else {
        return "none".to_string();
    };
    let Some(name) = head.strip_prefix("ref: ") else {
        return head;
    };
    read(&format!(".git/{name}"))
        .or_else(|| {
            read(".git/packed-refs")?
                .lines()
                .find(|l| l.ends_with(name))
                .and_then(|l| l.split(' ').next().map(str::to_string))
        })
        .unwrap_or_else(|| "none".to_string())
}

/// Exact nearest-rank quantile of sorted samples (0 when empty).
fn quantile(sorted: &[u32], q: f64) -> u32 {
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted.get(rank.max(1) - 1).copied().unwrap_or(0)
}

fn ms(ns: u32) -> f64 {
    if ns == FAILED {
        f64::MAX // a failed request misses every latency limit
    } else {
        f64::from(ns) / 1e6
    }
}

fn median(xs: &[f64]) -> f64 {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Requests whose replies completed in one stretch of the window.
struct Slice {
    secs: f64,
    server_cpu: Duration,
    /// Sorted latencies, ns; failed requests are [`FAILED`].
    lat: Vec<u32>,
}

impl Slice {
    fn rps(&self) -> f64 {
        self.lat.iter().filter(|&&l| l != FAILED).count() as f64 / self.secs
    }

    fn ms(&self, q: f64) -> f64 {
        ms(quantile(&self.lat, q))
    }

    fn cpu_us_per_req(&self) -> f64 {
        self.server_cpu.as_secs_f64() * 1e6 / self.lat.len().max(1) as f64
    }
}

/// Cuts the window at its ticks into slices of whole ticks, each
/// long enough to hold [`SLICE_MIN_SAMPLES`] replies on average.  The
/// latencies move into the slices.
fn slice_window(run: &mut Run) -> Vec<Slice> {
    let ticks = &run.ticks;
    let lat = std::mem::take(&mut run.lat);
    let intervals = lat.len();
    let per = (SLICE_MIN_SAMPLES * intervals)
        .div_ceil(run.sent.max(1) as usize)
        .clamp(1, intervals);
    let mut bounds: Vec<usize> = (0..intervals).step_by(per).collect();
    if bounds.len() > 1 && intervals - bounds[bounds.len() - 1] < per.div_ceil(2) {
        bounds.pop(); // a short tail joins the slice before it
    }
    bounds.push(intervals);
    bounds
        .windows(2)
        .map(|w| {
            let (a, b) = (&ticks[w[0]], &ticks[w[1]]);
            let mut lat: Vec<u32> = lat[w[0]..w[1]].concat();
            lat.sort_unstable();
            Slice {
                secs: (b.at_ns - a.at_ns) as f64 / 1e9,
                server_cpu: (b.process - a.process).saturating_sub(b.driver - a.driver),
                lat,
            }
        })
        .collect()
}

/// A flattened server `metrics` document: every numeric leaf by its
/// dotted path.
#[derive(Debug, Default)]
struct Snapshot(BTreeMap<String, f64>);

impl Snapshot {
    fn take(conn: &mut driver::Conn) -> Result<Snapshot, String> {
        let line = conn
            .control(r#"{"id":0,"kind":"metrics"}"#)
            .map_err(|e| format!("metrics request: {e}"))?;
        let doc = json::parse(&line).map_err(|e| format!("metrics reply: {e}"))?;
        let result = json::get(&doc, "result").ok_or("metrics reply has no result")?;
        let mut snap = Snapshot::default();
        snap.flatten(String::new(), result);
        Ok(snap)
    }

    fn flatten(&mut self, path: String, doc: &Json) {
        match doc {
            Json::Int(v) => {
                self.0.insert(path, *v as f64);
            }
            Json::Float(v) => {
                self.0.insert(path, *v);
            }
            Json::Object(fields) => {
                for (k, v) in fields {
                    let sub = if path.is_empty() {
                        k.clone()
                    } else {
                        format!("{path}.{k}")
                    };
                    self.flatten(sub, v);
                }
            }
            _ => {}
        }
    }

    /// Adds `other` leaf by leaf.
    fn add(&mut self, other: &Snapshot) {
        for (k, v) in &other.0 {
            *self.0.entry(k.clone()).or_default() += v;
        }
    }

    /// `self − before`, leaf by leaf.
    fn since(&self, before: &Snapshot) -> Snapshot {
        Snapshot(
            self.0
                .iter()
                .map(|(k, v)| (k.clone(), v - before.get(k)))
                .collect(),
        )
    }

    fn get(&self, key: &str) -> f64 {
        self.0.get(key).copied().unwrap_or(0.0)
    }

    /// Sum of `classes.<class>.phases.<phase>.<field>` over classes.
    fn phase(&self, phase: &str, field: &str) -> f64 {
        let tail = format!(".phases.{phase}.{field}");
        self.0
            .iter()
            .filter(|(k, _)| k.starts_with("classes.") && k.ends_with(&tail))
            .map(|(_, v)| v)
            .sum()
    }
}

/// Collected output: metrics by name with units, and named checks.
#[derive(Default)]
struct Report {
    e2e: Vec<(String, f64, &'static str)>,
    layers: Vec<(String, f64, &'static str)>,
    failed_checks: usize,
}

impl Report {
    fn e2e(&mut self, name: &str, value: f64, unit: &'static str, note: String) {
        println!("metric {name} {value} {unit} {note}");
        self.e2e.push((name.to_string(), value, unit));
    }

    fn layer(&mut self, name: &str, value: f64, unit: &'static str, note: String) {
        println!("layer {name} {value} {unit} {note}");
        self.layers.push((name.to_string(), value, unit));
    }

    fn check(&mut self, name: &str, ok: bool, detail: String) {
        println!("check {name} {} {detail}", if ok { "ok" } else { "FAIL" });
        self.failed_checks += usize::from(!ok);
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(msg) => {
            eprintln!("servebench: {msg}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    match run(&args) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(msg) => {
            eprintln!("servebench: {msg}");
            ExitCode::FAILURE
        }
    }
}

/// One set-up: boot, connect, warm up.  Returns the live server, its
/// connections, the reference replies, and the warm-up runs.
fn set_up(
    wl: &mut Workload,
    conns_n: usize,
    window: usize,
) -> Result<
    (
        sdp_serve::ServerHandle,
        Vec<driver::Conn>,
        References,
        Vec<Run>,
    ),
    String,
> {
    let io = |e: std::io::Error| e.to_string();
    let server = serve(Config::default()).map_err(io)?;
    let mut conns = connect(server.addr(), conns_n).map_err(io)?;
    let warm = wl.warmup().to_vec();
    let load = Load::Closed { window };
    let mut refs: References = Vec::new();
    let mut runs = Vec::new();
    if wl.spec.name == "hot_cached" {
        // The first pass computes; the second returns the cached
        // replies every later reply must equal; the rest settles.
        let (first, rest) = warm.split_at(HOT_SET);
        let (second, settle) = rest.split_at(HOT_SET);
        runs.push(drive(&mut conns, wl, load, Feed::List(first), &refs, 1).map_err(io)?);
        let cached = drive(&mut conns, wl, load, Feed::List(second), &refs, 1).map_err(io)?;
        for kept in &cached.kept {
            let rest = cached
                .line(kept)
                .and_then(driver::split_id)
                .map(|(_, rest)| rest.to_vec());
            let p = kept.problem as usize;
            if refs.len() <= p {
                refs.resize(p + 1, None);
            }
            refs[p] = rest;
        }
        runs.push(cached);
        runs.push(drive(&mut conns, wl, load, Feed::List(settle), &refs, 1).map_err(io)?);
    } else {
        runs.push(drive(&mut conns, wl, load, Feed::List(&warm), &refs, 1).map_err(io)?);
    }
    Ok((server, conns, refs, runs))
}

fn run(args: &Args) -> Result<bool, String> {
    let spec = args.spec;
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let conns_n = nproc.min(MAX_CONNECTIONS);
    // Warm-ups always run closed-loop; the open-loop workload warms up
    // with 16 requests in flight per connection.
    let (load_desc, window) = match spec.load {
        Load::Closed { window } => (format!("closed window={window}"), window),
        Load::Open { rate_per_s } => (format!("open rate_per_s={rate_per_s}"), 16),
    };
    println!(
        "servebench workload={} seed={} seconds={} trace={}",
        spec.name,
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );
    println!("why {}", spec.why);
    println!(
        "host nproc={nproc} git_rev={} profile={} connections={conns_n} load={load_desc}",
        git_rev(),
        if cfg!(debug_assertions) {
            "debug"
        } else {
            "release"
        },
    );
    let mut wl = Workload::new(spec, args.seed);
    let mut report = Report::default();

    // Rounds: each boots a fresh server (the timed set-up), drives an
    // equal share of the window against it, then checks the round's
    // answers once the server is down and keeps only its latencies.
    let rounds = ROUNDS.min(args.seconds as usize);
    let round_len = Duration::from_secs_f64(args.seconds as f64 / rounds as f64);
    let mut setups = Vec::new();
    let mut srv = Snapshot::default();
    let mut refs_cached = true;
    let mut setup = check::Verdict::default();
    let mut verdict = check::Verdict::default();
    let mut answered = 0;
    let mut late: Vec<u32> = Vec::new();
    let mut slices: Vec<Slice> = Vec::new();
    for _ in 0..rounds {
        sys::timer_slack(0);
        let t0 = Instant::now();
        let (server, mut conns, refs, warm) = set_up(&mut wl, conns_n, window)?;
        setups.push(t0.elapsed().as_secs_f64());
        sys::timer_slack(1);
        let before = Snapshot::take(&mut conns[0])?;
        let first_id = 1 + warm.iter().map(|r| r.sent).max().unwrap_or(0);
        let mut run = drive(
            &mut conns,
            &mut wl,
            spec.load,
            Feed::Window(round_len),
            &refs,
            first_id,
        )
        .map_err(|e| format!("driving the window: {e}"))?;
        srv.add(&Snapshot::take(&mut conns[0])?.since(&before));
        drop(conns);
        server.shutdown();
        refs_cached &= refs
            .iter()
            .flatten()
            .all(|r| r.ends_with(br#","cached":true,"batch":0}"#));
        for mut w in warm {
            setup.add(check::check(&mut w, &wl, nproc));
        }
        verdict.add(check::check(&mut run, &wl, nproc));
        answered += run.answered();
        late.extend(&run.late_ns);
        slices.extend(slice_window(&mut run));
    }
    for e in &setup.examples {
        println!("setup-failure {e}");
    }
    if spec.name == "hot_cached" {
        let note = "every reference reply is a cache hit".to_string();
        report.check("references_cached", refs_cached, note);
    }
    report.check(
        "setup_answers",
        setup.failed() == 0,
        format!("{} failed warm-up requests", setup.failed()),
    );
    for e in &verdict.examples {
        println!("failure {e}");
    }

    // End-to-end metrics: medians over the window's slices.
    let attempted = verdict.attempted;
    for (i, s) in slices.iter().enumerate() {
        println!(
            "slice {i} secs={:.3} n={} rps={:.1} p50_ms={} p99_ms={} server_cpu_us_per_req={:.3}",
            s.secs,
            s.lat.len(),
            s.rps(),
            s.ms(0.50),
            s.ms(0.99),
            s.cpu_us_per_req(),
        );
    }
    let over = |f: &dyn Fn(&Slice) -> f64| median(&slices.iter().map(f).collect::<Vec<_>>());
    let k = slices.len();
    let per_slice = slices.iter().map(|s| s.lat.len()).min().unwrap_or(0);
    report.e2e(
        "throughput_rps",
        over(&|s| s.rps()),
        "1/s",
        format!(
            "median of {k} slices; ok={} in {rounds} rounds",
            verdict.ok()
        ),
    );
    let note = format!("median of {k} slices' exact quantiles, >= {per_slice} samples per slice");
    report.e2e("latency_p50_ms", over(&|s| s.ms(0.50)), "ms", note.clone());
    report.e2e("latency_p99_ms", over(&|s| s.ms(0.99)), "ms", note);
    let mut lat: Vec<u32> = slices.iter().flat_map(|s| s.lat.iter().copied()).collect();
    lat.sort_unstable();
    let n = lat.len();
    let (tail, label) = [(0.999, "p99.9"), (0.9999, "p99.99"), (0.99999, "p99.999")]
        .into_iter()
        .take_while(|(q, _)| (1.0 - q) * n as f64 >= 10.0)
        .last()
        .unwrap_or((0.99, "p99"));
    println!(
        "info latency whole window n={n}: p50 {} ms, p99 {} ms, {label} {} ms (highest \
         percentile with >= 10 samples beyond), max {} ms",
        ms(quantile(&lat, 0.50)),
        ms(quantile(&lat, 0.99)),
        ms(quantile(&lat, tail)),
        ms(*lat.last().unwrap_or(&0)),
    );
    println!(
        "info failed_share {} (errors={:?} unanswered={} wrong={} of sent={attempted})",
        verdict.failed() as f64 / attempted.max(1) as f64,
        verdict.errors,
        verdict.unanswered,
        verdict.wrong,
    );
    late.sort_unstable();
    if !late.is_empty() {
        println!(
            "info driver lateness (send time minus due time): p50 {} ms, p99 {} ms",
            ms(quantile(&late, 0.50)),
            ms(quantile(&late, 0.99)),
        );
    }
    // Server CPU per request is a per-layer figure rather than a bounded
    // end-to-end one: contention from other tenants of a shared host
    // inflates CPU time itself (up to 30% between runs on cold_small).
    report.layer(
        "server.cpu_us_per_req",
        over(&|s| s.cpu_us_per_req()),
        "us",
        format!("median of {k} slices; process cpu minus driver thread, per reply"),
    );
    report.e2e(
        "setup_s",
        median(&setups),
        "s",
        format!("median of {rounds} rounds: {setups:?}"),
    );

    // Server counters over the window.
    let hits = srv.get("cache.hits");
    let misses = srv.get("cache.misses");
    let dispatches = srv.get("dispatches");
    let riders = srv.phase("engine", "samples");
    let batch_hist: Vec<String> = sdp_serve::metrics::BATCH_BUCKET_LABELS
        .iter()
        .map(|l| format!("{l}:{}", srv.get(&format!("batch_size_histogram.{l}"))))
        .collect();
    println!(
        "server served={} dispatches={dispatches} batch_hist=[{}] hits={hits} misses={misses} \
         evictions={} rejected=[queue_full:{} overloaded:{} circuit_open:{} malformed:{} oversized:{}] \
         deadline_exceeded={} degraded={}",
        srv.get("served"),
        batch_hist.join(" "),
        srv.get("cache.evictions"),
        srv.get("rejected.queue_full"),
        srv.get("rejected.overloaded"),
        srv.get("rejected.circuit_open"),
        srv.get("rejected.malformed"),
        srv.get("rejected.oversized"),
        srv.get("deadline_exceeded"),
        srv.get("degraded"),
    );
    report.check(
        "completed_eq_served",
        srv.get("served") == answered as f64,
        format!(
            "client replies {answered} == server served delta {}",
            srv.get("served")
        ),
    );
    report.check(
        "lookups_eq_sent",
        hits + misses == attempted as f64,
        format!("hits {hits} + misses {misses} == sent {attempted}"),
    );
    let lat_samples = srv.get("latency.samples");
    if lat_samples > 0.0 {
        let server_mean = srv.get("latency.total_ms") * 1e3 / lat_samples;
        let phases: f64 = ["coalesce", "queue", "engine"]
            .iter()
            .map(|p| srv.phase(p, "total_ms") * 1e3)
            .sum::<f64>()
            / lat_samples;
        let gap = server_mean - phases;
        report.check(
            "server_phases_cover_latency",
            gap >= -5.0 && gap <= PHASE_TOLERANCE * server_mean + 5.0,
            format!(
                "server mean {server_mean:.1} us vs coalesce+queue+engine {phases:.1} us \
                 (tolerance -5 us .. {:.0}% + 5 us)",
                PHASE_TOLERANCE * 100.0
            ),
        );
    }
    let hit_ratio = hits / (hits + misses).max(1.0);
    let role = match spec.name {
        "hot_cached" => (
            dispatches == 0.0 && misses == 0.0,
            "no dispatches, no misses",
        ),
        "zipf_open" => (hit_ratio > 0.0 && hit_ratio < 1.0, "0 < hit ratio < 1"),
        _ => (hits == 0.0, "no cache hits"),
    };
    report.check("workload_role", role.0, role.1.to_string());

    if args.trace {
        let answered_lat = lat.iter().filter(|&&l| l != FAILED);
        let mean_latency_us =
            answered_lat.map(|&l| f64::from(l)).sum::<f64>() / answered.max(1) as f64 / 1e3;
        let respond_n = srv.phase("respond", "samples");
        let respond_us = srv.phase("respond", "total_ms") * 1e3 / respond_n.max(1.0);
        traced(
            args,
            conns_n,
            &mut report,
            TcpSide {
                hit_ratio,
                evictions_per_req: srv.get("cache.evictions") / attempted.max(1) as f64,
                dispatches,
                batch_mean: riders / dispatches.max(1.0),
                respond_us,
                late_p99_us: quantile(&late, 0.99) as f64 / 1e3,
                mean_latency_us,
            },
        )?;
    }

    let correct = verdict.failed() == 0 && report.failed_checks == 0;
    let metrics = if args.trace {
        &report.layers
    } else {
        &report.e2e
    };
    let mut m = Json::object();
    for (name, value, unit) in metrics {
        m = m.with(
            name,
            Json::object().with("value", *value).with("unit", *unit),
        );
    }
    let result = Json::object()
        .with("correct", correct)
        .with("attempted", attempted)
        .with("failed", verdict.failed())
        .with("metrics", m);
    println!("{}", result.render());
    Ok(correct)
}

/// Per-layer figures measured over TCP in the traced run.
struct TcpSide {
    hit_ratio: f64,
    evictions_per_req: f64,
    dispatches: f64,
    batch_mean: f64,
    respond_us: f64,
    late_p99_us: f64,
    mean_latency_us: f64,
}

/// The traced replay and the per-layer metrics.
fn traced(args: &Args, vconns: usize, report: &mut Report, tcp: TcpSide) -> Result<(), String> {
    let mut wl = Workload::new(args.spec, args.seed);
    let line = |wl: &Workload, idx: u32, id: u64| {
        let mut buf = Vec::new();
        wl.write_line(idx, id, &mut buf);
        buf.pop();
        String::from_utf8(buf).expect("generated lines are ASCII")
    };
    let warm: Vec<String> = wl
        .warmup()
        .iter()
        .enumerate()
        .map(|(i, &p)| line(&wl, p, i as u64 + 1))
        .collect();
    let lines: Vec<String> = (0..REPLAY_LINES)
        .map(|i| {
            let p = wl.next();
            line(&wl, p, (warm.len() + i) as u64 + 1)
        })
        .collect();
    let traced = replay::replay(&warm, &lines, vconns, true, REPLAY_BUDGET);
    let plain = replay::replay(&warm, &lines[..traced.lines], vconns, false, REPLAY_BUDGET);
    let overhead = (traced.wall.as_secs_f64() / plain.wall.as_secs_f64().max(1e-9) - 1.0) * 100.0;
    let out = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("out")
        .join(format!("spans-{}.ndjson", args.spec.name));
    replay::write_spans(&out, &traced.spans).map_err(|e| format!("writing spans: {e}"))?;
    println!(
        "info replay lines={} spans={} traced_wall_s={:.4} plain_wall_s={:.4} spans_file={}",
        traced.lines,
        traced.spans.len(),
        traced.wall.as_secs_f64(),
        plain.wall.as_secs_f64(),
        out.display()
    );
    let l = Layers::of(&traced.spans);
    let per = format!("replay n={}", l.requests);
    let per_miss = format!("replay per miss, n={}", l.misses);
    for (name, span, note) in [
        ("json.parse_us", "json.parse", &per),
        ("protocol.decode_us", "protocol.decode", &per),
        ("protocol.key_us", "protocol.key", &per),
        ("cache.get_us", "cache.get", &per),
        ("protocol.encode_us", "protocol.encode", &per),
        ("cache.insert_us", "cache.insert", &per_miss),
        ("queue.wait_us", "queue.wait", &per_miss),
    ] {
        report.layer(name, l.us(span), "us", note.clone());
    }
    report.layer(
        "engine.us_per_req",
        l.engine_us_per_req,
        "us",
        per_miss.clone(),
    );
    for class in CLASS_NAMES {
        let v = l.ns_per_cell.get(class).copied().unwrap_or(0.0);
        let note = if v == 0.0 {
            "not in this workload"
        } else {
            "engine::body_work cells"
        };
        report.layer(
            &format!("engine.ns_per_cell.{class}"),
            v,
            "ns",
            note.to_string(),
        );
    }
    report.layer(
        "cache.hit_ratio",
        tcp.hit_ratio,
        "ratio",
        "server hits/lookups over the window".into(),
    );
    report.layer(
        "cache.evictions_per_req",
        tcp.evictions_per_req,
        "count/req",
        "server evictions per request sent".into(),
    );
    report.layer(
        "queue.dispatches",
        tcp.dispatches,
        "count",
        "server, over the window".into(),
    );
    report.layer(
        "queue.batch_mean",
        tcp.batch_mean,
        "req",
        "server engine riders / dispatches".into(),
    );
    report.layer(
        "server.respond_us",
        tcp.respond_us,
        "us",
        "server respond phase mean".into(),
    );
    let miss_share = 1.0 - tcp.hit_ratio;
    let layers_us = l.us("json.parse")
        + l.us("protocol.decode")
        + l.us("protocol.key")
        + l.us("cache.get")
        + l.us("protocol.encode")
        + miss_share
            * (l.us("queue.wait") + l.engine_us_per_req + l.us("cache.insert") + tcp.respond_us);
    let residual = tcp.mean_latency_us - layers_us;
    report.layer(
        "evloop.residual_us",
        residual,
        "us",
        format!(
            "client mean {:.1} us minus layer self-times {layers_us:.1} us",
            tcp.mean_latency_us
        ),
    );
    report.check(
        "layers_within_latency",
        residual >= -0.1 * tcp.mean_latency_us,
        "layer self-times + residual == client mean latency; residual >= -10% of it".to_string(),
    );
    report.layer(
        "driver.late_p99_us",
        tcp.late_p99_us,
        "us",
        "open-loop lateness (0: closed loop)".into(),
    );
    report.layer(
        "replay.trace_overhead_pct",
        overhead,
        "%",
        "traced vs untraced replay wall".into(),
    );
    if args.spec.name == "cold_large" {
        let engine = l.engine_us_per_req;
        let others = [
            "json.parse",
            "protocol.decode",
            "protocol.key",
            "cache.get",
            "protocol.encode",
            "cache.insert",
            "queue.wait",
        ];
        let largest = others.iter().all(|s| l.us(s) < engine) && tcp.respond_us < engine;
        report.check(
            "engine_largest_layer",
            largest,
            format!("engine {engine:.1} us/req"),
        );
    }
    if args.spec.name == "hot_cached" {
        report.check(
            "no_engine_time",
            l.misses == 0 && l.engine_us_per_req == 0.0,
            format!("{} replay misses", l.misses),
        );
    }
    Ok(())
}
