//! The traced replay: a workload's generated lines run in-process
//! through the same public functions the server calls, in the server's
//! order, with one span recorded around each call.
//!
//! `json::parse` → `protocol::decode` → `Body::canonical_key` →
//! `LruCache::get` → (miss) a standalone `queue::Queue` built from the
//! default `QueueConfig` → the engine bucket call → payload render +
//! `LruCache::insert` → `ok_cached_response` / `ok_engine_response`.
//!
//! Like the server, each virtual connection processes its lines in
//! order and keeps at most one compute request in flight, so the queue
//! holds as many requests as the timed run's connections keep there.
//! One dispatcher thread per class runs its flushed buckets inline (the
//! server fans them over a pool).  The replay routes completions itself
//! so they carry the request id; the server's own reply hop is measured
//! from its metrics instead (`server.respond_us`).

use sdp_fault::SdpError;
use sdp_serve::cache::LruCache;
use sdp_serve::engine;
use sdp_serve::json;
use sdp_serve::protocol::{self, Body, Class, Request, CLASSES};
use sdp_serve::queue::{Job, JobResponse, Queue, QueueConfig, ReplySink};
use sdp_serve::Config;
use sdp_trace::json::Json;
use std::collections::{HashMap, VecDeque};
use std::hint::black_box;
use std::io::Write as _;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{mpsc, Arc, Mutex};
use std::time::{Duration, Instant};

/// One recorded span.
#[derive(Clone, Debug)]
pub struct Span {
    /// Layer call, e.g. `cache.get`.
    pub name: &'static str,
    /// Span id; a request's root span is `16 × request`, its children
    /// follow it.
    pub id: u64,
    /// The root span of the request (0 for roots).
    pub parent: u64,
    /// Request sequence number within the replay.
    pub req: u64,
    /// Start, ns since the replay began.
    pub start_ns: u64,
    /// End, ns since the replay began.
    pub end_ns: u64,
    /// Engine class (empty for `json.parse`, which runs before the
    /// class is known).
    pub class: &'static str,
    /// Engine spans: analytic cells of every rider (`engine::body_work`).
    pub work: u64,
    /// Engine spans: requests in the bucket.
    pub riders: u32,
}

impl Span {
    /// Duration in ns.
    pub fn ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Child span offsets under a request's root id.
const PARSE: u64 = 1;
const DECODE: u64 = 2;
const KEY: u64 = 3;
const GET: u64 = 4;
const WAIT: u64 = 5;
const ENGINE: u64 = 6;
const INSERT: u64 = 7;
const ENCODE: u64 = 8;

/// Runs one coalesced bucket at the server's own engine seam
/// (`run_bucket_on(choose(..))`, the dispatcher's call) and returns the
/// backend tag with the results.  The one place to edit when the
/// server's dispatch changes.
pub fn run_engine(class: Class, bodies: &[Body]) -> (&'static str, Vec<Result<Json, SdpError>>) {
    let kind = engine::choose(bodies, Config::default().direct_threshold);
    (kind.name(), engine::run_bucket_on(kind, class, bodies))
}

struct Done {
    req: u64,
    engine: &'static str,
    batch: usize,
    result: Result<Json, SdpError>,
}

struct Shared {
    caches: Vec<Mutex<LruCache>>,
    queue: Queue,
    /// Request sequence numbers of in-flight misses, by cache key.
    inflight: Mutex<HashMap<Vec<u8>, VecDeque<u64>>>,
    tracing: AtomicBool,
    /// Span time zero.
    epoch: Instant,
}

impl Shared {
    /// The span clock: `None` while tracing is off, so untraced passes
    /// pay for no clock reads.
    fn now(&self) -> Option<u64> {
        self.tracing
            .load(Ordering::Relaxed)
            .then(|| self.epoch.elapsed().as_nanos() as u64)
    }
}

/// What one replay pass produced.
#[derive(Debug)]
pub struct Replay {
    /// Every span of the timed lines (empty when untraced).
    pub spans: Vec<Span>,
    /// Wall time of the timed lines.
    pub wall: Duration,
    /// Timed lines replayed.
    pub lines: usize,
}

/// Replays `warm` untimed, then `lines` timed, over `vconns` virtual
/// connections.  Traced passes stop taking new lines after `budget`.
pub fn replay(
    warm: &[String],
    lines: &[String],
    vconns: usize,
    trace: bool,
    budget: Duration,
) -> Replay {
    let shared = Shared {
        caches: CLASSES
            .iter()
            .map(|_| Mutex::new(LruCache::new(Config::default().cache_capacity)))
            .collect(),
        queue: Queue::new(QueueConfig::default()),
        inflight: Mutex::new(HashMap::new()),
        tracing: AtomicBool::new(false),
        epoch: Instant::now(),
    };
    let (done_tx, done_rx) = mpsc::channel::<Done>();
    std::thread::scope(|s| {
        let dispatchers: Vec<_> = CLASSES
            .iter()
            .map(|&class| {
                let done = done_tx.clone();
                let shared = &shared;
                s.spawn(move || dispatch(shared, class, done))
            })
            .collect();
        let mut front = Front {
            shared: &shared,
            done: &done_rx,
            unused: mpsc::channel().0,
            spans: Vec::new(),
            seq: 0,
        };
        front.pass(warm, vconns, None);
        shared.tracing.store(trace, Ordering::Relaxed);
        let t0 = Instant::now();
        let lines = front.pass(lines, vconns, trace.then_some(budget));
        let wall = t0.elapsed();
        shared.tracing.store(false, Ordering::Relaxed);
        shared.queue.start_drain();
        let mut spans = front.spans;
        for d in dispatchers {
            spans.extend(d.join().expect("replay dispatchers do not panic"));
        }
        Replay { spans, wall, lines }
    })
}

/// The dispatcher side: flush buckets, run the engine, fill the cache.
fn dispatch(shared: &Shared, class: Class, done: mpsc::Sender<Done>) -> Vec<Span> {
    let mut spans = Vec::new();
    while let Some(buckets) = shared.queue.next_batches_for(class) {
        let flushed = shared.now();
        for jobs in buckets {
            let reqs: Vec<u64> = {
                let mut inflight = shared
                    .inflight
                    .lock()
                    .expect("replay never panics holding it");
                jobs.iter()
                    .map(|j| {
                        let waiting = inflight.get_mut(&j.cache_key).expect("submitted");
                        let req = waiting.pop_front().expect("one id per submit");
                        if waiting.is_empty() {
                            inflight.remove(&j.cache_key);
                        }
                        req
                    })
                    .collect()
            };
            let span = |name, k: u64, req: u64, start_ns, end_ns| Span {
                name,
                id: req * 16 + k,
                parent: req * 16,
                req,
                start_ns,
                end_ns,
                class: class.name(),
                work: 0,
                riders: 0,
            };
            if let Some(flushed) = flushed {
                for (job, &req) in jobs.iter().zip(&reqs) {
                    let enqueued = job.enqueued.saturating_duration_since(shared.epoch);
                    let start = enqueued.as_nanos() as u64;
                    spans.push(span("queue.wait", WAIT, req, start, flushed));
                }
            }
            let bodies: Vec<Body> = jobs.iter().map(|j| j.body.clone()).collect();
            let started = shared.now();
            let (engine, results) = run_engine(class, &bodies);
            if let (Some(start), Some(end)) = (started, shared.now()) {
                spans.push(Span {
                    work: bodies.iter().map(engine::body_work).sum(),
                    riders: bodies.len() as u32,
                    ..span("engine.run_bucket", ENGINE, reqs[0], start, end)
                });
            }
            let batch = jobs.len();
            for ((job, result), req) in jobs.into_iter().zip(results).zip(reqs) {
                if let Ok(payload) = &result {
                    let start = shared.now();
                    let rendered: Arc<str> = Arc::from(payload.render());
                    shared.caches[class.index()]
                        .lock()
                        .expect("replay never panics holding a cache")
                        .insert(job.cache_key, rendered);
                    if let (Some(start), Some(end)) = (start, shared.now()) {
                        spans.push(span("cache.insert", INSERT, req, start, end));
                    }
                }
                let _ = done.send(Done {
                    req,
                    engine,
                    batch,
                    result,
                });
            }
        }
    }
    spans
}

/// A request parked on a virtual connection until its miss completes.
struct Parked {
    vconn: usize,
    req: u64,
    id: i64,
    class: Class,
    start_ns: Option<u64>,
}

/// The connection side: parse, decode, key, probe, submit, encode.
struct Front<'a> {
    shared: &'a Shared,
    done: &'a mpsc::Receiver<Done>,
    /// `Job` needs a reply sink; the replay's dispatchers answer
    /// through `done` instead, so this one is never sent on.
    unused: mpsc::Sender<JobResponse>,
    spans: Vec<Span>,
    seq: u64,
}

impl Front<'_> {
    fn span(
        &mut self,
        name: &'static str,
        k: u64,
        req: u64,
        start: Option<u64>,
        class: &'static str,
    ) {
        if let (Some(start_ns), Some(end_ns)) = (start, self.shared.now()) {
            self.spans.push(Span {
                name,
                id: req * 16 + k,
                parent: if k == 0 { 0 } else { req * 16 },
                req,
                start_ns,
                end_ns,
                class,
                work: 0,
                riders: 0,
            });
        }
    }

    /// Replays `lines` round-robin over `vconns` and returns how many
    /// it took before `budget` ran out.
    fn pass(&mut self, lines: &[String], vconns: usize, budget: Option<Duration>) -> usize {
        let t0 = Instant::now();
        let mut queues: Vec<VecDeque<&str>> = vec![VecDeque::new(); vconns];
        for (i, line) in lines.iter().enumerate() {
            queues[i % vconns].push_back(line);
        }
        let mut parked: Vec<Parked> = Vec::new();
        let mut taken = 0;
        let mut open = true;
        loop {
            let mut progressed = false;
            for (v, queue) in queues.iter_mut().enumerate() {
                if !open || parked.iter().any(|p| p.vconn == v) {
                    continue;
                }
                let Some(line) = queue.pop_front() else {
                    continue;
                };
                taken += 1;
                progressed = true;
                if let Some(p) = self.admit(line, v) {
                    parked.push(p);
                }
                if budget.is_some_and(|b| t0.elapsed() >= b) {
                    open = false;
                }
            }
            if progressed {
                continue;
            }
            if parked.is_empty() {
                return taken;
            }
            let done = self.done.recv().expect("dispatchers outlive the front");
            let at = parked
                .iter()
                .position(|p| p.req == done.req)
                .expect("parked");
            let p = parked.swap_remove(at);
            let start = self.shared.now();
            let reply = match done.result {
                Ok(payload) => protocol::ok_engine_response(p.id, payload, done.batch, done.engine),
                Err(e) => protocol::error_response(p.id, &e),
            };
            black_box(reply);
            self.span("protocol.encode", ENCODE, p.req, start, p.class.name());
            self.span("request", 0, p.req, p.start_ns, p.class.name());
        }
    }

    /// Runs one line up to the cache probe; a hit is answered at once,
    /// a miss is submitted and parked.
    fn admit(&mut self, line: &str, vconn: usize) -> Option<Parked> {
        self.seq += 1;
        let req = self.seq;
        let root = self.shared.now();
        let doc = json::parse(line).expect("generated lines are valid JSON");
        self.span("json.parse", PARSE, req, root, "");
        let start = self.shared.now();
        let decoded = protocol::decode(&doc).expect("generated lines decode");
        let Request::Compute { id, body, .. } = decoded else {
            unreachable!("workloads send compute requests only")
        };
        let class = body.class();
        self.span("protocol.decode", DECODE, req, start, class.name());
        let start = self.shared.now();
        let key = body.canonical_key();
        self.span("protocol.key", KEY, req, start, class.name());
        let start = self.shared.now();
        let hit = self.shared.caches[class.index()]
            .lock()
            .expect("replay never panics holding a cache")
            .get(&key);
        self.span("cache.get", GET, req, start, class.name());
        if let Some(payload) = hit {
            let start = self.shared.now();
            black_box(protocol::ok_cached_response(id, &payload));
            self.span("protocol.encode", ENCODE, req, start, class.name());
            self.span("request", 0, req, root, class.name());
            return None;
        }
        self.shared
            .inflight
            .lock()
            .expect("replay never panics holding it")
            .entry(key.clone())
            .or_default()
            .push_back(req);
        let now = Instant::now();
        let deadline_ms = Config::default().default_deadline.as_millis() as u64;
        let job = Job {
            body,
            cache_key: key,
            tx: ReplySink::Channel(self.unused.clone()),
            enqueued: now,
            deadline: now + Duration::from_millis(deadline_ms),
            deadline_ms,
        };
        self.shared
            .queue
            .submit(job)
            .expect("the replay keeps the queue far below its limits");
        Some(Parked {
            vconn,
            req,
            id,
            class,
            start_ns: root,
        })
    }
}

/// Per-layer means over a traced replay, µs unless named otherwise.
#[derive(Debug, Default)]
pub struct Layers {
    /// Requests replayed.
    pub requests: u64,
    /// Requests that missed the cache.
    pub misses: u64,
    /// Mean self time per call, µs, by span name.
    pub mean_us: HashMap<&'static str, f64>,
    /// Engine time per request that ran on it, µs.
    pub engine_us_per_req: f64,
    /// Engine ns per analytic cell, by class name (absent: no cells).
    pub ns_per_cell: HashMap<&'static str, f64>,
}

impl Layers {
    /// Mean self time of span `name`, µs (0 when never called).
    pub fn us(&self, name: &str) -> f64 {
        self.mean_us.get(name).copied().unwrap_or(0.0)
    }

    /// Summarises a replay's spans.  Every layer span is a leaf, so its
    /// self time is its duration.
    pub fn of(spans: &[Span]) -> Layers {
        let mut sums: HashMap<&'static str, (u64, u64)> = HashMap::new();
        let mut engine: HashMap<&'static str, (u64, u64)> = HashMap::new();
        let (mut engine_ns, mut riders) = (0u64, 0u64);
        for s in spans {
            let e = sums.entry(s.name).or_default();
            e.0 += s.ns();
            e.1 += 1;
            if s.name == "engine.run_bucket" {
                engine_ns += s.ns();
                riders += u64::from(s.riders);
                let c = engine.entry(s.class).or_default();
                c.0 += s.ns();
                c.1 += s.work;
            }
        }
        let count = |name| sums.get(name).map_or(0, |e| e.1);
        Layers {
            requests: count("request"),
            misses: count("queue.wait"),
            mean_us: sums
                .iter()
                .map(|(&k, &(ns, n))| (k, ns as f64 / n as f64 / 1e3))
                .collect(),
            engine_us_per_req: if riders == 0 {
                0.0
            } else {
                engine_ns as f64 / riders as f64 / 1e3
            },
            ns_per_cell: engine
                .into_iter()
                .filter(|(_, (_, cells))| *cells > 0)
                .map(|(class, (ns, cells))| (class, ns as f64 / cells as f64))
                .collect(),
        }
    }
}

/// Writes spans as NDJSON, one span per line.
pub fn write_spans(path: &std::path::Path, spans: &[Span]) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    for s in spans {
        writeln!(
            out,
            r#"{{"name":"{}","id":{},"parent":{},"req":{},"start_ns":{},"end_ns":{},"class":"{}","work":{},"riders":{}}}"#,
            s.name, s.id, s.parent, s.req, s.start_ns, s.end_ns, s.class, s.work, s.riders
        )?;
    }
    out.flush()
}
