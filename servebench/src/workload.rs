//! The four workloads: their load shape, the problems they send, and
//! the oracle answer each problem must get.
//!
//! Every input comes from the `--seed`: the same seed yields the same
//! problem table, the same warm-up list and the same request stream, so
//! the timed TCP run and the traced in-process replay see identical
//! lines.  The server only ever receives the rendered request lines.

use sdp_oracle::served;
use std::collections::hash_map::DefaultHasher;
use std::collections::HashSet;
use std::hash::{Hash, Hasher};

/// How a workload offers load.
#[derive(Clone, Copy, Debug)]
pub enum Load {
    /// Each connection keeps `window` requests outstanding and sends
    /// the next one as soon as a reply arrives.
    Closed {
        /// Outstanding requests per connection.
        window: usize,
    },
    /// Requests are due on a fixed schedule, round-robin over the
    /// connections, whatever the replies do.
    Open {
        /// Aggregate send rate.
        rate_per_s: f64,
    },
}

/// One workload: a name, a load shape, and why it is in the benchmark.
#[derive(Debug)]
pub struct Spec {
    /// Name on the command line and in `BENCHMARK.json`.
    pub name: &'static str,
    /// Load shape.
    pub load: Load,
    /// What it exercises.
    pub why: &'static str,
}

/// Problems in the `hot_cached` set.
pub const HOT_SET: usize = 8;
/// Cached requests `hot_cached` sends after its two warm-up passes, so
/// buffers and caches settle before the window.
const HOT_SETTLE: usize = 20_000;
/// Distinct keys behind `zipf_open`: about 3.2× the 256-entry
/// per-class cache for each of the five classes.
const ZIPF_KEYS: usize = 4096;
/// Requests sent during set-up before the window opens: enough to
/// settle the server, and for `zipf_open` to fill its caches.
const COLD_SMALL_WARMUP: usize = 512;
const COLD_LARGE_WARMUP: usize = 96;
const ZIPF_WARMUP: usize = 4096;

/// The workloads.  `BENCHMARK.json` lists `cold_small` and `cold_large`
/// only: on a shared two-core host, `hot_cached` figures follow the
/// host's CPU speed (its throughput moved 50% across ten runs) and the
/// `zipf_open` median is a wake-up round trip that moved 2× with host
/// load, so neither holds a 25% regression bound from run to run.  Both
/// stay runnable by name.
pub const SPECS: [Spec; 4] = [
    Spec {
        name: "hot_cached",
        load: Load::Closed { window: 32 },
        why: "closed loop, 2 conns x 32 over 8 warmed mixed problems: every reply is a cache hit, so evloop, json, protocol and cache.get work while queue and engine idle",
    },
    Spec {
        name: "cold_small",
        load: Load::Closed { window: 16 },
        why: "closed loop, 2 conns x 16, distinct small edit/chain/bst/align/knapsack on the simulators: every request waits in the queue, runs the engine and writes the cache",
    },
    Spec {
        name: "cold_large",
        load: Load::Closed { window: 4 },
        why: "closed loop, 2 conns x 4, distinct 512x512 alignments and 32-item C=4096 knapsacks on the direct kernels: the engine dominates and the knapsack row makes encode visible",
    },
    Spec {
        name: "zipf_open",
        load: Load::Open { rate_per_s: 4000.0 },
        why: "open loop at 4000 req/s, Zipf(1) keys over 3.2x the per-class cache: the only hit ratio strictly between 0 and 1, hits queue behind misses",
    },
];

/// SplitMix64: small, seedable, and good enough for test inputs.
#[derive(Clone, Debug)]
pub struct Rng(u64);

impl Rng {
    /// A generator for `seed` mixed with a stream tag, so distinct
    /// streams of one seed never overlap.
    pub fn new(seed: u64, stream: u64) -> Rng {
        Rng(seed ^ stream.wrapping_mul(0xA076_1D64_78BD_642F))
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `lo..=hi` (modulo bias is irrelevant at these ranges).
    pub fn range(&mut self, lo: u64, hi: u64) -> u64 {
        lo + self.next_u64() % (hi - lo + 1)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    fn dna(&mut self, len: usize) -> Vec<u8> {
        (0..len)
            .map(|_| b"acgt"[self.range(0, 3) as usize])
            .collect()
    }

    fn list(&mut self, len: usize, lo: u64, hi: u64) -> Vec<u64> {
        (0..len).map(|_| self.range(lo, hi)).collect()
    }
}

/// One problem instance, in the request classes the workloads use.
#[derive(Clone, Debug)]
pub enum Problem {
    /// Edit distance between two strings.
    Edit { a: Vec<u8>, b: Vec<u8> },
    /// Matrix-chain order over the dimension vector.
    Chain { dims: Vec<u64> },
    /// Optimal BST over access frequencies.
    Bst { freq: Vec<u64> },
    /// Smith–Waterman under the default scoring (2/−1/1).
    Align { a: Vec<u8>, b: Vec<u8> },
    /// 0/1 knapsack.
    Knapsack {
        weights: Vec<u64>,
        values: Vec<u64>,
        capacity: u64,
    },
}

/// Classes the workloads send, in report order.
pub const CLASS_NAMES: [&str; 5] = ["edit", "chain", "bst", "align", "knapsack"];

fn join(xs: &[u64]) -> String {
    xs.iter().map(u64::to_string).collect::<Vec<_>>().join(",")
}

fn text(bytes: &[u8]) -> &str {
    std::str::from_utf8(bytes).expect("generated strings are ASCII")
}

impl Problem {
    /// A small problem of class `class` (an index into
    /// [`CLASS_NAMES`]); all of them stay under the server's 4096-cell
    /// direct threshold, so they run on the simulators.
    pub fn small(rng: &mut Rng, class: usize) -> Problem {
        match class {
            0 => Problem::Edit {
                a: rng.dna(10),
                b: rng.dna(10),
            },
            1 => Problem::Chain {
                dims: rng.list(9, 2, 64),
            },
            2 => Problem::Bst {
                freq: rng.list(8, 1, 100),
            },
            3 => Problem::Align {
                a: rng.dna(32),
                b: rng.dna(32),
            },
            _ => Problem::Knapsack {
                weights: rng.list(8, 1, 16),
                values: rng.list(8, 1, 100),
                capacity: 64,
            },
        }
    }

    /// A large problem: a 512×512 alignment or a 32-item knapsack of
    /// capacity 4096, both on the direct kernels.
    pub fn large(rng: &mut Rng) -> Problem {
        if rng.range(0, 1) == 0 {
            Problem::Align {
                a: rng.dna(512),
                b: rng.dna(512),
            }
        } else {
            Problem::Knapsack {
                weights: rng.list(32, 1, 512),
                values: rng.list(32, 1, 1000),
                capacity: 4096,
            }
        }
    }

    /// The class name, as on the wire and in the server's metrics.
    pub fn class(&self) -> &'static str {
        match self {
            Problem::Edit { .. } => "edit",
            Problem::Chain { .. } => "chain",
            Problem::Bst { .. } => "bst",
            Problem::Align { .. } => "align",
            Problem::Knapsack { .. } => "knapsack",
        }
    }

    /// The request line after its `{"id":N` prefix, closing brace
    /// included (no newline).
    pub fn body(&self) -> String {
        match self {
            Problem::Edit { a, b } => {
                format!(r#","kind":"edit","a":"{}","b":"{}"}}"#, text(a), text(b))
            }
            Problem::Chain { dims } => format!(r#","kind":"chain","dims":[{}]}}"#, join(dims)),
            Problem::Bst { freq } => format!(r#","kind":"bst","freq":[{}]}}"#, join(freq)),
            Problem::Align { a, b } => {
                format!(r#","kind":"align","a":"{}","b":"{}"}}"#, text(a), text(b))
            }
            Problem::Knapsack {
                weights,
                values,
                capacity,
            } => format!(
                r#","kind":"knapsack","weights":[{}],"values":[{}],"capacity":{capacity}}}"#,
                join(weights),
                join(values)
            ),
        }
    }

    /// The `result` payload the oracle predicts, rendered.  For `chain`
    /// it is the `cost` field only: the served object also carries the
    /// array's `steps`, a timing fact the oracle does not model.
    pub fn expected(&self) -> String {
        match self {
            Problem::Edit { a, b } => served::served_edit(a, b).render(),
            Problem::Chain { dims } => served::served_chain_cost(dims).render(),
            Problem::Bst { freq } => served::served_bst(freq).render(),
            Problem::Align { a, b } => served::served_align(a, b, 2, -1, 1).render(),
            Problem::Knapsack {
                weights,
                values,
                capacity,
            } => {
                let items: Vec<(u64, u64)> = weights
                    .iter()
                    .copied()
                    .zip(values.iter().copied())
                    .collect();
                served::served_knapsack(&items, *capacity).render()
            }
        }
    }
}

/// Where a workload's requests come from.
#[derive(Debug)]
enum Source {
    /// Uniform draws over the fixed hot set.
    Hot,
    /// A fresh, never-repeated problem per request; `seen` holds the
    /// hashes of every request body generated so far (a collision only
    /// skips a problem).
    Fresh { large: bool, seen: HashSet<u64> },
    /// Zipf(1) draws over the fixed key table; `cdf[r]` is the
    /// cumulative probability of ranks `0..=r`.
    Zipf { cdf: Vec<f64> },
}

/// A workload's generated inputs: the problem table and the stream of
/// indices into it.
#[derive(Debug)]
pub struct Workload {
    /// The workload definition.
    pub spec: &'static Spec,
    problems: Vec<Problem>,
    bodies: Vec<String>,
    rng: Rng,
    source: Source,
    warmup: Vec<u32>,
}

impl Workload {
    /// The workload named `name`, or `None`.
    pub fn spec(name: &str) -> Option<&'static Spec> {
        SPECS.iter().find(|s| s.name == name)
    }

    /// Generates the workload's inputs for `seed`.
    pub fn new(spec: &'static Spec, seed: u64) -> Workload {
        let mut table = Rng::new(seed, 1);
        let mut wl = Workload {
            spec,
            problems: Vec::new(),
            bodies: Vec::new(),
            rng: Rng::new(seed, 2),
            source: Source::Hot,
            warmup: Vec::new(),
        };
        match spec.name {
            "hot_cached" => {
                for class in [0, 1, 2, 3, 4, 0, 3, 4] {
                    wl.push(Problem::small(&mut table, class));
                }
                // Each problem twice: the first pass computes and fills
                // the cache, the second returns the cached replies the
                // window's replies are compared with.  Then a settling
                // run of cached requests.
                let mut warm = Rng::new(seed, 3);
                let settle = (0..HOT_SETTLE).map(|_| warm.range(0, HOT_SET as u64 - 1) as u32);
                wl.warmup = (0..HOT_SET as u32)
                    .chain(0..HOT_SET as u32)
                    .chain(settle)
                    .collect();
            }
            "cold_small" | "cold_large" => {
                let large = spec.name == "cold_large";
                wl.source = Source::Fresh {
                    large,
                    seen: HashSet::new(),
                };
                let mut warm = Rng::new(seed, 3);
                let n = if large {
                    COLD_LARGE_WARMUP
                } else {
                    COLD_SMALL_WARMUP
                };
                wl.warmup = (0..n).map(|_| wl.fresh(&mut warm)).collect();
            }
            "zipf_open" => {
                for _ in 0..ZIPF_KEYS {
                    let class = table.range(0, 4) as usize;
                    wl.push(Problem::small(&mut table, class));
                }
                let weights: Vec<f64> = (1..=ZIPF_KEYS).map(|r| 1.0 / r as f64).collect();
                let total: f64 = weights.iter().sum();
                let mut acc = 0.0;
                let cdf = weights
                    .iter()
                    .map(|w| {
                        acc += w / total;
                        acc
                    })
                    .collect();
                wl.source = Source::Zipf { cdf };
                let mut warm = Rng::new(seed, 3);
                wl.warmup = (0..ZIPF_WARMUP).map(|_| wl.zipf(&mut warm)).collect();
            }
            other => unreachable!("unknown workload {other}"),
        }
        wl
    }

    fn push(&mut self, p: Problem) {
        self.bodies.push(p.body());
        self.problems.push(p);
    }

    /// A problem never generated before in this workload.
    fn fresh(&mut self, rng: &mut Rng) -> u32 {
        let Source::Fresh { large, seen } = &mut self.source else {
            unreachable!("fresh problems only for cold workloads")
        };
        loop {
            let p = if *large {
                Problem::large(rng)
            } else {
                let class = rng.range(0, 4) as usize;
                Problem::small(rng, class)
            };
            let body = p.body();
            let mut h = DefaultHasher::new();
            body.hash(&mut h);
            if seen.insert(h.finish()) {
                self.problems.push(p);
                self.bodies.push(body);
                return (self.problems.len() - 1) as u32;
            }
        }
    }

    fn zipf(&self, rng: &mut Rng) -> u32 {
        let Source::Zipf { cdf } = &self.source else {
            unreachable!("zipf draws only for zipf_open")
        };
        let u = rng.unit();
        cdf.partition_point(|&c| c < u).min(cdf.len() - 1) as u32
    }

    /// The next request of the stream, as an index into the table.
    pub fn next(&mut self) -> u32 {
        let mut rng = std::mem::replace(&mut self.rng, Rng(0));
        let idx = match self.source {
            Source::Hot => rng.range(0, HOT_SET as u64 - 1) as u32,
            Source::Fresh { .. } => self.fresh(&mut rng),
            Source::Zipf { .. } => self.zipf(&mut rng),
        };
        self.rng = rng;
        idx
    }

    /// The requests sent during set-up, before the window opens.
    pub fn warmup(&self) -> &[u32] {
        &self.warmup
    }

    /// Problem `idx`.
    pub fn problem(&self, idx: u32) -> &Problem {
        &self.problems[idx as usize]
    }

    /// Appends request line `idx` with correlation id `id`, newline
    /// included.
    pub fn write_line(&self, idx: u32, id: u64, out: &mut Vec<u8>) {
        use std::io::Write as _;
        let _ = write!(out, "{{\"id\":{id}");
        out.extend_from_slice(self.bodies[idx as usize].as_bytes());
        out.push(b'\n');
    }
}
