//! `sdp-serve` — a dynamic-batching request server over the systolic
//! DP engines.
//!
//! The simulation crates answer one problem per call; this crate turns
//! them into a long-running service.  Clients connect over TCP and send
//! newline-delimited JSON requests for any engine family — multistage
//! graphs on Designs 1/2, min-plus matrix products, edit distance,
//! matrix-chain/optimal-BST, AND/OR graph evaluation, Smith–Waterman
//! local alignment (`align`), and 0/1 knapsack (`knapsack`).  Each
//! connection is pipelined: every request line it sends is admitted on
//! arrival (up to a per-connection cap) and answered in line order.
//! The server answers every request on the `sdp-backend` direct
//! solvers, which are bit-identical to the cycle-accurate simulators
//! of the paper's arrays.  Same-shape requests that arrive while their
//! class's dispatcher is busy ride its next batch.  The server caches
//! results under canonical problem keys, and degrades every failure —
//! malformed input, engine panics, overload, shutdown — into a typed
//! [`SdpError`](sdp_fault::SdpError) response instead of a dropped
//! connection.
//!
//! Module map:
//! - [`json`]: wire-format parser (inverse of `sdp-trace`'s serializer)
//! - [`protocol`]: request decoding, canonical keys, response envelopes
//! - [`queue`]: admission control, load shedding, and batch coalescing
//! - [`breaker`]: per-engine-class circuit breaker
//! - [`engine`]: one bucket path per class onto the direct solvers (the
//!   simulators stay as the reference arm), plus the oracle payload an
//!   open breaker degrades to
//! - [`cache`]: exact-key LRU result cache
//! - [`metrics`]: lock-free telemetry (counters, histograms, spans)
//!   over the `sdp-metrics` registry, with JSON and Prometheus exporters
//! - [`evloop`]: `poll(2)` readiness primitives and the self-pipe wake
//!   channel shared by the server front-end and the load generator
//! - [`server`]: acceptor, event-loop connection workers, per-class
//!   dispatchers
//! - [`client`]: blocking client and request builders
//! - [`loadgen`]: open/closed-loop load generator (the `sdp_loadgen`
//!   binary) for saturation benchmarking

#![warn(missing_docs)]

pub mod breaker;
pub mod cache;
pub mod client;
pub mod engine;
pub mod evloop;
pub mod json;
pub mod loadgen;
pub mod metrics;
pub mod protocol;
pub mod queue;
pub mod server;

pub use client::{Client, RetryPolicy};
pub use server::{serve, ServerHandle};

use sdp_fault::ServeChaos;
use std::sync::Arc;
use std::time::Duration;

/// Server configuration.
#[derive(Clone, Debug)]
pub struct Config {
    /// Bind address; use port 0 to let the OS pick.
    pub addr: String,
    /// Admission-queue depth limit (beyond it: `queue_full`).
    pub max_queue: usize,
    /// Load-shed threshold: at or beyond this queue depth (but below
    /// `max_queue`) new work is shed with a typed `overloaded` error
    /// carrying a `retry_after_ms` hint.
    pub shed_queue: usize,
    /// Coalesced-batch size cap.
    pub max_batch: usize,
    /// Hold window: a bucket waits until its oldest rider has waited
    /// this long (or it holds `max_batch` riders).  Zero, the default,
    /// flushes work-conserving: a free dispatcher takes every pending
    /// bucket at once, so batches form only while it is busy.
    pub max_delay: Duration,
    /// Event-loop connection workers (each owns a slab of nonblocking
    /// sockets multiplexed with `poll(2)`).
    pub event_workers: usize,
    /// LRU result-cache capacity (0 disables caching).
    pub cache_capacity: usize,
    /// Worker threads in the dispatch pool.
    pub workers: usize,
    /// Request-line byte limit (beyond it: `payload_too_large`).
    pub max_request_bytes: usize,
    /// Deadline applied to requests that carry no `deadline_ms` field.
    /// Jobs still queued when their deadline passes are expired with a
    /// typed `deadline_exceeded` error instead of burning engine work.
    pub default_deadline: Duration,
    /// Slow-loris reap window: a connection stalled mid-request-line
    /// (or that never completed one) for this long is closed.
    /// Established connections idling cleanly between requests are
    /// exempt — a parked socket costs the event loop nothing.
    pub idle_timeout: Duration,
    /// Socket write timeout for response lines.
    pub write_timeout: Duration,
    /// Consecutive engine-bucket panics of one class that trip that
    /// class's circuit breaker open.
    pub breaker_trip_after: u32,
    /// How long a tripped breaker stays open before admitting one
    /// half-open probe.
    pub breaker_cooldown: Duration,
    /// While a breaker is open, requests whose canonical key is at most
    /// this many bytes are answered by the `sdp-oracle` reference
    /// solver (degraded but correct); larger ones are fast-rejected.
    pub breaker_fallback_max_bytes: usize,
    /// The size crossover servebench's replay passes to
    /// [`engine::choose`]; the server itself does not read it and runs
    /// every bucket on the direct solvers.  The default, 0, makes the
    /// replay's `choose` pick those same kernels.
    pub direct_threshold: u64,
    /// Serving-level chaos injection (`None` in production: the hooks
    /// cost one `Option` check per site).
    pub chaos: Option<Arc<ServeChaos>>,
    /// Collect per-request phase spans into an in-memory Chrome trace,
    /// exported via [`ServerHandle::trace_snapshot`] (and the
    /// `sdp-serve --trace-out` flag).
    pub trace: bool,
}

impl Default for Config {
    fn default() -> Config {
        // The queue knobs have one source: servebench's replay builds
        // its queue from `QueueConfig::default()` to mirror the server.
        let queue = queue::QueueConfig::default();
        Config {
            addr: "127.0.0.1:0".to_string(),
            max_queue: queue.max_queue,
            shed_queue: queue.shed_queue,
            max_batch: queue.max_batch,
            max_delay: queue.max_delay,
            event_workers: 2,
            cache_capacity: 256,
            workers: 4,
            max_request_bytes: 1 << 20,
            default_deadline: Duration::from_secs(30),
            idle_timeout: Duration::from_secs(60),
            write_timeout: Duration::from_secs(10),
            breaker_trip_after: 5,
            breaker_cooldown: Duration::from_secs(1),
            breaker_fallback_max_bytes: 4096,
            direct_threshold: 0,
            chaos: None,
            trace: false,
        }
    }
}
