//! Admission queue with per-class shards and batch coalescing.
//!
//! Requests are grouped into buckets keyed by `(class, shape_key)` —
//! only uniform-shape instances can share one batch engine call (the
//! batch entry points reject mixed shapes).  Each engine class owns a
//! **shard**: its own bucket map, `Mutex`, and `Condvar`, with one
//! dispatcher thread parked per shard, so hot classes stop serializing
//! on one global lock and an admission for `edit` never wakes the
//! `matmul` dispatcher.  Depth accounting and the drain flag are
//! shard-agnostic atomics so the admission fast path touches only its
//! own shard's lock.
//!
//! A bucket is ready when it holds `max_batch` riders, when its oldest
//! rider has waited `max_delay`, or when the server starts draining.
//! The default `max_delay` is zero, so the flush is work-conserving: a
//! free dispatcher takes every pending bucket of its shard at once, and
//! a batch is whatever piled up while it ran the previous flush.  Paper
//! Eq. 9 (utilisation B/(B + fill/drain)) would pay for holding buckets
//! open on the simulated arrays, but the direct kernels the server runs
//! have no fill or drain: a hold window would buy only amortised
//! dispatch overhead, which the dispatcher's own busy time already
//! buys.  A nonzero `max_delay` is an explicit hold window.  A wake-up
//! (an admission, a stray notify) only re-evaluates readiness, so it
//! can never flush a young bucket early.  Admission and wake-up are
//! separable ([`Queue::admit`], [`Queue::wake`]): the server wakes each
//! class once per connection burst, so the whole burst is pending when
//! the dispatcher looks.
//!
//! Backpressure is enforced at admission in two tiers: at or beyond
//! `shed_queue` queued requests `submit` sheds with
//! [`SdpError::Overloaded`] (carrying a `retry_after_ms` hint derived
//! from recently *measured* flush throughput — see [`drain_hint_ms`]),
//! beyond `max_queue` it hard-rejects with [`SdpError::QueueFull`],
//! and after [`Queue::start_drain`] it returns
//! [`SdpError::ShuttingDown`].  Each class's dispatcher thread calls
//! [`Queue::next_batches_for`] in a loop; `None` means the shard
//! drained and that dispatcher may exit.

use crate::evloop::WakeHandle;
use crate::protocol::Body;
use crate::protocol::Class;
use crate::protocol::CLASSES;
use sdp_fault::SdpError;
use sdp_metrics::Gauge;
use sdp_par::lock_recover;
use std::collections::{HashMap, VecDeque};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{mpsc, Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

/// Coalescing and backpressure knobs.
#[derive(Clone, Copy, Debug)]
pub struct QueueConfig {
    /// Admission limit: queued (not yet dispatched) requests.
    pub max_queue: usize,
    /// Shed threshold: at or beyond this depth (but below `max_queue`)
    /// new work is shed with `overloaded` + `retry_after_ms`.
    pub shed_queue: usize,
    /// Flush a bucket as soon as it holds this many requests.
    pub max_batch: usize,
    /// Flush a bucket when its oldest rider has waited this long.  Zero
    /// (the default) holds nothing: a free dispatcher flushes whatever
    /// is pending.
    pub max_delay: Duration,
}

impl Default for QueueConfig {
    fn default() -> QueueConfig {
        QueueConfig {
            max_queue: 1024,
            shed_queue: 768,
            max_batch: 16,
            max_delay: Duration::ZERO,
        }
    }
}

/// Dispatcher-side span timings, forwarded to the event-loop worker so
/// it can close the request's `respond` phase (reply received → the
/// client-visible end of the request).
#[derive(Clone, Copy, Debug)]
pub struct SpanTimes {
    /// Admission → bucket flush (waiting for a free dispatcher, plus
    /// any hold window), µs.
    pub coalesce_us: u64,
    /// Bucket flush → a pool worker picked the batch up, µs.
    pub queue_us: u64,
    /// Engine run, µs.
    pub engine_us: u64,
    /// When the engine finished — the respond phase starts here.
    pub engine_done: Instant,
}

/// What the dispatcher sends back to the submitting connection.
#[derive(Debug)]
pub struct JobResponse {
    /// The rendered result payload (the same `Arc` the cache holds), or
    /// a typed failure.
    pub result: Result<Arc<str>, SdpError>,
    /// Size of the coalesced batch this job rode in.
    pub batch: usize,
    /// Which backend ran the bucket — `None` when no engine ran (the
    /// job expired at dispatch), so expirations can never masquerade
    /// as engine work.
    pub engine: Option<crate::engine::EngineKind>,
    /// Phase timings for the span pipeline.
    pub span: SpanTimes,
}

/// A completed job addressed to one reply slot of one event-loop
/// connection: `(slot, generation, seq, response)`.  The generation
/// guards against slot reuse — a completion for a connection that
/// already closed is silently dropped, exactly like the old
/// dropped-receiver send — and `seq` names the connection's reply slot.
pub type Completion = (usize, u64, u64, JobResponse);

/// Where a [`JobResponse`] is delivered.
#[derive(Debug)]
pub enum ReplySink {
    /// A blocking per-request channel (tests, simple embedders).
    Channel(mpsc::Sender<JobResponse>),
    /// An event-loop worker's completion inbox plus its wake pipe.
    Event {
        /// The worker's completion mailbox.
        inbox: Arc<Mutex<Vec<Completion>>>,
        /// Wakes the worker out of `poll` after pushing.
        wake: WakeHandle,
        /// Connection slot in the worker's slab.
        slot: usize,
        /// Slot generation at submit time.
        gen: u64,
        /// The request's reply slot in the connection's reply queue.
        seq: u64,
    },
}

impl ReplySink {
    /// Delivers `resp`; errors (hung-up channel) are ignored — a
    /// vanished client just discards the work.
    pub fn send(&self, resp: JobResponse) {
        match self {
            ReplySink::Channel(tx) => {
                let _ = tx.send(resp);
            }
            ReplySink::Event {
                inbox,
                wake,
                slot,
                gen,
                seq,
            } => {
                lock_recover(inbox).push((*slot, *gen, *seq, resp));
                wake.wake();
            }
        }
    }
}

/// One admitted compute request.
#[derive(Debug)]
pub struct Job {
    /// Decoded problem.
    pub body: Body,
    /// Canonical cache key (already probed and missed).
    pub cache_key: Vec<u8>,
    /// Reply route back to the owning connection.
    pub tx: ReplySink,
    /// Admission time, for latency metrics.
    pub enqueued: Instant,
    /// The job is expired (typed `deadline_exceeded`, no engine work)
    /// if it is still undispatched at this instant.
    pub deadline: Instant,
    /// The deadline the request carried, for the error payload.
    pub deadline_ms: u64,
}

/// Flush-throughput samples kept for the shed hint.
const FLUSH_LOG: usize = 8;

/// Flush history considered stale beyond this age: if the dispatchers
/// have not flushed recently, past throughput says nothing about the
/// drain rate the shed request will experience.
const FLUSH_STALE: Duration = Duration::from_secs(2);

/// Sizes the `Overloaded { retry_after_ms }` hint for a request shed
/// with `excess_over` jobs queued beyond the shed threshold.
///
/// With at least two recent flushes on record, the hint comes from the
/// *measured* drain rate: jobs flushed across the log divided by the
/// span from the oldest sample to `now`.  With no usable history (cold
/// server, stalled dispatchers, or a zero-rate degenerate window) it
/// falls back to the window-derived estimate — one `max_delay`, at
/// least 1 ms, per excess `max_batch`-sized flush — so a fresh server
/// never hints 0, even with the default zero window.
pub fn drain_hint_ms(
    excess_over: usize,
    flushes: &VecDeque<(Instant, usize)>,
    now: Instant,
    fallback_window: Duration,
    max_batch: usize,
) -> u64 {
    if flushes.len() >= 2 {
        let oldest = flushes.front().expect("len checked").0;
        let newest = flushes.back().expect("len checked").0;
        let jobs: usize = flushes.iter().map(|&(_, n)| n).sum();
        let elapsed = now.saturating_duration_since(oldest);
        let fresh = now.saturating_duration_since(newest) <= FLUSH_STALE;
        if fresh && !elapsed.is_zero() && jobs > 0 {
            let rate_per_ms = jobs as f64 / elapsed.as_secs_f64() / 1000.0;
            let need = (excess_over + 1) as f64;
            return (need / rate_per_ms).ceil().max(1.0) as u64;
        }
    }
    let excess_batches = excess_over / max_batch.max(1) + 1;
    let window_ms = (fallback_window.as_millis() as u64).max(1);
    window_ms * excess_batches as u64
}

struct Bucket {
    jobs: Vec<Job>,
    opened: Instant,
}

struct Shard {
    /// Open buckets of this class, keyed by shape.
    buckets: Mutex<HashMap<u64, Bucket>>,
    cv: Condvar,
}

/// The sharded admission queue.
pub struct Queue {
    cfg: QueueConfig,
    /// One shard per engine class, indexed by `Class::index`.
    shards: Vec<Shard>,
    /// Total queued-but-not-dispatched jobs across all shards.  Read
    /// without any lock on the admission fast path; the small window
    /// between the check and the increment can over-admit by at most
    /// the number of concurrently submitting threads, which the shed
    /// threshold's slack absorbs.
    depth: AtomicUsize,
    draining: AtomicBool,
    /// Mirror of `depth` for the metrics registry.
    depth_gauge: Arc<Gauge>,
    /// Recent `(flush time, jobs flushed)` samples for the shed hint.
    flushes: Mutex<VecDeque<(Instant, usize)>>,
}

impl Queue {
    /// An empty queue with the given knobs.
    pub fn new(cfg: QueueConfig) -> Queue {
        Queue {
            cfg,
            shards: CLASSES
                .iter()
                .map(|_| Shard {
                    buckets: Mutex::new(HashMap::new()),
                    cv: Condvar::new(),
                })
                .collect(),
            depth: AtomicUsize::new(0),
            draining: AtomicBool::new(false),
            depth_gauge: Arc::new(Gauge::new()),
            flushes: Mutex::new(VecDeque::with_capacity(FLUSH_LOG)),
        }
    }

    /// Queued-but-not-dispatched request count.
    pub fn depth(&self) -> usize {
        self.depth.load(Ordering::Relaxed)
    }

    /// The live depth gauge, for registration with the metrics
    /// registry (`sdp_queue_depth`).
    pub fn depth_gauge(&self) -> Arc<Gauge> {
        Arc::clone(&self.depth_gauge)
    }

    /// Admits a job, or rejects it with a typed backpressure error, and
    /// wakes its class's dispatcher.
    pub fn submit(&self, job: Job) -> Result<(), SdpError> {
        let class = job.body.class();
        self.admit(job)?;
        self.wake(class);
        Ok(())
    }

    /// [`Queue::submit`] without the wake-up.  A caller admitting a
    /// burst wakes each class once afterwards ([`Queue::wake`]): woken
    /// per admission, a dispatcher that preempts the admitting thread
    /// can take every request of the burst alone.
    pub fn admit(&self, job: Job) -> Result<(), SdpError> {
        if self.draining.load(Ordering::Acquire) {
            return Err(SdpError::ShuttingDown);
        }
        let depth = self.depth.load(Ordering::Relaxed);
        if depth >= self.cfg.max_queue {
            return Err(SdpError::QueueFull { depth });
        }
        if depth >= self.cfg.shed_queue {
            let hint = drain_hint_ms(
                depth - self.cfg.shed_queue,
                &lock_recover(&self.flushes),
                Instant::now(),
                self.cfg.max_delay,
                self.cfg.max_batch,
            );
            return Err(SdpError::Overloaded {
                retry_after_ms: hint,
            });
        }
        let class = job.body.class();
        let shape = job.body.shape_key();
        let shard = &self.shards[class.index()];
        let mut buckets = lock_recover(&shard.buckets);
        // Re-check under the shard lock: `start_drain` takes every
        // shard lock after setting the flag, so a submit that passes
        // here is guaranteed to be seen by the final drain flush.
        if self.draining.load(Ordering::Acquire) {
            return Err(SdpError::ShuttingDown);
        }
        buckets
            .entry(shape)
            .or_insert_with(|| Bucket {
                jobs: Vec::new(),
                opened: Instant::now(),
            })
            .jobs
            .push(job);
        let depth = self.depth.fetch_add(1, Ordering::Relaxed) + 1;
        self.depth_gauge.set(depth as i64);
        Ok(())
    }

    /// Wakes the dispatcher of `class` to flush what was admitted.
    pub fn wake(&self, class: Class) {
        self.shards[class.index()].cv.notify_one();
    }

    /// Stops admitting work and wakes every shard dispatcher so
    /// remaining buckets flush immediately.
    pub fn start_drain(&self) {
        self.draining.store(true, Ordering::Release);
        for shard in &self.shards {
            // Taking the lock orders this wake after any in-flight
            // submit that passed its drain re-check.
            let _guard = lock_recover(&shard.buckets);
            shard.cv.notify_all();
        }
    }

    /// Blocks until at least one bucket of `class` is ready, then
    /// removes and returns all ready buckets of that shard, in
    /// deterministic shape order.  Returns `None` once the queue is
    /// draining and the shard is empty.
    pub fn next_batches_for(&self, class: Class) -> Option<Vec<Vec<Job>>> {
        let shard = &self.shards[class.index()];
        let mut buckets = lock_recover(&shard.buckets);
        loop {
            let now = Instant::now();
            let draining = self.draining.load(Ordering::Acquire);
            let mut next_deadline: Option<Instant> = None;
            let mut ready_keys = Vec::new();
            for (&shape, bucket) in buckets.iter() {
                let deadline = bucket.opened + self.cfg.max_delay;
                if draining || bucket.jobs.len() >= self.cfg.max_batch || deadline <= now {
                    ready_keys.push(shape);
                } else {
                    next_deadline =
                        Some(next_deadline.map_or(deadline, |d: Instant| d.min(deadline)));
                }
            }
            if !ready_keys.is_empty() {
                // Deterministic flush order regardless of map iteration.
                ready_keys.sort_unstable();
                let cap = self.cfg.max_batch.max(1);
                let mut out = Vec::with_capacity(ready_keys.len());
                let mut flushed = 0usize;
                for key in ready_keys {
                    let bucket = buckets.remove(&key).expect("key just seen");
                    flushed += bucket.jobs.len();
                    // A bucket that outgrew the cap while the dispatcher
                    // was busy still dispatches in `max_batch`-sized
                    // batches: the cap bounds per-batch engine latency,
                    // not just flush readiness.
                    let mut jobs = bucket.jobs;
                    while jobs.len() > cap {
                        let tail = jobs.split_off(cap);
                        out.push(jobs);
                        jobs = tail;
                    }
                    out.push(jobs);
                }
                let depth = self.depth.fetch_sub(flushed, Ordering::Relaxed) - flushed;
                self.depth_gauge.set(depth as i64);
                drop(buckets);
                let mut log = lock_recover(&self.flushes);
                if log.len() == FLUSH_LOG {
                    log.pop_front();
                }
                log.push_back((Instant::now(), flushed));
                return Some(out);
            }
            if draining {
                return None;
            }
            // Park until an admission or drain wakes us: indefinitely on
            // an empty shard, else until the first hold window expires.
            buckets = match next_deadline {
                None => shard.cv.wait(buckets).unwrap_or_else(|e| e.into_inner()),
                Some(d) => {
                    shard
                        .cv
                        .wait_timeout(buckets, d.saturating_duration_since(now))
                        .unwrap_or_else(|e| e.into_inner())
                        .0
                }
            };
        }
    }

    /// Test hook: a stray `notify_all` on every shard, simulating
    /// spurious condvar wakeups.
    #[cfg(test)]
    pub(crate) fn poke(&self) {
        for shard in &self.shards {
            let _guard = lock_recover(&shard.buckets);
            shard.cv.notify_all();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn job(a: &str, b: &str) -> (Job, mpsc::Receiver<JobResponse>) {
        let (tx, rx) = mpsc::channel();
        (
            Job {
                body: Body::Edit {
                    a: a.as_bytes().to_vec(),
                    b: b.as_bytes().to_vec(),
                },
                cache_key: Vec::new(),
                tx: ReplySink::Channel(tx),
                enqueued: Instant::now(),
                deadline: Instant::now() + Duration::from_secs(3600),
                deadline_ms: 3_600_000,
            },
            rx,
        )
    }

    fn cfg(max_queue: usize, shed: usize, max_batch: usize, delay: Duration) -> QueueConfig {
        QueueConfig {
            max_queue,
            shed_queue: shed,
            max_batch,
            max_delay: delay,
        }
    }

    #[test]
    fn full_bucket_flushes_without_waiting_for_the_delay_window() {
        let q = Queue::new(cfg(64, 64, 2, Duration::from_secs(3600)));
        let (j1, _r1) = job("ab", "cd");
        let (j2, _r2) = job("xy", "zw");
        q.submit(j1).unwrap();
        q.submit(j2).unwrap();
        let batches = q.next_batches_for(Class::Edit).expect("not draining");
        assert_eq!(batches.len(), 1);
        assert_eq!(batches[0].len(), 2, "same shape coalesced");
        assert_eq!(q.depth(), 0);
    }

    #[test]
    fn an_overgrown_bucket_flushes_in_capped_batches() {
        // 40 same-shape jobs pile up before the dispatcher gets a turn:
        // the flush must still honor the batch cap (16, 16, 8), not
        // ship one 40-wide engine batch.
        let q = Queue::new(cfg(64, 64, 16, Duration::from_secs(3600)));
        let mut rxs = Vec::new();
        for _ in 0..40 {
            let (j, r) = job("ab", "cd");
            q.submit(j).unwrap();
            rxs.push(r);
        }
        let batches = q.next_batches_for(Class::Edit).expect("not draining");
        let sizes: Vec<usize> = batches.iter().map(Vec::len).collect();
        assert_eq!(sizes, vec![16, 16, 8]);
        assert_eq!(q.depth(), 0);
    }

    #[test]
    fn expired_bucket_flushes_even_when_not_full() {
        let q = Queue::new(cfg(64, 64, 100, Duration::from_millis(1)));
        let (j, _r) = job("ab", "cd");
        q.submit(j).unwrap();
        let batches = q.next_batches_for(Class::Edit).expect("not draining");
        assert_eq!(batches[0].len(), 1);
    }

    #[test]
    fn a_lone_job_flushes_at_once_by_default() {
        // The default holds no window: a free dispatcher takes a lone
        // job without waiting for company.
        assert_eq!(QueueConfig::default().max_delay, Duration::ZERO);
        let q = Queue::new(QueueConfig::default());
        let (j, _r) = job("ab", "cd");
        q.submit(j).unwrap();
        let batches = q.next_batches_for(Class::Edit).expect("not draining");
        assert_eq!(batches.len(), 1);
        assert_eq!(batches[0].len(), 1);
        assert_eq!(q.depth(), 0);
    }

    #[test]
    fn jobs_admitted_before_the_dispatcher_looks_ride_one_batch() {
        // Work-conserving coalescing: three same-shape jobs that pile
        // up while the dispatcher is elsewhere all ride its next flush,
        // whether it was woken or not.
        let q = Queue::new(QueueConfig::default());
        let mut rxs = Vec::new();
        for (a, b) in [("ab", "cd"), ("ef", "gh"), ("ij", "kl")] {
            let (j, r) = job(a, b);
            q.admit(j).unwrap();
            rxs.push(r);
        }
        let batches = q.next_batches_for(Class::Edit).expect("not draining");
        assert_eq!(batches.len(), 1);
        assert_eq!(batches[0].len(), 3, "pending jobs coalesced into one batch");
    }

    #[test]
    fn a_young_bucket_survives_a_stray_notify_all() {
        // Regression for the spurious-wakeup bug, where a stray wakeup
        // flushed every open bucket at size 1.  A wakeup only
        // re-evaluates readiness, so under a hold window a stray
        // notify_all must leave a young bucket coalescing.
        let q = Arc::new(Queue::new(QueueConfig {
            max_queue: 64,
            shed_queue: 64,
            max_batch: 2,
            max_delay: Duration::from_secs(3600),
        }));
        let (j1, _r1) = job("ab", "cd");
        q.submit(j1).unwrap();
        let (tx, rx) = mpsc::channel();
        let dispatcher = {
            let q = Arc::clone(&q);
            std::thread::spawn(move || {
                let batches = q.next_batches_for(Class::Edit).expect("not draining");
                tx.send(batches).unwrap();
            })
        };
        // Let the dispatcher reach its wait, then fire stray wakeups.
        std::thread::sleep(Duration::from_millis(30));
        for _ in 0..3 {
            q.poke();
            std::thread::sleep(Duration::from_millis(10));
        }
        assert!(
            rx.try_recv().is_err(),
            "spurious wakeups flushed a young bucket before max_batch"
        );
        // A second same-shape job fills the bucket; now it flushes.
        let (j2, _r2) = job("xy", "zw");
        q.submit(j2).unwrap();
        let batches = rx
            .recv_timeout(Duration::from_secs(30))
            .expect("full bucket flushes");
        assert_eq!(batches.len(), 1);
        assert_eq!(batches[0].len(), 2, "bucket kept coalescing past the pokes");
        dispatcher.join().unwrap();
    }

    #[test]
    fn different_shapes_land_in_different_buckets() {
        let q = Queue::new(cfg(64, 64, 2, Duration::from_millis(1)));
        let (j1, _r1) = job("ab", "cd");
        let (j2, _r2) = job("abc", "cd");
        q.submit(j1).unwrap();
        q.submit(j2).unwrap();
        let batches = q.next_batches_for(Class::Edit).expect("not draining");
        assert_eq!(batches.len(), 2);
        assert!(batches.iter().all(|jobs| jobs.len() == 1));
    }

    #[test]
    fn overfull_queue_rejects_with_typed_error() {
        let q = Queue::new(cfg(1, 1, 16, Duration::from_secs(3600)));
        let (j1, _r1) = job("ab", "cd");
        let (j2, _r2) = job("ef", "gh");
        q.submit(j1).unwrap();
        assert_eq!(q.submit(j2).unwrap_err(), SdpError::QueueFull { depth: 1 });
    }

    #[test]
    fn shed_threshold_returns_overloaded_with_retry_hint() {
        let q = Queue::new(cfg(64, 2, 16, Duration::from_millis(5)));
        let (j1, _r1) = job("ab", "cd");
        let (j2, _r2) = job("ef", "gh");
        let (j3, _r3) = job("ij", "kl");
        q.submit(j1).unwrap();
        q.submit(j2).unwrap();
        match q.submit(j3).unwrap_err() {
            SdpError::Overloaded { retry_after_ms } => {
                assert!(retry_after_ms >= 1, "hint must be positive");
            }
            other => panic!("expected Overloaded, got {other:?}"),
        }
        // Shedding does not grow the queue.
        assert_eq!(q.depth(), 2);
    }

    #[test]
    fn fresh_queue_hints_fall_back_to_the_delay_window() {
        // No flush history yet: the hint must still cover at least one
        // full delay window per excess batch, never degenerate to a
        // constant 1 ms.
        let window = Duration::from_millis(300);
        let empty = VecDeque::new();
        let now = Instant::now();
        assert_eq!(drain_hint_ms(0, &empty, now, window, 16), 300);
        assert_eq!(drain_hint_ms(40, &empty, now, window, 16), 900);
        // The default zero window still hints 1 ms per excess batch,
        // never 0.
        assert_eq!(drain_hint_ms(0, &empty, now, Duration::ZERO, 16), 1);
        assert_eq!(drain_hint_ms(40, &empty, now, Duration::ZERO, 16), 3);
        // A single sample is not a rate either.
        let mut one = VecDeque::new();
        one.push_back((now, 16usize));
        assert_eq!(drain_hint_ms(0, &one, now, window, 16), 300);
    }

    #[test]
    fn measured_flush_throughput_drives_the_shed_hint() {
        // Four flushes of 16 jobs spread over 30 ms → ~2.13 jobs/ms.
        // 63 excess jobs (64 to clear) should hint ~30 ms, not the
        // window-derived 5 ms * 4 batches = 20 ms, and certainly not a
        // constant.
        let now = Instant::now();
        let mut log = VecDeque::new();
        for i in 0..4u64 {
            log.push_back((now - Duration::from_millis(30 - i * 10), 16usize));
        }
        let hint = drain_hint_ms(63, &log, now, Duration::from_millis(5), 16);
        let rate = 64.0_f64 / 30.0; // jobs per ms
        let want = (64.0 / rate).ceil() as u64;
        assert_eq!(hint, want);
        assert!((25..=35).contains(&hint), "hint {hint} tracks the rate");

        // Stale history (last flush long ago) falls back to the window
        // formula instead of trusting a dead dispatcher's old rate.
        let mut stale = VecDeque::new();
        stale.push_back((now - Duration::from_secs(60), 16usize));
        stale.push_back((now - Duration::from_secs(59), 16usize));
        assert_eq!(
            drain_hint_ms(0, &stale, now, Duration::from_millis(5), 16),
            5
        );
    }

    #[test]
    fn flushes_feed_the_throughput_log_end_to_end() {
        let q = Queue::new(cfg(64, 64, 1, Duration::from_millis(1)));
        for _ in 0..3 {
            let (j, _r) = job("ab", "cd");
            q.submit(j).unwrap();
            q.next_batches_for(Class::Edit).expect("flush");
        }
        let log = lock_recover(&q.flushes);
        assert_eq!(log.len(), 3);
        assert!(log.iter().all(|&(_, n)| n == 1));
    }

    #[test]
    fn hard_cap_wins_over_shed_when_thresholds_coincide() {
        // With shed_queue == max_queue == depth, the hard QueueFull
        // rejection takes precedence (pinned by protocol tests that
        // run a zero-capacity queue).
        let q = Queue::new(cfg(0, 0, 16, Duration::from_millis(5)));
        let (j, _r) = job("ab", "cd");
        assert_eq!(q.submit(j).unwrap_err(), SdpError::QueueFull { depth: 0 });
    }

    #[test]
    fn depth_gauge_mirrors_admissions_and_flushes() {
        let q = Queue::new(cfg(64, 64, 2, Duration::from_secs(3600)));
        let g = q.depth_gauge();
        let (j1, _r1) = job("ab", "cd");
        q.submit(j1).unwrap();
        assert_eq!(g.get(), 1);
        let (j2, _r2) = job("xy", "zw");
        q.submit(j2).unwrap();
        assert_eq!(g.get(), 2);
        q.next_batches_for(Class::Edit)
            .expect("full bucket flushes");
        assert_eq!(g.get(), 0, "flush returns the gauge to zero");
    }

    #[test]
    fn shards_isolate_classes() {
        let q = Queue::new(cfg(64, 64, 16, Duration::from_millis(1)));
        let (j1, _r1) = job("ab", "cd");
        q.submit(j1).unwrap();
        let (tx, _rx) = mpsc::channel();
        q.submit(Job {
            body: Body::Chain {
                dims: vec![4, 2, 3],
            },
            cache_key: Vec::new(),
            tx: ReplySink::Channel(tx),
            enqueued: Instant::now(),
            deadline: Instant::now() + Duration::from_secs(3600),
            deadline_ms: 3_600_000,
        })
        .unwrap();
        let edit = q.next_batches_for(Class::Edit).expect("edit shard");
        assert_eq!(edit.len(), 1, "edit dispatcher sees only edit buckets");
        assert_eq!(q.depth(), 1, "chain job still queued");
        let chain = q.next_batches_for(Class::Chain).expect("chain shard");
        assert_eq!(chain.len(), 1);
        assert_eq!(q.depth(), 0);
    }

    #[test]
    fn drain_flushes_leftovers_then_returns_none() {
        let q = Queue::new(cfg(64, 64, 100, Duration::from_secs(3600)));
        let (j, _r) = job("ab", "cd");
        q.submit(j).unwrap();
        q.start_drain();
        let batches = q
            .next_batches_for(Class::Edit)
            .expect("leftovers flush on drain");
        assert_eq!(batches[0].len(), 1);
        assert!(
            q.next_batches_for(Class::Edit).is_none(),
            "drained shard signals exit"
        );
        assert!(
            q.next_batches_for(Class::Matmul).is_none(),
            "empty shards exit immediately on drain"
        );
        let (j2, _r2) = job("ab", "cd");
        assert_eq!(q.submit(j2).unwrap_err(), SdpError::ShuttingDown);
    }
}
