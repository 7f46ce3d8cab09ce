//! End-to-end serving of the PR 9 workload classes — `align` and
//! `knapsack` — with the four serving-path properties checked:
//!
//! (a) every served payload is bit-identical to the direct engine call
//!     *and* to the independent oracle's expectation;
//! (b) at least one dispatched batch coalesced more than one request;
//! (c) repeated problems hit the result cache;
//! (d) an open breaker degrades to the oracle's bytes.

use sdp_fault::{ChaosEvent, ChaosPlan, ServeChaos};
use sdp_oracle::served;
use sdp_par::watchdog;
use sdp_serve::client::{self, Client};
use sdp_serve::engine::{run_bucket_on, EngineKind};
use sdp_serve::protocol::Class;
use sdp_serve::{breaker, json, Config};
use std::sync::{Arc, Mutex};
use std::time::Duration;

const CLIENTS: usize = 8;
const REQUESTS_PER_CLIENT: usize = 4; // 32 total

const WEIGHTS_A: [u64; 4] = [1, 3, 4, 5];
const VALUES_A: [u64; 4] = [1, 4, 5, 7];
const WEIGHTS_B: [u64; 3] = [2, 2, 6];
const VALUES_B: [u64; 3] = [3, 5, 9];

/// The traffic mix: both workload classes, two distinct problems per
/// class, so every problem repeats across clients (cache + coalescing
/// pressure).  The two align problems share lengths and scoring, so
/// they can ride one batched mesh.
fn request_line(id: i64, slot: usize) -> String {
    match slot % 4 {
        0 => client::align_request(id, "acacacta", "agcacaca", None),
        1 => client::align_request(id, "gattacaa", "gcatgcta", None),
        2 => client::knapsack_request(id, &WEIGHTS_A, &VALUES_A, 7),
        _ => client::knapsack_request(id, &WEIGHTS_B, &VALUES_B, 7),
    }
}

/// The oracle's expected `result` payload for traffic slot `slot`.
fn oracle_payload(slot: usize) -> String {
    let items = |w: &[u64], v: &[u64]| -> Vec<(u64, u64)> {
        w.iter().copied().zip(v.iter().copied()).collect()
    };
    match slot % 4 {
        0 => served::served_align(b"acacacta", b"agcacaca", 2, -1, 1).render(),
        1 => served::served_align(b"gattacaa", b"gcatgcta", 2, -1, 1).render(),
        2 => served::served_knapsack(&items(&WEIGHTS_A, &VALUES_A), 7).render(),
        _ => served::served_knapsack(&items(&WEIGHTS_B, &VALUES_B), 7).render(),
    }
}

/// The unserved engine payload for traffic slot `slot`, via a direct
/// single-body bucket.
fn engine_payload(slot: usize) -> String {
    let line = request_line(0, slot);
    let doc = json::parse(&line).unwrap();
    let sdp_serve::protocol::Request::Compute { body, .. } =
        sdp_serve::protocol::decode(&doc).unwrap()
    else {
        unreachable!("compute line");
    };
    let class = body.class();
    run_bucket_on(EngineKind::Sim, class, &[body])[0]
        .as_ref()
        .expect("engine call succeeds")
        .render()
}

#[test]
fn concurrent_workload_requests_match_oracle_batch_and_cache() {
    let handle = sdp_serve::serve(Config {
        max_delay: Duration::from_millis(15),
        workers: 4,
        ..Config::default()
    })
    .expect("bind");
    let addr = handle.addr();

    let seen: Arc<Mutex<Vec<(usize, String, bool)>>> = Arc::new(Mutex::new(Vec::new()));
    let workers: Vec<_> = (0..CLIENTS)
        .map(|c| {
            let seen = Arc::clone(&seen);
            std::thread::spawn(move || {
                let mut client = Client::connect(addr).expect("connect");
                for r in 0..REQUESTS_PER_CLIENT {
                    let slot = c * REQUESTS_PER_CLIENT + r;
                    let id = slot as i64 + 1;
                    let resp = client.call_raw(&request_line(id, slot)).expect("call");
                    assert!(resp.ok, "request {id} failed: {:?}", resp.error_message);
                    assert_eq!(resp.id, id);
                    let payload = resp.result.expect("result").render();
                    seen.lock().unwrap().push((slot, payload, resp.cached));
                }
                // Repeat the client's last problem: the dispatcher
                // inserts into the cache before replying, so this hits.
                let slot = c * REQUESTS_PER_CLIENT + (REQUESTS_PER_CLIENT - 1);
                let resp = client
                    .call_raw(&request_line(1000 + slot as i64, slot))
                    .expect("repeat");
                assert!(
                    resp.ok && resp.cached,
                    "repeat of slot {slot} should be a cache hit"
                );
                seen.lock()
                    .unwrap()
                    .push((slot, resp.result.expect("result").render(), true));
            })
        })
        .collect();
    for w in workers {
        w.join().expect("client thread");
    }

    let seen = seen.lock().unwrap();
    assert_eq!(seen.len(), CLIENTS * (REQUESTS_PER_CLIENT + 1));

    // (a) bit-identical to the oracle AND to the engine, for every
    // response — cold, coalesced, or cached alike.
    for (slot, payload, _) in seen.iter() {
        assert_eq!(payload, &oracle_payload(*slot), "slot {slot} vs oracle");
        assert_eq!(payload, &engine_payload(*slot), "slot {slot} vs engine");
    }

    // (b) dynamic batching coalesced something.
    assert!(
        handle.max_coalesced() > 1,
        "expected a coalesced batch >1, max was {}",
        handle.max_coalesced()
    );

    // (c) repeats hit the cache.
    assert!(handle.cache_hits() > 0, "expected cache hits on repeats");
    assert!(seen.iter().any(|(_, _, cached)| *cached));

    handle.shutdown();
}

#[test]
fn open_breakers_degrade_workloads_to_oracle_bytes() {
    watchdog("workload breaker", Duration::from_secs(30), || {
        // Chaos panics the first four engine buckets: two align
        // dispatches trip the align breaker, two knapsack dispatches
        // trip the knapsack breaker (trip_after 2, per class).
        let plan = ChaosPlan::new()
            .with(ChaosEvent::EnginePanic { dispatch: 0 })
            .with(ChaosEvent::EnginePanic { dispatch: 1 })
            .with(ChaosEvent::EnginePanic { dispatch: 2 })
            .with(ChaosEvent::EnginePanic { dispatch: 3 });
        let handle = sdp_serve::serve(Config {
            cache_capacity: 0,
            breaker_trip_after: 2,
            breaker_cooldown: Duration::from_secs(30),
            breaker_fallback_max_bytes: 256,
            chaos: Some(Arc::new(ServeChaos::new(&plan))),
            ..Config::default()
        })
        .expect("bind");
        let mut c = Client::connect(handle.addr()).expect("connect");

        for id in 1..=2 {
            let resp = c
                .call_raw(&client::align_request(id, "boom", "town", None))
                .expect("call");
            assert!(!resp.ok);
            assert_eq!(resp.error_kind.as_deref(), Some("task_panicked"));
        }
        assert_eq!(handle.breaker_code(Class::Align), breaker::STATE_OPEN);
        for id in 3..=4 {
            let resp = c
                .call_raw(&client::knapsack_request(id, &[1], &[1], 3))
                .expect("call");
            assert!(!resp.ok);
            assert_eq!(resp.error_kind.as_deref(), Some("task_panicked"));
        }
        assert_eq!(handle.breaker_code(Class::Knapsack), breaker::STATE_OPEN);

        // Open breakers, small inputs: degraded oracle answers, flagged
        // and uncached, byte-identical to the reference solvers.
        let resp = c
            .call_raw(&client::align_request(5, "acacacta", "agcacaca", None))
            .expect("call");
        assert!(resp.ok, "{:?}", resp.error_message);
        assert!(resp.degraded && !resp.cached);
        assert_eq!(
            resp.result.expect("payload").render(),
            served::served_align(b"acacacta", b"agcacaca", 2, -1, 1).render()
        );

        let resp = c
            .call_raw(&client::knapsack_request(6, &WEIGHTS_A, &VALUES_A, 7))
            .expect("call");
        assert!(resp.ok, "{:?}", resp.error_message);
        assert!(resp.degraded && !resp.cached);
        let items: Vec<(u64, u64)> = WEIGHTS_A.into_iter().zip(VALUES_A).collect();
        assert_eq!(
            resp.result.expect("payload").render(),
            served::served_knapsack(&items, 7).render()
        );

        // The degraded episodes landed in the metrics registry.
        let m = c.metrics().expect("metrics");
        let doc = m.result.expect("payload");
        let degraded = json::get(&doc, "degraded").and_then(json::as_i64).unwrap();
        assert!(degraded >= 2, "degraded counter missing the fallbacks");

        handle.shutdown();
    });
}
