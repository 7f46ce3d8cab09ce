//! End-to-end dispatch: the server runs every class, at every size, on
//! the `sdp-backend` direct solvers.  The response `engine` tag and the
//! per-class metrics say so, and the payload bytes equal the
//! cycle-accurate simulator's, which stays the reference.

use sdp_semiring::{Matrix, MinPlus};
use sdp_serve::client::{self, Client};
use sdp_serve::engine::{run_bucket_on, EngineKind};
use sdp_serve::protocol::{self, Request};
use sdp_serve::{json, Config};

fn boot() -> sdp_serve::ServerHandle {
    sdp_serve::serve(Config {
        workers: 2,
        cache_capacity: 0, // every call is a fresh dispatch
        ..Config::default()
    })
    .expect("bind")
}

fn engine_count(c: &mut Client, class: &str, engine: &str) -> i64 {
    let snap = c.metrics().expect("metrics").result.expect("payload");
    let classes = json::get(&snap, "classes").expect("classes");
    let cls = json::get(classes, class).expect("class entry");
    let engines = json::get(cls, "engine").expect("engine split");
    json::get(engines, engine)
        .and_then(json::as_i64)
        .expect("count")
}

/// A deterministic `rows × cols` min-plus matrix with entries in 0..10.
fn matrix(rows: usize, cols: usize, seed: i64) -> Matrix<MinPlus> {
    Matrix::from_rows(
        rows,
        cols,
        (0..(rows * cols) as i64)
            .map(|k| MinPlus::from((k * 7 + seed * 3) % 10))
            .collect(),
    )
}

/// The simulator's payload for one request line, rendered.
fn sim_payload(line: &str) -> String {
    let doc = json::parse(line).expect("request line parses");
    let Request::Compute { body, .. } = protocol::decode(&doc).expect("decodes") else {
        unreachable!("compute line");
    };
    run_bucket_on(EngineKind::Sim, body.class(), &[body])[0]
        .as_ref()
        .expect("sim answers")
        .render()
}

#[test]
fn every_class_runs_direct_at_every_size_with_sim_identical_payloads() {
    // Each class at a work measure (`engine::body_work`) below and above
    // 4096 serial ops, the old sim/direct crossover.
    let string = |n: usize, m: usize| (0..n).map(|k| matrix(m, m, k as i64)).collect::<Vec<_>>();
    let text = |n: usize, seed: usize| -> String {
        (0..n)
            .map(|k| b"acgt"[(k * 5 + seed + k / 3) % 4] as char)
            .collect()
    };
    let dims = |n: usize| (0..=n as u64).map(|k| 2 + k * 3 % 7).collect::<Vec<_>>();
    let freq = |n: usize| (0..n as u64).map(|k| 1 + k * 5 % 9).collect::<Vec<_>>();
    let weights = |n: usize| (0..n as u64).map(|k| 1 + k * 37 % 90).collect::<Vec<_>>();
    let values = |n: usize| (0..n as u64).map(|k| 3 + k * 11 % 17).collect::<Vec<_>>();
    let classes: [(&str, [String; 2]); 8] = [
        (
            "multistage1",
            [
                client::multistage_request(1, 1, &string(2, 2)),
                client::multistage_request(2, 1, &string(17, 16)),
            ],
        ),
        (
            "multistage2",
            [
                client::multistage_request(3, 2, &string(2, 2)),
                client::multistage_request(4, 2, &string(17, 16)),
            ],
        ),
        (
            "matmul",
            [
                client::matmul_request(5, &matrix(2, 2, 1), &matrix(2, 2, 2)),
                client::matmul_request(6, &matrix(17, 16, 3), &matrix(16, 16, 4)),
            ],
        ),
        (
            "edit",
            [
                client::edit_request(7, "kitten", "sitting"),
                client::edit_request(8, &text(70, 0), &text(70, 1)),
            ],
        ),
        (
            "chain",
            [
                client::chain_request(9, &dims(3)),
                client::chain_request(10, &dims(17)),
            ],
        ),
        (
            "bst",
            [
                client::bst_request(11, &freq(5)),
                client::bst_request(12, &freq(17)),
            ],
        ),
        (
            "align",
            [
                client::align_request(13, "acacacta", "agcacaca", None),
                client::align_request(14, &text(70, 2), &text(70, 3), Some((3, -2, 2))),
            ],
        ),
        (
            "knapsack",
            [
                client::knapsack_request(15, &weights(4), &values(4), 7),
                client::knapsack_request(16, &weights(8), &values(8), 600),
            ],
        ),
    ];
    let handle = sdp_serve::serve(Config::default()).expect("bind");
    let mut c = Client::connect(handle.addr()).expect("connect");
    for (class, lines) in &classes {
        for line in lines {
            let resp = c.call_raw(line).expect("call");
            assert!(resp.ok, "[{class}] {:?}", resp.error_message);
            assert_eq!(resp.engine.as_deref(), Some("direct"), "[{class}]");
            assert_eq!(
                resp.result.expect("payload").render(),
                sim_payload(line),
                "[{class}] direct payload diverged from the simulator"
            );
        }
        assert_eq!(engine_count(&mut c, class, "sim"), 0, "[{class}]");
        assert_eq!(engine_count(&mut c, class, "direct"), 2, "[{class}]");
    }
    handle.shutdown();
}

#[test]
fn every_class_dispatches_direct_above_threshold() {
    // The tag and the per-class counters must agree.
    let handle = boot();
    let mut c = Client::connect(handle.addr()).expect("connect");
    let m = Matrix::<MinPlus>::from_rows(
        2,
        2,
        vec![1i64, 5, 2, 0].into_iter().map(MinPlus::from).collect(),
    );
    let lines = [
        (
            "multistage1",
            client::multistage_request(1, 1, &[m.clone(), m.clone()]),
        ),
        (
            "multistage2",
            client::multistage_request(2, 2, &[m.clone(), m.clone()]),
        ),
        ("matmul", client::matmul_request(3, &m, &m)),
        ("edit", client::edit_request(4, "kitten", "sitting")),
        ("chain", client::chain_request(5, &[10, 20, 50, 1])),
        ("bst", client::bst_request(6, &[3, 1, 4, 1, 5])),
        (
            "align",
            client::align_request(7, "acacacta", "agcacaca", None),
        ),
        (
            "knapsack",
            client::knapsack_request(8, &[1, 3, 4, 5], &[1, 4, 5, 7], 7),
        ),
    ];
    for (class, line) in &lines {
        let resp = c.call_raw(line).expect("call");
        assert!(resp.ok, "[{class}] {:?}", resp.error_message);
        assert_eq!(resp.engine.as_deref(), Some("direct"), "[{class}]");
        assert_eq!(engine_count(&mut c, class, "direct"), 1, "[{class}]");
        assert_eq!(engine_count(&mut c, class, "sim"), 0, "[{class}]");
    }
    handle.shutdown();
}
