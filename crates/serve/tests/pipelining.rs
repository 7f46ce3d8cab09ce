//! Pipelined connections: a client that writes many request lines
//! before reading gets every one admitted at once, answered in line
//! order across every reply kind, and bounded by the per-connection
//! cap — and chaos drops and shutdown keep their meaning mid-pipeline.

use sdp_fault::{ChaosEvent, ChaosPlan, ServeChaos};
use sdp_oracle::served;
use sdp_par::watchdog;
use sdp_serve::client::{self, Client};
use sdp_serve::{json, Config};
use std::io::ErrorKind;
use std::sync::Arc;
use std::time::Duration;

/// The server's admission-queue depth, from a `metrics` control request.
fn queue_depth(c: &mut Client) -> i64 {
    let doc = c.metrics().expect("metrics").result.expect("payload");
    json::get(&doc, "queue_depth")
        .and_then(json::as_i64)
        .expect("queue_depth")
}

/// Distinct same-shape (4 × 4) edit operands for request `i`.
fn operands(i: usize) -> (String, String) {
    (format!("q{i:03}"), format!("r{:03}", 997 - i))
}

/// `n` distinct same-shape edit lines with ids `1..=n`, written in one
/// send before any reply is read.
fn pipeline_edits(c: &mut Client, n: usize) {
    let lines: Vec<String> = (1..=n)
        .map(|i| {
            let (a, b) = operands(i);
            client::edit_request(i as i64, &a, &b)
        })
        .collect();
    c.send_raw(&lines.join("\n")).expect("pipelined send");
}

/// Reads the replies to requests `ids` of [`pipeline_edits`]: in
/// order, ok, and equal to the oracle.
fn read_edits(c: &mut Client, ids: std::ops::RangeInclusive<usize>) {
    for i in ids {
        let resp = c.read_response().expect("reply");
        assert_eq!(resp.id, i as i64, "replies out of line order");
        assert!(resp.ok, "request {i}: {:?}", resp.error_message);
        let (a, b) = operands(i);
        assert_eq!(
            resp.result.expect("payload").render(),
            served::served_edit(a.as_bytes(), b.as_bytes()).render()
        );
    }
}

#[test]
fn replies_keep_line_order_across_every_reply_kind() {
    watchdog("pipelined-order", Duration::from_secs(60), || {
        let handle = sdp_serve::serve(Config::default()).expect("bind");
        let mut c = Client::connect(handle.addr()).expect("connect");
        let warm = c
            .call_raw(&client::edit_request(9, "kitten", "sitting"))
            .expect("warm");
        assert!(warm.ok && !warm.cached);

        // A slow 512 × 512 align, a fast edit that finishes first, a
        // cache hit, a control line and a malformed line, all sent
        // before any reply is read.
        let a: String = (0..512).map(|i| b"acgt"[i * 7 % 4] as char).collect();
        let b: String = (0..512).map(|i| b"acgt"[i * 5 % 4] as char).collect();
        let lines = [
            client::align_request(1, &a, &b, None),
            client::edit_request(2, "flaw", "lawn"),
            client::edit_request(3, "kitten", "sitting"),
            client::metrics_request(4),
            "{not json".to_string(),
        ];
        c.send_raw(&lines.join("\n")).expect("pipelined send");

        let replies: Vec<_> = (0..lines.len())
            .map(|_| c.read_response().expect("reply"))
            .collect();
        let ids: Vec<i64> = replies.iter().map(|r| r.id).collect();
        assert_eq!(ids, [1, 2, 3, 4, 0], "replies out of line order");
        let payload = |i: usize| replies[i].result.as_ref().expect("payload").render();
        assert_eq!(
            payload(0),
            served::served_align(a.as_bytes(), b.as_bytes(), 2, -1, 1).render()
        );
        assert_eq!(payload(1), served::served_edit(b"flaw", b"lawn").render());
        assert!(replies[2].cached, "the warmed edit is a cache hit");
        assert_eq!(
            payload(2),
            served::served_edit(b"kitten", b"sitting").render()
        );
        assert!(replies[3].ok, "metrics control reply");
        assert_eq!(replies[4].error_kind.as_deref(), Some("malformed_request"));
        handle.shutdown();
    });
}

#[test]
fn one_pipelining_connection_coalesces() {
    watchdog("pipelined-coalesce", Duration::from_secs(60), || {
        let handle = sdp_serve::serve(Config::default()).expect("bind");
        let mut c = Client::connect(handle.addr()).expect("connect");
        pipeline_edits(&mut c, 16);
        read_edits(&mut c, 1..=16);
        assert!(
            handle.max_coalesced() >= 2,
            "a lone pipelining connection never shared a bucket (max batch {})",
            handle.max_coalesced()
        );
        handle.shutdown();
    });
}

#[test]
fn the_per_connection_cap_bounds_admission() {
    watchdog("pipelined-cap", Duration::from_secs(60), || {
        // Nothing flushes for a second, so every admitted line sits in
        // the queue where `queue_depth` can see it.
        let window = Duration::from_secs(1);
        let handle = sdp_serve::serve(Config {
            max_batch: 128,
            max_delay: window,
            cache_capacity: 0,
            ..Config::default()
        })
        .expect("bind");
        let mut c = Client::connect(handle.addr()).expect("connect");
        let mut probe = Client::connect(handle.addr()).expect("connect");
        pipeline_edits(&mut c, 100);

        // Depth climbs to the cap of 64, holds there until the window
        // flushes, and never reads above it.
        let mut max = 0;
        loop {
            let depth = queue_depth(&mut probe);
            assert!(depth <= 64, "one connection holds {depth} queue slots");
            if max == 64 && depth < 64 {
                break;
            }
            max = max.max(depth);
            std::thread::sleep(Duration::from_millis(1));
        }
        read_edits(&mut c, 1..=100);
        assert_eq!(queue_depth(&mut probe), 0);
        handle.shutdown();
    });
}

#[test]
fn a_chaos_drop_abandons_the_rest_of_the_pipeline() {
    watchdog("pipelined-drop", Duration::from_secs(60), || {
        let plan = ChaosPlan::new().with(ChaosEvent::ConnectionDrop { reply: 3 });
        let handle = sdp_serve::serve(Config {
            chaos: Some(Arc::new(ServeChaos::new(&plan))),
            ..Config::default()
        })
        .expect("bind");
        let mut c = Client::connect(handle.addr()).expect("connect");
        pipeline_edits(&mut c, 8);
        read_edits(&mut c, 1..=3);
        let err = c.read_response().expect_err("the fourth reply is dropped");
        assert_eq!(err.kind(), ErrorKind::UnexpectedEof, "{err:?}");

        // The abandoned requests still drain out of the queue, and a
        // fresh connection is served.
        let mut fresh = Client::connect(handle.addr()).expect("connect");
        while queue_depth(&mut fresh) != 0 {
            std::thread::sleep(Duration::from_millis(1));
        }
        let resp = fresh
            .call_raw(&client::edit_request(50, "gumbo", "gambol"))
            .expect("call");
        assert!(resp.ok, "{:?}", resp.error_message);
        assert_eq!(
            resp.result.expect("payload").render(),
            served::served_edit(b"gumbo", b"gambol").render()
        );
        handle.shutdown();
    });
}

#[test]
fn shutdown_answers_the_work_pipelined_before_it() {
    watchdog("pipelined-shutdown", Duration::from_secs(60), || {
        let mut handle = sdp_serve::serve(Config::default()).expect("bind");
        let mut c = Client::connect(handle.addr()).expect("connect");
        pipeline_edits(&mut c, 8);
        c.send_raw(&client::shutdown_request(9))
            .expect("shutdown send");
        read_edits(&mut c, 1..=8);
        let ack = c.read_response().expect("shutdown ack");
        assert_eq!(ack.id, 9);
        let draining = ack
            .result
            .as_ref()
            .and_then(|doc| json::get(doc, "draining"))
            .and_then(json::as_bool);
        assert_eq!(draining, Some(true));
        handle.wait();
    });
}
