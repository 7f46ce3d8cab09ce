//! CI smoke client: boots a server in-process, fires concurrent
//! mixed-class traffic at it over real sockets, and checks the serving
//! invariants end to end — every request answered, repeats hit the
//! cache, one pipelining connection answered in order and coalesced,
//! malformed input gets a typed error, and the drain is graceful.
//! Exits nonzero on any violation.

use sdp_oracle::served;
use sdp_serve::client::{self, Client};
use sdp_serve::{json, Config};
use std::time::Duration;

const CLIENTS: usize = 8;
const REQUESTS_PER_CLIENT: usize = 12;
/// Lines the pipelined phase writes before reading any reply.
const PIPELINED: usize = 32;

fn client_worker(addr: std::net::SocketAddr, seed: usize) -> Result<(usize, usize), String> {
    let mut c = Client::connect(addr).map_err(|e| format!("connect: {e}"))?;
    let mut ok = 0;
    let mut cached = 0;
    for i in 0..REQUESTS_PER_CLIENT {
        let id = (seed * 100 + i) as i64;
        // Three engine classes; identical problems across clients so
        // the cache and the coalescer both get exercised.
        let line = match i % 3 {
            0 => client::edit_request(id, "kitten", "sitting"),
            1 => client::chain_request(id, &[10, 20, 50, 1, 30]),
            _ => client::bst_request(id, &[3, 1, 4, 1, 5]),
        };
        let resp = c.call_raw(&line).map_err(|e| format!("call: {e}"))?;
        if resp.id != id {
            return Err(format!("id mismatch: sent {id}, got {}", resp.id));
        }
        if !resp.ok {
            return Err(format!("request {id} failed: {:?}", resp.error_message));
        }
        ok += 1;
        if resp.cached {
            cached += 1;
        }
    }
    Ok((ok, cached))
}

/// One connection writes `PIPELINED` distinct same-shape edits before
/// reading: every reply must come back in line order with the oracle's
/// payload.
fn pipelined_phase(addr: std::net::SocketAddr) -> Result<(), String> {
    let mut c = Client::connect(addr).map_err(|e| format!("connect: {e}"))?;
    let problems: Vec<(String, String)> = (0..PIPELINED)
        .map(|i| (format!("p{i:03}"), format!("s{:03}", 999 - i)))
        .collect();
    let lines: Vec<String> = problems
        .iter()
        .enumerate()
        .map(|(i, (a, b))| client::edit_request(1000 + i as i64, a, b))
        .collect();
    c.send_raw(&lines.join("\n"))
        .map_err(|e| format!("pipelined send: {e}"))?;
    for (i, (a, b)) in problems.iter().enumerate() {
        let id = 1000 + i as i64;
        let resp = c.read_response().map_err(|e| format!("read: {e}"))?;
        if resp.id != id {
            return Err(format!(
                "pipelined reply out of order: want {id}, got {}",
                resp.id
            ));
        }
        let want = served::served_edit(a.as_bytes(), b.as_bytes()).render();
        let got = resp.result.map(|p| p.render());
        if got.as_deref() != Some(want.as_str()) {
            return Err(format!("pipelined request {id}: {got:?}, oracle {want}"));
        }
    }
    Ok(())
}

fn main() {
    let cfg = Config {
        max_delay: Duration::from_millis(10),
        workers: 2,
        ..Config::default()
    };
    let handle = sdp_serve::serve(cfg).expect("bind");
    let addr = handle.addr();
    println!("serve_smoke: server on {addr}");

    let workers: Vec<_> = (0..CLIENTS)
        .map(|seed| std::thread::spawn(move || client_worker(addr, seed)))
        .collect();
    let mut total_ok = 0;
    let mut total_cached = 0;
    for w in workers {
        match w.join().expect("client thread") {
            Ok((ok, cached)) => {
                total_ok += ok;
                total_cached += cached;
            }
            Err(e) => {
                eprintln!("serve_smoke: FAIL: {e}");
                std::process::exit(1);
            }
        }
    }
    assert_eq!(
        total_ok,
        CLIENTS * REQUESTS_PER_CLIENT,
        "every request answered ok"
    );
    assert!(total_cached > 0, "repeat problems should hit the cache");

    if let Err(e) = pipelined_phase(addr) {
        eprintln!("serve_smoke: FAIL: {e}");
        std::process::exit(1);
    }
    let max_batch = handle.max_coalesced();
    assert!(max_batch > 1, "the pipelined window never coalesced");

    // Protocol hardening: malformed input gets a typed error on a
    // connection that stays usable.
    let mut c = Client::connect(addr).expect("connect");
    let resp = c.call_raw("{not json").expect("malformed call");
    assert!(!resp.ok && resp.error_kind.as_deref() == Some("malformed_request"));
    let resp = c
        .call_raw(r#"{"id":1,"kind":"edit","a":"ok","b":"still works"}"#)
        .expect("follow-up call");
    assert!(resp.ok, "connection survives a malformed line");

    // Metrics snapshot sanity.
    let m = c.metrics().expect("metrics");
    let doc = m.result.expect("metrics payload");
    let served = json::get(&doc, "served")
        .and_then(json::as_i64)
        .unwrap_or(0);
    assert!(served >= total_ok as i64, "served={served}");
    let cache = json::get(&doc, "cache").expect("cache block");
    let hits = json::get(cache, "hits").and_then(json::as_i64).unwrap_or(0);
    assert!(hits > 0, "cache hits recorded");

    println!(
        "serve_smoke: OK — {total_ok} requests, {total_cached} cache hits, \
         {PIPELINED} pipelined in order, max batch {max_batch}"
    );
    handle.shutdown();
}
