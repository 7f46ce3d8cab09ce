//! Serving: boot the dynamic-batching server, fire mixed-class
//! requests at it over TCP, and read the telemetry back.
//!
//! ```text
//! cargo run --example serving
//! ```
//!
//! Walks the whole wire protocol: a cold request, a cache hit on the
//! repeat, a burst of same-shape requests that the server coalesces
//! into one engine batch inside a 10 ms hold window, a typed error for
//! a malformed line, the `metrics` snapshot, and a graceful `shutdown`
//! drain.

use std::time::Duration;
use systolic_dp::serve::client::{self, Client};
use systolic_dp::serve::{json, Config};

fn main() -> std::io::Result<()> {
    println!("== systolic-dp serving example ==\n");

    // Boot an in-process server on an OS-assigned port.  `sdp_serve`
    // (the binary) does the same thing on a fixed address.
    let handle = systolic_dp::serve::serve(Config {
        max_delay: Duration::from_millis(10),
        workers: 2,
        ..Config::default()
    })
    .expect("bind");
    println!("server listening on {}\n", handle.addr());

    let mut c = Client::connect(handle.addr())?;

    // --- one cold request, then the identical problem again ----------
    let line = client::edit_request(1, "kitten", "sitting");
    println!("-> {line}");
    let cold = c.call_raw(&line)?;
    println!("<- {}", cold.raw.trim_end());
    let repeat = c.call_raw(&client::edit_request(2, "kitten", "sitting"))?;
    println!(
        "repeat of the same problem: cached = {} (canonical key, not request text)\n",
        repeat.cached
    );

    // --- a concurrent burst the coalescer can batch -------------------
    // Eight clients ask same-shape chain problems inside one hold
    // window; the server dispatches them as one batch.
    let addr = handle.addr();
    let burst: Vec<_> = (0..8)
        .map(|i| {
            std::thread::spawn(move || {
                let mut c = Client::connect(addr).expect("connect");
                let dims = [10 + i, 20, 50, 1, 30];
                c.call_raw(&client::chain_request(100 + i as i64, &dims))
                    .expect("call")
            })
        })
        .collect();
    for t in burst {
        let resp = t.join().expect("client thread");
        assert!(resp.ok);
    }
    println!(
        "burst of 8 same-shape chain requests: largest coalesced batch = {}\n",
        handle.max_coalesced()
    );

    // --- failures are typed responses, never dropped connections -----
    let bad = c.call_raw("{definitely not json")?;
    println!(
        "malformed line  -> ok={} error kind={:?}",
        bad.ok,
        bad.error_kind.as_deref().unwrap_or("?")
    );
    let still_alive = c.call_raw(&client::bst_request(3, &[3, 1, 4, 1, 5]))?;
    println!(
        "same connection -> ok={} (connection survived)\n",
        still_alive.ok
    );

    // --- telemetry ----------------------------------------------------
    let m = c.metrics()?;
    let doc = m.result.expect("metrics payload");
    let served = json::get(&doc, "served")
        .and_then(json::as_i64)
        .unwrap_or(0);
    let cache = json::get(&doc, "cache").expect("cache block");
    let hits = json::get(cache, "hits").and_then(json::as_i64).unwrap_or(0);
    println!("metrics: served={served}, cache hits={hits}");

    // --- graceful drain ----------------------------------------------
    let reply = c.shutdown()?;
    println!("shutdown accepted: ok={}", reply.ok);
    handle.shutdown();
    println!("\nserver drained; all in-flight answers were delivered.");
    Ok(())
}
