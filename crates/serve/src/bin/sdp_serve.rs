//! `sdp-serve` binary: boots the request server and blocks until a
//! client sends a `shutdown` request.
//!
//! ```text
//! sdp-serve [ADDR] [--workers N] [--event-workers N] [--max-batch N]
//!           [--max-delay-ms N] [--cache N] [--max-queue N]
//!           [--shed-queue N] [--default-deadline-ms N]
//!           [--idle-timeout-ms N] [--trace-out FILE]
//! ```
//!
//! `--event-workers N` sizes the pool of event-loop connection
//! workers (each multiplexes a slab of nonblocking sockets).
//!
//! `--max-delay-ms N` holds each bucket open up to `N` ms for more
//! riders; the default, 0, flushes as soon as the class's dispatcher
//! is free.  Every request runs on the `sdp-backend` direct solvers.
//!
//! `--trace-out FILE` enables per-request span tracing and, after the
//! drain completes, writes the collected Chrome trace (load it in
//! `chrome://tracing` or <https://ui.perfetto.dev>) to `FILE`.

use sdp_serve::Config;
use std::time::Duration;

fn usage() -> ! {
    eprintln!(
        "usage: sdp-serve [ADDR] [--workers N] [--event-workers N] \
         [--max-batch N] [--max-delay-ms N] [--cache N] [--max-queue N] \
         [--shed-queue N] [--default-deadline-ms N] [--idle-timeout-ms N] \
         [--trace-out FILE]"
    );
    std::process::exit(2);
}

fn num_arg(args: &mut impl Iterator<Item = String>, name: &str) -> usize {
    args.next().and_then(|v| v.parse().ok()).unwrap_or_else(|| {
        eprintln!("{name} needs a number");
        usage()
    })
}

fn main() {
    let mut cfg = Config {
        addr: "127.0.0.1:7171".to_string(),
        ..Config::default()
    };
    let mut trace_out: Option<String> = None;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--workers" => cfg.workers = num_arg(&mut args, "--workers").max(1),
            "--event-workers" => cfg.event_workers = num_arg(&mut args, "--event-workers").max(1),
            "--max-batch" => cfg.max_batch = num_arg(&mut args, "--max-batch").max(1),
            "--max-delay-ms" => {
                cfg.max_delay = Duration::from_millis(num_arg(&mut args, "--max-delay-ms") as u64)
            }
            "--cache" => cfg.cache_capacity = num_arg(&mut args, "--cache"),
            "--max-queue" => cfg.max_queue = num_arg(&mut args, "--max-queue").max(1),
            "--shed-queue" => cfg.shed_queue = num_arg(&mut args, "--shed-queue").max(1),
            "--default-deadline-ms" => {
                cfg.default_deadline =
                    Duration::from_millis(num_arg(&mut args, "--default-deadline-ms") as u64)
            }
            "--idle-timeout-ms" => {
                cfg.idle_timeout =
                    Duration::from_millis(num_arg(&mut args, "--idle-timeout-ms").max(1) as u64)
            }
            "--trace-out" => {
                let path = args.next().unwrap_or_else(|| {
                    eprintln!("--trace-out needs a file path");
                    usage()
                });
                cfg.trace = true;
                trace_out = Some(path);
            }
            "--help" | "-h" => usage(),
            other if !other.starts_with('-') => cfg.addr = other.to_string(),
            _ => usage(),
        }
    }
    match sdp_serve::serve(cfg) {
        Ok(mut handle) => {
            println!("sdp-serve listening on {}", handle.addr());
            handle.wait();
            if let Some(path) = trace_out {
                match handle.trace_snapshot() {
                    Some(doc) => match std::fs::write(&path, doc) {
                        Ok(()) => println!("trace written to {path}"),
                        Err(e) => {
                            eprintln!("sdp-serve: trace write failed: {e}");
                            std::process::exit(1);
                        }
                    },
                    None => unreachable!("--trace-out sets cfg.trace"),
                }
            }
        }
        Err(e) => {
            eprintln!("sdp-serve: bind failed: {e}");
            std::process::exit(1);
        }
    }
}
