//! Regenerates every table and figure of Wah & Li (1985).
//!
//! ```text
//! experiments [all|e1|e2|e3|fig6|prop1|thm1|thm2|prop2|prop3|eq40|table1|e12..e20|degradation|throughput|serve|observe|chaos|backend] [--json]
//! ```
//!
//! With `--json` the selected experiments are emitted as a single JSON
//! document on stdout (metrics only, no tables); `all --json`
//! additionally writes the document to `BENCH_pr1.json` in the current
//! directory for regression tracking, `throughput --json` (E22) writes
//! `BENCH_pr3.json`, `serve --json` (E24, the serving-saturation
//! experiment) writes `BENCH_pr10.json`, `observe --json` (E25) writes
//! `BENCH_pr6.json`, `chaos --json` (E26) writes `BENCH_pr7.json`,
//! and `backend --json` (E27) writes `BENCH_pr8.json`.

use sdp_bench::experiments as ex;
use sdp_bench::{reports_to_json, Report};

fn main() {
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    let json = args.iter().any(|a| a == "--json");
    args.retain(|a| a != "--json");
    let which = args
        .first()
        .map(String::as_str)
        .unwrap_or("all")
        .to_string();
    let reports: Vec<Report> = match which.as_str() {
        "all" => ex::report_all(),
        "e1" => vec![ex::report_e1()],
        "e2" => vec![ex::report_e2()],
        "e3" => vec![ex::report_e3()],
        "e4" | "fig6" => vec![ex::report_fig6()],
        "e5" | "prop1" => vec![ex::report_prop1()],
        "e6" | "thm1" => vec![ex::report_thm1()],
        "e7" | "thm2" => vec![ex::report_thm2()],
        "e8" | "prop2" => vec![ex::report_prop2()],
        "e9" | "prop3" => vec![ex::report_prop3()],
        "e10" | "eq40" => vec![ex::report_eq40()],
        "e11" | "table1" => vec![ex::report_table1()],
        "e12" => vec![ex::report_e12()],
        "e13" | "gkt" => vec![ex::report_e13()],
        "e14" | "reduction" => vec![ex::report_e14()],
        "e15" | "topdown" => vec![ex::report_e15()],
        "e16" | "grouped" => vec![ex::report_e16()],
        "e17" | "matmul" => vec![ex::report_e17()],
        "e18" | "bnb" => vec![ex::report_e18()],
        "e19" | "curve" => vec![ex::report_e19()],
        "e20" | "edit" => vec![ex::report_e20()],
        "e21" | "degradation" => vec![ex::report_degradation()],
        "e22" | "throughput" => vec![ex::report_throughput()],
        "throughput-quick" => vec![ex::report_throughput_quick()],
        "e24" | "serve" => vec![ex::report_e24()],
        "serve-quick" => vec![ex::report_e24_quick()],
        "e25" | "observe" => vec![ex::report_e25()],
        "observe-quick" => vec![ex::report_e25_quick()],
        "e26" | "chaos" => vec![ex::report_e26()],
        "chaos-quick" => vec![ex::report_e26_quick()],
        "e27" | "backend" => vec![ex::report_e27()],
        "backend-quick" => vec![ex::report_e27_quick()],
        other => {
            eprintln!(
                "unknown experiment '{other}'; expected one of: all e1 e2 e3 fig6 \
                 prop1 thm1 thm2 prop2 prop3 eq40 table1 e12..e20 degradation \
                 throughput throughput-quick serve serve-quick observe \
                 observe-quick chaos chaos-quick backend backend-quick [--json]"
            );
            std::process::exit(2);
        }
    };
    if json {
        let doc = reports_to_json(&reports).render();
        println!("{doc}");
        if which == "all" {
            if let Err(e) = std::fs::write("BENCH_pr1.json", format!("{doc}\n")) {
                eprintln!("warning: could not write BENCH_pr1.json: {e}");
            }
        }
        if which == "e22" || which == "throughput" {
            if let Err(e) = std::fs::write("BENCH_pr3.json", format!("{doc}\n")) {
                eprintln!("warning: could not write BENCH_pr3.json: {e}");
            }
        }
        if which == "e24" || which == "serve" {
            if let Err(e) = std::fs::write("BENCH_pr10.json", format!("{doc}\n")) {
                eprintln!("warning: could not write BENCH_pr10.json: {e}");
            }
        }
        if which == "e25" || which == "observe" {
            if let Err(e) = std::fs::write("BENCH_pr6.json", format!("{doc}\n")) {
                eprintln!("warning: could not write BENCH_pr6.json: {e}");
            }
        }
        if which == "e26" || which == "chaos" {
            if let Err(e) = std::fs::write("BENCH_pr7.json", format!("{doc}\n")) {
                eprintln!("warning: could not write BENCH_pr7.json: {e}");
            }
        }
        if which == "e27" || which == "backend" {
            if let Err(e) = std::fs::write("BENCH_pr8.json", format!("{doc}\n")) {
                eprintln!("warning: could not write BENCH_pr8.json: {e}");
            }
        }
    } else {
        let text = reports
            .iter()
            .map(Report::render_text)
            .collect::<Vec<_>>()
            .join("\n\n");
        println!("{text}");
    }
}
