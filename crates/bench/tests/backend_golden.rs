//! Golden-file smoke test for the E27 direct-backend experiment.
//!
//! Wall-clock columns are host-dependent, so this is a *schema*
//! golden-diff, not a timing assertion: every timing/host-shaped value
//! (sim/direct ms, speedups, core counts, and the wall-clock-raced
//! `crossover_work`) is redacted to `null` before the byte comparison.
//! What stays byte-compared: the class list, the deterministic
//! size/work ramp, and the per-row `payload_identical` /
//! `oracle_identical` verdicts — a drift here means the ramp instances
//! or the sim/direct/oracle payload contract changed.  Regenerate after
//! an intentional change with:
//!
//! ```text
//! GOLDEN_REGEN=1 cargo test -p sdp-bench --test backend_golden
//! ```

mod support;

use sdp_bench::experiments::report_e27_quick;
use sdp_bench::reports_to_json;
use sdp_trace::json::Json;

#[test]
fn backend_schema_and_ramp_metrics_match_golden() {
    let mut doc = reports_to_json(&[report_e27_quick()]);
    support::redact_backend(&mut doc);
    let rendered = format!("{}\n", doc.render());
    support::check_golden(
        "backend.json",
        &rendered,
        include_str!("golden/backend.json"),
    );
}

#[test]
fn every_class_proves_payload_identity_across_its_ramp() {
    // The acceptance gate for dispatch transparency, checked on the
    // quick variant: every (class, size) cell must have compared the
    // fully rendered sim and direct payloads byte-for-byte before any
    // timing ran — and the oracle's too, for every class the oracle can
    // stand in for — and the work ramp must be strictly increasing so
    // the crossover search scans a monotone axis.
    let report = report_e27_quick();
    let Json::Object(fields) = &report.metrics else {
        panic!("metrics must be an object");
    };
    let Some((_, Json::Array(classes))) = fields.iter().find(|(k, _)| k == "classes") else {
        panic!("classes section missing");
    };
    assert_eq!(classes.len(), 8, "all eight dispatchable classes measured");
    for class in classes {
        let Json::Object(c) = class else {
            panic!("class entry must be an object");
        };
        let name = match c.iter().find(|(k, _)| k == "class").map(|(_, v)| v) {
            Some(Json::Str(s)) => s.clone(),
            other => panic!("class name missing: {other:?}"),
        };
        let Some((_, Json::Array(rows))) = c.iter().find(|(k, _)| k == "rows") else {
            panic!("{name}: rows missing");
        };
        assert!(!rows.is_empty(), "{name}: ramp must be non-empty");
        let mut prev_work = 0u64;
        for row in rows {
            let Json::Object(r) = row else {
                panic!("{name}: row must be an object");
            };
            let work = match r.iter().find(|(k, _)| k == "work").map(|(_, v)| v) {
                Some(Json::Int(i)) => *i as u64,
                other => panic!("{name}: work missing: {other:?}"),
            };
            assert!(work > prev_work, "{name}: work ramp must strictly increase");
            prev_work = work;
            match r
                .iter()
                .find(|(k, _)| k == "payload_identical")
                .map(|(_, v)| v)
            {
                Some(Json::Bool(true)) => {}
                other => panic!("{name}: payload_identical must be true, got {other:?}"),
            }
            // Multistage checks interior shapes engine-side and chain
            // adds `steps`, so the oracle cannot stand in for them.
            let oracle = r
                .iter()
                .find(|(k, _)| k == "oracle_identical")
                .map(|(_, v)| v);
            match (name.as_str(), oracle) {
                ("multistage1" | "multistage2" | "chain", Some(Json::Null)) => {}
                ("multistage1" | "multistage2" | "chain", other) => {
                    panic!("{name}: oracle_identical must be null, got {other:?}")
                }
                (_, Some(Json::Bool(true))) => {}
                (_, other) => panic!("{name}: oracle_identical must be true, got {other:?}"),
            }
        }
    }
}
