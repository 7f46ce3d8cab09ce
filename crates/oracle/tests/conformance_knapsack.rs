//! Conformance sweep: the 0/1 knapsack workload — the capacity-indexed
//! streaming array (every variant, item-set recovery, the flush-
//! separated batch) and the direct backend against the from-scratch
//! reference row and brute-force subset enumeration.
//!
//! Coverage per the harness contract, in three tiers:
//!
//! * **exhaustive small tier** — every knapsack with ≤ 2 items over
//!   the 6-type universe × every capacity ≤ 8 (387 instances) through
//!   the *full* variant matrix;
//! * **exhaustive wide tier** — every knapsack with ≤ 5 items × every
//!   capacity ≤ 8 (83 979 instances) at row level against both the
//!   reference DP and subset enumeration (the full matrix on the small
//!   tier plus the ramps establishes array ≡ direct);
//! * **seeded ramps and sampled properties** — up to 10 items with
//!   zero-weight and oversized items included, replayable through
//!   `conformance_knapsack.proptest-regressions`.

use proptest::proptest;
use sdp_oracle::strategies::KnapsackInstanceStrategy;
use sdp_oracle::{diff, diffcase};

/// Every ≤ 2-item knapsack × every capacity ≤ 8 through the full
/// variant matrix (brute-force subset enumeration included — every
/// instance is tiny).
#[test]
fn exhaustive_small_knapsacks_match_oracle() {
    for (i, (items, cap)) in diffcase::knapsack_exhaustive_small().iter().enumerate() {
        let variants = diff::check_knapsack(&format!("exhaustive[{i}]"), items, *cap);
        assert!(variants >= 9, "variant matrix shrank to {variants}");
    }
}

/// Every ≤ 5-item knapsack × every capacity ≤ 8 at row level: the
/// direct backend against the reference row and subset enumeration.
#[test]
fn exhaustive_wide_knapsacks_match_oracle_rows() {
    for (i, (items, cap)) in diffcase::knapsack_exhaustive_wide().iter().enumerate() {
        diff::check_knapsack_row(&format!("wide[{i}]"), items, *cap);
    }
}

/// Seeded ramp: up to 10 items, weights to 6 (zero-weight and
/// oversized included), capacities to 12, empty lists at the start.
#[test]
fn knapsack_ramp_matches_oracle() {
    for c in diffcase::knapsack_ramp(0x0CA5, 30) {
        let tag = format!("{} seed={:#x}", c.shape, c.seed);
        let (items, cap) = &c.instance;
        assert!(diff::check_knapsack(&tag, items, *cap) >= 9);
    }
}

proptest! {
    #[test]
    fn sampled_knapsacks_match_oracle(inst in KnapsackInstanceStrategy) {
        let (items, cap) = &inst;
        diff::check_knapsack("sampled knapsack", items, *cap);
    }
}
