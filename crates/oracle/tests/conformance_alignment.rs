//! Conformance sweep: the local-alignment workload family —
//! Smith–Waterman, banded SW, and Gotoh affine gaps through every mesh
//! variant, the direct backends, the pipelined batches, and host-side
//! traceback — against the from-scratch textbook references.
//!
//! Coverage per the harness contract, in three tiers:
//!
//! * **exhaustive small tier** — every pair over the 3-symbol alphabet
//!   with lengths ≤ 3 (1600 pairs) through the *full* variant matrix,
//!   under both a linear and a distinct-affine scheme;
//! * **exhaustive wide tier** — every pair with lengths ≤ 5 (132 496
//!   pairs) at score level against the references (the full matrix on
//!   the small tier plus the ramps establishes mesh ≡ direct, so the
//!   wide tier extends oracle coverage without re-simulating 10⁵
//!   meshes);
//! * **seeded ramps and sampled properties** — lengths to 12 over all
//!   three scoring flavors (simple / affine / substitution matrix),
//!   replayable through `conformance_alignment.proptest-regressions`.

use proptest::proptest;
use sdp_core::align::Scoring;
use sdp_oracle::strategies::AlignInstanceStrategy;
use sdp_oracle::{diff, diffcase};

/// Every pair over `{0, 1, 2}` with lengths ≤ 3 through the full
/// variant matrix: linear gaps with a covering band (so banded ≡ full
/// is asserted on every pair) and affine gaps with a tight band.
#[test]
fn exhaustive_small_pairs_match_oracle() {
    let linear = Scoring::simple(2, -1, 1);
    let affine = Scoring::affine(3, -2, 4, 1);
    for (i, (a, b)) in diffcase::align_exhaustive_small().iter().enumerate() {
        let variants = diff::check_alignment(&format!("exhaustive[{i}] linear"), a, b, 3, &linear);
        let floor = if a.is_empty() || b.is_empty() { 12 } else { 21 };
        assert!(variants >= floor, "variant matrix shrank to {variants}");
        diff::check_alignment(&format!("exhaustive[{i}] affine"), a, b, 1, &affine);
    }
}

/// Every pair over `{0, 1, 2}` with lengths ≤ 5 at score level: the
/// direct solvers for all three families against the references.
#[test]
fn exhaustive_wide_pairs_match_oracle_scores() {
    let linear = Scoring::simple(2, -1, 1);
    let affine = Scoring::affine(2, -1, 3, 1);
    for (i, (a, b)) in diffcase::align_exhaustive_wide().iter().enumerate() {
        diff::check_alignment_scores(&format!("wide[{i}] linear"), a, b, 2, &linear);
        diff::check_alignment_scores(&format!("wide[{i}] affine"), a, b, 4, &affine);
    }
}

/// Seeded ramp: lengths to 12, empty operands included, bands from 0
/// to covering, scoring cycling through all three flavors.
#[test]
fn align_ramp_matches_oracle() {
    for c in diffcase::align_ramp(0xA119, 30) {
        let tag = format!("{} seed={:#x}", c.shape, c.seed);
        let (a, b, band, scoring) = &c.instance;
        let floor = if a.is_empty() || b.is_empty() { 12 } else { 20 };
        assert!(diff::check_alignment(&tag, a, b, *band, scoring) >= floor);
    }
}

proptest! {
    #[test]
    fn sampled_instances_match_oracle(inst in AlignInstanceStrategy) {
        let (a, b, band, scoring) = &inst;
        diff::check_alignment("sampled align", a, b, *band, scoring);
    }
}
