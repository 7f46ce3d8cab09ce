//! Conformance sweep: the edit-distance instance of the monadic-
//! nonserial class — the wavefront mesh (plain / traced / `try_*` /
//! resilient / batched) against the oracle's full DP table.

use proptest::proptest;
use sdp_oracle::strategies::EditPairStrategy;
use sdp_oracle::{diff, diffcase};

/// Every pair of strings over `{a, b}` with lengths ≤ 3 — all 225 —
/// through the full mesh variant matrix.
#[test]
fn exhaustive_small_pairs_match_oracle() {
    for (i, (a, b)) in diffcase::edit_exhaustive_small().iter().enumerate() {
        let variants = diff::check_edit(&format!("exhaustive[{i}]"), a, b);
        assert!(variants >= 7, "variant matrix shrank to {variants}");
    }
}

/// Seeded ramp over a 4-letter alphabet, lengths to 12, empty operands
/// included (the zero-PE fast path must hold on every variant).
#[test]
fn edit_ramp_matches_oracle() {
    for c in diffcase::edit_ramp(0xED17, 26) {
        let tag = format!("{} seed={:#x}", c.shape, c.seed);
        let (a, b) = &c.instance;
        let floor = if a.is_empty() || b.is_empty() { 7 } else { 10 };
        assert!(diff::check_edit(&tag, a, b) >= floor);
    }
}

proptest! {
    #[test]
    fn sampled_pairs_match_oracle(pair in EditPairStrategy) {
        diff::check_edit("sampled edit", &pair.0, &pair.1);
    }
}
