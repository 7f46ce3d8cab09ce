//! Conformance sweep: the polyadic-serial class — semiring string
//! products through the mesh, the D&C scheduler at several
//! granularities, the `ParallelExecutor` (scoped rounds / `StealPool` /
//! fault-tolerant), and the resilient mesh wrappers.

use proptest::proptest;
use sdp_oracle::strategies::MinPlusStringStrategy;
use sdp_oracle::{diff, diffcase};
use sdp_semiring::{Matrix, MinPlus};

/// Every 2×2 · 2×2 min-plus pair over `{0, 1, ∞}` — all 6561 — through
/// the mesh paths (null and counting sinks, batched, direct).
#[test]
fn exhaustive_small_products_match_oracle() {
    for (i, (a, b)) in diffcase::matmul_exhaustive_small().iter().enumerate() {
        let variants = diff::check_matmul_pair(&format!("exhaustive[{i}]"), a, b);
        assert!(variants >= 5, "variant matrix shrank to {variants}");
    }
}

/// Seeded ramp of min-plus strings through every string-product engine,
/// with the mesh resilient wrappers on the leading pair.
#[test]
fn minplus_string_ramp_matches_oracle() {
    for c in diffcase::minplus_string_ramp(0x57A1, 18) {
        let tag = format!("{} seed={:#x}", c.shape, c.seed);
        assert!(diff::check_string_engines(&tag, &c.instance) >= 9);
        assert!(diff::check_matmul_pair(&tag, &c.instance[0], &c.instance[1]) >= 5);
        assert!(diff::check_matmul_resilient(&tag, &c.instance[0], &c.instance[1]) >= 4);
    }
}

/// The same engines over the other semiring instances — max-plus gets
/// the resilient wrappers too (it carries a faultable word), boolean
/// and counting run the fault-free variant matrix.
#[test]
fn other_semirings_match_oracle() {
    for (maxp, boolean, counting) in diffcase::other_semiring_ramp(0x0DD5, 14) {
        let tag = format!("maxplus {} seed={:#x}", maxp.shape, maxp.seed);
        assert!(diff::check_string_engines(&tag, &maxp.instance) >= 9);
        assert!(diff::check_matmul_resilient(&tag, &maxp.instance[0], &maxp.instance[1]) >= 4);
        let tag = format!("boolor {} seed={:#x}", boolean.shape, boolean.seed);
        assert!(diff::check_string_engines(&tag, &boolean.instance) >= 9);
        assert!(diff::check_matmul_pair(&tag, &boolean.instance[0], &boolean.instance[1]) >= 5);
        let tag = format!("countplus {} seed={:#x}", counting.shape, counting.seed);
        assert!(diff::check_string_engines(&tag, &counting.instance) >= 9);
        assert!(diff::check_matmul_pair(&tag, &counting.instance[0], &counting.instance[1]) >= 5);
    }
}

/// Rectangular products: the mesh must agree with the oracle off the
/// square diagonal too.
#[test]
fn rectangular_products_match_oracle() {
    use proptest::rng::TestRng;
    let mut rng = TestRng::from_state(0x4EC7);
    for (p, q, r) in [(1, 1, 1), (1, 3, 2), (4, 1, 3), (2, 5, 1), (3, 4, 5)] {
        let a = diffcase::random_matrix(&mut rng, p, q, 9, |v| MinPlus::from(v as i64));
        let b = diffcase::random_matrix(&mut rng, q, r, 9, |v| MinPlus::from(v as i64));
        assert!(diff::check_matmul_pair(&format!("rect {p}x{q}x{r}"), &a, &b) >= 5);
    }
}

proptest! {
    #[test]
    fn sampled_strings_match_oracle(mats in MinPlusStringStrategy) {
        diff::check_string_engines("sampled string", &mats);
    }

    #[test]
    fn sampled_pairs_match_oracle(mats in MinPlusStringStrategy) {
        let (a, b): (&Matrix<MinPlus>, _) = (&mats[0], &mats[1]);
        diff::check_matmul_pair("sampled pair", a, b);
        diff::check_matmul_resilient("sampled pair", a, b);
    }
}
