//! Conformance sweep: the monadic-serial class (multistage graphs
//! through Designs 1/2) and the node-value formulation (Design 3).
//!
//! Coverage per the harness contract: one exhaustive small-N
//! enumeration, one seeded random ramp, and proptest-sampled instances
//! per class, each case running the full engine-variant matrix
//! differentially against the oracle (`PROPTEST_CASES` scales the
//! random budget).

use proptest::proptest;
use sdp_oracle::strategies::{MultistageStrategy, NodeValueStrategy, SingleSourceSinkStrategy};
use sdp_oracle::{diff, diffcase};

/// Every 1×2 · 2×2 · 2×1 min-plus string over `{0, 1, ∞}` — all 6561
/// of them — through every Design 1/2 variant.
#[test]
fn exhaustive_small_strings_match_oracle() {
    for (i, mats) in diffcase::multistage_exhaustive_small().iter().enumerate() {
        let variants = diff::check_multistage_string(&format!("exhaustive[{i}]"), mats);
        assert!(variants >= 15, "variant matrix shrank to {variants}");
    }
}

/// Seeded size ramp of uniform (all-stages-width-`m`) graphs: serial
/// solvers plus the systolic variant matrix.
#[test]
fn uniform_ramp_matches_oracle() {
    for c in diffcase::multistage_ramp(0xD1FF, 18) {
        let tag = format!("{} seed={:#x}", c.shape, c.seed);
        assert!(diff::check_multistage_graph(&tag, &c.instance) >= 17);
    }
}

/// Seeded ramp of single-source/sink graphs — the Eq. 9 shape, where
/// the closed-form PU check also fires.
#[test]
fn single_source_sink_ramp_matches_oracle() {
    for c in diffcase::multistage_sss_ramp(0x5550, 18) {
        let tag = format!("{} seed={:#x}", c.shape, c.seed);
        assert!(diff::check_multistage_graph(&tag, &c.instance) >= 17);
    }
}

/// Seeded ramp of node-value graphs through every Design 3 variant.
#[test]
fn node_value_ramp_matches_oracle() {
    for c in diffcase::node_value_ramp(0x3D, 18) {
        let tag = format!("{} seed={:#x}", c.shape, c.seed);
        assert!(diff::check_node_value(&tag, &c.instance) >= 5);
    }
}

proptest! {
    #[test]
    fn sampled_multistage_graphs_match_oracle(g in MultistageStrategy) {
        diff::check_multistage_graph("sampled uniform", &g);
    }

    #[test]
    fn sampled_sss_graphs_match_oracle(g in SingleSourceSinkStrategy) {
        diff::check_multistage_graph("sampled sss", &g);
    }

    #[test]
    fn sampled_node_value_graphs_match_oracle(g in NodeValueStrategy) {
        diff::check_node_value("sampled node-value", &g);
    }
}
