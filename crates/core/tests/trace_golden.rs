//! Golden-file tests for the waveform/trace writers and properties
//! showing that tracing is purely observational: a traced run and an
//! untraced run of every design produce identical results, cycle counts,
//! and [`Stats`].
//!
//! Regenerate the fixtures after an intentional format change with:
//!
//! ```text
//! GOLDEN_REGEN=1 cargo test -p sdp-core --test trace_golden
//! ```

use proptest::prelude::*;
use sdp_core::{Design1Array, Design2Array, Design3Array};
use sdp_fault::NoFaults;
use sdp_multistage::generate;
use sdp_trace::vcd::VcdSink;
use sdp_trace::CountingSink;
use sdp_trace::NullSink;

/// Compares `actual` against the committed fixture, or rewrites the
/// fixture when `GOLDEN_REGEN` is set.
fn assert_golden(actual: &str, golden: &str, path: &str) {
    if std::env::var_os("GOLDEN_REGEN").is_some() {
        let file = format!("{}/tests/{path}", env!("CARGO_MANIFEST_DIR"));
        std::fs::write(&file, actual).unwrap();
        return;
    }
    assert_eq!(
        actual, golden,
        "{path} is stale; rerun with GOLDEN_REGEN=1 if the change is intentional"
    );
}

#[test]
fn design1_vcd_is_byte_identical_to_golden() {
    let g = generate::random_single_source_sink(7, 3, 2, 0, 9);
    let mut sink = VcdSink::for_linear_array("design1", 2);
    let res = Design1Array::new(2)
        .run(g.matrix_string(), &mut NoFaults, &mut sink)
        .unwrap();
    assert_eq!(res.optimum(), sdp_multistage::solve::forward_dp(&g).cost);
    assert_golden(
        &sink.finish(),
        include_str!("golden/design1.vcd"),
        "golden/design1.vcd",
    );
}

#[test]
fn chain_chrome_trace_is_byte_identical_to_golden() {
    use sdp_core::chain_array::{simulate_chain_array, ChainMapping};
    let dims = [3u64, 5, 2, 4];
    let res = simulate_chain_array(&dims, ChainMapping::Pipelined);
    let rendered = format!("{}\n", res.to_chrome_trace().render());
    assert_golden(
        &rendered,
        include_str!("golden/chain_pipelined.json"),
        "golden/chain_pipelined.json",
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn design1_tracing_is_observation_only(
        seed in 0u64..10_000, stages in 3usize..8, m in 1usize..6
    ) {
        let g = generate::random_single_source_sink(seed, stages, m, 0, 60);
        let plain = Design1Array::new(m).run(g.matrix_string(), &mut NoFaults, &mut NullSink).unwrap();
        let mut sink = CountingSink::default();
        let traced = Design1Array::new(m).run(g.matrix_string(), &mut NoFaults, &mut sink).unwrap();
        prop_assert_eq!(&plain.values, &traced.values);
        prop_assert_eq!(plain.cycles, traced.cycles);
        prop_assert_eq!(&plain.stats, &traced.stats);
        prop_assert_eq!(sink.cycles, traced.stats.cycles());
        prop_assert_eq!(sink.words_in, traced.stats.input_words());
    }

    #[test]
    fn design2_tracing_is_observation_only(
        seed in 0u64..10_000, stages in 2usize..7, m in 1usize..6
    ) {
        let g = generate::random_uniform(seed, stages, m, 0, 60);
        let plain = Design2Array::new(m).run(g.matrix_string(), &mut NoFaults, &mut NullSink).unwrap();
        let mut sink = CountingSink::default();
        let traced = Design2Array::new(m).run(g.matrix_string(), &mut NoFaults, &mut sink).unwrap();
        prop_assert_eq!(&plain.values, &traced.values);
        prop_assert_eq!(plain.cycles, traced.cycles);
        prop_assert_eq!(plain.broadcast_words, traced.broadcast_words);
        prop_assert_eq!(&plain.stats, &traced.stats);
        prop_assert_eq!(sink.cycles, traced.stats.cycles());
        prop_assert_eq!(sink.bus_drives, traced.stats.bus_words());
    }

    #[test]
    fn design3_tracing_is_observation_only(
        seed in 0u64..10_000, n in 2usize..7, m in 1usize..6
    ) {
        let g = generate::node_value_random(
            seed, n, m, Box::new(sdp_multistage::node_value::AbsDiff), -30, 30,
        );
        let plain = Design3Array::new(m).run(&g, &mut NoFaults, &mut NullSink).unwrap();
        let mut sink = CountingSink::default();
        let traced = Design3Array::new(m).run(&g, &mut NoFaults, &mut sink).unwrap();
        prop_assert_eq!(plain.cost, traced.cost);
        prop_assert_eq!(&plain.finals, &traced.finals);
        prop_assert_eq!(&plain.path, &traced.path);
        prop_assert_eq!(plain.cycles, traced.cycles);
        prop_assert_eq!(&plain.stats, &traced.stats);
        prop_assert_eq!(sink.cycles, traced.stats.cycles());
        prop_assert_eq!(sink.token_advances, traced.stats.token_rotations());
    }

    #[test]
    fn edit_mesh_tracing_is_observation_only(
        seed in 0u64..1_000, la in 1usize..8, lb in 1usize..8
    ) {
        use sdp_core::edit_array::edit_distance_mesh;
        let a: Vec<u8> = (0..la).map(|i| b'a' + ((seed as usize + i) % 3) as u8).collect();
        let b: Vec<u8> = (0..lb).map(|i| b'a' + ((seed as usize * 7 + i) % 3) as u8).collect();
        let plain = edit_distance_mesh(&a, &b, &mut NoFaults, &mut NullSink).unwrap();
        let mut sink = CountingSink::default();
        let traced = edit_distance_mesh(&a, &b, &mut NoFaults, &mut sink).unwrap();
        prop_assert_eq!(plain.distance, traced.distance);
        prop_assert_eq!(plain.cycles, traced.cycles);
        prop_assert_eq!(&plain.stats, &traced.stats);
        prop_assert_eq!(sink.cycles, traced.stats.cycles());
    }
}
