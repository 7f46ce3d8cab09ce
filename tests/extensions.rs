//! Integration: the extension modules compose with the original stack.

use sdp_core::chain_problem::{ChainProblem, MergeTree};
use sdp_core::edit_array::{edit_distance_mesh, edit_distance_seq};
use sdp_core::matmul_array::MatmulArray;
use sdp_core::nonserial_array::run_grouped;
use sdp_multistage::bnb;
use sdp_multistage::curve::{CurveConfig, SyntheticImage};
use systolic_dp::prelude::*;

/// Curve detection: sequential DP, Design 1, Design 2 (with path), and
/// branch-and-bound all agree on the same image.
#[test]
fn curve_detection_four_way_agreement() {
    let img = SyntheticImage::generate(5, 30, 8, 100, 40);
    let cfg = CurveConfig::default();
    let det = img.detect(cfg);
    let g = img.to_multistage(cfg);

    let d1 = Design1Array::new(8)
        .run(g.matrix_string(), &mut NoFaults, &mut NullSink)
        .unwrap();
    let d2 = Design2Array::new(8)
        .run(g.matrix_string(), &mut NoFaults, &mut NullSink)
        .unwrap();
    let bb = bnb::search(&g, bnb::BnbConfig::default());

    let best = |v: &[Cost]| v.iter().copied().fold(Cost::INF, Cost::min);
    assert_eq!(best(&d1.values), det.cost);
    assert_eq!(best(&d2.values), det.cost);
    assert_eq!(bb.cost, det.cost);
    // Design 2's recovered path is a valid optimal curve too.
    let path = d2.path.expect("finite optimum");
    assert_eq!(solve::path_cost(&g, &path), det.cost);
    for w in path.windows(2) {
        assert!(w[0].abs_diff(w[1]) <= cfg.max_step);
    }
}

/// The Kung mesh, the threaded executor, and the reference fold multiply
/// the same string identically; mesh cycles equal rounds × T₁.
#[test]
fn matmul_mesh_and_threads_and_fold_agree() {
    let g = generate::random_uniform(11, 9, 4, 0, 99); // 8 matrices
    let fold = Matrix::string_product(g.matrix_string());
    let (mesh_prod, mesh_cycles) =
        MatmulArray::multiply_string_dnc(g.matrix_string(), 3, &mut NullSink).unwrap();
    let (thr_prod, rounds) = dnc::ParallelExecutor::new(3)
        .multiply_string(g.matrix_string())
        .unwrap();
    assert_eq!(mesh_prod, fold);
    assert_eq!(thr_prod, fold);
    assert_eq!(mesh_cycles, rounds * MatmulArray::t1(4, 4, 4));
}

/// A merge-tree problem runs identically on the analytic chain array,
/// the clocked GKT triangle, and the sequential DP.
#[test]
fn merge_tree_three_models() {
    let freq = [9u64, 2, 17, 4, 11];
    let p = MergeTree::new(&freq);
    let dp = p.solve_dp();
    let bc = sdp_core::chain_array::simulate_chain_problem(&p, ChainMapping::Broadcast);
    let gk = GktArray::default().run_problem(&p);
    assert_eq!(bc.cost, dp);
    assert_eq!(gk.cost, dp);
    assert_eq!(bc.finish, freq.len() as u64); // T_d = N holds here too
}

/// Grouped nonserial execution agrees with elimination and brute force,
/// and exposes the §6.1 work/parallelism trade.
#[test]
fn grouped_nonserial_end_to_end() {
    let chain = TernaryChain::uniform(
        (0..6).map(|i| vec![i, i + 1, 2 * i]).collect(),
        |a, b, c| Cost::from((a - b).abs() * 2 + (b - c).abs()),
    );
    let run = run_grouped(&chain);
    let (bf, _) = chain.brute_force();
    assert_eq!(run.cost, bf);
    assert!(run.work_blowup() >= 1.0);
    assert!(run.speedup() >= 1.0);
}

/// Edit distance: the mesh agrees with the sequential oracle, including
/// on equal, disjoint, and prefix pairs.
#[test]
fn edit_distance_mesh_oracle() {
    let cases: &[(&[u8], &[u8])] = &[
        (b"abc", b"abc"),
        (b"abc", b"xyz"),
        (b"abc", b"abcdef"),
        (b"abcdef", b"abc"),
        (b"a", b""),
        (b"", b""),
    ];
    for (a, b) in cases {
        assert_eq!(
            edit_distance_mesh(a, b, &mut NoFaults, &mut NullSink)
                .unwrap()
                .distance,
            edit_distance_seq(a, b),
            "{a:?} vs {b:?}"
        );
    }
}

/// The secondary-optimization plan executes on real cost matrices with
/// exactly the predicted operation count and an unchanged product.
#[test]
fn reduction_plan_executes_faithfully() {
    let g = generate::random_uniform(21, 6, 5, 0, 30);
    let p = reduction::plan(&g);
    let (reduced, ops) = reduction::execute(&g, &p);
    assert_eq!(ops, p.optimal_ops);
    assert_eq!(reduced, Matrix::string_product(g.matrix_string()));
}

/// Top-down search over the chain AND/OR graph yields the DP value and a
/// consistent solution tree.
#[test]
fn topdown_solution_tree_on_chain() {
    let dims = generate::random_chain_dims(9, 6, 2, 25);
    let c = systolic_dp::andor::chain::build_chain_andor(&dims);
    let td = topdown::search(&c.graph, c.root, &|_| None);
    assert_eq!(td.cost, matrix_chain_order(&dims).cost);
    let tree = td.solution_tree(&c.graph, c.root);
    assert!(tree.contains(&c.root));
}
