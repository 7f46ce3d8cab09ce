//! Cross-engine differential drivers.
//!
//! Each `check_*` driver pushes **one** instance through *every*
//! distinct engine path — the single run (once under a [`NullSink`],
//! once under a [`CountingSink`] that must observe without perturbing),
//! batched, banded, TMR/duplex resilient wrappers, spare columns, the
//! `StealPool`-backed D&C executor, and the `sdp-backend` compiled
//! direct solvers — and requires each answer to be bit-identical (via
//! [`reference::weq`]) to the independent oracle's.
//! The direct solvers are additionally held to **full-field
//! [`sdp_systolic::Stats`] equality** against the simulated run: their analytic closed forms
//! must reproduce the measured cycles, busy vectors, and I/O words
//! exactly, or a direct run would be distinguishable downstream.  The paper-invariant checkers from
//! [`crate::invariants`] run on the measured stats of the same runs, so
//! a conformance sweep validates values *and* timing at once.
//!
//! Every driver returns the number of engine variants it exercised;
//! the conformance tests assert a floor on that count so a silently
//! skipped variant fails the suite rather than shrinking it.

use crate::invariants;
use crate::reference::{self, weq, Weight};
use sdp_andor::chain::{
    bst_brute_force, build_chain_andor, chain_brute_force, matrix_chain_order, optimal_bst,
    try_matrix_chain_order, try_optimal_bst,
};
use sdp_core::align::Scoring;
use sdp_core::chain_array::{simulate_chain_array, ChainMapping};
use sdp_core::design1::Design1Array;
use sdp_core::design2::Design2Array;
use sdp_core::design3::Design3Array;
use sdp_core::dnc::ParallelExecutor;
use sdp_core::edit_array::{edit_distance_mesh, edit_distance_mesh_batch, edit_distance_seq};
use sdp_core::matmul_array::MatmulArray;
use sdp_core::resilient::{
    design1_tmr, design2_tmr, design3_tmr, edit_distance_recompute, edit_distance_tmr,
    matmul_recompute, matmul_tmr,
};
use sdp_fault::{Fault, FaultPlan, FaultyWord, NoFaults, PlanInjector};
use sdp_multistage::{solve, MultistageGraph, NodeValueGraph};
use sdp_semiring::{Cost, Matrix, MinPlus, Semiring};
use sdp_systolic::{scheduler::eq29_time, TreeScheduler};
use sdp_trace::{CountingSink, NullSink};

/// Asserts a cost vector is element-wise [`weq`]-identical to the
/// oracle's weight vector.
fn assert_values(tag: &str, got: &[Cost], want: &[Weight]) {
    assert_eq!(got.len(), want.len(), "{tag}: values length");
    for (i, (&g, &w)) in got.iter().zip(want).enumerate() {
        assert!(weq(w, g), "{tag}: values[{i}] = {g:?}, oracle {w:?}");
    }
}

/// Cost of a stage path through a raw matrix string, from the oracle's
/// weight algebra (`path[i]` is the vertex chosen in stage `i`).
fn string_path_weight(mats: &[Matrix<MinPlus>], path: &[usize]) -> Weight {
    assert_eq!(path.len(), mats.len() + 1, "path must name every stage");
    let mut w = Some(0);
    for (s, m) in mats.iter().enumerate() {
        let edge = reference::RefMat::from_minplus(m).get(path[s], path[s + 1]);
        w = reference::wadd(w, edge);
    }
    w
}

/// Tracing only observes: a run under a [`CountingSink`] must equal the
/// [`NullSink`] run field for field (answers and `Stats`), and the sink
/// must have counted exactly the run's cycles.
fn assert_counted<R: PartialEq + std::fmt::Debug>(
    tag: &str,
    engine: &str,
    plain: &R,
    counted: &R,
    sink: &CountingSink,
    cycles: u64,
) {
    assert_eq!(counted, plain, "{tag}: {engine} counting-sink run diverges");
    assert_eq!(sink.cycles, cycles, "{tag}: {engine} sink cycle count");
}

/// A transient bit-flip aimed at PE 0's first busy cycle — used to
/// prove the TMR/duplex wrappers out-vote an actually-corrupted
/// replica, not just a fault-free one.
fn flip_pe0() -> PlanInjector {
    PlanInjector::new(FaultPlan::new().with(Fault::TransientFlip {
        pe: 0,
        cycle: 1,
        bit: 1,
    }))
}

/// Differential driver for the monadic-serial class: one min-plus
/// matrix string through every Design 1 and Design 2 variant.
pub fn check_multistage_string(tag: &str, mats: &[Matrix<MinPlus>]) -> usize {
    let n = mats.len();
    let m = if mats[0].rows() == 1 {
        mats[0].cols()
    } else {
        mats[0].rows()
    };
    let sss = mats[0].rows() == 1 && mats[n - 1].cols() == 1;

    // The oracle: the full string product, its per-row minima (the
    // engines' `values` contract), and the scalar optimum — confirmed
    // against brute-force path enumeration where feasible.
    let prod = reference::minplus_string_ref(mats);
    let want_vals = prod.row_mins();
    let want_best = prod.best();
    if n * m <= 12 {
        assert_eq!(
            reference::enumerate_paths_best(mats),
            want_best,
            "{tag}: oracle DP disagrees with path enumeration"
        );
    }

    let mut variants = 0;

    // Design 1 (pipelined, Fig. 3): the run, the spare-column remap,
    // and TMR around a clean and a faulty replica.
    let d1 = Design1Array::new(m);
    let plain = d1.run(mats, &mut NoFaults, &mut NullSink).expect("d1 run");
    let mut sink = CountingSink::default();
    let counted = d1.run(mats, &mut NoFaults, &mut sink).expect("d1 counted");
    assert_counted(tag, "d1", &plain, &counted, &sink, counted.cycles);
    let runs = [
        plain,
        counted,
        d1.run_with_spare(mats, 0, &mut NoFaults, &mut NullSink)
            .expect("d1 spare")
            .0,
        design1_tmr(&d1, mats, &mut NoFaults, &mut NullSink)
            .expect("d1 tmr clean")
            .0,
        design1_tmr(&d1, mats, &mut flip_pe0(), &mut NullSink)
            .expect("d1 tmr faulty")
            .0,
    ];
    for r in &runs {
        assert_values(tag, &r.values, &want_vals);
        assert!(weq(want_best, r.optimum()), "{tag}: d1 optimum");
        invariants::check_design1(m, n, r);
        variants += 1;
    }
    if sss && n >= 2 {
        invariants::check_eq9(m, n, &runs[0]);
    }

    // Design 1 batched: three copies pipelined must reproduce the
    // single-run answer three times.
    let batch = d1
        .run_batch(&[mats, mats, mats], &mut NullSink)
        .expect("d1 batch");
    for t in 0..3 {
        assert_values(tag, &batch.values[t], &want_vals);
    }
    assert!(
        batch.cycles >= runs[0].cycles,
        "{tag}: batching cannot beat one instance"
    );
    variants += 1;

    // Design 1 direct backend: values vs the oracle, and the analytic
    // Stats must equal the *measured* Stats field-for-field.
    let direct1 = sdp_backend::design1_direct(m, mats).expect("d1 direct");
    assert_values(tag, &direct1.values, &want_vals);
    assert!(
        weq(want_best, direct1.optimum()),
        "{tag}: d1 direct optimum"
    );
    assert_eq!(direct1.cycles, runs[0].cycles, "{tag}: d1 direct cycles");
    assert_eq!(
        direct1.paper_iterations, runs[0].paper_iterations,
        "{tag}: d1 direct paper iterations"
    );
    assert_eq!(
        direct1.stats, runs[0].stats,
        "{tag}: d1 direct analytic stats vs measured"
    );
    let direct1b =
        sdp_backend::design1_direct_batch(m, &[mats, mats, mats]).expect("d1 direct batch");
    for t in 0..3 {
        assert_values(tag, &direct1b.values[t], &want_vals);
    }
    assert_eq!(
        direct1b.cycles, batch.cycles,
        "{tag}: d1 direct batch cycles"
    );
    assert_eq!(
        direct1b.stats, batch.stats,
        "{tag}: d1 direct batch analytic stats vs measured"
    );
    variants += 2;

    // Design 2 (broadcast, Fig. 4).
    let d2 = Design2Array::new(m);
    let plain2 = d2.run(mats, &mut NoFaults, &mut NullSink).expect("d2 run");
    let mut sink = CountingSink::default();
    let counted2 = d2.run(mats, &mut NoFaults, &mut sink).expect("d2 counted");
    assert_counted(tag, "d2", &plain2, &counted2, &sink, counted2.cycles);
    let runs2 = [
        plain2,
        counted2,
        design2_tmr(&d2, mats, &mut NoFaults, &mut NullSink)
            .expect("d2 tmr clean")
            .0,
        design2_tmr(&d2, mats, &mut flip_pe0(), &mut NullSink)
            .expect("d2 tmr faulty")
            .0,
    ];
    for r in &runs2 {
        assert_values(tag, &r.values, &want_vals);
        assert!(weq(want_best, r.optimum()), "{tag}: d2 optimum");
        invariants::check_design2(m, n, r);
        match &r.path {
            Some(p) => {
                assert!(
                    want_best.is_some(),
                    "{tag}: d2 path {p:?} on unreachable optimum"
                );
                assert!(
                    weq(string_path_weight(mats, p), r.optimum()),
                    "{tag}: d2 path {p:?} does not cost the optimum"
                );
            }
            None => assert!(want_best.is_none(), "{tag}: d2 dropped a reachable path"),
        }
        variants += 1;
    }

    // Design 2 batched.
    let batch2 = d2
        .run_batch(&[mats, mats, mats], &mut NullSink)
        .expect("d2 batch");
    for t in 0..3 {
        assert_values(tag, &batch2.values[t], &want_vals);
    }
    assert_eq!(
        batch2.cycles,
        3 * runs2[0].cycles,
        "{tag}: broadcast batch is exactly B× one run"
    );
    variants += 1;

    // Design 2 direct backend: the argmin path latches are observable
    // output, so the direct solver must replicate them bit-for-bit too.
    let direct2 = sdp_backend::design2_direct(m, mats).expect("d2 direct");
    assert_values(tag, &direct2.values, &want_vals);
    assert_eq!(direct2.path, runs2[0].path, "{tag}: d2 direct path latches");
    assert_eq!(direct2.cycles, runs2[0].cycles, "{tag}: d2 direct cycles");
    assert_eq!(
        direct2.broadcast_words, runs2[0].broadcast_words,
        "{tag}: d2 direct broadcast words"
    );
    assert_eq!(
        direct2.stats, runs2[0].stats,
        "{tag}: d2 direct analytic stats vs measured"
    );
    let direct2b =
        sdp_backend::design2_direct_batch(m, &[mats, mats, mats]).expect("d2 direct batch");
    for t in 0..3 {
        assert_values(tag, &direct2b.values[t], &want_vals);
        assert_eq!(
            direct2b.paths[t], batch2.paths[t],
            "{tag}: d2 direct batch path[{t}]"
        );
    }
    assert_eq!(
        direct2b.cycles, batch2.cycles,
        "{tag}: d2 direct batch cycles"
    );
    assert_eq!(
        direct2b.stats, batch2.stats,
        "{tag}: d2 direct batch analytic stats vs measured"
    );
    variants += 2;

    variants
}

/// Differential driver for a whole [`MultistageGraph`]: the serial DP
/// solvers (forward, backward, brute force) against the oracle, then
/// the systolic variant matrix on its matrix string.
pub fn check_multistage_graph(tag: &str, g: &MultistageGraph) -> usize {
    let want = reference::multistage_best(g);
    let mut variants = 0;
    let fwd = solve::forward_dp(g);
    let bwd = solve::backward_dp(g);
    for (name, sol) in [("forward_dp", &fwd), ("backward_dp", &bwd)] {
        assert!(weq(want, sol.cost), "{tag}: {name} cost vs oracle");
        if sol.cost.finite().is_some() {
            assert_eq!(
                solve::path_cost(g, &sol.path),
                sol.cost,
                "{tag}: {name} path does not cost its own optimum"
            );
        }
        variants += 1;
    }
    if g.num_vertices() <= 24 {
        let (bf_cost, _) = solve::brute_force(g);
        assert!(weq(want, bf_cost), "{tag}: brute force vs oracle");
        variants += 1;
    }
    variants + check_multistage_string(tag, g.matrix_string())
}

/// Differential driver for the node-value formulation (Design 3): the
/// full variant matrix plus finals/path cross-checks.
pub fn check_node_value(tag: &str, g: &NodeValueGraph) -> usize {
    let n = g.num_stages();
    let m = g.stage_size(0);
    let (want_finals, want_best) = reference::node_value_ref(g);
    if (0..n).map(|s| g.stage_size(s)).product::<usize>() <= 20_000 {
        assert_eq!(
            reference::node_value_enumerate(g),
            want_best,
            "{tag}: oracle DP disagrees with path enumeration"
        );
    }

    let d3 = Design3Array::new(m);
    let plain = d3.run(g, &mut NoFaults, &mut NullSink).expect("d3 run");
    let mut sink = CountingSink::default();
    let counted = d3.run(g, &mut NoFaults, &mut sink).expect("d3 counted");
    assert_counted(tag, "d3", &plain, &counted, &sink, counted.cycles);
    let runs = [
        plain,
        counted,
        design3_tmr(&d3, g, &mut NoFaults, &mut NullSink)
            .expect("d3 tmr clean")
            .0,
        design3_tmr(&d3, g, &mut flip_pe0(), &mut NullSink)
            .expect("d3 tmr faulty")
            .0,
    ];
    let mut variants = 0;
    for r in &runs {
        assert!(weq(want_best, r.cost), "{tag}: d3 cost vs oracle");
        assert_values(tag, &r.finals, &want_finals);
        if want_best.is_some() {
            assert!(
                weq(reference::node_value_path_cost(g, &r.path), r.cost),
                "{tag}: d3 path {:?} does not cost the optimum",
                r.path
            );
        } else {
            assert!(r.path.is_empty(), "{tag}: d3 path on unreachable optimum");
        }
        invariants::check_design3(m, n, r);
        variants += 1;
    }

    let batch = d3.run_batch(&[g, g, g], &mut NullSink).expect("d3 batch");
    for t in 0..3 {
        assert!(weq(want_best, batch.costs[t]), "{tag}: d3 batch cost[{t}]");
        assert_values(tag, &batch.finals[t], &want_finals);
    }
    invariants::check_design3_batch(m, n, 3, &batch);
    variants + 1
}

/// Differential driver for one mesh product over any semiring: the
/// mesh run (null and counting sinks) and the batched run against the
/// naive oracle product.
pub fn check_matmul_pair<S: Semiring>(tag: &str, a: &Matrix<S>, b: &Matrix<S>) -> usize {
    let want = reference::semiring_mul_ref(a, b);
    let (p, q, r) = (a.rows(), a.cols(), b.cols());
    let plain = MatmulArray::multiply(a, b, &mut NullSink).expect("matmul");
    let mut sink = CountingSink::default();
    let counted = MatmulArray::multiply(a, b, &mut sink).expect("matmul counted");
    assert_counted(tag, "matmul", &plain, &counted, &sink, counted.cycles);
    let runs = [plain, counted];
    let mut variants = 0;
    for run in &runs {
        assert_eq!(run.product, want, "{tag}: mesh product vs oracle");
        invariants::check_matmul(p, q, r, run);
        variants += 1;
    }
    let pairs = vec![(a.clone(), b.clone()); 3];
    let batch = MatmulArray::multiply_batch(&pairs, &mut NullSink).expect("matmul batch");
    for t in 0..3 {
        assert_eq!(batch.products[t], want, "{tag}: batch product[{t}]");
    }
    assert_eq!(
        batch.cycles,
        (p + q + r - 2 + 2 * q) as u64,
        "{tag}: batch cycles T₁ + (B−1)·q"
    );
    variants += 1;

    // Direct backend (blocked host kernel): product vs the oracle and
    // analytic Stats vs the mesh's measured Stats, single and batched.
    let direct = sdp_backend::matmul_direct(a, b).expect("matmul direct");
    assert_eq!(direct.product, want, "{tag}: direct product vs oracle");
    assert_eq!(direct.cycles, runs[0].cycles, "{tag}: direct cycles");
    assert_eq!(
        direct.stats, runs[0].stats,
        "{tag}: direct analytic stats vs measured"
    );
    let dbatch = sdp_backend::matmul_direct_batch(&pairs).expect("matmul direct batch");
    assert_eq!(
        dbatch.products, batch.products,
        "{tag}: direct batch products"
    );
    assert_eq!(dbatch.cycles, batch.cycles, "{tag}: direct batch cycles");
    assert_eq!(
        dbatch.serial_ops, batch.serial_ops,
        "{tag}: direct batch serial ops"
    );
    assert_eq!(
        dbatch.stats, batch.stats,
        "{tag}: direct batch analytic stats vs measured"
    );
    variants + 2
}

/// The resilient mesh variants (TMR, duplex recompute) — only for word
/// types the fault model knows how to corrupt.
pub fn check_matmul_resilient<S: Semiring + FaultyWord>(
    tag: &str,
    a: &Matrix<S>,
    b: &Matrix<S>,
) -> usize {
    let want = reference::semiring_mul_ref(a, b);
    let mk: [(&str, &mut dyn FnMut() -> Matrix<S>); 4] = [
        ("tmr clean", &mut || {
            matmul_tmr(a, b, &mut NoFaults, &mut NullSink)
                .expect("tmr clean")
                .0
                .product
        }),
        ("tmr faulty", &mut || {
            matmul_tmr(a, b, &mut flip_pe0(), &mut NullSink)
                .expect("tmr faulty")
                .0
                .product
        }),
        ("recompute clean", &mut || {
            matmul_recompute(a, b, 2, &mut NoFaults, &mut NullSink)
                .expect("recompute clean")
                .0
                .product
        }),
        ("recompute faulty", &mut || {
            matmul_recompute(a, b, 2, &mut flip_pe0(), &mut NullSink)
                .expect("recompute faulty")
                .0
                .product
        }),
    ];
    let mut variants = 0;
    for (name, f) in mk {
        assert_eq!(f(), want, "{tag}: {name} product vs oracle");
        variants += 1;
    }
    variants
}

/// Differential driver for the string-product engines over any
/// semiring: sequential fold, the mesh D&C at several granularities
/// (plus one run under a [`CountingSink`] observing its schedule), and
/// every `ParallelExecutor` path (scoped rounds, `StealPool`,
/// fault-tolerant with and without worker deaths).
pub fn check_string_engines<S: Semiring>(tag: &str, mats: &[Matrix<S>]) -> usize {
    let want = reference::semiring_string_ref(mats);
    let n = mats.len() as u64;
    assert_eq!(
        Matrix::string_product(mats),
        want,
        "{tag}: sequential fold vs oracle"
    );
    let mut variants = 1;

    // The D&C mesh schedule reports total cycles: `rounds × T₁`, with
    // `T₁ = 3m − 2` for the square operands of a string product.
    let t1 = (3 * mats[0].rows() - 2) as u64;
    for k in [1u64, 2, 4] {
        let (prod, cycles) = MatmulArray::multiply_string_dnc(mats, k, &mut NullSink).expect("dnc");
        assert_eq!(prod, want, "{tag}: dnc k={k} vs oracle");
        assert_eq!(
            cycles,
            reference::dnc_rounds_ref(n, k) * t1,
            "{tag}: dnc k={k} cycles vs greedy pairing model × T₁"
        );
        variants += 1;
    }
    let mut sink = CountingSink::default();
    let (prod, cycles) = MatmulArray::multiply_string_dnc(mats, 2, &mut sink).expect("dnc counted");
    assert_eq!(prod, want, "{tag}: counted dnc vs oracle");
    assert_eq!(sink.cycles * t1, cycles, "{tag}: one CycleStart per round");
    assert_eq!(sink.task_starts, n - 1, "{tag}: one task per product");
    variants += 1;

    let exec = ParallelExecutor::new(2);
    let (prod, rounds) = exec.multiply_string(mats).expect("executor");
    assert_eq!(prod, want, "{tag}: executor vs oracle");
    assert_eq!(
        rounds,
        reference::dnc_rounds_ref(n, 2),
        "{tag}: executor rounds vs greedy pairing model"
    );
    variants += 1;

    let (prod, layers) = exec.multiply_string_pool(mats).expect("pool");
    assert_eq!(prod, want, "{tag}: steal pool vs oracle");
    assert_eq!(
        layers,
        (64 - (n - 1).leading_zeros()) as u64,
        "{tag}: pool layers vs ⌈log₂ N⌉"
    );
    variants += 1;

    let (prod, stats) = exec
        .multiply_string_ft(mats, &mut NoFaults, &mut NullSink, 0)
        .expect("ft clean");
    assert_eq!(prod, want, "{tag}: ft clean vs oracle");
    assert!(!stats.any_faults(), "{tag}: clean run reported faults");
    let mut killer = PlanInjector::new(FaultPlan::new().with(Fault::KillWorker { task: 0 }));
    let (prod, stats) = exec
        .multiply_string_ft(mats, &mut killer, &mut NullSink, 3)
        .expect("ft recovered");
    assert_eq!(prod, want, "{tag}: ft after worker death vs oracle");
    assert_eq!(stats.worker_deaths, 1, "{tag}: planned death not observed");
    variants + 2
}

/// Differential driver for the edit-distance mesh: the mesh run (null
/// and counting sinks), the resilient wrappers, the engine's own
/// sequential DP, and the pipelined batch, all against the oracle table.
pub fn check_edit(tag: &str, a: &[u8], b: &[u8]) -> usize {
    let want = reference::edit_distance_ref(a, b);
    let plain = edit_distance_mesh(a, b, &mut NoFaults, &mut NullSink).expect("edit");
    let mut sink = CountingSink::default();
    let counted = edit_distance_mesh(a, b, &mut NoFaults, &mut sink).expect("edit counted");
    assert_counted(tag, "edit", &plain, &counted, &sink, counted.cycles);
    let runs = [
        plain,
        counted,
        edit_distance_tmr(a, b, &mut NoFaults, &mut NullSink)
            .expect("edit tmr clean")
            .0,
        edit_distance_tmr(a, b, &mut flip_pe0(), &mut NullSink)
            .expect("edit tmr faulty")
            .0,
        edit_distance_recompute(a, b, 2, &mut NoFaults, &mut NullSink)
            .expect("edit recompute")
            .0,
    ];
    let mut variants = 0;
    for run in &runs {
        assert_eq!(run.distance, want, "{tag}: mesh distance vs oracle");
        invariants::check_edit(a.len(), b.len(), run);
        variants += 1;
    }
    assert_eq!(
        edit_distance_seq(a, b),
        want,
        "{tag}: sequential DP vs oracle"
    );
    variants += 1;

    // Direct backend (tiled rolling rows): distance vs the oracle and
    // analytic Stats vs the wavefront mesh's measured Stats.
    let direct = sdp_backend::edit_direct(a, b);
    assert_eq!(direct.distance, want, "{tag}: direct distance vs oracle");
    assert_eq!(direct.cycles, runs[0].cycles, "{tag}: direct cycles");
    assert_eq!(
        direct.stats, runs[0].stats,
        "{tag}: direct analytic stats vs measured"
    );
    variants += 1;

    if !a.is_empty() && !b.is_empty() {
        let pairs: Vec<(&[u8], &[u8])> = vec![(a, b); 3];
        let batch = edit_distance_mesh_batch(&pairs, &mut NullSink).expect("edit batch");
        let mut sink = CountingSink::default();
        let counted = edit_distance_mesh_batch(&pairs, &mut sink).expect("edit batch counted");
        assert_counted(tag, "edit batch", &batch, &counted, &sink, counted.cycles);
        for t in 0..3 {
            assert_eq!(batch.distances[t], want, "{tag}: batch distance[{t}]");
        }
        invariants::check_edit_batch(a.len(), b.len(), 3, &batch);
        let dbatch = sdp_backend::edit_direct_batch(&pairs).expect("edit direct batch");
        assert_eq!(
            dbatch.distances, batch.distances,
            "{tag}: direct batch distances"
        );
        assert_eq!(dbatch.cycles, batch.cycles, "{tag}: direct batch cycles");
        assert_eq!(
            dbatch.stats, batch.stats,
            "{tag}: direct batch analytic stats vs measured"
        );
        variants += 3;
    }
    variants
}

/// Validates a recovered local alignment against the run it came from:
/// the ops must consume `a[start.0..=end.0]` / `b[start.1..=end.1]`
/// exactly, re-score to the run's score under linear gaps, and (when
/// banded) stay inside the band.
fn assert_alignment_valid(
    tag: &str,
    a: &[u8],
    b: &[u8],
    band: Option<usize>,
    scoring: &Scoring,
    run: &sdp_core::align::AlignRun,
    alignment: Option<&sdp_core::align::LocalAlignment>,
) {
    use sdp_core::align::AlignOp;
    let Some(al) = alignment else {
        assert_eq!(run.score, 0, "{tag}: positive score without an alignment");
        return;
    };
    assert!(run.score > 0, "{tag}: alignment recovered from score 0");
    assert_eq!(al.score, run.score, "{tag}: alignment score vs run");
    assert_eq!(Some(al.end), run.end, "{tag}: alignment end vs argmax");
    let (mut i, mut j) = al.start;
    let mut score = 0i64;
    for (k, op) in al.ops.iter().enumerate() {
        if let Some(w) = band {
            assert!(
                (i as i64 - j as i64).unsigned_abs() <= w as u64,
                "{tag}: op {k} leaves the band at ({i}, {j})"
            );
        }
        match op {
            AlignOp::Match | AlignOp::Sub => {
                assert_eq!(
                    a[i] == b[j],
                    matches!(op, AlignOp::Match),
                    "{tag}: op {k} mislabels ({i}, {j})"
                );
                score += scoring.subst.score(a[i], b[j]);
                i += 1;
                j += 1;
            }
            AlignOp::Del => {
                score -= scoring.gap;
                i += 1;
            }
            AlignOp::Ins => {
                score -= scoring.gap;
                j += 1;
            }
        }
    }
    assert_eq!(
        (i, j),
        (al.end.0 + 1, al.end.1 + 1),
        "{tag}: ops do not land on the endpoint"
    );
    assert_eq!(score, run.score, "{tag}: ops re-score to {score}");
}

/// Differential driver for the local-alignment family: Smith–Waterman,
/// banded SW, and Gotoh affine gaps through the mesh (null and counting
/// sinks), the direct backends (full-field `Stats` equality), the
/// pipelined batches, and host-side traceback — all against the
/// from-scratch textbook references.
pub fn check_alignment(tag: &str, a: &[u8], b: &[u8], band: usize, scoring: &Scoring) -> usize {
    use sdp_core::align::{
        gotoh_mesh, gotoh_mesh_batch, recover_local_alignment, sw_mesh, sw_mesh_aligned,
        sw_mesh_batch,
    };
    let sub = |p: u8, q: u8| scoring.subst.score(p, q);
    let want_sw = reference::sw_ref(a, b, &sub, scoring.gap);
    let want_banded = reference::sw_banded_ref(a, b, Some(band), &sub, scoring.gap);
    let want_gotoh = reference::gotoh_ref(a, b, &sub, scoring.gap_open, scoring.gap_extend);
    let wants = [
        ("sw", want_sw),
        ("banded", want_banded),
        ("gotoh", want_gotoh),
    ];
    let mut variants = 0;

    // The oracle itself answers to brute-force path enumeration where
    // that is feasible.
    if a.len() + b.len() <= 8 {
        assert_eq!(
            want_sw.0,
            reference::local_align_enumerate_ref(a, b, &sub, scoring.gap),
            "{tag}: oracle DP disagrees with path enumeration"
        );
        variants += 1;
    }

    // One mesh run per family under each sink; `plain[i]` is family
    // `wants[i]`.
    let plain = [
        sw_mesh(a, b, None, scoring, &mut NoFaults, &mut NullSink).expect("sw"),
        sw_mesh(a, b, Some(band), scoring, &mut NoFaults, &mut NullSink).expect("banded"),
        gotoh_mesh(a, b, scoring, &mut NoFaults, &mut NullSink).expect("gotoh"),
    ];
    let mut sinks = [CountingSink::default(); 3];
    let counted = [
        sw_mesh(a, b, None, scoring, &mut NoFaults, &mut sinks[0]).expect("sw counted"),
        sw_mesh(a, b, Some(band), scoring, &mut NoFaults, &mut sinks[1]).expect("banded counted"),
        gotoh_mesh(a, b, scoring, &mut NoFaults, &mut sinks[2]).expect("gotoh counted"),
    ];
    let cycles = if a.is_empty() || b.is_empty() {
        0
    } else {
        (a.len() + b.len() - 1) as u64
    };
    for (i, (family, want)) in wants.into_iter().enumerate() {
        assert_counted(
            tag,
            family,
            &plain[i],
            &counted[i],
            &sinks[i],
            counted[i].cycles,
        );
        for run in [&plain[i], &counted[i]] {
            assert_eq!(run.score, want.0, "{tag}: {family} score vs oracle");
            assert_eq!(run.end, want.1, "{tag}: {family} argmax vs oracle");
            assert_eq!(run.cycles, cycles, "{tag}: {family} makespan");
            variants += 1;
        }
    }

    // Cross-design agreement: a band that covers the whole matrix is
    // the full mesh, and affine gaps with open == extend degenerate to
    // the linear model.
    if band >= a.len().max(b.len()) {
        assert_eq!(plain[1], plain[0], "{tag}: covering band ≠ full");
    }
    if scoring.gap_open == scoring.gap && scoring.gap_extend == scoring.gap {
        assert_eq!(
            (plain[2].score, plain[2].end),
            (plain[0].score, plain[0].end),
            "{tag}: degenerate affine ≠ linear"
        );
    }

    // Direct backends: value equality with the oracle plus full-field
    // analytic-vs-measured Stats equality with the mesh.
    let directs = [
        sdp_backend::sw_direct(a, b, None, scoring),
        sdp_backend::sw_direct(a, b, Some(band), scoring),
        sdp_backend::gotoh_direct(a, b, scoring),
    ];
    for ((family, _), (direct, mesh)) in wants.into_iter().zip(directs.into_iter().zip(&plain)) {
        let direct = direct.unwrap_or_else(|e| panic!("{tag}: {family} direct: {e}"));
        assert_eq!(
            &direct, mesh,
            "{tag}: {family} direct vs mesh (incl. stats)"
        );
        variants += 1;
    }

    // Host-side traceback, full and banded: the recovered ops must
    // replay to the forward pass's score.
    for (mesh, band) in [(&plain[0], None), (&plain[1], Some(band))] {
        let (run, alignment) = sw_mesh_aligned(a, b, band, scoring).expect("aligned");
        assert_eq!(&run, mesh, "{tag}: aligned rerun (band {band:?}) diverges");
        assert_alignment_valid(tag, a, b, band, scoring, &run, alignment.as_ref());
        assert_eq!(
            alignment,
            recover_local_alignment(a, b, band, scoring, &run),
            "{tag}: traceback is not a pure function of the run"
        );
        variants += 1;
    }

    // Pipelined batches of three copies under each sink: per-instance
    // answers, and the direct batch mirrors held to full Stats equality.
    if !a.is_empty() && !b.is_empty() {
        let pairs: Vec<(&[u8], &[u8])> = vec![(a, b); 3];
        let mut sinks = [CountingSink::default(); 3];
        let batches = [
            (
                sw_mesh_batch(&pairs, None, scoring, &mut NullSink),
                sw_mesh_batch(&pairs, None, scoring, &mut sinks[0]),
                sdp_backend::sw_direct_batch(&pairs, None, scoring),
            ),
            (
                sw_mesh_batch(&pairs, Some(band), scoring, &mut NullSink),
                sw_mesh_batch(&pairs, Some(band), scoring, &mut sinks[1]),
                sdp_backend::sw_direct_batch(&pairs, Some(band), scoring),
            ),
            (
                gotoh_mesh_batch(&pairs, scoring, &mut NullSink),
                gotoh_mesh_batch(&pairs, scoring, &mut sinks[2]),
                sdp_backend::gotoh_direct_batch(&pairs, scoring),
            ),
        ];
        for (((family, want), (mesh, counted, direct)), sink) in
            wants.into_iter().zip(batches).zip(&sinks)
        {
            let mesh = mesh.unwrap_or_else(|e| panic!("{tag}: {family} batch: {e}"));
            let counted = counted.unwrap_or_else(|e| panic!("{tag}: {family} counted batch: {e}"));
            let direct = direct.unwrap_or_else(|e| panic!("{tag}: {family} direct batch: {e}"));
            assert_counted(tag, family, &mesh, &counted, sink, counted.cycles);
            assert_eq!(mesh.scores, vec![want.0; 3], "{tag}: {family} batch scores");
            assert_eq!(mesh.ends, vec![want.1; 3], "{tag}: {family} batch ends");
            assert_eq!(
                mesh.cycles,
                (a.len() + b.len() + 1) as u64,
                "{tag}: {family} batch makespan"
            );
            assert_eq!(direct, mesh, "{tag}: {family} direct batch vs mesh");
            variants += 3;
        }
    }
    variants
}

/// Score-level driver for the wide exhaustive sweeps: the direct
/// backends against the references only.  The full variant matrix
/// ([`check_alignment`]) establishes mesh ≡ direct on the smaller
/// exhaustive tier, the ramps, and the property samples; this driver
/// extends oracle coverage to every pair of the wide tier at a cost
/// that keeps the sweep exhaustive rather than sampled.
pub fn check_alignment_scores(
    tag: &str,
    a: &[u8],
    b: &[u8],
    band: usize,
    scoring: &Scoring,
) -> usize {
    let sub = |p: u8, q: u8| scoring.subst.score(p, q);
    let runs = [
        (
            "sw",
            sdp_backend::sw_direct(a, b, None, scoring),
            reference::sw_ref(a, b, &sub, scoring.gap),
        ),
        (
            "banded",
            sdp_backend::sw_direct(a, b, Some(band), scoring),
            reference::sw_banded_ref(a, b, Some(band), &sub, scoring.gap),
        ),
        (
            "gotoh",
            sdp_backend::gotoh_direct(a, b, scoring),
            reference::gotoh_ref(a, b, &sub, scoring.gap_open, scoring.gap_extend),
        ),
    ];
    let mut variants = 0;
    for (family, run, want) in runs {
        let run = run.unwrap_or_else(|e| panic!("{tag}: {family}: {e}"));
        assert_eq!((run.score, run.end), want, "{tag}: {family} vs oracle");
        variants += 1;
    }
    variants
}

/// Differential driver for the 0/1 knapsack array: the streaming run
/// (null and counting sinks), item-set recovery against brute-force
/// subset enumeration, the direct backend (full-field `Stats`
/// equality), and the flush-separated batch — all against the
/// from-scratch reference row.
pub fn check_knapsack(
    tag: &str,
    items: &[sdp_core::knapsack_array::KnapsackItem],
    capacity: u64,
) -> usize {
    use sdp_core::knapsack_array::{
        knapsack_array, knapsack_array_batch, knapsack_array_recovered, knapsack_cycle_count,
    };
    let plain: Vec<(u64, u64)> = items.iter().map(|it| (it.weight, it.value)).collect();
    let want_row = reference::knapsack_row_ref(&plain, capacity);
    let want_best = *want_row.last().expect("row is never empty");
    let mut variants = 0;

    // The oracle row answers to brute-force subset enumeration.
    if items.len() <= 12 {
        for cap in [0, capacity / 2, capacity] {
            assert_eq!(
                reference::knapsack_row_ref(&plain, cap).last(),
                Some(&reference::knapsack_enumerate_ref(&plain, cap)),
                "{tag}: oracle DP disagrees with subset enumeration at cap {cap}"
            );
        }
        variants += 1;
    }

    let plain = knapsack_array(items, capacity, &mut NoFaults, &mut NullSink).expect("knapsack");
    let mut sink = CountingSink::default();
    let counted =
        knapsack_array(items, capacity, &mut NoFaults, &mut sink).expect("knapsack counted");
    assert_counted(tag, "knapsack", &plain, &counted, &sink, counted.cycles);
    let runs = [plain, counted];
    let want_cycles = if items.is_empty() {
        0
    } else {
        knapsack_cycle_count(items, capacity)
    };
    for run in &runs {
        assert_eq!(run.per_capacity, want_row, "{tag}: array row vs oracle");
        assert_eq!(run.best, want_best, "{tag}: array optimum vs oracle");
        assert_eq!(run.cycles, want_cycles, "{tag}: array makespan closed form");
        variants += 1;
    }

    // Item-set recovery from the PEs' traceback memory: the set must
    // be feasible, worth exactly the optimum, and identical to the
    // direct replay's.
    let (rec_run, set) = knapsack_array_recovered(items, capacity).expect("recover");
    assert_eq!(rec_run, runs[0], "{tag}: recovered rerun diverges");
    let weight: u64 = set.iter().map(|&i| items[i].weight).sum();
    let value: u64 = set.iter().map(|&i| items[i].value).sum();
    assert!(weight <= capacity, "{tag}: recovered set overweight");
    assert_eq!(value, want_best, "{tag}: recovered set value vs optimum");
    assert!(
        set.windows(2).all(|w| w[0] < w[1]),
        "{tag}: recovered set not ascending"
    );
    variants += 1;

    // Direct backend: bit-identical run (including analytic Stats) and
    // the same recovered set.
    let direct = sdp_backend::knapsack_direct(items, capacity);
    assert_eq!(direct, runs[0], "{tag}: direct vs array (incl. stats)");
    let (drun, dset) = sdp_backend::knapsack_direct_recovered(items, capacity);
    assert_eq!(drun, rec_run, "{tag}: direct recovered run");
    assert_eq!(dset, set, "{tag}: direct recovered set");
    variants += 2;

    // Flush-separated batch of three copies under each sink, plus the
    // direct mirror.
    let refs: Vec<&[sdp_core::knapsack_array::KnapsackItem]> = vec![items; 3];
    let batch = knapsack_array_batch(&refs, capacity, &mut NullSink).expect("knapsack batch");
    let mut sink = CountingSink::default();
    let counted = knapsack_array_batch(&refs, capacity, &mut sink).expect("batch counted");
    assert_counted(
        tag,
        "knapsack batch",
        &batch,
        &counted,
        &sink,
        counted.cycles,
    );
    for t in 0..3 {
        assert_eq!(batch.per_capacity[t], want_row, "{tag}: batch row[{t}]");
        assert_eq!(batch.bests[t], want_best, "{tag}: batch best[{t}]");
    }
    let dbatch = sdp_backend::knapsack_direct_batch(&refs, capacity).expect("direct batch");
    assert_eq!(dbatch, batch, "{tag}: direct batch vs array (incl. stats)");
    variants + 3
}

/// Row-level driver for the wide exhaustive knapsack sweep: the direct
/// backend against the reference row and (for every instance — they
/// are all tiny) brute-force subset enumeration.
pub fn check_knapsack_row(
    tag: &str,
    items: &[sdp_core::knapsack_array::KnapsackItem],
    capacity: u64,
) -> usize {
    let plain: Vec<(u64, u64)> = items.iter().map(|it| (it.weight, it.value)).collect();
    let want_row = reference::knapsack_row_ref(&plain, capacity);
    let direct = sdp_backend::knapsack_direct(items, capacity);
    assert_eq!(direct.per_capacity, want_row, "{tag}: direct row vs oracle");
    assert_eq!(
        direct.best,
        reference::knapsack_enumerate_ref(&plain, capacity),
        "{tag}: direct optimum vs subset enumeration"
    );
    2
}

/// Differential driver for the polyadic-nonserial class: matrix-chain
/// DP, brute force, the AND/OR-graph evaluation, and both chain-array
/// mappings (Props 2/3) against the interval-DP oracle.
pub fn check_chain(tag: &str, dims: &[u64]) -> usize {
    let want = reference::chain_dp_ref(dims);
    let n_mats = (dims.len() - 1) as u64;
    let sol = matrix_chain_order(dims);
    let try_sol = try_matrix_chain_order(dims).expect("chain try");
    assert!(
        weq(Some(want as i64), sol.cost),
        "{tag}: chain DP vs oracle"
    );
    assert_eq!(sol.cost, try_sol.cost, "{tag}: try chain diverges");
    let mut variants = 2;
    if dims.len() <= 8 {
        assert!(
            weq(Some(want as i64), chain_brute_force(dims)),
            "{tag}: chain brute force vs oracle"
        );
        assert_eq!(
            reference::chain_enumerate_ref(dims),
            want,
            "{tag}: oracle DP disagrees with parenthesization enumeration"
        );
        variants += 1;
    }

    let andor = build_chain_andor(dims);
    let got = andor.graph.evaluate_node(andor.root);
    assert!(
        weq(reference::andor_eval_ref(&andor.graph, andor.root), got),
        "{tag}: AND/OR evaluation vs oracle AND/OR semantics"
    );
    assert!(
        weq(Some(want as i64), got),
        "{tag}: AND/OR value vs chain oracle"
    );
    variants += 1;

    if n_mats >= 1 {
        let broadcast = simulate_chain_array(dims, ChainMapping::Broadcast);
        let pipelined = simulate_chain_array(dims, ChainMapping::Pipelined);
        assert!(
            weq(Some(want as i64), broadcast.cost),
            "{tag}: chain array cost vs oracle"
        );
        invariants::check_props23(n_mats, &broadcast, &pipelined);
        variants += 2;

        // Direct backend: the flat-table interval DP must reproduce the
        // reference solution — cost *and* split table — bit-for-bit,
        // and its closed-form step count must match the simulated
        // broadcast array's measured finish step.
        let direct = sdp_backend::chain_direct(dims).expect("chain direct");
        assert_eq!(direct, sol, "{tag}: direct interval DP vs chain order");
        assert_eq!(
            sdp_backend::chain_steps(n_mats as usize),
            broadcast.finish,
            "{tag}: chain_steps closed form vs broadcast finish"
        );
        variants += 1;
    }
    variants
}

/// Differential driver for the optimal-BST instance of the chain
/// formulation.
pub fn check_bst(tag: &str, freq: &[u64]) -> usize {
    let want = reference::bst_dp_ref(freq);
    let sol = optimal_bst(freq);
    let try_sol = try_optimal_bst(freq).expect("bst try");
    assert!(weq(Some(want as i64), sol.cost), "{tag}: BST DP vs oracle");
    assert_eq!(sol.cost, try_sol.cost, "{tag}: try BST diverges");
    let direct = sdp_backend::bst_direct(freq).expect("bst direct");
    assert_eq!(direct, sol, "{tag}: direct interval DP vs BST order");
    let mut variants = 3;
    if freq.len() <= 8 {
        assert!(
            weq(Some(want as i64), bst_brute_force(freq)),
            "{tag}: BST brute force vs oracle"
        );
        variants += 1;
    }
    variants
}

/// Differential driver for the D&C scheduler: the greedy simulation
/// (null and counting sinks, plus the `dnc::schedule` re-export) and
/// the closed form against the oracle's independently re-derived round
/// count.
pub fn check_schedule(n: u64, k: u64) -> usize {
    let tag = format!("N={n} K={k}");
    let sys = TreeScheduler
        .simulate(n, k, &mut NullSink)
        .expect("schedule");
    let mut sink = CountingSink::default();
    let counted = TreeScheduler
        .simulate(n, k, &mut sink)
        .expect("schedule counted");
    assert_counted(&tag, "schedule", &sys, &counted, &sink, counted.rounds);
    let core = sdp_core::dnc::schedule(n, k);
    let mut variants = 0;
    for s in [&core, &sys, &counted] {
        invariants::check_thm1(n, k, s);
        variants += 1;
    }
    assert_eq!(
        eq29_time(n, k),
        reference::eq29_ref(n, k),
        "Eq. 29 closed form vs oracle (N={n}, K={k})"
    );
    variants + 1
}

#[cfg(test)]
mod tests {
    use super::*;
    use sdp_multistage::generate;

    #[test]
    fn drivers_accept_known_good_instances() {
        let g = MultistageGraph::fig_1a();
        assert!(check_multistage_graph("fig1a", &g) >= 18);
        assert!(check_chain("clrs", &[30, 35, 15, 5, 10, 20, 25]) >= 6);
        assert!(check_bst("bst", &[4, 2, 6, 3]) >= 4);
        assert!(check_edit("kitten", b"kitten", b"sitting") >= 10);
        let scoring = sdp_core::align::Scoring::simple(2, -1, 1);
        assert!(check_alignment("sw", b"acacacta", b"agcacaca", 3, &scoring) >= 20);
        assert!(check_alignment_scores("sw scores", b"acgt", b"cgta", 2, &scoring) >= 3);
        let eps: Vec<_> = [(1, 1), (3, 4), (4, 5), (5, 7)]
            .iter()
            .map(|&(w, v)| sdp_core::knapsack_array::KnapsackItem::new(w, v))
            .collect();
        assert!(check_knapsack("eps", &eps, 7) >= 9);
        assert!(check_knapsack_row("eps row", &eps, 7) >= 2);
        assert!(check_schedule(16, 2) >= 4);
        let g = generate::random_uniform(42, 4, 3, 0, 9);
        assert!(check_multistage_string("uniform", g.matrix_string()) >= 15);
    }

    #[test]
    #[should_panic(expected = "values[0]")]
    fn value_comparison_rejects_a_corrupted_answer() {
        assert_values("corrupted", &[Cost::from(3)], &[Some(4)]);
    }
}
