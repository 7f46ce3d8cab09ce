//! Machine-checked paper invariants, evaluated on *measured* stats.
//!
//! Each checker takes the instance shape plus an engine result and
//! panics with context when a claim from the paper fails to hold on the
//! measured numbers — so the analytical claims (Eq. 9, the `N·m` and
//! `(N+1)·m` iteration counts, Thm 1 / Eq. 29, Props 2/3) are
//! re-verified on every differential instance, not only on the fixtures
//! in EXPERIMENTS.md.  All expected values come from
//! [`crate::reference`], never from the engine's own formula helpers.

use crate::reference;
use sdp_core::chain_array::ChainArrayResult;
use sdp_core::design1::Design1Result;
use sdp_core::design2::Design2Result;
use sdp_core::design3::{Design3BatchResult, Design3Result};
use sdp_core::edit_array::{BatchEditRun, EditRun};
use sdp_core::matmul_array::MatmulRun;
use sdp_systolic::Schedule;

/// Design 1 timing: `paper_iterations` must be exactly `N·m`, the
/// measured makespan must cover the charged iterations up to the
/// fill/drain allowance of the pipelined schedule, and the measured
/// stats must agree with the result's cycle count.
pub fn check_design1(m: usize, n_mats: usize, res: &Design1Result) {
    let (n, m_u) = (n_mats as u64, m as u64);
    assert_eq!(res.paper_iterations, n * m_u, "Design 1 N·m charge");
    assert_eq!(res.stats.cycles(), res.cycles, "stats/cycle mismatch");
    assert!(
        res.cycles + m_u >= res.paper_iterations,
        "Design 1 makespan {} fell more than m={m} below N·m={}",
        res.cycles,
        res.paper_iterations
    );
    assert!(
        res.cycles <= (n + 1) * m_u + n + 4,
        "Design 1 makespan {} exceeds fill bound (N+1)m + N + 4 = {}",
        res.cycles,
        (n + 1) * m_u + n + 4
    );
    let pu = res.measured_pu(reference::serial_matrix_string_ref(n.max(2), m_u));
    assert!((0.0..=1.0 + 1e-9).contains(&pu), "PU {pu} out of range");
}

/// Eq. 9 on a single-source/sink string: the paper PU computed from the
/// independently derived serial count must match the closed form
/// `(N−2)/N + 1/(N·m)`.
pub fn check_eq9(m: usize, n_mats: usize, res: &Design1Result) {
    let (n, m_u) = (n_mats as u64, m as u64);
    let serial = reference::serial_matrix_string_ref(n, m_u);
    let paper = res.paper_pu(serial, m_u);
    let closed = reference::eq9_pu_ref(n, m_u);
    assert!(
        (paper - closed).abs() < 1e-9,
        "Eq. 9 mismatch: paper_pu={paper} closed-form={closed} (N={n}, m={m})"
    );
}

/// Design 2 timing: the broadcast array is exactly synchronous — the
/// makespan is a whole number of `m`-cycle stage phases, the charge is
/// `N·m`, and every cycle drives the broadcast bus once.
pub fn check_design2(m: usize, n_mats: usize, res: &Design2Result) {
    let (n, m_u) = (n_mats as u64, m as u64);
    assert_eq!(res.paper_iterations, n * m_u, "Design 2 N·m charge");
    assert_eq!(res.stats.cycles(), res.cycles, "stats/cycle mismatch");
    assert_eq!(res.cycles % m_u, 0, "Design 2 makespan not phase-aligned");
    assert!(
        res.cycles <= n * m_u,
        "Design 2 makespan {} exceeds N·m = {}",
        res.cycles,
        n * m_u
    );
    assert_eq!(
        res.broadcast_words, res.cycles,
        "Design 2 must drive the broadcast bus exactly once per cycle"
    );
}

/// Design 3 timing — the paper's headline number: an `N`-stage,
/// width-`m` node-value search completes in exactly `(N+1)·m` cycles
/// with `N·m + 1` input words.
pub fn check_design3(m: usize, n_stages: usize, res: &Design3Result) {
    let (n, m_u) = (n_stages as u64, m as u64);
    assert_eq!(res.cycles, (n + 1) * m_u, "Design 3 (N+1)·m cycles");
    assert_eq!(res.paper_iterations, (n + 1) * m_u);
    assert_eq!(res.stats.cycles(), res.cycles, "stats/cycle mismatch");
    assert_eq!(res.input_words, n * m_u + 1, "Design 3 N·m + 1 input words");
}

/// Design 3 batch timing: `B` instances pipeline in
/// `(B−1)·(N·m + 1) + (N+1)·m` cycles.
pub fn check_design3_batch(m: usize, n_stages: usize, b: usize, res: &Design3BatchResult) {
    let (n, m_u, b_u) = (n_stages as u64, m as u64, b as u64);
    assert_eq!(
        res.cycles,
        (b_u - 1) * (n * m_u + 1) + (n + 1) * m_u,
        "Design 3 batch pipelining formula"
    );
    assert_eq!(res.paper_iterations, b_u * (n + 1) * m_u);
}

/// Mesh matmul timing: a `p×q · q×r` product takes `p + q + r − 2`
/// cycles on the 2-D array.
pub fn check_matmul(p: usize, q: usize, r: usize, run: &MatmulRun<impl sdp_semiring::Semiring>) {
    assert_eq!(
        run.cycles,
        (p + q + r - 2) as u64,
        "matmul t1 = p + q + r − 2"
    );
    assert_eq!(run.stats.cycles(), run.cycles, "stats/cycle mismatch");
}

/// Wavefront edit-distance timing: non-empty operands finish in
/// `|a| + |b| − 1` cycles on an `|a|·|b|`-PE mesh; empty operands
/// short-circuit with no PEs and no cycles.
pub fn check_edit(la: usize, lb: usize, run: &EditRun) {
    if la == 0 || lb == 0 {
        assert_eq!(run.cycles, 0, "empty operand must not spin the mesh");
        assert_eq!(run.stats.num_pes(), 0, "empty operand must build no PEs");
    } else {
        assert_eq!(run.cycles, (la + lb - 1) as u64, "edit mesh p + q − 1");
        assert_eq!(run.stats.num_pes(), la * lb, "mesh must hold |a|·|b| PEs");
    }
    assert_eq!(run.stats.cycles(), run.cycles, "stats/cycle mismatch");
}

/// Batched edit-distance timing: `B` same-shape pairs pipeline in
/// `p + q − 2 + B` cycles.
pub fn check_edit_batch(la: usize, lb: usize, b: usize, run: &BatchEditRun) {
    assert_eq!(
        run.cycles,
        (la + lb - 2 + b) as u64,
        "edit mesh batch p + q − 2 + B"
    );
    assert_eq!(run.stats.cycles(), run.cycles, "stats/cycle mismatch");
}

/// Theorem 1 / Eq. 29: the measured schedule must replay the
/// independently re-derived greedy pairing round count, stay within the
/// paper's two-round agreement band of Eq. 29, execute exactly `N − 1`
/// tasks, and report the Eq. 20 utilization.
pub fn check_thm1(n: u64, k: u64, s: &Schedule) {
    assert_eq!(s.n, n);
    assert_eq!(s.k, k);
    assert_eq!(
        s.rounds,
        reference::dnc_rounds_ref(n, k),
        "schedule rounds diverge from the greedy pairing model (N={n}, K={k})"
    );
    // In the paper's regime (2K ≤ N) the greedy schedule stays within a
    // couple of rounds of Eq. 29; with K oversized the wind-down term
    // `log₂(N+K−1)` overcharges, so only the one-sided bound holds.
    let eq29 = reference::eq29_ref(n, k);
    if 2 * k <= n {
        assert!(
            s.rounds.abs_diff(eq29) <= 2,
            "schedule rounds {} vs Eq. 29 {} out of band (N={n}, K={k})",
            s.rounds,
            eq29
        );
    } else {
        assert!(
            s.rounds <= eq29.max(1),
            "schedule rounds {} exceed Eq. 29 {} (N={n}, K={k})",
            s.rounds,
            eq29
        );
    }
    assert_eq!(s.total_tasks(), n - 1, "an N-leaf tree has N−1 products");
    assert_eq!(
        s.computation_rounds + s.winddown_rounds,
        s.rounds,
        "phases must partition the rounds"
    );
    if s.rounds > 0 {
        let pu = s.processor_utilization();
        let eq20 = (n - 1) as f64 / (k * s.rounds) as f64;
        assert!((pu - eq20).abs() < 1e-12, "Eq. 20 PU mismatch");
    }
}

/// Propositions 2/3: the chain array's measured completion step must
/// equal the closed recurrences `T_d(N) = N` (broadcast) or
/// `T_p(N) = 2N` (pipelined), and the reported busy accounting must fit
/// inside the schedule.
pub fn check_props23(n_leaves: u64, broadcast: &ChainArrayResult, pipelined: &ChainArrayResult) {
    assert_eq!(
        broadcast.finish,
        reference::td_ref(n_leaves),
        "Prop. 2: broadcast finish != T_d({n_leaves})"
    );
    assert_eq!(
        pipelined.finish,
        reference::tp_ref(n_leaves),
        "Prop. 3: pipelined finish != T_p({n_leaves})"
    );
    assert_eq!(
        broadcast.cost, pipelined.cost,
        "the two mappings must compute the same DP value"
    );
}

#[cfg(test)]
mod tests {
    use super::*;
    use sdp_systolic::TreeScheduler;
    use sdp_trace::NullSink;

    #[test]
    fn thm1_holds_on_simulated_schedules() {
        for n in [2u64, 5, 16, 100, 257] {
            for k in [1u64, 2, 7, 64] {
                check_thm1(n, k, &TreeScheduler.simulate(n, k, &mut NullSink).unwrap());
            }
        }
    }

    #[test]
    #[should_panic(expected = "schedule rounds")]
    fn thm1_rejects_wrong_rounds() {
        let mut s = TreeScheduler.simulate(16, 2, &mut NullSink).unwrap();
        s.rounds += 1;
        check_thm1(16, 2, &s);
    }
}
