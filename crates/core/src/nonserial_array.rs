//! Systolic evaluation of monadic-nonserial problems via grouping
//! (§6.1's closing remark: "With additional control, the linear systolic
//! array presented earlier can be applied to evaluate monadic-nonserial
//! DP problems").
//!
//! The pipeline is: group variables (`V'ᵢ = (Vᵢ, Vᵢ₊₁)`, Eq. 41) → the
//! problem becomes a serial multistage graph over compound states → run
//! Design 1 on its matrix string.  The paper's §6.1 observation is
//! quantified by [`GroupedRun`]: the grouped form does *more total
//! operations* than direct variable elimination (state space `m²` instead
//! of `m`), but exposes systolic parallelism — the array finishes in
//! `N·m²` iterations on `m²` PEs instead of `Σ mₖmₖ₊₁mₖ₊₂` sequential
//! steps on one processor.

use crate::design1::Design1Array;
use sdp_andor::nonserial::TernaryChain;
use sdp_fault::NoFaults;
use sdp_semiring::Cost;
use sdp_trace::NullSink;

/// Outcome of running a ternary chain through the grouping + Design 1
/// pipeline, with the §6.1 cost/parallelism comparison attached.
#[derive(Clone, Debug)]
pub struct GroupedRun {
    /// Optimal objective value.
    pub cost: Cost,
    /// Compound-state width of the grouped serial graph (`mᵢ·mᵢ₊₁`;
    /// uniform chains give `m²`).
    pub grouped_m: usize,
    /// Number of compound stages (`N − 1`).
    pub grouped_stages: usize,
    /// Array cycles measured by the Design 1 simulation.
    pub array_cycles: u64,
    /// The paper's charged iterations for the array (`N'·m'`).
    pub array_paper_iterations: u64,
    /// Sequential steps of direct variable elimination (Eq. 40).
    pub elimination_steps: u64,
}

impl GroupedRun {
    /// Serial-work blowup of the grouped form relative to elimination:
    /// grouped serial work `(N'−1)·m'²` over Eq. 40 steps.
    pub fn work_blowup(&self) -> f64 {
        let grouped_work = ((self.grouped_stages - 1) * self.grouped_m * self.grouped_m) as f64;
        grouped_work / self.elimination_steps as f64
    }

    /// Parallel-time speedup the array buys over sequential elimination
    /// (elimination steps / array cycles).
    pub fn speedup(&self) -> f64 {
        self.elimination_steps as f64 / self.array_cycles as f64
    }
}

/// Runs `chain` through grouping and the Design 1 array; the result is
/// checked against direct elimination internally (panics on mismatch —
/// the two routes must agree by construction).
pub fn run_grouped(chain: &TernaryChain) -> GroupedRun {
    let serial = chain.group_to_serial();
    assert!(
        serial.is_uniform(),
        "grouping nonuniform domains needs per-stage arrays"
    );
    let m = serial.stage_size(0);
    let d1 = Design1Array::new(m)
        .run(serial.matrix_string(), &mut NoFaults, &mut NullSink)
        .expect("a uniform serial graph is a valid Design 1 string");
    let cost = d1.optimum();
    let (elim_cost, elimination_steps) = chain.eliminate();
    assert_eq!(cost, elim_cost, "grouped array diverged from elimination");
    GroupedRun {
        cost,
        grouped_m: m,
        grouped_stages: serial.num_stages(),
        array_cycles: d1.cycles,
        array_paper_iterations: d1.paper_iterations,
        elimination_steps,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn uniform_chain(n: usize, m: usize) -> TernaryChain {
        let domains: Vec<Vec<i64>> = (0..n)
            .map(|s| (0..m).map(|j| (s * m + j) as i64 % 7).collect())
            .collect();
        TernaryChain::uniform(domains, |a, b, c| {
            Cost::from((a - b).abs() + (b - c).abs() + (a - c).abs())
        })
    }

    #[test]
    fn grouped_cost_matches_brute_force() {
        let chain = uniform_chain(5, 3);
        let run = run_grouped(&chain);
        let (bf, _) = chain.brute_force();
        assert_eq!(run.cost, bf);
    }

    #[test]
    fn grouped_width_is_m_squared() {
        let chain = uniform_chain(5, 3);
        let run = run_grouped(&chain);
        assert_eq!(run.grouped_m, 9);
        assert_eq!(run.grouped_stages, 4);
    }

    #[test]
    fn work_blowup_but_time_speedup() {
        // §6.1: "more operations are needed ... but the potential
        // parallelism is higher."
        let chain = uniform_chain(8, 4);
        let run = run_grouped(&chain);
        assert!(run.work_blowup() > 1.0, "blowup {}", run.work_blowup());
        assert!(run.speedup() > 1.0, "speedup {}", run.speedup());
    }

    #[test]
    fn elimination_steps_match_eq40() {
        let chain = uniform_chain(6, 3);
        let run = run_grouped(&chain);
        assert_eq!(run.elimination_steps, chain.eq40_steps());
    }
}
