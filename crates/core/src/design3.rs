//! **Design 3** — the node-value array of Fig. 5.
//!
//! When the serial problem is given by Eq. 4 (edge costs are a function
//! `f` of the endpoint *node values*), only the `N·m` node values — not
//! the `N·m²` edge costs — need enter the array: "an order-of-magnitude
//! reduction in the input overhead".  Each PE `Pᵢ` has
//!
//! * `Rᵢ` — the pipelined input register (node values flow through),
//! * `Kᵢ, Hᵢ` — feedback registers holding the previous stage's vertex
//!   `i` value and its optimal cost-so-far `h(x_{k−1,i})`,
//! * components `F`, `A`, `C` — the edge-cost evaluation, the addition,
//!   and the comparison.
//!
//! Items `(x_{k,j}, h^{partial})` move left-to-right one PE per cycle; as
//! an item passes `Pᵢ` it is improved with
//! `min(h, Hᵢ + f(Kᵢ, x_{k,j}))`.  Completed stage results leave `Pₘ` and
//! are *fed back* — one per cycle, round-robin, on a single token bus
//! (§3.2) — into the `K/H` registers for the next stage.  The whole
//! search of an `N`-stage, `m`-value graph completes in exactly
//! `(N+1)·m` iterations, the paper's headline number, which the
//! simulation reproduces cycle-for-cycle.  Optional path registers in
//! `Pₘ` record each step's argmin for traceback.

use sdp_fault::{FaultInjector, FaultyWord, NoFaults, SdpError};
use sdp_multistage::NodeValueGraph;
use sdp_semiring::Cost;
use sdp_systolic::{LinearArray, ProcessingElement, Stats, TokenBus};
use sdp_trace::TraceSink;

/// A word moving through the R-pipeline.
#[derive(Clone, Copy, Debug)]
struct Item {
    /// Batch instance this word belongs to (0 for single runs).
    inst: u32,
    /// Stage of the word (`n` marks the final comparison token) — with
    /// `inst`, the delivery guard that keeps back-to-back instances from
    /// reading each other's `K/H` registers.
    stage: usize,
    /// The node value `x_{k,j}` (unused by the final comparison token).
    x: i64,
    /// The partial optimal cost `h` carried with the value.
    h: Cost,
    /// Index of the predecessor vertex achieving `h` (path register word).
    arg: Option<usize>,
    /// True for the final comparison token (the paper's `F = 0` mode).
    final_token: bool,
}

/// Faults corrupt the cost payload `h` only — the routing state
/// (`final_token`, path register word) is control logic the 1985 fault
/// model keeps intact, so a faulty PE yields a wrong value, never a
/// wedged pipeline.
impl FaultyWord for Item {
    fn flip_bit(self, bit: u32) -> Item {
        Item {
            h: self.h.flip_bit(bit),
            ..self
        }
    }

    fn stuck_at(self, value: i64) -> Item {
        Item {
            h: self.h.stuck_at(value),
            ..self
        }
    }
}

/// One PE of Design 3 (Fig. 5(b)).
struct Pe3<'a> {
    index: usize,
    /// One graph (and edge-cost function) per batch instance; single
    /// runs pass a slice of one.
    graphs: &'a [&'a NodeValueGraph],
    /// `(inst, stage, Kᵢ, Hᵢ)` once loaded by the feedback controller.
    reg: Option<(u32, usize, i64, Cost)>,
    busy: bool,
    f_evals: u64,
}

impl ProcessingElement for Pe3<'_> {
    type Flow = Item;
    /// Feedback delivery from the token bus: `(inst, stage, x, h)` to
    /// latch into `K/H` (the tags support stage-dependent `fᵢ` and keep
    /// batched instances from crossing).
    type Ext = Option<(u32, usize, i64, Cost)>;
    type Ctrl = ();

    fn step(&mut self, flow_in: Option<Item>, ext: Self::Ext, _: ()) -> Option<Item> {
        // The feedback word latches at the start of the cycle, so an item
        // arriving the same cycle already sees the new K/H (the paper's
        // walkthrough: x_{2,1} enters P1 the cycle x_{1,1}, h(x_{1,1})
        // are fed back to it).
        if let Some((inst, stage, k, h)) = ext {
            self.reg = Some((inst, stage, k, h));
        }
        let Some(mut item) = flow_in else {
            self.busy = false;
            return None;
        };
        self.busy = true;
        if let Some((r_inst, r_stage, k, h_prev)) = self.reg {
            // Delivery guard: the register must hold this item's own
            // instance, one stage behind it.  (Always true for single
            // runs once the register is loaded; in a batch it keeps a
            // trailing instance's stage-0 items from being "improved" by
            // the previous instance's final-stage feedback.)
            if r_inst == item.inst && r_stage + 1 == item.stage {
                let cand = if item.final_token {
                    // F = 0: circulate and compare only.
                    h_prev
                } else {
                    self.f_evals += 1;
                    h_prev + self.graphs[r_inst as usize].f().cost_at(r_stage, k, item.x)
                };
                if cand < item.h {
                    item.h = cand;
                    item.arg = Some(self.index);
                }
            }
        }
        Some(item)
    }

    fn was_busy(&self) -> bool {
        self.busy
    }

    fn probe(&self) -> Option<i64> {
        self.reg.and_then(|(_, _, _, h)| h.finite())
    }
}

/// The result of one Design 3 run.
#[derive(Clone, Debug, PartialEq)]
pub struct Design3Result {
    /// Optimal total cost (over all stage-`N` vertices).
    pub cost: Cost,
    /// `finals[j]` = `h(x_{N,j})`, the optimal cost ending at vertex `j`.
    pub finals: Vec<Cost>,
    /// One optimal path (vertex index per stage), from the path
    /// registers; empty when the optimum is unreachable (`cost = INF`).
    pub path: Vec<usize>,
    /// Measured clock cycles — exactly `(N+1)·m`.
    pub cycles: u64,
    /// The paper's charged iteration count `(N+1)·m`.
    pub paper_iterations: u64,
    /// Node values that entered the array (I/O words) — `N·m` plus the
    /// single comparison token.
    pub input_words: u64,
    /// Edge-cost (`F`-component) evaluations performed inside the array.
    pub f_evaluations: u64,
    /// Engine statistics.
    pub stats: Stats,
}

impl Design3Result {
    /// Measured PU against the serial count `(N−1)m² + m`.
    pub fn measured_pu(&self, serial_iterations: u64) -> f64 {
        self.stats.processor_utilization(serial_iterations)
    }
}

/// The result of a batched Design 3 run: `B` independent instances
/// pipelined back-to-back through one array.
#[derive(Clone, Debug, PartialEq)]
pub struct Design3BatchResult {
    /// `costs[t]` = optimal total cost of instance `t`.
    pub costs: Vec<Cost>,
    /// `finals[t][j]` = instance `t`'s optimal cost ending at vertex `j`.
    pub finals: Vec<Vec<Cost>>,
    /// `paths[t]` = one optimal path of instance `t` (empty when its
    /// optimum is unreachable).
    pub paths: Vec<Vec<usize>>,
    /// Measured clock cycles for the whole batch — exactly
    /// `(B−1)·(N·m + 1) + (N+1)·m`.
    pub cycles: u64,
    /// The paper's charged iteration count summed over the batch:
    /// `B·(N+1)·m`.
    pub paper_iterations: u64,
    /// Words that entered the array: `B·(N·m + 1)`.
    pub input_words: u64,
    /// Edge-cost (`F`-component) evaluations performed inside the array.
    pub f_evaluations: u64,
    /// Engine statistics for the whole batch.
    pub stats: Stats,
}

impl Design3BatchResult {
    /// Measured PU against the summed serial count
    /// `B·((N−1)m² + m)`.
    pub fn measured_pu(&self, serial_iterations: u64) -> f64 {
        self.stats.processor_utilization(serial_iterations)
    }
}

/// The Design 3 array driver: `m` PEs, a feedback token bus, and the
/// input scheduler.
pub struct Design3Array {
    m: usize,
}

impl Design3Array {
    /// An array of `m` PEs (one per quantized value per stage).
    pub fn new(m: usize) -> Design3Array {
        Self::try_new(m).unwrap_or_else(|e| panic!("{e}"))
    }

    /// [`new`](Self::new) that reports `m < 1` as a typed error instead
    /// of panicking.
    pub fn try_new(m: usize) -> Result<Design3Array, SdpError> {
        if m < 1 {
            return Err(SdpError::BadParameter {
                name: "m",
                got: m as u64,
                min: 1,
            });
        }
        Ok(Design3Array { m })
    }

    /// Runs the array on a node-value graph whose stages all hold exactly
    /// `m` values (the paper's uniform assumption); a stage of another
    /// width is a typed error.
    ///
    /// ```
    /// use sdp_core::Design3Array;
    /// use sdp_fault::NoFaults;
    /// use sdp_multistage::generate;
    /// use sdp_trace::NullSink;
    /// let plan = generate::traffic_light(7, 4, 3); // 4 stages, 3 values
    /// let res = Design3Array::new(3).run(&plan, &mut NoFaults, &mut NullSink).unwrap();
    /// // the paper's Fig. 1(b) timing: (N+1)·m = 15 iterations
    /// assert_eq!(res.cycles, 15);
    /// assert!(res.cost.is_finite());
    /// ```
    ///
    /// Array events come from [`LinearArray::cycle_fault`]; the token bus
    /// reports its `BusDrive`/`BusDeliver`/`TokenAdvance` activity
    /// through the same `sink` and folds word/rotation counts into the
    /// array's [`Stats`] (so `stats.bus_words()` in the result covers
    /// the feedback bus).  `injector` exercises both fault surfaces of
    /// Fig. 5: PE output words in the R-pipeline (payload `h` only —
    /// routing state stays intact) and the feedback token bus
    /// (dropped/corrupted words, lost rotations).  Faults degrade
    /// values, never the schedule, so the run always terminates; an
    /// unrecoverable traceback yields an empty path rather than a panic.
    pub fn run<F: FaultInjector, S: TraceSink>(
        &self,
        g: &NodeValueGraph,
        injector: &mut F,
        sink: &mut S,
    ) -> Result<Design3Result, SdpError> {
        let graphs = [g];
        let batch = self.run_batch_core(&graphs, injector, sink)?;
        let n = g.num_stages();
        let Design3BatchResult {
            mut costs,
            mut finals,
            mut paths,
            cycles,
            input_words,
            f_evaluations,
            stats,
            ..
        } = batch;
        Ok(Design3Result {
            cost: costs.pop().expect("one instance"),
            finals: finals.pop().expect("one instance"),
            path: paths.pop().expect("one instance"),
            cycles,
            paper_iterations: ((n + 1) * self.m) as u64,
            input_words,
            f_evaluations,
            stats,
        })
    }

    /// Streams a batch of same-shaped graphs through one array: instance
    /// `t`'s input schedule is offset `t·(N·m + 1)` cycles, so the array
    /// fills with the next instance while the previous one drains.  The
    /// whole batch finishes in `(B−1)·(N·m + 1) + (N+1)·m` cycles instead
    /// of `B·(N+1)·m` — measured PU rises toward the Eq. 9 asymptote.
    /// Instances must all have `N` stages of exactly `m` values; an empty
    /// batch or a stage-count mismatch is a typed error.  A batch of one
    /// emits exactly the event stream of [`run`](Self::run).
    pub fn run_batch<S: TraceSink>(
        &self,
        graphs: &[&NodeValueGraph],
        sink: &mut S,
    ) -> Result<Design3BatchResult, SdpError> {
        self.run_batch_core(graphs, &mut NoFaults, sink)
    }

    /// The shared single/batched driver.
    fn run_batch_core<S: TraceSink, F: FaultInjector>(
        &self,
        graphs: &[&NodeValueGraph],
        injector: &mut F,
        sink: &mut S,
    ) -> Result<Design3BatchResult, SdpError> {
        let m = self.m;
        if graphs.is_empty() {
            return Err(SdpError::EmptyBatch);
        }
        let n = graphs[0].num_stages();
        for (index, g) in graphs.iter().enumerate() {
            for s in 0..g.num_stages() {
                if g.stage_size(s) != m {
                    return Err(SdpError::WrongStageWidth {
                        stage: s,
                        m,
                        got: g.stage_size(s),
                    });
                }
            }
            if g.num_stages() != n {
                return Err(SdpError::BatchShapeMismatch { index });
            }
        }
        let bn = graphs.len();
        let mut array = LinearArray::new(
            (0..m)
                .map(|i| Pe3 {
                    index: i,
                    graphs,
                    reg: None,
                    busy: false,
                    f_evals: 0,
                })
                .collect::<Vec<_>>(),
        );
        // Bus word: (h, (inst, stage, x)) — the cost payload leads so the
        // generic pair impl of `FaultyWord` corrupts it and leaves the
        // instance/stage tags and node value (routing state) intact.
        let mut bus: TokenBus<(Cost, (u32, usize, i64))> = TokenBus::new(m);

        // Input schedule: instance t's words start at cycle t·(N·m + 1);
        // within an instance, stage k vertex j enters the head at offset
        // k·m + j and the comparison token at offset N·m.  Instances are
        // back-to-back: the head never idles until the batch is fed.
        let period = n * m + 1;
        let total_inputs = bn * period;
        let mut injected = 0usize;
        let mut input_words = 0u64;
        let mut finals: Vec<Vec<Cost>> = vec![Vec::with_capacity(m); bn];
        let mut path_regs: Vec<Vec<Vec<usize>>> = vec![vec![vec![usize::MAX; m]; n]; bn];
        let mut tail_seen: Vec<usize> = vec![0; bn]; // stage items per instance
        let mut answers: Vec<Option<Item>> = vec![None; bn];
        let mut answered = 0usize;

        while answered < bn {
            // 1. settle last cycle's feedback onto a PE (ext delivery);
            //    bus accounting folds into the array's own Stats.
            let delivery = bus.settle_fault(array.stats_mut(), injector, sink);
            // 2. head injection per the static schedule.
            let head = if injected < total_inputs {
                let inst = injected / period;
                let offset = injected % period;
                let g = graphs[inst];
                let item = if offset < n * m {
                    let stage = offset / m;
                    let j = offset % m;
                    Item {
                        inst: inst as u32,
                        stage,
                        x: g.stage_values(stage)[j],
                        h: if stage == 0 { Cost::ZERO } else { Cost::INF },
                        arg: None,
                        final_token: false,
                    }
                } else {
                    Item {
                        inst: inst as u32,
                        stage: n,
                        x: 0,
                        h: Cost::INF,
                        arg: None,
                        final_token: true,
                    }
                };
                injected += 1;
                input_words += 1;
                Some(item)
            } else {
                None
            };
            // 3. clock the array.
            let out = array.cycle_fault(
                head,
                |i| {
                    delivery.and_then(|(st, (h, (inst, stage, x)))| {
                        (st == i).then_some((inst, stage, x, h))
                    })
                },
                |_| (),
                injector,
                sink,
            );
            // 4. route the tail: stage results feed back; each instance's
            //    comparison token is its answer.
            if let Some(item) = out {
                let inst = item.inst as usize;
                if item.final_token {
                    answers[inst] = Some(item);
                    answered += 1;
                } else {
                    let stage = item.stage;
                    let j = tail_seen[inst] % m;
                    debug_assert_eq!(tail_seen[inst] / m, stage, "tail out of order");
                    tail_seen[inst] += 1;
                    if stage >= 1 {
                        path_regs[inst][stage][j] = item.arg.unwrap_or(usize::MAX);
                    }
                    if stage == n - 1 {
                        finals[inst].push(item.h);
                    }
                    bus.drive((item.h, (item.inst, stage, item.x)), sink);
                }
            }
        }

        // Traceback through the path registers, per instance.  An
        // unreachable optimum (every transition INF) has no path: report
        // the INF cost with an empty path instead of tripping on an
        // unwritten register.
        let mut costs = Vec::with_capacity(bn);
        let mut paths = Vec::with_capacity(bn);
        for inst in 0..bn {
            let cost = finals[inst].iter().copied().fold(Cost::INF, Cost::min);
            let path = if cost.is_finite() {
                let best = finals[inst]
                    .iter()
                    .enumerate()
                    .min_by_key(|&(_, &c)| c)
                    .map(|(j, _)| j)
                    .unwrap_or(0);
                let mut path = vec![0usize; n];
                path[n - 1] = best;
                let mut complete = true;
                for k in (1..n).rev() {
                    let p = path_regs[inst][k][path[k]];
                    if p == usize::MAX {
                        // Only possible under fault injection: a corrupted
                        // cost left a register unwritten.  Report no path.
                        complete = false;
                        break;
                    }
                    path[k - 1] = p;
                }
                if complete {
                    path
                } else {
                    Vec::new()
                }
            } else {
                Vec::new()
            };
            costs.push(cost);
            paths.push(path);
        }

        let f_evaluations = array.pes().iter().map(|p| p.f_evals).sum();
        Ok(Design3BatchResult {
            costs,
            finals,
            paths,
            cycles: array.stats().cycles(),
            paper_iterations: (bn * (n + 1) * m) as u64,
            input_words,
            f_evaluations,
            stats: array.stats().clone(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sdp_multistage::{generate, solve};
    use sdp_trace::NullSink;

    #[test]
    fn fifteen_iterations_for_fig_1b_shape() {
        // The paper: "For the graph in Figure 1(b), the process is
        // completed in 15 iterations" — N = 4 stages, m = 3.
        let g = generate::traffic_light(1, 4, 3);
        let res = Design3Array::new(3)
            .run(&g, &mut NoFaults, &mut NullSink)
            .unwrap();
        assert_eq!(res.paper_iterations, 15);
        assert_eq!(res.cycles, 15);
    }

    #[test]
    fn cost_matches_sequential_dp() {
        for seed in 0..20 {
            let stages = 2 + (seed as usize % 7);
            let m = 1 + (seed as usize % 5);
            let g = generate::node_value_random(
                seed,
                stages,
                m,
                Box::new(sdp_multistage::node_value::AbsDiff),
                -20,
                20,
            );
            let res = Design3Array::new(m)
                .run(&g, &mut NoFaults, &mut NullSink)
                .unwrap();
            let dp = solve::backward_dp(&g.to_multistage());
            assert_eq!(res.cost, dp.cost, "seed {seed}");
        }
    }

    #[test]
    fn finals_match_per_vertex_dp_values() {
        let g = generate::circuit_voltage(5, 5, 4);
        let res = Design3Array::new(4)
            .run(&g, &mut NoFaults, &mut NullSink)
            .unwrap();
        let dp = solve::backward_dp(&g.to_multistage());
        // dp.value[last][j] = best cost from any source to vertex j.
        for j in 0..4 {
            assert_eq!(res.finals[j], dp.value[4][j], "vertex {j}");
        }
    }

    #[test]
    fn path_achieves_optimal_cost() {
        for seed in 0..15 {
            let g = generate::node_value_random(
                seed,
                5,
                4,
                Box::new(sdp_multistage::node_value::SquaredDiff),
                -10,
                10,
            );
            let res = Design3Array::new(4)
                .run(&g, &mut NoFaults, &mut NullSink)
                .unwrap();
            let ms = g.to_multistage();
            assert_eq!(solve::path_cost(&ms, &res.path), res.cost, "seed {seed}");
        }
    }

    #[test]
    fn cycles_exactly_n_plus_1_m() {
        for (n, m) in [(4usize, 3usize), (8, 5), (2, 2), (10, 1)] {
            let g = generate::node_value_random(
                7,
                n,
                m,
                Box::new(sdp_multistage::node_value::AbsDiff),
                0,
                9,
            );
            let res = Design3Array::new(m)
                .run(&g, &mut NoFaults, &mut NullSink)
                .unwrap();
            assert_eq!(res.cycles, ((n + 1) * m) as u64, "n={n} m={m}");
        }
    }

    #[test]
    fn io_words_are_nm_plus_token() {
        let g = generate::traffic_light(2, 6, 4);
        let res = Design3Array::new(4)
            .run(&g, &mut NoFaults, &mut NullSink)
            .unwrap();
        assert_eq!(res.input_words, 6 * 4 + 1);
    }

    #[test]
    fn f_evaluations_equal_serial_work() {
        // Each of the (N-1)·m² edge relaxations evaluates f exactly once.
        let g = generate::traffic_light(3, 5, 3);
        let res = Design3Array::new(3)
            .run(&g, &mut NoFaults, &mut NullSink)
            .unwrap();
        assert_eq!(res.f_evaluations, 4 * 9);
    }

    #[test]
    fn pu_close_to_one_for_long_graphs() {
        let g = generate::node_value_random(
            11,
            40,
            4,
            Box::new(sdp_multistage::node_value::AbsDiff),
            0,
            50,
        );
        let res = Design3Array::new(4)
            .run(&g, &mut NoFaults, &mut NullSink)
            .unwrap();
        let serial = solve::SerialCounts::node_value(40, 4);
        let pu = res.measured_pu(serial);
        let paper = solve::SerialCounts::design3_pu(40, 4);
        assert!((pu - paper).abs() < 0.05, "pu {pu} vs paper {paper}");
        assert!(pu > 0.9);
    }

    #[test]
    fn all_applications_solve_correctly() {
        let apps: Vec<NodeValueGraph> = vec![
            generate::traffic_light(4, 5, 3),
            generate::circuit_voltage(4, 5, 3),
            generate::fluid_flow(4, 5, 3),
            generate::task_scheduling(4, 5, 3),
        ];
        for (i, g) in apps.iter().enumerate() {
            let res = Design3Array::new(3)
                .run(g, &mut NoFaults, &mut NullSink)
                .unwrap();
            let dp = solve::backward_dp(&g.to_multistage());
            assert_eq!(res.cost, dp.cost, "app {i}");
            assert_eq!(
                solve::path_cost(&g.to_multistage(), &res.path),
                res.cost,
                "app {i} path"
            );
        }
    }

    #[test]
    fn stage_dependent_cost_function() {
        // The general f_i case (paper: "for simplicity, function f is
        // assumed to be independent of i"): per-stage weights change the
        // optimum, and the array still matches sequential DP.
        use sdp_multistage::node_value::{AbsDiff, StageWeighted};
        let weighted = NodeValueGraph::new(
            vec![vec![0, 4, 9], vec![1, 5, 8], vec![2, 6, 7], vec![0, 3, 9]],
            Box::new(StageWeighted {
                inner: AbsDiff,
                weights: vec![1, 10, 1],
            }),
        );
        let res = Design3Array::new(3)
            .run(&weighted, &mut NoFaults, &mut NullSink)
            .unwrap();
        let dp = solve::backward_dp(&weighted.to_multistage());
        assert_eq!(res.cost, dp.cost);
        assert_eq!(
            solve::path_cost(&weighted.to_multistage(), &res.path),
            res.cost
        );
        // and the weights genuinely matter: the unweighted problem
        // differs in cost
        let flat = NodeValueGraph::new(
            vec![vec![0, 4, 9], vec![1, 5, 8], vec![2, 6, 7], vec![0, 3, 9]],
            Box::new(AbsDiff),
        );
        let flat_dp = solve::backward_dp(&flat.to_multistage());
        assert_ne!(res.cost, flat_dp.cost);
    }

    #[test]
    fn unreachable_optimum_reports_inf_with_empty_path() {
        // A cost function that forbids every transition: the array must
        // report INF and an empty path, not panic in traceback.
        struct Never;
        impl sdp_multistage::node_value::EdgeCostFn for Never {
            fn cost(&self, _: i64, _: i64) -> Cost {
                Cost::INF
            }
        }
        let g = NodeValueGraph::new(vec![vec![0, 1], vec![2, 3]], Box::new(Never));
        let res = Design3Array::new(2)
            .run(&g, &mut NoFaults, &mut NullSink)
            .unwrap();
        assert!(res.cost.is_inf());
        assert!(res.path.is_empty());
    }

    #[test]
    fn run_reports_wrong_width() {
        let g = generate::traffic_light(1, 4, 3);
        assert!(matches!(
            Design3Array::new(4).run(&g, &mut NoFaults, &mut NullSink),
            Err(SdpError::WrongStageWidth {
                stage: 0,
                m: 4,
                got: 3
            })
        ));
        assert!(matches!(
            Design3Array::try_new(0),
            Err(SdpError::BadParameter { name: "m", .. })
        ));
    }

    #[test]
    fn injected_faults_degrade_values_without_wedging() {
        use sdp_fault::{Fault, FaultPlan, PlanInjector};
        use sdp_trace::CountingSink;
        let g = generate::circuit_voltage(8, 6, 4);
        let arr = Design3Array::new(4);
        let clean = arr.run(&g, &mut NoFaults, &mut NullSink).unwrap();
        // A stuck PE, a dropped feedback word, and a lost rotation all
        // at once: the schedule must still terminate in the same cycle
        // count, with (likely) degraded values.
        let plan = FaultPlan::new()
            .with(Fault::StuckAt {
                pe: 1,
                cycle: 0,
                value: 0,
            })
            .with(Fault::DropBusWord { word: 3 })
            .with(Fault::LoseTokenRotation { rotation: 7 });
        let mut inj = PlanInjector::new(plan);
        let mut sink = CountingSink::default();
        let faulty = arr.run(&g, &mut inj, &mut sink).unwrap();
        assert_eq!(faulty.cycles, clean.cycles, "faults never stall the clock");
        assert!(sink.faults_injected >= 3);
        assert_ne!(faulty.finals, clean.finals);
    }

    #[test]
    fn bus_accounting_lands_in_array_stats() {
        // Every stage result is fed back on the token bus exactly once:
        // N·m words, N·m rotations — visible in the result's Stats.
        let g = generate::traffic_light(2, 6, 4);
        let res = Design3Array::new(4)
            .run(&g, &mut NoFaults, &mut NullSink)
            .unwrap();
        assert_eq!(res.stats.bus_words(), 6 * 4);
        assert_eq!(res.stats.token_rotations(), 6 * 4);
    }

    #[test]
    fn traced_run_matches_untraced() {
        use sdp_trace::CountingSink;
        let g = generate::circuit_voltage(9, 5, 3);
        let plain = Design3Array::new(3)
            .run(&g, &mut NoFaults, &mut NullSink)
            .unwrap();
        let mut sink = CountingSink::default();
        let traced = Design3Array::new(3)
            .run(&g, &mut NoFaults, &mut sink)
            .unwrap();
        assert_eq!(traced.cost, plain.cost);
        assert_eq!(traced.path, plain.path);
        assert_eq!(traced.cycles, plain.cycles);
        assert_eq!(traced.stats.bus_words(), plain.stats.bus_words());
        assert_eq!(sink.cycles, plain.cycles);
        assert_eq!(sink.bus_drives, plain.stats.bus_words());
        assert_eq!(sink.bus_delivers, plain.stats.bus_words());
        assert_eq!(sink.token_advances, plain.stats.token_rotations());
        assert_eq!(sink.words_in, plain.input_words);
    }

    #[test]
    fn batch_matches_sequential_runs() {
        let (n, m, b) = (5usize, 4usize, 6usize);
        let graphs: Vec<NodeValueGraph> = (0..b as u64)
            .map(|seed| {
                generate::node_value_random(
                    seed,
                    n,
                    m,
                    Box::new(sdp_multistage::node_value::AbsDiff),
                    -15,
                    15,
                )
            })
            .collect();
        let refs: Vec<&NodeValueGraph> = graphs.iter().collect();
        let array = Design3Array::new(m);
        let batch = array.run_batch(&refs, &mut NullSink).unwrap();
        for (t, g) in graphs.iter().enumerate() {
            let single = array.run(g, &mut NoFaults, &mut NullSink).unwrap();
            assert_eq!(batch.costs[t], single.cost, "instance {t}");
            assert_eq!(batch.finals[t], single.finals, "instance {t}");
            assert_eq!(batch.paths[t], single.path, "instance {t}");
        }
        // Pipelined makespan: (B−1)·(N·m+1) fill periods plus one full run.
        let expected = ((b - 1) * (n * m + 1) + (n + 1) * m) as u64;
        assert_eq!(batch.cycles, expected);
        assert_eq!(batch.input_words, (b * (n * m + 1)) as u64);
    }

    #[test]
    fn batch_pu_exceeds_single_pu() {
        let (n, m, b) = (6usize, 4usize, 16usize);
        let graphs: Vec<NodeValueGraph> = (0..b as u64)
            .map(|seed| {
                generate::node_value_random(
                    seed + 100,
                    n,
                    m,
                    Box::new(sdp_multistage::node_value::SquaredDiff),
                    -9,
                    9,
                )
            })
            .collect();
        let refs: Vec<&NodeValueGraph> = graphs.iter().collect();
        let array = Design3Array::new(m);
        let serial = solve::SerialCounts::node_value(n as u64, m as u64);
        let single_pu = array
            .run(&graphs[0], &mut NoFaults, &mut NullSink)
            .unwrap()
            .measured_pu(serial);
        let batch = array.run_batch(&refs, &mut NullSink).unwrap();
        let batch_pu = batch.measured_pu(serial * b as u64);
        assert!(
            batch_pu > single_pu,
            "batch {batch_pu} should beat single {single_pu}"
        );
    }

    #[test]
    fn batch_of_one_emits_single_run_event_stream() {
        use sdp_trace::RecordingSink;
        let g = generate::circuit_voltage(13, 6, 3);
        let array = Design3Array::new(3);
        let mut single_sink = RecordingSink::default();
        let single = array.run(&g, &mut NoFaults, &mut single_sink).unwrap();
        let mut batch_sink = RecordingSink::default();
        let batch = array.run_batch(&[&g], &mut batch_sink).unwrap();
        assert_eq!(batch.costs, vec![single.cost]);
        assert_eq!(batch.cycles, single.cycles);
        assert_eq!(batch_sink.events, single_sink.events);
    }

    #[test]
    fn batch_shape_errors_are_typed() {
        use sdp_fault::SdpError;
        let array = Design3Array::new(3);
        assert!(matches!(
            array.run_batch(&[], &mut NullSink),
            Err(SdpError::EmptyBatch)
        ));
        let a = generate::traffic_light(1, 4, 3);
        let b = generate::traffic_light(1, 5, 3);
        assert!(matches!(
            array.run_batch(&[&a, &b], &mut NullSink),
            Err(SdpError::BatchShapeMismatch { index: 1 })
        ));
        let c = generate::traffic_light(1, 4, 2);
        assert!(matches!(
            array.run_batch(&[&a, &c], &mut NullSink),
            Err(SdpError::WrongStageWidth { .. })
        ));
    }
}
