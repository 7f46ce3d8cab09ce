//! Discrete-time scheduling of divide-and-conquer AND-trees onto `K`
//! synchronous systolic arrays (§4 of the paper).
//!
//! A string of `N` matrices is multiplied as a complete binary AND-tree
//! with `N` leaves and `N − 1` internal multiply tasks.  Each of `K`
//! identical systolic arrays performs one multiply in `T₁` time units.
//! The paper analyses this model three ways, all reproduced here:
//!
//! * [`eq29_time`] — the paper's exact total-time formula (Eq. 29), the
//!   function numerically evaluated to produce **Figure 6**;
//! * [`TreeScheduler::simulate`] — a synchronous-round greedy simulation of
//!   the same model (operands pair up, at most `K` products per round),
//!   used to cross-check the formula and to measure PU for
//!   **Proposition 1**;
//! * [`DagScheduler`] — a list scheduler for arbitrary dependency DAGs with
//!   per-task durations, used when matrices have unequal dimensions and the
//!   multiply tree becomes a dataflow graph (end of §4).

use sdp_fault::SdpError;
use sdp_trace::chrome::ChromeTrace;
use sdp_trace::json::Json;
use sdp_trace::{Event, TraceSink};

/// The outcome of scheduling one divide-and-conquer reduction.
#[derive(Clone, Debug, PartialEq)]
pub struct Schedule {
    /// Number of leaves (matrices) `N`.
    pub n: u64,
    /// Number of arrays (processors) `K`.
    pub k: u64,
    /// Total rounds (in units of `T₁`).
    pub rounds: u64,
    /// Rounds in the computation phase (all `K` arrays busy).
    pub computation_rounds: u64,
    /// Rounds in the wind-down phase (fewer than `K` tasks available).
    pub winddown_rounds: u64,
    /// Tasks executed per round, in order.
    pub tasks_per_round: Vec<u64>,
}

impl Schedule {
    /// Total multiply tasks executed (always `N − 1`).
    pub fn total_tasks(&self) -> u64 {
        self.tasks_per_round.iter().sum()
    }

    /// Processor utilization `PU(k, N) = (N−1) / (k · rounds)` (Eq. 20).
    pub fn processor_utilization(&self) -> f64 {
        if self.rounds == 0 || self.k == 0 {
            return if self.n <= 1 { 1.0 } else { 0.0 };
        }
        (self.n - 1) as f64 / (self.k * self.rounds) as f64
    }

    /// The `K·T²` figure of merit swept in Figure 6 (with `T₁ = 1`).
    pub fn kt2(&self) -> u64 {
        self.k * self.rounds * self.rounds
    }

    /// Renders the schedule as a Chrome trace: one duration event per
    /// multiply task, with rounds as the microsecond clock and arrays as
    /// thread lanes.  Wind-down rounds are tagged in the event args so
    /// Perfetto can distinguish the two phases of Eq. 29.
    pub fn to_chrome_trace(&self) -> ChromeTrace {
        let mut trace = ChromeTrace::new();
        for (round, &tasks) in self.tasks_per_round.iter().enumerate() {
            let winddown = tasks < self.k;
            for slot in 0..tasks {
                trace.complete_with_args(
                    "multiply",
                    if winddown { "winddown" } else { "computation" },
                    round as u64,
                    1,
                    0,
                    slot as u32,
                    vec![
                        ("round".to_string(), Json::from(round)),
                        ("winddown".to_string(), Json::from(winddown)),
                    ],
                );
            }
        }
        trace
    }
}

/// Scheduler for the regular (equal-dimension) matrix string.
#[derive(Clone, Copy, Debug, Default)]
pub struct TreeScheduler;

impl TreeScheduler {
    /// Greedy synchronous-round simulation: `R` operands are live
    /// (initially the `N` leaves); each round at most `min(K, ⌊R/2⌋)`
    /// disjoint pairs are multiplied, each consuming two operands and
    /// producing one.  Runs until a single result remains.
    ///
    /// Each round emits a `CycleStart` to `sink`, and every multiply
    /// task emits a matching `TaskStart`/`TaskEnd` pair on its array
    /// (tasks are numbered in execution order).  `n < 1` or `k < 1` is
    /// a typed error.
    pub fn simulate<S: TraceSink>(
        &self,
        n: u64,
        k: u64,
        sink: &mut S,
    ) -> Result<Schedule, SdpError> {
        if n < 1 {
            return Err(SdpError::NoMatrices);
        }
        if k < 1 {
            return Err(SdpError::NoArrays);
        }
        let mut live = n;
        let mut tasks_per_round = Vec::new();
        let mut computation_rounds = 0;
        let mut winddown_rounds = 0;
        let mut task_id = 0u32;
        while live > 1 {
            let tasks = (live / 2).min(k);
            if S::ENABLED {
                sink.record(Event::CycleStart {
                    cycle: tasks_per_round.len() as u64,
                });
                for slot in 0..tasks {
                    sink.record(Event::TaskStart {
                        task: task_id + slot as u32,
                        array: slot as u32,
                    });
                    sink.record(Event::TaskEnd {
                        task: task_id + slot as u32,
                        array: slot as u32,
                    });
                }
            }
            live -= tasks;
            tasks_per_round.push(tasks);
            if tasks == k {
                computation_rounds += 1;
            } else {
                winddown_rounds += 1;
            }
            task_id += tasks as u32;
        }
        Ok(Schedule {
            n,
            k,
            rounds: tasks_per_round.len() as u64,
            computation_rounds,
            winddown_rounds,
            tasks_per_round,
        })
    }
}

/// The paper's exact time formula (Eq. 29), in units of `T₁`:
///
/// `T = ⌊(N−1)/K⌋ + ⌊log₂(N + K − 1 − K·⌊(N−1)/K⌋)⌋`
///
/// The first term is the computation phase; the second is the wind-down
/// phase, shortened by one whenever `K` divides `N` exactly — the source of
/// the jagged KT² curve in Figure 6.
///
/// ```
/// use sdp_systolic::scheduler::eq29_time;
/// assert_eq!(eq29_time(4096, 431), 18);
/// assert_eq!(eq29_time(4096, 465), 17);
/// ```
pub fn eq29_time(n: u64, k: u64) -> u64 {
    try_eq29_time(n, k).unwrap_or_else(|e| panic!("{e}"))
}

/// [`eq29_time`] with typed parameter validation.
pub fn try_eq29_time(n: u64, k: u64) -> Result<u64, SdpError> {
    if n < 1 {
        return Err(SdpError::NoMatrices);
    }
    if k < 1 {
        return Err(SdpError::NoArrays);
    }
    if n == 1 {
        return Ok(0);
    }
    let tc = (n - 1) / k;
    let rem = n + k - 1 - k * tc;
    Ok(tc + rem.ilog2() as u64)
}

/// `K · T²` from the exact formula (Figure 6's y-axis, `T₁ = 1`).
pub fn eq29_kt2(n: u64, k: u64) -> u64 {
    let t = eq29_time(n, k);
    k * t * t
}

/// A task in a dependency DAG: duration plus indices of prerequisite tasks.
#[derive(Clone, Debug)]
pub struct DagTask {
    /// Execution time in abstract units.
    pub duration: u64,
    /// Indices (into the task list) this task depends on.
    pub deps: Vec<usize>,
}

/// Result of list-scheduling a DAG.
#[derive(Clone, Debug, PartialEq)]
pub struct DagSchedule {
    /// Completion time of the whole DAG.
    pub makespan: u64,
    /// Start time chosen for each task.
    pub start: Vec<u64>,
    /// Worker each task ran on.
    pub worker: Vec<usize>,
}

impl DagSchedule {
    /// Renders the schedule as a Chrome trace: one duration event per
    /// task (named `task<i>`), workers as thread lanes, abstract
    /// schedule time as the microsecond clock.  `tasks` must be the
    /// list the schedule was computed from (durations come from it).
    pub fn to_chrome_trace(&self, tasks: &[DagTask]) -> ChromeTrace {
        assert_eq!(tasks.len(), self.start.len(), "task list mismatch");
        let mut trace = ChromeTrace::new();
        for (i, task) in tasks.iter().enumerate() {
            trace.complete_with_args(
                &format!("task{i}"),
                "dag",
                self.start[i],
                task.duration.max(1),
                0,
                self.worker[i] as u32,
                vec![("deps".to_string(), Json::from(task.deps.clone()))],
            );
        }
        trace
    }
}

/// Critical-path list scheduler over `K` identical workers.
///
/// Priorities are longest-path-to-exit (standard HLF/CP heuristic) with
/// *static* assignment: each task commits to the earliest-free worker at
/// selection time, so a worker may idle until its task's data is ready
/// even if another worker frees up first — a simple heuristic, not an
/// optimal or fully work-conserving schedule.  Used to execute the
/// optimally parenthesized matrix-chain tree as a dataflow graph
/// (§4 end).
#[derive(Clone, Copy, Debug, Default)]
pub struct DagScheduler;

impl DagScheduler {
    /// Schedules `tasks` onto `k` workers; returns the full schedule.
    pub fn schedule(&self, tasks: &[DagTask], k: usize) -> DagSchedule {
        self.try_schedule(tasks, k)
            .unwrap_or_else(|e| panic!("{e}"))
    }

    /// [`schedule`](Self::schedule) that reports a cyclic graph, a bad
    /// dependency index, or zero workers as a typed error instead of
    /// panicking.
    pub fn try_schedule(&self, tasks: &[DagTask], k: usize) -> Result<DagSchedule, SdpError> {
        if k < 1 {
            return Err(SdpError::BadParameter {
                name: "workers",
                got: k as u64,
                min: 1,
            });
        }
        let n = tasks.len();
        if n == 0 {
            return Ok(DagSchedule {
                makespan: 0,
                start: vec![],
                worker: vec![],
            });
        }
        // successors and indegrees
        let mut succs: Vec<Vec<usize>> = vec![Vec::new(); n];
        let mut indeg = vec![0usize; n];
        for (i, t) in tasks.iter().enumerate() {
            indeg[i] = t.deps.len();
            for &d in &t.deps {
                if d >= n {
                    return Err(SdpError::DepOutOfRange {
                        task: i,
                        dep: d,
                        len: n,
                    });
                }
                succs[d].push(i);
            }
        }
        // bottom level (critical path length to exit) via reverse topo order
        let level = Self::bottom_levels(tasks, &succs).ok_or(SdpError::CyclicDag)?;

        let mut ready: Vec<usize> = (0..n).filter(|&i| indeg[i] == 0).collect();
        let mut ready_at = vec![0u64; n]; // earliest data-ready time
        let mut start = vec![0u64; n];
        let mut worker = vec![0usize; n];
        let mut worker_free = vec![0u64; k];
        let mut finish = vec![0u64; n];
        let mut scheduled = 0usize;

        while scheduled < n {
            if ready.is_empty() {
                return Err(SdpError::CyclicDag);
            }
            // Pick the ready task with the greatest bottom level
            // (ties: smaller index), on the earliest-free worker.
            ready.sort_by(|&a, &b| level[b].cmp(&level[a]).then(a.cmp(&b)));
            let t = ready.remove(0);
            // `worker_free` has `k ≥ 1` entries (checked on entry), so
            // the fold always yields a worker; unlike the old
            // `(0..k).min_by_key(..).unwrap()`, a `k = 0` call can no
            // longer reach a panic — it was already rejected above as a
            // typed `BadParameter` error.
            let w = worker_free
                .iter()
                .enumerate()
                .min_by_key(|&(_, &free)| free)
                .map(|(w, _)| w)
                .ok_or(SdpError::BadParameter {
                    name: "workers",
                    got: 0,
                    min: 1,
                })?;
            let s = worker_free[w].max(ready_at[t]);
            start[t] = s;
            worker[t] = w;
            finish[t] = s + tasks[t].duration;
            worker_free[w] = finish[t];
            scheduled += 1;
            for &sc in &succs[t] {
                indeg[sc] -= 1;
                ready_at[sc] = ready_at[sc].max(finish[t]);
                if indeg[sc] == 0 {
                    ready.push(sc);
                }
            }
        }
        Ok(DagSchedule {
            makespan: finish.iter().copied().max().unwrap_or(0),
            start,
            worker,
        })
    }

    /// `None` when the graph is cyclic.
    fn bottom_levels(tasks: &[DagTask], succs: &[Vec<usize>]) -> Option<Vec<u64>> {
        let n = tasks.len();
        // reverse topological order via Kahn on successors
        let mut outdeg: Vec<usize> = succs.iter().map(|s| s.len()).collect();
        let mut stack: Vec<usize> = (0..n).filter(|&i| outdeg[i] == 0).collect();
        let mut level = vec![0u64; n];
        let mut order = Vec::with_capacity(n);
        while let Some(i) = stack.pop() {
            order.push(i);
            level[i] = tasks[i].duration + succs[i].iter().map(|&s| level[s]).max().unwrap_or(0);
            for &d in &tasks[i].deps {
                outdeg[d] -= 1;
                if outdeg[d] == 0 {
                    stack.push(d);
                }
            }
        }
        (order.len() == n).then_some(level)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sdp_trace::NullSink;

    fn sim(n: u64, k: u64) -> Schedule {
        TreeScheduler.simulate(n, k, &mut NullSink).unwrap()
    }

    #[test]
    fn single_matrix_needs_no_work() {
        let s = sim(1, 4);
        assert_eq!(s.rounds, 0);
        assert_eq!(s.total_tasks(), 0);
        assert_eq!(s.processor_utilization(), 1.0);
    }

    #[test]
    fn two_matrices_one_round() {
        let s = sim(2, 4);
        assert_eq!(s.rounds, 1);
        assert_eq!(s.total_tasks(), 1);
    }

    #[test]
    fn total_tasks_is_n_minus_1() {
        for n in [2u64, 3, 7, 16, 100, 255] {
            for k in [1u64, 2, 5, 64] {
                let s = sim(n, k);
                assert_eq!(s.total_tasks(), n - 1, "n={n} k={k}");
            }
        }
    }

    #[test]
    fn one_array_is_fully_serial() {
        let s = sim(10, 1);
        assert_eq!(s.rounds, 9);
        assert!((s.processor_utilization() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn unlimited_arrays_take_log_rounds() {
        let s = sim(1024, 1 << 30);
        assert_eq!(s.rounds, 10);
    }

    #[test]
    fn phases_partition_rounds() {
        let s = sim(64, 5);
        assert_eq!(s.computation_rounds + s.winddown_rounds, s.rounds);
        assert!(s.winddown_rounds >= 1);
    }

    #[test]
    fn eq29_matches_known_values() {
        // N=4096, K=431: Tc = 4095/431 = 9, rem = 4096+430-3879 = 647,
        // floor(log2 647) = 9, T = 18.
        assert_eq!(eq29_time(4096, 431), 18);
        // K=465: Tc = 8, rem = 4096+464-3720 = 840, log2 = 9, T = 17.
        assert_eq!(eq29_time(4096, 465), 17);
    }

    #[test]
    fn eq29_edges() {
        assert_eq!(eq29_time(1, 7), 0);
        assert_eq!(eq29_time(2, 1), 1);
        // K >= N: Tc = (8-1)/8 = 0, rem = 8+8-1 = 15, floor(log2 15) = 3.
        assert_eq!(eq29_time(8, 8), 3);
    }

    #[test]
    fn eq29_kt2_consistency() {
        assert_eq!(eq29_kt2(4096, 431), 431 * 18 * 18);
    }

    #[test]
    fn simulation_close_to_eq29() {
        // The greedy synchronous simulation and Eq. 29 agree within a
        // couple of rounds across a wide sweep.
        for n in [256u64, 1024, 4096] {
            for k in [3u64, 17, 100, 431, 1000] {
                let sim = sim(n, k).rounds;
                let formula = eq29_time(n, k);
                let diff = sim.abs_diff(formula);
                assert!(diff <= 2, "n={n} k={k} sim={sim} eq29={formula}");
            }
        }
    }

    #[test]
    fn dag_serial_chain() {
        let tasks = vec![
            DagTask {
                duration: 2,
                deps: vec![],
            },
            DagTask {
                duration: 3,
                deps: vec![0],
            },
            DagTask {
                duration: 1,
                deps: vec![1],
            },
        ];
        let s = DagScheduler.schedule(&tasks, 4);
        assert_eq!(s.makespan, 6);
    }

    #[test]
    fn dag_parallel_independent() {
        let tasks = vec![
            DagTask {
                duration: 5,
                deps: vec![],
            },
            DagTask {
                duration: 5,
                deps: vec![],
            },
        ];
        assert_eq!(DagScheduler.schedule(&tasks, 2).makespan, 5);
        assert_eq!(DagScheduler.schedule(&tasks, 1).makespan, 10);
    }

    #[test]
    fn dag_binary_tree_matches_tree_scheduler() {
        // A complete binary combining tree of 8 leaves -> 7 unit tasks.
        // With unlimited workers the makespan is the tree height (3).
        let mut tasks = Vec::new();
        // level of 4 combines over conceptual leaf pairs (no deps)
        for _ in 0..4 {
            tasks.push(DagTask {
                duration: 1,
                deps: vec![],
            });
        }
        tasks.push(DagTask {
            duration: 1,
            deps: vec![0, 1],
        });
        tasks.push(DagTask {
            duration: 1,
            deps: vec![2, 3],
        });
        tasks.push(DagTask {
            duration: 1,
            deps: vec![4, 5],
        });
        let s = DagScheduler.schedule(&tasks, 8);
        assert_eq!(s.makespan, 3);
        let sim = sim(8, 8);
        assert_eq!(sim.rounds, 3);
    }

    #[test]
    fn dag_empty() {
        let s = DagScheduler.schedule(&[], 3);
        assert_eq!(s.makespan, 0);
    }

    #[test]
    fn dag_critical_path_priority_helps() {
        // One long chain plus fillers; CP priority starts the chain first.
        let tasks = vec![
            DagTask {
                duration: 1,
                deps: vec![],
            }, // chain head
            DagTask {
                duration: 10,
                deps: vec![0],
            },
            DagTask {
                duration: 1,
                deps: vec![],
            }, // filler
            DagTask {
                duration: 1,
                deps: vec![],
            }, // filler
        ];
        let s = DagScheduler.schedule(&tasks, 1);
        // chain head must be scheduled first (highest bottom level)
        assert_eq!(s.start[0], 0);
    }

    #[test]
    fn pu_decreases_with_more_arrays() {
        let few = sim(1024, 8).processor_utilization();
        let many = sim(1024, 512).processor_utilization();
        assert!(few > many);
    }

    #[test]
    fn traced_simulation_matches_untraced() {
        use sdp_trace::CountingSink;
        let mut sink = CountingSink::default();
        let traced = TreeScheduler.simulate(64, 5, &mut sink).unwrap();
        let untraced = sim(64, 5);
        assert_eq!(traced, untraced);
        assert_eq!(sink.cycles, traced.rounds);
        assert_eq!(sink.task_starts, traced.total_tasks());
        assert_eq!(sink.task_ends, traced.total_tasks());
    }

    #[test]
    fn schedule_chrome_trace_has_one_span_per_task() {
        let s = sim(16, 3);
        let trace = s.to_chrome_trace();
        assert_eq!(trace.spans.len() as u64, s.total_tasks());
        // Final round is wind-down (one task left).
        let last = trace.spans.last().unwrap();
        assert_eq!(last.cat, "winddown");
        assert_eq!(last.ts, s.rounds - 1);
        let doc = trace.render();
        assert!(doc.starts_with("{\"traceEvents\":["));
    }

    #[test]
    fn dag_chrome_trace_follows_schedule() {
        let tasks = vec![
            DagTask {
                duration: 2,
                deps: vec![],
            },
            DagTask {
                duration: 3,
                deps: vec![0],
            },
        ];
        let s = DagScheduler.schedule(&tasks, 2);
        let trace = s.to_chrome_trace(&tasks);
        assert_eq!(trace.spans.len(), 2);
        assert_eq!(trace.spans[1].ts, s.start[1]);
        assert_eq!(trace.spans[1].dur, 3);
        assert_eq!(trace.spans[1].tid, s.worker[1] as u32);
    }

    #[test]
    fn dag_zero_workers_is_a_typed_error_not_a_panic() {
        let tasks = vec![
            DagTask {
                duration: 2,
                deps: vec![],
            },
            DagTask {
                duration: 3,
                deps: vec![0],
            },
        ];
        // Regression: this used to reach `(0..0).min_by_key(..).unwrap()`
        // when the guard was bypassed; the typed path must reject k = 0
        // before any scheduling work happens.
        assert_eq!(
            DagScheduler.try_schedule(&tasks, 0),
            Err(SdpError::BadParameter {
                name: "workers",
                got: 0,
                min: 1,
            })
        );
        // An empty task list with zero workers is rejected the same way
        // (parameter validation precedes the empty-DAG fast path).
        assert!(DagScheduler.try_schedule(&[], 0).is_err());
    }

    #[test]
    fn tree_zero_arrays_is_a_typed_error_not_a_panic() {
        assert_eq!(
            TreeScheduler.simulate(8, 0, &mut NullSink),
            Err(SdpError::NoArrays)
        );
        assert_eq!(
            TreeScheduler.simulate(0, 4, &mut NullSink),
            Err(SdpError::NoMatrices)
        );
        assert_eq!(try_eq29_time(8, 0), Err(SdpError::NoArrays));
    }

    #[test]
    fn zero_task_schedule_renders_an_empty_chrome_trace() {
        // n = 1 means zero multiply tasks: the trace must be empty and
        // still renderable — callers must not assume `spans.last()` is
        // Some (the companion test above only unwraps it for n > 1).
        let s = sim(1, 3);
        assert_eq!(s.total_tasks(), 0);
        let trace = s.to_chrome_trace();
        assert!(trace.spans.is_empty());
        assert!(trace.spans.last().is_none());
        assert!(trace.render().starts_with("{\"traceEvents\":["));
    }

    #[test]
    #[should_panic(expected = "cyclic")]
    fn dag_cycle_detected() {
        let tasks = vec![
            DagTask {
                duration: 1,
                deps: vec![1],
            },
            DagTask {
                duration: 1,
                deps: vec![0],
            },
        ];
        let _ = DagScheduler.schedule(&tasks, 1);
    }
}
