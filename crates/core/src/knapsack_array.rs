//! 0/1 knapsack on a capacity-indexed linear array — the paper's
//! serial-monadic row streaming applied to the classic
//!
//! ```text
//! T[i][c] = max( T[i−1][c],  v_i + T[i−1][c − w_i] )
//! ```
//!
//! recurrence.  PE `c` holds the running row value `T[·][c]`; items
//! stream through the array head-to-tail, one PE per cycle.  The
//! `c − w_i` dependency is **not** nearest-neighbour, which is exactly
//! where a naive wavefront schedule breaks: the needed operand lives
//! `w_i` PEs behind.  The array closes the gap with a *value train*:
//! when the item word passes PE `j`, the PE appends its pre-update
//! value right behind the item and relays the train arriving from the
//! west, so PE `j` observes `T[i−1][j−1], T[i−1][j−2], …` on the `k`-th
//! cycle after the item and captures `T[i−1][j−w_i]` exactly `w_i`
//! cycles in.  Trains are truncated at depth `w_i` (nothing deeper is
//! ever consumed), so consecutive items ride `w_i + 1` cycles apart
//! with no link contention.
//!
//! After the last item a `Flush` control word sweeps the array: each PE
//! emits its final value behind the flush and relays its neighbours',
//! so the tail streams out `T[n−1][C], T[n−1][C−1], …, T[n−1][0]`.
//! Total schedule length has the closed form
//!
//! ```text
//! cycles = n + Σ w_i + 2·(C + 1)
//! ```
//!
//! (`n` item launches at `w_i + 1` spacing, plus the flush sweep and
//! drain) — pinned by `tests/paper_claims.rs`.
//!
//! Each PE also keeps one take/leave bit per item (the traceback
//! memory); [`knapsack_array_recovered`] walks those bits host-side to
//! recover an optimal item set.

use sdp_fault::{FaultInjector, FaultyWord, NoFaults, PeFault, SdpError};
use sdp_systolic::{LinearArray, ProcessingElement, Stats};
use sdp_trace::{NullSink, TraceSink};

/// One 0/1 knapsack item.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct KnapsackItem {
    /// Capacity the item consumes.
    pub weight: u64,
    /// Value the item contributes.
    pub value: u64,
}

impl KnapsackItem {
    /// Convenience constructor.
    pub fn new(weight: u64, value: u64) -> KnapsackItem {
        KnapsackItem { weight, value }
    }
}

/// A word on the array's flow links.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum KnapWord {
    /// An item streaming through (weight doubles as the train depth).
    Item {
        /// Item weight — routing state: it steers train depths and the
        /// launch schedule, so faults never touch it.
        weight: u64,
        /// Item value (the corruptible payload).
        value: u64,
    },
    /// One value of a train (`T[i−1][·]` behind an item, `T[n−1][·]`
    /// behind the flush).
    Val(u64),
    /// The end-of-stream sweep that drains final values.
    Flush,
}

/// Faults corrupt payloads only: an item's value or a train value, never
/// the weight (routing) or the flush (control), so a fault yields a
/// wrong answer, not a wedged schedule.
impl FaultyWord for KnapWord {
    fn flip_bit(self, bit: u32) -> KnapWord {
        match self {
            KnapWord::Item { weight, value } => KnapWord::Item {
                weight,
                value: value.flip_bit(bit),
            },
            KnapWord::Val(x) => KnapWord::Val(x.flip_bit(bit)),
            KnapWord::Flush => KnapWord::Flush,
        }
    }

    fn stuck_at(self, value: i64) -> KnapWord {
        match self {
            KnapWord::Item { weight, .. } => KnapWord::Item {
                weight,
                value: u64::stuck_at(0, value),
            },
            KnapWord::Val(_) => KnapWord::Val(u64::stuck_at(0, value)),
            KnapWord::Flush => KnapWord::Flush,
        }
    }

    fn apply(self, fault: PeFault) -> KnapWord {
        match fault {
            PeFault::FlipBit(bit) => self.flip_bit(bit),
            PeFault::StuckAt(value) => self.stuck_at(value),
        }
    }
}

/// The capacity-`c` processing element.
struct KnapPe {
    /// This PE's capacity index.
    cap: u64,
    /// Running row value `T[·][cap]`.
    cur: u64,
    /// An item waiting for its train operand: `(value, cycles_left)`.
    pending: Option<(u64, u64)>,
    /// Next train value to emit.
    stash: Option<u64>,
    /// Train emissions left.
    budget: u64,
    /// Traceback memory: one take/leave bit per item seen.
    decisions: Vec<bool>,
    busy: bool,
}

impl KnapPe {
    fn decide(&mut self, value: u64, base: u64) {
        let cand = base.saturating_add(value);
        let take = cand > self.cur;
        if take {
            self.cur = cand;
        }
        self.decisions.push(take);
        self.busy = true;
    }
}

impl ProcessingElement for KnapPe {
    type Flow = KnapWord;
    type Ext = ();
    type Ctrl = ();

    fn step(&mut self, flow_in: Option<KnapWord>, _: (), _: ()) -> Option<KnapWord> {
        self.busy = false;
        match flow_in {
            Some(KnapWord::Item { weight, value }) => {
                // Launch spacing guarantees the previous train is done.
                let old = self.cur;
                if weight == 0 {
                    // Zero-weight items read this PE's own row value.
                    self.decide(value, old);
                } else if self.cap < weight {
                    // Item cannot fit at this capacity: leave it.
                    self.decisions.push(false);
                    self.busy = true;
                } else {
                    self.pending = Some((value, weight));
                }
                // The pre-update value leads this item's train.
                self.stash = (weight >= 1).then_some(old);
                self.budget = weight;
                Some(KnapWord::Item { weight, value })
            }
            Some(KnapWord::Flush) => {
                // Drain sweep: the final value leads a full-depth train,
                // and the row resets for a possible next instance.
                self.stash = Some(self.cur);
                self.budget = self.cap + 1;
                self.cur = 0;
                self.pending = None;
                Some(KnapWord::Flush)
            }
            Some(KnapWord::Val(x)) => {
                if let Some((value, left)) = self.pending {
                    if left == 1 {
                        // `x` is T[i−1][cap − w_i]: resolve the item.
                        self.decide(value, x);
                        self.pending = None;
                    } else {
                        self.pending = Some((value, left - 1));
                    }
                }
                self.emit_train(Some(x))
            }
            None => self.emit_train(None),
        }
    }

    fn was_busy(&self) -> bool {
        self.busy
    }

    fn probe(&self) -> Option<i64> {
        Some(self.cur as i64)
    }
}

impl KnapPe {
    /// Emits the next train word (if any budget remains) and restocks
    /// the stash with the incoming value.
    fn emit_train(&mut self, incoming: Option<u64>) -> Option<KnapWord> {
        if self.budget == 0 {
            self.stash = None;
            return None;
        }
        let out = self.stash.take();
        self.budget -= 1;
        if self.budget > 0 {
            self.stash = incoming;
        }
        out.map(KnapWord::Val)
    }
}

/// Result of one knapsack array run.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct KnapsackRun {
    /// The optimal total value at full capacity (`T[n−1][C]`).
    pub best: u64,
    /// The whole final row: `per_capacity[c] = T[n−1][c]`.
    pub per_capacity: Vec<u64>,
    /// Cycles taken: `n + Σ w_i + 2·(C+1)`.
    pub cycles: u64,
    /// Engine statistics.
    pub stats: Stats,
}

/// Result of a batched knapsack run (instances streamed back-to-back
/// through one array, separated by flush sweeps).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct BatchKnapsackRun {
    /// One optimum per instance, in batch order.
    pub bests: Vec<u64>,
    /// One final row per instance.
    pub per_capacity: Vec<Vec<u64>>,
    /// Total cycles for the whole batch.
    pub cycles: u64,
    /// Engine statistics over the whole batch.
    pub stats: Stats,
}

/// The closed-form schedule length: `n + Σ w_i + 2·(C + 1)` for a
/// non-empty item list, 0 otherwise (no array is built).  The sum
/// saturates at `u64::MAX`, so weights near 2^63 cannot overflow it.
pub fn knapsack_cycle_count(items: &[KnapsackItem], capacity: u64) -> u64 {
    if items.is_empty() {
        return 0;
    }
    items
        .iter()
        .fold(items.len() as u64, |acc, it| acc.saturating_add(it.weight))
        .saturating_add(capacity.saturating_add(1).saturating_mul(2))
}

fn new_array(capacity: u64) -> Result<LinearArray<KnapPe>, SdpError> {
    LinearArray::try_new(
        (0..=capacity)
            .map(|cap| KnapPe {
                cap,
                cur: 0,
                pending: None,
                stash: None,
                budget: 0,
                decisions: Vec::new(),
                busy: false,
            })
            .collect(),
    )
}

/// The one true driver: streams every instance of `batch` through one
/// array and returns per-instance rows plus the PE decision bits.
fn knapsack_core<F: FaultInjector, S: TraceSink>(
    batch: &[&[KnapsackItem]],
    capacity: u64,
    injector: &mut F,
    sink: &mut S,
) -> Result<(BatchKnapsackRun, Vec<Vec<bool>>), SdpError> {
    let mut arr = new_array(capacity)?;
    let c = capacity as usize;
    // Injection schedule: items at `w + 1` spacing, a flush after each
    // instance, the next instance `C + 2` cycles later (the flush train
    // is `C + 1` deep).
    let mut inject: Vec<(u64, KnapWord)> = Vec::new();
    let mut t = 0u64;
    let mut last_flush = 0u64;
    for items in batch {
        for item in items.iter() {
            inject.push((
                t,
                KnapWord::Item {
                    weight: item.weight,
                    value: item.value,
                },
            ));
            t += item.weight + 1;
        }
        inject.push((t, KnapWord::Flush));
        last_flush = t;
        t += c as u64 + 2;
    }
    let total = last_flush + 2 * (c as u64 + 1);
    let mut next = 0usize;
    let mut rows: Vec<Vec<u64>> = Vec::new();
    // Regular item trains also exit the tail; only the `C + 1` values
    // contiguously behind each flush word are an instance's final row.
    let mut remaining = 0usize;
    for now in 0..total {
        let head = if next < inject.len() && inject[next].0 == now {
            next += 1;
            Some(inject[next - 1].1)
        } else {
            None
        };
        let out = arr.cycle_fault(head, |_| (), |_| (), injector, sink);
        match out {
            Some(KnapWord::Flush) => {
                rows.push(Vec::with_capacity(c + 1));
                remaining = c + 1;
            }
            Some(KnapWord::Val(x)) if remaining > 0 => {
                rows.last_mut().expect("flush seen").push(x);
                remaining -= 1;
            }
            _ => {}
        }
    }
    let mut per_capacity = Vec::with_capacity(rows.len());
    for mut row in rows {
        debug_assert_eq!(row.len(), c + 1, "flush train drains every PE");
        row.reverse(); // tail emits T[n−1][C] first
        per_capacity.push(row);
    }
    debug_assert_eq!(per_capacity.len(), batch.len());
    let decisions = arr
        .pes()
        .iter()
        .map(|pe| pe.decisions.clone())
        .collect::<Vec<_>>();
    Ok((
        BatchKnapsackRun {
            bests: per_capacity.iter().map(|row| row[c]).collect(),
            per_capacity,
            cycles: arr.stats().cycles(),
            stats: arr.stats().clone(),
        },
        decisions,
    ))
}

fn empty_run(capacity: u64) -> KnapsackRun {
    KnapsackRun {
        best: 0,
        per_capacity: vec![0; capacity as usize + 1],
        cycles: 0,
        stats: Stats::new(0),
    }
}

/// Solves one 0/1 knapsack instance on the array.
///
/// An empty item list short-circuits to the all-zero row (no array is
/// built, zero PEs reported).  PE `c` in `sink`'s events is the
/// capacity-`c` element.  Faults from `injector` corrupt item/train
/// values (silent data corruption), never weights or the flush sweep,
/// so the schedule and the drain stay intact.
pub fn knapsack_array<F: FaultInjector, S: TraceSink>(
    items: &[KnapsackItem],
    capacity: u64,
    injector: &mut F,
    sink: &mut S,
) -> Result<KnapsackRun, SdpError> {
    if items.is_empty() {
        return Ok(empty_run(capacity));
    }
    let (batch, _) = knapsack_core(&[items], capacity, injector, sink)?;
    Ok(KnapsackRun {
        best: batch.bests[0],
        per_capacity: batch.per_capacity.into_iter().next().expect("one instance"),
        cycles: batch.cycles,
        stats: batch.stats,
    })
}

/// [`knapsack_array`] plus item-set recovery from the PEs' traceback
/// memory: returns the run and the optimal item indices (ascending).
/// Ties break toward *leaving* an item, so the recovered set is the
/// same one the reference solver derives.
pub fn knapsack_array_recovered(
    items: &[KnapsackItem],
    capacity: u64,
) -> Result<(KnapsackRun, Vec<usize>), SdpError> {
    if items.is_empty() {
        return Ok((empty_run(capacity), Vec::new()));
    }
    let (batch, decisions) = knapsack_core(&[items], capacity, &mut NoFaults, &mut NullSink)?;
    let set = walk_decisions(items, capacity, &decisions, 0);
    Ok((
        KnapsackRun {
            best: batch.bests[0],
            per_capacity: batch.per_capacity.into_iter().next().expect("one instance"),
            cycles: batch.cycles,
            stats: batch.stats,
        },
        set,
    ))
}

/// Walks the per-PE take/leave bits backwards from full capacity.
fn walk_decisions(
    items: &[KnapsackItem],
    capacity: u64,
    decisions: &[Vec<bool>],
    instance_offset: usize,
) -> Vec<usize> {
    let mut c = capacity as usize;
    let mut set = Vec::new();
    for i in (0..items.len()).rev() {
        if decisions[c][instance_offset + i] {
            set.push(i);
            c -= items[i].weight as usize;
        }
    }
    set.reverse();
    set
}

/// Streams a batch of instances through one array, separated by flush
/// sweeps (the flush resets each PE's row register).  All instances
/// share the array's capacity; differing item counts are allowed —
/// the schedule is launch-driven, not shape-driven.  An empty batch is
/// a typed error.
pub fn knapsack_array_batch<S: TraceSink>(
    batch: &[&[KnapsackItem]],
    capacity: u64,
    sink: &mut S,
) -> Result<BatchKnapsackRun, SdpError> {
    if batch.is_empty() {
        return Err(SdpError::EmptyBatch);
    }
    if batch.iter().all(|items| items.is_empty()) {
        return Ok(BatchKnapsackRun {
            bests: vec![0; batch.len()],
            per_capacity: vec![vec![0; capacity as usize + 1]; batch.len()],
            cycles: 0,
            stats: Stats::new(0),
        });
    }
    let (run, _) = knapsack_core(batch, capacity, &mut NoFaults, sink)?;
    Ok(run)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn items(raw: &[(u64, u64)]) -> Vec<KnapsackItem> {
        raw.iter().map(|&(w, v)| KnapsackItem::new(w, v)).collect()
    }

    /// Scalar reference used only by this test module.
    fn knapsack_seq(items: &[KnapsackItem], capacity: u64) -> Vec<u64> {
        let c = capacity as usize;
        let mut row = vec![0u64; c + 1];
        for it in items {
            for cap in (0..=c).rev() {
                if (it.weight as usize) <= cap {
                    row[cap] = row[cap].max(row[cap - it.weight as usize] + it.value);
                }
            }
        }
        row
    }

    #[test]
    fn known_instances() {
        // The EPS-Knapsack classroom instance.
        let its = items(&[(1, 1), (3, 4), (4, 5), (5, 7)]);
        let run = knapsack_array(&its, 7, &mut NoFaults, &mut NullSink).unwrap();
        assert_eq!(run.best, 9); // items (3,4) + (4,5)
        assert_eq!(run.per_capacity, knapsack_seq(&its, 7));
    }

    #[test]
    fn empty_items_short_circuit() {
        let run = knapsack_array(&[], 5, &mut NoFaults, &mut NullSink).unwrap();
        assert_eq!(run.best, 0);
        assert_eq!(run.per_capacity, vec![0; 6]);
        assert_eq!(run.cycles, 0);
        assert_eq!(run.stats.num_pes(), 0);
    }

    #[test]
    fn zero_capacity_and_zero_weight() {
        // Capacity 0 still takes zero-weight items.
        let run = knapsack_array(
            &items(&[(0, 3), (2, 9), (0, 4)]),
            0,
            &mut NoFaults,
            &mut NullSink,
        )
        .unwrap();
        assert_eq!(run.best, 7);
        // Oversized items are left everywhere.
        let run = knapsack_array(&items(&[(10, 100)]), 4, &mut NoFaults, &mut NullSink).unwrap();
        assert_eq!(run.best, 0);
    }

    #[test]
    fn matches_reference_on_random_instances() {
        let mut state = 7u64;
        let mut next = move || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            state >> 33
        };
        for case in 0..25 {
            let n = 1 + (next() % 7) as usize;
            let capacity = next() % 12;
            let its: Vec<KnapsackItem> = (0..n)
                .map(|_| KnapsackItem::new(next() % 6, next() % 10))
                .collect();
            let run = knapsack_array(&its, capacity, &mut NoFaults, &mut NullSink).unwrap();
            assert_eq!(
                run.per_capacity,
                knapsack_seq(&its, capacity),
                "case {case}: items={its:?} capacity={capacity}"
            );
        }
    }

    #[test]
    fn cycles_match_the_closed_form() {
        for (raw, capacity) in [
            (&[(1u64, 1u64), (3, 4), (4, 5), (5, 7)][..], 7u64),
            (&[(2, 3)], 0),
            (&[(0, 5), (1, 1)], 3),
        ] {
            let its = items(raw);
            let run = knapsack_array(&its, capacity, &mut NoFaults, &mut NullSink).unwrap();
            assert_eq!(run.cycles, knapsack_cycle_count(&its, capacity));
            let w: u64 = its.iter().map(|it| it.weight).sum();
            assert_eq!(
                run.cycles,
                its.len() as u64 + w + 2 * (capacity + 1),
                "closed form"
            );
        }
    }

    #[test]
    fn every_pe_decides_every_item() {
        let its = items(&[(1, 1), (3, 4), (4, 5), (5, 7)]);
        let run = knapsack_array(&its, 7, &mut NoFaults, &mut NullSink).unwrap();
        for pe in 0..8 {
            assert_eq!(run.stats.busy(pe), 4, "PE {pe} decides each item once");
        }
    }

    #[test]
    fn recovered_set_is_optimal_and_feasible() {
        let its = items(&[(1, 1), (3, 4), (4, 5), (5, 7)]);
        let (run, set) = knapsack_array_recovered(&its, 7).unwrap();
        assert_eq!(set, vec![1, 2]);
        let weight: u64 = set.iter().map(|&i| its[i].weight).sum();
        let value: u64 = set.iter().map(|&i| its[i].value).sum();
        assert!(weight <= 7);
        assert_eq!(value, run.best);
    }

    #[test]
    fn batch_matches_single_runs() {
        let a = items(&[(1, 1), (3, 4), (4, 5), (5, 7)]);
        let b = items(&[(2, 2), (2, 3)]);
        let c = items(&[(1, 9)]);
        let batch = knapsack_array_batch(&[&a, &b, &c], 7, &mut NullSink).unwrap();
        for (t, its) in [&a, &b, &c].iter().enumerate() {
            let single = knapsack_array(its, 7, &mut NoFaults, &mut NullSink).unwrap();
            assert_eq!(batch.bests[t], single.best, "t={t}");
            assert_eq!(batch.per_capacity[t], single.per_capacity, "t={t}");
        }
        assert!(matches!(
            knapsack_array_batch(&[], 7, &mut NullSink),
            Err(SdpError::EmptyBatch)
        ));
    }

    #[test]
    fn traced_matches_untraced() {
        use sdp_trace::CountingSink;
        let its = items(&[(1, 1), (3, 4), (4, 5)]);
        let plain = knapsack_array(&its, 6, &mut NoFaults, &mut NullSink).unwrap();
        let mut sink = CountingSink::default();
        let traced = knapsack_array(&its, 6, &mut NoFaults, &mut sink).unwrap();
        assert_eq!(traced, plain);
        assert_eq!(sink.cycles, plain.cycles);
        assert_eq!(sink.faults_injected, 0);
    }

    #[test]
    fn stuck_pe_corrupts_value_without_stalling() {
        use sdp_fault::{Fault, FaultPlan, PlanInjector};
        use sdp_trace::CountingSink;
        let its = items(&[(1, 1), (3, 4), (4, 5), (5, 7)]);
        let clean = knapsack_array(&its, 7, &mut NoFaults, &mut NullSink).unwrap();
        // Permanently stick PE 7's payloads high: every value it emits
        // is forged (silent data corruption), but weights and the flush
        // sweep are routing state — the drained row still has C+1
        // entries on the closed-form schedule.
        let plan = FaultPlan::new().with(Fault::StuckAt {
            pe: 7,
            cycle: 2,
            value: 1_000,
        });
        let mut inj = PlanInjector::new(plan);
        let mut sink = CountingSink::default();
        let faulty = knapsack_array(&its, 7, &mut inj, &mut sink).unwrap();
        assert_eq!(faulty.cycles, clean.cycles);
        assert_eq!(faulty.per_capacity.len(), clean.per_capacity.len());
        assert!(sink.faults_injected > 0);
        assert_ne!(faulty.per_capacity, clean.per_capacity);
    }
}
