//! Direct 0/1 knapsack mirroring the capacity-indexed linear array.
//!
//! The array streams items through `C + 1` PEs with value trains
//! closing the `c − w_i` dependency gap; the direct solver runs the
//! classic one-row sweep (capacity descending, so each item is used at
//! most once) with the array's exact decision rule — take iff
//! `base + value > current` (strictly, ties leave the item) with
//! saturating adds — so rows *and* recovered item sets are
//! bit-identical.
//!
//! Stats are the array's closed forms: `n + Σ w_i + 2·(C + 1)` cycles,
//! every PE busy once per item (one decision each), `n + 1` input
//! words (items plus the flush), `n + Σ min(w_i, C + 1) + C + 2`
//! output words (each item word, its tail-visible value train, the
//! flush, and the drained row), and stalls on exactly the relay-only
//! cycles of the launch schedule.

use sdp_core::knapsack_array::{knapsack_cycle_count, BatchKnapsackRun, KnapsackItem, KnapsackRun};
use sdp_fault::SdpError;
use sdp_systolic::Stats;

/// One row sweep with the array's decision rule; returns the final row
/// and (when `decisions` is given) each capacity's take/leave bit per
/// item, appended in item order.
fn sweep(
    items: &[KnapsackItem],
    capacity: u64,
    mut decisions: Option<&mut [Vec<bool>]>,
) -> Vec<u64> {
    let c = capacity as usize;
    let mut row = vec![0u64; c + 1];
    for it in items {
        let w = it.weight as usize;
        for cap in (0..=c).rev() {
            let take = cap >= w && row[cap - w].saturating_add(it.value) > row[cap];
            if let Some(d) = decisions.as_deref_mut() {
                d[cap].push(take);
            }
            if take {
                row[cap] = row[cap - w].saturating_add(it.value);
            }
        }
    }
    row
}

/// Relay-only cycles of the launch schedule: `cycles` minus every cycle
/// on which some PE decides.  Each instance starts at its launch cycle,
/// and its item `i` launches at `s_i = launch + i + Σ_{k<i} w_k`; PE
/// `j` decides at `s_i + j` (immediate: `j < w_i`, or `w_i = 0`) or at
/// `s_i + j + w_i` (train resolution: `j ≥ w_i`).  So an item's
/// decision cycles form at most two intervals.  They are sorted and
/// merged rather than marked cycle by cycle, so the count allocates
/// per item, not per cycle, and a weight near 2^63 costs nothing.  The
/// schedule arithmetic saturates, like [`knapsack_cycle_count`].
fn stall_cycles<'a>(
    instances: impl IntoIterator<Item = (u64, &'a [KnapsackItem])>,
    capacity: u64,
    cycles: u64,
) -> u64 {
    let c = capacity;
    // Half-open [start, end) intervals of decision cycles.
    let mut spans = Vec::new();
    for (launch, items) in instances {
        let mut s = launch;
        for it in items {
            let wi = it.weight;
            let end = |last: u64| s.saturating_add(last).saturating_add(1);
            if wi == 0 {
                spans.push((s, end(c)));
            } else {
                spans.push((s, end((wi - 1).min(c))));
                if wi <= c {
                    spans.push((s.saturating_add(2 * wi), end(wi + c)));
                }
            }
            s = s.saturating_add(wi).saturating_add(1);
        }
    }
    spans.sort_unstable();
    let (mut busy, mut covered) = (0u64, 0u64);
    for (start, end) in spans {
        let from = start.max(covered);
        if end > from {
            busy += end - from;
            covered = end;
        }
    }
    cycles.saturating_sub(busy)
}

/// Closed-form array Stats for one instance.
fn array_stats(items: &[KnapsackItem], capacity: u64) -> Stats {
    let (n, c) = (items.len() as u64, capacity);
    let cycles = knapsack_cycle_count(items, capacity);
    let tail_train: u64 = items.iter().map(|it| it.weight.min(c + 1)).sum();
    Stats::from_parts(
        cycles,
        vec![n; c as usize + 1],
        n + 1,
        n + tail_train + c + 2,
        0,
        0,
        stall_cycles([(0, items)], capacity, cycles),
    )
}

/// Direct 0/1 knapsack: bit-identical to
/// `sdp_core::knapsack_array::knapsack_array` (final row, optimum,
/// Stats) without simulating the array.
pub fn knapsack_direct(items: &[KnapsackItem], capacity: u64) -> KnapsackRun {
    if items.is_empty() {
        return KnapsackRun {
            best: 0,
            per_capacity: vec![0; capacity as usize + 1],
            cycles: 0,
            stats: Stats::new(0),
        };
    }
    let per_capacity = sweep(items, capacity, None);
    let stats = array_stats(items, capacity);
    KnapsackRun {
        best: per_capacity[capacity as usize],
        cycles: stats.cycles(),
        per_capacity,
        stats,
    }
}

/// [`knapsack_direct`] plus item-set recovery: replays the array's
/// per-capacity decision bits (ties leave the item) and walks them back
/// from full capacity, so the set matches
/// `sdp_core::knapsack_array::knapsack_array_recovered` exactly.
pub fn knapsack_direct_recovered(
    items: &[KnapsackItem],
    capacity: u64,
) -> (KnapsackRun, Vec<usize>) {
    if items.is_empty() {
        return (knapsack_direct(items, capacity), Vec::new());
    }
    let mut decisions = vec![Vec::with_capacity(items.len()); capacity as usize + 1];
    let per_capacity = sweep(items, capacity, Some(&mut decisions));
    let stats = array_stats(items, capacity);
    let mut c = capacity as usize;
    let mut set = Vec::new();
    for i in (0..items.len()).rev() {
        if decisions[c][i] {
            set.push(i);
            c -= items[i].weight as usize;
        }
    }
    set.reverse();
    (
        KnapsackRun {
            best: per_capacity[capacity as usize],
            cycles: stats.cycles(),
            per_capacity,
            stats,
        },
        set,
    )
}

/// Direct batched knapsack: same rows and typed errors as
/// `sdp_core::knapsack_array::knapsack_array_batch` with the streamed
/// array's Stats.
pub fn knapsack_direct_batch(
    batch: &[&[KnapsackItem]],
    capacity: u64,
) -> Result<BatchKnapsackRun, SdpError> {
    if batch.is_empty() {
        return Err(SdpError::EmptyBatch);
    }
    let c = capacity as usize;
    if batch.iter().all(|items| items.is_empty()) {
        return Ok(BatchKnapsackRun {
            bests: vec![0; batch.len()],
            per_capacity: vec![vec![0; c + 1]; batch.len()],
            cycles: 0,
            stats: Stats::new(0),
        });
    }
    let per_capacity: Vec<Vec<u64>> = batch
        .iter()
        .map(|items| sweep(items, capacity, None))
        .collect();
    // The batch schedule: each instance's items at w + 1 spacing, its
    // flush, then a C + 2 gap before the next; cycles run to the last
    // flush plus the drain.  Busy/stall/IO accounting is per instance,
    // offset by its launch cycle.
    let mut s = 0u64;
    let mut last_flush = 0u64;
    let mut launches = Vec::with_capacity(batch.len());
    let mut input_words = 0u64;
    let mut output_words = 0u64;
    for &items in batch {
        launches.push((s, items));
        let w = items
            .iter()
            .fold(0u64, |acc, it| acc.saturating_add(it.weight));
        s = s.saturating_add(items.len() as u64).saturating_add(w);
        last_flush = s;
        s = s.saturating_add(c as u64 + 2);
        let tail_train: u64 = items.iter().map(|it| it.weight.min(c as u64 + 1)).sum();
        input_words += items.len() as u64 + 1;
        output_words += items.len() as u64 + tail_train + c as u64 + 2;
    }
    let cycles = last_flush.saturating_add(2 * (c as u64 + 1));
    let stalls = stall_cycles(launches, capacity, cycles);
    let n_total: u64 = batch.iter().map(|items| items.len() as u64).sum();
    let stats = Stats::from_parts(
        cycles,
        vec![n_total; c + 1],
        input_words,
        output_words,
        0,
        0,
        stalls,
    );
    Ok(BatchKnapsackRun {
        bests: per_capacity.iter().map(|row| row[c]).collect(),
        per_capacity,
        cycles: stats.cycles(),
        stats,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use sdp_core::knapsack_array::{
        knapsack_array, knapsack_array_batch, knapsack_array_recovered,
    };
    use sdp_fault::NoFaults;
    use sdp_trace::NullSink;

    fn items(raw: &[(u64, u64)]) -> Vec<KnapsackItem> {
        raw.iter().map(|&(w, v)| KnapsackItem::new(w, v)).collect()
    }

    fn rng(mut state: u64) -> impl FnMut() -> u64 {
        move || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            state >> 33
        }
    }

    #[test]
    fn single_matches_sim_exactly() {
        let mut next = rng(13);
        for case in 0..30 {
            let n = (next() % 8) as usize;
            let capacity = next() % 12;
            let its: Vec<KnapsackItem> = (0..n)
                .map(|_| KnapsackItem::new(next() % 7, next() % 10))
                .collect();
            let sim = knapsack_array(&its, capacity, &mut NoFaults, &mut NullSink).unwrap();
            let direct = knapsack_direct(&its, capacity);
            assert_eq!(direct, sim, "case {case}: {its:?} cap {capacity}");
        }
    }

    #[test]
    fn recovered_sets_match_sim_exactly() {
        let mut next = rng(29);
        for case in 0..30 {
            let n = 1 + (next() % 6) as usize;
            let capacity = next() % 10;
            let its: Vec<KnapsackItem> = (0..n)
                .map(|_| KnapsackItem::new(next() % 5, next() % 9))
                .collect();
            let (sim, sim_set) = knapsack_array_recovered(&its, capacity).unwrap();
            let (direct, direct_set) = knapsack_direct_recovered(&its, capacity);
            assert_eq!(direct, sim, "case {case}");
            assert_eq!(direct_set, sim_set, "case {case}: {its:?} cap {capacity}");
        }
    }

    #[test]
    fn batch_matches_sim_exactly() {
        let a = items(&[(1, 1), (3, 4), (4, 5), (5, 7)]);
        let b = items(&[(2, 2), (2, 3)]);
        let c = items(&[(1, 9)]);
        let refs: Vec<&[KnapsackItem]> = vec![&a, &b, &c];
        let sim = knapsack_array_batch(&refs, 7, &mut NullSink).unwrap();
        let direct = knapsack_direct_batch(&refs, 7).unwrap();
        assert_eq!(direct, sim);
        assert!(matches!(
            knapsack_direct_batch(&[], 7),
            Err(SdpError::EmptyBatch)
        ));
    }

    #[test]
    fn a_huge_weight_costs_no_per_cycle_allocation() {
        // Marking busy cycles in a per-cycle vector would allocate
        // 2^40 bytes here and abort the process.
        let w = 1u64 << 40;
        let (n, capacity) = (1u64, 10u64);
        let huge = items(&[(w, 1)]);
        let run = knapsack_direct_batch(&[&huge], capacity).unwrap();
        assert_eq!(run.per_capacity, vec![vec![0; capacity as usize + 1]]);
        assert_eq!(run.bests, vec![0]);
        let cycles = n + w + 2 * (capacity + 1);
        assert_eq!(run.cycles, cycles);
        // Only the C + 1 immediate decisions are busy: the item never
        // fits, so no train resolves.
        assert_eq!(run.stats.stall_cycles(), cycles - (capacity + 1));
        assert_eq!(knapsack_direct(&huge, capacity).stats, run.stats);
        // Weights near 2^63 saturate the schedule instead of wrapping.
        let max = items(&[(i64::MAX as u64, 1), (i64::MAX as u64, 2)]);
        let run = knapsack_direct_batch(&[&max, &max], capacity).unwrap();
        assert_eq!(run.cycles, u64::MAX);
        assert_eq!(run.bests, vec![0, 0]);
    }

    #[test]
    fn oversized_and_zero_weight_items_match_sim() {
        for (raw, cap) in [
            (&[(10u64, 100u64)][..], 4u64),
            (&[(0, 3), (2, 9), (0, 4)], 0),
            (&[(0, 1), (0, 2)], 5),
            (&[(6, 6), (1, 1)], 5),
        ] {
            let its = items(raw);
            assert_eq!(
                knapsack_direct(&its, cap),
                knapsack_array(&its, cap, &mut NoFaults, &mut NullSink).unwrap(),
                "{raw:?} cap {cap}"
            );
        }
    }
}
