//! The linear-array driver with latched nearest-neighbour links.
//!
//! The driver owns `m` PEs and the `m` link latches between/around them.
//! One call to [`LinearArray::cycle`] advances the whole array by a single
//! clock: every PE is stepped with the link values captured at the end of
//! the *previous* cycle (two-phase update), so information propagates one
//! PE per cycle — the defining property of a systolic pipeline.

use crate::instrument::Stats;
use crate::pe::ProcessingElement;
use sdp_fault::{FaultInjector, FaultyWord, SdpError};
use sdp_trace::{Event, TraceSink};

/// A linear systolic array of identical PEs (`P₁ … Pₘ` in the paper),
/// connected left-to-right, with full cycle/utilization instrumentation.
pub struct LinearArray<P: ProcessingElement> {
    pes: Vec<P>,
    /// `links[i]` is the latched word on the link *into* PE `i`;
    /// `links[m]` is the latched word leaving the tail PE.
    links: Vec<Option<P::Flow>>,
    /// Double buffer for the link latches: each cycle writes next-cycle
    /// state here, then swaps with `links`.  Keeping it on the struct
    /// means the per-cycle hot loop performs no allocation at all.
    links_next: Vec<Option<P::Flow>>,
    /// `bypass[i]` routes around PE `i`: its column becomes a plain
    /// one-cycle wire (spare-column remapping for a faulty PE).
    bypass: Vec<bool>,
    stats: Stats,
}

impl<P: ProcessingElement> LinearArray<P> {
    /// Builds an array from a vector of PEs (must be non-empty).
    pub fn new(pes: Vec<P>) -> LinearArray<P> {
        Self::try_new(pes).unwrap_or_else(|e| panic!("{e}"))
    }

    /// Builds an array, returning [`SdpError::EmptyArray`] instead of
    /// panicking when `pes` is empty.
    pub fn try_new(pes: Vec<P>) -> Result<LinearArray<P>, SdpError> {
        if pes.is_empty() {
            return Err(SdpError::EmptyArray);
        }
        let m = pes.len();
        Ok(LinearArray {
            pes,
            links: vec![None; m + 1],
            links_next: vec![None; m + 1],
            bypass: vec![false; m],
            stats: Stats::new(m),
        })
    }

    /// Marks PE `pe` as bypassed (or restores it).  A bypassed PE's
    /// column degenerates to a one-cycle wire: the word latched on its
    /// input link is forwarded unchanged, the PE is never stepped, and
    /// injected faults cannot corrupt it — this models the spare-column
    /// remapping of §3's fault discussion, where a faulty PE is fused
    /// out and its work shifts one column down to a spare.
    pub fn set_bypass(&mut self, pe: usize, bypassed: bool) {
        self.bypass[pe] = bypassed;
    }

    /// Whether PE `pe` is currently bypassed.
    pub fn is_bypassed(&self, pe: usize) -> bool {
        self.bypass[pe]
    }

    /// Number of PEs.
    pub fn len(&self) -> usize {
        self.pes.len()
    }

    /// True when the array has no PEs (never, by construction).
    pub fn is_empty(&self) -> bool {
        self.pes.is_empty()
    }

    /// Immutable access to the PEs (for result extraction).
    pub fn pes(&self) -> &[P] {
        &self.pes
    }

    /// Mutable access to the PEs (for initial register loading).
    pub fn pes_mut(&mut self) -> &mut [P] {
        &mut self.pes
    }

    /// Instrumentation gathered so far.
    pub fn stats(&self) -> &Stats {
        &self.stats
    }

    /// Mutable instrumentation, so co-simulated components (e.g. the
    /// shared bus of Design 3) can fold their accounting into the same
    /// report.
    pub fn stats_mut(&mut self) -> &mut Stats {
        &mut self.stats
    }

    /// The word currently latched on the tail (output) link.
    pub fn tail(&self) -> Option<P::Flow> {
        self.links[self.pes.len()]
    }

    /// Advances the array by one clock cycle.
    ///
    /// * `head_in` — the word presented on the head (input) link this cycle;
    /// * `ext` — closure giving PE `i`'s external input this cycle;
    /// * `ctrl` — closure giving PE `i`'s control word this cycle;
    /// * `sink` — observes the clock edge, per-PE activity, latch
    ///   commits, and host I/O words.
    ///
    /// Returns the word emitted by the tail PE this cycle (which is also
    /// latched and visible via [`tail`](Self::tail) until the next cycle).
    ///
    /// With [`sdp_trace::NullSink`] every `sink.record` call (and the
    /// event construction feeding it) is guarded by `S::ENABLED` and
    /// compiles away.
    pub fn cycle<S: TraceSink>(
        &mut self,
        head_in: Option<P::Flow>,
        ext: impl FnMut(usize) -> P::Ext,
        ctrl: impl FnMut(usize) -> P::Ctrl,
        sink: &mut S,
    ) -> Option<P::Flow> {
        self.cycle_core(head_in, ext, ctrl, sink, |_, _, out, _| out)
    }

    /// [`cycle`](Self::cycle) with a [`FaultInjector`] deciding, per PE
    /// and cycle, whether the emitted word is corrupted.  With
    /// [`sdp_fault::NoFaults`] the hook folds away and this is exactly
    /// `cycle`; bypassed PEs are wires and can never be corrupted (the
    /// spare path routes around the faulty latch).
    pub fn cycle_fault<F: FaultInjector, S: TraceSink>(
        &mut self,
        head_in: Option<P::Flow>,
        ext: impl FnMut(usize) -> P::Ext,
        ctrl: impl FnMut(usize) -> P::Ctrl,
        injector: &mut F,
        sink: &mut S,
    ) -> Option<P::Flow>
    where
        P::Flow: FaultyWord,
    {
        self.cycle_core(head_in, ext, ctrl, sink, |pe, cycle, out, sink| {
            if F::ENABLED {
                if let Some(word) = out {
                    if let Some(fault) = injector.pe_fault(pe, cycle) {
                        if S::ENABLED {
                            sink.record(Event::FaultInjected {
                                kind: fault.kind(),
                                site: pe,
                            });
                        }
                        return Some(word.apply(fault));
                    }
                }
            }
            out
        })
    }

    /// The one true cycle body: `corrupt` observes each non-bypassed
    /// PE's output word and may replace it (identity on the fault-free
    /// path, where it inlines to nothing).
    fn cycle_core<S: TraceSink>(
        &mut self,
        head_in: Option<P::Flow>,
        mut ext: impl FnMut(usize) -> P::Ext,
        mut ctrl: impl FnMut(usize) -> P::Ctrl,
        sink: &mut S,
        mut corrupt: impl FnMut(u32, u64, Option<P::Flow>, &mut S) -> Option<P::Flow>,
    ) -> Option<P::Flow> {
        let m = self.pes.len();
        let now = self.stats.cycles();
        if S::ENABLED {
            sink.record(Event::CycleStart { cycle: now });
        }
        if head_in.is_some() {
            self.stats.record_input_word();
            if S::ENABLED {
                sink.record(Event::WordIn);
            }
        }
        // Two-phase update without per-cycle allocation: PEs read the
        // pre-cycle state still held in `links` (head_in overrides the
        // external index 0) while all writes go to `links_next`; the
        // buffers swap at the end of the cycle.
        let mut any_busy = false;
        for i in 0..m {
            let inbound = if i == 0 { head_in } else { self.links[i] };
            let bypassed = self.bypass[i];
            let pe = &mut self.pes[i];
            let (out, busy) = if bypassed {
                (inbound, false)
            } else {
                let stepped = pe.step(inbound, ext(i), ctrl(i));
                (corrupt(i as u32, now, stepped, &mut *sink), pe.was_busy())
            };
            self.links_next[i + 1] = out;
            if busy {
                self.stats.record_busy(i);
                any_busy = true;
            }
            if S::ENABLED {
                sink.record(Event::PeFire {
                    pe: i as u32,
                    busy,
                    value: self.pes[i].probe(),
                });
            }
        }
        // head link latch (index 0) is external; keep what was presented.
        self.links_next[0] = head_in;
        if S::ENABLED {
            for (link, word) in self.links_next.iter().enumerate() {
                sink.record(Event::LatchCommit {
                    link: link as u32,
                    occupied: word.is_some(),
                });
            }
        }
        std::mem::swap(&mut self.links, &mut self.links_next);
        self.stats.record_cycle();
        if !any_busy {
            self.stats.record_stall_cycle();
        }
        if self.links[m].is_some() {
            self.stats.record_output_word();
            if S::ENABLED {
                sink.record(Event::WordOut);
            }
        }
        self.links[m]
    }

    /// Runs `n` cycles with no head input and constant ext/ctrl, draining
    /// the pipeline; collects every word emitted by the tail.
    pub fn drain<S: TraceSink>(
        &mut self,
        n: usize,
        mut ext: impl FnMut(usize) -> P::Ext,
        mut ctrl: impl FnMut(usize) -> P::Ctrl,
        sink: &mut S,
    ) -> Vec<P::Flow> {
        let mut out = Vec::new();
        for _ in 0..n {
            if let Some(w) = self.cycle(None, &mut ext, &mut ctrl, sink) {
                out.push(w);
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pe::ProcessingElement;
    use sdp_trace::NullSink;

    /// Pass-through PE used to verify one-cycle-per-hop latching.
    #[derive(Default)]
    struct Wire {
        busy: bool,
    }

    impl ProcessingElement for Wire {
        type Flow = u32;
        type Ext = ();
        type Ctrl = ();
        fn step(&mut self, flow_in: Option<u32>, _: (), _: ()) -> Option<u32> {
            self.busy = flow_in.is_some();
            flow_in
        }
        fn was_busy(&self) -> bool {
            self.busy
        }
    }

    /// Accumulating PE: adds ext input into a register each cycle, forwards
    /// flow unchanged.  Verifies ext routing and register persistence.
    #[derive(Default)]
    struct Acc {
        sum: u64,
    }

    impl ProcessingElement for Acc {
        type Flow = u32;
        type Ext = u64;
        type Ctrl = ();
        fn step(&mut self, flow_in: Option<u32>, ext: u64, _: ()) -> Option<u32> {
            self.sum += ext;
            flow_in
        }
    }

    fn wires(m: usize) -> LinearArray<Wire> {
        LinearArray::new((0..m).map(|_| Wire::default()).collect())
    }

    #[test]
    fn word_takes_one_cycle_per_hop() {
        let mut arr = wires(3);
        // Inject 7 on cycle 0; it must appear at the tail after 3 cycles.
        assert_eq!(arr.cycle(Some(7), |_| (), |_| (), &mut NullSink), None);
        assert_eq!(arr.cycle(None, |_| (), |_| (), &mut NullSink), None);
        assert_eq!(arr.cycle(None, |_| (), |_| (), &mut NullSink), Some(7));
    }

    #[test]
    fn pipeline_preserves_order_and_spacing() {
        let mut arr = wires(2);
        let mut out = Vec::new();
        let feed = [Some(1), Some(2), None, Some(3)];
        for f in feed {
            if let Some(w) = arr.cycle(f, |_| (), |_| (), &mut NullSink) {
                out.push(w);
            }
        }
        out.extend(arr.drain(4, |_| (), |_| (), &mut NullSink));
        assert_eq!(out, vec![1, 2, 3]);
    }

    #[test]
    fn stats_count_cycles_and_io() {
        let mut arr = wires(2);
        arr.cycle(Some(1), |_| (), |_| (), &mut NullSink);
        arr.cycle(None, |_| (), |_| (), &mut NullSink);
        arr.cycle(None, |_| (), |_| (), &mut NullSink);
        let s = arr.stats();
        assert_eq!(s.cycles(), 3);
        assert_eq!(s.input_words(), 1);
        assert_eq!(s.output_words(), 1);
    }

    #[test]
    fn busy_accounting_per_pe() {
        let mut arr = wires(2);
        arr.cycle(Some(1), |_| (), |_| (), &mut NullSink); // PE0 busy
        arr.cycle(None, |_| (), |_| (), &mut NullSink); // PE1 busy
        let s = arr.stats();
        assert_eq!(s.busy(0), 1);
        assert_eq!(s.busy(1), 1);
        let u = s.utilization();
        assert!((u.overall - 0.5).abs() < 1e-9);
    }

    #[test]
    fn ext_inputs_are_routed_per_pe() {
        let mut arr = LinearArray::new(vec![Acc::default(), Acc::default()]);
        arr.cycle(None, |i| (i as u64 + 1) * 10, |_| (), &mut NullSink);
        arr.cycle(None, |i| (i as u64 + 1) * 10, |_| (), &mut NullSink);
        assert_eq!(arr.pes()[0].sum, 20);
        assert_eq!(arr.pes()[1].sum, 40);
    }

    #[test]
    #[should_panic(expected = "at least one PE")]
    fn empty_array_rejected() {
        let _ = LinearArray::<Wire>::new(vec![]);
    }

    #[test]
    fn traced_cycles_emit_consistent_events() {
        use sdp_trace::CountingSink;
        let mut arr = wires(3);
        let mut sink = CountingSink::default();
        arr.cycle(Some(7), |_| (), |_| (), &mut sink);
        arr.cycle(None, |_| (), |_| (), &mut sink);
        arr.cycle(None, |_| (), |_| (), &mut sink);
        assert_eq!(sink.cycles, 3);
        assert_eq!(sink.pe_fires, 9); // 3 PEs × 3 cycles
        assert_eq!(sink.busy_fires, 3); // the word visits each PE once
        assert_eq!(sink.words_in, 1);
        assert_eq!(sink.words_out, 1);
        // Event counts agree with the Stats the array kept itself.
        let s = arr.stats();
        assert_eq!(sink.cycles, s.cycles());
        assert_eq!(sink.words_in, s.input_words());
        assert_eq!(sink.words_out, s.output_words());
        assert_eq!(sink.busy_fires, (0..3).map(|i| s.busy(i)).sum::<u64>());
    }

    #[test]
    fn idle_cycles_count_as_stalls() {
        let mut arr = wires(2);
        arr.cycle(Some(1), |_| (), |_| (), &mut NullSink);
        arr.cycle(None, |_| (), |_| (), &mut NullSink);
        arr.cycle(None, |_| (), |_| (), &mut NullSink); // word gone: nobody busy
        arr.cycle(None, |_| (), |_| (), &mut NullSink);
        assert_eq!(arr.stats().stall_cycles(), 2);
    }

    #[test]
    fn tail_latch_holds_until_next_cycle() {
        let mut arr = wires(1);
        arr.cycle(Some(9), |_| (), |_| (), &mut NullSink);
        assert_eq!(arr.tail(), Some(9));
        arr.cycle(None, |_| (), |_| (), &mut NullSink);
        assert_eq!(arr.tail(), None);
    }

    #[test]
    fn try_new_reports_empty_array() {
        use sdp_fault::SdpError;
        assert!(matches!(
            LinearArray::<Wire>::try_new(vec![]),
            Err(SdpError::EmptyArray)
        ));
        assert!(LinearArray::try_new(vec![Wire::default()]).is_ok());
    }

    /// PE that increments every word flowing through (distinguishes a
    /// working column from a bypassed wire).
    #[derive(Default)]
    struct Plus1 {
        busy: bool,
    }

    impl ProcessingElement for Plus1 {
        type Flow = u32;
        type Ext = ();
        type Ctrl = ();
        fn step(&mut self, flow_in: Option<u32>, _: (), _: ()) -> Option<u32> {
            self.busy = flow_in.is_some();
            flow_in.map(|v| v + 1)
        }
        fn was_busy(&self) -> bool {
            self.busy
        }
    }

    #[test]
    fn bypassed_pe_is_a_one_cycle_wire() {
        let mut arr = LinearArray::new(vec![Plus1::default(), Plus1::default(), Plus1::default()]);
        arr.set_bypass(1, true);
        assert!(arr.is_bypassed(1));
        let mut outs = Vec::new();
        outs.extend(arr.cycle(Some(0), |_| (), |_| (), &mut NullSink));
        outs.extend(arr.drain(4, |_| (), |_| (), &mut NullSink));
        // Latency is still one cycle per column, but only two PEs add 1.
        assert_eq!(outs, vec![2]);
        assert_eq!(arr.stats().busy(1), 0);
    }

    #[test]
    fn injected_transient_flip_corrupts_one_word() {
        use sdp_fault::{Fault, FaultPlan, PlanInjector};
        use sdp_trace::CountingSink;
        let plan = FaultPlan::new().with(Fault::TransientFlip {
            pe: 0,
            cycle: 0,
            bit: 0,
        });
        let mut inj = PlanInjector::new(plan);
        let mut sink = CountingSink::default();
        let mut arr = wires(2);
        arr.cycle_fault(Some(4u32), |_| (), |_| (), &mut inj, &mut sink);
        arr.cycle_fault(None, |_| (), |_| (), &mut inj, &mut sink);
        let out = arr.tail();
        assert_eq!(out, Some(5)); // bit 0 of 4 flipped once
        assert_eq!(sink.faults_injected, 1);
    }

    #[test]
    fn bypass_shields_pe_from_injection() {
        use sdp_fault::{Fault, FaultPlan, PlanInjector};
        let plan = FaultPlan::new().with(Fault::StuckAt {
            pe: 1,
            cycle: 0,
            value: 77,
        });
        let mut inj = PlanInjector::new(plan);
        let mut arr = wires(3);
        arr.set_bypass(1, true);
        let mut out = Vec::new();
        for head in [Some(4u32), None, None, None] {
            if let Some(w) = arr.cycle_fault(head, |_| (), |_| (), &mut inj, &mut NullSink) {
                out.push(w);
            }
        }
        // The stuck latch is routed around: the word survives intact.
        assert_eq!(out, vec![4]);
    }

    #[test]
    fn no_faults_injector_is_identity() {
        use sdp_fault::NoFaults;
        use sdp_trace::CountingSink;
        let mut plain = wires(3);
        let mut faulty = wires(3);
        let mut sink_a = CountingSink::default();
        let mut sink_b = CountingSink::default();
        for head in [Some(7u32), None, Some(9), None] {
            plain.cycle(head, |_| (), |_| (), &mut sink_a);
            faulty.cycle_fault(head, |_| (), |_| (), &mut NoFaults, &mut sink_b);
        }
        assert_eq!(plain.tail(), faulty.tail());
        assert_eq!(sink_a, sink_b);
        assert_eq!(plain.stats(), faulty.stats());
    }
}
