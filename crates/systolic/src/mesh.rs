//! A two-dimensional mesh of PEs with latched nearest-neighbour links.
//!
//! The divide-and-conquer analysis of §4 treats "a systolic array that
//! multiplies two matrices in T₁ time" as its unit of hardware; the
//! classic such array (Kung's design, the paper's reference \[17\]) is a
//! 2-D mesh where operands stream in from the west and north edges and
//! results accumulate in place.  This module provides the *engine* for
//! any such design: a rectangular grid of PEs where each PE reads the
//! words latched on its west and north links, computes, and drives its
//! east and south links — with the same two-phase (read-then-commit)
//! clock discipline as [`crate::array::LinearArray`].

// Grid/stage updates read clearer with explicit indices.
#![allow(clippy::needless_range_loop)]
use crate::instrument::Stats;
use sdp_fault::{FaultInjector, FaultyWord, SdpError};
use sdp_trace::{Event, TraceSink};

/// One PE of a 2-D mesh.
pub trait MeshProcessingElement {
    /// Word type moving west → east.
    type Horiz: Copy;
    /// Word type moving north → south.
    type Vert: Copy;
    /// Broadcast control word.
    type Ctrl: Copy;

    /// One clock cycle: consume latched west/north words, produce
    /// east/south words (usually a pass-through plus local accumulate).
    fn step(
        &mut self,
        west: Option<Self::Horiz>,
        north: Option<Self::Vert>,
        ctrl: Self::Ctrl,
    ) -> (Option<Self::Horiz>, Option<Self::Vert>);

    /// Whether the previous `step` did useful work.
    fn was_busy(&self) -> bool {
        true
    }

    /// An observable register value for waveform export (usually the
    /// local accumulator).  `None` keeps the VCD value signal at `x`.
    fn probe(&self) -> Option<i64> {
        None
    }
}

/// A `rows × cols` mesh with latched links.
pub struct Mesh2D<P: MeshProcessingElement> {
    rows: usize,
    cols: usize,
    pes: Vec<P>,
    /// `h[r][c]` = word latched on the horizontal link *into* PE `(r, c)`;
    /// column index `cols` is the east edge output.
    h: Vec<Vec<Option<P::Horiz>>>,
    /// `v[r][c]` = word latched on the vertical link *into* PE `(r, c)`;
    /// row index `rows` is the south edge output.
    v: Vec<Vec<Option<P::Vert>>>,
    /// Double buffers for the link latches plus this cycle's edge
    /// injections — persistent so the cycle loop never allocates grid
    /// state (only the small per-cycle edge-output vectors it returns).
    h_next: Vec<Vec<Option<P::Horiz>>>,
    v_next: Vec<Vec<Option<P::Vert>>>,
    west_edge: Vec<Option<P::Horiz>>,
    north_edge: Vec<Option<P::Vert>>,
    stats: Stats,
}

impl<P: MeshProcessingElement> Mesh2D<P> {
    /// Builds a mesh from row-major PEs.
    pub fn new(rows: usize, cols: usize, pes: Vec<P>) -> Mesh2D<P> {
        Self::try_new(rows, cols, pes).unwrap_or_else(|e| panic!("{e}"))
    }

    /// Builds a mesh, returning a typed [`SdpError`] instead of
    /// panicking on a zero dimension or a wrong PE count.
    pub fn try_new(rows: usize, cols: usize, pes: Vec<P>) -> Result<Mesh2D<P>, SdpError> {
        if rows == 0 || cols == 0 {
            return Err(SdpError::MeshDims { rows, cols });
        }
        if pes.len() != rows * cols {
            return Err(SdpError::PeCount {
                expected: rows * cols,
                got: pes.len(),
            });
        }
        Ok(Mesh2D {
            rows,
            cols,
            pes,
            h: vec![vec![None; cols + 1]; rows],
            v: vec![vec![None; cols]; rows + 1],
            h_next: vec![vec![None; cols + 1]; rows],
            v_next: vec![vec![None; cols]; rows + 1],
            west_edge: vec![None; rows],
            north_edge: vec![None; cols],
            stats: Stats::new(rows * cols),
        })
    }

    /// Grid shape `(rows, cols)`.
    pub fn shape(&self) -> (usize, usize) {
        (self.rows, self.cols)
    }

    /// Immutable access to PE `(r, c)`.
    pub fn pe(&self, r: usize, c: usize) -> &P {
        &self.pes[r * self.cols + c]
    }

    /// Engine statistics.
    pub fn stats(&self) -> &Stats {
        &self.stats
    }

    /// Mutable engine statistics, for folding in co-simulated
    /// accounting.
    pub fn stats_mut(&mut self) -> &mut Stats {
        &mut self.stats
    }

    /// Advances one clock cycle.
    ///
    /// * `west_in(r)` — word presented on row `r`'s west edge;
    /// * `north_in(c)` — word presented on column `c`'s north edge;
    /// * `ctrl(r, c)` — per-PE control word;
    /// * `sink` — observes the cycle.  PE indices in the emitted events
    ///   are row-major (`r * cols + c`); mesh latches are per-direction
    ///   and internal, so no `LatchCommit` events are emitted — edge I/O
    ///   appears as `WordIn`/`WordOut`.
    ///
    /// Returns `(east_out, south_out)`: this cycle's edge outputs.
    #[allow(clippy::type_complexity)]
    pub fn cycle<S: TraceSink>(
        &mut self,
        west_in: impl FnMut(usize) -> Option<P::Horiz>,
        north_in: impl FnMut(usize) -> Option<P::Vert>,
        ctrl: impl FnMut(usize, usize) -> P::Ctrl,
        sink: &mut S,
    ) -> (Vec<Option<P::Horiz>>, Vec<Option<P::Vert>>) {
        self.cycle_core(west_in, north_in, ctrl, sink, |_, _, out, _| out)
    }

    /// [`cycle`](Self::cycle) with a [`FaultInjector`] deciding, per PE
    /// and cycle, whether the words the PE drives east and south are
    /// corrupted.  One injected fault corrupts both output latches of
    /// the PE (the classical single-PE failure model); with
    /// [`sdp_fault::NoFaults`] the hook folds away.
    #[allow(clippy::type_complexity)]
    pub fn cycle_fault<F: FaultInjector, S: TraceSink>(
        &mut self,
        west_in: impl FnMut(usize) -> Option<P::Horiz>,
        north_in: impl FnMut(usize) -> Option<P::Vert>,
        ctrl: impl FnMut(usize, usize) -> P::Ctrl,
        injector: &mut F,
        sink: &mut S,
    ) -> (Vec<Option<P::Horiz>>, Vec<Option<P::Vert>>)
    where
        P::Horiz: FaultyWord,
        P::Vert: FaultyWord,
    {
        self.cycle_core(west_in, north_in, ctrl, sink, |pe, cycle, out, sink| {
            if F::ENABLED {
                let (east, south) = out;
                if east.is_some() || south.is_some() {
                    if let Some(fault) = injector.pe_fault(pe, cycle) {
                        if S::ENABLED {
                            sink.record(Event::FaultInjected {
                                kind: fault.kind(),
                                site: pe,
                            });
                        }
                        return (east.map(|w| w.apply(fault)), south.map(|w| w.apply(fault)));
                    }
                }
                return (east, south);
            }
            out
        })
    }

    /// The one true cycle body: `corrupt` observes each PE's
    /// `(east, south)` output pair and may replace it (identity on the
    /// fault-free path, where it inlines to nothing).
    #[allow(clippy::type_complexity)]
    fn cycle_core<S: TraceSink>(
        &mut self,
        mut west_in: impl FnMut(usize) -> Option<P::Horiz>,
        mut north_in: impl FnMut(usize) -> Option<P::Vert>,
        mut ctrl: impl FnMut(usize, usize) -> P::Ctrl,
        sink: &mut S,
        mut corrupt: impl FnMut(
            u32,
            u64,
            (Option<P::Horiz>, Option<P::Vert>),
            &mut S,
        ) -> (Option<P::Horiz>, Option<P::Vert>),
    ) -> (Vec<Option<P::Horiz>>, Vec<Option<P::Vert>>) {
        let (rows, cols) = (self.rows, self.cols);
        let now = self.stats.cycles();
        if S::ENABLED {
            sink.record(Event::CycleStart { cycle: now });
        }
        // Latch this cycle's edge injections; interior reads below use
        // the pre-cycle state still held in `h`/`v` while writes go to
        // the `*_next` double buffers — no per-cycle grid allocation.
        for r in 0..rows {
            self.west_edge[r] = west_in(r);
            if self.west_edge[r].is_some() {
                self.stats.record_input_word();
                if S::ENABLED {
                    sink.record(Event::WordIn);
                }
            }
        }
        for c in 0..cols {
            self.north_edge[c] = north_in(c);
            if self.north_edge[c].is_some() {
                self.stats.record_input_word();
                if S::ENABLED {
                    sink.record(Event::WordIn);
                }
            }
        }
        let mut any_busy = false;
        for r in 0..rows {
            for c in 0..cols {
                let west = if c == 0 {
                    self.west_edge[r]
                } else {
                    self.h[r][c]
                };
                let north = if r == 0 {
                    self.north_edge[c]
                } else {
                    self.v[r][c]
                };
                let pe = &mut self.pes[r * cols + c];
                let stepped = pe.step(west, north, ctrl(r, c));
                let (east, south) = corrupt((r * cols + c) as u32, now, stepped, &mut *sink);
                self.h_next[r][c + 1] = east;
                self.v_next[r + 1][c] = south;
                let busy = pe.was_busy();
                if busy {
                    self.stats.record_busy(r * cols + c);
                    any_busy = true;
                }
                if S::ENABLED {
                    sink.record(Event::PeFire {
                        pe: (r * cols + c) as u32,
                        busy,
                        value: pe.probe(),
                    });
                }
            }
        }
        // The west/north borders of the next state are edge-fed and never
        // written by the loop above; clear them before the swap.
        for r in 0..rows {
            self.h_next[r][0] = None;
        }
        for c in 0..cols {
            self.v_next[0][c] = None;
        }
        std::mem::swap(&mut self.h, &mut self.h_next);
        std::mem::swap(&mut self.v, &mut self.v_next);
        let east_out: Vec<_> = (0..rows).map(|r| self.h[r][cols]).collect();
        let south_out: Vec<_> = (0..cols).map(|c| self.v[rows][c]).collect();
        let out_words = east_out.iter().filter(|w| w.is_some()).count()
            + south_out.iter().filter(|w| w.is_some()).count();
        for _ in 0..out_words {
            self.stats.record_output_word();
            if S::ENABLED {
                sink.record(Event::WordOut);
            }
        }
        self.stats.record_cycle();
        if !any_busy {
            self.stats.record_stall_cycle();
        }
        (east_out, south_out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sdp_trace::NullSink;

    /// Pass-through PE: words cross the mesh unchanged.
    #[derive(Default)]
    struct Cross {
        busy: bool,
    }

    impl MeshProcessingElement for Cross {
        type Horiz = u32;
        type Vert = u32;
        type Ctrl = ();
        fn step(
            &mut self,
            west: Option<u32>,
            north: Option<u32>,
            _: (),
        ) -> (Option<u32>, Option<u32>) {
            self.busy = west.is_some() || north.is_some();
            (west, north)
        }
        fn was_busy(&self) -> bool {
            self.busy
        }
    }

    fn mesh(rows: usize, cols: usize) -> Mesh2D<Cross> {
        Mesh2D::new(
            rows,
            cols,
            (0..rows * cols).map(|_| Cross::default()).collect(),
        )
    }

    #[test]
    fn horizontal_word_crosses_in_cols_cycles() {
        let mut m = mesh(2, 3);
        let (e, _) = m.cycle(
            |r| (r == 0).then_some(7),
            |_| None,
            |_, _| (),
            &mut NullSink,
        );
        assert_eq!(e, vec![None, None]);
        let (e, _) = m.cycle(|_| None, |_| None, |_, _| (), &mut NullSink);
        assert_eq!(e, vec![None, None]);
        let (e, _) = m.cycle(|_| None, |_| None, |_, _| (), &mut NullSink);
        assert_eq!(e, vec![Some(7), None]);
    }

    #[test]
    fn vertical_word_crosses_in_rows_cycles() {
        let mut m = mesh(2, 3);
        m.cycle(
            |_| None,
            |c| (c == 2).then_some(9),
            |_, _| (),
            &mut NullSink,
        );
        let (_, s) = m.cycle(|_| None, |_| None, |_, _| (), &mut NullSink);
        assert_eq!(s, vec![None, None, Some(9)]);
    }

    #[test]
    fn streams_do_not_interfere() {
        let mut m = mesh(2, 2);
        // inject both directions simultaneously on all edges
        m.cycle(
            |r| Some(10 + r as u32),
            |c| Some(20 + c as u32),
            |_, _| (),
            &mut NullSink,
        );
        let (e, s) = m.cycle(|_| None, |_| None, |_, _| (), &mut NullSink);
        assert_eq!(e, vec![Some(10), Some(11)]);
        assert_eq!(s, vec![Some(20), Some(21)]);
    }

    #[test]
    fn stats_track_io_and_busy() {
        let mut m = mesh(2, 2);
        m.cycle(|_| Some(1), |_| Some(2), |_, _| (), &mut NullSink);
        let u = m.stats();
        assert_eq!(u.input_words(), 4);
        assert_eq!(u.cycles(), 1);
        // first column + first row PEs busy: (0,0) got both, (0,1) got
        // vertical, (1,0) got horizontal -> 3 busy, (1,1) idle
        let busy: u64 = (0..4).map(|i| u.busy(i)).sum();
        assert_eq!(busy, 3);
    }

    #[test]
    #[should_panic(expected = "rows*cols")]
    fn wrong_pe_count_rejected() {
        let _ = Mesh2D::new(2, 2, vec![Cross::default()]);
    }

    #[test]
    fn try_new_reports_shape_errors() {
        use sdp_fault::SdpError;
        assert!(matches!(
            Mesh2D::<Cross>::try_new(0, 2, vec![]),
            Err(SdpError::MeshDims { rows: 0, cols: 2 })
        ));
        assert!(matches!(
            Mesh2D::try_new(2, 2, vec![Cross::default()]),
            Err(SdpError::PeCount {
                expected: 4,
                got: 1
            })
        ));
    }

    #[test]
    fn injected_mesh_fault_corrupts_crossing_word() {
        use sdp_fault::{Fault, FaultPlan, NoFaults, PlanInjector};
        use sdp_trace::CountingSink;
        let plan = FaultPlan::new().with(Fault::StuckAt {
            pe: 0,
            cycle: 0,
            value: 99,
        });
        let mut inj = PlanInjector::new(plan);
        let mut sink = CountingSink::default();
        let mut m = mesh(1, 2);
        m.cycle_fault(|_| Some(7u32), |_| None, |_, _| (), &mut inj, &mut sink);
        let (e, _) = m.cycle_fault(|_| None, |_| None, |_, _| (), &mut inj, &mut sink);
        // PE (0,0) is stuck: the word arrives at the east edge as 99.
        assert_eq!(e, vec![Some(99)]);
        assert!(sink.faults_injected >= 1);

        // NoFaults is the identity.
        let mut plain = mesh(1, 2);
        let mut clean = mesh(1, 2);
        plain.cycle(|_| Some(7u32), |_| None, |_, _| (), &mut NullSink);
        clean.cycle_fault(
            |_| Some(7u32),
            |_| None,
            |_, _| (),
            &mut NoFaults,
            &mut NullSink,
        );
        assert_eq!(plain.stats(), clean.stats());
    }

    #[test]
    fn traced_mesh_counts_match_stats() {
        use sdp_trace::CountingSink;
        let mut m = mesh(2, 2);
        let mut sink = CountingSink::default();
        m.cycle(|_| Some(1), |_| Some(2), |_, _| (), &mut sink);
        m.cycle(|_| None, |_| None, |_, _| (), &mut sink);
        let s = m.stats();
        assert_eq!(sink.cycles, s.cycles());
        assert_eq!(sink.words_in, s.input_words());
        assert_eq!(sink.words_out, s.output_words());
        assert_eq!(sink.pe_fires, 8); // 4 PEs × 2 cycles
        assert_eq!(sink.busy_fires, (0..4).map(|i| s.busy(i)).sum::<u64>());
    }
}
