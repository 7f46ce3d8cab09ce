//! Broadcast bus with a circulating pick-up token.
//!
//! §3.2 of the paper notes that although Figure 5 draws `m` distinct
//! feedback lines, "only one of the feedback lines is used in any
//! iteration.  Hence a single broadcast bus suffices, and the station to
//! pick up the data from the bus is controlled by a circulating token."
//! [`TokenBus`] models exactly that: one word per cycle, delivered to the
//! single PE currently holding the token, with the token advancing
//! round-robin.
//!
//! Bus accounting lives in the shared [`Stats`] registry rather than in
//! private counters, so a design's bus-word and token-rotation claims
//! (§3.2's I/O analysis) are verifiable from the same report as its
//! cycle and utilization numbers: pass the owning array's `stats_mut()`
//! to [`TokenBus::settle`].

use crate::instrument::Stats;
use sdp_fault::{BusFault, FaultInjector, FaultyWord, SdpError};
use sdp_trace::{Event, FaultKind, TraceSink};

/// A single-word broadcast bus with a circulating pick-up token over `m`
/// stations.
#[derive(Clone, Debug)]
pub struct TokenBus<W> {
    m: usize,
    token: usize,
    word: Option<W>,
    /// Words driven so far (the ordinal fault plans target).
    driven: u64,
    /// Deliveries attempted so far (the token-rotation ordinal).
    deliveries: u64,
}

impl<W: Copy> TokenBus<W> {
    /// A bus over `m` stations; the token starts at station 0.
    pub fn new(m: usize) -> TokenBus<W> {
        Self::try_new(m).unwrap_or_else(|e| panic!("{e}"))
    }

    /// [`new`](Self::new), returning [`SdpError::EmptyBus`] instead of
    /// panicking when `m` is zero.
    pub fn try_new(m: usize) -> Result<TokenBus<W>, SdpError> {
        if m == 0 {
            return Err(SdpError::EmptyBus);
        }
        Ok(TokenBus {
            m,
            token: 0,
            word: None,
            driven: 0,
            deliveries: 0,
        })
    }

    /// Number of stations.
    pub fn stations(&self) -> usize {
        self.m
    }

    /// The station currently holding the token.
    pub fn token_at(&self) -> usize {
        self.token
    }

    /// Drives `word` onto the bus for the current cycle, reporting a
    /// `BusDrive` event to `sink`.
    pub fn drive<S: TraceSink>(&mut self, word: W, sink: &mut S) {
        if S::ENABLED {
            sink.record(Event::BusDrive {
                station: self.token as u32,
            });
        }
        self.word = Some(word);
        self.driven += 1;
    }

    /// Completes the cycle: delivers the driven word (if any) to the token
    /// holder, clears the bus, and advances the token **only when a word
    /// was delivered** (the token marks the next station awaiting data).
    /// Delivery and token-rotation accounting fold into `stats`; the
    /// events go to `sink`.
    ///
    /// Returns `Some((station, word))` when a delivery happened.
    pub fn settle<S: TraceSink>(&mut self, stats: &mut Stats, sink: &mut S) -> Option<(usize, W)> {
        self.word.take().map(|w| {
            let st = self.token;
            self.token = (self.token + 1) % self.m;
            self.deliveries += 1;
            stats.record_bus_word();
            stats.record_token_rotation();
            if S::ENABLED {
                sink.record(Event::BusDeliver { station: st as u32 });
                sink.record(Event::TokenAdvance {
                    from: st as u32,
                    to: self.token as u32,
                });
            }
            (st, w)
        })
    }

    /// [`settle`](Self::settle) with a [`FaultInjector`]
    /// that may drop or corrupt the driven word, or lose the token
    /// rotation (the word is delivered but the token stays put).  A
    /// dropped word advances nothing: the token still marks the station
    /// awaiting data.  With [`sdp_fault::NoFaults`] this is exactly
    /// `settle`.
    pub fn settle_fault<F: FaultInjector, S: TraceSink>(
        &mut self,
        stats: &mut Stats,
        injector: &mut F,
        sink: &mut S,
    ) -> Option<(usize, W)>
    where
        W: FaultyWord,
    {
        if !F::ENABLED {
            return self.settle(stats, sink);
        }
        let mut word = self.word.take()?;
        // Ordinal of the word currently on the bus (0-based).
        match injector.bus_fault(self.driven - 1) {
            Some(fault @ BusFault::Drop) => {
                if S::ENABLED {
                    sink.record(Event::FaultInjected {
                        kind: fault.kind(),
                        site: self.token as u32,
                    });
                }
                return None;
            }
            Some(fault @ BusFault::FlipBit(bit)) => {
                if S::ENABLED {
                    sink.record(Event::FaultInjected {
                        kind: fault.kind(),
                        site: self.token as u32,
                    });
                }
                word = word.flip_bit(bit);
            }
            None => {}
        }
        let st = self.token;
        let lost = injector.token_lost(self.deliveries);
        self.deliveries += 1;
        stats.record_bus_word();
        if S::ENABLED {
            sink.record(Event::BusDeliver { station: st as u32 });
        }
        if lost {
            if S::ENABLED {
                sink.record(Event::FaultInjected {
                    kind: FaultKind::LostToken,
                    site: st as u32,
                });
            }
        } else {
            self.token = (self.token + 1) % self.m;
            stats.record_token_rotation();
            if S::ENABLED {
                sink.record(Event::TokenAdvance {
                    from: st as u32,
                    to: self.token as u32,
                });
            }
        }
        Some((st, word))
    }

    /// Resets the token to station 0 (e.g. between matrix boundaries).
    pub fn reset_token(&mut self) {
        self.token = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sdp_trace::{CountingSink, NullSink};

    #[test]
    fn round_robin_delivery() {
        let mut bus = TokenBus::new(3);
        let mut stats = Stats::new(3);
        let mut sink = NullSink;
        bus.drive(10, &mut NullSink);
        assert_eq!(bus.settle(&mut stats, &mut sink), Some((0, 10)));
        bus.drive(11, &mut NullSink);
        assert_eq!(bus.settle(&mut stats, &mut sink), Some((1, 11)));
        bus.drive(12, &mut NullSink);
        assert_eq!(bus.settle(&mut stats, &mut sink), Some((2, 12)));
        bus.drive(13, &mut NullSink);
        assert_eq!(bus.settle(&mut stats, &mut sink), Some((0, 13))); // wrapped
        assert_eq!(stats.bus_words(), 4);
        assert_eq!(stats.token_rotations(), 4);
    }

    #[test]
    fn idle_cycle_does_not_advance_token() {
        let mut bus = TokenBus::<u32>::new(2);
        let mut stats = Stats::new(2);
        assert_eq!(bus.settle(&mut stats, &mut NullSink), None);
        assert_eq!(bus.token_at(), 0);
        bus.drive(5, &mut NullSink);
        assert_eq!(bus.settle(&mut stats, &mut NullSink), Some((0, 5)));
        assert_eq!(bus.token_at(), 1);
    }

    #[test]
    fn idle_settle_records_nothing() {
        let mut bus = TokenBus::<u32>::new(2);
        let mut stats = Stats::new(2);
        let mut sink = CountingSink::default();
        assert_eq!(bus.settle(&mut stats, &mut sink), None);
        assert_eq!(stats.bus_words(), 0);
        assert_eq!(stats.token_rotations(), 0);
        assert_eq!(sink.bus_delivers, 0);
        assert_eq!(sink.token_advances, 0);
    }

    #[test]
    fn bus_word_is_cleared_after_settle() {
        let mut bus = TokenBus::new(2);
        let mut stats = Stats::new(2);
        bus.drive(1, &mut NullSink);
        bus.settle(&mut stats, &mut NullSink);
        assert_eq!(bus.settle(&mut stats, &mut NullSink), None);
    }

    #[test]
    fn reset_token() {
        let mut bus = TokenBus::new(3);
        let mut stats = Stats::new(3);
        bus.drive(1, &mut NullSink);
        bus.settle(&mut stats, &mut NullSink);
        bus.drive(2, &mut NullSink);
        bus.settle(&mut stats, &mut NullSink);
        bus.reset_token();
        assert_eq!(bus.token_at(), 0);
    }

    #[test]
    fn traced_bus_emits_drive_deliver_advance() {
        let mut bus = TokenBus::new(2);
        let mut stats = Stats::new(2);
        let mut sink = CountingSink::default();
        bus.drive(7, &mut sink);
        let delivered = bus.settle(&mut stats, &mut sink);
        assert_eq!(delivered, Some((0, 7)));
        assert_eq!(sink.bus_drives, 1);
        assert_eq!(sink.bus_delivers, 1);
        assert_eq!(sink.token_advances, 1);
    }

    #[test]
    #[should_panic(expected = "at least one station")]
    fn zero_station_bus_rejected() {
        let _ = TokenBus::<u8>::new(0);
    }

    #[test]
    fn try_new_reports_empty_bus() {
        use sdp_fault::SdpError;
        assert!(matches!(
            TokenBus::<u8>::try_new(0),
            Err(SdpError::EmptyBus)
        ));
        assert!(TokenBus::<u8>::try_new(1).is_ok());
    }

    #[test]
    fn dropped_word_leaves_token_in_place() {
        use sdp_fault::{Fault, FaultPlan, PlanInjector};
        let plan = FaultPlan::new().with(Fault::DropBusWord { word: 1 });
        let mut inj = PlanInjector::new(plan);
        let mut bus = TokenBus::new(3);
        let mut stats = Stats::new(3);
        let mut sink = CountingSink::default();
        bus.drive(10u64, &mut NullSink);
        assert_eq!(
            bus.settle_fault(&mut stats, &mut inj, &mut sink),
            Some((0, 10))
        );
        bus.drive(11, &mut NullSink);
        // Word ordinal 1 is dropped: no delivery, token stays at 1.
        assert_eq!(bus.settle_fault(&mut stats, &mut inj, &mut sink), None);
        assert_eq!(bus.token_at(), 1);
        bus.drive(12, &mut NullSink);
        assert_eq!(
            bus.settle_fault(&mut stats, &mut inj, &mut sink),
            Some((1, 12))
        );
        assert_eq!(stats.bus_words(), 2);
        assert_eq!(sink.faults_injected, 1);
    }

    #[test]
    fn corrupt_word_and_lost_token() {
        use sdp_fault::{Fault, FaultPlan, PlanInjector};
        let plan = FaultPlan::new()
            .with(Fault::CorruptBusWord { word: 0, bit: 0 })
            .with(Fault::LoseTokenRotation { rotation: 1 });
        let mut inj = PlanInjector::new(plan);
        let mut bus = TokenBus::new(2);
        let mut stats = Stats::new(2);
        let mut sink = CountingSink::default();
        bus.drive(4u64, &mut NullSink);
        // Bit 0 flipped on delivery.
        assert_eq!(
            bus.settle_fault(&mut stats, &mut inj, &mut sink),
            Some((0, 5))
        );
        assert_eq!(bus.token_at(), 1);
        bus.drive(6, &mut NullSink);
        // Rotation 1 is lost: word delivered, token stays put.
        assert_eq!(
            bus.settle_fault(&mut stats, &mut inj, &mut sink),
            Some((1, 6))
        );
        assert_eq!(bus.token_at(), 1);
        assert_eq!(stats.token_rotations(), 1);
        assert_eq!(sink.faults_injected, 2);
        assert_eq!(sink.token_advances, 1);
    }

    #[test]
    fn no_faults_settle_matches_plain() {
        use sdp_fault::NoFaults;
        let mut a = TokenBus::new(3);
        let mut b = TokenBus::new(3);
        let mut stats_a = Stats::new(3);
        let mut stats_b = Stats::new(3);
        for w in 0..5u64 {
            a.drive(w, &mut NullSink);
            b.drive(w, &mut NullSink);
            let pa = a.settle(&mut stats_a, &mut NullSink);
            let pb = b.settle_fault(&mut stats_b, &mut NoFaults, &mut NullSink);
            assert_eq!(pa, pb);
        }
        assert_eq!(stats_a, stats_b);
    }
}
