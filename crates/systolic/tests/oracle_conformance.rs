//! Scheduler-side conformance hooks: the `TreeScheduler` is checked
//! against the oracle's independently re-derived greedy pairing model
//! and Eq. 29 on sampled `(N, K)` shapes.

use proptest::proptest;
use sdp_oracle::strategies::ScheduleShapeStrategy;
use sdp_oracle::{diff, invariants, reference};
use sdp_systolic::TreeScheduler;
use sdp_trace::NullSink;

proptest! {
    #[test]
    fn schedules_match_oracle_on_sampled_shapes(shape in ScheduleShapeStrategy) {
        diff::check_schedule(shape.0, shape.1);
    }

    #[test]
    fn kt2_is_consistent_with_the_oracle_eq29(shape in ScheduleShapeStrategy) {
        let (n, k) = shape;
        let t = reference::eq29_ref(n, k);
        assert_eq!(sdp_systolic::scheduler::eq29_kt2(n, k), k * t * t);
        invariants::check_thm1(n, k, &TreeScheduler.simulate(n, k, &mut NullSink).unwrap());
    }
}
