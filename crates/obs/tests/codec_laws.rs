//! The `Codec` laws on arbitrary values of the observability types a
//! snapshot's `OBS ` section carries.

use nim_obs::{CategoryMask, LatencyHistogram, Metric, ObsConfig, SampleRow};
use nim_types::codec::assert_laws;
use proptest::prelude::*;

fn histogram() -> impl Strategy<Value = LatencyHistogram> {
    proptest::collection::vec(any::<u64>(), 0..20).prop_map(|latencies| {
        let mut h = LatencyHistogram::default();
        for l in latencies {
            h.record(l);
        }
        h
    })
}

fn metric() -> impl Strategy<Value = Metric> {
    prop_oneof![
        any::<u64>().prop_map(Metric::Counter),
        (-1e12..1e12).prop_map(Metric::Gauge),
        histogram().prop_map(Metric::Histogram),
    ]
}

proptest! {
    #[test]
    fn metrics_and_histograms(m in metric(), h in histogram()) {
        prop_assert_eq!(assert_laws(&m), m);
        prop_assert_eq!(assert_laws(&h), h);
    }

    #[test]
    fn sample_rows(cycle in any::<u64>(), wall_secs in 0.0..1e6, values in proptest::collection::vec(-1e9..1e9, 0..8)) {
        let back = assert_laws(&SampleRow { cycle, wall_secs, values: values.clone() });
        prop_assert_eq!((back.cycle, back.wall_secs, back.values), (cycle, wall_secs, values));
    }

    #[test]
    fn configurations(
        (trace, trace_capacity, bits) in (any::<bool>(), any::<usize>(), any::<u16>()),
        (sample_every, txn_sample) in (any::<u64>(), any::<u64>()),
    ) {
        // Bits above the known categories are dropped on the way in.
        let mask = CategoryMask::from_bits(bits);
        prop_assert_eq!(assert_laws(&mask), mask);
        let back = assert_laws(&ObsConfig { trace, trace_capacity, mask, sample_every, txn_sample });
        prop_assert_eq!(
            (back.trace, back.trace_capacity, back.mask, back.sample_every, back.txn_sample),
            (trace, trace_capacity, mask, sample_every, txn_sample)
        );
    }
}
