//! The `Codec` laws on arbitrary values of the observability types a
//! snapshot image carries.

use nim_obs::{CategoryMask, ObsConfig};
use nim_types::codec::assert_laws;
use proptest::prelude::*;

proptest! {
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
