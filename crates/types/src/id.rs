//! Strongly-typed identifiers.
//!
//! Every entity in the simulated chip — CPUs, cache-bank clusters, banks,
//! vertical pillars, in-flight packets — gets its own newtype so that the
//! type system keeps the many small integers flying around the simulator
//! from being mixed up ([C-NEWTYPE]).
//!
//! [C-NEWTYPE]: https://rust-lang.github.io/api-guidelines/type-safety.html

use core::fmt;

macro_rules! define_id {
    ($(#[$doc:meta])* $name:ident, $repr:ty, $prefix:literal) => {
        $(#[$doc])*
        #[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
        pub struct $name(pub $repr);

        impl $name {
            /// Returns the raw index value.
            #[inline]
            pub const fn index(self) -> usize {
                self.0 as usize
            }

            /// Creates an identifier from a raw `usize` index.
            ///
            /// # Panics
            ///
            /// Panics if `index` does not fit in the underlying
            /// representation.
            #[inline]
            pub fn from_index(index: usize) -> Self {
                Self(<$repr>::try_from(index).expect(concat!(
                    stringify!($name),
                    " index out of range"
                )))
            }
        }

        impl fmt::Debug for $name {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                write!(f, concat!($prefix, "{}"), self.0)
            }
        }

        impl fmt::Display for $name {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                write!(f, concat!($prefix, "{}"), self.0)
            }
        }

        impl From<$repr> for $name {
            fn from(value: $repr) -> Self {
                Self(value)
            }
        }

        impl From<$name> for $repr {
            fn from(value: $name) -> $repr {
                value.0
            }
        }
    };
}

define_id! {
    /// Identifies one processor core.
    CpuId, u16, "cpu"
}

define_id! {
    /// Identifies one cluster of L2 cache banks (with its own tag array).
    ClusterId, u16, "cl"
}

define_id! {
    /// Identifies one L2 cache bank (globally, across all clusters/layers).
    BankId, u32, "bank"
}

define_id! {
    /// Identifies one vertical dTDMA communication pillar.
    PillarId, u16, "pillar"
}

define_id! {
    /// Identifies one packet travelling through the on-chip network.
    PacketId, u64, "pkt"
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ids_round_trip_through_usize() {
        assert_eq!(CpuId::from_index(7).index(), 7);
        assert_eq!(ClusterId::from_index(15).index(), 15);
        assert_eq!(BankId::from_index(255).index(), 255);
        assert_eq!(PillarId::from_index(3).index(), 3);
        assert_eq!(PacketId::from_index(123_456).index(), 123_456);
    }

    #[test]
    fn ids_round_trip_through_raw_repr() {
        assert_eq!(u16::from(CpuId::from(3u16)), 3);
        assert_eq!(u32::from(BankId::from(9u32)), 9);
    }

    #[test]
    #[should_panic(expected = "CpuId index out of range")]
    fn cpu_id_overflow_panics() {
        let _ = CpuId::from_index(usize::from(u16::MAX) + 1);
    }

    #[test]
    fn display_and_debug_have_prefixes() {
        assert_eq!(format!("{}", CpuId(2)), "cpu2");
        assert_eq!(format!("{:?}", ClusterId(5)), "cl5");
        assert_eq!(format!("{}", BankId(7)), "bank7");
        assert_eq!(format!("{:?}", PillarId(1)), "pillar1");
        assert_eq!(format!("{}", PacketId(9)), "pkt9");
    }

    #[test]
    fn ids_are_ordered_and_hashable() {
        use std::collections::HashSet;
        assert!(CpuId(1) < CpuId(2));
        let set: HashSet<BankId> = [BankId(1), BankId(1), BankId(2)].into_iter().collect();
        assert_eq!(set.len(), 2);
    }

    #[test]
    fn default_is_zero() {
        assert_eq!(CpuId::default(), CpuId(0));
        assert_eq!(PacketId::default(), PacketId(0));
    }
}
