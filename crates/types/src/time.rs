//! Simulated time.
//!
//! All timing in the simulator is expressed in processor clock cycles via
//! the [`Cycle`] newtype. Using a newtype instead of a bare `u64` prevents
//! cycle counts from being confused with the many other integers in the
//! simulator (addresses, counts, indices).

use core::fmt;
use core::iter::Sum;
use core::ops::{Add, AddAssign, Sub};

/// A point in simulated time, or a duration, measured in clock cycles.
///
/// ```
/// use nim_types::Cycle;
/// let t = Cycle(100) + 26;
/// assert_eq!(t, Cycle(126));
/// assert_eq!(t - Cycle(100), 26);
/// ```
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Cycle(pub u64);

impl Cycle {
    /// Time zero.
    pub const ZERO: Cycle = Cycle(0);

    /// The earlier of two times.
    #[cfg(test)]
    #[must_use]
    pub(crate) fn min(self, other: Cycle) -> Cycle {
        Cycle(self.0.min(other.0))
    }
}

impl Add<u64> for Cycle {
    type Output = Cycle;

    #[inline]
    fn add(self, rhs: u64) -> Cycle {
        Cycle(self.0 + rhs)
    }
}

impl AddAssign<u64> for Cycle {
    #[inline]
    fn add_assign(&mut self, rhs: u64) {
        self.0 += rhs;
    }
}

impl Sub for Cycle {
    type Output = u64;

    /// Elapsed cycles between two points in time.
    ///
    /// # Panics
    ///
    /// Panics (in debug builds) if `rhs` is later than `self`.
    #[inline]
    fn sub(self, rhs: Cycle) -> u64 {
        debug_assert!(self.0 >= rhs.0, "negative cycle interval");
        self.0 - rhs.0
    }
}

impl Sum<u64> for Cycle {
    fn sum<I: Iterator<Item = u64>>(iter: I) -> Cycle {
        Cycle(iter.sum())
    }
}

impl fmt::Debug for Cycle {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "cy{}", self.0)
    }
}

impl fmt::Display for Cycle {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.0)
    }
}

impl From<u64> for Cycle {
    fn from(value: u64) -> Self {
        Cycle(value)
    }
}

impl From<Cycle> for u64 {
    fn from(value: Cycle) -> u64 {
        value.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn add_and_sub_round_trip() {
        let start = Cycle(10);
        let end = start + 32;
        assert_eq!(end - start, 32);
    }

    #[test]
    fn add_assign_advances() {
        let mut t = Cycle::ZERO;
        t += 5;
        t += 7;
        assert_eq!(t, Cycle(12));
    }

    #[test]
    fn min_max_pick_correct_endpoints() {
        assert_eq!(Cycle(3).max(Cycle(9)), Cycle(9));
        assert_eq!(Cycle(3).min(Cycle(9)), Cycle(3));
    }

    #[test]
    fn sum_collects_durations() {
        let total: Cycle = [1u64, 2, 3].into_iter().sum();
        assert_eq!(total, Cycle(6));
    }

    #[test]
    #[should_panic(expected = "negative cycle interval")]
    #[cfg(debug_assertions)]
    fn negative_interval_panics_in_debug() {
        let _ = Cycle(1) - Cycle(2);
    }

    #[test]
    fn display_is_bare_number_debug_is_tagged() {
        assert_eq!(format!("{}", Cycle(42)), "42");
        assert_eq!(format!("{:?}", Cycle(42)), "cy42");
    }
}
