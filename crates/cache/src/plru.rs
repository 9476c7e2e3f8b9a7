//! Tree pseudo-LRU replacement (paper §4.2.2: "we use a pseudo-LRU
//! replacement policy to evict a cache line to service a cache miss").
//!
//! The classic binary-tree approximation of LRU: one bit per internal node
//! of a complete binary tree over the ways. On an access, every node on
//! the way's root path is pointed *away* from it; the victim is found by
//! following the node bits from the root.

/// Tree pseudo-LRU state for one set of `ways` ways.
///
/// Supports power-of-two associativities up to 32 (the default L2 is
/// 16-way). State is one bit per internal node, packed in a `u32`.
///
/// ```
/// use nim_cache::TreePlru;
///
/// let mut plru = TreePlru::new(4);
/// plru.touch(0);
/// plru.touch(1);
/// assert_ne!(plru.victim(), 0, "recently used ways are protected");
/// assert_ne!(plru.victim(), 1);
/// ```
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct TreePlru {
    bits: u32,
    ways: u8,
}

impl TreePlru {
    /// Creates the replacement state for a set of `ways` ways.
    ///
    /// # Panics
    ///
    /// Panics if `ways` is not a power of two in `1..=32`.
    pub fn new(ways: u32) -> Self {
        assert!(
            (1..=32).contains(&ways) && ways.is_power_of_two(),
            "ways must be a power of two in 1..=32, got {ways}"
        );
        Self {
            bits: 0,
            ways: ways as u8,
        }
    }

    /// Number of ways tracked.
    #[inline]
    pub(crate) fn ways(&self) -> u32 {
        u32::from(self.ways)
    }

    #[inline]
    fn bit(&self, node: u32) -> bool {
        self.bits & (1 << node) != 0
    }

    #[inline]
    fn set_bit(&mut self, node: u32, v: bool) {
        if v {
            self.bits |= 1 << node;
        } else {
            self.bits &= !(1 << node);
        }
    }

    /// Marks `way` most-recently used.
    ///
    /// # Panics
    ///
    /// Panics (debug) if `way` is out of range.
    pub fn touch(&mut self, way: u32) {
        debug_assert!(way < self.ways());
        let (mut node, mut lo, mut hi) = (1u32, 0u32, self.ways());
        while hi - lo > 1 {
            let mid = (lo + hi) / 2;
            if way < mid {
                // Accessed left: point the victim hint right.
                self.set_bit(node, true);
                node *= 2;
                hi = mid;
            } else {
                self.set_bit(node, false);
                node = 2 * node + 1;
                lo = mid;
            }
        }
    }

    /// The way the tree currently designates as the victim.
    pub fn victim(&self) -> u32 {
        let (mut node, mut lo, mut hi) = (1u32, 0u32, self.ways());
        while hi - lo > 1 {
            let mid = (lo + hi) / 2;
            if self.bit(node) {
                node = 2 * node + 1;
                lo = mid;
            } else {
                node *= 2;
                hi = mid;
            }
        }
        lo
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fresh_tree_victimises_way_zero() {
        assert_eq!(TreePlru::new(16).victim(), 0);
        assert_eq!(TreePlru::new(2).victim(), 0);
        assert_eq!(TreePlru::new(1).victim(), 0);
    }

    #[test]
    fn touched_way_is_never_the_next_victim() {
        for ways in [2u32, 4, 8, 16, 32] {
            let mut plru = TreePlru::new(ways);
            for way in 0..ways {
                plru.touch(way);
                assert_ne!(plru.victim(), way, "ways={ways} way={way}");
            }
        }
    }

    #[test]
    fn round_robin_touching_cycles_victims_through_all_ways() {
        // Touching the current victim repeatedly must visit every way —
        // the defining liveness property of tree-PLRU.
        let ways = 16u32;
        let mut plru = TreePlru::new(ways);
        let mut seen = std::collections::HashSet::new();
        for _ in 0..ways {
            let v = plru.victim();
            seen.insert(v);
            plru.touch(v);
        }
        assert_eq!(seen.len(), ways as usize);
    }

    #[test]
    fn sequential_fill_then_reuse_keeps_hot_way_resident() {
        let mut plru = TreePlru::new(4);
        for w in 0..4 {
            plru.touch(w);
        }
        // Way 3 was just used; keep hammering way 0 as well.
        for _ in 0..10 {
            plru.touch(0);
            assert_ne!(plru.victim(), 0);
        }
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn rejects_non_power_of_two() {
        let _ = TreePlru::new(12);
    }

    #[test]
    fn single_way_always_victimises_zero() {
        let mut plru = TreePlru::new(1);
        plru.touch(0);
        assert_eq!(plru.victim(), 0);
    }
}
