//! Tree pseudo-LRU replacement (paper §4.2.2: "we use a pseudo-LRU
//! replacement policy to evict a cache line to service a cache miss").
//!
//! The classic binary-tree approximation of LRU: one bit per internal node
//! of a complete binary tree over the ways. On an access, every node on
//! the way's root path is pointed *away* from it; the victim is found by
//! following the node bits from the root. Which nodes an access writes,
//! and with what, depends only on the way, so a `const` table built at
//! compile time holds both per (depth, way) and an access is one masked
//! store, not a walk.

/// Tree pseudo-LRU state for one set of `ways` ways.
///
/// Supports power-of-two associativities up to 32 (the default L2 is
/// 16-way). State is one bit per internal node, packed in a `u32`, node
/// `n`'s children at `2n` and `2n + 1` below the root at node 1. A touch
/// writes the same nodes whatever the state, so it is one masked store
/// from a `const` path table; the victim is a walk of `log2(ways)` bit
/// reads.
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
    /// Tree depth: `log2(ways)`.
    depth: u8,
}

/// `PATHS[depth][way]` is `(mask, val)`: the nodes on `way`'s root path
/// in a tree of `2^depth` ways, and the value a touch of `way` leaves in
/// them — each node pointed away from `way` (bit set when `way` lies
/// left of it, so the victim walk goes right).
const PATHS: [[(u32, u32); 32]; 6] = paths();

const fn paths() -> [[(u32, u32); 32]; 6] {
    let mut table = [[(0, 0); 32]; 6];
    let mut depth = 0;
    while depth < 6 {
        let mut way = 0;
        while way < 1 << depth {
            let (mut node, mut mask, mut val, mut level) = (1u32, 0u32, 0u32, depth);
            while level > 0 {
                level -= 1;
                mask |= 1 << node;
                if way >> level & 1 == 0 {
                    val |= 1 << node;
                }
                node = 2 * node + (way >> level & 1) as u32;
            }
            table[depth][way] = (mask, val);
            way += 1;
        }
        depth += 1;
    }
    table
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
            depth: ways.trailing_zeros() as u8,
        }
    }

    /// Marks `way` most-recently used.
    ///
    /// # Panics
    ///
    /// Panics (debug) if `way` is out of range.
    #[inline]
    pub fn touch(&mut self, way: u32) {
        debug_assert!(way < 1 << self.depth);
        let (mask, val) = PATHS[usize::from(self.depth)][way as usize];
        self.bits = self.bits & !mask | val;
    }

    /// The way the tree currently designates as the victim.
    #[inline]
    pub fn victim(&self) -> u32 {
        let mut node = 1;
        for _ in 0..self.depth {
            node = 2 * node + (self.bits >> node & 1);
        }
        node - (1 << self.depth)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{RngExt, SeedableRng};

    /// The bit-by-bit tree walk the path table replaced, kept as the
    /// oracle: `(bits, ways)` of one set.
    #[derive(Clone, Copy, Debug)]
    struct Walk {
        bits: u32,
        ways: u32,
    }

    impl Walk {
        fn bit(&self, node: u32) -> bool {
            self.bits & (1 << node) != 0
        }

        fn set_bit(&mut self, node: u32, v: bool) {
            if v {
                self.bits |= 1 << node;
            } else {
                self.bits &= !(1 << node);
            }
        }

        fn touch(&mut self, way: u32) {
            let (mut node, mut lo, mut hi) = (1u32, 0u32, self.ways);
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

        fn victim(&self) -> u32 {
            let (mut node, mut lo, mut hi) = (1u32, 0u32, self.ways);
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

    /// Every associativity, every way touched from every reachable
    /// single-touch state, then seeded random touch sequences: the table
    /// leaves the walk's bits and names the walk's victim after each.
    #[test]
    fn the_path_table_touches_like_the_tree_walk() {
        for ways in (0..=5).map(|d| 1u32 << d) {
            for first in 0..ways {
                for way in 0..ways {
                    let mut plru = TreePlru::new(ways);
                    let mut walk = Walk { bits: 0, ways };
                    plru.touch(first);
                    walk.touch(first);
                    plru.touch(way);
                    walk.touch(way);
                    assert_eq!(plru.bits, walk.bits, "ways={ways} {first} then {way}");
                    assert_eq!(
                        plru.victim(),
                        walk.victim(),
                        "ways={ways} {first} then {way}"
                    );
                }
            }
            let mut rng = StdRng::seed_from_u64(u64::from(ways));
            for run in 0..50 {
                let mut plru = TreePlru::new(ways);
                let mut walk = Walk { bits: 0, ways };
                for step in 0..200 {
                    let way = rng.random_range(0..ways);
                    plru.touch(way);
                    walk.touch(way);
                    let at = format!("ways={ways} run={run} step={step}");
                    assert_eq!(plru.bits, walk.bits, "{at}");
                    assert_eq!(plru.victim(), walk.victim(), "{at}");
                }
            }
        }
    }

    /// The victim walk agrees with the oracle's on arbitrary bit
    /// patterns, including ones no touch sequence reaches.
    #[test]
    fn the_victim_walk_reads_any_state_like_the_tree_walk() {
        let mut rng = StdRng::seed_from_u64(7);
        for ways in (0..=5).map(|d| 1u32 << d) {
            for _ in 0..1_000 {
                // Internal nodes are 1..ways; bit 0 and those above are unused.
                let bits = rng.random_range(0..u32::MAX) & (2 * ways - 1) & !1;
                let plru = TreePlru {
                    bits,
                    depth: ways.trailing_zeros() as u8,
                };
                assert_eq!(
                    plru.victim(),
                    Walk { bits, ways }.victim(),
                    "ways={ways} {bits:#b}"
                );
            }
        }
    }

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
