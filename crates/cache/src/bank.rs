//! Cache banks.
//!
//! A bank is the individually addressable unit of the NUCA (64 KB, 16-way,
//! 64 B lines by default — Table 4): a grid of sets, each holding way
//! slots plus tree pseudo-LRU state. The simulator tracks which *line*
//! occupies each slot (data contents are not modelled; only placement and
//! movement matter for latency/energy).
//!
//! Every set's slots live in one set-major slab beside one pseudo-LRU
//! tree and one empty-way mask per set, so a bank is three allocations
//! however many sets it has, and an insert finds its free way with one
//! bit scan instead of a slot walk.

use nim_types::LineAddr;

use crate::plru::TreePlru;

/// Result of inserting a line into a set.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Inserted {
    /// Way the line was placed in.
    pub way: u32,
    /// Line evicted to make room, if the set was full.
    pub evicted: Option<LineAddr>,
}

/// One cache bank: a column of sets.
#[derive(Clone, Debug)]
pub struct Bank {
    ways: usize,
    /// `sets × ways` slots, set-major: set `s` owns `[s·ways, (s+1)·ways)`.
    lines: Vec<Option<LineAddr>>,
    /// Replacement state, one tree per set.
    plru: Vec<TreePlru>,
    /// Bit `w` of entry `s` is set while way `w` of set `s` is empty
    /// (`TreePlru` caps ways at 32, so a `u32` holds every way).
    empty: Vec<u32>,
}

impl Bank {
    /// Creates a bank of `sets` sets with `ways` ways each.
    ///
    /// # Panics
    ///
    /// Panics if `ways` is not a power of two in `1..=32`.
    pub fn new(sets: u32, ways: u32) -> Self {
        let plru = TreePlru::new(ways);
        Self {
            ways: ways as usize,
            lines: vec![None; sets as usize * ways as usize],
            plru: vec![plru; sets as usize],
            // Every way of every set starts free.
            empty: vec![u32::MAX >> (32 - ways); sets as usize],
        }
    }

    /// The way slots of `set`.
    #[inline]
    fn slots(&self, set: usize) -> &[Option<LineAddr>] {
        &self.lines[set * self.ways..(set + 1) * self.ways]
    }

    /// Whether `line` is resident in `set`; returns the way if so.
    #[inline]
    pub fn lookup(&self, set: u32, line: LineAddr) -> Option<u32> {
        self.slots(set as usize)
            .iter()
            .position(|slot| *slot == Some(line))
            .map(|w| w as u32)
    }

    /// Marks `line` most-recently used in its set.
    ///
    /// # Panics
    ///
    /// Panics if the line is not resident.
    pub fn touch(&mut self, set: u32, line: LineAddr) {
        let way = self
            .lookup(set, line)
            .expect("touch of a non-resident line");
        self.plru[set as usize].touch(way);
    }

    /// Inserts `line` into `set`, evicting the pseudo-LRU victim if full.
    /// A set with a free way fills its lowest one.
    pub fn insert(&mut self, set: u32, line: LineAddr) -> Inserted {
        debug_assert!(self.lookup(set, line).is_none(), "line already present");
        let s = set as usize;
        let way = match self.empty[s] {
            0 => self.plru[s].victim(),
            free => {
                let way = free.trailing_zeros();
                self.empty[s] &= !(1 << way);
                way
            }
        };
        let evicted = self.lines[s * self.ways + way as usize].replace(line);
        self.plru[s].touch(way);
        Inserted { way, evicted }
    }

    /// Removes `line` from `set`; returns whether it was present.
    pub fn remove(&mut self, set: u32, line: LineAddr) -> bool {
        let Some(way) = self.lookup(set, line) else {
            return false;
        };
        let s = set as usize;
        self.lines[s * self.ways + way as usize] = None;
        self.empty[s] |= 1 << way;
        true
    }

    /// Number of resident lines in the bank.
    pub fn occupancy(&self) -> usize {
        let free: u32 = self.empty.iter().map(|m| m.count_ones()).sum();
        self.lines.len() - free as usize
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{RngExt, SeedableRng};

    /// The per-set layout the slab replaced, kept as the oracle: one
    /// `Vec` of slots and one tree per set, first free slot by a walk.
    #[derive(Clone, Debug)]
    struct Set {
        lines: Vec<Option<LineAddr>>,
        plru: TreePlru,
    }

    impl Set {
        fn new(ways: u32) -> Self {
            Self {
                lines: vec![None; ways as usize],
                plru: TreePlru::new(ways),
            }
        }

        fn lookup(&self, line: LineAddr) -> Option<u32> {
            self.lines
                .iter()
                .position(|slot| *slot == Some(line))
                .map(|w| w as u32)
        }

        fn insert(&mut self, line: LineAddr) -> Inserted {
            if let Some(way) = self.lines.iter().position(Option::is_none) {
                let way = way as u32;
                self.lines[way as usize] = Some(line);
                self.plru.touch(way);
                return Inserted { way, evicted: None };
            }
            let way = self.plru.victim();
            let evicted = self.lines[way as usize].take();
            self.lines[way as usize] = Some(line);
            self.plru.touch(way);
            Inserted { way, evicted }
        }

        fn remove(&mut self, line: LineAddr) -> bool {
            match self.lookup(line) {
                Some(way) => {
                    self.lines[way as usize] = None;
                    true
                }
                None => false,
            }
        }

        fn occupancy(&self) -> usize {
            self.lines.iter().filter(|s| s.is_some()).count()
        }
    }

    #[test]
    fn insert_then_lookup_round_trips() {
        let mut bank = Bank::new(64, 16);
        let line = LineAddr(0xabc);
        let ins = bank.insert(3, line);
        assert_eq!(ins.evicted, None);
        assert_eq!(bank.lookup(3, line), Some(ins.way));
        assert_eq!(bank.lookup(4, line), None, "different set");
        assert_eq!(bank.occupancy(), 1);
    }

    #[test]
    fn full_set_evicts_the_plru_victim() {
        let mut bank = Bank::new(1, 4);
        for i in 0..4u64 {
            assert_eq!(bank.insert(0, LineAddr(i)).evicted, None);
        }
        let ins = bank.insert(0, LineAddr(100));
        let victim = ins.evicted.expect("set was full");
        assert!(victim.0 < 4);
        assert_eq!(bank.lookup(0, victim), None);
        assert_eq!(bank.lookup(0, LineAddr(100)), Some(ins.way));
        assert_eq!(bank.occupancy(), 4);
    }

    #[test]
    fn touch_protects_a_hot_line_from_eviction() {
        let mut bank = Bank::new(1, 4);
        for i in 0..4u64 {
            bank.insert(0, LineAddr(i));
        }
        // Keep line 0 hot while streaming new lines through.
        for i in 4..20u64 {
            bank.touch(0, LineAddr(0));
            let ins = bank.insert(0, LineAddr(i));
            assert_ne!(ins.evicted, Some(LineAddr(0)), "hot line evicted at i={i}");
        }
        assert!(bank.lookup(0, LineAddr(0)).is_some());
    }

    #[test]
    fn remove_frees_the_slot() {
        let mut bank = Bank::new(2, 2);
        bank.insert(1, LineAddr(7));
        assert!(bank.remove(1, LineAddr(7)));
        assert!(!bank.remove(1, LineAddr(7)), "double remove is a no-op");
        assert_eq!(bank.occupancy(), 0);
        // The freed way is reused without eviction.
        bank.insert(1, LineAddr(8));
        bank.insert(1, LineAddr(9));
        assert_eq!(bank.insert(0, LineAddr(10)).evicted, None);
    }

    #[test]
    fn default_geometry_matches_table_4() {
        // 64 KB bank, 64 B lines, 16 ways -> 64 sets.
        let l2 = nim_types::L2Config::default();
        let bank = Bank::new(l2.sets_per_bank(), l2.ways);
        assert_eq!(bank.plru.len(), 64);
        assert_eq!(bank.lines.len(), 64 * 16);
    }

    /// Seeded insert / remove / touch / lookup scripts drive the slab and
    /// the per-set oracle side by side; every return value, the
    /// occupancy, and every set's slots, tree and empty mask must agree
    /// after every step.
    #[test]
    fn slab_matches_the_per_set_oracle() {
        for ways in [1u32, 2, 4, 16, 32] {
            for sets in [1u32, 2, 8] {
                let mut rng = StdRng::seed_from_u64(u64::from(ways * 100 + sets));
                let mut bank = Bank::new(sets, ways);
                let mut oracle: Vec<Set> = (0..sets).map(|_| Set::new(ways)).collect();
                // Twice the set's capacity in distinct lines per set, so
                // sets fill, evict and drain.
                let lines = u64::from(2 * ways);
                for step in 0..2_000 {
                    let set = rng.random_range(0..sets);
                    let line =
                        LineAddr(rng.random_range(0..lines) * u64::from(sets) + u64::from(set));
                    let o = &mut oracle[set as usize];
                    let at = format!("ways={ways} sets={sets} step={step}");
                    match rng.random_range(0..4u8) {
                        0 if o.lookup(line).is_none() => {
                            assert_eq!(bank.insert(set, line), o.insert(line), "{at}");
                        }
                        1 => assert_eq!(bank.remove(set, line), o.remove(line), "{at}"),
                        2 if o.lookup(line).is_some() => {
                            bank.touch(set, line);
                            o.plru.touch(o.lookup(line).expect("resident"));
                        }
                        _ => assert_eq!(bank.lookup(set, line), o.lookup(line), "{at}"),
                    }
                    let held: usize = oracle.iter().map(Set::occupancy).sum();
                    assert_eq!(bank.occupancy(), held, "{at}");
                    for (s, o) in oracle.iter().enumerate() {
                        assert_eq!(bank.slots(s), o.lines, "{at} set {s}");
                        assert_eq!(bank.plru[s], o.plru, "{at} set {s}");
                        let empty = o.lines.iter().enumerate().filter(|(_, l)| l.is_none());
                        let mask = empty.fold(0, |m, (w, _)| m | 1 << w);
                        assert_eq!(bank.empty[s], mask, "{at} set {s}");
                    }
                }
            }
        }
    }
}
