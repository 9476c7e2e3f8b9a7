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
//! bit scan instead of a slot walk. A slot is the line's 4-byte tag
//! ([`L2Map::tag`](nim_types::addr::L2Map::tag)): the bank and the set
//! holding it fix the line's other address bits, so the bank speaks only
//! tags and the L2 rebuilds a victim's line from its tag, bank and set.
//! A default set's 16 tags take 64 bytes. The empty-way mask alone says
//! which ways are empty, and the value left in an empty way's slot is
//! never read as a tag.

use crate::plru::TreePlru;

/// Result of inserting a tag into a set.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) struct Inserted {
    /// Way the tag was placed in.
    pub(crate) way: u32,
    /// Tag evicted to make room, if the set was full.
    pub(crate) evicted: Option<u32>,
}

/// One cache bank: a column of sets.
#[derive(Clone, Debug)]
pub(crate) struct Bank {
    ways: usize,
    /// `sets × ways` tags, set-major: set `s` owns `[s·ways, (s+1)·ways)`.
    /// A slot whose `empty` bit is set holds a stale or fill value.
    tags: Vec<u32>,
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
    pub(crate) fn new(sets: u32, ways: u32) -> Self {
        let plru = TreePlru::new(ways);
        Self {
            ways: ways as usize,
            tags: vec![0; sets as usize * ways as usize],
            plru: vec![plru; sets as usize],
            // Every way of every set starts free.
            empty: vec![u32::MAX >> (32 - ways); sets as usize],
        }
    }

    /// The way slots of `set`, empty ways included.
    #[inline]
    fn slots(&self, set: usize) -> &[u32] {
        &self.tags[set * self.ways..(set + 1) * self.ways]
    }

    /// Whether `tag` is resident in `set`; returns the way if so. An
    /// empty way never matches, whatever its slot still holds. Every way
    /// is compared, with no early exit: the matches form one mask, the
    /// empty ways are masked out, and the lowest bit left is the way.
    #[inline]
    pub(crate) fn lookup(&self, set: u32, tag: u32) -> Option<u32> {
        let ways = self.slots(set as usize).iter().enumerate();
        let hits = ways.fold(0u32, |m, (w, &slot)| m | u32::from(slot == tag) << w);
        let hits = hits & !self.empty[set as usize];
        (hits != 0).then(|| hits.trailing_zeros())
    }

    /// Marks `tag` most-recently used in its set; returns whether it
    /// was resident (a miss leaves the set as it was).
    pub(crate) fn touch(&mut self, set: u32, tag: u32) -> bool {
        let Some(way) = self.lookup(set, tag) else {
            return false;
        };
        self.plru[set as usize].touch(way);
        true
    }

    /// Inserts `tag` into `set`, evicting the pseudo-LRU victim if full.
    /// A set with a free way fills its lowest one and evicts nothing.
    pub(crate) fn insert(&mut self, set: u32, tag: u32) -> Inserted {
        debug_assert!(self.lookup(set, tag).is_none(), "tag already present");
        let s = set as usize;
        let (way, full) = match self.empty[s] {
            0 => (self.plru[s].victim(), true),
            free => {
                let way = free.trailing_zeros();
                self.empty[s] &= !(1 << way);
                (way, false)
            }
        };
        let old = core::mem::replace(&mut self.tags[s * self.ways + way as usize], tag);
        self.plru[s].touch(way);
        Inserted {
            way,
            evicted: full.then_some(old),
        }
    }

    /// Removes `tag` from `set`; returns whether it was present.
    pub(crate) fn remove(&mut self, set: u32, tag: u32) -> bool {
        let Some(way) = self.lookup(set, tag) else {
            return false;
        };
        self.empty[set as usize] |= 1 << way;
        true
    }

    /// Every resident tag with its set, set by set.
    pub(crate) fn resident(&self) -> impl Iterator<Item = (u32, u32)> + '_ {
        let sets = self.tags.chunks_exact(self.ways).zip(&self.empty);
        sets.enumerate().flat_map(|(set, (slots, &empty))| {
            let ways = slots.iter().enumerate();
            ways.filter(move |(w, _)| (empty >> w) & 1 == 0)
                .map(move |(_, &tag)| (set as u32, tag))
        })
    }

    /// Number of resident lines in the bank.
    pub(crate) fn occupancy(&self) -> usize {
        let free: u32 = self.empty.iter().map(|m| m.count_ones()).sum();
        self.tags.len() - free as usize
    }

    /// Bytes the tag slab holds, as allocated.
    #[cfg(test)]
    pub(crate) fn tag_store_bytes(&self) -> usize {
        self.tags.capacity() * core::mem::size_of_val(&self.tags[0])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{RngExt, SeedableRng};

    /// The per-set layout the slab replaced, kept as the oracle: one
    /// `Vec` of `Option` slots and one tree per set, first free slot by
    /// a walk.
    #[derive(Clone, Debug)]
    struct Set {
        lines: Vec<Option<u32>>,
        plru: TreePlru,
    }

    impl Set {
        fn new(ways: u32) -> Self {
            Self {
                lines: vec![None; ways as usize],
                plru: TreePlru::new(ways),
            }
        }

        fn lookup(&self, line: u32) -> Option<u32> {
            self.lines
                .iter()
                .position(|slot| *slot == Some(line))
                .map(|w| w as u32)
        }

        fn insert(&mut self, line: u32) -> Inserted {
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

        fn remove(&mut self, line: u32) -> bool {
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
        let line = 0xabc;
        let ins = bank.insert(3, line);
        assert_eq!(ins.evicted, None);
        assert_eq!(bank.lookup(3, line), Some(ins.way));
        assert_eq!(bank.lookup(4, line), None, "different set");
        assert_eq!(bank.occupancy(), 1);
    }

    #[test]
    fn full_set_evicts_the_plru_victim() {
        let mut bank = Bank::new(1, 4);
        for i in 0..4u32 {
            assert_eq!(bank.insert(0, i).evicted, None);
        }
        let ins = bank.insert(0, 100);
        let victim = ins.evicted.expect("set was full");
        assert!(victim < 4);
        assert_eq!(bank.lookup(0, victim), None);
        assert_eq!(bank.lookup(0, 100), Some(ins.way));
        assert_eq!(bank.occupancy(), 4);
    }

    #[test]
    fn touch_protects_a_hot_line_from_eviction() {
        let mut bank = Bank::new(1, 4);
        for i in 0..4u32 {
            bank.insert(0, i);
        }
        // Keep line 0 hot while streaming new lines through.
        for i in 4..20u32 {
            bank.touch(0, 0);
            let ins = bank.insert(0, i);
            assert_ne!(ins.evicted, Some(0), "hot line evicted at i={i}");
        }
        assert!(bank.lookup(0, 0).is_some());
    }

    #[test]
    fn remove_frees_the_slot() {
        let mut bank = Bank::new(2, 2);
        bank.insert(1, 7);
        assert!(bank.remove(1, 7));
        assert!(!bank.remove(1, 7), "double remove is a no-op");
        assert_eq!(bank.occupancy(), 0);
        // The freed way is reused without eviction.
        bank.insert(1, 8);
        bank.insert(1, 9);
        assert_eq!(bank.insert(0, 10).evicted, None);
    }

    impl Bank {
        /// The ways of `set` as the oracle sees them: `None` where the
        /// empty-way mask marks the way empty.
        fn visible(&self, set: usize) -> Vec<Option<u32>> {
            let empty = self.empty[set];
            let ways = self.slots(set).iter().enumerate();
            ways.map(|(w, &line)| ((empty >> w) & 1 == 0).then_some(line))
                .collect()
        }
    }

    #[test]
    fn an_empty_bank_misses_its_fill_value() {
        let bank = Bank::new(4, 16);
        for set in 0..4 {
            assert_eq!(bank.lookup(set, 0), None, "set {set}");
        }
    }

    #[test]
    fn a_removed_line_left_in_its_slot_misses() {
        let mut bank = Bank::new(1, 4);
        bank.insert(0, 5);
        bank.insert(0, 6);
        assert!(bank.remove(0, 5));
        assert_eq!(bank.tags[0], 5, "the slot keeps the stale line");
        assert_eq!(bank.lookup(0, 5), None);
        assert_eq!(bank.lookup(0, 6), Some(1));
    }

    #[test]
    fn an_insert_into_a_freed_way_evicts_nothing() {
        let mut bank = Bank::new(1, 2);
        bank.insert(0, 5);
        bank.insert(0, 6);
        assert!(bank.remove(0, 5));
        let ins = bank.insert(0, 7);
        assert_eq!(
            ins,
            Inserted {
                way: 0,
                evicted: None
            }
        );
        // The full set's next insert evicts the PLRU victim, line 6.
        assert_eq!(bank.insert(0, 8).evicted, Some(6));
    }

    #[test]
    fn default_geometry_matches_table_4() {
        // 64 KB bank, 64 B lines, 16 ways -> 64 sets.
        let l2 = nim_types::L2Config::default();
        let bank = Bank::new(l2.sets_per_bank(), l2.ways);
        assert_eq!(bank.plru.len(), 64);
        assert_eq!(bank.tags.len(), 64 * 16);
    }

    /// Seeded insert / remove / touch / lookup scripts drive the slab and
    /// the per-set oracle side by side; every return value, the
    /// occupancy, the resident lines, and every set's visible ways, tree
    /// and empty mask must agree after every step.
    #[test]
    fn slab_matches_the_per_set_oracle() {
        for ways in [1u32, 2, 4, 16, 32] {
            for sets in [1u32, 2, 8] {
                let mut rng = StdRng::seed_from_u64(u64::from(ways * 100 + sets));
                let mut bank = Bank::new(sets, ways);
                let mut oracle: Vec<Set> = (0..sets).map(|_| Set::new(ways)).collect();
                // Twice the set's capacity in distinct lines per set, so
                // sets fill, evict and drain.
                let lines = 2 * ways;
                for step in 0..2_000 {
                    let set = rng.random_range(0..sets);
                    let line = rng.random_range(0..lines) * sets + set;
                    let o = &mut oracle[set as usize];
                    let at = format!("ways={ways} sets={sets} step={step}");
                    match rng.random_range(0..4u8) {
                        0 if o.lookup(line).is_none() => {
                            assert_eq!(bank.insert(set, line), o.insert(line), "{at}");
                        }
                        1 => assert_eq!(bank.remove(set, line), o.remove(line), "{at}"),
                        2 => {
                            let way = o.lookup(line);
                            if let Some(w) = way {
                                o.plru.touch(w);
                            }
                            assert_eq!(bank.touch(set, line), way.is_some(), "{at}");
                        }
                        _ => assert_eq!(bank.lookup(set, line), o.lookup(line), "{at}"),
                    }
                    let held: usize = oracle.iter().map(Set::occupancy).sum();
                    assert_eq!(bank.occupancy(), held, "{at}");
                    let resident = oracle
                        .iter()
                        .enumerate()
                        .flat_map(|(s, o)| o.lines.iter().flatten().map(move |&l| (s as u32, l)));
                    assert!(bank.resident().eq(resident), "{at}");
                    for (s, o) in oracle.iter().enumerate() {
                        assert_eq!(bank.visible(s), o.lines, "{at} set {s}");
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
