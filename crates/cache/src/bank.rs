//! Cache banks and sets.
//!
//! A bank is the individually addressable unit of the NUCA (64 KB, 16-way,
//! 64 B lines by default — Table 4): a grid of sets, each holding way
//! slots plus tree pseudo-LRU state. The simulator tracks which *line*
//! occupies each slot (data contents are not modelled; only placement and
//! movement matter for latency/energy).

use nim_types::codec::{
    restore_each, save_each, ByteReader, ByteWriter, Checkpoint, Codec, CodecError,
};
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

/// One set: `ways` slots plus replacement state.
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
        debug_assert!(self.lookup(line).is_none(), "line already present");
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

/// One cache bank: a column of sets.
#[derive(Clone, Debug)]
pub struct Bank {
    sets: Vec<Set>,
}

impl Bank {
    /// Creates a bank of `sets` sets with `ways` ways each.
    pub fn new(sets: u32, ways: u32) -> Self {
        Self {
            sets: (0..sets).map(|_| Set::new(ways)).collect(),
        }
    }

    /// Whether `line` is resident in `set`; returns the way if so.
    pub fn lookup(&self, set: u32, line: LineAddr) -> Option<u32> {
        self.sets[set as usize].lookup(line)
    }

    /// Marks `line` most-recently used in its set.
    ///
    /// # Panics
    ///
    /// Panics (debug) if the line is not resident.
    pub fn touch(&mut self, set: u32, line: LineAddr) {
        let s = &mut self.sets[set as usize];
        let way = s.lookup(line).expect("touch of a non-resident line");
        s.plru.touch(way);
    }

    /// Inserts `line` into `set`, evicting the pseudo-LRU victim if full.
    pub fn insert(&mut self, set: u32, line: LineAddr) -> Inserted {
        self.sets[set as usize].insert(line)
    }

    /// Removes `line` from `set`; returns whether it was present.
    pub fn remove(&mut self, set: u32, line: LineAddr) -> bool {
        self.sets[set as usize].remove(line)
    }

    /// Number of resident lines in the bank.
    pub fn occupancy(&self) -> usize {
        self.sets.iter().map(Set::occupancy).sum()
    }
}

impl Checkpoint for Set {
    fn save(&self, w: &mut ByteWriter) {
        self.plru.save(w);
        // Way-slot positions are load-bearing (lookup and insert walk
        // them by position), so empty slots are written explicitly.
        self.lines.put(w);
    }

    fn restore(&mut self, r: &mut ByteReader<'_>) -> Result<(), CodecError> {
        self.plru.restore(r)?;
        self.lines = r.seq_of_len(self.lines.len(), "bank way count mismatch")?;
        Ok(())
    }
}

impl Checkpoint for Bank {
    fn save(&self, w: &mut ByteWriter) {
        save_each(&self.sets, w);
    }

    fn restore(&mut self, r: &mut ByteReader<'_>) -> Result<(), CodecError> {
        restore_each(&mut self.sets, r, "bank set count mismatch")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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
        assert_eq!(bank.sets.len(), 64);
    }
}
