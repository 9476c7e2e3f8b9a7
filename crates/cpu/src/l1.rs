//! Private L1 cache (Table 4: 64 KB split I/D, 2-way, 64 B lines,
//! 3-cycle, write-through).
//!
//! True LRU per set (trivial at 2 ways). Stores are write-through and
//! no-write-allocate: every store is forwarded to the L2, and a store
//! miss does not install the line.

use nim_types::codec::{ByteReader, ByteWriter, Checkpoint, Codec, CodecError};
use nim_types::{codec_struct, Address, L1Config, LineAddr};

/// Hit/miss counters.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct L1Stats {
    /// Lookups that hit.
    pub hits: u64,
    /// Lookups that missed.
    pub misses: u64,
}

codec_struct!(L1Stats { hits, misses });

#[derive(Clone, Debug)]
struct Way {
    line: LineAddr,
    stamp: u64,
}

codec_struct!(Way { line, stamp });

/// One side (I or D) of a private L1 cache.
#[derive(Clone, Debug)]
pub struct L1Cache {
    sets: Vec<Vec<Way>>,
    ways: usize,
    line_bytes: u64,
    clock: u64,
    stats: L1Stats,
}

impl L1Cache {
    /// Creates an empty L1 with the given geometry.
    pub fn new(cfg: &L1Config) -> Self {
        let sets = cfg.sets() as usize;
        Self {
            sets: vec![Vec::new(); sets],
            ways: cfg.ways as usize,
            line_bytes: u64::from(cfg.line_bytes),
            clock: 0,
            stats: L1Stats::default(),
        }
    }

    /// Hit/miss counters.
    #[inline]
    pub fn stats(&self) -> &L1Stats {
        &self.stats
    }

    #[inline]
    fn set_of(&self, line: LineAddr) -> usize {
        (line.0 % self.sets.len() as u64) as usize
    }

    /// Looks up the line containing `addr`, updating LRU and counters.
    pub fn access(&mut self, addr: Address) -> bool {
        let line = addr.line(self.line_bytes);
        let set = self.set_of(line);
        self.clock += 1;
        if let Some(way) = self.sets[set].iter_mut().find(|w| w.line == line) {
            way.stamp = self.clock;
            self.stats.hits += 1;
            true
        } else {
            self.stats.misses += 1;
            false
        }
    }

    /// Whether the line containing `addr` is resident (no LRU/counter
    /// side effects).
    pub fn contains(&self, addr: Address) -> bool {
        let line = addr.line(self.line_bytes);
        let set = self.set_of(line);
        self.sets[set].iter().any(|w| w.line == line)
    }

    /// Installs the line containing `addr`, evicting LRU if the set is
    /// full. Returns the evicted line (the directory must be told).
    pub fn fill(&mut self, addr: Address) -> Option<LineAddr> {
        let line = addr.line(self.line_bytes);
        let set = self.set_of(line);
        self.clock += 1;
        let clock = self.clock;
        let ways = &mut self.sets[set];
        if ways.iter().any(|w| w.line == line) {
            return None; // already present (e.g. racing fills)
        }
        if ways.len() < self.ways {
            ways.push(Way { line, stamp: clock });
            return None;
        }
        let lru = ways
            .iter_mut()
            .min_by_key(|w| w.stamp)
            .expect("set is full, hence nonempty");
        let evicted = lru.line;
        lru.line = line;
        lru.stamp = clock;
        Some(evicted)
    }

    /// Drops `line` (coherence invalidation). Returns whether it was
    /// present.
    pub fn invalidate(&mut self, line: LineAddr) -> bool {
        let set = self.set_of(line);
        let ways = &mut self.sets[set];
        match ways.iter().position(|w| w.line == line) {
            Some(i) => {
                ways.swap_remove(i);
                true
            }
            None => false,
        }
    }

    /// Resident lines.
    pub fn occupancy(&self) -> usize {
        self.sets.iter().map(Vec::len).sum()
    }
}

impl Checkpoint for L1Cache {
    fn save(&self, w: &mut ByteWriter) {
        self.clock.put(w);
        self.stats.put(w);
        self.sets.put(w);
    }

    fn restore(&mut self, r: &mut ByteReader<'_>) -> Result<(), CodecError> {
        self.clock = Codec::get(r)?;
        self.stats = Codec::get(r)?;
        let sets: Vec<Vec<Way>> = r.seq_of_len(self.sets.len(), "L1 set count mismatch")?;
        if sets.iter().any(|set| set.len() > self.ways) {
            return Err(CodecError::Corrupt("L1 set overflows its ways"));
        }
        self.sets = sets;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn l1() -> L1Cache {
        L1Cache::new(&L1Config::default())
    }

    #[test]
    fn geometry_matches_table_4() {
        let cfg = L1Config::default();
        assert_eq!(cfg.sets(), 512); // 64 KB / (64 B * 2 ways)
        let cache = L1Cache::new(&cfg);
        assert_eq!(cache.sets.len(), 512);
    }

    #[test]
    fn miss_then_fill_then_hit() {
        let mut c = l1();
        let a = Address(0x1234);
        assert!(!c.access(a));
        assert_eq!(c.fill(a), None);
        assert!(c.access(a));
        assert!(c.contains(a));
        assert_eq!(c.stats().hits, 1);
        assert_eq!(c.stats().misses, 1);
    }

    #[test]
    fn same_line_different_bytes_hit() {
        let mut c = l1();
        c.fill(Address(0x1000));
        assert!(c.access(Address(0x103f)), "same 64 B line");
        assert!(!c.access(Address(0x1040)), "next line");
    }

    #[test]
    fn two_way_set_evicts_lru() {
        let mut c = l1();
        // Three lines mapping to the same set: stride = sets * line = 32 KB.
        let stride = 512 * 64u64;
        let (a, b, d) = (Address(0), Address(stride), Address(2 * stride));
        c.fill(a);
        c.fill(b);
        c.access(a); // a is now MRU
        let evicted = c.fill(d).expect("set of 2 overflows");
        assert_eq!(evicted, b.line(64), "LRU way evicted");
        assert!(c.contains(a) && c.contains(d) && !c.contains(b));
    }

    #[test]
    fn invalidate_removes_the_line() {
        let mut c = l1();
        let a = Address(0x40);
        c.fill(a);
        assert!(c.invalidate(a.line(64)));
        assert!(!c.contains(a));
        assert!(!c.invalidate(a.line(64)));
        assert_eq!(c.occupancy(), 0);
    }

    #[test]
    fn duplicate_fill_is_a_no_op() {
        let mut c = l1();
        let a = Address(0x40);
        assert_eq!(c.fill(a), None);
        assert_eq!(c.fill(a), None);
        assert_eq!(c.occupancy(), 1);
    }

    mod codec_laws {
        use super::super::{L1Stats, Way};
        use nim_types::codec::assert_laws;
        use nim_types::LineAddr;
        use proptest::prelude::*;

        proptest! {
            #[test]
            fn ways_and_counters((line, stamp, hits, misses) in (any::<u64>(), any::<u64>(), any::<u64>(), any::<u64>())) {
                let way = assert_laws(&Way { line: LineAddr(line), stamp });
                prop_assert_eq!((way.line, way.stamp), (LineAddr(line), stamp));
                let stats = L1Stats { hits, misses };
                prop_assert_eq!(assert_laws(&stats), stats);
            }
        }
    }
}
