//! Private L1 cache (Table 4: 64 KB split I/D, 2-way, 64 B lines,
//! 3-cycle, write-through).
//!
//! True LRU per set (trivial at 2 ways). Stores are write-through and
//! no-write-allocate: every store is forwarded to the L2, and a store
//! miss does not install the line.

use nim_types::{Address, L1Config, LineAddr};

/// Hit/miss counters.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct L1Stats {
    /// Lookups that hit.
    pub hits: u64,
    /// Lookups that missed.
    pub misses: u64,
}

#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
struct Way {
    line: LineAddr,
    stamp: u64,
}

/// One side (I or D) of a private L1 cache.
///
/// Every set's ways live in one set-major slab: set `s` owns slots
/// `[s·ways, (s+1)·ways)`, of which the first `filled[s]` hold lines in
/// fill order. Geometry is powers of two (`SystemConfig::validate`), so
/// the line is a shift of the address and the set a mask of the line.
#[derive(Clone, Debug, PartialEq)]
pub struct L1Cache {
    ways: Vec<Way>,
    filled: Vec<u32>,
    assoc: usize,
    set_mask: u64,
    line_bytes: u64,
    clock: u64,
    stats: L1Stats,
}

impl L1Cache {
    /// Creates an empty L1 with the given geometry, which
    /// `SystemConfig::validate` has checked.
    pub fn new(cfg: &L1Config) -> Self {
        let sets = cfg.sets() as usize;
        let assoc = cfg.ways as usize;
        debug_assert!(sets.is_power_of_two(), "unvalidated L1 geometry");
        Self {
            ways: vec![Way::default(); sets * assoc],
            filled: vec![0; sets],
            assoc,
            set_mask: sets as u64 - 1,
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
        (line.0 & self.set_mask) as usize
    }

    /// The filled ways of `set`, in fill order.
    #[inline]
    fn set(&self, set: usize) -> &[Way] {
        let base = set * self.assoc;
        &self.ways[base..base + self.filled[set] as usize]
    }

    #[inline]
    fn set_mut(&mut self, set: usize) -> &mut [Way] {
        let base = set * self.assoc;
        &mut self.ways[base..base + self.filled[set] as usize]
    }

    /// Looks up the line containing `addr`, updating LRU and counters.
    pub fn access(&mut self, addr: Address) -> bool {
        let line = addr.line(self.line_bytes);
        let set = self.set_of(line);
        self.clock += 1;
        let clock = self.clock;
        if let Some(way) = self.set_mut(set).iter_mut().find(|w| w.line == line) {
            way.stamp = clock;
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
        self.set(self.set_of(line)).iter().any(|w| w.line == line)
    }

    /// Installs the line containing `addr`, evicting LRU if the set is
    /// full. Returns the evicted line (the directory must be told).
    pub fn fill(&mut self, addr: Address) -> Option<LineAddr> {
        let line = addr.line(self.line_bytes);
        let set = self.set_of(line);
        self.clock += 1;
        let clock = self.clock;
        if self.set(set).iter().any(|w| w.line == line) {
            return None; // already present (e.g. racing fills)
        }
        let filled = self.filled[set] as usize;
        if filled < self.assoc {
            self.ways[set * self.assoc + filled] = Way { line, stamp: clock };
            self.filled[set] += 1;
            return None;
        }
        let lru = self
            .set_mut(set)
            .iter_mut()
            .min_by_key(|w| w.stamp)
            .expect("set is full, hence nonempty");
        let evicted = lru.line;
        *lru = Way { line, stamp: clock };
        Some(evicted)
    }

    /// Drops `line` (coherence invalidation). Returns whether it was
    /// present. The set's last filled way takes the freed slot.
    pub fn invalidate(&mut self, line: LineAddr) -> bool {
        let set = self.set_of(line);
        let Some(i) = self.set(set).iter().position(|w| w.line == line) else {
            return false;
        };
        let ways = self.set_mut(set);
        let last = ways.len() - 1;
        ways.swap(i, last);
        self.filled[set] -= 1;
        true
    }

    /// Resident lines.
    pub fn occupancy(&self) -> usize {
        self.filled.iter().map(|&n| n as usize).sum()
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
        assert_eq!(cache.filled.len(), 512);
        assert_eq!(cache.ways.len(), 1024);
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

    /// The per-set layout the slab replaced, kept as the oracle: one
    /// growable `Vec` per set, `%` for the set and `/` for the line.
    struct Oracle {
        sets: Vec<Vec<Way>>,
        ways: usize,
        line_bytes: u64,
        clock: u64,
        stats: L1Stats,
    }

    impl Oracle {
        fn new(cfg: &L1Config) -> Self {
            Self {
                sets: vec![Vec::new(); cfg.sets() as usize],
                ways: cfg.ways as usize,
                line_bytes: u64::from(cfg.line_bytes),
                clock: 0,
                stats: L1Stats::default(),
            }
        }

        fn set_of(&self, line: LineAddr) -> usize {
            (line.0 % self.sets.len() as u64) as usize
        }

        fn access(&mut self, addr: Address) -> bool {
            let line = LineAddr(addr.0 / self.line_bytes);
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

        fn contains(&self, addr: Address) -> bool {
            let line = LineAddr(addr.0 / self.line_bytes);
            self.sets[self.set_of(line)].iter().any(|w| w.line == line)
        }

        fn fill(&mut self, addr: Address) -> Option<LineAddr> {
            let line = LineAddr(addr.0 / self.line_bytes);
            let set = self.set_of(line);
            self.clock += 1;
            let clock = self.clock;
            let ways = &mut self.sets[set];
            if ways.iter().any(|w| w.line == line) {
                return None;
            }
            if ways.len() < self.ways {
                ways.push(Way { line, stamp: clock });
                return None;
            }
            let lru = ways.iter_mut().min_by_key(|w| w.stamp).expect("full");
            let evicted = lru.line;
            *lru = Way { line, stamp: clock };
            Some(evicted)
        }

        fn invalidate(&mut self, line: LineAddr) -> bool {
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
    }

    fn config(sets: u32, ways: u32) -> L1Config {
        L1Config {
            bytes: sets * ways * 64,
            ways,
            ..L1Config::default()
        }
    }

    /// Seeded access / fill / invalidate / contains scripts drive the
    /// slab and the per-set oracle side by side; every return value, the
    /// occupancy, the clock, the counters and every set's ways in fill
    /// order must agree after every step.
    #[test]
    fn slab_matches_the_per_set_oracle() {
        use rand::rngs::StdRng;
        use rand::{RngExt, SeedableRng};
        for ways in [1u32, 2, 4, 16, 32] {
            for sets in [1u32, 2, 8] {
                let cfg = config(sets, ways);
                let mut rng = StdRng::seed_from_u64(u64::from(ways * 100 + sets));
                let (mut c, mut o) = (L1Cache::new(&cfg), Oracle::new(&cfg));
                // Twice the capacity in distinct lines, any byte of each.
                let lines = u64::from(2 * sets * ways);
                for step in 0..2_000 {
                    let addr = Address(rng.random_range(0..lines * 64));
                    let at = format!("ways={ways} sets={sets} step={step}");
                    match rng.random_range(0..4u8) {
                        0 => assert_eq!(c.access(addr), o.access(addr), "{at}"),
                        1 => assert_eq!(c.fill(addr), o.fill(addr), "{at}"),
                        2 => {
                            let line = addr.line(64);
                            assert_eq!(c.invalidate(line), o.invalidate(line), "{at}");
                        }
                        _ => assert_eq!(c.contains(addr), o.contains(addr), "{at}"),
                    }
                    let held: usize = o.sets.iter().map(Vec::len).sum();
                    assert_eq!(c.occupancy(), held, "{at}");
                    assert_eq!((c.clock, c.stats), (o.clock, o.stats), "{at}");
                    for (s, ways) in o.sets.iter().enumerate() {
                        assert_eq!(c.set(s), ways.as_slice(), "{at} set {s}");
                    }
                }
            }
        }
    }
}
