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

#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
struct Way {
    line: LineAddr,
    stamp: u64,
}

codec_struct!(Way { line, stamp });

/// One side (I or D) of a private L1 cache.
///
/// Every set's ways live in one set-major slab: set `s` owns slots
/// `[s·ways, (s+1)·ways)`, of which the first `filled[s]` hold lines in
/// fill order. Geometry is powers of two (`SystemConfig::validate`), so
/// the line is a shift of the address and the set a mask of the line.
#[derive(Clone, Debug)]
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

/// The image is the clock, the counters, then each set's filled ways in
/// fill order behind their counts — the layout of a `Vec<Vec<Way>>`.
impl Checkpoint for L1Cache {
    fn save(&self, w: &mut ByteWriter) {
        self.clock.put(w);
        self.stats.put(w);
        w.len_prefix(self.filled.len());
        for set in 0..self.filled.len() {
            let ways = self.set(set);
            w.len_prefix(ways.len());
            for way in ways {
                way.put(w);
            }
        }
    }

    /// Rebuilds the fill counts from the image and rejects a set that
    /// overflows its ways, holds a line of another set, or holds a line
    /// twice: each would resume silently and misbehave later (a line in
    /// the wrong set never hits; a duplicate outlives its invalidation).
    fn restore(&mut self, r: &mut ByteReader<'_>) -> Result<(), CodecError> {
        self.clock = Codec::get(r)?;
        self.stats = Codec::get(r)?;
        let sets: Vec<Vec<Way>> = r.seq_of_len(self.filled.len(), "L1 set count mismatch")?;
        for (s, ways) in sets.iter().enumerate() {
            if ways.len() > self.assoc {
                return Err(CodecError::Corrupt("L1 set overflows its ways"));
            }
            if ways.iter().any(|w| self.set_of(w.line) != s) {
                return Err(CodecError::Corrupt("L1 line in the wrong set"));
            }
            if ways
                .iter()
                .enumerate()
                .any(|(i, w)| ways[..i].iter().any(|v| v.line == w.line))
            {
                return Err(CodecError::Corrupt("L1 line held twice in a set"));
            }
        }
        for (s, ways) in sets.into_iter().enumerate() {
            let base = s * self.assoc;
            self.ways[base..base + ways.len()].copy_from_slice(&ways);
            self.filled[s] = ways.len() as u32;
        }
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

        fn image(&self) -> Vec<u8> {
            let mut w = ByteWriter::new();
            self.clock.put(&mut w);
            self.stats.put(&mut w);
            self.sets.put(&mut w);
            w.into_bytes()
        }
    }

    fn image(c: &L1Cache) -> Vec<u8> {
        let mut w = ByteWriter::new();
        c.save(&mut w);
        w.into_bytes()
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
    /// occupancy and the checkpoint image must agree after every step,
    /// and the slab must restore from the oracle's image.
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
                    let want = o.image();
                    assert_eq!(image(&c), want, "{at}");
                    if step % 97 == 0 {
                        let mut back = L1Cache::new(&cfg);
                        back.restore(&mut ByteReader::new(&want)).expect("restores");
                        assert_eq!(image(&back), want, "{at}");
                        assert_eq!(back.filled, c.filled, "{at}: fill counts rebuilt");
                    }
                }
            }
        }
    }

    /// An image of a 2-set, 2-way L1 whose sets hold `sets`.
    fn hand_built(sets: &[&[u64]]) -> Vec<u8> {
        let sets: Vec<Vec<Way>> = sets
            .iter()
            .map(|lines| {
                lines
                    .iter()
                    .map(|&l| Way {
                        line: LineAddr(l),
                        stamp: l,
                    })
                    .collect()
            })
            .collect();
        let mut w = ByteWriter::new();
        9u64.put(&mut w);
        L1Stats::default().put(&mut w);
        sets.put(&mut w);
        w.into_bytes()
    }

    fn restore_of(bytes: &[u8]) -> Result<(), CodecError> {
        L1Cache::new(&config(2, 2)).restore(&mut ByteReader::new(bytes))
    }

    #[test]
    fn restore_accepts_a_consistent_image() {
        assert_eq!(restore_of(&hand_built(&[&[4, 2], &[3]])), Ok(()));
    }

    #[test]
    fn restore_rejects_a_line_of_another_set() {
        // Line 5 maps to set 1, not set 0: it could never hit.
        assert_eq!(
            restore_of(&hand_built(&[&[4, 5], &[]])),
            Err(CodecError::Corrupt("L1 line in the wrong set"))
        );
    }

    #[test]
    fn restore_rejects_a_line_held_twice() {
        // Invalidating line 3 would leave its twin to hit afterwards.
        assert_eq!(
            restore_of(&hand_built(&[&[], &[3, 3]])),
            Err(CodecError::Corrupt("L1 line held twice in a set"))
        );
    }

    #[test]
    fn restore_rejects_an_overfull_set() {
        assert_eq!(
            restore_of(&hand_built(&[&[0, 2, 4], &[]])),
            Err(CodecError::Corrupt("L1 set overflows its ways"))
        );
        assert_eq!(
            restore_of(&hand_built(&[&[0]])),
            Err(CodecError::Corrupt("L1 set count mismatch"))
        );
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
