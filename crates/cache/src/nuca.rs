//! The shared NUCA L2: placement, location tracking, and lazy migration.
//!
//! Placement follows the paper (§4.2.2): a line's *initial* (home)
//! cluster comes from the low-order bits of its tag; its bank within the
//! cluster and set within the bank come from the index bits. Migration
//! moves a line only between clusters (§4.2.3), so a line's bank and set
//! stay fixed by its address and only its cluster can leave home. The
//! cluster tag arrays are therefore the record of where a line lives:
//! [`NucaL2`] keeps a map only of the lines resident away from their home
//! cluster, and the home cluster's set answers for every other line.
//!
//! Migration is *lazy* (§4.2.3): a migrating line stays visible at its old
//! location until the move commits, so searches issued mid-migration never
//! produce false misses.

use nim_obs::{Category, EventData, Obs};
use nim_types::addr::L2Map;
use nim_types::{ClusterId, FxHashMap, L2Config, LineAddr, LineMap};

use crate::bank::Bank;

/// Outcome of placing a line.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Placement {
    /// Cluster the line was placed in.
    pub cluster: ClusterId,
    /// Line evicted from that cluster's set to make room (a write-back /
    /// invalidation the caller must act on).
    pub evicted: Option<LineAddr>,
}

/// Outcome of committing a migration.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct MigrationOutcome {
    /// Where the line moved from.
    pub from: ClusterId,
    /// Where it now lives.
    pub to: ClusterId,
    /// Victim evicted at the destination, if its set was full.
    pub evicted: Option<LineAddr>,
}

/// Errors from the migration two-phase protocol.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum MigrationError {
    /// The line is not resident in the L2.
    NotResident(LineAddr),
    /// The line is already migrating.
    InFlight(LineAddr),
    /// Destination equals the current cluster.
    SamePlace(LineAddr),
}

impl core::fmt::Display for MigrationError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            MigrationError::NotResident(l) => write!(f, "line {l} not resident"),
            MigrationError::InFlight(l) => write!(f, "line {l} already migrating"),
            MigrationError::SamePlace(l) => write!(f, "line {l} already at destination"),
        }
    }
}

impl core::error::Error for MigrationError {}

/// Counters kept by the L2.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct L2Stats {
    /// Lines placed (initial placements, not migrations).
    pub insertions: u64,
    /// Lines evicted by placements or migrations.
    pub evictions: u64,
    /// Migrations committed.
    pub migrations: u64,
    /// Migrations aborted (line evicted mid-flight).
    pub migrations_aborted: u64,
}

/// Where a line sits in whichever cluster holds it: its bank within the
/// cluster, its set in that bank and its tag, all fixed by its address.
#[derive(Clone, Copy, Debug)]
struct Slot {
    bank: u32,
    set: u32,
    tag: u32,
}

/// The shared NUCA L2 cache.
#[derive(Clone, Debug)]
pub struct NucaL2 {
    map: L2Map,
    /// Every cluster's banks, cluster-major: bank `b` of cluster `c` is
    /// `banks[c × banks_per_cluster + b]`. A cluster's tag array is one
    /// set probe in one of its banks, because a line's bank and set are
    /// fixed by its address and only its cluster moves. Each bank is its
    /// own allocation: one slab for the whole L2 built slower.
    banks: Vec<Bank>,
    /// Committed cluster of every resident line whose cluster is not its
    /// home cluster, and of no other line: a line absent here is either
    /// in its home cluster's set or not resident. A [`LineMap`]: it sits
    /// on the per-transaction hot path ([`NucaL2::locate`]), and with no
    /// tombstones a table sized once by [`NucaL2::reserve`] keeps its size
    /// however many lines leave home and come back.
    moved: LineMap<ClusterId>,
    /// Resident lines across every bank.
    lines: usize,
    /// Line slots across every bank (the most `moved` can hold).
    slots: usize,
    /// Lines mid-migration: line → destination cluster.
    migrating: FxHashMap<LineAddr, ClusterId>,
    stats: L2Stats,
    /// Observability sink; disabled by default.
    obs: Obs,
}

impl NucaL2 {
    /// Creates an empty L2 with the given geometry.
    pub fn new(l2: &L2Config) -> Self {
        let map = l2.map();
        Self {
            map,
            banks: (0..l2.clusters * map.banks_per_cluster())
                .map(|_| Bank::new(map.sets_per_bank(), l2.ways))
                .collect(),
            moved: LineMap::default(),
            lines: 0,
            slots: l2.clusters as usize * l2.lines_per_cluster() as usize,
            migrating: FxHashMap::default(),
            stats: L2Stats::default(),
            obs: Obs::disabled(),
        }
    }

    /// Attaches an observability handle; migration and eviction events
    /// flow into it from now on (cycle stamps come from whichever
    /// component drives [`Obs::set_now`], normally the network).
    pub fn set_obs(&mut self, obs: Obs) {
        self.obs = obs;
    }

    /// The address decomposition in use.
    #[inline]
    pub fn map(&self) -> &L2Map {
        &self.map
    }

    /// Accumulated counters.
    #[inline]
    pub fn stats(&self) -> &L2Stats {
        &self.stats
    }

    /// Which cluster currently holds `line` (its *visible* location; a
    /// mid-migration line reports its old cluster — lazy migration).
    /// A line that left home answers from the away map; any other line
    /// from one probe of its home cluster's set.
    #[inline]
    pub fn locate(&self, line: LineAddr) -> Option<ClusterId> {
        if let Some(cl) = self.moved_to(line) {
            return Some(cl);
        }
        let home = self.home_cluster(line);
        self.in_set(line, home).then_some(home)
    }

    /// The committed cluster of `line` if it is resident away from home.
    /// The map is probed only while it holds anything.
    #[inline]
    fn moved_to(&self, line: LineAddr) -> Option<ClusterId> {
        if self.moved.is_empty() {
            return None;
        }
        self.moved.get(line)
    }

    /// The cluster a line would be *initially* placed in.
    #[inline]
    pub fn home_cluster(&self, line: LineAddr) -> ClusterId {
        self.map.home_cluster(line)
    }

    /// `line`'s bank within a cluster, set and tag, decoded once.
    #[inline]
    fn slot(&self, line: LineAddr) -> Slot {
        Slot {
            bank: self.map.bank_in_cluster(line),
            set: self.map.set_in_bank(line),
            tag: self.map.tag(line),
        }
    }

    /// The index in `banks` of bank `bank` of `cluster`.
    #[inline]
    fn bank_index(&self, cluster: ClusterId, bank: u32) -> usize {
        self.map.global_bank(cluster, bank).index()
    }

    /// The bank `at` names in `cluster`.
    #[inline]
    fn bank_mut(&mut self, cluster: ClusterId, at: Slot) -> &mut Bank {
        let i = self.bank_index(cluster, at.bank);
        &mut self.banks[i]
    }

    /// The line a victim `tag` evicted from slot `at` stands for: the
    /// line of that bank and set with that tag.
    #[inline]
    fn victim_of(&self, at: Slot, tag: u32) -> LineAddr {
        self.map.line_of(tag, at.bank, at.set)
    }

    /// Whether `cluster`'s tag array holds `line`: one set probe.
    #[inline]
    fn in_set(&self, line: LineAddr, cluster: ClusterId) -> bool {
        let at = self.slot(line);
        let bank = &self.banks[self.bank_index(cluster, at.bank)];
        bank.lookup(at.set, at.tag).is_some()
    }

    /// Marks a hit on `line` (updates pseudo-LRU at its location).
    ///
    /// Returns the cluster that served the hit, or `None` on a miss.
    pub fn touch(&mut self, line: LineAddr) -> Option<ClusterId> {
        let cl = self
            .moved_to(line)
            .unwrap_or_else(|| self.home_cluster(line));
        let at = self.slot(line);
        self.bank_mut(cl, at).touch(at.set, at.tag).then_some(cl)
    }

    /// Places `line` at its home cluster (servicing an L2 miss).
    ///
    /// # Panics
    ///
    /// Panics (debug) if the line is already resident.
    pub fn insert(&mut self, line: LineAddr) -> Placement {
        self.insert_at(line, self.home_cluster(line))
    }

    /// Places `line` in a specific cluster — used to set up a pre-warmed
    /// state in which migration has already pulled lines toward their
    /// steady-state position (the paper samples after a 500 M-cycle
    /// warm-up during which exactly this convergence happens).
    ///
    /// The line's bank, set and tag are decoded once, and a victim is
    /// rebuilt from the same decode.
    ///
    /// # Panics
    ///
    /// Panics (debug) if the line is already resident, or if the cluster
    /// id is out of range.
    pub fn insert_at(&mut self, line: LineAddr, cluster: ClusterId) -> Placement {
        debug_assert!(self.locate(line).is_none(), "line already resident");
        let at = self.slot(line);
        let evicted = self
            .bank_mut(cluster, at)
            .insert(at.set, at.tag)
            .evicted
            .map(|t| self.victim_of(at, t));
        if cluster != self.home_cluster(line) {
            self.moved.insert(line, cluster);
        }
        self.lines += 1;
        self.stats.insertions += 1;
        if let Some(victim) = evicted {
            self.note_eviction(victim, cluster);
        }
        Placement { cluster, evicted }
    }

    /// Starts a lazy migration of `line` to cluster `to`. The line remains
    /// visible at its current location until [`commit_migration`].
    ///
    /// # Errors
    ///
    /// See [`MigrationError`].
    ///
    /// [`commit_migration`]: Self::commit_migration
    pub fn begin_migration(&mut self, line: LineAddr, to: ClusterId) -> Result<(), MigrationError> {
        let from = self.locate(line).ok_or(MigrationError::NotResident(line))?;
        if from == to {
            return Err(MigrationError::SamePlace(line));
        }
        if self.migrating.contains_key(&line) {
            return Err(MigrationError::InFlight(line));
        }
        self.migrating.insert(line, to);
        self.obs
            .emit(Category::Migration, || EventData::MigrationStart {
                line: line.0,
                from: u32::from(from.0),
                to: u32::from(to.0),
            });
        Ok(())
    }

    /// Whether `line` is currently migrating (and to where).
    #[inline]
    pub fn migration_of(&self, line: LineAddr) -> Option<ClusterId> {
        self.migrating.get(&line).copied()
    }

    /// Completes a migration: the line disappears from its old cluster and
    /// appears at the destination, evicting a victim there if needed. A
    /// line that arrives back home leaves the away map.
    ///
    /// # Errors
    ///
    /// Returns [`MigrationError::NotResident`] if the migration was
    /// aborted in the meantime (e.g. the line was evicted mid-flight).
    pub fn commit_migration(&mut self, line: LineAddr) -> Result<MigrationOutcome, MigrationError> {
        let to = self
            .migrating
            .remove(&line)
            .ok_or(MigrationError::NotResident(line))?;
        let home = self.home_cluster(line);
        let from = self.moved_to(line).unwrap_or(home);
        let at = self.slot(line);
        if !self.bank_mut(from, at).remove(at.set, at.tag) {
            return Err(MigrationError::NotResident(line));
        }
        let evicted = self
            .bank_mut(to, at)
            .insert(at.set, at.tag)
            .evicted
            .map(|t| self.victim_of(at, t));
        if to == home {
            self.moved.remove(line);
        } else {
            self.moved.insert(line, to);
        }
        self.stats.migrations += 1;
        self.obs
            .emit(Category::Migration, || EventData::MigrationCommit {
                line: line.0,
                from: u32::from(from.0),
                to: u32::from(to.0),
            });
        if let Some(victim) = evicted {
            self.note_eviction(victim, to);
        }
        Ok(MigrationOutcome { from, to, evicted })
    }

    /// Sizes the away map for `lines` more lines resident away from
    /// their home cluster, clamped to the L2's line count, so a fill that
    /// parks a known set of lines (the prewarm) grows it once instead of
    /// rehashing at every doubling.
    pub fn reserve(&mut self, lines: usize) {
        let room = self.slots - self.moved.len();
        self.moved.reserve(lines.min(room));
    }

    /// Lines away from home the away map holds before it must grow.
    pub fn residency_capacity(&self) -> usize {
        self.moved.capacity()
    }

    /// Total resident lines.
    pub fn occupancy(&self) -> usize {
        self.lines
    }

    /// Lines resident in one cluster.
    pub fn cluster_occupancy(&self, cl: ClusterId) -> usize {
        let per = self.map.banks_per_cluster() as usize;
        let banks = &self.banks[cl.index() * per..(cl.index() + 1) * per];
        banks.iter().map(Bank::occupancy).sum()
    }

    /// Bookkeeping shared by every eviction path: the victim, evicted
    /// from `cl`'s set, leaves the line count and the away map, and a
    /// migration it had in flight is aborted.
    fn note_eviction(&mut self, victim: LineAddr, cl: ClusterId) {
        self.stats.evictions += 1;
        self.lines -= 1;
        if cl != self.home_cluster(victim) {
            self.moved.remove(victim);
        }
        self.obs.emit(Category::Bank, || EventData::Eviction {
            line: victim.0,
            cluster: u32::from(cl.0),
        });
        if let Some(to) = self.migrating.remove(&victim) {
            self.stats.migrations_aborted += 1;
            self.obs
                .emit(Category::Migration, || EventData::MigrationAbort {
                    line: victim.0,
                    from: u32::from(cl.0),
                    to: u32::from(to.0),
                });
        }
    }

    /// Whether `cluster` holds a copy of `line` — its committed location
    /// or an in-flight migration destination. This is what a tag probe
    /// of that cluster would answer. The committed location costs one
    /// lookup: the home set when `cluster` is home, the away map
    /// otherwise. The migration map is probed only while it holds
    /// anything.
    pub fn has_copy_at(&self, line: LineAddr, cluster: ClusterId) -> bool {
        let committed = if cluster == self.home_cluster(line) {
            self.in_set(line, cluster)
        } else {
            self.moved_to(line) == Some(cluster)
        };
        committed || (!self.migrating.is_empty() && self.migration_of(line) == Some(cluster))
    }

    /// Asserts the L2's structural invariants: every resident line,
    /// rebuilt from its tag, bank and set, sits in exactly one set
    /// across the clusters, the one its address maps to; a line has an
    /// away-map entry exactly when it is resident away from its home
    /// cluster, and the entry names that cluster; the line
    /// count equals the sum of bank occupancies; and every migrating line
    /// is resident somewhere other than its destination. Walks every
    /// bank, so it is meant for tests.
    ///
    /// # Panics
    ///
    /// Panics naming the first line that breaks an invariant.
    pub fn check_invariants(&self) {
        let per = self.map.banks_per_cluster() as usize;
        let mut seen: FxHashMap<LineAddr, ClusterId> = FxHashMap::default();
        for (b, bank) in self.banks.iter().enumerate() {
            let cl = ClusterId::from_index(b / per);
            for (set, tag) in bank.resident() {
                let line = self.map.line_of(tag, (b % per) as u32, set);
                let at = self.slot(line);
                let held = (self.bank_index(cl, at.bank), at.set);
                assert_eq!(held, (b, set), "{line} outside its set");
                if let Some(other) = seen.insert(line, cl) {
                    panic!("{line} is resident in both {other} and {cl}");
                }
                let away = (cl != self.home_cluster(line)).then_some(cl);
                assert_eq!(self.moved.get(line), away, "{line} in {cl}");
            }
        }
        for (line, cl) in self.moved.iter() {
            let held_away = seen.get(&line) == Some(&cl) && cl != self.home_cluster(line);
            assert!(held_away, "stale away-map entry: {line} in {cl}");
        }
        let held: usize = self.banks.iter().map(Bank::occupancy).sum();
        assert_eq!((self.lines, seen.len()), (held, held), "line count");
        for (line, to) in &self.migrating {
            let from = seen.get(line).copied();
            assert!(
                from.is_some_and(|f| f != *to),
                "{line} migrates from {from:?} to {to}"
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nim_types::L2Config;

    fn l2() -> NucaL2 {
        NucaL2::new(&L2Config::default())
    }

    /// A line whose home cluster is `cl` (cluster field is bits [10,14)).
    fn line_in_cluster(cl: u16, salt: u64) -> LineAddr {
        LineAddr((salt << 14) | (u64::from(cl) << 10))
    }

    #[test]
    fn insert_places_at_home_cluster() {
        let mut l2 = l2();
        let line = line_in_cluster(5, 1);
        let p = l2.insert(line);
        assert_eq!(p.cluster, ClusterId(5));
        assert_eq!(p.evicted, None);
        assert_eq!(l2.locate(line), Some(ClusterId(5)));
        assert_eq!(l2.occupancy(), 1);
        assert_eq!(l2.stats().insertions, 1);
    }

    #[test]
    fn touch_hits_only_resident_lines() {
        let mut l2 = l2();
        let line = line_in_cluster(0, 1);
        assert_eq!(l2.touch(line), None);
        l2.insert(line);
        assert_eq!(l2.touch(line), Some(ClusterId(0)));
    }

    #[test]
    fn migration_is_lazy_until_commit() {
        let mut l2 = l2();
        let line = line_in_cluster(2, 7);
        l2.insert(line);
        l2.begin_migration(line, ClusterId(3)).unwrap();
        // Still visible at the old place: no false misses (paper §4.2.3).
        assert_eq!(l2.locate(line), Some(ClusterId(2)));
        assert_eq!(l2.migration_of(line), Some(ClusterId(3)));
        let out = l2.commit_migration(line).unwrap();
        assert_eq!((out.from, out.to), (ClusterId(2), ClusterId(3)));
        assert_eq!(l2.locate(line), Some(ClusterId(3)));
        assert_eq!(l2.stats().migrations, 1);
        assert_eq!(l2.cluster_occupancy(ClusterId(2)), 0);
        assert_eq!(l2.cluster_occupancy(ClusterId(3)), 1);
    }

    #[test]
    fn begin_migration_rejects_bad_states() {
        let mut l2 = l2();
        let line = line_in_cluster(2, 7);
        assert_eq!(
            l2.begin_migration(line, ClusterId(3)),
            Err(MigrationError::NotResident(line))
        );
        l2.insert(line);
        assert_eq!(
            l2.begin_migration(line, ClusterId(2)),
            Err(MigrationError::SamePlace(line))
        );
        l2.begin_migration(line, ClusterId(3)).unwrap();
        assert_eq!(
            l2.begin_migration(line, ClusterId(4)),
            Err(MigrationError::InFlight(line))
        );
    }

    #[test]
    fn eviction_mid_migration_aborts_it() {
        let mut l2 = l2();
        // Fill one (cluster, bank, set) slot: 16 ways + 1.
        let mk = |i: u64| LineAddr(i << 14); // cluster 0, bank 0, set 0
        for i in 0..16 {
            l2.insert(mk(i));
        }
        l2.begin_migration(mk(0), ClusterId(1)).unwrap();
        // The 17th insert evicts someone; make every line migrating so the
        // abort path must fire for the victim.
        for i in 1..16 {
            l2.begin_migration(mk(i), ClusterId(1)).unwrap();
        }
        let p = l2.insert(mk(16));
        let victim = p.evicted.expect("16-way set overflows");
        assert_eq!(l2.locate(victim), None);
        assert!(
            l2.commit_migration(victim).is_err(),
            "aborted migration cannot commit"
        );
        assert_eq!(l2.stats().migrations_aborted, 1);
        assert_eq!(l2.stats().evictions, 1);
    }

    #[test]
    fn commit_migration_can_evict_at_destination() {
        let mut l2 = l2();
        // Fill (cluster 1, bank 0, set 0) completely.
        let mk1 = |i: u64| LineAddr((i << 14) | (1 << 10));
        for i in 0..16 {
            l2.insert(mk1(i));
        }
        // Migrate a cluster-0 line into cluster 1's identical slot.
        let mover = LineAddr(99 << 14);
        l2.insert(mover);
        l2.begin_migration(mover, ClusterId(1)).unwrap();
        let out = l2.commit_migration(mover).unwrap();
        assert!(out.evicted.is_some(), "destination set was full");
        assert_eq!(l2.locate(out.evicted.unwrap()), None);
    }

    /// The tag-array probe of `cl`: the one set of the one bank `line`
    /// maps to there.
    fn in_tags(l2: &NucaL2, line: LineAddr, cl: ClusterId) -> bool {
        let bank = l2.map.global_bank(cl, l2.map.bank_in_cluster(line));
        let set = l2.map.set_in_bank(line);
        l2.banks[bank.index()]
            .lookup(set, l2.map.tag(line))
            .is_some()
    }

    #[test]
    fn insert_contains_remove_round_trip() {
        let mut l2 = l2();
        let (line, cl) = (LineAddr(0xdead), ClusterId(3));
        assert!(!l2.has_copy_at(line, cl) && !in_tags(&l2, line, cl));
        l2.insert_at(line, cl);
        assert!(l2.has_copy_at(line, cl) && in_tags(&l2, line, cl));
        assert_eq!(l2.cluster_occupancy(cl), 1);
        // Moving the line away removes it from cluster 3's tags.
        l2.begin_migration(line, ClusterId(4)).unwrap();
        l2.commit_migration(line).unwrap();
        assert!(!l2.has_copy_at(line, cl) && !in_tags(&l2, line, cl));
        assert_eq!(l2.cluster_occupancy(cl), 0);
        assert!(in_tags(&l2, line, ClusterId(4)));
    }

    #[test]
    fn lines_land_in_their_address_mapped_bank() {
        let mut l2 = l2();
        let cl = ClusterId(3);
        // Two lines differing only in bank bits must not conflict even in
        // the same set position.
        let (a, b) = (LineAddr(0b0000), LineAddr(0b0001));
        l2.insert_at(a, cl);
        l2.insert_at(b, cl);
        assert!(l2.has_copy_at(a, cl) && l2.has_copy_at(b, cl));
        assert!(in_tags(&l2, a, cl) && in_tags(&l2, b, cl));
        assert_eq!(l2.cluster_occupancy(cl), 2);
        for line in [a, b] {
            let bank = l2.map.global_bank(cl, l2.map.bank_in_cluster(line));
            assert_eq!(l2.banks[bank.index()].occupancy(), 1, "{line}");
        }
    }

    #[test]
    fn conflict_misses_evict_within_one_set() {
        let mut l2 = l2();
        let cl = ClusterId(3);
        // 17 lines mapping to bank 0, set 0 of a 16-way set: the stride
        // steps the tag above the bank, set and cluster fields.
        let mut evicted = Vec::new();
        for i in 0..17u64 {
            evicted.extend(l2.insert_at(LineAddr(i << 14), cl).evicted);
        }
        assert_eq!(evicted.len(), 1, "only the 17th line evicts");
        assert!(!l2.has_copy_at(evicted[0], cl) && !in_tags(&l2, evicted[0], cl));
        assert_eq!(l2.stats().evictions, 1);
        for c in 0..16u16 {
            let want = if c == cl.0 { 16 } else { 0 };
            assert_eq!(l2.cluster_occupancy(ClusterId(c)), want, "cluster {c}");
        }
    }

    #[test]
    fn distinct_home_clusters_cover_the_whole_l2() {
        let mut l2 = l2();
        for cl in 0..16u16 {
            let line = line_in_cluster(cl, 0);
            assert_eq!(l2.home_cluster(line), ClusterId(cl));
            l2.insert(line);
        }
        for cl in 0..16u16 {
            assert_eq!(l2.cluster_occupancy(ClusterId(cl)), 1);
        }
    }

    /// Lines whose tags sit at the top of the 32-bit range, all in one
    /// set of one cluster: every victim an overflowing insert reports is
    /// exactly a line that went in, rebuilt from its tag, bank and set.
    #[test]
    fn victims_at_the_top_of_the_tag_range_are_the_lines_that_went_in() {
        let mut l2 = l2();
        let map = *l2.map();
        let (cl, bank, set) = (ClusterId(6), 5, 17);
        let lines: Vec<LineAddr> = (0..40)
            .map(|i| map.line_of(u32::MAX - i, bank, set))
            .collect();
        let mut victims = Vec::new();
        for (i, &line) in lines.iter().enumerate() {
            let evicted = l2.insert_at(line, cl).evicted;
            assert_eq!(evicted.is_some(), i >= 16, "insert {i}");
            if let Some(victim) = evicted {
                assert!(lines[..i].contains(&victim), "{victim} never went in");
                assert!(!victims.contains(&victim), "{victim} evicted twice");
                assert_eq!(l2.locate(victim), None);
                victims.push(victim);
            }
            l2.check_invariants();
        }
        let resident = lines.iter().filter(|&&l| l2.locate(l) == Some(cl)).count();
        assert_eq!((resident, victims.len()), (16, 24));
    }

    /// A way stores a 4-byte tag: 262 144 ways take 1 MiB on the default
    /// 16 MB L2, and 4 MiB at four times the capacity.
    #[test]
    fn the_tag_store_takes_four_bytes_a_way() {
        for (scale, mib) in [(1, 1), (4, 4)] {
            let l2 = NucaL2::new(&L2Config::default().scaled(scale));
            let ways = l2.slots;
            let bytes: usize = l2.banks.iter().map(Bank::tag_store_bytes).sum();
            assert_eq!(
                (ways, bytes),
                (262_144 * scale as usize, mib << 20),
                "×{scale}"
            );
        }
    }
}
