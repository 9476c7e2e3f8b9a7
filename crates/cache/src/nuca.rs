//! The shared NUCA L2: placement, location tracking, and lazy migration.
//!
//! Placement follows the paper (§4.2.2): a line's *initial* cluster comes
//! from the low-order bits of its tag; its bank within the cluster and set
//! within the bank come from the index bits. Once lines migrate, the
//! cluster can no longer be derived from the address, so [`NucaL2`] keeps
//! the authoritative line → cluster map (the union of all cluster tag
//! arrays).
//!
//! Migration is *lazy* (§4.2.3): a migrating line stays visible at its old
//! location until the move commits, so searches issued mid-migration never
//! produce false misses.
//!
//! Beyond the paper's design, the L2 optionally supports *replication*
//! (the alternative §1 discusses via NuRapid and victim replication):
//! read-only copies of a line may be installed in additional clusters with
//! [`NucaL2::add_replica`]; the primary copy remains authoritative
//! ([`NucaL2::locate`]) and writers must [`NucaL2::drop_replicas`].

use nim_obs::{Category, EventData, Obs};
use nim_types::addr::L2Map;
use nim_types::{ClusterId, FxHashMap, L2Config, LineAddr};

use crate::cluster::Cluster;

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
    /// Migrations aborted (line evicted mid-flight, or cancelled).
    pub migrations_aborted: u64,
    /// Read-only replicas installed.
    pub replicas_created: u64,
    /// Replicas dropped (write invalidations, evictions, removals).
    pub replicas_dropped: u64,
}

/// The shared NUCA L2 cache.
#[derive(Clone, Debug)]
pub struct NucaL2 {
    map: L2Map,
    clusters: Vec<Cluster>,
    /// Authoritative line → committed cluster map. [`FxHashMap`] because
    /// [`NucaL2::locate`] sits on the per-transaction hot path and the
    /// keys are trusted line addresses.
    resident: FxHashMap<LineAddr, ClusterId>,
    /// Line slots across every bank (the most `resident` can hold).
    slots: usize,
    /// Lines mid-migration: line → destination cluster.
    migrating: FxHashMap<LineAddr, ClusterId>,
    /// Read-only replicas: line → clusters holding extra copies.
    replicas: FxHashMap<LineAddr, Vec<ClusterId>>,
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
            clusters: (0..l2.clusters)
                .map(|i| Cluster::new(ClusterId(i as u16), &map, l2.ways))
                .collect(),
            resident: FxHashMap::default(),
            slots: l2.clusters as usize * l2.lines_per_cluster() as usize,
            migrating: FxHashMap::default(),
            replicas: FxHashMap::default(),
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
    #[inline]
    pub fn locate(&self, line: LineAddr) -> Option<ClusterId> {
        self.resident.get(&line).copied()
    }

    /// The cluster a line would be *initially* placed in.
    #[inline]
    pub fn home_cluster(&self, line: LineAddr) -> ClusterId {
        self.map.home_cluster(line)
    }

    /// Marks a hit on `line` (updates pseudo-LRU at its location).
    ///
    /// Returns the cluster that served the hit, or `None` on a miss.
    pub fn touch(&mut self, line: LineAddr) -> Option<ClusterId> {
        let cl = self.locate(line)?;
        self.clusters[cl.index()].touch(&self.map, line);
        Some(cl)
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
    /// # Panics
    ///
    /// Panics (debug) if the line is already resident, or if the cluster
    /// id is out of range.
    pub fn insert_at(&mut self, line: LineAddr, cluster: ClusterId) -> Placement {
        debug_assert!(self.locate(line).is_none(), "line already resident");
        let ins = self.clusters[cluster.index()].insert(&self.map, line);
        self.resident.insert(line, cluster);
        self.stats.insertions += 1;
        if let Some(victim) = ins.evicted {
            self.note_eviction(victim);
        }
        Placement {
            cluster,
            evicted: ins.evicted,
        }
    }

    /// Invalidates `line` (primary and every replica); returns its
    /// primary cluster if it was resident.
    pub fn remove(&mut self, line: LineAddr) -> Option<ClusterId> {
        let cl = self.resident.remove(&line)?;
        let removed = self.clusters[cl.index()].remove(&self.map, line);
        debug_assert!(removed, "resident map out of sync");
        if let Some(to) = self.migrating.remove(&line) {
            self.stats.migrations_aborted += 1;
            self.obs
                .emit(Category::Migration, || EventData::MigrationAbort {
                    line: line.0,
                    from: u32::from(cl.0),
                    to: u32::from(to.0),
                });
        }
        self.drop_replicas(line);
        Some(cl)
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
    /// appears at the destination, evicting a victim there if needed.
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
        let from = self.locate(line).ok_or(MigrationError::NotResident(line))?;
        let removed = self.clusters[from.index()].remove(&self.map, line);
        debug_assert!(removed);
        // If the destination already holds a replica, the arriving
        // primary simply takes its place (promote in place).
        let promoted = self
            .replicas
            .get_mut(&line)
            .map(|rs| {
                let had = rs.iter().position(|c| *c == to);
                if let Some(i) = had {
                    rs.swap_remove(i);
                }
                had.is_some()
            })
            .unwrap_or(false);
        let evicted = if promoted {
            self.stats.replicas_dropped += 1;
            self.clusters[to.index()].touch(&self.map, line);
            None
        } else {
            let ins = self.clusters[to.index()].insert(&self.map, line);
            ins.evicted
        };
        self.resident.insert(line, to);
        self.stats.migrations += 1;
        self.obs
            .emit(Category::Migration, || EventData::MigrationCommit {
                line: line.0,
                from: u32::from(from.0),
                to: u32::from(to.0),
            });
        if let Some(victim) = evicted {
            self.note_eviction(victim);
        }
        Ok(MigrationOutcome { from, to, evicted })
    }

    /// Abandons an in-flight migration (the line stays where it is).
    pub fn abort_migration(&mut self, line: LineAddr) {
        if let Some(to) = self.migrating.remove(&line) {
            self.stats.migrations_aborted += 1;
            let from = self.locate(line).unwrap_or(to);
            self.obs
                .emit(Category::Migration, || EventData::MigrationAbort {
                    line: line.0,
                    from: u32::from(from.0),
                    to: u32::from(to.0),
                });
        }
    }

    /// Sizes the residency map for `lines` more resident lines, clamped
    /// to the L2's line count, so a fill of a known working set (the
    /// prewarm) grows it once instead of rehashing at every doubling.
    pub fn reserve(&mut self, lines: usize) {
        let room = self.slots - self.resident.len();
        self.resident.reserve(lines.min(room));
    }

    /// Resident lines the residency map holds before it must grow.
    pub fn residency_capacity(&self) -> usize {
        self.resident.capacity()
    }

    /// Total resident lines.
    pub fn occupancy(&self) -> usize {
        self.resident.len()
    }

    /// Lines resident in one cluster.
    pub fn cluster_occupancy(&self, cl: ClusterId) -> usize {
        self.clusters[cl.index()].occupancy()
    }

    /// Bookkeeping shared by every eviction path. The evicted slot may
    /// have held either the victim's primary copy or one of its replicas;
    /// callers pass the cluster the eviction happened in via the bank
    /// structures, so this resolves which record to drop by comparing
    /// against the resident map.
    fn note_eviction(&mut self, victim: LineAddr) {
        // If the victim's primary is still present in some cluster's bank,
        // the slot we just reclaimed must have been a replica.
        let primary_still_resident = self
            .resident
            .get(&victim)
            .is_some_and(|cl| self.clusters[cl.index()].contains(&self.map, victim));
        if primary_still_resident {
            // A replica was evicted; find and drop the stale record.
            if let Some(rs) = self.replicas.get_mut(&victim) {
                let map = &self.map;
                if let Some(i) = rs
                    .iter()
                    .position(|c| !self.clusters[c.index()].contains(map, victim))
                {
                    rs.swap_remove(i);
                    self.stats.replicas_dropped += 1;
                }
                if rs.is_empty() {
                    self.replicas.remove(&victim);
                }
            }
            return;
        }
        self.stats.evictions += 1;
        let cl = self.resident.remove(&victim);
        self.obs.emit(Category::Bank, || EventData::Eviction {
            line: victim.0,
            cluster: cl.map_or(u32::MAX, |c| u32::from(c.0)),
        });
        if let Some(to) = self.migrating.remove(&victim) {
            self.stats.migrations_aborted += 1;
            let from = cl.unwrap_or(to);
            self.obs
                .emit(Category::Migration, || EventData::MigrationAbort {
                    line: victim.0,
                    from: u32::from(from.0),
                    to: u32::from(to.0),
                });
        }
        self.drop_replicas(victim);
    }

    // ----- replication (extension; see module docs) -----------------------

    /// Clusters holding read-only replicas of `line`.
    pub fn replicas_of(&self, line: LineAddr) -> &[ClusterId] {
        self.replicas.get(&line).map_or(&[], Vec::as_slice)
    }

    /// Whether `cluster` holds *any* copy of `line` — the primary, an
    /// in-flight migration destination, or a replica. This is what a tag
    /// probe of that cluster would answer. The migration and replica maps
    /// are probed only while they hold anything.
    pub fn has_copy_at(&self, line: LineAddr, cluster: ClusterId) -> bool {
        self.locate(line) == Some(cluster)
            || (!self.migrating.is_empty() && self.migration_of(line) == Some(cluster))
            || (!self.replicas.is_empty() && self.replicas_of(line).contains(&cluster))
    }

    /// Installs a read-only replica of `line` in `cluster`.
    ///
    /// # Errors
    ///
    /// Returns [`MigrationError::NotResident`] if the line has no primary
    /// copy, or [`MigrationError::SamePlace`] if `cluster` already holds
    /// a copy.
    pub fn add_replica(
        &mut self,
        line: LineAddr,
        cluster: ClusterId,
    ) -> Result<Placement, MigrationError> {
        if self.locate(line).is_none() {
            return Err(MigrationError::NotResident(line));
        }
        if self.has_copy_at(line, cluster) {
            return Err(MigrationError::SamePlace(line));
        }
        let ins = self.clusters[cluster.index()].insert(&self.map, line);
        self.replicas.entry(line).or_default().push(cluster);
        self.stats.replicas_created += 1;
        if let Some(victim) = ins.evicted {
            self.note_eviction(victim);
        }
        Ok(Placement {
            cluster,
            evicted: ins.evicted,
        })
    }

    /// Drops every replica of `line` (a write is about to make them
    /// stale). Returns the clusters that held one.
    pub fn drop_replicas(&mut self, line: LineAddr) -> Vec<ClusterId> {
        let Some(clusters) = self.replicas.remove(&line) else {
            return Vec::new();
        };
        for cl in &clusters {
            let removed = self.clusters[cl.index()].remove(&self.map, line);
            debug_assert!(removed, "replica map out of sync");
            self.stats.replicas_dropped += 1;
        }
        clusters
    }

    /// Marks a hit on the copy of `line` held by `cluster` — primary or
    /// replica, whichever that cluster's bank actually contains. Falls
    /// back to touching the primary if the cluster holds no copy (e.g. a
    /// replica dropped while the request was in flight). Returns whether
    /// any copy was touched.
    pub fn touch_at(&mut self, line: LineAddr, cluster: ClusterId) -> bool {
        let holds = self.locate(line) == Some(cluster) || self.replicas_of(line).contains(&cluster);
        if holds && self.clusters[cluster.index()].contains(&self.map, line) {
            self.clusters[cluster.index()].touch(&self.map, line);
            true
        } else {
            self.touch(line).is_some()
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

    /// Total replicas currently installed.
    fn replica_count(l2: &NucaL2) -> usize {
        l2.replicas.values().map(Vec::len).sum()
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

    #[test]
    fn remove_aborts_migration_and_clears_maps() {
        let mut l2 = l2();
        let line = line_in_cluster(4, 2);
        l2.insert(line);
        l2.begin_migration(line, ClusterId(5)).unwrap();
        assert_eq!(l2.remove(line), Some(ClusterId(4)));
        assert_eq!(l2.locate(line), None);
        assert_eq!(l2.migration_of(line), None);
        assert_eq!(l2.stats().migrations_aborted, 1);
        assert_eq!(l2.remove(line), None, "double remove");
    }

    #[test]
    fn abort_is_idempotent() {
        let mut l2 = l2();
        let line = line_in_cluster(0, 3);
        l2.insert(line);
        l2.begin_migration(line, ClusterId(1)).unwrap();
        l2.abort_migration(line);
        l2.abort_migration(line);
        assert_eq!(l2.stats().migrations_aborted, 1);
        assert_eq!(l2.locate(line), Some(ClusterId(0)), "line untouched");
    }

    #[test]
    fn replica_lifecycle_install_hit_drop() {
        let mut l2 = l2();
        let line = line_in_cluster(0, 9);
        l2.insert(line);
        assert!(l2.replicas_of(line).is_empty());
        let p = l2.add_replica(line, ClusterId(5)).unwrap();
        assert_eq!(p.cluster, ClusterId(5));
        assert!(l2.has_copy_at(line, ClusterId(0)), "primary");
        assert!(l2.has_copy_at(line, ClusterId(5)), "replica");
        assert!(!l2.has_copy_at(line, ClusterId(3)));
        assert_eq!(l2.locate(line), Some(ClusterId(0)), "primary unchanged");
        assert_eq!(replica_count(&l2), 1);
        assert_eq!(l2.stats().replicas_created, 1);
        // A write drops every replica.
        let dropped = l2.drop_replicas(line);
        assert_eq!(dropped, vec![ClusterId(5)]);
        assert!(!l2.has_copy_at(line, ClusterId(5)));
        assert_eq!(l2.stats().replicas_dropped, 1);
        assert_eq!(l2.cluster_occupancy(ClusterId(5)), 0);
    }

    #[test]
    fn replicas_reject_duplicates_and_ghosts() {
        let mut l2 = l2();
        let line = line_in_cluster(1, 4);
        assert!(matches!(
            l2.add_replica(line, ClusterId(2)),
            Err(MigrationError::NotResident(_))
        ));
        l2.insert(line);
        l2.add_replica(line, ClusterId(2)).unwrap();
        assert!(matches!(
            l2.add_replica(line, ClusterId(2)),
            Err(MigrationError::SamePlace(_))
        ));
        assert!(
            matches!(
                l2.add_replica(line, ClusterId(1)),
                Err(MigrationError::SamePlace(_)),
            ),
            "the primary cluster already holds a copy"
        );
    }

    #[test]
    fn remove_clears_replicas_too() {
        let mut l2 = l2();
        let line = line_in_cluster(3, 6);
        l2.insert(line);
        l2.add_replica(line, ClusterId(7)).unwrap();
        l2.add_replica(line, ClusterId(9)).unwrap();
        assert_eq!(replica_count(&l2), 2);
        l2.remove(line);
        assert_eq!(replica_count(&l2), 0);
        assert_eq!(l2.cluster_occupancy(ClusterId(7)), 0);
        assert_eq!(l2.cluster_occupancy(ClusterId(9)), 0);
    }

    #[test]
    fn migration_into_a_replica_promotes_it() {
        let mut l2 = l2();
        let line = line_in_cluster(0, 2);
        l2.insert(line);
        l2.add_replica(line, ClusterId(4)).unwrap();
        l2.begin_migration(line, ClusterId(4)).unwrap();
        let out = l2.commit_migration(line).unwrap();
        assert_eq!(out.to, ClusterId(4));
        assert_eq!(out.evicted, None, "replica slot is reused");
        assert_eq!(l2.locate(line), Some(ClusterId(4)));
        assert!(!l2.replicas_of(line).contains(&ClusterId(4)));
        assert_eq!(l2.cluster_occupancy(ClusterId(0)), 0);
        assert_eq!(l2.cluster_occupancy(ClusterId(4)), 1);
    }

    #[test]
    fn evicting_a_replica_keeps_the_primary() {
        let mut l2 = l2();
        // Fill (cluster 1, bank 0, set 0) with 15 lines + 1 replica.
        let mk1 = |i: u64| LineAddr((i << 14) | (1 << 10));
        for i in 0..15 {
            l2.insert(mk1(i));
        }
        let shared = LineAddr(77 << 14); // home cluster 0
        l2.insert(shared);
        l2.add_replica(shared, ClusterId(1)).unwrap(); // fills way 16
                                                       // One more insert into the same set evicts pseudo-LRU — keep
                                                       // inserting until the replica is the victim.
        let mut i = 15u64;
        while replica_count(&l2) == 1 && i < 40 {
            l2.insert(mk1(i));
            i += 1;
        }
        assert_eq!(replica_count(&l2), 0, "replica eventually evicted");
        assert_eq!(
            l2.locate(shared),
            Some(ClusterId(0)),
            "primary copy survives replica eviction"
        );
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
}
