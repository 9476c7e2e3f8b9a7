//! Directory-based MSI coherence for private L1 caches (paper §5.1).
//!
//! The paper keeps the private L1s of the eight processors coherent with
//! a distributed directory implementing MSI; L1 events (read misses,
//! writes) drive state transitions and generate invalidation traffic that
//! the network simulation carries. This module is the protocol's
//! functional core: who may cache what, and which messages each access
//! must generate. Transport and timing belong to `nim-core`.

use nim_obs::{Category, EventData, Obs};
use nim_types::{CpuId, FxHashMap, LineAddr};

/// Global coherence state of one line across all L1s.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum LineState {
    /// No L1 holds the line.
    Invalid,
    /// One or more L1s hold a clean copy.
    Shared,
    /// Exactly one L1 holds the line with write permission (write-back
    /// configurations only; the paper's write-through L1s never hold M).
    Modified,
}

/// What an L1 does with a line.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum DirAccess {
    /// Load or instruction fetch.
    Read,
    /// Store.
    Write,
}

/// How stores interact with the next level.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum WritePolicy {
    /// Stores update L2 immediately; L1 copies stay clean (`Shared`).
    /// This is the paper's configuration (Table 4).
    WriteThrough,
    /// Stores dirty the L1 copy (`Modified`); eviction writes back.
    WriteBack,
}

/// A set of CPUs (L1 caches), iterated in ascending id order — the
/// directory's sharer bitset handed out by value, so reporting who must
/// be invalidated allocates nothing.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SharerSet(u64);

impl SharerSet {
    /// Number of CPUs in the set.
    #[inline]
    pub fn len(self) -> usize {
        self.0.count_ones() as usize
    }

    /// Whether the set is empty.
    #[inline]
    pub fn is_empty(self) -> bool {
        self.0 == 0
    }

    /// Whether `cpu` is in the set.
    #[inline]
    pub fn contains(self, cpu: CpuId) -> bool {
        self.0 >> cpu.index() & 1 != 0
    }

    /// The lowest-numbered CPU in the set.
    #[inline]
    pub fn first(self) -> Option<CpuId> {
        self.iter().next()
    }

    /// The CPUs in the set, lowest first.
    #[inline]
    pub fn iter(self) -> impl Iterator<Item = CpuId> {
        nim_types::bits(self.0).map(|i| CpuId(i as u16))
    }
}

impl PartialEq<Vec<CpuId>> for SharerSet {
    /// Equal to a list naming exactly the set's CPUs in ascending order.
    fn eq(&self, other: &Vec<CpuId>) -> bool {
        self.iter().eq(other.iter().copied())
    }
}

/// The coherence actions one access requires.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CoherenceOutcome {
    /// L1s that must invalidate their copy.
    pub invalidations: SharerSet,
    /// A previous owner must flush dirty data before the access proceeds
    /// (write-back mode only).
    pub flush_from: Option<CpuId>,
}

#[derive(Clone, Debug)]
struct Entry {
    state: LineState,
    sharers: u64,
}

/// The directory: line → (state, sharer set).
///
/// Sharer sets are bitsets, so at most 64 CPUs are supported (the paper
/// uses 8).
#[derive(Clone, Debug)]
pub struct Directory {
    /// [`FxHashMap`]: looked up on every L1 fill/store completion with
    /// trusted line-address keys — SipHash is wasted work here.
    entries: FxHashMap<LineAddr, Entry>,
    policy: WritePolicy,
    num_cpus: u32,
    /// Invalidation messages generated so far (for traffic accounting).
    pub invalidations_sent: u64,
    /// Observability sink; disabled by default.
    obs: Obs,
}

impl Directory {
    /// Creates an empty MSI directory for `num_cpus` processors (the
    /// paper's protocol).
    ///
    /// # Panics
    ///
    /// Panics if `num_cpus` exceeds 64.
    pub fn new(num_cpus: u32, policy: WritePolicy) -> Self {
        assert!(num_cpus <= 64, "sharer bitset supports at most 64 CPUs");
        Self {
            entries: FxHashMap::default(),
            policy,
            num_cpus,
            invalidations_sent: 0,
            obs: Obs::disabled(),
        }
    }

    /// Attaches an observability handle; invalidation events flow into
    /// it from now on.
    pub fn set_obs(&mut self, obs: Obs) {
        self.obs = obs;
    }

    /// Global state of a line.
    pub fn state(&self, line: LineAddr) -> LineState {
        self.entries
            .get(&line)
            .map_or(LineState::Invalid, |e| e.state)
    }

    /// CPUs currently holding the line.
    pub fn sharers(&self, line: LineAddr) -> SharerSet {
        SharerSet(self.entries.get(&line).map_or(0, |e| e.sharers))
    }

    /// Whether `cpu` holds the line.
    pub fn holds(&self, line: LineAddr, cpu: CpuId) -> bool {
        self.entries
            .get(&line)
            .is_some_and(|e| e.sharers & (1 << cpu.index()) != 0)
    }

    /// Processes an access by `cpu` and returns the required actions.
    ///
    /// # Panics
    ///
    /// Panics if `cpu` is out of range.
    pub fn access(&mut self, cpu: CpuId, line: LineAddr, access: DirAccess) -> CoherenceOutcome {
        assert!((cpu.index() as u32) < self.num_cpus, "unknown cpu {cpu}");
        let bit = 1u64 << cpu.index();
        let entry = self.entries.entry(line).or_insert(Entry {
            state: LineState::Invalid,
            sharers: 0,
        });
        let mut out = CoherenceOutcome::default();
        match access {
            DirAccess::Read => {
                if entry.state == LineState::Modified && entry.sharers != bit {
                    // Owner must provide data and demote to Shared.
                    out.flush_from = SharerSet(entry.sharers).first();
                }
                if entry.state != LineState::Modified || entry.sharers != bit {
                    entry.state = LineState::Shared; // else: silent re-read by the owner
                }
                entry.sharers |= bit;
            }
            DirAccess::Write => {
                if entry.state == LineState::Modified && entry.sharers != bit {
                    out.flush_from = SharerSet(entry.sharers).first();
                }
                // Everyone else invalidates.
                let others = entry.sharers & !bit;
                if others != 0 {
                    out.invalidations = SharerSet(others);
                    self.invalidations_sent += out.invalidations.len() as u64;
                    for inv in out.invalidations.iter() {
                        self.obs
                            .emit(Category::Coherence, || EventData::Invalidate {
                                line: line.0,
                                cpu: u32::from(inv.0),
                            });
                    }
                }
                entry.sharers = bit;
                entry.state = match self.policy {
                    WritePolicy::WriteThrough => LineState::Shared,
                    WritePolicy::WriteBack => LineState::Modified,
                };
            }
        }
        out
    }

    /// Notes that `cpu` silently dropped the line (L1 eviction).
    ///
    /// Returns whether a dirty write-back is required (write-back mode,
    /// owner eviction).
    pub fn evict(&mut self, cpu: CpuId, line: LineAddr) -> bool {
        let bit = 1u64 << cpu.index();
        let Some(entry) = self.entries.get_mut(&line) else {
            return false;
        };
        let was_owner = entry.state == LineState::Modified && entry.sharers == bit;
        entry.sharers &= !bit;
        if entry.sharers == 0 {
            self.entries.remove(&line);
            return was_owner;
        }
        if was_owner {
            entry.state = LineState::Shared;
        }
        false
    }

    /// Invalidates every L1 copy (e.g. when the L2 evicts the line).
    /// Returns the CPUs that must be told.
    pub fn invalidate_all(&mut self, line: LineAddr) -> SharerSet {
        let told = SharerSet(self.entries.remove(&line).map_or(0, |e| e.sharers));
        self.invalidations_sent += told.len() as u64;
        if !told.is_empty() {
            self.obs
                .emit(Category::Coherence, || EventData::InvalidateAll {
                    line: line.0,
                    sharers: told.len() as u32,
                });
        }
        told
    }

    /// Protocol invariant check, used by tests:
    /// `Modified` implies exactly one sharer; a tracked entry always has
    /// at least one sharer, each a CPU this directory was built for.
    pub fn check_invariants(&self) -> Result<(), String> {
        let unknown = u64::MAX.checked_shl(self.num_cpus).unwrap_or(0);
        for (line, e) in &self.entries {
            if e.sharers == 0 {
                return Err(format!("{line}: tracked with zero sharers"));
            }
            if e.sharers & unknown != 0 {
                return Err(format!("{line}: shared by an unknown cpu"));
            }
            if e.state == LineState::Modified && e.sharers.count_ones() != 1 {
                return Err(format!("{line}: Modified with multiple sharers"));
            }
            if e.state == LineState::Invalid {
                return Err(format!("{line}: tracked but Invalid"));
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn dir(policy: WritePolicy) -> Directory {
        Directory::new(8, policy)
    }

    const LINE: LineAddr = LineAddr(0x1000);

    #[test]
    fn first_read_installs_shared() {
        let mut d = dir(WritePolicy::WriteThrough);
        let out = d.access(CpuId(0), LINE, DirAccess::Read);
        assert!(out.invalidations.is_empty());
        assert_eq!(d.state(LINE), LineState::Shared);
        assert_eq!(d.sharers(LINE), vec![CpuId(0)]);
        d.check_invariants().unwrap();
    }

    #[test]
    fn write_invalidates_other_sharers() {
        let mut d = dir(WritePolicy::WriteThrough);
        for c in 0..4 {
            d.access(CpuId(c), LINE, DirAccess::Read);
        }
        let out = d.access(CpuId(0), LINE, DirAccess::Write);
        assert_eq!(out.invalidations, vec![CpuId(1), CpuId(2), CpuId(3)]);
        assert_eq!(d.sharers(LINE), vec![CpuId(0)]);
        assert_eq!(
            d.state(LINE),
            LineState::Shared,
            "write-through leaves the writer clean"
        );
        assert_eq!(d.invalidations_sent, 3);
        d.check_invariants().unwrap();
    }

    #[test]
    fn write_back_write_takes_ownership() {
        let mut d = dir(WritePolicy::WriteBack);
        d.access(CpuId(1), LINE, DirAccess::Write);
        assert_eq!(d.state(LINE), LineState::Modified);
        // Another reader forces a flush from the owner.
        let out = d.access(CpuId(2), LINE, DirAccess::Read);
        assert_eq!(out.flush_from, Some(CpuId(1)));
        assert_eq!(d.state(LINE), LineState::Shared);
        assert_eq!(d.sharers(LINE), vec![CpuId(1), CpuId(2)]);
        d.check_invariants().unwrap();
    }

    #[test]
    fn owner_re_read_stays_modified_silently() {
        let mut d = dir(WritePolicy::WriteBack);
        d.access(CpuId(1), LINE, DirAccess::Write);
        let out = d.access(CpuId(1), LINE, DirAccess::Read);
        assert_eq!(out, CoherenceOutcome::default());
        assert_eq!(d.state(LINE), LineState::Modified);
    }

    #[test]
    fn write_after_write_transfers_ownership() {
        let mut d = dir(WritePolicy::WriteBack);
        d.access(CpuId(1), LINE, DirAccess::Write);
        let out = d.access(CpuId(2), LINE, DirAccess::Write);
        assert_eq!(out.invalidations, vec![CpuId(1)]);
        assert_eq!(out.flush_from, Some(CpuId(1)));
        assert_eq!(d.sharers(LINE), vec![CpuId(2)]);
        d.check_invariants().unwrap();
    }

    #[test]
    fn eviction_drops_the_sharer_and_reports_writeback() {
        let mut d = dir(WritePolicy::WriteBack);
        d.access(CpuId(3), LINE, DirAccess::Write);
        assert!(d.evict(CpuId(3), LINE), "dirty owner eviction writes back");
        assert_eq!(d.state(LINE), LineState::Invalid);

        d.access(CpuId(0), LINE, DirAccess::Read);
        d.access(CpuId(1), LINE, DirAccess::Read);
        assert!(!d.evict(CpuId(0), LINE), "clean eviction is silent");
        assert_eq!(d.sharers(LINE), vec![CpuId(1)]);
        d.check_invariants().unwrap();
    }

    #[test]
    fn invalidate_all_notifies_every_sharer() {
        let mut d = dir(WritePolicy::WriteThrough);
        for c in [0u16, 3, 7] {
            d.access(CpuId(c), LINE, DirAccess::Read);
        }
        let told = d.invalidate_all(LINE);
        assert_eq!(told, vec![CpuId(0), CpuId(3), CpuId(7)]);
        assert!(told.contains(CpuId(3)) && !told.contains(CpuId(4)));
        assert_eq!(d.state(LINE), LineState::Invalid);
        assert!(d.invalidate_all(LINE).is_empty(), "idempotent");
    }

    #[test]
    fn holds_tracks_individual_cpus() {
        let mut d = dir(WritePolicy::WriteThrough);
        d.access(CpuId(2), LINE, DirAccess::Read);
        assert!(d.holds(LINE, CpuId(2)));
        assert!(!d.holds(LINE, CpuId(3)));
    }

    #[test]
    #[should_panic(expected = "unknown cpu")]
    fn out_of_range_cpu_panics() {
        let mut d = dir(WritePolicy::WriteThrough);
        d.access(CpuId(9), LINE, DirAccess::Read);
    }
}
