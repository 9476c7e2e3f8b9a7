//! Directory-based MSI coherence for private L1 caches (paper §5.1).
//!
//! The paper keeps the private L1s of the eight processors coherent with
//! a distributed directory implementing MSI; L1 events (read misses,
//! writes) drive state transitions and generate invalidation traffic that
//! the network simulation carries. The L1s are write-through (Table 4),
//! so no L1 ever holds a line Modified: the directory records which L1s
//! share each line and nothing else. This module is the protocol's
//! functional core: who may cache what, and which invalidations each
//! access must generate. Transport and timing belong to `nim-core`.

use nim_obs::{Category, EventData, Obs};
use nim_types::{CpuId, FxHashMap, LineAddr};

/// What an L1 does with a line.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum DirAccess {
    /// Load or instruction fetch.
    Read,
    /// Store.
    Write,
}

// nimbench-frozen: examples/nimbench compiles against this name; ROADMAP item 1 Step A deletes it
#[doc(hidden)]
pub enum WritePolicy {
    WriteThrough,
}

/// A set of CPUs (L1 caches), iterated in ascending id order — the
/// directory's sharer bitset handed out by value, so reporting who must
/// be invalidated allocates nothing.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SharerSet(u64);

impl SharerSet {
    /// Number of CPUs in the set.
    #[inline]
    pub(crate) fn len(self) -> usize {
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

/// The directory: line → sharer set. A line is tracked exactly while
/// some L1 holds it.
///
/// Sharer sets are bitsets, so at most 64 CPUs are supported (the paper
/// uses 8).
#[derive(Clone, Debug)]
pub struct Directory {
    /// [`FxHashMap`]: looked up on every L1 fill/store completion with
    /// trusted line-address keys — SipHash is wasted work here.
    sharers: FxHashMap<LineAddr, SharerSet>,
    num_cpus: u32,
    /// Observability sink; disabled by default.
    obs: Obs,
}

impl Directory {
    /// Creates an empty directory for `num_cpus` processors.
    ///
    /// # Panics
    ///
    /// Panics if `num_cpus` exceeds 64.
    pub fn with_cpus(num_cpus: u32) -> Self {
        assert!(num_cpus <= 64, "sharer bitset supports at most 64 CPUs");
        Self {
            sharers: FxHashMap::default(),
            num_cpus,
            obs: Obs::disabled(),
        }
    }

    // nimbench-frozen: examples/nimbench compiles against this name; ROADMAP item 1 Step A deletes it
    #[doc(hidden)]
    pub fn new(num_cpus: u32, _policy: WritePolicy) -> Self {
        Self::with_cpus(num_cpus)
    }

    /// Attaches an observability handle; invalidation events flow into
    /// it from now on.
    pub fn set_obs(&mut self, obs: Obs) {
        self.obs = obs;
    }

    /// CPUs currently holding the line.
    pub fn sharers(&self, line: LineAddr) -> SharerSet {
        self.sharers.get(&line).copied().unwrap_or_default()
    }

    /// Whether `cpu` holds the line.
    pub fn holds(&self, line: LineAddr, cpu: CpuId) -> bool {
        self.sharers(line).contains(cpu)
    }

    /// Processes an access by `cpu` and returns the L1s that must
    /// invalidate their copy: on a store every other sharer, on a load
    /// nobody.
    ///
    /// # Panics
    ///
    /// Panics if `cpu` is out of range.
    pub fn access(&mut self, cpu: CpuId, line: LineAddr, access: DirAccess) -> SharerSet {
        assert!((cpu.index() as u32) < self.num_cpus, "unknown cpu {cpu}");
        let bit = 1u64 << cpu.index();
        let sharers = &mut self.sharers.entry(line).or_default().0;
        let others = SharerSet(match access {
            DirAccess::Read => 0,
            DirAccess::Write => *sharers & !bit,
        });
        // The invalidated leave; the accessor joins.
        *sharers = *sharers & !others.0 | bit;
        for inv in others.iter() {
            self.obs
                .emit(Category::Coherence, || EventData::Invalidate {
                    line: line.0,
                    cpu: u32::from(inv.0),
                });
        }
        others
    }

    /// Notes that `cpu` silently dropped the line (L1 eviction).
    pub fn evict(&mut self, cpu: CpuId, line: LineAddr) {
        let Some(sharers) = self.sharers.get_mut(&line) else {
            return;
        };
        sharers.0 &= !(1u64 << cpu.index());
        if sharers.is_empty() {
            self.sharers.remove(&line);
        }
    }

    /// Invalidates every L1 copy (e.g. when the L2 evicts the line).
    /// Returns the CPUs that must be told.
    pub fn invalidate_all(&mut self, line: LineAddr) -> SharerSet {
        let told = self.sharers.remove(&line).unwrap_or_default();
        if !told.is_empty() {
            self.obs
                .emit(Category::Coherence, || EventData::InvalidateAll {
                    line: line.0,
                    sharers: told.len() as u32,
                });
        }
        told
    }

    /// Protocol invariant check, used by tests: a tracked line always
    /// has at least one sharer, each a CPU this directory was built for.
    pub fn check_invariants(&self) -> Result<(), String> {
        let unknown = u64::MAX.checked_shl(self.num_cpus).unwrap_or(0);
        for (line, s) in &self.sharers {
            if s.is_empty() {
                return Err(format!("{line}: tracked with zero sharers"));
            }
            if s.0 & unknown != 0 {
                return Err(format!("{line}: shared by an unknown cpu"));
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn dir() -> Directory {
        Directory::with_cpus(8)
    }

    const LINE: LineAddr = LineAddr(0x1000);

    #[test]
    fn first_read_installs_shared() {
        let mut d = dir();
        let out = d.access(CpuId(0), LINE, DirAccess::Read);
        assert!(out.is_empty());
        assert_eq!(d.sharers(LINE), vec![CpuId(0)]);
        d.check_invariants().unwrap();
    }

    #[test]
    fn write_invalidates_other_sharers() {
        let mut d = dir();
        for c in 0..4 {
            d.access(CpuId(c), LINE, DirAccess::Read);
        }
        let out = d.access(CpuId(0), LINE, DirAccess::Write);
        assert_eq!(out, vec![CpuId(1), CpuId(2), CpuId(3)]);
        assert_eq!(d.sharers(LINE), vec![CpuId(0)]);
        d.check_invariants().unwrap();
    }

    #[test]
    fn write_after_write_transfers_ownership() {
        let mut d = dir();
        d.access(CpuId(1), LINE, DirAccess::Write);
        let out = d.access(CpuId(2), LINE, DirAccess::Write);
        assert_eq!(out, vec![CpuId(1)]);
        assert_eq!(d.sharers(LINE), vec![CpuId(2)]);
        d.check_invariants().unwrap();
    }

    #[test]
    fn eviction_drops_the_sharer() {
        let mut d = dir();
        d.access(CpuId(3), LINE, DirAccess::Write);
        d.evict(CpuId(3), LINE);
        assert!(d.sharers(LINE).is_empty());

        d.access(CpuId(0), LINE, DirAccess::Read);
        d.access(CpuId(1), LINE, DirAccess::Read);
        d.evict(CpuId(0), LINE);
        assert_eq!(d.sharers(LINE), vec![CpuId(1)]);
        d.check_invariants().unwrap();
    }

    #[test]
    fn invalidate_all_notifies_every_sharer() {
        let mut d = dir();
        for c in [0u16, 3, 7] {
            d.access(CpuId(c), LINE, DirAccess::Read);
        }
        let told = d.invalidate_all(LINE);
        assert_eq!(told, vec![CpuId(0), CpuId(3), CpuId(7)]);
        assert!(told.contains(CpuId(3)) && !told.contains(CpuId(4)));
        assert!(d.sharers(LINE).is_empty());
        assert!(d.invalidate_all(LINE).is_empty(), "idempotent");
    }

    #[test]
    fn holds_tracks_individual_cpus() {
        let mut d = dir();
        d.access(CpuId(2), LINE, DirAccess::Read);
        assert!(d.holds(LINE, CpuId(2)));
        assert!(!d.holds(LINE, CpuId(3)));
    }

    #[test]
    #[should_panic(expected = "unknown cpu")]
    fn out_of_range_cpu_panics() {
        let mut d = dir();
        d.access(CpuId(9), LINE, DirAccess::Read);
    }
}
