//! Pre-warmed sampling: the working set installed before the first cycle.
//!
//! The paper warms its caches for 500 M cycles before sampling;
//! [`Engine::prewarm`] installs the state that warm-up converges to
//! instead, in one pass over the workload's regions. Two things keep the
//! pass cheap without changing where any line lands:
//!
//! * the residency map is sized once for the whole working set (clamped
//!   to the L2's line count), so it never rehashes mid-fill;
//! * a private line's parking cluster depends only on its owner and its
//!   home cluster, so [`SteadyMemo`] computes each of those at most
//!   `cpus × clusters` fixed points once, not once per line.

use nim_cache::migration_target;
use nim_coherence::DirAccess;
use nim_types::{AccessKind, Address, ClusterId, CpuId, LineAddr};
use nim_workload::{cpu_regions, shared_region, BenchmarkProfile, CpuRegions};

use crate::protocol::Engine;

/// [`Engine::steady_cluster`] memoised per (CPU, home cluster).
struct SteadyMemo {
    clusters: usize,
    parked: Vec<Option<ClusterId>>,
}

impl SteadyMemo {
    fn new(eng: &Engine) -> Self {
        let clusters = eng.cluster_cpus.len();
        Self {
            clusters,
            parked: vec![None; eng.cores.len() * clusters],
        }
    }

    fn get(&mut self, eng: &Engine, cpu: CpuId, from: ClusterId) -> ClusterId {
        *self.parked[cpu.index() * self.clusters + from.index()]
            .get_or_insert_with(|| eng.steady_cluster(cpu, from))
    }
}

/// Lines a prewarm installs at most: the shared region plus every CPU's
/// stream, hot and code regions.
fn working_set_lines(profile: &BenchmarkProfile, regions: &[CpuRegions]) -> usize {
    let private = |r: &CpuRegions| r.stream.lines + r.hot.lines + r.code.lines;
    shared_region(profile).lines as usize + regions.iter().map(private).sum::<u32>() as usize
}

impl Engine {
    /// Installs the workload's working set before simulation, standing in
    /// for the paper's 500 M-cycle warm-up run: the shared region goes to
    /// the L2 at its home clusters; each CPU's private regions go where
    /// the migration policy would have pulled them by the end of the
    /// warm-up (for migrating schemes) or to their home clusters (for the
    /// static scheme); hot and code sets additionally fill the owning
    /// CPU's L1s, with the directory kept consistent. Pure state setup —
    /// no cycles pass, no packets fly.
    pub(crate) fn prewarm(&mut self, profile: &BenchmarkProfile) {
        let regions: Vec<CpuRegions> = (0..self.cores.len())
            .map(|i| cpu_regions(profile, CpuId::from_index(i)))
            .collect();
        self.l2.reserve(working_set_lines(profile, &regions));
        let mut memo = SteadyMemo::new(self);
        // Bulk data first so later hot/code installs win any conflicts.
        for addr in shared_region(profile).line_addrs() {
            self.install(&mut memo, addr, None);
        }
        for (i, r) in regions.iter().enumerate() {
            for addr in r.stream.line_addrs() {
                self.install(&mut memo, addr, Some(CpuId::from_index(i)));
            }
        }
        for (i, r) in regions.iter().enumerate() {
            let cpu = CpuId::from_index(i);
            for addr in r.hot.line_addrs() {
                let line = self.install(&mut memo, addr, Some(cpu));
                if let Some(evicted) = self.cores.prefill(cpu, addr, AccessKind::Read) {
                    self.dir.evict(cpu, evicted);
                }
                self.dir.access(cpu, line, DirAccess::Read);
            }
            for addr in r.code.line_addrs() {
                self.install(&mut memo, addr, Some(cpu));
                self.cores.prefill(cpu, addr, AccessKind::IFetch);
            }
        }
    }

    /// Places the line of `addr` in the L2 unless it is resident already:
    /// at its owner's steady cluster under a migrating scheme, else at its
    /// home cluster. A victim leaves every L1 that held it.
    fn install(&mut self, memo: &mut SteadyMemo, addr: Address, owner: Option<CpuId>) -> LineAddr {
        let line = addr.line(self.line_bytes);
        if self.l2.locate(line).is_none() {
            let home = self.l2.home_cluster(line);
            let cluster = match owner {
                Some(cpu) if self.policy.migrates => memo.get(self, cpu, home),
                _ => home,
            };
            let placed = self.l2.insert_at(line, cluster);
            if let Some(victim) = placed.evicted {
                for sharer in self.dir.invalidate_all(victim).iter() {
                    self.cores.invalidate(sharer, victim);
                }
            }
        }
        line
    }

    /// Where the migration policy eventually parks a line that starts in
    /// `from` and is accessed only by `cpu` (the fixed point of repeated
    /// single-step migrations).
    fn steady_cluster(&self, cpu: CpuId, from: ClusterId) -> ClusterId {
        let seat = self.seats[cpu.index()];
        let acc_cluster = self.layout.cluster_of(seat.coord);
        let own_bit = 1u64 << cpu.index();
        let cluster_cpus = &self.cluster_cpus;
        let occupied = move |cl: ClusterId| cluster_cpus[cl.index()] & !own_bit != 0;
        let mut cur = from;
        for _ in 0..64 {
            match migration_target(&self.layout, cur, acc_cluster, seat.pillar, &occupied) {
                Some(next) => cur = next,
                None => break,
            }
        }
        cur
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::SystemBuilder;
    use crate::scheme::Scheme;

    fn engine(scheme: Scheme, layers: u8) -> Engine {
        SystemBuilder::new(scheme)
            .layers(layers)
            .build()
            .expect("cell builds")
            .engine
    }

    #[test]
    fn the_memo_parks_every_line_where_the_fixed_point_does() {
        for scheme in Scheme::ALL {
            for layers in [1u8, 2, 4, 8] {
                let eng = engine(scheme, layers);
                let mut memo = SteadyMemo::new(&eng);
                let clusters = eng.cluster_cpus.len() as u16;
                // Twice over, newest cluster first: the second pass reads
                // only memoised entries.
                for _ in 0..2 {
                    for i in 0..eng.cores.len() {
                        let cpu = CpuId::from_index(i);
                        for c in (0..clusters).rev().map(ClusterId) {
                            let want = eng.steady_cluster(cpu, c);
                            assert_eq!(memo.get(&eng, cpu, c), want, "{scheme:?} {layers}L");
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn the_residency_map_is_sized_once() {
        for profile in BenchmarkProfile::all() {
            for scheme in Scheme::ALL {
                let mut eng = engine(scheme, 2);
                let regions: Vec<CpuRegions> = (0..eng.cores.len())
                    .map(|i| cpu_regions(&profile, CpuId::from_index(i)))
                    .collect();
                let mut sized = engine(scheme, 2).l2;
                sized.reserve(working_set_lines(&profile, &regions));
                eng.prewarm(&profile);
                assert_eq!(
                    eng.l2.residency_capacity(),
                    sized.residency_capacity(),
                    "{} {scheme:?}: the map changed size during the prewarm",
                    profile.name
                );
            }
        }
    }
}
