//! Pre-warmed sampling: the working set installed before the first cycle.
//!
//! The paper warms its caches for 500 M cycles before sampling;
//! [`Engine::prewarm`] installs the state that warm-up converges to
//! instead, in one pass over the workload's regions. Four things keep
//! the pass cheap without changing where any line lands:
//!
//! * the L2's away map (the lines resident outside their home cluster)
//!   is sized once for every line a migrating scheme can park away from
//!   home — every CPU's private lines, and none under the static scheme
//!   — so it never rehashes mid-fill (it leaves no tombstones either, so
//!   the run keeps that size while no more lines are away at once);
//! * every region starts on a 64 KiB boundary and no two share a byte,
//!   so a line can come up twice only as consecutive addresses of one
//!   region (lines wider than the regions' 64-byte stride): the pass
//!   skips an address in the line it just installed and probes no tag
//!   set for duplicates (`NucaL2::insert_at`'s debug assertion still
//!   checks that the line is not resident);
//! * each line goes in through one `NucaL2::insert_at`, which decodes
//!   its bank, set and tag once;
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
        // Only a private line can park away from home, and only under a
        // migrating scheme.
        if self.policy.migrates {
            let private = |r: &CpuRegions| r.stream.lines + r.hot.lines + r.code.lines;
            self.l2
                .reserve(regions.iter().map(private).sum::<u32>() as usize);
        }
        let mut memo = SteadyMemo::new(self);
        let mut last = None;
        // Bulk data first so later hot/code installs win any conflicts.
        for addr in shared_region(profile).line_addrs() {
            self.install(&mut memo, &mut last, addr, None);
        }
        for (i, r) in regions.iter().enumerate() {
            for addr in r.stream.line_addrs() {
                self.install(&mut memo, &mut last, addr, Some(CpuId::from_index(i)));
            }
        }
        for (i, r) in regions.iter().enumerate() {
            let cpu = CpuId::from_index(i);
            for addr in r.hot.line_addrs() {
                let line = self.install(&mut memo, &mut last, addr, Some(cpu));
                if let Some(evicted) = self.cores.prefill(cpu, addr, AccessKind::Read) {
                    self.dir.evict(cpu, evicted);
                }
                self.dir.access(cpu, line, DirAccess::Read);
            }
            for addr in r.code.line_addrs() {
                self.install(&mut memo, &mut last, addr, Some(cpu));
                self.cores.prefill(cpu, addr, AccessKind::IFetch);
            }
        }
    }

    /// Places the line of `addr` in the L2 unless it is `last`, the line
    /// the previous address went into: at its owner's steady cluster
    /// under a migrating scheme, else at its home cluster. A victim
    /// leaves every L1 that held it. The regions start on 64 KiB
    /// boundaries and share no byte, so a line already resident can only
    /// be `last` (two addresses of one line, when lines are wider than
    /// the regions' 64-byte stride); `insert_at` asserts as much in
    /// debug builds.
    fn install(
        &mut self,
        memo: &mut SteadyMemo,
        last: &mut Option<LineAddr>,
        addr: Address,
        owner: Option<CpuId>,
    ) -> LineAddr {
        let line = addr.line(self.line_bytes);
        if last.replace(line) == Some(line) {
            return line;
        }
        let home = self.l2.home_cluster(line);
        let cluster = match owner {
            Some(cpu) if self.policy.migrates => memo.get(self, cpu, home),
            _ => home,
        };
        if let Some(victim) = self.l2.insert_at(line, cluster).evicted {
            for sharer in self.dir.invalidate_all(victim).iter() {
                self.cores.invalidate(sharer, victim);
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

    /// The away map is reserved for every private line under a migrating
    /// scheme and not at all under the static one, and the prewarm never
    /// outgrows that.
    #[test]
    fn the_residency_map_is_sized_once() {
        for profile in BenchmarkProfile::all() {
            for scheme in Scheme::ALL {
                let mut eng = engine(scheme, 2);
                let private: u32 = (0..eng.cores.len())
                    .map(|i| cpu_regions(&profile, CpuId::from_index(i)))
                    .map(|r| r.stream.lines + r.hot.lines + r.code.lines)
                    .sum();
                let mut sized = engine(scheme, 2).l2;
                if eng.policy.migrates {
                    sized.reserve(private as usize);
                }
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

    /// `install`'s consecutive-line dedupe relies on this: no two
    /// regions of a shipped profile share a byte, at any CPU count the
    /// directory allows, and every region starts on a 64 KiB boundary,
    /// so no line up to 64 KiB wide spans two regions.
    #[test]
    fn every_profiles_regions_are_pairwise_disjoint() {
        let mut profiles = BenchmarkProfile::all();
        profiles.push(BenchmarkProfile::synthetic());
        for profile in profiles {
            let mut spans = vec![shared_region(&profile)];
            for i in 0..64 {
                let r = cpu_regions(&profile, CpuId::from_index(i));
                spans.extend([r.hot, r.stream, r.code]);
            }
            for r in &spans {
                assert_eq!(r.base % (64 << 10), 0, "{}: {:#x}", profile.name, r.base);
            }
            let mut spans: Vec<(u64, u64)> = spans
                .iter()
                .map(|r| (r.base, r.base + u64::from(r.lines) * 64))
                .collect();
            spans.sort_unstable();
            for pair in spans.windows(2) {
                assert!(pair[0].1 <= pair[1].0, "{}: {pair:x?}", profile.name);
            }
        }
    }

    /// One prewarm inserts each distinct line of the regions exactly once,
    /// for every shipped profile under every scheme, at 64- and 128-byte
    /// L2 lines (at 128 bytes two consecutive addresses of a region share
    /// a line, which `install` must not insert twice), and leaves the L2
    /// consistent.
    #[test]
    fn the_prewarm_inserts_each_distinct_line_once() {
        for line_bytes in [64u32, 128] {
            let mut cfg = nim_types::SystemConfig::default();
            cfg.l2.line_bytes = line_bytes;
            // A data packet carries one line.
            cfg.network.data_packet_flits = line_bytes * 8 / cfg.network.flit_bits;
            for profile in BenchmarkProfile::all() {
                for scheme in Scheme::ALL {
                    let sys = SystemBuilder::new(scheme).config(cfg).build();
                    let mut eng = sys.expect("cell builds").engine;
                    let mut regions = vec![shared_region(&profile)];
                    for i in 0..eng.cores.len() {
                        let r = cpu_regions(&profile, CpuId::from_index(i));
                        regions.extend([r.stream, r.hot, r.code]);
                    }
                    let lines: std::collections::HashSet<LineAddr> = regions
                        .iter()
                        .flat_map(|r| r.line_addrs())
                        .map(|a| a.line(u64::from(line_bytes)))
                        .collect();
                    eng.prewarm(&profile);
                    let at = format!("{} {scheme:?} {line_bytes} B", profile.name);
                    assert_eq!(eng.l2.stats().insertions, lines.len() as u64, "{at}");
                    eng.l2.check_invariants();
                }
            }
        }
    }
}
