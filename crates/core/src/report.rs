//! Run reports: the measurements every figure is built from.

use nim_noc::NetworkStats;
use nim_power::{ActivityCounts, EnergyBreakdown, EnergyModel};

use crate::scheme::Scheme;

/// Raw counters the system accumulates (sampled over the measurement
/// window, after warm-up).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Counters {
    /// Completed L2 transactions (reads + writes + instruction fetches).
    pub l2_transactions: u64,
    /// Transactions served from the L2.
    pub l2_hits: u64,
    /// Transactions that went to memory.
    pub l2_misses: u64,
    /// Sum of latencies of L2 *hits* (issue to completion), cycles.
    pub hit_latency_sum: u64,
    /// Sum of latencies of L2 misses, cycles.
    pub miss_latency_sum: u64,
    /// Cache-line migrations committed.
    pub migrations: u64,
    /// Data-bank accesses (reads + writes + migration writes).
    pub bank_accesses: u64,
    /// Tag-array probes.
    pub tag_accesses: u64,
    /// L1 invalidation messages sent.
    pub invalidations: u64,
    /// Lines evicted from the L2 (written back to memory).
    pub l2_evictions: u64,
    /// Searches re-issued because a migration raced the probes.
    pub search_retries: u64,
    /// Hits served by a step-1 probe (local cluster or the vicinity
    /// cylinder).
    pub step1_hits: u64,
    /// Hits served by the step-2 multicast.
    pub step2_hits: u64,
    /// Latency sum of step-1 hits.
    pub step1_latency_sum: u64,
    /// Latency sum of step-2 hits.
    pub step2_latency_sum: u64,
    /// Read-only replicas created (replication extension).
    pub replicas_created: u64,
    /// Cycles completed transactions spent traversing the horizontal
    /// mesh (wormhole hops, router waits, reply fan-out).
    pub noc_hop_cycles: u64,
    /// Cycles completed transactions spent waiting for a dTDMA pillar
    /// slot.
    pub pillar_wait_cycles: u64,
    /// Cycles completed transactions spent queueing behind tag-array
    /// and bank serialization.
    pub resource_queue_cycles: u64,
    /// Cycles completed transactions spent in L2 service proper (tag
    /// lookups, bank reads/writes).
    pub l2_service_cycles: u64,
    /// Cycles completed transactions spent waiting on DRAM (channel
    /// queueing, the access itself, and the memory-side network legs).
    pub mem_wait_cycles: u64,
}

/// Everything that enumerates the counters is generated from the one
/// field list below: [`Counters::minus`] and [`Counters::as_array`] (a
/// field missing from the list fails to compile in `minus`).
macro_rules! counter_fields {
    ($($f:ident),* $(,)?) => {
        impl Counters {
            pub(crate) fn minus(&self, earlier: &Counters) -> Counters {
                Counters { $($f: self.$f - earlier.$f),* }
            }

            /// Every counter in declaration order — the enumeration
            /// [`RunReport::fingerprint`] hashes.
            pub fn as_array(&self) -> [u64; [$(stringify!($f)),*].len()] {
                [$(self.$f),*]
            }
        }
    };
}

counter_fields!(
    l2_transactions,
    l2_hits,
    l2_misses,
    hit_latency_sum,
    miss_latency_sum,
    migrations,
    bank_accesses,
    tag_accesses,
    invalidations,
    l2_evictions,
    search_retries,
    step1_hits,
    step2_hits,
    step1_latency_sum,
    step2_latency_sum,
    replicas_created,
    noc_hop_cycles,
    pillar_wait_cycles,
    resource_queue_cycles,
    l2_service_cycles,
    mem_wait_cycles,
);

impl Counters {
    /// The five attribution buckets in [`Phase`](crate::txn::Phase)
    /// order. Their sum equals `hit_latency_sum + miss_latency_sum`
    /// exactly — every completed transaction's end-to-end latency is
    /// fully decomposed (the standing sum invariant).
    pub fn phase_cycles(&self) -> [u64; 5] {
        [
            self.noc_hop_cycles,
            self.pillar_wait_cycles,
            self.resource_queue_cycles,
            self.l2_service_cycles,
            self.mem_wait_cycles,
        ]
    }
}

/// The result of one simulation run (one scheme × one benchmark).
#[derive(Clone, Debug, PartialEq)]
pub struct RunReport {
    /// Scheme simulated.
    pub scheme: Scheme,
    /// Benchmark name.
    pub benchmark: String,
    /// Cycles in the measurement window.
    pub cycles: u64,
    /// Instructions retired across all cores in the window.
    pub instructions: u64,
    /// Number of cores.
    pub num_cpus: u32,
    /// Counter deltas over the window.
    pub counters: Counters,
    /// Network counters (whole run, dominated by the window).
    pub network: NetworkStats,
    /// Flits carried by the vertical buses (whole run).
    pub bus_transfers: u64,
    /// Cycles a bus had more than one waiting client (whole run).
    pub bus_contention_cycles: u64,
}

impl RunReport {
    /// Average L2 hit latency in cycles — the paper's Figures 13/16/17/18
    /// metric.
    pub fn avg_l2_hit_latency(&self) -> f64 {
        if self.counters.l2_hits == 0 {
            0.0
        } else {
            self.counters.hit_latency_sum as f64 / self.counters.l2_hits as f64
        }
    }

    /// Average per-core IPC — the paper's Figure 15 metric.
    pub fn ipc(&self) -> f64 {
        if self.cycles == 0 {
            0.0
        } else {
            self.instructions as f64 / self.cycles as f64 / f64::from(self.num_cpus)
        }
    }

    /// L2 miss rate over the window.
    pub fn l2_miss_rate(&self) -> f64 {
        let total = self.counters.l2_hits + self.counters.l2_misses;
        if total == 0 {
            0.0
        } else {
            self.counters.l2_misses as f64 / total as f64
        }
    }

    /// Mean cycles per completed transaction spent in each attribution
    /// phase, in [`Phase::ALL`](crate::txn::Phase::ALL) order. The five
    /// means sum to the mean end-to-end transaction latency.
    pub fn latency_breakdown(&self) -> [f64; 5] {
        let n = self.counters.l2_transactions;
        self.counters
            .phase_cycles()
            .map(|c| if n == 0 { 0.0 } else { c as f64 / n as f64 })
    }

    /// Activity counts for the energy model: bank and tag accesses over
    /// the window, flit hops and bus transfers over the whole run
    /// (warm-up included — see [`RunReport::network`]).
    pub fn activity(&self) -> ActivityCounts {
        ActivityCounts {
            flit_hops: self.network.flit_hops,
            bus_transfers: self.bus_transfers,
            bank_accesses: self.counters.bank_accesses,
            tag_accesses: self.counters.tag_accesses,
        }
    }

    /// L2 memory-system energy of [`RunReport::activity`]: the bank and
    /// tag terms cover the window, the flit-hop and bus-transfer terms
    /// the whole run, so a short sample reads the warm-up's network
    /// energy.
    pub fn energy(&self) -> EnergyBreakdown {
        EnergyModel::default().estimate(&self.activity())
    }

    /// A stable 64-bit digest of everything a run can disagree on —
    /// every counter, every latency sum, the full network statistics —
    /// hashed field by field via [`nim_types::FxHasher`] (not SipHash,
    /// so the value is identical across platforms and toolchains, and
    /// not `Debug`-formatted, so cosmetic formatting changes cannot
    /// shift it). Two runs of the same cell must produce the same
    /// fingerprint; the snapshot-equivalence suite and nimbench's
    /// cross-mode checks gate on it.
    pub fn fingerprint(&self) -> u64 {
        use std::hash::Hasher as _;
        let mut h = nim_types::FxHasher::default();
        h.write(self.scheme.label().as_bytes());
        h.write_u8(0xff);
        h.write(self.benchmark.as_bytes());
        h.write_u8(0xff);
        h.write_u64(self.cycles);
        h.write_u64(self.instructions);
        h.write_u32(self.num_cpus);
        for v in self.counters.as_array() {
            h.write_u64(v);
        }
        let n = &self.network;
        for v in [
            n.packets_sent,
            n.packets_delivered,
            n.total_latency,
            n.max_latency,
            n.total_hops,
            n.flit_hops,
        ] {
            h.write_u64(v);
        }
        for arr in [
            &n.flit_hops_by_class,
            &n.delivered_by_class,
            &n.latency_by_class,
        ] {
            for &v in arr {
                h.write_u64(v);
            }
        }
        h.write_u64(n.bus_transfers);
        h.write_u64(n.switch_contention);
        for &b in n.latency_histogram.buckets() {
            h.write_u64(b);
        }
        h.write_u64(self.bus_transfers);
        h.write_u64(self.bus_contention_cycles);
        h.finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn report() -> RunReport {
        RunReport {
            scheme: Scheme::CmpDnuca3d,
            benchmark: "swim".into(),
            cycles: 1000,
            instructions: 4000,
            num_cpus: 8,
            counters: Counters {
                l2_transactions: 100,
                l2_hits: 80,
                l2_misses: 20,
                hit_latency_sum: 2400,
                miss_latency_sum: 8000,
                migrations: 10,
                bank_accesses: 110,
                tag_accesses: 700,
                invalidations: 5,
                l2_evictions: 3,
                search_retries: 0,
                step1_hits: 60,
                step2_hits: 20,
                step1_latency_sum: 1500,
                step2_latency_sum: 900,
                replicas_created: 0,
                noc_hop_cycles: 5000,
                pillar_wait_cycles: 400,
                resource_queue_cycles: 600,
                l2_service_cycles: 1400,
                mem_wait_cycles: 3000,
            },
            network: NetworkStats::default(),
            bus_transfers: 50,
            bus_contention_cycles: 4,
        }
    }

    #[test]
    fn derived_metrics() {
        let r = report();
        assert!((r.avg_l2_hit_latency() - 30.0).abs() < 1e-12);
        assert!((r.ipc() - 0.5).abs() < 1e-12);
        assert!((r.l2_miss_rate() - 0.2).abs() < 1e-12);
        assert!(r.energy().total_j() > 0.0);
    }

    #[test]
    fn breakdown_means_sum_to_the_mean_latency() {
        let r = report();
        assert_eq!(r.latency_breakdown(), [50.0, 4.0, 6.0, 14.0, 30.0]);
        let total: u64 = r.counters.phase_cycles().iter().sum();
        assert_eq!(
            total,
            r.counters.hit_latency_sum + r.counters.miss_latency_sum
        );
    }

    #[test]
    fn counter_deltas_subtract_fieldwise() {
        let a = report().counters;
        let mut b = a;
        b.l2_transactions += 5;
        b.hit_latency_sum += 100;
        let d = b.minus(&a);
        assert_eq!(d.l2_transactions, 5);
        assert_eq!(d.hit_latency_sum, 100);
        assert_eq!(d.migrations, 0);
    }

    /// Pins the fingerprint of a fully populated report to a golden
    /// value. The fingerprint is a cross-run contract (CI matrices and
    /// snapshot-equivalence gate on it), so any change to the hashed
    /// field set or their order must be deliberate — update the
    /// constant only when the fingerprint definition itself changes.
    #[test]
    fn fingerprint_matches_the_pinned_golden_value() {
        let mut r = report();
        r.network.packets_sent = 12;
        r.network.packets_delivered = 11;
        r.network.total_latency = 340;
        r.network.max_latency = 77;
        r.network.total_hops = 56;
        r.network.flit_hops = 200;
        r.network.flit_hops_by_class = [50, 60, 70, 20];
        r.network.delivered_by_class = [3, 4, 3, 1];
        r.network.latency_by_class = [90, 100, 110, 40];
        r.network.bus_transfers = 9;
        r.network.switch_contention = 2;
        r.network.latency_histogram.record(33);
        assert_eq!(r.fingerprint(), GOLDEN_FINGERPRINT);
    }

    const GOLDEN_FINGERPRINT: u64 = 17883867597365377399;

    #[test]
    fn fingerprint_distinguishes_every_hashed_field() {
        let base = report().fingerprint();
        let mut r = report();
        r.counters.mem_wait_cycles += 1;
        assert_ne!(r.fingerprint(), base);
        let mut r = report();
        r.network.latency_histogram.record(5);
        assert_ne!(r.fingerprint(), base);
        let mut r = report();
        r.bus_contention_cycles += 1;
        assert_ne!(r.fingerprint(), base);
        let mut r = report();
        r.benchmark.push('x');
        assert_ne!(r.fingerprint(), base);
    }

    #[test]
    fn empty_windows_do_not_divide_by_zero() {
        let mut r = report();
        r.counters = Counters::default();
        r.cycles = 0;
        assert_eq!(r.avg_l2_hit_latency(), 0.0);
        assert_eq!(r.ipc(), 0.0);
        assert_eq!(r.l2_miss_rate(), 0.0);
    }
}
