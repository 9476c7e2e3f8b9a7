//! The attribution sum invariant, end to end: across a 9-cell sweep of
//! schemes, benchmarks, and extension features, every cycle of every
//! completed transaction must land in exactly one of the five phase
//! buckets — so the aggregated bucket counters must equal the summed
//! end-to-end latencies *exactly*, with no residue and no double count.
//!
//! These runs execute in debug builds, so the per-transaction
//! `debug_assert`s in the engine's completion path (each transaction's
//! buckets sum to its own latency) fire on any mis-credit long before
//! the aggregate comparison here would.

use nim_core::{Phase, Scheme, SystemBuilder};
use nim_workload::BenchmarkProfile;

struct Cell {
    scheme: Scheme,
    benchmark: BenchmarkProfile,
    edge_memory: bool,
    narrow_bus: bool,
    /// Measure from transaction 0 so cold misses (and their memory
    /// waits) land inside the sampled window.
    cold: bool,
}

impl Cell {
    fn new(scheme: Scheme, benchmark: BenchmarkProfile) -> Self {
        Self {
            scheme,
            benchmark,
            edge_memory: false,
            narrow_bus: false,
            cold: false,
        }
    }
}

/// One test fn on purpose: each cell is a full (small) run, and keeping
/// them serial bounds peak memory in debug CI.
#[test]
fn phase_buckets_sum_to_latency_across_the_sweep() {
    let mut cells: Vec<Cell> = Vec::new();
    // The four schemes on two benchmarks: 8 baseline cells. The art
    // cells measure cold so the window contains real memory misses.
    for (profile, cold) in [
        (BenchmarkProfile::art(), true),
        (BenchmarkProfile::swim(), false),
    ] {
        for &scheme in &Scheme::ALL {
            let mut c = Cell::new(scheme, profile);
            c.cold = cold;
            cells.push(c);
        }
    }
    // Extension paths ride the same engine: edge MCs reroute the memory
    // path, and a narrow bus stretches dTDMA serialisation so pillar
    // waits dominate.
    let mut edge = Cell::new(Scheme::CmpSnuca3d, BenchmarkProfile::art());
    edge.edge_memory = true;
    edge.narrow_bus = true;
    edge.cold = true;
    cells.push(edge);
    assert_eq!(cells.len(), 9);

    for cell in &cells {
        let mut cfg = nim_types::SystemConfig::default();
        if cell.narrow_bus {
            cfg.network.bus_width_bits = 32;
        }
        let mut sys = SystemBuilder::new(cell.scheme)
            .config(cfg)
            .seed(42)
            .prewarm(!cell.cold)
            .warmup_transactions(if cell.cold { 0 } else { 50 })
            .sampled_transactions(400)
            .edge_memory_controllers(cell.edge_memory)
            .build()
            .expect("system builds");
        let report = sys.run(&cell.benchmark).expect("run completes");
        let c = &report.counters;
        let label = format!(
            "{:?}/{}/edge_mc={}/narrow_bus={}",
            cell.scheme, cell.benchmark.name, cell.edge_memory, cell.narrow_bus
        );

        assert!(c.l2_transactions > 0, "{label}: empty sample window");
        let attributed: u64 = c.phase_cycles().iter().sum();
        let latency = c.hit_latency_sum + c.miss_latency_sum;
        assert_eq!(
            attributed, latency,
            "{label}: phase buckets must sum exactly to end-to-end latency"
        );

        // The decomposition must be a real decomposition, not a single
        // catch-all bucket: network and L2 service always accrue.
        let b = c.phase_cycles();
        assert!(b[Phase::NocHop as usize] > 0, "{label}: no NoC-hop cycles");
        assert!(
            b[Phase::L2Service as usize] > 0,
            "{label}: no L2-service cycles"
        );
        // 3D schemes route through the dTDMA pillars; a scheme that
        // never waited for a bus slot would mean the pillar stamp is
        // disconnected.
        if matches!(cell.scheme, Scheme::CmpSnuca3d | Scheme::CmpDnuca3d) {
            assert!(
                b[Phase::PillarWait as usize] > 0,
                "{label}: 3D scheme recorded no pillar-wait cycles"
            );
        }
        // Cold windows contain compulsory misses, so the memory-wait
        // bucket must accrue their off-chip round trips.
        if cell.cold {
            assert!(c.l2_misses > 0, "{label}: cold window saw no misses");
            assert!(
                b[Phase::MemWait as usize] > 0,
                "{label}: misses completed without memory-wait cycles"
            );
        }
        // The per-txn means re-derive from the same counters.
        let means = report.latency_breakdown();
        let mean_total: f64 = means.iter().sum();
        let expect = latency as f64 / c.l2_transactions as f64;
        assert!(
            (mean_total - expect).abs() < 1e-9,
            "{label}: breakdown means must sum to the mean latency"
        );
    }
}
