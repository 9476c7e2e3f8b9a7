//! Recorded-fingerprint regression harness: the refactor of `System`
//! into the txn/protocol/fabric layering must be behavior-preserving,
//! bit for bit. Each cell runs a small seeded simulation and reduces
//! everything a run can disagree on — `RunReport::fingerprint`, the
//! final cycle, the per-cluster hit/miss matrix, and the epoch-sample rows —
//! to one stable 64-bit digest ([`nim_types::FxHasher`], not SipHash,
//! so the value is identical across platforms and toolchains). The
//! constants below were recorded at the pre-refactor HEAD; any protocol
//! or timing divergence shows up as a digest mismatch.

use std::fmt::Write as _;
use std::hash::Hasher as _;

use nim_core::{FabricKind, Scheme, SystemBuilder};
use nim_obs::{CategoryMask, Obs, ObsConfig};
use nim_types::{FxHasher, SystemConfig};
use nim_workload::BenchmarkProfile;

/// One recorded cell: scheme, benchmark, edge memory, L2 prewarm, chip
/// depth, CPU count, tracing, pillar bus width, fabric, digest.
struct Cell {
    scheme: Scheme,
    benchmark: &'static str,
    edge_memory: bool,
    /// Start from the workload's working set installed in the L2. Off,
    /// the run starts cold and its misses reach memory.
    prewarm: bool,
    layers: u8,
    cpus: u32,
    /// Trace every category, the per-flit `hop` firehose included, so
    /// the digest holds the `FlitHop` / `PacketDeliver` emission order.
    trace_hops: bool,
    /// A bus narrower than the 128-bit flit serialises each flit over
    /// several cycles, leaving cycles where traffic is in flight but
    /// nothing moves.
    bus_width_bits: u32,
    fabric: FabricKind,
    digest: u64,
}

const CELLS: [Cell; 13] = [
    Cell {
        scheme: Scheme::CmpDnuca,
        benchmark: "art",
        edge_memory: false,
        prewarm: true,
        layers: 2,
        cpus: 8,
        trace_hops: false,
        bus_width_bits: 128,
        fabric: FabricKind::Sim,
        digest: 0x2176_0c54_08a6_e16f,
    },
    Cell {
        scheme: Scheme::CmpDnuca2d,
        benchmark: "art",
        edge_memory: false,
        prewarm: true,
        layers: 2,
        cpus: 8,
        trace_hops: false,
        bus_width_bits: 128,
        fabric: FabricKind::Sim,
        digest: 0x82d0_f9db_4894_e0e7,
    },
    Cell {
        scheme: Scheme::CmpSnuca3d,
        benchmark: "art",
        edge_memory: false,
        prewarm: true,
        layers: 2,
        cpus: 8,
        trace_hops: false,
        bus_width_bits: 128,
        fabric: FabricKind::Sim,
        digest: 0x41f8_496e_41a3_371d,
    },
    Cell {
        scheme: Scheme::CmpDnuca3d,
        benchmark: "art",
        edge_memory: false,
        prewarm: true,
        layers: 2,
        cpus: 8,
        trace_hops: false,
        bus_width_bits: 128,
        fabric: FabricKind::Sim,
        digest: 0x7937_2178_aaec_bf72,
    },
    // Edge memory controllers on a prewarmed L2: swim's working set is
    // resident, so this run makes no L2 miss and its digest equals the
    // same run without edge controllers. The cold rows below reach them.
    Cell {
        scheme: Scheme::CmpSnuca3d,
        benchmark: "swim",
        edge_memory: true,
        prewarm: true,
        layers: 2,
        cpus: 8,
        trace_hops: false,
        bus_width_bits: 128,
        fabric: FabricKind::Sim,
        digest: 0xe54d_7767_51cf_ddd7,
    },
    // Extension path: a cold L2 sends its misses over the network to the
    // edge memory controllers, so the controllers' DRAM channels and the
    // `MemRequest` / `MemFill` legs are pinned, on the flit-level network
    // and on the modeled fabric.
    Cell {
        scheme: Scheme::CmpSnuca3d,
        benchmark: "swim",
        edge_memory: true,
        prewarm: false,
        layers: 2,
        cpus: 8,
        trace_hops: false,
        bus_width_bits: 128,
        fabric: FabricKind::Sim,
        digest: 0x0b92_8e6f_f0d3_c698,
    },
    Cell {
        scheme: Scheme::CmpSnuca3d,
        benchmark: "swim",
        edge_memory: true,
        prewarm: false,
        layers: 2,
        cpus: 8,
        trace_hops: false,
        bus_width_bits: 128,
        fabric: FabricKind::Ideal,
        digest: 0x1bb2_f9d8_f4d9_a573,
    },
    // Full-trace cells: every `FlitHop`, `PacketDeliver` and bus event,
    // stamps and order included, on the default chip and on 4 layers.
    Cell {
        scheme: Scheme::CmpDnuca3d,
        benchmark: "art",
        edge_memory: false,
        prewarm: true,
        layers: 2,
        cpus: 8,
        trace_hops: true,
        bus_width_bits: 128,
        fabric: FabricKind::Sim,
        digest: 0x510c_9217_6283_3e2c,
    },
    Cell {
        scheme: Scheme::CmpDnuca3d,
        benchmark: "art",
        edge_memory: false,
        prewarm: true,
        layers: 4,
        cpus: 8,
        trace_hops: true,
        bus_width_bits: 128,
        fabric: FabricKind::Sim,
        digest: 0xecd6_399f_9ec0_ea21,
    },
    // Recorded while the run loop could still skip dead cycles: a
    // 32-bit bus (traffic in flight across serialisation gaps) and the
    // ideal fabric (modeled deliveries only), which the per-cycle loop
    // must reproduce.
    Cell {
        scheme: Scheme::CmpSnuca3d,
        benchmark: "art",
        edge_memory: false,
        prewarm: true,
        layers: 2,
        cpus: 8,
        trace_hops: false,
        bus_width_bits: 32,
        fabric: FabricKind::Sim,
        digest: 0xe2d0_56f1_5250_0ab0,
    },
    Cell {
        scheme: Scheme::CmpDnuca3d,
        benchmark: "swim",
        edge_memory: false,
        prewarm: true,
        layers: 2,
        cpus: 8,
        trace_hops: false,
        bus_width_bits: 32,
        fabric: FabricKind::Sim,
        digest: 0xf2dd_3d0b_c847_6df9,
    },
    Cell {
        scheme: Scheme::CmpDnuca3d,
        benchmark: "art",
        edge_memory: false,
        prewarm: true,
        layers: 2,
        cpus: 8,
        trace_hops: false,
        bus_width_bits: 128,
        fabric: FabricKind::Ideal,
        digest: 0xa092_d552_c107_ef9f,
    },
    // The eviction path: 64 CPUs' swim working sets overflow one
    // layer's L2 during the prewarm, so placements evict PLRU victims.
    Cell {
        scheme: Scheme::CmpDnuca3d,
        benchmark: "swim",
        edge_memory: false,
        prewarm: true,
        layers: 1,
        cpus: 64,
        trace_hops: false,
        bus_width_bits: 128,
        fabric: FabricKind::Sim,
        digest: 0x7e26_f652_36cb_0bd1,
    },
];

fn profile(name: &str) -> BenchmarkProfile {
    match name {
        "art" => BenchmarkProfile::art(),
        "swim" => BenchmarkProfile::swim(),
        other => panic!("unknown benchmark {other}"),
    }
}

/// The run's digest, and the L2 evictions and misses it made.
fn digest_of(cell: &Cell) -> (u64, u64, u64) {
    let obs = Obs::new(ObsConfig {
        trace: cell.trace_hops,
        mask: if cell.trace_hops {
            CategoryMask::ALL
        } else {
            CategoryMask::default_trace()
        },
        sample_every: 2_000,
        ..ObsConfig::default()
    });
    let mut cfg = SystemConfig::default();
    cfg.network.bus_width_bits = cell.bus_width_bits;
    let mut sys = SystemBuilder::new(cell.scheme)
        .config(cfg)
        .layers(cell.layers)
        .cpus(cell.cpus)
        .fabric(cell.fabric)
        .seed(42)
        .warmup_transactions(50)
        .sampled_transactions(400)
        .edge_memory_controllers(cell.edge_memory)
        .prewarm(cell.prewarm)
        .observability(obs.clone())
        .build()
        .expect("system builds");
    let report = sys.run(&profile(cell.benchmark)).expect("run completes");
    let mut blob = format!(
        "fingerprint={:016x}\nfinal_cycle={}\n",
        report.fingerprint(),
        sys.network().now().0
    );
    obs.with_metrics(|m| {
        for (name, metric) in m.with_prefix("l2/hits/") {
            let _ = writeln!(blob, "{name} = {metric:?}");
        }
        for (name, metric) in m.with_prefix("l2/miss_from/") {
            let _ = writeln!(blob, "{name} = {metric:?}");
        }
    })
    .expect("obs enabled");
    let mut trace = Vec::new();
    obs.export_trace(&mut trace).expect("trace export");
    for line in String::from_utf8(trace)
        .expect("utf-8 trace")
        .lines()
        .filter(|l| !l.contains("trace_summary"))
    {
        blob.push_str(line);
        blob.push('\n');
    }
    let mut h = FxHasher::default();
    h.write(blob.as_bytes());
    (
        h.finish(),
        obs.counter("l2/evictions"),
        obs.counter("sys/l2_misses"),
    )
}

#[test]
fn run_fingerprints_match_the_recorded_pre_refactor_values() {
    for cell in &CELLS {
        let (got, evictions, misses) = digest_of(cell);
        let label = format!(
            "{:?}/{}/edge_mc={}/prewarm={}/layers={}/cpus={}/hops={}/bus={}/fabric={}",
            cell.scheme,
            cell.benchmark,
            cell.edge_memory,
            cell.prewarm,
            cell.layers,
            cell.cpus,
            cell.trace_hops,
            cell.bus_width_bits,
            cell.fabric.name()
        );
        // `NIM_RECORD_FP=1 cargo test -p nim-core --test fingerprints --
        // --nocapture` prints fresh digests instead of asserting — use it
        // to re-record after an *intentional* behavior change.
        if std::env::var_os("NIM_RECORD_FP").is_some() {
            eprintln!("RECORD {label} 0x{got:016x} evictions={evictions} misses={misses}");
            continue;
        }
        if cell.cpus == 64 {
            assert!(evictions > 0, "{label}: the eviction row evicted nothing");
        }
        if cell.edge_memory && !cell.prewarm {
            assert!(
                misses > 0,
                "{label}: the cold edge row reached no controller"
            );
        }
        assert_eq!(
            got, cell.digest,
            "{label}: fingerprint 0x{got:016x} diverged from the recorded \
             pre-refactor digest 0x{:016x}",
            cell.digest
        );
    }
}
