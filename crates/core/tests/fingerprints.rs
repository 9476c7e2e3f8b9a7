//! Recorded-fingerprint regression harness: the refactor of `System`
//! into the txn/protocol/fabric layering must be behavior-preserving,
//! bit for bit. Each cell runs a small seeded simulation and reduces
//! everything a run can disagree on — the full `RunReport`, the final
//! cycle, the per-cluster hit/miss matrix, and the epoch-sample rows —
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

/// One recorded cell: scheme, benchmark, extension knobs, chip depth,
/// tracing, pillar bus width, fabric, digest.
struct Cell {
    scheme: Scheme,
    benchmark: &'static str,
    replication: bool,
    edge_memory: bool,
    layers: u8,
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

const CELLS: [Cell; 11] = [
    Cell {
        scheme: Scheme::CmpDnuca,
        benchmark: "art",
        replication: false,
        edge_memory: false,
        layers: 2,
        trace_hops: false,
        bus_width_bits: 128,
        fabric: FabricKind::Sim,
        digest: 0x0ee7_c86c_4fe6_2387,
    },
    Cell {
        scheme: Scheme::CmpDnuca2d,
        benchmark: "art",
        replication: false,
        edge_memory: false,
        layers: 2,
        trace_hops: false,
        bus_width_bits: 128,
        fabric: FabricKind::Sim,
        digest: 0x2c6a_1a7a_85f4_e914,
    },
    Cell {
        scheme: Scheme::CmpSnuca3d,
        benchmark: "art",
        replication: false,
        edge_memory: false,
        layers: 2,
        trace_hops: false,
        bus_width_bits: 128,
        fabric: FabricKind::Sim,
        digest: 0x8df6_94aa_7ffe_8b04,
    },
    Cell {
        scheme: Scheme::CmpDnuca3d,
        benchmark: "art",
        replication: false,
        edge_memory: false,
        layers: 2,
        trace_hops: false,
        bus_width_bits: 128,
        fabric: FabricKind::Sim,
        digest: 0x18b1_8f4e_0855_283e,
    },
    // Extension paths: replication and edge memory controllers ride the
    // same transaction engine, so they are pinned too.
    Cell {
        scheme: Scheme::CmpDnuca3d,
        benchmark: "swim",
        replication: true,
        edge_memory: false,
        layers: 2,
        trace_hops: false,
        bus_width_bits: 128,
        fabric: FabricKind::Sim,
        digest: 0xf829_379c_7dd2_84a9,
    },
    Cell {
        scheme: Scheme::CmpSnuca3d,
        benchmark: "swim",
        replication: false,
        edge_memory: true,
        layers: 2,
        trace_hops: false,
        bus_width_bits: 128,
        fabric: FabricKind::Sim,
        digest: 0x2449_2d76_1062_62e2,
    },
    // Full-trace cells: every `FlitHop`, `PacketDeliver` and bus event,
    // stamps and order included, on the default chip and on 4 layers.
    Cell {
        scheme: Scheme::CmpDnuca3d,
        benchmark: "art",
        replication: false,
        edge_memory: false,
        layers: 2,
        trace_hops: true,
        bus_width_bits: 128,
        fabric: FabricKind::Sim,
        digest: 0x4120_8aed_19e8_1934,
    },
    Cell {
        scheme: Scheme::CmpDnuca3d,
        benchmark: "art",
        replication: false,
        edge_memory: false,
        layers: 4,
        trace_hops: true,
        bus_width_bits: 128,
        fabric: FabricKind::Sim,
        digest: 0x02c7_41f8_6fbd_c4bc,
    },
    // Recorded while the run loop could still skip dead cycles: a
    // 32-bit bus (traffic in flight across serialisation gaps) and the
    // ideal fabric (modeled deliveries only), which the per-cycle loop
    // must reproduce.
    Cell {
        scheme: Scheme::CmpSnuca3d,
        benchmark: "art",
        replication: false,
        edge_memory: false,
        layers: 2,
        trace_hops: false,
        bus_width_bits: 32,
        fabric: FabricKind::Sim,
        digest: 0x0203_65e9_c70c_f2fe,
    },
    Cell {
        scheme: Scheme::CmpDnuca3d,
        benchmark: "swim",
        replication: false,
        edge_memory: false,
        layers: 2,
        trace_hops: false,
        bus_width_bits: 32,
        fabric: FabricKind::Sim,
        digest: 0x3874_456c_3338_91d1,
    },
    Cell {
        scheme: Scheme::CmpDnuca3d,
        benchmark: "art",
        replication: false,
        edge_memory: false,
        layers: 2,
        trace_hops: false,
        bus_width_bits: 128,
        fabric: FabricKind::Ideal,
        digest: 0x9d23_f72a_4b13_2da6,
    },
];

fn profile(name: &str) -> BenchmarkProfile {
    match name {
        "art" => BenchmarkProfile::art(),
        "swim" => BenchmarkProfile::swim(),
        other => panic!("unknown benchmark {other}"),
    }
}

fn digest_of(cell: &Cell) -> u64 {
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
        .fabric(cell.fabric)
        .seed(42)
        .warmup_transactions(50)
        .sampled_transactions(400)
        .replication(cell.replication)
        .edge_memory_controllers(cell.edge_memory)
        .observability(obs.clone())
        .build()
        .expect("system builds");
    let report = sys.run(&profile(cell.benchmark)).expect("run completes");
    let mut blob = format!("{report:?}\nfinal_cycle={}\n", sys.network().now().0);
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
    h.finish()
}

#[test]
fn run_fingerprints_match_the_recorded_pre_refactor_values() {
    for cell in &CELLS {
        let got = digest_of(cell);
        let label = format!(
            "{:?}/{}/repl={}/edge_mc={}/layers={}/hops={}/bus={}/fabric={}",
            cell.scheme,
            cell.benchmark,
            cell.replication,
            cell.edge_memory,
            cell.layers,
            cell.trace_hops,
            cell.bus_width_bits,
            cell.fabric.name()
        );
        // `NIM_RECORD_FP=1 cargo test -p nim-core --test fingerprints --
        // --nocapture` prints fresh digests instead of asserting — use it
        // to re-record after an *intentional* behavior change.
        if std::env::var_os("NIM_RECORD_FP").is_some() {
            eprintln!("RECORD {label} 0x{got:016x}");
            continue;
        }
        assert_eq!(
            got, cell.digest,
            "{label}: fingerprint 0x{got:016x} diverged from the recorded \
             pre-refactor digest 0x{:016x}",
            cell.digest
        );
    }
}
