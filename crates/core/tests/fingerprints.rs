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

use nim_core::{Scheme, SystemBuilder};
use nim_obs::{CategoryMask, Obs, ObsConfig};
use nim_types::FxHasher;
use nim_workload::BenchmarkProfile;

/// One recorded cell: scheme, benchmark, extension knobs, chip depth,
/// tracing, digest.
struct Cell {
    scheme: Scheme,
    benchmark: &'static str,
    replication: bool,
    edge_memory: bool,
    layers: u8,
    /// Trace every category, the per-flit `hop` firehose included, so
    /// the digest holds the `FlitHop` / `PacketDeliver` emission order.
    trace_hops: bool,
    digest: u64,
}

const CELLS: [Cell; 8] = [
    Cell {
        scheme: Scheme::CmpDnuca,
        benchmark: "art",
        replication: false,
        edge_memory: false,
        layers: 2,
        trace_hops: false,
        digest: 0x0ee7_c86c_4fe6_2387,
    },
    Cell {
        scheme: Scheme::CmpDnuca2d,
        benchmark: "art",
        replication: false,
        edge_memory: false,
        layers: 2,
        trace_hops: false,
        digest: 0x2c6a_1a7a_85f4_e914,
    },
    Cell {
        scheme: Scheme::CmpSnuca3d,
        benchmark: "art",
        replication: false,
        edge_memory: false,
        layers: 2,
        trace_hops: false,
        digest: 0x8df6_94aa_7ffe_8b04,
    },
    Cell {
        scheme: Scheme::CmpDnuca3d,
        benchmark: "art",
        replication: false,
        edge_memory: false,
        layers: 2,
        trace_hops: false,
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
        digest: 0xf829_379c_7dd2_84a9,
    },
    Cell {
        scheme: Scheme::CmpSnuca3d,
        benchmark: "swim",
        replication: false,
        edge_memory: true,
        layers: 2,
        trace_hops: false,
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
        digest: 0x4120_8aed_19e8_1934,
    },
    Cell {
        scheme: Scheme::CmpDnuca3d,
        benchmark: "art",
        replication: false,
        edge_memory: false,
        layers: 4,
        trace_hops: true,
        digest: 0x02c7_41f8_6fbd_c4bc,
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
    let mut sys = SystemBuilder::new(cell.scheme)
        .layers(cell.layers)
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
        // `NIM_RECORD_FP=1 cargo test -p nim-core --test fingerprints --
        // --nocapture` prints fresh digests instead of asserting — use it
        // to re-record after an *intentional* behavior change.
        if std::env::var_os("NIM_RECORD_FP").is_some() {
            eprintln!(
                "RECORD {:?}/{}/repl={}/edge_mc={}/layers={}/hops={} 0x{got:016x}",
                cell.scheme,
                cell.benchmark,
                cell.replication,
                cell.edge_memory,
                cell.layers,
                cell.trace_hops
            );
            continue;
        }
        assert_eq!(
            got,
            cell.digest,
            "{:?}/{}/repl={}/edge_mc={}/layers={}/hops={}: fingerprint 0x{got:016x} \
             diverged from the recorded pre-refactor digest 0x{:016x}",
            cell.scheme,
            cell.benchmark,
            cell.replication,
            cell.edge_memory,
            cell.layers,
            cell.trace_hops,
            cell.digest
        );
    }
}
