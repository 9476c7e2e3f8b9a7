//! Sharded multi-threaded simulation must be invisible in the results:
//! a run whose network is cut into 2 or 4 independently-advancing
//! cluster-row shards (`SystemBuilder::shards`) must agree with the
//! plain sequential run on every report field, the per-cluster L2
//! hit/miss matrix, the epoch-sample table, the trace event stream, and
//! the final cycle — bit for bit. Cells
//! cover every scheme, cold-cache and replication and
//! edge-memory-controller variants, the narrow-bus serialisation mode,
//! four-layer chips, trace-enabled cells that pin the deferred-
//! `FlitHop` replay order on both layer-aligned (4-layer × 4 shards)
//! and cluster-granular (2-layer × 4 shards, each layer's mesh cut at
//! mid-height) cuts, and a forced-threading repetition test that pins
//! cross-thread scheduling out of the results.

use std::fmt::Write as _;

use nim_core::{RunReport, Scheme, SystemBuilder};
use nim_obs::{CategoryMask, Obs, ObsConfig};
use nim_types::SystemConfig;
use nim_workload::BenchmarkProfile;

/// Knobs one equivalence cell varies besides the shard count.
#[derive(Clone, Copy, Default)]
struct Cell {
    narrow_bus: bool,
    layers: Option<u8>,
    cold: bool,
    replication: bool,
    edge_memory: bool,
    /// Trace everything (including the per-flit hop firehose) so the
    /// window executor's deferred-event replay is compared too.
    trace_hops: bool,
    /// Force the threaded window executor onto every window (spawn
    /// threshold 1, 4 workers) instead of letting the calibrator decide.
    forced_threading: bool,
}

/// Everything a run can disagree on, as one comparable blob.
#[derive(PartialEq, Debug)]
struct Fingerprint {
    report: RunReport,
    final_cycle: u64,
    /// `l2/hits/{local}/{serve}` + `l2/miss_from/{local}` counters.
    hit_matrix: String,
    /// Epoch-sampled rows and trace events, via the trace export with
    /// the wall-clock-dependent summary line stripped.
    samples: String,
}

fn run_one(scheme: Scheme, profile: &BenchmarkProfile, cell: Cell, shards: usize) -> Fingerprint {
    let mut cfg = SystemConfig::default();
    if let Some(layers) = cell.layers {
        cfg.network.layers = layers;
    }
    if cell.narrow_bus {
        // A 32-bit bus serialises each 128-bit flit over 4 cycles,
        // stretching the pillar-grant lookahead the window planner uses.
        cfg.network.bus_width_bits = 32;
    }
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
    let mut builder = SystemBuilder::new(scheme)
        .config(cfg)
        .seed(42)
        .warmup_transactions(50)
        .sampled_transactions(400)
        .prewarm(!cell.cold)
        .replication(cell.replication)
        .edge_memory_controllers(cell.edge_memory)
        .shards(shards)
        .observability(obs.clone());
    if cell.forced_threading {
        builder = builder.window_tuning(1, 4);
    }
    let mut sys = builder.build().expect("system builds");
    let report = sys.run(profile).expect("run completes");
    let final_cycle = sys.network().now().0;
    let hit_matrix = obs
        .with_metrics(|m| {
            let mut s = String::new();
            for (name, metric) in m.with_prefix("l2/hits/") {
                let _ = writeln!(s, "{name} = {metric:?}");
            }
            for (name, metric) in m.with_prefix("l2/miss_from/") {
                let _ = writeln!(s, "{name} = {metric:?}");
            }
            s
        })
        .expect("obs enabled");
    let mut trace = Vec::new();
    obs.export_trace(&mut trace).expect("trace export");
    let samples = String::from_utf8(trace)
        .expect("utf-8 trace")
        .lines()
        .filter(|l| !l.contains("trace_summary"))
        .collect::<Vec<_>>()
        .join("\n");
    Fingerprint {
        report,
        final_cycle,
        hit_matrix,
        samples,
    }
}

/// One test fn on purpose: each cell simulates a full (small) run three
/// times, and keeping them serial bounds peak memory in debug CI.
#[test]
fn sharding_matches_sequential_mode_bit_for_bit() {
    let benchmarks = [BenchmarkProfile::art(), BenchmarkProfile::swim()];
    let mut cells: Vec<(Scheme, &BenchmarkProfile, Cell)> = Vec::new();
    for profile in &benchmarks {
        for &scheme in &Scheme::ALL {
            cells.push((scheme, profile, Cell::default()));
        }
        // Four-layer variants so a 4-shard request is genuinely four
        // regions rather than clamping to the layer count.
        cells.push((
            Scheme::CmpDnuca3d,
            profile,
            Cell {
                layers: Some(4),
                ..Cell::default()
            },
        ));
    }
    cells.push((
        Scheme::CmpSnuca3d,
        &benchmarks[0],
        Cell {
            narrow_bus: true,
            ..Cell::default()
        },
    ));
    cells.push((
        Scheme::CmpDnuca3d,
        &benchmarks[1],
        Cell {
            cold: true,
            ..Cell::default()
        },
    ));
    cells.push((
        Scheme::CmpDnuca3d,
        &benchmarks[0],
        Cell {
            replication: true,
            ..Cell::default()
        },
    ));
    cells.push((
        Scheme::CmpSnuca3d,
        &benchmarks[1],
        Cell {
            edge_memory: true,
            ..Cell::default()
        },
    ));
    // Full-trace cells: the deferred FlitHop replay must reproduce the
    // sequential event stream exactly, stamps and order included — on a
    // layer-aligned cut (4 layers × 4 shards) and on a cluster-granular
    // cut (default 2 layers × 4 shards, each layer split at mid-height,
    // so the mesh-boundary lookahead governs the window lengths).
    cells.push((
        Scheme::CmpDnuca3d,
        &benchmarks[0],
        Cell {
            layers: Some(4),
            trace_hops: true,
            ..Cell::default()
        },
    ));
    cells.push((
        Scheme::CmpDnuca3d,
        &benchmarks[0],
        Cell {
            trace_hops: true,
            ..Cell::default()
        },
    ));

    for (scheme, profile, cell) in cells {
        let sequential = run_one(scheme, profile, cell, 1);
        for shards in [2usize, 4] {
            let sharded = run_one(scheme, profile, cell, shards);
            assert_eq!(
                sequential,
                sharded,
                "{scheme:?}/{}/layers={:?}/narrow={}/cold={}/repl={}/edge={}/hops={}: \
                 {shards}-shard run must be bit-identical to sequential",
                profile.name,
                cell.layers,
                cell.narrow_bus,
                cell.cold,
                cell.replication,
                cell.edge_memory,
                cell.trace_hops
            );
        }
    }
}

/// Thread scheduling varies run to run; with the spawn threshold forced
/// to 1 so every window really fans out across worker threads, three
/// repetitions of the same cluster-cut run (2 layers × 4 shards) must
/// agree with each other and with the sequential run, byte for byte —
/// report, hit matrix, samples, and the full trace stream included.
#[test]
fn forced_threading_repetitions_are_byte_identical() {
    let profile = BenchmarkProfile::art();
    let trace_cell = Cell {
        trace_hops: true,
        ..Cell::default()
    };
    let sequential = run_one(Scheme::CmpDnuca3d, &profile, trace_cell, 1);
    let forced = Cell {
        forced_threading: true,
        ..trace_cell
    };
    for rep in 0..3 {
        let sharded = run_one(Scheme::CmpDnuca3d, &profile, forced, 4);
        assert_eq!(
            sequential, sharded,
            "forced-threading repetition {rep} diverged from sequential"
        );
    }
}
