//! The snapshot contract: a snapshot names a point in a run, and resuming
//! it replays the recipe to that point, so snapshot + resume is
//! byte-identical to the uninterrupted run — same report fingerprint,
//! same hit-matrix metrics, same sample rows, same trace suffix — for
//! every scheme, stack height, and fabric. And an image that does not
//! name such a point comes back as a typed error, never a panic or a
//! silently different run.

use std::hash::Hasher as _;

use nim_core::experiments::{run_cells, ExperimentScale, SweepSpec};
use nim_core::{FabricKind, RunError, Scheme, SnapshotError, System, SystemBuilder};
use nim_obs::{Metric, Obs, ObsConfig};
use nim_types::codec::CodecError;
use nim_types::FxHasher;
use nim_workload::{BenchmarkProfile, ReplayTrace, TraceGenerator};

const SEED: u64 = 7;
const WARMUP: u64 = 60;
const SAMPLE: u64 = 540;
const SAMPLE_EVERY: u64 = 400;
/// Transactions completed before the snapshot is taken (mid-run, after
/// warmup so the measurement window is already open, and off the epoch
/// grid).
const STOP_AT: u64 = 300;

/// One cell of the equivalence matrix.
#[derive(Clone, Copy, Debug)]
struct Cell {
    scheme: Scheme,
    layers: u8,
    fabric: FabricKind,
}

impl Cell {
    fn new(scheme: Scheme, layers: u8, fabric: FabricKind) -> Self {
        Self {
            scheme,
            layers,
            fabric,
        }
    }

    fn label(&self) -> String {
        format!(
            "{} layers={} fabric={}",
            self.scheme.label(),
            self.layers,
            self.fabric.name()
        )
    }

    fn build(&self) -> System {
        let obs = Obs::new(ObsConfig {
            trace: true,
            trace_capacity: 1 << 16,
            sample_every: SAMPLE_EVERY,
            ..ObsConfig::default()
        });
        SystemBuilder::new(self.scheme)
            .layers(self.layers)
            .fabric(self.fabric)
            .seed(SEED)
            .warmup_transactions(WARMUP)
            .sampled_transactions(SAMPLE)
            .observability(obs)
            .build()
            .expect("cell builds")
    }
}

/// Everything the equivalence bar compares, captured from one finished
/// run. Wall-clock fields (`SampleRow::wall_secs`, `sim/cycles_per_sec`)
/// are excluded: they measure host speed, not simulated behavior.
#[derive(Debug, PartialEq)]
struct Observed {
    fingerprint: u64,
    /// Every sampler row, as the trace's counter events render it (the
    /// cycle and one value per column; no wall clock).
    sample_rows: Vec<String>,
    /// Deterministic metrics, including the `l2/hits/{local}/{serve}`
    /// and `l2/miss_from/{local}` hit-matrix counters.
    metrics: Vec<(String, Metric)>,
    /// Digest of all trace events from the snapshot cycle onward.
    trace_suffix: u64,
}

fn observe(system: &System, fingerprint: u64, suffix_from: u64) -> Observed {
    let obs = system.obs();
    let mut trace = Vec::new();
    obs.export_trace(&mut trace).expect("in-memory export");
    let trace = String::from_utf8(trace).expect("utf-8 trace");
    let sample_rows = trace
        .lines()
        .filter(|l| l.contains("\"ph\":\"C\""))
        .map(String::from)
        .collect();
    let metrics = obs
        .with_metrics(|m| {
            m.iter()
                .filter(|(name, _)| !name.starts_with("sim/"))
                .map(|(name, metric)| (name.to_string(), metric.clone()))
                .collect()
        })
        .expect("obs enabled");
    Observed {
        fingerprint,
        sample_rows,
        metrics,
        trace_suffix: obs.trace_digest_from(suffix_from),
    }
}

/// Runs `cell` twice — uninterrupted, and snapshot-at-`STOP_AT` +
/// resume — and asserts the two halves observed the same simulation.
fn assert_cell_equivalence(cell: Cell) {
    let mut system = cell.build();
    let profile = BenchmarkProfile::synthetic();
    let mut gen = system.begin(&profile);
    let paused = system
        .run_until(&mut gen, STOP_AT)
        .expect("run reaches the stop");
    assert!(
        paused.is_none(),
        "{}: run must pause, not finish",
        cell.label()
    );
    let snap_cycle = system.network().now().0;
    assert_ne!(
        snap_cycle % SAMPLE_EVERY,
        0,
        "the pause is off the epoch grid"
    );
    let bytes = system.snapshot(&gen).expect("any pause is legal");

    let mut resumed = SystemBuilder::resume_from(&bytes, None).expect("snapshot resumes");
    assert_eq!(resumed.benchmark(), profile.name);
    assert_eq!(resumed.system().network().now().0, snap_cycle);
    let report = resumed.finish().expect("resumed run finishes");
    let interrupted = observe(resumed.system(), report.fingerprint(), snap_cycle);

    // Uninterrupted half.
    let mut cold = cell.build();
    let cold_report = cold.run(&profile).expect("cold run finishes");
    let uninterrupted = observe(&cold, cold_report.fingerprint(), snap_cycle);

    assert_eq!(cold_report, report, "{}: reports diverge", cell.label());
    assert_eq!(
        uninterrupted,
        interrupted,
        "{}: snapshot+resume diverges from the uninterrupted run",
        cell.label()
    );
}

#[test]
fn snapshot_resume_is_bit_identical_across_schemes_layers_and_fabrics() {
    let cells = [
        // All four schemes at the paper's default topology.
        Cell::new(Scheme::CmpDnuca, 2, FabricKind::Sim),
        Cell::new(Scheme::CmpDnuca2d, 2, FabricKind::Sim),
        Cell::new(Scheme::CmpSnuca3d, 2, FabricKind::Sim),
        Cell::new(Scheme::CmpDnuca3d, 2, FabricKind::Sim),
        // Taller stacks.
        Cell::new(Scheme::CmpSnuca3d, 4, FabricKind::Sim),
        Cell::new(Scheme::CmpDnuca3d, 8, FabricKind::Sim),
        Cell::new(Scheme::CmpDnuca3d, 4, FabricKind::Sim),
        Cell::new(Scheme::CmpSnuca3d, 8, FabricKind::Sim),
        // The modeled fabric.
        Cell::new(Scheme::CmpSnuca3d, 4, FabricKind::Ideal),
    ];
    for cell in cells {
        assert_cell_equivalence(cell);
    }
}

#[test]
fn resumed_runs_can_pause_and_snapshot_again() {
    let cell = Cell::new(Scheme::CmpDnuca3d, 2, FabricKind::Sim);
    let mut system = cell.build();
    let profile = BenchmarkProfile::synthetic();
    let mut gen = system.begin(&profile);
    assert!(system.run_until(&mut gen, 150).expect("pauses").is_none());
    let first = system.snapshot(&gen).expect("first snapshot");

    // Chain: resume, advance further, snapshot again, resume again.
    let mut resumed = SystemBuilder::resume_from(&first, None).expect("resumes");
    assert!(resumed.run_until(STOP_AT).expect("pauses again").is_none());
    let second = resumed.snapshot().expect("second snapshot");
    let mut chained = SystemBuilder::resume_from(&second, None).expect("resumes again");
    let report = chained.finish().expect("finishes");

    let mut cold = cell.build();
    let cold_report = cold.run(&profile).expect("cold run");
    assert_eq!(cold_report.fingerprint(), report.fingerprint());
}

#[test]
fn duplicate_cells_match_cold_started_cells() {
    let benchmarks = [BenchmarkProfile::synthetic()];
    let scale = ExperimentScale {
        seed: 42,
        warmup: 150,
        sample: 450,
    };
    // One lone cell; then three identical cells, which are one
    // simulation handed out three times.
    let lone = [SweepSpec::new(Scheme::CmpDnuca3d, 0)];
    let cold = run_cells(&benchmarks, scale, &lone).expect("cold cell runs");
    let trio = [
        SweepSpec::new(Scheme::CmpDnuca3d, 0),
        SweepSpec::new(Scheme::CmpDnuca3d, 0),
        SweepSpec::new(Scheme::CmpDnuca3d, 0),
    ];
    let shared = run_cells(&benchmarks, scale, &trio).expect("duplicate cells run");
    assert_eq!(shared.len(), 3);
    for report in &shared {
        assert_eq!(
            report.fingerprint(),
            cold[0].fingerprint(),
            "duplicate cell diverges from cold start"
        );
    }
}

// ---------------------------------------------------------------------------
// Malformed snapshots must come back as typed errors, never panics.
// ---------------------------------------------------------------------------

fn valid_snapshot() -> Vec<u8> {
    let mut system = Cell::new(Scheme::CmpDnuca3d, 2, FabricKind::Sim).build();
    let mut gen = system.begin(&BenchmarkProfile::synthetic());
    assert!(system
        .run_until(&mut gen, STOP_AT)
        .expect("pauses")
        .is_none());
    system.snapshot(&gen).expect("snapshot")
}

/// Replaces an image's checksum with the one its (edited) bytes have —
/// what a deliberate edit, rather than corruption, looks like.
fn resealed(mut image: Vec<u8>) -> Vec<u8> {
    image.truncate(image.len() - 8);
    let mut h = FxHasher::default();
    h.write(&image);
    image.extend_from_slice(&h.finish().to_le_bytes());
    image
}

/// Resumes `image` under `catch_unwind`: `Ok` with the typed error, or
/// `Err` with the panic message; a resume that succeeds is a failure.
fn refusal(image: &[u8]) -> Result<SnapshotError, String> {
    let outcome = std::panic::catch_unwind(|| SystemBuilder::resume_from(image, None).err());
    match outcome {
        Ok(Some(e)) => Ok(e),
        Ok(None) => Err("resumed".to_string()),
        Err(panic) => Err(panic
            .downcast_ref::<String>()
            .cloned()
            .or_else(|| panic.downcast_ref::<&str>().map(|s| (*s).to_string()))
            .unwrap_or_default()),
    }
}

#[test]
fn truncated_snapshots_fail_with_a_typed_error() {
    let bytes = valid_snapshot();
    for len in 0..bytes.len() {
        match refusal(&bytes[..len]) {
            Ok(SnapshotError::Codec(_)) => {}
            other => panic!("truncation at {len} must fail with Codec, got {other:?}"),
        }
    }
}

#[test]
fn corrupted_snapshots_fail_with_a_typed_error() {
    let bytes = valid_snapshot();
    // Bad magic.
    let mut bad = bytes.clone();
    bad[0] ^= 0xFF;
    assert_eq!(
        refusal(&bad),
        Ok(SnapshotError::Codec(CodecError::BadMagic))
    );
    // Trailing garbage: the checksum no longer sits at the end.
    let mut bad = bytes.clone();
    bad.extend_from_slice(b"junk");
    assert_eq!(
        refusal(&bad),
        Ok(SnapshotError::Codec(CodecError::Corrupt(
            "checksum mismatch"
        )))
    );
    // The recipe re-encoded with another seed, checksum and all: the
    // replay cannot reach the recorded state. The seed follows the
    // 10-byte header and the recipe's scheme, fabric and two flags.
    let mut reseeded = bytes.clone();
    assert_eq!(reseeded[14..22], SEED.to_le_bytes(), "the recipe's seed");
    reseeded[14..22].copy_from_slice(&(SEED + 1).to_le_bytes());
    let cycle = match refusal(&resealed(reseeded)) {
        Ok(SnapshotError::Diverged { cycle }) => cycle,
        other => panic!("a reseeded recipe must diverge, got {other:?}"),
    };
    let mut system = Cell::new(Scheme::CmpDnuca3d, 2, FabricKind::Sim).build();
    let mut gen = system.begin(&BenchmarkProfile::synthetic());
    system.run_until(&mut gen, STOP_AT).expect("pauses");
    assert_eq!(cycle, system.network().now().0, "names the pause cycle");
}

#[test]
fn version_mismatched_snapshots_fail_with_a_typed_error() {
    // The u16 after the 8-byte magic is the global snapshot version; a
    // v2 image (which held live state) and a v3 image (whose recipe held
    // since-deleted fields) are refused like any other.
    for found in [0xFFFF, 2, 3] {
        let mut bytes = valid_snapshot();
        bytes[8..10].copy_from_slice(&u16::to_le_bytes(found));
        assert_eq!(
            refusal(&bytes),
            Ok(SnapshotError::Codec(CodecError::UnsupportedVersion {
                found,
                supported: 4
            }))
        );
    }
}

#[test]
fn unknown_benchmarks_fail_with_a_typed_error() {
    let mut bytes = valid_snapshot();
    // The benchmark name is stored once; misspell it in place and reseal.
    let name = b"synthetic";
    let at = bytes
        .windows(name.len())
        .position(|w| w == name)
        .expect("benchmark name in snapshot");
    bytes[at] = b'z';
    match refusal(&resealed(bytes)) {
        Ok(SnapshotError::UnknownBenchmark(n)) => assert_eq!(n, "zynthetic"),
        other => panic!("unknown benchmark must be typed, got {other:?}"),
    }
}

#[test]
fn runs_that_cannot_be_replayed_are_refused_at_snapshot_time() {
    let profile = BenchmarkProfile::synthetic();
    let cell = Cell::new(Scheme::CmpDnuca3d, 2, FabricKind::Sim);
    let refused = |system: &System, gen: &TraceGenerator| match system.snapshot(gen) {
        Err(SnapshotError::NotReplayable(why)) => why,
        other => panic!("must be refused, got {other:?}"),
    };

    // A run on a system a `run_with_source` run already used (its replay
    // trace ran dry): a replay on a fresh system starts from other state.
    let mut system = cell.build();
    let dry = system.run_with_source(profile.name, &mut ReplayTrace::default());
    assert!(matches!(dry, Err(RunError::Stalled { .. })), "{dry:?}");
    let gen = system.begin(&profile);
    assert!(refused(&system, &gen).contains("already begun"));

    // A profile that only borrows a named profile's name.
    let mut custom = profile;
    custom.shared_frac += 0.01;
    let mut system = cell.build();
    let mut gen = system.begin(&custom);
    assert!(system.run_until(&mut gen, 50).expect("pauses").is_none());
    assert!(refused(&system, &gen).contains("profile"));
}

#[test]
fn snapshot_legality_is_enforced() {
    let profile = BenchmarkProfile::synthetic();
    let cell = Cell::new(Scheme::CmpDnuca3d, 2, FabricKind::Sim);

    // No run in progress.
    let mut system = cell.build();
    let gen = TraceGenerator::new(&profile, system.config().num_cpus, SEED);
    assert_eq!(system.snapshot(&gen), Err(SnapshotError::NoRunInProgress));

    // Any pause is legal, the first cycle included.
    let mut gen = system.begin(&profile);
    let at_start = system.snapshot(&gen).expect("a begun run names cycle 0");
    let resumed = SystemBuilder::resume_from(&at_start, None).expect("resumes");
    assert_eq!(resumed.system().network().now().0, 0);

    // A finished run is over: there is no point in it left to name.
    assert!(system
        .run_until(&mut gen, u64::MAX)
        .expect("runs")
        .is_some());
    assert_eq!(system.snapshot(&gen), Err(SnapshotError::NoRunInProgress));
}

// ---------------------------------------------------------------------------
// The image format is pinned: the recipe, the observability settings, the
// pause cycle and the digest of the simulated state there.
// ---------------------------------------------------------------------------

/// Pauses a run of `builder`'s system at `STOP_AT` and returns the
/// image's length and FxHash.
fn image_digest(builder: SystemBuilder) -> (usize, u64) {
    let mut system = builder
        .seed(SEED)
        .warmup_transactions(WARMUP)
        .sampled_transactions(SAMPLE)
        .build()
        .expect("cell builds");
    let mut gen = system.begin(&BenchmarkProfile::synthetic());
    assert!(system
        .run_until(&mut gen, STOP_AT)
        .expect("pauses")
        .is_none());
    let bytes = system.snapshot(&gen).expect("snapshot");
    let mut h = FxHasher::default();
    h.write(&bytes);
    (bytes.len(), h.finish())
}

#[test]
fn snapshot_images_are_byte_stable() {
    let dnuca3d = || SystemBuilder::new(Scheme::CmpDnuca3d);
    let observed = Obs::new(ObsConfig {
        trace: true,
        trace_capacity: 1 << 16,
        sample_every: SAMPLE_EVERY,
        ..ObsConfig::default()
    });
    let cells = [
        ("sim 2-layer", dnuca3d(), (161, 0x0626_ffd3_1d2e_9d4b)),
        (
            "sim 4-layer",
            dnuca3d().layers(4),
            (161, 0x45df_b9d3_47ca_2147),
        ),
        (
            "ideal",
            SystemBuilder::new(Scheme::CmpSnuca3d)
                .layers(4)
                .fabric(FabricKind::Ideal),
            (161, 0x5f78_18d5_c390_24f9),
        ),
        (
            "edge memory controllers",
            dnuca3d().edge_memory_controllers(true),
            (161, 0x2ea8_9856_3b89_becb),
        ),
        (
            "sampling and tracing on",
            dnuca3d().observability(observed),
            (188, 0x2d80_666e_e9c0_04a4),
        ),
    ];
    let (got, want): (Vec<_>, Vec<_>) = cells
        .into_iter()
        .map(|(label, builder, want)| ((label, image_digest(builder)), (label, want)))
        .unzip();
    assert_eq!(got, want, "(label, (image bytes, FxHash of the image))");
}

// ---------------------------------------------------------------------------
// No corrupted image may panic, and none may resume.
// ---------------------------------------------------------------------------

/// Every single-bit flip of a valid image, at every offset: each is
/// refused with a typed error before anything is simulated — the magic,
/// the version, or the checksum catches it.
#[test]
fn flipped_bytes_yield_typed_errors_or_completed_runs_never_panics() {
    let image = valid_snapshot();
    let mut panics = Vec::new();
    for at in 0..image.len() {
        for bit in 0..8 {
            let mut mutated = image.clone();
            mutated[at] ^= 1 << bit;
            match refusal(&mutated) {
                Ok(SnapshotError::Codec(_)) => {}
                Ok(e) => panics.push(format!("byte {at} bit {bit}: refused late, {e}")),
                Err(msg) => panics.push(format!("byte {at} bit {bit}: {msg}")),
            }
        }
    }
    assert!(panics.is_empty(), "{panics:#?}");
}
