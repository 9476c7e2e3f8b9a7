//! The tentpole invariant of ISSUE 10: snapshot at an epoch boundary +
//! resume must be **byte-identical** to the uninterrupted run — same
//! report fingerprint, same hit-matrix metrics, same sample rows, same
//! trace suffix — for every scheme, stack height, and fabric.
//!
//! Any simulator field missed by a `Checkpoint` impl shows up here as a
//! fingerprint divergence, which is exactly what forces the state tree
//! to stay complete as the simulator grows.

use nim_core::experiments::{run_cells, ExperimentScale, SweepSpec};
use nim_core::{FabricKind, RunError, Scheme, SnapshotError, System, SystemBuilder};
use nim_obs::{Metric, Obs, ObsConfig};
use nim_workload::{BenchmarkProfile, TraceGenerator};

const SEED: u64 = 7;
const WARMUP: u64 = 60;
const SAMPLE: u64 = 540;
const SAMPLE_EVERY: u64 = 400;
/// Transactions completed before the snapshot is taken (mid-run, after
/// warmup so the measurement window is already open).
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
    /// `(cycle, values)` of every sampler row.
    sample_rows: Vec<(u64, Vec<f64>)>,
    /// Deterministic metrics, including the `l2/hits/{local}/{serve}`
    /// and `l2/miss_from/{local}` hit-matrix counters.
    metrics: Vec<(String, Metric)>,
    /// Digest of all trace events from the snapshot cycle onward.
    trace_suffix: u64,
}

fn observe(system: &System, fingerprint: u64, suffix_from: u64) -> Observed {
    let obs = system.obs();
    let (_, rows) = obs.sampler_state().expect("obs enabled");
    let metrics = obs
        .metrics_state()
        .expect("obs enabled")
        .into_iter()
        .filter(|(name, _)| !name.starts_with("sim/"))
        .collect();
    Observed {
        fingerprint,
        sample_rows: rows.into_iter().map(|r| (r.cycle, r.values)).collect(),
        metrics,
        trace_suffix: obs.trace_digest_from(suffix_from),
    }
}

/// Runs `cell` twice — uninterrupted, and snapshot-at-`STOP_AT` +
/// resume — and asserts the two halves observed the same simulation.
fn assert_cell_equivalence(cell: Cell) {
    // Interrupted half first: it discovers the snapshot cycle that the
    // trace-suffix comparison anchors on.
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
    let bytes = system.snapshot(&gen).expect("snapshot at epoch boundary");
    // The trace ring is deliberately not serialized: the resumed ring
    // holds events strictly *after* the boundary (events stamped at the
    // boundary cycle itself — e.g. the stop transaction completing —
    // were emitted before the pause), so the suffix comparison anchors
    // one cycle past it.
    let suffix_from = snap_cycle + 1;

    let mut resumed = SystemBuilder::resume_from(&bytes, None).expect("snapshot resumes");
    assert_eq!(resumed.benchmark(), profile.name);
    let report = resumed.finish().expect("resumed run finishes");
    let interrupted = observe(resumed.system(), report.fingerprint(), suffix_from);

    // Uninterrupted half.
    let mut cold = cell.build();
    let cold_report = cold.run(&profile).expect("cold run finishes");
    let uninterrupted = observe(&cold, cold_report.fingerprint(), suffix_from);

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

#[test]
fn truncated_snapshots_fail_with_a_typed_error() {
    let bytes = valid_snapshot();
    for len in [
        0,
        1,
        7,
        9,
        bytes.len() / 4,
        bytes.len() / 2,
        bytes.len() - 1,
    ] {
        match SystemBuilder::resume_from(&bytes[..len], None) {
            Err(SnapshotError::Codec(_)) => {}
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
    assert!(matches!(
        SystemBuilder::resume_from(&bad, None),
        Err(SnapshotError::Codec(nim_types::codec::CodecError::BadMagic))
    ));
    // The first byte after the CFG section header is the scheme tag:
    // 10 header bytes, 4+4 tag string, 2 version, 4 length prefix.
    let mut bad = bytes.clone();
    bad[24] = 0xEE;
    assert!(matches!(
        SystemBuilder::resume_from(&bad, None),
        Err(SnapshotError::Codec(nim_types::codec::CodecError::Corrupt(
            _
        )))
    ));
    // Trailing garbage.
    let mut bad = bytes.clone();
    bad.extend_from_slice(b"junk");
    assert!(matches!(
        SystemBuilder::resume_from(&bad, None),
        Err(SnapshotError::Codec(nim_types::codec::CodecError::Corrupt(
            _
        )))
    ));
}

#[test]
fn version_mismatched_snapshots_fail_with_a_typed_error() {
    let mut bytes = valid_snapshot();
    // The u16 after the 8-byte magic is the global snapshot version.
    bytes[8] = 0xFF;
    bytes[9] = 0xFF;
    match SystemBuilder::resume_from(&bytes, None) {
        Err(SnapshotError::Codec(nim_types::codec::CodecError::UnsupportedVersion {
            found,
            ..
        })) => assert_eq!(found, 0xFFFF),
        other => panic!("version skew must fail with UnsupportedVersion, got {other:?}"),
    }
}

#[test]
fn unknown_benchmarks_fail_with_a_typed_error() {
    let mut bytes = valid_snapshot();
    // The benchmark name is stored once, in the WKLD section; misspell
    // it in place.
    let name = b"synthetic";
    let at = bytes
        .windows(name.len())
        .position(|w| w == name)
        .expect("benchmark name in snapshot");
    bytes[at] = b'z';
    match SystemBuilder::resume_from(&bytes, None) {
        Err(SnapshotError::UnknownBenchmark(n)) => assert_eq!(n, "zynthetic"),
        other => panic!("unknown benchmark must be typed, got {other:?}"),
    }
}

#[test]
fn resumed_runs_without_a_generator_return_typed_errors() {
    use nim_workload::{TraceCursor, TraceSource};
    /// A source positioned like a replay trace or a custom stub: its
    /// cursor is a tag byte any image handed to `--resume` may carry.
    struct Positioned(TraceCursor);
    impl TraceSource for Positioned {
        fn next_for(&mut self, _: nim_types::CpuId) -> Option<nim_types::TraceOp> {
            None
        }
        fn cursor(&self) -> TraceCursor {
            self.0.clone()
        }
    }
    let mut system = Cell::new(Scheme::CmpDnuca3d, 2, FabricKind::Sim).build();
    let mut gen = system.begin(&BenchmarkProfile::synthetic());
    assert!(system
        .run_until(&mut gen, STOP_AT)
        .expect("pauses")
        .is_none());
    for cursor in [TraceCursor::None, TraceCursor::Replay(vec![3; 8])] {
        let image = system
            .snapshot(&Positioned(cursor.clone()))
            .expect("snapshot");
        let mut resumed = SystemBuilder::resume_from(&image, None).expect("resumes");
        assert_eq!(resumed.finish(), Err(RunError::NoGenerator));
        assert_eq!(resumed.run_until(STOP_AT + 1), Err(RunError::NoGenerator));
        assert_eq!(resumed.snapshot(), Err(SnapshotError::NoGenerator));
        // The caller's own source still drives the run.
        assert_eq!(
            resumed.replay_cursor().is_some(),
            matches!(cursor, TraceCursor::Replay(_))
        );
        let mut rest = TraceGenerator::at_cursor(
            &BenchmarkProfile::synthetic(),
            resumed.system().config().num_cpus,
            SEED,
            &gen.cursor(),
        )
        .expect("cursor fits");
        resumed.finish_with(&mut rest).expect("finishes");
    }
}

#[test]
fn snapshot_legality_is_enforced() {
    let profile = BenchmarkProfile::synthetic();
    let cell = Cell::new(Scheme::CmpDnuca3d, 2, FabricKind::Sim);

    // No run in progress.
    let system = cell.build();
    let gen = TraceGenerator::new(&profile, system.config().num_cpus, SEED);
    assert!(matches!(
        system.snapshot(&gen),
        Err(SnapshotError::NoRunInProgress)
    ));

    // Mid-run but not on an epoch boundary (no sample row recorded yet).
    let mut system = cell.build();
    let gen = system.begin(&profile);
    assert!(matches!(
        system.snapshot(&gen),
        Err(SnapshotError::NotEpochBoundary { .. })
    ));
}

// ---------------------------------------------------------------------------
// The image format is pinned: a refactor of the save/restore code must
// reproduce these bytes exactly.
// ---------------------------------------------------------------------------

/// Pauses a run of `builder`'s system at `STOP_AT` and returns the
/// image's length and FxHash. `SampleRow::wall_secs` is host time, so
/// it is zeroed before the image is taken.
fn image_digest(builder: SystemBuilder) -> (usize, u64) {
    use std::hash::Hasher as _;
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
    let obs = system.obs();
    if let Some((columns, mut rows)) = obs.sampler_state() {
        for row in &mut rows {
            row.wall_secs = 0.0;
        }
        let next = obs.next_sample_at().unwrap_or(0);
        obs.restore_sampler_state(columns, rows, next);
    }
    let bytes = system.snapshot(&gen).expect("snapshot");
    let mut h = nim_types::FxHasher::default();
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
        ("sim 2-layer", dnuca3d(), (1199648, 0x681a91a867a19011)),
        (
            "sim 4-layer",
            dnuca3d().layers(4),
            (1203653, 0x24c62ee6a9193d0d),
        ),
        (
            "ideal",
            SystemBuilder::new(Scheme::CmpSnuca3d)
                .layers(4)
                .fabric(FabricKind::Ideal),
            (1201446, 0xdc5f3e2dae6eaf7a),
        ),
        (
            "replication + edge memory controllers",
            dnuca3d().replication(true).edge_memory_controllers(true),
            (1199648, 0xdc94b866fc44e943),
        ),
        (
            "sampling and tracing on",
            dnuca3d().observability(observed),
            (1204094, 0x577f6ff4e2137501),
        ),
    ];
    let (got, want): (Vec<_>, Vec<_>) = cells
        .into_iter()
        .map(|(label, builder, want)| ((label, image_digest(builder)), (label, want)))
        .unzip();
    assert_eq!(got, want, "(label, (image bytes, FxHash of the image))");
}

// ---------------------------------------------------------------------------
// No corrupted image may panic — neither while it resumes nor afterwards.
// ---------------------------------------------------------------------------

/// Resumes `image` and drives it to the end under `catch_unwind`:
/// `Ok(true)` for a completed run, `Ok(false)` for a typed error from
/// either step, `Err` with the panic message otherwise.
fn resume_and_finish(image: &[u8]) -> Result<bool, String> {
    let outcome = std::panic::catch_unwind(|| {
        let Ok(mut resumed) = SystemBuilder::resume_from(image, None) else {
            return false;
        };
        resumed.finish().is_ok()
    });
    outcome.map_err(|panic| {
        panic
            .downcast_ref::<String>()
            .cloned()
            .or_else(|| panic.downcast_ref::<&str>().map(|s| (*s).to_string()))
            .unwrap_or_default()
    })
}

/// Resumes `image` with each `(offset, mask)` XORed in, one at a time,
/// and asserts that none panicked and that both outcomes occurred.
/// Returns the `(rejected, completed)` counts.
fn assert_flips_never_panic(image: &[u8], flips: impl Iterator<Item = (usize, u8)>) -> (u32, u32) {
    let mut panics = Vec::new();
    let (mut rejected, mut completed) = (0, 0);
    for (at, mask) in flips {
        let mut mutated = image.to_vec();
        mutated[at] ^= mask;
        match resume_and_finish(&mutated) {
            Ok(true) => completed += 1,
            Ok(false) => rejected += 1,
            Err(msg) => panics.push(format!("byte {at} ^ {mask:#04x}: {msg}")),
        }
    }
    assert!(panics.is_empty(), "{panics:#?}");
    assert!(
        rejected > 0 && completed > 0,
        "sweep saw both outcomes: {rejected} rejected, {completed} completed"
    );
    (rejected, completed)
}

/// One in `FLIP_THINNING` of the offsets of the full sweep (XOR `0xFF`
/// from byte 0, `0x01` from byte 13, `0x80` from byte 29, each every
/// 1 499th byte), which keeps the test under ten seconds unoptimized.
/// The first offset that, before `NucaL2::restore` checked its maps
/// against the bank tag arrays, resumed cleanly and then panicked in
/// `Bank::touch` is a known case below.
const FLIP_THINNING: usize = 25;

#[test]
fn flipped_bytes_yield_typed_errors_or_completed_runs_never_panics() {
    let image = valid_snapshot();
    let flips = [(0, 0xFFu8), (13, 0x01), (29, 0x80)]
        .into_iter()
        .flat_map(|(first, mask)| {
            (first..image.len())
                .step_by(1499 * FLIP_THINNING)
                .map(move |at| (at, mask))
        });
    assert_flips_never_panic(&image, flips);
    // Known offsets that once resumed cleanly and panicked mid-run: a
    // location map disagreeing with the bank tags, and a directory entry
    // shared by CPU 42 of 8 (it indexed `Engine::seats`).
    for (at, mask) in [(112_422, 0xFF), (1_098_902, 0x04)] {
        let mut known = image.clone();
        known[at] ^= mask;
        assert!(
            matches!(
                SystemBuilder::resume_from(&known, None),
                Err(SnapshotError::Codec(nim_types::codec::CodecError::Corrupt(
                    _
                )))
            ),
            "byte {at}"
        );
    }
    // A `WriteAck` cookie turned into kind 70 is in flight, not in a
    // checked structure: the image resumes and the run ends at delivery.
    let mut known = image.clone();
    known[1_194_023] ^= 0x40;
    let mut resumed = SystemBuilder::resume_from(&known, None).expect("resumes");
    assert!(matches!(
        resumed.finish(),
        Err(RunError::CorruptToken { token, .. }) if token >> 56 == 70
    ));
    // A v1 header on an otherwise valid image is refused, not misparsed.
    let mut v1 = image;
    v1[8] = 1;
    let unsupported = nim_types::codec::CodecError::UnsupportedVersion {
        found: 1,
        supported: 2,
    };
    match SystemBuilder::resume_from(&v1, None) {
        Err(SnapshotError::Codec(e)) => assert_eq!(e, unsupported),
        other => panic!("a v1 image must be refused, got {other:?}"),
    }
}

/// The dense sweep the one above thins: `^0x04` and `^0x40` into every
/// 997th byte of the image, 2 416 images. Restoring re-derives state the
/// image does not carry (every core's wake cycle among it), and only a
/// sweep this fine reaches most of the fields that feed it. Seconds in
/// release, minutes unoptimized: CI's snapshot job runs it with
/// `cargo test --release -p nim-core --test snapshot_equivalence -- --ignored`.
#[test]
#[ignore = "dense: run in release with --ignored"]
fn dense_flip_sweep_yields_typed_errors_or_completed_runs_never_panics() {
    let image = valid_snapshot();
    let flips = (0..image.len())
        .step_by(997)
        .flat_map(|at| [(at, 0x04u8), (at, 0x40)]);
    let (rejected, completed) = assert_flips_never_panic(&image, flips);
    eprintln!("dense flip sweep: {rejected} rejected, {completed} completed, 0 panicked");
}
