//! One measured run of one workload: set-up timing, the timed run
//! section repeated for the requested seconds, and the correctness
//! checks. This is what `BENCHMARK.json`'s command executes with
//! `--trace 0`; the traced counterpart is in [`crate::traced`].

use std::time::Instant;

use network_in_memory::core::experiments::{run_cells_raw, ExperimentScale, SweepSpec};
use network_in_memory::core::parallel::set_jobs_override;
use network_in_memory::core::{RunReport, Scheme, System, SystemBuilder};
use network_in_memory::noc::WindowStats;
use network_in_memory::workload::{BenchmarkProfile, TraceGenerator};

use crate::alloc;
use crate::json::Value;
use crate::spans::SpanLog;
use crate::spec::{CellSpec, Kind, Workload, QUICK_DIVISOR, RUN_CHUNKS, WARMUP};
use crate::stats::median;

/// Arguments of one run.
#[derive(Clone, Copy, Debug)]
pub struct Ctx {
    pub seed: u64,
    /// How long the run section is repeated for.
    pub seconds: f64,
    /// Smoke mode: transaction counts ÷ 20, set-up timed 3 times.
    pub quick: bool,
    pub nproc: usize,
}

impl Ctx {
    pub fn scaled(&self, txns: u64) -> u64 {
        if self.quick {
            (txns / QUICK_DIVISOR).max(1)
        } else {
            txns
        }
    }

    /// Times set-up is repeated (the metric is the median).
    pub fn setup_reps(&self, full: usize) -> usize {
        if self.quick {
            3
        } else {
            full
        }
    }
}

/// Operations attempted and failed; an operation is one cell run (or
/// one self-check of a standalone driver).
#[derive(Debug, Default)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
    pub failures: Vec<String>,
}

impl Tally {
    pub fn fail(&mut self, why: String) {
        self.failed += 1;
        eprintln!("nimbench: FAILED: {why}");
        self.failures.push(why);
    }

    /// Counts one operation and fails it unless `ok`.
    pub fn check(&mut self, ok: bool, why: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.fail(why());
        }
    }
}

/// A measured value with its unit.
pub type Metric = (String, f64, &'static str);

/// What a run hands back: the contract's metrics, and everything else
/// the `all` driver wants (repetition walls, fingerprints, simulated
/// end-to-end figures, workload-specific per-layer extras, spans).
pub struct Outcome {
    pub tally: Tally,
    pub metrics: Vec<Metric>,
    pub detail: Value,
}

pub fn fp_hex(fp: u64) -> String {
    format!("{fp:016x}")
}

// ---------------------------------------------------------------------------
// Single cells
// ---------------------------------------------------------------------------

pub fn cell_profile() -> BenchmarkProfile {
    BenchmarkProfile::swim()
}

/// The builder of a cell workload. Every knob the environment could
/// default differently is set explicitly.
pub fn cell_builder(spec: &CellSpec, ctx: &Ctx) -> SystemBuilder {
    SystemBuilder::new(Scheme::CmpDnuca3d)
        .seed(ctx.seed)
        .warmup_transactions(WARMUP)
        .sampled_transactions(ctx.scaled(spec.txns))
        .fabric(spec.fabric)
        .shards(if spec.sharded { ctx.nproc } else { 1 })
        .prewarm(spec.prewarm)
        .edge_memory_controllers(spec.edge_memory)
        .horizon_skipping(true)
}

/// Build and begin (prewarm) times of `reps` back-to-back set-ups.
pub fn time_setup(
    builder: &SystemBuilder,
    profile: &BenchmarkProfile,
    reps: usize,
) -> Result<(Vec<f64>, Vec<f64>), String> {
    let (mut build, mut begin) = (Vec::new(), Vec::new());
    for _ in 0..reps {
        let t0 = Instant::now();
        let mut sys = builder.clone().build().map_err(|e| format!("build: {e}"))?;
        let t1 = Instant::now();
        let gen = sys.begin(profile);
        let t2 = Instant::now();
        std::hint::black_box((&sys, &gen));
        build.push((t1 - t0).as_secs_f64());
        begin.push((t2 - t1).as_secs_f64());
    }
    Ok((build, begin))
}

/// One finished cell run: the report and what the run section cost.
pub struct CellRun {
    pub report: RunReport,
    /// Wall time of the run section alone (build and begin excluded).
    pub wall_s: f64,
    /// Allocations and bytes requested during the run section.
    pub allocs: (u64, u64),
    pub window: WindowStats,
    pub spawn_min: u64,
    /// Final network clock (warm-up included).
    pub clock: u64,
}

impl CellRun {
    pub fn txns(&self) -> u64 {
        self.report.counters.l2_transactions
    }
}

/// Drives a begun run to completion — in one call, or, with a span log,
/// as `RUN_CHUNKS` child spans of `run_until(k × total / RUN_CHUNKS)`.
/// With observability off `run_until` stops on the transaction count
/// alone, so both ways produce the same report.
fn drive(
    sys: &mut System,
    gen: &mut TraceGenerator,
    total: u64,
    log: Option<&mut SpanLog>,
) -> Result<RunReport, String> {
    let stalled = |e| format!("run: {e}");
    let report = match log {
        None => sys.run_until(gen, u64::MAX).map_err(stalled)?,
        Some(log) => {
            let mut report = None;
            for k in 1..=RUN_CHUNKS {
                let stop = if k == RUN_CHUNKS {
                    u64::MAX
                } else {
                    total * k / RUN_CHUNKS
                };
                let (step, _) = log.scope("run_until", "nim-core", |_| sys.run_until(gen, stop));
                report = step.map_err(stalled)?;
                if report.is_some() {
                    break;
                }
            }
            report
        }
    };
    report.ok_or_else(|| "run_until returned without finishing".to_string())
}

/// Builds, begins and runs one cell of `sample` sampled transactions
/// (what `builder` was given), timing the run section. With a span log,
/// `build`, `begin` and `run` are recorded as spans and the run section
/// is chunked.
pub fn run_cell(
    builder: &SystemBuilder,
    sample: u64,
    profile: &BenchmarkProfile,
    mut log: Option<&mut SpanLog>,
) -> Result<CellRun, String> {
    let total = WARMUP + sample;
    let build = || builder.clone().build().map_err(|e| format!("build: {e}"));
    let mut sys = match log.as_deref_mut() {
        Some(log) => log.scope("build", "nim-core", |_| build()).0?,
        None => build()?,
    };
    let mut gen = match log.as_deref_mut() {
        Some(log) => log.scope("begin", "nim-core", |_| sys.begin(profile)).0,
        None => sys.begin(profile),
    };
    let before = alloc::totals();
    let start = Instant::now();
    let report = match log {
        Some(log) => {
            log.scope("run", "nim-core", |log| {
                drive(&mut sys, &mut gen, total, Some(log))
            })
            .0?
        }
        None => drive(&mut sys, &mut gen, total, None)?,
    };
    let wall_s = start.elapsed().as_secs_f64();
    let after = alloc::totals();
    Ok(CellRun {
        report,
        wall_s,
        allocs: (after.0 - before.0, after.1 - before.1),
        window: sys.network().window_stats(),
        spawn_min: sys.network().window_spawn_min(),
        clock: sys.network().now().0,
    })
}

fn measure_cell(w: &Workload, spec: &CellSpec, ctx: &Ctx) -> Outcome {
    let mut tally = Tally::default();
    let builder = cell_builder(spec, ctx);
    let sample = ctx.scaled(spec.txns);
    let profile = cell_profile();

    let setup = match time_setup(&builder, &profile, ctx.setup_reps(51)) {
        Ok((build, begin)) => build.iter().zip(&begin).map(|(a, b)| a + b).collect(),
        Err(e) => {
            tally.check(false, || e);
            Vec::new()
        }
    };

    // The run section, repeated until the requested seconds are used.
    let mut runs: Vec<CellRun> = Vec::new();
    let start = Instant::now();
    while tally.failed == 0 {
        match run_cell(&builder, sample, &profile, None) {
            Ok(run) => {
                tally.attempted += 1;
                runs.push(run);
            }
            Err(e) => tally.check(false, || e),
        }
        if start.elapsed().as_secs_f64() >= ctx.seconds {
            break;
        }
    }

    // Every repetition must reproduce the first, in results and — on a
    // single thread — in allocator traffic.
    if let Some((first, rest)) = runs.split_first() {
        let fp = first.report.fingerprint();
        for (i, run) in rest.iter().enumerate() {
            if run.report.fingerprint() != fp {
                tally.fail(format!(
                    "{}: repetition {} fingerprint {} differs from the first {}",
                    w.name,
                    i + 1,
                    fp_hex(run.report.fingerprint()),
                    fp_hex(fp)
                ));
            } else if !spec.sharded && run.allocs != first.allocs {
                tally.fail(format!(
                    "{}: repetition {} allocated {:?}, the first {:?}",
                    w.name,
                    i + 1,
                    run.allocs,
                    first.allocs
                ));
            }
        }
        // A sharded run must agree with the sequential engine.
        if spec.sharded {
            match run_cell(&builder.clone().shards(1), sample, &profile, None) {
                Ok(seq) => tally.check(seq.report.fingerprint() == fp, || {
                    format!(
                        "{}: sharded fingerprint {} differs from sequential {}",
                        w.name,
                        fp_hex(fp),
                        fp_hex(seq.report.fingerprint())
                    )
                }),
                Err(e) => tally.check(false, || e),
            }
        }
    }

    let cycles_per_s: Vec<f64> = runs
        .iter()
        .map(|r| r.report.cycles as f64 / r.wall_s)
        .collect();
    let txns_per_s: Vec<f64> = runs.iter().map(|r| r.txns() as f64 / r.wall_s).collect();
    let walls: Vec<f64> = runs.iter().map(|r| r.wall_s).collect();
    let detail = Value::obj()
        .with("run_wall_s", &walls[..])
        .with("setup_samples_s", &setup[..])
        .with(
            "fingerprint",
            runs.first()
                .map_or(Value::Null, |r| fp_hex(r.report.fingerprint()).into()),
        )
        .with("txns_per_run", runs.first().map_or(0, CellRun::txns))
        .with(
            "cycles_per_run",
            runs.first().map_or(0, |r| r.report.cycles),
        );
    Outcome {
        tally,
        metrics: end_to_end_metrics(&setup, &cycles_per_s, &txns_per_s),
        detail,
    }
}

fn end_to_end_metrics(setup: &[f64], cycles_per_s: &[f64], txns_per_s: &[f64]) -> Vec<Metric> {
    vec![
        ("setup_s".into(), median(setup), "s"),
        ("sim_cycles_per_s".into(), median(cycles_per_s), "cycles/s"),
        ("txns_per_s".into(), median(txns_per_s), "txn/s"),
        (
            "peak_rss_mb".into(),
            crate::host::peak_rss_mb().unwrap_or(0.0),
            "MB",
        ),
    ]
}

// ---------------------------------------------------------------------------
// The Figure-13/15 sweep
// ---------------------------------------------------------------------------

pub struct Sweep {
    pub benchmarks: Vec<BenchmarkProfile>,
    pub specs: Vec<SweepSpec>,
    pub scale: ExperimentScale,
}

impl Sweep {
    pub fn new(sample: u64, ctx: &Ctx) -> Sweep {
        let benchmarks = BenchmarkProfile::all();
        let specs = (0..benchmarks.len())
            .flat_map(|bi| Scheme::ALL.iter().map(move |&s| SweepSpec::new(s, bi)))
            .collect();
        Sweep {
            benchmarks,
            specs,
            scale: ExperimentScale {
                seed: ctx.seed,
                warmup: WARMUP,
                sample: ctx.scaled(sample),
            },
        }
    }

    /// The builder `run_cells` uses for a cell of this grid (the grid
    /// overrides neither layers, pillars nor L2 scale). The traced pass
    /// checks its fingerprints against `run_cells`' own.
    pub fn builder(&self, spec: &SweepSpec) -> SystemBuilder {
        SystemBuilder::new(spec.scheme)
            .seed(self.scale.seed)
            .warmup_transactions(self.scale.warmup)
            .sampled_transactions(self.scale.sample)
    }

    pub fn profile(&self, spec: &SweepSpec) -> &BenchmarkProfile {
        &self.benchmarks[spec.benchmark]
    }

    /// One pass over `specs` through `run_cells_raw` on `jobs` workers.
    /// Failed cells are counted into `tally`; returns the reports (only
    /// when every cell succeeded) and the wall time.
    pub fn pass(
        &self,
        specs: &[SweepSpec],
        jobs: usize,
        tally: &mut Tally,
    ) -> (Option<Vec<RunReport>>, f64) {
        set_jobs_override(Some(jobs));
        let start = Instant::now();
        let results = run_cells_raw(&self.benchmarks, self.scale, specs);
        let wall = start.elapsed().as_secs_f64();
        set_jobs_override(None);
        let mut reports = Vec::new();
        for (spec, result) in specs.iter().zip(results) {
            match result {
                Ok(r) => {
                    tally.attempted += 1;
                    reports.push(r);
                }
                Err(e) => tally.check(false, || {
                    format!(
                        "sweep cell {} {}: {e}",
                        self.profile(spec).name,
                        spec.scheme.label()
                    )
                }),
            }
        }
        let complete = reports.len() == specs.len();
        (complete.then_some(reports), wall)
    }

    /// The cells of one benchmark row, chosen by the seed. An untraced
    /// run re-runs this row alone on one worker as the sequential
    /// reference for the parallel pass (the whole grid at jobs = 1 costs
    /// two passes' time; the traced run makes that full comparison).
    pub fn reference_row(&self) -> std::ops::Range<usize> {
        let schemes = Scheme::ALL.len();
        let row = (self.scale.seed % self.benchmarks.len() as u64) as usize;
        row * schemes..(row + 1) * schemes
    }

    /// Sum of build + begin over the grid, each spec set up once.
    pub fn setup_once(&self) -> Result<(f64, f64), String> {
        let (mut build, mut begin) = (0.0, 0.0);
        for spec in &self.specs {
            let (b, p) = time_setup(&self.builder(spec), self.profile(spec), 1)?;
            build += b[0];
            begin += p[0];
        }
        Ok((build, begin))
    }
}

/// Fails one operation per cell whose fingerprint differs between two
/// passes over the same grid.
pub fn same_fingerprints(what: &str, a: &[RunReport], b: &[RunReport], tally: &mut Tally) {
    for (x, y) in a.iter().zip(b) {
        if x.fingerprint() != y.fingerprint() {
            tally.fail(format!(
                "{what}: {} {} fingerprint {} vs {}",
                x.benchmark,
                x.scheme.label(),
                fp_hex(x.fingerprint()),
                fp_hex(y.fingerprint())
            ));
        }
    }
}

/// The paper's Figure-13 deltas (cycles) and Figure-15 peak IPC gains
/// over CMP-DNUCA-2D (%), which the simulated results are scored against.
const PAPER_SNUCA3D_VS_DNUCA2D_CY: f64 = -10.0;
const PAPER_DNUCA3D_VS_SNUCA3D_CY: f64 = -7.0;
const PAPER_PEAK_GAIN_DNUCA3D_PCT: f64 = 37.1;
const PAPER_PEAK_GAIN_SNUCA3D_PCT: f64 = 18.0;

/// Simulated fidelity figures of one pass, in `Scheme::ALL` order per
/// benchmark. They repeat exactly for a fixed seed.
pub fn paper_fidelity(reports: &[RunReport]) -> Vec<Metric> {
    let n = Scheme::ALL.len();
    let col = |rows: &[RunReport], scheme: Scheme| {
        rows.iter()
            .find(|r| r.scheme == scheme)
            .expect("every scheme in every row")
            .clone()
    };
    let (mut violations, mut d_snuca, mut d_dnuca) = (0u64, 0.0, 0.0);
    let (mut peak_dnuca3d, mut peak_snuca3d) = (f64::NEG_INFINITY, f64::NEG_INFINITY);
    let rows = reports.chunks(n);
    let count = rows.len() as f64;
    for row in rows {
        let d2 = col(row, Scheme::CmpDnuca2d);
        let s3 = col(row, Scheme::CmpSnuca3d);
        let d3 = col(row, Scheme::CmpDnuca3d);
        let (l2d, ls3, ld3) = (
            d2.avg_l2_hit_latency(),
            s3.avg_l2_hit_latency(),
            d3.avg_l2_hit_latency(),
        );
        violations += u64::from(!(l2d > ls3 && ls3 > ld3));
        d_snuca += ls3 - l2d;
        d_dnuca += ld3 - ls3;
        peak_dnuca3d = peak_dnuca3d.max((d3.ipc() / d2.ipc() - 1.0) * 100.0);
        peak_snuca3d = peak_snuca3d.max((s3.ipc() / d2.ipc() - 1.0) * 100.0);
    }
    let delta_err = ((d_snuca / count - PAPER_SNUCA3D_VS_DNUCA2D_CY).abs()
        + (d_dnuca / count - PAPER_DNUCA3D_VS_SNUCA3D_CY).abs())
        / 2.0;
    let gain_err = ((peak_dnuca3d - PAPER_PEAK_GAIN_DNUCA3D_PCT).abs()
        + (peak_snuca3d - PAPER_PEAK_GAIN_SNUCA3D_PCT).abs())
        / 2.0;
    vec![
        ("fig13_order_violations".into(), violations as f64, "count"),
        ("fig13_delta_err_cy".into(), delta_err, "cy"),
        ("fig15_gain_err_pp".into(), gain_err, "pp"),
    ]
}

fn measure_sweep(sample: u64, ctx: &Ctx) -> Outcome {
    let mut tally = Tally::default();
    let sweep = Sweep::new(sample, ctx);

    let mut setup = Vec::new();
    for _ in 0..ctx.setup_reps(9) {
        match sweep.setup_once() {
            Ok((build, begin)) => setup.push(build + begin),
            Err(e) => tally.check(false, || e),
        }
    }

    // Passes on every core until the requested seconds are used.
    let mut passes: Vec<(Vec<RunReport>, f64)> = Vec::new();
    let start = Instant::now();
    while tally.failed == 0 {
        if let (Some(reports), wall) = sweep.pass(&sweep.specs, ctx.nproc, &mut tally) {
            passes.push((reports, wall));
        }
        if start.elapsed().as_secs_f64() >= ctx.seconds {
            break;
        }
    }

    let mut detail = Value::obj();
    if let Some(((first, _), rest)) = passes.split_first() {
        for (reports, _) in rest {
            same_fingerprints("sweep repetition", first, reports, &mut tally);
        }
        // The parallel harness must agree with the sequential one.
        let row = sweep.reference_row();
        if let (Some(seq), _) = sweep.pass(&sweep.specs[row.clone()], 1, &mut tally) {
            same_fingerprints("sweep jobs=nproc vs jobs=1", &first[row], &seq, &mut tally);
        }
        let mut sim = Value::obj();
        for (name, value, _) in paper_fidelity(first) {
            sim.set(&name, value);
        }
        let mut h = 0u64;
        for r in first {
            h = h.rotate_left(7) ^ r.fingerprint();
        }
        detail.set("sim", sim);
        detail.set("fingerprint", fp_hex(h));
    }
    let work = |f: fn(&RunReport) -> u64| -> Vec<f64> {
        passes
            .iter()
            .map(|(reports, wall)| reports.iter().map(f).sum::<u64>() as f64 / wall)
            .collect()
    };
    let cycles_per_s = work(|r| r.cycles);
    let txns_per_s = work(|r| r.counters.l2_transactions);
    let walls: Vec<f64> = passes.iter().map(|p| p.1).collect();
    detail.set("run_wall_s", &walls[..]);
    detail.set("setup_samples_s", &setup[..]);
    detail.set("jobs", ctx.nproc);
    Outcome {
        tally,
        metrics: end_to_end_metrics(&setup, &cycles_per_s, &txns_per_s),
        detail,
    }
}

/// Runs `w` with tracing off and returns every end-to-end metric.
pub fn measure(w: &Workload, ctx: &Ctx) -> Outcome {
    match &w.kind {
        Kind::Cell(spec) => measure_cell(w, spec, ctx),
        Kind::Sweep { sample } => measure_sweep(*sample, ctx),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::WORKLOADS;

    fn tiny() -> Ctx {
        Ctx {
            seed: 7,
            seconds: 0.0,
            quick: true,
            nproc: 2,
        }
    }

    fn cell(name: &str) -> (CellSpec, SystemBuilder, u64) {
        let Kind::Cell(spec) = crate::spec::workload(name).expect("workload").kind else {
            panic!("{name} is not a cell");
        };
        // Smaller still than --quick: these are debug-build unit tests.
        let spec = CellSpec {
            txns: 8_000,
            ..spec
        };
        let ctx = tiny();
        (spec, cell_builder(&spec, &ctx), ctx.scaled(spec.txns))
    }

    #[test]
    fn chunked_run_reproduces_the_unchunked_one() {
        let (_, builder, sample) = cell("cell_sim");
        let profile = cell_profile();
        let plain = run_cell(&builder, sample, &profile, None).unwrap();
        let mut log = SpanLog::new();
        let chunked = run_cell(&builder, sample, &profile, Some(&mut log)).unwrap();
        assert_eq!(plain.report.fingerprint(), chunked.report.fingerprint());
        assert!(plain.txns() >= sample);
        let chunks = log.spans().iter().filter(|s| s.name == "run_until").count();
        assert_eq!(chunks as u64, RUN_CHUNKS);
        let run = log
            .spans()
            .iter()
            .position(|s| s.name == "run")
            .expect("run span");
        assert!(log
            .spans()
            .iter()
            .filter(|s| s.name == "run_until")
            .all(|s| s.parent == Some(run)));
    }

    #[test]
    fn quick_cells_measure_without_failures() {
        for name in ["cell_ideal", "cell_sharded"] {
            let (spec, ..) = cell(name);
            let w = Workload {
                kind: Kind::Cell(spec),
                ..*crate::spec::workload(name).unwrap()
            };
            let out = measure(&w, &tiny());
            assert_eq!(out.tally.failed, 0, "{:?}", out.tally.failures);
            assert!(out.tally.attempted >= 1);
            let names: Vec<&str> = out.metrics.iter().map(|m| m.0.as_str()).collect();
            assert_eq!(
                names,
                crate::spec::END_TO_END
                    .iter()
                    .map(|m| m.name)
                    .collect::<Vec<_>>()
            );
            assert!(out.metrics.iter().all(|m| m.1 > 0.0), "{:?}", out.metrics);
        }
    }

    #[test]
    fn paper_fidelity_scores_a_synthetic_grid() {
        // One benchmark; latencies 60 > 50 > 43 and equal IPCs.
        let sweep = Sweep::new(400, &tiny());
        let mut tally = Tally::default();
        let reports: Vec<RunReport> = sweep.specs[..4]
            .iter()
            .map(|s| {
                run_cell(
                    &sweep.builder(s).sampled_transactions(400),
                    400,
                    sweep.profile(s),
                    None,
                )
                .unwrap()
                .report
            })
            .collect();
        let m = paper_fidelity(&reports);
        assert_eq!(m.len(), 3);
        assert_eq!(m[0].0, "fig13_order_violations");
        assert!(m[0].1 <= 1.0 && m[1].1.is_finite() && m[2].1.is_finite());
        same_fingerprints("self", &reports, &reports, &mut tally);
        assert_eq!(tally.failed, 0);
        let mut other = reports.clone();
        other[2].cycles += 1;
        same_fingerprints("perturbed", &reports, &other, &mut tally);
        assert_eq!(tally.failed, 1);
        assert_eq!(WORKLOADS.len(), 5);
    }
}
