//! The sweep cell and its runner — what every exhibit of the paper's
//! evaluation (§5.2) is made of.
//!
//! A [`SweepSpec`] is the one description of a cell: a scheme, a
//! benchmark and optional configuration overrides; [`run_cells`] runs a
//! list of them across the worker threads. The exhibits — each a grid
//! of cells — are data in [`crate::exhibits`]; [`table3_thermal`] is
//! here because it is a thermal solve, not a grid of cells.
//!
//! The paper samples 2 G cycles per run; [`ExperimentScale`] scales the
//! sample down — ample for steady-state latency statistics of a memory
//! system this size, and the Fig. 14 metric is normalised so absolute
//! volume cancels.

use core::error::Error;
use core::fmt;

use nim_thermal::{ThermalConfig, ThermalModel};
use nim_topology::{ChipLayout, Floorplan, PlacementPolicy};
use nim_types::SystemConfig;
use nim_workload::BenchmarkProfile;

use crate::builder::SystemBuilder;
use crate::error::{BuildError, RunError};
use crate::fabric::FabricKind;
use crate::parallel::par_map;
use crate::report::RunReport;
use crate::scheme::Scheme;

/// Error from an experiment driver.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ExperimentError {
    /// A system failed to build.
    Build(BuildError),
    /// A run failed.
    Run(RunError),
}

impl fmt::Display for ExperimentError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ExperimentError::Build(e) => write!(f, "build: {e}"),
            ExperimentError::Run(e) => write!(f, "run: {e}"),
        }
    }
}

impl Error for ExperimentError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            ExperimentError::Build(e) => Some(e),
            ExperimentError::Run(e) => Some(e),
        }
    }
}

impl From<BuildError> for ExperimentError {
    fn from(e: BuildError) -> Self {
        ExperimentError::Build(e)
    }
}

impl From<RunError> for ExperimentError {
    fn from(e: RunError) -> Self {
        ExperimentError::Run(e)
    }
}

/// How much to sample per run.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ExperimentScale {
    /// Workload seed.
    pub seed: u64,
    /// Transactions completed before measurement.
    pub warmup: u64,
    /// Transactions measured.
    pub sample: u64,
}

impl Default for ExperimentScale {
    /// The scale used by the shipped EXPERIMENTS.md numbers.
    fn default() -> Self {
        Self {
            seed: 42,
            warmup: 2_000,
            sample: 20_000,
        }
    }
}

// ---------------------------------------------------------------------------
// The parallel sweep cell — every exhibit fans out through this.
// ---------------------------------------------------------------------------

/// One independent simulation cell of a sweep: a scheme, a benchmark, and
/// optional configuration overrides (`None` keeps the builder's default).
/// Cells are `Copy` descriptions — the system itself is built (and
/// dropped) inside the worker that claims the cell, so nothing crosses
/// threads but the spec and its [`RunReport`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SweepSpec {
    /// Scheme to simulate.
    pub scheme: Scheme,
    /// Index into the benchmark slice handed to [`run_cells`].
    pub benchmark: usize,
    /// Device-layer override (3D schemes only).
    pub layers: Option<u8>,
    /// Vertical-pillar-count override.
    pub pillars: Option<u16>,
    /// Power-of-two L2 capacity scale override (Fig. 16).
    pub l2_scale: Option<u32>,
    /// CPU-count override.
    pub cpus: Option<u32>,
    /// Interconnect-substrate override.
    pub fabric: Option<FabricKind>,
}

impl SweepSpec {
    /// A cell with the paper's default configuration.
    pub fn new(scheme: Scheme, benchmark: usize) -> Self {
        Self {
            scheme,
            benchmark,
            layers: None,
            pillars: None,
            l2_scale: None,
            cpus: None,
            fabric: None,
        }
    }

    /// Overrides the device-layer count.
    pub fn layers(mut self, layers: u8) -> Self {
        self.layers = Some(layers);
        self
    }

    /// Overrides the pillar count.
    pub fn pillars(mut self, pillars: u16) -> Self {
        self.pillars = Some(pillars);
        self
    }

    /// Overrides the L2 capacity scale factor.
    pub fn l2_scale(mut self, factor: u32) -> Self {
        self.l2_scale = Some(factor);
        self
    }

    /// The builder for this cell's system — the one place a cell's
    /// overrides are applied.
    pub fn builder(&self, scale: ExperimentScale) -> SystemBuilder {
        let mut b = SystemBuilder::new(self.scheme)
            .seed(scale.seed)
            .warmup_transactions(scale.warmup)
            .sampled_transactions(scale.sample);
        if let Some(l) = self.layers {
            b = b.layers(l);
        }
        if let Some(p) = self.pillars {
            b = b.pillars(p);
        }
        if let Some(f) = self.l2_scale {
            b = b.l2_scale(f);
        }
        if let Some(n) = self.cpus {
            b = b.cpus(n);
        }
        if let Some(k) = self.fabric {
            b = b.fabric(k);
        }
        b
    }

    fn run(
        &self,
        benchmarks: &[BenchmarkProfile],
        scale: ExperimentScale,
    ) -> Result<RunReport, ExperimentError> {
        let mut system = self.builder(scale).build()?;
        Ok(system.run(&benchmarks[self.benchmark])?)
    }
}

/// One cell per simulation `requested` needs, in first-seen order, for
/// the caller's notion of `same`: equal specs here; in
/// [`run_exhibits`](crate::exhibits::run_exhibits), specs that build the
/// same recipe for the same benchmark (`.pillars(8)`, `.layers(2)`,
/// `.l2_scale(1)` and the default all do).
pub(crate) fn distinct(
    requested: &[SweepSpec],
    same: impl Fn(&SweepSpec, &SweepSpec) -> bool,
) -> Vec<SweepSpec> {
    let mut cells: Vec<SweepSpec> = Vec::new();
    for spec in requested {
        if !cells.iter().any(|cell| same(cell, spec)) {
            cells.push(*spec);
        }
    }
    cells
}

/// Runs every cell across `crate::parallel::configured_jobs` worker
/// threads and returns the per-cell outcomes **in cell order** — the
/// ordering (and, because each cell is a seeded, self-contained
/// simulation, every value) is bit-identical to running the cells
/// sequentially, for any thread count.
///
/// Cells with *equal* specs are one seeded simulation: each distinct
/// spec runs once and its duplicates receive a clone of the outcome.
pub fn run_cells_raw(
    benchmarks: &[BenchmarkProfile],
    scale: ExperimentScale,
    specs: &[SweepSpec],
) -> Vec<Result<RunReport, ExperimentError>> {
    let cells = distinct(specs, |a, b| a == b);
    let outcomes = par_map(&cells, |_, cell| cell.run(benchmarks, scale));
    let outcome = |spec| {
        let twin = cells.iter().position(|cell| cell == spec);
        outcomes[twin.expect("every spec has a distinct twin")].clone()
    };
    specs.iter().map(outcome).collect()
}

/// Like [`run_cells_raw`], but fails with the first (in cell order)
/// error — the same error a sequential runner would have stopped at.
///
/// # Errors
///
/// Returns the first cell's [`ExperimentError`] in cell order.
pub fn run_cells(
    benchmarks: &[BenchmarkProfile],
    scale: ExperimentScale,
    specs: &[SweepSpec],
) -> Result<Vec<RunReport>, ExperimentError> {
    run_cells_raw(benchmarks, scale, specs)
        .into_iter()
        .collect()
}

// ---------------------------------------------------------------------------
// Table 3 — thermal profile of the placement configurations.
// ---------------------------------------------------------------------------

/// One row of Table 3.
#[derive(Clone, Debug)]
pub struct Table3Row {
    /// Configuration label (as in the paper).
    pub config: &'static str,
    /// Peak temperature, °C.
    pub peak_c: f64,
    /// Average temperature, °C.
    pub(crate) avg_c: f64,
    /// Minimum temperature, °C.
    pub(crate) min_c: f64,
}

/// Table 3: temperature profile of the seven placement configurations
/// (8 × 8 W CPUs among 256 clock-gated banks).
///
/// The `k = 1` / `k = 2` rows share pillars (4 pillars, Algorithm 1);
/// the "optimal offset" rows give every CPU its own pillar and offset in
/// all three dimensions; the "stacking" rows align CPUs vertically.
///
/// # Errors
///
/// Returns [`ExperimentError::Build`] if a configuration cannot be
/// placed (cannot happen for the shipped rows).
pub fn table3_thermal() -> Result<Vec<Table3Row>, ExperimentError> {
    let rows: [(&'static str, u8, u16, PlacementPolicy); 7] = [
        ("2D, maximal offset", 1, 8, PlacementPolicy::Interior2d),
        (
            "3D-2L, optimal offset",
            2,
            8,
            PlacementPolicy::MaximalOffset,
        ),
        (
            "3D-2L, offset k=2",
            2,
            4,
            PlacementPolicy::Algorithm1 { k: 2 },
        ),
        (
            "3D-2L, offset k=1",
            2,
            4,
            PlacementPolicy::Algorithm1 { k: 1 },
        ),
        ("3D-2L, CPU stacking", 2, 8, PlacementPolicy::Stacked),
        (
            "3D-4L, optimal offset",
            4,
            8,
            PlacementPolicy::MaximalOffset,
        ),
        ("3D-4L, CPU stacking", 4, 8, PlacementPolicy::Stacked),
    ];
    let tcfg = ThermalConfig::default();
    par_map(&rows, |_, &(label, layers, pillars, policy)| {
        let cfg = SystemConfig::default()
            .with_layers(layers)
            .with_pillars(pillars);
        let layout = ChipLayout::new(&cfg).map_err(BuildError::from)?;
        let seats = policy
            .place(&layout, cfg.num_cpus)
            .map_err(BuildError::from)?;
        let plan = Floorplan::new(&layout, &seats);
        let profile = ThermalModel::new(&plan, &tcfg).solve(&tcfg);
        Ok(Table3Row {
            config: label,
            peak_c: profile.peak(),
            avg_c: profile.avg(),
            min_c: profile.min(),
        })
    })
    .into_iter()
    .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn raw_cells_report_bad_builds() {
        let benchmarks = [BenchmarkProfile::art()];
        let scale = ExperimentScale {
            seed: 42,
            warmup: 50,
            sample: 400,
        };
        let mk = |layers, fabric| SweepSpec {
            layers: Some(layers),
            fabric: Some(fabric),
            ..SweepSpec::new(Scheme::CmpDnuca3d, 0)
        };
        let specs = [
            mk(2, FabricKind::Sim),
            mk(16, FabricKind::Sim), // rejected by config validation
            mk(4, FabricKind::Sim),
            mk(4, FabricKind::Ideal),
        ];
        let cells = run_cells_raw(&benchmarks, scale, &specs);
        assert_eq!(cells.len(), specs.len());
        assert!(
            matches!(cells[1], Err(ExperimentError::Build(_))),
            "unbuildable topology is a typed error: {:?}",
            cells[1]
        );
        let fingerprint = |i: usize| {
            let report = cells[i]
                .as_ref()
                .expect("neighbours of a bad cell complete");
            assert_eq!(report.counters.l2_transactions, 400, "cell {i}");
            report.fingerprint()
        };
        assert_ne!(fingerprint(0), fingerprint(2), "the layer override applies");
        assert_ne!(
            fingerprint(2),
            fingerprint(3),
            "the fabric override applies"
        );
    }

    #[test]
    fn table3_reproduces_the_paper_ordering() {
        let rows = table3_thermal().expect("all configurations place");
        for r in &rows {
            eprintln!(
                "{:26} peak {:7.2}  avg {:6.2}  min {:6.2}",
                r.config, r.peak_c, r.avg_c, r.min_c
            );
        }
        let by = |label: &str| {
            rows.iter()
                .find(|r| r.config == label)
                .unwrap_or_else(|| panic!("{label} missing"))
        };
        let d2 = by("2D, maximal offset");
        let opt2 = by("3D-2L, optimal offset");
        let k2 = by("3D-2L, offset k=2");
        let k1 = by("3D-2L, offset k=1");
        let st2 = by("3D-2L, CPU stacking");
        let opt4 = by("3D-4L, optimal offset");
        let st4 = by("3D-4L, CPU stacking");
        // Peak ordering (Table 3).
        assert!(d2.peak_c < opt2.peak_c, "3D runs hotter than 2D");
        assert!(
            opt2.peak_c <= k2.peak_c,
            "shared pillars no cooler than optimal"
        );
        assert!(k2.peak_c <= k1.peak_c, "larger offset reduces the peak");
        assert!(k1.peak_c < st2.peak_c, "stacking creates hotspots");
        assert!(opt4.peak_c < st4.peak_c, "stacking is worst at 4 layers");
        assert!(opt2.peak_c < opt4.peak_c, "more layers run hotter");
        // Average depends only on layer count (same power, same footprint).
        assert!((opt2.avg_c - st2.avg_c).abs() < 1.0);
        assert!(d2.avg_c < opt2.avg_c && opt2.avg_c < opt4.avg_c);
        // Minimum below average below peak, everywhere.
        for r in &rows {
            assert!(r.min_c < r.avg_c && r.avg_c < r.peak_c, "{}", r.config);
        }
    }
}
