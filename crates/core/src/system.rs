//! The integrated cycle-accurate simulation loop.
//!
//! A [`System`] is a thin driver over three explicit layers: the
//! protocol engine ([`protocol`](crate::protocol) — every L2 transition
//! plus the scheme's [`Policy`](crate::policy::Policy) row bound at
//! build time), the typed transaction table
//! ([`txn`](crate::txn)), and the simulation fabric
//! ([`fabric`](crate::fabric) — the 3D NoC, the timed-event queue, and
//! the contention models of [`timing`](crate::timing)). The driver owns
//! the clock: it advances everything in lock-step one cycle at a time,
//! feeds due events and delivered packets to the engine, and ticks the
//! cores. Assembly lives in [`SystemBuilder`].
//!
//! [`SystemBuilder`]: crate::SystemBuilder

use nim_cpu::{CoreAction, InOrderCore};
use nim_noc::Network;
use nim_obs::Obs;
use nim_topology::{ChipLayout, CpuSeat};
use nim_types::{ClusterId, CpuId, SystemConfig};
use nim_workload::{BenchmarkProfile, TraceGenerator, TraceSource};

use crate::builder::Recipe;
use crate::error::RunError;
use crate::fabric::SimFabric;
use crate::protocol::Engine;
use crate::report::{Counters, RunReport};
use crate::scheme::Scheme;
use crate::snapshot::profile_by_name;

/// Cycles without a completed transaction before declaring a stall.
const WATCHDOG_CYCLES: u64 = 2_000_000;

/// Reused buffers for the per-epoch observability snapshot: the column
/// names are formatted once per run and the value/occupancy vectors are
/// recycled, so steady-state sampling allocates nothing per epoch.
#[derive(Clone, Debug, Default)]
pub(crate) struct SampleBuf {
    /// Column names, laid out as: one per pillar, one per cluster, then
    /// the fixed counter names. Empty until the first sample.
    names: Vec<String>,
    /// Values aligned with `names`, rewritten every epoch.
    values: Vec<f64>,
    /// Scratch for [`Network::bus_occupancies_into`].
    occ: Vec<usize>,
}

/// The fixed (non-indexed) columns of the epoch sample, appended after
/// the per-pillar and per-cluster occupancy columns.
const SAMPLE_COUNTERS: [&str; 10] = [
    "l2/hits",
    "l2/misses",
    "migrations",
    "net/packets_delivered",
    "net/flit_hops",
    "phase/noc_hop",
    "phase/pillar_wait",
    "phase/resource_queue",
    "phase/l2_service",
    "phase/mem_wait",
];

/// A run in flight: hoisted out of the driver loop's locals so a run can
/// pause and continue exactly where it left off.
#[derive(Clone, Debug)]
pub(crate) struct RunProgress {
    /// Benchmark name the eventual [`RunReport`] carries (a snapshot
    /// records it with the recipe).
    pub(crate) benchmark: String,
    /// Why replaying the recipe would not reach this run's state, so no
    /// snapshot may name a point of it; `None` when it would.
    pub(crate) unreplayable: Option<&'static str>,
    /// What the driver loop carries from one cycle to the next.
    carried: LoopCarried,
}

/// The driver loop's carried bookkeeping.
#[derive(Clone, Copy, Debug)]
struct LoopCarried {
    /// Whether the warm-up target has been passed.
    warmed: bool,
    /// Counter/cycle/instruction baselines at the start of the
    /// measurement window (`None` until warmed).
    window_start: Option<(Counters, u64, u64)>,
    /// Cycle of the last completed transaction (watchdog anchor).
    last_progress: u64,
    /// Transaction count at `last_progress`.
    last_count: u64,
}

/// Where a driven run pauses.
#[derive(Clone, Copy, Debug)]
pub(crate) enum Pause {
    /// Nowhere: the run goes on to its sampling target.
    Never,
    /// At the first cycle with at least this many completed transactions.
    After(u64),
    /// At this cycle (a snapshot's replay).
    At(u64),
}

/// The assembled chip multiprocessor.
#[derive(Debug)]
pub struct System {
    /// What this system was built from, with the configuration as built
    /// (2D schemes flattened); a snapshot records it so
    /// [`SystemBuilder::resume`](crate::SystemBuilder::resume) can
    /// rebuild an identical system and replay the run on it.
    pub(crate) recipe: Recipe,
    /// The protocol engine: chip state + every L2 transition.
    pub(crate) engine: Engine,
    /// The simulation substrate: NoC, event queue, contention models.
    pub(crate) fabric: SimFabric,
    /// Reused epoch-sampling buffers (names formatted once per run).
    pub(crate) sample_buf: SampleBuf,
    pub(crate) obs: Obs,
    /// The paused/running state of an in-flight run (`None` between
    /// runs). [`System::snapshot`](crate::System::snapshot) requires it.
    pub(crate) progress: Option<RunProgress>,
    /// Whether a run has begun on this system. A later run starts from
    /// what the first left behind, which replaying the recipe on a
    /// fresh system does not reproduce.
    pub(crate) used: bool,
}

impl System {
    /// The scheme being simulated.
    pub fn scheme(&self) -> Scheme {
        self.recipe.scheme
    }

    /// The effective configuration (2D schemes are flattened).
    pub fn config(&self) -> &SystemConfig {
        &self.recipe.cfg
    }

    /// The chip geometry.
    pub fn layout(&self) -> &ChipLayout {
        &self.engine.layout
    }

    /// Where the CPUs ended up.
    pub fn seats(&self) -> &[CpuSeat] {
        &self.engine.seats
    }

    /// Accesses each bank performed so far, indexed like
    /// [`ChipLayout::node_index`] — the activity profile that drives
    /// per-bank power for thermal analysis (the paper's closing
    /// discussion points at exactly this coupling).
    pub fn bank_access_counts(&self) -> &[u64] {
        &self.fabric.shared.bank_accesses
    }

    /// The on-chip network, for utilisation and congestion analysis.
    pub fn network(&self) -> &Network {
        &self.fabric.net
    }

    /// The observability handle attached at build time (disabled by
    /// default) — export its trace or metrics after a run.
    pub fn obs(&self) -> &Obs {
        &self.obs
    }

    /// Runs the benchmark until the sampling target is reached and
    /// returns the measurements.
    ///
    /// # Errors
    ///
    /// Returns [`RunError::Stalled`] if the system makes no forward
    /// progress (a protocol bug — should never happen).
    pub fn run(&mut self, profile: &BenchmarkProfile) -> Result<RunReport, RunError> {
        let mut gen = self.begin(profile);
        self.finish_run(&mut gen)
    }

    /// Starts a run of `profile` without driving it: pre-warms the L2
    /// (if configured), arms the run bookkeeping, and returns the
    /// deterministic reference generator. Drive the run with
    /// [`System::run_until`] — the split exists so a caller can pause
    /// anywhere and [`System::snapshot`](crate::System) the point
    /// reached.
    pub fn begin(&mut self, profile: &BenchmarkProfile) -> TraceGenerator {
        let unreplayable = if self.used {
            Some("a run had already begun on this system")
        } else if profile_by_name(profile.name).ok() != Some(*profile) {
            Some("its benchmark profile is not the named profile it is called after")
        } else {
            None
        };
        if self.recipe.prewarm && self.engine.l2.occupancy() == 0 {
            self.engine.prewarm(profile);
        }
        self.begin_run(profile.name, unreplayable);
        TraceGenerator::new(profile, self.recipe.cfg.num_cpus, self.recipe.seed)
    }

    /// Drives a begun run to the first cycle at which at least
    /// `stop_after` transactions have completed, or to completion,
    /// whichever comes first. Returns `Some(report)` when the run
    /// finished, and `None` when it paused.
    ///
    /// # Errors
    ///
    /// Returns [`RunError::Stalled`] exactly like [`System::run`].
    ///
    /// # Panics
    ///
    /// Panics if no run is in progress (call [`System::begin`] first,
    /// or resume from a snapshot).
    pub fn run_until(
        &mut self,
        source: &mut dyn TraceSource,
        stop_after: u64,
    ) -> Result<Option<RunReport>, RunError> {
        self.advance(source, Pause::After(stop_after))
    }

    /// Drives the run in progress to its sampling target and reports it.
    pub(crate) fn finish_run(
        &mut self,
        source: &mut dyn TraceSource,
    ) -> Result<RunReport, RunError> {
        let report = self.advance(source, Pause::Never)?;
        Ok(report.expect("with no pause requested the loop ends only at the sampling target"))
    }

    /// Arms the run bookkeeping for a fresh run; `unreplayable` says why
    /// no snapshot may name a point of it, if one may not.
    fn begin_run(&mut self, benchmark: &str, unreplayable: Option<&'static str>) {
        self.used = true;
        let warmed = self.recipe.warmup == 0;
        let window_start = if warmed {
            Some((
                self.engine.counters,
                self.fabric.net.now().0,
                self.total_instructions(),
            ))
        } else {
            None
        };
        self.progress = Some(RunProgress {
            benchmark: benchmark.to_string(),
            unreplayable,
            carried: LoopCarried {
                warmed,
                window_start,
                last_progress: self.fabric.net.now().0,
                last_count: self.engine.counters.l2_transactions,
            },
        });
    }

    /// Builds the report for a completed run and clears the run state.
    fn finish_report(&mut self) -> RunReport {
        let p = self.progress.take().expect("run in progress");
        let (start_counters, start_cycle, start_instr) =
            p.carried.window_start.expect("sampling window started");
        let mut bus = Vec::new();
        self.fabric.net.bus_stats_into(&mut bus);
        self.publish_obs_metrics(&bus);
        RunReport {
            scheme: self.recipe.scheme,
            benchmark: p.benchmark,
            cycles: self.fabric.net.now().0 - start_cycle,
            instructions: self.total_instructions() - start_instr,
            num_cpus: self.recipe.cfg.num_cpus,
            counters: self.engine.counters.minus(&start_counters),
            network: self.fabric.net.stats().clone(),
            bus_transfers: bus.iter().map(|b| b.transfers).sum(),
            bus_contention_cycles: bus.iter().map(|b| b.contention_cycles).sum(),
        }
    }

    /// Runs the simulation from an arbitrary reference source — a
    /// [`TraceGenerator`], a recorded
    /// [`ReplayTrace`](nim_workload::ReplayTrace), or a test stub. The
    /// caller is responsible for any pre-warming when replaying (use
    /// [`SystemBuilder::prewarm`](crate::SystemBuilder::prewarm) + [`System::run`] for the synthetic
    /// path).
    ///
    /// # Errors
    ///
    /// Returns [`RunError::Stalled`] if no transaction completes for an
    /// implausibly long time — including the case where the source runs
    /// dry before the sampling target is reached.
    pub fn run_with_source(
        &mut self,
        benchmark: &str,
        source: &mut dyn TraceSource,
    ) -> Result<RunReport, RunError> {
        self.begin_run(benchmark, Some("it was begun by run_with_source"));
        self.finish_run(source)
    }

    /// The driver loop. Advances the simulation until the sampling
    /// target is reached (returns the report and ends the run), or until
    /// `pause` (returns `Ok(None)`, the run still in progress). A stalled
    /// run is over: it leaves no run in progress. The loop-carried
    /// bookkeeping lives in [`RunProgress`], so a paused run continues
    /// bit-identically.
    pub(crate) fn advance(
        &mut self,
        source: &mut dyn TraceSource,
        pause: Pause,
    ) -> Result<Option<RunReport>, RunError> {
        let target = self.recipe.warmup.saturating_add(self.recipe.sample);
        let LoopCarried {
            mut warmed,
            mut window_start,
            mut last_progress,
            mut last_count,
        } = self.progress.as_ref().expect("run in progress").carried;
        // Network deliveries of the current cycle, reused across cycles.
        let mut delivered: Vec<nim_noc::Delivered> = Vec::new();
        let result = loop {
            if self.engine.counters.l2_transactions >= target {
                break Ok(true);
            }
            let paused = match pause {
                Pause::Never => false,
                Pause::After(stop) => self.engine.counters.l2_transactions >= stop,
                Pause::At(cycle) => self.fabric.net.now().0 >= cycle,
            };
            if paused {
                break Ok(false);
            }
            // A dried-up trace (every core halted) with nothing in flight
            // can never make progress; report it without spinning the
            // watchdog out.
            if self.fabric.net.is_idle()
                && self.fabric.shared.events.is_empty()
                && self.fabric.modeled.is_empty()
                && self.engine.txns.is_empty()
                && self.engine.cores.iter().all(InOrderCore::is_halted)
            {
                break Err(RunError::Stalled {
                    cycle: self.fabric.net.now().0,
                    completed: self.engine.counters.l2_transactions,
                });
            }
            if self.fabric.net.now().0 - last_progress > WATCHDOG_CYCLES {
                break Err(RunError::Stalled {
                    cycle: self.fabric.net.now().0,
                    completed: self.engine.counters.l2_transactions,
                });
            }
            self.fabric.net.tick();
            let now = self.fabric.net.now();
            if self.obs.sample_due(now.0) {
                self.record_obs_sample(now.0);
            }
            // Timed events due this cycle.
            while let Some(ev) = self.fabric.shared.events.pop_due(now.0) {
                self.engine.handle_event(&mut self.fabric, ev, now);
            }
            // Network deliveries (flit-level fabric) and modeled
            // deliveries (the ideal fabric) — at most one stream is
            // ever populated for a given run.
            if self.fabric.net.has_deliveries() {
                self.fabric.net.drain_delivered_into(&mut delivered);
                for d in delivered.drain(..) {
                    self.engine.handle_delivered(&mut self.fabric, d, now);
                }
            }
            while let Some(d) = self.fabric.modeled.pop_due(now.0) {
                self.engine.handle_delivered(&mut self.fabric, d, now);
            }
            // Cores: only those due this cycle are ticked; the others
            // are waiting, counting down, or halted (see `cores.rs`).
            for i in 0..self.engine.cores.len() {
                if !self.engine.cores.is_due(i, now.0) {
                    continue;
                }
                let cpu = CpuId::from_index(i);
                let next_op = &mut || source.next_for(cpu);
                if let CoreAction::Request(req) = self.engine.cores.tick(i, now.0, next_op) {
                    self.engine.handle_request(&mut self.fabric, req, now);
                }
            }
            if self.engine.counters.l2_transactions != last_count {
                last_count = self.engine.counters.l2_transactions;
                last_progress = now.0;
            }
            if !warmed && self.engine.counters.l2_transactions >= self.recipe.warmup {
                warmed = true;
                self.engine.cores.settle(now.0);
                window_start = Some((self.engine.counters, now.0, self.total_instructions()));
            }
        };
        // Reports, digests and `stats()` read the counters as if every
        // core had ticked every cycle.
        self.engine.cores.settle(self.fabric.net.now().0);
        self.progress.as_mut().expect("run in progress").carried = LoopCarried {
            warmed,
            window_start,
            last_progress,
            last_count,
        };
        match result {
            Ok(true) => Ok(Some(self.finish_report())),
            Ok(false) => Ok(None),
            Err(e) => {
                self.progress = None;
                Err(e)
            }
        }
    }

    pub(crate) fn total_instructions(&self) -> u64 {
        self.engine
            .cores
            .iter()
            .map(|c| c.stats().instructions)
            .sum()
    }

    /// Snapshots the live state the epoch sampler tracks: per-pillar bus
    /// occupancy, per-cluster L2 occupancy, and the headline cumulative
    /// counters. Called only when [`Obs::sample_due`] fires. The column
    /// names are formatted once on the first epoch; afterwards every
    /// snapshot reuses [`SampleBuf`]'s vectors and allocates nothing.
    fn record_obs_sample(&mut self, now: u64) {
        self.fabric
            .net
            .bus_occupancies_into(&mut self.sample_buf.occ);
        let SampleBuf { names, values, occ } = &mut self.sample_buf;
        if names.is_empty() {
            for i in 0..occ.len() {
                names.push(format!("pillar/{i}/occupancy"));
            }
            for cl in 0..self.engine.layout.num_clusters() {
                names.push(format!("cluster/{cl}/occupancy"));
            }
            names.extend(SAMPLE_COUNTERS.iter().map(|n| (*n).to_string()));
        }
        values.clear();
        values.extend(occ.iter().map(|&o| o as f64));
        for cl in 0..self.engine.layout.num_clusters() {
            values.push(self.engine.l2.cluster_occupancy(ClusterId(cl)) as f64);
        }
        let net = self.fabric.net.stats();
        values.push(self.engine.counters.l2_hits as f64);
        values.push(self.engine.counters.l2_misses as f64);
        values.push(self.engine.counters.migrations as f64);
        values.push(net.packets_delivered as f64);
        values.push(net.flit_hops as f64);
        // Cumulative phase buckets: they move only when a transaction
        // completes.
        values.extend(self.engine.counters.phase_cycles().map(|c| c as f64));
        self.obs
            .record_sample_cols(now, &self.sample_buf.names, &self.sample_buf.values);
    }

    /// Publishes end-of-run totals into the metrics registry: the
    /// per-router traversal map (the link-utilization heatmap source),
    /// per-pillar bus statistics (passed in by the caller, which already
    /// collected them for the [`RunReport`]), L2 and transaction
    /// counters, and the packet latency distribution. Formatted metric
    /// names share one reused `String` buffer.
    fn publish_obs_metrics(&self, bus: &[nim_noc::BusStats]) {
        if !self.obs.is_enabled() {
            return;
        }
        use std::fmt::Write as _;
        let mut name = String::new();
        for (i, &n) in self.fabric.net.traversals().iter().enumerate() {
            let c = self.engine.layout.coord_of_index(i);
            name.clear();
            let _ = write!(name, "noc/traversals/{}/{}/{}", c.x, c.y, c.layer);
            self.obs.counter_set(&name, n);
        }
        for (i, b) in bus.iter().enumerate() {
            name.clear();
            let _ = write!(name, "pillar/{i}/transfers");
            self.obs.counter_set(&name, b.transfers);
            name.clear();
            let _ = write!(name, "pillar/{i}/busy_cycles");
            self.obs.counter_set(&name, b.busy_cycles);
            name.clear();
            let _ = write!(name, "pillar/{i}/contention_cycles");
            self.obs.counter_set(&name, b.contention_cycles);
            name.clear();
            let _ = write!(name, "pillar/{i}/peak_queued");
            self.obs.counter_set(&name, b.peak_queued);
        }
        let net = self.fabric.net.stats();
        self.obs.counter_set("net/packets_sent", net.packets_sent);
        self.obs
            .counter_set("net/packets_delivered", net.packets_delivered);
        self.obs.counter_set("net/flit_hops", net.flit_hops);
        self.obs
            .counter_set("net/switch_contention", net.switch_contention);
        self.obs.counter_set("net/bus_transfers", net.bus_transfers);
        self.obs
            .histogram_set("net/latency_cycles", net.latency_histogram.clone());
        let l2 = self.engine.l2.stats();
        self.obs.counter_set("l2/insertions", l2.insertions);
        self.obs.counter_set("l2/evictions", l2.evictions);
        self.obs.counter_set("l2/migrations", l2.migrations);
        self.obs
            .counter_set("l2/migrations_aborted", l2.migrations_aborted);
        self.obs
            .counter_set("l2/replicas_created", l2.replicas_created);
        self.obs
            .counter_set("l2/replicas_dropped", l2.replicas_dropped);
        let c = &self.engine.counters;
        self.obs
            .counter_set("sys/l2_transactions", c.l2_transactions);
        self.obs.counter_set("sys/l2_hits", c.l2_hits);
        self.obs.counter_set("sys/l2_misses", c.l2_misses);
        self.obs.counter_set("sys/tag_accesses", c.tag_accesses);
        self.obs.counter_set("sys/bank_accesses", c.bank_accesses);
        self.obs.counter_set("sys/invalidations", c.invalidations);
        self.obs.counter_set("sys/search_retries", c.search_retries);
        self.obs.counter_set("sys/migrations", c.migrations);
        for (phase, cycles) in crate::txn::Phase::ALL.iter().zip(c.phase_cycles()) {
            name.clear();
            let _ = write!(name, "phase/{}", phase.name());
            self.obs.counter_set(&name, cycles);
        }
        self.obs
            .gauge_set("sim/cycles_per_sec", self.obs.cycles_per_sec());
    }
}
