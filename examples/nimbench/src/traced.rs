//! The traced run of one workload (`--trace 1`): spans around every
//! call into a layer, the simulated counts of the workload's own run,
//! the standalone drivers of [`crate::layers`], and — reported beside
//! the contract's per-layer metrics — the in-system differentials that
//! only make sense on one workload (share of the NoC in `cell_sim`,
//! what horizon skipping buys, what observability costs, …).
//!
//! End-to-end numbers are never taken here; the untraced run of the
//! same workload inside this process exists only to put a number on
//! what the spans cost (`trace.overhead_ratio`).

use network_in_memory::core::experiments::SweepSpec;
use network_in_memory::core::{FabricKind, RunReport, Scheme, SystemBuilder};
use network_in_memory::obs::{Obs, ObsConfig};

use crate::json::Value;
use crate::layers;
use crate::run::{
    cell_builder, cell_profile, fp_hex, paper_fidelity, run_cell, same_fingerprints, time_setup,
    CellRun, Ctx, Metric, Outcome, Sweep, Tally,
};
use crate::spans::SpanLog;
use crate::spec::{CellSpec, Kind, Workload, PER_LAYER, WARMUP};
use crate::stats::median;

/// Seconds each standalone driver runs (`--quick`: a tenth).
const STANDALONE_SECS: f64 = 0.5;

/// In-system differentials run at this fraction of the workload's
/// transaction count, A/B-interleaved, this many times each.
const DIFF_DIVISOR: u64 = 3;
const DIFF_REPS: usize = 3;

/// Simulated totals of one or more reports — a single cell, or the
/// sweep's 36 — from which the `*.sim_*` and `phase.*` metrics derive.
#[derive(Default)]
struct SimTotals {
    cycles: u64,
    instructions: u64,
    cpu_cycles: u64,
    txns: u64,
    hits: u64,
    misses: u64,
    hit_latency: u64,
    migrations: u64,
    evictions: u64,
    invalidations: u64,
    phase: [u64; 5],
    flit_hops: u64,
    packets: u64,
    delivered: u64,
    packet_latency: u64,
    bus_transfers: u64,
    bus_contention: u64,
    switch_contention: u64,
}

fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

impl SimTotals {
    fn add(&mut self, r: &RunReport) {
        let c = &r.counters;
        self.cycles += r.cycles;
        self.instructions += r.instructions;
        self.cpu_cycles += r.cycles * u64::from(r.num_cpus);
        self.txns += c.l2_transactions;
        self.hits += c.l2_hits;
        self.misses += c.l2_misses;
        self.hit_latency += c.hit_latency_sum;
        self.migrations += c.migrations;
        self.evictions += c.l2_evictions;
        self.invalidations += c.invalidations;
        for (sum, v) in self.phase.iter_mut().zip(c.phase_cycles()) {
            *sum += v;
        }
        self.flit_hops += r.network.flit_hops;
        self.packets += r.network.packets_sent;
        self.delivered += r.network.packets_delivered;
        self.packet_latency += r.network.total_latency;
        self.bus_transfers += r.bus_transfers;
        self.bus_contention += r.bus_contention_cycles;
        self.switch_contention += r.network.switch_contention;
    }

    fn metrics(&self) -> Vec<(&'static str, f64)> {
        let per_txn = |i: usize| ratio(self.phase[i], self.txns);
        vec![
            ("noc.sim_flit_hops", self.flit_hops as f64),
            ("noc.sim_packets", self.packets as f64),
            ("noc.sim_bus_transfers", self.bus_transfers as f64),
            ("noc.sim_bus_contention_cycles", self.bus_contention as f64),
            ("noc.sim_switch_contention", self.switch_contention as f64),
            (
                "noc.sim_avg_packet_latency_cy",
                ratio(self.packet_latency, self.delivered),
            ),
            ("cpu.sim_ipc", ratio(self.instructions, self.cpu_cycles)),
            (
                "cache.sim_l2_hit_latency_cy",
                ratio(self.hit_latency, self.hits),
            ),
            (
                "cache.sim_miss_ratio",
                ratio(self.misses, self.hits + self.misses),
            ),
            ("cache.sim_migrations", self.migrations as f64),
            ("cache.sim_evictions", self.evictions as f64),
            ("coherence.sim_invalidations", self.invalidations as f64),
            ("phase.noc_hop_cy_per_txn", per_txn(0)),
            ("phase.pillar_wait_cy_per_txn", per_txn(1)),
            ("phase.resource_queue_cy_per_txn", per_txn(2)),
            ("phase.l2_service_cy_per_txn", per_txn(3)),
            ("phase.mem_wait_cy_per_txn", per_txn(4)),
        ]
    }
}

/// Window-executor counters summed over the systems a workload ran.
#[derive(Default)]
struct WindowTotals {
    windows: u64,
    cycles: u64,
    spawned: u64,
    inline: u64,
    spawn_min: u64,
    clock: u64,
}

impl WindowTotals {
    fn add(&mut self, run: &CellRun) {
        self.windows += run.window.windows;
        self.cycles += run.window.cycles;
        self.spawned += run.window.spawned;
        self.inline += run.window.inline;
        self.spawn_min = self.spawn_min.max(run.spawn_min);
        self.clock += run.clock;
    }

    fn metrics(&self) -> Vec<(&'static str, f64)> {
        vec![
            ("window.cycle_share", ratio(self.cycles, self.clock)),
            ("window.windows", self.windows as f64),
            ("window.spawned", self.spawned as f64),
            ("window.inline", self.inline as f64),
            ("window.spawn_min", self.spawn_min as f64),
        ]
    }
}

/// Everything a traced run collects before it is laid out as metrics.
struct Collected {
    tally: Tally,
    log: SpanLog,
    values: Vec<(&'static str, f64)>,
    /// Workload-specific per-layer numbers outside the contract's list.
    extras: Value,
}

impl Collected {
    fn put(&mut self, name: &'static str, value: f64) {
        self.values.push((name, value));
    }

    fn extra(&mut self, name: &str, value: f64, unit: &str) {
        self.extras
            .set(name, Value::obj().with("value", value).with("unit", unit));
    }
}

/// Wall times of `variants` (each a fresh builder per run, because an
/// observability handle accumulates state), interleaved `DIFF_REPS`
/// times so a slow stretch of the host falls on all of them alike.
/// Returns each variant's median wall and its last run.
fn interleaved(
    variants: &[(&str, &dyn Fn() -> SystemBuilder)],
    sample: u64,
    c: &mut Collected,
) -> Vec<Option<(f64, CellRun)>> {
    let profile = cell_profile();
    let mut walls: Vec<Vec<f64>> = vec![Vec::new(); variants.len()];
    let mut last: Vec<Option<CellRun>> = variants.iter().map(|_| None).collect();
    for _ in 0..DIFF_REPS {
        for (i, (name, make)) in variants.iter().enumerate() {
            let builder = make().sampled_transactions(sample);
            let (run, _) = c
                .log
                .scope(&format!("differential {name}"), "nim-core", |_| {
                    run_cell(&builder, sample, &profile, None)
                });
            match run {
                Ok(run) => {
                    c.tally.attempted += 1;
                    walls[i].push(run.wall_s);
                    last[i] = Some(run);
                }
                Err(e) => c.tally.check(false, || format!("differential {name}: {e}")),
            }
        }
    }
    walls
        .iter()
        .zip(last)
        .map(|(w, run)| run.map(|run| (median(w), run)))
        .collect()
}

fn sampling_obs() -> Obs {
    Obs::new(ObsConfig {
        sample_every: 1_000,
        ..ObsConfig::default()
    })
}

fn tracing_obs() -> Obs {
    Obs::new(ObsConfig {
        trace: true,
        ..ObsConfig::default()
    })
}

/// The differentials each cell workload carries, as extras.
fn cell_differentials(w: &Workload, spec: &CellSpec, ctx: &Ctx, c: &mut Collected) {
    let base = cell_builder(spec, ctx);
    let sample = (ctx.scaled(spec.txns) / DIFF_DIVISOR).max(1);
    let default = || base.clone();
    let noskip = || base.clone().horizon_skipping(false);
    let ideal = || base.clone().fabric(FabricKind::Ideal);
    let sampling = || base.clone().observability(sampling_obs());
    let tracing = || base.clone().observability(tracing_obs());
    let variants: Vec<(&str, &dyn Fn() -> SystemBuilder)> = match w.name {
        "cell_sim" => vec![
            ("default", &default),
            ("noskip", &noskip),
            ("ideal", &ideal),
            ("sampling", &sampling),
            ("tracing", &tracing),
        ],
        "cell_ideal" | "cell_cold" => vec![("default", &default), ("noskip", &noskip)],
        _ => return,
    };
    let results = interleaved(&variants, sample, c);
    let Some((default_wall, default_run)) = &results[0] else {
        return;
    };
    let fp = default_run.report.fingerprint();
    for ((name, _), result) in variants.iter().zip(&results).skip(1) {
        let Some((wall, run)) = result else { continue };
        match *name {
            "noskip" => {
                c.extra(
                    &format!("horizon.skip_speedup.{}", w.name),
                    wall / default_wall,
                    "ratio",
                );
                c.tally.check(run.report.fingerprint() == fp, || {
                    format!("{}: naive loop fingerprint differs from skipping", w.name)
                });
            }
            "ideal" => {
                c.extra("noc.insystem_share", 1.0 - wall / default_wall, "ratio");
                c.extra(
                    "noc.insystem_ns_per_flit_hop",
                    (default_wall - wall) * 1e9
                        / default_run.report.network.flit_hops.max(1) as f64,
                    "ns",
                );
            }
            "sampling" => c.extra("obs.sampling_overhead_ratio", wall / default_wall, "ratio"),
            "tracing" => c.extra("obs.trace_overhead_ratio", wall / default_wall, "ratio"),
            _ => {}
        }
    }
}

/// Snapshot at the warm-up boundary, resume from the image, finish the
/// resumed run: sizes, times, and the resumed fingerprint against the
/// uninterrupted one.
fn snapshot_round_trip(builder: &SystemBuilder, fp: u64, c: &mut Collected) {
    let profile = cell_profile();
    let mut attempt = || -> Result<(f64, f64, usize, u64), String> {
        let mut sys = builder.clone().build().map_err(|e| format!("build: {e}"))?;
        let mut gen = sys.begin(&profile);
        if sys
            .run_until(&mut gen, WARMUP)
            .map_err(|e| format!("run: {e}"))?
            .is_some()
        {
            return Err("the run finished before its warm-up boundary".into());
        }
        let (image, snap) = c
            .log
            .scope("snapshot", "nim-core::snapshot", |_| sys.snapshot(&gen));
        let image = image.map_err(|e| format!("snapshot: {e}"))?;
        let (resumed, res) = c.log.scope("resume", "nim-core::snapshot", |_| {
            SystemBuilder::resume_from(&image, Some(1))
        });
        let mut resumed = resumed.map_err(|e| format!("resume: {e}"))?;
        let (report, _) = c.log.scope("finish", "nim-core", |_| resumed.finish());
        let report = report.map_err(|e| format!("resumed run: {e}"))?;
        Ok((
            c.log.span(snap).seconds(),
            c.log.span(res).seconds(),
            image.len(),
            report.fingerprint(),
        ))
    };
    match attempt() {
        Ok((write_s, resume_s, bytes, resumed_fp)) => {
            c.extra("snapshot.write_s", write_s, "s");
            c.extra("snapshot.resume_s", resume_s, "s");
            c.extra("snapshot.bytes", bytes as f64, "B");
            c.tally.check(resumed_fp == fp, || {
                format!(
                    "resumed fingerprint {} differs from uninterrupted {}",
                    fp_hex(resumed_fp),
                    fp_hex(fp)
                )
            });
        }
        Err(e) => c.tally.check(false, || e),
    }
}

fn trace_cell(w: &Workload, spec: &CellSpec, ctx: &Ctx, c: &mut Collected) {
    let builder = cell_builder(spec, ctx);
    let sample = ctx.scaled(spec.txns);
    let profile = cell_profile();

    match time_setup(&builder, &profile, ctx.setup_reps(15)) {
        Ok((build, begin)) => {
            c.put("core.build_s", median(&build));
            c.put("core.prewarm_s", median(&begin));
        }
        Err(e) => c.tally.check(false, || e),
    }

    // Untraced and traced runs, alternating; the faster of each side is
    // what the spans are charged against.
    let (mut plain, mut traced): (Vec<CellRun>, Vec<CellRun>) = (Vec::new(), Vec::new());
    for _ in 0..2 {
        for with_spans in [false, true] {
            let log = with_spans.then_some(&mut c.log);
            match run_cell(&builder, sample, &profile, log) {
                Ok(run) => {
                    c.tally.attempted += 1;
                    let side = if with_spans { &mut traced } else { &mut plain };
                    side.push(run);
                }
                Err(e) => c.tally.check(false, || e),
            }
        }
    }
    let (Some(first), Some(chunked)) = (plain.first(), traced.first()) else {
        return;
    };
    let fp = first.report.fingerprint();
    c.tally.check(chunked.report.fingerprint() == fp, || {
        format!(
            "{}: chunked fingerprint {} differs from unchunked {}",
            w.name,
            fp_hex(chunked.report.fingerprint()),
            fp_hex(fp)
        )
    });
    let fastest = |runs: &[CellRun]| runs.iter().map(|r| r.wall_s).fold(f64::INFINITY, f64::min);
    c.put("trace.overhead_ratio", fastest(&traced) / fastest(&plain));

    let mut sim = SimTotals::default();
    sim.add(&first.report);
    c.values.extend(sim.metrics());
    let mut window = WindowTotals::default();
    window.add(first);
    c.values.extend(window.metrics());
    let ktxn = first.txns() as f64 / 1e3;
    c.put("alloc.count_per_ktxn", first.allocs.0 as f64 / ktxn);
    c.put("alloc.bytes_per_ktxn", first.allocs.1 as f64 / ktxn);
    c.extras.set("fingerprint", fp_hex(fp));

    // Each workload must stress what it was chosen for.
    let r = &first.report;
    match w.name {
        "cell_ideal" => {
            c.tally.check(r.network.flit_hops == 0, || {
                format!("cell_ideal simulated {} flit hops", r.network.flit_hops)
            });
            c.extra(
                "core.non_noc_ns_per_txn",
                fastest(&plain) * 1e9 / first.txns() as f64,
                "ns",
            );
        }
        "cell_cold" => c.tally.check(
            r.l2_miss_rate() > 0.2 && r.counters.mem_wait_cycles > 0,
            || {
                format!(
                    "cell_cold misses only {:.3} of its accesses",
                    r.l2_miss_rate()
                )
            },
        ),
        _ => {}
    }
    if w.name == "cell_sim" {
        snapshot_round_trip(&builder, fp, c);
    }
    cell_differentials(w, spec, ctx, c);
}

/// Fork comparisons made (each: 4 forked cells against 4 cold ones).
const FORK_REPS: usize = 2;

/// Four identical specs forked from one warm-up image against four cold
/// runs of the same spec, at jobs = 1 so only the shared warm-up counts.
fn fork_speedup(sweep: &Sweep, c: &mut Collected) {
    let swim = sweep
        .benchmarks
        .iter()
        .position(|b| b.name == "swim")
        .unwrap_or(0);
    let dup = [SweepSpec::new(Scheme::CmpDnuca3d, swim); 4];
    let (mut forked, mut cold) = (Vec::new(), Vec::new());
    for _ in 0..FORK_REPS {
        let (f, wall) = c
            .log
            .scope("run_cells 4 forked", "nim-core::experiments", |_| {
                sweep.pass(&dup, 1, &mut c.tally)
            })
            .0;
        forked.push(wall);
        let (singles, id) = c
            .log
            .scope("run_cells 4 cold", "nim-core::experiments", |_| {
                let mut singles = Vec::new();
                for spec in &dup {
                    singles.extend(
                        sweep
                            .pass(std::slice::from_ref(spec), 1, &mut c.tally)
                            .0
                            .into_iter()
                            .flatten(),
                    );
                }
                singles
            });
        cold.push(c.log.span(id).seconds());
        if let Some(f) = f {
            same_fingerprints("warm-up fork vs cold", &f, &singles, &mut c.tally);
        }
    }
    c.extra(
        "experiments.fork_speedup",
        median(&cold) / median(&forked),
        "ratio",
    );
}

fn trace_sweep(sample: u64, ctx: &Ctx, c: &mut Collected) {
    let sweep = Sweep::new(sample, ctx);

    // Traced: every cell built and run by the benchmark itself, one span
    // per cell, on this thread — also the sequential reference.
    let mut own = Vec::new();
    let mut cell_s = Vec::new();
    let (mut build_s, mut prewarm_s) = (0.0, 0.0);
    let mut window = WindowTotals::default();
    let mut allocs = (0u64, 0u64);
    c.log.scope("sweep cells", "nimbench", |log| {
        for spec in &sweep.specs {
            let name = format!("cell {} {}", sweep.profile(spec).name, spec.scheme.label());
            let first_child = log.spans().len() + 1;
            let (run, id) = log.scope(&name, "nim-core", |log| {
                run_cell(
                    &sweep.builder(spec),
                    sweep.scale.sample,
                    sweep.profile(spec),
                    Some(log),
                )
            });
            match run {
                Ok(run) => {
                    c.tally.attempted += 1;
                    cell_s.push(log.span(id).seconds());
                    // `run_cell` opens build, begin, run — in that order.
                    build_s += log.span(first_child).seconds();
                    prewarm_s += log.span(first_child + 1).seconds();
                    window.add(&run);
                    allocs.0 += run.allocs.0;
                    allocs.1 += run.allocs.1;
                    own.push(run.report);
                }
                Err(e) => c.tally.check(false, || format!("{name}: {e}")),
            }
        }
    });
    if own.len() != sweep.specs.len() {
        return;
    }
    let cells_s: f64 = cell_s.iter().sum();

    // Untraced: the grid through the harness on every core.
    let (par, wall_n) = c
        .log
        .scope("run_cells jobs=nproc", "nim-core::parallel", |_| {
            sweep.pass(&sweep.specs, ctx.nproc, &mut c.tally)
        })
        .0;
    if let Some(par) = par {
        same_fingerprints("sweep jobs=nproc vs jobs=1", &own, &par, &mut c.tally);
    }
    // What the spans cost, on one row of the grid: the harness on one
    // worker against the benchmark's own traced cells, twice each,
    // alternating; the faster of each side counts.
    let row = sweep.reference_row();
    let (mut row_plain, mut row_traced) = (f64::INFINITY, cell_s[row.clone()].iter().sum::<f64>());
    for again in [false, true] {
        let (_, wall) = c
            .log
            .scope("run_cells one row jobs=1", "nim-core::experiments", |_| {
                sweep.pass(&sweep.specs[row.clone()], 1, &mut c.tally)
            })
            .0;
        row_plain = row_plain.min(wall);
        if again {
            let (_, id) = c.log.scope("one row traced again", "nimbench", |log| {
                for spec in &sweep.specs[row.clone()] {
                    let run = run_cell(
                        &sweep.builder(spec),
                        sweep.scale.sample,
                        sweep.profile(spec),
                        Some(log),
                    );
                    c.tally
                        .check(run.is_ok(), || "traced row cell failed".into());
                }
            });
            row_traced = row_traced.min(c.log.span(id).seconds());
        }
    }

    let mut sim = SimTotals::default();
    for r in &own {
        sim.add(r);
    }
    let ktxn = sim.txns as f64 / 1e3;
    c.values.extend(sim.metrics());
    c.values.extend(window.metrics());
    c.put("core.build_s", build_s);
    c.put("core.prewarm_s", prewarm_s);
    c.put("alloc.count_per_ktxn", allocs.0 as f64 / ktxn);
    c.put("alloc.bytes_per_ktxn", allocs.1 as f64 / ktxn);
    c.put("trace.overhead_ratio", row_traced / row_plain);
    for (name, value, unit) in paper_fidelity(&own) {
        c.extra(&name, value, unit);
    }
    c.extra("parallel.sweep_speedup", cells_s / wall_n, "ratio");
    c.extra(
        "parallel.efficiency",
        cells_s / (ctx.nproc as f64 * wall_n),
        "ratio",
    );
    for (i, scheme) in Scheme::ALL.iter().enumerate() {
        let secs: f64 = cell_s.iter().skip(i).step_by(Scheme::ALL.len()).sum();
        let short = scheme.label().trim_start_matches("CMP-").to_lowercase();
        c.extra(
            &format!("sweep.cell_wall_s.{}", short.replace('-', "")),
            secs,
            "s",
        );
    }
    fork_speedup(&sweep, c);
}

/// Runs `w` traced and returns every per-layer metric of the contract,
/// with the workload-specific extras and the spans in `detail`.
pub fn trace(w: &Workload, ctx: &Ctx) -> Outcome {
    let mut c = Collected {
        tally: Tally::default(),
        log: SpanLog::new(),
        values: Vec::new(),
        extras: Value::obj(),
    };
    match &w.kind {
        Kind::Cell(spec) => trace_cell(w, spec, ctx, &mut c),
        Kind::Sweep { sample } => trace_sweep(*sample, ctx, &mut c),
    }
    let secs = if ctx.quick {
        STANDALONE_SECS / 10.0
    } else {
        STANDALONE_SECS
    };
    let standalone = layers::run_all(ctx.seed, secs, ctx.nproc, &mut c.log);
    c.tally.attempted += standalone.checks;
    for failure in standalone.failures {
        c.tally.fail(failure);
    }
    c.values.extend(standalone.metrics);

    // Lay the values out in the contract's order; a metric the run could
    // not take (an earlier failure) is reported as 0 beside `correct:
    // false`.
    let metrics: Vec<Metric> = PER_LAYER
        .iter()
        .map(|m| {
            let value = c.values.iter().find(|v| v.0 == m.name).map_or(0.0, |v| v.1);
            (m.name.to_string(), value, m.unit)
        })
        .collect();
    let detail = Value::obj()
        .with("extras", c.extras)
        .with("spans", c.log.to_json(w.name));
    Outcome {
        tally: c.tally,
        metrics,
        detail,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::workload;

    #[test]
    fn sim_totals_of_two_reports_add_up() {
        let ctx = Ctx {
            seed: 3,
            seconds: 0.0,
            quick: true,
            nproc: 1,
        };
        let Kind::Cell(spec) = workload("cell_cold").unwrap().kind else {
            unreachable!()
        };
        let spec = CellSpec {
            txns: 30_000,
            ..spec
        };
        let run = run_cell(
            &cell_builder(&spec, &ctx),
            ctx.scaled(spec.txns),
            &cell_profile(),
            None,
        )
        .unwrap();
        let mut one = SimTotals::default();
        one.add(&run.report);
        let mut two = SimTotals::default();
        two.add(&run.report);
        two.add(&run.report);
        let (a, b) = (one.metrics(), two.metrics());
        let get = |m: &[(&str, f64)], name: &str| m.iter().find(|v| v.0 == name).unwrap().1;
        assert_eq!(
            get(&b, "noc.sim_flit_hops"),
            2.0 * get(&a, "noc.sim_flit_hops")
        );
        assert_eq!(get(&b, "cpu.sim_ipc"), get(&a, "cpu.sim_ipc"));
        assert_eq!(get(&a, "cpu.sim_ipc"), run.report.ipc());
        assert!(get(&a, "cache.sim_miss_ratio") > 0.2, "cold cell misses");
        assert!(get(&a, "phase.mem_wait_cy_per_txn") > 0.0);
        let phases: f64 = a
            .iter()
            .filter(|v| v.0.starts_with("phase."))
            .map(|v| v.1)
            .sum();
        let c = &run.report.counters;
        let mean = (c.hit_latency_sum + c.miss_latency_sum) as f64 / c.l2_transactions as f64;
        assert!(
            (phases - mean).abs() < 1e-9,
            "phases sum to the mean latency"
        );
    }
}
