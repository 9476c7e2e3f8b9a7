//! `nim` — command-line front end for the network-in-memory simulator.
//!
//! ```sh
//! nim run --scheme dnuca3d --bench swim --sample 20000
//! nim compare --bench mgrid
//! nim report fig18
//! nim list
//! ```
//!
//! Every simulating subcommand describes its work as [`SweepSpec`]
//! cells: `run` takes one, `compare` and `breakdown` sweep it over the
//! four schemes, `scale` takes a grid, `report` the grids of the
//! paper's exhibits. Argument parsing is deliberately dependency-free
//! (the workspace only uses the pre-approved crates); see `nim help`
//! for the full grammar.

use std::error::Error;
use std::fs::File;
use std::io::BufWriter;
use std::process::ExitCode;
use std::slice::from_ref;

use network_in_memory::core::exhibits::{breakdown, run_exhibits, shipped, table3};
use network_in_memory::core::experiments::{
    run_cells, run_cells_raw, ExperimentError, ExperimentScale, SweepSpec,
};
use network_in_memory::core::{FabricKind, RunReport, Scheme, System, SystemBuilder};
use network_in_memory::obs::{CategoryMask, Obs, ObsConfig};
use network_in_memory::topology::{ChipLayout, ShardPlan, TopoSpec};
use network_in_memory::types::{PillarPlacement, SystemConfig};
use network_in_memory::workload::BenchmarkProfile;

const HELP: &str = "\
nim — 3D chip-multiprocessor network-in-memory simulator (ISCA'06)

USAGE:
    nim <COMMAND> [OPTIONS]

COMMANDS:
    run        simulate one cell: one scheme on one benchmark
    compare    that cell under all four schemes
    breakdown  that cell's per-phase latency decomposition under all
               four schemes
    scale      sweep a grid of cells; print per-cell cycles, hits,
               misses and fingerprints
    report     regenerate the paper's tables and figures as one
               deduplicated batch: `nim report [id..]` keeps the
               named ones of table1 table2 table3 fig13 fig14 fig15
               fig16 fig17 fig18 (default: all — exhibits.txt)
    thermal    print the Table 3 thermal profiles
    list       list benchmarks and schemes
    help       show this message

THE CELL (run / compare / breakdown / scale):
    --scheme <name>           dnuca | dnuca2d | snuca3d | dnuca3d (default
                              dnuca3d; not for compare / breakdown, which
                              sweep all four)
    --bench <name>            benchmark profile (default swim)
    --topology <spec>         'default', '4-layer', '8-layer', or a comma
                              list of layers=N, pillars=N, placement=
                              {spread|corners|diagonal}; the explicit
                              flags below override it
    --layers <n>              device layers (default 2)
    --pillars <n>             vertical pillars (default 8)
    --cpus <n>                CPUs (default 8)
    --placements <name>       spread | corners | diagonal (default spread)
    --l2-scale <n>            L2 capacity factor, a power of two; the paper
                              sweeps 1, 2, 4 (default 1)
    --fabric <name>           interconnect substrate: sim (the cycle-
                              accurate NoC, default), latency-table (the
                              analytic model) or ideal (contention-free)
    --shards <n|auto>         advance the network as n cluster-row shards
                              on worker threads (bit-identical); n must
                              divide the selected topology's cluster-row
                              count, layers × cluster-grid height; 'auto'
                              picks the largest count up to the machine's
                              cores (default: NIM_SHARDS, else 1)
    For scale, each of --layers .. --shards takes a comma list and the
    grid is their product (defaults: --layers 2,4,8 --shards 1); a cell
    whose shard count does not divide its cluster rows, or that does
    not build, is skipped with the reason.

THE SCALE OF A RUN (the above and report):
    --warmup <n>              warm-up transactions (default 2000)
    --sample <n>              sampled transactions (default 20000)
    --seed <n>                workload seed (default 42)

SNAPSHOT / RESUME (run only):
    --snapshot-out <path>     write a resumable checkpoint image; alone,
                              snapshots once at the warmup boundary;
                              with --snapshot-every, overwrites the image
                              every N transactions (rolling checkpoint)
    --snapshot-every <txns>   checkpoint cadence in completed
                              transactions (requires --snapshot-out)
    --resume <path>           reconstruct a checkpointed run and carry it
                              to completion; scheme/benchmark/topology
                              flags are ignored (the image records them),
                              but --shards <n|auto> re-cuts the resumed
                              network (snapshots are shard-agnostic)

OBSERVABILITY (run only; all off by default):
    --trace-out <path>        write a Chrome trace_event JSON file
                              (load it at https://ui.perfetto.dev)
    --trace-filter <cats>     categories to trace: 'all', 'none', or a
                              comma list of packet,hop,pillar,search,
                              migration,coherence,bank,memory,meta;
                              prefix '-' subtracts from all (default:
                              all except the per-flit 'hop' firehose)
    --metrics-out <path>      write final metrics + epoch samples JSON
    --sample-every <cycles>   snapshot metrics every N cycles (0 = off)
    --trace-txn-sample <n>    emit begin/end spans with the per-phase
                              latency breakdown for every n-th
                              transaction (0 = off; implies tracing)
";

/// An explicit `--shards` argument: a fixed count, or `auto` (the
/// largest count the topology supports up to the machine's cores).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum ShardArg {
    Count(usize),
    Auto,
}

impl ShardArg {
    /// The count to request: 'auto' asks for one shard per available
    /// core, which the network clamps to what its topology supports.
    fn count(self) -> usize {
        match self {
            ShardArg::Count(n) => n,
            ShardArg::Auto => std::thread::available_parallelism().map_or(1, |n| n.get()),
        }
    }
}

/// The cell-axis flags: the fields of [`SweepSpec`], each a list. An
/// empty list keeps the builder's default, one value is an override,
/// several (for `scale`) are a grid axis.
#[derive(Debug, Default)]
struct Axes {
    layers: Vec<u8>,
    pillars: Vec<u16>,
    cpus: Vec<u32>,
    l2_scales: Vec<u32>,
    placements: Vec<PillarPlacement>,
    fabrics: Vec<FabricKind>,
    shards: Vec<ShardArg>,
}

/// What only a single run can honour. Four schemes would interleave in
/// one trace and fight over one snapshot image.
#[derive(Debug, Default)]
struct RunOnly {
    trace_out: Option<String>,
    trace_filter: CategoryMask,
    metrics_out: Option<String>,
    sample_every: u64,
    txn_sample: u64,
    snapshot_out: Option<String>,
    /// Checkpoint cadence in completed transactions (0 = once, at the
    /// warmup boundary).
    snapshot_every: u64,
    resume: Option<String>,
}

/// Everything the command line says.
#[derive(Debug)]
struct Cli {
    scheme: Scheme,
    bench: BenchmarkProfile,
    axes: Axes,
    scale: ExperimentScale,
    /// `report`'s exhibit ids.
    ids: Vec<String>,
    run: RunOnly,
}

/// One cell of the grid the flags describe and, when its `--shards`
/// count cannot cut its topology, why: such a cell is refused (`run`)
/// or skipped (`scale`) rather than silently clamped by the builder.
struct Cell {
    spec: SweepSpec,
    unfit: Option<String>,
}

/// Rejects a `--shards` count the selected topology cannot honour — the
/// shard executor cuts the chip into equal bands of whole cluster rows,
/// so the count must divide `layers × cluster-grid height` or it would
/// be silently clamped. An unbuildable topology is let through here so
/// `build()` reports the real error.
fn validate_shards(shards: usize, cfg: &SystemConfig) -> Result<(), String> {
    let Ok(layout) = ChipLayout::new(cfg) else {
        return Ok(());
    };
    let valid = ShardPlan::valid_counts(&layout);
    if valid.contains(&shards) {
        return Ok(());
    }
    let rows = ShardPlan::cluster_rows(&layout);
    let counts: Vec<String> = valid.iter().map(|d| d.to_string()).collect();
    Err(format!(
        "--shards {shards} does not divide the selected topology's {rows} cluster rows \
         ({} layers x {}-row cluster grid; valid shard counts: {}, or 'auto')",
        cfg.network.layers,
        layout.cluster_grid().1,
        counts.join(", ")
    ))
}

/// Multiplies the grid by one axis; an empty axis leaves it alone.
fn cross<C: Copy, T: Copy>(grid: &mut Vec<C>, axis: &[T], set: impl Fn(&mut C, T)) {
    if !axis.is_empty() {
        let with = |cell: &C, value: T| {
            let mut cell = *cell;
            set(&mut cell, value);
            cell
        };
        *grid = (grid.iter())
            .flat_map(|cell| axis.iter().map(move |&value| with(cell, value)))
            .collect();
    }
}

impl Cli {
    /// The grid of cells the flags describe, in deterministic order
    /// (`--layers` outermost, `--shards` innermost); one cell when no
    /// flag lists several values. Cells index a one-benchmark slice.
    fn cells(&self) -> Vec<Cell> {
        let axes = &self.axes;
        let mut grid = vec![(SweepSpec::new(self.scheme, 0), None)];
        cross(&mut grid, &axes.layers, |c, v| c.0.layers = Some(v));
        cross(&mut grid, &axes.pillars, |c, v| c.0.pillars = Some(v));
        cross(&mut grid, &axes.cpus, |c, v| c.0.cpus = Some(v));
        cross(&mut grid, &axes.l2_scales, |c, v| c.0.l2_scale = Some(v));
        cross(&mut grid, &axes.placements, |c, v| c.0.placement = Some(v));
        cross(&mut grid, &axes.fabrics, |c, v| c.0.fabric = Some(v));
        cross(&mut grid, &axes.shards, |c, v| c.1 = Some(v));
        let cell = |(spec, shards): (SweepSpec, Option<ShardArg>)| {
            let cfg = SystemConfig::default();
            let cfg = spec.layers.map_or(cfg, |l| cfg.with_layers(l));
            Cell {
                spec: SweepSpec {
                    shards: shards.map(ShardArg::count),
                    ..spec
                },
                unfit: match shards {
                    Some(ShardArg::Count(n)) => validate_shards(n, &cfg).err(),
                    _ => None,
                },
            }
        };
        grid.into_iter().map(cell).collect()
    }

    /// The one cell of `run`, `compare` and `breakdown`.
    fn cell(&self) -> SweepSpec {
        self.cells()[0].spec
    }

    /// Builds the observability handle the flags ask for — a disabled
    /// handle (one branch per instrumentation point) when no flag is set.
    fn obs(&self) -> Obs {
        let run = &self.run;
        if run.trace_out.is_none()
            && run.metrics_out.is_none()
            && run.sample_every == 0
            && run.txn_sample == 0
        {
            return Obs::disabled();
        }
        Obs::new(ObsConfig {
            // Transaction spans live in the trace ring, so sampling them
            // implies tracing even without --trace-out (the run summary
            // still reports the event count).
            trace: run.trace_out.is_some() || run.txn_sample > 0,
            mask: run.trace_filter,
            sample_every: run.sample_every,
            txn_sample: run.txn_sample,
            ..ObsConfig::default()
        })
    }
}

/// The subcommands that honour a flag, by kind of flag. `compare` and
/// `breakdown` sweep the schemes themselves, so `--scheme` is not theirs.
const SCHEME: &[&str] = &["run", "scale"];
/// The other cell axes.
const CELL: &[&str] = &["run", "compare", "breakdown", "scale"];
/// `--warmup` / `--sample` / `--seed`: everything that simulates.
const SCALE: &[&str] = &["run", "compare", "breakdown", "scale", "report"];
/// [`RunOnly`].
const RUN: &[&str] = &["run"];

fn scheme(s: &str) -> Result<Scheme, String> {
    match s.to_ascii_lowercase().as_str() {
        "dnuca" | "cmp-dnuca" => Ok(Scheme::CmpDnuca),
        "dnuca2d" | "cmp-dnuca-2d" | "2d" => Ok(Scheme::CmpDnuca2d),
        "snuca3d" | "cmp-snuca-3d" | "snuca" => Ok(Scheme::CmpSnuca3d),
        "dnuca3d" | "cmp-dnuca-3d" | "3d" => Ok(Scheme::CmpDnuca3d),
        other => Err(format!("unknown scheme '{other}'")),
    }
}

fn bench(name: &str) -> Result<BenchmarkProfile, String> {
    BenchmarkProfile::by_name(name).ok_or_else(|| format!("unknown benchmark '{name}'"))
}

fn placement(s: &str) -> Result<PillarPlacement, String> {
    PillarPlacement::parse(s).map_err(|v| format!("unknown placement '{v}'"))
}

fn fabric(s: &str) -> Result<FabricKind, String> {
    FabricKind::parse(s).map_err(|v| format!("unknown fabric '{v}'"))
}

fn shards(s: &str) -> Result<ShardArg, std::num::ParseIntError> {
    if s.eq_ignore_ascii_case("auto") {
        return Ok(ShardArg::Auto);
    }
    s.parse().map(ShardArg::Count)
}

/// A flag's value on its way into a field: (subcommand, flag, value).
type Arg<'a> = (&'a str, &'a str, &'a str);

fn path((.., value): Arg) -> Option<String> {
    Some(value.to_owned())
}

/// The value through `item`, the flag named in the error.
fn one<T, E: ToString>(
    (_, flag, value): Arg,
    item: impl Fn(&str) -> Result<T, E>,
) -> Result<T, String> {
    item(value).map_err(|e| format!("{flag}: {}", e.to_string()))
}

/// The values of a comma list, each through `item`. Several values are
/// a grid axis, which only `scale` takes.
fn list<T, E: ToString>(
    (command, flag, value): Arg,
    item: impl Fn(&str) -> Result<T, E>,
) -> Result<Vec<T>, String> {
    if command != "scale" && value.contains(',') {
        return Err(format!(
            "{flag} {value}: `nim {command}` takes one cell (a comma list is a grid: `nim scale`)"
        ));
    }
    let values = value.split(',');
    values
        .map(|v| one((command, flag, v.trim()), &item))
        .collect()
}

/// Fills `field`; hands back the subcommands the flag is good for.
fn set<T>(field: &mut T, value: T, scope: &'static [&'static str]) -> &'static [&'static str] {
    *field = value;
    scope
}

/// The one flag table: every flag, the field it fills, how its value
/// parses and which subcommands honour it. A flag `command` cannot
/// honour is an error, as is a comma list anywhere but `scale`.
fn parse(command: &str, args: &[String]) -> Result<Cli, String> {
    let mut cli = Cli {
        scheme: Scheme::CmpDnuca3d,
        bench: BenchmarkProfile::swim(),
        axes: Axes::default(),
        scale: ExperimentScale::default(),
        ids: Vec::new(),
        run: RunOnly::default(),
    };
    let mut topology = TopoSpec::default();
    let (axes, run, scale) = (&mut cli.axes, &mut cli.run, &mut cli.scale);
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        if command == "report" && !flag.starts_with('-') {
            cli.ids.push(flag.clone());
            continue;
        }
        let mut arg = || match it.next() {
            Some(value) => Ok((command, flag.as_str(), value.as_str())),
            None => Err(format!("{flag} needs a value")),
        };
        let scope = match flag.as_str() {
            "--scheme" => set(&mut cli.scheme, one(arg()?, scheme)?, SCHEME),
            "--bench" => set(&mut cli.bench, one(arg()?, bench)?, CELL),
            "--topology" => set(&mut topology, one(arg()?, TopoSpec::parse)?, CELL),
            "--layers" => set(&mut axes.layers, list(arg()?, str::parse)?, CELL),
            "--pillars" => set(&mut axes.pillars, list(arg()?, str::parse)?, CELL),
            "--cpus" => set(&mut axes.cpus, list(arg()?, str::parse)?, CELL),
            "--l2-scale" => set(&mut axes.l2_scales, list(arg()?, str::parse)?, CELL),
            "--placements" => set(&mut axes.placements, list(arg()?, placement)?, CELL),
            "--fabric" => set(&mut axes.fabrics, list(arg()?, fabric)?, CELL),
            "--shards" => set(&mut axes.shards, list(arg()?, shards)?, CELL),
            "--warmup" => set(&mut scale.warmup, one(arg()?, str::parse)?, SCALE),
            "--sample" => set(&mut scale.sample, one(arg()?, str::parse)?, SCALE),
            "--seed" => set(&mut scale.seed, one(arg()?, str::parse)?, SCALE),
            "--trace-out" => set(&mut run.trace_out, path(arg()?), RUN),
            "--trace-filter" => set(
                &mut run.trace_filter,
                one(arg()?, CategoryMask::parse)?,
                RUN,
            ),
            "--metrics-out" => set(&mut run.metrics_out, path(arg()?), RUN),
            "--sample-every" => set(&mut run.sample_every, one(arg()?, str::parse)?, RUN),
            "--trace-txn-sample" => set(&mut run.txn_sample, one(arg()?, str::parse)?, RUN),
            "--snapshot-out" => set(&mut run.snapshot_out, path(arg()?), RUN),
            "--snapshot-every" => set(&mut run.snapshot_every, one(arg()?, str::parse)?, RUN),
            "--resume" => set(&mut run.resume, path(arg()?), RUN),
            other => return Err(format!("unknown option '{other}'")),
        };
        if !scope.contains(&command) {
            return Err(format!("{flag} does not apply to `nim {command}`"));
        }
    }
    // An explicit flag wins over --topology, whichever came first.
    if axes.layers.is_empty() {
        axes.layers.extend(topology.layers);
    }
    if axes.pillars.is_empty() {
        axes.pillars.extend(topology.pillars);
    }
    if axes.placements.is_empty() {
        axes.placements.extend(topology.placement);
    }
    if run.snapshot_every > 0 && run.snapshot_out.is_none() {
        return Err("--snapshot-every needs --snapshot-out".into());
    }
    if run.snapshot_out.is_some() && scale.warmup == 0 && run.snapshot_every == 0 {
        // The lone snapshot is taken at the warmup boundary: with no
        // warmup there is none, and the run would write nothing.
        return Err("--snapshot-out with --warmup 0 needs --snapshot-every".into());
    }
    // A resumed network is re-cut from the image's topology, so the
    // flag-derived shard validation does not apply to it.
    if command != "scale" && cli.run.resume.is_none() {
        if let Some(reason) = cli.cells().swap_remove(0).unfit {
            return Err(reason);
        }
    }
    Ok(cli)
}

/// Runs a freshly built system to completion, pausing at the requested
/// checkpoint stops (`--snapshot-out`/`--snapshot-every`) to overwrite
/// the image at `path` — each pause lands on an epoch boundary, so every
/// image is resumable and the run itself is bit-identical to one that
/// never paused.
fn run_checkpointed(
    system: &mut System,
    bench: &BenchmarkProfile,
    path: &str,
    every: u64,
    warmup: u64,
) -> Result<RunReport, Box<dyn Error>> {
    let mut gen = system.begin(bench);
    // With no cadence, checkpoint once at the warmup boundary.
    let mut next = if every > 0 { every } else { warmup };
    loop {
        match system.run_until(&mut gen, next)? {
            Some(report) => return Ok(report),
            None => {
                system.snapshot_to(path, &gen)?;
                eprintln!("snapshot after {next} transactions -> {path}");
                next = if every > 0 { next + every } else { u64::MAX };
            }
        }
    }
}

fn print_report(report: &RunReport) {
    println!(
        "{:<14} avg L2 hit {:>7.2} cy | IPC {:>6.4} | migrations {:>7} | miss {:>6.4} | L2 energy {:>8.4} mJ | fp 0x{:016x}",
        report.scheme.label(),
        report.avg_l2_hit_latency(),
        report.ipc(),
        report.counters.migrations,
        report.l2_miss_rate(),
        report.energy().total_j() * 1e3,
        report.fingerprint(),
    );
}

/// Reconstructs a checkpointed run from `--resume` and carries it to
/// completion; the image records the scheme, benchmark, topology, and
/// observability, so only `--shards` applies.
fn run_resumed(cli: &Cli, path: &str) -> Result<(), Box<dyn Error>> {
    let shards = cli.axes.shards.first().map(|arg| arg.count());
    let mut resumed = SystemBuilder::resume(path, shards)?;
    eprintln!(
        "resumed {} ({}) at cycle {}",
        resumed.benchmark(),
        resumed.system().scheme().label(),
        resumed.system().network().now().0
    );
    print_report(&resumed.finish()?);
    Ok(())
}

/// `nim run`: the one cell, built through [`SweepSpec::builder`], plus
/// what only a single run can honour ([`RunOnly`]).
fn cmd_run(cli: &Cli) -> Result<(), Box<dyn Error>> {
    let run = &cli.run;
    if let Some(path) = &run.resume {
        return run_resumed(cli, path);
    }
    // Created before the run: an unwritable path must not cost a simulation.
    let create = |path: &String| File::create(path).map_err(|e| format!("{path}: {e}"));
    let trace = run.trace_out.as_ref().map(create).transpose()?;
    let metrics = run.metrics_out.as_ref().map(create).transpose()?;
    println!("benchmark: {}", cli.bench.name);
    let obs = cli.obs();
    let builder = cli.cell().builder(cli.scale).observability(obs.clone());
    let mut system = builder.build()?;
    let report = match &run.snapshot_out {
        Some(path) => {
            let (every, warmup) = (run.snapshot_every, cli.scale.warmup);
            run_checkpointed(&mut system, &cli.bench, path, every, warmup)?
        }
        None => system.run(&cli.bench)?,
    };
    print_report(&report);
    if let (Some(path), Some(file)) = (&run.trace_out, trace) {
        obs.export_trace(&mut BufWriter::new(file))?;
        let (events, dropped) = (obs.event_count(), obs.dropped_events());
        eprintln!("trace: {events} events ({dropped} dropped) -> {path}");
    }
    if let (Some(path), Some(file)) = (&run.metrics_out, metrics) {
        obs.export_metrics(&mut BufWriter::new(file))?;
        eprintln!("metrics -> {path}");
    }
    if obs.is_enabled() && obs.sample_every() > 0 {
        eprintln!("simulated {:.0} cycles/sec", obs.cycles_per_sec());
    }
    Ok(())
}

/// A `scale` row's label: the axes `scale` has always printed (at the
/// paper's defaults where the cell leaves them alone), and the pillar
/// count where the cell sets one.
fn scale_label(spec: &SweepSpec) -> String {
    let default = SystemConfig::default();
    let placement = spec.placement.unwrap_or(default.network.pillar_placement);
    format!(
        "layers={}{} cpus={} l2x{} {} {} shards={}",
        spec.layers.unwrap_or(default.network.layers),
        spec.pillars
            .map_or(String::new(), |p| format!(" pillars={p}")),
        spec.cpus.unwrap_or(default.num_cpus),
        spec.l2_scale.unwrap_or(1),
        placement.name(),
        spec.fabric.unwrap_or_default().name(),
        spec.shards.unwrap_or(1),
    )
}

fn cmd_scale(mut cli: Cli) -> Result<(), Box<dyn Error>> {
    if cli.axes.layers.is_empty() {
        cli.axes.layers = vec![2, 4, 8];
    }
    if cli.axes.shards.is_empty() {
        cli.axes.shards = vec![ShardArg::Count(1)];
    }
    let grid = cli.cells();
    println!("benchmark: {}", cli.bench.name);
    let fit = grid.iter().filter(|cell| cell.unfit.is_none());
    let runnable: Vec<SweepSpec> = fit.map(|cell| cell.spec).collect();
    let mut results = run_cells_raw(from_ref(&cli.bench), cli.scale, &runnable).into_iter();
    println!(
        "{:<44} {:>12} {:>8} {:>8} {:>18}",
        "cell", "cycles", "hits", "misses", "fingerprint"
    );
    // Completed cells keyed by their spec with the shard count erased:
    // cells that agree on the key must agree on the fingerprint.
    let mut done: Vec<(SweepSpec, u64, String)> = Vec::new();
    for cell in grid {
        let label = scale_label(&cell.spec);
        let result = match cell.unfit {
            Some(reason) => Err(reason),
            None => match results.next().expect("one per runnable cell") {
                Ok(report) => Ok(report),
                Err(ExperimentError::Build(e)) => Err(e.to_string()),
                Err(e) => return Err(e.into()),
            },
        };
        let report = match result {
            Ok(report) => report,
            Err(reason) => {
                println!("{label:<44} skipped ({reason})");
                continue;
            }
        };
        let fingerprint = report.fingerprint();
        println!(
            "{:<44} {:>12} {:>8} {:>8} 0x{:016x}",
            label, report.cycles, report.counters.l2_hits, report.counters.l2_misses, fingerprint
        );
        let key = SweepSpec {
            shards: None,
            ..cell.spec
        };
        if let Some((_, _, other)) = done.iter().find(|(k, f, _)| *k == key && *f != fingerprint) {
            return Err(format!("shard-count fingerprint mismatch: [{other}] vs [{label}]").into());
        }
        done.push((key, fingerprint, label));
    }
    Ok(())
}

/// `nim report`: the shipped record, or the exhibits of it that are
/// named, as one deduplicated batch.
fn cmd_report(cli: &Cli) -> Result<(), Box<dyn Error>> {
    let mut shipped = shipped();
    let known: Vec<&str> = shipped.iter().map(|(id, _)| *id).collect();
    if let Some(id) = cli.ids.iter().find(|id| !known.contains(&id.as_str())) {
        return Err(format!("unknown exhibit '{id}' (one of {})", known.join(", ")).into());
    }
    shipped.retain(|(id, _)| cli.ids.is_empty() || cli.ids.iter().any(|named| named == id));
    let exhibits = shipped.into_iter().map(|(_, exhibit)| exhibit).collect();
    let report = run_exhibits(exhibits, &BenchmarkProfile::all(), cli.scale)?;
    let (requested, simulated) = (report.requested, report.simulated);
    eprintln!("cells: {requested} requested, {simulated} simulated");
    let (warmup, sample, seed) = (cli.scale.warmup, cli.scale.sample, cli.scale.seed);
    println!("# warmup {warmup} / sample {sample} transactions per cell, seed {seed}");
    for table in &report.tables {
        print!("\n## {}\n{table}", table.title);
    }
    Ok(())
}

fn dispatch(command: &str, cli: Cli) -> Result<(), Box<dyn Error>> {
    match command {
        "list" => {
            println!("benchmarks (SPEC OMP, Table 5):");
            for b in BenchmarkProfile::all() {
                println!(
                    "  {:<8} paper L2 transactions: {:>12}",
                    b.name, b.paper_l2_transactions
                );
            }
            println!("schemes:");
            for s in Scheme::ALL {
                println!("  {}", s.label());
            }
        }
        "thermal" => print!("{}", table3().table),
        "report" => cmd_report(&cli)?,
        "run" => cmd_run(&cli)?,
        "scale" => cmd_scale(cli)?,
        "compare" => {
            println!("benchmark: {}", cli.bench.name);
            let cell = cli.cell();
            let cells = Scheme::ALL.map(|scheme| SweepSpec { scheme, ..cell });
            for report in run_cells(from_ref(&cli.bench), cli.scale, &cells)? {
                print_report(&report);
            }
        }
        "breakdown" => {
            println!("benchmark: {}", cli.bench.name);
            let exhibits = vec![breakdown(cli.cell())];
            let report = run_exhibits(exhibits, from_ref(&cli.bench), cli.scale)?;
            print!("{}", report.tables[0]);
        }
        other => return Err(format!("unknown command '{other}' (try `nim help`)").into()),
    }
    Ok(())
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some(command) = args.first() else {
        eprint!("{HELP}");
        return ExitCode::FAILURE;
    };
    if matches!(command.as_str(), "help" | "--help" | "-h") {
        print!("{HELP}");
        return ExitCode::SUCCESS;
    }
    let parsed = parse(command, &args[1..]).map_err(Into::into);
    match parsed.and_then(|cli| dispatch(command, cli)) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Parses `line`, split at whitespace, as the flags of `nim <command>`.
    fn cli(command: &str, line: &str) -> Result<Cli, String> {
        let args: Vec<String> = line.split_whitespace().map(String::from).collect();
        parse(command, &args)
    }

    fn run(line: &str) -> Result<Cli, String> {
        cli("run", line)
    }

    fn cli_err(command: &str, line: &str) -> String {
        cli(command, line).expect_err(line)
    }

    #[test]
    fn defaults_apply_without_flags() {
        let cli = run("").unwrap();
        assert_eq!(cli.bench.name, "swim");
        assert_eq!(cli.scale, ExperimentScale::default());
        assert_eq!(cli.scale.sample, 20_000);
        // No flag, no override: the cell is the paper's default.
        assert_eq!(cli.cell(), SweepSpec::new(Scheme::CmpDnuca3d, 0));
    }

    #[test]
    fn topology_presets_parse_and_flags_override() {
        assert_eq!(run("--topology 8-layer").unwrap().axes.layers, [8]);
        for order in [
            "--topology 8-layer --layers 4",
            "--layers 4 --topology 8-layer",
        ] {
            let layers = run(order).unwrap().axes.layers;
            assert_eq!(layers, [4], "explicit --layers wins");
        }
        // The comma grammar is the explicit flags under another spelling.
        let spec = run("--topology layers=4,pillars=4,placement=corners").unwrap();
        let flags = run("--layers 4 --pillars 4 --placements corners").unwrap();
        assert_eq!(spec.cell(), flags.cell());
        assert_eq!(spec.cell().layers, Some(4));
        assert_eq!(spec.cell().placement, Some(PillarPlacement::Corners));
        let err = run("--topology moebius").unwrap_err();
        assert!(
            err.contains("--topology") && err.contains("8-layer"),
            "{err}"
        );
    }

    #[test]
    fn fabric_flag_parses() {
        let cell = run("--fabric latency-table").unwrap().cell();
        assert_eq!(cell.fabric, Some(FabricKind::LatencyTable));
        assert!(run("--fabric warp-drive")
            .unwrap_err()
            .contains("warp-drive"));
    }

    #[test]
    fn shards_must_divide_the_selected_layer_count() {
        // 3 shards cannot split the default 2-layer stack's 4 cluster rows.
        let err = run("--shards 3").unwrap_err();
        assert!(err.contains("does not divide"), "{err}");
        assert!(err.contains("1, 2"), "lists the valid divisors: {err}");
        assert!(err.contains("auto"), "points at --shards auto: {err}");
        // Cluster-row cuts go finer than layers: 4 shards split the
        // 2-layer stack (each layer's cluster grid is 2 rows tall).
        assert!(run("--shards 4").is_ok());
        // An unbuildable topology defers its error to build().
        assert!(run("--shards 3 --layers 3").is_ok());
        assert!(
            run("--shards 4 --topology 8-layer").is_ok(),
            "validation sees the --topology layer count"
        );
        assert!(
            run("--shards 8 --topology 8-layer --layers 2").is_err(),
            "explicit --layers overrides the preset for validation too"
        );
        // compare and breakdown take the same cell, so the same check.
        assert!(cli("compare", "--shards 3").is_err());
        assert!(cli("breakdown", "--shards 4").is_ok());
    }

    #[test]
    fn scale_options_parse_comma_grids() {
        let grid = "--layers 2,4 --cpus 4,8 --placements spread,corners --fabric sim,ideal \
                    --shards 1,2 --sample 500";
        let cli = cli("scale", grid).unwrap();
        assert_eq!(cli.axes.layers, [2, 4]);
        assert_eq!(cli.axes.cpus, [4, 8]);
        assert_eq!(cli.axes.fabrics, [FabricKind::Sim, FabricKind::Ideal]);
        assert_eq!(cli.axes.shards, [ShardArg::Count(1), ShardArg::Count(2)]);
        assert_eq!(cli.scale.sample, 500);
        let cells = cli.cells();
        assert_eq!(cells.len(), 2 * 2 * 2 * 2 * 2);
        // --layers is the outermost axis, --shards the innermost.
        let label = scale_label(&cells[1].spec);
        assert_eq!(label, "layers=2 cpus=4 l2x1 spread sim shards=2");
        assert_eq!(cells[31].spec.layers, Some(4));
        let err = cli_err("scale", "--placements everywhere");
        assert!(err.contains("everywhere"), "{err}");
        // A grid is scale's: the commands that take one cell refuse it.
        for command in ["run", "compare", "breakdown"] {
            let err = cli_err(command, "--layers 2,4");
            assert!(err.contains("--layers") && err.contains(command), "{err}");
        }
    }

    #[test]
    fn flags_override_defaults() {
        let flags = "--scheme snuca3d --bench mgrid --layers 4 --pillars 4 --l2-scale 2 \
                     --warmup 10 --sample 100 --seed 7 --shards 2";
        let cli = run(flags).unwrap();
        assert_eq!(cli.bench.name, "mgrid");
        let scale = ExperimentScale {
            seed: 7,
            warmup: 10,
            sample: 100,
        };
        assert_eq!(cli.scale, scale);
        let cell = SweepSpec {
            l2_scale: Some(2),
            shards: Some(2),
            ..SweepSpec::new(Scheme::CmpSnuca3d, 0).layers(4).pillars(4)
        };
        assert_eq!(cli.cell(), cell);
    }

    #[test]
    fn a_flag_the_subcommand_cannot_honour_is_an_error() {
        let run_only = "--trace-out t --trace-filter all --metrics-out m --sample-every 1 \
                        --trace-txn-sample 1 --snapshot-out s --snapshot-every 1 --resume r";
        let run_only: Vec<&str> = run_only.split_whitespace().collect();
        for command in ["compare", "breakdown", "scale", "report", "thermal", "list"] {
            for pair in run_only.chunks(2) {
                let err = cli_err(command, &pair.join(" "));
                assert!(err.contains(pair[0]) && err.contains(command), "{err}");
            }
        }
        // compare and breakdown sweep the schemes themselves.
        for command in ["compare", "breakdown", "report"] {
            let err = cli_err(command, "--scheme dnuca");
            assert!(err.contains("--scheme") && err.contains(command), "{err}");
        }
        // A cell axis one subcommand had is valid on all that take the cell.
        assert!(cli("scale", "--scheme dnuca --pillars 4,8").is_ok());
        assert!(cli("compare", "--cpus 4 --placements corners").is_ok());
        // report takes exhibit ids and the scale, not a cell.
        let cli = cli("report", "fig18 --sample 300 table1").unwrap();
        assert_eq!(
            (cli.ids, cli.scale.sample),
            (vec!["fig18".into(), "table1".into()], 300)
        );
        assert!(cli_err("report", "--layers 4").contains("--layers"));
        assert!(cli_err("run", "fig18").contains("fig18"));
        assert!(cli_err("frobnicate", "--seed 1").contains("frobnicate"));
    }

    #[test]
    fn shards_defaults_to_builder_choice() {
        assert_eq!(run("").unwrap().cell().shards, None);
        assert!(run("--shards zero?").unwrap_err().contains("--shards"));
    }

    #[test]
    fn shards_auto_parses_on_any_topology() {
        let cli = run("--shards AUTO").unwrap();
        assert_eq!(cli.axes.shards, [ShardArg::Auto]);
        assert_eq!(cli.cell().shards, Some(ShardArg::Auto.count()));
        // 'auto' never fails validation — the builder clamps it.
        assert!(run("--shards auto --layers 8").is_ok());
    }

    #[test]
    fn observability_flags_parse() {
        let flags = "--trace-out t.json --trace-filter packet,pillar --metrics-out m.json \
                     --sample-every 1000";
        let cli = run(flags).unwrap();
        assert_eq!(cli.run.trace_out.as_deref(), Some("t.json"));
        assert_eq!(cli.run.metrics_out.as_deref(), Some("m.json"));
        assert_eq!(cli.run.sample_every, 1_000);
        assert!(cli.obs().is_enabled());
        let err = run("--trace-filter bogus").unwrap_err();
        assert!(err.contains("--trace-filter"), "{err}");
    }

    #[test]
    fn obs_defaults_to_disabled() {
        assert!(!run("").unwrap().obs().is_enabled());
    }

    #[test]
    fn txn_sampling_implies_tracing() {
        let cli = run("--trace-txn-sample 100").unwrap();
        assert_eq!(cli.run.txn_sample, 100);
        let obs = cli.obs();
        assert!(obs.is_enabled(), "span sampling enables observability");
        assert!(obs.txn_span_due(0), "txn 0 is on the stride");
        assert!(!obs.txn_span_due(1), "txn 1 is off the stride");
        let err = run("--trace-txn-sample x").unwrap_err();
        assert!(err.contains("--trace-txn-sample"), "{err}");
    }

    #[test]
    fn snapshot_flags_parse() {
        let cli = run("--snapshot-out ckpt.nim --snapshot-every 5000").unwrap();
        assert_eq!(cli.run.snapshot_out.as_deref(), Some("ckpt.nim"));
        assert_eq!(cli.run.snapshot_every, 5_000);
        let err = run("--snapshot-every 100").unwrap_err();
        assert!(err.contains("--snapshot-out"), "{err}");
        // The lone snapshot is taken at the warmup boundary: without a
        // warmup the run would write no image at all.
        let err = run("--snapshot-out ckpt.nim --warmup 0").unwrap_err();
        assert!(err.contains("--snapshot-every"), "{err}");
        assert!(run("--snapshot-out ckpt.nim --warmup 0 --snapshot-every 9").is_ok());
        let cli = run("--resume ckpt.nim --shards 2").unwrap();
        assert_eq!(cli.run.resume.as_deref(), Some("ckpt.nim"));
        // A resumed network is re-cut from the image's topology, so the
        // flag-derived shard validation does not apply...
        assert!(run("--resume ckpt.nim --shards 3").is_ok());
        // ...and neither does 'auto', which the rebuilt network clamps.
        let cli = run("--resume ckpt.nim --shards auto").unwrap();
        assert_eq!(cli.axes.shards, [ShardArg::Auto]);
    }

    /// A paused default-scheme run's image, written to a scratch file.
    /// `generator_driven: false` records no generator position, as a
    /// replay-trace or custom-source run would.
    fn write_image(name: &str, generator_driven: bool) -> String {
        struct NoCursor;
        impl network_in_memory::workload::TraceSource for NoCursor {
            fn next_for(
                &mut self,
                _: network_in_memory::types::CpuId,
            ) -> Option<network_in_memory::types::TraceOp> {
                None
            }
        }
        let mut system = SystemBuilder::new(Scheme::CmpDnuca3d)
            .warmup_transactions(20)
            .sampled_transactions(200)
            .build()
            .unwrap();
        let mut gen = system.begin(&BenchmarkProfile::synthetic());
        assert!(system.run_until(&mut gen, 50).unwrap().is_none());
        let image = if generator_driven {
            system.snapshot(&gen)
        } else {
            system.snapshot(&NoCursor)
        };
        let path = std::env::temp_dir().join(format!("nim-{}-{name}.img", std::process::id()));
        std::fs::write(&path, image.unwrap()).unwrap();
        path.to_str().unwrap().to_string()
    }

    #[test]
    fn resume_honours_shards_auto() {
        let path = write_image("auto", true);
        let result = cmd_run(&run(&format!("--resume {path} --shards auto")).unwrap());
        std::fs::remove_file(&path).unwrap();
        result.unwrap();
    }

    #[test]
    fn resuming_an_image_without_a_generator_is_an_error_not_a_panic() {
        let path = write_image("nogen", false);
        let result = cmd_run(&run(&format!("--resume {path}")).unwrap());
        std::fs::remove_file(&path).unwrap();
        assert!(result.unwrap_err().to_string().contains("generator"));
    }

    #[test]
    fn a_bad_l2_scale_is_a_configuration_error_not_a_panic() {
        for (factor, banks) in [("3", "48"), ("0", "0")] {
            let cli = run(&format!("--l2-scale {factor}")).unwrap();
            assert_eq!(
                cmd_run(&cli).unwrap_err().to_string(),
                format!(
                    "invalid configuration: l2.banks_per_cluster must be a nonzero \
                     power of two, got {banks}"
                )
            );
        }
    }

    #[test]
    fn scale_cells_the_topology_cannot_shard_are_skipped_not_clamped() {
        let cli = cli("scale", "--layers 2,3 --shards 1,3,4").unwrap();
        let fit: Vec<bool> = cli.cells().iter().map(|c| c.unfit.is_none()).collect();
        // 2 layers have 4 cluster rows: 3 does not divide them. 3 layers
        // do not build at all, which is left for build() to report.
        assert_eq!(fit, [true, false, true, true, true, true]);
    }

    #[test]
    fn scheme_aliases_resolve() {
        assert_eq!(scheme("dnuca").unwrap(), Scheme::CmpDnuca);
        assert_eq!(scheme("CMP-DNUCA-2D").unwrap(), Scheme::CmpDnuca2d);
        assert_eq!(scheme("3d").unwrap(), Scheme::CmpDnuca3d);
        assert!(scheme("bogus").is_err());
    }

    #[test]
    fn errors_are_descriptive() {
        assert!(run("--bench doom").unwrap_err().contains("doom"));
        assert!(run("--layers").unwrap_err().contains("needs a value"));
        assert!(run("--bogus").unwrap_err().contains("bogus"));
        assert!(run("--layers xyz").unwrap_err().contains("--layers"));
    }
}
