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
//! four schemes, `report` takes the grids of the paper's exhibits.
//! Argument parsing is deliberately dependency-free (the workspace only
//! uses the pre-approved crates); see `nim help` for the full grammar.

use std::error::Error;
use std::fs::File;
use std::io::BufWriter;
use std::process::ExitCode;
use std::slice::from_ref;

use network_in_memory::core::exhibits::{breakdown, run_exhibits, shipped, table3};
use network_in_memory::core::experiments::{run_cells, ExperimentScale, SweepSpec};
use network_in_memory::core::{FabricKind, RunReport, Scheme, System, SystemBuilder};
use network_in_memory::obs::{CategoryMask, Obs, ObsConfig};
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
    report     regenerate the paper's tables and figures as one
               deduplicated batch: `nim report [id..]` keeps the
               named ones of table1 table2 table3 fig13 fig14 fig15
               fig16 fig17 fig18 (default: all — exhibits.txt)
    thermal    print the Table 3 thermal profiles
    list       list benchmarks and schemes
    help       show this message

THE CELL (run / compare / breakdown):
    --scheme <name>           dnuca | dnuca2d | snuca3d | dnuca3d (default
                              dnuca3d; not for compare / breakdown, which
                              sweep all four)
    --bench <name>            benchmark profile (default swim)
    --layers <n>              device layers (default 2)
    --pillars <n>             vertical pillars (default 8)
    --cpus <n>                CPUs (default 8)
    --l2-scale <n>            L2 capacity factor, a power of two; the paper
                              sweeps 1, 2, 4 (default 1)
    --fabric <name>           interconnect substrate: sim (the cycle-
                              accurate NoC, default) or ideal (the
                              contention-free zero-load model)

THE SCALE OF A RUN (the above and report):
    --warmup <n>              warm-up transactions (default 2000)
    --sample <n>              sampled transactions, nonzero (default 20000)
    --seed <n>                workload seed (default 42)

SNAPSHOT / RESUME (run only):
    --snapshot-out <path>     write a snapshot image at the warmup
                              boundary (so --warmup must not be 0): it
                              names that point of the run by its recipe
                              and cycle
    --resume <path>           replay the run an image names to its point
                              and carry it to completion; the image
                              records the cell, the scale and the
                              observability settings, so any other flag
                              beside it is an error

OBSERVABILITY (run only; all off by default):
    --trace-out <path>        write a Chrome trace_event JSON file
                              (load it at https://ui.perfetto.dev)
    --trace-filter <cats>     categories to trace: 'all', 'none', or a
                              comma list of packet,hop,pillar,search,
                              migration,coherence,bank,memory,meta;
                              a list with '-' before every category
                              subtracts from all (default: all except
                              the per-flit 'hop' firehose)
    --metrics-out <path>      write final metrics + epoch samples JSON
    --sample-every <cycles>   snapshot metrics every N cycles (0 = off)
    --trace-txn-sample <n>    emit begin/end spans with the per-phase
                              latency breakdown for every n-th
                              transaction (0 = off; implies tracing)
";

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
    resume: Option<String>,
}

/// Everything the command line says.
#[derive(Debug)]
struct Cli {
    /// The one cell of `run`, `compare` and `breakdown` (which sweep its
    /// scheme); it indexes a one-benchmark slice.
    cell: SweepSpec,
    bench: BenchmarkProfile,
    scale: ExperimentScale,
    /// `report`'s exhibit ids.
    ids: Vec<String>,
    run: RunOnly,
}

impl Cli {
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

/// Every subcommand but `help`.
const COMMANDS: &[&str] = &["run", "compare", "breakdown", "report", "thermal", "list"];
/// The subcommands that honour a flag, by kind of flag. The cell's
/// fields other than its scheme, which `compare` and `breakdown` sweep.
const CELL: &[&str] = &["run", "compare", "breakdown"];
/// `--warmup` / `--sample` / `--seed`: everything that simulates.
const SCALE: &[&str] = &["run", "compare", "breakdown", "report"];
/// `--scheme` and [`RunOnly`].
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

fn fabric(s: &str) -> Result<FabricKind, String> {
    FabricKind::parse(s).map_err(|v| format!("unknown fabric '{v}'"))
}

/// A flag's value on its way into a field: (flag, value).
type Arg<'a> = (&'a str, &'a str);

fn path((_, value): Arg) -> Option<String> {
    Some(value.to_owned())
}

/// The value through `item`, the flag named in the error.
fn one<T, E: ToString>(
    (flag, value): Arg,
    item: impl Fn(&str) -> Result<T, E>,
) -> Result<T, String> {
    item(value).map_err(|e| format!("{flag}: {}", e.to_string()))
}

/// A count that scales the run: zero of it is refused, not run.
fn nonzero(arg: Arg) -> Result<u64, String> {
    match one(arg, str::parse)? {
        0 => Err(format!("{} must be nonzero", arg.0)),
        n => Ok(n),
    }
}

/// Fills `field`; hands back the subcommands the flag is good for.
fn set<T>(field: &mut T, value: T, scope: &'static [&'static str]) -> &'static [&'static str] {
    *field = value;
    scope
}

/// The one flag table: every flag, the field it fills, how its value
/// parses and which subcommands honour it. A flag `command` cannot
/// honour is an error, as is any flag beside `--resume`.
fn parse(command: &str, args: &[String]) -> Result<Cli, String> {
    if !COMMANDS.contains(&command) {
        return Err(format!("unknown command '{command}' (try `nim help`)"));
    }
    let mut cli = Cli {
        cell: SweepSpec::new(Scheme::CmpDnuca3d, 0),
        bench: BenchmarkProfile::swim(),
        scale: ExperimentScale::default(),
        ids: Vec::new(),
        run: RunOnly::default(),
    };
    let (cell, run, scale) = (&mut cli.cell, &mut cli.run, &mut cli.scale);
    let mut beside_resume = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        if command == "report" && !flag.starts_with('-') {
            cli.ids.push(flag.clone());
            continue;
        }
        let mut arg = || match it.next() {
            Some(value) => Ok((flag.as_str(), value.as_str())),
            None => Err(format!("{flag} needs a value")),
        };
        let scope = match flag.as_str() {
            "--scheme" => set(&mut cell.scheme, one(arg()?, scheme)?, RUN),
            "--bench" => set(&mut cli.bench, one(arg()?, bench)?, CELL),
            "--layers" => set(&mut cell.layers, Some(one(arg()?, str::parse)?), CELL),
            "--pillars" => set(&mut cell.pillars, Some(one(arg()?, str::parse)?), CELL),
            "--cpus" => set(&mut cell.cpus, Some(one(arg()?, str::parse)?), CELL),
            "--l2-scale" => set(&mut cell.l2_scale, Some(one(arg()?, str::parse)?), CELL),
            "--fabric" => set(&mut cell.fabric, Some(one(arg()?, fabric)?), CELL),
            "--warmup" => set(&mut scale.warmup, one(arg()?, str::parse)?, SCALE),
            "--sample" => set(&mut scale.sample, nonzero(arg()?)?, SCALE),
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
            "--resume" => set(&mut run.resume, path(arg()?), RUN),
            other => return Err(format!("unknown option '{other}'")),
        };
        if !scope.contains(&command) {
            return Err(format!("{flag} does not apply to `nim {command}`"));
        }
        if flag != "--resume" {
            beside_resume.get_or_insert(flag);
        }
    }
    if let (Some(_), Some(flag)) = (&run.resume, beside_resume) {
        // The image records the cell, the scale and the observability
        // settings; nothing the command line says could be honoured.
        return Err(format!(
            "{flag} does not combine with --resume: the image records it"
        ));
    }
    if run.snapshot_out.is_some() && scale.warmup == 0 {
        // The snapshot is taken at the warmup boundary: with no warmup
        // there is none, and the run would write nothing.
        return Err("--snapshot-out needs a nonzero --warmup: the image names its boundary".into());
    }
    Ok(cli)
}

/// Runs a freshly built system to completion, pausing once at the
/// warmup boundary to write the snapshot image to `path`; the run
/// itself is bit-identical to one that never paused.
fn run_snapshotted(
    system: &mut System,
    bench: &BenchmarkProfile,
    path: &str,
    warmup: u64,
) -> Result<RunReport, Box<dyn Error>> {
    let mut gen = system.begin(bench);
    let mut stop = warmup;
    loop {
        match system.run_until(&mut gen, stop)? {
            Some(report) => return Ok(report),
            None => {
                system.snapshot_to(path, &gen)?;
                eprintln!("snapshot after {stop} transactions -> {path}");
                stop = u64::MAX;
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

/// Replays the run a `--resume` image names to its point and carries it
/// to completion; the image records the scheme, benchmark, topology, and
/// observability.
fn run_resumed(path: &str) -> Result<(), Box<dyn Error>> {
    let mut resumed = SystemBuilder::resume(path)?;
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
        return run_resumed(path);
    }
    // Created before the run: an unwritable path must not cost a simulation.
    let create = |path: &String| File::create(path).map_err(|e| format!("{path}: {e}"));
    let trace = run.trace_out.as_ref().map(create).transpose()?;
    let metrics = run.metrics_out.as_ref().map(create).transpose()?;
    println!("benchmark: {}", cli.bench.name);
    let obs = cli.obs();
    let builder = cli.cell.builder(cli.scale).observability(obs.clone());
    let mut system = builder.build()?;
    let report = match &run.snapshot_out {
        Some(path) => run_snapshotted(&mut system, &cli.bench, path, cli.scale.warmup)?,
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
        "compare" => {
            println!("benchmark: {}", cli.bench.name);
            let cells = Scheme::ALL.map(|scheme| SweepSpec { scheme, ..cli.cell });
            for report in run_cells(from_ref(&cli.bench), cli.scale, &cells)? {
                print_report(&report);
            }
        }
        "breakdown" => {
            println!("benchmark: {}", cli.bench.name);
            let exhibits = vec![breakdown(cli.cell)];
            let report = run_exhibits(exhibits, from_ref(&cli.bench), cli.scale)?;
            print!("{}", report.tables[0]);
        }
        other => unreachable!("parse let the unknown command '{other}' through"),
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
        assert_eq!(cli.cell, SweepSpec::new(Scheme::CmpDnuca3d, 0));
    }

    #[test]
    fn fabric_flag_parses() {
        let cell = run("--fabric ideal").unwrap().cell;
        assert_eq!(cell.fabric, Some(FabricKind::Ideal));
        assert!(run("--fabric warp-drive")
            .unwrap_err()
            .contains("warp-drive"));
    }

    #[test]
    fn flags_override_defaults() {
        let flags = "--scheme snuca3d --bench mgrid --layers 4 --pillars 4 --l2-scale 2 \
                     --warmup 10 --sample 100 --seed 7";
        let cli = run(flags).unwrap();
        assert_eq!(cli.bench.name, "mgrid");
        let scale = ExperimentScale {
            seed: 7,
            warmup: 10,
            sample: 100,
        };
        assert_eq!(cli.scale, scale);
        let cell = SweepSpec::new(Scheme::CmpSnuca3d, 0);
        assert_eq!(cli.cell, cell.layers(4).pillars(4).l2_scale(2));
    }

    #[test]
    fn a_flag_the_subcommand_cannot_honour_is_an_error() {
        let run_only = "--trace-out t --trace-filter all --metrics-out m --sample-every 1 \
                        --trace-txn-sample 1 --snapshot-out s --resume r";
        let run_only: Vec<&str> = run_only.split_whitespace().collect();
        for command in ["compare", "breakdown", "report", "thermal", "list"] {
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
        // A cell field one subcommand had is valid on all that take the cell.
        assert!(cli("compare", "--cpus 4 --pillars 4").is_ok());
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
    fn observability_flags_parse() {
        let flags = "--trace-out t.json --trace-filter packet,pillar --metrics-out m.json \
                     --sample-every 1000";
        let cli = run(flags).unwrap();
        assert_eq!(cli.run.trace_out.as_deref(), Some("t.json"));
        assert_eq!(cli.run.metrics_out.as_deref(), Some("m.json"));
        assert_eq!(cli.run.sample_every, 1_000);
        assert!(cli.obs().is_enabled());
        for bad in ["bogus", "packet,-hop", "-"] {
            let err = run(&format!("--trace-filter {bad}")).unwrap_err();
            assert!(err.starts_with("--trace-filter: "), "{bad}: {err}");
        }
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
        let cli = run("--snapshot-out ckpt.nim").unwrap();
        assert_eq!(cli.run.snapshot_out.as_deref(), Some("ckpt.nim"));
        // The image is written at the warmup boundary: without a warmup
        // the run would write none.
        let err = run("--snapshot-out ckpt.nim --warmup 0").unwrap_err();
        assert!(
            err.contains("--snapshot-out") && err.contains("--warmup"),
            "{err}"
        );
        assert!(run("--snapshot-out ckpt.nim --warmup 1").is_ok());
        let cli = run("--resume ckpt.nim").unwrap();
        assert_eq!(cli.run.resume.as_deref(), Some("ckpt.nim"));
        // The image records the cell, the scale and the observability
        // settings: a flag beside --resume could only be dropped.
        for flags in [
            "--trace-out t.json",
            "--snapshot-out s.img",
            "--sample 9",
            "--layers 4",
        ] {
            let flag = flags.split(' ').next().expect("a flag");
            for line in [format!("--resume r {flags}"), format!("{flags} --resume r")] {
                let err = run(&line).unwrap_err();
                assert!(
                    err.contains(&format!("{flag} does not combine with --resume")),
                    "{err}"
                );
            }
        }
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
