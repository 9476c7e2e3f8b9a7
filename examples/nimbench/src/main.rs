//! `nimbench`: the repository's benchmark.
//!
//! Measures the simulator from outside — host time of calls into its
//! public functions, the simulated counts those calls return — on five
//! named workloads. See `README.md` beside this package for the metric
//! glossary and how to read the output.
//!
//! ```text
//! nimbench --workload <name> --seed <n> --seconds <s> --trace <0|1> [--quick]
//!     one measured run; the last stdout line is the JSON result
//!     (BENCHMARK.json's command; what `all` starts as child processes)
//! nimbench all     [--seed 42] [--reps 7] [--seconds 10] [--quick]
//!     every workload, repeated, then one traced pass; writes results/
//! nimbench trace   [--seed 42] [--seconds 10] [--quick]
//!     the traced pass alone; writes results/trace.json
//! nimbench compare <a.json> <b.json>
//!     judge two result files of `all` against each other
//! ```

mod alloc;
mod compare;
mod driver;
mod host;
mod json;
mod layers;
mod run;
mod spans;
mod spec;
mod stats;
mod traced;

use std::io::Write as _;
use std::process::ExitCode;

use json::Value;

#[global_allocator]
static ALLOCATOR: alloc::Counting = alloc::Counting;

const USAGE: &str = "usage:
  nimbench --workload <name> --seed <n> --seconds <s> --trace <0|1> [--quick]
  nimbench all   [--seed 42] [--reps 7] [--seconds 10] [--quick]
  nimbench trace [--seed 42] [--seconds 10] [--quick]
  nimbench compare <a.json> <b.json>
workloads: cell_sim cell_ideal cell_sharded cell_cold sweep_fig13";

/// `--flag value` pairs and bare words of a command line.
#[derive(Debug, Default, PartialEq)]
struct Args {
    words: Vec<String>,
    flags: Vec<(String, String)>,
    quick: bool,
}

fn parse_args(argv: impl IntoIterator<Item = String>) -> Result<Args, String> {
    let mut args = Args::default();
    let mut argv = argv.into_iter();
    while let Some(a) = argv.next() {
        if a == "--quick" {
            args.quick = true;
        } else if let Some(flag) = a.strip_prefix("--") {
            let value = argv
                .next()
                .ok_or_else(|| format!("--{flag} needs a value"))?;
            args.flags.push((flag.to_string(), value));
        } else {
            args.words.push(a);
        }
    }
    Ok(args)
}

impl Args {
    fn flag<T: std::str::FromStr>(&self, name: &str, default: T) -> Result<T, String> {
        match self.flags.iter().find(|(k, _)| k == name) {
            None => Ok(default),
            Some((_, v)) => v
                .parse()
                .map_err(|_| format!("--{name}: cannot read {v:?}")),
        }
    }

    fn only(&self, allowed: &[&str]) -> Result<(), String> {
        match self
            .flags
            .iter()
            .find(|(k, _)| !allowed.contains(&k.as_str()))
        {
            Some((k, _)) => Err(format!("unknown option --{k}")),
            None => Ok(()),
        }
    }

    fn seconds(&self) -> Result<f64, String> {
        let s: f64 = self.flag("seconds", spec::RUN_SECONDS)?;
        if s.is_finite() && (0.0..=3600.0).contains(&s) {
            Ok(s)
        } else {
            Err(format!("--seconds: {s} is outside 0..=3600"))
        }
    }
}

/// One measured run: prints the detail line, then the result line. A
/// run that printed its result has done its job whatever the result
/// says — `correct: false` is for the reader of the line to act on.
fn run_one(args: &Args) -> Result<bool, String> {
    args.only(&["workload", "seed", "seconds", "trace"])?;
    let name: String = args.flag("workload", String::new())?;
    let workload = spec::workload(&name).ok_or_else(|| format!("unknown workload {name:?}"))?;
    let ctx = run::Ctx {
        seed: args.flag("seed", 42)?,
        seconds: args.seconds()?,
        quick: args.quick,
        nproc: host::nproc(),
    };
    let outcome = match args.flag("trace", 0u8)? {
        0 => run::measure(workload, &ctx),
        1 => traced::trace(workload, &ctx),
        t => return Err(format!("--trace: {t} is neither 0 nor 1")),
    };
    let tally = &outcome.tally;
    // A run that attempted nothing measured nothing.
    let correct = tally.failed == 0 && tally.attempted > 0;
    let mut metrics = Value::obj();
    for (name, value, unit) in &outcome.metrics {
        metrics.set(name, Value::obj().with("value", *value).with("unit", *unit));
    }
    let failures: Vec<Value> = tally.failures.iter().map(|f| f.as_str().into()).collect();
    let detail = outcome.detail.with("failures", failures);
    let result = Value::obj()
        .with("correct", correct)
        .with("attempted", tally.attempted.max(1))
        .with("failed", tally.failed)
        .with("metrics", metrics);
    // A reader that went away is an error to report, not a panic.
    let mut out = std::io::stdout().lock();
    writeln!(out, "{}", Value::obj().with("detail", detail).to_line())
        .and_then(|()| writeln!(out, "{}", result.to_line()))
        .map_err(|e| format!("stdout: {e}"))?;
    Ok(true)
}

fn dispatch(args: &Args) -> Result<bool, String> {
    let all_args = || -> Result<driver::AllArgs, String> {
        args.only(&["seed", "reps", "seconds"])?;
        Ok(driver::AllArgs {
            seed: args.flag("seed", 42)?,
            reps: args.flag("reps", if args.quick { 1 } else { 7 })?,
            // `--quick` runs each run section once.
            seconds: if args.quick { 0.0 } else { args.seconds()? },
            quick: args.quick,
        })
    };
    match args.words.iter().map(String::as_str).collect::<Vec<_>>()[..] {
        [] if !args.flags.is_empty() => run_one(args),
        ["all"] => driver::all(&all_args()?),
        ["trace"] => driver::trace(&all_args()?),
        ["compare", a, b] => compare::compare(a, b),
        _ => Err(USAGE.to_string()),
    }
}

fn main() -> ExitCode {
    // The simulator's builders read these when they are constructed;
    // nothing measured here may depend on the caller's shell.
    for var in host::SCRUBBED_ENV {
        // Nothing else runs yet: no thread can be reading the environment.
        std::env::remove_var(var);
    }
    match parse_args(std::env::args().skip(1)).and_then(|args| dispatch(&args)) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(e) => {
            eprintln!("nimbench: {e}");
            ExitCode::from(2)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(line: &str) -> Result<Args, String> {
        parse_args(line.split_whitespace().map(String::from))
    }

    #[test]
    fn the_contract_command_line_parses() {
        let a = parse("--workload cell_cold --seed 11 --seconds 10 --trace 1").unwrap();
        assert!(a.words.is_empty() && !a.quick);
        assert_eq!(a.flag("workload", String::new()).unwrap(), "cell_cold");
        assert_eq!(a.flag("seed", 42u64).unwrap(), 11);
        assert_eq!(a.seconds().unwrap(), 10.0);
        assert_eq!(a.flag("trace", 0u8).unwrap(), 1);
        assert!(a.only(&["workload", "seed", "seconds", "trace"]).is_ok());
        assert!(a.only(&["seed"]).is_err());
    }

    #[test]
    fn defaults_quick_and_bad_input() {
        let a = parse("all --quick").unwrap();
        assert_eq!(a.words, ["all"]);
        assert!(a.quick);
        assert_eq!(a.flag("seed", 42u64).unwrap(), 42);
        assert_eq!(a.seconds().unwrap(), spec::RUN_SECONDS);
        assert!(parse("all --seed").is_err());
        assert!(parse("--seed x").unwrap().flag("seed", 42u64).is_err());
        assert!(parse("--seconds -1").unwrap().seconds().is_err());
        assert!(parse("--seconds nan").unwrap().seconds().is_err());
        assert!(dispatch(&parse("frobnicate").unwrap()).is_err());
        assert!(dispatch(&parse("--workload nope").unwrap()).is_err());
    }
}
