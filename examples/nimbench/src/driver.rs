//! `nimbench all` / `nimbench trace`: runs every workload, each
//! repetition in a fresh child process of this program, strictly one at
//! a time and round-robin across workloads so a slow minute of a shared
//! host falls on all of them alike; then one traced pass for the
//! per-layer numbers. Prints every metric by name and unit and writes
//! `results/{latest.json, history.jsonl, trace.json}`.

use std::collections::BTreeMap;
use std::io::Write as _;
use std::process::{Command, Stdio};
use std::time::{Instant, SystemTime, UNIX_EPOCH};

use crate::host;
use crate::json::{self, Value};
use crate::spec::{index_of, Source, END_TO_END, PER_LAYER, WORKLOADS};
use crate::stats::{median, summarize};

pub struct AllArgs {
    pub seed: u64,
    pub reps: usize,
    pub seconds: f64,
    pub quick: bool,
}

const RESULTS_DIR: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/results");

/// What one child run printed.
struct Child {
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: Vec<(String, f64, String)>,
    detail: Value,
    steal_ticks: u64,
}

/// The command line of a child run. Public to the crate so a test can
/// check the environment it would start with.
pub(crate) fn child_command(
    workload: &str,
    args: &AllArgs,
    trace: bool,
) -> std::io::Result<Command> {
    let mut cmd = Command::new(std::env::current_exe()?);
    cmd.args(["--workload", workload])
        .args(["--seed", &args.seed.to_string()])
        .args(["--seconds", &args.seconds.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }]);
    if args.quick {
        cmd.arg("--quick");
    }
    host::scrub_env(&mut cmd);
    cmd.stdin(Stdio::null())
        .stdout(Stdio::piped())
        .stderr(Stdio::inherit());
    Ok(cmd)
}

fn run_child(workload: &str, args: &AllArgs, trace: bool) -> Result<Child, String> {
    let mut cmd = child_command(workload, args, trace).map_err(|e| format!("current_exe: {e}"))?;
    let steal_before = host::steal_ticks();
    let out = cmd
        .output()
        .map_err(|e| format!("spawning {workload}: {e}"))?;
    let steal_ticks = host::steal_ticks().saturating_sub(steal_before);
    let stdout = String::from_utf8_lossy(&out.stdout);
    let mut lines = stdout.lines().rev().filter(|l| !l.trim().is_empty());
    let result = lines
        .next()
        .ok_or_else(|| format!("{workload}: child printed nothing ({})", out.status))?;
    let result = json::parse(result).map_err(|e| format!("{workload}: result line: {e}"))?;
    let detail = lines
        .next()
        .and_then(|l| json::parse(l).ok())
        .and_then(|v| v.get("detail").cloned())
        .unwrap_or_else(Value::obj);
    let count = |key: &str| result.get(key).and_then(Value::as_f64).unwrap_or(0.0) as u64;
    let metrics = result
        .get("metrics")
        .map(Value::entries)
        .unwrap_or_default()
        .iter()
        .map(|(name, m)| {
            (
                name.clone(),
                m.get("value").and_then(Value::as_f64).unwrap_or(0.0),
                m.get("unit")
                    .and_then(Value::as_str)
                    .unwrap_or("")
                    .to_string(),
            )
        })
        .collect();
    Ok(Child {
        correct: result.get("correct").and_then(Value::as_bool) == Some(true),
        attempted: count("attempted"),
        failed: count("failed"),
        metrics,
        detail,
        steal_ticks,
    })
}

/// The untraced repetitions of one workload.
#[derive(Default)]
struct Measured {
    reps: BTreeMap<String, Vec<f64>>,
    attempted: u64,
    failed: u64,
    fingerprints: Vec<String>,
    sim: Option<Value>,
    steal_ticks: Vec<f64>,
    run_wall_s: Vec<Value>,
}

impl Measured {
    fn reps_of(&self, metric: &str) -> &[f64] {
        self.reps.get(metric).map_or(&[], Vec::as_slice)
    }

    fn fail_ratio(&self) -> f64 {
        if self.attempted == 0 {
            1.0
        } else {
            self.failed as f64 / self.attempted as f64
        }
    }
}

fn progress(msg: &str) {
    eprintln!("nimbench: {msg}");
}

/// Round-robin repetitions: w1 w2 … w5, w1 w2 … w5, ….
fn measure_pass(args: &AllArgs, problems: &mut Vec<String>) -> Vec<Measured> {
    let mut measured: Vec<Measured> = WORKLOADS.iter().map(|_| Measured::default()).collect();
    for rep in 0..args.reps {
        for (w, m) in WORKLOADS.iter().zip(&mut measured) {
            let started = Instant::now();
            match run_child(w.name, args, false) {
                Ok(child) => {
                    progress(&format!(
                        "rep {}/{} {:<13} {:>5.1} s  {}",
                        rep + 1,
                        args.reps,
                        w.name,
                        started.elapsed().as_secs_f64(),
                        if child.correct { "ok" } else { "FAILED" }
                    ));
                    m.attempted += child.attempted;
                    m.failed += child.failed;
                    if !child.correct && child.failed == 0 {
                        // Incorrect with no failed operation: it attempted none.
                        m.attempted += 1;
                        m.failed += 1;
                    }
                    for (name, value, _) in child.metrics {
                        m.reps.entry(name).or_default().push(value);
                    }
                    if let Some(fp) = child.detail.get("fingerprint").and_then(Value::as_str) {
                        m.fingerprints.push(fp.to_string());
                    }
                    if let Some(sim) = child.detail.get("sim") {
                        if m.sim.as_ref().is_some_and(|first| first != sim) {
                            problems.push(format!(
                                "{}: simulated figures differ between repetitions",
                                w.name
                            ));
                        }
                        m.sim.get_or_insert_with(|| sim.clone());
                    }
                    m.steal_ticks.push(child.steal_ticks as f64);
                    m.run_wall_s.push(
                        child
                            .detail
                            .get("run_wall_s")
                            .cloned()
                            .unwrap_or(Value::Arr(Vec::new())),
                    );
                }
                Err(e) => {
                    m.attempted += 1;
                    m.failed += 1;
                    problems.push(e);
                }
            }
        }
    }
    for (w, m) in WORKLOADS.iter().zip(&mut measured) {
        if let Some(first) = m.fingerprints.first() {
            let differing = m.fingerprints.iter().filter(|f| *f != first).count() as u64;
            if differing > 0 {
                m.failed += differing;
                problems.push(format!(
                    "{}: {differing} repetitions differ from the first fingerprint",
                    w.name
                ));
            }
        }
    }
    // cell_sharded is exactly cell_sim, cut: same fingerprint.
    let sharded = index_of("cell_sharded");
    let fp_of = |i: usize| measured[i].fingerprints.first().cloned();
    if let (Some(sim), Some(cut)) = (fp_of(index_of("cell_sim")), fp_of(sharded)) {
        if sim != cut {
            problems.push(format!("cell_sharded fingerprint {cut} != cell_sim {sim}"));
            measured[sharded].failed += 1;
        }
    }
    measured
}

/// The traced run of one workload.
struct Traced {
    metrics: Vec<(String, f64, String)>,
    extras: Value,
    spans: Vec<Value>,
    attempted: u64,
    failed: u64,
}

fn traced_pass(args: &AllArgs, problems: &mut Vec<String>) -> Vec<Option<Traced>> {
    WORKLOADS
        .iter()
        .map(|w| {
            let started = Instant::now();
            match run_child(w.name, args, true) {
                Ok(child) => {
                    progress(&format!(
                        "traced   {:<13} {:>5.1} s  {}",
                        w.name,
                        started.elapsed().as_secs_f64(),
                        if child.correct { "ok" } else { "FAILED" }
                    ));
                    if !child.correct {
                        problems.push(format!("{}: traced run failed a check", w.name));
                    }
                    Some(Traced {
                        metrics: child.metrics,
                        extras: child
                            .detail
                            .get("extras")
                            .cloned()
                            .unwrap_or_else(Value::obj),
                        spans: child
                            .detail
                            .get("spans")
                            .map(|s| s.items().to_vec())
                            .unwrap_or_default(),
                        attempted: child.attempted,
                        failed: child.failed.max(u64::from(!child.correct)),
                    })
                }
                Err(e) => {
                    problems.push(e);
                    None
                }
            }
        })
        .collect()
}

fn fmt(v: f64) -> String {
    let a = v.abs();
    if v.fract() == 0.0 && a < 1e15 {
        format!("{v:.0}")
    } else if a >= 100.0 {
        format!("{v:.1}")
    } else if a >= 1.0 {
        format!("{v:.3}")
    } else if a >= 1e-3 {
        format!("{v:.6}")
    } else {
        format!("{v:.3e}")
    }
}

/// Prints the end-to-end table and returns its JSON form per workload.
fn report_end_to_end(measured: &[Measured]) -> Vec<Value> {
    println!("\n== end-to-end (tracing off; median over repetitions, each in a fresh process) ==");
    println!(
        "{:<13} {:<22} {:<9} {:>14} {:>14} {:>14} {:>8} {:>3}  status",
        "workload", "metric", "unit", "median", "q1", "q3", "iqr/med", "n"
    );
    let mut out = Vec::new();
    for (w, m) in WORKLOADS.iter().zip(measured) {
        let mut e2e = Value::obj();
        for spec in &END_TO_END {
            let reps = m.reps_of(spec.name);
            let s = summarize(reps);
            // A spread wider than the bound cannot show a regression of
            // the bound: say so instead of implying "unchanged".
            let resolved = s.iqr_over_median <= spec.bound;
            println!(
                "{:<13} {:<22} {:<9} {:>14} {:>14} {:>14} {:>7.1}% {:>3}  {}",
                w.name,
                spec.name,
                spec.unit,
                fmt(s.median),
                fmt(s.q1),
                fmt(s.q3),
                s.iqr_over_median * 100.0,
                s.n,
                if resolved { "resolved" } else { "unresolved" }
            );
            e2e.set(
                spec.name,
                Value::obj()
                    .with("unit", spec.unit)
                    .with("better", spec.better.name())
                    .with("bound", spec.bound)
                    .with("median", s.median)
                    .with("q1", s.q1)
                    .with("q3", s.q3)
                    .with("min", s.min)
                    .with("max", s.max)
                    .with("iqr_over_median", s.iqr_over_median)
                    .with("resolved", resolved)
                    .with("reps", reps),
            );
        }
        let fail_ratio = m.fail_ratio();
        println!(
            "{:<13} {:<22} {:<9} {:>14} {:>44}  ({} of {} cell runs)",
            w.name,
            "fail_ratio",
            "share",
            fmt(fail_ratio),
            "",
            m.failed,
            m.attempted
        );
        for (name, v) in m.sim.as_ref().map(Value::entries).unwrap_or_default() {
            let unit = match name.as_str() {
                "fig13_order_violations" => "count",
                "fig13_delta_err_cy" => "cy",
                _ => "pp",
            };
            println!(
                "{:<13} {:<22} {:<9} {:>14} {:>44}  simulated, exact",
                w.name,
                name,
                unit,
                fmt(v.as_f64().unwrap_or(0.0)),
                ""
            );
        }
        let mut entry = Value::obj()
            .with("why", w.why)
            .with("end_to_end", e2e)
            .with("fail_ratio", fail_ratio)
            .with("attempted", m.attempted)
            .with("failed", m.failed)
            .with(
                "fingerprint",
                m.fingerprints
                    .first()
                    .map_or(Value::Null, |f| f.as_str().into()),
            )
            .with("steal_ticks", &m.steal_ticks[..])
            .with("run_wall_s", m.run_wall_s.clone());
        if let Some(sim) = &m.sim {
            entry.set("sim", sim.clone());
        }
        out.push(entry);
    }
    out
}

/// Prints the per-layer tables and folds them into the per-workload
/// JSON entries.
fn report_per_layer(traced: &[Option<Traced>], entries: &mut [Value]) {
    let value_of = |t: &Traced, name: &str| t.metrics.iter().find(|m| m.0 == name).map(|m| m.1);
    let names: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
    println!("\n== per layer, this workload's own run (one traced pass) ==");
    print!("{:<36} {:<10}", "metric", "unit");
    for n in &names {
        print!(" {n:>14}");
    }
    println!();
    for m in PER_LAYER.iter().filter(|m| m.source != Source::Standalone) {
        if m.layer == "nim-thermal" {
            continue;
        }
        print!("{:<36} {:<10}", m.name, m.unit);
        for t in traced {
            let v = t.as_ref().and_then(|t| value_of(t, m.name));
            print!(" {:>14}", v.map_or("-".into(), fmt));
        }
        println!();
    }
    println!("\n== per layer, standalone drivers (same for every workload; median of the traced runs) ==");
    println!(
        "{:<40} {:<6} {:>16} {:>8}  layer",
        "metric", "unit", "median", "iqr/med"
    );
    for m in PER_LAYER
        .iter()
        .filter(|m| m.source == Source::Standalone || m.layer == "nim-thermal")
    {
        let values: Vec<f64> = traced
            .iter()
            .flatten()
            .filter_map(|t| value_of(t, m.name))
            .collect();
        let s = summarize(&values);
        println!(
            "{:<40} {:<6} {:>16} {:>7.1}%  {}",
            m.name,
            m.unit,
            fmt(s.median),
            s.iqr_over_median * 100.0,
            m.layer
        );
    }
    println!("\n== per layer, in-system differentials and workload-specific figures ==");
    for (w, t) in WORKLOADS.iter().zip(traced) {
        let Some(t) = t else { continue };
        for (name, v) in t.extras.entries() {
            if let (Some(value), Some(unit)) = (
                v.get("value").and_then(Value::as_f64),
                v.get("unit").and_then(Value::as_str),
            ) {
                println!("{:<13} {:<36} {:<6} {:>16}", w.name, name, unit, fmt(value));
            }
        }
    }
    println!("\n== self time by layer (span minus its children), seconds ==");
    for (w, t) in WORKLOADS.iter().zip(traced) {
        let Some(t) = t else { continue };
        let mut by_layer: BTreeMap<&str, f64> = BTreeMap::new();
        for span in &t.spans {
            let layer = span.get("layer").and_then(Value::as_str).unwrap_or("?");
            let self_ns = span.get("self_ns").and_then(Value::as_f64).unwrap_or(0.0);
            *by_layer.entry(layer).or_default() += self_ns / 1e9;
        }
        let line: Vec<String> = by_layer
            .iter()
            .map(|(layer, s)| format!("{layer} {s:.3}"))
            .collect();
        println!("{:<13} {}", w.name, line.join("; "));
    }
    for (entry, t) in entries.iter_mut().zip(traced) {
        let Some(t) = t else { continue };
        let mut layers = Value::obj();
        for (name, value, unit) in &t.metrics {
            layers.set(
                name,
                Value::obj()
                    .with("value", *value)
                    .with("unit", unit.as_str()),
            );
        }
        entry.set("per_layer", layers);
        entry.set("extras", t.extras.clone());
        entry.set("traced_attempted", t.attempted);
        entry.set("traced_failed", t.failed);
    }
}

/// Every metric by name: what it is, and which end-to-end metric on
/// which workload a change to it should move.
fn print_glossary() {
    println!("\n== glossary: end-to-end ==");
    for m in &END_TO_END {
        println!(
            "{:<18} {:<9} better {:<6} bound {:>3.0}%  {}",
            m.name,
            m.unit,
            m.better.name(),
            m.bound * 100.0,
            m.what
        );
    }
    println!("\n== glossary: per layer (layer; better; should move) ==");
    for m in &PER_LAYER {
        println!(
            "{:<40} {:<36} {:<6} {}",
            m.name,
            m.layer,
            m.better.name(),
            m.moves
        );
    }
}

fn write_results(name: &str, text: &str, append: bool) -> Result<(), String> {
    std::fs::create_dir_all(RESULTS_DIR).map_err(|e| format!("{RESULTS_DIR}: {e}"))?;
    let path = format!("{RESULTS_DIR}/{name}");
    let mut file = std::fs::OpenOptions::new()
        .create(true)
        .write(true)
        .append(append)
        .truncate(!append)
        .open(&path)
        .map_err(|e| format!("{path}: {e}"))?;
    file.write_all(text.as_bytes())
        .map_err(|e| format!("{path}: {e}"))
}

/// One span per line, so the file diffs and greps by span.
fn write_trace(traced: &[Option<Traced>]) -> Result<(), String> {
    let lines: Vec<String> = traced
        .iter()
        .flatten()
        .flat_map(|t| t.spans.iter().map(Value::to_line))
        .collect();
    write_results(
        "trace.json",
        &format!("[\n{}\n]\n", lines.join(",\n")),
        false,
    )
}

fn header(args: &AllArgs) -> Value {
    Value::obj()
        .with("schema", "nimbench/1")
        .with(
            "unix_time",
            SystemTime::now()
                .duration_since(UNIX_EPOCH)
                .map_or(0, |d| d.as_secs()),
        )
        .with("seed", args.seed)
        .with("reps", args.reps)
        .with("run_seconds", args.seconds)
        .with("quick", args.quick)
        .with("nproc", host::nproc())
}

/// `nimbench all`. `Ok(false)` when any correctness check failed.
pub fn all(args: &AllArgs) -> Result<bool, String> {
    let mut problems = Vec::new();
    progress(&format!(
        "all: seed {} reps {} seconds {} quick {} nproc {}",
        args.seed,
        args.reps,
        args.seconds,
        args.quick,
        host::nproc()
    ));
    let measured = measure_pass(args, &mut problems);
    let traced = traced_pass(args, &mut problems);
    let mut entries = report_end_to_end(&measured);
    report_per_layer(&traced, &mut entries);

    // Figures that relate two workloads, or describe the rig itself.
    let rate = |name: &str| median(measured[index_of(name)].reps_of("txns_per_s"));
    let shard_speedup = rate("cell_sharded") / rate("cell_sim");
    println!("\n== derived ==");
    println!(
        "{:<36} {:<6} {:>16}  txns_per_s cell_sharded / cell_sim",
        "window.shard_speedup",
        "ratio",
        fmt(shard_speedup)
    );
    let mut derived = Value::obj().with("window.shard_speedup", shard_speedup);
    for (w, m) in WORKLOADS.iter().zip(&measured) {
        let spread = summarize(m.reps_of("txns_per_s")).iqr_over_median;
        let steal: f64 = m.steal_ticks.iter().sum();
        println!(
            "{:<36} {:<6} {:>16}  txns_per_s over repetitions",
            format!("rep.iqr_over_median.{}", w.name),
            "ratio",
            fmt(spread)
        );
        println!(
            "{:<36} {:<6} {:>16}  /proc/stat steal during its repetitions",
            format!("rep.steal_ticks.{}", w.name),
            "ticks",
            fmt(steal)
        );
        derived.set(&format!("rep.iqr_over_median.{}", w.name), spread);
        derived.set(&format!("rep.steal_ticks.{}", w.name), steal);
    }

    print_glossary();

    let mut workloads = Value::obj();
    let mut history = header(args);
    let mut medians = Value::obj();
    for ((w, m), entry) in WORKLOADS.iter().zip(&measured).zip(entries) {
        let mut row = Value::obj();
        for spec in &END_TO_END {
            row.set(spec.name, median(m.reps_of(spec.name)));
        }
        row.set("fail_ratio", m.fail_ratio());
        for (name, v) in m.sim.as_ref().map(Value::entries).unwrap_or_default() {
            row.set(name, v.clone());
        }
        medians.set(w.name, row);
        workloads.set(w.name, entry);
    }
    history.set("medians", medians);
    history.set("window.shard_speedup", shard_speedup);
    let latest = header(args)
        .with("workloads", workloads)
        .with("derived", derived)
        .with(
            "problems",
            Value::Arr(problems.iter().map(|p| p.as_str().into()).collect()),
        );
    write_results("latest.json", &latest.to_pretty(), false)?;
    write_results("history.jsonl", &(history.to_line() + "\n"), true)?;
    write_trace(&traced)?;
    progress(&format!(
        "wrote {RESULTS_DIR}/{{latest.json,history.jsonl,trace.json}}"
    ));

    let failed: u64 = measured.iter().map(|m| m.failed).sum::<u64>()
        + traced.iter().flatten().map(|t| t.failed).sum::<u64>();
    for p in &problems {
        eprintln!("nimbench: PROBLEM: {p}");
    }
    let ok = failed == 0 && problems.is_empty() && traced.iter().all(Option::is_some);
    println!(
        "\ncorrectness: {}",
        if ok { "every check passed" } else { "FAILED" }
    );
    Ok(ok)
}

/// `nimbench trace`: the traced pass alone.
pub fn trace(args: &AllArgs) -> Result<bool, String> {
    let mut problems = Vec::new();
    let traced = traced_pass(args, &mut problems);
    let mut entries: Vec<Value> = WORKLOADS.iter().map(|_| Value::obj()).collect();
    report_per_layer(&traced, &mut entries);
    write_trace(&traced)?;
    for p in &problems {
        eprintln!("nimbench: PROBLEM: {p}");
    }
    Ok(problems.is_empty() && traced.iter().flatten().all(|t| t.failed == 0))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_child_starts_without_the_simulator_environment_knobs() {
        let args = AllArgs {
            seed: 9,
            reps: 1,
            seconds: 0.5,
            quick: true,
        };
        let cmd = child_command("cell_sim", &args, true).unwrap();
        for var in host::SCRUBBED_ENV {
            assert!(
                cmd.get_envs()
                    .any(|(k, v)| k == std::ffi::OsStr::new(var) && v.is_none()),
                "{var} is not removed from the child's environment"
            );
        }
        let argv: Vec<String> = cmd
            .get_args()
            .map(|a| a.to_string_lossy().into_owned())
            .collect();
        assert_eq!(
            argv,
            [
                "--workload",
                "cell_sim",
                "--seed",
                "9",
                "--seconds",
                "0.5",
                "--trace",
                "1",
                "--quick"
            ]
        );
    }

    #[test]
    fn numbers_print_with_digits_that_fit_their_size() {
        assert_eq!(fmt(0.0), "0");
        assert_eq!(fmt(565_168.0), "565168");
        assert_eq!(fmt(1_234_567.8), "1234567.8");
        assert_eq!(fmt(123.456), "123.5");
        assert_eq!(fmt(1.23456), "1.235");
        assert_eq!(fmt(0.012345678), "0.012346");
        assert_eq!(fmt(8.12e-7), "8.120e-7");
    }
}
