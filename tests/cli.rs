//! The `nim` binary at its surface: a flag either changes what runs or
//! is refused — never silently dropped.

use std::collections::BTreeSet;
use std::path::{Path, PathBuf};
use std::process::{Command, Output};

use network_in_memory::core::experiments::{ExperimentScale, SweepSpec};
use network_in_memory::core::Scheme;
use network_in_memory::workload::BenchmarkProfile;

fn nim(line: &str) -> Output {
    Command::new(env!("CARGO_BIN_EXE_nim"))
        .args(line.split_whitespace())
        .output()
        .expect("the nim binary runs")
}

fn stdout(out: &Output) -> String {
    String::from_utf8(out.stdout.clone()).expect("utf-8 output")
}

/// A failed invocation's stderr; panics if `line` succeeded.
fn refused(line: &str) -> String {
    let out = nim(line);
    assert_eq!(out.status.code(), Some(1), "`nim {line}` must exit 1");
    String::from_utf8(out.stderr).expect("utf-8 output")
}

/// A path under the test's scratch directory that does not exist yet.
fn scratch(name: &str) -> PathBuf {
    let path = std::env::temp_dir().join(format!("nim-cli-{}-{name}", std::process::id()));
    assert!(!path.exists());
    path
}

/// The `CMP-*` rows of a breakdown table: scheme label, then the printed
/// numbers.
fn breakdown_rows(line: &str) -> Vec<(String, Vec<String>)> {
    let out = nim(line);
    assert!(out.status.success(), "`nim {line}` failed");
    let text = stdout(&out);
    let rows = text.lines().filter(|l| l.starts_with("CMP-"));
    let row = |l: &str| {
        let mut words = l.split_whitespace().map(String::from);
        (words.next().expect("a label"), words.collect())
    };
    rows.map(row).collect()
}

#[test]
fn breakdown_honours_every_cell_axis() {
    let base = "breakdown --bench art --warmup 50 --sample 300";
    let two = breakdown_rows(base);
    let four = breakdown_rows(&format!("{base} --layers 4"));
    assert_eq!(two.len(), 4);
    // The 2D schemes flatten to one layer whatever the flag says; the 3D
    // rows are other simulations.
    assert_eq!(two[..2], four[..2]);
    assert_ne!(two[2], four[2]);
    assert_ne!(two[3], four[3]);
    // Each row is the cell `nim run --scheme <s> --layers 4` simulates.
    let scale = ExperimentScale {
        seed: 42,
        warmup: 50,
        sample: 300,
    };
    for (scheme, (label, printed)) in Scheme::ALL.iter().zip(&four) {
        assert_eq!(label, scheme.label());
        let cell = SweepSpec::new(*scheme, 0).layers(4);
        let mut system = cell.builder(scale).build().expect("the cell builds");
        let report = system.run(&BenchmarkProfile::art()).expect("the cell runs");
        let phases = report.latency_breakdown();
        let total: f64 = phases.iter().sum();
        let expected = phases.iter().chain([&total]).map(|v| format!("{v:.2}"));
        assert_eq!(printed, &expected.collect::<Vec<_>>(), "{label}");
    }
}

/// What the parser's refusals (`nim.rs`'s own tests check their
/// wording) do to the process: exit 1 with one `error:` line, and no
/// file written.
#[test]
fn flags_only_a_single_run_can_honour_are_refused_elsewhere() {
    let (trace, metrics) = (scratch("t.json"), scratch("m.json"));
    let flags = format!(
        "--trace-out {} --metrics-out {}",
        trace.display(),
        metrics.display()
    );
    for line in [
        format!("compare --bench art {flags}"),
        "breakdown --bench art --layers 4 --fabric ideal --resume /nonexistent".into(),
    ] {
        let err = refused(&line);
        assert!(
            err.starts_with("error: ") && err.lines().count() == 1,
            "{err}"
        );
    }
    assert!(!trace.exists() && !metrics.exists(), "nothing is written");
}

#[test]
fn a_mixed_trace_filter_is_refused() {
    // `packet,-hop` once recorded thousands of `hop` events.
    let trace = scratch("mixed.json");
    let err = refused(&format!(
        "run --warmup 20 --sample 50 --trace-filter packet,-hop --trace-out {}",
        trace.display()
    ));
    assert!(
        err.contains("--trace-filter") && err.contains("'-hop'"),
        "{err}"
    );
    assert!(!trace.exists(), "nothing is written");
}

#[test]
fn an_unwritable_output_path_fails_before_the_run() {
    for flag in ["--trace-out", "--metrics-out"] {
        let out = nim(&format!(
            "run --warmup 20 --sample 100 {flag} /nonexistent/x"
        ));
        assert_eq!(out.status.code(), Some(1), "{flag}");
        let err = String::from_utf8(out.stderr.clone()).expect("utf-8 output");
        assert!(err.contains("/nonexistent/x"), "{err}");
        assert!(
            !stdout(&out).contains("fp 0x"),
            "{flag}: nothing was simulated"
        );
    }
}

/// The `--flag` words of `text`.
fn flags(text: &str) -> BTreeSet<&str> {
    let word = |at: usize| {
        let rest = &text[at..];
        let end = rest.find(|c: char| !c.is_ascii_lowercase() && !c.is_ascii_digit() && c != '-');
        &rest[..end.unwrap_or(rest.len())]
    };
    let words = text.match_indices("--").map(|(at, _)| word(at));
    words.filter(|w| w.len() > 2 && !w.ends_with('-')).collect()
}

#[test]
fn help_the_parser_and_the_documents_agree() {
    let help = stdout(&nim("help"));
    let known = flags(&help);
    assert!(
        known.len() == 17 && known.contains("--trace-txn-sample"),
        "{known:?}"
    );
    // Every flag `nim help` prints is one the parser knows.
    for flag in &known {
        let err = refused(&format!("run {flag}"));
        assert!(
            err.contains(&format!("{flag} needs a value")),
            "{flag}: {err}"
        );
    }
    // Every flag a document names is `nim help`'s, or one of cargo's own.
    const CARGO: [&str; 9] = [
        "--release",
        "--bin",
        "--example",
        "--workspace",
        "--offline",
        "--manifest-path",
        "--quick",
        "--open",
        "--no-deps",
    ];
    for doc in ["README.md", "EXPERIMENTS.md", "DESIGN.md"] {
        let text = std::fs::read_to_string(Path::new(env!("CARGO_MANIFEST_DIR")).join(doc));
        let text = text.expect("the document exists");
        let unknown: Vec<&str> = flags(&text)
            .into_iter()
            .filter(|flag| !known.contains(flag) && !CARGO.contains(flag))
            .collect();
        assert!(
            unknown.is_empty(),
            "{doc} names {unknown:?}, which `nim help` does not"
        );
    }
}

#[test]
fn a_lone_snapshot_with_no_warmup_boundary_is_refused() {
    let image = scratch("x.img");
    refused(&format!(
        "run --snapshot-out {} --warmup 0",
        image.display()
    ));
    assert!(!image.exists(), "nothing is written");
}

/// The `CMP-` report line of a successful `nim` invocation.
fn report_line(line: &str) -> String {
    let out = nim(line);
    assert!(out.status.success(), "`nim {line}` failed");
    let text = stdout(&out);
    let row = text.lines().find(|l| l.starts_with("CMP-"));
    row.expect("a report line").to_string()
}

#[test]
fn resume_replays_the_image_to_its_point() {
    // Sampling on: the pause at the warmup boundary need not sit on the
    // epoch grid, since any cycle is a legal pause.
    let image = scratch("rt.img");
    let cell = "--scheme snuca3d --bench art --warmup 40 --sample 200 --sample-every 70";
    let whole = report_line(&format!("run {cell}"));
    let written = report_line(&format!("run {cell} --snapshot-out {}", image.display()));
    assert_eq!(written, whole, "pausing to write the image changes nothing");
    let resumed = report_line(&format!("run --resume {}", image.display()));
    assert_eq!(resumed, whole);
    // A flipped bit is a typed refusal, not a different run.
    let mut bytes = std::fs::read(&image).expect("the image was written");
    let at = bytes.len() / 2;
    bytes[at] ^= 0x10;
    std::fs::write(&image, bytes).expect("the image is ours to rewrite");
    let err = refused(&format!("run --resume {}", image.display()));
    assert!(err.contains("checksum mismatch"), "{err}");
    std::fs::remove_file(&image).expect("the image is ours to remove");
}

#[test]
fn zero_is_not_a_scale() {
    // Zero sampled transactions used to print an all-zero row (and
    // `report fig13` a 9.00 "speedup") with exit 0.
    for line in ["run --sample 0", "report fig13 --sample 0"] {
        let err = refused(line);
        assert!(err.contains("--sample must be nonzero"), "{line}: {err}");
    }
    let help = stdout(&nim("help"));
    assert_eq!(help.matches(", nonzero").count(), 1, "{help}");
}

#[test]
fn retired_flags_and_commands_are_refused() {
    let retired = "--shards 2|--topology 8-layer|--placements corners|--fabric latency-table|\
                   --snapshot-every 100";
    for retired in retired.split('|') {
        let err = refused(&format!("run {retired}"));
        let unknown = err.contains("unknown option") || err.contains("unknown fabric");
        assert!(unknown, "{retired}: {err}");
    }
    let err = refused("scale --layers 2");
    assert!(err.contains("unknown command 'scale'"), "{err}");
}

#[test]
fn resume_takes_no_other_flag() {
    // The parser refuses any flag beside --resume (`nim.rs` checks the
    // wording); the process must not have written anything either.
    let (trace, image) = (scratch("r.json"), scratch("r.img"));
    for line in [
        format!("run --resume /nonexistent --trace-out {}", trace.display()),
        format!(
            "run --snapshot-out {} --resume /nonexistent",
            image.display()
        ),
    ] {
        refused(&line);
    }
    assert!(!trace.exists() && !image.exists(), "nothing is written");
    // Alone, the flag gets as far as reading the image.
    assert!(refused("run --resume /nonexistent").contains("No such file"));
}

#[test]
fn report_runs_the_named_exhibits_and_counts_its_cells() {
    let out = nim("report table2 fig18 fig17 --warmup 20 --sample 100");
    assert!(out.status.success());
    let err = String::from_utf8(out.stderr.clone()).expect("utf-8 output");
    // Figure 17's 12 cells and Figure 18's 8 share nothing at this size.
    assert!(err.contains("cells: 20 requested, 20 simulated"), "{err}");
    let text = stdout(&out);
    let heads: Vec<&str> = text.lines().filter(|l| l.starts_with("## ")).collect();
    assert_eq!(heads.len(), 3);
    // Whatever the order of the ids, the record prints in its own.
    assert!(heads[0].starts_with("## Table 2") && heads[2].starts_with("## Figure 18"));
    assert!(
        text.contains("  swim, 8 -> 2 pillars: "),
        "claim lines print"
    );
    let err = refused("report fig99");
    assert!(err.contains("fig99") && err.contains("fig18"), "{err}");
}
