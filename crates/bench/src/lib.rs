//! Shared plumbing for the benchmark harness that regenerates every table
//! and figure of the paper's evaluation.
//!
//! * `cargo run --release -p nim-bench --bin tables` — Tables 1–3.
//! * `cargo run --release -p nim-bench --bin figures` — Figures 13–18.
//! * `cargo run --release -p nim-bench --bin report` — both, as Markdown.
//!
//! The experiment scale is controlled by the `NIM_SCALE` environment
//! variable: `quick`, or `full` (the scale the shipped EXPERIMENTS.md
//! numbers were produced at). Simulator speed is measured by
//! `examples/nimbench`, not here.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use nim_core::experiments::ExperimentScale;
use nim_workload::BenchmarkProfile;

/// Reads the experiment scale from `NIM_SCALE` (`quick` or `full`).
pub fn scale_from_env(default_quick: bool) -> ExperimentScale {
    match std::env::var("NIM_SCALE").as_deref() {
        Ok("full") => ExperimentScale::default(),
        Ok("quick") => ExperimentScale::quick(),
        _ if default_quick => ExperimentScale::quick(),
        _ => ExperimentScale::default(),
    }
}

/// The four representative benchmarks of Figures 16–18 (art and galgel
/// with low L1 miss rates, mgrid and swim with high ones — paper §5.2).
pub fn representative_benchmarks() -> Vec<BenchmarkProfile> {
    ["art", "galgel", "mgrid", "swim"]
        .iter()
        .map(|n| BenchmarkProfile::by_name(n).expect("known benchmark"))
        .collect()
}

/// Renders one formatted table cell for a latency value.
pub fn fmt_cy(v: f64) -> String {
    format!("{v:>8.2}")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn representative_set_matches_the_paper() {
        let names: Vec<_> = representative_benchmarks().iter().map(|b| b.name).collect();
        assert_eq!(names, ["art", "galgel", "mgrid", "swim"]);
    }

    #[test]
    fn scale_default_respects_flag() {
        // No env var set in tests: the flag picks the default.
        if std::env::var("NIM_SCALE").is_err() {
            assert_eq!(scale_from_env(true), ExperimentScale::quick());
            assert_eq!(scale_from_env(false), ExperimentScale::default());
        }
    }
}
