//! The parallel sweep executor must be invisible in the results: any
//! thread count yields the same reports, in the same order, every time.

use nim_core::experiments::{run_cells, ExperimentScale, SweepSpec};
use nim_core::parallel::set_jobs_override;
use nim_core::Scheme;
use nim_workload::BenchmarkProfile;

/// One test fn on purpose: the jobs override is process-global, and the
/// test harness runs `#[test]` fns concurrently.
#[test]
fn parallel_sweep_is_bit_identical_to_sequential_and_repeat_stable() {
    // Small enough for debug builds, varied enough to exercise every
    // scheme plus the layer/pillar override paths.
    let scale = ExperimentScale {
        seed: 42,
        warmup: 50,
        sample: 400,
    };
    let benchmarks = [BenchmarkProfile::art(), BenchmarkProfile::swim()];
    let mut specs = Vec::new();
    for bi in 0..benchmarks.len() {
        for &scheme in &Scheme::ALL {
            specs.push(SweepSpec::new(scheme, bi));
        }
    }
    specs.push(SweepSpec::new(Scheme::CmpSnuca3d, 0).layers(4));
    specs.push(SweepSpec::new(Scheme::CmpDnuca3d, 1).pillars(4));

    let run = |jobs: usize| {
        set_jobs_override(Some(jobs));
        let reports = run_cells(&benchmarks, scale, &specs).expect("sweep runs");
        set_jobs_override(None);
        reports
    };

    let sequential = run(1);
    let parallel = run(4);
    assert_eq!(
        sequential, parallel,
        "jobs=4 must reproduce the jobs=1 sweep bit-for-bit"
    );
    assert_eq!(parallel, run(4), "jobs=4 must be repeat-stable");
}
