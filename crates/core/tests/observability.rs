//! The observability spine through the whole system: an enabled [`Obs`]
//! handle attached at build time collects trace events, epoch samples,
//! and final metrics from a real run; a disabled handle stays inert.

use nim_core::{Scheme, SystemBuilder};
use nim_obs::{Category, CategoryMask, Obs, ObsConfig};
use nim_workload::BenchmarkProfile;

fn run_with(obs: Obs) {
    SystemBuilder::new(Scheme::CmpDnuca3d)
        .seed(11)
        .warmup_transactions(100)
        .sampled_transactions(2_000)
        .observability(obs)
        .build()
        .unwrap()
        .run(&BenchmarkProfile::swim())
        .unwrap();
}

#[test]
fn a_traced_run_captures_every_pillar_of_the_simulator() {
    let obs = Obs::new(ObsConfig {
        trace: true,
        sample_every: 1_000,
        ..ObsConfig::default()
    });
    run_with(obs.clone());
    assert!(obs.event_count() > 0);

    let mut buf = Vec::new();
    obs.export_trace(&mut buf).unwrap();
    let text = String::from_utf8(buf).unwrap();
    // Events from the NoC, the dTDMA buses, the search machinery, and
    // the migration engine all made it into one trace.
    for needle in [
        "\"inject\"",
        "\"deliver\"",
        "\"slot_grant\"",
        "\"probe\"",
        "search_step",
    ] {
        assert!(text.contains(needle), "trace missing {needle}");
    }
    assert!(
        text.contains("migration_start"),
        "DNUCA-3D run should migrate"
    );
    assert!(
        text.contains("\"ph\":\"C\""),
        "epoch counter samples missing"
    );
    assert!(text.contains("trace_summary"));

    // Final metrics include the per-router utilisation map and the
    // per-cluster hit matrix.
    let metrics = obs
        .with_metrics(|m| {
            (
                m.iter()
                    .filter(|(k, _)| k.starts_with("noc/traversals/"))
                    .count(),
                m.iter().filter(|(k, _)| k.starts_with("l2/hits/")).count(),
            )
        })
        .unwrap();
    assert!(metrics.0 > 0, "no per-router traversal counters published");
    assert!(metrics.1 > 0, "no hit-matrix entries recorded");
    assert!(obs.counter("sys/l2_transactions") >= 2_000);
    assert!(obs.cycles_per_sec().is_some_and(|r| r > 0.0));
}

#[test]
fn category_filter_limits_what_is_recorded() {
    let obs = Obs::new(ObsConfig {
        trace: true,
        mask: CategoryMask::NONE.with(Category::Migration),
        ..ObsConfig::default()
    });
    run_with(obs.clone());
    let mut buf = Vec::new();
    obs.export_trace(&mut buf).unwrap();
    let text = String::from_utf8(buf).unwrap();
    assert!(text.contains("migration_start"));
    assert!(
        !text.contains("\"inject\""),
        "packet events should be filtered"
    );
    assert!(
        !text.contains("\"probe\""),
        "search events should be filtered"
    );
}

#[test]
fn runs_are_identical_with_and_without_observability() {
    let run = |obs: Obs| {
        SystemBuilder::new(Scheme::CmpDnuca3d)
            .seed(5)
            .warmup_transactions(0)
            .sampled_transactions(1_000)
            .observability(obs)
            .build()
            .unwrap()
            .run(&BenchmarkProfile::swim())
            .unwrap()
    };
    let plain = run(Obs::disabled());
    let traced = run(Obs::new(ObsConfig {
        trace: true,
        sample_every: 500,
        ..ObsConfig::default()
    }));
    // Observation must not perturb the simulation.
    assert_eq!(plain.cycles, traced.cycles);
    assert_eq!(plain.counters, traced.counters);
}
