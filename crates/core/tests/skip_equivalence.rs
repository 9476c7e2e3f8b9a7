//! Dead-cycle elision must be invisible in the results: a run with
//! horizon skipping enabled and the same seeded run forced through the
//! naive one-tick-per-cycle loop (`horizon_skipping(false)`) must agree
//! on every report field, the per-cluster L2 hit/miss matrix, the
//! epoch-sample table, and the final cycle.

use std::fmt::Write as _;

use nim_core::{RunReport, Scheme, SystemBuilder};
use nim_obs::{Obs, ObsConfig};
use nim_types::SystemConfig;
use nim_workload::BenchmarkProfile;

/// Everything a run can disagree on, as one comparable blob.
#[derive(PartialEq, Debug)]
struct Fingerprint {
    report: RunReport,
    final_cycle: u64,
    /// `l2/hits/{local}/{serve}` + `l2/miss_from/{local}` counters.
    hit_matrix: String,
    /// Epoch-sampled rows (cycle-stamped), via the trace export with the
    /// wall-clock-dependent summary line stripped.
    samples: String,
}

fn run_one(
    scheme: Scheme,
    profile: &BenchmarkProfile,
    narrow_bus: bool,
    skip: bool,
) -> Fingerprint {
    let mut cfg = SystemConfig::default();
    if narrow_bus {
        // A 32-bit bus serialises each 128-bit flit over 4 cycles,
        // creating exactly the traffic-in-flight dead spans the horizon
        // skip exists for.
        cfg.network.bus_width_bits = 32;
    }
    let obs = Obs::new(ObsConfig {
        sample_every: 2_000,
        ..ObsConfig::default()
    });
    let mut sys = SystemBuilder::new(scheme)
        .config(cfg)
        .seed(42)
        .warmup_transactions(50)
        .sampled_transactions(400)
        .horizon_skipping(skip)
        .observability(obs.clone())
        .build()
        .expect("system builds");
    let report = sys.run(profile).expect("run completes");
    let final_cycle = sys.network().now().0;
    let hit_matrix = obs
        .with_metrics(|m| {
            let mut s = String::new();
            for (name, metric) in m.with_prefix("l2/hits/") {
                let _ = writeln!(s, "{name} = {metric:?}");
            }
            for (name, metric) in m.with_prefix("l2/miss_from/") {
                let _ = writeln!(s, "{name} = {metric:?}");
            }
            s
        })
        .expect("obs enabled");
    let mut trace = Vec::new();
    obs.export_trace(&mut trace).expect("trace export");
    let samples = String::from_utf8(trace)
        .expect("utf-8 trace")
        .lines()
        .filter(|l| !l.contains("trace_summary"))
        .collect::<Vec<_>>()
        .join("\n");
    Fingerprint {
        report,
        final_cycle,
        hit_matrix,
        samples,
    }
}

/// One test fn on purpose: each cell simulates a full (small) run twice,
/// and keeping them serial bounds peak memory in debug CI.
#[test]
fn skipping_matches_naive_per_cycle_mode_bit_for_bit() {
    let benchmarks = [BenchmarkProfile::art(), BenchmarkProfile::swim()];
    let mut cells = Vec::new();
    for profile in &benchmarks {
        for &scheme in &Scheme::ALL {
            cells.push((scheme, profile, false));
        }
    }
    // Narrow-bus variants: serialisation opens in-flight dead spans, so
    // the skip path actually fires on the bus/router horizons rather
    // than only on idle gaps.
    cells.push((Scheme::CmpSnuca3d, &benchmarks[0], true));
    cells.push((Scheme::CmpDnuca3d, &benchmarks[1], true));

    for (scheme, profile, narrow_bus) in cells {
        let naive = run_one(scheme, profile, narrow_bus, false);
        let skipping = run_one(scheme, profile, narrow_bus, true);
        assert_eq!(
            naive, skipping,
            "{scheme:?}/{}/narrow_bus={narrow_bus}: horizon skipping must be \
             bit-identical to the naive per-cycle loop",
            profile.name
        );
    }
}
