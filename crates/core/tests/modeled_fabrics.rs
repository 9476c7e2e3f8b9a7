//! End-to-end tests of the analytic fabric ([`FabricKind::Ideal`]): the
//! protocol engine runs unchanged on top of a latency model instead of
//! the flit-level NoC, so whole runs must complete, stay deterministic,
//! and never lose to the simulated network (contention can only add
//! cycles, never remove them).
//!
//! The flit-exact validation of the underlying zero-load model lives in
//! `nim-noc`'s `fabric_equivalence` test; this file covers the system
//! integration: delivery scheduling and stall detection.

use nim_core::{FabricKind, RunReport, Scheme, SystemBuilder};
use nim_workload::BenchmarkProfile;

fn run_layers(kind: FabricKind, layers: u8) -> RunReport {
    let mut sys = SystemBuilder::new(Scheme::CmpDnuca3d)
        .seed(42)
        .warmup_transactions(50)
        .sampled_transactions(400)
        .layers(layers)
        .fabric(kind)
        .build()
        .expect("system builds");
    sys.run(&BenchmarkProfile::art()).expect("run completes")
}

fn run(kind: FabricKind) -> RunReport {
    run_layers(kind, 2)
}

#[test]
fn modeled_fabrics_complete_whole_runs() {
    let report = run(FabricKind::Ideal);
    assert_eq!(report.counters.l2_transactions, 400);
    assert!(report.cycles > 0);
    // Traffic bypasses the flit-level network entirely, so its
    // statistics stay zero — the analytic model is the only timing
    // source.
    assert_eq!(report.network.packets_delivered, 0);
    assert_eq!(report.network.flit_hops, 0);
}

#[test]
fn ideal_fabric_is_no_slower_than_the_simulated_network() {
    // Mesh, pillar and buffer contention only ever *add* delay on top
    // of the zero-load costs the two fabrics share: under load `sim`
    // must never beat `ideal`, on any of the paper's stacks.
    for layers in [2, 4, 8] {
        let sim = run_layers(FabricKind::Sim, layers);
        let ideal = run_layers(FabricKind::Ideal, layers);
        assert!(
            ideal.cycles <= sim.cycles,
            "{layers} layers: ideal {} cycles vs sim {}",
            ideal.cycles,
            sim.cycles
        );
    }
}

#[test]
fn sim_fabric_still_simulates_flits() {
    let report = run(FabricKind::Sim);
    assert!(report.network.packets_delivered > 0);
    assert!(report.network.flit_hops > 0);
}

#[test]
fn modeled_runs_are_deterministic() {
    let a = run(FabricKind::Ideal).fingerprint();
    let b = run(FabricKind::Ideal).fingerprint();
    assert_eq!(a, b);
}

#[test]
fn fabric_kind_names_round_trip() {
    for kind in FabricKind::ALL {
        assert_eq!(FabricKind::parse(kind.name()), Ok(kind));
    }
    assert_eq!(FabricKind::parse("warp-drive"), Err("warp-drive"));
}
