//! Deterministic micro-scenarios: hand-crafted reference streams drive
//! the full system and the transaction outcomes are checked exactly.
//! Small CPU counts keep every L2 transaction attributable.

use nim_core::experiments::{ExperimentScale, SweepSpec};
use nim_core::{BuildError, FabricKind, RunError, Scheme, SystemBuilder};
use nim_types::{AccessKind, Address, ConfigError, CpuId, SystemConfig, TraceOp};
use nim_workload::{BenchmarkProfile, ReplayTrace};
use proptest::prelude::*;
use std::sync::atomic::{AtomicU32, Ordering};

fn op(kind: AccessKind, addr: u64) -> TraceOp {
    TraceOp {
        gap: 1,
        kind,
        addr: Address(addr),
    }
}

fn trace_for(cpu: u16, ops: &[TraceOp]) -> ReplayTrace {
    let mut trace = ReplayTrace::default();
    for o in ops {
        trace.push(CpuId(cpu), *o);
    }
    trace
}

fn builder(sample: u64, cpus: u32) -> SystemBuilder {
    let cfg = SystemConfig {
        num_cpus: cpus,
        ..SystemConfig::default()
    };
    SystemBuilder::new(Scheme::CmpDnuca3d)
        .config(cfg)
        .prewarm(false)
        .warmup_transactions(0)
        .sampled_transactions(sample)
}

#[test]
fn a_cold_read_misses_and_pays_the_memory_latency() {
    let mut system = builder(1, 1).build().unwrap();
    let mut trace = trace_for(0, &[op(AccessKind::Read, 0x1234_0000)]);
    let report = system.run_with_source("scenario", &mut trace).unwrap();
    assert_eq!(report.counters.l2_transactions, 1);
    assert_eq!(report.counters.l2_misses, 1);
    assert_eq!(report.counters.l2_hits, 0);
    let latency = report.counters.miss_latency_sum;
    assert!(
        latency > 260,
        "a miss must cost more than the 260-cycle memory latency, got {latency}"
    );
    assert!(latency < 800, "but not absurdly more, got {latency}");
}

#[test]
fn a_same_line_reread_is_absorbed_by_the_l1() {
    // Two reads of the same 64 B line: the second hits the L1, so only
    // ONE L2 transaction ever completes and the run stalls short of its
    // 2-transaction target. On either fabric the dried-up trace is
    // reported once nothing is in flight, long before the 2 M-cycle
    // watchdog would fire.
    for fabric in FabricKind::ALL {
        let mut system = builder(2, 1).fabric(fabric).build().unwrap();
        let mut trace = trace_for(
            0,
            &[
                op(AccessKind::Read, 0x1234_0000),
                op(AccessKind::Read, 0x1234_0008),
            ],
        );
        let err = system.run_with_source("scenario", &mut trace).unwrap_err();
        assert!(
            matches!(err, RunError::Stalled { completed: 1, cycle } if cycle < 10_000),
            "{}: got {err:?}",
            fabric.name()
        );
    }
}

#[test]
fn a_store_to_a_fetched_line_hits_the_l2() {
    // Read-miss then write-through store to the same line: the store
    // finds the line in the L2 (an L2 hit) and is far cheaper than the
    // memory fetch.
    let mut system = builder(2, 1).build().unwrap();
    let addr = 0x1234_0000;
    let mut trace = trace_for(
        0,
        &[op(AccessKind::Read, addr), op(AccessKind::Write, addr)],
    );
    let report = system.run_with_source("scenario", &mut trace).unwrap();
    assert_eq!(report.counters.l2_misses, 1, "the cold read");
    assert_eq!(report.counters.l2_hits, 1, "the write-through store");
    assert!(
        report.counters.hit_latency_sum < report.counters.miss_latency_sum / 2,
        "hit {} must be far cheaper than miss {}",
        report.counters.hit_latency_sum,
        report.counters.miss_latency_sum
    );
    assert_eq!(report.counters.step1_hits + report.counters.step2_hits, 1);
}

#[test]
fn a_write_by_another_cpu_invalidates_the_readers_l1() {
    // CPU 0 reads a line (L1 + directory install); CPU 1 writes it later;
    // the directory must send exactly one invalidation to CPU 0.
    let line = 0x7700_0000;
    let mut trace = ReplayTrace::default();
    trace.push(CpuId(0), op(AccessKind::Read, line));
    trace.push(
        CpuId(1),
        TraceOp {
            gap: 2_000, // let CPU 0's read finish first
            kind: AccessKind::Write,
            addr: Address(line),
        },
    );
    let mut system = builder(2, 2).build().unwrap();
    let report = system.run_with_source("scenario", &mut trace).unwrap();
    assert_eq!(report.counters.l2_transactions, 2);
    assert_eq!(
        report.counters.invalidations, 1,
        "the store invalidates exactly the one sharer"
    );
}

#[test]
fn an_ifetch_miss_is_a_first_class_l2_transaction() {
    let mut system = builder(1, 1).build().unwrap();
    let mut trace = trace_for(0, &[op(AccessKind::IFetch, 0x0BAD_C0DE & !63)]);
    let report = system.run_with_source("scenario", &mut trace).unwrap();
    assert_eq!(report.counters.l2_transactions, 1);
    assert_eq!(report.counters.l2_misses, 1);
}

#[test]
fn dried_up_traces_report_a_stall_not_a_hang() {
    let mut system = builder(10, 1).build().unwrap();
    let mut trace = trace_for(0, &[op(AccessKind::Read, 0xABC0)]);
    let start = std::time::Instant::now();
    let err = system.run_with_source("scenario", &mut trace).unwrap_err();
    assert!(
        matches!(err, RunError::Stalled { completed: 1, .. }),
        "{err}"
    );
    assert!(
        start.elapsed().as_secs() < 10,
        "stall detection must be immediate, not a watchdog timeout"
    );
}

#[test]
fn repeated_reads_by_one_cpu_pull_the_line_home() {
    // §4.2.3: data accessed repeatedly by a single processor migrates all
    // the way to that processor's local cluster. The L1 would absorb
    // plain rereads, so each round also touches two lines that conflict
    // in the target's 2-way L1 set, forcing every round back to the L2.
    let target = 0x5A05_0000u64; // home cluster 5 (byte-address bits [16,20))
    let conflict_a = target + 512 * 64; // same L1 set, same home cluster
    let conflict_b = conflict_a + 512 * 64;
    let mut ops = Vec::new();
    for _ in 0..20 {
        ops.push(op(AccessKind::Read, target));
        ops.push(op(AccessKind::Read, conflict_a));
        ops.push(op(AccessKind::Read, conflict_b));
    }
    let mut system = builder(60, 1).build().unwrap();
    let mut trace = trace_for(0, &ops);
    let report = system.run_with_source("scenario", &mut trace).unwrap();
    assert!(
        report.counters.migrations > 0,
        "repeated single-CPU access must migrate the line"
    );
    assert_eq!(report.counters.l2_misses, 3, "only the cold reads miss");
    assert!(
        report.counters.l2_hits >= 55,
        "every later round hits the L2"
    );
}

/// A VC geometry the routers cannot be built with is a typed build
/// error for every scheme (2D ones flatten the chip but keep the
/// routers), never a panic inside `nim-noc`.
fn build_with_vcs(scheme: Scheme, vcs: u32, depth: u32) -> Result<(), BuildError> {
    let mut cfg = SystemConfig::default();
    cfg.network.vcs_per_port = vcs;
    cfg.network.vc_depth_flits = depth;
    SystemBuilder::new(scheme).config(cfg).build().map(drop)
}

#[test]
fn zero_vcs_per_port_is_a_build_error() {
    for scheme in Scheme::ALL {
        assert!(matches!(
            build_with_vcs(scheme, 0, 4),
            Err(BuildError::Config(ConfigError::Zero(
                "network.vcs_per_port"
            )))
        ));
    }
}

#[test]
fn zero_vc_depth_is_a_build_error() {
    for scheme in Scheme::ALL {
        assert!(matches!(
            build_with_vcs(scheme, 3, 0),
            Err(BuildError::Config(ConfigError::Zero(
                "network.vc_depth_flits"
            )))
        ));
    }
}

#[test]
fn more_vcs_than_the_router_masks_hold_is_a_build_error() {
    for scheme in Scheme::ALL {
        assert!(matches!(
            build_with_vcs(scheme, 9, 4),
            Err(BuildError::Config(ConfigError::TooLarge {
                what: "network.vcs_per_port",
                value: 9,
                max: 8,
            }))
        ));
    }
    build_with_vcs(Scheme::CmpDnuca3d, 8, 4).expect("8 VCs per port fit the masks");
}

#[test]
fn a_bad_l2_scale_is_a_build_error() {
    for (factor, banks) in [(3, 48), (0, 0), (u32::MAX, 0)] {
        let built = SystemBuilder::new(Scheme::CmpDnuca3d)
            .l2_scale(factor)
            .build();
        assert!(
            matches!(
                built,
                Err(BuildError::Config(ConfigError::NotPowerOfTwo {
                    what: "l2.banks_per_cluster",
                    value,
                })) if value == banks
            ),
            "l2_scale({factor})"
        );
    }
}

#[test]
fn a_sampling_target_past_u64_max_saturates() {
    // warmup + sample overflows u64: the target saturates instead of
    // wrapping to zero, so the one-op trace dries up before it is met.
    let mut system = builder(u64::MAX, 1).warmup_transactions(1).build().unwrap();
    let mut trace = trace_for(0, &[op(AccessKind::Read, 0x1234_0000)]);
    assert!(matches!(
        system.run_with_source("scenario", &mut trace),
        Err(RunError::Stalled { completed: 1, .. })
    ));
}

/// A cell as `(scheme, fabric, layers)` and `(pillars, cpus, l2_scale)`
/// indices into the CLI's value spaces.
type Cell = ((usize, usize, u8), (u16, u32, u32));

/// Every value the cell flags accept at the parser, most of it
/// unbuildable.
fn any_cell() -> impl Strategy<Value = Cell> {
    (
        (0usize..4, 0usize..2, 0u8..=9),
        (0u16..=100, 0u32..=130, 0u32..=4),
    )
}

/// Stacked chips a 3D scheme seats: 2–8 layers, 1, 2, 4 or 8 pillars,
/// one CPU per pillar at most (maximal offsetting), a paper L2 scale.
fn stacked_cell() -> impl Strategy<Value = Cell> {
    let pillars = (0u32..4).prop_map(|p| 1u16 << p);
    let seated = (pillars, 1u32..=8).prop_map(|(p, c)| (p, c.min(u32::from(p))));
    ((2usize..4, 0usize..2, 2u8..=8), (seated, 0u32..3))
        .prop_map(|(head, ((pillars, cpus), scale))| (head, (pillars, cpus, 1 << scale)))
}

/// Every cell the CLI's `--scheme`, `--fabric`, `--layers`,
/// `--pillars`, `--cpus` and `--l2-scale` flags can describe either
/// builds and runs, or is refused with a typed error — never a panic.
/// Half the cases come from the stacked region, and at least one of
/// them must build a multi-layer chip and run it.
#[test]
fn every_describable_cell_builds_or_fails_with_a_typed_error() {
    static STACKED_RAN: AtomicU32 = AtomicU32::new(0);
    proptest! {
        #![proptest_config(ProptestConfig::with_cases(40))]

        fn describable_cell(
            ((scheme, fabric, layers), (pillars, cpus, l2_scale))
                in prop_oneof![any_cell(), stacked_cell()],
        ) {
            let mut spec = SweepSpec::new(Scheme::ALL[scheme], 0)
                .layers(layers)
                .pillars(pillars)
                .l2_scale(l2_scale);
            spec.cpus = Some(cpus);
            spec.fabric = Some(FabricKind::ALL[fabric]);
            let scale = ExperimentScale { seed: 42, warmup: 0, sample: 20 };
            if let Ok(mut system) = spec.builder(scale).build() {
                let mut gen = system.begin(&BenchmarkProfile::synthetic());
                let ran = system.run_until(&mut gen, 20);
                prop_assert!(ran.is_ok(), "{spec:?}: {ran:?}");
                if system.layout().layers() >= 2 {
                    STACKED_RAN.fetch_add(1, Ordering::Relaxed);
                }
            }
        }
    }
    describable_cell();
    assert!(
        STACKED_RAN.load(Ordering::Relaxed) > 0,
        "no multi-layer cell was built and run"
    );
}
