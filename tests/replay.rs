//! Record/replay integration: a recorded trace drives the system to the
//! exact same result as the live generator that produced it.

use network_in_memory::core::{RunError, Scheme, SystemBuilder};
use network_in_memory::types::{AccessKind, Address, CpuId, TraceOp};
use network_in_memory::workload::{BenchmarkProfile, ReplayTrace, TraceGenerator};

#[test]
fn replaying_a_recorded_trace_reproduces_the_run() {
    let bench = BenchmarkProfile::synthetic();
    let cpus = 8u32;

    // Record a long-enough trace from the deterministic generator.
    let mut gen = TraceGenerator::new(&bench, cpus, 77);
    let mut recorded = ReplayTrace::default();
    for i in 0..200_000u32 {
        let cpu = CpuId::from_index((i % cpus) as usize);
        let op = gen.next_op(cpu);
        recorded.push(cpu, op);
    }

    // Live run from a fresh generator with the same seed.
    let mut live_gen = TraceGenerator::new(&bench, cpus, 77);
    let live = SystemBuilder::new(Scheme::CmpSnuca3d)
        .warmup_transactions(100)
        .sampled_transactions(800)
        .build()
        .unwrap()
        .run_with_source(bench.name, &mut live_gen)
        .unwrap();

    // Replay from the recorded queues.
    let mut replay = recorded;
    let from_memory = SystemBuilder::new(Scheme::CmpSnuca3d)
        .warmup_transactions(100)
        .sampled_transactions(800)
        .build()
        .unwrap()
        .run_with_source(bench.name, &mut replay)
        .unwrap();

    assert_eq!(live.counters, from_memory.counters);
    assert_eq!(live.cycles, from_memory.cycles);
    assert_eq!(live.instructions, from_memory.instructions);
}

/// A way stores a 32-bit tag, so the default chip's L2 holds byte
/// addresses below 2^48. A replayed op past that ends the run with a
/// typed error before it is issued; the last line below it is served.
#[test]
fn an_address_past_the_tag_range_ends_the_run_with_a_typed_error() {
    let replay = |addr: u64| {
        let mut trace = ReplayTrace::default();
        let op = TraceOp {
            gap: 1,
            kind: AccessKind::Read,
            addr: Address(addr),
        };
        trace.push(CpuId(2), op);
        SystemBuilder::new(Scheme::CmpDnuca3d)
            .prewarm(false)
            .warmup_transactions(0)
            .sampled_transactions(1)
            .build()
            .unwrap()
            .run_with_source("stray", &mut trace)
    };
    let err = replay(1 << 60).unwrap_err();
    assert_eq!(
        err,
        RunError::AddressOutOfRange {
            cpu: CpuId(2),
            addr: Address(1 << 60),
        }
    );
    assert!(err.to_string().contains("cpu2"), "{err}");
    let report = replay((1 << 48) - 64).expect("the last line in range is served");
    assert_eq!(report.counters.l2_misses, 1);
    assert_eq!(
        replay(1 << 48),
        Err(RunError::AddressOutOfRange {
            cpu: CpuId(2),
            addr: Address(1 << 48),
        })
    );
}
