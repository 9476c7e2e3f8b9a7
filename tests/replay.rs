//! Record/replay integration: a recorded trace drives the system to the
//! exact same result as the live generator that produced it.

use network_in_memory::core::{Scheme, SystemBuilder};
use network_in_memory::types::CpuId;
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
