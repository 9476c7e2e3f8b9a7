//! Property-based tests of the trace generator: every profile keeps its
//! addresses inside declared regions, respects its mix probabilities,
//! and stays deterministic — including across thread rotations.

use nim_types::{AccessKind, CpuId};
use nim_workload::{cpu_regions, shared_region, BenchmarkProfile, TraceGenerator};
use proptest::prelude::*;

fn arb_profile() -> impl Strategy<Value = BenchmarkProfile> {
    (
        0.05f64..0.5, // mem_per_instr
        0.0f64..0.3,  // store_frac
        0.0f64..0.05, // ifetch_frac
        0.0f64..0.5,  // streaming_frac
        0.0f64..0.5,  // shared_frac
        0.0f64..0.9,  // shared_reuse
        6u32..10,     // hot_lines (log2)
        8u32..14,     // footprint_lines (log2)
        8u32..14,     // shared_lines (log2)
    )
        .prop_map(
            |(mem, store, ifetch, stream, shared, reuse, hot, fp, sh)| BenchmarkProfile {
                name: "prop",
                fastforward_mcycles: 0,
                paper_l2_transactions: 0,
                mem_per_instr: mem,
                store_frac: store,
                ifetch_frac: ifetch,
                streaming_frac: stream,
                shared_frac: shared,
                shared_reuse: reuse,
                hot_lines: 1 << hot,
                footprint_lines: 1 << fp,
                shared_lines: 1 << sh,
                code_lines: 64,
            },
        )
        .prop_filter("stream+shared <= 1", |p| {
            p.streaming_frac + p.shared_frac <= 1.0
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn every_address_lands_in_a_declared_region(
        profile in arb_profile(),
        seed in any::<u64>(),
    ) {
        let cpus = 4u32;
        let mut gen = TraceGenerator::new(&profile, cpus, seed);
        let shared = shared_region(&profile);
        // Collect the union of every thread's regions: rotation may hand
        // any thread's stream to any CPU.
        let all_regions: Vec<_> = (0..cpus)
            .map(|c| cpu_regions(&profile, CpuId(c as u16)))
            .collect();
        for i in 0..3_000u32 {
            let cpu = CpuId((i % cpus) as u16);
            let op = gen.next_op(cpu);
            let a = op.addr.0;
            let inside = |base: u64, lines: u32| {
                a >= base && a < base + u64::from(lines) * 64
            };
            let ok = inside(shared.base, shared.lines)
                || all_regions.iter().any(|r| {
                    inside(r.hot.base, r.hot.lines)
                        || inside(r.stream.base, r.stream.lines)
                        || inside(r.code.base, r.code.lines)
                });
            prop_assert!(ok, "address {a:#x} outside every region");
            if op.kind == AccessKind::IFetch {
                let in_code = all_regions
                    .iter()
                    .any(|r| inside(r.code.base, r.code.lines));
                prop_assert!(in_code, "ifetch outside the code loops");
            }
        }
    }

    #[test]
    fn generation_is_deterministic_per_seed(
        profile in arb_profile(),
        seed in any::<u64>(),
    ) {
        let mut a = TraceGenerator::new(&profile, 2, seed);
        let mut b = TraceGenerator::new(&profile, 2, seed);
        for i in 0..500u32 {
            let cpu = CpuId((i % 2) as u16);
            prop_assert_eq!(a.next_op(cpu), b.next_op(cpu), "op {}", i);
        }
    }

    #[test]
    fn store_fraction_tracks_the_profile(
        profile in arb_profile(),
        seed in any::<u64>(),
    ) {
        prop_assume!(profile.store_frac > 0.05);
        let mut gen = TraceGenerator::new(&profile, 1, seed);
        let n = 20_000u32;
        let mut stores = 0u32;
        let mut data_ops = 0u32;
        for _ in 0..n {
            let op = gen.next_op(CpuId(0));
            if op.kind != AccessKind::IFetch {
                data_ops += 1;
                if op.kind == AccessKind::Write {
                    stores += 1;
                }
            }
        }
        let measured = f64::from(stores) / f64::from(data_ops.max(1));
        prop_assert!(
            (measured - profile.store_frac).abs() < 0.03,
            "measured {measured:.3} vs profile {:.3}",
            profile.store_frac
        );
    }
}
