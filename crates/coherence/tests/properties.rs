//! Property-based tests: the MSI directory's protocol invariants hold
//! under arbitrary interleavings of accesses, evictions, and
//! invalidations.

use nim_coherence::{DirAccess, Directory, LineState, WritePolicy};
use nim_types::{CpuId, LineAddr};
use proptest::prelude::*;

#[derive(Clone, Debug)]
enum Op {
    Read(u8, u8),
    Write(u8, u8),
    Evict(u8, u8),
    InvalidateAll(u8),
}

fn arb_op() -> impl Strategy<Value = Op> {
    prop_oneof![
        (any::<u8>(), any::<u8>()).prop_map(|(c, l)| Op::Read(c, l)),
        (any::<u8>(), any::<u8>()).prop_map(|(c, l)| Op::Write(c, l)),
        (any::<u8>(), any::<u8>()).prop_map(|(c, l)| Op::Evict(c, l)),
        any::<u8>().prop_map(Op::InvalidateAll),
    ]
}

fn line(l: u8) -> LineAddr {
    LineAddr(u64::from(l % 16) * 64)
}

fn cpu(c: u8) -> CpuId {
    CpuId(u16::from(c % 8))
}

fn check(policy: WritePolicy, ops: Vec<Op>) -> Result<(), TestCaseError> {
    let mut dir = Directory::new(8, policy);
    for op in ops {
        match op {
            Op::Read(c, l) => {
                let out = dir.access(cpu(c), line(l), DirAccess::Read);
                // A read never invalidates anyone.
                prop_assert!(out.invalidations.is_empty());
                prop_assert!(dir.holds(line(l), cpu(c)));
            }
            Op::Write(c, l) => {
                let out = dir.access(cpu(c), line(l), DirAccess::Write);
                // The writer never invalidates itself.
                prop_assert!(!out.invalidations.contains(cpu(c)));
                // After a write, the writer is the only holder.
                prop_assert_eq!(dir.sharers(line(l)), vec![cpu(c)]);
            }
            Op::Evict(c, l) => {
                dir.evict(cpu(c), line(l));
                prop_assert!(!dir.holds(line(l), cpu(c)));
            }
            Op::InvalidateAll(l) => {
                dir.invalidate_all(line(l));
                prop_assert_eq!(dir.state(line(l)), LineState::Invalid);
                prop_assert!(dir.sharers(line(l)).is_empty());
            }
        }
        dir.check_invariants()
            .map_err(|e| TestCaseError::fail(format!("invariant violated: {e}")))?;
        // Write-through never leaves a Modified line behind.
        if policy == WritePolicy::WriteThrough {
            for l in 0..16u8 {
                prop_assert_ne!(dir.state(line(l)), LineState::Modified);
            }
        }
    }
    Ok(())
}

proptest! {
    #[test]
    fn write_through_invariants_hold(ops in proptest::collection::vec(arb_op(), 1..300)) {
        check(WritePolicy::WriteThrough, ops)?;
    }

    #[test]
    fn write_back_invariants_hold(ops in proptest::collection::vec(arb_op(), 1..300)) {
        check(WritePolicy::WriteBack, ops)?;
    }

    #[test]
    fn invalidation_counts_match_reported_lists(
        ops in proptest::collection::vec(arb_op(), 1..200),
    ) {
        let mut dir = Directory::new(8, WritePolicy::WriteThrough);
        let mut counted = 0u64;
        for op in ops {
            match op {
                Op::Read(c, l) => {
                    counted += dir.access(cpu(c), line(l), DirAccess::Read).invalidations.len() as u64;
                }
                Op::Write(c, l) => {
                    counted += dir.access(cpu(c), line(l), DirAccess::Write).invalidations.len() as u64;
                }
                Op::Evict(c, l) => {
                    dir.evict(cpu(c), line(l));
                }
                Op::InvalidateAll(l) => {
                    counted += dir.invalidate_all(line(l)).len() as u64;
                }
            }
        }
        prop_assert_eq!(dir.invalidations_sent, counted);
    }
}
