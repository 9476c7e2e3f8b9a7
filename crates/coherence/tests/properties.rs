//! Property-based tests: the directory's sharer sets stay consistent
//! and report exactly the invalidations a reference model predicts,
//! under arbitrary interleavings of accesses, evictions, and
//! invalidations.

use std::collections::{BTreeSet, HashMap};

use nim_coherence::{DirAccess, Directory};
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

proptest! {
    #[test]
    fn write_through_invariants_hold(ops in proptest::collection::vec(arb_op(), 1..300)) {
        let mut dir = Directory::with_cpus(8);
        for op in ops {
            match op {
                Op::Read(c, l) => {
                    let out = dir.access(cpu(c), line(l), DirAccess::Read);
                    // A read never invalidates anyone.
                    prop_assert!(out.is_empty());
                    prop_assert!(dir.holds(line(l), cpu(c)));
                }
                Op::Write(c, l) => {
                    let out = dir.access(cpu(c), line(l), DirAccess::Write);
                    // The writer never invalidates itself.
                    prop_assert!(!out.contains(cpu(c)));
                    // After a write, the writer is the only holder.
                    prop_assert_eq!(dir.sharers(line(l)), vec![cpu(c)]);
                }
                Op::Evict(c, l) => {
                    dir.evict(cpu(c), line(l));
                    prop_assert!(!dir.holds(line(l), cpu(c)));
                }
                Op::InvalidateAll(l) => {
                    dir.invalidate_all(line(l));
                    prop_assert!(dir.sharers(line(l)).is_empty());
                }
            }
            dir.check_invariants()
                .map_err(|e| TestCaseError::fail(format!("invariant violated: {e}")))?;
        }
    }

    /// Every reported list names exactly the CPUs a plain set-per-line
    /// model says hold the line, so the engine's invalidation count
    /// (one message per listed CPU) is the model's count.
    #[test]
    fn invalidation_counts_match_reported_lists(
        ops in proptest::collection::vec(arb_op(), 1..200),
    ) {
        let mut dir = Directory::with_cpus(8);
        let mut model: HashMap<LineAddr, BTreeSet<CpuId>> = HashMap::new();
        for op in ops {
            let (told, due) = match op {
                Op::Read(c, l) => {
                    model.entry(line(l)).or_default().insert(cpu(c));
                    (dir.access(cpu(c), line(l), DirAccess::Read), Vec::new())
                }
                Op::Write(c, l) => {
                    let holders = model.entry(line(l)).or_default();
                    let others: Vec<CpuId> = holders.iter().copied().filter(|&h| h != cpu(c)).collect();
                    *holders = BTreeSet::from([cpu(c)]);
                    (dir.access(cpu(c), line(l), DirAccess::Write), others)
                }
                Op::Evict(c, l) => {
                    model.entry(line(l)).or_default().remove(&cpu(c));
                    dir.evict(cpu(c), line(l));
                    continue;
                }
                Op::InvalidateAll(l) => {
                    let holders = model.remove(&line(l)).unwrap_or_default();
                    (dir.invalidate_all(line(l)), holders.into_iter().collect())
                }
            };
            prop_assert_eq!(told, due);
        }
        for (l, holders) in &model {
            let held: Vec<CpuId> = holders.iter().copied().collect();
            prop_assert_eq!(dir.sharers(*l), held);
        }
    }
}
