//! Property-based tests for replacement, placement, and migration state.

use nim_cache::{NucaL2, TreePlru};
use nim_types::{ClusterId, L2Config, LineAddr};
use proptest::prelude::*;

proptest! {
    #[test]
    fn plru_never_victimises_the_most_recent_way(
        ways_log in 1u32..=5,
        touches in proptest::collection::vec(any::<u32>(), 1..200),
    ) {
        let ways = 1 << ways_log;
        let mut plru = TreePlru::new(ways);
        for t in touches {
            let way = t % ways;
            plru.touch(way);
            prop_assert_ne!(plru.victim(), way);
        }
    }

    #[test]
    fn plru_victim_is_always_a_valid_way(
        ways_log in 0u32..=5,
        touches in proptest::collection::vec(any::<u32>(), 0..100),
    ) {
        let ways = 1 << ways_log;
        let mut plru = TreePlru::new(ways);
        for t in touches {
            plru.touch(t % ways);
            prop_assert!(plru.victim() < ways);
        }
    }
}

/// A random operation against the NUCA L2.
#[derive(Clone, Debug)]
enum L2Op {
    Insert(u16),
    Remove(u16),
    Touch(u16),
    BeginMigration(u16, u16),
    CommitMigration(u16),
    AbortMigration(u16),
}

fn arb_op() -> impl Strategy<Value = L2Op> {
    prop_oneof![
        any::<u16>().prop_map(L2Op::Insert),
        any::<u16>().prop_map(L2Op::Remove),
        any::<u16>().prop_map(L2Op::Touch),
        (any::<u16>(), any::<u16>()).prop_map(|(l, c)| L2Op::BeginMigration(l, c)),
        any::<u16>().prop_map(L2Op::CommitMigration),
        any::<u16>().prop_map(L2Op::AbortMigration),
    ]
}

/// Lines drawn from a small pool so operations actually collide.
fn line(seed: u16) -> LineAddr {
    LineAddr(u64::from(seed % 512) * 37)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn l2_stays_consistent_under_random_operations(
        ops in proptest::collection::vec(arb_op(), 1..400),
    ) {
        let cfg = L2Config::default();
        let mut l2 = NucaL2::new(&cfg);
        let mut expected_resident = std::collections::HashSet::new();
        for op in ops {
            match op {
                L2Op::Insert(s) => {
                    let line = line(s);
                    if l2.locate(line).is_none() {
                        let placed = l2.insert(line);
                        expected_resident.insert(line);
                        if let Some(victim) = placed.evicted {
                            expected_resident.remove(&victim);
                        }
                        prop_assert_eq!(l2.locate(line), Some(placed.cluster));
                    }
                }
                L2Op::Remove(s) => {
                    let line = line(s);
                    let was = l2.locate(line).is_some();
                    let removed = l2.remove(line).is_some();
                    prop_assert_eq!(was, removed);
                    expected_resident.remove(&line);
                }
                L2Op::Touch(s) => {
                    let line = line(s);
                    let located = l2.locate(line);
                    prop_assert_eq!(l2.touch(line), located);
                }
                L2Op::BeginMigration(s, c) => {
                    let line = line(s);
                    let to = ClusterId(c % cfg.clusters as u16);
                    let _ = l2.begin_migration(line, to);
                }
                L2Op::CommitMigration(s) => {
                    let line = line(s);
                    if let Some(to) = l2.migration_of(line) {
                        let out = l2.commit_migration(line).expect("in flight");
                        prop_assert_eq!(out.to, to);
                        prop_assert_eq!(l2.locate(line), Some(to));
                        if let Some(victim) = out.evicted {
                            expected_resident.remove(&victim);
                        }
                    }
                }
                L2Op::AbortMigration(s) => {
                    l2.abort_migration(line(s));
                }
            }
            // Invariants: every expected line is resident, occupancy
            // matches, migrations only target resident lines.
            prop_assert_eq!(l2.occupancy(), expected_resident.len());
            for &l in &expected_resident {
                prop_assert!(l2.locate(l).is_some());
            }
        }
        // Cluster-level occupancy must add up.
        let total: usize = (0..cfg.clusters)
            .map(|c| l2.cluster_occupancy(ClusterId(c as u16)))
            .sum();
        prop_assert_eq!(total, l2.occupancy());
    }

    #[test]
    fn migrating_lines_stay_visible_until_commit(
        seeds in proptest::collection::vec(any::<u16>(), 1..100),
    ) {
        let cfg = L2Config::default();
        let mut l2 = NucaL2::new(&cfg);
        for s in seeds {
            let l = line(s);
            if l2.locate(l).is_none() {
                l2.insert(l);
            }
            let from = l2.locate(l).expect("resident");
            let to = ClusterId((from.0 + 1) % cfg.clusters as u16);
            if l2.begin_migration(l, to).is_ok() {
                // Lazy migration: the old location answers until commit.
                prop_assert_eq!(l2.locate(l), Some(from));
                l2.commit_migration(l).expect("commit");
                prop_assert_eq!(l2.locate(l), Some(to));
            }
        }
    }
}

#[test]
fn a_reserve_clamped_to_the_l2_is_never_outgrown() {
    // 16 clusters × 1 bank × 4 KB = 1 024 line slots.
    let mut l2 = NucaL2::new(&L2Config {
        banks_per_cluster: 1,
        bank_bytes: 4096,
        ..L2Config::default()
    });
    l2.reserve(usize::MAX);
    let capacity = l2.residency_capacity();
    assert!((1024..2048).contains(&capacity), "clamped: {capacity}");
    // Lines 0..1024 fill every way of every set exactly.
    for i in 0..1024u64 {
        assert_eq!(l2.insert(LineAddr(i)).evicted, None);
    }
    assert_eq!(l2.occupancy(), 1024);
    assert_eq!(l2.residency_capacity(), capacity, "the map never grew");
}
