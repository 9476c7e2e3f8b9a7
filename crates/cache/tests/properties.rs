//! Property-based tests for replacement, placement, and migration state.

use std::collections::HashMap;

use nim_cache::{MigrationError, NucaL2, TreePlru};
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
    Touch(u16),
    BeginMigration(u16, u16),
    CommitMigration(u16),
}

fn arb_op() -> impl Strategy<Value = L2Op> {
    prop_oneof![
        any::<u16>().prop_map(L2Op::Insert),
        any::<u16>().prop_map(L2Op::Touch),
        (any::<u16>(), any::<u16>()).prop_map(|(l, c)| L2Op::BeginMigration(l, c)),
        any::<u16>().prop_map(L2Op::CommitMigration),
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
    // Lines 0..1024, each placed one cluster past its home, fill every
    // way of every set exactly and all land in the away map.
    for i in 0..1024u64 {
        let line = LineAddr(i);
        let away = ClusterId((l2.home_cluster(line).0 + 1) % 16);
        assert_eq!(l2.insert_at(line, away).evicted, None);
    }
    assert_eq!(l2.occupancy(), 1024);
    l2.check_invariants();
    assert_eq!(l2.residency_capacity(), capacity, "the map never grew");
}

/// What the oracle test does to a line; cluster seeds wrap to the
/// oracle L2's 16 clusters.
#[derive(Clone, Debug)]
enum OracleAct {
    Insert,
    InsertAt(u16),
    BeginMigration(u16),
    CommitMigration,
    /// Begin and commit a migration back to the line's home cluster.
    MigrateHome,
    Touch,
}

/// A line seed (an index into a pool twice the oracle L2's capacity)
/// and what to do to that line. `InsertAt` is listed twice so that
/// most placements land away from home.
fn arb_oracle_op() -> impl Strategy<Value = (u16, OracleAct)> {
    let act = prop_oneof![
        Just(OracleAct::Insert),
        any::<u16>().prop_map(OracleAct::InsertAt),
        any::<u16>().prop_map(OracleAct::InsertAt),
        any::<u16>().prop_map(OracleAct::BeginMigration),
        Just(OracleAct::CommitMigration),
        Just(OracleAct::MigrateHome),
        Just(OracleAct::Touch),
    ];
    (any::<u16>(), act)
}

/// 16 clusters × 2 banks × one 2-way set: 64 line slots, so a pool of
/// 128 lines fills sets and evicts constantly.
fn oracle_l2() -> NucaL2 {
    NucaL2::new(&L2Config {
        banks_per_cluster: 2,
        bank_bytes: 128,
        ways: 2,
        ..L2Config::default()
    })
}

const POOL: u16 = 128;

/// The line → committed-cluster map every resident line used to keep,
/// with the in-flight migrations beside it, and the victims of the
/// current step.
#[derive(Default)]
struct Oracle {
    resident: HashMap<LineAddr, ClusterId>,
    migrating: HashMap<LineAddr, ClusterId>,
    victims: Vec<LineAddr>,
}

impl Oracle {
    fn evict(&mut self, victim: Option<LineAddr>) {
        if let Some(v) = victim {
            assert!(self.resident.remove(&v).is_some(), "{v} was not resident");
            self.migrating.remove(&v);
            self.victims.push(v);
        }
    }

    /// Where `line` has a copy: its committed cluster, and an in-flight
    /// migration's destination.
    fn copies(&self, line: LineAddr) -> (Option<ClusterId>, Option<ClusterId>) {
        let get = |m: &HashMap<LineAddr, ClusterId>| m.get(&line).copied();
        (get(&self.resident), get(&self.migrating))
    }

    fn begin(&mut self, line: LineAddr, to: ClusterId) -> Result<(), MigrationError> {
        let from = *self
            .resident
            .get(&line)
            .ok_or(MigrationError::NotResident(line))?;
        if from == to {
            return Err(MigrationError::SamePlace(line));
        }
        if self.migrating.contains_key(&line) {
            return Err(MigrationError::InFlight(line));
        }
        self.migrating.insert(line, to);
        Ok(())
    }
}

/// Commits `line`'s migration in both, checking the outcome.
fn commit(l2: &mut NucaL2, oracle: &mut Oracle, line: LineAddr) -> Result<(), TestCaseError> {
    match oracle.migrating.remove(&line) {
        Some(to) => {
            let out = l2.commit_migration(line).expect("in flight");
            let from = oracle.resident.insert(line, to);
            prop_assert_eq!((Some(out.from), out.to), (from, to));
            oracle.evict(out.evicted);
        }
        None => prop_assert!(l2.commit_migration(line).is_err()),
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Every placement and migration path against the map the L2 used to
    /// keep. After every step the L2's own invariants must hold, `locate`
    /// and `migration_of` must answer as the oracle does for every pool
    /// line, and `has_copy_at` must for every cluster on each line the
    /// step changed (its operand and its victims; no other line's answer
    /// can move).
    #[test]
    fn l2_answers_like_a_full_residency_map(
        ops in proptest::collection::vec(arb_oracle_op(), 1..250),
    ) {
        let mut l2 = oracle_l2();
        let clusters = L2Config::default().clusters as u16;
        let mut oracle = Oracle::default();
        for (seed, act) in ops {
            let operand = LineAddr(u64::from(seed % POOL));
            match act {
                OracleAct::Insert | OracleAct::InsertAt(_)
                    if oracle.resident.contains_key(&operand) => {}
                OracleAct::Insert => {
                    let placed = l2.insert(operand);
                    prop_assert_eq!(placed.cluster, l2.home_cluster(operand));
                    oracle.resident.insert(operand, placed.cluster);
                    oracle.evict(placed.evicted);
                }
                OracleAct::InsertAt(c) => {
                    let placed = l2.insert_at(operand, ClusterId(c % clusters));
                    oracle.resident.insert(operand, placed.cluster);
                    oracle.evict(placed.evicted);
                }
                OracleAct::BeginMigration(c) => {
                    let to = ClusterId(c % clusters);
                    let want = oracle.begin(operand, to);
                    prop_assert_eq!(l2.begin_migration(operand, to), want);
                }
                OracleAct::CommitMigration => commit(&mut l2, &mut oracle, operand)?,
                OracleAct::MigrateHome => {
                    let home = l2.home_cluster(operand);
                    let want = oracle.begin(operand, home);
                    prop_assert_eq!(l2.begin_migration(operand, home), want);
                    if want.is_ok() {
                        commit(&mut l2, &mut oracle, operand)?;
                    }
                }
                OracleAct::Touch => {
                    let want = oracle.resident.get(&operand).copied();
                    prop_assert_eq!(l2.touch(operand), want);
                }
            }
            l2.check_invariants();
            for l in (0..u64::from(POOL)).map(LineAddr) {
                let (at, to) = oracle.copies(l);
                prop_assert_eq!((l, l2.locate(l), l2.migration_of(l)), (l, at, to));
            }
            let changed = std::mem::take(&mut oracle.victims);
            for l in changed.into_iter().chain([operand]) {
                let (at, to) = oracle.copies(l);
                for c in (0..clusters).map(ClusterId) {
                    let copy = at == Some(c) || to == Some(c);
                    prop_assert_eq!((l, c, l2.has_copy_at(l, c)), (l, c, copy));
                }
            }
            prop_assert_eq!(l2.occupancy(), oracle.resident.len());
            let held: usize = (0..clusters).map(|c| l2.cluster_occupancy(ClusterId(c))).sum();
            prop_assert_eq!(held, oracle.resident.len());
        }
    }
}
