//! Property-based tests: geometry round-trips and placement invariants
//! hold for every configuration the workspace can express.

use nim_topology::{ChipLayout, PlacementPolicy};
use nim_types::{ClusterId, SystemConfig};
use proptest::prelude::*;

/// Configurations with power-of-two geometry where clusters divide layers.
fn arb_config() -> impl Strategy<Value = SystemConfig> {
    (0u8..=3, 1u16..=8, 2u32..=6).prop_map(|(layer_log, pillars, bank_log)| {
        let mut cfg = SystemConfig::default();
        cfg.network.layers = 1 << layer_log;
        cfg.network.pillars = pillars;
        cfg.l2.banks_per_cluster = 1 << bank_log;
        cfg
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn node_index_round_trips_everywhere(cfg in arb_config()) {
        prop_assume!(cfg.validate().is_ok());
        let layout = ChipLayout::new(&cfg).expect("valid config builds");
        for i in 0..layout.num_nodes() {
            let c = layout.coord_of_index(i);
            prop_assert_eq!(layout.node_index(c), i);
        }
    }

    #[test]
    fn banks_and_nodes_are_a_bijection(cfg in arb_config()) {
        prop_assume!(cfg.validate().is_ok());
        let layout = ChipLayout::new(&cfg).expect("valid config builds");
        let mut seen = vec![false; layout.num_nodes()];
        for b in 0..cfg.l2.total_banks() {
            let c = layout.coord_of_bank(nim_types::BankId(b));
            prop_assert!(layout.contains(c), "bank {b} off the mesh");
            prop_assert_eq!(u32::from(layout.cluster_of(c).0), b / cfg.l2.banks_per_cluster);
            let idx = layout.node_index(c);
            prop_assert!(!seen[idx], "two banks on one node");
            seen[idx] = true;
        }
        prop_assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn clusters_partition_the_mesh(cfg in arb_config()) {
        prop_assume!(cfg.validate().is_ok());
        let layout = ChipLayout::new(&cfg).expect("valid config builds");
        let mut counts = vec![0usize; layout.num_clusters() as usize];
        for i in 0..layout.num_nodes() {
            let c = layout.coord_of_index(i);
            counts[layout.cluster_of(c).index()] += 1;
        }
        let per_cluster = cfg.l2.banks_per_cluster as usize;
        prop_assert!(counts.iter().all(|&n| n == per_cluster));
    }

    #[test]
    fn placements_never_collide(
        cfg in arb_config(),
        policy_idx in 0usize..5,
    ) {
        prop_assume!(cfg.validate().is_ok());
        let layout = ChipLayout::new(&cfg).expect("valid config builds");
        let policy = [
            PlacementPolicy::MaximalOffset,
            PlacementPolicy::Algorithm1 { k: 1 },
            PlacementPolicy::Stacked,
            PlacementPolicy::Edges,
            PlacementPolicy::Interior2d,
        ][policy_idx];
        if let Ok(seats) = policy.place(&layout, cfg.num_cpus) {
            let set: std::collections::HashSet<_> =
                seats.iter().map(|s| s.coord).collect();
            prop_assert_eq!(set.len(), seats.len(), "seats distinct");
            let pillar_based = matches!(
                policy,
                PlacementPolicy::MaximalOffset
                    | PlacementPolicy::Algorithm1 { .. }
                    | PlacementPolicy::Stacked
            );
            for s in &seats {
                prop_assert!(layout.contains(s.coord), "seat on the mesh");
                if layout.layers() > 1 && pillar_based {
                    prop_assert!(s.pillar.is_some(), "3D seats carry a pillar");
                }
            }
        }
    }

    #[test]
    fn lateral_and_vertical_neighbours_are_symmetric(cfg in arb_config()) {
        prop_assume!(cfg.validate().is_ok());
        let layout = ChipLayout::new(&cfg).expect("valid config builds");
        for a in 0..layout.num_clusters() {
            let a = ClusterId(a);
            for b in layout.lateral_neighbors(a) {
                prop_assert!(layout.lateral_neighbors(b).contains(&a));
            }
            for b in layout.vertical_neighbors(a) {
                prop_assert!(layout.vertical_neighbors(b).contains(&a));
            }
        }
    }
}
