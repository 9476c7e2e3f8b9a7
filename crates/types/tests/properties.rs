//! Property-based tests for address decomposition, geometry, and the
//! FxHash map used on the simulator's hot paths.

use std::collections::HashMap;

use nim_types::addr::L2Map;
use nim_types::{Address, Coord, Dir, FxHashMap, LineAddr};
use proptest::prelude::*;

fn arb_geometry() -> impl Strategy<Value = (u32, u32, u32)> {
    // clusters, banks per cluster, sets per bank — powers of two.
    (0u32..=6, 0u32..=6, 0u32..=8).prop_map(|(c, b, s)| (1 << c, 1 << b, 1 << s))
}

proptest! {
    #[test]
    fn l2_map_compose_inverts_decompose(
        (clusters, banks, sets) in arb_geometry(),
        raw in any::<u64>(),
    ) {
        let map = L2Map::new(clusters, banks, sets);
        let line = LineAddr(raw >> 8); // leave headroom for compose shifts
        let back = map.compose(
            map.tag(line),
            map.set_in_bank(line),
            map.bank_in_cluster(line),
        );
        prop_assert_eq!(back, line);
    }

    #[test]
    fn l2_map_fields_are_in_range(
        (clusters, banks, sets) in arb_geometry(),
        raw in any::<u64>(),
    ) {
        let map = L2Map::new(clusters, banks, sets);
        let line = LineAddr(raw);
        prop_assert!(map.home_cluster(line).index() < clusters as usize);
        prop_assert!(map.bank_in_cluster(line) < banks);
        prop_assert!(map.set_in_bank(line) < sets);
    }

    #[test]
    fn global_bank_split_round_trips(
        (clusters, banks, _) in arb_geometry(),
        c in any::<u16>(),
        b in any::<u32>(),
    ) {
        let map = L2Map::new(clusters, banks, 64);
        let cluster = nim_types::ClusterId(c % clusters as u16);
        let bank = b % banks;
        let g = map.global_bank(cluster, bank);
        prop_assert_eq!(map.split_bank(g), (cluster, bank));
    }

    #[test]
    fn byte_address_and_line_round_trip(addr in any::<u64>()) {
        let a = Address(addr & !(63));
        prop_assert_eq!(a.line(64).byte_address(64), a);
    }

    #[test]
    fn manhattan_2d_is_a_metric(
        ax in 0u8..32, ay in 0u8..32,
        bx in 0u8..32, by in 0u8..32,
        cx in 0u8..32, cy in 0u8..32,
    ) {
        let a = Coord::new(ax, ay, 0);
        let b = Coord::new(bx, by, 0);
        let c = Coord::new(cx, cy, 0);
        // Symmetry, identity, triangle inequality.
        prop_assert_eq!(a.manhattan_2d(b), b.manhattan_2d(a));
        prop_assert_eq!(a.manhattan_2d(a), 0);
        prop_assert!(a.manhattan_2d(c) <= a.manhattan_2d(b) + b.manhattan_2d(c));
    }

    #[test]
    fn pillar_route_is_never_shorter_than_free_3d_route(
        ax in 0u8..16, ay in 0u8..8,
        bx in 0u8..16, by in 0u8..8,
        px in 0u8..16, py in 0u8..8,
        la in 0u8..4, lb in 0u8..4,
    ) {
        let a = Coord::new(ax, ay, la);
        let b = Coord::new(bx, by, lb);
        let pillar = Coord::new(px, py, 0);
        // Constraining vertical movement to a pillar can only add hops
        // relative to the ideal full 3D mesh.
        prop_assert!(a.hop_distance_via_pillar(b, pillar) >= a.manhattan_3d(b).min(a.manhattan_2d(b)));
    }

    #[test]
    fn dir_step_stays_in_bounds(
        x in 0u8..64, y in 0u8..64,
        w in 1u8..=64, h in 1u8..=64,
        dir_idx in 0usize..Dir::COUNT,
    ) {
        prop_assume!(x < w && y < h);
        let d = Dir::ALL[dir_idx];
        if let Some((nx, ny)) = d.step(x, y, w, h) {
            prop_assert!(nx < w && ny < h);
        }
    }

    #[test]
    fn fxhash_map_agrees_with_std_hashmap(
        ops in proptest::collection::vec(
            (any::<u8>(), any::<u64>(), any::<u32>()),
            0..200,
        ),
    ) {
        let mut fx: FxHashMap<u64, u32> = FxHashMap::default();
        let mut reference: HashMap<u64, u32> = HashMap::new();
        for &(op, raw_key, val) in &ops {
            // Half the keys collapse into a small range so overwrites,
            // hits, and removals actually occur alongside misses.
            let key = if op & 1 == 0 { raw_key % 16 } else { raw_key };
            match op % 3 {
                0 => prop_assert_eq!(fx.insert(key, val), reference.insert(key, val)),
                1 => prop_assert_eq!(fx.remove(&key), reference.remove(&key)),
                _ => prop_assert_eq!(fx.get(&key), reference.get(&key)),
            }
            prop_assert_eq!(fx.len(), reference.len());
        }
        for (k, v) in &reference {
            prop_assert_eq!(fx.get(k), Some(v));
        }
    }
}
