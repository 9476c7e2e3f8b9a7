//! Property-based tests for address decomposition, geometry, the FxHash
//! map used on the simulator's hot paths and the per-line `LineMap`.

use std::collections::HashMap;

use nim_types::addr::L2Map;
use nim_types::{Address, Coord, Dir, FxHashMap, LineAddr, LineMap, SystemConfig};
use proptest::prelude::*;

/// The multiplier `LineMap` hashes with: a key's home slot is the top
/// bits of `key × GOLDEN`. If the map's hash changes, the keys below
/// merely stop colliding; the oracle still holds.
const GOLDEN: u64 = 0x9e37_79b9_7f4a_7c15;

/// The key whose product with [`GOLDEN`] is `product` (the multiplier
/// is odd, so it has an inverse mod 2^64; Newton's iteration doubles
/// the correct low bits each step).
fn key_hashing_to(product: u64) -> u64 {
    let mut inv = GOLDEN;
    for _ in 0..6 {
        inv = inv.wrapping_mul(2u64.wrapping_sub(GOLDEN.wrapping_mul(inv)));
    }
    product.wrapping_mul(inv)
}

/// A key drawn from one of three pools, each with few enough members
/// that hits, overwrites and removals are common: sixteen small lines;
/// lines whose home is one of the first four slots of every table up
/// to 64 slots (so they share home slots); and lines homed at the last
/// slot of every such table (so their runs wrap past it to slot 0).
fn line_key(pool: u8, pick: u64) -> LineAddr {
    let low = (pick % 8) << 40;
    match pool % 3 {
        0 => LineAddr(pick % 16),
        1 => LineAddr(key_hashing_to(((pick >> 3) % 4) << 58 | low)),
        _ => LineAddr(key_hashing_to(63 << 58 | low)),
    }
}

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
        // Every line whose tag fits 32 bits: below 2^(32 + shift).
        let shift = banks.trailing_zeros() + sets.trailing_zeros();
        let line = LineAddr(raw >> (32 - shift));
        let back = map.line_of(
            map.tag(line),
            map.bank_in_cluster(line),
            map.set_in_bank(line),
        );
        prop_assert_eq!(back, line);
    }

    /// Every L2 geometry the CLI describes (`--l2-scale` 1, 2 or 4, on
    /// the 3D chip or flattened to 2D) rebuilds every line below its tag
    /// limit from the tag, bank and set, and `fits` accepts exactly
    /// those lines.
    #[test]
    fn cli_l2_geometries_rebuild_every_line_below_the_tag_limit(
        scale in 0u32..3,
        flat in any::<bool>(),
        raw in any::<u64>(),
        near_top in any::<bool>(),
    ) {
        let cfg = SystemConfig::default();
        let cfg = if flat { cfg.flattened() } else { cfg };
        let l2 = cfg.l2.scaled(1 << scale);
        let map = l2.map();
        let shift =
            l2.banks_per_cluster.trailing_zeros() + l2.sets_per_bank().trailing_zeros();
        let limit = 1u64 << (32 + shift);
        // Half the cases probe the last 2^16 lines below the limit.
        let line = if near_top { limit - 1 - (raw & 0xffff) } else { raw % limit };
        let line = LineAddr(line);
        prop_assert!(map.fits(line));
        let (bank, set) = (map.bank_in_cluster(line), map.set_in_bank(line));
        prop_assert_eq!(map.line_of(map.tag(line), bank, set), line);
        prop_assert!(!map.fits(LineAddr(limit + (raw & 0xffff))));
        prop_assert_eq!(map.tag(LineAddr(limit - 1)), u32::MAX);
        // The limit in bytes: 2^(32 + shift + line bits), 2^48 at scale 1.
        let bytes = 32 + shift + l2.line_bytes.trailing_zeros();
        prop_assert_eq!(bytes, 48 + scale);
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

    #[test]
    fn line_map_agrees_with_std_hashmap(
        ops in proptest::collection::vec(
            (any::<u8>(), any::<u8>(), any::<u64>(), any::<u32>()),
            0..300,
        ),
    ) {
        let mut map: LineMap<u32> = LineMap::default();
        let mut reference: HashMap<LineAddr, u32> = HashMap::new();
        for &(op, pool, pick, val) in &ops {
            let key = line_key(pool, pick);
            match op % 7 {
                0..=2 => prop_assert_eq!(map.insert(key, val), reference.insert(key, val)),
                3 | 4 => prop_assert_eq!(map.remove(key), reference.remove(&key)),
                5 => prop_assert_eq!(map.get(key), reference.get(&key).copied()),
                _ => {
                    let extra = val as usize % 64;
                    map.reserve(extra);
                    prop_assert!(map.capacity() >= map.len() + extra);
                }
            }
            prop_assert_eq!(map.len(), reference.len());
            prop_assert_eq!(map.is_empty(), reference.is_empty());
            prop_assert!(map.len() <= map.capacity());
        }
        for (k, v) in &reference {
            prop_assert_eq!(map.get(*k), Some(*v));
        }
        let mut held: Vec<(LineAddr, u32)> = map.iter().collect();
        let mut want: Vec<(LineAddr, u32)> = reference.into_iter().collect();
        held.sort_unstable();
        want.sort_unstable();
        prop_assert_eq!(held, want);
    }
}
