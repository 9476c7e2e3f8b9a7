//! The `Codec` laws (`get(put(x)) == x`; every strict prefix of an image
//! is `UnexpectedEof`, never a panic) on arbitrary values of every
//! `nim-types` type the field-list macros cover, and of the container
//! impls they compose.

use std::collections::VecDeque;

use nim_types::codec::{assert_laws, ByteReader, Codec, CodecError};
use nim_types::{
    AccessKind, Address, BankId, ClusterId, Coord, CpuId, Cycle, FxHashMap, L1Config, L2Config,
    LineAddr, NetworkConfig, PacketId, PillarId, SystemConfig, TraceOp,
};
use proptest::prelude::*;

fn access_kind() -> impl Strategy<Value = AccessKind> {
    prop_oneof![
        Just(AccessKind::Read),
        Just(AccessKind::Write),
        Just(AccessKind::IFetch)
    ]
}

fn l1() -> impl Strategy<Value = L1Config> {
    (
        any::<u32>(),
        any::<u32>(),
        any::<u32>(),
        any::<u32>(),
        any::<bool>(),
    )
        .prop_map(
            |(bytes, ways, line_bytes, latency, write_through)| L1Config {
                bytes,
                ways,
                line_bytes,
                latency,
                write_through,
            },
        )
}

fn l2() -> impl Strategy<Value = L2Config> {
    (
        (any::<u32>(), any::<u32>(), any::<u32>(), any::<u32>()),
        (any::<u32>(), any::<u32>(), any::<u32>()),
    )
        .prop_map(|((clusters, banks_per_cluster, bank_bytes, ways), rest)| {
            let (line_bytes, bank_latency, tag_latency) = rest;
            L2Config {
                clusters,
                banks_per_cluster,
                bank_bytes,
                ways,
                line_bytes,
                bank_latency,
                tag_latency,
            }
        })
}

fn network() -> impl Strategy<Value = NetworkConfig> {
    (
        (any::<u8>(), any::<u16>(), any::<u32>(), any::<u32>()),
        (
            any::<u32>(),
            any::<u32>(),
            any::<u32>(),
            any::<u32>(),
            any::<u32>(),
        ),
    )
        .prop_map(|((layers, pillars, flit_bits, bus_width_bits), rest)| {
            let (data_packet_flits, control_packet_flits, router_latency, vcs_per_port, depth) =
                rest;
            NetworkConfig {
                layers,
                pillars,
                flit_bits,
                bus_width_bits,
                data_packet_flits,
                control_packet_flits,
                router_latency,
                vcs_per_port,
                vc_depth_flits: depth,
            }
        })
}

fn system() -> impl Strategy<Value = SystemConfig> {
    (
        (any::<u32>(), any::<u32>(), l1(), l2()),
        (any::<u32>(), any::<u16>(), any::<u32>(), network()),
    )
        .prop_map(|((num_cpus, issue_width, l1, l2), rest)| {
            let (memory_latency, memory_controllers, memory_interval, network) = rest;
            SystemConfig {
                num_cpus,
                issue_width,
                l1,
                l2,
                memory_latency,
                memory_controllers,
                memory_interval,
                network,
            }
        })
}

proptest! {
    #[test]
    fn identifiers_and_coordinates(raw in any::<u64>(), (x, y, layer) in (any::<u8>(), any::<u8>(), any::<u8>())) {
        prop_assert_eq!(assert_laws(&CpuId(raw as u16)), CpuId(raw as u16));
        prop_assert_eq!(assert_laws(&ClusterId(raw as u16)), ClusterId(raw as u16));
        prop_assert_eq!(assert_laws(&PillarId(raw as u16)), PillarId(raw as u16));
        prop_assert_eq!(assert_laws(&BankId(raw as u32)), BankId(raw as u32));
        prop_assert_eq!(assert_laws(&PacketId(raw)), PacketId(raw));
        prop_assert_eq!(assert_laws(&Cycle(raw)), Cycle(raw));
        prop_assert_eq!(assert_laws(&Address(raw)), Address(raw));
        prop_assert_eq!(assert_laws(&LineAddr(raw)), LineAddr(raw));
        prop_assert_eq!(assert_laws(&Coord::new(x, y, layer)), Coord::new(x, y, layer));
    }

    #[test]
    fn trace_ops(gap in any::<u32>(), kind in access_kind(), addr in any::<u64>()) {
        let op = TraceOp { gap, kind, addr: Address(addr) };
        prop_assert_eq!(assert_laws(&kind), kind);
        prop_assert_eq!(assert_laws(&op), op);
    }

    #[test]
    fn configurations(cfg in system()) {
        prop_assert_eq!(assert_laws(&cfg.l1), cfg.l1);
        prop_assert_eq!(assert_laws(&cfg.l2), cfg.l2);
        prop_assert_eq!(assert_laws(&cfg.network), cfg.network);
        prop_assert_eq!(assert_laws(&cfg), cfg);
    }

    #[test]
    fn containers(
        words in proptest::collection::vec(any::<u64>(), 0..6),
        pairs in proptest::collection::vec((any::<u16>(), any::<u32>()), 0..6),
        flag in any::<bool>(),
        small in any::<u8>(),
    ) {
        prop_assert_eq!(assert_laws(&words), words.clone());
        let deque: VecDeque<u64> = words.iter().copied().collect();
        prop_assert_eq!(assert_laws(&deque), deque);
        let nested: Vec<Vec<u64>> = vec![words.clone(), Vec::new(), words.clone()];
        prop_assert_eq!(assert_laws(&nested), nested.clone());
        let optional = flag.then_some(words.clone());
        prop_assert_eq!(assert_laws(&optional), optional.clone());
        let array = [u64::from(small), 1, u64::MAX, 0];
        prop_assert_eq!(assert_laws(&array), array);
        let triple = (small, flag, words.len());
        prop_assert_eq!(assert_laws(&triple), triple);
        let text: String = words.iter().map(|w| char::from(b'a' + (*w % 26) as u8)).collect();
        prop_assert_eq!(assert_laws(&text), text.clone());
        let signed = (-i64::from(small), f64::from(small) / 3.0);
        prop_assert_eq!(assert_laws(&signed), signed);
        let map: FxHashMap<u16, u32> = pairs.iter().copied().collect();
        prop_assert_eq!(assert_laws(&map), map);
    }
}

#[test]
fn hash_map_images_are_key_sorted_whatever_the_insertion_order() {
    let image = |keys: &[u64]| {
        let map: FxHashMap<LineAddr, ClusterId> = keys
            .iter()
            .map(|&k| (LineAddr(k), ClusterId(k as u16)))
            .collect();
        let mut w = nim_types::ByteWriter::new();
        map.put(&mut w);
        w.into_bytes()
    };
    let keys: Vec<u64> = (0..200).map(|i| i * 7919 % 1000).collect();
    let reversed: Vec<u64> = keys.iter().rev().copied().collect();
    assert_eq!(image(&keys), image(&reversed));
}

#[test]
fn bad_tags_and_absurd_lengths_are_errors() {
    assert_eq!(
        AccessKind::get(&mut ByteReader::new(&[3])),
        Err(CodecError::Corrupt("bad access kind tag"))
    );
    assert_eq!(
        Option::<u64>::get(&mut ByteReader::new(&[2])),
        Err(CodecError::Corrupt("bad option tag"))
    );
    // A flipped high bit in a length must fail before anything is
    // allocated for it: the count is bounded by the bytes that remain.
    let huge = [0xff, 0xff, 0xff, 0x7f, 1, 2, 3];
    assert!(matches!(
        <FxHashMap<u64, u64> as Codec>::get(&mut ByteReader::new(&huge)),
        Err(CodecError::UnexpectedEof { remaining: 3, .. })
    ));
    assert!(matches!(
        <VecDeque<LineAddr> as Codec>::get(&mut ByteReader::new(&huge)),
        Err(CodecError::UnexpectedEof { remaining: 3, .. })
    ));
}
