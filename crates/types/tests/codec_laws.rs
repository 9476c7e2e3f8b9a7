//! The `Codec` laws (`get(put(x)) == x`; every strict prefix of an image
//! is `UnexpectedEof`, never a panic) on arbitrary values of every
//! `nim-types` type a snapshot image carries, and of the `String` and
//! `Option` impls they compose with.

use nim_types::codec::{assert_laws, ByteReader, Codec, CodecError};
use nim_types::{L1Config, L2Config, NetworkConfig, SystemConfig};
use proptest::prelude::*;

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
    fn configurations(cfg in system()) {
        prop_assert_eq!(assert_laws(&cfg.l1), cfg.l1);
        prop_assert_eq!(assert_laws(&cfg.l2), cfg.l2);
        prop_assert_eq!(assert_laws(&cfg.network), cfg.network);
        prop_assert_eq!(assert_laws(&cfg), cfg);
    }

    #[test]
    fn containers(words in proptest::collection::vec(any::<u64>(), 0..6), flag in any::<bool>()) {
        let text: String = words.iter().map(|w| char::from(b'a' + (*w % 26) as u8)).collect();
        prop_assert_eq!(assert_laws(&text), text.clone());
        let optional = flag.then_some(text);
        prop_assert_eq!(assert_laws(&optional), optional.clone());
        let nested = flag.then_some(optional);
        prop_assert_eq!(assert_laws(&nested), nested.clone());
        let number = words.first().copied().map(|w| (w as usize, w as u8 == 0));
        prop_assert_eq!(assert_laws(&number.map(|n| n.0)), number.map(|n| n.0));
        prop_assert_eq!(assert_laws(&number.map(|n| n.1)), number.map(|n| n.1));
    }
}

#[test]
fn bad_tags_and_absurd_lengths_are_errors() {
    assert_eq!(
        Option::<u64>::get(&mut ByteReader::new(&[2])),
        Err(CodecError::Corrupt("bad option tag"))
    );
    assert_eq!(
        bool::get(&mut ByteReader::new(&[7])),
        Err(CodecError::Corrupt("non-boolean byte"))
    );
    // A flipped high bit in a length must fail before anything is
    // allocated for it: the count is bounded by the bytes that remain.
    let huge = [0xff, 0xff, 0xff, 0x7f, 1, 2, 3];
    assert!(matches!(
        String::get(&mut ByteReader::new(&huge)),
        Err(CodecError::UnexpectedEof { remaining: 3, .. })
    ));
}
