//! Property-based tests for the network: arbitrary traffic always drains,
//! every packet is delivered exactly once at its destination, and latency
//! is bounded below by the zero-load minimum.

use nim_noc::{Network, SendRequest, TrafficClass};
use nim_topology::ChipLayout;
use nim_types::{Coord, SystemConfig};
use proptest::prelude::*;

#[derive(Clone, Debug)]
struct Traffic {
    src: Coord,
    dst: Coord,
    flits: u32,
    gap: u8,
}

fn arb_traffic(w: u8, h: u8, layers: u8) -> impl Strategy<Value = Traffic> {
    (
        0..w,
        0..h,
        0..layers,
        0..w,
        0..h,
        0..layers,
        1u32..=4,
        0u8..4,
    )
        .prop_map(|(sx, sy, sl, dx, dy, dl, flits, gap)| Traffic {
            src: Coord::new(sx, sy, sl),
            dst: Coord::new(dx, dy, dl),
            flits,
            gap,
        })
}

fn run_traffic(traffic: Vec<Traffic>) -> Result<(), TestCaseError> {
    let cfg = SystemConfig::default();
    let layout = ChipLayout::new(&cfg).expect("layout");
    let mut net = Network::new(&layout, &cfg.network);
    let mut expected = std::collections::HashMap::new();
    for (i, t) in traffic.iter().enumerate() {
        net.send(SendRequest {
            src: t.src,
            dst: t.dst,
            via: layout.nearest_pillar(t.src),
            class: TrafficClass::Data,
            flits: t.flits,
            token: i as u64,
        });
        *expected.entry((t.dst, i as u64)).or_insert(0u32) += 1;
        for _ in 0..t.gap {
            net.tick();
        }
    }
    prop_assert!(
        net.run_until_idle(500_000).is_some(),
        "network deadlocked or livelocked"
    );
    let mut seen = std::collections::HashMap::new();
    let mut min_latency_ok = true;
    for d in net.drain_delivered() {
        *seen.entry((d.dst, d.token)).or_insert(0u32) += 1;
        let zero_load = u64::from(
            layout.hops(d.src, d.dst, None).min(
                layout
                    .nearest_pillar(d.src)
                    .map_or(u32::MAX, |p| layout.hops(d.src, d.dst, Some(p))),
            ),
        );
        if d.latency() < zero_load {
            min_latency_ok = false;
        }
    }
    prop_assert!(min_latency_ok, "a packet beat the zero-load bound");
    prop_assert_eq!(seen, expected, "every packet delivered exactly once");
    Ok(())
}

/// The case real proptest once shrank a failure of the two delivery
/// properties to: one 1-flit packet from the far edge of layer 0 to the
/// other edge of layer 1, with nothing else in flight.
#[test]
fn one_flit_packet_across_the_chip_and_up_a_layer() {
    let traffic = vec![Traffic {
        src: Coord::new(13, 4, 0),
        dst: Coord::new(0, 4, 1),
        flits: 1,
        gap: 0,
    }];
    if let Err(e) = run_traffic(traffic) {
        panic!("{e:?}");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn pillar_network_delivers_everything_exactly_once(
        traffic in proptest::collection::vec(arb_traffic(16, 8, 2), 1..150),
    ) {
        run_traffic(traffic)?;
    }

    #[test]
    fn stats_conserve_packets(
        traffic in proptest::collection::vec(arb_traffic(16, 8, 2), 1..80),
    ) {
        let cfg = SystemConfig::default();
        let layout = ChipLayout::new(&cfg).expect("layout");
        let mut net = Network::new(&layout, &cfg.network);
        let n = traffic.len() as u64;
        for (i, t) in traffic.iter().enumerate() {
            net.send(SendRequest {
                src: t.src,
                dst: t.dst,
                via: layout.nearest_pillar(t.src),
                class: TrafficClass::Control,
                flits: t.flits,
                token: i as u64,
            });
        }
        prop_assert!(net.run_until_idle(500_000).is_some());
        prop_assert_eq!(net.stats().packets_sent, n);
        prop_assert_eq!(net.stats().packets_delivered, n);
        prop_assert!(net.is_idle());
    }
}
