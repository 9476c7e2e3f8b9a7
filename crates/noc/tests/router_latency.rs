//! Router-latency semantics: the configurable per-hop dwell time behaves
//! exactly linearly at zero load.

use nim_noc::{Network, SendRequest, TrafficClass};
use nim_topology::ChipLayout;
use nim_types::{Coord, SystemConfig};

fn one_packet_latency(router_latency: u32, hops: u8, flits: u32) -> u64 {
    let mut cfg = SystemConfig::default().flattened();
    cfg.network.router_latency = router_latency;
    let layout = ChipLayout::new(&cfg).unwrap();
    let mut net = Network::new(&layout, &cfg.network);
    net.send(SendRequest {
        src: Coord::new(0, 0, 0),
        dst: Coord::new(hops, 0, 0),
        via: None,
        class: TrafficClass::Data,
        flits,
        token: 0,
    });
    net.run_until_idle(10_000).expect("drains");
    net.drain_delivered().pop().expect("delivered").latency()
}

#[test]
fn zero_load_latency_is_linear_in_router_delay() {
    // Single-flit packet over h hops: 1 (inject) + h·L (hops) + L (eject).
    for hops in [1u8, 3, 6] {
        for latency in [1u32, 2, 4] {
            let measured = one_packet_latency(latency, hops, 1);
            let expected = 1 + u64::from(hops + 1) * u64::from(latency);
            assert_eq!(measured, expected, "hops={hops} router_latency={latency}");
        }
    }
}

#[test]
fn multi_flit_packets_pipeline_behind_the_head() {
    // Per-flit dwell times overlap across routers, so once the wormhole
    // is streaming, flits emerge one per cycle regardless of the dwell:
    // the tail trails the head by exactly (flits − 1) cycles.
    let l1 = one_packet_latency(1, 4, 4);
    let l2 = one_packet_latency(2, 4, 4);
    assert_eq!(l1, 1 + 5 + 3, "1-cycle routers: head 6, tail +3");
    assert_eq!(l2, 1 + 10 + 3, "2-cycle routers: head 11, tail +3");
}
