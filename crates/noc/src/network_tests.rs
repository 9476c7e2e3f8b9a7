//! Unit tests for the [`Network`](super::Network) phases: injection,
//! routing, dTDMA bus grants, and delivery accounting.
//! Lives beside `network.rs` (the `#[path]` include keeps `super::*`
//! visibility) so the engine file itself stays within the size guard.

use super::*;
use crate::packet::TrafficClass;
use nim_types::{PillarId, SystemConfig};

fn net() -> (ChipLayout, Network) {
    let cfg = SystemConfig::default();
    let layout = ChipLayout::new(&cfg).unwrap();
    let network = Network::new(&layout, &cfg.network);
    (layout, network)
}

fn send_one(
    net: &mut Network,
    src: Coord,
    dst: Coord,
    via: Option<PillarId>,
    flits: u32,
) -> PacketId {
    net.send(SendRequest {
        src,
        dst,
        via,
        class: TrafficClass::Control,
        flits,
        token: 7,
    })
}

#[test]
fn single_flit_same_layer_zero_load_latency() {
    let (_, mut net) = net();
    let src = Coord::new(0, 0, 0);
    let dst = Coord::new(3, 0, 0);
    send_one(&mut net, src, dst, None, 1);
    let cycles = net.run_until_idle(100).expect("must drain");
    // 1 injection cycle + 3 hops + 1 ejection cycle.
    assert_eq!(cycles, 5);
    let d = net.pop_delivered(dst).expect("delivered");
    assert_eq!(d.latency(), 5);
    assert_eq!(d.hops, 3);
    assert_eq!(d.token, 7);
    assert_eq!(net.stats().packets_delivered, 1);

    // A one-layer chip has no pillar, so no bus, and the same timing.
    let cfg = SystemConfig::default().with_layers(1);
    let layout = ChipLayout::new(&cfg).unwrap();
    let mut flat = Network::new(&layout, &cfg.network);
    assert!(flat.bus_stats().is_empty(), "a one-layer chip has no bus");
    send_one(&mut flat, src, dst, None, 1);
    assert_eq!(flat.run_until_idle(100), Some(5));
}

#[test]
fn four_flit_packet_streams_behind_its_head() {
    let (_, mut net) = net();
    let src = Coord::new(0, 0, 0);
    let dst = Coord::new(3, 0, 0);
    send_one(&mut net, src, dst, None, 4);
    let cycles = net.run_until_idle(100).expect("must drain");
    // Head takes 5; each body/tail flit adds one cycle behind it.
    assert_eq!(cycles, 8);
    let d = net.pop_delivered(dst).unwrap();
    assert_eq!(d.latency(), 8);
}

#[test]
fn delivery_to_self_works() {
    let (_, mut net) = net();
    let here = Coord::new(2, 2, 0);
    send_one(&mut net, here, here, None, 1);
    net.run_until_idle(50).expect("drains");
    let d = net.pop_delivered(here).unwrap();
    assert_eq!(d.hops, 0, "local delivery never leaves the router");
}

#[test]
fn cross_layer_rides_the_pillar_bus() {
    let (layout, mut net) = net();
    let p = PillarId(0);
    let (px, py) = layout.pillar_xy(p);
    let src = Coord::new(px, py, 0);
    let dst = Coord::new(px, py, 1);
    send_one(&mut net, src, dst, Some(p), 1);
    let cycles = net.run_until_idle(100).expect("drains");
    // inject + vertical crossbar + bus + eject = 4 cycles.
    assert_eq!(cycles, 4);
    let d = net.pop_delivered(dst).unwrap();
    assert_eq!(d.hops, 1, "the bus is a single hop between any layers");
    assert_eq!(net.stats().bus_transfers, 1);
    assert_eq!(net.bus_stats()[0].transfers, 1);
}

#[test]
fn cross_layer_from_off_pillar_walks_to_the_pillar() {
    let (layout, mut net) = net();
    let p = PillarId(0);
    let (px, py) = layout.pillar_xy(p);
    let src = Coord::new(px.saturating_sub(1), py, 0);
    let dst = Coord::new(px + 1, py, 1);
    send_one(&mut net, src, dst, Some(p), 1);
    net.run_until_idle(200).expect("drains");
    let d = net.pop_delivered(dst).unwrap();
    // 1 hop to pillar + 1 bus hop + 1 hop to dst.
    assert_eq!(d.hops, 3);
}

#[test]
fn pillar_contention_is_observable() {
    let (layout, mut net) = net();
    let p = PillarId(0);
    let (px, py) = layout.pillar_xy(p);
    // Two senders on different layers both crossing simultaneously.
    send_one(
        &mut net,
        Coord::new(px, py, 0),
        Coord::new(px, py, 1),
        Some(p),
        4,
    );
    send_one(
        &mut net,
        Coord::new(px, py, 1),
        Coord::new(px, py, 0),
        Some(p),
        4,
    );
    net.run_until_idle(300).expect("drains");
    assert_eq!(net.stats().packets_delivered, 2);
    let bs = net.bus_stats()[0];
    assert!(bs.contention_cycles > 0);
    assert!(
        bs.contention_cycles <= bs.transfers,
        "contention is only counted on cycles where a transfer happens; \
         VC-blocked rounds are backpressure, not contention"
    );
}

#[test]
fn many_packets_all_arrive_exactly_once() {
    let (layout, mut net) = net();
    let mut expected = Vec::new();
    // All-to-all among a set of nodes spread over both layers.
    let nodes = [
        Coord::new(0, 0, 0),
        Coord::new(15, 7, 0),
        Coord::new(7, 3, 1),
        Coord::new(2, 6, 1),
        Coord::new(12, 1, 0),
    ];
    let mut token = 0u64;
    for &s in &nodes {
        for &d in &nodes {
            if s != d {
                let via = layout.nearest_pillar(s);
                net.send(SendRequest {
                    src: s,
                    dst: d,
                    via,
                    class: TrafficClass::Data,
                    flits: 4,
                    token,
                });
                expected.push((d, token));
                token += 1;
            }
        }
    }
    net.run_until_idle(10_000).expect("all traffic drains");
    let mut got: Vec<(Coord, u64)> = net
        .drain_delivered()
        .into_iter()
        .map(|d| (d.dst, d.token))
        .collect();
    got.sort_unstable_by_key(|&(c, t)| (c.layer, c.y, c.x, t));
    expected.sort_unstable_by_key(|&(c, t)| (c.layer, c.y, c.x, t));
    assert_eq!(got, expected);
    assert_eq!(net.stats().packets_sent, net.stats().packets_delivered);
}

#[test]
fn per_source_destination_order_is_preserved() {
    let (_, mut net) = net();
    let src = Coord::new(0, 0, 0);
    let dst = Coord::new(5, 5, 0);
    for t in 0..10u64 {
        net.send(SendRequest {
            src,
            dst,
            via: None,
            class: TrafficClass::Control,
            flits: 1,
            token: t,
        });
    }
    net.run_until_idle(1_000).expect("drains");
    let tokens: Vec<u64> = std::iter::from_fn(|| net.pop_delivered(dst))
        .map(|d| d.token)
        .collect();
    assert_eq!(tokens, (0..10).collect::<Vec<_>>());
}

#[test]
fn heavy_random_traffic_drains_without_deadlock() {
    use rand::rngs::StdRng;
    use rand::{RngExt, SeedableRng};
    let (layout, mut net) = net();
    let mut rng = StdRng::seed_from_u64(42);
    let mut sent = 0u64;
    for _ in 0..400 {
        let src = Coord::new(
            rng.random_range(0..layout.width()),
            rng.random_range(0..layout.height()),
            rng.random_range(0..layout.layers()),
        );
        let dst = Coord::new(
            rng.random_range(0..layout.width()),
            rng.random_range(0..layout.height()),
            rng.random_range(0..layout.layers()),
        );
        let flits = if rng.random_bool(0.5) { 1 } else { 4 };
        net.send(SendRequest {
            src,
            dst,
            via: layout.nearest_pillar(src),
            class: TrafficClass::Data,
            flits,
            token: sent,
        });
        sent += 1;
        // Interleave some ticks so injection queues overlap in time.
        if sent.is_multiple_of(7) {
            net.tick();
        }
    }
    net.run_until_idle(100_000).expect("no deadlock under load");
    assert_eq!(net.stats().packets_delivered, sent);
    assert!(net.stats().avg_latency() > 0.0);
    assert!(
        net.stats().switch_contention > 0,
        "load must cause contention"
    );
}

#[test]
fn stats_latency_matches_deliveries() {
    let (_, mut net) = net();
    send_one(&mut net, Coord::new(0, 0, 0), Coord::new(1, 0, 0), None, 1);
    send_one(&mut net, Coord::new(4, 4, 0), Coord::new(4, 6, 0), None, 1);
    net.run_until_idle(100).unwrap();
    let ds = net.drain_delivered();
    let sum: u64 = ds.iter().map(|d| d.latency()).sum();
    assert_eq!(net.stats().total_latency, sum);
    assert_eq!(net.stats().avg_latency(), sum as f64 / 2.0);
}

/// The flit slab grows with the flits buffered, not with the chip: an
/// idle network holds no slot, a drained burst leaves the slab as long
/// as the most flits ever buffered at once, and the same burst again
/// reuses those slots.
#[test]
fn the_flit_slab_holds_only_the_flits_buffered_at_peak() {
    let (layout, mut net) = net();
    for _ in 0..1_000 {
        net.tick();
    }
    assert_eq!(net.arena.slab_len(), 0, "an idle network buffers nothing");
    let buffered = |net: &Network| -> usize {
        let vcs: usize = net
            .routers
            .iter()
            .flat_map(Router::fifos)
            .map(|q| q.len())
            .sum();
        vcs + (0..net.buses.len())
            .map(|b| net.bus_queued(b))
            .sum::<usize>()
    };
    let burst = |net: &mut Network| {
        let mut peak = 0;
        for i in 0..layout.num_nodes() {
            let src = layout.coord_of_index(i);
            let dst = layout.coord_of_index((i * 37 + 11) % layout.num_nodes());
            net.send(SendRequest {
                src,
                dst,
                via: layout.nearest_pillar(src),
                class: TrafficClass::Data,
                flits: 4,
                token: i as u64,
            });
        }
        // Within a tick the bus and router phases never add a buffered
        // flit and injection never removes one, so tick ends see the peak.
        while !net.is_idle() {
            net.tick();
            peak = peak.max(buffered(net));
        }
        peak
    };
    let peak = burst(&mut net);
    assert!(peak > 100, "the burst loads the network ({peak} flits)");
    assert_eq!(net.arena.slab_len(), peak);
    let again = burst(&mut net);
    assert!(
        again <= peak,
        "the same burst peaks no higher ({again} > {peak})"
    );
    assert_eq!(net.arena.slab_len(), peak, "the second burst reuses slots");
}

/// Each router keeps VC records only for the ports it has, so on the
/// default chip the routers and their VC slices take under 140 KB: every
/// router once reserved 64 slots of 32 bytes, 563 200 bytes in all.
#[test]
fn routers_hold_only_the_vcs_of_their_ports() {
    use crate::vc::Vc;
    use std::mem::size_of;

    let (layout, net) = net();
    let vcs = SystemConfig::default().network.vcs_per_port as usize;
    assert_eq!(vcs, 3, "the paper's 3 VCs per physical channel");
    let (mut records, mut ports) = (0, 0);
    for r in &net.routers {
        let n = r.ports().count_ones() as usize;
        assert_eq!(r.fifos().count(), n * vcs, "router at {}", r.coord);
        records += r.fifos().count();
        ports += n;
    }
    assert_eq!(net.routers.len(), layout.num_nodes());
    assert_eq!(records, 3 * ports);
    assert!(size_of::<Vc>() <= 24, "a Vc is {} bytes", size_of::<Vc>());
    let bytes = net.routers.len() * size_of::<Router>() + records * size_of::<Vc>();
    assert!(bytes <= 140_000, "{bytes} bytes of routers and VCs");
}
