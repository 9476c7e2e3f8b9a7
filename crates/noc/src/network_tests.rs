//! Unit tests for the [`Network`](super::Network) phases: injection,
//! routing, dTDMA bus grants, and delivery accounting.
//! Lives beside `network.rs` (the `#[path]` include keeps `super::*`
//! visibility) so the engine file itself stays within the size guard.

use super::*;
use crate::packet::{FlitKind, TrafficClass};
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

/// Flit `seq` of a `len`-flit packet `pkt` bound for `dst`, last moved
/// at cycle 0.
fn flit(pkt: u64, seq: u32, len: u32, dst: Coord) -> Flit {
    Flit {
        pkt: PacketId(pkt),
        kind: FlitKind::for_position(seq, len),
        dst,
        class: TrafficClass::Data,
        token: pkt,
        ..Flit::VACANT
    }
}

/// Buffers `f` in VC `vc` of input port `from` of the router at `at`,
/// with the bookkeeping a hop or an injection does.
fn place(net: &mut Network, at: Coord, from: Dir, vc: usize, f: Flit) {
    let n = net.layout.node_index(at);
    net.routers[n].push(&mut net.arena, &net.layout, from.index(), vc, f);
    net.dirty.insert(n);
    net.flits_in_flight += 1;
}

/// Visits the router at `at`, which must hold exactly one occupied VC,
/// at cycle `now`: once through the one-VC visit and once, on a copy,
/// through the general routine, as the router phase would mid-walk.
/// Asserts that the two leave every router (masks, holds, round-robin
/// pointers, VCs), interface, statistic, traversal count, delivery,
/// work set and arena slot alike and that both keep the invariants;
/// returns the state they agree on.
fn visit_both_ways(net: &Network, at: Coord, now: Cycle) -> Network {
    let n = net.layout.node_index(at);
    let occ = net.routers[n].occupied();
    assert!(occ.is_power_of_two(), "{at}: {occ:#x} is not one VC");
    let mut fast = net.clone();
    // The walk has taken `n` out of the set it visits.
    fast.dirty = IdSet::new(net.routers.len());
    for i in (0..net.routers.len()).filter(|&i| i != n && net.dirty.contains(i)) {
        fast.dirty.insert(i);
    }
    let mut general = fast.clone();
    fast.visit_one(n, occ.trailing_zeros() as usize, now);
    general.process_router(n, now);
    for net in [&mut fast, &mut general] {
        if net.routers[n].occupancy() > 0 {
            net.dirty.insert(n);
        }
        net.settle_touched();
        net.check_invariants();
    }
    for (i, (a, b)) in fast.routers.iter().zip(&general.routers).enumerate() {
        assert_eq!(format!("{a:?}"), format!("{b:?}"), "router {i}");
    }
    assert_eq!(fast.stats, general.stats);
    assert_eq!(fast.traversals, general.traversals);
    assert_eq!(fast.delivered, general.delivered);
    assert_eq!(fast.flits_in_flight, general.flits_in_flight);
    assert_eq!(
        format!("{:?}", fast.ifaces),
        format!("{:?}", general.ifaces)
    );
    assert_eq!(format!("{:?}", fast.buses), format!("{:?}", general.buses));
    assert_eq!(format!("{:?}", fast.arena), format!("{:?}", general.arena));
    for i in 0..net.routers.len() {
        assert_eq!(
            fast.dirty.contains(i),
            general.dirty.contains(i),
            "dirty {i}"
        );
    }
    fast
}

#[test]
fn a_one_vc_visit_does_what_the_general_routine_does() {
    let (_, mut net) = net();
    let (here, east) = (Coord::new(1, 1, 0), Coord::new(2, 1, 0));
    let (n, e) = (net.layout.node_index(here), Dir::East.index());
    let far = Coord::new(5, 1, 0);
    let now = Cycle(9);

    // A head to a free mesh output moves and claims it.
    place(&mut net, here, Dir::West, 0, flit(1, 0, 4, far));
    net = visit_both_ways(&net, here, now);
    assert_eq!(net.traversals[n], 1);
    assert!(net.routers[n].hold(e).is_some(), "the head holds East");
    assert_eq!(net.routers[n].occupied(), 0, "drained, still owned");

    // A head whose output that drained VC holds waits, uncounted.
    place(&mut net, here, Dir::South, 1, flit(2, 0, 1, far));
    net = visit_both_ways(&net, here, now);
    assert_eq!((net.traversals[n], net.stats.switch_contention), (1, 0));
    let waiting = net.routers[n].occupied();

    // A body and a tail follow on the held output; the tail releases it.
    // The waiting head is dropped first, so one VC is occupied again.
    let south = net.routers[n].at(Dir::South.index(), 1);
    net.routers[n].drop_front(&mut net.arena, south, true);
    net.flits_in_flight -= 1;
    assert_eq!(net.routers[n].occupied() & waiting, 0);
    for seq in 1..4 {
        place(&mut net, here, Dir::West, 0, flit(1, seq, 4, far));
        net = visit_both_ways(&net, here, now);
        assert_eq!(net.traversals[n], 1 + u64::from(seq));
    }
    assert!(net.routers[n].hold(e).is_none(), "the tail released East");
    assert_eq!(net.stats.switch_contention, 0);

    // A head blocked downstream (every VC of the next router's West
    // input taken) counts one switch-allocation loss.
    for vc in 1..3 {
        place(
            &mut net,
            east,
            Dir::West,
            vc,
            flit(10 + vc as u64, 0, 1, far),
        );
    }
    place(&mut net, here, Dir::North, 2, flit(3, 0, 4, far));
    net = visit_both_ways(&net, here, now);
    assert_eq!(net.stats.switch_contention, 1);
    assert_eq!(net.traversals[n], 4, "nothing moved");
}

#[test]
fn a_one_vc_visit_ejects_a_one_flit_packet_to_local() {
    let (_, mut net) = net();
    let here = Coord::new(1, 1, 0);
    let now = Cycle(9);
    place(&mut net, here, Dir::West, 2, flit(4, 0, 1, here));
    net = visit_both_ways(&net, here, now);
    assert_eq!(net.delivered.len(), 1);
    assert_eq!(net.delivered[0].packet, PacketId(4));
    assert_eq!(net.stats.flit_hops, 0, "an ejection is no hop");
}

#[test]
fn a_one_vc_visit_into_a_full_transceiver_interface_waits_and_counts() {
    let (layout, mut net) = net();
    let (px, py) = layout.pillar_xy(PillarId(0));
    let (here, up) = (Coord::new(px, py, 0), Coord::new(px, py, 1));
    let n = layout.node_index(here);
    let slot = net.routers[n].next[Dir::Vertical.index()] as usize;
    let depth = net.ifaces[slot].q.capacity();
    for i in 0..depth - 1 {
        let mut f = flit(20 + i as u64, 0, 1, up);
        f.via = Some(PillarId(0));
        net.ifaces[slot].q.push_back(&mut net.arena, f);
        net.flits_in_flight += 1;
    }
    net.bus_active.insert(0);
    let now = Cycle(9);
    let climb = |pkt| Flit {
        via: Some(PillarId(0)),
        ..flit(pkt, 0, 1, up)
    };
    // The last free slot of the interface takes one flit...
    place(&mut net, here, Dir::West, 0, climb(1));
    assert_eq!(net.routers[n].vc(Dir::West.index(), 0).out, Dir::Vertical);
    net = visit_both_ways(&net, here, now);
    assert!(net.ifaces[slot].q.is_full());
    assert_eq!((net.traversals[n], net.stats.switch_contention), (1, 0));
    // ...and the next waits behind the full interface, counted once.
    place(&mut net, here, Dir::East, 1, climb(2));
    net = visit_both_ways(&net, here, now);
    assert_eq!((net.traversals[n], net.stats.switch_contention), (1, 1));
}
