//! Behavioural tests of the dTDMA pillar bus: work-conserving dynamic
//! slot allocation (= round-robin fairness among active clients) and
//! single-hop transfer between arbitrary layer pairs.

use nim_noc::{Network, SendRequest, TrafficClass};
use nim_topology::ChipLayout;
use nim_types::{Coord, PillarId, SystemConfig};

fn four_layer_net() -> (ChipLayout, Network) {
    let cfg = SystemConfig::default().with_layers(4);
    let layout = ChipLayout::new(&cfg).unwrap();
    let net = Network::new(&layout, &cfg.network);
    (layout, net)
}

#[test]
fn any_layer_pair_is_one_bus_hop() {
    let (layout, mut net) = four_layer_net();
    let p = PillarId(0);
    let (px, py) = layout.pillar_xy(p);
    let mut token = 0;
    for from in 0..4u8 {
        for to in 0..4u8 {
            if from == to {
                continue;
            }
            net.send(SendRequest {
                src: Coord::new(px, py, from),
                dst: Coord::new(px, py, to),
                via: Some(p),
                class: TrafficClass::Control,
                flits: 1,
                token,
            });
            token += 1;
            net.run_until_idle(1_000).expect("drains");
        }
    }
    for d in net.drain_delivered() {
        assert_eq!(
            d.hops, 1,
            "layer {} -> {} took {} hops; the bus is single-hop",
            d.src.layer, d.dst.layer, d.hops
        );
    }
}

#[test]
fn saturated_bus_shares_slots_fairly() {
    // Two transmitters on different layers both stream packets through
    // one pillar; dynamic TDMA must serve them near-equally.
    let (layout, mut net) = four_layer_net();
    let p = PillarId(0);
    let (px, py) = layout.pillar_xy(p);
    let n = 40u64;
    for i in 0..n {
        net.send(SendRequest {
            src: Coord::new(px, py, 0),
            dst: Coord::new(px, py, 2),
            via: Some(p),
            class: TrafficClass::Data,
            flits: 4,
            token: i,
        });
        net.send(SendRequest {
            src: Coord::new(px, py, 1),
            dst: Coord::new(px, py, 3),
            via: Some(p),
            class: TrafficClass::Data,
            flits: 4,
            token: 1_000 + i,
        });
    }
    net.run_until_idle(100_000).expect("drains");
    let mut latency = [0.0f64; 2];
    let mut count = [0u32; 2];
    for d in net.drain_delivered() {
        let side = usize::from(d.token >= 1_000);
        latency[side] += d.latency() as f64;
        count[side] += 1;
    }
    assert_eq!(count, [n as u32, n as u32], "everything delivered");
    let (a, b) = (
        latency[0] / f64::from(count[0]),
        latency[1] / f64::from(count[1]),
    );
    let ratio = a.max(b) / a.min(b);
    assert!(
        ratio < 1.25,
        "round-robin must serve both streams near-equally: {a:.1} vs {b:.1}"
    );
    assert!(
        net.bus_stats()[0].contention_cycles > 0,
        "the bus must actually have been contended"
    );
}

#[test]
fn narrow_buses_serialise_each_flit() {
    // Halving the bus width (a tighter via budget, Table 2) doubles the
    // cycles each flit occupies the pillar.
    let run = |bus_width: u32| {
        let mut cfg = SystemConfig::default();
        cfg.network.bus_width_bits = bus_width;
        let layout = ChipLayout::new(&cfg).unwrap();
        let mut net = Network::new(&layout, &cfg.network);
        let p = PillarId(0);
        let (px, py) = layout.pillar_xy(p);
        for i in 0..10u64 {
            net.send(SendRequest {
                src: Coord::new(px, py, 0),
                dst: Coord::new(px, py, 1),
                via: Some(p),
                class: TrafficClass::Data,
                flits: 4,
                token: i,
            });
        }
        net.run_until_idle(10_000).expect("drains");
        let stats = net.bus_stats()[0];
        (net.now().0, stats.busy_cycles)
    };
    let (full_cycles, full_busy) = run(128);
    let (half_cycles, half_busy) = run(64);
    assert!(
        half_cycles > full_cycles + 30,
        "a half-width bus must take noticeably longer: {full_cycles} vs {half_cycles}"
    );
    assert_eq!(
        half_busy,
        2 * full_busy,
        "each flit holds the bus twice as long"
    );
}

#[test]
fn bus_is_work_conserving() {
    // A single active transmitter gets every slot: n 1-flit packets
    // cross in ~n consecutive bus cycles (plus pipeline fill).
    let (layout, mut net) = four_layer_net();
    let p = PillarId(2);
    let (px, py) = layout.pillar_xy(p);
    let n = 30u64;
    for i in 0..n {
        net.send(SendRequest {
            src: Coord::new(px, py, 0),
            dst: Coord::new(px, py, 1),
            via: Some(p),
            class: TrafficClass::Control,
            flits: 1,
            token: i,
        });
    }
    let cycles = net.run_until_idle(10_000).expect("drains");
    assert!(
        cycles <= 3 * n + 10,
        "one flit per cycle when alone on the bus: {n} packets took {cycles} cycles"
    );
    assert_eq!(net.bus_stats()[p.index()].transfers, n);
}
