//! Golden [`NetworkStats`](nim_noc::NetworkStats) for five saturating
//! runs, recorded on the commit before the router phase went
//! mask-driven (the four-layer row on the commit before the 3D-mesh
//! mode was retired, the one- and eight-VC rows on the commit before
//! routers stored only the VCs of the ports they have). Switch-contention counts and round-robin order
//! are what a wrong arbitration order moves first, and saturation
//! (every VC busy, multi-cycle routers, a serialising bus) is where
//! they are most sensitive. Every tick also runs
//! `Network::check_invariants`.

use nim_noc::{Network, SendRequest, TrafficClass};
use nim_topology::ChipLayout;
use nim_types::{Coord, SystemConfig};

/// Every node of the chip sends `per_node` packets (alternating 4-flit
/// data and single-flit control, every third pinned to its nearest
/// pillar) to destinations chosen by `dst_of(node, round)`.
fn flood(
    net: &mut Network,
    layout: &ChipLayout,
    per_node: usize,
    dst_of: impl Fn(usize, usize) -> Coord,
) {
    for round in 0..per_node {
        for i in 0..layout.num_nodes() {
            let src = layout.coord_of_index(i);
            net.send(SendRequest {
                src,
                dst: dst_of(i, round),
                via: ((i + round) % 3 == 0)
                    .then(|| layout.nearest_pillar(src))
                    .flatten(),
                class: TrafficClass::Control,
                flits: if (i + round) % 2 == 0 { 4 } else { 1 },
                token: 7,
            });
        }
    }
}

/// Drains the network and returns everything order-sensitive the run
/// leaves behind: final clock, packets, latency sum and max, head hops,
/// flit hops, bus transfers, switch contention, and the per-bus
/// contention-cycle and peak-queue sums.
fn saturation_digest(net: &mut Network) -> [u64; 10] {
    while !net.is_idle() {
        assert!(net.now().0 < 1_000_000, "saturating traffic must drain");
        net.tick();
        net.check_invariants();
    }
    let s = net.stats();
    assert_eq!(s.packets_sent, s.packets_delivered);
    let bus = net.bus_stats();
    [
        net.now().0,
        s.packets_delivered,
        s.total_latency,
        s.max_latency,
        s.total_hops,
        s.flit_hops,
        s.bus_transfers,
        s.switch_contention,
        bus.iter().map(|b| b.contention_cycles).sum(),
        bus.iter().map(|b| b.peak_queued).sum(),
    ]
}

#[test]
fn hotspot_with_all_vcs_busy() {
    let cfg = SystemConfig::default();
    let layout = ChipLayout::new(&cfg).unwrap();
    let mut net = Network::new(&layout, &cfg.network);
    flood(&mut net, &layout, 3, |_, _| Coord::new(5, 3, 1));
    assert_eq!(
        saturation_digest(&mut net),
        [1921, 768, 758_406, 1921, 5856, 14_544, 960, 670_910, 0, 32]
    );
}

/// The one row with four layers and with 2-cycle routers.
#[test]
fn four_layer_pillars_with_two_cycle_routers() {
    let mut cfg = SystemConfig::default().with_layers(4);
    cfg.network.router_latency = 2;
    let layout = ChipLayout::new(&cfg).unwrap();
    let mut net = Network::new(&layout, &cfg.network);
    let n = layout.num_nodes();
    flood(&mut net, &layout, 8, |i, r| {
        layout.coord_of_index((i * 37 + 11 + r * 101) % n)
    });
    assert_eq!(
        saturation_digest(&mut net),
        [921, 2048, 769_415, 921, 14_116, 35_572, 3_836, 544_510, 3_795, 128]
    );
}

#[test]
fn narrow_bus_serialises_flits() {
    let mut cfg = SystemConfig::default();
    cfg.network.bus_width_bits = 32;
    let layout = ChipLayout::new(&cfg).unwrap();
    let mut net = Network::new(&layout, &cfg.network);
    let n = layout.num_nodes();
    // Every packet crosses layers, so all traffic funnels through buses
    // that take 4 cycles per flit.
    flood(&mut net, &layout, 2, |i, r| {
        let c = layout.coord_of_index((i * 29 + 7 + r * 53) % n);
        Coord::new(c.x, c.y, 1 - layout.coord_of_index(i).layer)
    });
    assert_eq!(
        saturation_digest(&mut net),
        [1010, 512, 212_816, 1010, 5232, 12_720, 1280, 142_657, 1272, 64]
    );
}

/// Every node sends 6 packets on the default chip with `vcs` VCs of
/// `depth` flits per port: the VC geometries at either end of what
/// `SystemConfig::validate` accepts. The first round goes anywhere on
/// the chip, the rest stay on the sender's layer: with one VC a port, a
/// flood whose every round may cross layers deadlocks, because a
/// packet's mesh leg after its pillar breaks dimension order.
fn vc_geometry_digest(vcs: u32, depth: u32) -> [u64; 10] {
    let mut cfg = SystemConfig::default();
    cfg.network.vcs_per_port = vcs;
    cfg.network.vc_depth_flits = depth;
    cfg.validate().unwrap();
    let layout = ChipLayout::new(&cfg).unwrap();
    let mut net = Network::new(&layout, &cfg.network);
    let n = layout.num_nodes();
    flood(&mut net, &layout, 6, |i, r| {
        let c = layout.coord_of_index((i * 29 + 7 + r * 53) % n);
        let layer = if r == 0 {
            c.layer
        } else {
            layout.coord_of_index(i).layer
        };
        Coord::new(c.x, c.y, layer)
    });
    saturation_digest(&mut net)
}

/// The one row with a single VC a port, so every packet holds its
/// input port to itself until its tail leaves.
#[test]
fn one_vc_of_two_flits_per_port() {
    assert_eq!(
        vc_geometry_digest(1, 2),
        [297, 1536, 225_767, 297, 12_234, 30_312, 312, 84_522, 296, 32]
    );
}

/// The one row with the most VCs a port the configuration allows.
#[test]
fn eight_vcs_of_four_flits_per_port() {
    assert_eq!(
        vc_geometry_digest(8, 4),
        [145, 1536, 65_028, 145, 12_234, 30_312, 312, 10_706, 282, 64]
    );
}
