//! Cross-crate integration tests of the substrates the system composes:
//! topology ↔ network, cache ↔ topology, thermal ↔ placement, and the
//! power models' paper-anchored outputs.

use network_in_memory::cache::{NucaL2, SearchPlan};
use network_in_memory::noc::{Network, SendRequest, TrafficClass};
use network_in_memory::power::{pillar_wires, table2_row, GENERIC_ROUTER};
use network_in_memory::thermal::{ThermalConfig, ThermalModel};
use network_in_memory::topology::{ChipLayout, Floorplan, PlacementPolicy};
use network_in_memory::types::{ClusterId, LineAddr, SystemConfig};

#[test]
fn a_cache_line_fits_exactly_in_one_data_packet() {
    let cfg = SystemConfig::default();
    assert_eq!(
        cfg.network.data_packet_bits(),
        cfg.l2.line_bytes * 8,
        "4 flits x 128 bits = 64 B (paper §3.2)"
    );
}

#[test]
fn network_serves_every_cluster_center_from_every_seat() {
    // Every (CPU seat → cluster center) probe path used by the search
    // policy must be routable and drain.
    let cfg = SystemConfig::default();
    let layout = ChipLayout::new(&cfg).unwrap();
    let seats = PlacementPolicy::MaximalOffset
        .place(&layout, cfg.num_cpus)
        .unwrap();
    let mut net = Network::new(&layout, &cfg.network);
    let mut sent = 0u64;
    for seat in &seats {
        for cl in 0..layout.num_clusters() {
            let dst = layout.cluster_center(ClusterId(cl));
            net.send(SendRequest {
                src: seat.coord,
                dst,
                via: seat.pillar,
                class: TrafficClass::Control,
                flits: 1,
                token: sent,
            });
            sent += 1;
        }
    }
    net.run_until_idle(100_000).expect("probe mesh drains");
    assert_eq!(net.stats().packets_delivered, sent);
}

#[test]
fn search_plans_cover_the_l2_and_the_l2_respects_them() {
    let cfg = SystemConfig::default();
    let layout = ChipLayout::new(&cfg).unwrap();
    let mut l2 = NucaL2::new(&cfg.l2);
    // Insert a line per cluster; every plan must classify each location
    // as step 1 or step 2.
    let plan = SearchPlan::new(&layout, ClusterId(0));
    for cl in 0..cfg.l2.clusters {
        let line = LineAddr(u64::from(cl) << 10);
        let placed = l2.insert(line);
        assert_eq!(placed.cluster, ClusterId(cl as u16));
        assert!(plan.step_of(placed.cluster).is_some());
    }
    assert_eq!(l2.occupancy(), cfg.l2.clusters as usize);
}

#[test]
fn thermal_model_runs_on_every_placement_the_schemes_use() {
    for (layers, pillars, policy) in [
        (1, 8, PlacementPolicy::Edges),
        (1, 8, PlacementPolicy::Interior2d),
        (2, 8, PlacementPolicy::MaximalOffset),
        (2, 8, PlacementPolicy::Stacked),
        (2, 4, PlacementPolicy::Algorithm1 { k: 1 }),
        (4, 8, PlacementPolicy::MaximalOffset),
    ] {
        let cfg = SystemConfig::default()
            .with_layers(layers)
            .with_pillars(pillars);
        let layout = ChipLayout::new(&cfg).unwrap();
        let seats = policy.place(&layout, cfg.num_cpus).unwrap();
        let plan = Floorplan::new(&layout, &seats);
        let tcfg = ThermalConfig::default();
        let profile = ThermalModel::new(&plan, &tcfg).solve(&tcfg);
        assert!(profile.peak() > tcfg.ambient_c, "{policy:?}");
        assert!(profile.min() >= tcfg.ambient_c, "{policy:?}");
    }
}

#[test]
fn via_area_justifies_the_pillar_budget() {
    // The paper's §3.1 argument chain: a pillar at 5 µm pitch costs ~4%
    // of a router; at the state-of-the-art 0.2 µm it is negligible; and
    // the whole default chip uses 8 pillars of 170 wires.
    assert_eq!(pillar_wires(128, 4), 170);
    let router_um2 = GENERIC_ROUTER.area_mm2 * 1e6;
    assert!(table2_row(5.0) / router_um2 < 0.05);
    assert!(table2_row(0.2) / router_um2 < 1e-3);
}
