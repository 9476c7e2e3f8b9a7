//! Pins the analytic zero-load model (`nim_noc::zero_load_path`) — the
//! timing engine of the ideal fabric — against the
//! cycle-accurate network, flit for flit.
//!
//! Each probe sends exactly one packet into an otherwise idle network
//! and compares the delivered latency, hop count, and tail bus-wait to
//! the model's prediction. A fresh network per probe keeps round-robin
//! pointers and bus serialisation windows from leaking between probes,
//! so every run is a genuine contention-free measurement.

use nim_noc::{zero_load_path, Network, SendRequest, TrafficClass};
use nim_topology::ChipLayout;
use nim_types::{Coord, PillarId, SystemConfig};

/// Sends one packet into a fresh network and checks it against the model.
fn probe(cfg: &SystemConfig, src: Coord, dst: Coord, via: Option<PillarId>, flits: u32) {
    let layout = ChipLayout::new(cfg).expect("layout");
    let predicted = zero_load_path(
        &layout,
        src,
        dst,
        via,
        flits,
        u64::from(cfg.network.router_latency),
        u64::from(cfg.network.bus_cycles_per_flit()),
    );
    let mut net = Network::new(&layout, &cfg.network);
    net.send(SendRequest {
        src,
        dst,
        via,
        class: TrafficClass::Data,
        flits,
        token: 7,
    });
    net.run_until_idle(100_000).expect("single packet drains");
    let d = net.pop_delivered(dst).expect("delivered at dst");
    let ctx = format!(
        "{src}->{dst} via {via:?} flits={flits} layers={} k={} L={}",
        cfg.network.layers,
        cfg.network.bus_cycles_per_flit(),
        cfg.network.router_latency
    );
    assert_eq!(d.latency(), predicted.latency, "latency mismatch: {ctx}");
    assert_eq!(d.hops, predicted.hops, "hops mismatch: {ctx}");
    assert_eq!(d.bus_wait, predicted.bus_wait, "bus_wait mismatch: {ctx}");
}

/// Probes a deterministic spread of pairs over the whole chip for one
/// configuration: same-layer and cross-layer, pinned and unpinned
/// pillars, single- and multi-flit packets.
fn sweep(cfg: &SystemConfig) {
    let layout = ChipLayout::new(cfg).expect("layout");
    let n = layout.num_nodes();
    let pillars = layout.num_pillars();
    for (i, step) in [(0usize, 37usize), (5, 53), (11, 71)] {
        let src = layout.coord_of_index(i % n);
        let dst = layout.coord_of_index((i + step) % n);
        if src == dst {
            continue;
        }
        for flits in [1u32, 4] {
            probe(cfg, src, dst, None, flits);
            if !src.same_layer(dst) && pillars > 0 {
                let via = PillarId((i % pillars as usize) as u16);
                probe(cfg, src, dst, Some(via), flits);
            }
        }
    }
    // Force cross-layer probes even when the index stride happens to
    // stay on a layer.
    if layout.layers() > 1 {
        for p in 0..pillars.min(3) {
            let (px, py) = layout.pillar_xy(PillarId(p));
            let src = Coord::new(0, 0, 0);
            let dst = Coord::new(px, py, layout.layers() - 1);
            probe(cfg, src, dst, Some(PillarId(p)), 4);
            probe(cfg, src, dst, None, 4);
        }
    }
}

#[test]
fn default_topology_matches_model() {
    sweep(&SystemConfig::default());
}

#[test]
fn narrow_bus_matches_model() {
    let mut cfg = SystemConfig::default();
    cfg.network.bus_width_bits = 32; // 4 bus cycles per flit
    sweep(&cfg);
}

#[test]
fn slow_routers_match_model() {
    let mut cfg = SystemConfig::default();
    cfg.network.router_latency = 2;
    sweep(&cfg);
}

#[test]
fn four_layer_stack_matches_model() {
    sweep(&SystemConfig::default().with_layers(4));
}

#[test]
fn eight_layer_stack_matches_model() {
    sweep(&SystemConfig::default().with_layers(8));
}

#[test]
fn every_pillar_set_matches_model() {
    for layers in [2u8, 4, 8] {
        for pillars in [1u16, 2, 4, 8, 16] {
            let cfg = SystemConfig::default().with_layers(layers);
            sweep(&cfg.with_pillars(pillars));
        }
    }
}

#[test]
fn few_pillars_match_model() {
    sweep(&SystemConfig::default().with_pillars(2));
}

#[test]
fn single_layer_chip_matches_model() {
    sweep(&SystemConfig::default().flattened());
}
