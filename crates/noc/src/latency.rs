//! Analytic zero-load latency model of the pillar network.
//!
//! [`zero_load_path`] predicts, without simulating a single flit, the
//! exact end-to-end timing the cycle-accurate engine produces for a
//! packet that never contends with other traffic: the ideal fabric in
//! `nim-core` is built on it, and `tests/fabric_equivalence.rs` pins it
//! against the real [`Network`] flit by flit.
//!
//! The closed forms fall out of the engine's phase ordering (bus, then
//! routers, then injection; a flit stamped `arrived == now` cannot move
//! again at `now`). With router latency `L`, bus cycles per flit `k`,
//! and `n` flits:
//!
//! * **Same layer**, `h` mesh hops: the head flit enters the source
//!   router one cycle after `send`, dwells `L` in each of the `h + 1`
//!   routers it traverses (including the final local ejection), and the
//!   tail trails `n - 1` cycles behind —
//!   `latency = 1 + (h + 1)·L + (n - 1)`.
//! * **Cross layer** via a pillar at `m1` hops from the source and `m2`
//!   from the destination: the head reaches the pillar's transceiver
//!   interface at `t_if = 1 + (m1 + 1)·L`, must sit there one full
//!   cycle before the dTDMA grant, then flits cross one per `k` cycles;
//!   the tail's grant is followed by `(m2 + 1)·L` of mesh descent —
//!   `latency = 2 + (m1 + 1)·L + (m2 + 1)·L + (n - 1)·k`.
//!
//! The recorded `bus_wait` is the *tail* flit's (deliveries surface the
//! tail's counters): it waits `1` cycle for its own grant plus `k - 1`
//! serialisation cycles for each predecessor —
//! `bus_wait = 1 + (n - 1)·(k - 1)`.
//!
//! With a pinned pillar (`via == Some(p)`) every XY step shortens the
//! Manhattan distance to `p` by one, so `m1` is that distance. When no
//! pillar is pinned (`via == None`) the engine re-picks the nearest
//! pillar at every router; the model replays that greedy walk
//! decision-for-decision, so the two agree even when the walk commits
//! to a different pillar than the source's nearest.
//!
//! [`Network`]: crate::Network

use nim_topology::ChipLayout;
use nim_types::{Coord, PillarId};

use crate::routing::xy_toward;

/// The predicted contention-free timing of one packet.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ZeroLoadPath {
    /// End-to-end latency in cycles (send to tail ejection).
    pub latency: u64,
    /// Router/bus traversals of every flit.
    pub hops: u16,
    /// The tail flit's accumulated dTDMA wait (0 on same-layer routes).
    pub bus_wait: u32,
    /// The pillar the packet crosses layers on, if any.
    pub(crate) pillar: Option<PillarId>,
}

/// Predicts the zero-load timing of a packet of `flits` flits sent from
/// `src` to `dst` riding `via` (or the per-hop nearest pillar when
/// `None`), on a pillar-mode network with the given router latency and
/// bus serialisation factor.
///
/// # Panics
///
/// Panics on a cross-layer route when the topology has no pillars.
#[inline]
pub fn zero_load_path(
    topo: &ChipLayout,
    src: Coord,
    dst: Coord,
    via: Option<PillarId>,
    flits: u32,
    router_latency: u64,
    bus_cycles_per_flit: u64,
) -> ZeroLoadPath {
    let l = router_latency.max(1);
    let k = bus_cycles_per_flit.max(1);
    let n = u64::from(flits.max(1));
    if src.same_layer(dst) {
        let h = u64::from(src.manhattan_2d(dst));
        return ZeroLoadPath {
            latency: 1 + (h + 1) * l + (n - 1),
            hops: h as u16,
            bus_wait: 0,
            pillar: None,
        };
    }
    let (pillar, m1) = match via {
        Some(p) => (
            p,
            u64::from(src.manhattan_2d(topo.pillar_coord(p, src.layer))),
        ),
        None => greedy_walk(topo, src, None),
    };
    cross_layer(topo, dst, pillar, m1, l, k, n)
}

/// Replays the greedy per-hop pillar walk of `routing::route` from `src`:
/// every router steps XY towards `via`, or towards its *own* nearest
/// pillar, until it stands on one. Each step strictly shrinks the
/// distance to the currently-nearest pillar, so the walk terminates.
/// Returns the pillar reached and the hops taken.
fn greedy_walk(topo: &ChipLayout, src: Coord, via: Option<PillarId>) -> (PillarId, u64) {
    let mut at = src;
    let mut m1 = 0u64;
    loop {
        let p = via
            .or_else(|| topo.nearest_pillar(at))
            .expect("cross-layer route on a chip without pillars");
        let (px, py) = topo.pillar_xy(p);
        if (at.x, at.y) == (px, py) {
            return (p, m1);
        }
        let d = xy_toward(at, px, py);
        let (x, y) = d
            .step(at.x, at.y, topo.width(), topo.height())
            .expect("routing stays on the mesh");
        at = Coord::new(x, y, at.layer);
        m1 += 1;
    }
}

/// The timing of a cross-layer packet of `n` flits that reaches
/// `pillar` after `m1` mesh hops and descends to `dst`.
fn cross_layer(
    topo: &ChipLayout,
    dst: Coord,
    pillar: PillarId,
    m1: u64,
    l: u64,
    k: u64,
    n: u64,
) -> ZeroLoadPath {
    let m2 = u64::from(topo.pillar_coord(pillar, dst.layer).manhattan_2d(dst));
    // Cycles after send at which the head flit reaches the pillar's
    // transceiver interface.
    let bus_enqueue = 1 + (m1 + 1) * l;
    ZeroLoadPath {
        latency: bus_enqueue + 1 + (n - 1) * k + (m2 + 1) * l,
        hops: (m1 + 1 + m2) as u16,
        bus_wait: (1 + (n - 1) * (k - 1)) as u32,
        pillar: Some(pillar),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nim_types::SystemConfig;

    fn topo() -> ChipLayout {
        ChipLayout::new(&SystemConfig::default()).unwrap()
    }

    #[test]
    fn same_layer_formula() {
        let t = topo();
        let p = zero_load_path(&t, Coord::new(0, 0, 0), Coord::new(5, 3, 0), None, 4, 1, 1);
        // 1 + (8 + 1)·1 + 3
        assert_eq!(p.latency, 13);
        assert_eq!(p.hops, 8);
        assert_eq!(p.bus_wait, 0);
        assert_eq!(p.pillar, None);
    }

    #[test]
    fn cross_layer_on_pillar_nodes() {
        let t = topo();
        let (px, py) = t.pillar_xy(PillarId(0));
        let src = Coord::new(px, py, 0);
        let dst = Coord::new(px, py, 1);
        let p = zero_load_path(&t, src, dst, Some(PillarId(0)), 1, 1, 1);
        // t_if = 1 + 1, grant at 3, ejection at 3 + 1.
        assert_eq!(p.latency, 4);
        assert_eq!(p.hops, 1);
        assert_eq!(p.bus_wait, 1);
        assert_eq!(p.pillar, Some(PillarId(0)));
    }

    #[test]
    fn narrow_bus_serialises_the_tail() {
        let t = topo();
        let (px, py) = t.pillar_xy(PillarId(2));
        let src = Coord::new(px, py, 0);
        let dst = Coord::new(px, py, 1);
        let one = zero_load_path(&t, src, dst, Some(PillarId(2)), 4, 1, 1);
        let two = zero_load_path(&t, src, dst, Some(PillarId(2)), 4, 1, 2);
        assert_eq!(two.latency - one.latency, 3, "3 extra bus cycles");
        assert_eq!(two.bus_wait, 1 + 3, "tail waits out 3 serialisations");
    }

    #[test]
    fn greedy_walk_matches_pinned_pillar_when_nearest() {
        let t = topo();
        for y in 0..t.height() {
            for x in 0..t.width() {
                let src = Coord::new(x, y, 0);
                let dst = Coord::new(t.width() - 1 - x, y, 1);
                let free = zero_load_path(&t, src, dst, None, 2, 1, 1);
                let pinned = zero_load_path(&t, src, dst, free.pillar, 2, 1, 1);
                assert_eq!(free, pinned, "walk commits to its own choice");
            }
        }
    }

    #[test]
    fn a_pinned_pillar_needs_no_walk() {
        for layers in [2u8, 4, 8] {
            for pillars in [1u16, 2, 4, 8, 16] {
                let mut cfg = SystemConfig::default();
                cfg.network.layers = layers;
                cfg.network.pillars = pillars;
                let t = ChipLayout::new(&cfg).expect("layout builds");
                let nodes: Vec<Coord> = (0..t.num_nodes()).map(|i| t.coord_of_index(i)).collect();
                for p in (0..pillars).map(PillarId) {
                    for &src in &nodes {
                        let (reached, m1) = greedy_walk(&t, src, Some(p));
                        assert_eq!(reached, p);
                        for &dst in nodes.iter().filter(|d| !d.same_layer(src)) {
                            assert_eq!(
                                zero_load_path(&t, src, dst, Some(p), 4, 2, 3),
                                cross_layer(&t, dst, p, m1, 2, 3, 4),
                                "{layers}L {pillars}P {src:?} -> {dst:?} via {p:?}"
                            );
                        }
                    }
                }
            }
        }
    }
}
