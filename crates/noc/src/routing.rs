//! Route computation.
//!
//! The paper uses dimension-order (XY) routing within each layer (Table 4).
//! A cross-layer packet routes XY to the transaction's pillar, takes the
//! dTDMA bus straight to the destination layer (one hop), then routes XY
//! to the destination.
//!
//! A route is one target choice plus one table-driven XY step
//! ([`xy_toward`]); no per-chip table is built.
//!
//! Dimension-order routing is deterministic and deadlock-free on a mesh;
//! the pillar detour preserves this because each packet crosses layers at
//! most once, so the channel dependency graph stays acyclic.

use nim_topology::ChipLayout;
use nim_types::{Coord, Dir, PillarId};

/// One XY step toward a target, indexed by the signs of Δx and Δy
/// ([`sign_index`]): x resolves before y, and a zero vector is `Local`.
const XY_STEP: [[Dir; 3]; 3] = [
    [Dir::West; 3],
    [Dir::South, Dir::Local, Dir::North],
    [Dir::East; 3],
];

/// `0`, `1` or `2` as `to` is below, equal to or above `from`.
#[inline]
fn sign_index(from: u8, to: u8) -> usize {
    1 + usize::from(to > from) - usize::from(to < from)
}

/// XY dimension-order step within a layer; `Local` when already there.
#[inline]
pub(crate) fn xy_toward(at: Coord, dst_x: u8, dst_y: u8) -> Dir {
    XY_STEP[sign_index(at.x, dst_x)][sign_index(at.y, dst_y)]
}

/// Output port for a flit standing at `at`, heading for `dst`, riding
/// pillar `via` for any layer change. Unpinned cross-layer routes fall
/// back to the layout's nearest-pillar table.
///
/// The flit first picks its in-layer target — the destination on the
/// destination's layer, else the pillar, which it leaves by `Vertical`
/// once it stands on it — then takes one [`xy_toward`] step.
///
/// # Panics
///
/// Panics if a cross-layer route is requested on a chip with no pillars.
pub(crate) fn route(layout: &ChipLayout, at: Coord, dst: Coord, via: Option<PillarId>) -> Dir {
    let (tx, ty) = if at.layer != dst.layer {
        let pillar = via
            .or_else(|| layout.nearest_pillar(at))
            .expect("cross-layer route requires a pillar");
        let (px, py) = layout.pillar_xy(pillar);
        if (at.x, at.y) == (px, py) {
            return Dir::Vertical;
        }
        (px, py)
    } else {
        (dst.x, dst.y)
    };
    xy_toward(at, tx, ty)
}

/// The comparison chain [`route`] replaced, kept as its oracle: this
/// module's exhaustive test and `Router::check_invariants` (every
/// checked tick) compare routes against it.
pub(crate) fn route_reference(
    layout: &ChipLayout,
    at: Coord,
    dst: Coord,
    via: Option<PillarId>,
) -> Dir {
    fn xy(at: Coord, dst_x: u8, dst_y: u8) -> Dir {
        if at.x < dst_x {
            Dir::East
        } else if at.x > dst_x {
            Dir::West
        } else if at.y < dst_y {
            Dir::North
        } else if at.y > dst_y {
            Dir::South
        } else {
            Dir::Local
        }
    }
    if at.layer == dst.layer {
        xy(at, dst.x, dst.y)
    } else {
        let pillar = via
            .or_else(|| layout.nearest_pillar(at))
            .expect("cross-layer route requires a pillar");
        let (px, py) = layout.pillar_xy(pillar);
        if (at.x, at.y) == (px, py) {
            Dir::Vertical
        } else {
            xy(at, px, py)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nim_types::SystemConfig;

    fn layout() -> ChipLayout {
        ChipLayout::new(&SystemConfig::default()).unwrap()
    }

    #[test]
    fn xy_resolves_x_before_y() {
        let at = Coord::new(2, 2, 0);
        assert_eq!(xy_toward(at, 5, 0), Dir::East);
        assert_eq!(xy_toward(at, 0, 5), Dir::West);
        assert_eq!(xy_toward(at, 2, 5), Dir::North);
        assert_eq!(xy_toward(at, 2, 0), Dir::South);
        assert_eq!(xy_toward(at, 2, 2), Dir::Local);
    }

    #[test]
    fn same_layer_route_is_pure_xy() {
        let l = layout();
        let d = route(&l, Coord::new(0, 0, 0), Coord::new(3, 1, 0), None);
        assert_eq!(d, Dir::East);
    }

    #[test]
    fn cross_layer_route_heads_for_the_pillar_then_vertical() {
        let l = layout();
        let p = PillarId(0);
        let (px, py) = l.pillar_xy(p);
        let dst = Coord::new(0, 0, 1);
        // Standing on the pillar: go vertical.
        let at = Coord::new(px, py, 0);
        assert_eq!(route(&l, at, dst, Some(p)), Dir::Vertical);
        // One hop west of the pillar: go east towards it, even though the
        // final destination is west.
        let at = Coord::new(px - 1, py, 0);
        assert_eq!(route(&l, at, dst, Some(p)), Dir::East);
    }

    #[test]
    fn after_the_bus_routing_is_plain_xy_on_the_target_layer() {
        let l = layout();
        let p = PillarId(0);
        let (px, py) = l.pillar_xy(p);
        let at = Coord::new(px, py, 1); // just got off the bus on layer 1
        let dst = Coord::new(0, 0, 1);
        assert_eq!(route(&l, at, dst, Some(p)), Dir::West);
    }

    /// Every position × target × `via ∈ {None} ∪ pillars`, on every
    /// layer × pillar count.
    #[test]
    fn route_equals_the_comparison_chain_everywhere() {
        for layers in [1, 2, 4, 8] {
            for pillars in [1, 2, 4, 8, 16] {
                let mut cfg = SystemConfig::default();
                cfg.network.layers = layers;
                cfg.network.pillars = pillars;
                let l = ChipLayout::new(&cfg).unwrap();
                let vias: Vec<_> = std::iter::once(None)
                    .chain((0..l.num_pillars()).map(|p| Some(PillarId(p))))
                    .collect();
                let nodes: Vec<_> = (0..l.num_nodes()).map(|i| l.coord_of_index(i)).collect();
                for &at in &nodes {
                    for &dst in &nodes {
                        for &via in &vias {
                            assert_eq!(
                                route(&l, at, dst, via),
                                route_reference(&l, at, dst, via),
                                "{layers} layers, {pillars} pillars: {at} -> {dst} via {via:?}"
                            );
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn arrival_routes_local() {
        let l = layout();
        let c = Coord::new(4, 4, 1);
        assert_eq!(route(&l, c, c, None), Dir::Local);
    }
}
