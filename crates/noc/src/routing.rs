//! Route computation.
//!
//! The paper uses dimension-order (XY) routing within each layer (Table 4).
//! Inter-layer traversal depends on the vertical interconnect:
//!
//! * **Pillar mode** (the paper's design): route XY to the transaction's
//!   pillar, take the dTDMA bus straight to the destination layer (one
//!   hop), then XY to the destination.
//! * **Mesh3d mode** (the rejected 7-port router, kept as an ablation):
//!   route XY within the layer first, then climb layer by layer over the
//!   `Up`/`Down` ports (XYZ dimension order).
//!
//! Either way a route is one target choice plus one table-driven XY step
//! ([`xy_toward`]); no per-chip table is built.
//!
//! Dimension-order routing is deterministic and deadlock-free on a mesh;
//! the pillar detour preserves this because each packet crosses layers at
//! most once, so the channel dependency graph stays acyclic.

use nim_topology::ChipLayout;
use nim_types::{Coord, Dir, PillarId};

/// How the layers of the stack are interconnected.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum VerticalMode {
    /// dTDMA bus pillars with hybridised 6-port routers (the paper's
    /// proposal).
    Pillars,
    /// Full 3D mesh with 7-port routers (the rejected alternative,
    /// reproduced for the §3.1 design-search ablation).
    Mesh3d,
}

/// One XY step toward a target, indexed by the signs of Δx and Δy
/// ([`sign_index`]): x resolves before y, and a zero vector is `Local`.
const XY_STEP: [[Dir; 3]; 3] = [
    [Dir::West; 3],
    [Dir::South, Dir::Local, Dir::North],
    [Dir::East; 3],
];

/// The Mesh3d ablation's layer step once x and y agree, indexed like
/// [`XY_STEP`] by the sign of Δlayer.
const Z_STEP: [Dir; 3] = [Dir::Down, Dir::Local, Dir::Up];

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
/// destination's layer (and always in Mesh3d mode), else the pillar,
/// which it leaves by `Vertical` once it stands on it — then takes one
/// [`xy_toward`] step; Mesh3d turns an in-place step into `Up`/`Down`.
///
/// # Panics
///
/// Panics if a cross-layer route is requested in pillar mode on a chip
/// with no pillars.
pub(crate) fn route(
    layout: &ChipLayout,
    mode: VerticalMode,
    at: Coord,
    dst: Coord,
    via: Option<PillarId>,
) -> Dir {
    let (tx, ty) = if mode == VerticalMode::Pillars && at.layer != dst.layer {
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
    match xy_toward(at, tx, ty) {
        Dir::Local if mode == VerticalMode::Mesh3d => Z_STEP[sign_index(at.layer, dst.layer)],
        step => step,
    }
}

/// The comparison chain [`route`] replaced, kept as its oracle: this
/// module's exhaustive test and `Router::check_invariants` (every
/// checked tick) compare routes against it.
pub(crate) fn route_reference(
    layout: &ChipLayout,
    mode: VerticalMode,
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
    match mode {
        VerticalMode::Pillars => {
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
        VerticalMode::Mesh3d => {
            let step = xy(at, dst.x, dst.y);
            if step != Dir::Local {
                step
            } else if at.layer < dst.layer {
                Dir::Up
            } else if at.layer > dst.layer {
                Dir::Down
            } else {
                Dir::Local
            }
        }
    }
}

/// The static routing context of a network: everything [`route`] needs
/// besides the flit and its position.
#[derive(Clone, Debug)]
pub(crate) struct Routing {
    pub(crate) layout: ChipLayout,
    pub(crate) mode: VerticalMode,
}

impl Routing {
    pub(crate) fn new(layout: &ChipLayout, mode: VerticalMode) -> Self {
        Self {
            layout: layout.clone(),
            mode,
        }
    }

    /// Output port at `at` for a flit heading to `dst` over `via`.
    #[inline]
    pub(crate) fn out(&self, at: Coord, dst: Coord, via: Option<PillarId>) -> Dir {
        route(&self.layout, self.mode, at, dst, via)
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
        let d = route(
            &l,
            VerticalMode::Pillars,
            Coord::new(0, 0, 0),
            Coord::new(3, 1, 0),
            None,
        );
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
        assert_eq!(
            route(&l, VerticalMode::Pillars, at, dst, Some(p)),
            Dir::Vertical
        );
        // One hop west of the pillar: go east towards it, even though the
        // final destination is west.
        let at = Coord::new(px - 1, py, 0);
        assert_eq!(
            route(&l, VerticalMode::Pillars, at, dst, Some(p)),
            Dir::East
        );
    }

    #[test]
    fn after_the_bus_routing_is_plain_xy_on_the_target_layer() {
        let l = layout();
        let p = PillarId(0);
        let (px, py) = l.pillar_xy(p);
        let at = Coord::new(px, py, 1); // just got off the bus on layer 1
        let dst = Coord::new(0, 0, 1);
        assert_eq!(
            route(&l, VerticalMode::Pillars, at, dst, Some(p)),
            Dir::West
        );
    }

    #[test]
    fn mesh3d_routes_xy_then_z() {
        let l = layout();
        let dst = Coord::new(3, 3, 1);
        assert_eq!(
            route(&l, VerticalMode::Mesh3d, Coord::new(0, 3, 0), dst, None),
            Dir::East
        );
        assert_eq!(
            route(&l, VerticalMode::Mesh3d, Coord::new(3, 3, 0), dst, None),
            Dir::Up
        );
        assert_eq!(
            route(&l, VerticalMode::Mesh3d, Coord::new(3, 3, 1), dst, None),
            Dir::Local
        );
    }

    /// Every position × target × `via ∈ {None} ∪ pillars`, on every
    /// layer × pillar count and in both vertical modes.
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
                        assert_eq!(
                            route(&l, VerticalMode::Mesh3d, at, dst, None),
                            route_reference(&l, VerticalMode::Mesh3d, at, dst, None),
                            "Mesh3d {at} -> {dst}"
                        );
                        for &via in &vias {
                            assert_eq!(
                                route(&l, VerticalMode::Pillars, at, dst, via),
                                route_reference(&l, VerticalMode::Pillars, at, dst, via),
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
        assert_eq!(route(&l, VerticalMode::Pillars, c, c, None), Dir::Local);
    }
}
