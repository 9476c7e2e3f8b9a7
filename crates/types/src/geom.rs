//! Geometry on the stacked 3D mesh.
//!
//! The chip is a stack of `layers` identical 2D meshes of network nodes.
//! [`Coord`] names one node; [`Dir`] names the ports of a router. Within a
//! layer, hops follow the Manhattan metric; vertical movement is a single
//! hop over a dTDMA pillar regardless of how many layers are crossed, which
//! is why [`Coord::hop_distance_via_pillar`] treats the vertical component
//! as at most one hop.

use core::fmt;

/// Position of a network node in the 3D stack: intra-layer `(x, y)` plus the
/// device layer `layer` (layer 0 is the bottom of the stack).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Coord {
    /// Column within the layer's mesh.
    pub x: u8,
    /// Row within the layer's mesh.
    pub y: u8,
    /// Device layer in the stack.
    pub layer: u8,
}

impl Coord {
    /// Creates a coordinate.
    ///
    /// ```
    /// use nim_types::geom::Coord;
    /// let c = Coord::new(3, 4, 1);
    /// assert_eq!((c.x, c.y, c.layer), (3, 4, 1));
    /// ```
    #[inline]
    pub const fn new(x: u8, y: u8, layer: u8) -> Self {
        Self { x, y, layer }
    }

    /// The same `(x, y)` position on a different layer.
    #[inline]
    #[must_use]
    pub const fn on_layer(self, layer: u8) -> Self {
        Self { layer, ..self }
    }

    /// Manhattan distance within a layer, ignoring the layer component.
    ///
    /// ```
    /// use nim_types::geom::Coord;
    /// assert_eq!(Coord::new(0, 0, 0).manhattan_2d(Coord::new(3, 4, 1)), 7);
    /// ```
    #[inline]
    pub fn manhattan_2d(self, other: Self) -> u32 {
        self.x.abs_diff(other.x) as u32 + self.y.abs_diff(other.y) as u32
    }

    /// Whether both coordinates are on the same device layer.
    #[inline]
    pub fn same_layer(self, other: Self) -> bool {
        self.layer == other.layer
    }

    /// Number of router hops from `self` to `other` when vertical traversal
    /// happens through a pillar located at `pillar` (its `(x, y)` applies on
    /// every layer): walk to the pillar, ride it (one hop regardless of the
    /// number of layers crossed), walk to the destination.
    ///
    /// If `other` is on the same layer the pillar is not used.
    pub fn hop_distance_via_pillar(self, other: Self, pillar: Self) -> u32 {
        if self.same_layer(other) {
            self.manhattan_2d(other)
        } else {
            self.manhattan_2d(pillar) + 1 + pillar.manhattan_2d(other)
        }
    }

    /// Number of hops in a full 3D mesh (the 7-port router design the paper
    /// rejected), where every layer crossing is one hop.
    #[inline]
    pub fn manhattan_3d(self, other: Self) -> u32 {
        self.manhattan_2d(other) + self.layer.abs_diff(other.layer) as u32
    }
}

impl fmt::Debug for Coord {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "({},{},L{})", self.x, self.y, self.layer)
    }
}

impl fmt::Display for Coord {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(self, f)
    }
}

impl From<(u8, u8, u8)> for Coord {
    fn from((x, y, layer): (u8, u8, u8)) -> Self {
        Self { x, y, layer }
    }
}

/// Ports of a network-in-memory router.
///
/// A plain mesh router has the four compass ports plus `Local` (the attached
/// processing element — cache bank and/or CPU). Pillar routers additionally
/// have the `Vertical` port connecting to the dTDMA bus; the bus is a single
/// entity for communicating both up and down, so there is one vertical port,
/// not two (paper §3). The `Up`/`Down` ports exist only on the 7-port
/// full-3D-mesh router that the paper's design search rejected (§3.1); they
/// are modelled here so the rejection can be reproduced as an ablation.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub enum Dir {
    /// Towards larger `y`.
    North,
    /// Towards smaller `y`.
    South,
    /// Towards larger `x`.
    East,
    /// Towards smaller `x`.
    West,
    /// The local processing element.
    Local,
    /// The dTDMA pillar (present only on pillar routers).
    Vertical,
    /// Towards larger `layer` (7-port 3D-mesh ablation router only).
    Up,
    /// Towards smaller `layer` (7-port 3D-mesh ablation router only).
    Down,
}

impl Dir {
    /// All possible router ports, in canonical order.
    pub const ALL: [Dir; 8] = [
        Dir::North,
        Dir::South,
        Dir::East,
        Dir::West,
        Dir::Local,
        Dir::Vertical,
        Dir::Up,
        Dir::Down,
    ];

    /// The four mesh (compass) directions.
    pub const MESH: [Dir; 4] = [Dir::North, Dir::South, Dir::East, Dir::West];

    /// The direction a flit arriving over this port came *from*, i.e. the
    /// port of the upstream router that sent it.
    ///
    /// `Local` and `Vertical` are their own opposites: the local PE and the
    /// shared vertical bus both talk back over the same interface.
    #[inline]
    #[must_use]
    pub const fn opposite(self) -> Dir {
        match self {
            Dir::North => Dir::South,
            Dir::South => Dir::North,
            Dir::East => Dir::West,
            Dir::West => Dir::East,
            Dir::Local => Dir::Local,
            Dir::Vertical => Dir::Vertical,
            Dir::Up => Dir::Down,
            Dir::Down => Dir::Up,
        }
    }

    /// Canonical dense index of the port (matches [`Dir::ALL`]).
    #[inline]
    pub const fn index(self) -> usize {
        match self {
            Dir::North => 0,
            Dir::South => 1,
            Dir::East => 2,
            Dir::West => 3,
            Dir::Local => 4,
            Dir::Vertical => 5,
            Dir::Up => 6,
            Dir::Down => 7,
        }
    }

    /// Number of distinct ports (the size of [`Dir::ALL`]).
    pub const COUNT: usize = 8;

    /// Applies one hop in this direction to `(x, y)`; `Local` and
    /// `Vertical` leave the position unchanged.
    ///
    /// Returns `None` if the hop would leave the `width`×`height` mesh.
    #[inline]
    pub fn step(self, x: u8, y: u8, width: u8, height: u8) -> Option<(u8, u8)> {
        match self {
            Dir::North => (y + 1 < height).then(|| (x, y + 1)),
            Dir::South => y.checked_sub(1).map(|ny| (x, ny)),
            Dir::East => (x + 1 < width).then(|| (x + 1, y)),
            Dir::West => x.checked_sub(1).map(|nx| (nx, y)),
            Dir::Local | Dir::Vertical | Dir::Up | Dir::Down => Some((x, y)),
        }
    }
}

impl fmt::Display for Dir {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            Dir::North => "N",
            Dir::South => "S",
            Dir::East => "E",
            Dir::West => "W",
            Dir::Local => "local",
            Dir::Vertical => "vertical",
            Dir::Up => "up",
            Dir::Down => "down",
        };
        f.write_str(s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn manhattan_2d_is_symmetric_and_ignores_layer() {
        let a = Coord::new(1, 2, 0);
        let b = Coord::new(4, 0, 3);
        assert_eq!(a.manhattan_2d(b), 5);
        assert_eq!(b.manhattan_2d(a), 5);
    }

    #[test]
    fn manhattan_3d_counts_layers() {
        let a = Coord::new(0, 0, 0);
        let b = Coord::new(2, 2, 3);
        assert_eq!(a.manhattan_3d(b), 7);
    }

    #[test]
    fn pillar_distance_same_layer_skips_pillar() {
        let a = Coord::new(0, 0, 1);
        let b = Coord::new(5, 5, 1);
        let pillar = Coord::new(2, 2, 0);
        assert_eq!(a.hop_distance_via_pillar(b, pillar), 10);
    }

    #[test]
    fn pillar_distance_cross_layer_is_single_vertical_hop() {
        let a = Coord::new(0, 0, 0);
        let b = Coord::new(0, 0, 3); // three layers up, same x/y
        let pillar = Coord::new(1, 0, 0);
        // 1 hop to pillar + 1 bus hop + 1 hop back, regardless of 3 layers.
        assert_eq!(a.hop_distance_via_pillar(b, pillar), 3);
    }

    #[test]
    fn on_layer_moves_only_the_layer() {
        let c = Coord::new(3, 4, 0).on_layer(2);
        assert_eq!(c, Coord::new(3, 4, 2));
    }

    #[test]
    fn opposite_is_an_involution() {
        for d in Dir::ALL {
            assert_eq!(d.opposite().opposite(), d);
        }
    }

    #[test]
    fn step_respects_mesh_bounds() {
        assert_eq!(Dir::West.step(0, 0, 4, 4), None);
        assert_eq!(Dir::South.step(0, 0, 4, 4), None);
        assert_eq!(Dir::East.step(3, 0, 4, 4), None);
        assert_eq!(Dir::North.step(0, 3, 4, 4), None);
        assert_eq!(Dir::East.step(1, 1, 4, 4), Some((2, 1)));
        assert_eq!(Dir::North.step(1, 1, 4, 4), Some((1, 2)));
        assert_eq!(Dir::Local.step(1, 1, 4, 4), Some((1, 1)));
    }

    #[test]
    fn dir_indices_match_all_order() {
        for (i, d) in Dir::ALL.iter().enumerate() {
            assert_eq!(d.index(), i);
        }
    }

    #[test]
    fn coord_display_is_compact() {
        assert_eq!(format!("{}", Coord::new(1, 2, 3)), "(1,2,L3)");
    }
}
