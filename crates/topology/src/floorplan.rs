//! Floorplan for the thermal model: the kind of component occupying
//! each mesh tile. A tile is the 1.5 mm × 1.5 mm square of one 64 KB
//! bank at 70 nm (paper §3), the granularity `nim-thermal`'s per-tile
//! resistances are calibrated for.

use nim_types::Coord;

use crate::layout::ChipLayout;
use crate::placement::CpuSeat;

/// What occupies one mesh tile.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TileKind {
    /// An L2 cache bank (clock-gated when idle).
    Bank,
    /// A CPU core with its private L1 (shares the tile with the bank's
    /// router; power-wise the CPU dominates).
    Cpu,
}

/// Tile grid dimensions plus the component kind at every tile of
/// every layer.
#[derive(Clone, Debug, PartialEq)]
pub struct Floorplan {
    width: u8,
    height: u8,
    layers: u8,
    kinds: Vec<TileKind>,
}

impl Floorplan {
    /// Builds the floorplan for a layout with CPUs at the given seats.
    pub fn new(layout: &ChipLayout, seats: &[CpuSeat]) -> Self {
        let mut kinds = vec![TileKind::Bank; layout.num_nodes()];
        for seat in seats {
            kinds[layout.node_index(seat.coord)] = TileKind::Cpu;
        }
        Self {
            width: layout.width(),
            height: layout.height(),
            layers: layout.layers(),
            kinds,
        }
    }

    /// Mesh width in tiles.
    #[inline]
    pub const fn width(&self) -> u8 {
        self.width
    }

    /// Mesh height in tiles.
    #[inline]
    pub const fn height(&self) -> u8 {
        self.height
    }

    /// Device layers.
    #[inline]
    pub const fn layers(&self) -> u8 {
        self.layers
    }

    /// Dense tile index (same ordering as [`ChipLayout::node_index`]).
    ///
    /// # Panics
    ///
    /// Panics if the coordinate is outside the floorplan.
    pub fn index(&self, c: Coord) -> usize {
        assert!(
            c.x < self.width && c.y < self.height && c.layer < self.layers,
            "coordinate {c} outside floorplan"
        );
        (c.layer as usize * self.height as usize + c.y as usize) * self.width as usize
            + c.x as usize
    }

    /// Iterates `(Coord, TileKind)` over every tile.
    pub fn iter(&self) -> impl Iterator<Item = (Coord, TileKind)> + '_ {
        (0..self.kinds.len()).map(move |i| {
            let per_layer = self.width as usize * self.height as usize;
            let layer = (i / per_layer) as u8;
            let rem = i % per_layer;
            let c = Coord::new(
                (rem % self.width as usize) as u8,
                (rem / self.width as usize) as u8,
                layer,
            );
            (c, self.kinds[i])
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::placement::PlacementPolicy;
    use nim_types::SystemConfig;

    fn default_plan() -> Floorplan {
        let layout = ChipLayout::new(&SystemConfig::default()).unwrap();
        let seats = PlacementPolicy::MaximalOffset.place(&layout, 8).unwrap();
        Floorplan::new(&layout, &seats)
    }

    #[test]
    fn cpu_tiles_match_seats() {
        let plan = default_plan();
        let cpus = plan.iter().filter(|(_, kind)| *kind == TileKind::Cpu);
        assert_eq!(cpus.count(), 8);
        assert_eq!(plan.iter().count(), 256);
    }

    #[test]
    fn iter_visits_every_tile_once_in_index_order() {
        let plan = default_plan();
        for (i, (c, _)) in plan.iter().enumerate() {
            assert_eq!(plan.index(c), i);
        }
    }

    #[test]
    #[should_panic(expected = "outside floorplan")]
    fn out_of_bounds_tile_panics() {
        let plan = default_plan();
        let _ = plan.index(Coord::new(200, 0, 0));
    }
}
