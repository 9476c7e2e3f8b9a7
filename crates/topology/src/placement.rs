//! CPU placement policies (paper §3.3 and Algorithm 1).
//!
//! CPUs sit on or near vertical pillars to get single-hop access to every
//! layer, but must not stack in the same vertical plane or temperatures
//! spike (Table 3) and the shared pillar congests. The policies here
//! reproduce every configuration the paper studies:
//!
//! * [`PlacementPolicy::MaximalOffset`] — one CPU per pillar, offsetting in
//!   all three dimensions (Figure 9). The default for 8 pillars / 8 CPUs.
//! * [`PlacementPolicy::Algorithm1`] — the paper's Algorithm 1 for shared
//!   pillars (`c` CPUs per pillar per layer at offset `k`).
//! * [`PlacementPolicy::Stacked`] — CPUs stacked in the same vertical
//!   plane; the thermally-bad ablation of Table 3.
//! * [`PlacementPolicy::Edges`] — processors on the chip perimeter, as in
//!   the CMP-DNUCA baseline of Beckmann & Wood.
//! * [`PlacementPolicy::Interior2d`] — our interior placement on a
//!   single-layer chip (the paper's 2D scheme surrounds CPUs with banks).

use core::error::Error;
use core::fmt;

use nim_types::{Coord, CpuId, PillarId};

use crate::layout::{perimeter_point, spread_positions, ChipLayout};

/// Where one CPU ended up.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct CpuSeat {
    /// The CPU seated here.
    pub cpu: CpuId,
    /// Mesh node the CPU (and its L1) attaches to.
    pub coord: Coord,
    /// The pillar this CPU uses for all its inter-layer traffic
    /// (`None` on a single-layer chip).
    pub pillar: Option<PillarId>,
}

/// Error produced by [`PlacementPolicy::place`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum PlacementError {
    /// `MaximalOffset` needs at least one pillar per CPU.
    NotEnoughPillars {
        /// CPUs requested.
        cpus: u32,
        /// Pillars available.
        pillars: u16,
    },
    /// Algorithm 1 supports only 1, 2, or 4 CPUs per pillar per layer, and
    /// the CPU count must divide evenly over pillars × layers.
    UnsupportedSharing {
        /// CPUs requested.
        cpus: u32,
        /// Pillars available.
        pillars: u16,
        /// Device layers.
        layers: u8,
    },
    /// Two CPUs would land on the same mesh node.
    SeatCollision(Coord),
}

impl fmt::Display for PlacementError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PlacementError::NotEnoughPillars { cpus, pillars } => {
                write!(f, "maximal offset needs one pillar per CPU: {cpus} CPUs, {pillars} pillars")
            }
            PlacementError::UnsupportedSharing { cpus, pillars, layers } => write!(
                f,
                "{cpus} CPUs cannot be split as 1, 2, or 4 per pillar per layer over {pillars} pillars x {layers} layers"
            ),
            PlacementError::SeatCollision(c) => {
                write!(f, "two CPUs placed on the same node {c}")
            }
        }
    }
}

impl Error for PlacementError {}

/// A CPU placement policy.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum PlacementPolicy {
    /// One CPU per pillar, alternating layers so CPUs are offset in all
    /// three dimensions (Figure 9). Falls back to [`Self::Interior2d`] on a
    /// single-layer chip (the paper's 2D scheme is the 1-layer special
    /// case of the 3D scheme).
    MaximalOffset,
    /// The paper's Algorithm 1: `c = cpus / (pillars × layers)` CPUs seated
    /// around each pillar on each layer at hop offset `k`, with the offset
    /// pattern rotating over a 4-layer period. `c` must be 1, 2, or 4
    /// (`c = 1` rotates a single offset seat E/N/W/S by layer — the
    /// degenerate case the paper's figure implies but the listing omits).
    Algorithm1 {
        /// Offset distance from the pillar in network hops (paper uses 1;
        /// larger k trades performance for lower peak temperature).
        k: u8,
    },
    /// CPUs stacked directly on pillars through all layers — the
    /// hotspot-creating ablation of Table 3. Falls back to
    /// [`Self::Interior2d`] on a single-layer chip.
    Stacked,
    /// CPUs evenly spaced on the perimeter of layer 0, as in the
    /// CMP-DNUCA baseline.
    Edges,
    /// CPUs spread over the interior of layer 0, surrounded by banks —
    /// the paper's 2D placement.
    Interior2d,
}

impl PlacementPolicy {
    /// Seats `num_cpus` CPUs on the chip.
    ///
    /// Seats are returned in CPU order. Every seat on a multi-layer chip
    /// carries the pillar the CPU is assigned to.
    ///
    /// # Errors
    ///
    /// See [`PlacementError`].
    pub fn place(self, layout: &ChipLayout, num_cpus: u32) -> Result<Vec<CpuSeat>, PlacementError> {
        let seats = match self {
            _ if layout.layers() == 1 && self.needs_layers() => interior_2d(layout, num_cpus),
            PlacementPolicy::MaximalOffset => maximal_offset(layout, num_cpus)?,
            PlacementPolicy::Algorithm1 { k } => algorithm1(layout, num_cpus, k)?,
            PlacementPolicy::Stacked => stacked(layout, num_cpus),
            PlacementPolicy::Edges => edges(layout, num_cpus),
            PlacementPolicy::Interior2d => interior_2d(layout, num_cpus),
        };
        let mut positions = std::collections::HashSet::new();
        for seat in &seats {
            if !positions.insert(seat.coord) {
                return Err(PlacementError::SeatCollision(seat.coord));
            }
        }
        Ok(seats)
    }

    fn needs_layers(self) -> bool {
        matches!(
            self,
            PlacementPolicy::MaximalOffset
                | PlacementPolicy::Algorithm1 { .. }
                | PlacementPolicy::Stacked
        )
    }
}

fn clamp_coord(layout: &ChipLayout, x: i32, y: i32, layer: u8) -> Coord {
    Coord::new(
        x.clamp(0, i32::from(layout.width()) - 1) as u8,
        y.clamp(0, i32::from(layout.height()) - 1) as u8,
        layer,
    )
}

/// One CPU per pillar, layer chosen round-robin so consecutive CPUs are on
/// different layers; distinct pillar positions give distinct (x, y).
fn maximal_offset(layout: &ChipLayout, num_cpus: u32) -> Result<Vec<CpuSeat>, PlacementError> {
    if num_cpus > u32::from(layout.num_pillars()) {
        return Err(PlacementError::NotEnoughPillars {
            cpus: num_cpus,
            pillars: layout.num_pillars(),
        });
    }
    Ok((0..num_cpus)
        .map(|i| {
            let pillar = PillarId::from_index(i as usize);
            let layer = (i % u32::from(layout.layers())) as u8;
            CpuSeat {
                cpu: CpuId::from_index(i as usize),
                coord: layout.pillar_coord(pillar, layer),
                pillar: Some(pillar),
            }
        })
        .collect())
}

/// Paper Algorithm 1. `c` CPUs per pillar per layer, offsets rotating with
/// `layer mod 4`.
fn algorithm1(layout: &ChipLayout, num_cpus: u32, k: u8) -> Result<Vec<CpuSeat>, PlacementError> {
    let pillars = layout.num_pillars();
    let layers = layout.layers();
    let slots = u32::from(pillars) * u32::from(layers);
    let unsupported = PlacementError::UnsupportedSharing {
        cpus: num_cpus,
        pillars,
        layers,
    };
    if slots == 0 || !num_cpus.is_multiple_of(slots) {
        return Err(unsupported);
    }
    let c = num_cpus / slots;
    if ![1, 2, 4].contains(&c) {
        return Err(unsupported);
    }
    let k = i32::from(k);
    let mut seats = Vec::with_capacity(num_cpus as usize);
    let mut cpu = 0usize;
    for p in 0..pillars {
        let pillar = PillarId(p);
        let (px, py) = layout.pillar_xy(pillar);
        let (px, py) = (i32::from(px), i32::from(py));
        for l in 0..layers {
            let offsets: Vec<(i32, i32)> = match (l % 4, c) {
                (0, 1) => vec![(k, 0)],
                (1, 1) => vec![(0, k)],
                (2, 1) => vec![(-k, 0)],
                (3, 1) => vec![(0, -k)],
                (0, 2) => vec![(k, 0), (-k, 0)],
                (1, 2) => vec![(0, k), (0, -k)],
                (2, 2) => vec![(2 * k, 0), (-2 * k, 0)],
                (3, 2) => vec![(0, 2 * k), (0, -2 * k)],
                (0, 4) => vec![(2 * k, 0), (-2 * k, 0), (0, 2 * k), (0, -2 * k)],
                (1, 4) => vec![(k, k), (k, -k), (-k, k), (-k, -k)],
                (2, 4) => vec![(k, 0), (-k, 0), (0, k), (0, -k)],
                (3, 4) => vec![
                    (2 * k, 2 * k),
                    (2 * k, -2 * k),
                    (-2 * k, 2 * k),
                    (-2 * k, -2 * k),
                ],
                _ => unreachable!("c validated above"),
            };
            for (dx, dy) in offsets {
                seats.push(CpuSeat {
                    cpu: CpuId::from_index(cpu),
                    coord: clamp_coord(layout, px + dx, py + dy, l),
                    pillar: Some(pillar),
                });
                cpu += 1;
            }
        }
    }
    Ok(seats)
}

/// CPUs stacked in the same vertical plane: CPU `i` sits directly on pillar
/// `i / layers` at layer `i % layers`.
fn stacked(layout: &ChipLayout, num_cpus: u32) -> Vec<CpuSeat> {
    let layers = u32::from(layout.layers());
    (0..num_cpus)
        .map(|i| {
            let pillar =
                PillarId::from_index((i / layers) as usize % layout.num_pillars() as usize);
            let layer = (i % layers) as u8;
            CpuSeat {
                cpu: CpuId::from_index(i as usize),
                coord: layout.pillar_coord(pillar, layer),
                pillar: Some(pillar),
            }
        })
        .collect()
}

/// CPUs evenly spaced along the perimeter of layer 0 (CMP-DNUCA [2]).
fn edges(layout: &ChipLayout, num_cpus: u32) -> Vec<CpuSeat> {
    let w = u32::from(layout.width());
    let h = u32::from(layout.height());
    let perimeter = if w > 1 && h > 1 {
        2 * (w + h) - 4
    } else {
        w * h
    };
    (0..num_cpus)
        .map(|i| {
            let pos = (i * perimeter) / num_cpus.max(1);
            let (x, y) = perimeter_point(pos, w, h);
            CpuSeat {
                cpu: CpuId::from_index(i as usize),
                coord: Coord::new(x as u8, y as u8, 0),
                pillar: None,
            }
        })
        .collect()
}

/// CPUs spread over the interior of layer 0, surrounded by cache banks.
fn interior_2d(layout: &ChipLayout, num_cpus: u32) -> Vec<CpuSeat> {
    let positions = spread_positions(num_cpus as u16, layout.width(), layout.height());
    positions
        .into_iter()
        .enumerate()
        .map(|(i, (x, y))| CpuSeat {
            cpu: CpuId::from_index(i),
            coord: Coord::new(x, y, 0),
            pillar: None,
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use nim_types::SystemConfig;

    fn layout_with(layers: u8, pillars: u16) -> ChipLayout {
        ChipLayout::new(
            &SystemConfig::default()
                .with_layers(layers)
                .with_pillars(pillars),
        )
        .expect("layout")
    }

    #[test]
    fn maximal_offset_offsets_in_all_three_dimensions() {
        let layout = layout_with(2, 8);
        let seats = PlacementPolicy::MaximalOffset.place(&layout, 8).unwrap();
        assert_eq!(seats.len(), 8);
        // Distinct (x, y) for every CPU (no vertical stacking)...
        let xy: std::collections::HashSet<_> =
            seats.iter().map(|s| (s.coord.x, s.coord.y)).collect();
        assert_eq!(xy.len(), 8);
        // ...and both layers used.
        let layers: std::collections::HashSet<_> = seats.iter().map(|s| s.coord.layer).collect();
        assert_eq!(layers.len(), 2);
        // Every CPU on its own pillar, sitting exactly on it.
        for s in &seats {
            let p = s.pillar.expect("3D seat has pillar");
            assert_eq!(layout.pillar_xy(p), (s.coord.x, s.coord.y));
        }
    }

    #[test]
    fn maximal_offset_rejects_too_few_pillars() {
        let layout = layout_with(2, 4);
        assert!(matches!(
            PlacementPolicy::MaximalOffset.place(&layout, 8),
            Err(PlacementError::NotEnoughPillars { .. })
        ));
    }

    #[test]
    fn algorithm1_seats_everyone_near_their_pillar() {
        // 8 CPUs over 2 pillars x 2 layers => c = 2 per pillar per layer.
        let layout = layout_with(2, 2);
        let seats = PlacementPolicy::Algorithm1 { k: 1 }
            .place(&layout, 8)
            .unwrap();
        assert_eq!(seats.len(), 8);
        for s in &seats {
            let p = s.pillar.unwrap();
            let (px, py) = layout.pillar_xy(p);
            let d = u32::from(s.coord.x.abs_diff(px)) + u32::from(s.coord.y.abs_diff(py));
            assert!(
                (1..=2).contains(&d),
                "at most two hops from the pillar (paper)"
            );
        }
    }

    #[test]
    fn algorithm1_c1_rotates_by_layer() {
        // 8 CPUs over 4 pillars x 2 layers => c = 1.
        let layout = layout_with(2, 4);
        let seats = PlacementPolicy::Algorithm1 { k: 1 }
            .place(&layout, 8)
            .unwrap();
        // No CPU stacked on another.
        let xy: std::collections::HashSet<_> = seats
            .iter()
            .map(|s| (s.coord.x, s.coord.y, s.coord.layer))
            .collect();
        assert_eq!(xy.len(), 8);
    }

    #[test]
    fn algorithm1_rejects_non_dividing_counts() {
        let layout = layout_with(2, 8);
        assert!(matches!(
            PlacementPolicy::Algorithm1 { k: 1 }.place(&layout, 7),
            Err(PlacementError::UnsupportedSharing { .. })
        ));
        // c = 3 unsupported: 48 cpus over 8 pillars x 2 layers.
        assert!(matches!(
            PlacementPolicy::Algorithm1 { k: 1 }.place(&layout, 48),
            Err(PlacementError::UnsupportedSharing { .. })
        ));
    }

    #[test]
    fn stacked_stacks_cpus_vertically() {
        let layout = layout_with(2, 8);
        let seats = PlacementPolicy::Stacked.place(&layout, 8).unwrap();
        // 8 CPUs, 2 layers -> 4 (x,y) positions each hosting 2 CPUs.
        let xy: std::collections::HashSet<_> =
            seats.iter().map(|s| (s.coord.x, s.coord.y)).collect();
        assert_eq!(xy.len(), 4, "CPUs share vertical planes");
    }

    #[test]
    fn edges_put_everyone_on_the_perimeter() {
        let layout = ChipLayout::new(&SystemConfig::default().flattened()).unwrap();
        let seats = PlacementPolicy::Edges.place(&layout, 8).unwrap();
        for s in &seats {
            let on_edge = s.coord.x == 0
                || s.coord.y == 0
                || s.coord.x == layout.width() - 1
                || s.coord.y == layout.height() - 1;
            assert!(on_edge, "{} not on perimeter", s.coord);
            assert_eq!(s.coord.layer, 0);
            assert_eq!(s.pillar, None);
        }
    }

    #[test]
    fn interior_2d_keeps_cpus_off_the_edges() {
        let layout = ChipLayout::new(&SystemConfig::default().flattened()).unwrap();
        let seats = PlacementPolicy::Interior2d.place(&layout, 8).unwrap();
        for s in &seats {
            assert!(s.coord.x >= 1 && s.coord.x <= layout.width() - 2);
            assert!(s.coord.y >= 1 && s.coord.y <= layout.height() - 2);
        }
    }

    #[test]
    fn three_d_policies_degrade_to_2d_on_single_layer() {
        let layout = ChipLayout::new(&SystemConfig::default().flattened()).unwrap();
        let a = PlacementPolicy::MaximalOffset.place(&layout, 8).unwrap();
        let b = PlacementPolicy::Interior2d.place(&layout, 8).unwrap();
        assert_eq!(a, b, "2D is the single-layer special case (paper §5.2)");
    }

    #[test]
    fn four_layer_algorithm1_uses_all_layers() {
        // 16 CPUs over 4 pillars x 4 layers => c = 1; exercises all four
        // cases of the layer rotation.
        let mut cfg = SystemConfig::default().with_layers(4).with_pillars(4);
        cfg.num_cpus = 16;
        let layout = ChipLayout::new(&cfg).unwrap();
        let seats = PlacementPolicy::Algorithm1 { k: 1 }
            .place(&layout, 16)
            .unwrap();
        let layers: std::collections::HashSet<_> = seats.iter().map(|s| s.coord.layer).collect();
        assert_eq!(layers.len(), 4);
    }

    #[test]
    fn perimeter_walk_is_injective_for_small_counts() {
        let layout = ChipLayout::new(&SystemConfig::default().flattened()).unwrap();
        let seats = PlacementPolicy::Edges.place(&layout, 16).unwrap();
        let set: std::collections::HashSet<_> = seats.iter().map(|s| s.coord).collect();
        assert_eq!(set.len(), 16);
    }
}
