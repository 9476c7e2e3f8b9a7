//! Inter-wafer via area (paper Table 2).
//!
//! In Face-to-Back wafer bonding the pillar's vias tunnel through the
//! active device layer, so pillar wiring area is *wasted device area* —
//! the reason pillar count must be kept low at coarse via pitches.
//! Table 2 reports the area of a 170-wire pillar (128-bit bus + 42
//! control) at four via pitches. The table's areas correspond to a
//! 25 × 25 via field: via *pads* do not scale with the vias themselves,
//! so each of the 170 wires effectively costs `625/170 ≈ 3.68` pitch²
//! of device area. That pad factor is the one calibrated constant here.

use crate::components::pillar_wires;

/// Effective pitch² cost per wire implied by Table 2 (a 25 × 25 via
/// field for 170 wires).
pub(crate) const PAD_FACTOR: f64 = 625.0 / 170.0;

/// The four via pitches of Table 2, in µm.
pub const TABLE2_PITCHES_UM: [f64; 4] = [10.0, 5.0, 1.0, 0.2];

/// Area in µm² occupied by a pillar of `wires` wires at `pitch_um`.
pub fn pillar_area_um2(wires: u32, pitch_um: f64) -> f64 {
    f64::from(wires) * PAD_FACTOR * pitch_um * pitch_um
}

/// One row of Table 2: the area of the default 128-bit, 4-layer pillar.
pub fn table2_row(pitch_um: f64) -> f64 {
    pillar_area_um2(pillar_wires(128, 4), pitch_um)
}

/// Pillar area as a fraction of the generic 5-port router area (the
/// paper's ~4% at 5 µm pitch argument).
pub fn pillar_area_vs_router(pitch_um: f64) -> f64 {
    let router_um2 = crate::components::GENERIC_ROUTER.area_mm2 * 1e6;
    table2_row(pitch_um) / router_um2
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table2_rows_match_the_paper() {
        assert_eq!(table2_row(10.0), 62_500.0);
        assert_eq!(table2_row(5.0), 15_625.0);
        assert_eq!(table2_row(1.0), 625.0);
        assert!((table2_row(0.2) - 25.0).abs() < 1e-9);
    }

    #[test]
    fn five_micron_pillar_costs_about_four_percent_of_a_router() {
        let frac = pillar_area_vs_router(5.0);
        assert!(
            (0.03..=0.05).contains(&frac),
            "paper: ~4% overhead at 5 um, got {frac}"
        );
    }

    #[test]
    fn state_of_the_art_pitch_is_negligible() {
        assert!(pillar_area_vs_router(0.2) < 1e-4);
    }

    #[test]
    fn area_scales_quadratically_with_pitch() {
        let a1 = pillar_area_um2(170, 1.0);
        let a2 = pillar_area_um2(170, 2.0);
        assert!((a2 / a1 - 4.0).abs() < 1e-12);
    }
}
