//! Thermal calibration constants.
//!
//! The resistances below are first-principles estimates for 1.5 mm
//! silicon tiles (paper §3: a 64 KB bank spans ~1500 µm at 70 nm) with a
//! conventional heat sink under layer 0, nudged once so that the 2D
//! reference configuration (8 × 8 W cores among 256 clock-gated banks)
//! lands near the paper's Table 3 anchor row (peak ≈ 111 °C, average
//! ≈ 54 °C). Every other Table 3 row is then a *prediction* of the
//! model, not a fit — the orderings (stacked ≫ offset, 4 layers ≫ 2
//! layers) must emerge on their own.
//!
//! Power assumptions follow the paper: 8 W per core (Sun UltraSPARC T1's
//! 79 W over 8 cores, §3.3) and clock-gated cache banks drawing a small
//! residual (0.05 W — leakage plus occasional activity; the total chip
//! power then matches the T1's envelope).

/// Ambient / heat-sink reference temperature (°C).
pub(crate) const AMBIENT_C: f64 = 45.0;

/// Lateral tile-to-tile thermal resistance (K/W).
///
/// A 1.5 mm path through a 1.5 mm-wide silicon cross-section at
/// k ≈ 150 W/(m·K) gives ~20-60 K/W depending on the effective thickness
/// that conducts laterally; 34 K/W (≈ 0.13 mm effective thickness)
/// reproduces the Table 3 anchor row's peak-over-average spread.
pub(crate) const R_LATERAL: f64 = 34.0;

/// Vertical tile-to-tile resistance between adjacent device layers (K/W).
///
/// The 10 µm inter-wafer gap (paper §3.1) is filled by bonding adhesive
/// and the inter-layer dielectric stack (k_eff well below bulk silicon);
/// with interface effects this is ~10 K/W over a 1.5 mm × 1.5 mm tile.
pub(crate) const R_VERTICAL: f64 = 12.0;

/// Per-tile resistance from layer 0 into the heat sink (K/W).
///
/// Junction-to-ambient resistance of ~0.12 K/W for the full 288 mm² die
/// footprint, apportioned over 256 tiles ≈ 30 K/W per tile. This is the
/// one constant tuned against the Table 3 anchor row.
pub(crate) const R_SINK: f64 = 30.0;

/// Power of one CPU core tile (W), following the paper's T1 argument.
pub(crate) const CPU_W: f64 = 8.0;

/// Residual power of one clock-gated 64 KB cache-bank tile (W).
pub(crate) const BANK_W: f64 = 0.05;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn chip_power_matches_the_t1_envelope() {
        // 8 cores + 248 banks ≈ 76 W, close to the T1's 79 W (§3.3).
        let total = 8.0 * CPU_W + 248.0 * BANK_W;
        assert!((70.0..85.0).contains(&total), "total {total} W");
    }

    #[test]
    fn vertical_paths_are_better_than_lateral() {
        // The defining property of 3D stacks: layers are thermally more
        // tightly coupled than neighbouring tiles, which is exactly why
        // stacking CPUs is dangerous.
        #[allow(clippy::assertions_on_constants)] // documents the physical invariant
        {
            assert!(R_VERTICAL < R_LATERAL / 2.0);
        }
    }
}
