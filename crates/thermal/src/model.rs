//! Steady-state 3D thermal estimation (the paper's HS3d substitute).
//!
//! The chip is discretised at tile granularity into a thermal RC network:
//! lateral conduction between neighbouring tiles of a layer, vertical
//! conduction between stacked tiles of adjacent layers, and a heat-sink
//! path from every layer-0 tile to ambient. Solving the steady state
//! (Gauss–Seidel with successive over-relaxation) yields the per-tile
//! temperature map from which Table 3's peak/average/minimum figures are
//! read.
//!
//! The model reproduces the paper's two key mechanisms:
//!
//! * **Stacking layers shrinks the footprint**, so fewer tiles touch the
//!   heat sink and the whole chip runs hotter on average (Table 3: 2D
//!   54 °C → 2 layers 64 °C → 4 layers 87 °C average).
//! * **Vertically aligned CPUs** push their heat through the same sink
//!   column, so stacked placements spike the peak temperature while
//!   offset placements barely move it.

use nim_topology::floorplan::{Floorplan, TileKind};
use nim_types::Coord;

use crate::calib;

/// Thermal network parameters (see `calib` for the calibration story).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct ThermalConfig {
    /// Ambient (heat-sink) temperature in °C.
    pub ambient_c: f64,
    /// Tile-to-tile lateral resistance within a layer (K/W).
    pub r_lateral: f64,
    /// Tile-to-tile vertical resistance between adjacent layers (K/W).
    pub r_vertical: f64,
    /// Per-tile resistance from layer 0 to the heat sink (K/W).
    pub r_sink: f64,
    /// Power of one CPU tile (W).
    pub cpu_w: f64,
    /// Power of one (clock-gated) cache-bank tile (W).
    pub bank_w: f64,
    /// Convergence threshold on the largest per-iteration change (K).
    pub tolerance: f64,
    /// Iteration cap.
    pub max_iters: u32,
}

impl Default for ThermalConfig {
    fn default() -> Self {
        Self {
            ambient_c: calib::AMBIENT_C,
            r_lateral: calib::R_LATERAL,
            r_vertical: calib::R_VERTICAL,
            r_sink: calib::R_SINK,
            cpu_w: calib::CPU_W,
            bank_w: calib::BANK_W,
            tolerance: 1e-5,
            max_iters: 200_000,
        }
    }
}

/// The solved steady-state temperature field.
#[derive(Clone, Debug, PartialEq)]
pub struct ThermalProfile {
    width: u8,
    height: u8,
    layers: u8,
    temps: Vec<f64>,
}

impl ThermalProfile {
    /// Peak temperature in °C.
    pub fn peak(&self) -> f64 {
        self.temps.iter().copied().fold(f64::NEG_INFINITY, f64::max)
    }

    /// Average temperature in °C.
    pub fn avg(&self) -> f64 {
        self.temps.iter().sum::<f64>() / self.temps.len() as f64
    }

    /// Minimum temperature in °C.
    pub fn min(&self) -> f64 {
        self.temps.iter().copied().fold(f64::INFINITY, f64::min)
    }

    /// Temperature of one tile.
    ///
    /// # Panics
    ///
    /// Panics if the coordinate is outside the floorplan.
    pub fn at(&self, c: Coord) -> f64 {
        assert!(
            c.x < self.width && c.y < self.height && c.layer < self.layers,
            "coordinate {c} outside profile"
        );
        let i = (c.layer as usize * self.height as usize + c.y as usize) * self.width as usize
            + c.x as usize;
        self.temps[i]
    }
}

/// The thermal model of one floorplan.
#[derive(Clone, Debug)]
pub struct ThermalModel {
    plan: Floorplan,
    power: Vec<f64>,
}

impl ThermalModel {
    /// Builds the model with per-tile power from the config's CPU/bank
    /// figures.
    pub fn new(plan: &Floorplan, cfg: &ThermalConfig) -> Self {
        let power = plan
            .iter()
            .map(|(_, kind)| match kind {
                TileKind::Cpu => cfg.cpu_w,
                TileKind::Bank => cfg.bank_w,
            })
            .collect();
        Self {
            plan: plan.clone(),
            power,
        }
    }

    /// Overrides the power of one tile (e.g. activity-dependent banks).
    ///
    /// # Panics
    ///
    /// Panics if the coordinate is outside the floorplan.
    pub fn set_power(&mut self, c: Coord, watts: f64) {
        let idx = self.plan.index(c);
        self.power[idx] = watts;
    }

    /// Total dissipated power in watts.
    pub fn total_power(&self) -> f64 {
        self.power.iter().sum()
    }

    /// Solves the steady state.
    ///
    /// # Panics
    ///
    /// Panics if the solver fails to converge within `cfg.max_iters`
    /// (indicates a badly conditioned configuration).
    pub fn solve(&self, cfg: &ThermalConfig) -> ThermalProfile {
        let (w, h, l) = (
            self.plan.width() as usize,
            self.plan.height() as usize,
            self.plan.layers() as usize,
        );
        let per_layer = w * h;
        let n = per_layer * l;
        let g_lat = 1.0 / cfg.r_lateral;
        let g_vert = 1.0 / cfg.r_vertical;
        let g_sink = 1.0 / cfg.r_sink;
        let mut temps = vec![cfg.ambient_c; n];
        // Successive over-relaxation on the linear system.
        let omega = 1.8;
        for iter in 0..cfg.max_iters {
            let mut max_delta: f64 = 0.0;
            for i in 0..n {
                let layer = i / per_layer;
                let rem = i % per_layer;
                let (x, y) = (rem % w, rem / w);
                let mut num = self.power[i];
                let mut den = 0.0;
                if x > 0 {
                    num += g_lat * temps[i - 1];
                    den += g_lat;
                }
                if x + 1 < w {
                    num += g_lat * temps[i + 1];
                    den += g_lat;
                }
                if y > 0 {
                    num += g_lat * temps[i - w];
                    den += g_lat;
                }
                if y + 1 < h {
                    num += g_lat * temps[i + w];
                    den += g_lat;
                }
                if layer > 0 {
                    num += g_vert * temps[i - per_layer];
                    den += g_vert;
                }
                if layer + 1 < l {
                    num += g_vert * temps[i + per_layer];
                    den += g_vert;
                }
                if layer == 0 {
                    num += g_sink * cfg.ambient_c;
                    den += g_sink;
                }
                let fresh = num / den;
                let relaxed = temps[i] + omega * (fresh - temps[i]);
                max_delta = max_delta.max((relaxed - temps[i]).abs());
                temps[i] = relaxed;
            }
            if max_delta < cfg.tolerance {
                return ThermalProfile {
                    width: self.plan.width(),
                    height: self.plan.height(),
                    layers: self.plan.layers(),
                    temps,
                };
            }
            assert!(
                iter + 1 < cfg.max_iters,
                "thermal solver failed to converge in {} iterations",
                cfg.max_iters
            );
        }
        unreachable!("loop either returns or panics")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nim_topology::{ChipLayout, PlacementPolicy};
    use nim_types::SystemConfig;

    fn profile_for(layers: u8, policy: PlacementPolicy, pillars: u16) -> ThermalProfile {
        let mut cfg = SystemConfig::default()
            .with_layers(layers)
            .with_pillars(pillars);
        cfg.num_cpus = 8;
        let layout = ChipLayout::new(&cfg).unwrap();
        let seats = policy.place(&layout, 8).unwrap();
        let plan = Floorplan::new(&layout, &seats);
        let tcfg = ThermalConfig::default();
        ThermalModel::new(&plan, &tcfg).solve(&tcfg)
    }

    #[test]
    fn uniform_power_gives_uniform_ish_field() {
        let layout = ChipLayout::new(&SystemConfig::default().flattened()).unwrap();
        let plan = Floorplan::new(&layout, &[]);
        let tcfg = ThermalConfig::default();
        let profile = ThermalModel::new(&plan, &tcfg).solve(&tcfg);
        // All tiles are banks: small spread, everything above ambient.
        assert!(profile.min() > tcfg.ambient_c);
        assert!(profile.peak() - profile.min() < 5.0);
    }

    #[test]
    fn cpu_tiles_are_the_hotspots() {
        let p = profile_for(1, PlacementPolicy::Interior2d, 8);
        assert!(p.peak() > p.avg() + 10.0, "8 W CPUs must stand out");
    }

    #[test]
    fn more_layers_run_hotter_on_average() {
        let p1 = profile_for(1, PlacementPolicy::Interior2d, 8);
        let p2 = profile_for(2, PlacementPolicy::MaximalOffset, 8);
        let p4 = profile_for(4, PlacementPolicy::MaximalOffset, 8);
        assert!(p2.avg() > p1.avg(), "2L > 2D average (Table 3)");
        assert!(p4.avg() > p2.avg(), "4L > 2L average (Table 3)");
    }

    #[test]
    fn stacking_cpus_creates_hotspots() {
        let offset = profile_for(2, PlacementPolicy::MaximalOffset, 8);
        let stacked = profile_for(2, PlacementPolicy::Stacked, 8);
        assert!(
            stacked.peak() > offset.peak() + 10.0,
            "stacked {} vs offset {}",
            stacked.peak(),
            offset.peak()
        );
        // Average is placement-independent: same power, same footprint.
        assert!((stacked.avg() - offset.avg()).abs() < 1.0);
    }

    #[test]
    fn larger_offset_reduces_peak_temperature() {
        let k1 = profile_for(2, PlacementPolicy::Algorithm1 { k: 1 }, 4);
        let k2 = profile_for(2, PlacementPolicy::Algorithm1 { k: 2 }, 4);
        assert!(
            k2.peak() <= k1.peak(),
            "k=2 peak {} must not exceed k=1 peak {}",
            k2.peak(),
            k1.peak()
        );
    }

    #[test]
    fn hotspot_is_a_cpu_tile() {
        let cfg = SystemConfig {
            num_cpus: 8,
            ..SystemConfig::default()
        };
        let layout = ChipLayout::new(&cfg).unwrap();
        let seats = PlacementPolicy::MaximalOffset.place(&layout, 8).unwrap();
        let plan = Floorplan::new(&layout, &seats);
        let tcfg = ThermalConfig::default();
        let profile = ThermalModel::new(&plan, &tcfg).solve(&tcfg);
        let (_, hottest) = plan
            .iter()
            .max_by(|a, b| profile.at(a.0).total_cmp(&profile.at(b.0)))
            .unwrap();
        assert_eq!(hottest, TileKind::Cpu);
    }

    #[test]
    fn set_power_changes_the_field() {
        let layout = ChipLayout::new(&SystemConfig::default()).unwrap();
        let plan = Floorplan::new(&layout, &[]);
        let tcfg = ThermalConfig::default();
        let mut model = ThermalModel::new(&plan, &tcfg);
        let base = model.solve(&tcfg).peak();
        model.set_power(Coord::new(4, 4, 1), 20.0);
        let hot = model.solve(&tcfg);
        assert!(hot.peak() > base + 5.0);
        assert_eq!(hot.at(Coord::new(4, 4, 1)), hot.peak());
    }

    #[test]
    fn energy_balance_roughly_holds() {
        // Total heat must leave through the sink: sum over layer-0 tiles
        // of (T - ambient)/R_sink equals total power.
        let cfg = SystemConfig {
            num_cpus: 8,
            ..SystemConfig::default()
        };
        let layout = ChipLayout::new(&cfg).unwrap();
        let seats = PlacementPolicy::MaximalOffset.place(&layout, 8).unwrap();
        let plan = Floorplan::new(&layout, &seats);
        let tcfg = ThermalConfig {
            tolerance: 1e-7,
            ..ThermalConfig::default()
        };
        let model = ThermalModel::new(&plan, &tcfg);
        let profile = model.solve(&tcfg);
        let mut sink_w = 0.0;
        for y in 0..plan.height() {
            for x in 0..plan.width() {
                sink_w += (profile.at(Coord::new(x, y, 0)) - tcfg.ambient_c) / tcfg.r_sink;
            }
        }
        let total = model.total_power();
        assert!(
            (sink_w - total).abs() / total < 0.01,
            "sink {sink_w} W vs dissipated {total} W"
        );
    }
}
