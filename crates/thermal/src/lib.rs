//! Steady-state 3D thermal estimation for stacked chips (HS3d-like).
//!
//! Reproduces the thermal methodology of the paper's §3.3: given a
//! floorplan (which tile holds a CPU, which a cache bank) the model
//! solves a tile-granularity thermal RC network and reports the peak,
//! average, and minimum temperatures that drive the CPU-placement
//! decisions of Table 3.
//!
//! # Examples
//!
//! ```
//! use nim_thermal::{ThermalConfig, ThermalModel};
//! use nim_topology::{ChipLayout, Floorplan, PlacementPolicy};
//! use nim_types::SystemConfig;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let cfg = SystemConfig::default();
//! let layout = ChipLayout::new(&cfg)?;
//! let seats = PlacementPolicy::MaximalOffset.place(&layout, cfg.num_cpus)?;
//! let plan = Floorplan::new(&layout, &seats);
//! let tcfg = ThermalConfig::default();
//! let profile = ThermalModel::new(&plan, &tcfg).solve(&tcfg);
//! assert!(profile.peak() > profile.min());
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![deny(dead_code)]
#![warn(missing_docs)]

pub(crate) mod calib;
mod model;

pub use model::{ThermalConfig, ThermalModel, ThermalProfile};
