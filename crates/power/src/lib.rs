//! Area, power, and energy models for the network-in-memory chip.
//!
//! Three pieces:
//!
//! * `components` — the paper's Table 1: synthesised 90 nm power/area of
//!   the 5-port router and the dTDMA transceiver/arbiter, plus the
//!   `3n + log2(n)` control-wire arithmetic.
//! * `vias` — Table 2: device area a pillar's through-silicon wiring
//!   wastes at each via pitch.
//! * `energy` — activity-based L2 energy: routers, buses, banks, tag
//!   arrays; this is what quantifies the paper's "fewer migrations →
//!   lower power" argument.
//!
//! # Examples
//!
//! ```
//! use nim_power::{ActivityCounts, EnergyModel};
//!
//! let model = EnergyModel::default();
//! let counts = ActivityCounts { flit_hops: 1_000, ..Default::default() };
//! assert!(model.estimate(&counts).total_j() > 0.0);
//! ```

#![forbid(unsafe_code)]
#![deny(dead_code)]
#![warn(missing_docs)]

pub(crate) mod components;
pub(crate) mod energy;
pub(crate) mod vias;

pub use components::{
    control_wires_per_layer, pillar_wires, table1, ComponentSpec, DTDMA_ARBITER, DTDMA_TRANSCEIVER,
    GENERIC_ROUTER,
};
pub use energy::{ActivityCounts, EnergyBreakdown, EnergyModel};
pub use vias::{pillar_area_um2, pillar_area_vs_router, table2_row, TABLE2_PITCHES_UM};
