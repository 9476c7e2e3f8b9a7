//! System assembly and experiment drivers for the 3D network-in-memory
//! chip multiprocessor.
//!
//! This crate is the paper's "novel simulation environment" (§5.1): it
//! couples the in-order cores and their L1s (`nim-cpu`), the directory
//! (`nim-coherence`), the NUCA L2 (`nim-cache`), and the cycle-accurate
//! 3D NoC with dTDMA pillars (`nim-noc`) into one lock-step simulation,
//! then exposes the paper's four schemes and every evaluation experiment.
//!
//! * [`Scheme`] — CMP-DNUCA / CMP-DNUCA-2D / CMP-SNUCA-3D / CMP-DNUCA-3D.
//! * [`SystemBuilder`] / [`System`] — build and run one configuration.
//! * [`RunReport`] — avg L2 hit latency, IPC, migrations, energy.
//! * [`experiments`] — the sweep cell and its runner; [`exhibits`] —
//!   every table and figure (Tables 1–3, Figs 13–18) as a grid of cells.
//! * [`parallel`] — the deterministic `NIM_JOBS`-wide sweep executor the
//!   cells fan out on.
//!
//! # Examples
//!
//! ```
//! use nim_core::{Scheme, SystemBuilder};
//! use nim_workload::BenchmarkProfile;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let report = SystemBuilder::new(Scheme::CmpSnuca3d)
//!     .warmup_transactions(100)
//!     .sampled_transactions(400)
//!     .build()?
//!     .run(&BenchmarkProfile::synthetic())?;
//! assert!(report.avg_l2_hit_latency() > 0.0);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod attribution;
mod builder;
mod cores;
mod due_queue;
mod error;
pub mod exhibits;
pub mod experiments;
mod fabric;
mod fanout;
pub mod parallel;
mod policy;
mod prewarm;
mod protocol;
mod report;
mod scheme;
mod snapshot;
mod system;
mod timing;
mod token;
mod txn;

pub use builder::SystemBuilder;
pub use error::{BuildError, RunError, SnapshotError};
pub use fabric::FabricKind;
pub use report::{Counters, RunReport};
pub use scheme::Scheme;
pub use snapshot::ResumedRun;
pub use system::System;
pub use txn::Phase;
