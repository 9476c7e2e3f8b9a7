//! NUCA L2 cache: banks, cluster tag arrays, placement, search plans, and
//! the 3D-aware migration policy.
//!
//! This crate models the *contents* and *policies* of the paper's shared
//! L2 (§4): which line lives in which cluster/bank/set, pseudo-LRU
//! replacement, the two-step search schedule, and gradual, lazy,
//! layer-preserving migration. Timing (network traversal, tag/bank access
//! latencies) is driven by `nim-core`, which walks these structures while
//! ticking the NoC.
//!
//! # Examples
//!
//! ```
//! use nim_cache::NucaL2;
//! use nim_types::{L2Config, LineAddr};
//!
//! let mut l2 = NucaL2::new(&L2Config::default());
//! let line = LineAddr(0x40);
//! let placed = l2.insert(line);
//! assert_eq!(l2.locate(line), Some(placed.cluster));
//! ```

#![forbid(unsafe_code)]
#![deny(dead_code)]
#![warn(missing_docs)]

pub(crate) mod bank;
pub(crate) mod migration;
pub(crate) mod nuca;
pub(crate) mod plru;
pub(crate) mod search;

pub use migration::migration_target;
pub use nuca::{L2Stats, MigrationError, MigrationOutcome, NucaL2, Placement};
pub use plru::TreePlru;
pub use search::SearchPlan;
