//! Common vocabulary types for the network-in-memory simulator.
//!
//! This crate holds the identifiers, geometry, address arithmetic, time
//! keeping, and system configuration shared by every other crate in the
//! workspace. It has no dependencies and sits at the bottom of the
//! dependency DAG.
//!
//! # Overview
//!
//! * `id` — strongly-typed identifiers ([`CpuId`], [`ClusterId`], ...).
//! * `geom` — 3D coordinates on the stacked mesh and port directions.
//! * [`addr`] — physical addresses and NUCA line-address decomposition.
//! * `time` — the [`Cycle`] newtype used for all simulated time.
//! * `config` — [`SystemConfig`], the paper's Table 4 parameters.
//! * `hash` — [`FxHashMap`], the de-SipHashed map for hot-path keys.
//! * `line_map` — [`LineMap`], the tombstone-free map for per-line tables.
//! * `bitset` — [`IdSet`], ordered small-integer sets as bitmaps.
//! * [`codec`] — the versioned binary snapshot codec.
//!
//! # Examples
//!
//! ```
//! use nim_types::SystemConfig;
//!
//! let cfg = SystemConfig::default();
//! assert_eq!(cfg.num_cpus, 8);
//! assert_eq!(cfg.l2.total_banks(), 256);
//! ```

#![forbid(unsafe_code)]
#![deny(dead_code)]
#![warn(missing_docs)]

pub mod addr;
pub(crate) mod bitset;
pub mod codec;
pub(crate) mod config;
pub(crate) mod geom;
pub(crate) mod hash;
pub(crate) mod id;
pub(crate) mod line_map;
pub(crate) mod time;
pub(crate) mod trace;

pub use addr::{Address, LineAddr};
pub use bitset::{bits, IdSet};
pub use codec::{ByteReader, ByteWriter, Codec, CodecError};
pub use config::{ConfigError, L1Config, L2Config, NetworkConfig, SystemConfig};
pub use geom::{Coord, Dir};
pub use hash::{FxBuildHasher, FxHashMap, FxHasher};
pub use id::{BankId, ClusterId, CpuId, PacketId, PillarId};
pub use line_map::LineMap;
pub use time::Cycle;
pub use trace::{AccessKind, TraceOp};
