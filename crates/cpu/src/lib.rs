//! In-order processor cores with private, split, write-through L1 caches.
//!
//! One [`InOrderCore`] models a single-issue SPARC-like core as in the
//! paper's Table 4: it executes one instruction per cycle, blocks on L1
//! load/fetch misses until the shared L2 answers, and forwards every
//! store to the L2 through a small store buffer (write-through L1).
//! The surrounding system (`nim-core`) carries the resulting
//! [`MemRequest`]s over the on-chip network and calls back
//! [`InOrderCore::data_returned`] / [`InOrderCore::store_completed`].
//!
//! # Examples
//!
//! ```
//! use nim_cpu::{CoreAction, InOrderCore};
//! use nim_types::{AccessKind, Address, CpuId, L1Config, TraceOp};
//!
//! let mut core = InOrderCore::new(CpuId(0), &L1Config::default());
//! let mut ops = vec![TraceOp { gap: 0, kind: AccessKind::Read, addr: Address(0x40) }]
//!     .into_iter();
//! match core.tick(&mut || ops.next()) {
//!     CoreAction::Request(req) => {
//!         // ... the L2 answers some cycles later ...
//!         core.data_returned(req.addr);
//!     }
//!     _ => unreachable!("a cold L1 misses"),
//! }
//! assert_eq!(core.stats().instructions, 1);
//! ```

#![forbid(unsafe_code)]
#![deny(dead_code)]
#![warn(missing_docs)]

mod core;
mod l1;

pub use crate::core::{CoreAction, CoreStats, InOrderCore, MemRequest, STORE_BUFFER_DEPTH};
pub use crate::l1::{L1Cache, L1Stats};
