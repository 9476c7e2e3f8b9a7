//! Distributed directory-based MSI coherence for private L1 caches.
//!
//! The protocol's functional core: the directory decides which L1s may
//! hold which lines and which invalidation messages each access
//! generates. The paper's L1s are write-through, so no line is ever
//! Modified and the directory records sharers only. The system driver
//! (`nim-core`) turns those decisions into packets on the on-chip
//! network so coherence traffic contends with regular L2 traffic, as in
//! the paper (§5.1).
//!
//! # Examples
//!
//! ```
//! use nim_coherence::{DirAccess, Directory};
//! use nim_types::{CpuId, LineAddr};
//!
//! let mut dir = Directory::with_cpus(8);
//! dir.access(CpuId(0), LineAddr(0x40), DirAccess::Read);
//! dir.access(CpuId(1), LineAddr(0x40), DirAccess::Read);
//! let invalidate = dir.access(CpuId(0), LineAddr(0x40), DirAccess::Write);
//! assert_eq!(invalidate, vec![CpuId(1)]);
//! ```

#![forbid(unsafe_code)]
#![deny(dead_code)]
#![warn(missing_docs)]

mod directory;

pub use directory::{DirAccess, Directory, SharerSet, WritePolicy};
