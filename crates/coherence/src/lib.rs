//! Distributed directory-based MSI coherence for private L1 caches.
//!
//! The protocol's functional core: the directory decides which L1s may
//! hold which lines and which invalidation/flush messages each access
//! generates. The system driver (`nim-core`) turns those decisions into
//! packets on the on-chip network so coherence traffic contends with
//! regular L2 traffic, as in the paper (§5.1).
//!
//! # Examples
//!
//! ```
//! use nim_coherence::{DirAccess, Directory, WritePolicy};
//! use nim_types::{CpuId, LineAddr};
//!
//! let mut dir = Directory::new(8, WritePolicy::WriteThrough);
//! dir.access(CpuId(0), LineAddr(0x40), DirAccess::Read);
//! dir.access(CpuId(1), LineAddr(0x40), DirAccess::Read);
//! let out = dir.access(CpuId(0), LineAddr(0x40), DirAccess::Write);
//! assert_eq!(out.invalidations, vec![CpuId(1)]);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod directory;

pub use directory::{CoherenceOutcome, DirAccess, Directory, LineState, SharerSet, WritePolicy};
