//! SPEC OMP-like synthetic multiprocessor reference streams.
//!
//! The paper evaluates on nine SPEC OMP benchmarks under Simics. This
//! crate substitutes statistically calibrated synthetic workloads: each
//! benchmark becomes a [`BenchmarkProfile`] (memory density, store share,
//! streaming/sharing mix, working-set sizes — Table 5 values carried for
//! reference) and a [`TraceGenerator`] that turns a profile into
//! deterministic per-CPU reference streams for the core model to execute.
//!
//! # Examples
//!
//! ```
//! use nim_workload::{BenchmarkProfile, TraceGenerator};
//! use nim_types::CpuId;
//!
//! let mut gen = TraceGenerator::new(&BenchmarkProfile::swim(), 8, 42);
//! let op = gen.next_op(CpuId(0));
//! assert!(op.addr.0 > 0);
//! ```

#![forbid(unsafe_code)]
#![deny(dead_code)]
#![warn(missing_docs)]

mod generator;
mod profile;
mod replay;

pub use generator::{
    cpu_regions, shared_region, CpuRegions, Region, TraceGenerator, TraceSource,
    ROTATION_PERIOD_OPS,
};
pub use profile::BenchmarkProfile;
pub use replay::ReplayTrace;
