//! Error types for system construction and simulation runs.

use core::error::Error;
use core::fmt;

use nim_topology::{PlacementError, TopologyError};
use nim_types::ConfigError;

/// Error building a [`System`](crate::System).
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum BuildError {
    /// The configuration is inconsistent.
    Config(ConfigError),
    /// The chip geometry could not be derived.
    Topology(TopologyError),
    /// CPUs could not be seated.
    Placement(PlacementError),
}

impl fmt::Display for BuildError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BuildError::Config(e) => write!(f, "invalid configuration: {e}"),
            BuildError::Topology(e) => write!(f, "invalid topology: {e}"),
            BuildError::Placement(e) => write!(f, "CPU placement failed: {e}"),
        }
    }
}

impl Error for BuildError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            BuildError::Config(e) => Some(e),
            BuildError::Topology(e) => Some(e),
            BuildError::Placement(e) => Some(e),
        }
    }
}

impl From<ConfigError> for BuildError {
    fn from(e: ConfigError) -> Self {
        BuildError::Config(e)
    }
}

impl From<TopologyError> for BuildError {
    fn from(e: TopologyError) -> Self {
        BuildError::Topology(e)
    }
}

impl From<PlacementError> for BuildError {
    fn from(e: PlacementError) -> Self {
        BuildError::Placement(e)
    }
}

const NO_GENERATOR: &str =
    "the snapshot records no generator position: drive the resumed run from its own source";

/// Error during a simulation run.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum RunError {
    /// No L2 transaction completed for an implausibly long time — a
    /// protocol deadlock or livelock.
    Stalled {
        /// Cycle at which the watchdog fired.
        cycle: u64,
        /// Transactions completed before the stall.
        completed: u64,
    },
    /// A [`ResumedRun`](crate::ResumedRun) was asked to drive itself but
    /// its snapshot recorded no generator position (a replay-trace or
    /// custom-source run): reload the source and use
    /// [`ResumedRun::finish_with`](crate::ResumedRun::finish_with).
    NoGenerator,
    /// A delivered packet's cookie decodes to no protocol message — the
    /// run was resumed from a corrupted snapshot image.
    CorruptToken {
        /// Cycle at which the packet was delivered.
        cycle: u64,
        /// The raw cookie.
        token: u64,
    },
}

impl fmt::Display for RunError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RunError::Stalled { cycle, completed } => write!(
                f,
                "simulation stalled at cycle {cycle} after {completed} transactions"
            ),
            RunError::NoGenerator => write!(f, "{NO_GENERATOR}"),
            RunError::CorruptToken { cycle, token } => write!(
                f,
                "packet delivered at cycle {cycle} carries undecodable token {token:#018x}"
            ),
        }
    }
}

impl Error for RunError {}

/// Error taking or restoring a simulator snapshot.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum SnapshotError {
    /// [`System::snapshot`](crate::System::snapshot) was called with no
    /// run in progress — there is no mid-flight state to capture.
    NoRunInProgress,
    /// The clock does not sit on an epoch boundary (sampling is on and
    /// no sample row was recorded at the current cycle). Pause the run
    /// with [`System::run_until`](crate::System::run_until), which
    /// stops only at legal boundaries.
    NotEpochBoundary {
        /// The illegal cycle at which the snapshot was attempted.
        cycle: u64,
    },
    /// The snapshot bytes are malformed: truncated, version-skewed, or
    /// inconsistent with the recorded configuration.
    Codec(nim_types::codec::CodecError),
    /// Reading or writing the snapshot file failed.
    Io(String),
    /// The recorded configuration no longer builds (e.g. the snapshot
    /// was edited, or geometry validation rules changed).
    Build(BuildError),
    /// The snapshot names a benchmark this binary does not know.
    UnknownBenchmark(String),
    /// [`ResumedRun::snapshot`](crate::ResumedRun::snapshot) on a run
    /// whose snapshot recorded no generator position — snapshot it with
    /// [`System::snapshot`](crate::System::snapshot) and its own source.
    NoGenerator,
}

impl fmt::Display for SnapshotError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SnapshotError::NoRunInProgress => {
                write!(f, "no run in progress: nothing to snapshot")
            }
            SnapshotError::NotEpochBoundary { cycle } => write!(
                f,
                "cycle {cycle} is not an epoch boundary; pause with run_until first"
            ),
            SnapshotError::Codec(e) => write!(f, "malformed snapshot: {e}"),
            SnapshotError::Io(e) => write!(f, "snapshot I/O failed: {e}"),
            SnapshotError::Build(e) => write!(f, "snapshot configuration does not build: {e}"),
            SnapshotError::UnknownBenchmark(name) => {
                write!(f, "snapshot names unknown benchmark '{name}'")
            }
            SnapshotError::NoGenerator => write!(f, "{NO_GENERATOR}"),
        }
    }
}

impl Error for SnapshotError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            SnapshotError::Codec(e) => Some(e),
            SnapshotError::Build(e) => Some(e),
            _ => None,
        }
    }
}

impl From<nim_types::codec::CodecError> for SnapshotError {
    fn from(e: nim_types::codec::CodecError) -> Self {
        SnapshotError::Codec(e)
    }
}

impl From<BuildError> for SnapshotError {
    fn from(e: BuildError) -> Self {
        SnapshotError::Build(e)
    }
}

impl From<std::io::Error> for SnapshotError {
    fn from(e: std::io::Error) -> Self {
        SnapshotError::Io(e.to_string())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn errors_display_their_cause() {
        let e = BuildError::Config(ConfigError::Zero("num_cpus"));
        assert!(e.to_string().contains("num_cpus"));
        let e = RunError::Stalled {
            cycle: 10,
            completed: 3,
        };
        assert!(e.to_string().contains("cycle 10"));
        let e = SnapshotError::NotEpochBoundary { cycle: 77 };
        assert!(e.to_string().contains("cycle 77"));
        let e = SnapshotError::from(nim_types::codec::CodecError::BadMagic);
        assert!(e.source().is_some());
    }
}
