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
}

impl fmt::Display for RunError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RunError::Stalled { cycle, completed } => write!(
                f,
                "simulation stalled at cycle {cycle} after {completed} transactions"
            ),
        }
    }
}

impl Error for RunError {}

/// Error taking or resuming a simulator snapshot.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum SnapshotError {
    /// [`System::snapshot`](crate::System::snapshot) was called with no
    /// run in progress — there is no point in a run to name.
    NoRunInProgress,
    /// The run in progress cannot be replayed from its recipe: it was
    /// not begun by [`System::begin`](crate::System::begin) on a freshly
    /// built system (the reason says which).
    NotReplayable(&'static str),
    /// The snapshot bytes are malformed: truncated, bit-flipped or
    /// version-skewed.
    Codec(nim_types::codec::CodecError),
    /// Reading or writing the snapshot file failed.
    Io(String),
    /// The recorded configuration no longer builds (e.g. the snapshot
    /// was edited, or geometry validation rules changed).
    Build(BuildError),
    /// The snapshot names a benchmark this binary does not know.
    UnknownBenchmark(String),
    /// Replaying the recorded recipe did not reach the state the
    /// snapshot names: this binary simulates differently from the one
    /// that wrote it.
    Diverged {
        /// The recorded pause cycle.
        cycle: u64,
    },
}

impl fmt::Display for SnapshotError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SnapshotError::NoRunInProgress => {
                write!(f, "no run in progress: nothing to snapshot")
            }
            SnapshotError::NotReplayable(why) => {
                write!(f, "the run cannot be replayed from its recipe: {why}")
            }
            SnapshotError::Codec(e) => write!(f, "malformed snapshot: {e}"),
            SnapshotError::Io(e) => write!(f, "snapshot I/O failed: {e}"),
            SnapshotError::Build(e) => write!(f, "snapshot configuration does not build: {e}"),
            SnapshotError::UnknownBenchmark(name) => {
                write!(f, "snapshot names unknown benchmark '{name}'")
            }
            SnapshotError::Diverged { cycle } => write!(
                f,
                "replaying the snapshot's recipe did not reproduce its state at cycle \
                 {cycle}: this binary simulates differently from the one that wrote it"
            ),
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
        let e = SnapshotError::Diverged { cycle: 77 };
        assert!(e.to_string().contains("cycle 77"));
        let e = SnapshotError::from(nim_types::codec::CodecError::BadMagic);
        assert!(e.source().is_some());
    }
}
