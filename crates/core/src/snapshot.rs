//! Snapshots as replay points.
//!
//! The simulator is bit-deterministic per recipe, so the state of a run
//! at cycle `C` is a function of the recipe and `C`. A snapshot image
//! therefore holds no live state; it names a point in a run:
//!
//! | field      | contents                                                  |
//! |------------|-----------------------------------------------------------|
//! | header     | [`SNAPSHOT_MAGIC`](nim_types::codec::SNAPSHOT_MAGIC), format version 4 |
//! | recipe     | the build [`Recipe`]: scheme, fabric, knobs, full config  |
//! | obs        | the [`ObsConfig`], if observability was on                |
//! | benchmark  | the name of the profile the run draws from                |
//! | cycle      | the pause cycle                                           |
//! | digest     | a digest of the run's state at that cycle                 |
//! | checksum   | FxHash of every byte before it                            |
//!
//! Resuming rebuilds the system from the recipe, begins the run as
//! [`System::begin`] does (prewarm included), advances it to exactly the
//! pause cycle and compares the digest. Replay *is* the uninterrupted
//! run, so the resumed run continues bit-identically; a binary that
//! simulates differently fails with [`SnapshotError::Diverged`] instead
//! of silently running something else. Resume costs the simulation time
//! of the prefix.
//!
//! Only runs a replay reproduces may be named: a run begun by
//! [`System::begin`] on a freshly built system, drawing from a named
//! benchmark profile. Anything else is refused at snapshot time with
//! [`SnapshotError::NotReplayable`].

use std::hash::Hasher as _;
use std::path::Path;

use nim_obs::{Obs, ObsConfig};
use nim_types::codec::{ByteReader, ByteWriter, Codec, CodecError};
use nim_types::FxHasher;
use nim_workload::{BenchmarkProfile, TraceGenerator, TraceSource};

use crate::builder::Recipe;
use crate::error::{RunError, SnapshotError};
use crate::report::{Counters, RunReport};
use crate::system::{Pause, System};
use crate::SystemBuilder;

/// The point an image names: everything between its header and its
/// checksum.
struct Point {
    recipe: Recipe,
    obs: Option<ObsConfig>,
    benchmark: String,
    cycle: u64,
    digest: u64,
}

nim_types::codec_struct!(Point {
    recipe,
    obs,
    benchmark,
    cycle,
    digest
});

impl System {
    /// A digest of the run's state now: the fingerprint of a report of
    /// the cumulative counters, network statistics and retired
    /// instructions at this cycle, folded with the references `served`
    /// so far by the source driving the run.
    fn digest(&self, benchmark: &str, served: u64) -> u64 {
        let state = self.report_since(benchmark.to_string(), (Counters::default(), 0, 0));
        let mut h = FxHasher::default();
        h.write_u64(state.fingerprint());
        h.write_u64(served);
        h.finish()
    }

    /// Names the current point of the run in progress as a snapshot
    /// image. `source` is the generator [`System::begin`] returned; how
    /// many references it has served goes into the digest, so a resume
    /// checks that the replay drew the same stream.
    ///
    /// # Errors
    ///
    /// [`SnapshotError::NoRunInProgress`] if no run has been begun (or
    /// the last one ended), and [`SnapshotError::NotReplayable`] if the
    /// run was not begun by [`System::begin`] on a freshly built system
    /// with a named benchmark profile.
    pub fn snapshot(&self, source: &dyn TraceSource) -> Result<Vec<u8>, SnapshotError> {
        let progress = self
            .progress
            .as_ref()
            .ok_or(SnapshotError::NoRunInProgress)?;
        if let Some(why) = progress.unreplayable {
            return Err(SnapshotError::NotReplayable(why));
        }
        let point = Point {
            recipe: self.recipe,
            obs: self.obs.config(),
            benchmark: progress.benchmark.clone(),
            cycle: self.fabric.now().0,
            digest: self.digest(&progress.benchmark, source.served()),
        };
        let mut w = ByteWriter::image();
        point.put(&mut w);
        Ok(w.seal())
    }

    /// [`System::snapshot`] straight to a file.
    ///
    /// # Errors
    ///
    /// Everything [`System::snapshot`] returns, plus
    /// [`SnapshotError::Io`] if the write fails.
    pub fn snapshot_to(
        &self,
        path: impl AsRef<Path>,
        source: &dyn TraceSource,
    ) -> Result<(), SnapshotError> {
        let bytes = self.snapshot(source)?;
        std::fs::write(path, bytes)?;
        Ok(())
    }
}

/// A run replayed to the point a snapshot names: the system, paused
/// there, and the generator driving it.
#[derive(Debug)]
pub struct ResumedRun {
    system: System,
    generator: TraceGenerator,
}

impl ResumedRun {
    /// The benchmark name the snapshot recorded.
    pub fn benchmark(&self) -> &str {
        self.generator.profile().name
    }

    /// The replayed system, paused at the snapshot's cycle until driven.
    pub fn system(&self) -> &System {
        &self.system
    }

    /// Drives the resumed run to completion.
    ///
    /// # Errors
    ///
    /// [`RunError::Stalled`] exactly like [`System::run`].
    pub fn finish(&mut self) -> Result<RunReport, RunError> {
        self.system.finish_run(&mut self.generator)
    }

    /// Drives the resumed run to the first cycle with at least
    /// `stop_after` completed transactions — see [`System::run_until`].
    ///
    /// # Errors
    ///
    /// As for [`ResumedRun::finish`].
    pub fn run_until(&mut self, stop_after: u64) -> Result<Option<RunReport>, RunError> {
        self.system.run_until(&mut self.generator, stop_after)
    }

    /// Snapshots the resumed run where it stands.
    ///
    /// # Errors
    ///
    /// Everything [`System::snapshot`] returns.
    pub fn snapshot(&self) -> Result<Vec<u8>, SnapshotError> {
        self.system.snapshot(&self.generator)
    }
}

impl SystemBuilder {
    /// Resumes the run a snapshot file names.
    ///
    /// # Errors
    ///
    /// [`SnapshotError::Io`] if the file cannot be read, plus
    /// everything [`SystemBuilder::resume_from`] returns.
    pub fn resume(path: impl AsRef<Path>) -> Result<ResumedRun, SnapshotError> {
        let bytes = std::fs::read(path)?;
        Self::resume_from(&bytes, None)
    }

    /// Resumes the run snapshot bytes name: rebuilds the system from the
    /// recorded recipe, begins the run and replays it to the recorded
    /// cycle. The second parameter is ignored; pass `None`.
    ///
    /// # Errors
    ///
    /// [`SnapshotError::Codec`] for truncated, corrupt or version-skewed
    /// bytes, [`SnapshotError::Build`] if the recorded configuration no
    /// longer builds, [`SnapshotError::UnknownBenchmark`] if this binary
    /// does not know the recorded benchmark, and
    /// [`SnapshotError::Diverged`] if the replay does not reach the
    /// recorded state.
    // nimbench-frozen: examples/nimbench compiles against this name; ROADMAP item 1 Step A deletes it
    pub fn resume_from(bytes: &[u8], _shards: Option<usize>) -> Result<ResumedRun, SnapshotError> {
        let mut r = ByteReader::open(bytes)?;
        let point = Point::get(&mut r)?;
        if r.remaining() != 0 {
            return Err(CodecError::Corrupt("snapshot has trailing bytes").into());
        }
        let profile = profile_by_name(&point.benchmark)?;
        let obs = point.obs.map_or_else(Obs::disabled, Obs::new);
        let mut builder = SystemBuilder::new(point.recipe.scheme).observability(obs);
        builder.recipe = point.recipe;
        let mut system = builder.build()?;
        let mut generator = system.begin(&profile);
        let reached = system.advance(&mut generator, Pause::At(point.cycle));
        let at_point = matches!(reached, Ok(None))
            && system.fabric.now().0 == point.cycle
            && system.digest(&point.benchmark, generator.served()) == point.digest;
        if !at_point {
            return Err(SnapshotError::Diverged { cycle: point.cycle });
        }
        Ok(ResumedRun { system, generator })
    }
}

/// Looks up `name` among the paper's Table 5 profiles plus the
/// synthetic test profile.
pub(crate) fn profile_by_name(name: &str) -> Result<BenchmarkProfile, SnapshotError> {
    if name == "synthetic" {
        return Ok(BenchmarkProfile::synthetic());
    }
    BenchmarkProfile::by_name(name).ok_or_else(|| SnapshotError::UnknownBenchmark(name.to_string()))
}
