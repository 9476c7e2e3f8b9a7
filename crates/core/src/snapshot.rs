//! Whole-simulator snapshot/resume.
//!
//! A snapshot is the versioned, serializable state tree of a run in
//! flight: six tagged sections behind the global
//! [`nim_types::codec`] header, each carrying one layer of the
//! simulator as the image of one value — this file frames the sections
//! and enumerates no fields (see [`nim_types::codec`] for the rules).
//!
//! | tag    | contents                                                    |
//! |--------|-------------------------------------------------------------|
//! | `CFG ` | the build [`Recipe`]: scheme, fabric, knobs, full config    |
//! | `OBS ` | observability: sampler rows, metrics registry, epoch arm    |
//! | `WKLD` | workload position: benchmark name + [`TraceCursor`]         |
//! | `PROG` | the run loop's carried bookkeeping ([`LoopCarried`])        |
//! | `ENGN` | protocol engine: counters, L2, directory, cores, txn table  |
//! | `FABR` | simulation fabric: NoC, timed queues, timing models         |
//!
//! Snapshots are legal only at *epoch boundaries*: when sampling is on,
//! the clock must sit exactly on a cycle where a sample row was
//! recorded (pause with [`System::run_until`], which ticks on past the
//! stop count to the next boundary). Resuming the snapshot replays the
//! remainder of the run bit-identically.
//!
//! Restores always run against a *freshly built* system: the `CFG `
//! section records the exact build recipe, [`SystemBuilder::resume`]
//! rebuilds the topology and geometry from it, and the remaining
//! sections restore only live state into that scaffold.

use std::path::Path;

use nim_obs::{Metric, Obs, ObsConfig, SampleRow};
use nim_types::codec::{
    restore_each, save_each, ByteReader, ByteWriter, Checkpoint, Codec, CodecError,
};
use nim_workload::{BenchmarkProfile, TraceCursor, TraceGenerator, TraceSource};

use crate::builder::Recipe;
use crate::error::{RunError, SnapshotError};
use crate::protocol::Engine;
use crate::report::RunReport;
use crate::system::{LoopCarried, RunProgress, System};
use crate::SystemBuilder;

/// Section tags, all 4 bytes so the encoded layout stays self-evident
/// in a hex dump.
const SEC_CFG: &str = "CFG ";
const SEC_OBS: &str = "OBS ";
const SEC_WKLD: &str = "WKLD";
const SEC_PROG: &str = "PROG";
const SEC_ENGN: &str = "ENGN";
const SEC_FABR: &str = "FABR";

/// Per-section versions, bumped independently when a section's encoding
/// changes (the global header version gates wholesale format breaks).
const V_CFG: u16 = 1;
const V_OBS: u16 = 1;
const V_WKLD: u16 = 1;
const V_PROG: u16 = 1;
const V_ENGN: u16 = 1;
const V_FABR: u16 = 1;

/// Writes one tagged, versioned, length-prefixed section.
fn put_section(w: &mut ByteWriter, tag: &str, version: u16, body: impl FnOnce(&mut ByteWriter)) {
    let h = w.begin_section(tag, version);
    body(w);
    w.end_section(h);
}

/// Reads the next section, which must carry `tag`, and checks that
/// `body` consumed it exactly.
fn get_section<T>(
    r: &mut ByteReader<'_>,
    tag: &str,
    max_version: u16,
    body: impl FnOnce(&mut ByteReader<'_>) -> Result<T, CodecError>,
) -> Result<T, CodecError> {
    let mut sec = r.section(tag, max_version)?;
    let value = body(&mut sec.reader)?;
    sec.finish()?;
    Ok(value)
}

/// The `OBS ` section of an enabled handle: its configuration, the
/// armed epoch boundary, every sample row, and the metrics registry
/// (which carries the cumulative hit/miss matrices). The bounded trace
/// ring is deliberately *not* serialized: a resumed run's ring holds
/// exactly the trace suffix from the snapshot cycle onward, comparable
/// via [`Obs::trace_digest_from`].
struct ObsState {
    config: ObsConfig,
    next_sample: u64,
    columns: Vec<String>,
    rows: Vec<SampleRow>,
    metrics: Vec<(String, Metric)>,
}

nim_types::codec_struct!(ObsState {
    config,
    next_sample,
    columns,
    rows,
    metrics
});

/// Engine live state. Geometry (layout, seats, plans, policy) is
/// rebuilt from `CFG `; only what the run mutated is carried.
impl Checkpoint for Engine {
    fn save(&self, w: &mut ByteWriter) {
        self.counters.put(w);
        self.l2.save(w);
        self.dir.save(w);
        save_each(&self.cores, w);
        self.txns.save(w);
        self.last_accessor.put(w);
    }

    fn restore(&mut self, r: &mut ByteReader<'_>) -> Result<(), CodecError> {
        self.counters = Codec::get(r)?;
        self.l2.restore(r)?;
        self.dir.restore(r)?;
        restore_each(&mut self.cores, r, "core count mismatch")?;
        self.txns.restore(r)?;
        self.last_accessor = Codec::get(r)?;
        Ok(())
    }
}

impl System {
    /// Serializes the entire simulator mid-run into a snapshot.
    ///
    /// `source` is the trace source driving the run; its
    /// [`TraceSource::cursor`] is recorded so the resumed run draws the
    /// exact same reference stream suffix.
    ///
    /// # Errors
    ///
    /// [`SnapshotError::NoRunInProgress`] if no run has been begun, and
    /// [`SnapshotError::NotEpochBoundary`] if the clock does not sit on
    /// a legal snapshot cycle — pause with [`System::run_until`], which
    /// stops only at legal boundaries.
    pub fn snapshot(&self, source: &dyn TraceSource) -> Result<Vec<u8>, SnapshotError> {
        let progress = self
            .progress
            .as_ref()
            .ok_or(SnapshotError::NoRunInProgress)?;
        let now = self.fabric.net.now().0;
        if self.obs.sample_every() != 0 && self.obs.last_sample_cycle() != Some(now) {
            return Err(SnapshotError::NotEpochBoundary { cycle: now });
        }
        let obs_state = self.obs.config().map(|config| {
            let (columns, rows) = self.obs.sampler_state().unwrap_or_default();
            ObsState {
                config,
                next_sample: self.obs.next_sample_at().unwrap_or(0),
                columns,
                rows,
                metrics: self.obs.metrics_state().unwrap_or_default(),
            }
        });
        let mut w = ByteWriter::new();
        w.header();
        put_section(&mut w, SEC_CFG, V_CFG, |w| self.recipe.put(w));
        put_section(&mut w, SEC_OBS, V_OBS, |w| obs_state.put(w));
        put_section(&mut w, SEC_WKLD, V_WKLD, |w| {
            progress.benchmark.put(w);
            source.cursor().put(w);
        });
        put_section(&mut w, SEC_PROG, V_PROG, |w| progress.carried.put(w));
        put_section(&mut w, SEC_ENGN, V_ENGN, |w| self.engine.save(w));
        put_section(&mut w, SEC_FABR, V_FABR, |w| self.fabric.save(w));
        Ok(w.into_bytes())
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

/// A run reconstructed mid-flight from a snapshot: the rebuilt+restored
/// [`System`] plus the workload position needed to keep drawing the
/// same reference stream.
///
/// Runs driven by the synthetic [`TraceGenerator`] carry their
/// reconstructed generator and can be driven directly with
/// [`ResumedRun::finish`] / [`ResumedRun::run_until`]. Runs driven by a
/// replay trace carry only the per-CPU consumed counts
/// ([`ResumedRun::replay_cursor`]) — reload the trace, skip that many
/// references of each CPU, and drive with [`ResumedRun::finish_with`].
#[derive(Debug)]
pub struct ResumedRun {
    system: System,
    generator: Option<TraceGenerator>,
    replay: Option<Vec<u64>>,
    benchmark: String,
}

impl ResumedRun {
    /// The benchmark name the snapshot recorded.
    pub fn benchmark(&self) -> &str {
        &self.benchmark
    }

    /// The restored system (snapshot-legal and mid-run).
    pub fn system(&self) -> &System {
        &self.system
    }

    /// Per-CPU consumed counts for a replay-trace run (`None` for
    /// generator-driven runs): how far into each CPU's stream a
    /// reloaded trace must be advanced before [`ResumedRun::finish_with`].
    pub fn replay_cursor(&self) -> Option<&[u64]> {
        self.replay.as_deref()
    }

    /// Drives the resumed run to completion with its own generator.
    ///
    /// # Errors
    ///
    /// [`RunError::Stalled`] exactly like [`System::run`], and
    /// [`RunError::NoGenerator`] if the snapshot was not
    /// generator-driven (use [`ResumedRun::finish_with`]).
    pub fn finish(&mut self) -> Result<RunReport, RunError> {
        let gen = self.generator.as_mut().ok_or(RunError::NoGenerator)?;
        self.system.finish_run(gen)
    }

    /// Drives the resumed run with its own generator until at least
    /// `stop_after` transactions have completed and the clock sits on
    /// the next epoch boundary — see [`System::run_until`].
    ///
    /// # Errors
    ///
    /// As for [`ResumedRun::finish`].
    pub fn run_until(&mut self, stop_after: u64) -> Result<Option<RunReport>, RunError> {
        let gen = self.generator.as_mut().ok_or(RunError::NoGenerator)?;
        self.system.run_until(gen, stop_after)
    }

    /// Re-snapshots the resumed run (legal whenever the underlying
    /// [`System::snapshot`] is).
    ///
    /// # Errors
    ///
    /// Everything [`System::snapshot`] returns, and
    /// [`SnapshotError::NoGenerator`] if the snapshot was not
    /// generator-driven.
    pub fn snapshot(&self) -> Result<Vec<u8>, SnapshotError> {
        let gen = self.generator.as_ref().ok_or(SnapshotError::NoGenerator)?;
        self.system.snapshot(gen)
    }

    /// Drives the resumed run to completion with a caller-supplied
    /// source (the replay-trace path: reload, advance to
    /// [`ResumedRun::replay_cursor`], then call this).
    ///
    /// # Errors
    ///
    /// Returns [`RunError::Stalled`] exactly like [`System::run`].
    pub fn finish_with(&mut self, source: &mut dyn TraceSource) -> Result<RunReport, RunError> {
        self.system.finish_run(source)
    }
}

impl SystemBuilder {
    /// Reconstructs a run mid-flight from a snapshot file.
    ///
    /// # Errors
    ///
    /// [`SnapshotError::Io`] if the file cannot be read, plus
    /// everything [`SystemBuilder::resume_from`] returns.
    pub fn resume(path: impl AsRef<Path>) -> Result<ResumedRun, SnapshotError> {
        let bytes = std::fs::read(path)?;
        Self::resume_from(&bytes, None)
    }

    /// Reconstructs a run mid-flight from snapshot bytes: rebuilds the
    /// system from the recorded recipe, restores every layer's live
    /// state, and re-positions the workload source. The second
    /// parameter is ignored; pass `None`.
    ///
    /// # Errors
    ///
    /// [`SnapshotError::Codec`] for truncated/corrupt/version-skewed
    /// bytes, [`SnapshotError::Build`] if the recorded configuration no
    /// longer builds, [`SnapshotError::UnknownBenchmark`] if this
    /// binary does not know the recorded benchmark.
    // nimbench-frozen: examples/nimbench compiles against this name; ROADMAP item 1 Step A deletes it
    pub fn resume_from(bytes: &[u8], _shards: Option<usize>) -> Result<ResumedRun, SnapshotError> {
        let mut r = ByteReader::new(bytes);
        r.header()?;
        let recipe: Recipe = get_section(&mut r, SEC_CFG, V_CFG, Codec::get)?;
        let obs_state: Option<ObsState> = get_section(&mut r, SEC_OBS, V_OBS, Codec::get)?;
        let (benchmark, cursor): (String, TraceCursor) =
            get_section(&mut r, SEC_WKLD, V_WKLD, Codec::get)?;
        let carried: LoopCarried = get_section(&mut r, SEC_PROG, V_PROG, Codec::get)?;

        let profile = profile_by_name(&benchmark)?;
        let obs = match &obs_state {
            None => Obs::disabled(),
            Some(s) => Obs::new(s.config.clone()),
        };
        // Geometry is re-derived from the recipe, never trusted.
        let mut builder = SystemBuilder::new(recipe.scheme).observability(obs.clone());
        builder.recipe = recipe;
        let mut system = builder.build()?;

        get_section(&mut r, SEC_ENGN, V_ENGN, |r| system.engine.restore(r))?;
        get_section(&mut r, SEC_FABR, V_FABR, |r| system.fabric.restore(r))?;
        if r.remaining() != 0 {
            return Err(CodecError::Corrupt("snapshot has trailing bytes").into());
        }

        if let Some(s) = obs_state {
            obs.restore_sampler_state(s.columns, s.rows, s.next_sample);
            obs.restore_metrics_state(s.metrics);
        }
        obs.set_now(system.fabric.net.now().0);
        system.progress = Some(RunProgress {
            benchmark: benchmark.clone(),
            carried,
        });

        let (generator, replay) = match cursor {
            TraceCursor::None => (None, None),
            TraceCursor::Generator(c) => {
                let gen = TraceGenerator::at_cursor(&profile, recipe.cfg.num_cpus, recipe.seed, &c)
                    .ok_or(CodecError::Corrupt("generator cursor shape mismatch"))?;
                (Some(gen), None)
            }
            TraceCursor::Replay(consumed) => (None, Some(consumed)),
        };
        Ok(ResumedRun {
            system,
            generator,
            replay,
            benchmark,
        })
    }
}

/// Looks up `name` among the paper's Table 5 profiles plus the
/// synthetic test profile.
fn profile_by_name(name: &str) -> Result<BenchmarkProfile, SnapshotError> {
    if name == "synthetic" {
        return Ok(BenchmarkProfile::synthetic());
    }
    BenchmarkProfile::by_name(name).ok_or_else(|| SnapshotError::UnknownBenchmark(name.to_string()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use nim_types::codec::assert_laws;

    #[test]
    fn obs_sections_obey_the_codec_laws() {
        let mut hist = nim_obs::LatencyHistogram::default();
        hist.record(37);
        let state = Some(ObsState {
            config: ObsConfig {
                trace: true,
                sample_every: 400,
                ..ObsConfig::default()
            },
            next_sample: 800,
            columns: vec!["l2/hits".to_string(), "pillar/0/occupancy".to_string()],
            rows: vec![SampleRow {
                cycle: 400,
                wall_secs: 0.25,
                values: vec![12.0, 0.5],
            }],
            metrics: vec![
                ("a/counter".to_string(), Metric::Counter(9)),
                ("a/gauge".to_string(), Metric::Gauge(-1.5)),
                ("a/histogram".to_string(), Metric::Histogram(hist)),
            ],
        });
        let back = assert_laws(&state).expect("presence survives");
        assert_eq!(back.metrics, state.as_ref().unwrap().metrics);
        assert_eq!(back.next_sample, 800);
        assert!(assert_laws(&None::<ObsState>).is_none());
    }
}
