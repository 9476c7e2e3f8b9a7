//! Observability spine for the network-in-memory simulator.
//!
//! `nim-obs` provides three things, all behind one cheap shared handle:
//!
//! 1. **Cycle-stamped event tracing** — a bounded ring of typed
//!    [`EventData`] records (packet inject/deliver, dTDMA slot grants,
//!    NUCA search probes, migrations, invalidations, bank and memory
//!    accesses) with per-[`Category`] runtime filtering, exported as
//!    Chrome `trace_event` JSON loadable in [Perfetto](https://ui.perfetto.dev).
//! 2. **A metrics registry** — named counters, gauges, and
//!    [`LatencyHistogram`]s (e.g. per-router link utilization,
//!    per-pillar occupancy, per-cluster hit/miss matrices).
//! 3. **An epoch sampler** — snapshots selected metrics every N cycles
//!    and self-profiles simulated-cycles-per-wall-second.
//!
//! The handle is an `Option<Rc<_>>`: a disabled [`Obs`] costs one branch
//! per instrumentation point, and event payloads are built lazily via
//! closures so nothing allocates unless the category is live.
//!
//! ```
//! use nim_obs::{Category, EventData, Obs, ObsConfig};
//!
//! let obs = Obs::new(ObsConfig { trace: true, ..ObsConfig::default() });
//! obs.set_now(17);
//! obs.emit(Category::Pillar, || EventData::BusGrant {
//!     pillar: 0,
//!     from_layer: 1,
//!     to_layer: 0,
//! });
//! obs.counter_add("pillar/0/transfers", 1);
//! assert_eq!(obs.event_count(), 1);
//! assert_eq!(obs.counter("pillar/0/transfers"), 1);
//!
//! let mut trace = Vec::new();
//! obs.export_trace(&mut trace).unwrap();
//! assert!(String::from_utf8(trace).unwrap().contains("slot_grant"));
//! ```
//!
//! The crate is deliberately dependency-free (std only) so it can sit
//! below every simulator crate without cycles and build offline.

#![forbid(unsafe_code)]

mod category;
mod event;
mod hist;
mod json;
mod metrics;
mod ring;
mod sampler;

pub use category::{Category, CategoryMask};
pub use event::{Event, EventData};
pub use hist::LatencyHistogram;
pub use metrics::{Metric, MetricsRegistry};
pub use ring::TraceBuffer;
pub use sampler::{EpochSampler, SampleRow};

use std::cell::{Cell, RefCell};
use std::fmt::Write as _;
use std::io::{self, Write};
use std::rc::Rc;

/// Configuration for an enabled [`Obs`] handle.
#[derive(Clone, Debug)]
pub struct ObsConfig {
    /// Record trace events (the metrics registry is always on for an
    /// enabled handle).
    pub trace: bool,
    /// Ring capacity in events; oldest events are evicted past this.
    pub trace_capacity: usize,
    /// Which categories to record when tracing.
    pub mask: CategoryMask,
    /// Snapshot metrics every this many cycles (0 disables sampling).
    pub sample_every: u64,
    /// Emit begin/end latency spans for every Nth transaction
    /// (0 disables transaction spans).
    pub txn_sample: u64,
}

nim_types::codec_struct!(ObsConfig {
    trace,
    trace_capacity,
    mask,
    sample_every,
    txn_sample
});

impl Default for ObsConfig {
    fn default() -> Self {
        ObsConfig {
            trace: false,
            trace_capacity: 1 << 20,
            mask: CategoryMask::default_trace(),
            sample_every: 0,
            txn_sample: 0,
        }
    }
}

struct Inner {
    now: Cell<u64>,
    tracing: bool,
    mask: CategoryMask,
    trace: RefCell<TraceBuffer>,
    metrics: RefCell<MetricsRegistry>,
    sample_every: u64,
    next_sample: Cell<u64>,
    sampler: RefCell<EpochSampler>,
    txn_sample: u64,
}

/// Shared observability handle threaded through the simulator.
///
/// Cloning is cheap (reference-counted); all clones see the same trace
/// ring, metrics registry, sampler, and current-cycle stamp. A
/// [`Obs::disabled`] handle makes every operation a no-op costing one
/// branch.
#[derive(Clone, Default)]
pub struct Obs {
    inner: Option<Rc<Inner>>,
}

impl std::fmt::Debug for Obs {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match &self.inner {
            None => f.write_str("Obs(disabled)"),
            Some(i) => f
                .debug_struct("Obs")
                .field("now", &i.now.get())
                .field("tracing", &i.tracing)
                .field("events", &i.trace.borrow().len())
                .field("metrics", &i.metrics.borrow().len())
                .finish(),
        }
    }
}

impl Obs {
    /// A handle where every operation is a no-op.
    pub fn disabled() -> Obs {
        Obs { inner: None }
    }

    /// An enabled handle per `config`.
    pub fn new(config: ObsConfig) -> Obs {
        Obs {
            inner: Some(Rc::new(Inner {
                now: Cell::new(0),
                tracing: config.trace,
                mask: config.mask,
                trace: RefCell::new(TraceBuffer::new(config.trace_capacity)),
                metrics: RefCell::new(MetricsRegistry::default()),
                sample_every: config.sample_every,
                next_sample: Cell::new(config.sample_every.max(1)),
                sampler: RefCell::new(EpochSampler::new(config.sample_every.max(1))),
                txn_sample: config.txn_sample,
            })),
        }
    }

    /// Whether this handle records anything at all.
    #[inline]
    pub fn is_enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// Stamps the current simulation cycle (called once per tick by the
    /// component driving time; all subsequent events use this stamp).
    #[inline]
    pub fn set_now(&self, cycle: u64) {
        if let Some(inner) = &self.inner {
            inner.now.set(cycle);
        }
    }

    /// The last stamped cycle (0 when disabled).
    #[inline]
    pub fn now(&self) -> u64 {
        self.inner.as_ref().map_or(0, |i| i.now.get())
    }

    /// Whether transaction `txn_id` is selected for begin/end span
    /// emission: tracing must be on, [`Category::Txn`] unfiltered, and
    /// the id a multiple of the configured sampling stride. One branch
    /// when disabled.
    #[inline]
    pub fn txn_span_due(&self, txn_id: u64) -> bool {
        match &self.inner {
            Some(inner) => {
                inner.txn_sample > 0
                    && inner.tracing
                    && inner.mask.contains(Category::Txn)
                    && txn_id.is_multiple_of(inner.txn_sample)
            }
            None => false,
        }
    }

    /// Records an event of `cat` at the current cycle. The payload
    /// closure only runs if the category is live, so call sites pay one
    /// branch when tracing is off or filtered.
    #[inline]
    pub fn emit<F: FnOnce() -> EventData>(&self, cat: Category, f: F) {
        if let Some(inner) = &self.inner {
            if inner.tracing && inner.mask.contains(cat) {
                inner.trace.borrow_mut().push(Event {
                    cycle: inner.now.get(),
                    data: f(),
                });
            }
        }
    }

    /// Adds `delta` to a named counter.
    #[inline]
    pub fn counter_add(&self, name: &str, delta: u64) {
        if let Some(inner) = &self.inner {
            inner.metrics.borrow_mut().counter_add(name, delta);
        }
    }

    /// Sets a named counter to an absolute value.
    #[inline]
    pub fn counter_set(&self, name: &str, value: u64) {
        if let Some(inner) = &self.inner {
            inner.metrics.borrow_mut().counter_set(name, value);
        }
    }

    /// Sets a named gauge.
    #[inline]
    pub fn gauge_set(&self, name: &str, value: f64) {
        if let Some(inner) = &self.inner {
            inner.metrics.borrow_mut().gauge_set(name, value);
        }
    }

    /// Records one sample into a named histogram.
    #[inline]
    pub fn histogram_record(&self, name: &str, sample: u64) {
        if let Some(inner) = &self.inner {
            inner.metrics.borrow_mut().histogram_record(name, sample);
        }
    }

    /// Stores a pre-accumulated histogram under `name`.
    pub fn histogram_set(&self, name: &str, h: LatencyHistogram) {
        if let Some(inner) = &self.inner {
            inner.metrics.borrow_mut().histogram_set(name, h);
        }
    }

    /// A counter's current value (0 when absent or disabled).
    pub fn counter(&self, name: &str) -> u64 {
        self.inner
            .as_ref()
            .map_or(0, |i| i.metrics.borrow().counter(name))
    }

    /// Runs `f` against the metrics registry (None when disabled).
    pub fn with_metrics<R>(&self, f: impl FnOnce(&MetricsRegistry) -> R) -> Option<R> {
        self.inner.as_ref().map(|i| f(&i.metrics.borrow()))
    }

    /// The configured sampling epoch (0 when sampling is off).
    pub fn sample_every(&self) -> u64 {
        self.inner.as_ref().map_or(0, |i| i.sample_every)
    }

    /// Whether an epoch boundary has been reached or passed at `now`.
    /// The driver loop checks this every cycle and records a sample when
    /// true; a caller that samples late takes one snapshot and the next
    /// boundary realigns to the epoch grid.
    #[inline]
    pub fn sample_due(&self, now: u64) -> bool {
        match &self.inner {
            Some(inner) => inner.sample_every > 0 && now >= inner.next_sample.get(),
            None => false,
        }
    }

    /// Records one snapshot at `now` and arms the next aligned epoch
    /// (`(now / every + 1) * every`).
    pub fn record_sample(&self, now: u64, pairs: &[(&str, f64)]) {
        if let Some(inner) = &self.inner {
            if inner.sample_every == 0 {
                return;
            }
            inner.sampler.borrow_mut().record(now, pairs);
            let every = inner.sample_every;
            inner.next_sample.set((now / every + 1) * every);
        }
    }

    /// Records one snapshot at `now` from parallel `names`/`values`
    /// slices and arms the next aligned epoch — the allocation-lean
    /// sibling of [`Obs::record_sample`] for callers that precompute
    /// their column names once and reuse a values buffer every epoch.
    pub fn record_sample_cols(&self, now: u64, names: &[String], values: &[f64]) {
        if let Some(inner) = &self.inner {
            if inner.sample_every == 0 {
                return;
            }
            inner.sampler.borrow_mut().record_cols(now, names, values);
            let every = inner.sample_every;
            inner.next_sample.set((now / every + 1) * every);
        }
    }

    /// The configuration this handle was created with (`None` when
    /// disabled) — what a snapshot records to rebuild an equivalent
    /// handle for the replay.
    pub fn config(&self) -> Option<ObsConfig> {
        self.inner.as_ref().map(|i| ObsConfig {
            trace: i.tracing,
            trace_capacity: i.trace.borrow().capacity(),
            mask: i.mask,
            sample_every: i.sample_every,
            txn_sample: i.txn_sample,
        })
    }

    /// Hashes the Chrome-JSON rendering of every buffered event stamped
    /// at or after `cycle`. Two handles driven by the same binary agree
    /// on this digest iff their trace suffixes match line-for-line
    /// (the hasher is std's `DefaultHasher`, so digests are only
    /// comparable within one build).
    pub fn trace_digest_from(&self, cycle: u64) -> u64 {
        use std::hash::{Hash, Hasher};
        let mut h = std::collections::hash_map::DefaultHasher::new();
        if let Some(inner) = &self.inner {
            let trace = inner.trace.borrow();
            let mut line = String::new();
            for event in trace.iter() {
                if event.cycle < cycle {
                    continue;
                }
                line.clear();
                event.write_chrome_json(&mut line);
                line.hash(&mut h);
            }
        }
        h.finish()
    }

    /// Simulated cycles per wall-clock second measured by the sampler.
    pub fn cycles_per_sec(&self) -> f64 {
        self.inner
            .as_ref()
            .map_or(0.0, |i| i.sampler.borrow().cycles_per_sec())
    }

    /// Events currently in the ring.
    pub fn event_count(&self) -> usize {
        self.inner.as_ref().map_or(0, |i| i.trace.borrow().len())
    }

    /// Events evicted from a full ring.
    pub fn dropped_events(&self) -> u64 {
        self.inner
            .as_ref()
            .map_or(0, |i| i.trace.borrow().dropped())
    }

    /// Writes the trace as a Chrome `trace_event` JSON array — one
    /// object per line — loadable in Perfetto or `chrome://tracing`.
    /// Includes per-category track names, every buffered event, the
    /// epoch-sampled series as counter (`"ph":"C"`) events, and a final
    /// summary record. 1 trace µs = 1 simulated cycle.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors from `w`.
    pub fn export_trace(&self, w: &mut dyn Write) -> io::Result<()> {
        let inner = match &self.inner {
            Some(i) => i,
            None => return w.write_all(b"[]\n"),
        };
        let mut line = String::new();
        w.write_all(b"[\n")?;
        let mut first = true;
        let flush = |w: &mut dyn Write, line: &mut String, first: &mut bool| -> io::Result<()> {
            if !*first {
                w.write_all(b",\n")?;
            }
            *first = false;
            w.write_all(line.as_bytes())?;
            line.clear();
            Ok(())
        };
        // Name one Perfetto track per category.
        for cat in Category::ALL {
            let _ = write!(
                line,
                "{{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":0,\"tid\":{},\"args\":{{\"name\":\"{}\"}}}}",
                cat.index(),
                cat.name()
            );
            flush(w, &mut line, &mut first)?;
        }
        let trace = inner.trace.borrow();
        for event in trace.iter() {
            event.write_chrome_json(&mut line);
            flush(w, &mut line, &mut first)?;
        }
        // Epoch-sampled series render as counter tracks.
        let sampler = inner.sampler.borrow();
        if inner.sample_every > 0 {
            for row in sampler.rows() {
                for (col, name) in sampler.columns().iter().enumerate() {
                    let v = row.values.get(col).copied().unwrap_or(0.0);
                    line.push_str("{\"name\":");
                    json::push_json_string(&mut line, name);
                    let _ = write!(
                        line,
                        ",\"cat\":\"meta\",\"ph\":\"C\",\"ts\":{},\"pid\":0,\"args\":{{\"value\":{}}}}}",
                        row.cycle,
                        json::json_f64(v)
                    );
                    flush(w, &mut line, &mut first)?;
                }
            }
        }
        let _ = write!(
            line,
            "{{\"name\":\"trace_summary\",\"cat\":\"meta\",\"ph\":\"i\",\"ts\":{},\"pid\":0,\"tid\":{},\"s\":\"t\",\
             \"args\":{{\"events\":{},\"dropped\":{},\"cycles_per_sec\":{}}}}}",
            inner.now.get(),
            Category::Meta.index(),
            trace.len(),
            trace.dropped(),
            json::json_f64(sampler.cycles_per_sec())
        );
        flush(w, &mut line, &mut first)?;
        w.write_all(b"\n]\n")
    }

    /// Writes the metrics registry and epoch-sample table as one JSON
    /// document: `{"final": {...}, "epochs": {...} | null}`.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors from `w`.
    pub fn export_metrics(&self, w: &mut dyn Write) -> io::Result<()> {
        let inner = match &self.inner {
            Some(i) => i,
            None => return w.write_all(b"{}\n"),
        };
        let mut out = String::from("{\n\"final\": ");
        inner.metrics.borrow().write_json(&mut out);
        out.push_str(",\n\"epochs\": ");
        if inner.sample_every > 0 {
            inner.sampler.borrow().write_json(&mut out);
        } else {
            out.push_str("null");
        }
        out.push_str("\n}\n");
        w.write_all(out.as_bytes())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_handle_is_inert() {
        let obs = Obs::disabled();
        obs.set_now(100);
        obs.emit(Category::Packet, || panic!("payload must not be built"));
        obs.counter_add("x", 1);
        assert!(!obs.is_enabled());
        assert_eq!(obs.now(), 0);
        assert_eq!(obs.counter("x"), 0);
        assert!(!obs.sample_due(1_000_000));
        let mut buf = Vec::new();
        obs.export_trace(&mut buf).unwrap();
        assert_eq!(buf, b"[]\n");
    }

    #[test]
    fn filtered_categories_skip_payload_construction() {
        let obs = Obs::new(ObsConfig {
            trace: true,
            mask: CategoryMask::NONE.with(Category::Packet),
            ..ObsConfig::default()
        });
        obs.emit(Category::Hop, || panic!("hop is filtered out"));
        obs.emit(Category::Packet, || EventData::MemFill { line: 1 });
        // MemFill is a Memory-category payload but was emitted under
        // Packet: emit() trusts the caller's category for filtering.
        assert_eq!(obs.event_count(), 1);
    }

    #[test]
    fn clones_share_state() {
        let obs = Obs::new(ObsConfig {
            trace: true,
            ..ObsConfig::default()
        });
        let other = obs.clone();
        other.set_now(7);
        other.counter_add("shared", 2);
        obs.emit(Category::Memory, || EventData::MemRequest { line: 9 });
        assert_eq!(obs.now(), 7);
        assert_eq!(obs.counter("shared"), 2);
        assert_eq!(other.event_count(), 1);
    }

    #[test]
    fn sampling_aligns_to_epochs() {
        let obs = Obs::new(ObsConfig {
            sample_every: 100,
            ..ObsConfig::default()
        });
        assert!(!obs.sample_due(99));
        assert!(obs.sample_due(100));
        obs.record_sample(100, &[("m", 1.0)]);
        assert!(!obs.sample_due(150));
        // A sample taken several epochs late is one row, then re-aligns.
        assert!(obs.sample_due(437));
        obs.record_sample(437, &[("m", 2.0)]);
        assert!(!obs.sample_due(499));
        assert!(obs.sample_due(500));
    }

    #[test]
    fn txn_span_sampling_strides_over_ids() {
        assert!(!Obs::disabled().txn_span_due(0));
        let off = Obs::new(ObsConfig {
            trace: true,
            ..ObsConfig::default()
        });
        assert!(!off.txn_span_due(0), "txn_sample 0 keeps spans off");
        let every3 = Obs::new(ObsConfig {
            trace: true,
            txn_sample: 3,
            ..ObsConfig::default()
        });
        assert!(every3.txn_span_due(0));
        assert!(!every3.txn_span_due(1));
        assert!(every3.txn_span_due(6));
        let untraced = Obs::new(ObsConfig {
            txn_sample: 1,
            ..ObsConfig::default()
        });
        assert!(!untraced.txn_span_due(0), "spans need the trace ring");
        let filtered = Obs::new(ObsConfig {
            trace: true,
            txn_sample: 1,
            mask: CategoryMask::ALL.without(Category::Txn),
            ..ObsConfig::default()
        });
        assert!(!filtered.txn_span_due(0));
    }

    #[test]
    fn trace_export_is_valid_json_lines() {
        let obs = Obs::new(ObsConfig {
            trace: true,
            sample_every: 10,
            ..ObsConfig::default()
        });
        obs.set_now(5);
        obs.emit(Category::Packet, || EventData::PacketInject {
            packet: 1,
            src: [0, 0, 0],
            dst: [1, 2, 0],
            class: "data",
            flits: 5,
        });
        obs.record_sample(10, &[("occ", 0.5)]);
        let mut buf = Vec::new();
        obs.export_trace(&mut buf).unwrap();
        let text = String::from_utf8(buf).unwrap();
        assert!(text.starts_with("[\n"));
        assert!(text.trim_end().ends_with(']'));
        // Every line between the brackets is one JSON object.
        for line in text.lines() {
            let line = line.trim_end_matches(',');
            if line == "[" || line == "]" || line.is_empty() {
                continue;
            }
            assert!(
                line.starts_with('{') && line.ends_with('}'),
                "bad line: {line}"
            );
        }
        assert!(text.contains("\"inject\""));
        assert!(text.contains("\"ph\":\"C\""));
        assert!(text.contains("trace_summary"));
    }
}
