//! Named metrics registry: counters, gauges, and latency histograms.

use std::collections::BTreeMap;
use std::fmt::Write as _;

use crate::hist::LatencyHistogram;
use crate::json::{json_f64, push_json_string};

/// A single named metric.
#[derive(Clone, Debug, PartialEq)]
pub enum Metric {
    /// Monotonic count (events, flits, hits…).
    Counter(u64),
    /// Point-in-time value (occupancy ratio, temperature…).
    Gauge(f64),
    /// Power-of-two latency distribution.
    Histogram(LatencyHistogram),
}

/// A registry of named metrics.
///
/// Names are hierarchical by convention, slash-separated — e.g.
/// `noc/link_util/2,1,0`, `pillar/3/occupancy`, `l2/hits/0/5`. BTreeMap
/// storage keeps exports deterministically ordered.
#[derive(Clone, Debug, Default)]
pub struct MetricsRegistry {
    metrics: BTreeMap<String, Metric>,
}

impl MetricsRegistry {
    /// Adds `delta` to a counter, creating it at zero first.
    pub fn counter_add(&mut self, name: &str, delta: u64) {
        match self.metrics.get_mut(name) {
            Some(Metric::Counter(v)) => *v += delta,
            Some(other) => *other = Metric::Counter(delta),
            None => {
                self.metrics
                    .insert(name.to_string(), Metric::Counter(delta));
            }
        }
    }

    /// Sets a counter to an absolute value.
    pub fn counter_set(&mut self, name: &str, value: u64) {
        self.metrics
            .insert(name.to_string(), Metric::Counter(value));
    }

    /// Sets a gauge.
    pub fn gauge_set(&mut self, name: &str, value: f64) {
        self.metrics.insert(name.to_string(), Metric::Gauge(value));
    }

    /// Records one sample into a histogram, creating it if absent.
    pub fn histogram_record(&mut self, name: &str, sample: u64) {
        match self.metrics.get_mut(name) {
            Some(Metric::Histogram(h)) => h.record(sample),
            _ => {
                let mut h = LatencyHistogram::default();
                h.record(sample);
                self.metrics.insert(name.to_string(), Metric::Histogram(h));
            }
        }
    }

    /// Stores a pre-built histogram (e.g. one accumulated elsewhere).
    pub fn histogram_set(&mut self, name: &str, h: LatencyHistogram) {
        self.metrics.insert(name.to_string(), Metric::Histogram(h));
    }

    /// Looks up one metric.
    pub fn get(&self, name: &str) -> Option<&Metric> {
        self.metrics.get(name)
    }

    /// A counter's value, or 0 if absent / not a counter.
    pub fn counter(&self, name: &str) -> u64 {
        match self.metrics.get(name) {
            Some(Metric::Counter(v)) => *v,
            _ => 0,
        }
    }

    /// All metrics, name-ordered.
    pub fn iter(&self) -> impl Iterator<Item = (&str, &Metric)> {
        self.metrics.iter().map(|(k, v)| (k.as_str(), v))
    }

    /// Metrics whose name starts with `prefix`, name-ordered.
    pub fn with_prefix<'a>(
        &'a self,
        prefix: &'a str,
    ) -> impl Iterator<Item = (&'a str, &'a Metric)> {
        self.iter().filter(move |(k, _)| k.starts_with(prefix))
    }

    /// Number of registered metrics.
    pub fn len(&self) -> usize {
        self.metrics.len()
    }

    /// Whether the registry is empty.
    pub fn is_empty(&self) -> bool {
        self.metrics.is_empty()
    }

    /// Appends the registry as one JSON object.
    pub fn write_json(&self, out: &mut String) {
        out.push('{');
        let mut first = true;
        for (name, metric) in &self.metrics {
            if !first {
                out.push(',');
            }
            first = false;
            out.push_str("\n  ");
            push_json_string(out, name);
            out.push(':');
            match metric {
                Metric::Counter(v) => {
                    let _ = write!(out, "{v}");
                }
                Metric::Gauge(v) => out.push_str(&json_f64(*v)),
                Metric::Histogram(h) => {
                    let _ = write!(out, "{{\"count\":{},\"buckets\":[", h.count());
                    for (i, b) in h.buckets().iter().enumerate() {
                        if i > 0 {
                            out.push(',');
                        }
                        let _ = write!(out, "{b}");
                    }
                    let (p50, p95, p99) = h.percentiles();
                    let _ = write!(out, "],\"p50\":{p50},\"p95\":{p95},\"p99\":{p99}}}");
                }
            }
        }
        out.push_str("\n}");
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate_and_gauges_overwrite() {
        let mut r = MetricsRegistry::default();
        r.counter_add("a/hits", 2);
        r.counter_add("a/hits", 3);
        r.gauge_set("a/occ", 0.5);
        r.gauge_set("a/occ", 0.75);
        assert_eq!(r.counter("a/hits"), 5);
        assert_eq!(r.get("a/occ"), Some(&Metric::Gauge(0.75)));
        assert_eq!(r.counter("missing"), 0);
    }

    #[test]
    fn prefix_scan_is_ordered() {
        let mut r = MetricsRegistry::default();
        r.counter_add("link/2", 1);
        r.counter_add("link/1", 1);
        r.counter_add("other", 1);
        let names: Vec<&str> = r.with_prefix("link/").map(|(k, _)| k).collect();
        assert_eq!(names, vec!["link/1", "link/2"]);
    }

    #[test]
    fn json_export_covers_all_kinds() {
        let mut r = MetricsRegistry::default();
        r.counter_add("c", 7);
        r.gauge_set("g", 1.5);
        r.histogram_record("h", 12);
        let mut out = String::new();
        r.write_json(&mut out);
        assert!(out.contains("\"c\":7"));
        assert!(out.contains("\"g\":1.5"));
        assert!(out.contains("\"count\":1"));
        assert!(out.contains("\"p50\":16"));
        assert!(out.contains("\"p95\":16"));
        assert!(out.contains("\"p99\":16"));
    }
}
