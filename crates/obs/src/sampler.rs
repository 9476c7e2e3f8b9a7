//! Epoch sampler: periodic metric snapshots plus wall-clock self-profiling.

use std::fmt::Write as _;
use std::time::Instant;

use crate::json::{json_f64, push_json_string};

/// One snapshot row.
#[derive(Clone, Debug)]
pub(crate) struct SampleRow {
    /// Simulation cycle of the snapshot.
    pub(crate) cycle: u64,
    /// Wall-clock seconds since the sampler started.
    pub(crate) wall_secs: f64,
    /// Values aligned with [`EpochSampler::columns`].
    pub(crate) values: Vec<f64>,
}

/// Snapshots named scalar series every N cycles.
///
/// The first row fixes the columns; each later row is the same columns'
/// values. The sampler also timestamps each row with wall-clock time,
/// from which [`EpochSampler::cycles_per_sec`] derives
/// simulated-cycles-per-wall-second self-profiling.
#[derive(Clone, Debug)]
pub(crate) struct EpochSampler {
    every: u64,
    started: Instant,
    columns: Vec<String>,
    rows: Vec<SampleRow>,
}

impl EpochSampler {
    /// Creates a sampler with the given epoch length (cycles, min 1).
    pub(crate) fn new(every: u64) -> EpochSampler {
        EpochSampler {
            every: every.max(1),
            started: Instant::now(),
            columns: Vec::new(),
            rows: Vec::new(),
        }
    }

    /// Column names, as the first row named them.
    pub(crate) fn columns(&self) -> &[String] {
        &self.columns
    }

    /// Recorded rows, oldest first.
    pub(crate) fn rows(&self) -> &[SampleRow] {
        &self.rows
    }

    /// Records one snapshot at `cycle` from parallel `names`/`values`
    /// slices. The first row fixes the columns for the run; every later
    /// row must name the same columns in the same order, so recording
    /// is a copy of the values with no string comparisons.
    ///
    /// # Panics
    ///
    /// Panics if `names` and `values` lengths differ, and (debug builds)
    /// if `names` differ from the columns the first row fixed.
    pub(crate) fn record(&mut self, cycle: u64, names: &[String], values: &[f64]) {
        assert_eq!(names.len(), values.len(), "column/value length mismatch");
        if self.rows.is_empty() {
            self.columns = names.to_vec();
        }
        debug_assert_eq!(self.columns, names, "the first row fixed the columns");
        self.rows.push(SampleRow {
            cycle,
            wall_secs: self.started.elapsed().as_secs_f64(),
            values: values.to_vec(),
        });
    }

    /// Simulated cycles per wall-clock second between the first and last
    /// snapshot, or `None` with fewer than two rows or no elapsed time.
    pub(crate) fn cycles_per_sec(&self) -> Option<f64> {
        let (first, last) = match (self.rows.first(), self.rows.last()) {
            (Some(f), Some(l)) if l.cycle > f.cycle => (f, l),
            _ => return None,
        };
        let dt = last.wall_secs - first.wall_secs;
        (dt > 0.0).then(|| (last.cycle - first.cycle) as f64 / dt)
    }

    /// Appends the sampler as one JSON object:
    /// `{"every":N,"columns":[...],"rows":[[cycle,wall_secs,v...],...]}`.
    pub(crate) fn write_json(&self, out: &mut String) {
        let _ = write!(
            out,
            "{{\"every\":{},\"cycles_per_sec\":{},\"columns\":[",
            self.every,
            json_f64(self.cycles_per_sec().unwrap_or(0.0))
        );
        for (i, c) in self.columns.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            push_json_string(out, c);
        }
        out.push_str("],\"rows\":[");
        for (i, row) in self.rows.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(out, "\n  [{},{}", row.cycle, json_f64(row.wall_secs));
            for &v in &row.values {
                out.push(',');
                out.push_str(&json_f64(v));
            }
            out.push(']');
        }
        out.push_str("]}");
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_first_row_fixes_the_columns() {
        let mut s = EpochSampler::new(100);
        let names = ["a".to_string(), "b".to_string()];
        s.record(100, &names, &[1.0, 0.5]);
        s.record(200, &names, &[2.0, 9.0]);
        assert_eq!(s.columns(), &names);
        assert_eq!(s.rows()[0].values, vec![1.0, 0.5]);
        assert_eq!(s.rows()[1].values, vec![2.0, 9.0]);
        let mut out = String::new();
        s.write_json(&mut out);
        assert!(out.contains("\"columns\":[\"a\",\"b\"]"), "{out}");
        assert!(out.contains("[100,") && out.contains(",1.0,0.5]"), "{out}");
        assert!(out.ends_with("]}"), "{out}");
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "the first row fixed the columns")]
    fn a_later_row_may_not_rename_the_columns() {
        let mut s = EpochSampler::new(100);
        s.record(100, &["a".to_string()], &[1.0]);
        s.record(200, &["b".to_string()], &[2.0]);
    }

    #[test]
    fn cycles_per_sec_needs_two_rows() {
        let mut s = EpochSampler::new(10);
        assert_eq!(s.cycles_per_sec(), None);
        s.record(10, &[], &[]);
        assert_eq!(s.cycles_per_sec(), None);
        std::thread::sleep(std::time::Duration::from_millis(2));
        s.record(1010, &[], &[]);
        assert!(s.cycles_per_sec().is_some_and(|r| r > 0.0));
    }
}
