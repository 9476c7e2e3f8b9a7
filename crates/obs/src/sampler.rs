//! Epoch sampler: periodic metric snapshots plus wall-clock self-profiling.

use std::fmt::Write as _;
use std::time::Instant;

use crate::json::{json_f64, push_json_string};

/// One snapshot row.
#[derive(Clone, Debug)]
pub struct SampleRow {
    /// Simulation cycle of the snapshot.
    pub cycle: u64,
    /// Wall-clock seconds since the sampler started.
    pub wall_secs: f64,
    /// Values aligned with [`EpochSampler::columns`]; rows recorded
    /// before a column existed are padded with 0 at export.
    pub values: Vec<f64>,
}

nim_types::codec_struct!(SampleRow {
    cycle,
    wall_secs,
    values
});

/// Snapshots named scalar series every N cycles.
///
/// Columns are registered lazily on first use, so callers just report
/// `(name, value)` pairs each epoch. The sampler also timestamps each
/// row with wall-clock time, from which [`EpochSampler::cycles_per_sec`]
/// derives simulated-cycles-per-wall-second self-profiling.
#[derive(Clone, Debug)]
pub struct EpochSampler {
    every: u64,
    started: Instant,
    columns: Vec<String>,
    rows: Vec<SampleRow>,
}

impl EpochSampler {
    /// Creates a sampler with the given epoch length (cycles, min 1).
    pub fn new(every: u64) -> EpochSampler {
        EpochSampler {
            every: every.max(1),
            started: Instant::now(),
            columns: Vec::new(),
            rows: Vec::new(),
        }
    }

    /// The epoch length in cycles.
    pub fn every(&self) -> u64 {
        self.every
    }

    /// Registered column names, in registration order.
    pub fn columns(&self) -> &[String] {
        &self.columns
    }

    /// Recorded rows, oldest first.
    pub fn rows(&self) -> &[SampleRow] {
        &self.rows
    }

    /// Replaces the column layout and recorded rows wholesale (snapshot
    /// restore). The wall-clock origin restarts at the restore point, so
    /// `wall_secs` of rows recorded afterwards measure the resumed
    /// process — wall-clock fields are never part of bit-identity.
    pub fn restore_rows(&mut self, columns: Vec<String>, rows: Vec<SampleRow>) {
        self.columns = columns;
        self.rows = rows;
        self.started = Instant::now();
    }

    /// Records one snapshot at `cycle` from `(name, value)` pairs.
    /// Unknown names become new columns.
    pub fn record(&mut self, cycle: u64, pairs: &[(&str, f64)]) {
        let mut values = vec![0.0; self.columns.len()];
        for (name, value) in pairs {
            let idx = match self.columns.iter().position(|c| c == name) {
                Some(i) => i,
                None => {
                    self.columns.push((*name).to_string());
                    values.push(0.0);
                    self.columns.len() - 1
                }
            };
            values[idx] = *value;
        }
        self.rows.push(SampleRow {
            cycle,
            wall_secs: self.started.elapsed().as_secs_f64(),
            values,
        });
    }

    /// Records one snapshot from parallel `names`/`values` slices whose
    /// layout is the same every epoch — the allocation-lean path for
    /// callers that precompute their column names once (the simulator's
    /// per-epoch sampler). After the first call registers the columns,
    /// each subsequent epoch is a single `memcpy`-style copy with no
    /// string comparisons.
    ///
    /// # Panics
    ///
    /// Panics if `names` and `values` lengths differ.
    pub fn record_cols(&mut self, cycle: u64, names: &[String], values: &[f64]) {
        assert_eq!(names.len(), values.len(), "column/value length mismatch");
        let aligned = self.columns.len() == names.len()
            && self.columns.iter().zip(names).all(|(c, n)| c == n);
        if aligned {
            self.rows.push(SampleRow {
                cycle,
                wall_secs: self.started.elapsed().as_secs_f64(),
                values: values.to_vec(),
            });
            return;
        }
        // First call (or an interleaved pair-based caller changed the
        // layout): fall back to name matching.
        let pairs: Vec<(&str, f64)> = names
            .iter()
            .map(String::as_str)
            .zip(values.iter().copied())
            .collect();
        self.record(cycle, &pairs);
    }

    /// Simulated cycles per wall-clock second between the first and last
    /// snapshot (0 with fewer than two rows or no elapsed time).
    pub fn cycles_per_sec(&self) -> f64 {
        let (first, last) = match (self.rows.first(), self.rows.last()) {
            (Some(f), Some(l)) if l.cycle > f.cycle => (f, l),
            _ => return 0.0,
        };
        let dt = last.wall_secs - first.wall_secs;
        if dt <= 0.0 {
            0.0
        } else {
            (last.cycle - first.cycle) as f64 / dt
        }
    }

    /// Appends the sampler as one JSON object:
    /// `{"every":N,"columns":[...],"rows":[[cycle,wall_secs,v...],...]}`.
    pub fn write_json(&self, out: &mut String) {
        let _ = write!(
            out,
            "{{\"every\":{},\"cycles_per_sec\":{},\"columns\":[",
            self.every,
            json_f64(self.cycles_per_sec())
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
            for col in 0..self.columns.len() {
                let v = row.values.get(col).copied().unwrap_or(0.0);
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
    fn columns_grow_lazily_and_old_rows_pad() {
        let mut s = EpochSampler::new(100);
        s.record(100, &[("a", 1.0)]);
        s.record(200, &[("a", 2.0), ("b", 9.0)]);
        assert_eq!(s.columns(), &["a".to_string(), "b".to_string()]);
        assert_eq!(s.rows()[0].values, vec![1.0]);
        assert_eq!(s.rows()[1].values, vec![2.0, 9.0]);
        let mut out = String::new();
        s.write_json(&mut out);
        // Row 0 pads the missing "b" column with 0 in the export.
        assert!(out.contains("[100,"), "{out}");
        assert!(out.ends_with("]}"), "{out}");
    }

    #[test]
    fn cycles_per_sec_needs_two_rows() {
        let mut s = EpochSampler::new(10);
        assert_eq!(s.cycles_per_sec(), 0.0);
        s.record(10, &[]);
        assert_eq!(s.cycles_per_sec(), 0.0);
        std::thread::sleep(std::time::Duration::from_millis(2));
        s.record(1010, &[]);
        assert!(s.cycles_per_sec() > 0.0);
    }
}
