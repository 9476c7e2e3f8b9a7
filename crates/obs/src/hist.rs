//! Power-of-two latency histogram.
//!
//! Lived in `nim-noc` originally; moved here so every pillar of the
//! simulator (and the metrics registry) can record distributions without
//! depending on the NoC crate. `nim-noc` re-exports it unchanged.

use core::fmt;

/// A power-of-two-bucketed latency histogram.
///
/// Bucket `i` counts samples with latency in `[2^i, 2^(i+1))` cycles
/// (bucket 0 covers 0–1). Sixteen buckets cover everything up to 65 535
/// cycles; longer latencies land in the last bucket.
///
/// ```
/// use nim_obs::LatencyHistogram;
///
/// let mut h = LatencyHistogram::default();
/// for lat in [12, 14, 90] {
///     h.record(lat);
/// }
/// assert_eq!(h.count(), 3);
/// assert_eq!(h.quantile_upper_bound(0.6), 16, "two of three are under 16");
/// ```
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct LatencyHistogram {
    buckets: [u64; 16],
}

impl LatencyHistogram {
    /// Records one latency sample.
    pub fn record(&mut self, latency: u64) {
        let bucket = (64 - latency.max(1).leading_zeros() as usize - 1).min(15);
        self.buckets[bucket] += 1;
    }

    /// The raw bucket counts.
    pub fn buckets(&self) -> &[u64; 16] {
        &self.buckets
    }

    /// Total samples recorded.
    pub fn count(&self) -> u64 {
        self.buckets.iter().sum()
    }

    /// The smallest latency bound `b` such that at least `quantile` of
    /// samples are `< 2b` (an upper estimate using bucket upper edges).
    pub fn quantile_upper_bound(&self, quantile: f64) -> u64 {
        let total = self.count();
        if total == 0 {
            return 0;
        }
        let target = (quantile.clamp(0.0, 1.0) * total as f64).ceil() as u64;
        let mut seen = 0;
        for (i, n) in self.buckets.iter().enumerate() {
            seen += n;
            if seen >= target {
                return 1 << (i + 1);
            }
        }
        1 << 16
    }

    /// The standard latency readout — (p50, p95, p99) upper bounds —
    /// in one call. All zeros for an empty histogram.
    pub fn percentiles(&self) -> (u64, u64, u64) {
        (
            self.quantile_upper_bound(0.50),
            self.quantile_upper_bound(0.95),
            self.quantile_upper_bound(0.99),
        )
    }
}

impl fmt::Display for LatencyHistogram {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let total = self.count().max(1);
        for (i, n) in self.buckets.iter().enumerate() {
            if *n == 0 {
                continue;
            }
            writeln!(
                f,
                "[{:>5}, {:>5}) {:>8}  {:>5.1}%",
                1u64 << i,
                1u64 << (i + 1),
                n,
                *n as f64 / total as f64 * 100.0
            )?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn histogram_buckets_by_power_of_two() {
        let mut h = LatencyHistogram::default();
        for lat in [0u64, 1, 2, 3, 4, 7, 8, 1024, 1_000_000] {
            h.record(lat);
        }
        let b = h.buckets();
        assert_eq!(b[0], 2, "0 and 1");
        assert_eq!(b[1], 2, "2 and 3");
        assert_eq!(b[2], 2, "4 and 7");
        assert_eq!(b[3], 1, "8");
        assert_eq!(b[10], 1, "1024");
        assert_eq!(b[15], 1, "overflow bucket");
        assert_eq!(h.count(), 9);
    }

    #[test]
    fn histogram_quantiles_are_upper_bounds() {
        let mut h = LatencyHistogram::default();
        for _ in 0..90 {
            h.record(10); // bucket 3: [8, 16)
        }
        for _ in 0..10 {
            h.record(100); // bucket 6: [64, 128)
        }
        assert_eq!(h.quantile_upper_bound(0.5), 16);
        assert_eq!(h.quantile_upper_bound(0.99), 128);
        assert_eq!(LatencyHistogram::default().quantile_upper_bound(0.5), 0);
        assert_eq!(h.percentiles(), (16, 128, 128));
        assert_eq!(LatencyHistogram::default().percentiles(), (0, 0, 0));
    }

    #[test]
    fn histogram_display_lists_nonempty_buckets() {
        let mut h = LatencyHistogram::default();
        h.record(5);
        let text = h.to_string();
        assert!(text.contains("[    4,     8)"));
        assert!(text.contains("100.0%"));
    }
}
