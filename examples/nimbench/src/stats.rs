//! Order statistics for repeated measurements, and the pairing rule
//! `compare` judges two result files by.
//!
//! Quartiles follow Python's `statistics.quantiles(values, n=4)` (the
//! default "exclusive" method), so the spreads printed here are the
//! ones the acceptance driver computes from the same values.

/// Which direction of a metric is an improvement.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Better {
    Higher,
    Lower,
}

impl Better {
    pub fn name(self) -> &'static str {
        match self {
            Better::Higher => "higher",
            Better::Lower => "lower",
        }
    }

    /// How much worse `new` is than `base`, as a share of `base`
    /// (negative when `new` is better).
    pub fn worsening(self, base: f64, new: f64) -> f64 {
        if base == 0.0 {
            return if new == base { 0.0 } else { f64::INFINITY };
        }
        match self {
            Better::Higher => (base - new) / base.abs(),
            Better::Lower => (new - base) / base.abs(),
        }
    }

    /// Whether `a` reads strictly better than `b`.
    pub fn beats(self, a: f64, b: f64) -> bool {
        match self {
            Better::Higher => a > b,
            Better::Lower => a < b,
        }
    }
}

fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// The median; 0 for an empty slice.
pub fn median(values: &[f64]) -> f64 {
    let v = sorted(values);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// First quartile, median, third quartile. A single value is its own
/// quartiles; an empty slice yields zeros.
pub fn quartiles(values: &[f64]) -> [f64; 3] {
    let v = sorted(values);
    let ld = v.len();
    match ld {
        0 => return [0.0; 3],
        1 => return [v[0]; 3],
        _ => {}
    }
    let m = ld + 1;
    let mut out = [0.0; 3];
    for (slot, i) in out.iter_mut().zip(1..4usize) {
        let j = (i * m / 4).clamp(1, ld - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        *slot = (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0;
    }
    out
}

/// Interquartile range as a share of the median (0 when the median is 0).
pub fn iqr_over_median(values: &[f64]) -> f64 {
    let [q1, med, q3] = quartiles(values);
    if med == 0.0 {
        0.0
    } else {
        (q3 - q1) / med.abs()
    }
}

/// Five-number summary plus the relative spread.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Summary {
    pub n: usize,
    pub min: f64,
    pub q1: f64,
    pub median: f64,
    pub q3: f64,
    pub max: f64,
    pub iqr_over_median: f64,
}

pub fn summarize(values: &[f64]) -> Summary {
    let [q1, median, q3] = quartiles(values);
    Summary {
        n: values.len(),
        min: values.iter().copied().fold(f64::INFINITY, f64::min),
        q1,
        median,
        q3,
        max: values.iter().copied().fold(f64::NEG_INFINITY, f64::max),
        iqr_over_median: iqr_over_median(values),
    }
}

/// Outcome of pairing repetition `i` of `base` with repetition `i` of
/// `new`: ties count for neither side; unpaired tails are dropped.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Pairing {
    pub pairs: usize,
    /// Pairs `new` won (a tie is a win for neither side).
    pub wins: usize,
}

impl Pairing {
    /// Share of all pairs `new` won.
    pub fn win_share(self) -> f64 {
        if self.pairs == 0 {
            0.0
        } else {
            self.wins as f64 / self.pairs as f64
        }
    }
}

pub fn pair(base: &[f64], new: &[f64], better: Better) -> Pairing {
    Pairing {
        pairs: base.len().min(new.len()),
        wins: base
            .iter()
            .zip(new)
            .filter(|(&a, &b)| better.beats(b, a))
            .count(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_even_and_degenerate_inputs() {
        assert_eq!(median(&[]), 0.0);
        assert_eq!(median(&[3.0]), 3.0);
        assert_eq!(median(&[5.0, 1.0, 3.0]), 3.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }

    /// Reference values from Python 3.12:
    /// `statistics.quantiles([1, 2, 3, 4, 5, 6, 7, 8, 9, 10], n=4)` is
    /// `[2.75, 5.5, 8.25]`, and `quantiles([10, 20, 40], n=4)` is
    /// `[10.0, 20.0, 40.0]`; `quantiles([1, 2], n=4)` is `[0.75, 1.5, 2.25]`.
    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&ten), [2.75, 5.5, 8.25]);
        assert_eq!(quartiles(&[40.0, 10.0, 20.0]), [10.0, 20.0, 40.0]);
        assert_eq!(quartiles(&[1.0, 2.0]), [0.75, 1.5, 2.25]);
        assert_eq!(quartiles(&[7.0]), [7.0; 3]);
    }

    #[test]
    fn iqr_is_relative_to_the_median() {
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        assert!((iqr_over_median(&ten) - 1.0).abs() < 1e-12);
        assert_eq!(iqr_over_median(&[0.0, 0.0, 0.0]), 0.0);
        let s = summarize(&ten);
        assert_eq!((s.n, s.min, s.max, s.median), (10, 1.0, 10.0, 5.5));
    }

    #[test]
    fn pairing_counts_wins_and_ignores_ties() {
        let base = [10.0, 10.0, 10.0, 10.0];
        let new = [11.0, 9.0, 10.0, 12.0, 99.0];
        let p = pair(&base, &new, Better::Higher);
        assert_eq!((p.pairs, p.wins), (4, 2));
        assert_eq!(p.win_share(), 0.5);
        let p = pair(&base, &new, Better::Lower);
        assert_eq!(p.wins, 1);
    }

    #[test]
    fn worsening_is_signed_by_direction() {
        assert!((Better::Higher.worsening(100.0, 90.0) - 0.1).abs() < 1e-12);
        assert!((Better::Lower.worsening(100.0, 90.0) + 0.1).abs() < 1e-12);
        assert_eq!(Better::Lower.worsening(0.0, 0.0), 0.0);
        assert_eq!(Better::Lower.worsening(0.0, 1.0), f64::INFINITY);
    }
}
