//! `nimbench compare <a.json> <b.json>`: the one rule every
//! before/after claim is judged by (choosing-metrics §8), applied per
//! workload × end-to-end metric to two result files written by `all`.
//! `a` is the parent, `b` the change; repetition `i` of one is paired
//! with repetition `i` of the other.

use crate::json::{self, Value};
use crate::spec::{self, Source, PER_LAYER};
use crate::stats::{pair, summarize, Better};

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Verdict {
    Better,
    Worse,
    WithinBound,
    Unresolved,
}

impl Verdict {
    pub fn name(self) -> &'static str {
        match self {
            Verdict::Better => "better",
            Verdict::Worse => "worse",
            Verdict::WithinBound => "within-bound",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// Judges `b` against `a`.
///
/// * `better`: `b` wins at least nine tenths of the pairs (ties count
///   for neither) and the medians differ by more than the distance
///   between `a`'s quartiles.
/// * `unresolved`: either side's IQR/median exceeds `bound`, so a
///   regression of `bound` could hide in the spread — unless every run
///   of `b` beats every run of `a` (then `better`), or every run of `b`
///   loses to every run of `a` and the median is past the bound (then
///   `worse`).
/// * `worse`: `b`'s median is worse than `a`'s by more than `bound`.
/// * `within-bound` otherwise.
pub fn verdict(a: &[f64], b: &[f64], better: Better, bound: f64) -> Verdict {
    let (sa, sb) = (summarize(a), summarize(b));
    let pairing = pair(a, b, better);
    let worsening = better.worsening(sa.median, sb.median);
    let past_spread = (sb.median - sa.median).abs() > sa.q3 - sa.q1;
    if pairing.win_share() >= 0.9 && past_spread && better.beats(sb.median, sa.median) {
        return Verdict::Better;
    }
    let every = |wins: fn(Better, f64, f64) -> bool| {
        !a.is_empty() && a.iter().all(|&x| b.iter().all(|&y| wins(better, y, x)))
    };
    if sa.iqr_over_median > bound || sb.iqr_over_median > bound {
        if every(|m, y, x| m.beats(y, x)) {
            return Verdict::Better;
        }
        if every(|m, y, x| m.beats(x, y)) && worsening > bound {
            return Verdict::Worse;
        }
        return Verdict::Unresolved;
    }
    if worsening > bound {
        Verdict::Worse
    } else {
        Verdict::WithinBound
    }
}

fn load(path: &str) -> Result<Value, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    json::parse(&text).map_err(|e| format!("{path}: {e}"))
}

/// Values that must be identical between two runs of one commit at one
/// seed: simulated figures, phase attribution, allocator counts on the
/// single-threaded workloads.
fn exact_values(workload: &str, w: &Value) -> Vec<(String, Value)> {
    let mut out = Vec::new();
    for key in ["fail_ratio", "fingerprint"] {
        if let Some(v) = w.get(key) {
            out.push((key.to_string(), v.clone()));
        }
    }
    if let Some(sim) = w.get("sim") {
        out.extend(sim.entries().iter().cloned());
    }
    let layers = w.get("per_layer");
    for m in &PER_LAYER {
        // The sweep's run section spans threads; its allocator counts
        // are not exact.
        let exact =
            m.source == Source::Sim || (m.name.starts_with("alloc.") && workload != "sweep_fig13");
        if let (true, Some(v)) = (exact, layers.and_then(|l| l.get(m.name))) {
            out.push((
                m.name.to_string(),
                v.get("value").cloned().unwrap_or(Value::Null),
            ));
        }
    }
    out
}

/// Prints the comparison; `Ok(true)` when nothing is `worse` and every
/// exact value agrees.
pub fn compare(path_a: &str, path_b: &str) -> Result<bool, String> {
    let (a, b) = (load(path_a)?, load(path_b)?);
    for key in ["seed", "quick", "run_seconds"] {
        if a.get(key) != b.get(key) {
            println!(
                "note: {key} differs ({:?} vs {:?}); exact values are expected to differ",
                a.get(key),
                b.get(key)
            );
        }
    }
    let (wa, wb) = (
        a.get("workloads").ok_or("a: no workloads")?,
        b.get("workloads").ok_or("b: no workloads")?,
    );
    let mut ok = true;
    println!(
        "{:<13} {:<17} {:>13} {:>13} {:>8} {:>7} {:>7} {:>6}  verdict",
        "workload", "metric", "median a", "median b", "change", "iqr a", "iqr b", "wins"
    );
    for (name, ea) in wa.entries() {
        let Some(eb) = wb.get(name) else {
            println!("{name:<13} missing from b");
            ok = false;
            continue;
        };
        for m in &spec::END_TO_END {
            let reps = |e: &Value| {
                e.get("end_to_end")
                    .and_then(|x| x.get(m.name))
                    .and_then(|x| x.get("reps"))
                    .map(Value::f64s)
                    .unwrap_or_default()
            };
            let (ra, rb) = (reps(ea), reps(eb));
            if ra.is_empty() || rb.is_empty() {
                continue;
            }
            let v = verdict(&ra, &rb, m.better, m.bound);
            ok &= v != Verdict::Worse;
            let (sa, sb) = (summarize(&ra), summarize(&rb));
            let p = pair(&ra, &rb, m.better);
            println!(
                "{:<13} {:<17} {:>13.6} {:>13.6} {:>+7.1}% {:>6.1}% {:>6.1}% {:>3}/{:<2}  {}",
                name,
                m.name,
                sa.median,
                sb.median,
                -m.better.worsening(sa.median, sb.median) * 100.0,
                sa.iqr_over_median * 100.0,
                sb.iqr_over_median * 100.0,
                p.wins,
                p.pairs,
                v.name()
            );
        }
        let (xa, xb) = (exact_values(name, ea), exact_values(name, eb));
        let differing: Vec<&str> = xa
            .iter()
            .filter(|(k, v)| xb.iter().find(|(kb, _)| kb == k).map(|(_, vb)| vb) != Some(v))
            .map(|(k, _)| k.as_str())
            .collect();
        if differing.is_empty() {
            println!("{name:<13} {} exact values identical", xa.len());
        } else {
            ok = false;
            println!("{name:<13} exact values DIFFER: {}", differing.join(", "));
        }
    }
    println!(
        "change: + is better; wins: pairs b won; bounds: {}",
        spec::END_TO_END
            .iter()
            .map(|m| format!("{} {:.0}%", m.name, m.bound * 100.0))
            .collect::<Vec<_>>()
            .join(", ")
    );
    Ok(ok)
}

#[cfg(test)]
mod tests {
    use super::*;
    use Better::{Higher, Lower};

    #[test]
    fn a_clear_consistent_gain_is_better() {
        let a = [
            100.0, 101.0, 99.0, 100.5, 100.2, 99.8, 100.1, 99.9, 100.3, 100.0,
        ];
        let b: Vec<f64> = a.iter().map(|x| x * 1.2).collect();
        assert_eq!(verdict(&a, &b, Higher, 0.1), Verdict::Better);
        assert_eq!(verdict(&a, &b, Lower, 0.1), Verdict::Worse);
    }

    #[test]
    fn a_small_shift_inside_the_bound_is_within_bound() {
        let a = [100.0, 101.0, 99.0, 100.5, 99.5];
        let b = [98.0, 99.0, 97.5, 98.5, 98.2];
        // Every pair lost, but by 2 %, inside a 10 % bound.
        assert_eq!(verdict(&a, &b, Higher, 0.1), Verdict::WithinBound);
        assert_eq!(verdict(&a, &a, Higher, 0.1), Verdict::WithinBound);
    }

    #[test]
    fn a_median_past_the_bound_is_worse() {
        let a = [100.0, 101.0, 99.0, 100.5, 99.5];
        let b = [85.0, 86.0, 84.0, 85.5, 84.5];
        assert_eq!(verdict(&a, &b, Higher, 0.1), Verdict::Worse);
    }

    #[test]
    fn spread_wider_than_the_bound_is_unresolved_not_unchanged() {
        let a = [100.0, 130.0, 80.0, 120.0, 90.0];
        let b = [95.0, 125.0, 85.0, 118.0, 92.0];
        assert_eq!(verdict(&a, &b, Higher, 0.1), Verdict::Unresolved);
        // ... unless every run of b beats every run of a,
        let c = [140.0, 180.0, 135.0, 170.0, 150.0];
        assert_eq!(verdict(&a, &c, Higher, 0.1), Verdict::Better);
        // or loses to every run of a with the median past the bound.
        let d = [60.0, 75.0, 50.0, 70.0, 55.0];
        assert_eq!(verdict(&a, &d, Higher, 0.1), Verdict::Worse);
    }

    #[test]
    fn wins_without_a_median_shift_past_the_spread_are_not_a_gain() {
        let a = [
            100.0, 110.0, 90.0, 105.0, 95.0, 102.0, 98.0, 104.0, 96.0, 101.0,
        ];
        let b: Vec<f64> = a.iter().map(|x| x + 0.5).collect();
        assert_eq!(verdict(&a, &b, Higher, 0.25), Verdict::WithinBound);
    }
}
