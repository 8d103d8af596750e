//! `compare`: two result sets, judged against `BENCHMARK.json`'s bounds.
//!
//! A result set is the JSON-lines file `--out` appends one record to per
//! run. For every workload × end-to-end metric the two sets' medians are
//! compared:
//!
//! * **worse** — the new median is worse than the base median by more
//!   than the metric's bound;
//! * **improved** — the new median is better by more than the base runs'
//!   own interquartile spread, and the new run wins at least nine tenths
//!   of the seed-matched pairs;
//! * **unresolved** — anything else (including no change within the
//!   bound, or no seed-matched pairs).

use std::collections::BTreeMap;

use serde_json::Value;

use crate::stats::{relative_spread, Summary};

/// One metric's declaration in `BENCHMARK.json`.
#[derive(Debug, Clone, PartialEq)]
pub struct Bound {
    /// Metric name.
    pub name: String,
    /// Unit.
    pub unit: String,
    /// Whether lower values are better.
    pub lower_is_better: bool,
    /// Share of the base median by which the metric may get worse.
    pub bound: f64,
}

/// Workload names and end-to-end bounds from a parsed `BENCHMARK.json`.
///
/// # Errors
///
/// Returns a message when a required key is missing or mistyped.
pub fn parse_spec(spec: &Value) -> Result<(Vec<String>, Vec<Bound>), String> {
    let workloads = spec
        .get("workloads")
        .and_then(Value::as_array)
        .ok_or("BENCHMARK.json: no workloads list")?
        .iter()
        .map(|w| w.get("name").and_then(Value::as_str).map(str::to_string))
        .collect::<Option<Vec<_>>>()
        .ok_or("BENCHMARK.json: workload without a name")?;
    let bounds = spec
        .get("end_to_end")
        .and_then(Value::as_array)
        .ok_or("BENCHMARK.json: no end_to_end list")?
        .iter()
        .map(|m| {
            Some(Bound {
                name: m.get("name")?.as_str()?.to_string(),
                unit: m.get("unit")?.as_str()?.to_string(),
                lower_is_better: m.get("better")?.as_str()? == "lower",
                bound: m.get("bound")?.as_f64()?,
            })
        })
        .collect::<Option<Vec<_>>>()
        .ok_or("BENCHMARK.json: malformed end_to_end metric")?;
    Ok((workloads, bounds))
}

/// The outcome for one workload × metric.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// Better beyond the base's own spread, winning ≥ 9/10 of pairs.
    Improved,
    /// Worse by more than the bound.
    Worse,
    /// Neither shown.
    Unresolved,
}

impl Verdict {
    /// Lower-case label.
    pub fn label(self) -> &'static str {
        match self {
            Verdict::Improved => "improved",
            Verdict::Worse => "worse",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// Comparison of one metric's runs: `(seed, value)` per run on each side.
#[derive(Debug, Clone, PartialEq)]
pub struct Comparison {
    /// Base summary.
    pub base: Summary,
    /// New summary.
    pub new: Summary,
    /// New median ÷ base median.
    pub ratio: f64,
    /// Change toward worse, as a share of the base median (negative =
    /// better).
    pub worse_by: f64,
    /// Seed-matched pairs the new run won, and pairs compared.
    pub wins: (usize, usize),
    /// Base interquartile spread as a share of its median.
    pub base_spread: f64,
    /// The verdict.
    pub verdict: Verdict,
}

/// Judges one metric.
///
/// # Panics
///
/// Panics if either side has no runs.
pub fn judge(
    base: &[(u64, f64)],
    new: &[(u64, f64)],
    lower_is_better: bool,
    bound: f64,
) -> Comparison {
    let values = |v: &[(u64, f64)]| v.iter().map(|(_, x)| *x).collect::<Vec<f64>>();
    let (b, n) = (Summary::of(&values(base)), Summary::of(&values(new)));
    let sign = if lower_is_better { 1.0 } else { -1.0 };
    let worse_by = sign * (n.median - b.median) / b.median;
    let base_spread = relative_spread(&values(base));
    let base_by_seed: BTreeMap<u64, f64> = base.iter().copied().collect();
    let mut wins = (0, 0);
    for (seed, x) in new {
        if let Some(y) = base_by_seed.get(seed) {
            wins.1 += 1;
            if sign * (x - y) < 0.0 {
                wins.0 += 1;
            }
        }
    }
    let verdict = if worse_by > bound {
        Verdict::Worse
    } else if -worse_by > base_spread && wins.1 > 0 && wins.0 * 10 >= wins.1 * 9 {
        Verdict::Improved
    } else {
        Verdict::Unresolved
    };
    Comparison {
        base: b,
        new: n,
        ratio: n.median / b.median,
        worse_by,
        wins,
        base_spread,
        verdict,
    }
}

/// `(seed, value)` of `metric` over the untraced records of `workload`.
fn runs(records: &[Value], workload: &str, metric: &str) -> Vec<(u64, f64)> {
    records
        .iter()
        .filter(|r| r.get("workload").and_then(Value::as_str) == Some(workload))
        .filter(|r| r.get("trace").and_then(Value::as_bool) == Some(false))
        .filter_map(|r| {
            let seed = r.get("seed")?.as_u64()?;
            let value = r.get("metrics")?.get(metric)?.get("value")?.as_f64()?;
            Some((seed, value))
        })
        .collect()
}

/// Parses a JSON-lines result set.
///
/// # Errors
///
/// Returns a message naming the first line that is not JSON.
pub fn parse_records(text: &str) -> Result<Vec<Value>, String> {
    text.lines()
        .enumerate()
        .filter(|(_, l)| !l.trim().is_empty())
        .map(|(i, l)| serde_json::from_str(l).map_err(|e| format!("line {}: {e}", i + 1)))
        .collect()
}

/// Compares two result sets; returns the report lines and whether any
/// metric got worse.
pub fn compare(spec: &Value, base: &[Value], new: &[Value]) -> Result<(Vec<String>, bool), String> {
    let (workloads, bounds) = parse_spec(spec)?;
    let mut lines = Vec::new();
    let mut any_worse = false;
    for w in &workloads {
        for b in &bounds {
            let (x, y) = (runs(base, w, &b.name), runs(new, w, &b.name));
            if x.is_empty() || y.is_empty() {
                lines.push(format!(
                    "{w} {}: missing (base runs {}, new runs {})",
                    b.name,
                    x.len(),
                    y.len()
                ));
                continue;
            }
            let c = judge(&x, &y, b.lower_is_better, b.bound);
            any_worse |= c.verdict == Verdict::Worse;
            lines.push(format!(
                "{w} {}: {} — new median {:.6} {u} (q1 {:.6}, q3 {:.6}, n={}) vs base median {:.6} {u} \
                 (q1 {:.6}, q3 {:.6}, n={}); ratio new/base {:.4} against base {:.6} {u}; \
                 worse by {:+.2}% (bound {:.0}%, base spread {:.2}%); won {}/{} seed pairs",
                b.name,
                c.verdict.label(),
                c.new.median,
                c.new.q1,
                c.new.q3,
                c.new.n,
                c.base.median,
                c.base.q1,
                c.base.q3,
                c.base.n,
                c.ratio,
                c.base.median,
                100.0 * c.worse_by,
                100.0 * b.bound,
                100.0 * c.base_spread,
                c.wins.0,
                c.wins.1,
                u = b.unit,
            ));
        }
    }
    Ok((lines, any_worse))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn side(values: &[f64]) -> Vec<(u64, f64)> {
        values
            .iter()
            .enumerate()
            .map(|(i, v)| (i as u64, *v))
            .collect()
    }

    #[test]
    fn clear_speedup_is_improved() {
        let base = side(&[
            100.0, 101.0, 99.0, 100.5, 99.5, 100.2, 100.1, 99.8, 100.3, 99.9,
        ]);
        let new = side(&[80.0, 81.0, 79.0, 80.5, 79.5, 80.2, 80.1, 79.8, 80.3, 79.9]);
        let c = judge(&base, &new, true, 0.1);
        assert_eq!(c.verdict, Verdict::Improved);
        assert_eq!(c.wins, (10, 10));
        assert!((c.ratio - 0.8).abs() < 0.01);
    }

    #[test]
    fn regression_beyond_the_bound_is_worse() {
        let base = side(&[10.0, 10.1, 9.9, 10.0]);
        let new = side(&[8.0, 8.1, 7.9, 8.0]);
        // Higher is better: a 20% drop exceeds a 10% bound.
        let c = judge(&base, &new, false, 0.1);
        assert_eq!(c.verdict, Verdict::Worse);
        assert!((c.worse_by - 0.2).abs() < 1e-9);
    }

    #[test]
    fn a_change_inside_the_noise_is_unresolved() {
        let base = side(&[100.0, 110.0, 90.0, 105.0, 95.0]);
        let new = side(&[98.0, 108.0, 92.0, 103.0, 96.0]);
        assert_eq!(judge(&base, &new, true, 0.1).verdict, Verdict::Unresolved);
    }

    #[test]
    fn without_matching_seeds_nothing_is_improved() {
        let base: Vec<(u64, f64)> = (0..5).map(|i| (i, 100.0 + i as f64)).collect();
        let new: Vec<(u64, f64)> = (10..15).map(|i| (i, 50.0 + i as f64)).collect();
        assert_eq!(judge(&base, &new, true, 0.1).verdict, Verdict::Unresolved);
    }

    #[test]
    fn compare_reads_spec_and_records() {
        let spec: Value = serde_json::from_str(
            r#"{"workloads":[{"name":"w","why":"x"}],
                "end_to_end":[{"name":"t","unit":"1/s","better":"higher","bound":0.1}]}"#,
        )
        .expect("spec");
        let rec = |seed: u64, v: f64| {
            serde_json::from_str::<Value>(&format!(
                r#"{{"workload":"w","seed":{seed},"trace":false,"metrics":{{"t":{{"value":{v},"unit":"1/s"}}}}}}"#
            ))
            .expect("record")
        };
        let base = vec![rec(1, 10.0), rec(2, 10.0)];
        let new = vec![rec(1, 5.0), rec(2, 5.0)];
        let (lines, worse) = compare(&spec, &base, &new).expect("compare");
        assert!(worse);
        assert!(lines[0].contains("worse"), "{}", lines[0]);
        assert!(lines[0].contains("ratio new/base 0.5000"), "{}", lines[0]);
    }
}
