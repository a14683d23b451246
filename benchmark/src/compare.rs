//! `compare A.json B.json`: two result files side by side, one row per
//! workload × end-to-end metric, each with a verdict.

use crate::json::{self, Json};
use crate::metrics::{show, Better, END_TO_END, REPORTED};
use crate::stats::quartile_spread;
use crate::suite::SCHEMA;
use crate::workloads::SPECS;

/// What the two values of one metric say about each other.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// B is better than A by more than the bound.
    Better,
    /// B is worse than A by more than the bound.
    Worse,
    /// The two differ by no more than the bound.
    WithinBound,
    /// A file's own round-to-round spread exceeds the bound, so the files
    /// cannot tell a change of that size from noise.
    Unresolved,
    /// An exact metric that reads the same in both.
    Identical,
}

impl Verdict {
    fn as_str(self) -> &'static str {
        match self {
            Verdict::Better => "better",
            Verdict::Worse => "WORSE",
            Verdict::WithinBound => "within bound",
            Verdict::Unresolved => "unresolved",
            Verdict::Identical => "identical",
        }
    }
}

/// Judges value `b` against base `a`. `spread` is the wider of the two
/// files' own quartile spreads, where they have one. A zero `bound`
/// marks an exact metric: any difference is a finding, whatever the
/// spread.
pub fn verdict(better: Better, bound: f64, a: f64, b: f64, spread: Option<f64>) -> Verdict {
    let worsening = match better {
        Better::Lower => b - a,
        Better::Higher => a - b,
    };
    if bound == 0.0 {
        return match worsening {
            w if w > 0.0 => Verdict::Worse,
            w if w < 0.0 => Verdict::Better,
            _ => Verdict::Identical,
        };
    }
    if spread.is_some_and(|s| s > bound) {
        return Verdict::Unresolved;
    }
    let share = worsening / a.abs();
    if share > bound {
        Verdict::Worse
    } else if share < -bound {
        Verdict::Better
    } else {
        Verdict::WithinBound
    }
}

/// One row of the comparison.
#[derive(Debug, Clone, PartialEq)]
pub struct Row {
    /// The workload.
    pub workload: &'static str,
    /// The metric.
    pub metric: &'static str,
    /// Its unit.
    pub unit: &'static str,
    /// The base file's value.
    pub a: f64,
    /// The other file's value.
    pub b: f64,
    /// Quartile spread of A's rounds, as a share of their median.
    pub spread_a: Option<f64>,
    /// Quartile spread of B's rounds.
    pub spread_b: Option<f64>,
    /// The metric's bound (zero for exact metrics).
    pub bound: f64,
    /// The judgement.
    pub verdict: Verdict,
}

struct Metric {
    value: f64,
    spread: Option<f64>,
}

fn read_metric(file: &Json, workload: &str, metric: &str) -> Result<Option<Metric>, String> {
    let Some(m) = json::at(file, &["workloads", workload, "metrics", metric]) else {
        return Ok(None);
    };
    let value = json::get(m, "value")
        .and_then(json::number)
        .ok_or(format!("{workload}.{metric} has no value"))?;
    let spread = json::get(m, "rounds")
        .and_then(json::numbers)
        .and_then(|r| quartile_spread(&r));
    Ok(Some(Metric { value, spread }))
}

/// Every workload × end-to-end metric present in both files, in the
/// order `run` prints them. Unit, direction and bound are this
/// benchmark's, not the files'.
///
/// # Errors
///
/// A file that is not a result file of this schema, or a metric entry
/// without a value.
pub fn rows(a: &Json, b: &Json) -> Result<Vec<Row>, String> {
    for (file, name) in [(a, "A"), (b, "B")] {
        if json::get(file, "schema").and_then(json::string) != Some(SCHEMA) {
            return Err(format!("{name} is not a {SCHEMA} file"));
        }
    }
    let mut out = Vec::new();
    for spec in &SPECS {
        for def in END_TO_END.iter().chain(&REPORTED) {
            let in_file = |file: &Json, name: &str| {
                read_metric(file, spec.name, def.name).map_err(|e| format!("{name}: {e}"))
            };
            let (Some(ma), Some(mb)) = (in_file(a, "A")?, in_file(b, "B")?) else {
                continue;
            };
            let spread = match (ma.spread, mb.spread) {
                (Some(x), Some(y)) => Some(x.max(y)),
                (x, y) => x.or(y),
            };
            out.push(Row {
                workload: spec.name,
                metric: def.name,
                unit: def.unit,
                a: ma.value,
                b: mb.value,
                spread_a: ma.spread,
                spread_b: mb.spread,
                bound: def.bound,
                verdict: verdict(def.better, def.bound, ma.value, mb.value, spread),
            });
        }
    }
    Ok(out)
}

/// The comparison as a table, every ratio with its base.
pub fn render(rows: &[Row]) -> String {
    let percent = |s: Option<f64>| s.map_or("-".to_string(), |s| format!("{:.1}%", s * 100.0));
    let mut out = format!(
        "{:<24} {:<18} {:>14} {:>14} {:>9} {:>8} {:>8} {:>6}  {}\n",
        "workload", "metric", "A", "B", "B/A", "spreadA", "spreadB", "bound", "verdict (base A)"
    );
    for r in rows {
        let ratio = if r.a != 0.0 {
            format!("{:.4}", r.b / r.a)
        } else {
            "-".to_string()
        };
        out.push_str(&format!(
            "{:<24} {:<18} {:>14} {:>14} {:>9} {:>8} {:>8} {:>6}  {} [{}]\n",
            r.workload,
            r.metric,
            show(r.a),
            show(r.b),
            ratio,
            percent(r.spread_a),
            percent(r.spread_b),
            if r.bound > 0.0 {
                format!("{:.0}%", r.bound * 100.0)
            } else {
                "exact".to_string()
            },
            r.verdict.as_str(),
            r.unit,
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn verdicts_follow_direction_bound_and_spread() {
        use Better::{Higher, Lower};
        let quiet = Some(0.02);
        assert_eq!(verdict(Lower, 0.10, 1.0, 1.05, quiet), Verdict::WithinBound);
        assert_eq!(verdict(Lower, 0.10, 1.0, 1.11, quiet), Verdict::Worse);
        assert_eq!(verdict(Lower, 0.10, 1.0, 0.85, quiet), Verdict::Better);
        assert_eq!(verdict(Higher, 0.10, 100.0, 111.0, quiet), Verdict::Better);
        assert_eq!(verdict(Higher, 0.10, 100.0, 89.0, quiet), Verdict::Worse);
        assert_eq!(
            verdict(Higher, 0.10, 100.0, 95.0, None),
            Verdict::WithinBound
        );
        // Noise wider than the bound hides moves of the bound's size,
        // in either direction.
        assert_eq!(
            verdict(Lower, 0.10, 1.0, 1.5, Some(0.12)),
            Verdict::Unresolved
        );
        assert_eq!(
            verdict(Lower, 0.10, 1.0, 1.0, Some(0.12)),
            Verdict::Unresolved
        );
        // Exact metrics ignore spread.
        assert_eq!(
            verdict(Lower, 0.0, 0.25, 0.25, Some(9.0)),
            Verdict::Identical
        );
        assert_eq!(verdict(Lower, 0.0, 0.0, 0.01, None), Verdict::Worse);
        assert_eq!(verdict(Lower, 0.0, 0.25, 0.24, None), Verdict::Better);
    }

    fn file(p50: f64, rounds: &[f64]) -> Json {
        let metric = json::object([("value", json::num(p50)), ("rounds", json::nums(rounds))]);
        let workload = json::object([("metrics", json::object([("run_s_p50", metric)]))]);
        let doc = json::object([
            ("schema", json::text(SCHEMA)),
            ("workloads", json::object([(SPECS[1].name, workload)])),
        ]);
        json::parse(&doc).expect("well-formed")
    }

    #[test]
    fn files_compare_row_by_row() {
        let a = file(1.0, &[0.99, 1.0, 1.0, 1.01]);
        let b = file(1.2, &[1.19, 1.2, 1.2, 1.21]);
        let r = rows(&a, &b).expect("two result files");
        assert_eq!(r.len(), 1);
        assert_eq!((r[0].workload, r[0].metric), (SPECS[1].name, "run_s_p50"));
        assert_eq!(r[0].verdict, Verdict::Worse);
        assert!(render(&r).contains("WORSE"));
        assert!(render(&r).contains("1.2000"));

        let noisy = file(1.0, &[0.8, 0.9, 1.1, 1.3]);
        assert_eq!(
            rows(&a, &noisy).expect("ok")[0].verdict,
            Verdict::Unresolved
        );
        assert_eq!(rows(&a, &a).expect("ok")[0].verdict, Verdict::WithinBound);
        assert!(rows(&a, &Json::Null).is_err());
    }
}
