//! `selbench compare <parent-runs> <change-runs>`: the comparison rule of
//! the choosing-metrics guide, per (workload, end-to-end metric).
//!
//! Runs are paired in file-name order (run the two sides alternately and
//! name the records so). For each row:
//!
//! * **improved** — the change wins at least nine tenths of the pairs
//!   (ties count for neither side) and the medians differ, in the better
//!   direction, by more than the parent's own quartile spread;
//! * **regressed** — the change's median is worse than the parent's by
//!   more than the metric's bound;
//! * **unresolved** — the parent's run-to-run spread is wider than the
//!   bound, unless every change run reads better than every parent run;
//! * **unchanged** — otherwise.
//!
//! A change run that failed operations or a correctness check is a
//! regression of its workload whatever its timings say.

use std::collections::BTreeMap;
use std::path::Path;

use crate::json::{self, Value};
use crate::stats;

/// One comparison verdict.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// Better by the rule above.
    Improved,
    /// No worse than the bound, and resolved.
    Unchanged,
    /// Worse than the bound.
    Regressed,
    /// Too noisy to tell.
    Unresolved,
}

/// One metric's declaration in `BENCHMARK.json`.
#[derive(Debug, Clone)]
pub struct Declared {
    /// Metric name.
    pub name: String,
    /// Whether larger is better.
    pub higher_is_better: bool,
    /// Share of the parent median it may worsen by.
    pub bound: f64,
}

/// The numbers behind one verdict.
#[derive(Debug, Clone)]
pub struct Row {
    /// Parent quartiles.
    pub parent: (f64, f64, f64),
    /// Change quartiles.
    pub change: (f64, f64, f64),
    /// Share of pairs the change won.
    pub win_fraction: f64,
    /// The verdict.
    pub verdict: Verdict,
}

/// Judge one metric on one workload.
pub fn judge(parent: &[f64], change: &[f64], higher_is_better: bool, bound: f64) -> Row {
    let nan = (f64::NAN, f64::NAN, f64::NAN);
    if parent.len() < 2 || change.len() < 2 {
        return Row {
            parent: if parent.len() >= 2 {
                stats::quartiles(parent)
            } else {
                nan
            },
            change: if change.len() >= 2 {
                stats::quartiles(change)
            } else {
                nan
            },
            win_fraction: f64::NAN,
            verdict: Verdict::Unresolved,
        };
    }
    let better = |a: f64, b: f64| if higher_is_better { a > b } else { a < b };
    let p = stats::quartiles(parent);
    let c = stats::quartiles(change);
    let pairs = parent.len().min(change.len());
    let wins = parent
        .iter()
        .zip(change)
        .filter(|(p, c)| better(**c, **p))
        .count();
    let win_fraction = wins as f64 / pairs as f64;
    let worse_share = if higher_is_better {
        (p.1 - c.1) / p.1.abs()
    } else {
        (c.1 - p.1) / p.1.abs()
    };
    let spread = p.2 - p.0;
    let all_better = change.iter().all(|&x| parent.iter().all(|&y| better(x, y)));
    let verdict = if win_fraction >= 0.9 && worse_share < 0.0 && (c.1 - p.1).abs() > spread {
        Verdict::Improved
    } else if worse_share > bound {
        Verdict::Regressed
    } else if spread / p.1.abs() > bound && !all_better {
        Verdict::Unresolved
    } else {
        Verdict::Unchanged
    };
    Row {
        parent: p,
        change: c,
        win_fraction,
        verdict,
    }
}

/// One run record, as `selbench run --out` writes it.
#[derive(Debug, Clone)]
pub struct RunFile {
    /// Workload name.
    pub workload: String,
    /// Whether it was traced.
    pub trace: bool,
    /// Correctness verdict.
    pub correct: bool,
    /// Failed operations.
    pub failed: u64,
    /// Metric values by name.
    pub metrics: BTreeMap<String, f64>,
}

fn read_runs(dir: &Path) -> Result<Vec<RunFile>, String> {
    let mut paths: Vec<_> = std::fs::read_dir(dir)
        .map_err(|e| format!("{}: {e}", dir.display()))?
        .filter_map(|e| e.ok().map(|e| e.path()))
        .filter(|p| p.extension().is_some_and(|x| x == "json"))
        .collect();
    paths.sort();
    paths
        .iter()
        .map(|p| {
            let text = std::fs::read_to_string(p).map_err(|e| format!("{}: {e}", p.display()))?;
            parse_run(&text).map_err(|e| format!("{}: {e}", p.display()))
        })
        .collect()
}

/// Parse one run record.
pub fn parse_run(text: &str) -> Result<RunFile, String> {
    let v = json::parse(text)?;
    let field = |k: &str| v.get(k).ok_or_else(|| format!("missing {k}"));
    let metrics = field("metrics")?
        .obj()
        .ok_or("metrics is not an object")?
        .iter()
        .filter_map(|(k, m)| m.get("value").and_then(Value::num).map(|n| (k.clone(), n)))
        .collect();
    Ok(RunFile {
        workload: field("workload")?.str().ok_or("workload")?.to_owned(),
        trace: field("trace")? == &Value::Bool(true),
        correct: field("correct")? == &Value::Bool(true),
        failed: field("failed")?.num().ok_or("failed")? as u64,
        metrics,
    })
}

/// Workload names and end-to-end declarations from `BENCHMARK.json`.
pub fn read_benchmark(text: &str) -> Result<(Vec<String>, Vec<Declared>), String> {
    let v = json::parse(text)?;
    let workloads = v
        .get("workloads")
        .and_then(Value::arr)
        .ok_or("BENCHMARK.json: workloads")?
        .iter()
        .filter_map(|w| w.get("name").and_then(Value::str).map(str::to_owned))
        .collect();
    let declared = v
        .get("end_to_end")
        .and_then(Value::arr)
        .ok_or("BENCHMARK.json: end_to_end")?
        .iter()
        .map(|m| {
            Ok(Declared {
                name: m
                    .get("name")
                    .and_then(Value::str)
                    .ok_or("metric name")?
                    .to_owned(),
                higher_is_better: m.get("better").and_then(Value::str) == Some("higher"),
                bound: m.get("bound").and_then(Value::num).ok_or("metric bound")?,
            })
        })
        .collect::<Result<_, String>>()?;
    Ok((workloads, declared))
}

/// Compare two directories of run records; prints one line per row and
/// returns whether anything regressed.
pub fn compare(benchmark: &Path, parent: &Path, change: &Path) -> Result<bool, String> {
    let text =
        std::fs::read_to_string(benchmark).map_err(|e| format!("{}: {e}", benchmark.display()))?;
    let (workloads, declared) = read_benchmark(&text)?;
    let parent = read_runs(parent)?;
    let change = read_runs(change)?;
    let mut regressed = false;
    println!(
        "{:<14} {:<12} {:>34} {:>34} {:>5}  verdict",
        "workload", "metric", "parent q1 / median / q3", "change q1 / median / q3", "wins"
    );
    for w in &workloads {
        let side = |runs: &[RunFile]| -> Vec<RunFile> {
            runs.iter()
                .filter(|r| &r.workload == w && !r.trace)
                .cloned()
                .collect()
        };
        let (p, c) = (side(&parent), side(&change));
        let bad = c.iter().filter(|r| !r.correct || r.failed > 0).count();
        if bad > 0 {
            regressed = true;
            println!(
                "{w:<14} {:<12} {bad} change run(s) failed operations or correctness  regressed",
                "failed"
            );
        }
        for d in &declared {
            let values = |runs: &[RunFile]| -> Vec<f64> {
                runs.iter()
                    .filter_map(|r| r.metrics.get(&d.name).copied())
                    .collect()
            };
            let row = judge(&values(&p), &values(&c), d.higher_is_better, d.bound);
            regressed |= row.verdict == Verdict::Regressed;
            let q = |t: (f64, f64, f64)| format!("{:.4e} / {:.4e} / {:.4e}", t.0, t.1, t.2);
            println!(
                "{w:<14} {:<12} {:>34} {:>34} {:>5.2}  {:?}",
                d.name,
                q(row.parent),
                q(row.change),
                row.win_fraction,
                row.verdict
            );
        }
    }
    Ok(regressed)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spread(center: f64, jitter: f64, n: usize) -> Vec<f64> {
        (0..n)
            .map(|i| center * (1.0 + jitter * ((i as f64 * 0.618_034).fract() - 0.5)))
            .collect()
    }

    #[test]
    fn clear_gain_is_improved() {
        let parent = spread(100.0, 0.02, 10);
        let change = spread(80.0, 0.02, 10);
        assert_eq!(
            judge(&parent, &change, false, 0.1).verdict,
            Verdict::Improved
        );
        assert_eq!(
            judge(&change, &parent, true, 0.1).verdict,
            Verdict::Improved
        );
    }

    #[test]
    fn loss_beyond_the_bound_is_regressed() {
        let parent = spread(100.0, 0.02, 10);
        let change = spread(120.0, 0.02, 10);
        assert_eq!(
            judge(&parent, &change, false, 0.1).verdict,
            Verdict::Regressed
        );
        assert_eq!(
            judge(&change, &parent, true, 0.1).verdict,
            Verdict::Regressed
        );
    }

    #[test]
    fn small_moves_within_a_tight_spread_are_unchanged() {
        let parent = spread(100.0, 0.02, 10);
        let change = spread(101.0, 0.02, 10);
        assert_eq!(
            judge(&parent, &change, false, 0.1).verdict,
            Verdict::Unchanged
        );
    }

    #[test]
    fn noise_wider_than_the_bound_is_unresolved() {
        let parent = spread(100.0, 0.6, 10);
        let change = spread(104.0, 0.6, 10);
        let row = judge(&parent, &change, false, 0.1);
        assert_eq!(row.verdict, Verdict::Unresolved);
        // ...unless every change run beats every parent run.
        let parent = vec![100.0, 140.0, 60.0, 120.0];
        let change = vec![50.0, 55.0, 52.0, 58.0];
        assert_ne!(
            judge(&parent, &change, false, 0.1).verdict,
            Verdict::Unresolved
        );
        // Too few runs to judge.
        assert_eq!(
            judge(&[1.0], &[1.0], false, 0.1).verdict,
            Verdict::Unresolved
        );
    }

    #[test]
    fn run_records_and_benchmark_parse() {
        let run = r#"{"schema": "selest-bench/2", "workload": "serve-hot", "seed": 1, "trace": false,
            "correct": true, "attempted": 10, "failed": 0,
            "metrics": {"ops_per_s": {"value": 12.5, "unit": "1/s"}}}"#;
        let r = parse_run(run).expect("parses");
        assert_eq!(
            (r.workload.as_str(), r.trace, r.correct, r.failed),
            ("serve-hot", false, true, 0)
        );
        assert_eq!(r.metrics["ops_per_s"], 12.5);
        let bench = r#"{"workloads": [{"name": "a", "why": "x"}],
            "end_to_end": [{"name": "ops_per_s", "unit": "1/s", "better": "higher", "bound": 0.1}]}"#;
        let (w, d) = read_benchmark(bench).expect("parses");
        assert_eq!(w, vec!["a".to_owned()]);
        assert!(d[0].higher_is_better && d[0].bound == 0.1);
    }
}
