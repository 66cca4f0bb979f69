//! Shared experiment machinery: scaling, evaluation, and report rendering.

use selest_core::{ErrorStats, ExactSelectivity, RangeQuery, SelectivityEstimator};

/// How large to run an experiment.
#[derive(Debug, Clone, Copy)]
pub struct Scale {
    /// Divide Table 2 record counts by this (1 = the paper's full size).
    pub record_divisor: usize,
    /// Queries per query file (the paper uses 1 000).
    pub queries_per_file: usize,
    /// Sample size for building estimators (the paper uses 2 000).
    pub sample_size: usize,
    /// Points in positional sweeps (Figures 3 and 10).
    pub sweep_points: usize,
}

impl Scale {
    /// The paper's full experimental scale.
    pub fn paper() -> Self {
        Scale {
            record_divisor: 1,
            queries_per_file: 1_000,
            sample_size: 2_000,
            sweep_points: 201,
        }
    }

    /// A reduced scale for tests and smoke runs (~10x smaller data,
    /// 5x fewer queries).
    pub fn quick() -> Self {
        Scale {
            record_divisor: 10,
            queries_per_file: 200,
            sample_size: 1_000,
            sweep_points: 81,
        }
    }
}

/// Queries per work unit of the chunked evaluation engine. Fixed — chunk
/// boundaries must depend only on the query file, never on the worker
/// count, so every `--jobs` setting reproduces the same `ErrorStats`
/// bit-for-bit.
const EVAL_CHUNK: usize = 64;

/// Evaluate an estimator's MRE (and friends) over a query file against the
/// exact instance counts.
///
/// The query file is split into fixed-size chunks, each chunk is answered
/// query by query on one of [`selest_par::configured_jobs`] workers, and
/// the per-chunk accumulators are merged in chunk order. The result is
/// bit-identical to the single-threaded per-query loop for every worker
/// count.
pub fn evaluate<E: SelectivityEstimator + Sync + ?Sized>(
    estimator: &E,
    queries: &[RangeQuery],
    exact: &ExactSelectivity,
) -> ErrorStats {
    evaluate_jobs(estimator, queries, exact, selest_par::configured_jobs())
}

/// [`evaluate`] with an explicit worker count (primarily for determinism
/// tests and the bench harness).
pub fn evaluate_jobs<E: SelectivityEstimator + Sync + ?Sized>(
    estimator: &E,
    queries: &[RangeQuery],
    exact: &ExactSelectivity,
    jobs: usize,
) -> ErrorStats {
    let n = exact.total();
    let chunks = selest_par::parallel_chunks_jobs(queries, EVAL_CHUNK, jobs, |chunk| {
        let mut stats = ErrorStats::new();
        for q in chunk {
            let truth = exact.count(q) as f64;
            stats.record(truth, estimator.selectivity(q) * n as f64);
        }
        stats
    });
    ErrorStats::from_ordered_chunks(chunks)
}

/// One labelled line of `(x, y)` points.
#[derive(Debug, Clone)]
pub struct Series {
    /// Legend label.
    pub label: String,
    /// The points, in x order.
    pub points: Vec<(f64, f64)>,
}

impl Series {
    /// Minimum y value (panics on an empty series).
    pub fn y_min(&self) -> f64 {
        self.points
            .iter()
            .map(|p| p.1)
            .fold(f64::INFINITY, f64::min)
    }

    /// Maximum y value.
    pub fn y_max(&self) -> f64 {
        self.points
            .iter()
            .map(|p| p.1)
            .fold(f64::NEG_INFINITY, f64::max)
    }

    /// x of the minimal y.
    pub fn argmin(&self) -> f64 {
        self.points
            .iter()
            .fold((f64::NAN, f64::INFINITY), |acc, &(x, y)| {
                if y < acc.1 {
                    (x, y)
                } else {
                    acc
                }
            })
            .0
    }
}

/// The result of one experiment: series (line plots) and/or grouped bars,
/// plus free-form notes, renderable as aligned text and CSV.
#[derive(Debug, Clone)]
pub struct ExperimentReport {
    /// Experiment id (`"fig04"`, `"tab02"`).
    pub id: String,
    /// Human title.
    pub title: String,
    /// Name of the x axis when series are present.
    pub x_label: String,
    /// Name of the y axis / bar value.
    pub y_label: String,
    /// Line series (empty for bar-only experiments).
    pub series: Vec<Series>,
    /// Grouped bars: `(group, method, value)` (empty for line experiments).
    pub bars: Vec<(String, String, f64)>,
    /// Commentary: what the paper reports, what to look for.
    pub notes: Vec<String>,
}

impl ExperimentReport {
    /// New empty report.
    pub fn new(id: &str, title: &str, x_label: &str, y_label: &str) -> Self {
        ExperimentReport {
            id: id.to_owned(),
            title: title.to_owned(),
            x_label: x_label.to_owned(),
            y_label: y_label.to_owned(),
            series: Vec::new(),
            bars: Vec::new(),
            notes: Vec::new(),
        }
    }

    /// Bar value for `(group, method)`, if present.
    pub fn bar(&self, group: &str, method: &str) -> Option<f64> {
        self.bars
            .iter()
            .find(|(g, m, _)| g == group && m == method)
            .map(|&(_, _, v)| v)
    }

    /// Series by label, if present.
    pub fn series_by_label(&self, label: &str) -> Option<&Series> {
        self.series.iter().find(|s| s.label == label)
    }

    /// Render as CSV: series as `label,x,y` rows, bars as
    /// `group,method,value` rows.
    pub fn to_csv(&self) -> String {
        let mut out = String::new();
        if !self.series.is_empty() {
            out.push_str(&format!("series,{},{}\n", self.x_label, self.y_label));
            for s in &self.series {
                for &(x, y) in &s.points {
                    out.push_str(&format!("{},{x},{y}\n", s.label));
                }
            }
        }
        if !self.bars.is_empty() {
            out.push_str(&format!("group,method,{}\n", self.y_label));
            for (g, m, v) in &self.bars {
                out.push_str(&format!("{g},{m},{v}\n"));
            }
        }
        out
    }
}

impl core::fmt::Display for ExperimentReport {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        writeln!(f, "== {} — {} ==", self.id, self.title)?;
        if !self.series.is_empty() {
            // Tabulate series side by side on the union of x values.
            let mut xs: Vec<f64> = self
                .series
                .iter()
                .flat_map(|s| s.points.iter().map(|p| p.0))
                .collect();
            xs.sort_by(|a, b| a.partial_cmp(b).expect("finite x"));
            xs.dedup();
            write!(f, "{:>14}", self.x_label)?;
            for s in &self.series {
                write!(f, " {:>16}", truncate(&s.label, 16))?;
            }
            writeln!(f)?;
            for &x in &xs {
                write!(f, "{x:>14.4}")?;
                for s in &self.series {
                    match s.points.iter().find(|p| p.0 == x) {
                        Some(&(_, y)) => write!(f, " {y:>16.5}")?,
                        None => write!(f, " {:>16}", "-")?,
                    }
                }
                writeln!(f)?;
            }
        }
        if !self.bars.is_empty() {
            // Group rows, method columns.
            let mut groups: Vec<&String> = self.bars.iter().map(|b| &b.0).collect();
            groups.dedup();
            let mut methods: Vec<&String> = Vec::new();
            for (_, m, _) in &self.bars {
                if !methods.contains(&m) {
                    methods.push(m);
                }
            }
            write!(f, "{:>10}", "file")?;
            for m in &methods {
                write!(f, " {:>12}", truncate(m, 12))?;
            }
            writeln!(f)?;
            for g in groups {
                write!(f, "{:>10}", truncate(g, 10))?;
                for m in &methods {
                    match self.bar(g, m) {
                        Some(v) => write!(f, " {v:>12.5}")?,
                        None => write!(f, " {:>12}", "-")?,
                    }
                }
                writeln!(f)?;
            }
        }
        for n in &self.notes {
            writeln!(f, "  note: {n}")?;
        }
        Ok(())
    }
}

/// First `n` characters of `s`. Cutting on a `char_indices` boundary, not
/// a byte offset — a byte slice at `n` panics mid-codepoint on non-ASCII
/// labels like `"Kernel(σ-DPI2)"`.
fn truncate(s: &str, n: usize) -> &str {
    match s.char_indices().nth(n) {
        Some((i, _)) => &s[..i],
        None => s,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use selest_core::{Domain, UniformEstimator};

    #[test]
    fn evaluate_scores_the_uniform_estimator() {
        let values: Vec<f64> = (0..1_000).map(|i| i as f64 / 10.0).collect(); // uniform [0,100)
        let exact = ExactSelectivity::new(&values, Domain::new(0.0, 100.0));
        let est = UniformEstimator::new(Domain::new(0.0, 100.0));
        let queries: Vec<RangeQuery> = (0..10)
            .map(|i| RangeQuery::new(5.0 * i as f64, 5.0 * i as f64 + 10.0))
            .collect();
        let stats = evaluate(&est, &queries, &exact);
        assert_eq!(stats.count(), 10);
        // Uniform data + uniform estimator: near-zero error.
        assert!(stats.mean_relative_error() < 0.01);
    }

    #[test]
    fn evaluate_is_bit_identical_across_worker_counts() {
        let values: Vec<f64> = (0..5_000).map(|i| ((i * i) % 997) as f64 / 10.0).collect();
        let exact = ExactSelectivity::new(&values, Domain::new(0.0, 100.0));
        let est = UniformEstimator::new(Domain::new(0.0, 100.0));
        let queries: Vec<RangeQuery> = (0..333)
            .map(|i| {
                let a = (i as f64 * 7.3) % 90.0;
                RangeQuery::new(a, a + 1.0 + (i % 5) as f64)
            })
            .collect();
        let base = evaluate_jobs(&est, &queries, &exact, 1);
        for jobs in [2, 3, 8] {
            let par = evaluate_jobs(&est, &queries, &exact, jobs);
            assert_eq!(par.count(), base.count(), "jobs={jobs}");
            assert_eq!(
                par.mean_relative_error().to_bits(),
                base.mean_relative_error().to_bits(),
                "jobs={jobs}"
            );
            assert_eq!(
                par.mean_absolute_error().to_bits(),
                base.mean_absolute_error().to_bits()
            );
            assert_eq!(
                par.relative_error_quantile(0.99).to_bits(),
                base.relative_error_quantile(0.99).to_bits()
            );
        }
    }

    #[test]
    fn truncate_respects_multibyte_labels() {
        // Byte-slicing "Kérnel…" at 2 would split the é and panic.
        assert_eq!(truncate("Kérnel", 2), "Ké");
        assert_eq!(truncate("Kérnel", 100), "Kérnel");
        assert_eq!(truncate("σπλήνας", 3), "σπλ");
        assert_eq!(truncate("ascii", 3), "asc");
        assert_eq!(truncate("", 4), "");
    }

    #[test]
    fn report_with_non_ascii_labels_renders() {
        // Regression: Display used a byte-sliced truncate that panicked on
        // labels longer than the column width containing non-ASCII.
        let mut r = ExperimentReport::new("figY", "démo", "n", "MRE");
        // 15 ASCII chars then 'é': byte 16 falls mid-codepoint, so the old
        // `&label[..16]` slice panicked when tabulating this series.
        r.series.push(Series {
            label: "aaaaaaaaaaaaaaaé-boundary".into(),
            points: vec![(1.0, 0.5)],
        });
        r.bars
            .push(("aaaaaaaaañ-edge".into(), "aaaaaaaaaaaσ-ed".into(), 0.07));
        let text = r.to_string();
        assert!(text.contains("figY"));
    }

    #[test]
    fn series_stats() {
        let s = Series {
            label: "x".into(),
            points: vec![(1.0, 5.0), (2.0, 3.0), (3.0, 9.0)],
        };
        assert_eq!(s.y_min(), 3.0);
        assert_eq!(s.y_max(), 9.0);
        assert_eq!(s.argmin(), 2.0);
    }

    #[test]
    fn report_rendering_and_csv() {
        let mut r = ExperimentReport::new("figX", "demo", "n", "MRE");
        r.series.push(Series {
            label: "a".into(),
            points: vec![(1.0, 0.5), (2.0, 0.25)],
        });
        r.bars.push(("u(20)".into(), "EWH".into(), 0.07));
        r.notes.push("check the shape".into());
        let text = r.to_string();
        assert!(text.contains("figX"));
        assert!(text.contains("EWH"));
        let csv = r.to_csv();
        assert!(csv.contains("a,1,0.5"));
        assert!(csv.contains("u(20),EWH,0.07"));
        assert_eq!(r.bar("u(20)", "EWH"), Some(0.07));
        assert!(r.bar("u(20)", "nope").is_none());
        assert!(r.series_by_label("a").is_some());
    }
}
