//! The shared per-column preparation substrate (DESIGN.md §10).
//!
//! The paper's experiments — and the catalog's ANALYZE, and the serving
//! snapshot's brownout rung — build a whole *suite* of estimators over
//! the same attribute sample. Every constructor in the
//! workspace historically re-copied and re-sorted that sample on its own:
//! k estimators cost k·O(n log n) sorts plus k copies. [`PreparedColumn`]
//! is the one immutable artifact they can all borrow from instead:
//!
//! * the sample in its **original order** (the order Kahan-compensated
//!   statistics consume, so a summary's bits do not depend on the sort);
//! * the **ascending sort** of the sample, held by an [`Ecdf`] and shared
//!   via `Arc` so estimators borrow it without copying;
//! * the column [`Domain`];
//! * a lazily computed one-pass [`ColumnSummary`] (n, min/max, mean,
//!   stddev, median/IQR, robust scale) evaluated with the chunked
//!   deterministic `selest-math` primitives, in parallel via `selest-par`
//!   for large samples — bit-identical for every worker count.
//!
//! Ownership model: whoever draws the sample prepares it, exactly once —
//! the catalog at ANALYZE time, the experiment context at fixture-build
//! time, a test at fixture setup. Each estimator, bin rule and bandwidth
//! rule is implemented once, over a borrowed `&PreparedColumn`, bumping
//! the inner `Arc`s when it needs to retain the sorted sample; its slice
//! entry point only prepares the slice and delegates. Sharing across
//! entries, suites, and the serving rungs goes through
//! `Arc<PreparedColumn>`.
//!
//! Invariants: the sample is non-empty and NaN-free (preparation sorts,
//! which rejects NaN); `sorted` is the stable ascending sort of `values`;
//! `domain` is the column's declared domain — *membership of every sample
//! point in it is deliberately not checked here*: each estimator asserts
//! it with its own panic message, and the bandwidth selectors, which never
//! read the domain, can prepare a slice over any domain.

use std::sync::Arc;
use std::sync::OnceLock;

use crate::domain::Domain;
use crate::ecdf::Ecdf;

/// One-pass descriptive summary of a prepared column, shared by every bin
/// rule and bandwidth selector built over it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ColumnSummary {
    /// Sample size `n`.
    pub count: usize,
    /// Smallest sample value.
    pub min: f64,
    /// Largest sample value.
    pub max: f64,
    /// Arithmetic mean (Kahan-compensated, original input order).
    pub mean: f64,
    /// Sample standard deviation (`n - 1` denominator); `0.0` for `n < 2`.
    pub stddev: f64,
    /// Type-7 median.
    pub median: f64,
    /// Type-7 interquartile range `Q3 - Q1`.
    pub iqr: f64,
    /// The paper's robust scale `min(stddev, IQR / 1.349)` — the quantity
    /// every normal-scale rule starts from; `0.0` for `n < 2` or a
    /// constant sample.
    pub robust_scale: f64,
}

impl ColumnSummary {
    /// Compute the summary with an explicit worker count. `values` is the
    /// sample in original order, `sorted` its ascending sort; the
    /// order-sensitive sums run over `values` so the results match the
    /// legacy free functions (`mean`, `stddev`, `robust_scale`) bit for
    /// bit, for every `jobs` value.
    fn compute(values: &[f64], sorted: &[f64], jobs: usize) -> Self {
        let n = values.len();
        debug_assert!(
            n > 0 && n == sorted.len(),
            "ColumnSummary over a prepared sample"
        );
        if n < 2 {
            // A single observation has no spread; consumers that need two
            // or more samples keep their own asserts.
            return ColumnSummary {
                count: 1,
                min: sorted[0],
                max: sorted[0],
                mean: values[0],
                stddev: 0.0,
                median: sorted[0],
                iqr: 0.0,
                robust_scale: 0.0,
            };
        }
        ColumnSummary {
            count: n,
            min: sorted[0],
            max: sorted[n - 1],
            mean: selest_math::stats::mean_jobs(values, jobs),
            stddev: selest_math::stats::stddev_jobs(values, jobs),
            median: selest_math::stats::median(sorted),
            iqr: selest_math::stats::interquartile_range(sorted),
            robust_scale: selest_math::stats::robust_scale_sorted_jobs(values, sorted, jobs),
        }
    }
}

/// An `Arc`-shared, immutable per-column artifact: the sample, its sort,
/// its ECDF, its domain, and (lazily) its [`ColumnSummary`] — prepared
/// once, borrowed by every estimator built over the column.
///
/// # Examples
///
/// ```
/// use selest_core::{Domain, PreparedColumn, RangeQuery, SamplingEstimator,
///     SelectivityEstimator};
///
/// let col = PreparedColumn::prepare(&[10.0, 25.0, 40.0, 55.0, 70.0], Domain::new(0.0, 100.0));
/// let est = SamplingEstimator::from_prepared(&col); // borrows the sort — no copy
/// assert_eq!(est.selectivity(&RangeQuery::new(20.0, 60.0)), 0.6);
/// assert_eq!(col.summary().count, 5);
/// ```
#[derive(Debug)]
pub struct PreparedColumn {
    /// The sample in its original (pre-sort) order.
    values: Arc<[f64]>,
    /// ECDF over the ascending sort of the sample (owns the shared sort).
    ecdf: Ecdf,
    /// The column's declared domain.
    domain: Domain,
    /// Lazily computed summary (first consumer pays the one pass).
    summary: OnceLock<ColumnSummary>,
}

impl PreparedColumn {
    /// Prepare a column: retain the sample, sort it once, build the ECDF.
    /// Panics on an empty sample or NaN values (the same conditions the
    /// legacy per-estimator sorts rejected). The summary is computed
    /// lazily on first access.
    pub fn prepare(samples: &[f64], domain: Domain) -> Self {
        assert!(
            !samples.is_empty(),
            "PreparedColumn::prepare of an empty sample"
        );
        let values: Arc<[f64]> = samples.into();
        let mut sorted = samples.to_vec();
        sorted.sort_by(|a, b| a.partial_cmp(b).expect("NaN in sample set"));
        PreparedColumn {
            values,
            ecdf: Ecdf::from_sorted(sorted),
            domain,
            summary: OnceLock::new(),
        }
    }

    /// The sample in its original order.
    pub fn values(&self) -> &[f64] {
        &self.values
    }

    /// A shared handle to the original-order sample (a ref-count bump).
    pub fn values_arc(&self) -> Arc<[f64]> {
        Arc::clone(&self.values)
    }

    /// The ascending sort of the sample.
    pub fn sorted(&self) -> &[f64] {
        self.ecdf.sorted_values()
    }

    /// A shared handle to the sorted sample (a ref-count bump).
    pub fn sorted_arc(&self) -> Arc<[f64]> {
        self.ecdf.sorted_arc()
    }

    /// The ECDF over the sorted sample.
    pub fn ecdf(&self) -> &Ecdf {
        &self.ecdf
    }

    /// The column's declared domain.
    pub fn domain(&self) -> Domain {
        self.domain
    }

    /// Sample size `n`.
    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// Always false: preparation rejects empty samples.
    pub fn is_empty(&self) -> bool {
        false
    }

    /// The column summary, computed on first access with
    /// [`selest_par::configured_jobs`] workers and cached thereafter.
    pub fn summary(&self) -> &ColumnSummary {
        self.summary_jobs(selest_par::configured_jobs())
    }

    /// [`PreparedColumn::summary`] with an explicit worker count for the
    /// (first) computation. The chunked sums make the result bit-identical
    /// for every `jobs` value, so a cached summary never disagrees with
    /// the requested worker count.
    pub fn summary_jobs(&self, jobs: usize) -> &ColumnSummary {
        self.summary
            .get_or_init(|| ColumnSummary::compute(&self.values, self.sorted(), jobs))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Vec<f64> {
        // Deliberately unsorted so original-order vs sorted-order sums differ.
        let mut xs: Vec<f64> = (0..1_500)
            .map(|i| ((i * 7_919) % 1_000) as f64 / 3.0)
            .collect();
        xs.push(0.001);
        xs
    }

    #[test]
    fn prepare_retains_both_orders() {
        let xs = sample();
        let col = PreparedColumn::prepare(&xs, Domain::new(0.0, 1_000.0));
        assert_eq!(col.values(), xs.as_slice());
        assert_eq!(col.len(), xs.len());
        let mut sorted = xs.clone();
        sorted.sort_by(|a, b| a.partial_cmp(b).unwrap());
        assert_eq!(col.sorted(), sorted.as_slice());
        assert_eq!(col.ecdf().len(), xs.len());
        assert_eq!(col.domain(), Domain::new(0.0, 1_000.0));
    }

    #[test]
    fn summary_matches_legacy_free_functions_bit_for_bit() {
        let xs = sample();
        let col = PreparedColumn::prepare(&xs, Domain::new(0.0, 1_000.0));
        let s = col.summary();
        assert_eq!(s.count, xs.len());
        assert_eq!(s.mean.to_bits(), selest_math::stats::mean(&xs).to_bits());
        assert_eq!(
            s.stddev.to_bits(),
            selest_math::stats::stddev(&xs).to_bits()
        );
        assert_eq!(
            s.robust_scale.to_bits(),
            selest_math::stats::robust_scale(&xs).to_bits()
        );
        assert_eq!(s.min, *col.sorted().first().unwrap());
        assert_eq!(s.max, *col.sorted().last().unwrap());
        assert!(s.iqr >= 0.0 && s.median >= s.min && s.median <= s.max);
    }

    #[test]
    fn summary_is_bit_identical_for_any_job_count() {
        let xs: Vec<f64> = (0..10_000)
            .map(|i| ((i * 2_654_435_761_usize) % 9_973) as f64)
            .collect();
        let reference = *PreparedColumn::prepare(&xs, Domain::new(0.0, 10_000.0)).summary_jobs(1);
        for jobs in [2, 3, 7] {
            let col = PreparedColumn::prepare(&xs, Domain::new(0.0, 10_000.0));
            let s = col.summary_jobs(jobs);
            assert_eq!(
                s.mean.to_bits(),
                reference.mean.to_bits(),
                "mean jobs={jobs}"
            );
            assert_eq!(
                s.stddev.to_bits(),
                reference.stddev.to_bits(),
                "stddev jobs={jobs}"
            );
            assert_eq!(
                s.robust_scale.to_bits(),
                reference.robust_scale.to_bits(),
                "robust_scale jobs={jobs}"
            );
            assert_eq!(
                s.median.to_bits(),
                reference.median.to_bits(),
                "median jobs={jobs}"
            );
            assert_eq!(s.iqr.to_bits(), reference.iqr.to_bits(), "iqr jobs={jobs}");
        }
    }

    #[test]
    fn single_sample_summary_degrades_gracefully() {
        let col = PreparedColumn::prepare(&[42.0], Domain::new(0.0, 100.0));
        let s = col.summary();
        assert_eq!(s.count, 1);
        assert_eq!((s.min, s.max, s.mean, s.median), (42.0, 42.0, 42.0, 42.0));
        assert_eq!((s.stddev, s.iqr, s.robust_scale), (0.0, 0.0, 0.0));
    }

    #[test]
    #[should_panic(expected = "empty sample")]
    fn prepare_rejects_empty() {
        let _ = PreparedColumn::prepare(&[], Domain::unit());
    }

    #[test]
    #[should_panic(expected = "NaN in sample set")]
    fn prepare_rejects_nan() {
        let _ = PreparedColumn::prepare(&[1.0, f64::NAN], Domain::unit());
    }
}
