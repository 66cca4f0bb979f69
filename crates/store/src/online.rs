//! Progressive (online-aggregation style) selectivity estimation — the
//! paper's second future-work item, after Hellerstein, Haas & Wang's
//! *Online Aggregation* (reference \[6\]).
//!
//! Rows are visited in random order; after any prefix the running match
//! fraction estimates the selectivity, with a CLT confidence interval that
//! tightens as `1/sqrt(seen)`. A user (or the harness) can stop as soon as
//! the interval is tight enough.

use selest_core::RangeQuery;
use selest_math::normal_quantile;

/// Running estimate of one range predicate's selectivity over a randomized
/// scan.
///
/// # Examples
///
/// ```
/// use selest_core::RangeQuery;
/// use selest_store::OnlineSelectivity;
///
/// let mut online = OnlineSelectivity::new(RangeQuery::new(0.0, 25.0));
/// for i in 0..10_000 {
///     online.update((i as f64 * 7.31) % 100.0); // randomized scan order
/// }
/// let snap = online.snapshot(0.95);
/// assert!((snap.estimate - 0.25).abs() <= snap.half_width);
/// ```
#[derive(Debug, Clone)]
pub struct OnlineSelectivity {
    query: RangeQuery,
    seen: usize,
    matched: usize,
    skipped_nonfinite: usize,
}

/// A `(estimate, half_width)` confidence interval snapshot.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Snapshot {
    /// Rows consumed so far.
    pub seen: usize,
    /// Current selectivity estimate.
    pub estimate: f64,
    /// Half-width of the confidence interval at the requested level.
    pub half_width: f64,
}

impl OnlineSelectivity {
    /// Start a progressive estimate of `query`.
    pub fn new(query: RangeQuery) -> Self {
        OnlineSelectivity {
            query,
            seen: 0,
            matched: 0,
            skipped_nonfinite: 0,
        }
    }

    /// Consume one row value. NaN/±Inf values (a corrupted page, a bad
    /// decode) are tallied separately instead of silently diluting the
    /// match fraction — the estimate stays an estimate over real rows.
    pub fn update(&mut self, value: f64) {
        if !value.is_finite() {
            self.skipped_nonfinite += 1;
            return;
        }
        self.seen += 1;
        if self.query.matches(value) {
            self.matched += 1;
        }
    }

    /// Consume many row values.
    pub fn update_batch<I: IntoIterator<Item = f64>>(&mut self, values: I) {
        for v in values {
            self.update(v);
        }
    }

    /// The range predicate being estimated.
    pub fn query(&self) -> RangeQuery {
        self.query
    }

    /// Rows consumed so far.
    pub fn seen(&self) -> usize {
        self.seen
    }

    /// Rows that matched the predicate so far.
    pub fn matched(&self) -> usize {
        self.matched
    }

    /// Non-finite row values rejected so far.
    pub fn skipped_nonfinite(&self) -> usize {
        self.skipped_nonfinite
    }

    /// Current point estimate (0 before any row arrives).
    pub fn estimate(&self) -> f64 {
        if self.seen == 0 {
            0.0
        } else {
            self.matched as f64 / self.seen as f64
        }
    }

    /// CLT confidence interval at the given level (e.g. `0.95`). The
    /// half-width is `z * sqrt(p (1-p) / seen)`, with a `1/seen`
    /// continuity floor so early zero-match prefixes do not report absurd
    /// certainty.
    pub fn snapshot(&self, confidence: f64) -> Snapshot {
        self.try_snapshot(confidence)
            .unwrap_or_else(|_| panic!("confidence must be in [0, 1), got {confidence}"))
    }

    /// Fallible [`OnlineSelectivity::snapshot`]: an out-of-range or
    /// non-finite confidence level is a typed error, not a panic.
    pub fn try_snapshot(
        &self,
        confidence: f64,
    ) -> Result<Snapshot, selest_core::fault::EstimateError> {
        if !confidence.is_finite() || !(0.0..1.0).contains(&confidence) {
            return Err(selest_core::fault::EstimateError::NonFiniteEstimate { value: confidence });
        }
        let p = self.estimate();
        let half_width = if self.seen == 0 {
            1.0
        } else {
            let z = normal_quantile(0.5 + confidence / 2.0);
            let var = (p * (1.0 - p)).max(1.0 / self.seen as f64 / 4.0);
            z * (var / self.seen as f64).sqrt()
        };
        Ok(Snapshot {
            seen: self.seen,
            estimate: p,
            half_width,
        })
    }

    /// Whether the interval at `confidence` is narrower than
    /// `target_half_width`.
    pub fn converged(&self, confidence: f64, target_half_width: f64) -> bool {
        self.seen > 0 && self.snapshot(confidence).half_width <= target_half_width
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::seq::SliceRandom;
    use rand::SeedableRng;

    fn shuffled_uniform(n: usize, seed: u64) -> Vec<f64> {
        let mut v: Vec<f64> = (0..n)
            .map(|i| 100.0 * (i as f64 + 0.5) / n as f64)
            .collect();
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        v.shuffle(&mut rng);
        v
    }

    #[test]
    fn estimate_converges_to_truth() {
        let rows = shuffled_uniform(50_000, 3);
        let mut est = OnlineSelectivity::new(RangeQuery::new(20.0, 50.0)); // truth 0.3
        est.update_batch(rows);
        assert!(
            (est.estimate() - 0.3).abs() < 0.01,
            "got {}",
            est.estimate()
        );
    }

    #[test]
    fn interval_shrinks_like_sqrt_n() {
        let rows = shuffled_uniform(40_000, 5);
        let mut est = OnlineSelectivity::new(RangeQuery::new(0.0, 50.0));
        est.update_batch(rows.iter().copied().take(1_000));
        let early = est.snapshot(0.95).half_width;
        est.update_batch(rows.iter().copied().skip(1_000).take(15_000));
        let late = est.snapshot(0.95).half_width;
        let ratio = early / late;
        // 16x the rows -> 4x narrower.
        assert!((3.0..5.5).contains(&ratio), "shrink ratio {ratio}");
    }

    #[test]
    fn interval_covers_truth() {
        // Over many prefixes, the 95% interval should almost always contain
        // the true selectivity.
        let rows = shuffled_uniform(20_000, 7);
        let mut est = OnlineSelectivity::new(RangeQuery::new(10.0, 35.0)); // truth 0.25
        let mut covered = 0;
        let mut checks = 0;
        for (i, &v) in rows.iter().enumerate() {
            est.update(v);
            if i % 500 == 499 {
                let s = est.snapshot(0.95);
                checks += 1;
                if (s.estimate - 0.25).abs() <= s.half_width {
                    covered += 1;
                }
            }
        }
        assert!(
            covered as f64 >= 0.85 * checks as f64,
            "interval covered truth only {covered}/{checks} times"
        );
    }

    #[test]
    fn converged_threshold_behaves() {
        let mut est = OnlineSelectivity::new(RangeQuery::new(0.0, 50.0));
        assert!(!est.converged(0.95, 0.1));
        est.update_batch(shuffled_uniform(10_000, 9));
        assert!(est.converged(0.95, 0.02));
        assert!(!est.converged(0.95, 0.0001));
    }

    #[test]
    fn nonfinite_rows_are_skipped_not_counted() {
        let mut est = OnlineSelectivity::new(RangeQuery::new(0.0, 50.0));
        est.update_batch([25.0, f64::NAN, 75.0, f64::INFINITY, f64::NEG_INFINITY]);
        assert_eq!(est.seen(), 2);
        assert_eq!(est.skipped_nonfinite(), 3);
        assert_eq!(est.estimate(), 0.5);
    }

    #[test]
    fn try_snapshot_rejects_bad_confidence() {
        let est = OnlineSelectivity::new(RangeQuery::new(0.0, 1.0));
        assert!(est.try_snapshot(f64::NAN).is_err());
        assert!(est.try_snapshot(1.0).is_err());
        assert!(est.try_snapshot(-0.1).is_err());
        assert!(est.try_snapshot(0.95).is_ok());
    }

    #[test]
    fn empty_prefix_reports_full_uncertainty() {
        let est = OnlineSelectivity::new(RangeQuery::new(0.0, 1.0));
        let s = est.snapshot(0.95);
        assert_eq!(s.seen, 0);
        assert_eq!(s.half_width, 1.0);
    }
}
