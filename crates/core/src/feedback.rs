//! Query-feedback refinement (extension; the paper's future-work item \[1\],
//! after Chen & Roussopoulos, SIGMOD 1994).
//!
//! [`FeedbackEstimator`] wraps any base [`SelectivityEstimator`] with `m`
//! equal feedback buckets over its domain. Whenever the true result of a
//! query becomes known, every overlapped bucket's correction factor moves
//! toward the observed ratio `true / estimated` by an exponentially
//! weighted average. Estimates decompose a query across buckets, apply
//! each bucket's correction to the base estimate of the overlapped piece,
//! and sum. This keeps the base estimator's shape where no feedback exists
//! and bends it toward reality where the workload has revealed systematic
//! bias.

use crate::domain::Domain;
use crate::fault::EstimateError;
use crate::query::RangeQuery;
use crate::traits::SelectivityEstimator;

/// Smallest base selectivity treated as informative when computing a
/// feedback ratio; below this the observation is ignored to avoid unbounded
/// corrections.
const MIN_BASE_SELECTIVITY: f64 = 1e-9;

/// A selectivity estimator that refines a base estimator with query
/// feedback.
///
/// # Examples
///
/// ```
/// use selest_core::{Domain, FeedbackEstimator, RangeQuery, SelectivityEstimator,
///                   UniformEstimator};
///
/// // A uniform base over [0, 100] while the real data lives in [0, 50].
/// let base = UniformEstimator::new(Domain::new(0.0, 100.0));
/// let mut est = FeedbackEstimator::new(base, 10, 0.8);
/// let q = RangeQuery::new(10.0, 20.0);
/// for _ in 0..20 {
///     est.observe(&q, 0.2); // executed queries report the truth
/// }
/// assert!((est.selectivity(&q) - 0.2).abs() < 0.02);
/// ```
pub struct FeedbackEstimator<E> {
    base: E,
    /// The base estimator's domain, which the buckets divide.
    domain: Domain,
    /// Multiplicative correction of each equal-width bucket.
    corrections: Vec<f64>,
    /// Weight of the newest observation, in `(0, 1]`.
    alpha: f64,
    observations: usize,
}

impl<E: SelectivityEstimator> FeedbackEstimator<E> {
    /// Wrap `base` with `buckets` feedback buckets and learning rate
    /// `alpha` in `(0, 1]` (weight of the newest observation).
    pub fn new(base: E, buckets: usize, alpha: f64) -> Self {
        assert!(buckets >= 1, "FeedbackEstimator needs at least one bucket");
        assert!(
            alpha > 0.0 && alpha <= 1.0,
            "FeedbackEstimator: alpha must be in (0, 1], got {alpha}"
        );
        FeedbackEstimator {
            domain: base.domain(),
            base,
            corrections: vec![1.0; buckets],
            alpha,
            observations: 0,
        }
    }

    /// Number of feedback observations applied so far.
    pub fn observations(&self) -> usize {
        self.observations
    }

    /// Current correction factor of each bucket.
    pub fn corrections(&self) -> &[f64] {
        &self.corrections
    }

    fn bucket_bounds(&self, i: usize) -> (f64, f64) {
        let w = self.domain.width() / self.corrections.len() as f64;
        let lo = self.domain.lo() + i as f64 * w;
        // Close the last bucket exactly at the domain boundary.
        let hi = if i + 1 == self.corrections.len() {
            self.domain.hi()
        } else {
            lo + w
        };
        (lo, hi)
    }

    /// Feed back the true selectivity of an executed query. Updates every
    /// bucket the query overlaps. Panics on an out-of-range truth; the
    /// panic-free variant is [`FeedbackEstimator::try_observe`].
    pub fn observe(&mut self, q: &RangeQuery, true_selectivity: f64) {
        assert!(
            true_selectivity.is_finite() && (0.0..=1.0).contains(&true_selectivity),
            "true selectivity out of [0,1]: {true_selectivity}"
        );
        // The truth is valid, so only a non-finite base estimate can be
        // refused; that observation is skipped.
        let _ = self.try_observe(q, true_selectivity);
    }

    /// Fallible feedback: rejects a non-finite or out-of-range truth, or a
    /// non-finite base estimate, with a typed error instead of panicking.
    /// Ignores observations whose base estimate is too small to form a
    /// meaningful ratio.
    pub fn try_observe(
        &mut self,
        q: &RangeQuery,
        true_selectivity: f64,
    ) -> Result<(), EstimateError> {
        if !true_selectivity.is_finite() || !(0.0..=1.0).contains(&true_selectivity) {
            return Err(EstimateError::NonFiniteEstimate {
                value: true_selectivity,
            });
        }
        let base_estimate = self.base.selectivity(q);
        if !base_estimate.is_finite() {
            return Err(EstimateError::NonFiniteEstimate {
                value: base_estimate,
            });
        }
        if base_estimate < MIN_BASE_SELECTIVITY {
            return Ok(());
        }
        let ratio = true_selectivity / base_estimate;
        for i in 0..self.corrections.len() {
            let (lo, hi) = self.bucket_bounds(i);
            let overlap = (q.b().min(hi) - q.a().max(lo)).max(0.0);
            if overlap > 0.0 {
                // Weight the update by how much of the query lies in this
                // bucket, so wide queries spread their evidence thinly.
                let weight = self.alpha * (overlap / q.width().max(f64::MIN_POSITIVE)).min(1.0);
                self.corrections[i] = (1.0 - weight) * self.corrections[i] + weight * ratio;
            }
        }
        self.observations += 1;
        Ok(())
    }
}

impl<E: SelectivityEstimator> SelectivityEstimator for FeedbackEstimator<E> {
    /// Decompose `q` across the buckets, scale the base estimate of each
    /// piece by its bucket's correction, sum, and clamp to `[0, 1]`.
    fn selectivity(&self, q: &RangeQuery) -> f64 {
        let mut total = 0.0;
        for i in 0..self.corrections.len() {
            let (lo, hi) = self.bucket_bounds(i);
            let a = q.a().max(lo);
            let b = q.b().min(hi);
            if b > a {
                let piece = RangeQuery::new(a, b);
                total += self.corrections[i] * self.base.selectivity(&piece);
            }
        }
        if total.is_finite() {
            total.clamp(0.0, 1.0)
        } else {
            0.0
        }
    }

    fn domain(&self) -> Domain {
        self.base.domain()
    }

    fn name(&self) -> String {
        format!("Feedback({})", self.base.name())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::uniform::UniformEstimator;

    fn skewed_truth(q: &RangeQuery) -> f64 {
        // True distribution: all mass uniform on [0, 50] of a [0, 100]
        // domain — the uniform base estimator is off by 2x inside and
        // infinitely off outside.
        let overlap = (q.b().min(50.0) - q.a().max(0.0)).max(0.0);
        overlap / 50.0
    }

    #[test]
    fn no_feedback_means_base_estimate() {
        let base = UniformEstimator::new(Domain::new(0.0, 100.0));
        let fb = FeedbackEstimator::new(base, 10, 0.5);
        let q = RangeQuery::new(10.0, 30.0);
        assert!((fb.selectivity(&q) - base.selectivity(&q)).abs() < 1e-12);
        assert_eq!(fb.observations(), 0);
    }

    #[test]
    fn feedback_reduces_systematic_bias() {
        let base = UniformEstimator::new(Domain::new(0.0, 100.0));
        let mut fb = FeedbackEstimator::new(base, 10, 0.9);
        let q = RangeQuery::new(10.0, 20.0);
        let before = (fb.selectivity(&q) - skewed_truth(&q)).abs();
        for _ in 0..30 {
            let truth = skewed_truth(&q);
            fb.observe(&q, truth);
        }
        let after = (fb.selectivity(&q) - skewed_truth(&q)).abs();
        assert!(
            after < before / 5.0,
            "feedback should shrink the error: before={before}, after={after}"
        );
        assert_eq!(fb.observations(), 30);
        assert!(
            fb.corrections().iter().any(|c| (c - 1.0).abs() > 0.1),
            "bias correction must move a bucket's correction"
        );
    }

    #[test]
    fn feedback_is_local_to_observed_buckets() {
        let base = UniformEstimator::new(Domain::new(0.0, 100.0));
        let mut fb = FeedbackEstimator::new(base, 10, 0.9);
        let observed = RangeQuery::new(0.0, 10.0); // bucket 0 only
        for _ in 0..20 {
            fb.observe(&observed, skewed_truth(&observed));
        }
        // A query over untouched buckets still returns the base estimate.
        let untouched = RangeQuery::new(70.0, 90.0);
        assert!((fb.selectivity(&untouched) - base.selectivity(&untouched)).abs() < 1e-12);
    }

    #[test]
    fn estimates_stay_in_unit_interval() {
        let base = UniformEstimator::new(Domain::new(0.0, 100.0));
        let mut fb = FeedbackEstimator::new(base, 4, 1.0);
        // Pathological feedback pushing corrections high.
        for _ in 0..10 {
            fb.observe(&RangeQuery::new(0.0, 25.0), 1.0);
        }
        let s = fb.selectivity(&RangeQuery::new(0.0, 100.0));
        assert!((0.0..=1.0).contains(&s), "selectivity {s} escaped [0,1]");
    }

    #[test]
    fn tiny_base_estimates_are_ignored() {
        let base = UniformEstimator::new(Domain::new(0.0, 100.0));
        let mut fb = FeedbackEstimator::new(base, 10, 0.9);
        // Zero-width query: base selectivity 0, must not poison corrections.
        fb.observe(&RangeQuery::new(5.0, 5.0), 0.1);
        assert!(fb.corrections().iter().all(|&c| (c - 1.0).abs() < 1e-12));
    }

    #[test]
    fn try_observe_rejects_garbage_without_panicking() {
        let base = UniformEstimator::new(Domain::new(0.0, 100.0));
        let mut fb = FeedbackEstimator::new(base, 10, 0.9);
        let q = RangeQuery::new(10.0, 20.0);
        assert!(fb.try_observe(&q, f64::NAN).is_err());
        assert!(fb.try_observe(&q, -0.1).is_err());
        assert!(fb.try_observe(&q, 1.5).is_err());
        assert!(fb.try_observe(&q, f64::INFINITY).is_err());
        assert_eq!(fb.observations(), 0, "rejected observations must not count");
        assert!(fb.try_observe(&q, 0.5).is_ok());
        assert_eq!(fb.observations(), 1);
    }

    /// A base estimator whose every answer is NaN.
    struct NanBase;

    impl SelectivityEstimator for NanBase {
        fn selectivity(&self, _q: &RangeQuery) -> f64 {
            f64::NAN
        }
        fn domain(&self) -> Domain {
            Domain::new(0.0, 100.0)
        }
        fn name(&self) -> String {
            "NaN".into()
        }
    }

    #[test]
    fn nonfinite_base_pieces_are_neutralized() {
        let mut fb = FeedbackEstimator::new(NanBase, 4, 0.5);
        let q = RangeQuery::new(0.0, 100.0);
        assert_eq!(fb.selectivity(&q), 0.0, "NaN base pieces must not escape");
        assert!(fb.try_observe(&q, 0.5).is_err(), "a NaN base is refused");
        fb.observe(&q, 0.5);
        assert_eq!(fb.observations(), 0, "a NaN base teaches nothing");
    }

    #[test]
    fn a_full_weight_observation_sets_its_bucket_to_the_ratio() {
        let base = UniformEstimator::new(Domain::new(0.0, 100.0));
        let mut fb = FeedbackEstimator::new(base, 2, 1.0);
        // Truth 2x the base estimate of 0.5 over bucket 0 only.
        fb.try_observe(&RangeQuery::new(0.0, 50.0), 1.0).unwrap();
        assert_eq!(fb.corrections(), &[2.0, 1.0]);
    }
}
