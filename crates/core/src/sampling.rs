//! Pure sampling: the `O(n^{-1/2})` baseline estimator (Section 2).
//!
//! The estimated selectivity of `Q(a, b)` is simply the fraction of sample
//! points falling in `[a, b]`. It is consistent but converges only at rate
//! `O(n^{-1/2})` — every other method in the workspace exists to beat it.

use crate::domain::Domain;
use crate::ecdf::Ecdf;
use crate::query::RangeQuery;
use crate::traits::SelectivityEstimator;

/// The pure sampling selectivity estimator.
/// # Examples
///
/// ```
/// use selest_core::{Domain, RangeQuery, SamplingEstimator, SelectivityEstimator};
///
/// let sample = vec![10.0, 25.0, 40.0, 55.0, 70.0];
/// let est = SamplingEstimator::new(&sample, Domain::new(0.0, 100.0));
/// // Three of five samples fall in [20, 60].
/// assert_eq!(est.selectivity(&RangeQuery::new(20.0, 60.0)), 0.6);
/// ```
#[derive(Debug, Clone)]
pub struct SamplingEstimator {
    ecdf: Ecdf,
    domain: Domain,
}

impl SamplingEstimator {
    /// Build from a sample set (unsorted). Panics on an empty sample;
    /// serving paths build from a sanitized, prepared column instead.
    pub fn new(samples: &[f64], domain: Domain) -> Self {
        SamplingEstimator {
            ecdf: Ecdf::new(samples),
            domain,
        }
    }

    /// Build from a prepared column, borrowing its shared sorted sample
    /// (a ref-count bump — no copy, no re-sort). Bit-identical to
    /// [`SamplingEstimator::new`] over the same sample.
    pub fn from_prepared(col: &crate::prepared::PreparedColumn) -> Self {
        SamplingEstimator {
            ecdf: col.ecdf().clone(),
            domain: col.domain(),
        }
    }

    /// Number of samples `n`.
    pub fn sample_size(&self) -> usize {
        self.ecdf.len()
    }
}

impl SelectivityEstimator for SamplingEstimator {
    fn selectivity(&self, q: &RangeQuery) -> f64 {
        self.ecdf.count_in(q.a(), q.b()) as f64 / self.ecdf.len() as f64
    }

    fn domain(&self) -> Domain {
        self.domain
    }

    fn name(&self) -> String {
        "Sampling".into()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fraction_of_matching_samples() {
        let s = SamplingEstimator::new(&[1.0, 2.0, 3.0, 4.0, 5.0], Domain::new(0.0, 10.0));
        assert_eq!(s.sample_size(), 5);
        let q = RangeQuery::new(2.0, 4.0);
        assert!((s.selectivity(&q) - 0.6).abs() < 1e-15);
        let whole = RangeQuery::new(0.0, 10.0);
        assert_eq!(s.selectivity(&whole), 1.0);
        let empty = RangeQuery::new(6.0, 10.0);
        assert_eq!(s.selectivity(&empty), 0.0);
    }

    #[test]
    fn converges_on_uniform_data() {
        // Deterministic low-discrepancy "sample" of U[0,1]: the estimator
        // should approach the true selectivity b - a.
        let n = 10_000;
        let samples: Vec<f64> = (0..n).map(|i| (i as f64 + 0.5) / n as f64).collect();
        let s = SamplingEstimator::new(&samples, Domain::unit());
        let q = RangeQuery::new(0.2, 0.7);
        assert!((s.selectivity(&q) - 0.5).abs() < 1e-3);
    }
}
