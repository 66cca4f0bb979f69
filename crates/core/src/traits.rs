//! The estimator traits shared by every method in the workspace.

use crate::domain::Domain;
use crate::query::RangeQuery;
use crate::scratch::BatchScratch;

/// An estimator of the distribution selectivity `sigma(a, b)` of range
/// queries (equation (2) of the paper).
///
/// Implementations return probabilities in `[0, 1]`; the estimated *instance*
/// selectivity (result count) is obtained via
/// [`SelectivityEstimator::estimate_count`].
pub trait SelectivityEstimator {
    /// Estimated probability that a record falls in `[q.a(), q.b()]`.
    fn selectivity(&self, q: &RangeQuery) -> f64;

    /// The one batch helper: write the estimates for `queries` into the
    /// caller-provided `out` slice (which must have exactly
    /// `queries.len()` elements), in input order, with zero heap
    /// allocations. A batch is an execution convenience, never a
    /// different estimator: it is a loop over
    /// [`SelectivityEstimator::selectivity`], so each slot holds exactly
    /// the per-query answer's bits. Fault isolation and deadlines belong
    /// to the serving engine's batch path, not to this helper.
    fn selectivity_batch_into(
        &self,
        queries: &[RangeQuery],
        scratch: &mut BatchScratch,
        out: &mut [f64],
    ) {
        assert_eq!(
            queries.len(),
            out.len(),
            "selectivity_batch_into needs one output slot per query"
        );
        let _ = scratch;
        for (slot, q) in out.iter_mut().zip(queries) {
            *slot = self.selectivity(q);
        }
    }

    /// The attribute domain this estimator was built over.
    fn domain(&self) -> Domain;

    /// Short human-readable method name used in experiment output
    /// (e.g. `"EWH"`, `"Kernel(BK,DPI2)"`).
    fn name(&self) -> String;

    /// Estimated result count for a relation instance with `n_records`
    /// tuples: `N * sigma(a, b)`.
    fn estimate_count(&self, q: &RangeQuery, n_records: usize) -> f64 {
        self.selectivity(q) * n_records as f64
    }
}

/// An estimator of the probability density function `f` underlying the
/// attribute. Not every selectivity estimator exposes a density (pure
/// sampling does not); every density estimator induces a selectivity
/// estimator by integration.
pub trait DensityEstimator {
    /// Estimated density at `x`.
    fn density(&self, x: f64) -> f64;

    /// The attribute domain this estimator was built over.
    fn domain(&self) -> Domain;

    /// Evaluate the density on an even grid of `n_points >= 2` spanning the
    /// domain; used for plotting and for the MISE quadrature.
    fn density_grid(&self, n_points: usize) -> Vec<(f64, f64)> {
        assert!(n_points >= 2, "density_grid needs at least two points");
        let d = self.domain();
        let step = d.width() / (n_points - 1) as f64;
        (0..n_points)
            .map(|i| {
                let x = d.lo() + i as f64 * step;
                (x, self.density(x))
            })
            .collect()
    }
}

/// The blanket impls forward the per-query entry points; the batch
/// helper then loops over the forwarded `selectivity`.
macro_rules! forward_selectivity_estimator {
    () => {
        fn selectivity(&self, q: &RangeQuery) -> f64 {
            (**self).selectivity(q)
        }
        fn domain(&self) -> Domain {
            (**self).domain()
        }
        fn name(&self) -> String {
            (**self).name()
        }
    };
}

impl<T: SelectivityEstimator + ?Sized> SelectivityEstimator for &T {
    forward_selectivity_estimator!();
}

impl<T: SelectivityEstimator + ?Sized> SelectivityEstimator for Box<T> {
    forward_selectivity_estimator!();
}

#[cfg(test)]
mod tests {
    use super::*;

    struct Half(Domain);
    impl SelectivityEstimator for Half {
        fn selectivity(&self, _q: &RangeQuery) -> f64 {
            0.5
        }
        fn domain(&self) -> Domain {
            self.0
        }
        fn name(&self) -> String {
            "Half".into()
        }
    }

    #[test]
    fn estimate_count_scales_by_relation_size() {
        let e = Half(Domain::unit());
        let q = RangeQuery::new(0.0, 0.5);
        assert_eq!(e.estimate_count(&q, 1_000), 500.0);
        assert_eq!(e.estimate_count(&q, 0), 0.0);
    }

    #[test]
    fn blanket_impls_delegate() {
        let e = Half(Domain::unit());
        let q = RangeQuery::new(0.1, 0.2);
        let as_ref: &dyn SelectivityEstimator = &e;
        assert_eq!(as_ref.selectivity(&q), 0.5);
        let boxed: Box<dyn SelectivityEstimator> = Box::new(Half(Domain::unit()));
        assert_eq!(boxed.selectivity(&q), 0.5);
        assert_eq!(boxed.name(), "Half");
        assert_eq!(boxed.estimate_count(&q, 10), 5.0);
    }

    #[test]
    fn batch_helper_matches_per_query_loop() {
        let e = Half(Domain::unit());
        let queries: Vec<RangeQuery> = (0..7)
            .map(|i| RangeQuery::new(0.1 * i as f64, 0.1 * i as f64 + 0.05))
            .collect();
        let mut scratch = BatchScratch::new();
        let mut out = vec![f64::NAN; queries.len()];
        e.selectivity_batch_into(&queries, &mut scratch, &mut out);
        for (q, s) in queries.iter().zip(&out) {
            assert_eq!(s.to_bits(), e.selectivity(q).to_bits());
        }
        // Blanket impls forward the batch helper too.
        let boxed: Box<dyn SelectivityEstimator> = Box::new(Half(Domain::unit()));
        let mut out2 = vec![0.0; queries.len()];
        boxed.selectivity_batch_into(&queries, &mut scratch, &mut out2);
        assert_eq!(out2, out);
        let as_ref: &dyn SelectivityEstimator = &e;
        as_ref.selectivity_batch_into(&queries, &mut scratch, &mut out2);
        assert_eq!(out2, out);
    }

    #[test]
    #[should_panic(expected = "one output slot per query")]
    fn into_requires_matching_output_length() {
        let e = Half(Domain::unit());
        let queries = [RangeQuery::new(0.1, 0.2)];
        let mut out = [0.0; 2];
        e.selectivity_batch_into(&queries, &mut BatchScratch::new(), &mut out);
    }

    struct Tri;
    impl DensityEstimator for Tri {
        fn density(&self, x: f64) -> f64 {
            (1.0 - x.abs()).max(0.0)
        }
        fn domain(&self) -> Domain {
            Domain::new(-1.0, 1.0)
        }
    }

    #[test]
    fn density_grid_spans_domain() {
        let g = Tri.density_grid(5);
        assert_eq!(g.len(), 5);
        assert_eq!(g[0].0, -1.0);
        assert_eq!(g[4].0, 1.0);
        assert_eq!(g[2], (0.0, 1.0));
    }
}
