//! The estimator traits shared by every method in the workspace.

use crate::domain::Domain;
use crate::fault::{catch_fault, EstimateError, FaultStage};
use crate::query::RangeQuery;
use crate::scratch::BatchScratch;

/// How many valid slots a fallible batch evaluates between deadline
/// polls: the trait's fallible default polls before its first valid slot
/// and then every this many, and the serving engine polls the same way
/// over a batch's cache misses. Small enough that an expired budget is
/// noticed within a few microseconds of work, large enough that the
/// atomic load never shows up in profiles.
pub const DEADLINE_STRIDE: usize = 16;

/// One valid query through the fault-isolated path: a panic comes back as
/// [`EstimateError::Panicked`], a NaN/±Inf answer as
/// [`EstimateError::NonFiniteEstimate`], and any other answer is exactly
/// [`SelectivityEstimator::selectivity`]'s. The one per-slot rule of every
/// fallible batch: [`SelectivityEstimator::try_selectivity_batch_into`]
/// and the serving engine both answer each slot through it.
pub fn isolated_selectivity<E: SelectivityEstimator + ?Sized>(
    est: &E,
    q: &RangeQuery,
) -> Result<f64, EstimateError> {
    let v = catch_fault(
        FaultStage::Estimate,
        std::panic::AssertUnwindSafe(|| est.selectivity(q)),
    )?;
    if v.is_finite() {
        Ok(v)
    } else {
        Err(EstimateError::NonFiniteEstimate { value: v })
    }
}

/// An estimator of the distribution selectivity `sigma(a, b)` of range
/// queries (equation (2) of the paper).
///
/// Implementations return probabilities in `[0, 1]`; the estimated *instance*
/// selectivity (result count) is obtained via
/// [`SelectivityEstimator::estimate_count`].
pub trait SelectivityEstimator {
    /// Estimated probability that a record falls in `[q.a(), q.b()]`.
    fn selectivity(&self, q: &RangeQuery) -> f64;

    /// Estimated selectivities for a whole batch of queries, in input
    /// order: a loop over [`SelectivityEstimator::selectivity`]. Batches
    /// are an execution convenience, never a different estimator — every
    /// batch entry point answers each query through `selectivity`, so a
    /// batch is bit-identical to the per-query path by construction.
    fn selectivity_batch(&self, queries: &[RangeQuery]) -> Vec<f64> {
        queries.iter().map(|q| self.selectivity(q)).collect()
    }

    /// Fault-isolated batch estimation: one `Result` per query, in input
    /// order. Where [`SelectivityEstimator::selectivity_batch`] lets one
    /// poisoned query (or one panicking evaluation) take down the whole
    /// batch, this degrades per query: degenerate bounds come back as
    /// [`EstimateError::InvalidQuery`], a panicking evaluation as
    /// [`EstimateError::Panicked`], a NaN/±Inf answer as
    /// [`EstimateError::NonFiniteEstimate`] — and every other slot holds
    /// exactly the value the infallible path would have produced.
    fn try_selectivity_batch(&self, queries: &[RangeQuery]) -> Vec<Result<f64, EstimateError>> {
        let mut out = Vec::with_capacity(queries.len());
        self.try_selectivity_batch_into(queries, &mut BatchScratch::new(), &mut out);
        out
    }

    /// Allocation-free batch estimation: write the estimates for `queries`
    /// into the caller-provided `out` slice (which must have exactly
    /// `queries.len()` elements). Same values, same bits as
    /// [`SelectivityEstimator::selectivity_batch`], with zero heap
    /// allocations. The infallible contract has no partial-result
    /// channel, so it ignores a deadline armed in `scratch`.
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

    /// Fault-isolated counterpart of
    /// [`SelectivityEstimator::selectivity_batch_into`]: `out` is cleared
    /// and refilled with one `Result` per query, in input order, reusing
    /// `out`'s existing capacity (error values may still allocate — errors
    /// are the cold path). Same per-slot semantics as
    /// [`SelectivityEstimator::try_selectivity_batch`].
    ///
    /// A [`selest_par::Deadline`] armed in `scratch` cancels the batch
    /// cooperatively: it is polled before the first valid slot and then
    /// every [`DEADLINE_STRIDE`] valid slots. Once it has expired, every
    /// remaining valid slot reports [`EstimateError::DeadlineExceeded`];
    /// slots already evaluated keep their bits, and invalid queries keep
    /// [`EstimateError::InvalidQuery`].
    fn try_selectivity_batch_into(
        &self,
        queries: &[RangeQuery],
        scratch: &mut BatchScratch,
        out: &mut Vec<Result<f64, EstimateError>>,
    ) {
        let deadline = scratch.deadline();
        let mut valid = 0usize;
        let mut expired = None;
        out.clear();
        out.extend(queries.iter().map(|q| {
            q.validate()?;
            if expired.is_none() && valid.is_multiple_of(DEADLINE_STRIDE) {
                expired = deadline.filter(|d| d.expired());
            }
            valid += 1;
            match expired {
                Some(d) => Err(EstimateError::deadline_exceeded(d)),
                None => isolated_selectivity(self, q),
            }
        }));
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
/// defaults then loop over the forwarded `selectivity`.
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
    fn default_batch_matches_per_query_loop() {
        let e = Half(Domain::unit());
        let queries: Vec<RangeQuery> = (0..5)
            .map(|i| RangeQuery::new(0.1 * i as f64, 0.1 * i as f64 + 0.05))
            .collect();
        let batch = e.selectivity_batch(&queries);
        assert_eq!(batch.len(), queries.len());
        for (q, s) in queries.iter().zip(&batch) {
            assert_eq!(s.to_bits(), e.selectivity(q).to_bits());
        }
        // Blanket impls forward the batch path too.
        let boxed: Box<dyn SelectivityEstimator> = Box::new(Half(Domain::unit()));
        assert_eq!(boxed.selectivity_batch(&queries), batch);
        let as_ref: &dyn SelectivityEstimator = &e;
        assert_eq!(as_ref.selectivity_batch(&queries), batch);
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
    fn into_variants_match_vec_variants() {
        let e = Half(Domain::unit());
        let queries: Vec<RangeQuery> = (0..7)
            .map(|i| RangeQuery::new(0.1 * i as f64, 0.1 * i as f64 + 0.05))
            .collect();
        let mut scratch = BatchScratch::new();
        let mut out = vec![f64::NAN; queries.len()];
        e.selectivity_batch_into(&queries, &mut scratch, &mut out);
        assert_eq!(out, e.selectivity_batch(&queries));
        let mut tried = Vec::new();
        e.try_selectivity_batch_into(&queries, &mut scratch, &mut tried);
        let direct = e.try_selectivity_batch(&queries);
        assert_eq!(tried.len(), direct.len());
        for (a, b) in tried.iter().zip(&direct) {
            assert_eq!(a.as_ref().unwrap(), b.as_ref().unwrap());
        }
        // Blanket impls forward the _into paths too.
        let boxed: Box<dyn SelectivityEstimator> = Box::new(Half(Domain::unit()));
        let mut out2 = vec![0.0; queries.len()];
        boxed.selectivity_batch_into(&queries, &mut scratch, &mut out2);
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
