//! The per-call handle of the allocation-free batch helper.
//!
//! [`BatchScratch`] is what the caller threads through
//! [`crate::traits::SelectivityEstimator::selectivity_batch_into`]. Every
//! estimator answers a batch one query at a time through
//! [`crate::traits::SelectivityEstimator::selectivity`], so the handle
//! holds nothing: no working buffers and no deadline (the serving
//! engine's batch path is the one that polls a request deadline).

/// Caller-owned handle for
/// [`crate::traits::SelectivityEstimator::selectivity_batch_into`].
///
/// An empty unit handle, like the serving engine's `ServingScratch`. It
/// stays in the helper's signature only because the benchmark harness
/// (`selbench`) passes one; `Default`/`new` never allocate.
#[derive(Debug, Default)]
pub struct BatchScratch;

impl BatchScratch {
    /// A scratch handle; never allocates.
    pub const fn new() -> Self {
        BatchScratch
    }
}
