//! # selest — Selectivity Estimators for Range Queries on Metric Attributes
//!
//! A from-scratch Rust reproduction of Blohsfeld, Korus & Seeger,
//! *A Comparison of Selectivity Estimators for Range Queries on Metric
//! Attributes* (SIGMOD 1999), packaged as a workspace of focused crates and
//! re-exported here for convenience.
//!
//! ## Quick start
//!
//! ```
//! use selest::{
//!     BoundaryPolicy, Domain, KernelEstimator, KernelFn, RangeQuery, SelectivityEstimator,
//! };
//! use selest::kernel::{BandwidthSelector, NormalScale};
//!
//! // A sample of the attribute (here: deterministic pseudo-uniform data).
//! let sample: Vec<f64> = (0..2000).map(|i| (i as f64 * 37.0) % 1000.0).collect();
//! let domain = Domain::new(0.0, 1000.0);
//!
//! // Bandwidth by the paper's normal scale rule, boundary kernels at the
//! // domain edges.
//! let h = NormalScale.bandwidth(&sample, KernelFn::Epanechnikov);
//! let est = KernelEstimator::new(
//!     &sample, domain, KernelFn::Epanechnikov, h, BoundaryPolicy::BoundaryKernel,
//! );
//!
//! // Estimate the selectivity of the range predicate 100 <= A <= 250.
//! let q = RangeQuery::new(100.0, 250.0);
//! let sel = est.selectivity(&q);
//! assert!((sel - 0.15).abs() < 0.02);
//! ```
//!
//! ## Crate map
//!
//! | Re-export | Crate | Contents |
//! |-----------|-------|----------|
//! | [`math`] | `selest-math` | special functions, quadrature, optimization, ψ-functionals |
//! | [`core`] | `selest-core` | [`Domain`], [`RangeQuery`], estimator traits, error metrics, sampling/uniform baselines, query feedback |
//! | [`data`] | `selest-data` | Table 2 data files, TIGER/census simulacra, sampling, query workloads |
//! | [`histogram`] | `selest-histogram` | equi-width/equi-depth/max-diff/v-optimal/ASH + bin rules |
//! | [`kernel`] | `selest-kernel` | kernels with exact primitives, boundary treatments, bandwidth rules, 2-D product kernels |
//! | [`hybrid`] | `selest-hybrid` | change-point detection + the hybrid estimator |
//! | [`par`] | `selest-par` | deterministic scoped-thread execution runtime (batch fan-out, `SELEST_JOBS`) |
//! | [`store`] | `selest-store` | column store, ANALYZE catalog, cost-based planner, online aggregation |
//! | [`experiments`] | `selest-experiments` | one runner per paper figure/table (`selest repro`) |

pub use selest_core as core;
pub use selest_data as data;
pub use selest_experiments as experiments;
pub use selest_histogram as histogram;
pub use selest_hybrid as hybrid;
pub use selest_kernel as kernel;
pub use selest_math as math;
pub use selest_par as par;
pub use selest_store as store;

pub use selest_core::{
    BatchScratch, ColumnSummary, DensityEstimator, Domain, Ecdf, ErrorStats, EstimateError,
    ExactSelectivity, FeedbackEstimator, PreparedColumn, RangeQuery, SamplingEstimator,
    SelectivityEstimator, UniformEstimator,
};
pub use selest_data::{paper_data_files, DataFile, PaperFile, QueryFile};
pub use selest_histogram::{
    equi_depth, equi_width, max_diff, v_optimal, AverageShiftedHistogram, BinnedHistogram,
    WaveletHistogram,
};
pub use selest_hybrid::HybridEstimator;
pub use selest_kernel::{
    AdaptiveBoundary, AdaptiveKernelEstimator, BoundaryPolicy, KernelEstimator, KernelEstimator2d,
    KernelFn, RectQuery,
};
pub use selest_store::{
    AnalyzeConfig, CatalogSnapshot, EstimatorKind, Relation, ServingEngine, ServingOptions,
    ServingScratch, StatisticsCatalog,
};

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn facade_reexports_compose() {
        let sample: Vec<f64> = (0..500).map(|i| i as f64).collect();
        let domain = Domain::new(0.0, 499.0);
        let hist = equi_width(&sample, domain, 10);
        let q = RangeQuery::new(100.0, 199.0);
        assert!((hist.selectivity(&q) - 0.2).abs() < 0.01);
    }
}
