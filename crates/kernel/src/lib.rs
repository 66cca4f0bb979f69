//! Kernel selectivity estimation (Sections 3.2, 3.2.1, 4.2, 4.3 of
//! Blohsfeld, Korus & Seeger, SIGMOD 1999).
//!
//! A kernel estimator generalizes sampling: each sample point spreads its
//! `1/n` mass over a neighborhood of radius `h` (the *bandwidth*) shaped by
//! a *kernel function* `K`. The crate provides:
//!
//! * [`KernelFn`] — the Epanechnikov kernel of the paper plus six others,
//!   each with an exact CDF so range-query estimation never integrates
//!   numerically;
//! * [`KernelEstimator`] — Algorithm 1 over the sorted sample, `O(log n)`
//!   per query for the Epanechnikov kernel through prefix-moment tables
//!   (`O(log n + k)` strip scans for the others), under three
//!   [`BoundaryPolicy`] options (untreated, reflection, Simonoff–Dong
//!   boundary kernels in closed form);
//! * [`bandwidth`] — the smoothing-parameter rules of Section 4: normal
//!   scale, direct plug-in, and least-squares cross-validation;
//! * [`KernelEstimator2d`] — the product-kernel extension to 2-D rectangle
//!   queries (the paper's future work);
//! * [`kde::bump_decomposition`] — the Figure 1 visualization data.

pub mod adaptive;
pub mod bandwidth;
pub mod boundary;
pub mod estimator;
pub mod kde;
pub mod kernels;
mod moments;
pub mod multidim;
mod strips;

pub use adaptive::{AdaptiveBoundary, AdaptiveKernelEstimator};
pub use bandwidth::{
    amise, amise_optimal_bandwidth, lscv_score, lscv_score_jobs, normal_scale_constant,
    BandwidthSelector, DirectPlugIn, FixedBandwidth, Lscv, NormalScale,
};
pub use boundary::BoundaryPolicy;
pub use estimator::KernelEstimator;
pub use kernels::KernelFn;
pub use multidim::{lscv_score_2d, lscv_score_2d_jobs, Boundary2d, KernelEstimator2d, RectQuery};
