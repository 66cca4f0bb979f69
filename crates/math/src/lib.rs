//! Numerical substrate for the `selest` workspace.
//!
//! Everything in this crate is implemented from scratch on top of `std`:
//! special functions ([`special`]), numerical quadrature ([`quadrature`]),
//! one-dimensional optimization and root finding ([`optimize`]), and
//! descriptive statistics ([`stats`]).
//!
//! The selectivity estimators in the rest of the workspace only ever need
//! one-dimensional real analysis, so this crate deliberately stays small —
//! its only workspace dependency is `selest-par`, which the hot pairwise
//! functional sums ([`functionals`]) use for deterministic parallelism —
//! rather than pulling in a general numerics library.

pub mod functionals;
pub mod optimize;
pub mod quadrature;
pub mod special;
pub mod stats;

pub use functionals::{
    default_psi_bins, estimate_psi, estimate_psi_binned, estimate_psi_naive, estimate_psi_windowed,
    estimate_psi_windowed_jobs, normal_density_derivative, normal_density_derivative_const,
    pilot_bandwidth, psi_normal_scale, psi_plug_in, psi_plug_in_sorted, psi_plug_in_with,
    psi_window_radius, PsiStrategy, PSI_MAX_BINS,
};

pub use optimize::{bisect, brent_min, golden_section_min};
pub use quadrature::{adaptive_simpson, simpson, trapezoid};
pub use special::{erf, erfc, ln_gamma, normal_cdf, normal_pdf, normal_quantile, SQRT_2PI};
pub use stats::{
    interquartile_range, kahan_sum, kahan_sum_jobs, mean, mean_jobs, median, quantile,
    robust_scale, robust_scale_sorted, robust_scale_sorted_jobs, stddev, stddev_jobs, variance,
    variance_jobs,
};
