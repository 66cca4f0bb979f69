//! Boundary treatments for kernel selectivity estimation (Section 3.2.1).
//!
//! Near the domain boundaries a kernel estimator loses mass to the outside
//! and is no longer consistent, producing the large errors of Figure 3. The
//! paper evaluates two remedies:
//!
//! * the **reflection technique** — samples within `h` of a boundary are
//!   mirrored at it, restoring the lost mass (a density, but biased), and
//! * **boundary kernels** after Simonoff & Dong — for estimation points `x`
//!   within `h` of the left boundary `l` the Epanechnikov kernel is replaced
//!   by the family
//!
//!   ```text
//!   K^(l)(u, q) = (3 + 3 q^2 - 6 u^2) / (1 + q)^3,   u in [-1, q],
//!   q = (x - l)/h,
//!   ```
//!
//!   (consistent, but not a density: it can dip negative and its integral
//!   over the domain exceeds one with high probability). The right boundary
//!   uses the mirror image `K^(r)(u, q) = K^(l)(-u, q)`.
//!
//! Selectivity estimation needs `Int_a^b f_hat(x) dx` where the kernel's
//! *shape parameter* `q` varies with the integration variable `x`. This
//! module eliminates that dependence analytically: in normalized
//! coordinates `v = (x - l)/h`, `c = (X_i - l)/h`, the per-sample
//! contribution is
//!
//! ```text
//! Int K^(l)(v - c, v) dv
//!   = Int [ -3/w + (6 + 12c)/w^2 - (12c + 6c^2)/w^3 ] dw   (w = 1 + v)
//!   = -3 ln w - (6 + 12c)/w + (6c + 3c^2)/w^2 + const,
//! ```
//!
//! so the query path never integrates numerically.

/// How a [`crate::KernelEstimator`] treats the domain boundaries.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BoundaryPolicy {
    /// No treatment: the plain estimator of equation (6) / Algorithm 1.
    NoTreatment,
    /// Reflection technique: mirror the boundary strips' samples.
    Reflection,
    /// Simonoff–Dong boundary kernel family (Epanechnikov interior only).
    BoundaryKernel,
}

impl BoundaryPolicy {
    /// Short label used in estimator names and experiment output.
    pub fn label(&self) -> &'static str {
        match self {
            BoundaryPolicy::NoTreatment => "none",
            BoundaryPolicy::Reflection => "reflect",
            BoundaryPolicy::BoundaryKernel => "bk",
        }
    }
}

/// The left-boundary kernel `K^(l)(u, q)` for `u in [-1, q]`, `q in [0, 1]`.
pub fn left_boundary_kernel(u: f64, q: f64) -> f64 {
    debug_assert!(
        (0.0..=1.0).contains(&q),
        "boundary kernel shape q={q} out of [0,1]"
    );
    if u < -1.0 || u > q {
        return 0.0;
    }
    let d = 1.0 + q;
    (3.0 + 3.0 * q * q - 6.0 * u * u) / (d * d * d)
}

/// The right-boundary kernel `K^(r)(u, q) = K^(l)(-u, q)` for
/// `u in [-q, 1]`.
pub fn right_boundary_kernel(u: f64, q: f64) -> f64 {
    left_boundary_kernel(-u, q)
}

/// Closed-form `Int_{v0}^{v1} K^(l)(v - c, v) dv` in normalized left-edge
/// coordinates: `v = (x - l)/h` is the estimation point, `c = (X_i - l)/h
/// >= 0` the sample position. The caller guarantees `0 <= v0 <= v1 <= 1`.
///
/// This is the exact contribution of one sample to the selectivity mass
/// accumulated while the estimation point sweeps the left boundary strip.
pub fn left_boundary_integral(v0: f64, v1: f64, c: f64) -> f64 {
    debug_assert!((-1e-12..=1.0 + 1e-12).contains(&v0) && v0 <= v1 + 1e-12 && v1 <= 1.0 + 1e-12);
    debug_assert!(c >= -1e-12, "sample left of the boundary: c={c}");
    // Kernel support requires v - c >= -1, i.e. v >= c - 1.
    let lo = v0.max(c - 1.0).max(0.0);
    let hi = v1.min(1.0);
    if hi <= lo {
        return 0.0;
    }
    let primitive = |v: f64| {
        let w = 1.0 + v;
        -3.0 * w.ln() - (6.0 + 12.0 * c) / w + (6.0 * c + 3.0 * c * c) / (w * w)
    };
    primitive(hi) - primitive(lo)
}

#[cfg(test)]
mod tests {
    use super::*;
    use selest_math::simpson;

    /// Simonoff–Dong boundary kernels are second order at every edge
    /// distance: unit mass and a vanishing first moment for each `q` on a
    /// grid over `[0, 1]`, for `K^(l)` on `[-1, q]` and its mirror `K^(r)`
    /// on `[-q, 1]`. The integrands are polynomials of degree <= 3, which
    /// Simpson's rule integrates exactly up to rounding.
    #[test]
    fn boundary_kernels_have_unit_mass_and_zero_first_moment() {
        for i in 0..=40 {
            let q = i as f64 / 40.0;
            let left = |k: i32| simpson(|u| u.powi(k) * left_boundary_kernel(u, q), -1.0, q, 64);
            let right = |k: i32| simpson(|u| u.powi(k) * right_boundary_kernel(u, q), -q, 1.0, 64);
            assert!(
                (left(0) - 1.0).abs() < 1e-12,
                "K^(l) mass at q={q}: {}",
                left(0)
            );
            assert!(
                left(1).abs() < 1e-12,
                "K^(l) first moment at q={q}: {}",
                left(1)
            );
            assert!(
                (right(0) - 1.0).abs() < 1e-12,
                "K^(r) mass at q={q}: {}",
                right(0)
            );
            assert!(
                right(1).abs() < 1e-12,
                "K^(r) first moment at q={q}: {}",
                right(1)
            );
        }
    }

    #[test]
    fn left_kernel_can_be_negative() {
        // Second-order boundary kernels dip below zero near the support
        // edge — the reason the estimator is "not a density".
        assert!(left_boundary_kernel(-0.95, 0.0) < 0.0);
    }

    #[test]
    fn right_kernel_mirrors_left() {
        for &q in &[0.1, 0.5, 0.9] {
            for i in 0..=20 {
                let u = -1.0 + 2.0 * i as f64 / 20.0;
                assert_eq!(right_boundary_kernel(u, q), left_boundary_kernel(-u, q));
            }
        }
    }

    #[test]
    fn boundary_integral_matches_quadrature() {
        // The analytic primitive against brute-force 2-level quadrature.
        for &(v0, v1, c) in &[
            (0.0, 1.0, 0.0),
            (0.0, 1.0, 0.5),
            (0.0, 1.0, 1.5),
            (0.2, 0.7, 0.3),
            (0.0, 0.3, 1.2),
            (0.5, 1.0, 1.9),
            (0.0, 0.05, 0.0),
        ] {
            let exact = left_boundary_integral(v0, v1, c);
            // The integrand jumps at the support edge v = c - 1 (the kernel
            // is nonzero at u = -1); quadrature only the supported part,
            // where the integrand is smooth.
            let lo = (c - 1.0).clamp(v0, v1);
            let num = simpson(
                |v| left_boundary_kernel(v - c, v.clamp(0.0, 1.0)),
                lo,
                v1,
                20_000,
            );
            assert!(
                (exact - num).abs() < 1e-9,
                "(v0={v0}, v1={v1}, c={c}): exact {exact} vs quadrature {num}"
            );
        }
    }

    #[test]
    fn boundary_integral_is_zero_outside_reach() {
        // A sample more than h past the strip (c > 2) can never be reached.
        assert_eq!(left_boundary_integral(0.0, 1.0, 2.5), 0.0);
        // Empty integration range.
        assert_eq!(left_boundary_integral(0.4, 0.4, 0.1), 0.0);
    }

    #[test]
    fn boundary_integral_is_additive() {
        let c = 0.7;
        let whole = left_boundary_integral(0.0, 1.0, c);
        let split = left_boundary_integral(0.0, 0.33, c) + left_boundary_integral(0.33, 1.0, c);
        assert!((whole - split).abs() < 1e-12);
    }

    #[test]
    fn policy_labels() {
        assert_eq!(BoundaryPolicy::NoTreatment.label(), "none");
        assert_eq!(BoundaryPolicy::Reflection.label(), "reflect");
        assert_eq!(BoundaryPolicy::BoundaryKernel.label(), "bk");
    }
}
