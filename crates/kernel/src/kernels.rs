//! Kernel functions with exact antiderivatives.
//!
//! The paper uses the Epanechnikov kernel because "the selection of the
//! kernel function K is not as important as the selection of the smoothing
//! parameter h" (\[13\]) and its primitive is cheap. We additionally provide
//! the other standard compactly supported kernels and the Gaussian, both to
//! validate that claim experimentally and because the bandwidth machinery
//! (Section 4.2) is kernel-generic through the constants `k2 = Int t^2 K`
//! and `R(K) = Int K^2`.
//!
//! Every kernel exposes an *exact* CDF — the selectivity estimator never
//! integrates numerically on the query path.

/// A symmetric probability kernel.
///
/// Compact kernels are supported on `[-1, 1]`; the Gaussian reports the
/// radius at which its tail mass is below `1e-16`, which the estimator
/// treats as exact truncation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum KernelFn {
    /// `K(t) = 3/4 (1 - t^2)` — the paper's kernel; AMISE-optimal.
    Epanechnikov,
    /// `K(t) = 1/2` on `[-1, 1]` (box / moving window).
    Uniform,
    /// `K(t) = 1 - |t|`.
    Triangular,
    /// `K(t) = 15/16 (1 - t^2)^2` (quartic).
    Biweight,
    /// `K(t) = 35/32 (1 - t^2)^3`.
    Triweight,
    /// `K(t) = pi/4 cos(pi t / 2)`.
    Cosine,
    /// Standard normal density; non-compact.
    Gaussian,
}

impl KernelFn {
    /// All provided kernels, for kernel-comparison experiments.
    pub const ALL: [KernelFn; 7] = [
        KernelFn::Epanechnikov,
        KernelFn::Uniform,
        KernelFn::Triangular,
        KernelFn::Biweight,
        KernelFn::Triweight,
        KernelFn::Cosine,
        KernelFn::Gaussian,
    ];

    /// Kernel value `K(t)`.
    pub fn eval(&self, t: f64) -> f64 {
        let a = t.abs();
        match self {
            KernelFn::Epanechnikov => {
                if a <= 1.0 {
                    0.75 * (1.0 - t * t)
                } else {
                    0.0
                }
            }
            KernelFn::Uniform => {
                if a <= 1.0 {
                    0.5
                } else {
                    0.0
                }
            }
            KernelFn::Triangular => (1.0 - a).max(0.0),
            KernelFn::Biweight => {
                if a <= 1.0 {
                    let u = 1.0 - t * t;
                    0.9375 * u * u
                } else {
                    0.0
                }
            }
            KernelFn::Triweight => {
                if a <= 1.0 {
                    let u = 1.0 - t * t;
                    1.09375 * u * u * u
                } else {
                    0.0
                }
            }
            KernelFn::Cosine => {
                if a <= 1.0 {
                    core::f64::consts::FRAC_PI_4 * (core::f64::consts::FRAC_PI_2 * t).cos()
                } else {
                    0.0
                }
            }
            KernelFn::Gaussian => selest_math::normal_pdf(t),
        }
    }

    /// Exact CDF `Int_{-inf}^{t} K(u) du`, clamped to `[0, 1]`.
    pub fn cdf(&self, t: f64) -> f64 {
        match self {
            KernelFn::Epanechnikov => {
                if t <= -1.0 {
                    0.0
                } else if t >= 1.0 {
                    1.0
                } else {
                    // 0.5 + F_K(t) with the paper's primitive
                    // F_K(t) = (3t - t^3)/4.
                    0.5 + 0.25 * (3.0 * t - t * t * t)
                }
            }
            KernelFn::Uniform => ((t + 1.0) * 0.5).clamp(0.0, 1.0),
            KernelFn::Triangular => {
                if t <= -1.0 {
                    0.0
                } else if t >= 1.0 {
                    1.0
                } else if t < 0.0 {
                    let u = 1.0 + t;
                    0.5 * u * u
                } else {
                    let u = 1.0 - t;
                    1.0 - 0.5 * u * u
                }
            }
            KernelFn::Biweight => {
                if t <= -1.0 {
                    0.0
                } else if t >= 1.0 {
                    1.0
                } else {
                    // Explicit power chain (t3 = t2*t, t5 = t3*t2): the
                    // pinned query-file checksums depend on this exact
                    // association.
                    let t2 = t * t;
                    let t3 = t2 * t;
                    let t5 = t3 * t2;
                    0.5 + 0.9375 * (t - 2.0 * t3 / 3.0 + t5 / 5.0)
                }
            }
            KernelFn::Triweight => {
                if t <= -1.0 {
                    0.0
                } else if t >= 1.0 {
                    1.0
                } else {
                    // Explicit power chain; see Biweight.
                    let t2 = t * t;
                    let t3 = t2 * t;
                    let t5 = t3 * t2;
                    let t7 = t5 * t2;
                    0.5 + 1.09375 * (t - t3 + 0.6 * t5 - t7 / 7.0)
                }
            }
            KernelFn::Cosine => {
                if t <= -1.0 {
                    0.0
                } else if t >= 1.0 {
                    1.0
                } else {
                    0.5 * (1.0 + (core::f64::consts::FRAC_PI_2 * t).sin())
                }
            }
            KernelFn::Gaussian => selest_math::normal_cdf(t),
        }
    }

    /// Support radius: the estimator ignores samples farther than
    /// `radius * h` from the query.
    pub fn support_radius(&self) -> f64 {
        match self {
            KernelFn::Gaussian => 8.5, // tail mass < 1e-16 beyond this
            _ => 1.0,
        }
    }

    /// Second moment `k2 = Int t^2 K(t) dt` (condition (c) of Section 4.2).
    pub fn second_moment(&self) -> f64 {
        match self {
            KernelFn::Epanechnikov => 0.2,
            KernelFn::Uniform => 1.0 / 3.0,
            KernelFn::Triangular => 1.0 / 6.0,
            KernelFn::Biweight => 1.0 / 7.0,
            KernelFn::Triweight => 1.0 / 9.0,
            KernelFn::Cosine => 1.0 - 8.0 / (core::f64::consts::PI * core::f64::consts::PI),
            KernelFn::Gaussian => 1.0,
        }
    }

    /// Roughness `R(K) = Int K(t)^2 dt`.
    pub fn roughness(&self) -> f64 {
        match self {
            KernelFn::Epanechnikov => 0.6,
            KernelFn::Uniform => 0.5,
            KernelFn::Triangular => 2.0 / 3.0,
            KernelFn::Biweight => 5.0 / 7.0,
            KernelFn::Triweight => 350.0 / 429.0,
            KernelFn::Cosine => core::f64::consts::PI * core::f64::consts::PI / 16.0,
            KernelFn::Gaussian => 0.5 / core::f64::consts::PI.sqrt(),
        }
    }

    /// Self-convolution `(K * K)(u)` where available in closed form — used
    /// by least-squares cross-validation. `None` means LSCV must fall back
    /// to a different kernel.
    pub fn self_convolution(&self, u: f64) -> Option<f64> {
        let a = u.abs();
        match self {
            KernelFn::Epanechnikov => Some(if a >= 2.0 {
                0.0
            } else {
                let m = 2.0 - a;
                (3.0 / 160.0) * m * m * m * (a * a + 6.0 * a + 4.0)
            }),
            KernelFn::Uniform => Some(((2.0 - a) * 0.25).max(0.0)),
            KernelFn::Gaussian => {
                // N(0,1) * N(0,1) = N(0,2).
                Some(
                    selest_math::normal_pdf(u / core::f64::consts::SQRT_2)
                        / core::f64::consts::SQRT_2,
                )
            }
            _ => None,
        }
    }

    /// Display name.
    pub fn name(&self) -> &'static str {
        match self {
            KernelFn::Epanechnikov => "Epanechnikov",
            KernelFn::Uniform => "Uniform",
            KernelFn::Triangular => "Triangular",
            KernelFn::Biweight => "Biweight",
            KernelFn::Triweight => "Triweight",
            KernelFn::Cosine => "Cosine",
            KernelFn::Gaussian => "Gaussian",
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use selest_math::simpson;

    const RANGE: f64 = 9.0; // covers the Gaussian's effective support

    /// Integration range aligned to the kernel's support so box-kernel jump
    /// discontinuities sit exactly on the quadrature boundary.
    fn support(k: &KernelFn) -> f64 {
        match k {
            KernelFn::Gaussian => RANGE,
            _ => 1.0,
        }
    }

    #[test]
    fn kernels_integrate_to_one() {
        for k in KernelFn::ALL {
            let s = support(&k);
            let mass = simpson(|t| k.eval(t), -s, s, 40_000);
            assert!((mass - 1.0).abs() < 1e-9, "{}: mass {mass}", k.name());
        }
    }

    #[test]
    fn kernels_are_symmetric_and_nonnegative() {
        for k in KernelFn::ALL {
            for i in 0..=200 {
                let t = -2.0 + 4.0 * i as f64 / 200.0;
                assert!(k.eval(t) >= 0.0, "{} negative at {t}", k.name());
                assert!(
                    (k.eval(t) - k.eval(-t)).abs() < 1e-14,
                    "{} asymmetric at {t}",
                    k.name()
                );
            }
        }
    }

    #[test]
    fn cdf_matches_quadrature() {
        for k in KernelFn::ALL {
            let s = support(&k);
            for &t in &[-0.99f64, -0.5, -0.1, 0.0, 0.3, 0.77, 1.0] {
                let num = simpson(|u| k.eval(u), -s, t.min(s), 30_000);
                let exact = k.cdf(t);
                assert!(
                    (num - exact).abs() < 1e-9,
                    "{} at {t}: quadrature {num} vs cdf {exact}",
                    k.name()
                );
            }
            // Compact kernels saturate just outside [-1, 1].
            if s == 1.0 {
                assert_eq!(k.cdf(-1.5), 0.0, "{}", k.name());
                assert_eq!(k.cdf(1.4), 1.0, "{}", k.name());
            }
        }
    }

    #[test]
    fn cdf_is_monotone_with_correct_limits() {
        for k in KernelFn::ALL {
            assert!(k.cdf(-RANGE) < 1e-12, "{}", k.name());
            assert!((k.cdf(RANGE) - 1.0).abs() < 1e-12, "{}", k.name());
            assert!(
                (k.cdf(0.0) - 0.5).abs() < 1e-12,
                "{} not centered",
                k.name()
            );
            let mut prev = -1.0;
            for i in 0..=100 {
                let t = -2.0 + 4.0 * i as f64 / 100.0;
                let c = k.cdf(t);
                assert!(c >= prev - 1e-15, "{} cdf not monotone at {t}", k.name());
                prev = c;
            }
        }
    }

    #[test]
    fn epanechnikov_primitive_matches_paper() {
        // The paper's F_K(t) = (3t - t^3)/4 satisfies cdf(t) = 0.5 + F_K(t).
        let k = KernelFn::Epanechnikov;
        for &t in &[-1.0, -0.4, 0.0, 0.6, 1.0] {
            let fk = 0.25 * (3.0 * t - t * t * t);
            assert!((k.cdf(t) - (0.5 + fk)).abs() < 1e-15);
        }
    }

    #[test]
    fn moments_match_quadrature() {
        for k in KernelFn::ALL {
            let s = support(&k);
            let k2 = simpson(|t| t * t * k.eval(t), -s, s, 40_000);
            assert!(
                (k2 - k.second_moment()).abs() < 1e-9,
                "{}: k2 {k2} vs {}",
                k.name(),
                k.second_moment()
            );
            let r = simpson(|t| k.eval(t) * k.eval(t), -s, s, 40_000);
            assert!(
                (r - k.roughness()).abs() < 1e-9,
                "{}: R {r} vs {}",
                k.name(),
                k.roughness()
            );
            // First moment vanishes (condition (b) of Section 4.2).
            let k1 = simpson(|t| t * k.eval(t), -s, s, 40_000);
            assert!(k1.abs() < 1e-12, "{}: first moment {k1}", k.name());
        }
    }

    #[test]
    fn self_convolution_matches_quadrature() {
        for k in KernelFn::ALL {
            let s = support(&k);
            for &u in &[0.0, 0.5, 1.0, 1.7, 2.5] {
                if let Some(exact) = k.self_convolution(u) {
                    // The integrand is supported on [u - s, u + s] ∩ [-s, s];
                    // align the quadrature to it.
                    let lo = (u - s).max(-s);
                    let hi = (u + s).min(s);
                    let num = if hi > lo {
                        simpson(|t| k.eval(t) * k.eval(u - t), lo, hi, 40_000)
                    } else {
                        0.0
                    };
                    assert!(
                        (num - exact).abs() < 1e-9,
                        "{} at {u}: quadrature {num} vs {exact}",
                        k.name()
                    );
                }
            }
        }
    }

    #[test]
    fn epanechnikov_constants() {
        let k = KernelFn::Epanechnikov;
        assert_eq!(k.second_moment(), 0.2); // the paper's k2 = 1/5
        assert_eq!(k.roughness(), 0.6); // R(K) = 3/5
        assert_eq!(k.support_radius(), 1.0);
    }

    #[test]
    fn gaussian_tail_is_negligible_beyond_radius() {
        let k = KernelFn::Gaussian;
        let r = k.support_radius();
        assert!(k.cdf(-r) < 1e-15);
        assert!(1.0 - k.cdf(r) < 1e-15);
    }
}
