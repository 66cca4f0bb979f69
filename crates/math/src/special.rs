//! Special functions: the error function family, the standard normal
//! distribution, and the log-gamma function.
//!
//! The error function is computed from its Maclaurin series for small
//! arguments and from the Laplace continued fraction of `erfc` for large
//! ones; both converge to full double precision in the regions where they
//! are used. The normal quantile is obtained by safeguarded Newton
//! iteration on [`normal_cdf`], which keeps it correct to the accuracy of
//! the CDF itself without relying on long tables of rational-approximation
//! coefficients.

/// `sqrt(2 * pi)`, the normalization constant of the standard normal PDF.
pub const SQRT_2PI: f64 = 2.506_628_274_631_000_5;

/// `2 / sqrt(pi)`, the derivative of `erf` at zero.
const TWO_OVER_SQRT_PI: f64 = core::f64::consts::FRAC_2_SQRT_PI;

/// The error function `erf(x) = 2/sqrt(pi) * Int_0^x exp(-t^2) dt`.
///
/// Accurate to close to machine precision over the whole real line.
pub fn erf(x: f64) -> f64 {
    if x.is_nan() {
        return f64::NAN;
    }
    let ax = x.abs();
    if ax < 2.0 {
        erf_series(x)
    } else {
        let tail = erfc_cf(ax);
        let magnitude = 1.0 - tail;
        if x >= 0.0 {
            magnitude
        } else {
            -magnitude
        }
    }
}

/// The complementary error function `erfc(x) = 1 - erf(x)`.
///
/// Uses the continued-fraction expansion for `x >= 2` so the tiny tail
/// probabilities (down to about `1e-300`) are computed without cancellation.
pub fn erfc(x: f64) -> f64 {
    if x.is_nan() {
        return f64::NAN;
    }
    if x >= 2.0 {
        erfc_cf(x)
    } else if x <= -2.0 {
        2.0 - erfc_cf(-x)
    } else {
        1.0 - erf_series(x)
    }
}

/// Maclaurin series of `erf`, used for `|x| < 2` where it converges quickly
/// and without cancellation.
fn erf_series(x: f64) -> f64 {
    let x2 = x * x;
    let mut term = x;
    let mut sum = x;
    // term_{n} = x^(2n+1) * (-1)^n / (n! (2n+1)); recurrence on n.
    for n in 1..200 {
        let nf = n as f64;
        term *= -x2 / nf;
        let contrib = term / (2.0 * nf + 1.0);
        sum += contrib;
        if contrib.abs() < 1e-18 * sum.abs().max(1e-300) {
            break;
        }
    }
    TWO_OVER_SQRT_PI * sum
}

/// Laplace continued fraction for `erfc(x)`, valid for `x >= 2`:
/// `erfc(x) = exp(-x^2)/sqrt(pi) * 1/(x + 1/(2x + 2/(x + 3/(2x + ...))))`.
///
/// Evaluated with the modified Lentz algorithm.
fn erfc_cf(x: f64) -> f64 {
    debug_assert!(x >= 2.0);
    const TINY: f64 = 1e-300;
    let mut f = x.max(TINY);
    let mut c = f;
    let mut d = 0.0;
    for k in 1..300 {
        let a = 0.5 * k as f64;
        // Continued fraction b_k = x, a_k = k/2 after an equivalence
        // transformation of the classical 1/(x + 1/(2x + 2/(x + ...))).
        d = x + a * d;
        if d.abs() < TINY {
            d = TINY;
        }
        c = x + a / c;
        if c.abs() < TINY {
            c = TINY;
        }
        d = 1.0 / d;
        let delta = c * d;
        f *= delta;
        if (delta - 1.0).abs() < 1e-17 {
            break;
        }
    }
    (-x * x).exp() / (f * core::f64::consts::PI.sqrt())
}

/// Density of the standard normal distribution at `x`.
#[inline]
pub fn normal_pdf(x: f64) -> f64 {
    (-0.5 * x * x).exp() / SQRT_2PI
}

/// Cumulative distribution function of the standard normal distribution.
pub fn normal_cdf(x: f64) -> f64 {
    0.5 * erfc(-x / core::f64::consts::SQRT_2)
}

/// Quantile (inverse CDF) of the standard normal distribution.
///
/// `p` must lie in `(0, 1)`; the endpoints map to `-inf` / `+inf`.
/// Implemented as a safeguarded Newton iteration on [`normal_cdf`] with a
/// logarithmic initial guess, which converges to the accuracy of the CDF in
/// a handful of steps for every `p` representable in `f64`.
pub fn normal_quantile(p: f64) -> f64 {
    assert!(
        (0.0..=1.0).contains(&p),
        "normal_quantile: p={p} out of [0,1]"
    );
    if p == 0.0 {
        return f64::NEG_INFINITY;
    }
    if p == 1.0 {
        return f64::INFINITY;
    }
    if p == 0.5 {
        return 0.0;
    }
    // Work in the lower tail and mirror; the tail guess is stable there.
    let (q, sign) = if p < 0.5 { (p, -1.0) } else { (1.0 - p, 1.0) };
    // Initial guess from the asymptotic tail expansion
    // q ~ phi(x)/x  =>  x ~ sqrt(-2 ln q) refined once.
    let t = (-2.0 * q.ln()).sqrt();
    let mut x = t - (t.ln() + (2.0 * core::f64::consts::PI).ln()) / (2.0 * t).max(1e-10);
    if !x.is_finite() || x < 0.0 {
        x = 0.5;
    }
    // Newton iterations on F(-x) = q (lower tail), i.e. erfc(x/sqrt2)/2 = q.
    for _ in 0..60 {
        let fx = 0.5 * erfc(x / core::f64::consts::SQRT_2) - q;
        let dfx = -normal_pdf(x);
        let step = fx / dfx;
        let next = x - step;
        // Safeguard: never jump below zero in the mirrored coordinate.
        x = if next.is_finite() && next > 0.0 {
            next
        } else {
            0.5 * x
        };
        if step.abs() < 1e-14 * (1.0 + x.abs()) {
            break;
        }
    }
    sign * x
}

/// Natural logarithm of the gamma function, via the Lanczos approximation
/// (`g = 5`, six coefficients). Accurate to about `2e-10` relative error for
/// `x > 0`, which is ample for the statistics in this workspace.
pub fn ln_gamma(x: f64) -> f64 {
    assert!(x > 0.0, "ln_gamma requires x > 0, got {x}");
    const COEF: [f64; 6] = [
        76.180_091_729_471_46,
        -86.505_320_329_416_77,
        24.014_098_240_830_91,
        -1.231_739_572_450_155,
        0.120_865_097_386_617_9e-2,
        -0.539_523_938_495_3e-5,
    ];
    let tmp = x + 5.5;
    let tmp = tmp - (x + 0.5) * tmp.ln();
    let mut ser = 1.000_000_000_190_015;
    let mut denom = x;
    for c in COEF {
        denom += 1.0;
        ser += c / denom;
    }
    -tmp + (SQRT_2PI * ser / x).ln()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn close(a: f64, b: f64, tol: f64) {
        assert!(
            (a - b).abs() <= tol * (1.0 + b.abs()),
            "expected {b}, got {a} (tol {tol})"
        );
    }

    #[test]
    fn erf_known_values() {
        close(erf(0.0), 0.0, 1e-15);
        close(erf(0.5), 0.520_499_877_813_046_5, 1e-14);
        close(erf(1.0), 0.842_700_792_949_714_9, 1e-14);
        close(erf(2.0), 0.995_322_265_018_952_7, 1e-14);
        close(erf(3.0), 0.999_977_909_503_001_4, 1e-14);
        close(erf(-1.0), -0.842_700_792_949_714_9, 1e-14);
    }

    #[test]
    fn erfc_tail_is_accurate() {
        // erfc(5) = 1.5374597944280348e-12 (cancellation-free check).
        let v = erfc(5.0);
        assert!(
            (v / 1.537_459_794_428_034_8e-12 - 1.0).abs() < 1e-10,
            "erfc(5)={v}"
        );
        let v = erfc(10.0);
        assert!(
            (v / 2.088_487_583_762_545e-45 - 1.0).abs() < 1e-9,
            "erfc(10)={v}"
        );
    }

    #[test]
    fn erf_erfc_complementarity() {
        for &x in &[-3.0, -1.5, -0.3, 0.0, 0.7, 1.9, 2.5, 4.0] {
            close(erf(x) + erfc(x), 1.0, 1e-14);
        }
    }

    #[test]
    fn erf_is_odd() {
        for &x in &[0.1, 0.9, 1.7, 2.6, 3.5] {
            close(erf(-x), -erf(x), 1e-15);
        }
    }

    #[test]
    fn normal_cdf_known_values() {
        close(normal_cdf(0.0), 0.5, 1e-15);
        close(normal_cdf(1.0), 0.841_344_746_068_542_9, 1e-13);
        close(normal_cdf(-1.0), 0.158_655_253_931_457_05, 1e-13);
        close(normal_cdf(1.959_963_984_540_054), 0.975, 1e-12);
    }

    #[test]
    fn normal_pdf_known_values() {
        close(normal_pdf(0.0), 0.398_942_280_401_432_7, 1e-15);
        close(normal_pdf(1.0), 0.241_970_724_519_143_37, 1e-15);
    }

    #[test]
    fn normal_quantile_inverts_cdf() {
        for &p in &[
            1e-10,
            1e-6,
            0.001,
            0.025,
            0.25,
            0.5,
            0.75,
            0.975,
            0.999,
            1.0 - 1e-9,
        ] {
            let x = normal_quantile(p);
            close(normal_cdf(x), p, 1e-11);
        }
    }

    #[test]
    fn normal_quantile_known_values() {
        close(normal_quantile(0.975), 1.959_963_984_540_054, 1e-10);
        close(normal_quantile(0.75), 0.674_489_750_196_081_7, 1e-10);
        assert_eq!(normal_quantile(0.5), 0.0);
        assert_eq!(normal_quantile(0.0), f64::NEG_INFINITY);
        assert_eq!(normal_quantile(1.0), f64::INFINITY);
    }

    #[test]
    fn normal_quantile_symmetry() {
        for &p in &[0.01, 0.1, 0.3, 0.45] {
            close(normal_quantile(p), -normal_quantile(1.0 - p), 1e-11);
        }
    }

    #[test]
    fn ln_gamma_known_values() {
        close(ln_gamma(1.0), 0.0, 1e-9);
        close(ln_gamma(2.0), 0.0, 1e-9);
        close(ln_gamma(5.0), 24.0f64.ln(), 1e-9);
        close(ln_gamma(0.5), core::f64::consts::PI.sqrt().ln(), 1e-9);
        close(ln_gamma(10.0), 362_880.0f64.ln(), 1e-9);
    }

    #[test]
    #[should_panic(expected = "ln_gamma requires x > 0")]
    fn ln_gamma_rejects_nonpositive() {
        let _ = ln_gamma(0.0);
    }
}
