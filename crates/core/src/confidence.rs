//! Confidence intervals for sample-based selectivity estimates.
//!
//! A sampling-based selectivity estimate is a binomial proportion, so the
//! classical intervals apply. This module provides the Wilson score
//! interval (the practical default; the Wald interval `p ± z·sqrt(p(1−p)/n)`
//! is simple but poor near 0/1), with the finite-population correction for
//! sampling *without replacement* from a relation of known size — exactly
//! the paper's setting (n = 2 000 of N = 100 000).
//!
//! For kernel and histogram estimators these intervals are a conservative
//! proxy: smoothing reduces variance at the price of bias, so the true
//! coverage is at least nominal wherever the bias is small (interior
//! queries at reasonable smoothing parameters).

use selest_math::normal_quantile;

/// A two-sided confidence interval for a selectivity.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ConfidenceInterval {
    /// Lower bound, in `[0, 1]`.
    pub lo: f64,
    /// Upper bound, in `[0, 1]`.
    pub hi: f64,
}

impl ConfidenceInterval {
    /// Interval width.
    pub fn width(&self) -> f64 {
        self.hi - self.lo
    }

    /// Whether the interval contains `p`.
    pub fn contains(&self, p: f64) -> bool {
        p >= self.lo && p <= self.hi
    }
}

/// The finite-population correction factor `sqrt((N - n) / (N - 1))` for
/// sampling without replacement; 1.0 when no population size is given.
fn fpc(n: usize, population: Option<usize>) -> f64 {
    match population {
        Some(big_n) if big_n > 1 => {
            assert!(n <= big_n, "sample larger than population: {n} > {big_n}");
            (((big_n - n) as f64) / ((big_n - 1) as f64)).sqrt()
        }
        _ => 1.0,
    }
}

/// Wilson score interval: well-behaved near 0 and 1 and for small `n`; the
/// recommended default. The finite-population correction shrinks the
/// effective variance by inflating the effective sample size.
///
/// # Examples
///
/// ```
/// use selest_core::wilson_interval;
///
/// // 2 000 samples of a 100 000-row relation estimated sigma = 0.15.
/// let ci = wilson_interval(0.15, 2_000, 0.95, Some(100_000));
/// assert!(ci.contains(0.15));
/// assert!(ci.width() < 0.035);
/// ```
pub fn wilson_interval(
    p_hat: f64,
    n: usize,
    confidence: f64,
    population: Option<usize>,
) -> ConfidenceInterval {
    assert!((0.0..=1.0).contains(&p_hat), "p_hat out of [0,1]: {p_hat}");
    assert!(n > 0, "wilson_interval needs samples");
    assert!(
        (0.0..1.0).contains(&confidence),
        "confidence out of [0,1): {confidence}"
    );
    let z = normal_quantile(0.5 + confidence / 2.0);
    // Apply the correction by inflating the effective sample size.
    let c = fpc(n, population);
    let n_eff = if c > 0.0 {
        n as f64 / (c * c)
    } else {
        f64::INFINITY
    };
    if !n_eff.is_finite() {
        // Degenerate full-population sample: the estimate is exact.
        return ConfidenceInterval {
            lo: p_hat,
            hi: p_hat,
        };
    }
    let z2 = z * z;
    let denom = 1.0 + z2 / n_eff;
    let center = (p_hat + z2 / (2.0 * n_eff)) / denom;
    let half = z * (p_hat * (1.0 - p_hat) / n_eff + z2 / (4.0 * n_eff * n_eff)).sqrt() / denom;
    ConfidenceInterval {
        lo: (center - half).max(0.0),
        hi: (center + half).min(1.0),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The Wald half-width `z·sqrt(p(1−p)/n)` Wilson is compared against.
    fn wald_half_width(p: f64, n: usize, confidence: f64) -> f64 {
        normal_quantile(0.5 + confidence / 2.0) * (p * (1.0 - p) / n as f64).sqrt()
    }

    #[test]
    fn intervals_shrink_with_n_and_confidence() {
        let wide = wilson_interval(0.3, 100, 0.95, None);
        let narrow = wilson_interval(0.3, 10_000, 0.95, None);
        assert!(narrow.width() < 0.15 * wide.width());
        let low_conf = wilson_interval(0.3, 100, 0.80, None);
        assert!(low_conf.width() < wide.width());
    }

    #[test]
    fn wilson_behaves_at_the_extremes() {
        // p_hat = 0 with Wald collapses to a point; Wilson does not.
        let wilson = wilson_interval(0.0, 50, 0.95, None);
        assert_eq!(wald_half_width(0.0, 50, 0.95), 0.0);
        assert!(wilson.width() > 0.0, "Wilson must keep uncertainty at p=0");
        assert!(wilson.hi < 0.15);
        // Symmetric at the other end.
        let wilson_hi = wilson_interval(1.0, 50, 0.95, None);
        assert!((wilson_hi.width() - wilson.width()).abs() < 1e-12);
    }

    #[test]
    fn wilson_and_wald_agree_for_large_n_mid_p() {
        let half = wald_half_width(0.4, 100_000, 0.95);
        let b = wilson_interval(0.4, 100_000, 0.95, None);
        assert!((0.4 - half - b.lo).abs() < 1e-4);
        assert!((0.4 + half - b.hi).abs() < 1e-4);
    }

    #[test]
    fn finite_population_correction_tightens_intervals() {
        // Sampling 2 000 of 100 000 barely matters; 2 000 of 2 500 does.
        let free = wilson_interval(0.3, 2_000, 0.95, None);
        let big = wilson_interval(0.3, 2_000, 0.95, Some(100_000));
        let small = wilson_interval(0.3, 2_000, 0.95, Some(2_500));
        assert!(big.width() < free.width());
        assert!(big.width() > 0.95 * free.width());
        assert!(small.width() < 0.5 * free.width());
    }

    #[test]
    fn full_population_sample_is_exact() {
        let ci = wilson_interval(0.42, 1_000, 0.95, Some(1_000));
        assert_eq!(ci.lo, 0.42);
        assert_eq!(ci.hi, 0.42);
    }

    #[test]
    fn empirical_coverage_of_wilson_is_nominal() {
        // Deterministic binomial experiments: for p = 0.2, n = 400, check
        // the interval covers p for the overwhelming majority of binomial
        // outcomes weighted by their probability. We approximate by
        // scanning outcomes within 6 sigma and summing probabilities via
        // the normal approximation of the binomial.
        let p = 0.2;
        let n = 400;
        let sigma = (p * (1.0 - p) * n as f64).sqrt();
        let mut covered_prob = 0.0;
        let mut total_prob = 0.0;
        for k in 0..=n {
            let z = (k as f64 - p * n as f64) / sigma;
            if z.abs() > 6.0 {
                continue;
            }
            // Normal density as the binomial weight (fine at this n).
            let w = (-0.5 * z * z).exp();
            total_prob += w;
            let ci = wilson_interval(k as f64 / n as f64, n, 0.95, None);
            if ci.contains(p) {
                covered_prob += w;
            }
        }
        let coverage = covered_prob / total_prob;
        assert!(
            (0.93..=0.97).contains(&coverage),
            "Wilson coverage {coverage}, want ~0.95"
        );
    }

    #[test]
    #[should_panic(expected = "sample larger than population")]
    fn oversized_sample_panics() {
        let _ = wilson_interval(0.5, 200, 0.95, Some(100));
    }
}
