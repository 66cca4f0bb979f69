//! Adaptive (sample-point, Abramson-style) kernel estimation — an
//! extension beyond the paper along the axis its Section 3.3 motivates:
//! where the hybrid fixes a *global* bandwidth's failure with change-point
//! bins, the adaptive estimator fixes it per sample,
//!
//! ```text
//! f_hat(x) = 1/n * sum_i K((x - X_i)/h_i) / h_i,
//! h_i = h0 * ( pilot(X_i) / g )^(-alpha),
//! ```
//!
//! with a fixed-bandwidth pilot estimate, `g` its geometric mean over the
//! sample, and `alpha = 1/2` (Abramson's square-root law): samples in dense
//! regions get narrow kernels, samples in sparse tails wide ones. Range
//! queries still evaluate in closed form per sample.

use selest_core::{DensityEstimator, Domain, PreparedColumn, RangeQuery, SelectivityEstimator};

use crate::kernels::KernelFn;

/// Boundary handling for the adaptive estimator (the Simonoff–Dong family
/// does not extend to per-sample bandwidths).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AdaptiveBoundary {
    /// Raw estimate over the real line.
    NoTreatment,
    /// Reflection at both domain boundaries.
    Reflection,
}

/// Sample-point adaptive kernel selectivity/density estimator.
#[derive(Debug, Clone)]
pub struct AdaptiveKernelEstimator {
    /// `(X_i, h_i)` sorted by sample value.
    samples: Vec<(f64, f64)>,
    kernel: KernelFn,
    h_max: f64,
    domain: Domain,
    boundary: AdaptiveBoundary,
}

impl AdaptiveKernelEstimator {
    /// Build with pilot bandwidth `h0` and sensitivity `alpha` in
    /// `[0, 1]` (`0` reproduces the fixed-bandwidth estimator, `0.5` is
    /// Abramson's choice).
    pub fn new(
        samples: &[f64],
        domain: Domain,
        kernel: KernelFn,
        h0: f64,
        alpha: f64,
        boundary: AdaptiveBoundary,
    ) -> Self {
        Self::from_prepared(
            &PreparedColumn::prepare(samples, domain),
            kernel,
            h0,
            alpha,
            boundary,
        )
    }

    /// [`AdaptiveKernelEstimator::new`] over a prepared column: the pilot
    /// pass reads the column's shared sorted slice directly — no copy, no
    /// re-sort.
    pub fn from_prepared(
        col: &PreparedColumn,
        kernel: KernelFn,
        h0: f64,
        alpha: f64,
        boundary: AdaptiveBoundary,
    ) -> Self {
        assert!(
            h0.is_finite() && h0 > 0.0,
            "pilot bandwidth must be positive"
        );
        assert!((0.0..=1.0).contains(&alpha), "alpha out of [0,1]: {alpha}");
        let (sorted, domain) = (col.sorted(), col.domain());
        assert!(
            domain.contains(sorted[0]) && domain.contains(*sorted.last().expect("nonempty")),
            "samples outside domain {domain}"
        );
        let n = sorted.len() as f64;
        // Pilot density at each sample (fixed-h KDE over the sorted set),
        // fanned out over fixed 256-sample chunks flattened in order —
        // each pilot value is computed independently, so the vector is
        // identical for every worker count.
        let reach = kernel.support_radius() * h0;
        let pilot_of = |x: f64| {
            let lo = sorted.partition_point(|&v| v < x - reach);
            let hi = sorted.partition_point(|&v| v <= x + reach);
            let sum: f64 = sorted[lo..hi]
                .iter()
                .map(|&v| kernel.eval((x - v) / h0))
                .sum();
            // Floor: an isolated sample still sees its own bump.
            (sum / (n * h0)).max(kernel.eval(0.0) / (n * h0))
        };
        let jobs = if sorted.len() < 2_048 {
            1
        } else {
            selest_par::configured_jobs()
        };
        let pilot: Vec<f64> = selest_par::parallel_chunks_jobs(sorted, 256, jobs, |chunk| {
            chunk.iter().map(|&x| pilot_of(x)).collect::<Vec<f64>>()
        })
        .into_iter()
        .flatten()
        .collect();
        // Geometric mean of the pilot values.
        let log_mean = pilot.iter().map(|p| p.ln()).sum::<f64>() / n;
        let g = log_mean.exp();
        // Per-sample bandwidths, capped so one tail sample cannot smear
        // across the whole domain.
        let cap = 0.25 * domain.width();
        let samples: Vec<(f64, f64)> = sorted
            .iter()
            .zip(&pilot)
            .map(|(&x, &p)| (x, (h0 * (p / g).powf(-alpha)).min(cap)))
            .collect();
        let h_max = samples.iter().map(|s| s.1).fold(0.0, f64::max);
        AdaptiveKernelEstimator {
            samples,
            kernel,
            h_max,
            domain,
            boundary,
        }
    }

    /// The largest per-sample bandwidth.
    pub fn max_bandwidth(&self) -> f64 {
        self.h_max
    }

    /// The smallest per-sample bandwidth.
    pub fn min_bandwidth(&self) -> f64 {
        self.samples
            .iter()
            .map(|s| s.1)
            .fold(f64::INFINITY, f64::min)
    }

    /// Number of samples.
    pub fn sample_size(&self) -> usize {
        self.samples.len()
    }

    /// Raw mass of `[a, b]` over the real line.
    fn raw_mass(&self, a: f64, b: f64) -> f64 {
        debug_assert!(a <= b);
        let r = self.kernel.support_radius();
        let reach = r * self.h_max;
        let i0 = self.samples.partition_point(|s| s.0 < a - reach);
        let i1 = self.samples.partition_point(|s| s.0 <= b + reach);
        // Full-contribution shortcut with the conservative h_max window.
        let full_lo = a + reach;
        let full_hi = b - reach;
        let mut sum = 0.0;
        if full_hi >= full_lo {
            let j0 = self.samples.partition_point(|s| s.0 < full_lo);
            let j1 = self.samples.partition_point(|s| s.0 <= full_hi);
            sum += (j1 - j0) as f64;
            for &(x, h) in self.samples[i0..j0].iter().chain(&self.samples[j1..i1]) {
                sum += self.kernel.cdf((b - x) / h) - self.kernel.cdf((a - x) / h);
            }
        } else {
            for &(x, h) in &self.samples[i0..i1] {
                sum += self.kernel.cdf((b - x) / h) - self.kernel.cdf((a - x) / h);
            }
        }
        sum / self.samples.len() as f64
    }

    fn raw_density(&self, x: f64) -> f64 {
        let reach = self.kernel.support_radius() * self.h_max;
        let i0 = self.samples.partition_point(|s| s.0 < x - reach);
        let i1 = self.samples.partition_point(|s| s.0 <= x + reach);
        let sum: f64 = self.samples[i0..i1]
            .iter()
            .map(|&(v, h)| self.kernel.eval((x - v) / h) / h)
            .sum();
        sum / self.samples.len() as f64
    }
}

impl SelectivityEstimator for AdaptiveKernelEstimator {
    fn selectivity(&self, q: &RangeQuery) -> f64 {
        let (l, r) = (self.domain.lo(), self.domain.hi());
        let a = q.a().max(l);
        let b = q.b().min(r);
        if b < a {
            return 0.0;
        }
        let mut s = self.raw_mass(a, b);
        if self.boundary == AdaptiveBoundary::Reflection {
            let reach = self.kernel.support_radius() * self.h_max;
            if a < l + reach {
                s += self.raw_mass(2.0 * l - b, 2.0 * l - a);
            }
            if b > r - reach {
                s += self.raw_mass(2.0 * r - b, 2.0 * r - a);
            }
        }
        s.clamp(0.0, 1.0)
    }

    fn domain(&self) -> Domain {
        self.domain
    }

    fn name(&self) -> String {
        format!("AdaptiveKernel({})", self.kernel.name())
    }
}

impl DensityEstimator for AdaptiveKernelEstimator {
    fn density(&self, x: f64) -> f64 {
        if !self.domain.contains(x) {
            return 0.0;
        }
        let mut d = self.raw_density(x);
        if self.boundary == AdaptiveBoundary::Reflection {
            let (l, r) = (self.domain.lo(), self.domain.hi());
            let reach = self.kernel.support_radius() * self.h_max;
            if x < l + reach {
                d += self.raw_density(2.0 * l - x);
            }
            if x > r - reach {
                d += self.raw_density(2.0 * r - x);
            }
        }
        d
    }

    fn domain(&self) -> Domain {
        self.domain
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bandwidth::{BandwidthSelector, NormalScale};
    use crate::boundary::BoundaryPolicy;
    use crate::estimator::KernelEstimator;

    fn dom() -> Domain {
        Domain::new(0.0, 1_000.0)
    }

    /// Spiky data: dense cluster + sparse tail, where fixed bandwidths
    /// must compromise.
    fn spiky() -> Vec<f64> {
        let mut v: Vec<f64> = (0..800)
            .map(|i| 100.0 + 20.0 * (i as f64 + 0.5) / 800.0)
            .collect();
        v.extend((0..200).map(|i| 200.0 + 800.0 * (i as f64 + 0.5) / 200.0));
        v
    }

    #[test]
    fn alpha_zero_equals_fixed_bandwidth() {
        let s = spiky();
        let h = 25.0;
        let adaptive = AdaptiveKernelEstimator::new(
            &s,
            dom(),
            KernelFn::Epanechnikov,
            h,
            0.0,
            AdaptiveBoundary::NoTreatment,
        );
        let fixed = KernelEstimator::new(
            &s,
            dom(),
            KernelFn::Epanechnikov,
            h,
            BoundaryPolicy::NoTreatment,
        );
        for (a, b) in [(0.0, 1_000.0), (90.0, 130.0), (400.0, 700.0)] {
            let q = RangeQuery::new(a, b);
            assert!(
                (adaptive.selectivity(&q) - fixed.selectivity(&q)).abs() < 1e-12,
                "[{a},{b}]"
            );
        }
        assert!((adaptive.max_bandwidth() - h).abs() < 1e-12);
        assert!((adaptive.min_bandwidth() - h).abs() < 1e-12);
    }

    #[test]
    fn bandwidths_shrink_in_dense_regions() {
        let s = spiky();
        let est = AdaptiveKernelEstimator::new(
            &s,
            dom(),
            KernelFn::Epanechnikov,
            30.0,
            0.5,
            AdaptiveBoundary::NoTreatment,
        );
        // Cluster samples (values near 110) must get much smaller h than
        // tail samples (values near 900).
        let cluster_h: f64 = est
            .samples
            .iter()
            .filter(|s| s.0 < 130.0)
            .map(|s| s.1)
            .fold(0.0, f64::max);
        let tail_h: f64 = est
            .samples
            .iter()
            .filter(|s| s.0 > 800.0)
            .map(|s| s.1)
            .fold(f64::INFINITY, f64::min);
        assert!(
            tail_h > 3.0 * cluster_h,
            "tail h {tail_h} should dwarf cluster h {cluster_h}"
        );
    }

    /// Bimodal data: two tight clusters far apart plus background. The
    /// global scale (stddev and IQR both span the gap) forces any fixed
    /// bandwidth to oversmooth both clusters — the regime the adaptive
    /// estimator exists for. (A single dense cluster does NOT qualify:
    /// there the IQR-robust normal scale rule already picks a small h.)
    fn bimodal() -> Vec<f64> {
        let mut v = Vec::new();
        for i in 0..400 {
            v.push(200.0 + 10.0 * (i as f64 + 0.5) / 400.0);
        }
        for i in 0..400 {
            v.push(800.0 + 10.0 * (i as f64 + 0.5) / 400.0);
        }
        for i in 0..200 {
            v.push(1_000.0 * (i as f64 + 0.5) / 200.0);
        }
        v
    }

    #[test]
    fn adaptive_beats_fixed_on_bimodal_data() {
        let s = bimodal();
        let truth = |a: f64, b: f64| s.iter().filter(|&&v| v >= a && v <= b).count() as f64 / 1e3;
        let h0 = NormalScale.bandwidth(&s, KernelFn::Epanechnikov);
        assert!(h0 > 100.0, "premise: the fixed rule oversmooths, h0 = {h0}");
        let fixed = KernelEstimator::new(
            &s,
            dom(),
            KernelFn::Epanechnikov,
            h0,
            BoundaryPolicy::Reflection,
        );
        let adaptive = AdaptiveKernelEstimator::new(
            &s,
            dom(),
            KernelFn::Epanechnikov,
            h0,
            0.5,
            AdaptiveBoundary::Reflection,
        );
        let mut fixed_err = 0.0;
        let mut adaptive_err = 0.0;
        for i in 0..50 {
            let a = 20.0 * i as f64;
            let q = RangeQuery::new(a, a + 20.0);
            let t = truth(a, a + 20.0);
            // Total absolute mass misplacement: relative errors on the
            // near-empty background windows would drown the signal.
            fixed_err += (fixed.selectivity(&q) - t).abs();
            adaptive_err += (adaptive.selectivity(&q) - t).abs();
        }
        assert!(
            adaptive_err < fixed_err,
            "adaptive ({adaptive_err}) should misplace less mass than fixed NS ({fixed_err})"
        );
    }

    #[test]
    fn full_domain_mass_with_reflection_is_one() {
        let est = AdaptiveKernelEstimator::new(
            &spiky(),
            dom(),
            KernelFn::Epanechnikov,
            30.0,
            0.5,
            AdaptiveBoundary::Reflection,
        );
        let s = est.selectivity(&RangeQuery::new(0.0, 1_000.0));
        assert!((s - 1.0).abs() < 1e-9, "mass {s}");
    }

    #[test]
    fn selectivity_matches_density_quadrature() {
        let est = AdaptiveKernelEstimator::new(
            &spiky(),
            dom(),
            KernelFn::Epanechnikov,
            30.0,
            0.5,
            AdaptiveBoundary::Reflection,
        );
        for (a, b) in [(50.0, 250.0), (300.0, 900.0)] {
            let q = RangeQuery::new(a, b);
            let num = selest_math::simpson(|x| est.density(x), a, b, 20_000);
            assert!(
                (est.selectivity(&q) - num).abs() < 1e-4,
                "[{a},{b}]: {} vs {num}",
                est.selectivity(&q)
            );
        }
    }

    #[test]
    fn works_with_gaussian_kernel_too() {
        let est = AdaptiveKernelEstimator::new(
            &spiky(),
            dom(),
            KernelFn::Gaussian,
            20.0,
            0.5,
            AdaptiveBoundary::Reflection,
        );
        let s = est.selectivity(&RangeQuery::new(0.0, 1_000.0));
        assert!((s - 1.0).abs() < 1e-6, "mass {s}");
    }
}
