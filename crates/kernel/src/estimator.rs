//! The kernel selectivity estimator (Section 3.2, Algorithm 1).
//!
//! The estimator of equation (6),
//!
//! ```text
//! sigma_hat(a, b) = 1/n * sum_i Int_{(a - X_i)/h}^{(b - X_i)/h} K(t) dt,
//! ```
//!
//! is evaluated with exact kernel CDFs and the paper's case split: samples
//! whose kernel lies entirely inside `[a, b]` contribute exactly one,
//! samples out of reach contribute zero, and only the boundary strips
//! `[a - h, a + h]` and `[b - h, b + h]` need the primitive. Keeping the
//! sample set sorted turns the full-contribution count into binary
//! searches, realizing the `O(log n + k)` evaluation the paper sketches,
//! where `k` is the number of samples in the strips. For the paper's
//! Epanechnikov kernel a prefix-moment table (the private `moments`
//! module) then sums each strip in `O(1)`, so a query costs `O(log n)`
//! under every boundary policy; the other kernels scan their strips.
//! [`KernelEstimator::selectivity_linear`] retains the `Theta(n)`
//! Algorithm 1 as the reference the tests check the fast path against.
//!
//! Note: Algorithm 1 as printed has a sign typo in its third case
//! (`s += F((b - X[i])/h) - 0.5`); the contribution of a sample in the
//! right strip only is `CDF((b - X_i)/h)`, i.e. `F((b - X_i)/h) + 0.5` with
//! the paper's centered primitive. We implement the correct sign — with the
//! printed sign the estimator would be wildly inconsistent (a test pins
//! this down).

use std::sync::Arc;

use selest_core::{DensityEstimator, Domain, PreparedColumn, RangeQuery, SelectivityEstimator};

use crate::boundary::{left_boundary_kernel, BoundaryPolicy};
use crate::kernels::KernelFn;
use crate::moments::MomentTable;
use crate::strips::raw_term_sum;

/// Kernel selectivity / density estimator over a sorted sample set.
///
/// # Examples
///
/// ```
/// use selest_core::{Domain, RangeQuery, SelectivityEstimator};
/// use selest_kernel::{BoundaryPolicy, KernelEstimator, KernelFn};
///
/// // A pseudo-uniform sample over [0, 100].
/// let sample: Vec<f64> = (0..1000).map(|i| (i as f64 * 7.31) % 100.0).collect();
/// let est = KernelEstimator::new(
///     &sample,
///     Domain::new(0.0, 100.0),
///     KernelFn::Epanechnikov,
///     4.0, // bandwidth; see `selest_kernel::bandwidth` for the selection rules
///     BoundaryPolicy::BoundaryKernel,
/// );
/// let sel = est.selectivity(&RangeQuery::new(20.0, 40.0));
/// assert!((sel - 0.2).abs() < 0.02);
/// ```
#[derive(Debug, Clone)]
pub struct KernelEstimator {
    /// Arc-shared so [`KernelEstimator::from_prepared`] borrows the
    /// column's sorted sample (and `Clone` is a ref-count bump).
    sorted: Arc<[f64]>,
    kernel: KernelFn,
    h: f64,
    /// Cached `1/h`: the strip loops multiply instead of dividing.
    inv_h: f64,
    domain: Domain,
    boundary: BoundaryPolicy,
    /// Epanechnikov only: the prefix moments that sum a strip in `O(1)`,
    /// built once and shared by clones.
    moments: Option<Arc<MomentTable>>,
}

impl KernelEstimator {
    /// Build an estimator from a sample set: prepares the sample and calls
    /// [`KernelEstimator::from_prepared`], so it panics as that does and,
    /// through [`PreparedColumn::prepare`], on an empty or NaN sample.
    pub fn new(
        samples: &[f64],
        domain: Domain,
        kernel: KernelFn,
        bandwidth: f64,
        boundary: BoundaryPolicy,
    ) -> Self {
        Self::from_prepared(
            &PreparedColumn::prepare(samples, domain),
            kernel,
            bandwidth,
            boundary,
        )
    }

    /// Build from a prepared column, borrowing its shared sorted sample
    /// (a ref-count bump — no copy, no re-sort).
    ///
    /// Panics if the bandwidth is not positive and finite, a sample lies
    /// outside the domain, or — for [`BoundaryPolicy::BoundaryKernel`] —
    /// the kernel is not Epanechnikov (the Simonoff–Dong family is derived
    /// for it) or the bandwidth exceeds half the domain (the boundary
    /// strips would overlap).
    pub fn from_prepared(
        col: &PreparedColumn,
        kernel: KernelFn,
        bandwidth: f64,
        boundary: BoundaryPolicy,
    ) -> Self {
        let domain = col.domain();
        assert!(
            bandwidth.is_finite() && bandwidth > 0.0,
            "bandwidth must be positive and finite, got {bandwidth}"
        );
        if boundary == BoundaryPolicy::BoundaryKernel {
            assert!(
                kernel == KernelFn::Epanechnikov,
                "boundary kernels are derived for the Epanechnikov kernel, not {}",
                kernel.name()
            );
            assert!(
                bandwidth <= 0.5 * domain.width(),
                "bandwidth {bandwidth} exceeds half the domain width {}; \
                 the boundary strips would overlap",
                domain.width()
            );
        }
        let sorted = col.sorted_arc();
        assert!(
            domain.contains(sorted[0]) && domain.contains(*sorted.last().expect("nonempty")),
            "samples outside the domain {domain}: range [{}, {}]",
            sorted[0],
            sorted.last().expect("nonempty")
        );
        let moments = (kernel == KernelFn::Epanechnikov).then(|| {
            Arc::new(MomentTable::build(
                &sorted,
                domain.lo(),
                domain.hi(),
                bandwidth,
                boundary == BoundaryPolicy::BoundaryKernel,
            ))
        });
        KernelEstimator {
            sorted,
            kernel,
            h: bandwidth,
            inv_h: 1.0 / bandwidth,
            domain,
            boundary,
            moments,
        }
    }

    /// The bandwidth `h`.
    pub fn bandwidth(&self) -> f64 {
        self.h
    }

    /// The prefix-moment table, present exactly for the Epanechnikov
    /// kernel.
    pub(crate) fn moments(&self) -> Option<&MomentTable> {
        self.moments.as_deref()
    }

    /// The kernel function `K`.
    pub fn kernel(&self) -> KernelFn {
        self.kernel
    }

    /// The boundary policy in use.
    pub fn boundary_policy(&self) -> BoundaryPolicy {
        self.boundary
    }

    /// Number of samples `n`.
    pub fn sample_size(&self) -> usize {
        self.sorted.len()
    }

    /// The sorted sample set.
    pub fn samples(&self) -> &[f64] {
        &self.sorted
    }

    /// Untreated selectivity mass of `[a, b]` over the real line — the raw
    /// equation (6). Epanechnikov terms are `F(b) - F(a)` from four cut
    /// lookups and the moment table, `O(log n)`; the other kernels scan
    /// their strips with the arithmetic of [`crate::strips`].
    fn raw_mass(&self, a: f64, b: f64) -> f64 {
        debug_assert!(a <= b);
        let n = self.sorted.len() as f64;
        let xs = &self.sorted[..];
        if let Some(table) = self.moments() {
            let h = self.h;
            let cuts = [
                xs.partition_point(|&x| x <= a - h),
                xs.partition_point(|&x| x < a + h),
                xs.partition_point(|&x| x <= b - h),
                xs.partition_point(|&x| x < b + h),
            ];
            return table.raw_term(xs, a, b, cuts) / n;
        }
        let reach = self.kernel.support_radius() * self.h;
        // Samples in [a + reach, b - reach] contribute exactly 1.
        let full_lo = a + reach;
        let full_hi = b - reach;
        let wide = full_hi >= full_lo;
        let i0 = xs.partition_point(|&x| x < a - reach);
        let i3 = xs.partition_point(|&x| x <= b + reach);
        let (i1, i2) = if wide {
            (
                xs.partition_point(|&x| x < full_lo),
                xs.partition_point(|&x| x <= full_hi),
            )
        } else {
            // Query narrower than the kernel reach: the strips overlap and
            // no sample can contribute a full one.
            (0, 0)
        };
        raw_term_sum(self.kernel, xs, a, b, self.inv_h, wide, i0, i1, i2, i3) / n
    }

    /// Untreated density at `x` over the real line.
    fn raw_density(&self, x: f64) -> f64 {
        let reach = self.kernel.support_radius() * self.h;
        let i0 = self.sorted.partition_point(|&v| v < x - reach);
        let i1 = self.sorted.partition_point(|&v| v <= x + reach);
        let sum: f64 = self.sorted[i0..i1]
            .iter()
            .map(|&v| self.kernel.eval((x - v) / self.h))
            .sum();
        sum / (self.sorted.len() as f64 * self.h)
    }

    /// Boundary-kernel selectivity (Epanechnikov interior). `a <= b`, both
    /// inside the domain. Accumulates the interior, left strip and right
    /// strip in that order; the edge strips come from
    /// [`MomentTable::boundary_strip`].
    fn boundary_kernel_mass(&self, a: f64, b: f64) -> f64 {
        let (l, r) = (self.domain.lo(), self.domain.hi());
        let h = self.h;
        let n = self.sorted.len() as f64;
        let table = self
            .moments()
            .expect("boundary-kernel estimators are Epanechnikov");
        let mut s = 0.0;

        // Interior piece: x in [a, b] intersected with [l + h, r - h].
        let x1 = a.max(l + h);
        let x2 = b.min(r - h);
        if x2 > x1 {
            s += self.raw_mass(x1, x2) * n;
        }

        // Left strip piece: x in [a, b] ∩ [l, l + h), in v = (x - l)/h
        // coordinates.
        let la = a.max(l);
        let lb = b.min(l + h);
        if lb > la {
            s += table.boundary_strip(&self.sorted, (la - l) / h, (lb - l) / h, true);
        }

        // Right strip piece, by mirroring the domain: m(x) = l + r - x.
        let ra = a.max(r - h);
        let rb = b.min(r);
        if rb > ra {
            s += table.boundary_strip(&self.sorted, (r - rb) / h, (r - ra) / h, false);
        }
        s / n
    }

    /// Boundary-kernel density at `x` inside the domain.
    fn boundary_kernel_density(&self, x: f64) -> f64 {
        let (l, r) = (self.domain.lo(), self.domain.hi());
        let h = self.h;
        if x < l + h {
            let q = (x - l) / h;
            let hi_idx = self.sorted.partition_point(|&v| v <= x + h);
            let sum: f64 = self.sorted[..hi_idx]
                .iter()
                .map(|&v| left_boundary_kernel((x - v) / h, q))
                .sum();
            sum / (self.sorted.len() as f64 * h)
        } else if x > r - h {
            let q = (r - x) / h;
            let lo_idx = self.sorted.partition_point(|&v| v < x - h);
            let sum: f64 = self.sorted[lo_idx..]
                .iter()
                .map(|&v| left_boundary_kernel((v - x) / h, q))
                .sum();
            sum / (self.sorted.len() as f64 * h)
        } else {
            self.raw_density(x)
        }
    }

    /// The paper's Algorithm 1: `Theta(n)` linear scan with the four-case
    /// split (untreated boundaries). Kept as the reference the tests check
    /// the sorted fast path against.
    pub fn selectivity_linear(&self, q: &RangeQuery) -> f64 {
        let (a, b) = (q.a().max(self.domain.lo()), q.b().min(self.domain.hi()));
        if b < a {
            return 0.0;
        }
        let reach = self.kernel.support_radius() * self.h;
        let mut s = 0.0;
        for &x in self.sorted.iter() {
            let in_left_strip = x >= a - reach && x <= a + reach;
            let in_right_strip = x >= b - reach && x <= b + reach;
            if x >= a + reach && x <= b - reach {
                s += 1.0;
            } else if in_left_strip && !in_right_strip {
                // 1 - CDF((a - x)/h); the paper writes 0.5 - F((a-x)/h) with
                // its centered primitive F = CDF - 1/2.
                s += 1.0 - self.kernel.cdf((a - x) / self.h);
            } else if in_right_strip && !in_left_strip {
                // CDF((b - x)/h); the paper's printed "- 0.5" is a typo.
                s += self.kernel.cdf((b - x) / self.h);
            } else if in_left_strip && in_right_strip {
                s += self.kernel.cdf((b - x) / self.h) - self.kernel.cdf((a - x) / self.h);
            }
        }
        s / self.sorted.len() as f64
    }
}

impl SelectivityEstimator for KernelEstimator {
    fn selectivity(&self, q: &RangeQuery) -> f64 {
        let (l, r) = (self.domain.lo(), self.domain.hi());
        let a = q.a().max(l);
        let b = q.b().min(r);
        if b < a {
            return 0.0;
        }
        let est = match self.boundary {
            BoundaryPolicy::NoTreatment => self.raw_mass(a, b),
            BoundaryPolicy::Reflection => {
                // Reflecting the boundary-strip samples is equivalent to
                // also evaluating the raw estimator on the mirrored query.
                let mut s = self.raw_mass(a, b);
                let reach = self.kernel.support_radius() * self.h;
                if a < l + reach {
                    s += self.raw_mass(2.0 * l - b, 2.0 * l - a);
                }
                if b > r - reach {
                    s += self.raw_mass(2.0 * r - b, 2.0 * r - a);
                }
                s
            }
            BoundaryPolicy::BoundaryKernel => self.boundary_kernel_mass(a, b),
        };
        est.clamp(0.0, 1.0)
    }

    fn domain(&self) -> Domain {
        self.domain
    }

    fn name(&self) -> String {
        format!("Kernel({},{})", self.kernel.name(), self.boundary.label())
    }
}

impl DensityEstimator for KernelEstimator {
    fn density(&self, x: f64) -> f64 {
        if !self.domain.contains(x) {
            return 0.0;
        }
        match self.boundary {
            BoundaryPolicy::NoTreatment => self.raw_density(x),
            BoundaryPolicy::Reflection => {
                let (l, r) = (self.domain.lo(), self.domain.hi());
                let mut d = self.raw_density(x);
                let reach = self.kernel.support_radius() * self.h;
                if x < l + reach {
                    d += self.raw_density(2.0 * l - x);
                }
                if x > r - reach {
                    d += self.raw_density(2.0 * r - x);
                }
                d
            }
            BoundaryPolicy::BoundaryKernel => self.boundary_kernel_density(x),
        }
    }

    fn domain(&self) -> Domain {
        self.domain
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use selest_math::simpson;

    /// Deterministic pseudo-uniform samples strictly inside [0, 100].
    fn uniform_samples(n: usize) -> Vec<f64> {
        (0..n)
            .map(|i| 100.0 * (i as f64 + 0.5) / n as f64)
            .collect()
    }

    fn domain() -> Domain {
        Domain::new(0.0, 100.0)
    }

    fn every_policy() -> [BoundaryPolicy; 3] {
        [
            BoundaryPolicy::NoTreatment,
            BoundaryPolicy::Reflection,
            BoundaryPolicy::BoundaryKernel,
        ]
    }

    #[test]
    fn sorted_fast_path_matches_algorithm_one() {
        let samples = uniform_samples(400);
        for kernel in [
            KernelFn::Epanechnikov,
            KernelFn::Gaussian,
            KernelFn::Biweight,
        ] {
            let est =
                KernelEstimator::new(&samples, domain(), kernel, 4.0, BoundaryPolicy::NoTreatment);
            for (a, b) in [
                (10.0, 30.0),
                (0.0, 5.0),
                (95.0, 100.0),
                (49.9, 50.1),
                (0.0, 100.0),
            ] {
                let q = RangeQuery::new(a, b);
                let fast = est.selectivity(&q);
                let linear = est.selectivity_linear(&q).clamp(0.0, 1.0);
                assert!(
                    (fast - linear).abs() < 1e-12,
                    "{} on [{a},{b}]: fast {fast} vs linear {linear}",
                    kernel.name()
                );
            }
        }
    }

    #[test]
    fn selectivity_equals_integral_of_density() {
        // The analytic selectivity must agree with quadrature over the
        // pointwise density for every boundary policy — this pins down the
        // closed-form boundary-kernel primitives.
        let samples = uniform_samples(150);
        for policy in every_policy() {
            let est = KernelEstimator::new(&samples, domain(), KernelFn::Epanechnikov, 6.0, policy);
            for (a, b) in [
                (0.0, 10.0),
                (2.0, 9.0),
                (40.0, 60.0),
                (88.0, 100.0),
                (3.0, 97.0),
            ] {
                let q = RangeQuery::new(a, b);
                let sel = est.selectivity(&q);
                let num = simpson(|x| est.density(x), a, b, 20_000);
                assert!(
                    (sel - num).abs() < 1e-6,
                    "{policy:?} on [{a},{b}]: analytic {sel} vs quadrature {num}"
                );
            }
        }
    }

    #[test]
    fn interior_queries_are_policy_independent() {
        let samples = uniform_samples(200);
        let q = RangeQuery::new(40.0, 55.0); // > h away from both boundaries
        let mut values = Vec::new();
        for policy in every_policy() {
            let est = KernelEstimator::new(&samples, domain(), KernelFn::Epanechnikov, 5.0, policy);
            values.push(est.selectivity(&q));
        }
        assert!((values[0] - values[1]).abs() < 1e-12);
        assert!((values[0] - values[2]).abs() < 1e-12);
    }

    #[test]
    fn full_domain_mass_with_reflection_is_one() {
        let samples = uniform_samples(97);
        let est = KernelEstimator::new(
            &samples,
            domain(),
            KernelFn::Epanechnikov,
            7.0,
            BoundaryPolicy::Reflection,
        );
        let q = RangeQuery::new(0.0, 100.0);
        assert!((est.selectivity(&q) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn full_domain_mass_untreated_loses_weight() {
        // The paper's "loss of weight": mass leaks past the boundaries.
        let samples = uniform_samples(97);
        let est = KernelEstimator::new(
            &samples,
            domain(),
            KernelFn::Epanechnikov,
            7.0,
            BoundaryPolicy::NoTreatment,
        );
        let s = est.selectivity(&RangeQuery::new(0.0, 100.0));
        assert!(s < 0.99, "expected weight loss, got {s}");
        assert!(s > 0.9);
    }

    #[test]
    fn full_domain_mass_with_boundary_kernels_is_near_one() {
        let samples = uniform_samples(97);
        let est = KernelEstimator::new(
            &samples,
            domain(),
            KernelFn::Epanechnikov,
            7.0,
            BoundaryPolicy::BoundaryKernel,
        );
        let s = est.selectivity(&RangeQuery::new(0.0, 100.0));
        // Consistent but not a density: integral near (and typically above) 1.
        assert!((s - 1.0).abs() < 0.05, "mass {s}");
    }

    #[test]
    fn boundary_treatments_fix_edge_queries() {
        // 5%-of-domain query flush against the left boundary of uniform
        // data: truth is 0.05.
        let samples = uniform_samples(500);
        let q = RangeQuery::new(0.0, 5.0);
        let err = |policy| {
            let est = KernelEstimator::new(&samples, domain(), KernelFn::Epanechnikov, 8.0, policy);
            (est.selectivity(&q) - 0.05f64).abs()
        };
        let untreated = err(BoundaryPolicy::NoTreatment);
        let reflected = err(BoundaryPolicy::Reflection);
        let bk = err(BoundaryPolicy::BoundaryKernel);
        assert!(
            untreated > 3.0 * reflected,
            "reflection should beat no treatment: {untreated} vs {reflected}"
        );
        assert!(
            untreated > 3.0 * bk,
            "boundary kernels should beat no treatment: {untreated} vs {bk}"
        );
    }

    #[test]
    fn estimates_are_monotone_in_query_extension() {
        let samples = uniform_samples(300);
        for policy in [BoundaryPolicy::NoTreatment, BoundaryPolicy::Reflection] {
            let est = KernelEstimator::new(&samples, domain(), KernelFn::Epanechnikov, 3.0, policy);
            let mut prev = 0.0;
            for i in 1..=20 {
                let b = 5.0 * i as f64;
                let s = est.selectivity(&RangeQuery::new(0.0, b));
                assert!(s >= prev - 1e-12, "{policy:?}: not monotone at b={b}");
                prev = s;
            }
        }
    }

    #[test]
    fn queries_outside_domain_are_clipped() {
        let samples = uniform_samples(100);
        let est = KernelEstimator::new(
            &samples,
            domain(),
            KernelFn::Epanechnikov,
            2.0,
            BoundaryPolicy::Reflection,
        );
        let inside = est.selectivity(&RangeQuery::new(0.0, 50.0));
        let overhanging = est.selectivity(&RangeQuery::new(-40.0, 50.0));
        assert!((inside - overhanging).abs() < 1e-12);
    }

    #[test]
    fn tiny_query_in_dense_region_is_positive() {
        let samples = uniform_samples(1000);
        let est = KernelEstimator::new(
            &samples,
            domain(),
            KernelFn::Epanechnikov,
            1.0,
            BoundaryPolicy::Reflection,
        );
        let s = est.selectivity(&RangeQuery::new(50.0, 50.2));
        assert!(s > 0.0005 && s < 0.005, "got {s}");
    }

    #[test]
    fn density_integrates_to_selectivity_one_bump() {
        // Single sample: the density is one kernel bump.
        let est = KernelEstimator::new(
            &[50.0],
            domain(),
            KernelFn::Epanechnikov,
            10.0,
            BoundaryPolicy::NoTreatment,
        );
        assert!((est.density(50.0) - 0.075).abs() < 1e-12); // K(0)/h = 0.75/10
        assert_eq!(est.density(61.0), 0.0);
        let q = RangeQuery::new(40.0, 60.0);
        assert!((est.selectivity(&q) - 1.0).abs() < 1e-12);
        let half = RangeQuery::new(50.0, 60.0);
        assert!((est.selectivity(&half) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn paper_sign_typo_would_break_the_estimator() {
        // With the paper's printed third case (F - 0.5 instead of F + 0.5,
        // i.e. CDF - 1), a query covering the right strip of a point mass
        // would get a negative contribution. Guard our corrected version.
        let est = KernelEstimator::new(
            &[50.0],
            domain(),
            KernelFn::Epanechnikov,
            10.0,
            BoundaryPolicy::NoTreatment,
        );
        // Sample in right strip only: a + h < x, b - h < x < b + h.
        let q = RangeQuery::new(20.0, 55.0);
        let s = est.selectivity_linear(&q);
        let expect = KernelFn::Epanechnikov.cdf(0.5);
        assert!((s - expect).abs() < 1e-12, "got {s}, want {expect}");
        assert!(s > 0.5, "correct sign gives > 1/2 here");
    }

    #[test]
    #[should_panic(expected = "boundary kernels are derived for the Epanechnikov")]
    fn boundary_kernels_require_epanechnikov() {
        let _ = KernelEstimator::new(
            &[1.0, 2.0],
            domain(),
            KernelFn::Gaussian,
            1.0,
            BoundaryPolicy::BoundaryKernel,
        );
    }

    #[test]
    #[should_panic(expected = "exceeds half the domain width")]
    fn boundary_kernels_reject_huge_bandwidth() {
        let _ = KernelEstimator::new(
            &[1.0, 2.0],
            domain(),
            KernelFn::Epanechnikov,
            60.0,
            BoundaryPolicy::BoundaryKernel,
        );
    }

    #[test]
    #[should_panic(expected = "samples outside the domain")]
    fn samples_must_lie_in_domain() {
        let _ = KernelEstimator::new(
            &[1.0, 200.0],
            domain(),
            KernelFn::Epanechnikov,
            1.0,
            BoundaryPolicy::NoTreatment,
        );
    }
}
