//! The hybrid histogram/kernel estimator (Section 3.3).
//!
//! Change points partition the domain into histogram-style bins; adjacent
//! bins whose sample count is too small are merged; inside each bin an
//! independent kernel estimator runs with its *own* bandwidth chosen from
//! the bin's samples. The histogram layer absorbs the discontinuities that
//! break the smoothness assumption of kernel estimation, and the kernel
//! layer removes the uniform-within-bin assumption that limits histograms —
//! the combination wins on the spiky real data files (Figure 12).

use selest_core::{DensityEstimator, Domain, PreparedColumn, RangeQuery, SelectivityEstimator};
use selest_kernel::{BandwidthSelector, BoundaryPolicy, DirectPlugIn, KernelEstimator, KernelFn};

use crate::changepoint::{ChangePointDetector, SecondDerivativeDetector};

/// Within one hybrid bin: how the bin's probability mass is spread.
#[derive(Debug, Clone)]
enum BinModel {
    /// A full kernel estimator over the bin's sub-domain.
    Kernel(KernelEstimator),
    /// Too few samples for kernel estimation: uniform within the bin.
    Uniform,
    /// All samples share one value: a point mass there.
    PointMass(f64),
}

#[derive(Debug, Clone)]
struct HybridBin {
    lo: f64,
    hi: f64,
    /// Fraction of all samples falling in this bin.
    weight: f64,
    model: BinModel,
}

/// Configuration of the hybrid estimator.
pub struct HybridConfig {
    /// Change-point detector; defaults to the paper's second-derivative
    /// maxima.
    pub detector: Box<dyn ChangePointDetector>,
    /// Bins holding fewer than this fraction of the samples are merged into
    /// a neighbor ("adjacent bins are merged into one if the corresponding
    /// number of records is not sufficiently large").
    pub min_bin_fraction: f64,
    /// Boundary treatment at every bin edge.
    pub boundary: BoundaryPolicy,
    /// Per-bin bandwidth rule.
    pub bandwidth: Box<dyn BandwidthSelector>,
    /// Kernel for the per-bin estimators.
    pub kernel: KernelFn,
}

impl Default for HybridConfig {
    fn default() -> Self {
        HybridConfig {
            detector: Box::new(SecondDerivativeDetector::default()),
            min_bin_fraction: 0.02,
            boundary: BoundaryPolicy::BoundaryKernel,
            // Per-bin plug-in bandwidths: within a bin the density is still
            // far from normal on the spiky files the hybrid targets, so the
            // curvature-estimating rule clearly beats the normal scale rule
            // (mirroring the paper's Figure 11 finding at the bin level).
            bandwidth: Box::new(DirectPlugIn::two_stage()),
            kernel: KernelFn::Epanechnikov,
        }
    }
}

/// The hybrid histogram/kernel selectivity estimator.
///
/// # Examples
///
/// ```
/// use selest_core::{Domain, RangeQuery, SelectivityEstimator};
/// use selest_hybrid::HybridEstimator;
///
/// // A density with a sharp change point at 50: dense left, sparse right.
/// let mut sample: Vec<f64> = (0..900).map(|i| 50.0 * (i as f64 + 0.5) / 900.0).collect();
/// sample.extend((0..100).map(|i| 50.0 + 50.0 * (i as f64 + 0.5) / 100.0));
///
/// let est = HybridEstimator::new(&sample, Domain::new(0.0, 100.0));
/// // 90% of the mass sits left of the change point.
/// let left = est.selectivity(&RangeQuery::new(0.0, 50.0));
/// assert!((left - 0.9).abs() < 0.05);
/// ```
#[derive(Debug)]
pub struct HybridEstimator {
    bins: Vec<HybridBin>,
    domain: Domain,
    n_samples: usize,
}

impl HybridEstimator {
    /// Build with the default configuration (second-derivative change
    /// points, boundary kernels, Epanechnikov kernels with per-bin
    /// two-stage direct plug-in bandwidths).
    pub fn new(samples: &[f64], domain: Domain) -> Self {
        Self::with_config(samples, domain, &HybridConfig::default())
    }

    /// Build with an explicit configuration.
    pub fn with_config(samples: &[f64], domain: Domain, config: &HybridConfig) -> Self {
        Self::from_prepared_with_config(&PreparedColumn::prepare(samples, domain), config)
    }

    /// [`HybridEstimator::new`] over a prepared column: change-point
    /// detection, bin counting, and per-bin fits all read the column's
    /// shared sorted slice — no copy, no re-sort.
    pub fn from_prepared(col: &PreparedColumn) -> Self {
        Self::from_prepared_with_config(col, &HybridConfig::default())
    }

    /// [`HybridEstimator::with_config`] over a prepared column: the
    /// change-point partition, the bin merge, and one kernel fit per bin.
    pub fn from_prepared_with_config(col: &PreparedColumn, config: &HybridConfig) -> Self {
        assert!(
            (0.0..0.5).contains(&config.min_bin_fraction),
            "min_bin_fraction out of [0, 0.5): {}",
            config.min_bin_fraction
        );
        let (sorted, domain) = (col.sorted(), col.domain());
        assert!(
            domain.contains(sorted[0]) && domain.contains(*sorted.last().expect("nonempty")),
            "samples outside domain {domain}"
        );
        let n = sorted.len();

        // 1. Candidate boundaries from the change points.
        let mut boundaries = vec![domain.lo()];
        boundaries.extend(
            config
                .detector
                .change_points(sorted, &domain)
                .into_iter()
                .filter(|&c| c > domain.lo() && c < domain.hi()),
        );
        boundaries.push(domain.hi());

        // 2. Merge under-populated bins into their left neighbor (the first
        // bin merges right), repeating until every bin is large enough.
        let min_count = ((config.min_bin_fraction * n as f64).ceil() as usize).max(1);
        let count_in = |lo: f64, hi: f64, first: bool| {
            let i0 = if first {
                0
            } else {
                sorted.partition_point(|&v| v <= lo)
            };
            let i1 = sorted.partition_point(|&v| v <= hi);
            (i0, i1)
        };
        loop {
            if boundaries.len() <= 2 {
                break;
            }
            let mut merged = false;
            for i in 0..boundaries.len() - 1 {
                let (i0, i1) = count_in(boundaries[i], boundaries[i + 1], i == 0);
                if i1 - i0 < min_count {
                    // Drop the boundary shared with a neighbor: the last
                    // bin merges left, others merge right.
                    let drop_idx = if i + 2 == boundaries.len() { i } else { i + 1 };
                    boundaries.remove(drop_idx);
                    merged = true;
                    break;
                }
            }
            if !merged {
                break;
            }
        }

        // 3. Fit one model per bin.
        let mut bins = Vec::with_capacity(boundaries.len() - 1);
        for i in 0..boundaries.len() - 1 {
            let (lo, hi) = (boundaries[i], boundaries[i + 1]);
            let (i0, i1) = count_in(lo, hi, i == 0);
            let bin_samples = &sorted[i0..i1];
            let weight = bin_samples.len() as f64 / n as f64;
            let model = Self::fit_bin(bin_samples, lo, hi, config);
            bins.push(HybridBin {
                lo,
                hi,
                weight,
                model,
            });
        }
        HybridEstimator {
            bins,
            domain,
            n_samples: n,
        }
    }

    /// `bin_samples` is the bin's slice of the sorted sample; a bin worth
    /// a kernel is prepared once, and its robust scale, bandwidth and
    /// estimator all read that one preparation.
    fn fit_bin(bin_samples: &[f64], lo: f64, hi: f64, config: &HybridConfig) -> BinModel {
        if bin_samples.len() < 8 {
            return BinModel::Uniform;
        }
        let col = PreparedColumn::prepare(bin_samples, Domain::new(lo, hi));
        if col.summary().robust_scale <= 0.0 {
            return BinModel::PointMass(bin_samples[0]);
        }
        let mut h = config.bandwidth.bandwidth_prepared(&col, config.kernel);
        // Respect the per-bin sub-domain: boundary kernels need
        // h <= width/2, and any larger h oversmooths a bin this narrow.
        let cap = 0.5 * col.domain().width();
        if h > cap {
            h = cap;
        }
        if h <= 0.0 {
            return BinModel::Uniform;
        }
        BinModel::Kernel(KernelEstimator::from_prepared(
            &col,
            config.kernel,
            h,
            config.boundary,
        ))
    }

    /// Number of (merged) bins.
    pub fn n_bins(&self) -> usize {
        self.bins.len()
    }

    /// The bin boundaries, `n_bins() + 1` values.
    pub fn boundaries(&self) -> Vec<f64> {
        let mut b: Vec<f64> = self.bins.iter().map(|bin| bin.lo).collect();
        b.push(self.domain.hi());
        b
    }

    /// Number of samples.
    pub fn sample_size(&self) -> usize {
        self.n_samples
    }
}

impl SelectivityEstimator for HybridEstimator {
    fn selectivity(&self, q: &RangeQuery) -> f64 {
        let a = q.a().max(self.domain.lo());
        let b = q.b().min(self.domain.hi());
        if b < a {
            return 0.0;
        }
        let mut total = 0.0;
        for bin in &self.bins {
            if bin.hi < a || bin.lo > b || bin.weight == 0.0 {
                continue;
            }
            let (qa, qb) = (a.max(bin.lo), b.min(bin.hi));
            let inner = match &bin.model {
                BinModel::Kernel(est) => est.selectivity(&RangeQuery::new(qa, qb)),
                BinModel::Uniform => (qb - qa) / (bin.hi - bin.lo),
                BinModel::PointMass(v) => {
                    if qa <= *v && *v <= qb {
                        1.0
                    } else {
                        0.0
                    }
                }
            };
            total += bin.weight * inner;
        }
        total.clamp(0.0, 1.0)
    }

    fn domain(&self) -> Domain {
        self.domain
    }

    fn name(&self) -> String {
        "Hybrid".into()
    }
}

impl DensityEstimator for HybridEstimator {
    fn density(&self, x: f64) -> f64 {
        if !self.domain.contains(x) {
            return 0.0;
        }
        // x belongs to the bin with lo < x <= hi (first bin closed at lo).
        for (i, bin) in self.bins.iter().enumerate() {
            let inside = if i == 0 {
                x >= bin.lo && x <= bin.hi
            } else {
                x > bin.lo && x <= bin.hi
            };
            if !inside {
                continue;
            }
            return match &bin.model {
                BinModel::Kernel(est) => bin.weight * est.density(x),
                BinModel::Uniform => bin.weight / (bin.hi - bin.lo),
                BinModel::PointMass(v) => {
                    if x == *v {
                        f64::INFINITY
                    } else {
                        0.0
                    }
                }
            };
        }
        0.0
    }

    fn domain(&self) -> Domain {
        self.domain
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use selest_core::ErrorStats;
    use selest_kernel::NormalScale;

    /// Dense uniform on [0, 50), sparse uniform on [50, 100): a density
    /// with one sharp change point.
    fn step_sample(n_dense: usize, n_sparse: usize) -> Vec<f64> {
        let mut v: Vec<f64> = (0..n_dense)
            .map(|i| 50.0 * (i as f64 + 0.5) / n_dense as f64)
            .collect();
        v.extend((0..n_sparse).map(|i| 50.0 + 50.0 * (i as f64 + 0.5) / n_sparse as f64));
        v
    }

    fn dom() -> Domain {
        Domain::new(0.0, 100.0)
    }

    #[test]
    fn full_domain_mass_is_one() {
        let est = HybridEstimator::new(&step_sample(900, 100), dom());
        let s = est.selectivity(&RangeQuery::new(0.0, 100.0));
        assert!((s - 1.0).abs() < 0.02, "mass {s}");
    }

    #[test]
    fn partitions_at_the_density_step() {
        let est = HybridEstimator::new(&step_sample(900, 100), dom());
        assert!(est.n_bins() >= 2, "no partitioning happened");
        let b = est.boundaries();
        assert!(
            b.iter().any(|&c| (c - 50.0).abs() < 8.0),
            "no bin boundary near the step: {b:?}"
        );
    }

    #[test]
    fn hybrid_beats_plain_kernel_at_the_change_point() {
        // Queries straddling the density step are exactly where a global
        // bandwidth fails (the paper's motivation for the hybrid).
        let samples = step_sample(1800, 200);
        let truth = |a: f64, b: f64| {
            // 90% mass uniform on [0,50), 10% on [50,100).
            let dense = ((b.min(50.0) - a.min(50.0)).max(0.0)) / 50.0 * 0.9;
            let sparse = ((b.max(50.0) - a.max(50.0)).max(0.0)) / 50.0 * 0.1;
            dense + sparse
        };
        let hybrid = HybridEstimator::new(&samples, dom());
        let plain = KernelEstimator::new(
            &samples,
            dom(),
            KernelFn::Epanechnikov,
            NormalScale.bandwidth(&samples, KernelFn::Epanechnikov),
            BoundaryPolicy::BoundaryKernel,
        );
        let mut hybrid_err = ErrorStats::new();
        let mut plain_err = ErrorStats::new();
        for i in 0..40 {
            let c = 44.0 + 12.0 * i as f64 / 40.0; // straddles 50
            let q = RangeQuery::new(c - 2.0, c + 2.0);
            let t = truth(q.a(), q.b()) * 2_000.0;
            hybrid_err.record(t, hybrid.selectivity(&q) * 2_000.0);
            plain_err.record(t, plain.selectivity(&q) * 2_000.0);
        }
        assert!(
            hybrid_err.mean_relative_error() < plain_err.mean_relative_error(),
            "hybrid {} should beat plain kernel {} at the change point",
            hybrid_err.mean_relative_error(),
            plain_err.mean_relative_error()
        );
    }

    #[test]
    fn small_bins_are_merged() {
        // A detector that splinters the domain: merging must keep every
        // bin at >= 10% of the samples.
        struct Splinter;
        impl ChangePointDetector for Splinter {
            fn change_points(&self, _s: &[f64], d: &Domain) -> Vec<f64> {
                (1..20)
                    .map(|i| d.lo() + d.width() * i as f64 / 20.0)
                    .collect()
            }
            fn name(&self) -> String {
                "splinter".into()
            }
        }
        let samples = step_sample(450, 50);
        let cfg = HybridConfig {
            detector: Box::new(Splinter),
            min_bin_fraction: 0.10,
            ..Default::default()
        };
        let est = HybridEstimator::with_config(&samples, dom(), &cfg);
        let min_count = (0.10 * samples.len() as f64).ceil();
        for bin in &est.bins {
            assert!(
                bin.weight * samples.len() as f64 >= min_count - 0.5,
                "bin [{}, {}] holds only {} samples",
                bin.lo,
                bin.hi,
                bin.weight * samples.len() as f64
            );
        }
    }

    #[test]
    fn point_mass_bins_handle_constant_regions() {
        // 60% of the data is the single value 25 (an iw-style stratum),
        // the rest uniform on [50, 100).
        let mut samples = vec![25.0; 600];
        samples.extend((0..400).map(|i| 50.0 + 50.0 * (i as f64 + 0.5) / 400.0));
        let cfg = HybridConfig {
            detector: Box::new(crate::changepoint::CusumDetector::default()),
            ..Default::default()
        };
        let est = HybridEstimator::with_config(&samples, dom(), &cfg);
        let hit = est.selectivity(&RangeQuery::new(24.0, 26.0));
        let miss = est.selectivity(&RangeQuery::new(30.0, 45.0));
        assert!(hit > 0.5, "point mass missed: {hit}");
        assert!(miss < 0.05, "phantom mass in empty region: {miss}");
    }

    #[test]
    fn density_matches_selectivity_by_quadrature() {
        let samples = step_sample(900, 100);
        let est = HybridEstimator::new(&samples, dom());
        for (a, b) in [(10.0, 30.0), (45.0, 55.0), (60.0, 95.0)] {
            let sel = est.selectivity(&RangeQuery::new(a, b));
            let num = selest_math::simpson(|x| est.density(x), a, b, 20_000);
            assert!(
                (sel - num).abs() < 5e-3,
                "[{a},{b}]: selectivity {sel} vs quadrature {num}"
            );
        }
    }

    #[test]
    fn uniform_data_stays_close_to_truth() {
        // No change points to find: the hybrid degenerates to (roughly) a
        // single kernel estimator and must stay accurate.
        let samples: Vec<f64> = (0..1_000)
            .map(|i| 100.0 * (i as f64 + 0.5) / 1_000.0)
            .collect();
        let est = HybridEstimator::new(&samples, dom());
        for (a, b, truth) in [(10.0, 20.0, 0.1), (0.0, 50.0, 0.5), (90.0, 100.0, 0.1)] {
            let s = est.selectivity(&RangeQuery::new(a, b));
            assert!((s - truth).abs() < 0.02, "[{a},{b}]: {s} vs {truth}");
        }
    }
}
