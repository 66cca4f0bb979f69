//! Bandwidth selection (Sections 4.2 and 4.3 of the paper).
//!
//! The AMISE of a kernel estimator,
//!
//! ```text
//! AMISE(h) = h^4 k2^2 R(f'') / 4  +  R(K) / (n h),
//! ```
//!
//! is minimized at `h = ( R(K) / (k2^2 R(f'') n) )^(1/5)`. `R(f'')` is
//! unknown; the selectors below differ in how they approximate it:
//!
//! * [`NormalScale`] substitutes the normal density with the sample's
//!   robust scale `s = min(stddev, IQR/1.349)`, giving the paper's
//!   `h ≈ 2.345 · s · n^(-1/5)` for the Epanechnikov kernel.
//! * [`DirectPlugIn`] estimates `R(f'') = psi_4` by kernel functional
//!   estimation with the given number of stages (the paper uses 2).
//! * [`Lscv`] (extension) minimizes the least-squares cross-validation
//!   score, a fully data-driven unbiased risk estimate.
//! * [`FixedBandwidth`] pins `h`, for oracle searches and experiments.

use selest_core::{Domain, PreparedColumn};
use selest_math::{brent_min, psi_plug_in_sorted, PsiStrategy};

use crate::kernels::KernelFn;

/// A rule that chooses the bandwidth `h` from the sample set.
///
/// Each selector has one implementation,
/// [`BandwidthSelector::bandwidth_prepared`], over a [`PreparedColumn`]:
/// it reads the column's shared sorted slice and cached summary.
/// [`BandwidthSelector::bandwidth`] only prepares the slice and delegates.
pub trait BandwidthSelector {
    /// Compute the bandwidth for a prepared column and kernel.
    fn bandwidth_prepared(&self, col: &PreparedColumn, kernel: KernelFn) -> f64;

    /// Compute the bandwidth for the given sample and kernel: prepares the
    /// sample and calls [`BandwidthSelector::bandwidth_prepared`].
    fn bandwidth(&self, samples: &[f64], kernel: KernelFn) -> f64 {
        // No selector reads the domain, and preparation does not check
        // membership, so any domain serves; the unit interval is used.
        self.bandwidth_prepared(&PreparedColumn::prepare(samples, Domain::unit()), kernel)
    }

    /// Short name used in experiment output (`"h-NS"`, `"h-DPI2"`, ...).
    fn name(&self) -> String;
}

/// The kernel-dependent constant of the normal scale rule:
/// `C(K) = ( 8 sqrt(pi) R(K) / (3 k2^2) )^(1/5)`, such that
/// `h = C(K) * s * n^(-1/5)`. For Epanechnikov this is the paper's 2.345.
pub fn normal_scale_constant(kernel: KernelFn) -> f64 {
    let r = kernel.roughness();
    let k2 = kernel.second_moment();
    (8.0 * core::f64::consts::PI.sqrt() * r / (3.0 * k2 * k2)).powf(0.2)
}

/// AMISE-optimal bandwidth given the true curvature functional
/// `R(f'') = Int f''(x)^2 dx`:
/// `h = ( R(K) / (k2^2 R(f'') n) )^(1/5)`.
pub fn amise_optimal_bandwidth(kernel: KernelFn, n: usize, r_f_second: f64) -> f64 {
    assert!(n > 0, "amise_optimal_bandwidth needs samples");
    assert!(
        r_f_second > 0.0,
        "R(f'') must be positive, got {r_f_second}"
    );
    let k2 = kernel.second_moment();
    (kernel.roughness() / (k2 * k2 * r_f_second * n as f64)).powf(0.2)
}

/// The AMISE value itself at bandwidth `h` (equation (9) combined):
/// useful for plotting the bias/variance trade-off.
pub fn amise(kernel: KernelFn, h: f64, n: usize, r_f_second: f64) -> f64 {
    let k2 = kernel.second_moment();
    0.25 * h.powi(4) * k2 * k2 * r_f_second + kernel.roughness() / (n as f64 * h)
}

/// Normal scale rule (Section 4.2): `h = C(K) * s * n^(-1/5)` with the
/// robust scale estimate `s = min(stddev, IQR / 1.349)`.
///
/// # Examples
///
/// ```
/// use selest_kernel::{BandwidthSelector, KernelFn, NormalScale};
///
/// let sample: Vec<f64> = (0..1000).map(|i| (i as f64 * 7.31) % 100.0).collect();
/// let h = NormalScale.bandwidth(&sample, KernelFn::Epanechnikov);
/// // 2.345 * s * n^(-1/5) with the robust scale of Uniform[0, 100).
/// assert!(h > 10.0 && h < 25.0);
/// ```
#[derive(Debug, Clone, Copy, Default)]
pub struct NormalScale;

impl BandwidthSelector for NormalScale {
    fn bandwidth_prepared(&self, col: &PreparedColumn, kernel: KernelFn) -> f64 {
        assert!(col.len() >= 2, "normal scale rule needs >= 2 samples");
        let s = col.summary().robust_scale;
        assert!(
            s > 0.0,
            "normal scale rule: sample is constant, no scale to estimate"
        );
        normal_scale_constant(kernel) * s * (col.len() as f64).powf(-0.2)
    }

    fn name(&self) -> String {
        "h-NS".into()
    }
}

/// Direct plug-in rule (Section 4.3): estimate `psi_4 = R(f'')` by staged
/// kernel functional estimation, then plug into the AMISE formula. The
/// paper reports results for two stages (`h-DPI2`).
///
/// The pairwise functional sum is evaluated by the [`PsiStrategy`] fast
/// paths of `selest-math` (DESIGN.md §9); [`DirectPlugIn::two_stage`]
/// uses [`PsiStrategy::Auto`], and [`DirectPlugIn::two_stage_naive`]
/// reproduces the exact `O(n^2)` arithmetic for cross-checks.
#[derive(Debug, Clone, Copy)]
pub struct DirectPlugIn {
    /// Number of functional-estimation stages; 0 degenerates to the normal
    /// scale value of `psi_4`.
    pub stages: usize,
    /// How each stage's pairwise functional sum is evaluated.
    pub strategy: PsiStrategy,
}

impl DirectPlugIn {
    /// The paper's choice: two stages, fast-path functional sums.
    pub fn two_stage() -> Self {
        DirectPlugIn {
            stages: 2,
            strategy: PsiStrategy::Auto,
        }
    }

    /// Two stages over the naive `O(n^2)` oracle sum — slow; exists so
    /// benches and tests can quantify the fast paths' drift.
    pub fn two_stage_naive() -> Self {
        DirectPlugIn {
            stages: 2,
            strategy: PsiStrategy::Naive,
        }
    }

    /// Replace the functional-sum strategy.
    pub fn with_strategy(self, strategy: PsiStrategy) -> Self {
        DirectPlugIn { strategy, ..self }
    }
}

impl BandwidthSelector for DirectPlugIn {
    fn bandwidth_prepared(&self, col: &PreparedColumn, kernel: KernelFn) -> f64 {
        assert!(col.len() >= 2, "plug-in rule needs >= 2 samples");
        let psi4 = psi_plug_in_sorted(
            col.values(),
            col.sorted(),
            4,
            self.stages,
            self.strategy,
            selest_par::configured_jobs(),
        );
        assert!(psi4 > 0.0, "psi_4 estimate must be positive, got {psi4}");
        amise_optimal_bandwidth(kernel, col.len(), psi4)
    }

    fn name(&self) -> String {
        format!("h-DPI{}", self.stages)
    }
}

/// Least-squares cross-validation (extension): minimize
///
/// ```text
/// LSCV(h) = R(f_hat) - 2/n * sum_i f_hat_{-i}(X_i)
///         = (n^2 h)^-1 sum_ij (K*K)((X_i - X_j)/h)
///           - 2 (n (n-1) h)^-1 sum_{i != j} K((X_i - X_j)/h)
/// ```
///
/// over `h`, bracketing around the normal scale value. Requires a kernel
/// with a closed-form self-convolution (Epanechnikov, Uniform, Gaussian).
#[derive(Debug, Clone, Copy, Default)]
pub struct Lscv;

/// The LSCV score at a single bandwidth, using
/// [`selest_par::configured_jobs`] workers. See [`lscv_score_jobs`].
pub fn lscv_score(sorted: &[f64], kernel: KernelFn, h: f64) -> f64 {
    lscv_score_jobs(sorted, kernel, h, selest_par::configured_jobs())
}

/// Fixed chunk length of the parallel LSCV pair scans; boundaries depend
/// only on the input length, never the worker count (the `selest-par`
/// determinism convention).
const LSCV_CHUNK: usize = 256;

/// The LSCV score at a single bandwidth with an explicit worker count.
/// Exposed for diagnostics and tests.
///
/// `sorted` must be sorted ascending (the selectors sort once up front and
/// reuse the sorted copy for every score evaluation): the pair scan for
/// each `i` then early-breaks as soon as the gap `X_j - X_i` exceeds the
/// self-convolution support `2 r h`, making each score `O(n * k)` with `k`
/// the in-window pair count — never the full `O(n^2)` loop. The scan is
/// split into fixed 256-index chunks of `i` whose partial sums merge in
/// chunk order, so the score is bit-identical for every `jobs` value.
pub fn lscv_score_jobs(sorted: &[f64], kernel: KernelFn, h: f64, jobs: usize) -> f64 {
    assert!(h > 0.0, "lscv_score needs h > 0");
    let n = sorted.len();
    assert!(n >= 2, "lscv_score needs >= 2 samples");
    debug_assert!(
        sorted.windows(2).all(|w| w[0] <= w[1]),
        "lscv_score needs a sorted sample"
    );
    let conv0 = kernel
        .self_convolution(0.0)
        .expect("LSCV requires a kernel with closed-form self-convolution");
    let reach = 2.0 * kernel.support_radius() * h;
    // Small inputs run inline: the chunked computation is identical either
    // way, so this threshold cannot change the result.
    let jobs = if n < 2_048 { 1 } else { jobs };
    // Fan out over chunk start offsets (not a 0..n index vector): LSCV
    // minimization evaluates this score many times per bandwidth search,
    // so per-call allocation stays proportional to the chunk count.
    let starts: Vec<usize> = (0..n).step_by(LSCV_CHUNK).collect();
    let partials = selest_par::parallel_map_jobs(&starts, jobs, |&start| {
        let end = (start + LSCV_CHUNK).min(n);
        let mut conv = 0.0;
        let mut cross = 0.0;
        for i in start..end {
            for j in (i + 1)..n {
                let d = sorted[j] - sorted[i];
                if d > reach {
                    break; // sorted: no farther pair can be in reach
                }
                let t = d / h;
                conv += 2.0 * kernel.self_convolution(t).expect("checked above");
                cross += 2.0 * kernel.eval(t);
            }
        }
        (conv, cross)
    });
    let mut conv_sum = n as f64 * conv0; // diagonal terms
    let mut cross_sum = 0.0;
    for (conv, cross) in partials {
        conv_sum += conv;
        cross_sum += cross;
    }
    let nf = n as f64;
    conv_sum / (nf * nf * h) - 2.0 * cross_sum / (nf * (nf - 1.0) * h)
}

impl BandwidthSelector for Lscv {
    fn bandwidth_prepared(&self, col: &PreparedColumn, kernel: KernelFn) -> f64 {
        let pivot = NormalScale.bandwidth_prepared(col, kernel);
        let sorted = col.sorted();
        // Search log h over [pivot/16, 4*pivot]: undersmoothing is the
        // typical LSCV failure mode, so the bracket reaches far down.
        let lo = (pivot / 16.0).ln();
        let hi = (4.0 * pivot).ln();
        let res = brent_min(|lh| lscv_score(sorted, kernel, lh.exp()), lo, hi, 1e-4);
        res.x.exp()
    }

    fn name(&self) -> String {
        "h-LSCV".into()
    }
}

/// A constant bandwidth; used to express oracle searches and sweeps.
#[derive(Debug, Clone, Copy)]
pub struct FixedBandwidth(pub f64);

impl BandwidthSelector for FixedBandwidth {
    fn bandwidth_prepared(&self, _col: &PreparedColumn, _kernel: KernelFn) -> f64 {
        assert!(self.0 > 0.0, "FixedBandwidth must be positive");
        self.0
    }

    fn name(&self) -> String {
        format!("h={}", self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use selest_math::{normal_quantile, robust_scale};

    fn normal_sample(n: usize, sigma: f64) -> Vec<f64> {
        (1..=n)
            .map(|i| sigma * normal_quantile(i as f64 / (n as f64 + 1.0)))
            .collect()
    }

    #[test]
    fn epanechnikov_constant_is_the_papers() {
        let c = normal_scale_constant(KernelFn::Epanechnikov);
        assert!((c - 2.345).abs() < 5e-4, "C = {c}");
    }

    #[test]
    fn gaussian_constant_is_silvermans() {
        // For the Gaussian kernel the normal scale rule is h = 1.059 s n^-1/5.
        let c = normal_scale_constant(KernelFn::Gaussian);
        assert!((c - 1.0592).abs() < 1e-3, "C = {c}");
    }

    #[test]
    fn normal_scale_matches_formula() {
        let xs = normal_sample(1000, 3.0);
        let h = NormalScale.bandwidth(&xs, KernelFn::Epanechnikov);
        let s = robust_scale(&xs);
        let expect = 2.3449 * s * 1000f64.powf(-0.2);
        assert!(
            (h - expect).abs() < 1e-3 * expect,
            "h = {h}, expect {expect}"
        );
    }

    #[test]
    fn amise_formula_reduces_to_normal_scale_under_normality() {
        // With R(f'') of a true normal with sigma = 2, the AMISE-optimal h
        // must equal C(K) * sigma * n^(-1/5).
        let sigma: f64 = 2.0;
        let r_fdd = 3.0 / (8.0 * core::f64::consts::PI.sqrt() * sigma.powi(5));
        let h = amise_optimal_bandwidth(KernelFn::Epanechnikov, 500, r_fdd);
        let expect = normal_scale_constant(KernelFn::Epanechnikov) * sigma * 500f64.powf(-0.2);
        assert!((h - expect).abs() < 1e-10 * expect);
    }

    #[test]
    fn amise_is_minimized_at_the_formula_bandwidth() {
        let r_fdd = 0.3;
        let n = 800;
        let h_star = amise_optimal_bandwidth(KernelFn::Epanechnikov, n, r_fdd);
        let at_star = amise(KernelFn::Epanechnikov, h_star, n, r_fdd);
        for &factor in &[0.5, 0.8, 1.25, 2.0] {
            let v = amise(KernelFn::Epanechnikov, h_star * factor, n, r_fdd);
            assert!(v > at_star, "AMISE at {factor} h* not larger");
        }
    }

    #[test]
    fn plug_in_agrees_with_normal_scale_on_normal_data() {
        let xs = normal_sample(600, 1.0);
        let ns = NormalScale.bandwidth(&xs, KernelFn::Epanechnikov);
        let dpi = DirectPlugIn::two_stage().bandwidth(&xs, KernelFn::Epanechnikov);
        assert!(
            (dpi - ns).abs() < 0.2 * ns,
            "on normal data DPI ({dpi}) should be near NS ({ns})"
        );
    }

    #[test]
    fn plug_in_shrinks_bandwidth_for_rough_densities() {
        // Bimodal data: more curvature, so DPI must choose a smaller h than
        // the normal scale rule, which only sees the (large) overall scale.
        let half = normal_sample(300, 0.3);
        let mut bimodal: Vec<f64> = half.iter().map(|x| x - 2.0).collect();
        bimodal.extend(half.iter().map(|x| x + 2.0));
        let ns = NormalScale.bandwidth(&bimodal, KernelFn::Epanechnikov);
        let dpi = DirectPlugIn::two_stage().bandwidth(&bimodal, KernelFn::Epanechnikov);
        assert!(dpi < 0.6 * ns, "DPI {dpi} should be well below NS {ns}");
    }

    #[test]
    fn lscv_lands_near_the_amise_optimum_on_normal_data() {
        let xs = normal_sample(400, 1.0);
        let h_lscv = Lscv.bandwidth(&xs, KernelFn::Epanechnikov);
        let r_fdd = 3.0 / (8.0 * core::f64::consts::PI.sqrt());
        let h_star = amise_optimal_bandwidth(KernelFn::Epanechnikov, 400, r_fdd);
        assert!(
            h_lscv > 0.4 * h_star && h_lscv < 2.5 * h_star,
            "LSCV {h_lscv} vs AMISE {h_star}"
        );
    }

    #[test]
    fn lscv_score_prefers_reasonable_bandwidths() {
        let mut xs = normal_sample(300, 1.0);
        xs.sort_by(|a, b| a.partial_cmp(b).unwrap());
        let good = lscv_score(&xs, KernelFn::Epanechnikov, 0.4);
        let tiny = lscv_score(&xs, KernelFn::Epanechnikov, 0.001);
        let huge = lscv_score(&xs, KernelFn::Epanechnikov, 50.0);
        assert!(good < tiny, "undersmoothing should score worse");
        assert!(good < huge, "oversmoothing should score worse");
    }

    #[test]
    fn lscv_score_is_bit_identical_for_any_job_count() {
        // n >= 2048 so the parallel path actually engages.
        let mut xs = normal_sample(2_500, 1.0);
        xs.sort_by(|a, b| a.partial_cmp(b).unwrap());
        for h in [0.1, 0.4, 2.0] {
            let reference = lscv_score_jobs(&xs, KernelFn::Epanechnikov, h, 1);
            for jobs in [2usize, 3, 7] {
                let got = lscv_score_jobs(&xs, KernelFn::Epanechnikov, h, jobs);
                assert_eq!(got.to_bits(), reference.to_bits(), "h={h} jobs={jobs}");
            }
        }
    }

    #[test]
    fn fast_plug_in_tracks_the_naive_oracle() {
        // The Auto strategy (binned) must land within the
        // documented tolerance of the seed's naive arithmetic; the
        // windowed strategy within 1e-12 relative.
        let xs = normal_sample(900, 2.0);
        let naive = DirectPlugIn::two_stage_naive().bandwidth(&xs, KernelFn::Epanechnikov);
        let auto = DirectPlugIn::two_stage().bandwidth(&xs, KernelFn::Epanechnikov);
        let windowed = DirectPlugIn::two_stage()
            .with_strategy(selest_math::PsiStrategy::Windowed)
            .bandwidth(&xs, KernelFn::Epanechnikov);
        assert!(
            (auto - naive).abs() < 1e-3 * naive,
            "auto h {auto} vs naive h {naive}"
        );
        assert!(
            (windowed - naive).abs() < 1e-12 * naive,
            "windowed h {windowed} vs naive h {naive}"
        );
    }

    #[test]
    fn selector_names() {
        assert_eq!(NormalScale.name(), "h-NS");
        assert_eq!(DirectPlugIn::two_stage().name(), "h-DPI2");
        assert_eq!(Lscv.name(), "h-LSCV");
        assert_eq!(FixedBandwidth(2.0).name(), "h=2");
    }

    #[test]
    fn fixed_bandwidth_passes_through() {
        assert_eq!(
            FixedBandwidth(3.5).bandwidth(&[1.0, 2.0], KernelFn::Gaussian),
            3.5
        );
    }

    #[test]
    #[should_panic(expected = "sample is constant")]
    fn normal_scale_rejects_constant_samples() {
        let _ = NormalScale.bandwidth(&[2.0, 2.0, 2.0], KernelFn::Epanechnikov);
    }

    #[test]
    fn prepared_selectors_match_slice_selectors_exactly() {
        // Unsorted sample so the prepared path genuinely exercises the
        // shared sorted slice and cached summary.
        let mut xs = normal_sample(900, 2.0);
        let n = xs.len();
        for i in 0..n {
            xs.swap(i, (i * 7919) % n);
        }
        let col = PreparedColumn::prepare(&xs, selest_core::Domain::new(-20.0, 20.0));
        let selectors: Vec<Box<dyn BandwidthSelector>> = vec![
            Box::new(NormalScale),
            Box::new(DirectPlugIn::two_stage()),
            Box::new(DirectPlugIn::two_stage_naive()),
            Box::new(Lscv),
            Box::new(FixedBandwidth(1.25)),
        ];
        for sel in &selectors {
            let legacy = sel.bandwidth(&xs, KernelFn::Epanechnikov);
            let prepared = sel.bandwidth_prepared(&col, KernelFn::Epanechnikov);
            assert_eq!(
                legacy.to_bits(),
                prepared.to_bits(),
                "{}: legacy h {legacy} vs prepared h {prepared}",
                sel.name()
            );
        }
    }
}
