//! Bin-count selection for equi-width histograms (Sections 4.1 and 4.3).
//!
//! The AMISE of the equi-width histogram,
//!
//! ```text
//! AMISE(h) = 1/(n h) + h^2/12 * R(f'),   R(f') = Int f'(x)^2 dx,
//! ```
//!
//! is minimized at `h_EW = (6 / (n R(f')))^(1/3)` (equation (7)), which the
//! *normal scale rule* (equation (8)) approximates as
//! `h_EW ≈ (24 sqrt(pi))^(1/3) * s * n^(-1/3)` with the robust scale
//! `s = min(stddev, IQR/1.349)`. [`PlugInBins`] instead estimates `R(f')`
//! from the sample (Section 4.3); [`SturgesBins`] and
//! [`FreedmanDiaconisBins`] are the classical reference rules included for
//! comparison.

use selest_core::{Domain, PreparedColumn};
use selest_math::{psi_plug_in_sorted, PsiStrategy};

/// `(24 sqrt(pi))^(1/3)`, the constant of equation (8); also known as
/// Scott's rule constant 3.4908.
pub fn normal_scale_bin_constant() -> f64 {
    (24.0 * core::f64::consts::PI.sqrt()).powf(1.0 / 3.0)
}

/// AMISE-optimal bin width given the true roughness `R(f')` (equation (7)).
pub fn optimal_bin_width(n: usize, r_f_prime: f64) -> f64 {
    assert!(n > 0, "optimal_bin_width needs samples");
    assert!(r_f_prime > 0.0, "R(f') must be positive, got {r_f_prime}");
    (6.0 / (n as f64 * r_f_prime)).powf(1.0 / 3.0)
}

/// The histogram AMISE at bin width `h` (Section 4.1), for plotting the
/// smoothing trade-off.
pub fn amise_histogram(h: f64, n: usize, r_f_prime: f64) -> f64 {
    1.0 / (n as f64 * h) + h * h / 12.0 * r_f_prime
}

/// Convert a bin width into a bin count over the domain (at least 1).
pub fn width_to_bins(h: f64, domain: &Domain) -> usize {
    assert!(h > 0.0, "bin width must be positive");
    (domain.width() / h).ceil().max(1.0) as usize
}

/// A rule choosing the number of equi-width bins from the sample.
///
/// Each rule has one implementation, [`BinRule::bins_prepared`], over a
/// [`PreparedColumn`]: it reads the column's shared sorted slice, cached
/// summary and domain. [`BinRule::bins`] only prepares the slice and
/// delegates.
pub trait BinRule {
    /// Number of bins for a prepared column over its domain.
    fn bins_prepared(&self, col: &PreparedColumn) -> usize;

    /// Number of bins for this sample over this domain: prepares the
    /// sample and calls [`BinRule::bins_prepared`].
    fn bins(&self, samples: &[f64], domain: &Domain) -> usize {
        self.bins_prepared(&PreparedColumn::prepare(samples, *domain))
    }

    /// Short name used in experiment output (`"h-NS"`, ...).
    fn name(&self) -> String;
}

/// The normal scale rule of equation (8).
#[derive(Debug, Clone, Copy, Default)]
pub struct NormalScaleBins;

impl BinRule for NormalScaleBins {
    fn bins_prepared(&self, col: &PreparedColumn) -> usize {
        assert!(col.len() >= 2, "normal scale rule needs >= 2 samples");
        let s = col.summary().robust_scale;
        assert!(s > 0.0, "normal scale rule: sample is constant");
        let h = normal_scale_bin_constant() * s * (col.len() as f64).powf(-1.0 / 3.0);
        width_to_bins(h, &col.domain())
    }

    fn name(&self) -> String {
        "h-NS".into()
    }
}

/// Direct plug-in rule: estimate `R(f') = -psi_2` by staged kernel
/// functional estimation, then apply equation (7).
#[derive(Debug, Clone, Copy)]
pub struct PlugInBins {
    /// Functional-estimation stages; 0 degenerates to the normal scale
    /// value.
    pub stages: usize,
}

impl PlugInBins {
    /// Two stages, mirroring the paper's kernel-side choice.
    pub fn two_stage() -> Self {
        PlugInBins { stages: 2 }
    }
}

impl BinRule for PlugInBins {
    fn bins_prepared(&self, col: &PreparedColumn) -> usize {
        assert!(col.len() >= 2, "plug-in rule needs >= 2 samples");
        let psi = psi_plug_in_sorted(
            col.values(),
            col.sorted(),
            2,
            self.stages,
            PsiStrategy::Auto,
            selest_par::configured_jobs(),
        );
        let r_f_prime = -psi;
        assert!(r_f_prime > 0.0, "R(f') estimate must be positive");
        let h = optimal_bin_width(col.len(), r_f_prime);
        width_to_bins(h, &col.domain())
    }

    fn name(&self) -> String {
        format!("h-DPI{}", self.stages)
    }
}

/// Sturges' rule: `k = ceil(log2 n) + 1`. Severely undersmooths nothing and
/// oversmooths everything large — included as the classical textbook
/// baseline.
#[derive(Debug, Clone, Copy, Default)]
pub struct SturgesBins;

impl BinRule for SturgesBins {
    fn bins_prepared(&self, col: &PreparedColumn) -> usize {
        (col.len() as f64).log2().ceil() as usize + 1
    }

    fn name(&self) -> String {
        "Sturges".into()
    }
}

/// Freedman–Diaconis rule: `h = 2 IQR n^(-1/3)`.
#[derive(Debug, Clone, Copy, Default)]
pub struct FreedmanDiaconisBins;

impl BinRule for FreedmanDiaconisBins {
    fn bins_prepared(&self, col: &PreparedColumn) -> usize {
        assert!(col.len() >= 2, "Freedman-Diaconis needs >= 2 samples");
        let iqr = selest_math::interquartile_range(col.sorted());
        assert!(iqr > 0.0, "Freedman-Diaconis: IQR is zero");
        let h = 2.0 * iqr * (col.len() as f64).powf(-1.0 / 3.0);
        width_to_bins(h, &col.domain())
    }

    fn name(&self) -> String {
        "FD".into()
    }
}

/// A fixed bin count, for sweeps and oracle searches.
#[derive(Debug, Clone, Copy)]
pub struct FixedBins(pub usize);

impl BinRule for FixedBins {
    fn bins_prepared(&self, _col: &PreparedColumn) -> usize {
        assert!(self.0 >= 1, "FixedBins must be at least 1");
        self.0
    }

    fn name(&self) -> String {
        format!("k={}", self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use selest_math::normal_quantile;

    fn normal_sample(n: usize, sigma: f64) -> Vec<f64> {
        (1..=n)
            .map(|i| 500.0 + sigma * normal_quantile(i as f64 / (n as f64 + 1.0)))
            .collect()
    }

    #[test]
    fn constant_matches_paper() {
        // (24 sqrt(pi))^(1/3) = 3.4908.
        assert!((normal_scale_bin_constant() - 3.4908).abs() < 1e-3);
    }

    #[test]
    fn optimal_width_reduces_to_normal_scale_under_normality() {
        // R(f') of N(0, sigma) is 1/(4 sqrt(pi) sigma^3).
        let sigma: f64 = 50.0;
        let n = 2_000;
        let r = 1.0 / (4.0 * core::f64::consts::PI.sqrt() * sigma.powi(3));
        let h = optimal_bin_width(n, r);
        let expect = normal_scale_bin_constant() * sigma * (n as f64).powf(-1.0 / 3.0);
        assert!((h - expect).abs() < 1e-9 * expect, "h {h} vs {expect}");
    }

    #[test]
    fn amise_is_minimized_at_optimal_width() {
        let r = 0.002;
        let n = 500;
        let h_star = optimal_bin_width(n, r);
        let best = amise_histogram(h_star, n, r);
        for &f in &[0.4, 0.7, 1.5, 3.0] {
            assert!(amise_histogram(h_star * f, n, r) > best);
        }
    }

    #[test]
    fn histogram_convergence_rate_is_n_to_minus_two_thirds() {
        let r = 0.01;
        let a = amise_histogram(optimal_bin_width(1_000, r), 1_000, r);
        let b = amise_histogram(optimal_bin_width(8_000, r), 8_000, r);
        // n grows 8x => AMISE shrinks 8^(2/3) = 4x.
        let ratio = a / b;
        assert!((ratio - 4.0).abs() < 1e-9, "ratio {ratio}");
    }

    #[test]
    fn normal_scale_bins_track_formula() {
        let d = Domain::new(0.0, 1000.0);
        let xs = normal_sample(2_000, 100.0);
        let k = NormalScaleBins.bins(&xs, &d);
        // h ~ 3.49 * 100 * 2000^(-1/3) ~ 27.7 -> ~37 bins.
        assert!((30..=45).contains(&k), "k = {k}");
    }

    #[test]
    fn plug_in_matches_normal_scale_on_normal_data() {
        let d = Domain::new(0.0, 1000.0);
        let xs = normal_sample(1_000, 100.0);
        let ns = NormalScaleBins.bins(&xs, &d);
        let dpi = PlugInBins::two_stage().bins(&xs, &d);
        let ratio = dpi as f64 / ns as f64;
        assert!((0.7..=1.4).contains(&ratio), "ns {ns} vs dpi {dpi}");
    }

    #[test]
    fn plug_in_wants_more_bins_for_rough_densities() {
        let d = Domain::new(0.0, 1000.0);
        let half = normal_sample(500, 20.0);
        let mut bimodal: Vec<f64> = half.iter().map(|x| x - 300.0).collect();
        bimodal.extend(half.iter().map(|x| x + 300.0));
        let ns = NormalScaleBins.bins(&bimodal, &d);
        let dpi = PlugInBins::two_stage().bins(&bimodal, &d);
        assert!(dpi > ns, "rough density: dpi {dpi} should exceed ns {ns}");
    }

    #[test]
    fn sturges_is_logarithmic() {
        let d = Domain::unit();
        let xs: Vec<f64> = (0..1024).map(|i| i as f64 / 1024.0).collect();
        assert_eq!(SturgesBins.bins(&xs, &d), 11);
    }

    #[test]
    fn freedman_diaconis_on_uniform_data() {
        let d = Domain::new(0.0, 1000.0);
        let xs: Vec<f64> = (0..1_000).map(|i| i as f64).collect();
        // IQR ~ 500, h = 2 * 500 / 10 = 100 -> 10 bins.
        let k = FreedmanDiaconisBins.bins(&xs, &d);
        assert!((9..=11).contains(&k), "k = {k}");
    }

    #[test]
    fn bins_scale_with_sample_size() {
        // More samples -> narrower optimal bins -> more of them (n^{1/3}).
        let d = Domain::new(0.0, 1000.0);
        let small = NormalScaleBins.bins(&normal_sample(200, 100.0), &d);
        let large = NormalScaleBins.bins(&normal_sample(12_800, 100.0), &d);
        let ratio = large as f64 / small as f64;
        assert!(
            (2.8..=5.6).contains(&ratio),
            "64x samples: ratio {ratio} (expected ~4)"
        );
    }

    #[test]
    fn fixed_bins_pass_through() {
        assert_eq!(FixedBins(17).bins(&[1.0], &Domain::unit()), 17);
        assert_eq!(FixedBins(17).name(), "k=17");
    }

    #[test]
    fn prepared_rules_match_slice_rules_exactly() {
        let d = Domain::new(0.0, 1000.0);
        // Unsorted sample so the prepared path genuinely exercises the
        // shared sorted slice.
        let mut xs = normal_sample(1_000, 100.0);
        let n = xs.len();
        for i in 0..n {
            xs.swap(i, (i * 7919) % n);
        }
        let col = PreparedColumn::prepare(&xs, d);
        let rules: Vec<Box<dyn BinRule>> = vec![
            Box::new(NormalScaleBins),
            Box::new(PlugInBins::two_stage()),
            Box::new(SturgesBins),
            Box::new(FreedmanDiaconisBins),
            Box::new(FixedBins(13)),
        ];
        for rule in &rules {
            assert_eq!(
                rule.bins(&xs, &d),
                rule.bins_prepared(&col),
                "{} diverged between slice and prepared paths",
                rule.name()
            );
        }
    }
}
