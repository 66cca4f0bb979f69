//! The average shifted histogram (Section 3.1, after Scott).
//!
//! An ASH is "a sequence of equi-width histograms with the same number of
//! bins and different starting points"; the estimate is the average over
//! the shifts. It smooths away most of the origin dependence and softens —
//! but does not remove — the jump discontinuities of a single histogram.
//! With `m` shifts of a width-`h` grid, the ASH is equivalent to a
//! histogram on the `m`-times finer grid whose bin counts are triangularly
//! weighted, which is how we evaluate it (one pass, no `m` separate
//! histograms at query time).

use selest_core::{DensityEstimator, Domain, RangeQuery, SelectivityEstimator};

/// Average shifted histogram over `k` base bins and `m` shifts.
#[derive(Debug, Clone)]
pub struct AverageShiftedHistogram {
    /// Fine-grid bin width `delta = h / m`.
    delta: f64,
    /// Weighted fine-grid "counts" (already averaged over shifts);
    /// sums to `n`.
    weights: Vec<f64>,
    n_samples: usize,
    domain: Domain,
    shifts: usize,
}

impl AverageShiftedHistogram {
    /// Build an ASH with `k` base bins (width `domain.width()/k`) and `m`
    /// shifts. The paper's Figure 12 uses ten shifts.
    pub fn new(samples: &[f64], domain: Domain, k: usize, m: usize) -> Self {
        assert!(k >= 1, "ASH needs at least one base bin");
        assert!(m >= 1, "ASH needs at least one shift");
        assert!(!samples.is_empty(), "ASH needs samples");
        let h = domain.width() / k as f64;
        let delta = h / m as f64;
        let n_fine = k * m;
        // Raw fine-grid counts.
        let mut fine = vec![0.0f64; n_fine];
        for &x in samples {
            assert!(domain.contains(x), "sample {x} outside domain {domain}");
            let mut idx = ((x - domain.lo()) / delta) as usize;
            if idx >= n_fine {
                idx = n_fine - 1;
            }
            fine[idx] += 1.0;
        }
        // ASH weights: the average over m shifted width-h histograms gives
        // fine-bin j the triangularly weighted sum of its neighbors:
        // w_j = sum_{|i| < m} (1 - |i|/m) * fine[j + i] / m ... wait: the
        // density at fine bin j is sum over i of (m - |i|) * fine[j+i]
        // divided by (n * h * m) — we store the numerator scaled so that
        // weights sum to n when integrated: weight[j] such that density =
        // weight[j] / (n * delta). Shifted grids reaching past the domain
        // are truncated at the boundary (their outer bins are clipped),
        // which reflects building each shifted histogram on the domain
        // intersection.
        let mut weights = vec![0.0f64; n_fine];
        let mi = m as isize;
        for j in 0..n_fine as isize {
            let mut acc = 0.0;
            for i in (1 - mi)..mi {
                let jj = j + i;
                if jj < 0 || jj >= n_fine as isize {
                    continue;
                }
                let w = (mi - i.abs()) as f64 / mi as f64;
                acc += w * fine[jj as usize];
            }
            weights[j as usize] = acc / mi as f64; // density numerator per delta
        }
        // Normalize: sum(weights) * delta must integrate the density to 1,
        // i.e. sum(weights) == n. Truncation at the edges loses a little
        // mass; renormalize so selectivities stay calibrated.
        let total: f64 = weights.iter().sum();
        let n = samples.len() as f64;
        if total > 0.0 {
            let scale = n / total;
            for w in &mut weights {
                *w *= scale;
            }
        }
        AverageShiftedHistogram {
            delta,
            weights,
            n_samples: samples.len(),
            domain,
            shifts: m,
        }
    }

    /// [`AverageShiftedHistogram::new`] over a prepared column. ASH
    /// construction accumulates exact integer fine-grid counts, so input
    /// order is immaterial; the prepared path consumes the column's
    /// original-order sample, bit-identically to the slice constructor.
    pub fn from_prepared(col: &selest_core::PreparedColumn, k: usize, m: usize) -> Self {
        AverageShiftedHistogram::new(col.values(), col.domain(), k, m)
    }

    /// Number of shifts `m`.
    pub fn shifts(&self) -> usize {
        self.shifts
    }

    /// Number of fine-grid cells (`k * m`).
    pub fn fine_bins(&self) -> usize {
        self.weights.len()
    }
}

impl SelectivityEstimator for AverageShiftedHistogram {
    fn selectivity(&self, q: &RangeQuery) -> f64 {
        let a = q.a().max(self.domain.lo());
        let b = q.b().min(self.domain.hi());
        if b < a {
            return 0.0;
        }
        let n_fine = self.weights.len();
        let lo = self.domain.lo();
        let first = (((a - lo) / self.delta) as usize).min(n_fine - 1);
        let last = (((b - lo) / self.delta) as usize).min(n_fine - 1);
        let mut s = 0.0;
        for (j, &w) in self.weights[first..=last].iter().enumerate() {
            let j = first + j;
            let cell_lo = lo + j as f64 * self.delta;
            let cell_hi = cell_lo + self.delta;
            let overlap = (b.min(cell_hi) - a.max(cell_lo)).max(0.0);
            s += w * overlap / self.delta;
        }
        // Summing the cell overlaps can round a hair past 1; a
        // selectivity is a probability, as the kernel and hybrid
        // estimators also guarantee.
        (s / self.n_samples as f64).clamp(0.0, 1.0)
    }

    fn domain(&self) -> Domain {
        self.domain
    }

    fn name(&self) -> String {
        "ASH".into()
    }
}

impl DensityEstimator for AverageShiftedHistogram {
    fn density(&self, x: f64) -> f64 {
        if !self.domain.contains(x) {
            return 0.0;
        }
        let n_fine = self.weights.len();
        let mut idx = ((x - self.domain.lo()) / self.delta) as usize;
        if idx >= n_fine {
            idx = n_fine - 1;
        }
        self.weights[idx] / (self.n_samples as f64 * self.delta)
    }

    fn domain(&self) -> Domain {
        self.domain
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::equi_width::equi_width;

    fn uniform_samples(n: usize) -> Vec<f64> {
        (0..n)
            .map(|i| 100.0 * (i as f64 + 0.5) / n as f64)
            .collect()
    }

    #[test]
    fn one_shift_equals_plain_equi_width() {
        let d = Domain::new(0.0, 100.0);
        let samples: Vec<f64> = vec![3.0, 17.0, 44.0, 44.5, 80.0, 99.0];
        let ash = AverageShiftedHistogram::new(&samples, d, 8, 1);
        let ewh = equi_width(&samples, d, 8);
        for (a, b) in [(0.0, 100.0), (10.0, 30.0), (43.0, 46.0), (90.0, 100.0)] {
            let q = RangeQuery::new(a, b);
            assert!(
                (ash.selectivity(&q) - ewh.selectivity(&q)).abs() < 1e-12,
                "[{a},{b}]: ash {} vs ewh {}",
                ash.selectivity(&q),
                ewh.selectivity(&q)
            );
        }
    }

    #[test]
    fn rounding_never_pushes_a_selectivity_past_one() {
        // Three points in a domain of 1 000: without the clamp, the overlap
        // sum of a query covering them all rounds to 1 + 2^-52 at k = 7.
        let d = Domain::new(0.0, 1_000.0);
        for k in 1..=32 {
            let ash = AverageShiftedHistogram::new(&[10.0, 20.0, 30.0], d, k, 10);
            for i in 0..=400 {
                let s = ash.selectivity(&RangeQuery::new(0.0, 2.5 * i as f64));
                assert!(
                    (0.0..=1.0).contains(&s),
                    "k={k} [0, {}]: {s}",
                    2.5 * i as f64
                );
            }
        }
    }

    #[test]
    fn whole_domain_mass_is_one() {
        let d = Domain::new(0.0, 100.0);
        let ash = AverageShiftedHistogram::new(&uniform_samples(500), d, 10, 10);
        let s = ash.selectivity(&RangeQuery::new(0.0, 100.0));
        assert!((s - 1.0).abs() < 1e-12, "got {s}");
    }

    #[test]
    fn shifting_smooths_the_density() {
        // A cluster straddling a bin boundary: the plain histogram jumps,
        // the ASH transitions gradually. Measure the maximum jump between
        // adjacent evaluation points.
        let d = Domain::new(0.0, 100.0);
        let samples: Vec<f64> = (0..200).map(|i| 48.0 + 4.0 * (i as f64 / 200.0)).collect();
        let ewh = equi_width(&samples, d, 10);
        let ash = AverageShiftedHistogram::new(&samples, d, 10, 10);
        let max_jump = |f: &dyn Fn(f64) -> f64| {
            let mut m: f64 = 0.0;
            for i in 0..1000 {
                let x = 100.0 * i as f64 / 1000.0;
                let x2 = x + 0.1;
                m = m.max((f(x2) - f(x)).abs());
            }
            m
        };
        let ewh_jump = max_jump(&|x| selest_core::DensityEstimator::density(&ewh, x));
        let ash_jump = max_jump(&|x| ash.density(x));
        assert!(
            ash_jump < 0.5 * ewh_jump,
            "ASH jump {ash_jump} not smaller than EWH jump {ewh_jump}"
        );
    }

    #[test]
    fn ash_tracks_uniform_truth() {
        let d = Domain::new(0.0, 100.0);
        let ash = AverageShiftedHistogram::new(&uniform_samples(1_000), d, 20, 10);
        for (a, b, truth) in [(10.0, 20.0, 0.1), (35.0, 85.0, 0.5), (0.0, 1.0, 0.01)] {
            let s = ash.selectivity(&RangeQuery::new(a, b));
            assert!((s - truth).abs() < 0.01, "[{a},{b}]: {s} vs {truth}");
        }
    }

    #[test]
    fn density_integrates_to_one() {
        let d = Domain::new(0.0, 100.0);
        let samples: Vec<f64> = (0..300).map(|i| i as f64 * 37.0 % 100.0).collect();
        let ash = AverageShiftedHistogram::new(&samples, d, 16, 8);
        let mass = selest_math::simpson(|x| ash.density(x), 0.0, 100.0, 20_000);
        assert!((mass - 1.0).abs() < 5e-3, "mass {mass}");
    }
}
