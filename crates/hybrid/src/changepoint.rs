//! Change-point detection (Section 3.3).
//!
//! The hybrid estimator partitions the domain at *change points* — points
//! where the true PDF changes considerably. The paper detects them from the
//! second derivative of an estimated density: "the first change point
//! corresponds to the point where the maximum of the second derivative
//! occurs. Further change points can be computed similarly in a recursive
//! fashion", and explicitly leaves other detectors to future work, which
//! the [`ChangePointDetector`] trait accommodates ([`CusumDetector`] is one
//! such alternative).

use selest_core::Domain;
use selest_math::{normal_density_derivative_const, robust_scale_sorted};

/// A strategy for locating change points of the underlying density from a
/// sorted sample.
pub trait ChangePointDetector {
    /// Return the detected change points, strictly inside the domain,
    /// in ascending order.
    fn change_points(&self, sorted_samples: &[f64], domain: &Domain) -> Vec<f64>;

    /// Display name for experiment output.
    fn name(&self) -> String;
}

/// The paper's detector: recursive maxima of `|f_hat''|`, estimated by a
/// Gaussian-derivative kernel on an evaluation grid.
#[derive(Debug, Clone, Copy)]
pub struct SecondDerivativeDetector {
    /// Maximum number of change points to emit.
    pub max_points: usize,
    /// Evaluation grid resolution over the whole domain.
    pub grid: usize,
    /// Stop splitting a segment when its peak `|f''|` falls below this
    /// fraction of the global peak — segments that flat are already well
    /// served by a single kernel estimator.
    pub relative_threshold: f64,
    /// Multiplier on the normal-scale pilot bandwidth. The NS pilot is
    /// calibrated for unimodal densities; multimodal data (the regime the
    /// hybrid exists for) needs a fraction of it or the features blur into
    /// one.
    pub pilot_factor: f64,
}

impl Default for SecondDerivativeDetector {
    fn default() -> Self {
        SecondDerivativeDetector {
            max_points: 15,
            grid: 512,
            relative_threshold: 0.02,
            pilot_factor: 0.25,
        }
    }
}

impl SecondDerivativeDetector {
    /// `f_hat''` on an even grid, by the Gaussian-derivative estimator
    /// `(1/(n g^3)) * sum_i phi''((x - X_i)/g)` with the `n^(-1/7)`-rate
    /// pilot bandwidth appropriate for second-derivative estimation.
    ///
    /// Samples are reflected at both domain boundaries: without reflection
    /// the density cliff at the edge of the data produces the largest
    /// `|f''|` of the whole domain and every "change point" lands on a
    /// boundary artifact instead of a feature of `f`.
    ///
    /// Grid points are independent of each other, so they are evaluated in
    /// fixed-boundary chunks on the `selest-par` pool: results are
    /// bit-identical for every worker count.
    ///
    /// For large samples the exact sum — every sample within kernel reach
    /// of every grid point — is by far the dominant cost of hybrid
    /// construction, so past `BINNED_MIN_N` samples the curve is
    /// evaluated over fine-grained bin counts instead (one kernel
    /// evaluation per occupied bin rather than per sample), the same
    /// binning strategy the plug-in functionals use (DESIGN.md §9). The
    /// bin width is held below `g / 8`, far inside the pilot bandwidth, so
    /// the argmax structure the detector reads is unchanged; if the domain
    /// would need more than `MAX_BINS` bins for that, the exact path
    /// runs instead. Small samples always take the exact path, so every
    /// sample-size regime the paper's experiments use is bit-identical to
    /// the historical detector.
    fn second_derivative_grid(&self, sorted: &[f64], domain: &Domain) -> Vec<(f64, f64)> {
        let n = sorted.len();
        let scale = robust_scale_sorted(sorted, sorted);
        let g = if scale > 0.0 {
            self.pilot_factor * scale * (n as f64).powf(-1.0 / 7.0)
        } else {
            domain.width() / self.grid as f64
        }
        // Never drop below the grid resolution, or the curve aliases.
        .max(2.0 * domain.width() / self.grid as f64);
        let reach = 8.5 * g;
        let nf = n as f64;
        let (l, r) = (domain.lo(), domain.hi());

        /// Exact evaluation below this sample count.
        const BINNED_MIN_N: usize = 20_000;
        /// Bin-count cap for the binned path; a spikier-than-this pilot
        /// bandwidth falls back to the exact sum.
        const MAX_BINS: usize = 32_768;
        let wanted_bins = (8.0 * domain.width() / g).ceil() as usize;
        let bins = if n >= BINNED_MIN_N && wanted_bins <= MAX_BINS && domain.width() > 0.0 {
            let b = wanted_bins.max(self.grid);
            let delta = domain.width() / b as f64;
            let mut counts = vec![0.0f64; b];
            for &v in sorted {
                let j = (((v - l) / delta) as usize).min(b - 1);
                counts[j] += 1.0;
            }
            Some((counts, delta))
        } else {
            None
        };

        let at = |i: usize| {
            let x = l + domain.width() * (i as f64 + 0.5) / self.grid as f64;
            let mut sum = 0.0;
            // Direct contributions plus mirror images at each boundary
            // within kernel reach.
            for center in [x, 2.0 * l - x, 2.0 * r - x] {
                match &bins {
                    Some((counts, delta)) => {
                        let j0 = (((center - reach - l) / delta).floor().max(0.0)) as usize;
                        let j1 = ((center + reach - l) / delta).ceil().max(0.0) as usize;
                        for (j, &c) in counts
                            .iter()
                            .enumerate()
                            .take(j1.min(counts.len()))
                            .skip(j0.min(counts.len()))
                        {
                            if c > 0.0 {
                                let xj = l + (j as f64 + 0.5) * delta;
                                sum += c * normal_density_derivative_const::<2>((center - xj) / g);
                            }
                        }
                    }
                    None => {
                        let lo = sorted.partition_point(|&v| v < center - reach);
                        let hi = sorted.partition_point(|&v| v <= center + reach);
                        sum += sorted[lo..hi]
                            .iter()
                            .map(|&v| normal_density_derivative_const::<2>((center - v) / g))
                            .sum::<f64>();
                    }
                }
            }
            (x, sum / (nf * g * g * g))
        };
        let indices: Vec<usize> = (0..self.grid).collect();
        let jobs = if n < 2_048 {
            1
        } else {
            selest_par::configured_jobs()
        };
        selest_par::parallel_chunks_jobs(&indices, 32, jobs, |chunk| {
            chunk.iter().map(|&i| at(i)).collect::<Vec<(f64, f64)>>()
        })
        .into_iter()
        .flatten()
        .collect()
    }
}

impl ChangePointDetector for SecondDerivativeDetector {
    fn change_points(&self, sorted_samples: &[f64], domain: &Domain) -> Vec<f64> {
        assert!(!sorted_samples.is_empty(), "change_points on empty sample");
        if self.max_points == 0 || sorted_samples.len() < 4 {
            return Vec::new();
        }
        let curve = self.second_derivative_grid(sorted_samples, domain);
        let global_peak = curve.iter().map(|&(_, d)| d.abs()).fold(0.0, f64::max);
        if global_peak <= 0.0 {
            return Vec::new();
        }
        let threshold = self.relative_threshold * global_peak;

        // Recursive splitting on grid-index segments; a plain worklist keeps
        // it iterative. Each split takes the |f''| argmax over the segment
        // *interior* (a small margin keeps the flank of an already chosen
        // peak from being re-detected at a segment edge), and the pushed
        // sub-segments exclude a window around the new point.
        const MARGIN: usize = 3;
        let mut points: Vec<f64> = Vec::new();
        let mut worklist: Vec<(usize, usize)> = vec![(0, curve.len())];
        while let Some((lo, hi)) = worklist.pop() {
            if points.len() >= self.max_points || hi - lo < 2 * MARGIN + 2 {
                continue;
            }
            let (ilo, ihi) = (lo + MARGIN, hi - MARGIN);
            let (arg, peak) = curve[ilo..ihi]
                .iter()
                .enumerate()
                .map(|(i, &(_, d))| (ilo + i, d.abs()))
                .fold((ilo, 0.0), |acc, cur| if cur.1 > acc.1 { cur } else { acc });
            if peak < threshold {
                continue;
            }
            points.push(curve[arg].0);
            worklist.push((lo, arg.saturating_sub(MARGIN)));
            worklist.push(((arg + MARGIN).min(hi), hi));
        }
        points.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
        points
    }

    fn name(&self) -> String {
        "f''-maxima".into()
    }
}

/// A distribution-free alternative detector (the future-work direction the
/// paper names): recursive binary segmentation with a Kolmogorov–Smirnov
/// statistic against the uniform-within-segment hypothesis. Splits where
/// the sample's empirical CDF deviates most from linearity, as long as the
/// deviation is significant at roughly the given level.
#[derive(Debug, Clone, Copy)]
pub struct CusumDetector {
    /// Maximum number of change points to emit.
    pub max_points: usize,
    /// KS significance threshold: split when
    /// `sqrt(m) * D_m > threshold` (1.63 ~ the 1% KS critical value).
    pub threshold: f64,
}

impl Default for CusumDetector {
    fn default() -> Self {
        CusumDetector {
            max_points: 7,
            threshold: 1.63,
        }
    }
}

impl ChangePointDetector for CusumDetector {
    fn change_points(&self, sorted_samples: &[f64], domain: &Domain) -> Vec<f64> {
        assert!(!sorted_samples.is_empty(), "change_points on empty sample");
        let mut points = Vec::new();
        // Worklist of (sample range, value range) segments.
        let mut worklist = vec![(0usize, sorted_samples.len(), domain.lo(), domain.hi())];
        while let Some((i0, i1, lo, hi)) = worklist.pop() {
            if points.len() >= self.max_points {
                break;
            }
            let m = i1 - i0;
            if m < 16 || hi - lo <= 0.0 {
                continue;
            }
            // KS distance of the segment's samples from Uniform(lo, hi).
            let mf = m as f64;
            let mut best_d = 0.0f64;
            let mut best_idx = i0;
            for (j, &x) in sorted_samples[i0..i1].iter().enumerate() {
                let u = (x - lo) / (hi - lo);
                let d_hi = ((j + 1) as f64 / mf - u).abs();
                let d_lo = (u - j as f64 / mf).abs();
                let d = d_hi.max(d_lo);
                if d > best_d {
                    best_d = d;
                    best_idx = i0 + j;
                }
            }
            if mf.sqrt() * best_d <= self.threshold {
                continue;
            }
            let cut = sorted_samples[best_idx];
            if cut <= lo || cut >= hi {
                continue;
            }
            points.push(cut);
            let split = sorted_samples.partition_point(|&v| v <= cut);
            worklist.push((i0, split.min(i1), lo, cut));
            worklist.push((split.min(i1), i1, cut, hi));
        }
        points.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
        points.dedup();
        points
    }

    fn name(&self) -> String {
        "CUSUM-KS".into()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Piecewise-uniform sample: dense on [0, 50), sparse on [50, 100).
    fn step_sample() -> Vec<f64> {
        let mut v: Vec<f64> = (0..900).map(|i| 50.0 * (i as f64 + 0.5) / 900.0).collect();
        v.extend((0..100).map(|i| 50.0 + 50.0 * (i as f64 + 0.5) / 100.0));
        v
    }

    #[test]
    fn second_derivative_curve_bits_are_pinned() {
        // FNV-1a over the bits of every (x, f'') grid point, captured
        // before the phi'' sum took its order as a compile-time constant:
        // the detector's curve must not move by one bit.
        let curve = SecondDerivativeDetector::default()
            .second_derivative_grid(&step_sample(), &Domain::new(0.0, 100.0));
        assert_eq!(curve.len(), 512);
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for (x, d) in &curve {
            for w in [x.to_bits(), d.to_bits()] {
                h ^= w;
                h = h.wrapping_mul(0x1_0000_0000_01b3);
            }
        }
        assert_eq!(curve[200].1.to_bits(), 0xbe13_67ba_a461_1704);
        assert_eq!(h, 0x935e_06cf_a8c1_6345);
    }

    #[test]
    fn second_derivative_detector_finds_the_step() {
        let d = Domain::new(0.0, 100.0);
        let det = SecondDerivativeDetector {
            max_points: 3,
            ..Default::default()
        };
        let cps = det.change_points(&step_sample(), &d);
        assert!(!cps.is_empty(), "no change points found");
        assert!(
            cps.iter().any(|&c| (c - 50.0).abs() < 8.0),
            "no change point near the density step: {cps:?}"
        );
    }

    #[test]
    fn cusum_detector_finds_the_step() {
        let d = Domain::new(0.0, 100.0);
        let det = CusumDetector::default();
        let cps = det.change_points(&step_sample(), &d);
        assert!(!cps.is_empty(), "no change points found");
        assert!(
            cps.iter().any(|&c| (c - 50.0).abs() < 5.0),
            "no change point near the density step: {cps:?}"
        );
    }

    #[test]
    fn uniform_data_yields_few_or_no_points() {
        let d = Domain::new(0.0, 100.0);
        let flat: Vec<f64> = (0..1_000)
            .map(|i| 100.0 * (i as f64 + 0.5) / 1_000.0)
            .collect();
        let cps = CusumDetector::default().change_points(&flat, &d);
        assert!(
            cps.is_empty(),
            "CUSUM found spurious change points: {cps:?}"
        );
    }

    #[test]
    fn detectors_respect_max_points() {
        let d = Domain::new(0.0, 100.0);
        // Very jagged data: alternating dense/sparse decades.
        let mut v = Vec::new();
        for dec in 0..10 {
            let count = if dec % 2 == 0 { 500 } else { 20 };
            for i in 0..count {
                v.push(dec as f64 * 10.0 + 10.0 * (i as f64 + 0.5) / count as f64);
            }
        }
        v.sort_by(|a, b| a.partial_cmp(b).unwrap());
        for det in [
            Box::new(SecondDerivativeDetector {
                max_points: 3,
                ..Default::default()
            }) as Box<dyn ChangePointDetector>,
            Box::new(CusumDetector {
                max_points: 3,
                ..Default::default()
            }),
        ] {
            let cps = det.change_points(&v, &d);
            assert!(cps.len() <= 3, "{}: {} points", det.name(), cps.len());
        }
    }

    #[test]
    fn points_are_sorted_and_interior() {
        let d = Domain::new(0.0, 100.0);
        let cps = CusumDetector {
            max_points: 10,
            threshold: 1.0,
        }
        .change_points(&step_sample(), &d);
        for w in cps.windows(2) {
            assert!(w[0] < w[1], "unsorted change points");
        }
        for &c in &cps {
            assert!(c > 0.0 && c < 100.0, "change point {c} on the boundary");
        }
    }
}
