//! Convergence-rate checks against the theory of Section 2/4: pure
//! sampling converges at `O(n^-1/2)`, the adaptive equi-width histogram's
//! MISE at `O(n^-2/3)`, and the kernel estimator's at `O(n^-4/5)` — so on
//! log-log axes the ISE-vs-n slopes must order sampling > histogram >
//! kernel (less negative to more negative) — and the uniform guarantee a
//! sample gives every range query at once.

use rand::SeedableRng;
use selest::core::integrated_squared_error;
use selest::data::{ContinuousDistribution, Normal};
use selest::kernel::{BandwidthSelector, NormalScale};
use selest::{equi_width, BoundaryPolicy, Domain, KernelEstimator, KernelFn, SelectivityEstimator};
use selest_histogram::{BinRule, NormalScaleBins};

const SIZES: [usize; 3] = [250, 1_000, 4_000];
const REPS: u64 = 8;

/// Mean ISE over repeated samples at each size, for one estimator family.
fn mise_curve<F>(build: F) -> Vec<(f64, f64)>
where
    F: Fn(&[f64], Domain) -> Box<dyn selest::DensityEstimator>,
{
    let dist = Normal::new(500.0, 100.0);
    let domain = Domain::new(0.0, 1_000.0);
    SIZES
        .iter()
        .map(|&n| {
            let mut total = 0.0;
            for rep in 0..REPS {
                let mut rng = rand::rngs::StdRng::seed_from_u64(1_000 * rep + n as u64);
                let sample: Vec<f64> = std::iter::repeat_with(|| dist.sample(&mut rng))
                    .filter(|v| domain.contains(*v))
                    .take(n)
                    .collect();
                let est = build(&sample, domain);
                total += integrated_squared_error(est.as_ref(), |x| dist.pdf(x), 2_000);
            }
            (n as f64, total / REPS as f64)
        })
        .collect()
}

/// Least-squares slope of log(ISE) against log(n).
fn loglog_slope(curve: &[(f64, f64)]) -> f64 {
    let pts: Vec<(f64, f64)> = curve.iter().map(|&(x, y)| (x.ln(), y.ln())).collect();
    let n = pts.len() as f64;
    let (sx, sy): (f64, f64) = pts.iter().fold((0.0, 0.0), |a, p| (a.0 + p.0, a.1 + p.1));
    let sxx: f64 = pts.iter().map(|p| p.0 * p.0).sum();
    let sxy: f64 = pts.iter().map(|p| p.0 * p.1).sum();
    (n * sxy - sx * sy) / (n * sxx - sx * sx)
}

#[test]
fn kernel_beats_histogram_beats_nothing_in_rate() {
    let hist_curve = mise_curve(|s, d| {
        let k = NormalScaleBins.bins(s, &d);
        Box::new(equi_width(s, d, k))
    });
    let kernel_curve = mise_curve(|s, d| {
        let h = NormalScale.bandwidth(s, KernelFn::Epanechnikov);
        Box::new(KernelEstimator::new(
            s,
            d,
            KernelFn::Epanechnikov,
            h,
            BoundaryPolicy::Reflection,
        ))
    });
    let hist_slope = loglog_slope(&hist_curve);
    let kernel_slope = loglog_slope(&kernel_curve);
    // Theory: -2/3 vs -4/5. Empirical slopes are noisy; require the
    // ordering plus sane magnitudes.
    assert!(
        hist_slope < -0.4,
        "histogram ISE should shrink clearly with n, slope {hist_slope} ({hist_curve:?})"
    );
    assert!(
        kernel_slope < -0.5,
        "kernel ISE should shrink faster, slope {kernel_slope} ({kernel_curve:?})"
    );
    assert!(
        kernel_slope < hist_slope + 0.15,
        "kernel rate ({kernel_slope}) should be at least the histogram rate ({hist_slope})"
    );
    // And at every size the kernel's MISE is below the histogram's.
    for (h, k) in hist_curve.iter().zip(&kernel_curve) {
        assert!(
            k.1 < h.1,
            "at n = {}: kernel {} vs histogram {}",
            h.0,
            k.1,
            h.1
        );
    }
}

#[test]
fn sampling_error_shrinks_at_root_n() {
    // Selectivity-level check for pure sampling: absolute error of a fixed
    // query scales like n^{-1/2}.
    let dist = Normal::new(500.0, 100.0);
    let domain = Domain::new(0.0, 1_000.0);
    let q = selest::RangeQuery::new(450.0, 550.0);
    let truth = dist.selectivity(450.0, 550.0);
    let mut errors = Vec::new();
    for &n in &[400usize, 6_400] {
        let mut total = 0.0;
        for rep in 0..20u64 {
            let mut rng = rand::rngs::StdRng::seed_from_u64(77 * rep + n as u64);
            let sample: Vec<f64> = std::iter::repeat_with(|| dist.sample(&mut rng))
                .filter(|v| domain.contains(*v))
                .take(n)
                .collect();
            let est = selest::SamplingEstimator::new(&sample, domain);
            total += (est.selectivity(&q) - truth).abs();
        }
        errors.push(total / 20.0);
    }
    // 16x the samples should shrink the error by ~4x; accept 2.2x..8x.
    let ratio = errors[0] / errors[1];
    assert!(
        (2.2..8.0).contains(&ratio),
        "sampling error ratio {ratio} (errors {errors:?})"
    );
}

/// Exact sup over all ranges `[a, b]` of `|σ̂ − σ|` between a sample and
/// the file it was drawn from. A range's error is `D(b) − D(a⁻)` with
/// `D = F̂ − F`, and `D` only moves at breakpoints, so the sup is
/// `max D − min D` over every sample value `s` (`D(s⁻)` and `D(s)`) and
/// `D = 0` outside the data. Between two sample values `F̂` is flat and `F`
/// rises, so these are the extremes of `D`; `F` comes from the sorted file.
fn sup_range_error(sorted_file: &[f64], mut sample: Vec<f64>) -> f64 {
    sample.sort_by(f64::total_cmp);
    let (big_n, n) = (sorted_file.len() as f64, sample.len() as f64);
    let (mut max_d, mut min_d) = (0.0f64, 0.0f64);
    let mut i = 0;
    while i < sample.len() {
        let s = sample[i];
        let j = i + sample[i..].partition_point(|&v| v <= s);
        let below = sorted_file.partition_point(|&v| v < s) as f64 / big_n;
        let at_or_below = sorted_file.partition_point(|&v| v <= s) as f64 / big_n;
        for d in [i as f64 / n - below, j as f64 / n - at_or_below] {
            max_d = max_d.max(d);
            min_d = min_d.min(d);
        }
        i = j;
    }
    max_d - min_d
}

/// The sampling guarantee behind the catalog's 2 000-row samples. 1-D
/// ranges have VC-dimension 2, and the DKW inequality bounds
/// `P(sup |F̂ − F| > t) ≤ 2·exp(−2nt²)`; every range error is a difference
/// of two `D` values, so `P(sup over ranges |σ̂ − σ| > 2t) ≤ δ` at
/// `t = sqrt(ln(2/δ) / 2n)`. Both samplers (the catalog ANALYZE's
/// reservoir and the experiments' partial Fisher–Yates) must exceed `2t`
/// on at most `δ` of 200 seeded samples of each file.
#[test]
fn every_range_is_within_the_dkw_bound_for_both_samplers() {
    use selest::data::{reservoir_sample, sample_without_replacement};
    use selest::PaperFile;

    const N: usize = 2_000;
    const SAMPLES: u64 = 200;
    const DELTA: f64 = 0.05;
    let t = ((2.0 / DELTA).ln() / (2.0 * N as f64)).sqrt();
    let allowed = (DELTA * SAMPLES as f64) as usize;
    for file in [
        PaperFile::Uniform { p: 20 },
        PaperFile::Normal { p: 20 },
        PaperFile::Exponential { p: 20 },
    ] {
        let data = file.generate();
        let mut sorted = data.values().to_vec();
        sorted.sort_by(f64::total_cmp);
        let check = |sampler: &str, draw: &dyn Fn(u64) -> Vec<f64>| {
            let errors: Vec<f64> = (0..SAMPLES)
                .map(|seed| sup_range_error(&sorted, draw(seed)))
                .collect();
            let exceeding = errors.iter().filter(|&&e| e > 2.0 * t).count();
            let worst = errors.iter().copied().fold(0.0, f64::max);
            assert!(
                exceeding <= allowed,
                "{} / {sampler}: {exceeding} of {SAMPLES} samples exceed 2t = {:.4} \
                 (allowed {allowed}, worst {worst:.4})",
                file.name(),
                2.0 * t
            );
        };
        check("reservoir_sample", &|seed| {
            reservoir_sample(data.values(), N, seed)
        });
        check("sample_without_replacement", &|seed| {
            sample_without_replacement(data.values(), N, seed)
        });
    }
}

/// Distance from `target` to the ranks `value` occupies in `sorted`,
/// `[#{< value} + 1, #{≤ value}]`; zero when the target is one of them.
fn rank_miss(sorted: &[f64], value: f64, target: u64) -> u64 {
    let lt = sorted.partition_point(|&v| v < value) as u64;
    let le = sorted.partition_point(|&v| v <= value) as u64;
    if target <= lt {
        lt + 1 - target
    } else {
        target.saturating_sub(le)
    }
}

/// The Greenwald–Khanna guarantee the catalog's equi-depth boundaries
/// rest on, checked on the paper's files: a single-stream sketch at
/// `SKETCH_EPSILON` answers each of the 99 percentiles and each interior
/// boundary of a 64-bin equi-depth histogram within its reported
/// `rank_error_bound` of the target rank `⌈q·n⌉`, and that bound is at
/// most `⌈εn⌉`. Sorted inserts are GK's adversarial orders, so each file
/// goes in file order, ascending and descending.
#[test]
fn gk_sketch_answers_within_its_reported_rank_bound_on_the_paper_files() {
    use selest::data::GkSketch;
    use selest::store::SKETCH_EPSILON;
    use selest::PaperFile;

    const BINS: usize = 64;
    for file in [
        PaperFile::Uniform { p: 20 },
        PaperFile::Arapahoe1,
        PaperFile::RailRiver1 { p: 22 },
        PaperFile::InstanceWeight,
    ] {
        let data = file.generate();
        let domain = data.domain();
        let mut sorted = data.values().to_vec();
        sorted.sort_by(f64::total_cmp);
        let n = sorted.len();
        let cap = (SKETCH_EPSILON * n as f64).ceil() as u64;
        let descending: Vec<f64> = sorted.iter().rev().copied().collect();
        for (order, stream) in [
            ("file order", data.values()),
            ("ascending", &sorted[..]),
            ("descending", &descending[..]),
        ] {
            let mut sketch = GkSketch::new(SKETCH_EPSILON);
            sketch
                .try_insert_all(stream)
                .expect("paper files are finite");
            let label = format!("{} {order}", file.name());
            let bound = sketch.rank_error_bound();
            assert!(bound <= cap, "{label}: bound {bound} exceeds ⌈εn⌉ = {cap}");
            for p in 1..100 {
                let q = p as f64 / 100.0;
                let (value, reported) = sketch.quantile_with_bound(q);
                assert_eq!(reported, bound, "{label}: q = {q}");
                let target = (q * n as f64).ceil() as u64;
                let miss = rank_miss(&sorted, value, target);
                assert!(
                    miss <= bound,
                    "{label}: quantile {q} misses rank {target} by {miss} (bound {bound})"
                );
            }
            let (boundaries, reported) =
                sketch.equi_depth_boundaries_with_bound(BINS, domain.lo(), domain.hi());
            assert_eq!(reported, bound, "{label}: boundaries");
            for (j, &value) in boundaries.iter().enumerate().take(BINS).skip(1) {
                let target = (j * n).div_ceil(BINS) as u64;
                let miss = rank_miss(&sorted, value, target);
                assert!(
                    miss <= bound,
                    "{label}: boundary {j}/{BINS} misses rank {target} by {miss} (bound {bound})"
                );
            }
        }
    }
}
