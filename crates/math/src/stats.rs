//! Descriptive statistics over sample sets.
//!
//! The smoothing-parameter rules of the paper (normal scale rule, direct
//! plug-in) need exactly the quantities here: compensated sums, the sample
//! standard deviation, quantiles, the interquartile range, and the robust
//! scale estimate `min(s, IQR / 1.349)` that Section 4.1 of the paper uses
//! to guard the normal scale rule against heavy tails.

/// Normalizing constant relating the interquartile range of a normal
/// distribution to its standard deviation: `IQR = 1.349 * sigma`.
///
/// The exact value is `2 * Phi^{-1}(0.75) = 1.3489795...`; the paper rounds
/// it to `1.348` in Section 4.2. We use the exact constant.
pub const NORMAL_IQR_FACTOR: f64 = 1.348_979_500_392_163_5;

/// Kahan–Babuska compensated summation. Deterministic and accurate for the
/// long error-accumulation sums in the experiment harness.
pub fn kahan_sum<I: IntoIterator<Item = f64>>(values: I) -> f64 {
    let mut sum = 0.0f64;
    let mut c = 0.0f64;
    for v in values {
        let t = sum + v;
        if sum.abs() >= v.abs() {
            c += (sum - t) + v;
        } else {
            c += (v - t) + sum;
        }
        sum = t;
    }
    sum + c
}

/// Fixed chunk size of the parallel descriptive-statistics sums. One chunk
/// covers every sample the paper's experiments draw (n <= 2 000), so those
/// results are bit-for-bit the plain sequential [`kahan_sum`].
const STAT_CHUNK: usize = 4096;

/// Chunked compensated map-sum: fixed [`STAT_CHUNK`] boundaries (derived
/// from the input length only, never the worker count), one Kahan–Babuska
/// pass per chunk, partials merged in chunk order by [`kahan_sum`] — so the
/// result is bit-identical for every `jobs` value, and identical to a plain
/// sequential [`kahan_sum`] whenever the input fits a single chunk.
fn kahan_map_sum_jobs(values: &[f64], jobs: usize, f: impl Fn(f64) -> f64 + Sync) -> f64 {
    if values.len() <= STAT_CHUNK {
        return kahan_sum(values.iter().map(|&v| f(v)));
    }
    let partials = selest_par::parallel_chunks_jobs(values, STAT_CHUNK, jobs, |chunk| {
        kahan_sum(chunk.iter().map(|&v| f(v)))
    });
    kahan_sum(partials)
}

/// [`kahan_sum`] over a slice with an explicit worker count; chunked so the
/// result is bit-identical for any `jobs` (see [`mean_jobs`]).
pub fn kahan_sum_jobs(values: &[f64], jobs: usize) -> f64 {
    kahan_map_sum_jobs(values, jobs, |v| v)
}

/// Arithmetic mean. Panics on an empty slice.
pub fn mean(values: &[f64]) -> f64 {
    mean_jobs(values, selest_par::configured_jobs())
}

/// [`mean`] with an explicit worker count. Chunked deterministically: any
/// `jobs` value (and any `SELEST_JOBS` setting) produces the same bits.
pub fn mean_jobs(values: &[f64], jobs: usize) -> f64 {
    assert!(!values.is_empty(), "mean of empty slice");
    kahan_sum_jobs(values, jobs) / values.len() as f64
}

/// Unbiased sample variance (denominator `n - 1`). Panics for `n < 2`.
pub fn variance(values: &[f64]) -> f64 {
    variance_jobs(values, selest_par::configured_jobs())
}

/// [`variance`] with an explicit worker count; bit-identical for any `jobs`.
pub fn variance_jobs(values: &[f64], jobs: usize) -> f64 {
    assert!(values.len() >= 2, "variance needs at least two values");
    let m = mean_jobs(values, jobs);
    let ss = kahan_map_sum_jobs(values, jobs, |v| (v - m) * (v - m));
    ss / (values.len() - 1) as f64
}

/// Sample standard deviation, the square root of [`variance`].
pub fn stddev(values: &[f64]) -> f64 {
    variance(values).sqrt()
}

/// [`stddev`] with an explicit worker count; bit-identical for any `jobs`.
pub fn stddev_jobs(values: &[f64], jobs: usize) -> f64 {
    variance_jobs(values, jobs).sqrt()
}

/// Quantile of type 7 (linear interpolation of order statistics, the R and
/// NumPy default). `q` must lie in `[0, 1]`. `sorted` must be ascending.
pub fn quantile(sorted: &[f64], q: f64) -> f64 {
    assert!(!sorted.is_empty(), "quantile of empty slice");
    assert!(
        (0.0..=1.0).contains(&q),
        "quantile fraction out of range: {q}"
    );
    debug_assert!(
        sorted.windows(2).all(|w| w[0] <= w[1]),
        "quantile input must be sorted"
    );
    let n = sorted.len();
    if n == 1 {
        return sorted[0];
    }
    let pos = q * (n - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    let frac = pos - lo as f64;
    sorted[lo] + frac * (sorted[hi] - sorted[lo])
}

/// Median via [`quantile`] at `q = 0.5`. `sorted` must be ascending.
pub fn median(sorted: &[f64]) -> f64 {
    quantile(sorted, 0.5)
}

/// Interquartile range `Q3 - Q1`. `sorted` must be ascending.
pub fn interquartile_range(sorted: &[f64]) -> f64 {
    quantile(sorted, 0.75) - quantile(sorted, 0.25)
}

/// The robust scale estimate used by the paper's normal scale rules:
/// `min(stddev, IQR / 1.349)`, computed from an *unsorted* sample.
///
/// Falls back to the other estimate when one of the two degenerates to zero
/// (e.g. heavy duplication collapsing the IQR), and to zero only when the
/// sample is entirely constant.
pub fn robust_scale(values: &[f64]) -> f64 {
    let mut sorted = values.to_vec();
    sorted.sort_by(|a, b| a.partial_cmp(b).expect("robust_scale: NaN in sample"));
    robust_scale_sorted(values, &sorted)
}

/// [`robust_scale`] over a sample whose ascending sort is already at hand
/// (e.g. a prepared column): the standard deviation still runs over
/// `values` in their original order — bit-for-bit what [`robust_scale`]
/// computes — while the IQR reads the caller's `sorted` copy, skipping the
/// re-sort.
pub fn robust_scale_sorted(values: &[f64], sorted: &[f64]) -> f64 {
    robust_scale_sorted_jobs(values, sorted, selest_par::configured_jobs())
}

/// [`robust_scale_sorted`] with an explicit worker count; bit-identical for
/// any `jobs`.
pub fn robust_scale_sorted_jobs(values: &[f64], sorted: &[f64], jobs: usize) -> f64 {
    assert!(values.len() >= 2, "robust_scale needs at least two values");
    debug_assert_eq!(
        values.len(),
        sorted.len(),
        "robust_scale_sorted: length mismatch"
    );
    let s = stddev_jobs(values, jobs);
    let iqr_scale = interquartile_range(sorted) / NORMAL_IQR_FACTOR;
    match (s > 0.0, iqr_scale > 0.0) {
        (true, true) => s.min(iqr_scale),
        (true, false) => s,
        (false, true) => iqr_scale,
        (false, false) => 0.0,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kahan_sum_is_accurate_for_adversarial_input() {
        // 1 + 1e-16 repeated: naive summation loses the small terms.
        let mut values = vec![1.0];
        values.extend(std::iter::repeat_n(1e-16, 1_000_000));
        let v = kahan_sum(values.iter().copied());
        assert!((v - (1.0 + 1e-10)).abs() < 1e-14, "got {v}");
    }

    #[test]
    fn mean_and_variance_match_hand_computation() {
        let xs = [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0];
        assert!((mean(&xs) - 5.0).abs() < 1e-15);
        // Sum of squared deviations = 32, n-1 = 7.
        assert!((variance(&xs) - 32.0 / 7.0).abs() < 1e-14);
    }

    #[test]
    fn quantile_type7_matches_reference() {
        let xs = [1.0, 2.0, 3.0, 4.0];
        assert_eq!(quantile(&xs, 0.0), 1.0);
        assert_eq!(quantile(&xs, 1.0), 4.0);
        assert!((quantile(&xs, 0.5) - 2.5).abs() < 1e-15);
        assert!((quantile(&xs, 0.25) - 1.75).abs() < 1e-15);
        assert!((quantile(&xs, 0.75) - 3.25).abs() < 1e-15);
    }

    #[test]
    fn median_odd_and_even() {
        assert_eq!(median(&[1.0, 5.0, 9.0]), 5.0);
        assert_eq!(median(&[1.0, 5.0, 9.0, 11.0]), 7.0);
    }

    #[test]
    fn iqr_of_standard_normal_quantiles() {
        // Evenly spaced normal quantiles approximate the distribution; the
        // IQR should approach 1.349 * sigma.
        let xs: Vec<f64> = (1..10_000)
            .map(|i| crate::special::normal_quantile(i as f64 / 10_000.0))
            .collect();
        let iqr = interquartile_range(&xs);
        assert!((iqr - NORMAL_IQR_FACTOR).abs() < 1e-3, "iqr={iqr}");
    }

    #[test]
    fn robust_scale_prefers_smaller_estimate() {
        // An outlier inflates stddev but not IQR.
        let mut xs: Vec<f64> = (0..100).map(|i| i as f64 / 100.0).collect();
        xs.push(1_000.0);
        let s = stddev(&xs);
        let r = robust_scale(&xs);
        assert!(r < s, "robust {r} should be below stddev {s}");
    }

    #[test]
    fn robust_scale_survives_degenerate_iqr() {
        // More than half the mass on one value collapses the IQR to zero.
        let mut xs = vec![5.0; 80];
        xs.extend((0..20).map(|i| i as f64));
        let r = robust_scale(&xs);
        assert!(r > 0.0, "robust scale should fall back to stddev, got {r}");
    }

    #[test]
    fn robust_scale_constant_sample_is_zero() {
        assert_eq!(robust_scale(&[3.0, 3.0, 3.0]), 0.0);
    }

    #[test]
    #[should_panic(expected = "mean of empty slice")]
    fn mean_rejects_empty() {
        let _ = mean(&[]);
    }

    #[test]
    fn chunked_sums_are_bit_identical_across_worker_counts() {
        // Larger than one STAT_CHUNK so the parallel path actually splits.
        let xs: Vec<f64> = (0..10_007)
            .map(|i| ((i * 2_654_435_761_usize) % 1_000) as f64 / 7.0)
            .collect();
        let base_sum = kahan_sum_jobs(&xs, 1);
        let base_mean = mean_jobs(&xs, 1);
        let base_var = variance_jobs(&xs, 1);
        for jobs in [2, 3, 7, 16] {
            assert_eq!(
                base_sum.to_bits(),
                kahan_sum_jobs(&xs, jobs).to_bits(),
                "sum jobs={jobs}"
            );
            assert_eq!(
                base_mean.to_bits(),
                mean_jobs(&xs, jobs).to_bits(),
                "mean jobs={jobs}"
            );
            assert_eq!(
                base_var.to_bits(),
                variance_jobs(&xs, jobs).to_bits(),
                "var jobs={jobs}"
            );
        }
    }

    #[test]
    fn single_chunk_matches_plain_kahan_sum() {
        let xs: Vec<f64> = (0..4_096).map(|i| 1.0 / (1.0 + i as f64)).collect();
        assert_eq!(
            kahan_sum_jobs(&xs, 8).to_bits(),
            kahan_sum(xs.iter().copied()).to_bits(),
            "inputs within one chunk must take the sequential path"
        );
    }

    #[test]
    fn robust_scale_sorted_matches_unsorted_entry_point() {
        let xs: Vec<f64> = (0..5_000)
            .map(|i| ((i * 97) % 1_001) as f64 / 3.0)
            .collect();
        let mut sorted = xs.clone();
        sorted.sort_by(|a, b| a.partial_cmp(b).unwrap());
        assert_eq!(
            robust_scale(&xs).to_bits(),
            robust_scale_sorted(&xs, &sorted).to_bits()
        );
        for jobs in [1, 2, 7] {
            assert_eq!(
                robust_scale(&xs).to_bits(),
                robust_scale_sorted_jobs(&xs, &sorted, jobs).to_bits(),
                "jobs={jobs}"
            );
        }
    }
}
