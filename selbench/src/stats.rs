//! The one percentile helper every selbench timing goes through.
//!
//! Samples go into fixed-size log-linear histograms, so the harness's own
//! memory does not grow with throughput (a faster system must not read as
//! a bigger one in `peak_rss_mb`). A percentile is reported only when at
//! least [`MIN_BEYOND`] samples lie beyond it, and every timing carries
//! its sample count, so a p99 drawn from a few hundred samples can never
//! be mistaken for a measured tail.

/// Samples that must lie strictly beyond a percentile before it is
/// reported.
pub const MIN_BEYOND: u64 = 10;

/// Sub-buckets per power of two: values are kept to within 1/128
/// (0.8%) of their true magnitude.
const SUB_BITS: u32 = 7;
const SUB: u64 = 1 << SUB_BITS;
const BUCKETS: usize = ((64 - SUB_BITS as usize) + 1) * SUB as usize;

/// A log-linear histogram of non-negative integer samples (nanoseconds,
/// counts): exact below 128, within 0.8% above.
#[derive(Clone)]
pub struct Histogram {
    counts: Vec<u64>,
    n: u64,
    max: u64,
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram {
            counts: vec![0; BUCKETS],
            n: 0,
            max: 0,
        }
    }
}

fn bucket(v: u64) -> usize {
    if v < SUB {
        return v as usize;
    }
    let exp = 63 - v.leading_zeros();
    let sub = (v >> (exp - SUB_BITS)) & (SUB - 1);
    ((exp - SUB_BITS + 1) as u64 * SUB + sub) as usize
}

/// The midpoint of bucket `b`.
fn value_of(b: usize) -> f64 {
    let b = b as u64;
    if b < SUB {
        return b as f64;
    }
    let exp = b / SUB + u64::from(SUB_BITS) - 1;
    let width = 1u64 << (exp - u64::from(SUB_BITS));
    let lo = (SUB + b % SUB) * width;
    lo as f64 + (width as f64 - 1.0) / 2.0
}

impl Histogram {
    /// Record one sample.
    pub fn record(&mut self, v: u64) {
        self.counts[bucket(v)] += 1;
        self.n += 1;
        self.max = self.max.max(v);
    }

    /// Add every sample of `other`.
    pub fn merge(&mut self, other: &Histogram) {
        for (a, b) in self.counts.iter_mut().zip(&other.counts) {
            *a += b;
        }
        self.n += other.n;
        self.max = self.max.max(other.max);
    }

    /// Samples recorded.
    pub fn len(&self) -> u64 {
        self.n
    }

    /// Whether nothing was recorded.
    pub fn is_empty(&self) -> bool {
        self.n == 0
    }

    /// Largest sample.
    pub fn max(&self) -> u64 {
        self.max
    }

    /// The `q` percentile (nearest rank, reported at its bucket's
    /// midpoint), or `None` when fewer than [`MIN_BEYOND`] samples lie
    /// beyond it.
    pub fn percentile(&self, q: f64) -> Option<f64> {
        let rank = ((q * self.n as f64).ceil() as u64).clamp(1, self.n.max(1));
        if self.n == 0 || self.n - rank < MIN_BEYOND {
            return None;
        }
        let mut seen = 0;
        for (b, &c) in self.counts.iter().enumerate() {
            seen += c;
            if seen >= rank {
                return Some(value_of(b).min(self.max as f64));
            }
        }
        None
    }
}

/// Median of a list of already-summarized values (per-sub-window rates,
/// set-up times); no sample-count rule applies to these.
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of nothing");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    selest_math::quantile(&v, 0.5)
}

/// Values dropped from each end by [`trimmed_mean`].
pub const TRIM: usize = 2;

/// Mean of `values` without the [`TRIM`] lowest and [`TRIM`] highest (all
/// of them when there are too few to trim). A stall moves one sub-window
/// and is trimmed away; a host that alternates between a fast and a slow
/// speed within a window reads as the average of the two, where a median
/// would jump from one to the other between runs.
pub fn trimmed_mean(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "mean of nothing");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let kept = if v.len() > 2 * TRIM {
        &v[TRIM..v.len() - TRIM]
    } else {
        &v[..]
    };
    selest_math::kahan_sum(kept.iter().copied()) / kept.len() as f64
}

/// Quartiles `(q1, median, q3)` by the exclusive method of Python's
/// `statistics.quantiles(values, n=4)`, so spreads computed here match the
/// ones computed from the same values in Python. Needs two values.
pub fn quartiles(values: &[f64]) -> (f64, f64, f64) {
    assert!(values.len() >= 2, "quartiles need at least two values");
    let mut x = values.to_vec();
    x.sort_by(f64::total_cmp);
    let n = x.len();
    let m = n + 1;
    let cut = |i: usize| {
        let j = (i * m / 4).clamp(1, n - 1);
        let delta = (i * m) as f64 / 4.0 - j as f64;
        x[j - 1] + (x[j] - x[j - 1]) * delta
    };
    (cut(1), cut(2), cut(3))
}

/// Summary of one timing: median, p99 when the sample supports it, and
/// the sample count.
#[derive(Debug, Clone, Copy)]
pub struct Timing {
    /// Median.
    pub p50: f64,
    /// 99th percentile, `None` below 1 000 samples.
    pub p99: Option<f64>,
    /// Samples summarized.
    pub n: u64,
}

/// Summarize a timed window split into equal sub-windows: the median is
/// the [`trimmed_mean`] of the sub-window medians and p99 that of the
/// sub-window p99s, so one scheduler stall moves one sub-window, not the
/// result. A sub-window too small for a percentile makes that percentile
/// fall back to the pooled samples (still subject to [`MIN_BEYOND`]).
pub fn windowed(subwindows: &[Histogram]) -> Option<Timing> {
    let parts: Vec<&Histogram> = subwindows.iter().filter(|h| !h.is_empty()).collect();
    let mut pooled = Histogram::default();
    for h in &parts {
        pooled.merge(h);
    }
    let across = |q: f64| -> Option<f64> {
        match parts
            .iter()
            .map(|h| h.percentile(q))
            .collect::<Option<Vec<f64>>>()
        {
            Some(v) if !v.is_empty() => Some(trimmed_mean(&v)),
            _ => pooled.percentile(q),
        }
    };
    Some(Timing {
        p50: across(0.5)?,
        p99: across(0.99),
        n: pooled.len(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn hist(values: impl IntoIterator<Item = u64>) -> Histogram {
        let mut h = Histogram::default();
        for v in values {
            h.record(v);
        }
        h
    }

    #[test]
    fn percentile_needs_ten_samples_beyond() {
        assert!(
            hist(0..999).percentile(0.99).is_none(),
            "9 beyond p99 of 999"
        );
        assert!(hist(0..1000).percentile(0.99).is_some());
        assert!(hist(0..19).percentile(0.5).is_none());
        assert!(hist(0..20).percentile(0.5).is_some());
    }

    #[test]
    fn buckets_stay_within_their_resolution() {
        for v in [
            0u64,
            1,
            127,
            128,
            129,
            1_000,
            65_537,
            1 << 40,
            u64::MAX >> 1,
        ] {
            let got = value_of(bucket(v));
            assert!(
                (got - v as f64).abs() <= v as f64 / 128.0 + 0.5,
                "{v} -> {got}"
            );
        }
        let h = hist((1..=10_000u64).map(|i| i * 1_000));
        let p50 = h.percentile(0.5).expect("supported");
        assert!((p50 - 5.0e6).abs() / 5.0e6 < 0.01, "{p50}");
        assert_eq!(h.max(), 10_000_000);
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), (2.75, 5.5, 8.25));
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), (1.0, 2.0, 3.0));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), (0.75, 1.5, 2.25));
    }

    #[test]
    fn trimmed_mean_drops_the_extremes() {
        let v = [100.0, 1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0, -50.0];
        assert_eq!(trimmed_mean(&v), 4.5);
        assert_eq!(trimmed_mean(&[1.0, 3.0]), 2.0);
    }

    #[test]
    fn windowed_takes_trimmed_means_and_counts_every_sample() {
        let subs: Vec<Histogram> = (0..10u64).map(|w| hist((0..1000).map(|i| i + w))).collect();
        let t = windowed(&subs).expect("supported");
        assert_eq!(t.n, 10_000);
        assert!((t.p50 - 504.0).abs() < 504.0 / 128.0 + 1.0, "{}", t.p50);
        assert!(t.p99.is_some());
        // Sub-windows too small for a p99 fall back to the pooled sample.
        let small: Vec<Histogram> = (0..10).map(|_| hist(0..150)).collect();
        let t = windowed(&small).expect("p50 supported");
        assert!(t.p99.is_some(), "1 500 pooled samples support p99");
        assert!(windowed(&[hist([1; 5])]).is_none());
    }
}
