//! The equi-depth (equi-height) histogram: boundaries at sample quantiles
//! so every bin holds (approximately) the same number of samples
//! (Section 3.1, after Piatetsky-Shapiro & Connell).
//!
//! Over heavily duplicated data, quantile boundaries can coincide; the
//! resulting zero-width bins act as point masses (see
//! [`crate::bins::BinnedHistogram`]).

use selest_core::{Domain, PreparedColumn};

use crate::bins::BinnedHistogram;

/// Build an equi-depth histogram with `k` bins over the domain.
///
/// Interior boundaries are the `j/k` sample quantiles; the outer boundaries
/// are the domain bounds, so the first and last bins absorb the slack
/// between the extreme samples and the domain edges (the paper requires
/// bins to partition the *complete* attribute domain).
pub fn equi_depth(samples: &[f64], domain: Domain, k: usize) -> BinnedHistogram {
    equi_depth_prepared(&PreparedColumn::prepare(samples, domain), k)
}

/// [`equi_depth`] over a prepared column: consumes the shared sorted slice
/// directly — no copy, no re-sort.
pub fn equi_depth_prepared(col: &PreparedColumn, k: usize) -> BinnedHistogram {
    let (sorted, domain) = (col.sorted(), col.domain());
    assert!(k >= 1, "equi_depth needs at least one bin");
    assert!(
        domain.contains(sorted[0]) && domain.contains(*sorted.last().expect("nonempty")),
        "samples outside domain {domain}"
    );
    let n = sorted.len();
    let mut boundaries = Vec::with_capacity(k + 1);
    boundaries.push(domain.lo());
    for j in 1..k {
        // Upper edge of the j-th depth slice: the ceil(j*n/k)-th order
        // statistic.
        let rank = (j * n).div_ceil(k).clamp(1, n);
        boundaries.push(sorted[rank - 1]);
    }
    boundaries.push(domain.hi());
    // Guard against quantiles below lo (impossible) or above hi (impossible
    // since samples are inside the domain); enforce monotonicity exactly.
    for i in 1..boundaries.len() {
        if boundaries[i] < boundaries[i - 1] {
            boundaries[i] = boundaries[i - 1];
        }
    }
    BinnedHistogram::new(boundaries, depth_counts(n, k), domain, "EDH")
}

/// Build an equi-depth histogram from *pre-computed* quantile boundaries —
/// the sketch path. Anything that can produce approximate `j/k` quantile
/// boundaries (a `GkSketch`, a merged partition summary) plugs in here and
/// gets the same rank-difference depth counts as the sample-sorted path:
/// bin `j` is credited `ceil(j·n/k) − ceil((j−1)·n/k)` rows *by
/// construction*, because an ε-approximate boundary is still the boundary
/// of the j-th depth slice up to εn ranks. Coincident boundaries behave as
/// point masses, exactly as in [`equi_depth`].
///
/// `boundaries` must be `domain.lo(), q_{1/k}, …, q_{(k-1)/k}, domain.hi()`
/// (length `k + 1`, non-decreasing) and `n` the stream length the
/// quantiles summarize.
pub fn equi_depth_from_boundaries(boundaries: Vec<f64>, n: u64, domain: Domain) -> BinnedHistogram {
    let k = boundaries.len().checked_sub(1).expect("k+1 boundaries");
    assert!(k >= 1, "equi_depth needs at least one bin");
    assert!(n > 0, "equi_depth needs a nonempty stream");
    assert!(
        boundaries.windows(2).all(|w| w[0] <= w[1]),
        "equi-depth boundaries must be non-decreasing"
    );
    BinnedHistogram::new(boundaries, depth_counts(n as usize, k), domain, "EDH")
}

/// Depth counts as rank differences of the `j/k` quantile boundaries —
/// *not* value-based counting: a duplicated boundary value splits its
/// duplicates across the coincident (zero-width) bins, preserving the
/// point mass instead of dumping it into the first bin that ends there.
fn depth_counts(n: usize, k: usize) -> Vec<u32> {
    let mut counts = Vec::with_capacity(k);
    let mut prev_rank = 0usize;
    for j in 1..=k {
        let rank = if j == k {
            n
        } else {
            (j * n).div_ceil(k).clamp(1, n)
        };
        counts.push((rank - prev_rank) as u32);
        prev_rank = rank;
    }
    counts
}

#[cfg(test)]
mod tests {
    use super::*;
    use selest_core::{RangeQuery, SelectivityEstimator};

    #[test]
    fn bins_hold_equal_depth_on_distinct_data() {
        let d = Domain::new(0.0, 100.0);
        let samples: Vec<f64> = (0..400).map(|i| i as f64 / 4.0).collect();
        let h = equi_depth(&samples, d, 8);
        assert_eq!(h.n_bins(), 8);
        for &c in h.counts() {
            assert_eq!(c, 50);
        }
    }

    #[test]
    fn total_count_is_preserved_under_duplicates() {
        let d = Domain::new(0.0, 10.0);
        // 70% duplicates of the value 5.
        let mut samples = vec![5.0; 70];
        samples.extend((0..30).map(|i| i as f64 / 3.0));
        let h = equi_depth(&samples, d, 5);
        let total: u32 = h.counts().iter().sum();
        assert_eq!(total, 100);
        // The duplicated value forces coincident boundaries somewhere.
        let zero_width = h.boundaries().windows(2).filter(|w| w[0] == w[1]).count();
        assert!(zero_width >= 1, "expected coincident quantile boundaries");
        // A query covering 5 captures the bulk of the duplicate mass (the
        // interior zero-width bins hold their depth as point masses; only
        // the two outer bins spread theirs).
        let s = h.selectivity(&RangeQuery::new(4.9, 5.1));
        assert!(s >= 0.55, "got {s}");
    }

    #[test]
    fn skewed_data_gets_narrow_bins_in_dense_regions() {
        let d = Domain::new(0.0, 1000.0);
        // 90% of mass in [0, 10], the rest spread to 1000.
        let mut samples: Vec<f64> = (0..900).map(|i| i as f64 / 90.0).collect();
        samples.extend((0..100).map(|i| 10.0 + i as f64 * 9.9));
        let h = equi_depth(&samples, d, 10);
        // At least 8 of the 10 bins end within [0, 10].
        let below = h.boundaries().iter().filter(|&&b| b <= 10.0).count();
        assert!(below >= 9, "only {below} boundaries in the dense region");
        // Selectivity of the dense region is ~0.9.
        let s = h.selectivity(&RangeQuery::new(0.0, 10.0));
        assert!((s - 0.9).abs() < 0.05, "got {s}");
    }

    #[test]
    fn single_bin_equals_uniform_spread() {
        let d = Domain::new(0.0, 10.0);
        let h = equi_depth(&[1.0, 2.0, 3.0], d, 1);
        assert_eq!(h.n_bins(), 1);
        let s = h.selectivity(&RangeQuery::new(0.0, 5.0));
        assert!((s - 0.5).abs() < 1e-15);
    }

    #[test]
    fn more_bins_than_samples_still_works() {
        let d = Domain::new(0.0, 10.0);
        let h = equi_depth(&[2.0, 7.0], d, 5);
        let total: u32 = h.counts().iter().sum();
        assert_eq!(total, 2);
        assert!((h.selectivity(&RangeQuery::new(0.0, 10.0)) - 1.0).abs() < 1e-15);
    }
}
