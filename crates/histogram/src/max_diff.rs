//! The max-diff histogram (Section 3.1, after Poosala et al., SIGMOD '96):
//! "for the max-diff histogram with k bins, the k-1 adjacent pairs with
//! maximum distance are computed and a boundary is set between each of the
//! k-1 pairs."
//!
//! We place each boundary at the midpoint of its gap between adjacent
//! *distinct* sorted sample values, and close the outer bins at the domain
//! bounds. On continuous large domains the largest gaps are dominated by
//! sampling noise in sparse regions — the reason the paper finds max-diff
//! clearly inferior there, opposite to the small-domain results of \[8\].

use selest_core::{Domain, PreparedColumn};

use crate::bins::BinnedHistogram;

/// Build a max-diff histogram with (at most) `k` bins over the domain.
///
/// Fewer than `k` bins result when the sample has fewer than `k` distinct
/// values.
pub fn max_diff(samples: &[f64], domain: Domain, k: usize) -> BinnedHistogram {
    max_diff_prepared(&PreparedColumn::prepare(samples, domain), k)
}

/// [`max_diff`] over a prepared column: reads the shared sorted slice —
/// no copy, no re-sort.
pub fn max_diff_prepared(col: &PreparedColumn, k: usize) -> BinnedHistogram {
    let (sorted, domain) = (col.sorted(), col.domain());
    assert!(k >= 1, "max_diff needs at least one bin");
    assert!(
        domain.contains(sorted[0]) && domain.contains(*sorted.last().expect("nonempty")),
        "samples outside domain {domain}"
    );
    // Distinct values and the gaps between them.
    let mut distinct: Vec<f64> = sorted.to_vec();
    distinct.dedup();
    let n_gaps = distinct.len().saturating_sub(1);
    let n_cuts = (k - 1).min(n_gaps);

    // Indices of the n_cuts largest gaps.
    let mut gap_order: Vec<usize> = (0..n_gaps).collect();
    gap_order.sort_by(|&a, &b| {
        let ga = distinct[a + 1] - distinct[a];
        let gb = distinct[b + 1] - distinct[b];
        gb.partial_cmp(&ga).expect("finite gaps").then(a.cmp(&b))
    });
    let mut cut_gaps: Vec<usize> = gap_order[..n_cuts].to_vec();
    cut_gaps.sort_unstable();

    let mut boundaries = Vec::with_capacity(n_cuts + 2);
    boundaries.push(domain.lo());
    for &g in &cut_gaps {
        boundaries.push(0.5 * (distinct[g] + distinct[g + 1]));
    }
    boundaries.push(domain.hi());

    // Count samples per (c_i, c_{i+1}], first bin closed at lo.
    let n = sorted.len();
    let n_bins = boundaries.len() - 1;
    let mut counts = Vec::with_capacity(n_bins);
    let mut prev_idx = 0usize;
    #[allow(clippy::needless_range_loop)] // i indexes boundaries, not an iterable
    for i in 1..=n_bins {
        let hi = boundaries[i];
        let idx = if i == n_bins {
            n
        } else {
            sorted.partition_point(|&v| v <= hi)
        };
        counts.push((idx - prev_idx) as u32);
        prev_idx = idx;
    }
    BinnedHistogram::new(boundaries, counts, domain, "MDH")
}

#[cfg(test)]
mod tests {
    use super::*;
    use selest_core::{RangeQuery, SelectivityEstimator};

    #[test]
    fn boundaries_split_the_largest_gaps() {
        let d = Domain::new(0.0, 100.0);
        // Two clusters with a huge gap between 10 and 90.
        let mut samples: Vec<f64> = (0..50).map(|i| i as f64 * 0.2).collect();
        samples.extend((0..50).map(|i| 90.0 + i as f64 * 0.2));
        let h = max_diff(&samples, d, 2);
        assert_eq!(h.n_bins(), 2);
        // The single cut sits in the middle of the gap [9.8, 90].
        let cut = h.boundaries()[1];
        assert!((cut - 49.9).abs() < 1e-9, "cut at {cut}");
        assert_eq!(h.counts(), &[50, 50]);
        // The empty valley gets near-zero estimated selectivity only to the
        // extent the bins spread mass; a query deep in the valley sees the
        // uniform-within-bin assumption.
        let s = h.selectivity(&RangeQuery::new(30.0, 40.0));
        assert!(s < 0.15, "valley mass {s}");
    }

    #[test]
    fn k_cuts_pick_the_k_largest_gaps() {
        let d = Domain::new(0.0, 100.0);
        // Gaps: between 10 and 40 (30), 41 and 60 (19), 61..62 small, etc.
        let samples = vec![5.0, 10.0, 40.0, 41.0, 60.0, 61.0, 62.0, 95.0];
        let h = max_diff(&samples, d, 4);
        // Largest gaps: 62->95 (33), 10->40 (30), 41->60 (19); cuts at
        // their midpoints 78.5, 25, 50.5. Four bins, five boundaries.
        let b = h.boundaries();
        assert_eq!(b.len(), 5);
        assert!((b[1] - 25.0).abs() < 1e-9);
        assert!((b[2] - 50.5).abs() < 1e-9);
        assert!((b[3] - 78.5).abs() < 1e-9);
    }

    #[test]
    fn duplicates_collapse_available_cuts() {
        let d = Domain::new(0.0, 10.0);
        let h = max_diff(&[3.0, 3.0, 3.0, 7.0, 7.0], d, 5);
        // Only one gap exists (3 -> 7): two bins, not five.
        assert_eq!(h.n_bins(), 2);
        assert_eq!(h.counts(), &[3, 2]);
    }

    #[test]
    fn whole_domain_mass_is_one() {
        let d = Domain::new(0.0, 50.0);
        let samples: Vec<f64> = (0..100).map(|i| (i * i % 50) as f64).collect();
        let h = max_diff(&samples, d, 7);
        assert!((h.selectivity(&RangeQuery::new(0.0, 50.0)) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn single_distinct_value_yields_one_bin() {
        let d = Domain::new(0.0, 10.0);
        let h = max_diff(&[4.0; 10], d, 3);
        assert_eq!(h.n_bins(), 1);
        assert_eq!(h.counts(), &[10]);
    }
}
