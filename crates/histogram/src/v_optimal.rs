//! The v-optimal histogram (extension baseline; Jagadish et al., VLDB '98,
//! reference \[7\] of the paper).
//!
//! Partitions the sample's (value, frequency) sequence into `k` contiguous
//! groups minimizing the total within-group variance of frequencies, by
//! dynamic programming with prefix sums (`O(D^2 k)` over `D` distinct
//! values). To keep construction tractable on continuous domains, distinct
//! values beyond `max_points` are first coalesced onto an equi-width
//! micro-grid — the standard practical compromise.

use selest_core::{Domain, PreparedColumn};

use crate::bins::BinnedHistogram;

/// Build a v-optimal histogram with (at most) `k` bins over the domain.
///
/// `max_points` caps the number of distinct points entering the DP
/// (256 is plenty for n = 2 000 samples; raise it for exactness on small
/// samples).
pub fn v_optimal(samples: &[f64], domain: Domain, k: usize, max_points: usize) -> BinnedHistogram {
    v_optimal_prepared(&PreparedColumn::prepare(samples, domain), k, max_points)
}

/// [`v_optimal`] over a prepared column: the DP consumes the shared sorted
/// slice — no copy, no re-sort.
pub fn v_optimal_prepared(col: &PreparedColumn, k: usize, max_points: usize) -> BinnedHistogram {
    let (sorted, domain) = (col.sorted(), col.domain());
    assert!(k >= 1, "v_optimal needs at least one bin");
    assert!(max_points >= k, "max_points must be at least k");
    assert!(
        domain.contains(sorted[0]) && domain.contains(*sorted.last().expect("nonempty")),
        "samples outside domain {domain}"
    );

    // (value, frequency) points: distinct values, or micro-grid cells when
    // there are too many.
    let mut points: Vec<(f64, f64)> = Vec::new();
    {
        let mut i = 0;
        while i < sorted.len() {
            let v = sorted[i];
            let j = sorted[i..].partition_point(|&x| x <= v) + i;
            points.push((v, (j - i) as f64));
            i = j;
        }
    }
    if points.len() > max_points {
        let cell = domain.width() / max_points as f64;
        let mut grid: Vec<(f64, f64)> = Vec::with_capacity(max_points);
        for &(v, f) in &points {
            let mut idx = ((v - domain.lo()) / cell) as usize;
            if idx >= max_points {
                idx = max_points - 1;
            }
            let center = domain.lo() + (idx as f64 + 0.5) * cell;
            match grid.last_mut() {
                Some(last) if last.0 == center => last.1 += f,
                _ => grid.push((center, f)),
            }
        }
        points = grid;
    }
    let d = points.len();
    let k = k.min(d);

    // Prefix sums of frequencies and squared frequencies for O(1) SSE.
    let mut pf = vec![0.0f64; d + 1];
    let mut pf2 = vec![0.0f64; d + 1];
    for (i, &(_, f)) in points.iter().enumerate() {
        pf[i + 1] = pf[i] + f;
        pf2[i + 1] = pf2[i] + f * f;
    }
    let sse = |a: usize, b: usize| {
        // Sum of squared deviations of frequencies in points[a..b].
        let cnt = (b - a) as f64;
        let s = pf[b] - pf[a];
        let s2 = pf2[b] - pf2[a];
        (s2 - s * s / cnt).max(0.0)
    };

    // DP: cost[j][i] = min SSE of splitting points[..i] into j groups.
    let inf = f64::INFINITY;
    let mut cost = vec![inf; d + 1];
    let mut back = vec![vec![0usize; d + 1]; k + 1];
    cost[0] = 0.0;
    for (i, c) in cost.iter_mut().enumerate().skip(1) {
        *c = sse(0, i);
    }
    let mut prev = cost;
    #[allow(clippy::needless_range_loop)] // j/split index DP tables in parallel
    for j in 2..=k {
        let mut cur = vec![inf; d + 1];
        // At least one point per group: i ranges j..=d.
        for i in j..=d {
            let mut best = inf;
            let mut arg = j - 1;
            #[allow(clippy::needless_range_loop)] // split indexes the DP row
            for split in (j - 1)..i {
                let c = prev[split] + sse(split, i);
                if c < best {
                    best = c;
                    arg = split;
                }
            }
            cur[i] = best;
            back[j][i] = arg;
        }
        prev = cur;
    }

    // Recover split indices.
    let mut splits = Vec::with_capacity(k - 1);
    let mut i = d;
    for j in (2..=k).rev() {
        let s = back[j][i];
        splits.push(s);
        i = s;
    }
    splits.reverse();

    // Boundaries at midpoints between adjacent groups' edge values.
    let mut boundaries = Vec::with_capacity(k + 1);
    boundaries.push(domain.lo());
    for &s in &splits {
        boundaries.push(0.5 * (points[s - 1].0 + points[s].0));
    }
    boundaries.push(domain.hi());

    // Counts per (c_i, c_{i+1}] from the sorted sample.
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
    BinnedHistogram::new(boundaries, counts, domain, "VOPT")
}

#[cfg(test)]
mod tests {
    use super::*;
    use selest_core::{RangeQuery, SelectivityEstimator};

    #[test]
    fn separates_frequency_regimes() {
        let d = Domain::new(0.0, 30.0);
        // Three regimes: freq 10 at 0..10, freq 1 at 10..20, freq 10 at
        // 20..30.
        let mut samples = Vec::new();
        for v in 0..10 {
            samples.extend(std::iter::repeat_n(v as f64, 10));
        }
        for v in 10..20 {
            samples.push(v as f64);
        }
        for v in 20..30 {
            samples.extend(std::iter::repeat_n(v as f64, 10));
        }
        let h = v_optimal(&samples, d, 3, 256);
        assert_eq!(h.n_bins(), 3);
        let b = h.boundaries();
        // Splits near the regime changes at ~10 and ~20.
        assert!((b[1] - 9.5).abs() < 1.1, "first split at {}", b[1]);
        assert!((b[2] - 19.5).abs() < 1.1, "second split at {}", b[2]);
    }

    #[test]
    fn whole_domain_mass_is_one() {
        let d = Domain::new(0.0, 100.0);
        let samples: Vec<f64> = (0..500).map(|i| i as f64 * 17.0 % 100.0).collect();
        let h = v_optimal(&samples, d, 8, 128);
        assert!((h.selectivity(&RangeQuery::new(0.0, 100.0)) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn micro_grid_kicks_in_for_many_distinct_values() {
        let d = Domain::new(0.0, 1000.0);
        let samples: Vec<f64> = (0..900).map(|i| i as f64 + 0.5).collect();
        // 900 distinct values, capped at 64 points.
        let h = v_optimal(&samples, d, 8, 64);
        assert_eq!(h.n_bins(), 8);
        let total: u32 = h.counts().iter().sum();
        assert_eq!(total as usize, samples.len());
    }

    #[test]
    fn k_larger_than_distinct_values_degrades_gracefully() {
        let d = Domain::new(0.0, 10.0);
        let h = v_optimal(&[2.0, 2.0, 8.0], d, 5, 64);
        assert!(h.n_bins() <= 2);
        let total: u32 = h.counts().iter().sum();
        assert_eq!(total, 3);
    }

    #[test]
    fn flat_frequencies_are_split_but_harmless() {
        // With all frequencies equal, any split has zero SSE; the estimator
        // must still be calibrated.
        let d = Domain::new(0.0, 8.0);
        let samples: Vec<f64> = (0..8).map(|i| i as f64).collect();
        let h = v_optimal(&samples, d, 4, 64);
        let s = h.selectivity(&RangeQuery::new(0.0, 8.0));
        assert!((s - 1.0).abs() < 1e-12);
    }
}
