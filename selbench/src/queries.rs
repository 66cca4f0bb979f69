//! Seeded inputs: uniform draws and range queries that hit target true
//! selectivities.
//!
//! Every query's width is solved on the column's exact ECDF (the sorted
//! full column, as `selest_core::Ecdf` keeps it): pick a start row, then
//! the end value whose inclusive count is closest to the target row
//! count, ties included. This is the approach of faiss's
//! `GetExpectSelQueryIndex`, which keeps only queries whose exact
//! selectivity lands within a tolerance of each requested target, done
//! constructively instead of by rejection. Each endpoint is then moved to
//! a random point of the empty gap beside it, which leaves the exact count
//! unchanged but makes queries distinct even on heavily tied columns
//! (`iw` has 2 574 distinct values in 199 523 rows).

use selest_core::{Ecdf, RangeQuery};
use selest_store::splitmix64;

/// True selectivities the queries target, in equal shares.
pub const TARGETS: [f64; 5] = [0.001, 0.01, 0.05, 0.10, 0.25];

/// Stream tags of the endpoint jitter draws.
const JITTER_A: u64 = 1 << 40;
const JITTER_B: u64 = 2 << 40;

/// Counter-based uniform draw in `[0, 1)`: a pure function of
/// `(seed, stream, index)`, so any element of a stream can be regenerated
/// without storing it.
pub fn unit(seed: u64, stream: u64, index: u64) -> f64 {
    let h = splitmix64(seed ^ splitmix64(stream ^ splitmix64(index)));
    (h >> 11) as f64 / (1u64 << 53) as f64
}

/// Counter-based draw in `0..n`.
pub fn below(seed: u64, stream: u64, index: u64, n: usize) -> usize {
    ((unit(seed, stream, index) * n as f64) as usize).min(n - 1)
}

/// Largest miss of a query's exact row count from its target count: a
/// tenth of the target, or one row.
pub fn tolerance(target_rows: usize) -> usize {
    (target_rows / 10).max(1)
}

/// Placements tried per query before the closest one is kept.
const PLACEMENTS: u64 = 64;

/// The query starting at row `start` whose inclusive exact count is
/// closest to `k`, with that count.
fn solve(ecdf: &Ecdf, k: usize, start: usize) -> (f64, f64, usize) {
    let sorted = ecdf.sorted_values();
    let n = sorted.len();
    let a = sorted[start];
    // The query includes every row equal to `a`.
    let lo = ecdf.count_lt(a);
    let b_over = sorted[(lo + k - 1).min(n - 1)];
    let over = ecdf.count_le(b_over) - lo;
    // The closest end below `b_over` is the last value before its ties.
    let first_tie = ecdf.count_lt(b_over);
    if first_tie > lo && k - (first_tie - lo) < over - k {
        (a, sorted[first_tie - 1], first_tie - lo)
    } else {
        (a, b_over, over)
    }
}

/// Query `index` of stream `stream`: a range over the column behind
/// `ecdf` whose exact selectivity is within [`tolerance`] of `target`
/// where the data's ties allow (placements that miss are redrawn, as
/// faiss rejects them), with both endpoints then moved into the empty
/// gaps beside them.
pub fn target_query(ecdf: &Ecdf, target: f64, seed: u64, stream: u64, index: u64) -> RangeQuery {
    let sorted = ecdf.sorted_values();
    let n = sorted.len();
    let k = ((target * n as f64).round() as usize).clamp(1, n);
    let mut best = (0.0, 0.0, usize::MAX);
    for attempt in 0..PLACEMENTS {
        let u = unit(seed, stream, index | attempt << 48);
        let found = solve(ecdf, k, ((u * (n - k + 1) as f64) as usize).min(n - k));
        if found.2.abs_diff(k) < best.2.abs_diff(k) {
            best = found;
        }
        if best.2.abs_diff(k) <= tolerance(k) {
            break;
        }
    }
    let (a, b, _) = best;
    let below_a = sorted[ecdf.count_lt(a).saturating_sub(1)].min(a);
    let above_b = sorted.get(ecdf.count_le(b)).copied().unwrap_or(b);
    // Half-gap moves: the count cannot change, rounding included.
    let ja = 0.5 * unit(seed, stream ^ JITTER_A, index);
    let jb = 0.5 * unit(seed, stream ^ JITTER_B, index);
    RangeQuery::new(a - ja * (a - below_a), b + jb * (above_b - b))
}

/// `count` queries for the column, targets in equal shares and in
/// round-robin order, from stream `stream` of `seed`.
pub fn targeted(ecdf: &Ecdf, seed: u64, stream: u64, count: usize) -> Vec<RangeQuery> {
    (0..count)
        .map(|i| target_query(ecdf, TARGETS[i % TARGETS.len()], seed, stream, i as u64))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use selest_core::ExactSelectivity;
    use selest_data::PaperFile;

    #[test]
    fn targets_land_within_tolerance_on_the_exact_ecdf() {
        for file in [
            PaperFile::Normal { p: 20 },
            PaperFile::Exponential { p: 20 },
            PaperFile::Arapahoe1,
            PaperFile::InstanceWeight,
        ] {
            let data = file.generate();
            let ecdf = Ecdf::new(data.values());
            let exact = ExactSelectivity::new(data.values(), data.domain());
            let sorted = ecdf.sorted_values();
            let largest_tie = sorted
                .chunk_by(|a, b| a == b)
                .map(<[f64]>::len)
                .max()
                .unwrap_or(1);
            let n = data.len();
            let queries = targeted(&ecdf, 11, 3, 1_000);
            let mut outside = 0;
            for (i, q) in queries.iter().enumerate() {
                let k = (TARGETS[i % TARGETS.len()] * n as f64).round() as usize;
                let miss = exact.count(q).abs_diff(k);
                outside += usize::from(miss > tolerance(k));
                // Ties can make a target unreachable, never by more than
                // the largest run of equal values.
                assert!(
                    miss <= tolerance(k).max(largest_tie),
                    "{}: query {i} targets {k} rows, misses by {miss}",
                    file.name()
                );
            }
            assert!(
                outside * 100 <= queries.len(),
                "{}: {outside} of 1000 queries miss",
                file.name()
            );
        }
    }

    #[test]
    fn queries_are_distinct_on_tied_columns() {
        let data = PaperFile::InstanceWeight.generate();
        let ecdf = Ecdf::new(data.values());
        let mut bits: Vec<(u64, u64)> = targeted(&ecdf, 3, 0, 20_000)
            .iter()
            .map(RangeQuery::bounds_bits)
            .collect();
        bits.sort_unstable();
        bits.dedup();
        assert_eq!(bits.len(), 20_000, "duplicate queries on iw");
    }

    #[test]
    fn streams_are_pure_functions_of_the_seed() {
        let data = PaperFile::Normal { p: 20 }.generate_scaled(20);
        let ecdf = Ecdf::new(data.values());
        let a = targeted(&ecdf, 5, 1, 64);
        let b = targeted(&ecdf, 5, 1, 64);
        let c = targeted(&ecdf, 6, 1, 64);
        assert!(a
            .iter()
            .zip(&b)
            .all(|(x, y)| x.bounds_bits() == y.bounds_bits()));
        assert!(a
            .iter()
            .zip(&c)
            .any(|(x, y)| x.bounds_bits() != y.bounds_bits()));
        assert_eq!(unit(9, 2, 77), unit(9, 2, 77));
        assert!((0..1000).all(|i| below(1, 2, i, 7) < 7));
    }
}
