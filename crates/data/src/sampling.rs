//! Sampling without replacement (Section 5.1.1: "From each of these data
//! sets we have drawn sample sets of 2,000 records by selecting the records
//! from the file in a random fashion without replacement").
//!
//! Two algorithms are provided: a partial Fisher–Yates shuffle for the
//! common case where the data fits in memory, and reservoir sampling
//! (Vitter's algorithm R). Algorithm R draws row *positions*
//! ([`reservoir_positions`]) from nothing but the row count, so the store's
//! `ANALYZE` draws them once per relation and gathers every column's sample
//! from the same rows, as the paper samples records rather than values.

use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

/// Draw `n` values from `values` uniformly without replacement, by a partial
/// Fisher–Yates shuffle of an index array. Deterministic per seed.
///
/// Panics if `n > values.len()` — callers must cap the sample size.
pub fn sample_without_replacement(values: &[f64], n: usize, seed: u64) -> Vec<f64> {
    assert!(
        n <= values.len(),
        "cannot draw {n} samples from {} values without replacement",
        values.len()
    );
    let mut rng = StdRng::seed_from_u64(seed);
    let mut idx: Vec<u32> = (0..values.len() as u32).collect();
    let mut out = Vec::with_capacity(n);
    for i in 0..n {
        let j = rng.random_range(i..values.len());
        idx.swap(i, j);
        out.push(values[idx[i] as usize]);
    }
    out
}

/// Reservoir sampling (algorithm R) over row positions: the positions
/// `0..len` a one-pass reservoir of capacity `n` keeps, uniformly without
/// replacement, in reservoir-slot order. Fewer than `n` positions only if
/// `len < n` (then all of them, in order). The draw depends on nothing
/// but `(len, n, seed)`, so every column of a relation can share it.
///
/// Panics if `n == 0` or if a position does not fit in `u32`.
pub fn reservoir_positions(len: usize, n: usize, seed: u64) -> Vec<u32> {
    assert!(n > 0, "reservoir_positions needs n > 0");
    assert!(
        u32::try_from(len).is_ok(),
        "reservoir_positions: {len} rows do not fit u32 positions"
    );
    let mut rng = StdRng::seed_from_u64(seed);
    let mut reservoir: Vec<u32> = (0..len.min(n) as u32).collect();
    for i in n..len {
        let j = rng.random_range(0..=i);
        if j < n {
            reservoir[j] = i as u32;
        }
    }
    reservoir
}

/// Reservoir sample of `values`: the values at
/// [`reservoir_positions`]`(values.len(), n, seed)`, in reservoir-slot
/// order. Returns fewer than `n` values only if `values` is shorter than
/// `n`.
pub fn reservoir_sample(values: &[f64], n: usize, seed: u64) -> Vec<f64> {
    reservoir_positions(values.len(), n, seed)
        .iter()
        .map(|&p| values[p as usize])
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fisher_yates_draws_distinct_positions() {
        // With all-distinct values, "without replacement" means the output
        // has no duplicates.
        let values: Vec<f64> = (0..1_000).map(|i| i as f64).collect();
        let sample = sample_without_replacement(&values, 200, 9);
        assert_eq!(sample.len(), 200);
        let mut sorted = sample.clone();
        sorted.sort_by(|a, b| a.partial_cmp(b).unwrap());
        sorted.dedup();
        assert_eq!(sorted.len(), 200, "sample has duplicate positions");
    }

    #[test]
    fn fisher_yates_full_draw_is_a_permutation() {
        let values: Vec<f64> = (0..50).map(|i| i as f64).collect();
        let mut sample = sample_without_replacement(&values, 50, 4);
        sample.sort_by(|a, b| a.partial_cmp(b).unwrap());
        assert_eq!(sample, values);
    }

    #[test]
    fn fisher_yates_is_deterministic_and_seed_sensitive() {
        let values: Vec<f64> = (0..100).map(|i| i as f64).collect();
        assert_eq!(
            sample_without_replacement(&values, 10, 1),
            sample_without_replacement(&values, 10, 1)
        );
        assert_ne!(
            sample_without_replacement(&values, 10, 1),
            sample_without_replacement(&values, 10, 2)
        );
    }

    #[test]
    fn fisher_yates_is_roughly_uniform() {
        // Each of 10 values should be drawn ~equally often across seeds.
        let values: Vec<f64> = (0..10).map(|i| i as f64).collect();
        let mut counts = [0usize; 10];
        for seed in 0..2_000 {
            for v in sample_without_replacement(&values, 3, seed) {
                counts[v as usize] += 1;
            }
        }
        // Expected 600 per value.
        for (i, &c) in counts.iter().enumerate() {
            assert!(
                (c as i64 - 600).unsigned_abs() < 100,
                "value {i} drawn {c} times"
            );
        }
    }

    #[test]
    #[should_panic(expected = "without replacement")]
    fn fisher_yates_rejects_oversized_sample() {
        let _ = sample_without_replacement(&[1.0, 2.0], 3, 0);
    }

    #[test]
    fn reservoir_short_stream_returns_everything() {
        let r = reservoir_sample(&[1.0, 2.0, 3.0], 10, 0);
        assert_eq!(r, vec![1.0, 2.0, 3.0]);
    }

    #[test]
    fn reservoir_long_stream_keeps_n() {
        let values: Vec<f64> = (0..10_000).map(|i| i as f64).collect();
        let r = reservoir_sample(&values, 100, 5);
        assert_eq!(r.len(), 100);
        let mut sorted = r.clone();
        sorted.sort_by(|a, b| a.partial_cmp(b).unwrap());
        sorted.dedup();
        assert_eq!(sorted.len(), 100, "reservoir repeated a position");
    }

    #[test]
    fn reservoir_is_roughly_uniform() {
        // Probability any element survives should be n/N = 0.1.
        let n_trials = 600;
        let values: Vec<f64> = (0..1_000).map(|i| i as f64).collect();
        let mut first_half = 0usize;
        for seed in 0..n_trials {
            for v in reservoir_sample(&values, 100, seed) {
                if v < 500.0 {
                    first_half += 1;
                }
            }
        }
        let frac = first_half as f64 / (n_trials as usize * 100) as f64;
        assert!((frac - 0.5).abs() < 0.02, "first-half fraction {frac}");
    }

    /// Algorithm R as a one-pass stream sampler, as it ran before it drew
    /// positions: the oracle the position draw must reproduce bit for bit.
    fn stream_reservoir(values: &[f64], n: usize, seed: u64) -> Vec<f64> {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut reservoir: Vec<f64> = Vec::with_capacity(n);
        for (i, &v) in values.iter().enumerate() {
            if i < n {
                reservoir.push(v);
            } else {
                let j = rng.random_range(0..=i);
                if j < n {
                    reservoir[j] = v;
                }
            }
        }
        reservoir
    }

    #[test]
    fn positions_reproduce_the_stream_sampler_bit_for_bit() {
        for n in [1, 7, 100, 2_000] {
            for len in [0, 1, n - 1, n, n + 1, 3 * n + 5, 20_000] {
                let values: Vec<f64> = (0..len).map(|i| (i as f64).sqrt() - 3.5).collect();
                for seed in [0, 1, 0x5e_1e_c7] {
                    let got = reservoir_sample(&values, n, seed);
                    let want = stream_reservoir(&values, n, seed);
                    assert_eq!(
                        got.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
                        want.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
                        "n {n} len {len} seed {seed}"
                    );
                }
            }
        }
    }
}
