//! Greenwald–Khanna ε-approximate quantile sketch — the quantile half of
//! the incremental statistics substrate (DESIGN.md §15).
//!
//! Reservoir sampling (the paper's setting) retains whole records; a GK
//! sketch summarizes a stream in `O((1/ε) log(εn))` entries while
//! guaranteeing every quantile query a rank error of at most `εn` — the
//! structure a production `ANALYZE` uses to build equi-depth histograms in
//! one pass without remembering any sample. Since PR 9 the sketch is a
//! production structure rather than a figure-only extension:
//!
//! * Deletes are **tombstone-compensated**: [`GkSketch::note_delete`]
//!   counts them without touching the summary (GK entries cannot be
//!   unwound), [`GkSketch::live_n`] reports the live cardinality, and the
//!   store's staleness policy caps [`GkSketch::tombstone_fraction`]
//!   before the insert-only quantiles drift too far from the live data.
//! * [`GkSketch::rank_error_bound`] exposes the *realized* bound
//!   `max(⌊εn⌋, max(g+δ) − ⌊εn⌋)` that the quantile search meets, so
//!   callers can assert the `≤ ⌈εn⌉` guarantee instead of trusting the
//!   clamp; the `_with_bound` query variants return it alongside their
//!   answers.
//!
//! `GkSketch::equi_depth_boundaries` feeds directly into
//! `selest_histogram::equi_depth_from_boundaries` — the one shared
//! sketch→`BinnedHistogram` path used by both the catalog's incremental
//! ANALYZE and the `ext05` streaming figure.

use selest_core::EstimateError;

/// One summary tuple: the value, the minimum-rank gap `g` to the previous
/// tuple, and the rank uncertainty `delta`.
#[derive(Debug, Clone, Copy)]
struct Entry {
    v: f64,
    g: u64,
    delta: u64,
}

/// Greenwald–Khanna streaming quantile summary with error parameter `ε`.
/// # Examples
///
/// ```
/// use selest_data::GkSketch;
///
/// let mut sketch = GkSketch::new(0.01);
/// for i in 0..10_000 {
///     sketch.insert(((i * 37) % 1_000) as f64);
/// }
/// let (median, bound) = sketch.quantile_with_bound(0.5);
/// assert!((median - 500.0).abs() < 30.0);
/// assert!(bound <= (0.01 * 10_000.0) as u64 + 1); // realized ≤ ⌈εn⌉
/// assert!(sketch.entries() < 500); // bounded memory
/// ```
#[derive(Debug, Clone)]
pub struct GkSketch {
    epsilon: f64,
    entries: Vec<Entry>,
    n: u64,
    tombstones: u64,
    since_compress: u64,
}

impl GkSketch {
    /// New sketch with rank-error parameter `epsilon` in `(0, 0.5)`; a
    /// quantile query at fraction `q` returns a value whose true rank is
    /// within `epsilon * n` of `q * n`.
    pub fn new(epsilon: f64) -> Self {
        assert!(
            epsilon > 0.0 && epsilon < 0.5,
            "GkSketch epsilon out of (0, 0.5): {epsilon}"
        );
        GkSketch {
            epsilon,
            entries: Vec::new(),
            n: 0,
            tombstones: 0,
            since_compress: 0,
        }
    }

    /// The rank-error parameter `ε`.
    pub fn epsilon(&self) -> f64 {
        self.epsilon
    }

    /// Number of stream values consumed (inserts only; deletes are
    /// tombstoned, see [`GkSketch::live_n`]).
    pub fn len(&self) -> u64 {
        self.n
    }

    /// Whether the sketch has seen no values.
    pub fn is_empty(&self) -> bool {
        self.n == 0
    }

    /// Current number of summary tuples (the sketch's memory footprint).
    pub fn entries(&self) -> usize {
        self.entries.len()
    }

    /// Tombstoned deletes.
    pub fn tombstones(&self) -> u64 {
        self.tombstones
    }

    /// Live cardinality: inserts minus tombstoned deletes.
    pub fn live_n(&self) -> u64 {
        self.n - self.tombstones.min(self.n)
    }

    /// Tombstone debt as a fraction of the insert stream. Quantiles keep
    /// describing the insert-only stream; the staleness policy forces a
    /// rebuild before this bias can grow unbounded.
    pub fn tombstone_fraction(&self) -> f64 {
        self.tombstones as f64 / self.n.max(1) as f64
    }

    /// Record a delete. GK summary tuples cannot be unwound, so the
    /// delete is *compensated*, not applied: the tombstone count feeds
    /// [`GkSketch::live_n`] and the staleness policy, while quantiles
    /// continue to describe the insert stream.
    pub fn note_delete(&mut self) {
        self.tombstones += 1;
    }

    /// Consume one stream value.
    pub fn insert(&mut self, v: f64) {
        assert!(v.is_finite(), "GkSketch cannot ingest {v}");
        self.n += 1;
        let pos = self.entries.partition_point(|e| e.v < v);
        let delta = if pos == 0 || pos == self.entries.len() {
            0
        } else {
            let cap = (2.0 * self.epsilon * self.n as f64).floor() as u64;
            cap.saturating_sub(1)
        };
        self.entries.insert(pos, Entry { v, g: 1, delta });
        self.since_compress += 1;
        if self.since_compress as f64 >= 1.0 / (2.0 * self.epsilon) {
            self.compress();
            self.since_compress = 0;
        }
    }

    /// [`GkSketch::insert`] with a typed error instead of a panic: the
    /// incremental update path absorbs values without a sanitize pass, so
    /// a NaN reaching the sketch surfaces as
    /// [`EstimateError::NonFiniteUpdate`] upstream.
    pub fn try_insert(&mut self, v: f64) -> Result<(), EstimateError> {
        if !v.is_finite() {
            return Err(EstimateError::NonFiniteUpdate { value: v });
        }
        self.insert(v);
        Ok(())
    }

    /// Merge tuples whose combined uncertainty stays within the bound.
    fn compress(&mut self) {
        if self.entries.len() < 3 {
            return;
        }
        let cap = (2.0 * self.epsilon * self.n as f64).floor() as u64;
        let mut out: Vec<Entry> = Vec::with_capacity(self.entries.len());
        // Keep the first entry; try to merge each entry into its successor
        // scanning right-to-left (the classical formulation); equivalently
        // scan left-to-right merging the current into the next.
        let mut iter = self.entries.iter().copied();
        let mut cur = iter.next().expect("nonempty");
        for next in iter {
            let merged_g = cur.g + next.g;
            // Never merge away the first/last tuple (exact extremes).
            let is_first = out.is_empty();
            if !is_first && merged_g + next.delta <= cap {
                cur = Entry {
                    v: next.v,
                    g: merged_g,
                    delta: next.delta,
                };
            } else {
                out.push(cur);
                cur = next;
            }
        }
        out.push(cur);
        self.entries = out;
    }

    /// The *realized* rank-error bound of this summary's answers,
    /// `max(⌊εn⌋, max(g+δ) − ⌊εn⌋)`: a query returns the entry before the
    /// first whose maximum rank exceeds its target plus `⌊εn⌋`, so its rank
    /// is at most `⌊εn⌋` above the target and less than `max(g+δ) − ⌊εn⌋`
    /// below. The GK invariant `max(g+δ) ≤ ⌊2εn⌋` keeps this `≤ ⌈εn⌉`.
    pub fn rank_error_bound(&self) -> u64 {
        let widest = self.entries.iter().fold(0, |m, e| m.max(e.g + e.delta));
        let slack = self.search_slack();
        slack.max(widest.saturating_sub(slack))
    }

    /// `⌊εn⌋`: how far past its target rank a quantile search may look.
    fn search_slack(&self) -> u64 {
        (self.epsilon * self.n as f64) as u64
    }

    /// The ε-approximate `q`-quantile (`q` in `[0, 1]`). Panics on an empty
    /// sketch.
    pub fn quantile(&self, q: f64) -> f64 {
        self.quantile_with_bound(q).0
    }

    /// [`GkSketch::quantile`] plus the realized rank-error bound the
    /// answer carries: the returned value's true rank is within `bound`
    /// of `ceil(q·n)`.
    pub fn quantile_with_bound(&self, q: f64) -> (f64, u64) {
        assert!(
            (0.0..=1.0).contains(&q),
            "quantile fraction out of [0,1]: {q}"
        );
        assert!(self.n > 0, "quantile of an empty sketch");
        let bound = self.rank_error_bound();
        let target = (q * self.n as f64).ceil() as u64;
        let slack = self.search_slack();
        let mut r_min = 0u64;
        for (i, e) in self.entries.iter().enumerate() {
            r_min += e.g;
            // First entry whose max rank exceeds target + slack: the
            // previous entry is a valid answer.
            if r_min + e.delta > target + slack {
                return (self.entries[i.saturating_sub(1)].v, bound);
            }
        }
        (self.entries.last().expect("nonempty").v, bound)
    }

    /// Equi-depth boundaries for `k` bins over `[lo, hi]`: the interior
    /// `j/k` quantiles framed by the given domain bounds — drop-in input
    /// for `selest_histogram::equi_depth_from_boundaries`.
    pub fn equi_depth_boundaries(&self, k: usize, lo: f64, hi: f64) -> Vec<f64> {
        self.equi_depth_boundaries_with_bound(k, lo, hi).0
    }

    /// [`GkSketch::equi_depth_boundaries`] plus the realized rank-error
    /// bound: every interior boundary sits within `bound` ranks of its
    /// exact `j/k` depth slice edge, so callers can assert the `≤ εn`
    /// guarantee rather than trusting the silent clamp.
    pub fn equi_depth_boundaries_with_bound(&self, k: usize, lo: f64, hi: f64) -> (Vec<f64>, u64) {
        assert!(k >= 1, "need at least one bin");
        assert!(lo <= hi, "lo must not exceed hi");
        let mut b = Vec::with_capacity(k + 1);
        b.push(lo);
        for j in 1..k {
            b.push(self.quantile(j as f64 / k as f64).clamp(lo, hi));
        }
        b.push(hi);
        // Enforce monotonicity exactly (approximation noise can reorder
        // adjacent quantiles by up to 2 eps n ranks).
        for i in 1..b.len() {
            if b[i] < b[i - 1] {
                b[i] = b[i - 1];
            }
        }
        (b, self.rank_error_bound())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Distance from the target rank to the rank *interval* a value
    /// occupies (duplicated values cover a whole range of ranks).
    fn rank_distance(sorted: &[f64], v: f64, target: f64) -> f64 {
        let lo = sorted.partition_point(|&x| x < v) as f64;
        let hi = sorted.partition_point(|&x| x <= v) as f64;
        if target < lo {
            lo - target
        } else if target > hi {
            target - hi
        } else {
            0.0
        }
    }

    fn check_rank_errors(stream: &[f64], epsilon: f64) {
        let mut sk = GkSketch::new(epsilon);
        for &v in stream {
            sk.insert(v);
        }
        check_sketch_rank_errors(&sk, stream, epsilon);
    }

    fn check_sketch_rank_errors(sk: &GkSketch, stream: &[f64], epsilon: f64) {
        let mut sorted = stream.to_vec();
        sorted.sort_by(|a, b| a.total_cmp(b));
        let n = stream.len() as f64;
        assert!(
            sk.rank_error_bound() as f64 <= 2.0 * epsilon * n + 1.0,
            "realized bound {} exceeds 2εn = {}",
            sk.rank_error_bound(),
            2.0 * epsilon * n
        );
        for i in 1..20 {
            let q = i as f64 / 20.0;
            let (v, bound) = sk.quantile_with_bound(q);
            let err = rank_distance(&sorted, v, q * n);
            assert!(
                err <= 2.0 * epsilon * n + 1.0,
                "q={q}: value {v} misses the target rank {} by {err}",
                q * n
            );
            assert!(
                err <= bound as f64 + epsilon * n + 1.0,
                "q={q}: error {err} exceeds advertised bound {bound} + εn"
            );
        }
    }

    #[test]
    fn rank_error_bound_on_sorted_stream() {
        let stream: Vec<f64> = (0..20_000).map(|i| i as f64).collect();
        check_rank_errors(&stream, 0.01);
    }

    #[test]
    fn rank_error_bound_on_adversarial_orders() {
        // Reverse order and an interleaved order.
        let rev: Vec<f64> = (0..20_000).rev().map(|i| i as f64).collect();
        check_rank_errors(&rev, 0.01);
        let interleaved: Vec<f64> = (0..20_000).map(|i| ((i * 7_919) % 20_000) as f64).collect();
        check_rank_errors(&interleaved, 0.01);
    }

    #[test]
    fn handles_heavy_duplicates() {
        let mut stream = vec![42.0; 15_000];
        stream.extend((0..5_000).map(|i| i as f64 / 10.0));
        check_rank_errors(&stream, 0.02);
        let mut sk = GkSketch::new(0.02);
        for &v in &stream {
            sk.insert(v);
        }
        // The median of this stream is 42.
        assert_eq!(sk.quantile(0.5), 42.0);
    }

    #[test]
    fn memory_stays_sublinear() {
        let mut sk = GkSketch::new(0.01);
        for i in 0..100_000 {
            sk.insert(((i * 7_919) % 100_000) as f64);
        }
        // Exact storage would be 100 000 entries; GK should be ~O((1/eps)
        // log(eps n)) ~ a few hundred.
        assert!(
            sk.entries() < 2_000,
            "sketch holds {} entries for 100k stream values",
            sk.entries()
        );
    }

    #[test]
    fn tombstones_compensate_deletes() {
        let mut sk = GkSketch::new(0.01);
        for i in 0..1_000 {
            sk.insert(i as f64);
        }
        for _ in 0..250 {
            sk.note_delete();
        }
        assert_eq!(sk.len(), 1_000);
        assert_eq!(sk.live_n(), 750);
        assert_eq!(sk.tombstones(), 250);
        assert!((sk.tombstone_fraction() - 0.25).abs() < 1e-12);
    }

    #[test]
    fn try_insert_rejects_non_finite_with_typed_error() {
        let mut sk = GkSketch::new(0.01);
        assert!(matches!(
            sk.try_insert(f64::NAN),
            Err(EstimateError::NonFiniteUpdate { value }) if value.is_nan()
        ));
        assert!(matches!(
            sk.try_insert(f64::NEG_INFINITY),
            Err(EstimateError::NonFiniteUpdate { .. })
        ));
        assert!(sk.is_empty(), "rejected values must not count");
        sk.try_insert(3.5).unwrap();
        assert_eq!(sk.len(), 1);
    }

    #[test]
    fn equi_depth_boundaries_are_monotone_and_framed() {
        let mut sk = GkSketch::new(0.01);
        for i in 0..10_000 {
            sk.insert(((i * 37) % 1_000) as f64);
        }
        let (b, bound) = sk.equi_depth_boundaries_with_bound(16, 0.0, 1_000.0);
        assert_eq!(b.len(), 17);
        assert_eq!(b[0], 0.0);
        assert_eq!(b[16], 1_000.0);
        assert!(b.windows(2).all(|w| w[0] <= w[1]));
        assert!(
            bound <= (2.0 * 0.01 * 10_000.0) as u64 + 1,
            "realized bound {bound}"
        );
        // Interior boundaries near the true 1/16-quantiles of Uniform[0,1000).
        for (j, &v) in b.iter().enumerate().skip(1).take(15) {
            let truth = 1_000.0 * j as f64 / 16.0;
            assert!((v - truth).abs() < 40.0, "boundary {j}: {v} vs {truth}");
        }
    }

    #[test]
    fn sketch_feeds_an_equi_depth_histogram() {
        use selest_core::{Domain, RangeQuery, SelectivityEstimator};
        // Skewed stream: 80% below 100.
        let mut stream: Vec<f64> = (0..8_000).map(|i| (i % 100) as f64).collect();
        stream.extend((0..2_000).map(|i| 100.0 + (i % 900) as f64));
        let mut sk = GkSketch::new(0.005);
        for &v in &stream {
            sk.insert(v);
        }
        let domain = Domain::new(0.0, 1_000.0);
        let boundaries = sk.equi_depth_boundaries(20, domain.lo(), domain.hi());
        // The one shared sketch→histogram path (satellite of PR 9): depth
        // counts come from the same rank-difference rule the sample-sorted
        // equi-depth uses.
        let hist = selest_histogram::equi_depth_from_boundaries(boundaries, sk.len(), domain);
        let s = hist.selectivity(&RangeQuery::new(0.0, 99.5));
        assert!((s - 0.8).abs() < 0.05, "dense-region mass {s}");
    }

    #[test]
    #[should_panic(expected = "quantile of an empty sketch")]
    fn empty_sketch_panics_on_query() {
        let _ = GkSketch::new(0.1).quantile(0.5);
    }
}
