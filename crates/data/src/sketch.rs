//! Greenwald–Khanna ε-approximate quantile sketch — the quantile half of
//! the incremental statistics substrate (DESIGN.md §15).
//!
//! Reservoir sampling (the paper's setting) retains whole records; a GK
//! sketch summarizes a stream in `O((1/ε) log(εn))` entries while
//! guaranteeing every quantile query a rank error of at most `εn` — the
//! structure a production `ANALYZE` uses to build equi-depth histograms in
//! one pass without remembering any sample.
//!
//! * [`GkSketch::try_insert_all`] is the one insertion path. It absorbs a
//!   slice one compress period (`⌈1/(2ε)⌉` values) at a time and yields
//!   the summary that inserting the values one by one, in order, would
//!   yield, bit for bit. Each value's `δ` comes from its own `n` and from
//!   whether it lands at either end of the summary when it arrives. Its
//!   gap (how many tuples are `<` it) comes from lockstep branchless
//!   searches. The period's new tuples then merge in place by gap and by
//!   value, a later arrival before an earlier equal one and every new
//!   tuple before any old tuple of equal value (values compare with `<`,
//!   so `-0.0` and `+0.0` are one value), and the period's compress runs
//!   in place after them. The per-value insert is the oracle of this
//!   module's differential tests.
//! * [`GkSketch::rank_error_bound`] exposes the *realized* bound
//!   `max(⌊εn⌋, max(g+δ) − ⌊εn⌋)` that the quantile search meets, so
//!   callers can assert the `≤ ⌈εn⌉` guarantee instead of trusting the
//!   clamp; the `_with_bound` query variants return it alongside their
//!   answers.
//!
//! The sketch describes the insert stream only: GK tuples cannot be
//! unwound, so deletes never reach it, and the store's staleness policy
//! caps the column's tombstone debt instead.
//!
//! `GkSketch::equi_depth_boundaries` feeds directly into
//! `selest_histogram::equi_depth_from_boundaries` — the one shared
//! sketch→`BinnedHistogram` path used by both the catalog's incremental
//! ANALYZE and the `ext05` streaming figure.

use std::hint::select_unpredictable;

use selest_core::EstimateError;

/// One summary tuple: the value, the minimum-rank gap `g` to the previous
/// tuple, and the rank uncertainty `delta`.
#[derive(Debug, Clone, Copy)]
struct Entry {
    v: f64,
    g: u64,
    delta: u64,
}

impl Entry {
    /// Filler for slots that are written before they are read.
    const FILLER: Entry = Entry {
        v: 0.0,
        g: 0,
        delta: 0,
    };
}

/// Searches run in lockstep by [`find_gaps`].
const LANES: usize = 4;

/// Each arrived value's gap among `entries`, [`LANES`] branchless lower
/// bounds at a time: the probe sequence depends only on `entries.len()`,
/// so the lanes step together.
fn find_gaps(entries: &[Entry], arrived: &mut [(Entry, usize)]) {
    if entries.is_empty() {
        return;
    }
    let mut groups = arrived.chunks_exact_mut(LANES);
    for group in &mut groups {
        lower_bounds::<LANES>(entries, group);
    }
    for one in groups.into_remainder().chunks_mut(1) {
        lower_bounds::<1>(entries, one);
    }
}

/// Merge the arrived tuples into `entries` in place, each where the
/// per-value insert puts it: after the tuples `<` it, before the rest,
/// and inside its gap by value, a later arrival before an earlier equal
/// one. `below` is working memory: per gap `g`, how many new tuples sit
/// in the gaps below `g`.
fn merge_into(entries: &mut Vec<Entry>, arrived: &[(Entry, usize)], below: &mut Vec<usize>) {
    let old = entries.len();
    below.clear();
    below.resize(old + 2, 0);
    for &(_, gap) in arrived {
        below[gap + 1] += 1;
    }
    for g in 1..below.len() {
        below[g] += below[g - 1];
    }
    entries.resize(old + arrived.len(), Entry::FILLER);
    // Old tuple `t` moves up past the new tuples of gaps `0..=t`; back to
    // front, so none is overwritten before it moves.
    for t in (0..old).rev() {
        entries[t + below[t + 1]] = entries[t];
    }
    // Gap `g`'s new tuples fill the slots from `g + below[g]` on, which
    // old tuple `g − 1` (`<` all of them) precedes. Later arrivals go
    // first, and an earlier one goes after every placed tuple it is not
    // `<` (so `-0.0` and `+0.0` are one value).
    for &(x, gap) in arrived.iter().rev() {
        let mut i = gap + below[gap];
        below[gap] += 1;
        while i > 0 && x.v < entries[i - 1].v {
            entries[i] = entries[i - 1];
            i -= 1;
        }
        entries[i] = x;
    }
}

/// `entries.partition_point(|e| e.v < v)` for each of the `L` values of
/// `group` (`entries` nonempty), the searches interleaved step by step.
fn lower_bounds<const L: usize>(entries: &[Entry], group: &mut [(Entry, usize)]) {
    let group: &mut [(Entry, usize); L] = group.try_into().expect("a full group");
    let v: [f64; L] = std::array::from_fn(|l| group[l].0.v);
    let mut lo = [0; L];
    let mut size = entries.len();
    while size > 1 {
        let half = size / 2;
        for l in 0..L {
            let mid = lo[l] + half;
            lo[l] = select_unpredictable(entries[mid].v < v[l], mid, lo[l]);
        }
        size -= half;
    }
    for l in 0..L {
        group[l].1 = lo[l] + usize::from(entries[lo[l]].v < v[l]);
    }
}

/// `⌊2εn⌋`, the GK cap on `g + δ`. The product is non-negative, so
/// truncating it is its floor.
fn cap(epsilon: f64, n: u64) -> u64 {
    (2.0 * epsilon * n as f64) as u64
}

/// Greenwald–Khanna streaming quantile summary with error parameter `ε`.
///
/// Two sketches are equal when they hold the same summary bit for bit:
/// the same `ε`, count, compress phase and tuples.
///
/// # Examples
///
/// ```
/// use selest_data::GkSketch;
///
/// let stream: Vec<f64> = (0..10_000).map(|i| ((i * 37) % 1_000) as f64).collect();
/// let mut sketch = GkSketch::new(0.01);
/// sketch.try_insert_all(&stream).unwrap();
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
    since_compress: u64,
}

impl PartialEq for GkSketch {
    fn eq(&self, other: &Self) -> bool {
        self.epsilon.to_bits() == other.epsilon.to_bits()
            && self.n == other.n
            && self.since_compress == other.since_compress
            && self.entries.len() == other.entries.len()
            && self
                .entries
                .iter()
                .zip(&other.entries)
                .all(|(a, b)| a.v.to_bits() == b.v.to_bits() && a.g == b.g && a.delta == b.delta)
    }
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
            since_compress: 0,
        }
    }

    /// The rank-error parameter `ε`.
    pub fn epsilon(&self) -> f64 {
        self.epsilon
    }

    /// Number of stream values consumed.
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

    /// Consume one stream value: a one-value [`GkSketch::try_insert_all`].
    /// Panics on a non-finite value.
    pub fn insert(&mut self, v: f64) {
        if self.try_insert_all(&[v]).is_err() {
            panic!("GkSketch cannot ingest {v}");
        }
    }

    /// [`GkSketch::insert`] with a typed error instead of a panic.
    pub fn try_insert(&mut self, v: f64) -> Result<(), EstimateError> {
        self.try_insert_all(&[v])
    }

    /// Consume `values` in order — the one insertion path. The whole
    /// slice is validated first: a non-finite value anywhere is
    /// [`EstimateError::NonFiniteUpdate`] and nothing is absorbed, so the
    /// incremental update path needs no sanitize pass. The summary ends
    /// bit-identical to inserting the values one at a time, in any
    /// chunking, with the compress phase carried across calls.
    pub fn try_insert_all(&mut self, values: &[f64]) -> Result<(), EstimateError> {
        if let Some(&value) = values.iter().find(|v| !v.is_finite()) {
            return Err(EstimateError::NonFiniteUpdate { value });
        }
        // A compress runs when `since_compress as f64 >= 1/(2ε)`, which
        // for an integer count is `since_compress >= ⌈1/(2ε)⌉`.
        let period = (1.0 / (2.0 * self.epsilon)).ceil() as u64;
        // Working memory reused by every period of this call.
        let (mut arrived, mut below) = (Vec::new(), Vec::new());
        let mut rest = values;
        while !rest.is_empty() {
            let take = (period - self.since_compress).min(rest.len() as u64) as usize;
            let (chunk, tail) = rest.split_at(take);
            self.since_compress += take as u64;
            self.absorb_period(chunk, &mut arrived, &mut below);
            if self.since_compress == period {
                self.compress();
                self.since_compress = 0;
            }
            rest = tail;
        }
        Ok(())
    }

    /// Absorb values no compress falls between, as the per-value insert
    /// would: each value's `δ` in arrival order, then one merge.
    /// `arrived` receives the period's new tuples with their gaps (how
    /// many current tuples are `<` the value), in arrival order.
    fn absorb_period(
        &mut self,
        chunk: &[f64],
        arrived: &mut Vec<(Entry, usize)>,
        below: &mut Vec<usize>,
    ) {
        // A value lands before every tuple `≥` it: at the front when none
        // is `<` it, at the back when all are, and both ends keep `δ = 0`.
        // Compress never drops the first or last tuple, so the ends are
        // the running min and max.
        let (mut lo, mut hi) = match (self.entries.first(), self.entries.last()) {
            (Some(first), Some(last)) => (first.v, last.v),
            _ => (chunk[0], chunk[0]),
        };
        let epsilon = self.epsilon;
        let mut n = self.n;
        arrived.clear();
        arrived.extend(chunk.iter().map(|&v| {
            n += 1;
            let front = v <= lo;
            let back = hi < v;
            let delta = if front | back {
                0
            } else {
                cap(epsilon, n).saturating_sub(1)
            };
            lo = if front { v } else { lo };
            hi = if back { v } else { hi };
            (Entry { v, g: 1, delta }, 0)
        }));
        self.n = n;
        find_gaps(&self.entries, arrived);
        merge_into(&mut self.entries, arrived, below);
    }

    /// Merge each tuple into its successor, left to right and in place,
    /// when their combined uncertainty stays within `⌊2εn⌋`. The first
    /// tuple is never merged away, and the last always survives as the
    /// successor. The decision is branchless: the current tuple is
    /// written either way, and a merged-away one's slot is overwritten.
    fn compress(&mut self) {
        if self.entries.len() < 3 {
            return;
        }
        let cap = cap(self.epsilon, self.n);
        let entries = &mut self.entries[..];
        let mut cur = entries[1];
        let mut written = 1;
        for read in 2..entries.len() {
            let next = entries[read];
            // `cur.g + next.g + next.delta <= cap`: when the right side
            // saturates to 0, `cur.g ≥ 1` fails it as the sum would. This
            // form keeps the sum off the dependency chain through `cur.g`.
            let merge = cur.g <= cap.saturating_sub(next.g + next.delta);
            entries[written] = cur;
            written += usize::from(!merge);
            cur = Entry {
                v: next.v,
                g: select_unpredictable(merge, cur.g + next.g, next.g),
                delta: next.delta,
            };
        }
        entries[written] = cur;
        self.entries.truncate(written + 1);
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

    /// `⌈q·n⌉`: the rank a `q`-quantile query targets.
    fn target_rank(&self, q: f64) -> u64 {
        (q * self.n as f64).ceil() as u64
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
        let limit = self.target_rank(q) + self.search_slack();
        let mut r_min = 0u64;
        for (i, e) in self.entries.iter().enumerate() {
            r_min += e.g;
            // First entry whose max rank exceeds target + slack: the
            // previous entry is a valid answer.
            if r_min + e.delta > limit {
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
    ///
    /// One walk answers all `k − 1` quantiles: their targets ascend, so
    /// each search resumes where the previous one stopped and returns
    /// what [`GkSketch::quantile`] returns.
    pub fn equi_depth_boundaries_with_bound(&self, k: usize, lo: f64, hi: f64) -> (Vec<f64>, u64) {
        assert!(k >= 1, "need at least one bin");
        assert!(lo <= hi, "lo must not exceed hi");
        assert!(k == 1 || self.n > 0, "quantile of an empty sketch");
        let slack = self.search_slack();
        let mut b = Vec::with_capacity(k + 1);
        b.push(lo);
        // `r_min` sums `g` over the entries before `i`, every one of which
        // fails the search's stop test for all later (larger) limits.
        let (mut i, mut r_min) = (0, 0u64);
        for j in 1..k {
            let limit = self.target_rank(j as f64 / k as f64) + slack;
            while let Some(e) = self.entries.get(i) {
                if r_min + e.g + e.delta > limit {
                    break;
                }
                r_min += e.g;
                i += 1;
            }
            // Stopped at `i`: the entry before it; walked off the end
            // (`i` = len): the last entry.
            b.push(self.entries[i.saturating_sub(1)].v.clamp(lo, hi));
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
    use crate::PaperFile;

    /// The per-value GK insert the batch absorb must reproduce: a binary
    /// search, a `Vec::insert`, and every `⌈1/(2ε)⌉` inserts a compress
    /// into a fresh `Vec`.
    fn oracle_insert(sk: &mut GkSketch, v: f64) {
        assert!(v.is_finite(), "GkSketch cannot ingest {v}");
        sk.n += 1;
        let pos = sk.entries.partition_point(|e| e.v < v);
        let delta = if pos == 0 || pos == sk.entries.len() {
            0
        } else {
            let cap = (2.0 * sk.epsilon * sk.n as f64).floor() as u64;
            cap.saturating_sub(1)
        };
        sk.entries.insert(pos, Entry { v, g: 1, delta });
        sk.since_compress += 1;
        if sk.since_compress as f64 >= 1.0 / (2.0 * sk.epsilon) {
            oracle_compress(sk);
            sk.since_compress = 0;
        }
    }

    /// Merge each tuple into its successor, left to right, when their
    /// combined uncertainty stays within `⌊2εn⌋`; the first and last
    /// tuples are never merged away.
    fn oracle_compress(sk: &mut GkSketch) {
        if sk.entries.len() < 3 {
            return;
        }
        let cap = (2.0 * sk.epsilon * sk.n as f64).floor() as u64;
        let mut out: Vec<Entry> = Vec::with_capacity(sk.entries.len());
        let mut iter = sk.entries.iter().copied();
        let mut cur = iter.next().expect("nonempty");
        for next in iter {
            let merged_g = cur.g + next.g;
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
        sk.entries = out;
    }

    /// The first difference between two summaries, for a readable
    /// failure.
    fn first_difference(a: &GkSketch, b: &GkSketch) -> String {
        if (a.n, a.since_compress) != (b.n, b.since_compress) {
            return format!(
                "(n, since_compress) {:?} vs {:?}",
                (a.n, a.since_compress),
                (b.n, b.since_compress)
            );
        }
        let same =
            |x: &Entry, y: &Entry| (x.v.to_bits(), x.g, x.delta) == (y.v.to_bits(), y.g, y.delta);
        match a
            .entries
            .iter()
            .zip(&b.entries)
            .position(|(x, y)| !same(x, y))
        {
            Some(i) => format!("tuple {i}: {:?} vs {:?}", a.entries[i], b.entries[i]),
            None => format!("lengths {} vs {}", a.entries.len(), b.entries.len()),
        }
    }

    /// Absorb `stream` in `chunk`-sized calls beside the per-value oracle
    /// and require the same summary after every call.
    fn assert_matches_oracle(stream: &[f64], epsilon: f64, chunk: usize, label: &str) {
        let mut batch = GkSketch::new(epsilon);
        let mut oracle = GkSketch::new(epsilon);
        for part in stream.chunks(chunk) {
            batch.try_insert_all(part).unwrap();
            for &v in part {
                oracle_insert(&mut oracle, v);
            }
            assert!(
                batch == oracle,
                "{label}, ε = {epsilon}, chunk {chunk}, after {} values: {}",
                oracle.n,
                first_difference(&batch, &oracle)
            );
        }
    }

    const EPSILONS: [f64; 5] = [0.001, 0.005, 0.05, 0.3, 0.49];
    const CHUNKS: [usize; 6] = [1, 2, 7, 100, 512, usize::MAX];

    fn check_every_epsilon_and_chunking(stream: &[f64], label: &str) {
        for epsilon in EPSILONS {
            for chunk in CHUNKS {
                assert_matches_oracle(stream, epsilon, chunk, label);
            }
        }
    }

    /// A seeded stream of ties, signed zeros and negative values.
    fn awkward_stream(len: usize, seed: u64) -> Vec<f64> {
        const POOL: [f64; 8] = [0.0, -0.0, -1.5, 2.0, -0.0, -1.5, 7.25, -3.0e10];
        let mut x = seed;
        (0..len)
            .map(|_| {
                x = x
                    .wrapping_mul(6_364_136_223_846_793_005)
                    .wrapping_add(1_442_695_040_888_963_407);
                let r = x >> 33;
                if r.is_multiple_of(4) {
                    -((r % 1_000) as f64) / 8.0
                } else {
                    POOL[(r % 8) as usize]
                }
            })
            .collect()
    }

    #[test]
    fn batch_absorb_matches_the_per_value_oracle_on_paper_files() {
        const PREFIX: usize = 12_000;
        for file in [
            PaperFile::Normal { p: 20 },
            PaperFile::Exponential { p: 20 },
            PaperFile::Arapahoe1,
            PaperFile::InstanceWeight,
        ] {
            let data = file.generate();
            let stream = &data.values()[..PREFIX];
            check_every_epsilon_and_chunking(stream, &file.name());
        }
    }

    #[test]
    fn batch_absorb_matches_the_oracle_on_ties_signed_zeros_and_negatives() {
        check_every_epsilon_and_chunking(&awkward_stream(6_000, 7), "awkward");
        check_every_epsilon_and_chunking(&[-0.0; 700], "all -0");
        let zeros: Vec<f64> = (0..700)
            .map(|i| if i % 3 == 0 { 0.0 } else { -0.0 })
            .collect();
        check_every_epsilon_and_chunking(&zeros, "±0");
    }

    #[test]
    fn batch_absorb_matches_the_oracle_on_sorted_orders() {
        let ascending: Vec<f64> = (0..6_000).map(|i| (i / 3) as f64 - 1_000.0).collect();
        let descending: Vec<f64> = ascending.iter().rev().copied().collect();
        check_every_epsilon_and_chunking(&ascending, "ascending");
        check_every_epsilon_and_chunking(&descending, "descending");
    }

    #[test]
    fn a_rejected_slice_leaves_the_summary_untouched() {
        let mut sk = GkSketch::new(0.05);
        sk.try_insert_all(&awkward_stream(333, 3)).unwrap();
        let before = sk.clone();
        let mut poisoned = awkward_stream(50, 4);
        poisoned[37] = f64::NAN;
        assert!(matches!(
            sk.try_insert_all(&poisoned),
            Err(EstimateError::NonFiniteUpdate { value }) if value.is_nan()
        ));
        assert!(sk == before, "{}", first_difference(&sk, &before));
    }

    /// The one-walk boundaries against one quantile search per boundary.
    #[test]
    fn one_pass_boundaries_equal_the_per_quantile_searches() {
        for (epsilon, len, seed) in [(0.005, 50_000, 1), (0.05, 3_000, 2), (0.3, 40, 3)] {
            let sk = sketch_over(&awkward_stream(len, seed), epsilon);
            for k in [1, 2, 16, 64] {
                let (lo, hi) = (-200.0, 10.0);
                let mut expected = vec![lo];
                expected.extend((1..k).map(|j| sk.quantile(j as f64 / k as f64).clamp(lo, hi)));
                expected.push(hi);
                for i in 1..expected.len() {
                    if expected[i] < expected[i - 1] {
                        expected[i] = expected[i - 1];
                    }
                }
                let (b, bound) = sk.equi_depth_boundaries_with_bound(k, lo, hi);
                let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
                assert_eq!(bits(&b), bits(&expected), "ε = {epsilon}, k = {k}");
                assert_eq!(bound, sk.rank_error_bound());
            }
        }
        // One bin asks no quantile, so an empty sketch still answers.
        let (b, _) = GkSketch::new(0.1).equi_depth_boundaries_with_bound(1, 0.0, 1.0);
        assert_eq!(b, [0.0, 1.0]);
    }

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

    fn sketch_over(stream: &[f64], epsilon: f64) -> GkSketch {
        let mut sk = GkSketch::new(epsilon);
        sk.try_insert_all(stream).unwrap();
        sk
    }

    fn check_rank_errors(stream: &[f64], epsilon: f64) {
        check_sketch_rank_errors(&sketch_over(stream, epsilon), stream, epsilon);
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
        // The median of this stream is 42.
        assert_eq!(sketch_over(&stream, 0.02).quantile(0.5), 42.0);
    }

    #[test]
    fn memory_stays_sublinear() {
        let stream: Vec<f64> = (0..100_000)
            .map(|i| ((i * 7_919) % 100_000) as f64)
            .collect();
        let sk = sketch_over(&stream, 0.01);
        // Exact storage would be 100 000 entries; GK should be ~O((1/eps)
        // log(eps n)) ~ a few hundred.
        assert!(
            sk.entries() < 2_000,
            "sketch holds {} entries for 100k stream values",
            sk.entries()
        );
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
        let stream: Vec<f64> = (0..10_000).map(|i| ((i * 37) % 1_000) as f64).collect();
        let sk = sketch_over(&stream, 0.01);
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
        let sk = sketch_over(&stream, 0.005);
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
