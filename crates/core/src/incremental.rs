//! Incremental estimator inputs: a mergeable, deterministic reservoir and
//! the updatable column substrate built on it.
//!
//! Every estimator in the workspace is a *plug-in* method: it is built
//! from a maintained sample, not from the base data. Batch ANALYZE pays
//! O(n) per refresh to re-draw that sample; this module keeps the sample
//! *live* instead, so absorbing a write costs O(log |reservoir|) and
//! re-snapshotting the estimator inputs costs
//! O(|reservoir| log |reservoir|) — independent of the relation size.
//!
//! Two pieces:
//!
//! * [`ReservoirSketch`] — a uniform fixed-capacity sample maintained as
//!   the top-k of deterministic per-row hash keys (the "A-Res" weighted
//!   reservoir with hashed priorities). Because a row's key depends only
//!   on `(seed, global row index)`, the retained set is a pure function
//!   of the offered rows: partitions sketching disjoint index ranges and
//!   merging produce *exactly* the sample a single sequential pass
//!   produces, for any partitioning — the same fixed-chunk determinism
//!   contract `selest-par` gives reductions. Merge is associative and
//!   commutative on the nose, not just within an error bound.
//! * [`IncrementalColumn`] — the updatable sibling of
//!   [`PreparedColumn`]: absorbs inserts and (tombstoned) deletes,
//!   tracks how stale its last snapshot is, and rebuilds a fresh
//!   `Arc<PreparedColumn>` on demand. When no updates have been
//!   absorbed, `snapshot()` returns the previous `Arc` unchanged, so
//!   downstream estimator builds are bit-identical to a from-scratch
//!   prepare over the same sample.
//!
//! The quantile-sketch half of the incremental substrate (`GkSketch`,
//! with summary merge and equi-depth boundary extraction) lives in
//! `selest-data`, which re-exports [`ReservoirSketch`] so the two sketch
//! types share a home in the public API.

use std::sync::Arc;

use crate::domain::Domain;
use crate::fault::EstimateError;
use crate::prepared::PreparedColumn;

/// One retained row: its hashed priority, its global stream index, and
/// the value itself. Ordering (and therefore reservoir membership) is by
/// `(key, index)` — a total order, since indexes are unique.
#[derive(Debug, Clone, Copy, PartialEq)]
struct Slot {
    key: u64,
    index: u64,
    value: f64,
}

impl Slot {
    fn rank(&self) -> (u64, u64) {
        (self.key, self.index)
    }
}

/// SplitMix64 over the row's global index: the per-row priority depends
/// only on `(seed, index)`, never on arrival order or partitioning.
fn priority(seed: u64, index: u64) -> u64 {
    let mut z = seed.wrapping_add(index.wrapping_mul(0x9E37_79B9_7F4A_7C15));
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Serializable state of a [`ReservoirSketch`] (see
/// [`ReservoirSketch::to_parts`]); the durable store journals this.
#[derive(Debug, Clone, PartialEq)]
pub struct ReservoirParts {
    /// Maximum retained sample size.
    pub capacity: usize,
    /// Priority seed.
    pub seed: u64,
    /// Global index the next observed row will take.
    pub next_index: u64,
    /// Total rows offered (across merges).
    pub seen: u64,
    /// Retained `(key, index, value)` rows in unspecified order.
    pub slots: Vec<(u64, u64, f64)>,
}

/// A mergeable uniform reservoir: retains the `capacity` offered rows
/// with the largest deterministic hash priorities.
///
/// Determinism contract: the retained set is a pure function of
/// `(seed, {(index, value)})` — the set of offered rows with their global
/// indexes. Any partitioning of the stream into sketches built with
/// [`ReservoirSketch::with_offset`] at the partition's start index merges
/// (in any order or grouping) to exactly the sequential result.
///
/// # Examples
///
/// ```
/// use selest_core::ReservoirSketch;
///
/// let values: Vec<f64> = (0..1000).map(|i| i as f64).collect();
/// let mut whole = ReservoirSketch::new(16, 42);
/// for &v in &values {
///     whole.observe(v);
/// }
/// // Two partitions over fixed boundaries, merged in reverse order.
/// let mut left = ReservoirSketch::with_offset(16, 42, 0);
/// let mut right = ReservoirSketch::with_offset(16, 42, 600);
/// for &v in &values[..600] {
///     left.observe(v);
/// }
/// for &v in &values[600..] {
///     right.observe(v);
/// }
/// right.merge(&left);
/// assert_eq!(whole.sample(), right.sample());
/// ```
#[derive(Debug, Clone)]
pub struct ReservoirSketch {
    capacity: usize,
    seed: u64,
    next_index: u64,
    seen: u64,
    /// Min-heap by `(key, index)`: the root is the first row evicted.
    heap: Vec<Slot>,
}

impl PartialEq for ReservoirSketch {
    /// Equality is over the *retained set*, not the heap's internal
    /// layout — two reservoirs that kept the same rows are the same
    /// reservoir, however their heaps happen to be arranged.
    fn eq(&self, other: &Self) -> bool {
        self.to_parts() == other.to_parts()
    }
}

impl ReservoirSketch {
    /// An empty reservoir retaining at most `capacity` rows.
    pub fn new(capacity: usize, seed: u64) -> Self {
        Self::with_offset(capacity, seed, 0)
    }

    /// An empty reservoir whose first observed row takes global index
    /// `offset` — the partition entry point: give each partition the
    /// index where its chunk starts and merged results match the
    /// sequential pass exactly.
    pub fn with_offset(capacity: usize, seed: u64, offset: u64) -> Self {
        assert!(capacity > 0, "ReservoirSketch needs a positive capacity");
        ReservoirSketch {
            capacity,
            seed,
            next_index: offset,
            seen: 0,
            heap: Vec::with_capacity(capacity.min(4096)),
        }
    }

    /// Maximum retained sample size.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Priority seed.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// Rows currently retained.
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// Whether nothing is retained.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }

    /// Total rows offered, across merges.
    pub fn seen(&self) -> u64 {
        self.seen
    }

    /// Global index the next [`ReservoirSketch::observe`] will assign.
    pub fn next_index(&self) -> u64 {
        self.next_index
    }

    /// Offer one row. Panics on non-finite values — the fallible
    /// surfaces upstream ([`IncrementalColumn::insert`]) reject those
    /// with a typed error before they reach the sketch.
    pub fn observe(&mut self, v: f64) {
        assert!(v.is_finite(), "ReservoirSketch cannot ingest {v}");
        let index = self.next_index;
        self.next_index += 1;
        self.seen += 1;
        let slot = Slot {
            key: priority(self.seed, index),
            index,
            value: v,
        };
        self.admit(slot);
    }

    fn admit(&mut self, slot: Slot) {
        if self.heap.len() < self.capacity {
            self.heap.push(slot);
            self.sift_up(self.heap.len() - 1);
        } else if slot.rank() > self.heap[0].rank() {
            self.heap[0] = slot;
            self.sift_down(0);
        }
    }

    fn sift_up(&mut self, mut i: usize) {
        while i > 0 {
            let parent = (i - 1) / 2;
            if self.heap[i].rank() < self.heap[parent].rank() {
                self.heap.swap(i, parent);
                i = parent;
            } else {
                break;
            }
        }
    }

    fn sift_down(&mut self, mut i: usize) {
        loop {
            let (l, r) = (2 * i + 1, 2 * i + 2);
            let mut smallest = i;
            if l < self.heap.len() && self.heap[l].rank() < self.heap[smallest].rank() {
                smallest = l;
            }
            if r < self.heap.len() && self.heap[r].rank() < self.heap[smallest].rank() {
                smallest = r;
            }
            if smallest == i {
                return;
            }
            self.heap.swap(i, smallest);
            i = smallest;
        }
    }

    /// Absorb another reservoir built with the same `(capacity, seed)`
    /// over a disjoint index range: the result retains the top-`capacity`
    /// rows of the union by priority — exactly what a single pass over
    /// the combined stream retains. Panics on a capacity or seed
    /// mismatch; [`IncrementalColumn::merge`] checks compatibility first
    /// and reports a typed error instead.
    pub fn merge(&mut self, other: &ReservoirSketch) {
        assert_eq!(
            self.capacity, other.capacity,
            "ReservoirSketch merge: capacity mismatch"
        );
        assert_eq!(
            self.seed, other.seed,
            "ReservoirSketch merge: seed mismatch"
        );
        for slot in &other.heap {
            self.admit(*slot);
        }
        self.seen += other.seen;
        self.next_index = self.next_index.max(other.next_index);
    }

    /// The retained sample in stream (index) order — the deterministic
    /// draw order downstream [`PreparedColumn`] builds consume.
    pub fn sample(&self) -> Vec<f64> {
        let mut slots = self.heap.clone();
        slots.sort_by_key(|s| s.index);
        slots.into_iter().map(|s| s.value).collect()
    }

    /// Serialize into plain parts (for the durable journal).
    pub fn to_parts(&self) -> ReservoirParts {
        let mut slots: Vec<(u64, u64, f64)> = self
            .heap
            .iter()
            .map(|s| (s.key, s.index, s.value))
            .collect();
        slots.sort_by_key(|&(_, index, _)| index);
        ReservoirParts {
            capacity: self.capacity,
            seed: self.seed,
            next_index: self.next_index,
            seen: self.seen,
            slots,
        }
    }

    /// Rebuild from serialized parts, validating state no live reservoir
    /// could have reached (zero capacity, overfull, non-finite values,
    /// priorities that do not match the seed).
    pub fn from_parts(parts: ReservoirParts) -> Result<Self, EstimateError> {
        if parts.capacity == 0 || parts.slots.len() > parts.capacity {
            return Err(EstimateError::CorruptEntry {
                path: None,
                line: 1,
                offset: 0,
                message: format!(
                    "reservoir holds {} rows against capacity {}",
                    parts.slots.len(),
                    parts.capacity
                ),
            });
        }
        let mut out = ReservoirSketch::with_offset(parts.capacity, parts.seed, 0);
        for &(key, index, value) in &parts.slots {
            if !value.is_finite() {
                return Err(EstimateError::NonFiniteUpdate { value });
            }
            if key != priority(parts.seed, index) {
                return Err(EstimateError::CorruptEntry {
                    path: None,
                    line: 1,
                    offset: 0,
                    message: format!("reservoir priority {key:#x} does not match seed/index"),
                });
            }
            out.admit(Slot { key, index, value });
        }
        out.next_index = parts.next_index;
        out.seen = parts.seen;
        Ok(out)
    }
}

/// Serializable state of an [`IncrementalColumn`] (see
/// [`IncrementalColumn::to_parts`]).
#[derive(Debug, Clone, PartialEq)]
pub struct IncrementalParts {
    /// Column domain.
    pub domain: Domain,
    /// Reservoir state.
    pub reservoir: ReservoirParts,
    /// Live rows (inserts minus tombstoned deletes).
    pub live_rows: u64,
    /// Total values absorbed (initial load plus inserts).
    pub inserted: u64,
    /// Tombstoned deletes.
    pub deleted: u64,
    /// Updates absorbed since the last snapshot rebuild.
    pub pending: u64,
}

/// What one update batch did (the incremental sibling of
/// [`crate::fault::SampleAudit`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct UpdateAudit {
    /// Inserts absorbed into the reservoir and counters.
    pub inserted: usize,
    /// Finite but out-of-domain inserts, counted but not retained (the
    /// declared domain is fixed until the next full ANALYZE, exactly as
    /// `sanitize_sample` drops out-of-domain evidence).
    pub out_of_domain: usize,
    /// Deletes tombstoned.
    pub deleted: usize,
}

/// The updatable sibling of [`PreparedColumn`].
///
/// A batch-prepared column is immutable by design; this wrapper keeps the
/// *inputs* of a prepared column live. Inserts are absorbed into a
/// [`ReservoirSketch`] in O(log |reservoir|); deletes are tombstoned
/// (counted, not removed — the reservoir stays a uniform sample of the
/// insert stream, and the staleness policy bounds how large the tombstone
/// debt may grow before a re-snapshot is forced). [`IncrementalColumn::
/// snapshot`] rebuilds an `Arc<PreparedColumn>` from the maintained
/// sample in O(|reservoir| log |reservoir|) — never O(n log n) — and
/// returns the previous `Arc` unchanged (bit-identical downstream
/// estimates, no allocation) when no updates have been absorbed.
#[derive(Debug, Clone)]
pub struct IncrementalColumn {
    domain: Domain,
    reservoir: ReservoirSketch,
    base: Arc<PreparedColumn>,
    live_rows: u64,
    inserted: u64,
    deleted: u64,
    pending: u64,
    rebuilds: u64,
}

impl IncrementalColumn {
    /// Seed the column from a full scan: one pass feeds the reservoir,
    /// then the initial snapshot is prepared from the retained sample.
    /// `values` are assumed sanitized (the catalog's ANALYZE path
    /// sanitizes first); a non-finite value still comes back as a typed
    /// error rather than a panic.
    pub fn from_values(
        values: &[f64],
        domain: Domain,
        capacity: usize,
        seed: u64,
    ) -> Result<Self, EstimateError> {
        if capacity == 0 || values.is_empty() {
            return Err(EstimateError::EmptySample);
        }
        if let Some(&bad) = values.iter().find(|v| !v.is_finite()) {
            return Err(EstimateError::NonFiniteUpdate { value: bad });
        }
        let mut reservoir = ReservoirSketch::new(capacity, seed);
        for &v in values {
            reservoir.observe(v);
        }
        let base = Arc::new(PreparedColumn::prepare(&reservoir.sample(), domain));
        Ok(IncrementalColumn {
            domain,
            reservoir,
            base,
            live_rows: values.len() as u64,
            inserted: values.len() as u64,
            deleted: 0,
            pending: 0,
            rebuilds: 0,
        })
    }

    /// The column domain (fixed until the next full ANALYZE).
    pub fn domain(&self) -> Domain {
        self.domain
    }

    /// The maintained reservoir.
    pub fn reservoir(&self) -> &ReservoirSketch {
        &self.reservoir
    }

    /// Rows currently live (inserts minus tombstoned deletes).
    pub fn live_rows(&self) -> u64 {
        self.live_rows
    }

    /// Updates absorbed since the last snapshot rebuild.
    pub fn pending_updates(&self) -> u64 {
        self.pending
    }

    /// Tombstoned deletes.
    pub fn tombstones(&self) -> u64 {
        self.deleted
    }

    /// Tombstone debt: deletes as a fraction of all values ever
    /// absorbed. The staleness policy forces a re-snapshot before this
    /// bias can grow unbounded.
    pub fn tombstone_fraction(&self) -> f64 {
        self.deleted as f64 / self.inserted.max(1) as f64
    }

    /// Snapshot rebuilds performed so far.
    pub fn rebuilds(&self) -> u64 {
        self.rebuilds
    }

    /// Whether updates have been absorbed since the last snapshot.
    pub fn is_dirty(&self) -> bool {
        self.pending > 0
    }

    /// Absorb one insert in O(log |reservoir|). Non-finite values are
    /// rejected with a typed error; finite values outside the declared
    /// domain are counted (see [`UpdateAudit::out_of_domain`]) but not
    /// retained, mirroring `sanitize_sample`.
    pub fn insert(&mut self, v: f64) -> Result<(), EstimateError> {
        if !v.is_finite() {
            return Err(EstimateError::NonFiniteUpdate { value: v });
        }
        if self.domain.contains(v) {
            self.reservoir.observe(v);
        }
        self.live_rows += 1;
        self.inserted += 1;
        self.pending += 1;
        Ok(())
    }

    /// Tombstone one delete: O(1). The reservoir is untouched — it stays
    /// a uniform sample of the insert stream, biased by at most the
    /// tombstone fraction, which the staleness policy caps.
    pub fn delete(&mut self, v: f64) -> Result<(), EstimateError> {
        if !v.is_finite() {
            return Err(EstimateError::NonFiniteUpdate { value: v });
        }
        self.live_rows = self.live_rows.saturating_sub(1);
        self.deleted += 1;
        self.pending += 1;
        Ok(())
    }

    /// Absorb a batch atomically: the batch is validated first, so a
    /// non-finite value anywhere rejects the whole batch with a typed
    /// error and leaves the column untouched.
    pub fn apply(
        &mut self,
        inserts: &[f64],
        deletes: &[f64],
    ) -> Result<UpdateAudit, EstimateError> {
        if let Some(&bad) = inserts
            .iter()
            .chain(deletes.iter())
            .find(|v| !v.is_finite())
        {
            return Err(EstimateError::NonFiniteUpdate { value: bad });
        }
        let mut audit = UpdateAudit::default();
        for &v in inserts {
            if !self.domain.contains(v) {
                audit.out_of_domain += 1;
            }
            self.insert(v)?;
            audit.inserted += 1;
        }
        for &v in deletes {
            self.delete(v)?;
            audit.deleted += 1;
        }
        Ok(audit)
    }

    /// The estimator-input snapshot. With zero pending updates this is
    /// the previous `Arc`, returned unchanged — downstream estimator
    /// builds see bit-identical inputs with no work done. Otherwise the
    /// prepared column is rebuilt from the maintained sample:
    /// O(|reservoir| log |reservoir|) for the sort, independent of the
    /// relation size.
    pub fn snapshot(&mut self) -> Arc<PreparedColumn> {
        if self.pending > 0 {
            self.base = Arc::new(PreparedColumn::prepare(
                &self.reservoir.sample(),
                self.domain,
            ));
            self.pending = 0;
            self.rebuilds += 1;
        }
        Arc::clone(&self.base)
    }

    /// The snapshot as of the last rebuild, without absorbing pending
    /// updates — what a reader sees while the column is dirty.
    pub fn last_snapshot(&self) -> Arc<PreparedColumn> {
        Arc::clone(&self.base)
    }

    /// Absorb a partition's column: reservoirs combine exactly (same
    /// top-k as a single pass), counters add, and the merged column is
    /// dirty until the next snapshot. Partitions must agree on domain,
    /// reservoir capacity, and seed; mismatches come back as typed
    /// errors.
    pub fn merge(&mut self, other: &IncrementalColumn) -> Result<(), EstimateError> {
        if self.domain != other.domain {
            return Err(EstimateError::InvalidDomain {
                lo: other.domain.lo(),
                hi: other.domain.hi(),
            });
        }
        if self.reservoir.capacity() != other.reservoir.capacity()
            || self.reservoir.seed() != other.reservoir.seed()
        {
            return Err(EstimateError::CorruptEntry {
                path: None,
                line: 1,
                offset: 0,
                message: "incremental merge: reservoir capacity/seed mismatch".to_owned(),
            });
        }
        self.reservoir.merge(&other.reservoir);
        self.live_rows += other.live_rows;
        self.inserted += other.inserted;
        self.deleted += other.deleted;
        // Everything the partition held is new to this side's snapshot.
        self.pending += (other.inserted + other.deleted).max(1);
        Ok(())
    }

    /// Serialize into plain parts (for the durable journal). The base
    /// snapshot is not serialized: it is a pure function of the
    /// reservoir, rebuilt on restore.
    pub fn to_parts(&self) -> IncrementalParts {
        IncrementalParts {
            domain: self.domain,
            reservoir: self.reservoir.to_parts(),
            live_rows: self.live_rows,
            inserted: self.inserted,
            deleted: self.deleted,
            pending: self.pending,
        }
    }

    /// Rebuild from serialized parts. The snapshot is re-prepared from
    /// the restored reservoir (deterministic, so two restores of the same
    /// parts are bit-identical); `pending` is preserved so the staleness
    /// policy still sees pre-crash update pressure.
    pub fn from_parts(parts: IncrementalParts) -> Result<Self, EstimateError> {
        let reservoir = ReservoirSketch::from_parts(parts.reservoir)?;
        if reservoir.is_empty() {
            return Err(EstimateError::EmptySample);
        }
        let base = Arc::new(PreparedColumn::prepare(&reservoir.sample(), parts.domain));
        Ok(IncrementalColumn {
            domain: parts.domain,
            reservoir,
            base,
            live_rows: parts.live_rows,
            inserted: parts.inserted,
            deleted: parts.deleted,
            pending: parts.pending,
            rebuilds: 0,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn stream(n: usize) -> Vec<f64> {
        (0..n)
            .map(|i| 100.0 * ((i as f64 * 0.618_033_988_749).fract()))
            .collect()
    }

    #[test]
    fn reservoir_is_partition_independent() {
        let values = stream(5_000);
        let mut whole = ReservoirSketch::new(64, 7);
        for &v in &values {
            whole.observe(v);
        }
        for parts in [2usize, 3, 7] {
            let chunk = values.len().div_ceil(parts);
            let mut merged: Option<ReservoirSketch> = None;
            for (p, piece) in values.chunks(chunk).enumerate() {
                let mut r = ReservoirSketch::with_offset(64, 7, (p * chunk) as u64);
                for &v in piece {
                    r.observe(v);
                }
                match merged.as_mut() {
                    Some(m) => m.merge(&r),
                    None => merged = Some(r),
                }
            }
            let merged = merged.unwrap();
            assert_eq!(whole.sample(), merged.sample(), "parts={parts}");
            assert_eq!(whole.seen(), merged.seen());
        }
    }

    #[test]
    fn reservoir_is_uniform_enough() {
        // Top-k of iid hash priorities is a uniform sample: the retained
        // mean over a linear ramp should land near the stream mean.
        let values: Vec<f64> = (0..100_000).map(|i| i as f64 / 1_000.0).collect();
        let mut r = ReservoirSketch::new(2_000, 0x5e1ec7);
        for &v in &values {
            r.observe(v);
        }
        assert_eq!(r.len(), 2_000);
        let mean = r.sample().iter().sum::<f64>() / 2_000.0;
        assert!((mean - 50.0).abs() < 2.0, "sample mean {mean}");
    }

    #[test]
    fn reservoir_round_trips_through_parts() {
        let mut r = ReservoirSketch::new(32, 99);
        for &v in &stream(500) {
            r.observe(v);
        }
        let back = ReservoirSketch::from_parts(r.to_parts()).expect("valid parts");
        assert_eq!(r, back);
        // Tampered priorities are rejected.
        let mut parts = r.to_parts();
        parts.slots[0].0 ^= 1;
        assert!(ReservoirSketch::from_parts(parts).is_err());
    }

    #[test]
    fn zero_update_snapshot_is_the_same_arc() {
        let values = stream(2_000);
        let d = Domain::new(0.0, 100.0);
        let mut col = IncrementalColumn::from_values(&values, d, 128, 5).unwrap();
        let a = col.snapshot();
        let b = col.snapshot();
        assert!(Arc::ptr_eq(&a, &b), "clean snapshots must not rebuild");
        // And it is bit-identical to a from-scratch prepare of the sample.
        let fresh = PreparedColumn::prepare(&col.reservoir().sample(), d);
        assert_eq!(a.sorted(), fresh.sorted());
        assert_eq!(a.values(), fresh.values());
    }

    #[test]
    fn updates_dirty_then_snapshot_cleans() {
        let values = stream(1_000);
        let d = Domain::new(0.0, 100.0);
        let mut col = IncrementalColumn::from_values(&values, d, 64, 5).unwrap();
        assert!(!col.is_dirty());
        col.insert(50.0).unwrap();
        col.delete(1.0).unwrap();
        assert_eq!(col.pending_updates(), 2);
        assert_eq!(col.live_rows(), 1_000);
        assert_eq!(col.tombstones(), 1);
        let snap = col.snapshot();
        assert!(!col.is_dirty());
        assert_eq!(col.rebuilds(), 1);
        assert!(snap.len() <= 64);
    }

    #[test]
    fn non_finite_updates_are_typed_errors_and_atomic() {
        let d = Domain::new(0.0, 100.0);
        let mut col = IncrementalColumn::from_values(&stream(100), d, 32, 1).unwrap();
        let before = col.to_parts();
        assert!(matches!(
            col.insert(f64::NAN),
            Err(EstimateError::NonFiniteUpdate { value }) if value.is_nan()
        ));
        let err = col.apply(&[1.0, 2.0, f64::INFINITY], &[3.0]);
        assert!(matches!(err, Err(EstimateError::NonFiniteUpdate { .. })));
        assert_eq!(col.to_parts(), before, "failed batch must not mutate");
        let audit = col.apply(&[1.0, 500.0], &[2.0]).unwrap();
        assert_eq!(audit.inserted, 2);
        assert_eq!(audit.out_of_domain, 1);
        assert_eq!(audit.deleted, 1);
    }

    #[test]
    fn merge_combines_partitions_exactly() {
        let values = stream(3_000);
        let d = Domain::new(0.0, 100.0);
        let mut whole = IncrementalColumn::from_values(&values, d, 64, 3).unwrap();
        let mut left = IncrementalColumn::from_values(&values[..1_500], d, 64, 3).unwrap();
        // The right partition starts at the left's index offset.
        let mut right_res = ReservoirSketch::with_offset(64, 3, 1_500);
        for &v in &values[1_500..] {
            right_res.observe(v);
        }
        let right = IncrementalColumn::from_parts(IncrementalParts {
            domain: d,
            reservoir: right_res.to_parts(),
            live_rows: 1_500,
            inserted: 1_500,
            deleted: 0,
            pending: 0,
        })
        .unwrap();
        left.merge(&right).unwrap();
        assert_eq!(left.live_rows(), 3_000);
        assert!(left.is_dirty());
        assert_eq!(
            whole.snapshot().sorted(),
            left.snapshot().sorted(),
            "merged partitions must retain the sequential sample"
        );
        // A partition under another seed or domain is refused, typed,
        // and leaves the column as it was.
        let other_seed = IncrementalColumn::from_values(&values[..10], d, 64, 4).unwrap();
        assert!(matches!(
            left.merge(&other_seed),
            Err(EstimateError::CorruptEntry { .. })
        ));
        let wide = Domain::new(0.0, 200.0);
        let other_domain = IncrementalColumn::from_values(&values[..10], wide, 64, 3).unwrap();
        assert!(matches!(
            left.merge(&other_domain),
            Err(EstimateError::InvalidDomain { .. })
        ));
        assert_eq!(left.live_rows(), 3_000);
    }

    #[test]
    fn incremental_column_round_trips_through_parts() {
        let d = Domain::new(0.0, 100.0);
        let mut col = IncrementalColumn::from_values(&stream(800), d, 48, 11).unwrap();
        col.apply(&[1.0, 2.0, 3.0], &[4.0]).unwrap();
        let parts = col.to_parts();
        let back = IncrementalColumn::from_parts(parts.clone()).unwrap();
        assert_eq!(back.to_parts(), parts);
        assert_eq!(back.pending_updates(), col.pending_updates());
        assert_eq!(back.live_rows(), col.live_rows());
    }
}
