//! Incremental estimator inputs: a deterministic reservoir and the
//! updatable column substrate built on it.
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
//!   of the offered rows, never of the order they arrive in.
//! * [`IncrementalColumn`] — the updatable sibling of
//!   [`PreparedColumn`]: absorbs inserts and (tombstoned) deletes,
//!   tracks how stale its last snapshot is, and rebuilds a fresh
//!   `Arc<PreparedColumn>` on demand. When no updates have been
//!   absorbed, `snapshot()` returns the previous `Arc` unchanged, so
//!   downstream estimator builds are bit-identical to a from-scratch
//!   prepare over the same sample.
//!
//! The quantile-sketch half of the incremental substrate (`GkSketch`,
//! with equi-depth boundary extraction) lives in
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

/// A uniform reservoir: retains the `capacity` offered rows with the
/// largest deterministic hash priorities.
///
/// Determinism contract: the retained set is a pure function of
/// `(seed, {(index, value)})` — the set of offered rows with their global
/// indexes.
///
/// # Examples
///
/// ```
/// use selest_core::ReservoirSketch;
///
/// let mut reservoir = ReservoirSketch::new(16, 42);
/// for i in 0..1000 {
///     reservoir.observe(i as f64);
/// }
/// assert_eq!(reservoir.len(), 16);
/// assert_eq!(reservoir.seen(), 1000);
/// let sample = reservoir.sample(); // in stream order
/// assert!(sample.windows(2).all(|w| w[0] < w[1]));
/// ```
#[derive(Debug, Clone)]
pub struct ReservoirSketch {
    capacity: usize,
    seed: u64,
    /// Rows offered so far; also the global index the next row takes.
    seen: u64,
    /// Min-heap by `(key, index)`: the root is the first row evicted.
    heap: Vec<Slot>,
}

impl PartialEq for ReservoirSketch {
    /// Equality is over the *retained set*, not the heap's internal
    /// layout — two reservoirs that kept the same rows are the same
    /// reservoir, however their heaps happen to be arranged.
    fn eq(&self, other: &Self) -> bool {
        let retained = |r: &Self| {
            let mut slots = r.heap.clone();
            slots.sort_by_key(|s| s.index);
            slots
        };
        (self.capacity, self.seed, self.seen) == (other.capacity, other.seed, other.seen)
            && retained(self) == retained(other)
    }
}

impl ReservoirSketch {
    /// An empty reservoir retaining at most `capacity` rows.
    pub fn new(capacity: usize, seed: u64) -> Self {
        assert!(capacity > 0, "ReservoirSketch needs a positive capacity");
        ReservoirSketch {
            capacity,
            seed,
            seen: 0,
            heap: Vec::with_capacity(capacity.min(4096)),
        }
    }

    /// Rows currently retained.
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// Whether nothing is retained.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }

    /// Total rows offered.
    pub fn seen(&self) -> u64 {
        self.seen
    }

    /// Offer one row. Panics on non-finite values — the fallible
    /// surfaces upstream ([`IncrementalColumn::insert`]) reject those
    /// with a typed error before they reach the sketch.
    pub fn observe(&mut self, v: f64) {
        assert!(v.is_finite(), "ReservoirSketch cannot ingest {v}");
        let index = self.seen;
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

    /// The retained sample in stream (index) order — the deterministic
    /// draw order downstream [`PreparedColumn`] builds consume.
    pub fn sample(&self) -> Vec<f64> {
        let mut slots = self.heap.clone();
        slots.sort_by_key(|s| s.index);
        slots.into_iter().map(|s| s.value).collect()
    }
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
    fn reservoir_equality_is_over_the_retained_set() {
        let mut a = ReservoirSketch::new(32, 99);
        for &v in &stream(500) {
            a.observe(v);
        }
        let mut b = a.clone();
        assert_eq!(a, b);
        // The stream position moves on whether or not the row is kept.
        b.observe(1.0);
        assert_ne!(a, b);
        assert_ne!(a, ReservoirSketch::new(32, 98));
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
        let before = (
            col.reservoir().clone(),
            col.live_rows(),
            col.pending_updates(),
        );
        assert!(matches!(
            col.insert(f64::NAN),
            Err(EstimateError::NonFiniteUpdate { value }) if value.is_nan()
        ));
        let err = col.apply(&[1.0, 2.0, f64::INFINITY], &[3.0]);
        assert!(matches!(err, Err(EstimateError::NonFiniteUpdate { .. })));
        assert_eq!(
            (
                col.reservoir().clone(),
                col.live_rows(),
                col.pending_updates()
            ),
            before,
            "failed batch must not mutate"
        );
        let audit = col.apply(&[1.0, 500.0], &[2.0]).unwrap();
        assert_eq!(audit.inserted, 2);
        assert_eq!(audit.out_of_domain, 1);
        assert_eq!(audit.deleted, 1);
    }
}
