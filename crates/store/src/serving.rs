//! Long-lived serving: epoch-published catalog snapshots, a read-through
//! estimate cache, and per-shard admission control.
//!
//! The batch APIs of PR 7 made one estimate cheap; this module makes a
//! *process* of them serve concurrently. The design splits three concerns:
//!
//! * **Snapshots** ([`CatalogSnapshot`]) — an immutable, sorted,
//!   generation-numbered view of a [`StatisticsCatalog`]. Readers never
//!   see a catalog mid-ANALYZE: they hold an `Arc` to a snapshot that can
//!   no longer change.
//! * **Epoch publication** ([`ServingEngine`]) — the one mutable cell is
//!   `Mutex<Arc<CatalogSnapshot>>` plus an `AtomicU64` epoch. The steady-
//!   state read path is one `Acquire` load of the epoch, a thread-local
//!   lookup and the returned `Arc`'s refcount increment; the mutex is
//!   touched only on the first read after a publish.
//!   Writers build a full replacement snapshot off to the side (from a
//!   catalog the bulkheaded ANALYZE filled) and hand it to
//!   [`ServingEngine::publish_snapshot`], the one way a snapshot enters
//!   the engine, which swaps it in with a strictly increasing generation
//!   number.
//! * **Estimate cache** ([`EstimateCache`]) — a fixed-size direct-mapped
//!   array of seqlock slots keyed by *quantized* query bounds but guarded
//!   by *exact* ones. A batch computes its column's placement grid once;
//!   each query's bounds then become two grid cells (one multiply and a
//!   clamp each), and one multiply–xorshift word mix of the cells with
//!   the column index picks the slot. A miss keeps that slot index and
//!   fills the same slot without hashing again, before the batch probes
//!   its next query, so on a warm column a query repeated later in the
//!   batch hits.
//!   [`RangeQuery::bounds_bits`] plus the snapshot generation and column
//!   index decide whether the slot answers. A collision costs a miss,
//!   never a wrong value, and a snapshot swap invalidates the whole cache
//!   wholesale because no old-generation tag can match again. A batch
//!   tallies its hits, misses, inserts, conflicts and bypasses locally
//!   and adds them to the shared counters once, at its end.
//! * **Cache admission** — a column whose last 1 024 probed queries
//!   (`COLD_AFTER_MISSES`) all missed goes *cold*: its batches skip the
//!   probe and the fill and go straight to the routed rung (each such
//!   query counts as a miss and as `bypassed`), except one batch in 16
//!   (`COLD_RECHECK_BATCHES`), which probes and fills as before. Any hit
//!   puts the column back on the cache. The choice is made once per
//!   batch, and the state lives beside the column's breaker, so it
//!   survives republishes the same way.
//!
//! Everything here preserves the workspace determinism contract: a served
//! *full-precision* estimate — cached, batched, sharded, or republished —
//! is bit-identical to what the sequential single-threaded path produces.
//!
//! # Serving under overload
//!
//! The engine degrades instead of falling over. Every column carries
//! three pre-built rungs — its primary estimator, an optional cheap
//! brownout rung, and the uniform floor — and one routing decision,
//! `route`, taken at a batch's first cache miss, picks the rung that
//! answers all of the batch's misses (see [`crate::overload`] for the
//! control machinery). A batch is served in one pass: each valid query is
//! probed and, on a miss, answered there and then by that rung, one slot
//! at a time under the per-slot fault rule, `isolated_selectivity`. This
//! pass is the workspace's one fault-isolated, deadline-polled batch
//! path: the rule and the deadline stride are private to this module.
//!
//! * **Deadlines** — callers may attach a [`Deadline`] to a request
//!   ([`ServingEngine::try_estimate_with`] /
//!   [`ServingEngine::estimate_batch_with`]). An expired one refuses
//!   before any work; a live one is polled before a batch's first miss
//!   and then every `DEADLINE_STRIDE` (16) misses. Once it has expired, the
//!   remaining misses come back as typed
//!   [`EstimateError::DeadlineExceeded`] slots, while finished slots keep
//!   their unhurried bits and cache hits still serve (partial results,
//!   never hurried arithmetic).
//! * **Adaptive shedding** — each shard folds its request latencies into
//!   an EWMA; above SLO pressure 1 its shed controller refuses
//!   admissions probabilistically (seeded, replayable), stamping
//!   [`EstimateError::Overloaded`] with a `retry_after_us` drain hint.
//!   The fixed `admission_limit` remains as the hard ceiling.
//! * **Brownout** — the engine's [`LoadTier`] enters `Brownout` when the
//!   worst shard pressure reaches 1.0 and returns to `Normal` only at 0.7
//!   or below; in `Brownout`, `route` sends misses to the column's
//!   brownout rung (equi-depth or sampling, the paper's own cost ranking)
//!   when it has one, without consulting the breaker.
//! * **Circuit breakers** — otherwise `route` asks the column's
//!   circuit breaker: open routes to the floor without touching the
//!   primary; closed or half-open (a probe on a seeded call-count
//!   backoff) routes to the primary. Consecutive primary failures
//!   (panics, non-finite answers, deadline timeouts) trip it. Breaker
//!   state survives republishes (grafted by column name at publish).
//!
//! Whichever rung answers, one rule finishes every slot: a non-finite
//! answer or a fault is answered by the floor; each answered slot is
//! counted exactly once (`brownout_served`, `floor_served`,
//! `deadline_refused`, or none for a full-precision answer); and only
//! primary answers enter the cache, so the cache holds full-precision
//! values only and cache hits always serve [`ServeRung::Full`]. Every
//! response is tagged ([`ServeRung`]) with what produced it.
//! [`ServingEngine::try_estimate_with`] is a batch of one through the
//! same code.

use std::cell::RefCell;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

use selest_core::fault::{catch_fault, sanitize_sample, EstimateError, FaultStage};
use selest_core::{Domain, PreparedColumn, RangeQuery, SelectivityEstimator, UniformEstimator};
use selest_par::{shard_for, Deadline, TryConfig};

use crate::catalog::{
    try_build_estimator_from_prepared, CatalogHealthReport, ColumnStatistics, EstimatorKind,
    QuarantinedColumn, RefreshReport, StatisticsCatalog,
};
use crate::durable::DurableStore;
use crate::overload::{
    BreakerRoute, BreakerState, ColumnBreaker, LoadTier, OverloadOptions, ShedController,
    TierController,
};
use crate::staleness::StalenessPolicy;

/// One servable column inside a [`CatalogSnapshot`].
pub struct ServingColumn {
    relation: Arc<str>,
    column: Arc<str>,
    estimator: Arc<dyn SelectivityEstimator + Send + Sync>,
    n_rows: usize,
    kind: EstimatorKind,
    domain: Domain,
    /// Cheaper pre-built rung served on cache misses in brownout (`None`
    /// when the primary is already cheap — histograms, sampling, uniform).
    brownout: Option<Arc<dyn SelectivityEstimator + Send + Sync>>,
    /// The floor rung: uniform over the column domain. Never fails.
    floor: Arc<dyn SelectivityEstimator + Send + Sync>,
}

/// Build a column's degradation rungs: the uniform floor plus, for
/// expensive primaries (kernel, ASH, hybrid), a cheap brownout rung —
/// equi-depth over the prepared sample if it builds, sampling otherwise.
/// Cheap primaries get no brownout rung: degrading sampling to sampling
/// would only add a tag.
fn degradation_rungs(
    kind: EstimatorKind,
    domain: Domain,
    prepared: Option<&Arc<PreparedColumn>>,
) -> (
    Option<Arc<dyn SelectivityEstimator + Send + Sync>>,
    Arc<dyn SelectivityEstimator + Send + Sync>,
) {
    let floor: Arc<dyn SelectivityEstimator + Send + Sync> =
        Arc::new(UniformEstimator::new(domain));
    let cheap = matches!(
        kind,
        EstimatorKind::Uniform
            | EstimatorKind::Sampling
            | EstimatorKind::EquiWidth
            | EstimatorKind::EquiDepth
            | EstimatorKind::MaxDiff
    );
    let brownout = prepared.filter(|_| !cheap).and_then(|col| {
        try_build_estimator_from_prepared(col, EstimatorKind::EquiDepth)
            .or_else(|_| try_build_estimator_from_prepared(col, EstimatorKind::Sampling))
            .ok()
    });
    (brownout.map(Arc::from), floor)
}

impl ServingColumn {
    /// Assemble a servable column directly — the test/chaos entry point
    /// for snapshots built without a [`StatisticsCatalog`] (see
    /// [`CatalogSnapshot::from_columns`]). The brownout rung and uniform
    /// floor are derived from `kind` and the sanitized, prepared `sample`
    /// exactly as the catalog paths derive them.
    pub fn new(
        relation: &str,
        column: &str,
        estimator: Arc<dyn SelectivityEstimator + Send + Sync>,
        n_rows: usize,
        kind: EstimatorKind,
        domain: Domain,
        sample: Arc<[f64]>,
    ) -> Self {
        let (clean, _) = sanitize_sample(&sample, &domain);
        let prepared =
            (!clean.is_empty()).then(|| Arc::new(PreparedColumn::prepare(&clean, domain)));
        let names = (relation.into(), column.into());
        Self::assemble(names, estimator, n_rows, kind, domain, prepared.as_ref())
    }

    /// Serve a catalog entry, sharing its names, estimator and evidence.
    fn from_statistics(st: &ColumnStatistics) -> Self {
        Self::assemble(
            (Arc::clone(&st.relation), Arc::clone(&st.column)),
            Arc::clone(&st.estimator),
            st.n_rows,
            st.kind,
            st.domain,
            st.prepared.as_ref(),
        )
    }

    /// The one place a column is put together: derive its brownout rung
    /// and floor from `kind` and the evidence (the prepared column when
    /// there is one, so no sample is re-sorted).
    fn assemble(
        (relation, column): (Arc<str>, Arc<str>),
        estimator: Arc<dyn SelectivityEstimator + Send + Sync>,
        n_rows: usize,
        kind: EstimatorKind,
        domain: Domain,
        prepared: Option<&Arc<PreparedColumn>>,
    ) -> Self {
        let (brownout, floor) = degradation_rungs(kind, domain, prepared);
        ServingColumn {
            relation,
            column,
            estimator,
            n_rows,
            kind,
            domain,
            brownout,
            floor,
        }
    }

    /// The pre-built estimator behind `rung`. [`route`] picks
    /// [`ServeRung::Brownout`] only for columns that have that rung.
    fn rung(&self, rung: ServeRung) -> &(dyn SelectivityEstimator + Send + Sync) {
        match rung {
            ServeRung::Full => self.estimator.as_ref(),
            ServeRung::Brownout => self
                .brownout
                .as_deref()
                .expect("route picks brownout only when the rung exists"),
            ServeRung::Floor => self.floor.as_ref(),
        }
    }

    /// Relation name.
    pub fn relation(&self) -> &str {
        &self.relation
    }

    /// Column name.
    pub fn column(&self) -> &str {
        &self.column
    }

    /// The estimator serving this column.
    pub fn estimator(&self) -> &(dyn SelectivityEstimator + Send + Sync) {
        self.estimator.as_ref()
    }

    /// Row count at ANALYZE time.
    pub fn n_rows(&self) -> usize {
        self.n_rows
    }

    /// Which estimator kind serves.
    pub fn kind(&self) -> EstimatorKind {
        self.kind
    }

    /// The column domain.
    pub fn domain(&self) -> Domain {
        self.domain
    }

    /// The cheap brownout rung, when the primary is expensive enough to
    /// have one.
    pub fn brownout_rung(&self) -> Option<&(dyn SelectivityEstimator + Send + Sync)> {
        self.brownout.as_deref()
    }
}

/// An immutable, generation-numbered view of a statistics catalog:
/// entries sorted by `(relation, column)` for binary-search lookup,
/// quarantine records carried along for health reporting. Snapshots are
/// what [`ServingEngine`] publishes; once built they never change, so a
/// reader holding an `Arc` to one can never observe a torn catalog.
pub struct CatalogSnapshot {
    generation: u64,
    columns: Vec<ServingColumn>,
    /// One engine state (circuit breaker and cache admission) per column,
    /// in `columns` order. Not statistics: empty until
    /// [`ServingEngine::publish_snapshot`] grafts or seeds them, before
    /// the snapshot serves.
    states: Vec<Arc<ColumnState>>,
    quarantined: Vec<QuarantinedColumn>,
}

impl CatalogSnapshot {
    /// The empty placeholder snapshot (generation 0, no columns) a fresh
    /// engine serves until something is published.
    pub fn empty() -> Self {
        CatalogSnapshot {
            generation: 0,
            columns: Vec::new(),
            states: Vec::new(),
            quarantined: Vec::new(),
        }
    }

    /// Freeze a *shared view* of the catalog into a snapshot: every
    /// entry's `Arc`s (names, estimator) are cloned, so the writer catalog
    /// keeps absorbing updates through
    /// [`StatisticsCatalog::try_apply_updates`] while the published
    /// snapshot stays immutable. A quarantined column serves its earlier
    /// entry when a failed re-ANALYZE left one; otherwise it has no
    /// serving entry and lookups answer
    /// [`EstimateError::MissingStatistics`]. The quarantine records ride
    /// along for [`CatalogSnapshot::health`].
    pub fn from_catalog_ref(catalog: &StatisticsCatalog, generation: u64) -> Self {
        let columns = catalog.iter().map(ServingColumn::from_statistics).collect();
        let mut snapshot = Self::from_columns(columns, generation);
        snapshot.quarantined = catalog.health().quarantined;
        snapshot
    }

    /// Assemble a snapshot from hand-built columns (sorted here), chiefly
    /// for chaos tests that need deliberately misbehaving estimators —
    /// e.g. a [`crate::faultinject::FailingEstimator`] — behind the full
    /// serving path without routing them through a catalog ANALYZE.
    pub fn from_columns(columns: Vec<ServingColumn>, generation: u64) -> Self {
        let mut columns = columns;
        columns.sort_by(|a, b| {
            (a.relation.as_ref(), a.column.as_ref()).cmp(&(b.relation.as_ref(), b.column.as_ref()))
        });
        CatalogSnapshot {
            generation,
            columns,
            states: Vec::new(),
            quarantined: Vec::new(),
        }
    }

    /// The snapshot's generation number. Inside a [`ServingEngine`] these
    /// are strictly increasing across publishes, and when a snapshot is
    /// loaded from (or published to) a [`DurableStore`] they correlate
    /// with the store's durable generation — `selest fsck` prints both
    /// sides so operators can match a serving process to its on-disk
    /// statistics.
    pub fn generation(&self) -> u64 {
        self.generation
    }

    /// Number of servable columns.
    pub fn len(&self) -> usize {
        self.columns.len()
    }

    /// Whether the snapshot serves no columns.
    pub fn is_empty(&self) -> bool {
        self.columns.is_empty()
    }

    /// All servable columns, sorted by `(relation, column)`.
    pub fn columns(&self) -> &[ServingColumn] {
        &self.columns
    }

    /// Binary-search a column; the returned index is the column's stable
    /// identity within this snapshot (cache entries are tagged with it).
    pub fn find(&self, relation: &str, column: &str) -> Option<(usize, &ServingColumn)> {
        self.columns
            .binary_search_by(|c| (c.relation.as_ref(), c.column.as_ref()).cmp(&(relation, column)))
            .ok()
            .map(|i| (i, &self.columns[i]))
    }

    /// Catalog-shaped health: servable entries plus the quarantine
    /// records frozen into this snapshot.
    pub fn health(&self) -> CatalogHealthReport {
        CatalogHealthReport {
            entries: self.columns.len(),
            quarantined: self.quarantined.clone(),
        }
    }
}

/// Running totals of an [`EstimateCache`]. Every valid query a batch
/// serves is a hit or a miss, so `hits + misses` counts the valid slots
/// served. A miss of a healthy primary ends in exactly one of an insert,
/// a conflict or a bypass, so then `inserts + conflicts + bypassed ==
/// misses`.
#[derive(Debug, Clone, Copy, Default)]
pub struct CacheStats {
    /// Probes answered from a slot (exact-identity match).
    pub hits: u64,
    /// Queries answered by the estimator: probes that fell through, and
    /// bypassed queries.
    pub misses: u64,
    /// Values written into a slot.
    pub inserts: u64,
    /// Inserts skipped because another writer held the slot's seqlock.
    pub conflicts: u64,
    /// Misses of a cold column's batch, which neither probed nor filled
    /// (see [`ServingEngine::estimate_batch_with`]).
    pub bypassed: u64,
}

/// One direct-mapped cache slot: a seqlock version word plus the entry's
/// identity tag (generation, column index, exact bound bits) and value.
/// Even version = stable, odd = mid-write; readers re-check the version
/// after loading the fields, so a torn read is detected and turned into a
/// miss rather than a wrong answer.
struct CacheSlot {
    version: AtomicU64,
    generation: AtomicU64,
    column: AtomicU64,
    a_bits: AtomicU64,
    b_bits: AtomicU64,
    value_bits: AtomicU64,
}

impl CacheSlot {
    const fn new() -> Self {
        CacheSlot {
            version: AtomicU64::new(0),
            generation: AtomicU64::new(0),
            column: AtomicU64::new(0),
            a_bits: AtomicU64::new(0),
            b_bits: AtomicU64::new(0),
            value_bits: AtomicU64::new(0),
        }
    }
}

/// A read-through estimate cache: fixed-size, direct-mapped, lock-free.
///
/// **Placement** is lossy: both bounds snap to a `2^quantize_bits`-cell
/// grid over the column domain, and a multiply–xorshift word mix of the
/// two cells with the column index picks the slot. **Identity** is
/// exact: a probe answers only if the slot's `(generation, column,
/// a_bits, b_bits)` tag equals the query's — so the cache can serve a
/// *wrong-slot* miss but never a wrong *value* (the error-free
/// guarantee), and an epoch publish invalidates every entry wholesale
/// because generations are strictly increasing and old tags can never
/// match again. Memory is bounded by construction: `2^cache_bits` slots
/// of six words each, allocated once. The engine consults it only for a
/// column's warm batches: a cold column's batches bypass it (counted in
/// [`CacheStats::bypassed`]), because none of their queries would hit.
pub struct EstimateCache {
    slots: Vec<CacheSlot>,
    quantize_bits: u32,
    hits: AtomicU64,
    misses: AtomicU64,
    inserts: AtomicU64,
    conflicts: AtomicU64,
    bypassed: AtomicU64,
}

/// Where one column's queries land in an [`EstimateCache`]. Computed once
/// per batch, so a query's slot costs two multiplies for its grid cells
/// and one word mix.
struct Placement {
    /// The domain's low edge: cell 0 starts here.
    lo: f64,
    /// Cells per unit of the domain, `2^bits / width`, or 0 when the
    /// width is not positive, which puts every bound in cell 0.
    scale: f64,
    bits: u32,
    /// The column index, premixed so columns with equal cells spread.
    salt: u64,
    /// `64 - cache_bits`: the mix's top bits index the slot array.
    shift: u32,
}

impl Placement {
    /// Both bounds' grid cells packed into one word, `a`'s above `b`'s.
    /// A bound outside the domain clamps to the edge cell (the saturating
    /// float-to-int cast takes the low side, `min` the high side).
    fn key(&self, q: &RangeQuery) -> u64 {
        let last = (1u64 << self.bits) - 1;
        let cell = |x: f64| (((x - self.lo) * self.scale) as u64).min(last);
        (cell(q.a()) << self.bits) | cell(q.b())
    }

    /// The query's slot index.
    fn slot(&self, q: &RangeQuery) -> usize {
        (crate::overload::splitmix64(self.key(q) ^ self.salt) >> self.shift) as usize
    }
}

impl EstimateCache {
    /// A cache of `2^cache_bits` slots keyed on a `2^quantize_bits`
    /// placement grid. `cache_bits` must be in `1..=24` (16 M slots is
    /// already 768 MiB of tags; serving wants KBs, not GBs) and
    /// `quantize_bits` in `1..=32`.
    pub fn new(cache_bits: u32, quantize_bits: u32) -> Self {
        assert!(
            (1..=24).contains(&cache_bits),
            "EstimateCache needs 1..=24 cache bits, got {cache_bits}"
        );
        assert!(
            (1..=32).contains(&quantize_bits),
            "EstimateCache needs 1..=32 quantize bits, got {quantize_bits}"
        );
        EstimateCache {
            slots: (0..1usize << cache_bits)
                .map(|_| CacheSlot::new())
                .collect(),
            quantize_bits,
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            inserts: AtomicU64::new(0),
            conflicts: AtomicU64::new(0),
            bypassed: AtomicU64::new(0),
        }
    }

    /// Number of slots (fixed at construction).
    pub fn slots(&self) -> usize {
        self.slots.len()
    }

    /// The placement grid's bit width.
    pub fn quantize_bits(&self) -> u32 {
        self.quantize_bits
    }

    /// Counter snapshot. A serving batch tallies its probes and fills
    /// locally and adds them here when it ends, so the totals are exact
    /// whenever no batch is in flight; while batches run, they lag by
    /// the counts of those batches.
    pub fn stats(&self) -> CacheStats {
        CacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            inserts: self.inserts.load(Ordering::Relaxed),
            conflicts: self.conflicts.load(Ordering::Relaxed),
            bypassed: self.bypassed.load(Ordering::Relaxed),
        }
    }

    /// The placement of `column`'s queries over `domain`.
    fn placement(&self, domain: &Domain, column: usize) -> Placement {
        let width = domain.width();
        Placement {
            lo: domain.lo(),
            scale: if width > 0.0 {
                (1u64 << self.quantize_bits) as f64 / width
            } else {
                0.0
            },
            bits: self.quantize_bits,
            salt: crate::overload::splitmix64(column as u64),
            shift: 64 - self.slots.len().trailing_zeros(),
        }
    }

    /// Probe `slot` (from [`Placement::slot`]) for an exact-identity hit,
    /// counting a hit or a miss in `tally`. Generation 0 (the empty
    /// placeholder snapshot) is never cached, so the all-zero initial
    /// slot state cannot masquerade as an entry.
    fn probe(
        &self,
        slot: usize,
        generation: u64,
        column: usize,
        q: &RangeQuery,
        tally: &mut CacheStats,
    ) -> Option<f64> {
        if generation == 0 {
            tally.misses += 1;
            return None;
        }
        let slot = &self.slots[slot];
        let v1 = slot.version.load(Ordering::Acquire);
        if v1 & 1 == 0 {
            let tag = (
                slot.generation.load(Ordering::Acquire),
                slot.column.load(Ordering::Acquire),
                slot.a_bits.load(Ordering::Acquire),
                slot.b_bits.load(Ordering::Acquire),
            );
            let value = slot.value_bits.load(Ordering::Acquire);
            let (qa, qb) = q.bounds_bits();
            if slot.version.load(Ordering::Acquire) == v1
                && tag == (generation, column as u64, qa, qb)
            {
                tally.hits += 1;
                return Some(f64::from_bits(value));
            }
        }
        tally.misses += 1;
        None
    }

    /// Write a computed estimate into `slot` — the one its probe read —
    /// evicting whatever was there, and count the insert in `tally`.
    /// Best-effort: if another writer holds the slot's seqlock the fill
    /// is skipped and counted as a conflict (the value is already on its
    /// way to that slot or the caller; dropping a cache fill is always
    /// safe).
    fn fill(
        &self,
        slot: usize,
        generation: u64,
        column: usize,
        q: &RangeQuery,
        value: f64,
        tally: &mut CacheStats,
    ) {
        if generation == 0 {
            return;
        }
        let slot = &self.slots[slot];
        let v = slot.version.load(Ordering::Relaxed);
        if v & 1 == 1
            || slot
                .version
                .compare_exchange(v, v | 1, Ordering::Acquire, Ordering::Relaxed)
                .is_err()
        {
            tally.conflicts += 1;
            return;
        }
        let (qa, qb) = q.bounds_bits();
        slot.generation.store(generation, Ordering::Release);
        slot.column.store(column as u64, Ordering::Release);
        slot.a_bits.store(qa, Ordering::Release);
        slot.b_bits.store(qb, Ordering::Release);
        slot.value_bits.store(value.to_bits(), Ordering::Release);
        slot.version.store(v.wrapping_add(2), Ordering::Release);
        tally.inserts += 1;
    }

    /// Add a batch's tally to the shared counters: one `fetch_add` per
    /// nonzero count.
    fn count(&self, tally: CacheStats) {
        for (counter, n) in [
            (&self.hits, tally.hits),
            (&self.misses, tally.misses),
            (&self.inserts, tally.inserts),
            (&self.conflicts, tally.conflicts),
            (&self.bypassed, tally.bypassed),
        ] {
            if n > 0 {
                counter.fetch_add(n, Ordering::Relaxed);
            }
        }
    }
}

/// Probed queries that must all miss before a column goes cold: four
/// 256-query batches. A column whose traffic repeats at all hits long
/// before this; one whose queries never repeat (serve-cold's shape) only
/// pays a probe and a fill per query for nothing.
const COLD_AFTER_MISSES: u64 = 1_024;

/// While a column is cold, one batch in this many still probes and
/// fills, so traffic that turns hot is back on the cache within this
/// many batches.
const COLD_RECHECK_BATCHES: u64 = 16;

/// A column's engine state: what the serving path learns about a column
/// while it serves, carried across publishes by column name (see
/// [`ServingEngine::publish_snapshot`]).
struct ColumnState {
    breaker: ColumnBreaker,
    cache: CacheAdmission,
}

/// Whether a column's batches use the estimate cache: warm until
/// [`COLD_AFTER_MISSES`] probed queries in a row have missed, then cold,
/// re-checked by one batch in [`COLD_RECHECK_BATCHES`]. Racing batches
/// may lose an update, which moves when a column turns cold or warm,
/// never a served value or a counter.
#[derive(Default)]
struct CacheAdmission {
    /// Probed queries that missed since the column's last batch with a
    /// hit.
    miss_run: AtomicU64,
    /// Batches begun while cold; the last of every
    /// [`COLD_RECHECK_BATCHES`] probes.
    cold_batches: AtomicU64,
}

impl CacheAdmission {
    /// Whether the next batch probes (and fills) the cache.
    fn probes(&self) -> bool {
        self.miss_run.load(Ordering::Relaxed) < COLD_AFTER_MISSES
            || self.cold_batches.fetch_add(1, Ordering::Relaxed) % COLD_RECHECK_BATCHES
                == COLD_RECHECK_BATCHES - 1
    }

    /// Fold in a probing batch's tally: a hit puts the column back on
    /// the cache, misses lengthen its run. A warm column's batches only
    /// read the shared word.
    fn record(&self, tally: &CacheStats) {
        if tally.hits > 0 {
            if self.miss_run.load(Ordering::Relaxed) != 0 {
                self.miss_run.store(0, Ordering::Relaxed);
            }
        } else if tally.misses > 0 {
            self.miss_run.fetch_add(tally.misses, Ordering::Relaxed);
        }
    }
}

/// Construction-time knobs of a [`ServingEngine`].
#[derive(Debug, Clone, Copy)]
pub struct ServingOptions {
    /// Shards: columns are assigned by [`shard_for`]; each shard has its
    /// own admission counter, latency EWMA and shed controller, and the
    /// worst shard's pressure drives the engine's [`LoadTier`]. Must be at
    /// least 1.
    pub shards: usize,
    /// Per-shard admission limit: concurrent estimate calls beyond this
    /// are refused with [`EstimateError::Overloaded`] instead of queuing
    /// without bound. 0 disables admission control.
    pub admission_limit: usize,
    /// Estimate cache size: `2^cache_bits` slots.
    pub cache_bits: u32,
    /// Cache placement grid: `2^quantize_bits` cells per bound.
    pub quantize_bits: u32,
    /// Overload behaviour: SLO, shedding, breakers, brownout.
    pub overload: OverloadOptions,
}

impl Default for ServingOptions {
    fn default() -> Self {
        ServingOptions {
            shards: 4,
            admission_limit: 1024,
            cache_bits: 12,
            quantize_bits: 16,
            overload: OverloadOptions::default(),
        }
    }
}

/// Per-shard admission counters plus the shard's shed controller.
struct ShardState {
    in_flight: AtomicUsize,
    admitted: AtomicU64,
    rejected: AtomicU64,
    shed_ctl: ShedController,
}

/// Point-in-time health of one shard.
#[derive(Debug, Clone)]
pub struct ShardHealth {
    /// Shard index.
    pub shard: usize,
    /// Estimate calls admitted (each batch call counts once).
    pub admitted: u64,
    /// Estimate calls refused by admission control.
    pub rejected: u64,
    /// Calls currently in flight.
    pub in_flight: usize,
    /// Smoothed request latency (microseconds; 0 = no history yet).
    pub ewma_us: f64,
    /// SLO pressure (EWMA / SLO).
    pub pressure: f64,
    /// Requests shed adaptively (counted inside `rejected` too).
    pub shed: u64,
}

/// Breaker state of one serving column, as reported in engine health.
#[derive(Debug, Clone)]
pub struct BreakerHealth {
    /// Relation name.
    pub relation: String,
    /// Column name.
    pub column: String,
    /// Closed / open / half-open.
    pub state: BreakerState,
    /// Cumulative trips.
    pub trips: u32,
}

/// Point-in-time health of a whole [`ServingEngine`].
#[derive(Debug, Clone)]
pub struct ServingHealthReport {
    /// Generation of the snapshot currently serving.
    pub generation: u64,
    /// Publish epoch (bumps once per swap; generation can jump further).
    pub epoch: u64,
    /// Snapshots published over the engine's lifetime.
    pub publishes: u64,
    /// Estimate cache counters.
    pub cache: CacheStats,
    /// Catalog-shaped health of the serving snapshot.
    pub catalog: CatalogHealthReport,
    /// Per-shard admission counters and pressure.
    pub shards: Vec<ShardHealth>,
    /// Engine load tier.
    pub tier: LoadTier,
    /// Estimates answered by a brownout rung.
    pub brownout_served: u64,
    /// Estimates answered by a column's uniform floor (breaker open or
    /// primary failure absorbed).
    pub floor_served: u64,
    /// Valid request slots refused with `DeadlineExceeded`.
    pub deadline_refused: u64,
    /// Breaker state of every serving column.
    pub breakers: Vec<BreakerHealth>,
}

/// Which of a column's pre-built rungs produced a served estimate.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ServeRung {
    /// The column's primary estimator (or the cache, which holds only
    /// primary-produced values) — bit-identical to the sequential path.
    Full,
    /// The cheap brownout rung (equi-depth/sampling): bounded-error,
    /// served under SLO pressure.
    Brownout,
    /// The uniform floor: the breaker is open or the routed rung failed.
    Floor,
}

/// The serving path's one routing decision: which of a column's rungs
/// answers a batch's cache misses. Brownout is decided first — in
/// [`LoadTier::Brownout`], a column with a brownout rung serves it and
/// the primary is never consulted, so its breaker is neither asked nor
/// charged. Otherwise the breaker decides: open routes to the floor,
/// closed or half-open (a probe) to the primary. Asking the breaker
/// ticks its call-count cooldown clock, the only state this touches.
pub(crate) fn route(
    tier: LoadTier,
    brownout_rung_present: bool,
    breaker: &ColumnBreaker,
) -> ServeRung {
    if tier != LoadTier::Normal && brownout_rung_present {
        return ServeRung::Brownout;
    }
    match breaker.route() {
        BreakerRoute::Floor => ServeRung::Floor,
        BreakerRoute::Primary | BreakerRoute::Probe => ServeRung::Full,
    }
}

/// A served estimate: the value plus the rung that produced it, so
/// callers (and the overload benchmark's checksum gate) can separate
/// full-precision answers from degraded ones.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ServedEstimate {
    /// The selectivity estimate.
    pub value: f64,
    /// What produced it.
    pub rung: ServeRung,
}

/// Outcome of a staleness-driven refresh-and-republish
/// ([`ServingEngine::republish_if_stale`]).
#[derive(Debug)]
pub struct StaleRepublishReport {
    /// Generation the refreshed snapshot was published as.
    pub generation: u64,
    /// Which columns were refreshed (and why), and which refreshes the
    /// bulkhead quarantined.
    pub refresh: RefreshReport,
}

/// Decrements a shard's in-flight count when the estimate call it
/// admitted returns (on every path, including panics unwinding through
/// the estimator).
struct AdmissionGuard<'a> {
    in_flight: &'a AtomicUsize,
}

impl Drop for AdmissionGuard<'_> {
    fn drop(&mut self) {
        self.in_flight.fetch_sub(1, Ordering::AcqRel);
    }
}

/// The per-thread handle callers pass to
/// [`ServingEngine::estimate_batch_into`] and
/// [`ServingEngine::estimate_batch_with`]. A batch is served in one pass
/// that writes each answer straight into the caller's output, so the
/// handle holds no buffers and the warm path allocates nothing.
#[derive(Default)]
pub struct ServingScratch;

impl ServingScratch {
    /// A scratch handle; never allocates.
    pub const fn new() -> Self {
        ServingScratch
    }
}

/// How many cache misses a batch answers between deadline polls: the
/// pass polls before its first miss and then every this many. Small
/// enough that an expired budget is noticed within a few microseconds of
/// work, large enough that the atomic load never shows up in profiles.
const DEADLINE_STRIDE: usize = 16;

/// One valid query through the fault-isolated path: a panic comes back as
/// [`EstimateError::Panicked`], a NaN/±Inf answer as
/// [`EstimateError::NonFiniteEstimate`], and any other answer is exactly
/// [`SelectivityEstimator::selectivity`]'s. The per-slot rule of the one
/// fallible batch path, [`BatchPass::miss`].
fn isolated_selectivity(
    est: &dyn SelectivityEstimator,
    q: &RangeQuery,
) -> Result<f64, EstimateError> {
    let v = catch_fault(
        FaultStage::Estimate,
        std::panic::AssertUnwindSafe(|| est.selectivity(q)),
    )?;
    if v.is_finite() {
        Ok(v)
    } else {
        Err(EstimateError::NonFiniteEstimate { value: v })
    }
}

/// One batch's single pass over its queries against one column: each
/// valid query is probed ([`BatchPass::serve`]) or, on a cold column,
/// bypasses the cache ([`BatchPass::bypass`]); a miss is answered by the
/// routed rung and, when probed, a primary answer fills the slot its
/// probe read. The pass keeps the batch's tallies until
/// [`BatchPass::finish`] adds them to the engine.
struct BatchPass<'a> {
    engine: &'a ServingEngine,
    col: &'a ServingColumn,
    state: &'a ColumnState,
    idx: usize,
    generation: u64,
    placement: Placement,
    deadline: Option<&'a Deadline>,
    /// The deadline, once a poll has found it expired.
    expired: Option<&'a Deadline>,
    /// The rung `route` picked at the batch's first miss.
    rung: Option<ServeRung>,
    tally: CacheStats,
    /// Valid cache misses so far (the deadline's poll clock).
    misses: usize,
    /// Misses whose rung faulted, answered by the floor.
    faulted: u64,
    /// Misses refused with `DeadlineExceeded`.
    refused: u64,
}

impl BatchPass<'_> {
    /// Serve one query of a probing batch by the rules of
    /// [`ServingEngine::estimate_batch_with`].
    fn serve(&mut self, q: &RangeQuery) -> Result<ServedEstimate, EstimateError> {
        q.validate()?;
        let (cache, slot) = (&self.engine.cache, self.placement.slot(q));
        match cache.probe(slot, self.generation, self.idx, q, &mut self.tally) {
            Some(value) => Ok(ServedEstimate {
                value,
                rung: ServeRung::Full,
            }),
            None => self.miss(Some(slot), q),
        }
    }

    /// Serve one query of a cold column's batch: a miss that neither
    /// probes nor fills.
    fn bypass(&mut self, q: &RangeQuery) -> Result<ServedEstimate, EstimateError> {
        q.validate()?;
        self.tally.misses += 1;
        self.tally.bypassed += 1;
        self.miss(None, q)
    }

    /// Answer a cache miss from the batch's rung; a primary answer fills
    /// `slot`, the one a probing batch's probe read.
    fn miss(
        &mut self,
        slot: Option<usize>,
        q: &RangeQuery,
    ) -> Result<ServedEstimate, EstimateError> {
        let rung = *self.rung.get_or_insert_with(|| {
            let brownout = self.engine.overload.brownout && self.col.brownout.is_some();
            route(self.engine.tier.tier(), brownout, &self.state.breaker)
        });
        if self.expired.is_none() && self.misses.is_multiple_of(DEADLINE_STRIDE) {
            self.expired = self.deadline.filter(|d| d.expired());
        }
        self.misses += 1;
        if let Some(d) = self.expired {
            self.refused += 1;
            return Err(EstimateError::deadline_exceeded(d));
        }
        match isolated_selectivity(self.col.rung(rung), q) {
            Ok(value) => {
                if let (ServeRung::Full, Some(slot)) = (rung, slot) {
                    let cache = &self.engine.cache;
                    cache.fill(slot, self.generation, self.idx, q, value, &mut self.tally);
                }
                Ok(ServedEstimate { value, rung })
            }
            Err(_) => {
                self.faulted += 1;
                Ok(ServedEstimate {
                    value: self.col.floor.selectivity(q),
                    rung: ServeRung::Floor,
                })
            }
        }
    }

    /// Add the batch's tallies to the engine, tell the column's cache
    /// admission what a probing batch found, and charge the primary's
    /// breaker. Each miss is counted by its rung if that rung answered,
    /// as floored if it faulted, as refused if its deadline expired.
    fn finish(self, probed: bool) {
        let engine = self.engine;
        engine.cache.count(self.tally);
        if probed {
            self.state.cache.record(&self.tally);
        }
        let Some(rung) = self.rung else {
            return;
        };
        let (faulted, refused) = (self.faulted, self.refused);
        let answered = self.misses as u64 - refused - faulted;
        let (brownout, floored) = match rung {
            ServeRung::Full => (0, faulted),
            ServeRung::Brownout => (answered, faulted),
            ServeRung::Floor => (0, faulted + answered),
        };
        for (counter, n) in [
            (&engine.brownout_served, brownout),
            (&engine.floor_served, floored),
            (&engine.deadline_refused, refused),
        ] {
            if n > 0 {
                counter.fetch_add(n, Ordering::Relaxed);
            }
        }
        if rung == ServeRung::Full {
            // A timeout is one slow call, charged once.
            let charges = if faulted > 0 {
                faulted
            } else {
                u64::from(refused > 0)
            };
            if charges == 0 {
                self.state.breaker.on_success();
            }
            for _ in 0..charges {
                self.state.breaker.on_failure();
            }
        }
    }
}

/// Answer every valid query with `err()` and every invalid one with its
/// `InvalidQuery`: a refusal before any work. Returns the refused count.
fn refuse_all(
    queries: &[RangeQuery],
    err: impl Fn() -> EstimateError,
    emit: &mut impl FnMut(Result<ServedEstimate, EstimateError>),
) -> u64 {
    let mut refused = 0;
    for q in queries {
        emit(q.validate().and_then(|()| {
            refused += 1;
            Err(err())
        }));
    }
    refused
}

/// Engine-id source for the thread-local snapshot cache: every engine
/// gets a process-unique id so entries from a dropped engine can never
/// alias a live one.
static ENGINE_IDS: AtomicU64 = AtomicU64::new(1);

/// Thread-local snapshot cache entries: `(engine id, epoch, snapshot)`.
type TlSnapshots = Vec<(u64, u64, Arc<CatalogSnapshot>)>;

thread_local! {
    static SNAPSHOTS: RefCell<TlSnapshots> = const { RefCell::new(Vec::new()) };
}

/// How many engines one thread caches snapshots for before evicting the
/// oldest entry.
const TL_SNAPSHOT_CAP: usize = 8;

/// A long-lived serving engine: wait-free concurrent reads of an
/// epoch-published [`CatalogSnapshot`], a read-through [`EstimateCache`],
/// and per-shard admission control, with replacement snapshots published
/// atomically.
///
/// Readers call [`ServingEngine::try_estimate`] /
/// [`ServingEngine::estimate_batch_into`] from any thread; the steady
/// state costs one atomic load (the epoch), a thread-local vector probe
/// and an `Arc` clone (one atomic increment of the snapshot's shared
/// refcount, and one decrement when it is dropped) to reach the snapshot
/// — no lock on the hot path. A writer builds the new snapshot entirely
/// off to the side, and [`ServingEngine::publish_snapshot`] (which
/// [`ServingEngine::load_durable`] and
/// [`ServingEngine::republish_if_stale`] call) swaps it in under the
/// engine's one mutex;
/// in-flight readers keep their `Arc` to the old snapshot and finish
/// undisturbed, so a reader can never observe a torn catalog — only the
/// complete old one or the complete new one.
pub struct ServingEngine {
    id: u64,
    epoch: AtomicU64,
    current: Mutex<Arc<CatalogSnapshot>>,
    cache: EstimateCache,
    shard_states: Vec<ShardState>,
    admission_limit: usize,
    publishes: AtomicU64,
    overload: OverloadOptions,
    tier: TierController,
    brownout_served: AtomicU64,
    floor_served: AtomicU64,
    deadline_refused: AtomicU64,
}

impl ServingEngine {
    /// An engine serving the empty generation-0 snapshot.
    pub fn new(options: ServingOptions) -> Self {
        assert!(options.shards > 0, "ServingEngine needs at least one shard");
        let ov = options.overload;
        ServingEngine {
            id: ENGINE_IDS.fetch_add(1, Ordering::Relaxed),
            epoch: AtomicU64::new(0),
            current: Mutex::new(Arc::new(CatalogSnapshot::empty())),
            cache: EstimateCache::new(options.cache_bits, options.quantize_bits),
            shard_states: (0..options.shards)
                .map(|s| ShardState {
                    in_flight: AtomicUsize::new(0),
                    admitted: AtomicU64::new(0),
                    rejected: AtomicU64::new(0),
                    // Stream-split the seed so sibling shards draw
                    // independent (but replayable) shed sequences.
                    shed_ctl: ShedController::new(
                        ov.slo_us,
                        crate::overload::splitmix64(ov.seed ^ s as u64),
                    ),
                })
                .collect(),
            admission_limit: options.admission_limit,
            publishes: AtomicU64::new(0),
            overload: ov,
            tier: TierController::default(),
            brownout_served: AtomicU64::new(0),
            floor_served: AtomicU64::new(0),
            deadline_refused: AtomicU64::new(0),
        }
    }

    /// An engine with [`ServingOptions::default`].
    pub fn with_defaults() -> Self {
        Self::new(ServingOptions::default())
    }

    /// Number of shards.
    pub fn shards(&self) -> usize {
        self.shard_states.len()
    }

    /// The estimate cache (counters, capacity).
    pub fn cache(&self) -> &EstimateCache {
        &self.cache
    }

    /// The snapshot currently serving. Wait-free in the steady state:
    /// one `Acquire` epoch load, a thread-local probe and an `Arc`
    /// clone (an atomic increment of the refcount every reader of this
    /// snapshot shares); the engine mutex is locked only on this
    /// thread's first call after a publish.
    pub fn snapshot(&self) -> Arc<CatalogSnapshot> {
        let epoch = self.epoch.load(Ordering::Acquire);
        SNAPSHOTS.with(|cell| {
            let mut tl = cell.borrow_mut();
            if let Some((_, _, snap)) = tl.iter().find(|(id, ep, _)| *id == self.id && *ep == epoch)
            {
                return Arc::clone(snap);
            }
            // Epoch moved (or first touch): refresh from the shared cell.
            // The snapshot we fetch is the one at `epoch` or newer — never
            // older — so caching it under `epoch` is conservative: a
            // concurrent publish just costs one extra refresh next call.
            let snap = Arc::clone(&self.current.lock().expect("publisher never panics"));
            if let Some(entry) = tl.iter_mut().find(|(id, _, _)| *id == self.id) {
                *entry = (self.id, epoch, Arc::clone(&snap));
            } else {
                if tl.len() == TL_SNAPSHOT_CAP {
                    tl.remove(0);
                }
                tl.push((self.id, epoch, Arc::clone(&snap)));
            }
            snap
        })
    }

    /// Publish a snapshot, renumbering its generation so engine
    /// generations are strictly increasing (`max(requested, current + 1)`
    /// — a republish of durable generation `g` after local publishes
    /// keeps moving forward, never backward). Returns the generation the
    /// snapshot now serves as. In-flight readers are undisturbed; the
    /// estimate cache invalidates wholesale because no slot tagged with
    /// an older generation can match a probe against the new one.
    pub fn publish_snapshot(&self, snapshot: CatalogSnapshot) -> u64 {
        let mut snapshot = snapshot;
        let mut cur = self.current.lock().expect("publisher never panics");
        let generation = snapshot.generation.max(cur.generation + 1);
        snapshot.generation = generation;
        // Graft column state across the publish: a column that survives
        // keeps its live breaker (an open breaker must not silently close
        // because statistics were republished) and its cache admission (a
        // cold column stays cold); a new column starts warm, with a
        // breaker seeded from the engine's options and its own name, so
        // half-open probe timing is deterministic per column.
        snapshot.states = snapshot
            .columns
            .iter()
            .map(|col| match cur.find(&col.relation, &col.column) {
                Some((i, _)) => Arc::clone(&cur.states[i]),
                None => {
                    let mut name = Vec::with_capacity(col.relation.len() + col.column.len() + 1);
                    name.extend_from_slice(col.relation.as_bytes());
                    name.push(0);
                    name.extend_from_slice(col.column.as_bytes());
                    Arc::new(ColumnState {
                        breaker: ColumnBreaker::new(
                            self.overload.breaker_threshold,
                            self.overload.breaker_cooldown_calls,
                            self.overload.seed ^ selest_par::fnv1a_64(&name),
                        ),
                        cache: CacheAdmission::default(),
                    })
                }
            })
            .collect();
        *cur = Arc::new(snapshot);
        self.publishes.fetch_add(1, Ordering::Relaxed);
        // Bump the epoch while still holding the lock so a reader that
        // sees the new epoch is guaranteed to fetch the new snapshot.
        self.epoch.fetch_add(1, Ordering::Release);
        generation
    }

    /// Load the active durable generation into the engine: rebuild the
    /// catalog from the store's evidence and publish it requesting the
    /// store's generation number (so a fresh engine's serving generation
    /// equals the durable one — `selest fsck` prints the correlation).
    /// Returns the published generation and any per-entry rebuild
    /// failures (quarantined, as on any recovery).
    pub fn load_durable(
        &self,
        store: &DurableStore,
    ) -> (u64, Vec<(String, String, EstimateError)>) {
        let (catalog, failures) = store.load_catalog();
        let snapshot = CatalogSnapshot::from_catalog_ref(&catalog, store.active_generation());
        let generation = self.publish_snapshot(snapshot);
        (generation, failures)
    }

    /// The staleness-driven republish loop in one call: judge every
    /// incremental column of `catalog` against `policy`, and when any is
    /// stale, refresh the stale ones from their live substrate
    /// ([`StatisticsCatalog::try_refresh_stale`], bulkheaded per column)
    /// and publish a fresh epoch snapshot sharing the refreshed
    /// estimators by `Arc`. Returns `None` — publishing nothing, costing
    /// one signal sweep — while every column is fresh, so callers can
    /// invoke it on every ingest batch. In-flight readers keep serving
    /// the old snapshot until the swap, as with any publish.
    pub fn republish_if_stale(
        &self,
        catalog: &mut StatisticsCatalog,
        policy: &StalenessPolicy,
        engine: &TryConfig,
    ) -> Option<StaleRepublishReport> {
        // Every stale column lands in `refreshed` or `failed`, so an
        // empty report means every column was fresh.
        let refresh = catalog.try_refresh_stale(policy, engine);
        if refresh.refreshed.is_empty() && refresh.failed.is_empty() {
            return None;
        }
        let generation = self.publish_snapshot(CatalogSnapshot::from_catalog_ref(catalog, 0));
        Some(StaleRepublishReport {
            generation,
            refresh,
        })
    }

    fn admit(&self, shard: usize) -> Result<AdmissionGuard<'_>, EstimateError> {
        let st = &self.shard_states[shard];
        let in_flight = st.in_flight.fetch_add(1, Ordering::AcqRel) + 1;
        // Hard ceiling: beyond `admission_limit` concurrent calls the
        // shard refuses unconditionally, pricing the retry hint from its
        // latency EWMA and queue depth.
        if self.admission_limit > 0 && in_flight > self.admission_limit {
            st.in_flight.fetch_sub(1, Ordering::AcqRel);
            st.rejected.fetch_add(1, Ordering::Relaxed);
            return Err(EstimateError::Overloaded {
                shard,
                in_flight,
                limit: self.admission_limit,
                retry_after_us: st.shed_ctl.retry_after_us(in_flight),
            });
        }
        // Adaptive shedding below the ceiling: once the latency EWMA
        // exceeds the SLO, refuse a seeded, occupancy-scaled fraction of
        // admissions so the queue drains instead of compounding. A fresh
        // shard (no latency history) never sheds.
        if self.admission_limit > 0 && st.shed_ctl.should_shed(in_flight - 1, self.admission_limit)
        {
            st.in_flight.fetch_sub(1, Ordering::AcqRel);
            st.rejected.fetch_add(1, Ordering::Relaxed);
            return Err(EstimateError::Overloaded {
                shard,
                in_flight,
                limit: self.admission_limit,
                retry_after_us: st.shed_ctl.retry_after_us(in_flight),
            });
        }
        st.admitted.fetch_add(1, Ordering::Relaxed);
        Ok(AdmissionGuard {
            in_flight: &st.in_flight,
        })
    }

    /// Fold one observed request latency into `shard`'s EWMA and refresh
    /// the engine load tier from the worst shard pressure. Called after
    /// every admitted request when [`OverloadOptions::auto_observe`] is
    /// set; the engine's tests set it `false` and call this directly to
    /// script exact pressure trajectories. `shard` must be below
    /// [`ServingEngine::shards`].
    fn observe_shard_latency(&self, shard: usize, latency_us: f64) {
        self.shard_states[shard].shed_ctl.observe(latency_us);
        let worst = self
            .shard_states
            .iter()
            .map(|st| st.shed_ctl.pressure())
            .fold(0.0, f64::max);
        self.tier.update(worst);
    }

    fn note_latency(&self, shard: usize, started: Instant) {
        if self.overload.auto_observe {
            self.observe_shard_latency(shard, started.elapsed().as_secs_f64() * 1e6);
        }
    }

    fn missing(relation: &str, column: &str) -> EstimateError {
        EstimateError::MissingStatistics {
            relation: relation.to_owned(),
            column: column.to_owned(),
        }
    }

    /// Serve one estimate: validate, look up the column in the current
    /// snapshot, pass admission control, probe the cache, and fall
    /// through to the routed rung on a miss (filling the cache from the
    /// primary). The value is bit-identical to the sequential path —
    /// cached or not — whenever the engine is healthy; under brownout, an
    /// open breaker, or a primary failure the value may come from a
    /// degraded rung (use [`ServingEngine::try_estimate_with`] to see
    /// which).
    pub fn try_estimate(
        &self,
        relation: &str,
        column: &str,
        q: &RangeQuery,
    ) -> Result<f64, EstimateError> {
        self.try_estimate_with(relation, column, q, None)
            .map(|s| s.value)
    }

    /// Serve one estimate with full overload semantics: a batch of one
    /// through the pass [`ServingEngine::estimate_batch_with`] makes, so
    /// it shares every rule of the batch path and allocates nothing once
    /// the thread's snapshot entry is warm.
    pub fn try_estimate_with(
        &self,
        relation: &str,
        column: &str,
        q: &RangeQuery,
        deadline: Option<&Deadline>,
    ) -> Result<ServedEstimate, EstimateError> {
        let mut answer = None;
        self.serve(
            relation,
            column,
            std::slice::from_ref(q),
            deadline,
            |slot| answer = Some(slot),
        );
        answer.expect("one answer per query")
    }

    /// Serve a whole batch against one column, allocation-free once `out`
    /// has grown to the batch: the values of
    /// [`ServingEngine::estimate_batch_with`] without a deadline, written
    /// straight into `out`. Every answer is bit-identical to the
    /// sequential path whenever the engine is healthy, hit or miss.
    pub fn estimate_batch_into(
        &self,
        relation: &str,
        column: &str,
        queries: &[RangeQuery],
        scratch: &mut ServingScratch,
        out: &mut Vec<Result<f64, EstimateError>>,
    ) {
        let _ = scratch;
        out.clear();
        out.reserve(queries.len());
        self.serve(relation, column, queries, None, |slot| {
            out.push(slot.map(|s| s.value))
        });
    }

    /// Serve a whole batch with full overload semantics, in one pass.
    /// Invalid queries answer `InvalidQuery`; an already-expired
    /// `deadline` refuses every valid slot before any work. On a warm
    /// column each valid query is then probed, and a hit serves
    /// [`ServeRung::Full`]. On a cold one — whose last 1 024 probed
    /// queries all missed — the batch skips the cache: every valid query
    /// is a miss, counted in [`CacheStats::bypassed`], except in one batch
    /// of 16, which probes and fills to re-check; any hit makes the column
    /// warm again. The choice is made once per batch and never changes a
    /// served value, since the cache only holds what the miss path
    /// computed. The batch's first miss asks `route` for the rung that
    /// answers all its misses, and each miss ends one way:
    ///
    /// * a finite answer serves, tagged with the rung; in a probing batch
    ///   a primary answer fills the cache slot its probe read, so a query
    ///   repeated later in the batch hits;
    /// * once the deadline has expired — it is polled before the first
    ///   miss and every 16 misses — the miss is refused with
    ///   `DeadlineExceeded` (degrading it would hand back a worse answer
    ///   than the caller's budget asked for), while finished slots keep
    ///   their unhurried bits and later hits still serve;
    /// * a panic or a non-finite answer is answered by the floor.
    ///
    /// Only the primary charges the breaker: once per faulted slot, once
    /// for a timeout, otherwise a success.
    pub fn estimate_batch_with(
        &self,
        relation: &str,
        column: &str,
        queries: &[RangeQuery],
        deadline: Option<&Deadline>,
        scratch: &mut ServingScratch,
        out: &mut Vec<Result<ServedEstimate, EstimateError>>,
    ) {
        let _ = scratch;
        out.clear();
        out.reserve(queries.len());
        self.serve(relation, column, queries, deadline, |slot| out.push(slot));
    }

    /// The one serving path: refuse before any work (expired deadline,
    /// unknown column, admission), or make one [`BatchPass`] over
    /// `queries` — probing or bypassing the cache, as the column's
    /// [`CacheAdmission`] decides — handing each slot's answer to `emit`
    /// in input order.
    fn serve(
        &self,
        relation: &str,
        column: &str,
        queries: &[RangeQuery],
        deadline: Option<&Deadline>,
        mut emit: impl FnMut(Result<ServedEstimate, EstimateError>),
    ) {
        if let Some(d) = deadline.filter(|d| d.expired()) {
            let refused = refuse_all(queries, || EstimateError::deadline_exceeded(d), &mut emit);
            self.deadline_refused.fetch_add(refused, Ordering::Relaxed);
            return;
        }
        let snap = self.snapshot();
        let Some((idx, col)) = snap.find(relation, column) else {
            let err = Self::missing(relation, column);
            refuse_all(queries, || err.clone(), &mut emit);
            return;
        };
        let shard = shard_for(relation, column, self.shards());
        let _guard = match self.admit(shard) {
            Ok(g) => g,
            Err(e) => {
                refuse_all(queries, || e.clone(), &mut emit);
                return;
            }
        };
        let started = Instant::now();
        let state = &*snap.states[idx];
        let mut pass = BatchPass {
            engine: self,
            col,
            state,
            idx,
            generation: snap.generation,
            placement: self.cache.placement(&col.domain, idx),
            deadline,
            expired: None,
            rung: None,
            tally: CacheStats::default(),
            misses: 0,
            faulted: 0,
            refused: 0,
        };
        let probed = state.cache.probes();
        if probed {
            for q in queries {
                emit(pass.serve(q));
            }
        } else {
            for q in queries {
                emit(pass.bypass(q));
            }
        }
        pass.finish(probed);
        self.note_latency(shard, started);
    }

    /// Point-in-time engine health: serving generation and epoch, publish
    /// count, cache counters, the snapshot's catalog health, per-shard
    /// admission counters and pressure, the load tier, the per-rung
    /// serve counters and every column's breaker.
    pub fn health(&self) -> ServingHealthReport {
        let snap = self.snapshot();
        ServingHealthReport {
            generation: snap.generation(),
            epoch: self.epoch.load(Ordering::Acquire),
            publishes: self.publishes.load(Ordering::Relaxed),
            cache: self.cache.stats(),
            catalog: snap.health(),
            shards: self
                .shard_states
                .iter()
                .enumerate()
                .map(|(s, st)| ShardHealth {
                    shard: s,
                    admitted: st.admitted.load(Ordering::Relaxed),
                    rejected: st.rejected.load(Ordering::Relaxed),
                    in_flight: st.in_flight.load(Ordering::Acquire),
                    ewma_us: st.shed_ctl.ewma_us(),
                    pressure: st.shed_ctl.pressure(),
                    shed: st.shed_ctl.shed_count(),
                })
                .collect(),
            tier: self.tier.tier(),
            brownout_served: self.brownout_served.load(Ordering::Relaxed),
            floor_served: self.floor_served.load(Ordering::Relaxed),
            deadline_refused: self.deadline_refused.load(Ordering::Relaxed),
            breakers: snap
                .columns()
                .iter()
                .zip(&snap.states)
                .map(|(c, st)| BreakerHealth {
                    relation: c.relation().to_owned(),
                    column: c.column().to_owned(),
                    state: st.breaker.state(),
                    trips: st.breaker.trips(),
                })
                .collect(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::catalog::AnalyzeConfig;
    use crate::relation::{Column, Relation};

    fn test_relation() -> Arc<Relation> {
        let d = Domain::new(0.0, 1_000.0);
        let mut r = Relation::new("serve");
        for (name, phase) in [("a", 0.0), ("b", 1.0), ("c", 2.0), ("d", 3.0), ("e", 4.0)] {
            let values: Vec<f64> = (0..4_000)
                .map(|i| {
                    let t = (i as f64 + 0.5) / 4_000.0;
                    500.0 + 450.0 * (8.0 * t + phase).sin() * t.sqrt()
                })
                .collect();
            r.add_column(Column::new(name, d, values));
        }
        Arc::new(r)
    }

    fn queries(n: usize) -> Vec<RangeQuery> {
        let d = Domain::new(0.0, 1_000.0);
        (0..n)
            .map(|i| {
                let c = 1_000.0 * (i as f64 * 0.61803).fract();
                RangeQuery::centered(&d, c, 0.05 + 0.2 * (i as f64 * 0.317).fract())
            })
            .collect()
    }

    fn analyzed(relation: &Relation, kind: EstimatorKind) -> StatisticsCatalog {
        let mut cat = StatisticsCatalog::new();
        cat.try_analyze(
            relation,
            &AnalyzeConfig {
                kind,
                ..Default::default()
            },
        );
        cat
    }

    fn publish(engine: &ServingEngine, catalog: &StatisticsCatalog) -> u64 {
        engine.publish_snapshot(CatalogSnapshot::from_catalog_ref(catalog, 0))
    }

    #[test]
    fn empty_engine_serves_missing_statistics() {
        let engine = ServingEngine::with_defaults();
        assert_eq!(engine.snapshot().generation(), 0);
        let q = RangeQuery::new(0.0, 1.0);
        match engine.try_estimate("t", "x", &q) {
            Err(EstimateError::MissingStatistics { relation, column }) => {
                assert_eq!((relation.as_str(), column.as_str()), ("t", "x"));
            }
            other => panic!("expected MissingStatistics, got {other:?}"),
        }
        // The empty snapshot is generation 0 and nothing of it is cached.
        assert_eq!(engine.cache().stats().inserts, 0);
    }

    #[test]
    fn served_estimates_are_bit_identical_to_the_catalog_and_cache_hits_repeat_them() {
        let r = test_relation();
        let cat = analyzed(&r, EstimatorKind::Kernel);
        let reference: Vec<(String, Vec<f64>)> = r
            .columns()
            .iter()
            .map(|c| {
                let st = cat.statistics("serve", c.name()).unwrap();
                (
                    c.name().to_owned(),
                    queries(64)
                        .iter()
                        .map(|q| st.estimator.selectivity(q))
                        .collect(),
                )
            })
            .collect();
        let engine = ServingEngine::with_defaults();
        let generation = publish(&engine, &cat);
        assert_eq!(generation, 1);
        for pass in 0..2 {
            for (name, expect) in &reference {
                for (q, e) in queries(64).iter().zip(expect) {
                    let v = engine.try_estimate("serve", name, q).expect("serves");
                    assert_eq!(v.to_bits(), e.to_bits(), "pass {pass} column {name}");
                }
            }
        }
        // The second pass mostly hits; a direct-mapped cache may evict a
        // few same-pass colliders, which cost misses, never wrong values.
        let stats = engine.cache().stats();
        assert!(
            stats.hits >= 4 * 64,
            "second pass should mostly hit: {stats:?}"
        );
        assert!(stats.inserts >= 5 * 64);
    }

    #[test]
    fn batch_path_matches_single_path_and_reports_invalid_slots() {
        let r = test_relation();
        let engine = ServingEngine::with_defaults();
        publish(&engine, &analyzed(&r, EstimatorKind::MaxDiff));
        let mut qs = queries(32);
        qs[7] = RangeQuery::unchecked(5.0, 1.0);
        qs[20] = RangeQuery::unchecked(f64::NAN, 2.0);
        let mut scratch = ServingScratch::new();
        let mut out = Vec::new();
        // Twice: cold (all misses) then warm (all hits) must agree.
        for pass in 0..2 {
            engine.estimate_batch_into("serve", "c", &qs, &mut scratch, &mut out);
            assert_eq!(out.len(), qs.len());
            for (i, (slot, q)) in out.iter().zip(&qs).enumerate() {
                if i == 7 || i == 20 {
                    assert!(
                        matches!(slot, Err(EstimateError::InvalidQuery { .. })),
                        "pass {pass} slot {i}"
                    );
                } else {
                    let single = engine.try_estimate("serve", "c", q).unwrap();
                    assert_eq!(
                        slot.as_ref().unwrap().to_bits(),
                        single.to_bits(),
                        "pass {pass} slot {i}"
                    );
                }
            }
        }
    }

    #[test]
    fn publish_renumbers_generations_monotonically_and_invalidates_the_cache() {
        let r = test_relation();
        let engine = ServingEngine::with_defaults();
        publish(&engine, &analyzed(&r, EstimatorKind::EquiDepth));
        let q = queries(1)[0];
        let old = engine.try_estimate("serve", "a", &q).unwrap();
        let warm = engine.try_estimate("serve", "a", &q).unwrap();
        assert_eq!(old.to_bits(), warm.to_bits());
        // Publish a *different* estimator under a stale requested
        // generation: the engine renumbers past the current one, and the
        // very next read serves the new statistics — a cached entry from
        // the old snapshot can never answer again.
        let gen2 = engine.publish_snapshot(CatalogSnapshot::from_catalog_ref(
            &analyzed(&r, EstimatorKind::Uniform),
            1,
        ));
        assert_eq!(gen2, 2, "requested generation 1 must renumber to 2");
        let new = engine.try_estimate("serve", "a", &q).unwrap();
        let direct = analyzed(&r, EstimatorKind::Uniform)
            .statistics("serve", "a")
            .unwrap()
            .estimator
            .selectivity(&q);
        assert_eq!(new.to_bits(), direct.to_bits(), "never-stale");
        assert_ne!(
            new.to_bits(),
            old.to_bits(),
            "uniform differs from equi-depth"
        );
        assert_eq!(engine.snapshot().generation(), 2);
        assert_eq!(engine.health().publishes, 2);
    }

    #[test]
    fn admission_control_refuses_overload_and_recovers() {
        let r = test_relation();
        let engine = ServingEngine::new(ServingOptions {
            admission_limit: 2,
            ..Default::default()
        });
        publish(&engine, &analyzed(&r, EstimatorKind::Sampling));
        let shard = shard_for("serve", "a", engine.shards());
        let g1 = engine.admit(shard).expect("first");
        let g2 = engine.admit(shard).expect("second");
        match engine.admit(shard) {
            Err(EstimateError::Overloaded {
                shard: s,
                in_flight,
                limit,
                retry_after_us,
            }) => {
                assert_eq!(s, shard);
                assert_eq!(in_flight, 3);
                assert_eq!(limit, 2);
                // A fresh shard has no latency history: the hint is an
                // honest 0 ("retry immediately") rather than a made-up
                // drain time. With history it is priced from the EWMA —
                // see `adaptive_shedding_is_seeded_and_prices_retry_hints`.
                assert_eq!(retry_after_us, 0);
            }
            other => panic!("expected Overloaded, got {:?}", other.map(|_| ())),
        }
        drop(g1);
        drop(g2);
        // Guards released: the shard admits again and the counters add up.
        let q = queries(1)[0];
        assert!(engine.try_estimate("serve", "a", &q).is_ok());
        let health = engine.health();
        assert_eq!(health.shards[shard].rejected, 1);
        assert_eq!(health.shards[shard].in_flight, 0);
        assert!(health.shards[shard].admitted >= 3);
    }

    /// Assert `column` of `relation` has no serving entry and answers
    /// [`EstimateError::MissingStatistics`].
    fn assert_missing(engine: &ServingEngine, relation: &str, column: &str) {
        assert!(engine.snapshot().find(relation, column).is_none());
        match engine.try_estimate(relation, column, &RangeQuery::new(0.0, 50.0)) {
            Err(EstimateError::MissingStatistics { .. }) => {}
            other => panic!("{relation}.{column}: expected MissingStatistics, got {other:?}"),
        }
    }

    #[test]
    fn expired_deadline_columns_answer_missing_statistics() {
        // Every column the deadline abandons quarantines as
        // `TaskAbandoned`; with no earlier entry it does not serve.
        let r = test_relation();
        let engine = ServingEngine::new(ServingOptions {
            shards: 4,
            ..Default::default()
        });
        let expired = TryConfig::jobs(1).with_deadline(Deadline::already_expired());
        let mut cat = StatisticsCatalog::new();
        cat.try_analyze_with(&r, &AnalyzeConfig::default(), &expired);
        let snapshot = CatalogSnapshot::from_catalog_ref(&cat, 0);
        let health = snapshot.health();
        engine.publish_snapshot(snapshot);
        assert_eq!(health.entries, 0);
        assert_eq!(health.quarantined.len(), r.columns().len());
        for c in r.columns() {
            assert_missing(&engine, "serve", c.name());
        }
        for q in &health.quarantined {
            assert!(
                matches!(q.failure.error, EstimateError::TaskAbandoned { .. }),
                "{}: {:?}",
                q.column,
                q.failure.error
            );
        }
    }

    #[test]
    fn a_quarantined_column_without_an_earlier_entry_answers_missing_statistics() {
        let d = Domain::new(0.0, 100.0);
        let mut r = Relation::new("mixed");
        let clean: Vec<f64> = (0..500).map(|i| (i as f64 + 0.5) / 5.0).collect();
        r.add_column(Column::new("ok", d, clean));
        let garbage: Vec<f64> = (0..500).map(|_| f64::NAN).collect();
        r.add_column(Column::new_unchecked("poisoned", d, garbage));
        let engine = ServingEngine::with_defaults();
        let mut cat = StatisticsCatalog::new();
        cat.try_analyze_with(
            &r,
            &AnalyzeConfig {
                kind: EstimatorKind::Sampling,
                ..Default::default()
            },
            &TryConfig::jobs(1),
        );
        let snapshot = CatalogSnapshot::from_catalog_ref(&cat, 0);
        let health = snapshot.health();
        engine.publish_snapshot(snapshot);
        assert_eq!(health.entries, 1);
        assert_eq!(health.quarantined.len(), 1);
        assert_eq!(health.quarantined[0].column, "poisoned");
        assert_missing(&engine, "mixed", "poisoned");
        // The healthy column serves, and only it carries evidence.
        assert!(engine
            .try_estimate("mixed", "ok", &RangeQuery::new(0.0, 50.0))
            .is_ok());
        assert_eq!(cat.export().len(), 1);
    }

    #[test]
    fn a_failed_reanalyze_keeps_serving_the_earlier_entry_once() {
        let d = Domain::new(0.0, 100.0);
        let mut r = Relation::new("t");
        let values: Vec<f64> = (0..500).map(|i| (i as f64 + 0.5) / 5.0).collect();
        r.add_column(Column::new("v", d, values));
        let mut cat = StatisticsCatalog::new();
        let cfg = AnalyzeConfig {
            kind: EstimatorKind::EquiDepth,
            ..Default::default()
        };
        assert!(cat.try_analyze(&r, &cfg).is_healthy());
        let failed = AnalyzeConfig {
            sample_size: 0,
            ..cfg
        };
        assert_eq!(cat.try_analyze(&r, &failed).quarantined.len(), 1);
        let snap = CatalogSnapshot::from_catalog_ref(&cat, 1);
        assert_eq!(snap.len(), 1, "one column, one serving entry");
        let (_, col) = snap.find("t", "v").expect("served");
        assert_eq!(col.kind(), EstimatorKind::EquiDepth);
        assert_eq!(snap.health().quarantined.len(), 1);
    }

    #[test]
    fn cache_slot_collisions_cost_misses_never_wrong_values() {
        // A 2-slot cache under 64 distinct queries: constant eviction,
        // but every probe that hits must return the exact value.
        let d = Domain::new(0.0, 1_000.0);
        let cache = EstimateCache::new(1, 16);
        assert_eq!(cache.slots(), 2);
        let qs = queries(64);
        let mut tally = CacheStats::default();
        for round in 0..3 {
            for (i, q) in qs.iter().enumerate() {
                let truth = q.width() / d.width();
                let slot = cache.placement(&d, i).slot(q);
                if let Some(v) = cache.probe(slot, 7, i, q, &mut tally) {
                    assert_eq!(v.to_bits(), truth.to_bits(), "round {round} query {i}");
                }
                cache.fill(slot, 7, i, q, truth, &mut tally);
            }
        }
        cache.count(tally);
        let stats = cache.stats();
        assert!(stats.inserts > 0);
        assert!(stats.misses > 0, "2 slots cannot hold 64 queries");
        // Memory is bounded by construction: the slot array never grows.
        assert_eq!(cache.slots(), 2);
    }

    #[test]
    fn placement_cells_are_coarse_and_clamp_to_the_domain_edges() {
        let d = Domain::new(0.0, 100.0);
        let q = RangeQuery::new(10.0, 30.0);
        let nudged = RangeQuery::new(f64::from_bits(10.0f64.to_bits() + 1), 30.0);
        assert_eq!(q.bounds_bits(), RangeQuery::new(10.0, 30.0).bounds_bits());
        assert_ne!(q.bounds_bits(), nudged.bounds_bits());
        for bits in [1, 8, 16, 32] {
            let cache = EstimateCache::new(12, bits);
            let at = cache.placement(&d, 3);
            // Equal queries share a slot, and the 1-ulp nudge stays in
            // its cell: placement is coarse, identity is exact.
            assert_eq!(at.slot(&q), at.slot(&RangeQuery::new(10.0, 30.0)));
            assert_eq!(at.key(&q), at.key(&nudged));
            // Bounds on or beyond the edges clamp to the edge cells.
            let last = (1u64 << bits) - 1;
            let k = at.key(&RangeQuery::new(100.0, 100.0));
            assert_eq!((k >> bits, k & last), (last, last), "{bits} bits");
            let k = at.key(&RangeQuery::new(-50.0, 250.0));
            assert_eq!((k >> bits, k & last), (0, last), "{bits} bits");
        }
        // Distinct ranges separate once the grid is fine enough.
        let at = EstimateCache::new(12, 8).placement(&d, 3);
        assert_ne!(at.key(&q), at.key(&RangeQuery::new(60.0, 90.0)));
        // A domain too wide for an f64 width puts every bound in cell 0.
        let huge = EstimateCache::new(12, 16).placement(&Domain::new(-f64::MAX, f64::MAX), 0);
        assert_eq!(huge.key(&RangeQuery::new(-1.0, 9.0)), 0);
    }

    #[test]
    #[should_panic(expected = "1..=32 quantize bits")]
    fn estimate_cache_rejects_oversized_grids() {
        let _ = EstimateCache::new(12, 33);
    }

    #[test]
    fn placement_spreads_equal_cells_of_different_columns() {
        // serve-hot's shape: affine copies of one column put the same
        // queries into the same grid cells. 512 distinct queries through
        // 8 such columns are 4 096 probes into 4 096 slots, which a
        // uniform hash spreads over 4096·(1 − 1/e) ≈ 2 589 slots. A mix
        // that ignored the column index would occupy at most 512.
        let cache = EstimateCache::new(12, 16);
        let cells = 1u64 << 16;
        let cell_queries: Vec<(u64, u64)> = (0..512u64)
            .map(|i| {
                let a = 37 * i % (cells / 2);
                (a, a + 1 + crate::overload::splitmix64(i) % (cells / 2 - 1))
            })
            .collect();
        let mut occupied = vec![false; cache.slots()];
        for c in 0..8usize {
            let (lo, width) = (-300.0 + 170.0 * c as f64, 250.0 * (1 + c % 3) as f64);
            let d = Domain::new(lo, lo + width);
            let at = cache.placement(&d, c);
            let mid = |cell: u64| lo + (cell as f64 + 0.5) * width / cells as f64;
            for &(a, b) in &cell_queries {
                let q = RangeQuery::new(mid(a), mid(b));
                assert_eq!(at.key(&q), (a << 16) | b, "column {c}: equal cells");
                occupied[at.slot(&q)] = true;
            }
        }
        let occupied = occupied.iter().filter(|&&o| o).count();
        let uniform = 4096.0 * (1.0 - (-1.0f64).exp());
        assert!(
            occupied as f64 >= 0.95 * uniform,
            "{occupied} of 4096 slots occupied, uniform expects {uniform:.0}"
        );
    }

    #[test]
    fn cache_counters_are_exact_after_concurrent_batches() {
        let r = test_relation();
        let engine = ServingEngine::with_defaults();
        publish(&engine, &analyzed(&r, EstimatorKind::MaxDiff));
        // Each batch mixes 16 repeats from a hot pool, 16 fresh queries
        // and one invalid slot; both threads serve the same batches.
        let pool = queries(16 + 16 * 40);
        let (hot, fresh) = pool.split_at(16);
        let batches: Vec<Vec<RangeQuery>> = fresh
            .chunks(16)
            .map(|chunk| {
                let mut batch: Vec<RangeQuery> = hot.iter().chain(chunk).copied().collect();
                batch.push(RangeQuery::unchecked(2.0, 1.0));
                batch
            })
            .collect();
        let served: u64 = std::thread::scope(|s| {
            let serve = || {
                let (mut scratch, mut out) = (ServingScratch::new(), Vec::new());
                let mut ok = 0u64;
                for (k, batch) in batches.iter().enumerate() {
                    let column = ["a", "b"][k % 2];
                    engine.estimate_batch_into("serve", column, batch, &mut scratch, &mut out);
                    ok += out.iter().filter(|v| v.is_ok()).count() as u64;
                }
                ok
            };
            let threads = [s.spawn(serve), s.spawn(serve)];
            threads.map(|t| t.join().expect("client")).iter().sum()
        });
        let valid = 2 * batches.len() as u64 * 32;
        assert_eq!(served, valid, "every valid slot serves");
        let health = engine.health();
        assert_eq!(
            (
                health.floor_served,
                health.brownout_served,
                health.deadline_refused
            ),
            (0, 0, 0),
            "every miss is a full-rung fill"
        );
        let stats = health.cache;
        assert_eq!(stats.hits + stats.misses, valid, "{stats:?}");
        assert_eq!(stats.inserts + stats.conflicts, stats.misses, "{stats:?}");
        assert!(stats.hits > 0 && stats.misses > 0, "{stats:?}");

        // Replay one batch of distinct queries on a fresh engine whose
        // cache dwarfs it: the second pass hits every slot the first
        // filled, so each fill landed in the slot its probe read.
        let engine = ServingEngine::new(ServingOptions {
            cache_bits: 16,
            quantize_bits: 32,
            ..Default::default()
        });
        publish(&engine, &analyzed(&r, EstimatorKind::MaxDiff));
        let batch = &fresh[..64];
        let (mut scratch, mut out) = (ServingScratch::new(), Vec::new());
        engine.estimate_batch_into("serve", "b", batch, &mut scratch, &mut out);
        let first = engine.cache().stats();
        assert_eq!((first.hits, first.misses), (0, 64));
        engine.estimate_batch_into("serve", "b", batch, &mut scratch, &mut out);
        let second = engine.cache().stats();
        assert_eq!(second.hits, first.inserts);
        assert_eq!(second.misses, first.misses);
    }

    #[test]
    fn durable_round_trip_correlates_serving_and_durable_generations() {
        let dir = std::env::temp_dir().join(format!("selest-serving-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let (mut store, _) = DurableStore::open(&dir).expect("open");
        let r = test_relation();
        let engine = ServingEngine::with_defaults();
        let cat = analyzed(&r, EstimatorKind::EquiWidth);
        publish(&engine, &cat);
        let durable_gen = cat.publish_to(&mut store).expect("publish");
        assert_eq!(durable_gen, store.active_generation());
        // A fresh engine loading the store serves under the durable
        // generation number and bit-identical statistics.
        let engine2 = ServingEngine::with_defaults();
        let (serving_gen, failures) = engine2.load_durable(&store);
        assert!(failures.is_empty());
        assert_eq!(serving_gen, durable_gen);
        assert_eq!(engine2.snapshot().generation(), durable_gen);
        for q in queries(16) {
            assert_eq!(
                engine2.try_estimate("serve", "b", &q).unwrap().to_bits(),
                engine.try_estimate("serve", "b", &q).unwrap().to_bits()
            );
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn republish_if_stale_refreshes_and_bumps_the_generation_only_under_debt() {
        let r = test_relation();
        let mut cat = StatisticsCatalog::new();
        let health = cat.try_analyze_incremental(
            &r,
            &AnalyzeConfig {
                kind: EstimatorKind::EquiDepth,
                ..Default::default()
            },
            &TryConfig::jobs(1),
        );
        assert!(health.is_healthy());
        let engine = ServingEngine::with_defaults();
        engine.publish_snapshot(CatalogSnapshot::from_catalog_ref(&cat, 0));
        assert_eq!(engine.snapshot().generation(), 1);

        // Fresh catalog: the sweep is a no-op and the generation holds.
        let policy = StalenessPolicy::default();
        assert!(engine
            .republish_if_stale(&mut cat, &policy, &TryConfig::jobs(1))
            .is_none());
        assert_eq!(engine.snapshot().generation(), 1);

        // Pour a heavy skewed batch into one column: mass concentrated in
        // [900, 1000) that the analyze-time estimator has barely seen.
        let q = RangeQuery::new(900.0, 1_000.0);
        let before = engine.try_estimate("serve", "a", &q).unwrap();
        let deltas = vec![crate::catalog::ColumnDelta {
            column: "a".into(),
            inserts: (0..6_000)
                .map(|i| 900.0 + 100.0 * ((i as f64) * 0.618_033_988_749).fract())
                .collect(),
            deletes: Vec::new(),
        }];
        let report = cat.try_apply_updates("serve", &deltas, &TryConfig::jobs(1));
        assert_eq!(report.applied.len(), 1);

        // The sweep now refreshes the column through the bulkhead and
        // republishes an epoch snapshot under a bumped generation.
        let stale = engine
            .republish_if_stale(&mut cat, &policy, &TryConfig::jobs(1))
            .expect("update debt must force a republish");
        assert_eq!(stale.generation, 2);
        assert_eq!(engine.snapshot().generation(), 2);
        assert_eq!(stale.refresh.refreshed.len(), 1);
        assert_eq!(
            stale.refresh.refreshed[0],
            (
                "serve".to_owned(),
                "a".to_owned(),
                crate::staleness::StalenessReason::UpdateVolume
            )
        );

        // Served estimates see the new mass (cache slots from generation 1
        // can no longer answer) and stay bit-identical to the catalog.
        let after = engine.try_estimate("serve", "a", &q).unwrap();
        assert!(
            after > before + 0.2,
            "estimate must reflect the skewed batch: {before} -> {after}"
        );
        let direct = cat
            .statistics("serve", "a")
            .unwrap()
            .estimator
            .selectivity(&q);
        assert_eq!(after.to_bits(), direct.to_bits());

        // Debt is settled: the next sweep is a no-op again.
        assert!(engine
            .republish_if_stale(&mut cat, &policy, &TryConfig::jobs(1))
            .is_none());
        assert_eq!(engine.snapshot().generation(), 2);
    }

    use crate::faultinject::{FailingEstimator, FailureMode};

    /// An engine whose overload machinery is test-scripted: no wall-clock
    /// latency observation, tight breaker.
    fn scripted_engine() -> ServingEngine {
        ServingEngine::new(ServingOptions {
            overload: OverloadOptions {
                slo_us: 5_000.0,
                auto_observe: false,
                breaker_threshold: 3,
                breaker_cooldown_calls: 2,
                ..Default::default()
            },
            ..Default::default()
        })
    }

    /// The counter identity of the serving path: every valid slot is
    /// counted exactly once — as a full-precision answer (tagged `Full`,
    /// counted by the caller), or in `brownout_served`, `floor_served` or
    /// `deadline_refused`.
    fn assert_counted_once(engine: &ServingEngine, full: u64, valid: u64) {
        let h = engine.health();
        assert_eq!(
            full + h.brownout_served + h.floor_served + h.deadline_refused,
            valid,
            "full {full}, brownout {}, floor {}, refused {}",
            h.brownout_served,
            h.floor_served,
            h.deadline_refused
        );
    }

    /// How many answered slots of a batch carry `rung`.
    fn tagged(served: &[Result<ServedEstimate, EstimateError>], rung: ServeRung) -> u64 {
        served
            .iter()
            .filter(|s| s.as_ref().is_ok_and(|s| s.rung == rung))
            .count() as u64
    }

    #[test]
    fn route_decides_brownout_before_the_breaker() {
        let breaker = ColumnBreaker::new(1, 1_000, 7);
        assert_eq!(route(LoadTier::Normal, true, &breaker), ServeRung::Full);
        assert_eq!(route(LoadTier::Brownout, false, &breaker), ServeRung::Full);
        breaker.on_failure();
        assert_eq!(breaker.state(), BreakerState::Open);
        assert_eq!(route(LoadTier::Normal, true, &breaker), ServeRung::Floor);
        // Off `Normal`, a column with a brownout rung serves it even while
        // its breaker is open: the primary is not in the decision at all.
        assert_eq!(
            route(LoadTier::Brownout, true, &breaker),
            ServeRung::Brownout
        );
    }

    #[test]
    fn non_finite_brownout_answers_floor_and_counts_once_on_both_paths() {
        let engine = scripted_engine();
        let d = Domain::new(0.0, 100.0);
        let mut col = ServingColumn::new(
            "t",
            "k",
            Arc::new(UniformEstimator::new(d)),
            1_000,
            EstimatorKind::Kernel,
            d,
            Vec::new().into(),
        );
        col.brownout = Some(Arc::new(FailingEstimator::new(
            d,
            FailureMode::Return(f64::NAN),
        )));
        engine.publish_snapshot(CatalogSnapshot::from_columns(vec![col], 0));
        let shard = shard_for("t", "k", engine.shards());
        engine.observe_shard_latency(shard, 1.5 * engine.overload.slo_us);
        assert_eq!(engine.tier.tier(), LoadTier::Brownout);
        let uniform = UniformEstimator::new(d);
        let q = RangeQuery::new(10.0, 30.0);
        let s = engine.try_estimate_with("t", "k", &q, None).unwrap();
        assert_eq!(s.rung, ServeRung::Floor);
        assert_eq!(s.value.to_bits(), uniform.selectivity(&q).to_bits());
        assert_counted_once(&engine, 0, 1);
        let qs: Vec<RangeQuery> = (0..8)
            .map(|i| RangeQuery::new(i as f64, i as f64 + 40.0))
            .collect();
        let mut served = Vec::new();
        engine.estimate_batch_with("t", "k", &qs, None, &mut ServingScratch::new(), &mut served);
        assert_eq!(tagged(&served, ServeRung::Floor), 8);
        let h = engine.health();
        assert_eq!((h.brownout_served, h.floor_served), (0, 9));
        assert_counted_once(&engine, 0, 9);
    }

    fn failing_snapshot(mode: FailureMode) -> (CatalogSnapshot, Domain) {
        let d = Domain::new(0.0, 100.0);
        let col = ServingColumn::new(
            "t",
            "bad",
            Arc::new(FailingEstimator::new(d, mode)),
            1_000,
            EstimatorKind::Sampling,
            d,
            Vec::new().into(),
        );
        (CatalogSnapshot::from_columns(vec![col], 0), d)
    }

    #[test]
    fn breaker_trips_to_the_floor_probes_half_open_and_recovers() {
        let run = || {
            let engine = scripted_engine();
            // Fails its first 3 calls, then serves forever: enough to
            // trip the threshold-3 breaker exactly once.
            let (snap, d) = failing_snapshot(FailureMode::FailFirst(3));
            engine.publish_snapshot(snap);
            let uniform = UniformEstimator::new(d);
            let mut rungs = Vec::new();
            let qs: Vec<RangeQuery> = (0..8)
                .map(|i| RangeQuery::new(i as f64, i as f64 + 10.0))
                .collect();
            for q in &qs {
                let s = engine.try_estimate_with("t", "bad", q, None).unwrap();
                rungs.push(s.rung);
                if s.rung == ServeRung::Floor {
                    assert_eq!(s.value.to_bits(), uniform.selectivity(q).to_bits());
                }
            }
            // Calls 1-3 fail (floored, breaker trips on the 3rd); call 4
            // is inside the cooldown (floor, primary untouched); call 5
            // is the half-open probe, which succeeds and closes; 6-8 are
            // healthy primaries.
            assert_eq!(
                rungs,
                vec![
                    ServeRung::Floor,
                    ServeRung::Floor,
                    ServeRung::Floor,
                    ServeRung::Floor,
                    ServeRung::Full,
                    ServeRung::Full,
                    ServeRung::Full,
                    ServeRung::Full,
                ]
            );
            let health = engine.health();
            assert_eq!(health.breakers.len(), 1);
            assert_eq!(health.breakers[0].state, BreakerState::Closed);
            assert_eq!(health.breakers[0].trips, 1);
            assert_eq!(health.floor_served, 4);
            assert_counted_once(&engine, 4, 8);
            // The closed breaker lets a batch through to the primary.
            let mut served = Vec::new();
            let mut scratch = ServingScratch::new();
            engine.estimate_batch_with("t", "bad", &qs, None, &mut scratch, &mut served);
            assert_eq!(tagged(&served, ServeRung::Full), 8);
            assert_counted_once(&engine, 12, 16);
            rungs
        };
        // Breaker transitions are counted in calls, not wall time: two
        // identical runs replay the exact same trajectory.
        assert_eq!(run(), run());
    }

    #[test]
    fn open_breaker_never_consults_the_primary() {
        let engine = scripted_engine();
        let (snap, _) = failing_snapshot(FailureMode::PanicAlways);
        engine.publish_snapshot(snap);
        let qs: Vec<RangeQuery> = (0..6)
            .map(|i| RangeQuery::new(i as f64, i as f64 + 5.0))
            .collect();
        for q in &qs[..3] {
            let s = engine.try_estimate_with("t", "bad", q, None).unwrap();
            assert_eq!(s.rung, ServeRung::Floor);
        }
        assert_eq!(engine.health().breakers[0].state, BreakerState::Open);
        // While open (inside the cooldown), the next call is floored
        // without touching the panicking primary — if it were consulted,
        // `catch_fault` would still floor the answer, but the breaker
        // would re-trip early; the trip count below pins the schedule.
        let s = engine.try_estimate_with("t", "bad", &qs[3], None).unwrap();
        assert_eq!(s.rung, ServeRung::Floor);
        // The probe after the cooldown fails and re-opens with a doubled
        // backoff; the breaker keeps absorbing forever after.
        for q in &qs[4..] {
            let s = engine.try_estimate_with("t", "bad", q, None).unwrap();
            assert_eq!(s.rung, ServeRung::Floor);
        }
        let health = engine.health();
        assert!(health.breakers[0].trips >= 2, "probe failure must re-trip");
        assert_eq!(health.shards.iter().map(|s| s.in_flight).sum::<usize>(), 0);
        assert_counted_once(&engine, 0, 6);
        // The batch path floors every slot the same way.
        let mut served = Vec::new();
        engine.estimate_batch_with(
            "t",
            "bad",
            &qs,
            None,
            &mut ServingScratch::new(),
            &mut served,
        );
        assert_eq!(tagged(&served, ServeRung::Floor), 6);
        assert_counted_once(&engine, 0, 12);
    }

    #[test]
    fn brownout_routes_misses_to_the_cheap_rung_and_recovers() {
        let r = test_relation();
        let engine = scripted_engine();
        publish(&engine, &analyzed(&r, EstimatorKind::Kernel));
        let shard = shard_for("serve", "a", engine.shards());
        let qs = queries(8);
        let (q_hit, q_miss) = (qs[0], qs[1]);
        // Warm the cache with one full-precision answer.
        let full_hit = engine
            .try_estimate_with("serve", "a", &q_hit, None)
            .unwrap();
        assert_eq!(full_hit.rung, ServeRung::Full);
        // Scripted pressure 1.5: above brownout_enter, below shed_enter.
        engine.observe_shard_latency(shard, 1.5 * engine.overload.slo_us);
        assert_eq!(engine.tier.tier(), LoadTier::Brownout);
        // Cache hits still serve full precision…
        let hit = engine
            .try_estimate_with("serve", "a", &q_hit, None)
            .unwrap();
        assert_eq!(hit.rung, ServeRung::Full);
        assert_eq!(hit.value.to_bits(), full_hit.value.to_bits());
        // …while misses go to the cheap rung, bit-identical to calling
        // the rung directly, and are never cached.
        let snap = engine.snapshot();
        let (_, col) = snap.find("serve", "a").unwrap();
        let rung_direct = col.brownout_rung().expect("kernel has a rung");
        let inserts_before = engine.cache().stats().inserts;
        for _ in 0..2 {
            let miss = engine
                .try_estimate_with("serve", "a", &q_miss, None)
                .unwrap();
            assert_eq!(miss.rung, ServeRung::Brownout);
            assert_eq!(
                miss.value.to_bits(),
                rung_direct.selectivity(&q_miss).to_bits()
            );
        }
        assert_eq!(engine.cache().stats().inserts, inserts_before);
        assert_eq!(engine.health().brownout_served, 2);
        assert_counted_once(&engine, 2, 4);
        // The batch path agrees slot for slot.
        let mut scratch = ServingScratch::new();
        let mut served = Vec::new();
        engine.estimate_batch_with("serve", "a", &qs, None, &mut scratch, &mut served);
        assert_counted_once(&engine, 2 + tagged(&served, ServeRung::Full), 4 + 8);
        for (q, slot) in qs.iter().zip(&served) {
            let s = slot.as_ref().unwrap();
            if q.bounds_bits() == q_hit.bounds_bits() {
                assert_eq!(s.rung, ServeRung::Full);
            } else {
                assert_eq!(s.rung, ServeRung::Brownout);
                assert_eq!(s.value.to_bits(), rung_direct.selectivity(q).to_bits());
            }
        }
        // Pressure drains: the tier exits brownout (hysteresis at 0.7)
        // and misses return to the full-precision primary.
        for _ in 0..50 {
            engine.observe_shard_latency(shard, 0.05 * engine.overload.slo_us);
        }
        assert_eq!(engine.tier.tier(), LoadTier::Normal);
        let back = engine
            .try_estimate_with("serve", "a", &q_miss, None)
            .unwrap();
        assert_eq!(back.rung, ServeRung::Full);
        assert_eq!(
            back.value.to_bits(),
            col.estimator.selectivity(&q_miss).to_bits()
        );
    }

    #[test]
    fn deadlines_refuse_typed_before_any_work() {
        let r = test_relation();
        let engine = scripted_engine();
        publish(&engine, &analyzed(&r, EstimatorKind::MaxDiff));
        let qs = {
            let mut qs = queries(6);
            qs[2] = RangeQuery::unchecked(9.0, 1.0);
            qs
        };
        let d = Deadline::already_expired();
        match engine.try_estimate_with("serve", "b", &qs[0], Some(&d)) {
            Err(EstimateError::DeadlineExceeded { budget_us, .. }) => {
                assert_eq!(budget_us, 0)
            }
            other => panic!("expected DeadlineExceeded, got {other:?}"),
        }
        let mut scratch = ServingScratch::new();
        let mut served = Vec::new();
        engine.estimate_batch_with("serve", "b", &qs, Some(&d), &mut scratch, &mut served);
        for (i, slot) in served.iter().enumerate() {
            if i == 2 {
                assert!(matches!(slot, Err(EstimateError::InvalidQuery { .. })));
            } else {
                assert!(
                    matches!(slot, Err(EstimateError::DeadlineExceeded { .. })),
                    "slot {i}: {slot:?}"
                );
            }
        }
        assert_eq!(engine.health().deadline_refused, 6);
        assert_counted_once(&engine, 0, 6);
        // An unexpired deadline is bit-transparent.
        let live = Deadline::after(std::time::Duration::from_secs(3_600));
        let mut served_live = Vec::new();
        engine.estimate_batch_with(
            "serve",
            "b",
            &qs,
            Some(&live),
            &mut scratch,
            &mut served_live,
        );
        for (i, slot) in served_live.iter().enumerate() {
            if i == 2 {
                continue;
            }
            let s = slot.as_ref().unwrap();
            assert_eq!(s.rung, ServeRung::Full);
            let single = engine.try_estimate("serve", "b", &qs[i]).unwrap();
            assert_eq!(s.value.to_bits(), single.to_bits(), "slot {i}");
        }
    }

    /// A uniform primary that expires `deadline` during its `expire_on`-th
    /// call (counting from 1), then keeps answering.
    struct ExpiringPrimary {
        inner: UniformEstimator,
        calls: AtomicUsize,
        expire_on: usize,
        deadline: Deadline,
    }

    impl SelectivityEstimator for ExpiringPrimary {
        fn selectivity(&self, q: &RangeQuery) -> f64 {
            if self.calls.fetch_add(1, Ordering::Relaxed) + 1 == self.expire_on {
                self.deadline.expire();
            }
            self.inner.selectivity(q)
        }
        fn domain(&self) -> Domain {
            self.inner.domain()
        }
        fn name(&self) -> String {
            "ExpiringPrimary".into()
        }
    }

    #[test]
    fn deadline_is_polled_every_16_misses_while_hits_keep_serving() {
        let d = Domain::new(0.0, 100.0);
        let uniform = UniformEstimator::new(d);
        let deadline = Deadline::never();
        // 16 hot queries warm the cache (16 primary calls); the primary
        // then expires the deadline during the 20th miss of the batch.
        let primary = Arc::new(ExpiringPrimary {
            inner: UniformEstimator::new(d),
            calls: AtomicUsize::new(0),
            expire_on: 16 + 20,
            deadline: deadline.clone(),
        });
        let engine = ServingEngine::new(ServingOptions {
            cache_bits: 16,
            quantize_bits: 32,
            overload: OverloadOptions {
                auto_observe: false,
                breaker_threshold: 2,
                ..Default::default()
            },
            ..Default::default()
        });
        let col = ServingColumn::new(
            "t",
            "v",
            Arc::clone(&primary) as Arc<dyn SelectivityEstimator + Send + Sync>,
            1_000,
            EstimatorKind::Sampling,
            d,
            Vec::new().into(),
        );
        engine.publish_snapshot(CatalogSnapshot::from_columns(vec![col], 0));
        let hot: Vec<RangeQuery> = (0..16)
            .map(|i| RangeQuery::new(i as f64, 50.0 + i as f64))
            .collect();
        let mut scratch = ServingScratch::new();
        let mut served = Vec::new();
        engine.estimate_batch_with("t", "v", &hot, None, &mut scratch, &mut served);
        assert_eq!(primary.calls.load(Ordering::Relaxed), 16);
        // 48 distinct misses with a hot query after every third one.
        let mut batch = Vec::new();
        let mut miss_no = Vec::new();
        for i in 0..48 {
            batch.push(RangeQuery::new(0.5 + i as f64, 60.25 + i as f64));
            miss_no.push(Some(i + 1));
            if i % 3 == 2 {
                batch.push(hot[i / 3]);
                miss_no.push(None);
            }
        }
        let before = engine.cache().stats();
        engine.estimate_batch_with("t", "v", &batch, Some(&deadline), &mut scratch, &mut served);
        assert!(deadline.expired());
        // Polls before misses 1, 17 and 33: the expiry during miss 20 is
        // seen at the third poll, so misses 1-32 are answered.
        assert_eq!(primary.calls.load(Ordering::Relaxed), 16 + 32);
        let mut refused = 0;
        for ((q, slot), miss) in batch.iter().zip(&served).zip(&miss_no) {
            let label = format!("{q} miss {miss:?}");
            match (miss, slot) {
                (Some(m), Err(EstimateError::DeadlineExceeded { .. })) if *m > 32 => refused += 1,
                (_, Ok(s)) if miss.is_none_or(|m| m <= 32) => {
                    assert_eq!(s.rung, ServeRung::Full, "{label}");
                    assert_eq!(
                        s.value.to_bits(),
                        uniform.selectivity(q).to_bits(),
                        "{label}"
                    );
                }
                other => panic!("{label}: {other:?}"),
            }
        }
        assert_eq!(refused, 16);
        let stats = engine.cache().stats();
        assert_eq!(
            (stats.hits - before.hits, stats.misses - before.misses),
            (16, 48),
            "every hot query hits, the six after the expiry included"
        );
        assert_eq!(stats.inserts - before.inserts, 32);
        assert_eq!(engine.health().deadline_refused, refused);
        assert_counted_once(&engine, 16 + 32 + 16, 16 + 48 + 16);
        // The timeout charged the threshold-2 breaker once: still closed,
        // and one more failure opens it.
        let snap = engine.snapshot();
        let breaker = &snap.states[0].breaker;
        assert_eq!(breaker.state(), BreakerState::Closed);
        breaker.on_failure();
        assert_eq!(breaker.state(), BreakerState::Open);
    }

    #[test]
    fn adaptive_shedding_is_seeded_and_prices_retry_hints() {
        let run = || {
            let engine = ServingEngine::new(ServingOptions {
                admission_limit: 4,
                overload: OverloadOptions {
                    slo_us: 5_000.0,
                    auto_observe: false,
                    ..Default::default()
                },
                ..Default::default()
            });
            let r = test_relation();
            publish(&engine, &analyzed(&r, EstimatorKind::Sampling));
            let shard = shard_for("serve", "a", engine.shards());
            // Scripted pressure 1.8 and a half-occupied shard: shed
            // probability (1.8 - 1) * (2/4) = 0.4 per arrival.
            engine.observe_shard_latency(shard, 1.8 * engine.overload.slo_us);
            let _g1 = engine.admit(shard).unwrap();
            let _g2 = engine.admit(shard).unwrap();
            let mut outcomes = Vec::new();
            let mut hints = Vec::new();
            for _ in 0..64 {
                match engine.admit(shard) {
                    Ok(g) => {
                        outcomes.push(true);
                        drop(g);
                    }
                    Err(EstimateError::Overloaded { retry_after_us, .. }) => {
                        assert!(retry_after_us >= 50, "hint is clamped positive");
                        hints.push(retry_after_us);
                        outcomes.push(false);
                    }
                    Err(other) => panic!("unexpected {other:?}"),
                }
            }
            let shed = outcomes.iter().filter(|o| !**o).count();
            assert!(shed > 0, "pressure 1.8 at half occupancy must shed");
            assert!(shed < 64, "shedding is probabilistic, not a wall");
            let health = engine.health();
            assert_eq!(health.shards[shard].shed as usize, shed);
            assert_eq!(health.shards[shard].rejected as usize, shed);
            assert!(health.shards[shard].pressure > 1.7);
            (outcomes, hints)
        };
        // Same seed, same trajectory: the shed pattern and every retry
        // hint replay exactly.
        assert_eq!(run(), run());
    }

    #[test]
    fn in_flight_returns_to_zero_on_every_outcome() {
        let drained = |engine: &ServingEngine| {
            engine
                .health()
                .shards
                .iter()
                .map(|s| s.in_flight)
                .sum::<usize>()
        };
        let r = test_relation();
        let engine = ServingEngine::new(ServingOptions {
            admission_limit: 2,
            ..Default::default()
        });
        publish(&engine, &analyzed(&r, EstimatorKind::Sampling));
        let q = queries(1)[0];
        // Success, then a cache hit.
        engine.try_estimate("serve", "a", &q).unwrap();
        engine.try_estimate("serve", "a", &q).unwrap();
        assert_eq!(drained(&engine), 0);
        // Invalid query and missing column refuse before admission.
        let bad = RangeQuery::unchecked(7.0, 3.0);
        assert!(engine.try_estimate("serve", "a", &bad).is_err());
        assert!(engine.try_estimate("serve", "zzz", &q).is_err());
        assert_eq!(drained(&engine), 0);
        // A hard-limit refusal leaves no residue once the holders drop.
        let shard = shard_for("serve", "a", engine.shards());
        let g1 = engine.admit(shard).unwrap();
        let g2 = engine.admit(shard).unwrap();
        assert!(matches!(
            engine.try_estimate("serve", "a", &queries(3)[2]),
            Err(EstimateError::Overloaded { .. })
        ));
        drop(g1);
        drop(g2);
        assert_eq!(drained(&engine), 0);
        // A panicking primary is absorbed to the floor — and the guard
        // still drains.
        let bad_engine = scripted_engine();
        let (snap, _) = failing_snapshot(FailureMode::PanicAlways);
        bad_engine.publish_snapshot(snap);
        let s = bad_engine.try_estimate_with("t", "bad", &q, None).unwrap();
        assert_eq!(s.rung, ServeRung::Floor);
        let mut scratch = ServingScratch::new();
        let mut out = Vec::new();
        bad_engine.estimate_batch_into("t", "bad", &queries(4), &mut scratch, &mut out);
        assert!(out.iter().all(|s| s.is_ok()));
        assert_eq!(drained(&bad_engine), 0);
        // A panic unwinding *through* a held guard still decrements: the
        // guard's Drop runs during unwind.
        let before = drained(&engine);
        assert_eq!(before, 0);
        let guard = engine.admit(shard).unwrap();
        let unwound = std::panic::catch_unwind(std::panic::AssertUnwindSafe(move || {
            let _held = guard;
            panic!("unwind through the admission guard");
        }));
        assert!(unwound.is_err());
        assert_eq!(drained(&engine), 0);
    }
}
