//! `ingest-mixed`: one writer and one reader share the serving layer.
//!
//! Two incrementally analyzed equi-depth columns, n(20) and u(20). Each
//! writer batch applies, per column, 512 inserts drawn from the column's
//! own rows and 64 deletes of the oldest live rows through
//! `try_apply_updates`, then lets `republish_if_stale` (default policy)
//! decide whether to refresh and republish; every 16th batch appends a
//! feedback observation to the durable journal. The reader sends
//! 256-query batches the whole time. Inserts and deletes come from the
//! same distribution, so the data stays stationary and accuracy does not
//! depend on how many batches a run completes.
//!
//! The insert stream is counter-based (row `i` of column `c` is a pure
//! function of `c` and `i`), so the live rows after any number of batches
//! can be regenerated for exact truth without storing them. It shapes the
//! data accuracy is measured on, so it comes from the fixed accuracy seed,
//! not `--seed`.

use std::sync::Arc;
use std::time::{Duration, Instant};

use selest_core::RangeQuery;
use selest_data::PaperFile;
use selest_store::{
    AnalyzeConfig, ColumnDelta, DurableStore, EstimatorKind, JournalRecord, RecoveryRung,
    ServingEngine, StalenessPolicy, StatisticsCatalog,
};

use crate::common::{self, Bench, Col, Mre, Truth, ACCURACY_SEED, BATCH, SUBWINDOWS};
use crate::queries::{below, targeted};
use crate::run::{Ctx, WindowOut};
use crate::stats::Histogram;
use crate::trace::SpanBuf;

/// Inserts per column per writer batch.
pub const INSERTS: u64 = 512;
/// Deletes of the oldest rows per column per writer batch.
pub const DELETES: u64 = 64;
/// A feedback observation is journaled every this many writer batches.
pub const APPEND_EVERY: u64 = 16;
/// Reader requests per column in the pool.
const READER_BATCHES_PER_COLUMN: usize = 64;
/// Writer batches run before timing. Accuracy is measured right after
/// them: the GK summary behind equi-depth coarsens as the stream grows,
/// so accuracy taken after a fixed amount of writing does not depend on
/// how fast the window ran.
const WARMUP_BATCHES: u64 = 1_024;
/// Reader requests run before timing.
const WARMUP_READS: usize = 16;
/// Stream id of the insert draws.
const INSERT_STREAM: u64 = 300;

/// The writer's state: where each column's insert and delete cursors
/// stand, and what it did.
pub struct Writer {
    relation: String,
    names: Vec<String>,
    base: Vec<Arc<[f64]>>,
    truths: Vec<Arc<Truth>>,
    observe: Vec<Vec<RangeQuery>>,
    /// Writer batches applied.
    pub batches: u64,
    inserted: u64,
    deleted: u64,
    /// Observations journaled.
    pub appended: u64,
    /// Largest per-column pending-update count at each sweep.
    pub pending_at_sweep: Histogram,
    /// Sweeps that refreshed and republished.
    pub republishes: u64,
}

impl Writer {
    /// A writer over `base` (each column's initial rows in order); `seed`
    /// places the queries its observations journal.
    pub fn new(seed: u64, cols: &[Col], base: Vec<Arc<[f64]>>) -> Self {
        Writer {
            relation: cols[0].relation.clone(),
            names: cols.iter().map(|c| c.name.clone()).collect(),
            observe: cols
                .iter()
                .enumerate()
                .map(|(c, col)| targeted(&col.truth.ecdf, seed, 400 + c as u64, 64))
                .collect(),
            truths: cols.iter().map(|c| Arc::clone(&c.truth)).collect(),
            base,
            batches: 0,
            inserted: 0,
            deleted: 0,
            appended: 0,
            pending_at_sweep: Histogram::default(),
            republishes: 0,
        }
    }

    /// Which initial row of column `c` stream position `pos` holds: the
    /// initial rows in order, then the seeded inserts.
    fn row_index(&self, c: usize, pos: u64) -> usize {
        let n0 = self.base[c].len();
        if pos < n0 as u64 {
            pos as usize
        } else {
            below(ACCURACY_SEED, INSERT_STREAM + c as u64, pos - n0 as u64, n0)
        }
    }

    /// Value at stream position `pos` of column `c`.
    fn row(&self, c: usize, pos: u64) -> f64 {
        self.base[c][self.row_index(c, pos)]
    }

    /// The next batch's per-column deltas.
    pub fn deltas(&self) -> Vec<ColumnDelta> {
        self.names
            .iter()
            .enumerate()
            .map(|(c, name)| {
                let n0 = self.base[c].len() as u64;
                ColumnDelta {
                    column: name.clone(),
                    inserts: (0..INSERTS)
                        .map(|i| self.row(c, n0 + self.inserted + i))
                        .collect(),
                    deletes: (0..DELETES)
                        .map(|i| self.row(c, self.deleted + i))
                        .collect(),
                }
            })
            .collect()
    }

    /// Apply one batch: absorb, sweep staleness (refresh and republish
    /// when stale), and every [`APPEND_EVERY`]th batch journal an
    /// observation.
    pub fn step(
        &mut self,
        tr: &mut SpanBuf,
        deltas: &[ColumnDelta],
        catalog: &mut StatisticsCatalog,
        engine: &ServingEngine,
        store: &mut DurableStore,
    ) -> Result<(), String> {
        let req = self.batches as u32;
        let jobs = selest_par::TryConfig::jobs(1);
        let updates = (deltas.len() as u64 * (INSERTS + DELETES)) as u32;
        let report = tr.span("catalog.apply_updates", req, updates, |_| {
            catalog.try_apply_updates(&self.relation, deltas, &jobs)
        });
        if !report.is_clean() {
            return Err(format!("update batch {req} failed: {:?}", report.failed));
        }
        let pending = self
            .names
            .iter()
            .filter_map(|name| {
                catalog
                    .statistics(&self.relation, name)?
                    .incremental
                    .as_ref()
            })
            .map(|state| state.updates_since_refresh)
            .max()
            .unwrap_or(0);
        self.pending_at_sweep.record(pending);
        let t0 = Instant::now();
        let republished = engine.republish_if_stale(catalog, &StalenessPolicy::default(), &jobs);
        let t1 = Instant::now();
        if let Some(r) = republished {
            tr.record(
                "serving.republish",
                t0,
                t1,
                req,
                r.refresh.refreshed.len() as u32,
            );
            if !r.refresh.failed.is_empty() {
                return Err(format!("refresh failed: {:?}", r.refresh.failed));
            }
            self.republishes += 1;
        } else {
            tr.record("catalog.staleness_sweep", t0, t1, req, 0);
        }
        if self.batches.is_multiple_of(APPEND_EVERY) {
            let c = (self.appended % self.names.len() as u64) as usize;
            let q = self.observe[c]
                [(self.appended / self.names.len() as u64) as usize % self.observe[c].len()];
            let base = catalog
                .statistics(&self.relation, &self.names[c])
                .ok_or("writer column vanished")?
                .estimator
                .selectivity(&q);
            let record = JournalRecord::Observation {
                relation: self.relation.clone(),
                column: self.names[c].clone(),
                a: q.a(),
                b: q.b(),
                base,
                truth: self.truths[c].exact.instance_selectivity(&q),
            };
            tr.span("durable.append", req, 1, |_| store.append(&record))
                .map_err(|e| format!("journal append: {e}"))?;
            self.appended += 1;
        }
        self.batches += 1;
        self.inserted += INSERTS;
        self.deleted += DELETES;
        Ok(())
    }

    /// Exact accuracy of `engine`'s serving snapshot against the live
    /// rows: each column's multiset is rebuilt as per-row multiplicities
    /// of its initial rows, so truth is exact without storing the stream.
    pub fn live_accuracy(
        &self,
        engine: &ServingEngine,
        audit: &[common::AuditQuery],
    ) -> Result<Mre, String> {
        let snapshot = engine.snapshot();
        let mut mre = Mre::default();
        for (c, name) in self.names.iter().enumerate() {
            let base = &self.base[c];
            let n0 = base.len() as u64;
            let mut counts = vec![0u32; base.len()];
            for pos in self.deleted..n0 + self.inserted {
                counts[self.row_index(c, pos)] += 1;
            }
            let mut order: Vec<usize> = (0..base.len()).collect();
            order.sort_by(|&i, &j| base[i].total_cmp(&base[j]));
            let sorted: Vec<f64> = order.iter().map(|&i| base[i]).collect();
            let mut prefix = vec![0u64; base.len() + 1];
            for (k, &i) in order.iter().enumerate() {
                prefix[k + 1] = prefix[k] + u64::from(counts[i]);
            }
            let live = prefix[base.len()] as f64;
            let (_, col) = snapshot
                .find(&self.relation, name)
                .ok_or_else(|| format!("{name} missing from the snapshot"))?;
            for a in audit.iter().filter(|a| a.col == c) {
                let lo = sorted.partition_point(|&v| v < a.query.a());
                let hi = sorted.partition_point(|&v| v <= a.query.b());
                let truth = (prefix[hi] - prefix[lo]) as f64;
                mre.record(
                    a.target,
                    truth,
                    col.estimator().selectivity(&a.query) * live,
                );
            }
        }
        Ok(mre)
    }
}

/// Set up `ingest-mixed`.
pub fn setup(ctx: &Ctx, tr: &mut SpanBuf) -> Result<(Bench, Writer), String> {
    let data = common::generate(
        tr,
        &[PaperFile::Normal { p: 20 }, PaperFile::Uniform { p: 20 }],
    );
    let names = ["n20", "u20"];
    let cols: Vec<Col> = tr.span("core.exact", 0, 0, |_| {
        data.iter()
            .zip(names)
            .map(|(d, name)| Col {
                relation: "ingest".into(),
                name: name.to_owned(),
                truth: Arc::new(Truth::new(d.values(), d.domain())),
            })
            .collect()
    });
    let base: Vec<Arc<[f64]>> = data.iter().map(|d| Arc::from(d.values())).collect();
    let relation = common::relation(
        "ingest",
        data.iter()
            .zip(names)
            .map(|(d, name)| (name.to_owned(), d.domain(), d.values().to_vec()))
            .collect(),
    );
    let engine = ServingEngine::with_defaults();
    let store_dir = common::store_dir(ctx.workload, "store");
    let mut store = common::open_store(tr, &store_dir)?;
    let config = AnalyzeConfig {
        kind: EstimatorKind::EquiDepth,
        ..AnalyzeConfig::default()
    };
    let catalog = common::publish_cycle(tr, 0, &engine, &mut store, || {
        let mut catalog = StatisticsCatalog::new();
        catalog.try_analyze_incremental(
            &relation,
            &config,
            &selest_par::TryConfig::jobs(ctx.threads),
        );
        catalog
    })?;
    let seed = ctx.seed;
    let (pool, audit) = tr.span("data.queries", 0, 0, |_| {
        let pool = common::interleave(
            cols.iter()
                .enumerate()
                .map(|(c, col)| {
                    common::chunked(targeted(
                        &col.truth.ecdf,
                        seed,
                        100 + c as u64,
                        READER_BATCHES_PER_COLUMN * BATCH,
                    ))
                })
                .collect(),
        );
        (pool, common::audit_set(&cols))
    });
    let writer = Writer::new(seed, &cols, base);
    let mut bench = Bench {
        relations: vec![relation],
        cols,
        catalog,
        engine,
        store,
        store_dir,
        pool,
        audit,
        checksum: 0.0,
        accuracy: Default::default(),
    };
    common::audit_and_checksum(tr, &mut bench)?;
    let mut writer = writer;
    tr.span("warmup", 0, 0, |tr| {
        let b = &mut bench;
        let mut verifier = common::Verifier::default();
        for _ in 0..WARMUP_BATCHES {
            let deltas = writer.deltas();
            writer.step(tr, &deltas, &mut b.catalog, &b.engine, &mut b.store)?;
        }
        for r in b.pool.iter().take(WARMUP_READS) {
            common::serve_verified(tr, &b.engine, &b.cols[r.col], &r.queries, &mut verifier)?;
        }
        Ok::<(), String>(())
    })?;
    bench.accuracy = tr.span("audit.live", 0, 0, |_| {
        writer.live_accuracy(&bench.engine, &bench.audit)
    })?;
    Ok((bench, writer))
}

/// The timed window: the writer on this thread, one reader client.
pub fn window(ctx: &Ctx, bench: &mut Bench, writer: &mut Writer, tr: &mut SpanBuf) -> WindowOut {
    let window = Duration::from_secs_f64(ctx.seconds);
    // Field-wise borrows: the reader shares the engine and the pool while
    // the writer mutates the catalog and the store.
    let plan = common::Plan {
        engine: &bench.engine,
        cols: &bench.cols,
        pool: &bench.pool,
        start: Instant::now(),
        window,
        epoch: ctx.epoch,
        trace: ctx.trace,
    };
    let start = plan.start;
    let mut writes = vec![0.0; SUBWINDOWS];
    let mut error = None;
    let updates_per_batch = (writer.names.len() as u64 * (INSERTS + DELETES)) as f64;
    let reader = std::thread::scope(|s| {
        let reader = s.spawn(|| common::client(&plan, plan.pool));
        while Instant::now() < start + window {
            let deltas = writer.deltas();
            if let Err(e) = writer.step(
                tr,
                &deltas,
                &mut bench.catalog,
                &bench.engine,
                &mut bench.store,
            ) {
                error = Some(e);
                break;
            }
            writes[common::subwindow(start, Instant::now(), window)] += updates_per_batch;
        }
        reader.join().expect("reader panicked")
    });
    let mut out = WindowOut::from_clients(vec![reader], start);
    // The primary rate is row updates; latency stays the reader's.
    out.attempted += writes.iter().sum::<f64>() as u64;
    out.ops = writes;
    if let Some(e) = error {
        out.failed += 1;
        out.mismatch.get_or_insert(e);
    }
    out.extra.push(("writer_batches", writer.batches as f64));
    out.extra.push(("republishes", writer.republishes as f64));
    out.extra.push(("journal_appends", writer.appended as f64));
    // Reopen the store: every appended observation must replay.
    match DurableStore::open(&bench.store_dir) {
        Ok((_, report)) => {
            if report.rung != RecoveryRung::Active
                || report.journal_applied as u64 != writer.appended
            {
                out.mismatch.get_or_insert(format!(
                    "journal replay: rung {}, {} of {} records applied",
                    report.rung, report.journal_applied, writer.appended
                ));
            }
        }
        Err(e) => {
            out.mismatch.get_or_insert(format!("reopen: {e}"));
        }
    }
    out
}
