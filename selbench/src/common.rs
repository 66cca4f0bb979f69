//! Pieces every workload shares: columns with their exact truth, the
//! publish cycle, the accuracy audit, answer verification, and the
//! closed-loop serving client.

use std::path::PathBuf;
use std::sync::Arc;
use std::time::{Duration, Instant};

use selest_core::{BatchScratch, Domain, Ecdf, EstimateError, ExactSelectivity, RangeQuery};
use selest_data::{DataFile, PaperFile};
use selest_store::{
    CatalogSnapshot, Column, DurableStore, Relation, ServingEngine, ServingScratch,
    StatisticsCatalog,
};

use crate::queries::{self, TARGETS};
use crate::stats::Histogram;
use crate::trace::{Phase, SpanBuf};

/// Queries per serving request.
pub const BATCH: usize = 256;
/// Equal-time slices of the timed window; throughput and latency are
/// medians over them.
pub const SUBWINDOWS: usize = 10;
/// Every this many requests a client re-verifies the served answers.
pub const VERIFY_EVERY: u64 = 64;
/// Seed of every input accuracy depends on: the audit set and the rows
/// `ingest-mixed` inserts. Fixed, not `--seed`, like the paper's data
/// files, so `mre` compares across seeds and commits; `--seed` drives the
/// request streams.
pub const ACCURACY_SEED: u64 = 0x5e1b_e7c4_a0d1_7000;
/// Audit queries per column (equal shares of every target).
pub const AUDIT_PER_COLUMN: usize = 500;
/// Seeded stream batches verified in set-up and folded into the checksum,
/// so `checksum_bits` moves with `--seed`.
pub const STREAM_CHECK_BATCHES: usize = 8;

/// The exact truth of one column: its sorted values (the ECDF queries are
/// solved on) and the ground-truth oracle errors are measured against.
pub struct Truth {
    /// Sorted full column.
    pub ecdf: Ecdf,
    /// Exact counts.
    pub exact: ExactSelectivity,
}

impl Truth {
    /// Truth over a full column.
    pub fn new(values: &[f64], domain: Domain) -> Self {
        Truth {
            ecdf: Ecdf::new(values),
            exact: ExactSelectivity::new(values, domain),
        }
    }
}

/// One served column.
pub struct Col {
    /// Relation the column belongs to.
    pub relation: String,
    /// Column name.
    pub name: String,
    /// Its exact truth (shared by columns over the same data).
    pub truth: Arc<Truth>,
}

/// One serving request: a batch of queries against one column.
pub struct Batch {
    /// Index into the workload's columns.
    pub col: usize,
    /// The queries.
    pub queries: Vec<RangeQuery>,
}

/// One audit query.
pub struct AuditQuery {
    /// Index into the workload's columns.
    pub col: usize,
    /// Index into [`TARGETS`].
    pub target: usize,
    /// The query.
    pub query: RangeQuery,
}

/// Mean relative error, the paper's metric, bucketed by target
/// selectivity: below 1%, 1% to 10%, 10% and up.
#[derive(Default, Clone)]
pub struct Mre {
    errors: [Vec<f64>; 3],
}

impl Mre {
    fn bucket(target: usize) -> usize {
        match TARGETS[target] {
            t if t < 0.01 => 0,
            t if t < 0.10 => 1,
            _ => 2,
        }
    }

    /// Record one query's true and estimated result counts.
    pub fn record(&mut self, target: usize, true_count: f64, estimated_count: f64) {
        self.errors[Self::bucket(target)]
            .push(selest_core::relative_error(true_count, estimated_count));
    }

    fn mean(v: &[f64]) -> f64 {
        selest_math::kahan_sum(v.iter().copied()) / v.len().max(1) as f64
    }

    /// MRE over every recorded query.
    pub fn total(&self) -> f64 {
        Self::mean(&self.errors.concat())
    }

    /// MRE of bucket `b` (0: below 1%, 1: 1–10%, 2: 10% and up).
    pub fn bucket_mre(&self, b: usize) -> f64 {
        Self::mean(&self.errors[b])
    }
}

/// Everything set-up leaves for the timed window and the passes.
pub struct Bench {
    /// The workload's relations (one per distinct row count).
    pub relations: Vec<Relation>,
    /// Served columns, in relation order.
    pub cols: Vec<Col>,
    /// The catalog ANALYZE built (the writer's live catalog on ingest).
    pub catalog: StatisticsCatalog,
    /// The serving engine: `ServingOptions::default()`, that is 4 shards,
    /// admission limit 1024, 4 096 cache slots, SLO disarmed.
    pub engine: ServingEngine,
    /// The durable store the catalog was published to.
    pub store: DurableStore,
    /// Where the store lives.
    pub store_dir: PathBuf,
    /// The seeded request stream clients cycle through.
    pub pool: Vec<Batch>,
    /// The fixed accuracy audit set.
    pub audit: Vec<AuditQuery>,
    /// Kahan sum of every verified set-up answer.
    pub checksum: f64,
    /// Audit accuracy at set-up.
    pub accuracy: Mre,
}

/// Generate paper files (span `data.generate`).
pub fn generate(tr: &mut SpanBuf, files: &[PaperFile]) -> Vec<DataFile> {
    let rows = files.iter().map(PaperFile::n_records).sum::<usize>() as u32;
    tr.span("data.generate", 0, rows, |_| {
        files.iter().map(PaperFile::generate).collect()
    })
}

/// A column whose values are `values * scale + shift`, over the
/// correspondingly mapped domain.
pub fn affine(data: &DataFile, scale: f64, shift: f64) -> (Vec<f64>, Domain) {
    let d = data.domain();
    let values = data.values().iter().map(|v| v * scale + shift).collect();
    (
        values,
        Domain::new(d.lo() * scale + shift, d.hi() * scale + shift),
    )
}

/// Where a store lives: inside the checkout, removed when the run ends.
pub fn store_dir(workload: &str, tag: &str) -> PathBuf {
    PathBuf::from("target/selbench").join(format!("{workload}-{}-{tag}", std::process::id()))
}

/// Open a fresh durable store at `dir` (span `durable.open`).
pub fn open_store(tr: &mut SpanBuf, dir: &std::path::Path) -> Result<DurableStore, String> {
    let _ = std::fs::remove_dir_all(dir);
    tr.span("durable.open", 0, 0, |_| DurableStore::open(dir))
        .map(|(store, _)| store)
        .map_err(|e| format!("open store {}: {e}", dir.display()))
}

/// One build cycle: ANALYZE, freeze a snapshot, publish it to the engine,
/// publish the evidence durably (fsync of file and directory). Returns the
/// catalog ANALYZE built.
pub fn publish_cycle(
    tr: &mut SpanBuf,
    req: u32,
    engine: &ServingEngine,
    store: &mut DurableStore,
    analyze: impl FnOnce() -> StatisticsCatalog,
) -> Result<StatisticsCatalog, String> {
    tr.span("build.cycle", req, 0, |tr| {
        let catalog = tr.span("catalog.analyze", req, 0, |_| analyze());
        let health = catalog.health();
        if !health.is_healthy() {
            return Err(format!("ANALYZE quarantined {:?}", health.quarantined));
        }
        let snapshot = tr.span("serving.snapshot_build", req, 0, |_| {
            CatalogSnapshot::from_catalog_ref(&catalog, 0)
        });
        tr.span("serving.publish", req, 0, |_| {
            engine.publish_snapshot(snapshot)
        });
        tr.span("durable.publish", req, catalog.len() as u32, |_| {
            store.publish(catalog.export())
        })
        .map_err(|e| format!("durable publish: {e}"))?;
        Ok(catalog)
    })
}

/// Holds served answers to the snapshot column estimator's own batch
/// answers, bit for bit.
#[derive(Default)]
pub struct Verifier {
    scratch: BatchScratch,
    direct: Vec<f64>,
}

impl Verifier {
    /// Answer `queries` directly on `col`'s estimator in `snapshot`.
    fn direct(
        &mut self,
        snapshot: &CatalogSnapshot,
        col: &Col,
        queries: &[RangeQuery],
    ) -> Result<&[f64], String> {
        let (_, col) = snapshot
            .find(&col.relation, &col.name)
            .ok_or_else(|| format!("{}.{} missing from the snapshot", col.relation, col.name))?;
        self.direct.clear();
        self.direct.resize(queries.len(), 0.0);
        col.estimator()
            .selectivity_batch_into(queries, &mut self.scratch, &mut self.direct);
        Ok(&self.direct)
    }

    /// Check `served` against the direct answers.
    pub fn check(
        &mut self,
        snapshot: &CatalogSnapshot,
        col: &Col,
        queries: &[RangeQuery],
        served: &[Result<f64, EstimateError>],
    ) -> Result<(), String> {
        let direct = self.direct(snapshot, col, queries)?;
        for (i, (s, d)) in served.iter().zip(direct).enumerate() {
            let at = || format!("{}.{} query {i}", col.relation, col.name);
            match s {
                Ok(v) if v.to_bits() == d.to_bits() => {}
                Ok(v) => return Err(format!("{}: served {v:e}, estimator {d:e}", at())),
                Err(e) => return Err(format!("{}: {e}", at())),
            }
        }
        Ok(())
    }
}

/// Serve `queries` and verify them; returns the answers.
pub fn serve_verified(
    tr: &mut SpanBuf,
    engine: &ServingEngine,
    col: &Col,
    queries: &[RangeQuery],
    verifier: &mut Verifier,
) -> Result<Vec<f64>, String> {
    let mut scratch = ServingScratch::new();
    let mut out = Vec::with_capacity(queries.len());
    let snapshot = engine.snapshot();
    let t0 = Instant::now();
    engine.estimate_batch_into(&col.relation, &col.name, queries, &mut scratch, &mut out);
    tr.record("serving.batch", t0, Instant::now(), 0, queries.len() as u32);
    verifier.check(&snapshot, col, queries, &out)?;
    Ok(out.into_iter().map(|r| r.expect("verified")).collect())
}

/// The fixed audit set: [`AUDIT_PER_COLUMN`] target queries per column,
/// from [`ACCURACY_SEED`].
pub fn audit_set(cols: &[Col]) -> Vec<AuditQuery> {
    cols.iter()
        .enumerate()
        .flat_map(|(c, col)| {
            queries::targeted(&col.truth.ecdf, ACCURACY_SEED, c as u64, AUDIT_PER_COLUMN)
                .into_iter()
                .enumerate()
                .map(move |(i, query)| AuditQuery {
                    col: c,
                    target: i % TARGETS.len(),
                    query,
                })
        })
        .collect()
}

/// Serve the audit set through the engine, verify every answer, and
/// score it against exact truth. Returns the answers in audit order and
/// their accuracy.
pub fn audit(
    tr: &mut SpanBuf,
    engine: &ServingEngine,
    cols: &[Col],
    audit: &[AuditQuery],
) -> Result<(Vec<f64>, Mre), String> {
    let mut verifier = Verifier::default();
    let mut answers = Vec::with_capacity(audit.len());
    let mut mre = Mre::default();
    tr.span("audit", 0, audit.len() as u32, |tr| {
        for chunk in audit.chunk_by(|a, b| a.col == b.col) {
            let col = &cols[chunk[0].col];
            for part in chunk.chunks(BATCH) {
                let queries: Vec<RangeQuery> = part.iter().map(|a| a.query).collect();
                let served = serve_verified(tr, engine, col, &queries, &mut verifier)?;
                let n = col.truth.exact.total() as f64;
                for (a, v) in part.iter().zip(&served) {
                    mre.record(a.target, col.truth.exact.count(&a.query) as f64, v * n);
                }
                answers.extend(served);
            }
        }
        Ok((answers, mre))
    })
}

/// Audit, then verify the first [`STREAM_CHECK_BATCHES`] seeded requests;
/// the checksum is the Kahan sum of both answer sets in order.
pub fn audit_and_checksum(tr: &mut SpanBuf, bench: &mut Bench) -> Result<(), String> {
    let (mut answers, mre) = audit(tr, &bench.engine, &bench.cols, &bench.audit)?;
    let mut verifier = Verifier::default();
    for b in bench.pool.iter().take(STREAM_CHECK_BATCHES) {
        answers.extend(serve_verified(
            tr,
            &bench.engine,
            &bench.cols[b.col],
            &b.queries,
            &mut verifier,
        )?);
    }
    bench.checksum = selest_math::kahan_sum(answers);
    bench.accuracy = mre;
    Ok(())
}

/// Split a query list into [`BATCH`]-sized requests.
pub fn chunked(queries: Vec<RangeQuery>) -> Vec<Vec<RangeQuery>> {
    queries.chunks(BATCH).map(<[_]>::to_vec).collect()
}

/// Interleave per-column request lists so consecutive requests rotate
/// through the columns.
pub fn interleave(per_column: Vec<Vec<Vec<RangeQuery>>>) -> Vec<Batch> {
    let rounds = per_column.iter().map(Vec::len).max().unwrap_or(0);
    let mut iters: Vec<_> = per_column.into_iter().map(Vec::into_iter).collect();
    let mut pool = Vec::new();
    for _ in 0..rounds {
        for (col, batches) in iters.iter_mut().enumerate() {
            if let Some(queries) = batches.next() {
                pool.push(Batch { col, queries });
            }
        }
    }
    pool
}

/// A relation over named columns.
pub fn relation(name: &str, columns: Vec<(String, Domain, Vec<f64>)>) -> Relation {
    let mut r = Relation::new(name);
    for (col, domain, values) in columns {
        r.add_column(Column::new(&col, domain, values));
    }
    r
}

/// The sub-window an event at `at` falls in; events after the window
/// count in the last one.
pub fn subwindow(start: Instant, at: Instant, window: Duration) -> usize {
    let k = (at - start).as_nanos() * SUBWINDOWS as u128 / window.as_nanos().max(1);
    k.min(SUBWINDOWS as u128 - 1) as usize
}

/// What one closed-loop client measured.
pub struct ClientOut {
    /// Request latencies (ns) per sub-window.
    pub latency_ns: Vec<Histogram>,
    /// Queries answered per sub-window.
    pub answered: Vec<u64>,
    /// Query slots sent.
    pub sent: u64,
    /// Slots that came back as errors.
    pub failed: u64,
    /// Requests re-verified.
    pub verified: u64,
    /// First verification failure, if any.
    pub mismatch: Option<String>,
    /// The client's spans.
    pub spans: SpanBuf,
    /// End of the client's last request.
    pub last: Instant,
}

/// Where a client starts in the pool and how long it runs.
pub struct Plan<'a> {
    /// The engine under load.
    pub engine: &'a ServingEngine,
    /// Columns, indexed like the pool's batches.
    pub cols: &'a [Col],
    /// Requests, cycled.
    pub pool: &'a [Batch],
    /// Window start.
    pub start: Instant,
    /// Window length.
    pub window: Duration,
    /// Span epoch.
    pub epoch: Instant,
    /// Record spans.
    pub trace: bool,
}

/// A closed-loop client with zero think time: cycle through `requests`,
/// sending the next one as soon as the previous answer arrives, until the
/// window ends. Every [`VERIFY_EVERY`]th request is re-verified against
/// the snapshot that served it (when a publish races the request, the
/// next one is verified instead).
pub fn client(plan: &Plan<'_>, requests: &[Batch]) -> ClientOut {
    let mut out = ClientOut {
        latency_ns: vec![Histogram::default(); SUBWINDOWS],
        answered: vec![0; SUBWINDOWS],
        sent: 0,
        failed: 0,
        verified: 0,
        mismatch: None,
        spans: SpanBuf::new(plan.trace, plan.epoch),
        last: plan.start,
    };
    out.spans.set_phase(Phase::Window);
    let deadline = plan.start + plan.window;
    let mut scratch = ServingScratch::new();
    let mut answers = Vec::with_capacity(BATCH);
    let mut verifier = Verifier::default();
    let mut verify_due = true;
    let mut req = 0u32;
    for batch in requests.iter().cycle() {
        let col = &plan.cols[batch.col];
        let snapshot = verify_due.then(|| plan.engine.snapshot());
        let t0 = Instant::now();
        if t0 >= deadline {
            break;
        }
        plan.engine.estimate_batch_into(
            &col.relation,
            &col.name,
            &batch.queries,
            &mut scratch,
            &mut answers,
        );
        let t1 = Instant::now();
        out.spans
            .record("serving.batch", t0, t1, req, batch.queries.len() as u32);
        let slot = subwindow(plan.start, t1, plan.window);
        out.latency_ns[slot].record((t1 - t0).as_nanos() as u64);
        let failed = answers.iter().filter(|r| r.is_err()).count() as u64;
        out.sent += batch.queries.len() as u64;
        out.failed += failed;
        out.answered[slot] += batch.queries.len() as u64 - failed;
        out.last = t1;
        if let Some(snapshot) = snapshot {
            if snapshot.generation() == plan.engine.snapshot().generation() {
                let checked =
                    out.spans
                        .span("estimator.verify", req, batch.queries.len() as u32, |_| {
                            verifier.check(&snapshot, col, &batch.queries, &answers)
                        });
                out.verified += 1;
                verify_due = false;
                if let Err(e) = checked {
                    out.mismatch.get_or_insert(e);
                }
            }
        }
        req = req.wrapping_add(1);
        if u64::from(req).is_multiple_of(VERIFY_EVERY) {
            verify_due = true;
        }
    }
    out
}

/// Run `clients` closed-loop clients over the plan's window, each on its
/// own contiguous part of the pool: parts cycled independently would drift
/// into step and serve each other's cache fills.
pub fn run_clients(plan: &Plan<'_>, clients: usize) -> Vec<ClientOut> {
    let part = plan.pool.len().div_ceil(clients);
    std::thread::scope(|s| {
        let handles: Vec<_> = plan
            .pool
            .chunks(part)
            .map(|requests| s.spawn(move || client(plan, requests)))
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("serving client panicked"))
            .collect()
    })
}

/// CPU time this process has used (user + system), seconds, from
/// `/proc/self/stat` (clock ticks of 1/100 s).
pub fn cpu_seconds() -> f64 {
    std::fs::read_to_string("/proc/self/stat")
        .ok()
        .and_then(|s| {
            // Fields after the parenthesized command name; utime and stime
            // are fields 14 and 15 of the whole line.
            let rest = &s[s.rfind(')')? + 2..];
            let f: Vec<&str> = rest.split_whitespace().collect();
            Some((f.get(11)?.parse::<f64>().ok()? + f.get(12)?.parse::<f64>().ok()?) / 100.0)
        })
        .unwrap_or(f64::NAN)
}

/// `VmHWM` of this process in MB.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use selest_store::{AnalyzeConfig, EstimatorKind};

    #[test]
    fn verifier_rejects_any_differing_bit_or_error_slot() {
        let values: Vec<f64> = (0..5_000u32)
            .map(|i| f64::from(i * 7_919 % 10_007))
            .collect();
        let domain = Domain::new(0.0, 10_007.0);
        let rel = relation("t", vec![("v".into(), domain, values.clone())]);
        let mut catalog = StatisticsCatalog::new();
        let config = AnalyzeConfig {
            kind: EstimatorKind::EquiDepth,
            ..AnalyzeConfig::default()
        };
        assert!(catalog.try_analyze_jobs(&rel, &config, 1).is_healthy());
        let snapshot = CatalogSnapshot::from_catalog_ref(&catalog, 1);
        let col = Col {
            relation: "t".into(),
            name: "v".into(),
            truth: Arc::new(Truth::new(&values, domain)),
        };
        let queries = [
            RangeQuery::new(10.0, 500.0),
            RangeQuery::new(2_000.0, 9_000.0),
        ];
        let mut verifier = Verifier::default();
        let good: Vec<Result<f64, EstimateError>> = verifier
            .direct(&snapshot, &col, &queries)
            .expect("column served")
            .iter()
            .map(|v| Ok(*v))
            .collect();
        assert!(verifier.check(&snapshot, &col, &queries, &good).is_ok());
        let mut flipped = good.clone();
        flipped[1] = Ok(f64::from_bits(good[1].as_ref().expect("ok").to_bits() ^ 1));
        assert!(verifier.check(&snapshot, &col, &queries, &flipped).is_err());
        let mut refused = good;
        refused[0] = Err(EstimateError::EmptySample);
        assert!(verifier.check(&snapshot, &col, &queries, &refused).is_err());
    }
}
