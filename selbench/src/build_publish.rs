//! `build-publish`: back-to-back build cycles — ANALYZE at jobs=2 over
//! {kernel, hybrid, max-diff, equi-depth} x {n(20), e(20)}, snapshot,
//! engine publish, durable publish — with no serving load. It exercises
//! the build side: sort/prepare, DPI bandwidth functionals, the hybrid
//! change-point search, persistence and fsync.

use std::sync::Arc;
use std::time::{Duration, Instant};

use selest_data::PaperFile;
use selest_store::persist::PersistedStatistics;
use selest_store::{
    AnalyzeConfig, DurableStore, EstimatorKind, RecoveryRung, Relation, ServingEngine,
    StatisticsCatalog,
};

use crate::common::{self, Bench, Col, Truth, BATCH};
use crate::queries::targeted;
use crate::run::{Ctx, WindowOut};
use crate::trace::{Phase, SpanBuf};

/// The estimator kinds each data file is analyzed with.
pub const KINDS: [(EstimatorKind, &str); 4] = [
    (EstimatorKind::Kernel, "kernel"),
    (EstimatorKind::Hybrid, "hybrid"),
    (EstimatorKind::MaxDiff, "maxdiff"),
    (EstimatorKind::EquiDepth, "equidepth"),
];

/// Verification requests per column in the pool.
const BATCHES_PER_COLUMN: usize = 4;
/// Untimed cycles run once before timing.
const WARMUP_CYCLES: u32 = 2;

/// The suite's relation and columns: every kind over n(20) and e(20).
pub fn suite(tr: &mut SpanBuf) -> (Relation, Vec<Col>) {
    let data = common::generate(
        tr,
        &[
            PaperFile::Normal { p: 20 },
            PaperFile::Exponential { p: 20 },
        ],
    );
    let truths: Vec<Arc<Truth>> = tr.span("core.exact", 0, 0, |_| {
        data.iter()
            .map(|d| Arc::new(Truth::new(d.values(), d.domain())))
            .collect()
    });
    let mut columns = Vec::new();
    let mut cols = Vec::new();
    for ((d, truth), stem) in data.iter().zip(&truths).zip(["n20", "e20"]) {
        for (_, kind) in KINDS {
            let name = format!("{stem}_{kind}");
            cols.push(Col {
                relation: "build".into(),
                name: name.clone(),
                truth: Arc::clone(truth),
            });
            columns.push((name, d.domain(), d.values().to_vec()));
        }
    }
    (common::relation("build", columns), cols)
}

/// ANALYZE the suite: one bulkheaded call per kind, over that kind's
/// columns, at `jobs` workers.
pub fn analyze(relation: &Relation, jobs: usize) -> StatisticsCatalog {
    let mut catalog = StatisticsCatalog::new();
    let engine = selest_par::TryConfig::jobs(jobs);
    for (kind, label) in KINDS {
        let names: Vec<String> = relation
            .columns()
            .iter()
            .map(|c| c.name().to_owned())
            .filter(|n| n.ends_with(label))
            .collect();
        let names: Vec<&str> = names.iter().map(String::as_str).collect();
        let config = AnalyzeConfig {
            kind,
            ..AnalyzeConfig::default()
        };
        catalog.try_analyze_columns_with(relation, &names, &config, &engine);
    }
    catalog
}

/// Set up `build-publish`.
pub fn setup(ctx: &Ctx, tr: &mut SpanBuf) -> Result<Bench, String> {
    let (relation, cols) = suite(tr);
    let engine = ServingEngine::with_defaults();
    let store_dir = common::store_dir(ctx.workload, "store");
    let mut store = common::open_store(tr, &store_dir)?;
    let catalog = common::publish_cycle(tr, 0, &engine, &mut store, || {
        analyze(&relation, ctx.threads)
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
                        BATCHES_PER_COLUMN * BATCH,
                    ))
                })
                .collect(),
        );
        (pool, common::audit_set(&cols))
    });
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
    for req in 1..=WARMUP_CYCLES {
        tr.span("warmup", req, 0, |tr| {
            common::publish_cycle(tr, req, &bench.engine, &mut bench.store, || {
                analyze(&bench.relations[0], ctx.threads)
            })
        })?;
    }
    Ok(bench)
}

fn same_evidence(a: &[PersistedStatistics], b: &[PersistedStatistics]) -> bool {
    a.len() == b.len()
        && a.iter().zip(b).all(|(x, y)| {
            x.relation == y.relation
                && x.column == y.column
                && x.kind == y.kind
                && x.n_rows == y.n_rows
                && x.domain.lo().to_bits() == y.domain.lo().to_bits()
                && x.domain.hi().to_bits() == y.domain.hi().to_bits()
                && x.sample.len() == y.sample.len()
                && x.sample
                    .iter()
                    .zip(y.sample.iter())
                    .all(|(p, q)| p.to_bits() == q.to_bits())
        })
}

/// The timed window: cycles back to back on one thread (ANALYZE itself
/// uses `ctx.threads` workers). After each cycle, untimed: the store's
/// published evidence must equal the first cycle's bit for bit, and one
/// request is served from the fresh snapshot and verified.
pub fn window(ctx: &Ctx, bench: &mut Bench, tr: &mut SpanBuf) -> WindowOut {
    let first: Vec<PersistedStatistics> = bench.store.entries().to_vec();
    let first_bytes = bench.store.export_bytes().0;
    let window = Duration::from_secs_f64(ctx.seconds);
    let mut out = WindowOut::default();
    let mut verifier = common::Verifier::default();
    let start = Instant::now();
    let mut req = 0u32;
    loop {
        let t0 = Instant::now();
        if t0 >= start + window {
            break;
        }
        req += 1;
        let cycle = common::publish_cycle(tr, req, &bench.engine, &mut bench.store, || {
            analyze(&bench.relations[0], ctx.threads)
        });
        let t1 = Instant::now();
        out.attempted += 1;
        match cycle {
            Ok(catalog) => bench.catalog = catalog,
            Err(e) => {
                out.failed += 1;
                out.mismatch.get_or_insert(e);
                continue;
            }
        }
        let slot = common::subwindow(start, t1, window);
        out.ops[slot] += 1.0;
        out.latency_ns[slot].record((t1 - t0).as_nanos() as u64);
        if !same_evidence(&first, bench.store.entries()) {
            out.mismatch.get_or_insert(format!(
                "cycle {req}: published evidence differs from the first export"
            ));
        }
        let b = &bench.pool[req as usize % bench.pool.len()];
        if let Err(e) = common::serve_verified(
            tr,
            &bench.engine,
            &bench.cols[b.col],
            &b.queries,
            &mut verifier,
        ) {
            out.mismatch.get_or_insert(e);
        }
        out.last = t1;
    }
    out.seconds = (out.last - start).as_secs_f64().max(ctx.seconds);
    out.extra.push(("cycles", f64::from(req)));
    // Reopen: recovery must land on the active generation and its bytes
    // must equal the first export.
    tr.set_phase(Phase::Pass);
    let dir = bench.store_dir.clone();
    match DurableStore::open(&dir) {
        Ok((reopened, report)) => {
            if report.rung != RecoveryRung::Active {
                out.mismatch.get_or_insert(format!(
                    "reopen recovered to {} instead of Active",
                    report.rung
                ));
            }
            if reopened.export_bytes().0 != first_bytes {
                out.mismatch
                    .get_or_insert("reopened store's bytes differ from the first export".into());
            }
        }
        Err(e) => {
            out.mismatch.get_or_insert(format!("reopen: {e}"));
        }
    }
    out
}
