//! `serve-cold` and `serve-hot`: closed-loop clients against a published
//! snapshot.
//!
//! * `serve-cold` — four kernel columns (n(20), e(20), arap1, iw; the
//!   paper's best kernel configuration over 2 000-row samples) and
//!   524 288 distinct queries cycled through 4 096 cache slots: the kernel
//!   merge scan and the resilient path do the work, the cache only adds a
//!   miss probe.
//! * `serve-hot` — eight max-diff columns (four affine copies each of
//!   u(20) and e(20)) with 256 distinct queries each, 2 048 in all, drawn
//!   with Zipf-like reuse: snapshot load, admission, cache probe and the
//!   shared counters dominate, and the estimator barely runs.

use std::sync::Arc;

use selest_data::PaperFile;
use selest_store::{AnalyzeConfig, EstimatorKind, Relation, ServingEngine, StatisticsCatalog};

use crate::common::{self, Batch, Bench, Col, Truth, BATCH};
use crate::queries::{targeted, unit};
use crate::run::{Ctx, WindowOut};
use crate::trace::SpanBuf;

/// Batches per column of `serve-cold`: 4 x 512 x 256 = 524 288 queries.
const COLD_BATCHES_PER_COLUMN: usize = 512;
/// Distinct queries per `serve-hot` column.
const HOT_DISTINCT: usize = 256;
/// Pre-drawn request batches per `serve-hot` column.
const HOT_BATCHES_PER_COLUMN: usize = 32;
/// Requests served once before timing (fills the hot cache).
const WARMUP_BATCHES: usize = 256;

fn analyze_all(relations: &[Relation], kind: EstimatorKind, jobs: usize) -> StatisticsCatalog {
    let mut catalog = StatisticsCatalog::new();
    let config = AnalyzeConfig {
        kind,
        ..AnalyzeConfig::default()
    };
    for relation in relations {
        catalog.try_analyze_with(relation, &config, &selest_par::TryConfig::jobs(jobs));
    }
    catalog
}

fn finish_setup(
    ctx: &Ctx,
    tr: &mut SpanBuf,
    relations: Vec<Relation>,
    cols: Vec<Col>,
    kind: EstimatorKind,
    pool: impl FnOnce(&[Col]) -> Vec<Batch>,
) -> Result<Bench, String> {
    let engine = ServingEngine::with_defaults();
    let store_dir = common::store_dir(ctx.workload, "store");
    let mut store = common::open_store(tr, &store_dir)?;
    let catalog = common::publish_cycle(tr, 0, &engine, &mut store, || {
        analyze_all(&relations, kind, ctx.threads)
    })?;
    let (pool, audit) = tr.span("data.queries", 0, 0, |_| {
        (pool(&cols), common::audit_set(&cols))
    });
    let mut bench = Bench {
        relations,
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
    tr.span("warmup", 0, 0, |tr| {
        let mut verifier = common::Verifier::default();
        for b in bench.pool.iter().cycle().take(WARMUP_BATCHES) {
            common::serve_verified(
                tr,
                &bench.engine,
                &bench.cols[b.col],
                &b.queries,
                &mut verifier,
            )?;
        }
        Ok::<(), String>(())
    })?;
    Ok(bench)
}

/// Set up `serve-cold`.
pub fn setup_cold(ctx: &Ctx, tr: &mut SpanBuf) -> Result<Bench, String> {
    let files = [
        PaperFile::Normal { p: 20 },
        PaperFile::Exponential { p: 20 },
        PaperFile::Arapahoe1,
        PaperFile::InstanceWeight,
    ];
    let names = ["n20", "e20", "arap1", "iw"];
    let data = common::generate(tr, &files);
    // The files differ in row count, so each is a relation of its own.
    let cols: Vec<Col> = tr.span("core.exact", 0, 0, |_| {
        data.iter()
            .zip(names)
            .map(|(d, name)| Col {
                relation: format!("cold_{name}"),
                name: name.to_owned(),
                truth: Arc::new(Truth::new(d.values(), d.domain())),
            })
            .collect()
    });
    let relations = data
        .iter()
        .zip(&cols)
        .map(|(d, c)| {
            common::relation(
                &c.relation,
                vec![(c.name.clone(), d.domain(), d.values().to_vec())],
            )
        })
        .collect();
    let seed = ctx.seed;
    finish_setup(ctx, tr, relations, cols, EstimatorKind::Kernel, |cols| {
        common::interleave(
            cols.iter()
                .enumerate()
                .map(|(c, col)| {
                    common::chunked(targeted(
                        &col.truth.ecdf,
                        seed,
                        100 + c as u64,
                        COLD_BATCHES_PER_COLUMN * BATCH,
                    ))
                })
                .collect(),
        )
    })
}

/// Set up `serve-hot`.
pub fn setup_hot(ctx: &Ctx, tr: &mut SpanBuf) -> Result<Bench, String> {
    let files = [
        PaperFile::Uniform { p: 20 },
        PaperFile::Exponential { p: 20 },
    ];
    let data = common::generate(tr, &files);
    let mut columns = Vec::new();
    let mut cols = Vec::new();
    tr.span("core.exact", 0, 0, |_| {
        for (d, stem) in data.iter().zip(["u20", "e20"]) {
            for k in 0..4 {
                // Disjoint affine copies: same shape, distinct domains and
                // distinct cache tags.
                let (values, domain) = common::affine(d, 1.0 + 0.25 * k as f64, (k as f64) * 4.0e6);
                let name = format!("{stem}_{k}");
                cols.push(Col {
                    relation: "hot".into(),
                    name: name.clone(),
                    truth: Arc::new(Truth::new(&values, domain)),
                });
                columns.push((name, domain, values));
            }
        }
    });
    let relations = vec![common::relation("hot", columns)];
    let seed = ctx.seed;
    finish_setup(ctx, tr, relations, cols, EstimatorKind::MaxDiff, |cols| {
        common::interleave(
            cols.iter()
                .enumerate()
                .map(|(c, col)| {
                    let distinct = targeted(&col.truth.ecdf, seed, 100 + c as u64, HOT_DISTINCT);
                    (0..HOT_BATCHES_PER_COLUMN)
                        .map(|j| {
                            (0..BATCH)
                                .map(|i| {
                                    // u^3 rank draw: low ranks recur often.
                                    let u = unit(seed, 200 + c as u64, (j * BATCH + i) as u64);
                                    distinct[((u * u * u) * HOT_DISTINCT as f64) as usize]
                                })
                                .collect()
                        })
                        .collect()
                })
                .collect(),
        )
    })
}

/// The timed window of both serve workloads: `ctx.clients` closed-loop
/// client(s) for `ctx.seconds`.
pub fn window(ctx: &Ctx, bench: &mut Bench) -> WindowOut {
    let plan = ctx.plan(bench, ctx.seconds);
    let clients = common::run_clients(&plan, ctx.clients);
    WindowOut::from_clients(clients, plan.start)
}
