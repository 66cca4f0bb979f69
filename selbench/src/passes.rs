//! Decomposition passes, run after the timed window of a traced run, and
//! the per-layer metrics drawn from them and from the spans.
//!
//! 1. Direct re-run: sampled requests of the workload's stream, each on a
//!    freshly published generation (so every probe misses the cache),
//!    timed through the engine and directly on the snapshot's estimator.
//! 2. Client windows: one client, then two, on the same engine.
//! 3. Stage-by-stage rebuild of the reference suite (the `build-publish`
//!    columns) through `PreparedColumn::prepare`, bandwidth selection and
//!    `build_estimator_from_prepared`, held bit-identical to a catalog
//!    ANALYZE of the same suite; direct estimator batches; persistence
//!    encoding; the accuracy of each serving rung.
//! 4. ANALYZE of the suite at jobs=1 against jobs=2.
//! 5. An ingest probe (incremental ANALYZE plus writer batches), so the
//!    catalog-update and journal layers are measured on every workload;
//!    where the window itself ran a writer, its spans take precedence.
//!
//! A span-derived metric uses the timed window's spans when the window
//! made that call, else the set-up's, else the passes'.

use std::sync::Arc;
use std::time::Instant;

use selest_core::{
    BatchScratch, PreparedColumn, RangeQuery, SelectivityEstimator, UniformEstimator,
};
use selest_kernel::{BandwidthSelector, DirectPlugIn, KernelFn};
use selest_store::{
    build_estimator_from_prepared, encode_statistics, CatalogSnapshot, EstimatorKind,
    ServingScratch,
};

use crate::common::{self, Bench, Mre, Verifier};
use crate::ingest::{self, Writer};
use crate::metrics::Measured;
use crate::run::{value, Ctx, WindowOut};
use crate::trace::{self, Phase, Span, SpanBuf};
use crate::{build_publish, stats};

/// Requests re-run directly in pass 1.
const RERUN_BATCHES: usize = 64;
/// Length of each client window of pass 2.
const CLIENT_WINDOW_S: f64 = 1.0;
/// Repetitions of every pass-3 and pass-4 measurement.
const REPS: u32 = 5;
/// Writer batches of the ingest probe: enough for a supported p99 of the
/// pending-update count.
const PROBE_BATCHES: usize = 1_100;

/// Workload name the ingest probe's store is filed under.
pub const PROBE: &str = "ingest-probe";

/// What the passes measured directly (span-derived values are read from
/// the buffers later).
pub struct PassOut {
    /// Named values.
    pub values: Vec<(&'static str, f64)>,
    /// The ingest probe's writer.
    pub probe: Writer,
}

/// Run every pass.
pub fn run(ctx: &Ctx, bench: &mut Bench, tr: &mut SpanBuf) -> Result<PassOut, String> {
    tr.set_phase(Phase::Pass);
    let mut values = Vec::new();
    values.push(("serving.overhead_ns_per_query", direct_rerun(tr, bench)?));
    values.extend(client_windows(ctx, bench));
    values.extend(reference_suite(ctx, tr)?);
    let probe = ingest_probe(ctx, tr)?;
    Ok(PassOut { values, probe })
}

/// Pass 1: engine time minus direct estimator time per query, on
/// all-miss requests.
fn direct_rerun(tr: &mut SpanBuf, bench: &mut Bench) -> Result<f64, String> {
    let step = (bench.pool.len() / RERUN_BATCHES).max(1);
    let mut scratch = ServingScratch::new();
    let mut served = Vec::new();
    let mut verifier = Verifier::default();
    let (mut engine_ns, mut direct_ns, mut queries) = (0u128, 0u128, 0u128);
    for (k, b) in bench
        .pool
        .iter()
        .step_by(step)
        .take(RERUN_BATCHES)
        .enumerate()
    {
        let req = k as u32;
        let snapshot = tr.span("serving.snapshot_build", req, 0, |_| {
            CatalogSnapshot::from_catalog_ref(&bench.catalog, 0)
        });
        tr.span("serving.publish", req, 0, |_| {
            bench.engine.publish_snapshot(snapshot)
        });
        let snapshot = bench.engine.snapshot();
        let col = &bench.cols[b.col];
        let n = b.queries.len() as u32;
        let t0 = Instant::now();
        bench.engine.estimate_batch_into(
            &col.relation,
            &col.name,
            &b.queries,
            &mut scratch,
            &mut served,
        );
        let t1 = Instant::now();
        verifier
            .check(&snapshot, col, &b.queries, &served)
            .map_err(|e| format!("direct re-run: {e}"))?;
        let t2 = Instant::now();
        tr.record("pass.engine_batch", t0, t1, req, n);
        tr.record("pass.direct_batch", t1, t2, req, n);
        engine_ns += (t1 - t0).as_nanos();
        direct_ns += (t2 - t1).as_nanos();
        queries += u128::from(n);
    }
    Ok((engine_ns as f64 - direct_ns as f64) / queries.max(1) as f64)
}

/// Pass 2: throughput with one client against two, and the cost of the
/// engine's snapshot load.
fn client_windows(ctx: &Ctx, bench: &Bench) -> Vec<(&'static str, f64)> {
    let qps = |clients: usize| {
        let mut plan = ctx.plan(bench, CLIENT_WINDOW_S);
        plan.trace = false;
        let outs = common::run_clients(&plan, clients);
        let answered: u64 = outs.iter().flat_map(|c| c.answered.iter()).sum();
        answered as f64 / CLIENT_WINDOW_S
    };
    let one = qps(1);
    let many = qps(ctx.threads);
    const LOADS: u32 = 100_000;
    let mut per_load = Vec::new();
    for _ in 0..5 {
        let t0 = Instant::now();
        for _ in 0..LOADS {
            std::hint::black_box(bench.engine.snapshot());
        }
        per_load.push(t0.elapsed().as_nanos() as f64 / f64::from(LOADS));
    }
    vec![
        ("serving.client_scaling", many / one),
        ("serving.snapshot_ns", stats::median(&per_load)),
    ]
}

fn build_span(kind: EstimatorKind) -> &'static str {
    match kind {
        EstimatorKind::Kernel => "kernel.build",
        EstimatorKind::Hybrid => "hybrid.build",
        EstimatorKind::MaxDiff => "histogram.max_diff.build",
        _ => "histogram.equi_depth.build",
    }
}

fn batch_span(kind: EstimatorKind) -> &'static str {
    match kind {
        EstimatorKind::Kernel => "kernel.batch",
        EstimatorKind::Hybrid => "hybrid.batch",
        _ => "histogram.batch",
    }
}

/// Passes 3 and 4 over the reference suite.
fn reference_suite(ctx: &Ctx, tr: &mut SpanBuf) -> Result<Vec<(&'static str, f64)>, String> {
    let (relation, cols) = build_publish::suite(tr);
    let catalog = build_publish::analyze(&relation, ctx.threads);
    if !catalog.health().is_healthy() {
        return Err("reference suite ANALYZE quarantined a column".into());
    }
    let audit = common::audit_set(&cols);
    let mut scratch = BatchScratch::new();
    let mut staged = Vec::new();
    let mut direct = Vec::new();
    for rep in 0..REPS {
        for (c, col) in cols.iter().enumerate() {
            let st = catalog
                .statistics(relation.name(), &col.name)
                .ok_or_else(|| format!("{} not analyzed", col.name))?;
            let n = st.sample.len() as u32;
            let prepared = tr.span("core.prepare", rep, n, |_| {
                Arc::new(PreparedColumn::prepare(&st.sample, st.domain))
            });
            if st.kind == EstimatorKind::Kernel {
                tr.span("kernel.bandwidth", rep, n, |_| {
                    DirectPlugIn::two_stage().bandwidth_prepared(&prepared, KernelFn::Epanechnikov)
                });
            }
            let built = tr.span(build_span(st.kind), rep, n, |_| {
                build_estimator_from_prepared(&prepared, st.kind)
            });
            let queries: Vec<RangeQuery> = audit
                .iter()
                .filter(|a| a.col == c)
                .map(|a| a.query)
                .collect();
            direct.clear();
            direct.resize(queries.len(), 0.0);
            let t0 = Instant::now();
            st.estimator
                .selectivity_batch_into(&queries, &mut scratch, &mut direct);
            tr.record(
                batch_span(st.kind),
                t0,
                Instant::now(),
                rep,
                queries.len() as u32,
            );
            staged.clear();
            staged.resize(queries.len(), 0.0);
            built.selectivity_batch_into(&queries, &mut scratch, &mut staged);
            if let Some(i) =
                (0..queries.len()).find(|&i| staged[i].to_bits() != direct[i].to_bits())
            {
                return Err(format!(
                    "stage-by-stage {} query {i}: {:e} but the catalog answers {:e}",
                    col.name, staged[i], direct[i]
                ));
            }
        }
    }
    let mut bytes = 0;
    for rep in 0..REPS {
        let exported = catalog.export();
        bytes = tr
            .span("persist.encode", rep, 0, |_| encode_statistics(&exported))
            .len();
    }
    let mut analyze = [Vec::new(), Vec::new()];
    for _ in 0..REPS {
        for (slot, jobs) in [1, ctx.threads].into_iter().enumerate() {
            let t0 = Instant::now();
            std::hint::black_box(build_publish::analyze(&relation, jobs));
            analyze[slot].push(t0.elapsed().as_secs_f64());
        }
    }
    let mut out = vec![
        (
            "persist.bytes_per_column",
            bytes as f64 / catalog.len() as f64,
        ),
        (
            "par.analyze_speedup",
            stats::median(&analyze[0]) / stats::median(&analyze[1]),
        ),
    ];
    // The serving rungs of n(20)'s kernel column (the serve-cold
    // primary): full kernel, the equi-depth brownout rung built over the
    // same sample, and the uniform floor.
    let snapshot = CatalogSnapshot::from_catalog_ref(&catalog, 0);
    let (_, sc) = snapshot
        .find(relation.name(), &cols[0].name)
        .ok_or("reference kernel column missing")?;
    let brownout = sc
        .brownout_rung()
        .ok_or("kernel column has no brownout rung")?;
    let floor = UniformEstimator::new(sc.domain());
    let rungs: [(&'static str, &dyn SelectivityEstimator); 3] = [
        ("rung.full.mre", sc.estimator()),
        ("rung.brownout.mre", brownout),
        ("rung.floor.mre", &floor),
    ];
    let truth = &cols[0].truth.exact;
    for (name, est) in rungs {
        let mut mre = Mre::default();
        for a in audit.iter().filter(|a| a.col == 0) {
            mre.record(
                a.target,
                truth.count(&a.query) as f64,
                est.selectivity(&a.query) * truth.total() as f64,
            );
        }
        out.push((name, mre.total()));
    }
    Ok(out)
}

/// Pass 5: the ingest probe.
fn ingest_probe(ctx: &Ctx, tr: &mut SpanBuf) -> Result<Writer, String> {
    let probe = Ctx {
        workload: PROBE,
        seed: ctx.seed,
        seconds: ctx.seconds,
        clients: ctx.clients,
        threads: ctx.threads,
        trace: ctx.trace,
        epoch: ctx.epoch,
    };
    let (mut bench, mut writer) = ingest::setup(&probe, tr)?;
    for _ in 0..PROBE_BATCHES {
        let deltas = writer.deltas();
        writer.step(
            tr,
            &deltas,
            &mut bench.catalog,
            &bench.engine,
            &mut bench.store,
        )?;
    }
    Ok(writer)
}

/// Everything the per-layer metrics are drawn from.
pub struct LayerInputs<'a> {
    /// Every span buffer of the run.
    pub buffers: &'a [&'a SpanBuf],
    /// The timed window.
    pub window: &'a WindowOut,
    /// The passes.
    pub pass: &'a PassOut,
    /// The run's accuracy (end state on ingest).
    pub accuracy: &'a Mre,
    /// Engine counter deltas over the window.
    pub engine: &'a [(&'static str, f64)],
    /// The window's writer, on ingest.
    pub writer: Option<&'a Writer>,
    /// Measured cost of one span.
    pub span_cost_ns: f64,
}

/// Spans named `name` with their self times, from the first phase among
/// window, set-up, passes that has any.
fn pick(buffers: &[&SpanBuf], name: &str) -> Vec<(Span, u64)> {
    let all: Vec<(Span, u64)> = buffers
        .iter()
        .flat_map(|b| b.spans().iter().copied().zip(trace::self_times(b.spans())))
        .filter(|(s, _)| s.name == name)
        .collect();
    for phase in [Phase::Window, Phase::Setup, Phase::Pass] {
        let chosen: Vec<_> = all
            .iter()
            .filter(|(s, _)| s.phase == phase)
            .copied()
            .collect();
        if !chosen.is_empty() {
            return chosen;
        }
    }
    Vec::new()
}

fn median_span(buffers: &[&SpanBuf], name: &str, per_second: f64) -> Result<f64, String> {
    let ns: Vec<f64> = pick(buffers, name)
        .iter()
        .map(|(s, _)| s.ns() as f64)
        .collect();
    if ns.is_empty() {
        return Err(format!("no {name} spans recorded"));
    }
    Ok(stats::median(&ns) * per_second / 1e9)
}

fn ns_per_work(buffers: &[&SpanBuf], name: &str) -> Result<f64, String> {
    let spans = pick(buffers, name);
    let ns: u64 = spans.iter().map(|(s, _)| s.ns()).sum();
    let work: u64 = spans.iter().map(|(s, _)| u64::from(s.work)).sum();
    if work == 0 {
        return Err(format!("no {name} spans with work recorded"));
    }
    Ok(ns as f64 / work as f64)
}

/// Assemble every per-layer metric.
pub fn layer_metrics(input: &LayerInputs<'_>) -> Result<Vec<Measured>, String> {
    let b = input.buffers;
    let lookup = |list: &[(&'static str, f64)], name: &str| {
        list.iter()
            .find(|(n, _)| *n == name)
            .map(|(_, v)| *v)
            .ok_or_else(|| format!("{name} not measured"))
    };
    let pass = |name: &str| lookup(&input.pass.values, name);
    let engine = |name: &str| lookup(input.engine, name);
    let writer = input.writer.unwrap_or(&input.pass.probe);
    let pending = &writer.pending_at_sweep;
    let pending_p99 = pending
        .percentile(0.99)
        .ok_or_else(|| format!("{} writer batches are too few for a p99", pending.len()))?;
    let cycles = pick(b, "build.cycle");
    let cycle_ns: u64 = cycles.iter().map(|(s, _)| s.ns()).sum();
    let cycle_self: u64 = cycles.iter().map(|(_, own)| own).sum();
    let window_spans: Vec<usize> = b
        .iter()
        .map(|buf| {
            buf.spans()
                .iter()
                .filter(|s| s.phase == Phase::Window)
                .count()
        })
        .collect();
    let threads = window_spans.iter().filter(|&&n| n > 0).count().max(1);
    let thread_ns = input.window.seconds * 1e9 * threads as f64;
    let spans_recorded: usize = window_spans.iter().sum();
    let us = 1e6;
    let ms = 1e3;
    Ok(vec![
        value(
            "serving.ns_per_query",
            ns_per_work(b, "serving.batch")?,
            None,
        ),
        value("serving.snapshot_ns", pass("serving.snapshot_ns")?, None),
        value(
            "serving.overhead_ns_per_query",
            pass("serving.overhead_ns_per_query")?,
            None,
        ),
        value(
            "serving.cache_hit_ratio",
            engine("serving.cache_hit_ratio")?,
            None,
        ),
        value(
            "serving.cache_conflicts",
            engine("serving.cache_conflicts")?,
            None,
        ),
        value(
            "serving.client_scaling",
            pass("serving.client_scaling")?,
            None,
        ),
        value("serving.admitted", engine("serving.admitted")?, None),
        value("serving.rejected", engine("serving.rejected")?, None),
        value(
            "serving.deadline_refused",
            engine("serving.deadline_refused")?,
            None,
        ),
        value(
            "serving.floor_served",
            engine("serving.floor_served")?,
            None,
        ),
        value(
            "serving.snapshot_build_us",
            median_span(b, "serving.snapshot_build", us)?,
            None,
        ),
        value(
            "serving.publish_us",
            median_span(b, "serving.publish", us)?,
            None,
        ),
        value(
            "serving.republish_us",
            median_span(b, "serving.republish", us)?,
            None,
        ),
        value(
            "serving.republishes_per_1k_batches",
            writer.republishes as f64 * 1e3 / writer.batches.max(1) as f64,
            None,
        ),
        value("kernel.ns_per_query", ns_per_work(b, "kernel.batch")?, None),
        value(
            "histogram.ns_per_query",
            ns_per_work(b, "histogram.batch")?,
            None,
        ),
        value(
            "kernel.bandwidth_us",
            median_span(b, "kernel.bandwidth", us)?,
            None,
        ),
        value("kernel.build_us", median_span(b, "kernel.build", us)?, None),
        value("hybrid.build_us", median_span(b, "hybrid.build", us)?, None),
        value(
            "histogram.max_diff.build_us",
            median_span(b, "histogram.max_diff.build", us)?,
            None,
        ),
        value(
            "histogram.equi_depth.build_us",
            median_span(b, "histogram.equi_depth.build", us)?,
            None,
        ),
        value("core.prepare_us", median_span(b, "core.prepare", us)?, None),
        value("core.exact_ms", median_span(b, "core.exact", ms)?, None),
        value(
            "data.generate_ms",
            median_span(b, "data.generate", ms)?,
            None,
        ),
        value("data.queries_ms", median_span(b, "data.queries", ms)?, None),
        value("par.analyze_speedup", pass("par.analyze_speedup")?, None),
        value(
            "catalog.analyze_ms",
            median_span(b, "catalog.analyze", ms)?,
            None,
        ),
        value(
            "catalog.apply_updates_us",
            median_span(b, "catalog.apply_updates", us)?,
            None,
        ),
        value(
            "catalog.staleness_sweep_us",
            median_span(b, "catalog.staleness_sweep", us)?,
            None,
        ),
        value(
            "catalog.pending_updates_p99",
            pending_p99,
            Some(pending.len()),
        ),
        value(
            "persist.encode_us",
            median_span(b, "persist.encode", us)?,
            None,
        ),
        value(
            "persist.bytes_per_column",
            pass("persist.bytes_per_column")?,
            None,
        ),
        value(
            "durable.publish_ms",
            median_span(b, "durable.publish", ms)?,
            None,
        ),
        value(
            "durable.append_us",
            median_span(b, "durable.append", us)?,
            None,
        ),
        value("rung.full.mre", pass("rung.full.mre")?, None),
        value("rung.brownout.mre", pass("rung.brownout.mre")?, None),
        value("rung.floor.mre", pass("rung.floor.mre")?, None),
        value("mre.sel_lt_1pct", input.accuracy.bucket_mre(0), None),
        value("mre.sel_1_10pct", input.accuracy.bucket_mre(1), None),
        value("mre.sel_ge_10pct", input.accuracy.bucket_mre(2), None),
        value(
            "build.unattributed_pct",
            100.0 * cycle_self as f64 / cycle_ns.max(1) as f64,
            None,
        ),
        value(
            "trace.overhead_pct",
            100.0 * spans_recorded as f64 * input.span_cost_ns / thread_ns.max(1.0),
            None,
        ),
    ])
}
