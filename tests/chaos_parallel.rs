//! Seeded chaos tests for the fault-tolerant parallel serving path.
//!
//! Every fault here is drawn from `SELEST_CHAOS_SEED` (default
//! `0xC0FFEE`) through the seeded `FaultInjector`, so a failing seed is a
//! repro command, not a flake (`scripts/chaos_sweep.sh` sweeps seeds and
//! prints exactly that command). Three guarantees are pinned across the
//! engine (`try_parallel_map` over fixed chunks), the estimator API
//! (`try_selectivity_batch`), the serving engine's rungs, and the catalog
//! bulkhead (`try_analyze`):
//!
//! 1. surviving results are bit-identical to a fault-free run for any
//!    worker count (jobs ∈ {1, 2, 7});
//! 2. faulted work surfaces typed errors / quarantine records, never a
//!    process abort;
//! 3. tasks abandoned by a deadline come back as partial results.

use selest::par::{parallel_chunks_jobs, try_parallel_map, Deadline, TaskFault, TryConfig};
use selest::store::{
    AnalyzeConfig, BreakerState, CatalogSnapshot, Column, EstimatorKind, FailingEstimator,
    FailureMode, FaultInjector, Relation, ServeRung, ServedEstimate, ServingColumn, ServingEngine,
    ServingHealthReport, ServingScratch, StatisticsCatalog,
};
use selest::{
    BoundaryPolicy, Domain, EstimateError, KernelEstimator, KernelFn, RangeQuery,
    SelectivityEstimator,
};

const JOBS: [usize; 3] = [1, 2, 7];
const CHUNK: usize = 16;

fn chaos_seed() -> u64 {
    std::env::var("SELEST_CHAOS_SEED")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(0xC0_FF_EE)
}

/// Deterministic pseudo-random data with duplicates and clusters.
fn data(n: usize) -> Vec<f64> {
    let mut x = 0x9e37u64;
    (0..n)
        .map(|i| {
            x = x
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let u = (x >> 11) as f64 / (1u64 << 53) as f64;
            if i % 7 == 0 {
                250.0
            } else {
                1000.0 * u
            }
        })
        .collect()
}

fn queries(n: usize) -> Vec<RangeQuery> {
    (0..n)
        .map(|i| {
            let a = (i as f64 * 37.5) % 950.0;
            RangeQuery::new(a, (a + 20.0 + (i % 5) as f64 * 60.0).min(1000.0))
        })
        .collect()
}

/// A column where *every* value is unsalvageable (non-finite or far out
/// of the `[0, 1000]` domain), cycling the damage classes from a seeded
/// offset. `FaultInjector::corrupt_sample` draws indices with
/// replacement, so even at fraction 1.0 some values survive — total
/// poisoning has to be constructed, not sampled.
fn full_garbage(n: usize, seed: u64) -> Vec<f64> {
    (0..n)
        .map(|i| match (i + seed as usize) % 4 {
            0 => f64::NAN,
            1 => f64::INFINITY,
            2 => f64::NEG_INFINITY,
            _ => 1e9,
        })
        .collect()
}

/// Kahan-summed chunk statistic, sensitive to order and grouping.
fn chunk_stat(chunk: &[f64]) -> f64 {
    let (mut sum, mut comp) = (0.0f64, 0.0f64);
    for &v in chunk {
        let y = (v * 1.000_000_1).sqrt() - comp;
        let t = sum + y;
        comp = (t - sum) - y;
        sum = t;
    }
    sum - comp
}

// -------------------------------------------------------------------------
// 1. Engine: panic-isolated chunks, survivors bit-identical across jobs
// -------------------------------------------------------------------------

#[test]
fn poisoned_chunks_are_isolated_and_survivors_are_bit_identical() {
    let items = data(400);
    let n_chunks = items.len().div_ceil(CHUNK);
    let victims = FaultInjector::new(chaos_seed()).fault_plan(n_chunks, 3);
    // Fault-free reference, per chunk.
    let reference = parallel_chunks_jobs(&items, CHUNK, 1, chunk_stat);
    let chunks: Vec<&[f64]> = items.chunks(CHUNK).collect();
    for jobs in JOBS {
        let outcome = try_parallel_map(&chunks, &TryConfig::jobs(jobs), |chunk| {
            // Recover the chunk index from the slice's position in the
            // backing array: chunk boundaries are fixed by construction.
            let c = (chunk.as_ptr() as usize - items.as_ptr() as usize)
                / (CHUNK * std::mem::size_of::<f64>());
            assert!(!victims.contains(&c), "injected chunk failure (chunk {c})");
            chunk_stat(chunk)
        });
        assert_eq!(outcome.len(), n_chunks, "jobs={jobs}");
        for (c, slot) in outcome.iter().enumerate() {
            if victims.contains(&c) {
                let err = slot.as_ref().expect_err("victim chunk must fail");
                assert_eq!(err.task, c);
                assert!(matches!(err.fault, TaskFault::Panicked { ref message }
                        if message.contains("injected chunk failure")));
            } else {
                let v = slot.as_ref().unwrap_or_else(|e| panic!("chunk {c}: {e}"));
                assert_eq!(
                    v.to_bits(),
                    reference[c].to_bits(),
                    "jobs={jobs} chunk {c}: survivor drifted from fault-free run"
                );
            }
        }
    }
}

// -------------------------------------------------------------------------
// 2. Engine: slow tasks under a deadline return partial results
// -------------------------------------------------------------------------

#[test]
fn expired_deadline_returns_typed_partial_results_not_a_hang() {
    let items = data(100);
    let slow = FaultInjector::new(chaos_seed())
        .slow_estimator(Domain::new(0.0, 1000.0), 200)
        .name(); // draw consumed; the estimator itself is exercised below
    assert!(slow.starts_with("Failing(Slow("));
    let chunks: Vec<&[f64]> = items.chunks(CHUNK).collect();
    for jobs in JOBS {
        let cfg = TryConfig::jobs(jobs).with_deadline(Deadline::already_expired());
        let outcome = try_parallel_map(&chunks, &cfg, |c| chunk_stat(c));
        assert_eq!(outcome.len(), chunks.len());
        for slot in &outcome {
            let err = slot.as_ref().expect_err("no chunk runs after expiry");
            assert!(matches!(err.fault, TaskFault::Deadline));
            assert_eq!(err.attempts, 0, "no attempt started after expiry");
        }
        // A live deadline on the same workload completes in full.
        let cfg = TryConfig::jobs(jobs).with_deadline(Deadline::never());
        let outcome = try_parallel_map(&chunks, &cfg, |c| chunk_stat(c));
        assert!(outcome.iter().all(Result::is_ok));
    }
}

// -------------------------------------------------------------------------
// 3. Estimator API: try_selectivity_batch isolates poisoned queries
// -------------------------------------------------------------------------

#[test]
fn kernel_try_batch_survivors_match_fault_free_batch() {
    let sample = data(600);
    let est = KernelEstimator::new(
        &sample,
        Domain::new(0.0, 1000.0),
        KernelFn::Epanechnikov,
        25.0,
        BoundaryPolicy::Reflection,
    );
    let clean = queries(80);
    let reference = est.selectivity_batch(&clean);
    let victims = FaultInjector::new(chaos_seed()).fault_plan(clean.len(), 4);
    let degenerate = [
        RangeQuery::unchecked(f64::NAN, 1.0),
        RangeQuery::unchecked(0.0, f64::INFINITY),
        RangeQuery::unchecked(9.0, 4.0),
        RangeQuery::unchecked(f64::NEG_INFINITY, f64::NAN),
    ];
    let mut poisoned = clean.clone();
    for (k, &i) in victims.iter().enumerate() {
        poisoned[i] = degenerate[k % degenerate.len()];
    }
    let out = est.try_selectivity_batch(&poisoned);
    assert_eq!(out.len(), poisoned.len());
    for (i, slot) in out.iter().enumerate() {
        if victims.contains(&i) {
            assert!(
                matches!(slot, Err(EstimateError::InvalidQuery { .. })),
                "query {i} should be rejected, got {slot:?}"
            );
        } else {
            let v = slot.as_ref().unwrap_or_else(|e| panic!("query {i}: {e}"));
            assert_eq!(
                v.to_bits(),
                reference[i].to_bits(),
                "query {i}: survivor drifted from fault-free batch"
            );
        }
    }
}

// -------------------------------------------------------------------------
// 4. Serving rungs: a seeded panicking primary floors, batch completes
// -------------------------------------------------------------------------

/// Serve one batch from `failing`, published as the primary of a
/// cheap-kind column (no brownout rung) through the production engine.
fn serve_through_engine(
    failing: FailingEstimator,
    d: Domain,
    qs: &[RangeQuery],
) -> (
    Vec<Result<ServedEstimate, EstimateError>>,
    ServingHealthReport,
) {
    let column = ServingColumn::new(
        "chaos",
        "x",
        std::sync::Arc::new(failing),
        1_000,
        EstimatorKind::Sampling,
        d,
        Vec::new().into(),
    );
    let engine = ServingEngine::with_defaults();
    engine.publish_snapshot(CatalogSnapshot::from_columns(vec![column], 1));
    let mut out = Vec::new();
    engine.estimate_batch_with("chaos", "x", qs, None, &mut ServingScratch::new(), &mut out);
    (out, engine.health())
}

#[test]
fn panicking_rung_degrades_mid_batch_and_every_query_still_answers() {
    let d = Domain::new(0.0, 1000.0);
    let failing = FaultInjector::new(chaos_seed()).panicking_estimator(d, 10);
    let Some(FailureMode::PanicAfter(healthy)) = failing_mode_of(&failing.name()) else {
        panic!("seeded draw must be a PanicAfter estimator");
    };
    let qs = queries(40);
    let (out, health) = serve_through_engine(failing, d, &qs);
    assert_eq!(out.len(), qs.len());
    for (i, (q, slot)) in qs.iter().zip(&out).enumerate() {
        // The primary (while healthy) and the floor both serve the
        // uniform overlap, so every answer is the overlap fraction
        // regardless of where in the batch the primary died.
        let s = slot
            .as_ref()
            .expect("the engine always answers valid queries");
        assert!((s.value - q.width() / 1000.0).abs() < 1e-12);
        let rung = if i < healthy {
            ServeRung::Full
        } else {
            ServeRung::Floor
        };
        assert_eq!(s.rung, rung, "slot {i} of a primary healthy for {healthy}");
    }
    assert_eq!(health.floor_served, (qs.len() - healthy) as u64);
    // The faults are charged to the column's breaker, which trips once
    // and then absorbs the rest of the batch.
    assert_eq!(health.breakers[0].trips, 1, "exactly one trip charged");
    assert_eq!(health.breakers[0].state, BreakerState::Open);
}

/// Parse the `FailureMode` back out of a `FailingEstimator` name — just
/// enough to assert which damage class a seeded draw produced.
fn failing_mode_of(name: &str) -> Option<FailureMode> {
    let inner = name.strip_prefix("Failing(")?.strip_suffix(')')?;
    if let Some(n) = inner.strip_prefix("PanicAfter(") {
        return Some(FailureMode::PanicAfter(n.strip_suffix(')')?.parse().ok()?));
    }
    None
}

// -------------------------------------------------------------------------
// 5. Catalog bulkhead: poisoned column quarantined, survivors byte-identical
// -------------------------------------------------------------------------

#[test]
fn bulkheaded_analyze_quarantines_the_poisoned_column_and_serves_the_rest() {
    let d = Domain::new(0.0, 1000.0);
    let clean_a = data(800);
    let clean_b: Vec<f64> = data(800).iter().map(|v| 1000.0 - v).collect();
    // Poison one column entirely — every value non-finite or out of
    // domain, cycling the damage classes from a seeded offset — so
    // sanitization leaves nothing and the column must quarantine.
    let poisoned = full_garbage(800, chaos_seed());
    let mut relation = Relation::new("chaos");
    relation.add_column(Column::new("a", d, clean_a.clone()));
    relation.add_column(Column::new_unchecked("poisoned", d, poisoned));
    relation.add_column(Column::new("b", d, clean_b.clone()));
    let cfg = AnalyzeConfig {
        kind: EstimatorKind::Sampling,
        ..Default::default()
    };
    // Fault-free reference catalog over just the surviving columns.
    let mut survivors = Relation::new("chaos");
    survivors.add_column(Column::new("a", d, clean_a));
    survivors.add_column(Column::new("b", d, clean_b));
    let mut reference = StatisticsCatalog::new();
    assert!(reference.try_analyze(&survivors, &cfg).is_healthy());
    let reference_bytes = selest::store::encode_statistics(&reference.export());
    for jobs in JOBS {
        let mut cat = StatisticsCatalog::new();
        let health = cat.try_analyze_jobs(&relation, &cfg, jobs);
        assert_eq!(health.entries, 2, "jobs={jobs}");
        assert_eq!(health.quarantined.len(), 1);
        let q = &health.quarantined[0];
        assert_eq!(
            (q.relation.as_str(), q.column.as_str()),
            ("chaos", "poisoned")
        );
        assert_eq!(q.failure.error, EstimateError::EmptySample);
        // The partial catalog is servable and its export is byte-identical
        // to a fault-free ANALYZE of the surviving columns.
        assert!(cat.statistics("chaos", "a").is_some());
        assert!(cat.statistics("chaos", "b").is_some());
        assert_eq!(
            selest::store::encode_statistics(&cat.export()),
            reference_bytes,
            "jobs={jobs}: surviving columns must export byte-identically"
        );
    }
}

// -------------------------------------------------------------------------
// 6. Acceptance: one chaos run drives estimator + catalog faults together
// -------------------------------------------------------------------------

#[test]
fn seeded_chaos_run_completes_batch_and_catalog_with_typed_faults() {
    let d = Domain::new(0.0, 1000.0);
    let mut inj = FaultInjector::new(chaos_seed());
    // One panicking estimator in a served batch...
    let failing = inj.panicking_estimator(d, 3);
    let (answers, health) = serve_through_engine(failing, d, &queries(30));
    assert!(answers.iter().all(|s| s.is_ok()), "batch completes");
    assert!(health.floor_served > 0, "the dead primary's slots floor");
    assert_eq!(health.breakers[0].trips, 1, "and charge its breaker");
    // ...and one fully poisoned column in an ANALYZE, same seed.
    let poisoned = full_garbage(300, chaos_seed());
    let mut relation = Relation::new("t");
    relation.add_column(Column::new("ok", d, data(300)));
    relation.add_column(Column::new_unchecked("bad", d, poisoned));
    let mut cat = StatisticsCatalog::new();
    let health = cat.try_analyze(
        &relation,
        &AnalyzeConfig {
            kind: EstimatorKind::Sampling,
            ..Default::default()
        },
    );
    assert_eq!(health.entries, 1);
    assert_eq!(health.quarantined.len(), 1);
    assert_eq!(health.quarantined[0].column, "bad");
    assert!(
        cat.statistics("t", "ok").is_some(),
        "partial catalog serves"
    );
}
