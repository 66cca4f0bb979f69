//! Chaos tests: deterministic seeded fault injection against the serving
//! path. The contract under test is the serving engine's promise —
//! *every* query gets a finite selectivity in `[0, 1]`, no panic crosses
//! the engine, and the health counters tell the truth about what was
//! absorbed (floored slots, breaker trips, quarantined columns).

use std::sync::{Arc, Once};

use selest_core::fault::EstimateError;
use selest_core::{Domain, RangeQuery, SelectivityEstimator, UniformEstimator};
use selest_store::catalog::{AnalyzeConfig, EstimatorKind, StatisticsCatalog};
use selest_store::faultinject::{FailingEstimator, FailureMode, FaultInjector};
use selest_store::persist;
use selest_store::{
    try_plan_range_query, BreakerState, CatalogSnapshot, Column, OverloadOptions, Relation,
    ServeRung, ServedEstimate, ServingColumn, ServingEngine, ServingOptions, ServingScratch,
};

/// Injected panics are expected here; keep them out of the test output.
fn silence_panics() {
    static ONCE: Once = Once::new();
    ONCE.call_once(|| std::panic::set_hook(Box::new(|_| {})));
}

/// A deterministic query workload sweeping positions and widths.
fn workload(domain: &Domain, n: usize) -> Vec<RangeQuery> {
    (0..n)
        .map(|i| {
            let t = i as f64 / n as f64;
            let center = domain.lerp((t * 7.31) % 1.0);
            RangeQuery::centered(domain, center, 0.01 + 0.5 * t)
        })
        .collect()
}

/// An engine whose load tier never leaves `Normal` (no wall-clock latency
/// observation) and whose breakers trip after `breaker_threshold`
/// consecutive primary faults.
fn engine(breaker_threshold: u32) -> ServingEngine {
    ServingEngine::new(ServingOptions {
        shards: 1,
        overload: OverloadOptions {
            auto_observe: false,
            breaker_threshold,
            ..Default::default()
        },
        ..Default::default()
    })
}

/// Serve the 200-query workload against `t.x` as one batch, asserting
/// every slot answers with a finite selectivity in `[0, 1]`.
fn assert_serves_everything(
    engine: &ServingEngine,
    domain: &Domain,
    label: &str,
) -> Vec<ServedEstimate> {
    let qs = workload(domain, 200);
    let mut out = Vec::new();
    engine.estimate_batch_with("t", "x", &qs, None, &mut ServingScratch::new(), &mut out);
    qs.iter()
        .zip(out)
        .map(|(q, slot)| {
            let s = slot.unwrap_or_else(|e| panic!("{label}: {q} refused: {e}"));
            assert!(
                s.value.is_finite() && (0.0..=1.0).contains(&s.value),
                "{label}: {q} got selectivity {}",
                s.value
            );
            s
        })
        .collect()
}

/// ANALYZE column `t.x` holding `sample` through the catalog bulkhead and
/// publish it the way production does, quarantined columns degraded to
/// their uniform floor.
fn analyzed(sample: &[f64], domain: Domain, config: &AnalyzeConfig) -> (Relation, ServingEngine) {
    let mut relation = Relation::new("t");
    relation.add_column(Column::new_unchecked("x", domain, sample.to_vec()));
    let mut catalog = StatisticsCatalog::new();
    catalog.try_analyze(&relation, config);
    let engine = engine(5);
    engine.publish_snapshot(CatalogSnapshot::from_catalog_for(&relation, catalog, 0));
    (relation, engine)
}

/// Publish `primary` as the estimator of a cheap-kind column `t.x` (no
/// brownout rung) behind the engine.
fn publish_primary(engine: &ServingEngine, primary: Arc<FailingEstimator>, domain: Domain) {
    let column = ServingColumn::new(
        "t",
        "x",
        primary,
        1_000,
        EstimatorKind::Sampling,
        domain,
        Vec::new().into(),
    );
    engine.publish_snapshot(CatalogSnapshot::from_columns(vec![column], 0));
}

#[test]
fn every_kind_survives_poisoned_samples_at_every_severity() {
    silence_panics();
    let domain = Domain::new(0.0, 1_000.0);
    let base: Vec<f64> = (0..2_000)
        .map(|i| domain.lerp((i as f64 + 0.5) / 2_000.0))
        .collect();
    for kind in EstimatorKind::ALL {
        for (seed, fraction) in [(1u64, 0.05), (2, 0.25), (3, 0.75), (4, 1.0)] {
            let mut sample = base.clone();
            let report = FaultInjector::new(seed).corrupt_sample(&mut sample, &domain, fraction);
            // The reservoir keeps the whole column, so the audit sees
            // every corrupted value.
            let config = AnalyzeConfig {
                kind,
                sample_size: sample.len(),
                ..Default::default()
            };
            let (relation, engine) = analyzed(&sample, domain, &config);
            let label = format!("{kind:?} seed {seed} fraction {fraction}");
            assert_serves_everything(&engine, &domain, &label);

            // The audit must account exactly for the damage present in the
            // corrupted sample (injections can overwrite each other, so we
            // count the sample, not the injection attempts).
            let non_finite = sample.iter().filter(|v| !v.is_finite()).count();
            let out_of_domain = sample
                .iter()
                .filter(|v| v.is_finite() && !domain.contains(**v))
                .count();
            assert!(report.total() >= non_finite + out_of_domain, "{label}");
            let audit = StatisticsCatalog::new().try_analyze_column(&relation, "x", &config);
            match audit {
                Ok(audit) if kind != EstimatorKind::Uniform => {
                    assert_eq!(audit.non_finite, non_finite, "{label}");
                    assert_eq!(audit.out_of_domain, out_of_domain, "{label}");
                    assert_eq!(audit.kept, sample.len() - non_finite - out_of_domain);
                }
                Ok(_) => {}
                // Nothing survived sanitization: the column quarantined
                // and the floor served it above.
                Err(e) => {
                    assert_eq!(e, EstimateError::EmptySample, "{label}");
                    assert_eq!(non_finite + out_of_domain, sample.len(), "{label}");
                }
            }
        }
    }
}

#[test]
fn fully_poisoned_sample_degrades_to_uniform_and_reports_it() {
    silence_panics();
    let domain = Domain::new(0.0, 100.0);
    let mut sample = vec![50.0; 500];
    // fraction 1.0 with repeated overwrites still leaves only garbage and
    // one value class; drive it fully bad by injecting twice.
    let mut inj = FaultInjector::new(99);
    inj.corrupt_sample(&mut sample, &domain, 1.0);
    sample.iter_mut().for_each(|v| {
        if v.is_finite() && domain.contains(*v) {
            *v = f64::NAN;
        }
    });
    let config = AnalyzeConfig {
        kind: EstimatorKind::Kernel,
        ..Default::default()
    };
    let (_, engine) = analyzed(&sample, domain, &config);
    let health = engine.health();
    assert_eq!(
        health.catalog.quarantined.len(),
        1,
        "the column quarantines"
    );
    let failure = &health.catalog.quarantined[0].failure;
    assert_eq!(failure.kind, EstimatorKind::Kernel);
    assert_eq!(failure.error, EstimateError::EmptySample);
    let snap = engine.snapshot();
    let (_, col) = snap.find("t", "x").expect("degraded entry serves");
    assert!(col.quarantined());
    assert_eq!(col.kind(), EstimatorKind::Uniform);
    let uniform = UniformEstimator::new(domain);
    for (q, s) in workload(&domain, 200).iter().zip(assert_serves_everything(
        &engine,
        &domain,
        "fully poisoned",
    )) {
        assert_eq!(s.rung, ServeRung::Full, "the floor is the primary");
        assert_eq!(s.value.to_bits(), uniform.selectivity(q).to_bits());
    }
}

#[test]
fn estimator_panics_never_cross_the_serving_engine() {
    silence_panics();
    let domain = Domain::new(0.0, 100.0);
    // A primary that panics, one that returns garbage, one that returns
    // an infinity: each must be absorbed by the floor, charge its
    // breaker, and — once the breaker is open — not be consulted again.
    for mode in [
        FailureMode::PanicAlways,
        FailureMode::Return(f64::NAN),
        FailureMode::Return(f64::INFINITY),
    ] {
        let engine = engine(1);
        let primary = Arc::new(FailingEstimator::new(domain, mode));
        publish_primary(&engine, Arc::clone(&primary), domain);
        let q = RangeQuery::new(0.0, 50.0);
        let s = engine
            .try_estimate_with("t", "x", &q, None)
            .expect("must answer");
        assert_eq!((s.value, s.rung), (0.5, ServeRung::Floor), "{mode:?}");
        let health = engine.health();
        assert_eq!(health.breakers[0].trips, 1, "{mode:?}: one fault charged");
        assert_eq!(health.breakers[0].state, BreakerState::Open);
        let s = engine.try_estimate_with("t", "x", &q, None).unwrap();
        assert_eq!(s.rung, ServeRung::Floor, "{mode:?}");
        assert_eq!(
            primary.calls(),
            1,
            "{mode:?}: an open breaker skips the primary"
        );
        assert_eq!(engine.health().floor_served, 2);
    }
}

#[test]
fn repeated_faults_open_the_breaker_with_accurate_counters() {
    silence_panics();
    let domain = Domain::new(0.0, 10.0);
    let engine = engine(1);
    let primary = Arc::new(FailingEstimator::new(domain, FailureMode::PanicAlways));
    publish_primary(&engine, Arc::clone(&primary), domain);
    let q = RangeQuery::new(0.0, 5.0);
    assert_eq!(engine.try_estimate("t", "x", &q).unwrap(), 0.5);
    let health = engine.health();
    assert_eq!(health.breakers[0].state, BreakerState::Open);
    assert_eq!(health.breakers[0].trips, 1);
    assert_eq!(health.floor_served, 1);
    // The open breaker floors the whole next batch without a call.
    let served = assert_serves_everything(&engine, &domain, "open breaker");
    assert!(served.iter().all(|s| s.rung == ServeRung::Floor));
    assert_eq!(primary.calls(), 1);
    assert_eq!(engine.health().floor_served, 201);
}

#[test]
fn healthy_rung_after_warmup_panics_mid_serving() {
    silence_panics();
    let domain = Domain::new(0.0, 100.0);
    let engine = engine(5);
    let primary = Arc::new(FailingEstimator::new(domain, FailureMode::PanicAfter(50)));
    publish_primary(&engine, primary, domain);
    // The first 50 queries come from the healthy primary, the rest from
    // the floor — all of them must be finite and in range.
    let served = assert_serves_everything(&engine, &domain, "mid-flight failure");
    for (i, s) in served.iter().enumerate() {
        let rung = if i < 50 {
            ServeRung::Full
        } else {
            ServeRung::Floor
        };
        assert_eq!(s.rung, rung, "slot {i}");
    }
    let health = engine.health();
    assert_eq!(health.floor_served, 150);
    assert_eq!(health.breakers[0].trips, 1, "the primary died once");
    assert_eq!(health.breakers[0].state, BreakerState::Open);
}

/// Build a small two-column catalog and persist it.
fn persisted_catalog() -> (Relation, String) {
    let domain = Domain::new(0.0, 1_000.0);
    let mut r = Relation::new("t");
    let dense: Vec<f64> = (0..5_000)
        .map(|i| 100.0 * (i as f64 + 0.5) / 5_000.0)
        .collect();
    let wide: Vec<f64> = (0..5_000)
        .map(|i| 1_000.0 * (i as f64 + 0.5) / 5_000.0)
        .collect();
    r.add_column(Column::new("dense", domain, dense));
    r.add_column(Column::new("wide", domain, wide));
    let mut cat = StatisticsCatalog::new();
    cat.try_analyze(
        &r,
        &AnalyzeConfig {
            kind: EstimatorKind::MaxDiff,
            ..Default::default()
        },
    );
    let text = persist::encode(&cat.export());
    (r, text)
}

#[test]
fn damaged_statistics_files_never_panic_the_loader() {
    let (_r, text) = persisted_catalog();
    for seed in 0..200u64 {
        let mut inj = FaultInjector::new(seed);
        let damaged = if seed % 2 == 0 {
            inj.truncate_text(&text)
        } else {
            let mut t = text.clone();
            for _ in 0..(seed % 7 + 1) {
                t = inj.bitflip_text(&t);
            }
            t
        };
        // Strict decode: Ok or typed error, never a panic or a silently
        // truncated result.
        match persist::decode(&damaged) {
            Ok(entries) => {
                // A flip that survives the checksum must still rebuild
                // into a serving estimator or produce a typed error.
                for e in &entries {
                    let _ = e.try_rebuild();
                }
            }
            Err(e) => {
                let msg = e.to_string();
                assert!(
                    msg.contains("line"),
                    "error should locate the damage: {msg}"
                );
            }
        }
        // Lenient decode: whatever survives must import and serve.
        if let Ok(report) = persist::decode_lenient(&damaged) {
            let mut cat = StatisticsCatalog::new();
            let failures = cat.try_import(report.entries);
            for (_rel, _col, err) in &failures {
                let _ = err.to_string(); // typed, displayable
            }
            for col in ["dense", "wide"] {
                if let Some(st) = cat.statistics("t", col) {
                    let s = st.estimator.selectivity(&RangeQuery::new(0.0, 500.0));
                    assert!(
                        s.is_finite() && (0.0..=1.0).contains(&s),
                        "seed {seed} {col}"
                    );
                }
            }
        }
    }
}

#[test]
fn planner_answers_or_errors_cleanly_after_catalog_damage() {
    let (r, text) = persisted_catalog();
    for seed in 0..50u64 {
        let damaged = FaultInjector::new(seed).truncate_text(&text);
        let Ok(report) = persist::decode_lenient(&damaged) else {
            continue;
        };
        let mut cat = StatisticsCatalog::new();
        let _ = cat.try_import(report.entries);
        for col in ["dense", "wide"] {
            for q in workload(&Domain::new(0.0, 1_000.0), 20) {
                match try_plan_range_query(&cat, &r, col, &q) {
                    Ok(plan) => {
                        assert!(plan.estimated_rows.is_finite());
                        assert!((0.0..=r.n_rows() as f64).contains(&plan.estimated_rows));
                        assert!(plan.estimated_cost.is_finite());
                    }
                    Err(e) => {
                        // The only acceptable failure is absent statistics
                        // for a column whose entry was damaged.
                        assert!(
                            e.to_string().contains("run ANALYZE"),
                            "seed {seed}: unexpected planner error {e}"
                        );
                    }
                }
            }
        }
    }
}

#[test]
fn chaos_runs_are_reproducible() {
    // The whole suite above relies on seeded determinism; spot-check it
    // end to end: same seed, same damage, same surviving entries.
    let (_r, text) = persisted_catalog();
    let survivors = |seed: u64| -> Vec<String> {
        let damaged = FaultInjector::new(seed).truncate_text(&text);
        match persist::decode_lenient(&damaged) {
            Ok(report) => report
                .entries
                .into_iter()
                .map(|e| e.column.to_string())
                .collect(),
            Err(_) => Vec::new(),
        }
    };
    for seed in [3u64, 17, 40021] {
        assert_eq!(survivors(seed), survivors(seed), "seed {seed}");
    }
}
