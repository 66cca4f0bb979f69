//! Integration tests for the sharded serving engine (`store::serving`).
//!
//! Three guarantees are pinned from the outside, through the public facade:
//!
//! 1. **No torn reads under concurrent publication.** Reader threads
//!    hammer a [`ServingEngine`] while a background publisher alternates
//!    clean and poisoned rebuilds of the same relation. Every batch a
//!    reader observes must be bit-identical to a sequential evaluation of
//!    *one* published snapshot — never a hybrid of two generations — and
//!    a quarantined column answers `MissingStatistics` in every slot,
//!    never stale kernel estimates. At every client count from 1 to
//!    16, batches served while rebuilds of the same relation keep
//!    publishing match the sequential reference bit for bit.
//! 2. **The estimate cache is an invisible optimization.** Warm results
//!    repeat cold results bit-for-bit, a snapshot swap invalidates the
//!    cache wholesale (never-stale), and an adversarial stream of
//!    all-distinct queries cannot grow the cache beyond its fixed slot
//!    count.
//! 3. **Serving adds nothing to the estimate.** Boundary-kernel columns
//!    over the paper's files answer through the engine bit-for-bit like a
//!    kernel estimator built directly from the column's sample, and the
//!    single-query path is the one-slot batch path — same bits, same rung,
//!    same counters. A query repeated inside one batch is evaluated once.

use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::thread;

use selest::par::TryConfig;
use selest::store::{AnalyzeConfig, CatalogHealthReport, Column, Relation, StatisticsCatalog};
use selest::{
    CatalogSnapshot, Domain, EstimateError, PaperFile, RangeQuery, ServingEngine, ServingOptions,
    ServingScratch,
};

const DOMAIN: (f64, f64) = (0.0, 1_000.0);
const COLUMNS: [&str; 4] = ["w", "x", "y", "z"];
const QUERIES: usize = 48;

fn domain() -> Domain {
    Domain::new(DOMAIN.0, DOMAIN.1)
}

/// Deterministic clustered data, distinct per column index.
fn rows(variant: u64) -> Vec<f64> {
    let mut s = 0x9e37u64 ^ variant.wrapping_mul(0x517c_c1b7_2722_0a95);
    (0..1_500)
        .map(|i| {
            s = s
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let u = (s >> 11) as f64 / (1u64 << 53) as f64;
            if i % 11 == 0 {
                700.0
            } else {
                1_000.0 * u
            }
        })
        .collect()
}

/// Every value unsalvageable, so sanitization leaves nothing and the
/// column must quarantine (same construction as `tests/chaos_parallel.rs`).
fn full_garbage(n: usize) -> Vec<f64> {
    (0..n)
        .map(|i| match i % 4 {
            0 => f64::NAN,
            1 => f64::INFINITY,
            2 => f64::NEG_INFINITY,
            _ => 1e9,
        })
        .collect()
}

/// The relation under test; `poison` swaps column `x` for full garbage.
fn relation(poison: bool) -> Arc<Relation> {
    let d = domain();
    let mut r = Relation::new("chaos");
    for (i, name) in COLUMNS.iter().enumerate() {
        if poison && *name == "x" {
            r.add_column(Column::new_unchecked(name, d, full_garbage(1_500)));
        } else {
            r.add_column(Column::new(name, d, rows(i as u64)));
        }
    }
    Arc::new(r)
}

fn queries() -> Vec<RangeQuery> {
    let d = domain();
    (0..QUERIES)
        .map(|i| {
            let c = 1_000.0 * (i as f64 * 0.618_033_988_749_894_9).fract();
            RangeQuery::centered(&d, c, 0.05 + 0.25 * (i as f64 * 0.317).fract())
        })
        .collect()
}

fn config() -> AnalyzeConfig {
    AnalyzeConfig {
        sample_size: 256,
        ..Default::default()
    }
}

/// Sequential per-column reference bits for one relation variant: a
/// single-threaded bulkheaded ANALYZE frozen as the engine freezes it,
/// evaluated per query with no cache and no pool. `None` for a column
/// without a serving entry (quarantined).
fn reference_bits(rel: &Arc<Relation>) -> HashMap<&'static str, Option<Vec<u64>>> {
    let mut cat = StatisticsCatalog::new();
    cat.try_analyze_jobs(rel, &config(), 1);
    let snap = CatalogSnapshot::from_catalog_ref(&cat, 1);
    let qs = queries();
    COLUMNS
        .iter()
        .map(|&name| {
            let bits = snap.find("chaos", name).map(|(_, col)| {
                qs.iter()
                    .map(|q| col.estimator().selectivity(q).to_bits())
                    .collect()
            });
            (name, bits)
        })
        .collect()
}

/// What one served batch showed: `Some(bits)` when every slot answered,
/// `None` when every slot refused as `MissingStatistics`. Any other
/// mixture fails the test.
fn observed(name: &str, out: &[Result<f64, EstimateError>]) -> Option<Vec<u64>> {
    let missing = |r: &Result<f64, EstimateError>| matches!(r, Err(EstimateError::MissingStatistics { column, .. }) if column == name);
    if out.iter().all(missing) {
        return None;
    }
    Some(
        out.iter()
            .map(|r| match r {
                Ok(v) => v.to_bits(),
                Err(e) => panic!("{name}: a batch mixed answers with {e}"),
            })
            .collect(),
    )
}

/// ANALYZE `rel` into a fresh catalog on `engine`'s workers, freeze it
/// (a quarantined column has no serving entry) and publish it. Returns
/// the published generation and the snapshot's health.
fn analyze_and_publish(
    engine: &ServingEngine,
    rel: &Relation,
    config: &AnalyzeConfig,
    jobs: &TryConfig,
) -> (u64, CatalogHealthReport) {
    let mut cat = StatisticsCatalog::new();
    cat.try_analyze_with(rel, config, jobs);
    let snapshot = CatalogSnapshot::from_catalog_ref(&cat, 0);
    let health = snapshot.health();
    (engine.publish_snapshot(snapshot), health)
}

// -------------------------------------------------------------------------
// 1. Concurrent chaos: readers vs. alternating clean/poisoned publications
// -------------------------------------------------------------------------

#[test]
fn concurrent_readers_never_observe_torn_or_stale_estimates() {
    let clean = relation(false);
    let poisoned = relation(true);
    let clean_ref = reference_bits(&clean);
    let poisoned_ref = reference_bits(&poisoned);
    // Clean columns are analyzed from identical data and config in both
    // variants, so only the poisoned column may differ between the two
    // reference tables; the test below relies on that to attribute each
    // observed batch to exactly one variant.
    for name in COLUMNS {
        assert!(clean_ref[name].is_some(), "{name} serves when clean");
        if name == "x" {
            assert!(
                poisoned_ref[name].is_none(),
                "the poisoned column must stop serving"
            );
        } else {
            assert_eq!(clean_ref[name], poisoned_ref[name]);
        }
    }

    let engine = ServingEngine::new(ServingOptions {
        shards: 3,
        cache_bits: 8,
        ..Default::default()
    });
    // generation -> was this publish poisoned? Recorded by the publisher
    // right after each publish; a reader that observes a generation not
    // yet in the map (the record race window) accepts either variant —
    // both are real published snapshots, so neither is torn.
    let published: Mutex<HashMap<u64, bool>> = Mutex::new(HashMap::new());
    let stop = AtomicBool::new(false);
    let qs = queries();

    // Publish a first snapshot so readers never see the empty catalog.
    let (generation, _) = analyze_and_publish(&engine, &clean, &config(), &TryConfig::default());
    published.lock().unwrap().insert(generation, false);

    thread::scope(|scope| {
        let publisher = scope.spawn(|| {
            let mut publishes = 0u64;
            for round in 0..12 {
                let poison = round % 2 == 1;
                let rel = if poison { &poisoned } else { &clean };
                let (generation, health) =
                    analyze_and_publish(&engine, rel, &config(), &TryConfig::default());
                assert_eq!(
                    health.quarantined.len(),
                    usize::from(poison),
                    "poisoned rebuilds quarantine exactly column x"
                );
                published.lock().unwrap().insert(generation, poison);
                publishes += 1;
            }
            stop.store(true, Ordering::Release);
            publishes
        });
        let readers: Vec<_> = (0..3)
            .map(|t| {
                let engine = &engine;
                let published = &published;
                let stop = &stop;
                let clean_ref = &clean_ref;
                let poisoned_ref = &poisoned_ref;
                let qs = &qs;
                scope.spawn(move || {
                    let mut scratch = ServingScratch::new();
                    let mut out = Vec::new();
                    let mut batches = 0u64;
                    let mut i = 0usize;
                    while !stop.load(Ordering::Acquire) || !i.is_multiple_of(COLUMNS.len()) {
                        let name = COLUMNS[(t + i) % COLUMNS.len()];
                        engine.estimate_batch_into("chaos", name, qs, &mut scratch, &mut out);
                        let bits = observed(name, &out);
                        let generation = engine.snapshot().generation();
                        let variant = published.lock().unwrap().get(&generation).copied();
                        match variant {
                            Some(poison) => {
                                let expect = if poison { poisoned_ref } else { clean_ref };
                                // The batch may have been computed from a
                                // snapshot published *after* the batch's
                                // own, so fall back to the other variant
                                // before declaring a torn read.
                                assert!(
                                    bits == expect[name]
                                        || bits == clean_ref[name]
                                        || bits == poisoned_ref[name],
                                    "torn batch on {name} at generation {generation}"
                                );
                            }
                            None => assert!(
                                bits == clean_ref[name] || bits == poisoned_ref[name],
                                "torn batch on {name} in the record race window"
                            ),
                        }
                        batches += 1;
                        i += 1;
                    }
                    batches
                })
            })
            .collect();
        let publishes = publisher.join().unwrap();
        assert_eq!(publishes, 12);
        for r in readers {
            assert!(r.join().unwrap() > 0, "every reader served batches");
        }
    });

    // Generations were strictly renumbered: one distinct generation per
    // publish, and the engine ends on the newest.
    let map = published.into_inner().unwrap();
    assert_eq!(map.len(), 13);
    let newest = *map.keys().max().unwrap();
    assert_eq!(engine.snapshot().generation(), newest);
    assert_eq!(engine.health().publishes, 13);
}

#[test]
fn served_bits_match_the_sequential_reference_at_every_client_count() {
    let clean = relation(false);
    let reference = reference_bits(&clean);
    let qs = queries();
    for clients in [1, 2, 4, 8, 16] {
        let engine = ServingEngine::new(ServingOptions::default());
        analyze_and_publish(&engine, &clean, &config(), &TryConfig::jobs(1));
        let stop = AtomicBool::new(false);
        thread::scope(|scope| {
            // Every publish swaps in a snapshot built from the same data and
            // config under a new generation, so the reference bits hold.
            scope.spawn(|| loop {
                analyze_and_publish(&engine, &clean, &config(), &TryConfig::jobs(1));
                if stop.load(Ordering::Acquire) {
                    break;
                }
            });
            let readers: Vec<_> = (0..clients)
                .map(|t| {
                    let (engine, reference, qs) = (&engine, &reference, &qs);
                    scope.spawn(move || {
                        let mut scratch = ServingScratch::new();
                        let mut out = Vec::new();
                        for i in 0..24 {
                            let name = COLUMNS[(t + i) % COLUMNS.len()];
                            engine.estimate_batch_into("chaos", name, qs, &mut scratch, &mut out);
                            let bits = observed(name, &out);
                            assert_eq!(
                                bits, reference[name],
                                "{clients} clients: client {t} op {i} on {name} drifted"
                            );
                        }
                    })
                })
                .collect();
            for r in readers {
                r.join().unwrap();
            }
            stop.store(true, Ordering::Release);
        });
    }
}

// -------------------------------------------------------------------------
// 2. Estimate cache: invisible, never stale, bounded
// -------------------------------------------------------------------------

#[test]
fn cache_hits_repeat_cold_results_bit_for_bit() {
    let rel = relation(false);
    let engine = ServingEngine::new(ServingOptions {
        cache_bits: 10,
        ..Default::default()
    });
    analyze_and_publish(&engine, &rel, &config(), &TryConfig::default());
    let qs = queries();
    let cold: Vec<u64> = COLUMNS
        .iter()
        .flat_map(|name| {
            qs.iter()
                .map(|q| engine.try_estimate("chaos", name, q).unwrap().to_bits())
                .collect::<Vec<_>>()
        })
        .collect();
    let before = engine.cache().stats();
    let warm: Vec<u64> = COLUMNS
        .iter()
        .flat_map(|name| {
            qs.iter()
                .map(|q| engine.try_estimate("chaos", name, q).unwrap().to_bits())
                .collect::<Vec<_>>()
        })
        .collect();
    let after = engine.cache().stats();
    assert_eq!(cold, warm, "warm pass must repeat the cold pass exactly");
    assert!(
        after.hits > before.hits,
        "the warm pass must be served (at least partly) from the cache"
    );
    // And both passes equal the sequential reference.
    let expect = reference_bits(&rel);
    let flat: Vec<u64> = COLUMNS
        .iter()
        .flat_map(|name| expect[name].clone().expect("clean columns serve"))
        .collect();
    assert_eq!(cold, flat);
}

#[test]
fn snapshot_swap_invalidates_the_cache_wholesale() {
    let rel = relation(false);
    let engine = ServingEngine::with_defaults();
    // Two catalogs over the same relation that differ only by sampling
    // seed — estimates differ, so any stale cache hit is detectable.
    let old_cfg = config();
    let new_cfg = AnalyzeConfig {
        seed: 0xD1CE,
        ..config()
    };
    let mut old_cat = StatisticsCatalog::new();
    old_cat.try_analyze_jobs(&rel, &old_cfg, 1);
    let mut new_cat = StatisticsCatalog::new();
    new_cat.try_analyze_jobs(&rel, &new_cfg, 1);
    let new_snap = CatalogSnapshot::from_catalog_ref(&new_cat, 0);
    let new_bits: HashMap<&str, Vec<u64>> = COLUMNS
        .iter()
        .map(|&name| {
            let (_, col) = new_snap.find("chaos", name).unwrap();
            (
                name,
                queries()
                    .iter()
                    .map(|q| col.estimator().selectivity(q).to_bits())
                    .collect(),
            )
        })
        .collect();

    engine.publish_snapshot(CatalogSnapshot::from_catalog_ref(&old_cat, 0));
    let qs = queries();
    // Warm the cache on the old snapshot, twice so hits are certain.
    let mut old_bits: HashMap<&str, Vec<u64>> = HashMap::new();
    for _ in 0..2 {
        for &name in &COLUMNS {
            let bits: Vec<u64> = qs
                .iter()
                .map(|q| engine.try_estimate("chaos", name, q).unwrap().to_bits())
                .collect();
            old_bits.insert(name, bits);
        }
    }
    assert!(engine.cache().stats().hits > 0, "the cache warmed up");

    engine.publish_snapshot(new_snap);
    for &name in &COLUMNS {
        let served: Vec<u64> = qs
            .iter()
            .map(|q| engine.try_estimate("chaos", name, q).unwrap().to_bits())
            .collect();
        assert_eq!(
            served, new_bits[name],
            "{name}: post-swap estimates must come from the new snapshot"
        );
        assert_ne!(
            served, old_bits[name],
            "{name}: the seeds were chosen so stale hits would be visible"
        );
    }
}

#[test]
fn adversarial_unique_queries_cannot_grow_the_cache() {
    let rel = relation(false);
    // A deliberately tiny cache: 2^4 = 16 slots.
    let engine = ServingEngine::new(ServingOptions {
        cache_bits: 4,
        ..Default::default()
    });
    analyze_and_publish(&engine, &rel, &config(), &TryConfig::default());
    let slots = engine.cache().slots();
    assert_eq!(slots, 16);
    let d = domain();
    let snap = engine.snapshot();
    let (_, col) = snap.find("chaos", "w").unwrap();
    // 200x more distinct queries than slots, none repeated.
    for i in 0..3_200u32 {
        let c = 1_000.0 * (f64::from(i) * 0.618_033_988_749_894_9).fract();
        let q = RangeQuery::centered(&d, c, 0.01 + 0.5 * (f64::from(i) * 0.137).fract());
        let served = engine.try_estimate("chaos", "w", &q).unwrap();
        // Structural bound: the direct-mapped table never grows, and
        // whatever collisions do to placement, values stay exact.
        assert_eq!(served.to_bits(), col.estimator().selectivity(&q).to_bits());
    }
    assert_eq!(
        engine.cache().slots(),
        slots,
        "slot count is fixed at build"
    );
    let stats = engine.cache().stats();
    assert!(
        stats.misses >= 3_200 - slots as u64,
        "distinct queries overwhelmingly miss a 16-slot cache"
    );
}

// -------------------------------------------------------------------------
// 3. Overload chaos: publisher + tripped breaker + saturating readers
// -------------------------------------------------------------------------

/// An environment knob for the chaos sweep (`scripts/chaos_sweep.sh
/// --overload` re-runs this test across a grid and prints the failing
/// combination as a repro command).
fn env_u64(name: &str, default: u64) -> u64 {
    std::env::var(name)
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

/// The five chaos columns: four kernel-served clean columns plus column
/// `f`, whose primary panics for its first `fail_calls` calls (then
/// recovers). Fresh estimator objects per call, but deterministic inputs,
/// so every publish serves bit-identical statistics.
fn overload_columns(fail_calls: usize) -> Vec<selest::store::ServingColumn> {
    use selest::kernel::{BoundaryPolicy, KernelEstimator, KernelFn};
    use selest::store::{FailingEstimator, FailureMode, ServingColumn};
    let d = domain();
    let mut cols: Vec<ServingColumn> = COLUMNS
        .iter()
        .enumerate()
        .map(|(i, name)| {
            let mut values = rows(i as u64);
            values.sort_by(|a, b| a.partial_cmp(b).expect("finite rows"));
            let sample: Arc<[f64]> = values.iter().step_by(6).take(256).copied().collect();
            let est = KernelEstimator::new(
                &sample,
                d,
                KernelFn::Epanechnikov,
                d.width() / 64.0,
                BoundaryPolicy::Reflection,
            );
            ServingColumn::new(
                "chaos",
                name,
                Arc::new(est),
                values.len(),
                selest::store::EstimatorKind::Kernel,
                d,
                sample,
            )
        })
        .collect();
    cols.push(ServingColumn::new(
        "chaos",
        "f",
        Arc::new(FailingEstimator::new(d, FailureMode::FailFirst(fail_calls))),
        1_500,
        selest::store::EstimatorKind::Sampling,
        d,
        Arc::from(Vec::<f64>::new()),
    ));
    cols
}

/// Saturating readers vs. a live publisher vs. an injected-failure column
/// whose breaker trips, cools down, half-opens, and recovers — all at
/// once. The pinned invariant is the overload contract end to end: every
/// slot of every batch is either a value that is bit-identical to the
/// serving rung that claims to have produced it, or one of the two typed
/// refusals (`Overloaded`, `DeadlineExceeded`). Nothing else — no
/// panics, no garbage, no torn reads — no matter how the publisher, the
/// breaker state machine, and the deadline clock interleave.
///
/// Seeded and sweepable: `SELEST_OVERLOAD_SEED`, `SELEST_OVERLOAD_CLIENTS`
/// and `SELEST_OVERLOAD_SLO_US` parameterize the run (the defaults are
/// exercised by plain `cargo test`).
#[test]
fn overload_chaos_every_estimate_is_valid_or_a_typed_refusal() {
    use selest::core::EstimateError;
    use selest::par::Deadline;
    use selest::store::{OverloadOptions, ServeRung};
    use std::time::Duration;

    let seed = env_u64("SELEST_OVERLOAD_SEED", 7);
    let clients = env_u64("SELEST_OVERLOAD_CLIENTS", 3) as usize;
    let slo_us = env_u64("SELEST_OVERLOAD_SLO_US", 2_000);
    let ops = 120usize;

    // Per-column reference bits for every rung the engine may serve from.
    // The failing column's healthy primary *is* the uniform overlap
    // fraction, so its full rung and floor rung coincide by construction.
    let qs = queries();
    let reference = overload_columns(0);
    let rung_bits: HashMap<String, [Option<Vec<u64>>; 3]> = reference
        .iter()
        .map(|col| {
            let full: Vec<u64> = qs
                .iter()
                .map(|q| col.estimator().selectivity(q).to_bits())
                .collect();
            let brown: Option<Vec<u64>> = col
                .brownout_rung()
                .map(|r| qs.iter().map(|q| r.selectivity(q).to_bits()).collect());
            let floor = selest::UniformEstimator::new(col.domain());
            let floor: Vec<u64> = qs
                .iter()
                .map(|q| selest::SelectivityEstimator::selectivity(&floor, q).to_bits())
                .collect();
            (col.column().to_string(), [Some(full), brown, Some(floor)])
        })
        .collect();

    let engine = ServingEngine::new(ServingOptions {
        shards: 3,
        cache_bits: 6,
        admission_limit: 16,
        overload: OverloadOptions {
            slo_us: slo_us as f64,
            seed,
            breaker_threshold: 2,
            breaker_cooldown_calls: 4,
            ..Default::default()
        },
        ..Default::default()
    });
    // Enough injected failures that the breaker must trip at least once
    // (threshold 2) but few enough that it recovers within the run.
    engine.publish_snapshot(CatalogSnapshot::from_columns(overload_columns(12), 1));

    let names = ["w", "x", "y", "z", "f"];
    let stop = AtomicBool::new(false);
    thread::scope(|scope| {
        let publisher = scope.spawn(|| {
            // Keep republishing until the readers finish: breaker state
            // must survive each swap (grafted by column identity), and a
            // fresh failing estimator per publish re-injects faults.
            let mut publishes = 1u64;
            while !stop.load(Ordering::Acquire) {
                engine.publish_snapshot(CatalogSnapshot::from_columns(
                    overload_columns(12),
                    publishes + 1,
                ));
                publishes += 1;
                thread::sleep(Duration::from_micros(300));
            }
            publishes
        });
        let readers: Vec<_> = (0..clients)
            .map(|t| {
                let engine = &engine;
                let rung_bits = &rung_bits;
                let qs = &qs;
                scope.spawn(move || {
                    let mut scratch = ServingScratch::new();
                    let mut out = Vec::new();
                    let (mut answered, mut refused) = (0u64, 0u64);
                    for i in 0..ops {
                        let name = names[(t + i) % names.len()];
                        // Alternate unhurried and deadline-armed batches.
                        let d =
                            (i % 2 == 1).then(|| Deadline::after(Duration::from_micros(slo_us)));
                        engine.estimate_batch_with(
                            "chaos",
                            name,
                            qs,
                            d.as_ref(),
                            &mut scratch,
                            &mut out,
                        );
                        for (slot, served) in out.iter().enumerate() {
                            match served {
                                Ok(est) => {
                                    let bits = &rung_bits[name];
                                    let expect = match est.rung {
                                        ServeRung::Full => bits[0].as_ref(),
                                        ServeRung::Brownout => bits[1].as_ref(),
                                        ServeRung::Floor => bits[2].as_ref(),
                                    };
                                    let expect = expect.unwrap_or_else(|| {
                                        panic!(
                                            "{name} slot {slot}: served from rung \
                                             {:?} which the column does not have",
                                            est.rung
                                        )
                                    });
                                    assert_eq!(
                                        est.value.to_bits(),
                                        expect[slot],
                                        "{name} slot {slot}: value drifted from the \
                                         {:?} rung reference",
                                        est.rung
                                    );
                                    answered += 1;
                                }
                                Err(
                                    EstimateError::Overloaded { .. }
                                    | EstimateError::DeadlineExceeded { .. },
                                ) => refused += 1,
                                Err(other) => {
                                    panic!("{name} slot {slot}: untyped failure {other}")
                                }
                            }
                        }
                    }
                    (answered, refused)
                })
            })
            .collect();
        let mut answered_total = 0u64;
        for r in readers {
            let (answered, _refused) = r.join().expect("no reader may panic");
            assert!(answered > 0, "every reader must get real answers");
            answered_total += answered;
        }
        stop.store(true, Ordering::Release);
        let publishes = publisher.join().expect("publisher must not panic");
        assert!(publishes >= 1);
        assert!(answered_total > 0);
    });

    let health = engine.health();
    let f = health
        .breakers
        .iter()
        .find(|b| b.column == "f")
        .expect("the failing column is serving");
    assert!(
        f.trips >= 1,
        "12 injected failures against threshold 2 must trip the breaker"
    );
    assert!(
        health.floor_served >= 1,
        "absorbed failures and open-breaker routing serve the floor"
    );
    assert!(
        health.shards.iter().all(|s| s.in_flight == 0),
        "in-flight gauges return to zero on every outcome"
    );
}

// -------------------------------------------------------------------------
// 3. Boundary-kernel columns serve the direct estimator's bits
// -------------------------------------------------------------------------

/// The kernel columns of the serving benchmark — the paper files n(20),
/// e(20), arap1 and iw under the catalog's Epanechnikov boundary-kernel
/// estimator — answer through a `ServingEngine`, batch and single-query,
/// bit-for-bit like a `KernelEstimator` built directly from the column's
/// retained sample and its direct plug-in bandwidth.
#[test]
fn boundary_kernel_columns_serve_the_direct_estimator_bit_for_bit() {
    use selest::{QueryFile, SelectivityEstimator};

    for file in SERVE_COLD_FILES {
        let data = file.generate();
        let d = data.domain();
        let (rel, direct) = paper_kernel_column(file);

        let engine = ServingEngine::with_defaults();
        analyze_and_publish(
            &engine,
            &rel,
            &AnalyzeConfig::default(),
            &TryConfig::default(),
        );

        let mut qs = QueryFile::generate(&data, 0.01, 64, 7).queries().to_vec();
        qs.extend_from_slice(QueryFile::generate(&data, 0.2, 64, 8).queries());
        let w = d.width();
        for frac in [1e-4, 0.01, 0.3] {
            qs.push(RangeQuery::new(d.lo(), d.lo() + frac * w));
            qs.push(RangeQuery::new(d.hi() - frac * w, d.hi()));
        }
        qs.push(RangeQuery::new(d.lo(), d.hi()));

        let mut scratch = ServingScratch::new();
        let mut out = Vec::new();
        engine.estimate_batch_into("paper", "v", &qs, &mut scratch, &mut out);
        for (q, served) in qs.iter().zip(&out) {
            let want = direct.selectivity(q).to_bits();
            let served = served.as_ref().expect("valid queries are answered");
            assert_eq!(served.to_bits(), want, "{} batch {q}", file.name());
            let single = engine.try_estimate("paper", "v", q).expect("answered");
            assert_eq!(single.to_bits(), want, "{} single {q}", file.name());
        }
    }
}

/// The paper files of the serve-cold workload, whose columns serve the
/// paper's best kernel configuration.
const SERVE_COLD_FILES: [PaperFile; 4] = [
    PaperFile::Normal { p: 20 },
    PaperFile::Exponential { p: 20 },
    PaperFile::Arapahoe1,
    PaperFile::InstanceWeight,
];

/// `file` as the one column `paper.v`, and the kernel estimator built
/// directly from that column's default ANALYZE sample: Epanechnikov with
/// boundary kernels at the direct plug-in bandwidth.
fn paper_kernel_column(file: PaperFile) -> (Arc<Relation>, selest::KernelEstimator) {
    use selest::kernel::{BandwidthSelector, DirectPlugIn};
    use selest::{BoundaryPolicy, KernelEstimator, KernelFn};

    let data = file.generate();
    let d = data.domain();
    let mut rel = Relation::new("paper");
    rel.add_column(Column::new("v", d, data.values().to_vec()));
    let mut catalog = StatisticsCatalog::new();
    catalog.try_analyze_jobs(&rel, &AnalyzeConfig::default(), 1);
    let stats = catalog.statistics("paper", "v").expect("column analyzed");
    let h = DirectPlugIn::two_stage()
        .bandwidth(&stats.sample, KernelFn::Epanechnikov)
        .min(0.5 * d.width());
    let direct = KernelEstimator::new(
        &stats.sample,
        d,
        KernelFn::Epanechnikov,
        h,
        BoundaryPolicy::BoundaryKernel,
    );
    (Arc::new(rel), direct)
}

/// `try_estimate_with` is a batch of one through `estimate_batch_with`.
/// On the kernel column of each serve-cold paper file — with no deadline
/// and with an unexpired manual one — a single request answers the same
/// value bits and rung tag as a one-slot batch on a twin engine and as
/// the snapshot's estimator called directly, and moves the admission and
/// cache counters by exactly the same amounts (each query is asked twice,
/// so both cache misses and cache hits are covered).
#[test]
fn single_query_path_is_the_one_slot_batch_path() {
    use selest::par::Deadline;
    use selest::store::{OverloadOptions, ServeRung, ServingHealthReport};
    use selest::QueryFile;

    let admitted = |h: &ServingHealthReport| h.shards.iter().map(|s| s.admitted).sum::<u64>();
    for file in SERVE_COLD_FILES {
        let data = file.generate();
        let d = data.domain();
        let mut rel = Relation::new("paper");
        rel.add_column(Column::new("v", d, data.values().to_vec()));
        let mut catalog = StatisticsCatalog::new();
        catalog.try_analyze_jobs(&rel, &AnalyzeConfig::default(), 1);
        let mut qs = QueryFile::generate(&data, 0.01, 24, 7).queries().to_vec();
        qs.extend_from_slice(QueryFile::generate(&data, 0.2, 24, 8).queries());
        qs.push(RangeQuery::new(d.lo(), d.hi()));
        for deadline in [None, Some(Deadline::never())] {
            // Twin engines over the same statistics; no wall-clock load
            // tiers, so both serve every miss from the primary.
            let twin = || {
                let engine = ServingEngine::new(ServingOptions {
                    overload: OverloadOptions {
                        auto_observe: false,
                        ..Default::default()
                    },
                    ..Default::default()
                });
                engine.publish_snapshot(CatalogSnapshot::from_catalog_ref(&catalog, 0));
                engine
            };
            let (single, batch) = (twin(), twin());
            let snap = single.snapshot();
            let (_, col) = snap.find("paper", "v").expect("column serves");
            let mut scratch = ServingScratch::new();
            let mut out = Vec::new();
            for q in qs.iter().chain(&qs) {
                let label = format!("{} {q} deadline={}", file.name(), deadline.is_some());
                let one = single
                    .try_estimate_with("paper", "v", q, deadline.as_ref())
                    .expect("valid queries are answered");
                batch.estimate_batch_with(
                    "paper",
                    "v",
                    std::slice::from_ref(q),
                    deadline.as_ref(),
                    &mut scratch,
                    &mut out,
                );
                let slot = out[0].as_ref().expect("valid queries are answered");
                assert_eq!(one.rung, ServeRung::Full, "{label}");
                assert_eq!(slot.rung, one.rung, "{label}");
                assert_eq!(slot.value.to_bits(), one.value.to_bits(), "{label}");
                let direct = col.estimator().selectivity(q);
                assert_eq!(one.value.to_bits(), direct.to_bits(), "{label}");
                let (hs, hb) = (single.health(), batch.health());
                assert_eq!(admitted(&hs), admitted(&hb), "{label}");
                let (cs, cb) = (hs.cache, hb.cache);
                assert_eq!(
                    (cs.hits, cs.misses, cs.inserts, cs.conflicts, cs.bypassed),
                    (cb.hits, cb.misses, cb.inserts, cb.conflicts, cb.bypassed),
                    "{label}"
                );
            }
            let hits = single.cache().stats().hits;
            assert!(hits >= qs.len() as u64 / 2, "{}: repeats hit", file.name());
        }
    }
}

/// A uniform estimator that counts its `selectivity` calls.
struct CountingUniform {
    inner: selest::UniformEstimator,
    calls: Arc<std::sync::atomic::AtomicUsize>,
}

impl selest::SelectivityEstimator for CountingUniform {
    fn selectivity(&self, q: &RangeQuery) -> f64 {
        self.calls.fetch_add(1, Ordering::Relaxed);
        self.inner.selectivity(q)
    }
    fn domain(&self) -> Domain {
        self.inner.domain()
    }
    fn name(&self) -> String {
        "CountingUniform".into()
    }
}

/// A batch is served in one pass, so a query repeated `k` times in one
/// batch on a fresh engine misses once, fills the slot its probe read,
/// and hits that entry `k - 1` times: the primary runs once, and every
/// slot carries the direct estimator's bits.
#[test]
fn a_query_repeated_in_one_batch_is_evaluated_once() {
    use selest::store::{EstimatorKind, ServingColumn};
    use selest::{SelectivityEstimator, UniformEstimator};

    let d = domain();
    let q = RangeQuery::new(120.5, 480.25);
    let want = UniformEstimator::new(d).selectivity(&q).to_bits();
    for k in [1u64, 2, 7, 256] {
        let calls = Arc::new(std::sync::atomic::AtomicUsize::new(0));
        let primary = CountingUniform {
            inner: UniformEstimator::new(d),
            calls: Arc::clone(&calls),
        };
        let col = ServingColumn::new(
            "rep",
            "v",
            Arc::new(primary),
            1_000,
            EstimatorKind::Sampling,
            d,
            Arc::from(Vec::<f64>::new()),
        );
        let engine = ServingEngine::with_defaults();
        engine.publish_snapshot(CatalogSnapshot::from_columns(vec![col], 0));
        let batch = vec![q; k as usize];
        let mut out = Vec::new();
        engine.estimate_batch_into("rep", "v", &batch, &mut ServingScratch::new(), &mut out);
        assert_eq!(calls.load(Ordering::Relaxed), 1, "k = {k}");
        let stats = engine.cache().stats();
        assert_eq!(
            (stats.misses, stats.hits, stats.inserts),
            (1, k - 1, 1),
            "k = {k}"
        );
        assert_eq!(out.len(), batch.len());
        for slot in &out {
            assert_eq!(slot.as_ref().expect("served").to_bits(), want, "k = {k}");
        }
    }
}

// -------------------------------------------------------------------------
// 4. Cache admission: a column whose queries never repeat skips the cache
// -------------------------------------------------------------------------

/// Queries per batch in the admission tests, as in selbench's workloads.
const BATCH: usize = 256;

/// `n` distinct queries over `d`, the `first`-th onward of one sequence:
/// golden-ratio starts, so no two share their bounds.
fn distinct_queries(d: &Domain, first: usize, n: usize) -> Vec<RangeQuery> {
    (first..first + n)
        .map(|i| {
            let a = d.lo() + 0.9 * d.width() * (i as f64 * 0.618_033_988_749_894_9).fract();
            RangeQuery::new(
                a,
                a + d.width() * (0.001 + 0.09 * (i as f64 * 0.317).fract()),
            )
        })
        .collect()
}

/// An engine with no wall-clock load tiers, so every miss is served by
/// the primary.
fn unhurried_engine() -> ServingEngine {
    ServingEngine::new(ServingOptions {
        overload: selest::store::OverloadOptions {
            auto_observe: false,
            ..Default::default()
        },
        ..Default::default()
    })
}

/// A fresh [`unhurried_engine`] serving a uniform column `t.<name>` over
/// the test domain for each of `names`.
fn uniform_engine(names: &[&str]) -> ServingEngine {
    use selest::store::{EstimatorKind, ServingColumn};
    let d = domain();
    let cols = names
        .iter()
        .map(|name| {
            ServingColumn::new(
                "t",
                name,
                Arc::new(selest::UniformEstimator::new(d)),
                1_000,
                EstimatorKind::Sampling,
                d,
                Arc::from(Vec::<f64>::new()),
            )
        })
        .collect();
    let engine = unhurried_engine();
    engine.publish_snapshot(CatalogSnapshot::from_columns(cols, 0));
    engine
}

/// serve-cold's shape on each of its paper kernel columns: 24 batches of
/// 256 distinct queries. The first four batches probe and miss 1 024
/// times, which takes the column cold; after that only the 16th cold
/// batch probes, and a republish in between keeps the column cold. Every
/// slot, probed or bypassed, carries the direct estimator's bits, and
/// the counters are exact: `hits + misses` is every slot and `inserts +
/// conflicts + bypassed == misses`.
#[test]
fn an_all_distinct_stream_bypasses_the_cache_and_serves_the_direct_bits() {
    use selest::store::ServeRung;
    use selest::SelectivityEstimator;

    const BATCHES: usize = 24;
    for file in SERVE_COLD_FILES {
        let (rel, direct) = paper_kernel_column(file);
        let d = rel.column("v").expect("column").domain();
        let engine = unhurried_engine();
        analyze_and_publish(
            &engine,
            &rel,
            &AnalyzeConfig::default(),
            &TryConfig::default(),
        );
        let qs = distinct_queries(&d, 0, BATCHES * BATCH);
        let (mut scratch, mut out) = (ServingScratch::new(), Vec::new());
        let mut probed = Vec::new();
        for (k, batch) in qs.chunks(BATCH).enumerate() {
            if k == 8 {
                analyze_and_publish(
                    &engine,
                    &rel,
                    &AnalyzeConfig::default(),
                    &TryConfig::jobs(1),
                );
            }
            let before = engine.cache().stats();
            engine.estimate_batch_with("paper", "v", batch, None, &mut scratch, &mut out);
            for (q, slot) in batch.iter().zip(&out) {
                let slot = slot.as_ref().expect("valid queries are answered");
                let label = format!("{} batch {k} {q}", file.name());
                assert_eq!(slot.rung, ServeRung::Full, "{label}");
                assert_eq!(
                    slot.value.to_bits(),
                    direct.selectivity(q).to_bits(),
                    "{label}"
                );
            }
            let bypassed = engine.cache().stats().bypassed - before.bypassed;
            assert!(bypassed == 0 || bypassed == BATCH as u64, "{bypassed}");
            probed.push(bypassed == 0);
        }
        let expect: Vec<bool> = (0..BATCHES).map(|k| k < 4 || k == 4 + 15).collect();
        assert_eq!(probed, expect, "{}", file.name());
        let stats = engine.cache().stats();
        let (all, probes) = ((BATCHES * BATCH) as u64, (5 * BATCH) as u64);
        assert_eq!((stats.hits, stats.misses), (0, all), "{}", file.name());
        assert_eq!(stats.bypassed, all - probes, "{}", file.name());
        assert_eq!(stats.inserts + stats.conflicts, probes, "{}", file.name());
    }
}

/// A cold column whose traffic turns hot — each batch 32 queries asked
/// 8 times — is back on the cache within 16 batches: the re-checking
/// batch hits its own repeats, and every batch after it probes and hits.
#[test]
fn a_column_whose_traffic_turns_hot_is_back_on_the_cache_within_16_batches() {
    let engine = uniform_engine(&["v"]);
    let d = domain();
    let (mut scratch, mut out) = (ServingScratch::new(), Vec::new());
    let mut serve = |batch: &[RangeQuery]| {
        let before = engine.cache().stats();
        engine.estimate_batch_into("t", "v", batch, &mut scratch, &mut out);
        assert!(out.iter().all(|s| s.is_ok()));
        let after = engine.cache().stats();
        (after.hits - before.hits, after.bypassed - before.bypassed)
    };
    let cold = distinct_queries(&d, 0, 5 * BATCH);
    for (k, batch) in cold.chunks(BATCH).enumerate() {
        let expect = if k < 4 { 0 } else { BATCH as u64 };
        assert_eq!(serve(batch), (0, expect), "cold batch {k}");
    }
    let hot: Vec<RangeQuery> = distinct_queries(&d, 5 * BATCH, 32)
        .iter()
        .cycle()
        .take(BATCH)
        .copied()
        .collect();
    let back = (1..=16)
        .find(|_| serve(&hot).1 == 0)
        .expect("a re-check within 16 batches");
    assert!(back <= 16);
    for k in 0..4 {
        let (hits, bypassed) = serve(&hot);
        assert_eq!(bypassed, 0, "hot batch {k} after the re-check");
        assert!(hits >= (BATCH - 32) as u64, "hot batch {k}: {hits} hits");
    }
}

/// One query per call with reuse: 512 distinct queries asked 8 times
/// each through `try_estimate`. Repeats hit long before 1 024 misses in
/// a row, so the column never goes cold.
#[test]
fn single_query_callers_with_reuse_never_go_cold() {
    use selest::SelectivityEstimator;

    let engine = uniform_engine(&["v"]);
    let d = domain();
    let uniform = selest::UniformEstimator::new(d);
    let pool = distinct_queries(&d, 0, 512);
    for q in pool.iter().cycle().take(8 * pool.len()) {
        let v = engine.try_estimate("t", "v", q).expect("served");
        assert_eq!(v.to_bits(), uniform.selectivity(q).to_bits(), "{q}");
    }
    let stats = engine.cache().stats();
    assert_eq!(stats.bypassed, 0, "{stats:?}");
    assert_eq!(stats.hits + stats.misses, 8 * 512, "{stats:?}");
    assert_eq!(stats.inserts + stats.conflicts, stats.misses, "{stats:?}");
    assert!(stats.hits > 4 * 512, "{stats:?}");
}

/// Two threads share one engine: on the uniform column both stream
/// distinct queries (which takes it cold), on a twin column both ask a
/// hot pool. Whatever order their batches interleave in, each slot
/// carries the uniform bits and the counter identities hold exactly.
#[test]
fn cache_counters_stay_exact_while_two_threads_bypass_and_probe() {
    use selest::SelectivityEstimator;

    let d = domain();
    let uniform = selest::UniformEstimator::new(d);
    let engine = uniform_engine(&["cold", "hot"]);
    const ROUNDS: usize = 12;
    let hot: Vec<RangeQuery> = distinct_queries(&d, 1 << 20, 64)
        .iter()
        .cycle()
        .take(BATCH)
        .copied()
        .collect();
    thread::scope(|s| {
        for t in 0..2 {
            let (engine, hot, uniform) = (&engine, &hot, &uniform);
            s.spawn(move || {
                let (mut scratch, mut out) = (ServingScratch::new(), Vec::new());
                let fresh = distinct_queries(&d, t * ROUNDS * BATCH, ROUNDS * BATCH);
                for batch in fresh.chunks(BATCH) {
                    for (column, qs) in [("cold", batch), ("hot", &hot[..])] {
                        engine.estimate_batch_into("t", column, qs, &mut scratch, &mut out);
                        for (q, v) in qs.iter().zip(&out) {
                            let v = v.as_ref().expect("served");
                            assert_eq!(v.to_bits(), uniform.selectivity(q).to_bits());
                        }
                    }
                }
            });
        }
    });
    let stats = engine.cache().stats();
    let valid = (2 * ROUNDS * 2 * BATCH) as u64;
    assert_eq!(stats.hits + stats.misses, valid, "{stats:?}");
    assert_eq!(
        stats.inserts + stats.conflicts + stats.bypassed,
        stats.misses,
        "{stats:?}"
    );
    assert!(stats.bypassed > 0 && stats.hits > 0, "{stats:?}");
}

// -------------------------------------------------------------------------
// 5. Deadlines: the engine's batch pass is the one that polls them
// -------------------------------------------------------------------------

/// A served primary that trips `deadline` during its `trip_at`-th
/// evaluation (never, for 0) and counts its calls (atomically: a served
/// primary is `Send + Sync`).
struct TripAfter {
    inner: Arc<dyn selest::SelectivityEstimator + Send + Sync>,
    deadline: selest::par::Deadline,
    calls: std::sync::atomic::AtomicUsize,
    trip_at: usize,
}

impl selest::SelectivityEstimator for TripAfter {
    fn selectivity(&self, q: &RangeQuery) -> f64 {
        if self.calls.fetch_add(1, Ordering::Relaxed) + 1 == self.trip_at {
            self.deadline.expire();
        }
        self.inner.selectivity(q)
    }
    fn domain(&self) -> Domain {
        self.inner.domain()
    }
    fn name(&self) -> String {
        self.inner.name()
    }
}

/// Valid queries per deadline batch; one invalid query rides along.
const DEADLINE_VALID: usize = 63;

/// A primary as a served column holds it.
type Primary = Arc<dyn selest::SelectivityEstimator + Send + Sync>;

/// The primaries the deadline contract is checked over, each with the
/// kind it is published as: a reflected kernel, a max-diff histogram and
/// the hybrid, all over the clustered sample `rows(0)`.
fn deadline_primaries() -> Vec<(&'static str, selest::store::EstimatorKind, Primary)> {
    use selest::store::EstimatorKind;
    use selest::{max_diff, BoundaryPolicy, HybridEstimator, KernelEstimator, KernelFn};
    let (d, s) = (domain(), rows(0));
    let kernel = KernelEstimator::new(
        &s,
        d,
        KernelFn::Epanechnikov,
        25.0,
        BoundaryPolicy::Reflection,
    );
    vec![
        (
            "kernel-refl",
            EstimatorKind::Kernel,
            Arc::new(kernel) as Primary,
        ),
        (
            "mdh",
            EstimatorKind::MaxDiff,
            Arc::new(max_diff(&s, d, 16)) as _,
        ),
        (
            "hybrid",
            EstimatorKind::Hybrid,
            Arc::new(HybridEstimator::new(&s, d)) as _,
        ),
    ]
}

/// [`DEADLINE_VALID`] distinct queries with one degenerate query inserted
/// at `invalid_at`, which must keep its own error class under any
/// deadline.
fn queries_with_invalid(invalid_at: usize) -> Vec<RangeQuery> {
    let mut qs = distinct_queries(&domain(), 0, DEADLINE_VALID);
    qs.insert(invalid_at, RangeQuery::unchecked(9.0, 4.0));
    qs
}

/// What one deadline-bound batch left behind.
struct DeadlineRun {
    out: Vec<Result<selest::store::ServedEstimate, selest::EstimateError>>,
    /// How many times the primary was evaluated.
    calls: usize,
    /// The engine's `deadline_refused` counter.
    refused: u64,
}

/// Serve `qs` under `deadline` through `estimate_batch_with` on a fresh
/// engine — each timeout charges the breaker once, so cases must not
/// share one — whose primary is `inner` wrapped to trip `deadline` at its
/// `trip_at`-th call. The queries are distinct, so every valid slot
/// misses and reaches the primary.
fn serve_under_deadline(
    (inner, kind): (&Primary, selest::store::EstimatorKind),
    deadline: &selest::par::Deadline,
    trip_at: usize,
    qs: &[RangeQuery],
) -> DeadlineRun {
    use selest::store::ServingColumn;
    let primary = Arc::new(TripAfter {
        inner: Arc::clone(inner),
        deadline: deadline.clone(),
        calls: Default::default(),
        trip_at,
    });
    let col = ServingColumn::new(
        "t",
        "v",
        primary.clone(),
        1_500,
        kind,
        domain(),
        rows(0).into(),
    );
    let engine = unhurried_engine();
    engine.publish_snapshot(CatalogSnapshot::from_columns(vec![col], 0));
    let mut out = Vec::new();
    let scratch = &mut ServingScratch::new();
    engine.estimate_batch_with("t", "v", qs, Some(deadline), scratch, &mut out);
    assert_eq!(out.len(), qs.len());
    DeadlineRun {
        out,
        calls: primary.calls.load(Ordering::Relaxed),
        refused: engine.health().deadline_refused,
    }
}

/// A spent deadline refuses the batch before any work: every valid slot
/// is a typed `DeadlineExceeded`, the invalid query keeps
/// `InvalidQuery`, and the primary is never called.
#[test]
fn expired_deadline_yields_typed_refusals_not_garbage() {
    use selest::par::Deadline;
    use selest::EstimateError;

    for invalid_at in [3, 40] {
        let qs = queries_with_invalid(invalid_at);
        for (name, kind, est) in deadline_primaries() {
            let run = serve_under_deadline((&est, kind), &Deadline::already_expired(), 0, &qs);
            for (i, slot) in run.out.iter().enumerate() {
                match slot {
                    Err(EstimateError::DeadlineExceeded { .. }) if i != invalid_at => {}
                    Err(EstimateError::InvalidQuery { .. }) if i == invalid_at => {}
                    other => panic!("{name} slot {i}: expected a typed refusal, got {other:?}"),
                }
            }
            assert_eq!(run.calls, 0, "{name}");
            assert_eq!(run.refused, DEADLINE_VALID as u64, "{name}");
        }
    }
}

/// A live deadline that never expires is free: every valid slot is the
/// primary's own answer, bit for bit, and the invalid query keeps
/// `InvalidQuery`.
#[test]
fn unexpired_deadline_is_bit_transparent() {
    use selest::par::Deadline;
    use selest::store::ServeRung;
    use selest::EstimateError;

    for invalid_at in [3, 40] {
        let qs = queries_with_invalid(invalid_at);
        for (name, kind, est) in deadline_primaries() {
            let run = serve_under_deadline((&est, kind), &Deadline::never(), 0, &qs);
            for (i, (slot, q)) in run.out.iter().zip(&qs).enumerate() {
                if i == invalid_at {
                    assert!(
                        matches!(slot, Err(EstimateError::InvalidQuery { .. })),
                        "{name} slot {i}: {slot:?}"
                    );
                    continue;
                }
                let served = slot.as_ref().expect("unexpired deadline");
                assert_eq!(served.rung, ServeRung::Full, "{name} slot {i}");
                assert_eq!(
                    served.value.to_bits(),
                    est.selectivity(q).to_bits(),
                    "{name} slot {i}"
                );
            }
            assert_eq!(run.calls, DEADLINE_VALID, "{name}");
            assert_eq!(run.refused, 0, "{name}");
        }
    }
}

/// A deadline that expires mid-batch is noticed at the pass's next poll
/// (before the first miss and every 16 misses after it): the slots
/// evaluated before it keep the primary's exact bits, every later valid
/// slot is `DeadlineExceeded`, the invalid query stays `InvalidQuery` on
/// either side of the cut, and the primary ran `ceil(trip_at / 16) · 16`
/// times, capped at the valid count.
#[test]
fn deadline_expiring_mid_batch_keeps_finished_slots_bit_identical() {
    use selest::par::Deadline;
    use selest::store::ServeRung;
    use selest::EstimateError;

    const STRIDE: usize = 16;
    for invalid_at in [3, 40] {
        let qs = queries_with_invalid(invalid_at);
        for (name, kind, est) in deadline_primaries() {
            for trip_at in [1, 5, 16, 17, 33, DEADLINE_VALID] {
                let run = serve_under_deadline((&est, kind), &Deadline::never(), trip_at, &qs);
                let finished = (trip_at.div_ceil(STRIDE) * STRIDE).min(DEADLINE_VALID);
                let label = format!("{name} invalid_at={invalid_at} trip_at={trip_at}");
                assert_eq!(run.calls, finished, "{label}");
                assert_eq!(run.refused, (DEADLINE_VALID - finished) as u64, "{label}");
                let mut valid = 0;
                for (i, (slot, q)) in run.out.iter().zip(&qs).enumerate() {
                    if i == invalid_at {
                        assert!(
                            matches!(slot, Err(EstimateError::InvalidQuery { .. })),
                            "{label} slot {i}: {slot:?}"
                        );
                        continue;
                    }
                    if valid < finished {
                        let served = slot.as_ref().expect("finished before the poll");
                        assert_eq!(served.rung, ServeRung::Full, "{label} slot {i}");
                        assert_eq!(
                            served.value.to_bits(),
                            est.selectivity(q).to_bits(),
                            "{label} slot {i}"
                        );
                    } else {
                        assert!(
                            matches!(slot, Err(EstimateError::DeadlineExceeded { .. })),
                            "{label} slot {i}: {slot:?}"
                        );
                    }
                    valid += 1;
                }
            }
        }
    }
}
