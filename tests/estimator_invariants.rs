//! Cross-crate property tests: invariants every selectivity estimator in
//! the workspace must satisfy, driven by proptest over random samples and
//! random queries.

use proptest::prelude::*;
use selest::kernel::{BandwidthSelector, NormalScale};
use selest::{
    equi_depth, equi_width, max_diff, v_optimal, AverageShiftedHistogram, BoundaryPolicy, Domain,
    HybridEstimator, KernelEstimator, KernelFn, RangeQuery, SamplingEstimator,
    SelectivityEstimator, UniformEstimator,
};

const LO: f64 = 0.0;
const HI: f64 = 1_000.0;

fn all_estimators(samples: &[f64]) -> Vec<Box<dyn SelectivityEstimator>> {
    let domain = Domain::new(LO, HI);
    let h = if samples.len() >= 2 && selest::math::robust_scale(samples) > 0.0 {
        // Boundary kernels are derived for h far below the domain width;
        // cap like production configurations do.
        NormalScale
            .bandwidth(samples, KernelFn::Epanechnikov)
            .min(0.05 * (HI - LO))
    } else {
        10.0
    };
    vec![
        Box::new(UniformEstimator::new(domain)),
        Box::new(SamplingEstimator::new(samples, domain)),
        Box::new(equi_width(samples, domain, 16)),
        Box::new(equi_depth(samples, domain, 16)),
        Box::new(max_diff(samples, domain, 16)),
        Box::new(v_optimal(samples, domain, 8, 64)),
        Box::new(AverageShiftedHistogram::new(samples, domain, 16, 8)),
        Box::new(KernelEstimator::new(
            samples,
            domain,
            KernelFn::Epanechnikov,
            h,
            BoundaryPolicy::NoTreatment,
        )),
        Box::new(KernelEstimator::new(
            samples,
            domain,
            KernelFn::Epanechnikov,
            h,
            BoundaryPolicy::Reflection,
        )),
        Box::new(KernelEstimator::new(
            samples,
            domain,
            KernelFn::Epanechnikov,
            h,
            BoundaryPolicy::BoundaryKernel,
        )),
        Box::new(HybridEstimator::new(samples, domain)),
    ]
}

/// Random in-domain samples: a mix of spread values and duplicates so the
/// degenerate paths (coincident quantiles, point masses) get exercised.
fn sample_strategy() -> impl Strategy<Value = Vec<f64>> {
    prop::collection::vec(
        prop_oneof![
            (0u32..=100_000).prop_map(|v| v as f64 / 100.0),
            Just(250.0), // duplicate hot spot
            Just(750.5),
        ],
        30..200,
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn selectivities_are_probabilities(samples in sample_strategy(),
                                       a in 0.0f64..1_000.0, w in 0.0f64..500.0) {
        let q = RangeQuery::new(a, (a + w).min(HI));
        for est in all_estimators(&samples) {
            let s = est.selectivity(&q);
            prop_assert!((0.0..=1.0 + 1e-9).contains(&s),
                "{}: selectivity {s} outside [0,1]", est.name());
        }
    }

    #[test]
    fn full_domain_mass_is_near_one(samples in sample_strategy()) {
        let q = RangeQuery::new(LO, HI);
        for est in all_estimators(&samples) {
            let s = est.selectivity(&q);
            // The untreated kernel loses boundary weight; boundary kernels
            // (also inside the hybrid's bins) are consistent but not a
            // density, so their total mass can drift a few percent; the
            // rest are calibrated to (nearly) one.
            let name = est.name();
            // Boundary kernels are "consistent but not a density": their
            // integral drifts, and on adversarial tiny samples (heavy
            // duplication right at a bin edge, bandwidth at its cap) the
            // drift reaches ~15% — same order as the untreated estimator's
            // boundary loss, so both get the loose floor.
            let floor = if name.contains("none") || name.contains("bk") || name == "Hybrid" {
                0.80
            } else {
                0.97
            };
            prop_assert!(s >= floor && s <= 1.0 + 1e-9,
                "{}: full-domain mass {s}", est.name());
        }
    }

    #[test]
    fn nested_queries_are_monotone(samples in sample_strategy(),
                                   a in 0.0f64..400.0, w in 1.0f64..200.0) {
        let inner = RangeQuery::new(a + 10.0, (a + 10.0 + w).min(HI));
        let outer = RangeQuery::new(a, (a + 10.0 + w + 50.0).min(HI));
        for est in all_estimators(&samples) {
            let si = est.selectivity(&inner);
            let so = est.selectivity(&outer);
            prop_assert!(so >= si - 1e-9,
                "{}: outer {so} < inner {si}", est.name());
        }
    }

    #[test]
    fn adjacent_queries_add_up(samples in sample_strategy(),
                               a in 0.0f64..300.0, m in 50.0f64..350.0, w in 1.0f64..300.0) {
        // sigma(a, m) + sigma(m, b) should equal sigma(a, b) for continuous
        // estimators (up to shared-endpoint effects on point masses, which
        // only the sampling estimator and EDH zero-width bins exhibit —
        // they may double count the shared endpoint, so allow that much).
        let mid = a + m;
        let b = (mid + w).min(HI);
        let whole = RangeQuery::new(a, b);
        let left = RangeQuery::new(a, mid);
        let right = RangeQuery::new(mid, b);
        for est in all_estimators(&samples) {
            let sum = est.selectivity(&left) + est.selectivity(&right);
            let s = est.selectivity(&whole);
            let endpoint_slack = 0.2; // duplicates piled on one value
            prop_assert!(sum >= s - 1e-9 && sum <= s + endpoint_slack,
                "{}: {s} vs split sum {sum}", est.name());
        }
    }

    #[test]
    fn estimates_scale_linearly_with_relation_size(samples in sample_strategy()) {
        let q = RangeQuery::new(200.0, 600.0);
        for est in all_estimators(&samples) {
            let at_1k = est.estimate_count(&q, 1_000);
            let at_10k = est.estimate_count(&q, 10_000);
            prop_assert!((at_10k - 10.0 * at_1k).abs() < 1e-6 * (1.0 + at_10k.abs()));
        }
    }
}

// ---------------------------------------------------------------------------
// Resilient serving path: adversarial samples must degrade, never crash.
// ---------------------------------------------------------------------------

use selest_store::{
    AnalyzeConfig, CatalogSnapshot, Column, EstimatorKind, OverloadOptions, Relation,
    ServingEngine, ServingOptions, StatisticsCatalog,
};

/// Serve `kind` over a column holding `sample` the way production does:
/// bulkheaded catalog ANALYZE, a snapshot that degrades a quarantined
/// column to its uniform floor, and the serving engine (one shard, no
/// wall-clock load tiers, so every answer comes from the column's own
/// statistics or its floor).
fn served(sample: &[f64], kind: EstimatorKind) -> ServingEngine {
    let mut relation = Relation::new("adv");
    relation.add_column(Column::new_unchecked(
        "x",
        Domain::new(LO, HI),
        sample.to_vec(),
    ));
    let mut catalog = StatisticsCatalog::new();
    catalog.try_analyze(
        &relation,
        &AnalyzeConfig {
            kind,
            ..Default::default()
        },
    );
    let engine = ServingEngine::new(ServingOptions {
        shards: 1,
        overload: OverloadOptions {
            auto_observe: false,
            ..Default::default()
        },
        ..Default::default()
    });
    engine.publish_snapshot(CatalogSnapshot::from_catalog_for(&relation, catalog, 0));
    engine
}

/// Deterministic worst-case samples: every degenerate shape the ANALYZE
/// pipeline can encounter.
fn adversarial_samples() -> Vec<(&'static str, Vec<f64>)> {
    vec![
        ("empty", Vec::new()),
        ("single-value", vec![500.0]),
        ("all-identical", vec![123.0; 64]),
        ("two-points", vec![100.0, 900.0]),
        ("nan-heavy", {
            let mut v = vec![f64::NAN; 20];
            v.extend([10.0, 20.0, 30.0]);
            v
        }),
        (
            "infinities",
            vec![f64::INFINITY, f64::NEG_INFINITY, 5.0, 995.0],
        ),
        ("out-of-domain", vec![-1e9, 2e9, 500.0, 501.0]),
        (
            "all-garbage",
            vec![f64::NAN, f64::INFINITY, f64::NEG_INFINITY, -5.0, 1e12],
        ),
    ]
}

#[test]
fn resilient_path_survives_every_kind_on_every_adversarial_sample() {
    for kind in EstimatorKind::ALL {
        for (label, sample) in adversarial_samples() {
            let engine = served(&sample, kind);
            // Finite, in [0, 1], and monotone in the query upper bound.
            let mut prev = 0.0;
            for i in 0..=80 {
                let b = LO + (HI - LO) * i as f64 / 80.0;
                let s = engine
                    .try_estimate("adv", "x", &RangeQuery::new(LO, b))
                    .expect("resilient path must answer");
                assert!(
                    s.is_finite() && (0.0..=1.0).contains(&s),
                    "{kind:?}/{label}: selectivity {s} at upper bound {b}"
                );
                assert!(
                    s >= prev - 1e-9,
                    "{kind:?}/{label}: selectivity dropped from {prev} to {s} at {b}"
                );
                prev = s.max(prev);
            }
            // Health must be reportable, and the full-domain mass sane.
            let h = engine.health();
            assert_eq!(h.breakers.len(), 1, "{kind:?}/{label}: column serves");
            let full = engine
                .try_estimate("adv", "x", &RangeQuery::new(LO, HI))
                .unwrap();
            assert!(
                (0.0..=1.0).contains(&full),
                "{kind:?}/{label}: full mass {full}"
            );
        }
    }
}

/// Samples mixing clean values with NaN, infinities, and out-of-domain
/// excursions — including possibly no clean values at all.
fn dirty_sample_strategy() -> impl Strategy<Value = Vec<f64>> {
    prop::collection::vec(
        prop_oneof![
            (0u32..=100_000).prop_map(|v| v as f64 / 100.0),
            Just(f64::NAN),
            Just(f64::INFINITY),
            Just(f64::NEG_INFINITY),
            Just(-1e6),
            Just(1e9),
            Just(250.0),
        ],
        0..120,
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn resilient_estimates_are_probabilities_under_dirty_samples(
        samples in dirty_sample_strategy(), a in 0.0f64..1_000.0, w in 0.0f64..500.0) {
        let q = RangeQuery::new(a, (a + w).min(HI));
        for kind in EstimatorKind::ALL {
            let s = served(&samples, kind).try_estimate("adv", "x", &q).expect("must answer");
            prop_assert!(s.is_finite() && (0.0..=1.0).contains(&s),
                "{kind:?}: selectivity {s} on dirty sample");
        }
    }

    #[test]
    fn resilient_estimates_are_monotone_under_dirty_samples(
        samples in dirty_sample_strategy(), a in 0.0f64..500.0, w in 1.0f64..250.0) {
        let inner = RangeQuery::new(a, (a + w).min(HI));
        let outer = RangeQuery::new((a - 50.0).max(LO), (a + w + 100.0).min(HI));
        for kind in EstimatorKind::ALL {
            let engine = served(&samples, kind);
            let si = engine.try_estimate("adv", "x", &inner).expect("inner");
            let so = engine.try_estimate("adv", "x", &outer).expect("outer");
            prop_assert!(so >= si - 1e-9,
                "{kind:?}: outer {so} < inner {si} on dirty sample");
        }
    }
}

#[test]
fn kernel_linear_and_sorted_paths_agree_on_random_input() {
    // Deterministic pseudo-random mixture with duplicates.
    let samples: Vec<f64> = (0..500)
        .map(|i| {
            let x = ((i * 2654435761u64 as usize) % 100_000) as f64 / 100.0;
            if i % 7 == 0 {
                333.0
            } else {
                x
            }
        })
        .collect();
    let est = KernelEstimator::new(
        &samples,
        Domain::new(LO, HI),
        KernelFn::Epanechnikov,
        25.0,
        BoundaryPolicy::NoTreatment,
    );
    for i in 0..200 {
        let a = (i * 7 % 997) as f64;
        let b = (a + (i * 13 % 400) as f64).min(HI);
        let q = RangeQuery::new(a, b);
        let fast = est.selectivity(&q);
        let slow = est.selectivity_linear(&q).clamp(0.0, 1.0);
        assert!(
            (fast - slow).abs() < 1e-12,
            "[{a},{b}]: sorted {fast} vs linear {slow}"
        );
    }
}
