//! Workspace-level contract of the incremental statistics catalog: zero
//! updates change nothing. The staleness sweep refreshes no column,
//! `IncrementalColumn::snapshot` hands back the previous `Arc` with the
//! bits of a from-scratch `PreparedColumn::prepare`, and the serving
//! engine answers with the catalog's own estimator bits.
//!
//! The value stream is a golden-ratio low-discrepancy sequence over
//! `[0, 1000)`: deterministic and dense.

use std::sync::Arc;

use selest::core::{IncrementalColumn, PreparedColumn};
use selest::par::TryConfig;
use selest::store::{
    AnalyzeConfig, CatalogSnapshot, Column, EstimatorKind, Relation, ServingEngine,
    StalenessPolicy, StatisticsCatalog,
};
use selest::{Domain, RangeQuery};

fn golden(i: u64) -> f64 {
    1_000.0 * ((i as f64) * 0.618_033_988_749).fract()
}

fn domain() -> Domain {
    Domain::new(0.0, 1_000.0)
}

fn relation_over(range: std::ops::Range<u64>) -> Relation {
    let mut r = Relation::new("ingest");
    r.add_column(Column::new("v", domain(), range.map(golden).collect()));
    r
}

fn config() -> AnalyzeConfig {
    AnalyzeConfig {
        kind: EstimatorKind::EquiDepth,
        ..Default::default()
    }
}

fn incremental_catalog(range: std::ops::Range<u64>) -> StatisticsCatalog {
    let mut cat = StatisticsCatalog::new();
    let health = cat.try_analyze_incremental(&relation_over(range), &config(), &TryConfig::jobs(1));
    assert!(health.is_healthy(), "the stream analyzes cleanly");
    cat
}

#[test]
fn zero_updates_reuse_the_snapshot_and_serve_identical_bits() {
    let rows: u64 = 5_000;
    let values: Vec<f64> = (0..rows).map(golden).collect();
    let mut col = IncrementalColumn::from_values(&values, domain(), 2_000, 0x5e1ec7)
        .expect("a finite stream prepares");
    let first = col.snapshot();
    let second = col.snapshot();
    assert!(Arc::ptr_eq(&first, &second), "a clean snapshot is reused");
    let fresh = PreparedColumn::prepare(&col.reservoir().sample(), domain());
    let bits = |xs: &[f64]| xs.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
    assert_eq!(bits(first.sorted()), bits(fresh.sorted()));
    assert_eq!(bits(first.values()), bits(fresh.values()));

    let mut cat = incremental_catalog(0..rows);
    let refresh = cat.try_refresh_stale(&StalenessPolicy::default(), &TryConfig::jobs(1));
    assert!(refresh.refreshed.is_empty(), "nothing is stale");
    let engine = ServingEngine::with_defaults();
    engine.publish_snapshot(CatalogSnapshot::from_catalog_ref(&cat, 0));
    let direct = &cat.statistics("ingest", "v").expect("analyzed").estimator;
    for i in 0..64 {
        let center = golden(i);
        let fraction = 0.02 + 0.18 * ((i as f64) * 0.317).fract();
        let q = RangeQuery::centered(&domain(), center, fraction);
        let served = engine.try_estimate("ingest", "v", &q).expect("served");
        assert_eq!(
            served.to_bits(),
            direct.selectivity(&q).to_bits(),
            "query {q}: served bits differ from the catalog's estimator"
        );
    }
}
