//! Workspace-level contracts of the incremental statistics catalog.
//!
//! 1. Merging partition catalogs loses no row: the merged GK sketch counts
//!    every shard's rows, and every probed quantile sits within the
//!    sketch's own realized rank-error bound, which in turn respects the
//!    documented post-merge `2 * epsilon * n` guarantee.
//! 2. Zero updates change nothing: the staleness sweep refreshes no
//!    column, `IncrementalColumn::snapshot` hands back the previous `Arc`
//!    with the bits of a from-scratch `PreparedColumn::prepare`, and the
//!    serving engine answers with the catalog's own estimator bits.
//!
//! The value stream is a golden-ratio low-discrepancy sequence over
//! `[0, 1000)`: deterministic, dense and tie-free enough that rank probes
//! are unambiguous.

use std::sync::Arc;

use selest::core::{IncrementalColumn, PreparedColumn};
use selest::par::TryConfig;
use selest::store::{
    AnalyzeConfig, CatalogSnapshot, Column, EstimatorKind, Relation, ServingEngine,
    StalenessPolicy, StatisticsCatalog, SKETCH_EPSILON,
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
fn merged_partitions_count_every_row_within_the_rank_bound() {
    const SHARDS: u64 = 4;
    const PER_SHARD: u64 = 2_500;
    let rows = SHARDS * PER_SHARD;
    let mut parts: Vec<StatisticsCatalog> = (0..SHARDS)
        .map(|s| incremental_catalog(s * PER_SHARD..(s + 1) * PER_SHARD))
        .collect();
    let mut merged = parts.remove(0);
    assert!(merged
        .try_merge_partitions(parts, &TryConfig::jobs(1))
        .is_healthy());
    let stats = merged.statistics("ingest", "v").expect("merged entry");
    assert_eq!(stats.n_rows as u64, rows, "every shard row is counted");
    let sketch = &stats
        .incremental
        .as_ref()
        .expect("incremental state survives the merge")
        .sketch;
    assert_eq!(sketch.len(), rows, "the merged sketch counts every row");

    let bound = sketch.rank_error_bound();
    let two_eps_n = (2.0 * SKETCH_EPSILON * rows as f64).ceil() as u64;
    assert!(bound <= two_eps_n, "bound {bound} exceeds 2en {two_eps_n}");
    let mut sorted: Vec<f64> = (0..rows).map(golden).collect();
    sorted.sort_by(f64::total_cmp);
    let probes = 19;
    for p in 1..=probes {
        let q = p as f64 / (probes + 1) as f64;
        let (value, reported) = sketch.quantile_with_bound(q);
        assert_eq!(reported, bound);
        // The true rank of `value` is anywhere in [lt + 1, le]; the error
        // is the distance from the target rank to that interval.
        let target = (q * rows as f64).ceil().max(1.0) as u64;
        let lt = sorted.partition_point(|&v| v < value) as u64;
        let le = sorted.partition_point(|&v| v <= value) as u64;
        let err = if target < lt + 1 {
            lt + 1 - target
        } else {
            target.saturating_sub(le)
        };
        assert!(
            err <= bound,
            "quantile {q}: realized rank error {err} exceeds the bound {bound}"
        );
    }
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
