//! Streaming ANALYZE: summarize a whole relation in one pass with a
//! Greenwald–Khanna quantile sketch, build an equi-depth histogram from the
//! sketch, and persist/restore the statistics catalog — the maintenance
//! loop of a production optimizer, on this paper's estimators.
//!
//! ```text
//! cargo run --release --example streaming_analyze
//! ```

use selest::data::GkSketch;
use selest::histogram::BinnedHistogram;
use selest::store::{
    decode_statistics, encode_statistics, AnalyzeConfig, Column, EstimatorKind, Relation,
    StatisticsCatalog,
};
use selest::{ExactSelectivity, PaperFile, RangeQuery, SelectivityEstimator};

fn main() {
    let data = PaperFile::Exponential { p: 20 }.generate_scaled(2);
    let domain = data.domain();
    let exact = ExactSelectivity::new(data.values(), domain);
    println!("streaming over {} ({} rows)...", data.name(), data.len());

    // One pass, bounded memory.
    let mut sketch = GkSketch::new(0.002);
    sketch
        .try_insert_all(data.values())
        .expect("paper files are finite");
    println!(
        "GK sketch: {} entries for {} rows ({}x compression)",
        sketch.entries(),
        data.len(),
        data.len() / sketch.entries()
    );

    // Equi-depth histogram straight from the sketch.
    let k = 32;
    let boundaries = sketch.equi_depth_boundaries(k, domain.lo(), domain.hi());
    let n = data.len();
    let counts: Vec<u32> = (1..=k)
        .map(|j| ((j * n).div_ceil(k) - ((j - 1) * n).div_ceil(k)) as u32)
        .collect();
    let hist = BinnedHistogram::new(boundaries, counts, domain, "EDH");

    println!(
        "\n{:<28} {:>10} {:>12} {:>9}",
        "query", "actual", "estimated", "rel.err"
    );
    let w = domain.width();
    for (a, b) in [(0.0, 0.02 * w), (0.05 * w, 0.10 * w), (0.3 * w, 0.9 * w)] {
        let q = RangeQuery::new(a, b);
        let truth = exact.count(&q);
        let est = hist.estimate_count(&q, n);
        println!(
            "{:<28} {truth:>10} {est:>12.0} {:>8.2}%",
            format!("[{:.0}, {:.0}]", a, b),
            100.0 * (est - truth as f64).abs() / (truth.max(1)) as f64
        );
    }

    // Persist a whole catalog and restore it elsewhere.
    let mut rel = Relation::new("events");
    rel.add_column(Column::new("ts", domain, data.values().to_vec()));
    let mut catalog = StatisticsCatalog::new();
    let health = catalog.try_analyze(
        &rel,
        &AnalyzeConfig {
            kind: EstimatorKind::Kernel,
            ..Default::default()
        },
    );
    assert!(health.is_healthy(), "{:?}", health.quarantined);
    let text = encode_statistics(&catalog.export());
    println!(
        "\npersisted catalog: {} bytes of evidence for {} column(s)",
        text.len(),
        catalog.len()
    );
    let mut restored = StatisticsCatalog::new();
    let failures =
        restored.try_import(decode_statistics(&text).expect("well-formed statistics file"));
    assert!(failures.is_empty(), "{failures:?}");
    let q = RangeQuery::new(0.0, 0.05 * w);
    let before = catalog
        .statistics("events", "ts")
        .unwrap()
        .estimate_rows(&q);
    let after = restored
        .statistics("events", "ts")
        .unwrap()
        .estimate_rows(&q);
    println!("estimate before persist: {before:.1} rows; after restore: {after:.1} rows");
    assert_eq!(before, after);
    println!("restored estimators answer bit-identically — evidence-based persistence works");
}
