//! The paper's motivating scenario end to end: a relation in the column
//! store, `ANALYZE` building estimator-backed statistics, and a cost-based
//! planner choosing access paths — with regret measured against hindsight
//! for each estimator kind.
//!
//! ```text
//! cargo run --release --example query_optimizer
//! ```

use selest::store::{
    execute_range_query, AnalyzeConfig, Column, EstimatorKind, Relation, SortedIndex,
    StatisticsCatalog,
};
use selest::{PaperFile, RangeQuery};

fn main() {
    // A sales relation whose `amount` attribute follows the paper's
    // exponential file: heavily skewed toward small values.
    let data = PaperFile::Exponential { p: 20 }.generate_scaled(4);
    let domain = data.domain();
    let mut sales = Relation::new("sales");
    sales.add_column(Column::new("amount", domain, data.values().to_vec()));
    let index = SortedIndex::build(sales.column("amount").expect("column exists"));
    println!(
        "relation sales({} rows), amount ~ Exponential over {domain}",
        sales.n_rows()
    );

    // A mixed workload: small and large ranges at skewed positions.
    let w = domain.width();
    let mut queries = Vec::new();
    for i in 0..60 {
        let start = w * 0.9 * (i as f64 / 60.0).powi(3); // most probes in the dense region
        let size = if i % 3 == 0 { 0.001 } else { 0.03 };
        queries.push(RangeQuery::new(start, (start + size * w).min(domain.hi())));
    }

    println!(
        "\n{:<10} {:>12} {:>12} {:>12} {:>10}",
        "ANALYZE", "avg regret", "worst", "index scans", "seq scans"
    );
    for kind in EstimatorKind::ALL {
        let mut catalog = StatisticsCatalog::new();
        let health = catalog.try_analyze(
            &sales,
            &AnalyzeConfig {
                kind,
                ..Default::default()
            },
        );
        assert!(health.is_healthy(), "{:?}", health.quarantined);
        let mut total = 0.0;
        let mut worst: f64 = 1.0;
        let (mut idx_scans, mut seq_scans) = (0usize, 0usize);
        for q in &queries {
            let e = execute_range_query(&catalog, &sales, "amount", &index, q);
            total += e.regret();
            worst = worst.max(e.regret());
            match e.plan.path {
                selest::store::AccessPath::IndexScan => idx_scans += 1,
                selest::store::AccessPath::SeqScan => seq_scans += 1,
            }
        }
        println!(
            "{:<10} {:>12.3} {:>12.2} {:>12} {:>10}",
            format!("{kind:?}"),
            total / queries.len() as f64,
            worst,
            idx_scans,
            seq_scans
        );
    }

    println!(
        "\nregret = cost of the chosen plan / cost of the best plan in hindsight; \
         1.0 means the statistics never misled the planner"
    );
}
