//! A small typed query layer over the column store: conjunctions of range
//! predicates, estimator-driven planning, and execution — the full loop a
//! database runs for `SELECT .. WHERE a BETWEEN .. AND b BETWEEN ..`.
//!
//! [`Database`] owns relations, sorted indexes, the per-column statistics
//! catalog, and optional per-pair joint statistics. [`Database::explain`]
//! shows what the optimizer would do and why (estimated cardinalities per
//! predicate); [`Database::execute`] runs the chosen plan and reports both
//! the result and the plan for post-hoc accuracy checks.

use std::collections::HashMap;

use selest_core::RangeQuery;

use crate::catalog::{AnalyzeConfig, CatalogHealthReport, StatisticsCatalog};
use crate::conjunctive::{CorrelationModel, PairStatistics};
use crate::index::SortedIndex;
use crate::planner::{FETCH_COST_PER_ROW, INDEX_PROBE_COST, SCAN_COST_PER_ROW};
use crate::relation::Relation;

/// One range predicate: `column BETWEEN range.a() AND range.b()`.
#[derive(Debug, Clone)]
pub struct RangePredicate {
    /// Column name.
    pub column: String,
    /// The closed range.
    pub range: RangeQuery,
}

/// A conjunctive selection over one relation.
#[derive(Debug, Clone)]
pub struct SelectQuery {
    /// Target relation.
    pub relation: String,
    /// AND-combined predicates (at least one).
    pub predicates: Vec<RangePredicate>,
}

impl SelectQuery {
    /// Build a query; panics on an empty predicate list.
    pub fn new(relation: &str, predicates: Vec<RangePredicate>) -> Self {
        assert!(
            !predicates.is_empty(),
            "SelectQuery needs at least one predicate"
        );
        SelectQuery {
            relation: relation.to_owned(),
            predicates,
        }
    }
}

/// The access path the planner chose.
#[derive(Debug, Clone, PartialEq)]
pub enum ChosenPath {
    /// Full scan, filtering all predicates.
    SeqScan,
    /// Probe the index on the named column, then filter the rest.
    IndexScan {
        /// The driving indexed column.
        column: String,
    },
}

/// Planner output: path, estimates, costs.
#[derive(Debug, Clone)]
pub struct Explanation {
    /// The chosen access path.
    pub path: ChosenPath,
    /// Estimated rows matching the whole conjunction.
    pub estimated_rows: f64,
    /// Estimated rows per predicate, in query order.
    pub per_predicate_rows: Vec<f64>,
    /// Estimated cost of the chosen path.
    pub estimated_cost: f64,
}

/// Execution output: matching row ids plus the plan that produced them.
#[derive(Debug, Clone)]
pub struct QueryResult {
    /// Row ids matching all predicates, ascending.
    pub rows: Vec<u32>,
    /// The plan that ran.
    pub explanation: Explanation,
}

/// A tiny single-node database: relations, indexes, statistics.
///
/// # Examples
///
/// ```
/// use selest_core::{Domain, RangeQuery};
/// use selest_store::{AnalyzeConfig, Column, Database, RangePredicate, Relation, SelectQuery};
///
/// let domain = Domain::new(0.0, 1000.0);
/// let values: Vec<f64> = (0..5000).map(|i| (i as f64 * 7.31) % 1000.0).collect();
/// let mut rel = Relation::new("t");
/// rel.add_column(Column::new("x", domain, values));
///
/// let mut db = Database::new();
/// db.add_relation(rel);
/// db.create_index("t", "x");
/// db.analyze("t", &AnalyzeConfig::default());
///
/// let q = SelectQuery::new("t", vec![RangePredicate {
///     column: "x".into(),
///     range: RangeQuery::new(100.0, 150.0),
/// }]);
/// let result = db.execute(&q);
/// let est = db.estimate_rows(&q);
/// assert!((est - result.rows.len() as f64).abs() < 40.0);
/// ```
#[derive(Default)]
pub struct Database {
    relations: HashMap<String, Relation>,
    indexes: HashMap<(String, String), SortedIndex>,
    catalog: StatisticsCatalog,
    pair_stats: HashMap<(String, String, String), PairStatistics>,
}

impl Database {
    /// Empty database.
    pub fn new() -> Self {
        Self::default()
    }

    /// Register a relation (replacing any previous one of the same name).
    pub fn add_relation(&mut self, relation: Relation) {
        self.relations.insert(relation.name().to_owned(), relation);
    }

    /// Look up a relation.
    pub fn relation(&self, name: &str) -> Option<&Relation> {
        self.relations.get(name)
    }

    /// Build a sorted index on `relation.column`.
    pub fn create_index(&mut self, relation: &str, column: &str) {
        let rel = self
            .relations
            .get(relation)
            .unwrap_or_else(|| panic!("no relation {relation}"));
        let col = rel
            .column(column)
            .unwrap_or_else(|| panic!("no column {column} in {relation}"));
        self.indexes.insert(
            (relation.to_owned(), column.to_owned()),
            SortedIndex::build(col),
        );
    }

    /// ANALYZE every column of a relation through the catalog's
    /// bulkheaded build ([`StatisticsCatalog::try_analyze`]): a column
    /// that cannot be built is quarantined, not fatal, and the returned
    /// health report names it.
    pub fn analyze(&mut self, relation: &str, config: &AnalyzeConfig) -> CatalogHealthReport {
        let rel = self
            .relations
            .get(relation)
            .unwrap_or_else(|| panic!("no relation {relation}"));
        self.catalog.try_analyze(rel, config)
    }

    /// ANALYZE a column pair jointly (enables the 2-D correlation model
    /// for conjunctions over exactly these two columns).
    pub fn analyze_pair(
        &mut self,
        relation: &str,
        col_x: &str,
        col_y: &str,
        config: &AnalyzeConfig,
    ) {
        let rel = self
            .relations
            .get(relation)
            .unwrap_or_else(|| panic!("no relation {relation}"));
        let stats = PairStatistics::analyze(rel, col_x, col_y, config);
        self.pair_stats.insert(
            (relation.to_owned(), col_x.to_owned(), col_y.to_owned()),
            stats,
        );
    }

    /// Estimated rows matching a conjunction. Uses joint pair statistics
    /// when they exist for a two-predicate query, the independence product
    /// of per-column statistics otherwise.
    pub fn estimate_rows(&self, q: &SelectQuery) -> f64 {
        let rel = self
            .relations
            .get(&q.relation)
            .unwrap_or_else(|| panic!("no relation {}", q.relation));
        // Joint model for exactly two predicates with pair statistics
        // (either column order).
        if let [p1, p2] = q.predicates.as_slice() {
            let fwd = (q.relation.clone(), p1.column.clone(), p2.column.clone());
            let rev = (q.relation.clone(), p2.column.clone(), p1.column.clone());
            if let Some(ps) = self.pair_stats.get(&fwd) {
                return ps.estimate_rows(&p1.range, &p2.range, CorrelationModel::Joint2d);
            }
            if let Some(ps) = self.pair_stats.get(&rev) {
                return ps.estimate_rows(&p2.range, &p1.range, CorrelationModel::Joint2d);
            }
        }
        // Independence product.
        let mut sel = 1.0;
        for p in &q.predicates {
            let st = self
                .catalog
                .statistics(&q.relation, &p.column)
                .unwrap_or_else(|| {
                    panic!("no statistics for {}.{}; run ANALYZE", q.relation, p.column)
                });
            sel *= st.estimator.selectivity(&p.range);
        }
        sel * rel.n_rows() as f64
    }

    /// Plan the query without executing it.
    pub fn explain(&self, q: &SelectQuery) -> Explanation {
        let rel = self
            .relations
            .get(&q.relation)
            .unwrap_or_else(|| panic!("no relation {}", q.relation));
        let per_predicate_rows: Vec<f64> = q
            .predicates
            .iter()
            .map(|p| {
                let st = self
                    .catalog
                    .statistics(&q.relation, &p.column)
                    .unwrap_or_else(|| {
                        panic!("no statistics for {}.{}; run ANALYZE", q.relation, p.column)
                    });
                st.estimate_rows(&p.range)
            })
            .collect();
        let estimated_rows = self.estimate_rows(q);
        // Candidate index scans: drive with the indexed predicate whose
        // *individual* estimate is smallest (fetches dominate the cost).
        let seq_cost = rel.n_rows() as f64 * SCAN_COST_PER_ROW;
        let mut best: (ChosenPath, f64) = (ChosenPath::SeqScan, seq_cost);
        for (p, &rows) in q.predicates.iter().zip(&per_predicate_rows) {
            let key = (q.relation.clone(), p.column.clone());
            if self.indexes.contains_key(&key) {
                let cost = INDEX_PROBE_COST + rows * FETCH_COST_PER_ROW;
                if cost < best.1 {
                    best = (
                        ChosenPath::IndexScan {
                            column: p.column.clone(),
                        },
                        cost,
                    );
                }
            }
        }
        Explanation {
            path: best.0,
            estimated_rows,
            per_predicate_rows,
            estimated_cost: best.1,
        }
    }

    /// Plan and execute, returning matching row ids (ascending).
    pub fn execute(&self, q: &SelectQuery) -> QueryResult {
        let rel = self
            .relations
            .get(&q.relation)
            .unwrap_or_else(|| panic!("no relation {}", q.relation));
        let explanation = self.explain(q);
        let matches_all = |row: usize| {
            q.predicates.iter().all(|p| {
                let col = rel.column(&p.column).expect("validated at plan time");
                p.range.matches(col.values()[row])
            })
        };
        let mut rows: Vec<u32> = match &explanation.path {
            ChosenPath::SeqScan => (0..rel.n_rows())
                .filter(|&r| matches_all(r))
                .map(|r| r as u32)
                .collect(),
            ChosenPath::IndexScan { column } => {
                let idx = &self.indexes[&(q.relation.clone(), column.clone())];
                let driving = q
                    .predicates
                    .iter()
                    .find(|p| &p.column == column)
                    .expect("driving predicate exists");
                idx.lookup(&driving.range)
                    .into_iter()
                    .filter(|&r| matches_all(r as usize))
                    .collect()
            }
        };
        rows.sort_unstable();
        QueryResult { rows, explanation }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::catalog::EstimatorKind;
    use crate::relation::Column;
    use selest_core::Domain;

    /// orders(amount skewed-low, day uniform, lag = day-correlated).
    fn database() -> Database {
        let d = Domain::new(0.0, 1_000.0);
        let n = 10_000;
        let amount: Vec<f64> = (0..n)
            .map(|i| 1_000.0 * ((i as f64 + 0.5) / n as f64).powi(3))
            .collect();
        let day: Vec<f64> = (0..n).map(|i| ((i * 37) % 1_000) as f64).collect();
        let lag: Vec<f64> = day.iter().map(|&x| (x * 0.9 + 30.0).min(1_000.0)).collect();
        let mut rel = Relation::new("orders");
        rel.add_column(Column::new("amount", d, amount));
        rel.add_column(Column::new("day", d, day));
        rel.add_column(Column::new("lag", d, lag));
        let mut db = Database::new();
        db.add_relation(rel);
        db.create_index("orders", "amount");
        db.analyze(
            "orders",
            &AnalyzeConfig {
                kind: EstimatorKind::Kernel,
                ..Default::default()
            },
        );
        db
    }

    fn pred(column: &str, a: f64, b: f64) -> RangePredicate {
        RangePredicate {
            column: column.into(),
            range: RangeQuery::new(a, b),
        }
    }

    #[test]
    fn execution_matches_a_reference_scan() {
        let db = database();
        let q = SelectQuery::new(
            "orders",
            vec![pred("amount", 100.0, 300.0), pred("day", 0.0, 500.0)],
        );
        let result = db.execute(&q);
        // Reference: brute-force filter.
        let rel = db.relation("orders").unwrap();
        let reference: Vec<u32> = (0..rel.n_rows())
            .filter(|&r| {
                let a = rel.column("amount").unwrap().values()[r];
                let d = rel.column("day").unwrap().values()[r];
                (100.0..=300.0).contains(&a) && (0.0..=500.0).contains(&d)
            })
            .map(|r| r as u32)
            .collect();
        assert_eq!(result.rows, reference);
    }

    #[test]
    fn selective_indexed_predicate_drives_the_plan() {
        let db = database();
        // amount > 900 is rare (cubic skew): index scan on amount.
        let q = SelectQuery::new(
            "orders",
            vec![pred("amount", 900.0, 1_000.0), pred("day", 0.0, 1_000.0)],
        );
        let e = db.explain(&q);
        assert_eq!(
            e.path,
            ChosenPath::IndexScan {
                column: "amount".into()
            }
        );
        // A fat predicate falls back to the scan.
        let q = SelectQuery::new("orders", vec![pred("amount", 0.0, 1_000.0)]);
        assert_eq!(db.explain(&q).path, ChosenPath::SeqScan);
    }

    #[test]
    fn estimates_track_actual_cardinalities() {
        let db = database();
        let q = SelectQuery::new("orders", vec![pred("amount", 0.0, 125.0)]);
        // Cubic skew: amount <= 125 covers the first half of rows.
        let est = db.estimate_rows(&q);
        let actual = db.execute(&q).rows.len() as f64;
        assert!(
            (est - actual).abs() / actual < 0.1,
            "estimate {est} vs actual {actual}"
        );
    }

    #[test]
    fn pair_statistics_fix_correlated_conjunctions() {
        let mut db = database();
        let q = SelectQuery::new(
            "orders",
            vec![pred("day", 400.0, 500.0), pred("lag", 390.0, 480.0)],
        );
        let actual = db.execute(&q).rows.len() as f64;
        assert!(
            actual > 500.0,
            "premise: correlated band is fat, actual {actual}"
        );
        let indep = db.estimate_rows(&q);
        db.analyze_pair("orders", "day", "lag", &AnalyzeConfig::default());
        let joint = db.estimate_rows(&q);
        assert!(
            (joint - actual).abs() < 0.5 * (indep - actual).abs(),
            "joint {joint} should be closer to {actual} than independence {indep}"
        );
    }

    #[test]
    fn explanation_reports_per_predicate_estimates() {
        let db = database();
        let q = SelectQuery::new(
            "orders",
            vec![pred("amount", 0.0, 1_000.0), pred("day", 0.0, 99.0)],
        );
        let e = db.explain(&q);
        assert_eq!(e.per_predicate_rows.len(), 2);
        assert!((e.per_predicate_rows[0] - 10_000.0).abs() < 200.0);
        assert!((e.per_predicate_rows[1] - 1_000.0).abs() < 200.0);
    }

    #[test]
    #[should_panic(expected = "run ANALYZE")]
    fn planning_requires_statistics() {
        let d = Domain::new(0.0, 10.0);
        let mut rel = Relation::new("t");
        rel.add_column(Column::new("x", d, vec![1.0, 2.0]));
        let mut db = Database::new();
        db.add_relation(rel);
        let q = SelectQuery::new("t", vec![pred("x", 0.0, 5.0)]);
        let _ = db.explain(&q);
    }
}
