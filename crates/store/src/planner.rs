//! A toy cost-based access-path planner — the System R scenario the paper
//! opens with: the optimizer picks between a sequential scan and an index
//! scan based on the *estimated* selectivity, so estimation error directly
//! translates into plan regressions.
//!
//! Cost model (in abstract page-fetch units):
//!
//! ```text
//! cost(SeqScan)   = N * SCAN_COST_PER_ROW
//! cost(IndexScan) = INDEX_PROBE_COST + est_rows * FETCH_COST_PER_ROW
//! ```
//!
//! with `FETCH_COST_PER_ROW >> SCAN_COST_PER_ROW` (random vs. sequential
//! access), so index scans only pay off at low selectivity — the crossover
//! the estimator must locate.

use selest_core::fault::{catch_fault, EstimateError, FaultStage};
use selest_core::RangeQuery;

use crate::catalog::StatisticsCatalog;
use crate::index::SortedIndex;
use crate::relation::Relation;

/// Sequential scan cost per row (sequential I/O).
pub const SCAN_COST_PER_ROW: f64 = 1.0;
/// Fixed cost of descending the index.
pub const INDEX_PROBE_COST: f64 = 50.0;
/// Cost per fetched row through the index (random I/O).
pub const FETCH_COST_PER_ROW: f64 = 20.0;

/// Chosen access path.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AccessPath {
    /// Full sequential scan.
    SeqScan,
    /// Index range scan plus row fetches.
    IndexScan,
}

/// A plan: the chosen path with its estimated cardinality and cost.
#[derive(Debug, Clone, Copy)]
pub struct Plan {
    /// Chosen access path.
    pub path: AccessPath,
    /// Estimated matching rows.
    pub estimated_rows: f64,
    /// Estimated cost of the chosen path.
    pub estimated_cost: f64,
}

/// Outcome of executing a plan, for post-hoc regret analysis.
#[derive(Debug, Clone, Copy)]
pub struct Execution {
    /// The plan that ran.
    pub plan: Plan,
    /// Actual matching rows.
    pub actual_rows: usize,
    /// Cost the chosen path actually incurred (cost model applied to the
    /// true cardinality).
    pub actual_cost: f64,
    /// Cost of the best path in hindsight.
    pub optimal_cost: f64,
}

impl Execution {
    /// Regret ratio: `actual_cost / optimal_cost` (1.0 = the estimator led
    /// to the optimal plan).
    pub fn regret(&self) -> f64 {
        self.actual_cost / self.optimal_cost
    }
}

/// Cost of each path at a given (estimated or true) cardinality.
fn costs(n_rows: usize, matching: f64) -> (f64, f64) {
    let seq = n_rows as f64 * SCAN_COST_PER_ROW;
    let idx = INDEX_PROBE_COST + matching * FETCH_COST_PER_ROW;
    (seq, idx)
}

/// Fallible planning: missing statistics come back as
/// [`EstimateError::MissingStatistics`], a panicking estimator as
/// [`EstimateError::Panicked`], and a non-finite cardinality as
/// [`EstimateError::NonFiniteEstimate`] — the serving path decides whether
/// to fall back to a seq scan or surface the error, instead of crashing
/// mid-plan. Finite estimates are clamped to `[0, n_rows]` before costing.
pub fn try_plan_range_query(
    catalog: &StatisticsCatalog,
    relation: &Relation,
    column: &str,
    q: &RangeQuery,
) -> Result<Plan, EstimateError> {
    let stats = catalog.statistics(relation.name(), column).ok_or_else(|| {
        EstimateError::MissingStatistics {
            relation: relation.name().to_owned(),
            column: column.to_owned(),
        }
    })?;
    let estimated_rows = catch_fault(
        FaultStage::Estimate,
        std::panic::AssertUnwindSafe(|| stats.estimate_rows(q)),
    )?;
    if !estimated_rows.is_finite() {
        return Err(EstimateError::NonFiniteEstimate {
            value: estimated_rows,
        });
    }
    let estimated_rows = estimated_rows.clamp(0.0, relation.n_rows() as f64);
    let (seq, idx) = costs(relation.n_rows(), estimated_rows);
    Ok(if idx < seq {
        Plan {
            path: AccessPath::IndexScan,
            estimated_rows,
            estimated_cost: idx,
        }
    } else {
        Plan {
            path: AccessPath::SeqScan,
            estimated_rows,
            estimated_cost: seq,
        }
    })
}

/// Plan a range predicate over `relation.column` using the catalog's
/// statistics. Panics if the column was never analyzed; the panic-free
/// variant is [`try_plan_range_query`].
pub fn plan_range_query(
    catalog: &StatisticsCatalog,
    relation: &Relation,
    column: &str,
    q: &RangeQuery,
) -> Plan {
    try_plan_range_query(catalog, relation, column, q).unwrap_or_else(|e| panic!("{e}"))
}

/// Plan and "execute": compute the true cardinality via the index, price
/// both paths in hindsight, and report the regret.
pub fn execute_range_query(
    catalog: &StatisticsCatalog,
    relation: &Relation,
    column: &str,
    index: &SortedIndex,
    q: &RangeQuery,
) -> Execution {
    let plan = plan_range_query(catalog, relation, column, q);
    let actual_rows = index.count(q);
    let (seq, idx) = costs(relation.n_rows(), actual_rows as f64);
    let actual_cost = match plan.path {
        AccessPath::SeqScan => seq,
        AccessPath::IndexScan => idx,
    };
    Execution {
        plan,
        actual_rows,
        actual_cost,
        optimal_cost: seq.min(idx),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::catalog::{AnalyzeConfig, EstimatorKind};
    use crate::relation::Column;
    use selest_core::Domain;

    /// 10 000 rows, 90% clustered in [0, 100] of a [0, 1000] domain.
    fn setup(kind: EstimatorKind) -> (Relation, StatisticsCatalog, SortedIndex) {
        let d = Domain::new(0.0, 1_000.0);
        let mut values = Vec::new();
        for i in 0..9_000 {
            values.push(100.0 * (i as f64 + 0.5) / 9_000.0);
        }
        for i in 0..1_000 {
            values.push(100.0 + 900.0 * (i as f64 + 0.5) / 1_000.0);
        }
        let mut r = Relation::new("t");
        r.add_column(Column::new("v", d, values));
        let mut cat = StatisticsCatalog::new();
        cat.try_analyze(
            &r,
            &AnalyzeConfig {
                kind,
                ..Default::default()
            },
        );
        let idx = SortedIndex::build(r.column("v").unwrap());
        (r, cat, idx)
    }

    #[test]
    fn selective_query_uses_the_index() {
        let (r, cat, _) = setup(EstimatorKind::Kernel);
        // ~9 rows match: index scan wins by far.
        let q = RangeQuery::new(500.0, 508.0);
        let plan = plan_range_query(&cat, &r, "v", &q);
        assert_eq!(
            plan.path,
            AccessPath::IndexScan,
            "rows est {}",
            plan.estimated_rows
        );
    }

    #[test]
    fn unselective_query_uses_seq_scan() {
        let (r, cat, _) = setup(EstimatorKind::Kernel);
        // ~90% of rows match.
        let q = RangeQuery::new(0.0, 100.0);
        let plan = plan_range_query(&cat, &r, "v", &q);
        assert_eq!(
            plan.path,
            AccessPath::SeqScan,
            "rows est {}",
            plan.estimated_rows
        );
    }

    #[test]
    fn good_estimator_has_low_regret_across_a_workload() {
        let (r, cat, idx) = setup(EstimatorKind::Kernel);
        let mut total_regret = 0.0;
        let mut n = 0;
        for i in 0..50 {
            let a = 20.0 * i as f64;
            let q = RangeQuery::new(a, a + 15.0);
            let e = execute_range_query(&cat, &r, "v", &idx, &q);
            total_regret += e.regret();
            n += 1;
        }
        let avg = total_regret / n as f64;
        assert!(avg < 1.25, "kernel-statistics planner regret {avg}");
    }

    #[test]
    fn uniform_statistics_cause_plan_regressions() {
        // The uniform estimator thinks every width-15 query matches 1.5% of
        // rows (150), so it picks index scans even inside the dense region
        // where thousands of rows match — a classic plan regression.
        let (r, cat, idx) = setup(EstimatorKind::Uniform);
        let q = RangeQuery::new(10.0, 25.0); // truth: ~1 350 rows
        let e = execute_range_query(&cat, &r, "v", &idx, &q);
        assert_eq!(e.plan.path, AccessPath::IndexScan);
        assert!(
            e.regret() > 2.0,
            "expected a regression from uniform stats, regret {}",
            e.regret()
        );
    }

    #[test]
    fn execution_reports_true_cardinality() {
        let (r, cat, idx) = setup(EstimatorKind::Sampling);
        let q = RangeQuery::new(0.0, 1_000.0);
        let e = execute_range_query(&cat, &r, "v", &idx, &q);
        assert_eq!(e.actual_rows, 10_000);
        assert!(e.regret() >= 1.0);
    }

    #[test]
    #[should_panic(expected = "run ANALYZE")]
    fn planning_without_statistics_panics() {
        let (r, _, _) = setup(EstimatorKind::Uniform);
        let empty = StatisticsCatalog::new();
        let _ = plan_range_query(&empty, &r, "v", &RangeQuery::new(0.0, 1.0));
    }

    #[test]
    fn try_planning_without_statistics_is_a_typed_error() {
        let (r, _, _) = setup(EstimatorKind::Uniform);
        let empty = StatisticsCatalog::new();
        let err = try_plan_range_query(&empty, &r, "v", &RangeQuery::new(0.0, 1.0));
        match err {
            Err(EstimateError::MissingStatistics { relation, column }) => {
                assert_eq!(relation, "t");
                assert_eq!(column, "v");
            }
            other => panic!("expected MissingStatistics, got {other:?}"),
        }
    }

    #[test]
    fn try_planning_matches_the_panicking_path() {
        let (r, cat, _) = setup(EstimatorKind::Kernel);
        let q = RangeQuery::new(500.0, 508.0);
        let a = plan_range_query(&cat, &r, "v", &q);
        let b = try_plan_range_query(&cat, &r, "v", &q).expect("stats exist");
        assert_eq!(a.path, b.path);
        assert_eq!(a.estimated_rows, b.estimated_rows);
        assert_eq!(a.estimated_cost, b.estimated_cost);
    }
}
