//! Conjunctive range predicates over two columns: the classic optimizer
//! failure mode the paper's multidimensional future work targets.
//!
//! `WHERE a BETWEEN .. AND b BETWEEN ..` is traditionally estimated under
//! the *attribute value independence* assumption — the product of the
//! per-column selectivities — which collapses on correlated columns.
//! [`PairStatistics`] holds both the two marginal estimators and a joint
//! 2-D product-kernel estimator built from the same sample, so the planner
//! can quantify exactly what the independence assumption costs.

use std::sync::Arc;

use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use selest_core::{RangeQuery, SelectivityEstimator};
use selest_kernel::{Boundary2d, KernelEstimator2d, KernelFn, RectQuery};

use crate::catalog::{try_column_statistics, AnalyzeConfig};
use crate::relation::Relation;

/// How a conjunctive predicate's selectivity is estimated.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CorrelationModel {
    /// Product of the marginal selectivities (System R's assumption).
    Independence,
    /// Joint 2-D kernel estimate over the sampled pairs.
    Joint2d,
}

/// ANALYZE output for a column pair.
pub struct PairStatistics {
    marginal_x: Arc<dyn SelectivityEstimator + Send + Sync>,
    marginal_y: Arc<dyn SelectivityEstimator + Send + Sync>,
    joint: KernelEstimator2d,
    n_rows: usize,
}

impl PairStatistics {
    /// ANALYZE two columns of a relation jointly: row-aligned sample pairs
    /// feed the 2-D kernel estimator; the configured 1-D estimator kind is
    /// built per column for the independence model, through the same
    /// bulkheaded per-column build as [`crate::StatisticsCatalog::try_analyze`].
    ///
    /// # Panics
    ///
    /// If either column is missing, the columns differ in length, the
    /// relation has fewer than two rows, or a marginal cannot be built
    /// (the panic carries the build's typed error).
    pub fn analyze(relation: &Relation, col_x: &str, col_y: &str, config: &AnalyzeConfig) -> Self {
        let x = relation
            .column(col_x)
            .unwrap_or_else(|| panic!("no column {col_x} in {}", relation.name()));
        let y = relation
            .column(col_y)
            .unwrap_or_else(|| panic!("no column {col_y} in {}", relation.name()));
        assert_eq!(x.len(), y.len(), "column lengths differ");
        assert!(x.len() >= 2, "need at least two rows");
        // Row-aligned sample without replacement (partial Fisher-Yates over
        // row ids, so the pair correlation survives sampling).
        let n = config.sample_size.min(x.len());
        let mut rng = StdRng::seed_from_u64(config.seed);
        let mut idx: Vec<u32> = (0..x.len() as u32).collect();
        let mut pairs = Vec::with_capacity(n);
        for i in 0..n {
            let j = rng.random_range(i..idx.len());
            idx.swap(i, j);
            let row = idx[i] as usize;
            pairs.push((x.values()[row], y.values()[row]));
        }
        // Scott's marginal bandwidths oversmooth correlated pairs; the
        // LSCV-rescaled variant adapts to the joint structure.
        let joint = KernelEstimator2d::with_lscv_scaled_scott(
            &pairs,
            x.domain(),
            y.domain(),
            KernelFn::Epanechnikov,
            Boundary2d::Reflection,
        );
        let marginal = |c| match try_column_statistics(relation.name(), c, config) {
            Ok((stats, _audit)) => stats.estimator,
            Err(e) => panic!("ANALYZE of {}.{}: {e}", relation.name(), c.name()),
        };
        PairStatistics {
            marginal_x: marginal(x),
            marginal_y: marginal(y),
            joint,
            n_rows: x.len(),
        }
    }

    /// Estimated selectivity of `qx AND qy` under the chosen model.
    pub fn selectivity(&self, qx: &RangeQuery, qy: &RangeQuery, model: CorrelationModel) -> f64 {
        match model {
            CorrelationModel::Independence => {
                self.marginal_x.selectivity(qx) * self.marginal_y.selectivity(qy)
            }
            CorrelationModel::Joint2d => {
                self.joint
                    .selectivity(&RectQuery::new(qx.a(), qx.b(), qy.a(), qy.b()))
            }
        }
    }

    /// Estimated matching rows under the chosen model.
    pub fn estimate_rows(&self, qx: &RangeQuery, qy: &RangeQuery, model: CorrelationModel) -> f64 {
        self.selectivity(qx, qy, model) * self.n_rows as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::catalog::EstimatorKind;
    use crate::relation::Column;
    use selest_core::Domain;

    /// A relation where y tracks x tightly (strong correlation).
    fn correlated_relation() -> Relation {
        let d = Domain::new(0.0, 1_000.0);
        let n = 20_000;
        let xs: Vec<f64> = (0..n)
            .map(|i| 1_000.0 * (i as f64 + 0.5) / n as f64)
            .collect();
        let ys: Vec<f64> = xs
            .iter()
            .enumerate()
            .map(|(i, &x)| (x + 40.0 * (((i * 37) % 100) as f64 / 100.0 - 0.5)).clamp(0.0, 1_000.0))
            .collect();
        let mut r = Relation::new("pairs");
        r.add_column(Column::new("x", d, xs));
        r.add_column(Column::new("y", d, ys));
        r
    }

    fn truth(r: &Relation, qx: &RangeQuery, qy: &RangeQuery) -> f64 {
        let xs = r.column("x").unwrap().values();
        let ys = r.column("y").unwrap().values();
        xs.iter()
            .zip(ys)
            .filter(|&(&x, &y)| qx.matches(x) && qy.matches(y))
            .count() as f64
            / xs.len() as f64
    }

    #[test]
    fn independence_collapses_on_correlated_columns_joint_does_not() {
        let r = correlated_relation();
        let stats = PairStatistics::analyze(
            &r,
            "x",
            "y",
            &AnalyzeConfig {
                kind: EstimatorKind::Kernel,
                ..Default::default()
            },
        );
        // Diagonal band query: both predicates select the same 10% slice.
        let qx = RangeQuery::new(400.0, 500.0);
        let qy = RangeQuery::new(400.0, 500.0);
        let t = truth(&r, &qx, &qy); // ~0.1, NOT 0.01
        assert!(t > 0.07, "premise: correlated truth {t}");
        let indep = stats.selectivity(&qx, &qy, CorrelationModel::Independence);
        let joint = stats.selectivity(&qx, &qy, CorrelationModel::Joint2d);
        assert!(
            (indep - t).abs() > 5.0 * (joint - t).abs(),
            "joint ({joint}) should be far closer to truth ({t}) than independence ({indep})"
        );
        assert!(indep < 0.03, "independence should estimate ~1%: {indep}");
    }

    #[test]
    fn off_diagonal_queries_are_near_empty_under_the_joint_model() {
        let r = correlated_relation();
        let stats = PairStatistics::analyze(
            &r,
            "x",
            "y",
            &AnalyzeConfig {
                kind: EstimatorKind::Kernel,
                ..Default::default()
            },
        );
        let qx = RangeQuery::new(100.0, 200.0);
        let qy = RangeQuery::new(700.0, 800.0);
        let joint = stats.selectivity(&qx, &qy, CorrelationModel::Joint2d);
        assert!(joint < 0.01, "off-diagonal joint estimate {joint}");
        assert_eq!(truth(&r, &qx, &qy), 0.0);
    }

    #[test]
    fn estimate_rows_scales_by_relation_size() {
        let r = correlated_relation();
        let stats = PairStatistics::analyze(&r, "x", "y", &AnalyzeConfig::default());
        let qx = RangeQuery::new(0.0, 1_000.0);
        let qy = RangeQuery::new(0.0, 1_000.0);
        let rows = stats.estimate_rows(&qx, &qy, CorrelationModel::Joint2d);
        assert!((rows - 20_000.0).abs() < 600.0, "full-domain rows {rows}");
    }

    #[test]
    #[should_panic(expected = "no column z")]
    fn missing_column_panics() {
        let r = correlated_relation();
        let _ = PairStatistics::analyze(&r, "x", "z", &AnalyzeConfig::default());
    }
}
