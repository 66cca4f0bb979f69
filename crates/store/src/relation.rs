//! In-memory columnar relations with metric attributes.
//!
//! The substrate the paper's estimators live in: a relation `R` with named
//! real-valued attributes over declared domains. Deliberately minimal — the
//! pieces a query optimizer's statistics subsystem actually touches: full
//! scans, per-column access, exact range counts for validating
//! estimates, and the row sample `ANALYZE` draws from.

use std::collections::HashMap;
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

use selest_core::{Domain, RangeQuery};
use selest_data::reservoir_positions;

/// One metric attribute: a name, a declared domain, and its values.
#[derive(Debug, Clone)]
pub struct Column {
    name: String,
    domain: Domain,
    values: Vec<f64>,
}

impl Column {
    /// Build a column, validating every value against the domain.
    pub fn new(name: &str, domain: Domain, values: Vec<f64>) -> Self {
        for &v in &values {
            assert!(
                domain.contains(v),
                "column {name}: value {v} outside domain {domain}"
            );
        }
        Column {
            name: name.to_owned(),
            domain,
            values,
        }
    }

    /// Build a column without validating values against the domain — the
    /// ingestion point for untrusted data (bulk imports, fault
    /// injection). The infallible `ANALYZE` path is entitled to `new`'s
    /// invariant and may panic on such a column; the bulkheaded
    /// `try_analyze` path sanitizes the sample and quarantines the column
    /// with a typed error when nothing usable remains.
    pub fn new_unchecked(name: &str, domain: Domain, values: Vec<f64>) -> Self {
        Column {
            name: name.to_owned(),
            domain,
            values,
        }
    }

    /// Attribute name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Declared domain.
    pub fn domain(&self) -> Domain {
        self.domain
    }

    /// All values, in row order.
    pub fn values(&self) -> &[f64] {
        &self.values
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// Whether the column is empty.
    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }

    /// Exact count of rows matching `a <= v <= b`, by full scan.
    pub fn scan_count(&self, q: &RangeQuery) -> usize {
        self.values.iter().filter(|&&v| q.matches(v)).count()
    }
}

/// Sampled row positions by `(n_rows, sample_size, seed)`.
type Positions = HashMap<(usize, usize, u64), Arc<[u32]>>;

/// Memoized ANALYZE row samples, one per key drawn. A clone copies the
/// map and shares its position arrays.
#[derive(Debug, Default)]
struct SampleMemo(Mutex<Positions>);

impl SampleMemo {
    fn lock(&self) -> MutexGuard<'_, Positions> {
        // The draw panics before it inserts, so a poisoned map is intact.
        self.0.lock().unwrap_or_else(PoisonError::into_inner)
    }
}

impl Clone for SampleMemo {
    fn clone(&self) -> Self {
        SampleMemo(Mutex::new(self.lock().clone()))
    }
}

/// A relation: equal-length named columns.
#[derive(Debug, Clone, Default)]
pub struct Relation {
    name: String,
    columns: Vec<Column>,
    samples: SampleMemo,
}

impl Relation {
    /// An empty relation with the given name.
    pub fn new(name: &str) -> Self {
        Relation {
            name: name.to_owned(),
            columns: Vec::new(),
            samples: SampleMemo::default(),
        }
    }

    /// Relation name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Add a column; all columns must have the same row count.
    pub fn add_column(&mut self, column: Column) -> &mut Self {
        if let Some(first) = self.columns.first() {
            assert_eq!(
                first.len(),
                column.len(),
                "column {} has {} rows, relation {} has {}",
                column.name(),
                column.len(),
                self.name,
                first.len()
            );
        }
        assert!(
            self.column(column.name()).is_none(),
            "duplicate column {}",
            column.name()
        );
        self.columns.push(column);
        self
    }

    /// Look up a column by name.
    pub fn column(&self, name: &str) -> Option<&Column> {
        self.columns.iter().find(|c| c.name() == name)
    }

    /// All columns.
    pub fn columns(&self) -> &[Column] {
        &self.columns
    }

    /// Number of rows (0 for a relation without columns).
    pub fn n_rows(&self) -> usize {
        self.columns.first().map_or(0, Column::len)
    }

    /// The rows `ANALYZE` samples for `(sample_size, seed)`: Vitter's
    /// algorithm R over the relation's row positions
    /// ([`reservoir_positions`]), in reservoir-slot order. Every column has
    /// the same rows, so the paper's one sample of records serves them all:
    /// the positions are drawn on first use per `(n_rows, sample_size,
    /// seed)` and kept, and later calls share them.
    ///
    /// Panics if `sample_size == 0`.
    pub fn sample_positions(&self, sample_size: usize, seed: u64) -> Arc<[u32]> {
        let n_rows = self.n_rows();
        let mut memo = self.samples.lock();
        let rows = memo
            .entry((n_rows, sample_size, seed))
            .or_insert_with(|| reservoir_positions(n_rows, sample_size, seed).into());
        Arc::clone(rows)
    }

    /// Number of memoized row samples.
    #[cfg(test)]
    pub(crate) fn sample_memo_len(&self) -> usize {
        self.samples.lock().len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_relation() -> Relation {
        let d = Domain::new(0.0, 100.0);
        let mut r = Relation::new("measurements");
        r.add_column(Column::new("temp", d, vec![10.0, 20.0, 30.0, 40.0]));
        r.add_column(Column::new("hum", d, vec![55.0, 60.0, 65.0, 70.0]));
        r
    }

    #[test]
    fn columns_are_addressable_by_name() {
        let r = sample_relation();
        assert_eq!(r.n_rows(), 4);
        assert_eq!(r.column("temp").unwrap().values()[2], 30.0);
        assert!(r.column("pressure").is_none());
    }

    #[test]
    fn scan_count_matches_predicate() {
        let r = sample_relation();
        let c = r.column("temp").unwrap();
        assert_eq!(c.scan_count(&RangeQuery::new(15.0, 35.0)), 2);
        assert_eq!(c.scan_count(&RangeQuery::new(0.0, 100.0)), 4);
        assert_eq!(c.scan_count(&RangeQuery::new(41.0, 99.0)), 0);
    }

    #[test]
    #[should_panic(expected = "has 2 rows")]
    fn mismatched_row_counts_are_rejected() {
        let d = Domain::new(0.0, 100.0);
        let mut r = Relation::new("bad");
        r.add_column(Column::new("a", d, vec![1.0, 2.0, 3.0]));
        r.add_column(Column::new("b", d, vec![1.0, 2.0]));
    }

    #[test]
    #[should_panic(expected = "duplicate column")]
    fn duplicate_names_are_rejected() {
        let d = Domain::new(0.0, 100.0);
        let mut r = Relation::new("bad");
        r.add_column(Column::new("a", d, vec![1.0]));
        r.add_column(Column::new("a", d, vec![2.0]));
    }

    #[test]
    fn sample_positions_are_drawn_once_per_key_and_shared_by_clones() {
        let d = Domain::new(0.0, 1_000.0);
        let mut r = Relation::new("memo");
        r.add_column(Column::new("x", d, (0..1_000).map(f64::from).collect()));
        let a = r.sample_positions(100, 7);
        assert!(Arc::ptr_eq(&a, &r.sample_positions(100, 7)));
        assert_eq!(r.sample_memo_len(), 1, "one entry per key used");
        // A different key draws afresh: algorithm R over the row count.
        let b = r.sample_positions(100, 8);
        assert_eq!(*b, *reservoir_positions(1_000, 100, 8));
        assert_ne!(*a, *b);
        assert_eq!(r.sample_memo_len(), 2);
        // Positions are distinct rows of the relation.
        let mut sorted = a.to_vec();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), 100);
        assert!(sorted.iter().all(|&p| (p as usize) < r.n_rows()));
        // A clone gives the same positions without drawing again.
        let c = r.clone();
        assert!(Arc::ptr_eq(&a, &c.sample_positions(100, 7)));
        // Adding the first column changes the row count, hence the key.
        let mut empty = Relation::new("late");
        assert!(empty.sample_positions(10, 7).is_empty());
        empty.add_column(Column::new("x", d, (0..50).map(f64::from).collect()));
        assert_eq!(
            *empty.sample_positions(10, 7),
            *reservoir_positions(50, 10, 7)
        );
    }

    #[test]
    #[should_panic(expected = "outside domain")]
    fn out_of_domain_values_are_rejected() {
        let _ = Column::new("x", Domain::new(0.0, 10.0), vec![11.0]);
    }
}
