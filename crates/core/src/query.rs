//! Range queries `Q(a, b)`.

use crate::domain::Domain;

/// A range query `Q(a, b)` retrieving all records `r` with `a <= r.A <= b`
/// (Section 2 of the paper).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RangeQuery {
    a: f64,
    b: f64,
}

impl RangeQuery {
    /// Build `Q(a, b)`. Panics unless `a <= b` and both are finite;
    /// serving paths use [`RangeQuery::try_new`] instead.
    pub fn new(a: f64, b: f64) -> Self {
        assert!(
            a.is_finite() && b.is_finite() && a <= b,
            "RangeQuery requires finite a <= b, got ({a}, {b})"
        );
        RangeQuery { a, b }
    }

    /// Fallible constructor: the panic-free entry point of the fault-
    /// tolerant serving path.
    pub fn try_new(a: f64, b: f64) -> Result<Self, crate::fault::EstimateError> {
        if a.is_finite() && b.is_finite() && a <= b {
            Ok(RangeQuery { a, b })
        } else {
            Err(crate::fault::EstimateError::InvalidQuery { a, b })
        }
    }

    /// Build `Q(a, b)` without checking the invariants — the entry point
    /// for untrusted bounds (deserialized query logs, fault injection)
    /// that must flow *into* the serving path so it can reject them with
    /// a typed error instead of a constructor panic. Every fallible
    /// serving API ([`RangeQuery::validate`]-gated) sanitizes these;
    /// infallible estimators remain entitled to assume `new`'s invariants.
    pub fn unchecked(a: f64, b: f64) -> Self {
        RangeQuery { a, b }
    }

    /// Check the `finite a <= b` invariant, returning the typed
    /// [`EstimateError::InvalidQuery`](crate::fault::EstimateError::InvalidQuery)
    /// for degenerate bounds (NaN/±Inf endpoints, inverted ranges).
    pub fn validate(&self) -> Result<(), crate::fault::EstimateError> {
        if self.a.is_finite() && self.b.is_finite() && self.a <= self.b {
            Ok(())
        } else {
            Err(crate::fault::EstimateError::InvalidQuery {
                a: self.a,
                b: self.b,
            })
        }
    }

    /// A query of width `size_fraction * domain.width()` centered at
    /// `center`, clamped so it lies entirely inside the domain (the paper's
    /// query files reject positions that stick out of the domain; clamping
    /// the center achieves the same support, see `selest-data::queries`).
    pub fn centered(domain: &Domain, center: f64, size_fraction: f64) -> Self {
        assert!(
            (0.0..=1.0).contains(&size_fraction),
            "size fraction out of [0,1]: {size_fraction}"
        );
        let w = size_fraction * domain.width();
        let half = 0.5 * w;
        let c = center.clamp(domain.lo() + half, domain.hi() - half);
        RangeQuery::new(c - half, c + half)
    }

    /// Left endpoint `a`.
    pub fn a(&self) -> f64 {
        self.a
    }

    /// Right endpoint `b`.
    pub fn b(&self) -> f64 {
        self.b
    }

    /// Query width `b - a`.
    pub fn width(&self) -> f64 {
        self.b - self.a
    }

    /// Midpoint of the query range.
    pub fn center(&self) -> f64 {
        0.5 * (self.a + self.b)
    }

    /// Whether `x` satisfies the predicate `a <= x <= b`.
    pub fn matches(&self, x: f64) -> bool {
        x >= self.a && x <= self.b
    }

    /// Width of the query as a fraction of the domain width.
    pub fn size_fraction(&self, domain: &Domain) -> f64 {
        self.width() / domain.width()
    }

    /// The exact bit patterns of the two bounds, `(a.to_bits(),
    /// b.to_bits())`.
    ///
    /// This is the *identity* of the query for caching purposes: two
    /// queries with equal bounds bits are the same query down to the last
    /// ulp, so an estimate computed for one is — by the determinism
    /// contract every estimator in the workspace obeys — bit-identical to
    /// the estimate the other would receive. A cache that tags entries
    /// with these bits (plus the snapshot generation and column identity)
    /// can therefore never serve an approximate answer, wherever its
    /// placement puts the query.
    pub fn bounds_bits(&self) -> (u64, u64) {
        (self.a.to_bits(), self.b.to_bits())
    }
}

impl core::fmt::Display for RangeQuery {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(f, "Q({}, {})", self.a, self.b)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn basic_accessors() {
        let q = RangeQuery::new(2.0, 6.0);
        assert_eq!(q.a(), 2.0);
        assert_eq!(q.b(), 6.0);
        assert_eq!(q.width(), 4.0);
        assert_eq!(q.center(), 4.0);
        assert!(q.matches(2.0) && q.matches(6.0) && q.matches(4.0));
        assert!(!q.matches(1.999) && !q.matches(6.001));
    }

    #[test]
    fn point_query_is_allowed() {
        let q = RangeQuery::new(3.0, 3.0);
        assert_eq!(q.width(), 0.0);
        assert!(q.matches(3.0));
    }

    #[test]
    fn centered_stays_inside_domain() {
        let d = Domain::new(0.0, 100.0);
        let q = RangeQuery::centered(&d, 1.0, 0.1); // would stick out left
        assert_eq!(q.a(), 0.0);
        assert_eq!(q.b(), 10.0);
        let q = RangeQuery::centered(&d, 99.0, 0.1); // would stick out right
        assert_eq!(q.b(), 100.0);
        let q = RangeQuery::centered(&d, 50.0, 0.02);
        assert!((q.a() - 49.0).abs() < 1e-12 && (q.b() - 51.0).abs() < 1e-12);
    }

    #[test]
    fn size_fraction_roundtrips() {
        let d = Domain::new(0.0, 1_000.0);
        let q = RangeQuery::centered(&d, 400.0, 0.05);
        assert!((q.size_fraction(&d) - 0.05).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "finite a <= b")]
    fn rejects_inverted_range() {
        let _ = RangeQuery::new(5.0, 4.0);
    }

    #[test]
    fn validate_accepts_checked_and_rejects_degenerate_queries() {
        assert!(RangeQuery::new(1.0, 2.0).validate().is_ok());
        assert!(RangeQuery::unchecked(3.0, 3.0).validate().is_ok());
        for (a, b) in [
            (f64::NAN, 1.0),
            (0.0, f64::NAN),
            (f64::INFINITY, 1.0),
            (0.0, f64::NEG_INFINITY),
            (5.0, 4.0),
        ] {
            let q = RangeQuery::unchecked(a, b);
            match q.validate() {
                Err(crate::fault::EstimateError::InvalidQuery { a: ea, b: eb }) => {
                    assert_eq!(ea.to_bits(), a.to_bits());
                    assert_eq!(eb.to_bits(), b.to_bits());
                }
                other => panic!("({a}, {b}) should be invalid, got {other:?}"),
            }
        }
    }
}
