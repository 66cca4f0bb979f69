//! Core abstractions for selectivity estimation of range queries on metric
//! attributes, following Blohsfeld, Korus & Seeger (SIGMOD 1999).
//!
//! # Notation (Table 1 of the paper)
//!
//! | Symbol | Meaning | Here |
//! |--------|---------|------|
//! | `N` | number of tuples in the database | [`errors::relative_error`]'s true count, dataset sizes |
//! | `n` | sample size | length of estimator sample sets |
//! | `Q(a,b)` | range query from `a` to `b` | [`RangeQuery`] |
//! | `sigma(a,b)` | distribution selectivity of `Q(a,b)` | [`SelectivityEstimator::selectivity`] |
//! | `F`, `f` | distribution function / PDF | [`DensityEstimator`] and the `selest-data` distributions |
//! | `MISE` | mean integrated squared error | [`errors::integrated_squared_error`] |
//! | `K`, `h` | kernel function / bandwidth | `selest-kernel` |
//!
//! The *distribution selectivity* `sigma(a,b)` is the probability that a
//! record falls in `[a, b]`; the *instance selectivity* is the realized
//! fraction in a concrete relation instance and is estimated as
//! `N * sigma(a,b)`. All estimators in the workspace implement
//! [`SelectivityEstimator`] and return distribution selectivities.
//!
//! The trait is the function `sigma(a,b)` itself
//! ([`SelectivityEstimator::selectivity`]) plus one batch helper,
//! [`SelectivityEstimator::selectivity_batch_into`], a loop over it.
//! Fault isolation and deadlines are not estimator concerns: the serving
//! engine (`selest-store`) owns the one fault-isolated, deadline-polled
//! batch path, and [`catch_fault`] is the containment boundary it and the
//! catalog use.

pub mod confidence;
pub mod domain;
pub mod ecdf;
pub mod errors;
pub mod exact;
pub mod fault;
pub mod feedback;
pub mod incremental;
pub mod prepared;
pub mod query;
pub mod sampling;
pub mod scratch;
pub mod traits;
pub mod uniform;

pub use confidence::{wilson_interval, ConfidenceInterval};
pub use domain::Domain;
pub use ecdf::Ecdf;
pub use errors::{absolute_error, integrated_squared_error, relative_error, ErrorStats};
pub use exact::ExactSelectivity;
pub use fault::{catch_fault, sanitize_sample, EstimateError, FaultStage, SampleAudit};
pub use feedback::FeedbackEstimator;
pub use incremental::{IncrementalColumn, ReservoirSketch, UpdateAudit};
pub use prepared::{ColumnSummary, PreparedColumn};
pub use query::RangeQuery;
pub use sampling::SamplingEstimator;
pub use scratch::BatchScratch;
pub use traits::{DensityEstimator, SelectivityEstimator};
pub use uniform::UniformEstimator;
