//! A mini column-store substrate demonstrating the paper's motivating use
//! case: selectivity estimators feeding a query optimizer.
//!
//! * [`Relation`] / [`Column`] — in-memory columnar relations over metric
//!   attributes;
//! * [`SortedIndex`] — the index-scan access path;
//! * [`StatisticsCatalog`] — `ANALYZE` draws a reservoir sample per column
//!   and builds any of the workspace's estimators over it
//!   ([`EstimatorKind`]);
//! * [`planner`] — a System-R-style cost model choosing seq scan vs. index
//!   scan from the *estimated* cardinality, with regret accounting that
//!   turns estimation error into plan-quality numbers;
//! * [`OnlineSelectivity`] — progressive estimation with confidence
//!   intervals (the paper's online-aggregation future work).

pub mod catalog;
pub mod conjunctive;
pub mod durable;
pub mod faultinject;
pub mod index;
pub mod online;
pub mod overload;
pub mod persist;
pub mod planner;
pub mod query;
pub mod relation;
pub mod serving;
pub mod staleness;

pub use catalog::{
    build_estimator_from_prepared, try_build_estimator_from_prepared, AnalyzeConfig, BuildFailure,
    CatalogHealthReport, ColumnDelta, ColumnStatistics, EstimatorKind, IncrementalState,
    QuarantinedColumn, RefreshReport, SketchCheckpoint, StatisticsCatalog, UpdateReport,
    SKETCH_EPSILON,
};
pub use conjunctive::{CorrelationModel, PairStatistics};
pub use durable::{
    fsck, DurableStore, FeedbackState, FsckReport, JournalRecord, OnlineCheckpoint, RecoveryReport,
    RecoveryRung, RetentionPolicy,
};
pub use faultinject::{
    CrashPlan, CrashPoint, FailingEstimator, FailureMode, FaultInjector, InjectionReport,
};
pub use index::SortedIndex;
pub use online::{OnlineSelectivity, Snapshot};
pub use overload::{splitmix64, BreakerState, LoadTier, OverloadOptions};
pub use persist::{decode as decode_statistics, encode as encode_statistics, PersistedStatistics};
pub use planner::{
    execute_range_query, plan_range_query, try_plan_range_query, AccessPath, Execution, Plan,
};
pub use query::{ChosenPath, Database, Explanation, QueryResult, RangePredicate, SelectQuery};
pub use relation::{Column, Relation};
pub use serving::{
    BreakerHealth, CacheStats, CatalogSnapshot, EstimateCache, ServeRung, ServedEstimate,
    ServingColumn, ServingEngine, ServingHealthReport, ServingOptions, ServingScratch, ShardHealth,
    StaleRepublishReport,
};
pub use staleness::{StalenessPolicy, StalenessReason, StalenessSignal};
