//! selbench: one layer-attributed benchmark of the selest workspace, with
//! accuracy in every row. See `README.md` for the workloads, the metrics
//! and how to run, trace and compare.

pub mod build_publish;
pub mod common;
pub mod compare;
pub mod ingest;
pub mod json;
pub mod metrics;
pub mod passes;
pub mod queries;
pub mod run;
pub mod serve;
pub mod stats;
pub mod trace;

/// Schema tag of the run records.
pub const SCHEMA: &str = "selest-bench/2";
