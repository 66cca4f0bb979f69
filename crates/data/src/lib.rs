//! Data generation for the selest workspace: the synthetic and
//! simulated-real data files of Table 2 of the paper, sampling without
//! replacement, and the size-separated query workloads of Section 5.1.2.
//!
//! Everything is seeded and deterministic: the same seed always yields the
//! same data file, sample set, and query file, so every experiment in
//! `selest-experiments` is reproducible bit-for-bit.

pub mod census;
pub mod dataset;
pub mod dist;
pub mod io;
pub mod paper;
pub mod queries;
pub mod sampling;
pub mod sketch;
pub mod tiger;

pub use census::InstanceWeightConfig;
pub use dataset::DataFile;
pub use dist::{ContinuousDistribution, Exponential, LogNormal, Mixture, Normal, Uniform, Zipf};
pub use io::{read_values, write_values};
pub use paper::{paper_data_files, PaperFile};
pub use queries::{positional_sweep, QueryFile};
pub use sampling::{reservoir_sample, sample_without_replacement};
pub use selest_core::incremental::ReservoirSketch;
pub use sketch::GkSketch;
pub use tiger::{ArapahoeConfig, RailRiverConfig};
