//! Shared fixtures for the benchmark targets: small deterministic data
//! files, samples, and query sets so every bench measures computation, not
//! setup noise.

use selest_core::RangeQuery;
use selest_data::{sample_without_replacement, DataFile, PaperFile, QueryFile};

/// A reduced n(20)-style fixture: data, 1 000-record sample, 1 % queries.
pub struct Fixture {
    /// The generated data file.
    pub data: DataFile,
    /// Sample set for estimator construction.
    pub sample: Vec<f64>,
    /// 1 % query file.
    pub queries: Vec<RangeQuery>,
}

/// Build the standard benchmark fixture from any paper file (scaled 20x
/// down, 1 000 samples, 200 queries).
pub fn fixture(file: PaperFile) -> Fixture {
    let data = file.generate_scaled(20);
    let sample = sample_without_replacement(data.values(), 1_000.min(data.len()), 7);
    let queries = QueryFile::generate(&data, 0.01, 200, 3).queries().to_vec();
    Fixture {
        data,
        sample,
        queries,
    }
}

/// Sum of selectivities over the fixture's queries — the standard "answer
/// the whole query file" workload benched for each estimator.
///
/// Kahan-compensated, like the pinned query-file checksums of the
/// workspace tests, so the compensated sum keeps the reduction from
/// magnifying rounding differences into checksum noise.
pub fn total_selectivity<E: selest_core::SelectivityEstimator + ?Sized>(
    est: &E,
    queries: &[RangeQuery],
) -> f64 {
    selest_math::kahan_sum(queries.iter().map(|q| est.selectivity(q)))
}

#[cfg(test)]
mod tests {
    use super::*;
    use selest_core::SelectivityEstimator;

    /// Manual profiling aid for the histogram seq row: times the dyn
    /// dispatch loop, the concrete loop, and the lookup alone.
    #[test]
    #[ignore = "manual profiling aid"]
    fn profile_histogram_seq() {
        use selest_histogram::{equi_width, BinRule, NormalScaleBins};
        let f = fixture(PaperFile::Uniform { p: 15 });
        let domain = f.data.domain();
        let k = NormalScaleBins.bins(&f.sample, &domain);
        let hist = equi_width(&f.sample, domain, k);
        eprintln!("bins: {}", hist.n_bins());
        let dynest: Box<dyn SelectivityEstimator> = Box::new(hist.clone());
        let reps = 2000;
        let t0 = std::time::Instant::now();
        let mut acc = 0.0;
        for _ in 0..reps {
            acc += total_selectivity(dynest.as_ref(), &f.queries);
        }
        let dyn_us = t0.elapsed().as_secs_f64() * 1e6 / reps as f64;
        let t0 = std::time::Instant::now();
        for _ in 0..reps {
            acc += total_selectivity(&hist, &f.queries);
        }
        let conc_us = t0.elapsed().as_secs_f64() * 1e6 / reps as f64;
        let t0 = std::time::Instant::now();
        for _ in 0..reps {
            let mut s = 0.0;
            for q in &f.queries {
                s += hist.selectivity(q);
            }
            acc += s;
        }
        let plain_us = t0.elapsed().as_secs_f64() * 1e6 / reps as f64;
        eprintln!("dyn+kahan {dyn_us:.2}us  concrete+kahan {conc_us:.2}us  concrete+plainsum {plain_us:.2}us  (acc {acc})");
    }
}
