//! Workspace-level determinism contract for the kernel serving path.
//!
//! The worker-count override (`SELEST_JOBS` / [`selest_par::set_jobs`]) is
//! a *performance* knob: every worker count must produce byte-identical
//! estimates. This file sweeps jobs ∈ {1, 7} over four data shapes —
//! uniform, normal, Zipf, and the TIGER (Arapahoe) simulacrum — and pins
//! the per-query bits, the batch bits and the aggregated `ErrorStats`
//! against the 1-worker reference. The estimators are the paper's
//! Epanechnikov kernel under boundary kernels and reflection (summed from
//! its prefix-moment table) plus two that scan their strips: Biweight with
//! reflection and Gaussian untreated.
//!
//! A proptest at the end pins the branchless binary search (the building
//! block every grid lookup ends in) against `slice::partition_point`.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;
use selest::data::{sample_without_replacement, Zipf};
use selest::experiments::harness::evaluate;
use selest::par as selest_par;
use selest::{
    BatchScratch, BoundaryPolicy, DataFile, Domain, ExactSelectivity, KernelEstimator, KernelFn,
    PaperFile, QueryFile, RangeQuery, SelectivityEstimator,
};

/// One prepared workload: name, sample, domain, queries, exact answers.
struct Workload {
    name: &'static str,
    sample: Vec<f64>,
    domain: Domain,
    queries: Vec<RangeQuery>,
    exact: ExactSelectivity,
}

fn workload(name: &'static str, data: DataFile) -> Workload {
    let sample = sample_without_replacement(data.values(), 800.min(data.len()), 11);
    let queries = QueryFile::generate(&data, 0.01, 120, 5).queries().to_vec();
    let exact = ExactSelectivity::new(data.values(), data.domain());
    Workload {
        name,
        sample,
        domain: data.domain(),
        queries,
        exact,
    }
}

/// Zipf isn't one of the generated paper files (the paper substitutes
/// Exponential for it), so draw a skewed sample directly.
fn zipf_data() -> DataFile {
    let dist = Zipf::new(512, 1.1, 0.0, 4095.0);
    let mut rng = StdRng::seed_from_u64(23);
    let values: Vec<f64> = (0..4_000).map(|_| dist.sample(&mut rng).round()).collect();
    DataFile::from_values("zipf", 12, values)
}

fn workloads() -> Vec<Workload> {
    vec![
        workload("uniform", PaperFile::Uniform { p: 15 }.generate_scaled(20)),
        workload("normal", PaperFile::Normal { p: 15 }.generate_scaled(20)),
        workload("zipf", zipf_data()),
        workload("tiger", PaperFile::Arapahoe1.generate_scaled(20)),
    ]
}

fn estimators(w: &Workload) -> Vec<(String, KernelEstimator)> {
    let h = w.domain.width() / 48.0;
    [
        (KernelFn::Epanechnikov, BoundaryPolicy::BoundaryKernel),
        (KernelFn::Epanechnikov, BoundaryPolicy::Reflection),
        (KernelFn::Biweight, BoundaryPolicy::Reflection),
        (KernelFn::Gaussian, BoundaryPolicy::NoTreatment),
    ]
    .into_iter()
    .map(|(kernel, policy)| {
        (
            format!("{}/{}/{policy:?}", w.name, kernel.name()),
            KernelEstimator::new(&w.sample, w.domain, kernel, h, policy),
        )
    })
    .collect()
}

/// The whole sweep runs in one test: the jobs override is process-global,
/// so interleaving with other tests would race.
#[test]
fn jobs_sweep_is_byte_identical() {
    struct ResetOnDrop;
    impl Drop for ResetOnDrop {
        fn drop(&mut self) {
            selest_par::set_jobs(0);
        }
    }
    let _reset = ResetOnDrop;

    for w in workloads() {
        for (label, est) in estimators(&w) {
            // Reference: one worker.
            selest_par::set_jobs(1);
            let ref_seq: Vec<u64> = w
                .queries
                .iter()
                .map(|q| est.selectivity(q).to_bits())
                .collect();
            let ref_stats = evaluate(&est, &w.queries, &w.exact);
            assert!(
                ref_stats.count() > 0,
                "{label}: reference evaluation recorded nothing"
            );

            for jobs in [1usize, 7] {
                selest_par::set_jobs(jobs);
                let mut batch = vec![f64::NAN; w.queries.len()];
                est.selectivity_batch_into(&w.queries, &mut BatchScratch::new(), &mut batch);
                let got: Vec<u64> = batch.iter().map(|s| s.to_bits()).collect();
                assert_eq!(
                    got, ref_seq,
                    "{label}: batch bits differ from per-query at jobs={jobs}"
                );
                let stats = evaluate(&est, &w.queries, &w.exact);
                assert_eq!(
                    stats.mean_absolute_error().to_bits(),
                    ref_stats.mean_absolute_error().to_bits(),
                    "{label}: mean abs error drifts at jobs={jobs}"
                );
                assert_eq!(
                    stats.mean_relative_error().to_bits(),
                    ref_stats.mean_relative_error().to_bits(),
                    "{label}: mean rel error drifts at jobs={jobs}"
                );
                assert_eq!(
                    stats.rms_relative_error().to_bits(),
                    ref_stats.rms_relative_error().to_bits(),
                    "{label}: rms rel error drifts at jobs={jobs}"
                );
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The branchless searches agree with `partition_point` on every
    /// sorted input — duplicates, empty slices, probes off both ends.
    #[test]
    fn branchless_search_matches_partition_point(
        mut values in proptest::collection::vec(-1_000.0f64..1_000.0, 0..80),
        probes in proptest::collection::vec(-1_100.0f64..1_100.0, 1..12),
        dup_every in 1usize..6,
    ) {
        // Inject runs of duplicates, then sort.
        for i in 0..values.len() {
            if i % dup_every == 0 && i + 1 < values.len() {
                let v = values[i];
                values[i + 1] = v;
            }
        }
        values.sort_by(f64::total_cmp);
        let mut probes = probes;
        // Exercise exact hits too, not just random probes.
        probes.extend(values.iter().take(4).copied());
        for &x in &probes {
            prop_assert_eq!(
                selest_simd::partition_lt(&values, x),
                values.partition_point(|&v| v < x),
                "partition_lt({x})"
            );
            prop_assert_eq!(
                selest_simd::partition_le(&values, x),
                values.partition_point(|&v| v <= x),
                "partition_le({x})"
            );
        }
        // The grid-accelerated forms must match on the same slice.
        if !values.is_empty() {
            let grid = selest_simd::GridIndex::build(&values, values.len());
            for &x in &probes {
                prop_assert_eq!(
                    grid.partition_lt(&values, x),
                    values.partition_point(|&v| v < x),
                    "grid partition_lt({x})"
                );
                prop_assert_eq!(
                    grid.partition_le(&values, x),
                    values.partition_point(|&v| v <= x),
                    "grid partition_le({x})"
                );
            }
        }
    }
}
