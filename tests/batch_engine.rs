//! Cross-crate contract tests for the batch-estimation engine.
//!
//! Four guarantees are pinned here, at the workspace level, over every
//! estimator the facade exports:
//!
//! 1. `selectivity_batch` returns bit-identical values to the per-query
//!    `selectivity` loop.
//! 2. `harness::evaluate` produces bit-identical `ErrorStats` regardless
//!    of the worker count, so `repro --jobs N` output never depends on
//!    the machine it ran on.
//! 3. On the criterion fixtures (n(20) and u(20) at scale 20, 1 000-value
//!    sample, 200 queries at 1 %), every estimator — and every
//!    strip-scanned kernel, untreated and reflected — answers the query
//!    file with pinned Kahan-checksum bits through the per-query loop,
//!    `selectivity_batch` and `selectivity_batch_into`.
//! 4. A deadline armed in the `BatchScratch` cancels the fallible batch
//!    the same way for every estimator: finished slots keep their bits,
//!    the rest report `DeadlineExceeded`, invalid queries `InvalidQuery`.

use std::cell::Cell;

use selest::core::BatchScratch;
use selest::data::sample_without_replacement;
use selest::experiments::harness::{evaluate, evaluate_jobs};
use selest::histogram::{BinRule, NormalScaleBins};
use selest::kernel::{AdaptiveBoundary, BandwidthSelector, DirectPlugIn, NormalScale};
use selest::math::kahan_sum;
use selest::par::Deadline;
use selest::{
    equi_depth, equi_width, max_diff, v_optimal, AdaptiveKernelEstimator, AverageShiftedHistogram,
    BoundaryPolicy, Domain, EstimateError, ExactSelectivity, HybridEstimator, KernelEstimator,
    KernelFn, PaperFile, QueryFile, RangeQuery, SamplingEstimator, SelectivityEstimator,
    UniformEstimator, WaveletHistogram,
};

const LO: f64 = 0.0;
const HI: f64 = 1_000.0;

/// Deterministic multimodal sample with duplicates and boundary mass, so
/// the batch paths see ties, empty strips, and edge-hugging data.
fn sample() -> Vec<f64> {
    let mut s = Vec::with_capacity(400);
    let mut x = 7u64;
    for i in 0..400u64 {
        x = x
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        let u = (x >> 11) as f64 / (1u64 << 53) as f64;
        s.push(match i % 5 {
            0 => 120.0 + 40.0 * u,
            1 => 640.0 + 90.0 * u,
            2 => 250.0,           // point mass
            3 => HI * u,          // uniform backdrop
            _ => 995.0 + 5.0 * u, // right-boundary pile-up
        });
    }
    s
}

/// Query mix: interior, straddling, degenerate, out-of-support, and
/// full-domain ranges.
fn queries() -> Vec<RangeQuery> {
    let mut qs = Vec::new();
    for i in 0..60 {
        let a = (i as f64) * 17.0 % HI;
        let w = [0.0, 3.0, 45.0, 220.0, HI][i % 5];
        qs.push(RangeQuery::new(a.min(HI), (a + w).min(HI)));
    }
    qs.push(RangeQuery::new(LO, HI));
    qs.push(RangeQuery::new(LO, LO));
    qs.push(RangeQuery::new(HI, HI));
    qs
}

fn all_estimators(samples: &[f64]) -> Vec<(&'static str, Box<dyn SelectivityEstimator + Sync>)> {
    let domain = Domain::new(LO, HI);
    let h = NormalScale
        .bandwidth(samples, KernelFn::Epanechnikov)
        .min(0.05 * (HI - LO));
    vec![
        ("uniform", Box::new(UniformEstimator::new(domain)) as _),
        (
            "sampling",
            Box::new(SamplingEstimator::new(samples, domain)) as _,
        ),
        ("ewh", Box::new(equi_width(samples, domain, 16)) as _),
        ("edh", Box::new(equi_depth(samples, domain, 16)) as _),
        ("mdh", Box::new(max_diff(samples, domain, 16)) as _),
        ("voh", Box::new(v_optimal(samples, domain, 8, 64)) as _),
        (
            "ash",
            Box::new(AverageShiftedHistogram::new(samples, domain, 16, 8)) as _,
        ),
        (
            "wavelet",
            Box::new(WaveletHistogram::build(samples, domain, 6, 20)) as _,
        ),
        (
            "kernel-nt",
            Box::new(KernelEstimator::new(
                samples,
                domain,
                KernelFn::Epanechnikov,
                h,
                BoundaryPolicy::NoTreatment,
            )) as _,
        ),
        (
            "kernel-refl",
            Box::new(KernelEstimator::new(
                samples,
                domain,
                KernelFn::Epanechnikov,
                h,
                BoundaryPolicy::Reflection,
            )) as _,
        ),
        (
            "kernel-bk",
            Box::new(KernelEstimator::new(
                samples,
                domain,
                KernelFn::Epanechnikov,
                h,
                BoundaryPolicy::BoundaryKernel,
            )) as _,
        ),
        (
            "kernel-gauss-refl",
            Box::new(KernelEstimator::new(
                samples,
                domain,
                KernelFn::Gaussian,
                h,
                BoundaryPolicy::Reflection,
            )) as _,
        ),
        (
            "adaptive",
            Box::new(AdaptiveKernelEstimator::new(
                samples,
                domain,
                KernelFn::Epanechnikov,
                h,
                0.5,
                AdaptiveBoundary::Reflection,
            )) as _,
        ),
        (
            "hybrid",
            Box::new(HybridEstimator::new(samples, domain)) as _,
        ),
    ]
}

#[test]
fn batch_is_bit_identical_to_per_query_for_every_estimator() {
    let samples = sample();
    let qs = queries();
    for (name, est) in all_estimators(&samples) {
        let batch = est.selectivity_batch(&qs);
        assert_eq!(batch.len(), qs.len(), "{name}: batch length mismatch");
        for (i, (q, got)) in qs.iter().zip(&batch).enumerate() {
            let want = est.selectivity(q);
            assert_eq!(
                want.to_bits(),
                got.to_bits(),
                "{name}: query #{i} {q:?}: batch {got} != per-query {want}"
            );
        }
    }
}

#[test]
fn parallel_evaluate_is_bit_identical_for_every_estimator_and_worker_count() {
    let samples = sample();
    let qs = queries();
    let domain = Domain::new(LO, HI);
    let exact = ExactSelectivity::new(&samples, domain);
    for (name, est) in all_estimators(&samples) {
        let baseline = evaluate_jobs(est.as_ref(), &qs, &exact, 1);
        for jobs in [2, 3, 8] {
            let par = evaluate_jobs(est.as_ref(), &qs, &exact, jobs);
            assert_eq!(
                baseline.mean_relative_error().to_bits(),
                par.mean_relative_error().to_bits(),
                "{name}: MRE drifted at jobs={jobs}"
            );
            assert_eq!(
                baseline.mean_absolute_error().to_bits(),
                par.mean_absolute_error().to_bits(),
                "{name}: MAE drifted at jobs={jobs}"
            );
            assert_eq!(
                baseline.rms_relative_error().to_bits(),
                par.rms_relative_error().to_bits(),
                "{name}: RMS drifted at jobs={jobs}"
            );
            assert_eq!(
                baseline.relative_error_quantile(0.9).to_bits(),
                par.relative_error_quantile(0.9).to_bits(),
                "{name}: p90 drifted at jobs={jobs}"
            );
        }
        // The ambient-jobs entry point must agree with the explicit one.
        let ambient = evaluate(est.as_ref(), &qs, &exact);
        assert_eq!(
            baseline.mean_relative_error().to_bits(),
            ambient.mean_relative_error().to_bits(),
            "{name}: evaluate() drifted from evaluate_jobs(.., 1)"
        );
    }
}

/// Query-file checksum bits per `(fixture, estimator)`: the Kahan sum of
/// the 200 per-query selectivities, as `f64::to_bits`. The `-naive` rows
/// take their bandwidth from the O(n^2) plug-in functionals, the others
/// from the fast path; both pairs are pinned, so neither can drift.
const PINNED_QUERY_FILE_BITS: [(&str, &str, u64); 20] = [
    ("n(20)", "sampling", 4616564542723736994),
    ("n(20)", "ewh-ns", 4616543680362983501),
    ("n(20)", "edh-ns", 4616491794011333782),
    ("n(20)", "mdh-ns", 4616259875111383445),
    ("n(20)", "ash-ns", 4616534717332087127),
    ("n(20)", "kernel-bk-dpi2", 4616479675081843307),
    ("n(20)", "kernel-refl-dpi2", 4616479675081843307),
    ("n(20)", "kernel-bk-dpi2-naive", 4616479691194467509),
    ("n(20)", "kernel-refl-dpi2-naive", 4616479691194467509),
    ("n(20)", "hybrid", 4616513157739073896),
    ("u(20)", "sampling", 4611782845819376370),
    ("u(20)", "ewh-ns", 4611707609441849218),
    ("u(20)", "edh-ns", 4611710645733506387),
    ("u(20)", "mdh-ns", 4611627648304693746),
    ("u(20)", "ash-ns", 4611695334616986627),
    ("u(20)", "kernel-bk-dpi2", 4611718079069384712),
    ("u(20)", "kernel-refl-dpi2", 4611692408884373775),
    ("u(20)", "kernel-bk-dpi2-naive", 4611718082916577445),
    ("u(20)", "kernel-refl-dpi2-naive", 4611692412924320486),
    ("u(20)", "hybrid", 4611740162694723183),
];

/// Query-file checksum bits of the strip-scanned kernels per `(fixture,
/// kernel, policy)`, each at its own normal-scale bandwidth. Every kernel
/// but Epanechnikov sums its boundary strips element by element, so these
/// rows pin that reduction's bits the way the rows above pin the
/// moment-table path.
const PINNED_STRIP_KERNEL_BITS: [(&str, KernelFn, BoundaryPolicy, u64); 24] = {
    use BoundaryPolicy::{NoTreatment as Nt, Reflection as Refl};
    use KernelFn::{Biweight, Cosine, Gaussian, Triangular, Triweight, Uniform};
    [
        ("n(20)", Uniform, Nt, 4616473447994931041),
        ("n(20)", Uniform, Refl, 4616473447994931041),
        ("n(20)", Triangular, Nt, 4616481911737532456),
        ("n(20)", Triangular, Refl, 4616481911737532456),
        ("n(20)", Biweight, Nt, 4616480291309426547),
        ("n(20)", Biweight, Refl, 4616480291309426547),
        ("n(20)", Triweight, Nt, 4616480321841729589),
        ("n(20)", Triweight, Refl, 4616480321841729589),
        ("n(20)", Cosine, Nt, 4616479924516281165),
        ("n(20)", Cosine, Refl, 4616479924516281165),
        ("n(20)", Gaussian, Nt, 4616480112936922865),
        ("n(20)", Gaussian, Refl, 4616480112936922865),
        ("u(20)", Uniform, Nt, 4611001113474427823),
        ("u(20)", Uniform, Refl, 4611676221328436847),
        ("u(20)", Triangular, Nt, 4611076278443330417),
        ("u(20)", Triangular, Refl, 4611689195440401345),
        ("u(20)", Biweight, Nt, 4611064354060497514),
        ("u(20)", Biweight, Refl, 4611688506695857483),
        ("u(20)", Triweight, Nt, 4611070952435285018),
        ("u(20)", Triweight, Refl, 4611688937666117403),
        ("u(20)", Cosine, Nt, 4611055380258768762),
        ("u(20)", Cosine, Refl, 4611687944474632422),
        ("u(20)", Gaussian, Nt, 4611089761709450418),
        ("u(20)", Gaussian, Refl, 4611690274915910998),
    ]
};

/// The estimator a pinned row names, built the way the paper configures it.
fn fixture_estimator(name: &str, sample: &[f64], domain: Domain) -> Box<dyn SelectivityEstimator> {
    let k = NormalScaleBins.bins(sample, &domain);
    let kernel = |selector: DirectPlugIn, policy: BoundaryPolicy| {
        let mut h = selector.bandwidth(sample, KernelFn::Epanechnikov);
        if policy == BoundaryPolicy::BoundaryKernel {
            h = h.min(0.5 * domain.width());
        }
        Box::new(KernelEstimator::new(
            sample,
            domain,
            KernelFn::Epanechnikov,
            h,
            policy,
        )) as Box<dyn SelectivityEstimator>
    };
    match name {
        "sampling" => Box::new(SamplingEstimator::new(sample, domain)),
        "ewh-ns" => Box::new(equi_width(sample, domain, k)),
        "edh-ns" => Box::new(equi_depth(sample, domain, k)),
        "mdh-ns" => Box::new(max_diff(sample, domain, k)),
        "ash-ns" => Box::new(AverageShiftedHistogram::new(sample, domain, k, 10)),
        "kernel-bk-dpi2" => kernel(DirectPlugIn::two_stage(), BoundaryPolicy::BoundaryKernel),
        "kernel-refl-dpi2" => kernel(DirectPlugIn::two_stage(), BoundaryPolicy::Reflection),
        "kernel-bk-dpi2-naive" => kernel(
            DirectPlugIn::two_stage_naive(),
            BoundaryPolicy::BoundaryKernel,
        ),
        "kernel-refl-dpi2-naive" => {
            kernel(DirectPlugIn::two_stage_naive(), BoundaryPolicy::Reflection)
        }
        "hybrid" => Box::new(HybridEstimator::new(sample, domain)),
        other => panic!("no estimator row {other}"),
    }
}

#[test]
fn fixture_query_file_checksums_are_pinned_for_every_estimator_and_path() {
    let mut scratch = BatchScratch::new();
    let mut out = Vec::new();
    for file in [PaperFile::Normal { p: 20 }, PaperFile::Uniform { p: 20 }] {
        let data = file.generate_scaled(20);
        let domain = data.domain();
        let sample = sample_without_replacement(data.values(), 1_000, 7);
        let queries = QueryFile::generate(&data, 0.01, 200, 3).queries().to_vec();
        let rows = PINNED_QUERY_FILE_BITS
            .iter()
            .filter(|(fixture, _, _)| *fixture == data.name())
            .map(|&(_, name, pinned)| {
                (
                    name.to_string(),
                    fixture_estimator(name, &sample, domain),
                    pinned,
                )
            });
        let strip_rows = PINNED_STRIP_KERNEL_BITS
            .iter()
            .filter(|(fixture, ..)| *fixture == data.name())
            .map(|&(_, kernel, policy, pinned)| {
                let h = NormalScale.bandwidth(&sample, kernel);
                let est = KernelEstimator::new(&sample, domain, kernel, h, policy);
                let name = format!("kernel-{}-{}-ns", kernel.name(), policy.label());
                (name, Box::new(est) as Box<dyn SelectivityEstimator>, pinned)
            });
        for (name, est, pinned) in rows.chain(strip_rows) {
            let fixture = data.name();
            let seq = kahan_sum(queries.iter().map(|q| est.selectivity(q)));
            assert_eq!(
                seq.to_bits(),
                pinned,
                "{fixture} {name}: per-query checksum {seq}"
            );
            let batch = kahan_sum(est.selectivity_batch(&queries));
            assert_eq!(
                batch.to_bits(),
                pinned,
                "{fixture} {name}: batch checksum {batch}"
            );
            out.clear();
            out.resize(queries.len(), 0.0);
            est.selectivity_batch_into(&queries, &mut scratch, &mut out);
            let into = kahan_sum(out.iter().copied());
            assert_eq!(
                into.to_bits(),
                pinned,
                "{fixture} {name}: batch_into checksum {into}"
            );
        }
    }
}

/// The estimators the deadline contract is checked over: a kernel, a
/// max-diff histogram and the hybrid.
fn deadline_estimators(samples: &[f64]) -> Vec<(&'static str, Box<dyn SelectivityEstimator>)> {
    let domain = Domain::new(LO, HI);
    vec![
        (
            "kernel-refl",
            Box::new(KernelEstimator::new(
                samples,
                domain,
                KernelFn::Epanechnikov,
                25.0,
                BoundaryPolicy::Reflection,
            )) as _,
        ),
        ("mdh", Box::new(max_diff(samples, domain, 16)) as _),
        (
            "hybrid",
            Box::new(HybridEstimator::new(samples, domain)) as _,
        ),
    ]
}

/// The query mix with one degenerate query, which must keep its own
/// error class under any deadline.
fn queries_with_invalid() -> Vec<RangeQuery> {
    let mut qs = queries();
    qs.insert(3, RangeQuery::unchecked(9.0, 4.0));
    qs
}

/// A spent deadline in the scratch turns every valid slot into a typed
/// `DeadlineExceeded` (validation errors keep their own class), and the
/// infallible path ignores the deadline entirely.
#[test]
fn expired_deadline_yields_typed_refusals_not_garbage() {
    let samples = sample();
    let qs = queries_with_invalid();
    let good = queries();
    for (name, est) in deadline_estimators(&samples) {
        let mut scratch = BatchScratch::new();
        scratch.set_deadline(Deadline::already_expired());
        let mut tried = Vec::new();
        est.try_selectivity_batch_into(&qs, &mut scratch, &mut tried);
        assert_eq!(tried.len(), qs.len());
        for (i, slot) in tried.iter().enumerate() {
            match slot {
                Err(EstimateError::DeadlineExceeded { .. }) if i != 3 => {}
                Err(EstimateError::InvalidQuery { .. }) if i == 3 => {}
                other => panic!("{name} slot {i}: expected a typed refusal, got {other:?}"),
            }
        }
        // The infallible contract has no partial-result channel: a stale
        // armed deadline must not bend its answers.
        let mut good_out = vec![0.0; good.len()];
        est.selectivity_batch_into(&good, &mut scratch, &mut good_out);
        for (i, (got, q)) in good_out.iter().zip(&good).enumerate() {
            assert_eq!(
                got.to_bits(),
                est.selectivity(q).to_bits(),
                "{name} query {i}"
            );
        }
    }
}

/// An armed but unexpired deadline is free: the try path's `Ok` slots
/// stay bit-identical to the per-query path.
#[test]
fn unexpired_deadline_is_bit_transparent() {
    let samples = sample();
    let qs = queries();
    for (name, est) in deadline_estimators(&samples) {
        let mut scratch = BatchScratch::new();
        scratch.set_deadline(Deadline::never());
        let mut tried = Vec::new();
        est.try_selectivity_batch_into(&qs, &mut scratch, &mut tried);
        assert_eq!(tried.len(), qs.len());
        for (i, (slot, q)) in tried.iter().zip(&qs).enumerate() {
            assert_eq!(
                slot.as_ref().expect("unexpired deadline").to_bits(),
                est.selectivity(q).to_bits(),
                "{name} query {i}"
            );
        }
    }
}

/// Trips a manual deadline during its `trip_at`-th evaluation.
struct TripAfter<'a> {
    inner: &'a dyn SelectivityEstimator,
    deadline: Deadline,
    calls: Cell<usize>,
    trip_at: usize,
}

impl SelectivityEstimator for TripAfter<'_> {
    fn selectivity(&self, q: &RangeQuery) -> f64 {
        self.calls.set(self.calls.get() + 1);
        if self.calls.get() == self.trip_at {
            self.deadline.expire();
        }
        self.inner.selectivity(q)
    }
    fn domain(&self) -> Domain {
        self.inner.domain()
    }
    fn name(&self) -> String {
        self.inner.name()
    }
}

/// A deadline that expires mid-batch is noticed at the next poll (every
/// 16 valid slots): the slots evaluated before it keep their exact bits,
/// every later valid slot is `DeadlineExceeded`, and the invalid query
/// stays `InvalidQuery` on either side of the cut.
#[test]
fn deadline_expiring_mid_batch_keeps_finished_slots_bit_identical() {
    const STRIDE: usize = 16;
    let samples = sample();
    for invalid_at in [3, 40] {
        let mut qs = queries();
        qs.insert(invalid_at, RangeQuery::unchecked(9.0, 4.0));
        let n_valid = qs.len() - 1;
        for (name, est) in deadline_estimators(&samples) {
            for trip_at in [1, 5, 16, 17, 33, n_valid] {
                let deadline = Deadline::never();
                let tripping = TripAfter {
                    inner: est.as_ref(),
                    deadline: deadline.clone(),
                    calls: Cell::new(0),
                    trip_at,
                };
                let mut scratch = BatchScratch::new();
                scratch.set_deadline(deadline);
                let mut tried = Vec::new();
                tripping.try_selectivity_batch_into(&qs, &mut scratch, &mut tried);
                assert_eq!(tried.len(), qs.len());
                let finished = trip_at.div_ceil(STRIDE) * STRIDE;
                assert_eq!(tripping.calls.get(), finished.min(n_valid));
                let mut valid = 0;
                for (i, (slot, q)) in tried.iter().zip(&qs).enumerate() {
                    let label = format!("{name} trip_at={trip_at} slot {i}");
                    if i == invalid_at {
                        assert!(
                            matches!(slot, Err(EstimateError::InvalidQuery { .. })),
                            "{label}: {slot:?}"
                        );
                        continue;
                    }
                    if valid < finished {
                        let got = slot.as_ref().expect("finished before the poll");
                        assert_eq!(got.to_bits(), est.selectivity(q).to_bits(), "{label}");
                    } else {
                        assert!(
                            matches!(slot, Err(EstimateError::DeadlineExceeded { .. })),
                            "{label}: {slot:?}"
                        );
                    }
                    valid += 1;
                }
            }
        }
    }
}
