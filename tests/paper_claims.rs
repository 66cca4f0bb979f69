//! End-to-end checks of the paper's headline experimental claims, at quick
//! scale, through the same harness that regenerates the figures. Each test
//! names the claim and the figure it comes from.

use selest::experiments::figures;
use selest::experiments::Scale;
use selest::PaperFile;

#[test]
fn fig03_untreated_kernels_blow_up_at_the_boundary() {
    let r = figures::fig03::run(&Scale::quick());
    let (boundary, center) = figures::fig03::boundary_vs_center(&r);
    assert!(
        boundary > 3.0 * center,
        "boundary |err| {boundary} vs center {center}"
    );
}

#[test]
fn fig04_bin_count_has_a_sweet_spot_below_the_sampling_line() {
    let r = figures::fig04::run(&Scale::quick());
    let ewh = r.series_by_label("EWH n(20)").expect("EWH series");
    let sampling = r
        .series_by_label("sampling")
        .expect("sampling series")
        .points[0]
        .1;
    assert!(ewh.y_min() < sampling);
    let best_k = ewh.argmin();
    assert!(
        (5.0..300.0).contains(&best_k),
        "optimal bin count {best_k} out of plausible range"
    );
}

#[test]
fn fig10_both_boundary_treatments_work_and_bk_at_least_matches_reflection() {
    let r = figures::fig10::run(&Scale::quick());
    let untreated = figures::fig10::boundary_error(&r, "no treatment");
    let reflection = figures::fig10::boundary_error(&r, "reflection");
    let bk = figures::fig10::boundary_error(&r, "boundary kernels");
    assert!(untreated > 3.0 * reflection);
    assert!(untreated > 3.0 * bk);
    // "In almost all cases the kernel selectivity estimator with boundary
    // kernel functions performs slightly better than the reflection
    // technique" — require parity within noise here.
    assert!(
        bk < reflection * 1.5,
        "boundary kernels ({bk}) should be competitive with reflection ({reflection})"
    );
}

#[test]
fn fig12_shape_kernel_wins_smooth_hybrid_wins_tiger() {
    let r = figures::fig12::run_with_files(
        &Scale::quick(),
        &[
            PaperFile::Uniform { p: 20 },
            PaperFile::Normal { p: 20 },
            PaperFile::Arapahoe1,
            PaperFile::RailRiver2 { p: 22 },
        ],
    );
    // Smooth synthetic: kernel at or near the top.
    for file in ["u(20)", "n(20)"] {
        let kernel = r.bar(file, "Kernel").unwrap();
        let ewh = r.bar(file, "EWH").unwrap();
        assert!(
            kernel <= ewh * 1.1,
            "{file}: kernel {kernel} should not lose to EWH {ewh}"
        );
    }
    // TIGER-like files: hybrid strictly best among the four methods.
    for file in ["arap1", "rr2(22)"] {
        let hybrid = r.bar(file, "Hybrid").unwrap();
        for m in ["EWH", "Kernel", "ASH"] {
            let other = r.bar(file, m).unwrap();
            assert!(
                hybrid < other,
                "{file}: hybrid ({hybrid}) should beat {m} ({other})"
            );
        }
    }
}

#[test]
fn exponential_is_a_fair_zipf_substitute() {
    // The paper replaces Zipf by Exponential, arguing both are highly
    // skewed with mass at the left boundary. Check the substitution: the
    // method ranking (uniform worst by far, histogram substantially better
    // than sampling is not required — but histogram and kernel both far
    // better than uniform) agrees between e(20) and a Zipf file of the
    // same shape.
    use rand::SeedableRng;
    use selest::data::{sample_without_replacement, DataFile, Zipf};
    use selest::kernel::{BandwidthSelector, NormalScale};
    use selest::{
        equi_width, BoundaryPolicy, ExactSelectivity, KernelEstimator, KernelFn, QueryFile,
        SelectivityEstimator, UniformEstimator,
    };

    let e20 = PaperFile::Exponential { p: 20 }.generate_scaled(10);
    let zipf_dist = Zipf::new(4_096, 1.0, 0.0, e20.domain().hi());
    let mut rng = rand::rngs::StdRng::seed_from_u64(99);
    let zipf_values: Vec<f64> = std::iter::repeat_with(|| zipf_dist.sample(&mut rng).round())
        .take(e20.len())
        .collect();
    let zipf = DataFile::from_values("zipf(20)", 20, zipf_values);

    let rank = |data: &DataFile| {
        let domain = data.domain();
        let exact = ExactSelectivity::new(data.values(), domain);
        let sample = sample_without_replacement(data.values(), 1_000, 5);
        let queries = QueryFile::generate(data, 0.02, 150, 3);
        let mre = |est: &dyn SelectivityEstimator| {
            let mut stats = selest::ErrorStats::new();
            for q in queries.queries() {
                stats.record(exact.count(q) as f64, est.estimate_count(q, data.len()));
            }
            stats.mean_relative_error()
        };
        let uniform = mre(&UniformEstimator::new(domain));
        let ewh = mre(&equi_width(&sample, domain, 32));
        let h = NormalScale
            .bandwidth(&sample, KernelFn::Epanechnikov)
            .min(0.4 * domain.width());
        let kernel = mre(&KernelEstimator::new(
            &sample,
            domain,
            KernelFn::Epanechnikov,
            h,
            BoundaryPolicy::Reflection,
        ));
        (uniform, ewh, kernel)
    };

    // The substitution claim: the *ranking* of methods transfers. On both
    // files the uniform estimator is the clear loser (Zipf's extreme rank-1
    // spike makes every nonparametric method work hard, so the margin is
    // smaller there than on the Exponential file).
    let (u_e, ewh_e, k_e) = rank(&e20);
    assert!(u_e > 3.0 * ewh_e, "e(20): uniform ({u_e}) vs EWH ({ewh_e})");
    assert!(u_e > 3.0 * k_e, "e(20): uniform ({u_e}) vs kernel ({k_e})");
    let (u_z, ewh_z, k_z) = rank(&zipf);
    assert!(
        u_z > 1.5 * ewh_z,
        "zipf(20): uniform ({u_z}) vs EWH ({ewh_z})"
    );
    assert!(
        u_z > 1.5 * k_z,
        "zipf(20): uniform ({u_z}) vs kernel ({k_z})"
    );
}

#[test]
fn store_analyze_plan_execute_end_to_end() {
    // The whole pipeline across crates: paper data file -> column store ->
    // ANALYZE (kernel statistics) -> plan -> execute, with bounded regret.
    use selest::store::{
        execute_range_query, AnalyzeConfig, Column, EstimatorKind, Relation, SortedIndex,
        StatisticsCatalog,
    };
    use selest::RangeQuery;

    let data = PaperFile::Normal { p: 20 }.generate_scaled(10);
    let mut rel = Relation::new("r");
    rel.add_column(Column::new("a", data.domain(), data.values().to_vec()));
    let index = SortedIndex::build(rel.column("a").unwrap());
    let mut catalog = StatisticsCatalog::new();
    let health = catalog.try_analyze(
        &rel,
        &AnalyzeConfig {
            kind: EstimatorKind::Kernel,
            ..Default::default()
        },
    );
    assert!(health.is_healthy(), "{:?}", health.quarantined);

    let w = data.domain().width();
    let mut total_regret = 0.0;
    let mut n = 0;
    for i in 0..30 {
        let a = w * i as f64 / 30.0;
        let q = RangeQuery::new(a, (a + 0.02 * w).min(data.domain().hi()));
        let e = execute_range_query(&catalog, &rel, "a", &index, &q);
        assert_eq!(e.actual_rows, index.count(&q));
        total_regret += e.regret();
        n += 1;
    }
    let avg = total_regret / n as f64;
    assert!(
        avg < 1.3,
        "average plan regret {avg} too high for kernel statistics"
    );
}
