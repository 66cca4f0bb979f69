//! Cross-crate contract tests for the shared [`PreparedColumn`] substrate
//! (DESIGN.md §10).
//!
//! Three guarantees are pinned here, at the workspace level:
//!
//! 1. **Bit-equality** — for every estimator in the workspace, the
//!    `from_prepared`/`*_prepared` constructor produces the same
//!    selectivities, bit for bit, as the legacy slice-based constructor on
//!    every fixture family the paper uses (uniform, normal, Zipf, TIGER).
//!    Preparing a column is a pure refactor of *where* the sort happens,
//!    never of what any estimator answers.
//! 2. **Serialization stability** — a catalog whose estimators were built
//!    over shared prepared columns exports byte-identical serialized
//!    evidence regardless of worker count, and survives an
//!    export → encode → decode → import round trip byte-identically.
//! 3. **Summary determinism** — the parallel one-pass
//!    [`selest::ColumnSummary`] is bit-identical for `SELEST_JOBS`-style
//!    worker counts 1, 2, and 7 on every fixture.

use rand::rngs::StdRng;
use rand::SeedableRng;
use selest::data::Zipf;
use selest::histogram::{
    equi_depth, equi_depth_prepared, equi_width, equi_width_prepared, max_diff, max_diff_prepared,
    v_optimal, v_optimal_prepared, AverageShiftedHistogram, BinRule, FreedmanDiaconisBins,
    NormalScaleBins, PlugInBins, WaveletHistogram,
};
use selest::kernel::{
    AdaptiveBoundary, AdaptiveKernelEstimator, BandwidthSelector, DirectPlugIn, Lscv, NormalScale,
};
use selest::store::{encode_statistics, Column};
use selest::{
    AnalyzeConfig, BoundaryPolicy, Domain, EstimatorKind, HybridEstimator, KernelEstimator,
    KernelFn, PaperFile, PreparedColumn, RangeQuery, Relation, SamplingEstimator,
    SelectivityEstimator, StatisticsCatalog,
};

/// One fixture per data family of the paper, in the *original draw order*
/// (deliberately unsorted) so any order-sensitivity between the legacy
/// constructors and the prepared paths would show up as checksum drift.
fn fixtures() -> Vec<(&'static str, Vec<f64>, Domain)> {
    let mut out: Vec<(&'static str, Vec<f64>, Domain)> = Vec::new();
    for (name, file) in [
        ("uniform", PaperFile::Uniform { p: 20 }),
        ("normal", PaperFile::Normal { p: 20 }),
        ("tiger", PaperFile::Arapahoe1),
    ] {
        let data = file.generate_scaled(24);
        let mut v = data.values().to_vec();
        v.truncate(1_800);
        out.push((name, v, data.domain()));
    }
    let zipf = Zipf::new(1_000, 0.86, 0.0, 1_048_575.0);
    let mut rng = StdRng::seed_from_u64(0xb11d_e161);
    out.push((
        "zipf",
        (0..1_800).map(|_| zipf.sample(&mut rng)).collect(),
        Domain::new(0.0, 1_048_575.0),
    ));
    out
}

/// A probe workload spanning the domain at several widths.
fn probe_queries(domain: Domain) -> Vec<RangeQuery> {
    let mut qs = Vec::new();
    for i in 0..16 {
        let a = domain.lo() + domain.width() * i as f64 / 16.0;
        for frac in [0.01, 0.05, 0.25] {
            let b = (a + domain.width() * frac).min(domain.hi());
            qs.push(RangeQuery::new(a, b));
        }
    }
    qs
}

/// Assert two estimators answer every probe query with bit-identical
/// selectivities.
fn assert_bit_identical(
    label: &str,
    legacy: &dyn SelectivityEstimator,
    prepared: &dyn SelectivityEstimator,
    queries: &[RangeQuery],
) {
    for q in queries {
        let a = legacy.selectivity(q);
        let b = prepared.selectivity(q);
        assert_eq!(
            a.to_bits(),
            b.to_bits(),
            "{label}: prepared path drifted on [{}, {}]: legacy {a}, prepared {b}",
            q.a(),
            q.b()
        );
    }
}

#[test]
fn every_estimator_is_bit_identical_from_prepared() {
    for (name, sample, domain) in fixtures() {
        let col = PreparedColumn::prepare(&sample, domain);
        let queries = probe_queries(domain);
        let check =
            |label: String, legacy: &dyn SelectivityEstimator, prep: &dyn SelectivityEstimator| {
                assert_bit_identical(&label, legacy, prep, &queries);
            };

        check(
            format!("{name}/sampling"),
            &SamplingEstimator::new(&sample, domain),
            &SamplingEstimator::from_prepared(&col),
        );

        // Histograms under every bin rule that has a prepared override.
        let k_ns = NormalScaleBins.bins(&sample, &domain);
        assert_eq!(
            k_ns,
            NormalScaleBins.bins_prepared(&col),
            "{name}: normal-scale bins"
        );
        let k_fd = FreedmanDiaconisBins.bins(&sample, &domain);
        assert_eq!(
            k_fd,
            FreedmanDiaconisBins.bins_prepared(&col),
            "{name}: FD bins"
        );
        let plug_in = PlugInBins::two_stage();
        assert_eq!(
            plug_in.bins(&sample, &domain),
            plug_in.bins_prepared(&col),
            "{name}: plug-in bins"
        );
        check(
            format!("{name}/equi-width"),
            &equi_width(&sample, domain, k_ns),
            &equi_width_prepared(&col, k_ns),
        );
        check(
            format!("{name}/equi-depth"),
            &equi_depth(&sample, domain, k_ns),
            &equi_depth_prepared(&col, k_ns),
        );
        check(
            format!("{name}/max-diff"),
            &max_diff(&sample, domain, k_ns),
            &max_diff_prepared(&col, k_ns),
        );
        check(
            format!("{name}/v-optimal"),
            &v_optimal(&sample, domain, 6, 200),
            &v_optimal_prepared(&col, 6, 200),
        );
        check(
            format!("{name}/ash"),
            &AverageShiftedHistogram::new(&sample, domain, k_ns, 10),
            &AverageShiftedHistogram::from_prepared(&col, k_ns, 10),
        );
        check(
            format!("{name}/wavelet"),
            &WaveletHistogram::build(&sample, domain, 8, 48),
            &WaveletHistogram::from_prepared(&col, 8, 48),
        );

        // Kernel estimators under every bandwidth selector with a
        // prepared override, plus the adaptive and hybrid estimators.
        let kernel = KernelFn::Epanechnikov;
        for (rule, h_legacy, h_prepared) in [
            (
                "ns",
                NormalScale.bandwidth(&sample, kernel),
                NormalScale.bandwidth_prepared(&col, kernel),
            ),
            (
                "dpi2",
                DirectPlugIn::two_stage().bandwidth(&sample, kernel),
                DirectPlugIn::two_stage().bandwidth_prepared(&col, kernel),
            ),
            (
                "lscv",
                Lscv.bandwidth(&sample, kernel),
                Lscv.bandwidth_prepared(&col, kernel),
            ),
        ] {
            assert_eq!(
                h_legacy.to_bits(),
                h_prepared.to_bits(),
                "{name}: {rule} bandwidth drifted ({h_legacy} vs {h_prepared})"
            );
            let h = h_legacy.min(0.5 * domain.width());
            check(
                format!("{name}/kernel-{rule}"),
                &KernelEstimator::new(&sample, domain, kernel, h, BoundaryPolicy::BoundaryKernel),
                &KernelEstimator::from_prepared(&col, kernel, h, BoundaryPolicy::BoundaryKernel),
            );
        }
        let h0 = NormalScale.bandwidth(&sample, kernel);
        check(
            format!("{name}/adaptive"),
            &AdaptiveKernelEstimator::new(
                &sample,
                domain,
                kernel,
                h0,
                0.5,
                AdaptiveBoundary::Reflection,
            ),
            &AdaptiveKernelEstimator::from_prepared(
                &col,
                kernel,
                h0,
                0.5,
                AdaptiveBoundary::Reflection,
            ),
        );
        check(
            format!("{name}/hybrid"),
            &HybridEstimator::new(&sample, domain),
            &HybridEstimator::from_prepared(&col),
        );
    }
}

/// A small multi-column relation over one fixture's values.
fn relation() -> Relation {
    let data = PaperFile::Normal { p: 20 }.generate_scaled(24);
    let base = data.values();
    let mut rel = Relation::new("prepared_test");
    for c in 0..3usize {
        let scale = 1.0 + 0.5 * c as f64;
        let values: Vec<f64> = base.iter().map(|&v| v * scale).collect();
        let domain = Domain::new(data.domain().lo() * scale, data.domain().hi() * scale);
        rel.add_column(Column::new(&format!("c{c}"), domain, values));
    }
    rel
}

#[test]
fn catalog_evidence_is_byte_identical_for_any_worker_count() {
    let rel = relation();
    for kind in [
        EstimatorKind::Kernel,
        EstimatorKind::MaxDiff,
        EstimatorKind::Hybrid,
    ] {
        let config = AnalyzeConfig {
            sample_size: 500,
            kind,
            ..Default::default()
        };
        let evidence: Vec<String> = [1usize, 2, 7]
            .iter()
            .map(|&jobs| {
                let mut cat = StatisticsCatalog::new();
                assert!(cat.try_analyze_jobs(&rel, &config, jobs).is_healthy());
                encode_statistics(&cat.export())
            })
            .collect();
        assert_eq!(evidence[0], evidence[1], "{kind:?}: jobs 1 vs 2");
        assert_eq!(evidence[0], evidence[2], "{kind:?}: jobs 1 vs 7");
    }
}

#[test]
fn catalog_round_trips_byte_identically_through_import() {
    let rel = relation();
    let config = AnalyzeConfig {
        sample_size: 500,
        ..Default::default()
    };
    let mut cat = StatisticsCatalog::new();
    assert!(cat.try_analyze(&rel, &config).is_healthy());
    let text = encode_statistics(&cat.export());
    let mut restored = StatisticsCatalog::new();
    let failures = restored.try_import(selest::store::decode_statistics(&text).expect("decode"));
    assert!(failures.is_empty(), "{failures:?}");
    assert_eq!(
        text,
        encode_statistics(&restored.export()),
        "import round trip"
    );
    // Rebuilt estimators answer identically to the originals.
    let q = RangeQuery::new(0.0, 1_000.0);
    for c in ["c0", "c1", "c2"] {
        let a = cat.statistics("prepared_test", c).expect("original");
        let b = restored.statistics("prepared_test", c).expect("restored");
        assert_eq!(
            a.estimator.selectivity(&q).to_bits(),
            b.estimator.selectivity(&q).to_bits(),
            "{c}: restored estimator drifted"
        );
    }
}

#[test]
fn column_summary_is_bit_identical_for_any_worker_count() {
    for (name, sample, domain) in fixtures() {
        let summaries: Vec<selest::ColumnSummary> = [1usize, 2, 7]
            .iter()
            .map(|&jobs| {
                // Fresh column per worker count: the summary is computed
                // once and cached, so reuse would hide any divergence.
                let col = PreparedColumn::prepare(&sample, domain);
                *col.summary_jobs(jobs)
            })
            .collect();
        for s in &summaries[1..] {
            assert_eq!(summaries[0].count, s.count, "{name}: count");
            for (field, a, b) in [
                ("mean", summaries[0].mean, s.mean),
                ("stddev", summaries[0].stddev, s.stddev),
                ("median", summaries[0].median, s.median),
                ("iqr", summaries[0].iqr, s.iqr),
                ("robust_scale", summaries[0].robust_scale, s.robust_scale),
                ("min", summaries[0].min, s.min),
                ("max", summaries[0].max, s.max),
            ] {
                assert_eq!(a.to_bits(), b.to_bits(), "{name}: summary {field} drifted");
            }
        }
    }
}
