//! Cross-crate contract tests for the fast estimator-construction paths.
//!
//! Four guarantees are pinned here, at the workspace level (see
//! DESIGN.md §9):
//!
//! 1. **Accuracy** — the windowed pairwise functional sum agrees with the
//!    `estimate_psi_naive` O(n²) oracle to 1e-12 relative on every fixture
//!    family the paper uses (uniform, normal, Zipf, TIGER), and the
//!    linear-binned sum stays within its documented tolerance; the
//!    end-to-end h-DPI2 bandwidth inherits those bounds.
//! 2. **Determinism** — the windowed sum, the LSCV score, the plug-in
//!    recursion, and a full catalog ANALYZE produce bit-identical
//!    (byte-identical, for serialized statistics) results for any worker
//!    count, so `SELEST_JOBS ∈ {1, 2, 7}` can never change an estimate.
//! 3. **Dispatch** — the `Auto` strategy resolves to the exact windowed
//!    path below its size threshold, so small builds lose no precision.
//! 4. **Golden bits** — the hybrid's boundaries and probe selectivities
//!    and the h-DPI2 bandwidth over the build-publish benchmark's
//!    reservoirs equal bits pinned before the construction fast paths
//!    went in.

use rand::rngs::StdRng;
use rand::SeedableRng;
use selest::data::Zipf;
use selest::kernel::{lscv_score_jobs, BandwidthSelector, DirectPlugIn, KernelFn};
use selest::math::{
    default_psi_bins, estimate_psi_binned, estimate_psi_naive, estimate_psi_windowed_jobs,
    psi_plug_in_with, PsiStrategy,
};
use selest::store::{encode_statistics, Column};
use selest::{AnalyzeConfig, Domain, PaperFile, RangeQuery, Relation, StatisticsCatalog};

/// One sorted sample per fixture family of the paper: synthetic uniform
/// and normal, the skewed/tied Zipf, and the TIGER Arapahoe geography.
/// All are ≥ 2 048 points so the parallel (windowed / LSCV) paths really
/// fan out instead of falling back to the single-worker fast path.
fn fixtures() -> Vec<(&'static str, Vec<f64>)> {
    let mut out: Vec<(&'static str, Vec<f64>)> = Vec::new();
    for (name, file) in [
        ("uniform", PaperFile::Uniform { p: 20 }),
        ("normal", PaperFile::Normal { p: 20 }),
        ("tiger", PaperFile::Arapahoe1),
    ] {
        let mut v = file.generate_scaled(24).values().to_vec();
        v.truncate(2_200);
        out.push((name, v));
    }
    let zipf = Zipf::new(1_000, 0.86, 0.0, 1_048_575.0);
    let mut rng = StdRng::seed_from_u64(0xb11d_e161);
    out.push(("zipf", (0..2_200).map(|_| zipf.sample(&mut rng)).collect()));
    for (_, v) in &mut out {
        v.sort_by(|a, b| a.partial_cmp(b).unwrap());
    }
    out
}

/// Every `k`-th point, so the O(n²) oracle stays cheap in debug builds
/// while the subsample keeps the fixture's shape (ties included).
fn thin(sorted: &[f64], k: usize) -> Vec<f64> {
    sorted.iter().step_by(k).copied().collect()
}

fn rel_err(got: f64, want: f64) -> f64 {
    (got - want).abs() / want.abs().max(1e-300)
}

fn sample_range(sorted: &[f64]) -> f64 {
    sorted[sorted.len() - 1] - sorted[0]
}

#[test]
fn windowed_psi_matches_naive_oracle_on_every_fixture() {
    for (name, sorted) in fixtures() {
        let thinned = thin(&sorted, 4); // 550 points: oracle-affordable in debug builds
        let range = sample_range(&thinned);
        for r in [4usize, 6] {
            for g in [range / 400.0, range / 40.0] {
                let naive = estimate_psi_naive(&thinned, r, g);
                let fast = estimate_psi_windowed_jobs(&thinned, r, g, 1);
                assert!(
                    rel_err(fast, naive) < 1e-12,
                    "{name}: windowed psi_{r}(g={g:.3}) rel err {:.3e} (naive {naive:.6e}, fast {fast:.6e})",
                    rel_err(fast, naive)
                );
            }
        }
    }
}

#[test]
fn binned_psi_stays_within_documented_tolerance_on_every_fixture() {
    for (name, sorted) in fixtures() {
        let thinned = thin(&sorted, 4);
        let range = sample_range(&thinned);
        for r in [4usize, 6] {
            for g in [range / 400.0, range / 40.0] {
                let naive = estimate_psi_naive(&thinned, r, g);
                let bins =
                    default_psi_bins(range, g).expect("fixture range/g must fit an accurate grid");
                let binned = estimate_psi_binned(&thinned, r, g, bins);
                // default_psi_bins targets delta <= g/10, i.e. O((delta/g)^2)
                // with a constant that grows with the derivative order —
                // ~2e-2 worst case at r = 6 (DESIGN.md §9); smooth fixtures
                // and lower orders land far below that.
                assert!(
                    rel_err(binned, naive) < 2e-2,
                    "{name}: binned psi_{r}(g={g:.3}, bins={bins}) rel err {:.3e}",
                    rel_err(binned, naive)
                );
                // Grid refinement drives the error down as O((delta/g)^2).
                // Binned cost is O(bins x lags), so only refine the small
                // default grids (the convergence sweep itself lives in the
                // math crate's unit tests).
                if bins <= 1_024 {
                    let fine = estimate_psi_binned(&thinned, r, g, bins * 16);
                    assert!(
                        rel_err(fine, naive) < 1e-4,
                        "{name}: 16x-refined binned psi_{r}(g={g:.3}) rel err {:.3e}",
                        rel_err(fine, naive)
                    );
                }
            }
        }
    }
}

#[test]
fn fast_dpi2_bandwidth_tracks_the_naive_oracle_end_to_end() {
    for (name, sorted) in fixtures() {
        let thinned = thin(&sorted, 4);
        let naive_h = DirectPlugIn::two_stage_naive().bandwidth(&thinned, KernelFn::Epanechnikov);
        let windowed_h = DirectPlugIn::two_stage()
            .with_strategy(PsiStrategy::Windowed)
            .bandwidth(&thinned, KernelFn::Epanechnikov);
        let auto_h = DirectPlugIn::two_stage().bandwidth(&thinned, KernelFn::Epanechnikov);
        assert!(
            naive_h.is_finite() && naive_h > 0.0,
            "{name}: bad oracle h {naive_h}"
        );
        // h ∝ psi^(-1/5), so the windowed path's 1e-12 psi agreement
        // survives to the bandwidth essentially unchanged.
        assert!(
            rel_err(windowed_h, naive_h) < 1e-12,
            "{name}: windowed h-DPI2 {windowed_h} vs naive {naive_h} (rel {:.3e})",
            rel_err(windowed_h, naive_h)
        );
        // The Auto (binned) path carries the pinned fast-build tolerance.
        assert!(
            rel_err(auto_h, naive_h) < 1e-3,
            "{name}: auto h-DPI2 {auto_h} vs naive {naive_h} (rel {:.3e})",
            rel_err(auto_h, naive_h)
        );
    }
}

#[test]
fn windowed_psi_is_bit_identical_for_any_worker_count() {
    for (name, sorted) in fixtures() {
        assert!(
            sorted.len() >= 2_048,
            "{name}: fixture too small to exercise fan-out"
        );
        let range = sample_range(&sorted);
        for r in [4usize, 6] {
            for g in [range / 400.0, range / 40.0] {
                let baseline = estimate_psi_windowed_jobs(&sorted, r, g, 1);
                for jobs in [2usize, 7] {
                    let par = estimate_psi_windowed_jobs(&sorted, r, g, jobs);
                    assert_eq!(
                        baseline.to_bits(),
                        par.to_bits(),
                        "{name}: psi_{r}(g={g:.3}) drifted at jobs={jobs}"
                    );
                }
            }
        }
    }
}

#[test]
fn plug_in_recursion_is_bit_identical_for_any_worker_count() {
    for (name, sorted) in fixtures() {
        for strategy in [PsiStrategy::Windowed, PsiStrategy::Auto] {
            let baseline = psi_plug_in_with(&sorted, 4, 2, strategy, 1);
            for jobs in [2usize, 7] {
                let par = psi_plug_in_with(&sorted, 4, 2, strategy, jobs);
                assert_eq!(
                    baseline.to_bits(),
                    par.to_bits(),
                    "{name}: psi plug-in ({strategy:?}) drifted at jobs={jobs}"
                );
            }
        }
    }
}

#[test]
fn lscv_score_is_bit_identical_for_any_worker_count() {
    for (name, sorted) in fixtures() {
        let range = sample_range(&sorted);
        for kernel in [KernelFn::Epanechnikov, KernelFn::Gaussian] {
            for h in [range / 200.0, range / 25.0] {
                let baseline = lscv_score_jobs(&sorted, kernel, h, 1);
                for jobs in [2usize, 7] {
                    let par = lscv_score_jobs(&sorted, kernel, h, jobs);
                    assert_eq!(
                        baseline.to_bits(),
                        par.to_bits(),
                        "{name}: LSCV({kernel:?}, h={h:.3}) drifted at jobs={jobs}"
                    );
                }
            }
        }
    }
}

/// Five columns with distinct shapes over the normal fixture, so the
/// parallel ANALYZE has real per-column work to misorder if it could.
fn catalog_relation() -> Relation {
    let base = PaperFile::Normal { p: 20 }
        .generate_scaled(40)
        .values()
        .to_vec();
    let mut relation = Relation::new("build_engine");
    for c in 0..5usize {
        let scale = 1.0 + 0.3 * c as f64;
        let shift = 2_000.0 * c as f64;
        let values: Vec<f64> = base.iter().map(|v| v * scale + shift).collect();
        let lo = values.iter().copied().fold(f64::INFINITY, f64::min);
        let hi = values.iter().copied().fold(f64::NEG_INFINITY, f64::max);
        relation.add_column(Column::new(&format!("c{c}"), Domain::new(lo, hi), values));
    }
    relation
}

#[test]
fn catalog_build_is_byte_identical_for_any_worker_count() {
    let relation = catalog_relation();
    for kind in [
        selest::store::EstimatorKind::Kernel,
        selest::store::EstimatorKind::EquiDepth,
    ] {
        let config = AnalyzeConfig {
            sample_size: 800,
            kind,
            ..AnalyzeConfig::default()
        };
        let build = |jobs: usize| {
            let mut catalog = StatisticsCatalog::new();
            assert!(catalog
                .try_analyze_jobs(&relation, &config, jobs)
                .is_healthy());
            catalog
        };
        let baseline = build(1);
        let baseline_bytes = encode_statistics(&baseline.export());
        for jobs in [2usize, 7] {
            let par = build(jobs);
            // Serialized statistics must match byte for byte...
            assert_eq!(
                baseline_bytes,
                encode_statistics(&par.export()),
                "{kind:?}: exported statistics drifted at jobs={jobs}"
            );
            // ...and the in-memory estimators must answer identically.
            for c in 0..5usize {
                let name = format!("c{c}");
                let want = baseline.statistics("build_engine", &name).unwrap();
                let got = par.statistics("build_engine", &name).unwrap();
                let domain = want.domain;
                let third = (domain.hi() - domain.lo()) / 3.0;
                for q in [
                    RangeQuery::new(domain.lo(), domain.lo() + third),
                    RangeQuery::new(domain.lo() + third, domain.hi() - third),
                    RangeQuery::new(domain.lo(), domain.hi()),
                ] {
                    assert_eq!(
                        want.estimator.selectivity(&q).to_bits(),
                        got.estimator.selectivity(&q).to_bits(),
                        "{kind:?}: {name} probe {q:?} drifted at jobs={jobs}"
                    );
                }
            }
        }
    }
}

#[test]
fn auto_strategy_is_exact_below_the_binned_threshold() {
    let small = thin(&fixtures()[1].1, 8); // 275 points < AUTO_BINNED_MIN_N
    let auto = psi_plug_in_with(&small, 4, 2, PsiStrategy::Auto, 7);
    let windowed = psi_plug_in_with(&small, 4, 2, PsiStrategy::Windowed, 1);
    assert_eq!(
        auto.to_bits(),
        windowed.to_bits(),
        "Auto must resolve to the exact windowed path for small samples"
    );
}

#[test]
fn auto_strategy_is_exact_when_no_grid_is_fine_enough() {
    // A heavy tail inflates range/g past what any affordable grid can
    // cover at the documented delta <= g/10 spacing; Auto must fall back
    // to the exact windowed path (per stage) instead of a coarse grid,
    // and the end-to-end bandwidth must stay pinned to the oracle.
    let mut xs = fixtures()[1].1.clone(); // normal fixture, 2 200 points
    xs.push(xs[xs.len() - 1] + 1e9);
    let auto = psi_plug_in_with(&xs, 4, 2, PsiStrategy::Auto, 1);
    let windowed = psi_plug_in_with(&xs, 4, 2, PsiStrategy::Windowed, 1);
    assert_eq!(
        auto.to_bits(),
        windowed.to_bits(),
        "Auto must fall back to the windowed path on heavy-tailed samples"
    );
    let auto_h = DirectPlugIn::two_stage().bandwidth(&xs, KernelFn::Epanechnikov);
    let naive_h = DirectPlugIn::two_stage_naive().bandwidth(&xs, KernelFn::Epanechnikov);
    assert!(
        rel_err(auto_h, naive_h) < 1e-12,
        "outlier fixture: auto h-DPI2 {auto_h} vs naive {naive_h} (rel {:.3e})",
        rel_err(auto_h, naive_h)
    );
}

/// ANALYZE (hybrid) over the build-publish benchmark's evidence: n(20)
/// and e(20), each reduced to the default 2 000-row reservoir drawn with
/// the default seed.
fn build_publish_catalog() -> StatisticsCatalog {
    let mut relation = Relation::new("golden");
    for (name, file) in [
        ("n20", PaperFile::Normal { p: 20 }),
        ("e20", PaperFile::Exponential { p: 20 }),
    ] {
        let data = file.generate();
        relation.add_column(Column::new(name, data.domain(), data.values().to_vec()));
    }
    let mut catalog = StatisticsCatalog::new();
    let health = catalog.try_analyze_jobs(
        &relation,
        &AnalyzeConfig {
            kind: selest::store::EstimatorKind::Hybrid,
            ..AnalyzeConfig::default()
        },
        1,
    );
    assert!(health.is_healthy(), "{:?}", health.quarantined);
    catalog
}

/// 64 probes over `domain`: scattered left edges, widths from 1/32 to
/// 1/4 of the domain, clipped at the right end.
fn golden_probes(domain: Domain) -> Vec<RangeQuery> {
    let (lo, w) = (domain.lo(), domain.width());
    (0..64u32)
        .map(|k| {
            let a = lo + w * f64::from((k * 37) % 64) / 64.0;
            let b = (a + w * f64::from(1 + k % 8) / 32.0).min(domain.hi());
            RangeQuery::new(a, b)
        })
        .collect()
}

// Bits of the hybrid and the two-stage DPI bandwidth over the
// build-publish evidence, captured before the even-order pair-weight
// symmetry, the compile-time Hermite orders and the encoder's integer
// fast path went in. Every fast path of estimator construction must
// reproduce them exactly: a speedup that moves one bit fails here.
#[rustfmt::skip]
const N20_BOUNDARIES: [u64; 6] = [
    0x0000000000000000, 0x4121d7fee2800000, 0x412407febf800000,
    0x412517feae800000, 0x4126b7fe94800000, 0x412ffffe00000000,
];
#[rustfmt::skip]
const N20_PROBES: [u64; 64] = [
    0x0000000000000000, 0x3fc0446183efca65, 0x3f976cc2a070034c,
    0x3f9ff8148e8fe65e, 0x3fd52873ce804901, 0x3f423c6e74d68e67,
    0x3fe09ee4dd6e4d98, 0x3fae85cfa6a43808, 0x3fa6c3209c86f90f,
    0x3f9647ce96930d19, 0x3f87107de74a7b75, 0x3fd40b0c33ab1cf3,
    0x0000000000000000, 0x3fd9198dd71eec45, 0x3fb3a39f156c1e2c,
    0x3fb74eb5e1a1b238, 0x3f935e3b72702273, 0x3f63d2c2ef881c8e,
    0x3fd0c55f247440f5, 0x0000000000000000, 0x3fd0d0ca84a36552,
    0x3fb8085fb892ece8, 0x3fa576b26847ad86, 0x3fe2a9f2125f5f6e,
    0x3f4739eca4a0e6eb, 0x3fc7fa1663834bd1, 0x3f50522920729afa,
    0x3fc37951de0189d5, 0x3fbbe5879ca5e27f, 0x3f926b584592226f,
    0x3fe288c3b1badf63, 0x3ee7b22b2d7f645a, 0x3fb82604e62b17c8,
    0x3f610beffb900961, 0x3fb5a6bbc8e73a42, 0x3fbeb283750a3aab,
    0x3f75230705409601, 0x3fe1428f92fd5aa3, 0x0000000000000000,
    0x3fd645362d4ecd65, 0x3f63cc5a1ac498a4, 0x3fa425ac7a0b87e6,
    0x3fbfba0263217592, 0x3f51b23afb7596b8, 0x3fdd879009165241,
    0x3f8951d6777fc95a, 0x3fcb981d7daaa586, 0x3fd17f06fcaececd,
    0x3f8989a9e6cc811a, 0x3fbb381bdeb2c46c, 0x3f27cd4ca994c31f,
    0x3fd7325593b1c894, 0x3f9131a53ebaf154, 0x3fc08c26071d6c3c,
    0x3fd355183677020b, 0x3f805ae231169b72, 0x3fb212f84666955e,
    0x0000000000000000, 0x3fd00f55cc53bb68, 0x3f9537eeaefe8177,
    0x3fb211751a58c2cc, 0x3fd4fb9b9eca73af, 0x3f589d48000f00a0,
    0x3fe41e616a3b6c78,
];
#[rustfmt::skip]
const N20_BANDWIDTH: u64 = 0x40f093843accf5e9;
#[rustfmt::skip]
const E20_BOUNDARIES: [u64; 10] = [
    0x0000000000000000, 0x40f1bffee4000000, 0x40fabffe54000000,
    0x40fe3ffe1c000000, 0x41029ffed6000000, 0x41049ffeb6000000,
    0x410ddffe22000000, 0x41150ffeaf000000, 0x4118cffe73000000,
    0x412ffffe00000000,
];
#[rustfmt::skip]
const E20_PROBES: [u64; 64] = [
    0x3fca2e51c249ea83, 0x3f708fe354e10d73, 0x3fc4d9d42640e4a9,
    0x3f4e2c3e0f1bb1cc, 0x3faa4a8aed79d6ac, 0x3f3791cd13c8874a,
    0x3f95200e120d30de, 0x3fe38057a90cc832, 0x3f5956e3cea28484,
    0x3fb3242880137c7e, 0x3f3fd67270a14798, 0x3fa1d1f8fc677e35,
    0x3f1b728d67d18e0f, 0x3f88b54f8d3710a3, 0x3fda2a3e8d03fa59,
    0x3f5f899e8c222103, 0x3fa13e3b2654632a, 0x3f2b622db41092e8,
    0x3f9550c9dbb834fd, 0x0000000000000000, 0x3f7c29151fabc17b,
    0x3fd1283e41c78b92, 0x3f5749056eeeca0c, 0x3fb3a962591cf760,
    0x3f181c57c0f75668, 0x3f88af38696be295, 0x3fda82eab60a81d3,
    0x3f6f36a77822e40b, 0x3fc4c483071b3b84, 0x3f503e3502f18758,
    0x3faab005b68e690a, 0x3f2acbde800b400a, 0x3f73ae42e3d2c511,
    0x3fcb670255925b5f, 0x3f5727f9a1c0485d, 0x3fb928da721f2cd6,
    0x3f485d9d569442b5, 0x3fa1a83ee3f7a3ac, 0x0000000000000000,
    0x3f828c5e2ece5c41, 0x3fb38ce86c856386, 0x3f46e7b5160025b3,
    0x3fab78b471e68318, 0x3f3faf4ea0ddc20f, 0x3f97b08df8f934ae,
    0x3fe63e08ccc5a0e2, 0x3f76aa6820a3c8dc, 0x3fcccf2bbb744ab3,
    0x3f323176bd9def69, 0x3f984e4a414f34c5, 0x3f33489bb261ca84,
    0x3f8d0d90ce579b24, 0x3fdc36f73fbd93f3, 0x3f65a3ac012a9793,
    0x3fc223dd0c77e032, 0x3f4909ea10a9c14d, 0x3f872456e7a3abfc,
    0x3edb0e15b13cc1ab, 0x3f7e9cd98a13630b, 0x3fd128e8c8dd35f4,
    0x3f569d147aa38272, 0x3fb7c42b9c17c045, 0x3f3f5e77ada870b3,
    0x3f9fc392bdb9a8a1,
];
#[rustfmt::skip]
const E20_BANDWIDTH: u64 = 0x40d70d6e7ee53c53;

#[test]
fn build_publish_hybrid_and_bandwidth_bits_are_pinned() {
    use selest::SelectivityEstimator;
    let catalog = build_publish_catalog();
    let pinned: [(&str, &[u64], &[u64; 64], u64); 2] = [
        ("n20", &N20_BOUNDARIES, &N20_PROBES, N20_BANDWIDTH),
        ("e20", &E20_BOUNDARIES, &E20_PROBES, E20_BANDWIDTH),
    ];
    for (name, boundaries, probes, bandwidth) in pinned {
        let stats = catalog.statistics("golden", name).expect("analyzed");
        let (sample, domain) = (&stats.sample, stats.domain);
        let hybrid = selest::HybridEstimator::new(sample, domain);
        let got: Vec<u64> = hybrid.boundaries().iter().map(|v| v.to_bits()).collect();
        assert_eq!(got, boundaries, "{name}: hybrid boundaries moved");
        for (k, (q, &want)) in golden_probes(domain).iter().zip(probes).enumerate() {
            // The catalog's own estimator (built from the prepared column)
            // and the direct build must both hit the pinned bits.
            for (path, got) in [
                ("direct", hybrid.selectivity(q)),
                ("catalog", stats.estimator.selectivity(q)),
            ] {
                assert_eq!(
                    got.to_bits(),
                    want,
                    "{name}: {path} probe {k} {q:?} = {got:e}, pinned {:e}",
                    f64::from_bits(want)
                );
            }
        }
        let h = DirectPlugIn::two_stage().bandwidth(sample, KernelFn::Epanechnikov);
        assert_eq!(
            h.to_bits(),
            bandwidth,
            "{name}: h-DPI2 = {h:e}, pinned {:e}",
            f64::from_bits(bandwidth)
        );
    }
}
