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
//! 3. **Dispatch** — the `Auto` strategy takes the per-stage binned grid
//!    at every sample size, falls back to the exact windowed path only
//!    when no affordable grid is fine enough, and keeps every hybrid
//!    bin's h-DPI2 bandwidth within 5e-3 relative of the windowed one.
//! 4. **Golden bits** — the hybrid's boundaries and probe selectivities
//!    and the h-DPI2 bandwidth over the build-publish benchmark's
//!    reservoirs equal pinned bits.

use rand::rngs::StdRng;
use rand::SeedableRng;
use selest::data::{reservoir_sample, Zipf};
use selest::kernel::{lscv_score_jobs, BandwidthSelector, DirectPlugIn, KernelFn};
use selest::math::{
    default_psi_bins, estimate_psi_binned, estimate_psi_naive, estimate_psi_windowed_jobs,
    pilot_bandwidth, psi_normal_scale, psi_plug_in_with, robust_scale_sorted, PsiStrategy,
};
use selest::store::{encode_statistics, Column};
use selest::{
    AnalyzeConfig, Domain, HybridEstimator, PaperFile, RangeQuery, Relation, StatisticsCatalog,
};

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

/// The plug-in recursion of `psi_plug_in_sorted` with every stage on its
/// own `default_psi_bins` grid, spelled out stage by stage.
fn per_stage_binned_psi(sorted: &[f64], r: usize, stages: usize) -> f64 {
    let n = sorted.len();
    let sigma = robust_scale_sorted(sorted, sorted);
    let mut psi = psi_normal_scale(r + 2 * stages, sigma);
    for order in (r..r + 2 * stages).step_by(2).rev() {
        let g = pilot_bandwidth(order, psi, n);
        let bins = default_psi_bins(sample_range(sorted), g).expect("a fine enough grid");
        psi = estimate_psi_binned(sorted, order, g, bins);
        let expected_sign = if (order / 2).is_multiple_of(2) {
            1.0
        } else {
            -1.0
        };
        if psi * expected_sign <= 0.0 {
            psi = psi_normal_scale(order, sigma);
        }
    }
    psi
}

#[test]
fn auto_strategy_is_binned_at_every_sample_size() {
    let normal = &fixtures()[1].1;
    for n in [8usize, 32, 275, 511, 2_000] {
        let xs: Vec<f64> = normal
            .iter()
            .step_by(normal.len() / n)
            .take(n)
            .copied()
            .collect();
        assert_eq!(xs.len(), n);
        for r in [2usize, 4] {
            let want = per_stage_binned_psi(&xs, r, 2);
            for jobs in [1usize, 7] {
                let auto = psi_plug_in_with(&xs, r, 2, PsiStrategy::Auto, jobs);
                assert_eq!(
                    auto.to_bits(),
                    want.to_bits(),
                    "n={n} r={r} jobs={jobs}: Auto {auto:e} vs per-stage binned {want:e}"
                );
            }
        }
    }
}

#[test]
fn every_hybrid_bin_bandwidth_tracks_the_windowed_sum() {
    // The hybrid fits one h-DPI2 bandwidth per bin, and most bins hold
    // fewer than 512 samples; binning their functionals must keep each
    // bandwidth close to the exact windowed one on every paper file.
    let windowed = DirectPlugIn::two_stage().with_strategy(PsiStrategy::Windowed);
    let mut worst = (0.0f64, String::new());
    for file in [
        PaperFile::Uniform { p: 20 },
        PaperFile::Normal { p: 20 },
        PaperFile::Exponential { p: 20 },
        PaperFile::Arapahoe1,
        PaperFile::Arapahoe2,
        PaperFile::InstanceWeight,
    ] {
        let data = file.generate();
        for seed in [0x5e_1e_c7u64, 1, 2, 3] {
            let mut sample = reservoir_sample(data.values(), 2_000, seed);
            sample.sort_by(|a, b| a.partial_cmp(b).unwrap());
            let bounds = HybridEstimator::new(&sample, data.domain()).boundaries();
            for (i, edge) in bounds.windows(2).enumerate() {
                // The hybrid's own bin membership: the first bin is
                // closed at both ends, every later one open on the left.
                let i0 = if i == 0 {
                    0
                } else {
                    sample.partition_point(|&v| v <= edge[0])
                };
                let bin = &sample[i0..sample.partition_point(|&v| v <= edge[1])];
                if bin.len() < 8 || robust_scale_sorted(bin, bin) <= 0.0 {
                    continue; // a uniform or point-mass bin fits no bandwidth
                }
                let auto = DirectPlugIn::two_stage().bandwidth(bin, KernelFn::Epanechnikov);
                let exact = windowed.bandwidth(bin, KernelFn::Epanechnikov);
                let rel = rel_err(auto, exact);
                if rel > worst.0 {
                    worst = (
                        rel,
                        format!(
                            "{} seed {seed:#x} bin {i} ({} samples)",
                            data.name(),
                            bin.len()
                        ),
                    );
                }
            }
        }
    }
    assert!(
        worst.0 < 5e-3,
        "{}: h-DPI2 drifted {:.2e}",
        worst.1,
        worst.0
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
// build-publish evidence. The bandwidth bits predate every construction
// fast path; the hybrid's were re-pinned when its per-bin functionals and
// its f'' curve moved to binned sums at every sample size, and its probes
// again when the per-bin kernels' moment table widened its cells to four
// bandwidths (rounding only; boundaries and bandwidths kept their bits).
// A speedup that moves one bit fails here; only a change to an estimator
// re-pins.
#[rustfmt::skip]
const N20_BOUNDARIES: [u64; 7] = [
    0x0000000000000000, 0x4121c7fee3800000, 0x412407febf800000,
    0x412517feae800000, 0x4126b7fe94800000, 0x4127f7fe80800000,
    0x412ffffe00000000,
];
#[rustfmt::skip]
const N20_PROBES: [u64; 64] = [
    0x0000000000000000, 0x3fc044e3154721c5, 0x3f976a17585ac045,
    0x3f9f771618291d7c, 0x3fd5289510269b99, 0x3f425e380caf1863,
    0x3fe09b94470936b1, 0x3fae83f9ad96026a, 0x3fa6c3bd5ce9b7a5,
    0x3f9645222c6a6ec4, 0x3f86d9eb3448755c, 0x3fd40b1eff031ccc,
    0x0000000000000000, 0x3fd912d678f964f2, 0x3fb3a36b92f37a19,
    0x3fb74eb589781520, 0x3f935e77191cc881, 0x3f635b94c65ef346,
    0x3fd0c5672c87e8b8, 0x0000000000000000, 0x3fd0f1e4c7bd2d2b,
    0x3fb807d117c6d15d, 0x3fa507c8f59c40b0, 0x3fe2a06679d37a5f,
    0x3f482ed0c0fa373a, 0x3fc7faca9d3d5efc, 0x3f50492ec3d4368b,
    0x3fc3aa86ccac5563, 0x3fbbe5404287eb6d, 0x3f9256148a6dea9d,
    0x3fe285a6e79d48d2, 0x3ed1d875c9c0fc6b, 0x3fb81cac3ff20479,
    0x3f610c5b3e45330a, 0x3fb58b587f702f10, 0x3fbeb1fb33336880,
    0x3f753a85478c00f4, 0x3fe1412f77c7d1da, 0x0000000000000000,
    0x3fd64be79708b22a, 0x3f63ccd38330cb9e, 0x3fa3f46152e33b26,
    0x3fbfb93b5b905a81, 0x3f5181b5eabc3978, 0x3fdd84bd77d45612,
    0x3f895152d532eeb7, 0x3fcb88e707207225, 0x3fd17f167f5eb3fb,
    0x3f89a4fbfeac2bb5, 0x3fbb377ccbc69af8, 0x3f25a99a21f41b3c,
    0x3fd72f878cbf225c, 0x3f9132ada437059d, 0x3fc07ee638617e34,
    0x3fd354d02090bf1c, 0x3f802d4bdb5f9d41, 0x3fb21423bf932d54,
    0x0000000000000000, 0x3fd00b297d349e68, 0x3f95375f2eaf9bb5,
    0x3fb1f729699b98cd, 0x3fd4fb982b31cb41, 0x3f57b328465fa569,
    0x3fe41b1a81b77887,
];
#[rustfmt::skip]
const N20_BANDWIDTH: u64 = 0x40f093843accf5e9;
#[rustfmt::skip]
const E20_BOUNDARIES: [u64; 9] = [
    0x0000000000000000, 0x40f1bffee4000000, 0x40fabffe54000000,
    0x41029ffed6000000, 0x41049ffeb6000000, 0x410b1ffe4e000000,
    0x41150ffeaf000000, 0x4118cffe73000000, 0x412ffffe00000000,
];
#[rustfmt::skip]
const E20_PROBES: [u64; 64] = [
    0x3fca2e51c249ea82, 0x3f708f951062f0da, 0x3fc4edd94e07c77e,
    0x3f4e2bf375e5bd44, 0x3faa63a1287b4986, 0x3f378e93670edaa5,
    0x3f952012fd8b4c48, 0x3fe38ccb498ed9b5, 0x3f59566e7b63f3fa,
    0x3fb32742949095de, 0x3f3fd66331164527, 0x3fa1d1e686e207f8,
    0x3f1b6a3c63965bc1, 0x3f88b5a3737e93f1, 0x3fda42240e935e0a,
    0x3f5f8adddb499578, 0x3fa13619ba55d2d8, 0x3f2b64f7087dc9a0,
    0x3f9550c52c8ff17b, 0x0000000000000000, 0x3f7c296cc587cbe8,
    0x3fd12f419ff3c65f, 0x3f5748be198eeafe, 0x3fb3b1eab92a3d37,
    0x3f182035e4476df4, 0x3f88af0f2106fdfd, 0x3fda9b832faf5f0c,
    0x3f6f36859c949ab0, 0x3fc4bd5c27305861, 0x3f503e5bb432a0f1,
    0x3faaaff04e866fbe, 0x3f2ac6516b4ebebe, 0x3f73adef0f432d5f,
    0x3fcb9532095916b0, 0x3f5728fad0bf5ec8, 0x3fb94b62fab8b6f4,
    0x3f485d4d96b186c7, 0x3fa1a85c261d27f5, 0x0000000000000000,
    0x3f828cacff4c0998, 0x3fb38376eeb2bab0, 0x3f46e644518b1d8a,
    0x3fab81f4d9cc8ed7, 0x3f3fb20f3aa8bf73, 0x3f97b0ab9e8c86f3,
    0x3fe64ab75da288ae, 0x3f76aa44e55d4167, 0x3fccd18598bc5916,
    0x3f3232ed2029a9b2, 0x3f9866c5720f1d22, 0x3f33455908bc9a1f,
    0x3f8d0db32ff57872, 0x3fdc48bde54b9710, 0x3f65a4574b6f9773,
    0x3fc2366494b18caa, 0x3f49087576a28425, 0x3f872403043665c8,
    0x3edaa126accc1a5f, 0x3f7e9d4c8c0bdfbc, 0x3fd13aac6a09866d,
    0x3f569d24a7e9e182, 0x3fb7c7c7fc70853b, 0x3f3f5d1f5bfdafc8,
    0x3f9fc3a02b7ab689,
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
