//! Benches for the extension modules: wavelet histogram, adaptive kernel,
//! and 2-D LSCV.

use bench::{fixture, total_selectivity};
use criterion::{criterion_group, criterion_main, Criterion};
use selest_data::PaperFile;
use selest_histogram::WaveletHistogram;
use selest_kernel::{lscv_score_2d, AdaptiveBoundary, AdaptiveKernelEstimator, KernelFn};
use std::hint::black_box;

fn bench(c: &mut Criterion) {
    let f = fixture(PaperFile::Normal { p: 20 });
    let d = f.data.domain();
    let mut g = c.benchmark_group("extensions");

    // Wavelet histogram: build at two grid resolutions; query path is O(b).
    for grid in [8u32, 12] {
        g.bench_function(format!("wavelet_build_2e{grid}"), |b| {
            b.iter(|| black_box(WaveletHistogram::build(&f.sample, d, grid, 128)))
        });
    }
    let w = WaveletHistogram::build(&f.sample, d, 10, 128);
    g.bench_function("wavelet_answer_200_queries", |b| {
        b.iter(|| black_box(total_selectivity(&w, &f.queries)))
    });

    // Adaptive kernel: pilot + per-sample bandwidths dominate the build.
    g.sample_size(20);
    g.bench_function("adaptive_kernel_build", |b| {
        b.iter(|| {
            black_box(AdaptiveKernelEstimator::new(
                &f.sample,
                d,
                KernelFn::Epanechnikov,
                d.width() / 60.0,
                0.5,
                AdaptiveBoundary::Reflection,
            ))
        })
    });
    let ad = AdaptiveKernelEstimator::new(
        &f.sample,
        d,
        KernelFn::Epanechnikov,
        d.width() / 60.0,
        0.5,
        AdaptiveBoundary::Reflection,
    );
    g.bench_function("adaptive_kernel_answer_200_queries", |b| {
        b.iter(|| black_box(total_selectivity(&ad, &f.queries)))
    });

    // 2-D LSCV score: one evaluation of the O(n * window) objective.
    let mut pairs: Vec<(f64, f64)> = f
        .sample
        .iter()
        .zip(f.sample.iter().rev())
        .map(|(&x, &y)| (x, y))
        .collect();
    pairs.sort_by(|a, b| a.0.partial_cmp(&b.0).unwrap());
    g.bench_function("lscv_score_2d_n1000", |b| {
        b.iter(|| {
            black_box(lscv_score_2d(
                &pairs,
                KernelFn::Epanechnikov,
                d.width() / 30.0,
                d.width() / 30.0,
            ))
        })
    });
    g.finish();
}

/// Short measurement windows so the full per-figure suite stays minutes,
/// not hours; pass `--measurement-time` to override.
fn short() -> Criterion {
    Criterion::default()
        .warm_up_time(std::time::Duration::from_millis(500))
        .measurement_time(std::time::Duration::from_secs(2))
        .configure_from_args()
}

criterion_group! {
    name = benches;
    config = short();
    targets = bench
}
criterion_main!(benches);
