//! Ablation benches for the design decisions called out in DESIGN.md §6:
//!
//! 1. the paper's four-case split with exact primitives vs. naive
//!    per-sample numerical integration of the kernel;
//! 2. the sorted evaluation (`O(log n)` for the Epanechnikov kernel
//!    through its prefix-moment table) vs. the `Theta(n)` Algorithm 1
//!    linear scan;
//! 3. the full-contribution counting shortcut (binary search) vs. paying
//!    the CDF for every in-reach sample.

use criterion::{criterion_group, criterion_main, Criterion};
use selest_core::{Domain, RangeQuery, SelectivityEstimator};
use selest_data::{sample_without_replacement, PaperFile};
use selest_kernel::{BoundaryPolicy, KernelEstimator, KernelFn};
use selest_math::simpson;
use std::hint::black_box;

/// Naive per-sample quadrature of equation (6) — what the exact primitives
/// replace.
fn naive_quadrature_selectivity(samples: &[f64], h: f64, q: &RangeQuery) -> f64 {
    let k = KernelFn::Epanechnikov;
    let sum: f64 = samples
        .iter()
        .map(|&x| {
            let lo = (q.a() - x) / h;
            let hi = (q.b() - x) / h;
            let lo = lo.max(-1.0);
            let hi = hi.min(1.0);
            if hi <= lo {
                0.0
            } else {
                simpson(|t| k.eval(t), lo, hi, 32)
            }
        })
        .sum();
    sum / samples.len() as f64
}

fn bench(c: &mut Criterion) {
    let data = PaperFile::Uniform { p: 20 }.generate_scaled(20);
    let domain: Domain = data.domain();
    let sample = sample_without_replacement(data.values(), 2_000, 3);
    let h = domain.width() / 50.0;
    let est = KernelEstimator::new(
        &sample,
        domain,
        KernelFn::Epanechnikov,
        h,
        BoundaryPolicy::NoTreatment,
    );
    let wide = RangeQuery::new(domain.lerp(0.2), domain.lerp(0.7));
    let narrow = RangeQuery::new(domain.lerp(0.5), domain.lerp(0.503));

    let mut g = c.benchmark_group("ablations");

    // 1. Exact primitives vs. naive quadrature (linear scans both ways).
    g.bench_function("exact_primitive_linear_scan", |b| {
        b.iter(|| black_box(est.selectivity_linear(black_box(&wide))))
    });
    g.bench_function("naive_quadrature_linear_scan", |b| {
        b.iter(|| {
            black_box(naive_quadrature_selectivity(
                est.samples(),
                h,
                black_box(&wide),
            ))
        })
    });

    // 2. Sorted evaluation vs. Algorithm 1.
    g.bench_function("sorted_eval_wide_query", |b| {
        b.iter(|| black_box(est.selectivity(black_box(&wide))))
    });
    g.bench_function("alg1_linear_wide_query", |b| {
        b.iter(|| black_box(est.selectivity_linear(black_box(&wide))))
    });
    g.bench_function("sorted_eval_narrow_query", |b| {
        b.iter(|| black_box(est.selectivity(black_box(&narrow))))
    });
    g.bench_function("alg1_linear_narrow_query", |b| {
        b.iter(|| black_box(est.selectivity_linear(black_box(&narrow))))
    });

    // 3. psi-functional estimation cost scaling (the plug-in rules' O(n^2)
    // core), n and 2n.
    g.sample_size(10);
    for n in [500usize, 1_000] {
        let s = &sample[..n];
        g.bench_function(format!("psi4_estimate_n{n}"), |b| {
            b.iter(|| black_box(selest_math::psi_plug_in(black_box(s), 4, 2)))
        });
    }
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
