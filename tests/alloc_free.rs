//! Counting-allocator proof that the batch serving path is
//! allocation-free after warm-up.
//!
//! A wrapping `#[global_allocator]` tallies every `alloc`/`realloc`/
//! `alloc_zeroed`; the test warms each estimator's output buffers once, then
//! asserts:
//!
//! - `selectivity_batch_into` and `try_selectivity_batch_into` perform
//!   **zero** heap allocations per call — the whole point of the
//!   caller-provided-buffer variants;
//! - the `Vec`-returning `selectivity_batch` performs at most **one**
//!   allocation per call: the output vector its signature requires;
//! - the serving engine over a kernel column — `estimate_batch_into` with
//!   a warm output vector, and `try_estimate` (a batch of one that needs
//!   no buffer) — performs **zero** heap allocations per call,
//!   on cache misses and on cache hits.
//!
//! Everything runs inside a single `#[test]` — the counter is
//! process-global, and cargo runs sibling tests on concurrent threads.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

use selest::store::{EstimatorKind, OverloadOptions, ServingColumn};
use selest::{
    equi_depth, equi_width, BatchScratch, BoundaryPolicy, CatalogSnapshot, HybridEstimator,
    KernelEstimator, KernelFn, PaperFile, QueryFile, SamplingEstimator, SelectivityEstimator,
    ServingEngine, ServingOptions, ServingScratch,
};

struct CountingAlloc;

static ALLOC_CALLS: AtomicUsize = AtomicUsize::new(0);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOC_CALLS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOC_CALLS.fetch_add(1, Ordering::Relaxed);
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOC_CALLS.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Allocation calls during `f`, with nothing else running.
fn allocs_during<R>(f: impl FnOnce() -> R) -> (usize, R) {
    let before = ALLOC_CALLS.load(Ordering::Relaxed);
    let r = f();
    (ALLOC_CALLS.load(Ordering::Relaxed) - before, r)
}

#[test]
fn batch_path_is_allocation_free_after_warmup() {
    // Keep everything on this thread: a worker pool would allocate (and
    // count) from other threads.
    selest::par::set_jobs(1);

    let data = PaperFile::Normal { p: 15 }.generate_scaled(20);
    let domain = data.domain();
    let sample: Vec<f64> = data.values()[..1_000].to_vec();
    let queries = QueryFile::generate(&data, 0.01, 150, 9).queries().to_vec();
    let h = domain.width() / 64.0;

    let estimators: Vec<(&str, Box<dyn SelectivityEstimator>)> = vec![
        (
            "kernel-bk",
            Box::new(KernelEstimator::new(
                &sample,
                domain,
                KernelFn::Epanechnikov,
                h,
                BoundaryPolicy::BoundaryKernel,
            )),
        ),
        (
            "kernel-refl",
            Box::new(KernelEstimator::new(
                &sample,
                domain,
                KernelFn::Epanechnikov,
                h,
                BoundaryPolicy::Reflection,
            )),
        ),
        ("ewh", Box::new(equi_width(&sample, domain, 16))),
        ("edh", Box::new(equi_depth(&sample, domain, 16))),
        (
            "sampling",
            Box::new(SamplingEstimator::new(&sample, domain)),
        ),
        ("hybrid", Box::new(HybridEstimator::new(&sample, domain))),
    ];

    let mut scratch = BatchScratch::new();
    let mut out = vec![0.0f64; queries.len()];
    let mut try_out = Vec::new();

    for (name, est) in &estimators {
        let est = est.as_ref();

        // Warm-up: first calls may grow `try_out` to the batch size.
        est.selectivity_batch_into(&queries, &mut scratch, &mut out);
        try_out.clear();
        try_out.resize(queries.len(), Ok(0.0));
        est.try_selectivity_batch_into(&queries, &mut scratch, &mut try_out);
        let warm_reference = est.selectivity_batch(&queries);

        // Warm `_into` calls: zero allocations, bit-identical answers.
        for round in 0..3 {
            let (n, ()) = allocs_during(|| {
                est.selectivity_batch_into(&queries, &mut scratch, &mut out);
            });
            assert_eq!(
                n, 0,
                "{name}: selectivity_batch_into allocated {n} times on warm round {round}"
            );
            let (n, ()) = allocs_during(|| {
                est.try_selectivity_batch_into(&queries, &mut scratch, &mut try_out);
            });
            assert_eq!(
                n, 0,
                "{name}: try_selectivity_batch_into allocated {n} times on warm round {round}"
            );
        }
        for (i, (&got, want)) in out.iter().zip(&warm_reference).enumerate() {
            assert_eq!(
                got.to_bits(),
                want.to_bits(),
                "{name}: warm _into answer drifted at query {i}"
            );
        }
        for (i, (got, want)) in try_out.iter().zip(&warm_reference).enumerate() {
            let got = got.as_ref().expect("finite fixture queries");
            assert_eq!(
                got.to_bits(),
                want.to_bits(),
                "{name}: warm try answer drifted at query {i}"
            );
        }

        // The Vec-returning form: exactly the one output allocation its
        // signature forces, nothing hidden.
        let (n, answers) = allocs_during(|| est.selectivity_batch(&queries));
        assert!(
            n <= 1,
            "{name}: selectivity_batch allocated {n} times (only the output Vec is allowed)"
        );
        drop(answers);
    }

    // The serving engine over a kernel column. An SLO far above any
    // latency keeps the load tier at `Normal`, so every miss reaches the
    // kernel primary while latency observation stays on.
    let kernel = KernelEstimator::new(
        &sample,
        domain,
        KernelFn::Epanechnikov,
        h,
        BoundaryPolicy::BoundaryKernel,
    );
    let column = ServingColumn::new(
        "t",
        "k",
        Arc::new(kernel),
        data.len(),
        EstimatorKind::Kernel,
        domain,
        sample.clone().into(),
    );
    let engine = ServingEngine::new(ServingOptions {
        shards: 1,
        overload: OverloadOptions {
            slo_us: 1e12,
            ..Default::default()
        },
        ..Default::default()
    });
    engine.publish_snapshot(CatalogSnapshot::from_columns(vec![column], 1));
    let (batch_warm, rest) = queries.split_at(50);
    let (batch_cold, singles) = rest.split_at(50);
    let mut serving = ServingScratch::new();
    let mut served = Vec::new();
    // Warm-up: the thread-local snapshot entry and the output vector of
    // a 50-query batch.
    engine.estimate_batch_into("t", "k", batch_warm, &mut serving, &mut served);
    engine.try_estimate("t", "k", &singles[0]).expect("served");
    let stats = engine.cache().stats();
    for (pass, expect_misses) in [("miss", true), ("hit", false)] {
        let (n, ()) = allocs_during(|| {
            engine.estimate_batch_into("t", "k", batch_cold, &mut serving, &mut served);
        });
        assert_eq!(n, 0, "engine batch ({pass} pass) allocated {n} times");
        assert!(served.iter().all(|s| s.is_ok()));
        let after = engine.cache().stats();
        if expect_misses {
            assert!(after.misses > stats.misses, "first pass must miss");
        } else {
            assert!(after.hits > stats.hits, "second pass must hit");
        }
    }
    for q in &singles[1..12] {
        let before = engine.cache().stats();
        let (n, miss) = allocs_during(|| engine.try_estimate("t", "k", q));
        assert_eq!(n, 0, "try_estimate (miss) allocated {n} times");
        let (n, hit) = allocs_during(|| engine.try_estimate("t", "k", q));
        assert_eq!(n, 0, "try_estimate (hit) allocated {n} times");
        assert_eq!(
            miss.expect("served").to_bits(),
            hit.expect("served").to_bits()
        );
        let after = engine.cache().stats();
        assert_eq!(
            (after.misses, after.hits),
            (before.misses + 1, before.hits + 1)
        );
    }
}
