//! Counting-allocator proof that the batch serving path is
//! allocation-free after warm-up.
//!
//! A wrapping `#[global_allocator]` tallies every `alloc`/`realloc`/
//! `alloc_zeroed`; the test warms each estimator's output buffers once, then
//! asserts:
//!
//! - the batch helper `selectivity_batch_into` performs **zero** heap
//!   allocations per call — the whole point of a caller-provided buffer;
//! - the serving engine over a kernel column — `estimate_batch_into` and
//!   the fallible `estimate_batch_with` under a live `Deadline` (built
//!   outside the counted call), each with a warm output vector, and
//!   `try_estimate` (a batch of one that needs no buffer) — performs
//!   **zero** heap allocations per call, on cache misses and on cache
//!   hits.
//!
//! Everything runs inside a single `#[test]` — the counter is
//! process-global, and cargo runs sibling tests on concurrent threads.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

use selest::par::Deadline;
use selest::store::{CacheStats, EstimatorKind, OverloadOptions, ServeRung, ServingColumn};
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

    for (name, est) in &estimators {
        let est = est.as_ref();
        let reference: Vec<f64> = queries.iter().map(|q| est.selectivity(q)).collect();

        // The batch helper: zero allocations, bit-identical answers.
        for round in 0..3 {
            let (n, ()) = allocs_during(|| {
                est.selectivity_batch_into(&queries, &mut scratch, &mut out);
            });
            assert_eq!(
                n, 0,
                "{name}: selectivity_batch_into allocated {n} times on round {round}"
            );
        }
        for (i, (&got, want)) in out.iter().zip(&reference).enumerate() {
            assert_eq!(
                got.to_bits(),
                want.to_bits(),
                "{name}: batch answer drifted at query {i}"
            );
        }
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
    let (batch_cold, rest) = rest.split_at(40);
    let (batch_deadline, singles) = rest.split_at(40);
    let deadline = Deadline::never();
    let mut serving = ServingScratch::new();
    let mut served = Vec::new();
    let mut served_with = Vec::new();
    // Warm-up: the thread-local snapshot entry and the output vectors of
    // a 50-query batch.
    engine.estimate_batch_into("t", "k", batch_warm, &mut serving, &mut served);
    engine.estimate_batch_with(
        "t",
        "k",
        batch_warm,
        Some(&deadline),
        &mut serving,
        &mut served_with,
    );
    engine.try_estimate("t", "k", &singles[0]).expect("served");
    // Whether the call since `before` missed (first pass) or hit (second).
    let counted = |before: CacheStats, expect_misses: bool| {
        let after = engine.cache().stats();
        if expect_misses {
            after.misses > before.misses
        } else {
            after.hits > before.hits
        }
    };
    for (pass, expect_misses) in [("miss", true), ("hit", false)] {
        let before = engine.cache().stats();
        let (n, ()) = allocs_during(|| {
            engine.estimate_batch_into("t", "k", batch_cold, &mut serving, &mut served);
        });
        assert_eq!(n, 0, "engine batch ({pass} pass) allocated {n} times");
        assert!(served.iter().all(|s| s.is_ok()));
        assert!(counted(before, expect_misses), "engine batch: {pass} pass");
        // The fallible batch under a live deadline: the pass polls it
        // and still allocates nothing.
        let before = engine.cache().stats();
        let (n, ()) = allocs_during(|| {
            engine.estimate_batch_with(
                "t",
                "k",
                batch_deadline,
                Some(&deadline),
                &mut serving,
                &mut served_with,
            );
        });
        assert_eq!(
            n, 0,
            "engine batch under a deadline ({pass} pass) allocated {n} times"
        );
        assert!(served_with
            .iter()
            .all(|s| s.as_ref().is_ok_and(|s| s.rung == ServeRung::Full)));
        assert!(
            counted(before, expect_misses),
            "engine batch under a deadline: {pass} pass"
        );
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
