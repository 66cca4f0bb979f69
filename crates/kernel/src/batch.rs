//! Batched kernel selectivity: the sorted-query merge scan.
//!
//! Answering one range query against the sorted sample costs four
//! `partition_point` binary searches (the boundary-strip indices of
//! [`KernelEstimator`]'s `raw_mass`) before any kernel CDF is evaluated.
//! Answering a whole query file that way restarts every search from the
//! middle of the sample, a thousand times over. This module amortizes the
//! searches across the batch:
//!
//! 1. every query's plan is lowered to *cut requests* — `(value, bound)`
//!    pairs asking for `partition_point(|x| x < v)` (lower) or
//!    `partition_point(|x| x <= v)` (upper) against the sorted sample;
//! 2. the cut requests are sorted by `(value, lower-before-upper)`; in
//!    that order the answer indices are non-decreasing, so
//! 3. a single forward pass over the sorted sample resolves all of them
//!    with galloping (exponential) probes from the previous answer —
//!    duplicate requests (repeated queries in a batch) are answered once
//!    and copied.
//!
//! Only the *index resolution* is restructured. Each term is then
//! evaluated by the same code as the per-query path — the prefix-moment
//! table of [`crate::moments`] for the Epanechnikov kernel, the canonical
//! lane-width-independent strip arithmetic of [`crate::strips`] for the
//! others — so the batch result is **bit-identical** to calling
//! [`SelectivityEstimator::selectivity`] in a loop, an invariant the
//! harness and the golden tests rely on, and which makes parallel chunked
//! evaluation deterministic.
//!
//! All working storage (plans, packed cut keys, resolved indices) lives in
//! a [`KernelScratch`] inside the caller's [`BatchScratch`]; once warm, the
//! `_into` entry points perform zero heap allocations per call.

use std::cell::RefCell;

use selest_core::{BatchScratch, EstimateError, RangeQuery, SelectivityEstimator};
use selest_par::Deadline;
use selest_simd::{configured_lanes, LaneMode};

use crate::boundary::BoundaryPolicy;
use crate::estimator::KernelEstimator;
use crate::strips::{raw_term_sum, with_lane_kernel, LaneKernel};

/// One `partition_point` request against the sorted sample, packed into a
/// single sortable integer: bits 33.. hold the order-preserving image of
/// the cut value (sign-flip map, so integer order equals numeric order),
/// bit 32 the bound flavour (`0` = lower, `partition_point(|x| x < v)`;
/// `1` = upper, `|x| x <= v`), bits 0..32 the request index. Sorting the
/// requests is then a branchless integer sort, and neither the value nor
/// the flavour needs a side lookup during the scan — both unpack from the
/// key itself. Requests sharing bits 32.. are the *same* lookup, which the
/// resolver answers once.
type CutKey = u128;

fn pack_cut(v: f64, upper: bool, index: usize) -> CutKey {
    debug_assert!(v.is_finite(), "cut values are finite");
    debug_assert!(index <= u32::MAX as usize);
    let bits = v.to_bits();
    let ord = if bits >> 63 == 1 {
        !bits
    } else {
        bits | (1 << 63)
    };
    ((ord as u128) << 33) | ((upper as u128) << 32) | index as u128
}

/// Exact inverse of `pack_cut`'s value map.
fn unpack_cut(key: CutKey) -> (f64, bool, usize) {
    let ord = (key >> 33) as u64;
    let bits = if ord >> 63 == 1 {
        ord & !(1 << 63)
    } else {
        !ord
    };
    (
        f64::from_bits(bits),
        (key >> 32) & 1 == 1,
        (key & u128::from(u32::MAX)) as usize,
    )
}

/// One raw-mass term of a query plan: the clipped integration bounds plus
/// where its resolved cut indices start. Moment-table terms and `wide`
/// strip terms (query at least two kernel reaches long) own four cuts,
/// narrow strip terms two.
#[derive(Clone, Copy, Debug)]
struct RawTerm {
    a: f64,
    b: f64,
    wide: bool,
    cut0: usize,
}

/// Per-query execution plan.
#[derive(Clone, Copy, Debug)]
struct QueryPlan {
    /// Query entirely outside the domain: answer 0 without touching data.
    zero: bool,
    /// Raw-mass terms, as a range into the flat term array.
    term_lo: usize,
    term_hi: usize,
    /// Boundary-kernel strip pieces `(v0, v1)` in unit coordinates, when
    /// the query overlaps the left / right boundary strip.
    bk_left: Option<(f64, f64)>,
    bk_right: Option<(f64, f64)>,
}

/// The merge scan's reusable working set, parked inside the caller's
/// [`BatchScratch`] between calls. Every buffer is cleared (not shrunk) at
/// the start of a scan, so a warm scratch makes the whole batch path
/// allocation-free.
#[derive(Default)]
pub(crate) struct KernelScratch {
    plans: Vec<QueryPlan>,
    terms: Vec<RawTerm>,
    cuts: Vec<CutKey>,
    resolved: Vec<u32>,
    /// `try_*` only: the validated subset of the input queries.
    valid: Vec<RangeQuery>,
    /// `try_*` only: scan results for the valid subset.
    vals: Vec<f64>,
}

thread_local! {
    /// Per-thread scratch backing the `Vec`-returning convenience APIs, so
    /// even callers that never thread a [`BatchScratch`] reuse buffers
    /// across calls (one output-vector allocation remains, by signature).
    static THREAD_SCRATCH: RefCell<BatchScratch> = const { RefCell::new(BatchScratch::new()) };
}

/// Run `f` with this thread's shared scratch (fresh scratch under
/// re-entrancy, which none of our callers exercise — belt and braces).
pub(crate) fn with_thread_scratch<R>(f: impl FnOnce(&mut BatchScratch) -> R) -> R {
    THREAD_SCRATCH.with(|s| match s.try_borrow_mut() {
        Ok(mut guard) => f(&mut guard),
        Err(_) => f(&mut BatchScratch::new()),
    })
}

/// First index `i >= start` where `pred(i)` fails over the virtual index
/// domain `[0, n)`, for a predicate that is monotonically true-then-false
/// — i.e. a `partition_point` under the promise that the answer is at
/// least `start`. Gallops: exponential probes from `start`, then a binary
/// search inside the bracketing window, so a batch of non-decreasing
/// lookups costs amortized O(1 + log gap) each instead of O(log n).
///
/// Overflow-safe by construction: probe positions go through
/// `checked_add` (falling back to binary search on the remaining range)
/// and the doubling saturates instead of wrapping — `step <<= 1` would
/// silently become 0 past `2^63` and spin forever. Indices near
/// `usize::MAX` are unreachable through real slices, but the index-domain
/// formulation keeps the boundary testable (see the regression test).
fn forward_partition_indexed(n: usize, start: usize, pred: impl Fn(usize) -> bool) -> usize {
    debug_assert!(start <= n);
    if start == n || !pred(start) {
        return start;
    }
    // Invariant: pred holds at `lo`; the answer lies in (lo, n].
    let mut lo = start;
    let mut step = 1usize;
    loop {
        let probe = match lo.checked_add(step) {
            Some(p) if p < n => p,
            _ => return index_partition(lo + 1, n, &pred),
        };
        if pred(probe) {
            lo = probe;
            step = step.saturating_mul(2);
        } else {
            return index_partition(lo + 1, probe, &pred);
        }
    }
}

/// `partition_point` over the index range `[lo, hi)`.
fn index_partition(mut lo: usize, mut hi: usize, pred: &impl Fn(usize) -> bool) -> usize {
    while lo < hi {
        let mid = lo + (hi - lo) / 2;
        if pred(mid) {
            lo = mid + 1;
        } else {
            hi = mid;
        }
    }
    lo
}

/// Slice front-end of [`forward_partition_indexed`].
fn forward_partition(sorted: &[f64], start: usize, pred: impl Fn(f64) -> bool) -> usize {
    forward_partition_indexed(sorted.len(), start, |i| pred(sorted[i]))
}

/// Resolve every cut with one forward merge scan over the sorted sample.
/// Sorts `cuts` in place; results land in request order (`resolved[i]`
/// answers the request packed with index `i`). Consecutive keys sharing
/// value and flavour (bits 32..) — repeated queries in a batch — reuse the
/// previous answer instead of re-probing.
fn resolve_cuts(sorted: &[f64], cuts: &mut [CutKey], resolved: &mut Vec<u32>) {
    cuts.sort_unstable();
    // For v1 <= v2: lower(v1) <= upper(v1) <= lower(v2) <= upper(v2), so
    // visiting cuts in (value, lower-first) order keeps the answers
    // non-decreasing and one scan position suffices.
    resolved.clear();
    resolved.resize(cuts.len(), 0);
    let mut pos = 0usize;
    let mut prev_lookup: Option<u128> = None;
    for &key in cuts.iter() {
        let lookup = key >> 32;
        if prev_lookup != Some(lookup) {
            let (v, upper, _) = unpack_cut(key);
            pos = if upper {
                forward_partition(sorted, pos, |x| x <= v)
            } else {
                forward_partition(sorted, pos, |x| x < v)
            };
            prev_lookup = Some(lookup);
        }
        resolved[(key & u128::from(u32::MAX)) as usize] = pos as u32;
    }
}

/// Push the cut requests of one raw-mass term, mirroring the boundary
/// values `raw_mass` computes, and return the term.
fn plan_raw_term(est: &KernelEstimator, a: f64, b: f64, cuts: &mut Vec<CutKey>) -> RawTerm {
    let cut0 = cuts.len();
    if est.moments().is_some() {
        // F(b) - F(a): `<= c - h` counts the full ones, `< c + h` ends
        // the strip of endpoint c.
        let h = est.bandwidth();
        cuts.push(pack_cut(a - h, true, cut0));
        cuts.push(pack_cut(a + h, false, cut0 + 1));
        cuts.push(pack_cut(b - h, true, cut0 + 2));
        cuts.push(pack_cut(b + h, false, cut0 + 3));
        return RawTerm {
            a,
            b,
            wide: true,
            cut0,
        };
    }
    let reach = est.kernel().support_radius() * est.bandwidth();
    let full_lo = a + reach;
    let full_hi = b - reach;
    let wide = full_hi >= full_lo;
    cuts.push(pack_cut(a - reach, false, cut0));
    if wide {
        cuts.push(pack_cut(full_lo, false, cut0 + 1));
        cuts.push(pack_cut(full_hi, true, cut0 + 2));
        cuts.push(pack_cut(b + reach, true, cut0 + 3));
    } else {
        cuts.push(pack_cut(b + reach, true, cut0 + 1));
    }
    RawTerm { a, b, wide, cut0 }
}

/// Evaluate one strip-scanned raw-mass term from its resolved indices:
/// the canonical un-normalized sum of [`crate::strips::raw_term_sum`] (the
/// per-query path's `s * n`), monomorphized per kernel through
/// [`LaneKernel`].
#[inline]
fn eval_raw_term<K: LaneKernel>(
    k: K,
    sorted: &[f64],
    inv_h: f64,
    mode: LaneMode,
    term: &RawTerm,
    idx: &[u32],
) -> f64 {
    if term.wide {
        raw_term_sum(
            k,
            sorted,
            term.a,
            term.b,
            inv_h,
            mode,
            true,
            idx[0] as usize,
            idx[1] as usize,
            idx[2] as usize,
            idx[3] as usize,
        )
    } else {
        raw_term_sum(
            k,
            sorted,
            term.a,
            term.b,
            inv_h,
            mode,
            false,
            idx[0] as usize,
            0,
            0,
            idx[1] as usize,
        )
    }
}

/// Batched selectivity evaluation: bit-identical to a per-query
/// [`SelectivityEstimator::selectivity`] loop, with all `partition_point`
/// boundary lookups amortized into one sorted merge scan. Convenience
/// wrapper over [`selectivity_batch_into`] using the thread's scratch; the
/// only allocation is the returned vector.
pub(crate) fn selectivity_batch(est: &KernelEstimator, queries: &[RangeQuery]) -> Vec<f64> {
    let mut out = vec![0.0; queries.len()];
    with_thread_scratch(|scratch| selectivity_batch_into(est, queries, scratch, &mut out));
    out
}

/// The allocation-free batch entry point: plans, cut keys, and resolved
/// indices live in `scratch`; answers land in `out` (one slot per query).
pub(crate) fn selectivity_batch_into(
    est: &KernelEstimator,
    queries: &[RangeQuery],
    scratch: &mut BatchScratch,
    out: &mut [f64],
) {
    debug_assert_eq!(queries.len(), out.len());
    let ks = scratch.get_or_default::<KernelScratch>();
    let KernelScratch {
        plans,
        terms,
        cuts,
        resolved,
        ..
    } = ks;
    // The infallible contract has no partial-result channel, so it runs
    // without a deadline even if the scratch carries one.
    run_scan(est, queries, plans, terms, cuts, resolved, None, out);
}

/// Fault-isolated batch into a reusable output vector: degenerate queries
/// are rejected up front, the valid subset runs through the same scan as
/// the infallible path (bit-identical `Ok` slots), and a whole-scan panic
/// degrades to per-query retries so the fault stays confined.
pub(crate) fn try_selectivity_batch_into(
    est: &KernelEstimator,
    queries: &[RangeQuery],
    scratch: &mut BatchScratch,
    out: &mut Vec<Result<f64, EstimateError>>,
) {
    out.clear();
    out.extend(queries.iter().map(|q| q.validate().map(|()| f64::NAN)));

    // Clone the armed request deadline (a cheap shared-flag handle) before
    // borrowing the typed scratch buffers mutably.
    let deadline = scratch.deadline().cloned();
    let ks = scratch.get_or_default::<KernelScratch>();
    let KernelScratch {
        plans,
        terms,
        cuts,
        resolved,
        valid,
        vals,
    } = ks;
    valid.clear();
    valid.extend(
        queries
            .iter()
            .zip(out.iter())
            .filter(|(_, slot)| slot.is_ok())
            .map(|(q, _)| *q),
    );
    vals.clear();
    vals.resize(valid.len(), 0.0);

    let scanned = selest_core::catch_fault(
        selest_core::FaultStage::Estimate,
        std::panic::AssertUnwindSafe(|| {
            run_scan(
                est,
                valid,
                plans,
                terms,
                cuts,
                resolved,
                deadline.as_ref(),
                vals,
            )
        }),
    );
    match scanned {
        // Partial results: the scan evaluated queries in input order and
        // stopped at a deadline checkpoint after `completed` of them. The
        // finished slots hold exactly the unhurried path's bits; the rest
        // report the expiry as a typed error.
        Ok(completed) => {
            let mut vals = vals.iter();
            for (done, slot) in out.iter_mut().filter(|slot| slot.is_ok()).enumerate() {
                let v = *vals.next().expect("merge scan fills one value per query");
                *slot = if done < completed {
                    if v.is_finite() {
                        Ok(v)
                    } else {
                        Err(EstimateError::NonFiniteEstimate { value: v })
                    }
                } else {
                    deadline
                        .as_ref()
                        .map(|d| Err(EstimateError::deadline_exceeded(d)))
                        .expect("a short scan only happens under a deadline")
                };
            }
        }
        // Whole-scan panic: retry query-by-query so the fault stays
        // confined to the evaluations that actually trip it.
        Err(_) => {
            out.clear();
            out.extend(queries.iter().map(|q| {
                q.validate()?;
                if let Some(d) = deadline.as_ref().filter(|d| d.expired()) {
                    return Err(EstimateError::deadline_exceeded(d));
                }
                let v = selest_core::catch_fault(
                    selest_core::FaultStage::Estimate,
                    std::panic::AssertUnwindSafe(|| est.selectivity(q)),
                )?;
                if v.is_finite() {
                    Ok(v)
                } else {
                    Err(EstimateError::NonFiniteEstimate { value: v })
                }
            }));
        }
    }
}

/// How many phase-3 evaluations run between deadline polls. Small enough
/// that an expired budget is noticed within a few microseconds of work,
/// large enough that the atomic load never shows up in profiles.
const DEADLINE_STRIDE: usize = 16;

/// The three scan phases over caller-provided buffers. Returns how many
/// queries were evaluated (in input order): `queries.len()` normally, less
/// when the optional `deadline` expired at a cooperative checkpoint —
/// before planning, after cut resolution, or every [`DEADLINE_STRIDE`]
/// evaluations. Slots past the returned count are untouched garbage; the
/// evaluated prefix is bit-identical to an unhurried scan.
#[allow(clippy::too_many_arguments)]
fn run_scan(
    est: &KernelEstimator,
    queries: &[RangeQuery],
    plans: &mut Vec<QueryPlan>,
    terms: &mut Vec<RawTerm>,
    cuts: &mut Vec<CutKey>,
    resolved: &mut Vec<u32>,
    deadline: Option<&Deadline>,
    out: &mut [f64],
) -> usize {
    // Checkpoint: refuse to plan at all on an already-spent budget.
    if deadline.is_some_and(|d| d.expired()) {
        return 0;
    }
    let domain = est.domain();
    let (l, r) = (domain.lo(), domain.hi());
    let h = est.bandwidth();
    let reach = est.kernel().support_radius() * h;
    let boundary = est.boundary_policy();

    // Phase 1: lower every query to a plan, gathering all cut requests.
    plans.clear();
    terms.clear();
    cuts.clear();
    for q in queries {
        let a = q.a().max(l);
        let b = q.b().min(r);
        let mut plan = QueryPlan {
            zero: b < a,
            term_lo: terms.len(),
            term_hi: terms.len(),
            bk_left: None,
            bk_right: None,
        };
        if !plan.zero {
            match boundary {
                BoundaryPolicy::NoTreatment => {
                    terms.push(plan_raw_term(est, a, b, cuts));
                }
                BoundaryPolicy::Reflection => {
                    terms.push(plan_raw_term(est, a, b, cuts));
                    if a < l + reach {
                        terms.push(plan_raw_term(est, 2.0 * l - b, 2.0 * l - a, cuts));
                    }
                    if b > r - reach {
                        terms.push(plan_raw_term(est, 2.0 * r - b, 2.0 * r - a, cuts));
                    }
                }
                BoundaryPolicy::BoundaryKernel => {
                    // Interior piece, exactly as boundary_kernel_mass
                    // clips it.
                    let x1 = a.max(l + h);
                    let x2 = b.min(r - h);
                    if x2 > x1 {
                        terms.push(plan_raw_term(est, x1, x2, cuts));
                    }
                    let la = a.max(l);
                    let lb = b.min(l + h);
                    if lb > la {
                        plan.bk_left = Some(((la - l) / h, (lb - l) / h));
                    }
                    let ra = a.max(r - h);
                    let rb = b.min(r);
                    if rb > ra {
                        plan.bk_right = Some(((r - rb) / h, (r - ra) / h));
                    }
                }
            }
            plan.term_hi = terms.len();
        }
        plans.push(plan);
    }

    // Phase 2: one merge scan answers every boundary lookup.
    resolve_cuts(est.samples(), cuts, resolved);

    // Checkpoint: planning and cut resolution are the cheap phases; if the
    // budget ran out during them, skip the evaluations entirely.
    if deadline.is_some_and(|d| d.expired()) {
        return 0;
    }

    // Phase 3: evaluate each query in input order with the per-query
    // path's arithmetic. Epanechnikov terms read the moment table; the
    // other kernels dispatch once per batch to a monomorphized strip loop
    // (through `LaneKernel`), with the lane width resolved once.
    let ctx = Phase3 {
        est,
        plans,
        terms,
        resolved,
    };
    let sorted = est.samples();
    match est.moments() {
        Some(table) => ctx.run(
            |term, idx| {
                let cuts = [idx[0], idx[1], idx[2], idx[3]].map(|i| i as usize);
                table.raw_term(sorted, term.a, term.b, cuts)
            },
            deadline,
            out,
        ),
        None => {
            let inv_h = est.inv_bandwidth();
            let mode = configured_lanes();
            with_lane_kernel!(est.kernel(), k => ctx.run(
                |term, idx| eval_raw_term(k, sorted, inv_h, mode, term, idx),
                deadline,
                out,
            ))
        }
    }
}

/// Everything phase 3 needs, bundled so the per-kernel monomorphization
/// sites stay one-liners.
struct Phase3<'a> {
    est: &'a KernelEstimator,
    plans: &'a [QueryPlan],
    terms: &'a [RawTerm],
    resolved: &'a [u32],
}

impl Phase3<'_> {
    /// Evaluate the planned queries in input order, polling the optional
    /// deadline every [`DEADLINE_STRIDE`] slots; `eval` sums one raw term
    /// (un-normalized) from its resolved cuts. Returns the number of slots
    /// written (the whole batch unless the deadline expired).
    fn run(
        &self,
        eval: impl Fn(&RawTerm, &[u32]) -> f64,
        deadline: Option<&Deadline>,
        out: &mut [f64],
    ) -> usize {
        let est = self.est;
        let sorted = est.samples();
        let boundary = est.boundary_policy();
        let n = sorted.len() as f64;
        let term = |t: &RawTerm| eval(t, &self.resolved[t.cut0..]);
        for (i, (plan, slot)) in self.plans.iter().zip(out.iter_mut()).enumerate() {
            if i % DEADLINE_STRIDE == 0 && i > 0 && deadline.is_some_and(|d| d.expired()) {
                return i;
            }
            if plan.zero {
                *slot = 0.0;
                continue;
            }
            let value = match boundary {
                BoundaryPolicy::NoTreatment | BoundaryPolicy::Reflection => {
                    // selectivity() sums the raw_mass of the main query
                    // and any mirrored queries, each normalized on its
                    // own.
                    let mut s = 0.0;
                    for t in &self.terms[plan.term_lo..plan.term_hi] {
                        s += term(t) / n;
                    }
                    s
                }
                BoundaryPolicy::BoundaryKernel => {
                    // boundary_kernel_mass accumulates un-normalized,
                    // re-scaling the interior raw_mass by n (a round
                    // trip the per-query path performs too), then
                    // divides once.
                    let table = est
                        .moments()
                        .expect("boundary-kernel estimators are Epanechnikov");
                    let mut s = 0.0;
                    for t in &self.terms[plan.term_lo..plan.term_hi] {
                        s += (term(t) / n) * n;
                    }
                    if let Some((v0, v1)) = plan.bk_left {
                        s += table.boundary_strip(sorted, v0, v1, true);
                    }
                    if let Some((v0, v1)) = plan.bk_right {
                        s += table.boundary_strip(sorted, v0, v1, false);
                    }
                    s / n
                }
            };
            *slot = value.clamp(0.0, 1.0);
        }
        self.plans.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kernels::KernelFn;
    use selest_core::Domain;

    fn sample(n: usize) -> Vec<f64> {
        // Clustered + duplicated values to stress ties in the searches.
        (0..n)
            .map(|i| {
                let base = (i as f64 * 37.0) % 100.0;
                (base * 4.0).round() / 4.0
            })
            .collect()
    }

    fn queries() -> Vec<RangeQuery> {
        let mut qs = Vec::new();
        // Interior, boundary-flush, overhanging, degenerate-narrow, full.
        for i in 0..40 {
            let a = (i as f64 * 13.7) % 95.0;
            qs.push(RangeQuery::new(
                a,
                (a + 3.0 + (i % 7) as f64 * 5.0).min(100.0),
            ));
        }
        qs.push(RangeQuery::new(0.0, 4.0));
        qs.push(RangeQuery::new(96.0, 100.0));
        qs.push(RangeQuery::new(-50.0, 20.0));
        qs.push(RangeQuery::new(80.0, 150.0));
        qs.push(RangeQuery::new(-10.0, -5.0)); // fully outside -> 0
        qs.push(RangeQuery::new(50.0, 50.0)); // empty range
        qs.push(RangeQuery::new(49.9, 50.1)); // narrower than any reach
        qs.push(RangeQuery::new(0.0, 100.0)); // full domain
        qs
    }

    fn resolve_to_vec(sorted: &[f64], cuts: &mut [CutKey]) -> Vec<u32> {
        let mut resolved = Vec::new();
        resolve_cuts(sorted, cuts, &mut resolved);
        resolved
    }

    #[test]
    fn forward_partition_matches_partition_point() {
        let s = {
            let mut s = sample(257);
            s.sort_by(|a, b| a.partial_cmp(b).unwrap());
            s
        };
        for v in [-1.0, 0.0, 3.25, 50.0, 99.75, 100.0, 200.0] {
            for start in [0usize, 1, 50] {
                let expect = s.partition_point(|&x| x < v);
                if start <= expect {
                    assert_eq!(forward_partition(&s, start, |x| x < v), expect, "v={v}");
                }
                let expect = s.partition_point(|&x| x <= v);
                if start <= expect {
                    assert_eq!(forward_partition(&s, start, |x| x <= v), expect, "v={v}");
                }
            }
        }
    }

    /// The satellite regression: galloping must survive index domains at
    /// the `usize` boundary, where `lo + step` overflows and naive
    /// doubling (`step <<= 1`) would wrap to zero. Real slices can never
    /// be this long, so the index-domain formulation is exercised
    /// directly: the probe count stays logarithmic (the predicate counter
    /// proves termination long before any spin).
    #[test]
    fn forward_partition_survives_the_usize_boundary() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        for (n, answer, start) in [
            (usize::MAX, usize::MAX - 5, 0),
            (usize::MAX, usize::MAX - 5, 3),
            (usize::MAX, usize::MAX, 17), // pred true everywhere
            (usize::MAX - 1, usize::MAX / 2 + 12_345, 0),
            (usize::MAX, 2, 1),
        ] {
            let probes = AtomicUsize::new(0);
            let got = forward_partition_indexed(n, start, |i| {
                assert!(
                    probes.fetch_add(1, Ordering::Relaxed) < 1000,
                    "runaway gallop at n={n}, answer={answer}"
                );
                i < answer
            });
            assert_eq!(got, answer.max(start), "n={n}, start={start}");
        }
    }

    #[test]
    fn resolve_cuts_answers_every_request() {
        let s = {
            let mut s = sample(500);
            s.sort_by(|a, b| a.partial_cmp(b).unwrap());
            s
        };
        // Deliberately unsorted, duplicated cut values (negatives included
        // to exercise the sign-flip packing, duplicates the reuse path).
        let requests: Vec<(f64, bool)> = [37.0, 2.0, 99.9, 37.0, -0.5, 62.5, 37.0]
            .iter()
            .enumerate()
            .map(|(i, &v)| (v, i % 2 == 0))
            .collect();
        let mut cuts: Vec<CutKey> = requests
            .iter()
            .enumerate()
            .map(|(i, &(v, upper))| pack_cut(v, upper, i))
            .collect();
        let resolved = resolve_to_vec(&s, &mut cuts);
        for (&(v, upper), &got) in requests.iter().zip(&resolved) {
            let expect = if upper {
                s.partition_point(|&x| x <= v)
            } else {
                s.partition_point(|&x| x < v)
            };
            assert_eq!(got as usize, expect, "cut ({v}, upper={upper})");
        }
    }

    /// Duplicate lookups must be probed once and copied: the scan position
    /// may not move between identical requests, and mixed flavours at the
    /// same value stay distinct.
    #[test]
    fn resolve_cuts_deduplicates_identical_lookups() {
        let s = {
            let mut s = sample(500);
            s.sort_by(|a, b| a.partial_cmp(b).unwrap());
            s
        };
        let mut requests: Vec<(f64, bool)> = Vec::new();
        for _ in 0..300 {
            requests.push((42.0, false));
            requests.push((42.0, true));
        }
        let mut cuts: Vec<CutKey> = requests
            .iter()
            .enumerate()
            .map(|(i, &(v, upper))| pack_cut(v, upper, i))
            .collect();
        let resolved = resolve_to_vec(&s, &mut cuts);
        let lo = s.partition_point(|&x| x < 42.0) as u32;
        let hi = s.partition_point(|&x| x <= 42.0) as u32;
        assert!(lo < hi, "test wants ties at the cut value");
        for (i, &(_, upper)) in requests.iter().enumerate() {
            assert_eq!(resolved[i], if upper { hi } else { lo }, "request {i}");
        }
    }

    #[test]
    fn cut_packing_round_trips_and_orders() {
        let vals = [-1.5e6, -0.0, 0.0, 1e-300, 37.25, 1.5e6];
        for (i, &v) in vals.iter().enumerate() {
            for upper in [false, true] {
                let (v2, u2, i2) = unpack_cut(pack_cut(v, upper, i));
                assert_eq!(v2.to_bits(), v.to_bits());
                assert_eq!(u2, upper);
                assert_eq!(i2, i);
            }
        }
        // Integer order on keys == (numeric value, lower-before-upper).
        for &a in &vals {
            for &b in &vals {
                if a < b {
                    assert!(pack_cut(a, true, 0) < pack_cut(b, false, 0), "{a} vs {b}");
                }
            }
        }
        assert!(pack_cut(37.25, false, 9) < pack_cut(37.25, true, 0));
    }

    #[test]
    fn batch_is_bit_identical_to_per_query_for_every_policy_and_kernel() {
        let samples = sample(800);
        let domain = Domain::new(0.0, 100.0);
        let qs = queries();
        for kernel in [
            KernelFn::Epanechnikov,
            KernelFn::Gaussian,
            KernelFn::Biweight,
        ] {
            for policy in [
                BoundaryPolicy::NoTreatment,
                BoundaryPolicy::Reflection,
                BoundaryPolicy::BoundaryKernel,
            ] {
                if policy == BoundaryPolicy::BoundaryKernel && kernel != KernelFn::Epanechnikov {
                    continue;
                }
                for h in [0.6, 4.0, 17.0] {
                    let est = KernelEstimator::new(&samples, domain, kernel, h, policy);
                    let batch = est.selectivity_batch(&qs);
                    for (q, &s) in qs.iter().zip(&batch) {
                        let per_query = est.selectivity(q);
                        assert_eq!(
                            s.to_bits(),
                            per_query.to_bits(),
                            "{policy:?}/{}/h={h} on {q}: batch {s} vs per-query {per_query}",
                            kernel.name()
                        );
                    }
                }
            }
        }
    }

    /// A batch of 200 copies of one query answers identically to the
    /// singleton batch in every slot — the dedup satellite's end-to-end
    /// guarantee.
    #[test]
    fn repeated_query_batch_matches_singleton() {
        let est = KernelEstimator::new(
            &sample(800),
            Domain::new(0.0, 100.0),
            KernelFn::Epanechnikov,
            5.0,
            BoundaryPolicy::Reflection,
        );
        let q = RangeQuery::new(13.0, 29.5);
        let single = est.selectivity_batch(std::slice::from_ref(&q))[0];
        let copies = vec![q; 200];
        let batch = est.selectivity_batch(&copies);
        assert_eq!(batch.len(), 200);
        for (i, &v) in batch.iter().enumerate() {
            assert_eq!(v.to_bits(), single.to_bits(), "copy {i}");
        }
    }

    #[test]
    fn batch_of_empty_and_single_query_sets() {
        let est = KernelEstimator::new(
            &sample(100),
            Domain::new(0.0, 100.0),
            KernelFn::Epanechnikov,
            5.0,
            BoundaryPolicy::Reflection,
        );
        assert!(est.selectivity_batch(&[]).is_empty());
        let q = RangeQuery::new(10.0, 30.0);
        let one = est.selectivity_batch(std::slice::from_ref(&q));
        assert_eq!(one.len(), 1);
        assert_eq!(one[0].to_bits(), est.selectivity(&q).to_bits());
    }

    /// The `_into` entry points are the same engine: identical bits to the
    /// `Vec`-returning paths through a caller-owned scratch, which can hop
    /// between estimators without corrupting results.
    #[test]
    fn into_paths_match_vec_paths_through_shared_scratch() {
        let domain = Domain::new(0.0, 100.0);
        let qs = queries();
        let mut scratch = BatchScratch::new();
        let mut out = vec![0.0; qs.len()];
        for (kernel, policy, h) in [
            (KernelFn::Epanechnikov, BoundaryPolicy::BoundaryKernel, 4.0),
            (KernelFn::Gaussian, BoundaryPolicy::Reflection, 2.0),
            (KernelFn::Epanechnikov, BoundaryPolicy::NoTreatment, 9.0),
        ] {
            let est = KernelEstimator::new(&sample(600), domain, kernel, h, policy);
            let plain = est.selectivity_batch(&qs);
            est.selectivity_batch_into(&qs, &mut scratch, &mut out);
            for (i, (a, b)) in out.iter().zip(&plain).enumerate() {
                assert_eq!(a.to_bits(), b.to_bits(), "{kernel:?}/{policy:?} query {i}");
            }
            let mut tried = Vec::new();
            est.try_selectivity_batch_into(&qs, &mut scratch, &mut tried);
            for (i, (slot, want)) in tried.iter().zip(&plain).enumerate() {
                assert_eq!(
                    slot.as_ref().unwrap().to_bits(),
                    want.to_bits(),
                    "try query {i}"
                );
            }
        }
    }

    #[test]
    fn try_batch_ok_slots_are_bit_identical_to_infallible_scan() {
        let est = KernelEstimator::new(
            &sample(500),
            Domain::new(0.0, 100.0),
            KernelFn::Epanechnikov,
            5.0,
            BoundaryPolicy::Reflection,
        );
        let qs = queries();
        let plain = est.selectivity_batch(&qs);
        let tried = est.try_selectivity_batch(&qs);
        assert_eq!(tried.len(), qs.len());
        for (i, (got, want)) in tried.iter().zip(&plain).enumerate() {
            let got = got.as_ref().unwrap_or_else(|e| panic!("query {i}: {e}"));
            assert_eq!(got.to_bits(), want.to_bits(), "query {i}");
        }
    }

    #[test]
    fn try_batch_quarantines_degenerate_queries_without_disturbing_neighbours() {
        let est = KernelEstimator::new(
            &sample(500),
            Domain::new(0.0, 100.0),
            KernelFn::Epanechnikov,
            5.0,
            BoundaryPolicy::Reflection,
        );
        let good = queries();
        let mut mixed = good.clone();
        // Splice degenerate bounds between the valid ones.
        mixed.insert(0, RangeQuery::unchecked(f64::NAN, 10.0));
        mixed.insert(5, RangeQuery::unchecked(30.0, f64::INFINITY));
        mixed.push(RangeQuery::unchecked(9.0, 4.0));
        let plain = est.selectivity_batch(&good);
        let tried = est.try_selectivity_batch(&mixed);
        assert_eq!(tried.len(), mixed.len());
        let (mut ok, mut bad) = (Vec::new(), 0);
        for slot in &tried {
            match slot {
                Ok(v) => ok.push(*v),
                Err(selest_core::EstimateError::InvalidQuery { .. }) => bad += 1,
                Err(other) => panic!("unexpected error class: {other}"),
            }
        }
        assert_eq!(bad, 3);
        assert_eq!(ok.len(), good.len());
        for (i, (got, want)) in ok.iter().zip(&plain).enumerate() {
            assert_eq!(got.to_bits(), want.to_bits(), "surviving query {i}");
        }
    }

    /// A spent deadline in the scratch turns every valid slot into a typed
    /// `DeadlineExceeded` (validation errors keep their own class), and
    /// the infallible path ignores the deadline entirely.
    #[test]
    fn expired_deadline_yields_typed_refusals_not_garbage() {
        let est = KernelEstimator::new(
            &sample(500),
            Domain::new(0.0, 100.0),
            KernelFn::Epanechnikov,
            5.0,
            BoundaryPolicy::Reflection,
        );
        let mut qs = queries();
        qs.insert(3, RangeQuery::unchecked(9.0, 4.0));
        let mut scratch = BatchScratch::new();
        scratch.set_deadline(Deadline::already_expired());
        let mut tried = Vec::new();
        est.try_selectivity_batch_into(&qs, &mut scratch, &mut tried);
        assert_eq!(tried.len(), qs.len());
        for (i, slot) in tried.iter().enumerate() {
            match slot {
                Err(selest_core::EstimateError::DeadlineExceeded { .. }) => {}
                Err(selest_core::EstimateError::InvalidQuery { .. }) if i == 3 => {}
                other => panic!("slot {i}: expected a typed refusal, got {other:?}"),
            }
        }
        // The infallible contract has no partial-result channel: a stale
        // armed deadline must not bend its answers.
        let good: Vec<_> = qs
            .iter()
            .filter(|q| q.validate().is_ok())
            .copied()
            .collect();
        let mut good_out = vec![0.0; good.len()];
        est.selectivity_batch_into(&good, &mut scratch, &mut good_out);
        let plain = est.selectivity_batch(&good);
        for (got, want) in good_out.iter().zip(&plain) {
            assert_eq!(got.to_bits(), want.to_bits());
        }
    }

    /// An armed but unexpired deadline is free: the try path's `Ok` slots
    /// stay bit-identical to the undeadlined scan.
    #[test]
    fn unexpired_deadline_is_bit_transparent() {
        let est = KernelEstimator::new(
            &sample(500),
            Domain::new(0.0, 100.0),
            KernelFn::Epanechnikov,
            5.0,
            BoundaryPolicy::Reflection,
        );
        let qs = queries();
        let plain = est.selectivity_batch(&qs);
        let mut scratch = BatchScratch::new();
        scratch.set_deadline(Deadline::manual());
        let mut tried = Vec::new();
        est.try_selectivity_batch_into(&qs, &mut scratch, &mut tried);
        for (i, (slot, want)) in tried.iter().zip(&plain).enumerate() {
            assert_eq!(
                slot.as_ref().unwrap().to_bits(),
                want.to_bits(),
                "query {i}"
            );
        }
    }
}
