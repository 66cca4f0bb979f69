//! The canonical strip arithmetic shared by every strip-scanning kernel
//! evaluation path.
//!
//! The Epanechnikov kernel sums its strips from a prefix-moment table
//! ([`crate::moments`]) and never reaches this module. For every other
//! kernel, both the per-query estimator ([`crate::estimator`]) and the
//! batched merge scan ([`crate::batch`]) reduce to the same inner job:
//! given a boundary strip of the sorted sample, accumulate
//!
//! ```text
//! sum_i  CDF((b - X_i) * inv_h) - CDF((a - X_i) * inv_h)
//! ```
//!
//! This module owns that arithmetic — *one* definition, used verbatim by
//! both paths, so "batch is bit-identical to per-query" holds by
//! construction rather than by parallel maintenance of two loops.
//!
//! # The determinism contract
//!
//! Results must be bit-identical across `SELEST_LANES` ∈ {scalar, 4, 8}
//! *and* across per-query vs batch evaluation. The reduction therefore has
//! a fixed canonical shape independent of how it is executed:
//!
//! * a strip keeps **eight running partial sums** `acc[0..8]`; the strip is
//!   walked in blocks of 8 and each block's per-element terms land in their
//!   lane slot (`acc[j] += e[j]`) — no cross-lane interaction per block, so
//!   there is nothing for a wider execution to reassociate;
//! * at strip end the eight partials collapse once through the fixed tree
//!   `((a0+a1)+(a2+a3)) + ((a4+a5)+(a6+a7))` and the single strip total
//!   feeds the term-level Neumaier accumulator ([`selest_simd::KahanSum`]);
//! * the trailing `len % 8` elements are added to that same accumulator
//!   one at a time.
//!
//! The scalar path computes this shape literally (an `[f64; 8]` of running
//! sums); the 4-lane path keeps two [`F64x4`] accumulators covering lanes
//! 0–3 and 4–7 (`lo.hsum_tree() + hi.hsum_tree()` is the same tree); the
//! 8-lane path keeps one [`F64x8`]. Since IEEE lane ops are bit-identical
//! to the scalar ops per element, and the per-element CDF forms below are
//! proven equal to `KernelFn::cdf` for every input (tests at the bottom
//! sweep them), all three execute the *same* abstract reduction —
//! reassociation never happens, it is designed out. Keeping the reduction
//! out of the block loop matters for speed, not just style: a per-block
//! horizontal sum plus compensated update is a long serial dependency
//! chain that throttles the vector units; one lane-wise `add` per block is
//! a single 4-cycle dependency per 8 elements.
//!
//! The compensated accumulator sits exactly where the pre-SIMD scalar code
//! kept correctness margins: `raw_mass` summed strips with plain `+=`, so
//! compensating the per-term combination (full-mass count + strip totals +
//! tail elements) strictly improves on the old error story while the
//! in-strip partials stay plain adds in both old and new arithmetic.
//!
//! Division is hoisted: the estimator caches `inv_h = 1/h` once and every
//! path multiplies. This redefines the canonical arithmetic (PR 7) — the
//! ~1 ulp drift versus the PR 5 division forms is accepted by the bench
//! checksum gate; what must stay exact is agreement *between* paths, which
//! sharing this module guarantees.

use selest_simd::{has_avx2, F64x4, F64x8, KahanSum, LaneMode};

#[cfg(target_arch = "x86_64")]
use core::arch::x86_64::{
    __m256d, _mm256_add_pd, _mm256_blendv_pd, _mm256_cmp_pd, _mm256_div_pd, _mm256_loadu_pd,
    _mm256_mul_pd, _mm256_set1_pd, _mm256_setzero_pd, _mm256_storeu_pd, _mm256_sub_pd, _CMP_GE_OQ,
    _CMP_LE_OQ, _CMP_LT_OQ,
};

use crate::kernels::KernelFn;

/// A kernel whose CDF can be evaluated per lane. `cdf1` must be
/// bit-identical to `KernelFn::cdf` of the corresponding kernel, and the
/// lane forms bit-identical to `cdf1` per lane.
pub(crate) trait LaneKernel: Copy {
    fn cdf1(self, t: f64) -> f64;

    /// Default: per-lane scalar calls (used by the transcendental kernels
    /// where a branchless polynomial form does not exist).
    #[inline(always)]
    fn cdf4(self, t: F64x4) -> F64x4 {
        F64x4(t.0.map(|v| self.cdf1(v)))
    }

    #[inline(always)]
    fn cdf8(self, t: F64x8) -> F64x8 {
        F64x8(t.0.map(|v| self.cdf1(v)))
    }

    /// AVX-native 4-lane CDF, the hot-path twin of [`cdf4`](Self::cdf4).
    /// The auto-vectorizer cannot be trusted to turn the portable array
    /// forms into 256-bit code (it settles for 128-bit shuffle soup), so
    /// the polynomial kernels override this with explicit intrinsics.
    /// Default: scalar round trip, for the transcendental kernels.
    ///
    /// # Safety
    /// Caller must have verified AVX2 support (the callee is only reached
    /// through [`add_strip`]'s `has_avx2` gate and is inlined into a
    /// `#[target_feature(enable = "avx2")]` frame).
    #[cfg(target_arch = "x86_64")]
    #[inline(always)]
    unsafe fn cdf_pd(self, t: __m256d) -> __m256d {
        let mut a = [0.0f64; 4];
        _mm256_storeu_pd(a.as_mut_ptr(), t);
        for v in &mut a {
            *v = self.cdf1(*v);
        }
        _mm256_loadu_pd(a.as_ptr())
    }
}

/// Dispatch a `KernelFn` to its zero-sized [`LaneKernel`], monomorphizing
/// `$body` per kernel so strip loops compile with direct calls and real
/// lane code instead of an enum match per sample. Epanechnikov estimators
/// sum their strips from the moment table and never dispatch here.
macro_rules! with_lane_kernel {
    ($kernel:expr, $k:ident => $body:expr) => {
        match $kernel {
            $crate::kernels::KernelFn::Epanechnikov => {
                unreachable!("Epanechnikov strips are summed from the moment table")
            }
            $crate::kernels::KernelFn::Uniform => {
                let $k = $crate::strips::UniformLanes;
                $body
            }
            $crate::kernels::KernelFn::Triangular => {
                let $k = $crate::strips::TriangularLanes;
                $body
            }
            $crate::kernels::KernelFn::Biweight => {
                let $k = $crate::strips::BiweightLanes;
                $body
            }
            $crate::kernels::KernelFn::Triweight => {
                let $k = $crate::strips::TriweightLanes;
                $body
            }
            $crate::kernels::KernelFn::Cosine => {
                let $k = $crate::strips::CosineLanes;
                $body
            }
            $crate::kernels::KernelFn::Gaussian => {
                let $k = $crate::strips::GaussianLanes;
                $body
            }
        }
    };
}
pub(crate) use with_lane_kernel;

/// Intrinsic twin of the `select_guards_*` macros: saturate the polynomial
/// `p` to `0` where `t <= -1` and to `1` where `t >= 1`. Ordered-quiet
/// compare predicates match the scalar `<=` / `>=` exactly (NaN → false),
/// and `vblendvpd` keys on the sign bit of the all-ones compare mask, so
/// each lane equals the scalar guard ladder bit-for-bit.
///
/// # Safety
/// Requires AVX; only called from AVX2-enabled frames.
#[cfg(target_arch = "x86_64")]
#[inline(always)]
unsafe fn guards_pd(t: __m256d, p: __m256d) -> __m256d {
    let le = _mm256_cmp_pd::<_CMP_LE_OQ>(t, _mm256_set1_pd(-1.0));
    let r = _mm256_blendv_pd(p, _mm256_setzero_pd(), le);
    let ge = _mm256_cmp_pd::<_CMP_GE_OQ>(t, _mm256_set1_pd(1.0));
    _mm256_blendv_pd(r, _mm256_set1_pd(1.0), ge)
}

macro_rules! select_guards_4 {
    ($t:ident, $p:ident) => {{
        let r = F64x4::select($t.le(F64x4::splat(-1.0)), F64x4::splat(0.0), $p);
        F64x4::select($t.ge(F64x4::splat(1.0)), F64x4::splat(1.0), r)
    }};
}

macro_rules! select_guards_8 {
    ($t:ident, $p:ident) => {{
        let r = F64x8::select($t.le(F64x8::splat(-1.0)), F64x8::splat(0.0), $p);
        F64x8::select($t.ge(F64x8::splat(1.0)), F64x8::splat(1.0), r)
    }};
}

/// Box kernel: scalar is `((t + 1) * 0.5).clamp(0, 1)`; the lane form
/// blends the same way `f64::clamp` orders its comparisons (`< min` first,
/// then `> max`), which also reproduces clamp's `-0.0` pass-through.
#[derive(Clone, Copy)]
pub(crate) struct UniformLanes;

impl LaneKernel for UniformLanes {
    #[inline(always)]
    fn cdf1(self, t: f64) -> f64 {
        KernelFn::Uniform.cdf(t)
    }

    #[inline(always)]
    fn cdf4(self, t: F64x4) -> F64x4 {
        let u = (t + F64x4::splat(1.0)) * F64x4::splat(0.5);
        let r = F64x4::select(u.lt(F64x4::splat(0.0)), F64x4::splat(0.0), u);
        F64x4::select(F64x4::splat(1.0).lt(r), F64x4::splat(1.0), r)
    }

    #[inline(always)]
    fn cdf8(self, t: F64x8) -> F64x8 {
        let u = (t + F64x8::splat(1.0)) * F64x8::splat(0.5);
        let r = F64x8::select(u.lt(F64x8::splat(0.0)), F64x8::splat(0.0), u);
        F64x8::select(F64x8::splat(1.0).lt(r), F64x8::splat(1.0), r)
    }

    #[cfg(target_arch = "x86_64")]
    #[inline(always)]
    unsafe fn cdf_pd(self, t: __m256d) -> __m256d {
        let u = _mm256_mul_pd(_mm256_add_pd(t, _mm256_set1_pd(1.0)), _mm256_set1_pd(0.5));
        let below = _mm256_cmp_pd::<_CMP_LT_OQ>(u, _mm256_setzero_pd());
        let r = _mm256_blendv_pd(u, _mm256_setzero_pd(), below);
        let above = _mm256_cmp_pd::<_CMP_LT_OQ>(_mm256_set1_pd(1.0), r);
        _mm256_blendv_pd(r, _mm256_set1_pd(1.0), above)
    }
}

/// Triangular kernel: both parabola arms are evaluated and blended on
/// `t < 0`, then the plateaus; at `t = 0` the blend takes the right arm
/// exactly like the scalar `else` branch.
#[derive(Clone, Copy)]
pub(crate) struct TriangularLanes;

impl LaneKernel for TriangularLanes {
    #[inline(always)]
    fn cdf1(self, t: f64) -> f64 {
        KernelFn::Triangular.cdf(t)
    }

    #[inline(always)]
    fn cdf4(self, t: F64x4) -> F64x4 {
        let up = F64x4::splat(1.0) + t;
        let left = F64x4::splat(0.5) * up * up;
        let um = F64x4::splat(1.0) - t;
        let right = F64x4::splat(1.0) - F64x4::splat(0.5) * um * um;
        let p = F64x4::select(t.lt(F64x4::splat(0.0)), left, right);
        select_guards_4!(t, p)
    }

    #[inline(always)]
    fn cdf8(self, t: F64x8) -> F64x8 {
        let up = F64x8::splat(1.0) + t;
        let left = F64x8::splat(0.5) * up * up;
        let um = F64x8::splat(1.0) - t;
        let right = F64x8::splat(1.0) - F64x8::splat(0.5) * um * um;
        let p = F64x8::select(t.lt(F64x8::splat(0.0)), left, right);
        select_guards_8!(t, p)
    }

    #[cfg(target_arch = "x86_64")]
    #[inline(always)]
    unsafe fn cdf_pd(self, t: __m256d) -> __m256d {
        let one = _mm256_set1_pd(1.0);
        let half = _mm256_set1_pd(0.5);
        let up = _mm256_add_pd(one, t);
        let left = _mm256_mul_pd(_mm256_mul_pd(half, up), up);
        let um = _mm256_sub_pd(one, t);
        let right = _mm256_sub_pd(one, _mm256_mul_pd(_mm256_mul_pd(half, um), um));
        let neg = _mm256_cmp_pd::<_CMP_LT_OQ>(t, _mm256_setzero_pd());
        let p = _mm256_blendv_pd(right, left, neg);
        guards_pd(t, p)
    }
}

/// Quartic kernel; the scalar arm in `kernels.rs` spells the powers as the
/// same explicit multiplication chain (`t3 = (t*t)*t`, `t5 = t3*(t*t)`),
/// so lane and scalar agree bit-for-bit.
#[derive(Clone, Copy)]
pub(crate) struct BiweightLanes;

impl LaneKernel for BiweightLanes {
    #[inline(always)]
    fn cdf1(self, t: f64) -> f64 {
        KernelFn::Biweight.cdf(t)
    }

    #[inline(always)]
    fn cdf4(self, t: F64x4) -> F64x4 {
        let t2 = t * t;
        let t3 = t2 * t;
        let t5 = t3 * t2;
        let p = F64x4::splat(0.5)
            + F64x4::splat(0.9375)
                * (t - F64x4::splat(2.0) * t3 / F64x4::splat(3.0) + t5 / F64x4::splat(5.0));
        select_guards_4!(t, p)
    }

    #[inline(always)]
    fn cdf8(self, t: F64x8) -> F64x8 {
        let t2 = t * t;
        let t3 = t2 * t;
        let t5 = t3 * t2;
        let p = F64x8::splat(0.5)
            + F64x8::splat(0.9375)
                * (t - F64x8::splat(2.0) * t3 / F64x8::splat(3.0) + t5 / F64x8::splat(5.0));
        select_guards_8!(t, p)
    }

    #[cfg(target_arch = "x86_64")]
    #[inline(always)]
    unsafe fn cdf_pd(self, t: __m256d) -> __m256d {
        let t2 = _mm256_mul_pd(t, t);
        let t3 = _mm256_mul_pd(t2, t);
        let t5 = _mm256_mul_pd(t3, t2);
        let q = _mm256_add_pd(
            _mm256_sub_pd(
                t,
                _mm256_div_pd(_mm256_mul_pd(_mm256_set1_pd(2.0), t3), _mm256_set1_pd(3.0)),
            ),
            _mm256_div_pd(t5, _mm256_set1_pd(5.0)),
        );
        let p = _mm256_add_pd(
            _mm256_set1_pd(0.5),
            _mm256_mul_pd(_mm256_set1_pd(0.9375), q),
        );
        guards_pd(t, p)
    }
}

/// Tricube-family kernel, same explicit power chain as the scalar arm.
#[derive(Clone, Copy)]
pub(crate) struct TriweightLanes;

impl LaneKernel for TriweightLanes {
    #[inline(always)]
    fn cdf1(self, t: f64) -> f64 {
        KernelFn::Triweight.cdf(t)
    }

    #[inline(always)]
    fn cdf4(self, t: F64x4) -> F64x4 {
        let t2 = t * t;
        let t3 = t2 * t;
        let t5 = t3 * t2;
        let t7 = t5 * t2;
        let p = F64x4::splat(0.5)
            + F64x4::splat(1.09375) * (t - t3 + F64x4::splat(0.6) * t5 - t7 / F64x4::splat(7.0));
        select_guards_4!(t, p)
    }

    #[inline(always)]
    fn cdf8(self, t: F64x8) -> F64x8 {
        let t2 = t * t;
        let t3 = t2 * t;
        let t5 = t3 * t2;
        let t7 = t5 * t2;
        let p = F64x8::splat(0.5)
            + F64x8::splat(1.09375) * (t - t3 + F64x8::splat(0.6) * t5 - t7 / F64x8::splat(7.0));
        select_guards_8!(t, p)
    }

    #[cfg(target_arch = "x86_64")]
    #[inline(always)]
    unsafe fn cdf_pd(self, t: __m256d) -> __m256d {
        let t2 = _mm256_mul_pd(t, t);
        let t3 = _mm256_mul_pd(t2, t);
        let t5 = _mm256_mul_pd(t3, t2);
        let t7 = _mm256_mul_pd(t5, t2);
        let q = _mm256_sub_pd(
            _mm256_add_pd(_mm256_sub_pd(t, t3), _mm256_mul_pd(_mm256_set1_pd(0.6), t5)),
            _mm256_div_pd(t7, _mm256_set1_pd(7.0)),
        );
        let p = _mm256_add_pd(
            _mm256_set1_pd(0.5),
            _mm256_mul_pd(_mm256_set1_pd(1.09375), q),
        );
        guards_pd(t, p)
    }
}

/// `sin`-based CDF: no branchless polynomial form, so lanes fall back to
/// per-lane scalar calls (the default impls). Determinism is trivial — the
/// per-element computation is literally the same function.
#[derive(Clone, Copy)]
pub(crate) struct CosineLanes;

impl LaneKernel for CosineLanes {
    #[inline(always)]
    fn cdf1(self, t: f64) -> f64 {
        KernelFn::Cosine.cdf(t)
    }
}

/// Gaussian CDF via `selest_math::normal_cdf`; per-lane scalar calls.
#[derive(Clone, Copy)]
pub(crate) struct GaussianLanes;

impl LaneKernel for GaussianLanes {
    #[inline(always)]
    fn cdf1(self, t: f64) -> f64 {
        KernelFn::Gaussian.cdf(t)
    }
}

/// Accumulate one strip's CDF-difference terms into `acc` with the
/// canonical block-8 reduction described in the module docs. This is *the*
/// inner loop of kernel selectivity; `a`/`b` are the integration bounds,
/// `inv_h` the cached reciprocal bandwidth.
#[inline]
pub(crate) fn add_strip<K: LaneKernel>(
    acc: &mut KahanSum,
    k: K,
    xs: &[f64],
    a: f64,
    b: f64,
    inv_h: f64,
    mode: LaneMode,
) {
    match mode {
        LaneMode::Scalar => add_strip_scalar(acc, k, xs, a, b, inv_h),
        LaneMode::X4 => add_strip_x4(acc, k, xs, a, b, inv_h),
        LaneMode::X8 => {
            #[cfg(target_arch = "x86_64")]
            if has_avx2() {
                // SAFETY: guarded by runtime AVX2 detection; the body is
                // the portable generic loop, recompiled with 256-bit lanes
                // enabled. Identical arithmetic, identical bits.
                unsafe { add_strip_x8_avx2(acc, k, xs, a, b, inv_h) };
                return;
            }
            let _ = has_avx2; // non-x86 builds
            add_strip_x8(acc, k, xs, a, b, inv_h);
        }
    }
}

/// Scalar execution of the canonical reduction: eight running partial
/// sums updated lane-slot-wise per block, one tree collapse at strip end,
/// element-wise tail.
fn add_strip_scalar<K: LaneKernel>(
    acc: &mut KahanSum,
    k: K,
    xs: &[f64],
    a: f64,
    b: f64,
    inv_h: f64,
) {
    let mut lanes = [0.0f64; 8];
    let mut chunks = xs.chunks_exact(8);
    for c in chunks.by_ref() {
        for (li, &x) in lanes.iter_mut().zip(c) {
            *li += k.cdf1((b - x) * inv_h) - k.cdf1((a - x) * inv_h);
        }
    }
    acc.add(F64x8(lanes).hsum_tree());
    for &x in chunks.remainder() {
        acc.add(k.cdf1((b - x) * inv_h) - k.cdf1((a - x) * inv_h));
    }
}

/// 4-lane execution: two `F64x4` accumulators cover lane slots 0–3 and
/// 4–7; `lo.hsum_tree() + hi.hsum_tree()` is the same collapse tree as the
/// 8-wide `hsum_tree`.
fn add_strip_x4<K: LaneKernel>(acc: &mut KahanSum, k: K, xs: &[f64], a: f64, b: f64, inv_h: f64) {
    let av = F64x4::splat(a);
    let bv = F64x4::splat(b);
    let ih = F64x4::splat(inv_h);
    let mut lo = F64x4::splat(0.0);
    let mut hi = F64x4::splat(0.0);
    let mut chunks = xs.chunks_exact(8);
    for c in chunks.by_ref() {
        let x0 = F64x4::from_slice(&c[..4]);
        let x1 = F64x4::from_slice(&c[4..]);
        lo = lo + (k.cdf4((bv - x0) * ih) - k.cdf4((av - x0) * ih));
        hi = hi + (k.cdf4((bv - x1) * ih) - k.cdf4((av - x1) * ih));
    }
    acc.add(lo.hsum_tree() + hi.hsum_tree());
    for &x in chunks.remainder() {
        acc.add(k.cdf1((b - x) * inv_h) - k.cdf1((a - x) * inv_h));
    }
}

/// 8-lane execution, shared between the portable and AVX2-compiled entry
/// points below.
#[inline(always)]
fn add_strip_x8_body<K: LaneKernel>(
    acc: &mut KahanSum,
    k: K,
    xs: &[f64],
    a: f64,
    b: f64,
    inv_h: f64,
) {
    let av = F64x8::splat(a);
    let bv = F64x8::splat(b);
    let ih = F64x8::splat(inv_h);
    let mut lanes = F64x8::splat(0.0);
    let mut chunks = xs.chunks_exact(8);
    for c in chunks.by_ref() {
        let xv = F64x8::from_slice(c);
        lanes = lanes + (k.cdf8((bv - xv) * ih) - k.cdf8((av - xv) * ih));
    }
    acc.add(lanes.hsum_tree());
    for &x in chunks.remainder() {
        acc.add(k.cdf1((b - x) * inv_h) - k.cdf1((a - x) * inv_h));
    }
}

fn add_strip_x8<K: LaneKernel>(acc: &mut KahanSum, k: K, xs: &[f64], a: f64, b: f64, inv_h: f64) {
    add_strip_x8_body(acc, k, xs, a, b, inv_h);
}

/// The canonical reduction hand-lowered to 256-bit intrinsics: two
/// `__m256d` accumulators hold lane slots 0–3 and 4–7 and are collapsed
/// once through the shared tree at strip end. Runtime detection in
/// [`add_strip`] keeps non-AVX2 hosts on the portable copy; both produce
/// identical bits because `vaddpd`/`vsubpd`/`vmulpd` are the IEEE scalar
/// ops per lane and the per-lane CDF forms are proven equal to `cdf1`.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn add_strip_x8_avx2<K: LaneKernel>(
    acc: &mut KahanSum,
    k: K,
    xs: &[f64],
    a: f64,
    b: f64,
    inv_h: f64,
) {
    let av = _mm256_set1_pd(a);
    let bv = _mm256_set1_pd(b);
    let ih = _mm256_set1_pd(inv_h);
    let mut acc_lo = _mm256_setzero_pd();
    let mut acc_hi = _mm256_setzero_pd();
    let mut chunks = xs.chunks_exact(8);
    for c in chunks.by_ref() {
        let x0 = _mm256_loadu_pd(c.as_ptr());
        let x1 = _mm256_loadu_pd(c.as_ptr().add(4));
        let d0 = _mm256_sub_pd(
            k.cdf_pd(_mm256_mul_pd(_mm256_sub_pd(bv, x0), ih)),
            k.cdf_pd(_mm256_mul_pd(_mm256_sub_pd(av, x0), ih)),
        );
        let d1 = _mm256_sub_pd(
            k.cdf_pd(_mm256_mul_pd(_mm256_sub_pd(bv, x1), ih)),
            k.cdf_pd(_mm256_mul_pd(_mm256_sub_pd(av, x1), ih)),
        );
        acc_lo = _mm256_add_pd(acc_lo, d0);
        acc_hi = _mm256_add_pd(acc_hi, d1);
    }
    let mut lanes = [0.0f64; 8];
    _mm256_storeu_pd(lanes.as_mut_ptr(), acc_lo);
    _mm256_storeu_pd(lanes.as_mut_ptr().add(4), acc_hi);
    acc.add(F64x8(lanes).hsum_tree());
    for &x in chunks.remainder() {
        acc.add(k.cdf1((b - x) * inv_h) - k.cdf1((a - x) * inv_h));
    }
}

/// The canonical un-normalized raw-mass sum of one term: the full-mass
/// count seeded into the compensated accumulator, then the strip(s). Wide
/// terms (`full_hi >= full_lo`) own the `[i0,i1)` and `[i2,i3)` strips plus
/// `i2 - i1` full contributors; narrow terms a single `[i0,i3)` strip.
/// Shared verbatim by `raw_mass` (per-query) and the batch `eval` — their
/// bit-identity lives here.
#[allow(clippy::too_many_arguments)]
pub(crate) fn raw_term_sum<K: LaneKernel>(
    k: K,
    sorted: &[f64],
    a: f64,
    b: f64,
    inv_h: f64,
    mode: LaneMode,
    wide: bool,
    i0: usize,
    i1: usize,
    i2: usize,
    i3: usize,
) -> f64 {
    let mut acc = KahanSum::new();
    if wide {
        acc.add((i2 - i1) as f64);
        add_strip(&mut acc, k, &sorted[i0..i1], a, b, inv_h, mode);
        add_strip(&mut acc, k, &sorted[i2..i3], a, b, inv_h, mode);
    } else {
        add_strip(&mut acc, k, &sorted[i0..i3], a, b, inv_h, mode);
    }
    acc.value()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Every lane CDF form must equal the scalar `KernelFn::cdf` bit-for-
    /// bit, for arguments inside, outside, and exactly on the support —
    /// this is the proof obligation the branchless blends carry.
    #[test]
    fn lane_cdfs_are_bit_identical_to_scalar() {
        fn sweep<K: LaneKernel>(k: K, kernel: KernelFn) {
            let mut probes: Vec<f64> = Vec::new();
            for i in 0..=4000 {
                probes.push(-10.0 + i as f64 * 20.0 / 4000.0);
            }
            probes.extend([
                -1.0,
                1.0,
                -0.0,
                0.0,
                -1.0 + f64::EPSILON,
                1.0 - f64::EPSILON,
                f64::MIN_POSITIVE,
                -f64::MIN_POSITIVE,
                1e300,
                -1e300,
            ]);
            for &t in &probes {
                let scalar = kernel.cdf(t);
                assert_eq!(
                    k.cdf1(t).to_bits(),
                    scalar.to_bits(),
                    "{} cdf1 at {t}",
                    kernel.name()
                );
                let l4 = k.cdf4(F64x4::splat(t));
                let l8 = k.cdf8(F64x8::splat(t));
                for lane in 0..4 {
                    assert_eq!(
                        l4.0[lane].to_bits(),
                        scalar.to_bits(),
                        "{} x4 lane {lane} at {t}: {} vs {scalar}",
                        kernel.name(),
                        l4.0[lane]
                    );
                }
                for lane in 0..8 {
                    assert_eq!(
                        l8.0[lane].to_bits(),
                        scalar.to_bits(),
                        "{} x8 lane {lane} at {t}: {} vs {scalar}",
                        kernel.name(),
                        l8.0[lane]
                    );
                }
            }
        }
        sweep(UniformLanes, KernelFn::Uniform);
        sweep(TriangularLanes, KernelFn::Triangular);
        sweep(BiweightLanes, KernelFn::Biweight);
        sweep(TriweightLanes, KernelFn::Triweight);
        sweep(CosineLanes, KernelFn::Cosine);
        sweep(GaussianLanes, KernelFn::Gaussian);
    }

    /// The three execution modes of `add_strip` run the same canonical
    /// reduction, so their bits agree for every strip length (tails of
    /// every residue class included).
    #[test]
    fn strip_modes_agree_bit_for_bit() {
        for n in [0usize, 1, 3, 7, 8, 9, 15, 16, 17, 64, 100, 257] {
            let xs: Vec<f64> = (0..n)
                .map(|i| (i as f64 * 0.37).sin() * 3.0 + 5.0)
                .collect();
            let (a, b, inv_h) = (4.2, 6.9, 1.0 / 0.8);
            let run = |mode| {
                let mut acc = KahanSum::new();
                add_strip(&mut acc, BiweightLanes, &xs, a, b, inv_h, mode);
                acc.value()
            };
            let scalar = run(LaneMode::Scalar);
            assert_eq!(scalar.to_bits(), run(LaneMode::X4).to_bits(), "n={n} x4");
            assert_eq!(scalar.to_bits(), run(LaneMode::X8).to_bits(), "n={n} x8");
        }
    }

    /// Same check through the transcendental (per-lane fallback) kernels.
    #[test]
    fn strip_modes_agree_for_transcendental_kernels() {
        let xs: Vec<f64> = (0..37).map(|i| i as f64 * 0.11).collect();
        let run = |mode| {
            let mut acc = KahanSum::new();
            add_strip(&mut acc, GaussianLanes, &xs, 1.0, 3.0, 1.0 / 0.5, mode);
            add_strip(&mut acc, CosineLanes, &xs, 1.0, 3.0, 1.0 / 0.5, mode);
            acc.value()
        };
        let scalar = run(LaneMode::Scalar);
        assert_eq!(scalar.to_bits(), run(LaneMode::X4).to_bits());
        assert_eq!(scalar.to_bits(), run(LaneMode::X8).to_bits());
    }
}
