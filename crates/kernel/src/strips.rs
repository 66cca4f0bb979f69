//! The canonical strip arithmetic of the strip-scanning kernels.
//!
//! The Epanechnikov kernel sums its strips from a prefix-moment table
//! ([`crate::moments`]) and never reaches this module. Every other kernel
//! sums, over a boundary strip of the sorted sample,
//!
//! ```text
//! sum_i  CDF((b - X_i) * inv_h) - CDF((a - X_i) * inv_h)
//! ```
//!
//! with one fixed reduction shape, so the bits depend only on the strip:
//!
//! * a strip keeps **eight running partial sums** `acc[0..8]`; the strip is
//!   walked in blocks of 8 and each block's per-element terms land in their
//!   slot (`acc[j] += e[j]`);
//! * at strip end the eight partials collapse once through the fixed tree
//!   `((a0+a1)+(a2+a3)) + ((a4+a5)+(a6+a7))` and the single strip total
//!   feeds the term-level Neumaier accumulator ([`selest_simd::KahanSum`]);
//! * the trailing `len % 8` elements are added to that same accumulator
//!   one at a time.
//!
//! The compensated accumulator combines the full-mass count, the strip
//! totals and the tail elements; the in-strip partials are plain adds.
//! Division is hoisted: the estimator caches `inv_h = 1/h` once and the
//! strip loop multiplies.

use selest_simd::KahanSum;

use crate::kernels::KernelFn;

/// Accumulate one strip's CDF-difference terms into `acc` with the
/// canonical block-8 reduction described in the module docs. `a`/`b` are
/// the integration bounds, `inv_h` the cached reciprocal bandwidth.
fn add_strip(acc: &mut KahanSum, kernel: KernelFn, xs: &[f64], a: f64, b: f64, inv_h: f64) {
    let term = |x: f64| kernel.cdf((b - x) * inv_h) - kernel.cdf((a - x) * inv_h);
    let mut p = [0.0f64; 8];
    let mut chunks = xs.chunks_exact(8);
    for c in chunks.by_ref() {
        for (pj, &x) in p.iter_mut().zip(c) {
            *pj += term(x);
        }
    }
    acc.add(((p[0] + p[1]) + (p[2] + p[3])) + ((p[4] + p[5]) + (p[6] + p[7])));
    for &x in chunks.remainder() {
        acc.add(term(x));
    }
}

/// The canonical un-normalized raw-mass sum of one term: the full-mass
/// count seeded into the compensated accumulator, then the strip(s). Wide
/// terms (`full_hi >= full_lo`) own the `[i0,i1)` and `[i2,i3)` strips plus
/// `i2 - i1` full contributors; narrow terms a single `[i0,i3)` strip.
#[allow(clippy::too_many_arguments)]
pub(crate) fn raw_term_sum(
    kernel: KernelFn,
    sorted: &[f64],
    a: f64,
    b: f64,
    inv_h: f64,
    wide: bool,
    i0: usize,
    i1: usize,
    i2: usize,
    i3: usize,
) -> f64 {
    let mut acc = KahanSum::new();
    if wide {
        acc.add((i2 - i1) as f64);
        add_strip(&mut acc, kernel, &sorted[i0..i1], a, b, inv_h);
        add_strip(&mut acc, kernel, &sorted[i2..i3], a, b, inv_h);
    } else {
        add_strip(&mut acc, kernel, &sorted[i0..i3], a, b, inv_h);
    }
    acc.value()
}
