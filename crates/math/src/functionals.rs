//! Density-functional estimation for plug-in smoothing rules
//! (Section 4.3 of the paper; Wand & Jones, *Kernel Smoothing*, ch. 3).
//!
//! The AMISE-optimal bin width needs `R(f') = Int f'(x)^2 dx` and the
//! AMISE-optimal bandwidth needs `R(f'') = Int f''(x)^2 dx`. Integration by
//! parts turns these into the density functionals
//! `psi_r = Int f^(r)(x) f(x) dx = E[f^(r)(X)]` with `R(f') = -psi_2` and
//! `R(f'') = psi_4`, which can be estimated from a sample with a Gaussian
//! kernel:
//!
//! ```text
//! psi_hat_r(g) = n^-2 g^-(r+1) * sum_i sum_j phi^(r)((X_i - X_j) / g)
//! ```
//!
//! The *normal scale rule* replaces `psi_r` by its value under a normal
//! density with the sample's scale; the *direct plug-in rule* instead
//! estimates `psi_r` with a pilot bandwidth whose own optimal value depends
//! on `psi_{r+2}`, anchoring the recursion `L` stages up with the normal
//! scale value of `psi_{r+2L}`.
//!
//! ## Fast construction (DESIGN.md §9)
//!
//! The pairwise sum is the single hottest loop of estimator construction,
//! so three evaluation paths are provided:
//!
//! * [`estimate_psi_naive`] — the literal `O(n^2)` double loop; kept as
//!   the test oracle every fast path is compared against.
//! * [`estimate_psi_windowed`] — one sort, then a two-pointer window scan
//!   that only visits pairs with `|X_i - X_j| <= T_r * g`, where the
//!   cutoff radius [`psi_window_radius`] is chosen so every *dropped* term
//!   satisfies `|phi^(r)(t)| <= 1e-40` — at least six orders of magnitude
//!   below `1e-16` relative to the diagonal contribution for any sample
//!   size a double can count. Accumulation is Kahan-compensated over
//!   fixed-boundary chunks merged in order, so the result is bit-identical
//!   for every worker count (the `selest-par` convention).
//! * [`estimate_psi_binned`] — Wand-style linear binning onto an
//!   equally-spaced grid: `O(n + M * L)` where `M` is the grid size and
//!   `L <= M` the number of in-window lags. Grid-quantization error is
//!   `O((delta/g)^2)`; the [`default_psi_bins`] rule keeps the spacing at
//!   `g / 10` or finer, which holds the error to ~1e-2 relative in the
//!   worst clustered case and ~1e-4 on smooth samples — a plug-in
//!   bandwidth (`h ~ psi^(-1/5)`) moves by at most a fifth of that. When
//!   no grid of at most [`PSI_MAX_BINS`] bins can honour that spacing
//!   (heavy tails, extreme outliers), [`default_psi_bins`] returns `None`
//!   and [`PsiStrategy::Auto`] falls back to the exact windowed path
//!   rather than silently degrade.

use crate::special::normal_pdf;
use crate::stats::robust_scale_sorted_jobs;

/// `r`-th derivative of the standard normal density:
/// `phi^(r)(x) = (-1)^r He_r(x) phi(x)` with the probabilists' Hermite
/// polynomial `He_r`.
#[inline]
pub fn normal_density_derivative(r: usize, x: f64) -> f64 {
    let sign = if r.is_multiple_of(2) { 1.0 } else { -1.0 };
    sign * hermite_prob(r, x) * normal_pdf(x)
}

/// [`normal_density_derivative`] with the order a compile-time constant.
/// It runs the same recurrence, which the compiler then fully unrolls:
/// the same floating-point operations in the same order, so the result is
/// bit-identical to the runtime-order call. The change-point detector's
/// `phi''` sum calls this form; the functional scans below use the
/// pair-weight equivalent.
#[inline]
pub fn normal_density_derivative_const<const R: usize>(x: f64) -> f64 {
    normal_density_derivative(R, x)
}

/// Weight of one unordered pair at scaled distance `t` in the functional
/// sums: `phi^(r)(t) + phi^(r)(-t)`.
///
/// For even `r` this is evaluated as `2 phi^(r)(t)`, one density
/// derivative instead of two, with the same bits: every operation
/// building `He_r(x)` and `exp(-x^2 / 2)` is sign-symmetric under
/// round-to-nearest (negating `x` negates or keeps each intermediate
/// exactly; an odd-order intermediate that rounds to exactly zero is `+0`
/// for both signs, and the next step subtracts a nonzero term from it),
/// so `phi^(r)(-t)` has exactly the bits of `phi^(r)(t)`, and `v + v` and
/// `2 v` are the same exact doubling.
#[inline]
fn pair_weight(r: usize, t: f64) -> f64 {
    if r.is_multiple_of(2) {
        2.0 * normal_density_derivative(r, t)
    } else {
        normal_density_derivative(r, t) + normal_density_derivative(r, -t)
    }
}

/// [`pair_weight`] with the order a compile-time constant.
#[inline]
fn pair_weight_const<const R: usize>(t: f64) -> f64 {
    pair_weight(R, t)
}

/// Evaluate `$body` with `$w` bound to the pair weight of order `$r`:
/// a compile-time-order function for the orders the plug-in recursions
/// use (2, 4, 6), so the scan is monomorphized with its Hermite
/// recurrence unrolled, and the runtime-order weight for any other order.
/// The order is resolved once, at scan entry.
macro_rules! with_pair_weight {
    ($r:expr, $w:ident => $body:expr) => {
        match $r {
            2 => {
                let $w = pair_weight_const::<2>;
                $body
            }
            4 => {
                let $w = pair_weight_const::<4>;
                $body
            }
            6 => {
                let $w = pair_weight_const::<6>;
                $body
            }
            r => {
                let $w = move |t: f64| pair_weight(r, t);
                $body
            }
        }
    };
}

/// Probabilists' Hermite polynomial `He_r(x)` by the three-term recurrence
/// `He_{n+1}(x) = x He_n(x) - n He_{n-1}(x)`.
#[inline]
fn hermite_prob(r: usize, x: f64) -> f64 {
    match r {
        0 => 1.0,
        1 => x,
        _ => {
            let mut prev = 1.0; // He_0
            let mut cur = x; // He_1
            for n in 1..r {
                let next = x * cur - n as f64 * prev;
                prev = cur;
                cur = next;
            }
            cur
        }
    }
}

/// `psi_r` under a normal density with standard deviation `sigma`
/// (`r` even):
/// `psi_r = (-1)^(r/2) r! / ((2 sigma)^(r+1) (r/2)! sqrt(pi))`.
pub fn psi_normal_scale(r: usize, sigma: f64) -> f64 {
    assert!(
        r.is_multiple_of(2),
        "psi_r vanishes for odd r; asked for r={r}"
    );
    assert!(sigma > 0.0, "psi_normal_scale needs sigma > 0, got {sigma}");
    let half = r / 2;
    let sign = if half.is_multiple_of(2) { 1.0 } else { -1.0 };
    let mut value = sign / core::f64::consts::PI.sqrt();
    // r! / (r/2)! computed incrementally to avoid overflow for large r.
    for k in (half + 1)..=r {
        value *= k as f64;
    }
    value / (2.0 * sigma).powi(r as i32 + 1)
}

/// How a plug-in functional estimate evaluates its pairwise sum.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PsiStrategy {
    /// The literal `O(n^2)` double loop ([`estimate_psi_naive`]) — the
    /// test oracle; use only for cross-checks and small samples.
    Naive,
    /// Sorted two-pointer window scan ([`estimate_psi_windowed`]):
    /// exact to better than 1e-12 relative, parallelizable.
    Windowed,
    /// Linear binning onto a grid with the given number of bins
    /// ([`estimate_psi_binned`]): fastest, ~1e-4 relative accuracy.
    Binned {
        /// Grid size; see [`default_psi_bins`].
        bins: usize,
    },
    /// [`PsiStrategy::Binned`] with a per-stage [`default_psi_bins`] grid
    /// for large samples, [`PsiStrategy::Windowed`] below 512 samples —
    /// and also whenever [`default_psi_bins`] reports that no affordable
    /// grid can meet the `g / 10` spacing target (heavy-tailed samples),
    /// so the documented binned accuracy is never silently voided.
    /// The default of every production build path. The choice depends
    /// only on the sample, never the worker count, so it is deterministic
    /// across `SELEST_JOBS` settings.
    Auto,
}

/// Sample sizes below this use the windowed path even under
/// [`PsiStrategy::Auto`]: the `O(n^2)`-ish scan is already microseconds
/// there, and the windowed path is the more accurate one.
const AUTO_BINNED_MIN_N: usize = 512;

/// Upper grid-size bound for [`default_psi_bins`]: bounds the `O(M * L)`
/// lag sweep of [`estimate_psi_binned`] when the pilot bandwidth is tiny
/// relative to the sample range.
pub const PSI_MAX_BINS: usize = 65_536;

/// Grid-size rule for [`estimate_psi_binned`]: enough bins that the grid
/// spacing `delta = range / (bins - 1)` is at most `g / 10` (never fewer
/// than 256). Quantization error scales as `O((delta/g)^2)`, so the
/// `g / 10` target keeps the functional estimate within ~1e-2 relative of
/// the exact sum even on heavily clustered samples (and far closer on
/// smooth ones).
///
/// Returns `None` when meeting the spacing target would take more than
/// [`PSI_MAX_BINS`] bins — i.e. `range / g` is so large (heavy tails, a
/// single extreme outlier) that every affordable grid puts same-bin pairs
/// far apart relative to `g` and the documented accuracy no longer holds.
/// Callers must then use an exact path instead; [`PsiStrategy::Auto`]
/// falls back to [`estimate_psi_windowed`].
pub fn default_psi_bins(range: f64, g: f64) -> Option<usize> {
    assert!(g > 0.0, "default_psi_bins needs a positive bandwidth");
    assert!(
        range >= 0.0 && range.is_finite(),
        "default_psi_bins needs a finite range"
    );
    // Compare in f64: an astronomical range/g would overflow a usize
    // conversion (and `needed` can be +inf for a subnormal g).
    let needed = (10.0 * range / g).ceil() + 1.0;
    if needed <= PSI_MAX_BINS as f64 {
        Some((needed as usize).max(256))
    } else {
        None
    }
}

/// Kernel estimator of `psi_r` with Gaussian kernel and pilot bandwidth
/// `g`: `n^-2 g^-(r+1) sum_i sum_j phi^(r)((X_i - X_j)/g)` — the literal
/// `O(n^2)` double loop.
///
/// This is the **test oracle** for the fast paths; production builds go
/// through [`estimate_psi`] / [`psi_plug_in`] instead (the naive path at
/// n = 1 000 costs ~10 ms per stage, dominating the whole catalog build).
pub fn estimate_psi_naive(samples: &[f64], r: usize, g: f64) -> f64 {
    assert!(!samples.is_empty(), "estimate_psi on empty sample");
    assert!(g > 0.0, "estimate_psi needs a positive pilot bandwidth");
    let n = samples.len();
    let mut sum = 0.0;
    // Exploit symmetry phi^(r)(-x) = (-1)^r phi^(r)(x); r is even in all
    // plug-in uses, but stay general: accumulate ordered pairs explicitly
    // for i < j and add the diagonal once.
    let diag = normal_density_derivative(r, 0.0);
    for i in 0..n {
        for j in (i + 1)..n {
            let t = (samples[i] - samples[j]) / g;
            sum += normal_density_derivative(r, t) + normal_density_derivative(r, -t);
        }
    }
    sum += n as f64 * diag;
    sum / (n as f64 * n as f64 * g.powi(r as i32 + 1))
}

/// Fast kernel estimator of `psi_r`: sorts a copy of the sample and runs
/// the windowed scan of [`estimate_psi_windowed`]. Agrees with
/// [`estimate_psi_naive`] to better than 1e-12 relative (the summation
/// order differs, so the match is near-exact rather than bit-exact).
pub fn estimate_psi(samples: &[f64], r: usize, g: f64) -> f64 {
    assert!(!samples.is_empty(), "estimate_psi on empty sample");
    let mut sorted = samples.to_vec();
    sorted.sort_by(|a, b| a.partial_cmp(b).expect("NaN in sample set"));
    estimate_psi_windowed(&sorted, r, g)
}

/// Window cutoff radius `T_r` for the Gaussian functional estimator: the
/// smallest `t` (on a 1/4 grid, plus one unit of slack) beyond which
/// `|phi^(r)(t)| = |He_r(t)| phi(t) <= 1e-40`. Every pair farther apart
/// than `T_r * g` contributes less than 1e-40 to a sum whose diagonal
/// alone is `n * |phi^(r)(0)| >= 0.39 n` for even `r`, so dropping those
/// pairs perturbs the estimate by far less than 1e-16 relative for any
/// representable sample size.
pub fn psi_window_radius(r: usize) -> f64 {
    let envelope = |t: f64| hermite_prob(r, t).abs() * normal_pdf(t);
    // Beyond the largest Hermite root (< 2 sqrt(r)) the envelope decays
    // monotonically; scan outward from there.
    let mut t = (2.0 * (r.max(1) as f64).sqrt()).max(4.0);
    while envelope(t) > 1e-40 {
        t += 0.25;
        assert!(
            t < 64.0,
            "psi_window_radius: envelope failed to decay (r={r})"
        );
    }
    t + 1.0
}

/// Windowed functional estimator over a **sorted** sample, using
/// [`selest_par::configured_jobs`] workers. See
/// [`estimate_psi_windowed_jobs`].
pub fn estimate_psi_windowed(sorted: &[f64], r: usize, g: f64) -> f64 {
    estimate_psi_windowed_jobs(sorted, r, g, selest_par::configured_jobs())
}

/// Fixed chunk length of the parallel windowed/LSCV scans. Chunk
/// boundaries must depend only on the input length — never the worker
/// count — so partial sums merge to the same bits for any `jobs`.
const PSI_CHUNK: usize = 256;

/// Windowed functional estimator over a **sorted** sample with an
/// explicit worker count.
///
/// One two-pointer pass accumulates `phi^(r)((X_j - X_i)/g)` only over
/// pairs with `X_j - X_i <= T_r * g` (see [`psi_window_radius`]); each
/// fixed 256-index chunk of `i` keeps a Kahan-compensated partial, and
/// partials merge in chunk order — the result is bit-identical for every
/// `jobs` value, including 1. Each unordered pair contributes
/// `phi^(r)(t) + phi^(r)(-t)`, evaluated as `2 phi^(r)(t)` for even `r`
/// (the same bits), with the order a compile-time constant for `r` in
/// {2, 4, 6}.
pub fn estimate_psi_windowed_jobs(sorted: &[f64], r: usize, g: f64, jobs: usize) -> f64 {
    assert!(!sorted.is_empty(), "estimate_psi on empty sample");
    assert!(g > 0.0, "estimate_psi needs a positive pilot bandwidth");
    debug_assert!(
        sorted.windows(2).all(|w| w[0] <= w[1]),
        "estimate_psi_windowed needs a sorted sample"
    );
    let n = sorted.len();
    let radius = psi_window_radius(r) * g;
    // Below ~2k samples the scan is cheaper than spawning workers; the
    // chunked computation is identical either way, so this threshold
    // cannot change the result.
    let jobs = if n < 2_048 { 1 } else { jobs };
    let mut sum =
        with_pair_weight!(r, weight => windowed_pair_sum(sorted, g, radius, jobs, weight));
    sum += n as f64 * normal_density_derivative(r, 0.0);
    sum / (n as f64 * n as f64 * g.powi(r as i32 + 1))
}

/// The off-diagonal part of [`estimate_psi_windowed_jobs`]: the sum of
/// `weight((X_j - X_i) / g)` over pairs `i < j` no farther apart than
/// `radius`, Kahan-compensated per fixed chunk of `i` and merged in chunk
/// order.
fn windowed_pair_sum(
    sorted: &[f64],
    g: f64,
    radius: f64,
    jobs: usize,
    weight: impl Fn(f64) -> f64 + Sync,
) -> f64 {
    let n = sorted.len();
    let starts: Vec<usize> = (0..n).step_by(PSI_CHUNK).collect();
    let partials = selest_par::parallel_map_jobs(&starts, jobs, |&start| {
        let end = (start + PSI_CHUNK).min(n);
        let mut sum = 0.0f64;
        let mut comp = 0.0f64;
        for i in start..end {
            let xi = sorted[i];
            for &xj in &sorted[i + 1..] {
                let d = xj - xi;
                if d > radius {
                    break;
                }
                let term = weight(d / g);
                // Kahan-compensated accumulation; comp holds how much the
                // last addition overshot, so the finish subtracts it.
                let y = term - comp;
                let s = sum + y;
                comp = (s - sum) - y;
                sum = s;
            }
        }
        sum - comp
    });
    crate::stats::kahan_sum(partials)
}

/// Linear-binned (Wand-style) functional estimator: spread each sample
/// linearly over the two nearest points of an `bins`-point equal-spacing
/// grid, then evaluate the pairwise sum over grid *lags*:
///
/// ```text
/// sum_ij phi^(r)((X_i - X_j)/g)
///   ~ a_0 phi^(r)(0) + sum_{l >= 1} 2 a_l phi^(r)(l delta / g),
/// a_l = sum_k c_k c_{k+l}.
/// ```
///
/// Cost is `O(n + M * L)` with `L` the number of lags inside the
/// [`psi_window_radius`] cutoff; the kernel derivative is evaluated `L`
/// times instead of `n^2` times. Quantization error is `O((delta/g)^2)`.
pub fn estimate_psi_binned(samples: &[f64], r: usize, g: f64, bins: usize) -> f64 {
    assert!(!samples.is_empty(), "estimate_psi on empty sample");
    assert!(g > 0.0, "estimate_psi needs a positive pilot bandwidth");
    assert!(bins >= 2, "estimate_psi_binned needs at least two bins");
    let n = samples.len() as f64;
    let norm = n * n * g.powi(r as i32 + 1);
    let (lo, hi) = samples
        .iter()
        .fold((f64::INFINITY, f64::NEG_INFINITY), |(lo, hi), &x| {
            (lo.min(x), hi.max(x))
        });
    assert!(
        lo.is_finite() && hi.is_finite(),
        "non-finite sample in estimate_psi_binned"
    );
    if hi == lo {
        // Degenerate sample: every pair sits at distance zero.
        return n * n * normal_density_derivative(r, 0.0) / norm;
    }
    let delta = (hi - lo) / (bins - 1) as f64;
    let mut counts = vec![0.0f64; bins];
    for &x in samples {
        let pos = ((x - lo) / delta).min((bins - 1) as f64);
        let k = pos as usize;
        let frac = pos - k as f64;
        counts[k] += 1.0 - frac;
        if frac > 0.0 {
            counts[k + 1] += frac;
        }
    }
    let max_lag = ((psi_window_radius(r) * g / delta).floor() as usize).min(bins - 1);
    // Lag 0 pairs all grid mass with itself (this reproduces the naive
    // diagonal to O((delta/g)^2), since each sample's self-pair weight
    // w^2 + (1-w)^2 + 2w(1-w) telescopes to 1).
    let diagonal = counts.iter().map(|c| c * c).sum::<f64>() * normal_density_derivative(r, 0.0);
    let sum = with_pair_weight!(r, weight => binned_lag_sum(&counts, diagonal, delta, g, max_lag, weight));
    sum / norm
}

/// The lag sweep of [`estimate_psi_binned`]: starting from the lag-0
/// term `diagonal`, add `a_l weight(l delta / g)` for every lag
/// `1..=max_lag` with nonzero `a_l = sum_k c_k c_{k+l}`, Kahan-compensated.
fn binned_lag_sum(
    counts: &[f64],
    diagonal: f64,
    delta: f64,
    g: f64,
    max_lag: usize,
    weight: impl Fn(f64) -> f64,
) -> f64 {
    let bins = counts.len();
    let mut sum = diagonal;
    let mut comp = 0.0f64;
    for lag in 1..=max_lag {
        let mut a = 0.0f64;
        for k in 0..bins - lag {
            a += counts[k] * counts[k + lag];
        }
        if a == 0.0 {
            continue;
        }
        let t = lag as f64 * delta / g;
        let term = a * weight(t);
        // Kahan recurrence: comp holds the overshoot of the last addition.
        let y = term - comp;
        let s = sum + y;
        comp = (s - sum) - y;
        sum = s;
    }
    sum - comp
}

/// AMSE-optimal pilot bandwidth for estimating `psi_r` with a Gaussian
/// kernel, given (an estimate of) `psi_{r+2}`:
/// `g = ( -2 phi^(r)(0) / (psi_{r+2} n) )^(1/(r+3))`.
pub fn pilot_bandwidth(r: usize, psi_next: f64, n: usize) -> f64 {
    assert!(n > 0, "pilot_bandwidth needs a nonempty sample");
    let num = -2.0 * normal_density_derivative(r, 0.0);
    let ratio = num / (psi_next * n as f64);
    assert!(
        ratio > 0.0,
        "pilot_bandwidth: psi_{{r+2}} has the wrong sign (r={r}, psi={psi_next})"
    );
    ratio.powf(1.0 / (r as f64 + 3.0))
}

/// Direct plug-in estimate of `psi_r` with `stages` refinement stages.
///
/// `stages = 0` is the pure normal scale value; each extra stage replaces
/// one normal-scale anchor with a kernel functional estimate, starting from
/// `psi_{r + 2*stages}` evaluated by the normal scale rule. The paper notes
/// two or three stages generally suffice.
///
/// Evaluates through [`psi_plug_in_with`] using [`PsiStrategy::Auto`] and
/// the configured worker count; use [`psi_plug_in_with`] with
/// [`PsiStrategy::Naive`] to reproduce the seed's exact arithmetic.
pub fn psi_plug_in(samples: &[f64], r: usize, stages: usize) -> f64 {
    psi_plug_in_with(
        samples,
        r,
        stages,
        PsiStrategy::Auto,
        selest_par::configured_jobs(),
    )
}

/// [`psi_plug_in`] with an explicit pairwise-sum strategy and worker
/// count: sorts the sample once and calls [`psi_plug_in_sorted`].
pub fn psi_plug_in_with(
    samples: &[f64],
    r: usize,
    stages: usize,
    strategy: PsiStrategy,
    jobs: usize,
) -> f64 {
    let mut sorted = samples.to_vec();
    sorted.sort_by(|a, b| a.partial_cmp(b).expect("NaN in sample set"));
    psi_plug_in_sorted(samples, &sorted, r, stages, strategy, jobs)
}

/// The plug-in recursion over a sample whose ascending sort is at hand
/// (a prepared column): anchor at the normal scale value of
/// `psi_{r+2*stages}`, then walk the orders down, estimating each with the
/// AMSE-optimal pilot bandwidth of the previous stage. Every stage shares
/// the one sort. Each strategy reads a fixed input order — `values` for
/// [`PsiStrategy::Naive`] and explicit [`PsiStrategy::Binned`], `sorted`
/// for [`PsiStrategy::Windowed`] and [`PsiStrategy::Auto`] — which fixes
/// the summation order and so every bit of the result.
///
/// `sorted` must be the ascending sort of `values`.
pub fn psi_plug_in_sorted(
    values: &[f64],
    sorted: &[f64],
    r: usize,
    stages: usize,
    strategy: PsiStrategy,
    jobs: usize,
) -> f64 {
    assert!(values.len() >= 2, "psi_plug_in needs at least two samples");
    debug_assert_eq!(
        values.len(),
        sorted.len(),
        "psi_plug_in_sorted: length mismatch"
    );
    let sigma = robust_scale_sorted_jobs(values, sorted, jobs);
    assert!(
        sigma > 0.0,
        "psi_plug_in: sample scale is zero (constant sample); no functional estimate possible"
    );
    let strategy = match strategy {
        PsiStrategy::Auto if values.len() < AUTO_BINNED_MIN_N => PsiStrategy::Windowed,
        other => other,
    };
    let n = values.len();
    let range = sorted[n - 1] - sorted[0];
    let mut psi = psi_normal_scale(r + 2 * stages, sigma);
    let mut order = r + 2 * stages;
    while order > r {
        order -= 2;
        let g = pilot_bandwidth(order, psi, n);
        psi = match strategy {
            PsiStrategy::Naive => estimate_psi_naive(values, order, g),
            PsiStrategy::Windowed => estimate_psi_windowed_jobs(sorted, order, g, jobs),
            PsiStrategy::Binned { bins } => estimate_psi_binned(values, order, g, bins),
            // Binned with a per-stage grid: the pilot bandwidth differs at
            // each stage, and the grid-spacing rule tracks it. When no
            // affordable grid can meet the g/10 spacing target — heavy
            // tails or an extreme outlier inflate range/g — the stage falls
            // back to the exact windowed scan. The choice depends only on
            // the sample and the stage bandwidth, never the worker count,
            // so dispatch stays deterministic across SELEST_JOBS.
            PsiStrategy::Auto => match default_psi_bins(range, g) {
                Some(bins) => estimate_psi_binned(sorted, order, g, bins),
                None => estimate_psi_windowed_jobs(sorted, order, g, jobs),
            },
        };
        // A stage can produce a wrong-signed estimate on pathological
        // samples; fall back to the normal scale anchor for that order so
        // the recursion stays well-defined.
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::special::normal_quantile;

    fn normal_sample(n: usize) -> Vec<f64> {
        // Deterministic stratified normal sample: exact quantiles.
        (1..=n)
            .map(|i| normal_quantile(i as f64 / (n as f64 + 1.0)))
            .collect()
    }

    #[test]
    fn hermite_polynomials_match_known_forms() {
        for &x in &[-2.0, -0.5, 0.0, 1.0, 3.0] {
            assert!((hermite_prob(2, x) - (x * x - 1.0)).abs() < 1e-12);
            assert!((hermite_prob(3, x) - (x * x * x - 3.0 * x)).abs() < 1e-12);
            let he4 = f64::powi(x, 4) - 6.0 * x * x + 3.0;
            assert!((hermite_prob(4, x) - he4).abs() < 1e-10);
            let he6 = f64::powi(x, 6) - 15.0 * f64::powi(x, 4) + 45.0 * x * x - 15.0;
            assert!((hermite_prob(6, x) - he6).abs() < 1e-8);
        }
    }

    /// Scaled distances the pair loops can meet: zero, subnormals, a
    /// log-spaced sweep from 1e-300 to 40, a dense linear sweep of
    /// [0, 40], and every window cutoff with its neighbouring floats.
    fn pair_distance_grid() -> Vec<f64> {
        let mut ts = vec![
            0.0,
            -0.0,
            f64::from_bits(1),
            f64::from_bits(0x000f_ffff_ffff_ffff),
        ];
        ts.push(f64::MIN_POSITIVE);
        let (lo, hi) = (1e-300f64.ln(), 40f64.ln());
        let steps = 20_000;
        ts.extend((0..=steps).map(|k| (lo + (hi - lo) * k as f64 / steps as f64).exp()));
        ts.extend((0..=40_000).map(|k| k as f64 * 1e-3));
        for r in 0..=8 {
            let t = psi_window_radius(r);
            ts.extend([
                t,
                f64::from_bits(t.to_bits() - 1),
                f64::from_bits(t.to_bits() + 1),
            ]);
        }
        ts
    }

    #[test]
    fn even_order_pair_weight_is_bit_identical_to_the_literal_sum() {
        for r in (0..=8).step_by(2) {
            for t in pair_distance_grid() {
                for t in [t, -t] {
                    let literal =
                        normal_density_derivative(r, t) + normal_density_derivative(r, -t);
                    assert_eq!(
                        pair_weight(r, t).to_bits(),
                        literal.to_bits(),
                        "r={r} t={t:e}: 2*phi {:e} vs phi(t)+phi(-t) {literal:e}",
                        pair_weight(r, t)
                    );
                }
            }
        }
    }

    #[test]
    fn compile_time_orders_are_bit_identical_to_the_runtime_recurrence() {
        fn check<const R: usize>() {
            for t in pair_distance_grid() {
                for t in [t, -t] {
                    assert_eq!(
                        normal_density_derivative_const::<R>(t).to_bits(),
                        normal_density_derivative(R, t).to_bits(),
                        "phi^({R})({t:e})"
                    );
                    assert_eq!(
                        pair_weight_const::<R>(t).to_bits(),
                        pair_weight(R, t).to_bits(),
                        "pair weight of order {R} at {t:e}"
                    );
                }
            }
        }
        check::<0>();
        check::<1>();
        check::<2>();
        check::<3>();
        check::<4>();
        check::<5>();
        check::<6>();
        check::<7>();
        check::<8>();
    }

    #[test]
    fn scans_dispatch_to_the_same_bits_as_the_runtime_weight() {
        let xs = clustered_sample(700);
        for r in [2usize, 4, 6] {
            for g in [0.3, 3.0, 45.0] {
                let radius = psi_window_radius(r) * g;
                let dispatched = with_pair_weight!(r, w => windowed_pair_sum(&xs, g, radius, 1, w));
                let runtime = windowed_pair_sum(&xs, g, radius, 1, |t| pair_weight(r, t));
                assert_eq!(
                    dispatched.to_bits(),
                    runtime.to_bits(),
                    "windowed r={r} g={g}"
                );
            }
        }
        let counts: Vec<f64> = (0..300).map(|k| ((k * 7919) % 13) as f64 * 0.25).collect();
        for r in [2usize, 4, 6] {
            let dispatched =
                with_pair_weight!(r, w => binned_lag_sum(&counts, 1.5, 0.7, 2.0, 250, w));
            let runtime = binned_lag_sum(&counts, 1.5, 0.7, 2.0, 250, |t| pair_weight(r, t));
            assert_eq!(dispatched.to_bits(), runtime.to_bits(), "binned r={r}");
        }
    }

    #[test]
    fn density_derivative_matches_finite_differences() {
        let eps = 1e-5;
        for r in 1..=4usize {
            for &x in &[-1.3, 0.2, 0.9] {
                let lower = normal_density_derivative(r - 1, x - eps);
                let upper = normal_density_derivative(r - 1, x + eps);
                let fd = (upper - lower) / (2.0 * eps);
                let exact = normal_density_derivative(r, x);
                assert!(
                    (fd - exact).abs() < 1e-6 * (1.0 + exact.abs()),
                    "r={r}, x={x}: fd {fd} vs exact {exact}"
                );
            }
        }
    }

    #[test]
    fn psi_normal_scale_known_values() {
        // psi_2(sigma) = -1/(4 sqrt(pi) sigma^3) = -R(f').
        let sigma: f64 = 1.7;
        let expect2 = -1.0 / (4.0 * core::f64::consts::PI.sqrt() * sigma.powi(3));
        assert!((psi_normal_scale(2, sigma) - expect2).abs() < 1e-12 * expect2.abs());
        // psi_4(sigma) = 3/(8 sqrt(pi) sigma^5) = R(f'').
        let expect4 = 3.0 / (8.0 * core::f64::consts::PI.sqrt() * sigma.powi(5));
        assert!((psi_normal_scale(4, sigma) - expect4).abs() < 1e-12 * expect4);
        // psi_6 is negative, psi_8 positive.
        assert!(psi_normal_scale(6, 1.0) < 0.0);
        assert!(psi_normal_scale(8, 1.0) > 0.0);
    }

    #[test]
    fn estimate_psi_recovers_normal_functionals() {
        let xs = normal_sample(800);
        // With a reasonable pilot bandwidth the estimate should land near
        // the true normal value.
        let true4 = psi_normal_scale(4, 1.0);
        let g = pilot_bandwidth(4, psi_normal_scale(6, 1.0), xs.len());
        let est4 = estimate_psi(&xs, 4, g);
        assert!(
            (est4 - true4).abs() < 0.35 * true4,
            "psi_4: est {est4} vs true {true4}"
        );
        let true2 = psi_normal_scale(2, 1.0);
        let g2 = pilot_bandwidth(2, psi_normal_scale(4, 1.0), xs.len());
        let est2 = estimate_psi(&xs, 2, g2);
        assert!(
            (est2 - true2).abs() < 0.35 * true2.abs(),
            "psi_2: est {est2} vs true {true2}"
        );
    }

    #[test]
    fn plug_in_stages_converge_on_normal_data() {
        let xs = normal_sample(500);
        let truth = psi_normal_scale(4, 1.0);
        for stages in 0..=3 {
            let est = psi_plug_in(&xs, 4, stages);
            assert!(
                (est - truth).abs() < 0.35 * truth,
                "stages={stages}: est {est} vs truth {truth}"
            );
        }
    }

    #[test]
    fn plug_in_detects_rougher_densities() {
        // Bimodal data has a larger R(f'') than a single normal of the same
        // scale — the plug-in estimate must see that, while the normal scale
        // rule (stage 0) by construction cannot.
        let half = normal_sample(400);
        let mut bimodal: Vec<f64> = half.iter().map(|x| x * 0.3 - 2.0).collect();
        bimodal.extend(half.iter().map(|x| x * 0.3 + 2.0));
        let ns = psi_plug_in(&bimodal, 4, 0);
        let dpi = psi_plug_in(&bimodal, 4, 2);
        assert!(
            dpi > 3.0 * ns,
            "plug-in should report much more curvature than normal scale: dpi={dpi}, ns={ns}"
        );
    }

    #[test]
    fn pilot_bandwidth_shrinks_with_n() {
        let psi6 = psi_normal_scale(6, 1.0);
        let g_small = pilot_bandwidth(4, psi6, 100);
        let g_large = pilot_bandwidth(4, psi6, 10_000);
        assert!(g_large < g_small);
    }

    #[test]
    #[should_panic(expected = "vanishes for odd r")]
    fn psi_normal_scale_rejects_odd_order() {
        let _ = psi_normal_scale(3, 1.0);
    }

    /// Clustered sample whose pairwise distances exercise both sides of
    /// the window cutoff (two far-apart modes plus a heavy tie cluster).
    fn clustered_sample(n: usize) -> Vec<f64> {
        let mut xs: Vec<f64> = (0..n)
            .map(|i| {
                let u = (i as f64 + 0.5) / n as f64;
                if i % 3 == 0 {
                    1000.0 + 40.0 * normal_quantile(u)
                } else if i % 3 == 1 {
                    5000.0 + 0.5 * normal_quantile(u)
                } else {
                    2500.0
                }
            })
            .collect();
        xs.sort_by(|a, b| a.partial_cmp(b).unwrap());
        xs
    }

    #[test]
    fn windowed_matches_naive_to_1e12() {
        let xs = clustered_sample(400);
        for r in [2usize, 4, 6, 8] {
            for g in [0.3, 3.0, 45.0] {
                let naive = estimate_psi_naive(&xs, r, g);
                let fast = estimate_psi_windowed(&xs, r, g);
                let rel = (fast - naive).abs() / naive.abs().max(1e-300);
                assert!(
                    rel < 1e-12,
                    "r={r} g={g}: windowed {fast} vs naive {naive} (rel {rel:.2e})"
                );
            }
        }
    }

    #[test]
    fn windowed_is_bit_identical_for_any_job_count() {
        // Use n >= 2048 so the parallel path actually engages.
        let xs = clustered_sample(2400);
        for r in [2usize, 4] {
            let reference = estimate_psi_windowed_jobs(&xs, r, 2.0, 1);
            for jobs in [2usize, 3, 7, 16] {
                let got = estimate_psi_windowed_jobs(&xs, r, 2.0, jobs);
                assert_eq!(
                    got.to_bits(),
                    reference.to_bits(),
                    "jobs={jobs}: {got} vs {reference}"
                );
            }
        }
    }

    #[test]
    fn binned_converges_to_naive_with_grid_size() {
        let xs = clustered_sample(500);
        let g = 40.0;
        let naive = estimate_psi_naive(&xs, 4, g);
        // default_psi_bins targets delta <= g/10; check it and a 16x
        // finer grid against the oracle.
        let range = xs.last().unwrap() - xs.first().unwrap();
        let bins = default_psi_bins(range, g).expect("grid fits for this range/g");
        let coarse = estimate_psi_binned(&xs, 4, g, bins);
        let fine = estimate_psi_binned(&xs, 4, g, 16 * bins);
        let rel_coarse = (coarse - naive).abs() / naive.abs();
        let rel_fine = (fine - naive).abs() / naive.abs();
        assert!(rel_coarse < 1e-2, "default bins: rel {rel_coarse:.2e}");
        assert!(rel_fine < 1e-4, "16x bins: rel {rel_fine:.2e}");
        assert!(rel_fine < rel_coarse, "finer grid must be closer");
    }

    #[test]
    fn binned_handles_degenerate_constant_sample() {
        let xs = vec![7.0; 50];
        let got = estimate_psi_binned(&xs, 4, 1.0, 256);
        let want = normal_density_derivative(4, 0.0);
        assert!((got - want).abs() < 1e-12 * want.abs());
    }

    #[test]
    fn window_radius_grows_with_order_and_drops_nothing_material() {
        let t2 = psi_window_radius(2);
        let t8 = psi_window_radius(8);
        assert!(t2 >= 10.0 && t8 > t2 && t8 < 40.0, "t2={t2}, t8={t8}");
        for r in [2usize, 4, 6, 8] {
            let t = psi_window_radius(r);
            assert!(
                normal_density_derivative(r, t).abs() <= 1e-40,
                "r={r}: envelope at cutoff {t} not negligible"
            );
        }
    }

    #[test]
    fn plug_in_with_strategies_agree_within_tolerance() {
        let xs = clustered_sample(700);
        let naive = psi_plug_in_with(&xs, 4, 2, PsiStrategy::Naive, 1);
        let windowed = psi_plug_in_with(&xs, 4, 2, PsiStrategy::Windowed, 1);
        let auto = psi_plug_in_with(&xs, 4, 2, PsiStrategy::Auto, 1);
        let rel_w = (windowed - naive).abs() / naive.abs();
        let rel_a = (auto - naive).abs() / naive.abs();
        assert!(rel_w < 1e-12, "windowed plug-in drifted: rel {rel_w:.2e}");
        assert!(
            rel_a < 2e-2,
            "auto (binned) plug-in drifted: rel {rel_a:.2e}"
        );
        // Below the Auto cutover a small sample goes through the windowed
        // path, bit-identically.
        let small = &xs[..300].to_vec();
        let auto_small = psi_plug_in_with(small, 4, 2, PsiStrategy::Auto, 1);
        let win_small = psi_plug_in_with(small, 4, 2, PsiStrategy::Windowed, 1);
        assert_eq!(auto_small.to_bits(), win_small.to_bits());
    }

    #[test]
    fn default_psi_bins_refuses_grids_too_coarse_for_accuracy() {
        // Ordinary ranges get a delta <= g/10 grid (floored at 256 bins).
        assert_eq!(default_psi_bins(100.0, 1.0), Some(1_001));
        assert_eq!(default_psi_bins(0.0, 1.0), Some(256));
        assert_eq!(default_psi_bins(1.0, 1.0), Some(256));
        // At the clamp boundary the grid still fits...
        assert!(default_psi_bins(6_553.0, 1.0).is_some());
        // ...beyond it no affordable grid meets the spacing target.
        assert_eq!(default_psi_bins(1e6, 1.0), None);
        assert_eq!(default_psi_bins(1e30, 1.0), None);
    }

    #[test]
    fn sorted_plug_in_is_bit_identical_to_unsorted_entry_point() {
        // Unsorted input order matters for the Naive/Binned paths; use a
        // deliberately shuffled sample to catch any order swap.
        let mut xs = clustered_sample(700);
        let n = xs.len();
        for i in 0..n {
            xs.swap(i, (i * 7919) % n);
        }
        let mut sorted = xs.clone();
        sorted.sort_by(|a, b| a.partial_cmp(b).unwrap());
        for strategy in [
            PsiStrategy::Naive,
            PsiStrategy::Windowed,
            PsiStrategy::Binned { bins: 512 },
            PsiStrategy::Auto,
        ] {
            let legacy = psi_plug_in_with(&xs, 4, 2, strategy, 1);
            let prepared = psi_plug_in_sorted(&xs, &sorted, 4, 2, strategy, 1);
            assert_eq!(
                legacy.to_bits(),
                prepared.to_bits(),
                "{strategy:?}: legacy {legacy:e} vs prepared {prepared:e}"
            );
        }
    }

    #[test]
    fn auto_plug_in_stays_exact_under_extreme_outliers() {
        // 999 points over ~[-3, 3] plus one outlier at 1e6: the old
        // 65 536-bin clamp left the binned grid spacing ~12x the pilot
        // bandwidth here, silently voiding the documented accuracy. Auto
        // must instead fall back to the exact windowed path at every
        // stage, matching it bit for bit.
        let mut xs = normal_sample(999);
        xs.push(1e6);
        for r in [2usize, 4] {
            let auto = psi_plug_in_with(&xs, r, 2, PsiStrategy::Auto, 1);
            let windowed = psi_plug_in_with(&xs, r, 2, PsiStrategy::Windowed, 1);
            assert_eq!(
                auto.to_bits(),
                windowed.to_bits(),
                "r={r}: auto {auto:e} vs windowed {windowed:e}"
            );
            let naive = psi_plug_in_with(&xs, r, 2, PsiStrategy::Naive, 1);
            let rel = (auto - naive).abs() / naive.abs();
            assert!(rel < 1e-12, "r={r}: auto drifted {rel:.2e} from the oracle");
        }
    }
}
