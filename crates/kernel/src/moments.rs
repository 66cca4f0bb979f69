//! Prefix-moment tables: Epanechnikov strip sums in `O(1)`.
//!
//! Inside its support the Epanechnikov CDF is the cubic
//! `P(t) = 1/2 + 3t/4 - t^3/4`, and every boundary-kernel strip term of
//! [`crate::boundary`] is a quadratic in the sample's edge distance (plus
//! a `3 ln c` term in the band regime). The sum of a cubic `p` over a run
//! of samples is a cubic in the query endpoint whose coefficients are the
//! run's power sums, so prefix sums of those powers turn every strip into
//! a handful of table lookups — the "fast sum updating" of Fan & Marron
//! (1994).
//!
//! # Cell coordinates
//!
//! Power sums of raw `x` cancel catastrophically on wide domains (`x^3`
//! on `[0, 2^21]` is `~1e19`). The table therefore works in cells of width
//! `M h`, `M = CELL_WIDTH = 4`, anchored at the domain's low edge `l`:
//! sample `x` lies in cell `j = floor((x - l)/(M h))` with centre
//! `m_j = l + (j + 1/2) M h`, and its stored coordinate is
//! `w = (x - m_j)/h`, still in bandwidths, which lies in `[-M/2, M/2)` up
//! to rounding. For a query reference point `c` and `d = (c - m_j)/h`,
//! Taylor expansion at `d` gives, over any run of `k` samples of one cell,
//!
//! ```text
//! sum p((c - x)/h) = sum p(d - w)
//!                  = k p(d) - p'(d) S1 + p''(d)/2 S2 - p'''/6 S3,
//! S_r = sum w^r.
//! ```
//!
//! A strip `(c - h, c + h)` meets at most two cells (one in half the
//! placements) and is summed one piece per cell: a piece runs from its
//! first sample to the end of that sample's cell. Only a cell that begins
//! and ends between two checkpoints (at most three samples) is summed
//! differently: directly, around its own centre, together with the
//! samples up to the next checkpoint whichever cells they lie in. Every
//! quantity in the expansion is `O(1)` per sample (`|d| < 1 + M/2 = 3`,
//! `|w| <= M/2 = 2`, below `M/2 + 2 = 4` in the short pieces), so the
//! absolute error of a strip is a few tens of ulps per sample — `O(eps)`
//! in selectivity, independent of the domain's offset or width.
//!
//! # Layout
//!
//! `S_r` come from global prefix sums of the cell-relative powers (`w`
//! is bounded, so a global prefix does not cancel), stored only at every
//! [`STRIDE`]-th sample: a run `[p, q)` reads the two checkpoints inside
//! it and sums the at most `2 (STRIDE - 1)` samples outside them directly.
//! One `u32` per checkpoint holds the end of the cell of the sample there,
//! which splits a strip into its pieces without a search: a piece's end is
//! read at the checkpoint at or before its first sample, or at the next
//! one when its cell begins after the first. Boundary-kernel
//! estimators add one checkpointed prefix of `ln c` per band zone
//! `1 < c < 2`. In all, at most `(4 + 24 + 2 * 8) / 4 = 11` bytes per
//! sample, built once and shared by every clone; the sample itself is not
//! copied.

use std::ops::Range;

use selest_simd::KahanSum;

/// Checkpoint stride of every prefix in the table. The build sums a full
/// group of four inside one cell as a tree.
const STRIDE: usize = 4;
const _: () = assert!(STRIDE == 4);

/// Width of a cell in bandwidths: an open strip `2h` wide meets at most
/// two cells. Wider cells would save few pieces while `|d|` and `|w|`,
/// and with them the rounding of the expansion, keep growing. A power of
/// two, so `cell_width` and `inv_cell` are exact scalings of `h` and
/// `1/h`.
const CELL_WIDTH: f64 = 4.0;

/// Samples per compensated update of the power prefix sums.
const BLOCK: usize = 16 * STRIDE;

/// A cubic `p(t) = p[0] + p[1] t + p[2] t^2 + p[3] t^3`.
type Cubic = [f64; 4];

/// The Epanechnikov CDF on its support, `1/2 + 3t/4 - t^3/4`.
const EPANECHNIKOV_CDF: Cubic = [0.5, 0.75, 0.0, -0.25];

/// Prefix moments of one sorted sample for one bandwidth.
#[derive(Debug)]
pub(crate) struct MomentTable {
    /// Domain edges `l` (the cell anchor) and `r`.
    lo: f64,
    hi: f64,
    h: f64,
    inv_h: f64,
    /// Cell width `CELL_WIDTH * h` and its reciprocal.
    cell_width: f64,
    inv_cell: f64,
    /// `cell_end[g]`: one past the last sample of the cell that holds
    /// sample `STRIDE * g`.
    cell_end: Box<[u32]>,
    /// `ckpt[g]`: `(sum w, sum w^2, sum w^3)` over samples
    /// `0 .. STRIDE * g`, compensated across blocks.
    ckpt: Box<[[f64; 3]]>,
    /// Left and right band zones, for boundary-kernel estimators.
    edges: Option<[BandZone; 2]>,
}

/// The samples at edge distance `1 < c < 2` bandwidths from one domain
/// edge, with a checkpointed prefix of `ln c`.
#[derive(Debug)]
struct BandZone {
    /// The zone as an index range of the sorted sample.
    start: usize,
    end: usize,
    /// `ln_ckpt[g]`: compensated `sum ln c` over samples
    /// `start .. start + STRIDE * g`.
    ln_ckpt: Box<[f64]>,
}

impl MomentTable {
    /// Build the table over `sorted` (non-empty, ascending, inside
    /// `[l, r]`) for bandwidth `h`; `band_zones` adds the boundary-kernel
    /// `ln c` prefixes.
    pub(crate) fn build(sorted: &[f64], l: f64, r: f64, h: f64, band_zones: bool) -> Self {
        let n = sorted.len();
        assert!(
            u32::try_from(n).is_ok(),
            "moment tables index samples with u32"
        );
        let mut table = MomentTable {
            lo: l,
            hi: r,
            h,
            inv_h: 1.0 / h,
            cell_width: CELL_WIDTH * h,
            inv_cell: 1.0 / (CELL_WIDTH * h),
            cell_end: Box::default(),
            ckpt: Box::default(),
            edges: None,
        };
        // One pass over the sample: cell runs and power sums. Powers add
        // plainly into a partial sum of at most BLOCK samples; a checkpoint
        // is the compensated sum before the block plus that partial, and
        // each full block enters the compensated sums once.
        let mut cell_end = vec![0u32; n.div_ceil(STRIDE)];
        let mut ckpt = Vec::with_capacity(n / STRIDE + 1);
        ckpt.push([0.0; 3]);
        let mut sums = [KahanSum::new(), KahanSum::new(), KahanSum::new()];
        let (mut base, mut partial) = ([0.0; 3], [0.0; 3]);
        let mut run = (0usize, table.cell(sorted[0]));
        let mut m = table.centre(run.1);
        for (g, group) in sorted.chunks(STRIDE).enumerate() {
            let powers = match *group {
                // Cells are monotone, so a full group whose last sample is
                // in the current cell lies in it whole: sum it as a tree.
                [a, b, c, d] if table.cell(d) == run.1 => {
                    let w = [a, b, c, d].map(|x| (x - m) * table.inv_h);
                    let w2 = w.map(|w| w * w);
                    let w3 = [0, 1, 2, 3].map(|i| w2[i] * w[i]);
                    [w, w2, w3].map(|v| (v[0] + v[1]) + (v[2] + v[3]))
                }
                _ => {
                    let mut powers = [0.0; 3];
                    for (i, &x) in group.iter().enumerate() {
                        let j = table.cell(x);
                        if j != run.1 {
                            let s = g * STRIDE + i;
                            cell_end[run.0.div_ceil(STRIDE)..s.div_ceil(STRIDE)].fill(s as u32);
                            run = (s, j);
                            m = table.centre(j);
                        }
                        let w = (x - m) * table.inv_h;
                        let w2 = w * w;
                        powers[0] += w;
                        powers[1] += w2;
                        powers[2] += w2 * w;
                    }
                    powers
                }
            };
            for (p, v) in partial.iter_mut().zip(powers) {
                *p += v;
            }
            if group.len() == STRIDE {
                ckpt.push([
                    base[0] + partial[0],
                    base[1] + partial[1],
                    base[2] + partial[2],
                ]);
            }
            if ((g + 1) * STRIDE).is_multiple_of(BLOCK) {
                for (sum, v) in sums.iter_mut().zip(partial) {
                    sum.add(v);
                }
                base = sums.each_ref().map(KahanSum::value);
                partial = [0.0; 3];
            }
        }
        cell_end[run.0.div_ceil(STRIDE)..].fill(n as u32);
        table.cell_end = cell_end.into();
        table.ckpt = ckpt.into();
        if band_zones {
            table.edges = Some([
                table.band_zone(sorted, true),
                table.band_zone(sorted, false),
            ]);
        }
        table
    }

    /// Cell index of a sample `x >= l`: truncation is the floor there,
    /// and unlike `f64::floor` it needs no libm call on baseline x86-64.
    /// Exact while `W/h < 2^53`; a bandwidth below the domain's own float
    /// resolution would merge cells and lose the cell coordinates'
    /// precision, not memory safety.
    #[inline]
    fn cell(&self, x: f64) -> i64 {
        ((x - self.lo) * self.inv_cell) as i64
    }

    #[inline]
    fn centre(&self, j: i64) -> f64 {
        self.lo + (j as f64 + 0.5) * self.cell_width
    }

    /// Edge distance `c` of `x` in bandwidths, computed exactly as the
    /// per-sample boundary integral computes it.
    #[inline]
    fn edge_distance(&self, x: f64, left: bool) -> f64 {
        if left {
            (x - self.lo) * self.inv_h
        } else {
            (self.hi - x) * self.inv_h
        }
    }

    fn band_zone(&self, sorted: &[f64], left: bool) -> BandZone {
        let c = |x: f64| self.edge_distance(x, left);
        // Only samples within 2h of the edge can reach its strip; the
        // zone is searched inside that reach.
        let (start, end) = if left {
            let reach = &sorted[..sorted.partition_point(|&x| x <= self.lo + 2.0 * self.h)];
            (
                reach.partition_point(|&x| c(x) <= 1.0),
                reach.partition_point(|&x| c(x) < 2.0),
            )
        } else {
            let first = sorted.partition_point(|&x| x < self.hi - 2.0 * self.h);
            let reach = &sorted[first..];
            (
                first + reach.partition_point(|&x| c(x) >= 2.0),
                first + reach.partition_point(|&x| c(x) > 1.0),
            )
        };
        // One `ln` per group: of the product of its (at most four)
        // factors in (1, 2).
        let mut ln_ckpt = Vec::with_capacity((end - start) / STRIDE + 1);
        ln_ckpt.push(0.0);
        let mut sum = KahanSum::new();
        for group in sorted[start..end].chunks(STRIDE) {
            sum.add(group.iter().map(|&x| c(x)).product::<f64>().ln());
            if group.len() == STRIDE {
                ln_ckpt.push(sum.value());
            }
        }
        BandZone {
            start,
            end,
            ln_ckpt: ln_ckpt.into(),
        }
    }

    /// End of the piece that starts at sample `a`, of cell `j`: the end
    /// of that cell, read at the checkpoint `g` at or before `a` when the
    /// cell holds it, else at checkpoint `g + 1` when the cell holds that
    /// one. Cells ascend with the sorted sample, so `a` shares checkpoint
    /// `g`'s cell exactly when it starts before that cell's end. A cell
    /// that holds neither begins and ends between the two checkpoints;
    /// its piece runs on to checkpoint `g + 1`, holds no checkpoint pair
    /// and is summed directly around the centre of `j` whichever cells
    /// its samples lie in.
    #[inline]
    fn piece_end(&self, xs: &[f64], a: usize, j: i64) -> usize {
        let g = a / STRIDE;
        let end = self.cell_end[g] as usize;
        if end > a {
            return end;
        }
        let next = (g + 1) * STRIDE;
        match xs.get(next) {
            Some(&x) if self.cell(x) == j => self.cell_end[g + 1] as usize,
            _ => next,
        }
    }

    /// `(sum w, sum w^2, sum w^3)` over `[p, q)`, all in the cell centred
    /// at `m`: the checkpoints inside the run, plus its ragged ends.
    #[inline]
    fn powers(&self, xs: &[f64], p: usize, q: usize, m: f64) -> [f64; 3] {
        let mut s = [0.0; 3];
        let direct = |run: Range<usize>, s: &mut [f64; 3]| {
            for &x in &xs[run] {
                let w = (x - m) * self.inv_h;
                let w2 = w * w;
                s[0] += w;
                s[1] += w2;
                s[2] += w2 * w;
            }
        };
        let (g_lo, g_hi) = (p.div_ceil(STRIDE), q / STRIDE);
        if g_lo > g_hi {
            direct(p..q, &mut s);
        } else {
            let (a, b) = (self.ckpt[g_lo], self.ckpt[g_hi]);
            s = [b[0] - a[0], b[1] - a[1], b[2] - a[2]];
            direct(p..g_lo * STRIDE, &mut s);
            direct(g_hi * STRIDE..q, &mut s);
        }
        s
    }

    /// `sum p((reference - x_s)/h)` over the samples `[i, k)`, one Taylor
    /// expansion per cell piece.
    #[inline]
    fn cubic_sum(&self, xs: &[f64], i: usize, k: usize, reference: f64, p: Cubic) -> f64 {
        let mut total = 0.0;
        let mut a = i;
        while a < k {
            let j = self.cell(xs[a]);
            let b = self.piece_end(xs, a, j).min(k);
            let m = self.centre(j);
            let d = (reference - m) * self.inv_h;
            let [s1, s2, s3] = self.powers(xs, a, b, m);
            let c0 = p[0] + d * (p[1] + d * (p[2] + d * p[3]));
            let c1 = p[1] + d * (2.0 * p[2] + 3.0 * p[3] * d);
            let c2 = p[2] + 3.0 * p[3] * d;
            total += (((b - a) as f64 * c0 - c1 * s1) + c2 * s2) - p[3] * s3;
            a = b;
        }
        total
    }

    /// One raw term `sum_i CDF((b - x_i)/h) - CDF((a - x_i)/h)` as
    /// `F(b) - F(a)`, `F(c) = #{x <= c - h} + sum_{x in (c-h, c+h)} P`.
    /// `cuts` are `#{x <= a - h}`, `#{x < a + h}`, `#{x <= b - h}` and
    /// `#{x < b + h}`.
    #[inline]
    pub(crate) fn raw_term(&self, xs: &[f64], a: f64, b: f64, cuts: [usize; 4]) -> f64 {
        let [ia, ka, ib, kb] = cuts;
        let full = (ib - ia) as f64;
        full + (self.cubic_sum(xs, ib, kb, b, EPANECHNIKOV_CDF)
            - self.cubic_sum(xs, ia, ka, a, EPANECHNIKOV_CDF))
    }

    /// Boundary-kernel strip contribution `sum_i Int_{v0}^{v1}
    /// K^(edge)(v - c_i, v) dv` in unit edge coordinates, where `c_i` is
    /// the sample's edge distance in bandwidths — the closed form of
    /// [`crate::boundary::left_boundary_integral`] summed over the sample.
    ///
    /// The integral has three regimes in `c`, contiguous in the sorted
    /// sample:
    ///
    /// * `c <= 1 + lo0` (`lo0 = max(v0, 0)`): the window `[lo0, hi]` does
    ///   not depend on the sample, so the term is the quadratic
    ///   `k0 + k1 c + k2 c^2`;
    /// * `1 + lo0 < c < 1 + hi`: the window is `[c - 1, hi]`, and
    ///   `primitive(c - 1) = -3 ln c - 9` leaves
    ///   `kh0 + kh1 c + kh2 c^2 + 3 ln c`;
    /// * `c >= 1 + hi`: the window is empty.
    ///
    /// The regime boundaries are found by binary search inside the band
    /// zone with the per-sample `c` predicate, so the split is exact; the
    /// quadratics come from the cell pieces and `sum ln c` from the zone's
    /// prefix.
    pub(crate) fn boundary_strip(&self, xs: &[f64], v0: f64, v1: f64, left: bool) -> f64 {
        debug_assert!(
            (-1e-12..=1.0 + 1e-12).contains(&v0) && v0 <= v1 + 1e-12 && v1 <= 1.0 + 1e-12
        );
        let lo0 = v0.max(0.0);
        let hi = v1.min(1.0);
        if hi <= lo0 {
            return 0.0;
        }
        let c1 = 1.0 + lo0;
        let c2 = 1.0 + hi;

        // Fixed window: e(c) = -3 (ln wh - ln wl) - (6 + 12c)(1/wh - 1/wl)
        //                      + (6c + 3c^2)(1/wh^2 - 1/wl^2).
        let wh = 1.0 + hi;
        let wl = 1.0 + lo0;
        let iwh = 1.0 / wh;
        let iwl = 1.0 / wl;
        let d1 = iwh - iwl;
        let d2 = iwh * iwh - iwl * iwl;
        let quad = [
            -3.0 * (wh.ln() - wl.ln()) - 6.0 * d1,
            6.0 * d2 - 12.0 * d1,
            3.0 * d2,
        ];
        // Moving window: primitive(hi) - (-3 ln c - 9), less the 3 ln c.
        let iwh2 = iwh * iwh;
        let band = [
            -3.0 * wh.ln() - 6.0 * iwh + 9.0,
            6.0 * iwh2 - 12.0 * iwh,
            3.0 * iwh2,
        ];

        let zones = self
            .edges
            .as_ref()
            .expect("band zones are built for boundary-kernel estimators");
        let zone = &zones[usize::from(!left)];
        let c = |x: f64| self.edge_distance(x, left);
        let in_zone = &xs[zone.start..zone.end];
        let z = zone.start;
        // A left strip is sorted by ascending c, a right one by descending
        // c. The cubic sums take t = (edge - x)/h, which is -c on the left.
        let (edge, quad_run, band_run, sign) = if left {
            let p1 = z + in_zone.partition_point(|&x| c(x) <= c1);
            let p2 = z + in_zone.partition_point(|&x| c(x) < c2);
            (self.lo, 0..p1, p1..p2, -1.0)
        } else {
            let p2 = z + in_zone.partition_point(|&x| c(x) >= c2);
            let p1 = z + in_zone.partition_point(|&x| c(x) > c1);
            (self.hi, p1..xs.len(), p2..p1, 1.0)
        };
        let in_t = |k: [f64; 3]| [k[0], sign * k[1], k[2], 0.0];
        let ln_c = zone.ln_sum(xs, band_run.clone(), c);
        self.cubic_sum(xs, quad_run.start, quad_run.end, edge, in_t(quad))
            + (self.cubic_sum(xs, band_run.start, band_run.end, edge, in_t(band)) + 3.0 * ln_c)
    }

    /// Heap bytes held by the table (the sample itself is shared, not
    /// counted).
    #[cfg(test)]
    pub(crate) fn heap_bytes(&self) -> usize {
        let zones = self.edges.as_ref().map_or(0, |zones| {
            zones
                .iter()
                .map(|z| z.ln_ckpt.len() * size_of::<f64>())
                .sum()
        });
        self.cell_end.len() * size_of::<u32>() + self.ckpt.len() * size_of::<[f64; 3]>() + zones
    }
}

impl BandZone {
    /// `sum ln c` over `run`, inside the zone: the checkpoints inside the
    /// run, plus one `ln` of the product of its ragged ends (at most six
    /// factors in `(1, 2)`, so the product cannot overflow).
    fn ln_sum(&self, xs: &[f64], run: Range<usize>, c: impl Fn(f64) -> f64) -> f64 {
        debug_assert!(self.start <= run.start && run.end <= self.end);
        let mut prod = 1.0;
        let direct = |r: Range<usize>, prod: &mut f64| {
            for &x in &xs[r] {
                *prod *= c(x);
            }
        };
        let (g_lo, g_hi) = (
            (run.start - self.start).div_ceil(STRIDE),
            (run.end - self.start) / STRIDE,
        );
        let mut s = 0.0;
        if g_lo > g_hi {
            direct(run, &mut prod);
        } else {
            s = self.ln_ckpt[g_hi] - self.ln_ckpt[g_lo];
            direct(run.start..self.start + g_lo * STRIDE, &mut prod);
            direct(self.start + g_hi * STRIDE..run.end, &mut prod);
        }
        if prod != 1.0 {
            s += prod.ln();
        }
        s
    }
}

#[cfg(test)]
mod tests {
    use selest_core::{Domain, RangeQuery, SelectivityEstimator};
    use selest_data::{reservoir_sample, PaperFile};

    use super::{MomentTable, STRIDE};
    use crate::boundary::{left_boundary_integral, BoundaryPolicy};
    use crate::{BandwidthSelector, DirectPlugIn, KernelEstimator, KernelFn};

    const POLICIES: [BoundaryPolicy; 3] = [
        BoundaryPolicy::NoTreatment,
        BoundaryPolicy::Reflection,
        BoundaryPolicy::BoundaryKernel,
    ];

    /// Deterministic draws in `[0, 1)` (64-bit LCG, top 53 bits).
    fn unit(seed: u64, n: usize) -> Vec<f64> {
        let mut s = seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) | 1;
        (0..n)
            .map(|_| {
                s = s
                    .wrapping_mul(6_364_136_223_846_793_005)
                    .wrapping_add(1_442_695_040_888_963_407);
                (s >> 11) as f64 / (1u64 << 53) as f64
            })
            .collect()
    }

    struct Fixture {
        name: String,
        samples: Vec<f64>,
        domain: Domain,
        h: f64,
    }

    /// Every combination of domain offset (`[0, 2^20]` and
    /// `[1e9, 1e9 + 2^20]`), `W/h` in {2, 15, 1e4}, and three sample
    /// shapes: skewed spread, iw-like heavy duplicates (edges included),
    /// and samples exactly on bandwidth multiples `l + k h`, every
    /// `CELL_WIDTH`-th of them a cell edge.
    fn fixtures() -> Vec<Fixture> {
        let mut out = Vec::new();
        let w = (1u64 << 20) as f64;
        for lo in [0.0, 1e9] {
            let domain = Domain::new(lo, lo + w);
            let clip = |x: f64| x.clamp(lo, lo + w);
            for ratio in [2.0, 15.0, 1e4] {
                let h = w / ratio;
                let spread: Vec<f64> = unit(ratio as u64, 1_500)
                    .iter()
                    .map(|&u| clip(lo + w * u * u))
                    .collect();
                // 24 distinct values, the edges among them, drawn with a
                // heavy head.
                let levels: Vec<f64> = (0..24)
                    .map(|i| clip(lo + w * (i as f64 / 23.0).powi(3)))
                    .collect();
                let dups: Vec<f64> = unit(7 + ratio as u64, 1_500)
                    .iter()
                    .map(|&u| levels[(u * u * 24.0) as usize])
                    .collect();
                // Bandwidth multiples near both domain edges and in the
                // middle, each repeated.
                let cells = ratio as usize;
                let ks: Vec<usize> = (0..=cells.min(6))
                    .chain(cells / 2..=(cells / 2 + 3).min(cells))
                    .chain(cells.saturating_sub(6)..=cells)
                    .collect();
                let edges: Vec<f64> = ks
                    .iter()
                    .flat_map(|&k| [clip(lo + k as f64 * h); 5])
                    .collect();
                for (shape, samples) in [("spread", spread), ("dups", dups), ("edges", edges)] {
                    out.push(Fixture {
                        name: format!("{shape} l={lo} W/h={ratio}"),
                        samples,
                        domain,
                        h,
                    });
                }
            }
        }
        out
    }

    /// Random, edge-flush, overhanging, degenerate, cell-edge queries, and
    /// queries whose endpoints sit exactly at `x_i +- h`.
    fn queries(f: &Fixture) -> Vec<RangeQuery> {
        let (l, r) = (f.domain.lo(), f.domain.hi());
        let w = r - l;
        let h = f.h;
        let mut qs = Vec::new();
        let u = unit(f.samples.len() as u64 + 3, 80);
        for pair in u.chunks_exact(2) {
            let a = l + w * pair[0];
            qs.push(RangeQuery::new(a, (a + w * 0.3 * pair[1]).min(r)));
        }
        for frac in [1e-4, 0.01, 0.3] {
            qs.push(RangeQuery::new(l, l + frac * w));
            qs.push(RangeQuery::new(r - frac * w, r));
        }
        qs.push(RangeQuery::new(l - w, l + 0.2 * w));
        qs.push(RangeQuery::new(r - 0.2 * w, r + w));
        qs.push(RangeQuery::new(l, r));
        let mid = l + 0.5 * w;
        qs.push(RangeQuery::new(mid, mid));
        for k in [0.0, 1.0, 2.0, 3.0] {
            let a = l + k * h;
            if a + h <= r {
                qs.push(RangeQuery::new(a, a + h));
            }
        }
        let xs = &f.samples;
        for i in (0..xs.len()).step_by(97) {
            let x = xs[i];
            let y = xs[(i * 7 + 13) % xs.len()];
            let (p, q) = (x.min(y), x.max(y));
            qs.push(RangeQuery::new(p - h, q + h));
            qs.push(RangeQuery::new(p + h, (q + h).max(p + h)));
            qs.push(RangeQuery::new(x - h, x + h));
            qs.push(RangeQuery::new(p - h, (q - h).max(p - h)));
        }
        qs
    }

    /// The `Theta(n)` oracle: Algorithm 1 for the interior and (on the
    /// mirrored queries) reflection terms, through an untreated estimator
    /// whose domain is wide enough that it clips nothing, and the
    /// per-sample boundary integral for the edge strips.
    fn oracle(f: &Fixture, policy: BoundaryPolicy, q: &RangeQuery) -> f64 {
        let (l, r) = (f.domain.lo(), f.domain.hi());
        let h = f.h;
        let w = r - l;
        let linear = KernelEstimator::new(
            &f.samples,
            Domain::new(l - 3.0 * w, r + 3.0 * w),
            KernelFn::Epanechnikov,
            h,
            BoundaryPolicy::NoTreatment,
        );
        let alg1 = |a: f64, b: f64| linear.selectivity_linear(&RangeQuery::new(a, b));
        let n = f.samples.len() as f64;
        let (a, b) = (q.a().max(l), q.b().min(r));
        if b < a {
            return 0.0;
        }
        let s = match policy {
            BoundaryPolicy::NoTreatment => alg1(a, b),
            BoundaryPolicy::Reflection => {
                let mut s = alg1(a, b);
                if a < l + h {
                    s += alg1(2.0 * l - b, 2.0 * l - a);
                }
                if b > r - h {
                    s += alg1(2.0 * r - b, 2.0 * r - a);
                }
                s
            }
            BoundaryPolicy::BoundaryKernel => {
                let mut s = 0.0;
                let (x1, x2) = (a.max(l + h), b.min(r - h));
                if x2 > x1 {
                    s += alg1(x1, x2);
                }
                let (la, lb) = (a.max(l), b.min(l + h));
                if lb > la {
                    let (v0, v1) = ((la - l) / h, (lb - l) / h);
                    s += f
                        .samples
                        .iter()
                        .map(|&x| left_boundary_integral(v0, v1, (x - l) / h))
                        .sum::<f64>()
                        / n;
                }
                let (ra, rb) = (a.max(r - h), b.min(r));
                if rb > ra {
                    let (v0, v1) = ((r - rb) / h, (r - ra) / h);
                    s += f
                        .samples
                        .iter()
                        .map(|&x| left_boundary_integral(v0, v1, (r - x) / h))
                        .sum::<f64>()
                        / n;
                }
                s
            }
        };
        s.clamp(0.0, 1.0)
    }

    /// The four `serve-cold` columns as ANALYZE builds them: the paper's
    /// n(20), e(20), arap1 and iw files through the catalog's 2 000-row
    /// reservoir and the h-DPI2 bandwidth. Their `W/h` of 15 to 110 lies
    /// between the fixtures' ratios.
    fn serve_cold_fixtures() -> Vec<Fixture> {
        let files = [
            PaperFile::Normal { p: 20 },
            PaperFile::Exponential { p: 20 },
            PaperFile::Arapahoe1,
            PaperFile::InstanceWeight,
        ];
        files
            .iter()
            .map(|file| {
                let data = file.generate();
                let domain = data.domain();
                let samples = reservoir_sample(data.values().iter().copied(), 2_000, 0x5e_1e_c7);
                let h = DirectPlugIn::two_stage()
                    .bandwidth(&samples, KernelFn::Epanechnikov)
                    .min(0.5 * domain.width());
                Fixture {
                    name: format!("{} W/h={:.1}", data.name(), domain.width() / h),
                    samples,
                    domain,
                    h,
                }
            })
            .collect()
    }

    #[test]
    fn moment_path_matches_the_linear_oracle_under_every_policy() {
        for f in fixtures().into_iter().chain(serve_cold_fixtures()) {
            for policy in POLICIES {
                let est =
                    KernelEstimator::new(&f.samples, f.domain, KernelFn::Epanechnikov, f.h, policy);
                for q in &queries(&f) {
                    let got = est.selectivity(q);
                    let want = oracle(&f, policy, q);
                    assert!(
                        (got - want).abs() <= 1e-12,
                        "{} {policy:?} {q}: moments {got} vs oracle {want} (diff {:e})",
                        f.name,
                        got - want
                    );
                }
            }
        }
    }

    /// The boundary strip against the per-sample integral loop, for both
    /// edges and windows that exercise all three `c` regimes, empty ones
    /// included.
    #[test]
    fn boundary_strip_matches_the_per_sample_integral() {
        let (l, r, h) = (10.0, 30.0, 2.0);
        // Samples across both edges' reach and beyond: c in [0, 2.5].
        let mut xs: Vec<f64> = (0..173).map(|i| l + i as f64 * 5.0 / 172.0).collect();
        xs.extend((0..173).map(|i| r - 5.0 + i as f64 * 5.0 / 172.0));
        xs.sort_by(f64::total_cmp);
        let table = MomentTable::build(&xs, l, r, h, true);
        for &(v0, v1) in &[
            (0.0, 1.0),
            (0.0, 0.02),
            (0.3, 0.35),
            (0.9, 1.0),
            (0.0, 0.0),
            (0.45, 0.45),
            (0.1, 0.9),
        ] {
            for (left, edge) in [(true, l), (false, r)] {
                let fast = table.boundary_strip(&xs, v0, v1, left);
                let naive: f64 = xs
                    .iter()
                    .map(|&x| {
                        let c = if left { (x - edge) / h } else { (edge - x) / h };
                        left_boundary_integral(v0, v1, c)
                    })
                    .sum();
                assert!(
                    (fast - naive).abs() <= 1e-12 * (1.0 + naive.abs()),
                    "left={left} v0={v0} v1={v1}: table {fast} vs naive {naive}"
                );
            }
        }
    }

    /// The table stays within 16 bytes per sample, band zones included,
    /// even when both zones cover the whole sample (`W = 2h`).
    #[test]
    fn table_stays_within_sixteen_bytes_per_sample() {
        for f in fixtures() {
            let mut xs = f.samples.clone();
            xs.sort_by(f64::total_cmp);
            let table = MomentTable::build(&xs, f.domain.lo(), f.domain.hi(), f.h, true);
            assert!(
                table.heap_bytes() <= 16 * xs.len(),
                "{}: {} bytes for {} samples",
                f.name,
                table.heap_bytes(),
                xs.len()
            );
        }
    }

    /// Each piece of a strip is the strip's overlap with one cell: it
    /// ends where the cell or the strip ends, and starts where that
    /// overlap starts, or at a checkpoint when a short piece before it
    /// ran on into the cell. The exception is a cell that begins and ends
    /// between two checkpoints: its piece runs on to the next checkpoint
    /// or the strip's end.
    #[test]
    fn every_piece_is_one_cell_of_its_strip() {
        for f in fixtures() {
            let mut xs = f.samples.clone();
            xs.sort_by(f64::total_cmp);
            let table = MomentTable::build(&xs, f.domain.lo(), f.domain.hi(), f.h, false);
            let cell_run = |j: i64| {
                let start = xs.partition_point(|&x| table.cell(x) < j);
                start..xs.partition_point(|&x| table.cell(x) <= j)
            };
            let strip_centres = queries(&f)
                .iter()
                .flat_map(|q| [q.a(), q.b()])
                .chain(xs.iter().copied())
                .collect::<Vec<_>>();
            for c in strip_centres {
                let i = xs.partition_point(|&x| x <= c - f.h);
                let k = xs.partition_point(|&x| x < c + f.h);
                let (mut a, mut after_short) = (i, false);
                while a < k {
                    let j = table.cell(xs[a]);
                    let b = table.piece_end(&xs, a, j).min(k);
                    let run = cell_run(j);
                    let short = run.start.next_multiple_of(STRIDE) >= run.end;
                    let want = if short {
                        a..((a / STRIDE + 1) * STRIDE).min(k)
                    } else if after_short {
                        a..run.end.min(k)
                    } else {
                        run.start.max(i)..run.end.min(k)
                    };
                    assert_eq!(a..b, want, "{} strip {i}..{k}, cell {j}", f.name);
                    (a, after_short) = (b, short);
                }
            }
        }
    }

    /// Clones share the table instead of rebuilding it.
    #[test]
    fn clones_share_the_table() {
        let f = &fixtures()[0];
        let est = KernelEstimator::new(
            &f.samples,
            f.domain,
            KernelFn::Epanechnikov,
            f.h,
            BoundaryPolicy::BoundaryKernel,
        );
        let copy = est.clone();
        assert!(std::ptr::eq(
            est.moments().expect("Epanechnikov builds a table"),
            copy.moments().expect("and the clone shares it")
        ));
        let gaussian = KernelEstimator::new(
            &f.samples,
            f.domain,
            KernelFn::Gaussian,
            f.h,
            BoundaryPolicy::Reflection,
        );
        assert!(gaussian.moments().is_none());
    }
}
