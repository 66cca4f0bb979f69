//! Deterministic scalar building blocks for the serving hot paths.
//!
//! * **Compensated accumulation** ([`KahanSum`]) — a Neumaier-compensated
//!   running sum matching `selest_math::kahan_sum`'s update rule; the
//!   kernel strip reduction and the moment tables accumulate through it.
//! * **Branchless binary search** ([`partition_lt`], [`partition_le`]) and
//!   the [`GridIndex`] interpolation grid — flat-array lookups whose trip
//!   count depends only on the slice length (no data-dependent branch
//!   mispredictions), with a monotonicity-proven bracket for the grid (see
//!   `DESIGN.md` §13).

// ---------------------------------------------------------------------------
// Compensated accumulation
// ---------------------------------------------------------------------------

/// A running Neumaier-compensated sum with the exact update rule of
/// `selest_math::kahan_sum`, exposed as an incremental accumulator so strip
/// loops can compensate across their 8-element block sums. Feeding the same
/// values in the same order as `kahan_sum` produces the same bits.
#[derive(Debug, Clone, Copy, Default)]
pub struct KahanSum {
    sum: f64,
    c: f64,
}

impl KahanSum {
    /// A zeroed accumulator.
    #[inline(always)]
    pub fn new() -> Self {
        KahanSum { sum: 0.0, c: 0.0 }
    }

    /// Add one term, carrying the rounding error into the compensation.
    #[inline(always)]
    pub fn add(&mut self, v: f64) {
        let t = self.sum + v;
        if self.sum.abs() >= v.abs() {
            self.c += (self.sum - t) + v;
        } else {
            self.c += (v - t) + self.sum;
        }
        self.sum = t;
    }

    /// The compensated total `sum + c`.
    #[inline(always)]
    pub fn value(&self) -> f64 {
        self.sum + self.c
    }
}

// ---------------------------------------------------------------------------
// Branchless binary search
// ---------------------------------------------------------------------------

/// `sorted.partition_point(|&v| v < x)`, branchlessly: the loop trip count
/// depends only on `sorted.len()` and the comparison feeds a conditional
/// move, not a data-dependent branch — so a batch of lookups with random
/// outcomes pays no misprediction tax. Exact (never approximate), for any
/// sorted slice and any `x` including NaN (`v < NaN` is false everywhere,
/// so the answer is 0, like `partition_point`).
#[inline]
pub fn partition_lt(sorted: &[f64], x: f64) -> usize {
    let mut base = 0usize;
    let mut len = sorted.len();
    while len > 1 {
        let half = len / 2;
        // cmov: advance past the left half iff its last element is < x.
        base += if sorted[base + half - 1] < x { half } else { 0 };
        len -= half;
    }
    if !sorted.is_empty() && sorted[base] < x {
        base += 1;
    }
    base
}

/// `sorted.partition_point(|&v| v <= x)`, branchlessly (see
/// [`partition_lt`]).
#[inline]
pub fn partition_le(sorted: &[f64], x: f64) -> usize {
    let mut base = 0usize;
    let mut len = sorted.len();
    while len > 1 {
        let half = len / 2;
        base += if sorted[base + half - 1] <= x {
            half
        } else {
            0
        };
        len -= half;
    }
    if !sorted.is_empty() && sorted[base] <= x {
        base += 1;
    }
    base
}

// ---------------------------------------------------------------------------
// Interpolation grid
// ---------------------------------------------------------------------------

/// A precomputed interpolation grid over a sorted slice: `G` uniform cells
/// spanning `[sorted[0], sorted[n-1]]`, each knowing where its elements
/// start. A lookup maps `x` to its cell in O(1) and narrows any
/// `partition_point` over the full slice to the elements of *one* cell.
///
/// # Error bound (proof sketch — DESIGN.md §13 has the full version)
///
/// Let `cell(v) = clamp(⌊fl(fl(v − lo) · inv_cell)⌋, 0, G−1)` with every
/// operation in f64. Each step (subtraction, multiplication, float→int
/// cast) is monotone non-decreasing in `v`, so `cell` is monotone:
/// `u ≤ v ⟹ cell(u) ≤ cell(v)` — *regardless of rounding error*. With
/// `starts[c] =` number of elements whose `cell` is `< c`:
///
/// * every element `v < x` has `cell(v) ≤ cell(x) = j`, hence lives below
///   `starts[j+1]`;
/// * every element below `starts[j]` has `cell(v) < j ≤ cell(x)`, hence
///   `v < x` (contrapositive of monotonicity).
///
/// So the true partition index lies in `[starts[j], starts[j+1]]`: the
/// residual search window is exactly one cell's occupancy, and the result
/// is exact — the grid bounds *work*, never *error*.
#[derive(Debug, Clone)]
pub struct GridIndex {
    /// `G + 1` cumulative starts: `starts[c]` = elements with `cell < c`.
    starts: Vec<u32>,
    lo: f64,
    inv_cell: f64,
    cells: usize,
}

impl GridIndex {
    /// Build a grid over `sorted` (ascending, no NaN, `len <= u32::MAX`).
    /// `cells` is clamped to at least 1; a degenerate span (zero width or
    /// non-finite bounds) collapses to a single cell covering everything.
    pub fn build(sorted: &[f64], cells: usize) -> GridIndex {
        debug_assert!(sorted.windows(2).all(|w| w[0] <= w[1]), "input not sorted");
        assert!(sorted.len() <= u32::MAX as usize, "grid index is u32");
        let cells = cells.max(1);
        let (lo, hi) = match (sorted.first(), sorted.last()) {
            (Some(&lo), Some(&hi)) => (lo, hi),
            _ => (0.0, 0.0),
        };
        let width = hi - lo;
        let inv_cell = if width.is_finite() && width > 0.0 && lo.is_finite() {
            cells as f64 / width
        } else {
            0.0 // degenerate: every x maps to cell 0 of a 1-cell grid
        };
        let (cells, inv_cell) = if inv_cell.is_finite() && inv_cell > 0.0 {
            (cells, inv_cell)
        } else {
            (1, 0.0)
        };
        let mut starts = vec![0u32; cells + 1];
        for &v in sorted {
            let c = Self::cell_of(v, lo, inv_cell, cells);
            starts[c + 1] += 1;
        }
        for c in 0..cells {
            starts[c + 1] += starts[c];
        }
        GridIndex {
            starts,
            lo,
            inv_cell,
            cells,
        }
    }

    #[inline(always)]
    fn cell_of(v: f64, lo: f64, inv_cell: f64, cells: usize) -> usize {
        // f64→usize casts saturate (negative / NaN → 0, huge → MAX), so
        // the clamp below is total.
        (((v - lo) * inv_cell) as usize).min(cells - 1)
    }

    /// The half-open index window `[w0, w1)`… actually the *closed bracket*
    /// `[starts[j], starts[j+1]]` containing every partition point
    /// (`<` or `<=`) for `x`: search `sorted[w.0..w.1]` and add `w.0`.
    #[inline(always)]
    pub fn window(&self, x: f64) -> (usize, usize) {
        let j = Self::cell_of(x, self.lo, self.inv_cell, self.cells);
        (self.starts[j] as usize, self.starts[j + 1] as usize)
    }

    /// Grid-accelerated `sorted.partition_point(|&v| v < x)`. `sorted`
    /// must be the slice the grid was built over.
    #[inline]
    pub fn partition_lt(&self, sorted: &[f64], x: f64) -> usize {
        let (w0, w1) = self.window(x);
        w0 + partition_lt(&sorted[w0..w1], x)
    }

    /// Grid-accelerated `sorted.partition_point(|&v| v <= x)`.
    #[inline]
    pub fn partition_le(&self, sorted: &[f64], x: f64) -> usize {
        let (w0, w1) = self.window(x);
        w0 + partition_le(&sorted[w0..w1], x)
    }

    /// Number of grid cells.
    pub fn cells(&self) -> usize {
        self.cells
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kahan_accumulator_recovers_cancelled_terms() {
        let mut acc = KahanSum::new();
        for &v in &[1.0, 1e100, 1.0, -1e100] {
            acc.add(v);
        }
        assert_eq!(acc.value(), 2.0);
        let naive: f64 = [1.0f64, 1e100, 1.0, -1e100].iter().sum();
        assert_eq!(naive, 0.0); // what the uncompensated sum loses
    }

    #[test]
    fn branchless_partitions_match_partition_point() {
        let mut s: Vec<f64> = (0..257).map(|i| ((i * 37) % 100) as f64 / 4.0).collect();
        s.sort_by(|a, b| a.partial_cmp(b).unwrap());
        for probe in [-1.0, 0.0, 3.25, 12.5, 24.75, 25.0, 100.0, f64::NAN] {
            assert_eq!(
                partition_lt(&s, probe),
                s.partition_point(|&v| v < probe),
                "lt {probe}"
            );
            assert_eq!(
                partition_le(&s, probe),
                s.partition_point(|&v| v <= probe),
                "le {probe}"
            );
        }
        assert_eq!(partition_lt(&[], 1.0), 0);
        assert_eq!(partition_le(&[], 1.0), 0);
    }

    #[test]
    fn grid_index_is_exact_everywhere() {
        let mut s: Vec<f64> = (0..1000)
            .map(|i| (((i * i) % 997) as f64).sqrt() * 3.0 - 5.0)
            .collect();
        s.sort_by(|a, b| a.partial_cmp(b).unwrap());
        let grid = GridIndex::build(&s, 256);
        // Probe on, between, below, above, and far outside the values.
        let mut probes: Vec<f64> = s.iter().step_by(7).copied().collect();
        probes.extend([-1e9, -5.0001, 0.0, 42.42, 89.73, 1e9, f64::NAN]);
        for &x in &probes {
            assert_eq!(
                grid.partition_lt(&s, x),
                s.partition_point(|&v| v < x),
                "lt {x}"
            );
            assert_eq!(
                grid.partition_le(&s, x),
                s.partition_point(|&v| v <= x),
                "le {x}"
            );
        }
    }

    #[test]
    fn grid_index_handles_degenerate_spans() {
        // All-equal values: zero width span collapses to one cell.
        let s = vec![7.0; 50];
        let grid = GridIndex::build(&s, 64);
        assert_eq!(grid.cells(), 1);
        assert_eq!(grid.partition_lt(&s, 7.0), 0);
        assert_eq!(grid.partition_le(&s, 7.0), 50);
        assert_eq!(grid.partition_lt(&s, 8.0), 50);
        // Single element.
        let one = vec![3.0];
        let g1 = GridIndex::build(&one, 16);
        assert_eq!(g1.partition_le(&one, 2.9), 0);
        assert_eq!(g1.partition_le(&one, 3.0), 1);
    }
}
