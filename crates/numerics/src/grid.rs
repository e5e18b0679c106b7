//! Dense N-dimensional grids with multilinear interpolation and a
//! built-in two-resolution error estimate.
//!
//! [`NdGrid`] stores samples of a scalar field on the tensor product of
//! uniformly spaced axes and answers point queries by multilinear
//! interpolation over the enclosing cell. Per axis the interpolation
//! error of a C² field is `h²·max|∂²f|/8` (same bound as the 1-D
//! [`crate::LatticeCache`]); since `max|∂²f|` is unknown at query time,
//! [`NdGrid::interpolate_checked`] estimates it *a posteriori* by also
//! interpolating on the stride-2 sub-grid (cell width `2h`, error
//! `≈ 4×` the fine one) and reporting `|fine − coarse|` — a conservative
//! bound on the fine error wherever the field is locally smooth
//! (`|fine − coarse| ≈ 3 × err_fine` by the Richardson argument). This is
//! the same two-resolution a-posteriori discipline the quadrature layer
//! uses in `gauss_legendre_two_resolution`.
//!
//! So that the stride-2 sub-grid shares its nodes with the fine grid,
//! every axis must have an **odd** number of points (`2m + 1`).

use crate::error::NumericsError;

/// One uniformly spaced grid axis.
#[derive(Debug, Clone, PartialEq)]
pub struct NdAxis {
    /// Lower bound of the axis (first node).
    pub lo: f64,
    /// Upper bound of the axis (last node).
    pub hi: f64,
    /// Number of nodes — odd and ≥ 3, so the stride-2 coarse sub-grid
    /// lands exactly on fine-grid nodes.
    pub points: usize,
}

impl NdAxis {
    /// Builds an axis after validating bounds and node count.
    pub fn new(lo: f64, hi: f64, points: usize) -> Result<Self, NumericsError> {
        if !(lo < hi) || !lo.is_finite() || !hi.is_finite() {
            return Err(NumericsError::InvalidInput {
                what: "grid axis needs finite lo < hi",
            });
        }
        if points < 3 || points % 2 == 0 {
            return Err(NumericsError::InvalidInput {
                what: "grid axis needs an odd number of points >= 3",
            });
        }
        Ok(Self { lo, hi, points })
    }

    /// Node spacing `h`.
    pub fn step(&self) -> f64 {
        (self.hi - self.lo) / (self.points - 1) as f64
    }

    /// Coordinate of node `i` (the last node hits `hi` exactly).
    pub fn node(&self, i: usize) -> f64 {
        debug_assert!(i < self.points);
        if i + 1 == self.points {
            self.hi
        } else {
            self.lo + i as f64 * self.step()
        }
    }

    /// Whether `q` lies in `[lo, hi]` (inclusive; NaN is outside).
    pub fn contains(&self, q: f64) -> bool {
        q >= self.lo && q <= self.hi
    }

    /// Cell index and barycentric offset for `q`, with `stride` fine
    /// cells per interpolation cell (1 = fine grid, 2 = coarse sub-grid).
    /// `q` is clamped to the axis, so edge queries resolve to the
    /// boundary cell with offset 0 or 1.
    fn locate(&self, q: f64, stride: usize) -> (usize, f64) {
        let h = self.step() * stride as f64;
        let cells = (self.points - 1) / stride;
        let t = (q.clamp(self.lo, self.hi) - self.lo) / h;
        let cell = (t.floor() as usize).min(cells - 1);
        ((cell * stride), (t - cell as f64).clamp(0.0, 1.0))
    }
}

/// Samples of a scalar field on the tensor product of [`NdAxis`] axes,
/// stored row-major (last axis fastest).
#[derive(Debug, Clone, PartialEq)]
pub struct NdGrid {
    axes: Vec<NdAxis>,
    values: Vec<f64>,
}

impl NdGrid {
    /// Builds a grid from its axes and the row-major value table
    /// (`values.len()` must equal the product of the axis point counts).
    pub fn new(axes: Vec<NdAxis>, values: Vec<f64>) -> Result<Self, NumericsError> {
        if axes.is_empty() {
            return Err(NumericsError::InvalidInput {
                what: "grid needs at least one axis",
            });
        }
        let expect: usize = axes.iter().map(|a| a.points).product();
        if values.len() != expect {
            return Err(NumericsError::InvalidInput {
                what: "grid value table does not match the axis shape",
            });
        }
        Ok(Self { axes, values })
    }

    /// The grid's axes.
    pub fn axes(&self) -> &[NdAxis] {
        &self.axes
    }

    /// The row-major value table.
    pub fn values(&self) -> &[f64] {
        &self.values
    }

    /// Total node count.
    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// True if the grid holds no values (never: construction forbids it).
    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }

    /// Whether `q` lies inside the grid's domain on every axis.
    pub fn contains(&self, q: &[f64]) -> bool {
        q.len() == self.axes.len() && q.iter().zip(&self.axes).all(|(&x, a)| a.contains(x))
    }

    /// Row-major flat index of the node with per-axis indices `idx`.
    pub fn flat_index(&self, idx: &[usize]) -> usize {
        debug_assert_eq!(idx.len(), self.axes.len());
        let mut flat = 0usize;
        for (i, a) in idx.iter().zip(&self.axes) {
            debug_assert!(*i < a.points);
            flat = flat * a.points + i;
        }
        flat
    }

    /// Multilinear interpolation over the enclosing cell of the given
    /// `stride` (1 = fine). `q` must have one coordinate per axis;
    /// coordinates are clamped to the domain.
    fn interpolate_stride(&self, q: &[f64], stride: usize) -> f64 {
        assert_eq!(q.len(), self.axes.len(), "query arity mismatch");
        let d = self.axes.len();
        let mut base = vec![0usize; d];
        let mut frac = vec![0.0f64; d];
        for (k, (&x, a)) in q.iter().zip(&self.axes).enumerate() {
            let (b, t) = a.locate(x, stride);
            base[k] = b;
            frac[k] = t;
        }
        // Accumulate over the 2^d cell corners.
        let mut acc = 0.0f64;
        let mut idx = vec![0usize; d];
        for corner in 0..(1usize << d) {
            let mut weight = 1.0f64;
            for k in 0..d {
                if corner >> k & 1 == 1 {
                    idx[k] = (base[k] + stride).min(self.axes[k].points - 1);
                    weight *= frac[k];
                } else {
                    idx[k] = base[k];
                    weight *= 1.0 - frac[k];
                }
            }
            if weight != 0.0 {
                acc += weight * self.values[self.flat_index(&idx)];
            }
        }
        acc
    }

    /// Multilinear interpolation on the fine grid (coordinates clamped
    /// to the domain — callers gate out-of-domain queries via
    /// [`NdGrid::contains`]).
    pub fn interpolate(&self, q: &[f64]) -> f64 {
        self.interpolate_stride(q, 1)
    }

    /// Multilinear interpolation on the stride-2 coarse sub-grid.
    pub fn interpolate_coarse(&self, q: &[f64]) -> f64 {
        self.interpolate_stride(q, 2)
    }

    /// Fine interpolant plus the two-resolution a-posteriori error
    /// estimate `|fine − coarse|` (see the module docs).
    pub fn interpolate_checked(&self, q: &[f64]) -> (f64, f64) {
        let fine = self.interpolate_stride(q, 1);
        let coarse = self.interpolate_stride(q, 2);
        (fine, (fine - coarse).abs())
    }

    /// Row-major flat index (last axis fastest) of the fine cell
    /// enclosing `q` — `points − 1` cells per axis. Coordinates are
    /// clamped like interpolation, so edge queries resolve to the
    /// boundary cell. Pairs with [`for_each_cell_center`], which visits
    /// cells in exactly this order.
    pub fn cell_index(&self, q: &[f64]) -> usize {
        assert_eq!(q.len(), self.axes.len(), "query arity mismatch");
        let mut flat = 0usize;
        for (&x, a) in q.iter().zip(&self.axes) {
            flat = flat * (a.points - 1) + a.locate(x, 1).0;
        }
        flat
    }

    /// Total fine-cell count (the product of `points − 1` over axes).
    pub fn cell_count(&self) -> usize {
        self.axes.iter().map(|a| a.points - 1).product()
    }

    /// Minimum and maximum node value over the corners of the fine cell
    /// enclosing `q` — lets callers detect cells that straddle a
    /// sentinel or a discontinuity before trusting the interpolant.
    pub fn cell_bounds(&self, q: &[f64]) -> (f64, f64) {
        assert_eq!(q.len(), self.axes.len(), "query arity mismatch");
        let d = self.axes.len();
        let mut base = vec![0usize; d];
        for (k, (&x, a)) in q.iter().zip(&self.axes).enumerate() {
            base[k] = a.locate(x, 1).0;
        }
        let (mut lo, mut hi) = (f64::INFINITY, f64::NEG_INFINITY);
        let mut idx = vec![0usize; d];
        for corner in 0..(1usize << d) {
            for k in 0..d {
                idx[k] = if corner >> k & 1 == 1 {
                    (base[k] + 1).min(self.axes[k].points - 1)
                } else {
                    base[k]
                };
            }
            let v = self.values[self.flat_index(&idx)];
            lo = lo.min(v);
            hi = hi.max(v);
        }
        (lo, hi)
    }
}

/// Iterates the cartesian product of the axes' node indices in row-major
/// order (last axis fastest), yielding `(flat_index, coords)` — the
/// order in which [`NdGrid`] expects its value table.
pub fn for_each_node(axes: &[NdAxis], mut visit: impl FnMut(usize, &[f64])) {
    let d = axes.len();
    let total: usize = axes.iter().map(|a| a.points).product();
    let mut idx = vec![0usize; d];
    let mut coords = vec![0.0f64; d];
    for flat in 0..total {
        for k in 0..d {
            coords[k] = axes[k].node(idx[k]);
        }
        visit(flat, &coords);
        for k in (0..d).rev() {
            idx[k] += 1;
            if idx[k] < axes[k].points {
                break;
            }
            idx[k] = 0;
        }
    }
}

/// Iterates the centers of the fine cells in row-major order (last axis
/// fastest), yielding `(flat_cell_index, center_coords)` — the same
/// indexing [`NdGrid::cell_index`] answers. Cell centers are where
/// multilinear interpolation error peaks for a *smooth* surface (per
/// axis the error profile is `∝ t(1−t)`); for piecewise-smooth surfaces
/// use [`for_each_cell_probe`] with several fractions per axis.
pub fn for_each_cell_center(axes: &[NdAxis], visit: impl FnMut(usize, &[f64])) {
    for_each_cell_probe(axes, &[0.5], visit);
}

/// Iterates every fine cell in row-major order (last axis fastest) and,
/// within each cell, every probe point of the cartesian product
/// `fracs^d` — axis `k`'s probe coordinate is `node + frac · step`.
/// Yields `(flat_cell_index, probe_coords)` once per probe, so a cell is
/// visited `fracs.len()^d` times with the same flat index. Probing
/// several interior fractions (e.g. `[0.25, 0.5, 0.75]`) catches
/// interpolation-error peaks that sit away from the center, as happens
/// when the surface has a kink inside the cell (an `n_opt` plateau step
/// crossing it).
pub fn for_each_cell_probe(axes: &[NdAxis], fracs: &[f64], mut visit: impl FnMut(usize, &[f64])) {
    let d = axes.len();
    assert!(!fracs.is_empty(), "need at least one probe fraction");
    let total: usize = axes.iter().map(|a| a.points - 1).product();
    let probes: usize = fracs.len().pow(d as u32);
    let mut idx = vec![0usize; d];
    let mut coords = vec![0.0f64; d];
    for flat in 0..total {
        for p in 0..probes {
            let mut rem = p;
            for k in (0..d).rev() {
                let f = fracs[rem % fracs.len()];
                rem /= fracs.len();
                coords[k] = axes[k].node(idx[k]) + f * axes[k].step();
            }
            visit(flat, &coords);
        }
        for k in (0..d).rev() {
            idx[k] += 1;
            if idx[k] < axes[k].points - 1 {
                break;
            }
            idx[k] = 0;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn grid2(f: impl Fn(f64, f64) -> f64, ax: NdAxis, ay: NdAxis) -> NdGrid {
        let axes = vec![ax, ay];
        let mut values = vec![0.0; axes[0].points * axes[1].points];
        for_each_node(&axes, |flat, c| values[flat] = f(c[0], c[1]));
        NdGrid::new(axes, values).unwrap()
    }

    #[test]
    fn axis_validation() {
        assert!(NdAxis::new(0.0, 1.0, 5).is_ok());
        assert!(NdAxis::new(0.0, 1.0, 4).is_err(), "even point count");
        assert!(NdAxis::new(0.0, 1.0, 1).is_err());
        assert!(NdAxis::new(1.0, 1.0, 5).is_err());
        assert!(NdAxis::new(0.0, f64::INFINITY, 5).is_err());
        assert!(NdAxis::new(f64::NAN, 1.0, 5).is_err());
    }

    #[test]
    fn last_node_hits_hi_exactly() {
        let a = NdAxis::new(0.1, 0.7, 7).unwrap();
        assert_eq!(a.node(0), 0.1);
        assert_eq!(a.node(6), 0.7);
    }

    #[test]
    fn shape_mismatch_rejected() {
        let axes = vec![NdAxis::new(0.0, 1.0, 3).unwrap()];
        assert!(NdGrid::new(axes, vec![0.0; 4]).is_err());
    }

    #[test]
    fn multilinear_is_exact_for_affine_fields() {
        // Multilinear interpolation reproduces a + b·x + c·y exactly.
        let g = grid2(
            |x, y| 2.0 + 3.0 * x - 0.5 * y,
            NdAxis::new(0.0, 2.0, 5).unwrap(),
            NdAxis::new(-1.0, 1.0, 9).unwrap(),
        );
        for &(x, y) in &[(0.0, -1.0), (0.3, 0.77), (1.999, -0.2), (2.0, 1.0)] {
            let (v, err) = g.interpolate_checked(&[x, y]);
            let want = 2.0 + 3.0 * x - 0.5 * y;
            assert!((v - want).abs() < 1e-12, "({x},{y}): {v} vs {want}");
            assert!(err < 1e-12, "affine field has zero two-resolution gap");
        }
    }

    #[test]
    fn nodes_are_reproduced_exactly() {
        let axes = vec![
            NdAxis::new(0.0, 1.0, 5).unwrap(),
            NdAxis::new(0.0, 1.0, 3).unwrap(),
        ];
        let mut values = vec![0.0; 15];
        for_each_node(&axes, |flat, c| values[flat] = (c[0] * 10.0 + c[1]).sin());
        let g = NdGrid::new(axes.clone(), values.clone()).unwrap();
        for_each_node(&axes, |flat, c| {
            assert!((g.interpolate(c) - values[flat]).abs() < 1e-12);
        });
    }

    #[test]
    fn smooth_field_error_shrinks_and_estimate_bounds_it() {
        // f(x,y) = sin(x)·cos(y): the two-resolution estimate must
        // dominate the true fine-grid error away from the nodes.
        let f = |x: f64, y: f64| x.sin() * y.cos();
        let g = grid2(
            f,
            NdAxis::new(0.0, 3.0, 33).unwrap(),
            NdAxis::new(0.0, 3.0, 33).unwrap(),
        );
        for &(x, y) in &[(0.42, 1.33), (2.15, 0.08), (1.0, 2.9)] {
            let (v, est) = g.interpolate_checked(&[x, y]);
            let true_err = (v - f(x, y)).abs();
            assert!(
                true_err <= est + 1e-9,
                "({x},{y}): true err {true_err:.2e} above estimate {est:.2e}"
            );
            // The estimate carries the *coarse* grid's error (~(2h)²/8
            // per axis), so it sits a factor ~4 above the fine error.
            assert!(est < 2e-2, "33-point grid should be tight, est {est:.2e}");
        }
    }

    #[test]
    fn cell_bounds_bracket_the_interpolant() {
        let g = grid2(
            |x, y| x * x + y,
            NdAxis::new(0.0, 2.0, 5).unwrap(),
            NdAxis::new(0.0, 2.0, 5).unwrap(),
        );
        let q = [0.77, 1.21];
        let (lo, hi) = g.cell_bounds(&q);
        let v = g.interpolate(&q);
        assert!(lo <= v && v <= hi, "{lo} <= {v} <= {hi}");
    }

    #[test]
    fn contains_rejects_nan_and_out_of_domain() {
        let g = grid2(
            |x, y| x + y,
            NdAxis::new(0.0, 1.0, 3).unwrap(),
            NdAxis::new(0.0, 1.0, 3).unwrap(),
        );
        assert!(g.contains(&[0.5, 0.5]));
        assert!(g.contains(&[0.0, 1.0]), "edges are in-domain");
        assert!(!g.contains(&[1.5, 0.5]));
        assert!(!g.contains(&[f64::NAN, 0.5]));
        assert!(!g.contains(&[0.5]), "wrong arity");
    }

    #[test]
    fn edge_queries_clamp_to_the_boundary_cell() {
        let g = grid2(
            |x, y| x + y,
            NdAxis::new(0.0, 1.0, 3).unwrap(),
            NdAxis::new(0.0, 1.0, 3).unwrap(),
        );
        assert!((g.interpolate(&[1.0, 1.0]) - 2.0).abs() < 1e-12);
        assert!((g.interpolate(&[0.0, 0.0]) - 0.0).abs() < 1e-12);
    }

    #[test]
    fn cell_centers_map_back_to_their_cell_index() {
        let axes = vec![
            NdAxis::new(0.0, 1.0, 5).unwrap(),
            NdAxis::new(2.0, 3.0, 3).unwrap(),
        ];
        let g = grid2(|x, y| x + y, axes[0].clone(), axes[1].clone());
        assert_eq!(g.cell_count(), 8);
        let mut seen = 0usize;
        for_each_cell_center(&axes, |flat, c| {
            assert_eq!(g.cell_index(c), flat, "center {c:?}");
            seen += 1;
        });
        assert_eq!(seen, 8);
        // Edge queries clamp into the boundary cell.
        assert_eq!(g.cell_index(&[0.0, 2.0]), 0);
        assert_eq!(g.cell_index(&[1.0, 3.0]), 7);
    }

    #[test]
    fn for_each_node_is_row_major() {
        let axes = vec![
            NdAxis::new(0.0, 1.0, 3).unwrap(),
            NdAxis::new(10.0, 11.0, 3).unwrap(),
        ];
        let mut seen = Vec::new();
        for_each_node(&axes, |flat, c| seen.push((flat, c[0], c[1])));
        assert_eq!(seen.len(), 9);
        assert_eq!(seen[0], (0, 0.0, 10.0));
        assert_eq!(seen[1], (1, 0.0, 10.5));
        assert_eq!(seen[3], (3, 0.5, 10.0));
        assert_eq!(seen[8], (8, 1.0, 11.0));
    }
}
