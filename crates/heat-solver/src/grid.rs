//! Cartesian grid and scalar field containers.
//!
//! The paper discretises the temperature field on a regular 2D Cartesian grid
//! (1000×1000 in the large experiments). [`Grid2D`] stores the geometry and
//! [`Field`] stores one scalar value per interior node in row-major order
//! (`y` outer, `x` inner), which is also the layout the solver streams to the
//! training server.

use serde::Serialize;

/// A regular 2D Cartesian grid over the rectangular domain `[0, lx] × [0, ly]`.
///
/// `nx` and `ny` count the *interior* nodes carried by a [`Field`]; boundary
/// values are imposed by [`crate::BoundaryConditions`] and never stored.
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
pub struct Grid2D {
    /// Number of interior nodes along x.
    pub nx: usize,
    /// Number of interior nodes along y.
    pub ny: usize,
    /// Physical domain length along x (metres).
    pub lx: f64,
    /// Physical domain length along y (metres).
    pub ly: f64,
}

impl Grid2D {
    /// Creates a grid with `nx × ny` interior nodes over a unit square.
    pub fn unit_square(nx: usize, ny: usize) -> Self {
        Self {
            nx,
            ny,
            lx: 1.0,
            ly: 1.0,
        }
    }

    /// Creates a grid over a rectangular domain of physical size `lx × ly`.
    pub fn rectangle(nx: usize, ny: usize, lx: f64, ly: f64) -> Self {
        Self { nx, ny, lx, ly }
    }

    /// Grid spacing along x. Nodes sit at `x_i = (i + 1) * dx`, `i ∈ [0, nx)`.
    #[inline]
    pub fn dx(&self) -> f64 {
        self.lx / (self.nx as f64 + 1.0)
    }

    /// Grid spacing along y.
    #[inline]
    pub fn dy(&self) -> f64 {
        self.ly / (self.ny as f64 + 1.0)
    }

    /// Total number of interior nodes.
    #[inline]
    pub fn len(&self) -> usize {
        self.nx * self.ny
    }

    /// True when the grid has no interior nodes.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Row-major linear index of the interior node `(i, j)` (x-index `i`, y-index `j`).
    #[inline]
    pub fn idx(&self, i: usize, j: usize) -> usize {
        debug_assert!(i < self.nx && j < self.ny);
        j * self.nx + i
    }

    /// Physical coordinates of the interior node `(i, j)`.
    #[inline]
    pub fn coords(&self, i: usize, j: usize) -> (f64, f64) {
        ((i as f64 + 1.0) * self.dx(), (j as f64 + 1.0) * self.dy())
    }

    /// Iterator over all interior node indices `(i, j)` in row-major order.
    pub fn nodes(&self) -> impl Iterator<Item = (usize, usize)> + '_ {
        let nx = self.nx;
        (0..self.ny).flat_map(move |j| (0..nx).map(move |i| (i, j)))
    }
}

/// A scalar field (e.g. temperature) defined on the interior nodes of a [`Grid2D`].
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct Field {
    grid: Grid2D,
    values: Vec<f64>,
}

impl Field {
    /// Creates a field filled with a constant value.
    pub fn constant(grid: Grid2D, value: f64) -> Self {
        Self {
            grid,
            values: vec![value; grid.len()],
        }
    }

    /// Creates a field filled with zeros.
    pub fn zeros(grid: Grid2D) -> Self {
        Self::constant(grid, 0.0)
    }

    /// Creates a field from raw row-major values.
    ///
    /// # Panics
    /// Panics when the number of values does not match the grid size.
    pub fn from_values(grid: Grid2D, values: Vec<f64>) -> Self {
        assert_eq!(
            values.len(),
            grid.len(),
            "field values must match grid size"
        );
        Self { grid, values }
    }

    /// Creates a field by evaluating `f(x, y)` at each interior node.
    pub fn from_fn(grid: Grid2D, mut f: impl FnMut(f64, f64) -> f64) -> Self {
        let mut values = Vec::with_capacity(grid.len());
        for j in 0..grid.ny {
            for i in 0..grid.nx {
                let (x, y) = grid.coords(i, j);
                values.push(f(x, y));
            }
        }
        Self { grid, values }
    }

    /// The grid this field is defined on.
    #[inline]
    pub fn grid(&self) -> Grid2D {
        self.grid
    }

    /// Number of values in the field.
    #[inline]
    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// True when the field holds no values.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }

    /// Raw row-major values.
    #[inline]
    pub fn values(&self) -> &[f64] {
        &self.values
    }

    /// Mutable raw row-major values.
    #[inline]
    pub fn values_mut(&mut self) -> &mut [f64] {
        &mut self.values
    }

    /// Value at interior node `(i, j)`.
    #[inline]
    pub fn get(&self, i: usize, j: usize) -> f64 {
        self.values[self.grid.idx(i, j)]
    }

    /// Sets the value at interior node `(i, j)`.
    #[inline]
    pub fn set(&mut self, i: usize, j: usize, value: f64) {
        let idx = self.grid.idx(i, j);
        self.values[idx] = value;
    }

    /// Minimum value of the field (NaN-free fields assumed).
    pub fn min(&self) -> f64 {
        self.values.iter().copied().fold(f64::INFINITY, f64::min)
    }

    /// Maximum value of the field.
    pub fn max(&self) -> f64 {
        self.values
            .iter()
            .copied()
            .fold(f64::NEG_INFINITY, f64::max)
    }

    /// Mean value of the field.
    pub fn mean(&self) -> f64 {
        if self.values.is_empty() {
            return 0.0;
        }
        self.values.iter().sum::<f64>() / self.values.len() as f64
    }

    /// Root-mean-square difference with another field defined on the same grid.
    ///
    /// # Panics
    /// Panics when the fields have different sizes.
    pub fn rms_diff(&self, other: &Field) -> f64 {
        assert_eq!(self.values.len(), other.values.len());
        if self.values.is_empty() {
            return 0.0;
        }
        let sum: f64 = self
            .values
            .iter()
            .zip(&other.values)
            .map(|(a, b)| (a - b) * (a - b))
            .sum();
        (sum / self.values.len() as f64).sqrt()
    }

    /// Down-converts to `f32`, the precision streamed to the training server
    /// (the paper gathers on rank zero and converts from 64 to 32 bits in situ).
    pub fn to_f32(&self) -> Vec<f32> {
        self.values.iter().map(|&v| v as f32).collect()
    }

    /// True when every value is finite.
    pub fn is_finite(&self) -> bool {
        self.values.iter().all(|v| v.is_finite())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn grid_spacing_and_indexing() {
        let grid = Grid2D::unit_square(9, 4);
        assert!((grid.dx() - 0.1).abs() < 1e-12);
        assert!((grid.dy() - 0.2).abs() < 1e-12);
        assert_eq!(grid.len(), 36);
        assert_eq!(grid.idx(0, 0), 0);
        assert_eq!(grid.idx(8, 0), 8);
        assert_eq!(grid.idx(0, 1), 9);
        assert_eq!(grid.idx(8, 3), 35);
    }

    #[test]
    fn grid_coords_are_interior() {
        let grid = Grid2D::unit_square(3, 3);
        let (x0, y0) = grid.coords(0, 0);
        let (x2, y2) = grid.coords(2, 2);
        assert!(x0 > 0.0 && y0 > 0.0);
        assert!(x2 < 1.0 && y2 < 1.0);
    }

    #[test]
    fn grid_nodes_iterates_row_major() {
        let grid = Grid2D::unit_square(2, 2);
        let nodes: Vec<_> = grid.nodes().collect();
        assert_eq!(nodes, vec![(0, 0), (1, 0), (0, 1), (1, 1)]);
    }

    #[test]
    fn field_constant_and_stats() {
        let grid = Grid2D::unit_square(4, 4);
        let f = Field::constant(grid, 300.0);
        assert_eq!(f.len(), 16);
        assert_eq!(f.min(), 300.0);
        assert_eq!(f.max(), 300.0);
        assert!((f.mean() - 300.0).abs() < 1e-12);
    }

    #[test]
    fn field_from_fn_evaluates_coordinates() {
        let grid = Grid2D::unit_square(3, 3);
        let f = Field::from_fn(grid, |x, y| x + 10.0 * y);
        // node (0,0) is at (0.25, 0.25)
        assert!((f.get(0, 0) - (0.25 + 2.5)).abs() < 1e-12);
        // node (2,2) is at (0.75, 0.75)
        assert!((f.get(2, 2) - (0.75 + 7.5)).abs() < 1e-12);
    }

    #[test]
    fn field_set_get_roundtrip() {
        let grid = Grid2D::unit_square(5, 3);
        let mut f = Field::zeros(grid);
        f.set(4, 2, 42.0);
        assert_eq!(f.get(4, 2), 42.0);
        assert_eq!(f.values()[grid.idx(4, 2)], 42.0);
    }

    #[test]
    fn field_rms_and_max_diff() {
        let grid = Grid2D::unit_square(2, 2);
        let a = Field::constant(grid, 1.0);
        let b = Field::constant(grid, 3.0);
        assert!((a.rms_diff(&b) - 2.0).abs() < 1e-12);
    }

    #[test]
    fn field_to_f32_preserves_length() {
        let grid = Grid2D::unit_square(7, 5);
        let f = Field::from_fn(grid, |x, y| 100.0 * x * y);
        let v = f.to_f32();
        assert_eq!(v.len(), f.len());
    }

    #[test]
    #[should_panic(expected = "field values must match grid size")]
    fn field_from_values_checks_len() {
        let grid = Grid2D::unit_square(2, 2);
        let _ = Field::from_values(grid, vec![0.0; 3]);
    }
}
