//! Dirichlet boundary conditions of the heat problem.
//!
//! Equation 2 of the paper imposes constant temperatures on the four edges of
//! the rectangular domain and a constant initial temperature. This module turns
//! a [`SimulationParams`] into the boundary contributions entering the
//! finite-difference stencils.

use crate::grid::Grid2D;
use crate::params::SimulationParams;
use serde::Serialize;

/// The four constant Dirichlet boundary temperatures.
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
pub struct BoundaryConditions {
    /// Temperature on the `x = 0` edge (`T_x1`).
    pub west: f64,
    /// Temperature on the `x = L` edge (`T_x2`).
    pub east: f64,
    /// Temperature on the `y = 0` edge (`T_y1`).
    pub south: f64,
    /// Temperature on the `y = L` edge (`T_y2`).
    pub north: f64,
}

impl BoundaryConditions {
    /// Extracts the boundary temperatures from the sampled parameters.
    pub fn from_params(params: &SimulationParams) -> Self {
        Self {
            west: params.t_x1,
            east: params.t_x2,
            south: params.t_y1,
            north: params.t_y2,
        }
    }

    /// Uniform boundary (all four edges at the same temperature).
    pub fn uniform(value: f64) -> Self {
        Self {
            west: value,
            east: value,
            south: value,
            north: value,
        }
    }

    /// Mean of the four edge temperatures.
    pub fn mean(&self) -> f64 {
        (self.west + self.east + self.south + self.north) / 4.0
    }

    /// The boundary temperature seen by the interior node `(i, j)` through its
    /// *west* neighbour, or `None` when that neighbour is interior.
    #[inline]
    pub fn west_of(&self, i: usize) -> Option<f64> {
        (i == 0).then_some(self.west)
    }

    /// The boundary temperature seen through the *east* neighbour.
    #[inline]
    pub fn east_of(&self, i: usize, grid: &Grid2D) -> Option<f64> {
        (i + 1 == grid.nx).then_some(self.east)
    }

    /// The boundary temperature seen through the *south* neighbour.
    #[inline]
    pub fn south_of(&self, j: usize) -> Option<f64> {
        (j == 0).then_some(self.south)
    }

    /// The boundary temperature seen through the *north* neighbour.
    #[inline]
    pub fn north_of(&self, j: usize, grid: &Grid2D) -> Option<f64> {
        (j + 1 == grid.ny).then_some(self.north)
    }

    /// Sum of the boundary contributions entering the 5-point Laplacian at node
    /// `(i, j)`, weighted by the inverse squared spacings.
    ///
    /// For a node adjacent to one or more edges, the discrete Laplacian reads
    /// `(T_w + T_e - 2T)/dx² + (T_s + T_n - 2T)/dy²` where off-grid neighbours
    /// take the Dirichlet value. This function returns the sum of those
    /// off-grid Dirichlet terms divided by the appropriate `dx²`/`dy²`.
    pub fn laplacian_contribution(&self, grid: &Grid2D, i: usize, j: usize) -> f64 {
        let inv_dx2 = 1.0 / (grid.dx() * grid.dx());
        let inv_dy2 = 1.0 / (grid.dy() * grid.dy());
        let mut acc = 0.0;
        if let Some(t) = self.west_of(i) {
            acc += t * inv_dx2;
        }
        if let Some(t) = self.east_of(i, grid) {
            acc += t * inv_dx2;
        }
        if let Some(t) = self.south_of(j) {
            acc += t * inv_dy2;
        }
        if let Some(t) = self.north_of(j, grid) {
            acc += t * inv_dy2;
        }
        acc
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn params() -> SimulationParams {
        SimulationParams::new([300.0, 110.0, 120.0, 130.0, 140.0])
    }

    #[test]
    fn from_params_maps_edges() {
        let bc = BoundaryConditions::from_params(&params());
        assert_eq!(bc.west, 110.0);
        assert_eq!(bc.south, 120.0);
        assert_eq!(bc.east, 130.0);
        assert_eq!(bc.north, 140.0);
        assert!((bc.mean() - 125.0).abs() < 1e-12);
    }

    #[test]
    fn edge_detection() {
        let grid = Grid2D::unit_square(4, 3);
        let bc = BoundaryConditions::from_params(&params());
        assert_eq!(bc.west_of(0), Some(110.0));
        assert_eq!(bc.west_of(1), None);
        assert_eq!(bc.east_of(3, &grid), Some(130.0));
        assert_eq!(bc.east_of(2, &grid), None);
        assert_eq!(bc.south_of(0), Some(120.0));
        assert_eq!(bc.north_of(2, &grid), Some(140.0));
        assert_eq!(bc.north_of(1, &grid), None);
    }

    #[test]
    fn interior_node_has_no_contribution() {
        let grid = Grid2D::unit_square(5, 5);
        let bc = BoundaryConditions::from_params(&params());
        assert_eq!(bc.laplacian_contribution(&grid, 2, 2), 0.0);
    }

    #[test]
    fn corner_node_sees_two_edges() {
        let grid = Grid2D::unit_square(3, 3);
        let bc = BoundaryConditions::uniform(200.0);
        let inv_dx2 = 1.0 / (grid.dx() * grid.dx());
        let inv_dy2 = 1.0 / (grid.dy() * grid.dy());
        let c = bc.laplacian_contribution(&grid, 0, 0);
        assert!((c - 200.0 * (inv_dx2 + inv_dy2)).abs() < 1e-9);
    }

    #[test]
    fn uniform_boundary_mean() {
        let bc = BoundaryConditions::uniform(321.0);
        assert_eq!(bc.mean(), 321.0);
    }
}
