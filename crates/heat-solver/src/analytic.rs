//! Analytic and semi-analytic reference solutions used to validate the solver.
//!
//! Two families of references are provided:
//!
//! * **Discrete sine modes.** With homogeneous Dirichlet boundaries, the grid
//!   function `sin(kx π x / lx) · sin(ky π y / ly)` is an exact eigenvector of
//!   the 5-point discrete Laplacian, so implicit Euler must damp it by an
//!   exactly known factor per step. This gives a machine-precision test of the
//!   time integrator.
//! * **Steady states.** For constant Dirichlet boundaries the solution converges
//!   to the solution of the Laplace equation; [`steady_state`] computes it by
//!   driving the implicit scheme with large time steps, and
//!   [`bilinear_boundary_blend`] provides a cheap closed-form approximation used
//!   by the synthetic workload generator.

use crate::boundary::BoundaryConditions;
use crate::grid::{Field, Grid2D};
use crate::scheme::ImplicitEuler;
use std::f64::consts::PI;

/// The discrete sine mode `sin(kx π x / lx) · sin(ky π y / ly)` on the grid.
pub fn sine_mode(grid: Grid2D, kx: usize, ky: usize) -> Field {
    Field::from_fn(grid, |x, y| {
        (kx as f64 * PI * x / grid.lx).sin() * (ky as f64 * PI * y / grid.ly).sin()
    })
}

/// Exact eigenvalue of the (negated) 5-point discrete Laplacian for mode `(kx, ky)`.
///
/// The mode satisfies `-L_h u = λ u` with
/// `λ = 2/dx² (1 - cos(kx π dx / lx)) + 2/dy² (1 - cos(ky π dy / ly))`.
pub fn discrete_laplacian_eigenvalue(grid: Grid2D, kx: usize, ky: usize) -> f64 {
    let dx = grid.dx();
    let dy = grid.dy();
    let lx = 2.0 / (dx * dx) * (1.0 - (kx as f64 * PI * dx / grid.lx).cos());
    let ly = 2.0 / (dy * dy) * (1.0 - (ky as f64 * PI * dy / grid.ly).cos());
    lx + ly
}

/// Per-step damping factor of implicit Euler on an eigenmode with eigenvalue `lambda`.
pub fn implicit_decay_factor(alpha: f64, dt: f64, lambda: f64) -> f64 {
    1.0 / (1.0 + alpha * dt * lambda)
}

/// Continuous-equation eigenvalue of mode `(kx, ky)` (for discretisation-error studies).
pub fn continuous_eigenvalue(grid: Grid2D, kx: usize, ky: usize) -> f64 {
    let wx = kx as f64 * PI / grid.lx;
    let wy = ky as f64 * PI / grid.ly;
    wx * wx + wy * wy
}

/// Steady-state solution of the Dirichlet problem computed by driving the
/// implicit scheme with a large time step until the update stalls.
pub fn steady_state(grid: Grid2D, bc: &BoundaryConditions, tolerance: f64) -> Field {
    let mut field = Field::constant(grid, bc.mean());
    // A large Δt makes each implicit step close to a direct Laplace solve.
    let scheme = ImplicitEuler::new(1.0, 1.0e3);
    let mut previous = field.clone();
    for _ in 0..200 {
        scheme.step(&mut field, bc);
        if field.rms_diff(&previous) < tolerance {
            break;
        }
        previous = field.clone();
    }
    field
}

/// Closed-form boundary blend used as a cheap stand-in for the steady state:
/// a distance-weighted average of the four edge temperatures.
pub fn bilinear_boundary_blend(grid: Grid2D, bc: &BoundaryConditions, x: f64, y: f64) -> f64 {
    let tx = x / grid.lx;
    let ty = y / grid.ly;
    // Inverse-distance-like weights to each edge; edges further away count less.
    let ww = (1.0 - tx).max(0.0);
    let we = tx.max(0.0);
    let ws = (1.0 - ty).max(0.0);
    let wn = ty.max(0.0);
    let total = ww + we + ws + wn;
    (bc.west * ww + bc.east * we + bc.south * ws + bc.north * wn) / total
}

/// Cheap closed-form approximation of the transient solution used by the
/// synthetic workload: the boundary blend plus an exponentially decaying
/// contribution of the initial condition (first-mode decay rate).
///
/// This is the per-cell definition; [`TransientTable`] evaluates the same
/// expression, in the same association order, for a whole trajectory.
pub fn approximate_transient(
    grid: Grid2D,
    bc: &BoundaryConditions,
    t_initial: f64,
    alpha: f64,
    time: f64,
    x: f64,
    y: f64,
) -> f64 {
    let steady = bilinear_boundary_blend(grid, bc, x, y);
    let lambda = continuous_eigenvalue(grid, 1, 1);
    let shape = (PI * x / grid.lx).sin() * (PI * y / grid.ly).sin();
    steady + (t_initial - steady) * shape * (-alpha * lambda * time).exp()
}

/// [`approximate_transient`] with everything that is constant over one
/// trajectory evaluated once: per cell the steady blend and the amplitude
/// `(t_initial − steady) · shape` of the decaying mode, per trajectory the
/// decay rate `−αλ`. A time step is then one `exp` and one multiply-add per
/// cell, and every value is bit-identical to the per-cell function.
#[derive(Debug, Clone)]
pub struct TransientTable {
    steady: Vec<f64>,
    amplitude: Vec<f64>,
    rate: f64,
}

impl TransientTable {
    /// Builds the tables of one trajectory (row-major, like a [`Field`]).
    pub fn new(grid: Grid2D, bc: &BoundaryConditions, t_initial: f64, alpha: f64) -> Self {
        let sin_x: Vec<f64> = (0..grid.nx)
            .map(|i| (PI * grid.coords(i, 0).0 / grid.lx).sin())
            .collect();
        let mut steady = Vec::with_capacity(grid.len());
        let mut amplitude = Vec::with_capacity(grid.len());
        for j in 0..grid.ny {
            let sin_y = (PI * grid.coords(0, j).1 / grid.ly).sin();
            for (i, sin_x) in sin_x.iter().enumerate() {
                let (x, y) = grid.coords(i, j);
                let blend = bilinear_boundary_blend(grid, bc, x, y);
                steady.push(blend);
                amplitude.push((t_initial - blend) * (sin_x * sin_y));
            }
        }
        Self {
            steady,
            amplitude,
            rate: -alpha * continuous_eigenvalue(grid, 1, 1),
        }
    }

    /// The field at `time`, down-converted to `f32`.
    // analysis: hot_path
    pub fn at(&self, time: f64) -> Vec<f32> {
        let decay = (self.rate * time).exp();
        let cells = self.steady.iter().zip(&self.amplitude);
        let field = cells.map(|(steady, amplitude)| (steady + amplitude * decay) as f32);
        // analysis: allow(alloc, reason = "the one vector per step that travels downstream as the sample")
        field.collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sine_mode_vanishes_near_boundary_symmetrically() {
        let grid = Grid2D::unit_square(15, 15);
        let mode = sine_mode(grid, 1, 1);
        // Symmetric about the centre.
        assert!((mode.get(0, 0) - mode.get(14, 14)).abs() < 1e-12);
        // Positive in the interior for the fundamental mode.
        assert!(mode.values().iter().all(|&v| v > 0.0));
    }

    #[test]
    fn implicit_euler_damps_eigenmode_exactly() {
        let grid = Grid2D::unit_square(12, 12);
        let bc = BoundaryConditions::uniform(0.0);
        let alpha = 1.0;
        let dt = 0.01;
        let lambda = discrete_laplacian_eigenvalue(grid, 1, 1);
        let factor = implicit_decay_factor(alpha, dt, lambda);

        let mode = sine_mode(grid, 1, 1);
        let mut field = mode.clone();
        let scheme = ImplicitEuler::new(alpha, dt);
        let steps = 5;
        for _ in 0..steps {
            scheme.step(&mut field, &bc);
        }
        let expected_scale = factor.powi(steps);
        let expected = Field::from_values(
            grid,
            mode.values().iter().map(|v| v * expected_scale).collect(),
        );
        assert!(
            field.rms_diff(&expected) < 1e-7,
            "rms {}",
            field.rms_diff(&expected)
        );
    }

    #[test]
    fn discrete_eigenvalue_approaches_continuous_with_resolution() {
        let coarse = Grid2D::unit_square(8, 8);
        let fine = Grid2D::unit_square(64, 64);
        let exact = continuous_eigenvalue(fine, 1, 1);
        let err_coarse = (discrete_laplacian_eigenvalue(coarse, 1, 1) - exact).abs();
        let err_fine = (discrete_laplacian_eigenvalue(fine, 1, 1) - exact).abs();
        assert!(err_fine < err_coarse);
    }

    #[test]
    fn steady_state_with_uniform_boundary_is_constant() {
        let grid = Grid2D::unit_square(8, 8);
        let bc = BoundaryConditions::uniform(321.0);
        let ss = steady_state(grid, &bc, 1e-10);
        assert!((ss.min() - 321.0).abs() < 1e-6);
        assert!((ss.max() - 321.0).abs() < 1e-6);
    }

    #[test]
    fn steady_state_is_bounded_by_boundary_extremes() {
        let grid = Grid2D::unit_square(10, 10);
        let bc = BoundaryConditions {
            west: 100.0,
            east: 500.0,
            south: 200.0,
            north: 400.0,
        };
        let ss = steady_state(grid, &bc, 1e-9);
        assert!(ss.min() >= 100.0 - 1e-6);
        assert!(ss.max() <= 500.0 + 1e-6);
    }

    #[test]
    fn boundary_blend_interpolates_edges() {
        let grid = Grid2D::unit_square(10, 10);
        let bc = BoundaryConditions {
            west: 100.0,
            east: 300.0,
            south: 200.0,
            north: 200.0,
        };
        let near_west = bilinear_boundary_blend(grid, &bc, 0.01, 0.5);
        let near_east = bilinear_boundary_blend(grid, &bc, 0.99, 0.5);
        assert!(near_west < near_east);
        let centre = bilinear_boundary_blend(grid, &bc, 0.5, 0.5);
        assert!((centre - 200.0).abs() < 1.0);
    }

    #[test]
    fn approximate_transient_converges_to_blend() {
        let grid = Grid2D::unit_square(10, 10);
        let bc = BoundaryConditions {
            west: 150.0,
            east: 250.0,
            south: 180.0,
            north: 220.0,
        };
        let early = approximate_transient(grid, &bc, 500.0, 1.0, 0.0, 0.5, 0.5);
        let late = approximate_transient(grid, &bc, 500.0, 1.0, 100.0, 0.5, 0.5);
        let blend = bilinear_boundary_blend(grid, &bc, 0.5, 0.5);
        assert!((late - blend).abs() < 1e-6);
        assert!(early > late, "initial condition should dominate early on");
    }
}
