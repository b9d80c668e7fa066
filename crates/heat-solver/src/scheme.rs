//! The time integrator of the heat equation.
//!
//! The paper's solver uses an implicit Euler scheme; [`ImplicitEuler`] reproduces
//! it with a matrix-free conjugate-gradient solve per step, and
//! [`ImplicitStepper`] binds it to one trajectory.

use crate::boundary::BoundaryConditions;
use crate::grid::{Field, Grid2D};
use crate::linalg::{CgReport, CgWorkspace, ConjugateGradient, HeatOperator};

/// Backward (implicit) Euler: unconditionally stable, one SPD solve per step.
#[derive(Debug, Clone, Copy)]
pub struct ImplicitEuler {
    /// Thermal diffusivity `α`.
    pub alpha: f64,
    /// Time step `Δt`.
    pub dt: f64,
    /// Linear solver configuration.
    pub cg: ConjugateGradient,
}

impl ImplicitEuler {
    /// Creates the scheme with the default CG tolerance.
    pub fn new(alpha: f64, dt: f64) -> Self {
        Self {
            alpha,
            dt,
            cg: ConjugateGradient::default(),
        }
    }

    /// Advances `field` in place by one time step and returns the CG
    /// convergence report for it: a one-step use of [`ImplicitStepper`].
    pub fn step(&self, field: &mut Field, bc: &BoundaryConditions) -> CgReport {
        ImplicitStepper::new(self, field.grid(), bc).step(field)
    }
}

/// [`ImplicitEuler`] bound to one grid and one set of boundary temperatures:
/// everything a trajectory computes once — the operator's coefficients, the
/// Dirichlet contribution `α Δt b` to every right-hand side — and the vectors
/// each step's CG solve works in.
#[derive(Debug, Clone)]
pub struct ImplicitStepper {
    op: HeatOperator,
    cg: ConjugateGradient,
    boundary: Vec<f64>,
    rhs: Vec<f64>,
    workspace: CgWorkspace,
}

impl ImplicitStepper {
    /// Binds `scheme` to `grid` and `bc`.
    pub fn new(scheme: &ImplicitEuler, grid: Grid2D, bc: &BoundaryConditions) -> Self {
        let c = scheme.alpha * scheme.dt;
        let mut boundary = Vec::with_capacity(grid.len());
        boundary.extend(
            grid.nodes()
                .map(|(i, j)| c * bc.laplacian_contribution(&grid, i, j)),
        );
        Self {
            op: HeatOperator::new(grid, scheme.alpha, scheme.dt),
            cg: scheme.cg,
            boundary,
            rhs: vec![0.0; grid.len()],
            workspace: CgWorkspace::default(),
        }
    }

    /// Advances `field` (on the stepper's grid) by one time step, solving
    /// `A u = u^n + α Δt b` warm-started from `u^n`: the solution changes
    /// little per step.
    pub fn step(&mut self, field: &mut Field) -> CgReport {
        let u = field.values_mut();
        for ((rhs, u), b) in self.rhs.iter_mut().zip(u.iter()).zip(&self.boundary) {
            *rhs = u + b;
        }
        self.cg
            .solve_with(&self.op, &self.rhs, u, &mut self.workspace)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::grid::{Field, Grid2D};

    fn setup(n: usize) -> (Field, BoundaryConditions) {
        let grid = Grid2D::unit_square(n, n);
        let field = Field::constant(grid, 300.0);
        let bc = BoundaryConditions {
            west: 200.0,
            east: 400.0,
            south: 250.0,
            north: 350.0,
        };
        (field, bc)
    }

    /// One implicit step as it was before [`ImplicitStepper`]: the boundary
    /// vector rebuilt per step, the solve on the oracle kernels.
    fn oracle_step(field: &mut Field, bc: &BoundaryConditions, scheme: &ImplicitEuler) -> CgReport {
        let grid = field.grid();
        let c = scheme.alpha * scheme.dt;
        let rhs: Vec<f64> = grid
            .nodes()
            .zip(field.values())
            .map(|((i, j), u)| u + c * bc.laplacian_contribution(&grid, i, j))
            .collect();
        let (alpha, dt, tolerance) = (scheme.alpha, scheme.dt, scheme.cg.tolerance);
        crate::linalg::oracle::solve(grid, alpha, dt, tolerance, &rhs, field.values_mut())
    }

    /// The 64×64 × 100-step trajectory `solver_bound` streams, at its
    /// `cg_tolerance`: fields and iteration counts of every step.
    fn reference_trajectory(
        mut step: impl FnMut(&mut Field) -> CgReport,
    ) -> (Vec<Field>, Vec<usize>) {
        let mut field = Field::constant(Grid2D::unit_square(64, 64), 350.0);
        (0..100)
            .map(|_| {
                let report = step(&mut field);
                assert!(report.converged, "{report:?}");
                (field.clone(), report.iterations)
            })
            .unzip()
    }

    #[test]
    fn stepper_tracks_the_oracle_on_the_reference_trajectory() {
        let bc = BoundaryConditions {
            west: 150.0,
            east: 450.0,
            south: 250.0,
            north: 200.0,
        };
        let mut scheme = ImplicitEuler::new(1.0, 0.01);
        scheme.cg.tolerance = 1e-8;
        let (expected, oracle_iterations) =
            reference_trajectory(|field| oracle_step(field, &bc, &scheme));
        let run = || {
            let mut stepper = ImplicitStepper::new(&scheme, Grid2D::unit_square(64, 64), &bc);
            reference_trajectory(|field| stepper.step(field))
        };
        let (fields, iterations) = run();

        // While both solvers have stopped after the same number of iterations
        // on every step so far, the fields differ by rounding alone: 1e-6 K.
        // Two solves that stop one iteration apart differ by what the
        // tolerance leaves (a relative 1e-8 of ‖rhs‖ ≈ 2·10⁴ K), and they do
        // from step 13 on; an `f32` at these temperatures resolves 3·10⁻⁵ K.
        let same_history = (iterations.iter().zip(&oracle_iterations))
            .take_while(|(n, oracle)| n == oracle)
            .count();
        assert!(
            same_history >= 12,
            "{iterations:?} vs {oracle_iterations:?}"
        );
        for (step, (field, oracle)) in fields.iter().zip(&expected).enumerate() {
            let worst = field
                .values()
                .iter()
                .zip(oracle.values())
                .map(|(a, b)| (a - b).abs())
                .fold(0.0, f64::max);
            let bound = if step < same_history { 1e-6 } else { 3e-5 };
            assert!(worst < bound, "step {step}: {worst} K from the oracle");
        }

        // Same algorithm, other rounding: the work stays what it was.
        let (total, oracle_total): (usize, usize) =
            (iterations.iter().sum(), oracle_iterations.iter().sum());
        assert_eq!(oracle_total, 1800, "the oracle is the pre-stepper solver");
        assert!(
            total.abs_diff(oracle_total) * 50 <= oracle_total,
            "{total} iterations against the oracle's {oracle_total}"
        );
        assert_eq!(iterations[0], oracle_iterations[0]);
        // Near the steady state the warm start already meets the tolerance.
        assert!(iterations[80..].iter().all(|&n| n == 0), "{iterations:?}");

        // No run-to-run freedom: a second stepper repeats the first bit for bit.
        let (again, iterations_again) = run();
        assert_eq!(fields, again);
        assert_eq!(iterations, iterations_again);
    }

    #[test]
    fn stateless_step_is_one_step_of_the_stepper() {
        let (mut field, bc) = setup(12);
        let mut twin = field.clone();
        let scheme = ImplicitEuler::new(1.0, 0.01);
        let mut stepper = ImplicitStepper::new(&scheme, field.grid(), &bc);
        for _ in 0..3 {
            let report = scheme.step(&mut field, &bc);
            assert_eq!(report, stepper.step(&mut twin));
            assert_eq!(field, twin);
        }
    }

    #[test]
    fn implicit_step_keeps_values_within_extremes() {
        // Maximum principle: temperatures stay within [min, max] of IC ∪ boundary.
        let (mut field, bc) = setup(12);
        let scheme = ImplicitEuler::new(1.0, 0.01);
        for _ in 0..20 {
            scheme.step(&mut field, &bc);
            assert!(field.min() >= 200.0 - 1e-6, "min {}", field.min());
            assert!(field.max() <= 400.0 + 1e-6, "max {}", field.max());
        }
    }

    #[test]
    fn implicit_converges_to_steady_state_mean() {
        // With uniform boundary at T, the steady state is the constant field T.
        let grid = Grid2D::unit_square(10, 10);
        let mut field = Field::constant(grid, 500.0);
        let bc = BoundaryConditions::uniform(250.0);
        let scheme = ImplicitEuler::new(1.0, 0.05);
        for _ in 0..400 {
            scheme.step(&mut field, &bc);
        }
        assert!((field.mean() - 250.0).abs() < 1e-3, "mean {}", field.mean());
        assert!((field.max() - field.min()).abs() < 1e-3);
    }

    #[test]
    fn uniform_boundary_and_ic_is_a_fixed_point() {
        let grid = Grid2D::unit_square(6, 6);
        let bc = BoundaryConditions::uniform(300.0);
        let mut field = Field::constant(grid, 300.0);
        let report = ImplicitEuler::new(1.0, 0.01).step(&mut field, &bc);
        assert!(report.converged, "{report:?}");
        for &v in field.values() {
            assert!(
                (v - 300.0).abs() < 1e-9,
                "implicit Euler broke the fixed point"
            );
        }
    }
}
