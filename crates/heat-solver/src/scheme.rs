//! Time-integration schemes for the heat equation.
//!
//! The paper's solver uses an implicit Euler scheme; [`ImplicitEuler`] reproduces
//! it with a matrix-free conjugate-gradient solve per step. [`ExplicitEuler`] and
//! [`AdiScheme`] (Peaceman–Rachford alternating-direction implicit) are cheaper
//! alternatives used for cross-validation and for generating large synthetic
//! ensembles quickly in tests and benchmarks.

use crate::boundary::BoundaryConditions;
use crate::grid::{Field, Grid2D};
use crate::linalg::{CgReport, CgWorkspace, ConjugateGradient, HeatOperator, ThomasSolver};

/// A single-step time integrator advancing the temperature field by `Δt`.
pub trait TimeScheme: Send + Sync {
    /// Advances `field` in place by one time step.
    fn step(&self, field: &mut Field, bc: &BoundaryConditions);

    /// Human-readable scheme name (used in reports).
    fn name(&self) -> &'static str;
}

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

    /// Advances the field and returns the CG convergence report for the step:
    /// a one-step use of [`ImplicitStepper`].
    pub fn step_with_report(&self, field: &mut Field, bc: &BoundaryConditions) -> CgReport {
        ImplicitStepper::new(self, field.grid(), bc).step(field)
    }
}

impl TimeScheme for ImplicitEuler {
    fn step(&self, field: &mut Field, bc: &BoundaryConditions) {
        let report = self.step_with_report(field, bc);
        debug_assert!(
            report.converged,
            "implicit Euler CG solve did not converge: {report:?}"
        );
    }

    fn name(&self) -> &'static str {
        "implicit-euler-cg"
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
        let op = self.op;
        let apply = |v: &[f64], out: &mut [f64]| op.apply(v, out);
        self.cg
            .solve_with(apply, |sum| sum, &self.rhs, u, &mut self.workspace)
    }
}

/// Forward (explicit) Euler: conditionally stable
/// (`α Δt (1/dx² + 1/dy²) ≤ 1/2`), no linear solve.
#[derive(Debug, Clone, Copy)]
pub struct ExplicitEuler {
    /// Thermal diffusivity `α`.
    pub alpha: f64,
    /// Time step `Δt`.
    pub dt: f64,
}

impl ExplicitEuler {
    /// Creates the scheme.
    pub fn new(alpha: f64, dt: f64) -> Self {
        Self { alpha, dt }
    }

    /// Stability number `α Δt (1/dx² + 1/dy²)`; must be ≤ 0.5 for stability.
    pub fn stability_number(&self, grid: &Grid2D) -> f64 {
        let inv_dx2 = 1.0 / (grid.dx() * grid.dx());
        let inv_dy2 = 1.0 / (grid.dy() * grid.dy());
        self.alpha * self.dt * (inv_dx2 + inv_dy2)
    }

    /// True when the scheme is stable on the given grid.
    pub fn is_stable(&self, grid: &Grid2D) -> bool {
        self.stability_number(grid) <= 0.5 + 1e-12
    }

    /// Largest stable time step on the given grid.
    pub fn max_stable_dt(alpha: f64, grid: &Grid2D) -> f64 {
        let inv_dx2 = 1.0 / (grid.dx() * grid.dx());
        let inv_dy2 = 1.0 / (grid.dy() * grid.dy());
        0.5 / (alpha * (inv_dx2 + inv_dy2))
    }
}

impl TimeScheme for ExplicitEuler {
    fn step(&self, field: &mut Field, bc: &BoundaryConditions) {
        let grid = field.grid();
        let nx = grid.nx;
        let ny = grid.ny;
        let inv_dx2 = 1.0 / (grid.dx() * grid.dx());
        let inv_dy2 = 1.0 / (grid.dy() * grid.dy());
        let c = self.alpha * self.dt;
        let u = field.values().to_vec();
        let out = field.values_mut();
        for j in 0..ny {
            for i in 0..nx {
                let k = j * nx + i;
                let west = if i > 0 { u[k - 1] } else { bc.west };
                let east = if i + 1 < nx { u[k + 1] } else { bc.east };
                let south = if j > 0 { u[k - nx] } else { bc.south };
                let north = if j + 1 < ny { u[k + nx] } else { bc.north };
                let lap =
                    (west + east - 2.0 * u[k]) * inv_dx2 + (south + north - 2.0 * u[k]) * inv_dy2;
                out[k] = u[k] + c * lap;
            }
        }
    }

    fn name(&self) -> &'static str {
        "explicit-euler"
    }
}

/// Peaceman–Rachford alternating-direction implicit scheme: unconditionally
/// stable, two tridiagonal sweeps per step (Thomas algorithm), O(N) per step.
#[derive(Debug, Clone, Copy)]
pub struct AdiScheme {
    /// Thermal diffusivity `α`.
    pub alpha: f64,
    /// Time step `Δt`.
    pub dt: f64,
}

impl AdiScheme {
    /// Creates the scheme.
    pub fn new(alpha: f64, dt: f64) -> Self {
        Self { alpha, dt }
    }
}

impl TimeScheme for AdiScheme {
    fn step(&self, field: &mut Field, bc: &BoundaryConditions) {
        let grid = field.grid();
        let nx = grid.nx;
        let ny = grid.ny;
        let rx = 0.5 * self.alpha * self.dt / (grid.dx() * grid.dx());
        let ry = 0.5 * self.alpha * self.dt / (grid.dy() * grid.dy());
        let thomas = ThomasSolver;

        let u = field.values().to_vec();
        let mut half = vec![0.0; nx * ny];

        // First half-step: implicit along x, explicit along y.
        {
            let mut rhs = vec![0.0; nx];
            let mut scratch = vec![0.0; nx];
            for j in 0..ny {
                for (i, slot) in rhs.iter_mut().enumerate() {
                    let k = j * nx + i;
                    let south = if j > 0 { u[k - nx] } else { bc.south };
                    let north = if j + 1 < ny { u[k + nx] } else { bc.north };
                    let mut r = u[k] + ry * (south - 2.0 * u[k] + north);
                    // Dirichlet contributions of the implicit x-direction.
                    if i == 0 {
                        r += rx * bc.west;
                    }
                    if i + 1 == nx {
                        r += rx * bc.east;
                    }
                    *slot = r;
                }
                thomas.solve_constant(1.0 + 2.0 * rx, -rx, &mut rhs, &mut scratch);
                half[j * nx..(j + 1) * nx].copy_from_slice(&rhs);
            }
        }

        // Second half-step: implicit along y, explicit along x.
        {
            let mut rhs = vec![0.0; ny];
            let mut scratch = vec![0.0; ny];
            let out = field.values_mut();
            for i in 0..nx {
                for (j, slot) in rhs.iter_mut().enumerate() {
                    let k = j * nx + i;
                    let west = if i > 0 { half[k - 1] } else { bc.west };
                    let east = if i + 1 < nx { half[k + 1] } else { bc.east };
                    let mut r = half[k] + rx * (west - 2.0 * half[k] + east);
                    if j == 0 {
                        r += ry * bc.south;
                    }
                    if j + 1 == ny {
                        r += ry * bc.north;
                    }
                    *slot = r;
                }
                thomas.solve_constant(1.0 + 2.0 * ry, -ry, &mut rhs, &mut scratch);
                for j in 0..ny {
                    out[j * nx + i] = rhs[j];
                }
            }
        }
    }

    fn name(&self) -> &'static str {
        "adi-peaceman-rachford"
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
            let report = scheme.step_with_report(&mut field, &bc);
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
    fn explicit_stability_number() {
        let grid = Grid2D::unit_square(9, 9);
        let stable = ExplicitEuler::new(1.0, ExplicitEuler::max_stable_dt(1.0, &grid) * 0.99);
        let unstable = ExplicitEuler::new(1.0, ExplicitEuler::max_stable_dt(1.0, &grid) * 1.5);
        assert!(stable.is_stable(&grid));
        assert!(!unstable.is_stable(&grid));
    }

    #[test]
    fn explicit_and_implicit_agree_for_small_dt() {
        let grid = Grid2D::unit_square(8, 8);
        let dt = ExplicitEuler::max_stable_dt(1.0, &grid) * 0.4;
        let bc = BoundaryConditions {
            west: 150.0,
            east: 450.0,
            south: 300.0,
            north: 300.0,
        };
        let mut f_exp = Field::constant(grid, 300.0);
        let mut f_imp = Field::constant(grid, 300.0);
        let explicit = ExplicitEuler::new(1.0, dt);
        let implicit = ImplicitEuler::new(1.0, dt);
        for _ in 0..50 {
            explicit.step(&mut f_exp, &bc);
            implicit.step(&mut f_imp, &bc);
        }
        // Both are first order in time; with a small dt they track each other.
        assert!(
            f_exp.rms_diff(&f_imp) < 1.0,
            "rms {}",
            f_exp.rms_diff(&f_imp)
        );
    }

    #[test]
    fn adi_and_implicit_converge_to_same_steady_state() {
        let grid = Grid2D::unit_square(10, 10);
        let bc = BoundaryConditions {
            west: 100.0,
            east: 500.0,
            south: 200.0,
            north: 400.0,
        };
        let mut f_adi = Field::constant(grid, 300.0);
        let mut f_imp = Field::constant(grid, 300.0);
        let adi = AdiScheme::new(1.0, 0.02);
        let imp = ImplicitEuler::new(1.0, 0.02);
        for _ in 0..600 {
            adi.step(&mut f_adi, &bc);
            imp.step(&mut f_imp, &bc);
        }
        assert!(
            f_adi.rms_diff(&f_imp) < 1e-2,
            "rms {}",
            f_adi.rms_diff(&f_imp)
        );
    }

    #[test]
    fn adi_stays_near_physical_bounds() {
        // Peaceman–Rachford is unconditionally stable but not strictly monotone:
        // for large diffusion numbers it oscillates around the solution. With a
        // moderate time step the overshoot stays small relative to the 200 K span.
        let (mut field, bc) = setup(16);
        let scheme = AdiScheme::new(1.0, 0.01);
        for _ in 0..50 {
            scheme.step(&mut field, &bc);
            assert!(field.min() >= 200.0 - 2.0, "min {}", field.min());
            assert!(field.max() <= 400.0 + 2.0, "max {}", field.max());
        }
    }

    #[test]
    fn scheme_names_are_distinct() {
        let a = ImplicitEuler::new(1.0, 0.01);
        let b = ExplicitEuler::new(1.0, 0.01);
        let c = AdiScheme::new(1.0, 0.01);
        assert_ne!(a.name(), b.name());
        assert_ne!(b.name(), c.name());
        assert_ne!(a.name(), c.name());
    }

    #[test]
    fn uniform_boundary_and_ic_is_a_fixed_point() {
        let grid = Grid2D::unit_square(6, 6);
        let bc = BoundaryConditions::uniform(300.0);
        for scheme in [
            Box::new(ImplicitEuler::new(1.0, 0.01)) as Box<dyn TimeScheme>,
            Box::new(ExplicitEuler::new(1.0, 1e-4)),
            Box::new(AdiScheme::new(1.0, 0.01)),
        ] {
            let mut field = Field::constant(grid, 300.0);
            scheme.step(&mut field, &bc);
            for &v in field.values() {
                assert!(
                    (v - 300.0).abs() < 1e-9,
                    "{} broke fixed point",
                    scheme.name()
                );
            }
        }
    }
}
