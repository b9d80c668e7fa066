//! Property-based tests of the heat-equation solver substrate.

use heat_solver::analytic::approximate_transient;
use heat_solver::{
    BoundaryConditions, ConjugateGradient, Field, Grid2D, ImplicitEuler, ParameterSpace,
    SimulationParams, SolverConfig, SyntheticWorkload,
};
use proptest::prelude::*;

fn temperature() -> impl Strategy<Value = f64> {
    100.0f64..500.0
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Maximum principle: for any admissible parameters, the implicit solution
    /// stays within the envelope of the initial and boundary temperatures.
    #[test]
    fn implicit_euler_respects_maximum_principle(
        t_ic in temperature(),
        west in temperature(),
        east in temperature(),
        south in temperature(),
        north in temperature(),
        steps in 1usize..12,
    ) {
        let params = SimulationParams::new([t_ic, west, south, east, north]);
        let lo = params.min_temperature();
        let hi = params.max_temperature();
        let grid = Grid2D::unit_square(10, 10);
        let mut field = Field::constant(grid, t_ic);
        let bc = BoundaryConditions::from_params(&params);
        let scheme = ImplicitEuler::new(1.0, 0.01);
        for _ in 0..steps {
            scheme.step(&mut field, &bc);
            prop_assert!(field.min() >= lo - 1e-6, "min {} < {}", field.min(), lo);
            prop_assert!(field.max() <= hi + 1e-6, "max {} > {}", field.max(), hi);
        }
    }

    /// The conjugate-gradient solver recovers manufactured solutions on grids of
    /// arbitrary (small) shape.
    #[test]
    fn cg_recovers_manufactured_solutions(
        nx in 2usize..12,
        ny in 2usize..12,
        dt in 1e-4f64..0.1,
    ) {
        let grid = Grid2D::unit_square(nx, ny);
        let op = heat_solver::linalg::HeatOperator::new(grid, 1.0, dt);
        let x_true: Vec<f64> = (0..grid.len()).map(|k| ((k * 37 % 17) as f64) / 17.0 - 0.5).collect();
        let mut b = vec![0.0; grid.len()];
        op.apply(&x_true, &mut b);
        let mut x = vec![0.0; grid.len()];
        let report = ConjugateGradient::default().solve(&op, &b, &mut x);
        prop_assert!(report.converged);
        let err: f64 = x.iter().zip(&x_true).map(|(a, b)| (a - b).abs()).fold(0.0, f64::max);
        prop_assert!(err < 1e-5, "max error {err}");
    }

    /// The parameter space maps the unit hypercube into itself bijectively
    /// (within floating-point tolerance).
    #[test]
    fn parameter_space_roundtrip(u in prop::collection::vec(0.0f64..1.0, 5)) {
        let space = ParameterSpace::default();
        let unit: [f64; 5] = [u[0], u[1], u[2], u[3], u[4]];
        let params = space.from_unit(unit);
        prop_assert!(space.contains(&params));
        let back = space.to_unit(&params);
        for (a, b) in unit.iter().zip(&back) {
            prop_assert!((a - b).abs() < 1e-9);
        }
    }

    /// Every workload kind produces trajectories of the configured shape with
    /// finite values inside the sampled temperature range.
    #[test]
    fn workloads_produce_well_formed_trajectories(
        t_ic in temperature(),
        west in temperature(),
        east in temperature(),
        south in temperature(),
        north in temperature(),
        analytic in any::<bool>(),
    ) {
        let params = SimulationParams::new([t_ic, west, south, east, north]);
        let config = SolverConfig { nx: 6, ny: 6, steps: 5, ..SolverConfig::default() };
        let workload = if analytic {
            SyntheticWorkload::analytic(config)
        } else {
            SyntheticWorkload::solver(config)
        };
        let trajectory = workload.trajectory(params).unwrap();
        prop_assert_eq!(trajectory.len(), 5);
        for (k, step) in trajectory.iter().enumerate() {
            prop_assert_eq!(step.step, k);
            prop_assert_eq!(step.values.len(), 36);
            for &v in &step.values {
                prop_assert!(v.is_finite());
                prop_assert!((99.0..=501.0).contains(&(v as f64)));
            }
        }
    }

    /// The analytic workload's per-trajectory tables reproduce the per-cell
    /// closed form bit for bit: every emitted `f32` and every `time`, on
    /// square and non-square grids and domains.
    #[test]
    fn analytic_tables_are_bit_equal_to_the_per_cell_closed_form(
        t_ic in temperature(),
        west in temperature(),
        east in temperature(),
        south in temperature(),
        north in temperature(),
        nx in 1usize..14,
        ny in 1usize..14,
        lx in 0.3f64..3.0,
        ly in 0.3f64..3.0,
        alpha in 0.1f64..4.0,
        dt in 1e-3f64..0.1,
    ) {
        let params = SimulationParams::new([t_ic, west, south, east, north]);
        let config = SolverConfig { nx, ny, lx, ly, alpha, dt, steps: 7, ..SolverConfig::default() };
        let grid = config.grid();
        let bc = BoundaryConditions::from_params(&params);
        let trajectory = SyntheticWorkload::analytic(config).trajectory(params).unwrap();
        prop_assert_eq!(trajectory.len(), 7);
        for (k, step) in trajectory.iter().enumerate() {
            let time = (k as f64 + 1.0) * dt;
            prop_assert_eq!(step.time.to_bits(), time.to_bits());
            prop_assert_eq!(step.values.len(), grid.len());
            for ((i, j), value) in grid.nodes().zip(&step.values) {
                let (x, y) = grid.coords(i, j);
                let cell = approximate_transient(grid, &bc, t_ic, alpha, time, x, y) as f32;
                prop_assert_eq!(value.to_bits(), cell.to_bits(), "step {} cell ({}, {})", k, i, j);
            }
        }
    }

    /// Trajectories are deterministic: the same configuration and parameters
    /// always produce the same fields.
    #[test]
    fn solver_is_deterministic(
        t_ic in temperature(),
        west in temperature(),
    ) {
        let params = SimulationParams::new([t_ic, west, 200.0, 300.0, 400.0]);
        let config = SolverConfig { nx: 8, ny: 8, steps: 4, ..SolverConfig::default() };
        let a = SyntheticWorkload::solver(config).trajectory(params).unwrap();
        let b = SyntheticWorkload::solver(config).trajectory(params).unwrap();
        prop_assert_eq!(a, b);
    }
}
