//! # heat-solver
//!
//! A 2D heat-equation solver reproducing the data-generation substrate of
//! *"High Throughput Training of Deep Surrogates from Large Ensemble Runs"* (SC'23).
//!
//! The paper trains a deep surrogate of an in-house Fortran90/MPI finite-difference
//! solver of the classical heat equation on a rectangular domain (Equation 2 of the
//! paper): implicit Euler time integration, 2D Cartesian grid, Dirichlet boundary
//! conditions given by four boundary temperatures and one initial temperature.
//!
//! This crate provides:
//!
//! * [`Grid2D`] / [`Field`] — the discretised domain and temperature fields.
//! * [`SimulationParams`] — the five sampled temperatures `(T_ic, T_x1, T_y1, T_x2, T_y2)`
//!   plus physical and numerical configuration, mirroring the paper's input vector `X`.
//! * [`ImplicitEuler`] — the paper's time integrator: one matrix-free
//!   [`ConjugateGradient`] solve per step, bound to a trajectory by
//!   [`scheme::ImplicitStepper`].
//! * [`HeatSolver`] — the high-level driver producing one [`TimeStepField`] per time step,
//!   down-converted to `f32` exactly as the paper's clients do before streaming data to
//!   the training server.
//!
//! The grid resolution is configurable; the paper used 1000×1000 × 100 time steps, the
//! tests and benches here default to much smaller grids so the whole ensemble fits on a
//! single node.

pub mod analytic;
pub mod boundary;
pub mod grid;
pub mod linalg;
pub mod params;
pub mod scheme;
pub mod solver;
pub mod workload;

pub use boundary::BoundaryConditions;
pub use grid::{Field, Grid2D};
pub use linalg::{CgReport, ConjugateGradient};
pub use params::{ParamPoint, ParamRange, ParameterSpace, SimulationParams, PARAM_DIM};
pub use scheme::ImplicitEuler;
pub use solver::{HeatSolver, SolverConfig, SolverError, TimeStepField};
pub use workload::{SyntheticWorkload, WorkloadKind};

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn crate_level_smoke_run() {
        let params = SimulationParams::new([300.0, 200.0, 250.0, 350.0, 400.0]);
        let config = SolverConfig {
            nx: 16,
            ny: 16,
            steps: 5,
            ..SolverConfig::default()
        };
        let solver = HeatSolver::new(config, params).expect("valid config");
        let steps: Vec<_> = solver.run().expect("solver runs").collect();
        assert_eq!(steps.len(), 5);
        for s in &steps {
            assert_eq!(s.values.len(), 16 * 16);
            assert!(s.values.iter().all(|v| v.is_finite()));
        }
    }
}
