//! High-level solver driver: from sampled parameters to streamed time steps.
//!
//! [`HeatSolver`] plays the role of one ensemble *client* executable: it runs a
//! full trajectory of the heat equation for one parameter draw `X` and emits one
//! [`TimeStepField`] per time step, already gathered and converted to `f32` — the
//! exact payload the paper's clients send to the training server through the
//! Melissa API.

use crate::boundary::BoundaryConditions;
use crate::grid::{Field, Grid2D};
use crate::params::SimulationParams;
use crate::scheme::{ImplicitEuler, ImplicitStepper};
use serde::Serialize;
use std::fmt;

/// Configuration of one solver run.
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
pub struct SolverConfig {
    /// Interior nodes along x (the paper used 1000).
    pub nx: usize,
    /// Interior nodes along y (the paper used 1000).
    pub ny: usize,
    /// Physical domain length along x.
    pub lx: f64,
    /// Physical domain length along y.
    pub ly: f64,
    /// Thermal diffusivity `α` (paper: 1 m²/s).
    pub alpha: f64,
    /// Time step `Δt` (paper: 0.01 s).
    pub dt: f64,
    /// Number of time steps per trajectory (paper: 100).
    pub steps: usize,
    /// Relative tolerance of the CG solve.
    pub cg_tolerance: f64,
}

impl Default for SolverConfig {
    fn default() -> Self {
        Self {
            nx: 32,
            ny: 32,
            lx: 1.0,
            ly: 1.0,
            alpha: 1.0,
            dt: 0.01,
            steps: 100,
            cg_tolerance: 1e-8,
        }
    }
}

impl SolverConfig {
    /// The grid described by this configuration.
    pub fn grid(&self) -> Grid2D {
        Grid2D::rectangle(self.nx, self.ny, self.lx, self.ly)
    }

    /// Number of values in one emitted time step.
    pub fn field_len(&self) -> usize {
        self.nx * self.ny
    }

    /// Size in bytes of one emitted (f32) time step.
    pub fn step_bytes(&self) -> usize {
        self.field_len() * std::mem::size_of::<f32>()
    }

    /// Size in bytes of one full trajectory.
    pub fn trajectory_bytes(&self) -> usize {
        self.step_bytes() * self.steps
    }

    /// Validates the configuration.
    pub fn validate(&self) -> Result<(), SolverError> {
        if self.nx == 0 || self.ny == 0 {
            return Err(SolverError::InvalidConfig("grid must be non-empty".into()));
        }
        if self.steps == 0 {
            return Err(SolverError::InvalidConfig(
                "at least one time step is required".into(),
            ));
        }
        if self.dt <= 0.0 || self.dt.is_nan() || self.alpha <= 0.0 || self.alpha.is_nan() {
            return Err(SolverError::InvalidConfig(
                "dt and alpha must be positive".into(),
            ));
        }
        if self.lx <= 0.0 || self.lx.is_nan() || self.ly <= 0.0 || self.ly.is_nan() {
            return Err(SolverError::InvalidConfig(
                "domain lengths must be positive".into(),
            ));
        }
        if !(self.cg_tolerance > 0.0 && self.cg_tolerance < 1.0) {
            return Err(SolverError::InvalidConfig(format!(
                "cg_tolerance must lie in (0, 1), got {}",
                self.cg_tolerance
            )));
        }
        Ok(())
    }
}

/// Errors produced by the solver driver.
#[derive(Debug, Clone, PartialEq)]
pub enum SolverError {
    /// The configuration is inconsistent.
    InvalidConfig(String),
}

impl fmt::Display for SolverError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SolverError::InvalidConfig(msg) => write!(f, "invalid solver configuration: {msg}"),
        }
    }
}

impl std::error::Error for SolverError {}

/// One gathered, down-converted time step — the unit of data streamed to the
/// training server (one training sample together with its input `(X, t)`).
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct TimeStepField {
    /// Zero-based time-step index.
    pub step: usize,
    /// Physical time `t = (step + 1) · Δt`.
    pub time: f64,
    /// The parameters `X` of the trajectory this step belongs to.
    pub params: SimulationParams,
    /// Interior nodes along x.
    pub nx: usize,
    /// Interior nodes along y.
    pub ny: usize,
    /// Gathered field values, row-major, converted to `f32`.
    pub values: Vec<f32>,
}

impl TimeStepField {
    /// The surrogate input vector `(X, t)` as `f32` (6 entries, as in the paper).
    pub fn input_vector(&self) -> Vec<f32> {
        let mut v = self.params.as_f32_vector().to_vec();
        v.push(self.time as f32);
        v
    }

    /// Size of the payload in bytes (excluding metadata).
    pub fn payload_bytes(&self) -> usize {
        self.values.len() * std::mem::size_of::<f32>()
    }
}

/// Driver running one trajectory of the heat equation for one parameter draw.
#[derive(Debug, Clone)]
pub struct HeatSolver {
    config: SolverConfig,
    params: SimulationParams,
}

impl HeatSolver {
    /// Creates a solver after validating the configuration.
    pub fn new(config: SolverConfig, params: SimulationParams) -> Result<Self, SolverError> {
        config.validate()?;
        Ok(Self { config, params })
    }

    /// The configuration of this solver.
    pub fn config(&self) -> &SolverConfig {
        &self.config
    }

    /// The sampled parameters of this trajectory.
    pub fn params(&self) -> &SimulationParams {
        &self.params
    }

    /// Runs the full trajectory, returning an iterator over the emitted steps.
    ///
    /// The iterator is lazy: each `next()` advances the simulation by one step,
    /// which lets callers interleave solving and streaming exactly like the
    /// instrumented clients of the paper.
    pub fn run(&self) -> Result<TrajectoryIter, SolverError> {
        let grid = self.config.grid();
        let mut scheme = ImplicitEuler::new(self.config.alpha, self.config.dt);
        scheme.cg.tolerance = self.config.cg_tolerance;
        let bc = BoundaryConditions::from_params(&self.params);
        Ok(TrajectoryIter {
            stepper: ImplicitStepper::new(&scheme, grid, &bc),
            field: Field::constant(grid, self.params.t_initial),
            config: self.config,
            params: self.params,
            next_step: 0,
        })
    }

    /// Runs the full trajectory eagerly and returns all steps.
    pub fn trajectory(&self) -> Result<Vec<TimeStepField>, SolverError> {
        Ok(self.run()?.collect())
    }
}

/// Lazy iterator over the time steps of one trajectory.
pub struct TrajectoryIter {
    stepper: ImplicitStepper,
    field: Field,
    config: SolverConfig,
    params: SimulationParams,
    next_step: usize,
}

impl Iterator for TrajectoryIter {
    type Item = TimeStepField;

    fn next(&mut self) -> Option<Self::Item> {
        if self.next_step >= self.config.steps {
            return None;
        }
        let report = self.stepper.step(&mut self.field);
        debug_assert!(report.converged, "CG did not converge: {report:?}");
        let step = self.next_step;
        self.next_step += 1;
        Some(TimeStepField {
            step,
            time: (step as f64 + 1.0) * self.config.dt,
            params: self.params,
            nx: self.config.nx,
            ny: self.config.ny,
            values: self.field.to_f32(),
        })
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let remaining = self.config.steps - self.next_step;
        (remaining, Some(remaining))
    }
}

impl ExactSizeIterator for TrajectoryIter {}

#[cfg(test)]
mod tests {
    use super::*;

    fn params() -> SimulationParams {
        SimulationParams::new([350.0, 150.0, 250.0, 450.0, 200.0])
    }

    fn small_config() -> SolverConfig {
        SolverConfig {
            nx: 12,
            ny: 12,
            steps: 8,
            dt: 0.001,
            ..SolverConfig::default()
        }
    }

    #[test]
    fn validate_rejects_bad_configs() {
        let c = SolverConfig {
            nx: 0,
            ..Default::default()
        };
        assert!(matches!(c.validate(), Err(SolverError::InvalidConfig(_))));
        let c = SolverConfig {
            dt: 0.0,
            ..Default::default()
        };
        assert!(c.validate().is_err());
        let c = SolverConfig {
            steps: 0,
            ..Default::default()
        };
        assert!(c.validate().is_err());
    }

    #[test]
    fn validate_rejects_cg_tolerances_that_cannot_converge() {
        // Each of these used to pass validation and then run all 10,000 CG
        // iterations of every step without converging.
        for cg_tolerance in [0.0, -1e-8, 1.0, 2.0, f64::NAN, f64::INFINITY] {
            let c = SolverConfig {
                cg_tolerance,
                ..Default::default()
            };
            assert!(
                matches!(c.validate(), Err(SolverError::InvalidConfig(_))),
                "cg_tolerance {cg_tolerance} must be rejected"
            );
            assert!(HeatSolver::new(c, params()).is_err());
        }
        let c = SolverConfig {
            cg_tolerance: 1e-12,
            ..Default::default()
        };
        assert!(c.validate().is_ok());
    }

    #[test]
    fn trajectory_has_expected_length_and_times() {
        let solver = HeatSolver::new(small_config(), params()).unwrap();
        let steps = solver.trajectory().unwrap();
        assert_eq!(steps.len(), 8);
        for (k, s) in steps.iter().enumerate() {
            assert_eq!(s.step, k);
            assert!((s.time - (k as f64 + 1.0) * 0.001).abs() < 1e-12);
            assert_eq!(s.values.len(), 144);
        }
    }

    #[test]
    fn iterator_is_lazy_and_exact_size() {
        let solver = HeatSolver::new(small_config(), params()).unwrap();
        let mut iter = solver.run().unwrap();
        assert_eq!(iter.len(), 8);
        let first = iter.next().unwrap();
        assert_eq!(first.step, 0);
        assert_eq!(iter.len(), 7);
    }

    #[test]
    fn input_vector_has_six_entries() {
        let solver = HeatSolver::new(small_config(), params()).unwrap();
        let step = solver.run().unwrap().next().unwrap();
        let input = step.input_vector();
        assert_eq!(input.len(), 6);
        assert_eq!(input[0], 350.0);
        assert!((input[5] - 0.001).abs() < 1e-6);
    }

    #[test]
    fn implicit_trajectory_stays_within_physical_bounds() {
        // Maximum principle: every value stays inside the envelope of the
        // initial and boundary temperatures.
        let (lo, hi) = (params().min_temperature(), params().max_temperature());
        let solver = HeatSolver::new(small_config(), params()).unwrap();
        for s in solver.trajectory().unwrap() {
            for &v in &s.values {
                let v = f64::from(v);
                assert!(
                    (lo - 1e-3..=hi + 1e-3).contains(&v),
                    "value {v} out of physical range"
                );
            }
        }
    }

    #[test]
    fn config_size_accounting() {
        let c = SolverConfig {
            nx: 100,
            ny: 100,
            steps: 10,
            ..SolverConfig::default()
        };
        assert_eq!(c.field_len(), 10_000);
        assert_eq!(c.step_bytes(), 40_000);
        assert_eq!(c.trajectory_bytes(), 400_000);
    }
}
