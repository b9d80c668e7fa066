//! High-level solver driver: from sampled parameters to streamed time steps.
//!
//! [`HeatSolver`] plays the role of one ensemble *client* executable: it runs a
//! full trajectory of the heat equation for one parameter draw `X` and emits one
//! [`TimeStepField`] per time step, already gathered and converted to `f32` — the
//! exact payload the paper's clients send to the training server through the
//! Melissa API.

use crate::boundary::BoundaryConditions;
use crate::decomposition::DistributedImplicitSolver;
use crate::grid::{Field, Grid2D};
use crate::params::SimulationParams;
use crate::scheme::{AdiScheme, ExplicitEuler, ImplicitEuler, ImplicitStepper, TimeScheme};
use serde::{Deserialize, Serialize};
use std::fmt;

/// Which time integrator the solver uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize, Default)]
pub enum SchemeKind {
    /// Backward Euler with a conjugate-gradient solve (the paper's scheme).
    #[default]
    ImplicitEuler,
    /// Forward Euler (cheap, conditionally stable).
    ExplicitEuler,
    /// Peaceman–Rachford ADI (cheap, unconditionally stable).
    Adi,
}

/// Configuration of one solver run.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
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
    /// Time integrator.
    pub scheme: SchemeKind,
    /// Relative tolerance of the CG solve (implicit scheme only).
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
            scheme: SchemeKind::ImplicitEuler,
            cg_tolerance: 1e-8,
        }
    }
}

impl SolverConfig {
    /// Configuration matching the paper's large runs (1000×1000 × 100 steps).
    /// Only used for documentation and cost estimates — far too large for tests.
    pub fn paper_scale() -> Self {
        Self {
            nx: 1000,
            ny: 1000,
            ..Self::default()
        }
    }

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
        if self.scheme == SchemeKind::ExplicitEuler {
            let grid = self.grid();
            let explicit = ExplicitEuler::new(self.alpha, self.dt);
            if !explicit.is_stable(&grid) {
                return Err(SolverError::UnstableExplicitScheme {
                    stability_number: explicit.stability_number(&grid),
                });
            }
        }
        Ok(())
    }
}

/// Errors produced by the solver driver.
#[derive(Debug, Clone, PartialEq)]
pub enum SolverError {
    /// The configuration is inconsistent.
    InvalidConfig(String),
    /// The explicit scheme would be unstable on the requested grid.
    UnstableExplicitScheme {
        /// The offending stability number (must be ≤ 0.5).
        stability_number: f64,
    },
}

impl fmt::Display for SolverError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SolverError::InvalidConfig(msg) => write!(f, "invalid solver configuration: {msg}"),
            SolverError::UnstableExplicitScheme { stability_number } => write!(
                f,
                "explicit Euler unstable: stability number {stability_number:.3} > 0.5"
            ),
        }
    }
}

impl std::error::Error for SolverError {}

/// One gathered, down-converted time step — the unit of data streamed to the
/// training server (one training sample together with its input `(X, t)`).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
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
        let SolverConfig { alpha, dt, .. } = self.config;
        let grid = self.config.grid();
        let bc = BoundaryConditions::from_params(&self.params);
        // The implicit scheme carries per-trajectory state (its stepper); the
        // other two are stateless.
        let advance: Box<dyn FnMut(&mut Field) + Send> = match self.config.scheme {
            SchemeKind::ImplicitEuler => {
                let mut scheme = ImplicitEuler::new(alpha, dt);
                scheme.cg.tolerance = self.config.cg_tolerance;
                let mut stepper = ImplicitStepper::new(&scheme, grid, &bc);
                Box::new(move |field| {
                    let report = stepper.step(field);
                    debug_assert!(report.converged, "CG did not converge: {report:?}");
                })
            }
            SchemeKind::ExplicitEuler => {
                let scheme = ExplicitEuler::new(alpha, dt);
                Box::new(move |field| scheme.step(field, &bc))
            }
            SchemeKind::Adi => {
                let scheme = AdiScheme::new(alpha, dt);
                Box::new(move |field| scheme.step(field, &bc))
            }
        };
        Ok(TrajectoryIter {
            advance,
            field: Field::constant(grid, self.params.t_initial),
            config: self.config,
            params: self.params,
            next_step: 0,
        })
    }

    /// Runs the full trajectory, pushing every step into `sink`.
    pub fn run_with_sink(&self, mut sink: impl FnMut(TimeStepField)) -> Result<(), SolverError> {
        for step in self.run()? {
            sink(step);
        }
        Ok(())
    }

    /// Runs the full trajectory eagerly and returns all steps.
    pub fn trajectory(&self) -> Result<Vec<TimeStepField>, SolverError> {
        Ok(self.run()?.collect())
    }

    /// Runs the trajectory with the implicit scheme distributed over
    /// `num_ranks` worker threads (the "MPI+X parallel client" of the paper)
    /// and returns all gathered steps.
    pub fn trajectory_distributed(
        &self,
        num_ranks: usize,
    ) -> Result<Vec<TimeStepField>, SolverError> {
        let grid = self.config.grid();
        let initial = Field::constant(grid, self.params.t_initial);
        let bc = BoundaryConditions::from_params(&self.params);
        let solver = DistributedImplicitSolver {
            alpha: self.config.alpha,
            dt: self.config.dt,
            tolerance: self.config.cg_tolerance,
            max_iterations: 10_000,
        };
        let gathered = solver.run(&initial, &bc, num_ranks, self.config.steps);
        Ok(gathered
            .into_iter()
            .map(|g| TimeStepField {
                step: g.step,
                time: (g.step as f64 + 1.0) * self.config.dt,
                params: self.params,
                nx: self.config.nx,
                ny: self.config.ny,
                values: g.field.to_f32(),
            })
            .collect())
    }
}

/// Lazy iterator over the time steps of one trajectory.
pub struct TrajectoryIter {
    advance: Box<dyn FnMut(&mut Field) + Send>,
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
        (self.advance)(&mut self.field);
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

    fn small_config(scheme: SchemeKind) -> SolverConfig {
        SolverConfig {
            nx: 12,
            ny: 12,
            steps: 8,
            scheme,
            // Small enough for explicit Euler stability on a 12×12 grid.
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
    fn validate_rejects_unstable_explicit() {
        let c = SolverConfig {
            scheme: SchemeKind::ExplicitEuler,
            nx: 64,
            ny: 64,
            dt: 0.01,
            ..SolverConfig::default()
        };
        match c.validate() {
            Err(SolverError::UnstableExplicitScheme { stability_number }) => {
                assert!(stability_number > 0.5)
            }
            other => panic!("expected instability error, got {other:?}"),
        }
    }

    #[test]
    fn trajectory_has_expected_length_and_times() {
        let solver = HeatSolver::new(small_config(SchemeKind::Adi), params()).unwrap();
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
        let solver = HeatSolver::new(small_config(SchemeKind::ImplicitEuler), params()).unwrap();
        let mut iter = solver.run().unwrap();
        assert_eq!(iter.len(), 8);
        let first = iter.next().unwrap();
        assert_eq!(first.step, 0);
        assert_eq!(iter.len(), 7);
    }

    #[test]
    fn input_vector_has_six_entries() {
        let solver = HeatSolver::new(small_config(SchemeKind::Adi), params()).unwrap();
        let step = solver.run().unwrap().next().unwrap();
        let input = step.input_vector();
        assert_eq!(input.len(), 6);
        assert_eq!(input[0], 350.0);
        assert!((input[5] - 0.001).abs() < 1e-6);
    }

    #[test]
    fn all_schemes_stay_within_physical_bounds() {
        for scheme in [
            SchemeKind::ImplicitEuler,
            SchemeKind::ExplicitEuler,
            SchemeKind::Adi,
        ] {
            let solver = HeatSolver::new(small_config(scheme), params()).unwrap();
            let steps = solver.trajectory().unwrap();
            for s in steps {
                for &v in &s.values {
                    assert!(v.is_finite());
                    assert!((150.0..=450.0).contains(&(v as f64 + 1e-3)) || v >= 150.0 - 1.0);
                    assert!(
                        (149.0..=451.0).contains(&v),
                        "value {v} out of physical range"
                    );
                }
            }
        }
    }

    #[test]
    fn distributed_trajectory_matches_shared_memory() {
        let config = SolverConfig {
            nx: 10,
            ny: 10,
            steps: 4,
            ..SolverConfig::default()
        };
        let solver = HeatSolver::new(config, params()).unwrap();
        let reference = solver.trajectory().unwrap();
        let distributed = solver.trajectory_distributed(3).unwrap();
        assert_eq!(reference.len(), distributed.len());
        for (a, b) in reference.iter().zip(&distributed) {
            assert_eq!(a.step, b.step);
            let max_diff = a
                .values
                .iter()
                .zip(&b.values)
                .map(|(x, y)| (x - y).abs())
                .fold(0.0f32, f32::max);
            assert!(max_diff < 1e-3, "step {} diff {max_diff}", a.step);
        }
    }

    #[test]
    fn run_with_sink_collects_all_steps() {
        let solver = HeatSolver::new(small_config(SchemeKind::Adi), params()).unwrap();
        let mut count = 0;
        solver.run_with_sink(|_| count += 1).unwrap();
        assert_eq!(count, 8);
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

    #[test]
    fn paper_scale_config_matches_paper_numbers() {
        let c = SolverConfig::paper_scale();
        assert_eq!(c.nx, 1000);
        assert_eq!(c.ny, 1000);
        assert_eq!(c.steps, 100);
        // One sample is a 1M-value field: 4 MB in f32.
        assert_eq!(c.step_bytes(), 4_000_000);
    }
}
