//! The physics-agnostic [`Workload`] trait.
//!
//! The paper's framework claim is that online surrogate training is independent
//! of the solver: clients are black boxes that stream time steps. This module
//! captures the full contract the training stack needs from such a black box —
//! deterministic trajectory generation from a parameter vector, plus the shape
//! and range metadata required to size the surrogate and normalise its
//! inputs/outputs. Everything above this trait (validation sets, aggregators,
//! the online and offline experiment drivers) is physics-free.

use crate::space::{ParamPoint, ParamRange, ParameterSpace};
use serde::{Deserialize, Serialize};
use std::fmt;

/// Errors produced by workload validation and generation.
#[derive(Debug, Clone, PartialEq)]
pub enum WorkloadError {
    /// The workload configuration is inconsistent.
    InvalidConfig(String),
}

impl fmt::Display for WorkloadError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let WorkloadError::InvalidConfig(reason) = self;
        write!(f, "invalid workload configuration: {reason}")
    }
}

impl std::error::Error for WorkloadError {}

/// One gathered, down-converted time step — the unit of data a client streams
/// to the training server (one training sample together with its input
/// `(X, t)`), independent of the physics that produced it.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct WorkloadStep {
    /// Zero-based time-step index.
    pub step: usize,
    /// Physical time `t = (step + 1) · Δt`.
    pub time: f64,
    /// The parameter vector `X` of the trajectory this step belongs to.
    pub params: ParamPoint,
    /// Gathered field values, row-major, converted to `f32`.
    pub values: Vec<f32>,
}

impl WorkloadStep {
    /// The surrogate input vector `(X, t)` as `f32` (`PARAM_DIM + 1` entries).
    pub fn input_vector(&self) -> Vec<f32> {
        let mut v: Vec<f32> = self.params.iter().map(|&p| p as f32).collect();
        v.push(self.time as f32);
        v
    }

    /// Size of the payload in bytes (excluding metadata).
    pub fn payload_bytes(&self) -> usize {
        self.values.len() * std::mem::size_of::<f32>()
    }
}

/// A black-box generator of solver-shaped time-step streams.
///
/// Implementations must be **deterministic**: calling [`Workload::generate`]
/// twice with the same parameter vector must emit bit-identical streams, so
/// restarted clients replay the exact same trajectory and validation sets are
/// reproducible from a seed alone.
pub trait Workload: Send + Sync {
    /// A short, stable physics label (e.g. "heat2d", "heat2d-analytic").
    fn name(&self) -> &'static str;

    /// The grid dimensions of one emitted field (e.g. `[nx, ny]`); the field
    /// length is the product of the entries.
    fn shape(&self) -> Vec<usize>;

    /// Number of time steps per trajectory.
    fn steps(&self) -> usize;

    /// Time-step size `Δt`.
    fn dt(&self) -> f64;

    /// The space the parameter vector `X` is sampled from.
    fn parameter_space(&self) -> ParameterSpace;

    /// The physical range field values live in, used to normalise the
    /// surrogate targets.
    fn output_range(&self) -> ParamRange;

    /// Validates the workload configuration.
    fn validate(&self) -> Result<(), WorkloadError>;

    /// Generates the full trajectory for one parameter draw, invoking `sink`
    /// for every produced step in time order.
    fn generate(
        &self,
        params: ParamPoint,
        sink: &mut dyn FnMut(WorkloadStep),
    ) -> Result<(), WorkloadError>;

    /// Generates the trajectory for one parameter draw under an explicit
    /// attempt seed. Deterministic workloads (the default) ignore the seed —
    /// every attempt replays the identical stream, which is what checkpoint
    /// resume relies on. *Stochastic* workloads (e.g. seeded observation
    /// noise) override this: the stream must be a pure function of
    /// `(params, seed)`, so a retried attempt with the launcher's
    /// per-attempt seed draws fresh noise while a replayed attempt with the
    /// same seed is bit-identical.
    fn generate_seeded(
        &self,
        params: ParamPoint,
        _seed: u64,
        sink: &mut dyn FnMut(WorkloadStep),
    ) -> Result<(), WorkloadError> {
        self.generate(params, sink)
    }

    /// Number of values in one emitted time step.
    fn field_len(&self) -> usize {
        self.shape().iter().product()
    }

    /// Physical duration of one trajectory.
    fn duration(&self) -> f64 {
        self.steps() as f64 * self.dt()
    }

    /// Size in bytes of one emitted (f32) time step.
    fn step_bytes(&self) -> usize {
        self.field_len() * std::mem::size_of::<f32>()
    }

    /// Size in bytes of one full trajectory.
    fn trajectory_bytes(&self) -> usize {
        self.step_bytes() * self.steps()
    }

    /// Generates and collects the full trajectory.
    fn trajectory(&self, params: ParamPoint) -> Result<Vec<WorkloadStep>, WorkloadError> {
        let mut out = Vec::with_capacity(self.steps());
        self.generate(params, &mut |s| out.push(s))?;
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn workload_step_input_vector_appends_time() {
        let step = WorkloadStep {
            step: 2,
            time: 0.25,
            params: [1.0, 2.0, 3.0, 4.0, 5.0],
            values: vec![0.0; 8],
        };
        let input = step.input_vector();
        assert_eq!(input.len(), 6);
        assert_eq!(input[0], 1.0);
        assert_eq!(input[5], 0.25);
        assert_eq!(step.payload_bytes(), 32);
    }

    #[test]
    fn errors_render_their_context() {
        let e = WorkloadError::InvalidConfig("grid must be non-empty".into());
        assert!(e.to_string().contains("grid must be non-empty"));
    }
}
