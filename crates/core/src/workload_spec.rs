//! The description of an experiment's workload.
//!
//! [`WorkloadSpec`] is the config-surface counterpart of the runtime
//! [`Workload`] trait: the heat workload's settings as plain data, which
//! [`WorkloadSpec::build`] turns into the trait object the pipeline drives.
//! Its metadata accessors answer through the same [`Workload`] impl, so the
//! config and the running clients cannot disagree about shape or ranges.

use heat_solver::{SolverConfig, SyntheticWorkload, WorkloadKind};
use melissa_workload::{ParamRange, ParameterSpace, Workload, WorkloadError};
use serde::Serialize;
use std::sync::Arc;
use surrogate_nn::{InputNormalizer, OutputNormalizer};

/// The paper's 2D heat equation, and how its time steps are produced.
#[derive(Debug, Clone, Default, PartialEq, Serialize)]
pub struct WorkloadSpec {
    /// Grid, Δt, steps and CG tolerance.
    pub solver: SolverConfig,
    /// Real solver or closed-form approximation.
    pub kind: WorkloadKind,
    /// Amplitude of seeded uniform observation noise (Kelvin); 0 streams
    /// the exact field. The noise is keyed by the launcher's per-attempt
    /// seed (seed-policy stream "attempt-v1").
    pub noise_amplitude: f64,
}

impl WorkloadSpec {
    /// A heat workload running the real finite-difference solver.
    pub fn heat(solver: SolverConfig) -> Self {
        Self {
            solver,
            kind: WorkloadKind::Solver,
            noise_amplitude: 0.0,
        }
    }

    /// A heat workload evaluating the fast closed-form approximation.
    pub fn heat_analytic(solver: SolverConfig) -> Self {
        Self {
            solver,
            kind: WorkloadKind::Analytic,
            noise_amplitude: 0.0,
        }
    }

    /// The noisy heat workload: the closed-form field plus seeded uniform
    /// observation noise of the given amplitude (Kelvin), keyed by the
    /// launcher's per-attempt seed so retried attempts observe fresh noise.
    pub fn heat_noisy(solver: SolverConfig, noise_amplitude: f64) -> Self {
        Self {
            solver,
            kind: WorkloadKind::Analytic,
            noise_amplitude,
        }
    }

    /// The workload this spec describes, by value.
    fn workload(&self) -> SyntheticWorkload {
        SyntheticWorkload {
            config: self.solver,
            kind: self.kind,
            noise_amplitude: self.noise_amplitude,
        }
    }

    /// Builds the runtime workload this spec describes.
    pub fn build(&self) -> Arc<dyn Workload> {
        Arc::new(self.workload())
    }

    /// Validates the described workload.
    pub fn validate(&self) -> Result<(), WorkloadError> {
        self.workload().validate()
    }

    /// The physics label of the described workload.
    pub fn name(&self) -> &'static str {
        self.workload().name()
    }

    /// Grid dimensions of one emitted field.
    pub fn shape(&self) -> Vec<usize> {
        self.workload().shape()
    }

    /// Number of time steps per trajectory.
    pub fn steps(&self) -> usize {
        self.workload().steps()
    }

    /// Time-step size `Δt`.
    pub fn dt(&self) -> f64 {
        self.workload().dt()
    }

    /// Number of values in one emitted time step.
    pub fn field_len(&self) -> usize {
        self.workload().field_len()
    }

    /// Size in bytes of one full trajectory.
    pub fn trajectory_bytes(&self) -> usize {
        Workload::trajectory_bytes(&self.workload())
    }

    /// The design space the parameters are sampled from.
    pub fn parameter_space(&self) -> ParameterSpace {
        self.workload().parameter_space()
    }

    /// The physical range of the output fields.
    pub fn output_range(&self) -> ParamRange {
        self.workload().output_range()
    }

    /// The input normaliser matching this workload's design space and duration.
    pub fn input_normalizer(&self) -> InputNormalizer {
        let space = self.parameter_space();
        let ranges: Vec<(f64, f64)> = space.ranges.iter().map(|r| (r.min, r.max)).collect();
        InputNormalizer::for_ranges(&ranges, self.steps() as f64 * self.dt())
    }

    /// The output normaliser matching this workload's physical range.
    pub fn output_normalizer(&self) -> OutputNormalizer {
        let range = self.output_range();
        OutputNormalizer::for_range(range.min, range.max)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn heat_spec_round_trips_through_build() {
        let solver = SolverConfig {
            nx: 8,
            ny: 8,
            steps: 6,
            ..SolverConfig::default()
        };
        let spec = WorkloadSpec::heat_analytic(solver);
        assert_eq!(spec.steps(), 6);
        assert_eq!(spec.field_len(), 64);
        assert_eq!(spec.shape(), vec![8, 8]);
        assert_eq!(spec.trajectory_bytes(), 64 * 4 * 6);
        assert_eq!(spec.name(), "heat2d-analytic");
        assert!(spec.validate().is_ok());
        let workload = spec.build();
        let steps = workload
            .trajectory(workload.parameter_space().midpoint())
            .unwrap();
        assert_eq!(steps.len(), 6);
    }

    #[test]
    fn invalid_specs_fail_validation() {
        let spec = WorkloadSpec::heat(SolverConfig {
            nx: 0,
            ..SolverConfig::default()
        });
        assert!(matches!(
            spec.validate(),
            Err(WorkloadError::InvalidConfig(_))
        ));
    }
}
