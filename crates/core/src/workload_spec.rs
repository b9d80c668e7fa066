//! The serialisable description of an experiment's workload.
//!
//! [`WorkloadSpec`] is the config-surface counterpart of the runtime
//! [`Workload`] trait: a plain-data enum naming the physics and its settings,
//! which [`WorkloadSpec::build`] turns into the trait object the pipeline
//! drives. The metadata accessors match on the enum directly (no allocation);
//! a unit test pins them to the built workload's answers so the two views can
//! never silently disagree.

use heat_solver::{SolverConfig, SyntheticWorkload, WorkloadKind};
use melissa_workload::{
    AdvectionConfig, AdvectionVariant, AdvectionWorkload, ParamRange, ParameterSpace, Workload,
    WorkloadError,
};
use serde::{Deserialize, Serialize};
use std::sync::Arc;
use surrogate_nn::{InputNormalizer, OutputNormalizer};

/// Which physics an experiment streams, and how it is produced.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum WorkloadSpec {
    /// The paper's 2D heat equation.
    Heat {
        /// Grid, Δt, steps and CG tolerance.
        solver: SolverConfig,
        /// Real solver or closed-form approximation.
        kind: WorkloadKind,
        /// Amplitude of seeded uniform observation noise (Kelvin); 0 streams
        /// the exact field. The noise is keyed by the launcher's per-attempt
        /// seed (seed-policy stream "attempt-v1").
        #[serde(default)]
        noise_amplitude: f64,
    },
    /// 2D advection–diffusion of a Gaussian tracer (the second physics).
    Advection {
        /// Grid, Δt and steps.
        config: AdvectionConfig,
        /// Finite differences or closed form.
        variant: AdvectionVariant,
    },
}

impl Default for WorkloadSpec {
    fn default() -> Self {
        Self::heat(SolverConfig::default())
    }
}

impl WorkloadSpec {
    /// A heat workload running the real finite-difference solver.
    pub fn heat(solver: SolverConfig) -> Self {
        Self::Heat {
            solver,
            kind: WorkloadKind::Solver,
            noise_amplitude: 0.0,
        }
    }

    /// A heat workload evaluating the fast closed-form approximation.
    pub fn heat_analytic(solver: SolverConfig) -> Self {
        Self::Heat {
            solver,
            kind: WorkloadKind::Analytic,
            noise_amplitude: 0.0,
        }
    }

    /// The noisy heat workload: the closed-form field plus seeded uniform
    /// observation noise of the given amplitude (Kelvin), keyed by the
    /// launcher's per-attempt seed so retried attempts observe fresh noise.
    pub fn heat_noisy(solver: SolverConfig, noise_amplitude: f64) -> Self {
        Self::Heat {
            solver,
            kind: WorkloadKind::Analytic,
            noise_amplitude,
        }
    }

    /// An advection–diffusion workload running the finite-difference scheme.
    pub fn advection(config: AdvectionConfig) -> Self {
        Self::Advection {
            config,
            variant: AdvectionVariant::FiniteDifference,
        }
    }

    /// An advection–diffusion workload evaluating the closed form.
    pub fn advection_analytic(config: AdvectionConfig) -> Self {
        Self::Advection {
            config,
            variant: AdvectionVariant::Analytic,
        }
    }

    /// Builds the runtime workload this spec describes.
    pub fn build(&self) -> Arc<dyn Workload> {
        match self {
            WorkloadSpec::Heat {
                solver,
                kind,
                noise_amplitude,
            } => Arc::new(SyntheticWorkload {
                config: *solver,
                kind: *kind,
                noise_amplitude: *noise_amplitude,
            }),
            WorkloadSpec::Advection { config, variant } => Arc::new(AdvectionWorkload {
                config: *config,
                variant: *variant,
            }),
        }
    }

    /// Validates the described workload.
    pub fn validate(&self) -> Result<(), WorkloadError> {
        self.build().validate()
    }

    /// The physics label of the described workload.
    pub fn name(&self) -> &'static str {
        match self {
            WorkloadSpec::Heat {
                noise_amplitude, ..
            } if *noise_amplitude > 0.0 => "heat2d-noisy",
            WorkloadSpec::Heat {
                kind: WorkloadKind::Solver,
                ..
            } => "heat2d",
            WorkloadSpec::Heat {
                kind: WorkloadKind::Analytic,
                ..
            } => "heat2d-analytic",
            WorkloadSpec::Advection {
                variant: AdvectionVariant::FiniteDifference,
                ..
            } => "advection-diffusion-2d",
            WorkloadSpec::Advection {
                variant: AdvectionVariant::Analytic,
                ..
            } => "advection-diffusion-2d-analytic",
        }
    }

    /// Grid dimensions of one emitted field.
    pub fn shape(&self) -> Vec<usize> {
        match self {
            WorkloadSpec::Heat { solver, .. } => vec![solver.nx, solver.ny],
            WorkloadSpec::Advection { config, .. } => vec![config.nx, config.ny],
        }
    }

    /// Number of time steps per trajectory.
    pub fn steps(&self) -> usize {
        match self {
            WorkloadSpec::Heat { solver, .. } => solver.steps,
            WorkloadSpec::Advection { config, .. } => config.steps,
        }
    }

    /// Time-step size `Δt`.
    pub fn dt(&self) -> f64 {
        match self {
            WorkloadSpec::Heat { solver, .. } => solver.dt,
            WorkloadSpec::Advection { config, .. } => config.dt,
        }
    }

    /// Number of values in one emitted time step.
    pub fn field_len(&self) -> usize {
        match self {
            WorkloadSpec::Heat { solver, .. } => solver.field_len(),
            WorkloadSpec::Advection { config, .. } => config.field_len(),
        }
    }

    /// Size in bytes of one full trajectory.
    pub fn trajectory_bytes(&self) -> usize {
        self.field_len() * std::mem::size_of::<f32>() * self.steps()
    }

    /// The design space the parameters are sampled from.
    pub fn parameter_space(&self) -> ParameterSpace {
        match self {
            WorkloadSpec::Heat { .. } => ParameterSpace::default(),
            WorkloadSpec::Advection { .. } => AdvectionWorkload::design_space(),
        }
    }

    /// The physical range of the output fields.
    pub fn output_range(&self) -> ParamRange {
        match self {
            WorkloadSpec::Heat { .. } => ParamRange::default(),
            WorkloadSpec::Advection { .. } => ParamRange::new(
                0.0,
                AdvectionWorkload::design_space().ranges[melissa_workload::advection::P_AMPLITUDE]
                    .max,
            ),
        }
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
    fn advection_spec_round_trips_through_build() {
        let spec = WorkloadSpec::advection(AdvectionConfig::default());
        assert_eq!(spec.steps(), 25);
        assert_eq!(spec.field_len(), 256);
        assert_eq!(spec.name(), "advection-diffusion-2d");
        assert!(spec.validate().is_ok());
        // The advection design space is per-dimension, not the paper's box.
        let space = spec.parameter_space();
        assert!(space.ranges[0].min > 0.0);
        assert!(space.ranges[1].min < 0.0);
        let output = spec.output_range();
        assert_eq!(output.min, 0.0);
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

    #[test]
    fn normalizers_follow_the_workload() {
        let spec = WorkloadSpec::advection_analytic(AdvectionConfig::default());
        let input = spec.input_normalizer();
        // Five parameter dimensions plus the trajectory duration.
        assert_eq!(input.mins.len(), 5);
        assert!((input.time_max - 0.5).abs() < 1e-6);
        let output = spec.output_normalizer();
        assert_eq!(output.value_min, 0.0);
    }

    #[test]
    fn spec_metadata_matches_the_built_workload() {
        // The accessors answer from the enum without building; this pins them
        // to the Workload impls so the two views cannot drift apart.
        let specs = [
            WorkloadSpec::heat(SolverConfig::default()),
            WorkloadSpec::heat_analytic(SolverConfig::default()),
            WorkloadSpec::heat_noisy(SolverConfig::default(), 2.0),
            WorkloadSpec::advection(AdvectionConfig::default()),
            WorkloadSpec::advection_analytic(AdvectionConfig::default()),
        ];
        for spec in specs {
            let workload = spec.build();
            assert_eq!(spec.name(), workload.name());
            assert_eq!(spec.shape(), workload.shape());
            assert_eq!(spec.steps(), workload.steps());
            assert_eq!(spec.dt(), workload.dt());
            assert_eq!(spec.field_len(), workload.field_len());
            assert_eq!(spec.trajectory_bytes(), workload.trajectory_bytes());
            assert_eq!(spec.parameter_space(), workload.parameter_space());
            assert_eq!(spec.output_range(), workload.output_range());
        }
    }

    #[test]
    fn spec_serialization_roundtrip() {
        let spec = WorkloadSpec::advection(AdvectionConfig::default());
        let json = serde_json::to_string(&spec).unwrap();
        let back: WorkloadSpec = serde_json::from_str(&json).unwrap();
        assert_eq!(back, spec);
    }
}
