//! Synthetic workload generation for throughput experiments.
//!
//! The paper's largest experiment streams 8 TB of solver output through the
//! framework. Reproducing the *framework* behaviour (buffer dynamics, throughput
//! balance, scheduler effects) does not require paying the full solver cost for
//! every sample, so this module provides a [`SyntheticWorkload`] that can emit
//! time steps either from the real solver ([`WorkloadKind::Solver`]) or from a
//! cheap closed-form approximation ([`WorkloadKind::Analytic`]), optionally
//! with seeded observation noise on top (`noise_amplitude`).

use crate::analytic::TransientTable;
use crate::boundary::BoundaryConditions;
use crate::params::SimulationParams;
use crate::solver::{HeatSolver, SolverConfig, SolverError, TimeStepField};
use melissa_workload::{
    ParamPoint, ParamRange, ParameterSpace, Workload, WorkloadError, WorkloadStep,
};
use serde::Serialize;

impl From<SolverError> for WorkloadError {
    fn from(error: SolverError) -> Self {
        let SolverError::InvalidConfig(reason) = error;
        WorkloadError::InvalidConfig(reason)
    }
}

/// How the workload produces its time steps.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Default)]
pub enum WorkloadKind {
    /// Run the actual finite-difference solver (accurate, slower).
    #[default]
    Solver,
    /// Evaluate a closed-form approximation of the solution (fast; preserves the
    /// data shape, sizes and parameter dependence needed by framework studies).
    Analytic,
}

/// A generator of solver-shaped time-step streams.
#[derive(Debug, Clone)]
pub struct SyntheticWorkload {
    /// Solver configuration (grid, steps, Δt, …).
    pub config: SolverConfig,
    /// Data source.
    pub kind: WorkloadKind,
    /// Amplitude (in Kelvin) of seeded uniform observation noise added to
    /// every emitted value; 0 (the default) streams the exact field. The
    /// noise stream is a pure function of the attempt seed passed to
    /// `Workload::generate_seeded`, so a retried client attempt observes
    /// fresh noise while a replayed attempt is bit-identical.
    pub noise_amplitude: f64,
}

impl SyntheticWorkload {
    /// Creates a workload backed by the real solver.
    pub fn solver(config: SolverConfig) -> Self {
        Self {
            config,
            kind: WorkloadKind::Solver,
            noise_amplitude: 0.0,
        }
    }

    /// Creates a workload backed by the closed-form approximation.
    pub fn analytic(config: SolverConfig) -> Self {
        Self {
            config,
            kind: WorkloadKind::Analytic,
            noise_amplitude: 0.0,
        }
    }

    /// Creates the noisy variant: the closed-form field plus seeded uniform
    /// observation noise of the given amplitude (Kelvin).
    pub fn noisy(config: SolverConfig, noise_amplitude: f64) -> Self {
        Self {
            config,
            kind: WorkloadKind::Analytic,
            noise_amplitude,
        }
    }

    /// Generates the full trajectory for one parameter draw, invoking `sink`
    /// for every produced step (in time order).
    pub fn generate(
        &self,
        params: SimulationParams,
        mut sink: impl FnMut(TimeStepField),
    ) -> Result<(), SolverError> {
        match self.kind {
            WorkloadKind::Solver => {
                let solver = HeatSolver::new(self.config, params)?;
                for step in solver.run()? {
                    sink(step);
                }
                Ok(())
            }
            WorkloadKind::Analytic => {
                self.config.validate()?;
                let table = TransientTable::new(
                    self.config.grid(),
                    &BoundaryConditions::from_params(&params),
                    params.t_initial,
                    self.config.alpha,
                );
                for step in 0..self.config.steps {
                    let time = (step as f64 + 1.0) * self.config.dt;
                    sink(TimeStepField {
                        step,
                        time,
                        params,
                        nx: self.config.nx,
                        ny: self.config.ny,
                        values: table.at(time),
                    });
                }
                Ok(())
            }
        }
    }

    /// Generates and collects the full trajectory.
    pub fn trajectory(&self, params: SimulationParams) -> Result<Vec<TimeStepField>, SolverError> {
        let mut out = Vec::with_capacity(self.config.steps);
        self.generate(params, |s| out.push(s))?;
        Ok(out)
    }

    /// Total number of bytes one trajectory of this workload produces.
    pub fn trajectory_bytes(&self) -> usize {
        self.config.trajectory_bytes()
    }
}

impl SyntheticWorkload {
    /// The shared body of the trait's `generate`/`generate_seeded`: runs the
    /// underlying generator and, for the noisy variant, perturbs every value
    /// with uniform noise drawn from a ChaCha8 stream keyed by `seed` alone
    /// (seed-policy stream "attempt-v1": the launcher derives the seed per
    /// (campaign, client, attempt), so retries re-observe, replays repeat).
    fn generate_with_seed(
        &self,
        params: ParamPoint,
        seed: u64,
        sink: &mut dyn FnMut(WorkloadStep),
    ) -> Result<(), WorkloadError> {
        use rand::{Rng, SeedableRng};
        let mut rng =
            (self.noise_amplitude > 0.0).then(|| rand_chacha::ChaCha8Rng::seed_from_u64(seed));
        let amplitude = self.noise_amplitude as f32;
        SyntheticWorkload::generate(self, SimulationParams::new(params), |field| {
            let mut values = field.values;
            if let Some(rng) = rng.as_mut() {
                for value in &mut values {
                    *value += rng.gen_range(-amplitude..=amplitude);
                }
            }
            sink(WorkloadStep {
                step: field.step,
                time: field.time,
                params,
                values,
            })
        })
        .map_err(Into::into)
    }
}

/// The paper's physics, seen through the physics-agnostic seam: the training
/// stack drives [`SyntheticWorkload`] exclusively through this impl.
impl Workload for SyntheticWorkload {
    fn name(&self) -> &'static str {
        if self.noise_amplitude > 0.0 {
            return "heat2d-noisy";
        }
        match self.kind {
            WorkloadKind::Solver => "heat2d",
            WorkloadKind::Analytic => "heat2d-analytic",
        }
    }

    fn shape(&self) -> Vec<usize> {
        vec![self.config.nx, self.config.ny]
    }

    fn steps(&self) -> usize {
        self.config.steps
    }

    fn dt(&self) -> f64 {
        self.config.dt
    }

    fn parameter_space(&self) -> ParameterSpace {
        // The paper's design space: five temperatures in [100, 500] K.
        ParameterSpace::default()
    }

    fn output_range(&self) -> ParamRange {
        // The maximum principle keeps the field inside the sampled range.
        ParamRange::default()
    }

    fn validate(&self) -> Result<(), WorkloadError> {
        if !self.noise_amplitude.is_finite() || self.noise_amplitude < 0.0 {
            return Err(WorkloadError::InvalidConfig(format!(
                "noise amplitude must be finite and non-negative, got {}",
                self.noise_amplitude
            )));
        }
        self.config.validate().map_err(Into::into)
    }

    fn generate(
        &self,
        params: ParamPoint,
        sink: &mut dyn FnMut(WorkloadStep),
    ) -> Result<(), WorkloadError> {
        // The unseeded path is attempt seed 0, so the determinism contract
        // (same params → same stream) holds for the noisy variant too.
        self.generate_with_seed(params, 0, sink)
    }

    fn generate_seeded(
        &self,
        params: ParamPoint,
        seed: u64,
        sink: &mut dyn FnMut(WorkloadStep),
    ) -> Result<(), WorkloadError> {
        self.generate_with_seed(params, seed, sink)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn config() -> SolverConfig {
        SolverConfig {
            nx: 8,
            ny: 8,
            steps: 6,
            ..SolverConfig::default()
        }
    }

    fn params() -> SimulationParams {
        SimulationParams::new([400.0, 150.0, 200.0, 250.0, 300.0])
    }

    #[test]
    fn analytic_workload_produces_full_trajectory() {
        let w = SyntheticWorkload::analytic(config());
        let steps = w.trajectory(params()).unwrap();
        assert_eq!(steps.len(), 6);
        for (k, s) in steps.iter().enumerate() {
            assert_eq!(s.step, k);
            assert_eq!(s.values.len(), 64);
            assert!(s.values.iter().all(|v| v.is_finite()));
        }
    }

    #[test]
    fn analytic_values_stay_in_physical_range() {
        let w = SyntheticWorkload::analytic(config());
        let steps = w.trajectory(params()).unwrap();
        for s in steps {
            for &v in &s.values {
                assert!(
                    (100.0..=500.0).contains(&v),
                    "value {v} escapes sampled range"
                );
            }
        }
    }

    #[test]
    fn solver_and_analytic_agree_qualitatively_late_in_time() {
        // Late in the trajectory both converge towards a boundary-driven field.
        let mut cfg = config();
        cfg.steps = 200;
        cfg.dt = 0.01;
        let analytic = SyntheticWorkload::analytic(cfg);
        let solver = SyntheticWorkload::solver(cfg);
        let p = params();
        let a = analytic.trajectory(p).unwrap();
        let s = solver.trajectory(p).unwrap();
        let last_a = a.last().unwrap();
        let last_s = s.last().unwrap();
        let mean_a: f32 = last_a.values.iter().sum::<f32>() / last_a.values.len() as f32;
        let mean_s: f32 = last_s.values.iter().sum::<f32>() / last_s.values.len() as f32;
        // Both should sit near the boundary mean (225 K), far from the IC (400 K).
        assert!((mean_a - mean_s).abs() < 30.0, "means {mean_a} vs {mean_s}");
    }

    #[test]
    fn workload_reports_trajectory_bytes() {
        let w = SyntheticWorkload::analytic(config());
        assert_eq!(w.trajectory_bytes(), 8 * 8 * 4 * 6);
    }

    #[test]
    fn generate_respects_sink_ordering() {
        let w = SyntheticWorkload::analytic(config());
        let mut seen = Vec::new();
        w.generate(params(), |s| seen.push(s.step)).unwrap();
        assert_eq!(seen, vec![0, 1, 2, 3, 4, 5]);
    }

    fn seeded_values(w: &SyntheticWorkload, seed: u64) -> Vec<f32> {
        let mut out = Vec::new();
        Workload::generate_seeded(w, [400.0, 150.0, 200.0, 250.0, 300.0], seed, &mut |s| {
            out.extend(s.values)
        })
        .unwrap();
        out
    }

    #[test]
    fn noisy_attempts_differ_and_each_is_reproducible() {
        let w = SyntheticWorkload::noisy(config(), 2.0);
        assert_eq!(Workload::name(&w), "heat2d-noisy");
        let attempt0 = seeded_values(&w, 11);
        let attempt1 = seeded_values(&w, 12);
        assert_ne!(attempt0, attempt1, "different attempt seeds → fresh noise");
        assert_eq!(
            attempt0,
            seeded_values(&w, 11),
            "same seed replays bit-identically"
        );
        assert_eq!(attempt1, seeded_values(&w, 12));

        // The noise is bounded by the amplitude around the exact field.
        let clean = seeded_values(&SyntheticWorkload::analytic(config()), 11);
        for (noisy, exact) in attempt0.iter().zip(&clean) {
            assert!((noisy - exact).abs() <= 2.0 + 1e-4);
        }
    }

    #[test]
    fn noiseless_workloads_ignore_the_attempt_seed() {
        let w = SyntheticWorkload::analytic(config());
        assert_eq!(seeded_values(&w, 1), seeded_values(&w, 2));
    }

    #[test]
    fn negative_noise_amplitude_is_rejected() {
        let w = SyntheticWorkload::noisy(config(), -1.0);
        assert!(matches!(
            Workload::validate(&w),
            Err(WorkloadError::InvalidConfig(_))
        ));
        assert!(Workload::validate(&SyntheticWorkload::noisy(config(), 2.0)).is_ok());
    }
}
