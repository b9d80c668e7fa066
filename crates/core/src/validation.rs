//! The held-out validation set.
//!
//! The paper validates on 10 simulations generated offline and never seen
//! during training (§4.4). The validation set here is generated with a
//! dedicated sampler seed far away from the training campaign's seed, so the
//! validation parameters never coincide with training parameters. Generation
//! goes through the physics-agnostic [`Workload`] trait, so any physics the
//! experiment streams can also be validated against.
//!
//! The held-out simulations run like the ensemble they stand in for: one
//! launcher campaign over the available cores. Each simulation fills its
//! own slot and the slots are concatenated in simulation order, so the set
//! is bit-identical to generating the simulations one after another.

use crate::config::ExperimentConfig;
use crate::sample::{payload_into_sample, step_into_payload};
use melissa_ensemble::{CampaignPlan, ClientError, Launcher, LauncherConfig, RetryPolicy};
use melissa_workload::Workload;
use std::sync::OnceLock;
use surrogate_nn::{Batch, InputNormalizer, Mlp, MseLoss, OutputNormalizer, Sample, Workspace};

/// A fixed set of held-out samples with a method to score a model on them.
///
/// [`ValidationSet::evaluate_with`] routes the forward passes through a
/// caller-provided [`Workspace`] and assembles the evaluation batches into a
/// single reused buffer, so one evaluation of the whole set costs one small
/// allocation (the batch buffer) — and the samples are stored exactly once.
#[derive(Debug, Clone)]
pub struct ValidationSet {
    samples: Vec<Sample>,
    batch_size: usize,
    output_norm: OutputNormalizer,
}

impl ValidationSet {
    /// Generates the validation set for an experiment: `validation_simulations`
    /// held-out trajectories of the configured workload.
    pub fn generate(config: &ExperimentConfig) -> Self {
        Self::generate_with(
            config,
            config.workload.build().as_ref(),
            &config.workload.input_normalizer(),
            &config.workload.output_normalizer(),
        )
    }

    /// Builds a validation set directly from samples (used in tests). The
    /// output normaliser defaults to the paper's heat range; override it with
    /// [`ValidationSet::with_output_normalizer`] before calling
    /// [`ValidationSet::evaluate_physical`] on another physics.
    pub fn from_samples(samples: Vec<Sample>, batch_size: usize) -> Self {
        Self {
            samples,
            batch_size: batch_size.max(1),
            output_norm: OutputNormalizer::default(),
        }
    }

    /// Overrides the output normaliser used by
    /// [`ValidationSet::evaluate_physical`].
    pub fn with_output_normalizer(mut self, output_norm: OutputNormalizer) -> Self {
        self.output_norm = output_norm;
        self
    }

    /// Number of validation samples.
    pub fn len(&self) -> usize {
        self.samples.len()
    }

    /// True when the set is empty.
    pub fn is_empty(&self) -> bool {
        self.samples.is_empty()
    }

    /// The held-out samples.
    pub fn samples(&self) -> &[Sample] {
        &self.samples
    }

    /// The output normaliser the targets were normalised with.
    pub fn output_normalizer(&self) -> &OutputNormalizer {
        &self.output_norm
    }

    /// Mean squared error of the model over the whole validation set
    /// (normalised units, as plotted by the paper). Convenience wrapper that
    /// builds a throwaway workspace; the training loop uses
    /// [`ValidationSet::evaluate_with`] with its own.
    pub fn evaluate(&self, model: &Mlp) -> f32 {
        if self.samples.is_empty() {
            return 0.0;
        }
        let mut ws = model.workspace(self.batch_size);
        self.evaluate_with(model, &mut ws)
    }

    /// Mean squared error of the model through a reusable [`Workspace`]:
    /// every chunk is assembled into one reused batch buffer and run through
    /// [`Mlp::predict_ws`]; each chunk's squared errors are summed by
    /// [`MseLoss::squared_error_sum`], in the training loss's order and
    /// without a difference matrix, and the chunk means are weighted by the
    /// chunk's sample count.
    pub fn evaluate_with(&self, model: &Mlp, ws: &mut Workspace) -> f32 {
        if self.samples.is_empty() {
            return 0.0;
        }
        let mut batch = Batch::with_capacity(
            self.batch_size.min(self.samples.len()),
            model.input_size(),
            model.output_size(),
        );
        let mut total = 0.0f64;
        let mut count = 0usize;
        for chunk in self.samples.chunks(self.batch_size) {
            batch.fill_owned(chunk);
            let prediction = model.predict_ws(&batch.inputs, ws);
            let n = (prediction.rows() * prediction.cols()).max(1) as f32;
            let sum = MseLoss.squared_error_sum(prediction, &batch.targets);
            total += (sum / n) as f64 * chunk.len() as f64;
            count += chunk.len();
        }
        (total / count as f64) as f32
    }

    /// Validation MSE converted back to the workload's squared physical units
    /// (Kelvin² for the heat workload).
    pub fn evaluate_physical(&self, model: &Mlp) -> f32 {
        self.output_norm.denormalize_mse(self.evaluate(model))
    }

    /// Generates a validation set for an experiment and an explicit input
    /// normaliser (used when the caller already built the workload).
    ///
    /// The `validation_simulations` held-out trajectories run as one launcher
    /// campaign over the available cores, its Monte Carlo design seeded with
    /// [`ExperimentConfig::validation_seed`]. Each job streams its trajectory
    /// into its own slot, and the slots are concatenated in simulation order,
    /// so the set is bit-identical to serial generation.
    pub fn generate_with(
        config: &ExperimentConfig,
        workload: &dyn Workload,
        input_norm: &InputNormalizer,
        output_norm: &OutputNormalizer,
    ) -> Self {
        let simulations = config.training.validation_simulations;
        let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
        let plan =
            CampaignPlan::single_series(simulations, cores).with_seed(config.validation_seed());
        // A held-out trajectory that fails is a bug, not a crash to retry.
        let launcher = Launcher::new(LauncherConfig {
            retry: RetryPolicy {
                max_retries: 0,
                ..RetryPolicy::default()
            },
            ..LauncherConfig::default()
        });
        let slots: Vec<OnceLock<Vec<Sample>>> = (0..simulations).map(|_| OnceLock::new()).collect();
        launcher.run_campaign_in(&plan, &workload.parameter_space(), |job| {
            let mut samples = Vec::with_capacity(workload.steps());
            // `generate`, not `generate_seeded`: a stochastic workload's
            // held-out noise must not depend on the launcher's attempt seed.
            workload
                .generate(job.parameters, &mut |step| {
                    let payload = step_into_payload(step, u64::MAX - job.client_id);
                    samples.push(payload_into_sample(payload, input_norm, output_norm));
                })
                .map_err(|e| ClientError::crash(e.to_string()))?;
            // Without retries every client runs once, so its slot is empty.
            let _ = slots[job.client_id as usize].set(samples);
            Ok(())
        });
        let samples = slots
            .into_iter()
            .flat_map(|slot| {
                slot.into_inner()
                    // analysis: allow(panic, reason = "the workload config was validated at experiment start; a failure here is a bug, not an input error")
                    .expect("validated workload configuration")
            })
            .collect();
        Self {
            samples,
            batch_size: config.training.batch_size.max(1),
            output_norm: output_norm.clone(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::ExperimentConfig;
    use crate::sample::{payload_to_sample, step_to_payload};
    use crate::workload_spec::WorkloadSpec;
    use heat_solver::SolverConfig;
    use melissa_ensemble::{ParameterSampler, SamplerKind};
    use surrogate_nn::MlpConfig;

    /// Serial generation — one whole trajectory after another on the calling
    /// thread, each step converted through the borrowing
    /// `step_to_payload` → `payload_to_sample` — kept as the oracle the
    /// launcher campaign, which moves its steps, must equal.
    fn serial_oracle(config: &ExperimentConfig) -> Vec<Sample> {
        let workload = config.workload.build();
        let input_norm = config.workload.input_normalizer();
        let output_norm = config.workload.output_normalizer();
        let simulations = config.training.validation_simulations;
        let mut sampler = ParameterSampler::new(
            SamplerKind::MonteCarlo,
            workload.parameter_space(),
            simulations,
            config.validation_seed(),
        );
        let mut samples = Vec::new();
        for sim in 0..simulations {
            let trajectory = workload.trajectory(sampler.parameters(sim)).unwrap();
            for step in &trajectory {
                let payload = step_to_payload(step, u64::MAX - sim as u64);
                samples.push(payload_to_sample(&payload, &input_norm, &output_norm));
            }
        }
        samples
    }

    #[test]
    fn generation_equals_the_serial_oracle() {
        let analytic = SolverConfig {
            nx: 8,
            ny: 8,
            steps: 5,
            ..SolverConfig::default()
        };
        let solver = SolverConfig {
            nx: 12,
            ny: 12,
            steps: 8,
            ..SolverConfig::default()
        };
        let workloads = [
            WorkloadSpec::heat_analytic(analytic),
            WorkloadSpec::heat(solver),
            WorkloadSpec::heat_noisy(analytic, 5.0),
        ];
        for workload in workloads {
            for simulations in [0, 1, 5] {
                let mut config = tiny_config();
                config.workload = workload.clone();
                config.training.validation_simulations = simulations;
                let oracle = serial_oracle(&config);
                assert_eq!(oracle.len(), simulations * workload.steps());
                assert_eq!(
                    ValidationSet::generate(&config).samples(),
                    oracle.as_slice(),
                    "{} with {simulations} held-out simulations",
                    workload.name()
                );
            }
        }
    }

    fn tiny_config() -> ExperimentConfig {
        let mut config = ExperimentConfig::small_scale();
        config.training.validation_simulations = 2;
        config.workload = WorkloadSpec::heat_analytic(SolverConfig {
            nx: 8,
            ny: 8,
            steps: 5,
            ..SolverConfig::default()
        });
        config
    }

    #[test]
    fn generates_expected_number_of_samples() {
        let config = tiny_config();
        let validation = ValidationSet::generate(&config);
        assert_eq!(validation.len(), 2 * 5);
        for s in validation.samples() {
            assert_eq!(s.input.len(), 6);
            assert_eq!(s.target.len(), 64);
        }
    }

    #[test]
    fn generation_is_deterministic() {
        let config = tiny_config();
        let a = ValidationSet::generate(&config);
        let b = ValidationSet::generate(&config);
        assert_eq!(a.samples(), b.samples());
    }

    #[test]
    fn different_experiment_seed_changes_the_set() {
        let config = tiny_config();
        let mut other = tiny_config();
        other.seed += 1;
        let a = ValidationSet::generate(&config);
        let b = ValidationSet::generate(&other);
        assert_ne!(a.samples(), b.samples());
    }

    #[test]
    fn evaluate_is_finite_and_physically_scaled() {
        let config = tiny_config();
        let validation = ValidationSet::generate(&config);
        let model = Mlp::new(config.surrogate.mlp_config(config.output_size()));
        let mse = validation.evaluate(&model);
        assert!(mse.is_finite());
        assert!(mse >= 0.0);
        let kelvin = validation.evaluate_physical(&model);
        assert!((kelvin - mse * 400.0 * 400.0).abs() < kelvin.abs() * 1e-4 + 1e-6);
    }

    #[test]
    fn from_samples_physical_scale_follows_the_overridden_normalizer() {
        let samples = vec![Sample::new(vec![0.5; 3], vec![0.25; 4], 1, 0)];
        let model = Mlp::new(MlpConfig {
            layer_sizes: vec![3, 4],
            activation: surrogate_nn::Activation::ReLU,
            init: surrogate_nn::InitScheme::Zeros,
            seed: 0,
        });
        let heat = ValidationSet::from_samples(samples.clone(), 1);
        let unit = ValidationSet::from_samples(samples, 1)
            .with_output_normalizer(OutputNormalizer::for_range(0.0, 1.0));
        let mse = unit.evaluate(&model);
        assert_eq!(unit.evaluate_physical(&model), mse);
        assert!((heat.evaluate_physical(&model) - mse * 400.0 * 400.0).abs() < 1e-3);
    }

    #[test]
    fn evaluate_with_matches_evaluate() {
        let config = tiny_config();
        let validation = ValidationSet::generate(&config);
        let model = Mlp::new(config.surrogate.mlp_config(config.output_size()));
        let mut ws = model.workspace(config.training.batch_size);
        assert_eq!(
            validation.evaluate_with(&model, &mut ws),
            validation.evaluate(&model)
        );
    }

    #[test]
    fn perfect_model_scores_zero_on_constant_targets() {
        // A validation set whose targets are all zero and a model with all-zero
        // weights: the prediction is exactly zero, so the MSE must be zero.
        let samples = vec![
            Sample::new(vec![0.0; 3], vec![0.0; 4], 1, 0),
            Sample::new(vec![0.5; 3], vec![0.0; 4], 1, 1),
        ];
        let validation = ValidationSet::from_samples(samples, 2);
        let model = Mlp::new(MlpConfig {
            layer_sizes: vec![3, 4, 4],
            activation: surrogate_nn::Activation::ReLU,
            init: surrogate_nn::InitScheme::Zeros,
            seed: 0,
        });
        assert_eq!(validation.evaluate(&model), 0.0);
    }

    #[test]
    fn evaluate_sums_each_chunk_in_the_tree_order_and_weights_it_by_size() {
        // A zero model predicts 0, so the errors are the targets. Chunk 1 is
        // two samples × 4 outputs, one block of eight: it errs by 1 once and
        // by 2⁻¹² seven times. One serial chain would lose every 2⁻²⁴ square
        // against the 1; the 8-lane tree keeps six of them, so its sum is
        // 1 + 3·2⁻²³. Chunk 2 is one sample, four tail elements of 0.5.
        let small = 2.0f32.powi(-12);
        let samples = vec![
            Sample::new(vec![0.0; 3], vec![1.0, small, small, small], 1, 0),
            Sample::new(vec![0.0; 3], vec![small; 4], 1, 1),
            Sample::new(vec![0.0; 3], vec![0.5; 4], 1, 2),
        ];
        let validation = ValidationSet::from_samples(samples, 2);
        let model = Mlp::new(MlpConfig {
            layer_sizes: vec![3, 4],
            activation: surrogate_nn::Activation::ReLU,
            init: surrogate_nn::InitScheme::Zeros,
            seed: 0,
        });
        let chunk_sums = [1.0 + 3.0 * 2.0f32.powi(-23), 1.0];
        let serial_first = [1.0f32]
            .into_iter()
            .chain([small; 7])
            .fold(0.0f32, |s, d| s + d * d);
        assert_eq!(serial_first, 1.0);
        assert_ne!(chunk_sums[0], serial_first);
        let mut total = 0.0f64;
        total += (chunk_sums[0] / 8.0) as f64 * 2.0;
        total += (chunk_sums[1] / 4.0) as f64 * 1.0;
        let expected = (total / 3.0) as f32;
        assert_eq!(validation.evaluate(&model).to_bits(), expected.to_bits());
    }

    #[test]
    fn empty_set_evaluates_to_zero() {
        let validation = ValidationSet::from_samples(Vec::new(), 4);
        let model = Mlp::new(MlpConfig {
            layer_sizes: vec![2, 2],
            activation: surrogate_nn::Activation::ReLU,
            init: surrogate_nn::InitScheme::HeUniform,
            seed: 0,
        });
        assert!(validation.is_empty());
        assert_eq!(validation.evaluate(&model), 0.0);
    }
}
