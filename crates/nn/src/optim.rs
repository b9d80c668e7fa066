//! The optimizer operating on the flattened parameter/gradient vectors.
//!
//! The paper trains with Adam starting at a learning rate of `1e-3`.

use crate::mlp::Mlp;
use crate::simd::{self, FlushGuard, KernelIsa};
use serde::{Deserialize, Serialize};

/// An optimizer consuming flattened gradients and updating the model in place.
pub trait Optimizer: Send {
    /// Applies one update step with the given learning rate, reading the
    /// gradients from `grads` or, when `None`, from the model's own gradient
    /// arena ([`Mlp::grads`]), with subnormals flushed (see "Numeric
    /// contracts" in [`crate::simd`]).
    fn update(&mut self, model: &mut Mlp, grads: Option<&[f32]>, learning_rate: f32);

    /// One update step from an external gradient vector.
    fn step(&mut self, model: &mut Mlp, grads: &[f32], learning_rate: f32) {
        self.update(model, Some(grads), learning_rate);
    }

    /// One update step from the model's gradient arena, copying nothing.
    fn step_in_place(&mut self, model: &mut Mlp, learning_rate: f32) {
        self.update(model, None, learning_rate);
    }

    /// Number of update steps applied so far.
    fn steps_taken(&self) -> usize;

    /// Human-readable optimizer name.
    fn name(&self) -> &'static str;
}

/// Configuration of the [`Adam`] optimizer.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct AdamConfig {
    /// Exponential decay rate of the first moment.
    pub beta1: f32,
    /// Exponential decay rate of the second moment.
    pub beta2: f32,
    /// Numerical stabiliser.
    pub epsilon: f32,
    /// Optional decoupled weight decay (AdamW style); 0 disables it.
    pub weight_decay: f32,
}

impl Default for AdamConfig {
    fn default() -> Self {
        Self {
            beta1: 0.9,
            beta2: 0.999,
            epsilon: 1e-8,
            weight_decay: 0.0,
        }
    }
}

/// Adam optimizer (Kingma & Ba), the paper's choice.
///
/// The step is fully fused: moment update, bias correction, optional
/// decoupled weight decay and the parameter update run in a single pass over
/// (parameters, gradients) via [`Mlp::for_each_param_slice_mut`] — no delta
/// vector is ever materialised, so a step performs zero allocations and
/// touches each parameter-sized buffer the minimum number of times. The arithmetic per
/// element is identical to the classic compute-delta-then-apply formulation.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Adam {
    config: AdamConfig,
    first_moment: Vec<f32>,
    second_moment: Vec<f32>,
    steps: usize,
    /// Kernel-ISA request the fused pass dispatches on. Every resolved ISA is
    /// bit-identical, so this is operational state, not part of a checkpoint
    /// (restored checkpoints re-detect on the restoring host).
    #[serde(skip)]
    isa: KernelIsa,
}

impl Adam {
    /// Creates the optimizer for a model with `param_count` parameters.
    pub fn new(config: AdamConfig, param_count: usize) -> Self {
        Self::restore(config, 0, vec![0.0; param_count], vec![0.0; param_count])
    }

    /// Sets the kernel-ISA request the fused update dispatches on
    /// (bit-identical for every resolved ISA; `Auto` is the default).
    pub fn with_isa(mut self, isa: KernelIsa) -> Self {
        self.isa = isa;
        self
    }

    /// The optimizer configuration.
    pub fn config(&self) -> &AdamConfig {
        &self.config
    }

    /// The first and second moment estimates, in [`Mlp::params_flat`] order;
    /// with the configuration and step count, all [`Adam::restore`] needs.
    pub fn moments(&self) -> (&[f32], &[f32]) {
        (&self.first_moment, &self.second_moment)
    }

    /// Rebuilds an optimizer from checkpointed state; its next update is the
    /// one the captured optimizer would have made next, bit for bit.
    ///
    /// # Panics
    /// Panics when the two moment vectors differ in length.
    pub fn restore(config: AdamConfig, steps: usize, first: Vec<f32>, second: Vec<f32>) -> Self {
        assert_eq!(first.len(), second.len(), "moment lengths differ");
        Self {
            config,
            first_moment: first,
            second_moment: second,
            steps,
            isa: KernelIsa::Auto,
        }
    }
}

impl Optimizer for Adam {
    fn update(&mut self, model: &mut Mlp, grads: Option<&[f32]>, learning_rate: f32) {
        let _flush = FlushGuard::enter();
        assert_eq!(
            grads.map_or(model.param_count(), <[f32]>::len),
            self.first_moment.len(),
            "gradient length does not match optimizer state"
        );
        self.steps += 1;
        let t = self.steps as f32;
        let b1 = self.config.beta1;
        let b2 = self.config.beta2;
        let step = simd::AdamStep {
            beta1: b1,
            beta2: b2,
            bias1: 1.0 - b1.powf(t),
            bias2: 1.0 - b2.powf(t),
            learning_rate,
            epsilon: self.config.epsilon,
            decay: learning_rate * self.config.weight_decay,
        };
        let isa = self.isa.resolve();
        let first = &mut self.first_moment;
        let second = &mut self.second_moment;
        model.for_each_param_slice_mut(grads, |offset, params, g| {
            let m = &mut first[offset..offset + params.len()];
            let v = &mut second[offset..offset + params.len()];
            simd::adam_update(isa, params, g, m, v, step);
        });
    }

    fn steps_taken(&self) -> usize {
        self.steps
    }

    fn name(&self) -> &'static str {
        "adam"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::init::InitScheme;
    use crate::loss::{Loss, MseLoss};
    use crate::matrix::Matrix;
    use crate::mlp::{Activation, MlpConfig};

    fn model() -> Mlp {
        Mlp::new(MlpConfig {
            layer_sizes: vec![2, 6, 1],
            activation: Activation::Tanh,
            init: InitScheme::XavierUniform,
            seed: 21,
        })
    }

    #[test]
    fn adam_reduces_loss() {
        let mut m = model();
        let mut opt = Adam::new(AdamConfig::default(), m.param_count());
        let inputs = Matrix::from_rows(&[
            vec![0.0, 0.0],
            vec![0.0, 1.0],
            vec![1.0, 0.0],
            vec![1.0, 1.0],
        ]);
        // Learn a simple linear map y = x0 - 0.5 * x1.
        let targets = Matrix::from_rows(&[vec![0.0], vec![-0.5], vec![1.0], vec![0.5]]);
        let mut ws = m.workspace(4);
        let mut first = 0.0;
        let mut last = 0.0;
        for it in 0..200 {
            m.forward_ws(&inputs, &mut ws);
            let (prediction, grad_out) = ws.output_and_grad_mut();
            let loss = MseLoss.evaluate_into(prediction, &targets, grad_out);
            m.backward_ws(&mut ws);
            opt.step_in_place(&mut m, 0.05);
            if it == 0 {
                first = loss;
            }
            last = loss;
        }
        assert!(last < first * 0.1, "first {first} last {last}");
        assert_eq!(opt.steps_taken(), 200);
    }

    #[test]
    fn adam_single_step_matches_reference_formula() {
        // With zero moments, one Adam step moves each parameter by
        // -lr * g/ (|g| * sqrt(bias2)/bias...) — for the first step the update is
        // -lr * sign(g) / (1 + eps), independent of gradient magnitude.
        let mut m = model();
        let before = m.params_flat();
        let mut grads = vec![0.0f32; m.param_count()];
        grads[0] = 0.5;
        grads[1] = -2.0;
        let mut opt = Adam::new(AdamConfig::default(), m.param_count());
        opt.step(&mut m, &grads, 1e-3);
        let after = m.params_flat();
        assert!(
            (before[0] - after[0] - 1e-3).abs() < 1e-5,
            "positive gradient moves down"
        );
        assert!(
            (after[1] - before[1] - 1e-3).abs() < 1e-5,
            "negative gradient moves up"
        );
        // Untouched parameters keep their value.
        assert_eq!(before[2], after[2]);
    }

    #[test]
    fn weight_decay_shrinks_parameters() {
        let mut m = model();
        let before = m.params_flat();
        let grads = vec![0.0f32; m.param_count()];
        let mut opt = Adam::new(
            AdamConfig {
                weight_decay: 0.1,
                ..AdamConfig::default()
            },
            m.param_count(),
        );
        opt.step(&mut m, &grads, 1.0);
        let after = m.params_flat();
        // With zero gradients, only the decay acts: |after| < |before| for nonzero params.
        for (b, a) in before.iter().zip(&after) {
            if b.abs() > 1e-6 {
                assert!(a.abs() < b.abs());
            }
        }
    }

    #[test]
    fn in_place_and_external_steps_are_one_update() {
        // The same gradients through `step` (an external copy) and through
        // `step_in_place` (the model's arena) move the model identically, on
        // every ISA: one kernel loop serves both.
        fn run(isa: KernelIsa, in_place: bool) -> Vec<u32> {
            let mut m = model();
            let mut optimizer = Adam::new(AdamConfig::default(), m.param_count()).with_isa(isa);
            for round in 0..5 {
                for (i, g) in m.grads_mut().iter_mut().enumerate() {
                    *g = ((i + round) % 7) as f32 * 0.01 - 0.03;
                }
                if in_place {
                    optimizer.step_in_place(&mut m, 0.05);
                } else {
                    let grads = m.grads().to_vec();
                    m.zero_grads();
                    optimizer.step(&mut m, &grads, 0.05);
                }
            }
            assert_eq!(optimizer.steps_taken(), 5);
            m.params_flat().iter().map(|p| p.to_bits()).collect()
        }
        let reference_adam = run(KernelIsa::Scalar, false);
        for isa in [KernelIsa::Scalar, KernelIsa::Auto] {
            assert_eq!(run(isa, true), reference_adam);
            assert_eq!(run(isa, false), reference_adam);
        }
    }

    #[test]
    fn optimizer_names() {
        let m = model();
        assert_eq!(
            Adam::new(AdamConfig::default(), m.param_count()).name(),
            "adam"
        );
    }

    #[test]
    #[should_panic(expected = "gradient length does not match")]
    fn adam_rejects_mismatched_gradients() {
        let mut m = model();
        let mut opt = Adam::new(AdamConfig::default(), m.param_count());
        opt.step(&mut m, &[0.0; 3], 1e-3);
    }
}
