//! # surrogate-nn
//!
//! A from-scratch dense neural-network library providing the deep-learning
//! substrate of the SC'23 Melissa reproduction: the paper
//! trains a fully connected surrogate (6 → 256 → 256 → H·W, ReLU, Adam,
//! halve-the-learning-rate schedule) with PyTorch's distributed data parallelism
//! across GPUs. Here the same architecture family is implemented directly:
//!
//! * [`Matrix`] — a minimal dense row-major 2D tensor: the batch and buffer
//!   type. The GEMMs run over its data slices in the cache-blocked,
//!   register-tiled kernels of [`kernels`] and their SIMD arms in [`simd`].
//! * [`Workspace`] — the preallocated forward/backward buffers behind
//!   [`Mlp::forward_ws`] / [`Mlp::backward_ws`], the one training path: zero
//!   heap allocations per training batch in steady state, with optional
//!   row-parallel GEMM that is bit-identical for every thread count.
//! * [`Mlp`] — a multilayer perceptron with ReLU/Tanh/Sigmoid/Identity
//!   activations, seeded initialisation, the workspace forward/backward
//!   passes, a gradient arena and flattened parameter views (convenient for
//!   the optimizer and all-reduce).
//! * [`MseLoss`] / [`Loss`] — the loss, producing the scalar value and the
//!   gradient with respect to the network output in one pass.
//! * [`Adam`] / [`Optimizer`] — the optimizer, updating the parameters in place
//!   from the gradient arena.
//! * [`LrSchedule`] — the paper's "halve every N batches with a floor" schedule
//!   plus constant and sample-based variants (§4.5 scales the schedule with the
//!   number of GPUs so the decay happens per-sample, not per-batch).
//! * [`GradientSynchronizer`] — the data-parallel training round of the
//!   server's replicas (each worker thread plays the role of one GPU): every
//!   rank reduces its 1/N of the gradient in rank order, Adam-steps that
//!   range, and all-gathers the others; the ranks' termination vote rides the
//!   same round.
//! * [`InputNormalizer`]/[`OutputNormalizer`] — per-dimension affine normalisation
//!   of workload inputs and output fields (defaults match the paper's heat setup).
//!
//! Everything is deterministic under a fixed seed, matching the paper's remark
//! that all stochastic components are seeded for reproducibility.

pub mod allreduce;
pub mod data;
pub mod init;
pub mod kernels;
pub mod loss;
pub mod matrix;
pub mod mlp;
pub mod normalize;
pub mod optim;
pub mod schedule;
pub mod serialize;
pub mod simd;
pub mod workspace;

pub use allreduce::{GradientSynchronizer, Verdict, Vote};
pub use data::{Batch, Dataset, Sample};
pub use init::{InitScheme, WeightInit};
pub use loss::{Loss, MseLoss};
pub use matrix::Matrix;
pub use mlp::{Activation, Mlp, MlpConfig};
pub use normalize::{InputNormalizer, OutputNormalizer};
pub use optim::{Adam, AdamConfig, Optimizer};
pub use schedule::{ConstantLr, LrSchedule, SampleBasedHalving, StepHalving};
pub use serialize::{load_mlp, save_mlp, ModelCheckpoint};
pub use simd::{KernelIsa, ResolvedIsa};
pub use workspace::Workspace;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn crate_level_training_smoke() {
        // Train y = 2x + 1 on a tiny MLP and check the loss decreases.
        let config = MlpConfig {
            layer_sizes: vec![1, 8, 1],
            activation: Activation::Tanh,
            init: InitScheme::XavierUniform,
            seed: 7,
        };
        let mut model = Mlp::new(config);
        let mut optim = Adam::new(AdamConfig::default(), model.param_count());
        let loss_fn = MseLoss;

        let xs: Vec<f32> = (0..32).map(|k| k as f32 / 32.0).collect();
        let inputs = Matrix::from_rows(&xs.iter().map(|&x| vec![x]).collect::<Vec<_>>());
        let targets =
            Matrix::from_rows(&xs.iter().map(|&x| vec![2.0 * x + 1.0]).collect::<Vec<_>>());
        let mut ws = model.workspace(inputs.rows());

        let mut first = None;
        let mut last = 0.0;
        for _ in 0..300 {
            model.forward_ws(&inputs, &mut ws);
            let (pred, grad) = ws.output_and_grad_mut();
            let loss = loss_fn.evaluate_into(pred, &targets, grad);
            model.backward_ws(&mut ws);
            optim.step_in_place(&mut model, 1e-2);
            if first.is_none() {
                first = Some(loss);
            }
            last = loss;
        }
        assert!(last < first.unwrap() * 0.05, "loss {last} vs {:?}", first);
    }
}
