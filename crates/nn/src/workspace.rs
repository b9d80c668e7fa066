//! Reusable forward/backward buffers: the ownership model of the
//! allocation-free training path.
//!
//! A [`Workspace`] owns every intermediate tensor one training step needs —
//! the copied batch input, the per-layer activations, the per-layer gradient
//! chain and the input gradient — sized for a maximum batch. The trainer owns
//! exactly one workspace per rank and lends it to
//! [`crate::Mlp::forward_ws`] / [`crate::Mlp::backward_ws`] each step, so the
//! steady-state hot path performs **zero heap allocations per batch**
//! (`tests/workspace_alloc.rs` asserts this with a counting allocator).
//!
//! Partial batches (the last batch of a drained buffer) are handled by
//! logically resizing the buffers down via [`crate::Matrix::resize_rows`],
//! which never reallocates below the high-water mark. Feeding a batch larger
//! than the configured capacity grows the buffers once and establishes a new
//! steady state.
//!
//! The workspace also carries the GEMM thread count: `threads > 1` splits
//! kernel output rows across the scoped thread pool (bit-identical results
//! for every thread count — see [`crate::kernels`]).

use crate::matrix::Matrix;
use crate::mlp::MlpConfig;
use crate::simd::{self, KernelIsa, ResolvedIsa};

/// Preallocated buffers for one model's forward/backward passes.
#[derive(Debug, Clone)]
pub struct Workspace {
    /// Layer widths this workspace was shaped for (input..output).
    pub(crate) layer_sizes: Vec<usize>,
    batch_capacity: usize,
    threads: usize,
    isa: ResolvedIsa,
    /// Copy of the batch input (backward reads it after the caller's borrow ends).
    pub(crate) input: Matrix,
    /// Per-layer post-activation outputs; the last one is the network output.
    pub(crate) acts: Vec<Matrix>,
    /// Per-layer gradient chain: `grads[l]` holds dLoss/d acts[l] on entry to
    /// layer `l`'s backward step and dLoss/d preact afterwards.
    pub(crate) grads: Vec<Matrix>,
    /// Gradient with respect to the network input.
    pub(crate) input_grad: Matrix,
}

impl Workspace {
    /// Creates a workspace for the given architecture and maximum batch size.
    ///
    /// # Panics
    /// Panics when the configuration has fewer than two layer sizes or the
    /// batch capacity is zero.
    pub fn for_config(config: &MlpConfig, batch_capacity: usize) -> Self {
        assert!(
            config.layer_sizes.len() >= 2,
            "a workspace needs at least an input and an output size"
        );
        assert!(batch_capacity > 0, "batch capacity must be positive");
        let sizes = &config.layer_sizes;
        Self {
            layer_sizes: sizes.clone(),
            batch_capacity,
            threads: 1,
            isa: simd::detect(),
            input: Matrix::zeros(batch_capacity, sizes[0]),
            acts: sizes[1..]
                .iter()
                .map(|&w| Matrix::zeros(batch_capacity, w))
                .collect(),
            grads: sizes[1..]
                .iter()
                .map(|&w| Matrix::zeros(batch_capacity, w))
                .collect(),
            input_grad: Matrix::zeros(batch_capacity, sizes[0]),
        }
    }

    /// Sets the GEMM thread count (1 = serial; results are identical for any
    /// value). Values above 1 only pay off for large layers — the kernels fall
    /// back to the serial path below a work threshold.
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.threads = threads.max(1);
        self
    }

    /// The configured GEMM thread count.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Resolves a kernel-ISA request against the hardware and pins this
    /// workspace's forward/backward passes to the decision (the default is
    /// [`simd::detect`]'s auto choice). Every resolved ISA is bit-identical
    /// on the training path, so this is an operational knob like `threads`.
    pub fn with_isa(mut self, isa: KernelIsa) -> Self {
        self.isa = isa.resolve();
        self
    }

    /// The resolved kernel ISA forward/backward dispatch on.
    pub fn isa(&self) -> ResolvedIsa {
        self.isa
    }

    /// The batch size the buffers were preallocated for.
    pub fn batch_capacity(&self) -> usize {
        self.batch_capacity
    }

    /// The network output of the last forward pass.
    // analysis: hot_path
    pub fn output(&self) -> &Matrix {
        // analysis: allow(panic, reason = "Workspace::for_config builds one buffer per layer and Mlp::new asserts >= 1 layer")
        self.acts.last().expect("workspace has at least one layer")
    }

    /// The buffer holding dLoss/dOutput, which the loss writes before
    /// [`crate::Mlp::backward_ws`] consumes it.
    // analysis: hot_path
    pub fn output_grad_mut(&mut self) -> &mut Matrix {
        self.grads
            .last_mut()
            // analysis: allow(panic, reason = "Workspace::for_config builds one buffer per layer and Mlp::new asserts >= 1 layer")
            .expect("workspace has at least one layer")
    }

    /// The last forward output together with the loss-gradient buffer — the
    /// pair [`crate::Loss::evaluate_into`] consumes (split borrows of two
    /// distinct buffers).
    // analysis: hot_path
    pub fn output_and_grad_mut(&mut self) -> (&Matrix, &mut Matrix) {
        (
            // analysis: allow(panic, reason = "Workspace::for_config builds one buffer per layer and Mlp::new asserts >= 1 layer")
            self.acts.last().expect("workspace has at least one layer"),
            self.grads
                .last_mut()
                // analysis: allow(panic, reason = "Workspace::for_config builds one buffer per layer and Mlp::new asserts >= 1 layer")
                .expect("workspace has at least one layer"),
        )
    }

    /// Gradient with respect to the network input, valid after
    /// [`crate::Mlp::backward_ws`].
    // analysis: hot_path
    pub fn input_grad(&self) -> &Matrix {
        &self.input_grad
    }

    /// Logically resizes every buffer to `rows` (≤ capacity: no allocation).
    pub(crate) fn prepare(&mut self, rows: usize) {
        self.input.resize_rows(rows);
        self.input_grad.resize_rows(rows);
        for m in self.acts.iter_mut().chain(self.grads.iter_mut()) {
            m.resize_rows(rows);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::init::InitScheme;
    use crate::mlp::Activation;

    fn config() -> MlpConfig {
        MlpConfig {
            layer_sizes: vec![3, 5, 2],
            activation: Activation::ReLU,
            init: InitScheme::HeUniform,
            seed: 0,
        }
    }

    #[test]
    fn shapes_follow_the_architecture() {
        let ws = Workspace::for_config(&config(), 8);
        assert_eq!(ws.batch_capacity(), 8);
        assert_eq!(ws.threads(), 1);
        assert_eq!(ws.output().cols(), 2);
        assert_eq!(ws.input_grad().cols(), 3);
        assert_eq!(ws.acts.len(), 2);
        assert_eq!(ws.grads.len(), 2);
    }

    #[test]
    fn prepare_resizes_all_buffers() {
        let mut ws = Workspace::for_config(&config(), 8);
        ws.prepare(3);
        assert_eq!(ws.output().rows(), 3);
        assert_eq!(ws.input.rows(), 3);
        ws.prepare(8);
        assert_eq!(ws.output().rows(), 8);
    }

    #[test]
    fn with_threads_clamps_to_one() {
        let ws = Workspace::for_config(&config(), 2).with_threads(0);
        assert_eq!(ws.threads(), 1);
    }

    #[test]
    #[should_panic(expected = "batch capacity")]
    fn zero_capacity_rejected() {
        let _ = Workspace::for_config(&config(), 0);
    }
}
