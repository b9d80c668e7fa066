//! The multilayer-perceptron surrogate.
//!
//! The paper's surrogate is a fully connected network: an input layer of 6
//! neurons (the five sampled temperatures plus the requested time), two hidden
//! layers of 256 neurons with ReLU activations, and a linear output layer of
//! one neuron per grid node. [`MlpConfig::paper_architecture`] builds exactly
//! that shape for a given output size; tests use much smaller variants.

use crate::init::{InitScheme, WeightInit};
use crate::matrix::Matrix;
use crate::simd::{self, Epilogue, FlushGuard, ResolvedIsa};
use crate::workspace::Workspace;
use serde::{Deserialize, Serialize};
use std::ops::Range;

/// Supported activation functions.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize, Default)]
pub enum Activation {
    /// Rectified linear unit (the paper's choice for hidden layers).
    #[default]
    ReLU,
    /// Hyperbolic tangent.
    Tanh,
    /// Logistic sigmoid.
    Sigmoid,
    /// Identity (used for the output layer).
    Identity,
}

impl Activation {
    /// Applies the activation to a pre-activation value.
    #[inline]
    pub fn apply(&self, x: f32) -> f32 {
        match self {
            Activation::ReLU => x.max(0.0),
            Activation::Tanh => x.tanh(),
            Activation::Sigmoid => 1.0 / (1.0 + (-x).exp()),
            Activation::Identity => x,
        }
    }

    /// Derivative expressed through the *post-activation* value `y = act(x)`.
    ///
    /// Every supported activation admits this form (ReLU: `y > 0`; tanh:
    /// `1 − y²`; sigmoid: `y(1 − y)`; identity: `1`), which lets the
    /// backward pass drop the pre-activation buffers entirely. The result is
    /// bitwise identical to the derivative evaluated on the matching
    /// pre-activation, because the forward pass computes `y` with the exact
    /// same operations this method re-uses (`tests/support/reference.rs`
    /// keeps the pre-activation form as the oracle).
    #[inline]
    pub fn derivative_from_output(&self, y: f32) -> f32 {
        match self {
            Activation::ReLU => {
                if y > 0.0 {
                    1.0
                } else {
                    0.0
                }
            }
            Activation::Tanh => 1.0 - y * y,
            Activation::Sigmoid => y * (1.0 - y),
            Activation::Identity => 1.0,
        }
    }
}

/// One fully connected layer with its activation. Its parameter gradients
/// live in the owning [`Mlp`]'s gradient arena, not on the layer.
#[derive(Debug, Clone, Serialize)]
pub struct DenseLayer {
    /// Weight matrix, shape `fan_in × fan_out`.
    pub weights: Matrix,
    /// Bias vector, length `fan_out`.
    pub biases: Vec<f32>,
    /// Activation applied after the affine map.
    pub activation: Activation,
}

impl DenseLayer {
    /// Creates a layer with the given initialiser.
    pub fn new(
        fan_in: usize,
        fan_out: usize,
        activation: Activation,
        init: &mut WeightInit,
    ) -> Self {
        Self {
            weights: Matrix::from_vec(fan_in, fan_out, init.weights(fan_in, fan_out)),
            biases: init.biases(fan_out),
            activation,
        }
    }

    /// Input width.
    pub fn fan_in(&self) -> usize {
        self.weights.rows()
    }

    /// Output width.
    pub fn fan_out(&self) -> usize {
        self.weights.cols()
    }

    /// Number of trainable parameters.
    pub fn param_count(&self) -> usize {
        self.weights.data().len() + self.biases.len()
    }

    /// Allocation-free fused forward: `out = act(input · W + b)` in one
    /// blocked-GEMM pass (bias-add and activation run in the kernel epilogue
    /// while the output tile is hot). `out` must be `batch × fan_out`.
    /// Dispatches on `isa` (bit-identical across every resolved ISA).
    pub fn forward_into(&self, input: &Matrix, out: &mut Matrix, threads: usize, isa: ResolvedIsa) {
        assert_eq!(input.cols(), self.fan_in(), "layer input width");
        simd::gemm_nn(
            isa,
            threads,
            input.data(),
            input.rows(),
            self.fan_in(),
            self.weights.data(),
            self.fan_out(),
            out.data_mut(),
            Epilogue::BiasAct {
                biases: &self.biases,
                activation: self.activation,
            },
        );
    }
}

/// Configuration of an [`Mlp`].
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct MlpConfig {
    /// Layer widths, including input and output (e.g. `[6, 256, 256, 1024]`).
    pub layer_sizes: Vec<usize>,
    /// Hidden-layer activation (the output layer is always linear).
    pub activation: Activation,
    /// Weight-initialisation scheme.
    pub init: InitScheme,
    /// Seed for the initialisation (the paper seeds all stochastic components).
    pub seed: u64,
}

impl MlpConfig {
    /// The paper's architecture: `6 → 256 → 256 → output_size`, ReLU hidden layers.
    pub fn paper_architecture(output_size: usize, seed: u64) -> Self {
        Self {
            layer_sizes: vec![6, 256, 256, output_size],
            activation: Activation::ReLU,
            init: InitScheme::HeUniform,
            seed,
        }
    }

    /// A scaled-down variant of the paper's architecture for tests/benches.
    pub fn small(input_size: usize, hidden: usize, output_size: usize, seed: u64) -> Self {
        Self {
            layer_sizes: vec![input_size, hidden, hidden, output_size],
            activation: Activation::ReLU,
            init: InitScheme::HeUniform,
            seed,
        }
    }

    /// Parameter count of the network this describes; `None` for fewer than
    /// two layers or on overflow, so a configuration read from disk can be
    /// checked before anything is sized by it.
    pub fn param_count(&self) -> Option<usize> {
        if self.layer_sizes.len() < 2 {
            return None;
        }
        self.layer_sizes.windows(2).try_fold(0usize, |sum, pair| {
            pair[0]
                .checked_mul(pair[1])?
                .checked_add(pair[1])?
                .checked_add(sum)
        })
    }
}

/// A multilayer perceptron with flattened parameter/gradient access.
/// Serialisable for inspection; to persist and restore a model use
/// [`crate::ModelCheckpoint`], which rebuilds it through [`Mlp::new`].
#[derive(Debug, Clone, Serialize)]
pub struct Mlp {
    config: MlpConfig,
    layers: Vec<DenseLayer>,
    /// The gradient arena: every parameter gradient in [`Mlp::params_flat`]
    /// order, allocated once at construction. The backward passes write into
    /// it, the training round ([`crate::GradientSynchronizer::step`]) swaps
    /// it into the collective and reduces into it, and the optimizer reads
    /// it — no flattening copy.
    #[serde(skip)]
    grads: Vec<f32>,
}

impl Mlp {
    /// Builds the network described by `config`.
    ///
    /// # Panics
    /// Panics when fewer than two layer sizes are given.
    pub fn new(config: MlpConfig) -> Self {
        assert!(
            config.layer_sizes.len() >= 2,
            "an MLP needs at least an input and an output size"
        );
        let mut init = WeightInit::new(config.init, config.seed);
        let n = config.layer_sizes.len() - 1;
        let mut layers = Vec::with_capacity(n);
        for k in 0..n {
            let activation = if k + 1 == n {
                Activation::Identity
            } else {
                config.activation
            };
            layers.push(DenseLayer::new(
                config.layer_sizes[k],
                config.layer_sizes[k + 1],
                activation,
                &mut init,
            ));
        }
        let grads = vec![0.0; layers.iter().map(DenseLayer::param_count).sum()];
        Self {
            config,
            layers,
            grads,
        }
    }

    /// The construction configuration.
    pub fn config(&self) -> &MlpConfig {
        &self.config
    }

    /// The layers of the network.
    pub fn layers(&self) -> &[DenseLayer] {
        &self.layers
    }

    /// Input dimension.
    pub fn input_size(&self) -> usize {
        self.config.layer_sizes[0]
    }

    /// Output dimension.
    pub fn output_size(&self) -> usize {
        // analysis: allow(panic, reason = "Mlp::new asserts layer_sizes.len() >= 2, so `last` always exists")
        *self.config.layer_sizes.last().unwrap()
    }

    /// Total number of trainable parameters.
    pub fn param_count(&self) -> usize {
        self.grads.len()
    }

    /// Inference convenience: runs [`Mlp::predict_ws`] on a workspace built
    /// for this one batch and returns a copy of the output. Loops that
    /// predict repeatedly keep a workspace and call [`Mlp::predict_ws`].
    pub fn predict(&self, input: &Matrix) -> Matrix {
        let mut ws = self.workspace(input.rows().max(1));
        self.predict_ws(input, &mut ws).clone()
    }

    /// Creates a [`Workspace`] sized for this architecture and batch capacity.
    pub fn workspace(&self, batch_capacity: usize) -> Workspace {
        Workspace::for_config(&self.config, batch_capacity)
    }

    /// Allocation-free forward pass through a reusable [`Workspace`]; returns
    /// the network output living inside the workspace.
    ///
    /// Nothing is cached on the layers — the workspace holds the activations
    /// the matching [`Mlp::backward_ws`] needs, so this takes `&self` and
    /// doubles as the inference path (see [`Mlp::predict_ws`]).
    ///
    /// # Panics
    /// Panics when the workspace was built for a different architecture or
    /// the input width does not match.
    // analysis: hot_path
    pub fn forward_ws<'w>(&self, input: &Matrix, ws: &'w mut Workspace) -> &'w Matrix {
        let _flush = FlushGuard::enter();
        assert_eq!(
            ws.layer_sizes, self.config.layer_sizes,
            "workspace architecture mismatch"
        );
        assert_eq!(input.cols(), self.input_size(), "input width mismatch");
        ws.prepare(input.rows());
        ws.input.data_mut().copy_from_slice(input.data());
        let threads = ws.threads();
        let isa = ws.isa();
        for (l, layer) in self.layers.iter().enumerate() {
            if l == 0 {
                layer.forward_into(&ws.input, &mut ws.acts[0], threads, isa);
            } else {
                let (prev, rest) = ws.acts.split_at_mut(l);
                layer.forward_into(&prev[l - 1], &mut rest[0], threads, isa);
            }
        }
        ws.output()
    }

    /// Allocation-free inference through a reusable [`Workspace`] — identical
    /// to [`Mlp::forward_ws`], named for call sites that never backpropagate.
    // analysis: hot_path
    pub fn predict_ws<'w>(&self, input: &Matrix, ws: &'w mut Workspace) -> &'w Matrix {
        self.forward_ws(input, ws)
    }

    /// Allocation-free backward pass consuming the state a preceding
    /// [`Mlp::forward_ws`] left in `ws`, with dLoss/dOutput already written to
    /// [`Workspace::output_grad_mut`] (e.g. by [`crate::Loss::evaluate_into`]).
    ///
    /// **Overwrites** the gradient arena, never accumulates, so a training
    /// loop pays neither a zeroing pass nor a read-modify-write over every
    /// parameter. The gradient w.r.t. the network input is left in
    /// [`Workspace::input_grad`]. The activation derivative is evaluated from
    /// the post-activation values, so no pre-activation buffers exist at all;
    /// the identity output layer skips the derivative pass entirely.
    // analysis: hot_path
    pub fn backward_ws(&mut self, ws: &mut Workspace) {
        let _flush = FlushGuard::enter();
        assert_eq!(
            ws.layer_sizes, self.config.layer_sizes,
            "workspace architecture mismatch"
        );
        let threads = ws.threads();
        let isa = ws.isa();
        let rows = ws.input.rows();
        let mut end = self.grads.len();
        for l in (0..self.layers.len()).rev() {
            let layer = &self.layers[l];
            let (lower, upper) = ws.grads.split_at_mut(l);
            let grad_l = &mut upper[0];

            // dLoss/d preact in place: grad ⊙ act'(output).
            simd::act_derivative_mul(isa, grad_l.data_mut(), ws.acts[l].data(), layer.activation);

            // Parameter gradients, written straight into this layer's slice
            // of the arena (overwritten, never accumulated).
            let input = if l == 0 { &ws.input } else { &ws.acts[l - 1] };
            let start = end - layer.param_count();
            let (gw, gb) = self.grads[start..end].split_at_mut(layer.weights.data().len());
            end = start;
            simd::gemm_tn(
                isa,
                threads,
                input.data(),
                rows,
                input.cols(),
                grad_l.data(),
                grad_l.cols(),
                gw,
                false,
            );
            gb.fill(0.0);
            grad_l.add_column_sums_to(gb);

            // Gradient w.r.t. the layer input: grad_pre · Wᵀ, read straight
            // from W for every batch size. Each element sums in ascending
            // fan-out order, bit-compatible with the naive dot-product path.
            let grad_in = if l == 0 {
                &mut ws.input_grad
            } else {
                &mut lower[l - 1]
            };
            simd::gemm_nt(
                isa,
                threads,
                grad_l.data(),
                rows,
                layer.fan_out(),
                layer.weights.data(),
                layer.fan_in(),
                grad_in.data_mut(),
            );
        }
    }

    /// Clears the gradient arena.
    pub fn zero_grads(&mut self) {
        self.grads.fill(0.0);
    }

    /// Flattened copy of all parameters (layer order: weights then biases).
    pub fn params_flat(&self) -> Vec<f32> {
        let mut out = Vec::with_capacity(self.param_count());
        self.params_flat_into(&mut out);
        out
    }

    /// Copies all parameters into a reused vector (cleared first), in
    /// [`Mlp::params_flat`] order; allocation-free once the vector has
    /// reached its steady-state capacity.
    pub fn params_flat_into(&self, out: &mut Vec<f32>) {
        out.clear();
        // A fresh vector gets its final size in one allocation.
        out.reserve(self.param_count());
        for layer in &self.layers {
            out.extend_from_slice(layer.weights.data());
            out.extend_from_slice(&layer.biases);
        }
    }

    /// Overwrites all parameters from a flattened vector.
    ///
    /// # Panics
    /// Panics when the length does not match [`Mlp::param_count`].
    pub fn set_params_flat(&mut self, params: &[f32]) {
        assert_eq!(
            params.len(),
            self.param_count(),
            "parameter length mismatch"
        );
        self.set_params_range(0..params.len(), params);
    }

    /// The gradient arena: the gradients the last backward pass left (zeros
    /// before the first), in the same order as [`Mlp::params_flat`].
    pub fn grads(&self) -> &[f32] {
        &self.grads
    }

    /// The gradient arena, mutably.
    pub fn grads_mut(&mut self) -> &mut [f32] {
        &mut self.grads
    }

    /// Exchanges the gradient arena with `buffer`, which must be as long:
    /// the collective hands a rank's gradients to its peers this way, without
    /// copying them.
    pub(crate) fn swap_grads(&mut self, buffer: &mut Vec<f32>) {
        assert_eq!(buffer.len(), self.grads.len(), "gradient length mismatch");
        std::mem::swap(&mut self.grads, buffer);
    }

    /// Copies the gradient arena into a reused vector (cleared first);
    /// allocation-free once the vector has reached its steady-state capacity.
    pub fn grads_flat_into(&self, out: &mut Vec<f32>) {
        out.clear();
        out.extend_from_slice(&self.grads);
    }

    /// Copies the parameters at flat positions `range` ([`Mlp::params_flat`]
    /// order) into `out`, which is `range.len()` long.
    ///
    /// # Panics
    /// Panics when `range` reaches past [`Mlp::param_count`] or `out` is not
    /// `range.len()` long.
    pub(crate) fn params_range_into(&self, range: Range<usize>, out: &mut [f32]) {
        assert!(range.end <= self.param_count(), "parameter range");
        assert_eq!(out.len(), range.len(), "parameter range length mismatch");
        let mut offset = 0;
        for layer in &self.layers {
            for params in [layer.weights.data(), layer.biases.as_slice()] {
                let part = overlap(&range, offset, params.len());
                if !part.is_empty() {
                    out[part.start - range.start..part.end - range.start]
                        .copy_from_slice(&params[part.start - offset..part.end - offset]);
                }
                offset += params.len();
            }
        }
    }

    /// Overwrites the parameters at flat positions `range` from `values`,
    /// which is `range.len()` long; the rest stay as they are.
    ///
    /// # Panics
    /// Panics when `range` reaches past [`Mlp::param_count`] or `values` is
    /// not `range.len()` long.
    pub(crate) fn set_params_range(&mut self, range: Range<usize>, values: &[f32]) {
        assert_eq!(values.len(), range.len(), "parameter range length mismatch");
        let start = range.start;
        self.for_each_param_slice_mut(range, None, |offset, params, _| {
            params.copy_from_slice(&values[offset - start..offset - start + params.len()]);
        });
    }

    /// Visits the parameters at flat positions `range` mutably, in flat order
    /// (per layer: weights, then biases — the order of [`Mlp::params_flat`]),
    /// one slice per layer part the range touches, each with its flat offset
    /// and the matching slice of `grads` (`None`: of the gradient arena), so
    /// optimizers fuse state and parameter update into one pass instead of
    /// materialising a delta vector.
    ///
    /// # Panics
    /// Panics when `grads` is not [`Mlp::param_count`] long or `range`
    /// reaches past it.
    pub fn for_each_param_slice_mut(
        &mut self,
        range: Range<usize>,
        grads: Option<&[f32]>,
        mut f: impl FnMut(usize, &mut [f32], &[f32]),
    ) {
        let grads = grads.unwrap_or(&self.grads);
        assert_eq!(
            grads.len(),
            self.grads.len(),
            "gradient length does not match the model"
        );
        assert!(range.end <= grads.len(), "parameter range");
        let mut offset = 0;
        for layer in &mut self.layers {
            for params in [layer.weights.data_mut(), layer.biases.as_mut_slice()] {
                let len = params.len();
                let part = overlap(&range, offset, len);
                if !part.is_empty() {
                    f(
                        part.start,
                        &mut params[part.start - offset..part.end - offset],
                        &grads[part.clone()],
                    );
                }
                offset += len;
            }
        }
    }
}

/// The flat positions `range` shares with the slice at `offset..offset + len`
/// (an empty range when they do not meet).
fn overlap(range: &Range<usize>, offset: usize, len: usize) -> Range<usize> {
    let end = offset + len;
    let start = range.start.clamp(offset, end);
    start..range.end.clamp(start, end)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::loss::{Loss, MseLoss};

    fn tiny_mlp(seed: u64) -> Mlp {
        Mlp::new(MlpConfig {
            layer_sizes: vec![3, 5, 2],
            activation: Activation::ReLU,
            init: InitScheme::HeUniform,
            seed,
        })
    }

    #[test]
    fn activation_values_and_derivatives() {
        assert_eq!(Activation::ReLU.apply(-1.0), 0.0);
        assert_eq!(Activation::ReLU.apply(2.0), 2.0);
        assert_eq!(Activation::ReLU.derivative_from_output(0.0), 0.0);
        assert_eq!(Activation::ReLU.derivative_from_output(2.0), 1.0);
        assert!((Activation::Tanh.apply(0.0)).abs() < 1e-7);
        assert!((Activation::Tanh.derivative_from_output(0.0) - 1.0).abs() < 1e-7);
        assert!((Activation::Sigmoid.apply(0.0) - 0.5).abs() < 1e-7);
        assert!((Activation::Sigmoid.derivative_from_output(0.5) - 0.25).abs() < 1e-7);
        assert_eq!(Activation::Identity.apply(3.5), 3.5);
        assert_eq!(Activation::Identity.derivative_from_output(3.5), 1.0);
    }

    #[test]
    fn paper_architecture_shape_and_size() {
        let config = MlpConfig::paper_architecture(1_000_000, 0);
        assert_eq!(config.layer_sizes, vec![6, 256, 256, 1_000_000]);
        // The paper quotes ~514M parameters for the 1M-output network.
        let params: usize = config
            .layer_sizes
            .windows(2)
            .map(|w| w[0] * w[1] + w[1])
            .sum();
        assert!(
            (200_000_000..600_000_000).contains(&params),
            "param count {params}"
        );
    }

    #[test]
    fn forward_output_shape() {
        let mlp = tiny_mlp(1);
        let mut ws = mlp.workspace(2);
        let x = Matrix::from_rows(&[vec![1.0, 2.0, 3.0], vec![0.0, -1.0, 0.5]]);
        let y = mlp.forward_ws(&x, &mut ws);
        assert_eq!(y.rows(), 2);
        assert_eq!(y.cols(), 2);
        assert!(y.is_finite());
    }

    #[test]
    fn predict_matches_forward() {
        let mlp = tiny_mlp(2);
        let mut ws = mlp.workspace(1);
        let x = Matrix::from_rows(&[vec![0.3, -0.2, 0.9]]);
        let y1 = mlp.forward_ws(&x, &mut ws).clone();
        let y2 = mlp.predict(&x);
        assert_eq!(y1, y2);
    }

    #[test]
    fn same_seed_gives_identical_models() {
        let a = tiny_mlp(9);
        let b = tiny_mlp(9);
        assert_eq!(a.params_flat(), b.params_flat());
        let c = tiny_mlp(10);
        assert_ne!(a.params_flat(), c.params_flat());
    }

    #[test]
    fn params_flat_roundtrip() {
        let mut mlp = tiny_mlp(3);
        let params = mlp.params_flat();
        assert_eq!(params.len(), mlp.param_count());
        let mut modified = params.clone();
        modified[0] += 1.0;
        mlp.set_params_flat(&modified);
        assert_eq!(mlp.params_flat(), modified);
    }

    #[test]
    fn numerical_gradient_check() {
        // Finite-difference check of the production backward pass on a tiny
        // tanh MLP: no reference implementation involved.
        let mut mlp = Mlp::new(MlpConfig {
            layer_sizes: vec![2, 4, 1],
            activation: Activation::Tanh,
            init: InitScheme::XavierUniform,
            seed: 11,
        });
        let x = Matrix::from_rows(&[vec![0.5, -0.3], vec![0.1, 0.9]]);
        let target = Matrix::from_rows(&[vec![0.2], vec![-0.4]]);

        let loss_of = |model: &Mlp| -> f32 {
            let mut grad = Matrix::zeros(2, 1);
            MseLoss.evaluate_into(&model.predict(&x), &target, &mut grad)
        };

        let mut ws = mlp.workspace(2);
        mlp.forward_ws(&x, &mut ws);
        let (prediction, grad_out) = ws.output_and_grad_mut();
        MseLoss.evaluate_into(prediction, &target, grad_out);
        mlp.backward_ws(&mut ws);
        let analytic = mlp.grads().to_vec();

        let params = mlp.params_flat();
        let eps = 1e-3f32;
        // Spot check a handful of parameters across all layers.
        for &idx in &[0usize, 3, 7, params.len() / 2, params.len() - 1] {
            let mut plus = params.clone();
            plus[idx] += eps;
            let mut minus = params.clone();
            minus[idx] -= eps;
            let mut m_plus = mlp.clone();
            m_plus.set_params_flat(&plus);
            let mut m_minus = mlp.clone();
            m_minus.set_params_flat(&minus);
            let numeric = (loss_of(&m_plus) - loss_of(&m_minus)) / (2.0 * eps);
            let diff = (numeric - analytic[idx]).abs();
            assert!(
                diff < 2e-3,
                "param {idx}: numeric {numeric} vs analytic {}",
                analytic[idx]
            );
        }
    }

    #[test]
    fn params_range_copies_cross_layer_boundaries() {
        // Flat layout: weights 0..15, biases 15..20, weights 20..30, biases 30..32.
        let mut mlp = tiny_mlp(4);
        let flat = mlp.params_flat();
        for range in [0..32, 0..0, 3..17, 15..20, 14..31, 31..32, 32..32] {
            let mut out = vec![f32::NAN; range.len()];
            mlp.params_range_into(range.clone(), &mut out);
            assert_eq!(out, flat[range.clone()], "{range:?}");
            let values: Vec<f32> = range.clone().map(|i| i as f32).collect();
            let mut expected = flat.clone();
            expected[range.clone()].copy_from_slice(&values);
            let mut copy = mlp.clone();
            copy.set_params_range(range.clone(), &values);
            assert_eq!(copy.params_flat(), expected, "{range:?}");
        }
        mlp.set_params_range(0..32, &flat);
        assert_eq!(mlp.params_flat(), flat);
    }

    #[test]
    #[should_panic(expected = "parameter length mismatch")]
    fn set_params_checks_length() {
        let mut mlp = tiny_mlp(6);
        mlp.set_params_flat(&[0.0; 3]);
    }

    #[test]
    fn backward_ws_overwrites_instead_of_accumulating() {
        let mut mlp = tiny_mlp(8);
        let mut ws = mlp.workspace(2);
        let x = Matrix::from_rows(&[vec![0.4, -0.1, 0.7], vec![0.2, 0.5, -0.3]]);
        let grad_out = Matrix::from_rows(&[vec![1.0, -1.0], vec![0.5, 0.25]]);
        mlp.forward_ws(&x, &mut ws);
        ws.output_grad_mut()
            .data_mut()
            .copy_from_slice(grad_out.data());
        mlp.backward_ws(&mut ws);
        let once = mlp.grads().to_vec();
        // Running the same backward again must give the same gradients, not 2×.
        mlp.forward_ws(&x, &mut ws);
        ws.output_grad_mut()
            .data_mut()
            .copy_from_slice(grad_out.data());
        mlp.backward_ws(&mut ws);
        assert_eq!(mlp.grads(), once);
    }

    #[test]
    fn the_arena_holds_the_gradients_in_params_flat_order() {
        let mut mlp = tiny_mlp(8);
        assert_eq!(mlp.grads(), vec![0.0; mlp.param_count()]);
        let mut ws = mlp.workspace(2);
        let x = Matrix::from_rows(&[vec![0.4, -0.1, 0.7], vec![0.2, 0.5, -0.3]]);
        mlp.forward_ws(&x, &mut ws);
        ws.output_grad_mut()
            .data_mut()
            .copy_from_slice(&[1.0, -1.0, 0.5, 0.25]);
        mlp.backward_ws(&mut ws);
        // Layer 0: 3×5 weights + 5 biases, layer 1: 5×2 weights + 2 biases; the
        // output-layer bias gradient is the column sum of dLoss/dOutput.
        assert_eq!(mlp.grads().len(), 15 + 5 + 10 + 2);
        assert_eq!(mlp.grads()[30..], [1.5, -0.75]);
        let mut exported = vec![9.0; 3];
        mlp.grads_flat_into(&mut exported);
        assert_eq!(exported, mlp.grads());
        mlp.grads_mut()[0] = 7.0;
        assert_eq!(mlp.grads()[0], 7.0);
        mlp.zero_grads();
        assert!(mlp.grads().iter().all(|&g| g == 0.0));
    }

    #[test]
    fn workspace_path_handles_partial_batches() {
        let mlp = tiny_mlp(3);
        let mut ws = mlp.workspace(8);
        let full = Matrix::from_vec(8, 3, (0..24).map(|v| v as f32 * 0.1).collect());
        let partial = Matrix::from_vec(2, 3, full.data()[..6].to_vec());
        mlp.predict_ws(&full, &mut ws);
        let out = mlp.predict_ws(&partial, &mut ws);
        assert_eq!(out.rows(), 2);
        assert_eq!(out, &mlp.predict(&partial));
    }

    #[test]
    fn output_layer_is_linear() {
        let mlp = tiny_mlp(7);
        assert_eq!(
            mlp.layers().last().unwrap().activation,
            Activation::Identity
        );
        assert_eq!(mlp.layers().first().unwrap().activation, Activation::ReLU);
    }
}
