//! Property-based tests of the neural-network substrate.

#[path = "support/reference.rs"]
mod reference;

use proptest::prelude::*;
use surrogate_nn::{
    kernels, Activation, Adam, AdamConfig, InitScheme, InputNormalizer, Loss, Matrix, Mlp,
    MlpConfig, MseLoss, Optimizer, OutputNormalizer,
};

fn small_matrix(rows: usize, cols: usize) -> impl Strategy<Value = Matrix> {
    prop::collection::vec(-10.0f32..10.0, rows * cols)
        .prop_map(move |data| Matrix::from_vec(rows, cols, data))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The MSE loss is non-negative, zero only for identical tensors, and its
    /// gradient vanishes exactly when the loss vanishes.
    #[test]
    fn mse_loss_properties(pred in small_matrix(3, 6), target in small_matrix(3, 6)) {
        let mut grad = Matrix::zeros(3, 6);
        let loss = MseLoss.evaluate_into(&pred, &target, &mut grad);
        prop_assert!(loss >= 0.0);
        let mut self_grad = Matrix::zeros(3, 6);
        let self_loss = MseLoss.evaluate_into(&pred, &pred, &mut self_grad);
        prop_assert_eq!(self_loss, 0.0);
        prop_assert!(self_grad.data().iter().all(|&g| g == 0.0));
        if loss == 0.0 {
            prop_assert!(grad.data().iter().all(|&g| g == 0.0));
        }
    }

    /// Forward passes produce finite outputs of the right shape for any input in
    /// a reasonable range, for every activation.
    #[test]
    fn mlp_forward_is_finite(
        inputs in small_matrix(4, 3),
        seed in 0u64..1000,
        activation in prop::sample::select(vec![
            Activation::ReLU,
            Activation::Tanh,
            Activation::Sigmoid,
        ]),
    ) {
        let mlp = Mlp::new(MlpConfig {
            layer_sizes: vec![3, 8, 2],
            activation,
            init: InitScheme::HeUniform,
            seed,
        });
        let mut ws = mlp.workspace(4);
        let out = mlp.forward_ws(&inputs, &mut ws).clone();
        prop_assert_eq!(out.rows(), 4);
        prop_assert_eq!(out.cols(), 2);
        prop_assert!(out.is_finite());
        prop_assert_eq!(mlp.predict(&inputs), out);
    }

    /// One optimizer step keeps the parameters finite and actually changes them
    /// when the gradient is non-zero.
    #[test]
    fn optimizer_steps_are_finite_and_effective(
        seed in 0u64..500,
        grad_value in 0.01f32..5.0,
        lr in 1e-4f32..1e-1,
    ) {
        let mut adam_model = Mlp::new(MlpConfig::small(3, 6, 2, seed));
        let grads = vec![grad_value; adam_model.param_count()];

        let before = adam_model.params_flat();
        let mut adam = Adam::new(AdamConfig::default(), adam_model.param_count());
        adam.step(&mut adam_model, &grads, lr);
        let after = adam_model.params_flat();
        prop_assert!(after.iter().all(|p| p.is_finite()));
        prop_assert!(before.iter().zip(&after).any(|(b, a)| b != a));
    }

    /// Checkpoint serialisation is lossless for the predictions.
    #[test]
    fn checkpoint_roundtrip(seed in 0u64..500, probe in prop::collection::vec(-1.0f32..1.0, 3)) {
        let model = Mlp::new(MlpConfig::small(3, 5, 2, seed));
        let json = surrogate_nn::save_mlp(&model, 10, 100).unwrap();
        let restored = surrogate_nn::load_mlp(&json).unwrap().restore();
        let x = Matrix::from_rows(&[probe]);
        prop_assert_eq!(model.predict(&x), restored.predict(&x));
    }

    /// Output normalisation round-trips within f32 tolerance and maps the
    /// sampled temperature range into the unit interval.
    #[test]
    fn normalizer_roundtrip(values in prop::collection::vec(100.0f32..500.0, 1..64)) {
        let norm = OutputNormalizer::default();
        let unit = norm.normalize(&values);
        prop_assert!(unit.iter().all(|&v| (0.0..=1.0).contains(&v)));
        let back = norm.denormalize(&unit);
        for (a, b) in values.iter().zip(&back) {
            prop_assert!((a - b).abs() < 1e-2);
        }
    }

    /// Input normalisation keeps the five temperatures in [0, 1] and the time
    /// coordinate finite for any trajectory length.
    #[test]
    fn input_normalizer_bounds(
        temps in prop::collection::vec(100.0f32..500.0, 5),
        step in 1usize..200,
        steps in 1usize..200,
    ) {
        let dt = 0.01;
        let norm = InputNormalizer::for_trajectory(steps, dt);
        let mut input = temps.clone();
        input.push((step.min(steps) as f64 * dt) as f32);
        let normalised = norm.normalize(&input);
        for v in &normalised[..5] {
            prop_assert!((0.0..=1.0).contains(v));
        }
        prop_assert!(normalised[5].is_finite());
        prop_assert!(normalised[5] <= 1.0 + 1e-6);
    }

    /// The same seed always builds the same network, and different seeds differ.
    #[test]
    fn seeded_initialisation_is_deterministic(seed in 0u64..10_000) {
        let a = Mlp::new(MlpConfig::small(4, 8, 3, seed));
        let b = Mlp::new(MlpConfig::small(4, 8, 3, seed));
        prop_assert_eq!(a.params_flat(), b.params_flat());
        let c = Mlp::new(MlpConfig::small(4, 8, 3, seed.wrapping_add(1)));
        prop_assert_ne!(a.params_flat(), c.params_flat());
    }

    /// The blocked scalar `kernels::gemm_nn` (the arm every ISA is pinned to)
    /// reproduces the naive i-k-j product of the oracle on random shapes —
    /// including shapes that straddle the register-tile (4) and column-block
    /// (256) boundaries.
    #[test]
    fn blocked_matmul_into_equals_naive(
        m in 1usize..9,
        k in 1usize..9,
        n in 1usize..12,
        a_data in prop::collection::vec(-10.0f32..10.0, 96),
        b_data in prop::collection::vec(-10.0f32..10.0, 144),
    ) {
        // Stretch some columns across the NC boundary by tiling the data.
        let wide_n = if n % 3 == 0 { n * 87 } else { n };
        let a = Matrix::from_vec(m, k, a_data[..m * k].to_vec());
        let b = Matrix::from_vec(
            k,
            wide_n,
            (0..k * wide_n).map(|i| b_data[i % b_data.len()]).collect(),
        );
        let mut blocked = Matrix::zeros(m, wide_n);
        kernels::gemm_nn(1, a.data(), m, k, b.data(), wide_n, blocked.data_mut(), |_, acc| acc);
        prop_assert_eq!(blocked, reference::matmul(&a, &b));
    }

    /// The blocked scalar `kernels::gemm_nt` reproduces the oracle's naive
    /// `A·Bᵀ` on random shapes.
    #[test]
    fn blocked_matmul_transpose_into_equals_naive(
        m in 1usize..10,
        k in 1usize..10,
        n in 1usize..10,
        a_data in prop::collection::vec(-10.0f32..10.0, 100),
        b_data in prop::collection::vec(-10.0f32..10.0, 100),
    ) {
        let a = Matrix::from_vec(m, k, a_data[..m * k].to_vec());
        let b = Matrix::from_vec(n, k, b_data[..n * k].to_vec());
        let mut blocked = Matrix::zeros(m, n);
        kernels::gemm_nt(1, a.data(), m, k, b.data(), n, blocked.data_mut());
        prop_assert_eq!(blocked, reference::matmul_transpose(&a, &b));
    }

    /// From a zeroed accumulator, the blocked scalar `kernels::gemm_tn`
    /// reproduces the oracle's naive `Aᵀ·B`.
    #[test]
    fn blocked_transpose_matmul_acc_equals_naive(
        m in 1usize..10,
        k in 1usize..10,
        n in 1usize..10,
        a_data in prop::collection::vec(-10.0f32..10.0, 100),
        b_data in prop::collection::vec(-10.0f32..10.0, 100),
    ) {
        let a = Matrix::from_vec(m, k, a_data[..m * k].to_vec());
        let b = Matrix::from_vec(m, n, b_data[..m * n].to_vec());
        let mut blocked = Matrix::zeros(k, n);
        kernels::gemm_tn(1, a.data(), m, k, b.data(), n, blocked.data_mut(), true);
        prop_assert_eq!(blocked, reference::transpose_matmul(&a, &b));
    }

    /// Row-parallel kernel dispatch is bit-identical to the serial kernels for
    /// any thread count (the per-element reduction order never changes).
    #[test]
    fn parallel_kernels_are_bit_identical(threads in 2usize..5, seed in 0u64..100) {
        let (m, k, n) = (40, 40, 320);
        let a: Vec<f32> = (0..m * k)
            .map(|i| (((i as u64).wrapping_mul(seed + 1) % 41) as f32 - 20.0) * 0.1)
            .collect();
        let b: Vec<f32> = (0..k * n)
            .map(|i| (((i as u64).wrapping_mul(seed + 7) % 37) as f32 - 18.0) * 0.1)
            .collect();
        let mut serial = vec![0.0f32; m * n];
        let mut par = vec![0.0f32; m * n];
        kernels::gemm_nn(1, &a, m, k, &b, n, &mut serial, |_, acc| acc);
        kernels::gemm_nn(threads, &a, m, k, &b, n, &mut par, |_, acc| acc);
        prop_assert_eq!(&serial, &par);
    }

    /// The workspace training step matches the naive reference step of the
    /// oracle bit for bit on random seeds and batches: outputs, loss,
    /// parameter gradients and the gradient w.r.t. the input. The second
    /// architecture has fan-ins of 8 and more, and the batches reach a single
    /// sample, full 8-lane panels, partial ones (1–7 rows) and a second
    /// register row block (11–12 rows).
    #[test]
    fn workspace_training_step_equals_reference(
        seed in 0u64..500,
        rows in 1usize..=12,
        layer_sizes in prop::sample::select(vec![vec![5, 7, 3], vec![6, 19, 13]]),
        activation in prop::sample::select(vec![
            Activation::ReLU,
            Activation::Tanh,
            Activation::Sigmoid,
        ]),
        x_data in prop::collection::vec(-2.0f32..2.0, 12 * 6),
        t_data in prop::collection::vec(-2.0f32..2.0, 12 * 13),
    ) {
        let (inputs, outputs) = (layer_sizes[0], layer_sizes[2]);
        let mut fast = Mlp::new(MlpConfig {
            layer_sizes,
            activation,
            init: InitScheme::HeUniform,
            seed,
        });
        let mut ws = fast.workspace(rows);
        let x = Matrix::from_vec(rows, inputs, x_data[..rows * inputs].to_vec());
        let targets = Matrix::from_vec(rows, outputs, t_data[..rows * outputs].to_vec());

        let (pred_ref, trace) = reference::forward(&fast, &x);
        let (loss_ref, grad_out) = reference::mse(&pred_ref, &targets);
        let (grads_ref, grad_in_ref) = reference::backward(&fast, &trace, &grad_out);

        fast.forward_ws(&x, &mut ws);
        let (pred, grad_buf) = ws.output_and_grad_mut();
        prop_assert_eq!(pred, &pred_ref);
        let loss = MseLoss.evaluate_into(pred, &targets, grad_buf);
        prop_assert_eq!(loss, loss_ref);
        fast.backward_ws(&mut ws);

        prop_assert_eq!(fast.grads(), &grads_ref[..]);
        prop_assert_eq!(ws.input_grad(), &grad_in_ref);
    }
}
