//! Regression: the workspace training step — `forward_ws`,
//! `MseLoss::evaluate_into`, `backward_ws`, Adam — reproduces the naive
//! reference step of `support/reference.rs` *bit for bit* on fixed seeds,
//! per pass and over a full training run: the guarantee that the
//! allocation-free kernels did not change a single number the experiments
//! produce.

#[path = "support/reference.rs"]
mod reference;

use surrogate_nn::{
    Activation, Adam, AdamConfig, InitScheme, Loss, Matrix, Mlp, MlpConfig, MseLoss, Optimizer,
};

fn batch(rows: usize, cols: usize, seed: u64) -> Matrix {
    Matrix::from_vec(
        rows,
        cols,
        (0..rows * cols)
            .map(|i| ((i as u64).wrapping_mul(seed * 2 + 1) % 97) as f32 / 48.5 - 1.0)
            .collect(),
    )
}

fn train_reference(mut model: Mlp, inputs: &Matrix, targets: &Matrix, steps: usize) -> Vec<f32> {
    let mut optimizer = Adam::new(AdamConfig::default(), model.param_count());
    for _ in 0..steps {
        let (prediction, trace) = reference::forward(&model, inputs);
        let (_, grad_out) = reference::mse(&prediction, targets);
        let (grads, _) = reference::backward(&model, &trace, &grad_out);
        optimizer.step(&mut model, &grads, 1e-3);
    }
    model.params_flat()
}

fn train_workspace(
    mut model: Mlp,
    inputs: &Matrix,
    targets: &Matrix,
    steps: usize,
    threads: usize,
) -> Vec<f32> {
    let mut optimizer = Adam::new(AdamConfig::default(), model.param_count());
    let mut ws = model.workspace(inputs.rows()).with_threads(threads);
    for _ in 0..steps {
        model.forward_ws(inputs, &mut ws);
        let (prediction, grad_out) = ws.output_and_grad_mut();
        MseLoss.evaluate_into(prediction, targets, grad_out);
        // backward_ws overwrites the gradient arena (no zero_grads pass) and
        // the optimizer reads it in place — the reference path above hands
        // the oracle's gradient vector to the external-gradient `step`.
        model.backward_ws(&mut ws);
        optimizer.step_in_place(&mut model, 1e-3);
    }
    model.params_flat()
}

#[test]
fn fifty_step_training_is_bit_identical_across_paths() {
    for (seed, activation) in [
        (11u64, Activation::ReLU),
        (12, Activation::Tanh),
        (13, Activation::Sigmoid),
    ] {
        let model = Mlp::new(MlpConfig {
            layer_sizes: vec![6, 24, 24, 40],
            activation,
            init: InitScheme::HeUniform,
            seed,
        });
        let inputs = batch(10, 6, seed);
        let targets = batch(10, 40, seed + 100);
        let reference = train_reference(model.clone(), &inputs, &targets, 50);
        let fast = train_workspace(model, &inputs, &targets, 50, 1);
        assert_eq!(fast, reference, "{activation:?}");
        assert!(reference.iter().all(|p| p.is_finite()));
    }
}

#[test]
fn parallel_gemm_training_is_bit_identical_to_serial() {
    let model = Mlp::new(MlpConfig {
        layer_sizes: vec![6, 48, 48, 96],
        activation: Activation::ReLU,
        init: InitScheme::HeUniform,
        seed: 21,
    });
    let inputs = batch(16, 6, 5);
    let targets = batch(16, 96, 6);
    let serial = train_workspace(model.clone(), &inputs, &targets, 20, 1);
    let parallel = train_workspace(model, &inputs, &targets, 20, 4);
    assert_eq!(serial, parallel);
}

#[test]
fn forward_ws_matches_reference_forward_bit_for_bit() {
    for activation in [Activation::ReLU, Activation::Tanh, Activation::Sigmoid] {
        let mlp = Mlp::new(MlpConfig {
            layer_sizes: vec![3, 6, 5, 2],
            activation,
            init: InitScheme::HeUniform,
            seed: 42,
        });
        let mut ws = mlp.workspace(4);
        let x = Matrix::from_rows(&[
            vec![1.0, 2.0, 3.0],
            vec![-0.5, 0.0, 0.25],
            vec![0.1, -0.2, 0.3],
            vec![0.0, 0.0, 0.0],
        ]);
        let (reference, _) = reference::forward(&mlp, &x);
        let out = mlp.forward_ws(&x, &mut ws).clone();
        assert_eq!(out, reference, "{activation:?}");
        assert_eq!(mlp.predict_ws(&x, &mut ws), &mlp.predict(&x));
    }
}

/// Runs one workspace backward pass from `grad_out` and checks the gradient
/// arena and the input gradient against the oracle.
fn assert_backward_matches_reference(mut mlp: Mlp, x: &Matrix, grad_out: &Matrix) {
    let (_, trace) = reference::forward(&mlp, x);
    let (grads_reference, grad_in_reference) = reference::backward(&mlp, &trace, grad_out);

    let mut ws = mlp.workspace(x.rows());
    mlp.forward_ws(x, &mut ws);
    ws.output_grad_mut()
        .data_mut()
        .copy_from_slice(grad_out.data());
    mlp.backward_ws(&mut ws);

    assert_eq!(mlp.grads(), grads_reference);
    assert_eq!(ws.input_grad(), &grad_in_reference);
}

#[test]
fn backward_ws_matches_reference_backward_bit_for_bit() {
    let mlp = Mlp::new(MlpConfig {
        layer_sizes: vec![3, 8, 5, 4],
        activation: Activation::ReLU,
        init: InitScheme::HeUniform,
        seed: 7,
    });
    let x = Matrix::from_rows(&[
        vec![0.5, -0.3, 0.8],
        vec![0.1, 0.9, -0.7],
        vec![-0.2, 0.4, 0.6],
    ]);
    let grad_out = Matrix::from_vec(3, 4, (0..12).map(|v| v as f32 * 0.1 - 0.5).collect());
    assert_backward_matches_reference(mlp, &x, &grad_out);
}

#[test]
fn single_sample_batches_match_the_reference_backward() {
    let mlp = Mlp::new(MlpConfig {
        layer_sizes: vec![3, 5, 2],
        activation: Activation::ReLU,
        init: InitScheme::HeUniform,
        seed: 11,
    });
    let x = Matrix::from_rows(&[vec![0.3, -0.6, 0.9]]);
    let grad_out = Matrix::from_rows(&[vec![0.7, -0.1]]);
    assert_backward_matches_reference(mlp, &x, &grad_out);
}
