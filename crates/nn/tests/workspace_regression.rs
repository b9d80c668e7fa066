//! Regression: a full training run through the workspace-based hot path ends
//! with *bit-for-bit* the same parameters as the retained clone-based
//! reference path, on fixed seeds — the guarantee that the perf rewrite did
//! not change a single number the experiments produce.

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
        let prediction = model.forward(inputs);
        let (_, grad_out) = MseLoss.evaluate(&prediction, targets);
        model.zero_grads();
        model.backward(&grad_out);
        let grads = model.grads_flat();
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
        // the optimizer reads it in place — the reference path above goes
        // through a flattened copy and the external-gradient `step`.
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
