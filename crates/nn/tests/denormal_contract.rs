//! The floating-point mode is part of the crate's numeric contract: every
//! training- and validation-path entry point flushes subnormals for its own
//! duration and hands the calling thread back the mode it came with (see
//! "Numeric contracts" in `surrogate_nn::simd`). These are state assertions —
//! which bit patterns exist, which mode a thread is left in — not timings.
//!
//! Each test runs on a thread of its own (the harness's, or one it spawns),
//! so changing a thread's mode here cannot leak into another test.

#[path = "support/reference.rs"]
mod reference;

use serde::Deserialize;
use std::hint::black_box;
use surrogate_nn::{
    Adam, AdamConfig, InitScheme, KernelIsa, Loss, Matrix, Mlp, MlpConfig, MseLoss, Optimizer,
    Workspace,
};

const HAS_FLUSH_BIT: bool = cfg!(any(target_arch = "x86_64", target_arch = "aarch64"));

/// What `Adam`'s `Serialize` exposes of its state.
#[derive(Deserialize)]
struct AdamState {
    first_moment: Vec<f32>,
    second_moment: Vec<f32>,
}

fn adam_state(adam: &Adam) -> AdamState {
    serde_json::from_str(&serde_json::to_string(adam).unwrap()).unwrap()
}

fn subnormals(values: &[f32]) -> usize {
    values.iter().filter(|v| v.is_subnormal()).count()
}

fn bits(values: &[f32]) -> Vec<u32> {
    values.iter().map(|v| v.to_bits()).collect()
}

/// A product that is subnormal under gradual underflow and zero once results
/// are flushed: the probe for the mode the calling thread is in.
fn tiny_product() -> f32 {
    black_box(black_box(1.0e-20f32) * black_box(1.0e-20f32))
}

/// Sets flush-to-zero on the calling thread (with `also_daz`, x86's
/// denormals-are-zero as well), the way a host application that wants
/// flushing for its own code would. A no-op where no control bit is known.
fn preset_flush_to_zero(also_daz: bool) {
    #[cfg(target_arch = "x86_64")]
    {
        let mut word: u32 = 0;
        // SAFETY: stores MXCSR into `word`, sets only FTZ (bit 15) and DAZ
        // (bit 6), and loads it back; no reserved bit is touched.
        unsafe {
            std::arch::asm!("stmxcsr [{0}]", in(reg) &mut word, options(nostack));
            word |= (1 << 15) | if also_daz { 1 << 6 } else { 0 };
            std::arch::asm!("ldmxcsr [{0}]", in(reg) &word, options(nostack));
        }
    }
    #[cfg(target_arch = "aarch64")]
    {
        let _ = also_daz; // FPCR.FZ covers operands and results alike
        let mut word: u64;
        // SAFETY: reads FPCR, sets only the FZ bit (24), writes it back.
        unsafe {
            std::arch::asm!("mrs {0}, fpcr", out(reg) word, options(nostack));
            word |= 1 << 24;
            std::arch::asm!("msr fpcr, {0}", in(reg) word, options(nostack));
        }
    }
    #[cfg(not(any(target_arch = "x86_64", target_arch = "aarch64")))]
    let _ = also_daz;
}

fn paper_mlp() -> Mlp {
    Mlp::new(MlpConfig::paper_architecture(576, 5))
}

/// (a) The mechanism behind the slow optimizer pass: once a parameter's
/// gradient is exactly zero (a dead ReLU), its first moment decays by β₁ per
/// step, reaches the subnormal range after ~800 steps and, under
/// round-to-nearest, sticks at a few ulps there for good; a gradient around
/// 1e-20 squares into a subnormal second moment directly. With subnormals
/// flushed by contract, neither pattern can exist after any number of steps.
#[test]
fn adam_state_never_holds_a_subnormal() {
    let mut model = paper_mlp();
    let n = model.param_count();
    let mut adam = Adam::new(AdamConfig::default(), n);
    let mut grads: Vec<f32> = (0..n)
        .map(|i| match i % 5 {
            // Squares to ~1e-43: a subnormal second moment unless flushed.
            0 => 3.0e-20,
            r => (r as f32 - 2.5) * 1.0e-3,
        })
        .collect();
    for step in 0..1500 {
        if step == 50 {
            for g in grads.iter_mut().skip(1).step_by(3) {
                *g = 0.0;
            }
        }
        adam.step(&mut model, &grads, 1e-3);
    }
    let state = adam_state(&adam);
    assert_eq!(state.first_moment.len(), n);
    assert_eq!(subnormals(&state.first_moment), 0, "first moments");
    assert_eq!(subnormals(&state.second_moment), 0, "second moments");
    assert_eq!(subnormals(&model.params_flat()), 0, "parameters");
    // The decayed moments ended at exactly zero, the live ones did not.
    assert!(state
        .first_moment
        .iter()
        .skip(1)
        .step_by(3)
        .all(|&m| m == 0.0));
    assert!(state.first_moment.iter().any(|&m| m != 0.0));
    assert!(model.params_flat().iter().all(|p| p.is_finite()));
}

/// Calls every guarded entry point once, running `after_each` on the calling
/// thread right after each returns.
fn call_every_entry_point(mut after_each: impl FnMut(&str)) {
    let mut model = Mlp::new(MlpConfig {
        layer_sizes: vec![4, 8, 3],
        activation: surrogate_nn::Activation::ReLU,
        init: InitScheme::HeUniform,
        seed: 1,
    });
    let mut ws = model.workspace(2);
    let mut adam = Adam::new(AdamConfig::default(), model.param_count());
    let inputs = Matrix::from_vec(2, 4, (0..8).map(|v| v as f32 * 0.1).collect());
    let targets = Matrix::from_vec(2, 3, (0..6).map(|v| v as f32 * 0.2).collect());

    model.forward_ws(&inputs, &mut ws);
    after_each("forward_ws");
    let (prediction, grad_out) = ws.output_and_grad_mut();
    MseLoss.evaluate_into(prediction, &targets, grad_out);
    after_each("MseLoss::evaluate_into");
    model.backward_ws(&mut ws);
    after_each("backward_ws");
    let grads = model.grads().to_vec();
    adam.step(&mut model, &grads, 1e-3);
    after_each("Adam::step");
    adam.step_in_place(&mut model, 1e-3);
    after_each("Adam::step_in_place");
    model.predict_ws(&inputs, &mut ws);
    after_each("predict_ws");
}

/// (b) The guard restores what it found: a thread in the default mode keeps
/// gradual underflow after every call, a thread that had flush-to-zero set
/// (and only that bit) keeps exactly that.
#[test]
fn entry_points_hand_the_callers_mode_back() {
    assert!(
        tiny_product() > 0.0,
        "test threads start in the default mode"
    );
    call_every_entry_point(|entry| {
        assert!(tiny_product() > 0.0, "{entry} left subnormals flushed");
    });
    if HAS_FLUSH_BIT {
        preset_flush_to_zero(false);
        assert_eq!(tiny_product(), 0.0);
        call_every_entry_point(|entry| {
            assert_eq!(tiny_product(), 0.0, "{entry} cleared the caller's FTZ");
        });
    }
}

/// Inputs and targets whose rows span twenty orders of magnitude, so that
/// products of activations, loss gradients and squared gradients land in —
/// and on either side of — the subnormal range.
fn underflowing_batch(rows: usize, inputs: usize, outputs: usize) -> (Matrix, Matrix) {
    let scale = |row: usize| 10.0f32.powi(-(2 * row as i32) - 2);
    let x = (0..rows * inputs)
        .map(|i| (((i * 37) % 19) as f32 / 19.0 + 0.05) * scale(i / inputs))
        .collect();
    let y = (0..rows * outputs)
        .map(|i| (((i * 11) % 23) as f32 / 23.0 - 0.4) * scale(i / outputs))
        .collect();
    (
        Matrix::from_vec(rows, inputs, x),
        Matrix::from_vec(rows, outputs, y),
    )
}

/// One training sequence through the arena path; returns the final
/// parameters and optimizer state as bit patterns.
fn train(
    model: &mut Mlp,
    ws: &mut Workspace,
    isa: KernelIsa,
    steps: usize,
) -> (Vec<u32>, Vec<u32>, Vec<u32>) {
    let (inputs, targets) = underflowing_batch(10, model.input_size(), model.output_size());
    let mut adam = Adam::new(AdamConfig::default(), model.param_count()).with_isa(isa);
    for _ in 0..steps {
        model.forward_ws(&inputs, ws);
        let (prediction, grad_out) = ws.output_and_grad_mut();
        MseLoss.evaluate_into(prediction, &targets, grad_out);
        model.backward_ws(ws);
        adam.step_in_place(model, 1e-3);
    }
    let state = adam_state(&adam);
    (
        bits(&model.params_flat()),
        bits(&state.first_moment),
        bits(&state.second_moment),
    )
}

fn small_model() -> Mlp {
    Mlp::new(MlpConfig {
        layer_sizes: vec![6, 32, 32, 48],
        activation: surrogate_nn::Activation::ReLU,
        init: InitScheme::HeUniform,
        seed: 9,
    })
}

/// The sequence of (c) really produces subnormals: computed by the naive
/// reference oracle on this default-mode thread, its very first gradient
/// holds some.
#[test]
fn the_underflowing_batch_produces_subnormal_gradients() {
    let model = small_model();
    let (inputs, targets) = underflowing_batch(10, 6, 48);
    let (prediction, trace) = reference::forward(&model, &inputs);
    let (_, grad_out) = reference::mse(&prediction, &targets);
    let (grads, _) = reference::backward(&model, &trace, &grad_out);
    assert!(subnormals(&grads) > 0);
}

/// (c) Ambient independence: the same sequence run from a default-mode
/// thread and from a thread that already flushes ends bit-identical, on the
/// scalar and the detected kernels alike — and with no subnormal anywhere.
#[test]
fn results_do_not_depend_on_the_calling_threads_mode() {
    for isa in [KernelIsa::Scalar, KernelIsa::Auto] {
        let run = move |preset: bool| {
            std::thread::spawn(move || {
                if preset {
                    preset_flush_to_zero(true);
                }
                let mut model = small_model();
                let mut ws = model.workspace(10).with_isa(isa);
                let out = train(&mut model, &mut ws, isa, 40);
                assert_eq!(tiny_product() == 0.0, preset && HAS_FLUSH_BIT);
                out
            })
            .join()
            .unwrap()
        };
        let default_mode = run(false);
        let pre_flushed = run(true);
        assert!(default_mode == pre_flushed, "{isa}: diverged");
        if HAS_FLUSH_BIT {
            let f32s = |b: &[u32]| b.iter().map(|&b| f32::from_bits(b)).collect::<Vec<_>>();
            assert_eq!(subnormals(&f32s(&default_mode.0)), 0);
            assert_eq!(subnormals(&f32s(&default_mode.1)), 0);
            assert_eq!(subnormals(&f32s(&default_mode.2)), 0);
        }
    }
}
