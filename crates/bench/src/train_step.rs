//! The train-step throughput benchmark core, shared by `bench_throughput`
//! (which established the PR 3 baseline) and `bench_data_plane` (which re-runs
//! the same cases so every benchmark JSON carries the full trajectory).
//!
//! One *case* measures training samples/s of the allocation-free blocked
//! workspace path against the retained seed-style naive path at one output
//! size, trains both paths side by side and verifies the final parameters
//! agree bit for bit — the speedup is only meaningful for a path that
//! provably computes the same model.

use std::time::Instant;
use surrogate_nn::{
    Activation, Adam, AdamConfig, InitScheme, KernelIsa, Loss, Mlp, MlpConfig, MseLoss, Optimizer,
    Sample,
};

/// The seed implementation's Adam step, retained as the measured baseline:
/// a delta vector is allocated per step, filled from the moments, then applied
/// in a second pass — numerically identical to [`Adam`], but with the
/// pre-refactor allocation and memory-traffic profile.
pub struct ReferenceAdam {
    config: AdamConfig,
    first_moment: Vec<f32>,
    second_moment: Vec<f32>,
    steps: usize,
}

impl ReferenceAdam {
    /// Creates the reference optimizer for `param_count` parameters.
    pub fn new(param_count: usize) -> Self {
        Self {
            config: AdamConfig::default(),
            first_moment: vec![0.0; param_count],
            second_moment: vec![0.0; param_count],
            steps: 0,
        }
    }

    /// One two-pass Adam update.
    pub fn step(&mut self, model: &mut Mlp, grads: &[f32], learning_rate: f32) {
        self.steps += 1;
        let t = self.steps as f32;
        let b1 = self.config.beta1;
        let b2 = self.config.beta2;
        let bias1 = 1.0 - b1.powf(t);
        let bias2 = 1.0 - b2.powf(t);
        let mut delta = vec![0.0f32; grads.len()];
        for k in 0..grads.len() {
            let g = grads[k];
            self.first_moment[k] = b1 * self.first_moment[k] + (1.0 - b1) * g;
            self.second_moment[k] = b2 * self.second_moment[k] + (1.0 - b2) * g * g;
            let m_hat = self.first_moment[k] / bias1;
            let v_hat = self.second_moment[k] / bias2;
            delta[k] = -learning_rate * m_hat / (v_hat.sqrt() + self.config.epsilon);
        }
        model.apply_delta(surrogate_nn::simd::detect(), &delta);
    }
}

/// Result of one train-step case.
pub struct TrainStepCase {
    /// Output-layer size of the measured architecture.
    pub output_size: usize,
    /// Parameter count of the measured architecture.
    pub param_count: usize,
    /// Seed-style path rate.
    pub reference_samples_per_second: f64,
    /// Blocked workspace path rate.
    pub blocked_samples_per_second: f64,
    /// `blocked / reference`.
    pub speedup: f64,
    /// Whether five side-by-side steps leave both models bit-identical.
    pub bit_identical: bool,
}

/// The paper-shape model measured by the cases.
pub fn model(output: usize) -> Mlp {
    Mlp::new(MlpConfig {
        layer_sizes: vec![6, 256, 256, output],
        activation: Activation::ReLU,
        init: InitScheme::HeUniform,
        seed: 7,
    })
}

/// The streamed samples a training step consumes (the trainer pulls owned
/// samples from the buffer and assembles the batch from them).
pub fn samples(batch: usize, output: usize) -> Vec<Sample> {
    (0..batch)
        .map(|r| {
            Sample::new(
                (0..6).map(|k| ((r * 6 + k) % 19) as f32 / 19.0).collect(),
                (0..output)
                    .map(|k| ((r * output + k) % 23) as f32 / 23.0)
                    .collect(),
                0,
                r,
            )
        })
        .collect()
}

/// One seed-style training step: per-step batch assembly, clone-based
/// forward/backward through the naive kernels, freshly allocated flattened
/// gradients and a two-pass Adam — the pre-refactor hot path.
pub fn reference_step(m: &mut Mlp, optimizer: &mut ReferenceAdam, streamed: &[Sample]) -> f32 {
    let batch = surrogate_nn::Batch::from_owned(streamed);
    let prediction = m.forward(&batch.inputs);
    let (loss, grad) = MseLoss.evaluate(&prediction, &batch.targets);
    m.zero_grads();
    m.backward(&grad);
    let grads = m.grads_flat();
    optimizer.step(m, &grads, 1e-3);
    loss
}

/// One workspace training step: reused batch, blocked allocation-free
/// forward/backward, reused gradient vector and the fused Adam.
pub fn workspace_step(
    m: &mut Mlp,
    optimizer: &mut Adam,
    ws: &mut surrogate_nn::Workspace,
    batch: &mut surrogate_nn::Batch,
    grads: &mut Vec<f32>,
    streamed: &[Sample],
) -> f32 {
    batch.fill_owned(streamed);
    m.forward_ws(&batch.inputs, ws);
    let (prediction, grad_out) = ws.output_and_grad_mut();
    let loss = MseLoss.evaluate_into(prediction, &batch.targets, grad_out);
    m.backward_ws(ws);
    m.grads_flat_into(grads);
    optimizer.step(m, grads, 1e-3);
    loss
}

/// Runs one measurement window of `min_seconds` (at least 3 steps) after a
/// short warm-up and returns samples per second.
pub fn measure_window(batch: usize, min_seconds: f64, mut step: impl FnMut() -> f32) -> f64 {
    // Warm-up establishes the steady state (lazy buffers, caches).
    for _ in 0..2 {
        std::hint::black_box(step());
    }
    let start = Instant::now();
    let mut steps = 0usize;
    while steps < 3 || start.elapsed().as_secs_f64() < min_seconds {
        std::hint::black_box(step());
        steps += 1;
    }
    (steps * batch) as f64 / start.elapsed().as_secs_f64()
}

/// Best of `attempts` windows, each with *freshly constructed* state — this
/// samples both machine noise and heap-placement luck (buffer alignment can
/// shift cache aliasing between runs), so the reported rate reflects the
/// kernels rather than an unlucky allocation.
pub fn measure_best(attempts: usize, run: impl Fn() -> f64) -> f64 {
    (0..attempts.max(1)).map(|_| run()).fold(0.0f64, f64::max)
}

/// Trains both paths side by side and checks the final parameters agree
/// bit for bit.
pub fn paths_agree(batch: usize, output: usize) -> bool {
    let streamed = samples(batch, output);
    let mut reference = model(output);
    let mut fast = reference.clone();
    let mut ref_opt = ReferenceAdam::new(reference.param_count());
    let mut fast_opt = Adam::new(AdamConfig::default(), fast.param_count());
    let mut ws = fast.workspace(batch);
    let mut batch_buf = surrogate_nn::Batch::with_capacity(batch, 6, output);
    let mut grads = Vec::with_capacity(fast.param_count());
    for _ in 0..5 {
        reference_step(&mut reference, &mut ref_opt, &streamed);
        workspace_step(
            &mut fast,
            &mut fast_opt,
            &mut ws,
            &mut batch_buf,
            &mut grads,
            &streamed,
        );
    }
    reference.params_flat() == fast.params_flat()
}

/// Runs one full case at the given batch size and measurement window.
pub fn run_case(batch: usize, output: usize, min_seconds: f64) -> TrainStepCase {
    let streamed = samples(batch, output);
    let param_count = model(output).param_count();

    let reference_rate = measure_best(3, || {
        let mut m = model(output);
        let mut optimizer = ReferenceAdam::new(param_count);
        measure_window(batch, min_seconds, || {
            reference_step(&mut m, &mut optimizer, &streamed)
        })
    });
    let blocked_rate = measure_best(3, || {
        let mut m = model(output);
        let mut optimizer = Adam::new(AdamConfig::default(), param_count);
        let mut ws = m.workspace(batch);
        let mut batch_buf = surrogate_nn::Batch::with_capacity(batch, 6, output);
        let mut grads = Vec::with_capacity(param_count);
        measure_window(batch, min_seconds, || {
            workspace_step(
                &mut m,
                &mut optimizer,
                &mut ws,
                &mut batch_buf,
                &mut grads,
                &streamed,
            )
        })
    });

    TrainStepCase {
        output_size: output,
        param_count,
        reference_samples_per_second: reference_rate,
        blocked_samples_per_second: blocked_rate,
        speedup: blocked_rate / reference_rate,
        bit_identical: paths_agree(batch, output),
    }
}

/// Formats the cases as the JSON fragment shared by both benchmark binaries.
pub fn cases_to_json(results: &[TrainStepCase]) -> String {
    let mut out = String::from("[\n");
    for (k, r) in results.iter().enumerate() {
        out.push_str(&format!(
            "    {{\"output_size\": {}, \"param_count\": {}, \
             \"reference_samples_per_second\": {:.2}, \
             \"blocked_samples_per_second\": {:.2}, \
             \"speedup\": {:.3}, \"bit_identical\": {}}}{}\n",
            r.output_size,
            r.param_count,
            r.reference_samples_per_second,
            r.blocked_samples_per_second,
            r.speedup,
            r.bit_identical,
            if k + 1 < results.len() { "," } else { "" },
        ));
    }
    out.push_str("  ]");
    out
}

/// Geometric-mean speedup across cases.
pub fn geomean_speedup(results: &[TrainStepCase]) -> f64 {
    geomean(results.iter().map(|r| r.speedup))
}

/// Geometric mean of a speedup sequence.
pub fn geomean(speedups: impl Iterator<Item = f64>) -> f64 {
    let (sum, count) = speedups.fold((0.0f64, 0usize), |(s, c), v| (s + v.ln(), c + 1));
    (sum / count.max(1) as f64).exp()
}

// ---------------------------------------------------------------------------
// Scalar-vs-SIMD cases (PR 10)
// ---------------------------------------------------------------------------

/// Result of one scalar-vs-SIMD train-step case: both arms run the *same*
/// blocked workspace path and differ only in the dispatched kernel ISA, so
/// the speedup isolates the vector micro-kernels from the PR 3 workspace
/// refactor measured by [`TrainStepCase`].
pub struct SimdStepCase {
    /// Output-layer size of the measured architecture.
    pub output_size: usize,
    /// Parameter count of the measured architecture.
    pub param_count: usize,
    /// Blocked workspace path forced to the scalar reference kernels.
    pub scalar_samples_per_second: f64,
    /// Blocked workspace path on the requested (vector) ISA.
    pub simd_samples_per_second: f64,
    /// `simd / scalar`.
    pub speedup: f64,
    /// Whether five side-by-side steps leave both models bit-identical (the
    /// training-path kernels keep one numeric contract across ISAs).
    pub bit_identical: bool,
}

/// Runs one measured arm of a SIMD case: a blocked workspace training loop
/// with the workspace and optimizer pinned to `isa`. (The fused MSE stream
/// follows the process-wide dispatch in both arms — it is bit-identical
/// across ISAs and a negligible share of the step.)
fn simd_arm_rate(batch: usize, output: usize, min_seconds: f64, isa: KernelIsa) -> f64 {
    let streamed = samples(batch, output);
    let param_count = model(output).param_count();
    measure_best(3, || {
        let mut m = model(output);
        let mut optimizer = Adam::new(AdamConfig::default(), param_count).with_isa(isa);
        let mut ws = m.workspace(batch).with_isa(isa);
        let mut batch_buf = surrogate_nn::Batch::with_capacity(batch, 6, output);
        let mut grads = Vec::with_capacity(param_count);
        measure_window(batch, min_seconds, || {
            workspace_step(
                &mut m,
                &mut optimizer,
                &mut ws,
                &mut batch_buf,
                &mut grads,
                &streamed,
            )
        })
    })
}

/// Trains the scalar-pinned and `isa`-pinned arms side by side and checks
/// the final parameters agree bit for bit.
pub fn simd_paths_agree(batch: usize, output: usize, isa: KernelIsa) -> bool {
    let streamed = samples(batch, output);
    let mut scalar_model = model(output);
    let mut simd_model = scalar_model.clone();
    let param_count = scalar_model.param_count();
    let mut scalar_opt = Adam::new(AdamConfig::default(), param_count).with_isa(KernelIsa::Scalar);
    let mut simd_opt = Adam::new(AdamConfig::default(), param_count).with_isa(isa);
    let mut scalar_ws = scalar_model.workspace(batch).with_isa(KernelIsa::Scalar);
    let mut simd_ws = simd_model.workspace(batch).with_isa(isa);
    let mut scalar_batch = surrogate_nn::Batch::with_capacity(batch, 6, output);
    let mut simd_batch = surrogate_nn::Batch::with_capacity(batch, 6, output);
    let mut scalar_grads = Vec::with_capacity(param_count);
    let mut simd_grads = Vec::with_capacity(param_count);
    for _ in 0..5 {
        workspace_step(
            &mut scalar_model,
            &mut scalar_opt,
            &mut scalar_ws,
            &mut scalar_batch,
            &mut scalar_grads,
            &streamed,
        );
        workspace_step(
            &mut simd_model,
            &mut simd_opt,
            &mut simd_ws,
            &mut simd_batch,
            &mut simd_grads,
            &streamed,
        );
    }
    scalar_model.params_flat() == simd_model.params_flat()
}

/// Runs one scalar-vs-SIMD case at the given batch size and window. Both
/// rates come from the same process, same build, same inputs — the only
/// variable is the dispatched ISA.
pub fn run_simd_case(
    batch: usize,
    output: usize,
    min_seconds: f64,
    isa: KernelIsa,
) -> SimdStepCase {
    let param_count = model(output).param_count();
    let scalar_rate = simd_arm_rate(batch, output, min_seconds, KernelIsa::Scalar);
    let simd_rate = simd_arm_rate(batch, output, min_seconds, isa);
    SimdStepCase {
        output_size: output,
        param_count,
        scalar_samples_per_second: scalar_rate,
        simd_samples_per_second: simd_rate,
        speedup: simd_rate / scalar_rate,
        bit_identical: simd_paths_agree(batch, output, isa),
    }
}

/// Formats the SIMD cases as a JSON array fragment.
pub fn simd_cases_to_json(results: &[SimdStepCase]) -> String {
    let mut out = String::from("[\n");
    for (k, r) in results.iter().enumerate() {
        out.push_str(&format!(
            "    {{\"output_size\": {}, \"param_count\": {}, \
             \"scalar_samples_per_second\": {:.2}, \
             \"simd_samples_per_second\": {:.2}, \
             \"speedup\": {:.3}, \"bit_identical\": {}}}{}\n",
            r.output_size,
            r.param_count,
            r.scalar_samples_per_second,
            r.simd_samples_per_second,
            r.speedup,
            r.bit_identical,
            if k + 1 < results.len() { "," } else { "" },
        ));
    }
    out.push_str("  ]");
    out
}

/// The dispatch decision and toolchain identity recorded in every benchmark
/// JSON: which ISA was requested, what it resolved to on this CPU, the
/// vector lane width and GEMM micro-kernel tile, and the compiler/target
/// that produced the binary — so numbers from different machines or builds
/// are never silently compared.
pub fn dispatch_json(requested: KernelIsa) -> String {
    let resolved = requested.resolve();
    format!(
        "{{\n    \"requested_isa\": \"{requested}\",\n    \"resolved_isa\": \"{}\",\n    \
         \"lane_width\": {},\n    \"gemm_micro_kernel\": \"{}\",\n    \
         \"rustc\": \"{}\",\n    \"target\": \"{}\"\n  }}",
        resolved.name(),
        resolved.lane_width(),
        resolved.gemm_tile(),
        env!("BENCH_RUSTC_VERSION"),
        env!("BENCH_TARGET_TRIPLE"),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn both_paths_compute_the_same_model() {
        assert!(paths_agree(4, 32));
    }

    #[test]
    fn a_tiny_case_runs_and_reports_finite_rates() {
        let case = run_case(2, 16, 0.01);
        assert!(case.reference_samples_per_second > 0.0);
        assert!(case.blocked_samples_per_second > 0.0);
        assert!(case.speedup.is_finite());
        assert!(case.bit_identical);
    }

    #[test]
    fn scalar_and_auto_isa_arms_compute_the_same_model() {
        assert!(simd_paths_agree(4, 32, KernelIsa::Auto));
    }

    #[test]
    fn a_tiny_simd_case_runs_and_reports_finite_rates() {
        let case = run_simd_case(2, 16, 0.01, KernelIsa::Auto);
        assert!(case.scalar_samples_per_second > 0.0);
        assert!(case.simd_samples_per_second > 0.0);
        assert!(case.speedup.is_finite());
        assert!(case.bit_identical);
    }

    #[test]
    fn dispatch_json_names_the_resolved_isa_and_toolchain() {
        let json = dispatch_json(KernelIsa::Scalar);
        assert!(json.contains("\"requested_isa\": \"scalar\""));
        assert!(json.contains("\"resolved_isa\": \"scalar\""));
        assert!(json.contains("\"lane_width\": 1"));
        assert!(json.contains("\"gemm_micro_kernel\": \"4x8\""));
        assert!(json.contains("\"rustc\": \""));
        assert!(json.contains("\"target\": \""));
    }

    #[test]
    fn geomean_of_equal_speedups_is_that_speedup() {
        let g = geomean([2.0, 2.0, 2.0].into_iter());
        assert!((g - 2.0).abs() < 1e-12);
        assert!((geomean(std::iter::empty::<f64>()) - 1.0).abs() < 1e-12);
    }
}
