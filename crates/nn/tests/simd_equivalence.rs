//! Equivalence suite pinning the SIMD dispatch layer against the blocked
//! scalar reference kernels.
//!
//! Every kernel is bit-identical to its scalar reference and compared with
//! `assert_eq!` (exact f32 bits) across odd shapes — dimensions that are not
//! multiples of the MR×NR register tile, the 8-lane vector width or
//! `gemm_nt`'s 4-deep k-step, remainder rows/columns, single-row batches and
//! unaligned (odd-length) slices. `gemm_nt`'s scalar arm is in turn pinned to
//! the naive mul-then-add triple loop.
//!
//! On a machine without a vector ISA (or under `MELISSA_KERNEL_ISA=scalar`),
//! the "vector" side resolves to scalar and the comparisons become identity
//! checks — the suite stays green on every dispatch decision, which is exactly
//! what CI's forced-scalar re-run asserts.

#[path = "support/reference.rs"]
mod reference;

use proptest::prelude::*;
use rand::distributions::{Distribution, Uniform};
use rand::{RngCore, SeedableRng};
use rand_chacha::ChaCha8Rng;
use surrogate_nn::kernels;
use surrogate_nn::simd::{self, AdamStep, Epilogue, KernelIsa, ResolvedIsa};
use surrogate_nn::{Activation, InitScheme, WeightInit};

/// The widest ISA the machine (or the `MELISSA_KERNEL_ISA` override) offers.
fn vector_isa() -> ResolvedIsa {
    simd::detect()
}

fn activations() -> impl Strategy<Value = Activation> {
    prop::sample::select(vec![
        Activation::ReLU,
        Activation::Tanh,
        Activation::Sigmoid,
        Activation::Identity,
    ])
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// gemm_nn with the identity epilogue is bit-identical to the scalar
    /// blocked kernel on every shape, including remainder rows and columns.
    #[test]
    fn gemm_nn_identity_bit_identical(m in 1usize..14, k in 1usize..11, n in 1usize..21, seed in 0u64..1000) {
        let (a, b) = seeded_operands(m * k, k * n, seed);
        let mut reference = vec![0.0f32; m * n];
        kernels::gemm_nn(1, &a, m, k, &b, n, &mut reference, |_, acc| acc);
        let mut vectored = vec![0.0f32; m * n];
        simd::gemm_nn(vector_isa(), 1, &a, m, k, &b, n, &mut vectored, Epilogue::Identity);
        prop_assert_eq!(&reference, &vectored);
    }

    /// gemm_nn with the fused bias+activation epilogue is bit-identical for
    /// every activation (the dense-layer forward pass).
    #[test]
    fn gemm_nn_bias_act_bit_identical(
        m in 1usize..14,
        k in 1usize..11,
        n in 1usize..21,
        seed in 0u64..1000,
        activation in activations(),
    ) {
        let (a, b) = seeded_operands(m * k, k * n, seed);
        let biases: Vec<f32> = (0..n).map(|j| (j as f32 - 2.0) * 0.25).collect();
        let mut reference = vec![0.0f32; m * n];
        kernels::gemm_nn(1, &a, m, k, &b, n, &mut reference, |j, acc| {
            activation.apply(acc + biases[j])
        });
        let mut vectored = vec![0.0f32; m * n];
        simd::gemm_nn(
            vector_isa(),
            1,
            &a,
            m,
            k,
            &b,
            n,
            &mut vectored,
            Epilogue::BiasAct { biases: &biases, activation },
        );
        prop_assert_eq!(&reference, &vectored);
    }

    /// gemm_tn (overwrite and accumulate modes) is bit-identical, including
    /// m == 1, the weight gradient of a single-sample batch.
    #[test]
    fn gemm_tn_bit_identical(m in 1usize..14, k in 1usize..11, n in 1usize..21, seed in 0u64..1000, accumulate in any::<bool>()) {
        let (a, b) = seeded_operands(m * k, m * n, seed);
        let init: Vec<f32> = (0..k * n).map(|i| (i as f32 % 5.0) - 2.0).collect();
        let mut reference = init.clone();
        kernels::gemm_tn(1, &a, m, k, &b, n, &mut reference, accumulate);
        let mut vectored = init;
        simd::gemm_tn(vector_isa(), 1, &a, m, k, &b, n, &mut vectored, accumulate);
        prop_assert_eq!(&reference, &vectored);
    }

    /// The backward activation pass is bit-identical for every activation on
    /// unaligned lengths, including the sign of gradients zeroed by ReLU.
    #[test]
    fn act_derivative_mul_bit_identical(
        len in 1usize..40,
        seed in 0u64..1000,
        activation in activations(),
    ) {
        let (grad0, ys) = seeded_operands(len, len, seed);
        let mut reference = grad0.clone();
        for (g, &y) in reference.iter_mut().zip(&ys) {
            *g *= activation.derivative_from_output(y);
        }
        let mut vectored = grad0;
        simd::act_derivative_mul(vector_isa(), &mut vectored, &ys, activation);
        for (r, v) in reference.iter().zip(&vectored) {
            prop_assert_eq!(r.to_bits(), v.to_bits());
        }
    }

    /// The fused MSE pass returns a bit-identical gradient and the loss sum
    /// in the 8-lane tree order, and the gradient-free sum agrees with it.
    #[test]
    fn mse_fused_bit_identical(len in 1usize..40, seed in 0u64..1000, scale in 0.01f32..2.0) {
        let (pred, target) = seeded_operands(len, len, seed);
        let ref_grad: Vec<f32> = pred.iter().zip(&target).map(|(p, t)| (p - t) * scale).collect();
        let ref_sum = tree_order_sum(&pred, &target);
        for isa in [ResolvedIsa::Scalar, vector_isa()] {
            let mut grad = vec![0.0f32; len];
            let sum = simd::mse_fused(isa, &pred, &target, scale, &mut grad);
            prop_assert_eq!(ref_sum.to_bits(), sum.to_bits());
            prop_assert_eq!(&ref_grad, &grad);
            let sum = simd::squared_error_sum(isa, &pred, &target);
            prop_assert_eq!(ref_sum.to_bits(), sum.to_bits());
        }
    }

    /// The fused Adam pass is bit-identical to the scalar op order, with and
    /// without decoupled weight decay, on unaligned lengths — and both arms
    /// equal the textbook formula that always divides by `bias1`, also once
    /// `bias1` is exactly 1.0 and the kernels skip that division.
    #[test]
    fn adam_update_bit_identical(
        len in 1usize..40,
        seed in 0u64..1000,
        with_decay in any::<bool>(),
        decay_value in 0.001f32..0.1,
        bias1 in prop::sample::select(vec![1.0 - 0.9f32.powf(3.0), 1.0]),
    ) {
        let (params0, grads) = seeded_operands(len, len, seed);
        let (first0, second0) = seeded_operands(len, len, seed ^ 0x9E37);
        let second0: Vec<f32> = second0.iter().map(|v| v.abs()).collect();
        let step = AdamStep {
            beta1: 0.9,
            beta2: 0.999,
            bias1,
            bias2: 1.0 - 0.999f32.powf(3.0),
            learning_rate: 1e-3,
            epsilon: 1e-8,
            decay: if with_decay { decay_value } else { 0.0 },
        };

        let (mut p_formula, mut m_formula, mut v_formula) =
            (params0.clone(), first0.clone(), second0.clone());
        for k in 0..len {
            let g = grads[k];
            m_formula[k] = step.beta1 * m_formula[k] + (1.0 - step.beta1) * g;
            v_formula[k] = step.beta2 * v_formula[k] + (1.0 - step.beta2) * g * g;
            let m_hat = m_formula[k] / step.bias1;
            let v_hat = v_formula[k] / step.bias2;
            let mut delta = -step.learning_rate * m_hat / (v_hat.sqrt() + step.epsilon);
            if step.decay > 0.0 {
                delta -= step.decay * p_formula[k];
            }
            p_formula[k] += delta;
        }

        for isa in [ResolvedIsa::Scalar, vector_isa()] {
            let (mut p, mut m, mut v) = (params0.clone(), first0.clone(), second0.clone());
            simd::adam_update(isa, &mut p, &grads, &mut m, &mut v, step);
            prop_assert_eq!(&p_formula, &p);
            prop_assert_eq!(&m_formula, &m);
            prop_assert_eq!(&v_formula, &v);
        }
    }

    /// The normaliser streams (per-dim, affine, denormalising map) are
    /// bit-identical, including zero-span dimensions mapping to +0.0.
    #[test]
    fn normalizer_streams_bit_identical(len in 1usize..40, seed in 0u64..1000) {
        let (values0, mins) = seeded_operands(len, len, seed);
        // Every third dimension is pinned (zero span).
        let spans: Vec<f32> = (0..len)
            .map(|i| if i % 3 == 2 { 0.0 } else { 1.0 + (i as f32) * 0.125 })
            .collect();
        let mut v_ref = values0.clone();
        simd::normalize_dims(ResolvedIsa::Scalar, &mut v_ref, &mins, &spans);
        let mut v = values0.clone();
        simd::normalize_dims(vector_isa(), &mut v, &mins, &spans);
        for (r, x) in v_ref.iter().zip(&v) {
            prop_assert_eq!(r.to_bits(), x.to_bits());
        }

        let mut a_ref = values0.clone();
        simd::affine_normalize(ResolvedIsa::Scalar, &mut a_ref, 100.0, 400.0);
        let mut a = values0.clone();
        simd::affine_normalize(vector_isa(), &mut a, 100.0, 400.0);
        prop_assert_eq!(&a_ref, &a);

        let mut m_ref = values0.clone();
        simd::affine_map(ResolvedIsa::Scalar, &mut m_ref, 400.0, 100.0);
        let mut m = values0;
        simd::affine_map(vector_isa(), &mut m, 400.0, 100.0);
        prop_assert_eq!(&m_ref, &m);
    }

    /// gemm_nt's scalar arm matches the naive mul-then-add k-loop exactly.
    #[test]
    fn gemm_nt_v1_matches_naive_reduction(m in 1usize..14, k in 1usize..11, n in 1usize..21, seed in 0u64..1000) {
        let (a, b) = seeded_operands(m * k, n * k, seed);
        let mut v1 = vec![0.0f32; m * n];
        simd::gemm_nt(ResolvedIsa::Scalar, 1, &a, m, k, &b, n, &mut v1);
        for i in 0..m {
            for j in 0..n {
                let mut acc = 0.0f32;
                for l in 0..k {
                    acc += a[i * k + l] * b[j * k + l];
                }
                prop_assert_eq!(acc.to_bits(), v1[i * n + j].to_bits());
            }
        }
    }

    /// gemm_nt's vector arm is bit-identical to its scalar arm — on batch
    /// sizes past one and two 10-row register blocks, k on both sides of
    /// the 4-deep transpose step, and full plus zero-padded 8-column panels.
    #[test]
    fn gemm_nt_bit_identical(m in 1usize..23, k in 1usize..11, n in 1usize..21, seed in 0u64..1000) {
        let (a, b) = seeded_operands(m * k, n * k, seed);
        let mut reference = vec![0.0f32; m * n];
        simd::gemm_nt(ResolvedIsa::Scalar, 1, &a, m, k, &b, n, &mut reference);
        let mut vectored = vec![0.0f32; m * n];
        simd::gemm_nt(vector_isa(), 1, &a, m, k, &b, n, &mut vectored);
        for (r, v) in reference.iter().zip(&vectored) {
            prop_assert_eq!(r.to_bits(), v.to_bits());
        }
    }
}

/// Deterministic pseudo-random operands (splitmix64-expanded) so failures
/// reproduce from the proptest seed alone.
fn seeded_operands(len_a: usize, len_b: usize, seed: u64) -> (Vec<f32>, Vec<f32>) {
    let mut state = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15).wrapping_add(1);
    let mut next = move || {
        state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^= z >> 31;
        // Map to [-4, 4) with plenty of mantissa variety.
        ((z >> 40) as f32 / (1u64 << 23) as f32) * 8.0 - 4.0
    };
    let a = (0..len_a).map(|_| next()).collect();
    let b = (0..len_b).map(|_| next()).collect();
    (a, b)
}

/// `Σ (pred − target)²` in the MSE's order, by the naive oracle.
fn tree_order_sum(pred: &[f32], target: &[f32]) -> f32 {
    let diffs: Vec<f32> = pred.iter().zip(target).map(|(p, t)| p - t).collect();
    reference::sum_of_squares(&diffs)
}

/// Known answers for the MSE sum on errors whose serial sum and tree sum
/// differ: element 0 errs by 1 and every other element by 2⁻¹², so each
/// later square, 2⁻²⁴, is half an ulp of 1 and rounds away against it. One
/// serial accumulator therefore ends at exactly 1. In the tree only lane 0
/// holds the 1, and the seven other lanes keep their small squares, so from
/// the first full block of eight on the two orders differ. On an even number
/// of whole blocks `b`, every partial sum of the tree is exact (a multiple of
/// 2⁻²³ above 1), and the answer is `1 + 7·b·2⁻²⁴` — for the batch shapes of
/// the benchmark's `stream_bound` (10×576) and `solver_bound` (10×4,096) as
/// well as for short lengths.
#[test]
fn mse_sum_known_answers_follow_the_tree_not_the_serial_chain() {
    let small = 2.0f32.powi(-12);
    let errors =
        |len: usize| -> Vec<f32> { (0..len).map(|k| if k == 0 { 1.0 } else { small }).collect() };
    let lengths = (1..=40).chain([10 * 576, 10 * 4096]);
    for len in lengths {
        let pred = errors(len);
        let target = vec![0.0f32; len];
        let serial = pred.iter().fold(0.0f32, |sum, d| sum + d * d);
        assert_eq!(
            serial, 1.0,
            "len {len}: the serial chain loses every small square"
        );
        let expected = tree_order_sum(&pred, &target);
        if len % 16 == 0 {
            let blocks = (len / 8) as f32;
            assert_eq!(expected, 1.0 + 7.0 * blocks * 2.0f32.powi(-24), "len {len}");
        }
        if len >= 8 {
            assert_ne!(expected, serial, "len {len}: the orders must differ");
        }
        for isa in [ResolvedIsa::Scalar, vector_isa()] {
            let mut grad = vec![0.0f32; len];
            let sum = simd::mse_fused(isa, &pred, &target, 0.5, &mut grad);
            assert_eq!(sum.to_bits(), expected.to_bits(), "len {len}, {isa:?}");
            assert_eq!(
                simd::squared_error_sum(isa, &pred, &target).to_bits(),
                expected.to_bits(),
                "len {len}, {isa:?}"
            );
            assert_eq!(grad[0], 0.5);
            assert!(grad[1..].iter().all(|&g| g == small * 0.5));
        }
    }
}

/// A forced-`scalar` request resolves to the scalar reference arm regardless
/// of what the hardware offers, and the dispatched result is bit-identical to
/// calling the blocked scalar kernel directly.
#[test]
fn forced_scalar_dispatch_uses_reference_kernels() {
    assert_eq!(KernelIsa::Scalar.resolve(), ResolvedIsa::Scalar);
    let (m, k, n) = (7, 9, 11);
    let (a, b) = seeded_operands(m * k, k * n, 42);
    let mut direct = vec![0.0f32; m * n];
    kernels::gemm_nn(1, &a, m, k, &b, n, &mut direct, |_, acc| acc);
    let mut dispatched = vec![0.0f32; m * n];
    simd::gemm_nn(
        KernelIsa::Scalar.resolve(),
        1,
        &a,
        m,
        k,
        &b,
        n,
        &mut dispatched,
        Epilogue::Identity,
    );
    assert_eq!(direct, dispatched);
}

/// Multi-threaded vector GEMMs split rows exactly like the scalar kernels
/// (shared work threshold), so results stay bit-identical across thread
/// counts on big-enough shapes to actually cross the parallel threshold.
#[test]
fn parallel_vector_gemm_bit_identical_to_serial() {
    let (m, k, n) = (96, 130, 150);
    let (a, b) = seeded_operands(m * k, k * n, 7);
    let isa = vector_isa();
    let mut serial = vec![0.0f32; m * n];
    simd::gemm_nn(isa, 1, &a, m, k, &b, n, &mut serial, Epilogue::Identity);
    for threads in [2, 3, 5] {
        let mut parallel = vec![0.0f32; m * n];
        simd::gemm_nn(
            isa,
            threads,
            &a,
            m,
            k,
            &b,
            n,
            &mut parallel,
            Epilogue::Identity,
        );
        assert_eq!(serial, parallel, "threads={threads}");
    }

    let (bt, _) = seeded_operands(m * n, 0, 9);
    let mut tn_serial = vec![0.0f32; k * n];
    simd::gemm_tn(isa, 1, &a, m, k, &bt, n, &mut tn_serial, false);
    for threads in [2, 4] {
        let mut tn_parallel = vec![0.0f32; k * n];
        simd::gemm_tn(isa, threads, &a, m, k, &bt, n, &mut tn_parallel, false);
        assert_eq!(tn_serial, tn_parallel, "threads={threads}");
    }

    // `b` read as n×k: the same over-threshold shape, A·Bᵀ.
    let mut nt_serial = vec![0.0f32; m * n];
    simd::gemm_nt(isa, 1, &a, m, k, &b, n, &mut nt_serial);
    for threads in [2, 3] {
        let mut nt_parallel = vec![0.0f32; m * n];
        simd::gemm_nt(isa, threads, &a, m, k, &b, n, &mut nt_parallel);
        assert_eq!(nt_serial, nt_parallel, "threads={threads}");
    }
}

/// A workspace pinned to `scalar` and one pinned to the detected ISA train
/// bit-identically (200 fused forward/backward/Adam steps, past the step
/// near t ≈ 165 where Adam's `bias1` rounds to 1.0 and the division by it
/// is skipped) — the end-to-end version of the per-kernel checks above.
#[test]
fn training_is_bit_identical_across_dispatch() {
    use surrogate_nn::{
        Adam, AdamConfig, InitScheme, Loss, Matrix, Mlp, MlpConfig, MseLoss, Optimizer,
    };

    let config = MlpConfig {
        layer_sizes: vec![6, 29, 13],
        activation: Activation::ReLU,
        init: InitScheme::HeUniform,
        seed: 11,
    };
    let run = |isa: KernelIsa| -> Vec<f32> {
        let mut model = Mlp::new(config.clone());
        let mut ws = model.workspace(9).with_isa(isa);
        let mut optimizer = Adam::new(AdamConfig::default(), model.param_count()).with_isa(isa);
        let mut grads = Vec::new();
        let (inputs_v, targets_v) = seeded_operands(9 * 6, 9 * 13, 3);
        let inputs = Matrix::from_vec(9, 6, inputs_v);
        let targets = Matrix::from_vec(9, 13, targets_v);
        for _ in 0..200 {
            model.forward_ws(&inputs, &mut ws);
            let (pred, grad) = ws.output_and_grad_mut();
            MseLoss.evaluate_into(pred, &targets, grad);
            model.backward_ws(&mut ws);
            model.grads_flat_into(&mut grads);
            optimizer.step(&mut model, &grads, 1e-3);
        }
        model.params_flat()
    };

    // The run does reach the skipped-division regime.
    assert_eq!(1.0 - AdamConfig::default().beta1.powf(200.0), 1.0);
    let scalar = run(KernelIsa::Scalar);
    let auto = run(KernelIsa::Auto);
    assert_eq!(scalar.len(), auto.len());
    for (i, (s, v)) in scalar.iter().zip(&auto).enumerate() {
        assert_eq!(s.to_bits(), v.to_bits(), "param {i} diverged: {s} vs {v}");
    }
}

/// The same end-to-end check on a sequence that underflows: batch rows span
/// twenty orders of magnitude, so activation products, loss gradients and
/// squared gradients land in and around the subnormal range, where flushing
/// decides the result. Scalar and detected kernels, one and two GEMM threads
/// (layers sized past the parallel threshold, so the workers really run) all
/// end on the same bits — the flush is applied per operation by every path,
/// worker threads included.
#[test]
fn underflowing_training_is_bit_identical_across_dispatch_and_threads() {
    use surrogate_nn::{
        Adam, AdamConfig, InitScheme, Loss, Matrix, Mlp, MlpConfig, MseLoss, Optimizer,
    };

    const ROWS: usize = 16;
    let config = MlpConfig {
        layer_sizes: vec![6, 128, 512, 128],
        activation: Activation::ReLU,
        init: InitScheme::HeUniform,
        seed: 17,
    };
    let scaled = |len: usize, cols: usize, seed: u64| -> Vec<f32> {
        let (values, _) = seeded_operands(len, 0, seed);
        values
            .iter()
            .enumerate()
            .map(|(i, v)| v * 10.0f32.powi(-((i / cols) as i32) - 8))
            .collect()
    };
    let inputs = Matrix::from_vec(ROWS, 6, scaled(ROWS * 6, 6, 5));
    let targets = Matrix::from_vec(ROWS, 128, scaled(ROWS * 128, 128, 6));

    let run = |isa: KernelIsa, threads: usize| -> (Vec<u32>, Vec<u32>) {
        let mut model = Mlp::new(config.clone());
        let mut ws = model.workspace(ROWS).with_isa(isa).with_threads(threads);
        let mut optimizer = Adam::new(AdamConfig::default(), model.param_count()).with_isa(isa);
        let mut first_grads = Vec::new();
        for step in 0..6 {
            model.forward_ws(&inputs, &mut ws);
            let (pred, grad) = ws.output_and_grad_mut();
            MseLoss.evaluate_into(pred, &targets, grad);
            model.backward_ws(&mut ws);
            if step == 0 {
                first_grads = model.grads().iter().map(|g| g.to_bits()).collect();
            }
            optimizer.step_in_place(&mut model, 1e-3);
        }
        let params = model.params_flat().iter().map(|p| p.to_bits()).collect();
        (params, first_grads)
    };

    let (reference, reference_grads) = run(KernelIsa::Scalar, 1);
    // The sequence is what it claims to be: some first-step gradients sit
    // within a few orders of magnitude of the smallest normal number, so
    // their squares (and the terms summed into them) underflow.
    let smallest = reference_grads
        .iter()
        .map(|&b| f32::from_bits(b).abs())
        .filter(|&g| g > 0.0)
        .fold(f32::MAX, f32::min);
    assert!(smallest < 1.0e-30, "smallest gradient {smallest:e}");
    for (isa, threads) in [
        (KernelIsa::Scalar, 2),
        (KernelIsa::Auto, 1),
        (KernelIsa::Auto, 2),
    ] {
        let (params, grads) = run(isa, threads);
        assert!(
            grads == reference_grads,
            "{isa}, {threads} threads: gradients"
        );
        assert!(params == reference, "{isa}, {threads} threads: parameters");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The keystream kernel returns the words per-word `next_u32` returns
    /// and leaves the generator where they leave it, from any position (mid
    /// block, or in the sixteen blocks around the carry of the block counter
    /// into its high word) and for any length.
    #[test]
    fn chacha8_keystream_matches_next_u32(
        seed in any::<u64>(),
        offset in 0u64..256,
        at_carry in any::<bool>(),
        len in 0usize..700,
    ) {
        let base = if at_carry { ((1u128 << 32) - 8) * 16 } else { 0 };
        let mut oracle = ChaCha8Rng::seed_from_u64(seed);
        oracle.set_word_pos(base + u128::from(offset));
        let mut bulk = oracle.clone();
        let expected: Vec<u32> = (0..len).map(|_| oracle.next_u32()).collect();
        let mut words = vec![0u32; len];
        if simd::chacha8_keystream(vector_isa(), &mut bulk, &mut words) {
            prop_assert_eq!(words, expected);
            prop_assert_eq!(bulk.get_word_pos(), oracle.get_word_pos());
            prop_assert_eq!(bulk.next_u32(), oracle.next_u32());
        }
    }
}

/// `uniform_from_words` gives the per-draw oracle's draws bit for bit on the
/// scalar and the vector arm: on pairs whose 53-bit integer `x >> 11` sits
/// at the edges of the two-part f64 conversion (0, 1, 2³² − 1, 2³², 2⁵²,
/// 2⁵³ − 1, each with low 11 bits the shift must drop), at every length 0 to
/// 9 and lane offset (the vector arm's four-pair steps and its scalar tail),
/// and over a random sweep of 2²⁰ pairs (2¹⁴ in a debug build).
#[test]
fn uniform_from_words_matches_the_per_draw_oracle() {
    let bits = |w: &[f32]| w.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
    let he = (6.0f64 / 256.0).sqrt() as f32;
    let ranges = [
        (-f64::from(he), f64::from(he)),
        (-0.3, 1.7),
        (-1e-3, 1e-3),
        (2.5, 2.5),
        (-1e30, 1e30),
    ];
    let check = |words: &[u32], what: &str| {
        for (low, high) in ranges {
            let expected = reference::uniform_from_words(words, low, high);
            for isa in [ResolvedIsa::Scalar, vector_isa()] {
                let mut out = vec![f32::NAN; words.len() / 2];
                simd::uniform_from_words(isa, words, low, high, &mut out);
                assert_eq!(
                    bits(&out),
                    bits(&expected),
                    "{what}, [{low}, {high}], {isa:?}"
                );
            }
        }
    };
    let edges = [0, 1, (1u64 << 32) - 1, 1 << 32, 1 << 52, (1 << 53) - 1];
    let pair = |k: usize| {
        let x = edges[k % edges.len()] << 11 | [0x7FF, 0x001, 0x400, 0x2AA, 0x555][k % 5];
        [x as u32, (x >> 32) as u32]
    };
    for len in 0..=9 {
        for start in 0..edges.len() {
            let words: Vec<u32> = (start..start + len).flat_map(pair).collect();
            check(&words, &format!("edges, {len} pairs from {start}"));
        }
    }
    let pairs = if cfg!(debug_assertions) {
        1 << 14
    } else {
        1 << 20
    };
    let mut rng = ChaCha8Rng::seed_from_u64(44);
    let words: Vec<u32> = (0..2 * pairs).map(|_| rng.next_u32()).collect();
    check(&words, "random sweep");
}

/// `WeightInit::weights` draws what the per-draw loop draws, and leaves the
/// generator where it does (the second layer follows on from the first), for
/// every scheme, fan-ins 1 to 300 and odd fan-outs: layers start and end at
/// every even word of a block.
#[test]
fn bulk_weights_match_the_per_draw_loop() {
    let bits = |w: &[f32]| w.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
    for scheme in [
        InitScheme::HeUniform,
        InitScheme::XavierUniform,
        InitScheme::Zeros,
    ] {
        for fan_in in 1..=300 {
            let fan_out = 2 * (fan_in % 5) + 1;
            let mut init = WeightInit::new(scheme, fan_in as u64);
            let mut rng = ChaCha8Rng::seed_from_u64(fan_in as u64);
            for (fi, fo) in [(fan_in, fan_out), (fan_out, fan_in)] {
                let bound = match scheme {
                    InitScheme::HeUniform => (6.0 / fi as f64).sqrt() as f32,
                    InitScheme::XavierUniform => (6.0 / (fi + fo) as f64).sqrt() as f32,
                    InitScheme::Zeros => 0.0,
                };
                let dist = Uniform::new_inclusive(-bound, bound);
                let expected: Vec<f32> = (0..fi * fo)
                    .map(|_| match scheme {
                        InitScheme::Zeros => 0.0,
                        _ => dist.sample(&mut rng),
                    })
                    .collect();
                let drawn = init.weights(fi, fo);
                assert_eq!(bits(&drawn), bits(&expected), "{scheme:?} {fi}x{fo}");
            }
        }
    }
}
