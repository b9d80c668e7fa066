//! Runtime-dispatched SIMD kernels for the training hot path.
//!
//! This module is the single home of every `core::arch` intrinsic (and every
//! `unsafe` block) in the workspace. The scalar blocked kernels in
//! [`crate::kernels`] stay untouched as the always-available fallback and as
//! the reference the equivalence proptests pin against; this layer merely
//! routes each operation to the widest implementation the machine supports.
//!
//! # Dispatch
//!
//! * [`KernelIsa`] is the *configuration* knob (`auto` / `scalar`), threaded
//!   through `TrainingConfig`.
//! * [`ResolvedIsa`] is the *decision*: [`KernelIsa::resolve`] maps a request
//!   onto what the hardware actually offers, and [`detect`] caches the
//!   auto-detected answer once per process: AVX2+FMA on an x86_64 CPU that
//!   has it, scalar everywhere else. The `MELISSA_KERNEL_ISA` environment
//!   variable overrides auto-detection globally — CI uses it to re-run the
//!   whole suite on the forced-scalar path.
//! * Every AVX2 arm re-asserts `is_x86_feature_detected!` before entering the
//!   `#[target_feature]` code, so even a hand-constructed [`ResolvedIsa`]
//!   value cannot reach vector instructions the CPU does not have.
//!
//! # Numeric contracts
//!
//! **Floating-point mode.** Subnormals are flushed to zero, by contract and
//! not by the caller's choice: every training- and validation-path entry
//! point of the crate — [`crate::Mlp::forward_ws`] /
//! [`predict_ws`](crate::Mlp::predict_ws) /
//! [`backward_ws`](crate::Mlp::backward_ws), [`crate::Loss::evaluate_into`],
//! [`crate::Optimizer::update`] (hence `step` and `step_in_place`) and every
//! GEMM worker thread spawned under `gemm_threads > 1` — sets FTZ+DAZ
//! (x86_64 MXCSR) or FZ (aarch64 FPCR) on entry and puts the calling
//! thread's control word back on exit. There is no knob; [`fp_mode`] names
//! what the hardware offers. Without it, the Adam moments of parameters
//! whose gradient is exactly zero (dead ReLUs) decay into the subnormal
//! range, stick there under round-to-nearest, and every later optimizer pass
//! pays microcode assists on them. Consequences: no subnormal ever appears
//! in parameters or optimizer state; results do not depend on the
//! MXCSR/FPCR of whichever thread calls in; a checkpoint written before this
//! contract loads unchanged (weights only — a subnormal weight reads as
//! zero). The naive test oracle (`tests/support/reference.rs`: the i-k-j
//! products, the pre-activation derivative, the allocating tree-order MSE)
//! runs in the caller's mode and agrees with the kernels bit for bit
//! wherever no subnormal arises.
//!
//! **Bit-identity.** One class: every kernel here — [`gemm_nn`], [`gemm_tn`],
//! [`gemm_nt`] and all element-wise streams ([`act_derivative_mul`],
//! [`mse_fused`], [`squared_error_sum`], [`adam_update`], the normaliser ops)
//! — is bit-identical to its scalar reference. The GEMMs and the streams
//! vectorise across *independent output elements* while keeping each
//! element's reduction a single accumulator in ascending order. The one
//! reduction across elements, the MSE's `Σ diff²`, has a fixed order of its
//! own instead, the same in every arm: element `k` of the flattened batch is
//! accumulated into lane `k mod 8` in ascending `k`, the lanes are folded as
//! `(((l0+l4)+(l2+l6))+((l1+l5)+(l3+l7)))` and the serial sum of the tail
//! beyond the last full block of eight is added last — the order of
//! `heat_solver::linalg::dot`, so a batch's loss is eight short chains and
//! not one chain as long as the batch. Every kernel uses separate multiply +
//! add instructions: there is no FMA anywhere in `simd/` (a fused
//! multiply-add rounds once where the scalar reference rounds twice). The
//! results therefore match the scalar kernels bit for bit (modulo the sign of
//! exact zeros, the tolerance [`crate::kernels`] already documents).
//! Flushing is applied per operation, identically by scalar and vector
//! instructions, so through the entry points above bit-identity holds across
//! ISAs, across GEMM thread counts *and* across calling-thread FP modes.
//!
//! **Initial weights.** `Mlp::new`'s weights come from two kernels here.
//! [`chacha8_keystream`] is integer arithmetic and returns the vendored
//! generator's words exactly. [`uniform_from_words`] turns each word pair
//! into a weight with `Uniform::new_inclusive`'s f64 arithmetic: the 53-bit
//! integer converts to f64 exactly, then one multiply by 2⁻⁵³, one multiply
//! by the range, one add and one rounding to f32, the same on every arm. On
//! an ISA without the keystream kernel, `WeightInit` draws per word instead,
//! and the weights are the same bit for bit.
//!
//! Every architecture other than x86_64 runs the scalar arms. On `aarch64`
//! the flush guard still sets FPCR.FZ, so the floating-point contract above
//! holds there too.

use crate::kernels;
use crate::mlp::Activation;
use rand_chacha::ChaCha8Rng;
use serde::{Serialize, Value};
use std::sync::OnceLock;

#[cfg(target_arch = "x86_64")]
mod avx2;
mod flush;

pub use flush::fp_mode;
pub(crate) use flush::FlushGuard;

/// The configured kernel-ISA request (`TrainingConfig::kernel_isa`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum KernelIsa {
    /// Pick the widest ISA the CPU supports (the default).
    #[default]
    Auto,
    /// Force the blocked scalar reference kernels.
    Scalar,
}

impl KernelIsa {
    /// Resolves the request: `Auto` consults the cached [`detect`] decision.
    pub fn resolve(self) -> ResolvedIsa {
        match self {
            KernelIsa::Auto => detect(),
            KernelIsa::Scalar => ResolvedIsa::Scalar,
        }
    }
}

impl std::fmt::Display for KernelIsa {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let name = match self {
            KernelIsa::Auto => "auto",
            KernelIsa::Scalar => "scalar",
        };
        f.write_str(name)
    }
}

impl std::str::FromStr for KernelIsa {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s.trim().to_ascii_lowercase().as_str() {
            "auto" => Ok(KernelIsa::Auto),
            "scalar" => Ok(KernelIsa::Scalar),
            other => Err(format!(
                "unknown kernel ISA {other:?} (expected auto or scalar)"
            )),
        }
    }
}

// Serialized as its lowercase name ("auto", "scalar"), the spelling
// `MELISSA_KERNEL_ISA` accepts.
impl Serialize for KernelIsa {
    fn serialize(&self) -> Value {
        Value::Str(self.to_string())
    }
}

/// The dispatch decision every kernel call routes on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ResolvedIsa {
    /// Blocked scalar reference kernels ([`crate::kernels`]).
    Scalar,
    /// AVX2 + FMA vector kernels (x86_64).
    Avx2,
}

impl ResolvedIsa {
    /// Human-readable name recorded in reports and bench JSON.
    pub fn name(&self) -> &'static str {
        match self {
            ResolvedIsa::Scalar => "scalar",
            ResolvedIsa::Avx2 => "avx2+fma",
        }
    }
}

impl std::fmt::Display for ResolvedIsa {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

// Serialized as the same name reports and bench JSON print ("scalar",
// "avx2+fma"). Deserialization is not needed — the decision is
// derived from [`KernelIsa`] at runtime, never read back.
impl Serialize for ResolvedIsa {
    fn serialize(&self) -> Value {
        Value::Str(self.name().to_string())
    }
}

/// True when the AVX2+FMA path can run on this CPU.
#[cfg(target_arch = "x86_64")]
fn avx2_available() -> bool {
    std::arch::is_x86_feature_detected!("avx2") && std::arch::is_x86_feature_detected!("fma")
}

/// Widest ISA the running CPU offers.
fn best_available() -> ResolvedIsa {
    #[cfg(target_arch = "x86_64")]
    if avx2_available() {
        return ResolvedIsa::Avx2;
    }
    ResolvedIsa::Scalar
}

static DETECTED: OnceLock<ResolvedIsa> = OnceLock::new();

/// The process-wide auto-detection decision, resolved once. Honors the
/// `MELISSA_KERNEL_ISA` environment variable (`auto`, `scalar`) as a global
/// override so CI and tests can force the scalar path without touching every
/// call site; unknown values fall back to detection.
pub fn detect() -> ResolvedIsa {
    *DETECTED.get_or_init(|| resolve_override(std::env::var("MELISSA_KERNEL_ISA").ok().as_deref()))
}

/// What a `MELISSA_KERNEL_ISA` value resolves to: `scalar` forces the scalar
/// kernels; `auto`, any other value and no value detect.
fn resolve_override(value: Option<&str>) -> ResolvedIsa {
    match value.map(str::parse) {
        Some(Ok(KernelIsa::Scalar)) => ResolvedIsa::Scalar,
        _ => best_available(),
    }
}

/// Fused GEMM epilogue, the enum counterpart of the closure
/// [`crate::kernels::gemm_nn`] takes — an enum the vector kernels can match
/// on, where a generic closure would force them back to scalar calls.
#[derive(Clone, Copy)]
pub enum Epilogue<'a> {
    /// Store the accumulator unchanged.
    Identity,
    /// `act(acc + biases[j])` — the fused dense-layer forward epilogue.
    BiasAct {
        /// Per-output-column biases (length `n`).
        biases: &'a [f32],
        /// Activation applied after the bias add.
        activation: Activation,
    },
}

/// Work threshold under which the parallel vector paths stay serial —
/// identical to the scalar kernels' threshold so the thread split (and hence
/// bit-level behaviour of reductions split across rows) never diverges.
#[cfg(target_arch = "x86_64")]
const PAR_MIN_MADDS: usize = kernels::PAR_MIN_MADDS;

/// `C = A·B` with a fused epilogue, dispatched on `isa`. Bit-identical to
/// [`crate::kernels::gemm_nn`] for every ISA and thread count: the vector
/// path widens across output columns only, keeping each element's ascending-k
/// single-accumulator reduction and separate multiply/add rounding.
///
/// # Panics
/// Panics when slice lengths do not match the dimensions, or when a
/// [`Epilogue::BiasAct`] bias vector is not `n` long.
// analysis: hot_path
#[allow(clippy::too_many_arguments)]
pub fn gemm_nn(
    isa: ResolvedIsa,
    threads: usize,
    a: &[f32],
    m: usize,
    k: usize,
    b: &[f32],
    n: usize,
    out: &mut [f32],
    epi: Epilogue<'_>,
) {
    if let Epilogue::BiasAct { biases, .. } = epi {
        assert_eq!(biases.len(), n, "gemm_nn: bias length");
    }
    match isa {
        #[cfg(target_arch = "x86_64")]
        ResolvedIsa::Avx2 => {
            assert_eq!(a.len(), m * k, "gemm_nn: A length");
            assert_eq!(b.len(), k * n, "gemm_nn: B length");
            assert_eq!(out.len(), m * n, "gemm_nn: C length");
            assert!(
                avx2_available(),
                "ResolvedIsa::Avx2 on a CPU without AVX2+FMA"
            );
            if threads <= 1 || m < 2 || m * n * k < PAR_MIN_MADDS {
                // SAFETY: AVX2+FMA availability asserted above; slice/dimension
                // agreement asserted above.
                unsafe { avx2::gemm_nn_serial(a, m, k, b, n, out, epi) };
                return;
            }
            let rows_per = m.div_ceil(threads.max(1)).max(1);
            crossbeam::scope(|scope| {
                for (a_chunk, out_chunk) in a.chunks(rows_per * k).zip(out.chunks_mut(rows_per * n))
                {
                    scope.spawn(move |_| {
                        let _flush = FlushGuard::enter();
                        // SAFETY: AVX2+FMA availability was asserted before
                        // spawning; each chunk is a consistent row range of A
                        // and C with the dimensions recomputed from it.
                        unsafe {
                            avx2::gemm_nn_serial(
                                a_chunk,
                                a_chunk.len() / k,
                                k,
                                b,
                                n,
                                out_chunk,
                                epi,
                            )
                        };
                    });
                }
            })
            // analysis: allow(panic, reason = "re-raises a worker thread's panic; a panicking GEMM worker is a kernel bug, not a recoverable state")
            .expect("gemm_nn worker panicked");
        }
        _ => match epi {
            Epilogue::Identity => kernels::gemm_nn(threads, a, m, k, b, n, out, |_, acc| acc),
            Epilogue::BiasAct { biases, activation } => {
                kernels::gemm_nn(threads, a, m, k, b, n, out, |j, acc| {
                    activation.apply(acc + biases[j])
                })
            }
        },
    }
}

/// `C = Aᵀ·B` / `C += Aᵀ·B`, dispatched on `isa`. Bit-identical to
/// [`crate::kernels::gemm_tn`]: the vector path widens across the contiguous
/// output columns while the per-element addition order stays ascending in the
/// reduction rows.
///
/// # Panics
/// Panics when the slice lengths do not match the dimensions.
// analysis: hot_path
#[allow(clippy::too_many_arguments)]
pub fn gemm_tn(
    isa: ResolvedIsa,
    threads: usize,
    a: &[f32],
    m: usize,
    k: usize,
    b: &[f32],
    n: usize,
    out: &mut [f32],
    accumulate: bool,
) {
    match isa {
        #[cfg(target_arch = "x86_64")]
        ResolvedIsa::Avx2 => {
            assert_eq!(a.len(), m * k, "gemm_tn: A length");
            assert_eq!(b.len(), m * n, "gemm_tn: B length");
            assert_eq!(out.len(), k * n, "gemm_tn: C length");
            assert!(
                avx2_available(),
                "ResolvedIsa::Avx2 on a CPU without AVX2+FMA"
            );
            if threads <= 1 || k < 2 || m * n * k < PAR_MIN_MADDS {
                // SAFETY: AVX2+FMA availability and dimension agreement
                // asserted above.
                unsafe { avx2::gemm_tn_serial(a, m, k, 0, k, b, n, out, accumulate) };
                return;
            }
            let rows_per = k.div_ceil(threads.max(1)).max(1);
            crossbeam::scope(|scope| {
                for (chunk_idx, out_chunk) in out.chunks_mut(rows_per * n).enumerate() {
                    let i0 = chunk_idx * rows_per;
                    let i1 = i0 + out_chunk.len() / n;
                    scope.spawn(move |_| {
                        let _flush = FlushGuard::enter();
                        // SAFETY: AVX2+FMA availability was asserted before
                        // spawning; [i0, i1) is the row range this chunk of C
                        // covers.
                        unsafe {
                            avx2::gemm_tn_serial(a, m, k, i0, i1, b, n, out_chunk, accumulate)
                        };
                    });
                }
            })
            // analysis: allow(panic, reason = "re-raises a worker thread's panic; a panicking GEMM worker is a kernel bug, not a recoverable state")
            .expect("gemm_tn worker panicked");
        }
        _ => kernels::gemm_tn(threads, a, m, k, b, n, out, accumulate),
    }
}

/// `C = A·Bᵀ`, dispatched on `isa` — the backward pass's input gradient
/// `δ·Wᵀ`, read straight from W. Bit-identical to
/// [`crate::kernels::gemm_nt`]: the vector path widens across eight output
/// columns (eight rows of B, transposed in registers) while each element
/// keeps its ascending-k single-accumulator reduction.
///
/// # Panics
/// Panics when the slice lengths do not match the dimensions.
// analysis: hot_path
#[allow(clippy::too_many_arguments)]
pub fn gemm_nt(
    isa: ResolvedIsa,
    threads: usize,
    a: &[f32],
    m: usize,
    k: usize,
    b: &[f32],
    n: usize,
    out: &mut [f32],
) {
    match isa {
        #[cfg(target_arch = "x86_64")]
        ResolvedIsa::Avx2 => {
            assert_eq!(a.len(), m * k, "gemm_nt: A length");
            assert_eq!(b.len(), n * k, "gemm_nt: B length");
            assert_eq!(out.len(), m * n, "gemm_nt: C length");
            assert!(
                avx2_available(),
                "ResolvedIsa::Avx2 on a CPU without AVX2+FMA"
            );
            if threads <= 1 || m < 2 || m * n * k < PAR_MIN_MADDS {
                // SAFETY: AVX2+FMA availability and dimension agreement
                // asserted above.
                unsafe { avx2::gemm_nt_serial(a, m, k, b, n, out) };
                return;
            }
            let rows_per = m.div_ceil(threads.max(1)).max(1);
            crossbeam::scope(|scope| {
                for (a_chunk, out_chunk) in a.chunks(rows_per * k).zip(out.chunks_mut(rows_per * n))
                {
                    scope.spawn(move |_| {
                        let _flush = FlushGuard::enter();
                        // SAFETY: AVX2+FMA availability was asserted before
                        // spawning; each chunk is a consistent row range of A
                        // and C.
                        unsafe {
                            avx2::gemm_nt_serial(a_chunk, a_chunk.len() / k, k, b, n, out_chunk)
                        };
                    });
                }
            })
            // analysis: allow(panic, reason = "re-raises a worker thread's panic; a panicking GEMM worker is a kernel bug, not a recoverable state")
            .expect("gemm_nt worker panicked");
        }
        _ => kernels::gemm_nt(threads, a, m, k, b, n, out),
    }
}

/// Backward activation pass: `grad[i] *= act'(y[i])` with the derivative
/// expressed through the post-activation value
/// ([`Activation::derivative_from_output`]). Bit-identical on every ISA —
/// each lane performs the same multiply chain as the scalar loop (the ReLU
/// factor is materialised as literal `1.0`/`0.0` before the multiply, so even
/// the sign of zeroed gradients matches).
///
/// # Panics
/// Panics when the slice lengths differ.
// analysis: hot_path
pub fn act_derivative_mul(isa: ResolvedIsa, grad: &mut [f32], ys: &[f32], activation: Activation) {
    assert_eq!(grad.len(), ys.len(), "act_derivative_mul: length mismatch");
    if activation == Activation::Identity {
        return;
    }
    match isa {
        #[cfg(target_arch = "x86_64")]
        ResolvedIsa::Avx2 => {
            assert!(
                avx2_available(),
                "ResolvedIsa::Avx2 on a CPU without AVX2+FMA"
            );
            // SAFETY: AVX2 availability and equal lengths asserted above.
            unsafe { avx2::act_derivative_mul(grad, ys, activation) };
        }
        _ => {
            for (g, &y) in grad.iter_mut().zip(ys) {
                *g *= activation.derivative_from_output(y);
            }
        }
    }
}

/// Fused MSE pass: writes `grad[i] = (pred[i] − target[i]) · scale` and
/// returns `Σ diff²` in the fixed 8-lane tree order of
/// [`squared_error_sum`]. The gradient store and the sum are vectorised; the
/// order is the same on every ISA, so the loss is too.
///
/// # Panics
/// Panics when the slice lengths differ.
// analysis: hot_path
pub fn mse_fused(
    isa: ResolvedIsa,
    pred: &[f32],
    target: &[f32],
    scale: f32,
    grad: &mut [f32],
) -> f32 {
    squared_error(isa, pred, target, Some((grad, scale)))
}

/// `Σ (pred[i] − target[i])²` without a gradient store, in the MSE's fixed
/// 8-lane tree order (see "Numeric contracts" above).
///
/// # Panics
/// Panics when the slice lengths differ.
// analysis: hot_path
pub fn squared_error_sum(isa: ResolvedIsa, pred: &[f32], target: &[f32]) -> f32 {
    squared_error(isa, pred, target, None)
}

/// Lanes of the squared-error reduction tree.
const MSE_LANES: usize = 8;

/// The shared body of [`mse_fused`] and [`squared_error_sum`]: `grad`, when
/// given, receives `diff · scale`.
fn squared_error(
    isa: ResolvedIsa,
    pred: &[f32],
    target: &[f32],
    grad: Option<(&mut [f32], f32)>,
) -> f32 {
    assert_eq!(pred.len(), target.len(), "squared error: length mismatch");
    if let Some((grad, _)) = &grad {
        assert_eq!(pred.len(), grad.len(), "mse_fused: gradient length");
    }
    match isa {
        #[cfg(target_arch = "x86_64")]
        ResolvedIsa::Avx2 => {
            assert!(
                avx2_available(),
                "ResolvedIsa::Avx2 on a CPU without AVX2+FMA"
            );
            // SAFETY: AVX2 availability and equal lengths asserted above.
            unsafe { avx2::squared_error(pred, target, grad) }
        }
        _ => {
            if let Some((grad, scale)) = grad {
                for ((g, &p), &t) in grad.iter_mut().zip(pred).zip(target) {
                    *g = (p - t) * scale;
                }
            }
            let (pred_blocks, pred_tail) = pred.as_chunks::<MSE_LANES>();
            let (target_blocks, target_tail) = target.as_chunks::<MSE_LANES>();
            let mut lanes = [0.0f32; MSE_LANES];
            for (pb, tb) in pred_blocks.iter().zip(target_blocks) {
                for l in 0..MSE_LANES {
                    let diff = pb[l] - tb[l];
                    lanes[l] += diff * diff;
                }
            }
            let tail = pred_tail
                .iter()
                .zip(target_tail)
                .fold(0.0f32, |sum, (p, t)| {
                    let diff = p - t;
                    sum + diff * diff
                });
            mse_tree(lanes, tail)
        }
    }
}

/// Folds the lane sums and the tail of a squared-error reduction — the
/// halving tree an 8-wide register reduces in, as `heat_solver::linalg::dot`
/// does.
fn mse_tree([l0, l1, l2, l3, l4, l5, l6, l7]: [f32; MSE_LANES], tail: f32) -> f32 {
    (((l0 + l4) + (l2 + l6)) + ((l1 + l5) + (l3 + l7))) + tail
}

/// Loop-invariant inputs of one fused Adam update, precomputed once per step.
#[derive(Debug, Clone, Copy)]
pub struct AdamStep {
    /// First-moment decay β₁.
    pub beta1: f32,
    /// Second-moment decay β₂.
    pub beta2: f32,
    /// Bias correction `1 − β₁ᵗ`.
    pub bias1: f32,
    /// Bias correction `1 − β₂ᵗ`.
    pub bias2: f32,
    /// Learning rate.
    pub learning_rate: f32,
    /// Numerical stabiliser ε.
    pub epsilon: f32,
    /// Decoupled weight decay premultiplied by the learning rate; 0 disables.
    pub decay: f32,
}

/// One fused Adam update over a parameter slice — moment update, bias
/// correction, optional decoupled weight decay and the parameter write in a
/// single pass. Pure element-wise streaming with correctly-rounded vector
/// div/sqrt and no FMA, so every ISA reproduces the scalar op-for-op rounding
/// bit for bit.
///
/// Once `step.bias1` has rounded to exactly `1.0` (after ~165 steps at
/// β₁ = 0.9) every arm skips the division `m / bias1`. That changes no bit:
/// `x / 1.0 == x` for every m the update can hold, because m is a fresh
/// flushed mul+add result — never subnormal, never a signalling NaN. The
/// v̂ division, the square root and the final division stay.
///
/// # Panics
/// Panics when the slice lengths differ.
// analysis: hot_path
pub fn adam_update(
    isa: ResolvedIsa,
    params: &mut [f32],
    grads: &[f32],
    first: &mut [f32],
    second: &mut [f32],
    step: AdamStep,
) {
    assert_eq!(params.len(), grads.len(), "adam_update: gradient length");
    assert_eq!(
        params.len(),
        first.len(),
        "adam_update: first-moment length"
    );
    assert_eq!(
        params.len(),
        second.len(),
        "adam_update: second-moment length"
    );
    match isa {
        #[cfg(target_arch = "x86_64")]
        ResolvedIsa::Avx2 => {
            assert!(
                avx2_available(),
                "ResolvedIsa::Avx2 on a CPU without AVX2+FMA"
            );
            // SAFETY: AVX2 availability and equal lengths asserted above.
            unsafe { avx2::adam_update(params, grads, first, second, step) };
        }
        _ => adam_update_scalar(params, grads, first, second, step),
    }
}

/// Scalar reference for one Adam element — the exact op order (and hence
/// rounding sequence) every vector arm reproduces.
#[inline(always)]
pub(crate) fn adam_update_scalar(
    params: &mut [f32],
    grads: &[f32],
    first: &mut [f32],
    second: &mut [f32],
    step: AdamStep,
) {
    let AdamStep {
        beta1: b1,
        beta2: b2,
        bias1,
        bias2,
        learning_rate,
        epsilon,
        decay,
    } = step;
    let with_bias1 = bias1 != 1.0;
    for k in 0..params.len() {
        let gv = grads[k];
        first[k] = b1 * first[k] + (1.0 - b1) * gv;
        second[k] = b2 * second[k] + (1.0 - b2) * gv * gv;
        let m_hat = if with_bias1 {
            first[k] / bias1
        } else {
            first[k]
        };
        let v_hat = second[k] / bias2;
        let mut delta = -learning_rate * m_hat / (v_hat.sqrt() + epsilon);
        if decay > 0.0 {
            delta -= decay * params[k];
        }
        params[k] += delta;
    }
}

/// Affine normalisation `v = (v − min) / span` over a field (the
/// [`crate::OutputNormalizer`] hot loop). Bit-identical streaming.
pub fn affine_normalize(isa: ResolvedIsa, values: &mut [f32], min: f32, span: f32) {
    match isa {
        #[cfg(target_arch = "x86_64")]
        ResolvedIsa::Avx2 => {
            assert!(
                avx2_available(),
                "ResolvedIsa::Avx2 on a CPU without AVX2+FMA"
            );
            // SAFETY: AVX2 availability asserted above; the slice is iterated
            // in aligned-agnostic 8-lane chunks with a scalar tail.
            unsafe { avx2::affine_normalize(values, min, span) };
        }
        _ => {
            for v in values {
                *v = (*v - min) / span;
            }
        }
    }
}

/// Affine map `v = v · scale + offset` (denormalisation back to physical
/// units). Bit-identical streaming — separate multiply and add, never FMA.
pub fn affine_map(isa: ResolvedIsa, values: &mut [f32], scale: f32, offset: f32) {
    match isa {
        #[cfg(target_arch = "x86_64")]
        ResolvedIsa::Avx2 => {
            assert!(
                avx2_available(),
                "ResolvedIsa::Avx2 on a CPU without AVX2+FMA"
            );
            // SAFETY: AVX2 availability asserted above; the slice is iterated
            // in aligned-agnostic 8-lane chunks with a scalar tail.
            unsafe { avx2::affine_map(values, scale, offset) };
        }
        _ => {
            for v in values {
                *v = *v * scale + offset;
            }
        }
    }
}

/// Per-dimension normalisation `v = span[i] ≠ 0 ? (v − min[i]) / span[i] : 0`
/// (the [`crate::InputNormalizer`] parameter loop). Bit-identical: the
/// zero-span select produces literal `+0.0` on both paths.
///
/// # Panics
/// Panics when the slice lengths differ.
pub fn normalize_dims(isa: ResolvedIsa, values: &mut [f32], mins: &[f32], spans: &[f32]) {
    assert_eq!(values.len(), mins.len(), "normalize_dims: mins length");
    assert_eq!(values.len(), spans.len(), "normalize_dims: spans length");
    match isa {
        #[cfg(target_arch = "x86_64")]
        ResolvedIsa::Avx2 => {
            assert!(
                avx2_available(),
                "ResolvedIsa::Avx2 on a CPU without AVX2+FMA"
            );
            // SAFETY: AVX2 availability and equal lengths asserted above.
            unsafe { avx2::normalize_dims(values, mins, spans) };
        }
        _ => {
            for (v, (&min, &span)) in values.iter_mut().zip(mins.iter().zip(spans)) {
                *v = if span != 0.0 { (*v - min) / span } else { 0.0 };
            }
        }
    }
}

/// Maps key-stream word pairs to `f32` draws of `U[low, high]`:
/// `out[i] = (low + (x >> 11)·2⁻⁵³ · (high − low)) as f32` with
/// `x = words[2i] | words[2i + 1] << 32`, the f64 arithmetic of
/// `Uniform::<f32>::new_inclusive` on the pair `next_u64` would return. The
/// AVX2 arm converts four pairs per step; every arm rounds the same
/// operations the same way, so the draws agree bit for bit.
///
/// # Panics
/// Panics when `words` is not two words per output.
pub fn uniform_from_words(isa: ResolvedIsa, words: &[u32], low: f64, high: f64, out: &mut [f32]) {
    assert_eq!(
        words.len(),
        2 * out.len(),
        "uniform_from_words: two words per draw"
    );
    match isa {
        #[cfg(target_arch = "x86_64")]
        ResolvedIsa::Avx2 => {
            assert!(
                avx2_available(),
                "ResolvedIsa::Avx2 on a CPU without AVX2+FMA"
            );
            // SAFETY: AVX2 availability and the lengths asserted above.
            unsafe { avx2::uniform_from_words(words, low, high, out) };
        }
        _ => {
            let range = high - low;
            for (i, draw) in out.iter_mut().enumerate() {
                *draw = uniform_from_pair(words[2 * i], words[2 * i + 1], low, range);
            }
        }
    }
}

/// One draw of [`uniform_from_words`]: the scalar formula every arm matches.
#[inline(always)]
pub(crate) fn uniform_from_pair(w0: u32, w1: u32, low: f64, range: f64) -> f32 {
    let x = w0 as u64 | (w1 as u64) << 32;
    let unit = (x >> 11) as f64 * (1.0 / (1u64 << 53) as f64);
    (low + unit * range) as f32
}

/// Fills `out` with the next `out.len()` words of `rng`'s key stream and
/// advances it past them: what as many `next_u32` calls return, drawn eight
/// blocks per vector pass. Returns `false`, leaving `rng` untouched, on an
/// ISA without a keystream kernel; there the caller's per-word draws are the
/// path (and, everywhere, the oracle).
#[cfg_attr(not(target_arch = "x86_64"), allow(unused_variables))]
pub fn chacha8_keystream(isa: ResolvedIsa, rng: &mut ChaCha8Rng, out: &mut [u32]) -> bool {
    match isa {
        #[cfg(target_arch = "x86_64")]
        ResolvedIsa::Avx2 => {
            assert!(
                avx2_available(),
                "ResolvedIsa::Avx2 on a CPU without AVX2+FMA"
            );
            let seed = rng.get_seed();
            let mut pos = rng.get_word_pos();
            let mut pass = [0u32; 128];
            let mut done = 0;
            while done < out.len() {
                // SAFETY: AVX2 availability asserted above.
                unsafe { avx2::chacha8_blocks(&seed, (pos >> 4) as u64, &mut pass) };
                let skip = (pos & 15) as usize;
                let n = (128 - skip).min(out.len() - done);
                out[done..done + n].copy_from_slice(&pass[skip..skip + n]);
                done += n;
                pos = pos.wrapping_add(n as u128);
            }
            rng.set_word_pos(pos);
            true
        }
        _ => false,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn isa_names_round_trip() {
        for (name, isa) in [("auto", KernelIsa::Auto), ("scalar", KernelIsa::Scalar)] {
            assert_eq!(name.parse::<KernelIsa>().unwrap(), isa);
            assert_eq!(isa.to_string(), name);
        }
        assert_eq!(" Scalar ".parse::<KernelIsa>().unwrap(), KernelIsa::Scalar);
        assert!("sse9".parse::<KernelIsa>().is_err());
    }

    #[test]
    fn scalar_is_always_selectable() {
        assert_eq!(KernelIsa::Scalar.resolve(), ResolvedIsa::Scalar);
        assert_eq!(resolve_override(Some("scalar")), ResolvedIsa::Scalar);
    }

    #[test]
    fn unsupported_named_isa_degrades_to_scalar() {
        // Detection picks AVX2 only where the CPU runs it; every other host,
        // aarch64 included, runs the scalar kernels.
        #[cfg(target_arch = "x86_64")]
        let vector = avx2_available();
        #[cfg(not(target_arch = "x86_64"))]
        let vector = false;
        let expected = if vector {
            ResolvedIsa::Avx2
        } else {
            ResolvedIsa::Scalar
        };
        assert_eq!(best_available(), expected);
        // ISA names are not requests: as an override they detect like `auto`.
        for name in ["avx2", "avx2+fma"] {
            assert!(name.parse::<KernelIsa>().is_err(), "{name}");
            assert_eq!(resolve_override(Some(name)), best_available(), "{name}");
        }
    }

    #[test]
    fn auto_resolves_to_the_detected_isa() {
        assert_eq!(KernelIsa::Auto.resolve(), detect());
        assert_eq!(resolve_override(Some("auto")), best_available());
        assert_eq!(resolve_override(None), best_available());
    }

    /// CI re-runs the suite with `MELISSA_KERNEL_ISA=scalar`; a misspelt
    /// value would quietly re-test the detected ISA, so the override must be
    /// an accepted name and must be what the kernels route on.
    #[test]
    fn kernel_isa_override_names_the_dispatched_isa() {
        let Ok(name) = std::env::var("MELISSA_KERNEL_ISA") else {
            return;
        };
        let request: KernelIsa = name
            .parse()
            .unwrap_or_else(|err| panic!("MELISSA_KERNEL_ISA: {err}"));
        let expected = match request {
            KernelIsa::Auto => best_available(),
            KernelIsa::Scalar => ResolvedIsa::Scalar,
        };
        assert_eq!(detect(), expected, "MELISSA_KERNEL_ISA={name}");
    }

    #[test]
    fn kernel_isa_serde_uses_lowercase_names() {
        assert_eq!(serde_json::to_string(&KernelIsa::Auto).unwrap(), "\"auto\"");
        assert_eq!(
            serde_json::to_string(&KernelIsa::Scalar).unwrap(),
            "\"scalar\""
        );
    }
}
