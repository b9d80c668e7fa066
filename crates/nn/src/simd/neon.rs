//! NEON (aarch64) element-wise streams. NEON is a baseline feature of
//! aarch64, so these functions need no runtime detection; the dispatch layer
//! still only routes here when [`super::ResolvedIsa::Neon`] was resolved.
//!
//! The same numeric discipline as the AVX2 arm applies: separate
//! `vmulq`/`vaddq` (never the fused `vfmaq`), correctly-rounded
//! `vdivq`/`vsqrtq`, per-element op order identical to the scalar reference —
//! every function here is bit-identical to its scalar counterpart. The fused
//! MSE and the GEMM family have no NEON arm: aarch64 runs their scalar
//! kernels (explicit micro-kernels are a ROADMAP follow-up), which keeps
//! this file small enough to audit without aarch64 hardware in CI.

use super::AdamStep;
use crate::mlp::Activation;
use core::arch::aarch64::*;

/// 4 f32 lanes per 128-bit q register.
const LANES: usize = 4;

/// `grad[i] *= act'(y[i])` — see [`super::act_derivative_mul`].
pub(super) fn act_derivative_mul(grad: &mut [f32], ys: &[f32], activation: Activation) {
    debug_assert_eq!(grad.len(), ys.len());
    let n = grad.len();
    let mut idx = 0;
    while idx + LANES <= n {
        // SAFETY: idx + 4 <= n and the slices have equal length; unaligned
        // load/store.
        unsafe {
            let g = vld1q_f32(grad.as_ptr().add(idx));
            let y = vld1q_f32(ys.as_ptr().add(idx));
            let ones = vdupq_n_f32(1.0);
            let d = match activation {
                // (y > 0) ? 1.0 : 0.0 — materialised before the multiply so
                // the sign of zeroed gradients matches `g * 0.0`.
                Activation::ReLU => vreinterpretq_f32_u32(vandq_u32(
                    vcgtq_f32(y, vdupq_n_f32(0.0)),
                    vreinterpretq_u32_f32(ones),
                )),
                // 1 − y²
                Activation::Tanh => vsubq_f32(ones, vmulq_f32(y, y)),
                // y · (1 − y)
                Activation::Sigmoid => vmulq_f32(y, vsubq_f32(ones, y)),
                Activation::Identity => ones,
            };
            vst1q_f32(grad.as_mut_ptr().add(idx), vmulq_f32(g, d));
        }
        idx += LANES;
    }
    while idx < n {
        grad[idx] *= activation.derivative_from_output(ys[idx]);
        idx += 1;
    }
}

/// Fused Adam update — op-for-op the scalar sequence
/// (see [`super::adam_update`]).
pub(super) fn adam_update(
    params: &mut [f32],
    grads: &[f32],
    first: &mut [f32],
    second: &mut [f32],
    step: AdamStep,
) {
    debug_assert_eq!(params.len(), grads.len());
    debug_assert_eq!(params.len(), first.len());
    debug_assert_eq!(params.len(), second.len());
    let n = params.len();
    let with_decay = step.decay > 0.0;
    let with_bias1 = step.bias1 != 1.0;
    let mut idx = 0;
    while idx + LANES <= n {
        // SAFETY (this block): idx + 4 <= n and all four slices have equal
        // length; unaligned loads/stores throughout.
        unsafe {
            let gv = vld1q_f32(grads.as_ptr().add(idx));
            let mut mv = vld1q_f32(first.as_ptr().add(idx));
            let mut vv = vld1q_f32(second.as_ptr().add(idx));
            // m = β₁·m + (1−β₁)·g        (mul, mul, add — scalar order)
            mv = vaddq_f32(
                vmulq_f32(vdupq_n_f32(step.beta1), mv),
                vmulq_f32(vdupq_n_f32(1.0 - step.beta1), gv),
            );
            // v = β₂·v + ((1−β₂)·g)·g    (left-associated like the scalar code)
            vv = vaddq_f32(
                vmulq_f32(vdupq_n_f32(step.beta2), vv),
                vmulq_f32(vmulq_f32(vdupq_n_f32(1.0 - step.beta2), gv), gv),
            );
            vst1q_f32(first.as_mut_ptr().add(idx), mv);
            vst1q_f32(second.as_mut_ptr().add(idx), vv);
            let m_hat = if with_bias1 {
                vdivq_f32(mv, vdupq_n_f32(step.bias1))
            } else {
                mv
            };
            let v_hat = vdivq_f32(vv, vdupq_n_f32(step.bias2));
            // δ = (−lr · m̂) / (√v̂ + ε)
            let mut delta = vdivq_f32(
                vmulq_f32(vdupq_n_f32(-step.learning_rate), m_hat),
                vaddq_f32(vsqrtq_f32(v_hat), vdupq_n_f32(step.epsilon)),
            );
            let pv = vld1q_f32(params.as_ptr().add(idx));
            if with_decay {
                delta = vsubq_f32(delta, vmulq_f32(vdupq_n_f32(step.decay), pv));
            }
            vst1q_f32(params.as_mut_ptr().add(idx), vaddq_f32(pv, delta));
        }
        idx += LANES;
    }
    let tail = idx;
    super::adam_update_scalar(
        &mut params[tail..],
        &grads[tail..],
        &mut first[tail..],
        &mut second[tail..],
        step,
    );
}

/// `v = (v − min) / span`.
pub(super) fn affine_normalize(values: &mut [f32], min: f32, span: f32) {
    let n = values.len();
    let mut idx = 0;
    while idx + LANES <= n {
        // SAFETY: idx + 4 <= n; unaligned load/store.
        unsafe {
            let v = vld1q_f32(values.as_ptr().add(idx));
            let r = vdivq_f32(vsubq_f32(v, vdupq_n_f32(min)), vdupq_n_f32(span));
            vst1q_f32(values.as_mut_ptr().add(idx), r);
        }
        idx += LANES;
    }
    while idx < n {
        values[idx] = (values[idx] - min) / span;
        idx += 1;
    }
}

/// `v = v·scale + offset` (separate mul and add, never FMA).
pub(super) fn affine_map(values: &mut [f32], scale: f32, offset: f32) {
    let n = values.len();
    let mut idx = 0;
    while idx + LANES <= n {
        // SAFETY: idx + 4 <= n; unaligned load/store.
        unsafe {
            let v = vld1q_f32(values.as_ptr().add(idx));
            let r = vaddq_f32(vmulq_f32(v, vdupq_n_f32(scale)), vdupq_n_f32(offset));
            vst1q_f32(values.as_mut_ptr().add(idx), r);
        }
        idx += LANES;
    }
    while idx < n {
        values[idx] = values[idx] * scale + offset;
        idx += 1;
    }
}
