//! AVX2(+FMA) kernels. Only reachable through the dispatch layer in
//! [`super`], which asserts `is_x86_feature_detected!("avx2")` /
//! `("fma")` before every entry — the `#[target_feature]` functions here are
//! never called on a CPU that lacks the instructions.
//!
//! Numeric discipline: every kernel is bit-identical to its scalar reference,
//! which means **no FMA anywhere** — a fused multiply-add rounds once where
//! the scalar code rounds twice, so the kernels use separate
//! `_mm256_mul_ps`/`_mm256_add_ps` (and div/sqrt, which IEEE 754 requires to
//! be correctly rounded, hence identical to their scalar counterparts).
//! Vector widening always runs across *independent output elements*;
//! reductions keep one accumulator per element in the scalar order — also in
//! [`gemm_nt_serial`], whose reduction runs along the contiguous dimension of
//! both operands: it transposes 8×4 tiles of B in registers so its lanes are
//! still eight output columns.

use super::{AdamStep, Epilogue};
use crate::mlp::Activation;
use core::arch::x86_64::*;

/// 8 f32 lanes per __m256 — equal to the scalar kernels' column tile
/// [`crate::kernels::NR`], so an accumulator row is exactly one register.
const LANES: usize = 8;

/// Row-block cap of the adaptive GEMM micro-kernels. The training GEMMs are
/// *skinny* — one dimension is the batch size (~10) — and at paper-scale
/// layer widths they are bandwidth-bound: every extra row pass re-streams a
/// multi-megabyte operand. Blocking up to 10 rows keeps a whole default
/// batch in registers (10 accumulators + a B vector + a broadcast = 12 of
/// the 16 ymm registers) so the large matrix is streamed exactly once.
const RMAX: usize = 10;

/// Dispatches a row block of `r ∈ [1, RMAX]` rows onto the matching
/// const-generic micro-kernel instantiation (further const arguments, if
/// any, are passed through after the row count).
macro_rules! row_block {
    ($r:expr, $kernel:ident :: <_ $(, $c:tt)*> ( $($arg:expr),* $(,)? )) => {
        match $r {
            1 => $kernel::<1 $(, $c)*>($($arg),*),
            2 => $kernel::<2 $(, $c)*>($($arg),*),
            3 => $kernel::<3 $(, $c)*>($($arg),*),
            4 => $kernel::<4 $(, $c)*>($($arg),*),
            5 => $kernel::<5 $(, $c)*>($($arg),*),
            6 => $kernel::<6 $(, $c)*>($($arg),*),
            7 => $kernel::<7 $(, $c)*>($($arg),*),
            8 => $kernel::<8 $(, $c)*>($($arg),*),
            9 => $kernel::<9 $(, $c)*>($($arg),*),
            // `r = min(remaining, RMAX)` never exceeds RMAX = 10.
            _ => $kernel::<RMAX $(, $c)*>($($arg),*),
        }
    };
}

/// `C = A·B` with fused epilogue; serial core (row-parallelism happens in the
/// dispatch layer). Bit-identical to the scalar blocked kernel.
#[target_feature(enable = "avx2", enable = "fma")]
pub(super) fn gemm_nn_serial(
    a: &[f32],
    m: usize,
    k: usize,
    b: &[f32],
    n: usize,
    out: &mut [f32],
    epi: Epilogue<'_>,
) {
    debug_assert_eq!(a.len(), m * k);
    debug_assert_eq!(b.len(), k * n);
    debug_assert_eq!(out.len(), m * n);
    let mut j = 0;
    while j + LANES <= n {
        let mut i = 0;
        while i < m {
            let r = (m - i).min(RMAX);
            row_block!(r, micro_rx8::<_>(a, i, k, b, j, n, out, &epi));
            i += r;
        }
        j += LANES;
    }
    if j < n {
        // Vectorised masked column tail — the trailing `n % 8` columns run
        // through the same micro-kernel with inactive lanes masked off, so
        // ragged widths never fall back to a scalar re-stream of A.
        let nb = n - j;
        let mask = tail_mask(nb);
        let mut i = 0;
        while i < m {
            let r = (m - i).min(RMAX);
            row_block!(r, micro_rx8_masked::<_>(a, i, k, b, j, n, mask, out, &epi));
            i += r;
        }
    }
}

/// R×8 micro-kernel: R __m256 accumulators (one per output row) stay in
/// registers for the whole reduction, and the `k×8` panel of B is streamed
/// once for all R rows. Lanes are independent output columns, so each
/// element keeps its scalar ascending-k single-accumulator order; mul + add
/// (not FMA) preserves the scalar double rounding.
#[inline]
#[target_feature(enable = "avx2", enable = "fma")]
#[allow(clippy::too_many_arguments)]
fn micro_rx8<const R: usize>(
    a: &[f32],
    i: usize,
    k: usize,
    b: &[f32],
    j: usize,
    n: usize,
    out: &mut [f32],
    epi: &Epilogue<'_>,
) {
    let mut acc = [_mm256_setzero_ps(); R];
    // Pre-sliced A rows: inside the reduction every `rows[rr][l]` access is
    // bounds-elided by `l < k == rows[rr].len()`.
    let mut rows: [&[f32]; R] = [&a[..0]; R];
    for (rr, row) in rows.iter_mut().enumerate() {
        *row = &a[(i + rr) * k..(i + rr + 1) * k];
    }
    let mut bp = b[j..].as_ptr();
    let pf_limit = k.saturating_sub(PF_DIST);
    // `l` indexes the inner row slices (`rows[rr][l]`), not `rows` itself —
    // the iterator rewrite clippy wants does not apply.
    #[allow(clippy::needless_range_loop)]
    for l in 0..k {
        // SAFETY: bp = &b[l*n + j] and l < k, j + LANES <= n (loop bounds in
        // the caller), so the 8 loaded floats are in bounds; unaligned load.
        let bv = unsafe { _mm256_loadu_ps(bp) };
        if l < pf_limit {
            // The B panel walk strides n·4 bytes per iteration — far past
            // what the hardware stride prefetcher tracks — so fetch the line
            // PF_DIST rows ahead explicitly.
            // SAFETY: prefetch of &b[(l + PF_DIST)*n + j], in bounds by the
            // pf_limit guard (and prefetch cannot fault regardless).
            unsafe { _mm_prefetch::<_MM_HINT_T0>(bp.add(PF_DIST * n) as *const i8) };
        }
        for (rr, c) in acc.iter_mut().enumerate() {
            *c = _mm256_add_ps(*c, _mm256_mul_ps(_mm256_set1_ps(rows[rr][l]), bv));
        }
        // SAFETY: advances to &b[(l+1)*n + j]; only dereferenced while
        // l + 1 < k keeps it in bounds (loop exit leaves it dangling unused).
        bp = unsafe { bp.add(n) };
    }
    for (rr, c) in acc.into_iter().enumerate() {
        let orow = &mut out[(i + rr) * n + j..(i + rr) * n + j + LANES];
        store_epilogue8(epi, j, c, orow);
    }
}

/// Prefetch distance (in B rows) of the [`micro_rx8`] panel walk.
const PF_DIST: usize = 16;

/// Masked-tail variant of [`micro_rx8`] for the trailing `n % 8` columns:
/// same accumulator layout and per-element order, but B/bias loads and the C
/// store only touch the `n − j` live lanes via AVX2 masked moves.
#[inline]
#[target_feature(enable = "avx2", enable = "fma")]
#[allow(clippy::too_many_arguments)]
fn micro_rx8_masked<const R: usize>(
    a: &[f32],
    i: usize,
    k: usize,
    b: &[f32],
    j: usize,
    n: usize,
    mask: __m256i,
    out: &mut [f32],
    epi: &Epilogue<'_>,
) {
    let mut acc = [_mm256_setzero_ps(); R];
    // Pre-sliced A rows, as in [`micro_rx8`], so the reduction loads are
    // bounds-elided.
    let mut rows: [&[f32]; R] = [&a[..0]; R];
    for (rr, row) in rows.iter_mut().enumerate() {
        *row = &a[(i + rr) * k..(i + rr + 1) * k];
    }
    let mut bp = b[j..].as_ptr();
    // `l` indexes the inner row slices, as in `micro_rx8`.
    #[allow(clippy::needless_range_loop)]
    for l in 0..k {
        // SAFETY: bp = &b[l*n + j]; the mask covers exactly the n − j < 8
        // trailing columns, so the masked load touches only
        // b[l*n + j .. l*n + n] — masked-off lanes are never accessed and
        // read as zero.
        let bv = unsafe { _mm256_maskload_ps(bp, mask) };
        for (rr, c) in acc.iter_mut().enumerate() {
            *c = _mm256_add_ps(*c, _mm256_mul_ps(_mm256_set1_ps(rows[rr][l]), bv));
        }
        // SAFETY: advances to &b[(l+1)*n + j]; only dereferenced while
        // l + 1 < k keeps it in bounds (loop exit leaves it dangling unused).
        bp = unsafe { bp.add(n) };
    }
    for (rr, c) in acc.into_iter().enumerate() {
        let orow = &mut out[(i + rr) * n + j..(i + rr) * n + n];
        store_epilogue_masked(epi, j, mask, c, orow);
    }
}

/// Lane mask with the first `nb` (1..=7) lanes live.
#[inline]
#[target_feature(enable = "avx2")]
fn tail_mask(nb: usize) -> __m256i {
    debug_assert!((1..LANES).contains(&nb));
    let mut lanes = [0i32; LANES];
    for lane in lanes.iter_mut().take(nb) {
        *lane = -1;
    }
    // SAFETY: lanes is exactly 8 i32 = 32 bytes; unaligned load.
    unsafe { _mm256_loadu_si256(lanes.as_ptr() as *const __m256i) }
}

/// Applies the fused epilogue to one 8-wide accumulator and stores it.
/// Bias-add and ReLU run vectorised (`max_ps` against +0.0 matches scalar
/// `f32::max(0.0)` on every input, NaN included); transcendental activations
/// store the pre-activation and apply `Activation::apply` scalar per lane —
/// the stored f32 equals the scalar epilogue's register value, so feeding it
/// to the same `tanh`/`exp` code is bit-identical.
#[inline]
#[target_feature(enable = "avx2", enable = "fma")]
fn store_epilogue8(epi: &Epilogue<'_>, j: usize, acc: __m256, orow: &mut [f32]) {
    debug_assert_eq!(orow.len(), LANES);
    match epi {
        Epilogue::Identity => {
            // SAFETY: orow is exactly 8 elements (asserted above); unaligned store.
            unsafe { _mm256_storeu_ps(orow.as_mut_ptr(), acc) };
        }
        Epilogue::BiasAct { biases, activation } => {
            // SAFETY: the dispatch layer asserted biases.len() == n and the
            // caller guarantees j + 8 <= n; unaligned load.
            let bv = unsafe { _mm256_loadu_ps(biases.as_ptr().add(j)) };
            let pre = _mm256_add_ps(acc, bv);
            match activation {
                Activation::Identity => {
                    // SAFETY: orow is exactly 8 elements; unaligned store.
                    unsafe { _mm256_storeu_ps(orow.as_mut_ptr(), pre) };
                }
                Activation::ReLU => {
                    let relu = _mm256_max_ps(pre, _mm256_setzero_ps());
                    // SAFETY: orow is exactly 8 elements; unaligned store.
                    unsafe { _mm256_storeu_ps(orow.as_mut_ptr(), relu) };
                }
                Activation::Tanh | Activation::Sigmoid => {
                    // SAFETY: orow is exactly 8 elements; unaligned store.
                    unsafe { _mm256_storeu_ps(orow.as_mut_ptr(), pre) };
                    for o in orow.iter_mut() {
                        *o = activation.apply(*o);
                    }
                }
            }
        }
    }
}

/// Masked-tail counterpart of [`store_epilogue8`]: bias loads and the C
/// store touch only the live lanes, and the transcendental epilogue applies
/// [`Activation::apply`] to exactly the stored (live) elements, so the tail
/// columns match the scalar epilogue bit for bit.
#[inline]
#[target_feature(enable = "avx2", enable = "fma")]
fn store_epilogue_masked(
    epi: &Epilogue<'_>,
    j: usize,
    mask: __m256i,
    acc: __m256,
    orow: &mut [f32],
) {
    debug_assert!(!orow.is_empty() && orow.len() < LANES);
    match epi {
        Epilogue::Identity => {
            // SAFETY: the mask covers exactly orow.len() live lanes, so the
            // masked store writes only the in-bounds tail elements.
            unsafe { _mm256_maskstore_ps(orow.as_mut_ptr(), mask, acc) };
        }
        Epilogue::BiasAct { biases, activation } => {
            // SAFETY: the dispatch layer asserted biases.len() == n and the
            // mask covers exactly the n − j live lanes; masked-off lanes are
            // never accessed.
            let bv = unsafe { _mm256_maskload_ps(biases.as_ptr().add(j), mask) };
            let pre = _mm256_add_ps(acc, bv);
            match activation {
                Activation::Identity => {
                    // SAFETY: masked store, live lanes only (see above).
                    unsafe { _mm256_maskstore_ps(orow.as_mut_ptr(), mask, pre) };
                }
                Activation::ReLU => {
                    let relu = _mm256_max_ps(pre, _mm256_setzero_ps());
                    // SAFETY: masked store, live lanes only (see above).
                    unsafe { _mm256_maskstore_ps(orow.as_mut_ptr(), mask, relu) };
                }
                Activation::Tanh | Activation::Sigmoid => {
                    // SAFETY: masked store, live lanes only (see above).
                    unsafe { _mm256_maskstore_ps(orow.as_mut_ptr(), mask, pre) };
                    for o in orow.iter_mut() {
                        *o = activation.apply(*o);
                    }
                }
            }
        }
    }
}

/// `C = Aᵀ·B` / `C += Aᵀ·B` over output rows `[i0, i1)`; vectorised across
/// the contiguous output columns. Reduction rows run in blocks of up to
/// [`RMAX`] so a whole default batch folds into C in one pass — overwrite
/// mode writes each output element exactly once with no read-modify-write
/// traffic. Per element the addition order is the scalar kernel's
/// ascending-r sequence (one mul/add pair per row), and f32 round-trips
/// through memory between blocks are exact, so results are bit-identical.
#[target_feature(enable = "avx2", enable = "fma")]
#[allow(clippy::too_many_arguments)]
pub(super) fn gemm_tn_serial(
    a: &[f32],
    m: usize,
    k: usize,
    i0: usize,
    i1: usize,
    b: &[f32],
    n: usize,
    out: &mut [f32],
    accumulate: bool,
) {
    // No reduction rows: overwrite mode must still produce the empty sum.
    if m == 0 {
        if !accumulate {
            out.iter_mut().for_each(|c| *c = 0.0);
        }
        return;
    }
    let mut first_block = !accumulate;
    let mut r = 0;
    while r < m {
        let rb = (m - r).min(RMAX);
        row_block!(
            rb,
            tn_rows_block::<_>(a, k, r, i0, i1, b, n, out, first_block)
        );
        first_block = false;
        r += rb;
    }
}

/// One block of R reduction rows of [`gemm_tn_serial`]: broadcasts the R
/// A-column values per output row once, then sweeps the R rows of B with a
/// single accumulator register per 8-column group.
#[inline]
#[target_feature(enable = "avx2", enable = "fma")]
#[allow(clippy::too_many_arguments)]
fn tn_rows_block<const R: usize>(
    a: &[f32],
    k: usize,
    r0: usize,
    i0: usize,
    i1: usize,
    b: &[f32],
    n: usize,
    out: &mut [f32],
    first_block: bool,
) {
    // Column tiling: every output row re-reads the same R rows of B, so the
    // sweep is tiled to keep the active B panel (R × TN_TILE × 4 bytes ≤
    // 20 KiB at R = 10) L1-resident across all i1 − i0 output rows. The tile
    // width is a multiple of LANES, so only the last tile can have a ragged
    // scalar tail. Per output element nothing changes — the j ranges are
    // disjoint — so the tiling is numerically invisible.
    const TN_TILE: usize = 512;
    let mut j0 = 0;
    while j0 < n {
        let j1 = (j0 + TN_TILE).min(n);
        for i in i0..i1 {
            let mut scalars = [0.0f32; R];
            let mut broadcasts = [_mm256_setzero_ps(); R];
            for rr in 0..R {
                let s = a[(r0 + rr) * k + i];
                scalars[rr] = s;
                broadcasts[rr] = _mm256_set1_ps(s);
            }
            // Per-row B base pointers: inside the sweep every load is one
            // indexed addressing mode off bps[rr] with no multiplies.
            let mut bps: [*const f32; R] = [b.as_ptr(); R];
            for (rr, bp) in bps.iter_mut().enumerate() {
                // SAFETY: row r0 + rr < m of B starts at (r0 + rr) * n; only
                // offsets j < n are ever added before dereferencing.
                *bp = unsafe { b.as_ptr().add((r0 + rr) * n) };
            }
            let crow = &mut out[(i - i0) * n..(i - i0 + 1) * n];
            let mut j = j0;
            while j + LANES <= j1 {
                let mut v = if first_block {
                    _mm256_setzero_ps()
                } else {
                    // SAFETY: j + 8 <= j1 <= n == crow.len(); unaligned load.
                    unsafe { _mm256_loadu_ps(crow.as_ptr().add(j)) }
                };
                for (rr, &av) in broadcasts.iter().enumerate() {
                    // SAFETY: j + 8 <= n and bps[rr] points at a B row of
                    // exactly n elements; unaligned load.
                    let bv = unsafe { _mm256_loadu_ps(bps[rr].add(j)) };
                    v = _mm256_add_ps(v, _mm256_mul_ps(av, bv));
                }
                // SAFETY: j + 8 <= crow.len(); unaligned store.
                unsafe { _mm256_storeu_ps(crow.as_mut_ptr().add(j), v) };
                j += LANES;
            }
            while j < j1 {
                let mut v = if first_block { 0.0 } else { crow[j] };
                for (rr, &sv) in scalars.iter().enumerate() {
                    v += sv * b[(r0 + rr) * n + j];
                }
                crow[j] = v;
                j += 1;
            }
        }
        j0 = j1;
    }
}

/// `C = A·Bᵀ`; serial core (row-parallelism happens in the dispatch layer).
/// Bit-identical to the scalar v1 kernel: the lanes are eight output columns
/// (eight rows of B), each with one accumulator summed in ascending k, mul
/// then add. The panel of B rows is the outer loop, so a batch larger than
/// [`RMAX`] re-reads it from cache, not from memory; the trailing `n % 8`
/// columns run through the same kernel with the missing B rows read as
/// zeros and a masked store.
#[target_feature(enable = "avx2", enable = "fma")]
pub(super) fn gemm_nt_serial(a: &[f32], m: usize, k: usize, b: &[f32], n: usize, out: &mut [f32]) {
    debug_assert_eq!(a.len(), m * k);
    debug_assert_eq!(b.len(), n * k);
    debug_assert_eq!(out.len(), m * n);
    let mut j = 0;
    while j < n {
        let nb = (n - j).min(LANES);
        let mut i = 0;
        while i < m {
            let r = (m - i).min(RMAX);
            if nb == LANES {
                row_block!(r, nt_block::<_, true>(a, i, k, b, j, nb, n, out));
            } else {
                row_block!(r, nt_block::<_, false>(a, i, k, b, j, nb, n, out));
            }
            i += r;
        }
        j += nb;
    }
}

/// One R-row block of [`gemm_nt_serial`] over output columns `j..j + nb`
/// (`FULL` ⇔ `nb == 8`). Each step loads the next four k-values of the eight
/// B rows as `__m128`, transposes them in registers into four column vectors
/// (lane c holds `B[j + c][l]`) and folds them into the R accumulators
/// against broadcasts of A — 10 accumulators + 4 columns + 1 broadcast = 15
/// of the 16 ymm registers at R = 10. The `k % 4` tail builds its column
/// directly.
#[inline]
#[target_feature(enable = "avx2", enable = "fma")]
#[allow(clippy::too_many_arguments)]
fn nt_block<const R: usize, const FULL: bool>(
    a: &[f32],
    i: usize,
    k: usize,
    b: &[f32],
    j: usize,
    nb: usize,
    n: usize,
    out: &mut [f32],
) {
    debug_assert_eq!(FULL, nb == LANES);
    let mut acc = [_mm256_setzero_ps(); R];
    let mut rows: [&[f32]; R] = [&a[..0]; R];
    for (rr, row) in rows.iter_mut().enumerate() {
        *row = &a[(i + rr) * k..(i + rr + 1) * k];
    }
    // The live B rows; a tail panel's rows past `nb` stay empty and read as
    // zero vectors.
    let mut brows: [&[f32]; LANES] = [&b[..0]; LANES];
    for (c, row) in brows.iter_mut().enumerate().take(nb) {
        *row = &b[(j + c) * k..(j + c + 1) * k];
    }
    let mut l = 0;
    while l + 4 <= k {
        let mut q = [_mm_setzero_ps(); LANES];
        for (c, v) in q.iter_mut().enumerate() {
            if FULL || c < nb {
                // SAFETY: row c is live, so brows[c] is exactly k elements
                // and l + 4 <= k; unaligned load.
                *v = unsafe { _mm_loadu_ps(brows[c].as_ptr().add(l)) };
            }
        }
        // 8×4 → 4×8: rows c and c + 4 share a register (low and high half),
        // then each half runs a 4×4 unpack/shuffle transpose.
        let x0 = _mm256_set_m128(q[4], q[0]);
        let x1 = _mm256_set_m128(q[5], q[1]);
        let x2 = _mm256_set_m128(q[6], q[2]);
        let x3 = _mm256_set_m128(q[7], q[3]);
        let t0 = _mm256_unpacklo_ps(x0, x1);
        let t1 = _mm256_unpackhi_ps(x0, x1);
        let t2 = _mm256_unpacklo_ps(x2, x3);
        let t3 = _mm256_unpackhi_ps(x2, x3);
        let cols = [
            _mm256_shuffle_ps::<0x44>(t0, t2),
            _mm256_shuffle_ps::<0xEE>(t0, t2),
            _mm256_shuffle_ps::<0x44>(t1, t3),
            _mm256_shuffle_ps::<0xEE>(t1, t3),
        ];
        for (dl, col) in cols.into_iter().enumerate() {
            for (rr, c) in acc.iter_mut().enumerate() {
                *c = _mm256_add_ps(*c, _mm256_mul_ps(_mm256_set1_ps(rows[rr][l + dl]), col));
            }
        }
        l += 4;
    }
    while l < k {
        let mut lanes = [0.0f32; LANES];
        for (v, row) in lanes.iter_mut().zip(&brows).take(nb) {
            *v = row[l];
        }
        // SAFETY: lanes is exactly 8 elements; unaligned load.
        let col = unsafe { _mm256_loadu_ps(lanes.as_ptr()) };
        for (rr, c) in acc.iter_mut().enumerate() {
            *c = _mm256_add_ps(*c, _mm256_mul_ps(_mm256_set1_ps(rows[rr][l]), col));
        }
        l += 1;
    }
    for (rr, c) in acc.into_iter().enumerate() {
        let orow = &mut out[(i + rr) * n + j..(i + rr) * n + j + nb];
        if FULL {
            // SAFETY: orow is exactly 8 elements; unaligned store.
            unsafe { _mm256_storeu_ps(orow.as_mut_ptr(), c) };
        } else {
            // SAFETY: the mask covers exactly the nb = orow.len() live lanes,
            // so the masked store writes only in-bounds elements.
            unsafe { _mm256_maskstore_ps(orow.as_mut_ptr(), tail_mask(nb), c) };
        }
    }
}

/// `grad[i] *= act'(y[i])`. The ReLU factor is materialised as literal
/// 1.0/0.0 (mask AND ones) *before* the multiply, matching the scalar
/// `g * 1.0` / `g * 0.0` including the sign of zeroed gradients.
#[target_feature(enable = "avx2")]
pub(super) fn act_derivative_mul(grad: &mut [f32], ys: &[f32], activation: Activation) {
    debug_assert_eq!(grad.len(), ys.len());
    let ones = _mm256_set1_ps(1.0);
    let zero = _mm256_setzero_ps();
    let n = grad.len();
    let mut idx = 0;
    while idx + LANES <= n {
        // SAFETY: idx + 8 <= n and the slices have equal length; unaligned
        // load/store on both.
        let g = unsafe { _mm256_loadu_ps(grad.as_ptr().add(idx)) };
        let y = unsafe { _mm256_loadu_ps(ys.as_ptr().add(idx)) };
        let d = match activation {
            // (y > 0) ? 1.0 : 0.0
            Activation::ReLU => _mm256_and_ps(_mm256_cmp_ps::<_CMP_GT_OQ>(y, zero), ones),
            // 1 − y²
            Activation::Tanh => _mm256_sub_ps(ones, _mm256_mul_ps(y, y)),
            // y · (1 − y)
            Activation::Sigmoid => _mm256_mul_ps(y, _mm256_sub_ps(ones, y)),
            Activation::Identity => ones,
        };
        // SAFETY: idx + 8 <= grad.len(); unaligned store.
        unsafe { _mm256_storeu_ps(grad.as_mut_ptr().add(idx), _mm256_mul_ps(g, d)) };
        idx += LANES;
    }
    while idx < n {
        grad[idx] *= activation.derivative_from_output(ys[idx]);
        idx += 1;
    }
}

/// Squared-error sum with an optional fused gradient store — see
/// [`super::squared_error_sum`]. One register holds the eight lane sums, so
/// element `k` lands in lane `k mod 8` as the scalar arm's array does, and
/// the lanes, the tail and their fold are the scalar arm's bit for bit.
#[target_feature(enable = "avx2")]
pub(super) fn squared_error(
    pred: &[f32],
    target: &[f32],
    mut grad: Option<(&mut [f32], f32)>,
) -> f32 {
    debug_assert_eq!(pred.len(), target.len());
    debug_assert!(grad
        .as_ref()
        .is_none_or(|(grad, _)| grad.len() == pred.len()));
    let scale_v = _mm256_set1_ps(grad.as_ref().map_or(0.0, |&(_, scale)| scale));
    let n = pred.len();
    let mut acc = _mm256_setzero_ps();
    let mut idx = 0;
    while idx + LANES <= n {
        // SAFETY: idx + 8 <= n and the slices have equal length; unaligned
        // loads.
        let p = unsafe { _mm256_loadu_ps(pred.as_ptr().add(idx)) };
        let t = unsafe { _mm256_loadu_ps(target.as_ptr().add(idx)) };
        let diff = _mm256_sub_ps(p, t);
        if let Some((grad, _)) = grad.as_mut() {
            // SAFETY: the gradient is as long as `pred` (asserted by the
            // dispatcher); unaligned store.
            unsafe { _mm256_storeu_ps(grad.as_mut_ptr().add(idx), _mm256_mul_ps(diff, scale_v)) };
        }
        acc = _mm256_add_ps(acc, _mm256_mul_ps(diff, diff));
        idx += LANES;
    }
    let mut lanes = [0.0f32; LANES];
    // SAFETY: lanes is exactly 8 elements; unaligned store.
    unsafe { _mm256_storeu_ps(lanes.as_mut_ptr(), acc) };
    let mut tail = 0.0f32;
    while idx < n {
        let diff = pred[idx] - target[idx];
        tail += diff * diff;
        if let Some((grad, scale)) = grad.as_mut() {
            grad[idx] = diff * *scale;
        }
        idx += 1;
    }
    super::mse_tree(lanes, tail)
}

/// Fused Adam update — pure streaming with correctly-rounded div/sqrt and no
/// FMA; the op sequence per element is exactly
/// [`super::adam_update_scalar`]'s (including skipping `m / 1`), so the
/// result is bit-identical.
#[target_feature(enable = "avx2")]
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
    let b1 = _mm256_set1_ps(step.beta1);
    let b2 = _mm256_set1_ps(step.beta2);
    let omb1 = _mm256_set1_ps(1.0 - step.beta1);
    let omb2 = _mm256_set1_ps(1.0 - step.beta2);
    let bias1 = _mm256_set1_ps(step.bias1);
    let bias2 = _mm256_set1_ps(step.bias2);
    let neg_lr = _mm256_set1_ps(-step.learning_rate);
    let eps = _mm256_set1_ps(step.epsilon);
    let decay = _mm256_set1_ps(step.decay);
    let with_decay = step.decay > 0.0;
    let with_bias1 = step.bias1 != 1.0;
    let n = params.len();
    let mut idx = 0;
    while idx + LANES <= n {
        // SAFETY (this block): idx + 8 <= n and all four slices have equal
        // length; unaligned loads/stores throughout.
        unsafe {
            let gv = _mm256_loadu_ps(grads.as_ptr().add(idx));
            let mut mv = _mm256_loadu_ps(first.as_ptr().add(idx));
            let mut vv = _mm256_loadu_ps(second.as_ptr().add(idx));
            // m = β₁·m + (1−β₁)·g        (mul, mul, add — scalar order)
            mv = _mm256_add_ps(_mm256_mul_ps(b1, mv), _mm256_mul_ps(omb1, gv));
            // v = β₂·v + ((1−β₂)·g)·g    (left-associated like the scalar code)
            vv = _mm256_add_ps(
                _mm256_mul_ps(b2, vv),
                _mm256_mul_ps(_mm256_mul_ps(omb2, gv), gv),
            );
            _mm256_storeu_ps(first.as_mut_ptr().add(idx), mv);
            _mm256_storeu_ps(second.as_mut_ptr().add(idx), vv);
            let m_hat = if with_bias1 {
                _mm256_div_ps(mv, bias1)
            } else {
                mv
            };
            let v_hat = _mm256_div_ps(vv, bias2);
            // δ = (−lr · m̂) / (√v̂ + ε)
            let mut delta = _mm256_div_ps(
                _mm256_mul_ps(neg_lr, m_hat),
                _mm256_add_ps(_mm256_sqrt_ps(v_hat), eps),
            );
            let pv = _mm256_loadu_ps(params.as_ptr().add(idx));
            if with_decay {
                delta = _mm256_sub_ps(delta, _mm256_mul_ps(decay, pv));
            }
            _mm256_storeu_ps(params.as_mut_ptr().add(idx), _mm256_add_ps(pv, delta));
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
#[target_feature(enable = "avx2")]
pub(super) fn affine_normalize(values: &mut [f32], min: f32, span: f32) {
    let min_v = _mm256_set1_ps(min);
    let span_v = _mm256_set1_ps(span);
    let n = values.len();
    let mut idx = 0;
    while idx + LANES <= n {
        // SAFETY: idx + 8 <= n; unaligned load/store.
        unsafe {
            let v = _mm256_loadu_ps(values.as_ptr().add(idx));
            let r = _mm256_div_ps(_mm256_sub_ps(v, min_v), span_v);
            _mm256_storeu_ps(values.as_mut_ptr().add(idx), r);
        }
        idx += LANES;
    }
    while idx < n {
        values[idx] = (values[idx] - min) / span;
        idx += 1;
    }
}

/// `v = v·scale + offset` (separate mul and add, never FMA).
#[target_feature(enable = "avx2")]
pub(super) fn affine_map(values: &mut [f32], scale: f32, offset: f32) {
    let scale_v = _mm256_set1_ps(scale);
    let offset_v = _mm256_set1_ps(offset);
    let n = values.len();
    let mut idx = 0;
    while idx + LANES <= n {
        // SAFETY: idx + 8 <= n; unaligned load/store.
        unsafe {
            let v = _mm256_loadu_ps(values.as_ptr().add(idx));
            let r = _mm256_add_ps(_mm256_mul_ps(v, scale_v), offset_v);
            _mm256_storeu_ps(values.as_mut_ptr().add(idx), r);
        }
        idx += LANES;
    }
    while idx < n {
        values[idx] = values[idx] * scale + offset;
        idx += 1;
    }
}

/// Per-dimension `v = span≠0 ? (v − min)/span : 0`. The zero-span lanes are
/// masked to literal +0.0 — the same value the scalar branch produces — so
/// the division's ∞/NaN never escapes.
#[target_feature(enable = "avx2")]
pub(super) fn normalize_dims(values: &mut [f32], mins: &[f32], spans: &[f32]) {
    debug_assert_eq!(values.len(), mins.len());
    debug_assert_eq!(values.len(), spans.len());
    let zero = _mm256_setzero_ps();
    let n = values.len();
    let mut idx = 0;
    while idx + LANES <= n {
        // SAFETY: idx + 8 <= n and all three slices have equal length;
        // unaligned loads/stores.
        unsafe {
            let v = _mm256_loadu_ps(values.as_ptr().add(idx));
            let mn = _mm256_loadu_ps(mins.as_ptr().add(idx));
            let sp = _mm256_loadu_ps(spans.as_ptr().add(idx));
            // Unordered-NEQ matches the scalar `span != 0.0` on NaN spans.
            let mask = _mm256_cmp_ps::<_CMP_NEQ_UQ>(sp, zero);
            let r = _mm256_div_ps(_mm256_sub_ps(v, mn), sp);
            _mm256_storeu_ps(values.as_mut_ptr().add(idx), _mm256_and_ps(r, mask));
        }
        idx += LANES;
    }
    while idx < n {
        values[idx] = if spans[idx] != 0.0 {
            (values[idx] - mins[idx]) / spans[idx]
        } else {
            0.0
        };
        idx += 1;
    }
}

/// Key-stream word pairs to `f32` draws, four u64 lanes per step. The 53-bit
/// integer `x >> 11` becomes an f64 exactly by the two-part magic-number
/// trick: its low 32 bits under the exponent of 2⁵², its high 21 bits under
/// the exponent of 2⁸⁴, and `(hi − (2⁸⁴ + 2⁵²)) + lo` = `x >> 11`, each step
/// exact. Then the scalar's multiply, multiply and add (no FMA) and one
/// round-to-nearest conversion to f32, as `as f32` does.
#[target_feature(enable = "avx2")]
pub(super) fn uniform_from_words(words: &[u32], low: f64, high: f64, out: &mut [f32]) {
    debug_assert_eq!(words.len(), 2 * out.len());
    let range = high - low;
    let magic_lo = _mm256_set1_epi64x(0x4330_0000_0000_0000); // 2⁵²
    let magic_hi = _mm256_set1_epi64x(0x4530_0000_0000_0000); // 2⁸⁴
    let magic_both = _mm256_set1_pd(f64::from_bits(0x4530_0000_0010_0000)); // 2⁸⁴ + 2⁵²
    let scale = _mm256_set1_pd(1.0 / (1u64 << 53) as f64);
    let low_v = _mm256_set1_pd(low);
    let range_v = _mm256_set1_pd(range);
    let n = out.len();
    let mut idx = 0;
    while idx + 4 <= n {
        // SAFETY: idx + 4 <= n, so words[2·idx .. 2·idx + 8] and
        // out[idx .. idx + 4] are in bounds; unaligned load/store. Lane j is
        // the little-endian pair words[2(idx+j)] | words[2(idx+j)+1] << 32.
        unsafe {
            let x = _mm256_srli_epi64::<11>(_mm256_loadu_si256(words.as_ptr().add(2 * idx).cast()));
            let lo = _mm256_blend_epi32::<0b1010_1010>(x, magic_lo);
            let hi = _mm256_or_si256(_mm256_srli_epi64::<32>(x), magic_hi);
            let whole = _mm256_add_pd(
                _mm256_sub_pd(_mm256_castsi256_pd(hi), magic_both),
                _mm256_castsi256_pd(lo),
            );
            let unit = _mm256_mul_pd(whole, scale);
            let draw = _mm256_add_pd(low_v, _mm256_mul_pd(unit, range_v));
            _mm_storeu_ps(out.as_mut_ptr().add(idx), _mm256_cvtpd_ps(draw));
        }
        idx += 4;
    }
    while idx < n {
        out[idx] = super::uniform_from_pair(words[2 * idx], words[2 * idx + 1], low, range);
        idx += 1;
    }
}

/// Eight ChaCha8 blocks, `block .. block + 8`, of the stream keyed by `seed`
/// with nonce zero, written to `out` in stream order (block `block + b` is
/// `out[16·b..16·b + 16]`). Lane `b` of the sixteen state vectors is block
/// `block + b`, its 64-bit counter carried per lane. Rotations by 16 and 8
/// are byte shuffles; an 8×8 transpose in registers turns the lanes back
/// into blocks. Integer arithmetic only, so the words are the vendored
/// generator's exactly.
#[target_feature(enable = "avx2")]
pub(super) fn chacha8_blocks(seed: &[u8; 32], block: u64, out: &mut [u32; 128]) {
    let word = |w: u32| _mm256_set1_epi32(w as i32);
    // Lane b counts block + b: a low word that wraps carries into the high.
    let base = word(block as u32);
    let lo = _mm256_add_epi32(base, _mm256_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7));
    let flip = word(1 << 31);
    let wrapped = _mm256_cmpgt_epi32(_mm256_xor_si256(base, flip), _mm256_xor_si256(lo, flip));
    let hi = _mm256_sub_epi32(word((block >> 32) as u32), wrapped);
    let init: [__m256i; 16] = core::array::from_fn(|j| match j {
        // "expand 32-byte k"
        0..4 => word([0x6170_7865, 0x3320_646e, 0x7962_2d32, 0x6b20_6574][j]),
        4..12 => word(u32::from_le_bytes(seed.as_chunks::<4>().0[j - 4])),
        12 => lo,
        13 => hi,
        _ => _mm256_setzero_si256(),
    });
    let rot16 = _mm256_setr_epi8(
        2, 3, 0, 1, 6, 7, 4, 5, 10, 11, 8, 9, 14, 15, 12, 13, //
        2, 3, 0, 1, 6, 7, 4, 5, 10, 11, 8, 9, 14, 15, 12, 13,
    );
    let rot8 = _mm256_setr_epi8(
        3, 0, 1, 2, 7, 4, 5, 6, 11, 8, 9, 10, 15, 12, 13, 14, //
        3, 0, 1, 2, 7, 4, 5, 6, 11, 8, 9, 10, 15, 12, 13, 14,
    );
    let mut x = init;
    let mut quarter = |a: usize, b: usize, c: usize, d: usize| {
        x[a] = _mm256_add_epi32(x[a], x[b]);
        x[d] = _mm256_shuffle_epi8(_mm256_xor_si256(x[d], x[a]), rot16);
        x[c] = _mm256_add_epi32(x[c], x[d]);
        let t = _mm256_xor_si256(x[b], x[c]);
        x[b] = _mm256_or_si256(_mm256_slli_epi32::<12>(t), _mm256_srli_epi32::<20>(t));
        x[a] = _mm256_add_epi32(x[a], x[b]);
        x[d] = _mm256_shuffle_epi8(_mm256_xor_si256(x[d], x[a]), rot8);
        x[c] = _mm256_add_epi32(x[c], x[d]);
        let t = _mm256_xor_si256(x[b], x[c]);
        x[b] = _mm256_or_si256(_mm256_slli_epi32::<7>(t), _mm256_srli_epi32::<25>(t));
    };
    for _ in 0..4 {
        quarter(0, 4, 8, 12);
        quarter(1, 5, 9, 13);
        quarter(2, 6, 10, 14);
        quarter(3, 7, 11, 15);
        quarter(0, 5, 10, 15);
        quarter(1, 6, 11, 12);
        quarter(2, 7, 8, 13);
        quarter(3, 4, 9, 14);
    }
    for (xj, init_j) in x.iter_mut().zip(init) {
        *xj = _mm256_add_epi32(*xj, init_j);
    }
    for (half, rows) in x.chunks_exact(LANES).enumerate() {
        for (b, words) in transpose8x8(rows).into_iter().enumerate() {
            // SAFETY: 16·b + 8·half + 8 <= 128 for b < 8, half < 2;
            // unaligned store.
            unsafe { _mm256_storeu_si256(out.as_mut_ptr().add(16 * b + 8 * half).cast(), words) };
        }
    }
}

/// Transposes an 8×8 matrix of u32 held as eight row vectors: output `j`
/// holds lane `j` of rows 0 to 7.
#[inline]
#[target_feature(enable = "avx2")]
fn transpose8x8(r: &[__m256i]) -> [__m256i; 8] {
    let t0 = _mm256_unpacklo_epi32(r[0], r[1]);
    let t1 = _mm256_unpackhi_epi32(r[0], r[1]);
    let t2 = _mm256_unpacklo_epi32(r[2], r[3]);
    let t3 = _mm256_unpackhi_epi32(r[2], r[3]);
    let t4 = _mm256_unpacklo_epi32(r[4], r[5]);
    let t5 = _mm256_unpackhi_epi32(r[4], r[5]);
    let t6 = _mm256_unpacklo_epi32(r[6], r[7]);
    let t7 = _mm256_unpackhi_epi32(r[6], r[7]);
    // u_j: lanes j (low half) and j + 4 (high half) of four rows each.
    let u0 = _mm256_unpacklo_epi64(t0, t2);
    let u1 = _mm256_unpackhi_epi64(t0, t2);
    let u2 = _mm256_unpacklo_epi64(t1, t3);
    let u3 = _mm256_unpackhi_epi64(t1, t3);
    let u4 = _mm256_unpacklo_epi64(t4, t6);
    let u5 = _mm256_unpackhi_epi64(t4, t6);
    let u6 = _mm256_unpacklo_epi64(t5, t7);
    let u7 = _mm256_unpackhi_epi64(t5, t7);
    [
        _mm256_permute2x128_si256::<0x20>(u0, u4),
        _mm256_permute2x128_si256::<0x20>(u1, u5),
        _mm256_permute2x128_si256::<0x20>(u2, u6),
        _mm256_permute2x128_si256::<0x20>(u3, u7),
        _mm256_permute2x128_si256::<0x31>(u0, u4),
        _mm256_permute2x128_si256::<0x31>(u1, u5),
        _mm256_permute2x128_si256::<0x31>(u2, u6),
        _mm256_permute2x128_si256::<0x31>(u3, u7),
    ]
}
