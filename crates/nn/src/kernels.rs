//! Cache-blocked, allocation-free dense kernels for the MLP hot path.
//!
//! These kernels implement the three GEMM shapes a fully connected network
//! needs — `C = A·B` (forward), `C = A·Bᵀ` (input gradient) and
//! `C = Aᵀ·B` / `C += Aᵀ·B` (weight gradient). They are the scalar arm of
//! [`crate::simd`], which every vector arm is pinned to. All of them write
//! into caller-provided buffers and never allocate, so a training step that
//! routes through them touches the heap zero times in steady state (see
//! [`crate::Workspace`]).
//!
//! Design:
//!
//! * **Register tiling.** The normal-normal kernel runs an [`MR`]×[`NR`]
//!   micro-kernel whose accumulator tile stays in vector registers for the
//!   entire reduction — every `B` load feeds `MR`·`NR` multiply-adds and the
//!   output is written exactly once. The normal-transpose kernel — the
//!   backward pass's input gradient `δ·Wᵀ`, read straight from W — uses a
//!   4×4 tile of independent dot-product accumulators; the transpose-normal
//!   kernel unrolls four reduction rows per pass over the output.
//! * **Reduction-order stability.** Within one output element the reduction
//!   always runs in ascending `k` order with a single accumulator, exactly
//!   like the naive i-k-j products of the test oracle
//!   (`tests/support/reference.rs`). Blocking only reorders *independent*
//!   output elements, so the blocked kernels are bit-for-bit compatible with
//!   the naive reference (modulo the sign of exact zeros) — the property
//!   tests in `tests/properties.rs` pin this.
//! * **Fused epilogues.** The forward kernel takes a per-element epilogue
//!   `f(col, acc)` so bias-add and activation are applied while the output
//!   tile is still hot in registers, instead of in separate passes.
//! * **Row-parallelism.** Every kernel can split its *output rows* across a
//!   small scoped thread pool (the vendored crossbeam scope). Each row is
//!   computed by exactly one thread with the same per-element reduction
//!   order as the serial kernel, so results are bit-identical for every
//!   thread count — multi-rank seed reproducibility is preserved.

// GEMM signatures carry (threads, a, m, k, b, n, out, epilogue) — splitting
// them into structs would obscure the BLAS-style calling convention.
#![allow(clippy::too_many_arguments)]

use crate::simd::FlushGuard;

/// Register-tile height: output rows processed together per pass.
pub const MR: usize = 4;

/// Work threshold (in multiply-adds) below which parallel dispatch falls back
/// to the serial kernel; spawning scoped threads costs tens of microseconds.
/// Shared with the SIMD dispatch layer so serial/parallel splits never
/// diverge between the scalar and vector paths.
pub(crate) const PAR_MIN_MADDS: usize = 1 << 20;

/// Splits `rows` into at most `threads` contiguous chunks of equal size
/// (the last chunk may be smaller). Returns the chunk height.
fn chunk_rows(rows: usize, threads: usize) -> usize {
    rows.div_ceil(threads.max(1)).max(1)
}

/// `C = A·B` with a fused per-element epilogue: `out[i][j] = epi(j, Σ_l A[i][l]·B[l][j])`.
///
/// `a` is `m×k`, `b` is `k×n`, `out` is `m×n`, all row-major. `threads > 1`
/// splits the output rows across scoped threads when the work is large enough.
///
/// # Panics
/// Panics when the slice lengths do not match the dimensions.
// analysis: hot_path
pub fn gemm_nn<F>(
    threads: usize,
    a: &[f32],
    m: usize,
    k: usize,
    b: &[f32],
    n: usize,
    out: &mut [f32],
    epi: F,
) where
    F: Fn(usize, f32) -> f32 + Sync,
{
    assert_eq!(a.len(), m * k, "gemm_nn: A length");
    assert_eq!(b.len(), k * n, "gemm_nn: B length");
    assert_eq!(out.len(), m * n, "gemm_nn: C length");
    if threads <= 1 || m < 2 || m * n * k < PAR_MIN_MADDS {
        gemm_nn_serial(a, m, k, b, n, out, &epi);
        return;
    }
    let rows_per = chunk_rows(m, threads);
    let epi = &epi;
    crossbeam::scope(|scope| {
        for (a_chunk, out_chunk) in a.chunks(rows_per * k).zip(out.chunks_mut(rows_per * n)) {
            scope.spawn(move |_| {
                let _flush = FlushGuard::enter();
                gemm_nn_serial(a_chunk, a_chunk.len() / k, k, b, n, out_chunk, epi);
            });
        }
    })
    // analysis: allow(panic, reason = "re-raises a worker thread's panic; a panicking GEMM worker is a kernel bug, not a recoverable state")
    .expect("gemm_nn worker panicked");
}

/// Column width of the register micro-kernel: `MR × NR` accumulators live in
/// vector registers across the whole `k` loop, so the inner loop performs
/// `MR·NR` multiply-adds per `NR`-wide `B` load with no accumulator traffic.
pub const NR: usize = 8;

// analysis: hot_path
fn gemm_nn_serial<F>(a: &[f32], m: usize, k: usize, b: &[f32], n: usize, out: &mut [f32], epi: &F)
where
    F: Fn(usize, f32) -> f32,
{
    // Register-resident micro-kernel over full NR-wide column panels…
    let mut j = 0;
    while j + NR <= n {
        let mut i = 0;
        while i + MR <= m {
            micro_4xnr(a, i, k, b, j, n, out, epi);
            i += MR;
        }
        while i < m {
            micro_1xnr(a, i, k, b, j, n, out, epi);
            i += 1;
        }
        j += NR;
    }
    // …and a cached-block path for the remaining (< NR) columns.
    if j < n {
        gemm_nn_col_tail(a, m, k, b, n, j, out, epi);
    }
}

/// 4×NR micro-kernel: the accumulator tile stays in registers for the whole
/// reduction; each element's sum runs in ascending `k` order.
#[inline(always)]
// analysis: hot_path
fn micro_4xnr<F>(
    a: &[f32],
    i: usize,
    k: usize,
    b: &[f32],
    j: usize,
    n: usize,
    out: &mut [f32],
    epi: &F,
) where
    F: Fn(usize, f32) -> f32,
{
    let mut c0 = [0.0f32; NR];
    let mut c1 = [0.0f32; NR];
    let mut c2 = [0.0f32; NR];
    let mut c3 = [0.0f32; NR];
    let a0_row = &a[i * k..(i + 1) * k];
    let a1_row = &a[(i + 1) * k..(i + 2) * k];
    let a2_row = &a[(i + 2) * k..(i + 3) * k];
    let a3_row = &a[(i + 3) * k..(i + 4) * k];
    for l in 0..k {
        // analysis: allow(panic, reason = "the slice is exactly NR wide by construction; try_into only re-states the bound the indexing already proved")
        let bv: &[f32; NR] = b[l * n + j..l * n + j + NR].try_into().unwrap();
        let a0 = a0_row[l];
        let a1 = a1_row[l];
        let a2 = a2_row[l];
        let a3 = a3_row[l];
        for t in 0..NR {
            c0[t] += a0 * bv[t];
            c1[t] += a1 * bv[t];
            c2[t] += a2 * bv[t];
            c3[t] += a3 * bv[t];
        }
    }
    for (r, c) in [&c0, &c1, &c2, &c3].into_iter().enumerate() {
        let orow = &mut out[(i + r) * n + j..(i + r) * n + j + NR];
        for (t, o) in orow.iter_mut().enumerate() {
            *o = epi(j + t, c[t]);
        }
    }
}

/// Single-row variant for the `m % MR` tail.
#[inline(always)]
// analysis: hot_path
fn micro_1xnr<F>(
    a: &[f32],
    i: usize,
    k: usize,
    b: &[f32],
    j: usize,
    n: usize,
    out: &mut [f32],
    epi: &F,
) where
    F: Fn(usize, f32) -> f32,
{
    let mut c = [0.0f32; NR];
    let a_row = &a[i * k..(i + 1) * k];
    for (l, &av) in a_row.iter().enumerate() {
        // analysis: allow(panic, reason = "the slice is exactly NR wide by construction; try_into only re-states the bound the indexing already proved")
        let bv: &[f32; NR] = b[l * n + j..l * n + j + NR].try_into().unwrap();
        for t in 0..NR {
            c[t] += av * bv[t];
        }
    }
    let orow = &mut out[i * n + j..i * n + j + NR];
    for (t, o) in orow.iter_mut().enumerate() {
        *o = epi(j + t, c[t]);
    }
}

/// Stack-accumulator fallback for the final `< NR` columns.
fn gemm_nn_col_tail<F>(
    a: &[f32],
    m: usize,
    k: usize,
    b: &[f32],
    n: usize,
    j0: usize,
    out: &mut [f32],
    epi: &F,
) where
    F: Fn(usize, f32) -> f32,
{
    let nb = n - j0;
    debug_assert!(nb < NR);
    for i in 0..m {
        let mut acc = [0.0f32; NR];
        let a_row = &a[i * k..(i + 1) * k];
        for (l, &av) in a_row.iter().enumerate() {
            let brow = &b[l * n + j0..l * n + j0 + nb];
            for (t, &bv) in brow.iter().enumerate() {
                acc[t] += av * bv;
            }
        }
        let orow = &mut out[i * n + j0..i * n + j0 + nb];
        for (t, o) in orow.iter_mut().enumerate() {
            *o = epi(j0 + t, acc[t]);
        }
    }
}

/// `C = A·Bᵀ`: `out[i][j] = Σ_l A[i][l]·B[j][l]`.
///
/// `a` is `m×k`, `b` is `n×k`, `out` is `m×n`, all row-major.
///
/// # Panics
/// Panics when the slice lengths do not match the dimensions.
// analysis: hot_path
pub fn gemm_nt(
    threads: usize,
    a: &[f32],
    m: usize,
    k: usize,
    b: &[f32],
    n: usize,
    out: &mut [f32],
) {
    assert_eq!(a.len(), m * k, "gemm_nt: A length");
    assert_eq!(b.len(), n * k, "gemm_nt: B length");
    assert_eq!(out.len(), m * n, "gemm_nt: C length");
    if threads <= 1 || m < 2 || m * n * k < PAR_MIN_MADDS {
        gemm_nt_serial(a, m, k, b, n, out);
        return;
    }
    let rows_per = chunk_rows(m, threads);
    crossbeam::scope(|scope| {
        for (a_chunk, out_chunk) in a.chunks(rows_per * k).zip(out.chunks_mut(rows_per * n)) {
            scope.spawn(move |_| {
                let _flush = FlushGuard::enter();
                gemm_nt_serial(a_chunk, a_chunk.len() / k, k, b, n, out_chunk);
            });
        }
    })
    // analysis: allow(panic, reason = "re-raises a worker thread's panic; a panicking GEMM worker is a kernel bug, not a recoverable state")
    .expect("gemm_nt worker panicked");
}

// analysis: hot_path
fn gemm_nt_serial(a: &[f32], m: usize, k: usize, b: &[f32], n: usize, out: &mut [f32]) {
    const TILE: usize = 4;
    let mut i = 0;
    while i < m {
        let mr = TILE.min(m - i);
        let mut j = 0;
        while j < n {
            let nr = TILE.min(n - j);
            // 4×4 tile of independent accumulators; each output element keeps
            // its own ascending-k reduction, the ILP comes from independence.
            let mut acc = [[0.0f32; TILE]; TILE];
            for l in 0..k {
                let mut av = [0.0f32; TILE];
                let mut bv = [0.0f32; TILE];
                for (r, v) in av.iter_mut().enumerate().take(mr) {
                    *v = a[(i + r) * k + l];
                }
                for (c, v) in bv.iter_mut().enumerate().take(nr) {
                    *v = b[(j + c) * k + l];
                }
                for (r, arow) in acc.iter_mut().enumerate().take(mr) {
                    for (c, cell) in arow.iter_mut().enumerate().take(nr) {
                        *cell += av[r] * bv[c];
                    }
                }
            }
            for (r, arow) in acc.iter().enumerate().take(mr) {
                for (c, &cell) in arow.iter().enumerate().take(nr) {
                    out[(i + r) * n + j + c] = cell;
                }
            }
            j += nr;
        }
        i += mr;
    }
}

/// `C = Aᵀ·B` or `C += Aᵀ·B` (`accumulate`): `out[i][j] ⟵ Σ_r A[r][i]·B[r][j]`.
///
/// `a` is `m×k` (the *output* is `k×n`), `b` is `m×n`, `out` is `k×n`, all
/// row-major. Four reduction rows are unrolled per pass so the
/// read-modify-write traffic over `C` drops 4×; the per-element addition
/// order stays ascending in `r`. With `accumulate = false` the first
/// reduction block overwrites `C`, saving the zeroing pass a caller would
/// otherwise need (values are identical to zero-then-accumulate).
///
/// # Panics
/// Panics when the slice lengths do not match the dimensions.
// analysis: hot_path
pub fn gemm_tn(
    threads: usize,
    a: &[f32],
    m: usize,
    k: usize,
    b: &[f32],
    n: usize,
    out: &mut [f32],
    accumulate: bool,
) {
    assert_eq!(a.len(), m * k, "gemm_tn: A length");
    assert_eq!(b.len(), m * n, "gemm_tn: B length");
    assert_eq!(out.len(), k * n, "gemm_tn: C length");
    if threads <= 1 || k < 2 || m * n * k < PAR_MIN_MADDS {
        gemm_tn_serial(a, m, k, 0, k, b, n, out, accumulate);
        return;
    }
    let rows_per = chunk_rows(k, threads);
    crossbeam::scope(|scope| {
        for (chunk_idx, out_chunk) in out.chunks_mut(rows_per * n).enumerate() {
            let i0 = chunk_idx * rows_per;
            let i1 = i0 + out_chunk.len() / n;
            scope.spawn(move |_| {
                let _flush = FlushGuard::enter();
                gemm_tn_serial(a, m, k, i0, i1, b, n, out_chunk, accumulate);
            });
        }
    })
    // analysis: allow(panic, reason = "re-raises a worker thread's panic; a panicking GEMM worker is a kernel bug, not a recoverable state")
    .expect("gemm_tn worker panicked");
}

/// Serial core over the output-row range `[i0, i1)`; `out` holds exactly
/// those rows.
#[allow(clippy::too_many_arguments)]
// analysis: hot_path
fn gemm_tn_serial(
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
    while r + MR <= m {
        let b0 = &b[r * n..(r + 1) * n];
        let b1 = &b[(r + 1) * n..(r + 2) * n];
        let b2 = &b[(r + 2) * n..(r + 3) * n];
        let b3 = &b[(r + 3) * n..(r + 4) * n];
        for i in i0..i1 {
            let a0 = a[r * k + i];
            let a1 = a[(r + 1) * k + i];
            let a2 = a[(r + 2) * k + i];
            let a3 = a[(r + 3) * k + i];
            let crow = &mut out[(i - i0) * n..(i - i0 + 1) * n];
            for (j, c) in crow.iter_mut().enumerate() {
                // Sequential adds preserve the ascending-r reduction order.
                let mut v = if first_block { 0.0 } else { *c };
                v += a0 * b0[j];
                v += a1 * b1[j];
                v += a2 * b2[j];
                v += a3 * b3[j];
                *c = v;
            }
        }
        first_block = false;
        r += MR;
    }
    while r < m {
        let brow = &b[r * n..(r + 1) * n];
        for i in i0..i1 {
            let av = a[r * k + i];
            let crow = &mut out[(i - i0) * n..(i - i0 + 1) * n];
            if first_block {
                for (c, &bv) in crow.iter_mut().zip(brow) {
                    *c = av * bv;
                }
            } else {
                for (c, &bv) in crow.iter_mut().zip(brow) {
                    *c += av * bv;
                }
            }
        }
        first_block = false;
        r += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn naive_nn(a: &[f32], m: usize, k: usize, b: &[f32], n: usize) -> Vec<f32> {
        let mut out = vec![0.0f32; m * n];
        for i in 0..m {
            for j in 0..n {
                let mut acc = 0.0f32;
                for l in 0..k {
                    acc += a[i * k + l] * b[l * n + j];
                }
                out[i * n + j] = acc;
            }
        }
        out
    }

    fn seq(len: usize, scale: f32) -> Vec<f32> {
        (0..len).map(|v| ((v % 23) as f32 - 11.0) * scale).collect()
    }

    #[test]
    fn gemm_nn_matches_naive_on_odd_shapes() {
        for &(m, k, n) in &[(1, 1, 1), (3, 5, 7), (4, 8, 256), (5, 3, 300), (9, 17, 513)] {
            let a = seq(m * k, 0.25);
            let b = seq(k * n, 0.5);
            let mut out = vec![0.0f32; m * n];
            gemm_nn(1, &a, m, k, &b, n, &mut out, |_, acc| acc);
            assert_eq!(out, naive_nn(&a, m, k, &b, n), "shape {m}x{k}x{n}");
        }
    }

    #[test]
    fn gemm_nn_epilogue_is_applied_per_column() {
        let a = seq(2 * 3, 1.0);
        let b = seq(3 * 4, 1.0);
        let mut plain = vec![0.0f32; 2 * 4];
        let mut biased = vec![0.0f32; 2 * 4];
        gemm_nn(1, &a, 2, 3, &b, 4, &mut plain, |_, acc| acc);
        gemm_nn(1, &a, 2, 3, &b, 4, &mut biased, |j, acc| acc + j as f32);
        for i in 0..2 {
            for j in 0..4 {
                assert_eq!(biased[i * 4 + j], plain[i * 4 + j] + j as f32);
            }
        }
    }

    #[test]
    fn gemm_nt_matches_naive() {
        for &(m, k, n) in &[(1, 4, 1), (3, 5, 6), (7, 300, 5), (5, 8, 9)] {
            let a = seq(m * k, 0.25);
            let b = seq(n * k, 0.5);
            // A·Bᵀ == naive_nn(A, explicit transpose of B).
            let mut bt = vec![0.0f32; k * n];
            for r in 0..n {
                for c in 0..k {
                    bt[c * n + r] = b[r * k + c];
                }
            }
            let mut out = vec![0.0f32; m * n];
            gemm_nt(1, &a, m, k, &b, n, &mut out);
            assert_eq!(out, naive_nn(&a, m, k, &bt, n), "shape {m}x{k}x{n}");
        }
    }

    #[test]
    fn gemm_tn_matches_naive_in_both_modes() {
        for &(m, k, n) in &[(6, 5, 7), (1, 4, 3), (10, 9, 300), (3, 5, 2)] {
            let a = seq(m * k, 0.25);
            let b = seq(m * n, 0.5);
            let mut at = vec![0.0f32; k * m];
            for r in 0..m {
                for c in 0..k {
                    at[c * m + r] = a[r * k + c];
                }
            }
            let reference = naive_nn(&at, k, m, &b, n);
            // Accumulate mode adds onto the existing values…
            let mut acc = vec![1.0f32; k * n];
            gemm_tn(1, &a, m, k, &b, n, &mut acc, true);
            for (x, y) in acc.iter().zip(&reference) {
                assert!((x - 1.0 - y).abs() < 1e-3, "{x} vs {y}");
            }
            // …overwrite mode ignores them: it is the naive product, and
            // zero-then-accumulate, bit for bit.
            let mut zeroed = vec![0.0f32; k * n];
            gemm_tn(1, &a, m, k, &b, n, &mut zeroed, true);
            let mut overwritten = vec![f32::NAN; k * n];
            gemm_tn(1, &a, m, k, &b, n, &mut overwritten, false);
            assert_eq!(overwritten, reference, "shape {m}x{k}x{n}");
            assert_eq!(overwritten, zeroed, "shape {m}x{k}x{n}");
        }
    }

    #[test]
    fn gemm_tn_overwrite_zeroes_on_empty_reduction() {
        let mut out = vec![f32::NAN; 6];
        gemm_tn(1, &[], 0, 2, &[], 3, &mut out, false);
        assert_eq!(out, vec![0.0; 6]);
        // Accumulate mode with no rows leaves the accumulator untouched.
        let mut acc = vec![1.5f32; 6];
        gemm_tn(1, &[], 0, 2, &[], 3, &mut acc, true);
        assert_eq!(acc, vec![1.5; 6]);
    }

    #[test]
    fn parallel_dispatch_is_bit_identical_to_serial() {
        // Shapes above the parallel threshold so the threaded path really runs.
        let (m, k, n) = (64, 64, 300);
        let a = seq(m * k, 0.03);
        let b = seq(k * n, 0.02);
        let mut serial = vec![0.0f32; m * n];
        let mut par = vec![0.0f32; m * n];
        gemm_nn(1, &a, m, k, &b, n, &mut serial, |_, acc| acc);
        gemm_nn(3, &a, m, k, &b, n, &mut par, |_, acc| acc);
        assert_eq!(serial, par);

        let bt = seq(n * k, 0.02);
        let mut serial_nt = vec![0.0f32; m * n];
        let mut par_nt = vec![0.0f32; m * n];
        gemm_nt(1, &a, m, k, &bt, n, &mut serial_nt);
        gemm_nt(4, &a, m, k, &bt, n, &mut par_nt);
        assert_eq!(serial_nt, par_nt);

        let big_b = seq(m * n, 0.01);
        let mut serial_tn = vec![0.5f32; k * n];
        let mut par_tn = vec![0.5f32; k * n];
        gemm_tn(1, &a, m, k, &big_b, n, &mut serial_tn, true);
        gemm_tn(2, &a, m, k, &big_b, n, &mut par_tn, true);
        assert_eq!(serial_tn, par_tn);
    }

    #[test]
    #[should_panic(expected = "gemm_nn: A length")]
    fn gemm_nn_rejects_bad_lengths() {
        let mut out = vec![0.0f32; 4];
        gemm_nn(1, &[0.0; 3], 2, 2, &[0.0; 4], 2, &mut out, |_, acc| acc);
    }
}
