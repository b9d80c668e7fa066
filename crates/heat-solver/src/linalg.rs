//! Linear algebra kernels for the implicit Euler step.
//!
//! The implicit Euler step of the heat equation requires solving the sparse,
//! symmetric positive-definite system `(I - α Δt L) u^{n+1} = u^n + α Δt b`
//! where `L` is the 5-point discrete Laplacian restricted to interior nodes and
//! `b` gathers the Dirichlet boundary contributions. This module implements the
//! matrix-free operator and a preconditioner-free [`ConjugateGradient`] solver.

use crate::grid::Grid2D;

/// Matrix-free application of the implicit heat operator `A = I - α Δt L`.
///
/// `L` is the standard 5-point Laplacian with homogeneous Dirichlet conditions
/// (the inhomogeneous boundary values are moved to the right-hand side).
#[derive(Debug, Clone, Copy)]
pub struct HeatOperator {
    /// Grid the operator is defined on.
    pub grid: Grid2D,
    /// Diagonal entry `1 + 2αΔt(1/dx² + 1/dy²)`.
    diag: f64,
    /// Magnitude `αΔt/dx²` of the west/east entries.
    off_x: f64,
    /// Magnitude `αΔt/dy²` of the south/north entries.
    off_y: f64,
}

impl HeatOperator {
    /// Creates the operator.
    pub fn new(grid: Grid2D, alpha: f64, dt: f64) -> Self {
        let inv_dx2 = 1.0 / (grid.dx() * grid.dx());
        let inv_dy2 = 1.0 / (grid.dy() * grid.dy());
        let c = alpha * dt;
        Self {
            grid,
            diag: 1.0 + 2.0 * c * (inv_dx2 + inv_dy2),
            off_x: c * inv_dx2,
            off_y: c * inv_dy2,
        }
    }

    /// `out = A · v`. Both slices must have `grid.len()` entries.
    // analysis: hot_path
    pub fn apply(&self, v: &[f64], out: &mut [f64]) {
        let (nx, ny) = (self.grid.nx, self.grid.ny);
        assert_eq!(v.len(), self.grid.len());
        assert_eq!(out.len(), self.grid.len());
        for (j, out_row) in out.chunks_exact_mut(nx).enumerate() {
            let v_row = |j: usize| &v[j * nx..(j + 1) * nx];
            let south = (j > 0).then(|| v_row(j - 1));
            let north = (j + 1 < ny).then(|| v_row(j + 1));
            self.stencil_row(v_row(j), south, north, out_row);
        }
    }

    /// One row of `A · v` from the row itself and the rows below and above it
    /// (`None` where the Dirichlet edge cuts them off). Every cell subtracts
    /// its west, east, south and north neighbours in that order; the missing
    /// ones are peeled out of the loops, so none of them branches per cell.
    fn stencil_row(
        &self,
        row: &[f64],
        south: Option<&[f64]>,
        north: Option<&[f64]>,
        out: &mut [f64],
    ) {
        let (diag, off_x, off_y) = (self.diag, self.off_x, self.off_y);
        let last = row.len() - 1;
        out[0] = diag * row[0];
        if last > 0 {
            out[0] -= off_x * row[1];
            out[last] = diag * row[last] - off_x * row[last - 1];
        }
        for (o, w) in out[1..].iter_mut().zip(row.windows(3)) {
            *o = diag * w[1] - off_x * w[0] - off_x * w[2];
        }
        for neighbour in [south, north].into_iter().flatten() {
            for (o, h) in out.iter_mut().zip(neighbour) {
                *o -= off_y * h;
            }
        }
    }
}

/// Convergence report of an iterative solve.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CgReport {
    /// Number of iterations performed.
    pub iterations: usize,
    /// Final residual 2-norm.
    pub residual: f64,
    /// Whether the tolerance was reached before hitting the iteration cap.
    pub converged: bool,
}

/// Conjugate-gradient solver for the SPD implicit heat system.
#[derive(Debug, Clone, Copy)]
pub struct ConjugateGradient {
    /// Relative residual tolerance (‖r‖ / ‖b‖).
    pub tolerance: f64,
    /// Maximum number of iterations.
    pub max_iterations: usize,
}

impl Default for ConjugateGradient {
    fn default() -> Self {
        Self {
            tolerance: 1e-10,
            max_iterations: 10_000,
        }
    }
}

/// The residual, search direction and `A·p` vectors of a CG solve, kept
/// between solves so that a trajectory allocates them once.
#[derive(Debug, Clone, Default)]
pub struct CgWorkspace {
    r: Vec<f64>,
    p: Vec<f64>,
    ap: Vec<f64>,
}

/// The report of a solve that stopped with squared residual norm `rs`.
fn cg_report(iterations: usize, rs: f64, converged: bool) -> CgReport {
    CgReport {
        iterations,
        residual: rs.sqrt(),
        converged,
    }
}

impl ConjugateGradient {
    /// Solves `A x = b` in place, starting from the provided `x` (warm start).
    pub fn solve(&self, op: &HeatOperator, b: &[f64], x: &mut [f64]) -> CgReport {
        self.solve_with(op, b, x, &mut CgWorkspace::default())
    }

    /// [`Self::solve`] in the work vectors `ws`, which keep their storage
    /// from one solve to the next.
    // analysis: hot_path
    pub(crate) fn solve_with(
        &self,
        op: &HeatOperator,
        b: &[f64],
        x: &mut [f64],
        ws: &mut CgWorkspace,
    ) -> CgReport {
        let n = b.len();
        assert_eq!(x.len(), n);
        let norm_b = dot(b, b).sqrt();
        if norm_b == 0.0 {
            x.fill(0.0);
            return cg_report(0, 0.0, true);
        }
        let tol = self.tolerance * norm_b;

        let CgWorkspace { r, p, ap } = ws;
        for vector in [&mut *r, &mut *p, &mut *ap] {
            vector.resize(n, 0.0);
        }
        op.apply(x, ap);
        for ((ri, bi), axi) in r.iter_mut().zip(b).zip(ap.iter()) {
            *ri = bi - axi;
        }
        p.copy_from_slice(r);
        let mut rs_old = dot(r, r);
        if rs_old.sqrt() <= tol {
            return cg_report(0, rs_old, true);
        }
        for iter in 1..=self.max_iterations {
            op.apply(p, ap);
            let p_ap = dot(p, ap);
            if p_ap == 0.0 {
                return cg_report(iter, rs_old, false);
            }
            let step = rs_old / p_ap;
            axpy(step, p, x);
            axpy(-step, ap, r);
            let rs_new = dot(r, r);
            if rs_new.sqrt() <= tol {
                return cg_report(iter, rs_new, true);
            }
            let beta = rs_new / rs_old;
            for (pi, ri) in p.iter_mut().zip(r.iter()) {
                *pi = ri + beta * *pi;
            }
            rs_old = rs_new;
        }
        cg_report(self.max_iterations, rs_old, false)
    }
}

/// Width of the independent partial sums of [`dot`].
const LANES: usize = 8;

/// Dot product of two equal-length slices.
///
/// Element `k` goes to partial sum `k mod 8`, so a long vector is not one
/// dependent chain of additions. The eight sums and the tail beyond the last
/// full block are added in a fixed order — the halving tree a SIMD reduction
/// of one 8-wide, two 4-wide or four 2-wide registers performs — so no target
/// has to shuffle to honour it and the result is the same on all of them.
// analysis: hot_path
#[inline]
pub fn dot(a: &[f64], b: &[f64]) -> f64 {
    assert_eq!(a.len(), b.len());
    let (a_blocks, a_tail) = a.as_chunks::<LANES>();
    let (b_blocks, b_tail) = b.as_chunks::<LANES>();
    let mut lanes = [0.0; LANES];
    for (ab, bb) in a_blocks.iter().zip(b_blocks) {
        for l in 0..LANES {
            lanes[l] += ab[l] * bb[l];
        }
    }
    let tail: f64 = a_tail.iter().zip(b_tail).map(|(x, y)| x * y).sum();
    let [a, b, c, d, e, f, g, h] = lanes;
    (((a + e) + (c + g)) + ((b + f) + (d + h))) + tail
}

/// `y += alpha * x` (BLAS axpy).
// analysis: hot_path
#[inline]
pub fn axpy(alpha: f64, x: &[f64], y: &mut [f64]) {
    debug_assert_eq!(x.len(), y.len());
    for (yi, xi) in y.iter_mut().zip(x) {
        *yi += alpha * xi;
    }
}

/// The kernels this module had before they were vectorized — a stencil that
/// branches on every neighbour, a dot product that is one chain of additions,
/// a CG that allocates its vectors — kept as the oracle the fast ones are
/// pinned against.
#[cfg(test)]
pub(crate) mod oracle {
    use super::CgReport;
    use crate::grid::Grid2D;

    pub(crate) fn apply(grid: Grid2D, alpha: f64, dt: f64, v: &[f64], out: &mut [f64]) {
        let (nx, ny) = (grid.nx, grid.ny);
        let inv_dx2 = 1.0 / (grid.dx() * grid.dx());
        let inv_dy2 = 1.0 / (grid.dy() * grid.dy());
        let c = alpha * dt;
        let diag = 1.0 + 2.0 * c * (inv_dx2 + inv_dy2);
        for j in 0..ny {
            for i in 0..nx {
                let k = j * nx + i;
                let mut acc = diag * v[k];
                if i > 0 {
                    acc -= c * inv_dx2 * v[k - 1];
                }
                if i + 1 < nx {
                    acc -= c * inv_dx2 * v[k + 1];
                }
                if j > 0 {
                    acc -= c * inv_dy2 * v[k - nx];
                }
                if j + 1 < ny {
                    acc -= c * inv_dy2 * v[k + nx];
                }
                out[k] = acc;
            }
        }
    }

    pub(crate) fn dot(a: &[f64], b: &[f64]) -> f64 {
        a.iter().zip(b).map(|(x, y)| x * y).sum()
    }

    /// Warm-started CG on `(I - α Δt L) x = b` with a 10,000-iteration cap.
    pub(crate) fn solve(
        grid: Grid2D,
        alpha: f64,
        dt: f64,
        tolerance: f64,
        b: &[f64],
        x: &mut [f64],
    ) -> CgReport {
        let n = b.len();
        let report = |iterations, rs: f64, converged| CgReport {
            iterations,
            residual: rs.sqrt(),
            converged,
        };
        let tol = tolerance * dot(b, b).sqrt();
        let mut ap = vec![0.0; n];
        apply(grid, alpha, dt, x, &mut ap);
        let mut r: Vec<f64> = b.iter().zip(&ap).map(|(bi, axi)| bi - axi).collect();
        let mut p = r.clone();
        let mut rs_old = dot(&r, &r);
        if rs_old.sqrt() <= tol {
            return report(0, rs_old, true);
        }
        for iter in 1..=10_000 {
            apply(grid, alpha, dt, &p, &mut ap);
            let step = rs_old / dot(&p, &ap);
            for k in 0..n {
                x[k] += step * p[k];
                r[k] -= step * ap[k];
            }
            let rs_new = dot(&r, &r);
            if rs_new.sqrt() <= tol {
                return report(iter, rs_new, true);
            }
            let beta = rs_new / rs_old;
            for k in 0..n {
                p[k] = r[k] + beta * p[k];
            }
            rs_old = rs_new;
        }
        report(10_000, rs_old, false)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::grid::Grid2D;

    fn op(n: usize) -> HeatOperator {
        HeatOperator::new(Grid2D::unit_square(n, n), 1.0, 0.01)
    }

    fn wavy(n: usize, seed: usize) -> Vec<f64> {
        (0..n)
            .map(|k| (((k * 7 + seed * 13) % 23) as f64 - 11.0) * 1.37e-1)
            .collect()
    }

    #[test]
    fn peeled_stencil_is_bit_equal_to_the_branching_one_on_every_grid_shape() {
        for (nx, ny) in [
            (1, 1),
            (1, 5),
            (5, 1),
            (2, 2),
            (2, 7),
            (3, 3),
            (9, 4),
            (64, 64),
        ] {
            let grid = Grid2D::rectangle(nx, ny, 1.0, 1.7);
            let v = wavy(grid.len(), nx + ny);
            let mut expected = vec![0.0; grid.len()];
            oracle::apply(grid, 1.0, 0.01, &v, &mut expected);
            let op = HeatOperator::new(grid, 1.0, 0.01);
            let mut out = vec![f64::NAN; grid.len()];
            op.apply(&v, &mut out);
            assert_eq!(out, expected, "{nx}x{ny}");
        }
    }

    #[test]
    fn dot_adds_eight_partial_sums_in_a_fixed_order() {
        for n in [0, 1, 7, 8, 9, 16, 37, 4096] {
            let (a, b) = (wavy(n, 1), wavy(n, 2));
            let mut lanes = [0.0f64; 8];
            let full = n - n % 8;
            for k in 0..full {
                lanes[k % 8] += a[k] * b[k];
            }
            let tail: f64 = (full..n).map(|k| a[k] * b[k]).sum();
            let expected = (((lanes[0] + lanes[4]) + (lanes[2] + lanes[6]))
                + ((lanes[1] + lanes[5]) + (lanes[3] + lanes[7])))
                + tail;
            assert_eq!(dot(&a, &b), expected, "n = {n}");
            let scale = 1.0 + oracle::dot(&a, &b).abs();
            assert!((dot(&a, &b) - oracle::dot(&a, &b)).abs() <= 1e-12 * scale);
        }
    }

    #[test]
    fn operator_is_symmetric() {
        let op = op(6);
        let n = op.grid.len();
        // Check <Av, w> == <v, Aw> for a few random-ish vectors.
        let v: Vec<f64> = (0..n).map(|k| ((k * 7 + 3) % 11) as f64 - 5.0).collect();
        let w: Vec<f64> = (0..n).map(|k| ((k * 13 + 1) % 17) as f64 - 8.0).collect();
        let mut av = vec![0.0; n];
        let mut aw = vec![0.0; n];
        op.apply(&v, &mut av);
        op.apply(&w, &mut aw);
        assert!((dot(&av, &w) - dot(&v, &aw)).abs() < 1e-8);
    }

    #[test]
    fn operator_is_positive_definite_on_samples() {
        let op = op(5);
        let n = op.grid.len();
        for seed in 0..5u64 {
            let v: Vec<f64> = (0..n)
                .map(|k| (((k as u64 + seed * 31) * 2654435761) % 1000) as f64 / 500.0 - 1.0)
                .collect();
            if v.iter().all(|&x| x == 0.0) {
                continue;
            }
            let mut av = vec![0.0; n];
            op.apply(&v, &mut av);
            assert!(dot(&v, &av) > 0.0);
        }
    }

    #[test]
    fn cg_solves_manufactured_system() {
        let op = op(8);
        let n = op.grid.len();
        let x_true: Vec<f64> = (0..n).map(|k| (k as f64 * 0.37).sin()).collect();
        let mut b = vec![0.0; n];
        op.apply(&x_true, &mut b);
        let mut x = vec![0.0; n];
        let report = ConjugateGradient::default().solve(&op, &b, &mut x);
        assert!(report.converged, "CG failed: {report:?}");
        let err: f64 = x
            .iter()
            .zip(&x_true)
            .map(|(a, b)| (a - b) * (a - b))
            .sum::<f64>()
            .sqrt();
        assert!(err < 1e-6, "error too large: {err}");
    }

    #[test]
    fn cg_zero_rhs_gives_zero_solution() {
        let op = op(4);
        let n = op.grid.len();
        let b = vec![0.0; n];
        let mut x = vec![1.0; n];
        let report = ConjugateGradient::default().solve(&op, &b, &mut x);
        assert!(report.converged);
        assert!(x.iter().all(|&v| v == 0.0));
    }

    #[test]
    fn cg_warm_start_converges_immediately_on_exact_guess() {
        let op = op(6);
        let n = op.grid.len();
        let x_true: Vec<f64> = (0..n).map(|k| k as f64).collect();
        let mut b = vec![0.0; n];
        op.apply(&x_true, &mut b);
        let mut x = x_true.clone();
        let report = ConjugateGradient::default().solve(&op, &b, &mut x);
        assert_eq!(report.iterations, 0);
        assert!(report.converged);
    }

    #[test]
    fn axpy_and_dot_basics() {
        let x = vec![1.0, 2.0, 3.0];
        let mut y = vec![10.0, 20.0, 30.0];
        axpy(2.0, &x, &mut y);
        assert_eq!(y, vec![12.0, 24.0, 36.0]);
        assert_eq!(dot(&x, &x), 14.0);
    }
}
