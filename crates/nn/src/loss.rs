//! The training loss: the scalar loss and its output gradient in one pass.

use crate::matrix::Matrix;
use crate::simd::{self, FlushGuard};

/// A differentiable loss over a batch of predictions and targets.
pub trait Loss: Send + Sync {
    /// Writes `dLoss/dPred` into a caller-provided buffer and returns the
    /// scalar loss, without allocating and with subnormals flushed (see
    /// "Numeric contracts" in [`crate::simd`]).
    ///
    /// # Panics
    /// Implementations panic when the shapes of `prediction`, `target` and
    /// `grad` differ.
    fn evaluate_into(&self, prediction: &Matrix, target: &Matrix, grad: &mut Matrix) -> f32;

    /// Human-readable loss name.
    fn name(&self) -> &'static str;
}

/// Mean squared error — the loss used by the paper (its tables report MSE).
#[derive(Debug, Clone, Copy, Default)]
pub struct MseLoss;

impl MseLoss {
    /// `Σ (prediction − target)²` over the whole batch, without a gradient,
    /// summed in the order [`Loss::evaluate_into`] sums (the fixed 8-lane tree
    /// of "Numeric contracts" in [`crate::simd`]) and with subnormals flushed.
    ///
    /// # Panics
    /// Panics when the shapes of `prediction` and `target` differ.
    pub fn squared_error_sum(&self, prediction: &Matrix, target: &Matrix) -> f32 {
        let _flush = FlushGuard::enter();
        assert_eq!(prediction.rows(), target.rows(), "batch size mismatch");
        assert_eq!(prediction.cols(), target.cols(), "output size mismatch");
        simd::squared_error_sum(simd::detect(), prediction.data(), target.data())
    }
}

impl Loss for MseLoss {
    /// One fused pass computing the loss and writing the gradient: the
    /// gradient is `diff · 2/n` element by element, and the loss is the
    /// squared-error sum in the fixed 8-lane tree order (see "Numeric
    /// contracts" in [`crate::simd`]) divided by `n`.
    fn evaluate_into(&self, prediction: &Matrix, target: &Matrix, grad: &mut Matrix) -> f32 {
        let _flush = FlushGuard::enter();
        assert_eq!(prediction.rows(), target.rows(), "batch size mismatch");
        assert_eq!(prediction.cols(), target.cols(), "output size mismatch");
        assert_eq!(grad.rows(), prediction.rows(), "gradient buffer rows");
        assert_eq!(grad.cols(), prediction.cols(), "gradient buffer cols");
        let n = (prediction.rows() * prediction.cols()) as f32;
        let scale = 2.0 / n;
        let sum = simd::mse_fused(
            simd::detect(),
            prediction.data(),
            target.data(),
            scale,
            grad.data_mut(),
        );
        if n == 0.0 {
            return 0.0;
        }
        sum / n
    }

    fn name(&self) -> &'static str {
        "mse"
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mse_of_equal_tensors_is_zero() {
        let a = Matrix::from_rows(&[vec![1.0, 2.0], vec![3.0, 4.0]]);
        let mut grad = Matrix::zeros(2, 2);
        let loss = MseLoss.evaluate_into(&a, &a, &mut grad);
        assert_eq!(loss, 0.0);
        assert!(grad.data().iter().all(|&g| g == 0.0));
    }

    #[test]
    fn mse_known_value_and_gradient() {
        let pred = Matrix::from_rows(&[vec![1.0, 2.0]]);
        let target = Matrix::from_rows(&[vec![0.0, 0.0]]);
        let mut grad = Matrix::zeros(1, 2);
        let loss = MseLoss.evaluate_into(&pred, &target, &mut grad);
        assert!((loss - 2.5).abs() < 1e-6); // (1 + 4) / 2
        assert!((grad.get(0, 0) - 1.0).abs() < 1e-6); // 2 * 1 / 2
        assert!((grad.get(0, 1) - 2.0).abs() < 1e-6); // 2 * 2 / 2
    }

    #[test]
    #[should_panic(expected = "batch size mismatch")]
    fn mse_rejects_mismatched_batches() {
        let a = Matrix::zeros(2, 3);
        let b = Matrix::zeros(3, 3);
        let _ = MseLoss.evaluate_into(&a, &b, &mut Matrix::zeros(2, 3));
    }
}
