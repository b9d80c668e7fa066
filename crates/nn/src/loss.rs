//! Loss functions returning both the scalar loss and its output gradient.

use crate::matrix::Matrix;
use crate::simd::{self, FlushGuard};

/// A differentiable loss over a batch of predictions and targets.
pub trait Loss: Send + Sync {
    /// Returns `(loss, dLoss/dPred)` for a batch.
    fn evaluate(&self, prediction: &Matrix, target: &Matrix) -> (f32, Matrix);

    /// Returns only the scalar loss (no gradient), e.g. for validation.
    fn value(&self, prediction: &Matrix, target: &Matrix) -> f32 {
        self.evaluate(prediction, target).0
    }

    /// Writes `dLoss/dPred` into a caller-provided buffer and returns the
    /// scalar loss. The default forwards to [`Loss::evaluate`] (allocating);
    /// hot-path losses override it with an allocation-free implementation.
    ///
    /// # Panics
    /// Implementations panic when `grad` does not match the prediction shape.
    fn evaluate_into(&self, prediction: &Matrix, target: &Matrix, grad: &mut Matrix) -> f32 {
        let _flush = FlushGuard::enter();
        let (loss, g) = self.evaluate(prediction, target);
        assert_eq!(grad.rows(), g.rows(), "gradient buffer rows");
        assert_eq!(grad.cols(), g.cols(), "gradient buffer cols");
        grad.data_mut().copy_from_slice(g.data());
        loss
    }

    /// Human-readable loss name.
    fn name(&self) -> &'static str;
}

/// Mean squared error — the loss used by the paper (its tables report MSE).
#[derive(Debug, Clone, Copy, Default)]
pub struct MseLoss;

impl Loss for MseLoss {
    fn evaluate(&self, prediction: &Matrix, target: &Matrix) -> (f32, Matrix) {
        assert_eq!(prediction.rows(), target.rows(), "batch size mismatch");
        assert_eq!(prediction.cols(), target.cols(), "output size mismatch");
        let diff = prediction.sub(target);
        let loss = diff.mean_square();
        let n = (diff.rows() * diff.cols()) as f32;
        let mut grad = diff;
        grad.scale_assign(2.0 / n);
        (loss, grad)
    }

    fn value(&self, prediction: &Matrix, target: &Matrix) -> f32 {
        prediction.sub(target).mean_square()
    }

    /// Allocation-free MSE: one fused pass computing the loss and writing the
    /// gradient, bit-compatible with [`MseLoss::evaluate`] (same element order,
    /// same `diff · 2/n` scaling).
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

/// Mean absolute error — a robust alternative used in ablations.
#[derive(Debug, Clone, Copy, Default)]
pub struct MaeLoss;

impl Loss for MaeLoss {
    fn evaluate(&self, prediction: &Matrix, target: &Matrix) -> (f32, Matrix) {
        assert_eq!(prediction.rows(), target.rows(), "batch size mismatch");
        assert_eq!(prediction.cols(), target.cols(), "output size mismatch");
        let mut diff = prediction.sub(target);
        let n = (diff.rows() * diff.cols()) as f32;
        let loss = diff.data().iter().map(|v| v.abs()).sum::<f32>() / n;
        diff.apply_mut(|v| v.signum() / n);
        (loss, diff)
    }

    fn name(&self) -> &'static str {
        "mae"
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mse_of_equal_tensors_is_zero() {
        let a = Matrix::from_rows(&[vec![1.0, 2.0], vec![3.0, 4.0]]);
        let (loss, grad) = MseLoss.evaluate(&a, &a);
        assert_eq!(loss, 0.0);
        assert!(grad.data().iter().all(|&g| g == 0.0));
    }

    #[test]
    fn mse_known_value_and_gradient() {
        let pred = Matrix::from_rows(&[vec![1.0, 2.0]]);
        let target = Matrix::from_rows(&[vec![0.0, 0.0]]);
        let (loss, grad) = MseLoss.evaluate(&pred, &target);
        assert!((loss - 2.5).abs() < 1e-6); // (1 + 4) / 2
        assert!((grad.get(0, 0) - 1.0).abs() < 1e-6); // 2 * 1 / 2
        assert!((grad.get(0, 1) - 2.0).abs() < 1e-6); // 2 * 2 / 2
    }

    #[test]
    fn mae_known_value_and_gradient() {
        let pred = Matrix::from_rows(&[vec![1.0, -2.0]]);
        let target = Matrix::from_rows(&[vec![0.0, 0.0]]);
        let (loss, grad) = MaeLoss.evaluate(&pred, &target);
        assert!((loss - 1.5).abs() < 1e-6);
        assert!((grad.get(0, 0) - 0.5).abs() < 1e-6);
        assert!((grad.get(0, 1) + 0.5).abs() < 1e-6);
    }

    #[test]
    fn value_matches_evaluate() {
        let pred = Matrix::from_rows(&[vec![1.0, 2.0], vec![-1.0, 0.5]]);
        let target = Matrix::from_rows(&[vec![0.5, 2.0], vec![0.0, 0.0]]);
        assert_eq!(
            MseLoss.value(&pred, &target),
            MseLoss.evaluate(&pred, &target).0
        );
        assert_eq!(
            MaeLoss.value(&pred, &target),
            MaeLoss.evaluate(&pred, &target).0
        );
    }

    #[test]
    fn evaluate_into_matches_evaluate_bit_for_bit() {
        let pred = Matrix::from_rows(&[vec![1.0, 2.0, -0.5], vec![-1.0, 0.5, 3.0]]);
        let target = Matrix::from_rows(&[vec![0.5, 2.0, 0.0], vec![0.0, 0.0, 2.5]]);
        let (loss, grad) = MseLoss.evaluate(&pred, &target);
        let mut grad_buf = Matrix::zeros(2, 3);
        let loss_into = MseLoss.evaluate_into(&pred, &target, &mut grad_buf);
        assert_eq!(loss_into, loss);
        assert_eq!(grad_buf, grad);
        // The default (allocating) trait implementation agrees too.
        let mut mae_buf = Matrix::zeros(2, 3);
        let mae_into = MaeLoss.evaluate_into(&pred, &target, &mut mae_buf);
        let (mae_loss, mae_grad) = MaeLoss.evaluate(&pred, &target);
        assert_eq!(mae_into, mae_loss);
        assert_eq!(mae_buf, mae_grad);
    }

    #[test]
    fn names_are_distinct() {
        assert_ne!(MseLoss.name(), MaeLoss.name());
    }

    #[test]
    #[should_panic(expected = "batch size mismatch")]
    fn mse_rejects_mismatched_batches() {
        let a = Matrix::zeros(2, 3);
        let b = Matrix::zeros(3, 3);
        let _ = MseLoss.evaluate(&a, &b);
    }
}
