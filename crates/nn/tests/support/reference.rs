//! The naive training step the production path is pinned to.
//!
//! This is the crate's original allocating forward/backward pass, kept as a
//! test oracle: i-k-j matrix products that skip zero entries of the left
//! operand, the activation derivative evaluated on the *pre-activation*, and
//! MSE as `sub → mean_square → ×2/n`, whose sum runs in the crate's 8-lane
//! tree order. The production step (`forward_ws` / `MseLoss::evaluate_into`
//! / `backward_ws`) must reproduce it bit for bit wherever no subnormal
//! arises.
//!
//! Nothing here sets a floating-point mode: the oracle runs in whatever mode
//! the calling thread is in (gradual underflow on a default thread), while the
//! production entry points always flush subnormals. A pin that feeds the
//! oracle an underflowing batch therefore sees the subnormals the production
//! path flushes.
//!
//! It also holds the per-draw route of the initial weights: `Uniform` sampled
//! from a generator that replays given key-stream words.
//!
//! Include it with `#[path = "support/reference.rs"] mod reference;`.

// Each test crate uses a different subset of the oracle.
#![allow(dead_code)]

use rand::distributions::{Distribution, Uniform};
use rand::RngCore;
use surrogate_nn::{Activation, Matrix, Mlp};

/// Matrix product `a · b`, i-k-j order, skipping zero entries of `a`.
///
/// # Panics
/// Panics when the inner dimensions do not match.
pub fn matmul(a: &Matrix, b: &Matrix) -> Matrix {
    assert_eq!(
        a.cols(),
        b.rows(),
        "matmul dimension mismatch: {}×{} · {}×{}",
        a.rows(),
        a.cols(),
        b.rows(),
        b.cols()
    );
    let mut out = Matrix::zeros(a.rows(), b.cols());
    let n = b.cols();
    for i in 0..a.rows() {
        let a_row = a.row(i);
        let out_row = &mut out.data_mut()[i * n..(i + 1) * n];
        for (k, &a_ik) in a_row.iter().enumerate() {
            if a_ik == 0.0 {
                continue;
            }
            let b_row = b.row(k);
            for (o, &b) in out_row.iter_mut().zip(b_row) {
                *o += a_ik * b;
            }
        }
    }
    out
}

/// `aᵀ · b` without materialising the transpose, skipping zero entries of `a`.
pub fn transpose_matmul(a: &Matrix, b: &Matrix) -> Matrix {
    assert_eq!(a.rows(), b.rows(), "transpose_matmul dimension mismatch");
    let mut out = Matrix::zeros(a.cols(), b.cols());
    let n = b.cols();
    for r in 0..a.rows() {
        let a_row = a.row(r);
        let b_row = b.row(r);
        for (i, &a) in a_row.iter().enumerate() {
            if a == 0.0 {
                continue;
            }
            let out_row = &mut out.data_mut()[i * n..(i + 1) * n];
            for (o, &b) in out_row.iter_mut().zip(b_row) {
                *o += a * b;
            }
        }
    }
    out
}

/// `a · bᵀ` without materialising the transpose: one ascending dot product
/// per output element.
pub fn matmul_transpose(a: &Matrix, b: &Matrix) -> Matrix {
    assert_eq!(a.cols(), b.cols(), "matmul_transpose dimension mismatch");
    let mut out = Matrix::zeros(a.rows(), b.rows());
    for i in 0..a.rows() {
        let a_row = a.row(i);
        for j in 0..b.rows() {
            let b_row = b.row(j);
            let mut acc = 0.0;
            for (a, b) in a_row.iter().zip(b_row) {
                acc += a * b;
            }
            out.data_mut()[i * b.rows() + j] = acc;
        }
    }
    out
}

/// Derivative of `activation` with respect to the pre-activation value `x`.
pub fn derivative(activation: Activation, x: f32) -> f32 {
    match activation {
        Activation::ReLU => {
            if x > 0.0 {
                1.0
            } else {
                0.0
            }
        }
        Activation::Tanh => {
            let t = x.tanh();
            1.0 - t * t
        }
        Activation::Sigmoid => {
            let s = 1.0 / (1.0 + (-x).exp());
            s * (1.0 - s)
        }
        Activation::Identity => 1.0,
    }
}

/// Element-wise map into a freshly allocated matrix.
fn map(m: &Matrix, f: impl Fn(f32) -> f32) -> Matrix {
    Matrix::from_vec(m.rows(), m.cols(), m.data().iter().map(|&v| f(v)).collect())
}

/// Adds a row vector to every row (bias broadcast).
fn add_row_broadcast(m: &mut Matrix, bias: &[f32]) {
    assert_eq!(bias.len(), m.cols(), "bias length mismatch");
    let cols = m.cols();
    for r in 0..m.rows() {
        let row = &mut m.data_mut()[r * cols..(r + 1) * cols];
        for (v, b) in row.iter_mut().zip(bias) {
            *v += b;
        }
    }
}

/// Element-wise product in place.
fn hadamard_assign(m: &mut Matrix, other: &Matrix) {
    assert_eq!(m.rows(), other.rows());
    assert_eq!(m.cols(), other.cols());
    for (a, b) in m.data_mut().iter_mut().zip(other.data()) {
        *a *= b;
    }
}

/// Column-wise sums.
fn column_sums(m: &Matrix) -> Vec<f32> {
    let mut sums = vec![0.0; m.cols()];
    m.add_column_sums_to(&mut sums);
    sums
}

/// Element-wise subtraction `a − b`.
fn sub(a: &Matrix, b: &Matrix) -> Matrix {
    assert_eq!(a.rows(), b.rows());
    assert_eq!(a.cols(), b.cols());
    Matrix::from_vec(
        a.rows(),
        a.cols(),
        a.data().iter().zip(b.data()).map(|(a, b)| a - b).collect(),
    )
}

/// Sum of the squared values in the crate's MSE order: value `k` into lane
/// `k mod 8` up to the last full block of eight, the lanes folded as
/// `(((l0+l4)+(l2+l6))+((l1+l5)+(l3+l7)))`, then the serial sum of the rest
/// added.
pub fn sum_of_squares(values: &[f32]) -> f32 {
    let blocked = values.len() - values.len() % 8;
    let mut l = [0.0f32; 8];
    for (k, v) in values[..blocked].iter().enumerate() {
        l[k % 8] += v * v;
    }
    let mut tail = 0.0f32;
    for v in &values[blocked..] {
        tail += v * v;
    }
    (((l[0] + l[4]) + (l[2] + l[6])) + ((l[1] + l[5]) + (l[3] + l[7]))) + tail
}

/// Mean of the squared elements.
fn mean_square(m: &Matrix) -> f32 {
    if m.data().is_empty() {
        return 0.0;
    }
    sum_of_squares(m.data()) / m.data().len() as f32
}

/// Mean squared error: `(loss, dLoss/dPrediction)`.
///
/// # Panics
/// Panics when the shapes differ.
pub fn mse(prediction: &Matrix, target: &Matrix) -> (f32, Matrix) {
    assert_eq!(prediction.rows(), target.rows(), "batch size mismatch");
    assert_eq!(prediction.cols(), target.cols(), "output size mismatch");
    let diff = sub(prediction, target);
    let loss = mean_square(&diff);
    let n = (diff.rows() * diff.cols()) as f32;
    let factor = 2.0 / n;
    let mut grad = diff;
    for v in grad.data_mut() {
        *v *= factor;
    }
    (loss, grad)
}

/// What [`backward`] needs from the matching [`forward`]: every layer's
/// input and pre-activation.
pub struct Trace {
    inputs: Vec<Matrix>,
    preacts: Vec<Matrix>,
}

/// Forward pass `act(x · W + b)` layer by layer; returns the network output
/// and the trace [`backward`] consumes.
pub fn forward(model: &Mlp, input: &Matrix) -> (Matrix, Trace) {
    let mut trace = Trace {
        inputs: Vec::new(),
        preacts: Vec::new(),
    };
    let mut x = input.clone();
    for layer in model.layers() {
        let mut pre = matmul(&x, &layer.weights);
        add_row_broadcast(&mut pre, &layer.biases);
        let activation = layer.activation;
        let out = map(&pre, |v| activation.apply(v));
        trace.inputs.push(x);
        trace.preacts.push(pre);
        x = out;
    }
    (x, trace)
}

/// Backward pass from dLoss/dOutput. Returns the parameter gradients in
/// [`Mlp::params_flat`] order, accumulated onto a zeroed vector, and the
/// gradient with respect to the network input.
pub fn backward(model: &Mlp, trace: &Trace, grad_output: &Matrix) -> (Vec<f32>, Matrix) {
    let mut grads = vec![0.0f32; model.param_count()];
    let mut grad = grad_output.clone();
    let mut end = grads.len();
    for (l, layer) in model.layers().iter().enumerate().rev() {
        let start = end - layer.param_count();
        let (grad_weights, grad_biases) =
            grads[start..end].split_at_mut(layer.weights.data().len());
        end = start;

        // grad_pre = grad_output ⊙ act'(pre)
        let activation = layer.activation;
        let mut grad_pre = map(&trace.preacts[l], |v| derivative(activation, v));
        hadamard_assign(&mut grad_pre, &grad);

        let gw = transpose_matmul(&trace.inputs[l], &grad_pre);
        assert_eq!(
            grad_weights.len(),
            gw.data().len(),
            "weight-gradient length"
        );
        for (a, g) in grad_weights.iter_mut().zip(gw.data()) {
            *a += g;
        }
        assert_eq!(
            grad_biases.len(),
            layer.biases.len(),
            "bias-gradient length"
        );
        for (b, g) in grad_biases.iter_mut().zip(column_sums(&grad_pre)) {
            *b += g;
        }

        // Gradient w.r.t. the layer input: grad_pre · Wᵀ.
        grad = matmul_transpose(&grad_pre, &layer.weights);
    }
    (grads, grad)
}

/// A generator that returns the given key-stream words, in order, as
/// `ChaCha8Rng` returns its own: `next_u64` is two words, low word first.
struct Replay<'a>(std::slice::Iter<'a, u32>);

impl RngCore for Replay<'_> {
    fn next_u32(&mut self) -> u32 {
        *self.0.next().expect("a word for every draw")
    }

    fn next_u64(&mut self) -> u64 {
        let low = u64::from(self.next_u32());
        low | u64::from(self.next_u32()) << 32
    }
}

/// One f32 draw of `U[low, high]` per word pair: the vendored
/// `Uniform::<f64>::new_inclusive(low, high)` sampled from a generator that
/// replays `words`, rounded to f32 — the per-draw route of `WeightInit`.
pub fn uniform_from_words(words: &[u32], low: f64, high: f64) -> Vec<f32> {
    let dist = Uniform::new_inclusive(low, high);
    let mut rng = Replay(words.iter());
    (0..words.len() / 2)
        .map(|_| dist.sample(&mut rng) as f32)
        .collect()
}
