//! Seeded weight initialisation schemes.
//!
//! The paper seeds the network weight initialisation for reproducibility; the
//! same holds here. He (Kaiming) initialisation suits the ReLU surrogate used
//! in the paper, Xavier suits tanh baselines.
//!
//! The uniform schemes draw what `Uniform::new_inclusive(-bound, bound)`
//! draws from the seeded `ChaCha8Rng`, one `next_u64` per weight. Where the
//! dispatch layer has vector kernels (AVX2), the words come from
//! [`simd::chacha8_keystream`] and become weights in
//! [`simd::uniform_from_words`], four per step; elsewhere the weights are
//! drawn one at a time. Both routes give the same weights bit for bit.

use crate::simd;
use rand::distributions::{Distribution, Uniform};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use serde::{Deserialize, Serialize};

/// The available weight-initialisation schemes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize, Default)]
pub enum InitScheme {
    /// He/Kaiming uniform: `U(-√(6/fan_in), +√(6/fan_in))`, suited to ReLU.
    #[default]
    HeUniform,
    /// Xavier/Glorot uniform: `U(-√(6/(fan_in+fan_out)), +…)`, suited to tanh.
    XavierUniform,
    /// All weights zero (useful for tests of the optimizer plumbing).
    Zeros,
}

/// Deterministic weight generator for one model instance.
#[derive(Debug, Clone)]
pub struct WeightInit {
    scheme: InitScheme,
    rng: ChaCha8Rng,
}

impl WeightInit {
    /// Creates a seeded initialiser.
    pub fn new(scheme: InitScheme, seed: u64) -> Self {
        Self {
            scheme,
            rng: ChaCha8Rng::seed_from_u64(seed),
        }
    }

    /// Generates the weight matrix (`fan_out × fan_in` entries, row-major) for a
    /// linear layer.
    pub fn weights(&mut self, fan_in: usize, fan_out: usize) -> Vec<f32> {
        let n = fan_in * fan_out;
        match self.scheme {
            InitScheme::Zeros => vec![0.0; n],
            InitScheme::HeUniform => {
                let bound = (6.0 / fan_in as f64).sqrt() as f32;
                self.uniform(n, bound)
            }
            InitScheme::XavierUniform => {
                let bound = (6.0 / (fan_in + fan_out) as f64).sqrt() as f32;
                self.uniform(n, bound)
            }
        }
    }

    /// Generates the bias vector for a linear layer (always zeros, the common choice).
    pub fn biases(&mut self, fan_out: usize) -> Vec<f32> {
        vec![0.0; fan_out]
    }

    /// `n` draws of `U[-bound, bound]`: key-stream words from
    /// [`simd::chacha8_keystream`] in stack-buffer chunks of 1,024 words,
    /// each chunk's pairs mapped by [`simd::uniform_from_words`] (the f64
    /// arithmetic of `Uniform::new_inclusive`) straight into the preallocated
    /// weights, or else the per-draw loop; the weights and the generator's
    /// final position agree bit for bit.
    fn uniform(&mut self, n: usize, bound: f32) -> Vec<f32> {
        let dist = Uniform::new_inclusive(-bound, bound);
        let (low, high) = (-bound as f64, bound as f64);
        let isa = simd::detect();
        let mut weights = vec![0.0; n];
        let mut words = [0u32; 1024];
        let mut filled = 0;
        while filled < n {
            let draws = (n - filled).min(words.len() / 2);
            let chunk = &mut words[..2 * draws];
            if simd::chacha8_keystream(isa, &mut self.rng, chunk) {
                let out = &mut weights[filled..filled + draws];
                simd::uniform_from_words(isa, chunk, low, high, out);
                filled += draws;
            } else {
                weights[filled] = dist.sample(&mut self.rng);
                filled += 1;
            }
        }
        weights
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_weights() {
        let mut a = WeightInit::new(InitScheme::HeUniform, 42);
        let mut b = WeightInit::new(InitScheme::HeUniform, 42);
        assert_eq!(a.weights(16, 8), b.weights(16, 8));
    }

    #[test]
    fn different_seeds_differ() {
        let mut a = WeightInit::new(InitScheme::HeUniform, 1);
        let mut b = WeightInit::new(InitScheme::HeUniform, 2);
        assert_ne!(a.weights(16, 8), b.weights(16, 8));
    }

    #[test]
    fn he_uniform_respects_bound() {
        let mut init = WeightInit::new(InitScheme::HeUniform, 3);
        let fan_in = 64;
        let bound = (6.0f64 / fan_in as f64).sqrt() as f32;
        let w = init.weights(fan_in, 32);
        assert_eq!(w.len(), fan_in * 32);
        assert!(w.iter().all(|&v| v.abs() <= bound + 1e-6));
        // Not degenerate: some spread.
        assert!(w.iter().any(|&v| v > bound * 0.5));
        assert!(w.iter().any(|&v| v < -bound * 0.5));
    }

    #[test]
    fn xavier_bound_is_smaller_with_larger_fan_out() {
        let mut narrow = WeightInit::new(InitScheme::XavierUniform, 5);
        let mut wide = WeightInit::new(InitScheme::XavierUniform, 5);
        let w_narrow = narrow.weights(32, 8);
        let w_wide = wide.weights(32, 512);
        let max_narrow = w_narrow.iter().fold(0.0f32, |m, v| m.max(v.abs()));
        let max_wide = w_wide.iter().fold(0.0f32, |m, v| m.max(v.abs()));
        assert!(max_wide < max_narrow);
    }

    #[test]
    fn zeros_scheme_and_biases() {
        let mut init = WeightInit::new(InitScheme::Zeros, 0);
        assert!(init.weights(4, 4).iter().all(|&v| v == 0.0));
        assert!(init.biases(7).iter().all(|&v| v == 0.0));
        assert_eq!(init.biases(7).len(), 7);
    }
}
