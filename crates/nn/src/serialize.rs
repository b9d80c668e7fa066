//! Model checkpointing.
//!
//! The paper's server is regularly checkpointed so a failed server can be
//! restarted from the last checkpoint (§3.1). [`ModelCheckpoint`] is the
//! model's share of one: architecture, weights and progress counters. Its JSON
//! form ([`save_mlp`] / [`load_mlp`]) serves inspection and the inference
//! examples; the server's durable files (`melissa::durable`) hold the weights,
//! and the optimizer's [`crate::Adam::moments`], as raw little-endian bytes.

use crate::mlp::{Mlp, MlpConfig};
use serde::{Deserialize, Serialize};

/// A serialisable snapshot of a model.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ModelCheckpoint {
    /// Architecture and seed the model was built from.
    pub config: MlpConfig,
    /// Flattened parameters (layer order: weights then biases).
    pub params: Vec<f32>,
    /// Number of optimizer steps taken when the checkpoint was written.
    pub batches_trained: usize,
    /// Number of training samples consumed when the checkpoint was written.
    pub samples_seen: usize,
}

impl ModelCheckpoint {
    /// Captures a checkpoint from a live model.
    pub fn capture(model: &Mlp, batches_trained: usize, samples_seen: usize) -> Self {
        Self {
            config: model.config().clone(),
            params: model.params_flat(),
            batches_trained,
            samples_seen,
        }
    }

    /// Rebuilds the model from the checkpoint.
    pub fn restore(&self) -> Mlp {
        let mut model = Mlp::new(self.config.clone());
        model.set_params_flat(&self.params);
        model
    }
}

/// Serialises a model checkpoint to JSON.
pub fn save_mlp(
    model: &Mlp,
    batches_trained: usize,
    samples_seen: usize,
) -> Result<String, serde_json::Error> {
    let checkpoint = ModelCheckpoint::capture(model, batches_trained, samples_seen);
    serde_json::to_string(&checkpoint)
}

/// Restores a model checkpoint from JSON.
pub fn load_mlp(json: &str) -> Result<ModelCheckpoint, serde_json::Error> {
    serde_json::from_str(json)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::init::InitScheme;
    use crate::matrix::Matrix;
    use crate::mlp::Activation;

    fn model() -> Mlp {
        Mlp::new(MlpConfig {
            layer_sizes: vec![4, 8, 3],
            activation: Activation::ReLU,
            init: InitScheme::HeUniform,
            seed: 77,
        })
    }

    #[test]
    fn checkpoint_roundtrip_preserves_predictions() {
        let m = model();
        let json = save_mlp(&m, 123, 4560).unwrap();
        let checkpoint = load_mlp(&json).unwrap();
        assert_eq!(checkpoint.batches_trained, 123);
        assert_eq!(checkpoint.samples_seen, 4560);
        let restored = checkpoint.restore();
        let x = Matrix::from_rows(&[vec![0.1, -0.5, 0.3, 0.9]]);
        assert_eq!(m.predict(&x), restored.predict(&x));
    }

    #[test]
    fn checkpoint_captures_parameter_changes() {
        let mut m = model();
        let before = ModelCheckpoint::capture(&m, 0, 0);
        let shifted: Vec<f32> = m.params_flat().iter().map(|p| p + 0.1).collect();
        m.set_params_flat(&shifted);
        let after = ModelCheckpoint::capture(&m, 1, 10);
        assert_ne!(before.params, after.params);
        assert_eq!(before.params.len(), after.params.len());
    }

    #[test]
    fn load_rejects_garbage() {
        assert!(load_mlp("not json").is_err());
    }
}
