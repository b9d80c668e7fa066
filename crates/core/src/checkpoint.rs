//! Server checkpointing for fault tolerance.
//!
//! §3.1: *"The server is regularly checkpointed. If a server failure is
//! detected by the launcher, it first kills all running clients and next
//! restarts a new server instance from the last checkpoint."* A checkpoint
//! captures the model weights, the optimizer state, the progress counters and
//! the simulations already fully received, so a restarted server continues the
//! same optimization and asks the launcher to rerun only the missing clients.

use serde::{Deserialize, Serialize};
use surrogate_nn::{Adam, Mlp, ModelCheckpoint};

/// A restartable snapshot of the training server.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ServerCheckpoint {
    /// The model weights and architecture.
    pub model: ModelCheckpoint,
    /// Number of batches trained when the checkpoint was taken.
    pub batches_trained: usize,
    /// Number of training samples consumed when the checkpoint was taken.
    pub samples_seen: usize,
    /// Identifiers of the ensemble members whose data had been fully received.
    pub completed_simulations: Vec<u64>,
    /// The experiment seed, to re-derive samplers and buffers on restart.
    pub experiment_seed: u64,
    /// The optimizer (identical on every rank) when the checkpoint was taken;
    /// a resumed rank continues from a copy of it. `None` — a bare `capture`,
    /// or a file older than durable format 2 — resumes with a fresh one.
    #[serde(default)]
    pub optimizer: Option<Adam>,
}

impl ServerCheckpoint {
    /// Captures a checkpoint without optimizer state; the training loop sets
    /// [`ServerCheckpoint::optimizer`] on what it captures.
    pub fn capture(
        model: &Mlp,
        batches_trained: usize,
        samples_seen: usize,
        completed_simulations: Vec<u64>,
        experiment_seed: u64,
    ) -> Self {
        Self {
            model: ModelCheckpoint::capture(model, batches_trained, samples_seen),
            batches_trained,
            samples_seen,
            completed_simulations,
            experiment_seed,
            optimizer: None,
        }
    }

    /// Serialises the checkpoint to JSON.
    pub fn to_json(&self) -> Result<String, serde_json::Error> {
        serde_json::to_string(self)
    }

    /// Restores a checkpoint from JSON.
    pub fn from_json(json: &str) -> Result<Self, serde_json::Error> {
        serde_json::from_str(json)
    }

    /// Rebuilds the model from the checkpoint.
    pub fn restore_model(&self) -> Mlp {
        self.model.restore()
    }

    /// The simulations that still need to run given a total campaign size
    /// (the restarted server asks the launcher to submit exactly these).
    pub fn missing_simulations(&self, total_simulations: u64) -> Vec<u64> {
        (0..total_simulations)
            .filter(|id| !self.completed_simulations.contains(id))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use surrogate_nn::{Activation, InitScheme, Matrix, MlpConfig};

    fn model() -> Mlp {
        Mlp::new(MlpConfig {
            layer_sizes: vec![6, 8, 4],
            activation: Activation::ReLU,
            init: InitScheme::HeUniform,
            seed: 3,
        })
    }

    #[test]
    fn checkpoint_roundtrip_preserves_model_and_progress() {
        let m = model();
        let checkpoint = ServerCheckpoint::capture(&m, 120, 1200, vec![0, 1, 2], 77);
        let json = checkpoint.to_json().unwrap();
        let restored = ServerCheckpoint::from_json(&json).unwrap();
        assert_eq!(restored.batches_trained, 120);
        assert_eq!(restored.samples_seen, 1200);
        assert_eq!(restored.completed_simulations, vec![0, 1, 2]);
        assert_eq!(restored.experiment_seed, 77);
        let x = Matrix::from_rows(&[vec![0.1, 0.2, 0.3, 0.4, 0.5, 0.6]]);
        assert_eq!(m.predict(&x), restored.restore_model().predict(&x));
    }

    #[test]
    fn missing_simulations_complement_completed_ones() {
        let checkpoint = ServerCheckpoint::capture(&model(), 0, 0, vec![1, 3], 0);
        assert_eq!(checkpoint.missing_simulations(5), vec![0, 2, 4]);
        assert!(checkpoint.missing_simulations(2).contains(&0));
    }

    #[test]
    fn from_json_rejects_garbage() {
        assert!(ServerCheckpoint::from_json("{}").is_err());
    }
}
