//! Bit-identical training regression for the prefetch pipeline.
//!
//! The prefetch stage is the buffer's only consumer, so the sample stream it
//! assembles — and therefore every forward/backward pass, collective and
//! optimizer step — must be *bit-identical* to the direct (non-prefetch)
//! path. A 50-round training run over a deterministic buffer is executed both
//! ways and the final parameters, loss histories and counters are compared
//! exactly.

use melissa::trainer::{RankOutcome, RankTrainer, TrainerShared};
use melissa::{OccurrenceTable, TrainingConfig};
use std::sync::Arc;
use std::time::Instant;
use surrogate_nn::{Activation, InitScheme, Mlp, MlpConfig, Sample};
use training_buffer::{build_buffer, BufferConfig, BufferKind, TrainingBuffer};

const BATCH_SIZE: usize = 4;
const ROUNDS: usize = 50;

fn sample(sim: u64, step: usize) -> Sample {
    let x = (sim as f32 * 0.37 + step as f32 * 0.013).fract();
    Sample::new(
        vec![x, 1.0 - x, x * x, 0.5 + 0.25 * x],
        (0..8)
            .map(|k| (x + k as f32 * 0.1).sin() * 0.5 + 0.5)
            .collect(),
        sim,
        step,
    )
}

fn model() -> Mlp {
    Mlp::new(MlpConfig {
        layer_sizes: vec![4, 24, 8],
        activation: Activation::ReLU,
        init: InitScheme::HeUniform,
        seed: 11,
    })
}

/// Runs one single-rank training over a freshly built, deterministic buffer.
/// With reception already over before training starts, the buffer serves a
/// fully deterministic stream (FIFO order, or the seeded Reservoir draws).
fn run(kind: BufferKind, total_samples: usize, prefetch: bool) -> RankOutcome {
    let buffer: Arc<dyn TrainingBuffer<Sample>> =
        Arc::from(build_buffer::<Sample>(&BufferConfig {
            kind,
            capacity: total_samples.max(8),
            threshold: 2,
            seed: 21,
        }));
    for k in 0..total_samples {
        buffer.put(sample((k % 16) as u64, k));
    }
    buffer.mark_reception_over();
    let config = TrainingConfig {
        batch_size: BATCH_SIZE,
        num_ranks: 1,
        validation_interval_batches: 0,
        gemm_threads: 1,
        prefetch,
        ..TrainingConfig::default()
    };
    let shared = Arc::new(TrainerShared::new(1, model().param_count()));
    let occurrences = OccurrenceTable::with_shape(16, total_samples);
    RankTrainer::new(0, model(), buffer, config, None, shared, occurrences).run(Instant::now())
}

fn assert_bit_identical(direct: &RankOutcome, prefetched: &RankOutcome, label: &str) {
    assert_eq!(
        direct.model.params_flat(),
        prefetched.model.params_flat(),
        "{label}: prefetch-on parameters diverged from prefetch-off"
    );
    assert_eq!(direct.rounds, prefetched.rounds, "{label}: round counts");
    assert_eq!(
        direct.batches_with_data, prefetched.batches_with_data,
        "{label}: batch counts"
    );
    assert_eq!(
        direct.samples_consumed, prefetched.samples_consumed,
        "{label}: sample counts"
    );
    assert_eq!(
        direct.occurrences, prefetched.occurrences,
        "{label}: occurrence accounting"
    );
    let direct_losses: Vec<f32> = direct.losses.iter().map(|p| p.train_loss).collect();
    let prefetched_losses: Vec<f32> = prefetched.losses.iter().map(|p| p.train_loss).collect();
    assert_eq!(
        direct_losses, prefetched_losses,
        "{label}: per-round loss history"
    );
}

#[test]
fn fifty_step_fifo_training_is_bit_identical_with_prefetch() {
    let total = BATCH_SIZE * ROUNDS;
    let direct = run(BufferKind::Fifo, total, false);
    let prefetched = run(BufferKind::Fifo, total, true);
    assert_eq!(direct.rounds, ROUNDS, "the run must cover 50 full batches");
    assert_bit_identical(&direct, &prefetched, "FIFO");
}

#[test]
fn reservoir_drain_training_is_bit_identical_with_prefetch() {
    // The Reservoir's seeded draws (including the partial drain tail) must be
    // replayed identically through the prefetch stage.
    let direct = run(BufferKind::Reservoir, 90, false);
    let prefetched = run(BufferKind::Reservoir, 90, true);
    assert!(direct.rounds > 0);
    assert_bit_identical(&direct, &prefetched, "Reservoir");
}

#[test]
fn firo_drain_training_is_bit_identical_with_prefetch() {
    let direct = run(BufferKind::Firo, 120, false);
    let prefetched = run(BufferKind::Firo, 120, true);
    assert_bit_identical(&direct, &prefetched, "FIRO");
}
