//! Multi-rank training pinned to literals: `RankTrainer` at one and two ranks
//! over pre-filled FIFO buffers of unequal length, so the ranks that drain
//! first run idle rounds (zero gradients) until the last one has drained. The
//! final parameters and both Adam moments of every rank's outcome are hashed,
//! so any change to the gradient reduction, the optimizer or the termination
//! protocol that moves a single bit shows here. At three and four ranks,
//! where the order of a sum over ranks decides its last bits, two runs must
//! end on the same bits.

use melissa::trainer::{RankOutcome, RankTrainer, TrainerShared};
use melissa::{OccurrenceTable, TrainingConfig};
use std::sync::Arc;
use std::time::Instant;
use surrogate_nn::{Activation, InitScheme, Mlp, MlpConfig, Sample};
use training_buffer::{FifoBuffer, TrainingBuffer};

const BATCH_SIZE: usize = 4;
const SIMULATIONS: usize = 16;
const STEPS: usize = 256;

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// FNV-1a over the bit patterns of `values`, in order.
fn fnv1a(values: &[f32]) -> u64 {
    let mut hash = FNV_OFFSET;
    for value in values {
        for byte in value.to_bits().to_le_bytes() {
            hash ^= u64::from(byte);
            hash = hash.wrapping_mul(FNV_PRIME);
        }
    }
    hash
}

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

/// 320 parameters: weights 0..96, biases 96..120, weights 120..312, biases
/// 312..320, so a split into 1/N ranges cuts through layers at every N > 1.
fn model() -> Mlp {
    Mlp::new(MlpConfig {
        layer_sizes: vec![4, 24, 8],
        activation: Activation::ReLU,
        init: InitScheme::HeUniform,
        seed: 11,
    })
}

/// Trains `batches.len()` ranks, rank `r` over a FIFO buffer holding
/// `batches[r]` full batches of its own sample stream, reception over before
/// training starts.
fn train(batches: &[usize]) -> Vec<RankOutcome> {
    let ranks = batches.len();
    let shared = Arc::new(TrainerShared::new(ranks, model().param_count()));
    let handles: Vec<_> = batches
        .iter()
        .enumerate()
        .map(|(rank, &count)| {
            let buffer: Arc<dyn TrainingBuffer<Sample>> = Arc::new(FifoBuffer::new(1024));
            for k in 0..count * BATCH_SIZE {
                buffer.put(sample((rank * 4 + k % 4) as u64, k));
            }
            buffer.mark_reception_over();
            let config = TrainingConfig {
                batch_size: BATCH_SIZE,
                num_ranks: ranks,
                validation_interval_batches: 0,
                gemm_threads: 1,
                lr_halving_samples: 40 * BATCH_SIZE,
                ..TrainingConfig::default()
            };
            let trainer = RankTrainer::new(
                rank,
                model(),
                buffer,
                config,
                None,
                Arc::clone(&shared),
                OccurrenceTable::with_shape(SIMULATIONS, STEPS),
            );
            std::thread::spawn(move || trainer.run(Instant::now()))
        })
        .collect();
    handles
        .into_iter()
        .map(|handle| handle.join().expect("a rank panicked"))
        .collect()
}

/// `(rounds, data batches, [params, first moment, second moment] hashes)`.
fn fingerprint(outcome: &RankOutcome) -> (usize, usize, [u64; 3]) {
    let (first, second) = outcome.optimizer.moments();
    (
        outcome.rounds,
        outcome.batches_with_data,
        [
            fnv1a(&outcome.model.params_flat()),
            fnv1a(first),
            fnv1a(second),
        ],
    )
}

fn fingerprints(batches: &[usize]) -> Vec<(usize, usize, [u64; 3])> {
    train(batches).iter().map(fingerprint).collect()
}

#[test]
fn one_rank_training_is_pinned() {
    let pins = fingerprints(&[30]);
    assert_eq!(
        pins,
        [(
            30,
            30,
            [
                0x60ad_e981_a4a8_d11b,
                0x52f7_6b06_344a_d4f4,
                0xe531_8279_804b_e6ad
            ]
        )],
        "{pins:#x?}"
    );
}

#[test]
fn two_rank_training_with_an_idle_tail_is_pinned() {
    // Rank 1 drains after 19 batches and runs 11 idle rounds.
    let pins = fingerprints(&[30, 19]);
    let expected = [
        0xe394_d242_27ce_4d89,
        0xffbd_35ed_6943_7c20,
        0xb616_6a27_6d14_f866,
    ];
    assert_eq!(pins, [(30, 30, expected), (30, 19, expected)], "{pins:#x?}");
}

#[test]
fn three_and_four_ranks_train_the_same_bits_on_every_run() {
    // More rank threads than a two-core host has cores, so which rank
    // contributes first changes from round to round and from run to run; a
    // reduction that summed in arrival order would drift in the last bits.
    for batches in [&[30, 24, 17][..], &[30, 27, 21, 12]] {
        let first = fingerprints(batches);
        let second = fingerprints(batches);
        assert_eq!(first, second, "{} ranks: two runs differ", batches.len());
        for (rank, pin) in first.iter().enumerate() {
            assert_eq!(pin.0, 30, "rank {rank} ran every round");
            assert_eq!(pin.1, batches[rank]);
            assert_eq!(pin.2, first[0].2, "rank {rank} ended elsewhere");
        }
    }
}
