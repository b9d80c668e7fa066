//! The offline baseline pinned to literals: a two-epoch `OfflineExperiment`
//! at one and two ranks, with periodic validation, hashed bit for bit. The
//! final parameters and every loss point (batch count, samples seen, training
//! loss and validation loss) are folded into FNV-1a hashes, next to the
//! sample counts and the occurrence histogram, so any change to the epoch
//! order, the training round or where validation runs that moves a single bit
//! shows here.

use heat_solver::SolverConfig;
use melissa::{DiskConfig, ExperimentConfig, OfflineExperiment, WorkloadSpec};
use melissa_ensemble::CampaignPlan;

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// FNV-1a, fed little-endian words in order.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Self(FNV_OFFSET)
    }

    fn bytes(&mut self, bytes: &[u8]) {
        for &byte in bytes {
            self.0 ^= u64::from(byte);
            self.0 = self.0.wrapping_mul(FNV_PRIME);
        }
    }

    fn word(&mut self, value: u64) {
        self.bytes(&value.to_le_bytes());
    }

    fn float(&mut self, value: f32) {
        self.bytes(&value.to_bits().to_le_bytes());
    }
}

/// 4 simulations × 10 steps = 40 samples, batch 5, validation every third
/// batch: 8 steps per epoch at one rank, 4 at two.
fn config(num_ranks: usize) -> ExperimentConfig {
    ExperimentConfig::builder()
        .workload(WorkloadSpec::heat_analytic(SolverConfig {
            nx: 8,
            ny: 8,
            steps: 10,
            ..SolverConfig::default()
        }))
        .campaign(CampaignPlan::single_series(4, 2))
        .ranks(num_ranks)
        .batch_size(5)
        .validation(2, 3)
        .hidden_width(16)
        .build()
        .expect("consistent test configuration")
}

/// `(samples trained, batches, occurrence histogram, params hash, loss-history hash)`.
type Pin = (usize, usize, Vec<usize>, u64, u64);

fn pin(num_ranks: usize) -> Pin {
    let (model, report) = OfflineExperiment::new(config(num_ranks), DiskConfig::default(), 2)
        .expect("valid configuration")
        .run();
    let mut params = Fnv::new();
    for value in model.params_flat() {
        params.float(value);
    }
    let mut losses = Fnv::new();
    for point in &report.metrics.losses {
        losses.word(point.batches as u64);
        losses.word(point.samples_seen as u64);
        losses.float(point.train_loss);
        match point.validation_loss {
            Some(value) => {
                losses.bytes(&[1]);
                losses.float(value);
            }
            None => losses.bytes(&[0]),
        }
    }
    (
        report.samples_trained,
        report.batches,
        report.metrics.occurrences.counts.clone(),
        params.0,
        losses.0,
    )
}

#[test]
fn one_rank_offline_training_is_pinned() {
    let pin = pin(1);
    let expected = (
        80,
        16,
        vec![0, 0, 40],
        0x9dbc_51bd_91c6_5b09,
        0xbb22_dc15_29ec_921f,
    );
    assert_eq!(pin, expected, "{pin:#x?}");
}

#[test]
fn two_rank_offline_training_is_pinned() {
    let pin = pin(2);
    let expected = (
        80,
        16,
        vec![0, 0, 40],
        0x2dfb_971f_0ef7_f111,
        0x5061_1955_2f9a_2ac7,
    );
    assert_eq!(pin, expected, "{pin:#x?}");
}
