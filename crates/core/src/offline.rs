//! The offline baseline: generate the dataset to storage, then train for a
//! number of epochs reading batches back from storage.
//!
//! This reproduces the paper's comparison path (§4.4 and §4.6): the same
//! framework is used to generate the data in parallel, but instead of streaming
//! the time steps to the server they are written to the (simulated) parallel
//! file system; training then reads batches back, paying the I/O cost, and
//! iterates over the fixed dataset for several epochs.
//!
//! Training is the online server's training loop: one [`RankTrainer`] per
//! rank, each reading its share of every epoch through an [`EpochReader`]
//! instead of a training buffer. Rank 0 validates on its sidecar thread as
//! an online run does, so online and offline throughputs compare learners
//! doing the same work. The disk reads stay on the learning thread — the
//! epoch reader never runs behind the prefetch stage — because the cost
//! model charges them to training.

use crate::config::ExperimentConfig;
use crate::disk::{DiskConfig, SimulatedDisk};
use crate::error::ExperimentError;
use crate::metrics::OccurrenceTable;
use crate::report::ExperimentReport;
use crate::sample::{payload_into_sample, step_into_payload};
use crate::trainer::{BatchSource, RankOutcome, RankTrainer, TrainerShared};
use crate::validation::ValidationSet;
use melissa_ensemble::{ClientError, Launcher, LauncherConfig};
use parking_lot::Mutex;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use std::sync::Arc;
use std::time::Instant;
use surrogate_nn::{Batch, Mlp};

/// One rank's reading of the offline dataset: `epochs` passes over the
/// samples of a [`SimulatedDisk`], each in the order of that epoch's seeded
/// shuffle and split into equal rank shards the way PyTorch's
/// `DistributedSampler` splits them. Step `s` of an epoch is the
/// `batch_size` samples at offset `(s · num_ranks + rank) · batch_size` of
/// the permutation; an epoch has `n / (batch_size · num_ranks)` steps and
/// drops the remainder. Every rank shuffles with the same seed, so the ranks'
/// shards partition each epoch.
///
/// Samples are copied from the disk straight into the batch by borrow, each
/// read charged the disk's cost on the calling thread; the permutation buffer
/// is reused from epoch to epoch, so reading allocates nothing.
pub struct EpochReader {
    disk: Arc<SimulatedDisk>,
    rank: usize,
    num_ranks: usize,
    batch_size: usize,
    steps_per_epoch: usize,
    /// The shuffling seed of every epoch, in order.
    epoch_seeds: Vec<u64>,
    /// The current epoch's permutation of the stored samples.
    order: Vec<usize>,
    /// Steps read so far, over all epochs.
    steps_read: usize,
}

impl EpochReader {
    /// Rank `rank`'s reader of `epochs` passes over `disk`, with the rank
    /// count, batch size and epoch seeds of `config`.
    pub fn new(
        disk: Arc<SimulatedDisk>,
        rank: usize,
        config: &ExperimentConfig,
        epochs: usize,
    ) -> Self {
        let num_ranks = config.training.num_ranks;
        let batch_size = config.training.batch_size.max(1);
        Self {
            steps_per_epoch: disk.len() / (batch_size * num_ranks),
            order: Vec::with_capacity(disk.len()),
            epoch_seeds: (0..epochs).map(|epoch| config.epoch_seed(epoch)).collect(),
            disk,
            rank,
            num_ranks,
            batch_size,
            steps_read: 0,
        }
    }

    /// Reads this rank's next batch into `batch` and returns its size, or `0`
    /// once the last epoch has been read.
    pub fn fill(&mut self, batch: &mut Batch) -> usize {
        batch.clear();
        if self.steps_read == self.steps_per_epoch * self.epoch_seeds.len() {
            return 0;
        }
        let epoch = self.steps_read / self.steps_per_epoch;
        let step = self.steps_read % self.steps_per_epoch;
        if step == 0 {
            self.begin_epoch(epoch);
        }
        let offset = (step * self.num_ranks + self.rank) * self.batch_size;
        for &index in &self.order[offset..offset + self.batch_size] {
            self.disk.read(index, |sample| batch.push_sample(sample));
        }
        self.steps_read += 1;
        self.batch_size
    }

    /// Shuffles the stored samples into `epoch`'s order: the same
    /// permutation on every rank.
    fn begin_epoch(&mut self, epoch: usize) {
        self.order.clear();
        self.order.extend(0..self.disk.len());
        let mut rng = ChaCha8Rng::seed_from_u64(self.epoch_seeds[epoch]);
        self.order.shuffle(&mut rng);
    }
}

/// One offline-training experiment.
pub struct OfflineExperiment {
    config: ExperimentConfig,
    disk_config: DiskConfig,
    epochs: usize,
}

impl OfflineExperiment {
    /// Creates the experiment. `epochs` is the number of passes over the fixed
    /// dataset (the paper uses 1 in §4.4 and 100 in §4.6).
    pub fn new(
        config: ExperimentConfig,
        disk_config: DiskConfig,
        epochs: usize,
    ) -> Result<Self, ExperimentError> {
        config.validate()?;
        if epochs == 0 {
            return Err(ExperimentError::ZeroEpochs);
        }
        Ok(Self {
            config,
            disk_config,
            epochs,
        })
    }

    /// The experiment configuration.
    pub fn config(&self) -> &ExperimentConfig {
        &self.config
    }

    /// Number of epochs.
    pub fn epochs(&self) -> usize {
        self.epochs
    }

    /// Runs generation then training; returns the trained surrogate and report.
    pub fn run(&self) -> (Mlp, ExperimentReport) {
        let config = &self.config;
        let start = Instant::now();

        // ---- Phase 1: parallel data generation to the simulated disk. ----
        let workload = config.workload.build();
        let input_norm = config.workload.input_normalizer();
        let output_norm = config.workload.output_normalizer();
        let disk = Mutex::new(SimulatedDisk::new(self.disk_config));
        let launcher = Launcher::new(LauncherConfig::default());
        let space = workload.parameter_space();
        let launcher_report = launcher.run_campaign_in(&config.campaign, &space, |job| {
            let mut local = Vec::with_capacity(workload.steps());
            workload
                .generate(job.parameters, &mut |step| {
                    let payload = step_into_payload(step, job.client_id);
                    local.push(payload_into_sample(payload, &input_norm, &output_norm));
                })
                .map_err(|e| ClientError::new(e.to_string()))?;
            let mut disk = disk.lock();
            for sample in local {
                disk.write_sample(sample);
            }
            Ok(())
        });
        let mut disk = disk.into_inner();
        // Canonical (simulation, step) order: training must not depend on the
        // scheduling-dependent order in which concurrent clients finished.
        disk.sort_by_key();
        let disk = Arc::new(disk);
        let generation_seconds = start.elapsed().as_secs_f64();

        // ---- Phase 2: epoch-based data-parallel training from the disk. ----
        let validation = Arc::new(ValidationSet::generate_with(
            config,
            workload.as_ref(),
            &input_norm,
            &output_norm,
        ));
        let mlp_config = config.surrogate.mlp_config(config.output_size());
        let num_ranks = config.training.num_ranks;
        let param_count = Mlp::new(mlp_config.clone()).param_count();
        let shared = Arc::new(TrainerShared::new(num_ranks, param_count));
        let training_start = Instant::now();
        let mut outcomes: Vec<RankOutcome> = std::thread::scope(|scope| {
            let ranks: Vec<_> = (0..num_ranks)
                .map(|rank| {
                    let reader = EpochReader::new(Arc::clone(&disk), rank, config, self.epochs);
                    let (mlp_config, validation, shared) = (&mlp_config, &validation, &shared);
                    // Each rank builds its replica, optimizer and workspace
                    // on its own thread, in that thread's allocator arena.
                    scope.spawn(move || {
                        RankTrainer::new(
                            rank,
                            Mlp::new(mlp_config.clone()),
                            BatchSource::Epochs(reader),
                            config.training.clone(),
                            (rank == 0).then(|| Arc::clone(validation)),
                            Arc::clone(shared),
                            OccurrenceTable::with_shape(
                                config.total_simulations(),
                                config.workload.steps(),
                            ),
                        )
                        .run(training_start)
                    })
                })
                .collect();
            ranks
                .into_iter()
                .map(|rank| {
                    rank.join()
                        .unwrap_or_else(|panic| std::panic::resume_unwind(panic))
                })
                .collect()
        });
        let training_seconds = training_start.elapsed().as_secs_f64();

        let (model, training) =
            ExperimentReport::from_rank_outcomes(&mut outcomes, &config.training);
        let report = ExperimentReport {
            label: "Offline".to_string(),
            simulations: config.total_simulations(),
            unique_samples_produced: config.total_unique_samples(),
            dataset_bytes: disk.bytes_written(),
            generation_seconds: Some(generation_seconds),
            training_seconds,
            total_seconds: start.elapsed().as_secs_f64(),
            launcher: Some(launcher_report),
            ..training
        };
        (model, report)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use melissa_ensemble::CampaignPlan;

    fn tiny_config(num_ranks: usize) -> ExperimentConfig {
        ExperimentConfig::builder()
            .workload(crate::WorkloadSpec::heat_analytic(
                heat_solver::SolverConfig {
                    nx: 8,
                    ny: 8,
                    steps: 10,
                    ..heat_solver::SolverConfig::default()
                },
            ))
            .campaign(CampaignPlan::single_series(4, 2))
            .ranks(num_ranks)
            .batch_size(5)
            .validation(2, 4)
            .hidden_width(16)
            .build()
            .expect("consistent test configuration")
    }

    #[test]
    fn offline_single_epoch_sees_each_sample_once() {
        let experiment = OfflineExperiment::new(tiny_config(1), DiskConfig::default(), 1).unwrap();
        let (model, report) = experiment.run();
        assert!(model.params_flat().iter().all(|p| p.is_finite()));
        assert_eq!(report.label, "Offline");
        assert!(report.generation_seconds.is_some());
        // One epoch, 40 samples, batch 5 → 8 batches, every sample exactly once.
        assert_eq!(report.samples_trained, 40);
        assert_eq!(report.batches, 8);
        assert_eq!(report.unique_samples_trained, 40);
        assert_eq!(report.metrics.occurrences.max_repetitions(), 1);
        assert!(report.min_validation_mse.is_some());
    }

    #[test]
    fn offline_multi_epoch_repeats_samples() {
        let experiment = OfflineExperiment::new(tiny_config(1), DiskConfig::default(), 3).unwrap();
        let (_, report) = experiment.run();
        assert_eq!(report.samples_trained, 120);
        assert_eq!(report.metrics.occurrences.max_repetitions(), 3);
        // 24 batches: two windows of the rank's throughput tracker.
        assert_eq!(report.metrics.throughput.len(), 2);
    }

    #[test]
    fn offline_multi_rank_partitions_the_epoch() {
        let experiment = OfflineExperiment::new(tiny_config(2), DiskConfig::default(), 1).unwrap();
        let (_, report) = experiment.run();
        // 40 samples / (5 × 2) = 4 steps per epoch, 8 batches in total.
        assert_eq!(report.batches, 8);
        assert_eq!(report.samples_trained, 40);
        assert_eq!(report.unique_samples_trained, 40);
        // Rank 0 validated after its fourth batch, on its sidecar.
        assert_eq!(report.sidecar.validations, 1);
    }

    #[test]
    fn slow_disk_reduces_throughput() {
        let fast = OfflineExperiment::new(tiny_config(1), DiskConfig::default(), 1)
            .unwrap()
            .run()
            .1;
        let slow_config = DiskConfig {
            read_latency_micros: 2_000,
            ..DiskConfig::default()
        };
        let slow = OfflineExperiment::new(tiny_config(1), slow_config, 1)
            .unwrap()
            .run()
            .1;
        assert!(
            slow.mean_throughput < fast.mean_throughput,
            "I/O cost must reduce throughput: slow {} vs fast {}",
            slow.mean_throughput,
            fast.mean_throughput
        );
    }

    #[test]
    fn zero_epochs_rejected() {
        assert_eq!(
            OfflineExperiment::new(tiny_config(1), DiskConfig::default(), 0).err(),
            Some(crate::ExperimentError::ZeroEpochs)
        );
    }
}
