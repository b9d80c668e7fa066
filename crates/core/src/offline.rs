//! The offline baseline: generate the dataset to storage, then train for a
//! number of epochs reading batches back from storage.
//!
//! This reproduces the paper's comparison path (§4.4 and §4.6): the same
//! framework is used to generate the data in parallel, but instead of streaming
//! the time steps to the server they are written to the (simulated) parallel
//! file system; training then reads batches back, paying the I/O cost, and
//! iterates over the fixed dataset for several epochs.

use crate::config::ExperimentConfig;
use crate::disk::{DiskConfig, SimulatedDisk};
use crate::error::ExperimentError;
use crate::metrics::{
    ExperimentMetrics, LossPoint, OccurrenceHistogram, OccurrenceTable, ThroughputTracker,
};
use crate::report::ExperimentReport;
use crate::sample::step_to_sample;
use crate::validation::ValidationSet;
use melissa_ensemble::{ClientError, Launcher, LauncherConfig};
use parking_lot::Mutex;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use std::sync::Arc;
use std::time::Instant;
use surrogate_nn::{
    Adam, AdamConfig, Batch, GradientSynchronizer, Loss, LrSchedule, Mlp, MseLoss, Optimizer,
    SampleBasedHalving,
};

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
                    local.push(step_to_sample(
                        &step,
                        job.client_id,
                        &input_norm,
                        &output_norm,
                    ));
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
        let batch_size = config.training.batch_size.max(1);
        let param_count = Mlp::new(mlp_config.clone()).param_count();
        let grad_sync = Arc::new(GradientSynchronizer::new(num_ranks, param_count));
        let training_start = Instant::now();

        // What each training rank reports back: (rank, model replica, loss
        // history, samples trained, mean wall-clock and compute throughput,
        // rank-local occurrence counts).
        type RankOutcome = (usize, Mlp, Vec<LossPoint>, usize, f64, f64, OccurrenceTable);

        // Epoch schedules: shuffled once per epoch with a common seed, then
        // partitioned into equally sized rank shards (PyTorch DistributedSampler).
        let n = disk.len();
        let steps_per_epoch = n / (batch_size * num_ranks);
        let outcomes: Mutex<Vec<RankOutcome>> = Mutex::new(Vec::new());

        crossbeam::scope(|scope| {
            for rank in 0..num_ranks {
                let disk = Arc::clone(&disk);
                let grad_sync = Arc::clone(&grad_sync);
                let validation = Arc::clone(&validation);
                let mlp_config = mlp_config.clone();
                let outcomes = &outcomes;
                let config = &self.config;
                let epochs = self.epochs;
                scope.spawn(move |_| {
                    let mut model = Mlp::new(mlp_config);
                    let mut optimizer = Adam::new(AdamConfig::default(), model.param_count())
                        .with_isa(config.training.kernel_isa);
                    let schedule = SampleBasedHalving {
                        initial: config.training.initial_learning_rate,
                        interval_samples: config.training.lr_halving_samples,
                        floor: config.training.lr_floor,
                    };
                    let loss_fn = MseLoss;
                    // Reused hot-path state: workspace and batch.
                    let mut ws = model
                        .workspace(batch_size)
                        .with_threads(config.training.effective_gemm_threads())
                        .with_isa(config.training.kernel_isa);
                    let mut batch =
                        Batch::with_capacity(batch_size, model.input_size(), model.output_size());
                    let mut tracker = ThroughputTracker::new(10);
                    let mut losses = Vec::new();
                    let mut batches = 0usize;
                    let mut samples_trained = 0usize;
                    // Rank-local occurrence counts, merged after the join —
                    // the epoch loop takes no cross-rank lock.
                    let mut occurrences = OccurrenceTable::with_shape(
                        config.total_simulations(),
                        config.workload.steps(),
                    );

                    for epoch in 0..epochs {
                        // Same permutation on every rank (seeded by epoch).
                        let mut indices: Vec<usize> = (0..n).collect();
                        let mut rng = ChaCha8Rng::seed_from_u64(config.epoch_seed(epoch));
                        indices.shuffle(&mut rng);

                        for step in 0..steps_per_epoch {
                            let offset = (step * num_ranks + rank) * batch_size;
                            let batch_indices = &indices[offset..offset + batch_size];
                            let samples = disk.read_batch(batch_indices);
                            for s in &samples {
                                occurrences.record(s.key());
                            }
                            batch.fill_owned(&samples);
                            model.forward_ws(&batch.inputs, &mut ws);
                            let (prediction, grad_out) = ws.output_and_grad_mut();
                            let loss = loss_fn.evaluate_into(prediction, &batch.targets, grad_out);
                            // backward_ws overwrites the gradients in place.
                            model.backward_ws(&mut ws);
                            grad_sync.all_reduce_mean(model.grads_mut());
                            batches += 1;
                            samples_trained += samples.len();
                            let nominal_samples = batches * batch_size * num_ranks;
                            let lr = schedule.learning_rate(batches, nominal_samples);
                            optimizer.step_in_place(&mut model, lr);
                            let stall = if config.training.device.extra_batch_delay().is_zero() {
                                std::time::Duration::ZERO
                            } else {
                                let stall_start = Instant::now();
                                std::thread::sleep(config.training.device.extra_batch_delay());
                                stall_start.elapsed()
                            };
                            tracker.record_batch(samples.len(), stall);

                            if rank == 0 {
                                let validation_loss = if config.training.validation_interval_batches
                                    > 0
                                    && batches
                                        .is_multiple_of(config.training.validation_interval_batches)
                                {
                                    Some(validation.evaluate_with(&model, &mut ws))
                                } else {
                                    None
                                };
                                losses.push(LossPoint {
                                    batches,
                                    samples_seen: nominal_samples,
                                    train_loss: loss,
                                    validation_loss,
                                    elapsed_seconds: training_start.elapsed().as_secs_f64(),
                                });
                            }
                        }
                    }

                    if rank == 0 {
                        losses.push(LossPoint {
                            batches,
                            samples_seen: batches * batch_size * num_ranks,
                            train_loss: losses.last().map(|p| p.train_loss).unwrap_or(f32::NAN),
                            validation_loss: Some(validation.evaluate_with(&model, &mut ws)),
                            elapsed_seconds: training_start.elapsed().as_secs_f64(),
                        });
                    }
                    let mean_throughput = tracker.mean_throughput();
                    let mean_compute = tracker.mean_compute_throughput();
                    outcomes.lock().push((
                        rank,
                        model,
                        losses,
                        samples_trained,
                        mean_throughput,
                        mean_compute,
                        occurrences,
                    ));
                });
            }
        })
        // analysis: allow(panic, reason = "re-raises a rank thread's panic after the scope joins; offline training has no partial-result recovery")
        .expect("an offline-training thread panicked");

        let training_seconds = training_start.elapsed().as_secs_f64();
        let mut outcomes = outcomes.into_inner();
        outcomes.sort_by_key(|(rank, ..)| *rank);
        let model = outcomes[0].1.clone();
        let mut losses = Vec::new();
        for (_, _, rank_losses, ..) in &outcomes {
            losses.extend(rank_losses.iter().copied());
        }
        losses.sort_by_key(|p| p.batches);
        let samples_trained: usize = outcomes.iter().map(|(_, _, _, s, ..)| *s).sum();
        let batches = samples_trained / batch_size;
        let mean_throughput: f64 = outcomes.iter().map(|(_, _, _, _, t, ..)| *t).sum();
        let mean_compute_throughput: f64 = outcomes.iter().map(|(_, _, _, _, _, c, _)| *c).sum();

        // Merge the rank-local occurrence counts gathered after the join.
        let occurrences = OccurrenceTable::merged(
            outcomes
                .iter_mut()
                .map(|(.., rank_occurrences)| std::mem::take(rank_occurrences)),
        );
        let metrics = ExperimentMetrics {
            losses,
            throughput: Vec::new(),
            occupancy: Vec::new(),
            occurrences: OccurrenceHistogram::from_occurrences(&occurrences),
        };

        let report = ExperimentReport {
            label: "Offline".to_string(),
            buffer: None,
            num_ranks,
            batch_size,
            simulations: config.total_simulations(),
            unique_samples_produced: config.total_unique_samples(),
            unique_samples_trained: occurrences.counts().count(),
            samples_trained,
            batches,
            dataset_bytes: disk.bytes_written(),
            generation_seconds: Some(generation_seconds),
            training_seconds,
            total_seconds: start.elapsed().as_secs_f64(),
            min_validation_mse: metrics.min_validation_loss(),
            final_validation_mse: metrics.final_validation_loss(),
            mean_throughput,
            mean_compute_throughput,
            metrics,
            buffer_stats: Vec::new(),
            transport: None,
            launcher: Some(launcher_report),
            crashed: false,
            checkpoints_taken: 0,
            abandoned_clients: Vec::new(),
            recovered_clients: Vec::new(),
            resumed_from_batches: None,
            durable_checkpoints: 0,
            durable_error: None,
            kernel_isa: config.training.kernel_isa.resolve().name().to_string(),
            fp_mode: surrogate_nn::simd::fp_mode().to_string(),
            sidecar: Default::default(),
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
    }

    #[test]
    fn offline_multi_rank_partitions_the_epoch() {
        let experiment = OfflineExperiment::new(tiny_config(2), DiskConfig::default(), 1).unwrap();
        let (_, report) = experiment.run();
        // 40 samples / (5 × 2) = 4 steps per epoch, 8 batches in total.
        assert_eq!(report.batches, 8);
        assert_eq!(report.samples_trained, 40);
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
