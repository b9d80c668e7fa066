//! The online training server: the full Melissa pipeline in one process.
//!
//! [`OnlineExperiment::run`] wires everything together exactly as Figure 1 of
//! the paper describes:
//!
//! 1. the training server starts first: one data-aggregator thread and one
//!    training thread per rank ("GPU"), each pair sharing a training buffer;
//! 2. the launcher then submits the client series; each client runs the solver
//!    (or the fast analytic workload) for its sampled parameters and streams
//!    every computed time step to the server ranks round-robin;
//! 3. training proceeds concurrently with data generation; when all clients
//!    have finalized, the buffers drain and training terminates;
//! 4. the run returns the trained surrogate and an [`ExperimentReport`] with
//!    every measurement needed by the paper's figures and tables.

use crate::aggregator::Aggregator;
use crate::checkpoint::ServerCheckpoint;
use crate::config::{DurabilityConfig, ExperimentConfig};
use crate::durable::{
    CompletionJournal, DurabilityError, DurableCheckpointStore, DurableIdentity, DurableRecorder,
};
use crate::error::ExperimentError;
use crate::metrics::OccurrenceTable;
use crate::recovery::{
    CheckpointStore, IngestControl, ReceptionGate, RecoveryHooks, RecoveryTracker,
};
use crate::report::ExperimentReport;
use crate::sample::step_to_payload;
use crate::trainer::{RankOutcome, RankTrainer, TrainerShared};
use crate::validation::ValidationSet;
use melissa_ensemble::{CampaignEvents, ClientContext, ClientError, Launcher, LauncherReport};
use melissa_transport::{ClientFaultKind, Fabric, FabricConfig};
use parking_lot::Mutex;
use std::collections::BTreeSet;
use std::path::Path;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};
use surrogate_nn::{Mlp, Sample};
use training_buffer::{Evicted, ShardedBuffer, TrainingBuffer};

/// Checkpoint files a durable run keeps in its directory (the newest ones).
const KEEP_LAST_CHECKPOINTS: usize = 3;

/// Completion records appended between two journal fsyncs (the recorder also
/// flushes after each batch of completions).
const JOURNAL_FLUSH_EVERY: usize = 8;

/// A scripted hang: the client stops reporting progress and waits for the
/// launcher's watchdog to declare the attempt dead, then unwinds. A safety
/// cap turns the hang into a plain crash when no watchdog is configured, so
/// a misconfigured experiment degrades into a retry instead of a deadlock.
fn hang_until_killed(ctx: &ClientContext) -> ClientError {
    const HANG_SAFETY_CAP: Duration = Duration::from_secs(5);
    let hung_at = Instant::now();
    while !ctx.cancelled() && hung_at.elapsed() < HANG_SAFETY_CAP {
        std::thread::sleep(Duration::from_millis(1));
    }
    if ctx.cancelled() {
        ClientError::killed("scripted hang: killed by the watchdog")
    } else {
        ClientError::crash("scripted hang: safety cap expired with no watchdog configured")
    }
}

/// One online-training experiment.
pub struct OnlineExperiment {
    config: ExperimentConfig,
}

impl OnlineExperiment {
    /// Creates the experiment after validating its configuration.
    pub fn new(config: ExperimentConfig) -> Result<Self, ExperimentError> {
        config.validate()?;
        Ok(Self { config })
    }

    /// The experiment configuration.
    pub fn config(&self) -> &ExperimentConfig {
        &self.config
    }

    /// Runs the experiment and returns the trained surrogate and its report.
    pub fn run(&self) -> (Mlp, ExperimentReport) {
        let (model, report, _checkpoint) = self.run_with_durability(None);
        (model, report)
    }

    /// Runs the experiment like [`OnlineExperiment::run`], additionally
    /// returning the latest [`ServerCheckpoint`]. When the run ends in a
    /// (scripted) server crash, the report's `crashed` flag is set and the
    /// checkpoint is what [`OnlineExperiment::resume`] restarts from. When
    /// the configuration carries a [`DurabilityConfig`], checkpoints and the
    /// completion journal are additionally persisted to its directory, so a
    /// *process* kill can be resumed with
    /// [`OnlineExperiment::resume_from_dir`]. Persistence runs on rank 0's
    /// sidecar thread, which is joined before this returns — after a crash
    /// too — so the directory is quiescent (no write in flight, as many
    /// durable checkpoints as were taken) and can be resumed from at once.
    pub fn run_recoverable(&self) -> (Mlp, ExperimentReport, Option<ServerCheckpoint>) {
        self.run_with_durability(None)
    }

    /// Restarts the experiment from a checkpoint (§3.1): the model resumes
    /// from the checkpointed weights and progress counters, only the
    /// simulations missing from `checkpoint.completed_simulations` are
    /// resubmitted to the launcher, and any replayed traffic of completed
    /// simulations is discarded by the message logs.
    pub fn resume(
        &self,
        checkpoint: &ServerCheckpoint,
    ) -> (Mlp, ExperimentReport, Option<ServerCheckpoint>) {
        self.run_with_durability(Some(checkpoint))
    }

    /// Restarts an experiment purely from its durability directory: the
    /// newest checkpoint that validates supplies the model and progress
    /// counters, the completion journal supplies the simulations that
    /// completed after that checkpoint was taken, and only simulations in
    /// neither are rerun. The directory must exist ([`DurabilityError`]
    /// otherwise); an existing-but-empty directory starts a fresh run that
    /// persists into it. `config.durability` is overridden to point at `dir`.
    ///
    /// A directory whose durable headers carry a *different* identity is
    /// refused up front with [`DurabilityError::ForeignDirectory`], whose
    /// message names which knob class differs — the seed, the (non-seed)
    /// configuration, or both — instead of silently starting a fresh run
    /// next to someone else's checkpoints.
    pub fn resume_from_dir(
        dir: impl AsRef<Path>,
        mut config: ExperimentConfig,
    ) -> Result<(Mlp, ExperimentReport, Option<ServerCheckpoint>), DurabilityError> {
        let dir = dir.as_ref();
        if !dir.is_dir() {
            return Err(DurabilityError::MissingDirectory(dir.to_path_buf()));
        }
        let mut durability = config
            .durability
            .take()
            .unwrap_or_else(|| DurabilityConfig::new(dir.to_string_lossy()));
        durability.directory = dir.to_string_lossy().into_owned();
        config.durability = Some(durability.clone());
        let experiment = Self::new(config)?;
        let identity = experiment.durable_identity();
        if let Some(stored) = crate::durable::peek_identity(dir)? {
            if stored != identity {
                let diff = if stored.experiment_seed == identity.experiment_seed {
                    crate::durable::IdentityDiff::ConfigOnly
                } else {
                    // The seed feeds the fingerprint, so recompute it under
                    // the stored seed to decide whether anything *else*
                    // changed too.
                    let mut reseeded = experiment.config.clone();
                    reseeded.seed = stored.experiment_seed;
                    if reseeded.config_fingerprint() == stored.config_fingerprint {
                        crate::durable::IdentityDiff::SeedOnly
                    } else {
                        crate::durable::IdentityDiff::Both
                    }
                };
                return Err(DurabilityError::ForeignDirectory {
                    dir: dir.to_path_buf(),
                    stored,
                    given: identity,
                    diff,
                });
            }
        }

        let store = DurableCheckpointStore::open(dir, identity, KEEP_LAST_CHECKPOINTS)?;
        let latest = store.load_latest()?;
        let checkpoint = latest.latest.map(|(_, checkpoint)| checkpoint);
        let (journal, journaled) = CompletionJournal::open(dir, identity, JOURNAL_FLUSH_EVERY)?;
        let already_durable: Vec<u64> = journaled
            .iter()
            .copied()
            .chain(
                checkpoint
                    .iter()
                    .flat_map(|cp| cp.completed_simulations.iter().copied()),
            )
            .collect();
        let recorder = Arc::new(DurableRecorder::new(store, journal, already_durable));
        Ok(experiment.run_internal(checkpoint.map(Arc::new), &journaled, Some(recorder)))
    }

    /// The identity stamped into this experiment's durable files.
    fn durable_identity(&self) -> DurableIdentity {
        DurableIdentity {
            experiment_seed: self.config.seed,
            config_fingerprint: self.config.config_fingerprint(),
        }
    }

    /// Opens the durable recorder for `durability`, seeding its
    /// already-journaled set from the journal replay and the resumed
    /// checkpoint, so a run never re-appends completions that are already
    /// durable.
    fn open_durable(
        &self,
        durability: &DurabilityConfig,
        resume: Option<&ServerCheckpoint>,
    ) -> Result<Arc<DurableRecorder>, DurabilityError> {
        let identity = self.durable_identity();
        let dir = durability.directory_path();
        let store = DurableCheckpointStore::open(&dir, identity, KEEP_LAST_CHECKPOINTS)?;
        let (journal, journaled) = CompletionJournal::open(&dir, identity, JOURNAL_FLUSH_EVERY)?;
        let already_durable: Vec<u64> = journaled
            .into_iter()
            .chain(
                resume
                    .iter()
                    .flat_map(|cp| cp.completed_simulations.iter().copied()),
            )
            .collect();
        Ok(Arc::new(DurableRecorder::new(
            store,
            journal,
            already_durable,
        )))
    }

    /// Common entry of [`OnlineExperiment::run`], `run_recoverable` and
    /// `resume`: opens the durable recorder when one is configured. A
    /// durability *open* failure degrades the run to in-memory recovery and
    /// is surfaced through the report's `durable_error` — training is never
    /// refused because a disk was unavailable.
    fn run_with_durability(
        &self,
        resume: Option<&ServerCheckpoint>,
    ) -> (Mlp, ExperimentReport, Option<ServerCheckpoint>) {
        let (durable, open_error) = match &self.config.durability {
            Some(durability) => match self.open_durable(durability, resume) {
                Ok(recorder) => (Some(recorder), None),
                Err(error) => (None, Some(error.to_string())),
            },
            None => (None, None),
        };
        let resume = resume.cloned().map(Arc::new);
        let (model, mut report, checkpoint) = self.run_internal(resume, &[], durable);
        if report.durable_error.is_none() {
            report.durable_error = open_error;
        }
        (model, report, checkpoint)
    }

    fn run_internal(
        &self,
        resume: Option<Arc<ServerCheckpoint>>,
        journaled: &[u64],
        durable: Option<Arc<DurableRecorder>>,
    ) -> (Mlp, ExperimentReport, Option<ServerCheckpoint>) {
        let config = &self.config;
        let start = Instant::now();

        // The physics behind the clients, seen only through the Workload trait.
        let workload = config.workload.build();
        let input_norm = config.workload.input_normalizer();
        let output_norm = config.workload.output_normalizer();

        // Validation set (held-out simulations, generated before training).
        let validation = Arc::new(ValidationSet::generate_with(
            config,
            workload.as_ref(),
            &input_norm,
            &output_norm,
        ));

        // On resume, only the simulations covered by neither the checkpoint
        // nor the completion journal are rerun; the aggregators expect
        // exactly those to finalize. Journal-only completions (recorded after
        // the resumed checkpoint was taken) keep per-simulation accounting
        // exactly-once even though the resumed weights predate them.
        let completed_union: Vec<u64> = resume
            .iter()
            .flat_map(|cp| cp.completed_simulations.iter().copied())
            .chain(journaled.iter().copied())
            .collect::<BTreeSet<u64>>()
            .into_iter()
            .collect();
        let resumed_from_batches = resume.as_ref().map(|cp| cp.batches_trained);
        let resuming = resume.is_some() || !journaled.is_empty();
        let missing: Option<Vec<u64>> =
            resuming.then(|| Launcher::missing_ids(config.total_simulations(), &completed_union));
        let expected_clients = missing
            .as_ref()
            .map_or(config.campaign.total_clients(), Vec::len);

        // Transport fabric: one endpoint per ingest shard of each rank.
        let fabric = Fabric::new(FabricConfig {
            num_server_ranks: config.training.num_ranks,
            shards_per_rank: config.ingest_shards,
            channel_capacity: config.channel_capacity,
            fault: config.fault.clone(),
        });
        let endpoints = fabric.rank_shard_endpoints();

        // One training buffer per rank (the paper: "there is one training
        // buffer per server process"), each with its own seed, sharded to
        // match the rank's ingest shards (one shard delegates to the plain
        // policy buffer, bit for bit).
        let buffers: Vec<Arc<ShardedBuffer<Sample>>> = (0..config.training.num_ranks)
            .map(|rank| {
                Arc::new(ShardedBuffer::new(
                    &config.rank_buffer_config(rank),
                    config.ingest_shards,
                ))
            })
            .collect();

        // The recovery substrate shared by aggregators, trainers and launcher.
        let production_done = Arc::new(AtomicBool::new(false));
        let server_down = Arc::new(AtomicBool::new(false));
        let gate = Arc::new(ReceptionGate::new(expected_clients));
        let (simulations, steps) = (config.total_simulations(), config.workload.steps());
        let tracker = Arc::new(RecoveryTracker::new(
            config.training.num_ranks,
            simulations,
            steps,
        ));
        let completed: Arc<Vec<u64>> = Arc::new(completed_union);
        for &simulation_id in completed.iter() {
            tracker.restore_completed(simulation_id);
        }

        // Buffers report every eviction to the tracker so the completion
        // criterion is exact for all three policies: a Reservoir eviction
        // removes an already-trained sample (harmless), while a FIFO/FIRO
        // crash-path drop loses a never-trained sample and pins its
        // simulation incomplete.
        for buffer in &buffers {
            let tracker = Arc::clone(&tracker);
            buffer.set_eviction_observer(Arc::new(move |sample: &Sample, evicted| {
                tracker.record_evicted(sample.simulation_id, evicted == Evicted::Trained);
            }));
        }

        // The durable cadence can override the in-memory one (and inherits it
        // when unset), so a durability-configured run checkpoints on disk and
        // in memory at the same batches.
        let checkpoint_every_batches = match &config.durability {
            Some(durability) => {
                durability.effective_checkpoint_every(config.checkpoint_every_batches)
            }
            None => config.checkpoint_every_batches,
        };
        let store = Arc::new(CheckpointStore::new());
        let hooks = RecoveryHooks {
            checkpoint_every_batches,
            store: Arc::clone(&store),
            tracker: Arc::clone(&tracker),
            // A scripted server crash fires once: the restarted incarnation
            // must be able to finish the run.
            crash_after_batches: if resume.is_some() {
                None
            } else {
                config.fault.plan.server_crash_after()
            },
            server_down: Arc::clone(&server_down),
            experiment_seed: config.seed,
            resume: resume.clone(),
            durable: durable.clone(),
        };

        // Model replicas: identical seed → identical initial weights
        // everywhere; a resumed run restores the checkpointed weights instead
        // (and each rank's optimizer with them, through the hooks).
        let mlp_config = config.surrogate.mlp_config(config.output_size());
        let make_model = || match &resume {
            Some(cp) => cp.restore_model(),
            None => Mlp::new(mlp_config.clone()),
        };
        let param_count = make_model().param_count();
        let shared = Arc::new(TrainerShared::new(config.training.num_ranks, param_count));

        let aggregator_outcomes = Mutex::new(Vec::new());
        let rank_outcomes: Mutex<Vec<RankOutcome>> = Mutex::new(Vec::new());
        let launcher_report: Mutex<Option<LauncherReport>> = Mutex::new(None);

        crossbeam::scope(|scope| {
            // Data-aggregation threads: one rank coordinator per rank, which
            // runs its shard workers inline (one shard) or on worker threads.
            for (rank, rank_endpoints) in endpoints.into_iter().enumerate() {
                let aggregator = Aggregator::new(
                    rank_endpoints,
                    Arc::clone(&buffers[rank]),
                    input_norm.clone(),
                    output_norm.clone(),
                    IngestControl {
                        gate: Arc::clone(&gate),
                        production_done: Arc::clone(&production_done),
                        server_down: Arc::clone(&server_down),
                        tracker: Some(Arc::clone(&tracker)),
                        completed: Arc::clone(&completed),
                    },
                );
                let outcomes = &aggregator_outcomes;
                scope.spawn(move |_| {
                    let outcome = aggregator.run(start);
                    outcomes.lock().push(outcome);
                });
            }

            // Training threads.
            for (rank, buffer) in buffers.iter().enumerate() {
                let buffer: Arc<dyn TrainingBuffer<Sample>> =
                    Arc::clone(buffer) as Arc<dyn TrainingBuffer<Sample>>;
                let trainer = RankTrainer::new(
                    rank,
                    make_model(),
                    buffer,
                    config.training.clone(),
                    (rank == 0).then(|| Arc::clone(&validation)),
                    Arc::clone(&shared),
                    OccurrenceTable::with_shape(simulations, steps),
                )
                .with_recovery(hooks.clone());
                let outcomes = &rank_outcomes;
                scope.spawn(move |_| {
                    let outcome = trainer.run(start);
                    outcomes.lock().push(outcome);
                });
            }

            // The launcher drives the ensemble campaign: every client runs its
            // simulation and streams the produced time steps to the server.
            // Scripted client faults (crash after N steps, hang until the
            // watchdog kills the attempt) are injected here, exactly where a
            // real solver would die.
            {
                let fabric = &fabric;
                let config = &self.config;
                let workload = Arc::clone(&workload);
                let production_done = Arc::clone(&production_done);
                let server_down = Arc::clone(&server_down);
                let gate = Arc::clone(&gate);
                let launcher_report = &launcher_report;
                let missing = missing.clone();
                scope.spawn(move |_| {
                    let launcher = Launcher::new(config.launcher);
                    let space = workload.parameter_space();
                    // Graceful degradation: when the launcher gives up on a
                    // client for good, the reception gate stops waiting for
                    // its finalize, so the run completes without its data
                    // instead of hanging.
                    let on_abandoned = |_client_id: u64| gate.abandon_one();
                    let events = CampaignEvents {
                        on_abandoned: Some(&on_abandoned),
                    };
                    let client_fn = |job: &melissa_ensemble::ClientJob, ctx: &ClientContext| {
                        // ordering: Acquire — pairs with the trainer's Release crash store; a client never starts streaming to a dead server
                        if server_down.load(Ordering::Acquire) {
                            return Err(ClientError::server_down("training server crashed"));
                        }
                        let scripted = config
                            .fault
                            .plan
                            .client_fault(job.client_id, job.attempt - 1);
                        let connection = fabric.connect_client(job.client_id);
                        let mut sent_steps = 0usize;
                        let mut fault: Option<ClientError> = None;
                        workload
                            // The attempt seed keys stochastic workloads
                            // (seeded observation noise); deterministic ones
                            // ignore it, so replays stay bit-identical.
                            .generate_seeded(job.parameters, job.seed, &mut |step| {
                                // Once faulted, skip the remaining steps: the
                                // generate callback cannot abort the solver,
                                // so the "crashed" client just goes silent.
                                if fault.is_some() {
                                    return;
                                }
                                if let Some(scripted) = scripted {
                                    if sent_steps >= scripted.after_steps {
                                        fault = Some(match scripted.kind {
                                            ClientFaultKind::Crash => ClientError::crash(format!(
                                                "scripted crash after {sent_steps} steps \
                                                 (attempt {})",
                                                job.attempt
                                            )),
                                            ClientFaultKind::Hang => hang_until_killed(ctx),
                                        });
                                        return;
                                    }
                                }
                                // ordering: Acquire — pairs with the trainer's Release crash store; stop producing once the server is gone
                                if server_down.load(Ordering::Acquire) {
                                    fault = Some(ClientError::server_down(
                                        "training server crashed mid-run",
                                    ));
                                    return;
                                }
                                let payload = step_to_payload(&step, job.client_id);
                                // A send only fails when the server is gone, in
                                // which case the client simply stops producing.
                                let _ = connection.send(payload);
                                ctx.beat();
                                sent_steps += 1;
                            })
                            .map_err(|e| ClientError::crash(e.to_string()))?;
                        if let Some(error) = fault {
                            return Err(error);
                        }
                        connection
                            .finalize()
                            .map_err(|e| ClientError::crash(e.to_string()))
                    };
                    let report = match &missing {
                        Some(ids) => launcher.run_campaign_subset(
                            &config.campaign,
                            &space,
                            ids,
                            &events,
                            client_fn,
                        ),
                        None => {
                            launcher.run_campaign_with(&config.campaign, &space, &events, client_fn)
                        }
                    };
                    // ordering: Release — publishes every rank's sends before the aggregator's Acquire gate can observe end-of-production
                    production_done.store(true, Ordering::Release);
                    *launcher_report.lock() = Some(report);
                });
            }
        })
        // analysis: allow(panic, reason = "re-raises a rank/aggregator thread's panic after the scope joins; the experiment cannot continue without them")
        .expect("an online-experiment thread panicked");

        let total_seconds = start.elapsed().as_secs_f64();
        let mut rank_outcomes = rank_outcomes.into_inner();
        let (model, training) =
            ExperimentReport::from_rank_outcomes(&mut rank_outcomes, &config.training);
        let aggregator_outcomes = aggregator_outcomes.into_inner();
        let launcher_report = launcher_report.into_inner();

        // ordering: Acquire — pairs with the trainer's Release store; observes whether the run ended in a scripted server crash
        let crashed = server_down.load(Ordering::Acquire);
        if !crashed && (checkpoint_every_batches > 0 || durable.is_some()) {
            // Capture a final checkpoint so a clean run also leaves a
            // restart point covering everything it consumed.
            let rank0_rounds = rank_outcomes.first().map_or(0, |o| o.rounds);
            let progress_rounds = resumed_from_batches.unwrap_or(0) + rank0_rounds;
            let mut final_checkpoint = ServerCheckpoint::capture(
                &model,
                progress_rounds,
                progress_rounds * config.training.batch_size * config.training.num_ranks,
                tracker.completed_simulations(),
                config.seed,
            );
            final_checkpoint.optimizer = rank_outcomes.first().map(|o| o.optimizer.clone());
            if let Some(durable) = &durable {
                durable.record_completions(&final_checkpoint.completed_simulations);
                durable.record_checkpoint(&final_checkpoint);
            }
            store.record(final_checkpoint);
        }

        let mut report = ExperimentReport {
            label: config.buffer.kind.label().to_string(),
            buffer: Some(config.buffer.kind),
            simulations: config.total_simulations(),
            unique_samples_produced: config.total_unique_samples(),
            dataset_bytes: config.dataset_bytes() as u64,
            generation_seconds: None,
            training_seconds: total_seconds,
            total_seconds,
            buffer_stats: buffers.iter().map(|b| b.stats()).collect(),
            transport: Some(fabric.stats()),
            crashed,
            checkpoints_taken: store.taken(),
            abandoned_clients: launcher_report
                .as_ref()
                .map(|r| r.abandoned_clients.clone())
                .unwrap_or_default(),
            recovered_clients: launcher_report
                .as_ref()
                .map(|r| r.recovered_clients.clone())
                .unwrap_or_default(),
            resumed_from_batches,
            durable_checkpoints: durable.as_ref().map_or(0, |d| d.checkpoints_saved()),
            durable_error: durable.as_ref().and_then(|d| d.first_error()),
            launcher: launcher_report,
            ..training
        };
        let occupancy = &mut report.metrics.occupancy;
        for outcome in &aggregator_outcomes {
            occupancy.extend(outcome.occupancy.iter().copied());
        }
        occupancy.sort_by(|a, b| a.elapsed_seconds.total_cmp(&b.elapsed_seconds));

        (model, report, store.latest())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use training_buffer::BufferKind;

    fn tiny_config(kind: BufferKind, num_ranks: usize) -> ExperimentConfig {
        ExperimentConfig::builder()
            .workload(crate::WorkloadSpec::heat_analytic(
                heat_solver::SolverConfig {
                    nx: 8,
                    ny: 8,
                    steps: 10,
                    ..heat_solver::SolverConfig::default()
                },
            ))
            .campaign(melissa_ensemble::CampaignPlan::single_series(4, 2))
            .buffer(training_buffer::BufferConfig {
                kind,
                capacity: 16,
                threshold: 4,
                seed: 1,
            })
            .ranks(num_ranks)
            .batch_size(5)
            .validation(2, 4)
            .hidden_width(16)
            .build()
            .expect("consistent test configuration")
    }

    #[test]
    fn online_experiment_runs_end_to_end_with_each_buffer() {
        for kind in BufferKind::ALL {
            let config = tiny_config(kind, 1);
            let (model, report) = OnlineExperiment::new(config).unwrap().run();
            assert!(
                model.params_flat().iter().all(|p| p.is_finite()),
                "{kind:?}"
            );
            assert_eq!(report.simulations, 4);
            assert_eq!(report.unique_samples_produced, 40);
            // Every produced sample reached some rank and was trained on at
            // least once (FIFO/FIRO see each exactly once, Reservoir at least once).
            assert_eq!(report.unique_samples_trained, 40, "{kind:?}");
            assert!(report.samples_trained >= 40, "{kind:?}");
            assert!(report.batches > 0);
            assert!(report.min_validation_mse.is_some());
            assert!(report.mean_throughput > 0.0);
            let transport = report.transport.unwrap();
            assert_eq!(transport.messages_sent, 40);
            assert_eq!(transport.messages_delivered, 40);
        }
    }

    #[test]
    fn online_experiment_scales_to_multiple_ranks() {
        let config = tiny_config(BufferKind::Reservoir, 2);
        let (_, report) = OnlineExperiment::new(config).unwrap().run();
        assert_eq!(report.num_ranks, 2);
        assert_eq!(report.unique_samples_trained, 40);
        assert_eq!(report.buffer_stats.len(), 2);
        // Round-robin distribution: both ranks received data.
        for stats in &report.buffer_stats {
            assert!(stats.puts > 0);
        }
    }

    #[test]
    fn online_experiment_runs_with_sharded_ingestion() {
        for kind in BufferKind::ALL {
            let mut config = tiny_config(kind, 1);
            config.ingest_shards = 2;
            let (model, report) = OnlineExperiment::new(config).unwrap().run();
            assert!(
                model.params_flat().iter().all(|p| p.is_finite()),
                "{kind:?}"
            );
            // Every produced sample crossed the sharded ingestion path and
            // was trained on at least once.
            assert_eq!(report.unique_samples_produced, 40, "{kind:?}");
            assert_eq!(report.unique_samples_trained, 40, "{kind:?}");
            let transport = report.transport.unwrap();
            assert_eq!(transport.messages_delivered, 40, "{kind:?}");
        }
    }

    #[test]
    fn invalid_config_is_rejected() {
        let mut config = tiny_config(BufferKind::Fifo, 1);
        config.training.batch_size = 0;
        assert!(OnlineExperiment::new(config).is_err());
    }

    #[test]
    fn durable_run_persists_and_resume_from_dir_reruns_nothing() {
        let dir =
            std::env::temp_dir().join(format!("melissa-server-durable-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();

        let mut config = tiny_config(BufferKind::Reservoir, 1);
        config.checkpoint_every_batches = 2;
        config.durability = Some(crate::DurabilityConfig::new(dir.to_string_lossy()));
        let (_, report, checkpoint) = OnlineExperiment::new(config.clone())
            .unwrap()
            .run_recoverable();
        assert_eq!(report.durable_error, None);
        assert!(report.durable_checkpoints >= 1, "final save always lands");
        assert_eq!(checkpoint.unwrap().completed_simulations.len(), 4);

        // Resuming the directory of a finished run reruns nothing: every
        // simulation is already covered by the checkpoint + journal, so no
        // client ever streams a message.
        let (model, resume_report, resumed) =
            OnlineExperiment::resume_from_dir(&dir, config).unwrap();
        assert!(model.params_flat().iter().all(|p| p.is_finite()));
        assert_eq!(resume_report.transport.unwrap().messages_sent, 0);
        assert_eq!(resumed.unwrap().completed_simulations.len(), 4);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn resume_from_missing_directory_is_a_typed_error() {
        let config = tiny_config(BufferKind::Fifo, 1);
        let result = OnlineExperiment::resume_from_dir("/nonexistent/melissa-nowhere", config);
        assert!(matches!(
            result,
            Err(crate::durable::DurabilityError::MissingDirectory(_))
        ));
    }

    #[test]
    fn resume_from_foreign_directory_names_the_differing_knob() {
        let dir =
            std::env::temp_dir().join(format!("melissa-server-foreign-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();

        let mut config = tiny_config(BufferKind::Reservoir, 1);
        config.checkpoint_every_batches = 2;
        config.durability = Some(crate::DurabilityConfig::new(dir.to_string_lossy()));
        let (_, report, _) = OnlineExperiment::new(config.clone())
            .unwrap()
            .run_recoverable();
        assert_eq!(report.durable_error, None);

        // Same configuration, different seed: the message must name the seed
        // as the differing knob and report both values.
        let mut other_seed = config.clone();
        other_seed.seed = config.seed + 1;
        let err = OnlineExperiment::resume_from_dir(&dir, other_seed).unwrap_err();
        assert!(matches!(
            err,
            crate::durable::DurabilityError::ForeignDirectory { .. }
        ));
        let message = err.to_string();
        assert!(
            message.contains("the experiment seed differs"),
            "message must diagnose the seed: {message}"
        );
        assert!(
            message.contains("the rest of the configuration matches"),
            "message must clear the config: {message}"
        );

        // Same seed, different training configuration: the message must point
        // at the non-seed knobs instead.
        let mut other_config = config.clone();
        other_config.training.batch_size += 1;
        let err = OnlineExperiment::resume_from_dir(&dir, other_config).unwrap_err();
        let message = err.to_string();
        assert!(
            message.contains("the configuration differs"),
            "message must diagnose the config: {message}"
        );
        assert!(
            message.contains("the seed matches"),
            "message must clear the seed: {message}"
        );

        // The matching configuration still resumes fine afterwards.
        let (_, resume_report, _) = OnlineExperiment::resume_from_dir(&dir, config).unwrap();
        assert_eq!(resume_report.transport.unwrap().messages_sent, 0);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn resume_from_empty_directory_is_a_fresh_durable_run() {
        let dir = std::env::temp_dir().join(format!("melissa-server-fresh-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();

        let mut config = tiny_config(BufferKind::Reservoir, 1);
        config.checkpoint_every_batches = 2;
        let (model, report, checkpoint) = OnlineExperiment::resume_from_dir(&dir, config).unwrap();
        assert!(model.params_flat().iter().all(|p| p.is_finite()));
        assert_eq!(report.unique_samples_trained, 40);
        assert!(
            report.durable_checkpoints >= 1,
            "fresh run persists into the dir"
        );
        assert_eq!(checkpoint.unwrap().completed_simulations.len(), 4);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
