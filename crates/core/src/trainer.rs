//! The training thread of one rank — of the online server and of the
//! offline baseline alike.
//!
//! §3.1: *"The second thread, the training thread, reads data from the training
//! buffer to build a batch, feeds the GPU with it and performs the forward and
//! backward passes through the NN. An all-reduce operation amongst the
//! different training threads aggregates the gradients to update the network
//! weights."* Each rank owns a full model replica and runs forward/backward
//! on it; the round on [`surrogate_nn::GradientSynchronizer`] then splits the
//! update: each of the N ranks averages its 1/N of the parameters' gradients
//! across ranks (in rank order), runs Adam on that range only, and copies the
//! other ranks' updated ranges in. Every replica ends the round with the
//! update one rank applying the full step would make, bit-identical across
//! ranks and across runs (synchronous data parallel, ZeRO-1 on threads). The
//! Adam moments stay split until rank 0 captures a checkpoint (that round
//! hands it the rest) and at exit, when every rank gathers them.
//!
//! Termination: a rank whose batch source has run dry keeps participating in
//! the round with zero gradients until *every* rank has, so no rank ever
//! blocks on a missing peer. Each rank's vote (data, idle, crash, capture)
//! travels with its gradients, so ending the run costs no collective of its
//! own.
//!
//! Data plane: a [`BatchSource`] has two arms. Online, batches are
//! assembled straight from the rank's training buffer into the batch
//! matrices ([`crate::sample::fill_batch_from_buffer`]) — one buffer lock
//! acquisition per batch, no intermediate `Vec<Sample>`, no per-sample clone.
//! With [`TrainingConfig::prefetch`] enabled, a per-rank prefetch stage
//! assembles batch N+1 behind a double-buffered handoff while the train step
//! runs batch N; the prefetcher is the buffer's only consumer, so the sample
//! stream — and therefore the trained parameters — is bit-identical to the
//! non-prefetch path. Offline, an [`EpochReader`] copies the rank's share of
//! each epoch from the simulated disk by borrow, on the learning thread
//! whatever `prefetch` says: the offline cost model charges its reads to
//! training.
//!
//! The learning thread only learns. Everything else rank 0 owes a round —
//! periodic validation, persisting the checkpoint it captured, journalling
//! the simulations that completed — is handed as a snapshot to one sidecar
//! thread (`crate::sidecar`) that lives exactly as long as
//! [`RankTrainer::run`]. What stays on the learner is O(memcpy): the
//! parameter copy a checkpoint capture makes anyway (shared with validation
//! when the cadences coincide), or a copy into a recycled buffer. The values
//! are unchanged: the sidecar validates the snapshot on a shadow model of the
//! same architecture, workspace, GEMM threading and ISA, jobs are served in
//! submission order and never dropped, and a loss point keeps the time its
//! batch finished — only its `validation_loss` arrives a little later.

use crate::checkpoint::ServerCheckpoint;
use crate::config::TrainingConfig;
use crate::metrics::{LossPoint, OccurrenceTable, ThroughputPoint, ThroughputTracker};
use crate::offline::EpochReader;
use crate::recovery::RecoveryHooks;
use crate::report::SidecarReport;
use crate::sample::fill_batch_from_buffer;
use crate::sidecar::{self, SidecarHandle};
use crate::validation::ValidationSet;
use crossbeam::channel::bounded;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Instant;
use surrogate_nn::{
    Adam, AdamConfig, Batch, GradientSynchronizer, Loss, Mlp, MseLoss, Sample, SampleBasedHalving,
    Verdict, Vote, Workspace,
};
use training_buffer::TrainingBuffer;

/// Learning-rate floor of the sample-based halving schedule (paper: 2.5e-4).
const LR_FLOOR: f32 = 2.5e-4;

/// State shared by every rank of one training run. The hot loop shares only
/// the collective — per-sample accounting stays rank-local (see
/// [`RankOutcome::occurrences`]) so no cross-rank lock is taken per round.
pub struct TrainerShared {
    /// The training round: termination vote, gradient reduction, sharded
    /// optimizer step and parameter all-gather.
    pub grad_sync: GradientSynchronizer,
    /// Number of ranks.
    pub num_ranks: usize,
}

impl TrainerShared {
    /// Creates the shared state for `num_ranks` ranks and `param_count` parameters.
    pub fn new(num_ranks: usize, param_count: usize) -> Self {
        Self {
            grad_sync: GradientSynchronizer::new(num_ranks, param_count),
            num_ranks,
        }
    }
}

/// Where a rank's batches come from.
pub enum BatchSource {
    /// The rank's training buffer, fed by its aggregator (online).
    Buffer(Arc<dyn TrainingBuffer<Sample>>),
    /// The rank's share of every epoch over a dataset on disk (offline).
    Epochs(EpochReader),
}

impl From<Arc<dyn TrainingBuffer<Sample>>> for BatchSource {
    fn from(buffer: Arc<dyn TrainingBuffer<Sample>>) -> Self {
        Self::Buffer(buffer)
    }
}

impl BatchSource {
    /// Assembles the next batch into `batch` — up to `n` samples from a
    /// buffer, the configured batch size from the reader — and returns its
    /// size; `0` once the source has run dry for good.
    fn fill(&mut self, batch: &mut Batch, n: usize) -> usize {
        match self {
            Self::Buffer(buffer) => fill_batch_from_buffer(buffer.as_ref(), batch, n),
            Self::Epochs(reader) => reader.fill(batch),
        }
    }

    /// The buffer to end reception on when the rank stops consuming for good,
    /// so no producer stays blocked on it. The epoch reader has no producers:
    /// its dataset was complete on disk before training started.
    fn buffer(&self) -> Option<&Arc<dyn TrainingBuffer<Sample>>> {
        match self {
            Self::Buffer(buffer) => Some(buffer),
            Self::Epochs(_) => None,
        }
    }
}

/// Result of one rank's training loop.
#[derive(Debug, Clone)]
pub struct RankOutcome {
    /// The rank index.
    pub rank: usize,
    /// The trained model replica (identical on every rank).
    pub model: Mlp,
    /// The optimizer that trained it, for the server's final checkpoint:
    /// complete (every rank's moment shard gathered) and identical on every
    /// rank.
    pub optimizer: Adam,
    /// Number of batches this rank processed (including idle rounds where the
    /// rank only participated in the collectives).
    pub rounds: usize,
    /// Number of batches with actual data.
    pub batches_with_data: usize,
    /// Number of samples this rank consumed from its buffer.
    pub samples_consumed: usize,
    /// Checkpoints this rank captured at the recovery cadence (rank 0 only).
    pub checkpoints_captured: usize,
    /// Per-sample occurrence counts of this rank (Figure 3). Counted locally
    /// in the hot loop and merged across ranks by the orchestrator after the
    /// rank threads join, replacing the former global occurrence mutex.
    pub occurrences: OccurrenceTable,
    /// Loss history (rank 0 only; empty on other ranks).
    pub losses: Vec<LossPoint>,
    /// Throughput measurements of this rank.
    pub throughput: Vec<ThroughputPoint>,
    /// Mean throughput of this rank in samples per second (wall clock).
    pub mean_throughput: f64,
    /// What this rank's sidecar did (all zero on ranks without one).
    pub sidecar: SidecarReport,
}

/// The reusable per-rank training state threaded through every round.
struct RoundState {
    ws: Workspace,
    tracker: ThroughputTracker,
    losses: Vec<LossPoint>,
    occurrences: OccurrenceTable,
    rounds: usize,
    batches_with_data: usize,
    samples_consumed: usize,
    checkpoints_captured: usize,
    /// Rank 0's end of its sidecar; `None` on the other ranks and when the
    /// run has neither periodic validation nor a durable recorder.
    sidecar: Option<SidecarHandle>,
}

/// Armed for the life of a rank (or sidecar) thread: if the thread unwinds,
/// it declares the server down and ends reception on the rank's buffer. The
/// aggregators and the launcher of an [`crate::OnlineExperiment`] would
/// otherwise stay blocked on a full buffer or channel that nobody drains, the
/// experiment's thread scope would never join, and the panic would never be
/// re-raised.
struct UnwindGuard {
    server_down: Option<Arc<AtomicBool>>,
    buffer: Option<Arc<dyn TrainingBuffer<Sample>>>,
}

impl Drop for UnwindGuard {
    fn drop(&mut self) {
        if std::thread::panicking() {
            if let Some(server_down) = &self.server_down {
                // ordering: Release — same publication as the scripted crash: aggregators and clients Acquire-load the flag and stop feeding a dead server
                server_down.store(true, Ordering::Release);
            }
            if let Some(buffer) = &self.buffer {
                buffer.mark_reception_over();
            }
        }
    }
}

/// The per-rank training loop.
pub struct RankTrainer {
    rank: usize,
    model: Mlp,
    optimizer: Adam,
    schedule: SampleBasedHalving,
    source: BatchSource,
    config: TrainingConfig,
    validation: Option<Arc<ValidationSet>>,
    shared: Arc<TrainerShared>,
    recovery: Option<RecoveryHooks>,
    /// This rank's occurrence counts, moved into the round state by `run`.
    occurrences: OccurrenceTable,
}

impl RankTrainer {
    /// Creates the trainer of one rank, reading its batches from `source` (a
    /// training buffer or an [`EpochReader`]). Every rank must be given a
    /// model built from the same configuration and seed so the replicas start
    /// identical, and an all-zero `occurrences` table with the campaign's
    /// shape.
    pub fn new(
        rank: usize,
        model: Mlp,
        source: impl Into<BatchSource>,
        config: TrainingConfig,
        validation: Option<Arc<ValidationSet>>,
        shared: Arc<TrainerShared>,
        occurrences: OccurrenceTable,
    ) -> Self {
        let optimizer =
            Adam::new(AdamConfig::default(), model.param_count()).with_isa(config.kernel_isa);
        let schedule = SampleBasedHalving {
            initial: config.initial_learning_rate,
            interval_samples: config.lr_halving_samples,
            floor: LR_FLOOR,
        };
        Self {
            rank,
            model,
            optimizer,
            schedule,
            source: source.into(),
            config,
            validation,
            shared,
            recovery: None,
            occurrences,
        }
    }

    /// Attaches the crash-recovery hooks: periodic checkpoint capture and
    /// per-simulation consumption accounting, the scripted server-crash
    /// fault, and for a resumed run the checkpoint's optimizer state and
    /// learning-rate progress offset (its model goes to [`RankTrainer::new`]).
    /// Every rank of one run must receive a clone of the same hooks.
    pub fn with_recovery(mut self, hooks: RecoveryHooks) -> Self {
        if let Some(adam) = hooks.resume.as_ref().and_then(|cp| cp.optimizer.as_ref()) {
            self.optimizer = adam.clone().with_isa(self.config.kernel_isa);
        }
        self.recovery = Some(hooks);
        self
    }

    /// Collective rounds carried over from the checkpoint being resumed.
    fn resume_rounds(&self) -> usize {
        let resume = self.recovery.as_ref().and_then(|h| h.resume.as_ref());
        resume.map_or(0, |cp| cp.batches_trained)
    }

    /// Runs the training loop until every rank's buffer has drained.
    ///
    /// The loop is allocation-free in steady state: the forward/backward
    /// passes borrow a per-trainer [`surrogate_nn::Workspace`], the batch
    /// matrices are filled straight from the buffer and reused across rounds,
    /// and the gradients stay in the model's arena from the backward pass
    /// through the reduction to the optimizer step.
    ///
    /// Rank 0's sidecar thread is spawned here and joined before this
    /// returns — crash round included — so the caller never observes an
    /// in-flight checkpoint write or an unfilled validation point.
    pub fn run(self, start: Instant) -> RankOutcome {
        let guard = || UnwindGuard {
            server_down: self
                .recovery
                .as_ref()
                .map(|hooks| Arc::clone(&hooks.server_down)),
            buffer: self.source.buffer().cloned(),
        };
        let _guard = guard();
        let durable = self.recovery.as_ref().and_then(|h| h.durable.clone());
        let periodic_validation = self
            .validation
            .clone()
            .filter(|_| self.config.validation_interval_batches > 0);
        let (handle, worker) =
            if self.rank == 0 && (periodic_validation.is_some() || durable.is_some()) {
                let (handle, worker) =
                    sidecar::pair(&self.model, &self.config, periodic_validation, durable);
                (Some(handle), Some((worker, guard())))
            } else {
                (None, None)
            };
        std::thread::scope(|scope| {
            let worker = worker.map(|(worker, guard)| {
                scope.spawn(move || {
                    let _guard = guard;
                    worker.run()
                })
            });
            // The epoch reader always runs direct: its disk reads stay on the
            // learning thread, as the offline cost model charges them.
            let mut outcome = match self.source.buffer().cloned() {
                Some(buffer) if self.config.prefetch => self.run_prefetch(start, handle, buffer),
                _ => self.run_direct(start, handle),
            };
            if let Some(worker) = worker {
                // `finish` filled in the learner's side of the report.
                let learner_blocked_seconds = outcome.sidecar.learner_blocked_seconds;
                outcome.sidecar = SidecarReport {
                    learner_blocked_seconds,
                    ..worker
                        .join()
                        .unwrap_or_else(|panic| std::panic::resume_unwind(panic))
                };
            }
            outcome
        })
    }

    /// The direct path: the training thread assembles each batch itself, then
    /// runs the round on it.
    fn run_direct(mut self, start: Instant, sidecar: Option<SidecarHandle>) -> RankOutcome {
        let batch_size = self.config.batch_size.max(1);
        let mut state = self.new_state(batch_size, sidecar);
        let mut batch = Batch::with_capacity(
            batch_size,
            self.model.input_size(),
            self.model.output_size(),
        );
        loop {
            let served = self.source.fill(&mut batch, batch_size);
            let data = (served > 0).then_some(&batch);
            if !self.round(&mut state, data, start) {
                break;
            }
        }
        self.finish(state, start)
    }

    /// The prefetch path: a dedicated stage assembles batch N+1 while the
    /// round runs batch N. Two batches rotate through a pair of bounded
    /// single-slot channels (full/empty), so the stage is never more than one
    /// batch ahead and no batch is ever allocated in steady state. The stage
    /// is the buffer's only consumer, which keeps the sample stream — and the
    /// trained parameters — bit-identical to [`RankTrainer::run_direct`].
    fn run_prefetch(
        mut self,
        start: Instant,
        sidecar: Option<SidecarHandle>,
        buffer: Arc<dyn TrainingBuffer<Sample>>,
    ) -> RankOutcome {
        let batch_size = self.config.batch_size.max(1);
        let mut state = self.new_state(batch_size, sidecar);
        let make_batch = || {
            Batch::with_capacity(
                batch_size,
                self.model.input_size(),
                self.model.output_size(),
            )
        };
        // full: assembled batches (+ how many samples they hold) travelling to
        // the trainer; empty: consumed batches travelling back for refill.
        let (full_tx, full_rx) = bounded::<(Batch, usize)>(1);
        let (empty_tx, empty_rx) = bounded::<Batch>(2);
        // analysis: allow(panic, reason = "sends into a just-created bounded(2) channel whose receiver is alive; capacity and liveness are local facts")
        empty_tx.send(make_batch()).expect("fresh channel");
        // analysis: allow(panic, reason = "sends into a just-created bounded(2) channel whose receiver is alive; capacity and liveness are local facts")
        empty_tx.send(make_batch()).expect("fresh channel");

        let mut outcome = None;
        crossbeam::scope(|scope| {
            scope.spawn(move |_| {
                while let Ok(mut batch) = empty_rx.recv() {
                    let served = fill_batch_from_buffer(buffer.as_ref(), &mut batch, batch_size);
                    let drained = served == 0;
                    if full_tx.send((batch, served)).is_err() || drained {
                        // The trainer hung up, or the buffer has drained and
                        // this rank will only run idle rounds from now on.
                        break;
                    }
                }
            });

            let mut drained = false;
            loop {
                let batch = if drained {
                    None
                } else {
                    match full_rx.recv() {
                        Ok((batch, served)) if served > 0 => Some(batch),
                        _ => {
                            drained = true;
                            None
                        }
                    }
                };
                let proceed = self.round(&mut state, batch.as_ref(), start);
                if let Some(batch) = batch {
                    // Hand the consumed batch back for refilling; the stage
                    // may already have exited if the buffer drained meanwhile.
                    let _ = empty_tx.send(batch);
                }
                if !proceed {
                    break;
                }
            }
            // Unblock the stage if it is still waiting for an empty batch.
            drop(empty_tx);
            outcome = Some(self.finish(state, start));
        })
        // analysis: allow(panic, reason = "re-raises the prefetch thread's panic; training cannot proceed without the sample stream")
        .expect("the prefetch stage panicked");
        // analysis: allow(panic, reason = "the scope body unconditionally sets `outcome` before joining")
        outcome.expect("the prefetch scope always produces an outcome")
    }

    fn new_state(&mut self, batch_size: usize, sidecar: Option<SidecarHandle>) -> RoundState {
        RoundState {
            ws: self
                .model
                .workspace(batch_size)
                .with_threads(self.config.effective_gemm_threads())
                .with_isa(self.config.kernel_isa),
            tracker: ThroughputTracker::new(10),
            losses: Vec::new(),
            occurrences: std::mem::take(&mut self.occurrences),
            rounds: 0,
            batches_with_data: 0,
            samples_consumed: 0,
            checkpoints_captured: 0,
            sidecar,
        }
    }

    /// One collective round: forward/backward (or the idle zero-gradient
    /// contribution), then the round on [`TrainerShared::grad_sync`] — the
    /// termination vote, the gradient reduction and the sharded optimizer
    /// step — and metrics. Returns `false` once every rank has drained.
    /// Identical for the direct and prefetch paths — only who assembled
    /// `batch` differs.
    // analysis: hot_path
    fn round(&mut self, state: &mut RoundState, batch: Option<&Batch>, start: Instant) -> bool {
        let loss_fn = MseLoss;
        let batch_size = self.config.batch_size.max(1);
        let has_data = batch.is_some();

        // A scripted server crash rides the round's vote: every rank exits
        // this very round, before any update — the replicas (and therefore
        // any checkpoint already captured) stay bit-identical across ranks.
        // A sidecar that died takes the same exit, so no peer is left waiting
        // in the collective while rank 0 re-raises the sidecar's panic.
        let crash_now = self.rank == 0
            && (state.sidecar.as_ref().is_some_and(SidecarHandle::lost)
                || self
                    .recovery
                    .as_ref()
                    .and_then(|h| h.crash_after_batches)
                    .is_some_and(|after| state.batches_with_data >= after));
        // A checkpoint at the configured cadence: rank 0 captures after this
        // round, so the round hands it the peers' optimizer moments.
        let capture = self.rank == 0
            && has_data
            && self.recovery.as_ref().is_some_and(|hooks| {
                hooks.checkpoint_every_batches > 0
                    && (state.batches_with_data + 1).is_multiple_of(hooks.checkpoint_every_batches)
            });
        let vote = if crash_now {
            Vote::Crash
        } else if capture {
            Vote::Capture
        } else if has_data {
            Vote::Active
        } else {
            Vote::Idle
        };

        // Forward/backward on this replica through the reused workspace.
        let train_loss = if let Some(batch) = batch {
            self.model.forward_ws(&batch.inputs, &mut state.ws);
            let (prediction, grad_out) = state.ws.output_and_grad_mut();
            let loss = loss_fn.evaluate_into(prediction, &batch.targets, grad_out);
            // backward_ws overwrites the gradients — no zeroing pass needed.
            self.model.backward_ws(&mut state.ws);
            loss
        } else {
            self.model.zero_grads();
            0.0
        };

        // Learning-rate decay is scheduled in *sample* space so that runs
        // with different rank counts decay at the same point (§4.5). The
        // sample count is derived deterministically from the round number so
        // every replica computes the same learning rate; a resumed run
        // continues from the checkpoint's round counter instead of starting
        // the schedule over hot.
        let progress_rounds = self.resume_rounds() + state.rounds + 1;
        let nominal_samples_seen = progress_rounds * batch_size * self.shared.num_ranks;
        let lr = self.schedule.learning_rate(nominal_samples_seen);

        // Synchronous data parallelism: every rank reduces and Adam-steps its
        // shard of the mean gradient and gathers the others, so the same
        // update lands on every replica.
        // analysis: allow(blocking, reason = "the collective is the round: synchronous data parallelism waits for every rank by design")
        let verdict =
            self.shared
                .grad_sync
                .step(self.rank, vote, &mut self.model, &mut self.optimizer, lr);
        match verdict {
            Verdict::Stepped => {}
            Verdict::Drained => return false,
            Verdict::Crash => {
                if let Some(hooks) = &self.recovery {
                    // ordering: Release — publishes all training state written before the crash to the aggregators' and clients' Acquire loads
                    hooks.server_down.store(true, Ordering::Release);
                }
                // This rank stops consuming for good: lift the buffer's
                // producer backpressure so no ingest worker stays blocked on
                // a full queue it will never drain (they drop data once
                // reception is over).
                if let Some(buffer) = self.source.buffer() {
                    // analysis: allow(blocking, reason = "crash exit, once per run: takes the buffer lock to wake blocked producers")
                    buffer.mark_reception_over();
                }
                return false;
            }
        }
        if let Some(batch) = batch {
            // Rank-local occurrence accounting, after the verdict so a crash
            // round records nothing: merged after the join, so the hot loop
            // takes no cross-rank lock.
            for key in &batch.keys {
                state.occurrences.record(*key);
            }
        }

        state.rounds += 1;
        if let Some(batch) = batch {
            state.batches_with_data += 1;
            state.samples_consumed += batch.len();
            state.tracker.record_batch(batch.len());
        }

        // Recovery bookkeeping, after the weight update so a checkpoint never
        // sees a half-applied batch: record what this batch consumed.
        if let (Some(hooks), Some(batch)) = (&self.recovery, batch) {
            // analysis: allow(blocking, reason = "one short critical section per batch on the cross-rank progress map; per-step sets grow by amortised doubling until a simulation's steps were all seen once")
            hooks.tracker.record_consumed(&batch.keys);
        }
        if let Some(sidecar) = &mut state.sidecar {
            sidecar.poll(&mut state.losses);
        }
        if self.rank != 0 || !has_data {
            return true;
        }

        // Rank 0 records the loss history and decides what this round owes
        // besides the SGD step. None of it runs here: the learner captures a
        // snapshot and the sidecar does the work, in the order this code used
        // to — journal the completions, persist the checkpoint, validate.
        // The checkpoint this round voted for. Capturing is the parameter
        // copy, which the sidecar persists and, on a validation round,
        // validates.
        let checkpoint = self.recovery.as_ref().filter(|_| capture).map(|hooks| {
            state.checkpoints_captured += 1;
            // analysis: allow(alloc, reason = "checkpoint cadence, not per batch: the sidecar keeps the copy until it is on disk, so it cannot be recycled")
            Arc::new(ServerCheckpoint {
                // analysis: allow(alloc, reason = "checkpoint cadence, not per batch: the two moment vectors, copied like the parameters")
                optimizer: Some(self.optimizer.clone()),
                // analysis: allow(alloc, reason = "checkpoint cadence, not per batch: the parameter copy")
                ..ServerCheckpoint::capture(
                    &self.model,
                    self.resume_rounds() + state.rounds,
                    nominal_samples_seen,
                    // analysis: allow(alloc, reason = "checkpoint cadence, not per batch: the full scan collects and sorts the completed ids")
                    // analysis: allow(blocking, reason = "checkpoint cadence, not per batch: the full scan holds the progress map's lock")
                    hooks.tracker.completed_simulations(),
                    hooks.experiment_seed,
                )
            })
        });
        if let Some(sidecar) = &mut state.sidecar {
            let validate = self.validation.is_some()
                && self.config.validation_interval_batches > 0
                && state
                    .rounds
                    .is_multiple_of(self.config.validation_interval_batches);
            let durable = self.recovery.as_ref().filter(|h| h.durable.is_some());
            if let Some(hooks) = durable {
                // Journal newly completed simulations every data batch: the
                // journal shrinks the re-simulation window of a crash to
                // "since the last flush", not "since the last checkpoint".
                let completions = &mut sidecar.staging.completions;
                // analysis: allow(blocking, reason = "one short critical section per batch; moves O(new) ids, none on most batches")
                hooks.tracker.take_newly_completed(completions);
            }
            if validate {
                sidecar.staging.validate = Some(state.losses.len());
                if checkpoint.is_none() {
                    sidecar.snapshot_params(&self.model);
                }
            }
            if durable.is_some() || validate {
                sidecar.staging.checkpoint = checkpoint;
            }
            // Never waits unless the queue is full; then waiting for the
            // sidecar is the old synchronous behaviour as the worst case.
            // analysis: allow(blocking, reason = "waits only for a snapshot round with QUEUE_DEPTH jobs in flight; the bounded channel has room below that depth")
            sidecar.submit(&mut state.losses);
        }
        state.losses.push(LossPoint {
            batches: state.rounds,
            samples_seen: nominal_samples_seen,
            train_loss,
            // Filled in by index when the sidecar hands the job back.
            validation_loss: None,
            elapsed_seconds: start.elapsed().as_secs_f64(),
        });
        true
    }

    /// Final validation point and outcome assembly, shared by both paths.
    fn finish(mut self, mut state: RoundState, start: Instant) -> RankOutcome {
        let batch_size = self.config.batch_size.max(1);
        // Every rank leaves the same round (drained or crashed), so all of
        // them gather here: each outcome carries the complete optimizer.
        // analysis: allow(blocking, reason = "once per run, after the last round: the ranks exchange their optimizer-moment shards")
        self.shared
            .grad_sync
            .gather_moments(self.rank, &mut self.optimizer);
        if self.rank == 0 {
            if let Some(validation) = &self.validation {
                state.losses.push(LossPoint {
                    batches: state.rounds,
                    samples_seen: (self.resume_rounds() + state.rounds)
                        * batch_size
                        * self.shared.num_ranks,
                    train_loss: state
                        .losses
                        .last()
                        .map(|p| p.train_loss)
                        .unwrap_or(f32::NAN),
                    validation_loss: Some(validation.evaluate_with(&self.model, &mut state.ws)),
                    elapsed_seconds: start.elapsed().as_secs_f64(),
                });
            }
        }

        // Close the sidecar's queue and wait out its backlog (it kept working
        // through the final validation above): from here every due validation
        // point is filled and every captured checkpoint is on disk.
        let mut sidecar_report = SidecarReport::default();
        if let Some(sidecar) = &mut state.sidecar {
            sidecar.drain(&mut state.losses);
            sidecar_report.learner_blocked_seconds = sidecar.blocked_seconds();
        }

        let mean_throughput = state.tracker.mean_throughput();
        RankOutcome {
            rank: self.rank,
            model: self.model,
            optimizer: self.optimizer,
            rounds: state.rounds,
            batches_with_data: state.batches_with_data,
            samples_consumed: state.samples_consumed,
            checkpoints_captured: state.checkpoints_captured,
            occurrences: state.occurrences,
            losses: state.losses,
            throughput: state.tracker.into_points(),
            mean_throughput,
            sidecar: sidecar_report,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::TrainingConfig;
    use surrogate_nn::MlpConfig;
    use training_buffer::{FifoBuffer, ReservoirBuffer};

    fn sample(sim: u64, step: usize) -> Sample {
        let x = (sim as f32 * 0.1 + step as f32 * 0.01).fract();
        Sample::new(vec![x; 4], vec![x * 2.0; 8], sim, step)
    }

    fn model() -> Mlp {
        Mlp::new(MlpConfig {
            layer_sizes: vec![4, 16, 8],
            activation: surrogate_nn::Activation::ReLU,
            init: surrogate_nn::InitScheme::HeUniform,
            seed: 5,
        })
    }

    /// Room for every `(simulation, step)` the tests below serve.
    fn table() -> OccurrenceTable {
        OccurrenceTable::with_shape(8, 64)
    }

    fn config(num_ranks: usize) -> TrainingConfig {
        TrainingConfig {
            batch_size: 4,
            num_ranks,
            validation_interval_batches: 0,
            ..TrainingConfig::default()
        }
    }

    #[test]
    fn single_rank_consumes_all_samples() {
        let buffer: Arc<dyn TrainingBuffer<Sample>> = Arc::new(FifoBuffer::new(256));
        for k in 0..40 {
            buffer.put(sample(0, k));
        }
        buffer.mark_reception_over();
        let shared = Arc::new(TrainerShared::new(1, model().param_count()));
        let trainer = RankTrainer::new(
            0,
            model(),
            Arc::clone(&buffer),
            config(1),
            None,
            shared,
            table(),
        );
        let outcome = trainer.run(Instant::now());
        assert_eq!(outcome.samples_consumed, 40);
        assert_eq!(outcome.batches_with_data, 10);
        assert!(outcome.model.params_flat().iter().all(|p| p.is_finite()));
        assert!(outcome.mean_throughput > 0.0);
    }

    #[test]
    fn replicas_stay_identical_across_two_ranks() {
        let param_count = model().param_count();
        let shared = Arc::new(TrainerShared::new(2, param_count));
        let buffers: Vec<Arc<dyn TrainingBuffer<Sample>>> = (0..2)
            .map(|_| Arc::new(FifoBuffer::new(256)) as Arc<dyn TrainingBuffer<Sample>>)
            .collect();
        // Rank 0 receives 24 samples, rank 1 only 12: the ranks finish at
        // different times, exercising the idle-round protocol.
        for k in 0..24 {
            buffers[0].put(sample(0, k));
        }
        for k in 0..12 {
            buffers[1].put(sample(1, k));
        }
        for buffer in &buffers {
            buffer.mark_reception_over();
        }

        let mut handles = Vec::new();
        for (rank, buffer) in buffers.iter().enumerate() {
            let trainer = RankTrainer::new(
                rank,
                model(),
                Arc::clone(buffer),
                config(2),
                None,
                Arc::clone(&shared),
                table(),
            );
            handles.push(std::thread::spawn(move || trainer.run(Instant::now())));
        }
        let outcomes: Vec<RankOutcome> = handles.into_iter().map(|h| h.join().unwrap()).collect();
        assert_eq!(
            outcomes[0].model.params_flat(),
            outcomes[1].model.params_flat(),
            "data-parallel replicas must end identical"
        );
        // Both ranks executed the same number of collective rounds.
        assert_eq!(outcomes[0].rounds, outcomes[1].rounds);
        let total: usize = outcomes.iter().map(|o| o.samples_consumed).sum();
        assert_eq!(total, 36);
        // The merged occurrence map accounts for every consumed sample.
        let merged = OccurrenceTable::merged(outcomes.into_iter().map(|o| o.occurrences));
        assert_eq!(merged.counts().sum::<u32>(), 36);
    }

    #[test]
    fn training_reduces_loss_on_a_learnable_mapping() {
        let buffer: Arc<dyn TrainingBuffer<Sample>> = Arc::new(ReservoirBuffer::new(64, 4, 3));
        // A simple learnable mapping with plenty of repetition via the Reservoir.
        for k in 0..64usize {
            buffer.put(sample((k % 8) as u64, k));
        }
        buffer.mark_reception_over();
        let shared = Arc::new(TrainerShared::new(1, model().param_count()));
        let mut cfg = config(1);
        cfg.initial_learning_rate = 5e-3;
        let trainer = RankTrainer::new(0, model(), buffer, cfg, None, shared, table());
        let outcome = trainer.run(Instant::now());
        assert!(!outcome.losses.is_empty());
        let first = outcome.losses.first().unwrap().train_loss;
        let last = outcome.losses.last().unwrap().train_loss;
        assert!(
            last < first,
            "loss should decrease: first {first} last {last}"
        );
    }

    #[test]
    fn occurrences_are_tracked_per_rank() {
        let buffer: Arc<dyn TrainingBuffer<Sample>> = Arc::new(ReservoirBuffer::new(16, 2, 9));
        for k in 0..16 {
            buffer.put(sample(0, k));
        }
        buffer.mark_reception_over();
        let shared = Arc::new(TrainerShared::new(1, model().param_count()));
        let trainer = RankTrainer::new(
            0,
            model(),
            buffer,
            config(1),
            None,
            Arc::clone(&shared),
            table(),
        );
        let outcome = trainer.run(Instant::now());
        assert_eq!(
            outcome.occurrences.counts().count(),
            16,
            "every sample trained on at least once"
        );
        let total: u32 = outcome.occurrences.counts().sum();
        assert_eq!(total as usize, outcome.samples_consumed);
    }

    #[test]
    fn validation_points_are_recorded_on_rank_zero() {
        let buffer: Arc<dyn TrainingBuffer<Sample>> = Arc::new(FifoBuffer::new(256));
        for k in 0..40 {
            buffer.put(sample(0, k));
        }
        buffer.mark_reception_over();
        let validation = Arc::new(ValidationSet::from_samples(
            (0..8).map(|k| sample(100, k)).collect(),
            4,
        ));
        let shared = Arc::new(TrainerShared::new(1, model().param_count()));
        let mut cfg = config(1);
        cfg.validation_interval_batches = 3;
        let trainer = RankTrainer::new(0, model(), buffer, cfg, Some(validation), shared, table());
        let outcome = trainer.run(Instant::now());
        let validated: Vec<&LossPoint> = outcome
            .losses
            .iter()
            .filter(|p| p.validation_loss.is_some())
            .collect();
        assert!(validated.len() >= 3, "periodic + final validation points");
    }

    #[test]
    fn prefetch_path_runs_and_consumes_everything() {
        let buffer: Arc<dyn TrainingBuffer<Sample>> = Arc::new(FifoBuffer::new(256));
        for k in 0..40 {
            buffer.put(sample(0, k));
        }
        buffer.mark_reception_over();
        let shared = Arc::new(TrainerShared::new(1, model().param_count()));
        let mut cfg = config(1);
        cfg.prefetch = true;
        let trainer = RankTrainer::new(0, model(), buffer, cfg, None, shared, table());
        let outcome = trainer.run(Instant::now());
        assert_eq!(outcome.samples_consumed, 40);
        assert_eq!(outcome.batches_with_data, 10);
    }

    #[test]
    fn prefetch_replicas_stay_identical_across_two_ranks() {
        let param_count = model().param_count();
        let shared = Arc::new(TrainerShared::new(2, param_count));
        let buffers: Vec<Arc<dyn TrainingBuffer<Sample>>> = (0..2)
            .map(|_| Arc::new(FifoBuffer::new(256)) as Arc<dyn TrainingBuffer<Sample>>)
            .collect();
        for k in 0..24 {
            buffers[0].put(sample(0, k));
        }
        for k in 0..12 {
            buffers[1].put(sample(1, k));
        }
        for buffer in &buffers {
            buffer.mark_reception_over();
        }
        let mut handles = Vec::new();
        for (rank, buffer) in buffers.iter().enumerate() {
            let mut cfg = config(2);
            cfg.prefetch = true;
            let trainer = RankTrainer::new(
                rank,
                model(),
                Arc::clone(buffer),
                cfg,
                None,
                Arc::clone(&shared),
                table(),
            );
            handles.push(std::thread::spawn(move || trainer.run(Instant::now())));
        }
        let outcomes: Vec<RankOutcome> = handles.into_iter().map(|h| h.join().unwrap()).collect();
        assert_eq!(
            outcomes[0].model.params_flat(),
            outcomes[1].model.params_flat()
        );
        assert_eq!(outcomes[0].rounds, outcomes[1].rounds);
    }
}
