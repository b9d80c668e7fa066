//! Rank 0's sidecar: the one thread that does everything in a training round
//! that is not the SGD step.
//!
//! Periodic validation, checkpoint persistence (encode + atomic write +
//! fsyncs) and completion journalling (append + `sync_data`) used to run on
//! rank 0's learning thread between batches, with every other rank parked in
//! the all-reduce barrier meanwhile. The learner now only *snapshots*: it
//! fills a [`Job`] — the newly completed simulation ids, the checkpoint it
//! just captured, or a copy of the parameters — and hands it to the sidecar
//! over a bounded FIFO queue. The sidecar journals, persists and validates in
//! exactly the order the learner used to, on a shadow model it owns, and
//! sends the same `Job` back so its buffers are reused; in steady state the
//! exchange allocates nothing.
//!
//! One queue, one consumer: jobs are never skipped or reordered, so the set of
//! validation points, the number of persisted checkpoints, the set of
//! journalled simulations and the journal-before-checkpoint order are what
//! the synchronous code produced. At most [`QUEUE_DEPTH`] jobs are in flight.
//! With the queue full, a round that took a snapshot waits for the oldest job
//! to come back — the old behaviour as the worst case, reported as
//! `learner_blocked_seconds` — while a round that only has completions to
//! journal keeps them for the next job instead of waiting.

use crate::checkpoint::ServerCheckpoint;
use crate::config::TrainingConfig;
use crate::durable::DurableRecorder;
use crate::metrics::LossPoint;
use crate::report::SidecarReport;
use crate::validation::ValidationSet;
use crossbeam::channel::{bounded, Receiver, Sender, TryRecvError};
use std::sync::Arc;
use std::time::{Duration, Instant};
use surrogate_nn::{InitScheme, Mlp, MlpConfig};

/// Jobs the learner may have handed over without having them back. The
/// durable directory lags the learner by at most this many jobs.
pub(crate) const QUEUE_DEPTH: usize = 8;

/// One round's work for the sidecar. It travels learner → sidecar → learner,
/// so the id and parameter buffers are allocated once and reused.
#[derive(Default)]
pub(crate) struct Job {
    /// Simulations that completed since the last job, to be journalled.
    pub completions: Vec<u64>,
    /// The checkpoint captured this round, to be persisted; when the round
    /// also validates, its parameter copy is the snapshot validated.
    pub checkpoint: Option<Arc<ServerCheckpoint>>,
    /// The parameter snapshot of a validation round that took no checkpoint.
    pub params: Vec<f32>,
    /// Index into the learner's loss history of the point to validate.
    pub validate: Option<usize>,
    /// The validation loss, filled in by the sidecar.
    validation_loss: f32,
}

impl Job {
    /// True when the job carries a snapshot of this very round, which cannot
    /// be taken later.
    fn is_snapshot(&self) -> bool {
        self.checkpoint.is_some() || self.validate.is_some()
    }

    fn has_work(&self) -> bool {
        !self.completions.is_empty() || self.is_snapshot()
    }
}

/// Creates the learner's handle and the worker it feeds.
pub(crate) fn pair(
    model: &Mlp,
    training: &TrainingConfig,
    validation: Option<Arc<ValidationSet>>,
    durable: Option<Arc<DurableRecorder>>,
) -> (SidecarHandle, Sidecar) {
    let (jobs_tx, jobs_rx) = bounded(QUEUE_DEPTH);
    let (done_tx, done_rx) = bounded(QUEUE_DEPTH);
    let handle = SidecarHandle {
        jobs: Some(jobs_tx),
        done: done_rx,
        staging: Job::default(),
        spares: Vec::with_capacity(QUEUE_DEPTH),
        spare_params: Vec::with_capacity(QUEUE_DEPTH),
        in_flight: 0,
        blocked: Duration::ZERO,
        lost: false,
    };
    let worker = Sidecar {
        jobs: jobs_rx,
        done: done_tx,
        validation,
        durable,
        model_config: model.config().clone(),
        training: training.clone(),
    };
    (handle, worker)
}

/// The learner's end: a staging job to fill, the queue, and the jobs that
/// came back.
pub(crate) struct SidecarHandle {
    /// `None` once the learner has closed the queue.
    jobs: Option<Sender<Job>>,
    done: Receiver<Job>,
    /// The job the current round fills in place.
    pub staging: Job,
    spares: Vec<Job>,
    /// Parameter buffers that came back, kept apart from the job slots so a
    /// run holds only as many as it ever had validation snapshots in flight
    /// — one, when the sidecar keeps up.
    spare_params: Vec<Vec<f32>>,
    /// Jobs sent and not yet received back; never above [`QUEUE_DEPTH`], so
    /// neither channel can ever block its sender.
    in_flight: usize,
    blocked: Duration,
    lost: bool,
}

impl SidecarHandle {
    /// True once the sidecar thread is gone while work was outstanding (it
    /// panicked); the learner then winds the run down.
    pub fn lost(&self) -> bool {
        self.lost
    }

    /// Time the learner spent waiting for room in a full queue.
    pub fn blocked_seconds(&self) -> f64 {
        self.blocked.as_secs_f64()
    }

    /// Copies `model`'s parameters into the staging job, into a buffer that
    /// came back from an earlier validation when there is one.
    pub fn snapshot_params(&mut self, model: &Mlp) {
        let mut params = self.spare_params.pop().unwrap_or_default();
        model.params_flat_into(&mut params);
        self.staging.params = params;
    }

    /// Takes back every finished job without blocking, writing validation
    /// results into `losses`.
    pub fn poll(&mut self, losses: &mut [LossPoint]) {
        while self.in_flight > 0 {
            match self.done.try_recv() {
                Ok(job) => self.absorb(job, losses),
                Err(TryRecvError::Empty) => break,
                Err(TryRecvError::Disconnected) => self.mark_lost(),
            }
        }
    }

    /// Sends the staging job if this round put any work in it. With
    /// [`QUEUE_DEPTH`] jobs in flight a snapshot waits for the oldest to come
    /// back first; bare completions do not — they stay in the staging job
    /// and are journalled with the next one that goes out, which is no later
    /// than waiting for room here would have got them there.
    pub fn submit(&mut self, losses: &mut [LossPoint]) {
        let full = self.in_flight == QUEUE_DEPTH;
        if self.staging.is_snapshot() || (!full && self.staging.has_work()) {
            self.send(losses);
        }
    }

    /// Sends out whatever the staging job still holds, closes the queue and
    /// waits for every outstanding job, so the sidecar has finished all its
    /// work (and exits) when this returns.
    pub fn drain(&mut self, losses: &mut [LossPoint]) {
        if self.staging.has_work() {
            self.send(losses);
        }
        self.jobs = None;
        while self.in_flight > 0 {
            self.wait_one(losses);
        }
    }

    fn send(&mut self, losses: &mut [LossPoint]) {
        if self.in_flight == QUEUE_DEPTH {
            let waiting = Instant::now();
            self.wait_one(losses);
            self.blocked += waiting.elapsed();
        }
        let next = self.spares.pop().unwrap_or_default();
        let job = std::mem::replace(&mut self.staging, next);
        // analysis: allow(alloc, reason = "a std channel send of a moved job; the call graph binds the bare name `send` to ClientConnection::send, which this never calls")
        match self.jobs.as_ref().map(|jobs| jobs.send(job)) {
            Some(Ok(())) => self.in_flight += 1,
            _ => self.lost = true,
        }
    }

    fn wait_one(&mut self, losses: &mut [LossPoint]) {
        match self.done.recv() {
            Ok(job) => self.absorb(job, losses),
            Err(_) => self.mark_lost(),
        }
    }

    /// The sidecar died with jobs outstanding; they are gone with it.
    fn mark_lost(&mut self) {
        self.lost = true;
        self.in_flight = 0;
    }

    fn absorb(&mut self, mut job: Job, losses: &mut [LossPoint]) {
        self.in_flight -= 1;
        if let Some(index) = job.validate.take() {
            losses[index].validation_loss = Some(job.validation_loss);
        }
        if job.params.capacity() > 0 {
            self.spare_params.push(std::mem::take(&mut job.params));
        }
        self.spares.push(job);
    }
}

/// The worker end, run on the sidecar thread.
pub(crate) struct Sidecar {
    jobs: Receiver<Job>,
    done: Sender<Job>,
    validation: Option<Arc<ValidationSet>>,
    durable: Option<Arc<DurableRecorder>>,
    model_config: MlpConfig,
    training: TrainingConfig,
}

impl Sidecar {
    /// Serves jobs until the learner closes the queue. Within a job the order
    /// is the one the learner's round used to follow: journal the completions,
    /// persist the checkpoint, validate.
    pub fn run(self) -> SidecarReport {
        // The shadow model only ever receives snapshots: same architecture,
        // workspace geometry, GEMM threading and ISA as the learner's, so
        // every validation value is the one the learner would have computed.
        // Its gradient arena is never written (and so never becomes resident),
        // and its initial weights are zeros: every snapshot overwrites them.
        let mut shadow = self.validation.as_ref().map(|set| {
            let model = Mlp::new(MlpConfig {
                init: InitScheme::Zeros,
                ..self.model_config.clone()
            });
            let ws = model
                .workspace(self.training.batch_size.max(1))
                .with_threads(self.training.effective_gemm_threads())
                .with_isa(self.training.kernel_isa);
            (Arc::clone(set), model, ws)
        });
        let mut report = SidecarReport::default();
        while let Ok(mut job) = self.jobs.recv() {
            let began = Instant::now();
            if let Some(durable) = &self.durable {
                if durable.record_completions(&job.completions) > 0 {
                    report.journal_flushes += 1;
                }
                if let Some(checkpoint) = &job.checkpoint {
                    if durable.record_checkpoint(checkpoint) {
                        report.checkpoints_persisted += 1;
                    }
                }
            }
            if let (Some(_), Some((set, model, ws))) = (job.validate, shadow.as_mut()) {
                let params = match &job.checkpoint {
                    Some(checkpoint) => &checkpoint.model.params,
                    None => &job.params,
                };
                model.set_params_flat(params);
                job.validation_loss = set.evaluate_with(model, ws);
                report.validations += 1;
            }
            job.completions.clear();
            job.checkpoint = None;
            report.busy_seconds += began.elapsed().as_secs_f64();
            if self.done.send(job).is_err() {
                break;
            }
        }
        report
    }
}
