//! The launcher: submits, monitors, kills and restarts client jobs.
//!
//! §3.1 of the paper: *"The launcher orchestrates and monitors the workflow. It
//! interacts with the supercomputer batch scheduler to start clients or server
//! jobs, monitor their progress, kill some of them or restart them in case of
//! failure."* Here the batch scheduler is the in-process
//! [`crate::scheduler::SimulatedScheduler`] and client jobs
//! are closures executed on a bounded pool of worker threads, one series at a
//! time, with retries on failure.
//!
//! ## Failure detection and recovery
//!
//! Every running client owns a heartbeat cell it stamps on each step of
//! progress (see [`ClientContext::beat`]). When the launcher is configured
//! with a [`WatchdogConfig`], a watchdog thread scans the heartbeats and
//! declares a client dead once its last stamp is older than the deadline: the
//! job is killed through the scheduler ([`JobState::Killed`]), its heartbeat
//! is cancelled so a merely-hung closure can observe the verdict and unwind,
//! and the client is resubmitted under the [`RetryPolicy`] — capped
//! exponential backoff, same parameters, a fresh attempt number. Failures are
//! typed ([`ClientErrorKind`]): crashes and kills are retryable, while errors
//! that can never succeed (invalid parameters, a dead server) abandon the
//! client immediately. A client that exhausts its retry budget is reported in
//! [`LauncherReport::abandoned_clients`] instead of wedging the campaign.

use crate::campaign::CampaignPlan;
use crate::sampler::ParameterSampler;
use crate::scheduler::{JobId, JobState, SchedulerConfig, SimulatedScheduler};
use melissa_workload::{ParamPoint, ParameterSpace};
use parking_lot::{Condvar, Mutex};
use serde::{Deserialize, Serialize};
use std::collections::{HashMap, VecDeque};
use std::fmt;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// How failed clients are resubmitted: a capped exponential backoff plus the
/// retry budget. The policy also owns the per-attempt seed derivation, so a
/// restarted client can re-randomize anything that must *not* replay (e.g.
/// transport jitter) while its simulation parameters stay fixed.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct RetryPolicy {
    /// How many times a failed client is resubmitted before giving up.
    pub max_retries: usize,
    /// Backoff before the first resubmission.
    pub base_backoff: Duration,
    /// Multiplier applied to the backoff on every further resubmission.
    pub backoff_multiplier: f64,
    /// Upper bound on the backoff, whatever the attempt count.
    pub max_backoff: Duration,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        Self {
            max_retries: 2,
            base_backoff: Duration::ZERO,
            backoff_multiplier: 2.0,
            max_backoff: Duration::from_secs(1),
        }
    }
}

impl RetryPolicy {
    /// The backoff to wait before resubmitting a client whose 1-based attempt
    /// `attempt` just failed: `base * multiplier^(attempt-1)`, capped at
    /// [`RetryPolicy::max_backoff`].
    pub fn backoff(&self, attempt: usize) -> Duration {
        if self.base_backoff.is_zero() {
            return Duration::ZERO;
        }
        let factor = self
            .backoff_multiplier
            .max(1.0)
            .powi(attempt.saturating_sub(1).min(i32::MAX as usize) as i32);
        let backoff = self.base_backoff.as_secs_f64() * factor;
        Duration::from_secs_f64(backoff.min(self.max_backoff.as_secs_f64()))
    }

    /// Deterministic per-attempt seed: a stable splitmix64 hash of
    /// `(base_seed, client_id, attempt)`. Attempt 1 of client 3 derives the
    /// same seed in every run of the same campaign; attempt 2 derives a
    /// different one, so retried clients do not replay transport-level
    /// randomness bit for bit.
    pub fn attempt_seed(base_seed: u64, client_id: u64, attempt: usize) -> u64 {
        fn mix64(x: u64) -> u64 {
            let mut z = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        }
        mix64(mix64(mix64(base_seed) ^ client_id) ^ attempt as u64)
    }
}

/// Failure-detection deadlines of the launcher-side watchdog.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct WatchdogConfig {
    /// A client whose heartbeat is older than this is declared dead.
    pub deadline: Duration,
    /// How often the watchdog scans the heartbeats.
    pub poll_interval: Duration,
}

impl WatchdogConfig {
    /// A watchdog with the given deadline, polling at a quarter of it.
    pub fn with_deadline(deadline: Duration) -> Self {
        Self {
            deadline,
            poll_interval: (deadline / 4).max(Duration::from_millis(1)),
        }
    }
}

/// Configuration of the launcher.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct LauncherConfig {
    /// Resubmission policy for failed clients.
    pub retry: RetryPolicy,
    /// Start-up delay applied to every client job (scheduling overhead).
    pub job_startup_delay: Duration,
    /// Watchdog failure detection; `None` means hung clients are never
    /// declared dead (crash detection still works through returned errors).
    pub watchdog: Option<WatchdogConfig>,
}

impl Default for LauncherConfig {
    fn default() -> Self {
        Self {
            retry: RetryPolicy::default(),
            job_startup_delay: Duration::ZERO,
            watchdog: None,
        }
    }
}

/// One client job handed to the user-provided execution closure.
#[derive(Debug, Clone, PartialEq)]
pub struct ClientJob {
    /// Ensemble-member identifier (stable across retries).
    pub client_id: u64,
    /// Which series of the campaign this client belongs to.
    pub series: usize,
    /// 1-based attempt number (> 1 means the client was restarted).
    pub attempt: usize,
    /// The sampled parameter vector of this member.
    pub parameters: ParamPoint,
    /// Deterministic per-attempt seed
    /// ([`RetryPolicy::attempt_seed`] over the campaign seed).
    pub seed: u64,
}

/// What kind of failure a client reported — the launcher's retry policy keys
/// off this: crashes and kills are worth retrying, the rest never succeed.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum ClientErrorKind {
    /// The client crashed (solver error, lost connection mid-run, …);
    /// a restart may well succeed. Retryable.
    Crash,
    /// The launcher's watchdog killed the client for missing its progress
    /// deadline. Retryable.
    Killed,
    /// The client's inputs are unusable — no number of retries will ever
    /// succeed. Fatal.
    InvalidParameters,
    /// The training server is gone; restarting clients without a server is
    /// pointless. Fatal.
    ServerDown,
}

impl ClientErrorKind {
    /// Whether the launcher should resubmit a client that failed this way.
    pub fn retryable(self) -> bool {
        matches!(self, Self::Crash | Self::Killed)
    }
}

/// A typed client failure, as reported by the execution closure (or
/// synthesized by the watchdog).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ClientError {
    /// What kind of failure this is; drives the retry decision.
    pub kind: ClientErrorKind,
    /// Human-readable failure reason.
    pub reason: String,
}

impl ClientError {
    /// Creates a retryable crash with the given reason (the historical
    /// default: before errors were typed, every failure was retried).
    pub fn new(reason: impl Into<String>) -> Self {
        Self::crash(reason)
    }

    /// A retryable crash.
    pub fn crash(reason: impl Into<String>) -> Self {
        Self {
            kind: ClientErrorKind::Crash,
            reason: reason.into(),
        }
    }

    /// A watchdog kill (retryable).
    pub fn killed(reason: impl Into<String>) -> Self {
        Self {
            kind: ClientErrorKind::Killed,
            reason: reason.into(),
        }
    }

    /// A fatal input error: never retried.
    pub fn invalid_parameters(reason: impl Into<String>) -> Self {
        Self {
            kind: ClientErrorKind::InvalidParameters,
            reason: reason.into(),
        }
    }

    /// A fatal server-loss error: never retried.
    pub fn server_down(reason: impl Into<String>) -> Self {
        Self {
            kind: ClientErrorKind::ServerDown,
            reason: reason.into(),
        }
    }

    /// Whether the launcher should resubmit the client.
    pub fn retryable(&self) -> bool {
        self.kind.retryable()
    }
}

impl fmt::Display for ClientError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "client failed ({:?}): {}", self.kind, self.reason)
    }
}

impl std::error::Error for ClientError {}

impl From<String> for ClientError {
    fn from(reason: String) -> Self {
        Self::new(reason)
    }
}

impl From<&str> for ClientError {
    fn from(reason: &str) -> Self {
        Self::new(reason)
    }
}

/// Outcome of one client execution, as reported by the closure.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ClientOutcome {
    /// The client ran to completion.
    Completed,
    /// The client failed.
    Failed(ClientError),
}

/// The heartbeat cell shared between one running client attempt and the
/// watchdog: an atomic last-progress stamp plus a cancellation flag.
#[derive(Debug)]
struct Heartbeat {
    /// The common epoch the stamps are measured from.
    epoch: Instant,
    /// Microseconds since `epoch` of the client's last progress report.
    last_beat_micros: AtomicU64,
    /// Number of progress reports so far.
    beats: AtomicU64,
    /// Set by the watchdog when it declares the client dead.
    cancelled: AtomicBool,
}

impl Heartbeat {
    fn new(epoch: Instant) -> Self {
        let hb = Self {
            epoch,
            last_beat_micros: AtomicU64::new(0),
            beats: AtomicU64::new(0),
            cancelled: AtomicBool::new(false),
        };
        hb.beat();
        hb
    }

    fn beat(&self) {
        let micros = self.epoch.elapsed().as_micros() as u64;
        // ordering: Relaxed — a monotonic liveness stamp; the watchdog only compares it against the clock, no other memory is published through it
        self.last_beat_micros.store(micros, Ordering::Relaxed);
        // ordering: Relaxed — monitoring counter
        self.beats.fetch_add(1, Ordering::Relaxed);
    }

    fn stale(&self, deadline: Duration) -> bool {
        let now = self.epoch.elapsed().as_micros() as u64;
        // ordering: Relaxed — liveness stamp; staleness is a heuristic read racing benignly with beats
        let last = self.last_beat_micros.load(Ordering::Relaxed);
        now.saturating_sub(last) > deadline.as_micros() as u64
    }

    fn cancel(&self) {
        // ordering: Relaxed — a one-way advisory flag polled by the client closure; no data is transferred through it
        self.cancelled.store(true, Ordering::Relaxed);
    }

    fn is_cancelled(&self) -> bool {
        // ordering: Relaxed — see cancel()
        self.cancelled.load(Ordering::Relaxed)
    }
}

/// Handle a running client uses to report progress and observe its own
/// death sentence. Cheap to call from the innermost simulation loop.
pub struct ClientContext {
    heartbeat: Arc<Heartbeat>,
}

impl ClientContext {
    /// Records one step of progress; resets the watchdog deadline.
    pub fn beat(&self) {
        self.heartbeat.beat();
    }

    /// True once the watchdog has declared this attempt dead. A hung-but-alive
    /// closure should poll this and unwind; its outcome is already discarded.
    pub fn cancelled(&self) -> bool {
        self.heartbeat.is_cancelled()
    }

    /// Number of progress reports this attempt has made.
    pub fn beats(&self) -> u64 {
        // ordering: Relaxed — monitoring counter read
        self.heartbeat.beats.load(Ordering::Relaxed)
    }
}

/// Campaign-level event callbacks, so the embedding server can react to
/// recovery decisions while the campaign is still running (e.g. stop waiting
/// for data a permanently-failed client will never send).
#[derive(Default)]
pub struct CampaignEvents<'a> {
    /// Called at most once per client, when its retry budget is exhausted (or
    /// its failure was fatal) and the launcher gives up on it for good.
    pub on_abandoned: Option<&'a (dyn Fn(u64) + Sync)>,
}

/// Aggregate report of a campaign execution.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct LauncherReport {
    /// Clients that eventually completed.
    pub completed: usize,
    /// Clients that exhausted their retries (or failed fatally) and were
    /// abandoned.
    pub failed: usize,
    /// Number of resubmissions performed.
    pub retries: usize,
    /// Clients the watchdog killed for missing their progress deadline
    /// (counted per kill, not per client).
    pub watchdog_kills: usize,
    /// Failures whose kind was fatal (never retried).
    pub fatal_errors: usize,
    /// Ensemble members given up on for good, in ascending id order.
    pub abandoned_clients: Vec<u64>,
    /// Ensemble members that failed at least once but eventually completed,
    /// in ascending id order.
    pub recovered_clients: Vec<u64>,
    /// Wall-clock duration of each series, in seconds.
    pub series_durations: Vec<f64>,
    /// Total wall-clock duration of the campaign, in seconds.
    pub total_duration: f64,
    /// Peak number of concurrently running clients observed.
    pub peak_concurrency: usize,
}

/// One queued (re)submission, eligible to start at `ready_at` (backoff).
struct QueuedJob {
    job: ClientJob,
    ready_at: Instant,
}

/// Registry entry of a running attempt, owned by whoever removes it first —
/// the worker (normal completion/failure) or the watchdog (kill). Removal is
/// the arbiter of the terminal transition, so an attempt is never accounted
/// twice.
struct ActiveClient {
    job: ClientJob,
    heartbeat: Arc<Heartbeat>,
}

/// Per-series counters, folded into the report when the series ends.
#[derive(Default)]
struct SeriesCounters {
    completed: usize,
    failed: usize,
    retries: usize,
    watchdog_kills: usize,
    fatal_errors: usize,
    abandoned: Vec<u64>,
    recovered: Vec<u64>,
}

/// The workflow orchestrator.
pub struct Launcher {
    config: LauncherConfig,
}

impl Launcher {
    /// Creates a launcher.
    pub fn new(config: LauncherConfig) -> Self {
        Self { config }
    }

    /// The launcher configuration.
    pub fn config(&self) -> &LauncherConfig {
        &self.config
    }

    /// Runs a full campaign over the default (paper) parameter space. See
    /// [`Launcher::run_campaign_in`].
    pub fn run_campaign<F>(&self, plan: &CampaignPlan, client_fn: F) -> LauncherReport
    where
        F: Fn(&ClientJob) -> Result<(), ClientError> + Sync,
    {
        self.run_campaign_in(plan, &ParameterSpace::default(), client_fn)
    }

    /// Runs a full campaign with a context-free closure. See
    /// [`Launcher::run_campaign_with`] for the full-featured variant.
    pub fn run_campaign_in<F>(
        &self,
        plan: &CampaignPlan,
        space: &ParameterSpace,
        client_fn: F,
    ) -> LauncherReport
    where
        F: Fn(&ClientJob) -> Result<(), ClientError> + Sync,
    {
        self.run_campaign_with(plan, space, &CampaignEvents::default(), |job, _ctx| {
            client_fn(job)
        })
    }

    /// Runs a full campaign: every series in order, every client of a series
    /// on a bounded worker pool, with watchdog failure detection and typed
    /// retries. Parameters are drawn from `space` (a workload's design
    /// space), making the launcher physics-agnostic. `client_fn` is invoked
    /// once per attempt with the job and its [`ClientContext`] and must
    /// return `Ok(())` on success.
    pub fn run_campaign_with<F>(
        &self,
        plan: &CampaignPlan,
        space: &ParameterSpace,
        events: &CampaignEvents<'_>,
        client_fn: F,
    ) -> LauncherReport
    where
        F: Fn(&ClientJob, &ClientContext) -> Result<(), ClientError> + Sync,
    {
        self.run_campaign_filtered(plan, space, None, events, client_fn)
    }

    /// Runs only the campaign members in `client_ids` — the resume path: a
    /// restarted server re-plans the clients missing from its checkpoint, and
    /// every rerun member draws the exact parameters of the original run
    /// (the full campaign's sampler stream is replayed, then filtered).
    pub fn run_campaign_subset<F>(
        &self,
        plan: &CampaignPlan,
        space: &ParameterSpace,
        client_ids: &[u64],
        events: &CampaignEvents<'_>,
        client_fn: F,
    ) -> LauncherReport
    where
        F: Fn(&ClientJob, &ClientContext) -> Result<(), ClientError> + Sync,
    {
        self.run_campaign_filtered(plan, space, Some(client_ids), events, client_fn)
    }

    /// The campaign members a resumed run must rerun: every id of a
    /// `total_clients`-member campaign that is not in `completed`. This is
    /// the launcher-side restart contract (paper §3.1: "only the simulations
    /// that were not entirely executed are rerun"), shared by the in-memory
    /// and the on-disk resume paths so they can never disagree on the set.
    pub fn missing_ids(total_clients: usize, completed: &[u64]) -> Vec<u64> {
        let completed: std::collections::HashSet<u64> = completed.iter().copied().collect();
        (0..total_clients as u64)
            .filter(|id| !completed.contains(id))
            .collect()
    }

    fn run_campaign_filtered<F>(
        &self,
        plan: &CampaignPlan,
        space: &ParameterSpace,
        only: Option<&[u64]>,
        events: &CampaignEvents<'_>,
        client_fn: F,
    ) -> LauncherReport
    where
        F: Fn(&ClientJob, &ClientContext) -> Result<(), ClientError> + Sync,
    {
        let campaign_start = Instant::now();
        let mut sampler =
            ParameterSampler::new(plan.sampler, *space, plan.total_clients(), plan.seed);
        // Draw every member's parameters upfront so a retried (or resumed)
        // client reruns the exact same simulation.
        let all_params: Vec<ParamPoint> = (0..plan.total_clients())
            .map(|i| sampler.parameters(i))
            .collect();
        let wanted = |client_id: u64| only.is_none_or(|ids| ids.contains(&client_id));

        let mut report = LauncherReport::default();
        let mut next_client_id: u64 = 0;
        let mut ran_series = false;

        for (series_index, series) in plan.series.iter().enumerate() {
            let first_client = next_client_id;
            next_client_id += series.num_clients as u64;
            let members: Vec<u64> = (first_client..next_client_id)
                .filter(|&id| wanted(id))
                .collect();
            if members.is_empty() {
                report.series_durations.push(0.0);
                continue;
            }
            if ran_series && !plan.inter_series_delay.is_zero() {
                std::thread::sleep(plan.inter_series_delay);
            }
            ran_series = true;
            let series_start = Instant::now();
            let scheduler = SimulatedScheduler::new(SchedulerConfig {
                max_concurrent_jobs: series.max_concurrent.max(1),
                startup_delay: self.config.job_startup_delay,
            });

            // Work queue of pending jobs for this series (including retries).
            let queue: Mutex<VecDeque<QueuedJob>> = Mutex::new(
                members
                    .iter()
                    .map(|&client_id| QueuedJob {
                        job: ClientJob {
                            client_id,
                            series: series_index,
                            attempt: 1,
                            parameters: all_params[client_id as usize],
                            seed: RetryPolicy::attempt_seed(plan.seed, client_id, 1),
                        },
                        ready_at: series_start,
                    })
                    .collect(),
            );
            // Idle workers and the watchdog wait on this, over the queue lock.
            let wake = Condvar::new();

            // Members of this series not yet terminal (completed/abandoned);
            // workers and the watchdog exit when it reaches zero.
            let remaining = AtomicUsize::new(members.len());
            let counters = Mutex::new(SeriesCounters::default());
            let registry: Mutex<HashMap<JobId, ActiveClient>> = Mutex::new(HashMap::new());
            let epoch = series_start;
            let workers = series.max_concurrent.max(1).min(members.len());
            crossbeam::scope(|scope| {
                for _ in 0..workers {
                    scope.spawn(|_| {
                        self.worker_loop(
                            &queue, &wake, &remaining, &counters, &registry, &scheduler, epoch,
                            events, plan.seed, &client_fn,
                        )
                    });
                }
                if let Some(watchdog) = self.config.watchdog {
                    let (queue, wake, remaining, counters, registry, scheduler) =
                        (&queue, &wake, &remaining, &counters, &registry, &scheduler);
                    scope.spawn(move |_| {
                        self.watchdog_loop(
                            watchdog, queue, wake, remaining, counters, registry, scheduler,
                            events, plan.seed,
                        )
                    });
                }
            })
            // analysis: allow(panic, reason = "re-raises a launcher worker's panic; the campaign report would otherwise under-count silently")
            .expect("launcher worker panicked");

            let series_counters = counters.into_inner();
            report.completed += series_counters.completed;
            report.failed += series_counters.failed;
            report.retries += series_counters.retries;
            report.watchdog_kills += series_counters.watchdog_kills;
            report.fatal_errors += series_counters.fatal_errors;
            report.abandoned_clients.extend(series_counters.abandoned);
            report.recovered_clients.extend(series_counters.recovered);
            report.peak_concurrency = report
                .peak_concurrency
                .max(scheduler.stats().peak_concurrency);
            report
                .series_durations
                .push(series_start.elapsed().as_secs_f64());
        }

        report.abandoned_clients.sort_unstable();
        report.recovered_clients.sort_unstable();
        report.total_duration = campaign_start.elapsed().as_secs_f64();
        report
    }

    /// One worker: pops ready jobs, runs them through the scheduler, and
    /// performs the terminal accounting for attempts it still owns (the
    /// watchdog may have taken ownership of a hung attempt meanwhile).
    ///
    /// A worker that finds nothing ready waits on `wake` over the queue lock:
    /// until the earliest queued `ready_at` when a retry is backing off,
    /// untimed when the queue is empty. Two things wake it early: a requeue
    /// ([`Launcher::handle_failure`]) and the decrement that ends the series
    /// ([`retire_one`]). Each wake-up re-reads `remaining` and the queue
    /// under the lock it waited on; a requeue pushes under that lock and the
    /// final decrement takes it before notifying, so no wake-up falls between
    /// a worker's check and its wait.
    #[allow(clippy::too_many_arguments)]
    fn worker_loop<F>(
        &self,
        queue: &Mutex<VecDeque<QueuedJob>>,
        wake: &Condvar,
        remaining: &AtomicUsize,
        counters: &Mutex<SeriesCounters>,
        registry: &Mutex<HashMap<JobId, ActiveClient>>,
        scheduler: &SimulatedScheduler,
        epoch: Instant,
        events: &CampaignEvents<'_>,
        campaign_seed: u64,
        client_fn: &F,
    ) where
        F: Fn(&ClientJob, &ClientContext) -> Result<(), ClientError> + Sync,
    {
        loop {
            let job = {
                let mut queue = queue.lock();
                loop {
                    // ordering: Acquire — pairs with the AcqRel decrements; once zero, every terminal transition (and its queue/counter writes) is visible
                    if remaining.load(Ordering::Acquire) == 0 {
                        break None;
                    }
                    let now = Instant::now();
                    if let Some(i) = queue.iter().position(|q| q.ready_at <= now) {
                        break queue.remove(i).map(|q| q.job);
                    }
                    match queue.iter().map(|q| q.ready_at).min() {
                        Some(earliest) => {
                            wake.wait_for(&mut queue, earliest - now);
                        }
                        None => wake.wait(&mut queue),
                    }
                }
            };
            let Some(job) = job else {
                break;
            };

            let job_id = scheduler.submit(job.attempt);
            scheduler.acquire_slot(job_id);
            let heartbeat = Arc::new(Heartbeat::new(epoch));
            registry.lock().insert(
                job_id,
                ActiveClient {
                    job: job.clone(),
                    heartbeat: Arc::clone(&heartbeat),
                },
            );
            let context = ClientContext {
                heartbeat: Arc::clone(&heartbeat),
            };
            let outcome = client_fn(&job, &context);
            // Removal arbitrates the worker/watchdog race: if the entry is
            // gone, the watchdog already killed this attempt, accounted for
            // it, and released the slot — the late outcome is discarded.
            if registry.lock().remove(&job_id).is_none() {
                continue;
            }
            match outcome {
                Ok(()) => {
                    scheduler.release_slot(job_id, JobState::Completed);
                    let mut counters = counters.lock();
                    counters.completed += 1;
                    if job.attempt > 1 {
                        counters.recovered.push(job.client_id);
                    }
                    drop(counters);
                    retire_one(queue, wake, remaining);
                }
                Err(error) => {
                    scheduler.release_slot(job_id, JobState::Failed);
                    self.handle_failure(
                        &job,
                        &error,
                        false,
                        queue,
                        wake,
                        remaining,
                        counters,
                        events,
                        campaign_seed,
                    );
                }
            }
        }
    }

    /// The watchdog: scans the registry for clients whose heartbeat missed
    /// the deadline, kills them through the scheduler, and resubmits or
    /// abandons them under the retry policy.
    ///
    /// Between scans it waits on the workers' `wake` for up to
    /// `poll_interval`, re-reading `remaining` under the queue lock before
    /// each wait, so it leaves as soon as the decrement that ends the series
    /// notifies instead of sleeping out the interval. A requeue also wakes
    /// it; the early scan that follows is harmless, since staleness is judged
    /// against the deadline, not the interval.
    #[allow(clippy::too_many_arguments)]
    fn watchdog_loop(
        &self,
        config: WatchdogConfig,
        queue: &Mutex<VecDeque<QueuedJob>>,
        wake: &Condvar,
        remaining: &AtomicUsize,
        counters: &Mutex<SeriesCounters>,
        registry: &Mutex<HashMap<JobId, ActiveClient>>,
        scheduler: &SimulatedScheduler,
        events: &CampaignEvents<'_>,
        campaign_seed: u64,
    ) {
        loop {
            {
                let mut queue = queue.lock();
                // ordering: Acquire — pairs with the AcqRel terminal decrements; zero means every member is accounted and the watchdog can retire
                if remaining.load(Ordering::Acquire) == 0 {
                    return;
                }
                wake.wait_for(&mut queue, config.poll_interval);
            }
            let expired: Vec<(JobId, ActiveClient)> = {
                let mut registry = registry.lock();
                let dead: Vec<JobId> = registry
                    .iter()
                    .filter(|(_, active)| active.heartbeat.stale(config.deadline))
                    .map(|(&id, _)| id)
                    .collect();
                dead.into_iter()
                    .filter_map(|id| registry.remove(&id).map(|active| (id, active)))
                    .collect()
            };
            for (job_id, active) in expired {
                // Owning the registry removal, the watchdog performs the
                // terminal transition: cancel the heartbeat so the hung
                // closure can unwind, kill the job in the scheduler
                // (JobState::Killed frees the slot), then retry or abandon.
                active.heartbeat.cancel();
                scheduler.kill(job_id);
                counters.lock().watchdog_kills += 1;
                let error = ClientError::killed(format!(
                    "no progress within {:?} (attempt {})",
                    config.deadline, active.job.attempt
                ));
                self.handle_failure(
                    &active.job,
                    &error,
                    true,
                    queue,
                    wake,
                    remaining,
                    counters,
                    events,
                    campaign_seed,
                );
            }
        }
    }

    /// Shared failure accounting: resubmit with backoff when the error is
    /// retryable and the budget allows, abandon otherwise. `remaining` is
    /// only decremented on abandonment — a resubmitted client is still live.
    /// A resubmission wakes every waiting worker, so the ones waiting untimed
    /// on an empty queue learn its `ready_at`.
    #[allow(clippy::too_many_arguments)]
    fn handle_failure(
        &self,
        job: &ClientJob,
        error: &ClientError,
        _killed: bool,
        queue: &Mutex<VecDeque<QueuedJob>>,
        wake: &Condvar,
        remaining: &AtomicUsize,
        counters: &Mutex<SeriesCounters>,
        events: &CampaignEvents<'_>,
        campaign_seed: u64,
    ) {
        let retryable = error.retryable();
        if retryable && job.attempt <= self.config.retry.max_retries {
            let mut retry = job.clone();
            retry.attempt += 1;
            retry.seed = RetryPolicy::attempt_seed(campaign_seed, retry.client_id, retry.attempt);
            let ready_at = Instant::now() + self.config.retry.backoff(job.attempt);
            counters.lock().retries += 1;
            queue.lock().push_back(QueuedJob {
                job: retry,
                ready_at,
            });
            wake.notify_all();
        } else {
            let mut counters = counters.lock();
            counters.failed += 1;
            if !retryable {
                counters.fatal_errors += 1;
            }
            counters.abandoned.push(job.client_id);
            drop(counters);
            if let Some(on_abandoned) = events.on_abandoned {
                on_abandoned(job.client_id);
            }
            retire_one(queue, wake, remaining);
        }
    }
}

/// Counts one member terminal (completed or abandoned). The decrement that
/// ends the series wakes every waiting worker and the watchdog; taking the
/// queue lock between that decrement and the notify means a waiter either
/// reads zero before it waits or is already waiting when the notify comes.
fn retire_one(queue: &Mutex<VecDeque<QueuedJob>>, wake: &Condvar, remaining: &AtomicUsize) {
    // ordering: AcqRel — publishes this member's terminal accounting before the zero-observation that ends the series
    if remaining.fetch_sub(1, Ordering::AcqRel) == 1 {
        drop(queue.lock());
        wake.notify_all();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::campaign::CampaignPlan;
    use parking_lot::Mutex as PlMutex;
    use std::collections::HashMap;

    #[test]
    fn runs_every_client_of_every_series() {
        let plan = CampaignPlan::series_of(&[5, 3, 2], 4);
        let launcher = Launcher::new(LauncherConfig::default());
        let seen = PlMutex::new(Vec::new());
        let report = launcher.run_campaign(&plan, |job| {
            seen.lock().push((job.client_id, job.series));
            Ok(())
        });
        assert_eq!(report.completed, 10);
        assert_eq!(report.failed, 0);
        assert_eq!(report.series_durations.len(), 3);
        let mut ids: Vec<u64> = seen.lock().iter().map(|(id, _)| *id).collect();
        ids.sort_unstable();
        assert_eq!(ids, (0..10).collect::<Vec<u64>>());
        // Clients 0..5 belong to series 0, 5..8 to series 1, 8..10 to series 2.
        for (id, series) in seen.lock().iter() {
            let expected = if *id < 5 {
                0
            } else if *id < 8 {
                1
            } else {
                2
            };
            assert_eq!(*series, expected, "client {id}");
        }
    }

    #[test]
    fn concurrency_is_bounded_per_series() {
        let plan = CampaignPlan::single_series(16, 3);
        let launcher = Launcher::new(LauncherConfig::default());
        let in_flight = AtomicUsize::new(0);
        let max_in_flight = AtomicUsize::new(0);
        let report = launcher.run_campaign(&plan, |_| {
            // ordering: Relaxed throughout — per-variable RMW atomicity is all fetch_add/fetch_max need for a correct high-water mark; no other memory is published through these counters
            let now = in_flight.fetch_add(1, Ordering::Relaxed) + 1;
            max_in_flight.fetch_max(now, Ordering::Relaxed);
            std::thread::sleep(Duration::from_millis(3));
            // ordering: Relaxed — see the high-water-mark comment above
            in_flight.fetch_sub(1, Ordering::Relaxed);
            Ok(())
        });
        assert_eq!(report.completed, 16);
        // ordering: Relaxed — read after run_campaign joined its workers
        assert!(max_in_flight.load(Ordering::Relaxed) <= 3);
        assert!(report.peak_concurrency <= 3);
    }

    #[test]
    fn failed_clients_are_retried_with_same_parameters() {
        let plan = CampaignPlan::single_series(4, 2).with_seed(3);
        let launcher = Launcher::new(LauncherConfig {
            retry: RetryPolicy {
                max_retries: 3,
                ..RetryPolicy::default()
            },
            ..LauncherConfig::default()
        });
        // Per client: the (attempt index, sampled parameters) of every try.
        type AttemptLog = HashMap<u64, Vec<(usize, [f64; 5])>>;
        let attempts: PlMutex<AttemptLog> = PlMutex::new(HashMap::new());
        let report = launcher.run_campaign(&plan, |job| {
            attempts
                .lock()
                .entry(job.client_id)
                .or_default()
                .push((job.attempt, job.parameters));
            // Client 2 fails on its first two attempts.
            if job.client_id == 2 && job.attempt <= 2 {
                Err(ClientError::new("simulated crash"))
            } else {
                Ok(())
            }
        });
        assert_eq!(report.completed, 4);
        assert_eq!(report.failed, 0);
        assert_eq!(report.retries, 2);
        assert_eq!(report.recovered_clients, vec![2]);
        let attempts = attempts.lock();
        let client2 = &attempts[&2];
        assert_eq!(client2.len(), 3);
        // Every retry reruns the exact same parameters.
        assert!(client2.windows(2).all(|w| w[0].1 == w[1].1));
    }

    #[test]
    fn clients_exhausting_retries_are_reported_failed() {
        let plan = CampaignPlan::single_series(3, 2);
        let launcher = Launcher::new(LauncherConfig {
            retry: RetryPolicy {
                max_retries: 1,
                ..RetryPolicy::default()
            },
            ..LauncherConfig::default()
        });
        let report = launcher.run_campaign(&plan, |job| {
            if job.client_id == 0 {
                Err("always fails".into())
            } else {
                Ok(())
            }
        });
        assert_eq!(report.completed, 2);
        assert_eq!(report.failed, 1);
        assert_eq!(report.retries, 1);
        assert_eq!(report.abandoned_clients, vec![0]);
    }

    #[test]
    fn inter_series_delay_is_applied() {
        let plan =
            CampaignPlan::series_of(&[1, 1], 1).with_inter_series_delay(Duration::from_millis(40));
        let launcher = Launcher::new(LauncherConfig::default());
        let start = Instant::now();
        let report = launcher.run_campaign(&plan, |_| Ok(()));
        assert_eq!(report.completed, 2);
        assert!(start.elapsed() >= Duration::from_millis(35));
    }

    #[test]
    fn fatal_errors_are_never_retried() {
        let plan = CampaignPlan::single_series(3, 2);
        let launcher = Launcher::new(LauncherConfig {
            retry: RetryPolicy {
                max_retries: 5,
                ..RetryPolicy::default()
            },
            ..LauncherConfig::default()
        });
        let attempts = AtomicUsize::new(0);
        let report = launcher.run_campaign(&plan, |job| {
            if job.client_id == 1 {
                // ordering: Relaxed — test tally read after the campaign joins
                attempts.fetch_add(1, Ordering::Relaxed);
                Err(ClientError::invalid_parameters("NaN viscosity"))
            } else {
                Ok(())
            }
        });
        assert_eq!(report.completed, 2);
        assert_eq!(report.failed, 1);
        assert_eq!(report.retries, 0, "fatal failures skip the retry budget");
        assert_eq!(report.fatal_errors, 1);
        assert_eq!(report.abandoned_clients, vec![1]);
        // ordering: Relaxed — read after run_campaign joined its workers
        assert_eq!(attempts.load(Ordering::Relaxed), 1, "exactly one attempt");
    }

    #[test]
    fn resume_mode_reruns_exactly_the_missing_members() {
        assert_eq!(Launcher::missing_ids(5, &[1, 3]), vec![0, 2, 4]);
        assert_eq!(Launcher::missing_ids(3, &[]), vec![0, 1, 2]);
        assert!(Launcher::missing_ids(2, &[0, 1]).is_empty());

        let plan = CampaignPlan::single_series(5, 5).with_seed(42);
        let launcher = Launcher::new(LauncherConfig::default());
        let events = CampaignEvents::default();
        let space = ParameterSpace::default();

        // Reference: parameters every member draws in a full campaign.
        let full_params = PlMutex::new(std::collections::HashMap::new());
        launcher.run_campaign_with(&plan, &space, &events, |job, _| {
            full_params.lock().insert(job.client_id, job.parameters);
            Ok(())
        });

        let resumed = PlMutex::new(Vec::new());
        let missing = Launcher::missing_ids(plan.total_clients(), &[1, 3]);
        let report = launcher.run_campaign_subset(&plan, &space, &missing, &events, |job, _| {
            resumed.lock().push((job.client_id, job.parameters));
            Ok(())
        });
        assert_eq!(report.completed, 3);
        let mut resumed = resumed.into_inner();
        resumed.sort_by_key(|(id, _)| *id);
        let ids: Vec<u64> = resumed.iter().map(|(id, _)| *id).collect();
        assert_eq!(ids, vec![0, 2, 4], "completed members are not rerun");
        for (id, params) in resumed {
            assert_eq!(
                params,
                full_params.lock()[&id],
                "rerun member {id} draws its original parameters"
            );
        }
    }

    #[test]
    fn backoff_is_exponential_and_capped() {
        let policy = RetryPolicy {
            max_retries: 10,
            base_backoff: Duration::from_millis(10),
            backoff_multiplier: 2.0,
            max_backoff: Duration::from_millis(35),
        };
        assert_eq!(policy.backoff(1), Duration::from_millis(10));
        assert_eq!(policy.backoff(2), Duration::from_millis(20));
        assert_eq!(policy.backoff(3), Duration::from_millis(35), "capped");
        assert_eq!(policy.backoff(9), Duration::from_millis(35), "still capped");
        // A zero base disables backoff entirely.
        assert_eq!(RetryPolicy::default().backoff(4), Duration::ZERO);
    }

    #[test]
    fn attempt_seeds_are_deterministic_and_distinct() {
        let s = RetryPolicy::attempt_seed(7, 3, 1);
        assert_eq!(s, RetryPolicy::attempt_seed(7, 3, 1), "deterministic");
        assert_ne!(s, RetryPolicy::attempt_seed(7, 3, 2), "per-attempt");
        assert_ne!(s, RetryPolicy::attempt_seed(7, 4, 1), "per-client");
        assert_ne!(s, RetryPolicy::attempt_seed(8, 3, 1), "per-campaign");
    }

    #[test]
    fn retried_jobs_carry_fresh_attempt_seeds() {
        let plan = CampaignPlan::single_series(1, 1).with_seed(42);
        let launcher = Launcher::new(LauncherConfig {
            retry: RetryPolicy {
                max_retries: 2,
                ..RetryPolicy::default()
            },
            ..LauncherConfig::default()
        });
        let seeds = PlMutex::new(Vec::new());
        let report = launcher.run_campaign(&plan, |job| {
            seeds.lock().push((job.attempt, job.seed));
            if job.attempt == 1 {
                Err(ClientError::new("first attempt crashes"))
            } else {
                Ok(())
            }
        });
        assert_eq!(report.completed, 1);
        let seeds = seeds.lock();
        assert_eq!(seeds.len(), 2);
        assert_eq!(seeds[0].1, RetryPolicy::attempt_seed(42, 0, 1));
        assert_eq!(seeds[1].1, RetryPolicy::attempt_seed(42, 0, 2));
        assert_ne!(seeds[0].1, seeds[1].1);
    }

    #[test]
    fn watchdog_kills_hung_client_and_retry_completes() {
        let plan = CampaignPlan::single_series(3, 3).with_seed(5);
        let launcher = Launcher::new(LauncherConfig {
            retry: RetryPolicy {
                max_retries: 2,
                base_backoff: Duration::from_millis(5),
                ..RetryPolicy::default()
            },
            watchdog: Some(WatchdogConfig::with_deadline(Duration::from_millis(40))),
            ..LauncherConfig::default()
        });
        let events = CampaignEvents::default();
        let report =
            launcher.run_campaign_with(&plan, &ParameterSpace::default(), &events, |job, ctx| {
                if job.client_id == 1 && job.attempt == 1 {
                    // Hang: no beats, no return — until the watchdog cancels.
                    while !ctx.cancelled() {
                        std::thread::sleep(Duration::from_millis(2));
                    }
                    return Err(ClientError::killed("unwound after cancellation"));
                }
                for _ in 0..3 {
                    ctx.beat();
                }
                Ok(())
            });
        assert_eq!(report.completed, 3, "the retried client completes");
        assert_eq!(report.failed, 0);
        assert!(report.watchdog_kills >= 1, "the hang was detected");
        assert!(report.retries >= 1, "the killed client was resubmitted");
        assert_eq!(report.recovered_clients, vec![1]);
        assert!(report.abandoned_clients.is_empty());
    }

    #[test]
    fn watchdog_abandons_client_after_retry_budget() {
        let plan = CampaignPlan::single_series(2, 2).with_seed(6);
        let launcher = Launcher::new(LauncherConfig {
            retry: RetryPolicy {
                max_retries: 1,
                base_backoff: Duration::from_millis(2),
                ..RetryPolicy::default()
            },
            watchdog: Some(WatchdogConfig::with_deadline(Duration::from_millis(30))),
            ..LauncherConfig::default()
        });
        let abandoned = PlMutex::new(Vec::new());
        let events = CampaignEvents {
            on_abandoned: Some(&|client_id| abandoned.lock().push(client_id)),
        };
        let report =
            launcher.run_campaign_with(&plan, &ParameterSpace::default(), &events, |job, ctx| {
                if job.client_id == 0 {
                    // Hangs on every attempt.
                    while !ctx.cancelled() {
                        std::thread::sleep(Duration::from_millis(2));
                    }
                    return Err(ClientError::killed("unwound after cancellation"));
                }
                Ok(())
            });
        assert_eq!(report.completed, 1);
        assert_eq!(report.failed, 1, "the hung client is eventually abandoned");
        assert_eq!(report.watchdog_kills, 2, "initial attempt + one retry");
        assert_eq!(report.retries, 1);
        assert_eq!(report.abandoned_clients, vec![0]);
        assert_eq!(*abandoned.lock(), vec![0], "the abandonment event fired");
    }

    #[test]
    fn heartbeats_keep_a_slow_client_alive() {
        let plan = CampaignPlan::single_series(1, 1);
        let launcher = Launcher::new(LauncherConfig {
            retry: RetryPolicy::default(),
            watchdog: Some(WatchdogConfig::with_deadline(Duration::from_millis(30))),
            ..LauncherConfig::default()
        });
        let events = CampaignEvents::default();
        let report =
            launcher.run_campaign_with(&plan, &ParameterSpace::default(), &events, |_job, ctx| {
                // Runs well past the deadline but beats regularly: never killed.
                for _ in 0..10 {
                    std::thread::sleep(Duration::from_millis(10));
                    ctx.beat();
                }
                Ok(())
            });
        assert_eq!(report.completed, 1);
        assert_eq!(report.watchdog_kills, 0, "steady progress is never killed");
        assert!(report.abandoned_clients.is_empty());
    }

    #[test]
    fn subset_campaign_runs_only_requested_ids_with_original_parameters() {
        let plan = CampaignPlan::series_of(&[3, 3], 2).with_seed(9);
        let launcher = Launcher::new(LauncherConfig::default());
        // Full campaign: record every member's parameters.
        let full: PlMutex<HashMap<u64, [f64; 5]>> = PlMutex::new(HashMap::new());
        launcher.run_campaign(&plan, |job| {
            full.lock().insert(job.client_id, job.parameters);
            Ok(())
        });
        // Subset rerun: only clients 1 and 4 (one from each series).
        let seen: PlMutex<HashMap<u64, [f64; 5]>> = PlMutex::new(HashMap::new());
        let events = CampaignEvents::default();
        let report = launcher.run_campaign_subset(
            &plan,
            &ParameterSpace::default(),
            &[1, 4],
            &events,
            |job, _ctx| {
                seen.lock().insert(job.client_id, job.parameters);
                Ok(())
            },
        );
        assert_eq!(report.completed, 2);
        let full = full.lock();
        let seen = seen.lock();
        assert_eq!(seen.len(), 2);
        for id in [1u64, 4] {
            assert_eq!(
                seen[&id], full[&id],
                "client {id} reruns its original parameters"
            );
        }
    }

    // The three causes that wake a waiting worker. A lost wake-up in an
    // untimed wait is a hang, not a failure, so these only assert order and
    // generous bounds; a hang shows as a test that never finishes.

    #[test]
    fn backed_off_retry_runs_no_earlier_than_its_ready_at() {
        let plan = CampaignPlan::single_series(2, 2);
        let backoff = Duration::from_millis(30);
        let launcher = Launcher::new(LauncherConfig {
            retry: RetryPolicy {
                max_retries: 1,
                base_backoff: backoff,
                ..RetryPolicy::default()
            },
            ..LauncherConfig::default()
        });
        let failed_at = PlMutex::new(None);
        let retried_at = PlMutex::new(None);
        let report = launcher.run_campaign(&plan, |job| {
            if job.client_id != 0 {
                return Ok(());
            }
            if job.attempt == 1 {
                *failed_at.lock() = Some(Instant::now());
                return Err(ClientError::new("fails once"));
            }
            *retried_at.lock() = Some(Instant::now());
            Ok(())
        });
        assert_eq!(report.completed, 2);
        assert_eq!(report.retries, 1);
        assert_eq!(report.recovered_clients, vec![0]);
        let failed_at = failed_at.into_inner().expect("attempt 1 ran");
        let retried_at = retried_at.into_inner().expect("attempt 2 ran");
        // `ready_at` is stamped after the failed attempt returned.
        assert!(retried_at.duration_since(failed_at) >= backoff);
    }

    #[test]
    fn series_ends_when_its_last_client_returns_to_idle_workers() {
        let plan = CampaignPlan::single_series(4, 4);
        let launcher = Launcher::new(LauncherConfig::default());
        let finished_others = AtomicUsize::new(0);
        let returned_at = PlMutex::new(None);
        let report = launcher.run_campaign(&plan, |job| {
            if job.client_id != 0 {
                // ordering: Relaxed — a test tally; client 0 only spins on it
                finished_others.fetch_add(1, Ordering::Relaxed);
                return Ok(());
            }
            // ordering: Relaxed — see the tally above
            while finished_others.load(Ordering::Relaxed) < 3 {
                std::thread::yield_now();
            }
            // The other three workers find the queue empty and wait.
            std::thread::sleep(Duration::from_millis(20));
            *returned_at.lock() = Some(Instant::now());
            Ok(())
        });
        let ended_at = Instant::now();
        assert_eq!(report.completed, 4);
        let returned_at = returned_at.into_inner().expect("client 0 ran");
        assert!(ended_at.duration_since(returned_at) < Duration::from_secs(2));
    }

    #[test]
    fn watchdog_leaves_without_waiting_out_its_poll_interval() {
        let plan = CampaignPlan::single_series(2, 2);
        let launcher = Launcher::new(LauncherConfig {
            watchdog: Some(WatchdogConfig {
                deadline: Duration::from_secs(60),
                poll_interval: Duration::from_secs(20),
            }),
            ..LauncherConfig::default()
        });
        let start = Instant::now();
        let report = launcher.run_campaign(&plan, |_| {
            // Long enough for the watchdog to be waiting when the series ends.
            std::thread::sleep(Duration::from_millis(20));
            Ok(())
        });
        assert_eq!(report.completed, 2);
        assert_eq!(report.watchdog_kills, 0);
        assert!(start.elapsed() < Duration::from_secs(10));
    }
}
