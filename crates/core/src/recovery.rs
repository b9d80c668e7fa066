//! Crash-recovery plumbing of the online server: reception gating, per-sim
//! progress tracking and checkpoint capture.
//!
//! §3.1: *"The server is regularly checkpointed. If a server failure is
//! detected by the launcher, it first kills all running clients and next
//! restarts a new server instance from the last checkpoint."* This module
//! holds the state the server's threads share to run that loop:
//!
//! * [`ReceptionGate`] — how many clients the aggregators still wait on. The
//!   launcher decrements it when a client exhausts its retry budget, so the
//!   shard workers stop waiting for data that will never arrive (graceful
//!   degradation instead of a hang).
//! * [`RecoveryTracker`] — per-simulation received/consumed/finalized
//!   accounting across every rank, from which the set of *completed*
//!   simulations is derived. Only completed simulations enter a checkpoint;
//!   on restart, everything else is rerun from scratch.
//! * [`RecoveryHooks`] — what each [`crate::trainer::RankTrainer`] needs
//!   for it: the checkpoint cadence, the tracker, the checkpoint being
//!   resumed, the durable recorder rank 0's sidecar persists captures into,
//!   the scripted server-crash fault and the `server_down` flag every thread
//!   polls. A checkpoint lives only in the durability directory
//!   ([`crate::durable`]); a restart reads it back from there.
//! * [`IngestControl`] — the control surface of one rank's
//!   [`crate::aggregator::Aggregator`]: gate, termination flags, tracker and
//!   the completed simulations whose replayed traffic must be discarded.

use crate::checkpoint::ServerCheckpoint;
use parking_lot::Mutex;
use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;

/// How many clients the aggregators still expect to finalize. Starts at the
/// campaign (or resume subset) size and is decremented when the launcher
/// abandons a client for good, so reception can end without its data.
#[derive(Debug)]
pub struct ReceptionGate {
    expected: AtomicUsize,
}

impl ReceptionGate {
    /// A gate expecting `expected` clients to finalize.
    pub fn new(expected: usize) -> Self {
        Self {
            expected: AtomicUsize::new(expected),
        }
    }

    /// Number of clients still expected to finalize.
    pub fn expected(&self) -> usize {
        // ordering: Acquire — pairs with the Release decrement so a worker that observes the lowered expectation also observes everything the abandoning thread published before it
        self.expected.load(Ordering::Acquire)
    }

    /// Informs the gate that one client was abandoned and will never
    /// finalize. Saturates at zero.
    pub fn abandon_one(&self) {
        self.expected
            // ordering: AcqRel — the decrement must be totally ordered against other abandons and publish the abandonment to the workers' Acquire loads; the Acquire failure ordering re-reads the latest count before retrying
            .fetch_update(Ordering::AcqRel, Ordering::Acquire, |n| n.checked_sub(1))
            .ok();
    }
}

/// Per-simulation reception/consumption progress of one run.
#[derive(Debug, Default, Clone)]
struct SimProgress {
    /// Samples of this simulation accepted into some rank's buffer.
    received: usize,
    /// Serve events of this simulation in some rank's training loop (counts
    /// Reservoir repeats; kept for diagnostics, not for completion).
    consumed: usize,
    /// `trained[step]`: that time step of this simulation was trained at
    /// least once.
    trained: Vec<bool>,
    /// Number of distinct time steps trained at least once (the `true`
    /// entries of `trained`) — the exact completion measure for every
    /// buffer policy.
    trained_steps: usize,
    /// Samples evicted by a buffer *after* being trained (Reservoir making
    /// room): they stay counted in `trained_steps`, so eviction never makes a
    /// completed simulation look unfinished.
    evicted_trained: usize,
    /// Samples dropped by a buffer *without ever being trained* (FIFO/FIRO
    /// discarding late arrivals after a crash): their data is lost, so the
    /// simulation can never complete in this incarnation.
    dropped_untrained: usize,
    /// Ranks on which this simulation's finalize message was processed.
    finalized_ranks: usize,
    /// Pre-seeded from a checkpoint: completed in a previous incarnation.
    restored: bool,
    /// Already handed out through [`RecoveryTracker::take_newly_completed`].
    announced: bool,
}

impl SimProgress {
    /// Marks `step` as trained; true the first time it is.
    fn mark_trained(&mut self, step: usize) -> bool {
        let first = !std::mem::replace(&mut self.trained[step], true);
        self.trained_steps += usize::from(first);
        first
    }

    /// The completion criterion of [`RecoveryTracker`] for one simulation.
    fn is_complete(&self, num_ranks: usize) -> bool {
        self.restored
            || (self.finalized_ranks >= num_ranks
                && self.received > 0
                && self.dropped_untrained == 0
                && self.trained_steps >= self.received)
    }

    /// True exactly once per simulation: the first time the criterion holds
    /// in this incarnation. Restored simulations are already durable and are
    /// never announced.
    fn newly_complete(&mut self, num_ranks: usize) -> bool {
        if self.announced || self.restored || !self.is_complete(num_ranks) {
            return false;
        }
        self.announced = true;
        true
    }
}

/// The tracker's state under its one lock.
#[derive(Debug)]
struct TrackerState {
    sims: HashMap<u64, SimProgress>,
    /// Steps per simulation: a simulation's `trained` row is sized once, when
    /// it is first heard of.
    steps: usize,
    /// Simulations that completed in this incarnation and were not yet taken
    /// by [`RecoveryTracker::take_newly_completed`], in completion order.
    newly_completed: Vec<u64>,
}

impl TrackerState {
    fn sim(&mut self, simulation_id: u64) -> &mut SimProgress {
        let steps = self.steps;
        self.sims
            .entry(simulation_id)
            .or_insert_with(|| SimProgress {
                // analysis: allow(alloc, reason = "once per simulation, when it is first heard of: the row every one of its steps is then marked in")
                trained: vec![false; steps],
                ..SimProgress::default()
            })
    }
}

/// Cross-rank per-simulation accounting, from which the completed-simulation
/// set of a checkpoint is derived.
///
/// A simulation is **completed** when its finalize was processed on every
/// rank *and* every received sample was trained at least once — measured as
/// *distinct trained time steps*, so the criterion is exact for all three
/// buffer policies: FIFO/FIRO serve each sample exactly once, and the
/// Reservoir's repeated serves do not inflate the distinct count the way they
/// inflate the raw consumed tally (which made the old `consumed >= received`
/// criterion unsound: a mid-run checkpoint could mark a simulation complete
/// while some of its samples sat unseen in the buffer and would be lost by a
/// crash). A simulation that had samples dropped untrained (crash shutdown
/// with a full queue) is pinned incomplete so a restart reruns it.
///
/// Only two events can complete a simulation — a trained batch
/// ([`RecoveryTracker::record_consumed`]) and a rank's finalize
/// ([`RecoveryTracker::record_finalized`]) — and both queue the id the moment
/// the criterion first holds, so rank 0 journals completions in O(new) per
/// batch through [`RecoveryTracker::take_newly_completed`] instead of
/// scanning every simulation. [`RecoveryTracker::completed_simulations`]
/// keeps the full scan for checkpoint capture.
#[derive(Debug)]
pub struct RecoveryTracker {
    num_ranks: usize,
    progress: Mutex<TrackerState>,
}

impl RecoveryTracker {
    /// A tracker for a run with `num_ranks` server ranks over a campaign of
    /// `simulations` simulations of `steps` steps each (indices `0..steps`).
    pub fn new(num_ranks: usize, simulations: usize, steps: usize) -> Self {
        Self {
            num_ranks,
            progress: Mutex::new(TrackerState {
                sims: HashMap::with_capacity(simulations),
                steps,
                newly_completed: Vec::new(),
            }),
        }
    }

    /// Pre-seeds a simulation as completed (restored from a checkpoint), so
    /// the next checkpoint of the resumed run carries it forward.
    pub fn restore_completed(&self, simulation_id: u64) {
        self.progress.lock().sim(simulation_id).restored = true;
    }

    /// Records `count` samples of `simulation_id` accepted into a buffer.
    pub fn record_received(&self, simulation_id: u64, count: usize) {
        self.progress.lock().sim(simulation_id).received += count;
    }

    /// Records that one rank processed `simulation_id`'s finalize message.
    pub fn record_finalized(&self, simulation_id: u64) {
        let progress = &mut *self.progress.lock();
        let entry = progress.sim(simulation_id);
        entry.finalized_ranks += 1;
        if entry.newly_complete(self.num_ranks) {
            progress.newly_completed.push(simulation_id);
        }
    }

    /// Records one trained batch's sample keys (`(simulation, step)`): bumps
    /// the serve tally and marks each step as trained at least once.
    pub fn record_consumed(&self, keys: &[(u64, usize)]) {
        let progress = &mut *self.progress.lock();
        for (simulation_id, step) in keys {
            let entry = progress.sim(*simulation_id);
            entry.consumed += 1;
            if entry.mark_trained(*step) && entry.newly_complete(self.num_ranks) {
                progress.newly_completed.push(*simulation_id);
            }
        }
    }

    /// Moves the simulations that completed since the last call onto the end
    /// of `out`, in completion order. Accumulated over a run (plus the
    /// restored ones) this is exactly
    /// [`RecoveryTracker::completed_simulations`]; it costs O(new) and, once
    /// `out` has grown to its working size, allocates nothing.
    pub fn take_newly_completed(&self, out: &mut Vec<u64>) {
        // A path call on purpose: `melissa_analysis` resolves a bare
        // `.append(…)` by name to `CompletionJournal::append`.
        Vec::append(out, &mut self.progress.lock().newly_completed);
    }

    /// Records a buffer permanently removing one of `simulation_id`'s samples
    /// outside the normal serve path. `trained` distinguishes a Reservoir
    /// eviction of an already-served sample (harmless for completion) from a
    /// crash-shutdown drop of a never-served sample (pins the simulation
    /// incomplete, so a restart reruns it).
    pub fn record_evicted(&self, simulation_id: u64, trained: bool) {
        let mut progress = self.progress.lock();
        let entry = progress.sim(simulation_id);
        if trained {
            entry.evicted_trained += 1;
        } else {
            entry.dropped_untrained += 1;
        }
    }

    /// Total `(evicted_trained, dropped_untrained)` samples across all
    /// simulations — diagnostics for tests and reports.
    pub fn eviction_totals(&self) -> (usize, usize) {
        let progress = self.progress.lock();
        progress.sims.values().fold((0, 0), |(t, u), p| {
            (t + p.evicted_trained, u + p.dropped_untrained)
        })
    }

    /// The simulations whose data is fully received *and* trained on, in
    /// ascending id order — the only ones a checkpoint may skip on restart.
    pub fn completed_simulations(&self) -> Vec<u64> {
        let progress = self.progress.lock();
        let mut completed: Vec<u64> = progress
            .sims
            .iter()
            .filter(|(_, p)| p.is_complete(self.num_ranks))
            .map(|(&sim, _)| sim)
            .collect();
        completed.sort_unstable();
        completed
    }
}

/// Everything a [`crate::trainer::RankTrainer`] needs to participate in
/// crash recovery. Cloned per rank; all state is shared through `Arc`s.
#[derive(Clone)]
pub struct RecoveryHooks {
    /// Capture a checkpoint every this many data batches on rank 0 and hand
    /// it to the sidecar to persist; 0 disables periodic checkpointing.
    pub checkpoint_every_batches: usize,
    /// Cross-rank per-simulation accounting.
    pub tracker: Arc<RecoveryTracker>,
    /// Scripted fault: rank 0 takes the whole server down after this many
    /// data batches (`None` = never).
    pub crash_after_batches: Option<usize>,
    /// Set once the server has crashed; polled by aggregators and clients.
    pub server_down: Arc<AtomicBool>,
    /// The experiment seed recorded into every checkpoint.
    pub experiment_seed: u64,
    /// The checkpoint being resumed, if any: every rank continues from its
    /// optimizer state (the caller restores the model), and its batch counter
    /// offsets the sample-based learning-rate schedule so it does not restart hot.
    pub resume: Option<Arc<ServerCheckpoint>>,
    /// On-disk durability sink (checkpoint store + completion journal),
    /// written by rank 0's sidecar thread from the snapshots the learner
    /// hands it; `None` persists nothing.
    pub durable: Option<Arc<crate::durable::DurableRecorder>>,
}

/// The control surface of one rank's aggregator: termination signals, the
/// reception gate and the recovery accounting. Cloned per rank.
#[derive(Clone)]
pub struct IngestControl {
    /// How many clients must finalize before reception is over (lowered when
    /// clients are abandoned).
    pub gate: Arc<ReceptionGate>,
    /// Set by the orchestrator once the launcher campaign has ended; with
    /// empty inbound queues this also ends reception.
    pub production_done: Arc<AtomicBool>,
    /// Set when the server crashed: stop accepting data, but keep draining
    /// the inbound queues so no client blocks on a full channel.
    pub server_down: Arc<AtomicBool>,
    /// Per-simulation accounting, when the run is recoverable.
    pub tracker: Option<Arc<RecoveryTracker>>,
    /// Simulations already completed in a previous incarnation: their
    /// replayed traffic is discarded wholesale by the message logs.
    pub completed: Arc<Vec<u64>>,
}

impl IngestControl {
    /// A control block for a fresh (non-resumed) run expecting
    /// `expected_clients` finalizes, without recovery accounting.
    pub fn basic(expected_clients: usize, production_done: Arc<AtomicBool>) -> Self {
        Self {
            gate: Arc::new(ReceptionGate::new(expected_clients)),
            production_done,
            server_down: Arc::new(AtomicBool::new(false)),
            tracker: None,
            completed: Arc::new(Vec::new()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gate_counts_down_and_saturates() {
        let gate = ReceptionGate::new(2);
        assert_eq!(gate.expected(), 2);
        gate.abandon_one();
        gate.abandon_one();
        assert_eq!(gate.expected(), 0);
        gate.abandon_one();
        assert_eq!(gate.expected(), 0, "saturates at zero");
    }

    #[test]
    fn tracker_completes_only_fully_consumed_finalized_sims() {
        let tracker = RecoveryTracker::new(2, 3, 10);
        // Sim 0: fully received, consumed and finalized on both ranks.
        tracker.record_received(0, 10);
        tracker.record_finalized(0);
        tracker.record_finalized(0);
        let keys: Vec<(u64, usize)> = (0..10).map(|s| (0u64, s)).collect();
        tracker.record_consumed(&keys);
        // Sim 1: finalized everywhere but one sample still unconsumed.
        tracker.record_received(1, 3);
        tracker.record_finalized(1);
        tracker.record_finalized(1);
        tracker.record_consumed(&[(1, 0), (1, 1)]);
        // Sim 2: consumed but finalize seen on only one rank.
        tracker.record_received(2, 1);
        tracker.record_finalized(2);
        tracker.record_consumed(&[(2, 0)]);
        assert_eq!(tracker.completed_simulations(), vec![0]);
        tracker.record_consumed(&[(1, 2)]);
        assert_eq!(tracker.completed_simulations(), vec![0, 1]);
    }

    #[test]
    fn repeated_serves_do_not_fake_completion() {
        // Reservoir behaviour: step 0 served three times, step 1 never. The
        // raw consumed tally (3) reaches received (2), but only one distinct
        // step was trained — the simulation must stay incomplete.
        let tracker = RecoveryTracker::new(1, 8, 2);
        tracker.record_received(0, 2);
        tracker.record_finalized(0);
        tracker.record_consumed(&[(0, 0), (0, 0), (0, 0)]);
        assert!(tracker.completed_simulations().is_empty());
        tracker.record_consumed(&[(0, 1)]);
        assert_eq!(tracker.completed_simulations(), vec![0]);
    }

    #[test]
    fn step_rows_count_distinct_steps_once() {
        let tracker = RecoveryTracker::new(1, 4, 4);
        tracker.record_received(2, 4);
        tracker.record_finalized(2);
        // A repeated step adds nothing: three distinct steps of four.
        tracker.record_consumed(&[(2, 0), (2, 1), (2, 2), (2, 1)]);
        assert!(tracker.completed_simulations().is_empty());
        tracker.record_consumed(&[(2, 3)]);
        assert_eq!(tracker.completed_simulations(), vec![2]);
        let mut announced = Vec::new();
        tracker.take_newly_completed(&mut announced);
        assert_eq!(announced, vec![2]);
    }

    #[test]
    fn trained_evictions_do_not_undo_completion() {
        // Both steps trained, then one sample evicted (Reservoir making
        // room): the simulation's contribution to the model is intact.
        let tracker = RecoveryTracker::new(1, 8, 2);
        tracker.record_received(5, 2);
        tracker.record_finalized(5);
        tracker.record_consumed(&[(5, 0), (5, 1)]);
        tracker.record_evicted(5, true);
        assert_eq!(tracker.completed_simulations(), vec![5]);
        assert_eq!(tracker.eviction_totals(), (1, 0));
    }

    #[test]
    fn untrained_drops_pin_a_simulation_incomplete() {
        // All received samples trained, but one extra sample was dropped
        // before ever reaching training (crash shutdown): data was lost, the
        // simulation must be rerun.
        let tracker = RecoveryTracker::new(1, 8, 2);
        tracker.record_received(6, 2);
        tracker.record_finalized(6);
        tracker.record_consumed(&[(6, 0), (6, 1)]);
        tracker.record_evicted(6, false);
        assert!(tracker.completed_simulations().is_empty());
        assert_eq!(tracker.eviction_totals(), (0, 1));
    }

    #[test]
    fn tracker_carries_restored_completions_forward() {
        let tracker = RecoveryTracker::new(1, 8, 2);
        tracker.restore_completed(7);
        tracker.record_received(3, 2);
        tracker.record_finalized(3);
        tracker.record_consumed(&[(3, 0), (3, 1)]);
        assert_eq!(tracker.completed_simulations(), vec![3, 7]);
    }

    #[test]
    fn sims_with_no_data_never_complete_without_restore() {
        let tracker = RecoveryTracker::new(1, 8, 2);
        // Finalized but nothing received (e.g. every message dropped):
        // consumed >= received holds vacuously, the received>0 guard rejects it.
        tracker.record_finalized(4);
        assert!(tracker.completed_simulations().is_empty());
    }
}
