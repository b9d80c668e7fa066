//! The data-aggregation side of one server rank: shard workers plus a rank
//! coordinator.
//!
//! §3.1: *"Each server process runs two threads. The data aggregator thread
//! manages connections to clients, receives data and stores these data into the
//! training buffer."* The aggregator also implements the fault-tolerance log:
//! messages already received from a restarted client are discarded (§3.1), and
//! it decides when data reception is over so the buffer can drain and training
//! can terminate.
//!
//! This reproduction generalises the paper's single aggregator thread to
//! `ingest_shards` **shard workers** per rank. The transport routes every
//! message of one simulation to the same shard (stable hash of the simulation
//! id), so each worker owns a disjoint set of clients: its [`MessageLog`] is
//! private, contention-free, and still complete for the clients it serves.
//! Each worker drains its own channel and inserts into its own shard of the
//! rank's [`ShardedBuffer`] — the wire→buffer path shares **nothing** between
//! shards except two rank-level atomics. The rank coordinator
//! ([`Aggregator::run`]) owns the cross-shard bookkeeping: the finalize
//! counter every worker checks for termination, the merge of the per-shard
//! outcomes, and the single `mark_reception_over` handoff to the trainer.
//! With one shard the worker runs inline on the rank's aggregator thread —
//! no extra thread, no behaviour change from the single-aggregator design.

use crate::recovery::IngestControl;
use crate::sample::payload_into_sample;
use melissa_transport::{Message, MessageLog, ServerEndpoint};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};
use surrogate_nn::{InputNormalizer, OutputNormalizer, Sample};
use training_buffer::{OccupancySnapshot, ShardedBuffer, TrainingBuffer};

/// Summary of one rank's aggregation work (all shards merged), returned when
/// the rank's aggregation completes.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct AggregatorOutcome {
    /// Time-step messages accepted into the buffer.
    pub accepted: usize,
    /// Replayed messages discarded thanks to the message logs.
    pub duplicates_discarded: usize,
    /// Clients that sent their finalize message to this rank.
    pub finalized_clients: usize,
    /// Buffer population snapshots recorded while aggregating.
    pub occupancy: Vec<OccupancySnapshot>,
}

/// The data-aggregation coordinator of one server rank: drives one shard
/// worker per endpoint and merges their outcomes.
pub struct Aggregator {
    /// One endpoint per ingest shard of this rank.
    endpoints: Vec<ServerEndpoint>,
    buffer: Arc<ShardedBuffer<Sample>>,
    input_norm: InputNormalizer,
    output_norm: OutputNormalizer,
    /// Reception gate, termination flags and recovery accounting.
    control: IngestControl,
    /// How often a population snapshot is recorded.
    snapshot_every: Duration,
    poll_timeout: Duration,
}

impl Aggregator {
    /// Maximum number of messages converted per burst before the scratch is
    /// flushed to the buffer and the snapshot/termination checks run again.
    const MAX_BURST: usize = 256;

    /// Creates the aggregator of one rank: one shard worker per endpoint,
    /// inserting into the matching shard of `buffer` (the endpoint count must
    /// equal the buffer's shard count). The normalisers must match the
    /// workload whose payloads this rank receives; `control` carries the
    /// reception gate, termination flags and recovery accounting shared with
    /// the orchestrator.
    ///
    /// # Panics
    /// Panics when no endpoint is given or the endpoint and buffer shard
    /// counts disagree.
    pub fn new(
        endpoints: Vec<ServerEndpoint>,
        buffer: Arc<ShardedBuffer<Sample>>,
        input_norm: InputNormalizer,
        output_norm: OutputNormalizer,
        control: IngestControl,
    ) -> Self {
        assert!(!endpoints.is_empty(), "need at least one shard endpoint");
        assert_eq!(
            endpoints.len(),
            buffer.shard_count(),
            "one endpoint per buffer shard"
        );
        Self {
            endpoints,
            buffer,
            input_norm,
            output_norm,
            control,
            snapshot_every: Duration::from_millis(25),
            poll_timeout: Duration::from_millis(10),
        }
    }

    /// Overrides the population-snapshot period.
    pub fn with_snapshot_period(mut self, period: Duration) -> Self {
        self.snapshot_every = period;
        self
    }

    /// Number of ingest shards this rank runs.
    pub fn shard_count(&self) -> usize {
        self.endpoints.len()
    }

    /// Runs the rank's aggregation until reception is over; returns the
    /// merged summary.
    ///
    /// Reception is over when either every expected client has finalized on
    /// this rank (counted across shards through a rank-level atomic), or the
    /// orchestrator has signalled the end of data production and every
    /// shard's inbound queue has drained. With one shard the worker runs
    /// inline on the calling thread; with more, each worker gets its own
    /// thread and the coordinator joins them before handing the buffer over
    /// to the trainer with a single `mark_reception_over`.
    pub fn run(self, start: Instant) -> AggregatorOutcome {
        let Self {
            endpoints,
            buffer,
            input_norm,
            output_norm,
            control,
            snapshot_every,
            poll_timeout,
        } = self;
        let finalized = AtomicUsize::new(0);
        let multi_shard = endpoints.len() > 1;

        let make_worker = |(index, endpoint): (usize, ServerEndpoint)| ShardWorker {
            endpoint,
            buffer: buffer.as_ref(),
            input_norm: &input_norm,
            output_norm: &output_norm,
            control: &control,
            finalized: &finalized,
            // Shard 0 owns the rank's occupancy sampling; the others skip the
            // clock entirely.
            take_snapshots: index == 0,
            snapshot_every,
            poll_timeout,
        };

        let shard_outcomes: Vec<ShardOutcome> = if multi_shard {
            crossbeam::scope(|scope| {
                let handles: Vec<_> = endpoints
                    .into_iter()
                    .enumerate()
                    .map(|indexed| {
                        let worker = make_worker(indexed);
                        scope.spawn(move |_| worker.run(start))
                    })
                    .collect();
                handles
                    .into_iter()
                    // analysis: allow(panic, reason = "re-raises a shard worker's panic; losing ingested ranks silently would corrupt the experiment")
                    .map(|h| h.join().expect("a shard worker panicked"))
                    .collect()
            })
            // analysis: allow(panic, reason = "re-raises a panic escaping the crossbeam scope itself")
            .expect("the shard-worker scope panicked")
        } else {
            // analysis: allow(panic, reason = "Aggregator::new asserts endpoints is non-empty, and !multi_shard means exactly one")
            let worker = make_worker((0, endpoints.into_iter().next().expect("one endpoint")));
            vec![worker.run(start)]
        };

        let mut outcome = AggregatorOutcome::default();
        for shard in shard_outcomes {
            outcome.accepted += shard.accepted;
            outcome.duplicates_discarded += shard.duplicates_discarded;
            outcome.occupancy.extend(shard.occupancy);
        }
        // ordering: Acquire — pairs with the AcqRel increments in the shard workers (the scope join above also orders this; Acquire keeps the pairing explicit)
        outcome.finalized_clients = finalized.load(Ordering::Acquire);
        outcome.occupancy.push(snapshot(buffer.as_ref(), start));
        buffer.mark_reception_over();
        outcome
    }
}

/// What one shard worker measured.
struct ShardOutcome {
    accepted: usize,
    duplicates_discarded: usize,
    occupancy: Vec<OccupancySnapshot>,
}

/// The receive loop of one ingest shard. The transport guarantees all
/// messages of one simulation land on the same shard, so `log` is complete
/// for this worker's clients without any cross-shard coordination.
struct ShardWorker<'a> {
    endpoint: ServerEndpoint,
    buffer: &'a ShardedBuffer<Sample>,
    input_norm: &'a InputNormalizer,
    output_norm: &'a OutputNormalizer,
    /// Reception gate, termination flags and recovery accounting (shared by
    /// every shard worker of the rank).
    control: &'a IngestControl,
    /// Rank-level finalize counter shared by every shard worker.
    finalized: &'a AtomicUsize,
    take_snapshots: bool,
    snapshot_every: Duration,
    poll_timeout: Duration,
}

impl ShardWorker<'_> {
    /// The message path is allocation-free in steady state: each payload is
    /// converted into its sample **in place** (the message's own storage is
    /// reused, see [`payload_into_sample`]), accepted samples accumulate in a
    /// reusable scratch owned by this worker, and every inbound burst is
    /// drained with non-blocking receives before the whole scratch is handed
    /// to this worker's buffer shard under a single `put_many` lock
    /// acquisition — instead of one buffer round-trip (and four allocations)
    /// per message.
    // analysis: hot_path
    fn run(self, start: Instant) -> ShardOutcome {
        let shard = self.endpoint.shard();
        let mut log = MessageLog::new();
        // Simulations completed before a server restart: the message log
        // discards their replayed traffic wholesale (§3.1 fault tolerance).
        for &simulation_id in self.control.completed.iter() {
            log.mark_completed(simulation_id);
        }
        let mut accepted = 0usize;
        // analysis: allow(alloc, reason = "one-time setup before the drain loop; grows only at snapshot cadence")
        let mut occupancy = Vec::new();
        let mut last_snapshot = Instant::now();
        // The ingestion scratches, owned here and recycled across bursts: the
        // inbound messages drained from the channel, the converted samples
        // handed to the buffer by `put_many`, and the per-simulation counts
        // of one burst flushed to the recovery tracker.
        // analysis: allow(alloc, reason = "one-time scratch setup before the drain loop; recycled across every burst")
        let mut inbound: Vec<Message> = Vec::with_capacity(Aggregator::MAX_BURST);
        // analysis: allow(alloc, reason = "one-time scratch setup before the drain loop; recycled across every burst")
        let mut scratch: Vec<Sample> = Vec::with_capacity(Aggregator::MAX_BURST);
        // analysis: allow(alloc, reason = "one-time scratch setup before the drain loop; recycled across every burst")
        let mut burst_counts: Vec<(u64, usize)> = Vec::with_capacity(8);

        loop {
            // After a server crash the workers stop accepting data but keep
            // draining their queues, so no client ever blocks on a full
            // channel while the launcher winds the campaign down.
            // ordering: Acquire — pairs with the trainer's Release store; training state written before the crash is visible once `down` reads true
            let down = self.control.server_down.load(Ordering::Acquire);
            // analysis: allow(blocking, reason = "deliberate timed poll: the drain loop parks here only when the fabric is idle")
            match self.endpoint.recv_timeout(self.poll_timeout) {
                Some(first) => {
                    // Drain the burst: everything already queued (up to a cap,
                    // so a sustained stream cannot starve the snapshot clock
                    // or grow the scratches without bound) is pulled under one
                    // channel lock, converted into the sample scratch, then
                    // stored under one buffer-shard lock.
                    self.endpoint
                        .try_recv_many(&mut inbound, Aggregator::MAX_BURST - 1);
                    for message in std::iter::once(first).chain(inbound.drain(..)) {
                        match message {
                            Message::TimeStep {
                                client_id,
                                sequence,
                                payload,
                            } => {
                                // Replays are counted by the log itself and
                                // reported once at the end of the run.
                                if !down && log.observe(client_id, sequence) {
                                    scratch.push(payload_into_sample(
                                        payload,
                                        self.input_norm,
                                        self.output_norm,
                                    ));
                                    accepted += 1;
                                    if self.control.tracker.is_some() {
                                        bump_burst_count(&mut burst_counts, client_id);
                                    }
                                }
                            }
                            Message::Finalize { client_id, .. } => {
                                // Count each client's finalize once into the
                                // rank-level counter every worker polls.
                                if !log.is_finalized(client_id) {
                                    log.mark_finalized(client_id);
                                    if let Some(tracker) = &self.control.tracker {
                                        // The samples that preceded the
                                        // finalize are counted first (see
                                        // below).
                                        self.flush_burst_counts(&mut burst_counts);
                                        // analysis: allow(blocking, reason = "short per-sim map update under an uncontended mutex; at most once per client per rank")
                                        tracker.record_finalized(client_id);
                                    }
                                    // ordering: AcqRel — the Release half publishes this client's drained messages before the count; the Acquire half orders the RMW against the termination-gate loads
                                    self.finalized.fetch_add(1, Ordering::AcqRel);
                                }
                            }
                        }
                    }
                    // The tracker must never see a simulation ahead of its
                    // data: samples are counted as received before the
                    // learner can train on them, and before the finalize
                    // that followed them is recorded. A simulation can then
                    // only complete through a trained batch or a finalize —
                    // never while its samples are still on their way into
                    // the buffer, uncounted.
                    self.flush_burst_counts(&mut burst_counts);
                    self.buffer.put_many_shard(shard, &mut scratch);
                    // If this burst contained the rank's last expected
                    // finalize, stop immediately instead of sleeping through
                    // one more poll.
                    // ordering: Acquire — pairs with the AcqRel increments so every finalized client's messages are visible before this worker stops
                    if self.finalized.load(Ordering::Acquire) >= self.control.gate.expected() {
                        break;
                    }
                }
                None => {
                    // Idle: free what the learner served from this shard
                    // since the last burst, so a shard without traffic
                    // does not hold on to served samples.
                    // analysis: allow(blocking, reason = "idle poll only: two short shard-lock acquisitions around freeing the served samples, while the fabric is quiet")
                    self.buffer.free_retired_shard(shard);
                    // Check the termination conditions. The gate is
                    // re-read every pass — the launcher lowers it when a
                    // client is abandoned mid-run.
                    // ordering: Acquire — pairs with the AcqRel increments so every finalized client's messages are visible before this worker stops
                    if self.finalized.load(Ordering::Acquire) >= self.control.gate.expected() {
                        break;
                    }
                    // ordering: Acquire — pairs with the orchestrator's Release store; production's sends happen-before observing true, so queued()==0 really means drained
                    if self.control.production_done.load(Ordering::Acquire)
                        && self.endpoint.queued() == 0
                    {
                        break;
                    }
                }
            }

            if self.take_snapshots && last_snapshot.elapsed() >= self.snapshot_every {
                occupancy.push(snapshot(self.buffer, start));
                last_snapshot = Instant::now();
            }
        }

        // Drain whatever is still queued on this shard (e.g. messages that
        // raced with the rank's last finalize).
        // ordering: Acquire — pairs with the trainer's Release store; decides whether the final drain still accepts data
        let down = self.control.server_down.load(Ordering::Acquire);
        while self
            .endpoint
            .try_recv_many(&mut inbound, Aggregator::MAX_BURST)
            > 0
        {
            for message in inbound.drain(..) {
                if let Message::TimeStep {
                    client_id,
                    sequence,
                    payload,
                } = message
                {
                    if !down && log.observe(client_id, sequence) {
                        scratch.push(payload_into_sample(
                            payload,
                            self.input_norm,
                            self.output_norm,
                        ));
                        accepted += 1;
                        if self.control.tracker.is_some() {
                            bump_burst_count(&mut burst_counts, client_id);
                        }
                    }
                }
            }
            self.flush_burst_counts(&mut burst_counts);
            self.buffer.put_many_shard(shard, &mut scratch);
        }
        ShardOutcome {
            accepted,
            duplicates_discarded: log.duplicates_discarded() as usize,
            occupancy,
        }
    }

    /// Flushes one burst's per-simulation acceptance counts to the recovery
    /// tracker (one lock acquisition per burst, not per message) and clears
    /// the scratch for the next burst.
    fn flush_burst_counts(&self, burst_counts: &mut Vec<(u64, usize)>) {
        if burst_counts.is_empty() {
            return;
        }
        if let Some(tracker) = &self.control.tracker {
            for &(simulation_id, count) in burst_counts.iter() {
                // analysis: allow(blocking, reason = "short per-sim map update under a mutex contended only at burst cadence")
                tracker.record_received(simulation_id, count);
            }
        }
        burst_counts.clear();
    }
}

/// Bumps the burst's acceptance count of `simulation_id`. A linear scan: one
/// burst rarely spans more than a handful of simulations.
fn bump_burst_count(counts: &mut Vec<(u64, usize)>, simulation_id: u64) {
    if let Some(entry) = counts.iter_mut().find(|(sim, _)| *sim == simulation_id) {
        entry.1 += 1;
    } else {
        counts.push((simulation_id, 1));
    }
}

fn snapshot(buffer: &ShardedBuffer<Sample>, start: Instant) -> OccupancySnapshot {
    let population = buffer.len();
    OccupancySnapshot {
        elapsed_seconds: start.elapsed().as_secs_f64(),
        population,
        unseen: population - buffer.stats().repeated_gets.min(population),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use melissa_transport::{stable_shard, Fabric, FabricConfig, SamplePayload};
    use std::sync::atomic::AtomicBool;
    use training_buffer::{BufferConfig, BufferKind};

    fn payload(sim: u64, step: usize) -> SamplePayload {
        SamplePayload {
            simulation_id: sim,
            step,
            time: 0.01 * (step as f64 + 1.0),
            parameters: vec![300.0, 200.0, 250.0, 350.0, 400.0],
            values: vec![250.0; 16],
        }
    }

    fn fifo_buffer(shards: usize) -> Arc<ShardedBuffer<Sample>> {
        Arc::new(ShardedBuffer::new(
            &BufferConfig {
                kind: BufferKind::Fifo,
                capacity: 128,
                threshold: 1,
                seed: 1,
            },
            shards,
        ))
    }

    fn run_aggregator(
        fabric: &Fabric,
        buffer: Arc<ShardedBuffer<Sample>>,
        expected_clients: usize,
        production_done: Arc<AtomicBool>,
    ) -> std::thread::JoinHandle<AggregatorOutcome> {
        let endpoints = fabric.rank_shard_endpoints().remove(0);
        let aggregator = Aggregator::new(
            endpoints,
            buffer,
            InputNormalizer::for_trajectory(100, 0.01),
            OutputNormalizer::default(),
            IngestControl::basic(expected_clients, production_done),
        );
        std::thread::spawn(move || aggregator.run(Instant::now()))
    }

    #[test]
    fn accepts_samples_and_terminates_on_finalize() {
        let fabric = Fabric::new(FabricConfig::default());
        let buffer = fifo_buffer(1);
        let handle = run_aggregator(
            &fabric,
            Arc::clone(&buffer),
            1,
            Arc::new(AtomicBool::new(false)),
        );

        let client = fabric.connect_client(0);
        for step in 0..10 {
            client.send(payload(0, step)).unwrap();
        }
        client.finalize().unwrap();

        let outcome = handle.join().unwrap();
        assert_eq!(outcome.accepted, 10);
        assert_eq!(outcome.finalized_clients, 1);
        assert!(buffer.is_reception_over());
        assert_eq!(buffer.len(), 10);
    }

    #[test]
    fn discards_replayed_messages_after_client_restart() {
        let fabric = Fabric::new(FabricConfig::default());
        let buffer = fifo_buffer(1);
        let handle = run_aggregator(
            &fabric,
            Arc::clone(&buffer),
            1,
            Arc::new(AtomicBool::new(false)),
        );

        let client = fabric.connect_client(3);
        for step in 0..5 {
            client.send(payload(3, step)).unwrap();
        }
        // Restart: the client replays everything from the beginning.
        client.resume_from_sequence(0);
        for step in 0..8 {
            client.send(payload(3, step)).unwrap();
        }
        client.finalize().unwrap();

        let outcome = handle.join().unwrap();
        assert_eq!(outcome.accepted, 8, "5 originals + 3 new steps");
        assert_eq!(outcome.duplicates_discarded, 5);
        assert_eq!(buffer.len(), 8);
    }

    #[test]
    fn production_done_flag_terminates_without_finalize() {
        let fabric = Fabric::new(FabricConfig::default());
        let buffer = fifo_buffer(1);
        let production_done = Arc::new(AtomicBool::new(false));
        let handle = run_aggregator(
            &fabric,
            Arc::clone(&buffer),
            2,
            Arc::clone(&production_done),
        );

        let client = fabric.connect_client(0);
        for step in 0..4 {
            client.send(payload(0, step)).unwrap();
        }
        // The second expected client never finalizes (it was abandoned); the
        // orchestrator signals the end of production instead.
        std::thread::sleep(Duration::from_millis(30));
        // ordering: Release — pairs with the worker's Acquire gate load, publishing all sends made before the signal
        production_done.store(true, Ordering::Release);

        let outcome = handle.join().unwrap();
        assert_eq!(outcome.accepted, 4);
        assert!(buffer.is_reception_over());
    }

    #[test]
    fn records_population_snapshots() {
        let fabric = Fabric::new(FabricConfig::default());
        let buffer = fifo_buffer(1);
        let endpoints = fabric.rank_shard_endpoints().remove(0);
        let aggregator = Aggregator::new(
            endpoints,
            Arc::clone(&buffer),
            InputNormalizer::for_trajectory(100, 0.01),
            OutputNormalizer::default(),
            IngestControl::basic(1, Arc::new(AtomicBool::new(false))),
        )
        .with_snapshot_period(Duration::from_millis(5));
        let handle = std::thread::spawn(move || aggregator.run(Instant::now()));

        let client = fabric.connect_client(0);
        for step in 0..6 {
            client.send(payload(0, step)).unwrap();
            std::thread::sleep(Duration::from_millis(4));
        }
        client.finalize().unwrap();
        let outcome = handle.join().unwrap();
        assert!(
            outcome.occupancy.len() >= 2,
            "snapshots: {}",
            outcome.occupancy.len()
        );
        // The final snapshot reports the full population.
        assert_eq!(outcome.occupancy.last().unwrap().population, 6);
    }

    #[test]
    fn sharded_rank_aggregates_across_worker_threads() {
        let fabric = Fabric::new(FabricConfig {
            shards_per_rank: 2,
            ..FabricConfig::default()
        });
        let buffer = fifo_buffer(2);
        let handle = run_aggregator(
            &fabric,
            Arc::clone(&buffer),
            4,
            Arc::new(AtomicBool::new(false)),
        );

        for sim in 0..4u64 {
            let client = fabric.connect_client(sim);
            for step in 0..8 {
                client.send(payload(sim, step)).unwrap();
            }
            client.finalize().unwrap();
        }

        let outcome = handle.join().unwrap();
        assert_eq!(outcome.accepted, 32);
        assert_eq!(outcome.finalized_clients, 4);
        assert_eq!(outcome.duplicates_discarded, 0);
        assert!(buffer.is_reception_over());
        assert_eq!(buffer.len(), 32);
        // Both shards actually received data (the stable hash spreads the
        // four simulations over the two shards).
        let spread: std::collections::HashSet<usize> =
            (0..4u64).map(|sim| stable_shard(sim, 2)).collect();
        for shard in spread {
            assert!(buffer.shard_len(shard) > 0, "shard {shard} stayed empty");
        }
    }

    #[test]
    fn sharded_rank_deduplicates_replays_per_shard() {
        let fabric = Fabric::new(FabricConfig {
            shards_per_rank: 2,
            ..FabricConfig::default()
        });
        let buffer = fifo_buffer(2);
        let handle = run_aggregator(
            &fabric,
            Arc::clone(&buffer),
            2,
            Arc::new(AtomicBool::new(false)),
        );

        for sim in 0..2u64 {
            let client = fabric.connect_client(sim);
            for step in 0..6 {
                client.send(payload(sim, step)).unwrap();
            }
            // Restart and replay everything; the shard's own log discards it.
            client.resume_from_sequence(0);
            for step in 0..6 {
                client.send(payload(sim, step)).unwrap();
            }
            client.finalize().unwrap();
        }

        let outcome = handle.join().unwrap();
        assert_eq!(outcome.accepted, 12);
        assert_eq!(outcome.duplicates_discarded, 12);
        assert_eq!(buffer.len(), 12);
    }
}
