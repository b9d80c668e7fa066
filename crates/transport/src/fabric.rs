//! The in-process message fabric connecting clients to server ranks.
//!
//! Every client holds one bounded channel to *each* server rank (the paper's
//! clients connect to all the ranks of the server); the channel capacity plays
//! the role of the ZMQ high-water mark and provides backpressure when the
//! server-side aggregator cannot keep up.
//!
//! ## Sharded ranks
//!
//! A rank's inbound path can be split into [`FabricConfig::shards_per_rank`]
//! **ingest shards**: one bounded channel and one lock-free stats cell per
//! shard, each drained by its own aggregator worker thread. Time-step messages are
//! routed to the shard given by [`stable_shard`] over their simulation id, so
//! every message of one simulation lands on the same shard of a rank —
//! per-simulation arrival order is preserved exactly as with one channel.
//! With one shard per rank (the default) the routing degenerates to the
//! single channel of the unsharded design, byte for byte.

use crate::fault::{Delivery, FaultConfig, FaultInjector};
use crate::message::Message;
use crate::stats::{StatsCell, TransportStats};
use crossbeam::channel::{bounded, Receiver, RecvTimeoutError, Sender};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// The shard of one rank that receives messages of `simulation_id`: a stable
/// (splitmix64) hash, so the mapping depends on nothing but the simulation id
/// and the shard count. With `shards == 1` every simulation maps to shard 0.
pub fn stable_shard(simulation_id: u64, shards: usize) -> usize {
    debug_assert!(shards > 0);
    let mut z = simulation_id.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^= z >> 31;
    (z % shards as u64) as usize
}

/// Construction parameters of a [`Fabric`].
#[derive(Debug, Clone, PartialEq)]
pub struct FabricConfig {
    /// Number of server ranks (one aggregator per rank, or one per shard).
    pub num_server_ranks: usize,
    /// Ingest shards per rank: inbound channels (and aggregator workers)
    /// every rank runs. 1 reproduces the single-aggregator design exactly.
    pub shards_per_rank: usize,
    /// Capacity of each shard's inbound channel (the ZMQ high-water mark stand-in).
    pub channel_capacity: usize,
    /// Fault-injection configuration applied to every sent message.
    pub fault: FaultConfig,
}

impl Default for FabricConfig {
    fn default() -> Self {
        Self {
            num_server_ranks: 1,
            shards_per_rank: 1,
            channel_capacity: 1024,
            fault: FaultConfig::none(),
        }
    }
}

/// The shared data plane: holds the per-rank, per-shard channels, the fault
/// injector and the traffic counters.
pub struct Fabric {
    config: FabricConfig,
    /// Send sides, indexed `[rank][shard]`.
    senders: Vec<Vec<Sender<Message>>>,
    /// Receive sides, indexed `[rank][shard]`.
    receivers: Vec<Vec<Receiver<Message>>>,
    injector: Arc<FaultInjector>,
    /// Client-side counters (sends, bytes, drops, duplicates, connections).
    stats: Arc<StatsCell>,
    /// Server-side counters (deliveries, finalizes), one cell per shard so
    /// concurrent shard workers never share a counter cache line by design.
    shard_stats: Vec<Vec<Arc<StatsCell>>>,
}

impl Fabric {
    /// Creates the fabric for the requested number of server ranks.
    ///
    /// # Panics
    /// Panics when the rank count, the shard count or the channel capacity is
    /// zero.
    pub fn new(config: FabricConfig) -> Self {
        assert!(config.num_server_ranks > 0, "need at least one server rank");
        assert!(
            config.shards_per_rank > 0,
            "need at least one ingest shard per rank"
        );
        assert!(
            config.channel_capacity > 0,
            "channel capacity must be positive"
        );
        let mut senders = Vec::with_capacity(config.num_server_ranks);
        let mut receivers = Vec::with_capacity(config.num_server_ranks);
        let mut shard_stats = Vec::with_capacity(config.num_server_ranks);
        for _ in 0..config.num_server_ranks {
            let mut rank_tx = Vec::with_capacity(config.shards_per_rank);
            let mut rank_rx = Vec::with_capacity(config.shards_per_rank);
            let mut rank_stats = Vec::with_capacity(config.shards_per_rank);
            for _ in 0..config.shards_per_rank {
                let (tx, rx) = bounded(config.channel_capacity);
                rank_tx.push(tx);
                rank_rx.push(rx);
                rank_stats.push(Arc::new(StatsCell::default()));
            }
            senders.push(rank_tx);
            receivers.push(rank_rx);
            shard_stats.push(rank_stats);
        }
        let injector = Arc::new(FaultInjector::new(config.fault.clone()));
        Self {
            config,
            senders,
            receivers,
            injector,
            stats: Arc::new(StatsCell::default()),
            shard_stats,
        }
    }

    /// The fabric configuration.
    pub fn config(&self) -> &FabricConfig {
        &self.config
    }

    /// Number of server ranks.
    pub fn num_server_ranks(&self) -> usize {
        self.config.num_server_ranks
    }

    /// Ingest shards per rank.
    pub fn shards_per_rank(&self) -> usize {
        self.config.shards_per_rank
    }

    /// Builds the per-rank receive endpoints polled by the aggregator threads
    /// of an **unsharded** fabric (one endpoint per rank).
    ///
    /// # Panics
    /// Panics when the fabric is sharded — use
    /// [`Fabric::rank_shard_endpoints`] there, which exposes every shard.
    pub fn server_endpoints(&self) -> Vec<ServerEndpoint> {
        assert_eq!(
            self.config.shards_per_rank, 1,
            "server_endpoints() addresses one endpoint per rank; \
             a sharded fabric must use rank_shard_endpoints()"
        );
        self.rank_shard_endpoints()
            .into_iter()
            .map(|mut shards| shards.remove(0))
            .collect()
    }

    /// Builds every receive endpoint, indexed `[rank][shard]` — one per
    /// aggregator shard worker.
    pub fn rank_shard_endpoints(&self) -> Vec<Vec<ServerEndpoint>> {
        self.receivers
            .iter()
            .enumerate()
            .map(|(rank, rank_rx)| {
                rank_rx
                    .iter()
                    .enumerate()
                    .map(|(shard, receiver)| ServerEndpoint {
                        rank,
                        shard,
                        receiver: receiver.clone(),
                        stats: Arc::clone(&self.shard_stats[rank][shard]),
                        stall: self.config.fault.plan.shard_stall(rank, shard).map(
                            |(after_messages, stall)| ShardStallState {
                                after_messages,
                                stall,
                                drained: AtomicUsize::new(0),
                                fired: AtomicBool::new(false),
                            },
                        ),
                    })
                    .collect()
            })
            .collect()
    }

    /// Opens a connection for a client; the returned handle owns one sender
    /// per server shard and performs the round-robin rank dispatch of §3.2.2
    /// plus the stable shard routing within each rank.
    pub fn connect_client(&self, client_id: u64) -> crate::client::ClientConnection {
        // ordering: Relaxed — monitoring counter; connection setup itself synchronises via the channel clones below
        self.stats.connections.fetch_add(1, Ordering::Relaxed);
        crate::client::ClientConnection::new(
            client_id,
            self.senders.clone(),
            Arc::clone(&self.injector),
            Arc::clone(&self.stats),
        )
    }

    /// A snapshot of the traffic counters: the client-side cell plus the
    /// delivery counters of every shard.
    pub fn stats(&self) -> TransportStats {
        let mut snapshot = self.stats.snapshot();
        for rank_stats in &self.shard_stats {
            for cell in rank_stats {
                let shard = cell.snapshot();
                snapshot.messages_delivered += shard.messages_delivered;
                snapshot.finalized_clients += shard.finalized_clients;
            }
        }
        snapshot
    }
}

/// A scripted one-shot stall of one shard's drain path (see
/// [`crate::fault::FaultEvent::ShardStall`]).
struct ShardStallState {
    after_messages: usize,
    stall: Duration,
    drained: AtomicUsize,
    fired: AtomicBool,
}

/// The receive side of one shard of one server rank, polled by a
/// data-aggregator (shard) thread. Owns the shard's stats cell, so
/// concurrent shard workers account their traffic without sharing counters.
pub struct ServerEndpoint {
    rank: usize,
    shard: usize,
    receiver: Receiver<Message>,
    stats: Arc<StatsCell>,
    /// Scripted stall of this shard's drain path, if the fault plan names it.
    stall: Option<ShardStallState>,
}

impl ServerEndpoint {
    /// The rank this endpoint belongs to.
    pub fn rank(&self) -> usize {
        self.rank
    }

    /// The ingest shard within the rank.
    pub fn shard(&self) -> usize {
        self.shard
    }

    /// Non-blocking receive.
    pub fn try_recv(&self) -> Option<Message> {
        match self.receiver.try_recv() {
            Ok(msg) => {
                self.account(&msg);
                self.maybe_stall(1);
                Some(msg)
            }
            Err(_) => None,
        }
    }

    /// Non-blocking batched receive: drains up to `max` queued messages into
    /// `out` (appended) under a single channel lock, with a single sender
    /// wake-up and a single traffic-counter update for the whole burst —
    /// the aggregator's steady-state drain path. Returns the number of
    /// messages moved.
    pub fn try_recv_many(&self, out: &mut Vec<Message>, max: usize) -> usize {
        let before = out.len();
        // analysis: allow(blocking, reason = "recv_many drains only already-queued messages — non-blocking by the channel contract")
        let moved = self.receiver.recv_many(out, max);
        if moved == 0 {
            return 0;
        }
        let mut delivered = 0usize;
        let mut finalized = 0usize;
        for msg in &out[before..] {
            match msg {
                Message::TimeStep { .. } => delivered += 1,
                Message::Finalize { .. } => finalized += 1,
            }
        }
        self.stats
            .messages_delivered
            // ordering: Relaxed — monitoring counters; the drained messages were already handed over by the channel
            .fetch_add(delivered, Ordering::Relaxed);
        self.stats
            .finalized_clients
            // ordering: Relaxed — monitoring counters; the drained messages were already handed over by the channel
            .fetch_add(finalized, Ordering::Relaxed);
        self.maybe_stall(moved);
        moved
    }

    /// Blocking receive with a timeout; `None` on timeout or when every sender
    /// side has been dropped.
    pub fn recv_timeout(&self, timeout: Duration) -> Option<Message> {
        // analysis: allow(blocking, reason = "timed blocking receive is this method's documented contract; hot callers bound the timeout")
        match self.receiver.recv_timeout(timeout) {
            Ok(msg) => {
                self.account(&msg);
                self.maybe_stall(1);
                Some(msg)
            }
            Err(RecvTimeoutError::Timeout) | Err(RecvTimeoutError::Disconnected) => None,
        }
    }

    /// Fires a scripted one-shot stall once this shard has drained enough
    /// messages (see [`crate::fault::FaultEvent::ShardStall`]). A no-op on
    /// un-scripted shards: one `Option` check on the drain path.
    fn maybe_stall(&self, drained_now: usize) {
        let Some(state) = &self.stall else {
            return;
        };
        // ordering: Relaxed — the counter and flag are only read/written by this shard's single drain thread; atomics are for the &self API, not cross-thread ordering
        let total = state.drained.fetch_add(drained_now, Ordering::Relaxed) + drained_now;
        // ordering: Relaxed — see above; single-threaded per endpoint by design
        if total >= state.after_messages && !state.fired.swap(true, Ordering::Relaxed) {
            // analysis: allow(blocking, reason = "scripted shard-stall fault injection; fires at most once per run, and only when a chaos plan names this shard")
            std::thread::sleep(state.stall);
        }
    }

    /// Number of messages currently queued for this shard.
    pub fn queued(&self) -> usize {
        self.receiver.len()
    }

    fn account(&self, msg: &Message) {
        match msg {
            Message::TimeStep { .. } => {
                self.stats
                    .messages_delivered
                    // ordering: Relaxed — monitoring counter trailing a channel recv that already ordered the message
                    .fetch_add(1, Ordering::Relaxed);
            }
            Message::Finalize { .. } => {
                // ordering: Relaxed — monitoring counter trailing a channel recv that already ordered the message
                self.stats.finalized_clients.fetch_add(1, Ordering::Relaxed);
            }
        }
    }
}

/// Internal hook used by [`crate::client::ClientConnection`] to record a send
/// — lock-free, so concurrent clients never contend on the counters.
pub(crate) fn record_send(stats: &StatsCell, bytes: usize, delivery: Delivery) {
    // ordering: Relaxed for all four counters — independent monotonic tallies read after quiescence; contention, not ordering, is the design constraint here
    stats.messages_sent.fetch_add(1, Ordering::Relaxed);
    stats.bytes_sent.fetch_add(bytes as u64, Ordering::Relaxed);
    match delivery {
        Delivery::Drop => {
            // ordering: Relaxed — see record_send header comment
            stats.messages_dropped.fetch_add(1, Ordering::Relaxed);
        }
        Delivery::Duplicate => {
            // ordering: Relaxed — see record_send header comment
            stats.messages_duplicated.fetch_add(1, Ordering::Relaxed);
        }
        Delivery::Deliver => {}
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::message::SamplePayload;

    fn payload(step: usize) -> SamplePayload {
        SamplePayload {
            simulation_id: 1,
            step,
            time: step as f64 * 0.01,
            parameters: vec![300.0; 5],
            values: vec![0.0; 8],
        }
    }

    fn sim_payload(simulation_id: u64, step: usize) -> SamplePayload {
        SamplePayload {
            simulation_id,
            ..payload(step)
        }
    }

    #[test]
    fn round_robin_balances_ranks() {
        let fabric = Fabric::new(FabricConfig {
            num_server_ranks: 4,
            channel_capacity: 128,
            ..FabricConfig::default()
        });
        let endpoints = fabric.server_endpoints();
        let client = fabric.connect_client(0);
        for step in 0..40 {
            client.send(payload(step)).unwrap();
        }
        let counts: Vec<usize> = endpoints.iter().map(|e| e.queued()).collect();
        assert_eq!(counts.iter().sum::<usize>(), 40);
        for &c in &counts {
            assert_eq!(c, 10, "round-robin must balance exactly: {counts:?}");
        }
    }

    #[test]
    fn client_id_offsets_first_destination() {
        let fabric = Fabric::new(FabricConfig {
            num_server_ranks: 3,
            channel_capacity: 8,
            ..FabricConfig::default()
        });
        let endpoints = fabric.server_endpoints();
        // Client 1 starts at rank 1, client 2 at rank 2 (client_id mod ranks).
        let c1 = fabric.connect_client(1);
        c1.send(payload(0)).unwrap();
        let c2 = fabric.connect_client(2);
        c2.send(payload(0)).unwrap();
        assert_eq!(endpoints[0].queued(), 0);
        assert_eq!(endpoints[1].queued(), 1);
        assert_eq!(endpoints[2].queued(), 1);
    }

    #[test]
    fn finalize_reaches_every_rank() {
        let fabric = Fabric::new(FabricConfig {
            num_server_ranks: 3,
            channel_capacity: 8,
            ..FabricConfig::default()
        });
        let endpoints = fabric.server_endpoints();
        let client = fabric.connect_client(5);
        client.finalize().unwrap();
        for ep in &endpoints {
            let msg = ep.try_recv().expect("finalize delivered");
            assert!(matches!(msg, Message::Finalize { client_id: 5, .. }));
        }
        assert_eq!(fabric.stats().finalized_clients, 3);
    }

    #[test]
    fn dropped_messages_never_arrive() {
        let fabric = Fabric::new(FabricConfig {
            num_server_ranks: 1,
            channel_capacity: 256,
            fault: FaultConfig {
                drop_probability: 1.0,
                ..FaultConfig::default()
            },
            ..FabricConfig::default()
        });
        let endpoints = fabric.server_endpoints();
        let client = fabric.connect_client(0);
        for step in 0..10 {
            client.send(payload(step)).unwrap();
        }
        assert!(endpoints[0].try_recv().is_none());
        let stats = fabric.stats();
        assert_eq!(stats.messages_sent, 10);
        assert_eq!(stats.messages_dropped, 10);
        assert_eq!(stats.messages_delivered, 0);
    }

    #[test]
    fn duplicated_messages_arrive_twice() {
        let fabric = Fabric::new(FabricConfig {
            num_server_ranks: 1,
            channel_capacity: 256,
            fault: FaultConfig {
                duplicate_probability: 1.0,
                ..FaultConfig::default()
            },
            ..FabricConfig::default()
        });
        let endpoints = fabric.server_endpoints();
        let client = fabric.connect_client(0);
        client.send(payload(0)).unwrap();
        assert!(endpoints[0].try_recv().is_some());
        assert!(endpoints[0].try_recv().is_some());
        assert!(endpoints[0].try_recv().is_none());
    }

    #[test]
    fn stats_count_bytes() {
        let fabric = Fabric::new(FabricConfig::default());
        let client = fabric.connect_client(0);
        client.send(payload(0)).unwrap();
        let stats = fabric.stats();
        assert!(stats.bytes_sent > 0);
        assert_eq!(stats.connections, 1);
    }

    #[test]
    fn try_recv_many_drains_in_order_with_batched_accounting() {
        let fabric = Fabric::new(FabricConfig::default());
        let endpoints = fabric.server_endpoints();
        let client = fabric.connect_client(0);
        for step in 0..7 {
            client.send(payload(step)).unwrap();
        }
        client.finalize().unwrap();
        let mut out = Vec::new();
        assert_eq!(endpoints[0].try_recv_many(&mut out, 5), 5);
        assert_eq!(
            endpoints[0].try_recv_many(&mut out, 64),
            3,
            "2 steps + finalize"
        );
        assert_eq!(endpoints[0].try_recv_many(&mut out, 64), 0);
        let steps: Vec<usize> = out
            .iter()
            .filter_map(|m| match m {
                Message::TimeStep { payload, .. } => Some(payload.step),
                _ => None,
            })
            .collect();
        assert_eq!(steps, (0..7).collect::<Vec<_>>());
        let stats = fabric.stats();
        assert_eq!(stats.messages_delivered, 7);
        assert_eq!(stats.finalized_clients, 1);
    }

    #[test]
    fn recv_timeout_returns_none_when_idle() {
        let fabric = Fabric::new(FabricConfig::default());
        let endpoints = fabric.server_endpoints();
        let start = std::time::Instant::now();
        assert!(endpoints[0]
            .recv_timeout(Duration::from_millis(20))
            .is_none());
        assert!(start.elapsed() >= Duration::from_millis(15));
    }

    #[test]
    #[should_panic(expected = "at least one server rank")]
    fn zero_ranks_rejected() {
        let _ = Fabric::new(FabricConfig {
            num_server_ranks: 0,
            ..FabricConfig::default()
        });
    }

    #[test]
    #[should_panic(expected = "at least one ingest shard")]
    fn zero_shards_rejected() {
        let _ = Fabric::new(FabricConfig {
            shards_per_rank: 0,
            ..FabricConfig::default()
        });
    }

    #[test]
    fn stable_shard_is_deterministic_and_in_range() {
        for shards in [1usize, 2, 3, 4, 8] {
            for sim in 0..64u64 {
                let shard = stable_shard(sim, shards);
                assert!(shard < shards);
                assert_eq!(shard, stable_shard(sim, shards), "stable");
            }
        }
        // One shard: everything maps to shard 0.
        assert!((0..100).all(|sim| stable_shard(sim, 1) == 0));
        // The hash actually spreads simulations across shards.
        let hit: std::collections::HashSet<usize> =
            (0..32).map(|sim| stable_shard(sim, 4)).collect();
        assert_eq!(hit.len(), 4, "all four shards are used");
    }

    #[test]
    fn sharded_fabric_preserves_per_simulation_order_within_one_shard() {
        let fabric = Fabric::new(FabricConfig {
            num_server_ranks: 1,
            shards_per_rank: 4,
            channel_capacity: 256,
            ..FabricConfig::default()
        });
        let endpoints = fabric.rank_shard_endpoints();
        assert_eq!(endpoints.len(), 1);
        assert_eq!(endpoints[0].len(), 4);
        // Two simulations interleave their sends; each must land wholly on
        // its own stable shard, in send order.
        let c0 = fabric.connect_client(0);
        let c1 = fabric.connect_client(1);
        for step in 0..12 {
            c0.send(sim_payload(0, step)).unwrap();
            c1.send(sim_payload(1, step)).unwrap();
        }
        for sim in 0..2u64 {
            let shard = stable_shard(sim, 4);
            let ep = &endpoints[0][shard];
            let mut steps = Vec::new();
            let mut out = Vec::new();
            ep.try_recv_many(&mut out, 256);
            for msg in &out {
                if let Message::TimeStep { payload, .. } = msg {
                    if payload.simulation_id == sim {
                        steps.push(payload.step);
                    }
                }
            }
            assert_eq!(steps, (0..12).collect::<Vec<_>>(), "sim {sim}");
        }
    }

    #[test]
    fn sharded_finalize_lands_on_the_clients_shard_of_every_rank() {
        let fabric = Fabric::new(FabricConfig {
            num_server_ranks: 2,
            shards_per_rank: 3,
            channel_capacity: 16,
            ..FabricConfig::default()
        });
        let endpoints = fabric.rank_shard_endpoints();
        let client = fabric.connect_client(7);
        client.finalize().unwrap();
        let home = stable_shard(7, 3);
        for rank_eps in &endpoints {
            for (shard, ep) in rank_eps.iter().enumerate() {
                if shard == home {
                    assert!(matches!(
                        ep.try_recv(),
                        Some(Message::Finalize { client_id: 7, .. })
                    ));
                } else {
                    assert!(ep.try_recv().is_none(), "finalize only on the home shard");
                }
            }
        }
        assert_eq!(fabric.stats().finalized_clients, 2);
    }

    #[test]
    fn sharded_stats_aggregate_across_shard_cells() {
        let fabric = Fabric::new(FabricConfig {
            num_server_ranks: 1,
            shards_per_rank: 2,
            channel_capacity: 64,
            ..FabricConfig::default()
        });
        let endpoints = fabric.rank_shard_endpoints();
        for sim in 0..4u64 {
            let client = fabric.connect_client(sim);
            for step in 0..5 {
                client.send(sim_payload(sim, step)).unwrap();
            }
        }
        let mut out = Vec::new();
        for ep in &endpoints[0] {
            ep.try_recv_many(&mut out, 64);
        }
        let stats = fabric.stats();
        assert_eq!(stats.messages_sent, 20);
        assert_eq!(stats.messages_delivered, 20);
        assert_eq!(stats.connections, 4);
    }

    #[test]
    fn scripted_shard_stall_fires_once_after_threshold() {
        use crate::fault::FaultPlan;
        let fabric = Fabric::new(FabricConfig {
            num_server_ranks: 1,
            channel_capacity: 64,
            fault: FaultConfig {
                plan: FaultPlan::none().with_shard_stall(0, 0, 3, Duration::from_millis(30)),
                ..FaultConfig::default()
            },
            ..FabricConfig::default()
        });
        let endpoints = fabric.server_endpoints();
        let client = fabric.connect_client(0);
        for step in 0..6 {
            client.send(payload(step)).unwrap();
        }
        // First two drains stay under the threshold: fast.
        let fast = std::time::Instant::now();
        assert!(endpoints[0].try_recv().is_some());
        assert!(endpoints[0].try_recv().is_some());
        assert!(fast.elapsed() < Duration::from_millis(25));
        // The third drained message crosses the threshold and stalls once.
        let slow = std::time::Instant::now();
        assert!(endpoints[0].try_recv().is_some());
        assert!(slow.elapsed() >= Duration::from_millis(25), "stall fires");
        // Subsequent drains are fast again — the stall is one-shot.
        let after = std::time::Instant::now();
        let mut out = Vec::new();
        assert_eq!(endpoints[0].try_recv_many(&mut out, 16), 3);
        assert!(after.elapsed() < Duration::from_millis(25));
    }

    #[test]
    #[should_panic(expected = "rank_shard_endpoints")]
    fn server_endpoints_rejects_a_sharded_fabric() {
        let fabric = Fabric::new(FabricConfig {
            shards_per_rank: 2,
            ..FabricConfig::default()
        });
        let _ = fabric.server_endpoints();
    }
}
