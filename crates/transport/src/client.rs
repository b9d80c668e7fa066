//! The client-side instrumentation API.
//!
//! The paper exposes a minimalist API for C, Fortran and Python to instrument
//! the simulation code: one call to connect to the server
//! (`init_communication`), one `send` per computed time step, and one
//! `finalize_communication` to signal that no more data will be sent. Here
//! they are [`Fabric::connect_client`](crate::Fabric::connect_client),
//! [`ClientConnection::send`] and [`ClientConnection::finalize`]; the
//! round-robin dispatch across server ranks and the client-id-dependent
//! starting rank of §3.2.2 happen inside [`ClientConnection::send`].

use crate::fabric::{record_send, stable_shard};
use crate::fault::{Delivery, FaultInjector};
use crate::message::{Message, SamplePayload};
use crate::stats::StatsCell;
use crossbeam::channel::Sender;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;

/// Error returned when the server side of a connection has gone away.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SendError;

impl std::fmt::Display for SendError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "the server endpoints have been dropped")
    }
}

impl std::error::Error for SendError {}

/// An open connection from one client to every rank of the training server.
///
/// Ranks are addressed round-robin (§3.2.2); within a rank, time-step
/// messages go to the ingest shard selected by the stable hash of their
/// simulation id ([`stable_shard`]), so per-simulation arrival order is
/// preserved on that shard's channel.
pub struct ClientConnection {
    client_id: u64,
    /// Send sides, indexed `[rank][shard]`.
    senders: Vec<Vec<Sender<Message>>>,
    /// Index of the rank that receives the next time step.
    next_rank: AtomicUsize,
    /// Per-client monotonically increasing sequence number.
    next_sequence: AtomicU64,
    injector: Arc<FaultInjector>,
    stats: Arc<StatsCell>,
}

impl ClientConnection {
    pub(crate) fn new(
        client_id: u64,
        senders: Vec<Vec<Sender<Message>>>,
        injector: Arc<FaultInjector>,
        stats: Arc<StatsCell>,
    ) -> Self {
        // "The destination of the first time step is chosen according to the
        // client id to limit having all clients sending the same time step to
        // the same GPU." (§3.2.2)
        let start = (client_id as usize) % senders.len();
        Self {
            client_id,
            senders,
            next_rank: AtomicUsize::new(start),
            next_sequence: AtomicU64::new(0),
            injector,
            stats,
        }
    }

    /// Ingest shards per rank on this connection.
    fn shards_per_rank(&self) -> usize {
        self.senders[0].len()
    }

    /// The identifier of this client.
    pub fn client_id(&self) -> u64 {
        self.client_id
    }

    /// Number of server ranks this client is connected to.
    pub fn num_server_ranks(&self) -> usize {
        self.senders.len()
    }

    /// Number of time-step messages sent so far (including dropped ones).
    pub fn sent_messages(&self) -> u64 {
        // ordering: Relaxed — monitoring read of a monotonic counter; no other data hangs off it
        self.next_sequence.load(Ordering::Relaxed)
    }

    /// Restores the sequence counter after a client restart so replayed steps
    /// keep their original sequence numbers (the server dedups them).
    pub fn resume_from_sequence(&self, sequence: u64) {
        // ordering: Relaxed — restart-time store before any sender thread runs; the channel handoff orders it
        self.next_sequence.store(sequence, Ordering::Relaxed);
    }

    /// Streams one computed time step to the next server rank (round-robin),
    /// onto the ingest shard its simulation id hashes to. Blocks when the
    /// destination shard's channel is full (backpressure), just like the
    /// paper's clients stall when the server cannot keep up.
    pub fn send(&self, payload: SamplePayload) -> Result<(), SendError> {
        // ordering: Relaxed — the RMW itself hands out unique values; the sequence travels inside the message, so the channel orders it
        let sequence = self.next_sequence.fetch_add(1, Ordering::Relaxed);
        // ordering: Relaxed — round-robin cursor; only uniqueness matters, not ordering against other memory
        let rank = self.next_rank.fetch_add(1, Ordering::Relaxed) % self.senders.len();
        let shard = stable_shard(payload.simulation_id, self.shards_per_rank());
        let message = Message::TimeStep {
            client_id: self.client_id,
            sequence,
            payload,
        };
        let bytes = message.wire_bytes();
        let delivery = self.injector.decide(self.client_id, sequence);
        record_send(&self.stats, bytes, delivery);
        let sender = &self.senders[rank][shard];
        match delivery {
            Delivery::Drop => Ok(()),
            Delivery::Deliver => sender.send(message).map_err(|_| SendError),
            Delivery::Duplicate => {
                sender.send(message.clone()).map_err(|_| SendError)?;
                sender.send(message).map_err(|_| SendError)
            }
        }
    }

    /// Signals every server rank that this client will send no more data. The
    /// finalize lands on the client's home shard of each rank (the shard its
    /// own simulation id hashes to), so it queues behind the client's last
    /// time-step messages there.
    pub fn finalize(&self) -> Result<(), SendError> {
        let sent = self.sent_messages();
        let shard = stable_shard(self.client_id, self.shards_per_rank());
        for rank_senders in &self.senders {
            rank_senders[shard]
                .send(Message::Finalize {
                    client_id: self.client_id,
                    sent_messages: sent,
                })
                .map_err(|_| SendError)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fabric::{Fabric, FabricConfig};
    use crate::message::Message;

    fn payload(step: usize) -> SamplePayload {
        SamplePayload {
            simulation_id: 3,
            step,
            time: 0.01 * step as f64,
            parameters: vec![1.0; 5],
            values: vec![0.5; 4],
        }
    }

    #[test]
    fn sequence_numbers_increase_monotonically() {
        let fabric = Fabric::new(FabricConfig {
            num_server_ranks: 2,
            channel_capacity: 64,
            ..FabricConfig::default()
        });
        let endpoints = fabric.server_endpoints();
        let client = fabric.connect_client(0);
        for step in 0..10 {
            client.send(payload(step)).unwrap();
        }
        assert_eq!(client.sent_messages(), 10);
        let mut sequences = Vec::new();
        for ep in &endpoints {
            while let Some(Message::TimeStep { sequence, .. }) = ep.try_recv() {
                sequences.push(sequence);
            }
        }
        sequences.sort_unstable();
        assert_eq!(sequences, (0..10).collect::<Vec<u64>>());
    }

    #[test]
    fn resume_from_sequence_replays_old_numbers() {
        let fabric = Fabric::new(FabricConfig::default());
        let client = fabric.connect_client(1);
        for step in 0..5 {
            client.send(payload(step)).unwrap();
        }
        // Simulated restart from the last checkpoint at step 2.
        client.resume_from_sequence(2);
        client.send(payload(2)).unwrap();
        assert_eq!(client.sent_messages(), 3);
    }

    #[test]
    fn finalize_reaches_every_rank() {
        let fabric = Fabric::new(FabricConfig {
            num_server_ranks: 2,
            channel_capacity: 8,
            ..FabricConfig::default()
        });
        let endpoints = fabric.server_endpoints();
        let client = fabric.connect_client(9);
        client.send(payload(0)).unwrap();
        client.finalize().unwrap();
        let mut finalizes = 0;
        for ep in &endpoints {
            while let Some(msg) = ep.try_recv() {
                if matches!(msg, Message::Finalize { client_id: 9, .. }) {
                    finalizes += 1;
                }
            }
        }
        assert_eq!(finalizes, 2);
    }

    #[test]
    fn send_after_endpoints_dropped_fails() {
        let fabric = Fabric::new(FabricConfig::default());
        let client = fabric.connect_client(0);
        let endpoints = fabric.server_endpoints();
        drop(endpoints);
        drop(fabric);
        assert_eq!(client.send(payload(0)), Err(SendError));
        assert!(client.finalize().is_err());
    }
}
