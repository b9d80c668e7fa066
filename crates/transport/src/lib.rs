//! # melissa-transport
//!
//! The client/server data plane of the Melissa reproduction: the paper streams
//! every computed time step from the simulation clients to the training server
//! through direct memory-to-memory ZMQ connections, with each client connected
//! to *all* server ranks and distributing its time steps round-robin so the
//! data-parallel learners stay balanced (§3.2.2). Clients may fail and restart;
//! the server keeps a log of received messages per client so replayed messages
//! are discarded (§3.1).
//!
//! This crate replaces the network with an in-process message fabric built on
//! bounded crossbeam channels:
//!
//! * [`Fabric`] — creates the server-side endpoints (one per ingest shard of
//!   each server rank; one shard per rank by default) and hands out client
//!   connections. Channel capacity bounds play the role of the ZMQ high-water
//!   mark and provide backpressure. Time steps are routed to a rank
//!   round-robin and, within the rank, to the shard given by [`stable_shard`]
//!   over their simulation id, so per-simulation order is preserved.
//! * [`ClientConnection`] — one client's side of the paper's three-call
//!   instrumentation API (`send`, `finalize`; the connection itself comes from
//!   [`Fabric::connect_client`]), including the round-robin dispatch with a
//!   client-id-dependent starting rank.
//! * [`ServerEndpoint`] — the per-rank receive side polled by the data
//!   aggregator thread.
//! * [`MessageLog`] — per-client sequence tracking used to discard duplicate
//!   messages after a client restart.
//! * [`FaultInjector`] — drops or duplicates messages to exercise the
//!   fault-tolerance paths in tests and experiments.
//! * [`TransportStats`] — traffic counters. Transferred volume is
//!   [`Message::wire_bytes`] per send, so the harness accounts for it the way
//!   the paper reports dataset sizes.
//! * [`Checksum64`]/[`fingerprint64`] — the splitmix64-based streaming
//!   checksum framing durable checkpoints and journals on disk (§3.1's
//!   restart-from-checkpoint protocol made crash-safe).

pub mod checksum;
pub mod client;
pub mod dedup;
pub mod fabric;
pub mod fault;
pub mod message;
pub mod stats;

pub use checksum::{fingerprint64, Checksum64};
pub use client::ClientConnection;
pub use dedup::MessageLog;
pub use fabric::{stable_shard, Fabric, FabricConfig, ServerEndpoint};
pub use fault::{
    ClientFaultKind, Delivery, FaultConfig, FaultEvent, FaultInjector, FaultPlan,
    ScriptedClientFault,
};
pub use message::{Message, SamplePayload};
pub use stats::TransportStats;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn crate_level_roundtrip() {
        let fabric = Fabric::new(FabricConfig {
            num_server_ranks: 2,
            channel_capacity: 16,
            ..FabricConfig::default()
        });
        let endpoints = fabric.server_endpoints();
        let client = fabric.connect_client(0);
        let payload = SamplePayload {
            simulation_id: 0,
            step: 0,
            time: 0.01,
            parameters: vec![300.0; 5],
            values: vec![1.0, 2.0, 3.0],
        };
        client.send(payload.clone()).unwrap();
        client.finalize().unwrap();
        let mut received = 0;
        for ep in &endpoints {
            while let Some(msg) = ep.try_recv() {
                if let Message::TimeStep { payload: p, .. } = msg {
                    assert_eq!(p.values, payload.values);
                    received += 1;
                }
            }
        }
        assert_eq!(received, 1);
    }
}
