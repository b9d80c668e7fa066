//! Transport-level instrumentation counters.

use serde::Serialize;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};

/// Counters describing the traffic that went through a fabric.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize)]
pub struct TransportStats {
    /// Time-step messages sent by clients.
    pub messages_sent: usize,
    /// Time-step messages delivered to server endpoints.
    pub messages_delivered: usize,
    /// Messages dropped by the fault injector.
    pub messages_dropped: usize,
    /// Messages duplicated by the fault injector.
    pub messages_duplicated: usize,
    /// Total payload bytes sent by clients (the paper's "dataset size").
    pub bytes_sent: u64,
    /// Number of client connections opened.
    pub connections: usize,
    /// Number of finalize messages received.
    pub finalized_clients: usize,
}

/// The fabric's live traffic accumulator: every counter is a relaxed atomic,
/// so the per-message send/receive accounting is lock-free — clients and
/// endpoints never contend on a stats mutex in the hot path. Snapshots
/// materialise the plain [`TransportStats`] POD.
#[derive(Debug, Default)]
pub(crate) struct StatsCell {
    pub messages_sent: AtomicUsize,
    pub messages_delivered: AtomicUsize,
    pub messages_dropped: AtomicUsize,
    pub messages_duplicated: AtomicUsize,
    pub bytes_sent: AtomicU64,
    pub connections: AtomicUsize,
    pub finalized_clients: AtomicUsize,
}

impl StatsCell {
    /// A coherent-enough snapshot of the counters (relaxed loads; exact once
    /// the traffic has quiesced, which is when reports read it).
    pub fn snapshot(&self) -> TransportStats {
        TransportStats {
            // ordering: Relaxed for the whole snapshot — monotonic counters with no cross-field invariant; reports read them after traffic quiesces
            messages_sent: self.messages_sent.load(Ordering::Relaxed),
            messages_delivered: self.messages_delivered.load(Ordering::Relaxed),
            messages_dropped: self.messages_dropped.load(Ordering::Relaxed),
            messages_duplicated: self.messages_duplicated.load(Ordering::Relaxed),
            bytes_sent: self.bytes_sent.load(Ordering::Relaxed),
            connections: self.connections.load(Ordering::Relaxed),
            finalized_clients: self.finalized_clients.load(Ordering::Relaxed),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stats_cell_snapshot_materialises_counters() {
        let cell = StatsCell::default();
        // ordering: Relaxed — single-threaded test; any ordering observes its own writes
        cell.messages_sent.fetch_add(3, Ordering::Relaxed);
        cell.bytes_sent.fetch_add(1024, Ordering::Relaxed);
        cell.finalized_clients.fetch_add(1, Ordering::Relaxed);
        let snap = cell.snapshot();
        assert_eq!(snap.messages_sent, 3);
        assert_eq!(snap.bytes_sent, 1024);
        assert_eq!(snap.finalized_clients, 1);
        assert_eq!(snap.messages_dropped, 0);
    }
}
