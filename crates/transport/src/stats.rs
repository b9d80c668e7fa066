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

impl TransportStats {
    /// Dataset size in gigabytes (10⁹ bytes), as the paper reports it.
    pub fn gigabytes_sent(&self) -> f64 {
        self.bytes_sent as f64 / 1e9
    }

    /// Fraction of sent messages that were dropped.
    pub fn drop_fraction(&self) -> f64 {
        if self.messages_sent == 0 {
            0.0
        } else {
            self.messages_dropped as f64 / self.messages_sent as f64
        }
    }
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

    #[test]
    fn gigabyte_conversion() {
        let stats = TransportStats {
            bytes_sent: 2_500_000_000,
            ..TransportStats::default()
        };
        assert!((stats.gigabytes_sent() - 2.5).abs() < 1e-9);
    }

    #[test]
    fn drop_fraction_handles_zero() {
        assert_eq!(TransportStats::default().drop_fraction(), 0.0);
        let stats = TransportStats {
            messages_sent: 10,
            messages_dropped: 2,
            ..TransportStats::default()
        };
        assert!((stats.drop_fraction() - 0.2).abs() < 1e-12);
    }
}
