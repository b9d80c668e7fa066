//! Per-client message log used to discard replayed messages.
//!
//! §3.1: *"The server maintains a log of received messages per client, so in
//! case of client restart, already received messages are discarded."* Clients
//! number their time-step messages with a per-client sequence number; the log
//! remembers which sequence numbers have been seen.

use serde::Serialize;
use std::collections::{BTreeSet, HashMap};

/// Per-client record of received sequence numbers.
#[derive(Debug, Clone, Default, Serialize)]
struct ClientLog {
    /// All sequence numbers below this value have been received.
    contiguous_until: u64,
    /// Received sequence numbers at or above `contiguous_until`.
    ahead: BTreeSet<u64>,
    /// Whether the client sent its finalize message.
    finalized: bool,
    /// Whether the client was restored from a checkpoint as fully completed;
    /// every message it replays is a duplicate by definition.
    completed: bool,
}

impl ClientLog {
    fn observe(&mut self, sequence: u64) -> bool {
        if self.completed || sequence < self.contiguous_until || self.ahead.contains(&sequence) {
            return false; // duplicate
        }
        if sequence == self.contiguous_until {
            // Fast path — in-order arrival, the steady state of a healthy
            // client: advance the frontier directly without touching the
            // `ahead` set, keeping the ingestion path allocation-free.
            self.contiguous_until += 1;
        } else {
            self.ahead.insert(sequence);
        }
        // Advance the contiguous frontier over any previously ahead arrivals.
        while self.ahead.remove(&self.contiguous_until) {
            self.contiguous_until += 1;
        }
        true
    }

    fn received_count(&self) -> u64 {
        self.contiguous_until + self.ahead.len() as u64
    }
}

/// Server-side log of received messages, one record per client.
#[derive(Debug, Clone, Default, Serialize)]
pub struct MessageLog {
    clients: HashMap<u64, ClientLog>,
    duplicates_discarded: u64,
}

impl MessageLog {
    /// Creates an empty log.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records a time-step message; returns `true` when the message is new and
    /// `false` when it is a replay that must be discarded.
    pub fn observe(&mut self, client_id: u64, sequence: u64) -> bool {
        let fresh = self.clients.entry(client_id).or_default().observe(sequence);
        if !fresh {
            self.duplicates_discarded += 1;
        }
        fresh
    }

    /// Records that a client finalized.
    pub fn mark_finalized(&mut self, client_id: u64) {
        self.clients.entry(client_id).or_default().finalized = true;
    }

    /// Seeds the log with a client known (from a checkpoint) to have fully
    /// completed before a server restart: every sequence number is treated as
    /// already received and the client as finalized, so any replayed traffic
    /// from a rerun of that simulation is discarded wholesale. §3.1's resume
    /// contract — completed simulations must never be trained twice.
    pub fn mark_completed(&mut self, client_id: u64) {
        let log = self.clients.entry(client_id).or_default();
        log.completed = true;
        log.finalized = true;
    }

    /// True when the client has sent its finalize message.
    pub fn is_finalized(&self, client_id: u64) -> bool {
        self.clients
            .get(&client_id)
            .map(|c| c.finalized)
            .unwrap_or(false)
    }

    /// Number of distinct messages received from a client.
    pub fn received_from(&self, client_id: u64) -> u64 {
        self.clients
            .get(&client_id)
            .map(|c| c.received_count())
            .unwrap_or(0)
    }

    /// Total number of replayed messages discarded so far.
    pub fn duplicates_discarded(&self) -> u64 {
        self.duplicates_discarded
    }

    /// Number of clients that have finalized.
    pub fn finalized_clients(&self) -> usize {
        self.clients.values().filter(|c| c.finalized).count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fresh_messages_are_accepted() {
        let mut log = MessageLog::new();
        assert!(log.observe(1, 0));
        assert!(log.observe(1, 1));
        assert!(log.observe(2, 0));
        assert_eq!(log.received_from(1), 2);
        assert_eq!(log.received_from(2), 1);
        assert_eq!(log.duplicates_discarded(), 0);
    }

    #[test]
    fn replays_are_discarded() {
        let mut log = MessageLog::new();
        for seq in 0..10 {
            assert!(log.observe(7, seq));
        }
        // Client restarts and replays from the beginning.
        for seq in 0..10 {
            assert!(!log.observe(7, seq), "sequence {seq} should be a duplicate");
        }
        assert!(log.observe(7, 10), "new data after the replay is accepted");
        assert_eq!(log.duplicates_discarded(), 10);
        assert_eq!(log.received_from(7), 11);
    }

    #[test]
    fn out_of_order_arrival_is_handled() {
        let mut log = MessageLog::new();
        assert!(log.observe(1, 2));
        assert!(log.observe(1, 0));
        assert!(log.observe(1, 1));
        assert!(!log.observe(1, 2));
        assert_eq!(log.received_from(1), 3);
    }

    #[test]
    fn finalize_tracking() {
        let mut log = MessageLog::new();
        log.observe(1, 0);
        log.observe(2, 0);
        assert!(!log.is_finalized(1));
        log.mark_finalized(1);
        assert!(log.is_finalized(1));
        assert!(!log.is_finalized(2));
        assert_eq!(log.finalized_clients(), 1);
    }

    #[test]
    fn completed_clients_discard_all_replayed_traffic() {
        let mut log = MessageLog::new();
        log.mark_completed(4);
        assert!(log.is_finalized(4));
        for seq in 0..20 {
            assert!(!log.observe(4, seq), "sequence {seq} must be discarded");
        }
        assert_eq!(log.duplicates_discarded(), 20);
        // Other clients are unaffected.
        assert!(log.observe(5, 0));
    }

    #[test]
    fn unknown_client_reports_zero() {
        let log = MessageLog::new();
        assert_eq!(log.received_from(99), 0);
        assert!(!log.is_finalized(99));
    }
}
