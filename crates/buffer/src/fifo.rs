//! First-In-First-Out training buffer: the pure streaming baseline.
//!
//! Data are batched for training in the order they are received; each sample is
//! seen once and only once. Compared to pure streaming, the bounded queue gives
//! the consumer some slack when production briefly stops, and production is
//! suspended when the buffer is full (§3.2.3). A served sample leaves the
//! population at once and is retired: the ingest side frees it (see
//! [`crate::shell`]).

use crate::shell::{Policy, Shell};
use crate::traits::BufferKind;
use std::collections::VecDeque;

/// FIFO storage: a queue served from the front.
pub struct Fifo<T>(VecDeque<T>);

/// Bounded FIFO queue with blocking producer and consumer sides.
pub type FifoBuffer<T> = Shell<T, Fifo<T>>;

impl<T> FifoBuffer<T> {
    /// Creates a FIFO buffer with the given capacity.
    ///
    /// # Panics
    /// Panics when the capacity is zero.
    pub fn new(capacity: usize) -> Self {
        // No serving threshold: FIFO serves whatever is stored.
        Shell::with_policy(Fifo(VecDeque::with_capacity(capacity)), capacity, 0)
    }
}

impl<T: Send> Policy<T> for Fifo<T> {
    const KIND: BufferKind = BufferKind::Fifo;

    fn len(&self) -> usize {
        self.0.len()
    }

    // analysis: hot_path
    fn insert(&mut self, item: T, _capacity: usize) -> Option<T> {
        self.0.push_back(item);
        None
    }

    // analysis: hot_path
    fn serve(
        &mut self,
        _draining: bool,
        _nth: usize,
        visit: &mut dyn FnMut(&T),
        retired: &mut Vec<T>,
    ) -> bool {
        if let Some(item) = self.0.pop_front() {
            visit(&item);
            retired.push(item);
        }
        false
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::traits::TrainingBuffer;
    use std::sync::Arc;
    use std::time::Duration;

    #[test]
    fn serves_in_arrival_order() {
        let buffer = FifoBuffer::new(16);
        for k in 0..10u32 {
            buffer.put(k);
        }
        buffer.mark_reception_over();
        let mut out = Vec::new();
        while let Some(v) = buffer.get() {
            out.push(v);
        }
        assert_eq!(out, (0..10).collect::<Vec<_>>());
    }

    #[test]
    fn each_sample_is_served_exactly_once() {
        let buffer = FifoBuffer::new(4);
        let producer_buffer = Arc::new(buffer);
        let consumer_buffer = Arc::clone(&producer_buffer);
        let consumer = std::thread::spawn(move || {
            let mut seen = Vec::new();
            while let Some(v) = consumer_buffer.get() {
                seen.push(v);
            }
            seen
        });
        for k in 0..100u32 {
            producer_buffer.put(k);
        }
        producer_buffer.mark_reception_over();
        let seen = consumer.join().unwrap();
        assert_eq!(seen.len(), 100);
        let stats = producer_buffer.stats();
        assert_eq!(stats.puts, 100);
        assert_eq!(stats.gets, 100);
        assert_eq!(stats.repeated_gets, 0);
        assert_eq!(stats.evictions, 0);
    }

    #[test]
    fn producer_blocks_when_full() {
        let buffer = Arc::new(FifoBuffer::new(2));
        buffer.put(1u32);
        buffer.put(2);
        let blocked = Arc::clone(&buffer);
        let handle = std::thread::spawn(move || {
            blocked.put(3);
            true
        });
        // Give the producer a moment to block on the full buffer.
        std::thread::sleep(Duration::from_millis(30));
        assert!(!handle.is_finished(), "producer should be blocked");
        assert_eq!(buffer.get(), Some(1));
        assert!(handle.join().unwrap());
        assert!(buffer.stats().producer_waits >= 1);
    }

    #[test]
    fn consumer_blocks_until_data_arrives() {
        let buffer = Arc::new(FifoBuffer::new(4));
        let consumer_buffer = Arc::clone(&buffer);
        let handle = std::thread::spawn(move || consumer_buffer.get());
        std::thread::sleep(Duration::from_millis(30));
        assert!(!handle.is_finished(), "consumer should be blocked");
        buffer.put(42u32);
        assert_eq!(handle.join().unwrap(), Some(42));
    }

    #[test]
    fn get_returns_none_after_drain() {
        let buffer = FifoBuffer::new(4);
        buffer.put(1u32);
        buffer.mark_reception_over();
        assert_eq!(buffer.get(), Some(1));
        assert_eq!(buffer.get(), None);
        assert_eq!(buffer.get(), None);
        assert!(buffer.is_reception_over());
    }

    #[test]
    #[should_panic(expected = "capacity must be positive")]
    fn zero_capacity_is_rejected() {
        let _: FifoBuffer<u32> = FifoBuffer::new(0);
    }

    #[test]
    fn put_many_and_get_batch_preserve_arrival_order() {
        let buffer = FifoBuffer::new(32);
        let mut items: Vec<u32> = (0..10).collect();
        buffer.put_many(&mut items);
        assert!(items.is_empty(), "put_many drains the scratch");
        buffer.mark_reception_over();
        let mut out = Vec::new();
        assert_eq!(buffer.get_batch(4, &mut out), 4);
        assert_eq!(buffer.get_batch(16, &mut out), 6, "partial batch at drain");
        assert_eq!(out, (0..10).collect::<Vec<_>>());
        assert_eq!(buffer.get_batch(4, &mut out), 0, "drained signals 0");
        assert_eq!(buffer.stats().gets, 10);
        assert_eq!(buffer.stats().puts, 10);
    }

    #[test]
    fn get_batch_blocks_until_the_batch_completes() {
        let buffer = Arc::new(FifoBuffer::new(16));
        buffer.put(1u32);
        let consumer = Arc::clone(&buffer);
        let handle = std::thread::spawn(move || {
            let mut out = Vec::new();
            let served = consumer.get_batch(3, &mut out);
            (served, out)
        });
        std::thread::sleep(Duration::from_millis(30));
        assert!(!handle.is_finished(), "batch of 3 must wait for more data");
        buffer.put(2);
        buffer.put(3);
        let (served, out) = handle.join().unwrap();
        assert_eq!(served, 3);
        assert_eq!(out, vec![1, 2, 3]);
    }

    #[test]
    fn put_many_blocks_at_capacity_until_consumed() {
        let buffer = Arc::new(FifoBuffer::new(2));
        let producer = Arc::clone(&buffer);
        let handle = std::thread::spawn(move || {
            let mut items: Vec<u32> = (0..5).collect();
            producer.put_many(&mut items);
        });
        std::thread::sleep(Duration::from_millis(30));
        assert!(!handle.is_finished(), "batch larger than capacity blocks");
        let mut out = Vec::new();
        // A blocked mid-batch producer must still wake this consumer.
        while out.len() < 5 {
            buffer.get_batch(5 - out.len(), &mut out);
        }
        handle.join().unwrap();
        assert_eq!(out, (0..5).collect::<Vec<_>>());
    }

    #[test]
    fn crash_drops_are_reported_to_the_eviction_observer() {
        use crate::traits::Evicted;
        use parking_lot::Mutex;
        let buffer = FifoBuffer::new(2);
        let dropped: Arc<Mutex<Vec<(u32, Evicted)>>> = Arc::new(Mutex::new(Vec::new()));
        let sink = Arc::clone(&dropped);
        buffer.set_eviction_observer(Arc::new(move |item: &u32, kind| {
            sink.lock().push((*item, kind));
        }));
        buffer.put(1);
        buffer.put(2);
        buffer.mark_reception_over();
        // Single put against a full, shut-down queue: dropped and reported.
        buffer.put(3);
        // Batched put: the first two fit nowhere, the whole tail is reported.
        let mut items = vec![4, 5];
        buffer.put_many(&mut items);
        let seen = dropped.lock().clone();
        assert_eq!(
            seen,
            vec![
                (3, Evicted::Untrained),
                (4, Evicted::Untrained),
                (5, Evicted::Untrained)
            ]
        );
        assert_eq!(buffer.len(), 2, "stored samples are untouched");
    }

    #[test]
    fn get_batch_with_visits_the_same_sequence() {
        let buffer = FifoBuffer::new(16);
        for k in 0..6u32 {
            buffer.put(k);
        }
        buffer.mark_reception_over();
        let mut seen = Vec::new();
        assert_eq!(buffer.get_batch_with(10, &mut |v| seen.push(*v)), 6);
        assert_eq!(seen, (0..6).collect::<Vec<_>>());
        assert!(buffer.is_empty());
    }
}
