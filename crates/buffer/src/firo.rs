//! First-In-Random-Out training buffer.
//!
//! FIRO behaves like FIFO — data are evicted upon reading, each sample is seen
//! once — except that samples are extracted from random positions to build less
//! biased batches, and extraction is only allowed once the population exceeds a
//! threshold. The threshold drops to zero when data production ends so the last
//! produced samples can be consumed (§3.2.3). This is the policy of the authors'
//! prior work, which the paper shows fails to keep the GPU busy. "Evicted upon
//! reading" means the sample leaves the population when it is served; it is
//! retired, and the ingest side frees it (see [`crate::shell`]).

use crate::shell::{Policy, Shell};
use crate::traits::BufferKind;
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

/// FIRO storage: an unordered bag served from a seeded random position.
pub struct Firo<T> {
    items: Vec<T>,
    rng: ChaCha8Rng,
}

/// Bounded buffer with random extraction and a minimum-population threshold.
pub type FiroBuffer<T> = Shell<T, Firo<T>>;

impl<T> FiroBuffer<T> {
    /// Creates a FIRO buffer.
    ///
    /// # Panics
    /// Panics when the capacity is zero or the threshold is not smaller than
    /// the capacity (the consumer could never make progress).
    pub fn new(capacity: usize, threshold: usize, seed: u64) -> Self {
        let policy = Firo {
            items: Vec::with_capacity(capacity),
            rng: ChaCha8Rng::seed_from_u64(seed),
        };
        Shell::with_policy(policy, capacity, threshold)
    }

    /// The minimum population required before samples may be extracted.
    pub fn threshold(&self) -> usize {
        self.gate()
    }
}

impl<T: Send> Policy<T> for Firo<T> {
    const KIND: BufferKind = BufferKind::Firo;

    fn len(&self) -> usize {
        self.items.len()
    }

    // analysis: hot_path
    fn insert(&mut self, item: T, _capacity: usize) -> Option<T> {
        self.items.push(item);
        None
    }

    /// One RNG draw per served sample.
    // analysis: hot_path
    fn serve(
        &mut self,
        _draining: bool,
        _nth: usize,
        visit: &mut dyn FnMut(&T),
        retired: &mut Vec<T>,
    ) -> bool {
        let idx = self.rng.gen_range(0..self.items.len());
        let item = self.items.swap_remove(idx);
        visit(&item);
        retired.push(item);
        false
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::traits::{Evicted, TrainingBuffer};
    use std::collections::HashSet;
    use std::sync::Arc;
    use std::time::Duration;

    #[test]
    fn serves_each_sample_exactly_once_in_some_order() {
        let buffer = FiroBuffer::new(64, 4, 7);
        for k in 0..32u32 {
            buffer.put(k);
        }
        buffer.mark_reception_over();
        let mut out = Vec::new();
        while let Some(v) = buffer.get() {
            out.push(v);
        }
        assert_eq!(out.len(), 32);
        let unique: HashSet<u32> = out.iter().copied().collect();
        assert_eq!(unique.len(), 32, "no duplicates");
        // Randomised order: extremely unlikely to match arrival order exactly.
        assert_ne!(out, (0..32).collect::<Vec<_>>());
    }

    #[test]
    fn consumer_blocks_below_threshold() {
        let buffer = Arc::new(FiroBuffer::new(16, 4, 1));
        for k in 0..4u32 {
            buffer.put(k);
        }
        // Population equals the threshold: extraction must wait.
        let consumer = Arc::clone(&buffer);
        let handle = std::thread::spawn(move || consumer.get());
        std::thread::sleep(Duration::from_millis(30));
        assert!(
            !handle.is_finished(),
            "consumer should wait at the threshold"
        );
        buffer.put(4);
        assert!(handle.join().unwrap().is_some());
        assert!(buffer.stats().consumer_waits >= 1);
    }

    #[test]
    fn threshold_is_lifted_when_reception_ends() {
        let buffer = FiroBuffer::new(16, 8, 2);
        buffer.put(1u32);
        buffer.put(2);
        buffer.mark_reception_over();
        // Population (2) is below the threshold (8) but reception is over.
        assert!(buffer.get().is_some());
        assert!(buffer.get().is_some());
        assert_eq!(buffer.get(), None);
    }

    #[test]
    fn producer_blocks_at_capacity() {
        let buffer = Arc::new(FiroBuffer::new(2, 1, 3));
        buffer.put(1u32);
        buffer.put(2);
        let producer = Arc::clone(&buffer);
        let handle = std::thread::spawn(move || {
            producer.put(3);
        });
        std::thread::sleep(Duration::from_millis(30));
        assert!(!handle.is_finished(), "producer should block when full");
        let _ = buffer.get();
        handle.join().unwrap();
    }

    #[test]
    fn same_seed_gives_same_extraction_order() {
        let run = |seed: u64| {
            let buffer = FiroBuffer::new(64, 1, seed);
            for k in 0..16u32 {
                buffer.put(k);
            }
            buffer.mark_reception_over();
            let mut out = Vec::new();
            while let Some(v) = buffer.get() {
                out.push(v);
            }
            out
        };
        assert_eq!(run(5), run(5));
        assert_ne!(run(5), run(6));
    }

    #[test]
    #[should_panic(expected = "threshold")]
    fn threshold_must_be_below_capacity() {
        let _: FiroBuffer<u32> = FiroBuffer::new(4, 4, 0);
    }

    #[test]
    fn batched_ops_replay_the_sequential_random_stream() {
        // Same seed: put/get one at a time vs put_many/get_batch must serve
        // the identical sequence (the RNG is drawn once per extraction).
        let sequential = FiroBuffer::new(64, 2, 9);
        for k in 0..32u32 {
            sequential.put(k);
        }
        sequential.mark_reception_over();
        let mut expected = Vec::new();
        while let Some(v) = sequential.get() {
            expected.push(v);
        }

        let batched = FiroBuffer::new(64, 2, 9);
        let mut items: Vec<u32> = (0..32).collect();
        batched.put_many(&mut items);
        batched.mark_reception_over();
        let mut served = Vec::new();
        while batched.get_batch(5, &mut served) > 0 {}
        assert_eq!(served, expected);
    }

    #[test]
    fn get_batch_respects_the_threshold_mid_batch() {
        // 6 items, threshold 4: only 2 may be served before the population
        // reaches the threshold, then the batch must wait.
        let buffer = Arc::new(FiroBuffer::new(16, 4, 3));
        for k in 0..6u32 {
            buffer.put(k);
        }
        let consumer = Arc::clone(&buffer);
        let handle = std::thread::spawn(move || {
            let mut out = Vec::new();
            consumer.get_batch(4, &mut out);
            out
        });
        std::thread::sleep(Duration::from_millis(30));
        assert!(!handle.is_finished(), "population at threshold must block");
        buffer.put(6);
        buffer.put(7);
        let out = handle.join().unwrap();
        assert_eq!(out.len(), 4);
        assert_eq!(buffer.len(), 4, "population stops at the threshold");
    }

    #[test]
    fn crash_drops_are_reported_to_the_eviction_observer() {
        use parking_lot::Mutex;
        let buffer = FiroBuffer::new(2, 1, 11);
        let dropped: Arc<Mutex<Vec<(u32, Evicted)>>> = Arc::new(Mutex::new(Vec::new()));
        let sink = Arc::clone(&dropped);
        buffer.set_eviction_observer(Arc::new(move |item: &u32, kind| {
            sink.lock().push((*item, kind));
        }));
        buffer.put(1);
        buffer.put(2);
        buffer.mark_reception_over();
        buffer.put(3);
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
    }

    #[test]
    fn put_many_wakes_a_waiting_consumer_when_crossing_the_threshold() {
        let buffer = Arc::new(FiroBuffer::new(64, 8, 4));
        let consumer = Arc::clone(&buffer);
        let handle = std::thread::spawn(move || {
            let mut out = Vec::new();
            consumer.get_batch(3, &mut out);
            out.len()
        });
        std::thread::sleep(Duration::from_millis(20));
        assert!(!handle.is_finished());
        let mut items: Vec<u32> = (0..12).collect();
        buffer.put_many(&mut items);
        assert_eq!(handle.join().unwrap(), 3);
    }
}
