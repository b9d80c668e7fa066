//! The training Reservoir — Algorithm 1 of the paper.
//!
//! The Reservoir enables data to be seen more than once to reduce consumer
//! idleness in case of under-production, while giving priority to storing newly
//! produced data over already-seen ones:
//!
//! * it distinguishes the new *unseen* data from the ones already selected in a
//!   previous batch (*seen*);
//! * when receiving new data while the buffer is full, a random **seen** sample
//!   is evicted to make room — unseen data are never discarded;
//! * when building a batch, elements are uniformly selected among the seen and
//!   unseen population (with replacement at the batch level); a selected unseen
//!   sample is moved to the seen population;
//! * a threshold of minimum stored data gates the first batches so early time
//!   steps are not over-represented;
//! * once reception is over, the threshold is lifted and selected samples are
//!   removed, so the buffer drains and training terminates when it empties.
//!
//! Batch serving (`get_batch` / `get_batch_with`) selects with serve stream
//! **"reservoir-draw-v2"**: one seeded RNG draw per batch, expanded to one
//! index per sample with `splitmix64`. Single `get`s and the eviction draws
//! on the insertion side keep the original per-call v1 stream.

use crate::lock_order;
use crate::stats::BufferStats;
use crate::traits::{BufferKind, Evicted, EvictionObserver, TrainingBuffer};
use parking_lot::{Condvar, Mutex};
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

/// Single-storage state: every sample lives exactly once in `items`, with the
/// seen/unseen split expressed as a partition index instead of two vectors.
/// Moving a sample between populations is an index swap, never a payload copy,
/// so a `get` clones the sampled item at most once (and not at all once
/// reception is over and the selected item can be moved out).
struct Inner<T> {
    /// `items[..seen]` have been served at least once; `items[seen..]` never.
    items: Vec<T>,
    /// The partition index: number of seen samples.
    seen: usize,
    reception_over: bool,
    stats: BufferStats,
    rng: ChaCha8Rng,
    observer: Option<EvictionObserver<T>>,
}

/// SplitMix64 finaliser used by serve stream **"reservoir-draw-v2"**: a served
/// batch consumes exactly **one** `gen_range` from the seeded RNG (the *base*)
/// and derives the selection index of its `i`-th sample as
/// `splitmix64(base + i) % population`. One RNG draw per batch instead of one
/// per sample keeps the hot serving loop off the ChaCha block function while
/// remaining a deterministic function of the configured seed (see
/// `analysis/seed_policy.toml`; the old per-sample batch stream is retired).
fn splitmix64(seed: u64) -> u64 {
    let mut z = seed.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

impl<T> Inner<T> {
    fn total(&self) -> usize {
        self.items.len()
    }

    fn unseen(&self) -> usize {
        self.items.len() - self.seen
    }

    /// Removes and returns the seen sample at `idx < seen`, keeping the
    /// partition intact: the last seen sample takes its slot, the last unseen
    /// sample (if any) takes the freed boundary slot.
    fn remove_seen(&mut self, idx: usize) -> T {
        debug_assert!(idx < self.seen);
        self.items.swap(idx, self.seen - 1);
        let item = self.items.swap_remove(self.seen - 1);
        self.seen -= 1;
        item
    }
}

/// The paper's training Reservoir (Algorithm 1).
pub struct ReservoirBuffer<T> {
    inner: Mutex<Inner<T>>,
    not_full: Condvar,
    available: Condvar,
    capacity: usize,
    threshold: usize,
}

impl<T> ReservoirBuffer<T> {
    /// Creates a Reservoir.
    ///
    /// # Panics
    /// Panics when the capacity is zero or the threshold is not smaller than
    /// the capacity.
    pub fn new(capacity: usize, threshold: usize, seed: u64) -> Self {
        assert!(capacity > 0, "buffer capacity must be positive");
        assert!(
            threshold < capacity,
            "threshold ({threshold}) must be smaller than capacity ({capacity})"
        );
        Self {
            inner: Mutex::new(Inner {
                // Preallocated to capacity so steady-state insertion never
                // grows the storage (the ingestion path is allocation-free).
                items: Vec::with_capacity(capacity),
                seen: 0,
                reception_over: false,
                stats: BufferStats::default(),
                rng: ChaCha8Rng::seed_from_u64(seed),
                observer: None,
            }),
            not_full: Condvar::new(),
            available: Condvar::new(),
            capacity,
            threshold,
        }
    }

    /// The minimum population required before samples may be extracted.
    pub fn threshold(&self) -> usize {
        self.threshold
    }

    /// Ranked acquisition of the internal mutex: registers
    /// [`lock_order::RANK_SUB_BUFFER`] with the debug-build lock-order
    /// tracker before blocking on the lock (see `analysis/locks.toml`).
    fn lock_inner(&self) -> lock_order::Ranked<'_, Inner<T>> {
        let held = lock_order::acquire(lock_order::RANK_SUB_BUFFER);
        lock_order::Ranked::new(self.inner.lock(), held)
    }

    /// Number of stored samples that have not been served yet.
    pub fn unseen_len(&self) -> usize {
        self.lock_inner().unseen()
    }

    /// Number of stored samples that have been served at least once.
    pub fn seen_len(&self) -> usize {
        self.lock_inner().seen
    }
}

impl<T: Clone> ReservoirBuffer<T> {
    /// The borrow-based batch-serving core behind
    /// [`TrainingBuffer::get_batch_with`]: selections and population moves
    /// mirror sequential `get`s, but the batch draws its selections from the
    /// per-batch serve stream ("reservoir-draw-v2" — see `splitmix64`) and
    /// the served sample is handed to `visit` as a borrow, so **no clone
    /// happens at all** — the one clone per pre-drain `get` disappears
    /// entirely on this path.
    fn serve_batch_visit(&self, n: usize, visit: &mut dyn FnMut(&T)) -> usize {
        if n == 0 {
            return 0;
        }
        // analysis: allow(blocking, reason = "one bounded lock acquisition per batch is the serving contract; contention is with producers only")
        let mut inner = self.lock_inner();
        let mut served = 0;
        let mut base: Option<u64> = None;
        while served < n {
            let total = inner.total();
            if inner.reception_over {
                if total == 0 {
                    break;
                }
            } else if total <= self.threshold {
                inner.stats.consumer_waits += 1;
                self.not_full.notify_all();
                // analysis: allow(blocking, reason = "consumer backpressure: population at or below threshold while reception is live — waiting here IS the policy")
                self.available.wait(&mut inner.guard);
                continue;
            }

            let total = inner.total();
            // Serve stream "reservoir-draw-v2": one base draw per batch,
            // taken lazily so a batch that first parks at the threshold gate
            // still consumes exactly one RNG value.
            let base = *base.get_or_insert_with(|| inner.rng.gen_range(0..=u64::MAX));
            let idx = (splitmix64(base.wrapping_add(served as u64)) % total as u64) as usize;
            let repeated = if idx >= inner.seen {
                // Unseen sample: serve it for the first time.
                if inner.reception_over {
                    visit(&inner.items[idx]);
                    inner.items.swap_remove(idx);
                } else {
                    let boundary = inner.seen;
                    inner.items.swap(idx, boundary);
                    inner.seen += 1;
                    visit(&inner.items[boundary]);
                }
                false
            } else {
                // Seen sample: serve it again.
                visit(&inner.items[idx]);
                if inner.reception_over {
                    inner.remove_seen(idx);
                }
                true
            };
            inner.stats.gets += 1;
            if repeated {
                inner.stats.repeated_gets += 1;
            }
            served += 1;
        }
        drop(inner);
        self.not_full.notify_all();
        served
    }
}

impl<T: Clone + Send> TrainingBuffer<T> for ReservoirBuffer<T> {
    /// Algorithm 1, `put`: block while the buffer is full of unseen samples
    /// (never discard unseen data while reception is live — once reception is
    /// over a full buffer drops the sample instead, reported as untrained);
    /// otherwise evict a random seen sample if the total population is at
    /// capacity, then store the new sample as unseen.
    fn put(&self, item: T) {
        let mut inner = self.lock_inner();
        while inner.unseen() >= self.capacity {
            // Reception over while the unseen population still fills the
            // reservoir: the consumer side has shut down (e.g. a server
            // crash) and will never serve the unseen backlog — drop the
            // item instead of blocking forever. "Never discard unseen data"
            // only binds while someone is still training on it.
            if inner.reception_over {
                if let Some(observer) = &inner.observer {
                    observer(&item, Evicted::Untrained);
                }
                return;
            }
            inner.stats.producer_waits += 1;
            self.not_full.wait(&mut inner.guard);
        }
        if inner.total() >= self.capacity {
            debug_assert!(inner.seen > 0);
            let seen = inner.seen;
            let idx = inner.rng.gen_range(0..seen);
            let evicted = inner.remove_seen(idx);
            inner.stats.evictions += 1;
            // The evicted sample was served at least once (only seen samples
            // are evictable): recovery accounting keeps it as trained.
            if let Some(observer) = &inner.observer {
                observer(&evicted, Evicted::Trained);
            }
        }
        inner.items.push(item);
        inner.stats.puts += 1;
        drop(inner);
        self.available.notify_one();
    }

    /// Algorithm 1, `get`: wait until the population exceeds the threshold
    /// (lifted once reception is over), then select uniformly among seen and
    /// unseen samples. A selected unseen sample is moved to the seen population
    /// (or dropped once reception is over); a selected seen sample is served
    /// again (and removed once reception is over, so the buffer finally empties).
    ///
    /// The single-storage layout makes the population moves index swaps, so
    /// every `get` clones the served item at most once — and moves it out
    /// without any clone once reception is over.
    fn get(&self) -> Option<T> {
        let mut inner = self.lock_inner();
        loop {
            let total = inner.total();
            if inner.reception_over {
                if total == 0 {
                    return None;
                }
            } else if total <= self.threshold {
                inner.stats.consumer_waits += 1;
                self.available.wait(&mut inner.guard);
                continue;
            }

            let total = inner.total();
            let idx = inner.rng.gen_range(0..total);
            let (item, repeated) = if idx >= inner.seen {
                // Unseen sample: serve it for the first time.
                if inner.reception_over {
                    (inner.items.swap_remove(idx), false)
                } else {
                    let boundary = inner.seen;
                    inner.items.swap(idx, boundary);
                    inner.seen += 1;
                    (inner.items[boundary].clone(), false)
                }
            } else {
                // Seen sample: serve it again.
                if inner.reception_over {
                    (inner.remove_seen(idx), true)
                } else {
                    (inner.items[idx].clone(), true)
                }
            };
            inner.stats.gets += 1;
            if repeated {
                inner.stats.repeated_gets += 1;
            }
            drop(inner);
            // Serving an unseen sample frees room on the unseen side.
            self.not_full.notify_one();
            return Some(item);
        }
    }

    /// Whole-batch insertion under one lock acquisition: per sample, the
    /// unseen-full wait and the seen-eviction draw happen exactly as in
    /// sequential `put`s; the consumer is woken before any mid-batch wait so
    /// no notification is lost.
    // analysis: hot_path
    fn put_many(&self, items: &mut Vec<T>) {
        if items.is_empty() {
            return;
        }
        // analysis: allow(blocking, reason = "one bounded lock acquisition per ingest batch is the insertion contract")
        let mut inner = self.lock_inner();
        let mut pending = items.drain(..);
        while let Some(item) = pending.next() {
            while inner.unseen() >= self.capacity {
                // Reception over with the reservoir full of unseen samples
                // means the consumer side has shut down (e.g. a server
                // crash): drop the rest of the batch instead of blocking
                // forever, reporting every dropped sample so recovery
                // accounting knows its data was lost.
                if inner.reception_over {
                    if let Some(observer) = &inner.observer {
                        observer(&item, Evicted::Untrained);
                        for rest in pending {
                            observer(&rest, Evicted::Untrained);
                        }
                    }
                    return;
                }
                inner.stats.producer_waits += 1;
                self.available.notify_all();
                // analysis: allow(blocking, reason = "producer backpressure: unseen population at capacity — waiting here IS the policy")
                self.not_full.wait(&mut inner.guard);
            }
            if inner.total() >= self.capacity {
                debug_assert!(inner.seen > 0);
                let seen = inner.seen;
                let idx = inner.rng.gen_range(0..seen);
                let evicted = inner.remove_seen(idx);
                inner.stats.evictions += 1;
                if let Some(observer) = &inner.observer {
                    observer(&evicted, Evicted::Trained);
                }
            }
            inner.items.push(item);
            inner.stats.puts += 1;
        }
        drop(inner);
        self.available.notify_all();
    }

    /// Whole-batch extraction under one lock acquisition; population moves
    /// and clone-vs-move behaviour mirror sequential `get`s (a pre-drain
    /// serve clones once, a post-drain serve moves the sample out), while the
    /// selections come from the per-batch serve stream "reservoir-draw-v2"
    /// (see `splitmix64`): one RNG draw per batch, not one per sample.
    // analysis: hot_path
    fn get_batch(&self, n: usize, out: &mut Vec<T>) -> usize {
        if n == 0 {
            return 0;
        }
        // analysis: allow(blocking, reason = "one bounded lock acquisition per batch is the serving contract; contention is with producers only")
        let mut inner = self.lock_inner();
        let mut served = 0;
        let mut base: Option<u64> = None;
        while served < n {
            let total = inner.total();
            if inner.reception_over {
                if total == 0 {
                    break;
                }
            } else if total <= self.threshold {
                inner.stats.consumer_waits += 1;
                self.not_full.notify_all();
                // analysis: allow(blocking, reason = "consumer backpressure: population at or below threshold while reception is live — waiting here IS the policy")
                self.available.wait(&mut inner.guard);
                continue;
            }

            let total = inner.total();
            // Serve stream "reservoir-draw-v2": one base draw per batch,
            // taken lazily so a batch that first parks at the threshold gate
            // still consumes exactly one RNG value.
            let base = *base.get_or_insert_with(|| inner.rng.gen_range(0..=u64::MAX));
            let idx = (splitmix64(base.wrapping_add(served as u64)) % total as u64) as usize;
            let (item, repeated) = if idx >= inner.seen {
                if inner.reception_over {
                    (inner.items.swap_remove(idx), false)
                } else {
                    let boundary = inner.seen;
                    inner.items.swap(idx, boundary);
                    inner.seen += 1;
                    // analysis: allow(alloc, reason = "reservoir serves by value while the sample stays resident for repeated draws; get_batch_with is the borrow path")
                    (inner.items[boundary].clone(), false)
                }
            } else if inner.reception_over {
                (inner.remove_seen(idx), true)
            } else {
                // analysis: allow(alloc, reason = "reservoir serves by value while the sample stays resident for repeated draws; get_batch_with is the borrow path")
                (inner.items[idx].clone(), true)
            };
            inner.stats.gets += 1;
            if repeated {
                inner.stats.repeated_gets += 1;
            }
            out.push(item);
            served += 1;
        }
        drop(inner);
        self.not_full.notify_all();
        served
    }

    // analysis: hot_path
    fn get_batch_with(&self, n: usize, visit: &mut dyn FnMut(&T)) -> usize {
        self.serve_batch_visit(n, visit)
    }

    fn set_eviction_observer(&self, observer: EvictionObserver<T>) {
        self.lock_inner().observer = Some(observer);
    }

    fn mark_reception_over(&self) {
        let mut inner = self.lock_inner();
        inner.reception_over = true;
        drop(inner);
        self.available.notify_all();
        self.not_full.notify_all();
    }

    fn is_reception_over(&self) -> bool {
        self.lock_inner().reception_over
    }

    fn len(&self) -> usize {
        self.lock_inner().total()
    }

    fn capacity(&self) -> usize {
        self.capacity
    }

    fn stats(&self) -> BufferStats {
        self.lock_inner().stats
    }

    fn kind(&self) -> BufferKind {
        BufferKind::Reservoir
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashMap;
    use std::sync::Arc;
    use std::time::Duration;

    #[test]
    fn never_exceeds_capacity() {
        let buffer = ReservoirBuffer::new(8, 2, 1);
        // Interleave puts and gets; population must never exceed the capacity.
        // Single-threaded driver: consume one sample whenever the unseen side is
        // full, otherwise `put` would block waiting for a consumer thread.
        for k in 0..100u32 {
            if buffer.unseen_len() >= 8 {
                let _ = buffer.get();
            }
            buffer.put(k);
            assert!(buffer.len() <= 8, "population {} > capacity", buffer.len());
            if k % 3 == 0 && buffer.len() > 2 {
                let _ = buffer.get();
            }
        }
    }

    #[test]
    fn unseen_data_is_never_discarded() {
        // Fill the buffer and keep producing: only seen samples may be evicted,
        // so every sample must be served at least once before being lost — here
        // nothing is consumed, so production must block rather than drop data.
        let buffer = Arc::new(ReservoirBuffer::new(4, 1, 2));
        for k in 0..4u32 {
            buffer.put(k);
        }
        let producer = Arc::clone(&buffer);
        let handle = std::thread::spawn(move || {
            producer.put(99);
        });
        std::thread::sleep(Duration::from_millis(30));
        assert!(
            !handle.is_finished(),
            "producer must block when the buffer is full of unseen data"
        );
        // Consuming one sample moves it to the seen side, making room.
        let _ = buffer.get();
        handle.join().unwrap();
        assert_eq!(buffer.stats().evictions, 1);
    }

    #[test]
    fn reception_over_unblocks_producers_stuck_on_unseen_data() {
        // A server crash ends reception while the reservoir is still full of
        // unseen samples and the consumer is gone. A producer parked in
        // `put_many` must be woken and drop its batch (reported as untrained)
        // rather than wait forever for a drain that will never come.
        let buffer = Arc::new(ReservoirBuffer::new(4, 1, 11));
        let sink = Arc::new(parking_lot::Mutex::new(Vec::new()));
        {
            let sink = Arc::clone(&sink);
            buffer.set_eviction_observer(Arc::new(move |item: &u32, kind| {
                sink.lock().push((*item, kind));
            }));
        }
        for k in 0..4u32 {
            buffer.put(k);
        }
        let producer = Arc::clone(&buffer);
        let handle = std::thread::spawn(move || {
            let mut batch = vec![100, 101];
            producer.put_many(&mut batch);
        });
        std::thread::sleep(Duration::from_millis(30));
        assert!(
            !handle.is_finished(),
            "producer must block while reception is live"
        );
        buffer.mark_reception_over();
        handle.join().unwrap();
        // A put against the full, shut-down reservoir returns immediately too.
        buffer.put(102);
        let dropped = sink.lock().clone();
        assert_eq!(
            dropped,
            vec![
                (100, Evicted::Untrained),
                (101, Evicted::Untrained),
                (102, Evicted::Untrained)
            ]
        );
        // Nothing was evicted (only dropped): the stored population is intact.
        assert_eq!(buffer.len(), 4);
        assert_eq!(buffer.stats().evictions, 0);
    }

    #[test]
    fn can_repeat_samples_when_production_stalls() {
        let buffer = ReservoirBuffer::new(16, 2, 3);
        for k in 0..4u32 {
            buffer.put(k);
        }
        // Far more gets than puts: the Reservoir must keep serving.
        let mut served = Vec::new();
        for _ in 0..40 {
            served.push(buffer.get().unwrap());
        }
        assert_eq!(served.len(), 40);
        let stats = buffer.stats();
        assert_eq!(stats.gets, 40);
        assert!(stats.repeated_gets >= 36, "most gets are repeats");
        // Population is unchanged: nothing is evicted on read.
        assert_eq!(buffer.len(), 4);
    }

    #[test]
    fn drains_and_terminates_after_reception_over() {
        let buffer = ReservoirBuffer::new(32, 4, 4);
        for k in 0..20u32 {
            buffer.put(k);
        }
        // Serve a few samples so both seen and unseen populations are non-empty.
        for _ in 0..10 {
            buffer.get().unwrap();
        }
        buffer.mark_reception_over();
        let mut drained = 0;
        while buffer.get().is_some() {
            drained += 1;
        }
        assert_eq!(buffer.len(), 0);
        // Everything still stored at reception end is served exactly once more.
        assert!(drained >= 10, "drained {drained}");
        assert_eq!(buffer.get(), None);
    }

    #[test]
    fn consumer_waits_below_threshold() {
        let buffer = Arc::new(ReservoirBuffer::new(16, 4, 5));
        for k in 0..4u32 {
            buffer.put(k);
        }
        let consumer = Arc::clone(&buffer);
        let handle = std::thread::spawn(move || consumer.get());
        std::thread::sleep(Duration::from_millis(30));
        assert!(!handle.is_finished(), "population == threshold must block");
        buffer.put(4);
        assert!(handle.join().unwrap().is_some());
    }

    #[test]
    fn every_sample_is_served_at_least_once_under_full_consumption() {
        // With a consumer that keeps draining until reception is over and the
        // buffer empties, every produced sample must appear at least once:
        // unseen data are never evicted.
        let buffer = Arc::new(ReservoirBuffer::new(16, 2, 6));
        let consumer = {
            let buffer = Arc::clone(&buffer);
            std::thread::spawn(move || {
                let mut counts: HashMap<u32, usize> = HashMap::new();
                while let Some(v) = buffer.get() {
                    *counts.entry(v).or_default() += 1;
                }
                counts
            })
        };
        for k in 0..200u32 {
            buffer.put(k);
        }
        buffer.mark_reception_over();
        let counts = consumer.join().unwrap();
        for k in 0..200u32 {
            assert!(
                counts.contains_key(&k),
                "sample {k} was never served (unseen data must not be lost)"
            );
        }
    }

    #[test]
    fn eviction_only_removes_seen_samples() {
        let buffer = ReservoirBuffer::new(4, 1, 7);
        for k in 0..4u32 {
            buffer.put(k);
        }
        // Serve two samples (they become seen), then push two more: the two new
        // puts must evict seen samples only.
        let _ = buffer.get();
        let _ = buffer.get();
        buffer.put(100);
        buffer.put(101);
        let stats = buffer.stats();
        assert_eq!(stats.evictions, 2);
        assert_eq!(buffer.len(), 4);
        assert!(buffer.unseen_len() >= 2);
    }

    #[test]
    fn same_seed_reproduces_the_serving_sequence() {
        let run = |seed: u64| {
            let buffer = ReservoirBuffer::new(8, 1, seed);
            for k in 0..8u32 {
                buffer.put(k);
            }
            let mut out = Vec::new();
            for _ in 0..20 {
                out.push(buffer.get().unwrap());
            }
            out
        };
        assert_eq!(run(11), run(11));
        assert_ne!(run(11), run(12));
    }

    #[test]
    fn seen_and_unseen_populations_are_reported() {
        let buffer = ReservoirBuffer::new(8, 1, 8);
        for k in 0..4u32 {
            buffer.put(k);
        }
        assert_eq!(buffer.unseen_len(), 4);
        assert_eq!(buffer.seen_len(), 0);
        let _ = buffer.get();
        assert_eq!(buffer.unseen_len(), 3);
        assert_eq!(buffer.seen_len(), 1);
        assert_eq!(buffer.len(), 4);
    }

    #[test]
    #[should_panic(expected = "threshold")]
    fn threshold_must_be_below_capacity() {
        let _: ReservoirBuffer<u32> = ReservoirBuffer::new(4, 5, 0);
    }

    /// Regression pinning serve stream "reservoir-draw-v2": a batch consumes
    /// exactly one `gen_range` (the base) and expands it with SplitMix64. A
    /// hand-rolled reference model replays the derivation and the partition
    /// swaps; any change to the stream (extra draws, a different mix, a
    /// different expansion key) breaks this test and must be reviewed as a
    /// new seed-policy version.
    #[test]
    fn reservoir_draw_v2_stream_is_pinned() {
        let seed = 33u64;
        let buffer = ReservoirBuffer::new(16, 2, seed);
        for k in 0..10u32 {
            buffer.put(k);
        }
        let mut served = Vec::new();
        assert_eq!(buffer.get_batch(6, &mut served), 6);

        // Reference model: no eviction happened (10 puts < capacity 16), so
        // the batch base is the seeded RNG's first draw.
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let base: u64 = rng.gen_range(0..=u64::MAX);
        let mut items: Vec<u32> = (0..10).collect();
        let mut seen = 0usize;
        let mut expected = Vec::new();
        for i in 0..6u64 {
            let total = items.len() as u64;
            let mut z = base.wrapping_add(i).wrapping_add(0x9E37_79B9_7F4A_7C15);
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^= z >> 31;
            let idx = (z % total) as usize;
            if idx >= seen {
                items.swap(idx, seen);
                expected.push(items[seen]);
                seen += 1;
            } else {
                expected.push(items[idx]);
            }
        }
        assert_eq!(served, expected);
    }

    /// The v2 stream draws once per *batch*, not per sample: serving ten
    /// samples as one batch, as two batches of five, or as ten batches of one
    /// consumes a different number of RNG values, so the streams diverge —
    /// which is exactly the retirement of the old sample-at-a-time batch
    /// stream. Population-level behaviour is identical regardless of split.
    #[test]
    fn batch_granularity_owns_the_rng_stream() {
        let drive = |splits: &[usize]| {
            let buffer = ReservoirBuffer::new(16, 2, 21);
            let mut items: Vec<u32> = (0..12).collect();
            buffer.put_many(&mut items);
            let mut out = Vec::new();
            for &n in splits {
                assert_eq!(buffer.get_batch(n, &mut out), n);
            }
            (out, buffer.len(), buffer.stats().gets)
        };
        let (one, len_one, gets_one) = drive(&[10]);
        let (two, len_two, gets_two) = drive(&[5, 5]);
        let (ten, len_ten, gets_ten) = drive(&[1; 10]);
        assert_eq!((len_one, gets_one), (12, 10));
        assert_eq!((len_two, gets_two), (12, 10));
        assert_eq!((len_ten, gets_ten), (12, 10));
        assert_ne!(one, two, "each batch must draw its own base");
        assert_ne!(one, ten, "each batch must draw its own base");
        // Same seed and same split reproduce the same stream.
        assert_eq!(drive(&[5, 5]), drive(&[5, 5]));
    }

    #[test]
    fn get_batch_with_serves_borrows_and_matches_get_batch() {
        let build = || {
            let buffer = ReservoirBuffer::new(16, 1, 5);
            for k in 0..8u32 {
                buffer.put(k);
            }
            buffer
        };
        let owned = build();
        let mut expected = Vec::new();
        owned.get_batch(10, &mut expected);

        let visited_buffer = build();
        let mut visited = Vec::new();
        let served = visited_buffer.get_batch_with(10, &mut |v| visited.push(*v));
        assert_eq!(served, 10);
        assert_eq!(visited, expected);
        // Pre-drain serving must not change the population.
        assert_eq!(visited_buffer.len(), 8);

        // After reception ends the visitor path drains and removes.
        visited_buffer.mark_reception_over();
        let mut drained = Vec::new();
        while visited_buffer.get_batch_with(3, &mut |v| drained.push(*v)) > 0 {}
        assert_eq!(visited_buffer.len(), 0);
        assert_eq!(drained.len(), 8);
    }

    #[test]
    fn evictions_are_reported_as_trained() {
        let buffer = ReservoirBuffer::new(4, 1, 7);
        let evicted: Arc<Mutex<Vec<(u32, Evicted)>>> = Arc::new(Mutex::new(Vec::new()));
        let sink = Arc::clone(&evicted);
        buffer.set_eviction_observer(Arc::new(move |item: &u32, kind| {
            sink.lock().push((*item, kind));
        }));
        for k in 0..4u32 {
            buffer.put(k);
        }
        // Two samples become seen, then two fresh puts evict seen samples.
        let _ = buffer.get();
        let _ = buffer.get();
        buffer.put(100);
        buffer.put(101);
        let seen = evicted.lock().clone();
        assert_eq!(seen.len(), 2);
        assert!(seen.iter().all(|(_, kind)| *kind == Evicted::Trained));
        // put_many eviction path reports too.
        let _ = buffer.get();
        let mut items = vec![102u32];
        buffer.put_many(&mut items);
        assert_eq!(evicted.lock().len(), 3);
    }

    #[test]
    fn put_many_never_discards_unseen_data() {
        let buffer = Arc::new(ReservoirBuffer::new(4, 1, 2));
        let mut items: Vec<u32> = (0..4).collect();
        buffer.put_many(&mut items);
        let producer = Arc::clone(&buffer);
        let handle = std::thread::spawn(move || {
            let mut items: Vec<u32> = vec![99, 100];
            producer.put_many(&mut items);
        });
        std::thread::sleep(Duration::from_millis(30));
        assert!(
            !handle.is_finished(),
            "put_many must block while the buffer is full of unseen data"
        );
        // Serving moves samples to the seen side, making them evictable.
        let mut out = Vec::new();
        buffer.get_batch(2, &mut out);
        handle.join().unwrap();
        assert_eq!(buffer.stats().evictions, 2);
        assert_eq!(buffer.len(), 4);
    }
}
