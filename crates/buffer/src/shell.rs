//! The blocking shell every buffer policy runs in.
//!
//! §3.2.3 asks the same things of FIFO, FIRO and the Reservoir: producers
//! block while the buffer cannot take a sample, the consumer blocks while the
//! population is at or below a threshold, the threshold is lifted once
//! reception is over so the buffer drains, and a sample is never lost without
//! a report. [`Shell`] is that contract, written once: one mutex, two
//! condition variables, the counters and the eviction observer, around a
//! crate-private policy that only says how samples are stored and which one
//! is served next. Its two loops, [`TrainingBuffer::put_many`] and
//! [`TrainingBuffer::get_batch_with`], are the only places a buffer waits.
//!
//! A sample leaves the population when it is served for the last time,
//! evicted or dropped by a shut-down buffer, and no sample is dropped under
//! the lock: each one is moved onto a *retired* list, and the producer frees
//! that list outside the lock before it waits for room, at the end of each
//! `put_many`, and when it calls [`TrainingBuffer::free_retired`] while
//! idle. The learning thread therefore never frees a sample. Samples are
//! allocated by the clients that produced them, so a free on the consumer
//! would be a cross-thread free under the lock on the learner's critical
//! path. The retired list and its spare are preallocated to the capacity
//! and swapped rather than rebuilt, so retiring allocates nothing in steady
//! state.

use crate::lock_order;
use crate::stats::BufferStats;
use crate::traits::{BufferKind, Evicted, EvictionObserver, TrainingBuffer};
use parking_lot::{Condvar, Mutex};

/// How one buffer kind stores samples and selects the next one to serve.
/// Every method runs under the shell's lock; none of them blocks, counts or
/// reports — the shell does. Implementations mark `insert` and `serve`
/// `// analysis: hot_path` themselves: the analyzer does not follow the
/// shell's loops through the generic `P`.
pub(crate) trait Policy<T>: Send {
    /// The kind this policy implements.
    const KIND: BufferKind;

    /// Stored samples.
    fn len(&self) -> usize;

    /// Whether [`Policy::insert`] may be called on a buffer of `capacity`
    /// samples: producers wait while false.
    fn has_room(&self, capacity: usize) -> bool {
        self.len() < capacity
    }

    /// Stores `item`, returning the already-served sample it displaced, if
    /// the policy evicts on write to stay within `capacity`.
    fn insert(&mut self, item: T, capacity: usize) -> Option<T>;

    /// Selects one of the `len() > 0` stored samples, the `nth` of its batch
    /// (from 0), and hands it to `visit`. A sample that leaves the buffer
    /// (every serve of FIFO and FIRO, the Reservoir's while `draining`) is
    /// pushed onto `retired` instead of being dropped. Returns whether it
    /// had been served before.
    fn serve(
        &mut self,
        draining: bool,
        nth: usize,
        visit: &mut dyn FnMut(&T),
        retired: &mut Vec<T>,
    ) -> bool;
}

struct Inner<T, P> {
    policy: P,
    reception_over: bool,
    stats: BufferStats,
    observer: Option<EvictionObserver<T>>,
    /// Samples that left the population and wait for the producer to free
    /// them outside the lock.
    retired: Vec<T>,
    /// An empty list of the retired list's capacity, swapped in while a
    /// producer frees the retired one (and `None` until it hands it back).
    spare: Option<Vec<T>>,
}

impl<T, P> Inner<T, P> {
    /// Hands the retired samples to the caller, to be freed outside the
    /// lock, leaving the spare in their place. `None` when nothing is
    /// retired, or while another producer frees (it has the spare).
    fn take_retired(&mut self) -> Option<Vec<T>> {
        if self.retired.is_empty() {
            return None;
        }
        let spare = self.spare.take()?;
        Some(std::mem::replace(&mut self.retired, spare))
    }
}

/// A bounded buffer blocking on both sides, serving by policy `P`. Named
/// through its aliases [`crate::FifoBuffer`], [`crate::FiroBuffer`] and
/// [`crate::ReservoirBuffer`].
pub struct Shell<T, P> {
    inner: Mutex<Inner<T, P>>,
    not_full: Condvar,
    available: Condvar,
    capacity: usize,
    /// The population must exceed this before a sample is served, until
    /// reception is over.
    gate: usize,
}

impl<T, P> Shell<T, P> {
    /// An empty buffer of `capacity` samples around `policy`, serving once
    /// the population exceeds `gate`.
    ///
    /// # Panics
    /// Panics when the capacity is zero or the gate is not smaller than the
    /// capacity (the consumer could never make progress).
    pub(crate) fn with_policy(policy: P, capacity: usize, gate: usize) -> Self {
        assert!(capacity > 0, "buffer capacity must be positive");
        assert!(
            gate < capacity,
            "threshold ({gate}) must be smaller than capacity ({capacity})"
        );
        Self {
            inner: Mutex::new(Inner {
                policy,
                reception_over: false,
                stats: BufferStats::default(),
                observer: None,
                retired: Vec::with_capacity(capacity),
                spare: Some(Vec::with_capacity(capacity)),
            }),
            not_full: Condvar::new(),
            available: Condvar::new(),
            capacity,
            gate,
        }
    }

    pub(crate) fn gate(&self) -> usize {
        self.gate
    }

    /// Reads the policy's state under the lock.
    pub(crate) fn inspect<R>(&self, read: impl FnOnce(&P) -> R) -> R {
        read(&self.lock_inner().policy)
    }

    /// Ranked acquisition of the mutex: registers
    /// [`lock_order::RANK_SUB_BUFFER`] with the debug-build lock-order
    /// tracker before blocking on the lock (see `analysis/locks.toml`).
    fn lock_inner(&self) -> lock_order::Ranked<'_, Inner<T, P>> {
        let held = lock_order::acquire(lock_order::RANK_SUB_BUFFER);
        lock_order::Ranked::new(self.inner.lock(), held)
    }

    /// Frees `freed`, a list taken with [`Inner::take_retired`], on the
    /// calling thread outside the lock, then re-acquires the lock to give
    /// its storage back as the spare.
    fn free_and_relock(&self, mut freed: Vec<T>) -> lock_order::Ranked<'_, Inner<T, P>> {
        freed.clear();
        // analysis: allow(blocking, reason = "one short acquisition to hand the emptied list back as the spare; taken only after samples were retired")
        let mut inner = self.lock_inner();
        inner.spare = Some(freed);
        inner
    }

    #[cfg(test)]
    pub(crate) fn retired_len(&self) -> usize {
        self.lock_inner().retired.len()
    }
}

impl<T: Clone + Send, P: Policy<T>> TrainingBuffer<T> for Shell<T, P> {
    /// One lock acquisition per burst. Per sample: wait while the policy has
    /// no room, then store it, retiring the seen sample it displaced. The
    /// consumer is woken before every wait, so a burst larger than the free
    /// room cannot strand it. What the consumer retired is freed outside
    /// the lock before each wait and once the burst is stored, so a
    /// producer blocked in a long burst does not hold on to it.
    // analysis: hot_path
    fn put_many(&self, items: &mut Vec<T>) {
        if items.is_empty() {
            return;
        }
        // analysis: allow(blocking, reason = "one bounded lock acquisition per ingest batch is the insertion contract")
        let mut inner = self.lock_inner();
        let mut pending = items.drain(..);
        'burst: while let Some(item) = pending.next() {
            while !inner.policy.has_room(self.capacity) {
                // Reception over with no room means the consumer side has
                // shut down (e.g. a server crash) and will never make any:
                // drop the rest of the burst instead of blocking forever,
                // reporting every dropped sample so recovery accounting
                // knows its data was lost. "Never discard unseen data" only
                // binds while someone is still training on it.
                if inner.reception_over {
                    let Inner {
                        observer, retired, ..
                    } = &mut *inner;
                    for lost in std::iter::once(item).chain(pending.by_ref()) {
                        if let Some(observer) = observer {
                            observer(&lost, Evicted::Untrained);
                        }
                        retired.push(lost);
                    }
                    break 'burst;
                }
                self.available.notify_all();
                if let Some(freed) = inner.take_retired() {
                    drop(inner);
                    inner = self.free_and_relock(freed);
                    continue;
                }
                inner.stats.producer_waits += 1;
                // analysis: allow(blocking, reason = "producer backpressure: no room for an unseen sample — waiting here IS the policy")
                self.not_full.wait(&mut inner.guard);
            }
            if let Some(evicted) = inner.policy.insert(item, self.capacity) {
                inner.stats.evictions += 1;
                // Only samples that were served at least once are evictable:
                // recovery accounting keeps them as trained.
                if let Some(observer) = &inner.observer {
                    observer(&evicted, Evicted::Trained);
                }
                inner.retired.push(evicted);
            }
            inner.stats.puts += 1;
        }
        let freed = inner.take_retired();
        drop(inner);
        self.available.notify_all();
        if let Some(freed) = freed {
            drop(self.free_and_relock(freed));
        }
    }

    // analysis: hot_path
    fn get_batch_with(&self, n: usize, visit: &mut dyn FnMut(&T)) -> usize {
        let served = self.serve_quietly(n, visit);
        self.wake_producers();
        served
    }

    fn free_retired(&self) {
        let mut inner = self.lock_inner();
        let freed = inner.take_retired();
        drop(inner);
        if let Some(freed) = freed {
            drop(self.free_and_relock(freed));
        }
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
        self.lock_inner().policy.len()
    }

    fn capacity(&self) -> usize {
        self.capacity
    }

    fn stats(&self) -> BufferStats {
        self.lock_inner().stats
    }

    fn kind(&self) -> BufferKind {
        P::KIND
    }
}

/// A sub-buffer of [`crate::ShardedBuffer`]: it serves without waking its
/// producers, which the facade does once per batch for each shard it drew
/// from instead of once per sample.
pub(crate) trait Shard<T: Clone + Send>: TrainingBuffer<T> {
    /// [`TrainingBuffer::get_batch_with`] without the closing wake-up of the
    /// producers waiting for room.
    fn serve_quietly(&self, n: usize, visit: &mut dyn FnMut(&T)) -> usize;

    /// Wakes the producers waiting for room.
    fn wake_producers(&self);
}

impl<T: Clone + Send, P: Policy<T>> Shard<T> for Shell<T, P> {
    /// One lock acquisition per batch. Per sample: wait while the population
    /// is at or below the gate (lifted once reception is over), then let the
    /// policy select and serve one. Ends early only when reception is over
    /// and the buffer has emptied.
    // analysis: hot_path
    fn serve_quietly(&self, n: usize, visit: &mut dyn FnMut(&T)) -> usize {
        // analysis: allow(blocking, reason = "one bounded lock acquisition per batch is the serving contract; contention is with producers only")
        let mut inner = self.lock_inner();
        let mut served = 0;
        while served < n {
            let draining = inner.reception_over;
            let gate = if draining { 0 } else { self.gate };
            if inner.policy.len() > gate {
                let Inner {
                    policy, retired, ..
                } = &mut *inner;
                let repeated = policy.serve(draining, served, visit, retired);
                inner.stats.gets += 1;
                inner.stats.repeated_gets += usize::from(repeated);
                served += 1;
            } else if draining {
                break;
            } else {
                inner.stats.consumer_waits += 1;
                self.not_full.notify_all();
                // analysis: allow(blocking, reason = "consumer backpressure: population at or below the gate while reception is live — waiting here IS the policy")
                self.available.wait(&mut inner.guard);
            }
        }
        served
    }

    fn wake_producers(&self) {
        self.not_full.notify_all();
    }
}

#[cfg(test)]
mod tests {
    use crate::traits::{BufferConfig, BufferKind, TrainingBuffer};
    use crate::{lock_order, FifoBuffer, FiroBuffer, ReservoirBuffer, ShardedBuffer};
    use parking_lot::Mutex;
    use std::sync::Arc;
    use std::thread::{self, ThreadId};

    /// A sample that records which thread dropped it. Its drop also claims
    /// the shell's lock rank, so a debug build panics if a sample is ever
    /// dropped while that thread holds a buffer lock.
    #[derive(Clone)]
    struct Tracked(Arc<Mutex<Vec<ThreadId>>>);

    impl Drop for Tracked {
        fn drop(&mut self) {
            if !thread::panicking() {
                let _not_under_a_buffer_lock = lock_order::acquire(lock_order::RANK_SUB_BUFFER);
            }
            self.0.lock().push(thread::current().id());
        }
    }

    fn burst(drops: &Arc<Mutex<Vec<ThreadId>>>, n: usize) -> Vec<Tracked> {
        (0..n).map(|_| Tracked(Arc::clone(drops))).collect()
    }

    /// Serves `n` samples by borrow on a consumer thread of its own.
    fn serve_on_another_thread(buffer: &dyn TrainingBuffer<Tracked>, n: usize) {
        thread::scope(|scope| {
            scope
                .spawn(|| assert_eq!(buffer.get_batch_with(n, &mut |_| {}), n))
                .join()
                .unwrap();
        });
    }

    /// The producer (this thread) puts two bursts of 8, the consumer serves
    /// 8, then the producer puts two bursts of 4, which free the 8 served
    /// ones; finally reception ends, the consumer drains the other 16 and an
    /// idle release frees them. Every drop happens on this thread, at those
    /// two points. Bursts come in pairs so that a 2-shard facade, whose
    /// trait-level puts alternate shards, releases both.
    fn served_samples_die_on_the_producer(buffer: &dyn TrainingBuffer<Tracked>) {
        let drops = Arc::new(Mutex::new(Vec::new()));
        let producer = thread::current().id();
        buffer.put_many(&mut burst(&drops, 8));
        buffer.put_many(&mut burst(&drops, 8));
        serve_on_another_thread(buffer, 8);
        assert!(
            drops.lock().is_empty(),
            "{}: served samples wait",
            buffer.name()
        );

        buffer.put_many(&mut burst(&drops, 4));
        buffer.put_many(&mut burst(&drops, 4));
        assert_eq!(*drops.lock(), vec![producer; 8], "{}", buffer.name());

        buffer.mark_reception_over();
        serve_on_another_thread(buffer, 16);
        assert!(buffer.is_empty());
        assert_eq!(
            drops.lock().len(),
            8,
            "{}: drained samples wait",
            buffer.name()
        );
        buffer.free_retired();
        assert_eq!(*drops.lock(), vec![producer; 24], "{}", buffer.name());
    }

    #[test]
    fn the_consumer_never_drops_a_served_sample() {
        let fifo = FifoBuffer::new(32);
        served_samples_die_on_the_producer(&fifo);
        assert_eq!(fifo.retired_len(), 0);

        let firo = FiroBuffer::new(32, 4, 7);
        served_samples_die_on_the_producer(&firo);
        assert_eq!(firo.retired_len(), 0);

        // Two shards of 16: the trait-level puts alternate between them, and
        // the facade's release frees both.
        let sharded = ShardedBuffer::new(
            &BufferConfig {
                kind: BufferKind::Firo,
                capacity: 32,
                threshold: 4,
                seed: 7,
            },
            2,
        );
        served_samples_die_on_the_producer(&sharded);
    }

    #[test]
    fn a_producer_blocked_mid_burst_frees_before_it_waits() {
        let drops = Arc::new(Mutex::new(Vec::new()));
        let buffer = FifoBuffer::new(4);
        thread::scope(|scope| {
            let producer = scope.spawn(|| {
                buffer.put_many(&mut burst(&drops, 12));
                thread::current().id()
            });
            let waited = |waits: usize| {
                while buffer.stats().producer_waits < waits {
                    thread::yield_now();
                }
            };
            waited(1);
            assert_eq!(buffer.get_batch_with(4, &mut |_| {}), 4);
            // The producer stores four more, finds no room, and frees the
            // four served samples before it waits again.
            waited(2);
            assert!(!producer.is_finished());
            assert_eq!(drops.lock().len(), 4);
            // The other eight: the burst's end frees what was served before
            // it, an idle release the rest.
            assert_eq!(buffer.get_batch_with(8, &mut |_| {}), 8);
            let producer = producer.join().unwrap();
            assert_eq!(*drops.lock(), vec![producer; 8]);
        });
        buffer.free_retired();
        assert_eq!(drops.lock().len(), 12);
        assert_eq!(buffer.retired_len(), 0);
    }

    #[test]
    fn an_idle_shard_frees_what_it_served() {
        let drops = Arc::new(Mutex::new(Vec::new()));
        let buffer = ShardedBuffer::new(
            &BufferConfig {
                kind: BufferKind::Firo,
                capacity: 32,
                threshold: 0,
                seed: 3,
            },
            2,
        );
        buffer.put_many_shard(0, &mut burst(&drops, 6));
        buffer.put_many_shard(1, &mut burst(&drops, 6));
        serve_on_another_thread(&buffer, 12);
        assert!(drops.lock().is_empty());
        buffer.free_retired_shard(1);
        assert_eq!(
            drops.lock().len(),
            6,
            "shard 1's release frees shard 1 only"
        );
        buffer.free_retired_shard(0);
        assert_eq!(*drops.lock(), vec![thread::current().id(); 12]);
    }

    #[test]
    fn the_draining_reservoir_and_its_evictions_retire_to_the_producer() {
        let drops = Arc::new(Mutex::new(Vec::new()));
        let producer = thread::current().id();
        let buffer = ReservoirBuffer::new(8, 1, 5);
        buffer.put_many(&mut burst(&drops, 8));
        // Serving with reception open keeps every sample.
        serve_on_another_thread(&buffer, 8);
        buffer.free_retired();
        assert!(drops.lock().is_empty());
        // A full buffer of seen samples: each put evicts one, and the same
        // `put_many` frees it once the lock is released.
        buffer.put_many(&mut burst(&drops, 3));
        assert_eq!(buffer.stats().evictions, 3);
        assert_eq!(*drops.lock(), vec![producer; 3]);
        assert_eq!(buffer.retired_len(), 0);

        buffer.mark_reception_over();
        serve_on_another_thread(&buffer, 8);
        assert!(buffer.is_empty());
        assert_eq!(
            drops.lock().len(),
            3,
            "drained samples wait for the producer"
        );
        assert_eq!(buffer.retired_len(), 8);
        buffer.free_retired();
        assert_eq!(*drops.lock(), vec![producer; 11]);
        assert_eq!(buffer.retired_len(), 0);
    }

    #[test]
    fn a_shut_down_buffer_retires_the_burst_it_refuses() {
        let drops = Arc::new(Mutex::new(Vec::new()));
        let buffer = FifoBuffer::new(2);
        buffer.put_many(&mut burst(&drops, 2));
        buffer.mark_reception_over();
        let mut refused = burst(&drops, 3);
        buffer.put_many(&mut refused);
        assert!(refused.is_empty());
        assert_eq!(*drops.lock(), vec![thread::current().id(); 3]);
        assert_eq!(buffer.len(), 2);
        assert_eq!(buffer.retired_len(), 0);
    }
}
