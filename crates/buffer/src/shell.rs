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
    /// (from 0), and hands it to `visit`. While `draining` (reception is
    /// over) the sample leaves the buffer. Returns whether it had been
    /// served before.
    fn serve(&mut self, draining: bool, nth: usize, visit: &mut dyn FnMut(&T)) -> bool;
}

struct Inner<T, P> {
    policy: P,
    reception_over: bool,
    stats: BufferStats,
    observer: Option<EvictionObserver<T>>,
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
}

impl<T: Clone + Send, P: Policy<T>> TrainingBuffer<T> for Shell<T, P> {
    /// One lock acquisition per burst. Per sample: wait while the policy has
    /// no room, then store it, reporting the seen sample it displaced. The
    /// consumer is woken before every wait, so a burst larger than the free
    /// room cannot strand it.
    // analysis: hot_path
    fn put_many(&self, items: &mut Vec<T>) {
        if items.is_empty() {
            return;
        }
        // analysis: allow(blocking, reason = "one bounded lock acquisition per ingest batch is the insertion contract")
        let mut inner = self.lock_inner();
        let mut pending = items.drain(..);
        while let Some(item) = pending.next() {
            while !inner.policy.has_room(self.capacity) {
                // Reception over with no room means the consumer side has
                // shut down (e.g. a server crash) and will never make any:
                // drop the rest of the burst instead of blocking forever,
                // reporting every dropped sample so recovery accounting
                // knows its data was lost. "Never discard unseen data" only
                // binds while someone is still training on it.
                if inner.reception_over {
                    if let Some(observer) = &inner.observer {
                        for lost in std::iter::once(item).chain(pending) {
                            observer(&lost, Evicted::Untrained);
                        }
                    }
                    return;
                }
                inner.stats.producer_waits += 1;
                self.available.notify_all();
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
            }
            inner.stats.puts += 1;
        }
        drop(inner);
        self.available.notify_all();
    }

    /// One lock acquisition per batch. Per sample: wait while the population
    /// is at or below the gate (lifted once reception is over), then let the
    /// policy select and serve one. Ends early only when reception is over
    /// and the buffer has emptied.
    // analysis: hot_path
    fn get_batch_with(&self, n: usize, visit: &mut dyn FnMut(&T)) -> usize {
        if n == 0 {
            return 0;
        }
        // analysis: allow(blocking, reason = "one bounded lock acquisition per batch is the serving contract; contention is with producers only")
        let mut inner = self.lock_inner();
        let mut served = 0;
        while served < n {
            let draining = inner.reception_over;
            let gate = if draining { 0 } else { self.gate };
            if inner.policy.len() > gate {
                let repeated = inner.policy.serve(draining, served, visit);
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
        drop(inner);
        self.not_full.notify_all();
        served
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
