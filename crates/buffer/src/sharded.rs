//! A sharded training-buffer facade: N per-shard sub-buffers behind the
//! [`TrainingBuffer`] trait.
//!
//! One rank used to own exactly one training buffer fed by exactly one
//! data-aggregator thread. With ingestion sharded across several aggregator
//! threads per rank, the buffer becomes the contention point: every
//! `put_many` of every shard worker would serialise on the same lock. The
//! [`ShardedBuffer`] removes that wall:
//!
//! * **Producer side** — each shard worker inserts through
//!   [`ShardedBuffer::put_many_shard`] into *its own* sub-buffer, so shard
//!   workers never contend on a buffer lock (they only touch a tiny facade
//!   mutex to wake a waiting consumer). The worker also frees the samples
//!   its shard served, inside each burst and through
//!   [`ShardedBuffer::free_retired_shard`] while idle.
//! * **Consumer side** — [`TrainingBuffer::get_batch_with`] draws each
//!   served sample from a shard chosen **uniformly over the total stored
//!   population** (a shard holding twice the samples is drawn twice as
//!   often), then lets the shard's own policy pick the sample. The blocking
//!   threshold applies to the *total* population across shards, exactly like
//!   the unsharded policy applies it to its single population.
//!
//! ## Seed policy (version 2)
//!
//! With `shards == 1` the facade holds the unsharded buffer, built with the
//! caller's exact capacity, threshold and seed, and hands it every batch
//! whole, so the single-shard pipeline is indistinguishable from the
//! unsharded one — whatever streams that policy draws (see
//! `analysis/seed_policy.toml`) are reproduced bit for bit.
//!
//! With `shards > 1` a second, independent stream is added — version 2: the
//! facade owns a `ChaCha8` RNG seeded with [`shard_draw_seed`] that decides
//! *which shard* serves each sample, and sub-buffer `i` is seeded with
//! [`shard_seed`]`(seed, i)` (shard 0 keeps the base seed). Both derivations
//! are deterministic functions of the configured seed, so the same seed and
//! the same shard count reproduce the same serving decisions whenever the
//! stored populations evolve the same way.

use crate::build_shard;
use crate::lock_order;
use crate::shell::Shard;
use crate::stats::BufferStats;
use crate::traits::{BufferConfig, BufferKind, EvictionObserver, TrainingBuffer};
use parking_lot::{Condvar, Mutex};
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;

/// Seed of sub-buffer `shard` under seed-policy version 2. Shard 0 keeps the
/// base seed (which is how `shards == 1` reproduces the unsharded streams);
/// the others are offset by a golden-ratio stride so neighbouring shards
/// never share an RNG stream.
pub fn shard_seed(base: u64, shard: usize) -> u64 {
    base.wrapping_add((shard as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15))
}

/// Seed of the facade's shard-draw RNG (seed-policy version 2). Tagged with
/// the policy version so a future version 3 can change the derivation
/// without colliding with this stream.
pub fn shard_draw_seed(base: u64) -> u64 {
    base ^ 0x5EED_0002_5EED_0002
}

/// Consumer-side state: the versioned shard-draw RNG. Holding this lock for
/// the whole batch also serialises concurrent consumers, which is what makes
/// the "a non-empty shard serves without blocking" invariant hold (producers
/// only ever grow a shard's population; the Reservoir's eviction-on-put
/// replaces a sample, never shrinking it).
struct DrawState {
    rng: ChaCha8Rng,
    /// Reusable scratch for the per-sample shard populations, so the serving
    /// loop allocates nothing in steady state.
    lens: Vec<usize>,
    /// The shards served from since their producers were last woken.
    served_from: Vec<bool>,
}

/// N per-shard sub-buffers of one policy behind the [`TrainingBuffer`] trait.
///
/// Built from the same [`BufferConfig`] as the unsharded policies; with
/// `shards == 1` the single sub-buffer is that policy and serves every batch
/// whole, bit for bit. With `shards > 1` each sub-buffer gets
/// `capacity.div_ceil(shards)` slots (raised to `gate + 1` so a fully skewed
/// client→shard mapping can still cross the serving gate) and a zero
/// per-shard threshold: the gate — the configured threshold, or 0 for FIFO,
/// which ignores it — applies to the **total** population at the facade.
pub struct ShardedBuffer<T: Clone + Send + 'static> {
    shards: Vec<Box<dyn Shard<T>>>,
    /// Facade-level serving gate: total population must exceed this before
    /// samples may be served (0 for FIFO; lifted once reception is over).
    gate: usize,
    draw: Mutex<DrawState>,
    /// Facade wait lock + condvar: consumers wait here when nothing may be
    /// served; producers notify after every shard insertion.
    wait: Mutex<()>,
    ready: Condvar,
    reception_over: AtomicBool,
    /// Round-robin cursor of the trait-level [`TrainingBuffer::put_many`].
    next_put_shard: AtomicUsize,
    /// Times a consumer waited at the facade gate (added to the summed
    /// sub-buffer `consumer_waits` in [`TrainingBuffer::stats`]).
    facade_waits: AtomicUsize,
}

impl<T: Clone + Send + 'static> ShardedBuffer<T> {
    /// Builds `shards` sub-buffers of the configured policy.
    ///
    /// # Panics
    /// Panics when `shards` is zero or the configuration would panic the
    /// underlying policy constructor (zero capacity, threshold ≥ capacity).
    pub fn new(config: &BufferConfig, shards: usize) -> Self {
        assert!(shards > 0, "need at least one ingest shard");
        let gate = match config.kind {
            BufferKind::Fifo => 0,
            BufferKind::Firo | BufferKind::Reservoir => config.threshold,
        };
        let sub_buffers: Vec<Box<dyn Shard<T>>> = if shards == 1 {
            // The exact unsharded buffer, gating itself.
            vec![build_shard::<T>(config)]
        } else {
            let per_shard_capacity = config.capacity.div_ceil(shards).max(gate + 1);
            (0..shards)
                .map(|shard| {
                    build_shard::<T>(&BufferConfig {
                        kind: config.kind,
                        capacity: per_shard_capacity,
                        threshold: 0,
                        seed: shard_seed(config.seed, shard),
                    })
                })
                .collect()
        };
        Self {
            shards: sub_buffers,
            gate,
            draw: Mutex::new(DrawState {
                rng: ChaCha8Rng::seed_from_u64(shard_draw_seed(config.seed)),
                lens: vec![0; shards],
                served_from: vec![false; shards],
            }),
            wait: Mutex::new(()),
            ready: Condvar::new(),
            reception_over: AtomicBool::new(false),
            next_put_shard: AtomicUsize::new(0),
            facade_waits: AtomicUsize::new(0),
        }
    }

    /// Number of shards.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// Population of one shard.
    pub fn shard_len(&self, shard: usize) -> usize {
        self.shards[shard].len()
    }

    /// Inserts every sample drained from `items` into shard `shard` under
    /// that shard's lock only — the shard workers' ingestion path. Blocking
    /// semantics are the sub-buffer's own (`put_many` of the policy); a
    /// waiting consumer is woken afterwards.
    pub fn put_many_shard(&self, shard: usize, items: &mut Vec<T>) {
        if items.is_empty() {
            return;
        }
        self.shards[shard].put_many(items);
        self.notify_consumers();
    }

    /// Frees, on the calling thread, the samples shard `shard` retired since
    /// its last release: the idle poll of that shard's ingest worker.
    pub fn free_retired_shard(&self, shard: usize) {
        self.shards[shard].free_retired();
    }

    /// Wakes consumers waiting at the facade gate. The wait lock is taken
    /// (empty critical section) so a consumer re-checking the populations
    /// under that lock can never miss the notification.
    fn notify_consumers(&self) {
        let _wait_rank = lock_order::acquire(lock_order::RANK_WAIT);
        // analysis: allow(blocking, reason = "empty critical section pairs with the consumer's under-lock re-check; skipping it would lose wake-ups")
        drop(self.wait.lock());
        self.ready.notify_all();
    }

    /// The cross-shard serving core (`shards > 1`): serves up to `n` samples,
    /// drawing the serving shard of each from the version-2 RNG weighted by
    /// the shard populations. The drawn shard is non-empty and serves its one
    /// sample without blocking: every sub-buffer has a zero threshold and
    /// consumers are serialised by the draw lock (populations cannot shrink
    /// underneath us).
    fn serve_across_shards(&self, n: usize, visit: &mut dyn FnMut(&T)) -> usize {
        if n == 0 {
            return 0;
        }
        let _draw_rank = lock_order::acquire(lock_order::RANK_DRAW);
        let mut draw = self.draw.lock();
        let mut served = 0;
        // Whether the *current* blocked episode has been counted already: the
        // 1 ms re-check loop below must count one consumer wait per episode,
        // like the plain policies do, not one per poll.
        let mut wait_counted = false;
        while served < n {
            let draw_state = &mut *draw;
            for (len, shard) in draw_state.lens.iter_mut().zip(&self.shards) {
                *len = shard.len();
            }
            let total: usize = draw_state.lens.iter().sum();
            // ordering: Acquire — pairs with the Release store in mark_reception_over so the final shard inserts are visible before we decide to drain-and-exit
            let over = self.reception_over.load(Ordering::Acquire);
            if over {
                if total == 0 {
                    break;
                }
            } else if total <= self.gate || total == 0 {
                // Room made before the wait must not strand a producer.
                self.wake_served(&mut draw_state.served_from);
                // Wait at the facade gate; re-check under the wait lock so a
                // producer's insert+notify cannot slip between check and wait.
                // The wait is timed: a producer that fills its shard mid-burst
                // blocks *inside* the sub-buffer's `put_many` — after having
                // made its insertions visible but before reaching the facade
                // notification — so the only wake-up for those samples is this
                // re-check.
                if !wait_counted {
                    // ordering: Relaxed — stats tally only, read after the run quiesces
                    self.facade_waits.fetch_add(1, Ordering::Relaxed);
                    wait_counted = true;
                }
                let _wait_rank = lock_order::acquire(lock_order::RANK_WAIT);
                let mut guard = self.wait.lock();
                let recheck: usize = self.shards.iter().map(|s| s.len()).sum();
                // ordering: Acquire — same pairing as the gate check above, re-examined under the wait lock
                if !self.reception_over.load(Ordering::Acquire)
                    && (recheck <= self.gate || recheck == 0)
                {
                    self.ready
                        .wait_for(&mut guard, std::time::Duration::from_millis(1));
                }
                continue;
            }
            wait_counted = false;
            let mut pick = draw_state.rng.gen_range(0..total);
            let mut shard = 0;
            for (i, &len) in draw_state.lens.iter().enumerate() {
                if pick < len {
                    shard = i;
                    break;
                }
                pick -= len;
            }
            served += self.shards[shard].serve_quietly(1, visit);
            draw_state.served_from[shard] = true;
        }
        self.wake_served(&mut draw.served_from);
        drop(draw);
        served
    }

    /// Wakes the producers of each shard served from since the last call,
    /// once per shard.
    fn wake_served(&self, served_from: &mut [bool]) {
        for (shard, served) in self.shards.iter().zip(served_from) {
            if std::mem::take(served) {
                shard.wake_producers();
            }
        }
    }
}

impl<T: Clone + Send + 'static> TrainingBuffer<T> for ShardedBuffer<T> {
    /// Trait-level insertion: each burst goes whole to the next shard in
    /// round-robin order (the sharded ingestion path addresses shards
    /// explicitly through [`ShardedBuffer::put_many_shard`] instead).
    fn put_many(&self, items: &mut Vec<T>) {
        // ordering: Relaxed — round-robin cursor; the sub-buffer's own lock orders the insert itself
        let shard = self.next_put_shard.fetch_add(1, Ordering::Relaxed) % self.shards.len();
        self.put_many_shard(shard, items);
    }

    fn get_batch_with(&self, n: usize, visit: &mut dyn FnMut(&T)) -> usize {
        // One shard gates and selects for itself: handing it the batch whole
        // (one lock acquisition, one Reservoir base draw) is what makes the
        // facade bit-identical to the unsharded buffer.
        if let [only] = self.shards.as_slice() {
            return only.get_batch_with(n, visit);
        }
        self.serve_across_shards(n, visit)
    }

    fn free_retired(&self) {
        for shard in &self.shards {
            shard.free_retired();
        }
    }

    /// Installs the observer on every sub-buffer (each shard evicts or drops
    /// independently under its own lock).
    fn set_eviction_observer(&self, observer: EvictionObserver<T>) {
        for shard in &self.shards {
            shard.set_eviction_observer(Arc::clone(&observer));
        }
    }

    fn mark_reception_over(&self) {
        // ordering: Release — publishes every insert made before end-of-reception to the Acquire loads in serve_across_shards and is_reception_over
        self.reception_over.store(true, Ordering::Release);
        for shard in &self.shards {
            shard.mark_reception_over();
        }
        self.notify_consumers();
    }

    fn is_reception_over(&self) -> bool {
        // ordering: Acquire — pairs with the Release store in mark_reception_over; callers may read shard contents after observing true
        self.reception_over.load(Ordering::Acquire)
    }

    fn len(&self) -> usize {
        self.shards.iter().map(|s| s.len()).sum()
    }

    fn capacity(&self) -> usize {
        self.shards.iter().map(|s| s.capacity()).sum()
    }

    /// Summed counters of every shard, plus the facade-gate consumer waits.
    fn stats(&self) -> BufferStats {
        let mut total = BufferStats::default();
        for shard in &self.shards {
            let s = shard.stats();
            total.puts += s.puts;
            total.gets += s.gets;
            total.repeated_gets += s.repeated_gets;
            total.evictions += s.evictions;
            total.producer_waits += s.producer_waits;
            total.consumer_waits += s.consumer_waits;
        }
        // ordering: Relaxed — stats snapshot of a monotonic tally
        total.consumer_waits += self.facade_waits.load(Ordering::Relaxed);
        total
    }

    fn kind(&self) -> BufferKind {
        self.shards[0].kind()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::build_buffer;
    use std::collections::HashSet;
    use std::sync::Arc;
    use std::time::Duration;

    fn config(kind: BufferKind) -> BufferConfig {
        BufferConfig {
            kind,
            capacity: 32,
            threshold: 4,
            seed: 11,
        }
    }

    /// One shard must replay the unsharded policy bit for bit: same served
    /// sequence, same stats, same population trajectory.
    #[test]
    fn one_shard_delegates_bit_identically_for_every_policy() {
        for kind in BufferKind::ALL {
            let cfg = config(kind);
            let plain = build_buffer::<u32>(&cfg);
            let sharded = ShardedBuffer::<u32>::new(&cfg, 1);

            let drive = |buffer: &dyn TrainingBuffer<u32>| {
                let mut served = Vec::new();
                let mut items: Vec<u32> = (0..20).collect();
                buffer.put_many(&mut items);
                buffer.get_batch(6, &mut served);
                buffer.get_batch_with(3, &mut |v| served.push(*v));
                let mut items: Vec<u32> = (100..110).collect();
                buffer.put_many(&mut items);
                buffer.mark_reception_over();
                while buffer.get_batch(7, &mut served) > 0 {}
                (served, buffer.stats(), buffer.len())
            };
            assert_eq!(drive(plain.as_ref()), drive(&sharded), "{kind:?}");
        }
    }

    #[test]
    fn two_shards_serve_every_sample_exactly_once_for_draining_policies() {
        for kind in [BufferKind::Fifo, BufferKind::Firo] {
            // 64 capacity over 2 shards = 32 per shard: both fills below fit
            // without needing a concurrent consumer.
            let buffer = ShardedBuffer::<u32>::new(
                &BufferConfig {
                    capacity: 64,
                    ..config(kind)
                },
                2,
            );
            let mut evens: Vec<u32> = (0..40).step_by(2).collect();
            let mut odds: Vec<u32> = (0..40).skip(1).step_by(2).collect();
            buffer.put_many_shard(0, &mut evens);
            buffer.put_many_shard(1, &mut odds);
            assert_eq!(buffer.len(), 40);
            buffer.mark_reception_over();
            let mut served = Vec::new();
            while buffer.get_batch(7, &mut served) > 0 {}
            assert_eq!(served.len(), 40, "{kind:?}");
            let unique: HashSet<u32> = served.iter().copied().collect();
            assert_eq!(unique.len(), 40, "{kind:?}: no duplicates, nothing lost");
            assert!(buffer.is_empty());
        }
    }

    #[test]
    fn two_shard_reservoir_serves_everything_at_least_once() {
        let buffer = ShardedBuffer::<u32>::new(
            &BufferConfig {
                capacity: 64,
                ..config(BufferKind::Reservoir)
            },
            2,
        );
        let mut a: Vec<u32> = (0..16).collect();
        let mut b: Vec<u32> = (16..40).collect();
        buffer.put_many_shard(0, &mut a);
        buffer.put_many_shard(1, &mut b);
        // Pre-drain serving keeps the population (Reservoir semantics).
        let mut seen = Vec::new();
        assert_eq!(buffer.get_batch_with(10, &mut |v| seen.push(*v)), 10);
        assert_eq!(buffer.len(), 40);
        buffer.mark_reception_over();
        while buffer.get_batch(9, &mut seen) > 0 {}
        let unique: HashSet<u32> = seen.iter().copied().collect();
        assert_eq!(unique.len(), 40, "unseen data must never be lost");
    }

    #[test]
    fn threshold_gates_on_the_total_population_across_shards() {
        let buffer = Arc::new(ShardedBuffer::<u32>::new(&config(BufferKind::Reservoir), 2));
        // 3 samples in shard 0: total (3) <= threshold (4), so serving waits.
        let mut items: Vec<u32> = vec![1, 2, 3];
        buffer.put_many_shard(0, &mut items);
        let consumer = Arc::clone(&buffer);
        let handle = std::thread::spawn(move || {
            let mut out = Vec::new();
            consumer.get_batch(2, &mut out);
            out.len()
        });
        std::thread::sleep(Duration::from_millis(30));
        assert!(!handle.is_finished(), "total at threshold must block");
        // Two more in the *other* shard push the total over the threshold.
        let mut items: Vec<u32> = vec![4, 5];
        buffer.put_many_shard(1, &mut items);
        assert_eq!(handle.join().unwrap(), 2);
        assert!(buffer.stats().consumer_waits >= 1);
    }

    #[test]
    fn producer_blocks_on_its_own_full_shard_only() {
        let cfg = BufferConfig {
            kind: BufferKind::Fifo,
            capacity: 8,
            threshold: 1,
            seed: 3,
        };
        // 2 shards ⇒ 4 slots each.
        let buffer = Arc::new(ShardedBuffer::<u32>::new(&cfg, 2));
        let mut items: Vec<u32> = (0..4).collect();
        buffer.put_many_shard(0, &mut items);
        let producer = Arc::clone(&buffer);
        let handle = std::thread::spawn(move || {
            let mut items: Vec<u32> = vec![99];
            producer.put_many_shard(0, &mut items);
        });
        std::thread::sleep(Duration::from_millis(30));
        assert!(!handle.is_finished(), "shard 0 is full, its producer waits");
        // The other shard still accepts without blocking.
        let mut items: Vec<u32> = vec![7];
        buffer.put_many_shard(1, &mut items);
        // Consuming frees shard 0 and unblocks its producer. Guard on the
        // population so this loop never blocks at the facade gate itself.
        let mut out = Vec::new();
        while !handle.is_finished() {
            if buffer.len() > 0 {
                buffer.get_batch(1, &mut out);
            }
            std::thread::sleep(Duration::from_millis(2));
        }
        handle.join().unwrap();
    }

    #[test]
    fn same_seed_and_shard_count_reproduce_the_serving_stream() {
        let run = |seed: u64| {
            let cfg = BufferConfig {
                kind: BufferKind::Reservoir,
                capacity: 32,
                threshold: 2,
                seed,
            };
            let buffer = ShardedBuffer::<u32>::new(&cfg, 2);
            let mut a: Vec<u32> = (0..10).collect();
            let mut b: Vec<u32> = (10..24).collect();
            buffer.put_many_shard(0, &mut a);
            buffer.put_many_shard(1, &mut b);
            let mut out = Vec::new();
            buffer.get_batch(16, &mut out);
            buffer.mark_reception_over();
            while buffer.get_batch(5, &mut out) > 0 {}
            out
        };
        assert_eq!(run(9), run(9));
        assert_ne!(run(9), run(10));
    }

    #[test]
    fn trait_level_put_round_robins_across_shards() {
        let buffer = ShardedBuffer::<u32>::new(&config(BufferKind::Fifo), 2);
        for k in 0..10 {
            buffer.put(k);
        }
        assert_eq!(buffer.shard_len(0), 5);
        assert_eq!(buffer.shard_len(1), 5);
        buffer.mark_reception_over();
        assert!(buffer.is_reception_over());
        let mut out = Vec::new();
        while buffer.get().is_some() {
            out.push(());
        }
        assert_eq!(out.len(), 10);
    }

    #[test]
    fn facade_reports_summed_capacity_stats_and_kind() {
        let cfg = config(BufferKind::Reservoir);
        let buffer = ShardedBuffer::<u32>::new(&cfg, 4);
        assert_eq!(buffer.shard_count(), 4);
        assert_eq!(buffer.kind(), BufferKind::Reservoir);
        // 32 capacity over 4 shards ⇒ 8 each.
        assert_eq!(buffer.capacity(), 32);
        let mut items: Vec<u32> = (0..6).collect();
        buffer.put_many_shard(2, &mut items);
        assert_eq!(buffer.len(), 6);
        assert_eq!(buffer.stats().puts, 6);
    }

    /// Shards are raised to `gate + 1` slots so a skewed mapping can still
    /// cross the gate — and FIFO's gate is 0 whatever the configured
    /// threshold, so a sharded FIFO keeps the memory bound it was given.
    #[test]
    fn capacity_is_sized_from_the_gate_for_every_kind_and_shard_count() {
        for (kind, expected) in [
            (BufferKind::Fifo, [1000, 1000, 1000]),
            (BufferKind::Firo, [1000, 1802, 3604]),
            (BufferKind::Reservoir, [1000, 1802, 3604]),
        ] {
            let cfg = BufferConfig {
                kind,
                capacity: 1000,
                threshold: 900,
                seed: 1,
            };
            for (shards, expected) in [1, 2, 4].into_iter().zip(expected) {
                let buffer = ShardedBuffer::<u32>::new(&cfg, shards);
                assert_eq!(buffer.capacity(), expected, "{kind:?} x {shards}");
            }
        }
    }

    #[test]
    fn seed_derivations_are_stable_and_distinct() {
        assert_eq!(shard_seed(42, 0), 42, "shard 0 keeps the base seed");
        assert_ne!(shard_seed(42, 1), shard_seed(42, 2));
        assert_ne!(shard_draw_seed(42), 42);
        assert_eq!(shard_draw_seed(42), shard_draw_seed(42));
    }

    #[test]
    #[should_panic(expected = "at least one ingest shard")]
    fn zero_shards_rejected() {
        let _ = ShardedBuffer::<u32>::new(&config(BufferKind::Fifo), 0);
    }

    #[test]
    fn serving_under_the_tracker_respects_the_declared_order() {
        // End-to-end through the debug tracker: the facade's serve path
        // nests draw(10) -> wait(20) -> sub-buffer(30) and the shard
        // ingestion path takes sub-buffer(30) then wait(20) *sequentially*;
        // any mis-nesting panics inside `lock_order::acquire`.
        let buffer = ShardedBuffer::new(&config(BufferKind::Reservoir), 3);
        for shard in 0..3 {
            let mut items: Vec<u32> = (0..8).collect();
            buffer.put_many_shard(shard, &mut items);
        }
        let mut out = Vec::new();
        assert_eq!(buffer.get_batch(12, &mut out), 12);
        buffer.mark_reception_over();
    }
}
