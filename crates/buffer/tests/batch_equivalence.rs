//! Equivalence proptests for the buffer API's conveniences.
//!
//! `put`, `get` and `get_batch` are provided by `TrainingBuffer` on top of the
//! two calls an implementation writes, `put_many` and `get_batch_with`: a
//! `put` is a burst of one, a `get` a batch of one, `get_batch` a visit that
//! clones. Driving a buffer sample by sample must therefore be
//! *observationally identical* to driving it in bursts and batches: same
//! served sequence (hence the same RNG stream for the randomised policies),
//! same population trajectory, same instrumentation counters and the same
//! drain/termination behaviour. Randomised interleavings of insert and
//! extract chunks are replayed against identically seeded buffers, one driven
//! sequentially and one driven batch-wise, and every intermediate observation
//! is compared.
//!
//! Exception: the Reservoir draws the versioned per-batch stream
//! "reservoir-draw-v2" (one RNG draw per batch, SplitMix64-expanded), and n
//! batches of one draw n bases where one batch of n draws one, so it stays out
//! of the sequential-vs-batched case. Its stream is pinned by `get_batch` ≡
//! `get_batch_with` below, the derivation regression in
//! `crates/buffer/src/reservoir.rs` and the literals of `stream_pins.rs`.

use proptest::prelude::*;
use training_buffer::{build_buffer, BufferConfig, BufferKind, BufferStats};

/// How the schedule drives the buffer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Mode {
    /// One `put`/`get` call per sample.
    Sequential,
    /// One `put_many`/`get_batch` call per chunk.
    Batched,
    /// `put_many` plus the borrow-based `get_batch_with` visitor.
    Visited,
}

/// One observation point: served samples so far, population and counters.
#[derive(Debug, Clone, PartialEq, Eq)]
struct Trace {
    served: Vec<u32>,
    populations: Vec<usize>,
    stats: BufferStats,
}

/// Replays `ops` (alternating put/get chunk intents) against a fresh buffer.
/// Chunk sizes are clamped so no call can block — the clamping only looks at
/// the population and the configured threshold/capacity, so it is identical
/// across modes as long as the population trajectories agree (which is
/// exactly what the test asserts).
fn run_schedule(config: &BufferConfig, ops: &[(bool, usize)], mode: Mode) -> Trace {
    let buffer = build_buffer::<u32>(config);
    let buffer = buffer.as_ref();
    let mut served: Vec<u32> = Vec::new();
    let mut populations = Vec::new();
    let mut next_value = 0u32;
    for &(is_put, amount) in ops {
        if is_put {
            // Never block: `put` waits only when the buffer is full — for the
            // Reservoir, when the *unseen* side is full (the unseen population
            // is recoverable from the counters pre-drain: every put inserts an
            // unseen sample and every first serve moves one to the seen side),
            // so insertion beyond the total capacity still proceeds there by
            // evicting seen samples, which keeps the eviction draws exercised.
            let room = match config.kind {
                BufferKind::Reservoir => {
                    let stats = buffer.stats();
                    let unseen = stats.puts - (stats.gets - stats.repeated_gets);
                    config.capacity - unseen
                }
                _ => config.capacity - buffer.len(),
            };
            let k = amount.min(room);
            let chunk: Vec<u32> = (next_value..next_value + k as u32).collect();
            next_value += k as u32;
            match mode {
                Mode::Sequential => {
                    for v in chunk {
                        buffer.put(v);
                    }
                }
                Mode::Batched | Mode::Visited => {
                    let mut chunk = chunk;
                    buffer.put_many(&mut chunk);
                    assert!(chunk.is_empty(), "put_many must drain its scratch");
                }
            }
        } else {
            // Never cross the blocking threshold mid-batch: each extraction
            // requires population > threshold and may shrink the population by
            // one (FIFO/FIRO). The Reservoir never shrinks pre-drain, so any
            // batch size is servable once it is past the threshold — including
            // batches larger than the population, which pins the repeats.
            let servable = match config.kind {
                BufferKind::Reservoir => {
                    if buffer.len() > config.threshold {
                        amount
                    } else {
                        0
                    }
                }
                _ => buffer.len().saturating_sub(config.threshold),
            };
            let k = amount.min(servable);
            match mode {
                Mode::Sequential => {
                    for _ in 0..k {
                        served.push(buffer.get().expect("reception is not over"));
                    }
                }
                Mode::Batched => {
                    let got = buffer.get_batch(k, &mut served);
                    assert_eq!(got, k, "nothing may end a pre-drain batch early");
                }
                Mode::Visited => {
                    let got = buffer.get_batch_with(k, &mut |v| served.push(*v));
                    assert_eq!(got, k, "nothing may end a pre-drain batch early");
                }
            }
        }
        populations.push(buffer.len());
    }

    // Drain: after the end of reception every policy serves what is stored and
    // then terminates (`get` -> None, `get_batch` -> 0).
    buffer.mark_reception_over();
    match mode {
        Mode::Sequential => {
            while let Some(v) = buffer.get() {
                served.push(v);
            }
            assert!(buffer.get().is_none(), "termination must be stable");
        }
        Mode::Batched => {
            while buffer.get_batch(3, &mut served) > 0 {}
            assert_eq!(buffer.get_batch(3, &mut served), 0);
        }
        Mode::Visited => {
            while buffer.get_batch_with(3, &mut |v| served.push(*v)) > 0 {}
            assert_eq!(buffer.get_batch_with(3, &mut |_| ()), 0);
        }
    }
    populations.push(buffer.len());

    Trace {
        served,
        populations,
        stats: buffer.stats(),
    }
}

/// Strips the wait counters: blocking never happens under the clamped
/// schedules, but the batched implementations are allowed to count waits
/// differently if a future schedule reintroduces them.
fn comparable(stats: &BufferStats) -> BufferStats {
    BufferStats {
        producer_waits: 0,
        consumer_waits: 0,
        ..*stats
    }
}

fn schedule_strategy() -> impl Strategy<Value = Vec<(bool, usize)>> {
    // (is_put, chunk size in 1..=23) packed into one integer — the vendored
    // proptest has no tuple strategies.
    proptest::collection::vec(0usize..46, 1..40)
        .prop_map(|raw| raw.into_iter().map(|v| (v % 2 == 0, v / 2 + 1)).collect())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Sample-at-a-time and batched driving agree exactly for the policies
    /// that draw per sample: served sequence (which pins the RNG stream),
    /// population trajectory, counters and drain behaviour. The Reservoir is
    /// deliberately absent — it draws per batch (see the module docs).
    #[test]
    fn batched_ops_are_observationally_identical(
        capacity in 2usize..48,
        ops in schedule_strategy(),
        seed in 0u64..500,
    ) {
        let threshold = capacity / 3;
        for kind in [BufferKind::Fifo, BufferKind::Firo] {
            let config = BufferConfig { kind, capacity, threshold, seed };
            let sequential = run_schedule(&config, &ops, Mode::Sequential);
            let batched = run_schedule(&config, &ops, Mode::Batched);
            prop_assert_eq!(&sequential.served, &batched.served,
                "{:?}: get_batch diverged from sequential gets", kind);
            prop_assert_eq!(&sequential.populations, &batched.populations,
                "{:?}: population trajectory diverged", kind);
            prop_assert_eq!(comparable(&sequential.stats), comparable(&batched.stats),
                "{:?}: counters diverged", kind);
        }
    }

    /// The borrow-based visitor serves the identical stream without handing
    /// out ownership, for every policy.
    #[test]
    fn visitor_path_matches_owned_path(
        capacity in 2usize..48,
        ops in schedule_strategy(),
        seed in 0u64..500,
    ) {
        let threshold = capacity / 3;
        for kind in BufferKind::ALL {
            let config = BufferConfig { kind, capacity, threshold, seed };
            let batched = run_schedule(&config, &ops, Mode::Batched);
            let visited = run_schedule(&config, &ops, Mode::Visited);
            prop_assert_eq!(&batched.served, &visited.served,
                "{:?}: get_batch_with diverged from get_batch", kind);
            prop_assert_eq!(&batched.populations, &visited.populations,
                "{:?}: population trajectory diverged", kind);
            prop_assert_eq!(comparable(&batched.stats), comparable(&visited.stats),
                "{:?}: counters diverged", kind);
        }
    }

    /// Mixed-mode runs agree too: producing with `put_many` while consuming
    /// sample-at-a-time must not change anything — a burst only changes the
    /// lock granularity.
    #[test]
    fn mixed_batched_and_sequential_sides_agree(
        capacity in 2usize..32,
        n_items in 1usize..80,
        chunk in 1usize..9,
        seed in 0u64..200,
    ) {
        let threshold = capacity / 3;
        for kind in BufferKind::ALL {
            let config = BufferConfig { kind, capacity, threshold, seed };
            // Reference: fully sequential.
            let feed: Vec<u32> = (0..n_items as u32).collect();
            let reference = {
                let buffer = build_buffer::<u32>(&config);
                let mut served = Vec::new();
                for &v in &feed {
                    if buffer.len() >= capacity {
                        served.push(buffer.get().unwrap());
                    }
                    buffer.put(v);
                }
                buffer.mark_reception_over();
                while let Some(v) = buffer.get() {
                    served.push(v);
                }
                served
            };
            // Mixed: batched producer, sequential consumer.
            let mixed = {
                let buffer = build_buffer::<u32>(&config);
                let mut served = Vec::new();
                for group in feed.chunks(chunk) {
                    for &v in group {
                        if buffer.len() >= capacity {
                            served.push(buffer.get().unwrap());
                        }
                        let mut one = vec![v];
                        buffer.put_many(&mut one);
                    }
                }
                buffer.mark_reception_over();
                while let Some(v) = buffer.get() {
                    served.push(v);
                }
                served
            };
            prop_assert_eq!(&reference, &mixed, "{:?}: mixed-mode run diverged", kind);
        }
    }
}
