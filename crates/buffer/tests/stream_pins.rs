//! Served-stream pins for the two entry points the pipeline calls:
//! `put_many` (through `put_many_shard`) and `get_batch_with`.
//!
//! Every `BufferKind` is driven three ways — `build_buffer`, a one-shard
//! `ShardedBuffer` and a two-shard `ShardedBuffer` — through one fixed
//! schedule of bursts and batches, then drained in batches of 3 after the
//! end of reception. The served sequence and the counters are compared with
//! literals recorded from the hand-rolled per-policy buffers, so they pin
//! every draw behind those two calls: FIRO's per-sample draw, the Reservoir's
//! eviction draw and per-batch base ("reservoir-draw-v2"), both in live and
//! in drain mode, the shard seeds and the facade's shard draw. A change to
//! any literal below is a new seed-policy version (`analysis/seed_policy.toml`),
//! never a refactor.
//!
//! The schedule never blocks: each burst and batch is clamped to what the
//! buffer can take or serve without a second thread. The clamp reads only
//! the population and the test's own record of which values were served, so
//! it is part of the pinned trajectory too.

use training_buffer::{
    build_buffer, BufferConfig, BufferKind, BufferStats, ShardedBuffer, TrainingBuffer,
};

const SHARD_CAPACITY: usize = 16;
const THRESHOLD: usize = 2;
const SEED: u64 = 33;

/// (burst, batch) intents of the twelve rounds; burst `i` goes to shard
/// `i % shards`.
const ROUNDS: [(usize, usize); 12] = [
    (10, 4),
    (9, 7),
    (5, 9),
    (8, 6),
    (7, 11),
    (6, 5),
    (9, 8),
    (4, 10),
    (8, 3),
    (7, 9),
    (6, 12),
    (9, 2),
];

/// Drives `kind` through [`ROUNDS`] and a drain: on `build_buffer` when
/// `shards` is `None`, else on a `ShardedBuffer` of that many shards fed
/// through `put_many_shard`.
fn drive(kind: BufferKind, shards: Option<usize>) -> (Vec<u32>, BufferStats) {
    let width = shards.unwrap_or(1);
    let config = BufferConfig {
        kind,
        capacity: SHARD_CAPACITY * width,
        threshold: THRESHOLD,
        seed: SEED,
    };
    let plain = build_buffer::<u32>(&config);
    let sharded = shards.map(|n| ShardedBuffer::<u32>::new(&config, n));
    let buffer: &dyn TrainingBuffer<u32> = match &sharded {
        Some(sharded) => sharded,
        None => plain.as_ref(),
    };
    assert_eq!(buffer.capacity(), config.capacity);
    let mut served: Vec<u32> = Vec::new();
    // Indexed by value: the shard it was put into, and whether it has never
    // been served. A stored sample that was never served cannot have been
    // evicted, so this is each shard's unseen population.
    let mut home: Vec<usize> = Vec::new();
    let mut unserved: Vec<bool> = Vec::new();
    for (round, &(burst, batch)) in ROUNDS.iter().enumerate() {
        let shard = round % width;
        let unseen = (0..home.len())
            .filter(|&v| home[v] == shard && unserved[v])
            .count();
        let first = home.len();
        let count = burst.min(SHARD_CAPACITY - unseen);
        let mut items: Vec<u32> = (first..first + count).map(|v| v as u32).collect();
        home.resize(first + count, shard);
        unserved.resize(first + count, true);
        match &sharded {
            Some(sharded) => sharded.put_many_shard(shard, &mut items),
            None => buffer.put_many(&mut items),
        }
        assert!(items.is_empty(), "put_many drains its scratch");

        let len = buffer.len();
        let servable = match kind {
            BufferKind::Fifo => len,
            BufferKind::Firo => len.saturating_sub(THRESHOLD),
            BufferKind::Reservoir if len > THRESHOLD => batch,
            BufferKind::Reservoir => 0,
        };
        let count = batch.min(servable);
        let got = buffer.get_batch_with(count, &mut |v| {
            served.push(*v);
            unserved[*v as usize] = false;
        });
        assert_eq!(got, count, "a live batch is never cut short");
    }
    buffer.mark_reception_over();
    let live = served.len();
    while buffer.get_batch_with(3, &mut |v| served.push(*v)) > 0 {}
    assert!(served.len() > live, "the schedule leaves a drain to pin");
    assert!(buffer.is_empty());
    (served, buffer.stats())
}

fn stats(puts: usize, gets: usize, repeated_gets: usize, evictions: usize) -> BufferStats {
    BufferStats {
        puts,
        gets,
        repeated_gets,
        evictions,
        producer_waits: 0,
        consumer_waits: 0,
    }
}

/// The recorded sequence and counters of `kind` on one population
/// (`two_shards == false`: plain and one shard) or on two shards.
fn recorded(kind: BufferKind, two_shards: bool) -> (Vec<u32>, BufferStats) {
    let (served, stats): (&[u32], BufferStats) = match (kind, two_shards) {
        (BufferKind::Fifo, false) => (
            &[
                0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 17, 18, 19, 20, 21, 22,
                23, 24, 25, 26, 27, 28, 29, 30, 31, 32, 33, 34, 35, 36, 37, 38, 39, 40, 41, 42, 43,
                44, 45, 46, 47, 48, 49, 50, 51, 52, 53, 54, 55, 56, 57, 58, 59, 60, 61, 62, 63, 64,
                65, 66, 67, 68, 69, 70, 71, 72, 73, 74, 75, 76, 77, 78, 79, 80, 81, 82, 83, 84, 85,
                86, 87,
            ],
            stats(88, 88, 0, 0),
        ),
        (BufferKind::Fifo, true) => (
            &[
                0, 1, 2, 3, 10, 4, 11, 12, 13, 5, 14, 15, 6, 7, 16, 17, 18, 8, 9, 19, 24, 20, 21,
                25, 22, 26, 23, 27, 32, 28, 29, 33, 34, 30, 35, 31, 36, 37, 39, 40, 41, 38, 45, 46,
                47, 48, 49, 42, 50, 43, 44, 54, 51, 55, 52, 56, 57, 53, 58, 59, 60, 61, 62, 66, 63,
                67, 68, 69, 70, 64, 65, 71, 73, 74, 75, 76, 77, 72, 78, 79, 80, 81, 82, 83, 84, 85,
                86, 87,
            ],
            stats(88, 88, 0, 0),
        ),
        (BufferKind::Firo, false) => (
            &[
                5, 9, 1, 3, 16, 0, 18, 8, 2, 14, 6, 17, 13, 11, 15, 23, 22, 7, 20, 12, 4, 30, 21,
                24, 28, 25, 36, 33, 34, 38, 10, 27, 35, 37, 29, 19, 32, 42, 43, 39, 31, 40, 44, 52,
                47, 48, 49, 41, 53, 45, 51, 54, 55, 50, 26, 56, 60, 62, 57, 71, 69, 68, 66, 72, 70,
                61, 64, 59, 65, 63, 77, 46, 73, 75, 67, 76, 74, 85, 86, 58, 84, 87, 79, 81, 80, 82,
                78, 83,
            ],
            stats(88, 88, 0, 0),
        ),
        (BufferKind::Firo, true) => (
            &[
                5, 9, 1, 3, 11, 0, 14, 12, 18, 4, 15, 16, 6, 7, 17, 10, 13, 21, 8, 23, 26, 20, 2,
                31, 19, 25, 32, 29, 33, 24, 30, 35, 36, 28, 34, 27, 37, 38, 41, 43, 42, 22, 45, 46,
                50, 53, 51, 40, 48, 39, 57, 44, 52, 54, 49, 56, 58, 61, 65, 70, 64, 59, 47, 67, 63,
                66, 68, 72, 76, 77, 73, 69, 60, 55, 74, 78, 75, 85, 81, 62, 83, 79, 84, 80, 71, 82,
                87, 86,
            ],
            stats(88, 88, 0, 0),
        ),
        (BufferKind::Reservoir, false) => (
            &[
                7, 6, 4, 0, 10, 8, 7, 3, 15, 8, 10, 18, 14, 2, 18, 9, 16, 2, 2, 23, 28, 17, 29, 24,
                21, 25, 35, 22, 1, 1, 5, 13, 27, 34, 11, 33, 30, 32, 20, 38, 31, 32, 39, 47, 40,
                48, 48, 44, 42, 41, 44, 43, 50, 53, 19, 48, 43, 37, 51, 51, 57, 54, 58, 65, 56, 65,
                56, 64, 59, 52, 46, 45, 36, 67, 71, 67, 65, 67, 26, 49, 69, 65, 66, 60, 77, 74, 80,
                12, 55, 79, 74, 77, 68, 72, 63, 76, 61, 78, 75, 62, 70, 73,
            ],
            stats(81, 102, 21, 65),
        ),
        (BufferKind::Reservoir, true) => (
            &[
                7, 4, 1, 9, 2, 15, 16, 17, 14, 8, 12, 16, 19, 13, 17, 4, 2, 0, 22, 6, 0, 31, 4, 27,
                9, 1, 32, 35, 38, 31, 25, 7, 3, 33, 19, 6, 7, 26, 30, 37, 37, 16, 21, 38, 41, 44,
                42, 24, 28, 51, 55, 38, 46, 45, 54, 52, 5, 39, 20, 44, 10, 29, 65, 53, 59, 49, 42,
                71, 64, 48, 59, 26, 40, 62, 18, 67, 61, 61, 57, 76, 56, 76, 78, 11, 47, 47, 73, 50,
                70, 61, 23, 77, 47, 62, 75, 34, 80, 66, 36, 69, 85, 84, 58, 82, 78, 63, 87, 83, 79,
                71, 74, 43, 72, 76, 81, 68, 86, 60,
            ],
            stats(88, 118, 30, 56),
        ),
    };
    (served.to_vec(), stats)
}

#[test]
fn served_streams_and_counters_match_the_recorded_literals() {
    for kind in BufferKind::ALL {
        for shards in [None, Some(1), Some(2)] {
            let expected = recorded(kind, shards == Some(2));
            assert_eq!(drive(kind, shards), expected, "{kind:?} {shards:?}");
            // The schedule reaches what it is there to pin.
            if kind == BufferKind::Reservoir {
                let stats = expected.1;
                assert!(stats.evictions >= 20 && stats.repeated_gets >= 20);
            }
        }
    }
}
