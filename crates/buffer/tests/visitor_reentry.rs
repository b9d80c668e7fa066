//! A `get_batch_with` visitor runs under the buffer lock and must not touch
//! the buffer. The static lock graph cannot see such a re-entry (the visitor
//! is an untyped closure); the debug-build rank tracker in
//! `training_buffer::lock_order` can, and turns the self-deadlock into a
//! panic at the re-entrant acquisition. Release builds compile the tracker
//! away and would deadlock instead, so these run in debug builds only.

use training_buffer::{BufferConfig, BufferKind, FifoBuffer, ShardedBuffer, TrainingBuffer};

/// Serves one sample from a filled, drained-mode buffer through a visitor
/// that asks the same buffer for its population.
fn serve_with_reentrant_visitor(buffer: &dyn TrainingBuffer<u32>) {
    let mut items: Vec<u32> = (0..8).collect();
    buffer.put_many(&mut items);
    buffer.mark_reception_over();
    buffer.get_batch_with(1, &mut |_| {
        std::hint::black_box(buffer.len());
    });
}

#[test]
#[cfg_attr(
    not(debug_assertions),
    ignore = "release builds compile the tracker away and would deadlock"
)]
#[should_panic(expected = "lock-order violation")]
fn a_visitor_reentering_a_fifo_shell_panics() {
    serve_with_reentrant_visitor(&FifoBuffer::<u32>::new(16));
}

#[test]
#[cfg_attr(
    not(debug_assertions),
    ignore = "release builds compile the tracker away and would deadlock"
)]
#[should_panic(expected = "lock-order violation")]
fn a_visitor_reentering_a_two_shard_buffer_panics() {
    let config = BufferConfig {
        kind: BufferKind::Fifo,
        capacity: 16,
        threshold: 0,
        seed: 1,
    };
    serve_with_reentrant_visitor(&ShardedBuffer::<u32>::new(&config, 2));
}
