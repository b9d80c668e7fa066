//! # training-buffer
//!
//! Training buffers for online deep-surrogate training, reproducing §3.2.3 of
//! *"High Throughput Training of Deep Surrogates from Large Ensemble Runs"*
//! (SC'23).
//!
//! The training buffer sits between the **data-aggregator thread** (which
//! receives time steps streamed by the simulation clients) and the **training
//! thread** (which extracts batches and feeds the GPU). It has the dual role of
//! mixing data to reduce the bias inherent to online streaming, and of
//! amortising discrepancies between data production and consumption so the GPU
//! never starves. Three policies are implemented:
//!
//! * [`FifoBuffer`] — First In, First Out: the pure streaming baseline. Every
//!   sample is seen exactly once, in arrival order; production is suspended
//!   when the buffer is full.
//! * [`FiroBuffer`] — First In, Random Out: samples are evicted on read from a
//!   random position, and batches may only be extracted once the population
//!   exceeds a threshold (prior work, shown by the paper to underuse the GPU).
//! * [`ReservoirBuffer`] — the paper's contribution (Algorithm 1). The buffer
//!   distinguishes *seen* from *not-seen* samples, evicts a random seen sample
//!   on write when full (never discarding unseen data), and serves already-seen
//!   samples again when production lags so the consumer is never blocked once
//!   the threshold has been passed.
//!
//! The three are one blocking [`shell`] — the lock, the waits on both the full
//! and the empty side, the threshold gate, the eviction reports and the
//! [`BufferStats`] counters used by the figure/table harnesses — around a
//! policy that only stores and selects; [`ShardedBuffer`] puts several of them
//! behind one [`TrainingBuffer`]. All are thread-safe and seeded for
//! reproducibility.

pub mod fifo;
pub mod firo;
pub mod lock_order;
pub mod reservoir;
pub mod sharded;
pub mod shell;
pub mod stats;
pub mod traits;

pub use fifo::FifoBuffer;
pub use firo::FiroBuffer;
pub use reservoir::ReservoirBuffer;
pub use sharded::{shard_draw_seed, shard_seed, ShardedBuffer};
use shell::Shard;
pub use stats::{BufferStats, OccupancySnapshot};
pub use traits::{BufferConfig, BufferKind, Evicted, EvictionObserver, TrainingBuffer};

/// Builds a boxed training buffer of the requested kind (convenience used by
/// the experiment harnesses to sweep over buffer policies).
pub fn build_buffer<T: Clone + Send + 'static>(
    config: &BufferConfig,
) -> Box<dyn TrainingBuffer<T>> {
    build_shard(config)
}

/// [`build_buffer`], as a sub-buffer of [`ShardedBuffer`].
pub(crate) fn build_shard<T: Clone + Send + 'static>(config: &BufferConfig) -> Box<dyn Shard<T>> {
    match config.kind {
        BufferKind::Fifo => Box::new(FifoBuffer::new(config.capacity)),
        BufferKind::Firo => Box::new(FiroBuffer::new(
            config.capacity,
            config.threshold,
            config.seed,
        )),
        BufferKind::Reservoir => Box::new(ReservoirBuffer::new(
            config.capacity,
            config.threshold,
            config.seed,
        )),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    fn drain<T: Clone + Send + 'static>(buffer: &dyn TrainingBuffer<T>) -> Vec<T> {
        let mut out = Vec::new();
        while let Some(item) = buffer.get() {
            out.push(item);
        }
        out
    }

    #[test]
    fn factory_builds_each_kind() {
        for kind in [BufferKind::Fifo, BufferKind::Firo, BufferKind::Reservoir] {
            let config = BufferConfig {
                kind,
                capacity: 8,
                threshold: 2,
                seed: 1,
            };
            let buffer: Box<dyn TrainingBuffer<u32>> = build_buffer(&config);
            assert_eq!(buffer.kind(), kind);
            for k in 0..4 {
                buffer.put(k);
            }
            buffer.mark_reception_over();
            let drained = drain(buffer.as_ref());
            assert!(!drained.is_empty());
        }
    }

    #[test]
    fn buffers_are_shareable_across_threads() {
        let config = BufferConfig {
            kind: BufferKind::Reservoir,
            capacity: 16,
            threshold: 1,
            seed: 3,
        };
        let buffer: Arc<dyn TrainingBuffer<u64>> = Arc::from(build_buffer(&config));
        let producer = {
            let buffer = Arc::clone(&buffer);
            std::thread::spawn(move || {
                for k in 0..100u64 {
                    buffer.put(k);
                }
                buffer.mark_reception_over();
            })
        };
        let consumer = {
            let buffer = Arc::clone(&buffer);
            std::thread::spawn(move || {
                let mut count = 0;
                while buffer.get().is_some() {
                    count += 1;
                }
                count
            })
        };
        producer.join().unwrap();
        let consumed = consumer.join().unwrap();
        assert!(consumed >= 1, "consumer made progress");
    }
}
