//! The [`TrainingBuffer`] abstraction shared by all buffer policies.

use crate::stats::BufferStats;
use serde::Serialize;
use std::sync::Arc;

/// Why a buffer permanently removed a sample outside the normal serve path.
///
/// Crash-recovery accounting needs to distinguish the two: a *trained*
/// eviction does not invalidate a simulation's contribution to the model,
/// while an *untrained* drop means its data was lost and the simulation must
/// be rerun after a restart.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Evicted {
    /// The sample had already been served to training at least once — the
    /// Reservoir evicting a *seen* sample to make room (Algorithm 1).
    Trained,
    /// The sample was dropped without ever being served — every buffer kind
    /// discards late arrivals once reception ended with a full queue
    /// (the server-crash shutdown path; the Reservoir drops even unseen
    /// samples then, since nothing will ever train on them).
    Untrained,
}

/// Callback invoked when a buffer permanently removes a sample outside the
/// normal serve path. Runs under the buffer lock, so it must be short and
/// must not call back into the buffer (same contract as the
/// [`TrainingBuffer::get_batch_with`] visitor).
pub type EvictionObserver<T> = Arc<dyn Fn(&T, Evicted) + Send + Sync>;

/// The available buffer policies.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize)]
pub enum BufferKind {
    /// First In, First Out (pure streaming).
    Fifo,
    /// First In, Random Out.
    Firo,
    /// The paper's training Reservoir (Algorithm 1).
    Reservoir,
}

impl BufferKind {
    /// All policies, in the order used by the paper's plots.
    pub const ALL: [BufferKind; 3] = [BufferKind::Fifo, BufferKind::Firo, BufferKind::Reservoir];

    /// Display name matching the paper's figures.
    pub fn label(&self) -> &'static str {
        match self {
            BufferKind::Fifo => "FIFO",
            BufferKind::Firo => "FIRO",
            BufferKind::Reservoir => "Reservoir",
        }
    }
}

/// Construction parameters of a training buffer.
///
/// The paper's experiments use a capacity of 6,000 samples (about a fourth of
/// the 25,000 generated samples) and a threshold of 1,000 samples for FIRO and
/// Reservoir; FIFO ignores the threshold.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
pub struct BufferConfig {
    /// Which policy to build.
    pub kind: BufferKind,
    /// Maximum number of stored samples.
    pub capacity: usize,
    /// Minimum population before batches may be extracted (ignored by FIFO).
    pub threshold: usize,
    /// Seed of the buffer's random selections (the paper seeds all stochastic
    /// components for reproducibility).
    pub seed: u64,
}

impl BufferConfig {
    /// The paper's configuration for a dataset of `total_samples` samples:
    /// capacity ≈ a fourth of the data, threshold ≈ a sixth of the capacity.
    pub fn paper_proportions(kind: BufferKind, total_samples: usize, seed: u64) -> Self {
        let capacity = (total_samples / 4).max(4);
        let threshold = (capacity / 6).max(1);
        Self {
            kind,
            capacity,
            threshold,
            seed,
        }
    }
}

/// A thread-safe buffer between the data-aggregator thread and the training thread.
///
/// Both sides block: [`TrainingBuffer::put_many`] blocks while the buffer
/// cannot accept data (suspending data production exactly as the paper
/// describes) and [`TrainingBuffer::get_batch_with`] blocks while no sample
/// may be served. Once [`TrainingBuffer::mark_reception_over`] has been called
/// and the buffer has drained, serving returns `0` and training terminates.
///
/// An implementation provides those two calls — the ones the pipeline makes.
/// [`TrainingBuffer::put`], [`TrainingBuffer::get_batch`] and
/// [`TrainingBuffer::get`] are conveniences written on top of them here, so a
/// single sample takes exactly the path a burst or a batch of one takes.
pub trait TrainingBuffer<T: Clone + Send>: Send + Sync {
    /// Inserts every sample drained from `items`, in order, blocking for each
    /// while the buffer cannot accept it. `items` is left empty so the caller
    /// can reuse its allocation as an ingestion scratch. Before each wait and
    /// on its way out it also frees, outside the buffer lock, the samples
    /// that left the buffer since the last release (see
    /// [`TrainingBuffer::free_retired`]).
    fn put_many(&self, items: &mut Vec<T>);

    /// Serves up to `n` samples: `visit` is invoked once per served sample
    /// with a borrow, so the caller can copy the sample contents straight
    /// into its batch matrices. Each sample blocks until it may be served,
    /// and the batch ends early only when reception is over and the buffer
    /// has drained. Returns the number of samples served; `0` (for `n > 0`)
    /// therefore signals termination. The visitor runs under the buffer
    /// lock, so it must be short and must not touch the buffer.
    fn get_batch_with(&self, n: usize, visit: &mut dyn FnMut(&T)) -> usize;

    /// Inserts one sample: a burst of one.
    fn put(&self, item: T) {
        self.put_many(&mut vec![item]);
    }

    /// Owned variant of [`TrainingBuffer::get_batch_with`]: appends a clone
    /// of every served sample to `out`.
    fn get_batch(&self, n: usize, out: &mut Vec<T>) -> usize {
        self.get_batch_with(n, &mut |item| out.push(item.clone()))
    }

    /// Extracts one sample: a batch of one. Returns `None` once reception is
    /// over and the buffer has emptied.
    fn get(&self) -> Option<T> {
        let mut served = None;
        self.get_batch_with(1, &mut |item| served = Some(item.clone()));
        served
    }

    /// Frees, on the calling thread and outside the buffer lock, every sample
    /// that left the buffer (served for the last time, evicted or dropped)
    /// since the last release. Serving never frees a sample: the producer
    /// does, inside [`TrainingBuffer::put_many`] and through this call while
    /// it has nothing to put, so served samples do not wait for the next
    /// burst.
    fn free_retired(&self);

    /// Installs an observer invoked whenever the buffer permanently removes a
    /// sample outside the normal serve path (see [`Evicted`]). At most one
    /// observer is active; installing replaces any previous one. The default
    /// is a no-op for policies that never remove samples this way.
    fn set_eviction_observer(&self, _observer: EvictionObserver<T>) {}

    /// Signals that no more data will be produced (all clients finished).
    fn mark_reception_over(&self);

    /// True once [`TrainingBuffer::mark_reception_over`] has been called.
    fn is_reception_over(&self) -> bool;

    /// Current number of stored samples.
    fn len(&self) -> usize;

    /// True when the buffer currently stores no samples.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Maximum population.
    fn capacity(&self) -> usize;

    /// Instrumentation counters.
    fn stats(&self) -> BufferStats;

    /// The policy implemented by this buffer.
    fn kind(&self) -> BufferKind;

    /// Display name matching the paper's figures.
    fn name(&self) -> &'static str {
        self.kind().label()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn labels_match_paper() {
        assert_eq!(BufferKind::Fifo.label(), "FIFO");
        assert_eq!(BufferKind::Firo.label(), "FIRO");
        assert_eq!(BufferKind::Reservoir.label(), "Reservoir");
        assert_eq!(BufferKind::ALL.len(), 3);
    }

    #[test]
    fn paper_proportions_scale_with_dataset() {
        let c = BufferConfig::paper_proportions(BufferKind::Reservoir, 25_000, 0);
        assert_eq!(c.capacity, 6_250);
        assert_eq!(c.threshold, 1_041);
        let tiny = BufferConfig::paper_proportions(BufferKind::Fifo, 8, 0);
        assert!(tiny.capacity >= 4);
        assert!(tiny.threshold >= 1);
    }
}
