//! Property-based tests of the training buffers (proptest).
//!
//! These check the structural invariants of §3.2.3 and the residency-time
//! result of Appendix A over randomly generated workloads.

use proptest::prelude::*;
use training_buffer::{
    BufferConfig, BufferKind, FifoBuffer, FiroBuffer, ReservoirBuffer, TrainingBuffer,
};

/// Drives a buffer with an interleaved put/get schedule and returns the served
/// items and the maximum observed population.
fn drive(buffer: &dyn TrainingBuffer<u32>, items: &[u32], get_every: usize) -> (Vec<u32>, usize) {
    let mut served = Vec::new();
    let mut max_pop = 0;
    for (k, &item) in items.iter().enumerate() {
        // Both sides run on this single thread, so never let `put` block: when
        // the population is at capacity, consume one sample first (for the
        // Reservoir this frees an unseen slot because a full buffer with a full
        // unseen side has no seen samples to select).
        if buffer.len() >= buffer.capacity() {
            if let Some(v) = buffer.get() {
                served.push(v);
            }
        }
        buffer.put(item);
        max_pop = max_pop.max(buffer.len());
        if get_every > 0 && k % get_every == 0 && buffer.len() > buffer.capacity() / 2 {
            if let Some(v) = buffer.get() {
                served.push(v);
            }
        }
    }
    buffer.mark_reception_over();
    while let Some(v) = buffer.get() {
        served.push(v);
        if served.len() > items.len() * 20 {
            break; // safety net; the drain must terminate long before this
        }
    }
    (served, max_pop)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// No buffer ever stores more samples than its capacity.
    #[test]
    fn population_never_exceeds_capacity(
        capacity in 2usize..64,
        n_items in 1usize..300,
        get_every in 1usize..8,
        seed in 0u64..1000,
    ) {
        let threshold = capacity / 4;
        let items: Vec<u32> = (0..n_items as u32).collect();
        for kind in BufferKind::ALL {
            let config = BufferConfig { kind, capacity, threshold, seed };
            let buffer = training_buffer::build_buffer::<u32>(&config);
            let (_, max_pop) = drive(buffer.as_ref(), &items, get_every);
            prop_assert!(max_pop <= capacity, "{kind:?}: max population {max_pop} > capacity {capacity}");
        }
    }

    /// FIFO and FIRO serve every produced sample exactly once.
    #[test]
    fn fifo_and_firo_serve_each_sample_once(
        capacity in 2usize..64,
        n_items in 1usize..300,
        get_every in 1usize..8,
        seed in 0u64..1000,
    ) {
        let items: Vec<u32> = (0..n_items as u32).collect();
        for kind in [BufferKind::Fifo, BufferKind::Firo] {
            let config = BufferConfig { kind, capacity, threshold: capacity / 4, seed };
            let buffer = training_buffer::build_buffer::<u32>(&config);
            let (mut served, _) = drive(buffer.as_ref(), &items, get_every);
            served.sort_unstable();
            prop_assert_eq!(&served, &items, "{:?} lost or duplicated samples", kind);
        }
    }

    /// The Reservoir serves every produced sample at least once (unseen data is
    /// never discarded) and the number of distinct served samples equals the
    /// number of produced samples.
    #[test]
    fn reservoir_never_loses_unseen_data(
        capacity in 2usize..64,
        n_items in 1usize..300,
        get_every in 1usize..8,
        seed in 0u64..1000,
    ) {
        let items: Vec<u32> = (0..n_items as u32).collect();
        let buffer = ReservoirBuffer::new(capacity, capacity / 4, seed);
        let (served, _) = drive(&buffer, &items, get_every);
        let mut distinct: Vec<u32> = served.clone();
        distinct.sort_unstable();
        distinct.dedup();
        prop_assert_eq!(&distinct, &items, "some produced samples were never served");
        prop_assert!(served.len() >= items.len());
        let stats = buffer.stats();
        prop_assert_eq!(stats.gets, served.len());
        prop_assert_eq!(stats.gets - stats.repeated_gets, items.len());
    }

    /// FIFO preserves arrival order.
    #[test]
    fn fifo_preserves_order(n_items in 1usize..200, capacity in 1usize..32) {
        let buffer = FifoBuffer::new(capacity.max(1));
        let items: Vec<u32> = (0..n_items as u32).collect();
        let mut served = Vec::new();
        for &i in &items {
            buffer.put(i);
            // Keep the buffer from filling by consuming aggressively.
            if buffer.len() == buffer.capacity() {
                served.push(buffer.get().unwrap());
            }
        }
        buffer.mark_reception_over();
        while let Some(v) = buffer.get() {
            served.push(v);
        }
        prop_assert_eq!(served, items);
    }

    /// FIRO with the threshold lifted is a permutation of the input.
    #[test]
    fn firo_is_a_permutation(n_items in 1usize..200, seed in 0u64..500) {
        let buffer = FiroBuffer::new(512, 0, seed);
        let items: Vec<u32> = (0..n_items as u32).collect();
        for &i in &items {
            buffer.put(i);
        }
        buffer.mark_reception_over();
        let mut served = Vec::new();
        while let Some(v) = buffer.get() {
            served.push(v);
        }
        served.sort_unstable();
        prop_assert_eq!(served, items);
    }
}

/// Appendix A: with random-overwrite insertion into a full container of size n,
/// the expected residency time of an item is n − 1 insertions.
#[test]
fn residency_time_matches_appendix_a() {
    use rand::{Rng, SeedableRng};
    let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(99);
    let n = 50usize;
    let insertions = 400_000usize;
    // container holds the insertion index of the element occupying each slot.
    let mut container: Vec<usize> = (0..n).collect();
    let mut total_residency = 0usize;
    let mut evicted = 0usize;
    for step in n..n + insertions {
        let slot = rng.gen_range(0..n);
        let inserted_at = container[slot];
        if inserted_at >= n {
            // Only count items inserted after warm-up.
            total_residency += step - inserted_at;
            evicted += 1;
        }
        container[slot] = step;
    }
    let mean = total_residency as f64 / evicted as f64;
    let expected = (n - 1) as f64;
    let relative_error = (mean - expected).abs() / expected;
    assert!(
        relative_error < 0.05,
        "mean residency {mean:.2} vs expected {expected} (err {relative_error:.3})"
    );
}
