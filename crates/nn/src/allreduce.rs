//! Gradient all-reduce for data-distributed parallel training.
//!
//! The paper's training server runs one model replica per GPU; after each batch
//! backpropagation the locally computed gradients are all-reduced between all
//! processes and applied to each local copy so the replicas stay identical
//! (§3.1). [`GradientSynchronizer`] reproduces this with a barrier-protected
//! pair of shared accumulation buffers: every rank contributes its gradient
//! vector, receives the mean, and all ranks proceed in lock-step — exactly the
//! synchronous data-parallel semantics of PyTorch DDP / Horovod.

use parking_lot::RwLock;
use std::sync::Barrier;

/// Shared accumulation state of the collective.
struct Accumulator {
    /// Contributions made over the synchronizer's whole life. It never
    /// resets: contribution `c` belongs to round `c / num_ranks` and is that
    /// round's first exactly when `c % num_ranks == 0`.
    contributions: u64,
    /// Round `r` sums into `sums[r % 2]`, so a fast rank's contribution to
    /// round `r + 1` never touches the buffer a slow rank still reads round
    /// `r`'s mean from.
    sums: [Vec<f32>; 2],
}

/// Synchronous mean all-reduce over `num_ranks` participating training threads.
pub struct GradientSynchronizer {
    num_ranks: usize,
    param_count: usize,
    barrier: Barrier,
    accumulator: RwLock<Accumulator>,
}

impl GradientSynchronizer {
    /// Creates a synchronizer for `num_ranks` ranks and `param_count` parameters.
    pub fn new(num_ranks: usize, param_count: usize) -> Self {
        assert!(num_ranks > 0, "need at least one rank");
        Self {
            num_ranks,
            param_count,
            barrier: Barrier::new(num_ranks),
            accumulator: RwLock::new(Accumulator {
                contributions: 0,
                sums: [vec![0.0; param_count], vec![0.0; param_count]],
            }),
        }
    }

    /// Number of participating ranks.
    pub fn num_ranks(&self) -> usize {
        self.num_ranks
    }

    /// All-reduces `grads` in place: on return every rank holds the element-wise
    /// mean of all contributed gradient vectors. With a single rank the mean
    /// of one vector is that vector, and `grads` is left untouched bit for bit.
    ///
    /// Every rank must call this once per training step, with equal-length
    /// vectors, or the collective deadlocks (as MPI would).
    ///
    /// The first contributor of a round copies its vector into the round's
    /// accumulator and later contributors add to it (no zeroing pass); one
    /// barrier then separates the last contribution from the first read of
    /// the mean, which the ranks take concurrently under a shared lock. No
    /// second barrier is needed before the next round: it sums into the other
    /// accumulator, and this one is not written again until the round after
    /// — whose contributions all follow the next round's barrier, which no
    /// rank reaches before it has read this round's mean.
    ///
    /// # Panics
    /// Panics when `grads.len()` differs from the configured parameter count.
    pub fn all_reduce_mean(&self, grads: &mut [f32]) {
        assert_eq!(self.param_count, grads.len(), "gradient length mismatch");
        if self.num_ranks == 1 {
            return;
        }
        let parity = {
            let mut acc = self.accumulator.write();
            let ranks = self.num_ranks as u64;
            let contribution = acc.contributions;
            acc.contributions += 1;
            let parity = (contribution / ranks % 2) as usize;
            let sum = &mut acc.sums[parity];
            if contribution.is_multiple_of(ranks) {
                sum.copy_from_slice(grads);
            } else {
                for (a, g) in sum.iter_mut().zip(grads.iter()) {
                    *a += g;
                }
            }
            parity
        };
        // All contributions of this round are in.
        self.barrier.wait();
        let acc = self.accumulator.read();
        let scale = 1.0 / self.num_ranks as f32;
        for (g, a) in grads.iter_mut().zip(acc.sums[parity].iter()) {
            *g = a * scale;
        }
    }

    /// Barrier without a reduction (used to align replicas at epoch boundaries).
    pub fn barrier(&self) {
        self.barrier.wait();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use parking_lot::Mutex;
    use std::sync::Arc;

    #[test]
    fn single_rank_mean_is_identity() {
        // Scaling by 1/1 would be the identity too, but copying through an
        // accumulator is not free — and must not canonicalise anything.
        let original = [
            1.0,
            -2.0,
            -0.0,
            f32::from_bits(1),
            f32::from_bits(0x7fc0_1234),
            f32::from_bits(0xffa0_0001),
            f32::INFINITY,
        ];
        let sync = GradientSynchronizer::new(1, original.len());
        let mut grads = original;
        for _ in 0..3 {
            sync.all_reduce_mean(&mut grads);
        }
        let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&grads), bits(&original));
    }

    /// One rank lags by 0–200 µs at seeded points, so the others run ahead
    /// into the next round's contribution while it still reads the last
    /// mean. Every (round, rank) contributes a distinct, exactly
    /// representable vector: a mean that mixed two rounds could not come out
    /// exact.
    #[test]
    fn skewed_ranks_get_every_rounds_exact_mean() {
        const RANKS: usize = 4;
        const ROUNDS: usize = 2000;
        let sync = Arc::new(GradientSynchronizer::new(RANKS, 3));
        let handles: Vec<_> = (0..RANKS)
            .map(|rank| {
                let sync = Arc::clone(&sync);
                std::thread::spawn(move || {
                    let mut state = 0x9e37_79b9_7f4a_7c15u64;
                    for round in 0..ROUNDS {
                        if rank == RANKS - 1 {
                            // splitmix64 step: the lag pattern is the same every run.
                            state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
                            let mut z = state;
                            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
                            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
                            z ^= z >> 31;
                            if z.is_multiple_of(4) {
                                std::thread::sleep(std::time::Duration::from_micros(
                                    (z >> 8) % 201,
                                ));
                            }
                        }
                        let (r, k) = (round as f32, rank as f32);
                        let mut grads = [8.0 * r + k, -r * (k + 1.0), k - 1.5];
                        sync.all_reduce_mean(&mut grads);
                        // Σk = 6, Σ(k+1) = 10, Σ(k−1.5) = 0 over the four ranks.
                        assert_eq!(
                            grads,
                            [8.0 * r + 1.5, -2.5 * r, 0.0],
                            "rank {rank}, round {round}"
                        );
                    }
                })
            })
            .collect();
        for handle in handles {
            handle.join().unwrap();
        }
    }

    #[test]
    fn mean_across_four_ranks() {
        let sync = Arc::new(GradientSynchronizer::new(4, 3));
        let results = Arc::new(Mutex::new(Vec::new()));
        let mut handles = Vec::new();
        for rank in 0..4 {
            let sync = Arc::clone(&sync);
            let results = Arc::clone(&results);
            handles.push(std::thread::spawn(move || {
                let mut grads = vec![rank as f32; 3];
                sync.all_reduce_mean(&mut grads);
                results.lock().push(grads);
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        let results = results.lock();
        assert_eq!(results.len(), 4);
        for r in results.iter() {
            // Mean of 0, 1, 2, 3 is 1.5.
            assert_eq!(r, &vec![1.5, 1.5, 1.5]);
        }
    }

    #[test]
    fn consecutive_reductions_do_not_leak_state() {
        let sync = Arc::new(GradientSynchronizer::new(2, 2));
        let results = Arc::new(Mutex::new(Vec::new()));
        let mut handles = Vec::new();
        for rank in 0..2 {
            let sync = Arc::clone(&sync);
            let results = Arc::clone(&results);
            handles.push(std::thread::spawn(move || {
                let mut out = Vec::new();
                for round in 0..5 {
                    let mut grads = vec![(rank + round) as f32; 2];
                    sync.all_reduce_mean(&mut grads);
                    out.push(grads[0]);
                }
                results.lock().push(out);
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        let results = results.lock();
        // Round r: mean of r and r+1 is r + 0.5.
        for per_rank in results.iter() {
            for (round, v) in per_rank.iter().enumerate() {
                assert_eq!(*v, round as f32 + 0.5);
            }
        }
    }

    #[test]
    #[should_panic(expected = "gradient length mismatch")]
    fn rejects_wrong_length() {
        let sync = GradientSynchronizer::new(1, 4);
        let mut grads = vec![0.0; 3];
        sync.all_reduce_mean(&mut grads);
    }

    #[test]
    #[should_panic(expected = "need at least one rank")]
    fn rejects_zero_ranks() {
        let _ = GradientSynchronizer::new(0, 4);
    }
}
