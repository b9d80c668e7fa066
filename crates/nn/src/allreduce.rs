//! The collective of data-parallel training: one round per batch.
//!
//! The paper's training server runs one model replica per GPU; after each
//! batch backpropagation the locally computed gradients are all-reduced
//! between all processes and applied to each local copy so the replicas stay
//! identical (§3.1). [`GradientSynchronizer::step`] produces that result with
//! the optimizer split across the ranks (ZeRO stage 1: optimizer-state
//! partitioning, Rajbhandari et al., SC'20), in two barriers per round:
//!
//! 1. every rank puts its vote and its gradients into its own slot (the
//!    gradient arena is swapped in, not copied), then waits at the first
//!    barrier;
//! 2. rank `r` sums its parameter range [`GradientSynchronizer::shard`]`(r)`
//!    across the ranks' gradients **in rank order** and scales by `1/N`;
//! 3. rank `r` runs Adam on that range only;
//! 4. rank `r` publishes its updated parameter range, waits at the second
//!    barrier, and copies its peers' ranges in.
//!
//! Steps 2–4 run chunk by chunk, so a chunk's mean, its Adam update and its
//! published copy stay in L1. Each rank thus does `1/N` of the reduction and
//! of the optimizer pass, and the replicas end every round bit-identical.
//! Adam is element-wise, so this is the update one rank stepping every
//! parameter would make; and because the order of the additions is fixed by
//! rank, not by which thread arrived first, the result is the same run after
//! run at any rank count.
//!
//! Every slot is written by its own rank only and read by the others only
//! across a barrier, so no rank ever waits on a lock: the locks make the
//! hand-offs safe, the barriers order them. The second barrier of round `t`
//! also fences round `t + 1`: no rank writes a gradient slot before every
//! rank has finished reading them, and no rank overwrites a parameter slot
//! before the first barrier of `t + 1`, which every rank reaches only after
//! copying round `t`'s ranges in. The Adam moments stay sharded until a rank
//! asks for them ([`Vote::Capture`], [`GradientSynchronizer::gather_moments`]).
//!
//! With one rank the round is the optimizer step: nothing is copied and no
//! barrier is taken.

use crate::mlp::Mlp;
use crate::optim::{Adam, Optimizer};
use parking_lot::RwLock;
use std::ops::Range;
use std::sync::Barrier;

/// Parameters reduced, stepped and published per pass, through a stack
/// buffer (8 KiB, so a chunk's sums and state stay in L1).
const CHUNK: usize = 2048;

/// What a rank tells its peers in a round, beside its gradients.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Vote {
    /// No batch this round: the rank contributes zero gradients.
    Idle,
    /// The gradients of a batch.
    Active,
    /// The gradients of a batch, and this rank captures a checkpoint after
    /// the round: the peers publish their optimizer moments and this rank
    /// gathers them, so its [`Adam`] is complete when [`GradientSynchronizer::step`]
    /// returns.
    Capture,
    /// End the run this round, before any update (a scripted server crash,
    /// a lost helper thread).
    Crash,
}

/// What every rank learns from a round's votes; the same on every rank.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// Some rank voted [`Vote::Crash`]; nothing was updated.
    Crash,
    /// Every rank voted [`Vote::Idle`]; nothing was updated.
    Drained,
    /// The mean gradient was applied; the replicas are identical again.
    Stepped,
}

/// Rank `r`'s contribution to a round.
struct GradSlot {
    vote: Vote,
    /// Rank `r`'s gradient arena of the round (the buffer it swaps with the
    /// model's: the two alternate between the model and the slot).
    grads: Vec<f32>,
}

/// The arrival-order accumulator behind
/// [`GradientSynchronizer::all_reduce_mean`].
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

/// The synchronous collective of `num_ranks` training threads.
pub struct GradientSynchronizer {
    num_ranks: usize,
    param_count: usize,
    barrier: Barrier,
    /// Per rank: its vote and gradients (empty with one rank).
    grad_slots: Vec<RwLock<GradSlot>>,
    /// Per rank `r`: the parameters over `shard(r)` after its update.
    param_slots: Vec<RwLock<Vec<f32>>>,
    /// Per rank `r`: its first, then second Adam moment over `shard(r)`.
    moment_slots: Vec<RwLock<Vec<f32>>>,
    accumulator: RwLock<Accumulator>,
}

impl GradientSynchronizer {
    /// Creates the collective of `num_ranks` ranks over `param_count`
    /// parameters.
    pub fn new(num_ranks: usize, param_count: usize) -> Self {
        assert!(num_ranks > 0, "need at least one rank");
        let slots = if num_ranks == 1 { 0 } else { num_ranks };
        let mut sync = Self {
            num_ranks,
            param_count,
            barrier: Barrier::new(num_ranks),
            grad_slots: Vec::with_capacity(slots),
            param_slots: Vec::with_capacity(slots),
            moment_slots: Vec::with_capacity(slots),
            accumulator: RwLock::new(Accumulator {
                contributions: 0,
                sums: [vec![0.0; param_count], vec![0.0; param_count]],
            }),
        };
        for rank in 0..slots {
            let len = sync.shard(rank).len();
            sync.grad_slots.push(RwLock::new(GradSlot {
                vote: Vote::Idle,
                grads: vec![0.0; param_count],
            }));
            sync.param_slots.push(RwLock::new(vec![0.0; len]));
            sync.moment_slots.push(RwLock::new(vec![0.0; 2 * len]));
        }
        sync
    }

    /// The contiguous parameter range (flat, [`Mlp::params_flat`] order)
    /// whose reduction and optimizer step rank `rank` owns. The ranges of
    /// ranks `0..N` partition `0..param_count` in order and differ in
    /// length by at most one.
    pub fn shard(&self, rank: usize) -> Range<usize> {
        let bound = |r: usize| r * self.param_count / self.num_ranks;
        bound(rank)..bound(rank + 1)
    }

    /// One training round of rank `rank`, after its backward pass left this
    /// round's gradients in `model`'s arena (zeros for [`Vote::Idle`]).
    ///
    /// Unless the verdict is [`Verdict::Stepped`], nothing is updated. On
    /// [`Verdict::Stepped`] every rank's `model` holds the parameters one
    /// Adam step with the mean gradient makes, bit-identical across ranks;
    /// `optimizer` holds the moments of this rank's shard only (all of them
    /// when this rank voted [`Vote::Capture`]). With more than one rank the
    /// arena afterwards holds the mean gradient over this rank's shard and
    /// stale values elsewhere: the next backward pass overwrites all of it.
    ///
    /// Every rank must call this once per round, or the round deadlocks (as
    /// MPI would). Allocation-free.
    ///
    /// # Panics
    /// Panics when `model` does not have the configured parameter count.
    pub fn step(
        &self,
        rank: usize,
        vote: Vote,
        model: &mut Mlp,
        optimizer: &mut Adam,
        learning_rate: f32,
    ) -> Verdict {
        assert_eq!(
            model.param_count(),
            self.param_count,
            "gradient length mismatch"
        );
        if self.num_ranks == 1 {
            return match vote {
                Vote::Crash => Verdict::Crash,
                Vote::Idle => Verdict::Drained,
                Vote::Active | Vote::Capture => {
                    optimizer.step_in_place(model, learning_rate);
                    Verdict::Stepped
                }
            };
        }
        {
            let mut slot = self.grad_slots[rank].write();
            slot.vote = vote;
            model.swap_grads(&mut slot.grads);
        }
        self.barrier.wait();

        let (verdict, capture) = self.count_votes();
        if verdict != Verdict::Stepped {
            return verdict;
        }
        self.reduce_and_step(rank, model, optimizer, learning_rate);
        if capture {
            self.publish_moments(rank, optimizer);
        }
        self.barrier.wait();

        for peer in (0..self.num_ranks).filter(|&peer| peer != rank) {
            let slot = self.param_slots[peer].read();
            model.set_params_range(self.shard(peer), &slot);
        }
        if vote == Vote::Capture {
            self.copy_peer_moments(rank, optimizer);
        }
        Verdict::Stepped
    }

    /// Completes every rank's `optimizer` with its peers' moment shards, so
    /// each holds what the unsharded optimizer would. Every rank calls this
    /// once, after its last round (with one rank it does nothing).
    pub fn gather_moments(&self, rank: usize, optimizer: &mut Adam) {
        if self.num_ranks == 1 {
            return;
        }
        self.publish_moments(rank, optimizer);
        self.barrier.wait();
        self.copy_peer_moments(rank, optimizer);
    }

    /// The round's verdict, and whether any rank voted [`Vote::Capture`].
    fn count_votes(&self) -> (Verdict, bool) {
        let (mut active, mut crash, mut capture) = (false, false, false);
        for rank in 0..self.num_ranks {
            let vote = self.grad_slots[rank].read().vote;
            active |= matches!(vote, Vote::Active | Vote::Capture);
            crash |= vote == Vote::Crash;
            capture |= vote == Vote::Capture;
        }
        let verdict = if crash {
            Verdict::Crash
        } else if active {
            Verdict::Stepped
        } else {
            Verdict::Drained
        };
        (verdict, capture)
    }

    /// Steps 2–3 of the round and the publishing half of step 4 over
    /// `shard(rank)`, chunk by chunk: the mean of every rank's gradient,
    /// `(g0 + g1 + … + g(N−1)) · (1/N)` added in rank order whichever rank
    /// computes it, goes into `model`'s arena, Adam steps the chunk from
    /// there, and the updated parameters go into this rank's slot.
    fn reduce_and_step(&self, rank: usize, model: &mut Mlp, optimizer: &mut Adam, lr: f32) {
        let scale = 1.0 / self.num_ranks as f32;
        let own = self.shard(rank);
        let step = optimizer.begin_step(lr);
        let mut sum = [0.0f32; CHUNK];
        for start in own.clone().step_by(CHUNK) {
            let chunk = start..own.end.min(start + CHUNK);
            let sum = &mut sum[..chunk.len()];
            for peer in 0..self.num_ranks {
                let slot = self.grad_slots[peer].read();
                let terms = &slot.grads[chunk.clone()];
                if peer == 0 {
                    sum.copy_from_slice(terms);
                } else {
                    for (s, g) in sum.iter_mut().zip(terms) {
                        *s += g;
                    }
                }
            }
            for (g, s) in model.grads_mut()[chunk.clone()].iter_mut().zip(sum.iter()) {
                *g = s * scale;
            }
            optimizer.update_range(model, chunk.clone(), None, step);
            let mut slot = self.param_slots[rank].write();
            model.params_range_into(
                chunk.clone(),
                &mut slot[chunk.start - own.start..chunk.end - own.start],
            );
        }
    }

    /// Writes `optimizer`'s moments over `shard(rank)` into this rank's slot.
    fn publish_moments(&self, rank: usize, optimizer: &Adam) {
        let own = self.shard(rank);
        let (first, second) = optimizer.moments();
        let mut slot = self.moment_slots[rank].write();
        let (first_out, second_out) = slot.split_at_mut(own.len());
        first_out.copy_from_slice(&first[own.clone()]);
        second_out.copy_from_slice(&second[own]);
    }

    /// Copies every peer's published moment shard into `optimizer`.
    fn copy_peer_moments(&self, rank: usize, optimizer: &mut Adam) {
        let (first, second) = optimizer.moments_mut();
        for peer in (0..self.num_ranks).filter(|&peer| peer != rank) {
            let range = self.shard(peer);
            let slot = self.moment_slots[peer].read();
            let (first_in, second_in) = slot.split_at(range.len());
            first[range.clone()].copy_from_slice(first_in);
            second[range].copy_from_slice(second_in);
        }
    }

    /// All-reduces `grads` in place: on return every rank holds the element-wise
    /// mean of all contributed gradient vectors. With a single rank the mean
    /// of one vector is that vector, and `grads` is left untouched bit for bit.
    ///
    /// The contributions are summed in the order the ranks arrive, so with
    /// three or more ranks the last bits of the mean vary from run to run;
    /// training rounds use [`GradientSynchronizer::step`], which sums in rank
    /// order. Every rank must call this once per reduction, with
    /// equal-length vectors, or the collective deadlocks (as MPI would).
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
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::init::InitScheme;
    use crate::mlp::{Activation, MlpConfig};
    use crate::optim::AdamConfig;
    use parking_lot::Mutex;
    use std::sync::Arc;

    /// 13 parameters: weights 0..6, biases 6..9, weights 9..12, bias 12.
    fn model() -> Mlp {
        Mlp::new(MlpConfig {
            layer_sizes: vec![2, 3, 1],
            activation: Activation::Tanh,
            init: InitScheme::XavierUniform,
            seed: 5,
        })
    }

    fn bits(values: &[f32]) -> Vec<u32> {
        values.iter().map(|v| v.to_bits()).collect()
    }

    /// Runs `ranks` threads through `rounds` calls of [`GradientSynchronizer::step`]
    /// and a final [`GradientSynchronizer::gather_moments`]; in each round
    /// `plan(round, rank)` gives the rank's vote and gradient (zeros when
    /// `None`). Rank `round % ranks` arrives late, so every rank is the last
    /// to contribute in some round. Returns per rank its verdicts, final
    /// model and optimizer.
    #[allow(clippy::type_complexity)]
    fn run_ranks(
        ranks: usize,
        rounds: usize,
        plan: impl Fn(usize, usize) -> (Vote, Option<Vec<f32>>) + Send + Sync + 'static,
    ) -> Vec<(Vec<Verdict>, Mlp, Adam)> {
        let count = model().param_count();
        let sync = Arc::new(GradientSynchronizer::new(ranks, count));
        let plan = Arc::new(plan);
        let handles: Vec<_> = (0..ranks)
            .map(|rank| {
                let sync = Arc::clone(&sync);
                let plan = Arc::clone(&plan);
                std::thread::spawn(move || {
                    let mut model = model();
                    let mut optimizer = Adam::new(AdamConfig::default(), count);
                    let mut verdicts = Vec::new();
                    for round in 0..rounds {
                        let (vote, grads) = plan(round, rank);
                        match grads {
                            Some(grads) => model.grads_mut().copy_from_slice(&grads),
                            None => model.zero_grads(),
                        }
                        if round % ranks == rank {
                            std::thread::sleep(std::time::Duration::from_micros(200));
                        }
                        verdicts.push(sync.step(rank, vote, &mut model, &mut optimizer, 0.01));
                    }
                    sync.gather_moments(rank, &mut optimizer);
                    (verdicts, model, optimizer)
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    }

    /// Distinct, inexactly representable gradients per (round, rank), so
    /// the order of their addition shows in the last bits.
    fn gradient(round: usize, rank: usize) -> Vec<f32> {
        (0..model().param_count())
            .map(|i| ((round * 7 + rank * 3 + i) % 11) as f32 * 0.37 - 1.1)
            .collect()
    }

    #[test]
    fn sharded_rounds_are_the_full_step_on_the_rank_order_mean() {
        const ROUNDS: usize = 6;
        for ranks in [2, 3, 4] {
            // Round 1: rank 0 captures. Round 3: rank 1 is idle. Round 5:
            // everyone is idle and the run is over.
            let vote = move |round: usize, rank: usize| match (round, rank) {
                (5, _) | (3, 1) => (Vote::Idle, None),
                (1, 0) => (Vote::Capture, Some(gradient(round, rank))),
                _ => (Vote::Active, Some(gradient(round, rank))),
            };
            let outcomes = run_ranks(ranks, ROUNDS, vote);

            // The same training on one replica: the mean summed in rank
            // order, then one full Adam step.
            let mut reference = model();
            let count = reference.param_count();
            let mut optimizer = Adam::new(AdamConfig::default(), count);
            for round in 0..ROUNDS - 1 {
                let mut mean = vec![0.0f32; count];
                for rank in 0..ranks {
                    let grads = vote(round, rank).1.unwrap_or(vec![0.0; count]);
                    for (m, g) in mean.iter_mut().zip(&grads) {
                        *m = if rank == 0 { *g } else { *m + g };
                    }
                }
                let scale = 1.0 / ranks as f32;
                for (g, m) in reference.grads_mut().iter_mut().zip(&mean) {
                    *g = m * scale;
                }
                optimizer.step_in_place(&mut reference, 0.01);
            }

            let mut expected = vec![Verdict::Stepped; ROUNDS];
            expected[ROUNDS - 1] = Verdict::Drained;
            for (verdicts, model, adam) in &outcomes {
                assert_eq!(verdicts, &expected, "{ranks} ranks");
                assert_eq!(bits(&model.params_flat()), bits(&reference.params_flat()));
                assert_eq!(adam.steps_taken(), ROUNDS - 1);
                assert_eq!(bits(adam.moments().0), bits(optimizer.moments().0));
                assert_eq!(bits(adam.moments().1), bits(optimizer.moments().1));
            }
        }
    }

    #[test]
    fn a_capture_vote_completes_that_ranks_moments_in_the_round() {
        // Two rounds, rank 0 captures in the second; its moments are
        // complete when `step` returns, before any exit gather.
        let count = model().param_count();
        let sync = Arc::new(GradientSynchronizer::new(2, count));
        let moments = Arc::new(Mutex::new(Vec::new()));
        let handles: Vec<_> = (0..2)
            .map(|rank| {
                let sync = Arc::clone(&sync);
                let moments = Arc::clone(&moments);
                std::thread::spawn(move || {
                    let mut model = model();
                    let mut optimizer = Adam::new(AdamConfig::default(), count);
                    for round in 0..2 {
                        model.grads_mut().copy_from_slice(&gradient(round, rank));
                        let vote = if rank == 0 && round == 1 {
                            Vote::Capture
                        } else {
                            Vote::Active
                        };
                        sync.step(rank, vote, &mut model, &mut optimizer, 0.01);
                    }
                    if rank == 0 {
                        moments.lock().push(bits(optimizer.moments().0));
                    }
                    sync.gather_moments(rank, &mut optimizer);
                    moments.lock().push(bits(optimizer.moments().0));
                })
            })
            .collect();
        for handle in handles {
            handle.join().unwrap();
        }
        let moments = moments.lock();
        assert_eq!(moments.len(), 3);
        assert!(moments.iter().all(|m| m == &moments[0]));
    }

    #[test]
    fn the_sum_runs_in_rank_order_whoever_arrives_last() {
        // In f32 (1e8 − 1e8) + 1 is 1, but (1e8 + 1) − 1e8 and (1 − 1e8) + 1e8
        // are 0: only the rank order (g0 + g1) + g2 gives a mean of 1/3.
        // Rank `round % 3` contributes last in each round.
        let values = [1e8f32, -1e8, 1.0];
        let outcomes = run_ranks(3, 6, move |_, rank| {
            (
                Vote::Active,
                Some(vec![values[rank]; model().param_count()]),
            )
        });
        let sync = GradientSynchronizer::new(3, model().param_count());
        for (rank, (_, model, _)) in outcomes.iter().enumerate() {
            // The arena holds the mean over the rank's own shard.
            let shard = sync.shard(rank);
            assert!(!shard.is_empty());
            assert!(
                model.grads()[shard].iter().all(|&g| g == 1.0 / 3.0),
                "rank {rank}: {:?}",
                model.grads()
            );
        }
        let first = bits(&outcomes[0].1.params_flat());
        assert!(outcomes
            .iter()
            .all(|(_, m, _)| bits(&m.params_flat()) == first));
    }

    #[test]
    fn a_crash_vote_ends_the_round_on_every_rank_without_an_update() {
        let outcomes = run_ranks(2, 2, |round, rank| match (round, rank) {
            (1, 0) => (Vote::Crash, Some(gradient(round, rank))),
            _ => (Vote::Active, Some(gradient(round, rank))),
        });
        // Round 0's step on every rank, then nothing: the replicas agree.
        let (_, stepped, _) = &outcomes[0];
        assert_ne!(bits(&stepped.params_flat()), bits(&model().params_flat()));
        for (verdicts, model, adam) in &outcomes {
            assert_eq!(verdicts, &[Verdict::Stepped, Verdict::Crash]);
            assert_eq!(adam.steps_taken(), 1);
            assert_eq!(bits(&model.params_flat()), bits(&stepped.params_flat()));
        }
    }

    #[test]
    fn single_rank_step_is_the_optimizer_step() {
        let mut model_a = model();
        let mut model_b = model();
        let count = model_a.param_count();
        let mut adam_a = Adam::new(AdamConfig::default(), count);
        let mut adam_b = Adam::new(AdamConfig::default(), count);
        let sync = GradientSynchronizer::new(1, count);
        assert_eq!(sync.shard(0), 0..count);
        for round in 0..3 {
            model_a.grads_mut().copy_from_slice(&gradient(round, 0));
            model_b.grads_mut().copy_from_slice(&gradient(round, 0));
            let vote = if round == 1 {
                Vote::Capture
            } else {
                Vote::Active
            };
            assert_eq!(
                sync.step(0, vote, &mut model_a, &mut adam_a, 0.01),
                Verdict::Stepped
            );
            adam_b.step_in_place(&mut model_b, 0.01);
        }
        sync.gather_moments(0, &mut adam_a);
        assert_eq!(bits(&model_a.params_flat()), bits(&model_b.params_flat()));
        assert_eq!(bits(model_a.grads()), bits(model_b.grads()));
        assert_eq!(bits(adam_a.moments().1), bits(adam_b.moments().1));
        let before = bits(&model_a.params_flat());
        assert_eq!(
            sync.step(0, Vote::Idle, &mut model_a, &mut adam_a, 0.01),
            Verdict::Drained
        );
        assert_eq!(
            sync.step(0, Vote::Crash, &mut model_a, &mut adam_a, 0.01),
            Verdict::Crash
        );
        assert_eq!(bits(&model_a.params_flat()), before);
        assert_eq!(adam_a.steps_taken(), 3);
    }

    #[test]
    fn shards_partition_the_parameters_in_rank_order() {
        for (ranks, count) in [(1, 13), (2, 13), (3, 13), (4, 215_616), (5, 3)] {
            let sync = GradientSynchronizer::new(ranks, count);
            let mut next = 0;
            for rank in 0..ranks {
                let shard = sync.shard(rank);
                assert_eq!(shard.start, next);
                assert!(shard.len() == count / ranks || shard.len() == count / ranks + 1);
                next = shard.end;
            }
            assert_eq!(next, count);
        }
    }

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
