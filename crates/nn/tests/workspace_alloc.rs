//! Asserts the central perf invariant of the workspace training path: once the
//! buffers reached steady state, a full training step — batch refill, forward,
//! loss, backward into the gradient arena and the training round (reduction
//! and in-place optimizer step) — performs **zero heap allocations**, and so
//! does the retained flattened-gradient export with the all-reduce and the
//! external-gradient step. It holds for a full batch, for a single sample, and
//! for two ranks on threads running the sharded round together.
//!
//! A counting global allocator makes the claim falsifiable instead of
//! aspirational. The file holds exactly one test so no concurrent test thread
//! can pollute the counter.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use surrogate_nn::{
    Activation, Adam, AdamConfig, Batch, GradientSynchronizer, InitScheme, Loss, Mlp, MlpConfig,
    MseLoss, Optimizer, Sample, Verdict, Vote,
};

struct CountingAllocator;

static ALLOCATIONS: AtomicUsize = AtomicUsize::new(0);

unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // ordering: Relaxed — a pure allocation tally; the test thread triggers the allocations it counts, so program order already covers the reads
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // ordering: Relaxed — a pure allocation tally; the test thread triggers the allocations it counts, so program order already covers the reads
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static ALLOCATOR: CountingAllocator = CountingAllocator;

#[test]
fn steady_state_training_step_allocates_nothing() {
    for batch_size in [8, 1] {
        assert_steady_state_allocates_nothing(batch_size);
    }
    assert_two_rank_rounds_allocate_nothing();
}

fn model() -> Mlp {
    Mlp::new(MlpConfig {
        layer_sizes: vec![6, 32, 32, 64],
        activation: Activation::ReLU,
        init: InitScheme::HeUniform,
        seed: 3,
    })
}

/// `batch_size` samples of rank `rank`'s stream.
fn samples(batch_size: usize, rank: usize) -> Vec<Sample> {
    (0..batch_size)
        .map(|k| {
            let x = (k + rank) as f32 / (batch_size + rank) as f32;
            Sample::new(vec![x; 6], vec![x * 0.5; 64], 0, k)
        })
        .collect()
}

fn assert_steady_state_allocates_nothing(batch_size: usize) {
    let mut model = model();
    let mut optimizer = Adam::new(AdamConfig::default(), model.param_count());
    let sync = GradientSynchronizer::new(1, model.param_count());
    let loss_fn = MseLoss;

    // Per-trainer reusable state (threads = 1: the scoped thread pool spawns,
    // and therefore allocates, only when explicitly enabled).
    let mut ws = model.workspace(batch_size).with_threads(1);
    let mut batch = Batch::with_capacity(batch_size, model.input_size(), model.output_size());
    let mut grads: Vec<f32> = Vec::with_capacity(model.param_count());

    let samples = samples(batch_size, 0);

    // Even steps take the trainer's path (the arena all the way through the
    // round); odd steps the retained one (`grads_flat_into` + all-reduce +
    // external-gradient `step`).
    let mut steps = 0usize;
    let mut step = |model: &mut Mlp, optimizer: &mut Adam, ws: &mut surrogate_nn::Workspace| {
        batch.fill_owned(&samples);
        model.forward_ws(&batch.inputs, ws);
        let (prediction, grad_out) = ws.output_and_grad_mut();
        let loss = loss_fn.evaluate_into(prediction, &batch.targets, grad_out);
        model.backward_ws(ws);
        steps += 1;
        if steps.is_multiple_of(2) {
            sync.step(0, Vote::Active, model, optimizer, 1e-3);
        } else {
            model.grads_flat_into(&mut grads);
            assert!(grads == model.grads(), "the export is the arena");
            sync.all_reduce_mean(&mut grads);
            optimizer.step(model, &grads, 1e-3);
        }
        loss
    };

    // Warm up: the exported gradient vector reaches its capacity (the arena
    // itself was allocated with the model).
    for _ in 0..3 {
        step(&mut model, &mut optimizer, &mut ws);
    }

    // The test-harness thread may allocate concurrently (output buffering),
    // so accept any clean 10-step window out of a few attempts — the training
    // thread itself must be able to run allocation-free.
    let mut min_allocations = usize::MAX;
    let mut last_loss = 0.0;
    for _ in 0..5 {
        // ordering: Relaxed — the counted window runs on this thread; program order relates the loads to the allocator's increments
        let before = ALLOCATIONS.load(Ordering::Relaxed);
        for _ in 0..10 {
            last_loss = step(&mut model, &mut optimizer, &mut ws);
        }
        // ordering: Relaxed — same single-thread counted window as the load above
        let after = ALLOCATIONS.load(Ordering::Relaxed);
        min_allocations = min_allocations.min(after - before);
        if min_allocations == 0 {
            break;
        }
    }

    assert!(last_loss.is_finite());
    assert_eq!(
        min_allocations, 0,
        "steady-state training steps must not allocate at batch {batch_size} \
         (best window: {min_allocations} allocations in 10 steps)"
    );
}

/// Two ranks on threads, each running the trainer's round on its own batch —
/// forward, loss, backward, then the sharded round, with rank 0 capturing
/// every fifth round — allocate nothing once warm. The counter is global, so
/// each rank's window also sees the other rank; both run every window, since
/// neither may leave the collective early.
fn assert_two_rank_rounds_allocate_nothing() {
    const BATCH: usize = 8;
    let sync = Arc::new(GradientSynchronizer::new(2, model().param_count()));
    let ranks: Vec<_> = (0..2)
        .map(|rank| {
            let sync = Arc::clone(&sync);
            std::thread::spawn(move || {
                let mut model = model();
                let mut optimizer = Adam::new(AdamConfig::default(), model.param_count());
                let mut ws = model.workspace(BATCH).with_threads(1);
                let mut batch = Batch::with_capacity(BATCH, 6, 64);
                let samples = samples(BATCH, rank);
                let mut rounds = 0usize;
                let mut round = |model: &mut Mlp, optimizer: &mut Adam| {
                    batch.fill_owned(&samples);
                    model.forward_ws(&batch.inputs, &mut ws);
                    let (prediction, grad_out) = ws.output_and_grad_mut();
                    MseLoss.evaluate_into(prediction, &batch.targets, grad_out);
                    model.backward_ws(&mut ws);
                    rounds += 1;
                    let vote = if rank == 0 && rounds.is_multiple_of(5) {
                        Vote::Capture
                    } else {
                        Vote::Active
                    };
                    let verdict = sync.step(rank, vote, model, optimizer, 1e-3);
                    assert!(verdict == Verdict::Stepped);
                };
                for _ in 0..3 {
                    round(&mut model, &mut optimizer);
                }
                let mut min_allocations = usize::MAX;
                for _ in 0..5 {
                    // ordering: Relaxed — a tally read; the window is bounded by this thread's own rounds
                    let before = ALLOCATIONS.load(Ordering::Relaxed);
                    for _ in 0..10 {
                        round(&mut model, &mut optimizer);
                    }
                    // ordering: Relaxed — same tally read as above
                    let after = ALLOCATIONS.load(Ordering::Relaxed);
                    min_allocations = min_allocations.min(after - before);
                }
                min_allocations
            })
        })
        .collect();
    for (rank, handle) in ranks.into_iter().enumerate() {
        let min_allocations = handle.join().unwrap();
        assert_eq!(
            min_allocations, 0,
            "two-rank rounds must not allocate (rank {rank}, best window: \
             {min_allocations} allocations in 10 rounds)"
        );
    }
}
