//! Asserts the central perf invariant of the workspace training path: once the
//! buffers reached steady state, a full training step — batch refill, forward,
//! loss, backward into the gradient arena, in-place all-reduce and in-place
//! optimizer step — performs **zero heap allocations**, and so does the
//! retained flattened-gradient export with the external-gradient step. It
//! holds for a full batch and for a single sample.
//!
//! A counting global allocator makes the claim falsifiable instead of
//! aspirational. The file holds exactly one test so no concurrent test thread
//! can pollute the counter.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};
use surrogate_nn::{
    Activation, Adam, AdamConfig, Batch, GradientSynchronizer, InitScheme, Loss, Mlp, MlpConfig,
    MseLoss, Optimizer, Sample,
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
}

fn assert_steady_state_allocates_nothing(batch_size: usize) {
    let mut model = Mlp::new(MlpConfig {
        layer_sizes: vec![6, 32, 32, 64],
        activation: Activation::ReLU,
        init: InitScheme::HeUniform,
        seed: 3,
    });
    let mut optimizer = Adam::new(AdamConfig::default(), model.param_count());
    let sync = GradientSynchronizer::new(1, model.param_count());
    let loss_fn = MseLoss;

    // Per-trainer reusable state (threads = 1: the scoped thread pool spawns,
    // and therefore allocates, only when explicitly enabled).
    let mut ws = model.workspace(batch_size).with_threads(1);
    let mut batch = Batch::with_capacity(batch_size, model.input_size(), model.output_size());
    let mut grads: Vec<f32> = Vec::with_capacity(model.param_count());

    let samples: Vec<Sample> = (0..batch_size)
        .map(|k| {
            let x = k as f32 / batch_size as f32;
            Sample::new(vec![x; 6], vec![x * 0.5; 64], 0, k)
        })
        .collect();

    // Even steps take the trainer's path (the arena all the way); odd steps
    // the retained one (`grads_flat_into` + external-gradient `step`).
    let mut steps = 0usize;
    let mut step = |model: &mut Mlp, optimizer: &mut Adam, ws: &mut surrogate_nn::Workspace| {
        batch.fill_owned(&samples);
        model.forward_ws(&batch.inputs, ws);
        let (prediction, grad_out) = ws.output_and_grad_mut();
        let loss = loss_fn.evaluate_into(prediction, &batch.targets, grad_out);
        model.backward_ws(ws);
        steps += 1;
        if steps.is_multiple_of(2) {
            sync.all_reduce_mean(model.grads_mut());
            optimizer.step_in_place(model, 1e-3);
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
