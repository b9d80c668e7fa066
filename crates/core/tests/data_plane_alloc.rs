//! Asserts the central perf invariant of the rebuilt data plane: once the
//! buffers reached steady state, both hot paths perform **zero heap
//! allocations** —
//!
//! * the aggregator message path: message-log dedup, in-place payload→sample
//!   conversion (the message's own storage is reused), scratch accumulation
//!   and the batched `put_many` hand-off to the training buffer;
//! * the trainer round: direct buffer→batch assembly through the borrow-based
//!   `get_batch_with` visitor (no per-sample clone, even for the Reservoir),
//!   forward/backward through the reused workspace, rank-local occurrence
//!   accounting, gradient all-reduce and the fused optimizer step.
//!
//! A counting global allocator makes the claim falsifiable. The file follows
//! the `workspace_alloc.rs` pattern: a single test so no concurrent test
//! thread pollutes the counter, and the best window out of a few attempts so
//! harness-side buffering noise cannot fail the run.

use std::alloc::{GlobalAlloc, Layout, System};
use std::collections::HashMap;
use std::sync::atomic::{AtomicUsize, Ordering};

use melissa::{fill_batch_from_buffer, payload_into_sample};
use melissa_transport::{MessageLog, SamplePayload};
use surrogate_nn::{
    Activation, Adam, AdamConfig, Batch, GradientSynchronizer, InitScheme, InputNormalizer, Loss,
    Mlp, MlpConfig, MseLoss, Optimizer, OutputNormalizer, Sample,
};
use training_buffer::{FifoBuffer, ReservoirBuffer, TrainingBuffer};

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

const PARAM_DIM: usize = 5;
const FIELD_LEN: usize = 64;
const BURST: usize = 16;

/// Builds one wire-shaped payload exactly as the producers do: the parameter
/// vector reserves the spare slot the in-place conversion appends the time
/// entry into.
fn payload(seq: usize) -> SamplePayload {
    let mut parameters = Vec::with_capacity(PARAM_DIM + 1);
    parameters.extend((0..PARAM_DIM).map(|k| 100.0 + ((seq + k) % 5) as f32 * 100.0));
    SamplePayload {
        simulation_id: 0,
        step: seq,
        time: 0.01 * (seq % 100) as f64,
        parameters,
        values: (0..FIELD_LEN)
            .map(|k| 100.0 + ((seq * 7 + k) % 400) as f32)
            .collect(),
    }
}

/// Runs `attempts` windows of `body`, returning the fewest allocations any
/// window needed (the harness thread may allocate concurrently; the data-plane
/// thread itself must be able to run clean).
fn min_allocations_over(attempts: usize, mut body: impl FnMut()) -> usize {
    let mut min_allocations = usize::MAX;
    for _ in 0..attempts {
        // ordering: Relaxed — the counted window runs on this thread; program order relates the loads to the allocator's increments
        let before = ALLOCATIONS.load(Ordering::Relaxed);
        body();
        // ordering: Relaxed — same single-thread counted window as the load above
        let after = ALLOCATIONS.load(Ordering::Relaxed);
        min_allocations = min_allocations.min(after - before);
        if min_allocations == 0 {
            break;
        }
    }
    min_allocations
}

#[test]
fn steady_state_data_plane_allocates_nothing() {
    // ---- Phase 1: the aggregator message path. ----
    let input_norm = InputNormalizer::for_trajectory(100, 0.01);
    let output_norm = OutputNormalizer::default();
    let ingest_buffer = FifoBuffer::new(512);
    let mut log = MessageLog::new();
    let mut scratch: Vec<Sample> = Vec::with_capacity(BURST);
    let mut sink: Vec<Sample> = Vec::with_capacity(512);
    let mut next_sequence = 0usize;

    // Warm-up: the client-log entry, the scratch and the buffer storage reach
    // their steady-state capacity.
    let ingest_window = |log: &mut MessageLog,
                         scratch: &mut Vec<Sample>,
                         payloads: &mut Vec<SamplePayload>,
                         next_sequence: &mut usize| {
        for payload in payloads.drain(..) {
            if log.observe(0, *next_sequence as u64) {
                scratch.push(payload_into_sample(payload, &input_norm, &output_norm));
            }
            *next_sequence += 1;
            if scratch.len() == BURST {
                ingest_buffer.put_many(scratch);
            }
        }
        ingest_buffer.put_many(scratch);
    };

    let mut payloads: Vec<SamplePayload> = (0..64).map(|s| payload(next_sequence + s)).collect();
    ingest_window(&mut log, &mut scratch, &mut payloads, &mut next_sequence);
    sink.clear();
    // Drain exactly what is stored: reception stays open, so asking for more
    // than the population would block.
    let available = ingest_buffer.len();
    ingest_buffer.get_batch(available, &mut sink);

    // The payload construction stands in for the transport hand-off (messages
    // arrive owned, allocated by the sending client); it and the drain that
    // empties the buffer again happen outside the counted window.
    let mut best_ingest = usize::MAX;
    for _ in 0..5 {
        let mut payloads: Vec<SamplePayload> =
            (0..64).map(|s| payload(next_sequence + s)).collect();
        // ordering: Relaxed — the counted window runs on this thread; program order relates the loads to the allocator's increments
        let before = ALLOCATIONS.load(Ordering::Relaxed);
        ingest_window(&mut log, &mut scratch, &mut payloads, &mut next_sequence);
        // ordering: Relaxed — same single-thread counted window as the load above
        let after = ALLOCATIONS.load(Ordering::Relaxed);
        best_ingest = best_ingest.min(after - before);
        sink.clear();
        let available = ingest_buffer.len();
        ingest_buffer.get_batch(available, &mut sink);
        if best_ingest == 0 {
            break;
        }
    }
    assert_eq!(
        best_ingest, 0,
        "the steady-state aggregator message path must not allocate \
         (best window: {best_ingest} allocations for 64 messages)"
    );

    // ---- Phase 2: the trainer round with direct batch assembly. ----
    let batch_size = 8usize;
    let mut model = Mlp::new(MlpConfig {
        layer_sizes: vec![PARAM_DIM + 1, 32, 32, FIELD_LEN],
        activation: Activation::ReLU,
        init: InitScheme::HeUniform,
        seed: 3,
    });
    let mut optimizer = Adam::new(AdamConfig::default(), model.param_count());
    let sync = GradientSynchronizer::new(1, model.param_count());
    let loss_fn = MseLoss;

    // A Reservoir with reception open: the hardest case — sequential `get`
    // would clone every served sample, the borrow-based assembly must not.
    let train_buffer = ReservoirBuffer::new(64, 1, 5);
    let mut occurrences: HashMap<(u64, usize), u32> = HashMap::with_capacity(64);
    for k in 0..32usize {
        let mut input = Vec::with_capacity(PARAM_DIM + 1);
        input.extend((0..=PARAM_DIM).map(|d| ((k + d) % 9) as f32 / 9.0));
        let target: Vec<f32> = (0..FIELD_LEN)
            .map(|d| ((k * 3 + d) % 11) as f32 / 11.0)
            .collect();
        let sample = Sample::new(input, target, 0, k);
        // Pre-seed every key so the occurrence map never rehashes or inserts
        // fresh entries inside the measured window.
        occurrences.insert(sample.key(), 0);
        train_buffer.put(sample);
    }

    let mut ws = model.workspace(batch_size).with_threads(1);
    let mut batch = Batch::with_capacity(batch_size, model.input_size(), model.output_size());

    let mut step = |model: &mut Mlp, optimizer: &mut Adam, ws: &mut surrogate_nn::Workspace| {
        let served = fill_batch_from_buffer(&train_buffer, &mut batch, batch_size);
        assert_eq!(served, batch_size);
        model.forward_ws(&batch.inputs, ws);
        let (prediction, grad_out) = ws.output_and_grad_mut();
        let loss = loss_fn.evaluate_into(prediction, &batch.targets, grad_out);
        model.backward_ws(ws);
        for key in &batch.keys {
            *occurrences.entry(*key).or_default() += 1;
        }
        // The trainer's round: the gradients never leave the model's arena.
        sync.all_reduce_mean(model.grads_mut());
        optimizer.step_in_place(model, 1e-3);
        loss
    };

    // Warm up the lazily sized buffers (batch, occurrence map).
    for _ in 0..3 {
        step(&mut model, &mut optimizer, &mut ws);
    }

    let mut last_loss = 0.0;
    let trainer_allocations = min_allocations_over(5, || {
        for _ in 0..10 {
            last_loss = step(&mut model, &mut optimizer, &mut ws);
        }
    });
    assert!(last_loss.is_finite());
    assert_eq!(
        trainer_allocations, 0,
        "the steady-state trainer round must not allocate \
         (best window: {trainer_allocations} allocations in 10 rounds)"
    );
}
