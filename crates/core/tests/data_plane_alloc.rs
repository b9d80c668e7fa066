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
//!   accounting and the training round (reduction and fused optimizer step);
//! * the real thing: rank 0's learning thread inside [`RankTrainer::run`]
//!   with recovery hooks, a durable recorder and periodic validation on —
//!   consumption accounting, the O(new) completion drain, the snapshot
//!   hand-off to the sidecar and the loss history included. A round that is
//!   neither a checkpoint nor a validation round allocates nothing;
//! * persisting a checkpoint: after its first save the durable store encodes
//!   into a buffer it keeps, so a save allocates the same few times whatever
//!   the model's size;
//! * the producers: one trajectory of the analytic workload or of the
//!   implicit solver allocates the one `Vec<f32>` per step that travels
//!   downstream, plus a fixed set-up — tables and work vectors are built
//!   once per trajectory, not per step.
//!
//! A counting global allocator makes the claim falsifiable. The file follows
//! the `workspace_alloc.rs` pattern: a single test so no concurrent test
//! thread pollutes the counter, and the best window out of a few attempts so
//! harness-side buffering noise cannot fail the run.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Instant;

use heat_solver::{SolverConfig, SyntheticWorkload};
use melissa::trainer::{RankTrainer, TrainerShared};
use melissa::{
    fill_batch_from_buffer, payload_into_sample, CheckpointStore, CompletionJournal,
    DurableCheckpointStore, DurableIdentity, DurableRecorder, OccurrenceTable, RecoveryHooks,
    RecoveryTracker, ServerCheckpoint, TrainingConfig, ValidationSet,
};
use melissa_transport::{MessageLog, SamplePayload};
use melissa_workload::Workload;
use surrogate_nn::{
    Activation, Adam, AdamConfig, Batch, GradientSynchronizer, InitScheme, InputNormalizer, Loss,
    Mlp, MlpConfig, MseLoss, OutputNormalizer, Sample, Vote,
};
use training_buffer::{FifoBuffer, ReservoirBuffer, TrainingBuffer};

struct CountingAllocator;

static ALLOCATIONS: AtomicUsize = AtomicUsize::new(0);

/// Allocations made by the one thread that set [`IS_LEARNER`]: phase 3 counts
/// rank 0's learning thread apart from its sidecar, which allocates
/// concurrently, and from the test thread that feeds it.
static LEARNER_ALLOCATIONS: AtomicUsize = AtomicUsize::new(0);

thread_local! {
    static IS_LEARNER: Cell<bool> = const { Cell::new(false) };
}

fn count_allocation() {
    // ordering: Relaxed — a pure allocation tally; the test thread triggers the allocations it counts, so program order already covers the reads
    ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
    // `try_with`: a thread being torn down may still allocate after its
    // thread-locals are gone.
    if IS_LEARNER.try_with(Cell::get).unwrap_or(false) {
        // ordering: Relaxed — a tally; the reader synchronises with the learner through the buffer's lock before it loads
        LEARNER_ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
    }
}

unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_allocation();
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_allocation();
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

/// Phase 3: per-round allocations of rank 0's learning thread inside a real
/// `RankTrainer::run` with recovery hooks, durability and validation on.
/// Returns `(round, allocations)` for rounds `1..=ROUNDS`.
///
/// The calling thread paces the learner through a FIFO buffer with reception
/// open: it feeds exactly one batch, waits until the learner has trained on it
/// and is parked waiting for the next, and reads the learner's tally in
/// between. One reading therefore spans one whole round — the batch fill, the
/// step, the recovery bookkeeping and the hand-off to the sidecar.
fn learner_allocations_per_round() -> Vec<(usize, usize)> {
    const ROUNDS: usize = 128;
    const BATCH: usize = 8;
    const STEPS: usize = 16;
    let model = || {
        Mlp::new(MlpConfig {
            layer_sizes: vec![PARAM_DIM + 1, 32, 32, FIELD_LEN],
            activation: Activation::ReLU,
            init: InitScheme::HeUniform,
            seed: 3,
        })
    };
    let sample = |simulation: u64, step: usize| {
        let k = simulation as usize * STEPS + step;
        Sample::new(
            (0..=PARAM_DIM)
                .map(|d| ((k + d) % 9) as f32 / 9.0)
                .collect(),
            (0..FIELD_LEN)
                .map(|d| ((k * 3 + d) % 11) as f32 / 11.0)
                .collect(),
            simulation,
            step,
        )
    };

    // Two finalized simulations of 16 steps, served round-robin over and over
    // (as a Reservoir would re-serve them): after four rounds every sample
    // was trained once, both simulations have completed and been journalled,
    // and neither the occurrence counts nor the tracker's step rows (both
    // sized for the campaign up front) ever grow.
    let pool: Vec<Sample> = (0..2u64)
        .flat_map(|simulation| (0..STEPS).map(move |step| (simulation, step)))
        .map(|(simulation, step)| sample(simulation, step))
        .collect();
    let tracker = Arc::new(RecoveryTracker::new(1, 2, STEPS));
    for simulation in 0..2u64 {
        tracker.record_received(simulation, STEPS);
        tracker.record_finalized(simulation);
    }

    let dir = std::env::temp_dir().join(format!("melissa-alloc-durable-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let identity = DurableIdentity {
        experiment_seed: 3,
        config_fingerprint: 1,
    };
    let store = DurableCheckpointStore::open(&dir, identity, 2).unwrap();
    let (journal, _) = CompletionJournal::open(&dir, identity, 1).unwrap();
    let recorder = Arc::new(DurableRecorder::new(store, journal, []));
    let hooks = RecoveryHooks {
        checkpoint_every_batches: 25,
        store: Arc::new(CheckpointStore::new()),
        tracker,
        crash_after_batches: None,
        server_down: Arc::new(AtomicBool::new(false)),
        experiment_seed: 3,
        resume: None,
        durable: Some(Arc::clone(&recorder)),
    };
    let validation = Arc::new(ValidationSet::from_samples(
        (0..8).map(|step| sample(9, step)).collect(),
        BATCH,
    ));
    let config = TrainingConfig {
        batch_size: BATCH,
        num_ranks: 1,
        validation_interval_batches: 10,
        gemm_threads: 1,
        ..TrainingConfig::default()
    };
    let shared = Arc::new(TrainerShared::new(1, model().param_count()));
    let fifo = Arc::new(FifoBuffer::new(64));
    let buffer: Arc<dyn TrainingBuffer<Sample>> = Arc::clone(&fifo) as _;
    let occurrences = OccurrenceTable::with_shape(2, STEPS);
    let trainer = RankTrainer::new(
        0,
        model(),
        buffer,
        config,
        Some(validation),
        shared,
        occurrences,
    )
    .with_recovery(hooks);
    let learner = std::thread::spawn(move || {
        IS_LEARNER.with(|flag| flag.set(true));
        trainer.run(Instant::now())
    });

    // The learner is parked in its batch fill (a consumer wait it has not
    // been woken from) exactly when it has served everything fed so far and
    // started one more wait than at the previous reading.
    let parked_after = |served: usize, waits_before: usize| loop {
        let stats = fifo.stats();
        if stats.gets == served && stats.consumer_waits > waits_before {
            return stats.consumer_waits;
        }
        std::thread::yield_now();
    };
    let mut waits = parked_after(0, 0);
    // ordering: Relaxed — the stats read above took the buffer's lock after the learner released it, which orders the learner's increments before this load
    let mut tally = LEARNER_ALLOCATIONS.load(Ordering::Relaxed);
    let mut per_round = Vec::with_capacity(ROUNDS);
    for round in 1..=ROUNDS {
        let mut batch: Vec<Sample> = (0..BATCH)
            .map(|k| pool[((round - 1) * BATCH + k) % pool.len()].clone())
            .collect();
        fifo.put_many(&mut batch);
        waits = parked_after(round * BATCH, waits);
        // ordering: Relaxed — ordered after the learner's increments by the buffer's lock, as above
        let now = LEARNER_ALLOCATIONS.load(Ordering::Relaxed);
        per_round.push((round, now - tally));
        tally = now;
    }
    fifo.mark_reception_over();
    let outcome = learner.join().unwrap();

    assert_eq!(outcome.batches_with_data, ROUNDS);
    assert_eq!(recorder.first_error(), None);
    assert_eq!(outcome.sidecar.checkpoints_persisted, ROUNDS / 25);
    assert_eq!(outcome.sidecar.journal_flushes, 2, "one per simulation");
    assert_eq!(outcome.sidecar.validations, ROUNDS / 10);
    let _ = std::fs::remove_dir_all(&dir);
    per_round
}

/// Allocations of one steady-state `DurableCheckpointStore::save` of a full
/// checkpoint (parameters and both Adam moments) of a `6 → hidden → hidden →
/// 64` model: the best of a few saves after the store's buffer reached its
/// size and retention its limit.
fn save_allocations(hidden: usize) -> usize {
    let model = Mlp::new(MlpConfig {
        layer_sizes: vec![PARAM_DIM + 1, hidden, hidden, FIELD_LEN],
        activation: Activation::ReLU,
        init: InitScheme::HeUniform,
        seed: 3,
    });
    let dir = std::env::temp_dir().join(format!("melissa-alloc-save-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let identity = DurableIdentity {
        experiment_seed: 3,
        config_fingerprint: 1,
    };
    let store = DurableCheckpointStore::open(&dir, identity, 2).unwrap();
    let mut checkpoint = ServerCheckpoint::capture(&model, 10, 100, vec![0, 1], 3);
    checkpoint.optimizer = Some(Adam::new(AdamConfig::default(), model.param_count()));
    for _ in 0..3 {
        store.save(&checkpoint).unwrap();
    }
    let allocations = min_allocations_over(5, || {
        store.save(&checkpoint).unwrap();
    });
    let _ = std::fs::remove_dir_all(&dir);
    allocations
}

/// Allocations of one trajectory of `workload` through the `Workload` trait,
/// the way a client generates it: the best of a few attempts.
fn trajectory_allocations(workload: &SyntheticWorkload) -> usize {
    let mut streamed = 0usize;
    let allocations = min_allocations_over(3, || {
        Workload::generate(workload, [350.0, 150.0, 250.0, 450.0, 200.0], &mut |step| {
            streamed += step.values.len();
        })
        .unwrap();
    });
    assert!(streamed > 0);
    allocations
}

#[test]
fn steady_state_data_plane_allocates_nothing() {
    // ---- Phase 0: the producers' allocation budget. ----
    // Per step, the `Vec<f32>` the sample travels in and nothing else. Per
    // trajectory: the solver's field, boundary vector, right-hand side, three
    // CG vectors and boxed stepper; the analytic workload's sine row and two
    // tables.
    let config = SolverConfig {
        nx: 16,
        ny: 12,
        steps: 40,
        ..SolverConfig::default()
    };
    for (workload, setup) in [
        (SyntheticWorkload::solver(config), 7),
        (SyntheticWorkload::analytic(config), 3),
    ] {
        let allocations = trajectory_allocations(&workload);
        assert!(
            allocations <= config.steps + setup,
            "{}: {allocations} allocations for {} steps (budget: one per step + {setup})",
            Workload::name(&workload),
            config.steps
        );
    }

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
    let mut occurrences = OccurrenceTable::with_shape(1, 32);
    for k in 0..32usize {
        let mut input = Vec::with_capacity(PARAM_DIM + 1);
        input.extend((0..=PARAM_DIM).map(|d| ((k + d) % 9) as f32 / 9.0));
        let target: Vec<f32> = (0..FIELD_LEN)
            .map(|d| ((k * 3 + d) % 11) as f32 / 11.0)
            .collect();
        train_buffer.put(Sample::new(input, target, 0, k));
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
            occurrences.record(*key);
        }
        // The trainer's round: the gradients never leave the model's arena.
        sync.step(0, Vote::Active, model, optimizer, 1e-3);
        loss
    };

    // Warm up the lazily sized batch.
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

    // ---- Phase 3: rank 0's learning thread with recovery and durability. ----
    // Rounds 66..=128 are steady state: every sample was trained (and both
    // simulations journalled) long before, and the loss history last doubled
    // its capacity at round 65. Checkpoints fall on 75, 100 and 125 and keep
    // their copy. A validation round (every tenth) hands the sidecar a
    // recycled parameter buffer; it may allocate a second one only while the
    // sidecar is still busy with a checkpoint's fsyncs and the first has not
    // come back. The same rounds push a throughput point, and the ninth push
    // (round 90) doubles that vector.
    let allocating: Vec<(usize, usize)> = learner_allocations_per_round()
        .into_iter()
        .filter(|&(round, allocations)| {
            let allowed = usize::from(round % 10 == 0) + usize::from(round == 90);
            round >= 66 && round % 25 != 0 && allocations > allowed
        })
        .collect();
    assert!(
        allocating.is_empty(),
        "steady-state rounds of rank 0 that capture no checkpoint must not allocate on the \
         learning thread; (round, allocations): {allocating:?}"
    );

    // ---- Phase 4: persisting a checkpoint. ----
    // What a steady-state save allocates is the file name, the temp path, the
    // directory listing and the few-hundred-byte metadata document — nothing
    // per parameter (the JSON encoder this replaced made more than one
    // allocation per parameter). The two widths have the same number of
    // digits, so the metadata is the same length: 17,264 parameters or
    // 188,864, the count is the same.
    let (small, large) = (save_allocations(100), save_allocations(400));
    assert_eq!(
        small, large,
        "a steady-state save must allocate independently of the parameter count"
    );
    assert!(large <= 128, "{large} allocations in one steady-state save");
}
