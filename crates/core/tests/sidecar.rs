//! Rank 0's sidecar, seen from outside [`RankTrainer::run`]: the values it
//! produces are the ones the learner would have computed itself, a full
//! queue only slows the learner down, a disk error degrades instead of
//! aborting, and a panic on the sidecar ends the run instead of hanging it.
//! And what it persists is enough: resuming from the file it wrote continues
//! the run bit for bit.

use melissa::trainer::{RankOutcome, RankTrainer, TrainerShared};
use melissa::{
    CheckpointStore, CompletionJournal, DurableCheckpointStore, DurableIdentity, DurableRecorder,
    OccurrenceTable, RecoveryHooks, RecoveryTracker, ServerCheckpoint, TrainingConfig,
    ValidationSet,
};
use melissa_transport::Checksum64;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};
use surrogate_nn::{Activation, InitScheme, Mlp, MlpConfig, Sample};
use training_buffer::{FifoBuffer, TrainingBuffer};

const BATCH_SIZE: usize = 4;
/// The campaign shape the trackers and occurrence tables are sized for.
const SIMULATIONS: usize = 16;
const STEPS: usize = 256;

fn sample(sim: u64, step: usize, inputs: usize) -> Sample {
    let x = (sim as f32 * 0.37 + step as f32 * 0.013).fract();
    Sample::new(
        (0..inputs).map(|k| (x + k as f32 * 0.2).fract()).collect(),
        (0..8)
            .map(|k| (x + k as f32 * 0.1).sin() * 0.5 + 0.5)
            .collect(),
        sim,
        step,
    )
}

fn model() -> Mlp {
    Mlp::new(MlpConfig {
        layer_sizes: vec![4, 24, 8],
        activation: Activation::ReLU,
        init: InitScheme::HeUniform,
        seed: 11,
    })
}

fn config(validation_interval_batches: usize) -> TrainingConfig {
    TrainingConfig {
        batch_size: BATCH_SIZE,
        num_ranks: 1,
        validation_interval_batches,
        gemm_threads: 1,
        ..TrainingConfig::default()
    }
}

fn hooks(checkpoint_every_batches: usize, durable: Option<Arc<DurableRecorder>>) -> RecoveryHooks {
    RecoveryHooks {
        checkpoint_every_batches,
        store: Arc::new(CheckpointStore::new()),
        tracker: Arc::new(RecoveryTracker::new(1, SIMULATIONS, STEPS)),
        crash_after_batches: None,
        server_down: Arc::new(AtomicBool::new(false)),
        experiment_seed: 9,
        resume: None,
        durable,
    }
}

/// Trains one rank over `batches` pre-filled FIFO batches: the sample
/// stream, and with it every parameter update, is the same on every call.
fn train(batches: usize, interval: usize, validation: &Arc<ValidationSet>) -> RankOutcome {
    let buffer: Arc<dyn TrainingBuffer<Sample>> = Arc::new(FifoBuffer::new(1024));
    for k in 0..batches * BATCH_SIZE {
        buffer.put(sample((k % 16) as u64, k, 4));
    }
    buffer.mark_reception_over();
    let shared = Arc::new(TrainerShared::new(1, model().param_count()));
    RankTrainer::new(
        0,
        model(),
        buffer,
        config(interval),
        Some(Arc::clone(validation)),
        shared,
        OccurrenceTable::with_shape(SIMULATIONS, STEPS),
    )
    .run(Instant::now())
}

#[test]
fn snapshots_are_isolated_from_later_updates_and_survive_a_full_queue() {
    // A validation pass (64 forward passes) costs far more than a train
    // step, so at interval 1 the queue fills and the learner runs on
    // ahead of the sidecar by exactly the queue depth: every snapshot is
    // validated long after the learner has moved on from it.
    let validation = Arc::new(ValidationSet::from_samples(
        (0..256).map(|k| sample(100, k, 4)).collect(),
        BATCH_SIZE,
    ));
    const BATCHES: usize = 60;
    let sparse = train(BATCHES, 3, &validation);
    let dense = train(BATCHES, 1, &validation);
    assert_eq!(sparse.model.params_flat(), dense.model.params_flat());
    assert_eq!(sparse.sidecar.validations, BATCHES / 3);
    assert_eq!(dense.sidecar.validations, BATCHES);
    assert!(
        dense.sidecar.learner_blocked_seconds > 0.0,
        "60 validation passes against 60 train steps must fill the queue"
    );

    // Every due point is filled once `run` returns; the rest stay empty.
    for (index, point) in sparse.losses[..BATCHES].iter().enumerate() {
        let due = (index + 1).is_multiple_of(3);
        assert_eq!(point.batches, index + 1);
        assert_eq!(point.validation_loss.is_some(), due, "batch {}", index + 1);
    }
    // Same snapshot, same value, however late it was validated.
    for (a, b) in sparse.losses[..BATCHES].iter().zip(&dense.losses) {
        let b = b.validation_loss.expect("interval 1 validates every batch");
        if let Some(loss) = a.validation_loss {
            assert_eq!(loss.to_bits(), b.to_bits(), "batch {}", a.batches);
        }
    }
    // The last batch is a validation batch at both intervals: its snapshot
    // is the final model, validated on the sidecar's shadow copy, and must
    // equal both the learner's own final point and a fresh evaluation.
    let fresh = validation.evaluate(&dense.model).to_bits();
    for outcome in [&sparse, &dense] {
        let last_periodic = outcome.losses[BATCHES - 1].validation_loss.unwrap();
        let final_point = outcome.losses[BATCHES].validation_loss.unwrap();
        assert_eq!(last_periodic.to_bits(), fresh);
        assert_eq!(final_point.to_bits(), fresh);
    }
}

#[test]
fn a_disk_error_on_the_sidecar_degrades_durability_but_training_completes() {
    let dir = std::env::temp_dir().join(format!("melissa-sidecar-degraded-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let identity = DurableIdentity {
        experiment_seed: 9,
        config_fingerprint: 1,
    };
    let store = DurableCheckpointStore::open(&dir, identity, 3).unwrap();
    let (journal, _) = CompletionJournal::open(&dir, identity, 1).unwrap();
    let recorder = Arc::new(DurableRecorder::new(store, journal, []));
    // The disk goes away under the open recorder: every checkpoint write
    // from here on finds no directory to create its temp file in.
    std::fs::remove_dir_all(&dir).unwrap();

    let buffer: Arc<dyn TrainingBuffer<Sample>> = Arc::new(FifoBuffer::new(256));
    for k in 0..40 {
        buffer.put(sample(0, k, 4));
    }
    buffer.mark_reception_over();
    let hooks = hooks(2, Some(Arc::clone(&recorder)));
    let shared = Arc::new(TrainerShared::new(1, model().param_count()));
    let occurrences = OccurrenceTable::with_shape(SIMULATIONS, STEPS);
    let outcome = RankTrainer::new(0, model(), buffer, config(0), None, shared, occurrences)
        .with_recovery(hooks.clone())
        .run(Instant::now());

    assert_eq!(outcome.batches_with_data, 10, "training ran to the end");
    assert_eq!(hooks.store.taken(), 5, "in-memory checkpoints still taken");
    assert_eq!(outcome.sidecar.checkpoints_persisted, 0);
    assert_eq!(recorder.checkpoints_saved(), 0);
    let error = recorder.first_error().expect("the first failure latches");
    assert!(error.contains("I/O error"), "{error}");
    // ordering: Acquire — pairs with the unwind guard's Release store, which must not have happened
    assert!(!hooks.server_down.load(Ordering::Acquire));
}

#[test]
fn a_panic_on_the_sidecar_ends_the_run_instead_of_hanging_it() {
    // Validation samples one input narrower than the model: the first
    // periodic validation panics on rank 0's sidecar thread. Two things
    // would then wait forever. A producer stands in for an aggregator
    // blocked on rank 0's full buffer, which only the unwind guard's
    // `mark_reception_over` releases (at the parent commit the same panic,
    // then on the learner, left it parked). And rank 1 sits in the next
    // collective, which only rank 0's crash vote lets it leave.
    let (verdict_tx, verdict_rx) = std::sync::mpsc::channel();
    std::thread::spawn(move || {
        let buffers: [Arc<dyn TrainingBuffer<Sample>>; 2] =
            [Arc::new(FifoBuffer::new(8)), Arc::new(FifoBuffer::new(8))];
        buffers[1].mark_reception_over();
        let validation = Arc::new(ValidationSet::from_samples(
            (0..8).map(|k| sample(100, k, 3)).collect(),
            BATCH_SIZE,
        ));
        let hooks = hooks(0, None);
        let producer = {
            let buffer = Arc::clone(&buffers[0]);
            std::thread::spawn(move || {
                let mut step = 0;
                while !buffer.is_reception_over() {
                    buffer.put(sample(0, step % STEPS, 4));
                    step += 1;
                }
            })
        };
        let shared = Arc::new(TrainerShared::new(2, model().param_count()));
        let ranks: Vec<_> = buffers
            .iter()
            .enumerate()
            .map(|(rank, buffer)| {
                let trainer = RankTrainer::new(
                    rank,
                    model(),
                    Arc::clone(buffer),
                    TrainingConfig {
                        num_ranks: 2,
                        ..config(2)
                    },
                    (rank == 0).then(|| Arc::clone(&validation)),
                    Arc::clone(&shared),
                    OccurrenceTable::with_shape(SIMULATIONS, STEPS),
                )
                .with_recovery(hooks.clone());
                std::thread::spawn(move || trainer.run(Instant::now()))
            })
            .collect();
        let outcomes: Vec<bool> = ranks.into_iter().map(|r| r.join().is_ok()).collect();
        producer.join().expect("the producer itself never panics");
        // ordering: Acquire — pairs with the unwind guard's Release store on the panicking thread
        let server_down = hooks.server_down.load(Ordering::Acquire);
        let _ = verdict_tx.send((outcomes, server_down));
    });
    let (outcomes, server_down) = verdict_rx
        .recv_timeout(Duration::from_secs(10))
        .expect("the run must end, not hang, when its sidecar panics");
    assert_eq!(
        outcomes,
        [false, true],
        "rank 0 re-raises the sidecar's panic; rank 1 leaves through the crash vote"
    );
    assert!(server_down, "the unwind guard declares the server down");
}

/// Resume equivalence: "checkpoint at batch K, load it from disk, train to N"
/// ends on the very weights of training to N uninterrupted — and only because
/// the file carries the optimizer. At two ranks the optimizer is split across
/// the ranks, so the capture round must hand rank 0 its peer's moments.
#[test]
fn resuming_from_the_durable_file_continues_the_run_bit_for_bit() {
    const N: usize = 12;
    const K: usize = 7;
    let identity = DurableIdentity {
        experiment_seed: 9,
        config_fingerprint: 1,
    };
    // The learning rate halves at batches 5 and 10 (one rank), so the resumed
    // run must also pick the schedule up where the checkpoint left it.
    let training = TrainingConfig {
        lr_halving_samples: 5 * BATCH_SIZE,
        ..config(0)
    };
    let bits = |outcome: &RankOutcome| -> Vec<u32> {
        let params = outcome.model.params_flat();
        params.iter().map(|p| p.to_bits()).collect()
    };
    // `ranks` ranks over batches `batches` of their fixed sample streams,
    // reception over, starting from `resume` when given: rank 0's outcome,
    // once every rank is seen to end on the same weights.
    let run = |ranks: usize, batches: std::ops::Range<usize>, hooks: RecoveryHooks| {
        let shared = Arc::new(TrainerShared::new(ranks, model().param_count()));
        let handles: Vec<_> = (0..ranks)
            .map(|rank| {
                let buffer: Arc<dyn TrainingBuffer<Sample>> = Arc::new(FifoBuffer::new(1024));
                for k in batches.start * BATCH_SIZE..batches.end * BATCH_SIZE {
                    buffer.put(sample(((k + 5 * rank) % 16) as u64, k, 4));
                }
                buffer.mark_reception_over();
                let start = hooks
                    .resume
                    .as_ref()
                    .map_or_else(model, |cp| cp.restore_model());
                let trainer = RankTrainer::new(
                    rank,
                    start,
                    buffer,
                    TrainingConfig {
                        num_ranks: ranks,
                        ..training.clone()
                    },
                    None,
                    Arc::clone(&shared),
                    OccurrenceTable::with_shape(SIMULATIONS, STEPS),
                )
                .with_recovery(hooks.clone());
                std::thread::spawn(move || trainer.run(Instant::now()))
            })
            .collect();
        let outcomes: Vec<RankOutcome> = handles.into_iter().map(|h| h.join().unwrap()).collect();
        for outcome in &outcomes {
            assert_eq!(bits(outcome), bits(&outcomes[0]), "{ranks} ranks");
        }
        outcomes.into_iter().next().unwrap()
    };
    let resumed_from = |ranks: usize, checkpoint: ServerCheckpoint| {
        let mut hooks = hooks(0, None);
        hooks.resume = Some(Arc::new(checkpoint));
        run(ranks, K..N, hooks)
    };

    for ranks in [1, 2] {
        // Run A: N batches, one durable checkpoint, at batch K.
        let dir = std::env::temp_dir().join(format!(
            "melissa-sidecar-resume-{ranks}-{}",
            std::process::id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        let store = DurableCheckpointStore::open(&dir, identity, 3).unwrap();
        let (journal, _) = CompletionJournal::open(&dir, identity, 1).unwrap();
        let recorder = Arc::new(DurableRecorder::new(store, journal, []));
        let uninterrupted = run(ranks, 0..N, hooks(K, Some(Arc::clone(&recorder))));
        assert_eq!(uninterrupted.sidecar.checkpoints_persisted, 1);
        drop(recorder);

        // Run B: the epoch-K file, read back from disk, and the remaining batches.
        let store = DurableCheckpointStore::open(&dir, identity, 3).unwrap();
        let (_, checkpoint) = store.load_latest().unwrap().latest.expect("saved at K");
        assert_eq!(checkpoint.batches_trained, K);
        assert!(
            checkpoint.optimizer.is_some(),
            "format 2 carries the optimizer"
        );
        let resumed = resumed_from(ranks, checkpoint.clone());
        assert_eq!(resumed.batches_with_data, N - K);
        assert_eq!(bits(&resumed), bits(&uninterrupted), "{ranks} ranks");

        // Negative control: the same resume without the optimizer state — what
        // every resume was before format 2 — ends somewhere else.
        let mut forgetful = checkpoint.clone();
        forgetful.optimizer = None;
        let forgetful = resumed_from(ranks, forgetful);
        assert_ne!(bits(&forgetful), bits(&uninterrupted), "{ranks} ranks");

        // A version-1 file of the same checkpoint, as the parent commit wrote it
        // (built by hand: the crate has no v1 writer left): the 48-byte header
        // around the JSON document, which has no optimizer key. It still loads,
        // with the optimizer absent, and resumes as it used to.
        let json = v1_json(&checkpoint);
        let mut file = b"MELCKPT\0".to_vec();
        file.extend_from_slice(&1u32.to_le_bytes());
        file.extend_from_slice(&0u32.to_le_bytes());
        for field in [
            identity.experiment_seed,
            identity.config_fingerprint,
            5,
            json.len() as u64,
        ] {
            file.extend_from_slice(&field.to_le_bytes());
        }
        file.extend_from_slice(json.as_bytes());
        let checksum = Checksum64::digest(&file);
        file.extend_from_slice(&checksum.to_le_bytes());
        std::fs::write(dir.join("ckpt-0000000005"), &file).unwrap();
        let latest = store.load_latest().unwrap();
        assert!(latest.rejected.is_empty(), "{:?}", latest.rejected);
        let (epoch, legacy) = latest.latest.unwrap();
        assert_eq!((epoch, legacy.batches_trained), (5, K));
        assert!(legacy.optimizer.is_none());
        assert_eq!(legacy.model.params, checkpoint.model.params);
        assert_eq!(bits(&resumed_from(ranks, legacy)), bits(&forgetful));
        let _ = std::fs::remove_dir_all(&dir);
    }
}

/// `checkpoint` as the JSON document of a version-1 file.
fn v1_json(checkpoint: &ServerCheckpoint) -> String {
    let json = checkpoint.to_json().unwrap();
    let end = json
        .find(",\"optimizer\":")
        .expect("the optimizer is the last key");
    format!("{}}}", &json[..end])
}
