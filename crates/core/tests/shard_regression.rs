//! Regression suite for sharded ingestion.
//!
//! Two contracts are pinned here:
//!
//! 1. **`ingest_shards = 1` is bit-identical to the single-aggregator data
//!    plane.** A one-shard [`ShardedBuffer`] must delegate to the plain
//!    policy buffer exactly — same served stream, same RNG draws, same
//!    stats, same population — and a training run over it must produce the
//!    same parameters, losses and counters as the plain buffer, for all
//!    three buffer policies.
//! 2. **Sharded runs are reproducible.** With the same seeds and the same
//!    shard count, the version-2 shard-draw stream and the per-shard
//!    sub-buffer streams are deterministic, so identical ingestion produces
//!    identical trained models across runs.

use melissa::trainer::{RankOutcome, RankTrainer, TrainerShared};
use melissa::{ExperimentConfig, OccurrenceTable, OnlineExperiment, TrainingConfig, WorkloadSpec};
use std::sync::Arc;
use std::time::Instant;
use surrogate_nn::{Activation, InitScheme, Mlp, MlpConfig, Sample};
use training_buffer::{build_buffer, BufferConfig, BufferKind, ShardedBuffer, TrainingBuffer};

const BATCH_SIZE: usize = 4;

fn sample(sim: u64, step: usize) -> Sample {
    let x = (sim as f32 * 0.37 + step as f32 * 0.013).fract();
    Sample::new(
        vec![x, 1.0 - x, x * x, 0.5 + 0.25 * x],
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

fn buffer_config(kind: BufferKind, capacity: usize) -> BufferConfig {
    BufferConfig {
        kind,
        capacity,
        threshold: 2,
        seed: 21,
    }
}

/// Feeds the exact same burst pattern the aggregator would: `put_many` in
/// uneven bursts, then reception over.
fn fill(buffer: &dyn TrainingBuffer<Sample>, total: usize) {
    let mut burst = Vec::new();
    for k in 0..total {
        burst.push(sample((k % 16) as u64, k));
        if burst.len() == 7 {
            buffer.put_many(&mut burst);
        }
    }
    buffer.put_many(&mut burst);
    buffer.mark_reception_over();
}

fn train(buffer: Arc<dyn TrainingBuffer<Sample>>) -> RankOutcome {
    let config = TrainingConfig {
        batch_size: BATCH_SIZE,
        num_ranks: 1,
        validation_interval_batches: 0,
        gemm_threads: 1,
        ..TrainingConfig::default()
    };
    let shared = Arc::new(TrainerShared::new(1, model().param_count()));
    // Every test below serves simulations 0..16 and fewer than 128 steps.
    let occurrences = OccurrenceTable::with_shape(16, 128);
    RankTrainer::new(0, model(), buffer, config, None, shared, occurrences).run(Instant::now())
}

fn assert_outcomes_bit_identical(a: &RankOutcome, b: &RankOutcome, label: &str) {
    assert_eq!(
        a.model.params_flat(),
        b.model.params_flat(),
        "{label}: trained parameters diverged"
    );
    assert_eq!(a.rounds, b.rounds, "{label}: round counts");
    assert_eq!(
        a.batches_with_data, b.batches_with_data,
        "{label}: batch counts"
    );
    assert_eq!(
        a.samples_consumed, b.samples_consumed,
        "{label}: sample counts"
    );
    assert_eq!(a.occurrences, b.occurrences, "{label}: occurrence counts");
    let a_losses: Vec<f32> = a.losses.iter().map(|p| p.train_loss).collect();
    let b_losses: Vec<f32> = b.losses.iter().map(|p| p.train_loss).collect();
    assert_eq!(a_losses, b_losses, "{label}: loss history");
}

/// The raw buffer contract: a one-shard facade replays the plain policy
/// buffer op for op — served stream, counters and population trajectory.
#[test]
fn one_shard_buffer_stream_is_bit_identical_for_every_policy() {
    for kind in BufferKind::ALL {
        let cfg = buffer_config(kind, 64);
        let plain = build_buffer::<Sample>(&cfg);
        let sharded = ShardedBuffer::<Sample>::new(&cfg, 1);

        let drive = |buffer: &dyn TrainingBuffer<Sample>| {
            let mut served: Vec<Sample> = Vec::new();
            let mut burst: Vec<Sample> = (0..40).map(|k| sample((k % 8) as u64, k)).collect();
            buffer.put_many(&mut burst);
            // Mixed owned and visitor serving, like trainer + validation do.
            buffer.get_batch(10, &mut served);
            let mut visited = Vec::new();
            buffer.get_batch_with(5, &mut |s: &Sample| visited.push(s.clone()));
            served.extend(visited);
            let mid_population = buffer.len();
            let mut burst: Vec<Sample> = (40..60).map(|k| sample((k % 8) as u64, k)).collect();
            buffer.put_many(&mut burst);
            buffer.mark_reception_over();
            while buffer.get_batch(6, &mut served) > 0 {}
            (served, buffer.stats(), mid_population, buffer.len())
        };

        assert_eq!(drive(plain.as_ref()), drive(&sharded), "{kind:?}");
    }
}

/// The trained-model contract: training over a one-shard facade is
/// bit-identical to training over the plain buffer — parameters, losses,
/// counters and final buffer statistics.
#[test]
fn one_shard_training_is_bit_identical_to_the_plain_buffer_path() {
    for kind in BufferKind::ALL {
        let total = match kind {
            BufferKind::Fifo => BATCH_SIZE * 30,
            BufferKind::Firo => 100,
            BufferKind::Reservoir => 90,
        };
        let cfg = buffer_config(kind, total.max(8));

        let plain: Arc<dyn TrainingBuffer<Sample>> = Arc::from(build_buffer::<Sample>(&cfg));
        fill(plain.as_ref(), total);
        let plain_outcome = train(Arc::clone(&plain));

        let sharded = Arc::new(ShardedBuffer::<Sample>::new(&cfg, 1));
        fill(sharded.as_ref(), total);
        let sharded_outcome = train(Arc::clone(&sharded) as Arc<dyn TrainingBuffer<Sample>>);

        assert_outcomes_bit_identical(&plain_outcome, &sharded_outcome, kind.label());
        assert_eq!(
            plain.stats(),
            sharded.stats(),
            "{kind:?}: buffer counters diverged"
        );
        assert_eq!(plain.len(), sharded.len(), "{kind:?}: final population");
    }
}

/// The reproducibility contract: same seeds + same shard count ⇒ identical
/// trained models across runs, for every policy, at two shards.
#[test]
fn sharded_training_is_deterministic_across_runs() {
    for kind in BufferKind::ALL {
        let run = |seed: u64| {
            let cfg = BufferConfig {
                kind,
                capacity: 96,
                threshold: 2,
                seed,
            };
            let buffer = Arc::new(ShardedBuffer::<Sample>::new(&cfg, 2));
            // Deterministic sharded ingestion: interleaved bursts into the
            // two shards, exactly reproducible run to run.
            let mut shard0 = Vec::new();
            let mut shard1 = Vec::new();
            for k in 0..80 {
                if k % 2 == 0 {
                    shard0.push(sample((k % 16) as u64, k));
                } else {
                    shard1.push(sample((k % 16) as u64, k));
                }
                if shard0.len() == 5 {
                    buffer.put_many_shard(0, &mut shard0);
                }
                if shard1.len() == 3 {
                    buffer.put_many_shard(1, &mut shard1);
                }
            }
            buffer.put_many_shard(0, &mut shard0);
            buffer.put_many_shard(1, &mut shard1);
            buffer.mark_reception_over();
            train(buffer)
        };

        let first = run(21);
        let second = run(21);
        assert_outcomes_bit_identical(&first, &second, kind.label());
        // A different seed must actually change the stream for the
        // randomised policies (FIFO-in-shard order is seed-independent, but
        // the facade's shard draws still move samples across batches).
        let other = run(22);
        if kind != BufferKind::Fifo {
            assert_ne!(
                first.model.params_flat(),
                other.model.params_flat(),
                "{kind:?}: the seed must matter"
            );
        }
    }
}

/// End-to-end determinism of the default (one-shard) online pipeline with a
/// single client: two full `OnlineExperiment` runs produce bit-identical
/// models, pinning the `ingest_shards = 1` path through transport,
/// aggregation, buffering and training at once.
#[test]
fn online_single_client_fifo_run_is_reproducible_end_to_end() {
    let run = || {
        let config = ExperimentConfig::builder()
            .workload(WorkloadSpec::heat_analytic(heat_solver::SolverConfig {
                nx: 8,
                ny: 8,
                steps: 20,
                ..heat_solver::SolverConfig::default()
            }))
            .campaign(melissa_ensemble::CampaignPlan::single_series(1, 1))
            .buffer(BufferConfig {
                kind: BufferKind::Fifo,
                capacity: 16,
                threshold: 4,
                seed: 5,
            })
            .batch_size(5)
            .validation(1, 0)
            .hidden_width(16)
            .gemm_threads(1)
            .build()
            .expect("consistent test configuration");
        assert_eq!(config.ingest_shards, 1, "the default is one shard");
        let (m, report) = OnlineExperiment::new(config).unwrap().run();
        (m.params_flat().to_vec(), report.samples_trained)
    };
    let (params_a, trained_a) = run();
    let (params_b, trained_b) = run();
    assert_eq!(trained_a, 20);
    assert_eq!(trained_a, trained_b);
    assert_eq!(params_a, params_b, "single-client FIFO runs must reproduce");
}

/// The sharded online pipeline trains on every produced sample for every
/// buffer policy (no sample lost or duplicated across shard workers).
#[test]
fn online_sharded_pipeline_accounts_every_sample() {
    for kind in BufferKind::ALL {
        let config = ExperimentConfig::builder()
            .workload(WorkloadSpec::heat_analytic(heat_solver::SolverConfig {
                nx: 8,
                ny: 8,
                steps: 10,
                ..heat_solver::SolverConfig::default()
            }))
            .campaign(melissa_ensemble::CampaignPlan::single_series(6, 3))
            .buffer(BufferConfig {
                kind,
                capacity: 24,
                threshold: 4,
                seed: 1,
            })
            .ingest_shards(3)
            .batch_size(5)
            .validation(2, 4)
            .hidden_width(16)
            .build()
            .expect("consistent test configuration");
        let (model, report) = OnlineExperiment::new(config).unwrap().run();
        assert!(model.params_flat().iter().all(|p| p.is_finite()));
        assert_eq!(report.unique_samples_produced, 60, "{kind:?}");
        assert_eq!(report.unique_samples_trained, 60, "{kind:?}");
        assert!(report.samples_trained >= 60, "{kind:?}");
        let transport = report.transport.unwrap();
        assert_eq!(transport.messages_delivered, 60, "{kind:?}");
        assert_eq!(transport.finalized_clients, 6, "{kind:?}");
    }
}
