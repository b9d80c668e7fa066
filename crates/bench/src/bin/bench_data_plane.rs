//! Data-plane throughput benchmark: measures the rebuilt
//! reception→buffer→batch pipeline against the seed-style path **in the same
//! run**, and emits `BENCH_pr5.json` — the sharded-ingestion sweep next to
//! the PR 4 data-plane cases and the PR 3 train-step cases (re-run here so
//! the JSON carries the full trajectory).
//!
//! Measurements:
//!
//! * **ingestion** — messages/s through the aggregator conversion+insert
//!   path: seed style (per-message `input_vector()` clone+extend, two
//!   normalisation allocations, one buffer lock per sample) vs. the new path
//!   (in-place payload→sample conversion reusing the message storage, burst
//!   scratch, one `put_many` lock per burst).
//! * **batch assembly** — samples/s from a hot Reservoir into batch matrices:
//!   seed style (`batch_size` locked `get` clones + `Vec<Sample>` +
//!   `fill_owned` second copy) vs. the direct borrow-based
//!   `fill_batch_from_buffer` (one lock, one copy, zero clones).
//! * **end-to-end** — samples/s through the full two-thread §3.1 pipeline
//!   (clients → fabric → aggregator → buffer → batch assembly with
//!   occurrence accounting), seed style vs. new, same run.
//! * **sharded ingestion** — samples/s through the full reception path
//!   (clients → sharded fabric → shard workers → sharded buffer) swept over
//!   the ingest-shard counts of `--shards` (default 1,2,4). On a multi-core
//!   runner the rate should rise with the shard count; the JSON records
//!   `available_parallelism` so single-core results read correctly.
//! * **prefetch train** — a real `RankTrainer` run with the prefetch pipeline
//!   off vs. on; the final parameters are asserted bit-identical.
//!
//! Usage:
//!   bench_data_plane [--quick] [--out PATH] [--shards 1,2,4]

use melissa::trainer::{RankTrainer, TrainerShared};
use melissa::{
    fill_batch_from_buffer, payload_into_sample, Aggregator, IngestControl, OccurrenceTable,
    TrainingConfig,
};
use melissa_bench::train_step;
use melissa_bench::{arg_value, print_series};
use melissa_transport::{
    Fabric, FabricConfig, FaultConfig, Message, MessageLog, SamplePayload, ServerEndpoint,
};
use parking_lot::Mutex;
use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};
use surrogate_nn::{
    Activation, Batch, InitScheme, InputNormalizer, Mlp, MlpConfig, OutputNormalizer, Sample,
};
use training_buffer::{
    BufferConfig, BufferKind, FifoBuffer, ReservoirBuffer, ShardedBuffer, TrainingBuffer,
};

const PARAM_DIM: usize = 5;
const BATCH: usize = 10;

struct Sizes {
    field: usize,
    ingestion_msgs: usize,
    assembly_seconds: f64,
    end_to_end_msgs: usize,
    clients: usize,
    prefetch_rounds: usize,
    train_step_outputs: &'static [usize],
    train_step_seconds: f64,
}

impl Sizes {
    fn quick() -> Self {
        Self {
            field: 256,
            ingestion_msgs: 2_000,
            assembly_seconds: 0.05,
            end_to_end_msgs: 4_000,
            clients: 4,
            prefetch_rounds: 60,
            train_step_outputs: &[256],
            train_step_seconds: 0.05,
        }
    }

    fn full() -> Self {
        Self {
            field: 576,
            ingestion_msgs: 20_000,
            assembly_seconds: 1.0,
            end_to_end_msgs: 120_000,
            clients: 4,
            prefetch_rounds: 800,
            train_step_outputs: &[576, 2304, 6400],
            train_step_seconds: 2.0,
        }
    }
}

fn input_norm() -> InputNormalizer {
    InputNormalizer::for_trajectory(100, 0.01)
}

fn make_payload(simulation_id: u64, step: usize, field: usize) -> SamplePayload {
    // The producers reserve the spare time slot, exactly like `step_to_payload`.
    let mut parameters = Vec::with_capacity(PARAM_DIM + 1);
    parameters.extend((0..PARAM_DIM).map(|k| 100.0 + ((step + k) % 5) as f32 * 100.0));
    SamplePayload {
        simulation_id,
        step,
        time: 0.01 * (step % 100) as f64,
        parameters,
        values: (0..field)
            .map(|k| 100.0 + ((step * 7 + k) % 400) as f32)
            .collect(),
    }
}

/// The seed-style payload→sample conversion (PR ≤ 3 aggregator): clone+extend
/// the input vector, then two allocating normalisations.
fn seed_convert(
    payload: &SamplePayload,
    input_norm: &InputNormalizer,
    output_norm: &OutputNormalizer,
) -> Sample {
    let input = input_norm.normalize(&payload.input_vector());
    let target = output_norm.normalize(&payload.values);
    Sample::new(input, target, payload.simulation_id, payload.step)
}

// ---------------------------------------------------------------- ingestion

fn ingestion_rate(new_path: bool, sizes: &Sizes) -> f64 {
    let input_norm = input_norm();
    let output_norm = OutputNormalizer::default();
    let best = (0..3)
        .map(|_| {
            // Payload construction stands in for the transport hand-off
            // (messages arrive owned) and happens outside the timed window.
            let payloads: Vec<SamplePayload> = (0..sizes.ingestion_msgs)
                .map(|s| make_payload(0, s, sizes.field))
                .collect();
            let buffer = FifoBuffer::new(sizes.ingestion_msgs);
            let mut log = MessageLog::new();
            let start = Instant::now();
            if new_path {
                let mut scratch: Vec<Sample> = Vec::with_capacity(64);
                for (seq, payload) in payloads.into_iter().enumerate() {
                    if log.observe(0, seq as u64) {
                        scratch.push(payload_into_sample(payload, &input_norm, &output_norm));
                        if scratch.len() == 64 {
                            buffer.put_many(&mut scratch);
                        }
                    }
                }
                buffer.put_many(&mut scratch);
            } else {
                for (seq, payload) in payloads.iter().enumerate() {
                    if log.observe(0, seq as u64) {
                        buffer.put(seed_convert(payload, &input_norm, &output_norm));
                    }
                }
            }
            let rate = sizes.ingestion_msgs as f64 / start.elapsed().as_secs_f64();
            assert_eq!(buffer.len(), sizes.ingestion_msgs);
            rate
        })
        .fold(0.0f64, f64::max);
    best
}

// ----------------------------------------------------------- batch assembly

fn assembly_rate(new_path: bool, sizes: &Sizes) -> f64 {
    // A hot Reservoir (reception open, past its threshold): the seed path
    // pays one lock round-trip and one clone per sample plus the double copy;
    // the direct path copies each served sample exactly once under one lock.
    let capacity = 2048;
    let buffer = ReservoirBuffer::new(capacity, 64, 17);
    for k in 0..capacity {
        let mut input = Vec::with_capacity(PARAM_DIM + 1);
        input.extend((0..=PARAM_DIM).map(|d| ((k + d) % 9) as f32 / 9.0));
        let target: Vec<f32> = (0..sizes.field)
            .map(|d| ((k * 3 + d) % 11) as f32 / 11.0)
            .collect();
        buffer.put(Sample::new(input, target, 0, k));
    }
    let mut batch = Batch::with_capacity(BATCH, PARAM_DIM + 1, sizes.field);
    let mut samples: Vec<Sample> = Vec::with_capacity(BATCH);
    let step = |batch: &mut Batch, samples: &mut Vec<Sample>| {
        if new_path {
            let served = fill_batch_from_buffer(&buffer, batch, BATCH);
            assert_eq!(served, BATCH);
        } else {
            samples.clear();
            while samples.len() < BATCH {
                samples.push(buffer.get().expect("reception is open"));
            }
            batch.fill_owned(samples);
        }
        std::hint::black_box(batch.inputs.data()[0]);
    };
    // Warm-up, then a timed window.
    for _ in 0..8 {
        step(&mut batch, &mut samples);
    }
    let start = Instant::now();
    let mut rounds = 0usize;
    while rounds < 8 || start.elapsed().as_secs_f64() < sizes.assembly_seconds {
        step(&mut batch, &mut samples);
        rounds += 1;
    }
    (rounds * BATCH) as f64 / start.elapsed().as_secs_f64()
}

// --------------------------------------------------------------- end-to-end

/// The seed-style aggregator loop (PR ≤ 3): one receive, one allocating
/// conversion and one buffer lock round-trip per message.
fn seed_aggregator(
    endpoint: ServerEndpoint,
    buffer: Arc<dyn TrainingBuffer<Sample>>,
    input_norm: InputNormalizer,
    output_norm: OutputNormalizer,
    expected_clients: usize,
) {
    let mut log = MessageLog::new();
    loop {
        match endpoint.recv_timeout(Duration::from_millis(10)) {
            Some(Message::TimeStep {
                client_id,
                sequence,
                payload,
            }) => {
                if log.observe(client_id, sequence) {
                    buffer.put(seed_convert(&payload, &input_norm, &output_norm));
                }
            }
            Some(Message::Finalize { client_id, .. }) => log.mark_finalized(client_id),
            Some(Message::Connect { .. }) => {}
            None => {
                if log.finalized_clients() >= expected_clients {
                    break;
                }
            }
        }
    }
    while let Some(message) = endpoint.try_recv() {
        if let Message::TimeStep {
            client_id,
            sequence,
            payload,
        } = message
        {
            if log.observe(client_id, sequence) {
                buffer.put(seed_convert(&payload, &input_norm, &output_norm));
            }
        }
    }
    buffer.mark_reception_over();
}

fn end_to_end_rate(new_path: bool, sizes: &Sizes) -> f64 {
    let fabric = Fabric::new(FabricConfig {
        num_server_ranks: 1,
        channel_capacity: 4096,
        fault: FaultConfig::none(),
        ..FabricConfig::default()
    });
    // The new-path rank owns a single-shard ShardedBuffer (bit-identical
    // delegation to the plain FIFO); the seed path keeps the plain buffer.
    let sharded: Arc<ShardedBuffer<Sample>> = Arc::new(ShardedBuffer::new(
        &BufferConfig {
            kind: BufferKind::Fifo,
            capacity: 4096,
            threshold: 1,
            seed: 17,
        },
        1,
    ));
    let buffer: Arc<dyn TrainingBuffer<Sample>> = if new_path {
        Arc::clone(&sharded) as Arc<dyn TrainingBuffer<Sample>>
    } else {
        Arc::new(FifoBuffer::new(4096))
    };
    let in_norm = input_norm();
    let out_norm = OutputNormalizer::default();
    let per_client = sizes.end_to_end_msgs / sizes.clients;
    let total = per_client * sizes.clients;
    let consumed = AtomicUsize::new(0);
    let start = Instant::now();

    crossbeam::scope(|scope| {
        // The ensemble clients: each streams its share of time steps. The
        // payloads are cloned from a small pre-built pool — in the real
        // system the field values come out of the solver, so their
        // construction cost is not part of the data plane under test; the
        // clone stands in for the client-side gather/convert copy.
        for client_id in 0..sizes.clients {
            let connection = fabric.connect_client(client_id as u64);
            let field = sizes.field;
            scope.spawn(move |_| {
                let pool: Vec<SamplePayload> = (0..64)
                    .map(|s| make_payload(client_id as u64, s, field))
                    .collect();
                for step in 0..per_client {
                    let template = &pool[step % pool.len()];
                    // Manual clone that preserves the producers' spare
                    // time-slot reservation (Vec::clone would drop it).
                    let mut parameters = Vec::with_capacity(template.parameters.len() + 1);
                    parameters.extend_from_slice(&template.parameters);
                    let payload = SamplePayload {
                        simulation_id: template.simulation_id,
                        step: template.step,
                        time: template.time,
                        parameters,
                        values: template.values.clone(),
                    };
                    let _ = connection.send(payload);
                }
                let _ = connection.finalize();
            });
        }

        // The data-aggregator thread of the single rank.
        let endpoint = fabric.server_endpoints().remove(0);
        if new_path {
            let aggregator = Aggregator::new(
                vec![endpoint],
                Arc::clone(&sharded),
                in_norm.clone(),
                out_norm.clone(),
                IngestControl::basic(sizes.clients, Arc::new(AtomicBool::new(false))),
            );
            scope.spawn(move |_| {
                aggregator.run(start);
            });
        } else {
            let buffer = Arc::clone(&buffer);
            let in_norm = in_norm.clone();
            let out_norm = out_norm.clone();
            let clients = sizes.clients;
            scope.spawn(move |_| {
                seed_aggregator(endpoint, buffer, in_norm, out_norm, clients);
            });
        }

        // The training-thread stand-in: batch assembly plus occurrence
        // accounting (the train step itself is measured separately so the
        // data plane stays the bottleneck here).
        {
            let buffer = Arc::clone(&buffer);
            let consumed = &consumed;
            let field = sizes.field;
            scope.spawn(move |_| {
                let mut batch = Batch::with_capacity(BATCH, PARAM_DIM + 1, field);
                if new_path {
                    // Rank-local occurrence counters, merged after the join.
                    let mut occurrences: HashMap<(u64, usize), u32> = HashMap::new();
                    loop {
                        let served = fill_batch_from_buffer(buffer.as_ref(), &mut batch, BATCH);
                        if served == 0 {
                            break;
                        }
                        for key in &batch.keys {
                            *occurrences.entry(*key).or_default() += 1;
                        }
                        // ordering: Relaxed — throughput tally only; the scope join publishes the final value before it is read
                        consumed.fetch_add(served, Ordering::Relaxed);
                        std::hint::black_box(batch.inputs.data()[0]);
                    }
                } else {
                    // Seed style: per-sample locked gets into a Vec<Sample>,
                    // second copy into the matrices, global occurrence mutex.
                    let occurrences: Mutex<HashMap<(u64, usize), u32>> = Mutex::new(HashMap::new());
                    let mut samples: Vec<Sample> = Vec::with_capacity(BATCH);
                    loop {
                        samples.clear();
                        while samples.len() < BATCH {
                            match buffer.get() {
                                Some(sample) => samples.push(sample),
                                None => break,
                            }
                        }
                        if samples.is_empty() {
                            break;
                        }
                        batch.fill_owned(&samples);
                        let mut occurrences = occurrences.lock();
                        for key in &batch.keys {
                            *occurrences.entry(*key).or_default() += 1;
                        }
                        drop(occurrences);
                        // ordering: Relaxed — throughput tally only; the scope join publishes the final value before it is read
                        consumed.fetch_add(samples.len(), Ordering::Relaxed);
                        std::hint::black_box(batch.inputs.data()[0]);
                    }
                }
            });
        }
    })
    .expect("an end-to-end pipeline thread panicked");

    let elapsed = start.elapsed().as_secs_f64();
    assert_eq!(
        // ordering: Relaxed — read after the scope join, which already synchronised every worker's tally
        consumed.load(Ordering::Relaxed),
        total,
        "every produced sample must be assembled exactly once"
    );
    total as f64 / elapsed
}

// --------------------------------------------------------- sharded ingestion

/// Full reception-path throughput of one rank running `shards` ingest
/// shards: ensemble clients → sharded fabric → shard workers (dedup log +
/// in-place conversion) → sharded buffer. No training consumer — the buffer
/// is sized to hold everything, so the measured rate is the ingestion
/// capacity of the rank, the quantity sharding is meant to scale. The client
/// count is fixed by the caller across the whole sweep, so every point of
/// the sweep measures the identical producer workload; like the other
/// stages, the best of three attempts is reported so scheduler noise (which
/// dominates thread-heavy runs on few cores) does not decide the shape.
fn sharded_ingestion_rate(shards: usize, clients: usize, sizes: &Sizes) -> f64 {
    (0..3)
        .map(|_| sharded_ingestion_attempt(shards, clients, sizes))
        .fold(0.0f64, f64::max)
}

fn sharded_ingestion_attempt(shards: usize, clients: usize, sizes: &Sizes) -> f64 {
    let per_client = sizes.end_to_end_msgs / clients;
    let total = per_client * clients;
    let fabric = Fabric::new(FabricConfig {
        num_server_ranks: 1,
        shards_per_rank: shards,
        channel_capacity: 4096,
        fault: FaultConfig::none(),
    });
    // Per-shard capacity = total, so a skewed client→shard hash can never
    // block a producer on a full shard (nothing consumes during the run).
    let buffer: Arc<ShardedBuffer<Sample>> = Arc::new(ShardedBuffer::new(
        &BufferConfig {
            kind: BufferKind::Fifo,
            capacity: total * shards,
            threshold: 1,
            seed: 17,
        },
        shards,
    ));
    let in_norm = input_norm();
    let out_norm = OutputNormalizer::default();
    let start = Instant::now();

    crossbeam::scope(|scope| {
        for client_id in 0..clients {
            let connection = fabric.connect_client(client_id as u64);
            let field = sizes.field;
            scope.spawn(move |_| {
                let pool: Vec<SamplePayload> = (0..64)
                    .map(|s| make_payload(client_id as u64, s, field))
                    .collect();
                for step in 0..per_client {
                    let template = &pool[step % pool.len()];
                    let mut parameters = Vec::with_capacity(template.parameters.len() + 1);
                    parameters.extend_from_slice(&template.parameters);
                    let payload = SamplePayload {
                        simulation_id: template.simulation_id,
                        step: template.step,
                        time: template.time,
                        parameters,
                        values: template.values.clone(),
                    };
                    let _ = connection.send(payload);
                }
                let _ = connection.finalize();
            });
        }

        let endpoints = fabric.rank_shard_endpoints().remove(0);
        let aggregator = Aggregator::new(
            endpoints,
            Arc::clone(&buffer),
            in_norm.clone(),
            out_norm.clone(),
            IngestControl::basic(clients, Arc::new(AtomicBool::new(false))),
        );
        scope.spawn(move |_| {
            aggregator.run(start);
        });
    })
    .expect("a sharded-ingestion thread panicked");

    let elapsed = start.elapsed().as_secs_f64();
    assert_eq!(
        buffer.len(),
        total,
        "every sent sample must be stored exactly once"
    );
    total as f64 / elapsed
}

// ----------------------------------------------------------- prefetch train

fn prefetch_model(field: usize) -> Mlp {
    Mlp::new(MlpConfig {
        layer_sizes: vec![PARAM_DIM + 1, 256, 256, field],
        activation: Activation::ReLU,
        init: InitScheme::HeUniform,
        seed: 7,
    })
}

/// One real single-rank training run over a deterministic drained buffer;
/// returns (samples/s, final parameters).
fn prefetch_train_run(prefetch: bool, sizes: &Sizes) -> (f64, Vec<f32>) {
    let total = sizes.prefetch_rounds * BATCH;
    let buffer: Arc<dyn TrainingBuffer<Sample>> = Arc::new(FifoBuffer::new(total));
    for k in 0..total {
        let mut input = Vec::with_capacity(PARAM_DIM + 1);
        input.extend((0..=PARAM_DIM).map(|d| ((k + d) % 13) as f32 / 13.0));
        let target: Vec<f32> = (0..sizes.field)
            .map(|d| ((k * 5 + d) % 17) as f32 / 17.0)
            .collect();
        buffer.put(Sample::new(input, target, (k % 8) as u64, k));
    }
    buffer.mark_reception_over();
    let model = prefetch_model(sizes.field);
    let config = TrainingConfig {
        batch_size: BATCH,
        num_ranks: 1,
        validation_interval_batches: 0,
        prefetch,
        ..TrainingConfig::default()
    };
    let shared = Arc::new(TrainerShared::new(1, model.param_count()));
    let start = Instant::now();
    let occurrences = OccurrenceTable::with_shape(8, total);
    let outcome = RankTrainer::new(0, model, buffer, config, None, shared, occurrences).run(start);
    let elapsed = start.elapsed().as_secs_f64();
    assert_eq!(outcome.samples_consumed, total);
    (total as f64 / elapsed, outcome.model.params_flat().to_vec())
}

// ------------------------------------------------------------------- output

struct PairResult {
    seed: f64,
    new: f64,
}

impl PairResult {
    fn speedup(&self) -> f64 {
        self.new / self.seed
    }
}

fn main() {
    let quick = std::env::args().any(|a| a == "--quick");
    let out_path = arg_value("--out").unwrap_or_else(|| "BENCH_pr5.json".to_string());
    let shard_counts: Vec<usize> = arg_value("--shards")
        .unwrap_or_else(|| "1,2,4".to_string())
        .split(',')
        .filter_map(|s| s.trim().parse().ok())
        .filter(|&s| s > 0)
        .collect();
    let sizes = if quick { Sizes::quick() } else { Sizes::full() };

    println!(
        "data-plane throughput (field {} f32s, batch {BATCH}; higher is better)",
        sizes.field
    );

    let ingestion = PairResult {
        seed: ingestion_rate(false, &sizes),
        new: ingestion_rate(true, &sizes),
    };
    let assembly = PairResult {
        seed: assembly_rate(false, &sizes),
        new: assembly_rate(true, &sizes),
    };
    let end_to_end = PairResult {
        seed: end_to_end_rate(false, &sizes),
        new: end_to_end_rate(true, &sizes),
    };
    // One client count for the whole sweep (enough to feed the largest shard
    // count), so the points differ only in the shard count under test.
    let sweep_clients = sizes
        .clients
        .max(2 * shard_counts.iter().copied().max().unwrap_or(1));
    let sharded: Vec<(usize, f64)> = shard_counts
        .iter()
        .map(|&shards| {
            (
                shards,
                sharded_ingestion_rate(shards, sweep_clients, &sizes),
            )
        })
        .collect();
    let (prefetch_off_rate, params_off) = prefetch_train_run(false, &sizes);
    let (prefetch_on_rate, params_on) = prefetch_train_run(true, &sizes);
    let prefetch_identical = params_off == params_on;
    assert!(
        prefetch_identical,
        "prefetch-on training must be bit-identical to prefetch-off"
    );

    print_series(
        "data plane (seed vs new)",
        &["stage", "seed", "new", "speedup"],
        &[
            vec![
                "ingestion msgs/s".into(),
                format!("{:.0}", ingestion.seed),
                format!("{:.0}", ingestion.new),
                format!("{:.2}x", ingestion.speedup()),
            ],
            vec![
                "batch assembly samples/s".into(),
                format!("{:.0}", assembly.seed),
                format!("{:.0}", assembly.new),
                format!("{:.2}x", assembly.speedup()),
            ],
            vec![
                "end-to-end samples/s".into(),
                format!("{:.0}", end_to_end.seed),
                format!("{:.0}", end_to_end.new),
                format!("{:.2}x", end_to_end.speedup()),
            ],
            vec![
                "train samples/s (prefetch off→on)".into(),
                format!("{prefetch_off_rate:.0}"),
                format!("{prefetch_on_rate:.0}"),
                format!("{:.2}x", prefetch_on_rate / prefetch_off_rate),
            ],
        ],
    );

    let base_rate = sharded.first().map(|&(_, r)| r).unwrap_or(0.0);
    print_series(
        "sharded ingestion (full reception path, 1 rank)",
        &["shards", "samples/s", "vs 1 shard"],
        &sharded
            .iter()
            .map(|&(shards, rate)| {
                vec![
                    format!("{shards}"),
                    format!("{rate:.0}"),
                    format!("{:.2}x", rate / base_rate),
                ]
            })
            .collect::<Vec<_>>(),
    );

    // The PR 3 train-step cases, re-run for the trajectory.
    let mut train_cases = Vec::new();
    for &output in sizes.train_step_outputs {
        let case = train_step::run_case(BATCH, output, sizes.train_step_seconds);
        assert!(case.bit_identical);
        println!(
            "train step output {:>5}: reference {:>12.1} blocked {:>12.1} ({:.2}x)",
            case.output_size,
            case.reference_samples_per_second,
            case.blocked_samples_per_second,
            case.speedup
        );
        train_cases.push(case);
    }

    let mut json = String::from("{\n");
    json.push_str("  \"benchmark\": \"data_plane\",\n");
    json.push_str("  \"pr\": \"pr5\",\n");
    json.push_str(&format!("  \"quick\": {quick},\n"));
    json.push_str(&format!("  \"field_len\": {},\n", sizes.field));
    json.push_str(&format!("  \"batch_size\": {BATCH},\n"));
    json.push_str(&format!(
        "  \"available_parallelism\": {},\n",
        std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1)
    ));
    json.push_str("  \"dispatch\": ");
    json.push_str(&train_step::dispatch_json(surrogate_nn::KernelIsa::Auto));
    json.push_str(",\n");
    json.push_str(&format!(
        "  \"ingestion\": {{\"seed_msgs_per_second\": {:.2}, \"new_msgs_per_second\": {:.2}, \"speedup\": {:.3}}},\n",
        ingestion.seed, ingestion.new, ingestion.speedup()
    ));
    json.push_str(&format!(
        "  \"batch_assembly\": {{\"seed_samples_per_second\": {:.2}, \"new_samples_per_second\": {:.2}, \"speedup\": {:.3}}},\n",
        assembly.seed, assembly.new, assembly.speedup()
    ));
    json.push_str(&format!(
        "  \"end_to_end\": {{\"seed_samples_per_second\": {:.2}, \"new_samples_per_second\": {:.2}, \"speedup\": {:.3}}},\n",
        end_to_end.seed, end_to_end.new, end_to_end.speedup()
    ));
    json.push_str("  \"sharded_ingestion\": [\n");
    for (i, &(shards, rate)) in sharded.iter().enumerate() {
        json.push_str(&format!(
            "    {{\"shards\": {shards}, \"samples_per_second\": {rate:.2}, \"speedup_vs_one_shard\": {:.3}}}{}\n",
            rate / base_rate,
            if i + 1 < sharded.len() { "," } else { "" }
        ));
    }
    json.push_str("  ],\n");
    json.push_str(&format!(
        "  \"prefetch_train\": {{\"off_samples_per_second\": {:.2}, \"on_samples_per_second\": {:.2}, \"speedup\": {:.3}, \"bit_identical\": {}}},\n",
        prefetch_off_rate,
        prefetch_on_rate,
        prefetch_on_rate / prefetch_off_rate,
        prefetch_identical
    ));
    json.push_str("  \"train_step_cases\": ");
    json.push_str(&train_step::cases_to_json(&train_cases));
    json.push_str(",\n");
    json.push_str(&format!(
        "  \"geomean_train_step_speedup\": {:.3}\n",
        train_step::geomean_speedup(&train_cases)
    ));
    json.push_str("}\n");

    std::fs::write(&out_path, &json).expect("write benchmark JSON");
    print!("{json}");
    println!("wrote {out_path}");
}
