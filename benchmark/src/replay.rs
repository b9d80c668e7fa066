//! The traced run: a staged replay of the pipeline on the benchmark's own
//! thread.
//!
//! `OnlineExperiment::run` is a closed box, so no span can go inside it yet.
//! The replay instead pushes the workload's campaign, simulation by
//! simulation and stage by stage, through the same public functions the
//! pipeline calls, with a span around each stage: one span per stage per
//! simulation on the producer side (100 calls each — the sub-microsecond
//! calls would otherwise be dominated by the clock), one per call per batch
//! on the learner side. The learner trains whenever the buffer's policy would
//! serve a batch without blocking, as many samples per arrived sample as the
//! untraced replicates trained.
//!
//! Spans are on for every other simulation's turn (on, off, off, on, …) and
//! only those turns count towards the stage times; the turns in between run
//! the same code with the recorder off, and the difference between the two
//! kinds of turn is the tracing overhead. Interleaving them this finely is
//! what makes the difference measurable on a machine whose speed changes
//! for seconds at a time: two whole replays, one traced and one not, differ
//! by more than the overhead for that reason alone.
//!
//! It replays the whole campaign, not its head: what a train step costs
//! depends on how far training has come (Adam's moments reach the denormal
//! range after some thousand samples and the step then takes several times
//! longer), so only a replay that trains as many samples as `run()` does
//! reports the stage times `run()` pays.
//!
//! It never calls `simd::flush_denormals()`: the trainer threads inside
//! `run()` do not, and per-layer numbers must be taken under their FP mode.

use crate::stats;
use crate::trace::{self, Span, Tracer};
use crate::workloads::{Workload, BATCH_SIZE, STEPS_PER_SIMULATION};
use melissa::{
    fill_batch_from_buffer, payload_into_sample, step_to_payload, CompletionJournal,
    DurableCheckpointStore, DurableIdentity, ExperimentConfig, ServerCheckpoint, TrainingConfig,
    ValidationSet,
};
use melissa_ensemble::{CampaignPlan, Launcher, ParameterSampler, RetryPolicy};
use melissa_transport::{Fabric, FabricConfig, Message};
use std::collections::BTreeMap;
use std::hint::black_box;
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;
use surrogate_nn::{
    Adam, AdamConfig, Batch, GradientSynchronizer, Loss, Mlp, MseLoss, Optimizer, Sample,
};
use training_buffer::{BufferKind, ShardedBuffer, TrainingBuffer};

/// How much of the campaign a replay streams, and how hard it trains.
#[derive(Debug, Clone, Copy)]
pub struct ReplayPlan {
    /// The first this many simulations of the workload's campaign.
    pub simulations: usize,
    /// Samples trained per unique sample produced, as the untraced replicates
    /// measured it: 1 where every sample is served once, more where the
    /// Reservoir re-serves.
    pub trained_per_produced: f64,
}
/// Samples per `put_many` call, a typical aggregator burst.
const PUT_BURST: usize = 64;
/// Messages drained per `try_recv_many` call (the aggregator's burst cap).
const RECV_BURST: usize = 256;
const LEARNING_RATE: f32 = 1e-3;

/// How often each stage ran while spans were on, to turn span totals into
/// per-unit times.
#[derive(Debug, Clone, Copy, Default)]
struct Counts {
    steps: usize,
    messages: usize,
    /// Samples put into rank 0's buffer.
    puts: usize,
    samples_trained: usize,
    rounds: usize,
    validations: usize,
    checkpoints: usize,
    journal_appends: usize,
    checkpoint_bytes: u64,
}

pub struct Replay {
    pub spans: Vec<Span>,
    pub failures: Vec<String>,
    counts: Counts,
    /// Wall time of every simulation's turn: its production and the training
    /// that followed, less checkpoints and validation passes.
    turn_seconds: Vec<f64>,
}

/// Whether a simulation's turn runs with spans on: on, off, off, on, so that
/// what drifts over the campaign weighs on both kinds of turn alike.
fn traced_turn(simulation: u64) -> bool {
    matches!(simulation % 4, 0 | 3)
}

impl Replay {
    /// By how much spans lengthen a turn, as a share of the untraced turn:
    /// the median, over groups of four consecutive turns (on, off, off, on),
    /// of traced over untraced time. The median passes over the groups that
    /// hold a transient, such as the learner catching up once the buffer
    /// first reaches its threshold.
    pub fn trace_overhead_share(&self) -> f64 {
        let ratios: Vec<f64> = self
            .turn_seconds
            .chunks_exact(4)
            .map(|turn| (turn[0] + turn[3]) / (turn[1] + turn[2]))
            .collect();
        assert!(!ratios.is_empty(), "a replay has at least four simulations");
        stats::median(&ratios) - 1.0
    }

    /// Per-unit self times of every stage, keyed by per-layer metric name.
    pub fn layer_metrics(&self) -> BTreeMap<&'static str, f64> {
        let totals = trace::self_time_by_name(&self.spans);
        let per = |span: &str, units: usize, scale: f64| -> f64 {
            match totals.get(span) {
                Some(&(ns, _)) if units > 0 => ns as f64 / scale / units as f64,
                // 0 marks a layer that is not on this workload's path.
                _ => 0.0,
            }
        };
        let (us, ms) = (1e3, 1e6);
        let c = &self.counts;
        // (metric, span, how often the stage ran, nanoseconds per unit of time)
        let mut metrics: BTreeMap<_, _> = [
            (
                "workload.generate_us_per_step",
                "workload.generate",
                c.steps,
                us,
            ),
            (
                "heat-solver.generate_us_per_step",
                "heat-solver.generate",
                c.steps,
                us,
            ),
            (
                "transport.encode_us_per_sample",
                "transport.encode",
                c.messages,
                us,
            ),
            (
                "transport.send_us_per_sample",
                "transport.send",
                c.messages,
                us,
            ),
            (
                "transport.recv_us_per_sample",
                "transport.recv",
                c.messages,
                us,
            ),
            (
                "aggregator.convert_us_per_sample",
                "aggregator.convert",
                c.messages,
                us,
            ),
            ("buffer.put_us_per_sample", "buffer.put", c.puts, us),
            (
                "buffer.fill_us_per_sample",
                "buffer.fill",
                c.samples_trained,
                us,
            ),
            (
                "nn.forward_us_per_sample",
                "nn.forward",
                c.samples_trained,
                us,
            ),
            (
                "nn.backward_us_per_sample",
                "nn.backward",
                c.samples_trained,
                us,
            ),
            (
                "nn.optimizer_us_per_sample",
                "nn.optimizer",
                c.samples_trained,
                us,
            ),
            ("nn.allreduce_us_per_round", "nn.allreduce", c.rounds, us),
            (
                "validation.evaluate_ms",
                "validation.evaluate",
                c.validations,
                ms,
            ),
            ("durable.capture_ms", "durable.capture", c.checkpoints, ms),
            ("durable.save_ms", "durable.save", c.checkpoints, ms),
            (
                "durable.journal_append_us",
                "durable.journal_append",
                c.journal_appends,
                us,
            ),
        ]
        .into_iter()
        .map(|(metric, span, units, scale)| (metric, per(span, units, scale)))
        .collect();
        metrics.insert("durable.bytes_per_checkpoint", c.checkpoint_bytes as f64);
        metrics
    }
}

/// The other ranks of a multi-rank replay: idle ranks that only take part in
/// the collectives with zero gradients, as a drained rank does in the
/// pipeline. They leave when the traced rank votes "no data".
fn spawn_partner(
    status: Arc<GradientSynchronizer>,
    gradients: Arc<GradientSynchronizer>,
    param_count: usize,
) -> std::thread::JoinHandle<()> {
    std::thread::spawn(move || {
        let mut zeros = vec![0.0f32; param_count];
        loop {
            let mut vote = [0.0f32];
            status.all_reduce_mean(&mut vote);
            if vote[0] == 0.0 {
                break;
            }
            zeros.fill(0.0);
            gradients.all_reduce_mean(&mut zeros);
        }
    })
}

/// Rank 0's learner: the per-round state of `RankTrainer`, driven by hand.
struct Learner<'a> {
    workload: &'a Workload,
    config: &'a ExperimentConfig,
    buffer: &'a ShardedBuffer<Sample>,
    validation: &'a ValidationSet,
    durable: Option<&'a DurableCheckpointStore>,
    status: &'a GradientSynchronizer,
    gradients: &'a GradientSynchronizer,
    model: Mlp,
    ws: surrogate_nn::Workspace,
    adam: Adam,
    grads: Vec<f32>,
    batch: Batch,
    batches: usize,
    /// Samples trained in all turns; `counts` covers the traced ones.
    trained: usize,
    /// Wall time of the checkpoints and validation passes so far. They are
    /// rare and long, and fall on too few turns to compare turns with.
    stall_seconds: f64,
    completed: Vec<u64>,
    counts: Counts,
    last_loss: f32,
}

impl Learner<'_> {
    /// Whether the buffer's policy would serve a whole batch without waiting.
    fn can_serve(&self) -> bool {
        let gate = match self.workload.buffer {
            BufferKind::Fifo => 0,
            BufferKind::Firo | BufferKind::Reservoir => self.workload.threshold,
        };
        self.buffer.len() >= gate + BATCH_SIZE
    }

    /// Samples that count against the buffer's capacity when a producer puts:
    /// the unseen ones for the Reservoir, which evicts seen samples to make
    /// room, and all of them otherwise.
    fn backlog(&self) -> usize {
        match self.workload.buffer {
            BufferKind::Reservoir => {
                let stats = self.buffer.stats();
                stats.puts - (stats.gets - stats.repeated_gets)
            }
            BufferKind::Fifo | BufferKind::Firo => self.buffer.len(),
        }
    }

    /// Puts one burst into `shard`, once the learner has made room for it:
    /// where a producer of the pipeline waits for the learner, the replay,
    /// which has one thread, runs the learner. A shard holds at least its
    /// share of the capacity.
    fn put_burst(&mut self, tracer: &mut Tracer, shard: usize, burst: &mut Vec<Sample>, id: u64) {
        let room = self.workload.capacity / self.workload.ingest_shards;
        while self.backlog() + burst.len() > room && self.round(tracer) {}
        tracer.begin("buffer.put", id);
        self.buffer.put_many_shard(shard, burst);
        tracer.end();
    }

    /// One round of the trainer. Returns false once the buffer has drained.
    fn round(&mut self, tracer: &mut Tracer) -> bool {
        let index = self.batches as u64;
        tracer.begin("batch", index);
        tracer.begin("buffer.fill", index);
        let served = fill_batch_from_buffer(self.buffer, &mut self.batch, BATCH_SIZE);
        tracer.end();
        if served == 0 {
            tracer.end();
            return false;
        }
        tracer.begin("nn.allreduce", index);
        self.status.all_reduce_mean(&mut [1.0]);
        tracer.end();

        tracer.begin("nn.forward", index);
        self.model.forward_ws(&self.batch.inputs, &mut self.ws);
        let (prediction, grad_out) = self.ws.output_and_grad_mut();
        self.last_loss = MseLoss.evaluate_into(prediction, &self.batch.targets, grad_out);
        tracer.end();
        tracer.begin("nn.backward", index);
        self.model.backward_ws(&mut self.ws);
        tracer.end();
        tracer.begin("nn.optimizer", index);
        self.model.grads_flat_into(&mut self.grads);
        tracer.end();
        tracer.begin("nn.allreduce", index);
        self.gradients.all_reduce_mean(&mut self.grads);
        tracer.end();
        tracer.begin("nn.optimizer", index);
        self.adam.step(&mut self.model, &self.grads, LEARNING_RATE);
        tracer.end();

        self.batches += 1;
        self.trained += served;
        if tracer.is_on() {
            self.counts.rounds += 1;
            self.counts.samples_trained += served;
        }
        let every = self.workload.checkpoint_every_batches;
        let checkpoint_due = every > 0 && self.batches.is_multiple_of(every);
        let validation_due = self
            .batches
            .is_multiple_of(self.workload.validation_interval_batches);
        if checkpoint_due || validation_due {
            let started = Instant::now();
            if checkpoint_due {
                self.checkpoint(tracer);
            }
            if validation_due {
                self.validate(tracer);
            }
            self.stall_seconds += started.elapsed().as_secs_f64();
        }
        tracer.end();
        true
    }

    fn validate(&mut self, tracer: &mut Tracer) {
        tracer.begin("validation.evaluate", self.batches as u64);
        black_box(self.validation.evaluate_with(&self.model, &mut self.ws));
        tracer.end();
        self.counts.validations += usize::from(tracer.is_on());
    }

    fn checkpoint(&mut self, tracer: &mut Tracer) {
        let Some(store) = self.durable else { return };
        let index = self.batches as u64;
        tracer.begin("durable.capture", index);
        let checkpoint = ServerCheckpoint::capture(
            &self.model,
            self.batches,
            self.batches * BATCH_SIZE * self.workload.ranks,
            self.completed.clone(),
            self.config.seed,
        );
        tracer.end();
        tracer.begin("durable.save", index);
        store
            .save(&checkpoint)
            .expect("saving a replay checkpoint into benchmark/out");
        tracer.end();
        self.counts.checkpoints += usize::from(tracer.is_on());
    }
}

/// Runs the staged replay of `workload` (`config` is its full-size
/// experiment, `validation` that experiment's validation set). A durable
/// workload writes its checkpoints and journal into the
/// configured durability directory, which is removed afterwards.
pub fn run(
    workload: &Workload,
    config: &ExperimentConfig,
    validation: &ValidationSet,
    plan: ReplayPlan,
) -> Replay {
    let physics = config.workload.build();
    let input_norm = config.workload.input_normalizer();
    let output_norm = config.workload.output_normalizer();
    let durable_dir = config
        .durability
        .as_ref()
        .map(|durability| durability.directory_path());
    let ranks = workload.ranks;

    let fabric = Fabric::new(FabricConfig {
        num_server_ranks: ranks,
        shards_per_rank: workload.ingest_shards,
        channel_capacity: config.channel_capacity,
        fault: config.fault.clone(),
    });
    let endpoints = fabric.rank_shard_endpoints();
    let buffer = ShardedBuffer::new(&config.rank_buffer_config(0), workload.ingest_shards);

    let model = Mlp::new(config.surrogate.mlp_config(config.output_size()));
    let param_count = model.param_count();
    let status = Arc::new(GradientSynchronizer::new(ranks, 1));
    let gradients = Arc::new(GradientSynchronizer::new(ranks, param_count));
    let partners: Vec<_> = (1..ranks)
        .map(|_| spawn_partner(Arc::clone(&status), Arc::clone(&gradients), param_count))
        .collect();

    let durable = durable_dir.as_ref().map(|dir| {
        let identity = DurableIdentity {
            experiment_seed: config.seed,
            config_fingerprint: config.config_fingerprint(),
        };
        let store = DurableCheckpointStore::open(dir, identity, 3)
            .expect("opening the replay's checkpoint store under benchmark/out");
        let (journal, _) = CompletionJournal::open(dir, identity, 8)
            .expect("opening the replay's journal under benchmark/out");
        (store, journal)
    });

    let mut learner = Learner {
        workload,
        config,
        buffer: &buffer,
        validation,
        durable: durable.as_ref().map(|(store, _)| store),
        status: &status,
        gradients: &gradients,
        ws: model
            .workspace(BATCH_SIZE)
            .with_threads(config.training.effective_gemm_threads())
            .with_isa(config.training.kernel_isa),
        adam: Adam::new(AdamConfig::default(), param_count).with_isa(config.training.kernel_isa),
        grads: Vec::with_capacity(param_count),
        batch: Batch::with_capacity(BATCH_SIZE, model.input_size(), model.output_size()),
        model,
        batches: 0,
        trained: 0,
        stall_seconds: 0.0,
        completed: Vec::new(),
        counts: Counts::default(),
        last_loss: 0.0,
    };

    let campaign = &config.campaign;
    let mut sampler = ParameterSampler::new(
        campaign.sampler,
        physics.parameter_space(),
        campaign.total_clients(),
        campaign.seed,
    );
    let generate_span = if workload.real_solver {
        "heat-solver.generate"
    } else {
        "workload.generate"
    };
    // Scratches recycled across simulations, as the aggregator recycles its.
    let mut steps = Vec::with_capacity(STEPS_PER_SIMULATION);
    let mut payloads = Vec::with_capacity(STEPS_PER_SIMULATION);
    let mut inbound: Vec<Vec<Vec<Message>>> = endpoints
        .iter()
        .map(|rank| {
            rank.iter()
                .map(|_| Vec::with_capacity(RECV_BURST))
                .collect()
        })
        .collect();
    let mut converted: Vec<Vec<Vec<Sample>>> = endpoints
        .iter()
        .map(|rank| {
            rank.iter()
                .map(|_| Vec::with_capacity(RECV_BURST))
                .collect()
        })
        .collect();
    let mut burst: Vec<Sample> = Vec::with_capacity(PUT_BURST);

    // Rank 0 receives its share of the campaign and trains it in batches of
    // up to nine spans (the batch, its seven calls, a checkpoint or validation
    // now and then); a simulation has ten spans of its own. Half the turns
    // are traced, and the drain at the end.
    let rank0_samples = plan.simulations * STEPS_PER_SIMULATION / ranks;
    let expected_rounds = (rank0_samples as f64 * plan.trained_per_produced) as usize / BATCH_SIZE;
    let mut tracer = Tracer::new(false, 5 * (expected_rounds + plan.simulations) + 8192);
    // Samples the learner owes: it trains until it has caught up with the
    // arrivals, or the buffer's policy would make it wait.
    let mut owed_samples = 0.0;
    let mut turn_seconds = Vec::with_capacity(plan.simulations);
    for simulation in 0..plan.simulations as u64 {
        let traced = traced_turn(simulation);
        tracer.set_enabled(traced);
        let (turn_started, stalls_before) = (Instant::now(), learner.stall_seconds);
        let parameters = sampler.parameters(simulation as usize);
        let job_seed = RetryPolicy::attempt_seed(campaign.seed, simulation, 1);
        tracer.begin("simulation", simulation);

        tracer.begin(generate_span, simulation);
        physics
            .generate_seeded(parameters, job_seed, &mut |step| steps.push(step))
            .expect("the sampler draws parameters inside the workload's design space");
        tracer.end();
        if traced {
            learner.counts.steps += steps.len();
            learner.counts.messages += steps.len();
        }

        tracer.begin("transport.encode", simulation);
        payloads.extend(steps.iter().map(|step| step_to_payload(step, simulation)));
        tracer.end();
        steps.clear();

        let connection = fabric.connect_client(simulation);
        tracer.begin("transport.send", simulation);
        for payload in payloads.drain(..) {
            connection
                .send(payload)
                .expect("the replay keeps every endpoint alive");
        }
        tracer.end();
        connection
            .finalize()
            .expect("the replay keeps every endpoint alive");

        tracer.begin("transport.recv", simulation);
        for (rank, shards) in endpoints.iter().enumerate() {
            for (shard, endpoint) in shards.iter().enumerate() {
                while endpoint.try_recv_many(&mut inbound[rank][shard], RECV_BURST) > 0 {}
            }
        }
        tracer.end();

        tracer.begin("aggregator.convert", simulation);
        for (messages, samples) in inbound
            .iter_mut()
            .flatten()
            .zip(converted.iter_mut().flatten())
        {
            for message in messages.drain(..) {
                if let Message::TimeStep { payload, .. } = message {
                    samples.push(payload_into_sample(payload, &input_norm, &output_norm));
                }
            }
        }
        tracer.end();

        // Only rank 0 has a learner to drain its buffer: the samples of the
        // other ranks end here.
        for other_rank in &mut converted[1..] {
            other_rank.iter_mut().for_each(Vec::clear);
        }
        let arrived_at_rank0: usize = converted[0].iter().map(Vec::len).sum();
        if traced {
            learner.counts.puts += arrived_at_rank0;
        }
        for (shard, samples) in converted[0].iter_mut().enumerate() {
            for sample in samples.drain(..) {
                burst.push(sample);
                if burst.len() == PUT_BURST {
                    learner.put_burst(&mut tracer, shard, &mut burst, simulation);
                }
            }
            if !burst.is_empty() {
                learner.put_burst(&mut tracer, shard, &mut burst, simulation);
            }
        }

        owed_samples += arrived_at_rank0 as f64 * plan.trained_per_produced;
        while (learner.trained as f64) < owed_samples
            && learner.can_serve()
            && learner.round(&mut tracer)
        {}

        learner.completed.push(simulation);
        if let Some((_, journal)) = &durable {
            tracer.begin("durable.journal_append", simulation);
            journal
                .append(simulation)
                .and_then(|()| journal.flush())
                .expect("appending to the replay's journal under benchmark/out");
            tracer.end();
            learner.counts.journal_appends += usize::from(traced);
        }
        tracer.end();
        let stalled = learner.stall_seconds - stalls_before;
        turn_seconds.push(turn_started.elapsed().as_secs_f64() - stalled);
    }

    // End of production: the thresholds lift and the buffer drains.
    tracer.set_enabled(true);
    tracer.begin("drain", plan.simulations as u64);
    buffer.mark_reception_over();
    while learner.round(&mut tracer) {}
    learner.validate(&mut tracer);
    learner.checkpoint(&mut tracer);
    tracer.end();

    // Vote "no data" so the partner ranks leave their collective loop.
    status.all_reduce_mean(&mut [0.0]);
    for partner in partners {
        partner.join().expect("a partner rank panicked");
    }

    let mut failures = Vec::new();
    let transport = fabric.stats();
    let expected = plan.simulations * STEPS_PER_SIMULATION;
    if transport.messages_sent != expected || transport.messages_delivered != expected {
        failures.push(format!(
            "replay sent {} and delivered {} of {expected} messages",
            transport.messages_sent, transport.messages_delivered
        ));
    }
    let rank0_unique = expected / ranks;
    if learner.trained < rank0_unique {
        failures.push(format!(
            "replay trained {} samples, rank 0 received {rank0_unique}",
            learner.trained
        ));
    }
    if !learner.last_loss.is_finite() || !learner.model.params_flat().iter().all(|p| p.is_finite())
    {
        failures.push("replay produced a non-finite loss or parameter".to_string());
    }
    let mut counts = learner.counts;
    drop(durable);
    if let Some(dir) = &durable_dir {
        counts.checkpoint_bytes = newest_checkpoint_bytes(dir);
        if counts.checkpoint_bytes == 0 {
            failures.push(format!("no checkpoint file in {}", dir.display()));
        }
        if let Err(error) = std::fs::remove_dir_all(dir) {
            failures.push(format!("removing {}: {error}", dir.display()));
        }
    }
    Replay {
        spans: tracer.into_spans(),
        failures,
        counts,
        turn_seconds,
    }
}

fn newest_checkpoint_bytes(dir: &Path) -> u64 {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return 0;
    };
    entries
        .flatten()
        .filter(|entry| entry.file_name().to_string_lossy().starts_with("ckpt-"))
        .max_by_key(|entry| entry.file_name())
        .and_then(|entry| entry.metadata().ok())
        .map_or(0, |metadata| metadata.len())
}

/// Launcher cost per client: a campaign whose clients do nothing.
pub fn launch_us_per_client(config: &ExperimentConfig) -> f64 {
    const CLIENTS: usize = 400;
    let plan = CampaignPlan::single_series(CLIENTS, config.campaign.peak_concurrency())
        .with_seed(config.campaign.seed);
    let launcher = Launcher::new(config.launcher);
    let space = config.workload.parameter_space();
    let started = Instant::now();
    let report = launcher.run_campaign_in(&plan, &space, |job| {
        black_box(job);
        Ok(())
    });
    let elapsed = started.elapsed();
    assert_eq!(report.completed, CLIENTS, "the no-op campaign completes");
    elapsed.as_secs_f64() * 1e6 / CLIENTS as f64
}

/// The train step of the replay with the GEMM thread count the default
/// `gemm_threads: 0` resolves to, on a fixed synthetic batch.
pub fn step_auto_threads_us_per_sample(config: &ExperimentConfig) -> f64 {
    const STEPS: usize = 200;
    let auto = TrainingConfig {
        gemm_threads: 0,
        ..config.training.clone()
    };
    let mut model = Mlp::new(config.surrogate.mlp_config(config.output_size()));
    let mut ws = model
        .workspace(BATCH_SIZE)
        .with_threads(auto.effective_gemm_threads())
        .with_isa(auto.kernel_isa);
    let mut adam = Adam::new(AdamConfig::default(), model.param_count()).with_isa(auto.kernel_isa);
    let mut grads = Vec::with_capacity(model.param_count());
    let mut batch = Batch::with_capacity(BATCH_SIZE, model.input_size(), model.output_size());
    for row in 0..BATCH_SIZE {
        let x = (row as f32 + 0.5) / BATCH_SIZE as f32;
        batch.push_sample(&Sample::new(
            vec![x; model.input_size()],
            vec![1.0 - x; model.output_size()],
            0,
            row,
        ));
    }
    let mut step = |model: &mut Mlp| {
        model.forward_ws(&batch.inputs, &mut ws);
        let (prediction, grad_out) = ws.output_and_grad_mut();
        black_box(MseLoss.evaluate_into(prediction, &batch.targets, grad_out));
        model.backward_ws(&mut ws);
        model.grads_flat_into(&mut grads);
        adam.step(model, &grads, LEARNING_RATE);
    };
    for _ in 0..STEPS / 10 {
        step(&mut model);
    }
    let started = Instant::now();
    for _ in 0..STEPS {
        step(&mut model);
    }
    started.elapsed().as_secs_f64() * 1e6 / (STEPS * BATCH_SIZE) as f64
}
