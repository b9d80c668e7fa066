//! One workload, start to finish: set-up timing, the untraced replicates,
//! the traced replay, and the result.

use crate::replay::{self, ReplayPlan};
use crate::replicate::Replicate;
use crate::report::{self, Environment, Measured, Measurements, END_TO_END, PER_LAYER};
use crate::trace::Span;
use crate::workloads::{Size, Workload, BATCH_SIZE};
use melissa::{OnlineExperiment, ValidationSet};
use melissa_transport::{Fabric, FabricConfig};
use serde_json::Value;
use std::collections::BTreeMap;
use std::hint::black_box;
use std::io::Write;
use std::path::Path;
use std::process::Command;
use std::time::Instant;
use surrogate_nn::{Mlp, Sample};
use training_buffer::ShardedBuffer;

/// Recorded replicates a run takes at least, whatever `--seconds` says.
const MIN_REPLICATES: usize = 3;
/// Simulations of the discarded replay that warms caches and the allocator.
const WARM_REPLAY_SIMULATIONS: usize = 20;
/// Repetitions behind the medians of the two stand-alone layer probes.
const PROBE_REPETITIONS: usize = 3;

#[derive(Clone)]
pub struct RunOptions {
    pub seed: u64,
    /// Wall-clock budget of the measurement: the recorded replicates and,
    /// when tracing, the replays, which get half of it each.
    pub seconds: f64,
    pub trace: bool,
    /// Smoke mode: one replicate at a twentieth of the size, traced.
    pub check: bool,
}

pub struct WorkloadResult {
    pub workload: &'static str,
    pub environment: Environment,
    pub replicates: usize,
    pub ops_attempted: usize,
    pub ops_failed: usize,
    pub failures: Vec<String>,
    pub end_to_end: Measurements,
    /// Present when the run was traced.
    pub per_layer: Option<Measurements>,
}

impl WorkloadResult {
    pub fn correct(&self) -> bool {
        self.failures.is_empty() && self.ops_failed == 0
    }
}

/// Wall time of the constructors `OnlineExperiment::run` executes before its
/// first thread starts, called directly. Measured in blocks, one before every
/// replicate, so that the repetitions span the whole run and not one moment
/// of it. The constructors do the same single-threaded work every time, so
/// whatever a repetition takes beyond the fastest one is the machine (it runs
/// 1.4 times slower for seconds at a time), not the program: `setup_s` is
/// the lowest repetition.
#[derive(Default)]
struct Setup {
    total_s: Vec<f64>,
    validation_generate_ms: Vec<f64>,
}

/// The share of a run's wall clock the set-up blocks may take: a block is
/// skipped while they are ahead of it (`solver_bound` sets up in 0.3 s and
/// its replicates last 2 s).
const SETUP_SHARE: f64 = 0.1;

impl Setup {
    /// One block: up to 15 repetitions within 0.15 s, at least 1.
    fn measure_block(&mut self, workload: &Workload, seed: u64) {
        let config = workload.config(seed, Size::Full, Path::new("unused"));
        let started = Instant::now();
        let mut reps = 0;
        while reps < 1 || (reps < 15 && started.elapsed().as_secs_f64() < 0.15) {
            reps += 1;
            let fresh = config.clone();
            let begin = Instant::now();
            let experiment = OnlineExperiment::new(fresh).expect("a valid workload configuration");
            let config = experiment.config();
            let before_validation = Instant::now();
            let validation = ValidationSet::generate(config);
            let validation_time = before_validation.elapsed();
            let mlp_config = config.surrogate.mlp_config(config.output_size());
            let ranks: Vec<_> = (0..workload.ranks)
                .map(|rank| {
                    let model = Mlp::new(mlp_config.clone());
                    let workspace = model.workspace(BATCH_SIZE);
                    let buffer = ShardedBuffer::<Sample>::new(
                        &config.rank_buffer_config(rank),
                        config.ingest_shards,
                    );
                    (model, workspace, buffer)
                })
                .collect();
            let fabric = Fabric::new(FabricConfig {
                num_server_ranks: workload.ranks,
                shards_per_rank: config.ingest_shards,
                channel_capacity: config.channel_capacity,
                fault: config.fault.clone(),
            });
            self.total_s.push(begin.elapsed().as_secs_f64());
            self.validation_generate_ms
                .push(validation_time.as_secs_f64() * 1e3);
            black_box((validation, ranks, fabric));
        }
    }
}

/// The seed of replicate `index` of a run seeded with `seed`. How fast a
/// replicate trains depends on its seed (it decides when Adam's moments reach
/// the denormal range), so a run draws one seed per replicate and its values
/// are taken over seeds; the same `--seed` still gives the same inputs.
fn replicate_seed(seed: u64, index: usize) -> u64 {
    seed.wrapping_mul(1000).wrapping_add(index as u64)
}

/// Runs one replicate in a fresh child process of this executable, so that
/// every replicate starts from the same process state and `VmHWM` is its own.
fn spawn_replicate(workload: &Workload, seed: u64, size: Size, durable_dir: &Path) -> Replicate {
    let exe = std::env::current_exe().expect("locating this executable");
    // `output` waits for the child to end; its stderr goes to ours.
    let output = Command::new(exe)
        .args(["--workload", workload.name])
        .args(["--seed", &seed.to_string()])
        .args(["--replicate", size.name()])
        .arg("--durable-dir")
        .arg(durable_dir)
        .stderr(std::process::Stdio::inherit())
        .output()
        .expect("starting a replicate child process");
    let stdout = String::from_utf8_lossy(&output.stdout);
    stdout
        .lines()
        .last()
        .and_then(|line| serde_json::from_str(line).ok())
        .unwrap_or_else(|| {
            panic!(
                "the replicate child ({}) printed no result: {stdout}",
                output.status
            )
        })
}

/// `out/<workload>.jsonl`: one line per replicate, appended as it finishes, so
/// a run can be inspected while it is still going.
struct ReplicateLog<'a> {
    file: std::fs::File,
    run_id: &'a str,
    workload: &'a Workload,
    seed: u64,
    environment: &'a Environment,
}

impl ReplicateLog<'_> {
    fn append(&mut self, index: usize, recorded: bool, replicate: &Replicate) {
        let record = report::object(vec![
            ("run", report::string(self.run_id)),
            ("workload", report::string(self.workload.name)),
            ("seed", report::whole(self.seed)),
            ("replicate", report::whole(index as u64)),
            ("recorded", Value::Bool(recorded)),
            ("env", self.environment.to_value()),
            (
                "ops_attempted",
                report::whole(replicate.ops_attempted() as u64),
            ),
            ("ops_failed", report::whole(replicate.ops_failed() as u64)),
            ("measured", serde::Serialize::serialize(replicate)),
        ]);
        let line = serde_json::to_string(&record).expect("a Value tree always serialises");
        // A lost log line must not change what the run measures or returns.
        if let Err(error) = writeln!(self.file, "{line}") {
            eprintln!("warning: appending to the replicate log: {error}");
        }
    }
}

pub fn run(workload: &'static Workload, options: &RunOptions) -> WorkloadResult {
    let environment = Environment::detect();
    println!(
        "# pipeline benchmark: workload {}, seed {}",
        workload.name, options.seed
    );
    println!("# {}", environment.header());
    println!("# why: {}", workload.why);

    let out = report::out_dir();
    std::fs::create_dir_all(&out).expect("creating benchmark/out");
    let run_id = format!(
        "{}-{}",
        std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .map_or(0, |d| d.as_millis()),
        std::process::id()
    );
    let mut log = ReplicateLog {
        file: std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(out.join(format!("{}.jsonl", workload.name)))
            .expect("opening the replicate log under benchmark/out"),
        run_id: &run_id,
        workload,
        seed: options.seed,
        environment: &environment,
    };

    let mut setup = Setup::default();
    let mut failures: Vec<String> = Vec::new();
    let mut index = 0;
    let run_started = Instant::now();
    let mut run_replicate = |size: Size, recorded: bool, failures: &mut Vec<String>| {
        let setup_seconds: f64 = setup.total_s.iter().sum();
        if setup_seconds <= SETUP_SHARE * run_started.elapsed().as_secs_f64() {
            setup.measure_block(workload, options.seed);
        }
        let durable_dir = out.join(format!("durable-{}-{run_id}-{index}", workload.name));
        let begin = Instant::now();
        let seed = replicate_seed(options.seed, index);
        let replicate = spawn_replicate(workload, seed, size, &durable_dir);
        let wall_seconds = begin.elapsed().as_secs_f64();
        log.append(index, recorded, &replicate);
        println!(
            "replicate {index} ({}, seed {seed}, {} simulations): {:.3} s, train {:.1} samples/s, stream {:.1} samples/s, {:.1} MB, final MSE {:.5}{}",
            if recorded { "recorded" } else { "warm-up, discarded" },
            replicate.simulations,
            replicate.total_seconds,
            replicate.train_samples_per_s,
            replicate.stream_samples_per_s,
            replicate.peak_rss_mb,
            replicate.final_mse,
            if replicate.failures.is_empty() { "" } else { "  CHECK FAILED" },
        );
        failures.extend(
            replicate
                .failures
                .iter()
                .map(|why| format!("replicate {index}: {why}")),
        );
        index += 1;
        (replicate, wall_seconds)
    };

    let mut recorded: Vec<Replicate> = Vec::new();
    let mut measured_seconds = 0.0;
    if options.check {
        recorded.push(run_replicate(Size::Check, true, &mut failures).0);
    } else {
        run_replicate(Size::WarmUp, false, &mut failures);
        let budget = if options.trace {
            options.seconds / 2.0
        } else {
            options.seconds
        };
        loop {
            let (replicate, wall_seconds) = run_replicate(Size::Full, true, &mut failures);
            recorded.push(replicate);
            measured_seconds += wall_seconds;
            // Stop when one more replicate would overrun the budget.
            if recorded.len() >= MIN_REPLICATES && measured_seconds + wall_seconds > budget {
                break;
            }
        }
    }

    let per_layer = (options.trace || options.check).then(|| {
        measure_layers(
            workload,
            options,
            &environment,
            &recorded,
            &setup,
            options.seconds - measured_seconds,
            &out.join(format!("replay-{}-{run_id}", workload.name)),
            &mut failures,
        )
    });

    // Each end-to-end value is the best replicate, not the median one: what
    // else runs on the host only ever slows a replicate down, for minutes at
    // a time (AA_baseline.md), so the fastest one is the closest to what the
    // program does. Memory is not disturbed; its highest reading is kept.
    let highest = |field: fn(&Replicate) -> f64| {
        Measured::highest(&recorded.iter().map(field).collect::<Vec<_>>())
    };
    let end_to_end = report::measurements(&END_TO_END, |name| match name {
        report::TRAIN_SAMPLES_PER_S => Some(highest(|r| r.train_samples_per_s)),
        report::STREAM_SAMPLES_PER_S => Some(highest(|r| r.stream_samples_per_s)),
        report::SETUP_S => Some(Measured::lowest(&setup.total_s)),
        report::PEAK_RSS_MB => Some(highest(|r| r.peak_rss_mb)),
        _ => None,
    });

    let result = WorkloadResult {
        workload: workload.name,
        environment,
        replicates: recorded.len(),
        ops_attempted: recorded.iter().map(Replicate::ops_attempted).sum(),
        ops_failed: recorded.iter().map(Replicate::ops_failed).sum(),
        failures,
        end_to_end,
        per_layer,
    };
    report::print_table(
        &format!(
            "end-to-end (the highest of {} recorded replicates; setup_s the lowest of {} repetitions)",
            result.replicates,
            setup.total_s.len()
        ),
        &result.end_to_end,
    );
    if let Some(per_layer) = &result.per_layer {
        report::print_table(
            "per-layer (counters: median over the replicates; times: staged replay, spans on)",
            per_layer,
        );
        let tail = recorded
            .iter()
            .map(|r| r.tail_percentile)
            .fold(99.0, f64::min);
        let gaps = recorded.iter().map(|r| r.batch_gaps).min().unwrap_or(0);
        println!("  trainer.batch_gap_ms_p99 is the p{tail} of at least {gaps} gaps per replicate");
    }
    println!(
        "ops_attempted {}  ops_failed {}",
        result.ops_attempted, result.ops_failed
    );
    for failure in &result.failures {
        println!("CHECK FAILED: {failure}");
    }
    result
}

/// The median of one field over the recorded replicates.
fn column(recorded: &[Replicate], field: impl Fn(&Replicate) -> f64) -> Measured {
    Measured::of(&recorded.iter().map(field).collect::<Vec<_>>())
}

/// What the stage times of one replay explain of the wall clock of the
/// learning threads of the replicate it replayed: the share they leave
/// unattributed, and the share of `nn.*`. Validation, checkpoints and the
/// journal run on rank 0 only, between its batches.
fn wall_shares(
    workload: &Workload,
    replicate: &Replicate,
    stage: &BTreeMap<&'static str, f64>,
) -> (f64, f64) {
    let samples = replicate.samples_trained as f64;
    let rounds = samples / BATCH_SIZE as f64;
    let nn_us = samples
        * (stage["nn.forward_us_per_sample"]
            + stage["nn.backward_us_per_sample"]
            + stage["nn.optimizer_us_per_sample"])
        + rounds * stage["nn.allreduce_us_per_round"];
    let attributed_us = nn_us
        + samples * stage["buffer.fill_us_per_sample"]
        + replicate.validations as f64 * stage["validation.evaluate_ms"] * 1e3
        + replicate.checkpoints_saved as f64
            * (stage["durable.capture_ms"] + stage["durable.save_ms"])
            * 1e3
        + replicate.simulations as f64 * stage["durable.journal_append_us"];
    let wall_us = replicate.total_seconds * workload.ranks as f64 * 1e6;
    (1.0 - attributed_us / wall_us, nn_us / wall_us)
}

/// The per-layer metrics: counters from the untraced replicates, stage times
/// from the traced replay, and the share of the learning thread's wall clock
/// that the stage times leave unattributed. Each replay repeats the campaign
/// of one recorded replicate — same seed, as many samples trained — and is
/// held against that replicate: the first, then the next ones while one more
/// replay fits `replay_seconds`.
#[allow(clippy::too_many_arguments)]
fn measure_layers(
    workload: &Workload,
    options: &RunOptions,
    environment: &Environment,
    recorded: &[Replicate],
    setup: &Setup,
    replay_seconds: f64,
    replay_dir: &Path,
    failures: &mut Vec<String>,
) -> Measurements {
    let size = if options.check {
        Size::Check
    } else {
        Size::Full
    };
    let mut replay = |replicate: &Replicate, simulations: usize| {
        let config = workload.config(replicate.seed, Size::Full, replay_dir);
        let validation = ValidationSet::generate(&config);
        let plan = ReplayPlan {
            simulations,
            trained_per_produced: replicate.samples_trained as f64
                / replicate.unique_samples_produced as f64,
        };
        let replay = replay::run(workload, &config, &validation, plan);
        failures.extend(replay.failures.iter().map(|why| format!("replay: {why}")));
        (replay, plan)
    };
    if !options.check {
        // One short discarded replay warms caches and the allocator.
        replay(&recorded[0], WARM_REPLAY_SIMULATIONS);
    }
    let mut stage_samples: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
    let mut overhead_shares = Vec::new();
    let mut shares: Vec<(f64, f64)> = Vec::new();
    let replays_started = Instant::now();
    for (index, replicate) in recorded.iter().enumerate() {
        let replay_started = Instant::now();
        let (replay, plan) = replay(replicate, workload.simulations_at(size));
        let stage = replay.layer_metrics();
        shares.push(wall_shares(workload, replicate, &stage));
        overhead_shares.push(replay.trace_overhead_share());
        for (name, value) in stage {
            stage_samples.entry(name).or_default().push(value);
        }
        let next_replay_ends = replays_started.elapsed() + replay_started.elapsed();
        if index + 1 == recorded.len() || next_replay_ends.as_secs_f64() > replay_seconds {
            write_trace_file(workload, replicate.seed, environment, plan, &replay.spans);
            break;
        }
    }

    let config = workload.config(options.seed, Size::Full, replay_dir);
    let repetitions = if options.check { 1 } else { PROBE_REPETITIONS };
    let repeat = |measure: &dyn Fn() -> f64| -> Measured {
        Measured::of(&(0..repetitions).map(|_| measure()).collect::<Vec<_>>())
    };
    let launch = repeat(&|| replay::launch_us_per_client(&config));
    let auto_step = repeat(&|| replay::step_auto_threads_us_per_sample(&config));

    let model = Mlp::new(config.surrogate.mlp_config(config.output_size()));
    let forward_madds: usize = model
        .config()
        .layer_sizes
        .windows(2)
        .map(|pair| pair[0] * pair[1])
        .sum();
    let column = |field: &dyn Fn(&Replicate) -> f64| column(recorded, field);
    report::measurements(&PER_LAYER, |name| {
        if let Some(samples) = stage_samples.get(name) {
            return Some(Measured::of(samples));
        }
        Some(match name {
            "ensemble.campaign_s" => column(&|r| r.campaign_s),
            "ensemble.retries" => column(&|r| r.retries as f64),
            "ensemble.peak_concurrency" => column(&|r| r.peak_concurrency as f64),
            "ensemble.launch_us_per_client" => launch,
            "transport.bytes_sent" => column(&|r| r.bytes_sent as f64),
            "transport.messages_dropped" => column(&|r| r.messages_dropped as f64),
            "buffer.producer_waits" => column(&|r| r.producer_waits as f64),
            "buffer.consumer_waits" => column(&|r| r.consumer_waits as f64),
            "buffer.repeat_fraction" => column(&|r| r.repeat_fraction),
            "buffer.evictions" => column(&|r| r.evictions as f64),
            "trainer.batch_gap_ms_p50" => column(&|r| r.batch_gap_ms_p50),
            "trainer.batch_gap_ms_p99" => column(&|r| r.batch_gap_ms_tail),
            "trainer.unattributed_share" => {
                Measured::of(&shares.iter().map(|s| s.0).collect::<Vec<_>>())
            }
            "nn.wall_share" => Measured::of(&shares.iter().map(|s| s.1).collect::<Vec<_>>()),
            "nn.step_auto_threads_us_per_sample" => auto_step,
            // Forward, weight-gradient and input-gradient GEMMs of one sample.
            "nn.madds_per_sample" => Measured::single(3.0 * forward_madds as f64),
            "nn.param_count" => Measured::single(model.param_count() as f64),
            "validation.generate_ms" => Measured::lowest(&setup.validation_generate_ms),
            "validation.final_mse" => column(&|r| r.final_mse),
            "validation.min_mse" => column(&|r| r.min_mse),
            "durable.checkpoints_saved" => column(&|r| r.checkpoints_saved as f64),
            "trace_overhead_share" => Measured::of(&overhead_shares),
            _ => return None,
        })
    })
}

/// Writes the spans of the last traced replay to `out/trace-<workload>.json`.
fn write_trace_file(
    workload: &Workload,
    seed: u64,
    environment: &Environment,
    plan: ReplayPlan,
    spans: &[Span],
) {
    let count = report::whole;
    let self_times = crate::trace::self_time_by_name(spans)
        .into_iter()
        .map(|(name, (ns, spans))| {
            let entry =
                report::object(vec![("self_ns", count(ns)), ("spans", count(spans as u64))]);
            (name.to_string(), entry)
        })
        .collect();
    let head = report::object(vec![
        ("workload", report::string(workload.name)),
        ("seed", count(seed)),
        ("env", environment.to_value()),
        ("replayed_simulations", count(plan.simulations as u64)),
        (
            "trained_per_produced",
            report::number(plan.trained_per_produced),
        ),
        ("self_time_by_name", Value::Object(self_times)),
    ]);
    let head = serde_json::to_string(&head).expect("a Value tree always serialises");
    let path = report::out_dir().join(format!("trace-{}.json", workload.name));
    // A full-size replay holds up to 200,000 spans: they are written one by
    // one, not gathered into one more tree in memory. Span names are plain
    // identifiers, so they need no escaping.
    let write = || -> std::io::Result<()> {
        let mut file = std::io::BufWriter::new(std::fs::File::create(&path)?);
        write!(
            file,
            "{},\"spans\":[",
            head.strip_suffix('}').expect("the head is an object")
        )?;
        for (index, span) in spans.iter().enumerate() {
            let parent = span.parent.map_or("null".to_string(), |p| p.to_string());
            write!(
                file,
                "{}\n{{\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"trace_id\":{}}}",
                if index == 0 { "" } else { "," },
                span.name,
                span.start_ns,
                span.end_ns,
                span.trace_id
            )?;
        }
        writeln!(file, "]}}")?;
        file.flush()
    };
    write().expect("writing the span file under benchmark/out");
    println!("wrote {} spans to {}", spans.len(), path.display());
}
