//! Metric tables, the run header, and the JSON the benchmark prints.

use crate::stats;
use serde_json::Value;
use std::path::{Path, PathBuf};
use surrogate_nn::KernelIsa;

/// One metric of the benchmark, as `BENCHMARK.json` lists it.
pub struct MetricSpec {
    pub name: &'static str,
    pub unit: &'static str,
    /// `"higher"` or `"lower"`.
    pub better: &'static str,
}

const fn metric(name: &'static str, unit: &'static str, better: &'static str) -> MetricSpec {
    MetricSpec { name, unit, better }
}

pub const TRAIN_SAMPLES_PER_S: &str = "train_samples_per_s";
pub const STREAM_SAMPLES_PER_S: &str = "stream_samples_per_s";
pub const SETUP_S: &str = "setup_s";
pub const PEAK_RSS_MB: &str = "peak_rss_mb";

/// What a user of the pipeline sees; every workload reports all four.
pub const END_TO_END: [MetricSpec; 4] = [
    metric(TRAIN_SAMPLES_PER_S, "samples/s", "higher"),
    metric(STREAM_SAMPLES_PER_S, "samples/s", "higher"),
    metric(SETUP_S, "s", "lower"),
    metric(PEAK_RSS_MB, "MB", "lower"),
];

/// Single layers. The prefix is the layer; `contract.json` says which
/// end-to-end metric each should move, on which workload.
pub const PER_LAYER: [MetricSpec; 39] = [
    metric("workload.generate_us_per_step", "us", "lower"),
    metric("heat-solver.generate_us_per_step", "us", "lower"),
    metric("ensemble.campaign_s", "s", "lower"),
    metric("ensemble.retries", "count", "lower"),
    metric("ensemble.peak_concurrency", "count", "higher"),
    metric("ensemble.launch_us_per_client", "us", "lower"),
    metric("transport.encode_us_per_sample", "us", "lower"),
    metric("transport.send_us_per_sample", "us", "lower"),
    metric("transport.recv_us_per_sample", "us", "lower"),
    metric("transport.bytes_sent", "bytes", "lower"),
    metric("transport.messages_dropped", "count", "lower"),
    metric("aggregator.convert_us_per_sample", "us", "lower"),
    metric("buffer.put_us_per_sample", "us", "lower"),
    metric("buffer.fill_us_per_sample", "us", "lower"),
    metric("buffer.producer_waits", "count", "lower"),
    metric("buffer.consumer_waits", "count", "lower"),
    metric("buffer.repeat_fraction", "ratio", "lower"),
    metric("buffer.evictions", "count", "lower"),
    metric("trainer.batch_gap_ms_p50", "ms", "lower"),
    metric("trainer.batch_gap_ms_p99", "ms", "lower"),
    metric("trainer.unattributed_share", "ratio", "lower"),
    metric("nn.forward_us_per_sample", "us", "lower"),
    metric("nn.backward_us_per_sample", "us", "lower"),
    metric("nn.optimizer_us_per_sample", "us", "lower"),
    metric("nn.allreduce_us_per_round", "us", "lower"),
    metric("nn.step_auto_threads_us_per_sample", "us", "lower"),
    metric("nn.wall_share", "ratio", "lower"),
    metric("nn.madds_per_sample", "count", "lower"),
    metric("nn.param_count", "count", "lower"),
    metric("validation.generate_ms", "ms", "lower"),
    metric("validation.evaluate_ms", "ms", "lower"),
    metric("validation.final_mse", "mse", "lower"),
    metric("validation.min_mse", "mse", "lower"),
    metric("durable.capture_ms", "ms", "lower"),
    metric("durable.save_ms", "ms", "lower"),
    metric("durable.bytes_per_checkpoint", "bytes", "lower"),
    metric("durable.journal_append_us", "us", "lower"),
    metric("durable.checkpoints_saved", "count", "higher"),
    metric("trace_overhead_share", "ratio", "lower"),
];

/// A metric's value: the median of `n` samples (end-to-end metrics: the
/// highest replicate, for `setup_s` the lowest repetition), with their spread.
#[derive(Debug, Clone, Copy)]
pub struct Measured {
    pub value: f64,
    /// Distance between the first and third quartile; `None` below 2 samples.
    pub iqr: Option<f64>,
    pub n: usize,
}

impl Measured {
    pub fn of(samples: &[f64]) -> Self {
        Self {
            value: stats::median(samples),
            iqr: stats::iqr(samples),
            n: samples.len(),
        }
    }

    pub fn single(value: f64) -> Self {
        Self::of(&[value])
    }

    /// The highest of the samples instead of their median, with their IQR.
    pub fn highest(samples: &[f64]) -> Self {
        Self {
            value: samples.iter().copied().fold(f64::NAN, f64::max),
            ..Self::of(samples)
        }
    }

    /// The lowest of the samples instead of their median, with their IQR.
    pub fn lowest(samples: &[f64]) -> Self {
        Self {
            value: samples.iter().copied().fold(f64::NAN, f64::min),
            ..Self::of(samples)
        }
    }
}

/// The measured metrics of one table, in table order.
pub type Measurements = Vec<(&'static MetricSpec, Measured)>;

/// Pairs every spec of `table` with its value from `lookup`.
pub fn measurements(
    table: &'static [MetricSpec],
    lookup: impl Fn(&str) -> Option<Measured>,
) -> Measurements {
    table
        .iter()
        .map(|spec| {
            let measured = lookup(spec.name)
                .unwrap_or_else(|| panic!("no value was measured for {}", spec.name));
            (spec, measured)
        })
        .collect()
}

pub fn object(entries: Vec<(&str, Value)>) -> Value {
    Value::Object(
        entries
            .into_iter()
            .map(|(key, value)| (key.to_string(), value))
            .collect(),
    )
}

pub fn number(value: f64) -> Value {
    serde::Serialize::serialize(&value)
}

/// A whole number, exact over the full `u64` range (seeds use all of it).
pub fn whole(value: u64) -> Value {
    serde::Serialize::serialize(&value)
}

pub fn string(value: impl Into<String>) -> Value {
    Value::Str(value.into())
}

/// `{"<name>": {"value": …, "unit": …}}` — the `metrics` object of the
/// result line, optionally with the spread beside each value.
pub fn metrics_value(measurements: &Measurements, prefix: &str, with_spread: bool) -> Value {
    Value::Object(
        measurements
            .iter()
            .map(|(spec, measured)| {
                let mut entry = vec![
                    ("value", number(measured.value)),
                    ("unit", string(spec.unit)),
                ];
                if with_spread {
                    entry.push(("iqr", measured.iqr.map_or(Value::Null, number)));
                    entry.push(("n", whole(measured.n as u64)));
                    entry.push(("better", string(spec.better)));
                }
                (format!("{prefix}{}", spec.name), object(entry))
            })
            .collect(),
    )
}

/// The last line of standard output: exactly these four keys.
pub fn result_line(correct: bool, attempted: usize, failed: usize, metrics: Value) -> String {
    let line = object(vec![
        ("correct", Value::Bool(correct)),
        ("attempted", whole(attempted as u64)),
        ("failed", whole(failed as u64)),
        ("metrics", metrics),
    ]);
    serde_json::to_string(&line).expect("a Value tree always serialises")
}

pub fn print_table(title: &str, measurements: &Measurements) {
    println!("{title}");
    for (spec, measured) in measurements {
        let spread = match measured.iqr {
            Some(iqr) => format!("IQR {iqr:.4}, n={}", measured.n),
            None => format!("n={}", measured.n),
        };
        println!(
            "  {:<36} {:>16.4} {:<10} [{spread}] {} is better",
            spec.name, measured.value, spec.unit, spec.better
        );
    }
}

/// Where the numbers were taken: they depend on all of these.
pub struct Environment {
    pub nproc: usize,
    pub available_parallelism: usize,
    pub kernel_isa: String,
    pub rustc: &'static str,
}

impl Environment {
    pub fn detect() -> Self {
        let online_cpus = std::fs::read_to_string("/proc/cpuinfo")
            .map(|text| text.lines().filter(|l| l.starts_with("processor")).count())
            .unwrap_or(0);
        let available_parallelism = std::thread::available_parallelism().map_or(1, |n| n.get());
        Self {
            nproc: if online_cpus > 0 {
                online_cpus
            } else {
                available_parallelism
            },
            available_parallelism,
            kernel_isa: KernelIsa::Auto.resolve().name().to_string(),
            rustc: env!("BENCHMARK_RUSTC_VERSION"),
        }
    }

    pub fn header(&self) -> String {
        format!(
            "nproc {}, available_parallelism {}, kernel ISA {}, {}, gemm_threads 1",
            self.nproc, self.available_parallelism, self.kernel_isa, self.rustc
        )
    }

    pub fn to_value(&self) -> Value {
        object(vec![
            ("nproc", whole(self.nproc as u64)),
            (
                "available_parallelism",
                whole(self.available_parallelism as u64),
            ),
            ("kernel_isa", string(self.kernel_isa.as_str())),
            ("rustc", string(self.rustc)),
        ])
    }
}

/// `benchmark/`, where this package was built.
pub fn package_dir() -> &'static Path {
    Path::new(env!("CARGO_MANIFEST_DIR"))
}

/// `benchmark/out/`: replicate logs, span files and durability scratch.
pub fn out_dir() -> PathBuf {
    package_dir().join("out")
}
