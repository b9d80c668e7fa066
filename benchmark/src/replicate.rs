//! One replicate: a full untraced `OnlineExperiment::run` in a process of its
//! own, its end-to-end rates, the counters its report carries, and the
//! correctness checks.

use crate::contract::contract;
use crate::stats;
use crate::workloads::{Size, Workload, STEPS_PER_SIMULATION};
use melissa::{peek_identity, DurableCheckpointStore, ExperimentReport, OnlineExperiment};
use serde::{Deserialize, Serialize};
use std::path::Path;
use surrogate_nn::Mlp;

/// What one replicate measured. Rates and counters are meaningful whether or
/// not `failures` is empty; a non-empty `failures` fails the command.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Replicate {
    /// The seed of the replicate's experiment, campaign and surrogate.
    pub seed: u64,
    pub simulations: usize,
    pub total_seconds: f64,
    /// Samples consumed by the training threads, repeats included, all ranks.
    pub samples_trained: usize,
    pub unique_samples_produced: usize,
    pub unique_samples_trained: usize,
    pub train_samples_per_s: f64,
    pub stream_samples_per_s: f64,
    pub campaign_s: f64,
    pub retries: usize,
    pub peak_concurrency: usize,
    pub bytes_sent: u64,
    pub messages_dropped: usize,
    pub producer_waits: usize,
    pub consumer_waits: usize,
    pub repeat_fraction: f64,
    pub evictions: usize,
    /// Gaps between consecutive rank-0 loss points, i.e. per-batch wall time.
    pub batch_gaps: usize,
    pub batch_gap_ms_p50: f64,
    /// The gap at `tail_percentile`, the highest percentile with at least ten
    /// gaps beyond it (99 on every full-size replicate).
    pub batch_gap_ms_tail: f64,
    pub tail_percentile: f64,
    /// Validation passes rank 0 ran (periodic ones plus the final one).
    pub validations: usize,
    pub final_mse: f64,
    pub min_mse: f64,
    pub checkpoints_saved: usize,
    /// `VmHWM` of the replicate's process when the experiment had ended.
    pub peak_rss_mb: f64,
    pub failures: Vec<String>,
}

impl Replicate {
    pub fn ops_attempted(&self) -> usize {
        self.unique_samples_produced
    }

    pub fn ops_failed(&self) -> usize {
        ops_failed(
            self.unique_samples_produced,
            self.unique_samples_trained,
            self.failures.is_empty(),
        )
    }
}

/// One operation is one unique sample the campaign must produce. It failed if
/// it was never trained, and every sample of a replicate that fails a check
/// counts as failed.
pub fn ops_failed(produced: usize, trained: usize, checks_passed: bool) -> usize {
    if checks_passed {
        produced.saturating_sub(trained)
    } else {
        produced
    }
}

/// Runs one replicate of `workload` in this process. A durable workload keeps
/// its recovery state in `durable_dir`; the directory is removed when every
/// check passed and kept for inspection otherwise.
pub fn run(workload: &Workload, seed: u64, size: Size, durable_dir: &Path) -> Replicate {
    let config = workload.config(seed, size, durable_dir);
    let experiment =
        OnlineExperiment::new(config).expect("the workload table holds valid configurations");
    let (model, report) = experiment.run();
    let mut replicate = summarize(workload, size, &report);
    replicate.seed = seed;
    replicate.peak_rss_mb = peak_rss_mb();
    replicate.failures = check(workload, size, &model, &report, durable_dir);
    if workload.is_durable() && replicate.failures.is_empty() {
        if let Err(error) = std::fs::remove_dir_all(durable_dir) {
            replicate
                .failures
                .push(format!("removing {}: {error}", durable_dir.display()));
        }
    }
    replicate
}

fn summarize(workload: &Workload, size: Size, report: &ExperimentReport) -> Replicate {
    let mut gaps_ms: Vec<f64> = report
        .metrics
        .losses
        .windows(2)
        .map(|pair| (pair[1].elapsed_seconds - pair[0].elapsed_seconds) * 1e3)
        .collect();
    gaps_ms.sort_by(f64::total_cmp);
    // p99 once the count supports it; small `--check` runs fall back to the
    // highest percentile they do support.
    let tail_percentile = stats::supported_percentile(gaps_ms.len())
        .unwrap_or(50.0)
        .min(99.0);

    let buffer = |field: fn(&training_buffer::BufferStats) -> usize| -> usize {
        report.buffer_stats.iter().map(field).sum()
    };
    let gets = buffer(|s| s.gets);
    let launcher = report.launcher.clone().unwrap_or_default();
    let transport = report.transport.unwrap_or_default();
    Replicate {
        seed: 0,
        simulations: workload.simulations_at(size),
        total_seconds: report.total_seconds,
        samples_trained: report.samples_trained,
        unique_samples_produced: report.unique_samples_produced,
        unique_samples_trained: report.unique_samples_trained,
        train_samples_per_s: report.samples_trained as f64 / report.total_seconds,
        stream_samples_per_s: report.unique_samples_produced as f64 / report.total_seconds,
        campaign_s: launcher.total_duration,
        retries: launcher.retries,
        peak_concurrency: launcher.peak_concurrency,
        bytes_sent: transport.bytes_sent,
        messages_dropped: transport.messages_dropped,
        producer_waits: buffer(|s| s.producer_waits),
        consumer_waits: buffer(|s| s.consumer_waits),
        repeat_fraction: buffer(|s| s.repeated_gets) as f64 / gets.max(1) as f64,
        evictions: buffer(|s| s.evictions),
        batch_gaps: gaps_ms.len(),
        batch_gap_ms_p50: stats::percentile(&gaps_ms, 50.0),
        batch_gap_ms_tail: stats::percentile(&gaps_ms, tail_percentile),
        tail_percentile,
        validations: report
            .metrics
            .losses
            .iter()
            .filter(|point| point.validation_loss.is_some())
            .count(),
        final_mse: report.final_validation_mse.map_or(f64::NAN, f64::from),
        min_mse: report.min_validation_mse.map_or(f64::NAN, f64::from),
        checkpoints_saved: report.durable_checkpoints,
        peak_rss_mb: f64::NAN,
        failures: Vec::new(),
    }
}

/// `VmHWM` of this process, in MB.
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            let line = status.lines().find(|line| line.starts_with("VmHWM:"))?;
            line.split_whitespace().nth(1)?.parse::<f64>().ok()
        })
        .map_or(f64::NAN, |kib| kib / 1024.0)
}

/// Every correctness check of one replicate; returns what failed.
fn check(
    workload: &Workload,
    size: Size,
    model: &Mlp,
    report: &ExperimentReport,
    durable_dir: &Path,
) -> Vec<String> {
    let mut failures = Vec::new();
    let mut require = |ok: bool, what: String| {
        if !ok {
            failures.push(what);
        }
    };
    let simulations = workload.simulations_at(size);
    let expected = simulations * STEPS_PER_SIMULATION;
    require(
        report.unique_samples_produced == expected,
        format!(
            "unique_samples_produced {} != {expected}",
            report.unique_samples_produced
        ),
    );
    require(
        report.unique_samples_trained == report.unique_samples_produced,
        format!(
            "unique_samples_trained {} != produced {}",
            report.unique_samples_trained, report.unique_samples_produced
        ),
    );
    if workload.serves_once() {
        require(
            report.samples_trained == report.unique_samples_produced,
            format!(
                "{:?} trained {} samples, expected each of {} exactly once",
                workload.buffer, report.samples_trained, report.unique_samples_produced
            ),
        );
    }
    if workload.real_solver {
        let repeated: usize = report.buffer_stats.iter().map(|s| s.repeated_gets).sum();
        require(
            repeated > 0,
            "repeated_gets == 0: the reservoir never re-served a sample".to_string(),
        );
    }
    match &report.transport {
        Some(transport) => {
            require(
                transport.messages_dropped == 0,
                format!("transport dropped {} messages", transport.messages_dropped),
            );
            require(
                transport.messages_delivered == transport.messages_sent,
                format!(
                    "transport delivered {} of {} messages",
                    transport.messages_delivered, transport.messages_sent
                ),
            );
        }
        None => require(false, "report carries no transport counters".to_string()),
    }
    match &report.launcher {
        Some(launcher) => require(
            launcher.completed == simulations && launcher.failed == 0,
            format!(
                "launcher completed {} of {simulations} clients, {} failed",
                launcher.completed, launcher.failed
            ),
        ),
        None => require(false, "report carries no launcher report".to_string()),
    }
    require(
        model.params_flat().iter().all(|p| p.is_finite()),
        "the trained model holds a non-finite parameter".to_string(),
    );
    match report.final_validation_mse {
        // The ceilings are sized for a full campaign; shorter ones train
        // less, so they only have to produce a finite error.
        Some(mse) if size == Size::Full => {
            let ceiling = contract().workload(workload.name).mse_ceiling;
            require(
                f64::from(mse) < ceiling,
                format!("final_validation_mse {mse} not under the ceiling {ceiling}"),
            )
        }
        Some(mse) => require(
            mse.is_finite(),
            format!("final_validation_mse {mse} is not finite"),
        ),
        None => require(false, "no final validation MSE".to_string()),
    }
    if workload.is_durable() {
        require(
            report.durable_error.is_none(),
            format!("durable_error: {:?}", report.durable_error),
        );
        require(
            report.durable_checkpoints == report.checkpoints_taken,
            format!(
                "{} durable checkpoints for {} taken",
                report.durable_checkpoints, report.checkpoints_taken
            ),
        );
        if let Err(why) = check_durable_dir(durable_dir, simulations) {
            require(false, why);
        }
    }
    failures
}

/// Reopens the durability directory the way a restart would and checks that
/// its newest checkpoint covers every simulation of the campaign.
fn check_durable_dir(dir: &Path, simulations: usize) -> Result<(), String> {
    let identity = peek_identity(dir)
        .map_err(|e| format!("peek_identity: {e}"))?
        .ok_or_else(|| format!("{} holds no durable identity", dir.display()))?;
    let latest = DurableCheckpointStore::open(dir, identity, usize::MAX)
        .and_then(|store| store.load_latest())
        .map_err(|e| format!("reopening {}: {e}", dir.display()))?;
    let (_, checkpoint) = latest
        .latest
        .ok_or_else(|| format!("{} holds no valid checkpoint", dir.display()))?;
    let mut completed = checkpoint.completed_simulations;
    completed.sort_unstable();
    completed.dedup();
    if completed == (0..simulations as u64).collect::<Vec<_>>() {
        Ok(())
    } else {
        Err(format!(
            "the newest checkpoint covers {} of {simulations} simulations",
            completed.len()
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn failed_operations_are_untrained_samples_or_the_whole_failed_replicate() {
        // Clean replicate: nothing failed.
        assert_eq!(ops_failed(40_000, 40_000, true), 0);
        // Samples that were never trained fail individually …
        assert_eq!(ops_failed(40_000, 39_990, true), 10);
        // … and a failed check fails every sample of the replicate.
        assert_eq!(ops_failed(40_000, 40_000, false), 40_000);
        assert_eq!(ops_failed(40_000, 39_990, false), 40_000);
    }
}
