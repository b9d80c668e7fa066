//! The result of one experiment run, with everything the paper's tables report.

use crate::metrics::ExperimentMetrics;
use melissa_ensemble::LauncherReport;
use melissa_transport::TransportStats;
use serde::{Deserialize, Serialize};
use training_buffer::{BufferKind, BufferStats};

/// What rank 0's sidecar thread did during an online run: the validation,
/// checkpoint persistence and journal work taken off the learning thread, and
/// what handing it over cost the learner. When a slow disk turns the sidecar
/// back into a stall, `learner_blocked_seconds` is where it shows.
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize, Deserialize)]
pub struct SidecarReport {
    /// Periodic validation passes run.
    pub validations: usize,
    /// Checkpoints written to the durability directory.
    pub checkpoints_persisted: usize,
    /// Journal flushes: jobs that appended at least one completion record.
    pub journal_flushes: usize,
    /// Seconds the sidecar spent working (not waiting for a job).
    pub busy_seconds: f64,
    /// Seconds rank 0's learning thread waited because the sidecar's queue
    /// was full — the in-program counterpart of a batch-gap tail.
    pub learner_blocked_seconds: f64,
}

/// A complete record of one experiment (online or offline).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ExperimentReport {
    /// Human-readable label ("Reservoir", "Offline", …).
    pub label: String,
    /// Buffer policy used (None for offline training).
    pub buffer: Option<BufferKind>,
    /// Number of data-parallel ranks ("GPUs").
    pub num_ranks: usize,
    /// Batch size per rank.
    pub batch_size: usize,
    /// Number of simulations the campaign ran.
    pub simulations: usize,
    /// Number of unique samples produced by the campaign.
    pub unique_samples_produced: usize,
    /// Number of unique samples actually used in at least one training batch.
    pub unique_samples_trained: usize,
    /// Number of training samples consumed, counting repetitions.
    pub samples_trained: usize,
    /// Number of batches that contained data, summed over ranks.
    pub batches: usize,
    /// Dataset volume produced, in bytes.
    pub dataset_bytes: u64,
    /// Wall-clock seconds of the standalone generation phase (offline only).
    pub generation_seconds: Option<f64>,
    /// Wall-clock seconds of training (online: generation and training overlap,
    /// so this equals the total).
    pub training_seconds: f64,
    /// Total wall-clock seconds of the experiment.
    pub total_seconds: f64,
    /// Lowest validation MSE observed (normalised units).
    pub min_validation_mse: Option<f32>,
    /// Validation MSE at the end of training (normalised units).
    pub final_validation_mse: Option<f32>,
    /// Aggregate throughput in samples per second (summed over ranks).
    pub mean_throughput: f64,
    /// Aggregate throughput with emulated-device stall time subtracted —
    /// the rate the training kernels sustained (summed over ranks).
    pub mean_compute_throughput: f64,
    /// Detailed time series (losses, throughput, occupancy, occurrences).
    pub metrics: ExperimentMetrics,
    /// Per-rank buffer counters (empty for offline).
    pub buffer_stats: Vec<BufferStats>,
    /// Transport counters (None for offline).
    pub transport: Option<TransportStats>,
    /// Launcher report of the data-generation campaign, when one ran.
    pub launcher: Option<LauncherReport>,
    /// True when the run ended in a (scripted) server crash instead of
    /// draining normally; resume from [`ExperimentReport::checkpoints_taken`]
    /// via `OnlineExperiment::resume`.
    #[serde(default)]
    pub crashed: bool,
    /// Number of server checkpoints captured during the run.
    #[serde(default)]
    pub checkpoints_taken: usize,
    /// Clients abandoned after exhausting their retry budget (or failing
    /// fatally); the run completed without their data.
    #[serde(default)]
    pub abandoned_clients: Vec<u64>,
    /// Clients that failed at least once but eventually completed.
    #[serde(default)]
    pub recovered_clients: Vec<u64>,
    /// The batch counter of the checkpoint this run resumed from, when it was
    /// restarted after a crash.
    #[serde(default)]
    pub resumed_from_batches: Option<usize>,
    /// Number of checkpoints durably written to disk (0 when the run had no
    /// durability directory configured).
    #[serde(default)]
    pub durable_checkpoints: usize,
    /// First durability error encountered; when set, the run completed but
    /// its on-disk recovery state stopped updating at that point.
    #[serde(default)]
    pub durable_error: Option<String>,
    /// The kernel ISA the compute core resolved to ("scalar", "avx2+fma",
    /// "neon"); empty in reports written before the SIMD dispatch existed.
    #[serde(default)]
    pub kernel_isa: String,
    /// The floating-point mode the kernels ran in (`simd::fp_mode`): "ftz+daz",
    /// "fz" or "ieee"; empty in reports written before it was recorded.
    #[serde(default)]
    pub fp_mode: String,
    /// What rank 0's sidecar did (all zero offline and in reports written
    /// before it existed).
    #[serde(default)]
    pub sidecar: SidecarReport,
}

impl ExperimentReport {
    /// Dataset size in gigabytes (10⁹ bytes), as the paper reports it.
    pub fn dataset_gigabytes(&self) -> f64 {
        self.dataset_bytes as f64 / 1e9
    }

    /// Fraction of consumed samples that were repetitions.
    pub fn repetition_fraction(&self) -> f64 {
        if self.samples_trained == 0 {
            0.0
        } else {
            1.0 - self.unique_samples_trained as f64 / self.samples_trained as f64
        }
    }

    /// One row of Table 1: buffer, ranks, generation hours, total hours,
    /// min MSE and mean throughput.
    pub fn table1_row(&self) -> String {
        format!(
            "{:<10} {:>2}  {:>10}  {:>9.4}  {:>12}  {:>14.1}",
            self.label,
            self.num_ranks,
            self.generation_seconds
                .map(|s| format!("{:.3}", s / 3600.0))
                .unwrap_or_else(|| "—".to_string()),
            self.total_seconds / 3600.0,
            self.min_validation_mse
                .map(|m| format!("{m:.5}"))
                .unwrap_or_else(|| "—".to_string()),
            self.mean_throughput,
        )
    }

    /// One row of Table 2: resources, generation, total, dataset size, unique
    /// samples, MSE, throughput.
    pub fn table2_row(&self, resources: &str) -> String {
        format!(
            "{:<10} {:<22} {:>10} {:>9.4} {:>10.3} {:>12} {:>10} {:>12.1}",
            self.label,
            resources,
            self.generation_seconds
                .map(|s| format!("{:.3}", s / 3600.0))
                .unwrap_or_else(|| "—".to_string()),
            self.total_seconds / 3600.0,
            self.dataset_gigabytes(),
            self.unique_samples_produced,
            self.min_validation_mse
                .map(|m| format!("{m:.5}"))
                .unwrap_or_else(|| "—".to_string()),
            self.mean_throughput,
        )
    }

    /// A short one-line summary used by the examples.
    pub fn summary(&self) -> String {
        format!(
            "{}: {} ranks, {} sims, {} unique samples, {} batches, {:.1} samples/s ({:.1} compute), min val MSE {}",
            self.label,
            self.num_ranks,
            self.simulations,
            self.unique_samples_produced,
            self.batches,
            self.mean_throughput,
            self.mean_compute_throughput,
            self.min_validation_mse
                .map(|m| format!("{m:.5}"))
                .unwrap_or_else(|| "n/a".to_string()),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn report() -> ExperimentReport {
        ExperimentReport {
            label: "Reservoir".to_string(),
            buffer: Some(BufferKind::Reservoir),
            num_ranks: 2,
            batch_size: 10,
            simulations: 25,
            unique_samples_produced: 2_500,
            unique_samples_trained: 2_500,
            samples_trained: 5_000,
            batches: 500,
            dataset_bytes: 2_000_000_000,
            generation_seconds: None,
            training_seconds: 120.0,
            total_seconds: 120.0,
            min_validation_mse: Some(0.012),
            final_validation_mse: Some(0.013),
            mean_throughput: 41.7,
            mean_compute_throughput: 55.2,
            metrics: ExperimentMetrics::default(),
            buffer_stats: Vec::new(),
            transport: None,
            launcher: None,
            crashed: false,
            checkpoints_taken: 0,
            abandoned_clients: Vec::new(),
            recovered_clients: Vec::new(),
            resumed_from_batches: None,
            durable_checkpoints: 0,
            durable_error: None,
            kernel_isa: "scalar".to_string(),
            fp_mode: "ieee".to_string(),
            sidecar: SidecarReport::default(),
        }
    }

    #[test]
    fn gigabytes_and_repetitions() {
        let r = report();
        assert!((r.dataset_gigabytes() - 2.0).abs() < 1e-9);
        assert!((r.repetition_fraction() - 0.5).abs() < 1e-9);
    }

    #[test]
    fn rows_contain_the_label_and_values() {
        let r = report();
        let row1 = r.table1_row();
        assert!(row1.contains("Reservoir"));
        assert!(row1.contains("0.01200"));
        let row2 = r.table2_row("5,120C / 40C, 4G");
        assert!(row2.contains("5,120C"));
        assert!(row2.contains("2500"));
        assert!(!r.summary().is_empty());
    }

    #[test]
    fn sidecar_block_roundtrips_and_defaults_in_older_reports() {
        let mut r = report();
        r.sidecar = SidecarReport {
            validations: 13,
            checkpoints_persisted: 12,
            journal_flushes: 250,
            busy_seconds: 0.75,
            learner_blocked_seconds: 0.01,
        };
        let json = serde_json::to_string(&r).unwrap();
        let back: ExperimentReport = serde_json::from_str(&json).unwrap();
        assert_eq!(back.sidecar, r.sidecar);
        // A report written before the sidecar existed carries no such key.
        let start = json.find(",\"sidecar\"").expect("the block is serialised");
        let older = format!("{}}}", &json[..start]);
        let back: ExperimentReport = serde_json::from_str(&older).unwrap();
        assert_eq!(back.sidecar, SidecarReport::default());
    }

    #[test]
    fn zero_samples_has_zero_repetition_fraction() {
        let mut r = report();
        r.samples_trained = 0;
        assert_eq!(r.repetition_fraction(), 0.0);
    }
}
