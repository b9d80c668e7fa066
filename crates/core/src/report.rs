//! The result of one experiment run, with everything the paper's tables report.

use crate::config::TrainingConfig;
use crate::metrics::{ExperimentMetrics, OccurrenceHistogram, OccurrenceTable};
use crate::trainer::RankOutcome;
use melissa_ensemble::LauncherReport;
use melissa_transport::TransportStats;
use serde::Serialize;
use surrogate_nn::Mlp;
use training_buffer::{BufferKind, BufferStats};

/// What rank 0's sidecar thread did during a run: the validation,
/// checkpoint persistence and journal work taken off the learning thread, and
/// what handing it over cost the learner. When a slow disk turns the sidecar
/// back into a stall, `learner_blocked_seconds` is where it shows.
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize)]
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
#[derive(Debug, Clone, Default, Serialize)]
pub struct ExperimentReport {
    /// Human-readable label ("Reservoir", "Offline", …).
    pub label: String,
    /// Buffer policy used (None for offline training).
    pub buffer: Option<BufferKind>,
    /// Number of data-parallel ranks ("GPUs").
    pub num_ranks: usize,
    /// Batch size per rank.
    pub batch_size: usize,
    /// Number of simulations the run submitted: for an online run, the
    /// launcher's completed plus abandoned clients, so a resumed run counts
    /// only the simulations it reran.
    pub simulations: usize,
    /// Number of unique samples produced by the campaign: for an online run,
    /// the time steps the servers accepted past the dedup filter, so a
    /// crashed or resumed run counts only what streamed in it.
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
    /// Aggregate throughput: each rank's samples trained over its wall-clock
    /// training time, summed over ranks (samples per second).
    pub mean_throughput: f64,
    /// Detailed time series (losses, throughput, occupancy, occurrences).
    pub metrics: ExperimentMetrics,
    /// Per-rank buffer counters (empty for offline).
    pub buffer_stats: Vec<BufferStats>,
    /// Transport counters (None for offline).
    pub transport: Option<TransportStats>,
    /// Launcher report of the data-generation campaign, when one ran.
    pub launcher: Option<LauncherReport>,
    /// True when the run ended in a (scripted) server crash instead of
    /// draining normally; `OnlineExperiment::resume_from_dir` restarts it
    /// from its durability directory.
    pub crashed: bool,
    /// Number of server checkpoints captured during the run: rank 0's
    /// captures at the checkpoint cadence plus the final one of a run that
    /// drained. Counted where they are captured, apart from
    /// [`ExperimentReport::durable_checkpoints`], which counts what landed on
    /// disk.
    pub checkpoints_taken: usize,
    /// Clients abandoned after exhausting their retry budget (or failing
    /// fatally); the run completed without their data.
    pub abandoned_clients: Vec<u64>,
    /// Clients that failed at least once but eventually completed.
    pub recovered_clients: Vec<u64>,
    /// The batch counter of the checkpoint this run resumed from, when it was
    /// restarted after a crash.
    pub resumed_from_batches: Option<usize>,
    /// Number of checkpoints durably written to disk (0 when the run had no
    /// durability directory configured).
    pub durable_checkpoints: usize,
    /// First durability error encountered; when set, the run completed but
    /// its on-disk recovery state stopped updating at that point.
    pub durable_error: Option<String>,
    /// The kernel ISA the compute core resolved to ("scalar" or "avx2+fma").
    pub kernel_isa: String,
    /// The floating-point mode the kernels ran in (`simd::fp_mode`): "ftz+daz",
    /// "fz" or "ieee".
    pub fp_mode: String,
    /// What rank 0's sidecar did (all zero on runs without a sidecar).
    pub sidecar: SidecarReport,
}

impl ExperimentReport {
    /// What the ranks of a run trained, merged for its report: rank 0's
    /// replica (every replica is identical) and a report holding the training
    /// fields — losses, throughput and occurrences from every rank, their
    /// sample, batch, checkpoint-capture and throughput sums, rank 0's
    /// sidecar and the resolved kernel ISA and FP mode. The caller fills in
    /// the rest. Occurrence tables are moved out of `outcomes`: counted
    /// rank-locally in the hot loop, they are summed here, after the rank
    /// threads joined, so no cross-rank lock is ever taken for them.
    pub(crate) fn from_rank_outcomes(
        outcomes: &mut [RankOutcome],
        training: &TrainingConfig,
    ) -> (Mlp, Self) {
        outcomes.sort_by_key(|outcome| outcome.rank);
        let model = outcomes
            .first()
            .map(|outcome| outcome.model.clone())
            // analysis: allow(panic, reason = "the config validator rejects zero training ranks, so one outcome always exists")
            .expect("at least one training rank");
        let occurrences = OccurrenceTable::merged(
            outcomes
                .iter_mut()
                .map(|outcome| std::mem::take(&mut outcome.occurrences)),
        );
        let mut metrics = ExperimentMetrics {
            occurrences: OccurrenceHistogram::from_occurrences(&occurrences),
            ..ExperimentMetrics::default()
        };
        for outcome in outcomes.iter() {
            metrics.losses.extend(outcome.losses.iter().copied());
            metrics
                .throughput
                .extend(outcome.throughput.iter().copied());
        }
        metrics.losses.sort_by_key(|point| point.batches);
        metrics
            .throughput
            .sort_by(|a, b| a.elapsed_seconds.total_cmp(&b.elapsed_seconds));
        let report = Self {
            num_ranks: training.num_ranks,
            batch_size: training.batch_size,
            unique_samples_trained: occurrences.counts().count(),
            samples_trained: outcomes.iter().map(|o| o.samples_consumed).sum(),
            batches: outcomes.iter().map(|o| o.batches_with_data).sum(),
            checkpoints_taken: outcomes.iter().map(|o| o.checkpoints_captured).sum(),
            min_validation_mse: metrics.min_validation_loss(),
            final_validation_mse: metrics.final_validation_loss(),
            mean_throughput: outcomes.iter().map(|o| o.mean_throughput).sum(),
            metrics,
            kernel_isa: training.kernel_isa.resolve().name().to_string(),
            fp_mode: surrogate_nn::simd::fp_mode().to_string(),
            sidecar: outcomes.first().map(|o| o.sidecar).unwrap_or_default(),
            ..Self::default()
        };
        (model, report)
    }

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
            "{}: {} ranks, {} sims, {} unique samples, {} batches, {:.1} samples/s, min val MSE {}",
            self.label,
            self.num_ranks,
            self.simulations,
            self.unique_samples_produced,
            self.batches,
            self.mean_throughput,
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
    fn zero_samples_has_zero_repetition_fraction() {
        let mut r = report();
        r.samples_trained = 0;
        assert_eq!(r.repetition_fraction(), 0.0);
    }
}
