//! Shared helpers of the figure/table regeneration harness.
//!
//! Every binary in `src/bin/` regenerates one table or figure of the paper,
//! named after it (`fig2_*` … `fig6_*`, `table1_*`, `table2_*`, `ablation_*`).
//! The binaries print plain-text tables with
//! the same rows/series the paper reports; absolute numbers differ (the
//! substrate is a scaled-down simulator), the *shapes* are the reproduction
//! target. The common knobs are:
//!
//! * `--scale <f>`  — scales the ensemble size relative to the paper (default
//!   differs per experiment; the paper scale is 1.0);
//! * `--ranks <n>`  — number of data-parallel ranks for single-run harnesses.

use melissa::{
    DiskConfig, ExperimentConfig, ExperimentConfigBuilder, ExperimentReport, OfflineExperiment,
    OnlineExperiment,
};
use surrogate_nn::Mlp;
use training_buffer::BufferKind;

/// Parses `--key value` style options from the command line.
pub fn arg_value(key: &str) -> Option<String> {
    let args: Vec<String> = std::env::args().collect();
    args.iter()
        .position(|a| a == key)
        .and_then(|i| args.get(i + 1).cloned())
}

/// Parses a numeric command-line option with a default.
pub fn arg_f64(key: &str, default: f64) -> f64 {
    arg_value(key)
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

/// Parses an integer command-line option with a default.
pub fn arg_usize(key: &str, default: usize) -> usize {
    arg_value(key)
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

/// The standard experiment configuration used by the figure harnesses: the
/// paper's §4.3 campaign (three series of clients) scaled down by `scale`,
/// with the requested buffer policy and rank count.
pub fn figure_config(scale: f64, kind: BufferKind, num_ranks: usize) -> ExperimentConfig {
    ExperimentConfigBuilder::from_config(ExperimentConfig::paper_scaled(scale, kind, num_ranks))
        // The figure harnesses run the full data plane: overlap batch
        // assembly with the train step (results are bit-identical either way).
        .prefetch(true)
        .build()
        .expect("the paper-scaled configuration is always consistent")
}

/// Builds and runs one online experiment, panicking on an invalid
/// configuration — the shared construction path of every figure binary.
pub fn run_online(config: ExperimentConfig) -> (Mlp, ExperimentReport) {
    OnlineExperiment::new(config)
        .expect("valid configuration")
        .run()
}

/// Builds and runs one offline experiment, panicking on an invalid
/// configuration.
pub fn run_offline(
    config: ExperimentConfig,
    disk: DiskConfig,
    epochs: usize,
) -> (Mlp, ExperimentReport) {
    OfflineExperiment::new(config, disk, epochs)
        .expect("valid configuration")
        .run()
}

/// Prints a section header.
pub fn header(title: &str) {
    println!();
    println!("=== {title} ===");
}

/// Prints the standard run summary line of a report.
pub fn print_summary(report: &ExperimentReport) {
    println!("  {}", report.summary());
}

/// Formats a time series as aligned columns.
pub fn print_series(name: &str, columns: &[&str], rows: &[Vec<String>]) {
    println!("--- {name} ---");
    println!("{}", columns.join("\t"));
    for row in rows {
        println!("{}", row.join("\t"));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn figure_config_is_valid_for_all_buffers() {
        for kind in BufferKind::ALL {
            let config = figure_config(0.05, kind, 2);
            assert!(config.validate().is_ok());
            assert_eq!(config.buffer.kind, kind);
            assert_eq!(config.training.num_ranks, 2);
        }
    }

    #[test]
    fn run_online_drives_a_tiny_experiment() {
        let mut config = figure_config(0.02, BufferKind::Reservoir, 1);
        config.training.validation_simulations = 2;
        let (model, report) = run_online(config);
        assert!(model.params_flat().iter().all(|p| p.is_finite()));
        assert!(report.batches > 0);
    }

    #[test]
    fn arg_parsers_fall_back_to_defaults() {
        assert_eq!(arg_f64("--definitely-not-passed", 1.5), 1.5);
        assert_eq!(arg_usize("--definitely-not-passed", 7), 7);
        assert!(arg_value("--definitely-not-passed").is_none());
    }
}
