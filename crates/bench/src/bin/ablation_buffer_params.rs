//! Ablation — sweep of the Reservoir capacity and threshold (the paper fixes
//! 6,000 / 1,000 without a sweep, which makes it a design choice worth
//! ablating).
//!
//! ```bash
//! cargo run -p melissa-bench --release --bin ablation_buffer_params -- --scale 0.04
//! ```

use melissa_bench::{arg_f64, figure_config, header, print_series, run_online};
use training_buffer::BufferKind;

fn main() {
    let scale = arg_f64("--scale", 0.04);
    header(&format!(
        "Ablation: Reservoir capacity / threshold sweep (scale {scale}, 1 rank)"
    ));

    let base = figure_config(scale, BufferKind::Reservoir, 1);
    let total_samples = base.total_unique_samples();
    let mut rows = Vec::new();

    // Capacity as a fraction of the dataset; threshold as a fraction of capacity.
    for capacity_fraction in [0.05, 0.125, 0.25, 0.5] {
        for threshold_fraction in [0.05, 0.17, 0.5] {
            let mut config = base.clone();
            config.buffer.capacity = ((total_samples as f64 * capacity_fraction) as usize).max(4);
            config.buffer.threshold = ((config.buffer.capacity as f64 * threshold_fraction)
                as usize)
                .min(config.buffer.capacity - 1);
            let (_, report) = run_online(config.clone());
            rows.push(vec![
                config.buffer.capacity.to_string(),
                config.buffer.threshold.to_string(),
                format!("{:.1}", report.mean_throughput),
                report
                    .min_validation_mse
                    .map(|v| format!("{v:.6}"))
                    .unwrap_or_else(|| "-".into()),
                format!("{:.3}", report.repetition_fraction()),
                report.batches.to_string(),
            ]);
        }
    }

    print_series(
        "capacity/threshold sweep",
        &[
            "capacity",
            "threshold",
            "throughput",
            "min_val_mse",
            "repeat_frac",
            "batches",
        ],
        &rows,
    );
    println!(
        "\nReading: larger capacities increase batch diversity (lower MSE) at the cost of\n\
         memory; very small thresholds expose the first batches to early-trajectory bias."
    );
}
