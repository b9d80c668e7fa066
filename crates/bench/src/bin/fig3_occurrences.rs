//! Figure 3 — histogram of how many times each simulation time step appears in
//! Reservoir training batches, for 1, 2 and 4 GPUs.
//!
//! ```bash
//! cargo run -p melissa-bench --release --bin fig3_occurrences -- --scale 0.06
//! ```

use melissa_bench::{arg_f64, figure_config, header, print_series, print_summary, run_online};
use training_buffer::BufferKind;

/// The paper's "rarely more than ~8" repetitions of one sample.
const PAPER_MAX_REPETITIONS: usize = 8;

fn main() {
    let scale = arg_f64("--scale", 0.06);
    header(&format!(
        "Figure 3: sample occurrence counts in Reservoir batches (scale {scale})"
    ));

    let mut repetitions = Vec::new();
    for num_ranks in [1usize, 2, 4] {
        let config = figure_config(scale, BufferKind::Reservoir, num_ranks);
        let (_, report) = run_online(config);
        header(&format!("{num_ranks} rank(s)"));
        print_summary(&report);
        let histogram = &report.metrics.occurrences;
        let rows: Vec<Vec<String>> = histogram
            .counts
            .iter()
            .enumerate()
            .skip(1)
            .filter(|(_, &count)| count > 0)
            .map(|(occurrences, &count)| vec![occurrences.to_string(), count.to_string()])
            .collect();
        print_series(
            &format!("occurrences ({num_ranks} ranks)"),
            &["times_in_batches", "num_unique_samples"],
            &rows,
        );
        println!(
            "unique samples {}  mean repetitions {:.2}  max repetitions {}",
            histogram.unique_samples(),
            histogram.mean_repetitions(),
            histogram.max_repetitions()
        );
        repetitions.push((
            num_ranks,
            histogram.mean_repetitions(),
            histogram.max_repetitions(),
        ));
    }

    println!();
    println!(
        "Paper's expected shape: most samples are seen a couple of times, rarely more than \
         ~{PAPER_MAX_REPETITIONS};\n\
         increasing the number of GPUs at fixed data production increases repetition."
    );
    for (num_ranks, mean, max) in repetitions {
        let regime = if max <= PAPER_MAX_REPETITIONS {
            "in the paper's regime"
        } else {
            "outside the paper's regime: the learner outruns the producers"
        };
        println!("This run, {num_ranks} rank(s): mean repetitions {mean:.2}, max {max}: {regime}.");
    }
}
