//! A full ensemble campaign in the paper's style: three series of clients
//! (the §4.3 submission pattern), each running the real implicit-Euler
//! finite-difference solver, Latin-hypercube experimental design, and a
//! comparison of the three buffer policies on the same campaign.
//!
//! ```bash
//! cargo run --release --example ensemble_campaign
//! ```

use heat_solver::SolverConfig;
use melissa::{ExperimentConfig, OnlineExperiment, WorkloadSpec};
use melissa_ensemble::{CampaignPlan, SamplerKind};
use std::time::Duration;
use training_buffer::BufferKind;

fn main() {
    // Series of 10/10/5 clients (the paper's 100/100/50 scaled down), Latin
    // hypercube design, a small inter-series delay so the production dips of
    // Figure 2 are visible.
    let campaign = CampaignPlan::series_of(&[10, 10, 5], 5)
        .with_sampler(SamplerKind::LatinHypercube)
        .with_inter_series_delay(Duration::from_millis(100));

    println!(
        "Campaign: {} simulations in {} series, Latin-hypercube design\n",
        campaign.total_clients(),
        campaign.series.len()
    );

    for kind in BufferKind::ALL {
        // Run the real solver in the clients (not the analytic shortcut).
        let config = ExperimentConfig::builder()
            .workload(WorkloadSpec::heat(SolverConfig {
                nx: 16,
                ny: 16,
                steps: 25,
                ..SolverConfig::default()
            }))
            .campaign(campaign.clone())
            .seed(7)
            .buffer_paper_proportions(kind)
            .ranks(2)
            .validation(10, 10)
            .build()
            .expect("valid configuration");

        let (_, report) = OnlineExperiment::new(config)
            .expect("valid configuration")
            .run();
        println!("{:<10} {}", kind.label(), report.summary());
        println!(
            "{:<10}   repeats {:.1}%  producer waits {}  consumer waits {}",
            "",
            100.0 * report.repetition_fraction(),
            report
                .buffer_stats
                .iter()
                .map(|s| s.producer_waits)
                .sum::<usize>(),
            report
                .buffer_stats
                .iter()
                .map(|s| s.consumer_waits)
                .sum::<usize>(),
        );
    }

    println!(
        "\nThe Reservoir should report the highest throughput and the lowest validation MSE,\n\
         matching the paper's Figure 2 and Figure 4."
    );
}
