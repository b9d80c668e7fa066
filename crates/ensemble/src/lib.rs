//! # melissa-ensemble
//!
//! Ensemble-run management for the Melissa reproduction: everything the paper's
//! *launcher* does around the training server (§3.1), plus the experimental
//! design that decides which parameters each ensemble member simulates.
//!
//! * [`sampler`] — experimental-design samplers drawing the input parameters
//!   `X` of each client: Monte Carlo, Latin hypercube and the Halton sequence,
//!   the three methods the paper's data-aggregator thread supports.
//! * [`launcher`] — orchestrates the workflow and is its own batch scheduler:
//!   runs client jobs in series on a per-series worker pool (elastic
//!   per-series concurrency), monitors them, and kills and resubmits failed
//!   clients (fault tolerance).
//! * [`campaign`] — the description of one ensemble campaign: how many
//!   simulations, in which series, with which sampler and which solver
//!   configuration.

pub mod campaign;
pub mod launcher;
pub mod sampler;

pub use campaign::{CampaignPlan, ClientSeries};
pub use launcher::{
    CampaignEvents, ClientContext, ClientError, ClientErrorKind, ClientJob, Launcher,
    LauncherConfig, LauncherReport, RetryPolicy, WatchdogConfig,
};
pub use sampler::{
    ExperimentalDesign, HaltonSampler, LatinHypercubeSampler, MonteCarloSampler, ParameterSampler,
    SamplerKind,
};

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn crate_level_campaign_runs() {
        let plan = CampaignPlan::series_of(&[4, 2], 2);
        let launcher = Launcher::new(LauncherConfig {
            retry: RetryPolicy {
                max_retries: 1,
                ..RetryPolicy::default()
            },
            ..LauncherConfig::default()
        });
        let executed = AtomicUsize::new(0);
        let space = melissa_workload::ParameterSpace::default();
        let report = launcher.run_campaign_in(&plan, &space, |job| {
            // ordering: Relaxed — job tally; run_campaign_in joins its workers before returning, which publishes the final value
            executed.fetch_add(1, Ordering::Relaxed);
            assert!(space.contains(&job.parameters));
            Ok(())
        });
        // ordering: Relaxed — read after run_campaign_in returned, i.e. after the join
        assert_eq!(executed.load(Ordering::Relaxed), 6);
        assert_eq!(report.completed, 6);
        assert_eq!(report.failed, 0);
    }
}
