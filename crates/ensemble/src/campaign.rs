//! Description of one ensemble campaign.
//!
//! The paper submits its clients in *series*: first 100 simulations, then
//! another 100, then the remaining 50, each series running concurrently within
//! the resource allocation (§4.3). A [`CampaignPlan`] captures that structure
//! plus the experimental-design choice.

use crate::sampler::SamplerKind;
use serde::Serialize;
use std::time::Duration;

/// One series of clients submitted together.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
pub struct ClientSeries {
    /// Number of simulations in this series.
    pub num_clients: usize,
    /// Maximum number of simulations of this series running at the same time.
    pub max_concurrent: usize,
}

/// The plan of a full ensemble campaign.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct CampaignPlan {
    /// The successive client series.
    pub series: Vec<ClientSeries>,
    /// Which experimental design draws the parameters.
    pub sampler: SamplerKind,
    /// Seed of the experimental design (and of retries bookkeeping).
    pub seed: u64,
    /// Delay between the end of one series and the submission of the next,
    /// emulating batch-scheduler turnaround (this produces the throughput dips
    /// of Figure 2).
    pub inter_series_delay: Duration,
}

impl CampaignPlan {
    /// A plan with the given series sizes, all sharing one concurrency bound.
    pub fn series_of(sizes: &[usize], max_concurrent: usize) -> Self {
        Self {
            series: sizes
                .iter()
                .map(|&num_clients| ClientSeries {
                    num_clients,
                    max_concurrent,
                })
                .collect(),
            sampler: SamplerKind::MonteCarlo,
            seed: 0,
            inter_series_delay: Duration::ZERO,
        }
    }

    /// A single series of `num_clients` clients.
    pub fn single_series(num_clients: usize, max_concurrent: usize) -> Self {
        Self::series_of(&[num_clients], max_concurrent)
    }

    /// The paper's Figure 2 submission pattern scaled by `scale`:
    /// three series of 100/100/50 simulations with 100 concurrent clients.
    pub fn paper_figure2(scale: f64) -> Self {
        let s = |n: usize| ((n as f64 * scale).round() as usize).max(1);
        Self {
            series: vec![
                ClientSeries {
                    num_clients: s(100),
                    max_concurrent: s(100),
                },
                ClientSeries {
                    num_clients: s(100),
                    max_concurrent: s(100),
                },
                ClientSeries {
                    num_clients: s(50),
                    max_concurrent: s(50),
                },
            ],
            sampler: SamplerKind::MonteCarlo,
            seed: 42,
            inter_series_delay: Duration::from_millis(200),
        }
    }

    /// Sets the experimental design.
    pub fn with_sampler(mut self, sampler: SamplerKind) -> Self {
        self.sampler = sampler;
        self
    }

    /// Sets the seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Sets the inter-series delay.
    pub fn with_inter_series_delay(mut self, delay: Duration) -> Self {
        self.inter_series_delay = delay;
        self
    }

    /// Total number of simulations in the campaign.
    pub fn total_clients(&self) -> usize {
        self.series.iter().map(|s| s.num_clients).sum()
    }

    /// Largest concurrency bound over all series.
    pub fn peak_concurrency(&self) -> usize {
        self.series
            .iter()
            .map(|s| s.max_concurrent)
            .max()
            .unwrap_or(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn series_of_builds_the_requested_sizes() {
        let plan = CampaignPlan::series_of(&[10, 20, 5], 8);
        assert_eq!(plan.total_clients(), 35);
        assert_eq!(plan.series.len(), 3);
        assert_eq!(plan.peak_concurrency(), 8);
    }

    #[test]
    fn paper_figure2_pattern() {
        let plan = CampaignPlan::paper_figure2(1.0);
        let sizes: Vec<usize> = plan.series.iter().map(|s| s.num_clients).collect();
        assert_eq!(sizes, vec![100, 100, 50]);
        assert_eq!(plan.total_clients(), 250);
    }

    #[test]
    fn paper_figure2_scales_down() {
        let plan = CampaignPlan::paper_figure2(0.1);
        let sizes: Vec<usize> = plan.series.iter().map(|s| s.num_clients).collect();
        assert_eq!(sizes, vec![10, 10, 5]);
    }

    #[test]
    fn builder_methods_chain() {
        let plan = CampaignPlan::single_series(4, 2)
            .with_sampler(SamplerKind::Halton)
            .with_seed(9)
            .with_inter_series_delay(Duration::from_millis(5));
        assert_eq!(plan.sampler, SamplerKind::Halton);
        assert_eq!(plan.seed, 9);
        assert_eq!(plan.inter_series_delay, Duration::from_millis(5));
    }
}
