//! Property-based tests of the ensemble-management substrate.

use melissa_ensemble::{
    CampaignPlan, ExperimentalDesign, HaltonSampler, LatinHypercubeSampler, Launcher,
    LauncherConfig, MonteCarloSampler, ParameterSampler, RetryPolicy, SamplerKind,
};
use melissa_workload::ParameterSpace;
use parking_lot::Mutex;
use proptest::prelude::*;
use std::collections::HashSet;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// All samplers stay inside the unit hypercube and are deterministic in the
    /// member index.
    #[test]
    fn samplers_stay_in_unit_cube_and_are_deterministic(
        seed in 0u64..10_000,
        members in 1usize..64,
    ) {
        let mut designs: Vec<Box<dyn ExperimentalDesign>> = vec![
            Box::new(MonteCarloSampler::new(seed)),
            Box::new(LatinHypercubeSampler::new(members, seed)),
            Box::new(HaltonSampler::new((seed % 32) as usize)),
        ];
        for design in &mut designs {
            for index in 0..members {
                let a = design.unit_sample(index);
                let b = design.unit_sample(index);
                prop_assert_eq!(a, b, "{:?} not deterministic", design.kind());
                prop_assert!(a.iter().all(|&v| (0.0..=1.0).contains(&v)));
            }
        }
    }

    /// Latin hypercube stratification: every dimension hits every stratum
    /// exactly once, for any design size and seed.
    #[test]
    fn latin_hypercube_stratification(n in 2usize..40, seed in 0u64..5_000) {
        let mut sampler = LatinHypercubeSampler::new(n, seed);
        for d in 0..5 {
            let mut strata = HashSet::new();
            for i in 0..n {
                let v = sampler.unit_sample(i)[d];
                let stratum = ((v * n as f64).floor() as usize).min(n - 1);
                prop_assert!(strata.insert(stratum), "dimension {d}: stratum {stratum} repeated");
            }
            prop_assert_eq!(strata.len(), n);
        }
    }

    /// The parameter sampler always produces parameters inside the sampled space.
    #[test]
    fn parameter_sampler_respects_the_space(
        seed in 0u64..5_000,
        members in 1usize..32,
        kind in prop::sample::select(vec![
            SamplerKind::MonteCarlo,
            SamplerKind::LatinHypercube,
            SamplerKind::Halton,
        ]),
    ) {
        let mut sampler = ParameterSampler::new(kind, ParameterSpace::default(), members, seed);
        for i in 0..members {
            let params = sampler.parameters(i);
            prop_assert!(sampler.space().contains(&params));
        }
    }

    /// The launcher executes every client of every series exactly once when no
    /// client fails, regardless of series shapes and concurrency bounds.
    #[test]
    fn launcher_executes_every_client_once(
        sizes in prop::collection::vec(1usize..8, 1..4),
        concurrency in 1usize..6,
        seed in 0u64..1_000,
    ) {
        let plan = CampaignPlan::series_of(&sizes, concurrency).with_seed(seed);
        let launcher = Launcher::new(LauncherConfig::default());
        let seen = Mutex::new(Vec::new());
        let report = launcher.run_campaign_in(&plan, &ParameterSpace::default(), |job| {
            seen.lock().push(job.client_id);
            Ok(())
        });
        let total: usize = sizes.iter().sum();
        prop_assert_eq!(report.completed, total);
        prop_assert_eq!(report.failed, 0);
        let mut ids = seen.into_inner();
        ids.sort_unstable();
        prop_assert_eq!(ids, (0..total as u64).collect::<Vec<_>>());
    }

    /// Clients that fail deterministically a bounded number of times still
    /// complete, and the retry count matches the injected failures.
    #[test]
    fn launcher_retries_account_for_all_failures(
        clients in 1usize..10,
        failures_per_client in 0usize..3,
    ) {
        let plan = CampaignPlan::single_series(clients, 3);
        let launcher = Launcher::new(LauncherConfig {
            retry: RetryPolicy { max_retries: 3, ..RetryPolicy::default() },
            ..LauncherConfig::default()
        });
        let attempts = Mutex::new(vec![0usize; clients]);
        let report = launcher.run_campaign_in(&plan, &ParameterSpace::default(), |job| {
            let mut attempts = attempts.lock();
            attempts[job.client_id as usize] += 1;
            if attempts[job.client_id as usize] <= failures_per_client {
                Err("injected failure".into())
            } else {
                Ok(())
            }
        });
        prop_assert_eq!(report.completed, clients);
        prop_assert_eq!(report.failed, 0);
        prop_assert_eq!(report.retries, clients * failures_per_client);
    }
}
