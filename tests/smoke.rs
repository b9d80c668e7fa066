//! Fast workspace-wiring smoke test.
//!
//! Runs one tiny `OnlineExperiment` end-to-end (8×8 grid, 10 steps, 4
//! clients) so CI catches pipeline breakage in well under a second without
//! paying the cost of the full `end_to_end.rs` suite.

use heat_solver::SolverConfig;
use melissa::{ExperimentConfig, OnlineExperiment, WorkloadSpec};
use melissa_ensemble::CampaignPlan;
use surrogate_nn::Matrix;

#[test]
fn tiny_online_experiment_runs_end_to_end() {
    let config = ExperimentConfig::builder()
        .workload(WorkloadSpec::heat_analytic(SolverConfig {
            nx: 8,
            ny: 8,
            steps: 10,
            ..SolverConfig::default()
        }))
        .campaign(CampaignPlan::single_series(4, 2))
        .build()
        .expect("config must validate");

    let experiment = OnlineExperiment::new(config.clone()).expect("config must validate");
    let (model, report) = experiment.run();

    // The wiring claim: every produced sample crossed solver → transport →
    // buffer → trainer, and a usable model came out the other side.
    let expected_samples = 4 * config.workload.steps();
    assert_eq!(
        report.unique_samples_trained, expected_samples,
        "all produced samples must reach the trainer"
    );
    assert!(report.batches > 0, "the training loop must have run");
    let probe = Matrix::from_vec(1, 6, vec![0.5; 6]);
    let prediction = model.predict(&probe);
    assert_eq!(
        prediction.data().len(),
        64,
        "surrogate must map onto the 8×8 grid"
    );
    assert!(
        prediction.data().iter().all(|v| v.is_finite()),
        "predictions must be finite"
    );
    // Speed is kept by construction (8×8 grid, 10 steps, ~20 ms in debug);
    // no wall-clock assertion here — timing asserts are flaky on loaded CI.
}
