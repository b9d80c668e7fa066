//! Integration tests that assemble the substrates by hand (workload →
//! transport → buffer → network), checking the contracts between crates
//! without going through the high-level `OnlineExperiment` driver. The data
//! source is driven exclusively through the physics-agnostic `Workload` trait.

use heat_solver::{SolverConfig, SyntheticWorkload};
use melissa::{
    payload_to_sample, step_to_payload, ExperimentConfig, OnlineExperiment, WorkloadSpec,
};
use melissa_ensemble::CampaignPlan;
use melissa_transport::{Fabric, FabricConfig, Message, MessageLog};
use melissa_workload::{ParamPoint, Workload};
use std::sync::Arc;
use surrogate_nn::{
    Adam, AdamConfig, Batch, InputNormalizer, Loss, Mlp, MlpConfig, MseLoss, Optimizer,
    OutputNormalizer,
};
use training_buffer::{ReservoirBuffer, TrainingBuffer};

fn solver_config() -> SolverConfig {
    SolverConfig {
        nx: 8,
        ny: 8,
        steps: 12,
        ..SolverConfig::default()
    }
}

#[test]
fn workload_to_transport_to_buffer_to_network_pipeline() {
    let config = solver_config();
    let workload = SyntheticWorkload::solver(config);
    let input_norm = InputNormalizer::for_trajectory(config.steps, config.dt);
    let output_norm = OutputNormalizer::default();

    // Two clients stream their trajectories to a 2-rank fabric.
    let fabric = Fabric::new(FabricConfig {
        num_server_ranks: 2,
        channel_capacity: 512,
        ..FabricConfig::default()
    });
    let endpoints = fabric.server_endpoints();
    for client_id in 0..2u64 {
        let params: ParamPoint = [300.0 + client_id as f64 * 50.0, 150.0, 250.0, 350.0, 450.0];
        let connection = fabric.connect_client(client_id);
        Workload::generate(&workload, params, &mut |step| {
            connection.send(step_to_payload(&step, client_id)).unwrap();
        })
        .unwrap();
        connection.finalize().unwrap();
    }

    // Each rank aggregates its share into a Reservoir and trains a tiny MLP.
    let mut total_accepted = 0;
    for endpoint in &endpoints {
        let buffer = ReservoirBuffer::new(64, 2, 1);
        let mut log = MessageLog::new();
        while let Some(message) = endpoint.try_recv() {
            match message {
                Message::TimeStep {
                    client_id,
                    sequence,
                    payload,
                } => {
                    assert!(log.observe(client_id, sequence));
                    buffer.put(payload_to_sample(&payload, &input_norm, &output_norm));
                    total_accepted += 1;
                }
                Message::Finalize { client_id, .. } => log.mark_finalized(client_id),
            }
        }
        assert_eq!(log.finalized_clients(), 2);
        buffer.mark_reception_over();

        let mut model = Mlp::new(MlpConfig::small(6, 16, 64, 3));
        let mut optimizer = Adam::new(AdamConfig::default(), model.param_count());
        let mut ws = model.workspace(4);
        let mut samples = Vec::new();
        while let Some(s) = buffer.get() {
            samples.push(s);
            if samples.len() == 4 {
                let batch = Batch::from_owned(&samples);
                model.forward_ws(&batch.inputs, &mut ws);
                let (prediction, grad) = ws.output_and_grad_mut();
                let loss = MseLoss.evaluate_into(prediction, &batch.targets, grad);
                assert!(loss.is_finite());
                model.backward_ws(&mut ws);
                optimizer.step_in_place(&mut model, 1e-3);
                samples.clear();
            }
        }
        assert!(optimizer.steps_taken() > 0);
    }
    // Round-robin: both ranks together received every step exactly once.
    assert_eq!(total_accepted, 2 * solver_config().steps);
}

#[test]
fn restarted_client_is_deduplicated_across_the_full_stack() {
    let config = solver_config();
    let workload = SyntheticWorkload::solver(config);
    let params: ParamPoint = [400.0, 100.0, 200.0, 300.0, 500.0];
    let fabric = Fabric::new(FabricConfig::default());
    let endpoint = fabric.server_endpoints().remove(0);

    // Determinism across attempts: a restarted client replays an identical
    // stream, which is exactly what the message log relies on.
    let trajectory = Workload::trajectory(&workload, params).unwrap();
    assert_eq!(trajectory, Workload::trajectory(&workload, params).unwrap());

    // First attempt: the client "crashes" after 5 steps.
    let connection = fabric.connect_client(9);
    for step in trajectory.iter().take(5) {
        connection.send(step_to_payload(step, 9)).unwrap();
    }
    drop(connection);

    // Restart: the client replays the whole trajectory from the beginning.
    let connection = fabric.connect_client(9);
    for step in &trajectory {
        connection.send(step_to_payload(step, 9)).unwrap();
    }
    connection.finalize().unwrap();

    let mut log = MessageLog::new();
    let mut accepted = 0;
    let mut discarded = 0;
    while let Some(message) = endpoint.try_recv() {
        if let Message::TimeStep {
            client_id,
            sequence,
            ..
        } = message
        {
            if log.observe(client_id, sequence) {
                accepted += 1;
            } else {
                discarded += 1;
            }
        }
    }
    assert_eq!(
        accepted, config.steps,
        "each unique step accepted exactly once"
    );
    assert_eq!(discarded, 5, "the replayed prefix is discarded");
}

#[test]
fn buffer_is_shareable_between_producer_and_consumer_threads() {
    // The aggregator/trainer threading contract: one producer thread, one
    // consumer thread, one shared buffer, clean termination.
    let config = solver_config();
    let params: ParamPoint = [250.0, 150.0, 350.0, 450.0, 200.0];
    let input_norm = InputNormalizer::for_trajectory(config.steps, config.dt);
    let output_norm = OutputNormalizer::default();
    let buffer: Arc<ReservoirBuffer<surrogate_nn::Sample>> =
        Arc::new(ReservoirBuffer::new(32, 4, 2));

    let producer = {
        let buffer = Arc::clone(&buffer);
        std::thread::spawn(move || {
            let workload = SyntheticWorkload::solver(config);
            Workload::generate(&workload, params, &mut |step| {
                let payload = step_to_payload(&step, 0);
                buffer.put(payload_to_sample(&payload, &input_norm, &output_norm));
            })
            .unwrap();
            buffer.mark_reception_over();
        })
    };
    let consumer = {
        let buffer = Arc::clone(&buffer);
        std::thread::spawn(move || {
            let mut count = 0;
            while buffer.get().is_some() {
                count += 1;
            }
            count
        })
    };
    producer.join().unwrap();
    let consumed = consumer.join().unwrap();
    assert!(
        consumed >= config.steps,
        "at least every unique step is served"
    );
    assert_eq!(buffer.len(), 0);
}

#[test]
fn report_records_the_numeric_identity_of_the_run() {
    // A report must say which kernels computed it and under which
    // floating-point mode — without either, two reports cannot be compared.
    let config = ExperimentConfig::builder()
        .workload(WorkloadSpec::heat_analytic(solver_config()))
        .campaign(CampaignPlan::single_series(2, 2))
        .build()
        .expect("config must validate");
    let (_, report) = OnlineExperiment::new(config)
        .expect("config must validate")
        .run();
    assert_eq!(report.kernel_isa, surrogate_nn::simd::detect().name());
    assert_eq!(report.fp_mode, surrogate_nn::simd::fp_mode());
    let expected = if cfg!(target_arch = "x86_64") {
        "ftz+daz"
    } else if cfg!(target_arch = "aarch64") {
        "fz"
    } else {
        "ieee"
    };
    assert_eq!(report.fp_mode, expected);
}

#[test]
fn report_accounts_for_the_work_rank_zero_handed_to_its_sidecar() {
    let config = ExperimentConfig::builder()
        .workload(WorkloadSpec::heat_analytic(solver_config()))
        .campaign(CampaignPlan::single_series(4, 2))
        .batch_size(4)
        .validation(2, 3)
        .build()
        .expect("config must validate");
    let (_, report) = OnlineExperiment::new(config)
        .expect("config must validate")
        .run();
    // Every periodic validation point came from the sidecar; the one point
    // more is the final validation the learner runs itself.
    let validated = report
        .metrics
        .losses
        .iter()
        .filter(|point| point.validation_loss.is_some())
        .count();
    assert!(report.sidecar.validations >= 1);
    assert_eq!(report.sidecar.validations + 1, validated);
    assert!(report.sidecar.busy_seconds > 0.0);
    assert!(report.sidecar.busy_seconds < report.total_seconds);
    assert!(report.sidecar.learner_blocked_seconds >= 0.0);
    assert!(report.sidecar.learner_blocked_seconds < report.total_seconds);
    // No durability configured: nothing was persisted or journalled.
    assert_eq!(report.sidecar.checkpoints_persisted, 0);
    assert_eq!(report.sidecar.journal_flushes, 0);
}
