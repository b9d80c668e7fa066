//! Chaos suite: seeded fault schedules driven end to end through the online
//! pipeline (§3.1 fault tolerance).
//!
//! Every test uses a *deterministic* fault plan — scripted client crashes and
//! hangs, a scripted server crash, scripted shard stalls — so the recovery
//! trace is reproducible: the same seed yields the same schedule, the same
//! retries, the same kills and the same accounting. The properties pinned
//! here are the robustness contract:
//!
//! * **No hang**: every run completes (each test finishing is the proof),
//!   even when clients die, hang, exhaust their retry budget, or the server
//!   itself crashes mid-run.
//! * **No double-count**: replayed traffic from restarted clients and
//!   resumed servers is discarded by the message logs; a sample is trained
//!   into the dataset exactly once.
//! * **Monotone accounting**: unique-sample and launcher counters stay
//!   consistent with the fault schedule.

use melissa::{ExperimentConfig, OnlineExperiment, WorkloadSpec};
use melissa_ensemble::{CampaignPlan, LauncherConfig, RetryPolicy, WatchdogConfig};
use melissa_transport::{FaultConfig, FaultPlan};
use std::time::Duration;
use training_buffer::{BufferConfig, BufferKind};

const CLIENTS: usize = 6;
const STEPS: usize = 10;

/// A small, fast experiment: 6 clients × 10 steps on an 8×8 grid.
fn chaos_config(kind: BufferKind, plan: FaultPlan) -> ExperimentConfig {
    ExperimentConfig::builder()
        .workload(WorkloadSpec::heat_analytic(heat_solver::SolverConfig {
            nx: 8,
            ny: 8,
            steps: STEPS,
            ..heat_solver::SolverConfig::default()
        }))
        .campaign(CampaignPlan::single_series(CLIENTS, 3))
        .buffer(BufferConfig {
            kind,
            capacity: 24,
            threshold: 4,
            seed: 7,
        })
        .batch_size(5)
        .validation(2, 4)
        .hidden_width(16)
        .seed(42)
        .fault(FaultConfig {
            plan,
            ..FaultConfig::default()
        })
        .launcher(LauncherConfig {
            retry: RetryPolicy {
                max_retries: 3,
                base_backoff: Duration::from_millis(2),
                ..RetryPolicy::default()
            },
            watchdog: Some(WatchdogConfig::with_deadline(Duration::from_millis(100))),
            ..LauncherConfig::default()
        })
        .build()
        .expect("consistent chaos configuration")
}

/// The number of scripted faults (crashes + hangs) and hangs in a plan,
/// derived by probing every (client, attempt-0) slot.
fn plan_faults(plan: &FaultPlan) -> (usize, usize, Vec<u64>) {
    let mut faulted = Vec::new();
    let mut hangs = 0;
    for client_id in 0..CLIENTS as u64 {
        if let Some(fault) = plan.client_fault(client_id, 0) {
            faulted.push(client_id);
            if matches!(fault.kind, melissa_transport::ClientFaultKind::Hang) {
                hangs += 1;
            }
        }
    }
    (faulted.len(), hangs, faulted)
}

#[test]
fn seeded_chaos_completes_across_all_buffer_policies() {
    for kind in BufferKind::ALL {
        let plan = FaultPlan::seeded_chaos(11, CLIENTS as u64, STEPS);
        let (faults, hangs, faulted) = plan_faults(&plan);
        assert!(faults >= 1, "seed 11 must script at least one fault");

        let config = chaos_config(kind, plan);
        let (model, report) = OnlineExperiment::new(config)
            .expect("valid chaos configuration")
            .run();

        // No hang: the run completed and produced a finite model.
        assert!(
            model.params_flat().iter().all(|p| p.is_finite()),
            "{kind:?}"
        );
        assert!(!report.crashed, "{kind:?}: no server fault was scripted");

        // Detection and retry: every scripted fault hits attempt 0 only, so
        // every faulted client recovers on its retry — none is abandoned.
        let launcher = report
            .launcher
            .as_ref()
            .expect("online runs log a campaign");
        assert_eq!(launcher.completed, CLIENTS, "{kind:?}");
        assert_eq!(launcher.retries, faults, "{kind:?}: one retry per fault");
        assert_eq!(
            launcher.watchdog_kills, hangs,
            "{kind:?}: one kill per hang"
        );
        assert!(report.abandoned_clients.is_empty(), "{kind:?}");
        assert_eq!(report.recovered_clients, faulted, "{kind:?}");

        // No double-count: replays of the restarted clients' earlier steps
        // are discarded by the message logs, so the unique-sample count never
        // exceeds what the campaign produces.
        let total_unique = CLIENTS * STEPS;
        assert!(
            report.unique_samples_trained <= total_unique,
            "{kind:?}: {} unique trained > {} produced",
            report.unique_samples_trained,
            total_unique
        );
        assert!(report.unique_samples_trained > 0, "{kind:?}");

        // Monotone accounting: consumed counts repetitions, so it bounds the
        // unique count from above.
        assert!(
            report.samples_trained >= report.unique_samples_trained,
            "{kind:?}"
        );

        // The transport saw the replayed traffic (restarted clients resend
        // from sequence zero), and every sent message was delivered — the
        // discarding happens in the server's message log, not in transit.
        let transport = report.transport.as_ref().expect("online runs have stats");
        assert!(transport.messages_sent >= total_unique, "{kind:?}");
        assert_eq!(
            transport.messages_delivered, transport.messages_sent,
            "{kind:?}: no drops were scripted"
        );
    }
}

#[test]
fn same_seed_yields_the_same_recovery_trace() {
    let runs: Vec<_> = (0..2)
        .map(|_| {
            let plan = FaultPlan::seeded_chaos(23, CLIENTS as u64, STEPS);
            let config = chaos_config(BufferKind::Fifo, plan);
            let (_, report) = OnlineExperiment::new(config)
                .expect("valid chaos configuration")
                .run();
            report
        })
        .collect();

    let (a, b) = (&runs[0], &runs[1]);
    let (la, lb) = (
        a.launcher.as_ref().expect("campaign"),
        b.launcher.as_ref().expect("campaign"),
    );
    assert_eq!(la.completed, lb.completed);
    assert_eq!(la.retries, lb.retries);
    assert_eq!(la.watchdog_kills, lb.watchdog_kills);
    assert_eq!(a.abandoned_clients, b.abandoned_clients);
    assert_eq!(a.recovered_clients, b.recovered_clients);
    // FIFO trains every accepted sample exactly once, so the dedup'd sample
    // set — and with it the unique count — is reproducible.
    assert_eq!(a.unique_samples_trained, b.unique_samples_trained);
}

#[test]
fn watchdog_declares_a_hung_client_dead_and_the_run_completes() {
    let plan = FaultPlan::none().with_client_hang(2, 0, 3);
    let config = chaos_config(BufferKind::Reservoir, plan);
    let (_, report) = OnlineExperiment::new(config)
        .expect("valid chaos configuration")
        .run();

    let launcher = report.launcher.as_ref().expect("campaign");
    assert_eq!(launcher.watchdog_kills, 1, "the hang must be killed");
    assert_eq!(launcher.completed, CLIENTS);
    assert_eq!(report.recovered_clients, vec![2]);
    assert!(report.abandoned_clients.is_empty());
    // The watchdog (100 ms deadline), not the hang's 5 s safety cap, must be
    // what ended the hang — otherwise the run would take at least 5 s.
    assert!(
        report.total_seconds < 4.0,
        "run took {:.1}s: the watchdog did not fire",
        report.total_seconds
    );
}

#[test]
fn retry_exhaustion_abandons_the_client_instead_of_hanging() {
    // Client 1 crashes after 2 steps on every attempt it gets (initial + 2
    // retries), so the launcher must abandon it and the reception gate must
    // stop waiting for its finalize.
    let plan = FaultPlan::none()
        .with_client_crash(1, 0, 2)
        .with_client_crash(1, 1, 2)
        .with_client_crash(1, 2, 2);
    let mut config = chaos_config(BufferKind::Fifo, plan);
    config.launcher.retry.max_retries = 2;
    let (_, report) = OnlineExperiment::new(config)
        .expect("valid chaos configuration")
        .run();

    let launcher = report.launcher.as_ref().expect("campaign");
    assert_eq!(report.abandoned_clients, vec![1]);
    assert_eq!(launcher.completed, CLIENTS - 1);
    assert_eq!(launcher.retries, 2, "both retries were spent");
    assert!(report.recovered_clients.is_empty());

    // Exactly-once accounting under abandonment: the surviving clients'
    // samples are all trained once (FIFO), plus the 2 steps client 1 managed
    // to stream on its first attempt — its retries replayed the same two
    // sequence numbers, which the message log discarded.
    let total_unique = (CLIENTS - 1) * STEPS + 2;
    assert_eq!(report.unique_samples_trained, total_unique);
}

#[test]
fn scripted_shard_stall_delays_but_loses_nothing() {
    let plan = FaultPlan::none().with_shard_stall(0, 0, 5, Duration::from_millis(50));
    let config = chaos_config(BufferKind::Fifo, plan);
    let (_, report) = OnlineExperiment::new(config)
        .expect("valid chaos configuration")
        .run();

    // The stall is a delay, not loss: every produced sample still arrives
    // and is trained exactly once.
    assert_eq!(report.unique_samples_trained, CLIENTS * STEPS);
    let launcher = report.launcher.as_ref().expect("campaign");
    assert_eq!(launcher.completed, CLIENTS);
    assert!(report.abandoned_clients.is_empty());
}

#[test]
fn server_crash_resume_reruns_only_missing_sims_with_exactly_once_accounting() {
    // One rank, FIFO, checkpoints every 2 batches, server killed after 8
    // batches with data (40 of the 60 samples consumed).
    let crash_plan = FaultPlan::none().with_server_crash(8);
    let mut config = chaos_config(BufferKind::Fifo, crash_plan);
    config.checkpoint_every_batches = 2;
    let (_, crash_report, checkpoint) = OnlineExperiment::new(config)
        .expect("valid chaos configuration")
        .run_recoverable();

    assert!(crash_report.crashed, "the scripted server crash must fire");
    assert!(crash_report.checkpoints_taken >= 1);
    let checkpoint = checkpoint.expect("checkpoints were being captured");
    assert!(
        !checkpoint.completed_simulations.is_empty(),
        "8 consumed batches must cover at least one full simulation"
    );

    // The checkpoint's completed set and the missing set partition the
    // campaign.
    let missing = checkpoint.missing_simulations(CLIENTS as u64);
    let mut union: Vec<u64> = checkpoint
        .completed_simulations
        .iter()
        .copied()
        .chain(missing.iter().copied())
        .collect();
    union.sort_unstable();
    assert_eq!(union, (0..CLIENTS as u64).collect::<Vec<_>>());

    // Restart from the checkpoint with a fault-free plan (the crash already
    // happened) and the same experiment configuration.
    let mut resumed_config = chaos_config(BufferKind::Fifo, FaultPlan::none());
    resumed_config.checkpoint_every_batches = 2;
    let (model, resume_report, final_checkpoint) = OnlineExperiment::new(resumed_config)
        .expect("valid chaos configuration")
        .resume(&checkpoint);

    assert!(!resume_report.crashed, "the resumed run completes");
    assert!(model.params_flat().iter().all(|p| p.is_finite()));
    assert_eq!(
        resume_report.resumed_from_batches,
        Some(checkpoint.batches_trained)
    );

    // Only the missing simulations were resubmitted: the transport of the
    // resumed run carries exactly their traffic, nothing from the completed
    // ones.
    let transport = resume_report.transport.as_ref().expect("online stats");
    assert_eq!(
        transport.messages_sent,
        missing.len() * STEPS,
        "only missing simulations rerun"
    );

    // Exactly-once accounting: the resumed run trains each missing
    // simulation's samples exactly once (FIFO), and nothing from the
    // checkpoint-completed simulations.
    assert_eq!(
        resume_report.unique_samples_trained,
        missing.len() * STEPS,
        "completed simulations must not be retrained"
    );

    // The final checkpoint of the resumed run carries the union forward:
    // every simulation of the campaign is now covered.
    let final_checkpoint = final_checkpoint.expect("the clean run leaves a checkpoint");
    assert_eq!(
        final_checkpoint.completed_simulations,
        (0..CLIENTS as u64).collect::<Vec<_>>(),
        "exactly-once per-simulation accounting across the crash"
    );
    assert!(final_checkpoint.batches_trained > checkpoint.batches_trained);
}

#[test]
fn reservoir_eviction_does_not_force_needless_reruns_after_a_crash() {
    // A Reservoir far smaller than the 60 produced samples: trained samples
    // are evicted throughout the run to make room. Eviction of an
    // already-trained sample must not un-complete its simulation — the
    // per-simulation accounting tracks trained steps, not buffer residency —
    // so the checkpoint taken before the crash still marks fully-trained
    // simulations complete and the resume reruns only the genuinely open
    // ones.
    //
    // How many simulations are fully trained by batch N depends on the
    // producer/consumer interleaving (the Reservoir draws from whatever has
    // arrived), so scan crash points until one leaves a checkpoint that is
    // partially complete — some simulations done, some still open.
    let mut partial = None;
    for crash_after in [10, 12, 14, 16, 18] {
        let crash_plan = FaultPlan::none().with_server_crash(crash_after);
        let mut config = chaos_config(BufferKind::Reservoir, crash_plan);
        config.buffer.capacity = 12;
        config.checkpoint_every_batches = 2;
        let (_, crash_report, checkpoint) = OnlineExperiment::new(config)
            .expect("valid chaos configuration")
            .run_recoverable();
        if !crash_report.crashed {
            break; // later crash points only fire even later
        }
        let Some(checkpoint) = checkpoint else {
            continue;
        };
        let completed = checkpoint.completed_simulations.len();
        if (1..CLIENTS).contains(&completed) {
            partial = Some(checkpoint);
            break;
        }
    }
    let checkpoint = partial.expect(
        "some crash point must catch the run with trained-and-evicted \
         simulations complete and others still open",
    );
    let missing = checkpoint.missing_simulations(CLIENTS as u64);

    let mut resumed_config = chaos_config(BufferKind::Reservoir, FaultPlan::none());
    resumed_config.buffer.capacity = 12;
    resumed_config.checkpoint_every_batches = 2;
    let (model, resume_report, final_checkpoint) = OnlineExperiment::new(resumed_config)
        .expect("valid chaos configuration")
        .resume(&checkpoint);

    assert!(!resume_report.crashed, "the resumed run completes");
    assert!(model.params_flat().iter().all(|p| p.is_finite()));
    // No needless re-simulation: the transport of the resumed run carries
    // exactly the missing simulations' traffic, nothing from the completed
    // (and partially evicted) ones.
    let transport = resume_report.transport.as_ref().expect("online stats");
    assert_eq!(
        transport.messages_sent,
        missing.len() * STEPS,
        "evicted-but-trained simulations must not rerun"
    );
    let final_checkpoint = final_checkpoint.expect("the clean run leaves a checkpoint");
    assert_eq!(
        final_checkpoint.completed_simulations,
        (0..CLIENTS as u64).collect::<Vec<_>>(),
        "exactly-once per-simulation accounting despite eviction"
    );
}

#[test]
fn server_crash_without_checkpointing_still_terminates_gracefully() {
    let plan = FaultPlan::none().with_server_crash(4);
    let config = chaos_config(BufferKind::Firo, plan);
    let (_, report, checkpoint) = OnlineExperiment::new(config)
        .expect("valid chaos configuration")
        .run_recoverable();

    // The crash fires, nothing was checkpointed — and the run still winds
    // down instead of deadlocking on blocked producers.
    assert!(report.crashed);
    assert_eq!(report.checkpoints_taken, 0);
    assert!(checkpoint.is_none());
}
