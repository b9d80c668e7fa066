//! Fault-tolerance demonstration, end to end: clients crash and hang on a
//! scripted schedule, the watchdog declares the hung ones dead and the
//! launcher resubmits them with exponential backoff; the training server
//! checkpoints every few batches into its durability directory, gets killed
//! mid-run by a scripted fault, and resumes from that directory — rerunning
//! only the simulations its newest checkpoint and completion journal do not
//! cover.
//!
//! ```bash
//! cargo run --release --example fault_tolerance_demo
//! ```

use heat_solver::SolverConfig;
use melissa::{
    DurabilityConfig, DurableCheckpointStore, DurableIdentity, ExperimentConfig, OnlineExperiment,
    WorkloadSpec,
};
use melissa_ensemble::{CampaignPlan, LauncherConfig, RetryPolicy, WatchdogConfig};
use melissa_transport::{FaultConfig, FaultPlan};
use std::time::Duration;
use training_buffer::BufferKind;

fn base_config() -> melissa::ExperimentConfigBuilder {
    ExperimentConfig::builder()
        .workload(WorkloadSpec::heat_analytic(SolverConfig {
            nx: 10,
            ny: 10,
            steps: 20,
            ..SolverConfig::default()
        }))
        .campaign(CampaignPlan::single_series(10, 5))
        .seed(5)
        .validation(10, 20)
}

fn main() {
    // Part 1: watchdog failure detection — two clients crash outright and one
    // hangs on its first attempt. The watchdog declares the hung client dead
    // after the heartbeat deadline and kills it, and the launcher resubmits
    // all three with capped exponential backoff.
    println!("Part 1: scripted crashes and hangs, watchdog kills, retries");
    let plan = FaultPlan::none()
        .with_client_crash(1, 0, 4)
        .with_client_crash(4, 0, 9)
        .with_client_hang(7, 0, 3);
    let config = base_config()
        .buffer_paper_proportions(BufferKind::Reservoir)
        .fault(FaultConfig {
            plan,
            ..FaultConfig::default()
        })
        .launcher(LauncherConfig {
            retry: RetryPolicy {
                max_retries: 3,
                base_backoff: Duration::from_millis(5),
                ..RetryPolicy::default()
            },
            watchdog: Some(WatchdogConfig::with_deadline(Duration::from_millis(150))),
        })
        .build()
        .expect("valid configuration");

    let (_, report) = OnlineExperiment::new(config)
        .expect("valid configuration")
        .run();
    let launcher = report
        .launcher
        .as_ref()
        .expect("online runs have a launcher");
    println!("  {}", report.summary());
    println!(
        "  launcher: {} completed, {} retries, {} watchdog kills, recovered clients {:?}",
        launcher.completed, launcher.retries, launcher.watchdog_kills, report.recovered_clients
    );
    assert_eq!(launcher.completed, 10);
    assert!(launcher.retries >= 3, "three faulted clients must retry");
    assert!(launcher.watchdog_kills >= 1, "the hang must be killed");
    assert!(report.recovered_clients.contains(&7));
    assert!(report.abandoned_clients.is_empty());

    // Part 2: transport-level faults — 5% of the time-step messages are
    // dropped and 5% are duplicated. The duplicate-discard log keeps the
    // training data consistent; dropped steps are simply missing samples.
    println!("\nPart 2: online training under message drops and duplicates");
    let config = base_config()
        .buffer_paper_proportions(BufferKind::Reservoir)
        .fault(FaultConfig {
            drop_probability: 0.05,
            duplicate_probability: 0.05,
            seed: 13,
            ..FaultConfig::default()
        })
        .build()
        .expect("valid configuration");

    let (_, report) = OnlineExperiment::new(config)
        .expect("valid configuration")
        .run();
    let transport = report
        .transport
        .as_ref()
        .expect("online runs record transport stats");
    println!("  {}", report.summary());
    println!(
        "  transport: {} sent, {} delivered, {} dropped, {} duplicated",
        transport.messages_sent,
        transport.messages_delivered,
        transport.messages_dropped,
        transport.messages_duplicated
    );
    assert!(report.unique_samples_trained <= report.unique_samples_produced);
    assert!(report.min_validation_mse.is_some());

    // Part 3: checkpoint-resume — the server checkpoints every 4 batches
    // into its durability directory and is killed by a scripted fault
    // mid-run. The restarted server reads the newest checkpoint and the
    // completion journal back from that directory, restores the model and
    // progress counters, and reruns only the simulations neither covers.
    println!("\nPart 3: server crash mid-run, resume from the durability directory");
    let dir = std::env::temp_dir().join(format!("melissa-fault-demo-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create the durability directory");
    let fifo = || {
        base_config()
            .buffer(training_buffer::BufferConfig {
                kind: BufferKind::Fifo,
                capacity: 64,
                threshold: 8,
                seed: 5,
            })
            .durability(DurabilityConfig {
                checkpoint_every_batches: 4,
                ..DurabilityConfig::new(dir.to_string_lossy())
            })
    };
    let crashing = fifo()
        .fault(FaultConfig {
            plan: FaultPlan::none().with_server_crash(16),
            ..FaultConfig::default()
        })
        .build()
        .expect("valid configuration");
    let identity = DurableIdentity {
        experiment_seed: crashing.seed,
        config_fingerprint: crashing.config_fingerprint(),
    };

    let (_, crash_report) = OnlineExperiment::new(crashing)
        .expect("valid configuration")
        .run();
    assert!(crash_report.crashed, "the scripted server crash must fire");
    let (_, checkpoint) = DurableCheckpointStore::open(&dir, identity, 3)
        .and_then(|store| store.load_latest())
        .expect("scan the durability directory")
        .latest
        .expect("checkpoints were being taken");
    println!(
        "  crashed after {} checkpoints; the newest covers {} completed simulations at batch {}",
        crash_report.checkpoints_taken,
        checkpoint.completed_simulations.len(),
        checkpoint.batches_trained
    );

    let resumed = fifo().build().expect("valid configuration");
    let (_, resume_report) =
        OnlineExperiment::resume_from_dir(&dir, resumed).expect("resume from the directory");
    println!("  resumed: {}", resume_report.summary());
    println!(
        "  reran {} of {} simulations, starting from batch {}",
        resume_report.simulations,
        10,
        resume_report.resumed_from_batches.expect("resumed run"),
    );
    assert!(!resume_report.crashed, "the resumed run must complete");
    assert_eq!(
        resume_report.resumed_from_batches,
        Some(checkpoint.batches_trained)
    );
    let _ = std::fs::remove_dir_all(&dir);

    println!("\nTraining completed despite the injected faults.");
}
