//! Durable restart demonstration: the training server runs in a *separate
//! process*, is killed with SIGKILL mid-run — no destructors, no flushing —
//! and is restarted purely from its durability directory. The restarted
//! server loads the newest valid checkpoint, replays the completion journal,
//! and reruns only the simulations covered by neither.
//!
//! ```bash
//! cargo run --release --example restart_demo
//! ```
//!
//! The same binary is both roles: with no arguments it is the parent
//! (spawn → kill → resume); invoked as `restart_demo child <dir>` it is the
//! sacrificial training server.

use heat_solver::SolverConfig;
use melissa::{
    CompletionJournal, DurabilityConfig, DurableCheckpointStore, DurableIdentity, ExperimentConfig,
    OnlineExperiment, WorkloadSpec, DURABLE_FORMAT_VERSION,
};
use melissa_ensemble::CampaignPlan;
use std::collections::BTreeSet;
use std::path::Path;
use std::time::{Duration, Instant};
use surrogate_nn::Optimizer;
use training_buffer::{BufferConfig, BufferKind};

const CLIENTS: usize = 10;
const STEPS: usize = 12;

/// The experiment both processes run. `slow` splits the clients into two
/// series two minutes apart: the child checkpoints the first series'
/// completions and idles in the gap, so the parent has time to kill it
/// mid-run. The series layout and the gap are excluded from the config
/// fingerprint, so both variants name the same experiment on disk.
fn demo_config(dir: &Path, slow: bool) -> ExperimentConfig {
    let campaign = if slow {
        CampaignPlan::series_of(&[CLIENTS / 2, CLIENTS / 2], 5)
            .with_inter_series_delay(Duration::from_secs(120))
    } else {
        CampaignPlan::single_series(CLIENTS, 5)
    };
    ExperimentConfig::builder()
        .workload(WorkloadSpec::heat_analytic(SolverConfig {
            nx: 10,
            ny: 10,
            steps: STEPS,
            ..SolverConfig::default()
        }))
        .campaign(campaign)
        .buffer(BufferConfig {
            kind: BufferKind::Fifo,
            capacity: 48,
            threshold: 5,
            seed: 5,
        })
        .batch_size(5)
        .validation(2, 10)
        .seed(7)
        .durability(DurabilityConfig {
            checkpoint_every_batches: 2,
            ..DurabilityConfig::new(dir.to_string_lossy())
        })
        .build()
        .expect("valid configuration")
}

fn identity_of(config: &ExperimentConfig) -> DurableIdentity {
    DurableIdentity {
        experiment_seed: config.seed,
        config_fingerprint: config.config_fingerprint(),
    }
}

/// Child role: run the slow durable experiment and expect to be killed.
fn run_child(dir: &Path) {
    let config = demo_config(dir, true);
    let (_, report) = OnlineExperiment::new(config)
        .expect("valid configuration")
        .run();
    // Only reached if the parent never killed us.
    println!("child finished unkilled: {}", report.summary());
}

fn main() {
    let mut args = std::env::args().skip(1);
    if let Some(role) = args.next() {
        if role == "child" {
            let dir = args.next().expect("usage: restart_demo child <dir>");
            run_child(Path::new(&dir));
            return;
        }
    }

    let dir = std::env::temp_dir().join(format!("melissa-restart-demo-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create the durability directory");

    // Part 1: spawn the training server as its own process.
    println!("Part 1: training server runs in a child process, persisting into");
    println!("  {}", dir.display());
    let exe = std::env::current_exe().expect("own executable path");
    let mut child = std::process::Command::new(exe)
        .arg("child")
        .arg(&dir)
        .spawn()
        .expect("spawn the child server");

    // Part 2: wait until the durable state (newest checkpoint + journal)
    // records at least one completed simulation, then SIGKILL the server —
    // so the restart has both completed work to skip and open work to rerun.
    let config = demo_config(&dir, false);
    let identity = identity_of(&config);
    let deadline = Instant::now() + Duration::from_secs(60);
    loop {
        if child.try_wait().expect("poll the child").is_some() {
            panic!("the child finished before it could be killed");
        }
        // Scanning checkpoints is read-only and — thanks to the atomic write
        // protocol — never observes a torn file, so it is safe while the
        // child is still writing. (Opening the journal would not be: a
        // concurrent open truncates torn tails.)
        let checkpointed = DurableCheckpointStore::open(&dir, identity, 3)
            .ok()
            .and_then(|store| store.load_latest().ok())
            .and_then(|latest| latest.latest)
            .map_or(0, |(_, cp)| cp.completed_simulations.len());
        if checkpointed >= 1 {
            break;
        }
        assert!(
            Instant::now() < deadline,
            "no durable completion appeared within 60s"
        );
        std::thread::sleep(Duration::from_millis(5));
    }
    child.kill().expect("SIGKILL the server");
    let status = child.wait().expect("reap the child");
    println!("\nPart 2: server killed mid-run ({status})");

    // Part 3: inspect what survived on disk.
    let store = DurableCheckpointStore::open(&dir, identity, 3).expect("open the store");
    let latest = store.load_latest().expect("scan the directory");
    let (epoch, checkpoint) = latest
        .latest
        .expect("a checkpoint was observed before the kill");
    drop(store);
    let (_, journaled) = CompletionJournal::open(&dir, identity, 8).expect("replay the journal");
    let durable: BTreeSet<u64> = checkpoint
        .completed_simulations
        .iter()
        .copied()
        .chain(journaled.iter().copied())
        .collect();
    let missing: Vec<u64> = (0..CLIENTS as u64)
        .filter(|id| !durable.contains(id))
        .collect();
    println!(
        "  newest valid checkpoint: epoch {epoch}, batch {}, {} completed simulations",
        checkpoint.batches_trained,
        checkpoint.completed_simulations.len()
    );
    println!(
        "  journal adds {} completions; {} of {CLIENTS} simulations still missing: {missing:?}",
        journaled.len(),
        missing.len()
    );
    // The file itself: the format version sits at bytes 8..12 of the header.
    let file = std::fs::read(dir.join(format!("ckpt-{epoch:010}"))).expect("read the checkpoint");
    let version = u32::from_le_bytes([file[8], file[9], file[10], file[11]]);
    let adam_steps = checkpoint.optimizer.as_ref().map(|adam| adam.steps_taken());
    println!(
        "  checkpoint format version {version} (this build writes {DURABLE_FORMAT_VERSION}), \
         {} bytes per checkpoint, optimizer state: {}",
        file.len(),
        adam_steps.map_or("absent".to_string(), |steps| format!(
            "Adam at step {steps}"
        ))
    );

    // Part 4: restart purely from the directory.
    println!("\nPart 3: resume from the directory — only the missing simulations rerun");
    let (_, report) = OnlineExperiment::resume_from_dir(&dir, config).expect("resume from disk");
    let transport = report.transport.as_ref().expect("online stats");
    println!("  resumed: {}", report.summary());
    println!(
        "  transport saw {} messages = {} missing simulations x {STEPS} steps",
        transport.messages_sent,
        missing.len()
    );
    assert_eq!(report.durable_error, None);
    assert_eq!(transport.messages_sent, missing.len() * STEPS);
    assert_eq!(report.unique_samples_produced, missing.len() * STEPS);
    assert_eq!(
        report.simulations,
        missing.len(),
        "the summary counts the reruns"
    );
    let (_, final_checkpoint) = DurableCheckpointStore::open(&dir, identity, 3)
        .and_then(|store| store.load_latest())
        .expect("scan the directory")
        .latest
        .expect("the clean resume checkpoints");
    assert_eq!(
        final_checkpoint.completed_simulations,
        (0..CLIENTS as u64).collect::<Vec<_>>(),
        "checkpoint + journal + rerun cover the whole campaign"
    );
    // The resumed incarnation restored the optimizer rather than starting a
    // fresh one: its step count continued from the checkpoint's, so at the
    // end it equals the batches trained across both incarnations.
    let final_steps = final_checkpoint.optimizer.as_ref().map(|a| a.steps_taken());
    match (adam_steps, final_steps) {
        (Some(at_kill), Some(at_end)) => println!(
            "  optimizer state restored on resume: yes (Adam step {at_kill} at the kill, \
             {at_end} after {} batches in all)",
            final_checkpoint.batches_trained
        ),
        _ => println!("  optimizer state restored on resume: no"),
    }
    assert_eq!(final_steps, Some(final_checkpoint.batches_trained));
    println!("\nExactly-once per-simulation accounting held across the process kill.");

    let _ = std::fs::remove_dir_all(&dir);
}
