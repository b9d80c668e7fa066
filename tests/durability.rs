//! Durability suite: process-kill recovery and on-disk corruption handling
//! for the crash-safe checkpoint store and completion journal (§3.1).
//!
//! Two families of tests live here:
//!
//! * **SIGKILL-and-resume**: a training server runs in a *separate spawned
//!   process* (this test binary re-executed with `--exact` on a hidden child
//!   test), gets `kill -9`'d mid-run — no destructors, no flush-on-exit —
//!   and is restarted from its durability directory alone. The restart must
//!   rerun exactly the simulations covered by neither the newest valid
//!   checkpoint nor the completion journal: exactly-once per-simulation
//!   accounting across an unclean process death.
//! * **Corruption handling**: checkpoint files and journal tails are
//!   bit-flipped, truncated and version-bumped on disk. Every injection must
//!   be *detected* (typed [`DurabilityError`], never a panic and never
//!   silently-wrong state) and *survived* (fall back to the newest earlier
//!   checkpoint, drop the journal's torn tail, rerun what was lost).
//!
//! The byte offsets used by the corruption tests pin the file formats:
//! checkpoint = magic(8) version(4) reserved(4) seed(8) fingerprint(8)
//! epoch(8) payload_len(8) payload trailing-checksum(8), the same frame in
//! both checkpoint versions; a version-2 payload opens with four u64 —
//! metadata length, completed-id count, parameter count, moment count — ahead
//! of the metadata and the raw sections, a version-1 payload is one JSON
//! document; journal (version 1) = 40-byte header + 24-byte records. The
//! fixture files come from a real run, so they are version 2; version 1 is
//! read-only in the crate, and its fixture is assembled here by `v1_file`.
//! Changing a layout must bump `DURABLE_FORMAT_VERSION` and update these
//! tests.

use heat_solver::SolverConfig;
use melissa::{
    peek_identity, CompletionJournal, CorruptKind, DurabilityConfig, DurabilityError,
    DurableCheckpointStore, DurableIdentity, ExperimentConfig, OnlineExperiment, ServerCheckpoint,
    WorkloadSpec,
};
use melissa_ensemble::CampaignPlan;
use melissa_transport::{Checksum64, FaultPlan};
use proptest::prelude::*;
use std::collections::BTreeSet;
use std::fs;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};
use surrogate_nn::{Activation, Adam, AdamConfig, InitScheme, Mlp, MlpConfig, Optimizer};
use training_buffer::{BufferConfig, BufferKind};

const CLIENTS: usize = 8;
const STEPS: usize = 10;

/// Environment variable carrying the durability directory to the spawned
/// child process; when unset, the hidden child test is a no-op pass.
const CHILD_DIR_ENV: &str = "MELISSA_DURABILITY_CHILD_DIR";

/// The experiment both the child and the resuming parent run. `slow` splits
/// the clients into two series two minutes apart: the child checkpoints the
/// first series' completions, then idles in the gap with the second series
/// unsubmitted, so the parent has seconds — not milliseconds — to observe a
/// durable completion and kill the child mid-run. The series layout and the
/// gap are operational knobs, excluded from the config fingerprint, so the
/// single-series resume and the slow child agree on the experiment identity.
fn durable_config(dir: &Path, slow: bool) -> ExperimentConfig {
    let campaign = if slow {
        CampaignPlan::series_of(&[CLIENTS / 2, CLIENTS / 2], 4)
            .with_inter_series_delay(Duration::from_secs(120))
    } else {
        CampaignPlan::single_series(CLIENTS, 4)
    };
    ExperimentConfig::builder()
        .workload(WorkloadSpec::heat_analytic(SolverConfig {
            nx: 8,
            ny: 8,
            steps: STEPS,
            ..SolverConfig::default()
        }))
        .campaign(campaign)
        .buffer(BufferConfig {
            kind: BufferKind::Fifo,
            capacity: 32,
            threshold: 4,
            seed: 7,
        })
        .batch_size(4)
        .validation(2, 4)
        .hidden_width(16)
        .seed(4242)
        .durability(DurabilityConfig {
            checkpoint_every_batches: 1,
            ..DurabilityConfig::new(dir.to_string_lossy())
        })
        .build()
        .expect("consistent durable configuration")
}

fn identity_of(config: &ExperimentConfig) -> DurableIdentity {
    DurableIdentity {
        experiment_seed: config.seed,
        config_fingerprint: config.config_fingerprint(),
    }
}

/// The newest checkpoint in `dir` that validates: what a restart reads.
fn newest_checkpoint(dir: &Path, config: &ExperimentConfig) -> Option<ServerCheckpoint> {
    let store = DurableCheckpointStore::open(dir, identity_of(config), 3).unwrap();
    store
        .load_latest()
        .unwrap()
        .latest
        .map(|(_, checkpoint)| checkpoint)
}

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("melissa-durability-{tag}-{}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    fs::create_dir_all(&dir).unwrap();
    dir
}

/// Checkpoint files of a durability directory, sorted oldest first.
fn checkpoint_files(dir: &Path) -> Vec<PathBuf> {
    let mut files: Vec<PathBuf> = fs::read_dir(dir)
        .unwrap()
        .map(|entry| entry.unwrap().path())
        .filter(|p| {
            p.file_name()
                .and_then(|n| n.to_str())
                .is_some_and(|n| n.starts_with("ckpt-"))
        })
        .collect();
    files.sort();
    files
}

/// `checkpoint` as a version-1 file, the way every build before format 2
/// wrote it: the 48-byte header around the `ServerCheckpoint` JSON document
/// (which had no optimizer key), then the checksum over all prior bytes.
/// Assembled from pub API only — the crate keeps no v1 writer.
fn v1_file(checkpoint: &ServerCheckpoint, identity: DurableIdentity, epoch: u64) -> Vec<u8> {
    let json = checkpoint.to_json().unwrap();
    let end = json.find(",\"optimizer\":").expect("the last key");
    let json = format!("{}}}", &json[..end]);
    let mut bytes = b"MELCKPT\0".to_vec();
    bytes.extend_from_slice(&1u32.to_le_bytes());
    bytes.extend_from_slice(&0u32.to_le_bytes());
    for field in [
        identity.experiment_seed,
        identity.config_fingerprint,
        epoch,
        json.len() as u64,
    ] {
        bytes.extend_from_slice(&field.to_le_bytes());
    }
    bytes.extend_from_slice(json.as_bytes());
    let checksum = Checksum64::digest(&bytes);
    bytes.extend_from_slice(&checksum.to_le_bytes());
    bytes
}

/// Replaces the trailing checksum of a checkpoint file whose body was edited,
/// so only the check the edit aims at can reject it.
fn reseal(bytes: &mut [u8]) {
    let body_len = bytes.len() - 8;
    let checksum = Checksum64::digest(&bytes[..body_len]);
    bytes[body_len..].copy_from_slice(&checksum.to_le_bytes());
}

/// Runs a small durable experiment to completion, leaving valid checkpoint
/// files and a journal in `dir`, and returns its configuration.
fn seed_durable_dir(dir: &Path) -> ExperimentConfig {
    let config = durable_config(dir, false);
    let (_, report) = OnlineExperiment::new(config.clone())
        .expect("valid configuration")
        .run();
    assert_eq!(report.durable_error, None, "the seeding run must persist");
    assert!(
        report.durable_checkpoints >= 2,
        "need checkpoints to corrupt"
    );
    config
}

// ---------------------------------------------------------------------------
// SIGKILL-and-resume
// ---------------------------------------------------------------------------

/// Hidden child body of `sigkill_mid_run_then_resume_from_disk`: runs the
/// slow durable experiment into the directory named by the environment and
/// expects to be killed before finishing. Without the environment variable
/// (every normal `cargo test` run) it passes as a no-op.
#[test]
fn sigkill_child_runs_durable_experiment() {
    let Some(dir) = std::env::var_os(CHILD_DIR_ENV) else {
        return;
    };
    let config = durable_config(Path::new(&dir), true);
    let (_, report) = OnlineExperiment::new(config)
        .expect("valid configuration")
        .run();
    // Only reached if the parent failed to kill us in time; persisting must
    // still have worked so the parent's resume finds a finished directory.
    assert_eq!(report.durable_error, None);
}

#[cfg(unix)]
#[test]
fn sigkill_mid_run_then_resume_from_disk_reruns_only_missing_sims() {
    use std::os::unix::process::ExitStatusExt;
    use std::process::{Command, Stdio};

    let dir = temp_dir("sigkill");
    let config = durable_config(&dir, false);
    let identity = identity_of(&config);
    assert_eq!(
        identity_of(&durable_config(&dir, true)),
        identity,
        "the slow child's two-series layout must stay out of the config \
         fingerprint, or the single-series resume would reject its directory"
    );
    let exe = std::env::current_exe().expect("test binary path");
    let mut child = Command::new(exe)
        .args([
            "--exact",
            "sigkill_child_runs_durable_experiment",
            "--nocapture",
            "--test-threads",
            "1",
        ])
        .env(CHILD_DIR_ENV, &dir)
        .stdout(Stdio::null())
        .stderr(Stdio::null())
        .spawn()
        .expect("spawn the child server process");

    // Wait until a durable checkpoint records at least one completed
    // simulation, so the kill leaves both completed work (must not rerun)
    // and open work (must rerun). The atomic write protocol guarantees this
    // concurrent read-side scan never observes a torn file — only
    // fully-renamed checkpoints are visible. (The journal is not polled: a
    // concurrent `CompletionJournal::open` would truncate in-flight tails.)
    let deadline = Instant::now() + Duration::from_secs(60);
    loop {
        if let Some(status) = child.try_wait().unwrap() {
            panic!("child finished before the kill: {status:?}");
        }
        let checkpointed_completions = DurableCheckpointStore::open(&dir, identity, 3)
            .ok()
            .and_then(|store| store.load_latest().ok())
            .and_then(|latest| latest.latest)
            .map_or(0, |(_, cp)| cp.completed_simulations.len());
        if checkpointed_completions >= 1 {
            break;
        }
        assert!(
            Instant::now() < deadline,
            "no durable completion appeared within 60s"
        );
        std::thread::sleep(Duration::from_millis(5));
    }

    // SIGKILL: no signal handler, no Drop, no flush — the hard case.
    child.kill().expect("deliver SIGKILL");
    let status = child.wait().expect("reap the child");
    assert!(
        status.code().is_none() && status.signal() == Some(9),
        "the child must die by SIGKILL, got {status:?}"
    );

    // What the disk knows: the newest valid checkpoint plus every journaled
    // completion. The restart contract is to rerun exactly the rest.
    let store = DurableCheckpointStore::open(&dir, identity, 3).unwrap();
    let latest = store.load_latest().unwrap();
    assert!(
        latest.rejected.is_empty(),
        "an unclean kill must not leave torn checkpoint files: {:?}",
        latest.rejected
    );
    let (_, checkpoint) = latest.latest.expect("polled until a checkpoint existed");
    drop(store);
    let (journal, journaled) = CompletionJournal::open(&dir, identity, 8).unwrap();
    drop(journal);
    let durable_completed: BTreeSet<u64> = checkpoint
        .completed_simulations
        .iter()
        .copied()
        .chain(journaled)
        .collect();
    let missing: Vec<u64> = (0..CLIENTS as u64)
        .filter(|id| !durable_completed.contains(id))
        .collect();
    assert!(
        !durable_completed.is_empty(),
        "polled until a completion was durable: there is work to skip"
    );
    assert!(
        !missing.is_empty(),
        "killed mid-run by the slow two-series child: there is work to rerun"
    );

    // Restart purely from the directory (one series, no gap this time).
    let (model, resume_report) = OnlineExperiment::resume_from_dir(&dir, config.clone())
        .expect("resume from the killed run's dir");
    assert!(model.params_flat().iter().all(|p| p.is_finite()));
    assert_eq!(resume_report.durable_error, None);
    assert_eq!(
        resume_report.resumed_from_batches,
        Some(checkpoint.batches_trained)
    );

    // Exactly-once per-simulation accounting: the resumed run streams and
    // trains precisely the missing simulations — completed ones are not
    // resubmitted, killed-mid-stream ones are rerun from scratch.
    let transport = resume_report.transport.as_ref().expect("online stats");
    assert_eq!(
        transport.messages_sent,
        missing.len() * STEPS,
        "only the simulations absent from checkpoint+journal rerun"
    );
    assert_eq!(
        resume_report.unique_samples_trained,
        missing.len() * STEPS,
        "durably completed simulations must not be retrained"
    );

    // The final checkpoint closes the campaign: every simulation covered.
    let final_checkpoint =
        newest_checkpoint(&dir, &config).expect("the clean resume leaves a checkpoint");
    assert_eq!(
        final_checkpoint.completed_simulations,
        (0..CLIENTS as u64).collect::<Vec<_>>(),
        "checkpoint + journal + rerun must cover the whole campaign"
    );

    let _ = fs::remove_dir_all(&dir);
}

/// The in-process counterpart of the SIGKILL test: persistence runs on rank
/// 0's sidecar thread, so a scripted server crash must not return while a
/// checkpoint write is still in flight — an immediate `resume_from_dir` in
/// the same process would race it.
#[test]
fn scripted_crash_returns_a_quiescent_directory_that_resumes_at_once() {
    let dir = temp_dir("crash-quiescent");
    let mut config = durable_config(&dir, false);
    config.fault.plan = FaultPlan::none().with_server_crash(6);
    let (model, report) = OnlineExperiment::new(config)
        .expect("valid configuration")
        .run();
    assert!(report.crashed, "the scripted server crash must fire");
    assert_eq!(report.durable_error, None);
    assert_eq!(report.checkpoints_taken, 6, "one per batch until the crash");
    assert_eq!(report.durable_checkpoints, report.checkpoints_taken);
    assert_eq!(report.sidecar.checkpoints_persisted, 6);

    // Nothing half-written is left behind, and the newest file on disk is
    // the checkpoint the learner captured last: the state after the last
    // trained batch, which the crash round left the model in.
    let leftovers: Vec<PathBuf> = fs::read_dir(&dir)
        .unwrap()
        .map(|entry| entry.unwrap().path())
        .filter(|p| {
            p.file_name()
                .unwrap()
                .to_string_lossy()
                .starts_with(".tmp-")
        })
        .collect();
    assert!(leftovers.is_empty(), "in-flight temp files: {leftovers:?}");
    let fast = durable_config(&dir, false);
    let latest = DurableCheckpointStore::open(&dir, identity_of(&fast), 3)
        .unwrap()
        .load_latest()
        .unwrap();
    assert!(latest.rejected.is_empty(), "{:?}", latest.rejected);
    let (_, on_disk) = latest.latest.expect("six checkpoints were persisted");
    assert_eq!(on_disk.batches_trained, report.checkpoints_taken);
    assert_eq!(on_disk.model.params, model.params_flat());

    let (_, resume_report) = OnlineExperiment::resume_from_dir(&dir, fast.clone())
        .expect("resume straight after the crash");
    assert!(!resume_report.crashed);
    assert_eq!(resume_report.durable_error, None);
    assert_eq!(
        resume_report.resumed_from_batches,
        Some(on_disk.batches_trained)
    );
    assert_eq!(
        newest_checkpoint(&dir, &fast)
            .unwrap()
            .completed_simulations,
        (0..CLIENTS as u64).collect::<Vec<_>>()
    );
    let _ = fs::remove_dir_all(&dir);
}

/// A fresh `run` into a directory an earlier run of the same experiment
/// filled is refused: started over next to the earlier run's checkpoints
/// and journal, it would let a later resume skip simulations this run never
/// trained. The refusal goes through the open-failure policy —
/// `durable_error` is set and training goes on — and leaves the directory
/// byte for byte as the first run left it, so a resume still continues from
/// the first run's final checkpoint.
#[test]
fn a_fresh_run_refuses_a_directory_that_holds_an_earlier_runs_records() {
    let dir = temp_dir("used-directory");
    let config = seed_durable_dir(&dir);
    let snapshot = |dir: &Path| -> Vec<(PathBuf, Vec<u8>)> {
        let mut files: Vec<(PathBuf, Vec<u8>)> = fs::read_dir(dir)
            .unwrap()
            .map(|entry| {
                let path = entry.unwrap().path();
                let bytes = fs::read(&path).unwrap();
                (path, bytes)
            })
            .collect();
        files.sort();
        files
    };
    let before = snapshot(&dir);
    let first = newest_checkpoint(&dir, &config).expect("the seeding run's final checkpoint");
    assert_eq!(first.completed_simulations.len(), CLIENTS);

    let mut crashing = config.clone();
    crashing.fault.plan = FaultPlan::none().with_server_crash(3);
    let (_, report) = OnlineExperiment::new(crashing)
        .expect("valid configuration")
        .run();
    assert!(report.crashed, "the scripted server crash must fire");
    assert_eq!(report.batches, 3, "training goes on without durability");
    assert_eq!(report.durable_checkpoints, 0);
    let error = report.durable_error.expect("the used directory is refused");
    assert_eq!(
        error,
        DurabilityError::UsedDirectory(dir.clone()).to_string(),
        "{error}"
    );
    assert!(
        before == snapshot(&dir),
        "the refused run wrote into the directory"
    );

    let (_, resumed) =
        OnlineExperiment::resume_from_dir(&dir, config.clone()).expect("resume the first run");
    assert_eq!(resumed.durable_error, None);
    assert_eq!(resumed.resumed_from_batches, Some(first.batches_trained));
    assert_eq!(
        resumed.simulations, 0,
        "the first run trained every simulation"
    );
    let _ = fs::remove_dir_all(&dir);
}

// ---------------------------------------------------------------------------
// Corruption handling
// ---------------------------------------------------------------------------

#[test]
fn bit_flipped_newest_checkpoint_falls_back_to_the_previous_one() {
    let dir = temp_dir("bitflip");
    let config = seed_durable_dir(&dir);

    let files = checkpoint_files(&dir);
    assert!(files.len() >= 2, "retention keeps several checkpoints");
    let newest = files.last().unwrap();
    let mut bytes = fs::read(newest).unwrap();
    let mid = bytes.len() / 2;
    bytes[mid] ^= 0x40; // one flipped bit in the payload
    fs::write(newest, &bytes).unwrap();

    let store = DurableCheckpointStore::open(&dir, identity_of(&config), 3).unwrap();
    let latest = store.load_latest().unwrap();
    assert_eq!(latest.rejected.len(), 1, "the flipped file is detected");
    assert!(matches!(
        latest.rejected[0],
        DurabilityError::Corrupt {
            kind: CorruptKind::ChecksumMismatch,
            ..
        }
    ));
    let (_, fallback) = latest.latest.expect("an earlier checkpoint survives");
    drop(store);

    // The journal still covers every completion recorded after the fallback
    // checkpoint, so resuming the corrupted directory reruns nothing.
    assert!(fallback.completed_simulations.len() <= CLIENTS);
    let (_, report) = OnlineExperiment::resume_from_dir(&dir, config.clone()).unwrap();
    let resumed = newest_checkpoint(&dir, &config);
    assert_eq!(report.durable_error, None);
    assert_eq!(report.transport.unwrap().messages_sent, 0);
    assert_eq!(
        resumed.unwrap().completed_simulations.len(),
        CLIENTS,
        "fallback checkpoint + journal still cover the campaign"
    );
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn truncated_newest_checkpoint_is_rejected_not_parsed() {
    let dir = temp_dir("truncate");
    let config = seed_durable_dir(&dir);

    let files = checkpoint_files(&dir);
    let newest = files.last().unwrap();
    let bytes = fs::read(newest).unwrap();
    fs::write(newest, &bytes[..bytes.len() - 5]).unwrap(); // torn trailing checksum

    let store = DurableCheckpointStore::open(&dir, identity_of(&config), 3).unwrap();
    let latest = store.load_latest().unwrap();
    assert_eq!(latest.rejected.len(), 1);
    assert!(matches!(
        latest.rejected[0],
        DurabilityError::Corrupt {
            kind: CorruptKind::TruncatedPayload,
            ..
        }
    ));
    assert!(latest.latest.is_some(), "an earlier checkpoint survives");
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn version_bumped_checkpoint_is_unsupported_even_with_a_valid_checksum() {
    let dir = temp_dir("version");
    let config = seed_durable_dir(&dir);

    // Bump the format version *and* recompute the trailing checksum, so only
    // the version check — not the checksum — can reject the file.
    let files = checkpoint_files(&dir);
    let newest = files.last().unwrap();
    let mut bytes = fs::read(newest).unwrap();
    bytes[8..12].copy_from_slice(&(melissa::DURABLE_FORMAT_VERSION + 1).to_le_bytes());
    let body_len = bytes.len() - 8;
    let checksum = Checksum64::digest(&bytes[..body_len]);
    bytes[body_len..].copy_from_slice(&checksum.to_le_bytes());
    fs::write(newest, &bytes).unwrap();

    let store = DurableCheckpointStore::open(&dir, identity_of(&config), 3).unwrap();
    let latest = store.load_latest().unwrap();
    assert!(matches!(
        latest.rejected[0],
        DurabilityError::Corrupt {
            kind: CorruptKind::UnsupportedVersion,
            ..
        }
    ));
    assert!(
        latest.latest.is_some(),
        "older same-version files still load"
    );
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn torn_journal_tail_is_dropped_and_the_rest_replays() {
    let dir = temp_dir("torn-tail");
    let config = seed_durable_dir(&dir);
    let identity = identity_of(&config);

    let journal_path = dir.join("journal");
    let (_, complete_replay) = CompletionJournal::open(&dir, identity, 8).unwrap();
    assert_eq!(
        complete_replay.len(),
        CLIENTS,
        "the run journaled every sim"
    );

    // A kill mid-append leaves a partial trailing record: 10 bytes of a
    // 24-byte record. Replay must keep every whole record and drop the tail.
    let mut bytes = fs::read(&journal_path).unwrap();
    bytes.extend_from_slice(&[0xAB; 10]);
    fs::write(&journal_path, &bytes).unwrap();
    let (journal, replayed) = CompletionJournal::open(&dir, identity, 8).unwrap();
    assert_eq!(replayed, complete_replay, "whole records all survive");
    // The truncation repaired the file: appending works again.
    journal.append(10_000).unwrap();
    journal.flush().unwrap();
    drop(journal);
    let (_, after) = CompletionJournal::open(&dir, identity, 8).unwrap();
    assert_eq!(after.len(), complete_replay.len() + 1);
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn corrupt_mid_journal_record_loses_the_tail_but_the_resume_still_completes() {
    let dir = temp_dir("mid-journal");
    let config = seed_durable_dir(&dir);
    let identity = identity_of(&config);

    // Flip one bit in the middle of the records region (header is 40 bytes,
    // records 24). Replay stops at the damaged record; the completions behind
    // it fall back to the checkpoints or are rerun — never double-counted.
    let journal_path = dir.join("journal");
    let mut bytes = fs::read(&journal_path).unwrap();
    let damaged_index = (bytes.len() - 40) / 24 / 2;
    bytes[40 + damaged_index * 24 + 3] ^= 0x01;
    fs::write(&journal_path, &bytes).unwrap();

    let (_, replayed) = CompletionJournal::open(&dir, identity, 8).unwrap();
    assert_eq!(replayed.len(), damaged_index, "replay ends at the damage");

    let (model, report) = OnlineExperiment::resume_from_dir(&dir, config.clone()).unwrap();
    let resumed = newest_checkpoint(&dir, &config);
    assert!(model.params_flat().iter().all(|p| p.is_finite()));
    assert_eq!(report.durable_error, None);
    assert_eq!(
        resumed.unwrap().completed_simulations.len(),
        CLIENTS,
        "the resume reruns whatever the damaged journal no longer proves"
    );
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn corrupt_journal_header_is_a_typed_error_not_a_panic() {
    let dir = temp_dir("journal-header");
    let config = seed_durable_dir(&dir);

    let journal_path = dir.join("journal");
    let mut bytes = fs::read(&journal_path).unwrap();
    bytes[0] ^= 0xFF; // destroy the magic
    fs::write(&journal_path, &bytes).unwrap();

    let result = CompletionJournal::open(&dir, identity_of(&config), 8);
    assert!(matches!(
        result,
        Err(DurabilityError::Corrupt {
            kind: CorruptKind::BadMagic,
            ..
        })
    ));
    // The strict resume path surfaces the same typed error instead of
    // silently starting over (which would double-run completed simulations).
    let resume = OnlineExperiment::resume_from_dir(&dir, config);
    assert!(matches!(resume, Err(DurabilityError::Corrupt { .. })));
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn foreign_experiment_checkpoints_are_rejected_by_identity() {
    let dir = temp_dir("foreign");
    let config = seed_durable_dir(&dir);

    // Same directory, different experiment seed: every file is detected as
    // belonging to a different experiment, none is loaded.
    let mut foreign = identity_of(&config);
    foreign.experiment_seed ^= 1;
    let store = DurableCheckpointStore::open(&dir, foreign, 3).unwrap();
    let latest = store.load_latest().unwrap();
    assert!(latest.latest.is_none());
    assert!(!latest.rejected.is_empty());
    assert!(latest
        .rejected
        .iter()
        .all(|e| matches!(e, DurabilityError::IdentityMismatch { .. })));
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn a_length_field_of_erased_flash_is_a_typed_error_in_debug_and_release() {
    // `payload_len` values whose unchecked `48 + len` or `+ 8` overflows: the
    // parent commit panicked on them (`attempt to add with overflow` in
    // debug, a slice index out of range in release), taking `load_latest`,
    // `peek_identity` and so `resume_from_dir` down with it. Eight 0xFF
    // bytes are what an erased flash page reads as.
    let fx = fixture();
    let identity = identity_of(&fx.config);
    for original in [&fx.checkpoint_bytes, &fx.v1_checkpoint_bytes] {
        for payload_len in [u64::MAX, u64::MAX - 49, u64::MAX - 55] {
            let dir = temp_dir("length-overflow");
            let mut bytes = original.clone();
            bytes[40..48].copy_from_slice(&payload_len.to_le_bytes());
            fs::write(dir.join("ckpt-0000000000"), &bytes).unwrap();

            let store = DurableCheckpointStore::open(&dir, identity, 3).unwrap();
            let latest = store.load_latest().unwrap();
            assert!(latest.latest.is_none());
            assert!(
                matches!(
                    latest.rejected[..],
                    [DurabilityError::Corrupt {
                        kind: CorruptKind::TruncatedPayload,
                        ..
                    }]
                ),
                "{payload_len:#x}: {:?}",
                latest.rejected
            );
            // No journal here, so the probe has only this file to ask: it
            // names no owner, and the directory resumes as a fresh start.
            assert_eq!(peek_identity(&dir).unwrap(), None, "{payload_len:#x}");
            let _ = fs::remove_dir_all(&dir);
        }
    }
    let dir = temp_dir("length-overflow-resume");
    let mut bytes = fx.checkpoint_bytes.clone();
    bytes[40..48].copy_from_slice(&[0xFF; 8]);
    fs::write(dir.join("ckpt-0000000000"), &bytes).unwrap();
    let (_, report) = OnlineExperiment::resume_from_dir(&dir, fx.config.clone()).unwrap();
    let resumed = newest_checkpoint(&dir, &fx.config);
    assert_eq!(report.durable_error, None);
    assert_eq!(report.resumed_from_batches, None, "nothing valid to resume");
    assert_eq!(resumed.unwrap().completed_simulations.len(), CLIENTS);
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn a_directory_of_version_1_checkpoints_resumes_and_is_continued_in_version_2() {
    // A crashed run's directory as the parent commit would have left it:
    // every checkpoint rewritten as a version-1 file, the journal untouched
    // (its format did not change).
    let dir = temp_dir("v1-directory");
    let mut config = durable_config(&dir, false);
    config.fault.plan = FaultPlan::none().with_server_crash(6);
    let (_, report) = OnlineExperiment::new(config)
        .expect("valid configuration")
        .run();
    assert!(report.crashed);
    let config = durable_config(&dir, false);
    let identity = identity_of(&config);
    let store = DurableCheckpointStore::open(&dir, identity, 3).unwrap();
    let mut legacy_files = Vec::new();
    while let Some((epoch, checkpoint)) = store.load_latest().unwrap().latest {
        assert!(checkpoint.optimizer.is_some(), "written by this build");
        let path = dir.join(format!("ckpt-{epoch:010}"));
        fs::remove_file(&path).unwrap();
        legacy_files.push((path, v1_file(&checkpoint, identity, epoch)));
    }
    assert!(
        legacy_files.len() >= 2,
        "retention keeps several checkpoints"
    );
    for (path, bytes) in &legacy_files {
        fs::write(path, bytes).unwrap();
    }
    let latest = store.load_latest().unwrap();
    assert!(latest.rejected.is_empty(), "{:?}", latest.rejected);
    let (_, legacy) = latest.latest.expect("version 1 still loads");
    assert!(legacy.optimizer.is_none(), "version 1 never had one");
    drop(store);

    let (_, resume_report) = OnlineExperiment::resume_from_dir(&dir, config.clone())
        .expect("resume a version-1 directory");
    assert_eq!(resume_report.durable_error, None);
    assert_eq!(
        resume_report.resumed_from_batches,
        Some(legacy.batches_trained)
    );
    let final_checkpoint = newest_checkpoint(&dir, &config).unwrap();
    assert_eq!(
        final_checkpoint.completed_simulations,
        (0..CLIENTS as u64).collect::<Vec<_>>()
    );
    // What the resumed run wrote is version 2 and carries its optimizer.
    let newest = fs::read(checkpoint_files(&dir).pop().unwrap()).unwrap();
    assert_eq!(
        newest[8..12],
        melissa::DURABLE_FORMAT_VERSION.to_le_bytes(),
        "version 1 is never written again"
    );
    assert!(final_checkpoint.optimizer.is_some());
    let _ = fs::remove_dir_all(&dir);
}

// ---------------------------------------------------------------------------
// Property: arbitrary corruption never panics and never parses garbage
// ---------------------------------------------------------------------------

/// One valid durable directory's files, captured once and restored into a
/// fresh directory per proptest case.
struct DurableFixture {
    config: ExperimentConfig,
    checkpoint_bytes: Vec<u8>,
    /// The same checkpoint as a version-1 file.
    v1_checkpoint_bytes: Vec<u8>,
    journal_bytes: Vec<u8>,
}

fn fixture() -> &'static DurableFixture {
    use std::sync::OnceLock;
    static FIXTURE: OnceLock<DurableFixture> = OnceLock::new();
    FIXTURE.get_or_init(|| {
        let dir = temp_dir("proptest-fixture");
        let config = seed_durable_dir(&dir);
        let newest = checkpoint_files(&dir).pop().unwrap();
        let checkpoint_bytes = fs::read(newest).unwrap();
        let journal_bytes = fs::read(dir.join("journal")).unwrap();
        let identity = identity_of(&config);
        let store = DurableCheckpointStore::open(&dir, identity, 3).unwrap();
        let (epoch, checkpoint) = store.load_latest().unwrap().latest.unwrap();
        let v1_checkpoint_bytes = v1_file(&checkpoint, identity, epoch);
        let _ = fs::remove_dir_all(&dir);
        DurableFixture {
            config,
            checkpoint_bytes,
            v1_checkpoint_bytes,
            journal_bytes,
        }
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Any single-byte corruption at any offset of a checkpoint file is
    /// rejected as a typed error — `load_latest` never panics and never
    /// returns a checkpoint parsed from damaged bytes.
    #[test]
    fn any_checkpoint_byte_corruption_is_detected(offset_frac in 0.0f64..1.0, xor in 1u8..=255) {
        let fx = fixture();
        let dir = temp_dir("prop-ckpt");
        let mut bytes = fx.checkpoint_bytes.clone();
        let offset = ((bytes.len() - 1) as f64 * offset_frac) as usize;
        bytes[offset] ^= xor;
        fs::write(dir.join("ckpt-0000000000"), &bytes).unwrap();

        let store = DurableCheckpointStore::open(&dir, identity_of(&fx.config), 3).unwrap();
        let latest = store.load_latest().unwrap();
        prop_assert!(latest.latest.is_none(), "corrupted checkpoint must not load (offset {offset})");
        prop_assert_eq!(latest.rejected.len(), 1);
        let _ = fs::remove_dir_all(&dir);
    }

    /// The same over a version-1 file: the reader kept for old directories
    /// detects every damaged byte too.
    #[test]
    fn any_v1_checkpoint_byte_corruption_is_detected(offset_frac in 0.0f64..1.0, xor in 1u8..=255) {
        let fx = fixture();
        let dir = temp_dir("prop-ckpt-v1");
        let mut bytes = fx.v1_checkpoint_bytes.clone();
        let offset = ((bytes.len() - 1) as f64 * offset_frac) as usize;
        bytes[offset] ^= xor;
        fs::write(dir.join("ckpt-0000000000"), &bytes).unwrap();

        let store = DurableCheckpointStore::open(&dir, identity_of(&fx.config), 3).unwrap();
        let latest = store.load_latest().unwrap();
        prop_assert!(latest.latest.is_none(), "corrupted checkpoint must not load (offset {offset})");
        prop_assert_eq!(latest.rejected.len(), 1);
        let _ = fs::remove_dir_all(&dir);
    }

    /// A whole length or count field replaced by an arbitrary u64 — the
    /// 8-byte `payload_len` of either version, or one of the four section
    /// counts of a version-2 payload, those with the checksum made good again
    /// so the count checks themselves are what must hold — is a typed
    /// rejection: no overflow, no out-of-range slice, no allocation sized by
    /// the field. `bits >> shift` spreads the values over every magnitude.
    #[test]
    fn any_overwritten_length_or_count_field_is_rejected(
        field in 0usize..6,
        bits in any::<u64>(),
        shift in 0u32..64,
    ) {
        let fx = fixture();
        let dir = temp_dir("prop-counts");
        let (mut bytes, offset) = match field {
            0 => (fx.v1_checkpoint_bytes.clone(), 40),
            1 => (fx.checkpoint_bytes.clone(), 40),
            count => (fx.checkpoint_bytes.clone(), 48 + 8 * (count - 2)),
        };
        let value = bits >> shift;
        let unchanged = bytes[offset..offset + 8] == value.to_le_bytes();
        bytes[offset..offset + 8].copy_from_slice(&value.to_le_bytes());
        if offset > 40 {
            reseal(&mut bytes);
        }
        fs::write(dir.join("ckpt-0000000000"), &bytes).unwrap();

        let store = DurableCheckpointStore::open(&dir, identity_of(&fx.config), 3).unwrap();
        let latest = store.load_latest().unwrap();
        prop_assert_eq!(latest.latest.is_some(), unchanged, "field {} = {:#x}", field, value);
        if let Some(rejected) = latest.rejected.first() {
            let expected: &[CorruptKind] = if offset == 40 {
                &[CorruptKind::TruncatedPayload, CorruptKind::ChecksumMismatch]
            } else {
                &[CorruptKind::BadPayload]
            };
            prop_assert!(
                matches!(rejected, DurabilityError::Corrupt { kind, .. } if expected.contains(kind)),
                "field {field} = {value:#x}: {rejected:?}"
            );
        }
        prop_assert!(peek_identity(&dir).is_ok());
        let _ = fs::remove_dir_all(&dir);
    }

    /// Format 2 stores values, not renderings of them: whatever bit patterns
    /// the parameters and moments hold — NaN payloads, signed zeros,
    /// subnormals, infinities, none of which JSON can carry — and whatever
    /// the shapes, ids and counters, `save` then `load_latest` returns them
    /// bit for bit.
    #[test]
    fn a_saved_checkpoint_loads_back_bit_for_bit(
        layer_sizes in prop::collection::vec(1usize..9, 2..5),
        completed in prop::collection::vec(any::<u64>(), 0..40),
        counters in prop::collection::vec(any::<u32>(), 3),
        seed in any::<u64>(),
        with_optimizer in any::<bool>(),
    ) {
        const SPECIAL: [u32; 8] = [
            0x7FC0_0001, 0xFFC1_2345, 0x0000_0000, 0x8000_0000,
            0x0000_0001, 0x807F_FFFF, 0x7F80_0000, 0xFF80_0000,
        ];
        let model = Mlp::new(MlpConfig {
            layer_sizes,
            activation: Activation::Tanh,
            init: InitScheme::XavierUniform,
            seed,
        });
        // Every third value is one of the special patterns, the rest are
        // arbitrary bits from a splitmix stream.
        let mut state = seed;
        let mut values = |count: usize| -> Vec<f32> {
            (0..count)
                .map(|k| {
                    state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
                    let mixed = (state ^ (state >> 31)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
                    let random = (mixed >> 32) as u32;
                    f32::from_bits(if k % 3 == 0 { SPECIAL[random as usize % 8] } else { random })
                })
                .collect()
        };
        let (batches, samples, steps) = (counters[0] as usize, counters[1] as usize, counters[2] as usize);
        let mut checkpoint = ServerCheckpoint::capture(&model, batches, samples, completed, seed);
        checkpoint.model.params = values(model.param_count());
        let adam_config = AdamConfig { weight_decay: 0.25, ..AdamConfig::default() };
        if with_optimizer {
            let (first, second) = (values(model.param_count()), values(model.param_count()));
            checkpoint.optimizer = Some(Adam::restore(adam_config, steps, first, second));
        }

        let dir = temp_dir("prop-roundtrip");
        let identity = DurableIdentity { experiment_seed: seed, config_fingerprint: !seed };
        let store = DurableCheckpointStore::open(&dir, identity, 3).unwrap();
        store.save(&checkpoint).unwrap();
        let latest = store.load_latest().unwrap();
        prop_assert!(latest.rejected.is_empty(), "{:?}", latest.rejected);
        let (_, loaded) = latest.latest.unwrap();

        let bits = |values: &[f32]| -> Vec<u32> { values.iter().map(|v| v.to_bits()).collect() };
        prop_assert_eq!(&loaded.model.config, &checkpoint.model.config);
        prop_assert_eq!(bits(&loaded.model.params), bits(&checkpoint.model.params));
        prop_assert_eq!(
            (loaded.batches_trained, loaded.samples_seen, loaded.experiment_seed),
            (batches, samples, seed)
        );
        prop_assert_eq!(
            (loaded.model.batches_trained, loaded.model.samples_seen),
            (batches, samples)
        );
        prop_assert_eq!(&loaded.completed_simulations, &checkpoint.completed_simulations);
        prop_assert_eq!(loaded.optimizer.is_some(), with_optimizer);
        if let (Some(loaded), Some(saved)) = (&loaded.optimizer, &checkpoint.optimizer) {
            prop_assert_eq!(loaded.config(), &adam_config);
            prop_assert_eq!(loaded.steps_taken(), steps);
            prop_assert_eq!(bits(loaded.moments().0), bits(saved.moments().0));
            prop_assert_eq!(bits(loaded.moments().1), bits(saved.moments().1));
        }
        let _ = fs::remove_dir_all(&dir);
    }

    /// Any truncation of the journal opens without a panic: either a typed
    /// header error (cut inside the header) or a clean replay of the whole
    /// records that remain.
    #[test]
    fn any_journal_truncation_opens_cleanly(keep_frac in 0.0f64..1.0) {
        let fx = fixture();
        let dir = temp_dir("prop-journal");
        let keep = ((fx.journal_bytes.len()) as f64 * keep_frac) as usize;
        fs::write(dir.join("journal"), &fx.journal_bytes[..keep]).unwrap();

        match CompletionJournal::open(&dir, identity_of(&fx.config), 8) {
            Ok((_, replayed)) => {
                // Header survived: every replayed id is one the run journaled,
                // in order, never an invention of the torn tail.
                prop_assert!(keep >= 40, "a truncated header must not open");
                prop_assert!(replayed.len() <= (keep - 40) / 24);
                prop_assert!(replayed.iter().all(|id| *id < CLIENTS as u64));
            }
            Err(DurabilityError::Corrupt { .. }) => {
                prop_assert!(keep < 48, "whole-header journals must open (kept {keep})");
            }
            Err(other) => prop_assert!(false, "unexpected error: {other}"),
        }
        let _ = fs::remove_dir_all(&dir);
    }
}
