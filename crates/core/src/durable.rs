//! Crash-safe on-disk durability for the recovery state: checkpoint store,
//! completion journal and the recorder that feeds both from the training loop.
//!
//! PR 8 implemented the paper's §3.1 fault-tolerance protocol for *in-process*
//! crashes only: checkpoints lived in a [`crate::recovery::CheckpointStore`]
//! in memory, so a real `kill -9` discarded every batch trained. This module
//! makes the recovery state survive process death:
//!
//! * [`DurableCheckpointStore`] — writes each [`ServerCheckpoint`] with the
//!   atomic protocol (serialize → temp file → fsync → rename → fsync
//!   directory) under a self-describing header and an embedded
//!   [`Checksum64`], so a torn write or bit corruption is *detected* and the
//!   store falls back to the newest earlier checkpoint that still validates.
//!   Retention keeps the last K checkpoints.
//! * [`CompletionJournal`] — a tiny append-only log of per-simulation
//!   completion deltas between checkpoints, fsync-batched and replayed on
//!   open. A torn tail record is dropped, never trusted, so the journal
//!   tolerates truncation at any byte. It shrinks the re-simulation window
//!   from "since the last checkpoint" to "since the last journal flush": a
//!   simulation recorded completed was fully trained by a previous
//!   incarnation, so — like the paper's message logs discarding replayed
//!   traffic — a restart does not rerun it even when the model resumes from
//!   an older checkpoint (per-simulation sample accounting stays
//!   exactly-once across incarnations).
//! * [`DurableRecorder`] — the bundle handed to the training loop through
//!   [`crate::recovery::RecoveryHooks`]. All disk I/O of a run happens on
//!   rank 0's sidecar thread (`crate::sidecar`), fed snapshots by the
//!   learning thread — never on the learner, never on the ingest hot path —
//!   plus one direct call for the server's final checkpoint after the ranks
//!   have joined; a disk error latches the recorder into a degraded mode that
//!   stops writing instead of aborting training.
//!
//! ## On-disk formats (all integers and floats little-endian)
//!
//! Checkpoint file `ckpt-<epoch>` (epoch = zero-padded decimal), version
//! [`DURABLE_FORMAT_VERSION`] = 2:
//!
//! ```text
//! magic "MELCKPT\0" | version u32 | reserved u32 | experiment_seed u64
//! | config_fingerprint u64 | epoch u64 | payload_len u64
//! | payload | checksum u64 over all prior bytes
//! payload = meta_len u64 | completed u64 | params u64 | moments u64
//! | meta (JSON, meta_len bytes: MlpConfig, progress counters, seed,
//!   AdamConfig + step count when moments > 0)
//! | completed simulation ids (u64 each) | params (f32 each)
//! | Adam first moments, then second moments (moments f32 each)
//! ```
//!
//! Nothing that grows with the model or the campaign passes through a text
//! formatter: a section is its values' own bytes. `moments` is 0 (no
//! optimizer state) or equal to `params`, and the four counts must account
//! for `payload_len` exactly. Version 1 — the same header around one
//! `ServerCheckpoint` JSON document, no optimizer — is still *read*, so older
//! directories resume, but never written; ROADMAP item 5 (l), after item 6,
//! deletes that arm.
//!
//! Journal file `journal`:
//!
//! ```text
//! magic "MELJRNL\0" | version u32 = 1 | reserved u32 | experiment_seed u64
//! | config_fingerprint u64 | checksum u64 over all prior bytes
//! | record* , record = seq u64 | simulation_id u64 | checksum u64
//! ```
//!
//! Each record checksum covers the header identity plus the record's sequence
//! number and simulation id, so records cannot be reordered, spliced from
//! another run, or half-written without detection.

use crate::checkpoint::ServerCheckpoint;
use crate::error::ExperimentError;
use melissa_transport::Checksum64;
use parking_lot::Mutex;
use serde::{Deserialize, Serialize};
use std::collections::HashSet;
use std::fs::{self, File, OpenOptions};
use std::io::{Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};
use surrogate_nn::{Adam, AdamConfig, MlpConfig, ModelCheckpoint, Optimizer};

/// The checkpoint file version this build writes; it also reads version 1.
pub const DURABLE_FORMAT_VERSION: u32 = 2;
/// The journal's version: its layout did not change with checkpoint format 2.
const JOURNAL_FORMAT_VERSION: u32 = 1;

const CHECKPOINT_MAGIC: &[u8; 8] = b"MELCKPT\0";
const JOURNAL_MAGIC: &[u8; 8] = b"MELJRNL\0";
/// Fixed-size checkpoint header: magic + version + reserved + seed +
/// fingerprint + epoch + payload length.
const CHECKPOINT_HEADER_LEN: usize = 8 + 4 + 4 + 8 + 8 + 8 + 8;
/// Fixed-size journal header: magic + version + reserved + seed +
/// fingerprint + checksum.
const JOURNAL_HEADER_LEN: usize = 8 + 4 + 4 + 8 + 8 + 8;
/// One journal record: sequence + simulation id + checksum.
const JOURNAL_RECORD_LEN: usize = 8 + 8 + 8;
const CHECKPOINT_PREFIX: &str = "ckpt-";
const JOURNAL_FILE: &str = "journal";

/// Why a durable artifact was rejected.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CorruptKind {
    /// The file is shorter than its fixed header.
    TruncatedHeader,
    /// The magic bytes are not this format's.
    BadMagic,
    /// The format version is not one this build reads.
    UnsupportedVersion,
    /// The payload length field points past the end of the file.
    TruncatedPayload,
    /// The embedded checksum does not match the stored bytes.
    ChecksumMismatch,
    /// The checksummed payload does not deserialize, or its section counts
    /// disagree with its length or with the model it describes.
    BadPayload,
}

impl std::fmt::Display for CorruptKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let text = match self {
            CorruptKind::TruncatedHeader => "file shorter than its header",
            CorruptKind::BadMagic => "bad magic bytes",
            CorruptKind::UnsupportedVersion => "unsupported format version",
            CorruptKind::TruncatedPayload => "payload truncated",
            CorruptKind::ChecksumMismatch => "checksum mismatch",
            CorruptKind::BadPayload => "payload does not deserialize",
        };
        f.write_str(text)
    }
}

/// A typed durability failure: every corruption or identity mismatch is
/// reported through this, never a panic or a silent wrong resume.
#[derive(Debug)]
pub enum DurabilityError {
    /// An operating-system I/O failure at `path`.
    Io {
        /// The file or directory the operation touched.
        path: PathBuf,
        /// The underlying error.
        source: std::io::Error,
    },
    /// The experiment configuration itself was rejected.
    Config(ExperimentError),
    /// The durability directory does not exist.
    MissingDirectory(PathBuf),
    /// A file failed structural validation.
    Corrupt {
        /// The rejected file.
        path: PathBuf,
        /// What failed.
        kind: CorruptKind,
    },
    /// A structurally valid file belongs to a different experiment (seed or
    /// config fingerprint differs).
    IdentityMismatch {
        /// The rejected file.
        path: PathBuf,
        /// Which identity field differed.
        field: &'static str,
        /// The value this experiment expects.
        expected: u64,
        /// The value found in the file.
        found: u64,
    },
    /// The durability directory as a whole belongs to a different experiment:
    /// the identity its headers store disagrees with the resuming
    /// configuration. Unlike [`DurabilityError::IdentityMismatch`] (one
    /// foreign *file* inside an otherwise-owned directory), this is the
    /// directory-level diagnosis `resume_from_dir` raises up front, and its
    /// message names which knob class differs — the seed, the (non-seed)
    /// configuration, or both — so the caller knows what to fix.
    ForeignDirectory {
        /// The refused directory.
        dir: PathBuf,
        /// The identity stamped into the directory's durable headers.
        stored: DurableIdentity,
        /// The identity of the configuration asking to resume.
        given: DurableIdentity,
        /// Which knob class differs. The seed feeds the configuration
        /// fingerprint, so the caller classifies the diff (by recomputing the
        /// fingerprint under the stored seed) rather than comparing the two
        /// fingerprint fields naively.
        diff: IdentityDiff,
    },
}

/// Which knob class separates a stored durable identity from the resuming
/// configuration (see [`DurabilityError::ForeignDirectory`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum IdentityDiff {
    /// Only the experiment seed differs; every other knob matches.
    SeedOnly,
    /// The seed matches but some non-seed knob (model, training, buffer or
    /// campaign settings) differs.
    ConfigOnly,
    /// Both the seed and at least one non-seed knob differ.
    Both,
}

impl std::fmt::Display for DurabilityError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DurabilityError::Io { path, source } => {
                write!(f, "I/O error at {}: {source}", path.display())
            }
            DurabilityError::Config(e) => write!(f, "configuration rejected: {e}"),
            DurabilityError::MissingDirectory(path) => {
                write!(f, "durability directory {} does not exist", path.display())
            }
            DurabilityError::Corrupt { path, kind } => {
                write!(f, "corrupt durable file {}: {kind}", path.display())
            }
            DurabilityError::IdentityMismatch {
                path,
                field,
                expected,
                found,
            } => write!(
                f,
                "durable file {} belongs to a different experiment: {field} {found:#x} != expected {expected:#x}",
                path.display()
            ),
            DurabilityError::ForeignDirectory {
                dir,
                stored,
                given,
                diff,
            } => {
                write!(
                    f,
                    "cannot resume from {}: it belongs to a different experiment — ",
                    dir.display()
                )?;
                match diff {
                    IdentityDiff::SeedOnly => write!(
                        f,
                        "the experiment seed differs (stored {}, given {}); the rest of the configuration matches, so rerun with `seed({})` or point at a fresh directory",
                        stored.experiment_seed, given.experiment_seed, stored.experiment_seed
                    ),
                    IdentityDiff::ConfigOnly => write!(
                        f,
                        "the configuration differs (stored fingerprint {:#018x}, given {:#018x}); the seed matches, so a non-seed knob changed — check model, training, buffer and campaign settings against the original run",
                        stored.config_fingerprint, given.config_fingerprint
                    ),
                    IdentityDiff::Both => write!(
                        f,
                        "both the experiment seed (stored {}, given {}) and at least one non-seed knob differ (stored fingerprint {:#018x}, given {:#018x})",
                        stored.experiment_seed,
                        given.experiment_seed,
                        stored.config_fingerprint,
                        given.config_fingerprint
                    ),
                }
            }
        }
    }
}

impl std::error::Error for DurabilityError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            DurabilityError::Io { source, .. } => Some(source),
            DurabilityError::Config(e) => Some(e),
            _ => None,
        }
    }
}

impl From<ExperimentError> for DurabilityError {
    fn from(e: ExperimentError) -> Self {
        DurabilityError::Config(e)
    }
}

fn io_err(path: &Path, source: std::io::Error) -> DurabilityError {
    DurabilityError::Io {
        path: path.to_path_buf(),
        source,
    }
}

/// The identity stamped into every durable header: a file from a different
/// experiment (other seed or other configuration) is rejected up front
/// instead of silently resuming the wrong run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DurableIdentity {
    /// The experiment seed.
    pub experiment_seed: u64,
    /// [`crate::config::ExperimentConfig::config_fingerprint`] of the run.
    pub config_fingerprint: u64,
}

impl DurableIdentity {
    /// Rejects the identity `found` in the header of `path` unless it is this
    /// one. Callers verify the header's checksum first, so a bit flip in the
    /// seed field reads as corruption, not as a different experiment.
    fn expect_in(self, path: &Path, found: DurableIdentity) -> Result<(), DurabilityError> {
        let mismatch = |field, expected, found| DurabilityError::IdentityMismatch {
            path: path.to_path_buf(),
            field,
            expected,
            found,
        };
        if found.experiment_seed != self.experiment_seed {
            let (expected, found) = (self.experiment_seed, found.experiment_seed);
            return Err(mismatch("experiment_seed", expected, found));
        }
        if found.config_fingerprint != self.config_fingerprint {
            let (expected, found) = (self.config_fingerprint, found.config_fingerprint);
            return Err(mismatch("config_fingerprint", expected, found));
        }
        Ok(())
    }
}

/// Little-endian integer append helpers shared by both writers.
fn push_u32(buf: &mut Vec<u8>, v: u32) {
    buf.extend_from_slice(&v.to_le_bytes());
}

fn push_u64(buf: &mut Vec<u8>, v: u64) {
    buf.extend_from_slice(&v.to_le_bytes());
}

fn read_u32(bytes: &[u8], offset: usize) -> u32 {
    let mut raw = [0u8; 4];
    raw.copy_from_slice(&bytes[offset..offset + 4]);
    u32::from_le_bytes(raw)
}

fn read_u64(bytes: &[u8], offset: usize) -> u64 {
    let mut raw = [0u8; 8];
    raw.copy_from_slice(&bytes[offset..offset + 8]);
    u64::from_le_bytes(raw)
}

/// Writes `bytes` to `path` with the atomic protocol: temp file in the same
/// directory → `fsync` → rename over `path` → `fsync` the directory, so the
/// file is either fully the old content or fully the new one, never torn.
fn atomic_write(path: &Path, bytes: &[u8]) -> Result<(), DurabilityError> {
    let dir = path.parent().unwrap_or_else(|| Path::new("."));
    let file_name = path
        .file_name()
        .map(|n| n.to_string_lossy().into_owned())
        .unwrap_or_else(|| "durable".to_string());
    let tmp = dir.join(format!(".tmp-{file_name}"));
    {
        let mut file = File::create(&tmp).map_err(|e| io_err(&tmp, e))?;
        file.write_all(bytes).map_err(|e| io_err(&tmp, e))?;
        file.sync_all().map_err(|e| io_err(&tmp, e))?;
    }
    fs::rename(&tmp, path).map_err(|e| io_err(path, e))?;
    fsync_dir(dir)
}

/// Fsyncs a directory so a rename or creation within it is durable.
fn fsync_dir(dir: &Path) -> Result<(), DurabilityError> {
    let handle = File::open(dir).map_err(|e| io_err(dir, e))?;
    handle.sync_all().map_err(|e| io_err(dir, e))
}

/// The O(1) part of a version-2 payload. It stays JSON so no enum codec is
/// hand-written; everything O(parameters) or O(simulations) is a raw section.
#[derive(Serialize, Deserialize)]
struct CheckpointMeta {
    config: MlpConfig,
    batches_trained: usize,
    samples_seen: usize,
    experiment_seed: u64,
    /// Adam's configuration and step count, with the two moment sections.
    adam: Option<(AdamConfig, usize)>,
}

/// Bytes of the version-2 section table: the metadata length and three counts.
const SECTION_TABLE_LEN: usize = 4 * 8;

/// Appends `values` as raw little-endian bytes.
fn push_f32s(buf: &mut Vec<u8>, values: &[f32]) {
    let start = buf.len();
    buf.resize(start + 4 * values.len(), 0);
    for (raw, value) in buf[start..].chunks_exact_mut(4).zip(values) {
        raw.copy_from_slice(&value.to_le_bytes());
    }
}

fn read_f32s(raw: &[u8]) -> Vec<f32> {
    raw.chunks_exact(4)
        .map(|c| f32::from_le_bytes([c[0], c[1], c[2], c[3]]))
        .collect()
}

/// Serialises `checkpoint` into `bytes` (cleared first) as a version-2 file.
fn encode_checkpoint(
    bytes: &mut Vec<u8>,
    checkpoint: &ServerCheckpoint,
    identity: DurableIdentity,
    epoch: u64,
) -> Result<(), DurabilityError> {
    let adam = checkpoint.optimizer.as_ref();
    let meta = serde_json::to_string(&CheckpointMeta {
        config: checkpoint.model.config.clone(),
        batches_trained: checkpoint.batches_trained,
        samples_seen: checkpoint.samples_seen,
        experiment_seed: checkpoint.experiment_seed,
        adam: adam.map(|adam| (*adam.config(), adam.steps_taken())),
    })
    .map_err(|_| DurabilityError::Corrupt {
        path: PathBuf::from("<in-memory checkpoint>"),
        kind: CorruptKind::BadPayload,
    })?;
    let (first, second) = adam.map_or((&[][..], &[][..]), Adam::moments);
    let (completed, params) = (&checkpoint.completed_simulations, &checkpoint.model.params);
    let sections = 8 * completed.len() + 4 * (params.len() + first.len() + second.len());
    let payload_len = SECTION_TABLE_LEN + meta.len() + sections;
    bytes.clear();
    bytes.reserve(CHECKPOINT_HEADER_LEN + payload_len + 8);
    bytes.extend_from_slice(CHECKPOINT_MAGIC);
    push_u32(bytes, DURABLE_FORMAT_VERSION);
    push_u32(bytes, 0); // reserved
    push_u64(bytes, identity.experiment_seed);
    push_u64(bytes, identity.config_fingerprint);
    push_u64(bytes, epoch);
    push_u64(bytes, payload_len as u64);
    push_u64(bytes, meta.len() as u64);
    push_u64(bytes, completed.len() as u64);
    push_u64(bytes, params.len() as u64);
    push_u64(bytes, first.len() as u64);
    bytes.extend_from_slice(meta.as_bytes());
    for &simulation_id in completed {
        push_u64(bytes, simulation_id);
    }
    push_f32s(bytes, params);
    push_f32s(bytes, first);
    push_f32s(bytes, second);
    let checksum = Checksum64::digest(bytes);
    push_u64(bytes, checksum);
    Ok(())
}

/// A checkpoint file that passed every structural check: magic, a version
/// this build reads, a payload length inside the file, the checksum.
struct CheckpointFrame<'a> {
    version: u32,
    identity: DurableIdentity,
    epoch: u64,
    payload: &'a [u8],
}

fn checkpoint_frame(bytes: &[u8]) -> Result<CheckpointFrame<'_>, CorruptKind> {
    if bytes.len() < CHECKPOINT_HEADER_LEN + 8 {
        return Err(CorruptKind::TruncatedHeader);
    }
    if &bytes[..8] != CHECKPOINT_MAGIC {
        return Err(CorruptKind::BadMagic);
    }
    let version = read_u32(bytes, 8);
    if !(1..=DURABLE_FORMAT_VERSION).contains(&version) {
        return Err(CorruptKind::UnsupportedVersion);
    }
    // The length field is untrusted until the checksum it locates has been
    // verified: compare it against the room the file has, never add to it.
    let room = (bytes.len() - CHECKPOINT_HEADER_LEN - 8) as u64;
    let payload_len = read_u64(bytes, 40);
    if payload_len > room {
        return Err(CorruptKind::TruncatedPayload);
    }
    let payload_end = CHECKPOINT_HEADER_LEN + payload_len as usize;
    if Checksum64::digest(&bytes[..payload_end]) != read_u64(bytes, payload_end) {
        return Err(CorruptKind::ChecksumMismatch);
    }
    Ok(CheckpointFrame {
        version,
        identity: DurableIdentity {
            experiment_seed: read_u64(bytes, 16),
            config_fingerprint: read_u64(bytes, 24),
        },
        epoch: read_u64(bytes, 32),
        payload: &bytes[CHECKPOINT_HEADER_LEN..payload_end],
    })
}

/// Splits the next `count` elements of `width` bytes off `rest`; `None` when
/// the count — read from disk — overruns what is left of the payload.
fn take<'a>(rest: &mut &'a [u8], count: u64, width: usize) -> Option<&'a [u8]> {
    let len = usize::try_from(count).ok()?.checked_mul(width)?;
    let (head, tail) = rest.split_at_checked(len)?;
    *rest = tail;
    Some(head)
}

/// Parses a version-2 payload. Every count is checked against the bytes that
/// remain before anything is sized by it, and the counts must use the payload
/// up exactly.
fn decode_payload_v2(payload: &[u8]) -> Option<ServerCheckpoint> {
    let mut rest = payload;
    let table = take(&mut rest, 1, SECTION_TABLE_LEN)?;
    let meta = std::str::from_utf8(take(&mut rest, read_u64(table, 0), 1)?).ok()?;
    let meta: CheckpointMeta = serde_json::from_str(meta).ok()?;
    let completed = take(&mut rest, read_u64(table, 8), 8)?;
    let params = take(&mut rest, read_u64(table, 16), 4)?;
    let first = take(&mut rest, read_u64(table, 24), 4)?;
    let second = take(&mut rest, read_u64(table, 24), 4)?;
    let moments = if meta.adam.is_some() { params.len() } else { 0 };
    if !rest.is_empty() || first.len() != moments {
        return None;
    }
    Some(ServerCheckpoint {
        model: ModelCheckpoint {
            config: meta.config,
            params: read_f32s(params),
            batches_trained: meta.batches_trained,
            samples_seen: meta.samples_seen,
        },
        batches_trained: meta.batches_trained,
        samples_seen: meta.samples_seen,
        completed_simulations: completed.chunks_exact(8).map(|c| read_u64(c, 0)).collect(),
        experiment_seed: meta.experiment_seed,
        optimizer: meta.adam.map(|(config, steps)| {
            Adam::restore(config, steps, read_f32s(first), read_f32s(second))
        }),
    })
}

/// Parses and validates one checkpoint file, returning its epoch and payload.
fn decode_checkpoint(
    path: &Path,
    bytes: &[u8],
    identity: DurableIdentity,
) -> Result<(u64, ServerCheckpoint), DurabilityError> {
    let corrupt = |kind| DurabilityError::Corrupt {
        path: path.to_path_buf(),
        kind,
    };
    let frame = checkpoint_frame(bytes).map_err(corrupt)?;
    identity.expect_in(path, frame.identity)?;
    let checkpoint = if frame.version == 1 {
        std::str::from_utf8(frame.payload)
            .ok()
            .and_then(|json| ServerCheckpoint::from_json(json).ok())
    } else {
        decode_payload_v2(frame.payload)
    };
    // Either version: the parameters must be the model's, or restoring it
    // would panic on the length.
    checkpoint
        .filter(|cp| cp.model.config.param_count() == Some(cp.model.params.len()))
        .map(|checkpoint| (frame.epoch, checkpoint))
        .ok_or_else(|| corrupt(CorruptKind::BadPayload))
}

/// Rotation state of the durable store.
#[derive(Debug, Default)]
struct RotationState {
    /// Epoch the next save will be written as.
    next_epoch: u64,
    /// Number of checkpoints durably saved by this store instance.
    saved: usize,
    /// The encoded file of the last save, reused by the next: a steady-state
    /// save allocates nothing that grows with the model.
    encoded: Vec<u8>,
}

/// Crash-safe checkpoint store over one durability directory.
///
/// Every save is atomic (serialize to a temp file, fsync, rename, fsync the
/// directory); [`DurableCheckpointStore::load_latest`]
/// scans all checkpoint files and returns the newest one that validates,
/// skipping corrupt or foreign files — the automatic fallback required when
/// the newest write was torn by the crash that the restart is recovering
/// from. Retention keeps the newest `keep_last` files.
#[derive(Debug)]
pub struct DurableCheckpointStore {
    dir: PathBuf,
    identity: DurableIdentity,
    keep_last: usize,
    rotation: Mutex<RotationState>,
}

impl DurableCheckpointStore {
    /// Opens (creating if needed) the store in `dir`. Epoch numbering
    /// continues after the highest epoch already present, valid or not, so a
    /// resumed run never overwrites an existing file.
    pub fn open(
        dir: impl Into<PathBuf>,
        identity: DurableIdentity,
        keep_last: usize,
    ) -> Result<Self, DurabilityError> {
        let dir = dir.into();
        fs::create_dir_all(&dir).map_err(|e| io_err(&dir, e))?;
        let files = list_checkpoint_files(&dir)?;
        let next_epoch = files.last().map_or(0, |(epoch, _)| epoch + 1);
        Ok(Self {
            dir,
            identity,
            keep_last: keep_last.max(1),
            rotation: Mutex::new(RotationState {
                next_epoch,
                ..RotationState::default()
            }),
        })
    }

    /// The directory this store writes into.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// Number of checkpoints durably saved by this instance.
    pub fn saved(&self) -> usize {
        self.rotation.lock().saved
    }

    /// Durably saves `checkpoint` as the next epoch and applies retention.
    /// Returns the epoch written.
    pub fn save(&self, checkpoint: &ServerCheckpoint) -> Result<u64, DurabilityError> {
        let rotation = &mut *self.rotation.lock();
        let epoch = rotation.next_epoch;
        encode_checkpoint(&mut rotation.encoded, checkpoint, self.identity, epoch)?;
        let path = self.dir.join(checkpoint_file_name(epoch));
        atomic_write(&path, &rotation.encoded)?;
        rotation.next_epoch += 1;
        rotation.saved += 1;
        // Retention under the same lock: saves are serialized, so the listing
        // cannot race another rotation.
        let files = list_checkpoint_files(&self.dir)?;
        let excess = files.len().saturating_sub(self.keep_last);
        for (_, path) in files.into_iter().take(excess) {
            fs::remove_file(&path).map_err(|e| io_err(&path, e))?;
        }
        Ok(epoch)
    }

    /// Loads the newest checkpoint in the directory that passes validation,
    /// with the epoch it was saved as. Corrupt and foreign files are
    /// collected into the returned report instead of failing the whole load
    /// — the fallback behaviour a crash-torn directory needs.
    pub fn load_latest(&self) -> Result<LatestCheckpoint, DurabilityError> {
        let files = list_checkpoint_files(&self.dir)?;
        let mut rejected = Vec::new();
        let mut latest = None;
        // Newest first: the first file that validates wins.
        for (_, path) in files.into_iter().rev() {
            let bytes = fs::read(&path).map_err(|e| io_err(&path, e))?;
            match decode_checkpoint(&path, &bytes, self.identity) {
                Ok((epoch, checkpoint)) => {
                    latest = Some((epoch, checkpoint));
                    break;
                }
                Err(error) => rejected.push(error),
            }
        }
        Ok(LatestCheckpoint { latest, rejected })
    }
}

/// Result of scanning a durability directory for the newest valid checkpoint.
#[derive(Debug)]
pub struct LatestCheckpoint {
    /// The newest `(epoch, checkpoint)` that validated, if any.
    pub latest: Option<(u64, ServerCheckpoint)>,
    /// Files newer than the loaded checkpoint that failed validation (torn,
    /// corrupt or belonging to another experiment), newest first.
    pub rejected: Vec<DurabilityError>,
}

fn checkpoint_file_name(epoch: u64) -> String {
    format!("{CHECKPOINT_PREFIX}{epoch:010}")
}

/// All `ckpt-<epoch>` files in `dir` with their parsed epochs, oldest first.
fn list_checkpoint_files(dir: &Path) -> Result<Vec<(u64, PathBuf)>, DurabilityError> {
    let mut files = Vec::new();
    let entries = fs::read_dir(dir).map_err(|e| io_err(dir, e))?;
    for entry in entries {
        let entry = entry.map_err(|e| io_err(dir, e))?;
        let name = entry.file_name();
        let Some(name) = name.to_str() else { continue };
        let Some(epoch_text) = name.strip_prefix(CHECKPOINT_PREFIX) else {
            continue;
        };
        let Ok(epoch) = epoch_text.parse::<u64>() else {
            continue;
        };
        files.push((epoch, entry.path()));
    }
    files.sort_by_key(|(epoch, _)| *epoch);
    Ok(files)
}

/// Reads the [`DurableIdentity`] stamped into a directory's durable headers
/// *without* requiring it to match anything — the "whose directory is this?"
/// probe behind the friendly [`DurabilityError::ForeignDirectory`] diagnosis.
///
/// The journal header is consulted first (every durable run writes one on
/// open); when it is absent or structurally invalid, the newest structurally
/// valid checkpoint header supplies the identity instead. Returns `Ok(None)`
/// for a directory holding no readable durable artifact: such a directory is
/// a fresh start, not a foreign one. Only I/O failures are errors —
/// structural corruption is left for the resume path to report per file.
pub fn peek_identity(dir: impl AsRef<Path>) -> Result<Option<DurableIdentity>, DurabilityError> {
    let dir = dir.as_ref();
    let journal_path = dir.join(JOURNAL_FILE);
    if journal_path.exists() {
        let bytes = fs::read(&journal_path).map_err(|e| io_err(&journal_path, e))?;
        if let Ok(identity) = journal_header(&bytes) {
            return Ok(Some(identity));
        }
    }
    for (_, path) in list_checkpoint_files(dir)?.into_iter().rev() {
        let bytes = fs::read(&path).map_err(|e| io_err(&path, e))?;
        // Magic, version, payload bounds and whole-file checksum must hold.
        if let Ok(frame) = checkpoint_frame(&bytes) {
            return Ok(Some(frame.identity));
        }
    }
    Ok(None)
}

/// The identity in a structurally valid journal header: magic, version and
/// header checksum must all hold — a corrupt header cannot be trusted to name
/// an owner.
fn journal_header(bytes: &[u8]) -> Result<DurableIdentity, CorruptKind> {
    if bytes.len() < JOURNAL_HEADER_LEN {
        return Err(CorruptKind::TruncatedHeader);
    }
    if &bytes[..8] != JOURNAL_MAGIC {
        return Err(CorruptKind::BadMagic);
    }
    if read_u32(bytes, 8) != JOURNAL_FORMAT_VERSION {
        return Err(CorruptKind::UnsupportedVersion);
    }
    let body = JOURNAL_HEADER_LEN - 8;
    if Checksum64::digest(&bytes[..body]) != read_u64(bytes, body) {
        return Err(CorruptKind::ChecksumMismatch);
    }
    Ok(DurableIdentity {
        experiment_seed: read_u64(bytes, 16),
        config_fingerprint: read_u64(bytes, 24),
    })
}

/// Serialises the journal header for `identity`.
fn encode_journal_header(identity: DurableIdentity) -> Vec<u8> {
    let mut bytes = Vec::with_capacity(JOURNAL_HEADER_LEN);
    bytes.extend_from_slice(JOURNAL_MAGIC);
    push_u32(&mut bytes, JOURNAL_FORMAT_VERSION);
    push_u32(&mut bytes, 0); // reserved
    push_u64(&mut bytes, identity.experiment_seed);
    push_u64(&mut bytes, identity.config_fingerprint);
    let checksum = Checksum64::digest(&bytes);
    push_u64(&mut bytes, checksum);
    bytes
}

/// The checksum binding one journal record to its position and its run.
fn journal_record_checksum(identity: DurableIdentity, seq: u64, simulation_id: u64) -> u64 {
    let mut c = Checksum64::new();
    c.update(JOURNAL_MAGIC);
    c.update(&identity.experiment_seed.to_le_bytes());
    c.update(&identity.config_fingerprint.to_le_bytes());
    c.update(&seq.to_le_bytes());
    c.update(&simulation_id.to_le_bytes());
    c.finish()
}

fn encode_journal_record(identity: DurableIdentity, seq: u64, simulation_id: u64) -> Vec<u8> {
    let mut bytes = Vec::with_capacity(JOURNAL_RECORD_LEN);
    push_u64(&mut bytes, seq);
    push_u64(&mut bytes, simulation_id);
    push_u64(
        &mut bytes,
        journal_record_checksum(identity, seq, simulation_id),
    );
    bytes
}

/// Writer state of the completion journal.
#[derive(Debug)]
struct JournalWriter {
    file: File,
    /// Sequence number of the next record.
    next_seq: u64,
    /// Records appended since the last fsync.
    unflushed: usize,
}

/// Append-only, truncation-tolerant log of completed simulation ids.
///
/// Appends are batched: the file is fsynced every `flush_every` records (and
/// on [`CompletionJournal::flush`]), so a crash loses at most the records
/// since the last flush — exactly the re-simulation window the journal
/// shrinks the recovery to. On open, the existing log is replayed: the
/// header must validate, and records are read until the first torn or
/// corrupt one, where the file is truncated so later appends extend a clean
/// tail.
#[derive(Debug)]
pub struct CompletionJournal {
    path: PathBuf,
    identity: DurableIdentity,
    flush_every: usize,
    writer: Mutex<JournalWriter>,
}

impl CompletionJournal {
    /// Opens (creating if needed) the journal at `dir/journal` and replays
    /// it, returning the journal and the simulation ids already recorded.
    pub fn open(
        dir: impl AsRef<Path>,
        identity: DurableIdentity,
        flush_every: usize,
    ) -> Result<(Self, Vec<u64>), DurabilityError> {
        let dir = dir.as_ref();
        fs::create_dir_all(dir).map_err(|e| io_err(dir, e))?;
        let path = dir.join(JOURNAL_FILE);
        let exists = path.exists();
        if !exists {
            atomic_write(&path, &encode_journal_header(identity))?;
        }
        let mut bytes = Vec::new();
        let mut file = OpenOptions::new()
            .read(true)
            .write(true)
            .open(&path)
            .map_err(|e| io_err(&path, e))?;
        file.read_to_end(&mut bytes).map_err(|e| io_err(&path, e))?;
        let (replayed, valid_len) = Self::replay(&path, &bytes, identity)?;
        if valid_len < bytes.len() as u64 {
            // Torn tail: drop it so the next append extends a clean log.
            file.set_len(valid_len).map_err(|e| io_err(&path, e))?;
            file.sync_all().map_err(|e| io_err(&path, e))?;
        }
        file.seek(SeekFrom::Start(valid_len))
            .map_err(|e| io_err(&path, e))?;
        let journal = Self {
            path,
            identity,
            flush_every: flush_every.max(1),
            writer: Mutex::new(JournalWriter {
                file,
                next_seq: replayed.len() as u64,
                unflushed: 0,
            }),
        };
        Ok((journal, replayed))
    }

    /// Validates the header and replays the records of `bytes`, returning
    /// the recorded simulation ids and the byte length of the valid prefix.
    /// Header problems are errors (the file is not a journal of this run);
    /// record problems only end the replay (torn tail).
    fn replay(
        path: &Path,
        bytes: &[u8],
        identity: DurableIdentity,
    ) -> Result<(Vec<u64>, u64), DurabilityError> {
        let found = journal_header(bytes).map_err(|kind| DurabilityError::Corrupt {
            path: path.to_path_buf(),
            kind,
        })?;
        identity.expect_in(path, found)?;
        let mut replayed = Vec::new();
        let mut offset = JOURNAL_HEADER_LEN;
        while offset + JOURNAL_RECORD_LEN <= bytes.len() {
            let seq = read_u64(bytes, offset);
            let simulation_id = read_u64(bytes, offset + 8);
            let stored = read_u64(bytes, offset + 16);
            if seq != replayed.len() as u64
                || stored != journal_record_checksum(identity, seq, simulation_id)
            {
                break;
            }
            replayed.push(simulation_id);
            offset += JOURNAL_RECORD_LEN;
        }
        Ok((replayed, offset as u64))
    }

    /// Appends one completed simulation id. The write lands in the OS page
    /// cache immediately and is fsynced every `flush_every` appends.
    pub fn append(&self, simulation_id: u64) -> Result<(), DurabilityError> {
        let mut writer = self.writer.lock();
        let record = encode_journal_record(self.identity, writer.next_seq, simulation_id);
        writer
            .file
            .write_all(&record)
            .map_err(|e| io_err(&self.path, e))?;
        writer.next_seq += 1;
        writer.unflushed += 1;
        if writer.unflushed >= self.flush_every {
            writer.file.sync_data().map_err(|e| io_err(&self.path, e))?;
            writer.unflushed = 0;
        }
        Ok(())
    }

    /// Forces any unflushed records to disk.
    pub fn flush(&self) -> Result<(), DurabilityError> {
        let mut writer = self.writer.lock();
        if writer.unflushed > 0 {
            writer.file.sync_data().map_err(|e| io_err(&self.path, e))?;
            writer.unflushed = 0;
        }
        Ok(())
    }

    /// The journal file path.
    pub fn path(&self) -> &Path {
        &self.path
    }
}

/// What the recorder has already made durable, plus its degraded-mode latch.
#[derive(Debug, Default)]
struct RecorderLedger {
    /// Simulation ids already journaled (or subsumed by the checkpoint the
    /// run resumed from): only deltas are appended.
    journaled: HashSet<u64>,
    /// First disk error encountered; once set, the recorder stops writing
    /// (training continues without durability rather than aborting).
    first_error: Option<DurabilityError>,
}

/// The durable sink handed to the training loop: checkpoints go to the
/// [`DurableCheckpointStore`], completion deltas to the [`CompletionJournal`].
///
/// During training the recording methods are called from rank 0's sidecar
/// thread, one job at a time and in the order the learner captured the
/// snapshots (a job's completions before its checkpoint), so the directory
/// trails the learner by at most the sidecar's queue depth and is complete
/// once `RankTrainer::run` has returned; the server then records the final
/// checkpoint directly. No method panics: a disk failure flips the recorder
/// into a degraded mode that skips further writes and surfaces the first
/// error through [`DurableRecorder::first_error`].
#[derive(Debug)]
pub struct DurableRecorder {
    store: DurableCheckpointStore,
    journal: CompletionJournal,
    ledger: Mutex<RecorderLedger>,
}

impl DurableRecorder {
    /// Bundles an opened store and journal. `already_durable` seeds the
    /// journaled set with ids the journal replayed or the resumed checkpoint
    /// carries, so they are not re-appended.
    pub fn new(
        store: DurableCheckpointStore,
        journal: CompletionJournal,
        already_durable: impl IntoIterator<Item = u64>,
    ) -> Self {
        Self {
            store,
            journal,
            ledger: Mutex::new(RecorderLedger {
                journaled: already_durable.into_iter().collect(),
                first_error: None,
            }),
        }
    }

    /// Journals every id of `completed` not yet durable and flushes them;
    /// returns how many records were appended. Errors latch the degraded
    /// mode instead of propagating into the caller.
    pub fn record_completions(&self, completed: &[u64]) -> usize {
        let mut ledger = self.ledger.lock();
        if ledger.first_error.is_some() {
            return 0;
        }
        let mut appended = 0;
        for &simulation_id in completed {
            if !ledger.journaled.insert(simulation_id) {
                continue;
            }
            if let Err(error) = self.journal.append(simulation_id) {
                ledger.first_error = Some(error);
                return appended;
            }
            appended += 1;
        }
        if appended > 0 {
            if let Err(error) = self.journal.flush() {
                ledger.first_error = Some(error);
            }
        }
        appended
    }

    /// Durably saves `checkpoint`; its completed set is marked journaled
    /// (the checkpoint subsumes it). Returns whether the save landed; errors
    /// latch the degraded mode.
    pub fn record_checkpoint(&self, checkpoint: &ServerCheckpoint) -> bool {
        let mut ledger = self.ledger.lock();
        if ledger.first_error.is_some() {
            return false;
        }
        match self.store.save(checkpoint) {
            Ok(_) => {
                for &simulation_id in &checkpoint.completed_simulations {
                    ledger.journaled.insert(simulation_id);
                }
                true
            }
            Err(error) => {
                ledger.first_error = Some(error);
                false
            }
        }
    }

    /// The first disk error encountered, if the recorder degraded.
    pub fn first_error(&self) -> Option<String> {
        self.ledger
            .lock()
            .first_error
            .as_ref()
            .map(|e| e.to_string())
    }

    /// Number of checkpoints durably saved.
    pub fn checkpoints_saved(&self) -> usize {
        self.store.saved()
    }

    /// The durability directory.
    pub fn dir(&self) -> &Path {
        self.store.dir()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use surrogate_nn::{Activation, InitScheme, Mlp, MlpConfig};

    const IDENTITY: DurableIdentity = DurableIdentity {
        experiment_seed: 42,
        config_fingerprint: 0xFEED_BEEF,
    };

    fn model() -> Mlp {
        Mlp::new(MlpConfig {
            layer_sizes: vec![2, 4, 1],
            activation: Activation::ReLU,
            init: InitScheme::HeUniform,
            seed: 1,
        })
    }

    fn checkpoint(batches: usize, completed: Vec<u64>) -> ServerCheckpoint {
        ServerCheckpoint::capture(&model(), batches, batches * 10, completed, 42)
    }

    fn temp_dir(tag: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("melissa-durable-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn save_load_roundtrip_returns_the_newest_checkpoint() {
        let dir = temp_dir("roundtrip");
        let store = DurableCheckpointStore::open(&dir, IDENTITY, 5).unwrap();
        store.save(&checkpoint(2, vec![0])).unwrap();
        store.save(&checkpoint(4, vec![0, 1])).unwrap();
        let loaded = store.load_latest().unwrap();
        let (epoch, cp) = loaded.latest.unwrap();
        assert_eq!(epoch, 1);
        assert_eq!(cp.batches_trained, 4);
        assert_eq!(cp.completed_simulations, vec![0, 1]);
        assert!(loaded.rejected.is_empty());
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_checkpoint_file_is_its_header_its_sections_and_nothing_else() {
        // Four bytes per parameter, eight per id: a section that went back
        // through a text formatter would show here, not first in a benchmark.
        let dir = temp_dir("size");
        let store = DurableCheckpointStore::open(&dir, IDENTITY, 5).unwrap();
        let mut checkpoint = checkpoint(4, vec![3, 1, 4, 1, 5]);
        let params = checkpoint.model.params.len();
        for moments in [0, 2 * params] {
            let epoch = store.save(&checkpoint).unwrap();
            let bytes = fs::read(dir.join(checkpoint_file_name(epoch))).unwrap();
            let meta_len = read_u64(&bytes, CHECKPOINT_HEADER_LEN) as usize;
            assert!(meta_len < 512, "the metadata is O(1), not {meta_len} bytes");
            let payload = SECTION_TABLE_LEN + meta_len + 8 * 5 + 4 * (params + moments);
            assert_eq!(read_u64(&bytes, 40) as usize, payload);
            assert_eq!(bytes.len(), CHECKPOINT_HEADER_LEN + payload + 8);
            checkpoint.optimizer = Some(Adam::new(AdamConfig::default(), params));
        }
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn retention_keeps_only_the_newest_k() {
        let dir = temp_dir("retention");
        let store = DurableCheckpointStore::open(&dir, IDENTITY, 2).unwrap();
        for batches in 1..=5 {
            store.save(&checkpoint(batches, vec![])).unwrap();
        }
        let files = list_checkpoint_files(&dir).unwrap();
        let epochs: Vec<u64> = files.iter().map(|(epoch, _)| *epoch).collect();
        assert_eq!(epochs, vec![3, 4]);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn epoch_numbering_continues_across_reopen() {
        let dir = temp_dir("epochs");
        {
            let store = DurableCheckpointStore::open(&dir, IDENTITY, 5).unwrap();
            store.save(&checkpoint(1, vec![])).unwrap();
            store.save(&checkpoint(2, vec![])).unwrap();
        }
        let store = DurableCheckpointStore::open(&dir, IDENTITY, 5).unwrap();
        let epoch = store.save(&checkpoint(3, vec![])).unwrap();
        assert_eq!(epoch, 2, "epochs never collide across incarnations");
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn bit_flips_anywhere_are_detected_and_fall_back() {
        let dir = temp_dir("bitflip");
        let store = DurableCheckpointStore::open(&dir, IDENTITY, 5).unwrap();
        store.save(&checkpoint(2, vec![0])).unwrap();
        store.save(&checkpoint(4, vec![0, 1])).unwrap();
        let newest = dir.join(checkpoint_file_name(1));
        let original = fs::read(&newest).unwrap();
        // Flip one bit at a spread of offsets covering header, payload and
        // trailer; every flip must reject the file and fall back to epoch 0.
        for offset in [0, 9, 17, 33, 47, original.len() / 2, original.len() - 1] {
            let mut corrupted = original.clone();
            corrupted[offset] ^= 0x10;
            fs::write(&newest, &corrupted).unwrap();
            let loaded = store.load_latest().unwrap();
            let (epoch, cp) = loaded.latest.unwrap();
            assert_eq!(epoch, 0, "offset {offset} must fall back");
            assert_eq!(cp.batches_trained, 2);
            assert_eq!(loaded.rejected.len(), 1, "offset {offset}");
        }
        fs::write(&newest, &original).unwrap();
        assert_eq!(store.load_latest().unwrap().latest.unwrap().0, 1);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn truncation_at_any_length_is_detected() {
        let dir = temp_dir("truncate");
        let store = DurableCheckpointStore::open(&dir, IDENTITY, 5).unwrap();
        store.save(&checkpoint(2, vec![0])).unwrap();
        let path = dir.join(checkpoint_file_name(0));
        let original = fs::read(&path).unwrap();
        for len in [0, 7, CHECKPOINT_HEADER_LEN, original.len() - 1] {
            fs::write(&path, &original[..len]).unwrap();
            let loaded = store.load_latest().unwrap();
            assert!(loaded.latest.is_none(), "len {len} must be rejected");
            assert!(matches!(
                loaded.rejected[0],
                DurabilityError::Corrupt { .. }
            ));
        }
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn version_skew_is_rejected_even_with_a_valid_checksum() {
        let dir = temp_dir("version");
        let store = DurableCheckpointStore::open(&dir, IDENTITY, 5).unwrap();
        store.save(&checkpoint(2, vec![0])).unwrap();
        let path = dir.join(checkpoint_file_name(0));
        let mut bytes = fs::read(&path).unwrap();
        // Bump the version field and recompute the checksum, simulating a
        // file written by a future format version.
        bytes[8..12].copy_from_slice(&(DURABLE_FORMAT_VERSION + 1).to_le_bytes());
        let body_len = bytes.len() - 8;
        let checksum = Checksum64::digest(&bytes[..body_len]);
        bytes[body_len..].copy_from_slice(&checksum.to_le_bytes());
        fs::write(&path, &bytes).unwrap();
        let loaded = store.load_latest().unwrap();
        assert!(loaded.latest.is_none());
        assert!(matches!(
            loaded.rejected[0],
            DurabilityError::Corrupt {
                kind: CorruptKind::UnsupportedVersion,
                ..
            }
        ));
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn foreign_experiment_checkpoints_are_rejected() {
        let dir = temp_dir("foreign");
        let store = DurableCheckpointStore::open(&dir, IDENTITY, 5).unwrap();
        store.save(&checkpoint(2, vec![0])).unwrap();
        let other = DurableIdentity {
            experiment_seed: 43,
            ..IDENTITY
        };
        let other_store = DurableCheckpointStore::open(&dir, other, 5).unwrap();
        let loaded = other_store.load_latest().unwrap();
        assert!(loaded.latest.is_none());
        assert!(matches!(
            loaded.rejected[0],
            DurabilityError::IdentityMismatch {
                field: "experiment_seed",
                ..
            }
        ));
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn journal_appends_and_replays_in_order() {
        let dir = temp_dir("journal");
        {
            let (journal, replayed) = CompletionJournal::open(&dir, IDENTITY, 2).unwrap();
            assert!(replayed.is_empty());
            for sim in [3u64, 1, 4, 1, 5] {
                journal.append(sim).unwrap();
            }
            journal.flush().unwrap();
        }
        let (_, replayed) = CompletionJournal::open(&dir, IDENTITY, 2).unwrap();
        assert_eq!(replayed, vec![3, 1, 4, 1, 5]);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn torn_journal_tail_is_dropped_and_log_stays_appendable() {
        let dir = temp_dir("torn");
        {
            let (journal, _) = CompletionJournal::open(&dir, IDENTITY, 1).unwrap();
            for sim in 0..4u64 {
                journal.append(sim).unwrap();
            }
        }
        let path = dir.join(JOURNAL_FILE);
        let bytes = fs::read(&path).unwrap();
        // Tear mid-record: the last record loses its final 5 bytes.
        fs::write(&path, &bytes[..bytes.len() - 5]).unwrap();
        {
            let (journal, replayed) = CompletionJournal::open(&dir, IDENTITY, 1).unwrap();
            assert_eq!(replayed, vec![0, 1, 2], "torn record dropped");
            journal.append(9).unwrap();
        }
        let (_, replayed) = CompletionJournal::open(&dir, IDENTITY, 1).unwrap();
        assert_eq!(replayed, vec![0, 1, 2, 9], "appends extend the clean tail");
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn corrupt_journal_record_ends_the_replay_there() {
        let dir = temp_dir("midflip");
        {
            let (journal, _) = CompletionJournal::open(&dir, IDENTITY, 1).unwrap();
            for sim in 0..4u64 {
                journal.append(sim).unwrap();
            }
        }
        let path = dir.join(JOURNAL_FILE);
        let mut bytes = fs::read(&path).unwrap();
        // Flip a bit in record 1's simulation id: records 1..4 are dropped
        // (everything after a corrupt record is untrusted).
        let offset = JOURNAL_HEADER_LEN + JOURNAL_RECORD_LEN + 8;
        bytes[offset] ^= 0x01;
        fs::write(&path, &bytes).unwrap();
        let (_, replayed) = CompletionJournal::open(&dir, IDENTITY, 1).unwrap();
        assert_eq!(replayed, vec![0]);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn journal_header_corruption_is_a_typed_error() {
        let dir = temp_dir("jrnlhdr");
        {
            let _ = CompletionJournal::open(&dir, IDENTITY, 1).unwrap();
        }
        let path = dir.join(JOURNAL_FILE);
        let mut bytes = fs::read(&path).unwrap();
        bytes[2] ^= 0xFF;
        fs::write(&path, &bytes).unwrap();
        match CompletionJournal::open(&dir, IDENTITY, 1) {
            Err(DurabilityError::Corrupt { kind, .. }) => {
                assert_eq!(kind, CorruptKind::BadMagic);
            }
            other => panic!("expected corrupt-header error, got {other:?}"),
        }
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn peek_identity_reads_the_journal_then_falls_back_to_checkpoints() {
        let dir = temp_dir("peek");
        // Nothing durable yet: the directory is a fresh start, not foreign.
        assert_eq!(peek_identity(&dir).unwrap(), None);

        // A journal header is the authoritative identity source.
        {
            let _ = CompletionJournal::open(&dir, IDENTITY, 1).unwrap();
        }
        assert_eq!(peek_identity(&dir).unwrap(), Some(IDENTITY));

        // Corrupt the journal header: the peek must fall back to the newest
        // structurally valid checkpoint instead of trusting a broken owner.
        let store = DurableCheckpointStore::open(&dir, IDENTITY, 5).unwrap();
        store.save(&checkpoint(2, vec![0])).unwrap();
        let journal_path = dir.join(JOURNAL_FILE);
        let mut bytes = fs::read(&journal_path).unwrap();
        bytes[10] ^= 0xFF;
        fs::write(&journal_path, &bytes).unwrap();
        assert_eq!(peek_identity(&dir).unwrap(), Some(IDENTITY));

        // Corrupt the checkpoint too: no readable artifact, no identity.
        let ckpt_path = dir.join(checkpoint_file_name(0));
        let mut bytes = fs::read(&ckpt_path).unwrap();
        let len = bytes.len();
        bytes[len - 1] ^= 0xFF;
        fs::write(&ckpt_path, &bytes).unwrap();
        assert_eq!(peek_identity(&dir).unwrap(), None);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn foreign_directory_message_names_the_differing_knob_class() {
        let dir = PathBuf::from("/tmp/melissa-run");
        let seed_only = DurabilityError::ForeignDirectory {
            dir: dir.clone(),
            stored: IDENTITY,
            given: DurableIdentity {
                experiment_seed: 43,
                ..IDENTITY
            },
            diff: IdentityDiff::SeedOnly,
        };
        let message = seed_only.to_string();
        assert!(message.contains("the experiment seed differs"), "{message}");
        assert!(message.contains("stored 42, given 43"), "{message}");
        assert!(
            message.contains("the rest of the configuration matches"),
            "{message}"
        );

        let config_only = DurabilityError::ForeignDirectory {
            dir: dir.clone(),
            stored: IDENTITY,
            given: DurableIdentity {
                config_fingerprint: 0xDEAD_CAFE,
                ..IDENTITY
            },
            diff: IdentityDiff::ConfigOnly,
        };
        let message = config_only.to_string();
        assert!(message.contains("the configuration differs"), "{message}");
        assert!(message.contains("the seed matches"), "{message}");
        assert!(message.contains("0x00000000feedbeef"), "{message}");

        let both = DurabilityError::ForeignDirectory {
            dir,
            stored: IDENTITY,
            given: DurableIdentity {
                experiment_seed: 7,
                config_fingerprint: 1,
            },
            diff: IdentityDiff::Both,
        };
        let message = both.to_string();
        assert!(message.contains("both the experiment seed"), "{message}");
        assert!(message.contains("stored 42, given 7"), "{message}");
    }

    #[test]
    fn recorder_journals_only_deltas_and_latches_errors() {
        let dir = temp_dir("recorder");
        let store = DurableCheckpointStore::open(&dir, IDENTITY, 3).unwrap();
        let (journal, _) = CompletionJournal::open(&dir, IDENTITY, 1).unwrap();
        let recorder = DurableRecorder::new(store, journal, [7u64]);
        recorder.record_completions(&[7, 1, 2]);
        recorder.record_completions(&[1, 2, 3]);
        recorder.record_checkpoint(&checkpoint(4, vec![1, 2, 3]));
        assert_eq!(recorder.checkpoints_saved(), 1);
        assert!(recorder.first_error().is_none());
        let (_, replayed) = CompletionJournal::open(&dir, IDENTITY, 1).unwrap();
        assert_eq!(
            replayed,
            vec![1, 2, 3],
            "7 was pre-seeded, never re-journaled"
        );
        let _ = fs::remove_dir_all(&dir);
    }
}
