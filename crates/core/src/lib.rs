//! # melissa
//!
//! The core of the reproduction of *"High Throughput Training of Deep
//! Surrogates from Large Ensemble Runs"* (SC'23): an online training framework
//! that trains a deep surrogate **while** an ensemble of solver runs generates
//! the data, streaming every computed time step straight from the clients to
//! the training server — no files, no I/O bottleneck.
//!
//! ## Architecture (paper §3.1)
//!
//! ```text
//!  launcher ──▶ client jobs (heat-solver / synthetic workload)      CPU side
//!                  │  ClientConnection::send(u_X^t)  (round-robin to all ranks)
//!                  ▼
//!  server rank 0..N-1 (one per "GPU"):
//!      data-aggregator shard workers (× ingest_shards, default 1)
//!          ──▶ sharded training buffer (FIFO/FIRO/Reservoir per shard)
//!      training thread        ◀── batches ── buffer (cross-shard draws)
//!           │  forward/backward on the MLP replica
//!           ▼
//!      training round across ranks: each reduces and Adam-steps its 1/N of
//!      the parameters, then gathers the rest — identical replicas everywhere
//!      rank 0 only: sidecar thread ◀── snapshots ── training thread
//!           validation, checkpoint persistence, completion journal
//! ```
//!
//! * [`ExperimentConfig`] describes one experiment (workload, surrogate,
//!   buffer, rank count, schedules, validation); it is assembled fluently with
//!   [`ExperimentConfig::builder`] and validated into typed [`ConfigError`]s.
//! * [`WorkloadSpec`] names the physics the clients stream. The pipeline only
//!   ever sees it through the physics-agnostic `melissa_workload::Workload`
//!   trait, so any physics implementing that trait trains the same way (the
//!   heat equation and the advection–diffusion reference both ship).
//! * [`OnlineExperiment`] runs the full online pipeline and returns an
//!   [`ExperimentReport`] with losses, throughput, buffer population and sample
//!   occurrence histograms — everything needed to regenerate the paper's
//!   figures and tables.
//! * [`OfflineExperiment`] is the baseline: data are first generated to a
//!   [`SimulatedDisk`], then read back for epoch-based training by the same
//!   [`RankTrainer`] loop, each rank reading its share of every epoch through
//!   an [`offline::EpochReader`] instead of a training buffer.
//! * [`ServerCheckpoint`] captures the server state (model, progress, message
//!   log) for the fault-tolerance path.

pub mod aggregator;
pub mod checkpoint;
pub mod config;
pub mod disk;
pub mod durable;
pub mod error;
pub mod metrics;
pub mod offline;
pub mod recovery;
pub mod report;
pub mod sample;
pub mod server;
mod sidecar;
pub mod trainer;
pub mod validation;
pub mod workload_spec;

pub use aggregator::{Aggregator, AggregatorOutcome};
pub use checkpoint::ServerCheckpoint;
pub use config::{
    DurabilityConfig, ExperimentConfig, ExperimentConfigBuilder, SurrogateConfig, TrainingConfig,
};
pub use disk::{DiskConfig, SimulatedDisk};
pub use durable::{
    peek_identity, CompletionJournal, CorruptKind, DurabilityError, DurableCheckpointStore,
    DurableIdentity, DurableRecorder, IdentityDiff, LatestCheckpoint, DURABLE_FORMAT_VERSION,
};
pub use error::{ConfigError, ExperimentError};
pub use metrics::{
    ExperimentMetrics, LossPoint, OccurrenceHistogram, OccurrenceTable, ThroughputPoint,
    ThroughputTracker,
};
pub use offline::OfflineExperiment;
pub use recovery::{CheckpointStore, IngestControl, ReceptionGate, RecoveryHooks, RecoveryTracker};
pub use report::{ExperimentReport, SidecarReport};
pub use sample::{
    fill_batch_from_buffer, payload_into_sample, payload_to_sample, step_to_payload, step_to_sample,
};
pub use server::OnlineExperiment;
pub use trainer::{RankTrainer, TrainerShared};
pub use validation::ValidationSet;
pub use workload_spec::WorkloadSpec;
