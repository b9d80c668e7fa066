//! Configuration of one training experiment.
//!
//! [`ExperimentConfig`] is plain serialisable data; [`ExperimentConfig::builder`]
//! is the fluent way to assemble one, and [`ExperimentConfig::validate`]
//! reports inconsistencies as typed [`ConfigError`]s.

use crate::error::ConfigError;
use crate::workload_spec::WorkloadSpec;
use heat_solver::SolverConfig;
use melissa_ensemble::{CampaignPlan, LauncherConfig};
use melissa_transport::fingerprint64;
use melissa_transport::FaultConfig;
use melissa_workload::PARAM_DIM;
use serde::{Deserialize, Serialize};
use std::path::{Path, PathBuf};
use surrogate_nn::{Activation, InitScheme, KernelIsa, MlpConfig};
use training_buffer::{BufferConfig, BufferKind};

/// The surrogate architecture description.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct SurrogateConfig {
    /// Width of the hidden layers (the paper uses 256).
    pub hidden_width: usize,
    /// Number of hidden layers (the paper uses 2).
    pub hidden_layers: usize,
    /// Weight-initialisation seed.
    pub seed: u64,
}

impl Default for SurrogateConfig {
    fn default() -> Self {
        Self {
            hidden_width: 32,
            hidden_layers: 2,
            seed: 0,
        }
    }
}

impl SurrogateConfig {
    /// Builds the MLP configuration for a given output size (the workload's
    /// field length). The input is always the parameter vector plus time.
    pub fn mlp_config(&self, output_size: usize) -> MlpConfig {
        let mut layer_sizes = vec![PARAM_DIM + 1];
        for _ in 0..self.hidden_layers {
            layer_sizes.push(self.hidden_width);
        }
        layer_sizes.push(output_size);
        MlpConfig {
            layer_sizes,
            activation: Activation::ReLU,
            init: InitScheme::HeUniform,
            seed: self.seed,
        }
    }
}

/// Training-loop parameters.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TrainingConfig {
    /// Batch size per rank (the paper uses 10).
    pub batch_size: usize,
    /// Number of data-parallel ranks ("GPUs"; the paper uses 1, 2 and 4).
    pub num_ranks: usize,
    /// Initial learning rate (paper: 1e-3).
    pub initial_learning_rate: f32,
    /// Halve the learning rate every this many *samples* (paper: 10,000); 0
    /// disables the decay.
    pub lr_halving_samples: usize,
    /// Run validation every this many batches on rank 0 (paper: 100); 0
    /// disables periodic validation.
    pub validation_interval_batches: usize,
    /// Number of held-out simulations in the validation set (paper: 10).
    pub validation_simulations: usize,
    /// GEMM threads per rank for the blocked training kernels; 0 = auto
    /// (all available cores for a single rank, serial when ranks already
    /// occupy the cores). Results are bit-identical for every value.
    pub gemm_threads: usize,
    /// Overlap batch assembly with compute: a per-rank prefetch stage
    /// assembles batch N+1 from the training buffer while the train step runs
    /// batch N (double-buffered handoff, single consumer). Sample order and
    /// training results are bit-identical to the non-prefetch path.
    pub prefetch: bool,
    /// Kernel ISA the compute core dispatches on: `auto` (default) picks the
    /// widest ISA the CPU supports, `scalar` forces the blocked reference
    /// kernels, a named ISA (`avx2`, `neon`) degrades to scalar when the CPU
    /// lacks it. Every resolved ISA is bit-identical on the training path, so
    /// this is an operational knob (excluded from the config fingerprint).
    #[serde(default)]
    pub kernel_isa: KernelIsa,
}

impl Default for TrainingConfig {
    fn default() -> Self {
        Self {
            batch_size: 10,
            num_ranks: 1,
            initial_learning_rate: 1e-3,
            lr_halving_samples: 10_000,
            validation_interval_batches: 100,
            validation_simulations: 10,
            gemm_threads: 0,
            prefetch: false,
            kernel_isa: KernelIsa::Auto,
        }
    }
}

impl TrainingConfig {
    /// Resolves the configured [`TrainingConfig::gemm_threads`] to a concrete
    /// thread count: an explicit value wins; `0` uses every available core
    /// when a single rank runs, and stays serial when multiple ranks already
    /// parallelise across cores.
    pub fn effective_gemm_threads(&self) -> usize {
        if self.gemm_threads > 0 {
            return self.gemm_threads;
        }
        if self.num_ranks > 1 {
            return 1;
        }
        std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1)
    }
}

/// On-disk durability of the recovery state (see [`crate::durable`]).
///
/// When present on an [`ExperimentConfig`], rank 0 writes crash-safe
/// checkpoints and an append-only completion journal into `directory`, and
/// [`crate::OnlineExperiment::resume_from_dir`] can restart the experiment
/// from that directory after a process kill.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct DurabilityConfig {
    /// Directory holding the checkpoint files and the journal (a string
    /// rather than a `PathBuf` because the vendored serde has no path
    /// impls; use [`DurabilityConfig::directory_path`] to consume it).
    pub directory: String,
    /// Durably save a checkpoint every this many trained batches on rank 0;
    /// 0 inherits [`ExperimentConfig::checkpoint_every_batches`].
    #[serde(default)]
    pub checkpoint_every_batches: usize,
}

impl DurabilityConfig {
    /// A configuration with the default cadence and retention for `directory`.
    pub fn new(directory: impl Into<String>) -> Self {
        Self {
            directory: directory.into(),
            checkpoint_every_batches: 0,
        }
    }

    /// The durability directory as a path.
    pub fn directory_path(&self) -> PathBuf {
        Path::new(&self.directory).to_path_buf()
    }

    /// The checkpoint cadence after inheriting `fallback` when unset here.
    pub fn effective_checkpoint_every(&self, fallback: usize) -> usize {
        if self.checkpoint_every_batches > 0 {
            self.checkpoint_every_batches
        } else {
            fallback
        }
    }
}

/// The full description of one experiment (online or offline).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ExperimentConfig {
    /// The physics the clients stream (grid, steps, Δt, variant).
    pub workload: WorkloadSpec,
    /// Surrogate architecture.
    pub surrogate: SurrogateConfig,
    /// Training-loop parameters.
    pub training: TrainingConfig,
    /// Buffer policy and sizing.
    pub buffer: BufferConfig,
    /// The ensemble campaign (series of clients, sampler, delays).
    pub campaign: CampaignPlan,
    /// Transport fault injection.
    pub fault: FaultConfig,
    /// Launcher behaviour: retry policy and watchdog failure detection.
    #[serde(default)]
    pub launcher: LauncherConfig,
    /// Capture a server checkpoint every this many trained batches on rank 0
    /// (0 disables periodic checkpointing). Checkpoints are what a restarted
    /// server resumes from after a crash (§3.1).
    #[serde(default)]
    pub checkpoint_every_batches: usize,
    /// On-disk durability of the recovery state: when set, checkpoints and
    /// the completion journal are persisted into the configured directory so
    /// a killed process can resume from disk. `None` (the default) keeps the
    /// PR 8 in-memory behaviour.
    #[serde(default)]
    pub durability: Option<DurabilityConfig>,
    /// Capacity of each shard's inbound channel.
    pub channel_capacity: usize,
    /// Ingest shards per rank: the number of data-aggregator worker threads
    /// (each with its own inbound channel and buffer shard) every server rank
    /// runs. 1 (the default) is the paper's single-aggregator design and is
    /// bit-identical to it; raise it when one rank fronts enough clients for
    /// ingestion to become the wall.
    pub ingest_shards: usize,
    /// Global experiment seed (buffers, validation set, shuffling).
    pub seed: u64,
}

impl Default for ExperimentConfig {
    fn default() -> Self {
        Self::small_scale()
    }
}

impl ExperimentConfig {
    /// Starts a fluent builder seeded with [`ExperimentConfig::small_scale`].
    pub fn builder() -> ExperimentConfigBuilder {
        ExperimentConfigBuilder::default()
    }

    /// A small configuration that runs in seconds on a laptop: 8 simulations of
    /// a 16×16 grid, analytic heat workload, Reservoir buffer, one rank.
    pub fn small_scale() -> Self {
        let solver = SolverConfig {
            nx: 16,
            ny: 16,
            steps: 20,
            ..SolverConfig::default()
        };
        let workload = WorkloadSpec::heat_analytic(solver);
        let total_samples = 8 * workload.steps();
        Self {
            workload,
            surrogate: SurrogateConfig::default(),
            training: TrainingConfig::default(),
            buffer: BufferConfig::paper_proportions(BufferKind::Reservoir, total_samples, 1),
            campaign: CampaignPlan::single_series(8, 4),
            fault: FaultConfig::none(),
            launcher: LauncherConfig::default(),
            checkpoint_every_batches: 0,
            durability: None,
            channel_capacity: 256,
            ingest_shards: 1,
            seed: 1,
        }
    }

    /// A configuration mirroring the paper's §4.3–4.5 experiments, scaled by
    /// `scale` (1.0 = 250 simulations of 100 steps; grids stay small so the
    /// experiment remains laptop-sized).
    pub fn paper_scaled(scale: f64, buffer_kind: BufferKind, num_ranks: usize) -> Self {
        let solver = SolverConfig {
            nx: 24,
            ny: 24,
            steps: 100,
            ..SolverConfig::default()
        };
        let workload = WorkloadSpec::heat_analytic(solver);
        let campaign = CampaignPlan::paper_figure2(scale);
        let total_samples = campaign.total_clients() * workload.steps();
        let mut config = Self {
            workload,
            surrogate: SurrogateConfig::default(),
            training: TrainingConfig {
                num_ranks,
                ..TrainingConfig::default()
            },
            buffer: BufferConfig::paper_proportions(buffer_kind, total_samples, 7),
            campaign,
            fault: FaultConfig::none(),
            launcher: LauncherConfig::default(),
            checkpoint_every_batches: 0,
            durability: None,
            channel_capacity: 1024,
            ingest_shards: 1,
            seed: 7,
        };
        config.training.validation_simulations = 10.min(config.campaign.total_clients());
        config
    }

    /// Total number of simulations the campaign runs.
    pub fn total_simulations(&self) -> usize {
        self.campaign.total_clients()
    }

    /// Total number of unique samples the campaign produces.
    pub fn total_unique_samples(&self) -> usize {
        self.total_simulations() * self.workload.steps()
    }

    /// Total dataset size in bytes produced by the campaign.
    pub fn dataset_bytes(&self) -> usize {
        self.total_simulations() * self.workload.trajectory_bytes()
    }

    /// The surrogate output size (one value per grid node).
    pub fn output_size(&self) -> usize {
        self.workload.field_len()
    }

    /// A deterministic per-rank seed derived from the experiment seed, used
    /// wherever a rank-local randomised resource is built.
    pub fn rank_seed(&self, rank: usize) -> u64 {
        self.seed.wrapping_add(rank as u64)
    }

    /// The buffer configuration of one rank: the shared policy with the rank's
    /// derived seed, so no caller re-implements the seeding rule.
    pub fn rank_buffer_config(&self, rank: usize) -> BufferConfig {
        let mut buffer = self.buffer;
        buffer.seed = self.rank_seed(rank);
        buffer
    }

    /// A deterministic per-epoch shuffling seed (offline training).
    pub fn epoch_seed(&self, epoch: usize) -> u64 {
        self.seed.wrapping_add(epoch as u64)
    }

    /// The seed of the held-out validation sampler, offset far from the
    /// training campaign's seed so the two parameter sets never coincide.
    pub fn validation_seed(&self) -> u64 {
        self.seed.wrapping_add(0x5EED_5EED)
    }

    /// A stable fingerprint of the fields that determine the *semantics* of
    /// the run — which simulations exist, what they stream, how training
    /// consumes it. Durable checkpoints and journals are stamped with this so
    /// a resume against a semantically different configuration is rejected.
    /// Operational knobs (the split of the clients into series, the delay
    /// between series, channel capacities, kernel ISA, launcher policy) are
    /// deliberately excluded: changing them must not block a resume.
    pub fn config_fingerprint(&self) -> u64 {
        let semantic = format!(
            "workload={} steps={} field={} campaign={} sampler={:?} campaign_seed={} \
             buffer={:?}/{}/{}/{} ranks={} batch={} seed={}",
            self.workload.name(),
            self.workload.steps(),
            self.workload.field_len(),
            self.campaign.total_clients(),
            self.campaign.sampler,
            self.campaign.seed,
            self.buffer.kind,
            self.buffer.capacity,
            self.buffer.threshold,
            self.buffer.seed,
            self.training.num_ranks,
            self.training.batch_size,
            self.seed,
        );
        fingerprint64(semantic.as_bytes())
    }

    /// Validates cross-field consistency.
    pub fn validate(&self) -> Result<(), ConfigError> {
        self.workload.validate()?;
        if self.training.batch_size == 0 {
            return Err(ConfigError::ZeroBatchSize);
        }
        if self.training.num_ranks == 0 {
            return Err(ConfigError::ZeroRanks);
        }
        if self.buffer.capacity <= self.buffer.threshold {
            return Err(ConfigError::BufferCapacityNotAboveThreshold {
                capacity: self.buffer.capacity,
                threshold: self.buffer.threshold,
            });
        }
        if self.campaign.total_clients() == 0 {
            return Err(ConfigError::EmptyCampaign);
        }
        if self.ingest_shards == 0 {
            return Err(ConfigError::ZeroIngestShards);
        }
        if self.ingest_shards > self.campaign.total_clients() {
            return Err(ConfigError::IngestShardsExceedClients {
                shards: self.ingest_shards,
                clients: self.campaign.total_clients(),
            });
        }
        Ok(())
    }
}

/// Fluent builder for [`ExperimentConfig`].
///
/// Starts from [`ExperimentConfig::small_scale`] and lets call sites override
/// exactly what they care about; [`ExperimentConfigBuilder::build`] validates
/// the result, so a successfully built configuration is always runnable.
///
/// ```
/// use melissa::{ExperimentConfig, WorkloadSpec};
/// use melissa_workload::AdvectionConfig;
///
/// let config = ExperimentConfig::builder()
///     .workload(WorkloadSpec::advection_analytic(AdvectionConfig::default()))
///     .ranks(2)
///     .batch_size(8)
///     .build()
///     .expect("consistent configuration");
/// assert_eq!(config.training.num_ranks, 2);
/// ```
#[derive(Debug, Clone, Default)]
pub struct ExperimentConfigBuilder {
    config: ExperimentConfig,
}

impl ExperimentConfigBuilder {
    /// Starts from an existing configuration instead of the small-scale default.
    pub fn from_config(config: ExperimentConfig) -> Self {
        Self { config }
    }

    /// Sets the workload (physics, grid, steps, variant).
    pub fn workload(mut self, workload: WorkloadSpec) -> Self {
        self.config.workload = workload;
        self
    }

    /// Sets the surrogate architecture.
    pub fn surrogate(mut self, surrogate: SurrogateConfig) -> Self {
        self.config.surrogate = surrogate;
        self
    }

    /// Sets the full training configuration.
    pub fn training(mut self, training: TrainingConfig) -> Self {
        self.config.training = training;
        self
    }

    /// Sets the buffer policy and sizing.
    pub fn buffer(mut self, buffer: BufferConfig) -> Self {
        self.config.buffer = buffer;
        self
    }

    /// Sizes the buffer with the paper's capacity/threshold proportions for
    /// the *current* workload and campaign. Call after [`Self::workload`] and
    /// [`Self::campaign`].
    pub fn buffer_paper_proportions(mut self, kind: BufferKind) -> Self {
        let total = self.config.total_unique_samples();
        self.config.buffer = BufferConfig::paper_proportions(kind, total, self.config.seed);
        self
    }

    /// Sets the campaign plan.
    pub fn campaign(mut self, campaign: CampaignPlan) -> Self {
        self.config.campaign = campaign;
        self
    }

    /// Sets the transport fault injection.
    pub fn fault(mut self, fault: FaultConfig) -> Self {
        self.config.fault = fault;
        self
    }

    /// Sets the launcher behaviour (retry policy, watchdog).
    pub fn launcher(mut self, launcher: LauncherConfig) -> Self {
        self.config.launcher = launcher;
        self
    }

    /// Sets the checkpoint cadence in trained batches (0 disables).
    pub fn checkpoint_every_batches(mut self, batches: usize) -> Self {
        self.config.checkpoint_every_batches = batches;
        self
    }

    /// Enables on-disk durability of the recovery state.
    pub fn durability(mut self, durability: DurabilityConfig) -> Self {
        self.config.durability = Some(durability);
        self
    }

    /// Sets the per-rank inbound channel capacity.
    pub fn channel_capacity(mut self, capacity: usize) -> Self {
        self.config.channel_capacity = capacity;
        self
    }

    /// Sets the global experiment seed.
    pub fn seed(mut self, seed: u64) -> Self {
        self.config.seed = seed;
        self
    }

    /// Sets the number of data-parallel training ranks.
    pub fn ranks(mut self, num_ranks: usize) -> Self {
        self.config.training.num_ranks = num_ranks;
        self
    }

    /// Sets the per-rank batch size.
    pub fn batch_size(mut self, batch_size: usize) -> Self {
        self.config.training.batch_size = batch_size;
        self
    }

    /// Sets the hidden-layer width of the surrogate.
    pub fn hidden_width(mut self, hidden_width: usize) -> Self {
        self.config.surrogate.hidden_width = hidden_width;
        self
    }

    /// Sets the validation-set size and cadence.
    pub fn validation(mut self, simulations: usize, interval_batches: usize) -> Self {
        self.config.training.validation_simulations = simulations;
        self.config.training.validation_interval_batches = interval_batches;
        self
    }

    /// Sets the per-rank GEMM thread count (0 = auto).
    pub fn gemm_threads(mut self, threads: usize) -> Self {
        self.config.training.gemm_threads = threads;
        self
    }

    /// Sets the kernel-ISA request the compute core dispatches on
    /// (`auto` / `scalar` / a named ISA; bit-identical either way).
    pub fn kernel_isa(mut self, isa: KernelIsa) -> Self {
        self.config.training.kernel_isa = isa;
        self
    }

    /// Enables or disables the per-rank batch prefetch pipeline.
    pub fn prefetch(mut self, prefetch: bool) -> Self {
        self.config.training.prefetch = prefetch;
        self
    }

    /// Sets the ingest shards per rank (aggregator worker threads + buffer
    /// shards; 1 = the paper's single-aggregator design).
    pub fn ingest_shards(mut self, ingest_shards: usize) -> Self {
        self.config.ingest_shards = ingest_shards;
        self
    }

    /// Validates and returns the configuration.
    pub fn build(self) -> Result<ExperimentConfig, ConfigError> {
        self.config.validate()?;
        Ok(self.config)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use melissa_workload::AdvectionConfig;
    use std::time::Duration;

    #[test]
    fn small_scale_is_valid() {
        let config = ExperimentConfig::small_scale();
        assert!(config.validate().is_ok());
        assert_eq!(config.total_simulations(), 8);
        assert_eq!(config.total_unique_samples(), 160);
        assert_eq!(config.output_size(), 256);
    }

    #[test]
    fn paper_scaled_matches_series_structure() {
        let config = ExperimentConfig::paper_scaled(0.1, BufferKind::Fifo, 2);
        assert!(config.validate().is_ok());
        assert_eq!(config.campaign.series.len(), 3);
        assert_eq!(config.total_simulations(), 25);
        assert_eq!(config.training.num_ranks, 2);
        assert_eq!(config.buffer.kind, BufferKind::Fifo);
    }

    #[test]
    fn surrogate_config_builds_paper_shape() {
        let s = SurrogateConfig {
            hidden_width: 256,
            hidden_layers: 2,
            seed: 3,
        };
        let mlp = s.mlp_config(1_000_000);
        assert_eq!(mlp.layer_sizes, vec![6, 256, 256, 1_000_000]);
    }

    #[test]
    fn validation_catches_inconsistencies() {
        let mut config = ExperimentConfig::small_scale();
        config.training.batch_size = 0;
        assert_eq!(config.validate(), Err(ConfigError::ZeroBatchSize));

        let mut config = ExperimentConfig::small_scale();
        config.buffer.threshold = config.buffer.capacity;
        assert!(matches!(
            config.validate(),
            Err(ConfigError::BufferCapacityNotAboveThreshold { .. })
        ));

        let mut config = ExperimentConfig::small_scale();
        config.campaign.series.clear();
        assert_eq!(config.validate(), Err(ConfigError::EmptyCampaign));

        let mut config = ExperimentConfig::small_scale();
        config.training.num_ranks = 0;
        assert_eq!(config.validate(), Err(ConfigError::ZeroRanks));
    }

    #[test]
    fn dataset_accounting() {
        let config = ExperimentConfig::small_scale();
        // 8 simulations × 20 steps × 16×16 × 4 bytes.
        assert_eq!(config.dataset_bytes(), 8 * 20 * 256 * 4);
    }

    #[test]
    fn gemm_threads_resolution() {
        let mut training = TrainingConfig::default();
        assert!(training.effective_gemm_threads() >= 1);
        training.gemm_threads = 3;
        assert_eq!(training.effective_gemm_threads(), 3);
        training.gemm_threads = 0;
        training.num_ranks = 4;
        assert_eq!(training.effective_gemm_threads(), 1);
    }

    #[test]
    fn derived_seeds_are_deterministic_and_distinct() {
        let config = ExperimentConfig::small_scale();
        assert_eq!(config.rank_seed(0), config.seed);
        assert_ne!(config.rank_seed(1), config.rank_seed(2));
        assert_eq!(config.rank_buffer_config(3).seed, config.rank_seed(3));
        assert_eq!(config.rank_buffer_config(3).kind, config.buffer.kind);
        assert_ne!(config.validation_seed(), config.seed);
        assert_eq!(config.epoch_seed(0), config.seed);
    }

    #[test]
    fn builder_composes_and_validates() {
        let config = ExperimentConfig::builder()
            .workload(WorkloadSpec::advection_analytic(AdvectionConfig::default()))
            .campaign(CampaignPlan::single_series(6, 3))
            .buffer_paper_proportions(BufferKind::Fifo)
            .ranks(2)
            .batch_size(4)
            .hidden_width(16)
            .validation(2, 5)
            .seed(9)
            .build()
            .unwrap();
        assert_eq!(config.training.num_ranks, 2);
        assert_eq!(config.buffer.kind, BufferKind::Fifo);
        assert_eq!(config.total_unique_samples(), 6 * 25);
        assert_eq!(config.output_size(), 256);
        assert_eq!(config.seed, 9);
    }

    #[test]
    fn fingerprint_tracks_semantic_fields_only() {
        let base = ExperimentConfig::small_scale();
        assert_eq!(base.config_fingerprint(), base.config_fingerprint());

        let mut seeded = base.clone();
        seeded.seed = base.seed + 1;
        assert_ne!(seeded.config_fingerprint(), base.config_fingerprint());

        let mut resized = base.clone();
        resized.buffer.capacity += 1;
        assert_ne!(resized.config_fingerprint(), base.config_fingerprint());

        // Operational knobs must not perturb the fingerprint. The SIGKILL
        // harness in `tests/durability.rs` depends on the series layout and
        // `inter_series_delay` staying out: its child idles in a two-series
        // gap and the parent resumes with the single-series config.
        let mut operational = base.clone();
        operational.channel_capacity *= 2;
        operational.campaign.inter_series_delay = Duration::from_millis(5);
        assert_eq!(operational.config_fingerprint(), base.config_fingerprint());
    }

    #[test]
    fn durability_config_defaults_and_inheritance() {
        let d = DurabilityConfig::new("/tmp/somewhere");
        assert_eq!(d.effective_checkpoint_every(25), 25);
        let explicit = DurabilityConfig {
            checkpoint_every_batches: 10,
            ..d
        };
        assert_eq!(explicit.effective_checkpoint_every(25), 10);

        let config = ExperimentConfig::builder()
            .durability(DurabilityConfig::new("/tmp/somewhere"))
            .build()
            .unwrap();
        assert!(config.durability.is_some());
        assert!(ExperimentConfig::small_scale().durability.is_none());
    }

    #[test]
    fn builder_rejects_inconsistent_configs() {
        let result = ExperimentConfig::builder().batch_size(0).build();
        assert_eq!(result, Err(ConfigError::ZeroBatchSize));
    }

    #[test]
    fn builder_accepts_a_valid_shard_count() {
        // The small-scale campaign has 8 clients.
        let config = ExperimentConfig::builder()
            .ingest_shards(4)
            .build()
            .unwrap();
        assert_eq!(config.ingest_shards, 4);
        assert_eq!(ExperimentConfig::small_scale().ingest_shards, 1);
    }

    #[test]
    fn builder_rejects_zero_ingest_shards() {
        let result = ExperimentConfig::builder().ingest_shards(0).build();
        assert_eq!(result, Err(ConfigError::ZeroIngestShards));
    }

    #[test]
    fn builder_rejects_more_shards_than_clients() {
        // The small-scale campaign has 8 clients; 9 shards cannot all be fed.
        let result = ExperimentConfig::builder().ingest_shards(9).build();
        assert_eq!(
            result,
            Err(ConfigError::IngestShardsExceedClients {
                shards: 9,
                clients: 8,
            })
        );
    }
}
