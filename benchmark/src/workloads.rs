//! The four workloads. Each is one `ExperimentConfig` — a fixed ensemble
//! streamed closed-loop (clients block on backpressure) into the training
//! server — chosen so that a different set of layers sets the result.

use heat_solver::SolverConfig;
use melissa::{DurabilityConfig, ExperimentConfig, SurrogateConfig, TrainingConfig, WorkloadSpec};
use melissa_ensemble::CampaignPlan;
use std::path::Path;
use training_buffer::{BufferConfig, BufferKind};

/// Time steps (= unique samples) every simulation produces.
pub const STEPS_PER_SIMULATION: usize = 100;
/// Samples per batch and rank (the paper's value).
pub const BATCH_SIZE: usize = 10;

/// How much of the full campaign one run of the experiment streams.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Size {
    /// A recorded replicate.
    Full,
    /// The discarded warm-up replicate: a fifth of the campaign.
    WarmUp,
    /// The `--check` smoke run: a twentieth of the campaign, 5 simulations or more.
    Check,
}

pub struct Workload {
    pub name: &'static str,
    /// Why the workload exists: which layers set its result.
    pub why: &'static str,
    /// Simulations of a full-size replicate.
    pub simulations: usize,
    /// Client threads the launcher runs at once: the load generator is a
    /// closed loop of this many clients.
    pub clients: usize,
    /// Grid nodes per side; the surrogate has `grid²` outputs.
    pub grid: usize,
    /// The implicit-Euler + CG solver instead of the analytic field.
    pub real_solver: bool,
    pub hidden_width: usize,
    pub buffer: BufferKind,
    pub capacity: usize,
    pub threshold: usize,
    pub ranks: usize,
    pub ingest_shards: usize,
    pub validation_interval_batches: usize,
    /// Durable checkpoints every this many batches (0 = no durability).
    pub checkpoint_every_batches: usize,
}

pub const WORKLOADS: [Workload; 4] = [
    Workload {
        name: "train_bound",
        why: "paper MLP 6-256-256-576 on a full Reservoir: nn does most of the learner's work and producers wait, so GEMM, optimizer and loop changes show here and data-plane changes do not",
        simulations: 200,
        clients: 2,
        grid: 24,
        real_solver: false,
        hidden_width: 256,
        buffer: BufferKind::Reservoir,
        capacity: 4096,
        threshold: 512,
        ranks: 1,
        ingest_shards: 1,
        validation_interval_batches: 100,
        checkpoint_every_batches: 0,
    },
    Workload {
        name: "stream_bound",
        why: "tiny MLP behind a write-once FIFO fed by 1000 analytic clients: workload, ensemble, transport, aggregator, buffer and per-batch trainer bookkeeping do the work, nn little",
        simulations: 1000,
        clients: 1,
        grid: 24,
        real_solver: false,
        hidden_width: 16,
        buffer: BufferKind::Fifo,
        capacity: 4096,
        threshold: 0,
        ranks: 1,
        ingest_shards: 1,
        validation_interval_batches: 1000,
        checkpoint_every_batches: 0,
    },
    Workload {
        name: "solver_bound",
        why: "real implicit-Euler+CG solver on 64x64, slower than the learner (the paper's regime): heat-solver sets the stream rate and the Reservoir re-serves samples to keep the learner busy",
        simulations: 50,
        clients: 1,
        grid: 64,
        real_solver: true,
        hidden_width: 16,
        buffer: BufferKind::Reservoir,
        capacity: 2048,
        threshold: 256,
        ranks: 1,
        ingest_shards: 1,
        validation_interval_batches: 1000,
        checkpoint_every_batches: 0,
    },
    Workload {
        name: "recovery_2rank",
        why: "train_bound's kernels on 2 ranks x 2 ingest shards with FIRO, durable checkpoints and journal: all-reduce, sharded consumer gate, checkpoint capture/encode/fsync and validation stalls surround nn",
        simulations: 250,
        clients: 2,
        grid: 24,
        real_solver: false,
        hidden_width: 256,
        buffer: BufferKind::Firo,
        capacity: 4096,
        threshold: 512,
        ranks: 2,
        ingest_shards: 2,
        validation_interval_batches: 100,
        checkpoint_every_batches: 100,
    },
];

pub fn find(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

impl Size {
    /// The name a replicate's child process is told its size by.
    pub fn name(self) -> &'static str {
        match self {
            Size::Full => "full",
            Size::WarmUp => "warm-up",
            Size::Check => "check",
        }
    }

    pub fn parse(name: &str) -> Option<Self> {
        [Size::Full, Size::WarmUp, Size::Check]
            .into_iter()
            .find(|size| size.name() == name)
    }
}

impl Workload {
    pub fn simulations_at(&self, size: Size) -> usize {
        match size {
            Size::Full => self.simulations,
            Size::WarmUp => self.simulations / 5,
            // At least 5: `solver_bound`'s reservoir must pass its threshold
            // of 256 samples while clients still produce, or it never re-serves.
            Size::Check => (self.simulations / 20).max(5),
        }
    }

    pub fn is_durable(&self) -> bool {
        self.checkpoint_every_batches > 0
    }

    /// FIFO and FIRO serve every sample exactly once.
    pub fn serves_once(&self) -> bool {
        self.buffer != BufferKind::Reservoir
    }

    /// The experiment of one replicate. `seed` feeds the experiment, campaign
    /// and surrogate seeds; `durable_dir` is where a durable workload keeps
    /// its checkpoints and journal.
    pub fn config(&self, seed: u64, size: Size, durable_dir: &Path) -> ExperimentConfig {
        let solver = SolverConfig {
            nx: self.grid,
            ny: self.grid,
            steps: STEPS_PER_SIMULATION,
            ..SolverConfig::default()
        };
        let spec = if self.real_solver {
            WorkloadSpec::heat(solver)
        } else {
            WorkloadSpec::heat_analytic(solver)
        };
        let mut builder = ExperimentConfig::builder()
            .workload(spec)
            .surrogate(SurrogateConfig {
                hidden_width: self.hidden_width,
                hidden_layers: 2,
                seed,
            })
            .training(TrainingConfig {
                batch_size: BATCH_SIZE,
                num_ranks: self.ranks,
                validation_interval_batches: self.validation_interval_batches,
                validation_simulations: 10,
                // One GEMM thread: the auto default spawns scoped threads per
                // output-layer GEMM and measures the scheduler (see README).
                gemm_threads: 1,
                prefetch: false,
                ..TrainingConfig::default()
            })
            .buffer(BufferConfig {
                kind: self.buffer,
                capacity: self.capacity,
                threshold: self.threshold,
                seed,
            })
            .campaign(
                CampaignPlan::single_series(self.simulations_at(size), self.clients)
                    .with_seed(seed),
            )
            .channel_capacity(1024)
            .ingest_shards(self.ingest_shards)
            .seed(seed);
        if self.is_durable() {
            let mut durability = DurabilityConfig::new(durable_dir.to_string_lossy());
            durability.checkpoint_every_batches = self.checkpoint_every_batches;
            builder = builder.durability(durability);
        }
        builder
            .build()
            .expect("the workload table holds consistent configurations")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_workload_builds_at_every_size() {
        for workload in &WORKLOADS {
            for size in [Size::Full, Size::WarmUp, Size::Check] {
                let config = workload.config(7, size, Path::new("unused"));
                assert_eq!(
                    config.total_unique_samples(),
                    workload.simulations_at(size) * STEPS_PER_SIMULATION
                );
                assert_eq!(config.durability.is_some(), workload.is_durable());
                assert_eq!(config.training.gemm_threads, 1);
            }
            assert!(workload.why.len() <= 200, "{}", workload.name);
        }
    }
}
