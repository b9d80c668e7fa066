//! Domain decomposition: the "MPI+X" layout of the paper's solver, on threads.
//!
//! The original solver is a Fortran90/MPI code with a classical 2D domain
//! partitioning; each client gathers the partitioned time step on rank zero
//! before streaming it to the training server. This module reproduces that
//! structure with a row-block decomposition across worker threads:
//!
//! * [`DomainDecomposition`] splits the grid into per-rank [`LocalBlock`]s and
//!   provides `scatter`/`gather` (the rank-0 gather of §3.2.2).
//! * [`AllReducer`] is a barrier-based sum all-reduce (the MPI_Allreduce stand-in)
//!   used by the distributed conjugate-gradient solver.
//! * [`DistributedImplicitSolver`] advances the field with implicit Euler where the
//!   CG iteration runs distributed: halo rows are exchanged through channels before
//!   every mat-vec and the CG dot products are all-reduced across ranks.
//!
//! The decomposition is deliberately deterministic: for a given grid, parameter
//! set and rank count the produced trajectory is identical to the single-rank
//! [`crate::ImplicitEuler`] trajectory up to solver tolerance.

use crate::boundary::BoundaryConditions;
use crate::grid::{Field, Grid2D};
use crate::linalg::{CgWorkspace, ConjugateGradient, HeatOperator};
use crossbeam::channel::{bounded, Receiver, Sender};
use parking_lot::Mutex;
use std::sync::Barrier;

/// The row-block owned by one rank.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LocalBlock {
    /// Rank index in `[0, num_ranks)`.
    pub rank: usize,
    /// First grid row (y-index) owned by this rank.
    pub j_start: usize,
    /// Number of rows owned by this rank.
    pub j_count: usize,
    /// Number of columns (same for all ranks).
    pub nx: usize,
}

impl LocalBlock {
    /// Number of interior nodes owned by this rank.
    pub fn len(&self) -> usize {
        self.j_count * self.nx
    }

    /// True when the rank owns no rows (can happen when ranks > ny).
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// Row-block decomposition of a [`Grid2D`] over `num_ranks` ranks.
#[derive(Debug, Clone)]
pub struct DomainDecomposition {
    grid: Grid2D,
    blocks: Vec<LocalBlock>,
}

impl DomainDecomposition {
    /// Splits the grid rows as evenly as possible across `num_ranks` ranks.
    ///
    /// When `num_ranks` exceeds the number of rows the rank count is clamped so
    /// that no rank owns an empty block (an empty rank would have no halo rows
    /// to exchange, which real MPI decompositions also avoid).
    ///
    /// # Panics
    /// Panics when `num_ranks == 0`.
    pub fn rows(grid: Grid2D, num_ranks: usize) -> Self {
        assert!(num_ranks > 0, "need at least one rank");
        let num_ranks = num_ranks.min(grid.ny).max(1);
        let base = grid.ny / num_ranks;
        let extra = grid.ny % num_ranks;
        let mut blocks = Vec::with_capacity(num_ranks);
        let mut j = 0;
        for rank in 0..num_ranks {
            let count = base + usize::from(rank < extra);
            blocks.push(LocalBlock {
                rank,
                j_start: j,
                j_count: count,
                nx: grid.nx,
            });
            j += count;
        }
        debug_assert_eq!(j, grid.ny);
        Self { grid, blocks }
    }

    /// The decomposed grid.
    pub fn grid(&self) -> Grid2D {
        self.grid
    }

    /// Number of ranks.
    pub fn num_ranks(&self) -> usize {
        self.blocks.len()
    }

    /// Block descriptor of a rank.
    pub fn block(&self, rank: usize) -> LocalBlock {
        self.blocks[rank]
    }

    /// All block descriptors.
    pub fn blocks(&self) -> &[LocalBlock] {
        &self.blocks
    }

    /// Splits a global field into per-rank row blocks (row-major slices).
    pub fn scatter(&self, field: &Field) -> Vec<Vec<f64>> {
        assert_eq!(field.grid(), self.grid, "field grid mismatch");
        let values = field.values();
        self.blocks
            .iter()
            .map(|b| {
                let start = b.j_start * b.nx;
                values[start..start + b.len()].to_vec()
            })
            .collect()
    }

    /// Reassembles per-rank row blocks into a global field (the rank-0 gather).
    ///
    /// # Panics
    /// Panics when the block sizes do not match the decomposition.
    pub fn gather(&self, blocks: &[Vec<f64>]) -> Field {
        assert_eq!(blocks.len(), self.blocks.len(), "rank count mismatch");
        let mut values = Vec::with_capacity(self.grid.len());
        for (desc, block) in self.blocks.iter().zip(blocks) {
            assert_eq!(block.len(), desc.len(), "block size mismatch");
            values.extend_from_slice(block);
        }
        Field::from_values(self.grid, values)
    }
}

/// Barrier-based sum all-reduce shared by all ranks of a distributed solve.
///
/// Each collective call performs three barrier phases (accumulate, read, reset)
/// so that consecutive reductions never race; this mirrors `MPI_Allreduce`
/// semantics closely enough for the SPMD solver loop.
pub struct AllReducer {
    barrier: Barrier,
    accumulator: Mutex<f64>,
}

impl AllReducer {
    /// Creates an all-reducer for `num_ranks` participants.
    pub fn new(num_ranks: usize) -> Self {
        Self {
            barrier: Barrier::new(num_ranks),
            accumulator: Mutex::new(0.0),
        }
    }

    /// Sums `local` across all ranks; every rank receives the global sum.
    ///
    /// Every rank must call this the same number of times in the same order.
    pub fn sum(&self, local: f64) -> f64 {
        *self.accumulator.lock() += local;
        self.barrier.wait();
        let result = *self.accumulator.lock();
        if self.barrier.wait().is_leader() {
            *self.accumulator.lock() = 0.0;
        }
        self.barrier.wait();
        result
    }

    /// Barrier without a reduction (used to order halo exchanges).
    pub fn barrier(&self) {
        self.barrier.wait();
    }
}

/// Per-rank halo communication endpoints (send to / receive from neighbours).
struct HaloLinks {
    to_south: Option<Sender<Vec<f64>>>,
    to_north: Option<Sender<Vec<f64>>>,
    from_south: Option<Receiver<Vec<f64>>>,
    from_north: Option<Receiver<Vec<f64>>>,
}

/// Builds the halo channel topology for `num_ranks` neighbouring row blocks.
fn build_halo_links(num_ranks: usize) -> Vec<HaloLinks> {
    let mut links: Vec<HaloLinks> = (0..num_ranks)
        .map(|_| HaloLinks {
            to_south: None,
            to_north: None,
            from_south: None,
            from_north: None,
        })
        .collect();
    for rank in 0..num_ranks.saturating_sub(1) {
        // Channel pair between rank (south) and rank+1 (north).
        let (tx_up, rx_up) = bounded(1); // rank -> rank+1
        let (tx_down, rx_down) = bounded(1); // rank+1 -> rank
        links[rank].to_north = Some(tx_up);
        links[rank + 1].from_south = Some(rx_up);
        links[rank + 1].to_south = Some(tx_down);
        links[rank].from_north = Some(rx_down);
    }
    links
}

/// One time step of a distributed run, gathered on rank zero.
#[derive(Debug, Clone)]
pub struct GatheredStep {
    /// Time-step index (0-based).
    pub step: usize,
    /// Gathered global field.
    pub field: Field,
    /// Total CG iterations spent on this step (summed over the solve).
    pub cg_iterations: usize,
}

/// Distributed implicit-Euler solver over a row-block decomposition.
#[derive(Debug, Clone, Copy)]
pub struct DistributedImplicitSolver {
    /// Thermal diffusivity `α`.
    pub alpha: f64,
    /// Time step `Δt`.
    pub dt: f64,
    /// Relative CG tolerance.
    pub tolerance: f64,
    /// Maximum CG iterations per time step.
    pub max_iterations: usize,
}

impl Default for DistributedImplicitSolver {
    fn default() -> Self {
        Self {
            alpha: 1.0,
            dt: 0.01,
            tolerance: 1e-10,
            max_iterations: 10_000,
        }
    }
}

/// Per-rank state of the distributed CG solve.
struct RankState {
    block: LocalBlock,
    grid: Grid2D,
    /// Local solution rows.
    u: Vec<f64>,
    /// Halo row below the block (from the south neighbour or Dirichlet).
    halo_south: Vec<f64>,
    /// Halo row above the block (from the north neighbour or Dirichlet).
    halo_north: Vec<f64>,
}

impl DistributedImplicitSolver {
    /// Runs `steps` implicit-Euler time steps distributed over `num_ranks`
    /// worker threads, starting from `initial`, and returns every gathered step.
    pub fn run(
        &self,
        initial: &Field,
        bc: &BoundaryConditions,
        num_ranks: usize,
        steps: usize,
    ) -> Vec<GatheredStep> {
        let grid = initial.grid();
        let decomp = DomainDecomposition::rows(grid, num_ranks);
        let num_ranks = decomp.num_ranks();
        let scattered = decomp.scatter(initial);
        let reducer = AllReducer::new(num_ranks);
        let links = build_halo_links(num_ranks);
        // Gathered blocks for the current step, plus CG iteration counts.
        let gather_slots: Vec<Mutex<Option<Vec<f64>>>> =
            (0..num_ranks).map(|_| Mutex::new(None)).collect();
        let results: Mutex<Vec<GatheredStep>> = Mutex::new(Vec::with_capacity(steps));

        crossbeam::scope(|scope| {
            let mut link_iter = links.into_iter();
            for (rank, local) in scattered.into_iter().enumerate() {
                // analysis: allow(panic, reason = "build_halo_links returns exactly num_ranks link sets, one per spawned rank")
                let link = link_iter.next().expect("one link set per rank");
                let reducer = &reducer;
                let decomp = &decomp;
                let gather_slots = &gather_slots;
                let results = &results;
                let solver = *self;
                let bc = *bc;
                scope.spawn(move |_| {
                    solver.rank_loop(
                        rank,
                        decomp,
                        local,
                        bc,
                        link,
                        reducer,
                        gather_slots,
                        results,
                        steps,
                    );
                });
            }
        })
        // analysis: allow(panic, reason = "re-raises a rank thread's panic; a partial gather would silently corrupt the solution field")
        .expect("distributed solver worker panicked");

        let mut out = results.into_inner();
        out.sort_by_key(|s| s.step);
        out
    }

    /// The SPMD body executed by each rank.
    #[allow(clippy::too_many_arguments)]
    fn rank_loop(
        &self,
        rank: usize,
        decomp: &DomainDecomposition,
        local: Vec<f64>,
        bc: BoundaryConditions,
        link: HaloLinks,
        reducer: &AllReducer,
        gather_slots: &[Mutex<Option<Vec<f64>>>],
        results: &Mutex<Vec<GatheredStep>>,
        steps: usize,
    ) {
        let block = decomp.block(rank);
        let grid = decomp.grid();
        let nx = grid.nx;
        let mut state = RankState {
            block,
            grid,
            u: local,
            halo_south: vec![bc.south; nx],
            halo_north: vec![bc.north; nx],
        };

        for step in 0..steps {
            let iterations = self.distributed_step(&mut state, &bc, &link, reducer);

            // Rank-0 gather: every rank deposits its block, rank 0 assembles.
            *gather_slots[rank].lock() = Some(state.u.clone());
            reducer.barrier();
            if rank == 0 {
                let blocks: Vec<Vec<f64>> = gather_slots
                    .iter()
                    // analysis: allow(panic, reason = "the barrier above guarantees every rank deposited its block before rank 0 gathers")
                    .map(|slot| slot.lock().take().expect("block deposited"))
                    .collect();
                let field = decomp.gather(&blocks);
                results.lock().push(GatheredStep {
                    step,
                    field,
                    cg_iterations: iterations,
                });
            }
            reducer.barrier();
        }
    }

    /// One distributed implicit-Euler step; returns the CG iteration count.
    /// The iteration is [`ConjugateGradient`]'s: every rank runs it on its own
    /// rows, exchanging halos before each mat-vec and all-reducing each dot
    /// product, so all ranks take the same branches.
    fn distributed_step(
        &self,
        state: &mut RankState,
        bc: &BoundaryConditions,
        link: &HaloLinks,
        reducer: &AllReducer,
    ) -> usize {
        debug_assert!(
            !state.u.is_empty(),
            "empty ranks are clamped away by the decomposition"
        );
        // Right-hand side: u^n + α Δt * Dirichlet contributions (global edges only).
        let rhs = self.local_rhs(state, bc);
        // Warm start from u^n.
        let mut x = std::mem::take(&mut state.u);
        let matvec = |v: &[f64], out: &mut [f64]| {
            self.exchange_halos(v, state, link, reducer);
            self.local_matvec(v, state, out);
        };
        let report = ConjugateGradient::new(self.tolerance, self.max_iterations).solve_with(
            matvec,
            |local| reducer.sum(local),
            &rhs,
            &mut x,
            &mut CgWorkspace::default(),
        );
        state.u = x;
        report.iterations
    }

    /// Local right-hand side with Dirichlet boundary contributions.
    fn local_rhs(&self, state: &RankState, bc: &BoundaryConditions) -> Vec<f64> {
        let (grid, block) = (state.grid, state.block);
        let c = self.alpha * self.dt;
        let nodes = (0..block.j_count).flat_map(|j| (0..grid.nx).map(move |i| (i, j)));
        nodes
            .zip(&state.u)
            .map(|((i, j), u)| u + c * bc.laplacian_contribution(&grid, i, block.j_start + j))
            .collect()
    }

    /// Exchanges halo rows of `v` with the neighbouring ranks.
    ///
    /// Rows adjacent to the global boundary keep a zero halo because the implicit
    /// operator uses homogeneous Dirichlet conditions (the inhomogeneous part
    /// lives in the right-hand side).
    fn exchange_halos(
        &self,
        v: &[f64],
        state: &mut RankState,
        link: &HaloLinks,
        reducer: &AllReducer,
    ) {
        let nx = state.grid.nx;
        let rows = state.block.j_count;
        // Send own edge rows first (bounded(1) channels never block here because
        // each direction carries exactly one message per exchange).
        if let Some(tx) = &link.to_south {
            // analysis: allow(panic, reason = "a closed halo channel means the neighbour rank panicked; propagating keeps ranks in lock-step")
            tx.send(v[0..nx].to_vec()).expect("south neighbour alive");
        }
        if let Some(tx) = &link.to_north {
            tx.send(v[(rows - 1) * nx..rows * nx].to_vec())
                // analysis: allow(panic, reason = "a closed halo channel means the neighbour rank panicked; propagating keeps ranks in lock-step")
                .expect("north neighbour alive");
        }
        if let Some(rx) = &link.from_south {
            // analysis: allow(panic, reason = "a closed halo channel means the neighbour rank panicked; propagating keeps ranks in lock-step")
            state.halo_south = rx.recv().expect("south halo row");
        } else {
            state.halo_south.iter_mut().for_each(|h| *h = 0.0);
        }
        if let Some(rx) = &link.from_north {
            // analysis: allow(panic, reason = "a closed halo channel means the neighbour rank panicked; propagating keeps ranks in lock-step")
            state.halo_north = rx.recv().expect("north halo row");
        } else {
            state.halo_north.iter_mut().for_each(|h| *h = 0.0);
        }
        // Keep every rank in lock-step so reductions stay ordered.
        reducer.barrier();
    }

    /// Local part of `A·v` using the freshly exchanged halos: the rows of
    /// [`HeatOperator`], whose neighbours at the block's edges are the halos.
    fn local_matvec(&self, v: &[f64], state: &RankState, out: &mut [f64]) {
        let op = HeatOperator::new(state.grid, self.alpha, self.dt);
        let nx = state.grid.nx;
        let rows = state.block.j_count;
        let v_row = |j: usize| &v[j * nx..(j + 1) * nx];
        for (j, out_row) in out.chunks_exact_mut(nx).enumerate() {
            let south = if j > 0 {
                v_row(j - 1)
            } else {
                &state.halo_south
            };
            let north = if j + 1 < rows {
                v_row(j + 1)
            } else {
                &state.halo_north
            };
            op.stencil_row(v_row(j), Some(south), Some(north), out_row);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scheme::{ImplicitEuler, TimeScheme};

    #[test]
    fn decomposition_covers_all_rows() {
        let grid = Grid2D::unit_square(8, 13);
        for ranks in 1..=6 {
            let d = DomainDecomposition::rows(grid, ranks);
            let total: usize = d.blocks().iter().map(|b| b.j_count).sum();
            assert_eq!(total, 13);
            // Blocks are contiguous and ordered.
            let mut next = 0;
            for b in d.blocks() {
                assert_eq!(b.j_start, next);
                next += b.j_count;
            }
        }
    }

    #[test]
    fn decomposition_balances_rows() {
        let grid = Grid2D::unit_square(4, 10);
        let d = DomainDecomposition::rows(grid, 4);
        let counts: Vec<usize> = d.blocks().iter().map(|b| b.j_count).collect();
        assert_eq!(
            counts.iter().max().unwrap() - counts.iter().min().unwrap(),
            1
        );
    }

    #[test]
    fn scatter_gather_roundtrip() {
        let grid = Grid2D::unit_square(5, 7);
        let field = Field::from_fn(grid, |x, y| 100.0 * x + y);
        for ranks in [1, 2, 3, 7] {
            let d = DomainDecomposition::rows(grid, ranks);
            let blocks = d.scatter(&field);
            let gathered = d.gather(&blocks);
            assert_eq!(gathered, field);
        }
    }

    #[test]
    fn allreducer_sums_across_threads() {
        let reducer = AllReducer::new(4);
        let results = Mutex::new(Vec::new());
        crossbeam::scope(|s| {
            for rank in 0..4 {
                let reducer = &reducer;
                let results = &results;
                s.spawn(move |_| {
                    // Two consecutive reductions exercise the reset logic.
                    let a = reducer.sum(rank as f64 + 1.0);
                    let b = reducer.sum((rank as f64 + 1.0) * 10.0);
                    results.lock().push((a, b));
                });
            }
        })
        .unwrap();
        for (a, b) in results.into_inner() {
            assert_eq!(a, 10.0);
            assert_eq!(b, 100.0);
        }
    }

    #[test]
    fn distributed_matches_single_rank_reference() {
        let grid = Grid2D::unit_square(10, 11);
        let bc = BoundaryConditions {
            west: 120.0,
            east: 480.0,
            south: 300.0,
            north: 210.0,
        };
        let initial = Field::constant(grid, 333.0);
        let steps = 4;

        // Reference: the shared-memory implicit Euler scheme.
        let mut reference = initial.clone();
        let scheme = ImplicitEuler::new(1.0, 0.01);
        let mut reference_steps = Vec::new();
        for _ in 0..steps {
            scheme.step(&mut reference, &bc);
            reference_steps.push(reference.clone());
        }

        for ranks in [1, 2, 3, 4] {
            let solver = DistributedImplicitSolver::default();
            let gathered = solver.run(&initial, &bc, ranks, steps);
            assert_eq!(gathered.len(), steps);
            for (g, r) in gathered.iter().zip(&reference_steps) {
                let rms = g.field.rms_diff(r);
                assert!(rms < 1e-6, "ranks={ranks} step={} rms={rms}", g.step);
            }
        }
    }

    #[test]
    fn distributed_handles_more_ranks_than_rows() {
        let grid = Grid2D::unit_square(6, 3);
        let bc = BoundaryConditions::uniform(250.0);
        let initial = Field::constant(grid, 400.0);
        let solver = DistributedImplicitSolver::default();
        let gathered = solver.run(&initial, &bc, 5, 2);
        assert_eq!(gathered.len(), 2);
        for g in &gathered {
            assert!(g.field.is_finite());
            assert!(g.field.max() <= 400.0 + 1e-9);
            assert!(g.field.min() >= 250.0 - 1e-9);
        }
    }

    #[test]
    fn gathered_steps_are_ordered() {
        let grid = Grid2D::unit_square(6, 6);
        let bc = BoundaryConditions::uniform(300.0);
        let initial = Field::constant(grid, 100.0);
        let solver = DistributedImplicitSolver::default();
        let gathered = solver.run(&initial, &bc, 3, 5);
        let steps: Vec<usize> = gathered.iter().map(|g| g.step).collect();
        assert_eq!(steps, vec![0, 1, 2, 3, 4]);
    }
}
