//! The stream `solver_bound` produces, pinned to literals: the real solver
//! on 64×64 at the default CG tolerance, driven through the `Workload` trait
//! exactly as `WorkloadSpec::heat` builds it. 30 steps run past step 13,
//! where the stepper's CG iteration history first leaves the test oracle's,
//! so a change to the solve's floating-point operations or their order moves
//! a hash even where it stays inside the oracle's tolerance.

use heat_solver::{ParameterSpace, SolverConfig, SyntheticWorkload};
use melissa_workload::{ParamPoint, Workload};

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// Folds `bytes` into the running FNV-1a hash.
fn fnv1a(hash: &mut u64, bytes: &[u8]) {
    for &byte in bytes {
        *hash ^= u64::from(byte);
        *hash = hash.wrapping_mul(FNV_PRIME);
    }
}

/// FNV-1a over every emitted `time.to_bits()` and every value's `to_bits()`,
/// in stream order, with the step count beside it.
fn stream_hash(point: ParamPoint) -> (usize, u64) {
    let workload = SyntheticWorkload::solver(SolverConfig {
        nx: 64,
        ny: 64,
        steps: 30,
        ..SolverConfig::default()
    });
    let (mut steps, mut hash) = (0, FNV_OFFSET);
    Workload::generate(&workload, point, &mut |step| {
        assert_eq!(step.step, steps);
        assert_eq!(step.values.len(), 64 * 64);
        steps += 1;
        fnv1a(&mut hash, &step.time.to_bits().to_le_bytes());
        for value in &step.values {
            fnv1a(&mut hash, &value.to_bits().to_le_bytes());
        }
    })
    .expect("the solver_bound configuration is valid");
    (steps, hash)
}

#[test]
fn solver_stream_is_pinned_at_the_midpoint_and_two_corners() {
    let space = ParameterSpace::default();
    // The midpoint puts the initial and all four boundary temperatures at
    // 300 K: the fixed point. The corners alternate 100 K and 500 K, so
    // every step of theirs runs the CG solve.
    let points = [
        space.midpoint(),
        space.from_unit([0.0, 1.0, 0.0, 1.0, 0.0]),
        space.from_unit([1.0, 0.0, 1.0, 0.0, 1.0]),
    ];
    let hashes: Vec<(usize, u64)> = points.into_iter().map(stream_hash).collect();
    assert_eq!(
        hashes,
        [
            (30, 0xd879_dbc2_cb5a_896d),
            (30, 0x63da_f8b7_f79c_fa9f),
            (30, 0x21c1_e5bb_ca02_f777),
        ],
        "{hashes:#x?}"
    );
}
