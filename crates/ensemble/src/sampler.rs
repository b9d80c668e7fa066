//! Experimental-design samplers for the ensemble parameters.
//!
//! The paper's data-aggregator thread controls the experimental design and
//! currently supports the traditional Monte Carlo method, Latin hypercube
//! sampling and the Halton sequence (§3.1). All three are implemented on the
//! unit hypercube and mapped through a physics-agnostic [`ParameterSpace`] to
//! the sampled parameter vector. Everything is seeded for reproducibility.

use melissa_workload::{ParamPoint, ParameterSpace, PARAM_DIM};
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use serde::Serialize;

/// The sampler families supported by the framework.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Default)]
pub enum SamplerKind {
    /// Independent uniform draws.
    #[default]
    MonteCarlo,
    /// Latin hypercube: one sample per stratum in every dimension.
    LatinHypercube,
    /// The deterministic low-discrepancy Halton sequence.
    Halton,
}

/// A source of unit-hypercube points indexed by ensemble-member id.
pub trait ExperimentalDesign: Send {
    /// The unit-hypercube point of member `index`.
    fn unit_sample(&mut self, index: usize) -> [f64; PARAM_DIM];

    /// The family this design belongs to.
    fn kind(&self) -> SamplerKind;
}

/// Independent uniform sampling (classical Monte Carlo).
#[derive(Debug, Clone)]
pub struct MonteCarloSampler {
    rng: ChaCha8Rng,
    cache: Vec<[f64; PARAM_DIM]>,
}

impl MonteCarloSampler {
    /// Creates a seeded Monte Carlo sampler.
    pub fn new(seed: u64) -> Self {
        Self {
            rng: ChaCha8Rng::seed_from_u64(seed),
            cache: Vec::new(),
        }
    }
}

impl ExperimentalDesign for MonteCarloSampler {
    fn unit_sample(&mut self, index: usize) -> [f64; PARAM_DIM] {
        // Generate deterministically in index order and memoise so that asking
        // for the same member twice (e.g. after a client restart) returns the
        // same parameters.
        while self.cache.len() <= index {
            let mut point = [0.0; PARAM_DIM];
            for coordinate in &mut point {
                *coordinate = self.rng.gen();
            }
            self.cache.push(point);
        }
        self.cache[index]
    }

    fn kind(&self) -> SamplerKind {
        SamplerKind::MonteCarlo
    }
}

/// Latin hypercube sampling over a fixed number of members.
#[derive(Debug, Clone)]
pub struct LatinHypercubeSampler {
    points: Vec<[f64; PARAM_DIM]>,
}

impl LatinHypercubeSampler {
    /// Builds the design for `num_members` members.
    ///
    /// Each dimension is split into `num_members` equal strata; each member
    /// falls into exactly one stratum per dimension (a random permutation per
    /// dimension), with a uniform jitter inside the stratum.
    pub fn new(num_members: usize, seed: u64) -> Self {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let n = num_members.max(1);
        let mut per_dim_permutations: Vec<Vec<usize>> = Vec::with_capacity(PARAM_DIM);
        for _ in 0..PARAM_DIM {
            let mut strata: Vec<usize> = (0..n).collect();
            strata.shuffle(&mut rng);
            per_dim_permutations.push(strata);
        }
        let points = (0..n)
            .map(|member| {
                let mut point = [0.0; PARAM_DIM];
                for (d, coordinate) in point.iter_mut().enumerate() {
                    let stratum = per_dim_permutations[d][member];
                    let jitter: f64 = rng.gen();
                    *coordinate = (stratum as f64 + jitter) / n as f64;
                }
                point
            })
            .collect();
        Self { points }
    }

    /// Number of members the design was built for.
    pub fn len(&self) -> usize {
        self.points.len()
    }

    /// True when the design is empty (never the case after construction).
    pub fn is_empty(&self) -> bool {
        self.points.is_empty()
    }
}

impl ExperimentalDesign for LatinHypercubeSampler {
    fn unit_sample(&mut self, index: usize) -> [f64; PARAM_DIM] {
        // Members beyond the design size wrap around (the design is still a
        // valid, if repeated, stratification).
        self.points[index % self.points.len()]
    }

    fn kind(&self) -> SamplerKind {
        SamplerKind::LatinHypercube
    }
}

/// The radical-inverse (van der Corput) value of `index` in the given base.
fn radical_inverse(mut index: u64, base: u64) -> f64 {
    let mut result = 0.0;
    let mut fraction = 1.0 / base as f64;
    while index > 0 {
        result += (index % base) as f64 * fraction;
        index /= base;
        fraction /= base as f64;
    }
    result
}

/// The deterministic Halton low-discrepancy sequence (bases 2, 3, 5, 7, 11).
#[derive(Debug, Clone, Default)]
pub struct HaltonSampler {
    /// Number of initial sequence elements skipped (common de-correlation trick).
    pub skip: usize,
}

impl HaltonSampler {
    /// Creates the sampler, skipping the first `skip` elements of the sequence.
    pub fn new(skip: usize) -> Self {
        Self { skip }
    }
}

const HALTON_BASES: [u64; PARAM_DIM] = [2, 3, 5, 7, 11];

impl ExperimentalDesign for HaltonSampler {
    fn unit_sample(&mut self, index: usize) -> [f64; PARAM_DIM] {
        let i = (index + self.skip + 1) as u64;
        let mut point = [0.0; PARAM_DIM];
        for (d, coordinate) in point.iter_mut().enumerate() {
            *coordinate = radical_inverse(i, HALTON_BASES[d]);
        }
        point
    }

    fn kind(&self) -> SamplerKind {
        SamplerKind::Halton
    }
}

/// Maps an [`ExperimentalDesign`] through a [`ParameterSpace`] to produce the
/// parameter vector of each ensemble member, independent of the physics that
/// will consume it.
pub struct ParameterSampler {
    design: Box<dyn ExperimentalDesign>,
    space: ParameterSpace,
}

impl ParameterSampler {
    /// Creates a sampler of the requested kind over the given space.
    pub fn new(kind: SamplerKind, space: ParameterSpace, num_members: usize, seed: u64) -> Self {
        let design: Box<dyn ExperimentalDesign> = match kind {
            SamplerKind::MonteCarlo => Box::new(MonteCarloSampler::new(seed)),
            SamplerKind::LatinHypercube => Box::new(LatinHypercubeSampler::new(num_members, seed)),
            SamplerKind::Halton => Box::new(HaltonSampler::new((seed % 64) as usize)),
        };
        Self { design, space }
    }

    /// The sampled parameter space.
    pub fn space(&self) -> &ParameterSpace {
        &self.space
    }

    /// The family of the underlying design.
    pub fn kind(&self) -> SamplerKind {
        self.design.kind()
    }

    /// The parameter vector of ensemble member `index`.
    pub fn parameters(&mut self, index: usize) -> ParamPoint {
        let unit = self.design.unit_sample(index);
        self.space.from_unit(unit)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn monte_carlo_is_deterministic_and_memoised() {
        let mut a = MonteCarloSampler::new(5);
        let mut b = MonteCarloSampler::new(5);
        // Ask out of order: member 3 must have the same value regardless of
        // access order (restart safety).
        let a3 = a.unit_sample(3);
        let b0 = b.unit_sample(0);
        let b3 = b.unit_sample(3);
        let a0 = a.unit_sample(0);
        assert_eq!(a3, b3);
        assert_eq!(a0, b0);
    }

    #[test]
    fn monte_carlo_values_in_unit_cube() {
        let mut s = MonteCarloSampler::new(1);
        for i in 0..100 {
            let p = s.unit_sample(i);
            assert!(p.iter().all(|&v| (0.0..1.0).contains(&v)));
        }
    }

    #[test]
    fn latin_hypercube_stratifies_every_dimension() {
        let n = 20;
        let mut s = LatinHypercubeSampler::new(n, 7);
        assert_eq!(s.len(), n);
        for d in 0..PARAM_DIM {
            let mut strata_hit = vec![false; n];
            for i in 0..n {
                let v = s.unit_sample(i)[d];
                let stratum = ((v * n as f64).floor() as usize).min(n - 1);
                assert!(
                    !strata_hit[stratum],
                    "dimension {d}: stratum {stratum} hit twice"
                );
                strata_hit[stratum] = true;
            }
            assert!(
                strata_hit.iter().all(|&hit| hit),
                "dimension {d} incomplete"
            );
        }
    }

    #[test]
    fn latin_hypercube_wraps_beyond_design_size() {
        let mut s = LatinHypercubeSampler::new(4, 3);
        assert_eq!(s.unit_sample(0), s.unit_sample(4));
    }

    #[test]
    fn halton_is_deterministic_and_low_discrepancy() {
        let mut a = HaltonSampler::new(0);
        let mut b = HaltonSampler::new(0);
        assert_eq!(a.unit_sample(10), b.unit_sample(10));
        // First Halton values in base 2: 1/2, 1/4, 3/4, 1/8 ...
        assert!((a.unit_sample(0)[0] - 0.5).abs() < 1e-12);
        assert!((a.unit_sample(1)[0] - 0.25).abs() < 1e-12);
        assert!((a.unit_sample(2)[0] - 0.75).abs() < 1e-12);
        // Base 3 second dimension: 1/3, 2/3, 1/9 ...
        assert!((a.unit_sample(0)[1] - 1.0 / 3.0).abs() < 1e-12);
        assert!((a.unit_sample(1)[1] - 2.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn halton_covers_the_unit_interval_evenly() {
        let mut s = HaltonSampler::new(0);
        let n = 256;
        let mut histogram = [0usize; 8];
        for i in 0..n {
            let v = s.unit_sample(i)[0];
            histogram[(v * 8.0) as usize % 8] += 1;
        }
        for &count in &histogram {
            assert_eq!(count, n / 8, "Halton base-2 coverage must be exactly even");
        }
    }

    #[test]
    fn parameter_sampler_maps_into_the_space() {
        for kind in [
            SamplerKind::MonteCarlo,
            SamplerKind::LatinHypercube,
            SamplerKind::Halton,
        ] {
            let mut sampler = ParameterSampler::new(kind, ParameterSpace::default(), 16, 11);
            assert_eq!(sampler.kind(), kind);
            for i in 0..16 {
                let p = sampler.parameters(i);
                assert!(sampler.space().contains(&p), "{kind:?} escaped the space");
                assert!(p.iter().all(|&v| (100.0..=500.0).contains(&v)));
            }
        }
    }

    #[test]
    fn different_members_get_different_parameters() {
        let mut sampler =
            ParameterSampler::new(SamplerKind::MonteCarlo, ParameterSpace::default(), 8, 13);
        let a = sampler.parameters(0);
        let b = sampler.parameters(1);
        assert_ne!(a, b);
    }

    #[test]
    fn radical_inverse_known_values() {
        assert!((radical_inverse(1, 2) - 0.5).abs() < 1e-15);
        assert!((radical_inverse(2, 2) - 0.25).abs() < 1e-15);
        assert!((radical_inverse(3, 2) - 0.75).abs() < 1e-15);
        assert!((radical_inverse(4, 2) - 0.125).abs() < 1e-15);
        assert!((radical_inverse(1, 3) - 1.0 / 3.0).abs() < 1e-15);
    }
}
