//! The sampled parameter space shared by every workload.
//!
//! The framework streams time steps of black-box simulations whose behaviour is
//! controlled by a fixed-dimension parameter vector `X` (the paper uses five
//! temperatures, one per boundary edge plus the initial condition).
//! Experimental-design samplers draw points on the unit hypercube and map them
//! through a [`ParameterSpace`] — per-dimension [`ParamRange`]s — so neither
//! the samplers nor the launcher need to know anything about the physics.

use serde::{Deserialize, Serialize};

/// Number of sampled input parameters (the dimension of `X` in the paper).
pub const PARAM_DIM: usize = 5;

/// One sampled parameter vector `X`.
pub type ParamPoint = [f64; PARAM_DIM];

/// The inclusive range one parameter dimension is sampled from.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ParamRange {
    /// Lower bound (inclusive).
    pub min: f64,
    /// Upper bound (inclusive).
    pub max: f64,
}

impl Default for ParamRange {
    fn default() -> Self {
        // The paper's temperature range, in Kelvin.
        Self {
            min: 100.0,
            max: 500.0,
        }
    }
}

impl ParamRange {
    /// Creates a range, panicking when `min > max`.
    pub fn new(min: f64, max: f64) -> Self {
        assert!(min <= max, "invalid parameter range: {min} > {max}");
        Self { min, max }
    }

    /// Width of the range.
    pub fn span(&self) -> f64 {
        self.max - self.min
    }

    /// Maps a unit-interval coordinate `u ∈ [0, 1]` into the range.
    pub fn lerp(&self, u: f64) -> f64 {
        self.min + u.clamp(0.0, 1.0) * self.span()
    }

    /// Maps a value of the range back to the unit interval.
    pub fn normalize(&self, value: f64) -> f64 {
        if self.span() == 0.0 {
            0.0
        } else {
            ((value - self.min) / self.span()).clamp(0.0, 1.0)
        }
    }

    /// The midpoint of the range.
    pub fn midpoint(&self) -> f64 {
        self.min + 0.5 * self.span()
    }
}

/// The sampled parameter space: one [`ParamRange`] per input dimension.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ParameterSpace {
    /// Per-dimension ranges.
    pub ranges: [ParamRange; PARAM_DIM],
}

impl Default for ParameterSpace {
    fn default() -> Self {
        // The paper's design space: five temperatures in [100, 500] K.
        Self {
            ranges: [ParamRange::default(); PARAM_DIM],
        }
    }
}

impl ParameterSpace {
    /// Maps a unit hypercube point into a parameter vector.
    pub fn from_unit(&self, u: ParamPoint) -> ParamPoint {
        let mut x = [0.0; PARAM_DIM];
        for (k, (range, coord)) in self.ranges.iter().zip(u.iter()).enumerate() {
            x[k] = range.lerp(*coord);
        }
        x
    }

    /// Maps a parameter vector back to the unit hypercube.
    pub fn to_unit(&self, params: &ParamPoint) -> ParamPoint {
        let mut u = [0.0; PARAM_DIM];
        for k in 0..PARAM_DIM {
            u[k] = self.ranges[k].normalize(params[k]);
        }
        u
    }

    /// True when the parameter vector lies inside the space.
    pub fn contains(&self, params: &ParamPoint) -> bool {
        self.ranges
            .iter()
            .zip(params.iter())
            .all(|(r, v)| *v >= r.min && *v <= r.max)
    }

    /// The centre of the space (every dimension at its midpoint).
    pub fn midpoint(&self) -> ParamPoint {
        self.ranges.map(|r| r.midpoint())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn range_lerp_and_normalize_are_inverse() {
        let r = ParamRange::new(100.0, 500.0);
        for &u in &[0.0, 0.25, 0.5, 0.75, 1.0] {
            let v = r.lerp(u);
            assert!((r.normalize(v) - u).abs() < 1e-12);
        }
    }

    #[test]
    fn range_lerp_clamps() {
        let r = ParamRange::new(0.0, 10.0);
        assert_eq!(r.lerp(-1.0), 0.0);
        assert_eq!(r.lerp(2.0), 10.0);
        assert_eq!(r.midpoint(), 5.0);
    }

    #[test]
    #[should_panic(expected = "invalid parameter range")]
    fn range_rejects_inverted_bounds() {
        let _ = ParamRange::new(10.0, 0.0);
    }

    #[test]
    fn space_unit_mapping_roundtrip() {
        let space = ParameterSpace::default();
        let u = [0.1, 0.2, 0.3, 0.4, 0.5];
        let p = space.from_unit(u);
        assert!(space.contains(&p));
        let back = space.to_unit(&p);
        for k in 0..PARAM_DIM {
            assert!((back[k] - u[k]).abs() < 1e-12);
        }
    }

    #[test]
    fn default_space_matches_paper_range() {
        let space = ParameterSpace::default();
        let low = space.from_unit([0.0; PARAM_DIM]);
        let high = space.from_unit([1.0; PARAM_DIM]);
        assert!(low.iter().all(|&v| v == 100.0));
        assert!(high.iter().all(|&v| v == 500.0));
    }
}
