//! Simulation parameters of the heat-equation workload.
//!
//! The paper's input vector `X` holds five temperatures: the initial condition
//! `T_ic` and the four Dirichlet boundary temperatures `(T_x1, T_y1, T_x2, T_y2)`,
//! each sampled uniformly in `[100, 500]` K. The thermal diffusivity is fixed to
//! `α = 1 m²/s`, the time step to `Δt = 0.01 s` and the trajectory length to 100
//! steps. Everything is configurable here so the ensemble can be scaled down.
//!
//! The physics-agnostic parameter-space machinery ([`ParamRange`],
//! [`ParameterSpace`], [`PARAM_DIM`]) lives in `melissa_workload` and is
//! re-exported here; [`SimulationParams`] is the heat-specific view of one
//! sampled [`ParamPoint`].

use serde::Serialize;

pub use melissa_workload::{ParamPoint, ParamRange, ParameterSpace, PARAM_DIM};

/// Default lower bound of the sampled temperature range (Kelvin).
pub const DEFAULT_T_MIN: f64 = 100.0;
/// Default upper bound of the sampled temperature range (Kelvin).
pub const DEFAULT_T_MAX: f64 = 500.0;

/// The five sampled temperatures of one ensemble member.
///
/// Order matches the paper: `[T_ic, T_x1, T_y1, T_x2, T_y2]`.
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
pub struct SimulationParams {
    /// Initial temperature of the whole domain.
    pub t_initial: f64,
    /// Dirichlet temperature on the `x = 0` boundary.
    pub t_x1: f64,
    /// Dirichlet temperature on the `y = 0` boundary.
    pub t_y1: f64,
    /// Dirichlet temperature on the `x = L` boundary.
    pub t_x2: f64,
    /// Dirichlet temperature on the `y = L` boundary.
    pub t_y2: f64,
}

impl SimulationParams {
    /// Builds parameters from the `[T_ic, T_x1, T_y1, T_x2, T_y2]` vector.
    pub fn new(x: ParamPoint) -> Self {
        Self {
            t_initial: x[0],
            t_x1: x[1],
            t_y1: x[2],
            t_x2: x[3],
            t_y2: x[4],
        }
    }

    /// Returns the parameters as the flat vector `X` used as surrogate input.
    pub fn as_vector(&self) -> ParamPoint {
        [self.t_initial, self.t_x1, self.t_y1, self.t_x2, self.t_y2]
    }

    /// Returns the parameters as `f32`, the precision used for training inputs.
    pub fn as_f32_vector(&self) -> [f32; PARAM_DIM] {
        let v = self.as_vector();
        [
            v[0] as f32,
            v[1] as f32,
            v[2] as f32,
            v[3] as f32,
            v[4] as f32,
        ]
    }

    /// Smallest of the five temperatures.
    pub fn min_temperature(&self) -> f64 {
        self.as_vector().into_iter().fold(f64::INFINITY, f64::min)
    }

    /// Largest of the five temperatures.
    pub fn max_temperature(&self) -> f64 {
        self.as_vector()
            .into_iter()
            .fold(f64::NEG_INFINITY, f64::max)
    }

    /// True when every temperature lies in the given inclusive range.
    pub fn within_range(&self, range: &ParamRange) -> bool {
        self.as_vector()
            .into_iter()
            .all(|t| t >= range.min && t <= range.max)
    }
}

impl From<ParamPoint> for SimulationParams {
    fn from(x: ParamPoint) -> Self {
        Self::new(x)
    }
}

impl From<SimulationParams> for ParamPoint {
    fn from(p: SimulationParams) -> Self {
        p.as_vector()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn params_vector_roundtrip() {
        let x = [300.0, 150.0, 200.0, 450.0, 100.0];
        let p = SimulationParams::new(x);
        assert_eq!(p.as_vector(), x);
        assert_eq!(p.t_initial, 300.0);
        assert_eq!(p.t_y2, 100.0);
        assert_eq!(SimulationParams::from(x), p);
        assert_eq!(ParamPoint::from(p), x);
    }

    #[test]
    fn params_boundary_mean_and_extrema() {
        let p = SimulationParams::new([300.0, 100.0, 200.0, 300.0, 400.0]);
        assert_eq!(p.min_temperature(), 100.0);
        assert_eq!(p.max_temperature(), 400.0);
    }

    #[test]
    fn default_space_matches_paper_range() {
        let space = ParameterSpace::default();
        let low = SimulationParams::new(space.from_unit([0.0; PARAM_DIM]));
        let high = SimulationParams::new(space.from_unit([1.0; PARAM_DIM]));
        assert_eq!(low.min_temperature(), DEFAULT_T_MIN);
        assert_eq!(high.max_temperature(), DEFAULT_T_MAX);
    }

    #[test]
    fn params_within_range_detects_outliers() {
        let r = ParamRange::default();
        let inside = SimulationParams::new([100.0, 200.0, 300.0, 400.0, 500.0]);
        let outside = SimulationParams::new([99.0, 200.0, 300.0, 400.0, 500.0]);
        assert!(inside.within_range(&r));
        assert!(!outside.within_range(&r));
    }
}
