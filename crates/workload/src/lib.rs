//! # melissa-workload
//!
//! The physics-agnostic workload abstraction of the Melissa reproduction.
//!
//! The SC'23 paper's framework claim is that online surrogate training is
//! *independent of the solver*: ensemble clients are black boxes that stream
//! time steps to the training server. This crate is that seam, with no
//! dependency on any concrete solver:
//!
//! * [`Workload`] — the trait every physics implements: deterministic
//!   `generate(params) → stream of [`WorkloadStep`]`, plus the shape, timing
//!   and range metadata the training stack needs to size the surrogate and
//!   normalise its inputs and outputs.
//! * [`ParameterSpace`] / [`ParamRange`] / [`ParamPoint`] — the sampled design
//!   space, shared by the experimental-design samplers in `melissa-ensemble`
//!   and by every workload.
//! * [`WorkloadError`] — the typed error of workload validation and
//!   generation.
//!
//! One physics ships: the paper's 2D heat equation, which lives in the
//! `heat-solver` crate and implements [`Workload`] there. Another physics
//! would plug in the same way, by implementing [`Workload`] and being what
//! `melissa::WorkloadSpec::build` returns.

pub mod space;
pub mod traits;

pub use space::{ParamPoint, ParamRange, ParameterSpace, PARAM_DIM};
pub use traits::{Workload, WorkloadError, WorkloadStep};
