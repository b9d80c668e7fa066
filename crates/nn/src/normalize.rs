//! Input/output normalisation for surrogate training.
//!
//! Workload parameters are sampled from per-dimension ranges and the requested
//! time lies in `[0, steps · Δt]`; the target fields live in a physical range
//! the workload declares. Normalising both to the unit interval keeps the MLP
//! activations in a healthy range and makes MSE values comparable across grid
//! sizes and physics. The defaults reproduce the paper's heat-equation setup
//! (five temperatures in `[100, 500]` K over a 1-second trajectory).

use crate::simd;
use serde::Serialize;

/// Affine normaliser for surrogate inputs `(X, t)`: one `(min, span)` pair per
/// parameter dimension, plus the trajectory duration for the trailing time
/// entry.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct InputNormalizer {
    /// Per-dimension lower bounds of the parameter ranges.
    pub mins: Vec<f32>,
    /// Per-dimension widths of the parameter ranges.
    pub spans: Vec<f32>,
    /// Largest time value (end of a trajectory).
    pub time_max: f32,
}

impl Default for InputNormalizer {
    fn default() -> Self {
        Self::uniform(100.0, 500.0, 5, 1.0)
    }
}

impl InputNormalizer {
    /// Creates a normaliser whose `dim` parameter dimensions share one range.
    pub fn uniform(min: f32, max: f32, dim: usize, time_max: f64) -> Self {
        Self {
            mins: vec![min; dim],
            spans: vec![max - min; dim],
            time_max: time_max as f32,
        }
    }

    /// Creates a normaliser from per-dimension `(min, max)` bounds.
    pub fn for_ranges(ranges: &[(f64, f64)], time_max: f64) -> Self {
        Self {
            mins: ranges.iter().map(|&(min, _)| min as f32).collect(),
            spans: ranges
                .iter()
                .map(|&(min, max)| (max - min) as f32)
                .collect(),
            time_max: time_max as f32,
        }
    }

    /// Creates a normaliser for the paper's ranges and a trajectory of
    /// `steps × dt` seconds.
    pub fn for_trajectory(steps: usize, dt: f64) -> Self {
        Self::uniform(100.0, 500.0, 5, steps as f64 * dt)
    }

    /// Normalises one raw input vector `[X, t]` in place (the last entry is
    /// the time; the others are parameter dimensions).
    pub fn normalize_in_place(&self, input: &mut [f32]) {
        // A pinned dimension (zero span) maps to 0.0, mirroring
        // `ParamRange::normalize`, so the input stays bounded.
        let dims = input
            .len()
            .saturating_sub(1)
            .min(self.mins.len())
            .min(self.spans.len());
        simd::normalize_dims(
            simd::detect(),
            &mut input[..dims],
            &self.mins[..dims],
            &self.spans[..dims],
        );
        if let Some(t) = input.last_mut() {
            if self.time_max > 0.0 {
                *t /= self.time_max;
            }
        }
    }

    /// Returns the normalised copy of a raw input vector.
    pub fn normalize(&self, input: &[f32]) -> Vec<f32> {
        let mut out = input.to_vec();
        self.normalize_in_place(&mut out);
        out
    }

    /// Assembles and normalises the surrogate input `(X, t)` into a reusable
    /// buffer: `out` is cleared, the parameters and trailing time entry are
    /// appended and normalised in place. Performs no heap allocation once
    /// `out` has reached its steady-state capacity — the allocation-free
    /// replacement for `input_vector()` + [`InputNormalizer::normalize`] on
    /// the ingestion path.
    pub fn normalize_into(&self, params: &[f32], time: f32, out: &mut Vec<f32>) {
        out.clear();
        out.extend_from_slice(params);
        out.push(time);
        self.normalize_in_place(out);
    }
}

/// Affine normaliser for output fields (the surrogate targets).
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct OutputNormalizer {
    /// Lower bound of the physical output range.
    pub value_min: f32,
    /// Upper bound of the physical output range.
    pub value_max: f32,
}

impl Default for OutputNormalizer {
    fn default() -> Self {
        // The paper's temperature range, in Kelvin.
        Self {
            value_min: 100.0,
            value_max: 500.0,
        }
    }
}

impl OutputNormalizer {
    /// Creates a normaliser for outputs in `[min, max]`.
    pub fn for_range(min: f64, max: f64) -> Self {
        Self {
            value_min: min as f32,
            value_max: max as f32,
        }
    }

    fn span(&self) -> f32 {
        let span = self.value_max - self.value_min;
        if span == 0.0 {
            1.0
        } else {
            span
        }
    }

    /// Normalises a field to the unit range in place.
    pub fn normalize_in_place(&self, values: &mut [f32]) {
        simd::affine_normalize(simd::detect(), values, self.value_min, self.span());
    }

    /// Returns the normalised copy of a field.
    pub fn normalize(&self, values: &[f32]) -> Vec<f32> {
        let mut out = values.to_vec();
        self.normalize_in_place(&mut out);
        out
    }

    /// Normalises a field into a reusable buffer: `out` is cleared and
    /// refilled with the normalised values. Performs no heap allocation once
    /// `out` has reached its steady-state capacity.
    pub fn normalize_into(&self, values: &[f32], out: &mut Vec<f32>) {
        out.clear();
        out.extend_from_slice(values);
        self.normalize_in_place(out);
    }

    /// Maps a normalised prediction back to physical units.
    pub fn denormalize(&self, values: &[f32]) -> Vec<f32> {
        let mut out = values.to_vec();
        simd::affine_map(simd::detect(), &mut out, self.span(), self.value_min);
        out
    }

    /// Converts an MSE computed on normalised values back to squared physical
    /// units (Kelvin² for the heat workload).
    pub fn denormalize_mse(&self, mse: f32) -> f32 {
        let span = self.span();
        mse * span * span
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn input_normalization_maps_to_unit_interval() {
        let norm = InputNormalizer::for_trajectory(100, 0.01);
        let raw = vec![100.0, 300.0, 500.0, 200.0, 400.0, 0.5];
        let n = norm.normalize(&raw);
        assert_eq!(n[0], 0.0);
        assert_eq!(n[1], 0.5);
        assert_eq!(n[2], 1.0);
        assert!((n[5] - 0.5).abs() < 1e-6);
    }

    #[test]
    fn normalize_into_matches_the_allocating_paths() {
        let input_norm = InputNormalizer::for_trajectory(100, 0.01);
        let params = [100.0, 300.0, 500.0, 200.0, 400.0];
        let mut raw = params.to_vec();
        raw.push(0.5);
        let expected = input_norm.normalize(&raw);
        let mut out = Vec::new();
        input_norm.normalize_into(&params, 0.5, &mut out);
        assert_eq!(out, expected);
        // Reuse: same result, capacity already sufficient.
        input_norm.normalize_into(&params, 0.5, &mut out);
        assert_eq!(out, expected);

        let output_norm = OutputNormalizer::default();
        let field = [100.0, 250.0, 499.0];
        let mut out = Vec::new();
        output_norm.normalize_into(&field, &mut out);
        assert_eq!(out, output_norm.normalize(&field));
    }

    #[test]
    fn per_dimension_ranges_normalize_independently() {
        let norm = InputNormalizer::for_ranges(&[(0.0, 1.0), (-0.5, 0.5), (10.0, 20.0)], 2.0);
        let n = norm.normalize(&[0.25, 0.0, 15.0, 1.0]);
        assert!((n[0] - 0.25).abs() < 1e-6);
        assert!((n[1] - 0.5).abs() < 1e-6);
        assert!((n[2] - 0.5).abs() < 1e-6);
        assert!((n[3] - 0.5).abs() < 1e-6);
    }

    #[test]
    fn output_normalize_denormalize_roundtrip() {
        let norm = OutputNormalizer::default();
        let raw = vec![100.0, 250.0, 499.0, 321.5];
        let n = norm.normalize(&raw);
        let back = norm.denormalize(&n);
        for (a, b) in raw.iter().zip(&back) {
            assert!((a - b).abs() < 1e-3);
        }
        assert!(n.iter().all(|&v| (0.0..=1.0).contains(&v)));
    }

    #[test]
    fn output_range_constructor_scales_accordingly() {
        let norm = OutputNormalizer::for_range(0.0, 2.0);
        assert_eq!(norm.normalize(&[1.0]), vec![0.5]);
        assert_eq!(norm.denormalize(&[0.25]), vec![0.5]);
        assert!((norm.denormalize_mse(1.0) - 4.0).abs() < 1e-6);
    }

    #[test]
    fn mse_denormalization_scales_by_span_squared() {
        let norm = OutputNormalizer::default();
        assert!((norm.denormalize_mse(1e-4) - 16.0).abs() < 1e-4);
    }

    #[test]
    fn zero_time_max_does_not_divide_by_zero() {
        let norm = InputNormalizer {
            time_max: 0.0,
            ..InputNormalizer::default()
        };
        let n = norm.normalize(&[100.0, 100.0, 100.0, 100.0, 100.0, 3.0]);
        assert_eq!(n[5], 3.0);
    }

    #[test]
    fn degenerate_output_range_does_not_divide_by_zero() {
        let norm = OutputNormalizer::for_range(5.0, 5.0);
        assert!(norm.normalize(&[5.0])[0].is_finite());
    }
}
