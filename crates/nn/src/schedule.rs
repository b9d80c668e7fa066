//! The learning-rate schedule.
//!
//! In the multi-GPU experiment (§4.5) the paper halves the learning rate every
//! 10,000 *training samples*, so that 1, 2 and 4 GPU runs decay at the same
//! point in data space (1,000/500/250 batches for batch size 10), down to a
//! floor of `2.5e-4`.

/// Halve the learning rate every `interval_samples` *training samples* (§4.5),
/// so runs with different GPU counts decay at the same point in data space.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SampleBasedHalving {
    /// Initial learning rate (paper: 1e-3).
    pub initial: f32,
    /// Number of samples between halvings (paper: 10,000); 0 never decays.
    pub interval_samples: usize,
    /// Lower bound on the learning rate (paper: 2.5e-4).
    pub floor: f32,
}

impl Default for SampleBasedHalving {
    fn default() -> Self {
        Self {
            initial: 1e-3,
            interval_samples: 10_000,
            floor: 2.5e-4,
        }
    }
}

impl SampleBasedHalving {
    /// Learning rate after `samples` training samples (batch size × batches ×
    /// ranks for data-parallel training).
    pub fn learning_rate(&self, samples: usize) -> f32 {
        let halvings = samples.checked_div(self.interval_samples).unwrap_or(0) as i32;
        (self.initial * 0.5f32.powi(halvings)).max(self.floor)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sample_based_halving_is_gpu_count_invariant() {
        let s = SampleBasedHalving::default();
        // 1 GPU, batch 10: 1000 batches = 10,000 samples.
        let lr_1gpu = s.learning_rate(1_000 * 10);
        // 4 GPUs, batch 10: 250 batches = 10,000 samples.
        let lr_4gpu = s.learning_rate(250 * 10 * 4);
        assert_eq!(lr_1gpu, lr_4gpu);
        assert_eq!(lr_1gpu, 5e-4);
        assert_eq!(s.learning_rate(9_999), 1e-3);
    }

    #[test]
    fn sample_based_floor_applies() {
        let s = SampleBasedHalving::default();
        assert_eq!(s.learning_rate(1_000_000), 2.5e-4);
    }

    #[test]
    fn zero_interval_means_no_decay() {
        let s = SampleBasedHalving {
            interval_samples: 0,
            ..SampleBasedHalving::default()
        };
        assert_eq!(s.learning_rate(10_000), 1e-3);
    }
}
