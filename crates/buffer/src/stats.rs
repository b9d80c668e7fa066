//! Instrumentation counters shared by all buffer implementations.

use serde::Serialize;

/// Counters describing the life of a buffer during one experiment.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize)]
pub struct BufferStats {
    /// Number of samples inserted by the data-aggregator side.
    pub puts: usize,
    /// Number of samples served to the training side.
    pub gets: usize,
    /// Number of served samples that had already been served before
    /// (only the Reservoir can repeat samples).
    pub repeated_gets: usize,
    /// Number of samples evicted to make room for new data
    /// (only the Reservoir evicts on write).
    pub evictions: usize,
    /// Number of times the producer had to wait because the buffer was full.
    pub producer_waits: usize,
    /// Number of times the consumer had to wait because no sample could be served.
    pub consumer_waits: usize,
}

impl BufferStats {
    /// Fraction of served samples that were repeats (0 when nothing was served).
    pub fn repeat_fraction(&self) -> f64 {
        if self.gets == 0 {
            0.0
        } else {
            self.repeated_gets as f64 / self.gets as f64
        }
    }
}

/// A timestamped snapshot of the buffer population, used to reproduce the
/// population curves of Figure 2.
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
pub struct OccupancySnapshot {
    /// Seconds since the start of the experiment.
    pub elapsed_seconds: f64,
    /// Total stored samples at that time.
    pub population: usize,
    /// Stored samples that have not yet been served (Reservoir only; equals
    /// `population` for FIFO/FIRO).
    pub unseen: usize,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn repeat_fraction_handles_zero_gets() {
        let s = BufferStats::default();
        assert_eq!(s.repeat_fraction(), 0.0);
    }

    #[test]
    fn repeat_fraction_and_unique_gets() {
        let s = BufferStats {
            gets: 10,
            repeated_gets: 4,
            ..BufferStats::default()
        };
        assert!((s.repeat_fraction() - 0.4).abs() < 1e-12);
    }
}
