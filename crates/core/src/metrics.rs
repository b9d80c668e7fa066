//! Experiment instrumentation: throughput, losses, buffer population and
//! sample-occurrence histograms — the raw material of every figure and table.

use serde::{Deserialize, Serialize};
use std::time::{Duration, Instant};
use training_buffer::OccupancySnapshot;

/// One throughput measurement, as the paper computes it: the number of samples
/// per second processed by the learning thread over a window of batches.
///
/// Emulated-device stalls ([`crate::DeviceProfile::extra_batch_micros`]) are
/// measured separately, so reports can distinguish what the compute kernels
/// deliver from what the emulated device throttles the loop to.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ThroughputPoint {
    /// Seconds since the start of training.
    pub elapsed_seconds: f64,
    /// Samples per second over the last window (wall clock, stalls included).
    pub samples_per_second: f64,
    /// Samples per second over the last window with the emulated-device stall
    /// time subtracted — the rate the training kernels actually sustained.
    pub compute_samples_per_second: f64,
    /// Seconds of the last window spent in emulated-device stalls.
    pub stall_seconds: f64,
    /// Number of batches processed so far (on this rank).
    pub batches: usize,
}

/// Measures throughput over windows of `window_batches` batches (the paper uses
/// 10 batches every 10 batches).
#[derive(Debug)]
pub struct ThroughputTracker {
    window_batches: usize,
    started: Instant,
    window_started: Instant,
    batches_in_window: usize,
    samples_in_window: usize,
    stall_in_window: Duration,
    total_batches: usize,
    total_samples: usize,
    total_stall: Duration,
    points: Vec<ThroughputPoint>,
}

impl ThroughputTracker {
    /// Creates a tracker.
    pub fn new(window_batches: usize) -> Self {
        let now = Instant::now();
        Self {
            window_batches: window_batches.max(1),
            started: now,
            window_started: now,
            batches_in_window: 0,
            samples_in_window: 0,
            stall_in_window: Duration::ZERO,
            total_batches: 0,
            total_samples: 0,
            total_stall: Duration::ZERO,
            points: Vec::new(),
        }
    }

    /// Records emulated-device stall time that was not attached to a data
    /// batch (idle collective rounds still sleep the device delay); it is
    /// subtracted from the compute-throughput denominators like batch stalls.
    pub fn record_stall(&mut self, stall: Duration) {
        self.stall_in_window += stall;
        self.total_stall += stall;
    }

    /// Records one processed batch (of `samples` samples, which may be smaller
    /// than the nominal batch size for the last batch) together with the time
    /// this batch spent in an emulated-device stall.
    pub fn record_batch(&mut self, samples: usize, stall: Duration) {
        self.batches_in_window += 1;
        self.samples_in_window += samples;
        self.total_batches += 1;
        self.total_samples += samples;
        self.stall_in_window += stall;
        self.total_stall += stall;
        if self.batches_in_window >= self.window_batches {
            let elapsed = self.window_started.elapsed().as_secs_f64();
            let stall_seconds = self.stall_in_window.as_secs_f64();
            let compute = (elapsed - stall_seconds).max(0.0);
            let samples_in_window = self.samples_in_window;
            let rate = |seconds: f64| {
                if seconds > 0.0 {
                    samples_in_window as f64 / seconds
                } else {
                    f64::INFINITY
                }
            };
            self.points.push(ThroughputPoint {
                elapsed_seconds: self.started.elapsed().as_secs_f64(),
                samples_per_second: rate(elapsed),
                compute_samples_per_second: rate(compute),
                stall_seconds,
                batches: self.total_batches,
            });
            self.batches_in_window = 0;
            self.samples_in_window = 0;
            self.stall_in_window = Duration::ZERO;
            self.window_started = Instant::now();
        }
    }

    /// All completed window measurements.
    pub fn points(&self) -> &[ThroughputPoint] {
        &self.points
    }

    /// Total number of batches recorded.
    pub fn total_batches(&self) -> usize {
        self.total_batches
    }

    /// Total time spent in emulated-device stalls.
    pub fn total_stall(&self) -> Duration {
        self.total_stall
    }

    /// Mean throughput over the whole run (samples per second, wall clock),
    /// counting the samples actually trained on — partial drain batches are
    /// not rounded up to the nominal batch size.
    pub fn mean_throughput(&self) -> f64 {
        let elapsed = self.started.elapsed().as_secs_f64();
        if elapsed == 0.0 {
            return 0.0;
        }
        self.total_samples as f64 / elapsed
    }

    /// Mean throughput with the emulated-device stall time subtracted.
    pub fn mean_compute_throughput(&self) -> f64 {
        let compute =
            (self.started.elapsed() - self.total_stall.min(self.started.elapsed())).as_secs_f64();
        if compute == 0.0 {
            return 0.0;
        }
        self.total_samples as f64 / compute
    }

    /// Consumes the tracker, returning its points.
    pub fn into_points(self) -> Vec<ThroughputPoint> {
        self.points
    }
}

/// One loss measurement.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct LossPoint {
    /// Number of batches processed on the recording rank when measured.
    pub batches: usize,
    /// Total number of training samples seen across all ranks when measured.
    pub samples_seen: usize,
    /// Training loss (normalised MSE) of the most recent batch.
    pub train_loss: f32,
    /// Validation loss (normalised MSE), when a validation pass was run.
    pub validation_loss: Option<f32>,
    /// Seconds since the start of training.
    pub elapsed_seconds: f64,
}

/// How many times each sample `(simulation, step)` was served to training:
/// one dense row of per-step counts per simulation id. Simulation ids are the
/// campaign's client ids `0..simulations` and steps are `0..steps`, so a run
/// sizes the table once and counting a sample is two indexings; a key outside
/// the shape is a caller's bug and panics.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct OccurrenceTable {
    rows: Vec<Vec<u32>>,
}

impl OccurrenceTable {
    /// An all-zero table for `simulations` simulations of `steps` steps.
    pub fn with_shape(simulations: usize, steps: usize) -> Self {
        Self {
            rows: vec![vec![0; steps]; simulations],
        }
    }

    /// Counts one more serve of the sample `key`.
    pub fn record(&mut self, (simulation, step): (u64, usize)) {
        self.rows[simulation as usize][step] += 1;
    }

    /// The sum of per-rank tables of one shape. The first table becomes the
    /// result, so a single rank's counts are moved, not copied.
    pub fn merged(tables: impl IntoIterator<Item = Self>) -> Self {
        let mut tables = tables.into_iter();
        let mut total = tables.next().unwrap_or_default();
        for table in tables {
            assert_eq!(table.rows.len(), total.rows.len());
            for (sums, counts) in total.rows.iter_mut().zip(&table.rows) {
                assert_eq!(counts.len(), sums.len());
                for (sum, count) in sums.iter_mut().zip(counts) {
                    *sum += count;
                }
            }
        }
        total
    }

    /// The count of every sample served at least once.
    pub fn counts(&self) -> impl Iterator<Item = u32> + '_ {
        self.rows.iter().flatten().copied().filter(|&n| n > 0)
    }
}

/// Histogram of how many times each unique sample appeared in training batches
/// (Figure 3 of the paper).
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct OccurrenceHistogram {
    /// `histogram[k]` = number of unique samples that appeared exactly `k` times
    /// (index 0 counts produced-but-never-trained-on samples when known).
    pub counts: Vec<usize>,
}

impl OccurrenceHistogram {
    /// Builds the histogram from the per-sample occurrence counts.
    pub fn from_occurrences(occurrences: &OccurrenceTable) -> Self {
        let mut counts = Vec::new();
        for n in occurrences.counts() {
            let n = n as usize;
            if counts.len() <= n {
                counts.resize(n + 1, 0);
            }
            counts[n] += 1;
        }
        Self { counts }
    }

    /// Number of unique samples that appeared at least once.
    pub fn unique_samples(&self) -> usize {
        self.counts.iter().skip(1).sum()
    }

    /// Total number of sample occurrences (i.e. samples × repetitions).
    pub fn total_occurrences(&self) -> usize {
        self.counts
            .iter()
            .enumerate()
            .map(|(reps, &n)| reps * n)
            .sum()
    }

    /// Largest repetition count observed.
    pub fn max_repetitions(&self) -> usize {
        self.counts.len().saturating_sub(1)
    }

    /// Mean number of occurrences per unique sample.
    pub fn mean_repetitions(&self) -> f64 {
        let unique = self.unique_samples();
        if unique == 0 {
            0.0
        } else {
            self.total_occurrences() as f64 / unique as f64
        }
    }
}

/// Everything measured during one experiment run.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct ExperimentMetrics {
    /// Loss history (training and periodic validation).
    pub losses: Vec<LossPoint>,
    /// Throughput measurements from every rank, merged and sorted by time.
    pub throughput: Vec<ThroughputPoint>,
    /// Buffer population snapshots (per rank, flattened; rank in the snapshot
    /// order is not preserved — the population curves of Fig. 2 sum over ranks).
    pub occupancy: Vec<OccupancySnapshot>,
    /// Histogram of sample occurrences in training batches.
    pub occurrences: OccurrenceHistogram,
}

impl ExperimentMetrics {
    /// Lowest validation loss observed (the paper's "Min. MSE" column).
    pub fn min_validation_loss(&self) -> Option<f32> {
        self.losses
            .iter()
            .filter_map(|p| p.validation_loss)
            .fold(None, |acc, v| match acc {
                None => Some(v),
                Some(best) => Some(best.min(v)),
            })
    }

    /// Last validation loss observed.
    pub fn final_validation_loss(&self) -> Option<f32> {
        self.losses.iter().rev().find_map(|p| p.validation_loss)
    }

    /// Mean throughput over all recorded windows (samples per second).
    pub fn mean_throughput(&self) -> f64 {
        if self.throughput.is_empty() {
            return 0.0;
        }
        self.throughput
            .iter()
            .map(|p| p.samples_per_second)
            .sum::<f64>()
            / self.throughput.len() as f64
    }

    /// Mean stall-corrected throughput over all recorded windows.
    pub fn mean_compute_throughput(&self) -> f64 {
        if self.throughput.is_empty() {
            return 0.0;
        }
        self.throughput
            .iter()
            .map(|p| p.compute_samples_per_second)
            .sum::<f64>()
            / self.throughput.len() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn throughput_tracker_emits_one_point_per_window() {
        let mut tracker = ThroughputTracker::new(5);
        for _ in 0..23 {
            tracker.record_batch(10, Duration::ZERO);
        }
        assert_eq!(tracker.points().len(), 4);
        assert_eq!(tracker.total_batches(), 23);
        for p in tracker.points() {
            assert!(p.samples_per_second > 0.0);
            // No stalls recorded: both rates agree.
            assert_eq!(p.samples_per_second, p.compute_samples_per_second);
            assert_eq!(p.stall_seconds, 0.0);
        }
    }

    #[test]
    fn throughput_rate_reflects_elapsed_time() {
        let mut tracker = ThroughputTracker::new(2);
        tracker.record_batch(10, Duration::ZERO);
        std::thread::sleep(Duration::from_millis(20));
        tracker.record_batch(10, Duration::ZERO);
        let p = tracker.points()[0];
        // 20 samples in ≥ 20 ms → at most 1000 samples/s (generous upper bound).
        assert!(p.samples_per_second <= 1100.0, "{}", p.samples_per_second);
        assert!(tracker.mean_throughput() > 0.0);
    }

    #[test]
    fn stall_time_is_separated_from_compute_throughput() {
        let mut tracker = ThroughputTracker::new(2);
        // Each batch sleeps 15 ms and reports it as an emulated-device stall.
        for _ in 0..2 {
            std::thread::sleep(Duration::from_millis(15));
            tracker.record_batch(10, Duration::from_millis(15));
        }
        let p = tracker.points()[0];
        assert!(p.stall_seconds >= 0.03 - 1e-3, "{}", p.stall_seconds);
        // Subtracting the stall must report a (much) higher compute rate.
        assert!(
            p.compute_samples_per_second > p.samples_per_second,
            "compute {} vs wall {}",
            p.compute_samples_per_second,
            p.samples_per_second
        );
        assert!(tracker.mean_compute_throughput() > tracker.mean_throughput());
        assert!(tracker.total_stall() >= Duration::from_millis(30));
    }

    #[test]
    fn idle_round_stalls_count_against_compute_time() {
        let mut tracker = ThroughputTracker::new(1);
        std::thread::sleep(Duration::from_millis(5));
        tracker.record_stall(Duration::from_millis(5));
        std::thread::sleep(Duration::from_millis(5));
        tracker.record_batch(10, Duration::ZERO);
        let p = tracker.points()[0];
        // The idle stall belongs to the window even though no batch carried it.
        assert!(p.stall_seconds >= 0.005 - 1e-3, "{}", p.stall_seconds);
        assert!(p.compute_samples_per_second > p.samples_per_second);
        assert!(tracker.total_stall() >= Duration::from_millis(5));
    }

    #[test]
    fn occurrence_tables_merge_by_adding_counts() {
        let mut rank0 = OccurrenceTable::with_shape(2, 3);
        let mut rank1 = rank0.clone();
        for key in [(0, 0), (0, 0), (1, 1)] {
            rank0.record(key);
        }
        for key in [(0, 0), (1, 2)] {
            rank1.record(key);
        }
        let only = OccurrenceTable::merged([rank0.clone()]);
        assert_eq!(only, rank0);
        let merged = OccurrenceTable::merged([rank0, rank1]);
        let mut counts: Vec<u32> = merged.counts().collect();
        counts.sort_unstable();
        assert_eq!(counts, vec![1, 1, 3]);
        assert_eq!(OccurrenceTable::merged([]).counts().count(), 0);
    }

    #[test]
    fn occurrence_histogram_from_map() {
        // Most of the 5 × 8 samples are never served and are not counted.
        let mut occurrences = OccurrenceTable::with_shape(5, 8);
        for (key, serves) in [((0, 0), 1), ((0, 1), 2), ((1, 0), 2), ((4, 7), 5)] {
            for _ in 0..serves {
                occurrences.record(key);
            }
        }
        assert_eq!(occurrences.counts().count(), 4);
        let histogram = OccurrenceHistogram::from_occurrences(&occurrences);
        assert_eq!(histogram.counts[1], 1);
        assert_eq!(histogram.counts[2], 2);
        assert_eq!(histogram.counts[5], 1);
        assert_eq!(histogram.unique_samples(), 4);
        assert_eq!(histogram.total_occurrences(), 1 + 2 + 2 + 5);
        assert_eq!(histogram.max_repetitions(), 5);
        assert!((histogram.mean_repetitions() - 2.5).abs() < 1e-12);
    }

    #[test]
    fn metrics_min_and_final_validation() {
        let metrics = ExperimentMetrics {
            losses: vec![
                LossPoint {
                    batches: 10,
                    samples_seen: 100,
                    train_loss: 0.5,
                    validation_loss: Some(0.6),
                    elapsed_seconds: 1.0,
                },
                LossPoint {
                    batches: 20,
                    samples_seen: 200,
                    train_loss: 0.4,
                    validation_loss: None,
                    elapsed_seconds: 2.0,
                },
                LossPoint {
                    batches: 30,
                    samples_seen: 300,
                    train_loss: 0.3,
                    validation_loss: Some(0.35),
                    elapsed_seconds: 3.0,
                },
            ],
            ..ExperimentMetrics::default()
        };
        assert_eq!(metrics.min_validation_loss(), Some(0.35));
        assert_eq!(metrics.final_validation_loss(), Some(0.35));
    }

    #[test]
    fn empty_metrics_are_safe() {
        let metrics = ExperimentMetrics::default();
        assert_eq!(metrics.min_validation_loss(), None);
        assert_eq!(metrics.final_validation_loss(), None);
        assert_eq!(metrics.mean_throughput(), 0.0);
        assert_eq!(OccurrenceHistogram::default().mean_repetitions(), 0.0);
    }
}
