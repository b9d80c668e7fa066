//! Training samples and batch assembly.
//!
//! One sample is the pair `((X, t), u_X^t)`: the six-dimensional surrogate input
//! (five sampled temperatures plus the requested time) and the flattened
//! temperature field at that time. Batches stack samples into the matrices the
//! MLP consumes.

use crate::matrix::Matrix;
use serde::Serialize;

/// One training sample: input vector and target vector.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct Sample {
    /// Surrogate input `(X, t)`.
    pub input: Vec<f32>,
    /// Target field values.
    pub target: Vec<f32>,
    /// Identifier of the simulation (ensemble member) this sample came from.
    pub simulation_id: u64,
    /// Time-step index inside the simulation.
    pub step: usize,
}

impl Sample {
    /// Creates a sample.
    pub fn new(input: Vec<f32>, target: Vec<f32>, simulation_id: u64, step: usize) -> Self {
        Self {
            input,
            target,
            simulation_id,
            step,
        }
    }

    /// A globally unique key identifying this sample inside an experiment.
    pub fn key(&self) -> (u64, usize) {
        (self.simulation_id, self.step)
    }

    /// Size of the sample payload in bytes (inputs + targets).
    pub fn payload_bytes(&self) -> usize {
        (self.input.len() + self.target.len()) * std::mem::size_of::<f32>()
    }
}

/// A batch of samples assembled into input/target matrices.
#[derive(Debug, Clone, PartialEq)]
pub struct Batch {
    /// Stacked inputs, shape `batch_size × input_dim`.
    pub inputs: Matrix,
    /// Stacked targets, shape `batch_size × output_dim`.
    pub targets: Matrix,
    /// Keys of the samples in the batch (used for occurrence accounting).
    pub keys: Vec<(u64, usize)>,
}

impl Batch {
    /// Assembles a batch from samples.
    ///
    /// # Panics
    /// Panics when `samples` is empty or the samples have inconsistent sizes.
    pub fn from_samples(samples: &[&Sample]) -> Self {
        assert!(!samples.is_empty(), "cannot build an empty batch");
        let (input_dim, output_dim) = (samples[0].input.len(), samples[0].target.len());
        let mut batch = Self::with_capacity(samples.len(), input_dim, output_dim);
        batch.clear();
        for s in samples {
            batch.push_sample(s);
        }
        batch
    }

    /// Assembles a batch from owned samples.
    pub fn from_owned(samples: &[Sample]) -> Self {
        let refs: Vec<&Sample> = samples.iter().collect();
        Self::from_samples(&refs)
    }

    /// Creates an empty, preallocated batch to be refilled with
    /// [`Batch::fill_owned`] — the reusable counterpart of
    /// [`Batch::from_owned`] for the allocation-free training loop.
    pub fn with_capacity(batch_size: usize, input_dim: usize, output_dim: usize) -> Self {
        Self {
            inputs: Matrix::zeros(batch_size, input_dim),
            targets: Matrix::zeros(batch_size, output_dim),
            keys: Vec::with_capacity(batch_size),
        }
    }

    /// Refills this batch in place from owned samples, resizing the matrices
    /// logically (no heap allocation while the sample count stays within the
    /// preallocated capacity).
    ///
    /// # Panics
    /// Panics when `samples` is empty or a sample's sizes do not match the
    /// batch dimensions.
    pub fn fill_owned(&mut self, samples: &[Sample]) {
        assert!(!samples.is_empty(), "cannot build an empty batch");
        self.clear();
        for s in samples {
            self.push_sample(s);
        }
    }

    /// Logically empties the batch (keeping the matrix storage) so rows can be
    /// appended one by one with [`Batch::push_sample`] — the entry point of
    /// the direct buffer→batch assembly path, where samples served by a
    /// training buffer land in the batch matrices without an intermediate
    /// `Vec<Sample>` copy.
    pub fn clear(&mut self) {
        self.inputs.resize_rows(0);
        self.targets.resize_rows(0);
        self.keys.clear();
    }

    /// Appends one sample's input/target rows and key. No heap allocation
    /// while the row count stays within the preallocated capacity.
    ///
    /// # Panics
    /// Panics when the sample's sizes do not match the batch dimensions.
    pub fn push_sample(&mut self, sample: &Sample) {
        let input_dim = self.inputs.cols();
        let output_dim = self.targets.cols();
        assert_eq!(sample.input.len(), input_dim, "inconsistent input size");
        assert_eq!(sample.target.len(), output_dim, "inconsistent target size");
        // Rows without a key (a fresh `with_capacity` batch's) give way.
        let r = self.keys.len();
        self.inputs.resize_rows(r);
        self.targets.resize_rows(r);
        self.inputs.push_row(&sample.input);
        self.targets.push_row(&sample.target);
        self.keys.push(sample.key());
    }

    /// Number of samples in the batch.
    pub fn len(&self) -> usize {
        self.inputs.rows()
    }

    /// True when the batch holds no samples (never produced by the constructors).
    pub fn is_empty(&self) -> bool {
        self.inputs.rows() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample(id: u64, step: usize) -> Sample {
        Sample::new(vec![id as f32, step as f32], vec![1.0, 2.0, 3.0], id, step)
    }

    #[test]
    fn sample_key_and_bytes() {
        let s = sample(7, 3);
        assert_eq!(s.key(), (7, 3));
        assert_eq!(s.payload_bytes(), 5 * 4);
    }

    #[test]
    fn batch_from_samples_stacks_rows() {
        let a = sample(1, 0);
        let b = sample(2, 5);
        let batch = Batch::from_samples(&[&a, &b]);
        assert_eq!(batch.len(), 2);
        assert_eq!(batch.inputs.rows(), 2);
        assert_eq!(batch.inputs.cols(), 2);
        assert_eq!(batch.targets.cols(), 3);
        assert_eq!(batch.keys, vec![(1, 0), (2, 5)]);
        assert_eq!(batch.inputs.row(1), &[2.0, 5.0]);
    }

    #[test]
    #[should_panic(expected = "cannot build an empty batch")]
    fn empty_batch_is_rejected() {
        let _ = Batch::from_samples(&[]);
    }

    #[test]
    fn reusable_batch_matches_from_owned() {
        let samples: Vec<Sample> = (0..4).map(|k| sample(k, k as usize)).collect();
        let mut reusable = Batch::with_capacity(4, 2, 3);
        reusable.fill_owned(&samples);
        assert_eq!(reusable, Batch::from_owned(&samples));
        // Refilling with a smaller (partial) batch shrinks logically.
        reusable.fill_owned(&samples[..2]);
        assert_eq!(reusable, Batch::from_owned(&samples[..2]));
        assert_eq!(reusable.len(), 2);
    }

    #[test]
    fn incremental_fill_matches_fill_owned() {
        let samples: Vec<Sample> = (0..4).map(|k| sample(k, k as usize)).collect();
        let mut incremental = Batch::with_capacity(4, 2, 3);
        incremental.clear();
        for s in &samples {
            incremental.push_sample(s);
        }
        let mut reference = Batch::with_capacity(4, 2, 3);
        reference.fill_owned(&samples);
        assert_eq!(incremental, reference);
        // A shorter refill after a longer one must not leak stale rows.
        incremental.clear();
        incremental.push_sample(&samples[3]);
        assert_eq!(incremental.len(), 1);
        assert_eq!(incremental.keys, vec![samples[3].key()]);
        assert_eq!(incremental.inputs.row(0), &samples[3].input[..]);
    }

    #[test]
    #[should_panic(expected = "inconsistent input size")]
    fn push_sample_rejects_wrong_width() {
        let mut batch = Batch::with_capacity(2, 3, 3);
        batch.push_sample(&sample(1, 0));
    }

    #[test]
    #[should_panic(expected = "inconsistent target size")]
    fn inconsistent_samples_are_rejected() {
        let a = sample(1, 0);
        let mut b = sample(2, 0);
        b.target.push(4.0);
        let _ = Batch::from_samples(&[&a, &b]);
    }
}
