//! Conversions between workload time steps, transport payloads and the
//! network's training samples, including the input/output normalisation —
//! plus the direct buffer→batch assembly used by the training hot loop.

use melissa_transport::SamplePayload;
use melissa_workload::WorkloadStep;
use surrogate_nn::{Batch, InputNormalizer, OutputNormalizer, Sample};
use training_buffer::TrainingBuffer;

/// Converts a workload time step into the transport payload streamed to the
/// server.
pub fn step_to_payload(step: &WorkloadStep, simulation_id: u64) -> SamplePayload {
    // One spare slot beyond the parameters: the server-side ingestion appends
    // the time entry in place (see [`payload_into_sample`]) without
    // reallocating.
    let mut parameters = Vec::with_capacity(step.params.len() + 1);
    parameters.extend(step.params.iter().map(|&p| p as f32));
    SamplePayload {
        simulation_id,
        step: step.step,
        time: step.time,
        parameters,
        values: step.values.clone(),
    }
}

/// Converts a received payload into a normalised training sample.
pub fn payload_to_sample(
    payload: &SamplePayload,
    input_norm: &InputNormalizer,
    output_norm: &OutputNormalizer,
) -> Sample {
    let mut input = Vec::with_capacity(payload.parameters.len() + 1);
    input_norm.normalize_into(&payload.parameters, payload.time as f32, &mut input);
    let target = output_norm.normalize(&payload.values);
    Sample::new(input, target, payload.simulation_id, payload.step)
}

/// Converts a received payload into a normalised training sample **in place**:
/// the payload's own parameter and value storage becomes the sample's input
/// and target storage (the time entry is appended into the spare capacity the
/// producers reserve), so the conversion performs zero heap allocations. This
/// is the aggregator's steady-state ingestion path.
pub fn payload_into_sample(
    payload: SamplePayload,
    input_norm: &InputNormalizer,
    output_norm: &OutputNormalizer,
) -> Sample {
    let SamplePayload {
        simulation_id,
        step,
        time,
        parameters: mut input,
        mut values,
    } = payload;
    input.push(time as f32);
    input_norm.normalize_in_place(&mut input);
    output_norm.normalize_in_place(&mut values);
    Sample::new(input, values, simulation_id, step)
}

/// Converts a workload time step directly into a normalised training sample
/// (used by the offline path, which bypasses the transport).
pub fn step_to_sample(
    step: &WorkloadStep,
    simulation_id: u64,
    input_norm: &InputNormalizer,
    output_norm: &OutputNormalizer,
) -> Sample {
    let payload = step_to_payload(step, simulation_id);
    payload_to_sample(&payload, input_norm, output_norm)
}

/// Assembles up to `n` samples from a training buffer **directly into the
/// batch matrices**: one lock acquisition, no intermediate `Vec<Sample>` and
/// no per-sample clone (the buffer hands out borrows which are copied row by
/// row). Returns the number of samples assembled; `0` signals that reception
/// is over and the buffer has drained.
pub fn fill_batch_from_buffer(
    buffer: &dyn TrainingBuffer<Sample>,
    batch: &mut Batch,
    n: usize,
) -> usize {
    batch.clear();
    buffer.get_batch_with(n, &mut |sample| batch.push_sample(sample))
}

#[cfg(test)]
mod tests {
    use super::*;
    use training_buffer::{FifoBuffer, ReservoirBuffer};

    fn step() -> WorkloadStep {
        WorkloadStep {
            step: 3,
            time: 0.04,
            params: [300.0, 100.0, 200.0, 400.0, 500.0],
            values: vec![100.0, 300.0, 500.0, 200.0],
        }
    }

    #[test]
    fn step_payload_sample_pipeline() {
        let input_norm = InputNormalizer::for_trajectory(100, 0.01);
        let output_norm = OutputNormalizer::default();
        let payload = step_to_payload(&step(), 12);
        assert_eq!(payload.simulation_id, 12);
        assert_eq!(payload.step, 3);
        assert_eq!(payload.values.len(), 4);

        let sample = payload_to_sample(&payload, &input_norm, &output_norm);
        assert_eq!(sample.key(), (12, 3));
        assert_eq!(sample.input.len(), 6);
        // Normalised inputs and targets live in [0, 1].
        assert!(sample.input.iter().all(|&v| (0.0..=1.0).contains(&v)));
        assert!(sample.target.iter().all(|&v| (0.0..=1.0).contains(&v)));
        // The first parameter, 300 K, maps to 0.5 of the [100, 500] range.
        assert!((sample.input[0] - 0.5).abs() < 1e-6);
        // t = 0.04 of a 1-second trajectory maps to 0.04.
        assert!((sample.input[5] - 0.04).abs() < 1e-6);
    }

    #[test]
    fn direct_and_two_step_conversion_agree() {
        let input_norm = InputNormalizer::for_trajectory(100, 0.01);
        let output_norm = OutputNormalizer::default();
        let via_payload =
            payload_to_sample(&step_to_payload(&step(), 5), &input_norm, &output_norm);
        let direct = step_to_sample(&step(), 5, &input_norm, &output_norm);
        assert_eq!(via_payload, direct);
    }

    #[test]
    fn in_place_conversion_matches_the_borrowing_one() {
        let input_norm = InputNormalizer::for_trajectory(100, 0.01);
        let output_norm = OutputNormalizer::default();
        let payload = step_to_payload(&step(), 9);
        let borrowed = payload_to_sample(&payload, &input_norm, &output_norm);
        let moved = payload_into_sample(payload, &input_norm, &output_norm);
        assert_eq!(borrowed, moved);
    }

    #[test]
    fn producers_reserve_the_time_slot() {
        // The in-place conversion relies on the spare capacity; pin it so a
        // future change to the producer reintroducing a realloc is caught.
        let payload = step_to_payload(&step(), 0);
        assert!(payload.parameters.capacity() > payload.parameters.len());
    }

    fn make_sample(k: u64) -> Sample {
        Sample::new(vec![k as f32; 3], vec![k as f32 * 2.0; 5], k, 0)
    }

    #[test]
    fn fill_batch_from_buffer_matches_sequential_assembly() {
        let buffer = FifoBuffer::new(32);
        for k in 0..7 {
            buffer.put(make_sample(k));
        }
        buffer.mark_reception_over();
        let mut batch = Batch::with_capacity(4, 3, 5);
        assert_eq!(fill_batch_from_buffer(&buffer, &mut batch, 4), 4);
        let expected: Vec<Sample> = (0..4).map(make_sample).collect();
        assert_eq!(batch, Batch::from_owned(&expected));
        // Partial batch at drain, then the termination signal.
        assert_eq!(fill_batch_from_buffer(&buffer, &mut batch, 4), 3);
        assert_eq!(batch.len(), 3);
        assert_eq!(fill_batch_from_buffer(&buffer, &mut batch, 4), 0);
        assert!(batch.is_empty());
    }

    #[test]
    fn fill_batch_from_buffer_serves_reservoir_repeats() {
        let buffer = ReservoirBuffer::new(8, 1, 3);
        for k in 0..4 {
            buffer.put(make_sample(k));
        }
        let mut batch = Batch::with_capacity(10, 3, 5);
        // More than stored: the Reservoir repeats instead of blocking.
        assert_eq!(fill_batch_from_buffer(&buffer, &mut batch, 10), 10);
        assert_eq!(batch.len(), 10);
        assert_eq!(buffer.len(), 4, "pre-drain serving keeps the population");
    }
}
