//! Messages exchanged between clients and the training server.
//!
//! The traffic mirrors what the paper's ZMQ layer carries: one message per
//! computed time step (the payload is the gathered, `f32`-converted field plus
//! its input parameters), and a finalisation message signalling that a client
//! will send no more data.

use serde::Serialize;

/// The data carried by one time-step message: one training sample.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct SamplePayload {
    /// Ensemble-member identifier (which simulation produced this step).
    pub simulation_id: u64,
    /// Time-step index inside the simulation.
    pub step: usize,
    /// Physical time of the step.
    pub time: f64,
    /// The sampled input parameters `X` of the simulation.
    pub parameters: Vec<f32>,
    /// The gathered field values (row-major, `f32`).
    pub values: Vec<f32>,
}

impl SamplePayload {
    /// Unique key of the sample inside an experiment.
    pub fn key(&self) -> (u64, usize) {
        (self.simulation_id, self.step)
    }
}

/// A message on a client→server connection.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub enum Message {
    /// One computed time step.
    TimeStep {
        /// Identifier of the sending client.
        client_id: u64,
        /// Per-client monotonically increasing sequence number, used by the
        /// server-side message log to discard replays after a client restart.
        sequence: u64,
        /// The sample itself.
        payload: SamplePayload,
    },
    /// The client will send no more data.
    Finalize {
        /// Identifier of the finalizing client.
        client_id: u64,
        /// Number of time-step messages the client sent in total (per rank
        /// accounting is derived by the server).
        sent_messages: u64,
    },
}

impl Message {
    /// The client this message originates from.
    pub fn client_id(&self) -> u64 {
        match self {
            Message::TimeStep { client_id, .. } | Message::Finalize { client_id, .. } => *client_id,
        }
    }

    /// Transported size in bytes: the length of the message as a binary
    /// frame (a one-byte tag, the fixed-width fields, a `u32` length prefix
    /// before each `f32` vector). The fabric charges it per send, so
    /// transport volume is accounted the way the paper reports dataset sizes.
    // analysis: hot_path
    pub fn wire_bytes(&self) -> usize {
        match self {
            // tag + client_id + sent_messages.
            Message::Finalize { .. } => 1 + 8 + 8,
            // tag + client_id + sequence + simulation_id + step + time
            // + two u32 length prefixes + the f32 parameters and values.
            Message::TimeStep { payload, .. } => {
                1 + 8
                    + 8
                    + 8
                    + 8
                    + 8
                    + 4
                    + 4 * payload.parameters.len()
                    + 4
                    + 4 * payload.values.len()
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn payload() -> SamplePayload {
        SamplePayload {
            simulation_id: 42,
            step: 7,
            time: 0.08,
            parameters: vec![300.0, 100.0, 200.0, 400.0, 500.0],
            values: vec![1.5, 2.5, -3.0, 0.0],
        }
    }

    #[test]
    fn payload_key() {
        assert_eq!(payload().key(), (42, 7));
    }

    #[test]
    fn wire_bytes_is_exact_for_every_payload_shape() {
        // tag + five 8-byte fields + a u32 length prefix and 4 bytes per f32
        // for each of the two vectors.
        for (n_params, n_values) in [(0usize, 0usize), (5, 1), (5, 256), (3, 17)] {
            let msg = Message::TimeStep {
                client_id: 7,
                sequence: 1,
                payload: SamplePayload {
                    simulation_id: 2,
                    step: 3,
                    time: 0.5,
                    parameters: vec![1.0; n_params],
                    values: vec![2.0; n_values],
                },
            };
            assert_eq!(
                msg.wire_bytes(),
                1 + 5 * 8 + 4 + 4 * n_params + 4 + 4 * n_values,
                "{n_params} params, {n_values} values"
            );
        }
        let fixture = Message::TimeStep {
            client_id: 3,
            sequence: 99,
            payload: payload(),
        };
        assert_eq!(fixture.wire_bytes(), 85);
        let finalize = Message::Finalize {
            client_id: 11,
            sent_messages: 1234,
        };
        assert_eq!(finalize.wire_bytes(), 17);
    }

    #[test]
    fn wire_bytes_tracks_payload_size() {
        let small = Message::TimeStep {
            client_id: 0,
            sequence: 0,
            payload: SamplePayload {
                simulation_id: 0,
                step: 0,
                time: 0.0,
                parameters: vec![],
                values: vec![],
            },
        };
        let large = Message::TimeStep {
            client_id: 0,
            sequence: 0,
            payload: payload(),
        };
        assert!(large.wire_bytes() > small.wire_bytes());
    }

    #[test]
    fn client_id_accessor() {
        assert_eq!(
            Message::TimeStep {
                client_id: 5,
                sequence: 0,
                payload: payload(),
            }
            .client_id(),
            5
        );
        assert_eq!(
            Message::Finalize {
                client_id: 6,
                sent_messages: 0
            }
            .client_id(),
            6
        );
    }
}
