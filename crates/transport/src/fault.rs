//! Fault injection for the transport layer.
//!
//! The paper's framework is fault-tolerant: clients can crash and be restarted,
//! and the server discards messages it has already received. To exercise those
//! paths without a real cluster, the fabric can be configured to drop or
//! duplicate messages with given probabilities, and — for
//! reproducible chaos scenarios — to follow a scripted [`FaultPlan`]:
//! "client 3 crashes after emitting step 7 of attempt 1", "the server fails
//! after batch N", "shard (0, 1) stalls for 50 ms". The probabilistic knobs
//! model a lossy interconnect; the plan models the discrete failures §3.1's
//! recovery machinery (launcher restarts, checkpoint-resume) must survive.
//!
//! Every probabilistic decision is a pure function of
//! `(seed, client_id, sequence)` — no shared RNG state — so concurrent
//! senders never serialize on the injector and the same seed yields the same
//! fault schedule no matter how threads interleave.

use serde::{Deserialize, Serialize};
use std::time::Duration;

/// One scripted failure in a [`FaultPlan`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum FaultEvent {
    /// Attempt `attempt` of client `client_id` crashes (returns an error)
    /// after emitting `after_steps` time steps.
    ClientCrash {
        /// The client that fails.
        client_id: u64,
        /// The attempt (0-based) the failure applies to; later attempts of
        /// the same client run clean unless scripted separately.
        attempt: usize,
        /// Number of time steps emitted before the crash.
        after_steps: usize,
    },
    /// Attempt `attempt` of client `client_id` stops making progress after
    /// emitting `after_steps` time steps — it neither finishes nor errors,
    /// which only a watchdog deadline can detect.
    ClientHang {
        /// The client that hangs.
        client_id: u64,
        /// The attempt (0-based) the hang applies to.
        attempt: usize,
        /// Number of time steps emitted before the hang.
        after_steps: usize,
    },
    /// The training server fails after completing `after_batches` gradient
    /// batches; recovery restarts it from the latest checkpoint.
    ServerCrash {
        /// Number of data batches trained before the crash.
        after_batches: usize,
    },
    /// The ingest channel of shard `shard` of rank `rank` stalls (the
    /// receiving worker sleeps) for `stall` once `after_messages` messages
    /// have been drained from it.
    ShardStall {
        /// The server rank whose shard stalls.
        rank: usize,
        /// The ingest shard within the rank.
        shard: usize,
        /// Messages drained before the stall fires.
        after_messages: usize,
        /// How long the shard worker stalls.
        stall: Duration,
    },
}

/// What a scripted client fault does once it triggers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ClientFaultKind {
    /// The client errors out (a detectable failure).
    Crash,
    /// The client silently stops (only heartbeat staleness reveals it).
    Hang,
}

/// The scripted fault a given `(client, attempt)` pair must act out.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ScriptedClientFault {
    /// Time steps to emit before failing.
    pub after_steps: usize,
    /// Whether the client crashes loudly or hangs silently.
    pub kind: ClientFaultKind,
}

/// A deterministic, scripted fault schedule.
///
/// The plan is data, not state: querying it never mutates anything, so the
/// same plan replayed against the same experiment produces the same failure
/// trace and therefore the same recovery trace.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct FaultPlan {
    /// The scripted failures, in no particular order.
    pub events: Vec<FaultEvent>,
}

impl FaultPlan {
    /// A plan with no scripted faults.
    pub fn none() -> Self {
        Self::default()
    }

    /// True when nothing is scripted.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Adds an event (builder style).
    #[must_use]
    pub fn with(mut self, event: FaultEvent) -> Self {
        self.events.push(event);
        self
    }

    /// Convenience: client `client_id` crashes on attempt `attempt` after
    /// `after_steps` steps.
    #[must_use]
    pub fn with_client_crash(self, client_id: u64, attempt: usize, after_steps: usize) -> Self {
        self.with(FaultEvent::ClientCrash {
            client_id,
            attempt,
            after_steps,
        })
    }

    /// Convenience: client `client_id` hangs on attempt `attempt` after
    /// `after_steps` steps.
    #[must_use]
    pub fn with_client_hang(self, client_id: u64, attempt: usize, after_steps: usize) -> Self {
        self.with(FaultEvent::ClientHang {
            client_id,
            attempt,
            after_steps,
        })
    }

    /// Convenience: the server crashes after `after_batches` batches.
    #[must_use]
    pub fn with_server_crash(self, after_batches: usize) -> Self {
        self.with(FaultEvent::ServerCrash { after_batches })
    }

    /// Convenience: shard `(rank, shard)` stalls for `stall` after draining
    /// `after_messages` messages.
    #[must_use]
    pub fn with_shard_stall(
        self,
        rank: usize,
        shard: usize,
        after_messages: usize,
        stall: Duration,
    ) -> Self {
        self.with(FaultEvent::ShardStall {
            rank,
            shard,
            after_messages,
            stall,
        })
    }

    /// The scripted fault (if any) for attempt `attempt` of `client_id`.
    /// The first matching event wins.
    pub fn client_fault(&self, client_id: u64, attempt: usize) -> Option<ScriptedClientFault> {
        self.events.iter().find_map(|event| match *event {
            FaultEvent::ClientCrash {
                client_id: id,
                attempt: a,
                after_steps,
            } if id == client_id && a == attempt => Some(ScriptedClientFault {
                after_steps,
                kind: ClientFaultKind::Crash,
            }),
            FaultEvent::ClientHang {
                client_id: id,
                attempt: a,
                after_steps,
            } if id == client_id && a == attempt => Some(ScriptedClientFault {
                after_steps,
                kind: ClientFaultKind::Hang,
            }),
            _ => None,
        })
    }

    /// The batch count after which the server is scripted to crash, if any.
    /// The earliest scripted crash wins.
    pub fn server_crash_after(&self) -> Option<usize> {
        self.events
            .iter()
            .filter_map(|event| match *event {
                FaultEvent::ServerCrash { after_batches } => Some(after_batches),
                _ => None,
            })
            .min()
    }

    /// The stall (messages-before, duration) scripted for shard
    /// `(rank, shard)`, if any.
    pub fn shard_stall(&self, rank: usize, shard: usize) -> Option<(usize, Duration)> {
        self.events.iter().find_map(|event| match *event {
            FaultEvent::ShardStall {
                rank: r,
                shard: s,
                after_messages,
                stall,
            } if r == rank && s == shard => Some((after_messages, stall)),
            _ => None,
        })
    }

    /// Generates a randomized-but-deterministic chaos schedule: each client
    /// independently (probability ~1/3 each) runs clean, crashes once, or
    /// hangs once, at a scripted step below `steps_per_client`. Faults are
    /// scripted on attempt 0 only, so a retried client succeeds — the
    /// schedule exercises detection and retry, not retry exhaustion. The
    /// same `seed` always yields the same schedule.
    pub fn seeded_chaos(seed: u64, num_clients: u64, steps_per_client: usize) -> Self {
        let mut events = Vec::new();
        for client_id in 0..num_clients {
            let h = mix64(mix64(seed ^ CHAOS_SALT) ^ client_id);
            let step = if steps_per_client > 1 {
                (mix64(h) % steps_per_client as u64) as usize
            } else {
                0
            };
            match h % 3 {
                0 => {}
                1 => events.push(FaultEvent::ClientCrash {
                    client_id,
                    attempt: 0,
                    after_steps: step,
                }),
                _ => events.push(FaultEvent::ClientHang {
                    client_id,
                    attempt: 0,
                    after_steps: step,
                }),
            }
        }
        Self { events }
    }
}

/// Probabilities and scripted faults applied to transport traffic.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct FaultConfig {
    /// Probability that a message is silently dropped.
    #[serde(default)]
    pub drop_probability: f64,
    /// Probability that a message is delivered twice (emulating a client
    /// retransmitting after an acknowledgement was lost).
    #[serde(default)]
    pub duplicate_probability: f64,
    /// Seed of the injector's per-message fault decisions.
    #[serde(default)]
    pub seed: u64,
    /// Scripted failures (client crashes/hangs, server crash, shard stalls).
    #[serde(default)]
    pub plan: FaultPlan,
}

impl FaultConfig {
    /// A configuration that never perturbs messages.
    pub fn none() -> Self {
        Self::default()
    }
}

/// splitmix64 finalizer: the project's stable stateless hash (same constants
/// as [`crate::fabric::stable_shard`]).
#[inline]
fn mix64(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Domain separator so chaos-schedule draws never collide with per-message
/// delivery draws under the same seed.
const CHAOS_SALT: u64 = 0xC4A0_5C4A_05C4_A05C;

/// Maps a hash to a uniform float in `[0, 1)` using the top 53 bits.
#[inline]
fn unit_f64(x: u64) -> f64 {
    (x >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
}

/// The per-fabric fault decision engine.
///
/// Stateless by design: the fate of a message is a pure hash of
/// `(config.seed, client_id, sequence)` ("fault stream v2" in
/// `analysis/seed_policy.toml`), so concurrent senders never contend and a
/// replayed message — same client, same sequence — receives the same verdict.
#[derive(Debug)]
pub struct FaultInjector {
    config: FaultConfig,
}

/// What should happen to one message.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Delivery {
    /// Deliver the message once.
    Deliver,
    /// Deliver the message twice.
    Duplicate,
    /// Drop the message.
    Drop,
}

impl FaultInjector {
    /// Creates an injector.
    pub fn new(config: FaultConfig) -> Self {
        Self { config }
    }

    /// Decides the fate of message `sequence` of client `client_id`.
    pub fn decide(&self, client_id: u64, sequence: u64) -> Delivery {
        if self.config.drop_probability == 0.0 && self.config.duplicate_probability == 0.0 {
            return Delivery::Deliver;
        }
        let roll = unit_f64(mix64(mix64(mix64(self.config.seed) ^ client_id) ^ sequence));
        if roll < self.config.drop_probability {
            Delivery::Drop
        } else if roll < self.config.drop_probability + self.config.duplicate_probability {
            Delivery::Duplicate
        } else {
            Delivery::Deliver
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn noop_config_always_delivers() {
        let injector = FaultInjector::new(FaultConfig::none());
        for seq in 0..100 {
            assert_eq!(injector.decide(0, seq), Delivery::Deliver);
        }
    }

    #[test]
    fn drop_probability_one_always_drops() {
        let injector = FaultInjector::new(FaultConfig {
            drop_probability: 1.0,
            ..FaultConfig::default()
        });
        for seq in 0..50 {
            assert_eq!(injector.decide(3, seq), Delivery::Drop);
        }
    }

    #[test]
    fn probabilities_roughly_respected() {
        let injector = FaultInjector::new(FaultConfig {
            drop_probability: 0.3,
            duplicate_probability: 0.2,
            seed: 7,
            ..FaultConfig::default()
        });
        let mut drops = 0;
        let mut dups = 0;
        let n = 5_000;
        for seq in 0..n {
            match injector.decide(0, seq) {
                Delivery::Drop => drops += 1,
                Delivery::Duplicate => dups += 1,
                Delivery::Deliver => {}
            }
        }
        let drop_rate = drops as f64 / n as f64;
        let dup_rate = dups as f64 / n as f64;
        assert!((drop_rate - 0.3).abs() < 0.05, "drop rate {drop_rate}");
        assert!((dup_rate - 0.2).abs() < 0.05, "duplicate rate {dup_rate}");
    }

    #[test]
    fn decisions_are_a_pure_function_of_seed_client_and_sequence() {
        let make = |seed| {
            FaultInjector::new(FaultConfig {
                drop_probability: 0.5,
                duplicate_probability: 0.2,
                seed,
                ..FaultConfig::default()
            })
        };
        let a = make(3);
        let b = make(3);
        // Same triple, any call order, any repetition: same verdict.
        for seq in (0..50).rev() {
            assert_eq!(a.decide(1, seq), b.decide(1, seq));
            assert_eq!(a.decide(1, seq), a.decide(1, seq));
        }
        // Different clients see genuinely different streams.
        let stream = |client: u64| (0..64).map(|s| a.decide(client, s)).collect::<Vec<_>>();
        assert_ne!(stream(0), stream(1));
        // Different seeds see different streams.
        let c = make(4);
        assert_ne!(
            (0..64).map(|s| a.decide(0, s)).collect::<Vec<_>>(),
            (0..64).map(|s| c.decide(0, s)).collect::<Vec<_>>(),
        );
    }

    #[test]
    fn plan_queries_match_scripted_events() {
        let plan = FaultPlan::none()
            .with_client_crash(3, 1, 7)
            .with_client_hang(4, 0, 2)
            .with_server_crash(40)
            .with_server_crash(25)
            .with_shard_stall(0, 1, 10, Duration::from_millis(50));
        assert_eq!(
            plan.client_fault(3, 1),
            Some(ScriptedClientFault {
                after_steps: 7,
                kind: ClientFaultKind::Crash
            })
        );
        assert_eq!(plan.client_fault(3, 0), None, "other attempts run clean");
        assert_eq!(
            plan.client_fault(5, 0),
            None,
            "unscripted clients run clean"
        );
        assert_eq!(
            plan.client_fault(4, 0),
            Some(ScriptedClientFault {
                after_steps: 2,
                kind: ClientFaultKind::Hang
            })
        );
        assert_eq!(plan.server_crash_after(), Some(25), "earliest crash wins");
        assert_eq!(
            plan.shard_stall(0, 1),
            Some((10, Duration::from_millis(50)))
        );
        assert_eq!(plan.shard_stall(1, 1), None);
        assert!(FaultPlan::none().is_empty());
        assert!(!plan.is_empty());
    }

    #[test]
    fn plan_survives_serde_roundtrip_inside_the_config() {
        let config = FaultConfig {
            drop_probability: 0.1,
            seed: 9,
            plan: FaultPlan::none()
                .with_client_crash(1, 0, 3)
                .with_server_crash(12),
            ..FaultConfig::default()
        };
        let json = serde_json::to_string(&config).unwrap();
        let back: FaultConfig = serde_json::from_str(&json).unwrap();
        assert_eq!(back, config);
        // Configs serialized before plans existed still deserialize.
        let legacy: FaultConfig = serde_json::from_str(
            r#"{"drop_probability":0.5,"duplicate_probability":0.0,"seed":1}"#,
        )
        .unwrap();
        assert_eq!(legacy.drop_probability, 0.5);
        assert!(legacy.plan.is_empty());
    }

    #[test]
    fn seeded_chaos_is_deterministic_and_bounded() {
        let a = FaultPlan::seeded_chaos(11, 8, 10);
        let b = FaultPlan::seeded_chaos(11, 8, 10);
        assert_eq!(a, b, "same seed, same schedule");
        let c = FaultPlan::seeded_chaos(12, 8, 10);
        assert_ne!(a, c, "different seed, different schedule");
        for event in &a.events {
            match *event {
                FaultEvent::ClientCrash {
                    client_id,
                    attempt,
                    after_steps,
                }
                | FaultEvent::ClientHang {
                    client_id,
                    attempt,
                    after_steps,
                } => {
                    assert!(client_id < 8);
                    assert_eq!(attempt, 0, "chaos faults script attempt 0 only");
                    assert!(after_steps < 10);
                }
                _ => panic!("seeded chaos scripts only client faults"),
            }
        }
        // Over a range of seeds, all three outcomes (clean/crash/hang) occur.
        let mut crashes = 0;
        let mut hangs = 0;
        let mut clean = 0;
        for seed in 0..32 {
            let plan = FaultPlan::seeded_chaos(seed, 4, 10);
            let faulted = plan.events.len();
            clean += 4 - faulted;
            crashes += plan
                .events
                .iter()
                .filter(|e| matches!(e, FaultEvent::ClientCrash { .. }))
                .count();
            hangs += plan
                .events
                .iter()
                .filter(|e| matches!(e, FaultEvent::ClientHang { .. }))
                .count();
        }
        assert!(crashes > 0 && hangs > 0 && clean > 0);
    }
}
