//! Execution transcripts — the environment's view `EXEC` used by the
//! real-vs-ideal indistinguishability experiments.
//!
//! A [`Transcript`] is the ordered list of everything the environment
//! observes: the inputs it gave, the outputs parties returned, the leakage
//! the (dummy) adversary relayed, and clock advancement. Two worlds realize
//! the same functionality iff their transcripts are indistinguishable; for
//! the deterministic parts of the paper's protocols the transcripts are
//! *equal*, which is what the tests assert.
//!
//! Two comparison levels hash one per-event encoding (the table is on
//! `Event::encode`): [`digest`](Transcript::digest) as recorded,
//! [`shape_digest`](Transcript::shape_digest) with byte strings as lengths
//! and adversary actions as their presence.
//! `Transcript::first_divergence` reads the same
//! encoding, so it reports the position at which those digests part.

use crate::ids::PartyId;
use crate::value::{Command, Value};
use sbc_primitives::sha256::Sha256;
use std::borrow::Cow;
use std::fmt;

/// One observable event.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Event {
    /// Clock time at which the event occurred.
    pub round: u64,
    /// What happened.
    pub kind: EventKind,
}

/// The kinds of environment-observable events.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum EventKind {
    /// The environment fed `cmd` to `party`.
    Input {
        /// Receiving party.
        party: PartyId,
        /// The input command.
        cmd: Command,
    },
    /// The environment instructed `party` to advance the clock.
    Advance {
        /// The advancing party.
        party: PartyId,
    },
    /// `party` produced output `cmd` towards the environment.
    Output {
        /// The producing party.
        party: PartyId,
        /// The output command.
        cmd: Command,
    },
    /// The adversary (and hence the environment, in the dummy-adversary
    /// model) observed leakage `cmd` from `source`.
    Leak {
        /// The leaking functionality/protocol component (borrowed when
        /// static, as in [`Leak`](crate::world::Leak)).
        source: Cow<'static, str>,
        /// The leaked command.
        cmd: Command,
    },
    /// An adversarial action taken by the environment.
    AdvAction {
        /// Human-readable description.
        desc: String,
    },
    /// A world response to an adversarial action.
    AdvResponse {
        /// The response value.
        value: Value,
    },
}

/// `v` with every byte string replaced by its length.
fn lengths_only(v: &Value) -> Value {
    match v {
        Value::Bytes(b) => Value::U64(b.len() as u64),
        Value::List(items) => Value::list(items.iter().map(lengths_only)),
        other => other.clone(),
    }
}

impl Event {
    /// The canonical encoding every comparison reads: the round (8 bytes,
    /// big-endian) followed by the encoding of one `Value` list per kind —
    ///
    /// | kind          | list                                   |
    /// |---------------|----------------------------------------|
    /// | `Input`       | `["in", party, cmd.name, cmd.value]`   |
    /// | `Advance`     | `["adv-clock", party]`                 |
    /// | `Output`      | `["out", party, cmd.name, cmd.value]`  |
    /// | `Leak`        | `["leak", source, cmd.name, cmd.value]`|
    /// | `AdvAction`   | `["adv", desc]`                        |
    /// | `AdvResponse` | `["adv-resp", value]`                  |
    ///
    /// With `shape` set, every byte string inside a `cmd.value` / `value`
    /// becomes its length, and `AdvAction` drops `desc` (a description may
    /// embed world-dependent bytes, e.g. a replayed ciphertext; only its
    /// presence is part of the shape). That is the comparison level for
    /// worlds whose payloads are computationally indistinguishable but not
    /// bitwise equal — a simulator cannot reproduce `M ⊕ H(ρ)` before the
    /// functionality reveals `M` — while event structure, order, rounds and
    /// lengths must still match exactly.
    fn encode(&self, shape: bool) -> Vec<u8> {
        let val = |v: &Value| if shape { lengths_only(v) } else { v.clone() };
        let id = |p: &PartyId| Value::U64(p.0 as u64);
        let tagged = |tag: &str, who: Value, cmd: &Command| {
            vec![
                Value::str(tag),
                who,
                Value::str(&*cmd.name),
                val(&cmd.value),
            ]
        };
        let items = match &self.kind {
            EventKind::Input { party, cmd } => tagged("in", id(party), cmd),
            EventKind::Advance { party } => vec![Value::str("adv-clock"), id(party)],
            EventKind::Output { party, cmd } => tagged("out", id(party), cmd),
            EventKind::Leak { source, cmd } => tagged("leak", Value::str(&**source), cmd),
            EventKind::AdvAction { .. } if shape => vec![Value::str("adv")],
            EventKind::AdvAction { desc } => vec![Value::str("adv"), Value::str(desc.clone())],
            EventKind::AdvResponse { value } => vec![Value::str("adv-resp"), val(value)],
        };
        let mut out = self.round.to_be_bytes().to_vec();
        out.extend_from_slice(&Value::list(items).encode());
        out
    }
}

/// An ordered execution transcript: every event, for the life of the run.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Transcript {
    /// The events in observation order.
    pub events: Vec<Event>,
}

impl Transcript {
    /// Creates an empty transcript.
    pub(crate) fn new() -> Self {
        Transcript::default()
    }

    /// Appends an event.
    pub(crate) fn push(&mut self, round: u64, kind: EventKind) {
        self.events.push(Event { round, kind });
    }

    /// All party outputs, in order.
    pub fn outputs(&self) -> Vec<(u64, PartyId, &Command)> {
        self.events
            .iter()
            .filter_map(|e| match &e.kind {
                EventKind::Output { party, cmd } => Some((e.round, *party, cmd)),
                _ => None,
            })
            .collect()
    }

    /// All leaks, in order.
    pub fn leaks(&self) -> Vec<(u64, &str, &Command)> {
        self.events
            .iter()
            .filter_map(|e| match &e.kind {
                EventKind::Leak { source, cmd } => Some((e.round, &**source, cmd)),
                _ => None,
            })
            .collect()
    }

    /// SHA-256 over every event's `Event::encode` at the given level.
    fn hash(&self, shape: bool) -> [u8; 32] {
        let mut h = Sha256::new();
        for e in &self.events {
            h.update(&e.encode(shape));
        }
        h.finalize()
    }

    /// Digest of the transcript as recorded: every event, canonically
    /// encoded.
    pub fn digest(&self) -> [u8; 32] {
        self.hash(false)
    }

    /// Digest of the *shape* of the transcript: every byte-string payload
    /// replaced by its length and every adversary action by its presence.
    /// [`CompareLevel::ShapeAndOutputs`](crate::exec::CompareLevel::ShapeAndOutputs)
    /// pairs this with exact [`outputs`](Transcript::outputs).
    pub fn shape_digest(&self) -> [u8; 32] {
        self.hash(true)
    }

    /// The position of the first event at which `self` and `other` encode
    /// differently at the given level (`shape` as for
    /// [`shape_digest`](Transcript::shape_digest)) — the shorter length if
    /// one transcript is a proper prefix of the other, `None` if the two
    /// digests at that level agree.
    pub(crate) fn first_divergence(&self, other: &Transcript, shape: bool) -> Option<usize> {
        let (a, b) = (&self.events, &other.events);
        a.iter()
            .zip(b)
            .position(|(x, y)| x != y && x.encode(shape) != y.encode(shape))
            .or((a.len() != b.len()).then_some(a.len().min(b.len())))
    }
}

impl fmt::Display for Transcript {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for e in &self.events {
            writeln!(f, "[{:>3}] {:?}", e.round, e.kind)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    impl Transcript {
        /// A digest over outputs only (the weakest comparison level: what
        /// parties returned and when).
        fn output_digest(&self) -> [u8; 32] {
            let mut h = Sha256::new();
            for (round, party, cmd) in self.outputs() {
                h.update(&round.to_be_bytes());
                h.update(&party.0.to_be_bytes());
                h.update(&cmd.encode());
            }
            h.finalize()
        }
    }

    fn sample() -> Transcript {
        let mut t = Transcript::new();
        t.push(
            0,
            EventKind::Input {
                party: PartyId(0),
                cmd: Command::new("Broadcast", Value::U64(1)),
            },
        );
        t.push(0, EventKind::Advance { party: PartyId(0) });
        t.push(
            1,
            EventKind::Output {
                party: PartyId(1),
                cmd: Command::new("Broadcast", Value::U64(1)),
            },
        );
        t.push(
            1,
            EventKind::Leak {
                source: "F_UBC".into(),
                cmd: Command::new("Broadcast", Value::Unit),
            },
        );
        t
    }

    #[test]
    fn outputs_filtered() {
        let t = sample();
        let outs = t.outputs();
        assert_eq!(outs.len(), 1);
        assert_eq!(outs[0].1, PartyId(1));
    }

    #[test]
    fn leaks_filtered() {
        let t = sample();
        assert_eq!(t.leaks().len(), 1);
        assert_eq!(t.leaks()[0].1, "F_UBC");
    }

    #[test]
    fn digest_sensitive_to_round() {
        let mut a = Transcript::new();
        a.push(1, EventKind::Advance { party: PartyId(0) });
        let mut b = Transcript::new();
        b.push(2, EventKind::Advance { party: PartyId(0) });
        assert_ne!(a.digest(), b.digest());
    }

    #[test]
    fn output_digest_ignores_leaks() {
        let mut a = sample();
        let base = a.output_digest();
        a.push(
            3,
            EventKind::Leak {
                source: "X".into(),
                cmd: Command::new("L", Value::Unit),
            },
        );
        assert_eq!(a.output_digest(), base);
    }

    #[test]
    fn golden_digests() {
        // One event of every comparable kind, byte strings nested and over
        // 32 bytes included: the three digests every gate compares, pinned.
        use sbc_primitives::hex;
        let mut t = sample();
        t.push(
            2,
            EventKind::AdvAction {
                desc: "SendAs(P1, [1, 2])".into(),
            },
        );
        t.push(
            2,
            EventKind::AdvResponse {
                value: Value::list([Value::bytes(b"abc"), Value::U64(7)]),
            },
        );
        t.push(
            3,
            EventKind::Leak {
                source: "F_TLE".into(),
                cmd: Command::new(
                    "Enc",
                    Value::list([Value::bytes([9u8; 40]), Value::str("x")]),
                ),
            },
        );
        assert_eq!(
            hex::encode(&t.digest()),
            "43468827aa86be820a01cc383ec78b6db088a783d3e045086ee78beecd78a4a9"
        );
        assert_eq!(
            hex::encode(&t.shape_digest()),
            "ad937cf71845a31e8f01b63c9380be39fa7ae01db76a35705b9f10d70790f07a"
        );
        assert_eq!(
            hex::encode(&t.output_digest()),
            "360949120b8628361d9509b34105bcc98e6ce05820e412906e9e535d3888546a"
        );
    }

    #[test]
    fn display_renders() {
        let s = format!("{}", sample());
        assert!(s.contains("Broadcast"));
    }
}
