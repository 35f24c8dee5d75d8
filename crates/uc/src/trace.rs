//! Execution transcripts — the environment's view `EXEC` used by the
//! real-vs-ideal indistinguishability experiments.
//!
//! A [`Transcript`] is the ordered list of everything the environment
//! observes: the inputs it gave, the outputs parties returned, the leakage
//! the (dummy) adversary relayed, and clock advancement. Two worlds realize
//! the same functionality iff their transcripts are indistinguishable; for
//! the deterministic parts of the paper's protocols the transcripts are
//! *equal*, which is what the tests assert.

use crate::ids::PartyId;
use crate::value::{Command, Value};
use sbc_primitives::sha256::Sha256;
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
        /// The leaking functionality/protocol component.
        source: String,
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
    /// Free-form annotation (not part of the comparable view).
    Note(String),
}

/// An ordered execution transcript.
///
/// By default the transcript records every event for the life of the run —
/// the unbounded mode every indistinguishability experiment uses, where
/// [`comparable_view`](Transcript::comparable_view) and the digests cover
/// the complete observation history. Long-lived drivers (a service pool
/// running thousands of epochs) can instead bound the memory with
/// [`with_cap`](Transcript::with_cap)/[`set_cap`](Transcript::set_cap):
/// the transcript then behaves as a ring buffer retaining the **most
/// recent** `cap` events, and counts what it evicted in
/// [`dropped`](Transcript::dropped) — overflow is observable, never
/// silent. Capping changes nothing until the cap is exceeded, so an
/// uncapped transcript (the default) is bit-for-bit the pre-cap behavior.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Transcript {
    /// The events in observation order.
    pub events: Vec<Event>,
    /// Retention cap (`None` = unbounded, the default).
    cap: Option<usize>,
    /// Events evicted by the cap since recording started.
    dropped: u64,
}

impl Transcript {
    /// Creates an empty transcript.
    pub fn new() -> Self {
        Transcript::default()
    }

    /// Creates an empty transcript retaining at most `cap` most-recent
    /// events (see [`set_cap`](Transcript::set_cap)).
    pub fn with_cap(cap: usize) -> Self {
        Transcript {
            cap: Some(cap),
            ..Transcript::default()
        }
    }

    /// Sets or clears the retention cap. Shrinking below the current
    /// length evicts the oldest events immediately (counted in
    /// [`dropped`](Transcript::dropped)); clearing never restores evicted
    /// events.
    pub fn set_cap(&mut self, cap: Option<usize>) {
        self.cap = cap;
        self.enforce_cap(0);
    }

    /// The retention cap, if any.
    pub fn cap(&self) -> Option<usize> {
        self.cap
    }

    /// How many events the cap has evicted so far (0 when uncapped).
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Evicts oldest events until `events.len() + incoming ≤ cap`.
    fn enforce_cap(&mut self, incoming: usize) {
        let Some(cap) = self.cap else { return };
        let budget = cap.saturating_sub(incoming);
        if self.events.len() > budget {
            let excess = self.events.len() - budget;
            self.events.drain(..excess);
            self.dropped += excess as u64;
        }
    }

    /// Appends an event. In capped mode the oldest event is evicted first
    /// when full (a cap of 0 records nothing and counts every push as
    /// dropped).
    pub fn push(&mut self, round: u64, kind: EventKind) {
        if self.cap == Some(0) {
            self.dropped += 1;
            return;
        }
        self.enforce_cap(1);
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

    /// Outputs of a single party.
    pub fn outputs_of(&self, party: PartyId) -> Vec<(u64, &Command)> {
        self.outputs()
            .into_iter()
            .filter_map(|(r, p, c)| if p == party { Some((r, c)) } else { None })
            .collect()
    }

    /// All leaks, in order.
    pub fn leaks(&self) -> Vec<(u64, &str, &Command)> {
        self.events
            .iter()
            .filter_map(|e| match &e.kind {
                EventKind::Leak { source, cmd } => Some((e.round, source.as_str(), cmd)),
                _ => None,
            })
            .collect()
    }

    /// The comparable view: everything except `Note`s, canonically encoded.
    pub fn comparable_view(&self) -> Vec<u8> {
        let mut out = Vec::new();
        for e in &self.events {
            if matches!(e.kind, EventKind::Note(_)) {
                continue;
            }
            out.extend_from_slice(&e.round.to_be_bytes());
            let v = match &e.kind {
                EventKind::Input { party, cmd } => Value::list([
                    Value::str("in"),
                    Value::U64(party.0 as u64),
                    Value::str(cmd.name.clone()),
                    cmd.value.clone(),
                ]),
                EventKind::Advance { party } => {
                    Value::list([Value::str("adv-clock"), Value::U64(party.0 as u64)])
                }
                EventKind::Output { party, cmd } => Value::list([
                    Value::str("out"),
                    Value::U64(party.0 as u64),
                    Value::str(cmd.name.clone()),
                    cmd.value.clone(),
                ]),
                EventKind::Leak { source, cmd } => Value::list([
                    Value::str("leak"),
                    Value::str(source.clone()),
                    Value::str(cmd.name.clone()),
                    cmd.value.clone(),
                ]),
                EventKind::AdvAction { desc } => {
                    Value::list([Value::str("adv"), Value::str(desc.clone())])
                }
                EventKind::AdvResponse { value } => {
                    Value::list([Value::str("adv-resp"), value.clone()])
                }
                EventKind::Note(_) => unreachable!(),
            };
            out.extend_from_slice(&v.encode());
        }
        out
    }

    /// SHA-256 digest of the comparable view.
    pub fn digest(&self) -> [u8; 32] {
        Sha256::digest(&self.comparable_view())
    }

    /// Digest of the *shape* of the transcript: every byte-string payload is
    /// replaced by its length before hashing.
    ///
    /// This is the comparison level for experiments where the two worlds'
    /// payloads are computationally indistinguishable but not bitwise equal
    /// (a simulator cannot reproduce `M ⊕ H(ρ)` before the functionality
    /// reveals `M`); event structure, ordering, rounds and lengths must
    /// still match exactly, and the tests pair this with an exact
    /// [`output_digest`](Transcript::output_digest) where applicable.
    pub fn shape_digest(&self) -> [u8; 32] {
        fn canon(v: &Value) -> Value {
            match v {
                Value::Bytes(b) => Value::U64(b.len() as u64),
                Value::List(items) => Value::List(items.iter().map(canon).collect()),
                other => other.clone(),
            }
        }
        let mut h = Sha256::new();
        for e in &self.events {
            if matches!(e.kind, EventKind::Note(_)) {
                continue;
            }
            h.update(&e.round.to_be_bytes());
            let v = match &e.kind {
                EventKind::Input { party, cmd } => Value::list([
                    Value::str("in"),
                    Value::U64(party.0 as u64),
                    Value::str(cmd.name.clone()),
                    canon(&cmd.value),
                ]),
                EventKind::Advance { party } => {
                    Value::list([Value::str("adv-clock"), Value::U64(party.0 as u64)])
                }
                EventKind::Output { party, cmd } => Value::list([
                    Value::str("out"),
                    Value::U64(party.0 as u64),
                    Value::str(cmd.name.clone()),
                    canon(&cmd.value),
                ]),
                EventKind::Leak { source, cmd } => Value::list([
                    Value::str("leak"),
                    Value::str(source.clone()),
                    Value::str(cmd.name.clone()),
                    canon(&cmd.value),
                ]),
                // Adversary action descriptions may embed world-dependent
                // bytes (e.g. replayed ciphertexts); only their presence is
                // part of the shape.
                EventKind::AdvAction { .. } => Value::list([Value::str("adv")]),
                EventKind::AdvResponse { value } => {
                    Value::list([Value::str("adv-resp"), canon(value)])
                }
                EventKind::Note(_) => unreachable!(),
            };
            h.update(&v.encode());
        }
        h.finalize()
    }

    /// A digest over outputs only (the weakest comparison level: what
    /// parties returned and when).
    pub fn output_digest(&self) -> [u8; 32] {
        let mut h = Sha256::new();
        for (round, party, cmd) in self.outputs() {
            h.update(&round.to_be_bytes());
            h.update(&party.0.to_be_bytes());
            h.update(&cmd.encode());
        }
        h.finalize()
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
        assert_eq!(t.outputs_of(PartyId(1)).len(), 1);
        assert_eq!(t.outputs_of(PartyId(0)).len(), 0);
    }

    #[test]
    fn leaks_filtered() {
        let t = sample();
        assert_eq!(t.leaks().len(), 1);
        assert_eq!(t.leaks()[0].1, "F_UBC");
    }

    #[test]
    fn notes_excluded_from_digest() {
        let mut a = sample();
        let mut b = sample();
        b.push(2, EventKind::Note("only in b".into()));
        assert_eq!(a.digest(), b.digest());
        a.push(
            2,
            EventKind::Output {
                party: PartyId(0),
                cmd: Command::new("X", Value::Unit),
            },
        );
        assert_ne!(a.digest(), b.digest());
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

    #[test]
    fn cap_retains_most_recent_and_counts_drops() {
        let mut t = Transcript::with_cap(3);
        for r in 0..5u64 {
            t.push(r, EventKind::Advance { party: PartyId(0) });
        }
        assert_eq!(t.events.len(), 3);
        assert_eq!(t.dropped(), 2);
        let rounds: Vec<u64> = t.events.iter().map(|e| e.round).collect();
        assert_eq!(rounds, vec![2, 3, 4]);
    }

    #[test]
    fn cap_zero_records_nothing() {
        let mut t = Transcript::with_cap(0);
        t.push(0, EventKind::Advance { party: PartyId(0) });
        t.push(1, EventKind::Advance { party: PartyId(0) });
        assert!(t.events.is_empty());
        assert_eq!(t.dropped(), 2);
    }

    #[test]
    fn set_cap_shrinks_and_clearing_keeps_survivors() {
        let mut t = Transcript::new();
        for r in 0..4u64 {
            t.push(r, EventKind::Advance { party: PartyId(0) });
        }
        t.set_cap(Some(2));
        assert_eq!(t.events.len(), 2);
        assert_eq!(t.dropped(), 2);
        t.set_cap(None);
        t.push(9, EventKind::Advance { party: PartyId(0) });
        assert_eq!(t.events.len(), 3);
        assert_eq!(t.dropped(), 2);
        assert_eq!(t.cap(), None);
    }

    #[test]
    fn uncapped_behavior_unchanged() {
        let capped = sample();
        assert_eq!(capped.dropped(), 0);
        assert_eq!(capped.cap(), None);
        // Digest of an uncapped transcript matches a fresh identical one.
        assert_eq!(sample().digest(), sample().digest());
    }
}
