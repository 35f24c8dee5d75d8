//! The Dolev–Strong broadcast protocol `Π_RBC` (\[DS82], paper Fact 1).
//!
//! Realizes `F_RBC` over `F_cert` + synchronous channels against `t < n`
//! adaptive corruptions in `t + 1` rounds, using signature chains: a message
//! accepted in round `r` must carry `r` signatures from *distinct* signers
//! beginning with the sender's. Honest parties relay newly extracted values
//! with their own signature appended; after round `t + 1` a party outputs
//! the unique extracted value, or the default `⊥` if it extracted zero or
//! several values.
//!
//! The driver exposes per-round stepping plus raw injection hooks so the
//! experiment harness can run Byzantine strategies (equivocation, silence,
//! last-round chain injection).

use sbc_uc::cert::Certifier;
use sbc_uc::ids::PartyId;
use sbc_uc::net::SyncNet;
use sbc_uc::value::Value;
use std::collections::BTreeSet;

/// The default output `⊥` produced on equivocation or silence.
pub fn bottom() -> Value {
    Value::str("\u{22a5}")
}

/// One link of a signature chain: `(signer, signature)`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ChainLink {
    /// The signing party.
    pub signer: PartyId,
    /// The signature over `(sid, message)`.
    pub signature: Vec<u8>,
}

fn chain_to_value(msg: &Value, chain: &[ChainLink]) -> Value {
    let links = chain
        .iter()
        .map(|l| Value::pair(Value::U64(l.signer.0 as u64), Value::bytes(&l.signature)));
    Value::pair(msg.clone(), Value::list(links))
}

fn value_to_chain(v: &Value) -> Option<(Value, Vec<ChainLink>)> {
    let items = v.as_list()?;
    if items.len() != 2 {
        return None;
    }
    let msg = items[0].clone();
    let mut chain = Vec::new();
    for link in items[1].as_list()? {
        let pair = link.as_list()?;
        if pair.len() != 2 {
            return None;
        }
        chain.push(ChainLink {
            signer: PartyId(u32::try_from(pair[0].as_u64()?).ok()?),
            signature: pair[1].as_bytes()?.to_vec(),
        });
    }
    Some((msg, chain))
}

/// A single Dolev–Strong broadcast instance.
#[derive(Debug)]
pub struct DolevStrong<C: Certifier> {
    sid: Vec<u8>,
    n: usize,
    t: usize,
    sender: PartyId,
    certs: Vec<C>,
    net: SyncNet,
    /// Completed protocol rounds (0 = pre-start).
    round: u64,
    corrupted: Vec<bool>,
    extracted: Vec<BTreeSet<Value>>,
    sigs_verified: u64,
}

impl<C: Certifier> DolevStrong<C> {
    /// Creates an instance.
    ///
    /// # Panics
    ///
    /// Panics unless `certs.len() == n`, `sender < n` and `t < n`.
    pub fn new(sid: impl Into<Vec<u8>>, t: usize, sender: PartyId, certs: Vec<C>) -> Self {
        let n = certs.len();
        assert!(n > 0 && sender.index() < n, "sender out of range");
        assert!(t < n, "need t < n");
        DolevStrong {
            sid: sid.into(),
            n,
            t,
            sender,
            certs,
            net: SyncNet::new(n),
            round: 0,
            corrupted: vec![false; n],
            extracted: vec![BTreeSet::new(); n],
            sigs_verified: 0,
        }
    }

    fn payload(&self, msg: &Value) -> Vec<u8> {
        let mut p = self.sid.clone();
        p.extend_from_slice(&msg.encode());
        p
    }

    /// Number of protocol rounds required: `t + 1`.
    pub fn rounds_required(&self) -> u64 {
        self.t as u64 + 1
    }

    /// Completed rounds so far.
    pub fn round(&self) -> u64 {
        self.round
    }

    /// Marks a party corrupted: it stops auto-relaying and its certifier
    /// accepts adversarial authorization. A `party ≥ n` is nobody: ignored.
    pub fn corrupt(&mut self, party: PartyId) {
        let i = party.index();
        if i < self.n {
            self.corrupted[i] = true;
            self.certs[i].set_corrupted();
        }
    }

    /// Whether `party` is corrupted (never, for a `party ≥ n`).
    pub fn is_corrupted(&self, party: PartyId) -> bool {
        self.corrupted.get(party.index()) == Some(&true)
    }

    /// The sender starts an honest broadcast of `value` (round 0).
    pub fn start_honest(&mut self, value: Value) {
        let payload = self.payload(&value);
        let sig = self.certs[self.sender.index()].sign(&payload);
        let chain = vec![ChainLink {
            signer: self.sender,
            signature: sig,
        }];
        let wire = chain_to_value(&value, &chain);
        self.net.send_all(self.sender, wire);
        self.extracted[self.sender.index()].insert(value);
    }

    /// Adversary: signs `value` as a corrupted party (needed to build
    /// Byzantine chains). Returns `None` if the party is honest.
    pub fn adversary_sign(&mut self, party: PartyId, value: Value) -> Option<Vec<u8>> {
        if !self.is_corrupted(party) {
            return None;
        }
        let payload = self.payload(&value);
        Some(self.certs[party.index()].sign(&payload))
    }

    /// Adversary: sends a raw `(message, chain)` from a corrupted party to a
    /// specific recipient (delivered next round). No-op for honest senders
    /// and for a recipient `≥ n`.
    pub fn adversary_send(
        &mut self,
        from: PartyId,
        to: PartyId,
        msg: Value,
        chain: Vec<ChainLink>,
    ) {
        if !self.is_corrupted(from) || to.index() >= self.n {
            return;
        }
        self.net.send(from, to, chain_to_value(&msg, &chain));
    }

    fn chain_valid(&mut self, msg: &Value, chain: &[ChainLink], round: u64) -> bool {
        if chain.is_empty() || chain[0].signer != self.sender {
            return false;
        }
        if (chain.len() as u64) < round {
            return false;
        }
        let mut signers = BTreeSet::new();
        for link in chain {
            if !signers.insert(link.signer) || link.signer.index() >= self.n {
                return false;
            }
        }
        let payload = self.payload(msg);
        for link in chain {
            self.sigs_verified += 1;
            if !self.certs[link.signer.index()].verify(&payload, &link.signature) {
                return false;
            }
        }
        true
    }

    /// Runs one protocol round: delivers last round's messages, lets honest
    /// parties extract and relay. Returns the new completed-round count.
    pub fn step_round(&mut self) -> u64 {
        self.round += 1;
        let round = self.round;
        self.net.deliver_round();
        let mut relays: Vec<(PartyId, Value, Vec<ChainLink>)> = Vec::new();
        for i in 0..self.n {
            let p = PartyId(i as u32);
            let inbox = self.net.take_inbox(p);
            if self.corrupted[i] {
                continue; // Byzantine parties are driven by the adversary.
            }
            for net_msg in inbox {
                let Some((msg, chain)) = value_to_chain(&net_msg.payload) else {
                    continue;
                };
                if self.extracted[i].contains(&msg) || self.extracted[i].len() >= 2 {
                    continue; // two extracted values already force ⊥
                }
                if !self.chain_valid(&msg, &chain, round) {
                    continue;
                }
                self.extracted[i].insert(msg.clone());
                if round <= self.t as u64 && !chain.iter().any(|l| l.signer == p) {
                    let payload = self.payload(&msg);
                    let sig = self.certs[i].sign(&payload);
                    let mut new_chain = chain.clone();
                    new_chain.push(ChainLink {
                        signer: p,
                        signature: sig,
                    });
                    relays.push((p, msg.clone(), new_chain));
                }
            }
        }
        for (p, msg, chain) in relays {
            let wire = chain_to_value(&msg, &chain);
            self.net.send_all(p, wire);
        }
        self.round
    }

    /// Whether all `t + 1` rounds have completed.
    pub fn is_complete(&self) -> bool {
        self.round >= self.rounds_required()
    }

    /// Runs all remaining rounds with no adversarial interference.
    pub fn run_to_completion(&mut self) {
        while !self.is_complete() {
            self.step_round();
        }
    }

    /// Party outputs after completion: the unique extracted value, else `⊥`.
    ///
    /// # Panics
    ///
    /// Panics if called before [`is_complete`](Self::is_complete).
    pub fn outputs(&self) -> Vec<Value> {
        assert!(self.is_complete(), "protocol still running");
        self.extracted
            .iter()
            .map(|set| {
                if set.len() == 1 {
                    set.iter().next().expect("len 1").clone()
                } else {
                    bottom()
                }
            })
            .collect()
    }

    /// `(messages sent, payload bytes, signatures verified)` cost counters.
    pub fn stats(&self) -> (u64, u64, u64) {
        (
            self.net.sent_total(),
            self.net.bytes_total(),
            self.sigs_verified,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sbc_primitives::drbg::Drbg;
    use sbc_uc::cert::IdealCert;

    fn instance(n: usize, t: usize, sender: u32) -> DolevStrong<IdealCert> {
        let mut rng = Drbg::from_seed(b"ds-tests");
        let certs = (0..n as u32)
            .map(|i| IdealCert::new(PartyId(i), rng.fork(&i.to_be_bytes())))
            .collect();
        DolevStrong::new(b"sid-1".to_vec(), t, PartyId(sender), certs)
    }

    fn honest_outputs(ds: &DolevStrong<IdealCert>) -> Vec<Value> {
        ds.outputs()
            .into_iter()
            .enumerate()
            .filter(|(i, _)| !ds.is_corrupted(PartyId(*i as u32)))
            .map(|(_, v)| v)
            .collect()
    }

    #[test]
    fn honest_sender_validity() {
        for (n, t) in [(3, 1), (4, 3), (5, 2)] {
            let mut ds = instance(n, t, 0);
            ds.start_honest(Value::bytes(b"hello"));
            ds.run_to_completion();
            for out in ds.outputs() {
                assert_eq!(out, Value::bytes(b"hello"), "n={n} t={t}");
            }
            assert_eq!(ds.round(), t as u64 + 1);
        }
    }

    #[test]
    fn silent_sender_outputs_bottom() {
        let mut ds = instance(4, 2, 1);
        ds.run_to_completion();
        for out in ds.outputs() {
            assert_eq!(out, bottom());
        }
    }

    #[test]
    fn equivocating_sender_agreement() {
        // Corrupted sender signs two values and sends different ones to
        // different parties. All honest parties must still agree.
        let mut ds = instance(4, 2, 0);
        ds.corrupt(PartyId(0));
        let m1 = Value::bytes(b"one");
        let m2 = Value::bytes(b"two");
        let s1 = ds.adversary_sign(PartyId(0), m1.clone()).unwrap();
        let s2 = ds.adversary_sign(PartyId(0), m2.clone()).unwrap();
        ds.adversary_send(
            PartyId(0),
            PartyId(1),
            m1.clone(),
            vec![ChainLink {
                signer: PartyId(0),
                signature: s1,
            }],
        );
        ds.adversary_send(
            PartyId(0),
            PartyId(2),
            m2.clone(),
            vec![ChainLink {
                signer: PartyId(0),
                signature: s2,
            }],
        );
        ds.run_to_completion();
        let outs = honest_outputs(&ds);
        assert!(outs.windows(2).all(|w| w[0] == w[1]), "agreement: {outs:?}");
        // Relaying guarantees both values reach everyone → all output ⊥.
        assert_eq!(outs[0], bottom());
    }

    #[test]
    fn one_sided_send_still_agrees() {
        // Corrupted sender sends (validly signed) value to only one party;
        // relaying must spread it so all honest parties output it.
        let mut ds = instance(4, 2, 0);
        ds.corrupt(PartyId(0));
        let m = Value::bytes(b"partial");
        let s = ds.adversary_sign(PartyId(0), m.clone()).unwrap();
        ds.adversary_send(
            PartyId(0),
            PartyId(2),
            m.clone(),
            vec![ChainLink {
                signer: PartyId(0),
                signature: s,
            }],
        );
        ds.run_to_completion();
        let outs = honest_outputs(&ds);
        for o in &outs {
            assert_eq!(o, &m);
        }
    }

    #[test]
    fn last_round_injection_rejected() {
        // A chain with too few signatures arriving in the last round is
        // rejected, preserving agreement.
        let mut ds = instance(4, 2, 0);
        ds.corrupt(PartyId(0));
        ds.corrupt(PartyId(1));
        let m_main = Value::bytes(b"main");
        let s_main = ds.adversary_sign(PartyId(0), m_main.clone()).unwrap();
        ds.adversary_send(
            PartyId(0),
            PartyId(2),
            m_main.clone(),
            vec![ChainLink {
                signer: PartyId(0),
                signature: s_main.clone(),
            }],
        );
        ds.adversary_send(
            PartyId(0),
            PartyId(3),
            m_main.clone(),
            vec![ChainLink {
                signer: PartyId(0),
                signature: s_main,
            }],
        );
        ds.step_round(); // round 1
        ds.step_round(); // round 2
                         // Now inject a fresh value with a 1-link chain into P2 only, for
                         // delivery in round 3 = t+1 (needs 3 signatures; has 1) → rejected.
        let m_late = Value::bytes(b"late");
        let s_late = ds.adversary_sign(PartyId(0), m_late.clone()).unwrap();
        ds.adversary_send(
            PartyId(0),
            PartyId(2),
            m_late,
            vec![ChainLink {
                signer: PartyId(0),
                signature: s_late,
            }],
        );
        ds.step_round();
        assert!(ds.is_complete());
        let outs = honest_outputs(&ds);
        assert_eq!(outs[0], outs[1], "agreement despite late injection");
        assert_eq!(outs[0], m_main);
    }

    #[test]
    fn valid_last_round_chain_accepted_with_honest_signer() {
        // A chain containing an honest signature got relayed by that honest
        // party — both honest parties converge. Here we build a full t+1
        // chain where the honest P2's signature is simulated by having P2
        // extract in an earlier round via normal operation. This test checks
        // that a full-length corrupted-only chain (t+1 = 3 > t = 2 distinct
        // corrupted signers impossible) cannot exist: only 2 corrupted
        // parties → max chain of corrupted-only links is 2 < 3.
        let mut ds = instance(4, 2, 0);
        ds.corrupt(PartyId(0));
        ds.corrupt(PartyId(1));
        let m = Value::bytes(b"sneak");
        let s0 = ds.adversary_sign(PartyId(0), m.clone()).unwrap();
        let s1 = ds.adversary_sign(PartyId(1), m.clone()).unwrap();
        ds.step_round();
        ds.step_round();
        // Chain of 2 corrupted sigs delivered in round 3: too short.
        ds.adversary_send(
            PartyId(0),
            PartyId(2),
            m,
            vec![
                ChainLink {
                    signer: PartyId(0),
                    signature: s0,
                },
                ChainLink {
                    signer: PartyId(1),
                    signature: s1,
                },
            ],
        );
        ds.step_round();
        let outs = honest_outputs(&ds);
        assert_eq!(outs[0], outs[1]);
        assert_eq!(outs[0], bottom(), "no value was properly broadcast");
    }

    #[test]
    fn forged_signature_rejected() {
        let mut ds = instance(3, 1, 0);
        ds.corrupt(PartyId(1));
        // P1 (corrupted, not sender) fabricates a chain with a bogus sender
        // signature.
        ds.adversary_send(
            PartyId(1),
            PartyId(2),
            Value::bytes(b"forged"),
            vec![ChainLink {
                signer: PartyId(0),
                signature: b"not-a-real-sig".to_vec(),
            }],
        );
        ds.run_to_completion();
        assert_eq!(honest_outputs(&ds)[1], bottom());
    }

    #[test]
    fn duplicate_signers_rejected() {
        let mut ds = instance(3, 1, 0);
        ds.corrupt(PartyId(0));
        let m = Value::bytes(b"dup");
        let s = ds.adversary_sign(PartyId(0), m.clone()).unwrap();
        ds.step_round();
        // Round-2 delivery needs 2 distinct signers; duplicate is invalid.
        ds.adversary_send(
            PartyId(0),
            PartyId(1),
            m,
            vec![
                ChainLink {
                    signer: PartyId(0),
                    signature: s.clone(),
                },
                ChainLink {
                    signer: PartyId(0),
                    signature: s,
                },
            ],
        );
        ds.step_round();
        assert_eq!(honest_outputs(&ds)[0], bottom());
    }

    #[test]
    fn message_complexity_all_honest() {
        let mut ds = instance(4, 1, 0);
        ds.start_honest(Value::U64(1));
        ds.run_to_completion();
        let (msgs, _, _) = ds.stats();
        // Round 0: sender → n. Round 1: 3 non-sender extractors relay → 3n.
        assert_eq!(msgs, 4 + 3 * 4);
    }

    #[test]
    fn out_of_range_party_is_nobody() {
        let mut ds = instance(3, 1, 0);
        let stray = PartyId(7);
        ds.corrupt(stray);
        assert!(!ds.is_corrupted(stray));
        assert_eq!(ds.adversary_sign(stray, Value::U64(1)), None);
        ds.adversary_send(stray, PartyId(2), Value::U64(1), Vec::new());
        ds.corrupt(PartyId(1));
        ds.adversary_send(PartyId(1), stray, Value::U64(1), Vec::new());
        assert_eq!(ds.stats().0, 0, "nothing sent");
        ds.start_honest(Value::bytes(b"m"));
        ds.run_to_completion();
        assert_eq!(
            honest_outputs(&ds),
            [Value::bytes(b"m"), Value::bytes(b"m")]
        );
    }

    #[test]
    #[should_panic(expected = "still running")]
    fn outputs_before_completion_panics() {
        let ds = instance(3, 1, 0);
        ds.outputs();
    }
}
