//! The simultaneous broadcast protocol `Π_SBC` (paper Fig. 14).
//!
//! The first sender wakes everyone up with a `Wake_Up` unfair broadcast;
//! all parties then agree on the period `[t_awake, t_end = t_awake + Φ)`
//! and the release time `τ_rel = t_end + ∆`. To broadcast `M`, a sender
//! draws `ρ`, time-lock encrypts `ρ` towards `τ_rel` via `F_TLE`, and once
//! the ciphertext is ready UBC-broadcasts `(c, τ_rel, M ⊕ H(ρ))`.
//! Simultaneity is exactly the semantic security of the TLE until `τ_rel`;
//! at `τ_rel` everyone decrypts everything and outputs the message vector.
//!
//! [`SbcParty`] is the only implementation of the party in the workspace.
//! Everything it asks of its hybrids goes through [`SbcHybrid`]: the
//! in-process world answers by direct call
//! ([`SbcHost`](crate::worlds::SbcHost)), the networked world by
//! request/response frames (`sbc_net::world`).

use sbc_tle::func::DecResponse;
use sbc_uc::ids::PartyId;
use sbc_uc::value::{Command, Value};
use std::cmp::Ordering;
use std::sync::Arc;

/// What one `Π_SBC` party asks of its hybrids — `G_clock`, `F_UBC`,
/// `F_TLE` and `F_RO` — and nothing else: the six calls of Fig. 14.
///
/// The calls are synchronous because the broadcast step needs the
/// `Retrieve` and `F_RO` replies mid-step. [`SbcParty`] is generic over the
/// implementor, so the in-process host is reached by static dispatch.
pub trait SbcHybrid {
    /// The current round `Cl`.
    fn now(&self) -> u64;

    /// `F_UBC` `Broadcast` of `msg` from `party`.
    fn ubc_broadcast(&mut self, party: PartyId, msg: Value);

    /// `F_TLE` `Enc` of `msg` from `party` towards release time `tau`.
    fn tle_enc(&mut self, party: PartyId, msg: Value, tau: u64);

    /// `F_TLE` `Retrieve` from `party`: its ready `(M, c, τ)` triples, in
    /// encryption order.
    fn tle_retrieve(&mut self, party: PartyId) -> Vec<(Value, Value, u64)>;

    /// `F_TLE` `Dec` from `party` of the ciphertext `ct` towards `tau`;
    /// `None` for a ciphertext `F_TLE` never recorded (or a reply that
    /// never came).
    fn tle_dec(&mut self, party: PartyId, ct: &Value, tau: u64) -> Option<DecResponse>;

    /// `F_RO` query `H(x; len)` from `party`; `None` if no usable answer
    /// came back (only a remote hybrid can fail to answer).
    fn ro_query(&mut self, party: PartyId, x: &[u8], len: usize) -> Option<Vec<u8>>;
}

/// The `Wake_Up` sentinel (not in the broadcast message space).
pub fn wake_up() -> Value {
    Value::str("Wake_Up")
}

/// Whether `v` is the [`wake_up`] sentinel — by borrow, so recognising one
/// of the `n²` wake-up deliveries of a period allocates nothing.
pub fn is_wake_up(v: &Value) -> bool {
    v.as_str() == Some("Wake_Up")
}

/// Encodes the `(c, τ_rel, y)` triple for the UBC wire.
pub fn sbc_wire(ct: &Value, tau_rel: u64, y: &[u8]) -> Value {
    Value::list([ct.clone(), Value::U64(tau_rel), Value::bytes(y)])
}

/// The one statement of what a wire is: a three-item list of bytes, a `u64`
/// and bytes, borrowed.
fn wire_parts(v: &Value) -> Option<(&Value, u64, &[u8])> {
    let [ct, tau, y] = v.as_list()? else {
        return None;
    };
    ct.as_bytes()?;
    Some((ct, tau.as_u64()?, y.as_bytes()?))
}

/// The release time `τ_rel` a UBC payload claims, if it is a
/// `(c, τ_rel, y)` wire — what a transport asks to learn which plane a
/// delivery belongs on, accepting exactly what [`ParsedWire::parse`]
/// accepts.
pub fn wire_tau(v: &Value) -> Option<u64> {
    wire_parts(v).map(|(_, tau, _)| tau)
}

/// One broadcast wire off `F_UBC`: the parsed `(c, τ_rel, y)` and nothing
/// derived from it.
///
/// A UBC broadcast reaches all `n` parties identically, so a world parses
/// it once and hands the one `Arc<ParsedWire>` to every recipient
/// ([`SbcParty::deliver_batch`]); what the protocol asks of a wire
/// afterwards — the replay rule, the `F_TLE` `Dec`, the unmasking — reads
/// these three fields.
#[derive(Clone, Debug)]
pub struct ParsedWire {
    /// The time-lock ciphertext `c`.
    pub ct: Value,
    /// The release time `τ_rel` the wire claims.
    pub tau: u64,
    /// The masked message `y = M ⊕ H(ρ)`.
    pub y: Vec<u8>,
}

impl ParsedWire {
    /// Parses a `(c, τ_rel, y)` triple off the UBC wire; `None` on anything
    /// else.
    pub fn parse(v: &Value) -> Option<ParsedWire> {
        wire_parts(v).map(|(ct, tau, y)| ParsedWire {
            ct: ct.clone(),
            tau,
            y: y.to_vec(),
        })
    }

    /// Orders this wire against the payload `v` by `(c, τ_rel, y)`, byte
    /// for byte: `Equal` exactly when `v` is this wire — a triple
    /// [`parse`](ParsedWire::parse) accepts, equal in all three
    /// components; a `v` that is no wire orders below every wire. What a
    /// world interns parsed wires by.
    pub fn cmp_payload(&self, v: &Value) -> Ordering {
        let this = (&self.ct, self.tau, &self.y[..]);
        wire_parts(v).map_or(Ordering::Greater, |parts| this.cmp(&parts))
    }
}

/// What a [`WireLog`] handle points at: the entries in arrival order, and
/// the same entries ordered by `c` and by `y` (indices into `entries`).
#[derive(Clone, Debug, Default)]
struct LogStore {
    entries: Vec<Arc<ParsedWire>>,
    by_ct: Vec<usize>,
    by_y: Vec<usize>,
}

impl LogStore {
    /// Where a wire with this `c` and this `y` goes in the two orders;
    /// `None` if either is already recorded.
    fn fresh_slots(&self, wire: &ParsedWire) -> Option<(usize, usize)> {
        let entry = |i: &usize| &self.entries[*i];
        let at_ct = self.by_ct.binary_search_by(|i| entry(i).ct.cmp(&wire.ct));
        let at_y = self.by_y.binary_search_by(|i| entry(i).y.cmp(&wire.y));
        at_ct.err().zip(at_y.err())
    }
}

/// The received-wire log of one party: [`ParsedWire`] entries in arrival
/// order under the paper's replay rule, held as a **handle to shared
/// storage**.
///
/// `F_UBC` hands every flushed message to all of `P` in one order, so the
/// `n` recipients of a broadcast normally hold the same log. The handle
/// says so once: `None` is the empty log, a clone is a refcount bump, and
/// [`insert_parsed`](WireLog::insert_parsed) writes through
/// `Arc::make_mut` — in place when this handle is the only one, into a
/// private copy when another log still shares the storage, so a log never
/// changes under a holder that did not take the insert.
/// [`SbcParty::deliver_batch`] is what keeps the in-place case the common
/// one: `n` recipients in the same state cost one insert per wire and `n`
/// refcounts, and hold one allocation afterwards.
///
/// The replay rule (Fig. 14) is byte equality: a reception is discarded
/// when its `c` *or* its `y` equals one already recorded — a replayed
/// ciphertext under a fresh mask and a replayed mask under a fresh
/// ciphertext are both replays. The storage decides that on the bytes it
/// holds, through one ordered index per component next to the entry list
/// the release round iterates: `O(log m)` early-exit compares per
/// reception and no pass over a fresh wire's bytes (a fresh wire also
/// shifts the two index vectors, machine words, by one).
#[derive(Clone, Debug, Default)]
pub struct WireLog(Option<Arc<LogStore>>);

impl WireLog {
    /// An empty log.
    pub fn new() -> Self {
        WireLog::default()
    }

    fn stored(&self) -> &[Arc<ParsedWire>] {
        self.0.as_deref().map_or(&[], |s| &s.entries)
    }

    /// Records `wire` unless its `c` or its `y` equals a recorded one;
    /// returns whether the entry was fresh. Replays never unshare the
    /// storage; a fresh entry is a refcount bump on the shared wire,
    /// preceded by one copy of the log only if another handle still
    /// shares it.
    pub fn insert_parsed(&mut self, wire: &Arc<ParsedWire>) -> bool {
        let slots = self
            .0
            .as_deref()
            .map_or(Some((0, 0)), |s| s.fresh_slots(wire));
        let Some((at_ct, at_y)) = slots else {
            return false;
        };
        let store = Arc::make_mut(self.0.get_or_insert_with(Arc::default));
        store.by_ct.insert(at_ct, store.entries.len());
        store.by_y.insert(at_y, store.entries.len());
        store.entries.push(wire.clone());
        true
    }

    /// The recorded wires, in arrival order.
    pub fn entries(&self) -> impl Iterator<Item = &ParsedWire> {
        self.stored().iter().map(Arc::as_ref)
    }

    /// How many entries have been recorded.
    pub fn len(&self) -> usize {
        self.stored().len()
    }

    /// Whether nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.stored().is_empty()
    }

    /// Forgets everything (period turnover): drops this handle, leaving
    /// the storage to whoever else still holds it.
    pub fn clear(&mut self) {
        self.0 = None;
    }

    /// Whether the two logs are one: both empty handles, or both handles
    /// to the same allocation. `O(1)`, and sufficient for
    /// [`same_receptions`](WireLog::same_receptions) — never necessary.
    pub fn shares_storage_with(&self, other: &WireLog) -> bool {
        match (&self.0, &other.0) {
            (None, None) => true,
            (Some(a), Some(b)) => Arc::ptr_eq(a, b),
            _ => false,
        }
    }

    /// Whether `other` records exactly the same receptions in the same
    /// order — identical logs mean identical release computations, which
    /// is what lets a round scheduler run one release and hand its output
    /// to every party that passes this check. Recipients delivered to as
    /// one class hold one storage, so the common case is the `O(1)`
    /// identity test ([`shares_storage_with`](WireLog::shares_storage_with));
    /// logs filled separately fall back to the entry-wise compare — a
    /// pointer compare per entry recorded from one fan-out, byte equality
    /// of the ciphertext and the mask otherwise.
    pub fn same_receptions(&self, other: &WireLog) -> bool {
        let (a, b) = (self.stored(), other.stored());
        self.shares_storage_with(other)
            || (a.len() == b.len()
                && a.iter()
                    .zip(b)
                    .all(|(a, b)| Arc::ptr_eq(a, b) || (a.ct == b.ct && a.y == b.y)))
    }
}

/// The agreed broadcast period `[t_awake, t_end)` and its release time
/// `τ_rel = t_end + ∆` — fixed together by the first `Wake_Up`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
struct Period {
    t_awake: u64,
    t_end: u64,
    tau_rel: u64,
}

#[derive(Clone, Debug)]
struct PendEntry {
    rho: Vec<u8>,
    msg: Value,
    encrypted: bool,
    broadcast: bool,
}

/// Per-party state of `Π_SBC`. Four entry points, in every world:
/// [`on_input`](Self::on_input) (a `Broadcast`),
/// [`on_ubc_deliver`](Self::on_ubc_deliver) (the `Wake_Up`),
/// [`on_wire_deliver_parsed`](Self::on_wire_deliver_parsed) (a wire) and
/// [`on_advance`](Self::on_advance) /
/// [`on_advance_planned`](Self::on_advance_planned) (the round step).
#[derive(Clone, Debug)]
pub struct SbcParty {
    id: PartyId,
    phi: u64,
    delta: u64,
    tle_delay: u64,
    rng: sbc_primitives::drbg::Drbg,
    pend: Vec<PendEntry>,
    rec: WireLog,
    period: Option<Period>,
    last_advance: Option<u64>,
    woke_up_sent: bool,
}

impl SbcParty {
    /// Creates party state for period span `phi`, delivery delay `delta`,
    /// over an `F_TLE` with ciphertext-generation delay `tle_delay`.
    pub fn new(
        id: PartyId,
        phi: u64,
        delta: u64,
        tle_delay: u64,
        rng: sbc_primitives::drbg::Drbg,
    ) -> Self {
        SbcParty {
            id,
            phi,
            delta,
            tle_delay,
            rng,
            pend: Vec::new(),
            rec: WireLog::new(),
            period: None,
            last_advance: None,
            woke_up_sent: false,
        }
    }

    /// The party identity.
    pub fn id(&self) -> PartyId {
        self.id
    }

    /// The agreed release time, once awake.
    pub fn tau_rel(&self) -> Option<u64> {
        self.period.map(|p| p.tau_rel)
    }

    /// The end of the broadcast period, once awake.
    pub fn t_end(&self) -> Option<u64> {
        self.period.map(|p| p.t_end)
    }

    /// The reception log, for the tests that pin who shares storage.
    #[cfg(test)]
    pub(crate) fn log(&self) -> &WireLog {
        &self.rec
    }

    /// Forgets the closed broadcast period so the party can take part in a
    /// fresh one (multi-epoch sessions). Queued, received and timing state
    /// is dropped; the party's randomness stream and round-dedup guard
    /// carry over, so successive epochs draw fresh `ρ` values.
    pub fn reset_period(&mut self) {
        self.pend.clear();
        self.rec.clear();
        self.period = None;
        self.woke_up_sent = false;
    }

    /// Whether the party holds no period state at all: asleep, nothing
    /// queued, nothing received. An idle party's `on_advance` is a pure
    /// clock step (no randomness drawn, no messages, no outputs) — the
    /// precondition for the O(1) fast path of `SbcWorld::join_at`.
    pub fn is_idle(&self) -> bool {
        self.period.is_none() && self.pend.is_empty() && self.rec.is_empty()
    }

    /// Pending (not yet broadcast) messages — revealed on corruption.
    pub fn pending_messages(&self) -> Vec<Value> {
        self.pend
            .iter()
            .filter(|e| !e.broadcast)
            .map(|e| e.msg.clone())
            .collect()
    }

    /// `(sid, Broadcast, M)` input.
    pub fn on_input<H: SbcHybrid>(&mut self, msg: Value, hyb: &mut H) {
        match self.period {
            None => {
                // First activity: queue the message and wake everyone up.
                let rho = self.rng.gen_bytes(32);
                self.pend.push(PendEntry {
                    rho,
                    msg,
                    encrypted: false,
                    broadcast: false,
                });
                if !self.woke_up_sent {
                    self.woke_up_sent = true;
                    hyb.ubc_broadcast(self.id, wake_up());
                }
            }
            Some(period) => {
                if hyb.now() + self.tle_delay >= period.t_end {
                    return; // cannot be ready before the period closes
                }
                let rho = self.rng.gen_bytes(32);
                hyb.tle_enc(self.id, Value::bytes(&rho), period.tau_rel);
                self.pend.push(PendEntry {
                    rho,
                    msg,
                    encrypted: true,
                    broadcast: false,
                });
            }
        }
    }

    /// A control-plane UBC delivery: the first `Wake_Up` opens the period
    /// and encrypts everything queued while asleep; anything else is
    /// ignored (wires come in parsed, through
    /// [`on_wire_deliver_parsed`](SbcParty::on_wire_deliver_parsed)).
    pub fn on_ubc_deliver<H: SbcHybrid>(&mut self, payload: &Value, hyb: &mut H) {
        if self.period.is_some() || !is_wake_up(payload) {
            return;
        }
        let now = hyb.now();
        let tau_rel = now + self.phi + self.delta;
        self.period = Some(Period {
            t_awake: now,
            t_end: now + self.phi,
            tau_rel,
        });
        for e in self.pend.iter_mut().filter(|e| !e.encrypted) {
            e.encrypted = true;
            hyb.tle_enc(self.id, Value::bytes(&e.rho), tau_rel);
        }
    }

    /// Records a `(c, τ_rel, y)` wire received at round `now`, parsed once
    /// by the caller for all recipients ([`ParsedWire`]): what is left per
    /// recipient is the period check (§5: "all broadcast operations outside
    /// the period are discarded"), the replay rule and a by-reference
    /// record. Reads `(period, rec)` and writes `rec` only (no
    /// functionality, no randomness, no leaks) — which is what lets a world
    /// defer a round's deliveries into one batch, and what
    /// [`deliver_batch`](SbcParty::deliver_batch) rests on.
    pub fn on_wire_deliver_parsed(&mut self, wire: &Arc<ParsedWire>, now: u64) {
        let in_period = self
            .period
            .is_some_and(|p| p.tau_rel == wire.tau && now < p.t_end);
        if in_period {
            self.rec.insert_parsed(wire);
        }
    }

    /// Delivers the wake-up-free `batch`, received at round `now`, to every
    /// party of `parties`: exactly `for party { for wire {`
    /// [`on_wire_deliver_parsed`](SbcParty::on_wire_deliver_parsed) `} }`,
    /// computed once per **class** of recipients instead of once per
    /// recipient.
    ///
    /// A reception reads `(period, rec)` and writes `rec`, so two
    /// recipients equal in those two before the batch are equal after it.
    /// Recipients are grouped by period and log identity
    /// ([`WireLog::shares_storage_with`]) — one class under pure broadcast.
    /// Each class's first member has its followers drop their handles, takes
    /// the batch itself on the then-unique storage (in place: the log is
    /// never copied, per recipient or per batch), and hands the result back
    /// by refcount. A recipient whose state differs is its own class and
    /// takes the batch itself: reuse or record, never an assumption. Cost
    /// `O(batch · classes + n · classes)`.
    pub fn deliver_batch(parties: &mut [SbcParty], batch: &[Arc<ParsedWire>], now: u64) {
        const UNCLASSED: usize = usize::MAX;
        if batch.is_empty() {
            return;
        }
        let mut leader_of = vec![UNCLASSED; parties.len()];
        for lead in 0..parties.len() {
            if leader_of[lead] != UNCLASSED {
                continue;
            }
            let (head, followers) = parties.split_at_mut(lead + 1);
            let leader = &mut head[lead];
            let class = &mut leader_of[lead + 1..];
            for (p, of) in followers.iter_mut().zip(class.iter_mut()) {
                if *of == UNCLASSED
                    && p.period == leader.period
                    && p.rec.shares_storage_with(&leader.rec)
                {
                    *of = lead;
                    p.rec.clear();
                }
            }
            for wire in batch {
                leader.on_wire_deliver_parsed(wire, now);
            }
            for (p, of) in followers.iter_mut().zip(class.iter()) {
                if *of == lead {
                    p.rec = leader.rec.clone();
                }
            }
        }
    }

    /// Whether this party's release step at round `now` is guaranteed to
    /// compute the same release as `other`'s: both are at their release
    /// round, this party has not advanced yet this round, and the two wire
    /// logs record identical receptions ([`WireLog::same_receptions`] — one
    /// handle compare when both were delivered to as one class, which is
    /// every pair under pure broadcast; entry-wise otherwise).
    /// The release branch of [`on_advance`](SbcParty::on_advance) reads
    /// nothing else of per-party state, so a positive check licenses
    /// handing `other`'s release output to
    /// [`on_advance_planned`](SbcParty::on_advance_planned).
    pub fn shares_release_view(&self, other: &SbcParty, now: u64) -> bool {
        self.last_advance != Some(now)
            && self.tau_rel() == Some(now)
            && other.tau_rel() == Some(now)
            && self.rec.same_receptions(&other.rec)
    }

    /// The round step: publish ready ciphertexts during the period, decrypt
    /// and output everything at `τ_rel`. Returns the (sorted) message
    /// vector at the release round.
    pub fn on_advance<H: SbcHybrid>(&mut self, hyb: &mut H) -> Option<Command> {
        self.on_advance_planned(hyb, None)
    }

    /// [`on_advance`](SbcParty::on_advance) with an optional release output
    /// to reuse. With `release = None` this *is* the reference step. With
    /// one, the release branch returns it instead of recomputing it;
    /// callers pass one only after
    /// [`shares_release_view`](SbcParty::shares_release_view) held against
    /// the party that computed it, and account themselves for the `F_RO`
    /// queries the recomputation would have issued. At `τ_rel` a party's
    /// step is a function of its frozen wire list (receptions at
    /// `Cl ≥ t_end` are discarded), the `F_TLE` records (`Dec` never
    /// mutates them) and the input-addressed `F_RO`, so the recomputation
    /// would return exactly `release`. A release handed to a party that
    /// does not release this round is ignored.
    pub fn on_advance_planned<H: SbcHybrid>(
        &mut self,
        hyb: &mut H,
        release: Option<Command>,
    ) -> Option<Command> {
        let now = hyb.now();
        if self.last_advance == Some(now) {
            return None;
        }
        self.last_advance = Some(now);
        let Period {
            t_awake,
            t_end,
            tau_rel,
        } = self.period?;
        if t_awake <= now && now < t_end {
            // Fetch ciphertexts that became ready and broadcast them.
            for (rho_v, ct, _tau) in hyb.tle_retrieve(self.id) {
                let Some(rho) = rho_v.as_bytes() else {
                    continue;
                };
                let Some(entry) = self.pend.iter_mut().find(|e| e.rho == rho && !e.broadcast)
                else {
                    continue;
                };
                entry.broadcast = true;
                let m_bytes = entry.msg.encode();
                let Some(eta) = hyb.ro_query(self.id, &entry.rho, m_bytes.len()) else {
                    continue;
                };
                let y: Vec<u8> = m_bytes.iter().zip(eta.iter()).map(|(a, b)| a ^ b).collect();
                hyb.ubc_broadcast(self.id, sbc_wire(&ct, tau_rel, &y));
            }
        }
        if now == tau_rel {
            if release.is_some() {
                return release;
            }
            let mut out = Vec::new();
            for wire in self.rec.entries() {
                // Unknown ciphertext (⊥) and non-`Message` responses are
                // skipped.
                let Some(DecResponse::Message(rho_v)) = hyb.tle_dec(self.id, &wire.ct, tau_rel)
                else {
                    continue;
                };
                let Some(rho) = rho_v.as_bytes() else {
                    continue;
                };
                let Some(eta) = hyb.ro_query(self.id, rho, wire.y.len()) else {
                    continue;
                };
                let m_bytes: Vec<u8> = wire.y.iter().zip(&eta).map(|(a, b)| a ^ b).collect();
                out.push(Value::decode(&m_bytes).unwrap_or(Value::Bytes(m_bytes)));
            }
            out.sort();
            return Some(Command::new("Broadcast", Value::list(out)));
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::worlds::{SbcHost, SbcParams};
    use sbc_primitives::drbg::Drbg;
    use std::collections::HashMap;

    const PHI: u64 = 3;
    const DELTA: u64 = 2;
    const TLE_DELAY: u64 = 1;

    /// One UBC delivery, routed the way every world routes it: a wire by
    /// the parsed path, anything else (the wake-up) by the control path.
    fn deliver<H: SbcHybrid>(p: &mut SbcParty, msg: &Value, hyb: &mut H) {
        match ParsedWire::parse(msg) {
            Some(wire) => p.on_wire_deliver_parsed(&Arc::new(wire), hyb.now()),
            None => p.on_ubc_deliver(msg, hyb),
        }
    }

    /// `n` parties over the real functionality host, stepped by the literal
    /// per-party loop with in-place delivery.
    struct Stack {
        host: SbcHost,
        parties: Vec<SbcParty>,
    }

    impl Stack {
        fn new(n: usize) -> Self {
            let params = SbcParams {
                n,
                phi: PHI,
                delta: DELTA,
                tle_alpha: 1,
                tle_delay: TLE_DELAY,
            };
            let (host, parties) = SbcHost::new(params, b"sbcp");
            Stack { host, parties }
        }

        fn input(&mut self, p: u32, msg: Value) {
            self.parties[p as usize].on_input(msg, &mut self.host);
        }

        /// Advances every party once and ticks the clock; returns outputs.
        fn round(&mut self) -> Vec<(u32, Command)> {
            let mut outputs = Vec::new();
            for i in 0..self.parties.len() {
                if let Some(cmd) = self.parties[i].on_advance(&mut self.host) {
                    outputs.push((i as u32, cmd));
                }
                for msg in self.host.take_flush(PartyId(i as u32)) {
                    for p in &mut self.parties {
                        deliver(p, &msg, &mut self.host);
                    }
                }
                self.host.core.clock.advance_party(PartyId(i as u32));
            }
            outputs
        }
    }

    #[test]
    fn wire_tau_is_the_parsers_acceptance() {
        let (b, u) = (Value::bytes(b"x"), Value::U64(5));
        let wire = sbc_wire(&b, 5, b"y");
        assert_eq!(wire_tau(&wire), Some(5));
        let parsed = ParsedWire::parse(&wire).expect("a wire");
        assert_eq!((&parsed.ct, parsed.tau, &parsed.y[..]), (&b, 5, &b"y"[..]));
        // Not a list, wrong arity, and each position of the wrong type.
        let list = |items: &[&Value]| Value::list(items.iter().map(|&v| v.clone()));
        let not_wires = [
            wake_up(),
            list(&[&b, &u]),
            list(&[&b, &u, &b, &b]),
            list(&[&u, &u, &b]),
            list(&[&b, &b, &b]),
            list(&[&b, &u, &u]),
        ];
        for v in &not_wires {
            assert_eq!(wire_tau(v), None, "{v:?}");
            assert!(ParsedWire::parse(v).is_none());
        }
    }

    #[test]
    fn cmp_payload_is_equal_on_full_byte_equality_only() {
        let (c, y) = (Value::bytes(b"ct-b"), b"y-b");
        let wire = ParsedWire::parse(&sbc_wire(&c, 5, y)).expect("a wire");
        assert_eq!(wire.cmp_payload(&sbc_wire(&c, 5, y)), Ordering::Equal);
        // One component off at a time, either side: never `Equal`, and
        // antisymmetric — the order a sorted table needs.
        let near = [
            (sbc_wire(&Value::bytes(b"ct-a"), 5, y), Ordering::Greater),
            (sbc_wire(&Value::bytes(b"ct-c"), 5, y), Ordering::Less),
            (sbc_wire(&c, 4, y), Ordering::Greater),
            (sbc_wire(&c, 6, y), Ordering::Less),
            (sbc_wire(&c, 5, b"y-a"), Ordering::Greater),
            (sbc_wire(&c, 5, b"y-bb"), Ordering::Less),
        ];
        for (v, expected) in &near {
            assert_eq!(wire.cmp_payload(v), *expected, "{v:?}");
            let other = ParsedWire::parse(v).expect("a wire");
            assert_eq!(other.cmp_payload(&sbc_wire(&c, 5, y)), expected.reverse());
        }
        // What `parse` refuses is no wire at all.
        for v in [wake_up(), Value::list([c.clone(), Value::U64(5)])] {
            assert_eq!(wire.cmp_payload(&v), Ordering::Greater);
        }
    }

    #[test]
    fn end_to_end_single_sender() {
        let mut s = Stack::new(3);
        s.input(0, Value::bytes(b"simultaneous"));
        let mut all = Vec::new();
        for _ in 0..(PHI + DELTA + 2) {
            all.extend(s.round());
        }
        // Every party outputs the same singleton vector at τ_rel.
        assert_eq!(all.len(), 3);
        for (_, cmd) in &all {
            assert_eq!(
                cmd.value.as_list().unwrap(),
                &[Value::bytes(b"simultaneous")]
            );
        }
    }

    #[test]
    fn all_parties_agree_on_times() {
        let mut s = Stack::new(3);
        s.input(1, Value::U64(5));
        s.round();
        for p in &s.parties {
            assert_eq!(p.tau_rel(), Some(PHI + DELTA), "woken in round 0");
        }
    }

    #[test]
    fn multi_sender_all_messages_delivered_sorted() {
        let mut s = Stack::new(3);
        s.input(0, Value::bytes(b"zulu"));
        s.round(); // wake-up spreads; period = [0, 3)
        s.input(1, Value::bytes(b"alpha"));
        s.input(2, Value::bytes(b"mike"));
        let mut all = Vec::new();
        for _ in 0..(PHI + DELTA + 2) {
            all.extend(s.round());
        }
        assert_eq!(all.len(), 3);
        for (_, cmd) in &all {
            let msgs = cmd.value.as_list().unwrap();
            assert_eq!(
                msgs,
                &[
                    Value::bytes(b"alpha"),
                    Value::bytes(b"mike"),
                    Value::bytes(b"zulu")
                ],
                "lexicographic order"
            );
        }
    }

    #[test]
    fn late_input_ignored() {
        let mut s = Stack::new(2);
        s.input(0, Value::bytes(b"on-time"));
        // Rounds 0,1: wake-up + broadcast. t_end = 3, tle_delay = 1 →
        // inputs from round 2 on cannot complete.
        s.round();
        s.round();
        s.input(1, Value::bytes(b"too-late"));
        let mut all = Vec::new();
        for _ in 0..(PHI + DELTA + 2) {
            all.extend(s.round());
        }
        for (_, cmd) in &all {
            assert_eq!(cmd.value.as_list().unwrap(), &[Value::bytes(b"on-time")]);
        }
    }

    #[test]
    fn replayed_wire_not_duplicated() {
        // Feed the same (c, τ, y) twice into a recipient: one output.
        let mut s = Stack::new(2);
        s.input(0, Value::bytes(b"once"));
        s.round(); // round 0: wake-up flush, enc
                   // Extract the wire from the UBC leak after broadcast (round 1).
        s.round();
        let wire = s
            .host
            .core
            .leaks
            .iter()
            .rev()
            .find_map(|l| {
                let items = l.cmd.value.as_list()?;
                if items.len() == 3 && items[1].as_list().map(|w| w.len()) == Some(3) {
                    Some(items[1].clone())
                } else {
                    None
                }
            })
            .expect("broadcast wire leaked");
        deliver(&mut s.parties[1], &wire, &mut s.host);
        let mut all = Vec::new();
        for _ in 0..(PHI + DELTA) {
            all.extend(s.round());
        }
        let p1_out = all.iter().find(|(p, _)| *p == 1).unwrap();
        assert_eq!(p1_out.1.value.as_list().unwrap().len(), 1, "replay dropped");
    }

    /// A log entry as a delivery would record it. Built from parts, so the
    /// log tests can use ciphertexts the wire parser would not accept.
    fn entry(ct: &Value, y: &[u8]) -> Arc<ParsedWire> {
        wire_at(0, ct, y)
    }

    fn wire_at(tau: u64, ct: &Value, y: &[u8]) -> Arc<ParsedWire> {
        Arc::new(ParsedWire {
            ct: ct.clone(),
            tau,
            y: y.to_vec(),
        })
    }

    /// `n` parties with nothing queued, woken at round `at`.
    fn woken(n: u32, at: u64) -> Vec<SbcParty> {
        let mut hyb = Recorder {
            now: at,
            ..Recorder::default()
        };
        (0..n)
            .map(|i| {
                let mut p = SbcParty::new(PartyId(i), PHI, DELTA, TLE_DELAY, Drbg::from_seed(b"p"));
                p.on_ubc_deliver(&wake_up(), &mut hyb);
                p
            })
            .collect()
    }

    fn ys(p: &SbcParty) -> Vec<&[u8]> {
        p.rec.entries().map(|w| &w.y[..]).collect()
    }

    #[test]
    fn deliver_batch_shares_a_log_per_class_and_equals_the_literal_loop() {
        const TAU: u64 = PHI + DELTA;
        let ct = |name: &[u8]| Value::bytes(name);
        // One recipient of four holds a wire the others never saw; the
        // batch then replays that wire's mask under a fresh ciphertext.
        let mut parties = woken(4, 0);
        parties[2].on_wire_deliver_parsed(&wire_at(TAU, &ct(b"ct-x"), b"y-x"), 1);
        let batch = [
            wire_at(TAU, &ct(b"ct-a"), b"y-a"),
            wire_at(TAU, &ct(b"ct-b"), b"y-x"),
            wire_at(TAU, &ct(b"ct-c"), b"y-c"),
        ];
        // What the batch rule must equal: the literal per-recipient loop.
        let mut literal = parties.clone();
        for p in &mut literal {
            for wire in &batch {
                p.on_wire_deliver_parsed(wire, 1);
            }
        }
        SbcParty::deliver_batch(&mut parties, &batch, 1);
        for (p, l) in parties.iter().zip(&literal) {
            assert!(p.rec.same_receptions(&l.rec), "party {}", p.id().0);
            assert!(!p.rec.shares_storage_with(&l.rec), "the clone took its own");
        }
        for i in [1, 3] {
            assert!(parties[i].rec.shares_storage_with(&parties[0].rec));
        }
        assert_eq!(ys(&parties[0]), [&b"y-a"[..], b"y-x", b"y-c"]);
        // The odd recipient is its own class: the replay is discarded for
        // it only, and its log stays its own.
        assert!(!parties[2].rec.shares_storage_with(&parties[0].rec));
        assert_eq!(ys(&parties[2]), [&b"y-x"[..], b"y-a", b"y-c"]);

        // Equal (empty) logs, different τ_rel: never one class — each
        // records the wire that names its own release time.
        let mut parties = woken(2, 0);
        parties.extend(woken(1, 1));
        let batch = [
            wire_at(TAU, &ct(b"ct-a"), b"y-a"),
            wire_at(TAU + 1, &ct(b"ct-b"), b"y-b"),
        ];
        SbcParty::deliver_batch(&mut parties, &batch, 1);
        assert!(parties[0].rec.shares_storage_with(&parties[1].rec));
        assert!(!parties[2].rec.shares_storage_with(&parties[0].rec));
        assert_eq!(ys(&parties[0]), [b"y-a"]);
        assert_eq!(ys(&parties[2]), [b"y-b"]);
        // Past t_end every recipient discards everything, as one class.
        SbcParty::deliver_batch(&mut parties, &batch, PHI + 1);
        assert_eq!((parties[1].rec.len(), parties[2].rec.len()), (1, 1));
    }

    #[test]
    fn successive_batches_extend_the_class_log_in_place() {
        const TAU: u64 = PHI + DELTA;
        let storage = |p: &SbcParty| p.rec.0.as_ref().map(Arc::as_ptr);
        let mut parties = woken(3, 0);
        let fresh = |k: u8| [wire_at(TAU, &Value::bytes([k]), &[k])];
        SbcParty::deliver_batch(&mut parties, &fresh(0), 1);
        let first = storage(&parties[0]);
        for k in 1..50 {
            SbcParty::deliver_batch(&mut parties, &fresh(k), 1);
        }
        // Same allocation as after the first batch: never copied.
        assert!(first.is_some() && parties.iter().all(|p| storage(p) == first));
        assert_eq!(parties[2].rec.len(), 50);
    }

    #[test]
    fn cloned_parties_diverge_without_touching_each_other() {
        const TAU: u64 = PHI + DELTA;
        let mut original = woken(3, 0);
        let first = [wire_at(TAU, &Value::bytes(b"ct-a"), b"y-a")];
        SbcParty::deliver_batch(&mut original, &first, 1);
        let mut copy = original.clone();
        assert!(copy[1].rec.shares_storage_with(&original[0].rec));
        // Deliver to the copy only: it unshares, the original is untouched.
        let second = [wire_at(TAU, &Value::bytes(b"ct-b"), b"y-b")];
        SbcParty::deliver_batch(&mut copy, &second, 1);
        for (o, c) in original.iter().zip(&copy) {
            assert_eq!(ys(o), [b"y-a"]);
            assert_eq!(ys(c), [&b"y-a"[..], b"y-b"]);
            assert!(o.rec.shares_storage_with(&original[0].rec));
            assert!(c.rec.shares_storage_with(&copy[0].rec));
        }
        // And the other way round, through the single-recipient path.
        original[2].on_wire_deliver_parsed(&second[0], 1);
        assert_eq!(ys(&original[2]), [&b"y-a"[..], b"y-b"]);
        assert_eq!(ys(&original[0]), [b"y-a"]);
        assert!(original[2].rec.same_receptions(&copy[2].rec));
    }

    #[test]
    fn partial_collision_wires_dropped() {
        // Either key replayed — the same ciphertext under a fresh mask, or
        // the same mask under a fresh ciphertext — is a replay: the two
        // indices keep the OR semantics of `S_SBC`'s linear scan.
        let (ct_a, ct_b) = (Value::bytes(b"ct-a"), Value::bytes(b"ct-b"));
        let mut log = WireLog::new();
        assert!(log.insert_parsed(&entry(&ct_a, b"y-a")));
        assert!(!log.insert_parsed(&entry(&ct_a, b"y-b")));
        assert!(!log.insert_parsed(&entry(&ct_b, b"y-a")));
        assert!(log.insert_parsed(&entry(&ct_b, b"y-b")));
        assert_eq!(log.len(), 2);
        assert!(!log.is_empty());
        log.clear();
        assert!(log.is_empty());
        // A cleared log accepts previously seen keys again (fresh period).
        assert!(log.insert_parsed(&entry(&ct_a, b"y-a")));
    }

    #[test]
    fn wire_log_dedup_is_on_the_bytes() {
        // 4 KiB components that differ in the last byte only: two wires.
        let long = |last: u8| [vec![7u8; 4095], vec![last]].concat();
        let ct = |last: u8| Value::bytes(long(last));
        let mut log = WireLog::new();
        assert!(log.insert_parsed(&entry(&ct(0), &long(10))));
        assert!(log.insert_parsed(&entry(&ct(1), &long(11))));
        // Equal `c` under a fresh `y`, equal `y` under a fresh `c`: refused.
        assert!(!log.insert_parsed(&entry(&ct(0), &long(12))));
        assert!(!log.insert_parsed(&entry(&ct(2), &long(11))));
        // Arrival order, whatever the two indices sort to.
        assert!(log.insert_parsed(&entry(&Value::bytes(b"a"), b"z")));
        assert!(log.insert_parsed(&entry(&Value::bytes(b"z"), b"a")));
        let lasts = |log: &WireLog| -> Vec<u8> {
            log.entries().filter_map(|w| w.y.last().copied()).collect()
        };
        assert_eq!(lasts(&log), [10, 11, b'z', b'a']);

        // A clone diverges through `Arc::make_mut`: each side refuses its
        // own replays — the shared ones and its own — and not the other's.
        let mut copy = log.clone();
        assert!(copy.insert_parsed(&entry(&ct(3), &long(13))));
        assert!(!copy.shares_storage_with(&log));
        assert!(log.insert_parsed(&entry(&ct(4), &long(14))));
        for (side, mine, theirs) in [(&mut log, 4, 3), (&mut copy, 3, 4)] {
            assert!(!side.insert_parsed(&entry(&ct(0), &long(99))), "shared c");
            assert!(!side.insert_parsed(&entry(&ct(mine), &long(99))), "own c");
            assert!(
                !side.insert_parsed(&entry(&ct(99), &long(10 + mine))),
                "own y"
            );
            assert!(side.insert_parsed(&entry(&ct(theirs), &long(10 + theirs))));
        }
        assert_eq!(lasts(&log), [10, 11, b'z', b'a', 14, 13]);
        assert_eq!(lasts(&copy), [10, 11, b'z', b'a', 13, 14]);
    }

    #[test]
    fn wire_log_caches_one_canonical_encoding_per_entry() {
        // The release round probes F_TLE with the ciphertext each entry
        // holds: entries hand back the `c` and `y` they were recorded with,
        // in arrival order, across a refused replay and a clear.
        let mut log = WireLog::new();
        let cts = [Value::bytes(b"ct-a"), Value::list([Value::U64(7)])];
        assert!(log.insert_parsed(&entry(&cts[0], b"y-a")));
        assert!(log.insert_parsed(&entry(&cts[1], b"y-b")));
        // A rejected replay must not grow the log.
        assert!(!log.insert_parsed(&entry(&cts[0], b"y-fresh")));
        assert_eq!(log.entries().count(), log.len());
        for (wire, (ct, y)) in log.entries().zip([(&cts[0], b"y-a"), (&cts[1], b"y-b")]) {
            assert_eq!(&wire.ct, ct, "entries iterate in arrival order");
            assert_eq!(wire.y, y);
        }
        log.clear();
        assert!(log.entries().next().is_none());
        assert!(log.insert_parsed(&entry(&cts[0], b"y-a")));
        assert_eq!(log.entries().count(), 1);
    }

    #[test]
    fn same_receptions_compares_pointers_then_bytes() {
        let ct = Value::bytes(b"ct");
        let shared = entry(&ct, b"y");
        let (mut a, mut b, mut c) = (WireLog::new(), WireLog::new(), WireLog::new());
        a.insert_parsed(&shared);
        b.insert_parsed(&shared); // one fan-out: the same `Arc`
        c.insert_parsed(&entry(&ct, b"y")); // parsed separately: equal bytes
        assert!(a.same_receptions(&b) && a.same_receptions(&c));
        // Separately filled logs are equal without being one; a clone is
        // one until either side records something the other does not.
        assert!(!a.shares_storage_with(&b) && a.shares_storage_with(&a.clone()));
        assert!(WireLog::new().shares_storage_with(&WireLog::new()));
        assert!(!a.shares_storage_with(&WireLog::new()));
        let mut d = WireLog::new();
        d.insert_parsed(&entry(&ct, b"other"));
        assert!(!a.same_receptions(&d), "same ciphertext, different mask");
        assert!(!a.same_receptions(&WireLog::new()), "different length");
    }

    /// A scripted [`SbcHybrid`] that records every call made to it.
    #[derive(Default)]
    struct Recorder {
        now: u64,
        calls: Vec<Call>,
        /// What the next `Retrieve` answers.
        ready: Vec<(Value, Value, u64)>,
        /// `Dec` answers by ciphertext; anything else is unknown.
        dec: HashMap<Value, DecResponse>,
    }

    #[derive(Debug, PartialEq)]
    enum Call {
        Cast(Value),
        Enc(Value, u64),
        Retrieve,
        Dec(Value, u64),
        Ro(Vec<u8>, usize),
    }

    impl Recorder {
        fn mask(x: &[u8], len: usize) -> Vec<u8> {
            (0..len).map(|i| x[i % x.len()] ^ i as u8).collect()
        }

        fn masked(x: &[u8], msg: &Value) -> Vec<u8> {
            let m = msg.encode();
            let eta = Recorder::mask(x, m.len());
            m.iter().zip(eta).map(|(a, b)| a ^ b).collect()
        }

        fn take_calls(&mut self) -> Vec<Call> {
            std::mem::take(&mut self.calls)
        }
    }

    impl SbcHybrid for Recorder {
        fn now(&self) -> u64 {
            self.now
        }

        fn ubc_broadcast(&mut self, party: PartyId, msg: Value) {
            assert_eq!(party, PartyId(0));
            self.calls.push(Call::Cast(msg));
        }

        fn tle_enc(&mut self, party: PartyId, msg: Value, tau: u64) {
            assert_eq!(party, PartyId(0));
            self.calls.push(Call::Enc(msg, tau));
        }

        fn tle_retrieve(&mut self, party: PartyId) -> Vec<(Value, Value, u64)> {
            assert_eq!(party, PartyId(0));
            self.calls.push(Call::Retrieve);
            std::mem::take(&mut self.ready)
        }

        fn tle_dec(&mut self, party: PartyId, ct: &Value, tau: u64) -> Option<DecResponse> {
            assert_eq!(party, PartyId(0));
            self.calls.push(Call::Dec(ct.clone(), tau));
            self.dec.get(ct).cloned()
        }

        fn ro_query(&mut self, party: PartyId, x: &[u8], len: usize) -> Option<Vec<u8>> {
            assert_eq!(party, PartyId(0));
            self.calls.push(Call::Ro(x.to_vec(), len));
            Some(Recorder::mask(x, len))
        }
    }

    #[test]
    fn hybrid_calls_are_issued_in_the_order_fig14_fixes() {
        const TAU: u64 = PHI + DELTA;
        let mut hyb = Recorder::default();
        let mut p = SbcParty::new(PartyId(0), PHI, DELTA, TLE_DELAY, Drbg::from_seed(b"p0"));
        // The ρ values the party will draw, in order.
        let mut twin = Drbg::from_seed(b"p0");
        let rho: Vec<Vec<u8>> = (0..3).map(|_| twin.gen_bytes(32)).collect();
        let rho_v = |i: usize| Value::bytes(&rho[i]);
        let msgs = [Value::bytes(b"zulu"), Value::bytes(b"mike"), Value::U64(7)];

        // Asleep submit: a ρ draw and one Wake_Up cast; none on the second.
        p.on_input(msgs[0].clone(), &mut hyb);
        assert_eq!(hyb.take_calls(), [Call::Cast(wake_up())]);
        p.on_input(msgs[1].clone(), &mut hyb);
        assert_eq!(hyb.take_calls(), []);

        // Wake-up delivery: one Enc per queued entry, in queue order; a
        // second Wake_Up changes nothing.
        p.on_ubc_deliver(&wake_up(), &mut hyb);
        assert_eq!(
            hyb.take_calls(),
            [Call::Enc(rho_v(0), TAU), Call::Enc(rho_v(1), TAU)]
        );
        p.on_ubc_deliver(&wake_up(), &mut hyb);
        assert_eq!(hyb.take_calls(), []);
        assert_eq!((p.t_end(), p.tau_rel()), (Some(PHI), Some(TAU)));

        // Awake submit: ρ draw, then Enc.
        p.on_input(msgs[2].clone(), &mut hyb);
        assert_eq!(hyb.take_calls(), [Call::Enc(rho_v(2), TAU)]);

        // Late submit (now + delay ≥ t_end): no call and no ρ draw.
        hyb.now = PHI - TLE_DELAY;
        p.on_input(Value::bytes(b"late"), &mut hyb);
        assert_eq!(hyb.take_calls(), []);
        assert_eq!(p.rng.clone().gen_bytes(32), twin.clone().gen_bytes(32));

        // Broadcast round: Retrieve, then per ready triple F_RO → cast.
        // Triples that are not this party's own are passed over.
        hyb.now = 1;
        let ct = |i: u8| Value::bytes([i; 8]);
        hyb.ready = vec![
            (rho_v(1), ct(1), TAU),
            (Value::bytes(b"not mine"), ct(9), TAU),
            (Value::U64(3), ct(9), TAU),
            (rho_v(0), ct(0), TAU),
        ];
        let wire = |i: usize| sbc_wire(&ct(i as u8), TAU, &Recorder::masked(&rho[i], &msgs[i]));
        assert_eq!(p.on_advance(&mut hyb), None);
        assert_eq!(
            hyb.take_calls(),
            [
                Call::Retrieve,
                Call::Ro(rho[1].clone(), msgs[1].encode().len()),
                Call::Cast(wire(1)),
                Call::Ro(rho[0].clone(), msgs[0].encode().len()),
                Call::Cast(wire(0)),
            ]
        );
        assert_eq!(p.pending_messages(), [msgs[2].clone()]);

        // A second advance in the same round: nothing.
        assert_eq!(p.on_advance(&mut hyb), None);
        assert_eq!(hyb.take_calls(), []);

        // Receptions: two decryptable wires around an unknown ciphertext
        // and a non-`Message` answer. Recording is silent.
        let junk = |i: u8| sbc_wire(&ct(i), TAU, &[i; 5]);
        for w in [wire(0), junk(20), junk(21), wire(1)] {
            deliver(&mut p, &w, &mut hyb);
        }
        assert_eq!(hyb.take_calls(), []);
        hyb.dec = HashMap::from([
            (ct(0), DecResponse::Message(rho_v(0))),
            (ct(21), DecResponse::InvalidTime),
            (ct(1), DecResponse::Message(rho_v(1))),
        ]);

        // Release: Dec → F_RO per log entry in arrival order, skipping
        // what does not open; the output is sorted.
        hyb.now = TAU;
        let out = p.on_advance(&mut hyb).expect("release round");
        assert_eq!(
            hyb.take_calls(),
            [
                Call::Dec(ct(0), TAU),
                Call::Ro(rho[0].clone(), msgs[0].encode().len()),
                Call::Dec(ct(20), TAU),
                Call::Dec(ct(21), TAU),
                Call::Dec(ct(1), TAU),
                Call::Ro(rho[1].clone(), msgs[1].encode().len()),
            ]
        );
        assert_eq!(
            out,
            Command::new("Broadcast", Value::list([msgs[1].clone(), msgs[0].clone()]))
        );
        assert_eq!(p.on_advance(&mut hyb), None);
        assert_eq!(hyb.take_calls(), []);
    }

    #[test]
    fn planned_release_is_bit_identical_to_inline_release() {
        // Drive two identical stacks to the release round; release one
        // inline everywhere, and in the other let parties 1.. reuse party
        // 0's release. Outputs must match, and a reusing party must make
        // no hybrid call at all.
        fn drive_to_release(s: &mut Stack) {
            s.input(0, Value::bytes(b"zulu"));
            s.round();
            s.input(1, Value::bytes(b"alpha"));
            for _ in 0..(PHI + DELTA - 1) {
                assert!(s.round().is_empty());
            }
        }
        let (mut inline, mut reused) = (Stack::new(3), Stack::new(3));
        drive_to_release(&mut inline);
        drive_to_release(&mut reused);
        let inline_out = inline.round();

        let now = reused.host.now();
        let first = reused.parties[0]
            .on_advance(&mut reused.host)
            .expect("every party releases at τ_rel");
        let mut silent = Recorder {
            now,
            ..Recorder::default()
        };
        let mut reused_out = vec![(0, first.clone())];
        for i in 1..reused.parties.len() {
            assert!(reused.parties[i].shares_release_view(&reused.parties[0], now));
            let cmd = reused.parties[i]
                .on_advance_planned(&mut silent, Some(first.clone()))
                .expect("every party releases at τ_rel");
            reused_out.push((i as u32, cmd));
        }
        assert_eq!(reused_out, inline_out);
        assert_eq!(silent.calls, []);
        // A release handed to a party that does not release is ignored.
        inline.round();
        assert!(inline.parties[0]
            .on_advance_planned(&mut inline.host, Some(first))
            .is_none());
    }

    #[test]
    fn no_output_before_tau_rel() {
        let mut s = Stack::new(2);
        s.input(0, Value::U64(1));
        for round in 0..(PHI + DELTA) {
            let outs = s.round();
            assert!(outs.is_empty(), "round {round}: nothing before τ_rel");
        }
        let outs = s.round();
        assert_eq!(outs.len(), 2);
    }
}
