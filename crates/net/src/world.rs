//! The networked Theorem 2 world: `Π_SBC` parties behind a frame link.
//!
//! [`NetSbcWorld`] re-runs the real-world experiment of
//! `sbc_core::worlds::RealSbcWorld` with one structural change: nothing
//! crosses a party boundary except encoded [`Frame`]s moved by a
//! [`Transport`]. The parties are the same [`SbcParty`] state machines the
//! in-process world runs; the hybrid functionalities are the same
//! [`SbcHost`]. What differs is the [`SbcHybrid`] the party is handed: a
//! frame link (`FrameLink`) that posts each of the six hybrid calls as a
//! request frame and takes the reply the transport decoded, while the
//! host side (`FrameLink::host_handle`) maps each request frame back onto
//! the same six `SbcHost` methods the in-process party calls directly.
//! The environment's submissions and clock ticks arrive as frames too.
//!
//! # The conformance envelope
//!
//! The backend is held to `CompareLevel::Exact` transcript equality
//! against the in-process world (same seed, same schedule). Party logic
//! and functionality access cannot drift — it is the same party code
//! calling the same host methods. What the `Exact` gate guards is what
//! this module still owns:
//!
//! * **host-side sequencing** — per `advance`: due data frames, the
//!   `Tick`, the party's `F_UBC` flush, then the delivery pumps, in the
//!   order `RealSbcWorld::advance` makes its calls;
//! * **transport inertness** — the only frames the network is free to
//!   disturb, party-to-party `(c, τ_rel, y)` wire deliveries, are inert on
//!   arrival: a recorded wire has no observable effect until the release
//!   round, the replay dedup is order-insensitive for distinct wires, and
//!   release outputs are sorted. Delay (clamped before the period end ∆
//!   guarantees), reorder, duplication, healing partitions and reconnects
//!   therefore cannot change outputs or leaks;
//! * **content interning** — each recipient gets its own frame, decoded
//!   once by the transport that classified it, but payloads equal byte
//!   for byte in all of `(c, τ_rel, y)` reach the parties as one
//!   `Arc<ParsedWire>` (`deliver_wire`): one copy of `y`
//!   per world, and a pointer compare per entry when the release round
//!   asks whether two logs agree. Unobservable: a `ParsedWire` is its
//!   three components, so the shared value is the one each recipient
//!   would have parsed;
//! * **release sharing** — within one round the first honest party
//!   releases over its own frames and every later one takes that output,
//!   the one shared list (`SharedRelease`, the rule `RealSbcWorld` holds
//!   per round too), and posts its own `Output`. The rule is forgotten
//!   when the round ends and before any other mutating call — the
//!   adversary may act between two `advance`s — and guarded per party by
//!   `SbcParty::shares_release_view`.
//!
//! Dropping a corrupted sender's wires — by schedule, or because one is
//! over the frame size cap — *does* change the received sets: that knob
//! sits outside the `Exact` envelope and has its own tests.

use crate::codec::{Endpoint, Frame, FrameKind, NetError};
use crate::transport::{Loopback, SimConfig, SimNet, Transport, TransportStats};
use sbc_core::error::SbcError;
use sbc_core::protocol::{ParsedWire, SbcHybrid, SbcParty};
use sbc_core::worlds::{SbcBackend, SbcHost, SbcParams, SharedRelease};
use sbc_tle::func::DecResponse;
use sbc_uc::exec::SbcWorld;
use sbc_uc::ids::PartyId;
use sbc_uc::value::{Command, Value};
use sbc_uc::world::{AdvCommand, Leak, World};
use std::marker::PhantomData;
use std::sync::Arc;

/// The [`SbcHybrid`] of a networked party: every call is one request frame
/// to the functionality host — encoded, then decoded once by the transport
/// — and, where the call has a result, one response frame back on the
/// party's rpc lane.
///
/// It borrows the host, the transport and the fault latch, the fields of
/// [`NetSbcWorld`] disjoint from its parties, so a party can be stepped in
/// place.
struct FrameLink<'a> {
    host: &'a mut SbcHost,
    transport: &'a mut dyn Transport,
    fault: &'a mut Option<String>,
}

impl FrameLink<'_> {
    /// Encodes and ships one frame, returning the transport's refusal.
    fn send(&mut self, from: Endpoint, to: Endpoint, kind: FrameKind) -> Result<(), NetError> {
        let now = self.host.now();
        let frame = Frame {
            from,
            to,
            sent_at: now,
            kind,
        };
        self.transport.send(frame.encode(), now)
    }

    /// [`send`](Self::send)s a frame the protocol needs. The world builds
    /// only well-formed frames to parties in range, so a refusal means the
    /// frame cannot cross at all — one over
    /// [`MAX_FRAME`](crate::codec::MAX_FRAME), or a socket link that stayed
    /// down. The first refusal is latched for [`SbcWorld::fault`]: the
    /// world cannot make progress without it.
    fn post(&mut self, from: Endpoint, to: Endpoint, kind: FrameKind) {
        let now = self.host.now();
        if let Err(e) = self.send(from, to, kind) {
            let cause = match e {
                NetError::Codec(codec) => codec.to_string(),
                other => other.to_string(),
            };
            self.fault
                .get_or_insert_with(|| format!("frame {from} → {to} in round {now}: {cause}"));
        }
    }

    /// Posts one request to the functionality host and has it handled,
    /// fully over the wire. The control queue is empty whenever this is
    /// called (the pump buffers its batch before dispatching), so the host
    /// inbox contains exactly this request.
    fn request(&mut self, from: PartyId, kind: FrameKind) {
        self.post(Endpoint::Party(from.0), Endpoint::Host, kind);
        for frame in self.transport.recv_control() {
            self.host_handle(frame);
        }
    }

    /// A [`request`](Self::request) with a reply, on the party's rpc lane.
    fn rpc(&mut self, from: PartyId, kind: FrameKind) -> Option<FrameKind> {
        self.request(from, kind);
        self.transport
            .recv_rpc(from.0)
            .pop()
            .map(|frame| frame.kind)
    }

    /// The functionality host: answers one party request by calling the
    /// [`SbcHybrid`] method of [`SbcHost`] the request frame stands for —
    /// the very call the in-process party makes — and posting the reply.
    fn host_handle(&mut self, frame: Frame) {
        let Endpoint::Party(p) = frame.from else {
            return;
        };
        let party = PartyId(p);
        let reply = match frame.kind {
            FrameKind::Cast(msg) => {
                self.host.ubc_broadcast(party, msg);
                return;
            }
            FrameKind::TleEnc { rho, tau } => {
                self.host.tle_enc(party, rho, tau);
                return;
            }
            FrameKind::TleRetrieve => FrameKind::TleTriples(Value::list(
                self.host
                    .tle_retrieve(party)
                    .into_iter()
                    .map(|(m, c, tau)| Value::list([m, c, Value::U64(tau)])),
            )),
            FrameKind::TleDec { ct, tau } => {
                FrameKind::TleDecResp(match self.host.tle_dec(party, &ct, tau) {
                    None => Value::Unit,
                    Some(r) => r.to_value(),
                })
            }
            FrameKind::RoQuery { x, len } => FrameKind::RoAnswer(
                self.host
                    .ro_query(party, &x, len as usize)
                    .unwrap_or_default(),
            ),
            _ => return,
        };
        self.post(Endpoint::Host, Endpoint::Party(p), reply);
    }
}

impl SbcHybrid for FrameLink<'_> {
    fn now(&self) -> u64 {
        self.host.now()
    }

    fn ubc_broadcast(&mut self, party: PartyId, msg: Value) {
        self.request(party, FrameKind::Cast(msg));
    }

    fn tle_enc(&mut self, party: PartyId, msg: Value, tau: u64) {
        self.request(party, FrameKind::TleEnc { rho: msg, tau });
    }

    fn tle_retrieve(&mut self, party: PartyId) -> Vec<(Value, Value, u64)> {
        let Some(FrameKind::TleTriples(Value::List(triples))) =
            self.rpc(party, FrameKind::TleRetrieve)
        else {
            return Vec::new();
        };
        Arc::unwrap_or_clone(triples)
            .into_iter()
            .filter_map(|triple| {
                let Value::List(items) = triple else {
                    return None;
                };
                let [m, c, tau]: [Value; 3] = Arc::unwrap_or_clone(items).try_into().ok()?;
                Some((m, c, tau.as_u64()?))
            })
            .collect()
    }

    fn tle_dec(&mut self, party: PartyId, ct: &Value, tau: u64) -> Option<DecResponse> {
        let request = FrameKind::TleDec {
            ct: ct.clone(),
            tau,
        };
        match self.rpc(party, request) {
            // `Unit` (an unknown ciphertext, ⊥) is not a response encoding.
            Some(FrameKind::TleDecResp(v)) => DecResponse::from_value(&v),
            _ => None,
        }
    }

    fn ro_query(&mut self, party: PartyId, x: &[u8], len: usize) -> Option<Vec<u8>> {
        let request = FrameKind::RoQuery {
            x: x.to_vec(),
            len: len as u64,
        };
        match self.rpc(party, request) {
            // A mask of the wrong length would silently truncate whatever
            // is XORed with it: treat it as no reply.
            Some(FrameKind::RoAnswer(eta)) if eta.len() == len => Some(eta),
            _ => None,
        }
    }
}

/// How a [`NetSbcWorld`] builds its transport from the experiment
/// parameters and seed — the type-level knob that lets the same world be
/// a [`LoopbackSbcWorld`] or a [`SimNetSbcWorld`] behind the one
/// `SbcBackend` registration seam.
pub trait NetProfile: Send + std::fmt::Debug + 'static {
    /// Builds the transport for an instance.
    ///
    /// # Errors
    ///
    /// [`SbcError::Backend`] if the transport cannot be brought up — an
    /// in-process transport never fails, but a socket transport's bind or
    /// connect can.
    fn transport(params: &SbcParams, seed: &[u8]) -> Result<Box<dyn Transport>, SbcError>;
}

/// Zero-latency in-order delivery ([`Loopback`]).
#[derive(Debug)]
pub struct LoopbackProfile;

impl NetProfile for LoopbackProfile {
    fn transport(params: &SbcParams, _seed: &[u8]) -> Result<Box<dyn Transport>, SbcError> {
        Ok(Box::new(Loopback::new(params.n, params.delta)))
    }
}

/// The seeded adversarial schedule ([`SimNet`] under
/// [`SimConfig::adversarial`]). The schedule seed is derived from the
/// instance seed with a domain-separation label, *not* drawn from the
/// world's own stream — the experiment's randomness must stay
/// bit-identical to the in-process world's.
#[derive(Debug)]
pub struct AdversarialProfile;

impl NetProfile for AdversarialProfile {
    fn transport(params: &SbcParams, seed: &[u8]) -> Result<Box<dyn Transport>, SbcError> {
        let mut s = seed.to_vec();
        s.extend_from_slice(b"/net-schedule");
        Ok(Box::new(SimNet::new(
            params.n,
            SimConfig::adversarial(params.delta),
            &s,
        )))
    }
}

/// The networked world over the loopback transport — bit-compatible with
/// the in-process delivery path.
pub type LoopbackSbcWorld = NetSbcWorld<LoopbackProfile>;

/// The networked world over the deterministic adversarial [`SimNet`].
pub type SimNetSbcWorld = NetSbcWorld<AdversarialProfile>;

/// The networked Theorem 2 world: an [`SbcBackend`] whose parties speak
/// only [`Frame`]s over a [`Transport`]. Plugs into `SbcSession`/`SbcPool`
/// via `build_backend::<LoopbackSbcWorld>()` (or `SimNetSbcWorld`), and
/// into `PooledSbcWorld` like any other backend.
#[derive(Debug)]
pub struct NetSbcWorld<P: NetProfile = LoopbackProfile> {
    host: SbcHost,
    /// Experiment parameters (exposed for harness introspection).
    pub params: SbcParams,
    parties: Vec<SbcParty>,
    transport: Box<dyn Transport>,
    /// This period's wires interned by content, sorted by
    /// [`ParsedWire::cmp_payload`] (see [`deliver_wire`](Self::deliver_wire)).
    wires: Vec<Arc<ParsedWire>>,
    /// This round's release rule.
    release: SharedRelease,
    /// The first frame the transport refused (see [`SbcWorld::fault`]).
    fault: Option<String>,
    _profile: PhantomData<P>,
}

impl<P: NetProfile> NetSbcWorld<P> {
    /// Creates the world with the profile's transport.
    ///
    /// # Errors
    ///
    /// [`SbcError::InvalidParams`] if the parameters violate Theorem 2's
    /// constraints; [`SbcError::Backend`] if the profile's transport
    /// cannot be brought up (socket transports only).
    pub fn new(params: SbcParams, seed: &[u8]) -> Result<Self, SbcError> {
        let transport = P::transport(&params, seed)?;
        Self::with_transport(params, seed, transport)
    }

    /// Creates the world over a caller-supplied transport (tests drive
    /// custom [`SimConfig`]s through this).
    ///
    /// # Errors
    ///
    /// [`SbcError::InvalidParams`] if the parameters violate Theorem 2's
    /// constraints.
    pub fn with_transport(
        params: SbcParams,
        seed: &[u8],
        transport: Box<dyn Transport>,
    ) -> Result<Self, SbcError> {
        params.validate()?;
        // Same forks, same order, as every other Theorem 2 backend.
        let (host, parties) = SbcHost::new(params, seed);
        Ok(NetSbcWorld {
            host,
            params,
            parties,
            transport,
            wires: Vec::new(),
            release: SharedRelease::default(),
            fault: None,
            _profile: PhantomData,
        })
    }

    /// The transport's delivery counters (the conformance tests and the
    /// bench read these to prove the chaos schedule actually fired).
    pub fn transport_stats(&self) -> TransportStats {
        self.transport.stats()
    }

    /// The frame link over this world's host and transport.
    fn link(&mut self) -> FrameLink<'_> {
        FrameLink {
            host: &mut self.host,
            transport: self.transport.as_mut(),
            fault: &mut self.fault,
        }
    }

    /// Drains and dispatches the control plane until quiescent. Batches
    /// are buffered before dispatch so a handler's own RPC round trips
    /// (which drain the control queue themselves) cannot steal queued
    /// deliveries.
    fn pump_control(&mut self) {
        loop {
            let batch = self.transport.recv_control();
            if batch.is_empty() {
                return;
            }
            for frame in batch {
                self.dispatch_control(frame);
            }
        }
    }

    /// One queued control frame: to a party, or a party's `Output` to the
    /// environment (posted by the `Tick` arm, dispatched from the next
    /// batch). Host requests are never queued: [`FrameLink::rpc`] answers
    /// them in place.
    fn dispatch_control(&mut self, frame: Frame) {
        match (frame.to, frame.from, frame.kind) {
            (Endpoint::Env, Endpoint::Party(p), FrameKind::Output(v)) => {
                let out = (PartyId(p), Command::new("Broadcast", v));
                self.host.core.outputs.push(out);
            }
            (Endpoint::Party(p), _, kind) => {
                let Some(party) = self.parties.get_mut(p as usize) else {
                    return;
                };
                // The link borrows `host`, `transport` and `fault` only,
                // leaving the addressed party free to be stepped in place.
                let mut link = FrameLink {
                    host: &mut self.host,
                    transport: self.transport.as_mut(),
                    fault: &mut self.fault,
                };
                match kind {
                    FrameKind::Submit(v) => party.on_input(v, &mut link),
                    FrameKind::Tick => {
                        // A party that reuses the round's first release
                        // posts only its own `Output`.
                        let (parties, i) = (&mut self.parties, p as usize);
                        if let Some(cmd) = self.release.advance(parties, i, &mut link) {
                            let out = FrameKind::Output(cmd.value);
                            link.post(Endpoint::Party(p), Endpoint::Env, out);
                        }
                    }
                    FrameKind::Deliver { payload, .. } => party.on_ubc_deliver(&payload, &mut link),
                    _ => {}
                }
            }
            _ => {}
        }
    }

    /// Ships broadcast messages from `origin`, each to every party in id
    /// order, as `Deliver` frames (flush order preserved; the transport
    /// classifies wake-ups as control and wires as data), then runs the
    /// delivery pumps.
    ///
    /// A corrupted origin's wire is the adversary's own: a frame of it the
    /// transport refuses (one over the size cap) is a wire dropped, which
    /// the adversary may do anyway, so it latches no fault and the honest
    /// parties release without it.
    fn deliver(&mut self, origin: u32, msgs: Vec<Value>) {
        let n = self.parties.len() as u32;
        let honest = self.host.core.is_honest(PartyId(origin));
        let mut link = self.link();
        for payload in msgs {
            for to in 0..n {
                let kind = FrameKind::Deliver {
                    origin,
                    payload: payload.clone(),
                };
                if honest {
                    link.post(Endpoint::Host, Endpoint::Party(to), kind);
                } else {
                    let _ = link.send(Endpoint::Host, Endpoint::Party(to), kind);
                }
            }
        }
        self.pump_control();
        // Due data frames go to every party (corrupted recipients
        // included — the in-process world delivers to them too; their
        // state is just never observable again).
        for p in 0..n {
            self.pump_data_for(p);
        }
    }

    /// Delivers the data-plane frames due for one party — each the
    /// recipient's own frame as the transport decoded it, then interned —
    /// by the reception path the in-process world's fan-out takes.
    fn pump_data_for(&mut self, p: u32) {
        let now = self.host.now();
        for frame in self.transport.recv_data(p, now) {
            if let FrameKind::Deliver { payload, .. } = frame.kind {
                self.deliver_wire(p, &payload, now);
            }
        }
    }

    /// Forgets the round's release: when the round ends, and before any
    /// other mutating call (the adversary may act between two `advance`s).
    fn settle(&mut self) {
        self.release = SharedRelease::default();
    }

    /// Hands party `p` the wire `payload` is: the interned `Arc` on full
    /// byte equality of `(c, τ_rel, y)` — so a broadcast is held once per
    /// world and its recipients' logs compare by pointer — a new one on a
    /// miss. Interning comes *after* the party's own period check
    /// and replay dedup: a miss is kept only if its log took it (the log's
    /// clone is the second reference), so no flood grows the table past
    /// the logs. Wire recording is pure: no host link needed.
    fn deliver_wire(&mut self, p: u32, payload: &Value, now: u64) {
        let party = &mut self.parties[p as usize];
        match self.wires.binary_search_by(|w| w.cmp_payload(payload)) {
            Ok(at) => party.on_wire_deliver_parsed(&self.wires[at], now),
            Err(at) => {
                let Some(wire) = ParsedWire::parse(payload).map(Arc::new) else {
                    return;
                };
                party.on_wire_deliver_parsed(&wire, now);
                if Arc::strong_count(&wire) > 1 {
                    self.wires.insert(at, wire);
                }
            }
        }
    }
}

impl<P: NetProfile> World for NetSbcWorld<P> {
    fn n(&self) -> usize {
        self.host.core.n()
    }

    fn time(&self) -> u64 {
        self.host.now()
    }

    fn input(&mut self, party: PartyId, cmd: Command) {
        self.settle();
        if cmd.name != "Broadcast" || !self.host.core.is_honest(party) {
            return;
        }
        let submit = FrameKind::Submit(cmd.value);
        self.link()
            .post(Endpoint::Env, Endpoint::Party(party.0), submit);
        self.pump_control();
    }

    fn advance(&mut self, party: PartyId) {
        if !self.host.core.is_honest(party) {
            return;
        }
        // Due data-plane deliveries land before the round step, so a
        // delayed wire is seen at its scheduled round like the in-process
        // world's in-round delivery.
        self.pump_data_for(party.0);
        self.link()
            .post(Endpoint::Env, Endpoint::Party(party.0), FrameKind::Tick);
        self.pump_control();
        // Host side of the tick: flush this party's UBC pending.
        let msgs = self.host.take_flush(party);
        self.deliver(party.0, msgs);
        if self.host.core.clock.advance_party(party) {
            self.settle();
        }
    }

    fn adversary(&mut self, cmd: AdvCommand) -> Value {
        self.settle();
        match cmd {
            AdvCommand::Corrupt(p) => {
                if !self.host.core.corrupt(p) {
                    return Value::Bool(false);
                }
                self.transport.set_corrupted(p.0);
                Value::list(self.parties[p.index()].pending_messages())
            }
            AdvCommand::SendAs { party, cmd } if cmd.name == "Broadcast" => {
                if let Some(msg) = self.host.broadcast_corrupted(party, cmd.value) {
                    self.deliver(party.0, vec![msg]);
                }
                Value::Unit
            }
            AdvCommand::Control { target, cmd } => self.host.control(&target, &cmd),
            _ => Value::Unit,
        }
    }

    fn drain_outputs(&mut self) -> Vec<(PartyId, Command)> {
        std::mem::take(&mut self.host.core.outputs)
    }

    fn drain_leaks(&mut self) -> Vec<Leak> {
        std::mem::take(&mut self.host.core.leaks)
    }

    fn is_corrupted(&self, party: PartyId) -> bool {
        self.host.core.corr.is_corrupted(party)
    }
}

impl<P: NetProfile> SbcWorld for NetSbcWorld<P> {
    /// Period turnover: parties forget their period state, the host drops
    /// what the functionalities held for it — and the transport's
    /// in-flight frames are flushed, the networked image of the in-process
    /// `clear_pending`, together with the wires interned for the period.
    fn begin_new_period(&mut self) {
        self.settle();
        for p in &mut self.parties {
            p.reset_period();
        }
        self.host.begin_new_period();
        self.transport.clear_in_flight();
        self.wires.clear();
    }

    fn release_round(&self) -> Option<u64> {
        self.parties.iter().find_map(|p| p.tau_rel())
    }

    fn period_end(&self) -> Option<u64> {
        self.parties.iter().find_map(|p| p.t_end())
    }

    /// The first frame the protocol needed and the transport refused,
    /// sticky: a submission, honest wire, reply or output that never
    /// arrived leaves the instance unable to release as its twin would. A
    /// corrupted party's refused wire is no fault, only a dropped wire; a
    /// release the adversary bloats past the cap with valid wires is, and
    /// ends this instance only.
    fn fault(&self) -> Option<&str> {
        self.fault.as_deref()
    }

    /// O(1) join when verifiably idle — including an idle *network*: a
    /// frame still in flight means an idle round is not a pure clock tick.
    fn join_at(&mut self, round: u64) {
        self.settle();
        let idle = self.parties.iter().all(|p| p.is_idle())
            && self.host.is_idle()
            && self.transport.idle();
        if idle {
            self.host.core.clock.fast_forward(round);
        } else {
            sbc_uc::exec::replay_join(self, round);
        }
    }
}

impl<P: NetProfile> SbcBackend for NetSbcWorld<P> {
    fn from_params(params: SbcParams, seed: &[u8]) -> Result<Self, SbcError> {
        NetSbcWorld::new(params, seed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sbc_core::pool::PooledSbcWorld;
    use sbc_core::protocol::{sbc_wire, wire_tau};
    use sbc_core::worlds::{IdealSbcWorld, RealSbcWorld};
    use sbc_primitives::drbg::Drbg;
    use sbc_uc::exec::{CompareLevel, DualRun, PoolWorld};
    use std::sync::Mutex;

    /// `RealSbcWorld` vs `NetSbcWorld<P>` at `CompareLevel::Exact` and at
    /// width: adaptive corruption, an adversarial broadcast through the
    /// corrupted party (`F_TLE` Insert + `F_RO` mask + `SendAs` wire), and a
    /// second epoch over the turned-over period. `tests/net_conformance.rs`
    /// runs the longer schedule at n = 4; the O(n) delivery pumps and the
    /// per-party rpc lanes are what a wider n adds.
    fn exact_against_in_process<P: NetProfile>(n: usize) -> TransportStats {
        let params = SbcParams::default_for(n);
        let seed = b"net-width-gate";
        let real = RealSbcWorld::from_params(params, seed).expect("valid");
        let net = NetSbcWorld::<P>::new(params, seed).expect("valid");
        let mut dual = DualRun::new(real, net, CompareLevel::Exact);
        let mut adv_rng = Drbg::from_seed(b"net-width-gate/adversary");

        dual.submit(PartyId(0), b"gate/a");
        dual.advance_all();
        dual.corrupt(PartyId(1));
        dual.submit(PartyId(2), b"gate/b");
        let tau_rel = dual.release_round().expect("period open");
        let ct = Value::bytes(adv_rng.gen_bytes(64));
        let rho = adv_rng.gen_bytes(32);
        dual.adversary(AdvCommand::Control {
            target: "F_TLE".into(),
            cmd: Command::new(
                "Insert",
                Value::list([ct.clone(), Value::bytes(&rho), Value::U64(tau_rel)]),
            ),
        });
        let m_bytes = Value::bytes(b"gate/evil").encode();
        let (eta, _) = dual.adversary(AdvCommand::Control {
            target: "F_RO".into(),
            cmd: Command::new(
                "QueryBytes",
                Value::list([Value::bytes(&rho), Value::U64(m_bytes.len() as u64)]),
            ),
        });
        let eta = eta.as_bytes().expect("mask is bytes");
        let y: Vec<u8> = m_bytes.iter().zip(eta).map(|(a, b)| a ^ b).collect();
        dual.adversary(AdvCommand::SendAs {
            party: PartyId(1),
            cmd: Command::new("Broadcast", sbc_wire(&ct, tau_rel, &y)),
        });
        dual.idle_rounds(10);
        assert_eq!(dual.finish_epoch().expect("epoch 0 exact"), 0, "n={n}");
        dual.submit(PartyId(0), b"gate/e1");
        dual.idle_rounds(9);
        assert_eq!(dual.finish_epoch().expect("epoch 1 exact"), 1, "n={n}");
        dual.worlds().1.transport_stats()
    }

    #[test]
    fn simnet_exact_against_in_process_at_width() {
        for n in [8, 64] {
            let stats = exact_against_in_process::<AdversarialProfile>(n);
            assert!(
                stats.delayed > 0 && stats.duplicated > 0,
                "chaos schedule fired at n={n}: {stats:?}"
            );
        }
    }

    #[test]
    fn tcp_exact_against_in_process_at_width() {
        let stats = exact_against_in_process::<crate::tcp::TcpProfile>(8);
        assert!(stats.delivered > 0 && stats.bytes > 0, "{stats:?}");
        assert_eq!(stats.decode_errors, 0, "clean framing on every lane");
        assert_eq!(stats.timeouts, 0, "no deadline concessions on loopback");
    }

    /// "Never a panic" at the public `World` interface: a `PartyId`
    /// outside `0..n` is no party. It cannot be corrupted, given input or
    /// advanced, and the stray calls leave nothing behind — no leak, no
    /// clock mark, no spent budget: the world stays `Exact`-equal to a twin
    /// that never saw them.
    fn out_of_range_party_is_ignored<W: SbcBackend>() {
        let params = SbcParams::default_for(3);
        let stray = PartyId(7);
        let mut w = W::from_params(params, b"stray").expect("valid");
        let twin = W::from_params(params, b"stray").expect("valid");

        assert_eq!(w.adversary(AdvCommand::Corrupt(stray)), Value::Bool(false));
        assert!((0..3).chain([7]).all(|p| !w.is_corrupted(PartyId(p))));
        w.input(stray, Command::new("Broadcast", Value::bytes(b"x")));
        w.advance(stray);
        assert!(w.drain_leaks().is_empty() && w.drain_outputs().is_empty());
        assert_eq!(w.time(), 0);

        let mut dual = DualRun::new(w, twin, CompareLevel::Exact);
        dual.submit(PartyId(0), b"m0");
        dual.submit(PartyId(1), b"m1");
        dual.idle_rounds(params.phi + params.delta + 1);
        assert_eq!(dual.finish_epoch().expect("exact"), 0);
        // The budget is whole: t = n − 1 corruptions, not one fewer.
        for p in [0, 1] {
            let (touched, clean) = dual.corrupt(PartyId(p));
            assert!(touched.as_list().is_some() && touched == clean);
        }
        let refused = (Value::Bool(false), Value::Bool(false));
        assert_eq!(dual.corrupt(PartyId(2)), refused);
        dual.check().expect("exact");
        let (touched, _) = dual.into_transcripts();
        assert_eq!(touched.outputs().len(), 3, "the period released");

        // The pool decides by the same tracker, before any instance exists:
        // out of range, fresh, already corrupted, fresh, over t ≤ n − 1.
        let mut pool = PooledSbcWorld::<W>::new(params, b"stray").expect("valid");
        for (p, accepted) in [(7, false), (0, true), (0, false), (1, true), (2, false)] {
            assert_eq!(pool.corrupt(PartyId(p)).is_some(), accepted, "P{p}");
        }
        let id = pool.open_instance().expect("opens");
        let inherited = pool.instance_world(id).expect("live");
        let corrupted = [0, 1, 2, 7].map(|p| inherited.is_corrupted(PartyId(p)));
        assert_eq!(corrupted, [true, true, false, false]);
    }

    #[test]
    fn out_of_range_party_is_ignored_by_every_world() {
        out_of_range_party_is_ignored::<RealSbcWorld>();
        out_of_range_party_is_ignored::<IdealSbcWorld>();
        out_of_range_party_is_ignored::<LoopbackSbcWorld>();
    }

    #[test]
    fn loopback_world_runs_a_period_end_to_end() {
        let params = SbcParams::default_for(3);
        let mut w = LoopbackSbcWorld::new(params, b"net-seed").expect("valid params");
        w.input(PartyId(0), Command::new("Broadcast", Value::bytes(b"m0")));
        for _ in 0..(params.phi + params.delta + 2) {
            w.tick();
        }
        let outs = w.drain_outputs();
        assert_eq!(outs.len(), 3, "every party outputs at τ_rel");
        for (_, cmd) in &outs {
            assert_eq!(cmd.value.as_list().map(<[Value]>::len), Some(1));
        }
        // Everything that moved, moved as frames.
        let stats = w.transport_stats();
        assert!(stats.sent > 0 && stats.delivered > 0 && stats.bytes > 0);
        assert_eq!(stats.decode_errors, 0);
    }

    #[test]
    fn wrong_length_oracle_answer_is_no_answer() {
        // A mask shorter than asked for must not be XORed in (it would
        // silently truncate the cast wire or the released message): the
        // entry it belongs to is skipped, every other entry releases.
        let params = SbcParams::default_for(3);
        let msgs = [&b"aa"[..], b"bbbb", b"cc"];
        let cut_len = Value::bytes(msgs[1]).encode().len();
        let tau_rel = params.phi + params.delta;
        // Tampered from the start (the sender never gets to cast) and only
        // at the release round (every party skips the entry on release).
        for from_round in [0, tau_rel] {
            // Every `RoAnswer` of `cut_len` bytes loses its last byte.
            let (mut w, _) = tapped_world(params, b"short", move |mut frame| {
                if let FrameKind::RoAnswer(eta) = &mut frame.kind {
                    if frame.sent_at >= from_round && eta.len() == cut_len {
                        eta.pop();
                    }
                }
                Some(frame)
            });
            for (i, m) in msgs.iter().enumerate() {
                w.input(
                    PartyId(i as u32),
                    Command::new("Broadcast", Value::bytes(m)),
                );
            }
            for _ in 0..=tau_rel {
                w.tick();
            }
            let outs = w.drain_outputs();
            assert_eq!(outs.len(), 3, "from round {from_round}");
            for (_, cmd) in &outs {
                assert_eq!(
                    cmd.value.as_list(),
                    Some(&[Value::bytes(msgs[0]), Value::bytes(msgs[2])][..]),
                    "from round {from_round}"
                );
            }
        }
    }

    /// The `F_TLE` `Insert` of the record `ct → rho` towards `tau`.
    fn insert(ct: &Value, rho: &[u8], tau: u64) -> AdvCommand {
        AdvCommand::Control {
            target: "F_TLE".into(),
            cmd: Command::new(
                "Insert",
                Value::list([ct.clone(), Value::bytes(rho), Value::U64(tau)]),
            ),
        }
    }

    /// The wire on which `msg` rides `ct` under the mask `H(rho)`, asked
    /// of `F_RO` through the adversary interface `adv`.
    fn masked_wire(
        adv: &mut dyn FnMut(AdvCommand) -> Value,
        ct: &Value,
        rho: &[u8],
        tau: u64,
        msg: &[u8],
    ) -> Value {
        let m_bytes = Value::bytes(msg).encode();
        let eta = adv(AdvCommand::Control {
            target: "F_RO".into(),
            cmd: Command::new(
                "QueryBytes",
                Value::list([Value::bytes(rho), Value::U64(m_bytes.len() as u64)]),
            ),
        });
        let eta = eta.as_bytes().expect("mask is bytes");
        let y: Vec<u8> = m_bytes.iter().zip(eta).map(|(a, b)| a ^ b).collect();
        sbc_wire(ct, tau, &y)
    }

    fn send_as(party: u32, wire: &Value) -> AdvCommand {
        AdvCommand::SendAs {
            party: PartyId(party),
            cmd: Command::new("Broadcast", wire.clone()),
        }
    }

    /// Content interning under the adversarial net: however many delayed,
    /// duplicated and re-ordered copies of a broadcast arrive, all `n`
    /// logs end up holding the one `Arc` the table holds; wires no log can
    /// hold never enter the table; the table dies with the period.
    #[test]
    fn one_broadcast_is_one_arc_whatever_the_net_does() {
        let n = 4;
        let params = SbcParams::default_for(n);
        let mut w = SimNetSbcWorld::new(params, b"intern").expect("valid");
        for p in 0..n as u32 {
            w.submit(PartyId(p), format!("m{p}").as_bytes());
        }
        w.tick(); // wake-up
        w.tick(); // every party casts its wire
        let (tau, t_end) = (
            w.release_round().expect("open"),
            w.period_end().expect("open"),
        );
        // 1 000 wires towards the wrong τ_rel, mid-period …
        w.adversary(AdvCommand::Corrupt(PartyId(3)));
        let junk = |i: u64, tau| sbc_wire(&Value::bytes(i.to_be_bytes()), tau, &[7; 8]);
        for i in 0..1000 {
            w.adversary(send_as(3, &junk(i, tau + 1)));
        }
        while w.time() < t_end {
            w.tick();
        }
        // … and the right one at `Cl ≥ t_end`: out of period either way.
        for i in 0..100 {
            w.adversary(send_as(3, &junk(i, tau)));
        }
        let s = w.transport_stats();
        assert!(
            s.delayed > 0 && s.duplicated > 0 && s.reordered > 0,
            "{s:?}"
        );
        // One entry per broadcast — P3 cast before it was corrupted — each
        // referenced by the table and by every one of the n logs (a log
        // holds a wire at most once), i.e. `Arc::ptr_eq` across recipients.
        let refs: Vec<usize> = w.wires.iter().map(Arc::strong_count).collect();
        assert_eq!(refs, vec![n + 1; n]);
        while w.time() <= tau {
            w.tick();
        }
        assert_eq!(w.drain_outputs().len(), n - 1);
        w.begin_new_period();
        assert!(w.wires.is_empty());
    }

    /// Wires that agree in one or two of `(c, τ_rel, y)` are different
    /// wires to the table, and the parties' replay dedup decides them as it
    /// does in process: `Exact` against `RealSbcWorld`, end to end.
    #[test]
    fn near_collisions_are_told_apart_and_deduplicated_as_in_process() {
        let params = SbcParams::default_for(3);
        let real = RealSbcWorld::from_params(params, b"collide").expect("valid");
        let net = LoopbackSbcWorld::new(params, b"collide").expect("valid");
        let mut dual = DualRun::new(real, net, CompareLevel::Exact);
        dual.submit(PartyId(0), b"honest");
        dual.advance_all();
        dual.corrupt(PartyId(2));
        let tau = dual.release_round().expect("period open");
        let (c1, c2) = (Value::bytes([1; 64]), Value::bytes([2; 64]));
        let mut adv = |cmd| dual.adversary(cmd).1;
        adv(insert(&c1, &[1; 32], tau));
        adv(insert(&c2, &[2; 32], tau));
        let a = masked_wire(&mut adv, &c1, &[1; 32], tau, b"A");
        let e = masked_wire(&mut adv, &c2, &[2; 32], tau, b"E");
        let y = |wire: &Value| ParsedWire::parse(wire).expect("a wire").y;
        let replays = [
            a.clone(),                      // all three equal: the same wire
            sbc_wire(&c1, tau, &y(&e)),     // equal c, different y
            sbc_wire(&c2, tau, &y(&a)),     // equal y, different c
            sbc_wire(&c1, tau + 1, &y(&a)), // equal c and y, different τ
        ];
        for wire in [&a].into_iter().chain(&replays).chain([&e]) {
            dual.adversary(send_as(2, wire));
        }
        dual.idle_rounds(tau);
        assert_eq!(dual.finish_epoch().expect("exact"), 0);
        // The honest wire, `a` and `e`: what the logs hold.
        let (real, net) = dual.into_transcripts();
        let outs = net.outputs();
        let msgs = [b"A".as_slice(), b"E", b"honest"].map(Value::bytes);
        assert_eq!(outs.len(), 2);
        assert_eq!(outs[0].2.value.as_list(), Some(&msgs[..]));
        assert_eq!(real.outputs(), outs);
    }

    /// The in-process world stepped by bare `advance` calls in party-id
    /// order, and an identically seeded networked world stepped by `tick`,
    /// compared after every round: clock, outputs and leaks.
    struct SchedulePair<P: NetProfile> {
        reference: RealSbcWorld,
        ticked: NetSbcWorld<P>,
    }

    impl<P: NetProfile> SchedulePair<P> {
        fn new(params: SbcParams, seed: &[u8]) -> Self {
            SchedulePair {
                reference: RealSbcWorld::new(params, seed),
                ticked: NetSbcWorld::new(params, seed).expect("valid"),
            }
        }

        fn both(&mut self, f: impl Fn(&mut dyn SbcWorld)) {
            f(&mut self.reference);
            f(&mut self.ticked);
        }

        fn submit(&mut self, party: usize, msg: &[u8]) {
            self.both(|w| w.submit(PartyId(party as u32), msg));
        }

        fn adversary(&mut self, cmd: AdvCommand) {
            self.both(|w| {
                w.adversary(cmd.clone());
            });
        }

        /// One round in each schedule; returns the round's outputs.
        fn round(&mut self) -> Vec<(PartyId, Command)> {
            for i in 0..self.reference.n() {
                self.reference.advance(PartyId(i as u32));
            }
            self.ticked.tick();
            assert_eq!(self.reference.time(), self.ticked.time(), "clocks");
            let outs = self.reference.drain_outputs();
            assert_eq!(outs, self.ticked.drain_outputs(), "outputs");
            assert_eq!(
                self.reference.drain_leaks(),
                self.ticked.drain_leaks(),
                "leaks"
            );
            outs
        }

        fn rounds(&mut self, k: usize) -> Vec<(PartyId, Command)> {
            (0..k).flat_map(|_| self.round()).collect()
        }
    }

    /// An adversarial wire whose ciphertext `F_TLE` never saw (⊥ at
    /// release), claiming release time `tau`.
    fn foreign_wire(tau: u64) -> Value {
        sbc_wire(&Value::bytes([7u8; 48]), tau, &[9u8; 16])
    }

    /// `NetSbcWorld<P>::tick` is `RealSbcWorld`'s bare per-party `advance`
    /// loop, bit for bit, every round. The first shape is two epochs under
    /// a mid-period corruption and an accepted adversarial wire; with
    /// `every_shape`, four more follow.
    fn tick_matches_loop<P: NetProfile>(p: SbcParams, every_shape: bool) {
        let (n, last) = (p.n, p.n - 1);
        let corrupt = |party: usize| AdvCommand::Corrupt(PartyId(party as u32));

        let mut epochs = SchedulePair::<P>::new(p, b"tick-equiv");
        for epoch in 0..2 {
            epochs.submit(0, b"alpha");
            epochs.submit(n / 2, b"bravo");
            epochs.round();
            if epoch == 0 {
                epochs.adversary(corrupt(last));
                let tau = epochs.ticked.release_round().expect("period open");
                epochs.adversary(send_as(last as u32, &foreign_wire(tau)));
            }
            let outs = epochs.rounds(10);
            assert!(!outs.is_empty(), "n={n}: epoch {epoch} released");
            epochs.both(|w| w.begin_new_period());
        }
        if !every_shape {
            return;
        }

        // Party 0 corrupted before the first round: the first honest
        // party — the one whose release the others reuse — is not 0.
        let mut s = SchedulePair::<P>::new(p, b"tick-equiv/p0");
        s.adversary(corrupt(0));
        s.submit(1, b"charlie");
        s.submit(last, b"delta");
        let outs = s.rounds(10);
        assert_eq!(outs.len(), n - 1, "n={n}: every honest party released");
        assert_eq!(outs[0].0, PartyId(1));

        // A sender corrupted mid-period after it has broadcast: its
        // wire stays in every log and its message is released.
        let mut s = SchedulePair::<P>::new(p, b"tick-equiv/sender");
        s.submit(0, b"echo");
        s.submit(last, b"foxtrot");
        s.rounds(2); // wake-up, then the wires go out
        s.adversary(corrupt(0));
        let outs = s.rounds(8);
        assert_eq!(outs.len(), n - 1);
        assert_eq!(
            outs[0].1.value.as_list().map(<[Value]>::len),
            Some(2),
            "n={n}: the corrupted sender's message is still released"
        );

        // Wires every recipient must discard identically: a wrong
        // τ_rel, and a right one delivered at Cl ≥ t_end.
        let mut s = SchedulePair::<P>::new(p, b"tick-equiv/discard");
        s.submit(0, b"golf");
        s.round();
        s.adversary(corrupt(last));
        let tau = s.ticked.release_round().expect("period open");
        let t_end = s.ticked.period_end().expect("period open");
        s.adversary(send_as(last as u32, &foreign_wire(tau + 1)));
        while s.ticked.time() < t_end {
            s.round();
        }
        s.adversary(send_as(last as u32, &foreign_wire(tau)));
        let outs = s.rounds(8);
        assert_eq!(outs.len(), n - 1);
        for (_, cmd) in &outs {
            assert_eq!(cmd.value.as_list(), Some(&[Value::bytes(b"golf")][..]));
        }

        // Rounds entered mid-round (one party already advanced by hand),
        // on broadcast rounds and on the release round alike.
        let mut s = SchedulePair::<P>::new(p, b"tick-equiv/mid-round");
        s.submit(0, b"hotel");
        s.submit(last, b"india");
        let mut outs = Vec::new();
        for round in 0..10 {
            if round % 2 == 1 {
                s.both(|w| w.advance(PartyId((round % n) as u32)));
            }
            outs.extend(s.round());
        }
        assert_eq!(outs.len(), n, "n={n}: released mid-round");
    }

    /// On loopback at n = 6 and at `tle_delay = 0` — and the first shape
    /// at n = 256, the width `auction_wide` runs.
    #[test]
    fn tick_matches_per_party_advance_loop() {
        tick_matches_loop::<LoopbackProfile>(SbcParams::default_for(256), false);
        let zero_delay = SbcParams {
            tle_delay: 0,
            ..SbcParams::default_for(3)
        };
        for p in [SbcParams::default_for(6), zero_delay] {
            tick_matches_loop::<LoopbackProfile>(p, true);
        }
    }

    #[test]
    fn tick_matches_per_party_advance_loop_on_loopback_and_simnet() {
        for n in [2, 8, 64] {
            let p = SbcParams::default_for(n);
            tick_matches_loop::<LoopbackProfile>(p, true);
            tick_matches_loop::<AdversarialProfile>(p, true);
        }
    }

    /// A loopback that hands `tap` every frame on its way in: `None`
    /// swallows the frame, `Some` forwards its canonical encoding.
    struct Tap<F> {
        inner: Loopback,
        tap: F,
    }

    impl<F> std::fmt::Debug for Tap<F> {
        fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
            self.inner.fmt(f)
        }
    }

    impl<F: FnMut(Frame) -> Option<Frame> + Send> Transport for Tap<F> {
        fn send(&mut self, bytes: Vec<u8>, now: u64) -> Result<(), crate::codec::NetError> {
            match Frame::decode(&bytes).map(&mut self.tap) {
                Ok(None) => Ok(()),
                Ok(Some(frame)) => self.inner.send(frame.encode(), now),
                Err(_) => self.inner.send(bytes, now),
            }
        }
        fn recv_control(&mut self) -> Vec<Frame> {
            self.inner.recv_control()
        }
        fn recv_rpc(&mut self, party: u32) -> Vec<Frame> {
            self.inner.recv_rpc(party)
        }
        fn recv_data(&mut self, party: u32, now: u64) -> Vec<Frame> {
            self.inner.recv_data(party, now)
        }
        fn set_corrupted(&mut self, party: u32) {
            self.inner.set_corrupted(party)
        }
        fn clear_in_flight(&mut self) {
            self.inner.clear_in_flight()
        }
        fn idle(&self) -> bool {
            self.inner.idle()
        }
        fn stats(&self) -> TransportStats {
            self.inner.stats()
        }
    }

    /// A loopback world over `Tap`, and the frames the tap forwarded.
    fn tapped_world(
        params: SbcParams,
        seed: &[u8],
        mut tap: impl FnMut(Frame) -> Option<Frame> + Send + 'static,
    ) -> (LoopbackSbcWorld, Arc<Mutex<Vec<Frame>>>) {
        let seen = Arc::new(Mutex::new(Vec::new()));
        let log = Arc::clone(&seen);
        let tap = move |frame| {
            let kept = tap(frame);
            if let Some(frame) = &kept {
                log.lock().expect("tap log").push(frame.clone());
            }
            kept
        };
        let inner = Loopback::new(params.n, params.delta);
        let transport = Box::new(Tap { inner, tap });
        let w = LoopbackSbcWorld::with_transport(params, seed, transport).expect("valid");
        (w, seen)
    }

    /// How many frames of each request / output kind were sent in round
    /// `round`: `[TleDec, RoQuery, Output]`.
    fn release_frames(seen: &Mutex<Vec<Frame>>, round: u64) -> [usize; 3] {
        let seen = seen.lock().expect("tap log");
        let count = |is: fn(&FrameKind) -> bool| {
            let in_round = seen.iter().filter(|f| f.sent_at == round);
            in_round.filter(|f| is(&f.kind)).count()
        };
        [
            count(|k| matches!(k, FrameKind::TleDec { .. })),
            count(|k| matches!(k, FrameKind::RoQuery { .. })),
            count(|k| matches!(k, FrameKind::Output(_))),
        ]
    }

    /// The frame count, pinned where the world lives: however the round
    /// is driven (`tick`, or bare `advance` calls in reverse id order),
    /// the release round costs one `TleDec` + `RoQuery` per wire — not per
    /// wire per party — and one `Output` per party; and an instance of
    /// `bulk_loopback`'s shape costs exactly the frames and bytes the
    /// benchmark ladder reports as `net.world.frames_per_sub` = 19.71875
    /// and `net.world.wire_bytes_per_sub` = 84 393.03125, times its 64
    /// submissions.
    #[test]
    fn release_round_frames_are_per_wire_not_per_party() {
        type Drive = fn(&mut LoopbackSbcWorld);
        let tick: Drive = |w| w.tick();
        let advance_in_reverse: Drive = |w| {
            for p in (0..w.n() as u32).rev() {
                w.advance(PartyId(p));
            }
        };
        let run = |drive: Drive, n: usize, k: usize, payload_len: usize| {
            let params = SbcParams::default_for(n);
            let (mut w, seen) = tapped_world(params, b"tapped", Some);
            for i in 0..k {
                w.submit(PartyId((i % n) as u32), &vec![i as u8; payload_len]);
            }
            let tau = params.phi + params.delta;
            for _ in 0..=tau {
                drive(&mut w);
            }
            assert_eq!(w.drain_outputs().len(), n);
            assert_eq!(release_frames(&seen, tau), [k, k, n], "n={n} k={k}");
            w.transport_stats()
        };
        for n in [4, 8, 16] {
            run(tick, n, 2 * n + 1, 32);
            run(advance_in_reverse, n, 2 * n + 1, 32);
        }
        let stats = run(tick, 8, 64, 4096);
        assert_eq!((stats.sent, stats.bytes), (1262, 5_401_154));
    }

    /// Sharing is guarded per party by its own log: a recipient one
    /// `Deliver` short releases alone, over its own request frames, and
    /// without the message it never received; the others share.
    #[test]
    fn a_party_with_a_different_log_releases_alone() {
        let params = SbcParams::default_for(4);
        let victim = 2;
        let mut dropped = false;
        // The first wire delivery to the victim is swallowed.
        let (mut w, seen) = tapped_world(params, b"tapped", move |f| {
            let wire = matches!(&f.kind, FrameKind::Deliver { payload, .. }
                if wire_tau(payload).is_some());
            let hit = wire && f.to == Endpoint::Party(victim) && !dropped;
            dropped |= hit;
            (!hit).then_some(f)
        });
        for (p, m) in [(0, b"m0"), (1, b"m1"), (3, b"m3")] {
            w.submit(PartyId(p), m);
        }
        let tau = params.phi + params.delta;
        for _ in 0..=tau {
            w.tick();
        }
        let all = [b"m0", b"m1", b"m3"].map(Value::bytes);
        for (party, cmd) in w.drain_outputs() {
            let expected = if party.0 == victim {
                &all[1..]
            } else {
                &all[..]
            };
            assert_eq!(cmd.value.as_list(), Some(expected), "{party:?}");
        }
        // P0 opens three wires, the victim its two; P1 and P3 none.
        assert_eq!(release_frames(&seen, tau), [5, 5, 4]);
    }

    /// Sharing never crosses an adversary action: an `F_TLE` `Insert`
    /// between two parties' steps of the release round is seen by the
    /// later one — `Exact` against `RealSbcWorld` driven the same way.
    #[test]
    fn an_insert_between_two_advances_is_seen_by_the_later_release() {
        let params = SbcParams::default_for(3);
        let real = RealSbcWorld::from_params(params, b"late-insert").expect("valid");
        let net = LoopbackSbcWorld::new(params, b"late-insert").expect("valid");
        let mut dual = DualRun::new(real, net, CompareLevel::Exact);
        dual.submit(PartyId(0), b"honest");
        dual.advance_all();
        dual.corrupt(PartyId(2));
        let tau = dual.release_round().expect("period open");
        // In every log from now on, but ⊥ to `F_TLE` until inserted.
        let (ct, rho) = (Value::bytes([5; 64]), [6; 32]);
        let wire = masked_wire(&mut |cmd| dual.adversary(cmd).1, &ct, &rho, tau, b"late");
        dual.adversary(send_as(2, &wire));
        dual.idle_rounds(tau - 1);
        dual.script(|env| env.advance(PartyId(0)));
        dual.adversary(insert(&ct, &rho, tau));
        dual.script(|env| env.advance(PartyId(1)));
        dual.check().expect("exact");
        let (real, net) = dual.into_transcripts();
        let outs = net.outputs();
        let (honest, late) = (Value::bytes(b"honest"), Value::bytes(b"late"));
        assert_eq!(outs[0].2.value.as_list(), Some(&[honest.clone()][..]));
        assert_eq!(outs[1].2.value.as_list(), Some(&[honest, late][..]));
        assert_eq!(real.outputs(), outs);
    }

    /// A frame over `MAX_FRAME` cannot cross, so its instance can never
    /// release as the in-process one does: the service's tick says so
    /// once, naming the instance and its tickets, within Φ + ∆ + 1 ticks,
    /// instead of ticking a wedged instance without end. Ticks the service
    /// until then and returns the error's instance, tickets and detail.
    fn tick_until_undeliverable(
        service: &mut sbc_service::SbcService<LoopbackSbcWorld>,
    ) -> (u64, Vec<u64>, String) {
        let params = service.config().params;
        let budget = params.phi + params.delta + 1;
        for _ in 0..budget {
            match service.tick() {
                Ok(()) => {}
                Err(sbc_service::ServiceError::Undeliverable {
                    instance,
                    tickets,
                    detail,
                }) => return (instance, tickets, detail),
                Err(e) => panic!("{e}"),
            }
        }
        panic!("{} live, no error after {budget} ticks", service.live());
    }

    /// The fault ends its own instance only: a second instance, opened
    /// beside it, still releases, every later tick succeeds, and the
    /// journal that recorded the fault restores.
    #[test]
    fn an_oversize_submission_frame_drops_only_its_instance() {
        use sbc_service::{DeadlineClass, SbcService, ServiceConfig, ServiceMode};
        let cfg = ServiceConfig::new(2, ServiceMode::Beacon)
            .seed(b"big")
            .batch_size(1);
        let mut service = SbcService::<LoopbackSbcWorld>::new(cfg).expect("valid");
        for payload in [vec![7; 17 << 20], b"small".to_vec()] {
            let queued = service.submit(0, payload, DeadlineClass::Interactive);
            queued.expect("queued");
        }
        let (instance, tickets, detail) = tick_until_undeliverable(&mut service);
        assert_eq!((instance, tickets), (0, vec![0]));
        assert!(detail.starts_with("frame env → party/0 in round 0: frame claims"));
        let released = service.shutdown().expect("the other instance drains");
        let [record] = &released[..] else {
            panic!("{released:?}");
        };
        assert_eq!((record.instance, &record.tickets), (1, &vec![1]));
        assert_eq!(record.messages, [b"small".to_vec()]);
        assert_eq!(service.footprint(), Default::default());
        service.tick().expect("a later tick");
        let image = service.snapshot().expect("snapshot");
        let restored = SbcService::<LoopbackSbcWorld>::restore(&image).expect("restore");
        assert_eq!(restored.round(), service.round());
    }

    /// Each 9 MiB submission fits a frame; the 18 MiB release vector
    /// does not (about 2 s in a debug build: the masks cover 18 MiB).
    #[test]
    fn an_oversize_output_frame_is_a_typed_error() {
        use sbc_service::{DeadlineClass, SbcService, ServiceConfig, ServiceMode};
        let cfg = ServiceConfig::new(2, ServiceMode::Beacon).seed(b"big");
        let mut service = SbcService::<LoopbackSbcWorld>::new(cfg).expect("valid");
        for _ in 0..2 {
            let queued = service.submit(0, vec![7; 9 << 20], DeadlineClass::Interactive);
            queued.expect("queued");
        }
        let (instance, tickets, detail) = tick_until_undeliverable(&mut service);
        assert_eq!((instance, tickets), (0, vec![0, 1]));
        assert!(detail.starts_with("frame party/0 → env"), "{detail}");
        assert_eq!(service.live(), 0);
        service.tick().expect("the fault was reported once");
    }

    /// A corrupted party's wire over `MAX_FRAME` is the adversary's to
    /// lose, not a fault: it is dropped like any corrupted wire, and both
    /// the honest party of that instance and another instance release.
    #[test]
    fn an_oversize_corrupted_wire_is_dropped_not_a_fault() {
        let mut pool = sbc_core::pool::SbcPool::builder(3)
            .seed(b"big-wire")
            .corrupt(&[2])
            .build_backend::<LoopbackSbcWorld>()
            .expect("valid");
        let (a, b) = (pool.open_instance().unwrap(), pool.open_instance().unwrap());
        pool.submit(a, 0, b"a0").unwrap();
        pool.submit(b, 1, b"b1").unwrap();
        pool.step_round().expect("no fault");
        pool.send_as(a, 2, Value::bytes(vec![0; 17 << 20])).unwrap();
        assert_eq!(pool.run_to_completion(a).unwrap().messages, [b"a0"]);
        assert_eq!(pool.run_to_completion(b).unwrap().messages, [b"b1"]);
    }

    /// A pool confines a fault to its instance: driving another instance
    /// steps past it, and the faulted one, retired, answers every later
    /// call naming it with the same error.
    #[test]
    fn a_pool_fault_retires_its_instance_and_steps_on() {
        let mut pool = sbc_core::pool::SbcPool::builder(2)
            .seed(b"big-pool")
            .build_backend::<LoopbackSbcWorld>()
            .expect("valid");
        let (a, b) = (pool.open_instance().unwrap(), pool.open_instance().unwrap());
        pool.submit(a, 0, &vec![7; 17 << 20]).unwrap();
        pool.submit(b, 0, b"b0").unwrap();
        assert_eq!(pool.run_to_completion(b).unwrap().messages, [b"b0"]);
        assert_eq!(pool.live_instances(), [b]);
        let err = pool.epoch(a).unwrap_err();
        assert!(
            matches!(&err, SbcError::Undeliverable { instance: 0, .. }),
            "{err}"
        );
        assert_eq!(pool.run_to_completion(a).unwrap_err(), err);
        pool.prune(a).expect("retired");
    }

    #[test]
    fn simnet_world_same_outputs_as_loopback() {
        let params = SbcParams::default_for(4);
        let mut loopback = LoopbackSbcWorld::new(params, b"seed-x").expect("valid");
        let mut simnet = SimNetSbcWorld::new(params, b"seed-x").expect("valid");
        let drive = |w: &mut dyn SbcWorld| {
            w.input(PartyId(0), Command::new("Broadcast", Value::bytes(b"a")));
            w.tick();
            w.input(PartyId(1), Command::new("Broadcast", Value::bytes(b"b")));
            w.input(PartyId(2), Command::new("Broadcast", Value::bytes(b"c")));
            for _ in 0..(params.phi + params.delta + 2) {
                w.tick();
            }
            w.drain_outputs()
        };
        let a = drive(&mut loopback);
        let b = drive(&mut simnet);
        assert_eq!(a, b);
        let s = simnet.transport_stats();
        assert!(s.delayed > 0 || s.duplicated > 0, "chaos fired: {s:?}");
    }
}
