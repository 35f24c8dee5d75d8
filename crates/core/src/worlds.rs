//! Real and ideal worlds for simultaneous broadcast (Theorem 2).
//!
//! * [`RealSbcWorld`] — parties run `Π_SBC` (Fig. 14) over the ideal
//!   `F_UBC`, the ideal `F_TLE(leak, delay)`, `F_RO` and `G_clock` —
//!   exactly Theorem 2's hybrid model.
//! * [`IdealSbcWorld`] — dummy parties talk to `F_SBC(Φ, ∆, α)` with
//!   `α = max(leak(Cl) − Cl) + 1`, and the simulator [`SimSbc`] of the
//!   Theorem 2 proof shows the adversary the hybrid model. What it **runs**
//!   is the same [`SbcHost`] the real world runs — `F_UBC`, `F_TLE`, `F_RO`
//!   and the adversary's control interface to them, so every hybrid leak,
//!   tag and `Leakage` answer comes out of the functionalities themselves.
//!   What it **simulates** is the honest parties' data, which it never
//!   sees: per broadcast it knows `|M|` only, so it encrypts its own `ρ`,
//!   casts `(c, τ_rel, y)` with a random `y`, and — upon receiving the
//!   broadcast list at `t_end + ∆ − α` — equivocates `F_RO` so that every
//!   `y` opens to the right message.
//!
//! Comparison level: shape equality of full transcripts plus exact
//! equality of all party outputs (the delivered message vectors and their
//! rounds) and of the `F_TLE` leakage responses.

use crate::error::SbcError;
use crate::func::SbcFunc;
use crate::protocol::{is_wake_up, sbc_wire, wake_up, ParsedWire, SbcHybrid, SbcParty};
use sbc_broadcast::ubc::func::UbcFunc;
use sbc_primitives::drbg::Drbg;
use sbc_tle::func::{DecResponse, TleFunc};
use sbc_uc::exec::SbcWorld;
use sbc_uc::ids::{PartyId, Tag};
use sbc_uc::ro::{Caller, RandomOracle};
use sbc_uc::value::{Command, Value};
use sbc_uc::world::{AdvCommand, Leak, World, WorldCore};
use std::sync::Arc;

/// An [`SbcWorld`] backend constructible from experiment parameters — what
/// [`SbcSessionBuilder::build_backend`](crate::api::SbcSessionBuilder::build_backend)
/// plugs into the session layer. Implemented by [`RealSbcWorld`] (Theorem
/// 2's hybrid world), [`IdealSbcWorld`] (`F_SBC` + `S_SBC`) and the
/// networked worlds of `sbc-net`: a backend is this pair of traits.
///
/// Backends are `Send` (inherited from [`SbcWorld`]): nothing in this crate
/// moves one across threads, but an embedder may move a whole pool or
/// service, so a backend's state must be movable.
pub trait SbcBackend: SbcWorld + Sized {
    /// Creates the backend.
    ///
    /// # Errors
    ///
    /// [`SbcError::InvalidParams`] if the parameters violate Theorem 2's
    /// constraints.
    fn from_params(params: SbcParams, seed: &[u8]) -> Result<Self, SbcError>;
}

/// Parameters of an SBC experiment instance.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SbcParams {
    /// Number of parties.
    pub n: usize,
    /// Broadcast period span Φ.
    pub phi: u64,
    /// Delivery delay ∆ (must exceed the TLE leakage advantage).
    pub delta: u64,
    /// TLE leakage advantage α_TLE (`leak(Cl) = Cl + α_TLE`).
    pub tle_alpha: u64,
    /// TLE ciphertext-generation delay.
    pub tle_delay: u64,
}

impl SbcParams {
    /// The default Theorem 2 instantiation over the ideal `F_TLE`:
    /// `Φ = 3, ∆ = 2, α_TLE = 1, delay = 1` (so `α_SBC = 2`).
    pub fn default_for(n: usize) -> Self {
        SbcParams {
            n,
            phi: 3,
            delta: 2,
            tle_alpha: 1,
            tle_delay: 1,
        }
    }

    /// The SBC simulator advantage `α = max(leak(Cl) − Cl) + 1`.
    pub fn sbc_alpha(&self) -> u64 {
        self.tle_alpha + 1
    }

    /// Validates Theorem 2's constraints, and bounds Φ and ∆ so that
    /// release arithmetic (`now + Φ + ∆`, round budgets) cannot overflow;
    /// `delay < Φ` and `α_TLE < ∆` then bound the other two fields. `n`
    /// stays within the `u32` party ids, or `PartyId::all(n)` would wrap.
    ///
    /// # Errors
    ///
    /// [`SbcError::InvalidParams`] naming the violated constraint.
    pub fn validate(&self) -> Result<(), SbcError> {
        const MAX_SPAN: u64 = u32::MAX as u64;
        let fail = |reason| Err(SbcError::InvalidParams { reason });
        if self.n == 0 {
            return fail("need at least one party");
        }
        if self.n > u32::MAX as usize {
            return fail("need n ≤ 2³² − 1");
        }
        if self.phi > MAX_SPAN || self.delta > MAX_SPAN {
            return fail("need Φ, ∆ ≤ 2³² − 1");
        }
        if self.phi <= self.tle_delay {
            return fail("need Φ > delay");
        }
        if self.delta <= self.tle_alpha {
            return fail("need ∆ > max(leak(Cl) − Cl)");
        }
        Ok(())
    }
}

/// The streams [`SbcHost::fork`] forks for whoever sits next to the host.
/// The real worlds build their parties from `parties` and drop the rest;
/// [`IdealSbcWorld`] uses all three.
struct SideStreams {
    /// `F_SBC` tag stream (ideal world only).
    sbc_tags: Drbg,
    /// Per-party `ρ` streams, party-id order.
    parties: Vec<Drbg>,
    /// The simulator's equivocation stream (ideal world only).
    equiv: Drbg,
}

/// The hybrid functionalities of Theorem 2's real world as one owned
/// bundle: `G_clock`, the corruption set and the leak/output buffers (in
/// [`core`](SbcHost::core)), `F_UBC`, `F_TLE` and `F_RO`.
///
/// Every real-functionality backend holds one of these next to its
/// `Vec<SbcParty>`, and [`IdealSbcWorld`] holds one for its simulator to
/// run. The parties reach it only through [`SbcHybrid`] —
/// [`RealSbcWorld`] by handing the host itself to the party (a direct,
/// statically dispatched call), the networked world by decoding each
/// request frame and calling the same six methods, [`SimSbc`] by making
/// the calls its simulated parties would — so the functionalities are
/// touched identically whoever drives them. The adversary's
/// functionality-control interface, the period turnover and the idle check
/// live here for the same reason.
#[derive(Debug)]
pub struct SbcHost {
    /// Clock, corruption state, and the leak and output buffers.
    pub core: WorldCore,
    ubc: UbcFunc,
    ftle: TleFunc,
    ro: RandomOracle,
}

impl SbcHost {
    /// Forks the labelled randomness streams every Theorem 2 backend draws
    /// from off `seed`, in one fixed order, and builds the functionalities
    /// from theirs. Forking mutates the parent stream, so all of them are
    /// forked here even for a backend that discards some: every backend's
    /// functionalities and parties then draw bit-identical randomness from
    /// the same seed, which is what makes `CompareLevel::Exact` comparison
    /// between backends possible at all.
    fn fork(params: SbcParams, seed: &[u8]) -> (SbcHost, SideStreams) {
        let mut core = WorldCore::new(params.n, seed);
        let ro = core.rng.fork(b"ro/fro");
        let ubc_tags = core.rng.fork(b"tags/F_UBC");
        // The `F_TLE` fill stream is forked off this one in `TleFunc::new`.
        let tle_tags = core.rng.fork(b"tags/F_TLE");
        let sbc_tags = core.rng.fork(b"tags/F_SBC");
        let parties = (0..params.n)
            .map(|i| core.rng.fork(format!("party/{i}").as_bytes()))
            .collect();
        let equiv = core.rng.fork(b"sim/equiv");
        let host = SbcHost {
            core,
            ubc: UbcFunc::new(params.n, ubc_tags),
            ftle: TleFunc::new(params.tle_alpha, params.tle_delay, tle_tags),
            ro: RandomOracle::new(ro),
        };
        let side = SideStreams {
            sbc_tags,
            parties,
            equiv,
        };
        (host, side)
    }

    /// Creates the functionalities and the `n` parties of one experiment,
    /// forking every labelled stream off `seed` in the canonical order.
    /// `params` must already be [validated](SbcParams::validate).
    pub fn new(params: SbcParams, seed: &[u8]) -> (SbcHost, Vec<SbcParty>) {
        let (host, side) = SbcHost::fork(params, seed);
        let parties = side
            .parties
            .into_iter()
            .enumerate()
            .map(|(i, rng)| {
                SbcParty::new(
                    PartyId(i as u32),
                    params.phi,
                    params.delta,
                    params.tle_delay,
                    rng,
                )
            })
            .collect();
        (host, parties)
    }

    /// `Advance_Clock` from `party` into `F_UBC`: its pending broadcasts,
    /// flushed once per round in broadcast order, each addressed to all of
    /// `0..n` ([`UbcFunc::take_flush`]).
    pub fn take_flush(&mut self, party: PartyId) -> Vec<Value> {
        let mut ctx = self.core.ctx();
        self.ubc.take_flush(party, &mut ctx)
    }

    /// `Broadcast` into `F_UBC` on behalf of a corrupted `party`: leaks and
    /// returns `msg` for immediate delivery to all of `0..n`; `None` (and
    /// no leak) if `party` is honest.
    pub fn broadcast_corrupted(&mut self, party: PartyId, msg: Value) -> Option<Value> {
        self.ubc
            .broadcast_corrupted(party, msg, &mut self.core.ctx())
    }

    /// The adversary's `AdvCommand::Control` interface to the real
    /// functionalities: `F_TLE` `Insert` / `Leakage` and `F_RO`
    /// `QueryBytes` of at most `u32::MAX` bytes (the bound `validate` puts
    /// on Φ and ∆; a mask for any plausible message fits under it).
    /// Anything else, a longer query included, answers `Unit`.
    pub fn control(&mut self, target: &str, cmd: &Command) -> Value {
        const MAX_QUERY_BYTES: u64 = u32::MAX as u64;
        let items = cmd.value.as_list().unwrap_or(&[]);
        match (target, cmd.name.as_str(), items) {
            ("F_TLE", "Insert", [ct, msg, tau]) => {
                let (Some(_), Some(_), Some(tau)) = (ct.as_bytes(), msg.as_bytes(), tau.as_u64())
                else {
                    return Value::Unit;
                };
                self.ftle.insert_adversarial(ct.clone(), msg.clone(), tau);
                Value::Bool(true)
            }
            ("F_TLE", "Leakage", _) => Value::list(
                self.ftle
                    .leakage(&self.core.ctx())
                    .into_iter()
                    .map(|r| Value::list([r.msg, r.ct.unwrap_or(Value::Unit), Value::U64(r.tau)])),
            ),
            ("F_RO", "QueryBytes", [x, len]) => match (x.as_bytes(), len.as_u64()) {
                (Some(x), Some(len)) if len <= MAX_QUERY_BYTES => {
                    Value::Bytes(self.ro.query_bytes(Caller::Adversary, x, len as usize))
                }
                _ => Value::Unit,
            },
            _ => Value::Unit,
        }
    }

    /// Period turnover on the functionality side: undelivered `F_UBC`
    /// messages are dropped and the released `F_TLE` records pruned. The
    /// clock, the random oracle and the corruption state carry over.
    pub fn begin_new_period(&mut self) {
        self.ubc.clear_pending();
        self.ftle.clear_records();
    }

    /// Whether the functionality side is at rest: no undelivered `F_UBC`
    /// message and the clock at a round boundary. With every party idle
    /// too, a round is a pure clock tick (no randomness, no leaks, no
    /// outputs) — the precondition of the O(1) `SbcWorld::join_at`.
    pub fn is_idle(&self) -> bool {
        self.ubc.pending() == 0 && !self.core.clock.mid_round()
    }
}

impl SbcHybrid for SbcHost {
    fn now(&self) -> u64 {
        self.core.clock.read()
    }

    fn ubc_broadcast(&mut self, party: PartyId, msg: Value) {
        let mut ctx = self.core.ctx();
        self.ubc.broadcast_honest(party, msg, &mut ctx);
    }

    fn tle_enc(&mut self, party: PartyId, msg: Value, tau: u64) {
        let mut ctx = self.core.ctx();
        self.ftle.enc(party, msg, tau as i64, &mut ctx);
    }

    fn tle_retrieve(&mut self, party: PartyId) -> Vec<(Value, Value, u64)> {
        let mut ctx = self.core.ctx();
        self.ftle.retrieve(party, &mut ctx)
    }

    fn tle_dec(&mut self, _party: PartyId, ct: &Value, tau: u64) -> Option<DecResponse> {
        self.ftle.dec(ct, tau as i64, &self.core.ctx())
    }

    fn ro_query(&mut self, party: PartyId, x: &[u8], len: usize) -> Option<Vec<u8>> {
        Some(self.ro.query_bytes(Caller::Party(party), x, len))
    }
}

/// The reuse-or-record release rule of one round, held by whichever world
/// steps [`SbcParty`]s over an [`SbcHost`]. The first release of the
/// round is kept; a later party with the **same release view**
/// ([`SbcParty::shares_release_view`]) would issue the same oracle queries
/// and output the same vector, so it takes that output and asks `F_RO`
/// nothing. The vector is built once: a `Value::List` is shared, so the
/// clone each reusing party gets is a refcount bump on the one list —
/// `F_SBC`'s one vector for all of `P`, not a copy of it per party — and
/// the pool's agreement check on it is a pointer compare. A party whose
/// log differs releases on its own: the reuse
/// is an optimisation, never an assumption. One value must span no
/// adversary action — a release computed before an `F_TLE` `Insert` or a
/// corruption is not the release of a party stepped after it — so a world
/// starts a fresh one when the round ends and before any other mutating
/// call.
#[derive(Debug, Default)]
pub struct SharedRelease {
    /// Who released first, and its output.
    first: Option<(usize, Command)>,
}

impl SharedRelease {
    /// The round step of `parties[i]` under the rule, over the world's
    /// hybrid `hyb`.
    pub fn advance<H: SbcHybrid>(
        &mut self,
        parties: &mut [SbcParty],
        i: usize,
        hyb: &mut H,
    ) -> Option<Command> {
        let now = hyb.now();
        let reused = match &self.first {
            Some((from, cmd)) if parties[i].shares_release_view(&parties[*from], now) => {
                Some(cmd.clone())
            }
            _ => None,
        };
        let out = parties[i].on_advance_planned(hyb, reused);
        if let (None, Some(cmd)) = (&self.first, &out) {
            self.first = Some((i, cmd.clone()));
        }
        out
    }
}

/// The real world: `Π_SBC` over `F_UBC` + `F_TLE` + `F_RO` + `G_clock`.
///
/// A round is every honest party's [`advance`](World::advance), the
/// `Advance_Clock` of Fig. 2, in any order. Its steps share one
/// [`SharedRelease`], and its flushed wires wait in one batch that the
/// `advance` ending the round delivers through [`SbcParty::deliver_batch`]
/// at the round they were flushed in: one class grouping per round.
/// Deferral is sound because a wire is only read at the release round and
/// the replay dedup sees each recipient's arrival order unchanged. A
/// `Wake_Up` (it opens the period and draws `F_TLE` randomness in order)
/// delivers the batch, then itself in place. Every other mutating call
/// settles the round first, so the batch holds only the current round's
/// wires and no release spans an adversary action.
#[derive(Debug)]
pub struct RealSbcWorld {
    host: SbcHost,
    /// Experiment parameters (exposed for harness introspection).
    pub params: SbcParams,
    parties: Vec<SbcParty>,
    /// This round's release rule.
    release: SharedRelease,
    /// This round's flushed wires, not yet delivered.
    wires: Vec<Value>,
}

impl RealSbcWorld {
    /// Creates the world.
    ///
    /// # Panics
    ///
    /// Panics if the parameters violate Theorem 2's constraints.
    pub fn new(params: SbcParams, seed: &[u8]) -> Self {
        params.validate().expect("invalid SBC parameters");
        let (host, parties) = SbcHost::new(params, seed);
        RealSbcWorld {
            host,
            params,
            parties,
            release: SharedRelease::default(),
            wires: Vec::new(),
        }
    }

    /// Takes one broadcast into the round: a wire joins the batch; a
    /// `Wake_Up` delivers the batch, then itself to every party in id
    /// order through [`SbcParty::on_ubc_deliver`] (it mutates `F_TLE` and
    /// leaks).
    fn receive(&mut self, msg: Value) {
        if !is_wake_up(&msg) {
            self.wires.push(msg);
            return;
        }
        self.deliver_wires(self.host.now());
        for party in &mut self.parties {
            party.on_ubc_deliver(&msg, &mut self.host);
        }
    }

    /// Delivers the batch, received at `round`, to all `n` parties through
    /// the one class rule, [`SbcParty::deliver_batch`]: each wire parsed
    /// once, one log per class of recipients in the same state.
    /// Unparseable payloads are a no-op at every recipient.
    fn deliver_wires(&mut self, round: u64) {
        let parsed: Vec<Arc<ParsedWire>> = self
            .wires
            .drain(..)
            .filter_map(|wire| ParsedWire::parse(&wire))
            .map(Arc::new)
            .collect();
        SbcParty::deliver_batch(&mut self.parties, &parsed, round);
    }

    /// Ends the round's shared state: delivers the batch at `round`, the
    /// round its wires were flushed in, and forgets the release.
    fn settle(&mut self, round: u64) {
        self.deliver_wires(round);
        self.release = SharedRelease::default();
    }
}

impl World for RealSbcWorld {
    fn n(&self) -> usize {
        self.host.core.n()
    }

    fn time(&self) -> u64 {
        self.host.core.clock.read()
    }

    fn input(&mut self, party: PartyId, cmd: Command) {
        self.settle(self.host.now());
        if cmd.name != "Broadcast" || !self.host.core.is_honest(party) {
            return;
        }
        self.parties[party.index()].on_input(cmd.value, &mut self.host);
    }

    fn advance(&mut self, party: PartyId) {
        if !self.host.core.is_honest(party) {
            return;
        }
        let now = self.host.now();
        let out = self
            .release
            .advance(&mut self.parties, party.index(), &mut self.host);
        if let Some(cmd) = out {
            self.host.core.outputs.push((party, cmd));
        }
        for msg in self.host.take_flush(party) {
            self.receive(msg);
        }
        if self.host.core.clock.advance_party(party) {
            self.settle(now);
        }
    }

    fn adversary(&mut self, cmd: AdvCommand) -> Value {
        self.settle(self.host.now());
        match cmd {
            AdvCommand::Corrupt(p) => {
                if !self.host.core.corrupt(p) {
                    return Value::Bool(false);
                }
                Value::list(self.parties[p.index()].pending_messages())
            }
            AdvCommand::SendAs { party, cmd } if cmd.name == "Broadcast" => {
                if let Some(msg) = self.host.broadcast_corrupted(party, cmd.value) {
                    self.receive(msg);
                    self.deliver_wires(self.host.now());
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

impl SbcWorld for RealSbcWorld {
    /// Closes the books on a released broadcast period so the same world
    /// can host another one (multi-epoch sessions): every party forgets its
    /// period state, and the host drops what the functionalities held for
    /// it ([`SbcHost::begin_new_period`]).
    fn begin_new_period(&mut self) {
        self.settle(self.host.now());
        for p in &mut self.parties {
            p.reset_period();
        }
        self.host.begin_new_period();
    }

    /// The agreed release round `τ_rel = t_end + ∆` of the current period,
    /// once any party has woken up. This is the authoritative release-round
    /// value: it is correct even when the environment drains outputs late.
    fn release_round(&self) -> Option<u64> {
        self.parties.iter().find_map(|p| p.tau_rel())
    }

    /// The end of the current broadcast period `t_end = t_awake + Φ`, once
    /// any party has woken up.
    fn period_end(&self) -> Option<u64> {
        self.parties.iter().find_map(|p| p.t_end())
    }

    /// O(1) clock-offset join: when the world is verifiably idle — every
    /// party asleep with empty queues, no undelivered UBC wires, the clock
    /// at a round boundary — an idle round is a pure clock tick (no
    /// randomness, no leaks, no outputs), so the catch-up collapses to a
    /// [`GlobalClock::fast_forward`](sbc_uc::clock::GlobalClock::fast_forward).
    /// Anything short of verifiably idle falls back to the literal replay,
    /// keeping the observation-equivalence contract of
    /// [`SbcWorld::join_at`] unconditional.
    fn join_at(&mut self, round: u64) {
        self.settle(self.host.now());
        if self.parties.iter().all(|p| p.is_idle()) && self.host.is_idle() {
            self.host.core.clock.fast_forward(round);
        } else {
            sbc_uc::exec::replay_join(self, round);
        }
    }
}

impl SbcBackend for RealSbcWorld {
    fn from_params(params: SbcParams, seed: &[u8]) -> Result<Self, SbcError> {
        params.validate()?;
        Ok(RealSbcWorld::new(params, seed))
    }
}

/// One honest broadcast as `S_SBC` holds it: what the simulated sender
/// holds for it, minus the message — `F_SBC` leaks only `|M|`.
#[derive(Clone, Debug)]
struct SimEntry {
    sbc_tag: Tag,
    msg_len: usize,
    rho: Vec<u8>,
    /// The fabricated mask, set once the wire is cast.
    y: Option<Vec<u8>>,
}

/// The simulator `S_SBC` from the proof of Theorem 2.
///
/// It **runs** the hybrids — every method takes the world's [`SbcHost`]
/// and makes the `F_UBC` / `F_TLE` calls a `Π_SBC` party would make, in
/// the order [`RealSbcWorld`] makes them, so what the adversary sees of
/// the hybrid model is produced by the functionalities, not transcribed.
/// It **simulates** the honest parties, hand-written here on purpose (no
/// [`SbcParty`]: a party bug must not cancel across the two worlds): their
/// queues, wake-up flags, agreed period times, replay guard and `ρ` draws.
/// The one thing it cannot compute is `y = M ⊕ H(ρ)`; it casts a random
/// `y` from its equivocation stream and programs `F_RO` when `F_SBC`
/// hands over the messages.
#[derive(Debug)]
pub struct SimSbc {
    params: SbcParams,
    party_rngs: Vec<Drbg>,
    equiv_rng: Drbg,
    queues: Vec<Vec<SimEntry>>,
    wakeup_sent: Vec<bool>,
    last_advance: Vec<Option<u64>>,
    t_awake: Option<u64>,
    seen_wires: Vec<(Value, Vec<u8>)>,
    would_abort: bool,
}

impl SimSbc {
    fn new(params: SbcParams, party_rngs: Vec<Drbg>, equiv_rng: Drbg) -> Self {
        let n = params.n;
        SimSbc {
            params,
            party_rngs,
            equiv_rng,
            queues: vec![Vec::new(); n],
            wakeup_sent: vec![false; n],
            last_advance: vec![None; n],
            t_awake: None,
            seen_wires: Vec::new(),
            would_abort: false,
        }
    }

    fn t_end(&self) -> Option<u64> {
        self.t_awake.map(|t| t + self.params.phi)
    }

    fn tau_rel(&self) -> Option<u64> {
        self.t_end().map(|t| t + self.params.delta)
    }

    /// An `F_SBC` `(Sender, tag, 0^|M|, P)` leak: the simulated `party`
    /// takes a `Broadcast` input of that length.
    fn on_sender_leak(&mut self, party: PartyId, tag: Tag, msg_len: usize, host: &mut SbcHost) {
        let i = party.index();
        if self
            .t_end()
            .is_some_and(|end| host.now() + self.params.tle_delay >= end)
        {
            return; // cannot be ready before the period closes
        }
        let rho = self.party_rngs[i].gen_bytes(32);
        match self.tau_rel() {
            Some(tau_rel) => host.tle_enc(party, Value::bytes(&rho), tau_rel),
            None if !self.wakeup_sent[i] => {
                self.wakeup_sent[i] = true;
                host.ubc_broadcast(party, wake_up());
            }
            None => {}
        }
        self.queues[i].push(SimEntry {
            sbc_tag: tag,
            msg_len,
            rho,
            y: None,
        });
    }

    /// The simulated `party`'s round step, then its `F_UBC` flush and the
    /// delivery of what was flushed.
    fn on_advance(&mut self, party: PartyId, host: &mut SbcHost) {
        self.cast_ready(party, host);
        for msg in host.take_flush(party) {
            self.on_ubc_deliver(&msg, host);
        }
    }

    /// The round step proper, once per round and inside the period: cast
    /// every ciphertext that became ready, under a random mask.
    fn cast_ready(&mut self, party: PartyId, host: &mut SbcHost) {
        let (now, i) = (host.now(), party.index());
        if self.last_advance[i].replace(now) == Some(now) {
            return;
        }
        let (Some(end), Some(tau_rel)) = (self.t_end(), self.tau_rel()) else {
            return;
        };
        if now >= end {
            return;
        }
        for (rho, ct, _tau) in host.tle_retrieve(party) {
            let Some(entry) = self.queues[i]
                .iter_mut()
                .find(|e| rho.as_bytes() == Some(&e.rho[..]) && e.y.is_none())
            else {
                continue;
            };
            let y = self.equiv_rng.gen_bytes(entry.msg_len);
            host.ubc_broadcast(party, sbc_wire(&ct, tau_rel, &y));
            entry.y = Some(y);
        }
    }

    /// An `F_UBC` delivery, as every simulated recipient handles it at
    /// once (they all see the same broadcasts in the same order). A
    /// `Wake_Up` opens the period: every party encrypts what it queued
    /// asleep, in delivery order. A `(c, τ_rel, y)` wire is returned if the
    /// recipients record it — in period and not a replay.
    fn on_ubc_deliver(&mut self, msg: &Value, host: &mut SbcHost) -> Option<(Value, Vec<u8>)> {
        let now = host.now();
        if is_wake_up(msg) {
            if self.t_awake.is_none() {
                self.t_awake = Some(now);
                let tau_rel = now + self.params.phi + self.params.delta;
                for (i, queue) in self.queues.iter().enumerate() {
                    for e in queue {
                        host.tle_enc(PartyId(i as u32), Value::bytes(&e.rho), tau_rel);
                    }
                }
            }
            return None;
        }
        let ParsedWire { ct, tau, y } = ParsedWire::parse(msg)?;
        let in_period = self.tau_rel() == Some(tau) && self.t_end().is_some_and(|end| now < end);
        if !in_period || self.seen_wires.iter().any(|(c, yy)| *c == ct || *yy == y) {
            return None;
        }
        self.seen_wires.push((ct.clone(), y.clone()));
        Some((ct, y))
    }

    /// Delivers a corrupted sender's broadcast and, if it is a wire the
    /// recipients record, extracts the message it commits them to output:
    /// `y ⊕ H(ρ)` for the `ρ` that `F_TLE` will answer their `Dec` of `c`
    /// with at `τ_rel`. `None` if they will output nothing for it.
    fn on_corrupted_deliver(&mut self, msg: &Value, host: &mut SbcHost) -> Option<Value> {
        let (ct, y) = self.on_ubc_deliver(msg, host)?;
        let tau_rel = self.tau_rel()?;
        let Some(DecResponse::Message(rho)) =
            host.ftle
                .dec_peek_encoded(&ct.encode(), tau_rel as i64, tau_rel)
        else {
            return None;
        };
        let eta = host
            .ro
            .query_bytes(Caller::Simulator, rho.as_bytes()?, y.len());
        let m_bytes: Vec<u8> = y.iter().zip(eta.iter()).map(|(a, b)| a ^ b).collect();
        Some(Value::decode(&m_bytes).unwrap_or(Value::Bytes(m_bytes)))
    }

    /// Equivocation: `F_SBC` hands over the broadcast list (at
    /// `t_end + ∆ − α`, once per period) as `(tag, M)` pairs; program
    /// `F_RO` so every fabricated `y` opens to its real message.
    fn equivocate(&mut self, list: &[Value], ro: &mut RandomOracle) {
        for pair in list {
            let Some([tag, msg]) = pair.as_list() else {
                continue;
            };
            let tag = tag.as_bytes().and_then(Tag::from_bytes);
            let mut entries = self.queues.iter().flatten();
            let Some(entry) = entries.find(|e| Some(e.sbc_tag) == tag) else {
                continue;
            };
            let Some(y) = &entry.y else {
                continue; // never cast: nothing to open
            };
            let m_bytes = msg.encode();
            if m_bytes.len() != y.len() {
                continue;
            }
            let eta: Vec<u8> = y.iter().zip(m_bytes.iter()).map(|(a, b)| a ^ b).collect();
            if ro.adversary_queried_bytes(&entry.rho, eta.len()) {
                self.would_abort = true;
            }
            if ro.program_bytes(&entry.rho, eta).is_err() {
                self.would_abort = true;
            }
        }
    }

    /// Forgets the closed broadcast period — the simulated parties'
    /// [`SbcParty::reset_period`]: queues, wake-up flags, agreed times and
    /// the replay guard are dropped. The randomness streams and the round
    /// guard carry over, and the sticky `would_abort` flag survives: an
    /// abort event in any epoch taints the whole execution.
    fn begin_new_period(&mut self) {
        for q in &mut self.queues {
            q.clear();
        }
        self.wakeup_sent.iter_mut().for_each(|w| *w = false);
        self.t_awake = None;
        self.seen_wires.clear();
    }

    /// Whether the simulated parties hold no period state: asleep with
    /// empty queues. The ideal-world counterpart of [`SbcParty::is_idle`] —
    /// with the host idle too, a simulated round draws no randomness and
    /// emits no leaks, which is what licenses the O(1) `join_at` fast path.
    fn is_idle(&self) -> bool {
        self.t_awake.is_none() && self.queues.iter().all(|q| q.is_empty())
    }
}

/// The ideal world: `F_SBC(Φ, ∆, α)` + `S_SBC`, the latter running the
/// hybrids in `host`.
#[derive(Debug)]
pub struct IdealSbcWorld {
    host: SbcHost,
    fsbc: SbcFunc,
    sim: SimSbc,
}

impl IdealSbcWorld {
    /// Creates the world.
    ///
    /// # Panics
    ///
    /// Panics if the parameters violate Theorem 2's constraints.
    pub fn new(params: SbcParams, seed: &[u8]) -> Self {
        params.validate().expect("invalid SBC parameters");
        let (host, side) = SbcHost::fork(params, seed);
        IdealSbcWorld {
            host,
            fsbc: SbcFunc::new(params.phi, params.delta, params.sbc_alpha(), side.sbc_tags),
            sim: SimSbc::new(params, side.parties, side.equiv),
        }
    }
}

impl World for IdealSbcWorld {
    fn n(&self) -> usize {
        self.host.core.n()
    }

    fn time(&self) -> u64 {
        self.host.core.clock.read()
    }

    fn input(&mut self, party: PartyId, cmd: Command) {
        if cmd.name != "Broadcast" || !self.host.core.is_honest(party) {
            return;
        }
        let msg_len = cmd.value.encoded_len();
        // F_SBC's (Sender, tag, |M|, P) leak is addressed to the simulator,
        // not the environment; the tag is all of it the simulator lacks.
        let mut to_sim = Vec::new();
        let mut ctx = self.host.core.ctx_leaking_to(&mut to_sim);
        if let Some(tag) = self.fsbc.broadcast(party, cmd.value, &mut ctx) {
            self.sim.on_sender_leak(party, tag, msg_len, &mut self.host);
        }
    }

    fn advance(&mut self, party: PartyId) {
        if !self.host.core.is_honest(party) {
            return;
        }
        // F_SBC's once-per-round steps + delivery; its one leak here is
        // the broadcast list.
        let mut to_sim = Vec::new();
        let mut ctx = self.host.core.ctx_leaking_to(&mut to_sim);
        let delivered = self.fsbc.advance_clock(party, &mut ctx);
        for leak in to_sim {
            let list = leak.cmd.value.as_list().unwrap_or(&[]);
            self.sim.equivocate(list, &mut self.host.ro);
        }
        self.sim.on_advance(party, &mut self.host);
        if let Some(msgs) = delivered {
            let cmd = Command::new("Broadcast", msgs);
            self.host.core.outputs.push((party, cmd));
        }
        self.host.core.clock.advance_party(party);
    }

    fn adversary(&mut self, cmd: AdvCommand) -> Value {
        match cmd {
            AdvCommand::Corrupt(p) => {
                if !self.host.core.corrupt(p) {
                    return Value::Bool(false);
                }
                // Corruption_Request: the unbroadcast pending messages.
                let recs = self.fsbc.corruption_request(&self.host.core.ctx());
                let msg_of = |e: &SimEntry| {
                    recs.iter()
                        .find(|r| r.tag == e.sbc_tag)
                        .map(|r| r.msg.clone())
                };
                let (cast, pending): (Vec<&SimEntry>, Vec<&SimEntry>) = self.sim.queues[p.index()]
                    .iter()
                    .partition(|e| e.y.is_some());
                // Already-broadcast records of the newly corrupted sender
                // stay committed: the simulator re-`Allow`s them unchanged
                // (their ciphertexts are already public in the real world).
                for e in cast {
                    if let Some(msg) = msg_of(e) {
                        let mut ctx = self.host.core.ctx();
                        self.fsbc.allow(e.sbc_tag, msg, p, &mut ctx);
                    }
                }
                Value::list(pending.into_iter().filter_map(msg_of))
            }
            AdvCommand::SendAs { party, cmd } if cmd.name == "Broadcast" => {
                if let Some(wire) = self.host.broadcast_corrupted(party, cmd.value) {
                    if let Some(msg) = self.sim.on_corrupted_deliver(&wire, &mut self.host) {
                        let mut to_sim = Vec::new();
                        let mut ctx = self.host.core.ctx_leaking_to(&mut to_sim);
                        self.fsbc.broadcast(party, msg, &mut ctx);
                    }
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

impl SbcWorld for IdealSbcWorld {
    /// The ideal-world period turnover matching
    /// [`RealSbcWorld::begin_new_period`]: `F_SBC` forgets its records and
    /// period times, the simulator its parties' period state, and the host
    /// what the hybrids held. The global clock, the random oracle, the
    /// corruption state and every randomness stream carry over — so
    /// transcript equality with the real world extends across epoch
    /// boundaries.
    fn begin_new_period(&mut self) {
        self.fsbc.begin_new_period();
        self.sim.begin_new_period();
        self.host.begin_new_period();
    }

    fn release_round(&self) -> Option<u64> {
        self.sim.tau_rel()
    }

    fn period_end(&self) -> Option<u64> {
        self.sim.t_end()
    }

    fn would_abort(&self) -> bool {
        self.sim.would_abort
    }

    /// O(1) clock-offset join, mirroring [`RealSbcWorld::join_at`]: with
    /// the simulated parties and the host idle, an ideal-world round is a
    /// pure clock tick, so the catch-up collapses to a clock fast-forward;
    /// otherwise the literal replay runs.
    fn join_at(&mut self, round: u64) {
        if self.sim.is_idle() && self.host.is_idle() {
            self.host.core.clock.fast_forward(round);
        } else {
            sbc_uc::exec::replay_join(self, round);
        }
    }
}

impl SbcBackend for IdealSbcWorld {
    fn from_params(params: SbcParams, seed: &[u8]) -> Result<Self, SbcError> {
        params.validate()?;
        Ok(IdealSbcWorld::new(params, seed))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sbc_uc::exec::{CompareLevel, DualRun};
    use sbc_uc::trace::Transcript;
    use sbc_uc::world::{run_env, EnvDriver};

    fn params(n: usize) -> SbcParams {
        SbcParams::default_for(n)
    }

    /// `validate()`'s smallest ciphertext delay: a ciphertext is ready in
    /// the round it was requested in.
    fn zero_delay_params(n: usize) -> SbcParams {
        SbcParams {
            tle_delay: 0,
            ..params(n)
        }
    }

    /// A `SendAs` flood is `k` batches of one wire: the recipients stay one
    /// class throughout, so the log is extended in place `k` times — never
    /// copied, per recipient or per batch — and ends as one allocation.
    #[test]
    fn send_as_flood_extends_one_shared_log_in_place() {
        const N: usize = 64;
        const FLOOD: u64 = 2_000;
        let mut w = RealSbcWorld::new(params(N), b"flood");
        w.submit(PartyId(0), b"opens the period");
        w.tick();
        let last = PartyId(N as u32 - 1);
        w.adversary(AdvCommand::Corrupt(last));
        let tau = w.release_round().expect("period open");
        for k in 0..FLOOD {
            let wire = sbc_wire(&Value::bytes(k.to_be_bytes()), tau, &k.to_le_bytes());
            w.adversary(AdvCommand::SendAs {
                party: last,
                cmd: Command::new("Broadcast", wire),
            });
        }
        let first = w.parties[0].log();
        assert_eq!(first.len(), FLOOD as usize);
        for p in &w.parties {
            assert!(p.log().shares_storage_with(first), "party {}", p.id().0);
        }
    }

    /// `F_SBC` hands every party one vector at `τ_rel`, and so does the
    /// real world, whoever drives its rounds — `tick`, or bare `advance`
    /// calls in reverse id order: the release is built once and every
    /// honest output holds that one list, shared, not copied per party.
    #[test]
    fn release_is_one_shared_list() {
        const N: usize = 256;
        type Drive = fn(&mut RealSbcWorld);
        let tick: Drive = |w| w.tick();
        let advance_in_reverse: Drive = |w| {
            for p in (0..N as u32).rev() {
                w.advance(PartyId(p));
            }
        };
        for drive in [tick, advance_in_reverse] {
            let mut w = RealSbcWorld::new(params(N), b"shared-release");
            for p in (0..N as u32).step_by(8) {
                w.submit(PartyId(p), &p.to_be_bytes());
            }
            let outs = (0..10)
                .map(|_| {
                    drive(&mut w);
                    w.drain_outputs()
                })
                .find(|outs| !outs.is_empty())
                .expect("released within ten rounds");
            let lists: Vec<&Arc<Vec<Value>>> = outs
                .iter()
                .filter_map(|(_, cmd)| match &cmd.value {
                    Value::List(list) => Some(list),
                    _ => None,
                })
                .collect();
            assert_eq!((lists.len(), lists[0].len()), (N, N / 8));
            assert!(lists.iter().all(|list| Arc::ptr_eq(list, lists[0])));
        }
    }

    #[test]
    fn validate_bounds_n_by_the_party_id_width() {
        // n = 2³² would wrap `PartyId::all(n)` to no parties at all.
        assert!(params(u32::MAX as usize + 1).validate().is_err());
        params(u32::MAX as usize).validate().unwrap();
    }

    type Theorem2Run = DualRun<RealSbcWorld, IdealSbcWorld>;

    fn dual_with(params: SbcParams, seed: &[u8]) -> Theorem2Run {
        DualRun::new(
            RealSbcWorld::new(params, seed),
            IdealSbcWorld::new(params, seed),
            CompareLevel::ShapeAndOutputs,
        )
    }

    fn dual(n: usize, seed: &[u8]) -> Theorem2Run {
        dual_with(params(n), seed)
    }

    /// The functionality-drawn tag of every tagged hybrid leak, in
    /// transcript order: item 0 of a 3-item `F_UBC` leak (honest broadcast
    /// or flush), item 1 of an `F_TLE` `Enc` leak.
    fn hybrid_tags(t: &Transcript) -> Vec<(u64, &str, &Value)> {
        t.leaks()
            .into_iter()
            .filter_map(|(round, source, cmd)| {
                let tag = match (source, cmd.value.as_list()?) {
                    ("F_UBC", [tag, _msg, _sender]) => tag,
                    ("F_TLE", [_tau, tag, _cl, _len, _party]) => tag,
                    _ => return None,
                };
                Some((round, source, tag))
            })
            .collect()
    }

    /// Theorem 2 at the end of a run: transcripts agree at
    /// `ShapeAndOutputs`, and — byte for byte, which that level cannot
    /// see — the ideal world's hybrid tags are the real world's. Returns
    /// the real transcript.
    fn assert_aligned(d: Theorem2Run) -> Transcript {
        d.check().unwrap_or_else(|div| panic!("{div}"));
        let (real, ideal) = d.into_transcripts();
        let tags = hybrid_tags(&real);
        assert!(!tags.is_empty(), "the script reached the hybrids");
        assert_eq!(
            tags,
            hybrid_tags(&ideal),
            "hybrid tags (round, source, tag): real vs ideal"
        );
        real
    }

    fn assert_theorem2<F>(n: usize, seed: &[u8], script: F) -> Transcript
    where
        F: Fn(&mut EnvDriver<'_>) + Copy,
    {
        let mut d = dual(n, seed);
        d.script(script);
        assert_aligned(d)
    }

    #[test]
    fn theorem2_single_sender() {
        assert_theorem2(3, b"t2-a", |env| {
            env.input(
                PartyId(0),
                Command::new("Broadcast", Value::bytes(b"lone message")),
            );
            env.idle_rounds(8);
        });
    }

    #[test]
    fn theorem2_full_participation() {
        assert_theorem2(3, b"t2-b", |env| {
            env.input(
                PartyId(0),
                Command::new("Broadcast", Value::bytes(b"foxtrot")),
            );
            env.advance_all();
            env.input(
                PartyId(1),
                Command::new("Broadcast", Value::bytes(b"bravo")),
            );
            env.input(
                PartyId(2),
                Command::new("Broadcast", Value::bytes(b"tango")),
            );
            env.idle_rounds(8);
        });
    }

    #[test]
    fn theorem2_partial_participation_liveness() {
        assert_theorem2(4, b"t2-c", |env| {
            env.input(
                PartyId(2),
                Command::new("Broadcast", Value::bytes(b"only me")),
            );
            env.idle_rounds(8);
        });
    }

    #[test]
    fn theorem2_adversary_leakage_queries() {
        assert_theorem2(3, b"t2-d", |env| {
            env.input(
                PartyId(0),
                Command::new("Broadcast", Value::bytes(b"watched")),
            );
            env.adversary(AdvCommand::Corrupt(PartyId(2)));
            for _ in 0..8 {
                env.adversary(AdvCommand::Control {
                    target: "F_TLE".into(),
                    cmd: Command::new("Leakage", Value::Unit),
                });
                env.advance_all();
            }
        });
    }

    #[test]
    fn theorem2_corruption_after_broadcast_keeps_message() {
        assert_theorem2(3, b"t2-e", |env| {
            env.input(
                PartyId(0),
                Command::new("Broadcast", Value::bytes(b"committed")),
            );
            env.advance_all(); // wake-up + enc
            env.advance_all(); // ciphertext broadcast
            env.adversary(AdvCommand::Corrupt(PartyId(0)));
            env.idle_rounds(7);
        });
    }

    #[test]
    fn theorem2_multi_epoch_turnover() {
        // Three successive broadcast periods over one dual world: the
        // ideal-world period reset must keep transcripts aligned with the
        // real world's in every epoch, not just the first.
        let mut d = dual(3, b"t2-epochs");
        for epoch in 0..3u64 {
            d.submit(PartyId(0), format!("alpha/{epoch}").as_bytes());
            d.advance_all();
            d.submit(PartyId(1), format!("bravo/{epoch}").as_bytes());
            d.idle_rounds(8);
            assert_eq!(d.release_round(), Some(epoch * 9 + 5), "τ_rel agreed");
            d.finish_epoch().unwrap_or_else(|div| panic!("{div}"));
        }
        assert_eq!(d.epoch(), 3);
        assert_aligned(d);
    }

    #[test]
    fn theorem2_multi_epoch_with_idle_gap() {
        // An epoch whose period opens late (idle rounds first) must still
        // align: t_awake is re-agreed per epoch in both worlds.
        let mut d = dual(2, b"t2-gap");
        d.submit(PartyId(0), b"first");
        d.idle_rounds(8);
        d.finish_epoch().unwrap_or_else(|div| panic!("{div}"));
        d.idle_rounds(2); // nobody broadcasts: the new period stays closed
        assert_eq!(d.release_round(), None);
        d.submit(PartyId(1), b"second");
        d.idle_rounds(8);
        assert_aligned(d);
    }

    /// The recipe of `SbcPool::inject_message` — `F_TLE` `Insert`, `F_RO`
    /// `QueryBytes`, `SendAs` the wire — next to an honest broadcast: the
    /// adversarial message is released, and every hybrid tag around it is
    /// the real world's.
    #[test]
    fn theorem2_insert_and_injected_wire() {
        let real = assert_theorem2(3, b"t2-inject", |env| {
            env.input(
                PartyId(0),
                Command::new("Broadcast", Value::bytes(b"honest")),
            );
            env.advance_all(); // wake-up at Cl = 0: τ_rel = Φ + ∆ = 5
            env.adversary(AdvCommand::Corrupt(PartyId(2)));
            let (ct, rho, tau_rel) = (Value::bytes([7u8; 64]), [3u8; 32], 5);
            env.adversary(AdvCommand::Control {
                target: "F_TLE".into(),
                cmd: Command::new(
                    "Insert",
                    Value::list([ct.clone(), Value::bytes(rho), Value::U64(tau_rel)]),
                ),
            });
            let m_bytes = Value::bytes(b"evil").encode();
            let eta = env.adversary(AdvCommand::Control {
                target: "F_RO".into(),
                cmd: Command::new(
                    "QueryBytes",
                    Value::list([Value::bytes(rho), Value::U64(m_bytes.len() as u64)]),
                ),
            });
            let eta = eta.as_bytes().expect("mask is bytes");
            let y: Vec<u8> = m_bytes.iter().zip(eta).map(|(a, b)| a ^ b).collect();
            env.adversary(AdvCommand::SendAs {
                party: PartyId(2),
                cmd: Command::new("Broadcast", sbc_wire(&ct, tau_rel, &y)),
            });
            env.idle_rounds(7);
        });
        let outs = real.outputs();
        assert_eq!(outs.len(), 2, "both honest parties released");
        assert_eq!(
            outs[0].2.value.as_list(),
            Some(&[Value::bytes(b"evil"), Value::bytes(b"honest")][..])
        );
    }

    /// Theorem 2 where a ciphertext is ready in the round it was requested
    /// in: a sender must still cast one round after the wake-up, not inside
    /// its own wake-up step.
    #[test]
    fn theorem2_at_zero_tle_delay() {
        for n in [2usize, 3] {
            let mut d = dual_with(zero_delay_params(n), b"t2-delay0");
            d.submit(PartyId(0), b"first");
            d.submit(PartyId(n as u32 - 1), b"second");
            d.advance_all();
            d.submit(PartyId(0), b"mid-period");
            d.idle_rounds(7);
            let real = assert_aligned(d);
            assert_eq!(real.outputs().len(), n, "n={n}: every party released");
        }
    }

    #[test]
    fn delivered_at_t_end_plus_delta() {
        let mut real = RealSbcWorld::new(params(2), b"timing");
        let t = run_env(&mut real, |env| {
            env.input(PartyId(0), Command::new("Broadcast", Value::bytes(b"m")));
            env.idle_rounds(8);
        });
        let outs = t.outputs();
        assert_eq!(outs.len(), 2);
        for (round, _, cmd) in outs {
            assert_eq!(round, 3 + 2, "t_end(Φ=3) + ∆(2)");
            assert_eq!(cmd.value.as_list().unwrap(), &[Value::bytes(b"m")]);
        }
    }

    #[test]
    fn simultaneity_leakage_reveals_nothing_during_period() {
        // During the broadcast period the adversary's entire view of an
        // honest message is (c, τ_rel, y): querying F_TLE leakage returns
        // nothing until τ_rel ≤ Cl + α_TLE.
        let mut real = RealSbcWorld::new(params(2), b"sim-leak");
        run_env(&mut real, |env| {
            env.input(
                PartyId(0),
                Command::new("Broadcast", Value::bytes(b"hidden")),
            );
            env.adversary(AdvCommand::Corrupt(PartyId(1)));
            for round in 0..4 {
                let resp = env.adversary(AdvCommand::Control {
                    target: "F_TLE".into(),
                    cmd: Command::new("Leakage", Value::Unit),
                });
                let n_leaked = resp.as_list().map(|l| l.len()).unwrap_or(0);
                assert_eq!(n_leaked, 0, "round {round}: τ_rel=5 > Cl+1");
                env.advance_all();
            }
            // Round 4: τ_rel = 5 ≤ 4 + 1 → the record leaks (α head start).
            let resp = env.adversary(AdvCommand::Control {
                target: "F_TLE".into(),
                cmd: Command::new("Leakage", Value::Unit),
            });
            assert_eq!(resp.as_list().unwrap().len(), 1);
        });
    }
}
