//! The simultaneous broadcast protocol `Π_SBC` (paper Fig. 14).
//!
//! The first sender wakes everyone up with a `Wake_Up` unfair broadcast;
//! all parties then agree on the period `[t_awake, t_end = t_awake + Φ)`
//! and the release time `τ_rel = t_end + ∆`. To broadcast `M`, a sender
//! draws `ρ`, time-lock encrypts `ρ` towards `τ_rel` via `F_TLE`, and once
//! the ciphertext is ready UBC-broadcasts `(c, τ_rel, M ⊕ H(ρ))`.
//! Simultaneity is exactly the semantic security of the TLE until `τ_rel`;
//! at `τ_rel` everyone decrypts everything and outputs the message vector.

use sbc_broadcast::ubc::UbcLayer;
use sbc_primitives::sha256::Sha256;
use sbc_tle::func::{DecResponse, TleFunc};
use sbc_uc::hybrid::HybridCtx;
use sbc_uc::ids::PartyId;
use sbc_uc::ro::{Caller, RandomOracle};
use sbc_uc::value::{Command, Value};
use std::collections::HashSet;

/// The `Wake_Up` sentinel (not in the broadcast message space).
pub fn wake_up() -> Value {
    Value::str("Wake_Up")
}

/// Encodes the `(c, τ_rel, y)` triple for the UBC wire.
pub fn sbc_wire(ct: &Value, tau_rel: u64, y: &[u8]) -> Value {
    Value::list([ct.clone(), Value::U64(tau_rel), Value::bytes(y)])
}

/// Parses a `(c, τ_rel, y)` triple off the UBC wire.
pub fn parse_sbc_wire(v: &Value) -> Option<(Value, u64, Vec<u8>)> {
    let items = v.as_list()?;
    if items.len() != 3 {
        return None;
    }
    items[0].as_bytes()?;
    Some((
        items[0].clone(),
        items[1].as_u64()?,
        items[2].as_bytes()?.to_vec(),
    ))
}

/// One broadcast wire, parsed and preprocessed **once** for delivery to
/// many recipients: the decoded `(c, τ_rel, y)` components, the canonical
/// ciphertext encoding (the `F_TLE` probe key), and the replay-dedup
/// fingerprints shared by every recipient's [`WireLog`].
///
/// A UBC broadcast reaches all `n` parties identically, so everything
/// about the wire that does not depend on the recipient — the parse, the
/// encode, the two dedup fingerprints — is computed here, per message,
/// and borrowed by each per-recipient [`SbcParty::on_wire_deliver_parsed`]
/// call. At n = 1000 this turns `messages × n` parse/encode/hash passes
/// into `messages` of them.
#[derive(Clone, Debug)]
pub struct ParsedWire {
    /// The time-lock ciphertext `c`.
    pub ct: Value,
    /// `c`'s canonical encoding — the replay-dedup and `F_TLE` probe key.
    pub ct_enc: Vec<u8>,
    /// The release time `τ_rel` the wire claims.
    pub tau: u64,
    /// The masked message `y = M ⊕ H(ρ)`.
    pub y: Vec<u8>,
    ct_fp: u128,
    y_fp: u128,
}

impl ParsedWire {
    /// Parses and preprocesses a wire payload; `None` on anything that is
    /// not a `(c, τ_rel, y)` triple (exactly [`parse_sbc_wire`]'s
    /// acceptance).
    pub fn parse(v: &Value) -> Option<ParsedWire> {
        let (ct, tau, y) = parse_sbc_wire(v)?;
        let ct_enc = ct.encode();
        let ct_fp = fingerprint(b"sbc-rec/ct", &ct_enc);
        let y_fp = fingerprint(b"sbc-rec/y", &y);
        Some(ParsedWire {
            ct,
            ct_enc,
            tau,
            y,
            ct_fp,
            y_fp,
        })
    }
}

/// 128-bit truncated SHA-256 replay-dedup fingerprint, domain-separated
/// per key space. Fingerprint equality stands in for byte equality of the
/// keys: producing a divergence takes a 2^64-work truncated-SHA-256
/// collision, far beyond the security budget of the surrounding protocol
/// primitives — while shrinking the dedup sets to fixed-width integers
/// whose growth rehashes are branchless word hashes instead of re-hashing
/// every stored ciphertext encoding.
fn fingerprint(domain: &[u8], key: &[u8]) -> u128 {
    let d = Sha256::digest_parts(&[domain, key]);
    u128::from_le_bytes(d[..16].try_into().expect("digest is 32 bytes"))
}

/// Hasher for the fingerprint sets. The keys are 128-bit truncated SHA-256
/// outputs — already uniform, already collision-resistant against
/// adversarial inputs — so the low word *is* the hash: probes and growth
/// rehashes cost a move instead of a SipHash pass (which showed up as
/// simultaneous multi-millisecond rehash spikes across all `n` recipient
/// logs in a broadcast round).
#[derive(Clone, Debug, Default)]
struct FpHasher(u64);

impl std::hash::Hasher for FpHasher {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        // Unused by `u128::hash`, which calls `write_u128`; folded anyway
        // so the hasher stays correct for any caller.
        for &b in bytes {
            self.0 = self.0.rotate_left(8) ^ u64::from(b);
        }
    }

    fn write_u128(&mut self, v: u128) {
        self.0 = v as u64;
    }
}

type FpSet = HashSet<u128, std::hash::BuildHasherDefault<FpHasher>>;

/// The received-wire log of one party: insertion-ordered `(c, y)` entries
/// with O(1) replay dedup.
///
/// The protocol discards a reception when *either* component matches
/// something already recorded — a replayed ciphertext under a fresh mask,
/// or a replayed mask under a fresh ciphertext, are both replays — so the
/// log keeps one hash set per key next to the ordered entry list the
/// release round iterates. This replaces the per-reception linear scan
/// (the `O(s²)` half of the release-phase scans at large sender counts);
/// the accept/reject decisions, and hence the release transcript, are
/// unchanged.
///
/// The dedup sets store 128-bit truncated SHA-256 fingerprints of the
/// keys rather than the keys themselves: equality of fingerprints stands
/// in for byte equality (a divergence needs a 2^64-work collision), the
/// per-probe hashing cost is a fixed-width word instead of a full
/// ciphertext encoding, and — the part that showed up as multi-millisecond
/// spikes at large `n` — a set growth rehash moves integers instead of
/// re-hashing every stored encoding across all `n` recipient logs at once.
///
/// Each entry's canonical ciphertext encoding is computed **once**, at
/// insertion, and cached next to the entry: it is both the replay-dedup
/// key (canonical encodings are injective, so encoding equality is value
/// equality) and the borrowed probe key the release round hands to
/// `TleFunc::dec_peek_encoded` — one encode per reception instead of one
/// per (party, sender) probe per release round.
#[derive(Clone, Debug, Default)]
pub struct WireLog {
    entries: Vec<StoredWire>,
    seen_cts: FpSet,
    seen_ys: FpSet,
}

/// One recorded wire entry: owned when it arrived through the per-party
/// [`WireLog::insert`] path, shared when a broadcast fan-out handed every
/// recipient the same preprocessed [`ParsedWire`] — recording the latter
/// is a refcount bump, not a copy, so `n` recipients of one broadcast
/// store its ciphertext once.
#[derive(Clone, Debug)]
enum StoredWire {
    Owned {
        ct: Value,
        ct_enc: Vec<u8>,
        y: Vec<u8>,
    },
    Shared(std::sync::Arc<ParsedWire>),
}

impl StoredWire {
    fn ct(&self) -> &Value {
        match self {
            StoredWire::Owned { ct, .. } => ct,
            StoredWire::Shared(w) => &w.ct,
        }
    }

    fn ct_enc(&self) -> &[u8] {
        match self {
            StoredWire::Owned { ct_enc, .. } => ct_enc,
            StoredWire::Shared(w) => &w.ct_enc,
        }
    }

    fn y(&self) -> &[u8] {
        match self {
            StoredWire::Owned { y, .. } => y,
            StoredWire::Shared(w) => &w.y,
        }
    }

    /// Whether two recorded entries are the same reception. Two `Shared`
    /// entries from one broadcast fan-out are the same `Arc` — a pointer
    /// compare; anything else falls back to byte equality of the canonical
    /// encoding and the mask (exact, since canonical encodings are
    /// injective).
    fn same_wire(&self, other: &StoredWire) -> bool {
        if let (StoredWire::Shared(a), StoredWire::Shared(b)) = (self, other) {
            if std::sync::Arc::ptr_eq(a, b) {
                return true;
            }
        }
        self.ct_enc() == other.ct_enc() && self.y() == other.y()
    }
}

impl WireLog {
    /// An empty log.
    pub fn new() -> Self {
        WireLog::default()
    }

    /// Records `(ct, y)` unless either key was seen before; returns whether
    /// the entry was fresh.
    pub fn insert(&mut self, ct: Value, y: Vec<u8>) -> bool {
        let ct_enc = ct.encode();
        let ct_fp = fingerprint(b"sbc-rec/ct", &ct_enc);
        let y_fp = fingerprint(b"sbc-rec/y", &y);
        if self.seen_cts.contains(&ct_fp) || self.seen_ys.contains(&y_fp) {
            return false;
        }
        self.seen_cts.insert(ct_fp);
        self.seen_ys.insert(y_fp);
        self.entries.push(StoredWire::Owned { ct, ct_enc, y });
        true
    }

    /// [`insert`](WireLog::insert) with the parse, the canonical encoding
    /// and the dedup fingerprints already computed — and shared — by the
    /// caller: the broadcast fan-out path, where one wire reaches every
    /// recipient and all recipient-independent work is hoisted to once
    /// per message. Replays pay two integer set probes; a fresh entry is
    /// recorded as a refcount bump on the shared wire, so the fan-out
    /// allocates nothing per recipient.
    pub fn insert_parsed(&mut self, wire: &std::sync::Arc<ParsedWire>) -> bool {
        if self.seen_cts.contains(&wire.ct_fp) || self.seen_ys.contains(&wire.y_fp) {
            return false;
        }
        self.seen_cts.insert(wire.ct_fp);
        self.seen_ys.insert(wire.y_fp);
        self.entries.push(StoredWire::Shared(wire.clone()));
        true
    }

    /// The recorded `(c, y)` entries, in arrival order.
    pub fn entries(&self) -> impl Iterator<Item = (&Value, &[u8])> {
        self.entries.iter().map(|e| (e.ct(), e.y()))
    }

    /// The recorded entries with their cached canonical ciphertext
    /// encodings, in arrival order, as `(ct_enc, y)` — the release round's
    /// iteration view (it probes `F_TLE` by encoding and never needs the
    /// decoded `Value`).
    pub fn entries_encoded(&self) -> impl Iterator<Item = (&[u8], &[u8])> {
        self.entries.iter().map(|e| (e.ct_enc(), e.y()))
    }

    /// How many entries have been recorded.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Forgets everything (period turnover).
    pub fn clear(&mut self) {
        self.entries.clear();
        self.seen_cts.clear();
        self.seen_ys.clear();
    }

    /// Whether `other` records exactly the same receptions in the same
    /// order. In a broadcast execution every wire reaches every recipient,
    /// so recipient logs are normally identical — and identical logs mean
    /// identical release computations, which is what lets a round scheduler
    /// run one release and hand it as a [`ReleasePlan`] to every party that
    /// passes this check. Entries recorded from one
    /// fan-out share their `Arc`, so the common case is a pointer compare
    /// per entry; mixed origins fall back to exact byte comparison.
    pub fn same_receptions(&self, other: &WireLog) -> bool {
        self.entries.len() == other.entries.len()
            && self
                .entries
                .iter()
                .zip(&other.entries)
                .all(|(a, b)| a.same_wire(b))
    }
}

#[derive(Clone, Debug)]
struct PendEntry {
    rho: Vec<u8>,
    msg: Value,
    encrypted: bool,
    broadcast: bool,
}

/// One party's release at `τ_rel`, kept by the round scheduler
/// (`RealSbcWorld::tick`) for reuse by every later party with the **same
/// release view** ([`SbcParty::shares_release_view`]).
///
/// At `τ_rel` a party's step is a function of its frozen wire list
/// (receptions at `Cl ≥ t_end` are discarded), the `F_TLE` records (`Dec`
/// never mutates them) and the input-addressed `F_RO` — so two parties with
/// identical wire logs release bit-for-bit the same vector and issue the
/// same oracle queries. The reusing party's
/// [`on_advance_planned`](SbcParty::on_advance_planned) therefore emits a
/// clone of the output (each party owns its output) and replays only the
/// query counter ([`RandomOracle::replay_warmed_queries`]).
#[derive(Clone, Debug)]
pub struct ReleasePlan {
    /// The release output (the sorted message vector).
    cmd: Command,
    /// How many `F_RO` queries the inline release issued.
    ro_queries: u64,
}

impl ReleasePlan {
    /// Wraps a release output `cmd` that took `ro_queries` oracle queries
    /// to compute.
    pub fn new(cmd: Command, ro_queries: u64) -> Self {
        ReleasePlan { cmd, ro_queries }
    }
}

/// Per-party state of `Π_SBC`.
#[derive(Clone, Debug)]
pub struct SbcParty {
    id: PartyId,
    phi: u64,
    delta: u64,
    tle_delay: u64,
    rng: sbc_primitives::drbg::Drbg,
    pend: Vec<PendEntry>,
    rec: WireLog,
    t_awake: Option<u64>,
    t_end: Option<u64>,
    tau_rel: Option<u64>,
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
            t_awake: None,
            t_end: None,
            tau_rel: None,
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
        self.tau_rel
    }

    /// The end of the broadcast period, once awake.
    pub fn t_end(&self) -> Option<u64> {
        self.t_end
    }

    /// Forgets the closed broadcast period so the party can take part in a
    /// fresh one (multi-epoch sessions). Queued, received and timing state
    /// is dropped; the party's randomness stream and round-dedup guard
    /// carry over, so successive epochs draw fresh `ρ` values.
    pub fn reset_period(&mut self) {
        self.pend.clear();
        self.rec.clear();
        self.t_awake = None;
        self.t_end = None;
        self.tau_rel = None;
        self.woke_up_sent = false;
    }

    /// Whether the party holds no period state at all: asleep, nothing
    /// queued, nothing received. An idle party's `on_advance` is a pure
    /// clock step (no randomness drawn, no messages, no outputs) — the
    /// precondition for the O(1) fast path of `SbcWorld::join_at`.
    pub fn is_idle(&self) -> bool {
        self.t_awake.is_none() && self.pend.is_empty() && self.rec.is_empty()
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
    pub fn on_input<U: UbcLayer>(
        &mut self,
        msg: Value,
        ubc: &mut U,
        ftle: &mut TleFunc,
        ctx: &mut HybridCtx<'_>,
    ) {
        match self.t_awake {
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
                    ubc.broadcast(self.id, wake_up(), ctx);
                }
            }
            Some(_) => {
                let now = ctx.time();
                let end = self.t_end.expect("awake implies t_end");
                if now + self.tle_delay >= end {
                    return; // cannot be ready before the period closes
                }
                let rho = self.rng.gen_bytes(32);
                let tau_rel = self.tau_rel.expect("awake implies tau_rel");
                ftle.enc(self.id, Value::bytes(&rho), tau_rel as i64, ctx);
                self.pend.push(PendEntry {
                    rho,
                    msg,
                    encrypted: true,
                    broadcast: false,
                });
            }
        }
    }

    /// A UBC delivery: either a `Wake_Up` or a `(c, τ_rel, y)` triple.
    pub fn on_ubc_deliver(&mut self, payload: &Value, ftle: &mut TleFunc, ctx: &mut HybridCtx<'_>) {
        if payload == &wake_up() {
            if self.t_awake.is_none() {
                let now = ctx.time();
                self.t_awake = Some(now);
                self.t_end = Some(now + self.phi);
                self.tau_rel = Some(now + self.phi + self.delta);
                // Encrypt everything queued while asleep.
                let tau_rel = now + self.phi + self.delta;
                for e in self.pend.iter_mut().filter(|e| !e.encrypted) {
                    e.encrypted = true;
                    ftle.enc(self.id, Value::bytes(&e.rho), tau_rel as i64, ctx);
                }
            }
            return;
        }
        self.on_wire_deliver(payload, ctx.time());
    }

    /// The non-wake-up half of [`on_ubc_deliver`](SbcParty::on_ubc_deliver):
    /// records a `(c, τ_rel, y)` wire. Touches only this party's own state
    /// (no functionality, no randomness, no leaks), which is what lets the
    /// world defer a round's deliveries into one recipient-major batch —
    /// recipients are independent, and per-recipient arrival order is all
    /// that matters.
    pub fn on_wire_deliver(&mut self, payload: &Value, now: u64) {
        let Some((ct, tau, y)) = parse_sbc_wire(payload) else {
            return;
        };
        let (Some(tau_rel), Some(end)) = (self.tau_rel, self.t_end) else {
            return;
        };
        // Receptions outside the broadcast period are discarded (§5: "all
        // broadcast operations outside the period are discarded").
        if tau != tau_rel || now >= end {
            return;
        }
        self.rec.insert(ct, y); // replay protection: dedup on either key
    }

    /// [`on_wire_deliver`](SbcParty::on_wire_deliver) with the wire already
    /// parsed, encoded and fingerprinted by the caller ([`ParsedWire`]
    /// documents what is hoisted), shared across recipients. A broadcast
    /// wire reaches every recipient identically, so the per-recipient work
    /// shrinks to the period check plus the replay-dedup probes, and a
    /// fresh reception is recorded by reference. The accept/reject
    /// decision is identical to the unparsed path.
    pub fn on_wire_deliver_parsed(&mut self, wire: &std::sync::Arc<ParsedWire>, now: u64) {
        let (Some(tau_rel), Some(end)) = (self.tau_rel, self.t_end) else {
            return;
        };
        if wire.tau != tau_rel || now >= end {
            return;
        }
        self.rec.insert_parsed(wire);
    }

    /// Whether this party's release step at round `now` is guaranteed to
    /// compute the same release as `other`'s: both are at their release
    /// round, this party has not advanced yet this round, and the two wire
    /// logs record identical receptions ([`WireLog::same_receptions`]).
    /// The release branch of [`on_advance`](SbcParty::on_advance) reads
    /// nothing else of per-party state, so a positive check licenses
    /// reusing `other`'s [`ReleasePlan`] in place of a recomputation.
    pub fn shares_release_view(&self, other: &SbcParty, now: u64) -> bool {
        self.last_advance != Some(now)
            && self.tau_rel == Some(now)
            && other.tau_rel == Some(now)
            && self.rec.same_receptions(&other.rec)
    }

    /// The round step: publish ready ciphertexts during the period, decrypt
    /// and output everything at `τ_rel`. Returns the (sorted) message
    /// vector at the release round.
    pub fn on_advance<U: UbcLayer>(
        &mut self,
        ubc: &mut U,
        ftle: &mut TleFunc,
        ro: &mut RandomOracle,
        ctx: &mut HybridCtx<'_>,
    ) -> Option<Command> {
        self.on_advance_planned(ubc, ftle, ro, ctx, None)
    }

    /// [`on_advance`](SbcParty::on_advance) with an optional release to
    /// reuse. With `plan = None` this *is* the reference step. With a
    /// plan, the release branch replays the plan's oracle query count and
    /// returns its output instead of recomputing it; callers pass a plan
    /// only after [`shares_release_view`](SbcParty::shares_release_view)
    /// held against the party the plan came from. A plan handed to a party
    /// that does not release this round is ignored.
    pub fn on_advance_planned<U: UbcLayer>(
        &mut self,
        ubc: &mut U,
        ftle: &mut TleFunc,
        ro: &mut RandomOracle,
        ctx: &mut HybridCtx<'_>,
        plan: Option<ReleasePlan>,
    ) -> Option<Command> {
        let now = ctx.time();
        if self.last_advance == Some(now) {
            return None;
        }
        self.last_advance = Some(now);
        let (Some(awake), Some(end), Some(tau_rel)) = (self.t_awake, self.t_end, self.tau_rel)
        else {
            return None;
        };
        if awake <= now && now < end {
            // Fetch ciphertexts that became ready and broadcast them.
            let triples = ftle.retrieve(self.id, ctx);
            for (rho_v, ct, _tau) in triples {
                let Some(rho) = rho_v.as_bytes() else {
                    continue;
                };
                let Some(entry) = self.pend.iter_mut().find(|e| e.rho == rho && !e.broadcast)
                else {
                    continue;
                };
                entry.broadcast = true;
                let m_bytes = entry.msg.encode();
                let eta = ro.query_bytes(Caller::Party(self.id), &entry.rho, m_bytes.len());
                let y: Vec<u8> = m_bytes.iter().zip(eta.iter()).map(|(a, b)| a ^ b).collect();
                let wire = sbc_wire(&ct, tau_rel, &y);
                ubc.broadcast(self.id, wire, ctx);
            }
        }
        if now == tau_rel {
            if let Some(plan) = plan {
                ro.replay_warmed_queries(plan.ro_queries);
                return Some(plan.cmd);
            }
            let mut out = Vec::new();
            for (ct_enc, y) in self.rec.entries_encoded() {
                let resp = match ftle.dec_peek_encoded(ct_enc, tau_rel as i64, ctx.time()) {
                    Some(r) => r,
                    None => continue, // unknown ciphertext: ⊥, skipped
                };
                let DecResponse::Message(rho_v) = resp else {
                    continue;
                };
                let Some(rho) = rho_v.as_bytes() else {
                    continue;
                };
                let eta = ro.query_bytes(Caller::Party(self.id), rho, y.len());
                let m_bytes: Vec<u8> = y.iter().zip(eta.iter()).map(|(a, b)| a ^ b).collect();
                out.push(Value::decode(&m_bytes).unwrap_or(Value::Bytes(m_bytes)));
            }
            out.sort();
            return Some(Command::new("Broadcast", Value::List(out)));
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sbc_broadcast::ubc::func::UbcFunc;
    use sbc_primitives::drbg::Drbg;
    use sbc_uc::clock::GlobalClock;
    use sbc_uc::corruption::CorruptionTracker;

    const PHI: u64 = 3;
    const DELTA: u64 = 2;
    const TLE_DELAY: u64 = 1;

    struct Fx {
        clock: GlobalClock,
        rng: Drbg,
        leaks: Vec<sbc_uc::world::Leak>,
        corr: CorruptionTracker,
    }

    impl Fx {
        fn new(n: usize) -> Self {
            Fx {
                clock: GlobalClock::new(PartyId::all(n)),
                rng: Drbg::from_seed(b"sbcp"),
                leaks: Vec::new(),
                corr: CorruptionTracker::new(n),
            }
        }
        fn ctx(&mut self) -> HybridCtx<'_> {
            HybridCtx {
                clock: &mut self.clock,
                rng: &mut self.rng,
                leaks: &mut self.leaks,
                corr: &mut self.corr,
            }
        }
    }

    struct Stack {
        fx: Fx,
        parties: Vec<SbcParty>,
        ubc: UbcFunc,
        ftle: TleFunc,
        ro: RandomOracle,
    }

    impl Stack {
        fn new(n: usize) -> Self {
            Stack {
                fx: Fx::new(n),
                parties: (0..n as u32)
                    .map(|i| {
                        SbcParty::new(
                            PartyId(i),
                            PHI,
                            DELTA,
                            TLE_DELAY,
                            Drbg::from_seed(format!("p{i}").as_bytes()),
                        )
                    })
                    .collect(),
                ubc: UbcFunc::new(n, Drbg::from_seed(b"ubc-tags")),
                ftle: TleFunc::new(1, TLE_DELAY, Drbg::from_seed(b"tle-tags")),
                ro: RandomOracle::new(Drbg::from_seed(b"fro")),
            }
        }

        fn input(&mut self, p: u32, msg: Value) {
            let mut ctx = self.fx.ctx();
            self.parties[p as usize].on_input(msg, &mut self.ubc, &mut self.ftle, &mut ctx);
        }

        /// Advances every party once and ticks the clock; returns outputs.
        fn round(&mut self) -> Vec<(u32, Command)> {
            let n = self.parties.len();
            let mut outputs = Vec::new();
            for i in 0..n {
                let out = {
                    let mut ctx = self.fx.ctx();
                    self.parties[i].on_advance(
                        &mut self.ubc,
                        &mut self.ftle,
                        &mut self.ro,
                        &mut ctx,
                    )
                };
                if let Some(cmd) = out {
                    outputs.push((i as u32, cmd));
                }
                let ds = {
                    let mut ctx = self.fx.ctx();
                    self.ubc.advance_clock(PartyId(i as u32), &mut ctx)
                };
                for d in ds {
                    let mut ctx = self.fx.ctx();
                    self.parties[d.to.index()].on_ubc_deliver(
                        &d.cmd.value,
                        &mut self.ftle,
                        &mut ctx,
                    );
                }
                self.fx.clock.advance_party(PartyId(i as u32));
            }
            outputs
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
        let wire =
            s.fx.leaks
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
        {
            let mut ctx = s.fx.ctx();
            s.parties[1].on_ubc_deliver(&wire, &mut s.ftle, &mut ctx);
        }
        let mut all = Vec::new();
        for _ in 0..(PHI + DELTA) {
            all.extend(s.round());
        }
        let p1_out = all.iter().find(|(p, _)| *p == 1).unwrap();
        assert_eq!(p1_out.1.value.as_list().unwrap().len(), 1, "replay dropped");
    }

    #[test]
    fn partial_collision_wires_dropped() {
        // Either key replayed — the same ciphertext under a fresh mask, or
        // the same mask under a fresh ciphertext — is a replay. The hash
        // sets must keep the OR semantics of the old linear scan.
        let mut log = WireLog::new();
        assert!(log.insert(Value::bytes(b"ct-a"), b"y-a".to_vec()));
        assert!(!log.insert(Value::bytes(b"ct-a"), b"y-b".to_vec()));
        assert!(!log.insert(Value::bytes(b"ct-b"), b"y-a".to_vec()));
        assert!(log.insert(Value::bytes(b"ct-b"), b"y-b".to_vec()));
        assert_eq!(log.len(), 2);
        assert!(!log.is_empty());
        log.clear();
        assert!(log.is_empty());
        // A cleared log accepts previously seen keys again (fresh period).
        assert!(log.insert(Value::bytes(b"ct-a"), b"y-a".to_vec()));
    }

    #[test]
    fn wire_log_caches_one_canonical_encoding_per_entry() {
        // The release round probes F_TLE by canonical ciphertext encoding;
        // the log computes that encoding exactly once, at insertion, and
        // the cached bytes must stay equal to `ct.encode()` entry for
        // entry, in arrival order — including across a clear (period
        // turnover re-encodes from scratch).
        let mut log = WireLog::new();
        let cts = [Value::bytes(b"ct-a"), Value::list([Value::U64(7)])];
        assert!(log.insert(cts[0].clone(), b"y-a".to_vec()));
        assert!(log.insert(cts[1].clone(), b"y-b".to_vec()));
        // A rejected replay must not grow the encoding cache.
        assert!(!log.insert(cts[0].clone(), b"y-fresh".to_vec()));
        let encoded: Vec<(Vec<u8>, Vec<u8>)> = log
            .entries_encoded()
            .map(|(enc, y)| (enc.to_vec(), y.to_vec()))
            .collect();
        assert_eq!(encoded.len(), log.len());
        for ((enc, y), (ct, y2)) in encoded.iter().zip(log.entries()) {
            assert_eq!(enc, &ct.encode(), "cached encoding is canonical");
            assert_eq!(y.as_slice(), y2, "cache iterates in arrival order");
        }
        log.clear();
        assert!(log.entries_encoded().next().is_none());
        assert!(log.insert(cts[0].clone(), b"y-a".to_vec()));
        assert_eq!(log.entries_encoded().count(), 1);
    }

    #[test]
    fn planned_release_is_bit_identical_to_inline_release() {
        // Drive two identical stacks to the release round; release one
        // inline everywhere, and in the other let parties 1.. reuse party
        // 0's release. Outputs and the oracle query count must match.
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

        let now = reused.fx.clock.read();
        let mut plan: Option<ReleasePlan> = None;
        let mut reused_out = Vec::new();
        for i in 0..reused.parties.len() {
            if i > 0 {
                assert!(reused.parties[i].shares_release_view(&reused.parties[0], now));
            }
            let before = reused.ro.query_count();
            let out = {
                let mut ctx = reused.fx.ctx();
                reused.parties[i].on_advance_planned(
                    &mut reused.ubc,
                    &mut reused.ftle,
                    &mut reused.ro,
                    &mut ctx,
                    plan.clone(),
                )
            };
            let cmd = out.expect("every party releases at τ_rel");
            if plan.is_none() {
                let queries = reused.ro.query_count() - before;
                plan = Some(ReleasePlan::new(cmd.clone(), queries));
            }
            reused_out.push((i as u32, cmd));
            reused.fx.clock.advance_party(PartyId(i as u32));
        }
        assert_eq!(reused_out, inline_out);
        assert_eq!(reused.ro.query_count(), inline.ro.query_count());
        // A plan handed to a party that does not release is ignored.
        inline.round();
        let mut ctx = inline.fx.ctx();
        assert!(inline.parties[0]
            .on_advance_planned(
                &mut inline.ubc,
                &mut inline.ftle,
                &mut inline.ro,
                &mut ctx,
                plan
            )
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
