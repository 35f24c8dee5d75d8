//! The time-lock encryption functionality `F_TLE(leak, delay)` (paper
//! Fig. 7).
//!
//! The functionality records `(M, c, τ, tag, Cl, P)` tuples. Honest
//! encryptions enter with `c = Null`; the simulator supplies ciphertexts
//! via `Update` (it never sees the plaintext before `leak` allows).
//! `Retrieve` returns a party's own encryptions once `delay` rounds old;
//! `Dec` enforces the time-lock (`More_Time` before `τ`), asks the
//! simulator to decrypt unknown (adversarial) ciphertexts, and rejects
//! ambiguous ones.
//!
//! The leakage function is `leak(Cl) = Cl + α`: the adversary may read any
//! recorded plaintext whose decryption time is at most `α` rounds ahead —
//! exactly the head start fair broadcast gives it (Theorem 1).

use sbc_uc::hybrid::HybridCtx;
use sbc_uc::ids::{PartyId, ReservedTag, Tag};
use sbc_uc::value::Value;
use std::collections::HashMap;

/// A recorded tuple `(M, c, τ, tag, Cl, P)`.
#[derive(Clone, Debug)]
struct TleRecord {
    /// The plaintext.
    msg: Value,
    /// The ciphertext (None = `Null`, awaiting the simulator's `Update`).
    ct: Option<Value>,
    /// Decryption time.
    tau: u64,
    /// Record tag (None for adversarial insertions), reserved at `Enc`.
    tag: Option<ReservedTag>,
    /// Round of the encryption request.
    requested_at: u64,
    /// The encryptor (None for adversarial insertions).
    owner: Option<PartyId>,
}

/// Responses of the `Dec` interface.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum DecResponse {
    /// The plaintext.
    Message(Value),
    /// `Cl < τ` (or the true decryption time): wait.
    MoreTime,
    /// `Cl ≥ τ_dec > τ`: the claimed time is inconsistent.
    InvalidTime,
    /// Failure (`⊥`): negative time, unknown or ambiguous ciphertext.
    Bottom,
}

impl DecResponse {
    /// Canonical wire encoding of the response.
    pub fn to_value(&self) -> Value {
        match self {
            DecResponse::Message(m) => Value::pair(Value::str("Message"), m.clone()),
            DecResponse::MoreTime => Value::str("More_Time"),
            DecResponse::InvalidTime => Value::str("Invalid_Time"),
            DecResponse::Bottom => Value::str("\u{22a5}"),
        }
    }

    /// Inverse of [`to_value`](DecResponse::to_value); `None` for anything
    /// that is not a response encoding.
    pub fn from_value(v: &Value) -> Option<DecResponse> {
        if let Some([label, m]) = v.as_list() {
            return (label.as_str() == Some("Message")).then(|| DecResponse::Message(m.clone()));
        }
        match v.as_str()? {
            "More_Time" => Some(DecResponse::MoreTime),
            "Invalid_Time" => Some(DecResponse::InvalidTime),
            "\u{22a5}" => Some(DecResponse::Bottom),
            _ => None,
        }
    }
}

/// Leak source label for `F_TLE`.
pub(crate) const TLE_SOURCE: &str = "F_TLE";

/// The functionality `F_TLE^{leak,delay}(P)`.
///
/// The record set carries three lookup indices so the per-round interfaces
/// stay ~linear in the number of *relevant* records instead of scanning
/// every tuple ever recorded: [`retrieve`](TleFunc::retrieve) walks only
/// the caller's own records (`by_owner`), [`dec`](TleFunc::dec) resolves a
/// ciphertext in O(matching) (`by_ct`, keyed on the canonical ciphertext
/// encoding), and `Update` resolves its tag in O(1) (`by_tag`, which the
/// first `Update` builds and each later one extends over the records
/// added since). Index maintenance is append-only — records are never
/// removed except by [`clear_records`](TleFunc::clear_records), which
/// drops the indices with them — so index vectors stay in record order
/// and every indexed path observes records in exactly the order the old
/// linear scans did.
#[derive(Clone, Debug)]
pub struct TleFunc {
    alpha: u64,
    delay: u64,
    records: Vec<TleRecord>,
    /// Record indices owned by each party (indexed by party id), in
    /// record order.
    by_owner: Vec<Vec<usize>>,
    /// Record indices per canonical ciphertext encoding, in record order.
    /// A record enters when its ciphertext is set (at push time for
    /// adversarial/simulator tuples, at `Update`/fill time for honest
    /// ones); a ciphertext is set at most once per record.
    by_ct: HashMap<Vec<u8>, Vec<usize>>,
    /// Record index per honest tag (tags are unique per record), over
    /// the first `tagged` records.
    by_tag: HashMap<[u8; 16], usize>,
    tagged: usize,
    tag_rng: sbc_primitives::drbg::Drbg,
    /// Stream used to fill ciphertexts the simulator never set (Fig. 7
    /// `Retrieve` step 1), forked off the tag stream.
    fill_rng: sbc_primitives::drbg::Drbg,
}

impl TleFunc {
    /// Creates the functionality with `leak(Cl) = Cl + alpha` and the given
    /// ciphertext-generation `delay`.
    pub fn new(alpha: u64, delay: u64, mut tag_rng: sbc_primitives::drbg::Drbg) -> Self {
        let fill_rng = tag_rng.fork(b"fill");
        TleFunc {
            alpha,
            delay,
            records: Vec::new(),
            by_owner: Vec::new(),
            by_ct: HashMap::new(),
            by_tag: HashMap::new(),
            tagged: 0,
            tag_rng,
            fill_rng,
        }
    }

    /// Indexes record `idx` under its (just set) ciphertext.
    fn index_ct(by_ct: &mut HashMap<Vec<u8>, Vec<usize>>, ct: &Value, idx: usize) {
        by_ct.entry(ct.encode()).or_default().push(idx);
    }

    /// Drops every recorded tuple. Used by multi-epoch drivers when a
    /// broadcast period is fully released: keeping the dead records would
    /// only grow `Retrieve`/`Dec` scans without changing any output.
    pub fn clear_records(&mut self) {
        self.records.clear();
        self.by_owner.clear();
        self.by_ct.clear();
        self.by_tag.clear();
        self.tagged = 0;
    }

    /// `Enc` from an honest party. Returns `false` for `τ < 0` (the caller
    /// translates to `⊥`). Leaks `(Enc, τ, tag, Cl, 0^|M|, P)` to the
    /// adversary (Fig. 7).
    pub fn enc(&mut self, party: PartyId, msg: Value, tau: i64, ctx: &mut HybridCtx<'_>) -> bool {
        if tau < 0 {
            return false;
        }
        let mut tag = ReservedTag::reserve(&mut self.tag_rng);
        let msg_len = msg.encoded_len();
        let now = ctx.time();
        let tag_rng = &self.tag_rng;
        ctx.leak(TLE_SOURCE, || {
            sbc_uc::value::Command::new(
                "Enc",
                Value::list([
                    Value::U64(tau as u64),
                    Value::bytes(tag.get(tag_rng).as_bytes()),
                    Value::U64(now),
                    Value::U64(msg_len as u64),
                    Value::U64(party.0 as u64),
                ]),
            )
        });
        let idx = self.records.len();
        self.records.push(TleRecord {
            msg,
            ct: None,
            tau: tau as u64,
            tag: Some(tag),
            requested_at: now,
            owner: Some(party),
        });
        if self.by_owner.len() <= party.index() {
            self.by_owner.resize_with(party.index() + 1, Vec::new);
        }
        self.by_owner[party.index()].push(idx);
        true
    }

    /// `Update` from the simulator: attaches ciphertexts to `Null` records.
    /// Indexes the tags of the records added since the last `Update` first.
    pub(crate) fn update_ciphertexts(&mut self, updates: &[(Value, Tag)]) {
        for (idx, rec) in self.records.iter_mut().enumerate().skip(self.tagged) {
            if let Some(tag) = &mut rec.tag {
                self.by_tag.insert(tag.get(&self.tag_rng).0, idx);
            }
        }
        self.tagged = self.records.len();
        for (ct, tag) in updates {
            let Some(&idx) = self.by_tag.get(&tag.0) else {
                continue;
            };
            let rec = &mut self.records[idx];
            if rec.ct.is_none() {
                rec.ct = Some(ct.clone());
                Self::index_ct(&mut self.by_ct, ct, idx);
            }
        }
    }

    /// `Update` from the simulator: inserts decrypted adversarial tuples.
    pub fn insert_adversarial(&mut self, ct: Value, msg: Value, tau: u64) {
        let idx = self.records.len();
        Self::index_ct(&mut self.by_ct, &ct, idx);
        self.records.push(TleRecord {
            msg,
            ct: Some(ct),
            tau,
            tag: None,
            requested_at: 0,
            owner: None,
        });
    }

    /// `Retrieve` from `party`: its own encryptions at least `delay` rounds
    /// old, as `(M, c, τ)` triples. Records whose ciphertext the simulator
    /// never set are filled with functionality-sampled randomness (Fig. 7
    /// step 1 of `Retrieve`).
    pub fn retrieve(
        &mut self,
        party: PartyId,
        ctx: &mut HybridCtx<'_>,
    ) -> Vec<(Value, Value, u64)> {
        let now = ctx.time();
        let mut out = Vec::new();
        // Only the caller's own records are visited — record order is
        // preserved because the owner index is append-ordered.
        let indices = self
            .by_owner
            .get(party.index())
            .map_or(&[][..], Vec::as_slice);
        for &idx in indices {
            let rec = &mut self.records[idx];
            if now.saturating_sub(rec.requested_at) < self.delay {
                continue;
            }
            let filled = rec.ct.is_none();
            let fill = &mut self.fill_rng;
            let ct = rec
                .ct
                .get_or_insert_with(|| Value::Bytes(fill.gen_bytes(64)))
                .clone();
            if filled {
                Self::index_ct(&mut self.by_ct, &ct, idx);
            }
            out.push((rec.msg.clone(), ct, rec.tau));
        }
        out
    }

    /// `Dec` for a known ciphertext; returns `None` when the functionality
    /// must ask the simulator (unknown ciphertext). `Dec` never mutates the
    /// record set.
    ///
    /// This form encodes the ciphertext before probing — what a party's
    /// `Dec` at the release round goes through; a caller holding the
    /// canonical encoding already, or probing at another clock reading,
    /// uses [`dec_peek_encoded`](TleFunc::dec_peek_encoded) directly.
    pub fn dec(&mut self, ct: &Value, tau: i64, ctx: &HybridCtx<'_>) -> Option<DecResponse> {
        self.dec_peek_encoded(&ct.encode(), tau, ctx.time())
    }

    /// [`dec`](TleFunc::dec) keyed on the **pre-encoded** canonical
    /// ciphertext bytes, at a caller-supplied clock reading — the
    /// allocation-free probe behind `Dec`. The index map is keyed on
    /// canonical encodings, so a borrowed `&[u8]` probes it directly; the
    /// candidate records are visited through the index vector without
    /// collecting them, so a probe allocates nothing beyond the response
    /// it returns.
    pub fn dec_peek_encoded(&self, ct_enc: &[u8], tau: i64, now: u64) -> Option<DecResponse> {
        if tau < 0 {
            return Some(DecResponse::Bottom);
        }
        let tau = tau as u64;
        if now < tau {
            return Some(DecResponse::MoreTime);
        }
        // O(matching) by-ciphertext lookup; the index vector is in record
        // order, so the probe sees exactly the old linear scan's view.
        let indices: &[usize] = match self.by_ct.get(ct_enc) {
            Some(v) => v,
            None => &[],
        };
        let Some(&first_idx) = indices.first() else {
            return None; // ask the simulator
        };
        let first = &self.records[first_idx];
        // Ambiguity: two different plaintexts for one ciphertext.
        if indices.iter().any(|&i| {
            let r = &self.records[i];
            r.msg != first.msg && tau >= r.tau.max(first.tau)
        }) {
            return Some(DecResponse::Bottom);
        }
        if tau >= first.tau {
            Some(DecResponse::Message(first.msg.clone()))
        } else if now < first.tau {
            Some(DecResponse::MoreTime)
        } else {
            Some(DecResponse::InvalidTime)
        }
    }

    /// `Leakage` to the simulator: every `(M, c, τ)` with `τ ≤ leak(Cl)`,
    /// plus all records of corrupted owners (`c` is `None` while `Null`).
    pub fn leakage(&self, ctx: &HybridCtx<'_>) -> Vec<(Value, Option<Value>, u64)> {
        let horizon = ctx.time() + self.alpha;
        self.records
            .iter()
            .filter(|r| r.tau <= horizon || r.owner.map(|p| ctx.is_corrupted(p)).unwrap_or(false))
            .map(|r| (r.msg.clone(), r.ct.clone(), r.tau))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sbc_primitives::drbg::Drbg;
    use sbc_primitives::sha256::compressions;
    use sbc_uc::world::WorldCore;

    fn func() -> TleFunc {
        // leak(Cl) = Cl + 2, delay = 3 (the ∆=2 instantiation of Thm. 1).
        TleFunc::new(2, 3, Drbg::from_seed(b"ftle-tags"))
    }

    /// An honest `Enc`, and the tag its leak hands the simulator.
    fn enc(f: &mut TleFunc, core: &mut WorldCore, party: u32, msg: Value, tau: i64) -> Tag {
        assert!(f.enc(PartyId(party), msg, tau, &mut core.ctx()));
        let leak = &core.leaks.last().expect("the Enc leak").cmd.value;
        Tag::from_bytes(leak.as_list().unwrap()[1].as_bytes().unwrap()).unwrap()
    }

    #[test]
    fn negative_tau_rejected() {
        let mut core = WorldCore::new(1, b"ftle");
        let mut f = func();
        assert!(!f.enc(PartyId(0), Value::U64(1), -1, &mut core.ctx()));
        assert_eq!(
            f.dec(&Value::bytes(b"c"), -5, &core.ctx()),
            Some(DecResponse::Bottom)
        );
    }

    #[test]
    fn retrieve_respects_delay_and_ownership() {
        let mut core = WorldCore::new(2, b"ftle");
        let mut f = func();
        let tag = enc(&mut f, &mut core, 0, Value::bytes(b"m"), 10);
        f.update_ciphertexts(&[(Value::bytes(b"ct"), tag)]);
        assert!(
            f.retrieve(PartyId(0), &mut core.ctx()).is_empty(),
            "before delay"
        );
        for _ in 0..3 {
            core.clock.fast_forward(core.clock.read() + 1);
        }
        let r = f.retrieve(PartyId(0), &mut core.ctx());
        assert_eq!(r.len(), 1);
        assert_eq!(r[0].0, Value::bytes(b"m"));
        assert_eq!(r[0].1, Value::bytes(b"ct"));
        assert!(
            f.retrieve(PartyId(1), &mut core.ctx()).is_empty(),
            "not the owner"
        );
    }

    #[test]
    fn retrieve_fills_missing_ciphertexts() {
        let mut core = WorldCore::new(1, b"ftle");
        let mut f = func();
        enc(&mut f, &mut core, 0, Value::U64(1), 10);
        for _ in 0..3 {
            core.clock.fast_forward(core.clock.read() + 1);
        }
        let r = f.retrieve(PartyId(0), &mut core.ctx());
        assert_eq!(r.len(), 1);
        assert!(
            r[0].1.as_bytes().is_some(),
            "functionality sampled a ciphertext"
        );
    }

    #[test]
    fn dec_time_lock_enforced() {
        let mut core = WorldCore::new(1, b"ftle");
        let mut f = func();
        let tag = enc(&mut f, &mut core, 0, Value::bytes(b"secret"), 2);
        let ct = Value::bytes(b"ct");
        f.update_ciphertexts(&[(ct.clone(), tag)]);
        assert_eq!(
            f.dec(&ct, 2, &core.ctx()),
            Some(DecResponse::MoreTime),
            "Cl=0 < τ=2"
        );
        core.clock.fast_forward(core.clock.read() + 1);
        core.clock.fast_forward(core.clock.read() + 1);
        assert_eq!(
            f.dec(&ct, 2, &core.ctx()),
            Some(DecResponse::Message(Value::bytes(b"secret")))
        );
    }

    #[test]
    fn dec_invalid_time() {
        let mut core = WorldCore::new(1, b"ftle");
        let mut f = func();
        let tag = enc(&mut f, &mut core, 0, Value::U64(1), 2);
        let ct = Value::bytes(b"ct");
        f.update_ciphertexts(&[(ct.clone(), tag)]);
        core.clock.fast_forward(core.clock.read() + 1);
        core.clock.fast_forward(core.clock.read() + 1);
        core.clock.fast_forward(core.clock.read() + 1);
        // Claimed τ=1 < true τ_dec=2 ≤ Cl=3 → Invalid_Time.
        assert_eq!(f.dec(&ct, 1, &core.ctx()), Some(DecResponse::InvalidTime));
    }

    #[test]
    fn ambiguous_ciphertext_rejected() {
        let mut core = WorldCore::new(1, b"ftle");
        let mut f = func();
        let ct = Value::bytes(b"dup");
        f.insert_adversarial(ct.clone(), Value::U64(1), 0);
        f.insert_adversarial(ct.clone(), Value::U64(2), 0);
        assert_eq!(f.dec(&ct, 0, &core.ctx()), Some(DecResponse::Bottom));
    }

    #[test]
    fn leakage_respects_horizon() {
        let mut core = WorldCore::new(2, b"ftle");
        let mut f = func(); // α = 2
        enc(&mut f, &mut core, 0, Value::bytes(b"near"), 2);
        enc(&mut f, &mut core, 0, Value::bytes(b"far"), 9);
        enc(&mut f, &mut core, 1, Value::bytes(b"corrupted-owner"), 9);
        core.corr.corrupt(PartyId(1)).unwrap();
        let ctx = core.ctx();
        let leaked = f.leakage(&ctx);
        // τ=2 ≤ 0+2 leaks; τ=9 doesn't; corrupted owner's does.
        assert_eq!(leaked.len(), 2);
        assert!(leaked.iter().any(|(m, _, _)| *m == Value::bytes(b"near")));
        assert!(leaked
            .iter()
            .any(|(m, _, _)| *m == Value::bytes(b"corrupted-owner")));
    }

    #[test]
    fn a_tag_is_computed_only_where_it_is_read() {
        // Twin functionalities on one tag stream: one leaks into a
        // capturing channel, the other into a counting one.
        let mut kept = WorldCore::new(2, b"ftle");
        let mut counted = WorldCore::new(2, b"ftle");
        counted.count_leaks_only();
        let (mut a, mut b) = (func(), func());
        let before = compressions();
        let tags: Vec<Tag> = (0..3)
            .map(|k| enc(&mut a, &mut kept, k % 2, Value::U64(k as u64), 0))
            .collect();
        assert_eq!(compressions() - before, 3, "a kept leak computes its tag");
        let before = compressions();
        for k in 0..3 {
            assert!(b.enc(PartyId(k % 2), Value::U64(k as u64), 0, &mut counted.ctx()));
        }
        assert_eq!(compressions() - before, 0, "a counted one does not");
        // The first `Update` indexes every tag, once, and finds each
        // record by the tag the kept twin leaked for it.
        let updates = [
            (Value::bytes(b"ct1"), tags[1]),
            (Value::bytes(b"ct2"), tags[2]),
        ];
        let before = compressions();
        b.update_ciphertexts(&updates[..1]);
        b.update_ciphertexts(&updates[1..]);
        assert_eq!(compressions() - before, 3);
        for (k, (ct, _)) in [(1, &updates[0]), (2, &updates[1])] {
            let opened = b.dec(ct, 0, &counted.ctx());
            assert_eq!(opened, Some(DecResponse::Message(Value::U64(k))));
        }
        // The kept twin computed its tags at `Enc`: indexing them is free.
        let before = compressions();
        a.update_ciphertexts(&updates);
        assert_eq!(compressions() - before, 0);
        assert_eq!(a.leakage(&kept.ctx()), b.leakage(&counted.ctx()));
    }

    #[test]
    fn indexes_track_fill_update_and_clear() {
        let mut core = WorldCore::new(2, b"ftle");
        let mut f = func();
        // Honest record, ciphertext attached by Update: dec resolves via
        // the by-ct index.
        let tag = enc(&mut f, &mut core, 0, Value::bytes(b"m0"), 0);
        f.update_ciphertexts(&[(Value::bytes(b"ct0"), tag)]);
        // A second Update on the same tag must not re-index or overwrite.
        f.update_ciphertexts(&[(Value::bytes(b"ct-other"), tag)]);
        assert_eq!(
            f.dec(&Value::bytes(b"ct0"), 0, &core.ctx()),
            Some(DecResponse::Message(Value::bytes(b"m0")))
        );
        assert_eq!(f.dec(&Value::bytes(b"ct-other"), 0, &core.ctx()), None);
        // Honest record whose ciphertext the functionality fills at
        // Retrieve time: the filled ciphertext becomes decryptable.
        enc(&mut f, &mut core, 1, Value::bytes(b"m1"), 0);
        for _ in 0..3 {
            core.clock.fast_forward(core.clock.read() + 1);
        }
        let filled = f.retrieve(PartyId(1), &mut core.ctx());
        assert_eq!(filled.len(), 1);
        let filled_ct = filled[0].1.clone();
        assert_eq!(
            f.dec(&filled_ct, 0, &core.ctx()),
            Some(DecResponse::Message(Value::bytes(b"m1")))
        );
        // clear_records drops the indices with the records: the old
        // ciphertexts become unknown again and retrieval is empty.
        f.clear_records();
        assert_eq!(f.dec(&Value::bytes(b"ct0"), 0, &core.ctx()), None);
        assert_eq!(f.dec(&filled_ct, 0, &core.ctx()), None);
        assert!(f.retrieve(PartyId(1), &mut core.ctx()).is_empty());
        // Fresh records after a clear index from scratch.
        f.insert_adversarial(Value::bytes(b"ct2"), Value::U64(7), 0);
        assert_eq!(
            f.dec(&Value::bytes(b"ct2"), 0, &core.ctx()),
            Some(DecResponse::Message(Value::U64(7)))
        );
    }

    #[test]
    fn encoded_probe_matches_value_probe_on_every_branch() {
        // dec delegates to dec_peek_encoded; a caller probing with the
        // canonical encoding must see the same response as one probing
        // with the Value, on every response branch.
        let mut core = WorldCore::new(1, b"ftle");
        let mut f = func();
        let known = Value::bytes(b"known-ct");
        f.insert_adversarial(known.clone(), Value::bytes(b"m"), 2);
        let dup = Value::bytes(b"dup-ct");
        f.insert_adversarial(dup.clone(), Value::U64(1), 0);
        f.insert_adversarial(dup.clone(), Value::U64(2), 0);
        let unknown = Value::bytes(b"unknown-ct");
        for _ in 0..3 {
            core.clock.fast_forward(core.clock.read() + 1);
        }
        let now = core.clock.read();
        let cases: [(&Value, i64); 6] = [
            (&known, -1),             // Bottom (negative τ)
            (&known, now as i64 + 1), // MoreTime (Cl < τ)
            (&known, 2),              // Message
            (&known, 1),              // InvalidTime (τ < τ_dec ≤ Cl)
            (&dup, 0),                // Bottom (ambiguous)
            (&unknown, 0),            // None (ask the simulator)
        ];
        for (ct, tau) in cases {
            let enc = ct.encode();
            assert_eq!(
                f.dec_peek_encoded(&enc, tau, now),
                f.dec(ct, tau, &core.ctx()),
                "ct={ct:?} tau={tau}"
            );
        }
        // The probe key is borrowed: a plain byte slice (no owned Vec key,
        // no Value round-trip) resolves against the canonical-encoding map.
        let enc = known.encode();
        let borrowed: &[u8] = &enc;
        assert_eq!(
            f.dec_peek_encoded(borrowed, 2, now),
            Some(DecResponse::Message(Value::bytes(b"m")))
        );
    }

    #[test]
    fn dec_response_encodings_distinct() {
        let vals = [
            DecResponse::Message(Value::U64(1)).to_value(),
            DecResponse::MoreTime.to_value(),
            DecResponse::InvalidTime.to_value(),
            DecResponse::Bottom.to_value(),
        ];
        for i in 0..vals.len() {
            for j in i + 1..vals.len() {
                assert_ne!(vals[i], vals[j]);
            }
        }
        // ... and each decodes back to the response it came from; `Unit`
        // (how the wire says "unknown ciphertext") is none of them.
        for r in [
            DecResponse::Message(Value::U64(1)),
            DecResponse::MoreTime,
            DecResponse::InvalidTime,
            DecResponse::Bottom,
        ] {
            assert_eq!(DecResponse::from_value(&r.to_value()), Some(r));
        }
        assert_eq!(DecResponse::from_value(&Value::Unit), None);
        assert_eq!(DecResponse::from_value(&Value::str("Message")), None);
    }
}
