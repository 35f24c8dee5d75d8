//! Snapshot/restore: the service's live state in one flat digest-sealed
//! envelope.
//!
//! ## Why live state is enough
//!
//! `F_SBC` ends every session ∆ rounds after its broadcast period closes,
//! without waiting for all parties, so a service instance is live for at
//! most Φ + ∆ + 1 rounds. Everything older has left the service as a
//! [`ReleaseRecord`] and survives only in counters and the latency
//! histogram. An image therefore holds what is live now:
//!
//! * the config, the absolute counters and the rounds histogram;
//! * the clock round and the next instance id and ticket;
//! * the three queues, and which instance is collecting;
//! * the parked release records;
//! * for each live instance, its id, its open round and its admissions.
//!
//! A live instance is a deterministic function of those: all its
//! randomness comes from the pool seed forked by its id, it joins the
//! shared clock at its open round, and admission `k` went to party slot
//! `k mod n`. Restore builds a fresh pool, reopens each live instance at
//! its id through [`sbc_core::pool::SbcPool::resume_at`], feeds it its
//! admissions at their rounds and steps all of them to the capture
//! round. That replays at most `max_live × (Φ + ∆ + 1)` instance-rounds,
//! whatever the service's age, and never runs the admission policy.
//! Counters come back as written, and parked records come back parked.
//!
//! ## Image format (envelope version 4)
//!
//! One flat envelope, owned by this module:
//!
//! ```text
//! "SBCI" ‖ version (1 B) ‖ payload_len (u64 BE) ‖ payload
//!        ‖ SHA-256("sbc-service/image" ‖ version ‖ payload_len ‖ payload)
//! ```
//!
//! The writer materialises the payload once and writes header, payload
//! and digest in order; the reader takes at most `payload_len` bytes,
//! growing its buffer only with what actually arrives, so a hostile
//! length never sizes an allocation. Truncation fails on the length or
//! the digest; bit flips, splices and forged digests fail on the digest;
//! bytes after the digest fail [`SbcService::restore`]'s exact-end check.
//! The digest is unkeyed — anyone can re-seal an image — so the parser
//! also refuses, as [`ServiceError::BadSnapshot`], any state a service
//! cannot reach: a live instance older than Φ + ∆ + 1 rounds or opened
//! at or after the capture round, more live instances than `max_live`,
//! more queued entries than `queue_cap`, and counters that contradict
//! the state. Earlier formats (a single `sbc-net` frame, a framed chunk
//! stream, then the v3 journal image) are not read. The payload is the
//! canonical [`Value`] encoding of
//!
//! ```text
//! List[ Str("sbc-service/v4"),
//!       List[n, Φ, ∆, α, delay],                                   (U64s)
//!       Bytes(seed),
//!       U64(mode),
//!       List[queue_cap, batch_size, max_live, flush_after, leak_cap+1|0],
//!       List[11 counters],
//!       List[List[bucket…], count, sum, max],                 (histogram)
//!       List[round, next_instance, next_ticket],
//!       List[queue × 3],    queue = List[List[ticket, Bytes, enqueued]…]
//!       U64(collecting instance + 1 | 0),
//!       List[record…],      record = List[instance, release round,
//!                                         List[Bytes…], List[ticket…]]
//!       List[live…] ]       live = List[instance, open round,
//!                                       List[List[ticket, enqueued,
//!                                                 admitted, Bytes]…]]
//! ```

use std::collections::{BTreeMap, BTreeSet, VecDeque};
use std::io::{self, Read};

use sbc_core::pool::InstanceId;
use sbc_core::worlds::{SbcBackend, SbcParams};
use sbc_primitives::sha256::Sha256;
use sbc_uc::value::Value;

use crate::service::{
    Counters, DeadlineClass, InFlight, Live, Outcome, Pending, ReleaseRecord, SbcService,
    ServiceConfig, ServiceError, ServiceMode,
};
use crate::stats::LatencyHistogram;

/// Opens every image. A codec frame opens with a `u32` length prefix
/// instead, so earlier images and stray protocol frames fail right here.
const MAGIC: [u8; 4] = *b"SBCI";

/// The envelope version: 1 was a single codec frame, 2 a framed chunk
/// stream, 3 the operation journal; none of them is read.
const ENVELOPE_VERSION: u8 = 4;

/// Magic (4) + version (1) + payload length (8).
const HEADER_LEN: usize = 13;

/// Length of the SHA-256 digest closing the envelope.
const DIGEST_LEN: usize = 32;

/// Payload bytes handed to the writer per `write_all`. The image is the
/// same whatever the slice; a bound is here because on the benchmark
/// host (Linux 6.18, ext4) one `write(2)` of 2 MiB or more cost 5–8× more
/// per byte than writes of 1 MiB or less — 4 ms on a 4 MiB image.
const WRITE_SLICE: usize = 1 << 20;

/// Domain-separation prefix for the envelope digest.
const DIGEST_DOMAIN: &[u8] = b"sbc-service/image";

/// The schema tag leading the payload.
const PAYLOAD_TAG: &str = "sbc-service/v4";

fn bad(detail: impl Into<String>) -> ServiceError {
    ServiceError::BadSnapshot {
        detail: detail.into(),
    }
}

/// The digest closing the envelope: everything after the magic is
/// covered, so no bit of the image that matters can change unnoticed.
fn envelope_digest(payload_len: [u8; 8], payload: &[u8]) -> [u8; DIGEST_LEN] {
    Sha256::digest_parts(&[DIGEST_DOMAIN, &[ENVELOPE_VERSION], &payload_len, payload])
}

/// Checks the magic and version of an envelope header and returns its
/// payload-length field.
fn payload_len_field(header: &[u8; HEADER_LEN]) -> Result<[u8; 8], ServiceError> {
    let [m0, m1, m2, m3, version, payload_len @ ..] = *header;
    if [m0, m1, m2, m3] != MAGIC {
        return Err(bad("not a service image: bad magic"));
    }
    if version != ENVELOPE_VERSION {
        return Err(bad(format!(
            "unsupported image version {version} (speak {ENVELOPE_VERSION})"
        )));
    }
    Ok(payload_len)
}

fn list<'a>(v: &'a Value, what: &str) -> Result<&'a [Value], ServiceError> {
    v.as_list()
        .ok_or_else(|| bad(format!("{what}: expected List")))
}

/// A list of exactly `N` items.
fn fixed<'a, const N: usize>(v: &'a Value, what: &str) -> Result<&'a [Value; N], ServiceError> {
    list(v, what)?
        .try_into()
        .map_err(|_| bad(format!("{what}: expected {N} fields")))
}

fn as_u64(v: &Value, what: &str) -> Result<u64, ServiceError> {
    v.as_u64()
        .ok_or_else(|| bad(format!("{what}: expected U64")))
}

/// A counter or coordinate: below 2^63, so every later `+ 1` and
/// `+ Φ + ∆` (Φ, ∆ < 2^32 by `SbcParams::validate`) has headroom.
fn bounded(v: &Value, what: &str) -> Result<u64, ServiceError> {
    match as_u64(v, what)? {
        v if v >= 1 << 63 => Err(bad(format!("{what}: {v} is not below 2^63"))),
        v => Ok(v),
    }
}

fn as_bytes(v: &Value, what: &str) -> Result<Vec<u8>, ServiceError> {
    v.as_bytes()
        .map(<[u8]>::to_vec)
        .ok_or_else(|| bad(format!("{what}: expected Bytes")))
}

fn u64s(items: impl IntoIterator<Item = u64>) -> Value {
    Value::list(items.into_iter().map(Value::U64))
}

/// Whether `items` strictly increase.
fn increasing(items: &[u64]) -> bool {
    items.windows(2).all(|w| w[0] < w[1])
}

/// The config portion of a payload: fields 1 (params), 2 (seed), 3
/// (mode), 4 (tuning).
fn config_values(cfg: &ServiceConfig) -> [Value; 4] {
    let p = cfg.params;
    [
        u64s([p.n as u64, p.phi, p.delta, p.tle_alpha, p.tle_delay]),
        Value::bytes(&cfg.seed),
        Value::U64(cfg.mode.tag()),
        u64s([
            cfg.queue_cap as u64,
            cfg.batch_size as u64,
            cfg.max_live as u64,
            cfg.flush_after,
            cfg.leak_cap.map_or(0, |c| c as u64 + 1),
        ]),
    ]
}

/// Parses payload fields 1–4 back into a [`ServiceConfig`].
fn parse_config([params, seed, mode, tuning]: [&Value; 4]) -> Result<ServiceConfig, ServiceError> {
    let [n, phi, delta, tle_alpha, tle_delay] = fixed(params, "params")?;
    let [queue_cap, batch_size, max_live, flush_after, leak_cap] = fixed(tuning, "tuning")?;
    Ok(ServiceConfig {
        params: SbcParams {
            n: as_u64(n, "n")? as usize,
            phi: as_u64(phi, "phi")?,
            delta: as_u64(delta, "delta")?,
            tle_alpha: as_u64(tle_alpha, "tle_alpha")?,
            tle_delay: as_u64(tle_delay, "tle_delay")?,
        },
        seed: as_bytes(seed, "seed")?,
        mode: ServiceMode::from_tag(as_u64(mode, "mode")?)
            .ok_or_else(|| bad("mode: unknown tag"))?,
        queue_cap: as_u64(queue_cap, "queue_cap")? as usize,
        batch_size: as_u64(batch_size, "batch_size")? as usize,
        max_live: as_u64(max_live, "max_live")? as usize,
        flush_after: as_u64(flush_after, "flush_after")?,
        leak_cap: match as_u64(leak_cap, "leak_cap")? {
            0 => None,
            c => Some((c - 1) as usize),
        },
        checkpoint_every: None,
    })
}

fn counters_value(c: &Counters) -> Value {
    u64s([
        c.accepted,
        c.rejected,
        c.deferred,
        c.delivered,
        c.opened,
        c.finished,
        c.pruned,
        c.ticks,
        c.peak_live as u64,
        c.peak_queue as u64,
        c.leak_overflow,
    ])
}

fn parse_counters(v: &Value) -> Result<Counters, ServiceError> {
    let [accepted, rejected, deferred, delivered, opened, finished, pruned, ticks, peak_live, peak_queue, leak_overflow] =
        fixed(v, "counters")?;
    Ok(Counters {
        accepted: bounded(accepted, "accepted")?,
        rejected: bounded(rejected, "rejected")?,
        deferred: bounded(deferred, "deferred")?,
        delivered: bounded(delivered, "delivered")?,
        opened: bounded(opened, "opened")?,
        finished: bounded(finished, "finished")?,
        pruned: bounded(pruned, "pruned")?,
        ticks: bounded(ticks, "ticks")?,
        peak_live: bounded(peak_live, "peak_live")? as usize,
        peak_queue: bounded(peak_queue, "peak_queue")? as usize,
        leak_overflow: bounded(leak_overflow, "leak_overflow")?,
    })
}

fn histogram_value(hist: &LatencyHistogram) -> Value {
    let (buckets, count, sum, max) = hist.raw_parts();
    Value::list([
        u64s(buckets.iter().copied()),
        Value::U64(count),
        Value::U64(sum),
        Value::U64(max),
    ])
}

fn parse_histogram(v: &Value) -> Result<LatencyHistogram, ServiceError> {
    let [buckets, count, sum, max] = fixed(v, "histogram")?;
    let buckets = list(buckets, "histogram buckets")?
        .iter()
        .map(|b| as_u64(b, "histogram bucket"))
        .collect::<Result<Vec<u64>, _>>()?;
    LatencyHistogram::from_raw_parts(
        buckets,
        as_u64(count, "histogram count")?,
        as_u64(sum, "histogram sum")?,
        as_u64(max, "histogram max")?,
    )
    .ok_or_else(|| bad("histogram: wrong bucket arity, or count is not the bucket sum"))
}

/// The three queues, class by class; every entry was enqueued by `round`.
fn parse_queues(v: &Value, round: u64) -> Result<[VecDeque<Pending>; 3], ServiceError> {
    use DeadlineClass::{Batch, Interactive, Standard};
    let mut queues: [VecDeque<Pending>; 3] = Default::default();
    for (i, (q, class)) in fixed::<3>(v, "queues")?
        .iter()
        .zip([Interactive, Standard, Batch])
        .enumerate()
    {
        for e in list(q, &format!("queue {i}"))? {
            let [ticket, payload, enqueued] = fixed(e, &format!("queue {i} entry"))?;
            let enqueued_round = as_u64(enqueued, "queue round")?;
            if enqueued_round > round {
                return Err(bad(format!("queue {i}: enqueued after the capture round")));
            }
            queues[i].push_back(Pending {
                ticket: as_u64(ticket, "queue ticket")?,
                payload: as_bytes(payload, "queue payload")?,
                class,
                enqueued_round,
            });
        }
        let tickets: Vec<u64> = queues[i].iter().map(|p| p.ticket).collect();
        if !increasing(&tickets) {
            return Err(bad(format!("queue {i}: tickets not strictly increasing")));
        }
    }
    Ok(queues)
}

/// The parked records, in release order; the outcome is recomputed.
fn parse_parked(v: &Value, mode: ServiceMode) -> Result<VecDeque<ReleaseRecord>, ServiceError> {
    list(v, "records")?
        .iter()
        .map(|r| {
            let [instance, release_round, messages, tickets] = fixed(r, "record")?;
            let messages = list(messages, "record messages")?
                .iter()
                .map(|m| as_bytes(m, "record message"))
                .collect::<Result<Vec<_>, _>>()?;
            Ok(ReleaseRecord {
                instance: as_u64(instance, "record instance")?,
                release_round: as_u64(release_round, "record release round")?,
                outcome: Outcome::compute(mode, &messages),
                messages,
                tickets: list(tickets, "record tickets")?
                    .iter()
                    .map(|t| as_u64(t, "record ticket"))
                    .collect::<Result<_, _>>()?,
            })
        })
        .collect()
}

/// The live instances, keyed by id.
fn parse_live(v: &Value) -> Result<BTreeMap<u64, Live>, ServiceError> {
    let mut live = BTreeMap::new();
    for l in list(v, "live")? {
        let [id, opened, admitted] = fixed(l, "live instance")?;
        let id = as_u64(id, "live instance id")?;
        let admitted = list(admitted, "admissions")?
            .iter()
            .map(|a| {
                let [ticket, enqueued, admitted, payload] = fixed(a, "admission")?;
                Ok(InFlight {
                    ticket: as_u64(ticket, "admission ticket")?,
                    enqueued_round: as_u64(enqueued, "admission enqueued round")?,
                    admitted_round: as_u64(admitted, "admission round")?,
                    payload: as_bytes(payload, "admission payload")?,
                })
            })
            .collect::<Result<_, ServiceError>>()?;
        let opened = as_u64(opened, "live instance open round")?;
        if live.insert(id, Live { opened, admitted }).is_some() {
            return Err(bad(format!("live instance #{id} listed twice")));
        }
    }
    Ok(live)
}

impl<W: SbcBackend> SbcService<W> {
    /// The image payload (the layout is documented at the top of
    /// `snapshot.rs`).
    fn snapshot_payload(&self) -> Vec<u8> {
        let [params, seed, mode, tuning] = config_values(self.config());
        let queues = self.queues.iter().map(|q| {
            Value::list(q.iter().map(|p| {
                Value::list([
                    Value::U64(p.ticket),
                    Value::bytes(&p.payload),
                    Value::U64(p.enqueued_round),
                ])
            }))
        });
        let parked = self.outbox.iter().map(|r| {
            Value::list([
                Value::U64(r.instance),
                Value::U64(r.release_round),
                Value::list(r.messages.iter().map(Value::bytes)),
                u64s(r.tickets.iter().copied()),
            ])
        });
        let live = self.inflight.iter().map(|(id, l)| {
            let admitted = l.admitted.iter().map(|a| {
                Value::list([
                    Value::U64(a.ticket),
                    Value::U64(a.enqueued_round),
                    Value::U64(a.admitted_round),
                    Value::bytes(&a.payload),
                ])
            });
            Value::list([Value::U64(*id), Value::U64(l.opened), Value::list(admitted)])
        });
        Value::list([
            Value::str(PAYLOAD_TAG),
            params,
            seed,
            mode,
            tuning,
            counters_value(&self.stats),
            histogram_value(&self.hist),
            u64s([
                self.pool.round(),
                self.pool.next_instance_id(),
                self.stats.accepted,
            ]),
            Value::list(queues),
            Value::U64(self.collecting.map_or(0, |id| id.0 + 1)),
            Value::list(parked),
            Value::list(live),
        ])
        .encode()
    }

    /// Serializes the service into one image (the envelope is documented
    /// at the top of `snapshot.rs`). It may be taken at any tick, mid-epoch
    /// or drained, and holds only live state; this never fails.
    pub fn snapshot(&self) -> Result<Vec<u8>, ServiceError> {
        let mut image = Vec::new();
        self.snapshot_to(&mut image)?;
        Ok(image)
    }

    /// Writes one image into any [`io::Write`] — a file, a socket — as
    /// header, payload (in slices of at most 1 MiB), digest, then
    /// flushes. The payload is built in memory once and not copied
    /// again. Returns the bytes written.
    ///
    /// # Errors
    ///
    /// [`ServiceError::BadSnapshot`] carrying the writer's I/O failure.
    pub fn snapshot_to<Wr: io::Write>(&self, w: &mut Wr) -> Result<usize, ServiceError> {
        let payload = self.snapshot_payload();
        let payload_len = (payload.len() as u64).to_be_bytes();
        let mut header = [0u8; HEADER_LEN];
        header[..4].copy_from_slice(&MAGIC);
        header[4] = ENVELOPE_VERSION;
        header[5..].copy_from_slice(&payload_len);
        let digest = envelope_digest(payload_len, &payload);
        w.write_all(&header)
            .and_then(|()| payload.chunks(WRITE_SLICE).try_for_each(|s| w.write_all(s)))
            .and_then(|()| w.write_all(&digest))
            .and_then(|()| w.flush())
            .map_err(|e| bad(format!("image write: {e}")))?;
        Ok(HEADER_LEN + payload.len() + DIGEST_LEN)
    }

    /// Rebuilds a service from an image ([`snapshot`](Self::snapshot)),
    /// which must end exactly at its digest.
    ///
    /// Records the original had already delivered are not re-delivered,
    /// and records that were still parked are parked again, in order.
    /// Restore cost is bounded by the live state: at most
    /// `max_live × (Φ + ∆ + 1)` instance-rounds are replayed.
    ///
    /// # Errors
    ///
    /// * [`ServiceError::BadSnapshot`] for anything that fails to decode
    ///   as a service image — a foreign or truncated envelope, a digest
    ///   mismatch, trailing bytes, a payload of the wrong shape — whose
    ///   description it carries.
    /// * [`ServiceError::Pool`] if rebuilding a live instance fails —
    ///   impossible for an image captured from a healthy service.
    pub fn restore(bytes: &[u8]) -> Result<Self, ServiceError> {
        // The header says where the envelope ends, so a padded image is
        // refused here, before its digest and replay are paid for. Short
        // or overflowing lengths are `restore_from`'s to name.
        if let Some(header) = bytes.first_chunk::<HEADER_LEN>() {
            let declared = u64::from_be_bytes(payload_len_field(header)?);
            let past_end = declared
                .checked_add((HEADER_LEN + DIGEST_LEN) as u64)
                .and_then(|envelope| (bytes.len() as u64).checked_sub(envelope));
            if let Some(trailing @ 1..) = past_end {
                return Err(bad(format!(
                    "{trailing} trailing bytes after the image digest"
                )));
            }
        }
        Self::restore_from(&mut &bytes[..])
    }

    /// Rebuilds a service from an image read off any [`io::Read`] — the
    /// inverse of [`snapshot_to`](Self::snapshot_to). The reader is left
    /// positioned right after the digest.
    ///
    /// # Errors
    ///
    /// As [`restore`](Self::restore) (bar the trailing-bytes check), with
    /// reader I/O failures surfacing as [`ServiceError::BadSnapshot`] too.
    pub fn restore_from<R: io::Read>(r: &mut R) -> Result<Self, ServiceError> {
        let mut header = [0u8; HEADER_LEN];
        r.read_exact(&mut header)
            .map_err(|e| bad(format!("image header: {e}")))?;
        let payload_len = payload_len_field(&header)?;
        let declared = u64::from_be_bytes(payload_len);
        // `take` caps the read at the declared length and `read_to_end`
        // grows the buffer only with bytes that arrive, so a hostile
        // length never sizes an allocation.
        let mut payload = Vec::new();
        r.by_ref()
            .take(declared)
            .read_to_end(&mut payload)
            .map_err(|e| bad(format!("image payload: {e}")))?;
        if payload.len() as u64 != declared {
            return Err(bad(format!(
                "truncated image: payload declares {declared} bytes, {} arrived",
                payload.len()
            )));
        }
        let mut digest = [0u8; DIGEST_LEN];
        r.read_exact(&mut digest)
            .map_err(|e| bad(format!("image digest: {e}")))?;
        if digest != envelope_digest(payload_len, &payload) {
            return Err(bad("image digest mismatch: corrupted or spliced"));
        }
        Self::restore_payload(&payload).map(|(svc, _)| svc)
    }

    /// Decodes a digest-verified payload, checks the state it describes
    /// is one a service can reach, and rebuilds its live instances.
    /// Returns the service and the instance-rounds the rebuild stepped.
    fn restore_payload(payload: &[u8]) -> Result<(Self, u64), ServiceError> {
        let body = Value::decode(payload).ok_or_else(|| bad("payload: not a canonical Value"))?;
        let fields = list(&body, "body")?;
        let tag = fields.first().and_then(Value::as_str);
        if tag != Some(PAYLOAD_TAG) {
            return Err(bad(format!("unsupported version {tag:?}")));
        }
        let [_, params, seed, mode, tuning, counters, hist, coordinates, queues, collecting, parked, live] =
            fixed(&body, "body")?;
        let mut svc = SbcService::<W>::new(parse_config([params, seed, mode, tuning])?)?;
        let [round, next_instance, next_ticket] = fixed(coordinates, "coordinates")?;
        let round = bounded(round, "round")?;
        let next_instance = bounded(next_instance, "next_instance")?;
        let next_ticket = bounded(next_ticket, "next_ticket")?;
        svc.stats = parse_counters(counters)?;
        svc.hist = parse_histogram(hist)?;
        svc.queues = parse_queues(queues, round)?;
        svc.outbox = parse_parked(parked, svc.cfg.mode)?;
        svc.inflight = parse_live(live)?;
        svc.collecting = match as_u64(collecting, "collecting")? {
            0 => None,
            id => Some(InstanceId(id - 1)),
        };
        svc.check_reachable(round, next_instance, next_ticket)?;
        let stepped = svc.reopen(round, next_instance)?;
        Ok((svc, stepped))
    }

    /// Refuses a decoded state no service reaches: live instances out of
    /// their Φ + ∆ + 1 round lifetime or past `max_live`, queues past
    /// `queue_cap`, and counters or ids that contradict the state.
    fn check_reachable(
        &self,
        round: u64,
        next_instance: u64,
        next_ticket: u64,
    ) -> Result<(), ServiceError> {
        let (c, cfg) = (&self.stats, &self.cfg);
        let lifetime = cfg.params.phi + cfg.params.delta + 1;
        if next_ticket != c.accepted {
            return Err(bad(format!(
                "next_ticket: {next_ticket} is not the {} accepted submissions",
                c.accepted
            )));
        }
        if next_instance != c.opened {
            return Err(bad(format!(
                "next_instance: {next_instance} is not the {} opened instances",
                c.opened
            )));
        }
        if round > c.ticks {
            return Err(bad(format!("round {round} is past the {} ticks", c.ticks)));
        }
        let queued = self.queued();
        if queued > cfg.queue_cap || queued > c.peak_queue {
            return Err(bad(format!(
                "{queued} queued entries: past queue_cap {} or peak_queue {}",
                cfg.queue_cap, c.peak_queue
            )));
        }
        let live = self.inflight.len();
        if live > cfg.max_live || live > c.peak_live {
            return Err(bad(format!(
                "{live} live instances: past max_live {} or peak_live {}",
                cfg.max_live, c.peak_live
            )));
        }
        // Instances open in id order and release in it, so the parked
        // records' ids, then the live ids, strictly increase.
        let ids: Vec<u64> = self
            .outbox
            .iter()
            .map(|r| r.instance)
            .chain(self.inflight.keys().copied())
            .collect();
        if !increasing(&ids) || ids.last().is_some_and(|&id| id >= next_instance) {
            return Err(bad(
                "instance ids: not strictly increasing below next_instance",
            ));
        }
        if self.outbox.iter().any(|r| r.release_round >= round) {
            return Err(bad(
                "a parked record released at or after the capture round",
            ));
        }
        let mut last_open = 0;
        for (id, l) in &self.inflight {
            // An instance opens in a tick, before that tick's step, with
            // its first admission; the rest follow in later ticks.
            let rounds: Vec<u64> = l.admitted.iter().map(|a| a.admitted_round).collect();
            let in_order = rounds.first() == Some(&l.opened)
                && rounds.windows(2).all(|w| w[0] <= w[1])
                && rounds.last().is_some_and(|&r| r < round)
                && l.admitted
                    .iter()
                    .all(|a| a.enqueued_round <= a.admitted_round);
            if l.opened >= round || round - l.opened > lifetime {
                return Err(bad(format!(
                    "live instance #{id}: opened at round {}, outside the {lifetime} rounds before the capture round {round}",
                    l.opened
                )));
            }
            if l.opened < last_open || !in_order || l.admitted.len() > cfg.batch_size {
                return Err(bad(format!(
                    "live instance #{id}: admissions out of order or past batch_size"
                )));
            }
            last_open = l.opened;
        }
        let collecting_ok = self.collecting.is_none_or(|id| {
            self.inflight
                .last_key_value()
                .is_some_and(|(&last, l)| last == id.0 && l.admitted.len() < cfg.batch_size)
        });
        if !collecting_ok {
            return Err(bad("collecting: not the newest live instance with room"));
        }
        let tickets = self
            .queues
            .iter()
            .flatten()
            .map(|p| p.ticket)
            .chain(
                self.inflight
                    .values()
                    .flat_map(|l| l.admitted.iter().map(|a| a.ticket)),
            )
            .chain(self.outbox.iter().flat_map(|r| r.tickets.iter().copied()));
        let mut seen = BTreeSet::new();
        for t in tickets {
            if t >= next_ticket || !seen.insert(t) {
                return Err(bad(format!("ticket {t}: issued twice or not yet issued")));
            }
        }
        // Every opened instance is live, parked, delivered, or was dropped
        // undeliverable; a delivered or dropped one was pruned.
        let parked = self.outbox.len() as u64;
        let dropped = c.opened.checked_sub(live as u64 + c.finished);
        if c.finished != c.delivered + parked || dropped.is_none_or(|d| c.pruned != c.delivered + d)
        {
            return Err(bad(format!(
                "counters: {} opened, {} finished, {} delivered, {} pruned contradict {live} live and {parked} parked",
                c.opened, c.finished, c.delivered, c.pruned
            )));
        }
        Ok(())
    }

    /// Rebuilds every live instance in the fresh pool: each reopened at
    /// its id and its open round, fed its admissions at their rounds, and
    /// stepped with the others to the capture round. Returns the
    /// instance-rounds stepped — at most `max_live × (Φ + ∆ + 1)`.
    fn reopen(&mut self, round: u64, next_instance: u64) -> Result<u64, ServiceError> {
        let n = self.cfg.params.n;
        let mut feed: Vec<(u64, InstanceId, u32, &[u8])> = Vec::new();
        for (&id, l) in &self.inflight {
            for (k, a) in l.admitted.iter().enumerate() {
                feed.push((a.admitted_round, InstanceId(id), (k % n) as u32, &a.payload));
            }
        }
        feed.sort_by_key(|f| f.0);
        let mut feed = feed.into_iter().peekable();
        let mut opens = self
            .inflight
            .iter()
            .map(|(&id, l)| (l.opened, id))
            .peekable();
        let start = opens.peek().map_or(round, |&(opened, _)| opened);
        self.pool.resume_at(start, 0)?;
        let mut stepped = 0;
        for now in start..round {
            while let Some((_, id)) = opens.next_if(|&(opened, _)| opened == now) {
                self.pool.resume_at(now, id)?;
                self.pool.open_instance()?;
            }
            while let Some((_, id, party, payload)) = feed.next_if(|f| f.0 == now) {
                self.pool
                    .submit(id, party, payload)
                    .map_err(|e| bad(format!("{id}: admission does not replay: {e}")))?;
            }
            stepped += self.pool.live_instances().len() as u64;
            if !self.pool.step_round()?.is_empty() {
                return Err(bad(format!(
                    "a live instance released at round {now}, before the capture round"
                )));
            }
        }
        self.pool.resume_at(round, next_instance)?;
        Ok(stepped)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sbc_core::api::SbcError;
    use sbc_primitives::drbg::Drbg;
    use std::sync::Arc;

    type Service = SbcService<sbc_core::worlds::RealSbcWorld>;

    fn seeded() -> Service {
        Service::new(
            ServiceConfig::new(3, ServiceMode::Election)
                .seed(b"snap")
                .batch_size(3),
        )
        .unwrap()
    }

    #[test]
    fn snapshot_restore_round_trips_mid_epoch() {
        let mut a = seeded();
        a.submit(1, vec![4], DeadlineClass::Standard).unwrap();
        a.submit(2, vec![4], DeadlineClass::Standard).unwrap();
        a.tick().unwrap();
        a.tick().unwrap(); // mid-epoch: instance live, nothing released
        assert_eq!(a.stats().finished, 0);
        let image = a.snapshot().unwrap();
        let mut b = Service::restore(&image).unwrap();
        assert_eq!(a.round(), b.round());
        assert_eq!(a.stats(), b.stats());
        // Both runs, continued identically, release identically.
        let ra = a.shutdown().unwrap();
        let rb = b.shutdown().unwrap();
        assert_eq!(ra, rb);
        assert_eq!(a.stats(), b.stats());
    }

    #[test]
    fn restore_does_not_redeliver_consumed_records() {
        let mut a = seeded();
        a.submit(1, vec![1], DeadlineClass::Interactive).unwrap();
        while a.stats().finished == 0 {
            a.tick().unwrap();
        }
        let first = a.drain_releases();
        assert_eq!(first.len(), 1);
        a.submit(2, vec![2], DeadlineClass::Interactive).unwrap();
        while a.stats().finished < 2 {
            a.tick().unwrap();
        }
        // Second record still parked; first already consumed.
        let image = a.snapshot().unwrap();
        let mut b = Service::restore(&image).unwrap();
        let parked = b.drain_releases();
        assert_eq!(parked.len(), 1);
        assert_eq!(parked, a.drain_releases());
        assert_eq!(b.stats().delivered, 2);
    }

    #[test]
    fn drained_image_drops_delivered_payloads() {
        let mut a = seeded();
        // One full epoch of payload-carrying submissions: live, its image
        // holds them; delivered and drained, only counters and the
        // histogram remember them.
        for client in 0..3u64 {
            a.submit(client, vec![client as u8; 64], DeadlineClass::Standard)
                .unwrap();
        }
        a.tick().unwrap();
        let live_image = a.snapshot().unwrap();
        assert_eq!(a.stats().journal_ops, 3, "three live admissions");
        while a.stats().finished == 0 {
            a.tick().unwrap();
        }
        a.drain_releases();
        assert_eq!(a.stats().journal_ops, 0);
        a.submit(2, vec![2], DeadlineClass::Standard).unwrap();
        a.tick().unwrap();

        let image = a.snapshot().unwrap();
        assert!(
            image.len() + 3 * 64 < live_image.len(),
            "drained image ({}B) should drop the live one's ({}B) payloads",
            image.len(),
            live_image.len()
        );
        let mut b = Service::restore(&image).unwrap();
        assert_eq!(a.stats(), b.stats());
        assert_eq!(a.shutdown().unwrap(), b.shutdown().unwrap());
        assert_eq!(a.stats(), b.stats());
    }

    /// Four equal waves, each drained and followed by the same short
    /// mid-epoch tail: the image, and the admissions a restore replays,
    /// are the same size after every wave.
    #[test]
    fn images_stay_flat_while_the_lifetime_grows() {
        use crate::loadgen::{LoadGen, LoadProfile};
        let mut a = Service::new(
            ServiceConfig::new(4, ServiceMode::Beacon)
                .seed(b"wave-flat")
                .batch_size(64)
                .flush_after(4),
        )
        .unwrap();
        let (mut bytes, mut ops) = (Vec::new(), Vec::new());
        for wave in 1..=4u64 {
            let mut gen = LoadGen::new(LoadProfile::beacon(256, 64), &wave.to_be_bytes());
            while !gen.done() || a.live() > 0 || a.queued() > 0 {
                for s in gen.next_tick() {
                    a.submit(s.client, s.payload, s.class).unwrap();
                }
                a.tick().unwrap();
                a.drain_releases();
            }
            for client in 0..8 {
                a.submit(client, vec![0x5A; 32], DeadlineClass::Standard)
                    .unwrap();
            }
            a.tick().unwrap();
            a.tick().unwrap();
            let image = a.snapshot().unwrap();
            let restored = Service::restore(&image).unwrap();
            assert_eq!(a.stats(), restored.stats());
            bytes.push(image.len());
            ops.push(restored.stats().journal_ops);
        }
        for k in 1..4 {
            // Fixed-width U64s make the image byte-flat; the slack is for
            // a variable-width encoding of the counters.
            assert!(bytes[k].abs_diff(bytes[0]) <= 64, "{bytes:?}");
            assert_eq!(ops[k], ops[0], "replay length grew with the lifetime");
        }
    }

    #[test]
    fn restore_replays_at_most_max_live_lifetimes() {
        use crate::loadgen::{LoadGen, LoadProfile};
        // Saturating load: the queue backs up and `max_live` instances are
        // live at once, tick after tick, for a long lifetime.
        let cfg = ServiceConfig::new(3, ServiceMode::Beacon)
            .seed(b"bounded-replay")
            .batch_size(4)
            .max_live(3)
            .queue_cap(64);
        let p = cfg.params;
        let bound = cfg.max_live as u64 * (p.phi + p.delta + 1);
        let mut a = Service::new(cfg).unwrap();
        let mut gen = LoadGen::new(LoadProfile::beacon(u64::MAX, 8), b"bounded-replay");
        let mut most = 0;
        for tick in 0..200 {
            for s in gen.next_tick() {
                let _ = a.submit(s.client, s.payload, s.class);
            }
            a.tick().unwrap();
            if tick % 2 == 0 {
                a.drain_releases();
            }
            let image = a.snapshot().unwrap();
            let (b, stepped) =
                Service::restore_payload(&image[HEADER_LEN..image.len() - DIGEST_LEN]).unwrap();
            assert!(
                stepped <= bound,
                "tick {tick}: {stepped} > {bound} instance-rounds"
            );
            assert_eq!(a.stats(), b.stats());
            most = most.max(stepped);
        }
        assert_eq!(a.stats().peak_live, 3, "the bound was reached");
        assert!(most > bound / 2, "the load kept instances live: {most}");
    }

    #[test]
    fn snapshot_to_and_restore_from_stream_through_io() {
        let mut a = seeded();
        a.submit(1, vec![7], DeadlineClass::Standard).unwrap();
        a.tick().unwrap();
        // A second, different image — its queued megabyte makes the
        // reader grow its buffer over many reads.
        let mut c = seeded();
        c.submit(2, vec![0xC3; 1 << 20], DeadlineClass::Batch)
            .unwrap();
        let mut buf = Vec::new();
        let written = a.snapshot_to(&mut buf).unwrap();
        assert_eq!(written, buf.len());
        c.snapshot_to(&mut buf).unwrap();
        buf.extend_from_slice(b"tail");
        // The reader stops right after each digest: two images back to
        // back restore in sequence, and trailing traffic survives.
        let mut cursor = std::io::Cursor::new(&buf[..]);
        let mut b = Service::restore_from(&mut cursor).unwrap();
        assert_eq!(cursor.position() as usize, written);
        let mut d = Service::restore_from(&mut cursor).unwrap();
        assert_eq!(&buf[cursor.position() as usize..], b"tail");
        assert_eq!(a.stats(), b.stats());
        assert_eq!(c.stats(), d.stats());
        assert_eq!(a.shutdown().unwrap(), b.shutdown().unwrap());
        assert_eq!(c.shutdown().unwrap(), d.shutdown().unwrap());
    }

    fn assert_bad(image: &[u8], what: &str) -> String {
        match Service::restore(image) {
            Err(ServiceError::BadSnapshot { detail }) => detail,
            Err(e) => panic!("{what}: wrong error {e}"),
            Ok(_) => panic!("{what}: must not restore"),
        }
    }

    /// A well-formed envelope around an arbitrary payload — the digest
    /// is unkeyed, so anyone can seal one.
    fn seal(payload: &[u8]) -> Vec<u8> {
        let payload_len = (payload.len() as u64).to_be_bytes();
        let digest = envelope_digest(payload_len, payload);
        [
            &MAGIC[..],
            &[ENVELOPE_VERSION],
            &payload_len,
            payload,
            &digest,
        ]
        .concat()
    }

    #[test]
    fn garbage_and_wrong_frames_are_typed_errors() {
        assert_bad(b"", "empty");
        assert_bad(b"junk", "junk");
        // Seeded garbage, bare and sealed: the first dies on the magic,
        // the second gets past the digest to the payload decoder.
        let mut rng = Drbg::from_seed(b"snapshot/garbage");
        for i in 0..500 {
            let len = u16::from_be_bytes(rng.gen_bytes(2).try_into().unwrap()) % 400;
            let garbage = rng.gen_bytes(len as usize);
            assert_bad(&garbage, &format!("garbage {i}"));
            assert_bad(&seal(&garbage), &format!("sealed garbage {i}"));
        }
        let foreign_tag = Value::list([Value::str("sbc-service/v1"), Value::U64(7)]);
        assert!(assert_bad(&seal(&foreign_tag.encode()), "payload tag").contains("version"));
        // What every earlier image and every protocol frame opens with: a
        // `u32` length prefix, then the codec's "SB" magic and header.
        let mut frame = 26u32.to_be_bytes().to_vec();
        frame.extend_from_slice(b"SB\x01\x0d");
        frame.resize(4 + 26, 0);
        assert!(assert_bad(&frame, "codec frame").contains("magic"));
        // A future envelope version is refused before its length is read.
        let mut future = seeded().snapshot().unwrap();
        future[4] += 1;
        assert!(assert_bad(&future, "future version").contains("version"));
    }

    /// The payload fields of `a`'s image, to forge and re-[`seal`].
    fn payload_fields_of(a: &Service) -> Vec<Value> {
        let image = a.snapshot().unwrap();
        let payload = &image[HEADER_LEN..image.len() - DIGEST_LEN];
        match Value::decode(payload) {
            Some(Value::List(fields)) => Arc::unwrap_or_clone(fields),
            other => panic!("payload is a list: {other:?}"),
        }
    }

    /// The payload fields of a small service's image.
    fn payload_fields() -> Vec<Value> {
        let mut a = seeded();
        a.submit(1, vec![9], DeadlineClass::Standard).unwrap();
        payload_fields_of(&a)
    }

    /// Sets the item at `path` — payload field, then item within it, and
    /// so on — to `v`.
    fn set(fields: &mut [Value], path: &[usize], v: Value) {
        let (&field, path) = path.split_first().expect("a payload field");
        let mut target = &mut fields[field];
        for i in path {
            let Value::List(items) = target else {
                panic!("item {i} of {path:?} is not in a list");
            };
            target = &mut Arc::make_mut(items)[*i];
        }
        *target = v;
    }

    /// `fields` re-[`seal`]ed with the item at `path` set to `v`.
    fn forged(fields: &[Value], path: &[usize], v: Value) -> Vec<u8> {
        let mut fields = fields.to_vec();
        set(&mut fields, path, v);
        seal(&Value::list(fields).encode())
    }

    #[test]
    fn sealed_image_with_a_zero_tuning_knob_is_refused() {
        // Correct digest, valid shape, but a `batch_size` or `max_live` of
        // 0 in the tuning list (payload field 4): restored, it would be a
        // service that ticks `Ok` forever and never releases. Last row:
        // n = 2³² in the params list (field 1), past the `u32` party ids,
        // which the queued submission would open an instance for.
        let fields = payload_fields();
        for (field, at, v) in [(4, 1, 0), (4, 2, 0), (1, 0, 1 << 32)] {
            let mut fields = fields.clone();
            let Value::List(list) = &mut fields[field] else {
                panic!("field {field} is a list");
            };
            Arc::make_mut(list)[at] = Value::U64(v);
            assert!(matches!(
                Service::restore(&seal(&Value::list(fields).encode())),
                Err(ServiceError::Pool(SbcError::InvalidParams { .. }))
            ));
        }
    }

    #[test]
    fn sealed_image_with_a_lying_inner_length_is_refused() {
        // Correct digest, but the version string (tag 5, the payload's
        // first item) claims `u64::MAX` bytes.
        let mut payload = Value::list(payload_fields()).encode();
        assert_eq!(payload[9], 5);
        payload[10..18].copy_from_slice(&u64::MAX.to_be_bytes());
        assert_bad(&seal(&payload), "lying inner length");
    }

    #[test]
    fn sealed_image_with_a_forged_histogram_is_refused() {
        // Correct digest, valid shape, but a latency histogram (payload
        // field 6) whose `count` no recording produced:
        // restored, `stats()` would overflow on it or report nonsense.
        let fields = payload_fields();
        let with_hist = |buckets: &[u64], count: u64, sum: u64| {
            let buckets = Value::list(buckets.iter().map(|b| Value::U64(*b)));
            let hist = [buckets, Value::U64(count), Value::U64(sum), Value::U64(0)];
            forged(&fields, &[6], Value::list(hist))
        };
        let empty = [0; LatencyHistogram::BUCKETS];
        let detail = assert_bad(&with_hist(&empty, u64::MAX, u64::MAX), "forged count");
        assert!(detail.contains("histogram"), "{detail}");
        // A bucket sum past `u64` is no count at all.
        let mut wrapping = empty;
        (wrapping[0], wrapping[1]) = (u64::MAX, 2);
        assert_bad(&with_hist(&wrapping, 1, 0), "wrapping bucket sum");
        // The largest state that is accepted answers without overflowing,
        // before and after one more recording.
        let mut full = empty;
        full[3] = u64::MAX;
        let b = Service::restore(&with_hist(&full, u64::MAX, u64::MAX)).unwrap();
        let latency = b.stats().latency;
        assert_eq!((latency.count, latency.p50, latency.p99), (u64::MAX, 3, 3));
        assert_eq!(latency.mean_milli, 1000);
        let mut hist = LatencyHistogram::from_raw_parts(full.to_vec(), u64::MAX, u64::MAX, 0)
            .expect("count is the bucket sum");
        hist.record(9);
        assert_eq!(hist.summary().count, u64::MAX);
    }

    #[test]
    fn sealed_image_with_a_coordinate_past_2_63_is_refused() {
        // Correct digest, valid shape, but a coordinate (payload field 7)
        // or a counter (field 5) at 2^63 or `u64::MAX`: restored, the
        // first tick that wakes an instance (`round`), the next open
        // (`next_instance`) or submit (`next_ticket`), or the next count
        // overflowed.
        let fields = payload_fields();
        let items = [
            (7, 0, "round"),
            (7, 1, "next_instance"),
            (7, 2, "next_ticket"),
            (5, 0, "accepted"),
            (5, 7, "ticks"),
        ];
        for (field, at, name) in items {
            for v in [1 << 63, u64::MAX] {
                let detail = assert_bad(&forged(&fields, &[field, at], Value::U64(v)), name);
                assert!(detail.starts_with(name), "{detail}");
            }
        }
        // 2^63 − 1 rounds into an idle life restores at once — nothing is
        // live, so nothing replays — and ticks on.
        let old = (1 << 63) - 1;
        let mut fields = fields;
        set(&mut fields, &[7, 0], Value::U64(old));
        set(&mut fields, &[5, 7], Value::U64(old));
        let (mut b, stepped) = Service::restore_payload(&Value::list(fields).encode()).unwrap();
        assert_eq!((b.round(), stepped), (old, 0));
        b.tick().unwrap();
        assert_eq!(b.live(), 1, "the queued submission opened an instance");
    }

    #[test]
    fn sealed_image_with_forged_tickets_is_refused() {
        // Correct digest, valid shape, but a ticket coordinate (payload
        // field 7, item 2) that is not the `accepted` counter, or queued
        // tickets (field 8) out of order or not below it: restored, the
        // service would issue a ticket twice.
        let mut a = seeded();
        for payload in [[1], [2], [3]] {
            a.submit(1, payload.to_vec(), DeadlineClass::Standard)
                .unwrap();
        }
        let fields = payload_fields_of(&a);
        let entry = |t| Value::list([Value::U64(t), Value::bytes([0]), Value::U64(0)]);
        let queue = |tickets: [u64; 3]| {
            let standard = Value::list(tickets.map(entry));
            Value::list([Value::list([]), standard, Value::list([])])
        };
        Service::restore(&forged(&fields, &[8], queue([0, 1, 2]))).unwrap();
        let behind = forged(&fields, &[7, 2], Value::U64(2));
        assert!(assert_bad(&behind, "ticket").starts_with("next_ticket"));
        for tickets in [[0, 2, 1], [0, 1, 1]] {
            let forged = forged(&fields, &[8], queue(tickets));
            assert!(assert_bad(&forged, "queue").starts_with("queue 1"));
        }
        let ahead = forged(&fields, &[8], queue([1, 2, 3]));
        assert!(assert_bad(&ahead, "ticket").starts_with("ticket 3"));
    }

    /// A service mid-load: two instances live, one record parked, and a
    /// submission queued.
    fn mid_load() -> Service {
        let mut a = Service::new(
            ServiceConfig::new(3, ServiceMode::Auction)
                .seed(b"mid-load")
                .batch_size(3)
                .max_live(3),
        )
        .unwrap();
        for tick in 0u64.. {
            for k in 0..2 {
                a.submit(
                    k,
                    (tick * 2 + k).to_be_bytes().to_vec(),
                    DeadlineClass::Standard,
                )
                .unwrap();
            }
            a.tick().unwrap();
            let s = a.stats();
            if s.delivered > 0 && s.finished > s.delivered && a.live() == 2 {
                break;
            }
            a.drain_releases();
        }
        a
    }

    #[test]
    fn hostile_v4_images_are_refused() {
        let a = mid_load();
        let s = a.stats();
        assert!(s.delivered > 0 && s.finished > s.delivered, "{s:?}");
        let fields = payload_fields_of(&a);
        let (round, p) = (a.round(), a.config().params);
        let last = a
            .inflight
            .values()
            .next()
            .map_or(0, |l| l.admitted.len() - 1);
        let old = round - (p.phi + p.delta + 2);
        let cases: [(&[usize], u64, &str); 7] = [
            // A live instance (field 11, entry 0, item 1) opened more than
            // Φ + ∆ + 1 rounds ago, or after the capture round, or one
            // whose last admission (item 2) is at the capture round.
            (&[11, 0, 1], old, "live instance #"),
            (&[11, 0, 1], round + 1, "live instance #"),
            (&[11, 0, 2, last, 2], round, "live instance #"),
            // More live instances than `max_live` (tuning, field 4) allows,
            // more queued than `queue_cap`.
            (&[4, 2], 1, "2 live instances"),
            (&[4, 0], 1, "queued entries"),
            // Counters (field 5): delivered or pruned past finished.
            (&[5, 3], s.finished + 1, "counters"),
            (&[5, 6], s.finished + 1, "counters"),
        ];
        for (path, v, want) in cases {
            let detail = assert_bad(&forged(&fields, path, Value::U64(v)), want);
            assert!(detail.contains(want), "{path:?} = {v}: {detail}");
        }
        // The untouched image restores, parked record and all.
        let mut b = Service::restore(&seal(&Value::list(fields).encode())).unwrap();
        assert_eq!(a.stats(), b.stats());
        assert_eq!(b.drain_releases().len(), 1);
    }

    #[test]
    fn corrupted_streams_are_typed_errors() {
        let mut a = seeded();
        a.submit(1, vec![9], DeadlineClass::Standard).unwrap();
        a.tick().unwrap();
        let image = a.snapshot().unwrap();

        // Every strict prefix: the header, the length or the digest
        // comes up short.
        for cut in 0..image.len() {
            assert_bad(&image[..cut], &format!("prefix {cut}"));
        }

        // Every single-bit flip. Past the header nothing but the digest
        // can catch one, and it does so before the Value decoder runs.
        for byte in 0..image.len() {
            for bit in 0..8 {
                let mut flipped = image.clone();
                flipped[byte] ^= 1 << bit;
                let detail = assert_bad(&flipped, &format!("flip {byte}.{bit}"));
                if byte >= HEADER_LEN {
                    assert!(detail.contains("digest"), "flip {byte}.{bit}: {detail}");
                }
            }
        }

        // Lying lengths — the largest possible, and one past the bytes
        // that follow the header — end as truncation, from a slice and
        // from a reader alike. Neither allocates what it declares: a
        // `u64::MAX` reservation would abort the test.
        let available = (image.len() - HEADER_LEN) as u64;
        for declared in [u64::MAX, available + 1] {
            let mut lying = image.clone();
            lying[5..HEADER_LEN].copy_from_slice(&declared.to_be_bytes());
            let detail = assert_bad(&lying, "lying length");
            assert!(detail.contains("truncated"), "{detail}");
            assert!(matches!(
                Service::restore_from(&mut std::io::Cursor::new(&lying)),
                Err(ServiceError::BadSnapshot { .. })
            ));
        }

        // A forged digest over an otherwise well-formed image, and bytes
        // after a good one.
        let mut forged = image.clone();
        let digest_at = forged.len() - DIGEST_LEN;
        forged[digest_at..].fill(0);
        assert!(assert_bad(&forged, "forged digest").contains("digest"));
        let mut padded = image.clone();
        padded.push(0);
        assert!(assert_bad(&padded, "trailing byte").contains("trailing"));
    }
}
