//! Snapshot/restore: the service as a folded checkpoint plus a
//! deterministic operation tail, in one flat digest-sealed envelope.
//!
//! ## Why checkpoint + tail, not a lifetime journal
//!
//! Every externally observable state transition of [`SbcService`] is a
//! deterministic function of the *accepted operation sequence* — the
//! interleaving of accepted submissions and driver ticks. All pool
//! randomness derives from the seeded DRBG, admission and batching
//! decisions are pure functions of (queue, pool round, config), and
//! latency is measured in rounds. So the journal of accepted operations,
//! plus the config it runs under, **is** the state — but a journal since
//! birth grows without bound, and so would snapshot size and restore
//! time.
//!
//! Era-based checkpointing bounds both. At an era boundary (every
//! instance drained and pruned — [`SbcService::checkpoint`])
//! the pool collapses to its `(round, next instance id)` fast-forward
//! coordinate, so the journal prefix folds into a compact checkpoint
//! record: clock round, next ids, queue contents, counters, and the
//! latency histogram. A snapshot then carries (checkpoint ‖
//! post-boundary tail); restore rebuilds a fresh pool, fast-forwards it
//! through [`sbc_core::pool::SbcPool::resume_at`], and replays only the
//! tail. Image size and restore work are O(current era), independent of
//! lifetime.
//!
//! The only facts replay cannot rederive are the ones that left the
//! service (records already drained — the restored run must not
//! re-deliver them) and the ones that never entered it
//! (submissions rejected with `QueueFull` touch a counter but not the
//! journal). Those ride alongside the tail as absolute counters.
//!
//! ## Image format (envelope version 3)
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
//! Earlier formats (a single `sbc-net` frame, then a framed chunk
//! stream) open with a frame length prefix instead of the magic and are
//! not read. The payload (`v3`: a submission carries no client id) is
//! the canonical [`Value`] encoding of
//!
//! ```text
//! List[ Str("sbc-service/v3"),
//!       List[n, Φ, ∆, α, delay]          (U64s)
//!       Bytes(seed),
//!       U64(mode),
//!       List[queue_cap, batch_size, max_live, flush_after, leak_cap+1|0],
//!       U64(delivered), U64(rejected),    (absolute, at capture)
//!       List[era, round, next_instance, next_ticket,   (the checkpoint)
//!            List[11 counters],
//!            List[List[bucket…], count, sum, max],     (histogram)
//!            List[queue × 3]],  (queue = List[List[ticket, Bytes, round]…])
//!       List[op…] ]              (op = List[0, count]     tick run
//!                                  | List[1, Bytes, class])  submit
//! ```

use std::io::{self, Read};

use sbc_core::worlds::{SbcBackend, SbcParams};
use sbc_primitives::sha256::Sha256;
use sbc_uc::value::Value;

use crate::service::{
    Checkpoint, Counters, DeadlineClass, Op, SbcService, ServiceConfig, ServiceError, ServiceMode,
};
use crate::stats::LatencyHistogram;

/// Opens every image. A codec frame opens with a `u32` length prefix
/// instead, so earlier images and stray protocol frames fail right here.
const MAGIC: [u8; 4] = *b"SBCI";

/// The envelope version: 1 was a single codec frame, 2 a framed chunk
/// stream; neither is read.
const ENVELOPE_VERSION: u8 = 3;

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
const PAYLOAD_TAG: &str = "sbc-service/v3";

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

fn field(list: &[Value], idx: usize, what: &str) -> Result<Value, ServiceError> {
    list.get(idx)
        .cloned()
        .ok_or_else(|| bad(format!("missing field {idx} ({what})")))
}

fn as_u64(v: &Value, what: &str) -> Result<u64, ServiceError> {
    v.as_u64()
        .ok_or_else(|| bad(format!("{what}: expected U64")))
}

/// The config portion of a snapshot body: fields 1 (params), 2 (seed),
/// 3 (mode), 4 (tuning).
fn config_values(cfg: &ServiceConfig) -> [Value; 4] {
    [
        Value::list([
            Value::U64(cfg.params.n as u64),
            Value::U64(cfg.params.phi),
            Value::U64(cfg.params.delta),
            Value::U64(cfg.params.tle_alpha),
            Value::U64(cfg.params.tle_delay),
        ]),
        Value::bytes(&cfg.seed),
        Value::U64(cfg.mode.tag()),
        Value::list([
            Value::U64(cfg.queue_cap as u64),
            Value::U64(cfg.batch_size as u64),
            Value::U64(cfg.max_live as u64),
            Value::U64(cfg.flush_after),
            Value::U64(cfg.leak_cap.map_or(0, |c| c as u64 + 1)),
        ]),
    ]
}

/// Parses fields 1–4 of a snapshot body back into a [`ServiceConfig`].
fn parse_config(fields: &[Value]) -> Result<ServiceConfig, ServiceError> {
    let pv = field(fields, 1, "params")?;
    let pl = pv.as_list().ok_or_else(|| bad("params: expected List"))?;
    if pl.len() != 5 {
        return Err(bad("params: expected 5 fields"));
    }
    let params = SbcParams {
        n: as_u64(&pl[0], "n")? as usize,
        phi: as_u64(&pl[1], "phi")?,
        delta: as_u64(&pl[2], "delta")?,
        tle_alpha: as_u64(&pl[3], "tle_alpha")?,
        tle_delay: as_u64(&pl[4], "tle_delay")?,
    };
    let seed = field(fields, 2, "seed")?;
    let seed = seed.as_bytes().ok_or_else(|| bad("seed: expected Bytes"))?;
    let mode = ServiceMode::from_tag(as_u64(&field(fields, 3, "mode")?, "mode")?)
        .ok_or_else(|| bad("mode: unknown tag"))?;
    let tv = field(fields, 4, "tuning")?;
    let tl = tv.as_list().ok_or_else(|| bad("tuning: expected List"))?;
    if tl.len() != 5 {
        return Err(bad("tuning: expected 5 fields"));
    }
    let leak_cap = match as_u64(&tl[4], "leak_cap")? {
        0 => None,
        c => Some((c - 1) as usize),
    };
    Ok(ServiceConfig {
        params,
        seed: seed.to_vec(),
        mode,
        queue_cap: as_u64(&tl[0], "queue_cap")? as usize,
        batch_size: as_u64(&tl[1], "batch_size")? as usize,
        max_live: as_u64(&tl[2], "max_live")? as usize,
        flush_after: as_u64(&tl[3], "flush_after")?,
        leak_cap,
        // Deliberately not part of the wire format: wall time is not
        // replayable, so a restored service starts with the wall-clock
        // view off (and `ServiceStats::wall` = None).
        record_wall_clock: false,
        // Also excluded: replay must rebuild folded state from the
        // serialized checkpoint, never by re-running the auto-fold
        // policy mid-replay — a restored service starts with it off.
        checkpoint_every: None,
    })
}

/// Encodes the checkpoint record (payload field 7).
fn checkpoint_value(cp: &Checkpoint) -> Value {
    let c = &cp.counters;
    let (buckets, count, sum, max) = cp.hist.raw_parts();
    let queues = cp.queues.iter().map(|q| {
        Value::list(q.iter().map(|(ticket, payload, round)| {
            Value::list([
                Value::U64(*ticket),
                Value::bytes(payload),
                Value::U64(*round),
            ])
        }))
    });
    Value::list([
        Value::U64(cp.era),
        Value::U64(cp.round),
        Value::U64(cp.next_instance),
        // The next ticket: tickets are dense in acceptance order.
        Value::U64(c.accepted),
        Value::list([
            Value::U64(c.accepted),
            Value::U64(c.rejected),
            Value::U64(c.deferred),
            Value::U64(c.delivered),
            Value::U64(c.opened),
            Value::U64(c.finished),
            Value::U64(c.pruned),
            Value::U64(c.ticks),
            Value::U64(c.peak_live as u64),
            Value::U64(c.peak_queue as u64),
            Value::U64(c.leak_overflow),
        ]),
        Value::list([
            Value::list(buckets.iter().map(|b| Value::U64(*b))),
            Value::U64(count),
            Value::U64(sum),
            Value::U64(max),
        ]),
        Value::list(queues),
    ])
}

/// Parses the checkpoint record.
fn parse_checkpoint(v: &Value) -> Result<Checkpoint, ServiceError> {
    let cp = v
        .as_list()
        .ok_or_else(|| bad("checkpoint: expected List"))?;
    if cp.len() != 7 {
        return Err(bad("checkpoint: expected 7 fields"));
    }
    let cv = cp[4]
        .as_list()
        .ok_or_else(|| bad("checkpoint counters: expected List"))?;
    if cv.len() != 11 {
        return Err(bad("checkpoint counters: expected 11 fields"));
    }
    let counters = Counters {
        accepted: as_u64(&cv[0], "accepted")?,
        rejected: as_u64(&cv[1], "rejected")?,
        deferred: as_u64(&cv[2], "deferred")?,
        delivered: as_u64(&cv[3], "delivered")?,
        opened: as_u64(&cv[4], "opened")?,
        finished: as_u64(&cv[5], "finished")?,
        pruned: as_u64(&cv[6], "pruned")?,
        ticks: as_u64(&cv[7], "ticks")?,
        peak_live: as_u64(&cv[8], "peak_live")? as usize,
        peak_queue: as_u64(&cv[9], "peak_queue")? as usize,
        leak_overflow: as_u64(&cv[10], "leak_overflow")?,
    };
    let hv = cp[5]
        .as_list()
        .ok_or_else(|| bad("checkpoint histogram: expected List"))?;
    if hv.len() != 4 {
        return Err(bad("checkpoint histogram: expected 4 fields"));
    }
    let buckets = hv[0]
        .as_list()
        .ok_or_else(|| bad("histogram buckets: expected List"))?
        .iter()
        .map(|b| as_u64(b, "histogram bucket"))
        .collect::<Result<Vec<u64>, _>>()?;
    let hist = LatencyHistogram::from_raw_parts(
        buckets,
        as_u64(&hv[1], "histogram count")?,
        as_u64(&hv[2], "histogram sum")?,
        as_u64(&hv[3], "histogram max")?,
    )
    .ok_or_else(|| bad("histogram: wrong bucket arity, or count is not the bucket sum"))?;
    let qv = cp[6]
        .as_list()
        .ok_or_else(|| bad("checkpoint queues: expected List"))?;
    if qv.len() != 3 {
        return Err(bad("checkpoint queues: expected 3 classes"));
    }
    let mut queues = [Vec::new(), Vec::new(), Vec::new()];
    for (i, q) in qv.iter().enumerate() {
        let entries = q
            .as_list()
            .ok_or_else(|| bad(format!("queue {i}: expected List")))?;
        for e in entries {
            let e = e
                .as_list()
                .ok_or_else(|| bad(format!("queue {i} entry: expected List")))?;
            if e.len() != 3 {
                return Err(bad(format!("queue {i} entry: expected 3 fields")));
            }
            queues[i].push((
                as_u64(&e[0], "queue ticket")?,
                e[1].as_bytes()
                    .ok_or_else(|| bad(format!("queue {i} payload: expected Bytes")))?
                    .to_vec(),
                as_u64(&e[2], "queue round")?,
            ));
        }
    }
    // The four coordinates stay below 2^63, so every later `+ 1` and
    // `+ Φ + ∆` (Φ, ∆ < 2^32 by `SbcParams::validate`) has headroom.
    let coordinate = |i: usize, what: &str| match as_u64(&cp[i], what)? {
        v if v >= 1 << 63 => Err(bad(format!("{what}: {v} is not below 2^63"))),
        v => Ok(v),
    };
    // A forged ticket coordinate or queue would have the restored service
    // issue a ticket twice.
    let next_ticket = coordinate(3, "next_ticket")?;
    if next_ticket != counters.accepted {
        return Err(bad(format!(
            "next_ticket: {next_ticket} is not the {} accepted submissions",
            counters.accepted
        )));
    }
    for (i, q) in queues.iter().enumerate() {
        let tickets: Vec<u64> = q.iter().map(|(ticket, ..)| *ticket).collect();
        let increasing = tickets.windows(2).all(|w| w[0] < w[1]);
        if !increasing || tickets.last().is_some_and(|&t| t >= next_ticket) {
            return Err(bad(format!(
                "queue {i}: tickets not strictly increasing below next_ticket"
            )));
        }
    }
    Ok(Checkpoint {
        era: coordinate(0, "era")?,
        round: coordinate(1, "round")?,
        next_instance: coordinate(2, "next_instance")?,
        counters,
        hist,
        queues,
    })
}

impl<W: SbcBackend> SbcService<W> {
    /// The image payload: config, absolute delivered/rejected, the
    /// checkpoint record, and the post-checkpoint operation tail.
    fn snapshot_payload(&self) -> Vec<u8> {
        let ops: Vec<Value> = self
            .journal
            .iter()
            .map(|op| match op {
                Op::Ticks(count) => Value::list([Value::U64(0), Value::U64(*count)]),
                Op::Submit { payload, class } => Value::list([
                    Value::U64(1),
                    Value::bytes(payload),
                    Value::U64(class.tag()),
                ]),
            })
            .collect();
        let [params, seed, mode, tuning] = config_values(self.config());
        Value::list([
            Value::str(PAYLOAD_TAG),
            params,
            seed,
            mode,
            tuning,
            Value::U64(self.stats().delivered),
            Value::U64(self.stats().rejected),
            checkpoint_value(&self.checkpoint),
            Value::list(ops),
        ])
        .encode()
    }

    /// Serializes the service into one image (the envelope is documented
    /// at the top of `snapshot.rs`). Any journal size encodes; this never
    /// fails.
    ///
    /// The image carries the current checkpoint plus the post-boundary
    /// tail — [`checkpoint`](Self::checkpoint) at era boundaries to keep
    /// it (and restore time) O(current era).
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
        let written = HEADER_LEN + payload.len() + DIGEST_LEN;
        self.note_snapshot_bytes(written as u64);
        Ok(written)
    }

    /// Rebuilds a service from an image ([`snapshot`](Self::snapshot)),
    /// which must end exactly at its digest.
    ///
    /// Records the original had already delivered are not re-delivered,
    /// and records that were still parked are parked again, in order.
    ///
    /// # Errors
    ///
    /// * [`ServiceError::BadSnapshot`] for anything that fails to decode
    ///   as a service image — a foreign or truncated envelope, a digest
    ///   mismatch, trailing bytes, a payload of the wrong shape — whose
    ///   description it carries.
    /// * [`ServiceError::Pool`] if replay itself fails — impossible for a
    ///   journal captured from a healthy service.
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
        let svc = Self::restore_payload(&payload)?;
        svc.note_snapshot_bytes((HEADER_LEN + payload.len() + DIGEST_LEN) as u64);
        Ok(svc)
    }

    /// Decodes and replays a digest-verified payload: fresh pool,
    /// fast-forward through the checkpoint, replay the tail, settle
    /// delivery bookkeeping.
    fn restore_payload(payload: &[u8]) -> Result<Self, ServiceError> {
        let body = Value::decode(payload).ok_or_else(|| bad("payload: not a canonical Value"))?;
        let fields = body.as_list().ok_or_else(|| bad("body: expected List"))?;
        let version = field(fields, 0, "version")?;
        if version.as_str() != Some(PAYLOAD_TAG) {
            return Err(bad(format!("unsupported version {version:?}")));
        }
        let cfg = parse_config(fields)?;
        let delivered = as_u64(&field(fields, 5, "delivered")?, "delivered")?;
        let rejected = as_u64(&field(fields, 6, "rejected")?, "rejected")?;
        let cp = parse_checkpoint(&field(fields, 7, "checkpoint")?)?;
        let ops_v = field(fields, 8, "ops")?;
        let ops = ops_v.as_list().ok_or_else(|| bad("ops: expected List"))?;

        let mut svc = SbcService::<W>::new(cfg)?;
        let base_delivered = cp.counters.delivered;
        if delivered < base_delivered {
            return Err(bad("delivered regressed below the checkpoint base"));
        }
        svc.apply_checkpoint(cp)?;
        svc.replay_ops(ops)?;
        svc.mark_restored(delivered - base_delivered, delivered, rejected);
        Ok(svc)
    }

    /// Replays a decoded operation list.
    fn replay_ops(&mut self, ops: &[Value]) -> Result<(), ServiceError> {
        for (i, op) in ops.iter().enumerate() {
            let op = op
                .as_list()
                .ok_or_else(|| bad(format!("op {i}: expected List")))?;
            match as_u64(
                op.first().ok_or_else(|| bad(format!("op {i}: empty")))?,
                "op tag",
            )? {
                0 => {
                    if op.len() != 2 {
                        return Err(bad(format!("op {i}: tick arity")));
                    }
                    for _ in 0..as_u64(&op[1], "tick count")? {
                        match self.tick() {
                            // The original reported this dropped instance
                            // already; replay drops it again and goes on.
                            Ok(()) | Err(ServiceError::Undeliverable { .. }) => {}
                            Err(e) => return Err(e),
                        }
                    }
                }
                1 => {
                    if op.len() != 3 {
                        return Err(bad(format!("op {i}: submit arity")));
                    }
                    let payload = op[1]
                        .as_bytes()
                        .ok_or_else(|| bad(format!("op {i}: payload")))?
                        .to_vec();
                    let class = DeadlineClass::from_tag(as_u64(&op[2], "class")?)
                        .ok_or_else(|| bad(format!("op {i}: unknown class")))?;
                    // The original accepted this op, and acceptance is a
                    // deterministic function of the prefix — replay
                    // accepts it too; a refusal means a corrupt journal.
                    self.submit(0, payload, class)
                        .map_err(|e| bad(format!("op {i}: replay refused: {e}")))?;
                }
                t => return Err(bad(format!("op {i}: unknown tag {t}"))),
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::service::{DeadlineClass, ServiceMode};
    use crate::stats::ServiceStats;
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

    /// `snapshot_bytes` is observational (it records image sizes, which
    /// legitimately differ between a live service and its restored twin);
    /// every determinism comparison masks it.
    fn replayable(stats: &ServiceStats) -> ServiceStats {
        ServiceStats {
            snapshot_bytes: 0,
            ..stats.clone()
        }
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
        assert_eq!(replayable(&a.stats()), replayable(&b.stats()));
        // Both runs, continued identically, release identically.
        let ra = a.shutdown().unwrap();
        let rb = b.shutdown().unwrap();
        assert_eq!(ra, rb);
        assert_eq!(replayable(&a.stats()), replayable(&b.stats()));
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
    fn checkpointed_snapshot_round_trips_and_shrinks() {
        let mut a = seeded();
        // Era 1: one full epoch (a whole batch of payload-carrying
        // submissions), delivered and drained, then folded. The fold
        // drops the delivered payloads from the image entirely — only
        // counters and the histogram remember them.
        for client in 0..3u64 {
            a.submit(client, vec![client as u8; 64], DeadlineClass::Standard)
                .unwrap();
        }
        while a.stats().finished == 0 {
            a.tick().unwrap();
        }
        a.drain_releases();
        let full_journal_image = a.snapshot().unwrap();
        assert!(a.try_checkpoint(), "drained service is at a boundary");
        assert_eq!(a.era(), 1);
        assert_eq!(a.stats().journal_ops, 0);
        // Short tail after the fold.
        a.submit(2, vec![2], DeadlineClass::Standard).unwrap();
        a.tick().unwrap();

        let image = a.snapshot().unwrap();
        assert!(
            image.len() < full_journal_image.len(),
            "checkpointed image ({}B) should undercut the pre-fold full-journal one ({}B)",
            image.len(),
            full_journal_image.len()
        );
        let mut b = Service::restore(&image).unwrap();
        assert_eq!(b.era(), 1);
        assert_eq!(replayable(&a.stats()), replayable(&b.stats()));
        assert_eq!(a.shutdown().unwrap(), b.shutdown().unwrap());
        assert_eq!(replayable(&a.stats()), replayable(&b.stats()));
    }

    /// Four equal waves, each drained to a boundary, folded (on `a` only)
    /// and followed by the same short mid-epoch tail: the checkpointing
    /// service's image and replay length are the same in every era, while
    /// its never-checkpointing twin's image carries the whole journal.
    #[test]
    fn era_images_stay_flat_while_the_full_journal_grows() {
        use crate::loadgen::{LoadGen, LoadProfile};
        let service = || {
            Service::new(
                ServiceConfig::new(4, ServiceMode::Beacon)
                    .seed(b"era-flat")
                    .batch_size(64)
                    .flush_after(4),
            )
            .unwrap()
        };
        let (mut a, mut b) = (service(), service());
        let (mut bytes_a, mut bytes_b, mut ops_a) = (Vec::new(), Vec::new(), Vec::new());
        for era in 1..=4u64 {
            for svc in [&mut a, &mut b] {
                let mut gen = LoadGen::new(LoadProfile::beacon(256, 64), &era.to_be_bytes());
                while !gen.done() || svc.live() > 0 || svc.queued() > 0 {
                    for s in gen.next_tick() {
                        svc.submit(s.client, s.payload, s.class).unwrap();
                    }
                    svc.tick().unwrap();
                    svc.drain_releases();
                }
            }
            assert!(a.try_checkpoint(), "drained service sits at a boundary");
            assert_eq!(a.era(), era);
            for svc in [&mut a, &mut b] {
                for client in 0..8 {
                    svc.submit(client, vec![0x5A; 32], DeadlineClass::Standard)
                        .unwrap();
                }
                svc.tick().unwrap();
                svc.tick().unwrap();
            }
            let image = a.snapshot().unwrap();
            let restored = Service::restore(&image).unwrap();
            assert_eq!(replayable(&a.stats()), replayable(&restored.stats()));
            bytes_a.push(image.len());
            bytes_b.push(b.snapshot().unwrap().len());
            ops_a.push(restored.stats().journal_ops);
        }
        for k in 1..4 {
            // Fixed-width U64s make the era image byte-flat today; the
            // slack is for a variable-width encoding of the counters.
            assert!(bytes_a[k].abs_diff(bytes_a[0]) <= 64, "{bytes_a:?}");
            assert_eq!(ops_a[k], ops_a[0], "replay length grew with the era");
            assert!(bytes_b[k] > bytes_b[k - 1], "{bytes_b:?}");
        }
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
        assert_eq!(a.stats().snapshot_bytes, written as u64);
        c.snapshot_to(&mut buf).unwrap();
        buf.extend_from_slice(b"tail");
        // The reader stops right after each digest: two images back to
        // back restore in sequence, and trailing traffic survives.
        let mut cursor = std::io::Cursor::new(&buf[..]);
        let mut b = Service::restore_from(&mut cursor).unwrap();
        assert_eq!(cursor.position() as usize, written);
        let mut d = Service::restore_from(&mut cursor).unwrap();
        assert_eq!(&buf[cursor.position() as usize..], b"tail");
        assert_eq!(replayable(&a.stats()), replayable(&b.stats()));
        assert_eq!(replayable(&c.stats()), replayable(&d.stats()));
        assert_eq!(a.shutdown().unwrap(), b.shutdown().unwrap());
        assert_eq!(c.shutdown().unwrap(), d.shutdown().unwrap());
    }

    #[test]
    fn snapshot_bytes_records_the_whole_image_both_ways() {
        let mut a = seeded();
        a.submit(1, vec![3; 40], DeadlineClass::Standard).unwrap();
        a.tick().unwrap();
        let image = a.snapshot().unwrap();
        assert_eq!(a.stats().snapshot_bytes, image.len() as u64);
        let from_slice = Service::restore(&image).unwrap();
        let from_reader = Service::restore_from(&mut &image[..]).unwrap();
        assert_eq!(from_slice.stats().snapshot_bytes, image.len() as u64);
        assert_eq!(from_reader.stats().snapshot_bytes, image.len() as u64);
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

    /// `fields` re-[`seal`]ed with checkpoint (payload field 7) item `at`
    /// set to `v`.
    fn with_checkpoint_item(fields: &[Value], at: usize, v: Value) -> Vec<u8> {
        let mut fields = fields.to_vec();
        let Value::List(cp) = &mut fields[7] else {
            panic!("checkpoint is a list");
        };
        Arc::make_mut(cp)[at] = v;
        seal(&Value::list(fields).encode())
    }

    #[test]
    fn sealed_image_with_a_zero_tuning_knob_is_refused() {
        // Correct digest, valid shape, but a `batch_size` or `max_live` of
        // 0 in the tuning list (payload field 4): replayed, it would be a
        // service that ticks `Ok` forever and never releases. Last row:
        // n = 2³² in the params list (field 1), past the `u32` party ids,
        // which the journal's submission would have opened an instance for.
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
        // field 7, checkpoint field 5) whose `count` no recording produced:
        // restored, `stats()` would overflow on it or report nonsense.
        let fields = payload_fields();
        let with_hist = |buckets: &[u64], count: u64, sum: u64| {
            let buckets = Value::list(buckets.iter().map(|b| Value::U64(*b)));
            let hist = [buckets, Value::U64(count), Value::U64(sum), Value::U64(0)];
            with_checkpoint_item(&fields, 5, Value::list(hist))
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
    fn sealed_image_with_a_checkpoint_coordinate_past_2_63_is_refused() {
        // Correct digest, valid shape, but a checkpoint coordinate (payload
        // field 7, checkpoint fields 0–3) at `u64::MAX`: restored, the
        // first tick that wakes an instance (`round`), the first replayed
        // open (`next_instance`) or submit (`next_ticket`), or the next
        // fold (`era`) overflowed. 2^63 − 1 still restores, bar the ticket:
        // it must be the service's zero accepted submissions.
        let fields = payload_fields();
        let with = |at: usize, v: u64| with_checkpoint_item(&fields, at, Value::U64(v));
        for (at, name) in [
            (0, "era"),
            (1, "round"),
            (2, "next_instance"),
            (3, "next_ticket"),
        ] {
            for v in [1 << 63, u64::MAX] {
                let detail = assert_bad(&with(at, v), name);
                assert!(detail.starts_with(name), "{detail}");
            }
            let largest = with(at, (1 << 63) - 1);
            if name == "next_ticket" {
                assert!(assert_bad(&largest, name).starts_with(name));
            } else {
                Service::restore(&largest).unwrap();
            }
        }
    }

    #[test]
    fn sealed_image_with_forged_tickets_is_refused() {
        // Correct digest, valid shape, but a checkpoint whose ticket (item
        // 3) is not its `accepted` counter, or whose queued tickets (item
        // 6) are out of order or not below it: restored, the service would
        // issue a ticket twice.
        let mut a = seeded();
        for payload in [[1], [2], [3]] {
            a.submit(1, payload.to_vec(), DeadlineClass::Standard)
                .unwrap();
        }
        a.checkpoint().unwrap();
        let fields = payload_fields_of(&a);
        let entry = |t| Value::list([Value::U64(t), Value::bytes([0]), Value::U64(0)]);
        let queue = |tickets: [u64; 3]| {
            let standard = Value::list(tickets.map(entry));
            Value::list([Value::list([]), standard, Value::list([])])
        };
        Service::restore(&with_checkpoint_item(&fields, 6, queue([0, 1, 2]))).unwrap();
        let behind = with_checkpoint_item(&fields, 3, Value::U64(2));
        assert!(assert_bad(&behind, "ticket").starts_with("next_ticket"));
        for tickets in [[0, 2, 1], [0, 1, 1], [1, 2, 3]] {
            let forged = with_checkpoint_item(&fields, 6, queue(tickets));
            assert!(assert_bad(&forged, "queue").starts_with("queue 1"));
        }
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
