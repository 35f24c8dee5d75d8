//! Snapshot/restore: the service as a folded checkpoint plus a
//! deterministic operation tail, streamed through the `sbc-net` codec.
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
//! instance delivered, drained, and pruned — [`SbcService::checkpoint`])
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
//! service (records already delivered to sinks or drained — the restored
//! run must not re-deliver them) and the ones that never entered it
//! (submissions rejected with `QueueFull` touch a counter but not the
//! journal). Those ride alongside the tail as absolute counters.
//!
//! ## Wire format (v2, streaming)
//!
//! A multi-frame stream — `SnapshotHeader` ‖ `SnapshotChunk`× ‖
//! `SnapshotTrailer` with a SHA-256 digest — produced by
//! [`sbc_net::codec::encode_snapshot_stream`]. Chunking removes the
//! single-frame `MAX_FRAME` ceiling: a payload of any size encodes. The
//! chunked payload is the canonical [`Value`] encoding of
//!
//! ```text
//! List[ Str("sbc-service/v2"),
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
//!                                  | List[1, client, Bytes, class])
//! ```

use std::io;

use sbc_core::worlds::{SbcBackend, SbcParams};
use sbc_net::codec::{
    decode_snapshot_stream, encode_snapshot_stream, read_snapshot_stream, write_snapshot_stream,
    SnapshotStream, SnapshotStreamError,
};
use sbc_uc::value::Value;

use crate::service::{
    Checkpoint, Counters, DeadlineClass, Op, SbcService, ServiceConfig, ServiceError, ServiceMode,
};
use crate::stats::LatencyHistogram;

/// The version string leading a v2 streaming snapshot payload.
const VERSION_TAG_V2: &str = "sbc-service/v2";

fn bad(detail: impl Into<String>) -> ServiceError {
    ServiceError::BadSnapshot {
        detail: detail.into(),
    }
}

fn stream_err(e: SnapshotStreamError) -> ServiceError {
    bad(format!("snapshot stream: {e}"))
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

/// Encodes the checkpoint record (body field 7 of a v2 image).
fn checkpoint_value(cp: &Checkpoint) -> Value {
    let c = &cp.counters;
    let (buckets, count, sum, max) = cp.hist.raw_parts();
    let queues = cp
        .queues
        .iter()
        .map(|q| {
            Value::List(
                q.iter()
                    .map(|(ticket, payload, round)| {
                        Value::list([
                            Value::U64(*ticket),
                            Value::bytes(payload),
                            Value::U64(*round),
                        ])
                    })
                    .collect(),
            )
        })
        .collect();
    Value::list([
        Value::U64(cp.era),
        Value::U64(cp.round),
        Value::U64(cp.next_instance),
        Value::U64(cp.next_ticket),
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
            Value::List(buckets.iter().map(|b| Value::U64(*b)).collect()),
            Value::U64(count),
            Value::U64(sum),
            Value::U64(max),
        ]),
        Value::List(queues),
    ])
}

/// Parses the checkpoint record of a v2 image.
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
    .ok_or_else(|| bad("histogram: wrong bucket arity"))?;
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
    Ok(Checkpoint {
        era: as_u64(&cp[0], "era")?,
        round: as_u64(&cp[1], "round")?,
        next_instance: as_u64(&cp[2], "next_instance")?,
        next_ticket: as_u64(&cp[3], "next_ticket")?,
        counters,
        hist,
        queues,
    })
}

impl<W: SbcBackend> SbcService<W> {
    /// The v2 snapshot payload: config, absolute delivered/rejected, the
    /// checkpoint record, and the post-checkpoint operation tail.
    fn snapshot_payload(&self) -> Vec<u8> {
        let ops: Vec<Value> = self
            .journal
            .iter()
            .map(|op| match op {
                Op::Ticks(count) => Value::list([Value::U64(0), Value::U64(*count)]),
                Op::Submit {
                    client,
                    payload,
                    class,
                } => Value::list([
                    Value::U64(1),
                    Value::U64(*client),
                    Value::bytes(payload),
                    Value::U64(class.tag()),
                ]),
            })
            .collect();
        let [params, seed, mode, tuning] = config_values(self.config());
        Value::list([
            Value::str(VERSION_TAG_V2),
            params,
            seed,
            mode,
            tuning,
            Value::U64(self.stats().delivered),
            Value::U64(self.stats().rejected),
            checkpoint_value(&self.checkpoint),
            Value::List(ops),
        ])
        .encode()
    }

    /// Serializes the service into a v2 streaming snapshot (header ‖
    /// chunks ‖ digest trailer — the wire format is documented at the top
    /// of `snapshot.rs`). Any journal size encodes; this never fails.
    ///
    /// The image carries the current checkpoint plus the post-boundary
    /// tail — [`checkpoint`](Self::checkpoint) at era boundaries to keep
    /// it (and restore time) O(current era).
    pub fn snapshot(&self) -> Result<Vec<u8>, ServiceError> {
        let bytes = encode_snapshot_stream(self.era(), self.round(), &self.snapshot_payload());
        self.note_snapshot_bytes(bytes.len() as u64);
        Ok(bytes)
    }

    /// Streams a v2 snapshot into any [`io::Write`] — a file, a socket —
    /// frame by frame, without materializing the full image. Returns the
    /// bytes written.
    ///
    /// # Errors
    ///
    /// [`ServiceError::BadSnapshot`] carrying the writer's I/O failure.
    pub fn snapshot_to<Wr: io::Write>(&self, w: &mut Wr) -> Result<usize, ServiceError> {
        let written = write_snapshot_stream(w, self.era(), self.round(), &self.snapshot_payload())
            .map_err(stream_err)?;
        self.note_snapshot_bytes(written as u64);
        Ok(written)
    }

    /// Rebuilds a service from a v2 streaming snapshot image
    /// ([`snapshot`](Self::snapshot)).
    ///
    /// The restored service has **no sinks** — re-register them; records
    /// the original had already delivered are not re-delivered, and
    /// records that were still parked are parked again, in order.
    ///
    /// # Errors
    ///
    /// * [`ServiceError::BadSnapshot`] for anything that fails to decode
    ///   as a service image — including every typed stream malformation
    ///   (truncation, dropped or reordered chunks, digest mismatch), whose
    ///   description it carries.
    /// * [`ServiceError::Pool`] if replay itself fails — impossible for a
    ///   journal captured from a healthy service.
    pub fn restore(bytes: &[u8]) -> Result<Self, ServiceError> {
        let stream = decode_snapshot_stream(bytes).map_err(stream_err)?;
        let svc = Self::restore_stream(&stream)?;
        svc.note_snapshot_bytes(bytes.len() as u64);
        Ok(svc)
    }

    /// Rebuilds a service from a v2 snapshot stream read off any
    /// [`io::Read`] — the inverse of [`snapshot_to`](Self::snapshot_to).
    /// The reader is left positioned right after the trailer.
    ///
    /// # Errors
    ///
    /// As [`restore`](Self::restore), with reader I/O failures surfacing
    /// as [`ServiceError::BadSnapshot`] too.
    pub fn restore_from<R: io::Read>(r: &mut R) -> Result<Self, ServiceError> {
        let stream = read_snapshot_stream(r).map_err(stream_err)?;
        let svc = Self::restore_stream(&stream)?;
        svc.note_snapshot_bytes(stream.payload.len() as u64);
        Ok(svc)
    }

    /// Decodes and replays a v2 payload: fresh pool, fast-forward through
    /// the checkpoint, replay the tail, settle delivery bookkeeping.
    fn restore_stream(stream: &SnapshotStream) -> Result<Self, ServiceError> {
        let body =
            Value::decode(&stream.payload).ok_or_else(|| bad("payload: not a canonical Value"))?;
        let fields = body.as_list().ok_or_else(|| bad("body: expected List"))?;
        let version = field(fields, 0, "version")?;
        if version.as_str() != Some(VERSION_TAG_V2) {
            return Err(bad(format!("unsupported version {version:?}")));
        }
        let cfg = parse_config(fields)?;
        let delivered = as_u64(&field(fields, 5, "delivered")?, "delivered")?;
        let rejected = as_u64(&field(fields, 6, "rejected")?, "rejected")?;
        let cp = parse_checkpoint(&field(fields, 7, "checkpoint")?)?;
        if cp.era != stream.era {
            return Err(bad(format!(
                "era mismatch: header says {}, checkpoint says {}",
                stream.era, cp.era
            )));
        }
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
                        self.tick()?;
                    }
                }
                1 => {
                    if op.len() != 4 {
                        return Err(bad(format!("op {i}: submit arity")));
                    }
                    let client = as_u64(&op[1], "client")?;
                    let payload = op[2]
                        .as_bytes()
                        .ok_or_else(|| bad(format!("op {i}: payload")))?
                        .to_vec();
                    let class = DeadlineClass::from_tag(as_u64(&op[3], "class")?)
                        .ok_or_else(|| bad(format!("op {i}: unknown class")))?;
                    // The original accepted this op, and acceptance is a
                    // deterministic function of the prefix — replay
                    // accepts it too; a refusal means a corrupt journal.
                    self.submit(client, payload, class)
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
    use sbc_net::{Endpoint, Frame, FrameKind};

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

    #[test]
    fn snapshot_to_and_restore_from_stream_through_io() {
        let mut a = seeded();
        a.submit(1, vec![7], DeadlineClass::Standard).unwrap();
        a.tick().unwrap();
        let mut buf = Vec::new();
        let written = a.snapshot_to(&mut buf).unwrap();
        assert_eq!(written, buf.len());
        assert_eq!(a.stats().snapshot_bytes, written as u64);
        // The reader stops at the trailer: trailing connection traffic
        // survives.
        buf.extend_from_slice(b"tail");
        let mut cursor = std::io::Cursor::new(&buf[..]);
        let mut b = Service::restore_from(&mut cursor).unwrap();
        assert_eq!(&buf[cursor.position() as usize..], b"tail");
        assert_eq!(replayable(&a.stats()), replayable(&b.stats()));
        assert_eq!(a.shutdown().unwrap(), b.shutdown().unwrap());
    }

    #[test]
    fn garbage_and_wrong_frames_are_typed_errors() {
        assert!(matches!(
            Service::restore(b"junk"),
            Err(ServiceError::BadSnapshot { .. })
        ));
        let not_snapshot = Frame {
            from: Endpoint::Env,
            to: Endpoint::Env,
            sent_at: 0,
            kind: FrameKind::Tick,
        }
        .encode();
        assert!(matches!(
            Service::restore(&not_snapshot),
            Err(ServiceError::BadSnapshot { .. })
        ));
        // A v1-shaped image — one frame under the retired kind tag 12
        // carrying `List["sbc-service/v1", …]` — is an unknown frame kind
        // now: typed error, no panic.
        let mut v1_shaped = Frame {
            from: Endpoint::Env,
            to: Endpoint::Env,
            sent_at: 0,
            kind: FrameKind::Output(Value::list([Value::str("sbc-service/v1"), Value::U64(7)])),
        }
        .encode();
        v1_shaped[7] = 12;
        assert!(matches!(
            Service::restore(&v1_shaped),
            Err(ServiceError::BadSnapshot { .. })
        ));
    }

    #[test]
    fn corrupted_streams_are_typed_errors() {
        let mut a = seeded();
        a.submit(1, vec![9], DeadlineClass::Standard).unwrap();
        a.tick().unwrap();
        let image = a.snapshot().unwrap();

        // Flip a payload byte deep inside the chunk: the digest catches
        // it before the Value decoder ever runs.
        let mut corrupt = image.clone();
        let mid = corrupt.len() / 2;
        corrupt[mid] ^= 0x01;
        let err = Service::restore(&corrupt)
            .err()
            .expect("corrupt image must fail");
        assert!(matches!(&err, ServiceError::BadSnapshot { .. }), "{err}");

        // Truncation (a dropped trailer) is typed too.
        let err = Service::restore(&image[..image.len() - 10])
            .err()
            .expect("truncated image must fail");
        assert!(matches!(&err, ServiceError::BadSnapshot { .. }), "{err}");
    }
}
