//! The delivery seam of the networked world.
//!
//! A [`Transport`] moves encoded [`Frame`]s between endpoints. It decodes
//! each frame once, on the way in, to classify it — dropping, counting,
//! what does not decode — and hands the receiver that decoded [`Frame`],
//! so nothing above it decodes the same bytes again. Frames fall into
//! three planes:
//!
//! * **control** — submissions, ticks, casts, functionality requests and
//!   `Wake_Up` deliveries. These model the atomic environment/party/
//!   functionality interactions of the UC experiment: FIFO per
//!   destination, delivered the moment the destination is pumped.
//! * **rpc** — functionality responses back to a party, on a dedicated
//!   per-party lane so an in-flight request/response exchange can never
//!   interleave with queued deliveries.
//! * **data** — `(c, τ_rel, y)` wire deliveries between parties. This is
//!   the plane the adversary owns: [`SimNet`] delays, reorders,
//!   duplicates, partitions and (for corrupted senders) drops here,
//!   subject to the protocol's ∆-bounded delivery guarantee — every data
//!   frame is due strictly before the period end `t_end = τ_rel − ∆`
//!   parsed off its own payload, so chaos never changes what the
//!   protocol decides.
//!
//! [`Loopback`] delivers the data plane with zero latency in send order —
//! bit-compatible with the in-process world's inline delivery loop.

use crate::codec::{Endpoint, Frame, FrameKind, NetError};
use sbc_core::protocol::wire_tau;
use sbc_primitives::drbg::Drbg;
use std::collections::VecDeque;

/// Counters every transport keeps; the bench report and the conformance
/// tests read these to prove the adversarial schedule actually fired.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct TransportStats {
    /// Frames accepted for delivery.
    pub sent: u64,
    /// Frames handed to a receiver.
    pub delivered: u64,
    /// Encoded bytes accepted.
    pub bytes: u64,
    /// Data frames scheduled later than their send round.
    pub delayed: u64,
    /// Data frames delivered out of send order within a drain.
    pub reordered: u64,
    /// Extra copies injected by duplication.
    pub duplicated: u64,
    /// Frames dropped (corrupted-sender drops and undecodable input).
    pub dropped: u64,
    /// Rounds of extra deferral forced by partitions.
    pub partition_deferrals: u64,
    /// Frames rejected because they did not decode.
    pub decode_errors: u64,
    /// Read/write deadlines that expired before the peer caught up
    /// (socket transports only; in-process transports never time out).
    pub timeouts: u64,
    /// Connections re-established after a mid-stream drop (socket
    /// transports only).
    pub reconnects: u64,
}

/// A frame mover between endpoints. Implementations must be
/// deterministic: the same sends in the same order produce the same
/// delivery schedule (the conformance harness replays seeds).
pub trait Transport: Send + std::fmt::Debug {
    /// Accepts an encoded frame for delivery. The transport decodes it once
    /// to classify and schedule, and queues the decoded [`Frame`] for the
    /// `recv_*` side; input that does not decode is dropped and counted,
    /// and the typed error returned.
    ///
    /// # Errors
    ///
    /// [`NetError::Codec`] if the frame does not decode (an oversize one
    /// included); [`NetError::UnknownParty`] if it addresses a party
    /// outside the experiment. Either way the frame is not queued.
    fn send(&mut self, bytes: Vec<u8>, now: u64) -> Result<(), NetError>;

    /// Drains all control-plane frames, decoded, in global send order.
    /// Frames carry their own destination; the caller dispatches.
    fn recv_control(&mut self) -> Vec<Frame>;

    /// Drains the rpc lane of one party (functionality responses),
    /// decoded, FIFO.
    fn recv_rpc(&mut self, party: u32) -> Vec<Frame>;

    /// Drains the data-plane frames for `party` that are due at or before
    /// round `now`, decoded, in schedule order.
    fn recv_data(&mut self, party: u32, now: u64) -> Vec<Frame>;

    /// Marks a party corrupted (a [`SimNet`] with
    /// [`SimConfig::drop_from_corrupted`] starts dropping its casts).
    fn set_corrupted(&mut self, party: u32);

    /// Drops every in-flight frame (period turnover — the in-process
    /// world's `clear_pending`).
    fn clear_in_flight(&mut self);

    /// Whether no frame is queued anywhere.
    fn idle(&self) -> bool;

    /// The running counters.
    fn stats(&self) -> TransportStats;
}

/// Classification of a decoded frame, shared by every transport.
pub(crate) enum Plane {
    Control,
    Rpc(u32),
    /// A party-to-party wire: recipient, origin, and the period end
    /// `t_end = τ_rel − ∆` parsed off the payload (the delivery deadline).
    Data {
        to: u32,
        origin: u32,
        end: u64,
    },
}

/// Classifies a decoded frame onto its plane without touching any
/// counters — the shared routing rule of every transport (the TCP
/// transport classifies twice per frame, on send and on socket arrival,
/// and must count it only once).
pub(crate) fn plane_of(frame: &Frame, delta: u64, n: usize) -> Result<Plane, NetError> {
    let Endpoint::Party(to) = frame.to else {
        return Ok(Plane::Control);
    };
    if to as usize >= n {
        return Err(NetError::UnknownParty { party: to, n });
    }
    Ok(match &frame.kind {
        // Functionality responses ride the dedicated rpc lane.
        FrameKind::TleTriples(_) | FrameKind::TleDecResp(_) | FrameKind::RoAnswer(_) => {
            Plane::Rpc(to)
        }
        // A wire delivery is data-plane. What a wire is, is the party's
        // parser's call (`wire_tau`), so none is ever filed on a plane the
        // party will not read it from; a Deliver that is not one (a
        // Wake_Up, or garbage the recipient discards) is control, as the
        // in-process world delivers it immediately.
        FrameKind::Deliver { origin, payload } => match wire_tau(payload) {
            Some(tau) => Plane::Data {
                to,
                origin: *origin,
                end: tau.saturating_sub(delta),
            },
            None => Plane::Control,
        },
        // Anything else addressed to a party — submissions, ticks — too.
        _ => Plane::Control,
    })
}

/// Shared mailbox state: per-plane queues of decoded frames, plus
/// counters.
#[derive(Debug, Default)]
pub(crate) struct Mailboxes {
    control: VecDeque<Frame>,
    rpc: Vec<VecDeque<Frame>>,
    /// Per-party data queue: `(due_round, seq, frame)`, kept in
    /// `(due, seq)` order.
    data: Vec<Vec<(u64, u64, Frame)>>,
    seq: u64,
    pub(crate) stats: TransportStats,
}

impl Mailboxes {
    pub(crate) fn new(n: usize) -> Self {
        Mailboxes {
            control: VecDeque::new(),
            rpc: vec![VecDeque::new(); n],
            data: vec![Vec::new(); n],
            seq: 0,
            stats: TransportStats::default(),
        }
    }

    /// Decodes and classifies an incoming frame, counting it as accepted.
    /// `delta` recovers the delivery deadline from a wire's own `τ_rel`.
    pub(crate) fn classify(
        &mut self,
        bytes: &[u8],
        delta: u64,
        n: usize,
    ) -> Result<(Frame, Plane), NetError> {
        let frame = match Frame::decode(bytes) {
            Ok(f) => f,
            Err(e) => {
                self.stats.decode_errors += 1;
                self.stats.dropped += 1;
                return Err(e.into());
            }
        };
        let plane = plane_of(&frame, delta, n)?;
        self.stats.sent += 1;
        self.stats.bytes += bytes.len() as u64;
        Ok((frame, plane))
    }

    /// Files a classified frame on its plane: control and rpc in arrival
    /// order, data due at round `due`.
    pub(crate) fn file(&mut self, plane: Plane, due: u64, frame: Frame) {
        match plane {
            Plane::Control => self.control.push_back(frame),
            Plane::Rpc(p) => self.rpc[p as usize].push_back(frame),
            Plane::Data { to, .. } => self.push_data(to, due, frame),
        }
    }

    fn push_data(&mut self, to: u32, due: u64, frame: Frame) {
        let seq = self.seq;
        self.seq += 1;
        let q = &mut self.data[to as usize];
        let at = q.partition_point(|&(d, s, _)| (d, s) <= (due, seq));
        q.insert(at, (due, seq, frame));
    }

    pub(crate) fn drain_data(&mut self, party: u32, now: u64) -> Vec<Frame> {
        let q = &mut self.data[party as usize];
        let upto = q.partition_point(|&(d, _, _)| d <= now);
        let out: Vec<Frame> = q.drain(..upto).map(|(_, _, f)| f).collect();
        self.stats.delivered += out.len() as u64;
        out
    }

    pub(crate) fn drain_control(&mut self) -> Vec<Frame> {
        let out: Vec<Frame> = self.control.drain(..).collect();
        self.stats.delivered += out.len() as u64;
        out
    }

    pub(crate) fn drain_rpc(&mut self, party: u32) -> Vec<Frame> {
        let out: Vec<Frame> = self.rpc[party as usize].drain(..).collect();
        self.stats.delivered += out.len() as u64;
        out
    }

    pub(crate) fn clear(&mut self) {
        self.control.clear();
        for q in &mut self.rpc {
            q.clear();
        }
        for q in &mut self.data {
            q.clear();
        }
    }

    pub(crate) fn idle(&self) -> bool {
        self.control.is_empty()
            && self.rpc.iter().all(|q| q.is_empty())
            && self.data.iter().all(|q| q.is_empty())
    }
}

/// The in-process reference transport: every plane delivers with zero
/// latency in send order — bit-compatible with the in-process world's
/// inline delivery loop (and hence with the `SyncNet` staging discipline
/// of `sbc_uc::net`, which also preserves per-recipient send order
/// within a round).
#[derive(Debug)]
pub struct Loopback {
    n: usize,
    delta: u64,
    boxes: Mailboxes,
}

impl Loopback {
    /// A loopback for an `n`-party experiment with delivery bound `delta`.
    pub fn new(n: usize, delta: u64) -> Self {
        Loopback {
            n,
            delta,
            boxes: Mailboxes::new(n),
        }
    }
}

impl Transport for Loopback {
    fn send(&mut self, bytes: Vec<u8>, now: u64) -> Result<(), NetError> {
        let (frame, plane) = self.boxes.classify(&bytes, self.delta, self.n)?;
        self.boxes.file(plane, now, frame);
        Ok(())
    }

    fn recv_control(&mut self) -> Vec<Frame> {
        self.boxes.drain_control()
    }

    fn recv_rpc(&mut self, party: u32) -> Vec<Frame> {
        self.boxes.drain_rpc(party)
    }

    fn recv_data(&mut self, party: u32, now: u64) -> Vec<Frame> {
        self.boxes.drain_data(party, now)
    }

    fn set_corrupted(&mut self, _party: u32) {}

    fn clear_in_flight(&mut self) {
        self.boxes.clear();
    }

    fn idle(&self) -> bool {
        self.boxes.idle()
    }

    fn stats(&self) -> TransportStats {
        self.boxes.stats
    }
}

/// Knobs of the deterministic adversarial network.
#[derive(Clone, Copy, Debug)]
pub struct SimConfig {
    /// Delivery bound ∆ of the experiment (recovers each wire's deadline).
    pub delta: u64,
    /// Maximum extra per-link latency in rounds, drawn per data frame
    /// from the seeded schedule; effective latency is always clamped so
    /// the frame lands before its period end (the ∆ bound).
    pub max_latency: u64,
    /// Permute same-round delivery batches.
    pub reorder: bool,
    /// Duplicate every k-th data frame (0 disables).
    pub duplicate_every: u64,
    /// Drop data frames whose origin is corrupted.
    pub drop_from_corrupted: bool,
    /// Partition cycle length in rounds (0 disables partitions).
    pub partition_period: u64,
    /// Rounds per cycle a recipient link is down. Frames due in a
    /// partitioned round defer to the heal round — but never past the
    /// frame's period-end deadline, so partitions always heal before the
    /// release round.
    pub partition_len: u64,
}

impl SimConfig {
    /// The seeded adversarial schedule the conformance gate runs under:
    /// latency up to ∆, reorder on, every 3rd frame duplicated, a
    /// 5-round partition cycle with 2-round outages. Corrupted-sender
    /// drops stay off — dropping changes the received-wire sets and is
    /// exercised by its own tests, outside the `Exact` envelope.
    pub fn adversarial(delta: u64) -> Self {
        SimConfig {
            delta,
            max_latency: delta,
            reorder: true,
            duplicate_every: 3,
            drop_from_corrupted: false,
            partition_period: 5,
            partition_len: 2,
        }
    }

    /// No chaos at all: a `SimNet` that behaves like [`Loopback`].
    pub fn quiet(delta: u64) -> Self {
        SimConfig {
            delta,
            max_latency: 0,
            reorder: false,
            duplicate_every: 0,
            drop_from_corrupted: false,
            partition_period: 0,
            partition_len: 0,
        }
    }
}

/// The deterministic adversarial network: a seeded schedule injects
/// per-link latency (within ∆), reorder, duplication, corrupted-sender
/// drops and transient partitions on the data plane. Control and rpc
/// frames model the UC experiment's atomic interactions and are never
/// touched — the adversary owns the party-to-party network, not the
/// functionality interfaces.
#[derive(Debug)]
pub struct SimNet {
    n: usize,
    cfg: SimConfig,
    rng: Drbg,
    boxes: Mailboxes,
    corrupted: Vec<bool>,
    data_sends: u64,
}

impl SimNet {
    /// A simulated net over `n` parties driven by `seed`.
    pub fn new(n: usize, cfg: SimConfig, seed: &[u8]) -> Self {
        SimNet {
            n,
            cfg,
            rng: Drbg::from_seed(seed),
            boxes: Mailboxes::new(n),
            corrupted: vec![false; n],
            data_sends: 0,
        }
    }

    /// Whether `party`'s inbound link is down in `round`.
    fn partitioned(&self, party: u32, round: u64) -> bool {
        if self.cfg.partition_period == 0 {
            return false;
        }
        // Stagger outages across recipients so partitions are per-link.
        (round + u64::from(party) * 3) % self.cfg.partition_period < self.cfg.partition_len
    }

    /// Schedules one data frame: seeded latency, partition deferral, and
    /// the hard period-end clamp that keeps every delivery inside the ∆
    /// bound (`due < end`, i.e. before `t_end`, i.e. partitions heal
    /// before the release round).
    fn schedule(&mut self, to: u32, now: u64, end: u64) -> u64 {
        let deadline = end.saturating_sub(1).max(now);
        let lat = if self.cfg.max_latency == 0 {
            0
        } else {
            self.rng.gen_range(self.cfg.max_latency + 1)
        };
        let mut due = (now + lat).min(deadline);
        if due > now {
            self.boxes.stats.delayed += 1;
        }
        while self.partitioned(to, due) && due < deadline {
            due += 1;
            self.boxes.stats.partition_deferrals += 1;
        }
        due
    }
}

impl Transport for SimNet {
    fn send(&mut self, bytes: Vec<u8>, now: u64) -> Result<(), NetError> {
        let (frame, plane) = self.boxes.classify(&bytes, self.cfg.delta, self.n)?;
        match plane {
            Plane::Data { to, origin, end } => {
                if self.cfg.drop_from_corrupted
                    && (origin as usize) < self.n
                    && self.corrupted[origin as usize]
                {
                    self.boxes.stats.dropped += 1;
                    return Ok(());
                }
                self.data_sends += 1;
                let due = self.schedule(to, now, end);
                let duplicate = self.cfg.duplicate_every != 0
                    && self.data_sends.is_multiple_of(self.cfg.duplicate_every);
                if duplicate {
                    let copy_due = (due + 1).min(end.saturating_sub(1)).max(due);
                    self.boxes.stats.duplicated += 1;
                    self.boxes.push_data(to, copy_due, frame.clone());
                }
                self.boxes.push_data(to, due, frame);
            }
            plane => self.boxes.file(plane, now, frame),
        }
        Ok(())
    }

    fn recv_control(&mut self) -> Vec<Frame> {
        self.boxes.drain_control()
    }

    fn recv_rpc(&mut self, party: u32) -> Vec<Frame> {
        self.boxes.drain_rpc(party)
    }

    fn recv_data(&mut self, party: u32, now: u64) -> Vec<Frame> {
        let mut out = self.boxes.drain_data(party, now);
        if self.cfg.reorder && out.len() > 1 {
            // Seeded Fisher-Yates over the due batch. Wire receptions are
            // inert until the release round, and the replay dedup is
            // order-insensitive for distinct wires, so this is inside the
            // conformance envelope.
            let mut permuted = false;
            for i in (1..out.len()).rev() {
                let j = self.rng.gen_range(i as u64 + 1) as usize;
                if i != j {
                    out.swap(i, j);
                    permuted = true;
                }
            }
            if permuted {
                self.boxes.stats.reordered += out.len() as u64;
            }
        }
        out
    }

    fn set_corrupted(&mut self, party: u32) {
        if (party as usize) < self.n {
            self.corrupted[party as usize] = true;
        }
    }

    fn clear_in_flight(&mut self) {
        self.boxes.clear();
    }

    fn idle(&self) -> bool {
        self.boxes.idle()
    }

    fn stats(&self) -> TransportStats {
        self.boxes.stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sbc_uc::value::Value;

    fn wire_frame(to: u32, origin: u32, tau: u64, tag: u8) -> Vec<u8> {
        Frame {
            from: Endpoint::Host,
            to: Endpoint::Party(to),
            sent_at: 0,
            kind: FrameKind::Deliver {
                origin,
                payload: Value::list([
                    Value::bytes([tag; 4]),
                    Value::U64(tau),
                    Value::bytes([tag ^ 0xff; 4]),
                ]),
            },
        }
        .encode()
    }

    #[test]
    fn loopback_delivers_in_send_order() {
        let mut t = Loopback::new(2, 2);
        t.send(wire_frame(1, 0, 9, 1), 3).unwrap();
        t.send(wire_frame(1, 0, 9, 2), 3).unwrap();
        let got = t.recv_data(1, 3);
        assert_eq!(got.len(), 2);
        assert_eq!(got[0].encode(), wire_frame(1, 0, 9, 1));
        assert!(t.idle());
    }

    #[test]
    fn garbage_is_dropped_and_counted_not_panicked() {
        let mut t = Loopback::new(2, 2);
        let err = t.send(vec![0xde, 0xad, 0xbe, 0xef, 1, 2, 3], 0);
        assert!(matches!(err, Err(NetError::Codec(_))));
        assert_eq!(t.stats().decode_errors, 1);
        assert!(t.idle());
    }

    #[test]
    fn out_of_range_party_rejected() {
        let mut t = Loopback::new(2, 2);
        let err = t.send(wire_frame(7, 0, 9, 1), 0);
        assert_eq!(err, Err(NetError::UnknownParty { party: 7, n: 2 }));
    }

    #[test]
    fn simnet_delivers_everything_before_period_end() {
        let cfg = SimConfig::adversarial(2);
        let mut t = SimNet::new(4, cfg, b"sched");
        // 40 wires towards τ_rel = 9 (end = 7), sent in round 3.
        for i in 0..40u8 {
            t.send(wire_frame(u32::from(i % 4), 0, 9, i), 3).unwrap();
        }
        let mut got = 0;
        for round in 3..7 {
            for p in 0..4 {
                got += t.recv_data(p, round).len();
            }
        }
        let s = t.stats();
        // Everything (plus duplicates) lands strictly before end = 7.
        assert_eq!(got as u64, 40 + s.duplicated);
        assert!(t.idle());
        assert!(s.delayed > 0, "latency injected: {s:?}");
        assert!(s.duplicated > 0, "duplication injected: {s:?}");
        assert!(s.partition_deferrals > 0, "partitions injected: {s:?}");
    }

    #[test]
    fn simnet_is_deterministic() {
        let run = || {
            let mut t = SimNet::new(4, SimConfig::adversarial(2), b"sched");
            for i in 0..20u8 {
                t.send(wire_frame(u32::from(i % 4), 0, 9, i), 3).unwrap();
            }
            let mut order = Vec::new();
            for round in 3..7 {
                for p in 0..4 {
                    order.extend(t.recv_data(p, round));
                }
            }
            (order, t.stats())
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn simnet_drops_corrupted_senders_when_configured() {
        let mut cfg = SimConfig::quiet(2);
        cfg.drop_from_corrupted = true;
        let mut t = SimNet::new(2, cfg, b"s");
        t.set_corrupted(0);
        t.send(wire_frame(1, 0, 9, 1), 3).unwrap();
        t.send(wire_frame(1, 1, 9, 2), 3).unwrap();
        let got = t.recv_data(1, 6);
        assert_eq!(got.len(), 1, "corrupted sender's wire dropped");
        assert_eq!(t.stats().dropped, 1);
    }
}
