//! Real sockets under the three-plane [`Transport`] seam: a std-only
//! (`std::net`, no async runtime) TCP backend speaking the existing
//! length-prefixed [`Frame`] encoding on the wire.
//!
//! # Topology
//!
//! A harness owns one nonblocking listener and the accept side of
//! **one socket per link**: a control lane, one rpc lane per party, and
//! one data lane per party — `2n + 1` lanes for an `n`-party experiment.
//! The matching [`TcpTransport`] owns the connect side of every lane plus
//! the shared per-plane mailboxes; every frame a world posts really
//! traverses the OS loopback stack (connect, write, accept, read) before
//! it can be received, and the frame the reader decodes off the socket is
//! the one handed up.
//!
//! # Deadlines and reconnects
//!
//! Read/write deadlines derive from the round bound ∆
//! ([`TcpConfig::from_delta`]): a round's worth of traffic must land
//! within the deadline or the receive side gives up on the gap, counts a
//! [`TransportStats::timeouts`], and lets the clock move on — a silent
//! peer costs one counted timeout, never a hang. A dropped connection
//! is survived by per-link reconnect with capped exponential backoff
//! (fixed, not configurable: a 2 s connect timeout per attempt, then a
//! sleep from 1 ms doubling to at most 50 ms between attempts):
//! the writer re-establishes the lane and retransmits the whole frame,
//! while the reader discards the partial tail of the dead socket and
//! drains it to EOF before promoting the replacement, so frame order is
//! preserved across the drop. A link that stays down through every
//! attempt is the typed [`NetError::LinkDown`].
//!
//! # Determinism and conformance
//!
//! Per-lane TCP byte streams preserve write order, receives are gated on
//! per-lane sent/received counters (a frame handed to `send` is visible
//! to the very next `recv_*`, matching the in-process world's synchrony
//! assumption), and a data frame's due round is its own `sent_at` — the
//! round the world stamped at post time, which is exactly [`Loopback`]'s
//! due-at-send-round schedule. [`TcpSbcWorld`] is therefore held to
//! `CompareLevel::Exact` transcript equality against `RealSbcWorld` in
//! `tests/net_conformance.rs`, over real OS sockets.
//!
//! [`Loopback`]: crate::transport::Loopback

use crate::codec::{CodecError, Endpoint, Frame, NetError};
use crate::transport::{plane_of, Mailboxes, Plane, Transport, TransportStats};
use crate::world::{NetProfile, NetSbcWorld};
use sbc_core::error::SbcError;
use sbc_core::worlds::SbcParams;
use std::collections::{HashSet, VecDeque};
use std::io::{ErrorKind, Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};
use std::time::{Duration, Instant};

/// Lane-identification preamble magic, written once per connection.
const PREAMBLE_MAGIC: [u8; 4] = *b"SBTC";
/// Preamble length: magic plus a big-endian `u32` lane id.
const PREAMBLE_LEN: usize = 8;
/// How long `admit` waits for a preamble to trail its accept.
const PREAMBLE_WAIT: Duration = Duration::from_secs(2);
/// Per-attempt connect timeout.
const CONNECT_TIMEOUT: Duration = Duration::from_secs(2);
/// First reconnect backoff; doubles per attempt.
const BACKOFF_BASE: Duration = Duration::from_millis(1);
/// Backoff ceiling.
const BACKOFF_CAP: Duration = Duration::from_millis(50);

/// Lanes of an `n`-party experiment: control, `n` rpc, `n` data.
fn lane_count(n: usize) -> usize {
    1 + 2 * n
}

/// The lane a classified frame rides.
fn lane_of_plane(plane: &Plane, n: usize) -> usize {
    match plane {
        Plane::Control => 0,
        Plane::Rpc(p) => 1 + *p as usize,
        Plane::Data { to, .. } => 1 + n + *to as usize,
    }
}

/// Human-readable lane name for typed errors.
fn lane_name(lane: usize, n: usize) -> String {
    if lane == 0 {
        "control".to_string()
    } else if lane <= n {
        format!("rpc:{}", lane - 1)
    } else {
        format!("data:{}", lane - 1 - n)
    }
}

fn io_err(op: &'static str) -> impl Fn(std::io::Error) -> NetError {
    move |e| NetError::Io {
        op,
        detail: e.to_string(),
    }
}

/// The sleep before reconnect attempt `attempt`: [`BACKOFF_BASE`] doubled
/// per attempt, capped at [`BACKOFF_CAP`].
fn backoff(attempt: u32) -> Duration {
    BACKOFF_BASE
        .saturating_mul(1 << attempt.min(16))
        .min(BACKOFF_CAP)
}

/// Tuning knobs of the TCP transport, built by
/// [`from_delta`](TcpConfig::from_delta). Every duration is wall-clock:
/// the protocol's rounds are logical, but a socket needs real deadlines.
#[derive(Clone, Copy, Debug)]
pub struct TcpConfig {
    /// Read/write deadline: how long a receive waits for in-flight frames
    /// (and a write waits for buffer space) before giving up.
    io_deadline: Duration,
    /// Reconnect attempts before a dead link becomes
    /// [`NetError::LinkDown`].
    reconnect_attempts: u32,
}

impl TcpConfig {
    /// Deadlines derived from the round bound ∆: a base allowance plus a
    /// per-round margin, so worlds with longer delivery bounds get
    /// proportionally more wall-clock slack before a link is declared
    /// silent.
    pub fn from_delta(delta: u64) -> Self {
        TcpConfig {
            io_deadline: Duration::from_millis(delta.saturating_mul(100).saturating_add(200)),
            reconnect_attempts: 5,
        }
    }
}

/// The accept side of one lane.
#[derive(Debug, Default)]
struct LaneRx {
    /// The live accepted socket, nonblocking.
    reader: Option<TcpStream>,
    /// Reconnected sockets waiting for the old reader to drain to EOF —
    /// promotion order preserves frame order across a drop.
    pending: VecDeque<TcpStream>,
    /// Stream-reassembly buffer (partial frames across reads).
    buf: Vec<u8>,
    /// Complete frames read off this lane.
    received: u64,
    /// Undecodable bytes appeared mid-stream: the connection was dropped
    /// and the counter gap conceded, so receives never wait on it.
    poisoned: bool,
}

/// The connect side of one lane.
#[derive(Debug, Default)]
struct LaneTx {
    writer: Option<TcpStream>,
    /// Complete frames written to this lane.
    sent: u64,
    /// Whether this lane has ever been connected — separates the lazy
    /// first connect from a genuine reconnect in the stats.
    connected_once: bool,
}

/// Owns the listener, the accept loop, and the read side of every lane;
/// built and consumed by [`TcpTransport::local`].
#[derive(Debug)]
struct TcpHarness {
    listener: TcpListener,
    addr: SocketAddr,
    rx: Vec<LaneRx>,
}

impl TcpHarness {
    /// Binds a loopback listener for an `n`-party experiment.
    ///
    /// # Errors
    ///
    /// [`NetError::Io`] if the OS refuses the bind.
    fn bind(n: usize) -> Result<Self, NetError> {
        let listener = TcpListener::bind(("127.0.0.1", 0)).map_err(io_err("bind"))?;
        listener.set_nonblocking(true).map_err(io_err("bind"))?;
        let addr = listener.local_addr().map_err(io_err("bind"))?;
        Ok(TcpHarness {
            listener,
            addr,
            rx: (0..lane_count(n)).map(|_| LaneRx::default()).collect(),
        })
    }

    /// Accepts every queued connection and files it under the lane named
    /// by its preamble. Connections with a bad preamble are dropped.
    fn accept_pending(&mut self) {
        loop {
            match self.listener.accept() {
                Ok((stream, _)) => {
                    let _ = self.admit(stream);
                }
                Err(e) if e.kind() == ErrorKind::WouldBlock => return,
                Err(_) => return,
            }
        }
    }

    /// Reads a connection's lane preamble and files it.
    fn admit(&mut self, stream: TcpStream) -> Result<(), NetError> {
        // The preamble may trail the accept by a scheduler tick; read it
        // with a short blocking timeout before going nonblocking.
        stream.set_nonblocking(false).map_err(io_err("accept"))?;
        stream
            .set_read_timeout(Some(PREAMBLE_WAIT))
            .map_err(io_err("accept"))?;
        let mut pre = [0u8; PREAMBLE_LEN];
        (&stream).read_exact(&mut pre).map_err(io_err("accept"))?;
        let [m0, m1, m2, m3, lane @ ..] = pre;
        if [m0, m1, m2, m3] != PREAMBLE_MAGIC {
            return Err(NetError::Io {
                op: "accept",
                detail: "bad lane preamble".to_string(),
            });
        }
        let lane = u32::from_be_bytes(lane) as usize;
        if lane >= self.rx.len() {
            return Err(NetError::Io {
                op: "accept",
                detail: format!("lane {lane} out of range"),
            });
        }
        stream.set_nonblocking(true).map_err(io_err("accept"))?;
        let slot = &mut self.rx[lane];
        if slot.reader.is_none() && slot.pending.is_empty() {
            slot.reader = Some(stream);
        } else {
            // A reconnect: the old socket drains to EOF first so frames
            // already written on it land before the replacement's.
            slot.pending.push_back(stream);
        }
        Ok(())
    }
}

/// Which fault the test harness injects on a lane's next write.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum FaultMode {
    /// Write half the frame, kill the connection, then reconnect and
    /// retransmit — the recoverable mid-frame disconnect.
    Break,
    /// Write half the frame and go silent (the frame still counts as
    /// written): only the receive deadline unsticks the peer.
    Stall,
}

/// Injected fault state, shared between a [`TcpTransport`] and the
/// [`TcpFaultHandle`]s cloned off it.
#[derive(Debug, Default)]
struct FaultPlan {
    break_once: HashSet<usize>,
    stall_once: HashSet<usize>,
    /// Lanes simulating an unreachable peer: every connect attempt fails
    /// until the lane is restored.
    down: HashSet<usize>,
}

impl FaultPlan {
    /// Locks a shared plan. Every update is a single set insert or remove,
    /// so the plan is valid at every step: a lock poisoned by a panicking
    /// holder (a test thread) is recovered, not propagated.
    fn lock(plan: &Mutex<FaultPlan>) -> MutexGuard<'_, FaultPlan> {
        plan.lock().unwrap_or_else(PoisonError::into_inner)
    }
}

/// A cloneable handle that injects link faults into a running
/// [`TcpTransport`] — the conformance tests kill connections mid-epoch
/// through this while still demanding `Exact` transcript equality.
#[derive(Clone, Debug)]
pub struct TcpFaultHandle {
    plan: Arc<Mutex<FaultPlan>>,
    lanes: usize,
}

impl TcpFaultHandle {
    /// Breaks every lane's link mid-frame on its next write.
    pub fn break_all_links(&self) {
        let mut plan = FaultPlan::lock(&self.plan);
        for lane in 0..self.lanes {
            plan.break_once.insert(lane);
        }
    }
}

/// The real-socket [`Transport`]: one TCP connection per lane over OS
/// loopback, ∆-derived deadlines, per-link reconnect with capped backoff.
/// See the [module docs](self) for the full delivery model.
#[derive(Debug)]
pub struct TcpTransport {
    n: usize,
    delta: u64,
    cfg: TcpConfig,
    harness: TcpHarness,
    tx: Vec<LaneTx>,
    boxes: Mailboxes,
    faults: Arc<Mutex<FaultPlan>>,
}

impl TcpTransport {
    /// Binds a loopback harness for the self-contained single-process
    /// topology every in-repo consumer uses. Both socket ends live in
    /// this object, but every frame still crosses the OS socket stack.
    /// Lanes connect lazily on first write, so an `n`-party world costs
    /// one listener up front and sockets only for the lanes it uses.
    ///
    /// # Errors
    ///
    /// [`NetError::Io`] if binding the listener fails.
    pub fn local(n: usize, delta: u64, cfg: TcpConfig) -> Result<Self, NetError> {
        let harness = TcpHarness::bind(n)?;
        Ok(TcpTransport {
            n,
            delta,
            cfg,
            harness,
            tx: (0..lane_count(n)).map(|_| LaneTx::default()).collect(),
            boxes: Mailboxes::new(n),
            faults: Arc::new(Mutex::new(FaultPlan::default())),
        })
    }

    /// A handle for injecting link faults (kills, stalls, outages) into
    /// this transport while it runs.
    pub fn fault_handle(&self) -> TcpFaultHandle {
        TcpFaultHandle {
            plan: Arc::clone(&self.faults),
            lanes: lane_count(self.n),
        }
    }

    /// Connects one lane: TCP to the harness, nodelay, write deadline,
    /// and the identifying preamble.
    fn connect_lane(&self, lane: usize) -> std::io::Result<TcpStream> {
        if FaultPlan::lock(&self.faults).down.contains(&lane) {
            return Err(std::io::Error::new(
                ErrorKind::ConnectionRefused,
                "simulated outage",
            ));
        }
        let stream = TcpStream::connect_timeout(&self.harness.addr, CONNECT_TIMEOUT)?;
        stream.set_nodelay(true)?;
        stream.set_write_timeout(Some(self.cfg.io_deadline))?;
        let mut pre = [0u8; PREAMBLE_LEN];
        pre[..4].copy_from_slice(&PREAMBLE_MAGIC);
        pre[4..].copy_from_slice(&(lane as u32).to_be_bytes());
        (&stream).write_all(&pre)?;
        Ok(stream)
    }

    /// Writes one whole frame on `lane`, reconnecting with capped backoff
    /// on failure and retransmitting from the start of the frame.
    fn write_frame(&mut self, lane: usize, bytes: &[u8]) -> Result<(), NetError> {
        match self.take_fault(lane) {
            Some(FaultMode::Break) => {
                // A mid-frame kill: half the frame lands, the socket dies
                // (FIN). Fall through to the reconnect path, which
                // retransmits the frame whole.
                if let Some(w) = self.tx[lane].writer.as_mut() {
                    let _ = w.write_all(&bytes[..bytes.len() / 2]);
                    let _ = w.flush();
                    let _ = w.shutdown(Shutdown::Both);
                }
                self.tx[lane].writer = None;
            }
            Some(FaultMode::Stall) => {
                // A peer gone silent mid-frame: half the frame lands and
                // the connection stays open but carries nothing more, so
                // no EOF ever tells the reader the rest is not coming —
                // only the receive deadline recovers. The caller counts
                // the frame as written (it believes its write succeeded).
                if let Some(w) = self.tx[lane].writer.as_mut() {
                    let _ = w.write_all(&bytes[..bytes.len() / 2]);
                    let _ = w.flush();
                }
                return Ok(());
            }
            None => {}
        }
        let mut attempts = 0u32;
        loop {
            if self.tx[lane].writer.is_none() {
                match self.connect_lane(lane) {
                    Ok(w) => {
                        self.tx[lane].writer = Some(w);
                        if self.tx[lane].connected_once {
                            self.boxes.stats.reconnects += 1;
                        }
                        self.tx[lane].connected_once = true;
                    }
                    Err(_) => {
                        attempts += 1;
                        if attempts > self.cfg.reconnect_attempts {
                            return Err(NetError::LinkDown {
                                lane: lane_name(lane, self.n),
                                attempts: self.cfg.reconnect_attempts,
                            });
                        }
                        std::thread::sleep(backoff(attempts));
                        continue;
                    }
                }
            }
            // Connected just above; were it not, the next pass connects.
            let Some(w) = self.tx[lane].writer.as_mut() else {
                continue;
            };
            match w.write_all(bytes).and_then(|()| w.flush()) {
                Ok(()) => return Ok(()),
                Err(_) => {
                    // The connection died (possibly mid-frame). Drop it;
                    // the reader discards the partial tail at EOF and the
                    // next iteration retransmits the whole frame.
                    self.tx[lane].writer = None;
                    attempts += 1;
                    if attempts > self.cfg.reconnect_attempts {
                        return Err(NetError::LinkDown {
                            lane: lane_name(lane, self.n),
                            attempts: self.cfg.reconnect_attempts,
                        });
                    }
                    std::thread::sleep(backoff(attempts));
                }
            }
        }
    }

    fn take_fault(&mut self, lane: usize) -> Option<FaultMode> {
        let mut plan = FaultPlan::lock(&self.faults);
        if plan.stall_once.remove(&lane) {
            Some(FaultMode::Stall)
        } else if plan.break_once.remove(&lane) {
            Some(FaultMode::Break)
        } else {
            None
        }
    }

    /// One nonblocking pump: accept queued connections, then read every
    /// lane's socket, reassembling and routing complete frames.
    fn pump(&mut self) {
        self.harness.accept_pending();
        for lane in 0..self.harness.rx.len() {
            self.pump_lane(lane);
        }
    }

    /// Reads one lane until it would block, routing complete frames into
    /// the mailboxes. EOF discards a partial frame (the writer
    /// retransmits it whole on its reconnected socket) and promotes the
    /// next pending connection.
    fn pump_lane(&mut self, lane: usize) {
        let delta = self.delta;
        let n = self.n;
        let slot = &mut self.harness.rx[lane];
        let boxes = &mut self.boxes;
        loop {
            let Some(reader) = slot.reader.as_mut() else {
                match slot.pending.pop_front() {
                    Some(s) => {
                        slot.buf.clear();
                        slot.reader = Some(s);
                        continue;
                    }
                    None => return,
                }
            };
            let mut chunk = [0u8; 4096];
            match reader.read(&mut chunk) {
                Ok(0) => {
                    // EOF: the peer end closed. A partial frame in the
                    // buffer was cut mid-write; discard it — the writer
                    // retransmits the whole frame after reconnecting.
                    slot.reader = None;
                    slot.buf.clear();
                }
                Ok(k) => {
                    slot.buf.extend_from_slice(&chunk[..k]);
                    loop {
                        match Frame::decode_prefix(&slot.buf) {
                            Ok((frame, used)) => {
                                slot.buf.drain(..used);
                                slot.received += 1;
                                match plane_of(&frame, delta, n) {
                                    // The frame just decoded is the one
                                    // handed up. A data frame is due at
                                    // its own `sent_at`: the round the
                                    // world stamped at post time,
                                    // reproducing Loopback's
                                    // due-at-send-round schedule.
                                    Ok(plane) => boxes.file(plane, frame.sent_at, frame),
                                    // Unroutable frames were rejected at
                                    // send; raw external writers can
                                    // still produce them.
                                    Err(_) => boxes.stats.dropped += 1,
                                }
                            }
                            Err(CodecError::Truncated { .. }) => break,
                            Err(_) => {
                                // Garbage mid-stream: frame boundaries
                                // are unrecoverable on this connection.
                                // Drop it and concede the lane so
                                // receives never wait on poisoned links.
                                boxes.stats.decode_errors += 1;
                                boxes.stats.dropped += 1;
                                if let Some(r) = slot.reader.take() {
                                    let _ = r.shutdown(Shutdown::Both);
                                }
                                slot.buf.clear();
                                slot.poisoned = true;
                                break;
                            }
                        }
                    }
                }
                Err(e) if e.kind() == ErrorKind::WouldBlock => return,
                Err(_) => {
                    slot.reader = None;
                    slot.buf.clear();
                }
            }
        }
    }

    /// Whether every lane has received everything written to it.
    fn counters_synced(&self) -> bool {
        (0..self.tx.len()).all(|l| {
            let rx = &self.harness.rx[l];
            rx.poisoned || rx.received >= self.tx[l].sent
        })
    }

    /// Pumps until every written frame has arrived or the deadline
    /// expires. Returns whether the lanes synced; on expiry the gap is
    /// conceded (the loss is final) so later receives don't stall again.
    fn sync_with_deadline(&mut self) -> bool {
        self.pump();
        if self.counters_synced() {
            return true;
        }
        let deadline = Instant::now() + self.cfg.io_deadline;
        loop {
            std::thread::sleep(Duration::from_micros(50));
            self.pump();
            if self.counters_synced() {
                return true;
            }
            if Instant::now() >= deadline {
                self.boxes.stats.timeouts += 1;
                // Concede the gap: the missing frames are lost for good.
                // Tear down each lagging lane's sockets so no stale
                // half-frame bytes poison later traffic — the next send
                // reconnects fresh and the lane carries frames again.
                for l in 0..self.tx.len() {
                    let sent = self.tx[l].sent;
                    let rx = &mut self.harness.rx[l];
                    if rx.received < sent {
                        rx.received = sent;
                        rx.buf.clear();
                        rx.reader = None;
                        self.tx[l].writer = None;
                    }
                }
                return false;
            }
        }
    }
}

impl Transport for TcpTransport {
    fn send(&mut self, bytes: Vec<u8>, _now: u64) -> Result<(), NetError> {
        // Classification (and its counting) happens once, here; the frame
        // handed up is the one `pump_lane` decodes off the socket. The data
        // plane's due round travels inside the frame as `sent_at`, which
        // the world stamps with the sending round. A frame to every party
        // crosses as one re-addressed copy per party, each on its party's
        // lane, so the reader sees party frames only.
        let frame = self.boxes.decode(&bytes)?;
        let fan_out = frame.to == Endpoint::Parties;
        let mut first_err = None;
        for (copy, plane) in self.boxes.route(frame, bytes.len(), self.delta, self.n)? {
            let lane = lane_of_plane(&plane, self.n);
            let readdressed = fan_out.then(|| copy.encode());
            match self.write_frame(lane, readdressed.as_deref().unwrap_or(&bytes)) {
                Ok(()) => self.tx[lane].sent += 1,
                Err(e) => {
                    // Degrade, don't hang: the frame is lost and counted,
                    // the lane counters never wait for it, and the caller
                    // gets the typed error.
                    self.boxes.stats.dropped += 1;
                    first_err.get_or_insert(e);
                }
            }
        }
        first_err.map_or(Ok(()), Err)
    }

    fn recv_control(&mut self) -> Vec<Frame> {
        self.sync_with_deadline();
        self.boxes.drain_control()
    }

    fn recv_rpc(&mut self, party: u32) -> Vec<Frame> {
        self.sync_with_deadline();
        self.boxes.drain_rpc(party)
    }

    fn recv_data(&mut self, party: u32, now: u64) -> Vec<Frame> {
        self.sync_with_deadline();
        self.boxes.drain_data(party, now)
    }

    fn set_corrupted(&mut self, _party: u32) {
        // Like Loopback: corrupted-sender drops are SimNet's knob, and
        // sit outside the Exact conformance envelope.
    }

    fn clear_in_flight(&mut self) {
        self.sync_with_deadline();
        self.boxes.clear();
    }

    fn idle(&self) -> bool {
        self.boxes.idle() && self.counters_synced()
    }

    fn stats(&self) -> TransportStats {
        self.boxes.stats
    }
}

/// Real loopback sockets under the standard profile seam: every instance
/// binds its own harness and speaks TCP to itself through the OS.
#[derive(Debug)]
pub struct TcpProfile;

impl NetProfile for TcpProfile {
    fn transport(params: &SbcParams, _seed: &[u8]) -> Result<Box<dyn Transport>, SbcError> {
        let t = TcpTransport::local(params.n, params.delta, TcpConfig::from_delta(params.delta))
            .map_err(|e| SbcError::Backend {
                detail: e.to_string(),
            })?;
        Ok(Box::new(t))
    }
}

/// The networked world over real OS loopback sockets — plugs into
/// `SbcSession`/`SbcPool` via `build_backend::<TcpSbcWorld>()` like every
/// other backend, and is pinned to `CompareLevel::Exact` against
/// `RealSbcWorld` in `tests/net_conformance.rs`.
pub type TcpSbcWorld = NetSbcWorld<TcpProfile>;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::codec::FrameKind;
    use sbc_uc::value::Value;

    impl TcpTransport {
        /// The lane id of the control plane.
        fn control_lane(&self) -> usize {
            0
        }

        /// The lane id of `party`'s rpc plane.
        fn rpc_lane(&self, party: u32) -> usize {
            1 + party as usize
        }

        /// The lane id of `party`'s data plane.
        fn data_lane(&self, party: u32) -> usize {
            1 + self.n + party as usize
        }

        /// The harness address (tests connect raw sockets here).
        fn addr(&self) -> SocketAddr {
            self.harness.addr
        }
    }

    impl TcpFaultHandle {
        /// Breaks one lane's link mid-frame on its next write; the transport
        /// reconnects and retransmits.
        fn break_lane(&self, lane: usize) {
            FaultPlan::lock(&self.plan).break_once.insert(lane);
        }

        /// Makes one lane's peer go silent mid-frame on its next write: the
        /// frame is half-delivered and never completed, so only the receive
        /// deadline recovers.
        fn stall_lane(&self, lane: usize) {
            FaultPlan::lock(&self.plan).stall_once.insert(lane);
        }

        /// Simulates an unreachable peer: the lane's link drops and every
        /// reconnect attempt fails until [`restore_lane`](Self::restore_lane).
        fn take_lane_down(&self, lane: usize) {
            FaultPlan::lock(&self.plan).down.insert(lane);
        }

        /// Heals a lane taken down by [`take_lane_down`](Self::take_lane_down).
        fn restore_lane(&self, lane: usize) {
            FaultPlan::lock(&self.plan).down.remove(&lane);
        }
    }

    fn test_cfg() -> TcpConfig {
        TcpConfig {
            io_deadline: Duration::from_millis(150),
            ..TcpConfig::from_delta(2)
        }
    }

    fn wire_frame(to: u32, origin: u32, now: u64, tau: u64, tag: u8) -> Vec<u8> {
        Frame {
            from: Endpoint::Host,
            to: Endpoint::Party(to),
            sent_at: now,
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

    /// The handed-up frames, re-encoded: what the sender's bytes were.
    fn encoded(frames: Vec<Frame>) -> Vec<Vec<u8>> {
        frames.iter().map(Frame::encode).collect()
    }

    fn control_frame(to: u32, now: u64) -> Vec<u8> {
        Frame {
            from: Endpoint::Env,
            to: Endpoint::Party(to),
            sent_at: now,
            kind: FrameKind::Tick,
        }
        .encode()
    }

    #[test]
    fn from_delta_saturates_instead_of_overflowing() {
        let deadline = TcpConfig::from_delta(u64::MAX).io_deadline;
        assert_eq!(deadline, Duration::from_millis(u64::MAX));
    }

    #[test]
    fn frames_cross_real_sockets_per_plane() {
        let mut t = TcpTransport::local(2, 2, test_cfg()).unwrap();
        let c = control_frame(0, 1);
        let r = Frame {
            from: Endpoint::Host,
            to: Endpoint::Party(1),
            sent_at: 1,
            kind: FrameKind::RoAnswer(vec![7; 8]),
        }
        .encode();
        let d = wire_frame(1, 0, 3, 9, 1);
        t.send(c.clone(), 1).unwrap();
        t.send(r.clone(), 1).unwrap();
        t.send(d.clone(), 3).unwrap();
        assert_eq!(encoded(t.recv_control()), vec![c]);
        assert_eq!(encoded(t.recv_rpc(1)), vec![r]);
        assert_eq!(encoded(t.recv_data(1, 3)), vec![d]);
        assert!(t.idle());
        let s = t.stats();
        assert_eq!((s.sent, s.delivered), (3, 3));
        assert_eq!(s.timeouts, 0);
    }

    /// A frame to every party crosses as one copy per party, each
    /// re-addressed to its party on that party's lane: wires on the data
    /// lanes, anything else on the control lane in id order.
    #[test]
    fn a_frame_to_every_party_crosses_as_one_copy_per_lane() {
        let mut t = TcpTransport::local(3, 2, test_cfg()).unwrap();
        let to_all = |bytes: Vec<u8>| {
            let mut frame = Frame::decode(&bytes).unwrap();
            frame.to = Endpoint::Parties;
            frame.encode()
        };
        t.send(to_all(wire_frame(0, 1, 3, 9, 7)), 3).unwrap();
        let wake = Frame {
            from: Endpoint::Host,
            to: Endpoint::Parties,
            sent_at: 3,
            kind: FrameKind::Deliver {
                origin: 1,
                payload: Value::str("Wake_Up"),
            },
        };
        t.send(wake.encode(), 3).unwrap();
        for p in 0..3 {
            assert_eq!(encoded(t.recv_data(p, 3)), vec![wire_frame(p, 1, 3, 9, 7)]);
        }
        let woken: Vec<Endpoint> = t.recv_control().into_iter().map(|f| f.to).collect();
        assert_eq!(woken, (0..3).map(Endpoint::Party).collect::<Vec<_>>());
        let s = t.stats();
        assert_eq!((s.sent, s.delivered), (2, 6));
        assert!(t.idle());
    }

    #[test]
    fn receive_for_an_unknown_party_is_empty() {
        let mut t = TcpTransport::local(3, 2, test_cfg()).unwrap();
        assert!(t.recv_data(7, 0).is_empty());
        assert!(t.recv_rpc(3).is_empty());
        assert!(t.idle());
    }

    #[test]
    fn send_order_is_delivery_order_per_lane() {
        let mut t = TcpTransport::local(2, 2, test_cfg()).unwrap();
        let frames: Vec<Vec<u8>> = (0..20).map(|i| wire_frame(1, 0, 3, 9, i)).collect();
        for f in &frames {
            t.send(f.clone(), 3).unwrap();
        }
        assert_eq!(encoded(t.recv_data(1, 3)), frames);
        assert!(t.idle());
    }

    #[test]
    fn mid_frame_disconnect_reconnects_and_resumes_cleanly() {
        let mut t = TcpTransport::local(2, 2, test_cfg()).unwrap();
        let handle = t.fault_handle();
        let lane = t.data_lane(1);
        let frames: Vec<Vec<u8>> = (0..3).map(|i| wire_frame(1, 0, 3, 9, i)).collect();
        t.send(frames[0].clone(), 3).unwrap();
        // The next write dies halfway through the frame; the transport
        // must reconnect and retransmit it whole.
        handle.break_lane(lane);
        t.send(frames[1].clone(), 3).unwrap();
        t.send(frames[2].clone(), 3).unwrap();
        assert_eq!(
            encoded(t.recv_data(1, 3)),
            frames,
            "order preserved across drop"
        );
        let s = t.stats();
        assert!(s.reconnects >= 1, "reconnect happened: {s:?}");
        assert_eq!(s.timeouts, 0, "no deadline needed: {s:?}");
        assert_eq!(s.decode_errors, 0, "no torn frame decoded: {s:?}");
        assert!(t.idle());
    }

    #[test]
    fn read_deadline_expiry_is_a_counted_timeout_not_a_hang() {
        let mut t = TcpTransport::local(2, 2, test_cfg()).unwrap();
        let handle = t.fault_handle();
        handle.stall_lane(t.control_lane());
        // The peer goes silent halfway through this frame.
        t.send(control_frame(0, 1), 1).unwrap();
        let started = Instant::now();
        assert!(!t.sync_with_deadline(), "the lanes did not sync");
        assert!(
            started.elapsed() < Duration::from_secs(5),
            "deadline bounded the wait"
        );
        assert_eq!(t.stats().timeouts, 1);
        // The gap is conceded: later receives return immediately and the
        // half-frame never surfaces.
        let started = Instant::now();
        assert!(t.recv_control().is_empty());
        assert!(started.elapsed() < Duration::from_millis(100));
        assert_eq!(t.stats().timeouts, 1, "no repeated stall");
    }

    #[test]
    fn slow_partial_writer_never_corrupts_frame_boundaries() {
        let mut t = TcpTransport::local(2, 2, test_cfg()).unwrap();
        // A raw peer dribbling two frames byte by byte on the control
        // lane, with the transport pumping between every byte.
        let mut raw = TcpStream::connect(t.addr()).unwrap();
        let mut pre = [0u8; PREAMBLE_LEN];
        pre[..4].copy_from_slice(&PREAMBLE_MAGIC);
        pre[4..].copy_from_slice(&(t.control_lane() as u32).to_be_bytes());
        raw.write_all(&pre).unwrap();
        let a = control_frame(0, 1);
        let b = control_frame(1, 2);
        let stream_bytes: Vec<u8> = a.iter().chain(b.iter()).copied().collect();
        let mut got = Vec::new();
        for byte in &stream_bytes[..stream_bytes.len() - 1] {
            raw.write_all(&[*byte]).unwrap();
            raw.flush().unwrap();
            got.extend(t.recv_control());
        }
        assert!(got.len() < 2, "second frame incomplete until its last byte");
        raw.write_all(&[stream_bytes[stream_bytes.len() - 1]])
            .unwrap();
        raw.flush().unwrap();
        let deadline = Instant::now() + Duration::from_secs(5);
        while got.len() < 2 && Instant::now() < deadline {
            got.extend(t.recv_control());
        }
        assert_eq!(encoded(got), vec![a, b], "both frames intact and in order");
        assert_eq!(t.stats().decode_errors, 0);
    }

    #[test]
    fn dead_link_exhausts_reconnects_into_typed_link_down_then_heals() {
        let cfg = TcpConfig {
            reconnect_attempts: 2,
            ..test_cfg()
        };
        let mut t = TcpTransport::local(2, 2, cfg).unwrap();
        let handle = t.fault_handle();
        let lane = t.data_lane(0);
        handle.take_lane_down(lane);
        // Lanes connect lazily, so the first send walks the connect path
        // straight into the outage.
        let err = t.send(wire_frame(0, 1, 3, 9, 1), 3).unwrap_err();
        assert_eq!(
            err,
            NetError::LinkDown {
                lane: "data:0".to_string(),
                attempts: 2
            }
        );
        assert!(t.stats().dropped >= 1, "lost frame counted");
        // The outage heals; the lane carries frames again.
        handle.restore_lane(lane);
        let f = wire_frame(0, 1, 4, 9, 2);
        t.send(f.clone(), 4).unwrap();
        assert_eq!(encoded(t.recv_data(0, 4)), vec![f]);
    }

    #[test]
    fn garbage_on_a_lane_poisons_it_without_stalling_others() {
        let mut t = TcpTransport::local(2, 2, test_cfg()).unwrap();
        let mut raw = TcpStream::connect(t.addr()).unwrap();
        let mut pre = [0u8; PREAMBLE_LEN];
        pre[..4].copy_from_slice(&PREAMBLE_MAGIC);
        pre[4..].copy_from_slice(&(t.rpc_lane(0) as u32).to_be_bytes());
        raw.write_all(&pre).unwrap();
        raw.write_all(&[0xde, 0xad, 0xbe, 0xef, 0, 0, 0, 0])
            .unwrap();
        raw.flush().unwrap();
        let deadline = Instant::now() + Duration::from_secs(5);
        while t.stats().decode_errors == 0 && Instant::now() < deadline {
            let _ = t.recv_rpc(0);
        }
        assert_eq!(t.stats().decode_errors, 1, "garbage counted, not panicked");
        // Other lanes still work.
        let c = control_frame(0, 1);
        t.send(c.clone(), 1).unwrap();
        assert_eq!(encoded(t.recv_control()), vec![c]);
    }

    #[test]
    fn tcp_world_runs_a_period_end_to_end() {
        use sbc_uc::ids::PartyId;
        use sbc_uc::world::World;
        let params = SbcParams::default_for(3);
        let mut w = TcpSbcWorld::new(params, b"tcp-seed").expect("valid params");
        w.input(
            PartyId(0),
            sbc_uc::value::Command::new("Broadcast", Value::bytes(b"m0")),
        );
        for _ in 0..(params.phi + params.delta + 2) {
            use sbc_uc::exec::SbcWorld;
            w.tick();
        }
        let outs = w.drain_outputs();
        assert_eq!(outs.len(), 3, "every party outputs at τ_rel");
        let stats = w.transport_stats();
        assert!(stats.sent > 0 && stats.delivered > 0 && stats.bytes > 0);
        assert_eq!(stats.decode_errors, 0);
        assert_eq!(stats.timeouts, 0);
    }
}
