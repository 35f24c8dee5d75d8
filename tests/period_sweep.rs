//! Real ≈ ideal at the boundary of the broadcast period, swept
//! exhaustively.
//!
//! A schedule places a few events among the per-party advances of rounds
//! `0..=Φ + 1`, then idles until the release. The events are an honest
//! `input(Pi)`, `Corrupt(Pi)`, `SendAs(Pi, Wake_Up)`, `SendAs(Pi, wire)`
//! (an `F_TLE` `Insert`, the `F_RO` mask query and the cast, so the wire
//! opens to a message) and an epoch turnover (`finish_epoch`).
//!
//! A **sweep** is a world pair built from `SbcParams` and a seed, the
//! `CompareLevel` the pair must agree at, and the params. The params fix
//! the event rounds `0..=Φ + 1`, the latest release `2Φ + 2 + ∆` (a period
//! opened in round `Φ + 2`) and the wire's `τ` while no period is open,
//! `now + Φ + ∆`. The swept pairs are Theorem 2
//! (`RealSbcWorld` / `IdealSbcWorld` at `ShapeAndOutputs`, at the default
//! params and three more corners of `SbcParams::validate`), Lemma 1
//! (`RealUbcWorld` / `IdealUbcWorld` at `Exact`) and `Π_SBC` over the
//! loopback transport (`RealSbcWorld` / `LoopbackSbcWorld` at `Exact`).
//! Each epoch's agreed `release_round()`, read before its turnover, must
//! be the round in which its real outputs land.
//!
//! **Symmetry.** Parties are interchangeable up to renaming, so a schedule
//! whose rounds all advance in the order `π` is the renaming by `π⁻¹` of
//! one that advances in id order with its events' parties renamed. The
//! sweep therefore advances in id order and lets each event name every
//! party: every advance order is covered up to renaming. Orders that
//! change from one round to the next are not swept.
//!
//! **Canonical form.** Only meaningful events are placed: an input goes to
//! an honest party, a `Corrupt` to an honest one while fewer than `n − 1`
//! are corrupted, at most one turnover. A `SendAs` to an honest party
//! corrupts it first (the adversary's corrupt-and-send), so a `Corrupt`
//! directly followed by a `SendAs` from the same party is the same
//! schedule and is not placed twice. A party corrupted before its slot
//! skips its advance, so the slot's events belong at the front of the next
//! slot, and only the last slot of the range takes them.

use sbc_broadcast::ubc::worlds::{IdealUbcWorld, RealUbcWorld};
use sbc_core::protocol::{sbc_wire, wake_up};
use sbc_core::worlds::{IdealSbcWorld, RealSbcWorld, SbcBackend, SbcParams};
use sbc_net::world::LoopbackSbcWorld;
use sbc_uc::exec::{CompareLevel, DualRun, SbcWorld};
use sbc_uc::ids::PartyId;
use sbc_uc::trace::EventKind;
use sbc_uc::value::{Command, Value};
use sbc_uc::world::{run_env, AdvCommand, EnvDriver};

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Event {
    Input(u32),
    Corrupt(u32),
    WakeUp(u32),
    Wire(u32),
    FinishEpoch,
}

impl Event {
    fn all(n: usize) -> Vec<Event> {
        let mut all = vec![Event::FinishEpoch];
        for i in 0..n as u32 {
            all.extend([
                Event::Input(i),
                Event::Corrupt(i),
                Event::WakeUp(i),
                Event::Wire(i),
            ]);
        }
        all
    }
}

/// An event run before party `pos`'s advance in `round` (id order).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
struct Placed {
    round: u64,
    pos: usize,
    event: Event,
}

#[derive(Clone, Debug, PartialEq, Eq)]
struct Schedule {
    n: usize,
    events: Vec<Placed>,
}

impl Schedule {
    fn new(n: usize, events: &[(u64, usize, Event)]) -> Self {
        let events = events
            .iter()
            .map(|&(round, pos, event)| Placed { round, pos, event })
            .collect();
        Schedule { n, events }
    }

    /// Whether the schedule is in canonical form (module docs).
    fn is_canonical(&self, rounds: u64) -> bool {
        /// Corrupts `i` if the corruption limit `t ≤ n − 1` allows it.
        fn corrupt(corrupted: &mut [bool], i: u32) -> bool {
            let allowed = corrupted.iter().filter(|c| **c).count() + 1 < corrupted.len();
            corrupted[i as usize] |= allowed;
            allowed
        }
        let mut corrupted = vec![false; self.n];
        let mut finished = false;
        let mut slot = None;
        for (k, p) in self.events.iter().enumerate() {
            let here = (p.round, p.pos);
            let skipped = corrupted[p.pos] && here != (rounds - 1, self.n - 1);
            if slot.replace(here) != Some(here) && skipped {
                return false;
            }
            let next = self.events.get(k + 1).filter(|q| (q.round, q.pos) == here);
            let ok = match p.event {
                Event::Input(i) => !corrupted[i as usize],
                Event::Corrupt(i) => {
                    let sends = matches!(next.map(|q| q.event),
                        Some(Event::WakeUp(j) | Event::Wire(j)) if j == i);
                    !corrupted[i as usize] && !sends && corrupt(&mut corrupted, i)
                }
                Event::WakeUp(i) | Event::Wire(i) => {
                    corrupted[i as usize] || corrupt(&mut corrupted, i)
                }
                Event::FinishEpoch => !std::mem::replace(&mut finished, true),
            };
            if !ok {
                return false;
            }
        }
        true
    }
}

/// Every canonical schedule of exactly `k` events among the `n`-party
/// advances of rounds `0..rounds`.
fn schedules(n: usize, k: usize, rounds: u64) -> Vec<Schedule> {
    let slots: Vec<(u64, usize)> = (0..rounds)
        .flat_map(|r| (0..n).map(move |p| (r, p)))
        .collect();
    let events = Event::all(n);
    let mut out = Vec::new();
    let mut s = Schedule {
        n,
        events: Vec::new(),
    };
    fn place(
        s: &mut Schedule,
        k: usize,
        rounds: u64,
        from: usize,
        slots: &[(u64, usize)],
        events: &[Event],
        out: &mut Vec<Schedule>,
    ) {
        if s.events.len() == k {
            if s.is_canonical(rounds) {
                out.push(s.clone());
            }
            return;
        }
        for (at, &(round, pos)) in slots.iter().enumerate().skip(from) {
            for &event in events {
                s.events.push(Placed { round, pos, event });
                place(s, k, rounds, at, slots, events, out);
                s.events.pop();
            }
        }
    }
    place(&mut s, k, rounds, 0, &slots, &events, &mut out);
    out
}

/// Every canonical schedule of the tier-1 set (8 335 at `Φ = 3`): at
/// n = 2, up to two events in rounds `0..=Φ + 1`; at n = 3, one event in
/// rounds `0..=Φ + 1` and two in rounds `0..Φ`.
fn tier1(phi: u64) -> Vec<Schedule> {
    let mut set = schedules(2, 1, phi + 2);
    set.extend(schedules(2, 2, phi + 2));
    set.extend(schedules(3, 1, phi + 2));
    set.extend(schedules(3, 2, phi));
    set
}

/// A sweep (module docs): the world pair, built from the params and a
/// seed; the level the pair must agree at; and the params, whose `n` each
/// schedule sets. Plain broadcast has no period (`periods` is false), so
/// no release round binds its outputs.
struct Sweep<R, I> {
    worlds: fn(SbcParams, &[u8]) -> (R, I),
    level: CompareLevel,
    params: SbcParams,
    periods: bool,
}

/// Theorem 2 (`Π_SBC` against `F_SBC` and `S_SBC`) at `params`.
fn theorem2(params: SbcParams) -> Sweep<RealSbcWorld, IdealSbcWorld> {
    Sweep {
        worlds: |p, seed| (RealSbcWorld::new(p, seed), IdealSbcWorld::new(p, seed)),
        level: CompareLevel::ShapeAndOutputs,
        params,
        periods: true,
    }
}

impl<R: SbcWorld, I: SbcWorld> Sweep<R, I> {
    /// Applies one event to both worlds. `k` numbers the event, so each
    /// injected wire is a fresh `(c, ρ, M)`.
    fn apply(&self, d: &mut DualRun<R, I>, k: usize, event: Event) -> Result<(), String> {
        let corrupt_first = |d: &mut DualRun<R, I>, i: u32| {
            if !d.worlds().0.is_corrupted(PartyId(i)) {
                d.corrupt(PartyId(i));
            }
        };
        match event {
            Event::Input(i) => d.submit(PartyId(i), format!("honest/{k}").as_bytes()),
            Event::Corrupt(i) => {
                d.corrupt(PartyId(i));
            }
            Event::WakeUp(i) => {
                corrupt_first(d, i);
                d.adversary(AdvCommand::SendAs {
                    party: PartyId(i),
                    cmd: Command::new("Broadcast", wake_up()),
                });
            }
            Event::Wire(i) => {
                corrupt_first(d, i);
                let now = d.worlds().0.time();
                let fallback = now + self.params.phi + self.params.delta;
                let tau = d.worlds().0.release_round().unwrap_or(fallback);
                let k = k as u8;
                d.script(move |env| inject(env, PartyId(i), tau, k));
            }
            Event::FinishEpoch => {
                d.finish_epoch().map_err(|div| div.reason)?;
            }
        }
        Ok(())
    }

    /// Runs `s` in both worlds, then idles until the release. `Err` names
    /// the first disagreement.
    fn run(&self, s: &Schedule) -> Result<(), String> {
        let mut params = self.params;
        params.n = s.n;
        let (real, ideal) = (self.worlds)(params, b"period-sweep");
        let mut d = DualRun::new(real, ideal, self.level);
        // Each epoch's last round and agreed release round.
        let mut epochs = Vec::new();
        let mut events = s.events.iter().enumerate().peekable();
        for round in 0.. {
            // Past the real release, a late ideal release is a divergence
            // already; with no real period, idle through the latest release
            // any schedule can have: a period opened by a holder's advance
            // in round `Φ + 2`, released `Φ + ∆` rounds later.
            let latest = 2 * params.phi + 2 + params.delta;
            let last = d.worlds().0.release_round().unwrap_or(latest);
            if round > last && events.peek().is_none() {
                break;
            }
            assert_eq!(d.worlds().0.time(), round, "{s:?}: slots and clock agree");
            for pos in 0..s.n {
                while let Some((k, p)) = events.next_if(|(_, p)| (p.round, p.pos) == (round, pos)) {
                    if p.event == Event::FinishEpoch {
                        epochs.push((round, agreed_release(&d)?));
                    }
                    self.apply(&mut d, k, p.event)?;
                }
                let party = PartyId(pos as u32);
                if !d.worlds().0.is_corrupted(party) {
                    d.script(|env| env.advance(party));
                }
            }
        }
        d.check().map_err(|div| div.reason)?;
        epochs.push((u64::MAX, agreed_release(&d)?));
        // Each epoch's real outputs (those up to its last round) land in its
        // agreed `τ_rel`, a period whose `τ_rel` came before the epoch's last
        // round released, and a pair with periods outputs nothing without one.
        let (t_real, _) = d.into_transcripts();
        let mut rounds: Vec<u64> = t_real.outputs().iter().map(|o| o.0).collect();
        for (last, tau) in epochs {
            let later = rounds.split_off(rounds.partition_point(|r| *r <= last));
            let held = match tau {
                Some(tau) => {
                    rounds.iter().all(|r| *r == tau) && (tau >= last || !rounds.is_empty())
                }
                None => rounds.is_empty() || !self.periods,
            };
            if !held {
                return Err(format!(
                    "release_round() {tau:?}, real outputs at {rounds:?} by round {last}"
                ));
            }
            rounds = later;
        }
        Ok(())
    }

    /// Runs the tier-1 set, which must hold `count` schedules.
    fn sweep_tier1(&self, count: usize) {
        let set = tier1(self.params.phi);
        assert_eq!(set.len(), count);
        self.sweep(&set);
    }

    /// Runs every schedule of `set`; panics naming the first twenty that
    /// diverge.
    fn sweep(&self, set: &[Schedule]) {
        let failures: Vec<String> = set
            .iter()
            .filter_map(|s| self.run(s).err().map(|why| format!("{s:?}: {why}")))
            .collect();
        assert!(
            failures.is_empty(),
            "{} of {} schedules diverge:\n{}",
            failures.len(),
            set.len(),
            failures[..failures.len().min(20)].join("\n")
        );
    }
}

/// The adversary's wire recipe in one world: `Insert (c, ρ, τ)` into
/// `F_TLE`, ask `F_RO` for the mask at `ρ`, cast `(c, τ, M ⊕ H(ρ))`.
fn inject(env: &mut EnvDriver<'_>, party: PartyId, tau: u64, k: u8) {
    let (ct, rho) = (Value::bytes([0xC0 ^ k; 64]), Value::bytes([k; 32]));
    let m_bytes = Value::bytes(format!("evil/{k}")).encode();
    env.adversary(AdvCommand::Control {
        target: "F_TLE".into(),
        cmd: Command::new(
            "Insert",
            Value::list([ct.clone(), rho.clone(), Value::U64(tau)]),
        ),
    });
    let eta = env.adversary(AdvCommand::Control {
        target: "F_RO".into(),
        cmd: Command::new(
            "QueryBytes",
            Value::list([rho, Value::U64(m_bytes.len() as u64)]),
        ),
    });
    let eta = eta.as_bytes().unwrap_or(&[]);
    let y: Vec<u8> = m_bytes.iter().zip(eta).map(|(a, b)| a ^ b).collect();
    env.adversary(AdvCommand::SendAs {
        party,
        cmd: Command::new("Broadcast", sbc_wire(&ct, tau, &y)),
    });
}

/// The release round both worlds report.
fn agreed_release<R: SbcWorld, I: SbcWorld>(d: &DualRun<R, I>) -> Result<Option<u64>, String> {
    match (d.worlds().0.release_round(), d.worlds().1.release_round()) {
        (real, ideal) if real == ideal => Ok(real),
        (real, ideal) => Err(format!("release rounds: real {real:?} vs ideal {ideal:?}")),
    }
}

#[test]
fn period_boundary_sweep() {
    theorem2(SbcParams::default_for(2)).sweep_tier1(8_335);
}

/// The deep set (640 394 schedules): three events at n = 2, and two or
/// three at n = 3, all in rounds `0..=Φ + 1`. Run it with
/// `cargo test --release --test period_sweep -- --ignored`.
#[test]
#[ignore = "deep sweep: run with --release -- --ignored"]
fn period_boundary_sweep_deep() {
    let sweep = theorem2(SbcParams::default_for(2));
    let rounds = sweep.params.phi + 2;
    let mut set = schedules(2, 3, rounds);
    set.extend(schedules(3, 2, rounds));
    set.extend(schedules(3, 3, rounds));
    assert_eq!(set.len(), 640_394);
    sweep.sweep(&set);
}

/// Theorem 2's tier-1 set at `(Φ, ∆, α_TLE, delay)`, a corner of
/// `SbcParams::validate`.
fn corner(phi: u64, delta: u64, tle_alpha: u64, tle_delay: u64, count: usize) {
    let mut params = SbcParams::default_for(2);
    (params.phi, params.delta, params.tle_alpha, params.tle_delay) =
        (phi, delta, tle_alpha, tle_delay);
    params.validate().expect("a corner of validate");
    theorem2(params).sweep_tier1(count);
}

/// `Φ = delay + 1`.
#[test]
fn corner_phi2_delta2_alpha1_delay1() {
    corner(2, 2, 1, 1, 4_528);
}

/// `Φ = delay + 1` and `∆ = α_TLE + 1`, one round wider than the default.
#[test]
fn corner_phi3_delta3_alpha2_delay2() {
    corner(3, 3, 2, 2, 8_335);
}

/// `α_TLE = 0` and `∆ = 1`: a turnover lands in the release round.
#[test]
fn corner_phi3_delta1_alpha0_delay1() {
    corner(3, 1, 0, 1, 8_335);
}

/// Lemma 1: `Π_UBC` over `F_RBC` against `F_UBC` and `S_UBC`, byte for
/// byte. `F_UBC` has no period, so a wire is cast as any other message.
#[test]
fn lemma1_boundary_sweep() {
    let sweep = Sweep {
        worlds: |p, seed| (RealUbcWorld::new(p.n, seed), IdealUbcWorld::new(p.n, seed)),
        level: CompareLevel::Exact,
        params: SbcParams::default_for(2),
        periods: false,
    };
    sweep.sweep_tier1(8_335);
}

/// Fig. 14 over the loopback transport: the networked world's transcript
/// is the in-process world's, byte for byte.
#[test]
fn loopback_exact_boundary_sweep() {
    let sweep = Sweep {
        worlds: |p, seed| {
            let net = LoopbackSbcWorld::from_params(p, seed).expect("valid");
            (RealSbcWorld::new(p, seed), net)
        },
        level: CompareLevel::Exact,
        params: SbcParams::default_for(2),
        periods: true,
    };
    sweep.sweep_tier1(8_335);
}

/// A corrupted `Wake_Up` wakes the real parties at once, so the period
/// opens there even if no honest party ever inputs before it.
fn corrupted_wake_up() -> Schedule {
    Schedule::new(3, &[(0, 0, Event::WakeUp(2)), (1, 0, Event::Input(0))])
}

/// An honest input whose sender is corrupted before its first advance:
/// its `Wake_Up` never leaves `F_UBC`, so no period opens.
fn sender_corrupted_before_its_advance() -> Schedule {
    Schedule::new(3, &[(0, 0, Event::Input(0)), (0, 0, Event::Corrupt(0))])
}

/// An epoch turnover in the middle of a round, then an input from a party
/// that already advanced in it: the new period opens at that party's
/// advance in the next round.
fn mid_round_turnover() -> Schedule {
    let turnover = [(1, 1, Event::FinishEpoch), (1, 1, Event::Input(0))];
    Schedule::new(3, &turnover)
}

/// A sender whose wire was cast is corrupted in round `t_end`, before any
/// advance there: the cast message is released.
fn sender_corrupted_at_t_end() -> Schedule {
    Schedule::new(2, &[(0, 0, Event::Input(1)), (3, 0, Event::Corrupt(1))])
}

/// A corruption that completes round `t_end − 1` moves the clock to
/// `t_end` before `S_SBC` can `Allow` the cast message it re-commits.
fn corruption_ending_the_last_round() -> Schedule {
    Schedule::new(2, &[(2, 0, Event::Input(1)), (4, 1, Event::Corrupt(1))])
}

/// The schedules of the earlier period-boundary fixes, as sweep members:
/// the first finalization drops a holder corrupted before its cast (the
/// finalization fix), an honest input in the last `delay` rounds (the
/// cut-off fix), and a first input after its sender's advance, alone and
/// next to another sender's (the `Cl + 1` fix).
fn earlier_fixes() -> [Schedule; 4] {
    [
        Schedule::new(3, &[(0, 0, Event::Input(1)), (1, 0, Event::Corrupt(1))]),
        Schedule::new(3, &[(0, 0, Event::Input(0)), (2, 0, Event::Input(1))]),
        Schedule::new(3, &[(0, 1, Event::Input(0))]),
        Schedule::new(3, &[(0, 1, Event::Input(0)), (0, 1, Event::Input(1))]),
    ]
}

fn assert_agrees(s: Schedule) {
    let sweep = theorem2(SbcParams::default_for(2));
    sweep.run(&s).unwrap_or_else(|why| panic!("{s:?}: {why}"));
}

#[test]
fn the_named_schedules_are_swept() {
    let set = tier1(SbcParams::default_for(2).phi);
    let named = [
        corrupted_wake_up(),
        sender_corrupted_before_its_advance(),
        mid_round_turnover(),
        sender_corrupted_at_t_end(),
        corruption_ending_the_last_round(),
        // Lemma 1: one honest broadcast, and a corrupted party's injected one.
        Schedule::new(3, &[(0, 0, Event::Input(0))]),
        Schedule::new(3, &[(0, 0, Event::WakeUp(2))]),
    ];
    for s in named.into_iter().chain(earlier_fixes()) {
        assert!(set.contains(&s), "{s:?} is not swept");
    }
}
#[test]
fn a_corrupted_wake_up_opens_the_period() {
    assert_agrees(corrupted_wake_up());
}

#[test]
fn a_sender_corrupted_before_its_advance_opens_no_period() {
    assert_agrees(sender_corrupted_before_its_advance());
}

#[test]
fn a_mid_round_turnover_opens_the_next_period_at_the_senders_advance() {
    assert_agrees(mid_round_turnover());
}

#[test]
fn a_sender_corrupted_at_t_end_keeps_its_cast_message() {
    assert_agrees(sender_corrupted_at_t_end());
}

#[test]
fn a_corruption_that_ends_the_last_round_keeps_the_cast_message() {
    assert_agrees(corruption_ending_the_last_round());
}

/// Simultaneity as a distribution test: with messages m0 vs m1, the
/// adversary's period view (all leaks up to t_end) has identical shape, so
/// no environment decision function over the view can depend on the message.
#[test]
fn simultaneity_view_independence() {
    let run = |msg: &'static [u8]| {
        let mut world = RealSbcWorld::new(SbcParams::default_for(3), b"view-indep");
        run_env(&mut world, move |env| {
            env.input(PartyId(0), Command::new("Broadcast", Value::bytes(msg)));
            env.idle_rounds(3); // exactly the broadcast period
        })
    };
    let t0 = run(b"AAAAAAAAAAAA");
    let t1 = run(b"BBBBBBBBBBBB");
    // Shapes identical; the only difference is inside ciphertext bytes.
    let strip_inputs = |t: &sbc_uc::trace::Transcript| {
        let mut c = t.clone();
        c.events
            .retain(|e| !matches!(e.kind, EventKind::Input { .. }));
        c
    };
    assert_eq!(
        strip_inputs(&t0).shape_digest(),
        strip_inputs(&t1).shape_digest(),
        "the adversary's in-period view shape is message-independent"
    );
}
