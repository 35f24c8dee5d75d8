//! The real-vs-ideal experiment harness (paper Def. 1).
//!
//! A [`World`] is one side of the UC experiment: either a protocol running
//! over hybrid functionalities (the *real* world) or an ideal functionality
//! composed with its simulator (the *ideal* world). The environment drives
//! both through the same interface — inputs, clock advancement, and
//! dummy-adversary commands — and the harness records everything observable
//! into a [`Transcript`]. A protocol UC-realizes a functionality when no
//! environment distinguishes the transcripts; the workspace tests assert
//! transcript equality for the deterministic observables and statistical
//! closeness for the randomized ones.
//!
//! [`Transcript`]: crate::trace::Transcript

use crate::hybrid::LeakSink;
use crate::ids::PartyId;
use crate::trace::{EventKind, Transcript};
use crate::value::{Command, Value};
use std::borrow::Cow;

/// Leakage observed by the (dummy) adversary.
///
/// Like [`Command::name`], a static `source` label is borrowed, so a leak
/// allocates only its payload.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Leak {
    /// Which functionality/component leaked.
    pub source: Cow<'static, str>,
    /// The leaked command.
    pub cmd: Command,
}

/// Commands the environment can issue through the dummy adversary.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum AdvCommand {
    /// Adaptively corrupt a party (non-atomic: allowed at any boundary).
    Corrupt(PartyId),
    /// Provide an input on behalf of a corrupted party.
    SendAs {
        /// The corrupted party.
        party: PartyId,
        /// The command to deliver as that party.
        cmd: Command,
    },
    /// A world-specific control command (`Allow`, `Output_Request`,
    /// message reordering, …) addressed to a functionality or protocol
    /// component by name.
    Control {
        /// Target component.
        target: String,
        /// The control command.
        cmd: Command,
    },
}

/// One side of the UC experiment.
pub trait World {
    /// Number of parties.
    fn n(&self) -> usize;

    /// Current global-clock time.
    fn time(&self) -> u64;

    /// Environment gives `cmd` as input to (honest) `party`.
    fn input(&mut self, party: PartyId, cmd: Command);

    /// Environment instructs `party` to `Advance_Clock`.
    fn advance(&mut self, party: PartyId);

    /// Environment acts as the adversary. Returns the world's response.
    fn adversary(&mut self, cmd: AdvCommand) -> Value;

    /// Drains outputs produced for the environment since the last call.
    fn drain_outputs(&mut self) -> Vec<(PartyId, Command)>;

    /// Drains leakage produced for the adversary since the last call.
    fn drain_leaks(&mut self) -> Vec<Leak>;

    /// Whether `party` is corrupted.
    fn is_corrupted(&self, party: PartyId) -> bool;
}

/// Drives a [`World`] while recording a [`Transcript`].
///
/// Environments are written as plain functions over an `EnvDriver`; running
/// the same function against a real and an ideal world yields directly
/// comparable transcripts.
pub struct EnvDriver<'w> {
    world: &'w mut dyn World,
    transcript: Transcript,
}

impl<'w> EnvDriver<'w> {
    /// Wraps a world.
    pub(crate) fn new(world: &'w mut dyn World) -> Self {
        EnvDriver {
            world,
            transcript: Transcript::new(),
        }
    }

    /// Wraps a world, continuing an existing transcript. This is how
    /// harnesses that interleave their own bookkeeping with driver actions
    /// (e.g. [`DualRun`](crate::exec::DualRun)) keep one growing transcript
    /// across many short driver borrows.
    pub(crate) fn resume(world: &'w mut dyn World, transcript: Transcript) -> Self {
        EnvDriver { world, transcript }
    }

    /// Whether a party is corrupted.
    pub fn is_corrupted(&self, party: PartyId) -> bool {
        self.world.is_corrupted(party)
    }

    /// Records leaks/outputs generated by the last action, stamped with the
    /// `round` in which the action started (a final `Advance_Clock` may tick
    /// the clock, but its observable effects belong to the ending round).
    fn sync(&mut self, round: u64) {
        for Leak { source, cmd } in self.world.drain_leaks() {
            self.transcript.push(round, EventKind::Leak { source, cmd });
        }
        for (party, cmd) in self.world.drain_outputs() {
            self.transcript
                .push(round, EventKind::Output { party, cmd });
        }
    }

    /// Feeds an input and records observations.
    pub fn input(&mut self, party: PartyId, cmd: Command) {
        let t = self.world.time();
        self.transcript.push(
            t,
            EventKind::Input {
                party,
                cmd: cmd.clone(),
            },
        );
        self.world.input(party, cmd);
        self.sync(t);
    }

    /// Feeds an input and returns the commands the party output in direct
    /// response (also recorded in the transcript). Used by environments
    /// whose next step depends on a response — e.g. `Retrieve` then `Dec`.
    pub fn input_collect(&mut self, party: PartyId, cmd: Command) -> Vec<Command> {
        let before = self.transcript.events.len();
        self.input(party, cmd);
        self.transcript.events[before..]
            .iter()
            .filter_map(|e| match &e.kind {
                EventKind::Output { party: p, cmd } if *p == party => Some(cmd.clone()),
                _ => None,
            })
            .collect()
    }

    /// Advances a party's clock and records observations.
    pub fn advance(&mut self, party: PartyId) {
        let t = self.world.time();
        self.transcript.push(t, EventKind::Advance { party });
        self.world.advance(party);
        self.sync(t);
    }

    /// Issues an adversary command and records it plus the response.
    pub fn adversary(&mut self, cmd: AdvCommand) -> Value {
        let t = self.world.time();
        self.transcript.push(
            t,
            EventKind::AdvAction {
                desc: format!("{cmd:?}"),
            },
        );
        let resp = self.world.adversary(cmd);
        self.transcript.push(
            t,
            EventKind::AdvResponse {
                value: resp.clone(),
            },
        );
        self.sync(t);
        resp
    }

    /// Convenience: all honest parties advance (ends the round when no
    /// functionality gates the clock).
    pub fn advance_all(&mut self) {
        for i in 0..self.world.n() {
            let p = PartyId(i as u32);
            if !self.world.is_corrupted(p) {
                self.advance(p);
            }
        }
    }

    /// Runs `rounds` idle rounds.
    pub fn idle_rounds(&mut self, rounds: u64) {
        for _ in 0..rounds {
            self.advance_all();
        }
    }

    /// Finishes and returns the transcript.
    pub(crate) fn finish(self) -> Transcript {
        self.transcript
    }
}

/// Runs an environment function against a world, returning the transcript.
pub fn run_env<F>(world: &mut dyn World, env: F) -> Transcript
where
    F: FnOnce(&mut EnvDriver<'_>),
{
    let mut driver = EnvDriver::new(world);
    env(&mut driver);
    driver.finish()
}

/// Common state shared by all concrete [`World`] implementations: the global
/// clock, the corruption tracker, the leak and output buffers, and a seeded
/// master DRBG from which functionalities, simulators and parties fork their
/// independent randomness streams.
#[derive(Debug)]
pub struct WorldCore {
    n: usize,
    /// The global clock `G_clock`.
    pub clock: crate::clock::GlobalClock,
    /// Master randomness; fork labelled children from it.
    pub rng: sbc_primitives::drbg::Drbg,
    /// Adversary-visible leak buffer (empty once the core only counts).
    pub leaks: Vec<Leak>,
    /// `Some` once [`count_leaks_only`](WorldCore::count_leaks_only) has
    /// switched the adversary channel to counting.
    counted: Option<LeakCount>,
    /// Corruption state.
    pub corr: crate::corruption::CorruptionTracker,
    /// Environment-visible output buffer.
    pub outputs: Vec<(PartyId, Command)>,
}

/// The count-only [`LeakSink`]: leaks offered since the last take.
#[derive(Debug, Default)]
struct LeakCount(usize);

impl LeakSink for LeakCount {
    fn keep(&mut self) -> Option<&mut Vec<Leak>> {
        self.0 += 1;
        None
    }
}

impl WorldCore {
    /// Creates core state for `n` parties from an experiment seed.
    pub fn new(n: usize, seed: &[u8]) -> Self {
        WorldCore {
            n,
            clock: crate::clock::GlobalClock::new(PartyId::all(n)),
            rng: sbc_primitives::drbg::Drbg::from_seed(seed),
            leaks: Vec::new(),
            counted: None,
            corr: crate::corruption::CorruptionTracker::new(n),
            outputs: Vec::new(),
        }
    }

    /// Number of parties.
    pub fn n(&self) -> usize {
        self.n
    }

    /// Builds a [`HybridCtx`](crate::hybrid::HybridCtx) over the core state;
    /// its leakage channel is the adversary-visible buffer, or the counter
    /// once the core only counts.
    pub fn ctx(&mut self) -> crate::hybrid::HybridCtx<'_> {
        crate::hybrid::HybridCtx {
            clock: &mut self.clock,
            rng: &mut self.rng,
            leaks: match &mut self.counted {
                Some(count) => count,
                None => &mut self.leaks,
            },
            corr: &mut self.corr,
        }
    }

    /// Switches the adversary channel of [`ctx`](WorldCore::ctx) to
    /// counting: from now on a leak bumps a counter, and its command is
    /// never built. For a world whose leaks nobody reads. Leaks already
    /// buffered stay, and [`take_leak_count`](WorldCore::take_leak_count)
    /// counts them too.
    pub fn count_leaks_only(&mut self) {
        self.counted.get_or_insert_with(LeakCount::default);
    }

    /// How many leaks reached the adversary channel since the last call —
    /// counted, or buffered and now dropped.
    pub fn take_leak_count(&mut self) -> usize {
        let buffered = self.leaks.len();
        self.leaks.clear();
        buffered
            + self
                .counted
                .as_mut()
                .map_or(0, |c| std::mem::take(&mut c.0))
    }

    /// [`ctx`](WorldCore::ctx) with the leakage channel pointed at `leaks`
    /// instead of the adversary-visible buffer — how an ideal world hands
    /// a functionality's leaks to its simulator. It always keeps them: the
    /// simulator reads them.
    pub fn ctx_leaking_to<'a>(
        &'a mut self,
        leaks: &'a mut Vec<Leak>,
    ) -> crate::hybrid::HybridCtx<'a> {
        crate::hybrid::HybridCtx {
            clock: &mut self.clock,
            rng: &mut self.rng,
            leaks,
            corr: &mut self.corr,
        }
    }

    /// Whether `party` is a party of this world (`party < n`) and not
    /// corrupted — what a world checks before it lets `party` take an input
    /// or a clock step.
    pub fn is_honest(&self, party: PartyId) -> bool {
        party.index() < self.n && !self.corr.is_corrupted(party)
    }

    /// Corrupts a party in both the tracker and the clock. Returns success;
    /// the tracker refuses a `party ≥ n` and a corruption past `t ≤ n − 1`.
    pub fn corrupt(&mut self, party: PartyId) -> bool {
        if self.corr.corrupt(party).is_err() {
            return false;
        }
        self.clock.set_corrupted(party);
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exec::tests::PeriodicEcho as EchoWorld;

    #[test]
    fn driver_records_everything() {
        let mut w = EchoWorld::new(2);
        let t = run_env(&mut w, |env| {
            env.input(PartyId(0), Command::new("Ping", Value::U64(7)));
            env.advance_all();
        });
        assert_eq!(t.outputs().len(), 1);
        assert_eq!(t.leaks().len(), 1);
        assert_eq!(t.outputs()[0].0, 0, "echo stamped with the round it ended");
    }

    #[test]
    fn identical_envs_identical_digests() {
        let script = |env: &mut EnvDriver<'_>| {
            env.input(PartyId(1), Command::new("Ping", Value::str("x")));
            env.advance_all();
            env.idle_rounds(2);
        };
        let mut w1 = EchoWorld::new(3);
        let mut w2 = EchoWorld::new(3);
        let t1 = run_env(&mut w1, script);
        let t2 = run_env(&mut w2, script);
        assert_eq!(t1.digest(), t2.digest());
    }

    #[test]
    fn a_count_only_core_counts_leaks_and_never_builds_them() {
        let mut core = WorldCore::new(2, b"count-only");
        core.ctx().leak("F", || Command::new("Kept", Value::Unit));
        core.count_leaks_only();
        for _ in 0..3 {
            core.ctx()
                .leak("F", || unreachable!("a counted leak is never built"));
        }
        assert_eq!(core.leaks.len(), 1, "a leak kept before the switch stays");
        assert_eq!(core.take_leak_count(), 4);
        assert!(core.leaks.is_empty());
        assert_eq!(core.take_leak_count(), 0);
        // The simulator's channel keeps whatever the core does.
        let mut to_sim = Vec::new();
        core.ctx_leaking_to(&mut to_sim)
            .leak("F", || Command::new("Sim", Value::Unit));
        assert_eq!((to_sim.len(), core.take_leak_count()), (1, 0));
    }

    #[test]
    fn corruption_via_adversary() {
        let mut w = EchoWorld::new(2);
        let t = run_env(&mut w, |env| {
            let resp = env.adversary(AdvCommand::Corrupt(PartyId(1)));
            assert_eq!(resp, Value::Bool(true));
            assert!(env.is_corrupted(PartyId(1)));
            env.advance_all(); // only P0 advances now
        });
        assert!(t
            .events
            .iter()
            .any(|e| matches!(e.kind, EventKind::AdvAction { .. })));
    }
}
