//! A baseline for `F_SBC`: [`CommitFreeChannel`], a naive "simultaneous"
//! channel without time-locks, and the copy-cat attack run against it and
//! against the real SBC stack (this module's tests; the
//! `sealed_bid_auction` example draws the same contrast). On the channel,
//! senders post plaintext, and the adversary sees everything as it is
//! posted (rushing) and may submit corrupted senders' values *after*
//! reading honest ones: the simultaneity gap `F_SBC` closes.

use sbc_uc::ids::PartyId;
use sbc_uc::value::Value;

/// A naive simultaneous channel without time-locks: everything posted is
/// immediately public, so a rushing adversary reads honest messages before
/// deciding the corrupted senders' values.
#[derive(Clone, Debug, Default)]
pub struct CommitFreeChannel {
    posted: Vec<(PartyId, Value)>,
    closed: bool,
}

impl CommitFreeChannel {
    /// Creates an empty channel.
    pub fn new() -> Self {
        CommitFreeChannel::default()
    }

    /// Posts a message (instantly public).
    pub fn post(&mut self, party: PartyId, msg: Value) {
        if !self.closed {
            self.posted.push((party, msg));
        }
    }

    /// Adversary view: everything posted so far — *before* the channel
    /// closes. This is what breaks simultaneity.
    pub fn adversary_view(&self) -> &[(PartyId, Value)] {
        &self.posted
    }

    /// Closes the channel and returns the final vector.
    pub fn close(&mut self) -> Vec<(PartyId, Value)> {
        self.closed = true;
        self.posted.clone()
    }
}

/// Runs the copy-cat attack against [`CommitFreeChannel`]: the adversary
/// reads the honest message and posts a function of it. Returns `true` if
/// the attack succeeded (the corrupted message depends on the honest one).
pub fn copycat_attack_on_commit_free(honest_msg: &[u8]) -> bool {
    let mut ch = CommitFreeChannel::new();
    ch.post(PartyId(0), Value::bytes(honest_msg));
    // Rushing adversary: read, then post a derived value.
    let seen = ch.adversary_view()[0].1.clone();
    let copied = match seen {
        Value::Bytes(mut b) => {
            b.push(b'!');
            Value::Bytes(b)
        }
        other => other,
    };
    ch.post(PartyId(1), copied.clone());
    let finals = ch.close();
    let mut expected = honest_msg.to_vec();
    expected.push(b'!');
    finals[1].1 == Value::Bytes(expected)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Runs the copy-cat attack against the real SBC stack: once the honest
    /// `(c, τ_rel, y)` wire leaks from `F_UBC`, the adversary replays it,
    /// inside the period, as the broadcast of the corrupted P2. Returns
    /// `true` if the attack succeeded: some release holds the honest message
    /// twice. The replay rule drops the copy, and any fresh wire the
    /// adversary builds encodes a message chosen independently of the honest
    /// plaintext.
    ///
    /// # Panics
    ///
    /// Panics if the first `delay + 1` rounds leak no wire, the replay lands
    /// outside the period, or the period releases nothing: each would make
    /// the attack vacuous.
    fn copycat_attack_on_sbc(seed: &[u8], honest_msg: &[u8]) -> bool {
        use crate::protocol::ParsedWire;
        use crate::worlds::{RealSbcWorld, SbcParams};
        use sbc_uc::exec::SbcWorld;
        use sbc_uc::value::Command;
        use sbc_uc::world::{AdvCommand, World};

        let params = SbcParams::default_for(3);
        let mut world = RealSbcWorld::new(params, seed);
        world.submit(PartyId(0), honest_msg);
        world.adversary(AdvCommand::Corrupt(PartyId(2)));
        // Round 1 wakes the parties and asks `F_TLE` for `c`; the wire is
        // flushed `delay` rounds later.
        for _ in 0..=params.tle_delay {
            world.tick();
        }
        let wire = world
            .drain_leaks()
            .iter()
            .find_map(|leak| {
                let items = leak.cmd.value.as_list()?;
                items.iter().find(|v| ParsedWire::parse(v).is_some())
            })
            .cloned()
            .expect("the honest wire leaks");
        let t_end = world.period_end().expect("the period is open");
        assert!(world.time() < t_end, "the replay lands inside the period");
        world.adversary(AdvCommand::SendAs {
            party: PartyId(2),
            cmd: Command::new("Broadcast", wire),
        });
        let tau_rel = world.release_round().expect("the period is open");
        while world.time() <= tau_rel {
            world.tick();
        }
        let releases = world.drain_outputs();
        assert!(!releases.is_empty(), "the period releases");
        let honest = Value::bytes(honest_msg);
        releases.iter().any(|(_, cmd)| {
            cmd.value
                .as_list()
                .is_some_and(|msgs| msgs.iter().filter(|m| **m == honest).count() > 1)
        })
    }

    #[test]
    fn commit_free_channel_breaks_simultaneity() {
        assert!(
            copycat_attack_on_commit_free(b"honest bid: 100"),
            "the rushing adversary correlates for free on the naive channel"
        );
    }

    #[test]
    fn sbc_resists_copycat() {
        for seed in [&b"cc-1"[..], b"cc-2", b"cc-3"] {
            assert!(
                !copycat_attack_on_sbc(seed, b"honest bid: 100"),
                "seed {seed:?}: SBC must prevent correlation"
            );
        }
    }
}
