//! Seeded synthetic load: millions of distinct submitters playing against
//! the service, deterministically.
//!
//! The generator is intentionally dumb-but-reproducible: a [`Drbg`] fork
//! drives client identity, payload content, and deadline-class mix, so a
//! bench run is a pure function of its seed — two machines (or two
//! backends) fed the same profile produce the same submission stream.

use sbc_primitives::drbg::Drbg;

use crate::service::DeadlineClass;

/// Shape of the synthetic workload.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct LoadProfile {
    /// Total submissions the generator will emit.
    pub total: u64,
    /// Submissions offered per tick (the arrival rate).
    pub per_tick: usize,
    /// Payload length in bytes (mode-appropriate: 32 for beacon entropy,
    /// 1 for votes, 8 for bids).
    pub payload_len: usize,
    /// Distinct client-id space (~millions of submitters).
    pub clients: u64,
    /// Percentage (0..=100) of submissions in
    /// [`DeadlineClass::Interactive`].
    pub interactive_pct: u8,
    /// Percentage (0..=100) of submissions in [`DeadlineClass::Batch`];
    /// the remainder is [`DeadlineClass::Standard`].
    pub batch_pct: u8,
}

impl LoadProfile {
    /// A beacon-shaped profile: `total` 32-byte entropy contributions
    /// from a million distinct clients, mostly standard-class.
    pub fn beacon(total: u64, per_tick: usize) -> Self {
        LoadProfile {
            total,
            per_tick,
            payload_len: 32,
            clients: 1_000_000,
            interactive_pct: 5,
            batch_pct: 25,
        }
    }
}

/// One pending synthetic submission.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct GenSubmission {
    /// Synthetic client id.
    pub client: u64,
    /// Broadcast payload.
    pub payload: Vec<u8>,
    /// Deadline class.
    pub class: DeadlineClass,
}

/// The seeded load generator. Call [`LoadGen::next_tick`] once per
/// service tick and feed the returned submissions through
/// `SbcService::submit`, re-offering on `QueueFull` if desired.
#[derive(Debug)]
pub struct LoadGen {
    profile: LoadProfile,
    rng: Drbg,
    emitted: u64,
}

impl LoadGen {
    /// Creates a generator over `profile`, seeded by `seed`.
    pub fn new(profile: LoadProfile, seed: &[u8]) -> Self {
        let mut s = seed.to_vec();
        s.extend_from_slice(b"/loadgen");
        LoadGen {
            profile,
            rng: Drbg::from_seed(&s),
            emitted: 0,
        }
    }

    /// Submissions emitted so far.
    pub fn emitted(&self) -> u64 {
        self.emitted
    }

    /// Whether the profile's total has been reached.
    pub fn done(&self) -> bool {
        self.emitted >= self.profile.total
    }

    /// The next tick's worth of submissions (up to `per_tick`, bounded by
    /// the remaining total).
    pub fn next_tick(&mut self) -> Vec<GenSubmission> {
        let remaining = self.profile.total.saturating_sub(self.emitted);
        let count = (self.profile.per_tick as u64).min(remaining) as usize;
        let mut out = Vec::with_capacity(count);
        for _ in 0..count {
            out.push(self.gen_one());
        }
        self.emitted += count as u64;
        out
    }

    fn gen_one(&mut self) -> GenSubmission {
        let id = self.rng.gen_u64();
        let client = id % self.profile.clients.max(1);
        let payload = self.rng.gen_bytes(self.profile.payload_len.max(1));
        let roll = self.rng.gen_range(100) as u8;
        let class = if roll < self.profile.interactive_pct {
            DeadlineClass::Interactive
        } else if roll
            < self
                .profile
                .interactive_pct
                .saturating_add(self.profile.batch_pct)
        {
            DeadlineClass::Batch
        } else {
            DeadlineClass::Standard
        };
        GenSubmission {
            client,
            payload,
            class,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_across_instances() {
        let profile = LoadProfile::beacon(100, 8);
        let mut a = LoadGen::new(profile.clone(), b"gen");
        let mut b = LoadGen::new(profile, b"gen");
        while !a.done() {
            assert_eq!(a.next_tick(), b.next_tick());
        }
        assert_eq!(a.emitted(), 100);
        assert!(a.next_tick().is_empty(), "exhausted generator stays dry");
    }

    #[test]
    fn respects_total_and_rate() {
        let mut g = LoadGen::new(LoadProfile::beacon(10, 4), b"rate");
        assert_eq!(g.next_tick().len(), 4);
        assert_eq!(g.next_tick().len(), 4);
        assert_eq!(g.next_tick().len(), 2);
        assert!(g.done());
    }

    #[test]
    fn class_mix_covers_all_classes() {
        let mut g = LoadGen::new(LoadProfile::beacon(500, 500), b"mix");
        let batch = g.next_tick();
        let mut seen = [false; 3];
        for s in &batch {
            seen[s.class.tag() as usize] = true;
            assert_eq!(s.payload.len(), 32);
            assert!(s.client < 1_000_000);
        }
        assert_eq!(seen, [true; 3]);
    }

    #[test]
    fn class_shares_match_the_profile() {
        let profile = LoadProfile::beacon(100_000, 100_000);
        let mut g = LoadGen::new(profile.clone(), b"shares");
        let mut counts = [0u32; 3];
        for s in g.next_tick() {
            counts[s.class.tag() as usize] += 1;
        }
        let want = [
            profile.interactive_pct,
            100 - profile.interactive_pct - profile.batch_pct,
            profile.batch_pct,
        ];
        for (got, want) in counts.into_iter().zip(want) {
            let pct = f64::from(got) / 1000.0;
            assert!((pct - f64::from(want)).abs() <= 0.5, "{counts:?}");
        }
    }
}
