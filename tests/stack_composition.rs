//! Cross-crate integration: the Corollary 1 composition and the round/cost
//! accounting of every layer of the stack, from Dolev–Strong in the
//! `F_cert`-hybrid model of Fact 1 (ideal `F_cert`, as the paper assumes)
//! up to the composed `Π_SBC`.

use sbc_broadcast::fbc::worlds::{IdealFbcWorld, RealFbcWorld};
use sbc_broadcast::rbc::dolev_strong::DolevStrong;
use sbc_core::api::SbcSession;
use sbc_core::worlds::{RealSbcWorld, SbcParams};
use sbc_primitives::drbg::Drbg;
use sbc_uc::exec::{assert_indistinguishable, CompareLevel};
use sbc_uc::ids::PartyId;
use sbc_uc::value::{Command, Value};
use sbc_uc::world::run_env;

/// Dolev–Strong round complexity: always exactly t + 1 rounds, up to
/// t = n − 1, with every party outputting the honest sender's value.
#[test]
fn dolev_strong_round_complexity_sweep() {
    for n in [3usize, 4, 5, 8, 16, 32] {
        for t in [1usize, n / 2, n - 1] {
            let mut rng = Drbg::from_seed(b"sweep");
            let mut ds = DolevStrong::new(b"s".to_vec(), n, t, PartyId(0), &mut rng);
            ds.start_honest(Value::U64(1));
            ds.run_to_completion();
            assert_eq!(ds.round(), t as u64 + 1, "n={n} t={t}");
            assert_eq!(ds.outputs(), vec![Value::U64(1); n], "n={n} t={t}");
        }
    }
}

/// Corollary 1 parameters: the composed stack runs with Φ > 3, ∆ > 2, and
/// a round-0 period releases everything at `t_end + ∆ = Φ + ∆`.
#[test]
fn corollary1_parameter_regime() {
    for (phi, delta) in [(4, 3), (5, 3), (6, 4)] {
        let mut s = SbcSession::builder(4)
            .phi(phi)
            .delta(delta)
            .seed(b"cor1")
            .build()
            .unwrap();
        s.submit(0, b"a").unwrap();
        s.submit(1, b"b").unwrap();
        s.submit(2, b"c").unwrap();
        let r = s.run_to_completion().unwrap();
        assert_eq!(r.messages.len(), 3, "Φ={phi} ∆={delta}");
        assert_eq!(r.release_round, phi + delta, "Φ={phi} ∆={delta}");
    }
}

/// Corollary 1, repeated: successive Φ > 3, ∆ > 2 periods on one composed
/// stack via the multi-epoch session API.
#[test]
fn corollary1_regime_multi_epoch() {
    let mut s = SbcSession::builder(4)
        .phi(4)
        .delta(3)
        .seed(b"cor1-epochs")
        .build()
        .unwrap();
    let mut last_release = 0;
    for epoch in 0u64..3 {
        for i in 0..3u32 {
            s.submit(i, format!("e{epoch}-m{i}").as_bytes()).unwrap();
        }
        let r = s.run_epoch().unwrap();
        assert_eq!(r.epoch, epoch);
        assert_eq!(r.messages.len(), 3);
        assert!(r.release_round > last_release);
        last_release = r.release_round;
    }
}

/// FBC delivery delay is exactly ∆ = 2 for every sender and round offset.
#[test]
fn fbc_delta_invariant_across_offsets() {
    for offset in 0u64..3 {
        let mut real = RealFbcWorld::new(3, 3, b"offsets");
        let t = run_env(&mut real, |env| {
            env.idle_rounds(offset);
            env.input(PartyId(1), Command::new("Broadcast", Value::bytes(b"m")));
            env.idle_rounds(4);
        });
        assert_eq!(t.outputs().len(), 3, "offset {offset}");
        for (round, _, _) in t.outputs() {
            assert_eq!(round, offset + 2, "offset {offset}");
        }
    }
}

/// The full SBC stack delivers identical vectors to every party, for a
/// range of n and message loads; with every party submitting in round 0,
/// all n messages release at Φ + ∆.
#[test]
fn sbc_agreement_sweep() {
    for n in [2usize, 3, 4, 5, 8] {
        let params = SbcParams::default_for(n);
        let mut world = RealSbcWorld::new(params, format!("sweep-{n}").as_bytes());
        let t = run_env(&mut world, |env| {
            for i in 0..n {
                env.input(
                    PartyId(i as u32),
                    Command::new("Broadcast", Value::bytes(format!("msg-{i}").as_bytes())),
                );
                env.advance_all();
            }
            env.idle_rounds(params.phi + params.delta + 2);
        });
        let outs = t.outputs();
        let delivered: Vec<&Command> = outs.iter().map(|(_, _, c)| *c).collect();
        assert!(!delivered.is_empty(), "n={n}");
        for w in delivered.windows(2) {
            assert_eq!(w[0].value, w[1].value, "agreement n={n}");
        }

        let mut s = SbcSession::builder(n).seed(b"sweep").build().unwrap();
        for i in 0..n as u32 {
            s.submit(i, format!("msg-{i}").as_bytes()).unwrap();
        }
        let r = s.run_to_completion().unwrap();
        assert_eq!(r.messages.len(), n, "n={n}");
        assert_eq!(r.release_round, params.phi + params.delta, "n={n}");
    }
}

/// Late joiners (inputs after the period closes) never corrupt agreement.
#[test]
fn sbc_rejects_late_messages_consistently() {
    let params = SbcParams::default_for(3);
    let mut world = RealSbcWorld::new(params, b"late");
    let t = run_env(&mut world, |env| {
        env.input(
            PartyId(0),
            Command::new("Broadcast", Value::bytes(b"early")),
        );
        env.idle_rounds(3); // period [0,3) closes
        env.input(PartyId(1), Command::new("Broadcast", Value::bytes(b"late")));
        env.idle_rounds(5);
    });
    for (_, _, cmd) in t.outputs() {
        assert_eq!(cmd.value.as_list().unwrap(), &[Value::bytes(b"early")]);
    }
}

/// Byzantine smoke across layers: corruption mid-run at each layer keeps
/// the real and ideal FBC worlds indistinguishable.
#[test]
fn fbc_indistinguishable_under_randomized_corruption_schedules() {
    for seed_idx in 0u8..5 {
        let seed = [b's', b'c', seed_idx];
        let mut drv = Drbg::from_seed(&seed);
        let corrupt_at = drv.gen_range(3);
        let victim = drv.gen_range(2) as u32 + 1;
        let script = move |env: &mut sbc_uc::world::EnvDriver<'_>| {
            env.input(
                PartyId(0),
                Command::new("Broadcast", Value::bytes(b"payload")),
            );
            for r in 0..5u64 {
                if r == corrupt_at {
                    env.adversary(sbc_uc::world::AdvCommand::Corrupt(PartyId(victim)));
                }
                env.advance_all();
            }
        };
        assert_indistinguishable(
            RealFbcWorld::new(3, 3, &seed),
            IdealFbcWorld::new(3, 3, &seed),
            CompareLevel::Exact,
            script,
        );
    }
}
