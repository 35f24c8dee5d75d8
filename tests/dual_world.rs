//! Multi-epoch Theorem 2 coverage through the unified dual-world API.
//!
//! Everything here drives a real/ideal pair exclusively through the shared
//! `sbc_uc::exec::SbcWorld` trait (via [`DualRun`]): the test bodies never
//! touch `RealSbcWorld`/`IdealSbcWorld` directly — construction goes
//! through the generic [`SbcBackend`] entry point, actions through the
//! harness. That is the point of the redesign: the same code path a
//! session or a future backend uses is the one the security experiments
//! exercise.

use sbc_core::protocol::sbc_wire;
use sbc_core::worlds::{IdealSbcWorld, RealSbcWorld, SbcBackend, SbcParams};
use sbc_primitives::drbg::Drbg;
use sbc_uc::exec::{CompareLevel, DualRun};
use sbc_uc::ids::PartyId;
use sbc_uc::value::{Command, Value};
use sbc_uc::world::AdvCommand;

/// Builds a real/ideal pair through the backend trait — the only place a
/// concrete world type is named.
fn theorem2_pair(n: usize, seed: &[u8]) -> DualRun<RealSbcWorld, IdealSbcWorld> {
    fn backend<W: SbcBackend>(n: usize, seed: &[u8]) -> W {
        W::from_params(SbcParams::default_for(n), seed).expect("valid default params")
    }
    DualRun::new(
        backend(n, seed),
        backend(n, seed),
        CompareLevel::ShapeAndOutputs,
    )
}

/// The full adversarial-broadcast recipe, expressed purely in dual-world
/// driver actions: `Insert` a fabricated time-lock ciphertext, derive the
/// mask from `F_RO`, and `SendAs` the `(c, τ_rel, y)` wire on behalf of
/// the corrupted `party`. Mirrors `SbcSession::inject_message`.
fn inject(
    dual: &mut DualRun<RealSbcWorld, IdealSbcWorld>,
    rng: &mut Drbg,
    party: PartyId,
    message: &[u8],
) {
    let tau_rel = dual.release_round().expect("period open");
    let ct = Value::bytes(rng.gen_bytes(64));
    let rho = rng.gen_bytes(32);
    dual.adversary(AdvCommand::Control {
        target: "F_TLE".into(),
        cmd: Command::new(
            "Insert",
            Value::list([ct.clone(), Value::bytes(&rho), Value::U64(tau_rel)]),
        ),
    });
    let m_bytes = Value::bytes(message).encode();
    let (eta_real, eta_ideal) = dual.adversary(AdvCommand::Control {
        target: "F_RO".into(),
        cmd: Command::new(
            "QueryBytes",
            Value::list([Value::bytes(&rho), Value::U64(m_bytes.len() as u64)]),
        ),
    });
    assert_eq!(eta_real, eta_ideal, "same seed, same oracle point");
    let eta = eta_real.as_bytes().expect("mask is bytes").to_vec();
    let y: Vec<u8> = m_bytes.iter().zip(eta.iter()).map(|(a, b)| a ^ b).collect();
    dual.adversary(AdvCommand::SendAs {
        party,
        cmd: Command::new("Broadcast", sbc_wire(&ct, tau_rel, &y)),
    });
}

/// The headline scenario: four epochs over one dual world, with an
/// adaptive corruption in epoch 0, adversarial wire injections in every
/// later epoch, `F_TLE` leakage probes, a garbage `SendAs`, and late
/// drains (rounds idled well past `τ_rel` before the epoch turns over).
/// Transcript shape and every party output must agree in every epoch.
#[test]
fn theorem2_multi_epoch_active_adversary() {
    let mut dual = theorem2_pair(4, b"dual-epochs");
    let mut adv_rng = Drbg::from_seed(b"dual-epochs/adversary");
    // Epoch 0: honest traffic, then corrupt P3 mid-period.
    dual.submit(PartyId(0), b"epoch0/a");
    dual.advance_all();
    dual.submit(PartyId(1), b"epoch0/b");
    dual.corrupt(PartyId(3));
    dual.idle_rounds(9); // τ_rel = 5: drain late
    assert_eq!(dual.finish_epoch().expect("epoch 0 aligned"), 0);

    for epoch in 1u64..4 {
        // Honest submissions open the period; P3 stays corrupted.
        dual.submit(PartyId(0), format!("epoch{epoch}/a").as_bytes());
        dual.submit(PartyId(2), format!("epoch{epoch}/c").as_bytes());
        dual.advance_all();
        // The adversary probes its F_TLE leakage view...
        dual.adversary(AdvCommand::Control {
            target: "F_TLE".into(),
            cmd: Command::new("Leakage", Value::Unit),
        });
        // ...injects a committed message on behalf of the corrupted party…
        inject(
            &mut dual,
            &mut adv_rng,
            PartyId(3),
            format!("epoch{epoch}/evil").as_bytes(),
        );
        // …and also sends garbage, which honest parties ignore uniformly.
        dual.adversary(AdvCommand::SendAs {
            party: PartyId(3),
            cmd: Command::new("Broadcast", Value::bytes(b"not a wire")),
        });
        dual.idle_rounds(10 + epoch); // increasingly late drains
        assert_eq!(dual.finish_epoch().expect("epoch aligned"), epoch);
    }
    assert_eq!(dual.epoch(), 4);

    // The injected messages were delivered (they appear in party outputs).
    let (t_real, _) = dual.into_transcripts();
    let outs = t_real.outputs();
    assert!(!outs.is_empty());
    let delivered: Vec<u8> = outs
        .iter()
        .flat_map(|(_, _, cmd)| cmd.value.encode())
        .collect();
    for epoch in 1u64..4 {
        let needle = format!("epoch{epoch}/evil").into_bytes();
        assert!(
            delivered
                .windows(needle.len())
                .any(|w| w == needle.as_slice()),
            "epoch {epoch} injection delivered"
        );
    }
}

/// The same shape at n = 64 over two epochs: adaptive mid-period
/// corruption in epoch 0; a leakage probe, a committed injection and a
/// garbage wire on behalf of the corrupted party in epoch 1; late drains
/// throughout.
#[test]
fn theorem2_two_epochs_at_n64() {
    let mut dual = theorem2_pair(64, b"dual-n64");
    let mut adv_rng = Drbg::from_seed(b"dual-n64/adversary");
    for p in [0u32, 7, 31, 63] {
        dual.submit(PartyId(p), format!("e0/p{p}").as_bytes());
    }
    dual.advance_all();
    dual.corrupt(PartyId(63));
    dual.idle_rounds(9);
    assert_eq!(dual.finish_epoch().expect("epoch 0 aligned"), 0);

    for p in [1u32, 8, 30] {
        dual.submit(PartyId(p), format!("e1/p{p}").as_bytes());
    }
    dual.advance_all();
    dual.adversary(AdvCommand::Control {
        target: "F_TLE".into(),
        cmd: Command::new("Leakage", Value::Unit),
    });
    inject(&mut dual, &mut adv_rng, PartyId(63), b"e1/evil");
    dual.adversary(AdvCommand::SendAs {
        party: PartyId(63),
        cmd: Command::new("Broadcast", Value::bytes(b"not a wire")),
    });
    dual.idle_rounds(10);
    assert_eq!(dual.finish_epoch().expect("epoch 1 aligned"), 1);
    let (t_real, _) = dual.into_transcripts();
    assert_eq!(t_real.outputs().len(), 2 * 63, "both epochs released");
}

/// Satellite: seeded adversary-schedule sweep. Random corrupt / send_as /
/// inject / leakage-probe schedules over random epoch counts; transcript
/// equality is asserted at **every** epoch boundary. Each failure
/// reproduces exactly from the trial's fixed seed.
#[test]
fn adversary_schedule_sweep_every_epoch_aligned() {
    for trial in 0u8..8 {
        let seed = [b'd', b'w', trial];
        let mut plan = Drbg::from_seed(&seed);
        let n = 2 + plan.gen_range(3) as usize; // 2..=4 parties
        let epochs = 2 + plan.gen_range(3); // 2..=4 epochs
        let mut dual = theorem2_pair(n, &seed);
        let mut adv_rng = Drbg::from_seed(&[b'a', b'v', trial]);
        let mut corrupted: Vec<PartyId> = Vec::new();
        for epoch in 0..epochs {
            // 1–2 honest submissions from honest parties open the period.
            let honest: Vec<u32> = (0..n as u32)
                .filter(|p| !corrupted.contains(&PartyId(*p)))
                .collect();
            for s in 0..(1 + plan.gen_range(2)) {
                let p = honest[plan.gen_range(honest.len() as u64) as usize];
                let len = 1 + plan.gen_range(24) as usize;
                let mut msg = plan.gen_bytes(len);
                msg.push(s as u8);
                dual.submit(PartyId(p), &msg);
            }
            dual.advance_all();
            // Maybe corrupt one more party (dishonest-majority budget:
            // keep at least one honest submitter).
            if corrupted.len() + 2 < n && plan.gen_bool() {
                let target = honest[plan.gen_range(honest.len() as u64) as usize];
                let p = PartyId(target);
                dual.corrupt(p);
                corrupted.push(p);
            }
            // Random adversarial actions while the period is open.
            for _ in 0..plan.gen_range(3) {
                match (plan.gen_range(3), corrupted.first().copied()) {
                    (0, _) => {
                        dual.adversary(AdvCommand::Control {
                            target: "F_TLE".into(),
                            cmd: Command::new("Leakage", Value::Unit),
                        });
                    }
                    (1, Some(p)) => {
                        let len = 1 + plan.gen_range(16) as usize;
                        let msg = adv_rng.gen_bytes(len);
                        if dual.release_round().is_some() {
                            inject(&mut dual, &mut adv_rng, p, &msg);
                        }
                    }
                    (2, Some(p)) => {
                        dual.adversary(AdvCommand::SendAs {
                            party: p,
                            cmd: Command::new("Broadcast", Value::bytes(plan.gen_bytes(8))),
                        });
                    }
                    _ => {}
                }
            }
            // Random (possibly late) drain, then the epoch boundary check.
            dual.idle_rounds(9 + plan.gen_range(4));
            dual.finish_epoch()
                .unwrap_or_else(|d| panic!("trial {trial} epoch {epoch} diverged: {d}"));
        }
    }
}

/// A no-traffic epoch between two active ones: the period simply never
/// opens, and both worlds idle identically through it.
#[test]
fn empty_epoch_between_active_epochs() {
    let mut dual = theorem2_pair(2, b"dual-empty");
    dual.submit(PartyId(0), b"before");
    dual.idle_rounds(8);
    dual.finish_epoch().expect("epoch 0");
    dual.idle_rounds(4); // nobody broadcasts
    assert_eq!(dual.release_round(), None, "period never opened");
    dual.finish_epoch().expect("empty epoch");
    dual.submit(PartyId(1), b"after");
    dual.idle_rounds(8);
    dual.finish_epoch().expect("epoch 2");
}
