//! Experiment harness: prints the paper tables E1–E9 (`-- all`, or one of
//! `-- e1` … `-- e9`), with real-vs-ideal equality counters in E2–E5.
//!
//! ```sh
//! cargo run --release -p sbc-bench --bin experiments -- all
//! cargo run --release -p sbc-bench --bin experiments -- e5
//! ```

#![forbid(unsafe_code)]

use sbc_apps::durs::{last_revealer_attack, last_revealer_attack_on_durs, DursSession, URS_LEN};
use sbc_apps::voting::{BulletinBoardElection, Election};
use sbc_broadcast::fbc::worlds::{IdealFbcWorld, RealFbcWorld};
use sbc_broadcast::rbc::dolev_strong::{bottom, ChainLink, DolevStrong};
use sbc_broadcast::ubc::worlds::{IdealUbcWorld, RealUbcWorld};
use sbc_core::api::SbcSession;
use sbc_core::baseline::{copycat_attack_on_commit_free, copycat_attack_on_sbc, HeviaStyleSbc};
use sbc_core::worlds::{IdealSbcWorld, RealSbcWorld, SbcParams};
use sbc_primitives::astrolabous::{ast_enc, ast_solve_and_dec};
use sbc_primitives::drbg::Drbg;
use sbc_primitives::group::SchnorrGroup;
use sbc_primitives::sha256::Sha256;
use sbc_tle::worlds::{IdealTleWorld, RealTleWorld};
use sbc_uc::cert::IdealCert;
use sbc_uc::ids::PartyId;
use sbc_uc::value::{Command, Value};
use sbc_uc::world::{run_env, AdvCommand, EnvDriver};
use std::time::Instant;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let which = std::env::args().nth(1).unwrap_or_else(|| "all".to_string());
    let all = which == "all";
    if all || which == "e1" {
        e1_dolev_strong();
    }
    if all || which == "e2" {
        e2_ubc();
    }
    if all || which == "e3" {
        e3_fbc_fairness();
    }
    if all || which == "e4" {
        e4_tle();
    }
    if all || which == "e5" {
        e5_sbc()?;
    }
    if all || which == "e6" {
        e6_durs()?;
    }
    if all || which == "e7" {
        e7_voting()?;
    }
    if all || which == "e8" {
        e8_composition()?;
    }
    if all || which == "e9" {
        e9_crypto_costs();
    }
    Ok(())
}

fn header(title: &str) {
    println!("\n=== {title} ===");
}

/// E1 — Fact 1: Dolev–Strong realizes relaxed broadcast in t+1 rounds.
fn e1_dolev_strong() {
    header("E1  Dolev-Strong RBC (Fact 1): rounds = t+1, agreement under attack");
    println!(
        "{:>4} {:>4} {:>7} {:>9} {:>10} {:>10} {:>10}",
        "n", "t", "rounds", "msgs", "sig-verif", "agree", "validity"
    );
    for n in [4usize, 8, 16, 32] {
        let t = n - 1;
        let mut rng = Drbg::from_seed(b"e1");
        let certs: Vec<IdealCert> = (0..n as u32)
            .map(|i| IdealCert::new(PartyId(i), rng.fork(&i.to_be_bytes())))
            .collect();
        let mut ds = DolevStrong::new(b"e1".to_vec(), t, PartyId(0), certs);
        ds.start_honest(Value::bytes(b"experiment-1"));
        ds.run_to_completion();
        let outs = ds.outputs();
        let agree = outs.windows(2).all(|w| w[0] == w[1]);
        let valid = outs[1] == Value::bytes(b"experiment-1");
        let (msgs, _, sigs) = ds.stats();
        println!(
            "{:>4} {:>4} {:>7} {:>9} {:>10} {:>10} {:>10}",
            n,
            t,
            ds.round(),
            msgs,
            sigs,
            agree,
            valid
        );
    }
    // Equivocating sender: agreement on ⊥.
    let mut rng = Drbg::from_seed(b"e1b");
    let certs: Vec<IdealCert> = (0..4u32)
        .map(|i| IdealCert::new(PartyId(i), rng.fork(&i.to_be_bytes())))
        .collect();
    let mut ds = DolevStrong::new(b"e1b".to_vec(), 2, PartyId(0), certs);
    ds.corrupt(PartyId(0));
    let m1 = Value::bytes(b"one");
    let m2 = Value::bytes(b"two");
    let s1 = ds.adversary_sign(PartyId(0), m1.clone()).unwrap();
    let s2 = ds.adversary_sign(PartyId(0), m2.clone()).unwrap();
    ds.adversary_send(
        PartyId(0),
        PartyId(1),
        m1,
        vec![ChainLink {
            signer: PartyId(0),
            signature: s1,
        }],
    );
    ds.adversary_send(
        PartyId(0),
        PartyId(2),
        m2,
        vec![ChainLink {
            signer: PartyId(0),
            signature: s2,
        }],
    );
    ds.run_to_completion();
    let outs = ds.outputs();
    println!(
        "equivocating sender: honest outputs agree on ⊥: {}",
        outs[1] == bottom() && outs[2] == bottom() && outs[3] == bottom()
    );
}

/// E2 — Lemma 1: Π_UBC ≈ F_UBC, exact transcript equality over seeds.
fn e2_ubc() {
    header("E2  UBC (Lemma 1): real-vs-ideal transcript equality");
    let mut equal = 0;
    let trials = 20;
    for trial in 0u8..trials {
        let seed = [b'e', b'2', trial];
        let script = move |env: &mut EnvDriver<'_>| {
            let mut plan = Drbg::from_seed(&[b'p', trial]);
            for _ in 0..4 {
                let p = PartyId(plan.gen_range(3) as u32);
                if !env.is_corrupted(p) {
                    env.input(
                        p,
                        Command::new("Broadcast", Value::U64(plan.gen_u64() % 50)),
                    );
                }
                if plan.gen_bool() {
                    let v = PartyId(plan.gen_range(3) as u32);
                    env.adversary(AdvCommand::Corrupt(v));
                }
                env.advance_all();
            }
        };
        let mut real = RealUbcWorld::new(3, &seed);
        let mut ideal = IdealUbcWorld::new(3, &seed);
        if run_env(&mut real, script).digest() == run_env(&mut ideal, script).digest() {
            equal += 1;
        }
    }
    println!("randomized environments with identical transcripts: {equal}/{trials}");
    println!("(paper: simulation is perfect => expected {trials}/{trials})");
}

/// E3 — Lemma 2 + the fairness headline: UBC substitution succeeds, FBC
/// substitution fails once the message left the sender.
fn e3_fbc_fairness() {
    header("E3  FBC (Lemma 2): Delta = 2, alpha = 2; fairness vs UBC");
    let mut real = RealFbcWorld::new(3, 3, b"e3");
    let t = run_env(&mut real, |env| {
        env.input(PartyId(0), Command::new("Broadcast", Value::bytes(b"x")));
        env.idle_rounds(4);
    });
    let delays: Vec<u64> = t.outputs().iter().map(|(r, _, _)| *r).collect();
    println!("FBC delivery rounds for a round-0 broadcast: {delays:?} (paper: Delta = 2)");

    let attack = |env: &mut EnvDriver<'_>| {
        env.input(
            PartyId(0),
            Command::new("Broadcast", Value::bytes(b"original")),
        );
        env.advance_all();
        env.adversary(AdvCommand::Corrupt(PartyId(0)));
        env.adversary(AdvCommand::Control {
            target: "P0".into(),
            cmd: Command::new(
                "Substitute",
                Value::pair(Value::U64(0), Value::bytes(b"evil")),
            ),
        });
        env.idle_rounds(3);
    };
    let mut fbc = RealFbcWorld::new(3, 3, b"e3-fair");
    let t = run_env(&mut fbc, attack);
    let changed = t
        .outputs()
        .iter()
        .any(|(_, _, c)| c.value == Value::bytes(b"evil"));
    println!("FBC: post-broadcast substitution changed delivered value: {changed} (paper: false)");

    let mut ubc = RealUbcWorld::new(3, b"e3-unfair");
    let t = run_env(&mut ubc, |env| {
        env.input(
            PartyId(0),
            Command::new("Broadcast", Value::bytes(b"original")),
        );
        env.adversary(AdvCommand::Corrupt(PartyId(0)));
        env.adversary(AdvCommand::Control {
            target: "F_RBC[P0,1]".into(),
            cmd: Command::new("Allow", Value::bytes(b"evil")),
        });
        env.advance_all();
    });
    let changed = t
        .outputs()
        .iter()
        .any(|(_, _, c)| c.value == Value::bytes(b"evil"));
    println!("UBC: post-input substitution changed delivered value:   {changed} (paper: true)");

    let mut equal = 0;
    for trial in 0u8..10 {
        let seed = [b'e', b'3', trial];
        let script = |env: &mut EnvDriver<'_>| {
            env.input(PartyId(1), Command::new("Broadcast", Value::bytes(b"m")));
            env.idle_rounds(4);
        };
        let mut r = RealFbcWorld::new(3, 3, &seed);
        let mut i = IdealFbcWorld::new(3, 3, &seed);
        if run_env(&mut r, script).digest() == run_env(&mut i, script).digest() {
            equal += 1;
        }
    }
    println!("real-vs-ideal transcript equality: {equal}/10");
}

/// E4 — Theorem 1: TLE timing laws and wrapper-enforced sequentiality.
fn e4_tle() {
    header("E4  TLE (Theorem 1): leak = Cl+alpha, delay = Delta+1, sequentiality");
    let q = 3u32;
    let mut real = RealTleWorld::new(2, q, b"e4");
    run_env(&mut real, |env| {
        env.input(
            PartyId(0),
            Command::new("Enc", Value::pair(Value::bytes(b"capsule"), Value::I64(7))),
        );
        for round in 0..6u64 {
            let r = env.input_collect(PartyId(0), Command::new("Retrieve", Value::Unit));
            let have = r[0].value.as_list().map(|l| l.len()).unwrap_or(0);
            let expected = u64::from(round >= 3);
            println!(
                "  round {round}: Retrieve returns {have} records (delay=Delta+1 => {expected})"
            );
            env.advance_all();
        }
    });
    let mut equal = 0;
    for trial in 0u8..10 {
        let seed = [b'e', b'4', trial];
        let script = |env: &mut EnvDriver<'_>| {
            env.input(
                PartyId(0),
                Command::new("Enc", Value::pair(Value::bytes(b"m"), Value::I64(6))),
            );
            env.idle_rounds(7);
            env.input(PartyId(0), Command::new("Retrieve", Value::Unit));
        };
        let mut r = RealTleWorld::new(2, q, &seed);
        let mut i = IdealTleWorld::new(2, q, &seed);
        if run_env(&mut r, script).shape_digest() == run_env(&mut i, script).shape_digest() {
            equal += 1;
        }
    }
    println!("real-vs-ideal shape equality: {equal}/10");
    println!("sequential solving cost (q*tau hashes, unmetered wall-clock):");
    let h = |x: &[u8]| Sha256::digest(x);
    println!("  {:>6} {:>10} {:>12}", "tau", "hashes", "solve-time");
    for tau in [1u64, 8, 64] {
        let mut rng = Drbg::from_seed(b"e4c");
        let ct = ast_enc(&h, b"m", tau, 16, &mut rng);
        let start = Instant::now();
        ast_solve_and_dec(&h, &ct).unwrap();
        println!(
            "  {:>6} {:>10} {:>10.2?}",
            tau,
            ct.solve_steps(),
            start.elapsed()
        );
    }
}

/// E5 — Theorem 2: SBC latency, liveness, simultaneity, baselines.
fn e5_sbc() -> Result<(), sbc_core::api::SbcError> {
    header("E5  SBC (Theorem 2): latency, liveness, simultaneity");
    println!(
        "{:>4} {:>6} {:>6} {:>9} {:>9}",
        "n", "Phi", "Delta", "released", "msgs"
    );
    for n in [2usize, 4, 8] {
        let mut s = SbcSession::builder(n).seed(b"e5").build()?;
        for i in 0..n {
            s.submit(i as u32, format!("m{i}").as_bytes())?;
        }
        let r = s.run_to_completion()?;
        println!(
            "{:>4} {:>6} {:>6} {:>9} {:>9}",
            n,
            3,
            2,
            r.release_round,
            r.messages.len()
        );
    }
    let mut s = SbcSession::builder(5).seed(b"e5-live").build()?;
    s.submit(0, b"only one")?;
    let r = s.run_to_completion()?;
    println!(
        "partial participation (1/5 senders): released {} msg at round {} (liveness OK)",
        r.messages.len(),
        r.release_round
    );
    let mut hevia = HeviaStyleSbc::new(5);
    hevia.submit(PartyId(0), Value::U64(1));
    for _ in 0..50 {
        assert!(hevia.advance_round().is_none());
    }
    println!("[Hev06]-style baseline, same scenario: blocked for 50+ rounds (no liveness)");
    let naive = copycat_attack_on_commit_free(b"honest bid");
    let sbc1 = copycat_attack_on_sbc(b"e5-cc1", b"honest bid");
    let sbc2 = copycat_attack_on_sbc(b"e5-cc2", b"honest bid");
    println!(
        "copy-cat correlation attack: naive channel {naive}, SBC {}",
        sbc1 || sbc2
    );
    // Multi-epoch amortization: one session, four beacon-style periods.
    let mut s = SbcSession::builder(4).seed(b"e5-epochs").build()?;
    for _ in 0..4 {
        for i in 0..4u32 {
            s.submit(i, format!("epoch-{}/{i}", s.epoch()).as_bytes())?;
        }
        let r = s.run_epoch()?;
        println!(
            "epoch {}: {} msgs released at round {} (same world stack)",
            r.epoch,
            r.messages.len(),
            r.release_round
        );
    }
    let mut shape_eq = 0;
    let mut out_eq = 0;
    for trial in 0u8..10 {
        let seed = [b'e', b'5', trial];
        let script = |env: &mut EnvDriver<'_>| {
            env.input(
                PartyId(0),
                Command::new("Broadcast", Value::bytes(b"alpha")),
            );
            env.advance_all();
            env.input(PartyId(1), Command::new("Broadcast", Value::bytes(b"beta")));
            env.idle_rounds(8);
        };
        let params = SbcParams::default_for(3);
        let mut r = RealSbcWorld::new(params, &seed);
        let mut i = IdealSbcWorld::new(params, &seed);
        let tr = run_env(&mut r, script);
        let ti = run_env(&mut i, script);
        shape_eq += u32::from(tr.shape_digest() == ti.shape_digest());
        out_eq += u32::from(tr.output_digest() == ti.output_digest());
    }
    println!("real-vs-ideal: shape equality {shape_eq}/10, exact output equality {out_eq}/10");
    Ok(())
}

/// E6 — Theorem 3: DURS uniformity and bias-resistance.
fn e6_durs() -> Result<(), sbc_core::api::SbcError> {
    header("E6  DURS (Theorem 3): uniformity and bias-resistance");
    let mut counts = [0u64; 16];
    let mut total = 0u64;
    for i in 0..32u8 {
        let mut s = DursSession::new(3, &[b'e', b'6', i])?;
        for p in 0..3 {
            s.contribute(p)?;
        }
        for byte in s.finish()?.urs {
            counts[(byte >> 4) as usize] += 1;
            counts[(byte & 0xf) as usize] += 1;
            total += 2;
        }
    }
    let expected = total as f64 / 16.0;
    let chi2: f64 = counts
        .iter()
        .map(|&c| (c as f64 - expected).powi(2) / expected)
        .sum();
    println!("chi^2 over {total} nibbles: {chi2:.2} (df=15, p=0.001 critical 37.70)");
    let target = [0x42u8; URS_LEN];
    let honest = [[0x13u8; URS_LEN]];
    let biased = last_revealer_attack(&honest, &target);
    println!(
        "naive beacon last-revealer attack hits chosen target: {}",
        biased == target.to_vec()
    );
    let mut hits = 0;
    for i in 0..16u8 {
        let (_, hit) = last_revealer_attack_on_durs(&[b'a', i], &target)?;
        hits += u32::from(hit);
    }
    println!("DURS same attack over 16 runs: {hits}/16 hits (paper: bias impossible)");
    Ok(())
}

/// E7 — Theorem 4: self-tallying correctness + fairness.
fn e7_voting() -> Result<(), sbc_apps::voting::VotingError> {
    header("E7  Self-tallying voting (Theorem 4): correctness and fairness");
    println!(
        "{:>7} {:>11} {:>9} {:>12} {:>10}",
        "voters", "candidates", "correct", "accepted", "round"
    );
    for (nv, nc) in [(3usize, 2usize), (7, 2), (5, 3), (9, 2)] {
        let mut e = Election::new(SchnorrGroup::tiny(), nv, nc, b"e7")?;
        let mut expected = vec![0u64; nc];
        for v in 0..nv {
            let c = (v * 3 + 1) % nc;
            expected[c] += 1;
            e.vote(v, c)?;
        }
        let r = e.finish()?;
        println!(
            "{:>7} {:>11} {:>9} {:>12} {:>10}",
            nv,
            nc,
            r.counts == expected,
            r.ballots_accepted,
            r.tally_round
        );
    }
    let mut bb = BulletinBoardElection::new(SchnorrGroup::tiny(), 3, 2, b"e7-bb");
    bb.vote(0, 1);
    bb.vote(1, 1);
    let partial = bb.partial_tally().unwrap();
    println!("bulletin-board baseline mid-phase partial tally: {partial:?} (fairness broken)");
    println!("SBC election: ballots sealed until t_end + Delta (tally round above)");
    Ok(())
}

/// E8 — Corollary 1: the composed stack in the Φ>3, ∆>2 regime.
fn e8_composition() -> Result<(), sbc_core::api::SbcError> {
    header("E8  Composition (Corollary 1): Phi > 3, Delta > 2 end-to-end");
    println!(
        "{:>4} {:>4} {:>6} {:>9} {:>7}",
        "n", "Phi", "Delta", "released", "msgs"
    );
    for (phi, delta) in [(4u64, 3u64), (5, 3), (6, 4)] {
        let mut s = SbcSession::builder(4)
            .phi(phi)
            .delta(delta)
            .seed(b"e8")
            .build()?;
        for i in 0..4u32 {
            s.submit(i, format!("c{i}").as_bytes())?;
        }
        let r = s.run_to_completion()?;
        println!(
            "{:>4} {:>4} {:>6} {:>9} {:>7}",
            4,
            phi,
            delta,
            r.release_round,
            r.messages.len()
        );
    }
    println!("(release = t_end + Delta = Phi + Delta for a round-0 start; alpha = 3 is simulator-internal)");
    Ok(())
}

/// E9 — substrate microcosts, one-shot.
fn e9_crypto_costs() {
    header("E9  Crypto substrate costs (one-shot; `benchmark/run.sh` prices the hash floor)");
    let start = Instant::now();
    let d = Sha256::digest(&vec![0u8; 1 << 20]);
    println!(
        "SHA-256 over 1 MiB: {:.2?} ({:02x}{:02x}...)",
        start.elapsed(),
        d[0],
        d[1]
    );
    let mut rng = Drbg::from_seed(b"e9");
    let start = Instant::now();
    let mut sk = sbc_primitives::wots::SigningKey::generate(8, &mut rng);
    println!("WOTS keygen (256 sigs): {:.2?}", start.elapsed());
    let start = Instant::now();
    let sig = sk.sign(b"m").unwrap();
    println!(
        "WOTS sign: {:.2?} ({} B signature)",
        start.elapsed(),
        sig.size_bytes()
    );
    let grp = SchnorrGroup::default_256();
    let x = grp.random_scalar(&mut rng);
    let start = Instant::now();
    let _ = grp.exp(&grp.generator(), &x);
    println!("256-bit group exponentiation: {:.2?}", start.elapsed());
}
