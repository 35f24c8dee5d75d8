//! Property-style tests over the public APIs of the stack.
//!
//! The build container has no crates.io access, so instead of proptest
//! these are deterministic randomized sweeps: a seeded [`Drbg`] drives a
//! generator and each property is checked over a few hundred cases. Every
//! failure reproduces exactly from the fixed seeds.

use sbc_primitives::astrolabous::{ast_enc, ast_solve_and_dec, xor_mask};
use sbc_primitives::bigint::U256;
use sbc_primitives::drbg::Drbg;
use sbc_primitives::group::SchnorrGroup;
use sbc_primitives::hashchain::{chain_encode, chain_solve, payload_from_witness};
use sbc_primitives::sha256::Sha256;
use sbc_uc::value::Value;

/// Generates an arbitrary `Value` tree of bounded depth.
fn arb_value(rng: &mut Drbg, depth: usize) -> Value {
    let n_variants = if depth == 0 { 6 } else { 7 };
    match rng.gen_range(n_variants) {
        0 => Value::Unit,
        1 => Value::Bool(rng.gen_bool()),
        2 => Value::U64(rng.gen_u64()),
        3 => Value::I64(rng.gen_u64() as i64),
        4 => {
            let len = rng.gen_range(64) as usize;
            Value::Bytes(rng.gen_bytes(len))
        }
        5 => {
            let len = rng.gen_range(12) as usize;
            let s: String = (0..len)
                .map(|_| (b'a' + rng.gen_range(26) as u8) as char)
                .collect();
            Value::Str(s)
        }
        _ => {
            let len = rng.gen_range(6) as usize;
            Value::list((0..len).map(|_| arb_value(rng, depth - 1)))
        }
    }
}

#[test]
fn value_codec_round_trip() {
    let mut rng = Drbg::from_seed(b"prop-codec");
    for case in 0..300 {
        let v = arb_value(&mut rng, 3);
        assert_eq!(
            Value::decode(&v.encode()),
            Some(v.clone()),
            "case {case}: {v:?}"
        );
    }
}

#[test]
fn value_ordering_consistent_with_encoding_identity() {
    // Equal values have equal encodings; distinct values distinct ones.
    let mut rng = Drbg::from_seed(b"prop-order");
    for case in 0..300 {
        let a = arb_value(&mut rng, 3);
        let b = arb_value(&mut rng, 3);
        assert_eq!(
            a == b,
            a.encode() == b.encode(),
            "case {case}: {a:?} vs {b:?}"
        );
    }
}

#[test]
fn u256_add_sub_round_trip() {
    let mut rng = Drbg::from_seed(b"prop-u256");
    for case in 0..300 {
        let x = U256::from_be_bytes(&rng.gen_bytes(32).try_into().unwrap());
        let y = U256::from_be_bytes(&rng.gen_bytes(32).try_into().unwrap());
        let (sum, carry) = x.overflowing_add(&y);
        let (back, borrow) = sum.overflowing_sub(&y);
        assert_eq!(back, x, "case {case}");
        assert_eq!(carry, borrow, "case {case}");
    }
}

#[test]
fn u256_mulmod_commutative() {
    let mut rng = Drbg::from_seed(b"prop-mulmod");
    for case in 0..200 {
        let x = U256::from_be_bytes(&rng.gen_bytes(32).try_into().unwrap());
        let y = U256::from_be_bytes(&rng.gen_bytes(32).try_into().unwrap());
        let m = U256::from_u64(2 + rng.gen_u64() % (u64::MAX - 2));
        assert_eq!(x.mulmod(&y, &m), y.mulmod(&x, &m), "case {case}");
    }
}

#[test]
fn group_exponent_laws() {
    let grp = SchnorrGroup::tiny();
    let g = grp.generator();
    let mut rng = Drbg::from_seed(b"prop-group");
    for case in 0..100 {
        let e1 = 1 + rng.gen_range(999);
        let e2 = 1 + rng.gen_range(999);
        let a = grp.exp(&g, &grp.scalar_from_u64(e1));
        let b = grp.exp(&g, &grp.scalar_from_u64(e2));
        assert_eq!(
            grp.mul(&a, &b),
            grp.exp(&g, &grp.scalar_from_u64(e1 + e2)),
            "case {case}: e1={e1} e2={e2}"
        );
    }
}

#[test]
fn hashchain_round_trip() {
    let h = |x: &[u8]| Sha256::digest(x);
    let mut plan = Drbg::from_seed(b"prop-chain");
    for case in 0..40 {
        let len = 1 + plan.gen_range(23) as usize;
        let payload: [u8; 32] = plan.gen_bytes(32).try_into().unwrap();
        let mut rng = plan.fork(format!("chain/{case}").as_bytes());
        let rs: Vec<[u8; 32]> = (0..len)
            .map(|_| rng.gen_bytes(32).try_into().unwrap())
            .collect();
        let chain = chain_encode(&h, &rs, &payload);
        let (p, w) = chain_solve(&h, &chain).unwrap();
        assert_eq!(p, payload, "case {case}");
        assert_eq!(
            payload_from_witness(&chain, &w).unwrap(),
            payload,
            "case {case}"
        );
    }
}

#[test]
fn astrolabous_round_trip() {
    let h = |x: &[u8]| Sha256::digest(x);
    let mut plan = Drbg::from_seed(b"prop-ast");
    for case in 0..40 {
        let msg_len = plan.gen_range(128) as usize;
        let msg = plan.gen_bytes(msg_len);
        let tau = 1 + plan.gen_range(3);
        let q = 1 + plan.gen_range(4) as u32;
        let mut rng = plan.fork(format!("ast/{case}").as_bytes());
        let ct = ast_enc(&h, &msg, tau, q, &mut rng);
        assert_eq!(
            ast_solve_and_dec(&h, &ct).unwrap(),
            msg,
            "case {case}: tau={tau} q={q}"
        );
    }
}

#[test]
fn xor_mask_involution() {
    let mut rng = Drbg::from_seed(b"prop-xor");
    for case in 0..200 {
        let data_len = rng.gen_range(200) as usize;
        let data = rng.gen_bytes(data_len);
        let seed: [u8; 32] = rng.gen_bytes(32).try_into().unwrap();
        assert_eq!(
            xor_mask(&seed, &xor_mask(&seed, &data)),
            data,
            "case {case}"
        );
    }
}

#[test]
fn drbg_fork_independence() {
    let mut plan = Drbg::from_seed(b"prop-fork-labels");
    for case in 0..100 {
        let la: Vec<u8> = (0..1 + plan.gen_range(8))
            .map(|_| b'a' + plan.gen_range(26) as u8)
            .collect();
        let lb: Vec<u8> = (0..1 + plan.gen_range(8))
            .map(|_| b'a' + plan.gen_range(26) as u8)
            .collect();
        if la == lb {
            continue;
        }
        let mut root = Drbg::from_seed(b"prop");
        let mut a = root.fork(&la);
        let mut b = root.fork(&lb);
        assert_ne!(a.gen_bytes(16), b.gen_bytes(16), "case {case}");
    }
}

/// Dolev–Strong agreement holds under random Byzantine strategies.
#[test]
fn dolev_strong_agreement_random_byzantine() {
    use sbc_broadcast::rbc::dolev_strong::{ChainLink, DolevStrong};
    use sbc_uc::cert::IdealCert;
    use sbc_uc::ids::PartyId;

    for trial in 0u8..12 {
        let mut plan = Drbg::from_seed(&[b'd', b's', trial]);
        let n = 4usize;
        let t = 2usize;
        let mut rng = Drbg::from_seed(b"ds-prop");
        let certs: Vec<IdealCert> = (0..n as u32)
            .map(|i| IdealCert::new(PartyId(i), rng.fork(&i.to_be_bytes())))
            .collect();
        let mut ds = DolevStrong::new(b"prop".to_vec(), t, PartyId(0), certs);
        ds.corrupt(PartyId(0));
        ds.corrupt(PartyId(1));
        // Random adversarial schedule: signed sends of random values to
        // random recipients in random rounds.
        for _round in 0..=t as u64 {
            for _ in 0..plan.gen_range(3) {
                let m = Value::U64(plan.gen_range(3));
                let from = PartyId(plan.gen_range(2) as u32);
                let to = PartyId(2 + plan.gen_range(2) as u32);
                let mut chain = vec![];
                if let Some(sig) = ds.adversary_sign(PartyId(0), m.clone()) {
                    chain.push(ChainLink {
                        signer: PartyId(0),
                        signature: sig,
                    });
                }
                if plan.gen_bool() {
                    if let Some(sig) = ds.adversary_sign(PartyId(1), m.clone()) {
                        chain.push(ChainLink {
                            signer: PartyId(1),
                            signature: sig,
                        });
                    }
                }
                ds.adversary_send(from, to, m, chain);
            }
            ds.step_round();
        }
        let outs = ds.outputs();
        assert_eq!(&outs[2], &outs[3], "trial {trial}: honest agreement");
    }
}
