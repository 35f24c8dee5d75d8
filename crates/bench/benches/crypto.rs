//! E9: microbenchmarks of the from-scratch crypto substrate.

use sbc_bench::harness;
use sbc_primitives::drbg::Drbg;
use sbc_primitives::group::SchnorrGroup;
use sbc_primitives::hmac::{hmac_sha256, HmacKey};
use sbc_primitives::sha256::Sha256;
use sbc_primitives::sigma::{schnorr_prove, schnorr_verify};
use sbc_primitives::wots::SigningKey;
use sbc_uc::ro::{Caller, RandomOracle};

fn main() {
    let g = harness::group("sha256");
    for size in [64usize, 1024, 16384] {
        let data = vec![0xabu8; size];
        g.bench(&format!("{size}B"), || Sha256::digest(&data));
    }

    // The hash floor under `Drbg` and `F_RO`: a 48-byte message is one
    // mask block's input (counter ‖ length ‖ 32-byte ρ).
    let g = harness::group("hmac");
    let (key, msg) = ([0x0bu8; 32], [0xcdu8; 48]);
    g.bench("48B_fresh_key", || hmac_sha256(&key, &msg));
    let prepared = HmacKey::new(&key);
    g.bench("48B_reused_key", || prepared.tag(&[&msg]));

    let g = harness::group("drbg");
    let mut rng = Drbg::from_seed(b"bench");
    for size in [32usize, 4096] {
        g.bench(&format!("gen_bytes_{size}B"), || rng.gen_bytes(size));
    }

    // A fresh point per iteration: a memo hit is a table clone, not a mask.
    let g = harness::group("ro_mask");
    let mut ro = RandomOracle::new(Drbg::from_seed(b"bench"));
    let mut point = 0u64;
    for size in [32usize, 4096] {
        g.bench(&format!("query_bytes_{size}B_fresh"), || {
            point += 1;
            ro.query_bytes(Caller::Simulator, &point.to_be_bytes(), size)
        });
    }

    let g = harness::group("wots");
    g.bench("keygen_h4", || {
        SigningKey::generate(4, &mut Drbg::from_seed(b"bench"))
    });
    let sk = SigningKey::generate(8, &mut Drbg::from_seed(b"bench"));
    let vk = sk.verification_key();
    // WOTS keys are stateful with finite capacity: clone a fresh key per
    // measured iteration.
    g.bench("sign", || {
        let mut k = sk.clone();
        k.sign(b"message").unwrap()
    });
    let mut signer = sk.clone();
    let sig = signer.sign(b"message").unwrap();
    g.bench("verify", || vk.verify(b"message", &sig));

    let g = harness::group("group");
    let grp = SchnorrGroup::default_256();
    let mut rng = Drbg::from_seed(b"grp");
    let x = grp.random_scalar(&mut rng);
    g.bench("exp_256bit", || grp.exp(&grp.generator(), &x));
    g.bench("schnorr_prove", || {
        schnorr_prove(&grp, &grp.generator(), &x, b"bench", &mut rng)
    });
    let h = grp.exp(&grp.generator(), &x);
    let proof = schnorr_prove(&grp, &grp.generator(), &x, b"bench", &mut rng);
    g.bench("schnorr_verify", || {
        schnorr_verify(&grp, &grp.generator(), &h, b"bench", &proof)
    });
}
