//! End-to-end application integration: DURS and self-tallying voting over
//! the full SBC stack (Theorems 3 and 4 at the system level), including the
//! multi-epoch beacon service on the v2 session API.

use sbc_apps::durs::{DursSession, URS_LEN};
use sbc_apps::voting::{self_tally, Ballot, Election, ElectionSetup};
use sbc_primitives::drbg::Drbg;
use sbc_primitives::group::SchnorrGroup;

#[test]
fn durs_outputs_have_full_entropy_contribution() {
    // Flipping any single party's seed changes the output (XOR combines
    // all contributions).
    let base = {
        let mut s = DursSession::new(3, b"entropy-base").unwrap();
        for p in 0..3 {
            s.contribute(p).unwrap();
        }
        s.finish().unwrap().urs
    };
    let with_chosen = {
        let mut s = DursSession::new(3, b"entropy-base").unwrap();
        s.contribute(0).unwrap();
        s.contribute(1).unwrap();
        s.contribute_chosen(2, &[0u8; URS_LEN]).unwrap();
        s.finish().unwrap().urs
    };
    assert_ne!(base, with_chosen);
}

#[test]
fn durs_uniformity_chi_square() {
    // χ² over byte nibbles pooled from independent runs.
    let mut counts = [0u64; 16];
    let mut total = 0u64;
    for i in 0..16u8 {
        let mut s = DursSession::new(2, &[b'x', i]).unwrap();
        s.contribute(0).unwrap();
        s.contribute(1).unwrap();
        for byte in s.finish().unwrap().urs {
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
    // 15 degrees of freedom; p=0.001 critical value ≈ 37.7.
    assert!(chi2 < 37.7, "χ² = {chi2} over {total} nibbles");
}

/// The acceptance scenario for the multi-epoch session API: one beacon
/// session runs three epochs with known shares; each epoch's output must
/// equal that of an independently-seeded single-shot session fed the same
/// shares. Epochs are perfectly isolated — nothing bleeds across periods.
#[test]
fn multi_epoch_beacon_matches_single_shot_sessions() {
    const EPOCHS: u64 = 3;
    let share = |epoch: u64, p: u8| -> [u8; URS_LEN] { [epoch as u8 * 16 + p + 1; URS_LEN] };

    let mut service = DursSession::new(3, b"beacon-service").unwrap();
    for epoch in 0..EPOCHS {
        for p in 0..3u8 {
            service
                .contribute_chosen(p as u32, &share(epoch, p))
                .unwrap();
        }
        let epoch_result = service.run_epoch().unwrap();

        // An independently-seeded single-shot session with the same shares.
        let mut single = DursSession::new(3, format!("single-shot-{epoch}").as_bytes()).unwrap();
        for p in 0..3u8 {
            single
                .contribute_chosen(p as u32, &share(epoch, p))
                .unwrap();
        }
        let single_result = single.finish().unwrap();

        assert_eq!(
            epoch_result.urs, single_result.urs,
            "epoch {epoch}: multi-epoch output diverges from single-shot"
        );
        assert_eq!(epoch_result.contributions, single_result.contributions);
        // Same world ⇒ later release rounds; fresh world ⇒ round Φ + ∆.
        assert!(epoch_result.release_round > single_result.release_round || epoch == 0);
    }
    assert_eq!(service.epoch(), EPOCHS);
}

#[test]
fn election_large_boardroom() {
    let n = 11;
    let mut e = Election::new(SchnorrGroup::tiny(), n, 2, b"large").unwrap();
    let mut expected = [0u64; 2];
    for v in 0..n {
        let c = (v * 7 + 1) % 2;
        expected[c] += 1;
        e.vote(v, c).unwrap();
    }
    let r = e.finish().unwrap();
    assert_eq!(r.counts, expected.to_vec());
    assert_eq!(r.ballots_accepted, n);
    assert_eq!(r.tally_round, 3 + 2, "tally only after t_end + ∆");
}

#[test]
fn election_three_candidates_production_group() {
    let mut e = Election::new(SchnorrGroup::default_256(), 4, 3, b"prod-grp").unwrap();
    e.vote(0, 2).unwrap();
    e.vote(1, 2).unwrap();
    e.vote(2, 0).unwrap();
    e.vote(3, 1).unwrap();
    let r = e.finish().unwrap();
    assert_eq!(r.counts, vec![1, 1, 2]);
}

#[test]
fn repeated_elections_share_one_world() {
    // Three motions on one electorate, one SBC stack — the repeated-
    // invocation workload the multi-epoch API exists for.
    let mut e = Election::new(SchnorrGroup::tiny(), 3, 2, b"motions").unwrap();
    let schedule: [[usize; 3]; 3] = [[1, 1, 0], [0, 0, 1], [1, 0, 0]];
    let mut last_round = 0;
    for (m, votes) in schedule.iter().enumerate() {
        let mut expected = [0u64; 2];
        for (v, &c) in votes.iter().enumerate() {
            expected[c] += 1;
            e.vote(v, c).unwrap();
        }
        let r = e.finish_epoch().unwrap();
        assert_eq!(r.counts, expected.to_vec(), "motion {m}");
        assert!(r.tally_round > last_round, "motions share one global clock");
        last_round = r.tally_round;
    }
}

#[test]
fn ballots_survive_the_wire() {
    // Ballot → Value → bytes → Value → Ballot, through the same encoding
    // the SBC channel applies.
    let mut rng = Drbg::from_seed(b"wire");
    let setup = ElectionSetup::generate(SchnorrGroup::tiny(), 3, 2, 2, &mut rng);
    let b = Ballot::cast(&setup, 2, 1, &mut rng);
    let bytes = b.to_value().encode();
    let parsed = Ballot::from_value(&sbc_uc::value::Value::decode(&bytes).unwrap()).unwrap();
    assert_eq!(parsed, b);
    assert!(parsed.verify(&setup));
    assert_eq!(self_tally(&setup, &[parsed]).unwrap(), vec![0, 1]);
}

#[test]
fn election_tally_matches_direct_tally() {
    // The SBC-channel election agrees with tallying the same ballots
    // locally (the channel neither loses nor fabricates ballots).
    let mut e = Election::new(SchnorrGroup::tiny(), 5, 2, b"match").unwrap();
    let votes = [1usize, 0, 1, 1, 0];
    for (v, &c) in votes.iter().enumerate() {
        e.vote(v, c).unwrap();
    }
    let via_sbc = e.finish().unwrap().counts;
    assert_eq!(via_sbc, vec![2, 3]);
}
