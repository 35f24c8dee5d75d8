//! An unbiasable randomness beacon (DURS, paper §6.1), run as a
//! multi-epoch service: one SBC world, a fresh beacon value per epoch.
//!
//! Parties XOR their contributions through simultaneous broadcast. The
//! last-revealer attack that fully biases a naive beacon does nothing
//! here: contributions are time-locked until the period ends.
//!
//! ```sh
//! cargo run --example randomness_beacon
//! ```

use sbc_apps::durs::{
    last_revealer_attack, last_revealer_attack_on_durs, DursPool, DursSession, URS_LEN,
};
use sbc_core::api::SbcError;

fn main() -> Result<(), SbcError> {
    // A beacon service: three epochs over the same session — the world
    // stack (clock, oracle, functionalities) is built exactly once.
    let mut session = DursSession::new(4, b"beacon-demo")?;
    for _ in 0..3 {
        for p in 0..4 {
            session.contribute(p)?;
        }
        let result = session.run_epoch()?;
        println!(
            "epoch {} beacon output ({} contributions, round {}):",
            session.epoch() - 1,
            result.contributions,
            result.release_round
        );
        println!("  {}", sbc_primitives::hex::encode(&result.urs));
    }

    // A beacon *service* rarely runs one schedule: run two overlapping
    // streams (say block randomness and committee draws) over one shared
    // pool — stream B opens while stream A is mid-period, both on one
    // clock.
    let mut streams = DursPool::new(4, b"beacon-streams")?;
    let block = streams.open_stream()?;
    for p in 0..4 {
        streams.contribute(block, p)?;
    }
    streams.step_round()?;
    streams.step_round()?;
    let committee = streams.open_stream()?;
    for p in 0..4 {
        streams.contribute(committee, p)?;
    }
    let rb = streams.run_epoch(block)?;
    let rc = streams.run_epoch(committee)?;
    println!(
        "overlapping streams: block round {} / committee round {}:",
        rb.release_round, rc.release_round
    );
    println!("  block:     {}", sbc_primitives::hex::encode(&rb.urs));
    println!("  committee: {}", sbc_primitives::hex::encode(&rc.urs));
    assert!(rc.release_round > rb.release_round, "offset schedules");
    assert_ne!(rb.urs, rc.urs, "independent streams");

    // Attack comparison: the adversary wants the output to be all-0x42.
    let target = [0x42u8; URS_LEN];
    let biased = last_revealer_attack(&[[7u8; URS_LEN], [9u8; URS_LEN]], &target);
    println!(
        "naive beacon under last-revealer attack: {}",
        sbc_primitives::hex::encode(&biased)
    );
    assert_eq!(biased, target.to_vec(), "naive beacon is fully biased");

    let (out, hit) = last_revealer_attack_on_durs(b"beacon-attack", &target)?;
    println!(
        "DURS under the same attack:             {}",
        sbc_primitives::hex::encode(&out)
    );
    assert!(
        !hit,
        "DURS resists: the adversary's share cannot depend on the others"
    );
    Ok(())
}
