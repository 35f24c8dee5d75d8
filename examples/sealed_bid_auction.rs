//! A sealed-bid auction house over simultaneous broadcast: **concurrent
//! lots**, one shared world.
//!
//! Every lot is one SBC instance of an [`SbcPool`]: bidders submit sealed
//! bids per lot during the shared broadcast period, nothing opens until
//! the period ends, and all lots settle together on one clock. No bidder —
//! not even a dishonest majority of them — can shade a bid based on the
//! others', on this lot or any other. Compare with the naive commit-free
//! channel where the last bidder wins every time.
//!
//! ```sh
//! cargo run --example sealed_bid_auction
//! ```

use sbc_core::api::SbcError;
use sbc_core::baseline::copycat_attack_on_commit_free;
use sbc_core::pool::SbcPool;

fn main() -> Result<(), SbcError> {
    // Three lots on the block at once, four bidders.
    let lots = ["amphora", "bronze-mirror", "codex"];
    let bids: [&[(u32, u64)]; 3] = [
        &[(0, 420), (1, 333), (2, 407)],
        &[(1, 150), (3, 180)],
        &[(0, 90), (2, 95), (3, 88)],
    ];

    let mut house = SbcPool::builder(4).phi(4).seed(b"auction-house").build()?;
    let ids: Vec<_> = lots
        .iter()
        .map(|_| house.open_instance())
        .collect::<Result<_, _>>()?;
    for (lot, lot_bids) in ids.iter().zip(bids) {
        for (bidder, amount) in lot_bids {
            let bid = format!("bidder-{bidder}:{amount:08}");
            house.submit(*lot, *bidder, bid.as_bytes())?;
        }
    }

    // One shared clock: every tick advances all three lots; they release
    // on the same round and nothing opens early on any of them.
    let mut settled = Vec::new();
    while settled.len() < ids.len() {
        settled.extend(house.step_round()?);
    }

    for ((lot, result), name) in settled.iter().zip(lots) {
        let winner = result
            .messages
            .iter()
            .map(|m| String::from_utf8_lossy(m).to_string())
            .max_by_key(|s| s.split(':').nth(1).unwrap().parse::<u64>().unwrap())
            .expect("bids present");
        println!(
            "{lot} ({name}): {} sealed bids opened at round {} — winner {winner}",
            result.messages.len(),
            result.release_round
        );
    }
    assert_eq!(settled.len(), 3);
    assert!(settled
        .iter()
        .all(|(_, r)| r.release_round == settled[0].1.release_round));

    // A late bid — after the shared period closed — is rejected as an
    // error value on every lot, not silently dropped.
    assert!(matches!(
        house.submit(ids[0], 1, b"bidder-1:99999999"),
        Err(SbcError::SubmitAfterClose { .. })
    ));

    // The baseline shows what SBC prevents: on a commit-free channel a
    // rushing adversary trivially correlates with honest bids.
    assert!(copycat_attack_on_commit_free(b"bid:420"));
    println!("naive channel: copy-cat attack succeeds (as expected)");
    Ok(())
}
