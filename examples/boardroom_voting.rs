//! Boardroom voting: a self-tallying election without a trusted tallier
//! or control voter (paper §6.2), with two successive motions decided on
//! the same registered electorate.
//!
//! ```sh
//! cargo run --example boardroom_voting
//! ```

use sbc_apps::voting::{BulletinBoardElection, Election, VotingError};
use sbc_primitives::group::SchnorrGroup;

fn main() -> Result<(), VotingError> {
    // Seven board members vote among three options.
    let mut election = Election::new(SchnorrGroup::default_256(), 7, 3, b"boardroom")?;
    let votes = [0usize, 2, 1, 1, 2, 1, 1];
    for (voter, &candidate) in votes.iter().enumerate() {
        election.vote(voter, candidate)?;
    }
    let result = election.finish_epoch()?;
    println!("motion 1 tally (round {}):", result.tally_round);
    for (c, n) in result.counts.iter().enumerate() {
        println!("  option {c}: {n} votes");
    }
    assert_eq!(result.counts, vec![1, 4, 2]);
    assert_eq!(result.ballots_accepted, 7);

    // A second motion on the same electorate: no re-keying, no new world.
    let votes = [1usize, 1, 0, 1, 0, 1, 1];
    for (voter, &candidate) in votes.iter().enumerate() {
        election.vote(voter, candidate)?;
    }
    let result = election.finish_epoch()?;
    println!("motion 2 tally (round {}):", result.tally_round);
    for (c, n) in result.counts.iter().enumerate() {
        println!("  option {c}: {n} votes");
    }
    assert_eq!(result.counts, vec![2, 5, 0]);

    // Fairness comparison: on a bulletin board, partial tallies leak
    // mid-phase (that's why [SP15] needed the trusted control voter).
    let mut bb = BulletinBoardElection::new(SchnorrGroup::tiny(), 3, 2, b"bb-demo");
    bb.vote(0, 1);
    bb.vote(1, 0);
    let partial = bb.partial_tally().expect("partial tally computable");
    println!("bulletin-board baseline: partial tally mid-phase = {partial:?} (fairness broken)");
    Ok(())
}
