//! Quickstart: run a simultaneous broadcast among five parties with the
//! fallible session API.
//!
//! ```sh
//! cargo run --example quickstart
//! ```

use sbc_core::api::{SbcError, SbcSession};

fn main() -> Result<(), SbcError> {
    // Five parties, default parameters (Φ = 3 rounds, ∆ = 2 rounds).
    // Invalid parameters are rejected here with SbcError::InvalidParams
    // instead of panicking deep inside the stack.
    let mut session = SbcSession::builder(5).seed(b"quickstart").build()?;

    // Three of them broadcast — simultaneity means none of these messages
    // can depend on any other, and liveness means the two silent parties
    // do not block termination.
    session.submit(0, b"alice: commit 7a1f")?;
    session.submit(2, b"carol: commit 99d2")?;
    session.submit(4, b"erin:  commit 3c44")?;

    // Misuse is an error value, not a crash: party 9 does not exist.
    assert!(matches!(
        session.submit(9, b"mallory"),
        Err(SbcError::PartyOutOfRange { party: 9, n: 5 })
    ));

    let result = session.run_to_completion()?;
    println!("released at round {}:", result.release_round);
    for (i, m) in result.messages.iter().enumerate() {
        println!("  [{i}] {}", String::from_utf8_lossy(m));
    }
    assert_eq!(result.messages.len(), 3);
    Ok(())
}
