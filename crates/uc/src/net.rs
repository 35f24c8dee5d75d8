//! Synchronous authenticated point-to-point channels (paper §2.1).
//!
//! Messages sent in round `Cl` are delivered at the start of round `Cl+1`.
//! Channels are authenticated (the receiver learns the true sender) but the
//! adversary sees every message the moment it is sent (*rushing*) and
//! chooses the within-round delivery order. Honest-to-honest messages
//! cannot be dropped or modified — only reordered. [`SyncNet`] carries the
//! honest traffic; the adversary acts through the protocol running over
//! it (Dolev–Strong's `adversary_sign` / `adversary_send`).
//!
//! # Examples
//!
//! ```
//! use sbc_uc::net::SyncNet;
//! use sbc_uc::ids::PartyId;
//! use sbc_uc::value::Value;
//!
//! let mut net = SyncNet::new(3);
//! net.send(PartyId(0), PartyId(1), Value::bytes(b"hi"));
//! assert!(net.inbox(PartyId(1)).is_empty()); // not yet delivered
//! net.deliver_round();
//! assert_eq!(net.take_inbox(PartyId(1)).len(), 1);
//! ```

use crate::ids::PartyId;
use crate::value::Value;

/// An in-flight or delivered network message.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct NetMsg {
    /// The authenticated sender.
    pub from: PartyId,
    /// The recipient.
    pub to: PartyId,
    /// The payload.
    pub payload: Value,
}

/// The synchronous network.
#[derive(Clone, Debug)]
pub struct SyncNet {
    n: usize,
    staged: Vec<NetMsg>,
    inboxes: Vec<Vec<NetMsg>>,
    sent_total: u64,
    bytes_total: u64,
}

impl SyncNet {
    /// Creates a network for `n` parties.
    pub fn new(n: usize) -> Self {
        SyncNet {
            n,
            staged: Vec::new(),
            inboxes: vec![Vec::new(); n],
            sent_total: 0,
            bytes_total: 0,
        }
    }

    /// Sends `payload` from `from` to `to`; delivered next round.
    ///
    /// # Panics
    ///
    /// Panics if either party index is out of range.
    pub fn send(&mut self, from: PartyId, to: PartyId, payload: Value) {
        assert!(
            from.index() < self.n && to.index() < self.n,
            "party out of range"
        );
        self.sent_total += 1;
        self.bytes_total += payload.encoded_len() as u64;
        self.staged.push(NetMsg { from, to, payload });
    }

    /// Sends `payload` from `from` to every party (including itself).
    pub fn send_all(&mut self, from: PartyId, payload: Value) {
        for i in 0..self.n {
            self.send(from, PartyId(i as u32), payload.clone());
        }
    }

    /// End of round: moves staged messages into recipient inboxes.
    pub fn deliver_round(&mut self) {
        for msg in std::mem::take(&mut self.staged) {
            self.inboxes[msg.to.index()].push(msg);
        }
    }

    /// A party's undelivered inbox (peek).
    pub fn inbox(&self, party: PartyId) -> &[NetMsg] {
        &self.inboxes[party.index()]
    }

    /// Drains a party's inbox.
    pub fn take_inbox(&mut self, party: PartyId) -> Vec<NetMsg> {
        std::mem::take(&mut self.inboxes[party.index()])
    }

    /// Total messages sent (cost accounting).
    pub fn sent_total(&self) -> u64 {
        self.sent_total
    }

    /// Total payload bytes sent (cost accounting).
    pub fn bytes_total(&self) -> u64 {
        self.bytes_total
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn delivery_is_next_round() {
        let mut net = SyncNet::new(2);
        net.send(PartyId(0), PartyId(1), Value::U64(1));
        assert!(net.inbox(PartyId(1)).is_empty());
        net.deliver_round();
        let msgs = net.take_inbox(PartyId(1));
        assert_eq!(msgs.len(), 1);
        assert_eq!(msgs[0].from, PartyId(0));
        assert_eq!(msgs[0].payload, Value::U64(1));
    }

    #[test]
    fn send_all_reaches_everyone() {
        let mut net = SyncNet::new(3);
        net.send_all(PartyId(1), Value::str("x"));
        net.deliver_round();
        for i in 0..3 {
            assert_eq!(net.take_inbox(PartyId(i)).len(), 1, "party {i}");
        }
    }

    #[test]
    fn accounting() {
        let mut net = SyncNet::new(2);
        net.send_all(PartyId(0), Value::bytes(b"abc"));
        assert_eq!(net.sent_total(), 2);
        assert!(net.bytes_total() > 0);
    }

    #[test]
    #[should_panic(expected = "party out of range")]
    fn out_of_range_send_panics() {
        let mut net = SyncNet::new(2);
        net.send(PartyId(0), PartyId(5), Value::Unit);
    }
}
