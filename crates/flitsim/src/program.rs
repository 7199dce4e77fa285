//! The software under test.
//!
//! A [`Program`] is the distributed algorithm running on the simulated
//! nodes: the engine delivers completed messages to it and injects the sends
//! it returns.  Unicast-based multicast (paper \[3\]) maps onto this directly:
//! the payload carries the address sub-list a receiver becomes responsible
//! for, and `on_receive` emits the next round of sends.

use pcm::{MsgSize, Time};
use topo::NodeId;

/// A send request emitted by a program.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SendReq<P> {
    /// Destination node (must differ from the sender).
    pub dest: NodeId,
    /// Payload size in bytes (drives flit count and software overheads).
    pub bytes: MsgSize,
    /// Opaque program data carried with the message.
    pub payload: P,
    /// Earliest initiation time.  0 means "as soon as the CPU is free" (the
    /// normal case); temporal contention-avoidance schedulers
    /// (`optmc::temporal`, paper §6) set this to serialise conflicting
    /// senders proactively instead of letting worms block in the network.
    /// Sends are still issued in queue order, so a sender's `not_before`
    /// values must be non-decreasing.
    pub not_before: Time,
}

impl<P> SendReq<P> {
    /// A send with no earliest-start constraint.
    pub fn to(dest: NodeId, bytes: MsgSize, payload: P) -> Self {
        Self {
            dest,
            bytes,
            payload,
            not_before: 0,
        }
    }

    /// Constrain the earliest initiation time.
    pub fn not_before(mut self, t: Time) -> Self {
        self.not_before = t;
        self
    }
}

/// A distributed program driven by message deliveries.
pub trait Program {
    /// Program data carried inside messages.
    type Payload: Clone;

    /// Called when `node` has fully received a message (tail flit consumed
    /// and `t_recv` elapsed) at time `now`.  The returned sends are
    /// initiated back-to-back, `t_hold` apart, starting at `now`.
    fn on_receive(
        &mut self,
        node: NodeId,
        payload: &Self::Payload,
        now: Time,
    ) -> Vec<SendReq<Self::Payload>>;
}

/// A trivial program that never forwards — point-to-point traffic only.
/// Useful for calibration runs and engine tests.
#[derive(Debug, Default, Clone, Copy)]
pub struct SinkProgram;

impl Program for SinkProgram {
    type Payload = ();

    fn on_receive(&mut self, _node: NodeId, _payload: &(), _now: Time) -> Vec<SendReq<()>> {
        Vec::new()
    }
}

/// A relay program: forwards the message along a fixed ring of nodes a
/// given number of times.  Exercises receive-then-send chains in tests.
#[derive(Debug, Clone)]
pub struct RelayProgram {
    /// The ring of nodes (message hops `ring[i] → ring[i+1]`).
    pub ring: Vec<NodeId>,
    /// Message size for every hop.
    pub bytes: MsgSize,
}

impl Program for RelayProgram {
    /// Number of forwarding hops remaining.
    type Payload = u32;

    fn on_receive(&mut self, node: NodeId, remaining: &u32, _now: Time) -> Vec<SendReq<u32>> {
        if *remaining == 0 {
            return Vec::new();
        }
        let here = self
            .ring
            .iter()
            .position(|&n| n == node)
            .expect("relay delivered to a node outside the ring");
        let next = self.ring[(here + 1) % self.ring.len()];
        vec![SendReq::to(next, self.bytes, remaining - 1)]
    }
}
