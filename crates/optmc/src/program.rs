//! The distributed runtime of Algorithms 3.1 / 4.1.
//!
//! Every message carries the chain sub-range `[lo, hi]` its receiver becomes
//! responsible for (the paper's "address field D").  On receipt, a node runs
//! the same while-loop the source ran: split the range with `j(i)`, send to
//! the far part's nearest node, keep the part containing itself — until the
//! range collapses to the node alone.

use flitsim::{Program, SendReq};
use mtree::SplitStrategy;
use pcm::{MsgSize, Time};
use topo::{Chain, NodeId};

/// Payload: the chain positions the receiver is responsible for (inclusive).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Range {
    /// Lowest chain position of the delegated segment.
    pub lo: u32,
    /// Highest chain position (inclusive).
    pub hi: u32,
}

/// The multicast program: the chain, the split rule and the message size —
/// everything a node needs to interpret a received address range.
pub struct McastProgram {
    chain: Chain,
    splits: SplitStrategy,
    bytes: MsgSize,
    /// position of each node in the chain, dense by NodeId.
    pos_of: Vec<Option<u32>>,
    /// Number of deliveries seen (for sanity checks).
    deliveries: usize,
    /// Optional temporal-ordering constraints (paper §6): earliest
    /// initiation time of the send delivering to each chain position.
    not_before: Option<Vec<Time>>,
    /// Bytes per carried destination address (the "address field D" of
    /// Alg. 3.1); 0 folds the list into the header flit.
    addr_bytes: MsgSize,
}

impl McastProgram {
    /// Build the program.  `n_nodes` is the topology's node count (for the
    /// reverse position index).
    pub fn new(chain: Chain, splits: SplitStrategy, bytes: MsgSize, n_nodes: usize) -> Self {
        let mut pos_of = vec![None; n_nodes];
        for (pos, &n) in chain.nodes().iter().enumerate() {
            pos_of[n.idx()] = Some(pos as u32);
        }
        Self {
            chain,
            splits,
            bytes,
            pos_of,
            deliveries: 0,
            not_before: None,
            addr_bytes: 0,
        }
    }

    /// Account `addr_bytes` of message payload per destination address a
    /// send carries beyond the receiver itself — the paper's address field
    /// `D` made explicit.  A send delegating a `d`-node range then moves
    /// `bytes + addr_bytes·(d-1)` bytes.
    pub fn with_addr_overhead(mut self, addr_bytes: MsgSize) -> Self {
        self.addr_bytes = addr_bytes;
        self
    }

    /// Attach per-receiver earliest-start times from a
    /// [`crate::temporal::TemporalSchedule`]: the send that delivers to
    /// chain position `p` will not initiate before `times[p]`.
    ///
    /// # Panics
    /// If `times` does not have one entry per chain position.
    pub fn with_timing(mut self, times: Vec<Time>) -> Self {
        assert_eq!(
            times.len(),
            self.chain.len(),
            "one earliest-start per chain position"
        );
        self.not_before = Some(times);
        self
    }

    /// The sends node at chain position `s` performs for the range
    /// `[l, r]` — the body of Algorithm 3.1 / 4.1.
    pub fn sends_for(&self, s: usize, mut l: usize, mut r: usize) -> Vec<SendReq<Range>> {
        debug_assert!(l <= s && s <= r, "node {s} outside its range [{l}, {r}]");
        let mut out = Vec::new();
        while l < r {
            let i = r - l + 1;
            let j = self.splits.j(i);
            let (rec, d_lo, d_hi);
            if s < l + j {
                rec = l + j;
                d_lo = rec;
                d_hi = r;
                r = rec - 1;
            } else {
                rec = r - j;
                d_lo = l;
                d_hi = rec;
                l = rec + 1;
            }
            let extra_addrs = (d_hi - d_lo) as MsgSize; // receiver's own address rides the header
            let mut req = SendReq::to(
                self.chain.node(rec),
                self.bytes + self.addr_bytes * extra_addrs,
                Range {
                    lo: d_lo as u32,
                    hi: d_hi as u32,
                },
            );
            if let Some(times) = &self.not_before {
                req = req.not_before(times[rec]);
            }
            out.push(req);
        }
        out
    }

    /// Initial sends of the multicast root.
    pub fn root_sends(&self) -> Vec<SendReq<Range>> {
        if self.chain.len() <= 1 {
            return Vec::new();
        }
        self.sends_for(self.chain.src_pos(), 0, self.chain.len() - 1)
    }

    /// The root node.
    pub fn root(&self) -> NodeId {
        self.chain.node(self.chain.src_pos())
    }

    /// Number of messages delivered so far.
    pub fn deliveries(&self) -> usize {
        self.deliveries
    }

    /// Number of destinations (chain length minus the source).
    pub fn n_dests(&self) -> usize {
        self.chain.len() - 1
    }
}

impl Program for McastProgram {
    type Payload = Range;

    fn on_receive(&mut self, node: NodeId, range: &Range, _now: Time) -> Vec<SendReq<Range>> {
        self.deliveries += 1;
        let pos = self.pos_of[node.idx()].expect("delivery to a non-participant") as usize;
        self.sends_for(pos, range.lo as usize, range.hi as usize)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use topo::Mesh;

    #[test]
    fn root_sends_match_mtree_schedule() {
        // The runtime must generate exactly the sends mtree::Schedule plans.
        let mesh = Mesh::new(&[6, 6]);
        let parts: Vec<NodeId> = [0u32, 3, 7, 11, 17, 22, 28, 33].map(NodeId).to_vec();
        let chain = Chain::sorted(&mesh, &parts, NodeId(7));
        let splits = SplitStrategy::opt(20, 55, 8);
        let sched = mtree::Schedule::build(8, chain.src_pos(), &splits, 20, 55);
        let prog = McastProgram::new(chain.clone(), splits, 64, 36);

        // Collect the full send set by walking the recursion through the
        // program (delivering ranges by hand).
        let mut pairs = Vec::new();
        let mut work = vec![(chain.src_pos(), 0usize, 7usize)];
        while let Some((s, l, r)) = work.pop() {
            for req in prog.sends_for(s, l, r) {
                let rec = chain.nodes().iter().position(|&n| n == req.dest).unwrap();
                pairs.push((s, rec));
                work.push((rec, req.payload.lo as usize, req.payload.hi as usize));
            }
        }
        let mut expect: Vec<(usize, usize)> = sched.sends.iter().map(|e| (e.from, e.to)).collect();
        pairs.sort_unstable();
        expect.sort_unstable();
        assert_eq!(pairs, expect);
    }

    #[test]
    fn singleton_multicast_sends_nothing() {
        let chain = Chain::unsorted(&[NodeId(5)], NodeId(5));
        let prog = McastProgram::new(chain, SplitStrategy::Binomial, 64, 16);
        assert!(prog.root_sends().is_empty());
        assert_eq!(prog.n_dests(), 0);
    }

    #[test]
    fn every_participant_gets_one_range() {
        let parts: Vec<NodeId> = (0..13u32).map(NodeId).collect();
        let chain = Chain::unsorted(&parts, NodeId(4));
        let prog = McastProgram::new(chain, SplitStrategy::Binomial, 8, 16);
        let mut seen = [false; 13];
        seen[4] = true;
        let mut work: Vec<SendReq<Range>> = prog.root_sends();
        while let Some(req) = work.pop() {
            let d = req.dest.idx();
            assert!(!seen[d], "node {d} delivered twice");
            seen[d] = true;
            let pos = d; // placement chain: position == node id here
            work.extend(prog.sends_for(pos, req.payload.lo as usize, req.payload.hi as usize));
        }
        assert!(seen.iter().all(|&s| s));
    }
}
