//! Bidirectional multistage interconnection network (BMIN) with turnaround
//! routing — the topology of the paper's §4/§5 experiments (128 nodes built
//! from 2×2 bidirectional switches, as in the IBM SP series).
//!
//! # Construction
//!
//! For `N = 2^s` nodes there are `s` stages of `N/2` switches.  Writing a
//! stage-`ℓ` switch index as `r = a·2^ℓ + b` (`a` the top `s-1-ℓ` bits, `b`
//! the low `ℓ` bits), switch `(ℓ, r)` is an ancestor of exactly the nodes
//! whose address agrees with `a` in the top bits — the aligned block
//! `[a·2^{ℓ+1}, (a+1)·2^{ℓ+1})`.  Its two up-ports lead to the stage-`ℓ+1`
//! switches `( (a>>1)·2^{ℓ+1} + u·2^ℓ + b )` for `u ∈ {0,1}`; its two
//! down-ports select bit `ℓ` of the destination.  This is the classic
//! butterfly fat-tree: full bisection, `2^h` distinct up-paths to height `h`.
//!
//! # Turnaround routing
//!
//! A message from `x` to `y` climbs until `y` enters the current switch's
//! block — i.e. to stage `h`, the index of the highest differing address
//! bit — then descends deterministically, choosing down-port `δ_ℓ(y)` at
//! each stage `ℓ`.  The up-phase may use *either* up-port at every step:
//! these are the "more communication paths between any pair of nodes" that
//! §5 credits for the BMIN's milder contention.  [`UpPolicy`] fixes the
//! preferred port; the simulator may fall back to the alternative when the
//! preferred channel is busy (adaptive up-phase).

use crate::graph::{ChannelId, Hop, Links, NetworkGraph, NodeId, RouterId};
use crate::topology::Topology;

/// Which up-port a climbing worm prefers (the first-listed routing
/// candidate; the other port is always offered as the fallback).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum UpPolicy {
    /// `u = δ_{ℓ+1}(src)`: the worm climbs "straight up", staying in switch
    /// column `src >> 1` at every stage.  Distinct non-sibling sources never
    /// share an up-channel.
    #[default]
    Straight,
    /// `u = δ_{ℓ+1}(dest)`: climb toward the destination's column, so the
    /// turn lands in column `dest >> 1` and the whole down-phase is a
    /// function of the destination alone.
    DestColumn,
}

/// A bidirectional MIN on `2^s` nodes built from 2×2 switches.
#[derive(Debug, Clone)]
pub struct Bmin {
    links: BminLinks,
    graph: NetworkGraph,
    policy: UpPolicy,
}

/// The BMIN's link numbering.  Stage-`ℓ` switch `p` (for `ℓ ∈ 1..s`) owns
/// four links to its two children, by down-port `c`: up into it, then down
/// out of it.  So the link pair between `p` and its child through `c` is
/// `base + ((ℓ − 1) · W + p) · 4 + 2c`, plus 0 up or 1 down, with `W`
/// switches per stage and router `(ℓ, r)` numbered `ℓ · W + r`.
#[derive(Debug, Clone, Copy)]
pub(crate) struct BminLinks {
    /// Stages (address bits).
    s: u32,
    /// The first link id, after the `2n` port channels.
    base: usize,
}

impl BminLinks {
    /// Switches per stage.
    fn width(self) -> usize {
        1 << (self.s - 1)
    }

    fn router(self, l: usize, r: usize) -> RouterId {
        RouterId(((l << (self.s - 1)) + r) as u32)
    }

    /// The link pair between stage-`l` switch `p` and its child through
    /// down-port `c`: the up link's id (the down link's is one more).
    fn pair(self, l: usize, p: usize, c: usize) -> usize {
        self.base + (((l - 1) << (self.s - 1)) + p) * 4 + 2 * c
    }

    /// The up hop from stage-`l` switch `r` through up-port `u`.
    fn up(self, l: usize, r: usize, u: usize) -> Hop {
        // The parent keeps r's bits above ℓ and below ℓ, with u at bit ℓ;
        // r's own bit ℓ is the parent's down-port back to it.
        let parent = (r & !(1 << l)) | (u << l);
        Hop {
            channel: ChannelId(self.pair(l + 1, parent, (r >> l) & 1) as u32),
            next: Some(self.router(l + 1, parent)),
        }
    }

    /// The down hop from stage-`l` switch `p` (`l ≥ 1`) through port `c`.
    fn down(self, l: usize, p: usize, c: usize) -> Hop {
        Hop {
            channel: ChannelId((self.pair(l, p, c) + 1) as u32),
            next: Some(self.router(l - 1, child_index(l, p, c))),
        }
    }

    pub(crate) fn count(self) -> usize {
        (self.s as usize - 1) * self.width() * 4
    }

    pub(crate) fn ends(self, off: usize) -> (RouterId, RouterId) {
        let (down, c, q) = (off & 1, (off >> 1) & 1, off >> 2);
        let (l, p) = ((q >> (self.s - 1)) + 1, q & (self.width() - 1));
        let parent = self.router(l, p);
        let child = self.router(l - 1, child_index(l, p, c));
        if down == 0 {
            (child, parent)
        } else {
            (parent, child)
        }
    }
}

impl Bmin {
    /// Build a BMIN with `2^s` nodes (`s ≥ 1`); the paper's network is
    /// `Bmin::new(7, UpPolicy::Straight)` — 128 nodes, 7 stages of 64
    /// switches.
    ///
    /// # Panics
    /// If `s == 0` or `s > 20` (over a million nodes is surely a typo).
    pub fn new(s: u32, policy: UpPolicy) -> Self {
        assert!(
            (1..=20).contains(&s),
            "s={s} out of the sensible range 1..=20"
        );
        let n = 1usize << s;
        let links = BminLinks { s, base: 2 * n };
        Self {
            graph: NetworkGraph::new(n, s as usize * n / 2, 1, Links::Bmin(links)),
            links,
            policy,
        }
    }

    /// Number of address bits / stages.
    pub fn stages(&self) -> u32 {
        self.links.s
    }

    /// The up-port preference policy.
    pub fn policy(&self) -> UpPolicy {
        self.policy
    }

    /// Decompose a router id into (stage, switch index).
    pub fn stage_of(&self, r: RouterId) -> (usize, usize) {
        // A stage holds 2^(s-1) switches.
        let half = self.links.s - 1;
        (r.idx() >> half, r.idx() & ((1 << half) - 1))
    }

    /// The aligned node block covered by a switch.
    pub fn block_of(&self, r: RouterId) -> std::ops::Range<usize> {
        let (l, idx) = self.stage_of(r);
        let a = idx >> l;
        (a << (l + 1))..((a + 1) << (l + 1))
    }

    /// Turn stage for a (src, dst) pair: index of the highest differing
    /// address bit.
    pub fn turn_stage(&self, x: NodeId, y: NodeId) -> u32 {
        assert_ne!(x, y);
        31 - (x.0 ^ y.0).leading_zeros()
    }
}

/// Child of stage-`l` switch `p` through down-port `c` (at stage `l-1`).
fn child_index(l: usize, p: usize, c: usize) -> usize {
    let a = p >> l;
    let b = p & ((1 << l) - 1);
    (((a << 1) | c) << (l - 1)) | (b & ((1 << (l - 1)) - 1))
}

impl Topology for Bmin {
    fn graph(&self) -> &NetworkGraph {
        &self.graph
    }

    fn route_candidates(&self, r: RouterId, src: NodeId, dest: NodeId, out: &mut Vec<Hop>) {
        let (l, idx) = self.stage_of(r);
        // `dest` is in the switch's block iff it agrees with the switch in
        // the address bits above ℓ (see [`Bmin::block_of`]).
        if dest.idx() >> (l + 1) == idx >> l {
            // Down phase (deterministic): port = δ_l(dest); at stage 0 that
            // is the consumption channel.
            if l == 0 {
                out.extend(self.graph.consumption_hops(dest));
            } else {
                out.push(self.links.down(l, idx, (dest.idx() >> l) & 1));
            }
        } else {
            // Up phase: preferred port per policy, other port as fallback.
            let pref = match self.policy {
                UpPolicy::Straight => (src.idx() >> (l + 1)) & 1,
                UpPolicy::DestColumn => (dest.idx() >> (l + 1)) & 1,
            };
            out.push(self.links.up(l, idx, pref));
            out.push(self.links.up(l, idx, 1 - pref));
        }
    }

    fn distance(&self, src: NodeId, dst: NodeId) -> usize {
        // Climb to the turn stage, then descend as far.
        if src == dst {
            0
        } else {
            2 * self.turn_stage(src, dst) as usize
        }
    }

    fn chain_key(&self, n: NodeId) -> u64 {
        // Lexicographic order on the binary address (§4) = numeric order.
        n.0 as u64
    }

    fn name(&self) -> String {
        format!("bmin-{}x2x2", self.graph.n_nodes())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_network_shape() {
        let b = Bmin::new(7, UpPolicy::Straight);
        assert_eq!(b.graph().n_nodes(), 128);
        assert_eq!(b.graph().n_routers(), 7 * 64);
        // Channels: 2 ports/node + 2 directions * 2 links per switch pair:
        // between consecutive stages there are W*2 = 128 links, each
        // bidirectional => 256 channels per stage boundary, 6 boundaries.
        assert_eq!(b.graph().n_channels(), 2 * 128 + 6 * 256);
    }

    #[test]
    fn sibling_route_is_local() {
        let b = Bmin::new(4, UpPolicy::Straight);
        let p = b.det_path(NodeId(6), NodeId(7));
        // injection -> stage0 switch -> consumption.
        assert_eq!(p.len(), 2);
    }

    #[test]
    fn path_lengths_match_turn_stage() {
        let b = Bmin::new(5, UpPolicy::Straight);
        for x in 0..32u32 {
            for y in 0..32u32 {
                if x == y {
                    continue;
                }
                let h = b.turn_stage(NodeId(x), NodeId(y)) as usize;
                let p = b.det_path(NodeId(x), NodeId(y));
                // injection + h ups + h downs + consumption.
                assert_eq!(p.len(), 2 * h + 2, "{x}->{y}");
            }
        }
    }

    #[test]
    fn straight_policy_keeps_source_column() {
        let b = Bmin::new(5, UpPolicy::Straight);
        let g = b.graph();
        for x in 0..32u32 {
            let y = NodeId(x ^ 16); // force a full climb
            for ch in b.det_path(NodeId(x), y) {
                if let Some(r) = g.dst_router(ch) {
                    let (l, idx) = b.stage_of(r);
                    // While climbing (before the turn) the column is x >> 1.
                    if !b.block_of(r).contains(&y.idx()) {
                        assert_eq!(idx, (x as usize) >> 1, "stage {l}");
                    }
                }
            }
        }
    }

    #[test]
    fn dest_column_policy_descends_in_dest_column() {
        let b = Bmin::new(5, UpPolicy::DestColumn);
        let g = b.graph();
        for x in [0u32, 5, 17, 31] {
            let y = NodeId(x ^ 16);
            let path = b.det_path(NodeId(x), y);
            // After the turn every router is in column y >> 1.
            let mut turned = false;
            for ch in path {
                if let Some(r) = g.dst_router(ch) {
                    if b.block_of(r).contains(&y.idx()) {
                        turned = true;
                    }
                    if turned {
                        let (_, idx) = b.stage_of(r);
                        assert_eq!(idx, y.idx() >> 1);
                    }
                }
            }
        }
    }

    #[test]
    fn every_pair_routes_correctly() {
        for policy in [UpPolicy::Straight, UpPolicy::DestColumn] {
            let b = Bmin::new(4, policy);
            let g = b.graph();
            for x in 0..16u32 {
                for y in 0..16u32 {
                    if x == y {
                        continue;
                    }
                    let p = b.det_path(NodeId(x), NodeId(y));
                    assert_eq!(g.dst_node(*p.last().unwrap()), Some(NodeId(y)));
                    // No channel repeats (wormhole paths must be simple).
                    for (i, c) in p.iter().enumerate() {
                        assert!(!p[..i].contains(c), "cycle in path {x}->{y}");
                    }
                }
            }
        }
    }

    #[test]
    fn block_nesting() {
        let b = Bmin::new(4, UpPolicy::Straight);
        // Stage-0 switch 3 covers nodes 6..8; its parents cover supersets.
        let r = RouterId(3);
        assert_eq!(b.block_of(r), 6..8);
        let mut cand = Vec::new();
        b.route_candidates(r, NodeId(6), NodeId(0), &mut cand);
        assert_eq!(cand.len(), 2, "two up candidates while climbing");
        for hop in cand {
            let parent = hop.next.unwrap();
            assert_eq!(b.graph().dst_router(hop.channel), Some(parent));
            let blk = b.block_of(parent);
            assert!(blk.contains(&6) && blk.contains(&7), "parent block {blk:?}");
        }
    }

    #[test]
    fn turn_stage_is_highest_differing_bit() {
        let b = Bmin::new(6, UpPolicy::Straight);
        assert_eq!(b.turn_stage(NodeId(0), NodeId(1)), 0);
        assert_eq!(b.turn_stage(NodeId(0), NodeId(32)), 5);
        assert_eq!(b.turn_stage(NodeId(5), NodeId(7)), 1);
    }
}
