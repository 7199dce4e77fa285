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

use crate::graph::{ChannelId, NetworkGraph, NodeId, RouterId};
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
    s: u32,
    graph: NetworkGraph,
    /// `up[(ℓ * W + r) * 2 + u]` — up channel from stage-`ℓ` switch `r`,
    /// port `u` (only for `ℓ < s-1`).
    up: Vec<ChannelId>,
    /// `down[(ℓ * W + r) * 2 + c]` — down channel from stage-`ℓ` switch `r`,
    /// port `c` (only for `ℓ >= 1`).
    down: Vec<ChannelId>,
    policy: UpPolicy,
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
        let w = n / 2; // switches per stage
        let stages = s as usize;
        let mut b = NetworkGraph::builder(n, stages * w);
        let router = |l: usize, r: usize| RouterId((l * w + r) as u32);
        for node in 0..n {
            b.injection(NodeId(node as u32), router(0, node >> 1));
            b.consumption(NodeId(node as u32), router(0, node >> 1));
        }
        let invalid = ChannelId(u32::MAX);
        let mut up = vec![invalid; stages * w * 2];
        let mut down = vec![invalid; stages * w * 2];
        for l in 1..stages {
            for p in 0..w {
                for c in 0..2usize {
                    let child = child_index(l, p, c);
                    let u = (p >> (l - 1)) & 1;
                    up[((l - 1) * w + child) * 2 + u] = b.link(router(l - 1, child), router(l, p));
                    down[(l * w + p) * 2 + c] = b.link(router(l, p), router(l - 1, child));
                }
            }
        }
        Self {
            s,
            graph: b.build(),
            up,
            down,
            policy,
        }
    }

    /// Number of address bits / stages.
    pub fn stages(&self) -> u32 {
        self.s
    }

    /// The up-port preference policy.
    pub fn policy(&self) -> UpPolicy {
        self.policy
    }

    /// Switches per stage.
    fn width(&self) -> usize {
        self.graph.n_nodes() / 2
    }

    /// Decompose a router id into (stage, switch index).
    pub fn stage_of(&self, r: RouterId) -> (usize, usize) {
        // A stage holds 2^(s-1) switches.
        let half = self.s - 1;
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

    fn up_channel(&self, l: usize, r: usize, u: usize) -> ChannelId {
        let c = self.up[(l * self.width() + r) * 2 + u];
        debug_assert_ne!(
            c.0,
            u32::MAX,
            "no up channel at stage {l} switch {r} port {u}"
        );
        c
    }

    fn down_channel(&self, l: usize, r: usize, c: usize) -> ChannelId {
        let ch = self.down[(l * self.width() + r) * 2 + c];
        debug_assert_ne!(
            ch.0,
            u32::MAX,
            "no down channel at stage {l} switch {r} port {c}"
        );
        ch
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

    fn route_candidates(&self, r: RouterId, src: NodeId, dest: NodeId, out: &mut Vec<ChannelId>) {
        let (l, idx) = self.stage_of(r);
        // `dest` is in the switch's block iff it agrees with the switch in
        // the address bits above ℓ (see [`Bmin::block_of`]).
        if dest.idx() >> (l + 1) == idx >> l {
            // Down phase (deterministic): port = δ_l(dest); at stage 0 that
            // is the consumption channel.
            if l == 0 {
                out.extend_from_slice(self.graph.consumptions(dest));
            } else {
                out.push(self.down_channel(l, idx, (dest.idx() >> l) & 1));
            }
        } else {
            // Up phase: preferred port per policy, other port as fallback.
            let pref = match self.policy {
                UpPolicy::Straight => (src.idx() >> (l + 1)) & 1,
                UpPolicy::DestColumn => (dest.idx() >> (l + 1)) & 1,
            };
            out.push(self.up_channel(l, idx, pref));
            out.push(self.up_channel(l, idx, 1 - pref));
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
        for c in cand {
            let parent = b.graph().dst_router(c).unwrap();
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
