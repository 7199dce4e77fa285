//! Unidirectional multistage interconnection network (Omega / butterfly) —
//! the §6 "future work" architecture.
//!
//! Unlike the BMIN, a unidirectional MIN has *exactly one* path between any
//! source and destination: every message traverses all `log2 N` stages, and
//! the output port taken at stage `ℓ` is forced to bit `s-1-ℓ` of the
//! destination.  Consequently the network **cannot be partitioned into
//! contention-free processor clusters** (paper §6, citing Ni/Gui/Moore) —
//! no node ordering makes chain-splitting multicast statically
//! channel-disjoint.  The best one can do is the paper's *temporal*
//! contention avoidance: order conflicting senders in time
//! (`optmc::temporal`).
//!
//! Construction (classic Omega): `s` stages of `N/2` 2×2 switches; node `i`
//! feeds stage-0 input position `i`; a perfect shuffle (left bit-rotation)
//! connects each stage's output positions to the next stage's inputs; the
//! last stage's output position `q` feeds node `q`.

use crate::graph::{ChannelId, Hop, Links, NetworkGraph, NodeId, RouterId};
use crate::topology::Topology;

/// An `N = 2^s` node unidirectional Omega network.
#[derive(Debug, Clone)]
pub struct Omega {
    links: OmegaLinks,
    graph: NetworkGraph,
}

/// The Omega network's link numbering: the channel leaving stage-`ℓ`
/// switch `r` (`ℓ < s − 1`; the last stage feeds consumption channels)
/// through output port `c` is `base + (ℓ · W + r) · 2 + c`, with `W`
/// switches per stage and router `(ℓ, r)` numbered `ℓ · W + r`.
#[derive(Debug, Clone, Copy)]
pub(crate) struct OmegaLinks {
    /// Stages (address bits).
    s: u32,
    /// The first link id, after the `2n` port channels.
    base: usize,
}

impl OmegaLinks {
    /// Switches per stage.
    fn width(self) -> usize {
        1 << (self.s - 1)
    }

    fn router(self, l: usize, r: usize) -> RouterId {
        RouterId(((l << (self.s - 1)) + r) as u32)
    }

    /// The stage-`l + 1` switch that output port `c` of stage-`l` switch
    /// `r` feeds: the perfect shuffle (left rotation) of output position
    /// `2r + c`, halved.
    fn successor(self, r: usize, c: usize) -> usize {
        let q = 2 * r + c;
        let shuffled = ((q << 1) | (q >> (self.s - 1))) & ((1 << self.s) - 1);
        shuffled >> 1
    }

    /// The hop out of stage-`l` switch `r` through output port `c`.
    fn hop(self, l: usize, r: usize, c: usize) -> Hop {
        Hop {
            channel: ChannelId((self.base + ((l << (self.s - 1)) + r) * 2 + c) as u32),
            next: Some(self.router(l + 1, self.successor(r, c))),
        }
    }

    /// Nodes inject into stage 0 at position `n` and consume from the
    /// last stage at position `n`.
    pub(crate) fn port_router(self, n: NodeId, consumption: bool) -> RouterId {
        let stage = if consumption { self.s as usize - 1 } else { 0 };
        self.router(stage, n.idx() >> 1)
    }

    pub(crate) fn count(self) -> usize {
        (self.s as usize - 1) * self.width() * 2
    }

    pub(crate) fn ends(self, off: usize) -> (RouterId, RouterId) {
        let (c, q) = (off & 1, off >> 1);
        let (l, r) = (q >> (self.s - 1), q & (self.width() - 1));
        (self.router(l, r), self.router(l + 1, self.successor(r, c)))
    }
}

impl Omega {
    /// Build an Omega network on `2^s` nodes.
    ///
    /// # Panics
    /// If `s` is outside `1..=20`.
    pub fn new(s: u32) -> Self {
        assert!(
            (1..=20).contains(&s),
            "s={s} out of the sensible range 1..=20"
        );
        let n = 1usize << s;
        let links = OmegaLinks { s, base: 2 * n };
        Self {
            graph: NetworkGraph::new(n, s as usize * n / 2, 1, Links::Omega(links)),
            links,
        }
    }

    /// Number of stages (`log2 N`).
    pub fn stages(&self) -> u32 {
        self.links.s
    }

    /// Decompose a router id into (stage, switch index).
    pub fn stage_of(&self, r: RouterId) -> (usize, usize) {
        // A stage holds 2^(s-1) switches.
        let half = self.links.s - 1;
        (r.idx() >> half, r.idx() & ((1 << half) - 1))
    }
}

impl Topology for Omega {
    fn graph(&self) -> &NetworkGraph {
        &self.graph
    }

    fn route_candidates(&self, r: RouterId, _src: NodeId, dest: NodeId, out: &mut Vec<Hop>) {
        let (l, idx) = self.stage_of(r);
        let s = self.links.s as usize;
        // Output port at stage ℓ = bit (s-1-ℓ) of the destination: the
        // shuffle rotates that bit into the switch-select position of the
        // next stage, so after s stages the wire position equals `dest`.
        let c = (dest.idx() >> (s - 1 - l)) & 1;
        if l == s - 1 {
            debug_assert_eq!(
                2 * idx + c,
                dest.idx(),
                "omega routing must terminate at the destination's switch"
            );
            out.extend(self.graph.consumption_hops(dest));
        } else {
            out.push(self.links.hop(l, idx, c));
        }
    }

    fn distance(&self, src: NodeId, dst: NodeId) -> usize {
        // Every path crosses all s stages: s − 1 router-to-router hops.
        if src == dst {
            0
        } else {
            self.links.s as usize - 1
        }
    }

    fn chain_key(&self, n: NodeId) -> u64 {
        // Lexicographic, as for the BMIN — though no order is
        // contention-free here (§6).
        n.0 as u64
    }

    fn name(&self) -> String {
        format!("omega-{}", self.graph.n_nodes())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::shared_channel;

    #[test]
    fn every_pair_routes_to_destination() {
        for s in [1u32, 3, 5] {
            let o = Omega::new(s);
            let n = o.graph().n_nodes() as u32;
            for x in 0..n {
                for y in 0..n {
                    if x == y {
                        continue;
                    }
                    let p = o.det_path(NodeId(x), NodeId(y));
                    // injection + (s-1) inter-stage + consumption.
                    assert_eq!(p.len(), s as usize + 1, "{x}->{y} in omega-{n}");
                    assert_eq!(o.graph().dst_node(*p.last().unwrap()), Some(NodeId(y)));
                }
            }
        }
    }

    #[test]
    fn distance_is_uniform() {
        let o = Omega::new(4);
        let d = o.distance(NodeId(0), NodeId(1));
        for x in 0..16u32 {
            for y in 0..16u32 {
                if x != y {
                    assert_eq!(o.distance(NodeId(x), NodeId(y)), d);
                }
            }
        }
    }

    /// §6's premise: the omega network cannot be partitioned into
    /// contention-free clusters at *arbitrary* cut points (chain-splitting
    /// needs every recursive split to be clean, and the OPT splits land
    /// anywhere).  Aligned power-of-two cuts are clean (the butterfly's
    /// block structure), every unaligned cut collides.
    #[test]
    fn unaligned_cuts_do_not_partition() {
        let o = Omega::new(4);
        let n = 16u32;
        let cut_is_clean = |cut: u32| -> bool {
            for a in 0..cut {
                for b in 0..cut {
                    if a == b {
                        continue;
                    }
                    let p1 = o.det_path(NodeId(a), NodeId(b));
                    for c in cut..n {
                        for d in cut..n {
                            if c == d {
                                continue;
                            }
                            let p2 = o.det_path(NodeId(c), NodeId(d));
                            if shared_channel(&p1, &p2).is_some() {
                                return false;
                            }
                        }
                    }
                }
            }
            true
        };
        // Each side needs >= 2 nodes to host an internal send.
        for cut in 2..n - 1 {
            let aligned =
                cut.is_power_of_two() || (n - cut).is_power_of_two() && cut % (n - cut) == 0;
            if !aligned {
                assert!(
                    !cut_is_clean(cut),
                    "unaligned cut {cut} unexpectedly partitions omega"
                );
            }
        }
        // And the block structure shows through at the half cut.
        assert!(cut_is_clean(8), "the aligned half cut must be clean");
    }

    #[test]
    fn paths_with_same_destination_converge() {
        // All paths to one destination share the final channel — the
        // consumption port — and typically the last stages.
        let o = Omega::new(4);
        let p1 = o.det_path(NodeId(0), NodeId(9));
        let p2 = o.det_path(NodeId(5), NodeId(9));
        assert_eq!(p1.last(), p2.last());
    }
}
