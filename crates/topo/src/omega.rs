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

use crate::graph::{ChannelId, NetworkGraph, NodeId, RouterId};
use crate::topology::Topology;

/// An `N = 2^s` node unidirectional Omega network.
#[derive(Debug, Clone)]
pub struct Omega {
    s: u32,
    graph: NetworkGraph,
    /// `inter[(ℓ * W + r) * 2 + c]`: channel leaving stage-`ℓ` switch `r`
    /// through output port `c` (for `ℓ < s-1`; the last stage uses
    /// consumption channels).
    inter: Vec<ChannelId>,
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
        let w = n / 2;
        let stages = s as usize;
        let mut b = NetworkGraph::builder(n, stages * w);
        let router = |l: usize, r: usize| RouterId((l * w + r) as u32);
        // Nodes inject into stage 0 at position i and consume from the last
        // stage at position i.
        for i in 0..n {
            b.injection(NodeId(i as u32), router(0, i >> 1));
            b.consumption(NodeId(i as u32), router(stages - 1, i >> 1));
        }
        let shuffle = |q: usize| ((q << 1) | (q >> (s - 1))) & (n - 1);
        let invalid = ChannelId(u32::MAX);
        let mut inter = vec![invalid; stages * w * 2];
        for l in 0..stages - 1 {
            for r in 0..w {
                for c in 0..2usize {
                    let q = 2 * r + c; // output position
                    let p = shuffle(q); // next stage input position
                    inter[(l * w + r) * 2 + c] = b.link(router(l, r), router(l + 1, p >> 1));
                }
            }
        }
        Self {
            s,
            graph: b.build(),
            inter,
        }
    }

    /// Number of stages (`log2 N`).
    pub fn stages(&self) -> u32 {
        self.s
    }

    fn width(&self) -> usize {
        self.graph.n_nodes() / 2
    }

    /// Decompose a router id into (stage, switch index).
    pub fn stage_of(&self, r: RouterId) -> (usize, usize) {
        // A stage holds 2^(s-1) switches.
        let half = self.s - 1;
        (r.idx() >> half, r.idx() & ((1 << half) - 1))
    }
}

impl Topology for Omega {
    fn graph(&self) -> &NetworkGraph {
        &self.graph
    }

    fn route_candidates(&self, r: RouterId, _src: NodeId, dest: NodeId, out: &mut Vec<ChannelId>) {
        let (l, idx) = self.stage_of(r);
        let s = self.s as usize;
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
            out.extend_from_slice(self.graph.consumptions(dest));
        } else {
            out.push(self.inter[(l * self.width() + idx) * 2 + c]);
        }
    }

    fn distance(&self, src: NodeId, dst: NodeId) -> usize {
        // Every path crosses all s stages: s − 1 router-to-router hops.
        if src == dst {
            0
        } else {
            self.s as usize - 1
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
