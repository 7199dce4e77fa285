//! n-dimensional torus with e-cube routing and dateline virtual channels.
//!
//! The wrap-around links halve average distance but reintroduce channel
//! cycles, which wormhole switching turns into deadlock; the classic cure
//! (Dally & Seitz) is two *virtual channels* per physical link with a
//! **dateline**: a worm travels on VC0 until it crosses the wrap edge of a
//! dimension, then switches to VC1 for the rest of that dimension.  Each VC
//! is its own [`crate::graph::ChannelId`] — the unit of wormhole
//! arbitration — so the engine needs no special casing.  (Bandwidth
//! multiplexing between the two VCs of a physical link is *not* modelled;
//! in the studied workloads the VCs of one link are rarely busy
//! simultaneously, and the approximation is conservative in their favour.)
//!
//! The paper's §6 invites applying the contention-avoidance idea to other
//! networks; the torus is the natural next instance of the mesh family —
//! the `torus_study` experiment measures how much of the dimension-ordered
//! chain's contention-freedom survives the wraparound (spoiler: not all of
//! it — wrap paths escape the interval hull that Theorem 1's geometry
//! relies on).

use crate::graph::{ChannelId, Hop, Links, NetworkGraph, NodeId, RouterId};
use crate::mesh::{coords_of, dim_ordered_key, index_of, strides_of};
use crate::topology::Topology;

/// An n-dimensional torus; every node has a router with two virtual
/// channels per direction per dimension (one in the unvirtualized variant,
/// which is deliberately deadlock-*prone* — `netcheck` uses it as the
/// positive control for its channel-dependency-graph analysis).
#[derive(Debug, Clone)]
pub struct Torus {
    links: TorusLinks,
    graph: NetworkGraph,
}

/// The torus's link numbering: every router has a link in each direction
/// of each dimension, so link `(r, d, dir, vc)` is
/// `base + ((r · D + d) · 2 + dir) · V + vc`, `dir` 0 = +, 1 = −, with
/// `V` = 2 virtual channels, or 1 unvirtualized (where both `vc` name the
/// one channel, so the routing function needs no special casing).
#[derive(Debug, Clone)]
pub(crate) struct TorusLinks {
    /// Side length of each dimension, dimension 0 first.
    sides: Vec<usize>,
    /// Index stride of each dimension.
    strides: Vec<usize>,
    /// Virtual channels per physical link (1 or 2).
    vcs: usize,
    /// Number of routers.
    n: usize,
    /// The first link id, after the `2n` port channels.
    base: usize,
}

impl TorusLinks {
    /// The link from router `r` along dimension `d`, direction `dir`, on
    /// virtual channel `vc`.
    fn id(&self, r: usize, d: usize, dir: usize, vc: usize) -> ChannelId {
        let slot = (r * self.sides.len() + d) * 2 + dir;
        ChannelId((self.base + slot * self.vcs + (vc & (self.vcs - 1))) as u32)
    }

    /// The router one step from `r` along `d`, with wraparound; `c` is
    /// `r`'s coordinate in `d`.
    fn neighbour(&self, r: usize, d: usize, c: usize, dir: usize) -> usize {
        let (m, s) = (self.sides[d], self.strides[d]);
        let next = if dir == 0 {
            (c + 1) % m
        } else {
            (c + m - 1) % m
        };
        r - c * s + next * s
    }

    pub(crate) fn count(&self) -> usize {
        self.n * self.sides.len() * 2 * self.vcs
    }

    pub(crate) fn ends(&self, off: usize) -> (RouterId, RouterId) {
        let slot = off / self.vcs;
        let (dir, d, r) = (
            slot % 2,
            slot / 2 % self.sides.len(),
            slot / 2 / self.sides.len(),
        );
        let c = r / self.strides[d] % self.sides[d];
        let next = self.neighbour(r, d, c, dir);
        (RouterId(r as u32), RouterId(next as u32))
    }
}

impl Torus {
    /// Build a torus with the given side lengths (each ≥ 2; a side of 2 has
    /// coincident +/− neighbours but distinct channels).
    ///
    /// # Panics
    /// If `dims` is empty or any side is < 2.
    pub fn new(dims: &[usize]) -> Self {
        Self::build(dims, true)
    }

    /// Build a torus *without* dateline virtual channels: a single channel
    /// per physical link, so every ring of every dimension closes a cycle in
    /// the channel-dependency graph.  Wormhole routing on this network can
    /// deadlock — it exists so the static analyzer has a known-bad topology
    /// to flag with a witness cycle.
    ///
    /// # Panics
    /// If `dims` is empty or any side is < 2.
    pub fn unvirtualized(dims: &[usize]) -> Self {
        Self::build(dims, false)
    }

    fn build(dims: &[usize], virtualized: bool) -> Self {
        assert!(!dims.is_empty(), "a torus needs at least one dimension");
        assert!(
            dims.iter().all(|&m| m >= 2),
            "torus sides must be at least 2"
        );
        let n: usize = dims.iter().product();
        let links = TorusLinks {
            sides: dims.to_vec(),
            strides: strides_of(dims),
            vcs: if virtualized { 2 } else { 1 },
            n,
            base: 2 * n,
        };
        Self {
            graph: NetworkGraph::new(n, n, 1, Links::Torus(links.clone())),
            links,
        }
    }

    /// True when the torus carries dateline virtual channels (the default,
    /// deadlock-free configuration).
    pub fn is_virtualized(&self) -> bool {
        self.links.vcs == 2
    }

    /// Side lengths.
    pub fn dims(&self) -> &[usize] {
        &self.links.sides
    }

    /// Coordinates of a node.
    pub fn coords(&self, n: NodeId) -> Vec<usize> {
        coords_of(self.dims(), n.idx())
    }

    /// Node at coordinates.
    pub fn node_at(&self, coords: &[usize]) -> NodeId {
        NodeId(index_of(self.dims(), coords) as u32)
    }

    #[cfg(test)]
    fn link(&self, r: RouterId, d: usize, dir: usize, vc: usize) -> ChannelId {
        self.links.id(r.idx(), d, dir, vc)
    }
}

impl Topology for Torus {
    fn graph(&self) -> &NetworkGraph {
        &self.graph
    }

    fn route_candidates(&self, r: RouterId, src: NodeId, dest: NodeId, out: &mut Vec<Hop>) {
        // Decode router (co-located with node r), source and destination
        // digit strings in place, lowest dimension first.
        let (mut here, mut from, mut to) = (r.idx(), src.idx(), dest.idx());
        for (d, &m) in self.links.sides.iter().enumerate() {
            let (h, f, t) = (here % m, from % m, to % m);
            here /= m;
            from /= m;
            to /= m;
            if h == t {
                continue;
            }
            // Direction fixed for the whole dimension by the shortest way
            // from the *source* coordinate (ties go +); recomputing from
            // `here` would agree because moving shrinks the same residue.
            let fwd = (t + m - f) % m;
            let (dir, crossed) = if fwd <= m - fwd {
                // dir = +; the wrap edge m-1 → 0 is crossed once the
                // position falls below the starting coordinate.
                (0, h < f)
            } else {
                // dir = −; the wrap edge 0 → m-1 is crossed once the
                // position rises above the starting coordinate.
                (1, h > f)
            };
            out.push(Hop {
                channel: self.links.id(r.idx(), d, dir, usize::from(crossed)),
                next: Some(RouterId(self.links.neighbour(r.idx(), d, h, dir) as u32)),
            });
            return;
        }
        out.extend(self.graph.consumption_hops(dest));
    }

    fn chain_key(&self, n: NodeId) -> u64 {
        // Same convention as the mesh: first-routed dimension is most
        // significant.  (On a torus this order is *not* contention-free —
        // that is precisely what `torus_study` measures.)
        dim_ordered_key(self.dims(), n.idx())
    }

    fn distance(&self, src: NodeId, dst: NodeId) -> usize {
        // Wrap-aware Manhattan distance: Σ min(d, m − d) over dimensions.
        let (mut a, mut b) = (src.idx(), dst.idx());
        let mut sum = 0;
        for &m in self.dims() {
            let d = (a % m).abs_diff(b % m);
            sum += d.min(m - d);
            a /= m;
            b /= m;
        }
        sum
    }

    fn name(&self) -> String {
        let dims: Vec<String> = self
            .dims()
            .iter()
            .map(std::string::ToString::to_string)
            .collect();
        let suffix = if self.is_virtualized() { "" } else { "-novc" };
        format!("torus-{}{suffix}", dims.join("x"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn channel_count() {
        let t = Torus::new(&[4, 4]);
        // 2 NI ports per node + ndim(2) * 2 dirs * 2 VCs per router.
        assert_eq!(t.graph().n_channels(), 16 * 2 + 16 * 2 * 2 * 2);
    }

    #[test]
    fn paths_take_the_short_way() {
        let t = Torus::new(&[8]);
        // 0 -> 6 is 2 hops through the wrap, not 6 the long way.
        assert_eq!(t.distance(NodeId(0), NodeId(6)), 2);
        // 0 -> 4 ties; the + direction wins and is still 4 hops.
        assert_eq!(t.distance(NodeId(0), NodeId(4)), 4);
    }

    #[test]
    fn every_pair_routes() {
        let t = Torus::new(&[4, 3]);
        for a in 0..12u32 {
            for b in 0..12u32 {
                if a == b {
                    continue;
                }
                let p = t.det_path(NodeId(a), NodeId(b));
                assert_eq!(t.graph().dst_node(*p.last().unwrap()), Some(NodeId(b)));
                assert_eq!(p.len() - 2, t.distance(NodeId(a), NodeId(b)), "{a}->{b}");
                for (i, c) in p.iter().enumerate() {
                    assert!(!p[..i].contains(c), "cycle in {a}->{b}");
                }
            }
        }
    }

    #[test]
    fn dateline_switches_vc_exactly_at_the_wrap() {
        let t = Torus::new(&[6]);
        // 5 -> 1 goes +: 5, (wrap) 0, 1. First link VC0, post-wrap link VC1.
        let p = t.det_path(NodeId(5), NodeId(1));
        assert_eq!(p.len(), 4); // inject, 5->0, 0->1, consume
        let c0 = t.link(RouterId(5), 0, 0, 0);
        let c1 = t.link(RouterId(0), 0, 0, 1);
        assert_eq!(p[1], c0, "pre-wrap hop rides VC0");
        assert_eq!(p[2], c1, "post-wrap hop rides VC1");
    }

    #[test]
    fn non_wrapping_paths_stay_on_vc0() {
        let t = Torus::new(&[8]);
        let p = t.det_path(NodeId(1), NodeId(3));
        for ch in &p[1..p.len() - 1] {
            // All router links in [1,3) direction + on VC0.
            let found = (1..3).any(|r| t.link(RouterId(r), 0, 0, 0) == *ch);
            assert!(found, "unexpected channel {ch:?}");
        }
    }

    #[test]
    fn vcs_are_distinct_channels() {
        let t = Torus::new(&[4, 4]);
        let a = t.link(RouterId(0), 0, 0, 0);
        let b = t.link(RouterId(0), 0, 0, 1);
        assert_ne!(a, b);
        // Same physical endpoints though.
        assert_eq!(t.graph().channel(a).dst, t.graph().channel(b).dst);
    }

    #[test]
    #[should_panic(expected = "at least 2")]
    fn tiny_side_panics() {
        Torus::new(&[1, 4]);
    }

    #[test]
    fn unvirtualized_torus_shares_one_channel_per_link() {
        let t = Torus::unvirtualized(&[4, 4]);
        assert!(!t.is_virtualized());
        // 2 NI ports per node + ndim(2) * 2 dirs * 1 channel per router.
        assert_eq!(t.graph().n_channels(), 16 * 2 + 16 * 2 * 2);
        assert_eq!(t.link(RouterId(0), 0, 0, 0), t.link(RouterId(0), 0, 0, 1));
        assert!(t.name().ends_with("-novc"));
        // Routing still delivers everywhere (deadlock is a *dynamic*
        // hazard; single worms are fine).
        for a in 0..16u32 {
            for b in 0..16u32 {
                if a == b {
                    continue;
                }
                let p = t.det_path(NodeId(a), NodeId(b));
                assert_eq!(t.graph().dst_node(*p.last().unwrap()), Some(NodeId(b)));
            }
        }
    }
}
