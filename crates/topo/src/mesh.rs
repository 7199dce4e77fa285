//! n-dimensional mesh with dimension-ordered (e-cube / XY) routing.
//!
//! The paper's mesh experiments use a 16×16 2-D mesh with XY routing and a
//! one-port architecture (§5).  We implement the general n-dimensional mesh
//! of §3: node addresses are mixed-radix digit strings
//! `δ_{n-1}(x) … δ_0(x)`, e-cube routing corrects the lowest differing digit
//! first (X before Y in 2-D), and the *dimension-ordered* relation `<_d`
//! orders nodes so that the first-routed dimension is the most significant
//! chain digit (see [`crate::Topology::chain_key`] below for why that
//! pairing, and only that pairing, keeps disjoint chain intervals on
//! disjoint channels).

use crate::graph::{ChannelId, NetworkGraph, NodeId, RouterId};
use crate::route_table::{RouteCache, RouteTable};
use crate::topology::Topology;

/// An n-dimensional mesh. Each node has a dedicated router; routers connect
/// to neighbours along each dimension in both directions.
#[derive(Debug, Clone)]
pub struct Mesh {
    dims: Vec<usize>,
    ports: usize,
    graph: NetworkGraph,
    /// `links[(router * ndim + dim) * 2 + dir]`, `dir` 0 = toward higher
    /// coordinate, 1 = toward lower.
    links: Vec<Option<ChannelId>>,
    routes: RouteCache,
}

impl Mesh {
    /// Build a mesh with the given side lengths (e.g. `&[16, 16]` for the
    /// paper's 16×16 network).  Dimension 0 varies fastest in the node index
    /// and is resolved first by the router (the "X" of XY routing).
    ///
    /// # Panics
    /// If `dims` is empty or any side length is zero.
    pub fn new(dims: &[usize]) -> Self {
        Self::with_ports(dims, 1)
    }

    /// A mesh whose nodes have `ports` injection and `ports` consumption
    /// channels — the multi-port NI ablation (the paper's experiments use
    /// the one-port architecture, `ports = 1`).
    pub fn with_ports(dims: &[usize], ports: usize) -> Self {
        assert!(!dims.is_empty(), "a mesh needs at least one dimension");
        assert!(dims.iter().all(|&m| m > 0), "side lengths must be positive");
        assert!(ports >= 1, "a node needs at least one NI port");
        let n: usize = dims.iter().product();
        let ndim = dims.len();
        let mut b = NetworkGraph::builder(n, n);
        for i in 0..n {
            for _ in 0..ports {
                b.injection(NodeId(i as u32), RouterId(i as u32));
                b.consumption(NodeId(i as u32), RouterId(i as u32));
            }
        }
        let mut links = vec![None; n * ndim * 2];
        let dims_v = dims.to_vec();
        for r in 0..n {
            let c = coords_of(&dims_v, r);
            for d in 0..ndim {
                // +1 neighbour.
                if c[d] + 1 < dims_v[d] {
                    let mut nc = c.clone();
                    nc[d] += 1;
                    let nb = index_of(&dims_v, &nc);
                    links[(r * ndim + d) * 2] =
                        Some(b.link(RouterId(r as u32), RouterId(nb as u32)));
                }
                // -1 neighbour.
                if c[d] > 0 {
                    let mut nc = c.clone();
                    nc[d] -= 1;
                    let nb = index_of(&dims_v, &nc);
                    links[(r * ndim + d) * 2 + 1] =
                        Some(b.link(RouterId(r as u32), RouterId(nb as u32)));
                }
            }
        }
        Self {
            dims: dims_v,
            ports,
            graph: b.build(),
            links,
            routes: RouteCache::default(),
        }
    }

    /// A binary `d`-cube: the mesh `[2; d]`.  E-cube routing on it is the
    /// classic hypercube dimension-ordered routing, and the dimension-
    /// ordered chain is the one the original U-cube algorithm (McKinley et
    /// al.) uses — the historical root of the U-mesh/OPT-mesh family.
    pub fn hypercube(d: usize) -> Self {
        assert!(d >= 1, "a hypercube needs at least one dimension");
        Self::new(&vec![2; d])
    }

    /// Side lengths.
    pub fn dims(&self) -> &[usize] {
        &self.dims
    }

    /// Coordinates (digit string, `δ_0` first) of a node.
    pub fn coords(&self, n: NodeId) -> Vec<usize> {
        coords_of(&self.dims, n.idx())
    }

    /// Node at the given coordinates.
    ///
    /// # Panics
    /// If the coordinate count or any coordinate is out of range.
    pub fn node_at(&self, coords: &[usize]) -> NodeId {
        assert_eq!(coords.len(), self.dims.len());
        for (d, (&c, &m)) in coords.iter().zip(&self.dims).enumerate() {
            assert!(c < m, "coordinate {c} out of range in dimension {d}");
        }
        NodeId(index_of(&self.dims, coords) as u32)
    }

    /// Manhattan distance between two nodes (the e-cube hop count).
    pub fn manhattan(&self, a: NodeId, b: NodeId) -> usize {
        self.coords(a)
            .iter()
            .zip(self.coords(b))
            .map(|(&x, y)| x.abs_diff(y))
            .sum()
    }

    fn link(&self, r: RouterId, dim: usize, toward_higher: bool) -> ChannelId {
        self.links[(r.idx() * self.dims.len() + dim) * 2 + usize::from(!toward_higher)]
            .expect("e-cube routing never walks off the mesh edge")
    }
}

fn coords_of(dims: &[usize], mut idx: usize) -> Vec<usize> {
    dims.iter()
        .map(|&m| {
            let c = idx % m;
            idx /= m;
            c
        })
        .collect()
}

fn index_of(dims: &[usize], coords: &[usize]) -> usize {
    let mut idx = 0;
    let mut stride = 1;
    for (&c, &m) in coords.iter().zip(dims) {
        idx += c * stride;
        stride *= m;
    }
    idx
}

impl Topology for Mesh {
    fn graph(&self) -> &NetworkGraph {
        &self.graph
    }

    fn route_candidates(&self, r: RouterId, _src: NodeId, dest: NodeId, out: &mut Vec<ChannelId>) {
        // Router r is co-located with node r in a mesh.
        let here = coords_of(&self.dims, r.idx());
        let there = self.coords(dest);
        for d in 0..self.dims.len() {
            if here[d] != there[d] {
                out.push(self.link(r, d, there[d] > here[d]));
                return;
            }
        }
        out.extend_from_slice(self.graph.consumptions(dest));
    }

    fn route_table(&self) -> &RouteTable {
        // E-cube routing ignores the source; src = dest is a placeholder.
        self.routes.get_or_build(|| {
            RouteTable::src_invariant(&self.graph, |r, dest, out| {
                self.route_candidates(r, dest, dest, out);
            })
        })
    }

    fn chain_key(&self, n: NodeId) -> u64 {
        // The chain's most significant digit must be the dimension e-cube
        // resolves FIRST (dimension 0, the "X" of XY routing): a worm leaves
        // its source's X-column region immediately and approaches the
        // destination within it, so sends confined to disjoint chain
        // intervals stay on disjoint channels.  (With the opposite pairing a
        // chain-downward send sweeps across the sender's row and collides
        // with up-chain traffic — verified by the contention checker.)
        let c = self.coords(n);
        let mut key = 0u64;
        for (&dim, &coord) in self.dims.iter().zip(&c) {
            key = key * dim as u64 + coord as u64;
        }
        key
    }

    fn name(&self) -> String {
        let dims: Vec<String> = self
            .dims
            .iter()
            .map(std::string::ToString::to_string)
            .collect();
        if self.ports == 1 {
            format!("mesh-{}", dims.join("x"))
        } else {
            format!("mesh-{}-{}port", dims.join("x"), self.ports)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::shared_channel;

    #[test]
    fn sizes() {
        let m = Mesh::new(&[16, 16]);
        assert_eq!(m.graph().n_nodes(), 256);
        assert_eq!(m.graph().n_routers(), 256);
        // 2 ports per node + 2 directed channels per internal edge:
        // edges = 2 * 16*15 per dimension pair... count explicitly:
        // per dimension: 15*16 undirected links → 2 directed each, 2 dims.
        assert_eq!(m.graph().n_channels(), 2 * 256 + 2 * (2 * 15 * 16));
    }

    #[test]
    fn coords_roundtrip() {
        let m = Mesh::new(&[4, 3, 2]);
        for i in 0..24u32 {
            let c = m.coords(NodeId(i));
            assert_eq!(m.node_at(&c), NodeId(i));
        }
    }

    #[test]
    fn xy_routing_goes_x_first() {
        let m = Mesh::new(&[6, 6]);
        // From (0,0) to (3,2): path visits (1,0),(2,0),(3,0),(3,1),(3,2).
        let src = m.node_at(&[0, 0]);
        let dst = m.node_at(&[3, 2]);
        let path = m.det_path(src, dst);
        // injection + 5 hops + consumption = 7 channels.
        assert_eq!(path.len(), 7);
        assert_eq!(m.distance(src, dst), m.manhattan(src, dst));
        // The second-to-last router channel must enter router (3,2).
        let g = m.graph();
        assert_eq!(g.dst_node(*path.last().unwrap()), Some(dst));
    }

    #[test]
    fn one_dim_mesh_is_a_line() {
        let m = Mesh::new(&[8]);
        let path = m.det_path(NodeId(1), NodeId(5));
        assert_eq!(path.len(), 2 + 4);
        assert_eq!(m.distance(NodeId(7), NodeId(0)), 7);
    }

    #[test]
    fn chain_is_column_major() {
        let m = Mesh::new(&[4, 4]);
        // The first-routed dimension (X) dominates the chain order:
        // (x=0,y=3) <_d (x=1,y=0).
        assert!(m.chain_key(m.node_at(&[0, 3])) < m.chain_key(m.node_at(&[1, 0])));
        // Same column: Y decides.
        assert!(m.chain_key(m.node_at(&[2, 1])) < m.chain_key(m.node_at(&[2, 2])));
    }

    /// Row-interval separation: XY paths between nodes drawn from disjoint
    /// *row bands* never share a channel (a path touches only the sender's
    /// row and the column segment between the two rows, all inside the
    /// band's hull).  This is the geometric core the U-mesh/OPT-mesh
    /// orderings exploit; the full schedule-level contention-freedom check
    /// lives in the `optmc` crate.
    #[test]
    fn disjoint_row_bands_have_disjoint_paths() {
        let m = Mesh::new(&[4, 4]);
        // Band 1: rows 0-1 (chain positions 0..8); band 2: rows 2-3.
        let band1: Vec<u32> = (0..8).collect();
        let band2: Vec<u32> = (8..16).collect();
        for &a in &band1 {
            for &b in &band1 {
                if a == b {
                    continue;
                }
                let p1 = m.det_path(NodeId(a), NodeId(b));
                for &c in &band2 {
                    for &d in &band2 {
                        if c == d {
                            continue;
                        }
                        let p2 = m.det_path(NodeId(c), NodeId(d));
                        assert_eq!(shared_channel(&p1, &p2), None, "({a}->{b}) vs ({c}->{d})");
                    }
                }
            }
        }
    }

    /// Every XY path stays inside the bounding box of its endpoints.
    #[test]
    fn paths_stay_in_bounding_box() {
        let m = Mesh::new(&[5, 4]);
        let g = m.graph();
        for a in 0..20u32 {
            for b in 0..20u32 {
                if a == b {
                    continue;
                }
                let (ca, cb) = (m.coords(NodeId(a)), m.coords(NodeId(b)));
                for ch in m.det_path(NodeId(a), NodeId(b)) {
                    if let Some(r) = g.dst_router(ch) {
                        let rc = m.coords(NodeId(r.0));
                        for d in 0..2 {
                            let (lo, hi) = (ca[d].min(cb[d]), ca[d].max(cb[d]));
                            assert!(
                                rc[d] >= lo && rc[d] <= hi,
                                "path {a}->{b} leaves its box at {rc:?}"
                            );
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn hypercube_is_binary_mesh() {
        let h = Mesh::hypercube(5);
        assert_eq!(h.graph().n_nodes(), 32);
        // E-cube distance == Hamming distance.
        for a in 0..32u32 {
            for b in 0..32u32 {
                let hamming = (a ^ b).count_ones() as usize;
                assert_eq!(h.manhattan(NodeId(a), NodeId(b)), hamming);
                if a != b {
                    assert_eq!(h.distance(NodeId(a), NodeId(b)), hamming);
                }
            }
        }
    }

    #[test]
    fn hypercube_chain_is_bit_reversed_order() {
        // Chain key folds coordinates lowest-dimension-most-significant, so
        // on a binary cube it is the bit-reversed address — still a total
        // order pairing with e-cube routing.
        let h = Mesh::hypercube(3);
        let mut keys: Vec<u64> = (0..8u32).map(|n| h.chain_key(NodeId(n))).collect();
        keys.sort_unstable();
        keys.dedup();
        assert_eq!(keys.len(), 8, "chain keys must be distinct");
        // Node 1 (bit 0 set) has the most significant digit set: largest key
        // among single-bit addresses.
        assert!(h.chain_key(NodeId(1)) > h.chain_key(NodeId(4)));
    }

    #[test]
    #[should_panic(expected = "no path from a node to itself")]
    fn self_path_panics() {
        Mesh::new(&[4, 4]).det_path(NodeId(3), NodeId(3));
    }

    #[test]
    #[should_panic(expected = "at least one dimension")]
    fn empty_dims_panics() {
        Mesh::new(&[]);
    }
}
