//! Channel-dependency-graph (CDG) deadlock analysis, after Dally & Seitz.
//!
//! Wormhole switching deadlocks exactly when the *channel dependency graph*
//! — channels as vertices, an edge `c → c'` whenever the routing function
//! can ask a worm holding `c` to acquire `c'` next — contains a cycle.  The
//! graph is built purely from [`Topology::route_candidates`], following
//! **every** candidate branch (the adaptive BMIN up-phase contributes both
//! up-ports), so the certificate covers the adaptive simulator, not just
//! first-preference deterministic paths.
//!
//! Cycles are found with Tarjan's strongly-connected-components algorithm
//! (iterative — channel counts reach the tens of thousands) and each cyclic
//! SCC is reported with a concrete *witness cycle*: a closed channel walk a
//! deadlocked worm set could actually block on.  The XY mesh and the
//! turnaround BMIN come out acyclic; an unvirtualized torus is the positive
//! control — every wrap ring closes a cycle that the dateline virtual
//! channels of [`topo::Torus::new`] are there to cut.

use std::collections::{HashMap, HashSet, VecDeque};

use topo::{ChannelId, Hop, NodeId, Topology};

/// The result of a CDG analysis.
#[derive(Debug, Clone)]
pub struct CdgAnalysis {
    /// Channels in the graph (vertices).
    pub n_channels: usize,
    /// Distinct dependency edges discovered.
    pub n_edges: usize,
    /// One witness cycle per cyclic SCC, each a closed walk
    /// (`first == last`); empty exactly when the network is deadlock-free.
    pub cycles: Vec<Vec<ChannelId>>,
}

impl CdgAnalysis {
    /// Deadlock-freedom: no cycle in the CDG.
    pub fn is_acyclic(&self) -> bool {
        self.cycles.is_empty()
    }
}

/// Enumerate every dependency edge the routing function can induce, over
/// all ordered `(src, dst)` pairs and all candidate branches.
pub(crate) fn build_edges(topo: &dyn Topology) -> HashSet<(u32, u32)> {
    let g = topo.graph();
    let nc = g.n_channels();
    let n = g.n_nodes();
    let mut edges: HashSet<(u32, u32)> = HashSet::new();
    // Per-pair visited set, generation-stamped to avoid reallocation.
    let mut stamp = vec![0u32; nc];
    let mut generation = 0u32;
    let mut queue: Vec<Hop> = Vec::new();
    let mut cand: Vec<Hop> = Vec::new();
    for s in 0..n as u32 {
        for d in 0..n as u32 {
            if s == d {
                continue;
            }
            generation += 1;
            queue.clear();
            for inj in g.injection_hops(NodeId(s)) {
                stamp[inj.channel.idx()] = generation;
                queue.push(inj);
            }
            while let Some(hop) = queue.pop() {
                let Some(r) = hop.next else {
                    continue; // consumption channels are sinks
                };
                cand.clear();
                topo.route_candidates(r, NodeId(s), NodeId(d), &mut cand);
                for &next in &cand {
                    edges.insert((hop.channel.0, next.channel.0));
                    if stamp[next.channel.idx()] != generation {
                        stamp[next.channel.idx()] = generation;
                        queue.push(next);
                    }
                }
            }
        }
    }
    edges
}

/// Build the CDG of `topo` and search it for cycles.
pub fn analyze(topo: &dyn Topology) -> CdgAnalysis {
    let nc = topo.graph().n_channels();
    let edges = build_edges(topo);
    let mut adj: Vec<Vec<u32>> = vec![Vec::new(); nc];
    for &(a, b) in &edges {
        adj[a as usize].push(b);
    }
    for list in &mut adj {
        list.sort_unstable();
    }
    let sccs = tarjan_sccs(&adj);
    // Component id per vertex, for witness extraction.
    let mut comp_id = vec![u32::MAX; nc];
    for (cid, comp) in sccs.iter().enumerate() {
        for &v in comp {
            comp_id[v as usize] = cid as u32;
        }
    }
    let mut cycles = Vec::new();
    for (cid, comp) in sccs.iter().enumerate() {
        let cyclic = comp.len() > 1
            || (comp.len() == 1 && adj[comp[0] as usize].binary_search(&comp[0]).is_ok());
        if cyclic {
            cycles.push(witness_cycle(comp, &adj, &comp_id, cid as u32));
        }
    }
    // Deterministic report order regardless of SCC discovery order.
    cycles.sort();
    CdgAnalysis {
        n_channels: nc,
        n_edges: edges.len(),
        cycles,
    }
}

/// Iterative Tarjan SCC.
fn tarjan_sccs(adj: &[Vec<u32>]) -> Vec<Vec<u32>> {
    const UNSET: u32 = u32::MAX;
    let n = adj.len();
    let mut index = vec![UNSET; n];
    let mut low = vec![0u32; n];
    let mut on_stack = vec![false; n];
    let mut stack: Vec<u32> = Vec::new();
    let mut next_index = 0u32;
    let mut sccs: Vec<Vec<u32>> = Vec::new();
    let mut frames: Vec<(u32, usize)> = Vec::new();
    for root in 0..n as u32 {
        if index[root as usize] != UNSET {
            continue;
        }
        frames.push((root, 0));
        while let Some(frame) = frames.last_mut() {
            let v = frame.0 as usize;
            if frame.1 == 0 {
                index[v] = next_index;
                low[v] = next_index;
                next_index += 1;
                stack.push(frame.0);
                on_stack[v] = true;
            }
            if frame.1 < adj[v].len() {
                let w = adj[v][frame.1] as usize;
                frame.1 += 1;
                if index[w] == UNSET {
                    frames.push((w as u32, 0));
                } else if on_stack[w] {
                    low[v] = low[v].min(index[w]);
                }
            } else {
                frames.pop();
                if let Some(parent) = frames.last() {
                    let p = parent.0 as usize;
                    low[p] = low[p].min(low[v]);
                }
                if low[v] == index[v] {
                    let mut comp = Vec::new();
                    loop {
                        let w = stack.pop().expect("tarjan stack underflow");
                        on_stack[w as usize] = false;
                        comp.push(w);
                        if w as usize == v {
                            break;
                        }
                    }
                    sccs.push(comp);
                }
            }
        }
    }
    sccs
}

/// Shortest closed walk through the SCC's smallest member, BFS-restricted
/// to component-internal edges.  Returned closed: `first == last`.
fn witness_cycle(comp: &[u32], adj: &[Vec<u32>], comp_id: &[u32], cid: u32) -> Vec<ChannelId> {
    let m = *comp.iter().min().expect("non-empty SCC");
    let mut parent: HashMap<u32, u32> = HashMap::new();
    let mut visited: HashSet<u32> = HashSet::from([m]);
    let mut q = VecDeque::from([m]);
    while let Some(v) = q.pop_front() {
        for &w in &adj[v as usize] {
            if comp_id[w as usize] != cid {
                continue;
            }
            if w == m {
                // Reconstruct m -> … -> v, then close the walk.
                let mut rev = Vec::new();
                let mut cur = v;
                while cur != m {
                    rev.push(cur);
                    cur = parent[&cur];
                }
                let mut cycle = vec![ChannelId(m)];
                cycle.extend(rev.iter().rev().map(|&c| ChannelId(c)));
                cycle.push(ChannelId(m));
                return cycle;
            }
            if visited.insert(w) {
                parent.insert(w, v);
                q.push_back(w);
            }
        }
    }
    unreachable!("an SCC member always closes a walk to itself")
}

#[cfg(test)]
mod tests {
    use super::*;
    use topo::{Bmin, Mesh, Omega, Torus, UpPolicy};

    #[test]
    fn xy_mesh_is_acyclic() {
        let a = analyze(&Mesh::new(&[6, 6]));
        assert!(a.is_acyclic(), "witnesses: {:?}", a.cycles);
        assert_eq!(a.n_channels, 36 * 2 + 2 * (5 * 6) * 2);
        assert!(a.n_edges > 0);
    }

    #[test]
    fn turnaround_bmin_is_acyclic_for_both_policies() {
        for policy in [UpPolicy::Straight, UpPolicy::DestColumn] {
            let a = analyze(&Bmin::new(5, policy));
            assert!(a.is_acyclic(), "{policy:?}: {:?}", a.cycles);
        }
    }

    #[test]
    fn omega_min_is_acyclic() {
        assert!(analyze(&Omega::new(4)).is_acyclic());
    }

    #[test]
    fn dateline_torus_is_acyclic() {
        let a = analyze(&Torus::new(&[4, 4]));
        assert!(a.is_acyclic(), "witnesses: {:?}", a.cycles);
    }

    #[test]
    fn unvirtualized_torus_has_ring_cycles_with_valid_witnesses() {
        let t = Torus::unvirtualized(&[4, 4]);
        let a = analyze(&t);
        // Every positive-direction ring closes its own cycle: 2 dims * 4
        // lines.  (At radix 4 the negative direction is only ever taken for
        // a single hop — forward distance 3 — so no worm chains two
        // consecutive negative channels and those rings stay edge-free.)
        assert_eq!(a.cycles.len(), 8, "cycles: {:?}", a.cycles);
        let edges = build_edges(&t);
        for cycle in &a.cycles {
            assert!(cycle.len() >= 2);
            assert_eq!(cycle.first(), cycle.last(), "witness not closed");
            // A 4-ring witness: 4 distinct channels + the closing repeat.
            assert_eq!(cycle.len(), 5, "{cycle:?}");
            for pair in cycle.windows(2) {
                assert!(
                    edges.contains(&(pair[0].0, pair[1].0)),
                    "witness edge {:?} -> {:?} not in the CDG",
                    pair[0],
                    pair[1]
                );
            }
        }
    }

    #[test]
    fn one_dimensional_unvirtualized_ring_has_two_cycles() {
        // One ring per direction, each spanning all 8 wrap channels.
        let a = analyze(&Torus::unvirtualized(&[8]));
        assert_eq!(a.cycles.len(), 2);
        for cycle in &a.cycles {
            assert_eq!(cycle.len(), 9, "{cycle:?}");
        }
    }
}
