//! The directed-channel graph underlying every topology.
//!
//! A *channel* is the unit of wormhole arbitration: a physical link direction,
//! an injection port (NI → router) or a consumption port (router → NI).  The
//! one-port architecture of the paper's experiments falls out naturally: each
//! node owns exactly one injection and one consumption channel.

use serde::{Deserialize, Serialize};

/// A processing node (compute node with its network interface).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct NodeId(pub u32);

/// A router / switch.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct RouterId(pub u32);

/// A directed channel — the resource a worm acquires hop by hop.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct ChannelId(pub u32);

impl NodeId {
    /// The raw index.
    pub fn idx(self) -> usize {
        self.0 as usize
    }
}

impl RouterId {
    /// The raw index.
    pub fn idx(self) -> usize {
        self.0 as usize
    }
}

impl ChannelId {
    /// The raw index.
    pub fn idx(self) -> usize {
        self.0 as usize
    }
}

/// One end of a channel.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Endpoint {
    /// A node's network interface.
    Node(NodeId),
    /// A router/switch port.
    Router(RouterId),
}

/// A directed channel with its two endpoints.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct Channel {
    /// Source endpoint (who drives flits into the channel).
    pub src: Endpoint,
    /// Destination endpoint (who receives flits from the channel).
    pub dst: Endpoint,
}

/// An immutable directed-channel graph.  Built once by a topology
/// constructor; the simulator and checkers only read it.
///
/// A node owns one or more injection channels (NI → router) and the same
/// number of consumption channels: the paper's experiments use the one-port
/// architecture (exactly one of each), while the multi-port ablation gives
/// every node several.
///
/// Port channels are stored flat and node-major: node `n` owns entries
/// `n * ports .. (n + 1) * ports` of each port array, in the order the
/// builder added them.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct NetworkGraph {
    n_nodes: usize,
    n_routers: usize,
    channels: Vec<Channel>,
    /// NI ports per node: uniform, at least one.
    ports: usize,
    /// Injection channels (NI → router), `ports` per node.
    injection: Vec<ChannelId>,
    /// Consumption channels (router → NI), `ports` per node.
    consumption: Vec<ChannelId>,
}

impl NetworkGraph {
    /// Start building a graph with `n_nodes` nodes and `n_routers` routers.
    pub fn builder(n_nodes: usize, n_routers: usize) -> NetworkGraphBuilder {
        NetworkGraphBuilder {
            n_nodes,
            n_routers,
            channels: Vec::new(),
            injection: Vec::with_capacity(n_nodes),
            consumption: Vec::with_capacity(n_nodes),
        }
    }

    fn port_range(&self, n: NodeId) -> std::ops::Range<usize> {
        n.idx() * self.ports..(n.idx() + 1) * self.ports
    }

    /// Number of nodes.
    pub fn n_nodes(&self) -> usize {
        self.n_nodes
    }

    /// Number of routers.
    pub fn n_routers(&self) -> usize {
        self.n_routers
    }

    /// Number of channels.
    pub fn n_channels(&self) -> usize {
        self.channels.len()
    }

    /// Look up a channel.
    ///
    /// # Panics
    /// If the id is out of range.
    pub fn channel(&self, c: ChannelId) -> Channel {
        self.channels[c.idx()]
    }

    /// The primary injection channel (NI → router) of `n`.
    pub fn injection(&self, n: NodeId) -> ChannelId {
        self.injection[n.idx() * self.ports]
    }

    /// All injection channels of `n` (one in the one-port architecture).
    pub fn injections(&self, n: NodeId) -> &[ChannelId] {
        &self.injection[self.port_range(n)]
    }

    /// The primary consumption channel (router → NI) of `n`.
    pub fn consumption(&self, n: NodeId) -> ChannelId {
        self.consumption[n.idx() * self.ports]
    }

    /// All consumption channels of `n`.
    pub fn consumptions(&self, n: NodeId) -> &[ChannelId] {
        &self.consumption[self.port_range(n)]
    }

    /// The NI port count (uniform across nodes by construction).
    pub fn ports(&self) -> usize {
        self.ports
    }

    /// The router a channel delivers into, or `None` for consumption
    /// channels (which deliver into a node).
    pub fn dst_router(&self, c: ChannelId) -> Option<RouterId> {
        match self.channel(c).dst {
            Endpoint::Router(r) => Some(r),
            Endpoint::Node(_) => None,
        }
    }

    /// The node a channel delivers into, if it is a consumption channel.
    pub fn dst_node(&self, c: ChannelId) -> Option<NodeId> {
        match self.channel(c).dst {
            Endpoint::Node(n) => Some(n),
            Endpoint::Router(_) => None,
        }
    }

    /// All channels (for analyses / statistics).
    pub fn channels(&self) -> &[Channel] {
        &self.channels
    }
}

/// Incremental builder for [`NetworkGraph`].
pub struct NetworkGraphBuilder {
    n_nodes: usize,
    n_routers: usize,
    channels: Vec<Channel>,
    /// `(node, channel)` per injection port, in insertion order.
    injection: Vec<(NodeId, ChannelId)>,
    /// `(node, channel)` per consumption port, in insertion order.
    consumption: Vec<(NodeId, ChannelId)>,
}

impl NetworkGraphBuilder {
    /// Add a router→router channel, returning its id.
    pub fn link(&mut self, from: RouterId, to: RouterId) -> ChannelId {
        assert!(from.idx() < self.n_routers && to.idx() < self.n_routers);
        self.push(Channel {
            src: Endpoint::Router(from),
            dst: Endpoint::Router(to),
        })
    }

    /// Add an injection channel for node `n` into router `r` (call several
    /// times for a multi-port NI).
    pub fn injection(&mut self, n: NodeId, r: RouterId) -> ChannelId {
        assert!(n.idx() < self.n_nodes, "node {} out of range", n.0);
        let c = self.push(Channel {
            src: Endpoint::Node(n),
            dst: Endpoint::Router(r),
        });
        self.injection.push((n, c));
        c
    }

    /// Add a consumption channel for node `n` from router `r`.
    pub fn consumption(&mut self, n: NodeId, r: RouterId) -> ChannelId {
        assert!(n.idx() < self.n_nodes, "node {} out of range", n.0);
        let c = self.push(Channel {
            src: Endpoint::Router(r),
            dst: Endpoint::Node(n),
        });
        self.consumption.push((n, c));
        c
    }

    fn push(&mut self, ch: Channel) -> ChannelId {
        let id = ChannelId(self.channels.len() as u32);
        self.channels.push(ch);
        id
    }

    /// Finish building.
    ///
    /// # Panics
    /// If any node lacks an injection or consumption channel, or port
    /// counts differ across nodes.
    pub fn build(self) -> NetworkGraph {
        let (injection, ports) = node_major(self.n_nodes, self.injection, "an injection");
        let (consumption, consumption_ports) =
            node_major(self.n_nodes, self.consumption, "a consumption");
        assert_eq!(
            ports, consumption_ports,
            "port count must be uniform across nodes"
        );
        NetworkGraph {
            n_nodes: self.n_nodes,
            n_routers: self.n_routers,
            channels: self.channels,
            ports,
            injection,
            consumption,
        }
    }
}

/// Flatten `(node, channel)` port pairs node-major, keeping each node's
/// insertion order, and return them with the per-node port count.
///
/// # Panics
/// If a node has no port, or port counts differ across nodes.
fn node_major(
    n_nodes: usize,
    mut pairs: Vec<(NodeId, ChannelId)>,
    kind: &str,
) -> (Vec<ChannelId>, usize) {
    // Stable, and linear on the node-ordered input every topology gives.
    pairs.sort_by_key(|&(n, _)| n);
    let ports = pairs.len() / n_nodes.max(1);
    let mut next = pairs.iter().map(|&(n, _)| n.idx()).peekable();
    for n in 0..n_nodes {
        let mut count = 0;
        while next.next_if_eq(&n).is_some() {
            count += 1;
        }
        assert!(count > 0, "node {n} lacks {kind} channel");
        assert_eq!(count, ports, "port count must be uniform across nodes");
    }
    (pairs.into_iter().map(|(_, c)| c).collect(), ports.max(1))
}

/// Do two channel paths share any channel?  Returns the first shared one.
/// Paths are short (≤ 2·diameter), so the quadratic scan beats hashing.
pub fn shared_channel(a: &[ChannelId], b: &[ChannelId]) -> Option<ChannelId> {
    a.iter().find(|c| b.contains(c)).copied()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> NetworkGraph {
        // Two nodes, two routers, one link each way.
        let mut b = NetworkGraph::builder(2, 2);
        b.injection(NodeId(0), RouterId(0));
        b.consumption(NodeId(0), RouterId(0));
        b.injection(NodeId(1), RouterId(1));
        b.consumption(NodeId(1), RouterId(1));
        b.link(RouterId(0), RouterId(1));
        b.link(RouterId(1), RouterId(0));
        b.build()
    }

    #[test]
    fn builder_wires_ports() {
        let g = tiny();
        assert_eq!(g.n_channels(), 6);
        assert_eq!(g.dst_router(g.injection(NodeId(0))), Some(RouterId(0)));
        assert_eq!(g.dst_node(g.consumption(NodeId(1))), Some(NodeId(1)));
        assert_eq!(g.dst_node(g.injection(NodeId(0))), None);
    }

    #[test]
    #[should_panic(expected = "lacks an injection")]
    fn missing_port_panics() {
        let mut b = NetworkGraph::builder(1, 1);
        b.consumption(NodeId(0), RouterId(0));
        b.build();
    }

    #[test]
    #[should_panic(expected = "lacks a consumption")]
    fn missing_consumption_panics() {
        let mut b = NetworkGraph::builder(2, 1);
        b.injection(NodeId(0), RouterId(0));
        b.injection(NodeId(1), RouterId(0));
        b.consumption(NodeId(1), RouterId(0));
        b.build();
    }

    #[test]
    #[should_panic(expected = "port count must be uniform")]
    fn non_uniform_ports_panic() {
        let mut b = NetworkGraph::builder(2, 1);
        b.injection(NodeId(0), RouterId(0));
        b.injection(NodeId(0), RouterId(0));
        b.injection(NodeId(1), RouterId(0));
        b.consumption(NodeId(0), RouterId(0));
        b.consumption(NodeId(1), RouterId(0));
        b.build();
    }

    #[test]
    fn ports_keep_insertion_order() {
        use crate::Topology;
        // A 3-port mesh adds (injection, consumption) pairs port by port,
        // node by node, so node n's ports are channels 6n .. 6n + 5.
        let mesh = crate::Mesh::with_ports(&[2, 2], 3);
        let g = mesh.graph();
        assert_eq!(g.ports(), 3);
        for n in 0..4u32 {
            let ids = |first: u32| [first, first + 2, first + 4].map(ChannelId);
            assert_eq!(g.injections(NodeId(n)), ids(6 * n));
            assert_eq!(g.consumptions(NodeId(n)), ids(6 * n + 1));
            assert_eq!(g.injection(NodeId(n)), ChannelId(6 * n));
            assert_eq!(g.consumption(NodeId(n)), ChannelId(6 * n + 1));
        }
        // Ports added out of node order land node-major, each node's in the
        // order it was added.
        let mut b = NetworkGraph::builder(2, 1);
        let mut added = [[Vec::new(), Vec::new()], [Vec::new(), Vec::new()]];
        for n in [1, 0, 0, 1] {
            added[n][0].push(b.injection(NodeId(n as u32), RouterId(0)));
            added[n][1].push(b.consumption(NodeId(n as u32), RouterId(0)));
        }
        let g = b.build();
        for (n, [inj, cons]) in added.iter().enumerate() {
            assert_eq!(g.injections(NodeId(n as u32)), inj.as_slice());
            assert_eq!(g.consumptions(NodeId(n as u32)), cons.as_slice());
        }
    }

    #[test]
    fn multi_port_builder() {
        let mut b = NetworkGraph::builder(1, 1);
        b.injection(NodeId(0), RouterId(0));
        b.injection(NodeId(0), RouterId(0));
        b.consumption(NodeId(0), RouterId(0));
        b.consumption(NodeId(0), RouterId(0));
        let g = b.build();
        assert_eq!(g.ports(), 2);
        assert_eq!(g.injections(NodeId(0)).len(), 2);
        assert_eq!(g.consumptions(NodeId(0)).len(), 2);
        assert_eq!(g.injection(NodeId(0)), g.injections(NodeId(0))[0]);
    }

    #[test]
    fn shared_channel_detection() {
        let p1 = [ChannelId(0), ChannelId(3), ChannelId(5)];
        let p2 = [ChannelId(1), ChannelId(5)];
        let p3 = [ChannelId(2), ChannelId(4)];
        assert_eq!(shared_channel(&p1, &p2), Some(ChannelId(5)));
        assert_eq!(shared_channel(&p1, &p3), None);
        assert_eq!(shared_channel(&[], &p1), None);
    }
}
