//! The directed-channel graph underlying every topology.
//!
//! A *channel* is the unit of wormhole arbitration: a physical link direction,
//! an injection port (NI → router) or a consumption port (router → NI).  The
//! one-port architecture of the paper's experiments falls out naturally: each
//! node owns exactly one injection and one consumption channel.
//!
//! Every family numbers its channels in closed form, so the graph is its
//! shape and nothing more: ids are computed, never looked up.

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

/// One routing choice: a channel and the router it delivers into.
///
/// [`crate::Topology::route_candidates`] hands these out, so a worm learns
/// where a hop leads from the routing call itself and never decodes a
/// channel id on its way.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Hop {
    /// The channel to acquire.
    pub channel: ChannelId,
    /// The router `channel` delivers into, or `None` for a consumption
    /// channel (which delivers into its node).
    pub next: Option<RouterId>,
}

/// How a family numbers its router-to-router links.  Each family's own
/// module holds both directions of its numbering: the id of a link from its
/// position (used by routing) and the position from an id (used here).
#[derive(Debug, Clone)]
pub(crate) enum Links {
    Mesh(crate::mesh::MeshLinks),
    Torus(crate::torus::TorusLinks),
    Bmin(crate::bmin::BminLinks),
    Omega(crate::omega::OmegaLinks),
}

impl Links {
    /// Number of links.
    fn count(&self) -> usize {
        match self {
            Links::Mesh(l) => l.count(),
            Links::Torus(l) => l.count(),
            Links::Bmin(l) => l.count(),
            Links::Omega(l) => l.count(),
        }
    }

    /// `(from, to)` routers of the link at offset `off` past the port
    /// channels.
    fn ends(&self, off: usize) -> (RouterId, RouterId) {
        match self {
            Links::Mesh(l) => l.ends(off),
            Links::Torus(l) => l.ends(off),
            Links::Bmin(l) => l.ends(off),
            Links::Omega(l) => l.ends(off),
        }
    }

    /// The router node `n`'s injection (or consumption) channels attach to:
    /// its own router in a direct network, the stage-0 switch `n / 2` of a
    /// BMIN.
    fn port_router(&self, n: NodeId, consumption: bool) -> RouterId {
        match self {
            Links::Mesh(_) | Links::Torus(_) => RouterId(n.0),
            Links::Bmin(_) => RouterId(n.0 >> 1),
            Links::Omega(l) => l.port_router(n, consumption),
        }
    }
}

/// An immutable directed-channel graph, numbered by arithmetic on the
/// network's shape: it stores the shape, never a per-channel table, so
/// building one costs O(dimensions) at any network size (a mesh adds one
/// link prefix per router).
///
/// A node owns one or more injection channels (NI → router) and the same
/// number of consumption channels: the paper's experiments use the one-port
/// architecture (exactly one of each), while the multi-port ablation gives
/// every node several.
///
/// The numbering (DESIGN.md §11, "Port layout"): the `2 · n · ports` port
/// channels come first, node-major, port `p` of node `i` as injection
/// `2(i · ports + p)` and consumption `2(i · ports + p) + 1`; the family's
/// router-to-router links follow.
#[derive(Debug, Clone)]
pub struct NetworkGraph {
    n_nodes: usize,
    n_routers: usize,
    /// NI ports per node: uniform, at least one.
    ports: usize,
    links: Links,
}

impl NetworkGraph {
    /// A graph of `n_nodes` nodes with `ports` NI ports each, whose
    /// routers and links `links` numbers.
    pub(crate) fn new(n_nodes: usize, n_routers: usize, ports: usize, links: Links) -> Self {
        let g = Self {
            n_nodes,
            n_routers,
            ports,
            links,
        };
        assert!(
            u32::try_from(g.n_channels()).is_ok(),
            "channel ids must fit in 32 bits"
        );
        g
    }

    /// Number of nodes.
    pub fn n_nodes(&self) -> usize {
        self.n_nodes
    }

    /// Number of routers.
    pub fn n_routers(&self) -> usize {
        self.n_routers
    }

    /// Number of port channels, which take the ids below the links.
    fn port_channels(&self) -> usize {
        2 * self.n_nodes * self.ports
    }

    /// Number of channels.
    pub fn n_channels(&self) -> usize {
        self.port_channels() + self.links.count()
    }

    /// Decode a channel id into its endpoints.
    ///
    /// # Panics
    /// If the id is out of range.
    pub fn channel(&self, c: ChannelId) -> Channel {
        assert!(c.idx() < self.n_channels(), "channel {} out of range", c.0);
        if c.idx() < self.port_channels() {
            let n = NodeId((c.idx() / (2 * self.ports)) as u32);
            let consumption = c.0 & 1 == 1;
            let node = Endpoint::Node(n);
            let router = Endpoint::Router(self.links.port_router(n, consumption));
            let (src, dst) = if consumption {
                (router, node)
            } else {
                (node, router)
            };
            Channel { src, dst }
        } else {
            let (from, to) = self.links.ends(c.idx() - self.port_channels());
            Channel {
                src: Endpoint::Router(from),
                dst: Endpoint::Router(to),
            }
        }
    }

    /// The primary injection channel (NI → router) of `n`.
    pub fn injection(&self, n: NodeId) -> ChannelId {
        ChannelId((2 * n.idx() * self.ports) as u32)
    }

    /// All injection channels of `n` (one in the one-port architecture).
    pub fn injections(&self, n: NodeId) -> impl ExactSizeIterator<Item = ChannelId> {
        let first = self.injection(n).0;
        (0..self.ports as u32).map(move |p| ChannelId(first + 2 * p))
    }

    /// `n`'s injection channels as hops into its router.
    pub fn injection_hops(&self, n: NodeId) -> impl ExactSizeIterator<Item = Hop> {
        let next = Some(self.links.port_router(n, false));
        self.injections(n).map(move |channel| Hop { channel, next })
    }

    /// The primary consumption channel (router → NI) of `n`.
    pub fn consumption(&self, n: NodeId) -> ChannelId {
        ChannelId(self.injection(n).0 + 1)
    }

    /// All consumption channels of `n`.
    pub fn consumptions(&self, n: NodeId) -> impl ExactSizeIterator<Item = ChannelId> {
        self.injections(n).map(|c| ChannelId(c.0 + 1))
    }

    /// `n`'s consumption channels as the final hops of a route.
    pub fn consumption_hops(&self, n: NodeId) -> impl ExactSizeIterator<Item = Hop> {
        self.consumptions(n).map(|channel| Hop {
            channel,
            next: None,
        })
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

    /// All channels in id order, decoded one by one (for analyses and
    /// statistics).
    pub fn channels(&self) -> impl ExactSizeIterator<Item = Channel> + '_ {
        (0..self.n_channels() as u32).map(|c| self.channel(ChannelId(c)))
    }
}

/// Do two channel paths share any channel?  Returns the first shared one.
/// Paths are short (≤ 2·diameter), so the quadratic scan beats hashing.
pub fn shared_channel(a: &[ChannelId], b: &[ChannelId]) -> Option<ChannelId> {
    a.iter().find(|c| b.contains(c)).copied()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Mesh, Topology};

    #[test]
    fn ports_keep_insertion_order() {
        // A 3-port mesh numbers (injection, consumption) pairs port by
        // port, node by node, so node n's ports are channels 6n .. 6n + 5.
        let mesh = Mesh::with_ports(&[2, 2], 3);
        let g = mesh.graph();
        assert_eq!(g.ports(), 3);
        for n in 0..4u32 {
            let ids = |first: u32| [first, first + 2, first + 4].map(ChannelId);
            assert!(g.injections(NodeId(n)).eq(ids(6 * n)));
            assert!(g.consumptions(NodeId(n)).eq(ids(6 * n + 1)));
            assert_eq!(g.injection(NodeId(n)), ChannelId(6 * n));
            assert_eq!(g.consumption(NodeId(n)), ChannelId(6 * n + 1));
            for c in g.injections(NodeId(n)) {
                assert_eq!(g.dst_router(c), Some(RouterId(n)));
                assert_eq!(g.dst_node(c), None);
            }
            for c in g.consumptions(NodeId(n)) {
                assert_eq!(g.dst_node(c), Some(NodeId(n)));
            }
        }
        // The links follow the 24 port channels.
        assert_eq!(g.n_channels(), 24 + 8);
        assert_eq!(
            g.channel(ChannelId(24)),
            Channel {
                src: Endpoint::Router(RouterId(0)),
                dst: Endpoint::Router(RouterId(1)),
            }
        );
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn channel_past_the_end_panics() {
        let g = Mesh::new(&[2]).graph().clone();
        g.channel(ChannelId(g.n_channels() as u32));
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
