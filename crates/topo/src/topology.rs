//! The [`Topology`] trait — everything the simulator and the schedulers need
//! to know about a network.

use crate::graph::{ChannelId, NetworkGraph, NodeId, RouterId};
use crate::route_table::RouteTable;

/// Why a deterministic route could not be materialised.
///
/// Routing bugs used to surface as panics deep inside the contention
/// checker; static analysis wants them as *findings*, so the walk is
/// fallible and the panic lives only in the infallible convenience wrapper
/// [`Topology::det_path`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RoutingError {
    /// `src == dst` — a node does not route to itself.
    SelfRoute {
        /// The node in question.
        node: NodeId,
    },
    /// The routing function returned no candidate at an intermediate router.
    NoCandidate {
        /// Router where the worm was stranded.
        at: RouterId,
        /// Worm source.
        src: NodeId,
        /// Worm destination.
        dst: NodeId,
    },
    /// The walk exceeded the channel count without reaching a consumption
    /// channel — the routing function loops.
    NonTerminating {
        /// Worm source.
        src: NodeId,
        /// Worm destination.
        dst: NodeId,
        /// Number of hops taken before giving up (= channel count + 1).
        hops: usize,
    },
    /// The path ended on a consumption channel of the wrong node.
    WrongConsumption {
        /// Worm source.
        src: NodeId,
        /// Intended destination.
        dst: NodeId,
        /// Node actually reached (if the channel leads to one).
        reached: Option<NodeId>,
    },
}

impl std::fmt::Display for RoutingError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RoutingError::SelfRoute { node } => {
                write!(f, "no path from a node to itself ({node:?})")
            }
            RoutingError::NoCandidate { at, src, dst } => {
                write!(
                    f,
                    "routing {src:?} -> {dst:?} returned no candidate at {at:?}"
                )
            }
            RoutingError::NonTerminating { src, dst, hops } => {
                write!(
                    f,
                    "routing from {src:?} to {dst:?} did not terminate ({hops} hops)"
                )
            }
            RoutingError::WrongConsumption { src, dst, reached } => {
                write!(
                    f,
                    "routing {src:?} -> {dst:?} consumed at the wrong node ({reached:?})"
                )
            }
        }
    }
}

impl std::error::Error for RoutingError {}

/// A wormhole network: a channel graph plus a routing function and the
/// architecture-specific total order (chain) over nodes.
pub trait Topology: Send + Sync {
    /// The channel graph.
    fn graph(&self) -> &NetworkGraph;

    /// Append the preference-ordered candidate output channels at router `r`
    /// for a worm from `src` headed to `dest`.  Deterministic topologies
    /// yield exactly one candidate; the BMIN up-phase yields two.  When the
    /// worm has reached `dest`'s router the single candidate is the
    /// consumption channel.
    fn route_candidates(&self, r: RouterId, src: NodeId, dest: NodeId, out: &mut Vec<ChannelId>);

    /// The precomputed next-hop table for this instance, built lazily on
    /// first use and cached for the instance's lifetime (clones share it).
    /// Contract: [`RouteTable::candidates`] returns exactly what
    /// [`Topology::route_candidates`] would for every (router, src, dest)
    /// the routing function is defined on — the simulator routes through
    /// the table, the checkers through the dynamic function, and the
    /// differential tests in `tests/route_table.rs` pin the two together.
    fn route_table(&self) -> &RouteTable;

    /// The architecture's chain-ordering key: dimension-ordered (`<_d`) for
    /// meshes, lexicographic (binary address value) for BMINs.  Sorting nodes
    /// by this key yields the chain OPT-mesh/OPT-min split.
    fn chain_key(&self, n: NodeId) -> u64;

    /// Human-readable topology name for reports.
    fn name(&self) -> String;

    /// Fallible form of [`Topology::det_path`]: the deterministic path from
    /// `src` to `dst` following first-preference candidates, or a typed
    /// [`RoutingError`] when the routing function misbehaves.  Static
    /// analysis (`netcheck`) reports these as diagnostics instead of
    /// aborting.
    fn try_det_path(&self, src: NodeId, dst: NodeId) -> Result<Vec<ChannelId>, RoutingError> {
        if src == dst {
            return Err(RoutingError::SelfRoute { node: src });
        }
        let g = self.graph();
        let mut path = vec![g.injection(src)];
        let mut at = g
            .dst_router(g.injection(src))
            .expect("injection leads to a router");
        let mut cand = Vec::new();
        // A worm never needs more hops than channels exist.
        for _ in 0..=g.n_channels() {
            cand.clear();
            self.route_candidates(at, src, dst, &mut cand);
            let Some(&next) = cand.first() else {
                return Err(RoutingError::NoCandidate { at, src, dst });
            };
            path.push(next);
            match g.dst_router(next) {
                Some(r) => at = r,
                None => {
                    if g.dst_node(next) != Some(dst) {
                        return Err(RoutingError::WrongConsumption {
                            src,
                            dst,
                            reached: g.dst_node(next),
                        });
                    }
                    return Ok(path);
                }
            }
        }
        Err(RoutingError::NonTerminating {
            src,
            dst,
            hops: g.n_channels() + 1,
        })
    }

    /// The deterministic path from `src` to `dst`, injection and consumption
    /// channels inclusive, following first-preference candidates.  This is
    /// the path the static contention checker reasons about.
    ///
    /// # Panics
    /// If `src == dst` (a node does not route to itself) or routing fails to
    /// make progress (a topology bug).  Use [`Topology::try_det_path`] to
    /// get a typed error instead.
    fn det_path(&self, src: NodeId, dst: NodeId) -> Vec<ChannelId> {
        match self.try_det_path(src, dst) {
            Ok(p) => p,
            Err(e) => panic!("{e}"),
        }
    }

    /// Number of router-to-router hops on the deterministic path.
    fn distance(&self, src: NodeId, dst: NodeId) -> usize {
        if src == dst {
            0
        } else {
            // path = injection + (hops between routers) + consumption.
            self.det_path(src, dst).len().saturating_sub(2)
        }
    }

    /// Sort `nodes` into this topology's chain order (stable, by
    /// [`Topology::chain_key`]).
    fn sort_chain(&self, nodes: &mut [NodeId]) {
        nodes.sort_by_key(|&n| self.chain_key(n));
    }
}
