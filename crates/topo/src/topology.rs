//! The [`Topology`] trait — everything the simulator and the schedulers need
//! to know about a network.

use crate::graph::{ChannelId, Hop, NetworkGraph, NodeId, RouterId};

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

    /// Append the preference-ordered candidate hops at router `r` for a
    /// worm from `src` headed to `dest`: each output channel with the
    /// router it enters.  Deterministic topologies yield exactly one
    /// candidate; the BMIN up-phase yields two.  When the worm has reached
    /// `dest`'s router the candidates are its consumption channels, which
    /// enter no router.
    ///
    /// The simulator calls this once per hop of every worm, so every family
    /// computes it in closed form from the router and node indices and
    /// allocates nothing beyond what it appends to `out`.
    fn route_candidates(&self, r: RouterId, src: NodeId, dest: NodeId, out: &mut Vec<Hop>);

    /// Does nothing: there is no route table, every hop is routed by
    /// [`Topology::route_candidates`].  Kept only because the benchmark
    /// under `perfbench/` still calls it; delete it once the benchmark
    /// stops (ROADMAP item 3, benchmark follow-up).
    fn route_table(&self) {}

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
        let mut path = Vec::new();
        self.det_path_into(src, dst, &mut path, &mut Vec::new())?;
        Ok(path)
    }

    /// [`Topology::try_det_path`] into `path`, with `cand` as the routing
    /// scratch: both are cleared first and keep their buffers, so a caller
    /// walking many paths allocates nothing once they are large enough.
    /// On an error `path` holds the walk up to the failure.
    fn det_path_into(
        &self,
        src: NodeId,
        dst: NodeId,
        path: &mut Vec<ChannelId>,
        cand: &mut Vec<Hop>,
    ) -> Result<(), RoutingError> {
        path.clear();
        if src == dst {
            return Err(RoutingError::SelfRoute { node: src });
        }
        let g = self.graph();
        path.push(g.injection(src));
        let mut at = g
            .injection_hops(src)
            .next()
            .and_then(|h| h.next)
            .expect("injection leads to a router");
        // A worm never needs more hops than channels exist.
        for _ in 0..=g.n_channels() {
            cand.clear();
            self.route_candidates(at, src, dst, cand);
            let Some(&hop) = cand.first() else {
                return Err(RoutingError::NoCandidate { at, src, dst });
            };
            path.push(hop.channel);
            match hop.next {
                Some(r) => at = r,
                None => {
                    if !g.consumptions(dst).any(|c| c == hop.channel) {
                        return Err(RoutingError::WrongConsumption {
                            src,
                            dst,
                            reached: g.dst_node(hop.channel),
                        });
                    }
                    return Ok(());
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

    /// Number of router-to-router hops on the deterministic path
    /// (`det_path(src, dst).len() - 2`), and 0 when `src == dst`.  Every
    /// family gives it in closed form, without walking the path.
    fn distance(&self, src: NodeId, dst: NodeId) -> usize;

    /// Sort `nodes` into this topology's chain order (stable, by
    /// [`Topology::chain_key`], computed once per node).
    fn sort_chain(&self, nodes: &mut [NodeId]) {
        nodes.sort_by_cached_key(|&n| self.chain_key(n));
    }
}
