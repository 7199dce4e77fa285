//! # `topo` — wormhole network topologies
//!
//! The two network architectures the paper tunes for, plus the graph- and
//! routing-level machinery the flit-level simulator (`flitsim`) and the
//! static contention checker (`optmc`) need:
//!
//! * [`mesh::Mesh`] — an n-dimensional mesh with dimension-ordered (e-cube;
//!   XY in 2-D) routing, the topology of the Intel Paragon.  Provides the
//!   **dimension-ordered chain** (`<_d` of paper §3) used by U-mesh and
//!   OPT-mesh.
//! * [`bmin::Bmin`] — a bidirectional multistage interconnection network
//!   built from 2×2 switches with turnaround routing, the topology of the
//!   IBM SP series.  Provides the **lexicographic chain** (paper §4) used by
//!   U-min and OPT-min, and both deterministic and adaptive up-phase routing
//!   (the "extra paths" §5 credits for BMIN's milder contention).
//! * [`graph::NetworkGraph`] — the directed-channel graph shared by all
//!   topologies: every physical link, injection port and consumption port is
//!   a *channel*, the unit of wormhole arbitration and hence of contention.
//! * [`topology::Topology`] — the trait the simulator routes through.
//!
//! Channels are the load-bearing abstraction: wormhole switching reserves
//! whole channels for the duration of a worm's passage, so "two multicasts
//! conflict" is exactly "two concurrently live worms want the same
//! [`graph::ChannelId`]".
//!
//! ```
//! use topo::{Mesh, NodeId, Topology};
//!
//! let mesh = Mesh::new(&[16, 16]);                  // the paper's network
//! let (a, b) = (mesh.node_at(&[0, 0]), mesh.node_at(&[3, 2]));
//! assert_eq!(mesh.distance(a, b), 5);               // XY: 3 east + 2 north
//!
//! // The dimension-ordered chain OPT-mesh sorts participants into:
//! let mut nodes = vec![b, a, mesh.node_at(&[1, 5])];
//! mesh.sort_chain(&mut nodes);
//! assert_eq!(nodes[0], a);
//! ```

#![forbid(unsafe_code)]

pub mod bmin;
pub mod chain;
pub mod graph;
pub mod mesh;
pub mod omega;
pub mod route_table;
pub mod topology;
pub mod torus;

pub use bmin::{Bmin, UpPolicy};
pub use chain::{Chain, ChainError};
pub use graph::{Channel, ChannelId, Endpoint, NetworkGraph, NodeId, RouterId};
pub use mesh::Mesh;
pub use omega::Omega;
pub use route_table::{RouteCache, RouteTable, RouteTableBuilder};
pub use topology::{RoutingError, Topology};
pub use torus::Torus;
