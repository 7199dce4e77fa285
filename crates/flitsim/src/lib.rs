//! # `flitsim` — a flit-level wormhole network simulator
//!
//! The substrate the paper's evaluation runs on (§5: "we implement a
//! flit-level simulator for both wormhole-switched mesh and
//! wormhole-switched BMIN topologies").  The authors' simulator was never
//! released; this is a from-scratch event-driven reimplementation of the
//! mechanisms the paper depends on:
//!
//! * **Wormhole switching.**  A message is a *worm* of `L` flits.  The head
//!   flit acquires directed channels hop by hop (`router_delay` cycles per
//!   hop); body flits stream behind at one flit per cycle through single-flit
//!   channel buffers; a blocked head *holds every channel it has acquired*
//!   until the tail passes — the mechanism that turns scheduling mistakes
//!   into the contention the paper studies.
//! * **One-port architecture.**  Each node owns exactly one injection and
//!   one consumption channel (paper §5), so outgoing and incoming messages
//!   serialise at the network interface.
//! * **Software layer.**  Send operations charge `t_hold(m)` of CPU
//!   occupancy (gating back-to-back sends) and `t_send(m)` of latency before
//!   the first flit enters the network; receivers complete `t_recv(m)` after
//!   consuming the tail flit.  These are the parameters of the `pcm` model,
//!   so a simulated machine can be *measured* exactly like real hardware.
//! * **Adaptive routing hooks.**  Topologies expose preference-ordered
//!   candidate channels; with [`SimConfig::adaptive`] the head takes the
//!   first *free* candidate (the BMIN's turnaround up-phase), otherwise it
//!   waits for the first-preference channel (deterministic XY).
//!
//! Programs (the software under test — here, unicast-based multicast) hook
//! in through the [`Program`] trait: the engine calls
//! [`Program::on_receive`] when a message completes and injects whatever
//! sends the program returns.
//!
//! ## Timing model fidelity
//!
//! The engine is event-driven but cycle-accurate for head movement, channel
//! occupancy and drain bandwidth under the default `router_delay = 1`.  Two
//! documented approximations: body flits are assumed packed immediately
//! behind the head (ideal backpressure propagation — channel release can be
//! pessimistic by at most a stall duration), and drain proceeds at one
//! flit/cycle once the head reaches the consumption channel (exact for
//! `router_delay = 1`).
//!
//! ```
//! use flitsim::{Engine, SendReq, SimConfig};
//! use flitsim::program::SinkProgram;
//! use topo::{Mesh, NodeId, Topology};
//!
//! let mesh = Mesh::new(&[16, 16]);
//! let cfg = SimConfig::paragon_like();
//! let mut engine = Engine::new(&mesh, cfg.clone(), SinkProgram);
//! engine.start(NodeId(0), 0, vec![SendReq::to(NodeId(255), 4096, ())]);
//! let (_, result) = engine.run();
//!
//! // On an idle network the simulator reproduces the analytic latency
//! // exactly — the consistency the whole methodology rests on.
//! let hops = mesh.distance(NodeId(0), NodeId(255));
//! assert_eq!(result.messages[0].latency(), cfg.predict_p2p(hops, 4096));
//! ```

#![forbid(unsafe_code)]

pub mod config;
pub mod engine;
mod equeue;
pub mod heatmap;
pub mod metrics;
pub mod obs;
pub mod perfetto;
pub mod program;
pub mod stats;
pub mod trace;

pub use config::{SimConfig, SoftwareModel};
pub use engine::{Engine, Sim};
pub use obs::{EventCounts, Histogram, Metrics, Observer, PhaseBreakdown, RunMeta, TraceSink};
pub use program::{Program, SendReq};
pub use stats::{ChannelTelemetry, ChannelTotals, MessageRecord, SimResult};

/// Simulation time in cycles (shared with the `pcm` model).
pub type Time = pcm::Time;
