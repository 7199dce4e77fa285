//! # `optmc` — architecture-tuned optimal multicasting
//!
//! The paper's contribution, assembled from the substrate crates:
//!
//! * [`Algorithm`] — the five multicast algorithms of the evaluation
//!   (OPT-mesh, OPT-min, U-mesh, U-min, OPT-tree) plus the sequential-tree
//!   baseline, expressed as *(chain ordering) × (split rule)*:
//!
//!   | algorithm | chain order              | split rule  |
//!   |-----------|--------------------------|-------------|
//!   | OPT-mesh  | dimension-ordered (§3)   | OPT-tree DP |
//!   | OPT-min   | lexicographic (§4)       | OPT-tree DP |
//!   | U-mesh    | dimension-ordered        | binomial    |
//!   | U-min     | lexicographic            | binomial    |
//!   | OPT-tree  | placement (arbitrary)    | OPT-tree DP |
//!   | seq-tree  | placement                | peel-one    |
//!
//! * [`program::McastProgram`] — the runtime of Algorithms 3.1/4.1: each
//!   receiver gets the address sub-range it is responsible for and issues
//!   the next round of sends; runs unmodified on any `flitsim` topology.
//! * [`runner::run_multicast`] — one experiment: build the chain, feed the
//!   measured `(t_hold, t_end)` pair to the DP, execute on the flit-level
//!   simulator, return observed latency + the analytic lower bound.
//! * [`contention::check_schedule_windowed`] — the static checker: replay
//!   a schedule under the engine's timing and report every pair of sends
//!   holding one channel at the same time.  (Theorems 1 and 2 say "never"
//!   for OPT-mesh/OPT-min.)  Its scan, [`contention::scan_windows`], also
//!   serves `netcheck`'s schedule sets: one multicast is a set of one.
//! * [`measure`] — user-level calibration *inside the simulator*: ping for
//!   `t_end(m)`, send bursts for `t_hold(m)`, then `pcm::calibrate` fits the
//!   model exactly as the authors' methodology prescribes.
//! * [`experiments`] — seeded random placements and multi-trial averaging
//!   (the paper's 16-repetition protocol).
//! * [`gather`] — the dual collective over the same trees.
//! * [`temporal`] — §6's temporal contention avoidance for networks that
//!   cannot be partitioned (unidirectional MINs, tori).
//!
//! ```
//! use flitsim::SimConfig;
//! use optmc::{run_multicast, Algorithm};
//! use topo::{Mesh, NodeId};
//!
//! let mesh = Mesh::new(&[16, 16]);
//! let cfg = SimConfig::paragon_like();
//! let parts: Vec<NodeId> = (0..16u32).map(|i| NodeId(i * 16 + i)).collect();
//!
//! let out = run_multicast(&mesh, &cfg, Algorithm::OptArch, &parts, parts[0], 4096);
//! assert!(out.sim.contention_free());   // Theorem 1, operationally
//! let u = run_multicast(&mesh, &cfg, Algorithm::UArch, &parts, parts[0], 4096);
//! assert!(u.latency > out.latency);     // the binomial tree loses
//! ```

#![forbid(unsafe_code)]

pub mod algorithm;
pub mod concurrent;
pub mod contention;
pub mod experiments;
pub mod gather;
pub mod measure;
pub mod program;
pub mod runner;
pub mod scatter;
pub mod spec;
pub mod temporal;

pub use algorithm::Algorithm;
pub use concurrent::{run_concurrent, McastSpec};
pub use contention::{
    check_schedule_windowed, occupancy_windows, scan_windows, ChannelWindow, OccupancyParams,
    WindowConflict,
};
pub use experiments::{
    placement_stream, random_placement, run_trials_detailed, splitmix64, trial_seed, TrialOutcome,
    TrialStats,
};
pub use gather::{run_gather, GatherOutcome};
pub use runner::{
    run_multicast, run_multicast_observed, run_multicast_opts, run_multicast_with, RunOptions,
    RunOutcome,
};
pub use scatter::{run_scatter, ScatterOutcome};
pub use temporal::{temporal_schedule, TemporalSchedule};
