//! One multicast experiment, end to end.

use flitsim::{Engine, SimConfig, SimResult, TraceSink};
use mtree::Schedule;
use pcm::{MsgSize, Time};
use topo::{NodeId, Topology};

use crate::algorithm::Algorithm;
use crate::program::McastProgram;

/// Everything one run produces.
#[derive(Debug)]
pub struct RunOutcome {
    /// Observed multicast latency: root initiation → last receive
    /// completion, contention included.
    pub latency: Time,
    /// The analytic (contention-free) latency of the same tree under the
    /// `(t_hold, t_end)` the DP was fed — the theoretical lower bound the
    /// tuned algorithms are supposed to meet.
    pub analytic: Time,
    /// The `(t_hold, t_end)` pair used.
    pub pair: (Time, Time),
    /// The position-level schedule (for contention checking / plotting).
    pub schedule: Schedule,
    /// The participants in chain order.
    pub chain_nodes: Vec<NodeId>,
    /// Raw simulator result.
    pub sim: SimResult,
}

impl RunOutcome {
    /// Contention overhead: observed minus analytic, clamped at 0 (the
    /// paper's Figures 2–3 plot exactly this gap growing for
    /// U-mesh/OPT-tree).  The analytic bound folds a *mean* hop count into
    /// `t_end`, so integer rounding at small messages can push it above
    /// the observed latency; that anomaly is clamped here and logged as a
    /// [`flitsim::trace::TraceKind::Anomaly`] event by the runner (see
    /// [`RunOutcome::bound_anomaly`] for the raw gap).
    pub fn overhead(&self) -> Time {
        self.latency.saturating_sub(self.analytic)
    }

    /// The signed observed-minus-analytic gap (negative exactly when the
    /// bound anomaly occurred).
    pub fn overhead_signed(&self) -> i64 {
        self.latency as i64 - self.analytic as i64
    }

    /// Cycles by which the analytic bound exceeded the observed latency
    /// (`None` in the normal case where observed ≥ analytic).
    pub fn bound_anomaly(&self) -> Option<Time> {
        (self.analytic > self.latency).then(|| self.analytic - self.latency)
    }
}

/// Nominal hop count used to convert the simulator configuration into the
/// model's distance-insensitive `(t_hold, t_end)`: the mean deterministic
/// distance from the source to each destination.
pub fn nominal_hops(topo: &dyn Topology, participants: &[NodeId], src: NodeId) -> usize {
    let (mut sum, mut count) = (0usize, 0usize);
    for &n in participants.iter().filter(|&&n| n != src) {
        sum += topo.distance(src, n);
        count += 1;
    }
    if count == 0 {
        0
    } else {
        (sum as f64 / count as f64).round() as usize
    }
}

/// Run `algorithm` multicasting `bytes` from `src` to the other
/// `participants` over `topo` under `cfg`.
///
/// The model pair `(t_hold, t_end)` is derived from the simulator
/// configuration exactly as a user-level calibration would measure it
/// ([`SimConfig::effective_pair`]), then drives both the OPT-tree DP and the
/// analytic bound.
///
/// # Panics
/// If `participants` does not contain `src` or contains duplicates.
pub fn run_multicast(
    topo: &dyn Topology,
    cfg: &SimConfig,
    algorithm: Algorithm,
    participants: &[NodeId],
    src: NodeId,
    bytes: MsgSize,
) -> RunOutcome {
    run_multicast_with(topo, cfg, algorithm, participants, src, bytes, false)
}

/// Knobs beyond the basic experiment.
#[derive(Debug, Clone, Default)]
pub struct RunOptions {
    /// Pre-delay conflicting senders with the §6 temporal scheduler
    /// (see [`crate::temporal`]).
    pub temporal: bool,
    /// Override the NI port count *assumed by the model* when deriving
    /// `(t_hold, t_end)` for the DP.  `None` uses the topology's actual
    /// port count; forcing `Some(1)` on a multi-port network asks "what if
    /// we keep the conservative one-port model?" (ABL4).
    pub model_ports: Option<u64>,
}

/// [`run_multicast`] with the §6 *temporal ordering* switch: when `temporal`
/// is true, send initiations are pre-delayed by the channel-reservation
/// scheduler in [`crate::temporal`] so conflicting senders never transmit
/// simultaneously — the strategy for networks (like the unidirectional MIN)
/// that no node ordering can make contention-free.
pub fn run_multicast_with(
    topo: &dyn Topology,
    cfg: &SimConfig,
    algorithm: Algorithm,
    participants: &[NodeId],
    src: NodeId,
    bytes: MsgSize,
    temporal: bool,
) -> RunOutcome {
    run_multicast_opts(
        topo,
        cfg,
        algorithm,
        participants,
        src,
        bytes,
        &RunOptions {
            temporal,
            ..RunOptions::default()
        },
    )
}

/// The fully-configurable experiment runner.
pub fn run_multicast_opts(
    topo: &dyn Topology,
    cfg: &SimConfig,
    algorithm: Algorithm,
    participants: &[NodeId],
    src: NodeId,
    bytes: MsgSize,
    opts: &RunOptions,
) -> RunOutcome {
    run_multicast_observed(topo, cfg, algorithm, participants, src, bytes, opts, None)
}

/// [`run_multicast_opts`] with an explicit engine observer.  `observer`
/// (any [`TraceSink`] arm — bounded memory, streaming JSONL, custom hooks)
/// replaces whatever [`SimConfig::trace`] would have selected; `None`
/// keeps the config-derived default.  This is what `optmc inspect` uses to
/// stream traces without holding them in memory.
#[allow(clippy::too_many_arguments)]
pub fn run_multicast_observed(
    topo: &dyn Topology,
    cfg: &SimConfig,
    algorithm: Algorithm,
    participants: &[NodeId],
    src: NodeId,
    bytes: MsgSize,
    opts: &RunOptions,
    observer: Option<TraceSink>,
) -> RunOutcome {
    let temporal = opts.temporal;
    let k = participants.len();
    let hops = nominal_hops(topo, participants, src);
    let ports = opts.model_ports.unwrap_or(topo.graph().ports() as u64);
    let (hold, end) = cfg.effective_pair_ports(hops, bytes, ports);
    let chain = algorithm.chain(topo, participants, src);
    let splits = algorithm.splits(hold, end, k.max(2));
    let (schedule, timing) = if temporal && k >= 2 {
        // The worm enters the network t_send after initiation — the lead
        // lets the scheduler overlap a send's software phase with the
        // predecessor's drain.
        let lead = cfg.software.t_send.eval(bytes);
        let t =
            crate::temporal::temporal_schedule_with_lead(topo, &chain, &splits, hold, end, lead);
        (t.schedule, Some(t.not_before))
    } else {
        (
            Schedule::build(k, chain.src_pos(), &splits, hold, end),
            None,
        )
    };
    let analytic = schedule.latency();
    let chain_nodes = chain.nodes().to_vec();

    let mut program = McastProgram::new(chain, splits, bytes, topo.graph().n_nodes())
        .with_addr_overhead(cfg.addr_bytes);
    if let Some(times) = timing {
        program = program.with_timing(times);
    }
    let root = program.root();
    let first = program.root_sends();
    let mut engine = Engine::new(topo, cfg.clone(), program);
    if let Some(sink) = observer {
        engine.set_observer(sink);
    }
    engine.start(root, 0, first);
    let (program, sim) = engine.run();
    assert_eq!(
        program.deliveries(),
        program.n_dests(),
        "multicast did not reach everyone"
    );

    // A single-node multicast has no destinations and finishes at 0.
    let latency = sim.last_completion().unwrap_or(0);
    let mut sim = sim;
    if latency < analytic {
        // The distance-insensitive model rounded the bound above the
        // observed latency — log it through the observer stream so the
        // anomaly is visible in traces and reports instead of silently
        // producing a negative overhead.
        sim.trace.push(flitsim::trace::TraceEvent {
            t: latency,
            worm: 0,
            channel: None,
            node: None,
            kind: flitsim::trace::TraceKind::Anomaly,
        });
    }
    RunOutcome {
        latency,
        analytic,
        pair: (hold, end),
        schedule,
        chain_nodes,
        sim,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use topo::{Bmin, Mesh, UpPolicy};

    fn mesh_participants() -> Vec<NodeId> {
        // 8 nodes of a 6x6 mesh, scattered.
        [0u32, 3, 8, 14, 20, 23, 29, 35].map(NodeId).to_vec()
    }

    #[test]
    fn opt_mesh_meets_analytic_bound() {
        let m = Mesh::new(&[6, 6]);
        let cfg = SimConfig::paragon_like();
        let out = run_multicast(
            &m,
            &cfg,
            Algorithm::OptArch,
            &mesh_participants(),
            NodeId(0),
            1024,
        );
        assert_eq!(out.sim.messages.len(), 7);
        // Contention-free (Theorem 1) …
        assert!(
            out.sim.contention_free(),
            "blocked {} cycles",
            out.sim.blocked_cycles
        );
        // … and within the distance-sensitivity slack of the bound: the
        // model folds a *mean* hop count into t_end, individual paths vary
        // by at most the network diameter of extra head cycles.
        let slack = 2 * 12 * cfg.router_delay;
        assert!(
            (out.latency as i64 - out.analytic as i64).unsigned_abs() <= slack,
            "latency {} vs analytic {}",
            out.latency,
            out.analytic
        );
    }

    #[test]
    fn u_mesh_matches_binomial_shape() {
        let m = Mesh::new(&[6, 6]);
        let cfg = SimConfig::paragon_like();
        let out = run_multicast(
            &m,
            &cfg,
            Algorithm::UArch,
            &mesh_participants(),
            NodeId(0),
            1024,
        );
        assert!(out.sim.contention_free(), "U-mesh is contention-free too");
        // But its tree is worse: analytic latency strictly above OPT's.
        let opt = run_multicast(
            &m,
            &cfg,
            Algorithm::OptArch,
            &mesh_participants(),
            NodeId(0),
            1024,
        );
        assert!(
            out.analytic > opt.analytic,
            "{} vs {}",
            out.analytic,
            opt.analytic
        );
    }

    #[test]
    fn opt_min_on_bmin_runs_clean() {
        let b = Bmin::new(5, UpPolicy::Straight);
        let cfg = SimConfig::paragon_like();
        let parts: Vec<NodeId> = [0u32, 3, 7, 12, 15, 18, 22, 25, 28, 31]
            .map(NodeId)
            .to_vec();
        let out = run_multicast(&b, &cfg, Algorithm::OptArch, &parts, NodeId(12), 2048);
        assert_eq!(out.sim.messages.len(), 9);
        assert!(
            out.overhead_signed().unsigned_abs() <= 60,
            "overhead {}",
            out.overhead_signed()
        );
    }

    #[test]
    fn overhead_clamps_and_logs_bound_anomalies() {
        let m = Mesh::new(&[4, 4]);
        let cfg = SimConfig::paragon_like();
        let mut out = run_multicast(
            &m,
            &cfg,
            Algorithm::OptArch,
            &[NodeId(0), NodeId(5)],
            NodeId(0),
            64,
        );
        // Force the rounding anomaly: analytic bound above observed.
        out.analytic = out.latency + 7;
        assert_eq!(out.overhead(), 0, "clamped at zero");
        assert_eq!(out.overhead_signed(), -7);
        assert_eq!(out.bound_anomaly(), Some(7));
        // The normal case stays a plain difference.
        out.analytic = out.latency.saturating_sub(3);
        assert_eq!(out.overhead(), 3);
        assert_eq!(out.bound_anomaly(), None);
    }

    #[test]
    fn bound_anomaly_is_logged_through_the_observer_stream() {
        use flitsim::trace::TraceKind;
        // A degenerate single-participant multicast delivers nothing and
        // finishes at 0, while the analytic schedule of one node is 0 too —
        // craft an anomalous run instead by shrinking the message under the
        // software constant so rounding can bite.  Scan a few small cells
        // and require that every negative raw gap comes with an Anomaly
        // trace event (and every non-negative one does not).
        let m = Mesh::new(&[6, 6]);
        let cfg = SimConfig::paragon_like();
        for k in [2usize, 3, 4] {
            for seed in 0..4u64 {
                let parts = crate::experiments::random_placement(36, k, seed);
                let out = run_multicast(&m, &cfg, Algorithm::OptArch, &parts, parts[0], 0);
                let logged = out
                    .sim
                    .trace
                    .iter()
                    .filter(|e| e.kind == TraceKind::Anomaly)
                    .count();
                if out.latency < out.analytic {
                    assert_eq!(logged, 1, "anomalous run must log exactly one event");
                } else {
                    assert_eq!(logged, 0, "clean run must not log anomalies");
                }
            }
        }
    }

    #[test]
    fn two_node_multicast_is_one_send() {
        let m = Mesh::new(&[4, 4]);
        let cfg = SimConfig::paragon_like();
        let parts = [NodeId(0), NodeId(9)];
        let out = run_multicast(&m, &cfg, Algorithm::OptArch, &parts, NodeId(0), 256);
        assert_eq!(out.sim.messages.len(), 1);
        assert!(out.sim.contention_free());
    }

    #[test]
    fn nominal_hops_is_mean_distance() {
        let m = Mesh::new(&[6, 6]);
        let parts = [NodeId(0), NodeId(1), NodeId(3)];
        // Distances from 0: 1 and 3 → mean 2.
        assert_eq!(nominal_hops(&m, &parts, NodeId(0)), 2);
    }
}
