//! The traced run's copies of the wrappers it decomposes.
//!
//! Each function here makes the same layer calls, in the same order, as
//! the public wrapper it mirrors — `optmc::run_multicast`,
//! `campaign::pool::run_cell` and `plansvc::compute_plan` — but wraps
//! every call in a span.  The copies must keep producing exactly what the
//! wrappers produce; `tests/selftest.rs` and every traced op compare the
//! two, so a change to a wrapper that this copy misses shows as a failed
//! op instead of a silently different measurement.

use campaign::Cell;
use flitsim::trace::{TraceEvent, TraceKind};
use flitsim::{Engine, SimConfig};
use mtree::Schedule;
use netcheck::{analyze_set, PlanCertificate, ScheduleSet};
use optmc::program::McastProgram;
use optmc::runner::nominal_hops;
use optmc::{
    placement_stream, random_placement, trial_seed, Algorithm, McastSpec, RunOutcome, TrialOutcome,
};
use pcm::MsgSize;
use plansvc::{PlanBody, PlanOptions, PlanRequest};
use topo::{NodeId, Topology};

use crate::trace::Tracer;

/// Current resident set size in MiB (0 where `/proc` is unavailable).
fn rss_mib() -> f64 {
    proc_status_kib("VmRSS:") / 1024.0
}

/// Peak resident set size of this process in MiB (`VmHWM`).
pub(crate) fn peak_rss_mib() -> f64 {
    proc_status_kib("VmHWM:") / 1024.0
}

fn proc_status_kib(field: &str) -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix(field))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        })
        .unwrap_or(0.0)
}

/// Force the topology's route table inside a `topo.route_table` span,
/// counting the RSS growth it causes under `mib_counter`.
pub fn route_table(topo: &dyn Topology, tr: &mut Tracer, mib_counter: &'static str) {
    let before = if tr.enabled() { rss_mib() } else { 0.0 };
    tr.span("topo.route_table", |_| {
        std::hint::black_box(topo.route_table());
    });
    if tr.enabled() {
        tr.count(mib_counter, rss_mib() - before);
    }
}

/// Count the engine's own figures for one simulation.
pub fn count_sim(tr: &mut Tracer, sim: &flitsim::SimResult) {
    tr.count("flitsim.runs", 1.0);
    tr.count("flitsim.events", sim.meta.events_processed as f64);
    tr.count("flitsim.peak_heap_events", sim.meta.peak_heap_events as f64);
    tr.count("flitsim.blocked_cycles", sim.blocked_cycles as f64);
}

/// `optmc::run_multicast`, one span per layer call.
pub fn run_multicast(
    topo: &dyn Topology,
    cfg: &SimConfig,
    algorithm: Algorithm,
    participants: &[NodeId],
    src: NodeId,
    bytes: MsgSize,
    tr: &mut Tracer,
) -> RunOutcome {
    let k = participants.len();
    let hops = tr.span("optmc.hops", |_| nominal_hops(topo, participants, src));
    let ports = topo.graph().ports() as u64;
    let (hold, end) = cfg.effective_pair_ports(hops, bytes, ports);
    let chain = tr.span("topo.chain", |_| algorithm.chain(topo, participants, src));
    let splits = tr.span("mtree.opt", |_| algorithm.splits(hold, end, k.max(2)));
    let schedule = tr.span("mtree.schedule", |_| {
        Schedule::build(k, chain.src_pos(), &splits, hold, end)
    });
    let analytic = schedule.latency();
    let chain_nodes = chain.nodes().to_vec();
    let program = tr.span("optmc.program", |_| {
        McastProgram::new(chain, splits, bytes, topo.graph().n_nodes())
            .with_addr_overhead(cfg.addr_bytes)
    });
    let engine = tr.span("flitsim.setup", |_| {
        let root = program.root();
        let first = program.root_sends();
        let mut engine = Engine::new(topo, cfg.clone(), program);
        engine.start(root, 0, first);
        engine
    });
    let (program, mut sim) = tr.span("flitsim.run", |_| engine.run_auto());
    count_sim(tr, &sim);
    assert_eq!(
        program.deliveries(),
        program.n_dests(),
        "multicast did not reach everyone"
    );
    let latency = sim.last_completion().unwrap_or(0);
    if latency < analytic {
        sim.trace.push(TraceEvent {
            t: latency,
            worm: 0,
            channel: None,
            node: None,
            kind: TraceKind::Anomaly,
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

/// `campaign::pool::run_cell`, with the topology build, the route table
/// and every trial's layer calls in spans.
///
/// # Errors
/// When the cell's topology spec does not parse.
pub fn run_cell(cell: &Cell, tr: &mut Tracer) -> Result<Vec<TrialOutcome>, String> {
    let topo = tr.span("topo.build", |_| optmc::spec::parse_topology(&cell.topo))?;
    route_table(topo.as_ref(), tr, "topo.route_table_mb");
    let mut cfg = SimConfig::paragon_like();
    cfg.shards = cell.shards.max(1);
    let topo = topo.as_ref();
    let stream = placement_stream(&topo.name(), cell.k);
    Ok((0..cell.trials)
        .map(|t| {
            let placement_seed = trial_seed(cell.seed, stream, t);
            let placement = tr.span("optmc.placement", |_| {
                random_placement(topo.graph().n_nodes(), cell.k, placement_seed)
            });
            let src = placement[0];
            let out = run_multicast(topo, &cfg, cell.algorithm, &placement, src, cell.bytes, tr);
            TrialOutcome {
                trial: t,
                placement_seed,
                latency: out.latency,
                analytic: out.analytic,
                blocked: out.sim.blocked_cycles,
                contention_free: out.sim.contention_free(),
                events: out.sim.meta.events_processed,
                wall_ns: out.sim.meta.wall_ns,
            }
        })
        .collect())
}

/// `plansvc::compute_plan`, one span per layer call.
///
/// # Errors
/// As `compute_plan`: an unparseable topology, certification of an
/// explicit `(hold, end)` override, or a routing failure while replaying
/// the certificate's windows.
pub fn compute_plan(
    req: &PlanRequest,
    opts: &PlanOptions,
    tr: &mut Tracer,
) -> Result<PlanBody, String> {
    let topo = tr.span("topo.build", |_| optmc::spec::parse_topology(&req.topo))?;
    let topo = topo.as_ref();
    let src = req.members[0];
    let k = req.members.len();
    let cfg = SimConfig::paragon_like();
    let hops = tr.span("optmc.hops", |_| nominal_hops(topo, &req.members, src));
    let (hold, end) = match req.params {
        Some(pair) => pair,
        None => cfg.effective_pair_ports(hops, req.bytes, topo.graph().ports() as u64),
    };
    let chain = tr.span("topo.chain", |_| {
        req.algorithm.chain(topo, &req.members, src)
    });
    let splits = tr.span("mtree.opt", |_| req.algorithm.splits(hold, end, k));
    let schedule = tr.span("mtree.schedule", |_| {
        Schedule::build(k, chain.src_pos(), &splits, hold, end)
    });
    let sends = schedule
        .sends
        .iter()
        .map(|s| (chain.node(s.from).0, chain.node(s.to).0, s.start, s.arrive))
        .collect();
    let certificate = if opts.certify {
        if req.params.is_some() {
            return Err(
                "cannot certify a plan with an explicit hold/end override (the certificate \
                 replays the machine-derived pair)"
                    .to_string(),
            );
        }
        let mut cert_cfg = cfg;
        cert_cfg.adaptive = false;
        let set = ScheduleSet {
            specs: vec![McastSpec {
                participants: req.members.clone(),
                src,
                bytes: req.bytes,
                start: 0,
            }],
            algorithm: req.algorithm,
        };
        Some(tr.span("netcheck.certify", |_| {
            let analysis = analyze_set(topo, &cert_cfg, &set).map_err(|e| e.to_string())?;
            Ok::<_, String>(PlanCertificate::from_analysis(topo, &set, &analysis))
        })?)
    } else {
        None
    };
    Ok(PlanBody {
        topo: req.topo.clone(),
        algorithm: req.algorithm.id().to_string(),
        k,
        bytes: req.bytes,
        hold,
        end,
        latency: schedule.latency(),
        depth: schedule.depth(),
        chain: chain.nodes().iter().map(|n| n.0).collect(),
        sends,
        certificate,
    })
}
