//! The two ways a channel release reaches the engine give the same bytes.
//!
//! Under the Null and counters-only observers a release nobody waits on is
//! a timestamp on the channel, never a queued event; under a retaining
//! observer (`TraceSink::memory()`) every release is queued and popped in
//! time order.  Across topologies, router delays, buffer depths, message
//! sizes and a staggered concurrent batch, both paths must yield the same
//! `SimResult::fingerprint()` once the trace itself is set aside, and the
//! counters sink must tally exactly what the memory sink recorded.

use flitsim::trace::TraceKind;
use flitsim::{EventCounts, SimConfig, SimResult, SoftwareModel, TraceSink};
use optmc::experiments::random_placement;
use optmc::{run_concurrent, run_multicast_observed, Algorithm, McastSpec, RunOptions};
use pcm::LinearFn;

/// (spec, adaptive up-phase, participants).
const TOPOS: [(&str, bool, usize); 5] = [
    ("mesh:8x8", true, 32),
    ("torus:4x4", true, 12),
    ("bmin:64", true, 32),
    ("bmin:64", false, 32),
    ("omega:32", true, 16),
];
const ROUTER_DELAYS: [u64; 3] = [0, 1, 3];
/// 4096-flit buffers swallow every worm, so tails release while climbing.
const BUFFERS: [u64; 3] = [1, 4, 4096];
/// 0-byte worms are two flits long and release their tail while climbing.
const BYTES: [u64; 3] = [0, 64, 4096];

/// The fingerprint with what only a retaining or counting sink fills in
/// (trace, truncation, tallies) cleared: the model's bytes.
fn model_bytes(sim: &SimResult) -> String {
    let mut canon = sim.clone();
    canon.trace.clear();
    canon.truncated = false;
    canon.counts = None;
    canon.meta.trace_events = 0;
    canon.meta.trace_dropped = 0;
    canon.fingerprint()
}

/// What a counters sink should have tallied, read off a full trace.  The
/// runner appends anomaly events to a retained trace after the run; the
/// engine never emits them, so they are not counted.
fn tally(sim: &SimResult) -> EventCounts {
    let mut c = EventCounts::default();
    for e in &sim.trace {
        match e.kind {
            TraceKind::Acquire => c.acquires += 1,
            TraceKind::Release => c.releases += 1,
            TraceKind::InjectStart => c.inject_starts += 1,
            TraceKind::DrainStart => c.drain_starts += 1,
            TraceKind::RecvDone => c.recv_dones += 1,
            TraceKind::Blocked => c.blocked += 1,
            TraceKind::CpuBusy => c.cpu_busy += 1,
            TraceKind::CpuIdle => c.cpu_idle += 1,
            TraceKind::Anomaly => {}
        }
    }
    c
}

fn config(router_delay: u64, buffer_flits: u64, adaptive: bool) -> SimConfig {
    SimConfig {
        router_delay,
        buffer_flits,
        adaptive,
        ..SimConfig::paragon_like()
    }
}

/// The software models of the matrix: the paper machine's, and a nearly
/// free one that issues a node's sends back to back, so even short worms
/// queue behind each other.  (Its two cycles of `t_send` and `t_recv` keep
/// `t_hold <= t_end` at `router_delay` 0, which the OPT DP requires.)
fn software_models() -> [(&'static str, SoftwareModel); 2] {
    [
        ("paragon", SimConfig::paragon_like().software),
        (
            "light",
            SoftwareModel {
                t_send: LinearFn::constant(2.0),
                t_recv: LinearFn::constant(2.0),
                t_hold: LinearFn::constant(1.0),
            },
        ),
    ]
}

#[test]
fn single_multicasts_match_across_release_paths() {
    let mut blocking_runs = 0;
    let mut runs = 0;
    for (spec, adaptive, k) in TOPOS {
        let topo = optmc::spec::parse_topology(spec).expect("valid spec");
        let parts = random_placement(topo.graph().n_nodes(), k, 1997);
        let mut topo_blocks = false;
        for rd in ROUTER_DELAYS {
            for buf in BUFFERS {
                for (sw, software) in software_models() {
                    let cfg = SimConfig {
                        software,
                        ..config(rd, buf, adaptive)
                    };
                    for bytes in BYTES {
                        let run = |sink: TraceSink| {
                            run_multicast_observed(
                                topo.as_ref(),
                                &cfg,
                                Algorithm::OptTree,
                                &parts,
                                parts[0],
                                bytes,
                                &RunOptions::default(),
                                Some(sink),
                            )
                            .sim
                        };
                        let case = format!(
                            "{spec} adaptive={adaptive} rd={rd} buf={buf} sw={sw} {bytes}B"
                        );
                        let queued = run(TraceSink::memory());
                        let null = run(TraceSink::Null);
                        let counted = run(TraceSink::counters());
                        let want = model_bytes(&queued);
                        assert_eq!(model_bytes(&null), want, "{case}: Null");
                        assert_eq!(model_bytes(&counted), want, "{case}: counters");
                        assert_eq!(counted.counts, Some(tally(&queued)), "{case}: tallies");
                        assert!(
                            null.meta.peak_heap_events <= queued.meta.peak_heap_events,
                            "{case}: the timestamp path queues a subset"
                        );
                        runs += 1;
                        blocking_runs += usize::from(null.blocked_cycles > 0);
                        topo_blocks |= null.blocked_cycles > 0;
                    }
                }
            }
        }
        assert!(topo_blocks, "{spec} adaptive={adaptive}: no run blocks");
    }
    assert!(
        blocking_runs * 4 >= runs,
        "only {blocking_runs} of {runs} runs block: the matrix must exercise waiters"
    );
}

#[test]
fn staggered_batch_matches_across_release_paths() {
    // Six 8-node multicasts arriving 300 cycles apart on an 8x8 mesh: later
    // roots inject while earlier trees still hold channels.  The config's
    // `trace` switch selects the memory sink, i.e. the queued path.
    let topo = optmc::spec::parse_topology("mesh:8x8").expect("valid spec");
    let n = topo.graph().n_nodes();
    let specs: Vec<McastSpec> = (0..6u64)
        .map(|i| {
            let participants = random_placement(n, 8, 2024 + i);
            McastSpec {
                src: participants[0],
                participants,
                bytes: 4096,
                start: 300 * i,
            }
        })
        .collect();
    for rd in ROUTER_DELAYS {
        for buf in BUFFERS {
            let mut cfg = config(rd, buf, true);
            let (_, null) = run_concurrent(topo.as_ref(), &cfg, Algorithm::OptTree, &specs);
            cfg.trace = true;
            let (_, queued) = run_concurrent(topo.as_ref(), &cfg, Algorithm::OptTree, &specs);
            assert!(!queued.trace.is_empty());
            assert_eq!(
                model_bytes(&null),
                model_bytes(&queued),
                "rd={rd} buf={buf}"
            );
            if buf == 1 {
                assert!(null.blocked_cycles > 0, "rd={rd}: the batch should contend");
            }
        }
    }
}
