//! Steady-state simulation steps must not touch the heap.
//!
//! The engine pre-sizes all per-run state (channel table, event-queue node
//! pool, scratch buffers) and recycles worm slots, so once a run is warmed
//! up, processing more events performs no further allocations.  A run on a
//! warm `Sim` — the state an earlier run on the network handed back —
//! allocates nothing but its result.  This test
//! pins that property with a counting global allocator: a long point-to-point
//! run processes hundreds more events than a short one, yet allocates at most
//! a handful more times (first-touch growth of the path/pool buffers), i.e.
//! allocation count does not scale with event count.  The engine routes
//! every hop through `Topology::route_candidates`, so this also pins that
//! mesh routing allocates nothing: a decode that allocated even once per hop
//! would add over sixty allocations on the long run's 63-hop path.  A
//! contended pair of runs holds waiter lists, queued releases and the
//! end-of-run touched lists to the same bound.

use flitsim::program::SinkProgram;
use flitsim::{Engine, SendReq, Sim, SimConfig, SoftwareModel, TraceSink};
use topo::{Mesh, NodeId, Topology};

#[global_allocator]
static COUNTER: allocmeter::Counting = allocmeter::Counting;

/// The allocation counter is process-global, so the tests below must not
/// measure concurrently — a sibling's engine warm-up would bleed into the
/// probe window.  Each test holds this for its whole body.
static MEASURE: std::sync::Mutex<()> = std::sync::Mutex::new(());

/// Run a single p2p message down a 64-node line and return
/// `(events_processed, allocations during Engine::run)`.
fn run_line_p2p(m: &Mesh, dst: u32) -> (u64, u64) {
    run_line_p2p_observed(m, dst, false)
}

/// [`run_line_p2p`], optionally under the counters-only observer.
fn run_line_p2p_observed(m: &Mesh, dst: u32, counters: bool) -> (u64, u64) {
    let cfg = SimConfig {
        software: SoftwareModel::zero(),
        ..SimConfig::paragon_like()
    };
    let mut e = Engine::new(m, cfg, SinkProgram);
    if counters {
        e.set_observer(flitsim::TraceSink::counters());
    }
    e.start(NodeId(0), 0, vec![SendReq::to(NodeId(dst), 4096, ())]);
    let before = allocmeter::allocations();
    let (_, res) = e.run();
    let allocs = allocmeter::allocations() - before;
    (res.meta.events_processed, allocs)
}

#[test]
fn event_processing_does_not_allocate_per_event() {
    let _serial = MEASURE
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner);
    let m = Mesh::new(&[64]);

    let (short_events, _short_allocs) = run_line_p2p(&m, 3);
    // Second short run: buffers for this workload shape are now warm in a
    // fresh engine too, giving the fair per-run baseline.
    let (short_events_2, short_allocs) = run_line_p2p(&m, 3);
    assert_eq!(short_events, short_events_2, "engine must be deterministic");

    let (long_events, long_allocs) = run_line_p2p(&m, 63);

    assert!(
        long_events > short_events + 100,
        "long run must process far more events (short {short_events}, long {long_events})"
    );
    // The long run walks a 20x longer path but may allocate only a constant
    // amount more (one longer path Vec + a few event-pool growth doublings),
    // never per-event or per-hop.
    assert!(
        long_allocs <= short_allocs + 24,
        "allocations scale with events: short run {short_allocs} allocs \
         ({short_events} events), long run {long_allocs} allocs ({long_events} events)"
    );
}

/// Nodes 0 and 1 each send `ROUNDS` 4 KB messages to `dst`, one every
/// 2000 cycles (long enough for a round to finish), so every round node 1's
/// worm takes channel 1->2 first and node 0's blocks on it until the tail
/// passes.  Returns `(events_processed, blocked_events, allocations during
/// Engine::run)`.
fn run_line_contended(m: &Mesh, dst: u32, counters: bool) -> (u64, u64, u64) {
    const ROUNDS: usize = 8;
    let cfg = SimConfig {
        software: SoftwareModel {
            t_hold: pcm::LinearFn::constant(2000.0),
            ..SoftwareModel::zero()
        },
        ..SimConfig::paragon_like()
    };
    let mut e = Engine::new(m, cfg, SinkProgram);
    if counters {
        e.set_observer(TraceSink::counters());
    }
    for src in [0, 1] {
        let sends = (0..ROUNDS)
            .map(|_| SendReq::to(NodeId(dst), 4096, ()))
            .collect();
        e.start(NodeId(src), 0, sends);
    }
    let before = allocmeter::allocations();
    let (_, res) = e.run();
    let allocs = allocmeter::allocations() - before;
    assert_eq!(res.messages.len(), 2 * ROUNDS);
    (res.meta.events_processed, res.blocked_events, allocs)
}

#[test]
fn contention_does_not_allocate_per_event() {
    let _serial = MEASURE
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner);
    let m = Mesh::new(&[64]);
    for counters in [false, true] {
        let _ = run_line_contended(&m, 3, counters); // warm buffers
        let (short_events, short_blocked, short_allocs) = run_line_contended(&m, 3, counters);
        let (long_events, long_blocked, long_allocs) = run_line_contended(&m, 63, counters);
        // Every round blocks once in both runs: waiters, wake-ups and
        // queued releases recur throughout, not just once.
        assert_eq!((short_blocked, long_blocked), (8, 8));
        assert!(
            long_events > short_events + 500,
            "long run must process far more events (short {short_events}, long {long_events})"
        );
        assert!(
            long_allocs <= short_allocs + 24,
            "contended run allocates per event (counters: {counters}): short {short_allocs} \
             allocs ({short_events} events), long {long_allocs} allocs ({long_events} events)"
        );
    }
}

#[test]
fn counters_observer_does_not_allocate_per_event() {
    // The counters-only observer keeps per-event `u64` tallies and adds
    // ZERO steady-state allocations: the allocation profile under
    // `TraceSink::counters()` is identical in shape to the unobserved
    // engine's.
    let _serial = MEASURE
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner);
    let m = Mesh::new(&[64]);

    let _ = run_line_p2p_observed(&m, 3, true); // warm buffers
    let (short_events, short_allocs) = run_line_p2p_observed(&m, 3, true);
    let (long_events, long_allocs) = run_line_p2p_observed(&m, 63, true);
    assert!(long_events > short_events + 100);
    assert!(
        long_allocs <= short_allocs + 24,
        "counters observer allocates per event: short {short_allocs} allocs \
         ({short_events} events), long {long_allocs} allocs ({long_events} events)"
    );
}

#[test]
fn a_warm_sim_allocates_only_the_result() {
    // Once a `Sim` has run the long message, a rerun of either length
    // allocates only for its `SimResult`: the message list and the channel
    // totals, reserved at the longest run's size.  Nothing scales with the
    // path or the network.
    let _serial = MEASURE
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner);
    let m = Mesh::new(&[64]);
    let cfg = SimConfig {
        software: SoftwareModel::zero(),
        ..SimConfig::paragon_like()
    };
    let mut sim = Sim::new(m.graph());
    let mut run = |dst: u32| {
        let mut e = Engine::with_sim(&m, cfg.clone(), SinkProgram, &mut sim);
        e.start(NodeId(0), 0, vec![SendReq::to(NodeId(dst), 4096, ())]);
        let before = allocmeter::allocations();
        let (_, res) = e.run();
        (
            res.meta.events_processed,
            allocmeter::allocations() - before,
        )
    };
    let _ = run(63); // warm the Sim
    let (short_events, short_allocs) = run(3);
    let (long_events, long_allocs) = run(63);
    assert!(long_events > short_events + 100);
    assert_eq!(
        (short_allocs, long_allocs),
        (1, 1),
        "a warm Sim's run allocates beyond its result ({short_events} and {long_events} events)"
    );
}
