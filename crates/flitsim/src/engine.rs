//! The event-driven wormhole engine.
//!
//! State machine per worm: *queued* (waiting for the sender's CPU) →
//! *climbing* (head acquiring channels hop by hop, holding everything behind
//! it) → *draining* (head reached the consumption channel; flits sink at one
//! per cycle; channels release as the tail passes) → *done* (software
//! receive completion fires the program).
//!
//! Channel release rules (the wormhole invariants):
//! * while climbing, acquiring path index `i` frees path index `i - L`
//!   (the tail of an `L`-flit worm is `L` channels behind the head);
//! * once draining with tail consumed at `T`, path index `j` of a `P`-channel
//!   path frees at `T - (P-1-j)` (one cycle of streaming per channel).
//!
//! A release is a timestamp, not an event: the moment its time is known the
//! channel records it as `free_at`, and every later event at `t >= free_at`
//! finds the channel free — the order a priority-0 `Release` at `free_at`
//! would give.  A `Release` event is queued only when a worm waits on the
//! channel (it must be woken at exactly that time) or when the observer
//! records events in time order.
//!
//! Everything sized by the network lives in a [`Sim`], which a run hands
//! back reset: the next run on the same network allocates, fills and scans
//! nothing per channel or per node.

use std::collections::VecDeque;

use pcm::Time;
use topo::{ChannelId, Hop, NetworkGraph, NodeId, RouterId, Topology};

use crate::config::SimConfig;
use crate::equeue::{EventQueue, ENTRY_BYTES};
use crate::obs::{Observer, RunMeta, TraceSink};
use crate::program::{Program, SendReq};
use crate::stats::{ChannelTelemetry, ChannelTotals, MessageRecord, SimResult};
use crate::trace::TraceEvent;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Phase {
    Climbing,
    Draining,
    Done,
}

struct Worm<P> {
    src: NodeId,
    dest: NodeId,
    bytes: u64,
    flits: u64,
    payload: Option<P>,
    path: Vec<ChannelId>,
    /// The router the head sits at once the path is non-empty, as the
    /// routing call that chose its last channel named it.
    at: RouterId,
    /// First path index not yet released.
    release_ptr: usize,
    initiated: Time,
    injected: Time,
    drain_start: Time,
    tail_consumed: Time,
    blocked: Time,
    block_start: Option<Time>,
    phase: Phase,
    retry_scheduled: bool,
    /// Bumped when the worm retires; waiter entries carry the generation
    /// they were filed under, so a reused slot never receives a stale
    /// retry meant for its previous occupant.
    generation: u32,
    /// Intrinsic identity: `(src node << RANK_SHIFT) | per-node issue
    /// counter`, the tie-break among a worm's equal-time events.  Unlike
    /// the slab index, the rank depends only on *what* the worm is (the
    /// n-th send issued by its node), never on slot reuse — which the
    /// observer choice switches off — so no observer can change the event
    /// order.
    rank: u64,
}

/// Bits of a worm rank holding the per-node issue counter; the node id
/// occupies the bits above.  2^28 nodes x 2^28 sends per node.
const RANK_SHIFT: u32 = 28;

/// `ChanState::holder` of a channel nobody holds.
const FREE: u32 = u32::MAX;
/// `ChanState::waiters` of a channel nothing has waited on yet.
const NO_WAITERS: u32 = u32::MAX;
/// `ChanState::total` of a channel the run has not acquired.
const UNTOUCHED: u32 = u32::MAX;

/// One channel's occupancy: 24 bytes and nothing on the heap, because a
/// [`Sim`] holds one per channel of the network.
#[derive(Clone, Copy)]
struct ChanState {
    /// The acquire time while the release time is unknown; the release time
    /// (`free_at`) once `released` is set.
    at: Time,
    /// The holding worm, or [`FREE`].  A holder whose `free_at` has passed
    /// is stale: the next acquire overwrites it.
    holder: u32,
    /// The channel's list in `Sim::waiters`, given on its first waiter,
    /// or [`NO_WAITERS`].
    waiters: u32,
    /// The channel's entry in `Sim::totals`, given on its first acquire,
    /// or [`UNTOUCHED`].
    total: u32,
    /// The holder's release time is known and stored in `at`.
    released: bool,
    /// A `Release` event for this channel sits in the queue.
    release_queued: bool,
}

const _: () = assert!(std::mem::size_of::<ChanState>() <= 24);

impl ChanState {
    /// A channel no run has acquired.
    const IDLE: ChanState = ChanState {
        at: 0,
        holder: FREE,
        waiters: NO_WAITERS,
        total: UNTOUCHED,
        released: false,
        release_queued: false,
    };

    /// Whether an event at `t` finds the channel free.
    fn is_free(&self, t: Time) -> bool {
        self.holder == FREE || (self.released && self.at <= t)
    }
}

/// `NodeState::queue` of a node with no send waiting.
const NO_QUEUE: u32 = u32::MAX;

/// One node's CPU: 32 bytes and nothing on the heap, because a [`Sim`]
/// holds one per node of the network.
#[derive(Clone, Copy)]
struct NodeState {
    cpu_free: Time,
    /// Time of the earliest pending `NodeKick`, if any.  Stale kicks (a
    /// later one superseded by an earlier enqueue) stay in the heap and are
    /// ignored when they fire.
    kick_at: Option<Time>,
    /// Sends issued (worms born) by this node so far — the per-node half of
    /// every worm's intrinsic rank.
    issued: u32,
    /// The node's send queue in `Sim::queues` while a send waits, or
    /// [`NO_QUEUE`].
    queue: u32,
}

impl NodeState {
    /// A node no run has changed.
    const IDLE: NodeState = NodeState {
        cpu_free: 0,
        kick_at: None,
        issued: 0,
        queue: NO_QUEUE,
    };

    /// Whether the node is as no run has left it.  A node the run is about
    /// to change while it is pristine joins the run's touched list.
    fn is_pristine(&self) -> bool {
        self.cpu_free == 0 && self.issued == 0 && self.kick_at.is_none() && self.queue == NO_QUEUE
    }
}

/// The simulator's state for one network shape, reusable across runs: the
/// per-channel occupancy and totals, the per-node CPUs and send queues,
/// the waiter lists, the event queue, the worm slab and the scratch
/// buffers.  Per channel and per node it holds 24 and 32 bytes of plain
/// data; everything on the heap is sized by what runs used, not by the
/// network.
///
/// [`Engine::with_sim`] borrows it for one run, and [`Engine::run`] hands
/// it back with every channel and node the run touched returned to idle,
/// so the next run on the same network costs what that run touches, not
/// the size of the network.  A `Sim` records the shape it was built for
/// (nodes, channels, NI ports) and panics when it meets another; it is
/// not a cache keyed by topology.  An engine that panics, or is dropped
/// without running, keeps the state: the `Sim` it was lent is left empty
/// and fails that check.  `P` is the program's payload type
/// ([`Program::Payload`]).
pub struct Sim<P> {
    /// `(nodes, channels, ports)` of the network the state is sized for.
    shape: (usize, usize, usize),
    channels: Vec<ChanState>,
    /// Always-on per-channel accumulators (a plain indexed add each, no
    /// observer needed): busy cycles, blocked cycles attributed to the
    /// channel finally acquired, and acquisition counts.  One entry per
    /// channel the run acquired, in first-acquire order (see
    /// `ChanState::total`); these are the channels the end-of-run checks
    /// and the reset scan, not the network.  The list itself becomes
    /// [`SimResult::channels`].
    totals: Vec<(ChannelId, ChannelTelemetry)>,
    /// Most entries a run's totals have held: the next run reserves that
    /// much when it starts (after the caller has dropped the last result),
    /// so the list rarely grows in the event loop.
    totals_hint: usize,
    /// Waiting worms as (slot, generation-at-blocking) pairs, one list per
    /// channel that has had a waiter this run (see `ChanState::waiters`).
    /// Lists past `waiter_lists` are spare: empty, their buffers kept.
    waiters: Vec<Vec<(u32, u32)>>,
    waiter_lists: usize,
    nodes: Vec<NodeState>,
    /// Send queues, one per node with a send waiting (see
    /// `NodeState::queue`); a node's queue goes back to `free_queues` the
    /// moment it empties, so only queues in use at one time hold buffers.
    queues: Vec<VecDeque<SendReq<P>>>,
    free_queues: Vec<u32>,
    queue: EventQueue,
    worms: Vec<Worm<P>>,
    /// Slots handed out this run: a run numbers its worms from slot 0 as a
    /// fresh slab would, reusing the earlier runs' slots (and their path
    /// buffers) below `worms.len()`.
    slots: usize,
    /// Slots retired this run and available for reuse (disabled only for
    /// sinks that retain events, so recorded worm ids stay unique — see
    /// [`TraceSink::needs_unique_worm_ids`]).
    free_worms: Vec<u32>,
    /// Scratch for `candidates()` — reused across events so a steady-state
    /// step allocates nothing.
    cand_scratch: Vec<Hop>,
    /// Nodes whose state changed, in first-touch order: the end-of-run
    /// checks and the reset scan these, not the network.
    touched_nodes: Vec<u32>,
}

impl<P> Sim<P> {
    /// Idle state for `graph`'s network: one channel state per channel,
    /// one CPU per node, an empty event queue.
    #[must_use]
    pub fn new(graph: &NetworkGraph) -> Self {
        Sim {
            shape: Self::shape_of(graph),
            channels: vec![ChanState::IDLE; graph.n_channels()],
            totals: Vec::new(),
            totals_hint: 0,
            waiters: Vec::new(),
            waiter_lists: 0,
            nodes: vec![NodeState::IDLE; graph.n_nodes()],
            queues: Vec::new(),
            free_queues: Vec::new(),
            queue: EventQueue::new(),
            worms: Vec::new(),
            slots: 0,
            free_worms: Vec::new(),
            cand_scratch: Vec::new(),
            touched_nodes: Vec::new(),
        }
    }

    /// What an engine leaves in a borrowed `Sim` while the run holds the
    /// real one: the state of a network with nothing in it, which
    /// allocates nothing.
    fn lent() -> Self {
        Sim {
            shape: (0, 0, 0),
            channels: Vec::new(),
            totals: Vec::new(),
            totals_hint: 0,
            waiters: Vec::new(),
            waiter_lists: 0,
            nodes: Vec::new(),
            queues: Vec::new(),
            free_queues: Vec::new(),
            queue: EventQueue::lent(),
            worms: Vec::new(),
            slots: 0,
            free_worms: Vec::new(),
            cand_scratch: Vec::new(),
            touched_nodes: Vec::new(),
        }
    }

    fn shape_of(graph: &NetworkGraph) -> (usize, usize, usize) {
        (graph.n_nodes(), graph.n_channels(), graph.ports())
    }

    /// Whether this state was built for `graph`'s shape.
    fn fits(&self, graph: &NetworkGraph) -> bool {
        self.shape == Self::shape_of(graph)
    }

    /// Record `n` as touched if the run is about to change it for the
    /// first time.
    fn touch_node(&mut self, n: NodeId) {
        if self.nodes[n.idx()].is_pristine() {
            self.touched_nodes.push(n.0);
        }
    }

    /// End a run: hand the touched channels' totals out and return every
    /// channel, node, waiter list and worm slot the run used to idle.  The
    /// event queue is empty at the end of every run; only its cursor
    /// rewinds.
    fn reset(&mut self) -> ChannelTotals {
        for &(c, _) in &self.totals {
            self.channels[c.idx()] = ChanState::IDLE;
        }
        let totals = std::mem::take(&mut self.totals);
        self.totals_hint = self.totals_hint.max(totals.len());
        for list in &mut self.waiters[..self.waiter_lists] {
            list.clear();
        }
        self.waiter_lists = 0;
        for &n in &self.touched_nodes {
            self.nodes[n as usize] = NodeState::IDLE;
        }
        self.touched_nodes.clear();
        self.queue.rewind();
        self.slots = 0;
        self.free_worms.clear();
        ChannelTotals::new(self.channels.len(), totals)
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Event {
    /// A queued channel release: wakes the channel's waiters.  Priority 0,
    /// so it precedes same-time head movements — the order
    /// `ChanState::is_free` gives unqueued releases.
    Release(u32),
    NodeKick(u32),
    WormStart(u32),
    HeadAdvance(u32),
    /// Tail consumed; receive software may start once the CPU is free.
    RecvSoftware(u32),
    RecvDone(u32),
}

impl Event {
    fn priority(self) -> u8 {
        match self {
            Event::Release(_) => 0,
            _ => 1,
        }
    }

    /// Kind rank within the prio-1 class: kicks, then head movements, then
    /// receive phases.  Any fixed order works (it is an arbitration policy);
    /// what matters is that it never depends on scheduling history.
    fn kind_rank(self) -> u64 {
        match self {
            Event::Release(_) | Event::NodeKick(_) => 0,
            Event::WormStart(_) | Event::HeadAdvance(_) => 1,
            Event::RecvSoftware(_) => 2,
            Event::RecvDone(_) => 3,
        }
    }
}

/// The simulator. Create, [`Engine::start`] the initial sends, then
/// [`Engine::run`].
pub struct Engine<'t, Prog: Program> {
    graph: &'t NetworkGraph,
    topo: &'t dyn Topology,
    cfg: SimConfig,
    program: Prog,
    /// The network-sized state, held by value for the run.
    sim: Sim<Prog::Payload>,
    /// Where the state goes back to when the run ends: the caller's `Sim`
    /// ([`Engine::with_sim`]), or nowhere ([`Engine::new`]).
    home: Option<&'t mut Sim<Prog::Payload>>,
    finish: Time,
    messages: Vec<MessageRecord>,
    blocked_cycles: Time,
    blocked_events: u64,
    channel_busy: Time,
    acquires: u64,
    releases: u64,
    /// Releases applied as timestamps and never queued; each counts as a
    /// processed event at the end of the run.
    unqueued_releases: u64,
    /// Queue every release, waited on or not: set for observers that
    /// record events in time order (see [`TraceSink::needs_unique_worm_ids`]).
    queue_every_release: bool,
    obs: TraceSink,
    events_processed: u64,
    events_scheduled: u64,
    peak_heap: usize,
}

impl Event {
    /// Pack into the queue's `u64` payload: tag in the high word, id low.
    fn pack(self) -> u64 {
        let (tag, id) = match self {
            Event::Release(c) => (0u64, c),
            Event::NodeKick(n) => (1, n),
            Event::WormStart(w) => (2, w),
            Event::HeadAdvance(w) => (3, w),
            Event::RecvSoftware(w) => (4, w),
            Event::RecvDone(w) => (5, w),
        };
        (tag << 32) | u64::from(id)
    }

    fn unpack(ev: u64) -> Event {
        let id = ev as u32;
        match ev >> 32 {
            0 => Event::Release(id),
            1 => Event::NodeKick(id),
            2 => Event::WormStart(id),
            3 => Event::HeadAdvance(id),
            4 => Event::RecvSoftware(id),
            _ => Event::RecvDone(id),
        }
    }
}

impl<'t, Prog: Program> Engine<'t, Prog> {
    /// A fresh engine over `topo` with the given configuration and program,
    /// on a fresh [`Sim`] that the run drops.  [`SimConfig::trace`] /
    /// [`SimConfig::trace_limit`] select the default in-memory observer;
    /// [`Engine::set_observer`] overrides it.
    pub fn new(topo: &'t dyn Topology, cfg: SimConfig, program: Prog) -> Self {
        Self::on(topo, cfg, program, Sim::new(topo.graph()), None)
    }

    /// [`Engine::new`] on `sim`, the state an earlier run on the same
    /// network handed back: the run takes it and [`Engine::run`] returns
    /// it to `sim`, reset.  The result is the one a fresh engine gives.
    ///
    /// # Panics
    /// If `sim` was built for a network of another shape.
    pub fn with_sim(
        topo: &'t dyn Topology,
        cfg: SimConfig,
        program: Prog,
        sim: &'t mut Sim<Prog::Payload>,
    ) -> Self {
        assert!(
            sim.fits(topo.graph()),
            "a Sim built for (nodes, channels, ports) = {:?} cannot run {}",
            sim.shape,
            topo.name()
        );
        let state = std::mem::replace(sim, Sim::lent());
        Self::on(topo, cfg, program, state, Some(sim))
    }

    fn on(
        topo: &'t dyn Topology,
        cfg: SimConfig,
        program: Prog,
        sim: Sim<Prog::Payload>,
        home: Option<&'t mut Sim<Prog::Payload>>,
    ) -> Self {
        let obs = match (cfg.trace, cfg.trace_limit) {
            (false, _) => TraceSink::Null,
            (true, None) => TraceSink::memory(),
            (true, Some(limit)) => TraceSink::memory_limited(limit),
        };
        let mut sim = sim;
        sim.totals.reserve(sim.totals_hint);
        Self {
            graph: topo.graph(),
            topo,
            cfg,
            program,
            sim,
            home,
            finish: 0,
            messages: Vec::new(),
            blocked_cycles: 0,
            blocked_events: 0,
            channel_busy: 0,
            acquires: 0,
            releases: 0,
            unqueued_releases: 0,
            queue_every_release: false,
            obs,
            events_processed: 0,
            events_scheduled: 0,
            peak_heap: 0,
        }
    }

    /// Replace the observer (any [`TraceSink`] arm, including
    /// [`TraceSink::Custom`]), overriding whatever [`SimConfig::trace`]
    /// selected.  Call before [`Engine::run`].
    pub fn set_observer(&mut self, sink: TraceSink) {
        self.obs = sink;
    }

    /// Queue initial sends on `node` starting at time `at` (the multicast
    /// root's first round).
    pub fn start(&mut self, node: NodeId, at: Time, sends: Vec<SendReq<Prog::Payload>>) {
        self.enqueue_sends(node, at, sends);
    }

    /// Run to completion; returns the program (for inspection) and the
    /// result.  The [`Sim`] goes back, reset, to the caller that lent it
    /// ([`Engine::with_sim`]).
    pub fn run(mut self) -> (Prog, SimResult) {
        let wall_start = std::time::Instant::now();
        let observing = self.obs.enabled();
        self.queue_every_release = self.obs.needs_unique_worm_ids();
        while let Some((t, _ord, ev)) = self.sim.queue.pop() {
            self.finish = self.finish.max(t);
            self.events_processed += 1;
            match Event::unpack(ev) {
                Event::Release(c) => self.on_release(ChannelId(c), t),
                Event::NodeKick(n) => self.on_kick(NodeId(n), t),
                Event::WormStart(w) | Event::HeadAdvance(w) => self.on_advance(w, t),
                Event::RecvSoftware(w) => self.on_recv_software(w, t),
                Event::RecvDone(w) => self.on_recv_done(w, t),
            }
            if observing {
                self.obs.on_tick(t, self.events_processed);
            }
        }
        // Releases nobody waited on were applied as timestamps; they count
        // as processed model events all the same.
        self.events_processed += self.unqueued_releases;
        if let TraceSink::Counters(counts) = &mut self.obs {
            counts.releases += self.unqueued_releases;
        }
        // Always-on integrity checks: a violation is an engine bug.  They
        // scan only what the run touched — a channel never acquired cannot
        // be held, a node that never queued a send has nothing queued.
        let sim = &self.sim;
        assert!(
            sim.worms[..sim.slots]
                .iter()
                .all(|w| w.phase == Phase::Done),
            "run ended with undelivered worms (deadlock?)"
        );
        assert_eq!(
            self.acquires, self.releases,
            "channel acquire/release imbalance"
        );
        assert!(
            sim.totals.iter().all(|&(c, _)| {
                let ch = &sim.channels[c.idx()];
                ch.holder == FREE || ch.released
            }),
            "run ended with held channels (leak)"
        );
        assert_eq!(
            sim.free_queues.len(),
            sim.queues.len(),
            "run ended with queued sends never issued"
        );
        let wall_ns = wall_start.elapsed().as_nanos().min(u64::MAX as u128) as u64;
        let sink = self.obs.finish();
        // Peak heap estimate: pending events dominate, plus this run's worm
        // slots and the channel state, and whatever trace the sink retained.
        let peak_heap_bytes = (self.peak_heap * ENTRY_BYTES
            + sim.slots * std::mem::size_of::<Worm<Prog::Payload>>()
            + sim.channels.len() * std::mem::size_of::<ChanState>()
            + sink.events.len() * std::mem::size_of::<TraceEvent>())
            as u64;
        let meta = RunMeta {
            events_processed: self.events_processed,
            events_scheduled: self.events_scheduled,
            peak_heap_events: self.peak_heap,
            peak_heap_bytes,
            trace_events: sink.events.len() as u64 + sink.streamed,
            trace_dropped: sink.dropped,
            wall_ns,
            events_per_sec: if wall_ns == 0 {
                0.0
            } else {
                self.events_processed as f64 * 1e9 / wall_ns as f64
            },
        };
        let channels = self.sim.reset();
        if let Some(home) = self.home {
            *home = self.sim;
        }
        let result = SimResult {
            finish: self.finish,
            messages: self.messages,
            blocked_cycles: self.blocked_cycles,
            blocked_events: self.blocked_events,
            channel_busy_cycles: self.channel_busy,
            channels,
            counts: sink.counts,
            trace: sink.events,
            truncated: sink.truncated,
            meta,
        };
        (self.program, result)
    }

    /// The same as [`Engine::run`].  Kept only because the benchmark under
    /// `perfbench/` still calls it; delete it once the benchmark calls
    /// `run`.
    pub fn run_auto(self) -> (Prog, SimResult) {
        self.run()
    }

    /// The event's intrinsic ordering key: `prio | kind | entity rank`.
    /// Entity ranks — a channel id, a node id, or the worm's birth rank —
    /// are unique per instant within their kind (one pending release per
    /// channel, one kick per node, one event of each kind per worm), so
    /// `(t, ord)` totally orders all pending events without any reference
    /// to scheduling history.
    fn ord_of(&self, e: Event) -> u64 {
        let rank = match e {
            Event::Release(c) => u64::from(c),
            Event::NodeKick(n) => u64::from(n),
            Event::WormStart(w)
            | Event::HeadAdvance(w)
            | Event::RecvSoftware(w)
            | Event::RecvDone(w) => self.sim.worms[w as usize].rank,
        };
        debug_assert!(rank < 1 << 56, "entity rank overflows the ord layout");
        (u64::from(e.priority()) << 63) | (e.kind_rank() << 56) | rank
    }

    fn schedule(&mut self, t: Time, e: Event) {
        self.events_scheduled += 1;
        self.push(t, e);
    }

    fn push(&mut self, t: Time, e: Event) {
        let ord = self.ord_of(e);
        self.sim.queue.push(t, ord, e.pack());
        self.peak_heap = self.peak_heap.max(self.sim.queue.len());
    }

    /// Channel `c` frees at `r`: account its busy time and the release
    /// once, and record `r` as its `free_at`.  A `Release` event is queued
    /// only if a worm already waits on `c` or the observer records every
    /// release in order; a waiter arriving later queues it then (see
    /// [`Engine::on_advance`]).
    fn release_at(&mut self, c: u32, r: Time) {
        let ch = &mut self.sim.channels[c as usize];
        debug_assert!(ch.holder != FREE && !ch.released, "double release of ch{c}");
        let busy = r - ch.at;
        ch.at = r;
        ch.released = true;
        let queue = self.queue_every_release
            || (ch.waiters != NO_WAITERS && !self.sim.waiters[ch.waiters as usize].is_empty());
        let total = ch.total as usize;
        self.channel_busy += busy;
        self.sim.totals[total].1.busy += busy;
        self.releases += 1;
        self.events_scheduled += 1;
        self.finish = self.finish.max(r);
        if queue {
            self.sim.channels[c as usize].release_queued = true;
            self.push(r, Event::Release(c));
        } else {
            self.unqueued_releases += 1;
        }
    }

    fn enqueue_sends(&mut self, node: NodeId, now: Time, sends: Vec<SendReq<Prog::Payload>>) {
        if sends.is_empty() {
            return;
        }
        for s in &sends {
            assert_ne!(s.dest, node, "node {node:?} may not send to itself");
        }
        let sim = &mut self.sim;
        sim.touch_node(node);
        let ns = &mut sim.nodes[node.idx()];
        if ns.queue == NO_QUEUE {
            ns.queue = sim.free_queues.pop().unwrap_or_else(|| {
                sim.queues.push(VecDeque::new());
                sim.queues.len() as u32 - 1
            });
        }
        let queue = &mut sim.queues[ns.queue as usize];
        // Stable insert by `not_before`: a send with an earlier constraint
        // never waits behind one constrained to the far future (concurrent
        // multicasts with staggered starts share node CPUs).  Each
        // program's own non-decreasing `not_before` order is preserved.
        // The queue is sorted by construction, so the insert position is a
        // binary search: first entry with a strictly later constraint.
        for s in sends {
            let pos = queue.partition_point(|q| q.not_before <= s.not_before);
            queue.insert(pos, s);
        }
        let head = queue.front().expect("just inserted");
        let want = now.max(ns.cpu_free).max(head.not_before);
        if ns.kick_at.is_none_or(|k| want < k) {
            ns.kick_at = Some(want);
            self.schedule(want, Event::NodeKick(node.0));
        }
    }

    fn on_kick(&mut self, node: NodeId, t: Time) {
        let sim = &mut self.sim;
        let ns = &mut sim.nodes[node.idx()];
        if ns.kick_at != Some(t) {
            return; // superseded by an earlier kick
        }
        ns.kick_at = None;
        if ns.queue == NO_QUEUE {
            return;
        }
        let queue = &mut sim.queues[ns.queue as usize];
        let head = queue
            .front()
            .expect("a node holds a queue only while a send waits");
        let earliest = ns.cpu_free.max(head.not_before);
        if t < earliest {
            ns.kick_at = Some(earliest);
            self.schedule(earliest, Event::NodeKick(node.0));
            return;
        }
        let req = queue.pop_front().expect("checked non-empty");
        let hold = self.cfg.software.t_hold.eval(req.bytes);
        let t_send = self.cfg.software.t_send.eval(req.bytes);
        ns.cpu_free = t + hold;
        if let Some(next) = queue.front() {
            let at = ns.cpu_free.max(next.not_before);
            ns.kick_at = Some(at);
            self.schedule(at, Event::NodeKick(node.0));
        } else {
            sim.free_queues
                .push(std::mem::replace(&mut ns.queue, NO_QUEUE));
        }
        let flits = self.cfg.flits(req.bytes);
        let issued = {
            let ns = &mut self.sim.nodes[node.idx()];
            let i = ns.issued;
            ns.issued += 1;
            i
        };
        assert!(
            issued < (1 << RANK_SHIFT) && u64::from(node.0) < (1 << (56 - RANK_SHIFT)),
            "worm rank overflow: node {node:?}, issue {issued}"
        );
        let rank = (u64::from(node.0) << RANK_SHIFT) | u64::from(issued);
        // A slot retired this run, else the run's next slot, as a fresh
        // slab would number it.  Either way a reused slot keeps its path
        // buffer, so steady-state worm turnover allocates nothing.
        let sim = &mut self.sim;
        let w = sim.free_worms.pop().unwrap_or_else(|| {
            let w = sim.slots as u32;
            sim.slots += 1;
            w
        });
        let worm = Worm {
            src: node,
            dest: req.dest,
            bytes: req.bytes,
            flits,
            payload: Some(req.payload),
            path: Vec::new(),
            at: RouterId(u32::MAX),
            release_ptr: 0,
            initiated: t,
            injected: 0,
            drain_start: 0,
            tail_consumed: 0,
            blocked: 0,
            block_start: None,
            phase: Phase::Climbing,
            retry_scheduled: false,
            generation: 0,
            rank,
        };
        if let Some(slot) = sim.worms.get_mut(w as usize) {
            let mut path = std::mem::take(&mut slot.path);
            path.clear();
            *slot = Worm {
                path,
                generation: slot.generation,
                ..worm
            };
        } else {
            // Routes are minimal: injection, `distance` hops, consumption.
            let path = Vec::with_capacity(self.topo.distance(node, req.dest) + 2);
            sim.worms.push(Worm { path, ..worm });
        }
        if self.obs.enabled() {
            // The send software occupies the CPU for `t_hold` from pickup;
            // the idle edge is known now, so both are emitted here.
            self.obs.on_cpu_busy(t, w, node);
            self.obs.on_cpu_idle(t + hold, w, node);
        }
        self.schedule(t + t_send, Event::WormStart(w));
    }

    /// Candidate hops for the worm's next move, via the topology's
    /// closed-form routing function (one virtual call per hop).
    fn candidates(&self, w: u32, out: &mut Vec<Hop>) {
        let worm = &self.sim.worms[w as usize];
        if worm.path.is_empty() {
            // All NI ports are candidates (one in the one-port
            // architecture); port choice is not subject to cfg.adaptive.
            out.extend(self.graph.injection_hops(worm.src));
        } else {
            self.topo
                .route_candidates(worm.at, worm.src, worm.dest, out);
            if !self.cfg.adaptive {
                out.truncate(1);
            }
        }
    }

    fn on_advance(&mut self, w: u32, t: Time) {
        if self.sim.worms[w as usize].phase != Phase::Climbing {
            return; // stale retry
        }
        self.sim.worms[w as usize].retry_scheduled = false;
        let mut cand = std::mem::take(&mut self.sim.cand_scratch);
        cand.clear();
        self.candidates(w, &mut cand);
        let free = cand
            .iter()
            .copied()
            .find(|h| self.sim.channels[h.channel.idx()].is_free(t));
        match free {
            None => {
                // Blocked: remember when, wait on every candidate.
                let worm = &mut self.sim.worms[w as usize];
                let generation = worm.generation;
                if worm.block_start.is_none() {
                    worm.block_start = Some(t);
                    let first = cand.first().map(|h| h.channel);
                    self.obs.on_blocked(t, w, first);
                }
                for &Hop { channel: c, .. } in &cand {
                    let sim = &mut self.sim;
                    let ch = &mut sim.channels[c.idx()];
                    if ch.waiters == NO_WAITERS {
                        // The next spare list, or a new one.
                        ch.waiters = sim.waiter_lists as u32;
                        sim.waiter_lists += 1;
                        if sim.waiters.len() < sim.waiter_lists {
                            sim.waiters.push(Vec::new());
                        }
                    }
                    sim.waiters[ch.waiters as usize].push((w, generation));
                    // A release already known but not queued (nobody waited
                    // when its time was set) must now wake this waiter at
                    // exactly `free_at`; the flag keeps one entry per release.
                    if ch.released && !ch.release_queued {
                        ch.release_queued = true;
                        let free_at = ch.at;
                        self.unqueued_releases -= 1;
                        self.push(free_at, Event::Release(c.0));
                    }
                }
            }
            Some(hop) => {
                // A previously blocked worm left waiter entries on *every*
                // candidate; purge them so no candidate released later
                // schedules a spurious same-generation retry (which would
                // advance the worm a second time at that instant).
                if self.sim.worms[w as usize].block_start.is_some() {
                    for h in &cand {
                        let list = self.sim.channels[h.channel.idx()].waiters as usize;
                        self.sim.waiters[list].retain(|&(ww, _)| ww != w);
                    }
                }
                self.acquire(w, hop, t);
            }
        }
        self.sim.cand_scratch = cand;
    }

    fn acquire(&mut self, w: u32, hop: Hop, t: Time) {
        let c = hop.channel;
        self.acquires += 1;
        let ch = &mut self.sim.channels[c.idx()];
        debug_assert!(ch.is_free(t) && !ch.release_queued);
        ch.holder = w;
        ch.at = t;
        ch.released = false;
        if ch.total == UNTOUCHED {
            let totals = &mut self.sim.totals;
            if totals.len() == totals.capacity() {
                // Past the reservation, grow by a quarter, not double: the
                // list becomes the result, spare room and all.
                totals.reserve_exact(totals.len() / 4 + 16);
            }
            ch.total = totals.len() as u32;
            totals.push((c, ChannelTelemetry::default()));
        }
        let total = ch.total as usize;
        self.sim.totals[total].1.acquires += 1;
        self.obs.on_channel_acquire(t, w, c);
        let worm = &mut self.sim.worms[w as usize];
        if let Some(b) = worm.block_start.take() {
            if t > b {
                worm.blocked += t - b;
                self.blocked_cycles += t - b;
                self.blocked_events += 1;
                // Attribute the wait to the channel that finally opened —
                // the contended resource a heatmap should highlight.
                self.sim.totals[total].1.blocked += t - b;
            }
        }
        let first_hop = worm.path.is_empty();
        if first_hop {
            worm.injected = t;
        }
        worm.path.push(c);
        if let Some(r) = hop.next {
            worm.at = r;
        }
        let i = worm.path.len() - 1;
        // With B-deep buffers the worm compresses into ceil(L/B) channels;
        // the tail leaves channel i - span when the head takes channel i.
        let span = worm.flits.div_ceil(self.cfg.buffer_flits.max(1)) as usize;
        let tail_release = if i >= span {
            let rel = worm.path[i - span];
            debug_assert_eq!(worm.release_ptr, i - span);
            worm.release_ptr = i - span + 1;
            Some(rel)
        } else {
            None
        };
        if first_hop {
            self.obs.on_inject_start(t, w, c);
        }
        if let Some(rel) = tail_release {
            self.release_at(rel.0, t);
        }
        let rd = self.cfg.router_delay;
        if hop.next.is_none() {
            // Head reached the consumption channel: drain.
            debug_assert_eq!(
                self.graph.dst_node(c),
                Some(self.sim.worms[w as usize].dest),
                "routing consumed at the wrong node"
            );
            self.obs.on_drain_start(t, w, c);
            let worm = &mut self.sim.worms[w as usize];
            worm.phase = Phase::Draining;
            let p = worm.path.len();
            let tail_consumed = t + rd + worm.flits - 1;
            worm.drain_start = t;
            worm.tail_consumed = tail_consumed;
            let first = std::mem::replace(&mut worm.release_ptr, p);
            // Channel j frees once every flit not yet past it has drained:
            // at most B flits fit in each of the (p-1-j) downstream buffers.
            let buf = self.cfg.buffer_flits.max(1);
            for j in first..p {
                let ch = self.sim.worms[w as usize].path[j].0;
                let downstream = buf * (p - 1 - j) as Time;
                let floor = self.sim.channels[ch as usize].at + 1;
                self.release_at(ch, tail_consumed.saturating_sub(downstream).max(floor));
            }
            self.schedule(tail_consumed, Event::RecvSoftware(w));
        } else {
            self.schedule(t + rd, Event::HeadAdvance(w));
        }
    }

    /// A queued release (see [`Engine::release_at`], which already did the
    /// accounting): free the channel and wake its waiters.
    fn on_release(&mut self, c: ChannelId, t: Time) {
        let ch = &mut self.sim.channels[c.idx()];
        debug_assert!(
            ch.holder != FREE && ch.released && ch.at == t,
            "stray release of {c:?}"
        );
        let holder = std::mem::replace(&mut ch.holder, FREE);
        ch.release_queued = false;
        let list = ch.waiters;
        self.obs.on_channel_release(t, holder, c);
        if list == NO_WAITERS {
            return; // queued for a time-ordered observer only
        }
        let mut waiters = std::mem::take(&mut self.sim.waiters[list as usize]);
        for &(w, generation) in &waiters {
            let worm = &mut self.sim.worms[w as usize];
            // The generation check drops entries filed by a retired
            // occupant of a reused slot; same-generation behavior is
            // exactly the old phase/retry filtering.
            if worm.generation == generation
                && worm.phase == Phase::Climbing
                && !worm.retry_scheduled
            {
                worm.retry_scheduled = true;
                self.schedule(t, Event::HeadAdvance(w));
            }
        }
        // Hand the (now cleared) buffer back so blocking episodes don't
        // allocate in steady state.  Nothing re-files a waiter during the
        // loop — retries are scheduled as events, not run inline.
        waiters.clear();
        self.sim.waiters[list as usize] = waiters;
    }

    /// The tail flit is in the NI; the receive software runs as soon as the
    /// destination's (single) CPU is free — back-to-back receives therefore
    /// serialise, which is the receive-side face of the model's `t_hold`
    /// ("any two consecutive send or receive operations", §2.1).
    fn on_recv_software(&mut self, w: u32, t: Time) {
        let dest = self.sim.worms[w as usize].dest;
        let t_recv = self
            .cfg
            .software
            .t_recv
            .eval(self.sim.worms[w as usize].bytes);
        // A receive-only leaf changes state here and nowhere else.
        self.sim.touch_node(dest);
        let ns = &mut self.sim.nodes[dest.idx()];
        let start = t.max(ns.cpu_free);
        ns.cpu_free = start + t_recv;
        if self.obs.enabled() {
            self.obs.on_cpu_busy(start, w, dest);
            self.obs.on_cpu_idle(start + t_recv, w, dest);
        }
        self.schedule(start + t_recv, Event::RecvDone(w));
    }

    fn on_recv_done(&mut self, w: u32, t: Time) {
        let worm = &mut self.sim.worms[w as usize];
        debug_assert_eq!(worm.phase, Phase::Draining);
        worm.phase = Phase::Done;
        let payload = worm.payload.take().expect("payload delivered once");
        self.messages.push(MessageRecord {
            src: worm.src,
            dest: worm.dest,
            bytes: worm.bytes,
            initiated: worm.initiated,
            injected: worm.injected,
            drain_start: worm.drain_start,
            tail_consumed: worm.tail_consumed,
            completed: t,
            blocked: worm.blocked,
        });
        let dest = worm.dest;
        // Retire the slot: stale waiter entries die with the generation.
        // Reuse is disabled only for sinks that retain events keyed by worm
        // id (`Memory`/`Jsonl`/active `Custom`) so recorded ids stay
        // unique; `Null` and `Counters` keep the fast path (observation
        // never alters simulation outcomes — ids don't feed back into
        // timing).
        worm.generation = worm.generation.wrapping_add(1);
        if !self.obs.needs_unique_worm_ids() {
            self.sim.free_worms.push(w);
        }
        self.obs.on_recv_done(t, w, dest);
        let sends = self.program.on_receive(dest, &payload, t);
        self.enqueue_sends(dest, t, sends);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::SoftwareModel;
    use crate::program::{RelayProgram, SinkProgram};
    use topo::{Bmin, Mesh, UpPolicy};

    fn bare_cfg() -> SimConfig {
        SimConfig {
            software: SoftwareModel::zero(),
            ..SimConfig::paragon_like()
        }
    }

    fn p2p(topo: &dyn Topology, cfg: &SimConfig, src: u32, dst: u32, bytes: u64) -> SimResult {
        let mut e = Engine::new(topo, cfg.clone(), SinkProgram);
        e.start(NodeId(src), 0, vec![SendReq::to(NodeId(dst), bytes, ())]);
        e.run().1
    }

    #[test]
    fn idle_mesh_p2p_matches_prediction() {
        let m = Mesh::new(&[6, 6]);
        let cfg = SimConfig::paragon_like();
        for (src, dst) in [(0u32, 1u32), (0, 35), (7, 28), (30, 5)] {
            for bytes in [0u64, 8, 100, 4096] {
                let hops = m.distance(NodeId(src), NodeId(dst));
                let r = p2p(&m, &cfg, src, dst, bytes);
                assert!(r.contention_free());
                assert_eq!(r.messages.len(), 1);
                assert_eq!(
                    r.messages[0].latency(),
                    cfg.predict_p2p(hops, bytes),
                    "{src}->{dst} {bytes}B"
                );
            }
        }
    }

    #[test]
    fn idle_bmin_p2p_matches_prediction() {
        let b = Bmin::new(5, UpPolicy::Straight);
        let cfg = SimConfig::paragon_like();
        for (src, dst) in [(0u32, 1u32), (0, 31), (12, 19)] {
            let hops = b.distance(NodeId(src), NodeId(dst));
            let r = p2p(&b, &cfg, src, dst, 512);
            assert!(r.contention_free());
            assert_eq!(r.messages[0].latency(), cfg.predict_p2p(hops, 512));
        }
    }

    #[test]
    fn head_on_contention_serialises() {
        // Two worms in opposite directions through the same middle link of a
        // 1-D mesh: 0 -> 3 and 1 -> 3. The second must wait for the first to
        // drain past their shared channels.
        let m = Mesh::new(&[4]);
        let cfg = bare_cfg();
        let mut e = Engine::new(&m, cfg.clone(), SinkProgram);
        e.start(NodeId(0), 0, vec![SendReq::to(NodeId(3), 800, ())]);
        e.start(NodeId(1), 0, vec![SendReq::to(NodeId(3), 800, ())]);
        let r = e.run().1;
        assert!(!r.contention_free());
        assert_eq!(r.blocked_events, 1);
        // Uncontended latencies: worm 1 from node 1 is 3 hops+ports.
        let solo = cfg.predict_p2p(2, 800);
        let m1 = r.delivered_to(NodeId(3)).unwrap();
        assert!(
            m1.latency() >= solo,
            "blocked worm can't be faster than solo"
        );
    }

    #[test]
    fn disjoint_paths_run_concurrently() {
        // 0 -> 1 and 2 -> 3 in a line share nothing.
        let m = Mesh::new(&[4]);
        let mut e = Engine::new(&m, bare_cfg(), SinkProgram);
        e.start(NodeId(0), 0, vec![SendReq::to(NodeId(1), 64, ())]);
        e.start(NodeId(2), 0, vec![SendReq::to(NodeId(3), 64, ())]);
        let r = e.run().1;
        assert!(r.contention_free());
        // Both complete at the same time (same distance, same size).
        assert_eq!(r.messages[0].completed, r.messages[1].completed);
    }

    #[test]
    fn one_port_spaces_sends_by_hold() {
        let m = Mesh::new(&[8]);
        let mut cfg = bare_cfg();
        cfg.software.t_hold = pcm::LinearFn::constant(500.0);
        let mut e = Engine::new(&m, cfg, SinkProgram);
        e.start(
            NodeId(0),
            0,
            vec![
                SendReq::to(NodeId(1), 8, ()),
                SendReq::to(NodeId(2), 8, ()),
                SendReq::to(NodeId(3), 8, ()),
            ],
        );
        let r = e.run().1;
        let mut inits: Vec<Time> = r.messages.iter().map(|m| m.initiated).collect();
        inits.sort_unstable();
        assert_eq!(inits, vec![0, 500, 1000]);
        assert!(r.contention_free());
    }

    #[test]
    fn consumption_port_serialises_receivers() {
        // Two senders target the same destination from opposite sides; the
        // consumption channel is the bottleneck.
        let m = Mesh::new(&[5]);
        let mut e = Engine::new(&m, bare_cfg(), SinkProgram);
        e.start(NodeId(0), 0, vec![SendReq::to(NodeId(2), 4000, ())]);
        e.start(NodeId(4), 0, vec![SendReq::to(NodeId(2), 4000, ())]);
        let r = e.run().1;
        assert_eq!(r.blocked_events, 1);
        let (a, b) = (&r.messages[0], &r.messages[1]);
        // The loser finishes roughly a full drain after the winner.
        assert!(
            b.completed >= a.completed + 500 - 2,
            "{} vs {}",
            a.completed,
            b.completed
        );
    }

    #[test]
    fn relay_chain_adds_stage_latencies() {
        let m = Mesh::new(&[4]);
        let cfg = SimConfig::paragon_like();
        let ring: Vec<NodeId> = (0..4).map(NodeId).collect();
        let mut e = Engine::new(
            &m,
            cfg.clone(),
            RelayProgram {
                ring: ring.clone(),
                bytes: 64,
            },
        );
        // 0 -> 1, then 1 -> 2, then 2 -> 3.
        e.start(NodeId(0), 0, vec![SendReq::to(NodeId(1), 64, 2)]);
        let r = e.run().1;
        assert_eq!(r.messages.len(), 3);
        let per_hop = cfg.predict_p2p(1, 64);
        assert_eq!(r.last_completion(), Some(3 * per_hop));
        assert!(r.contention_free());
    }

    #[test]
    fn deterministic_across_runs() {
        let b = Bmin::new(5, UpPolicy::Straight);
        let cfg = SimConfig::paragon_like();
        let go = || {
            let mut e = Engine::new(&b, cfg.clone(), SinkProgram);
            for (s, d) in [(0u32, 17u32), (3, 22), (9, 30), (16, 2), (21, 8)] {
                e.start(NodeId(s), 0, vec![SendReq::to(NodeId(d), 2048, ())]);
            }
            e.run().1
        };
        let (r1, r2) = (go(), go());
        assert_eq!(format!("{:?}", r1.messages), format!("{:?}", r2.messages));
        assert_eq!(r1.blocked_cycles, r2.blocked_cycles);
    }

    #[test]
    fn adaptive_up_phase_dodges_busy_channel() {
        // Force two climbs from sibling sources (same preferred column) and
        // check the adaptive engine suffers less blocking than the
        // deterministic one.
        let b = Bmin::new(4, UpPolicy::Straight);
        let run = |adaptive: bool| {
            let mut cfg = bare_cfg();
            cfg.adaptive = adaptive;
            let mut e = Engine::new(&b, cfg, SinkProgram);
            // Siblings 0 and 1 both climb to the far half.
            e.start(NodeId(0), 0, vec![SendReq::to(NodeId(12), 4000, ())]);
            e.start(NodeId(1), 0, vec![SendReq::to(NodeId(14), 4000, ())]);
            e.run().1
        };
        let det = run(false);
        let ada = run(true);
        assert!(
            det.blocked_cycles > 0,
            "expected the deterministic run to contend"
        );
        assert!(
            ada.blocked_cycles < det.blocked_cycles,
            "adaptive {} vs deterministic {}",
            ada.blocked_cycles,
            det.blocked_cycles
        );
    }

    #[test]
    fn slow_routers_still_match_prediction() {
        // router_delay > 1: the head crawls, the prediction must track it.
        let m = Mesh::new(&[6, 6]);
        let mut cfg = SimConfig::paragon_like();
        cfg.router_delay = 3;
        for (src, dst, bytes) in [(0u32, 35u32, 0u64), (7, 28, 2048)] {
            let hops = m.distance(NodeId(src), NodeId(dst));
            let r = p2p(&m, &cfg, src, dst, bytes);
            assert_eq!(r.messages[0].latency(), cfg.predict_p2p(hops, bytes));
        }
    }

    #[test]
    fn receive_software_serialises_back_to_back_arrivals() {
        // Two small messages to one node arriving nearly together: the
        // second completes a full t_recv after the first's software ends.
        let m = Mesh::new(&[5]);
        let mut cfg = bare_cfg();
        cfg.software.t_recv = pcm::LinearFn::constant(400.0);
        let mut e = Engine::new(&m, cfg, SinkProgram);
        e.start(NodeId(0), 0, vec![SendReq::to(NodeId(2), 8, ())]);
        e.start(NodeId(4), 0, vec![SendReq::to(NodeId(2), 8, ())]);
        let r = e.run().1;
        let mut done: Vec<Time> = r.messages.iter().map(|m| m.completed).collect();
        done.sort_unstable();
        assert!(
            done[1] >= done[0] + 400,
            "second receive at {} vs first at {}",
            done[1],
            done[0]
        );
    }

    #[test]
    fn buffer_depth_does_not_change_idle_latency() {
        // On an idle network the worm never blocks, so buffering is
        // invisible: p2p latency must be depth-independent.
        let m = Mesh::new(&[6, 6]);
        let base = p2p(&m, &SimConfig::paragon_like(), 0, 35, 4096);
        for depth in [2u64, 16, 1024] {
            let mut cfg = SimConfig::paragon_like();
            cfg.buffer_flits = depth;
            let r = p2p(&m, &cfg, 0, 35, 4096);
            assert_eq!(
                r.messages[0].latency(),
                base.messages[0].latency(),
                "depth {depth}"
            );
        }
    }

    #[test]
    fn deep_buffers_shrink_blocking_footprint() {
        // The long worm of `long_worm_holds_whole_path`, but with buffers
        // deep enough to swallow it: the cross send no longer waits long.
        let m = Mesh::new(&[6]);
        let run = |depth: u64| {
            let mut cfg = bare_cfg();
            cfg.buffer_flits = depth;
            let mut e = Engine::new(&m, cfg, SinkProgram);
            e.start(NodeId(0), 0, vec![SendReq::to(NodeId(5), 8000, ())]);
            e.start(NodeId(2), 100, vec![SendReq::to(NodeId(4), 8, ())]);
            e.run().1
        };
        let shallow = run(1);
        let deep = run(4096);
        assert!(shallow.blocked_cycles > 0);
        assert!(
            deep.blocked_cycles < shallow.blocked_cycles / 4,
            "deep {} vs shallow {}",
            deep.blocked_cycles,
            shallow.blocked_cycles
        );
    }

    #[test]
    fn multiport_ni_overlaps_injections() {
        // Two sends in opposite directions from one node: with one port the
        // second waits for the first worm to clear the injection channel;
        // with two ports they overlap and both finish sooner.
        let run = |ports: usize| {
            let m = Mesh::with_ports(&[5], ports);
            let mut e = Engine::new(&m, bare_cfg(), SinkProgram);
            e.start(
                NodeId(2),
                0,
                vec![
                    SendReq::to(NodeId(0), 8000, ()),
                    SendReq::to(NodeId(4), 8000, ()),
                ],
            );
            e.run().1.last_completion().expect("both sends deliver")
        };
        let one = run(1);
        let two = run(2);
        assert!(two < one, "2-port {} should beat 1-port {}", two, one);
    }

    #[test]
    fn trace_records_full_lifecycle() {
        use crate::trace::{blocking_episodes, channel_occupancy, TraceKind};
        let m = Mesh::new(&[5]);
        let mut cfg = bare_cfg();
        cfg.trace = true;
        let mut e = Engine::new(&m, cfg, SinkProgram);
        e.start(NodeId(0), 0, vec![SendReq::to(NodeId(2), 4000, ())]);
        e.start(NodeId(4), 0, vec![SendReq::to(NodeId(2), 4000, ())]);
        let r = e.run().1;
        // Acquire/release pair counts match the engine's own accounting.
        let acq = r
            .trace
            .iter()
            .filter(|t| t.kind == TraceKind::Acquire)
            .count();
        let rel = r
            .trace
            .iter()
            .filter(|t| t.kind == TraceKind::Release)
            .count();
        assert_eq!(acq, rel);
        assert!(acq >= 8, "two worms across several channels, got {acq}");
        // One of the two worms blocked on the consumption port.
        assert_eq!(blocking_episodes(&r.trace).len(), 1);
        // Occupancy spans are well-formed (from < to) and cover the
        // consumption channel twice.
        let cons = m.graph().consumption(NodeId(2));
        let occ = channel_occupancy(&r.trace);
        let spans = &occ.iter().find(|(c, _)| *c == cons).unwrap().1;
        assert_eq!(spans.len(), 2);
        for (from, to, _) in spans {
            assert!(from < to);
        }
        // Timeline renders without panicking and mentions the channel.
        let text = crate::trace::render_timeline(&r.trace, m.graph(), 5);
        assert!(text.contains("ch"));
    }

    #[test]
    fn trace_empty_when_disabled() {
        let m = Mesh::new(&[4]);
        let mut e = Engine::new(&m, bare_cfg(), SinkProgram);
        e.start(NodeId(0), 0, vec![SendReq::to(NodeId(3), 64, ())]);
        assert!(e.run().1.trace.is_empty());
    }

    #[test]
    #[should_panic(expected = "may not send to itself")]
    fn self_send_panics() {
        let m = Mesh::new(&[4]);
        let mut e = Engine::new(&m, bare_cfg(), SinkProgram);
        e.start(NodeId(0), 0, vec![SendReq::to(NodeId(0), 8, ())]);
    }

    #[test]
    fn empty_run_finishes_at_zero() {
        let m = Mesh::new(&[4]);
        let e = Engine::new(&m, bare_cfg(), SinkProgram);
        let r = e.run().1;
        assert_eq!(r.finish, 0);
        assert!(r.messages.is_empty());
        // An empty run has no completion time — it must not report 0.
        assert_eq!(r.last_completion(), None);
    }

    #[test]
    fn trace_limit_truncates_and_flags() {
        let m = Mesh::new(&[5]);
        let mut cfg = bare_cfg();
        cfg.trace = true;
        cfg.trace_limit = Some(3);
        let mut e = Engine::new(&m, cfg, SinkProgram);
        e.start(NodeId(0), 0, vec![SendReq::to(NodeId(4), 4000, ())]);
        let r = e.run().1;
        assert_eq!(r.trace.len(), 3);
        assert!(r.truncated);
        assert!(r.meta.trace_dropped > 0);
        assert_eq!(r.meta.trace_events, 3);
    }

    #[test]
    fn trace_includes_cpu_spans() {
        use crate::trace::cpu_occupancy;
        let m = Mesh::new(&[4]);
        let mut cfg = SimConfig::paragon_like(); // nonzero t_hold / t_recv
        cfg.trace = true;
        let mut e = Engine::new(&m, cfg.clone(), SinkProgram);
        e.start(NodeId(0), 0, vec![SendReq::to(NodeId(3), 256, ())]);
        let r = e.run().1;
        let cpus = cpu_occupancy(&r.trace);
        // Sender CPU busy for t_hold from pickup; receiver for t_recv.
        let sender = cpus.iter().find(|(n, _)| *n == NodeId(0)).unwrap();
        assert_eq!(sender.1[0].1 - sender.1[0].0, cfg.software.t_hold.eval(256));
        let receiver = cpus.iter().find(|(n, _)| *n == NodeId(3)).unwrap();
        assert_eq!(
            receiver.1[0].1 - receiver.1[0].0,
            cfg.software.t_recv.eval(256)
        );
    }

    #[test]
    fn run_meta_reports_engine_vitals() {
        let m = Mesh::new(&[6]);
        let mut e = Engine::new(&m, bare_cfg(), SinkProgram);
        e.start(NodeId(0), 0, vec![SendReq::to(NodeId(5), 2048, ())]);
        let r = e.run().1;
        assert!(r.meta.events_processed > 0);
        assert_eq!(r.meta.events_scheduled, r.meta.events_processed);
        assert!(r.meta.peak_heap_events >= 1);
        assert!(r.meta.peak_heap_bytes > 0);
        assert_eq!(r.meta.trace_events, 0);
        // Event counts are deterministic even though wall time is not.
        let mut e2 = Engine::new(&m, bare_cfg(), SinkProgram);
        e2.start(NodeId(0), 0, vec![SendReq::to(NodeId(5), 2048, ())]);
        let r2 = e2.run().1;
        assert_eq!(r.meta.events_processed, r2.meta.events_processed);
        assert_eq!(r.meta.peak_heap_events, r2.meta.peak_heap_events);
    }

    #[test]
    fn observer_choice_never_alters_simulation() {
        // The same workload under Null, Counters, Memory and Custom
        // observers must produce identical simulation outcomes (messages,
        // blocking, finish) — observation is read-only.
        let b = Bmin::new(4, UpPolicy::Straight);
        let run = |sink: Option<crate::obs::TraceSink>| {
            let mut e = Engine::new(&b, bare_cfg(), SinkProgram);
            if let Some(s) = sink {
                e.set_observer(s);
            }
            for (s, d) in [(0u32, 12u32), (1, 14), (5, 9)] {
                e.start(NodeId(s), 0, vec![SendReq::to(NodeId(d), 4000, ())]);
            }
            e.run().1
        };
        struct Nop;
        impl crate::obs::Observer for Nop {}
        let base = run(None);
        for sink in [
            crate::obs::TraceSink::counters(),
            crate::obs::TraceSink::memory(),
            crate::obs::TraceSink::Custom(Box::new(Nop)),
        ] {
            let r = run(Some(sink));
            assert_eq!(r.messages, base.messages);
            assert_eq!(r.finish, base.finish);
            assert_eq!(r.blocked_cycles, base.blocked_cycles);
            assert_eq!(r.blocked_events, base.blocked_events);
            assert_eq!(r.meta.events_processed, base.meta.events_processed);
            assert_eq!(r.channels, base.channels);
        }
    }

    #[test]
    fn counters_sink_keeps_slot_reuse_and_counts_events() {
        // A relay around a chain delivers messages sequentially, so with
        // slot reuse the worm slab stays at one slot.  The counters-only
        // observer must match the Null baseline's peak heap exactly (reuse
        // stayed on), while a retaining observer grows the slab.
        let m = Mesh::new(&[6]);
        let run = |sink: Option<crate::obs::TraceSink>| {
            let relay = RelayProgram {
                ring: (0..6).map(NodeId).collect(),
                bytes: 256,
            };
            let mut e = Engine::new(&m, bare_cfg(), relay);
            if let Some(s) = sink {
                e.set_observer(s);
            }
            e.start(NodeId(0), 0, vec![SendReq::to(NodeId(1), 256, 8u32)]);
            e.run().1
        };
        let base = run(None);
        let counted = run(Some(crate::obs::TraceSink::counters()));
        assert_eq!(counted.messages, base.messages);
        assert_eq!(
            counted.meta.peak_heap_bytes, base.meta.peak_heap_bytes,
            "counters sink must not disable worm-slab slot reuse"
        );
        let traced = run(Some(crate::obs::TraceSink::memory()));
        assert!(
            traced.meta.peak_heap_bytes > base.meta.peak_heap_bytes,
            "retaining sink should grow the slab (unique ids) and keep a trace"
        );
        // The tallies agree with what the run actually did.
        let c = counted
            .counts
            .expect("counters sink fills SimResult::counts");
        assert_eq!(c.recv_dones, counted.messages.len() as u64);
        let acquires: u64 = counted
            .channels
            .touched()
            .iter()
            .map(|(_, t)| t.acquires)
            .sum();
        assert_eq!(c.acquires, acquires);
        assert_eq!(c.releases, acquires);
        assert_eq!(base.counts, None);
    }

    /// Run `sends` (src, dst, bytes, start) under `sink` (`None`: Null).
    fn run_sends(
        topo: &dyn Topology,
        cfg: &SimConfig,
        sends: &[(u32, u32, u64, Time)],
        sink: Option<TraceSink>,
    ) -> SimResult {
        let mut e = Engine::new(topo, cfg.clone(), SinkProgram);
        if let Some(s) = sink {
            e.set_observer(s);
        }
        for &(src, dst, bytes, at) in sends {
            e.start(NodeId(src), at, vec![SendReq::to(NodeId(dst), bytes, ())]);
        }
        e.run().1
    }

    #[test]
    fn late_waiter_wakes_at_the_known_release_time() {
        // 0 -> 5 (1001 flits) holds its whole path and starts draining at
        // cycle 6, which fixes every release: channel 2->3 (path index 3 of
        // 7) frees at 1007 - 3 = 1004, channel 3->4 at 1005.  Nobody waits
        // then, so neither release is queued.  2 -> 4 blocks on 2->3 at
        // cycle 101 and must be woken at exactly 1004.
        let m = Mesh::new(&[6]);
        let sends = [(0, 5, 8000, 0), (2, 4, 8, 100)];
        let r = run_sends(&m, &bare_cfg(), &sends, None);
        let small = r.delivered_to(NodeId(4)).unwrap();
        assert_eq!(small.blocked, 1004 - 101);
        // 2->3 at 1004, 3->4 at 1005 (free that very cycle), consumption
        // at 1006; two flits drain by 1008.
        assert_eq!(small.drain_start, 1006);
        assert_eq!(small.completed, 1008);
        // The queued path (every release an event) agrees to the byte.
        let traced = run_sends(&m, &bare_cfg(), &sends, Some(TraceSink::memory()));
        assert_eq!(traced.messages, r.messages);
        assert_eq!(traced.meta.events_processed, r.meta.events_processed);
        assert!(r.meta.peak_heap_events < traced.meta.peak_heap_events);
    }

    #[test]
    fn tail_released_while_climbing_is_acquirable_the_same_cycle() {
        // A 2-flit worm 0 -> 5 frees path index i - 2 as its head takes
        // index i: 1->2 at cycle 4, 2->3 at cycle 5.  A worm 1 -> 3 started
        // at cycle 3 asks for 1->2 at 4 and 2->3 at 5, each after the
        // releasing event of that cycle (node 0's worm ranks first), so it
        // follows the tail without blocking.
        let m = Mesh::new(&[6]);
        let sends = [(0, 5, 8, 0), (1, 3, 8, 3)];
        for sink in [None, Some(TraceSink::counters()), Some(TraceSink::memory())] {
            let r = run_sends(&m, &bare_cfg(), &sends, sink);
            assert!(r.contention_free(), "{:?}", r.messages);
            let follower = r.delivered_to(NodeId(3)).unwrap();
            assert_eq!(follower.injected, 3);
            assert_eq!(follower.drain_start, 6);
            assert_eq!(follower.completed, 8);
        }
    }

    #[test]
    fn finish_counts_an_unqueued_last_release() {
        // One flit, no header, zero router delay and zero software: every
        // hop happens at cycle 0 and the message completes at 0, but the
        // consumption channel frees one cycle after its acquisition.  No
        // event is queued for that release, and `finish` still counts it.
        let m = Mesh::new(&[4]);
        let mut cfg = bare_cfg();
        cfg.router_delay = 0;
        cfg.header_flits = 0;
        let sends = [(0, 3, 8, 0)];
        let r = run_sends(&m, &cfg, &sends, None);
        assert_eq!(r.messages[0].completed, 0);
        assert_eq!(r.finish, 1);
        let traced = run_sends(&m, &cfg, &sends, Some(TraceSink::memory()));
        assert_eq!(traced.finish, 1);
        assert_eq!(traced.meta.events_processed, r.meta.events_processed);
    }

    #[test]
    fn long_worm_holds_whole_path() {
        // A single long worm across a line: while draining, a cross send
        // through the middle must block until the tail passes.
        let m = Mesh::new(&[6]);
        let cfg = bare_cfg();
        let mut e = Engine::new(&m, cfg.clone(), SinkProgram);
        e.start(NodeId(0), 0, vec![SendReq::to(NodeId(5), 8000, ())]);
        // Starts while the first worm still streams.
        e.start(NodeId(2), 100, vec![SendReq::to(NodeId(4), 8, ())]);
        let r = e.run().1;
        assert_eq!(r.blocked_events, 1);
        let small = r.delivered_to(NodeId(4)).unwrap();
        let big = r.delivered_to(NodeId(5)).unwrap();
        // The small message cannot complete before the big worm's tail
        // cleared the shared channels (just before full drain).
        assert!(
            small.completed > big.completed - 1001,
            "{small:?} vs {big:?}"
        );
    }
}
