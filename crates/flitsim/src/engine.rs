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

use std::collections::VecDeque;

use pcm::Time;
use topo::{ChannelId, NetworkGraph, NodeId, RouteTable, Topology};

use crate::config::SimConfig;
use crate::equeue::{EventQueue, ENTRY_BYTES};
use crate::obs::{Observer, RunMeta, TraceSink};
use crate::program::{Program, SendReq};
use crate::stats::{MessageRecord, SimResult};
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

struct ChanState {
    holder: Option<u32>,
    acquired_at: Time,
    /// Waiting worms as (slot, generation-at-blocking) pairs.
    waiters: Vec<(u32, u32)>,
}

struct NodeState<P> {
    cpu_free: Time,
    queue: VecDeque<SendReq<P>>,
    /// Time of the earliest pending `NodeKick`, if any.  Stale kicks (a
    /// later one superseded by an earlier enqueue) stay in the heap and are
    /// ignored when they fire.
    kick_at: Option<Time>,
    /// Sends issued (worms born) by this node so far — the per-node half of
    /// every worm's intrinsic rank.
    issued: u32,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Event {
    /// Channel released — processed before same-time head movements so a
    /// channel freed at `t` is acquirable at `t`.
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
    routes: &'t RouteTable,
    cfg: SimConfig,
    program: Prog,
    worms: Vec<Worm<Prog::Payload>>,
    /// Retired worm slots available for reuse (disabled only for sinks
    /// that retain events, so recorded worm ids stay unique — see
    /// [`TraceSink::needs_unique_worm_ids`]).
    free_worms: Vec<u32>,
    channels: Vec<ChanState>,
    nodes: Vec<NodeState<Prog::Payload>>,
    queue: EventQueue,
    /// Scratch for `candidates()` — reused across events so a steady-state
    /// step allocates nothing.
    cand_scratch: Vec<ChannelId>,
    /// Scratch for the drain-path release schedule.
    pending_scratch: Vec<(Time, u32)>,
    finish: Time,
    messages: Vec<MessageRecord>,
    blocked_cycles: Time,
    blocked_events: u64,
    channel_busy: Time,
    /// Always-on per-channel accumulators (a plain indexed add each, no
    /// observer needed): busy cycles, blocked cycles attributed to the
    /// channel finally acquired, and acquisition counts.  Reduced into
    /// [`SimResult::channels`] for contention heatmaps.
    chan_busy: Vec<Time>,
    chan_blocked: Vec<Time>,
    chan_acquires: Vec<u64>,
    acquires: u64,
    releases: u64,
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
    /// A fresh engine over `topo` with the given configuration and program.
    /// [`SimConfig::trace`] / [`SimConfig::trace_limit`] select the default
    /// in-memory observer; [`Engine::set_observer`] overrides it.
    pub fn new(topo: &'t dyn Topology, cfg: SimConfig, program: Prog) -> Self {
        let g = topo.graph();
        let obs = match (cfg.trace, cfg.trace_limit) {
            (false, _) => TraceSink::Null,
            (true, None) => TraceSink::memory(),
            (true, Some(limit)) => TraceSink::memory_limited(limit),
        };
        Self {
            graph: g,
            routes: topo.route_table(),
            cfg,
            program,
            worms: Vec::new(),
            free_worms: Vec::new(),
            channels: (0..g.n_channels())
                .map(|_| ChanState {
                    holder: None,
                    acquired_at: 0,
                    waiters: Vec::new(),
                })
                .collect(),
            nodes: (0..g.n_nodes())
                .map(|_| NodeState {
                    cpu_free: 0,
                    queue: VecDeque::new(),
                    kick_at: None,
                    issued: 0,
                })
                .collect(),
            queue: EventQueue::new(),
            cand_scratch: Vec::new(),
            pending_scratch: Vec::new(),
            finish: 0,
            messages: Vec::new(),
            blocked_cycles: 0,
            blocked_events: 0,
            channel_busy: 0,
            chan_busy: vec![0; g.n_channels()],
            chan_blocked: vec![0; g.n_channels()],
            chan_acquires: vec![0; g.n_channels()],
            acquires: 0,
            releases: 0,
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
    /// result.
    pub fn run(mut self) -> (Prog, SimResult) {
        let wall_start = std::time::Instant::now();
        let observing = self.obs.enabled();
        while let Some((t, _ord, ev)) = self.queue.pop() {
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
        // Always-on integrity checks: a violation is an engine bug, and the
        // scans are trivially cheap relative to a run.
        assert!(
            self.worms.iter().all(|w| w.phase == Phase::Done),
            "run ended with undelivered worms (deadlock?)"
        );
        assert_eq!(
            self.acquires, self.releases,
            "channel acquire/release imbalance"
        );
        assert!(
            self.channels.iter().all(|c| c.holder.is_none()),
            "run ended with held channels (leak)"
        );
        assert!(
            self.nodes.iter().all(|n| n.queue.is_empty()),
            "run ended with queued sends never issued"
        );
        let wall_ns = wall_start.elapsed().as_nanos().min(u64::MAX as u128) as u64;
        let sink = self.obs.finish();
        // Peak heap estimate: pending events dominate, plus live worm and
        // channel state and whatever trace the sink retained.
        let peak_heap_bytes = (self.peak_heap * ENTRY_BYTES
            + self.worms.len() * std::mem::size_of::<Worm<Prog::Payload>>()
            + self.channels.len() * std::mem::size_of::<ChanState>()
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
        let channels: Vec<crate::stats::ChannelTelemetry> = self
            .chan_busy
            .iter()
            .zip(&self.chan_blocked)
            .zip(&self.chan_acquires)
            .map(
                |((&busy, &blocked), &acquires)| crate::stats::ChannelTelemetry {
                    busy,
                    blocked,
                    acquires,
                },
            )
            .collect();
        // Flush the run's totals into the process-global telemetry counters
        // in bulk — one relaxed add per counter per *run*, so campaign
        // worker threads never contend on a cache line inside the event
        // loop (and the hot path stays allocation-free).
        crate::metrics::RUNS.inc();
        crate::metrics::EVENTS_PROCESSED.add(self.events_processed);
        crate::metrics::EVENTS_SCHEDULED.add(self.events_scheduled);
        crate::metrics::MESSAGES.add(self.messages.len() as u64);
        crate::metrics::BLOCKED_CYCLES.add(self.blocked_cycles);
        crate::metrics::CHANNEL_BUSY_CYCLES.add(self.channel_busy);
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
            | Event::RecvDone(w) => self.worms[w as usize].rank,
        };
        debug_assert!(rank < 1 << 56, "entity rank overflows the ord layout");
        (u64::from(e.priority()) << 63) | (e.kind_rank() << 56) | rank
    }

    fn schedule(&mut self, t: Time, e: Event) {
        self.events_scheduled += 1;
        self.queue.push(t, self.ord_of(e), e.pack());
        self.peak_heap = self.peak_heap.max(self.queue.len());
    }

    fn enqueue_sends(&mut self, node: NodeId, now: Time, sends: Vec<SendReq<Prog::Payload>>) {
        if sends.is_empty() {
            return;
        }
        for s in &sends {
            assert_ne!(s.dest, node, "node {node:?} may not send to itself");
        }
        let ns = &mut self.nodes[node.idx()];
        // Stable insert by `not_before`: a send with an earlier constraint
        // never waits behind one constrained to the far future (concurrent
        // multicasts with staggered starts share node CPUs).  Each
        // program's own non-decreasing `not_before` order is preserved.
        // The queue is sorted by construction, so the insert position is a
        // binary search: first entry with a strictly later constraint.
        for s in sends {
            let pos = ns.queue.partition_point(|q| q.not_before <= s.not_before);
            ns.queue.insert(pos, s);
        }
        let head = ns.queue.front().expect("just inserted");
        let want = now.max(ns.cpu_free).max(head.not_before);
        if ns.kick_at.is_none_or(|k| want < k) {
            ns.kick_at = Some(want);
            self.schedule(want, Event::NodeKick(node.0));
        }
    }

    fn on_kick(&mut self, node: NodeId, t: Time) {
        let ns = &mut self.nodes[node.idx()];
        if ns.kick_at != Some(t) {
            return; // superseded by an earlier kick
        }
        ns.kick_at = None;
        let Some(head) = ns.queue.front() else {
            return;
        };
        let earliest = ns.cpu_free.max(head.not_before);
        if t < earliest {
            ns.kick_at = Some(earliest);
            self.schedule(earliest, Event::NodeKick(node.0));
            return;
        }
        let req = ns.queue.pop_front().expect("checked non-empty");
        let hold = self.cfg.software.t_hold.eval(req.bytes);
        let t_send = self.cfg.software.t_send.eval(req.bytes);
        ns.cpu_free = t + hold;
        if let Some(next) = ns.queue.front() {
            let at = ns.cpu_free.max(next.not_before);
            ns.kick_at = Some(at);
            self.schedule(at, Event::NodeKick(node.0));
        }
        let flits = self.cfg.flits(req.bytes);
        let issued = {
            let ns = &mut self.nodes[node.idx()];
            let i = ns.issued;
            ns.issued += 1;
            i
        };
        assert!(
            issued < (1 << RANK_SHIFT) && u64::from(node.0) < (1 << (56 - RANK_SHIFT)),
            "worm rank overflow: node {node:?}, issue {issued}"
        );
        let rank = (u64::from(node.0) << RANK_SHIFT) | u64::from(issued);
        let w = if let Some(slot) = self.free_worms.pop() {
            // Reuse a retired slot: the path Vec keeps its capacity, so
            // steady-state worm turnover allocates nothing.
            let worm = &mut self.worms[slot as usize];
            worm.src = node;
            worm.dest = req.dest;
            worm.bytes = req.bytes;
            worm.flits = flits;
            worm.payload = Some(req.payload);
            worm.path.clear();
            worm.release_ptr = 0;
            worm.initiated = t;
            worm.injected = 0;
            worm.drain_start = 0;
            worm.tail_consumed = 0;
            worm.blocked = 0;
            worm.block_start = None;
            worm.phase = Phase::Climbing;
            worm.retry_scheduled = false;
            worm.rank = rank;
            slot
        } else {
            let w = self.worms.len() as u32;
            self.worms.push(Worm {
                src: node,
                dest: req.dest,
                bytes: req.bytes,
                flits,
                payload: Some(req.payload),
                path: Vec::new(),
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
            });
            w
        };
        if self.obs.enabled() {
            // The send software occupies the CPU for `t_hold` from pickup;
            // the idle edge is known now, so both are emitted here.
            self.obs.on_cpu_busy(t, w, node);
            self.obs.on_cpu_idle(t + hold, w, node);
        }
        self.schedule(t + t_send, Event::WormStart(w));
    }

    /// Candidate channels for the worm's next hop, via the topology's
    /// precomputed [`RouteTable`].
    fn candidates(&self, w: u32, out: &mut Vec<ChannelId>) {
        let worm = &self.worms[w as usize];
        match worm.path.last() {
            // All NI ports are candidates (one in the one-port
            // architecture); port choice is not subject to cfg.adaptive.
            None => out.extend_from_slice(self.graph.injections(worm.src)),
            Some(&c) => {
                let r = self
                    .graph
                    .dst_router(c)
                    .expect("climbing worm sits at a router");
                self.routes.candidates(r, worm.src, worm.dest, out);
                if !self.cfg.adaptive {
                    out.truncate(1);
                }
            }
        }
    }

    fn on_advance(&mut self, w: u32, t: Time) {
        if self.worms[w as usize].phase != Phase::Climbing {
            return; // stale retry
        }
        self.worms[w as usize].retry_scheduled = false;
        let mut cand = std::mem::take(&mut self.cand_scratch);
        cand.clear();
        self.candidates(w, &mut cand);
        let free = cand
            .iter()
            .copied()
            .find(|c| self.channels[c.idx()].holder.is_none());
        match free {
            None => {
                // Blocked: remember when, wait on every candidate.
                let worm = &mut self.worms[w as usize];
                let generation = worm.generation;
                if worm.block_start.is_none() {
                    worm.block_start = Some(t);
                    let first = cand.first().copied();
                    self.obs.on_blocked(t, w, first);
                }
                for &c in &cand {
                    self.channels[c.idx()].waiters.push((w, generation));
                }
            }
            Some(c) => {
                // A previously blocked worm left waiter entries on *every*
                // candidate; purge them so no candidate released later
                // schedules a spurious same-generation retry (which would
                // advance the worm a second time at that instant).
                if self.worms[w as usize].block_start.is_some() {
                    for &cc in &cand {
                        self.channels[cc.idx()].waiters.retain(|&(ww, _)| ww != w);
                    }
                }
                self.acquire(w, c, t);
            }
        }
        self.cand_scratch = cand;
    }

    fn acquire(&mut self, w: u32, c: ChannelId, t: Time) {
        let g = self.graph;
        let dest = self.worms[w as usize].dest;
        self.acquires += 1;
        self.chan_acquires[c.idx()] += 1;
        self.obs.on_channel_acquire(t, w, c);
        {
            let ch = &mut self.channels[c.idx()];
            debug_assert!(ch.holder.is_none());
            ch.holder = Some(w);
            ch.acquired_at = t;
        }
        let worm = &mut self.worms[w as usize];
        if let Some(b) = worm.block_start.take() {
            if t > b {
                worm.blocked += t - b;
                self.blocked_cycles += t - b;
                self.blocked_events += 1;
                // Attribute the wait to the channel that finally opened —
                // the contended resource a heatmap should highlight.
                self.chan_blocked[c.idx()] += t - b;
            }
        }
        let first_hop = worm.path.is_empty();
        if first_hop {
            worm.injected = t;
        }
        worm.path.push(c);
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
            self.schedule(t, Event::Release(rel.0));
        }
        let rd = self.cfg.router_delay;
        if g.dst_node(c) == Some(dest) {
            // Head reached the consumption channel: drain.
            self.obs.on_drain_start(t, w, c);
            let worm = &mut self.worms[w as usize];
            worm.phase = Phase::Draining;
            let p = worm.path.len();
            let tail_consumed = t + rd + worm.flits - 1;
            worm.drain_start = t;
            worm.tail_consumed = tail_consumed;
            // Channel j frees once every flit not yet past it has drained:
            // at most B flits fit in each of the (p-1-j) downstream buffers.
            let buf = self.cfg.buffer_flits.max(1);
            let mut pending = std::mem::take(&mut self.pending_scratch);
            pending.clear();
            pending.extend((worm.release_ptr..p).map(|j| {
                let ch = worm.path[j];
                let downstream = buf * (p - 1 - j) as Time;
                (tail_consumed.saturating_sub(downstream), ch.0)
            }));
            worm.release_ptr = p;
            for &(rel_at, ch) in &pending {
                let floor = self.channels[ch as usize].acquired_at + 1;
                self.schedule(rel_at.max(floor), Event::Release(ch));
            }
            self.pending_scratch = pending;
            self.schedule(tail_consumed, Event::RecvSoftware(w));
        } else {
            self.schedule(t + rd, Event::HeadAdvance(w));
        }
    }

    fn on_release(&mut self, c: ChannelId, t: Time) {
        self.releases += 1;
        if self.obs.enabled() {
            let holder = self.channels[c.idx()]
                .holder
                .expect("release of a free channel");
            self.obs.on_channel_release(t, holder, c);
        }
        let ch = &mut self.channels[c.idx()];
        debug_assert!(ch.holder.is_some(), "double release of {c:?}");
        ch.holder = None;
        self.channel_busy += t - ch.acquired_at;
        self.chan_busy[c.idx()] += t - ch.acquired_at;
        let mut waiters = std::mem::take(&mut ch.waiters);
        for &(w, generation) in &waiters {
            let worm = &mut self.worms[w as usize];
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
        self.channels[c.idx()].waiters = waiters;
    }

    /// The tail flit is in the NI; the receive software runs as soon as the
    /// destination's (single) CPU is free — back-to-back receives therefore
    /// serialise, which is the receive-side face of the model's `t_hold`
    /// ("any two consecutive send or receive operations", §2.1).
    fn on_recv_software(&mut self, w: u32, t: Time) {
        let dest = self.worms[w as usize].dest;
        let t_recv = self.cfg.software.t_recv.eval(self.worms[w as usize].bytes);
        let ns = &mut self.nodes[dest.idx()];
        let start = t.max(ns.cpu_free);
        ns.cpu_free = start + t_recv;
        if self.obs.enabled() {
            self.obs.on_cpu_busy(start, w, dest);
            self.obs.on_cpu_idle(start + t_recv, w, dest);
        }
        self.schedule(start + t_recv, Event::RecvDone(w));
    }

    fn on_recv_done(&mut self, w: u32, t: Time) {
        let worm = &mut self.worms[w as usize];
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
        // id (`Memory`/`Ring`/`Jsonl`/active `Custom`) so recorded ids stay
        // unique; `Null` and `Counters` keep the fast path (observation
        // never alters simulation outcomes — ids don't feed back into
        // timing).
        worm.generation = worm.generation.wrapping_add(1);
        if !self.obs.needs_unique_worm_ids() {
            self.free_worms.push(w);
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
        // The same workload under Null, Counters, Memory, Ring and Custom
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
            crate::obs::TraceSink::ring(4),
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
        let acquires: u64 = counted.channels.iter().map(|t| t.acquires).sum();
        assert_eq!(c.acquires, acquires);
        assert_eq!(c.releases, acquires);
        assert_eq!(base.counts, None);
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
