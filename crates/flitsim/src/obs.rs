//! Observability: engine observer hooks, trace sinks, metrics and run
//! metadata.
//!
//! The engine publishes its lifecycle through the [`Observer`] trait —
//! channel acquire/release, worm injection/drain, blocking episodes, CPU
//! busy/idle, event-loop ticks.  [`TraceSink`] is the enum-dispatched
//! built-in observer the engine holds: the [`TraceSink::Null`] arm reduces
//! every hook to a discriminant test, so a run with observation disabled
//! pays nothing and produces results identical to one with the hooks
//! compiled out.  The other arms collect in memory (optionally bounded),
//! stream JSONL to a writer, or forward to a caller-supplied [`Observer`].
//!
//! Between `Null` and the retaining sinks sits [`TraceSink::Counters`]:
//! it tallies events by kind into plain-`u64` [`EventCounts`] without
//! retaining anything, so (unlike the full observers) it does not need
//! globally unique worm ids and leaves the engine's worm-slab slot-reuse
//! fast path enabled — see [`TraceSink::needs_unique_worm_ids`].  Nor does
//! it need releases in time order, so the engine applies a release nobody
//! waits on as a timestamp and hands the sink those releases' tally at the
//! end of the run.
//!
//! On top of the raw stream, [`Metrics`] derives latency/blocking
//! histograms ([`Histogram`], log₂ buckets — promoted to the `telem`
//! crate and re-exported here), the per-worm phase breakdown
//! ([`PhaseBreakdown`]: queued → climbing → draining → software), and
//! per-channel utilisation; [`RunMeta`] records the engine's own vitals
//! (events processed, wall time, throughput, peak event-heap size) and is
//! attached to every [`SimResult`].  [`render_report`] turns all of it
//! into a human-readable run report; [`crate::perfetto`] exports the same
//! stream for the Perfetto / `chrome://tracing` UI.

use std::io::Write;

use pcm::Time;
use serde::{Deserialize, Serialize};
use topo::{ChannelId, NodeId};

use crate::stats::{MessageRecord, SimResult};
use crate::trace::{self, TraceEvent, TraceKind};

// ---------------------------------------------------------------------------
// Observer.

/// Engine lifecycle hooks.  All methods default to no-ops so an observer
/// implements only what it needs; `wants_events` lets the engine skip
/// argument preparation (e.g. holder lookups) when nobody listens.
pub trait Observer {
    /// Return `false` to let the engine skip event construction entirely.
    fn wants_events(&self) -> bool {
        true
    }

    /// A raw trace event (every specialised hook funnels through this).
    fn on_event(&mut self, _e: TraceEvent) {}

    /// A worm's head acquired `channel` at `t`.
    fn on_channel_acquire(&mut self, t: Time, worm: u32, channel: ChannelId) {
        self.on_event(TraceEvent::on_channel(
            t,
            worm,
            Some(channel),
            TraceKind::Acquire,
        ));
    }

    /// A worm's tail released `channel` at `t`.
    fn on_channel_release(&mut self, t: Time, worm: u32, channel: ChannelId) {
        self.on_event(TraceEvent::on_channel(
            t,
            worm,
            Some(channel),
            TraceKind::Release,
        ));
    }

    /// The first flit of `worm` entered the injection channel.
    fn on_inject_start(&mut self, t: Time, worm: u32, channel: ChannelId) {
        self.on_event(TraceEvent::on_channel(
            t,
            worm,
            Some(channel),
            TraceKind::InjectStart,
        ));
    }

    /// The head of `worm` reached its consumption channel.
    fn on_drain_start(&mut self, t: Time, worm: u32, channel: ChannelId) {
        self.on_event(TraceEvent::on_channel(
            t,
            worm,
            Some(channel),
            TraceKind::DrainStart,
        ));
    }

    /// `worm` found every candidate busy and started waiting (`channel` is
    /// the first preference it is waiting on, when known).
    fn on_blocked(&mut self, t: Time, worm: u32, channel: Option<ChannelId>) {
        self.on_event(TraceEvent::on_channel(t, worm, channel, TraceKind::Blocked));
    }

    /// Receive software for `worm` completed on `node`.
    fn on_recv_done(&mut self, t: Time, worm: u32, node: NodeId) {
        self.on_event(TraceEvent {
            t,
            worm,
            channel: None,
            node: Some(node),
            kind: TraceKind::RecvDone,
        });
    }

    /// `node`'s CPU became busy on behalf of `worm` (send issue or receive
    /// software).
    fn on_cpu_busy(&mut self, t: Time, worm: u32, node: NodeId) {
        self.on_event(TraceEvent::on_node(t, worm, node, TraceKind::CpuBusy));
    }

    /// `node`'s CPU became free again.
    fn on_cpu_idle(&mut self, t: Time, worm: u32, node: NodeId) {
        self.on_event(TraceEvent::on_node(t, worm, node, TraceKind::CpuIdle));
    }

    /// One event-loop iteration finished (fires for every heap pop —
    /// implement only if you really want per-event granularity).
    fn on_tick(&mut self, _t: Time, _events_processed: u64) {}
}

// ---------------------------------------------------------------------------
// TraceSink.

/// The engine's built-in observer, enum-dispatched so the disabled path is
/// zero-cost.  Construct one and hand it to
/// [`crate::Engine::set_observer`], or let the engine derive one from
/// [`crate::SimConfig::trace`] / [`crate::SimConfig::trace_limit`].
pub enum TraceSink {
    /// Drop everything (the default; every hook is a no-op).
    Null,
    /// Collect events in memory, optionally up to `limit`; events past the
    /// limit are counted in `dropped` and flagged as truncation.
    Memory {
        events: Vec<TraceEvent>,
        limit: Option<usize>,
        dropped: u64,
    },
    /// Tally events by kind, retain nothing.  The cheapest *enabled*
    /// observer: every hook is a `u64` increment, and because no event
    /// (hence no worm id) outlives the run, the engine keeps its
    /// worm-slab slot-reuse fast path on, and queues a channel release
    /// only when a worm waits on it (releases nobody waited on are tallied
    /// at the end of the run).
    Counters(EventCounts),
    /// Stream events as JSON Lines to a writer, optionally only the first
    /// `limit`; nothing is retained in memory.  Events past the limit are
    /// counted in `dropped`.  Write errors are sticky: from the first
    /// failed write on, every event is counted in `dropped` instead of
    /// written, so what reached the writer stays a prefix of the run.
    Jsonl {
        out: Box<dyn Write>,
        limit: Option<usize>,
        written: u64,
        dropped: u64,
    },
    /// Forward every hook to a caller-supplied observer.
    Custom(Box<dyn Observer>),
}

impl std::fmt::Debug for TraceSink {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TraceSink::Null => write!(f, "TraceSink::Null"),
            TraceSink::Memory {
                events,
                limit,
                dropped,
            } => write!(
                f,
                "TraceSink::Memory({} events, limit {:?}, {} dropped)",
                events.len(),
                limit,
                dropped
            ),
            TraceSink::Counters(c) => {
                write!(f, "TraceSink::Counters({} events)", c.total())
            }
            TraceSink::Jsonl {
                written, dropped, ..
            } => {
                write!(f, "TraceSink::Jsonl({written} written, {dropped} dropped)")
            }
            TraceSink::Custom(_) => write!(f, "TraceSink::Custom(..)"),
        }
    }
}

/// Per-kind event tallies kept by [`TraceSink::Counters`].  Plain `u64`
/// fields — incrementing one is the entire per-event cost of that sink.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct EventCounts {
    /// Channel acquisitions.
    pub acquires: u64,
    /// Channel releases.
    pub releases: u64,
    /// Worms whose first flit entered the injection channel.
    pub inject_starts: u64,
    /// Worm heads that reached their consumption channel.
    pub drain_starts: u64,
    /// Receive-software completions.
    pub recv_dones: u64,
    /// Blocking episodes.
    pub blocked: u64,
    /// CPU busy transitions.
    pub cpu_busy: u64,
    /// CPU idle transitions.
    pub cpu_idle: u64,
    /// Anomaly events (injected by post-run analysis, not the engine).
    pub anomalies: u64,
}

impl EventCounts {
    /// Total events tallied across all kinds.
    pub fn total(&self) -> u64 {
        self.acquires
            + self.releases
            + self.inject_starts
            + self.drain_starts
            + self.recv_dones
            + self.blocked
            + self.cpu_busy
            + self.cpu_idle
            + self.anomalies
    }

    #[inline]
    fn tally(&mut self, kind: TraceKind) {
        match kind {
            TraceKind::Acquire => self.acquires += 1,
            TraceKind::Release => self.releases += 1,
            TraceKind::InjectStart => self.inject_starts += 1,
            TraceKind::DrainStart => self.drain_starts += 1,
            TraceKind::RecvDone => self.recv_dones += 1,
            TraceKind::Blocked => self.blocked += 1,
            TraceKind::CpuBusy => self.cpu_busy += 1,
            TraceKind::CpuIdle => self.cpu_idle += 1,
            TraceKind::Anomaly => self.anomalies += 1,
        }
    }
}

/// What a [`TraceSink`] retained, extracted after the run.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct SinkSummary {
    /// Events retained in memory (empty for `Null`/`Jsonl`).
    pub events: Vec<TraceEvent>,
    /// Events the sink saw but could not keep: past a `Memory` or `Jsonl`
    /// limit, or at and after a failed `Jsonl` write.
    pub dropped: u64,
    /// True when the kept trace is at best a prefix of the run: a limited
    /// sink dropped events, or a `Jsonl` write or the final flush failed
    /// (a failed flush loses an unknown tail of what was written).
    pub truncated: bool,
    /// Events handed to the writer without error (JSONL only).
    pub streamed: u64,
    /// Per-kind event tallies (`Counters` sink only).
    pub counts: Option<EventCounts>,
}

impl TraceSink {
    /// An unbounded in-memory sink.
    pub fn memory() -> Self {
        TraceSink::Memory {
            events: Vec::new(),
            limit: None,
            dropped: 0,
        }
    }

    /// An in-memory sink keeping at most `limit` events.
    pub fn memory_limited(limit: usize) -> Self {
        TraceSink::Memory {
            events: Vec::new(),
            limit: Some(limit),
            dropped: 0,
        }
    }

    /// A streaming JSON-Lines sink (one event object per line).
    pub fn jsonl(out: Box<dyn Write>) -> Self {
        TraceSink::Jsonl {
            out,
            limit: None,
            written: 0,
            dropped: 0,
        }
    }

    /// A streaming JSON-Lines sink writing at most `limit` events.
    pub fn jsonl_limited(out: Box<dyn Write>, limit: usize) -> Self {
        TraceSink::Jsonl {
            out,
            limit: Some(limit),
            written: 0,
            dropped: 0,
        }
    }

    /// A counters-only sink: tallies events by kind, retains nothing,
    /// keeps the engine's worm-slab slot-reuse fast path enabled.
    pub fn counters() -> Self {
        TraceSink::Counters(EventCounts::default())
    }

    /// Whether any observation is active.
    #[inline]
    pub fn enabled(&self) -> bool {
        match self {
            TraceSink::Null => false,
            TraceSink::Custom(o) => o.wants_events(),
            _ => true,
        }
    }

    /// Whether retired worm slots must stay unique for the lifetime of the
    /// run.  Sinks that retain or stream events keyed by worm id (`Memory`,
    /// `Jsonl`, active `Custom`) need this — reusing a slot would
    /// alias two different worms in the recorded trace.  `Null` and
    /// `Counters` retain nothing, so the engine keeps its slot-reuse fast
    /// path on for them.  The sinks that need unique ids are also the ones
    /// that record events in time order, so the engine queues every channel
    /// release for them; for `Null` and `Counters` it queues only the
    /// releases a worm waits on.
    #[inline]
    pub fn needs_unique_worm_ids(&self) -> bool {
        match self {
            TraceSink::Null | TraceSink::Counters(_) => false,
            TraceSink::Custom(o) => o.wants_events(),
            _ => true,
        }
    }

    /// Drain the sink into its post-run summary.
    pub fn finish(self) -> SinkSummary {
        match self {
            TraceSink::Null => SinkSummary::default(),
            TraceSink::Memory {
                events,
                limit,
                dropped,
            } => SinkSummary {
                events,
                dropped,
                truncated: limit.is_some() && dropped > 0,
                streamed: 0,
                counts: None,
            },
            TraceSink::Counters(counts) => SinkSummary {
                counts: Some(counts),
                ..SinkSummary::default()
            },
            TraceSink::Jsonl {
                mut out,
                written,
                dropped,
                ..
            } => {
                let flushed = out.flush().is_ok();
                SinkSummary {
                    events: Vec::new(),
                    dropped,
                    truncated: dropped > 0 || !flushed,
                    streamed: written,
                    counts: None,
                }
            }
            TraceSink::Custom(_) => SinkSummary::default(),
        }
    }
}

impl Observer for TraceSink {
    #[inline]
    fn wants_events(&self) -> bool {
        self.enabled()
    }

    /// Inlined into every hook, so for `Null` and `Counters` a hook is a
    /// discriminant test (plus one increment) and the event is never built;
    /// the sinks that keep events take the out-of-line [`TraceSink::keep`].
    #[inline]
    fn on_event(&mut self, e: TraceEvent) {
        match self {
            TraceSink::Null => {}
            TraceSink::Counters(c) => c.tally(e.kind),
            _ => self.keep(e),
        }
    }

    #[inline]
    fn on_tick(&mut self, t: Time, events_processed: u64) {
        if let TraceSink::Custom(o) = self {
            o.on_tick(t, events_processed);
        }
    }
}

impl TraceSink {
    /// [`Observer::on_event`] for the sinks that keep or forward events.
    fn keep(&mut self, e: TraceEvent) {
        match self {
            TraceSink::Null | TraceSink::Counters(_) => {}
            TraceSink::Memory {
                events,
                limit,
                dropped,
            } => {
                if limit.is_none_or(|l| events.len() < l) {
                    events.push(e);
                } else {
                    *dropped += 1;
                }
            }
            TraceSink::Jsonl {
                out,
                limit,
                written,
                dropped,
            } => {
                // Past the limit or a failed write, `dropped` is non-zero.
                let ok = *dropped == 0
                    && limit.is_none_or(|l| *written < l as u64)
                    && serde_json::to_string(&e).is_ok_and(|line| writeln!(out, "{line}").is_ok());
                if ok {
                    *written += 1;
                } else {
                    *dropped += 1;
                }
            }
            TraceSink::Custom(o) => o.on_event(e),
        }
    }
}

// ---------------------------------------------------------------------------
// Histogram.

/// The log₂-bucketed histogram, promoted to the `telem` crate (PR 6) so
/// campaign heartbeats and bench exposition can share it; re-exported here
/// with identical semantics for existing users.
pub use telem::Histogram;

// ---------------------------------------------------------------------------
// Phase breakdown.

/// Where one message's latency went, phase by phase (all in cycles):
/// *queued* (send software + waiting for the CPU), *climbing* (head
/// acquiring the path), *draining* (flits sinking into the destination NI),
/// *software* (receive-side processing, including waiting for the
/// receiver's CPU).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct PhaseBreakdown {
    /// `initiated → injected`: `t_send` plus any injection-port wait.
    pub queued: Time,
    /// `injected → drain_start`: path acquisition, blocking included.
    pub climbing: Time,
    /// `drain_start → tail_consumed`: streaming into the destination.
    pub draining: Time,
    /// `tail_consumed → completed`: `t_recv` plus receive-CPU wait.
    pub software: Time,
}

impl PhaseBreakdown {
    /// Breakdown of one completed message.
    pub fn of(m: &MessageRecord) -> Self {
        PhaseBreakdown {
            queued: m.injected.saturating_sub(m.initiated),
            climbing: m.drain_start.saturating_sub(m.injected),
            draining: m.tail_consumed.saturating_sub(m.drain_start),
            software: m.completed.saturating_sub(m.tail_consumed),
        }
    }

    /// Total across phases (equals the message latency).
    pub fn total(&self) -> Time {
        self.queued + self.climbing + self.draining + self.software
    }

    /// Element-wise sum.
    pub fn add(&mut self, other: &PhaseBreakdown) {
        self.queued += other.queued;
        self.climbing += other.climbing;
        self.draining += other.draining;
        self.software += other.software;
    }
}

// ---------------------------------------------------------------------------
// RunMeta.

/// The engine's own vitals for one run, attached to every
/// [`SimResult`].  Everything except the wall-clock figures is
/// deterministic.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct RunMeta {
    /// Model events processed: every event popped from the event queue,
    /// plus every channel release that nobody waited on.  Such a release
    /// is applied as a timestamp on its channel and never queued, but it
    /// counts here once all the same, so the count does not depend on the
    /// observer.
    pub events_processed: u64,
    /// Model events scheduled (popped, stale retries included), each
    /// channel release counted once, queued or not.  Equals
    /// `events_processed` once the run is over.
    pub events_scheduled: u64,
    /// High-water mark of the event queue: entries it actually held, so
    /// releases applied as timestamps are not in it.  Retaining observers
    /// queue every release and read higher.  The dominant term of the
    /// engine's peak heap footprint.
    pub peak_heap_events: usize,
    /// Estimated peak heap bytes (pending events + worm/channel state +
    /// retained trace).
    pub peak_heap_bytes: u64,
    /// Trace events the observer retained.
    pub trace_events: u64,
    /// Trace events the observer saw but could not keep: past a memory
    /// sink's limit, or at and after a failed JSONL write.
    pub trace_dropped: u64,
    /// Wall-clock duration of [`crate::Engine::run`] in nanoseconds
    /// (non-deterministic; excluded from reproducibility comparisons).
    pub wall_ns: u64,
    /// Events per wall-clock second (0 when the run was too fast to time).
    pub events_per_sec: f64,
}

// ---------------------------------------------------------------------------
// Metrics + report.

/// Aggregate metrics derived from a [`SimResult`] after the run — nothing
/// here costs the engine anything.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct Metrics {
    /// End-to-end message latency distribution.
    pub latency: Histogram,
    /// Blocked-cycles-per-message distribution.
    pub blocked: Histogram,
    /// Sum of per-message phase breakdowns.
    pub phases: PhaseBreakdown,
    /// Per-channel busy fraction over `[0, finish]`, hottest first
    /// (empty without a trace).
    pub channel_utilization: Vec<(ChannelId, f64)>,
}

impl Metrics {
    /// Derive metrics from a finished run.
    pub fn from_result(r: &SimResult) -> Self {
        let latency =
            Histogram::from_samples(r.messages.iter().map(super::stats::MessageRecord::latency));
        let blocked = Histogram::from_samples(r.messages.iter().map(|m| m.blocked));
        let mut phases = PhaseBreakdown::default();
        for m in &r.messages {
            phases.add(&PhaseBreakdown::of(m));
        }
        Metrics {
            latency,
            blocked,
            phases,
            channel_utilization: trace::utilization(&r.trace, r.finish),
        }
    }
}

fn fmt_quantiles(h: &Histogram) -> String {
    match (h.p50(), h.p95(), h.p99()) {
        (Some(p50), Some(p95), Some(p99)) => format!(
            "mean {:.0}  p50 ≤{}  p95 ≤{}  p99 ≤{}  max {}",
            h.mean(),
            p50,
            p95,
            p99,
            h.max
        ),
        _ => "no samples".to_string(),
    }
}

/// Render a human-readable run report: run vitals, latency and blocking
/// distributions, the aggregate phase breakdown, and (when a trace was
/// kept) the hottest channels.
pub fn render_report(r: &SimResult) -> String {
    use std::fmt::Write as _;
    let m = Metrics::from_result(r);
    let mut out = String::new();
    let _ = writeln!(
        out,
        "run: {} messages, finish at cycle {}",
        r.messages.len(),
        r.finish
    );
    let _ = writeln!(
        out,
        "engine: {} events ({:.0} ev/s, {:.2} ms wall), peak heap {} events (~{} KiB)",
        r.meta.events_processed,
        r.meta.events_per_sec,
        r.meta.wall_ns as f64 / 1e6,
        r.meta.peak_heap_events,
        r.meta.peak_heap_bytes / 1024,
    );
    let _ = writeln!(
        out,
        "blocking: {} episodes, {} cycles total",
        r.blocked_events, r.blocked_cycles
    );
    let _ = writeln!(out, "latency: {}", fmt_quantiles(&m.latency));
    let _ = writeln!(out, "blocked/msg: {}", fmt_quantiles(&m.blocked));
    let total = m.phases.total().max(1);
    let _ = writeln!(
        out,
        "phases: queued {} ({:.0}%)  climbing {} ({:.0}%)  draining {} ({:.0}%)  software {} ({:.0}%)",
        m.phases.queued,
        100.0 * m.phases.queued as f64 / total as f64,
        m.phases.climbing,
        100.0 * m.phases.climbing as f64 / total as f64,
        m.phases.draining,
        100.0 * m.phases.draining as f64 / total as f64,
        m.phases.software,
        100.0 * m.phases.software as f64 / total as f64,
    );
    if r.truncated {
        let _ = writeln!(
            out,
            "trace: TRUNCATED ({} events dropped)",
            r.meta.trace_dropped
        );
    }
    if !m.channel_utilization.is_empty() {
        let _ = writeln!(out, "hot channels (busy fraction of [0, finish]):");
        for (ch, frac) in m.channel_utilization.iter().take(10) {
            let bar = "#".repeat((frac * 40.0).round() as usize);
            let _ = writeln!(out, "  ch{:<5} {:>6.1}% {}", ch.0, frac * 100.0, bar);
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_sink_tallies_by_kind() {
        let mut s = TraceSink::counters();
        assert!(s.enabled());
        assert!(!s.needs_unique_worm_ids());
        s.on_channel_acquire(0, 1, ChannelId(0));
        s.on_channel_acquire(1, 2, ChannelId(1));
        s.on_channel_release(5, 1, ChannelId(0));
        s.on_blocked(2, 2, None);
        s.on_cpu_busy(0, 1, NodeId(0));
        s.on_cpu_idle(3, 1, NodeId(0));
        s.on_recv_done(9, 1, NodeId(1));
        let sum = s.finish();
        assert!(sum.events.is_empty() && !sum.truncated && sum.dropped == 0);
        let c = sum.counts.expect("counters sink reports counts");
        assert_eq!(c.acquires, 2);
        assert_eq!(c.releases, 1);
        assert_eq!(c.blocked, 1);
        assert_eq!(c.cpu_busy, 1);
        assert_eq!(c.cpu_idle, 1);
        assert_eq!(c.recv_dones, 1);
        assert_eq!(c.total(), 7);
    }

    #[test]
    fn unique_worm_ids_required_only_by_retaining_sinks() {
        assert!(!TraceSink::Null.needs_unique_worm_ids());
        assert!(!TraceSink::counters().needs_unique_worm_ids());
        assert!(TraceSink::memory().needs_unique_worm_ids());
    }

    #[test]
    fn memory_sink_limit_truncates() {
        let mut s = TraceSink::memory_limited(2);
        for t in 0..5u64 {
            s.on_event(TraceEvent::on_channel(t, 0, None, TraceKind::Acquire));
        }
        let sum = s.finish();
        assert_eq!(sum.events.len(), 2);
        assert_eq!(sum.dropped, 3);
        assert!(sum.truncated);
        // Unbounded memory never truncates.
        let mut s = TraceSink::memory();
        s.on_event(TraceEvent::on_channel(0, 0, None, TraceKind::Acquire));
        let sum = s.finish();
        assert_eq!(sum.events.len(), 1);
        assert!(!sum.truncated);
    }

    #[test]
    fn jsonl_sink_streams_lines() {
        let buf: std::sync::Arc<std::sync::Mutex<Vec<u8>>> = Default::default();
        struct Shared(std::sync::Arc<std::sync::Mutex<Vec<u8>>>);
        impl Write for Shared {
            fn write(&mut self, b: &[u8]) -> std::io::Result<usize> {
                self.0.lock().unwrap().extend_from_slice(b);
                Ok(b.len())
            }
            fn flush(&mut self) -> std::io::Result<()> {
                Ok(())
            }
        }
        let mut s = TraceSink::jsonl(Box::new(Shared(buf.clone())));
        s.on_channel_acquire(5, 1, ChannelId(3));
        s.on_cpu_busy(6, 1, NodeId(2));
        let sum = s.finish();
        assert_eq!(sum.streamed, 2);
        assert!(!sum.truncated && sum.dropped == 0);
        let text = String::from_utf8(buf.lock().unwrap().clone()).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 2);
        for line in lines {
            let v: serde_json::Value = serde_json::from_str(line).unwrap();
            assert!(v.get("t").is_some(), "line missing t: {line}");
        }
    }

    /// A writer that takes `lines` complete lines, then fails every write
    /// (`flush` fails too when `fail_flush` is set).
    struct Failing {
        lines: usize,
        fail_flush: bool,
    }

    impl Write for Failing {
        fn write(&mut self, b: &[u8]) -> std::io::Result<usize> {
            if self.lines == 0 {
                return Err(std::io::Error::other("device full"));
            }
            self.lines -= b.iter().filter(|&&c| c == b'\n').count();
            Ok(b.len())
        }
        fn flush(&mut self) -> std::io::Result<()> {
            if self.fail_flush {
                Err(std::io::Error::other("device full"))
            } else {
                Ok(())
            }
        }
    }

    #[test]
    fn jsonl_write_failure_mid_stream_truncates_and_counts_the_rest() {
        let mut s = TraceSink::jsonl(Box::new(Failing {
            lines: 2,
            fail_flush: false,
        }));
        for t in 0..5u64 {
            s.on_channel_acquire(t, 1, ChannelId(3));
        }
        let sum = s.finish();
        assert_eq!(sum.streamed, 2);
        assert_eq!(sum.dropped, 3, "the failed event and every later one");
        assert!(sum.truncated);
    }

    #[test]
    fn jsonl_limit_writes_a_prefix_and_counts_the_rest() {
        let mut s = TraceSink::jsonl_limited(
            Box::new(Failing {
                lines: 3,
                fail_flush: false,
            }),
            3,
        );
        for t in 0..5u64 {
            s.on_channel_acquire(t, 1, ChannelId(3));
        }
        // Three lines fit the writer exactly: had the sink written a
        // fourth, that write would have failed.
        let sum = s.finish();
        assert_eq!((sum.streamed, sum.dropped), (3, 2));
        assert!(sum.truncated);
        // Under the limit nothing is dropped.
        let mut s = TraceSink::jsonl_limited(Box::new(std::io::sink()), 3);
        s.on_channel_acquire(0, 1, ChannelId(3));
        let sum = s.finish();
        assert_eq!((sum.streamed, sum.dropped, sum.truncated), (1, 0, false));
    }

    #[test]
    fn jsonl_flush_failure_truncates() {
        let mut s = TraceSink::jsonl(Box::new(Failing {
            lines: usize::MAX,
            fail_flush: true,
        }));
        s.on_channel_acquire(5, 1, ChannelId(3));
        s.on_cpu_busy(6, 1, NodeId(2));
        let sum = s.finish();
        assert_eq!((sum.streamed, sum.dropped), (2, 0));
        assert!(sum.truncated, "a failed flush leaves at best a prefix");
    }

    #[test]
    fn null_sink_is_disabled() {
        assert!(!TraceSink::Null.enabled());
        assert!(TraceSink::memory().enabled());
        let sum = TraceSink::Null.finish();
        assert!(sum.events.is_empty() && !sum.truncated);
    }

    #[test]
    fn custom_observer_receives_hooks() {
        #[derive(Default)]
        struct Counter(std::rc::Rc<std::cell::Cell<u64>>);
        impl Observer for Counter {
            fn on_event(&mut self, _e: TraceEvent) {
                self.0.set(self.0.get() + 1);
            }
        }
        let count = std::rc::Rc::new(std::cell::Cell::new(0));
        let mut s = TraceSink::Custom(Box::new(Counter(count.clone())));
        s.on_channel_acquire(0, 0, ChannelId(0));
        s.on_blocked(1, 0, None);
        s.on_cpu_idle(2, 0, NodeId(1));
        assert_eq!(count.get(), 3);
    }

    #[test]
    fn phase_breakdown_sums_to_latency() {
        let m = MessageRecord {
            src: NodeId(0),
            dest: NodeId(1),
            bytes: 64,
            initiated: 10,
            injected: 360,
            drain_start: 365,
            tail_consumed: 373,
            completed: 700,
            blocked: 0,
        };
        let p = PhaseBreakdown::of(&m);
        assert_eq!(p.total(), m.latency());
        assert_eq!(p.queued, 350);
        assert_eq!(p.climbing, 5);
        assert_eq!(p.draining, 8);
        assert_eq!(p.software, 327);
    }
}
