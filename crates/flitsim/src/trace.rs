//! Channel-level tracing — observability for contention debugging.
//!
//! The engine publishes every channel acquisition/release, injection, drain,
//! blocking episode and CPU busy/idle transition to its
//! [`crate::obs::Observer`] (see [`crate::obs::TraceSink`] for the built-in
//! sinks; [`crate::SimConfig::trace`] selects the in-memory one).  The
//! renderers below turn the raw stream into per-channel timelines and
//! per-worm summaries — how one actually *sees* a worm holding a path while
//! another head waits (the pictures behind the paper's §2.2 discussion).
//! For Chrome/Perfetto visualisation see [`crate::perfetto`].

use pcm::Time;
use serde::{Deserialize, Serialize};
use topo::{ChannelId, NetworkGraph, NodeId};

/// What happened.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum TraceKind {
    /// Worm head acquired a channel.
    Acquire,
    /// Worm tail released a channel.
    Release,
    /// First flit entered the injection channel.
    InjectStart,
    /// Head reached the consumption channel; draining began.
    DrainStart,
    /// Receive completed (software included).
    RecvDone,
    /// Head found every candidate channel busy and started waiting.
    Blocked,
    /// A node's CPU became busy (send issue or receive software).
    CpuBusy,
    /// A node's CPU became free again.
    CpuIdle,
    /// A run-level analysis anomaly (e.g. observed latency below the
    /// analytic bound through model rounding) — emitted by analysis layers
    /// above the engine, never by the engine itself.
    Anomaly,
}

/// One trace record.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct TraceEvent {
    /// Simulation time.
    pub t: Time,
    /// Worm index (matches the order messages were initiated).
    pub worm: u32,
    /// The channel involved, when the event concerns one.
    pub channel: Option<ChannelId>,
    /// The node involved (CPU events; also set on injection/consumption
    /// endpoints where the engine knows it for free).
    pub node: Option<NodeId>,
    /// Event kind.
    pub kind: TraceKind,
}

impl TraceEvent {
    /// A channel-scoped event (no node attribution).
    pub fn on_channel(t: Time, worm: u32, channel: Option<ChannelId>, kind: TraceKind) -> Self {
        TraceEvent {
            t,
            worm,
            channel,
            node: None,
            kind,
        }
    }

    /// A node-scoped (CPU) event.
    pub fn on_node(t: Time, worm: u32, node: NodeId, kind: TraceKind) -> Self {
        TraceEvent {
            t,
            worm,
            channel: None,
            node: Some(node),
            kind,
        }
    }
}

/// The trace horizon: the time of the latest event, 0 for an empty trace.
pub fn horizon(trace: &[TraceEvent]) -> Time {
    trace.iter().map(|e| e.t).max().unwrap_or(0)
}

/// One occupancy span: `(from, to, worm)`.
pub type Span = (Time, Time, u32);

/// Per-resource occupancy: resource id → time-ordered spans.
pub type Occupancy<K> = Vec<(K, Vec<Span>)>;

/// Per-channel occupancy intervals extracted from a trace: channel →
/// list of `(from, to, worm)` holdings, in time order.
///
/// A holding whose release never appears in the trace (a truncated trace,
/// which keeps only a prefix of the run) is closed at the trace horizon
/// rather than dropped, so utilisation numbers stay honest; zero-width spans
/// (acquired exactly at the horizon) are omitted.
pub fn channel_occupancy(trace: &[TraceEvent]) -> Occupancy<ChannelId> {
    use std::collections::BTreeMap;
    let mut open: BTreeMap<u32, (Time, u32)> = BTreeMap::new();
    let mut spans: BTreeMap<u32, Vec<Span>> = BTreeMap::new();
    for e in trace {
        let Some(ch) = e.channel else { continue };
        match e.kind {
            TraceKind::Acquire => {
                open.insert(ch.0, (e.t, e.worm));
            }
            TraceKind::Release => {
                if let Some((from, worm)) = open.remove(&ch.0) {
                    spans.entry(ch.0).or_default().push((from, e.t, worm));
                }
            }
            _ => {}
        }
    }
    let end = horizon(trace);
    for (ch, (from, worm)) in open {
        if end > from {
            spans.entry(ch).or_default().push((from, end, worm));
        }
    }
    let mut out: Occupancy<ChannelId> = spans.into_iter().map(|(c, v)| (ChannelId(c), v)).collect();
    for (_, v) in &mut out {
        v.sort_unstable_by_key(|&(from, _, _)| from);
    }
    out
}

/// Per-node CPU busy intervals: node → list of `(from, to, worm)` busy
/// spans.  Open spans (no matching `CpuIdle` in the trace) are closed at
/// the trace horizon, mirroring [`channel_occupancy`].
pub fn cpu_occupancy(trace: &[TraceEvent]) -> Occupancy<NodeId> {
    use std::collections::BTreeMap;
    let mut open: BTreeMap<u32, (Time, u32)> = BTreeMap::new();
    let mut spans: BTreeMap<u32, Vec<Span>> = BTreeMap::new();
    for e in trace {
        let Some(node) = e.node else { continue };
        match e.kind {
            TraceKind::CpuBusy => {
                open.insert(node.0, (e.t, e.worm));
            }
            TraceKind::CpuIdle => {
                if let Some((from, worm)) = open.remove(&node.0) {
                    spans.entry(node.0).or_default().push((from, e.t, worm));
                }
            }
            _ => {}
        }
    }
    let end = horizon(trace);
    for (n, (from, worm)) in open {
        if end > from {
            spans.entry(n).or_default().push((from, end, worm));
        }
    }
    let mut out: Occupancy<NodeId> = spans.into_iter().map(|(n, v)| (NodeId(n), v)).collect();
    for (_, v) in &mut out {
        v.sort_unstable_by_key(|&(from, _, _)| from);
    }
    out
}

/// Render a textual timeline of the busiest `max_channels` channels.
pub fn render_timeline(trace: &[TraceEvent], graph: &NetworkGraph, max_channels: usize) -> String {
    use std::fmt::Write as _;
    let mut occ = channel_occupancy(trace);
    occ.sort_by_key(|(_, spans)| {
        std::cmp::Reverse(spans.iter().map(|(a, b, _)| b - a).sum::<Time>())
    });
    let mut out = String::new();
    for (ch, spans) in occ.into_iter().take(max_channels) {
        let c = graph.channel(ch);
        let _ = write!(out, "ch{:<5} {:?}->{:?}:", ch.0, c.src, c.dst);
        for (from, to, worm) in spans {
            let _ = write!(out, "  [{from}..{to} w{worm}]");
        }
        let _ = writeln!(out);
    }
    out
}

/// Per-channel utilisation over `[0, horizon]`: busy fraction per channel,
/// highest first.  The hot channels are where contention-avoidance earns
/// its keep.
pub fn utilization(trace: &[TraceEvent], horizon: Time) -> Vec<(ChannelId, f64)> {
    if horizon == 0 {
        return Vec::new();
    }
    let mut v: Vec<(ChannelId, f64)> = channel_occupancy(trace)
        .into_iter()
        .map(|(c, spans)| {
            let busy: Time = spans.iter().map(|(a, b, _)| b - a).sum();
            (c, busy as f64 / horizon as f64)
        })
        .collect();
    v.sort_by(|a, b| b.1.total_cmp(&a.1).then(a.0.cmp(&b.0)));
    v
}

/// Blocking episodes: (time, worm) pairs — the observable face of
/// contention.
pub fn blocking_episodes(trace: &[TraceEvent]) -> Vec<(Time, u32)> {
    trace
        .iter()
        .filter(|e| e.kind == TraceKind::Blocked)
        .map(|e| (e.t, e.worm))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(t: Time, worm: u32, ch: Option<u32>, kind: TraceKind) -> TraceEvent {
        TraceEvent::on_channel(t, worm, ch.map(ChannelId), kind)
    }

    #[test]
    fn occupancy_pairs_acquire_release() {
        let trace = vec![
            ev(0, 0, Some(3), TraceKind::Acquire),
            ev(5, 1, Some(4), TraceKind::Acquire),
            ev(9, 0, Some(3), TraceKind::Release),
            ev(12, 1, Some(4), TraceKind::Release),
            ev(13, 2, Some(3), TraceKind::Acquire),
            ev(20, 2, Some(3), TraceKind::Release),
        ];
        let occ = channel_occupancy(&trace);
        assert_eq!(occ.len(), 2);
        let ch3 = occ.iter().find(|(c, _)| c.0 == 3).unwrap();
        assert_eq!(ch3.1, vec![(0, 9, 0), (13, 20, 2)]);
    }

    #[test]
    fn open_spans_close_at_horizon() {
        // ch3's release is missing (e.g. the trace was truncated): the span
        // must still appear, closed at the horizon set by the last event.
        let trace = vec![
            ev(0, 0, Some(3), TraceKind::Acquire),
            ev(5, 1, Some(4), TraceKind::Acquire),
            ev(12, 1, Some(4), TraceKind::Release),
        ];
        let occ = channel_occupancy(&trace);
        let ch3 = occ.iter().find(|(c, _)| c.0 == 3).unwrap();
        assert_eq!(ch3.1, vec![(0, 12, 0)]);
        // A zero-width open span (acquired at the horizon) is dropped.
        let trace = vec![ev(7, 0, Some(9), TraceKind::Acquire)];
        assert!(channel_occupancy(&trace).is_empty());
    }

    #[test]
    fn cpu_occupancy_pairs_busy_idle() {
        let trace = vec![
            TraceEvent::on_node(0, 0, NodeId(2), TraceKind::CpuBusy),
            TraceEvent::on_node(350, 0, NodeId(2), TraceKind::CpuIdle),
            TraceEvent::on_node(400, 1, NodeId(2), TraceKind::CpuBusy),
        ];
        let occ = cpu_occupancy(&trace);
        assert_eq!(occ.len(), 1);
        // Second span is open and closes at the horizon (400 == horizon →
        // zero width → dropped).
        assert_eq!(occ[0].1, vec![(0, 350, 0)]);
    }

    #[test]
    fn utilization_ranks_hot_channels() {
        let trace = vec![
            ev(0, 0, Some(1), TraceKind::Acquire),
            ev(80, 0, Some(1), TraceKind::Release),
            ev(10, 1, Some(2), TraceKind::Acquire),
            ev(30, 1, Some(2), TraceKind::Release),
        ];
        let u = utilization(&trace, 100);
        assert_eq!(u[0].0, ChannelId(1));
        assert!((u[0].1 - 0.8).abs() < 1e-9);
        assert!((u[1].1 - 0.2).abs() < 1e-9);
        assert!(utilization(&trace, 0).is_empty());
    }

    #[test]
    fn blocking_extraction() {
        let trace = vec![
            ev(2, 1, Some(7), TraceKind::Blocked),
            ev(3, 1, Some(7), TraceKind::Acquire),
            ev(8, 1, Some(7), TraceKind::Release),
        ];
        assert_eq!(blocking_episodes(&trace), vec![(2, 1)]);
    }
}
