//! Run results and per-message records.

use pcm::{MsgSize, Time};
use serde::{Deserialize, Serialize};
use topo::NodeId;

use crate::obs::{EventCounts, RunMeta};
use crate::trace::TraceEvent;

/// One completed message.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct MessageRecord {
    /// Sender.
    pub src: NodeId,
    /// Receiver.
    pub dest: NodeId,
    /// Payload bytes.
    pub bytes: MsgSize,
    /// Send initiation time (when the CPU picked the send up).
    pub initiated: Time,
    /// First flit entered the injection channel.
    pub injected: Time,
    /// Head reached the consumption channel; draining began.
    pub drain_start: Time,
    /// Tail flit consumed by the destination NI (receive software may
    /// start once the CPU is free).
    pub tail_consumed: Time,
    /// Receive completion (tail consumed + `t_recv`).
    pub completed: Time,
    /// Cycles the head spent blocked waiting for busy channels.
    pub blocked: Time,
}

impl MessageRecord {
    /// Observed end-to-end latency (`initiated` → `completed`): the `t_end`
    /// a user-level measurement would see, contention included.
    pub fn latency(&self) -> Time {
        self.completed - self.initiated
    }
}

/// Per-channel contention totals, accumulated by the engine on every run
/// (plain indexed adds — no observer required).  Indexed by
/// [`topo::ChannelId`]; the heatmap in [`crate::heatmap`] reduces these
/// into the hottest-channels view.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct ChannelTelemetry {
    /// Cycles the channel was held.
    pub busy: Time,
    /// Blocked cycles attributed to this channel (waits that ended by
    /// acquiring it).
    pub blocked: Time,
    /// Times the channel was acquired.
    pub acquires: u64,
}

impl ChannelTelemetry {
    /// Busy fraction of `[0, finish]` (0 when the run is empty).
    pub fn utilization(&self, finish: Time) -> f64 {
        if finish == 0 {
            0.0
        } else {
            self.busy as f64 / finish as f64
        }
    }
}

/// Aggregate result of a simulation run.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct SimResult {
    /// Time of the last event processed (all messages delivered, all
    /// software completions fired).
    pub finish: Time,
    /// Every message, in completion order.
    pub messages: Vec<MessageRecord>,
    /// Total head-blocked cycles across all messages — the contention
    /// overhead the paper's node orderings are designed to eliminate.
    pub blocked_cycles: Time,
    /// Number of distinct blocking episodes (a head waiting on a busy
    /// channel at least one cycle).
    pub blocked_events: u64,
    /// Total busy channel-cycles (for utilisation analyses).
    pub channel_busy_cycles: Time,
    /// Always-on per-channel contention totals, indexed by channel id
    /// (present on every run; the substrate for `optmc inspect --heatmap`).
    pub channels: Vec<ChannelTelemetry>,
    /// Per-kind event tallies when the run used the counters-only observer
    /// ([`crate::TraceSink::counters`]); `None` otherwise.
    pub counts: Option<EventCounts>,
    /// Channel-level event trace (empty unless an in-memory observer was
    /// active — see [`crate::SimConfig::trace`] and
    /// [`crate::obs::TraceSink`]).
    pub trace: Vec<TraceEvent>,
    /// True when a bounded sink dropped events: `trace` is a prefix of the
    /// run, not the whole story.
    pub truncated: bool,
    /// Engine vitals for this run (event counts are deterministic; the
    /// wall-clock figures are not).
    pub meta: RunMeta,
}

impl SimResult {
    /// Completion time of the latest message — the multicast latency when
    /// the run is a multicast.  `None` when the run delivered nothing, so
    /// an empty run cannot masquerade as a zero-latency one.
    pub fn last_completion(&self) -> Option<Time> {
        self.messages.iter().map(|m| m.completed).max()
    }

    /// True when no head ever waited: the run was contention-free.
    pub fn contention_free(&self) -> bool {
        self.blocked_events == 0
    }

    /// The record for the message delivered to `dest`, if any.
    pub fn delivered_to(&self, dest: NodeId) -> Option<&MessageRecord> {
        self.messages.iter().find(|m| m.dest == dest)
    }

    /// Canonical JSON for reproducibility comparisons: the full result —
    /// every message, every channel total, every deterministic meta count —
    /// with the wall-clock figures (non-deterministic) and the heap
    /// high-water marks (a memory estimate, not a simulation outcome)
    /// zeroed.
    pub fn fingerprint(&self) -> String {
        let mut canon = self.clone();
        canon.meta.peak_heap_events = 0;
        canon.meta.peak_heap_bytes = 0;
        canon.meta.wall_ns = 0;
        canon.meta.events_per_sec = 0.0;
        serde_json::to_string(&canon).expect("SimResult serializes")
    }
}
