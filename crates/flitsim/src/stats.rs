//! Run results and per-message records.

use pcm::{MsgSize, Time};
use serde::{Deserialize, Serialize, Value};
use topo::{ChannelId, NodeId};

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

/// One channel's contention totals, accumulated by the engine on every run
/// (plain indexed adds — no observer required).  [`ChannelTotals`] holds
/// them per run; the heatmap in [`crate::heatmap`] reduces those into the
/// hottest-channels view.
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

/// The per-channel totals of one run: the channels it acquired, in the
/// order it first acquired each, and the network's channel count.  Sparse
/// in memory, so a result costs what the run touched; dense on the wire,
/// so it serializes as one [`ChannelTelemetry`] per channel of the network
/// in id order, zeros included, and every fingerprint reads as if the
/// totals were a full array.  Two totals are equal when they hold the same
/// figures for the same channels, whatever their order.
#[derive(Debug, Clone, Default)]
pub struct ChannelTotals {
    n_channels: usize,
    touched: Vec<(ChannelId, ChannelTelemetry)>,
}

impl ChannelTotals {
    /// Totals over a network of `n_channels` channels, from the `touched`
    /// ones (each named once).
    pub(crate) fn new(n_channels: usize, touched: Vec<(ChannelId, ChannelTelemetry)>) -> Self {
        debug_assert!(touched.iter().all(|(c, _)| c.idx() < n_channels));
        ChannelTotals {
            n_channels,
            touched,
        }
    }

    /// Channels of the network the run was on.
    #[must_use]
    pub fn n_channels(&self) -> usize {
        self.n_channels
    }

    /// The channels the run acquired, in the order it first acquired each;
    /// every other channel's totals are zero.
    #[must_use]
    pub fn touched(&self) -> &[(ChannelId, ChannelTelemetry)] {
        &self.touched
    }

    fn by_id(&self) -> Vec<(ChannelId, ChannelTelemetry)> {
        let mut v = self.touched.clone();
        v.sort_unstable_by_key(|&(c, _)| c);
        v
    }
}

impl PartialEq for ChannelTotals {
    fn eq(&self, other: &Self) -> bool {
        self.n_channels == other.n_channels
            && self.touched.len() == other.touched.len()
            && self.by_id() == other.by_id()
    }
}

impl Eq for ChannelTotals {}

impl Serialize for ChannelTotals {
    fn to_value(&self) -> Value {
        let zero = ChannelTelemetry::default().to_value();
        let mut dense = vec![zero; self.n_channels];
        for (c, tel) in &self.touched {
            dense[c.idx()] = tel.to_value();
        }
        Value::Array(dense)
    }
}

impl Deserialize for ChannelTotals {
    fn from_value(v: &Value) -> Result<Self, serde::DeError> {
        let dense = Vec::<ChannelTelemetry>::from_value(v)?;
        let touched = dense
            .iter()
            .enumerate()
            .filter(|(_, tel)| **tel != ChannelTelemetry::default())
            .map(|(i, tel)| (ChannelId(i as u32), *tel))
            .collect();
        Ok(ChannelTotals {
            n_channels: dense.len(),
            touched,
        })
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
    /// Always-on per-channel contention totals (present on every run; the
    /// substrate for `optmc inspect --heatmap`).
    pub channels: ChannelTotals,
    /// Per-kind event tallies when the run used the counters-only observer
    /// ([`crate::TraceSink::counters`]); `None` otherwise.
    pub counts: Option<EventCounts>,
    /// Channel-level event trace (empty unless an in-memory observer was
    /// active — see [`crate::SimConfig::trace`] and
    /// [`crate::obs::TraceSink`]).
    pub trace: Vec<TraceEvent>,
    /// True when the observer's trace is at best a prefix of the run: a
    /// bounded sink dropped events, or a JSONL stream failed on a write or
    /// on its final flush.
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
