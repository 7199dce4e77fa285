//! Process-global engine counters and [`TelemetrySnapshot`] builders.
//!
//! The counters are `telem` statics flushed **in bulk** by
//! [`crate::Engine::run`] — one relaxed atomic add per counter per *run*,
//! never per event, so campaign worker threads don't contend on a shared
//! cache line inside the event loop and the hot path stays
//! allocation-free (pinned by the `zero_alloc` test).
//!
//! Two snapshot builders feed the exposition layer:
//! [`process_snapshot`] reads the cumulative process-wide counters, and
//! [`run_snapshot`] captures one run's *deterministic* vitals (cycle and
//! event counts only — never wall-clock), which is what the
//! `scripts/check.sh` determinism gate byte-compares.

use telem::{counter, TelemetrySnapshot};

use crate::stats::SimResult;

counter!(pub RUNS, "flitsim_runs_total", "Simulation runs completed");
counter!(
    pub EVENTS_PROCESSED,
    "flitsim_events_processed_total",
    "Events popped from the event heap across all runs"
);
counter!(
    pub EVENTS_SCHEDULED,
    "flitsim_events_scheduled_total",
    "Events scheduled onto the event heap across all runs"
);
counter!(
    pub MESSAGES,
    "flitsim_messages_delivered_total",
    "Messages delivered across all runs"
);
counter!(
    pub BLOCKED_CYCLES,
    "flitsim_blocked_cycles_total",
    "Head-blocked cycles across all runs"
);
counter!(
    pub CHANNEL_BUSY_CYCLES,
    "flitsim_channel_busy_cycles_total",
    "Busy channel-cycles across all runs"
);
/// Snapshot the cumulative process-wide engine counters.
pub fn process_snapshot() -> TelemetrySnapshot {
    let mut s = TelemetrySnapshot::new();
    s.record(&RUNS);
    s.record(&EVENTS_PROCESSED);
    s.record(&EVENTS_SCHEDULED);
    s.record(&MESSAGES);
    s.record(&BLOCKED_CYCLES);
    s.record(&CHANNEL_BUSY_CYCLES);
    s
}

/// Snapshot one run's deterministic vitals.
///
/// Everything here is a function of the simulation alone (cycle counts,
/// event counts, distributions) — wall-clock figures are deliberately
/// excluded so two runs with the same seed serialize byte-identically.
pub fn run_snapshot(r: &SimResult) -> TelemetrySnapshot {
    let mut s = TelemetrySnapshot::new();
    s.counter(
        "run_events_processed",
        "Events popped from the event heap",
        r.meta.events_processed,
    );
    s.counter(
        "run_events_scheduled",
        "Events scheduled onto the event heap",
        r.meta.events_scheduled,
    );
    s.counter(
        "run_messages_delivered",
        "Messages delivered",
        r.messages.len() as u64,
    );
    s.counter(
        "run_blocked_cycles",
        "Head-blocked cycles",
        r.blocked_cycles,
    );
    s.counter("run_blocked_events", "Blocking episodes", r.blocked_events);
    s.counter(
        "run_channel_busy_cycles",
        "Busy channel-cycles",
        r.channel_busy_cycles,
    );
    s.gauge("run_finish_cycle", "Time of the last event", r.finish);
    s.gauge(
        "run_peak_heap_events",
        "High-water mark of the pending-event heap",
        r.meta.peak_heap_events as u64,
    );
    s.histogram(
        "run_latency_cycles",
        "End-to-end message latency",
        &telem::Histogram::from_samples(
            r.messages.iter().map(crate::stats::MessageRecord::latency),
        ),
    );
    s.histogram(
        "run_blocked_per_message_cycles",
        "Blocked cycles per message",
        &telem::Histogram::from_samples(r.messages.iter().map(|m| m.blocked)),
    );
    s.histogram(
        "run_channel_busy_per_channel_cycles",
        "Busy cycles per active channel",
        &telem::Histogram::from_samples(
            r.channels.iter().filter(|c| c.acquires > 0).map(|c| c.busy),
        ),
    );
    if let Some(c) = &r.counts {
        s.counter(
            "run_observed_events",
            "Events tallied by the counters-only observer",
            c.total(),
        );
    }
    s
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::program::SinkProgram;
    use crate::{Engine, SendReq, SimConfig};
    use topo::{Mesh, NodeId};

    fn small_run() -> SimResult {
        let mesh = Mesh::new(&[4, 4]);
        let mut e = Engine::new(&mesh, SimConfig::paragon_like(), SinkProgram);
        e.start(NodeId(0), 0, vec![SendReq::to(NodeId(5), 256, ())]);
        e.run().1
    }

    #[test]
    fn run_snapshot_is_deterministic() {
        let a = run_snapshot(&small_run());
        let b = run_snapshot(&small_run());
        assert_eq!(a.to_json(), b.to_json());
        assert_eq!(a.get("run_messages_delivered"), Some(1));
        assert!(a.get("run_events_processed").unwrap() > 0);
    }

    #[test]
    fn process_counters_grow_with_runs() {
        let before = RUNS.get();
        let _ = small_run();
        assert!(RUNS.get() > before);
        let s = process_snapshot();
        assert!(s.get("flitsim_runs_total").unwrap() > before);
        assert!(!s.to_prometheus().is_empty());
    }
}
