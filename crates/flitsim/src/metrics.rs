//! [`TelemetrySnapshot`] builder for one run.
//!
//! [`run_snapshot`] copies a [`SimResult`]'s *deterministic* vitals (cycle
//! and event counts and their distributions, never wall-clock) into a
//! snapshot.  `optmc inspect --telemetry-out` writes it, and the
//! `scripts/check.sh` determinism gate byte-compares two same-seed runs of
//! it.  The numbers live on the result itself ([`crate::RunMeta`] and the
//! `SimResult` totals); nothing here keeps process-wide state.

use telem::TelemetrySnapshot;

use crate::stats::SimResult;

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
}
