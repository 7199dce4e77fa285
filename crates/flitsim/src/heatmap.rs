//! Per-channel contention heatmaps.
//!
//! Reduces the engine's always-on per-channel accumulators
//! ([`SimResult::channels`]: busy / blocked / acquire totals, present on
//! every run) and — when a trace was kept — the per-channel occupancy
//! spans into the hottest-channels view behind `optmc inspect --heatmap`:
//!
//! * [`render`] — a text grid, one row per hot channel.  With a trace the
//!   row is a shaded time axis (busy fraction per window); without one it
//!   degrades to a utilisation bar, because the totals need no observer.
//! * [`to_json`] — the same data as a JSON value (stable field order).
//! * Perfetto counter tracks for the same spans live in
//!   [`crate::perfetto`].

use std::fmt::Write as _;

use pcm::Time;
use serde_json::Value;
use topo::{ChannelId, Endpoint, NetworkGraph};

use crate::stats::{ChannelTelemetry, SimResult};
use crate::trace;

/// Shade ramp for busy fractions 0.0 ..= 1.0.
const SHADES: &[u8] = b" .:-=+*#%@";

fn shade(frac: f64) -> char {
    let last = SHADES.len() - 1;
    let i = (frac.clamp(0.0, 1.0) * last as f64).round() as usize;
    SHADES[i.min(last)] as char
}

fn endpoint(e: Endpoint) -> String {
    match e {
        Endpoint::Node(n) => format!("n{}", n.0),
        Endpoint::Router(r) => format!("r{}", r.0),
    }
}

/// The hottest channels of a run: entries of [`SimResult::channels`]
/// ranked by busy cycles (ties broken by blocked cycles, then id), limited
/// to `max` and to channels that saw any traffic.
pub fn hottest(result: &SimResult, max: usize) -> Vec<(ChannelId, ChannelTelemetry)> {
    let mut v: Vec<(ChannelId, ChannelTelemetry)> = result
        .channels
        .touched()
        .iter()
        .filter(|(_, c)| c.acquires > 0)
        .copied()
        .collect();
    v.sort_by(|a, b| {
        b.1.busy
            .cmp(&a.1.busy)
            .then(b.1.blocked.cmp(&a.1.blocked))
            .then(a.0.cmp(&b.0))
    });
    v.truncate(max);
    v
}

/// Busy fraction of each of `cols` equal windows over `[0, finish)` for
/// one channel's occupancy spans.
fn windows(spans: &[trace::Span], finish: Time, cols: usize) -> Vec<f64> {
    (0..cols)
        .map(|w| {
            let lo = finish * w as Time / cols as Time;
            let hi = finish * (w as Time + 1) / cols as Time;
            if hi <= lo {
                return 0.0;
            }
            let busy: Time = spans
                .iter()
                .map(|&(a, b, _)| b.min(hi).saturating_sub(a.max(lo)))
                .sum();
            busy as f64 / (hi - lo) as f64
        })
        .collect()
}

/// Occupancy spans per channel, or `None` when the run kept no trace.
fn span_table(result: &SimResult) -> Option<Vec<(ChannelId, Vec<trace::Span>)>> {
    if result.trace.is_empty() {
        None
    } else {
        Some(trace::channel_occupancy(&result.trace))
    }
}

/// Render the text heatmap: the `max_channels` hottest channels, one row
/// each, over a `cols`-column time axis (shade = busy fraction of that
/// window) when a trace is available, or a utilisation bar otherwise.
pub fn render(
    result: &SimResult,
    graph: &NetworkGraph,
    max_channels: usize,
    cols: usize,
) -> String {
    let hot = hottest(result, max_channels);
    let mut out = String::new();
    let _ = writeln!(
        out,
        "contention heatmap: {} of {} channels with traffic, finish at cycle {}",
        hot.len(),
        result
            .channels
            .touched()
            .iter()
            .filter(|(_, c)| c.acquires > 0)
            .count(),
        result.finish
    );
    if hot.is_empty() {
        let _ = writeln!(out, "(no channel activity)");
        return out;
    }
    let spans = span_table(result);
    match &spans {
        Some(_) => {
            let _ = writeln!(
                out,
                "time axis: {cols} windows of {} cycles, shade ramp \"{}\"",
                (result.finish / cols as Time).max(1),
                std::str::from_utf8(SHADES).unwrap_or(" ")
            );
        }
        None => {
            let _ = writeln!(
                out,
                "(no trace retained — bars show whole-run busy fraction)"
            );
        }
    }
    for (ch, tel) in &hot {
        let c = graph.channel(*ch);
        let label = format!("{}->{}", endpoint(c.src), endpoint(c.dst));
        let row = match &spans {
            Some(table) => {
                let empty: Vec<trace::Span> = Vec::new();
                let sp = table
                    .iter()
                    .find(|(id, _)| id == ch)
                    .map_or(&empty, |(_, sp)| sp);
                windows(sp, result.finish, cols)
                    .into_iter()
                    .map(shade)
                    .collect::<String>()
            }
            None => {
                let frac = tel.utilization(result.finish);
                let filled = (frac * cols as f64).round() as usize;
                let mut bar = "#".repeat(filled.min(cols));
                bar.push_str(&" ".repeat(cols - filled.min(cols)));
                bar
            }
        };
        let _ = writeln!(
            out,
            "ch{:<5} {:<12} |{row}| busy {:>5.1}%  blocked {:>8}  acq {:>5}",
            ch.0,
            label,
            100.0 * tel.utilization(result.finish),
            tel.blocked,
            tel.acquires
        );
    }
    out
}

/// The heatmap as a JSON value: run finish, per-channel totals for the
/// hottest channels, and (when a trace was kept) the windowed busy
/// fractions that the text grid shades.
pub fn to_json(
    result: &SimResult,
    graph: &NetworkGraph,
    max_channels: usize,
    cols: usize,
) -> Value {
    let spans = span_table(result);
    let channels: Vec<Value> = hottest(result, max_channels)
        .into_iter()
        .map(|(ch, tel)| {
            let c = graph.channel(ch);
            let windows_v = match &spans {
                Some(table) => {
                    let empty: Vec<trace::Span> = Vec::new();
                    let sp = table
                        .iter()
                        .find(|(id, _)| *id == ch)
                        .map_or(&empty, |(_, sp)| sp);
                    Value::Array(
                        windows(sp, result.finish, cols)
                            .into_iter()
                            .map(Value::Float)
                            .collect(),
                    )
                }
                None => Value::Null,
            };
            Value::Object(vec![
                ("channel".to_string(), Value::UInt(u64::from(ch.0))),
                ("src".to_string(), Value::Str(endpoint(c.src))),
                ("dst".to_string(), Value::Str(endpoint(c.dst))),
                ("busy_cycles".to_string(), Value::UInt(tel.busy)),
                ("blocked_cycles".to_string(), Value::UInt(tel.blocked)),
                ("acquires".to_string(), Value::UInt(tel.acquires)),
                (
                    "utilization".to_string(),
                    Value::Float(tel.utilization(result.finish)),
                ),
                ("windows".to_string(), windows_v),
            ])
        })
        .collect();
    Value::Object(vec![
        ("finish".to_string(), Value::UInt(result.finish)),
        ("channels".to_string(), Value::Array(channels)),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::program::SinkProgram;
    use crate::{Engine, SendReq, SimConfig, TraceSink};
    use topo::{Mesh, NodeId, Topology};

    fn contended_run(traced: bool) -> (SimResult, Mesh) {
        // Two senders share the column-0 vertical path: 0→8 and 4→12 in a
        // 4x4 mesh both climb the x=0 column, so one blocks the other.
        let mesh = Mesh::new(&[4, 4]);
        let mut e = Engine::new(&mesh, SimConfig::paragon_like(), SinkProgram);
        if traced {
            e.set_observer(TraceSink::memory());
        }
        e.start(NodeId(0), 0, vec![SendReq::to(NodeId(12), 1024, ())]);
        e.start(NodeId(4), 0, vec![SendReq::to(NodeId(8), 1024, ())]);
        let (_, r) = e.run();
        (r, mesh)
    }

    #[test]
    fn per_channel_totals_match_run_aggregates() {
        let (r, _) = contended_run(false);
        let totals = r.channels.touched();
        let busy: Time = totals.iter().map(|(_, c)| c.busy).sum();
        let blocked: Time = totals.iter().map(|(_, c)| c.blocked).sum();
        let acquires: u64 = totals.iter().map(|(_, c)| c.acquires).sum();
        assert_eq!(busy, r.channel_busy_cycles);
        assert_eq!(blocked, r.blocked_cycles);
        // Every hop of every worm acquires one channel; two 2-hop-plus
        // messages acquire well more than one channel each.
        assert!(acquires > r.messages.len() as u64, "acquires = {acquires}");
        // The traced run's acquire events agree with the always-on totals.
        let (traced, _) = contended_run(true);
        let trace_acquires = traced
            .trace
            .iter()
            .filter(|e| e.kind == crate::trace::TraceKind::Acquire)
            .count() as u64;
        let traced_total: u64 = traced
            .channels
            .touched()
            .iter()
            .map(|(_, c)| c.acquires)
            .sum();
        assert_eq!(trace_acquires, traced_total);
        assert_eq!(traced_total, acquires);
    }

    #[test]
    fn heatmap_renders_with_and_without_trace() {
        let (traced, mesh) = contended_run(true);
        let grid = render(&traced, mesh.graph(), 8, 40);
        assert!(grid.contains("contention heatmap"), "{grid}");
        assert!(grid.contains("busy"), "{grid}");
        let (untraced, mesh) = contended_run(false);
        let bars = render(&untraced, mesh.graph(), 8, 40);
        assert!(bars.contains("no trace retained"), "{bars}");
        // Same always-on totals either way: observation never alters them.
        assert_eq!(traced.channel_busy_cycles, untraced.channel_busy_cycles);
        assert_eq!(traced.blocked_cycles, untraced.blocked_cycles);
    }

    #[test]
    fn heatmap_json_lists_hottest_channels() {
        let (r, mesh) = contended_run(true);
        let v = to_json(&r, mesh.graph(), 4, 10);
        let chans = v.get("channels").and_then(Value::as_array).unwrap();
        assert!(!chans.is_empty() && chans.len() <= 4);
        let first = &chans[0];
        assert!(first.get("busy_cycles").and_then(Value::as_u64).unwrap() > 0);
        assert_eq!(
            first
                .get("windows")
                .and_then(Value::as_array)
                .map(<[Value]>::len),
            Some(10)
        );
        // Hottest-first ordering.
        let busies: Vec<u64> = chans
            .iter()
            .map(|c| c.get("busy_cycles").and_then(Value::as_u64).unwrap())
            .collect();
        let mut sorted = busies.clone();
        sorted.sort_unstable_by(|a, b| b.cmp(a));
        assert_eq!(busies, sorted);
    }

    #[test]
    fn windows_cover_span_fractions() {
        // One span covering the middle half of [0, 100): windows 1 and 2
        // of 4 are fully busy.
        let sp = vec![(25u64, 75u64, 0u32)];
        let w = windows(&sp, 100, 4);
        assert_eq!(w, vec![0.0, 1.0, 1.0, 0.0]);
    }
}
