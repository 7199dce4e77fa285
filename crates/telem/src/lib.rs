//! # `telem` — telemetry snapshots and their exposition
//!
//! The workspace's one metrics format.  Each subsystem keeps its numbers
//! with its results (`flitsim::RunMeta`, `plansvc::EngineStats`, a
//! campaign's heartbeat) and copies them into a snapshot when a caller
//! asks for one; no metric lives in process-global state.
//!
//! * [`Histogram`] — the log₂-bucketed histogram previously private to
//!   `flitsim::obs`, promoted here so campaign heartbeats and the CLI's
//!   snapshots can share it (`flitsim` re-exports it unchanged).
//! * [`TelemetrySnapshot`] — a point-in-time, deterministic view of a set
//!   of metrics with three renderings: sorted-key JSON (byte-stable for a
//!   given input, which `scripts/check.sh` relies on), the Prometheus text
//!   format, and a plain-text table.

#![forbid(unsafe_code)]

use pcm::Time;
use serde::{Deserialize, Serialize};
use serde_json::Value;

// ---------------------------------------------------------------------------
// Histogram (promoted from `flitsim::obs`).

/// A log₂-bucketed histogram of `Time` samples: bucket `i` holds values in
/// `[2^(i-1), 2^i)` (bucket 0 holds exactly 0).  Cheap to fill, good
/// enough for p50/p95/p99 at the decade scale latencies live on.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct Histogram {
    /// Bucket counts, indexed as above.
    pub buckets: Vec<u64>,
    /// Total samples recorded.
    pub count: u64,
    /// Largest sample seen (exact, not bucketed).
    pub max: Time,
    /// Sum of all samples (for the mean).
    pub sum: u64,
}

impl Histogram {
    /// An empty histogram.
    pub fn new() -> Self {
        Self::default()
    }

    fn bucket_of(v: Time) -> usize {
        (64 - v.leading_zeros()) as usize
    }

    /// Record one sample.
    pub fn record(&mut self, v: Time) {
        let b = Self::bucket_of(v);
        if self.buckets.len() <= b {
            self.buckets.resize(b + 1, 0);
        }
        self.buckets[b] += 1;
        self.count += 1;
        self.sum = self.sum.saturating_add(v);
        self.max = self.max.max(v);
    }

    /// Build from an iterator of samples.
    pub fn from_samples<I: IntoIterator<Item = Time>>(samples: I) -> Self {
        let mut h = Self::new();
        for v in samples {
            h.record(v);
        }
        h
    }

    /// Mean of all samples (0 when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// Upper bound of the bucket containing the `q`-quantile (`0 < q <= 1`),
    /// clamped to the observed maximum; `None` when empty.
    pub fn quantile(&self, q: f64) -> Option<Time> {
        if self.count == 0 {
            return None;
        }
        let rank = ((q * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut seen = 0u64;
        for (i, &c) in self.buckets.iter().enumerate() {
            seen += c;
            if seen >= rank {
                let upper = if i == 0 { 0 } else { (1u64 << i) - 1 };
                return Some(upper.min(self.max));
            }
        }
        Some(self.max)
    }

    /// Median (bucket upper bound).
    pub fn p50(&self) -> Option<Time> {
        self.quantile(0.50)
    }

    /// 95th percentile (bucket upper bound).
    pub fn p95(&self) -> Option<Time> {
        self.quantile(0.95)
    }

    /// 99th percentile (bucket upper bound).
    pub fn p99(&self) -> Option<Time> {
        self.quantile(0.99)
    }
}

// ---------------------------------------------------------------------------
// Snapshot + exposition.

/// One metric's value inside a snapshot.
#[derive(Debug, Clone, PartialEq)]
enum MetricValue {
    Counter(u64),
    Gauge(u64),
    GaugeF(f64),
    Histogram(Histogram),
}

#[derive(Debug, Clone, PartialEq)]
struct Metric {
    name: String,
    help: String,
    value: MetricValue,
}

/// A point-in-time view of a set of metrics, with deterministic exposition.
///
/// Metrics are keyed by name and rendered sorted, so two snapshots built
/// from the same values serialize to byte-identical JSON regardless of
/// insertion order — the property the `scripts/check.sh` determinism gate
/// pins.  Only put *deterministic* quantities in a snapshot that is meant
/// to be compared across runs (cycle counts yes, wall-clock no).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct TelemetrySnapshot {
    metrics: Vec<Metric>,
}

impl TelemetrySnapshot {
    /// An empty snapshot.
    pub fn new() -> Self {
        Self::default()
    }

    fn push(&mut self, name: &str, help: &str, value: MetricValue) {
        // Last write wins so callers can overwrite a stale entry.
        if let Some(m) = self.metrics.iter_mut().find(|m| m.name == name) {
            m.help = help.to_string();
            m.value = value;
        } else {
            self.metrics.push(Metric {
                name: name.to_string(),
                help: help.to_string(),
                value,
            });
        }
    }

    /// Add (or overwrite) a counter value.
    pub fn counter(&mut self, name: &str, help: &str, value: u64) {
        self.push(name, help, MetricValue::Counter(value));
    }

    /// Add (or overwrite) an integer gauge value.
    pub fn gauge(&mut self, name: &str, help: &str, value: u64) {
        self.push(name, help, MetricValue::Gauge(value));
    }

    /// Add (or overwrite) a floating-point gauge value.
    pub fn gauge_f64(&mut self, name: &str, help: &str, value: f64) {
        self.push(name, help, MetricValue::GaugeF(value));
    }

    /// Add (or overwrite) a histogram.
    pub fn histogram(&mut self, name: &str, help: &str, h: &Histogram) {
        self.push(name, help, MetricValue::Histogram(h.clone()));
    }

    /// Number of metrics held.
    pub fn len(&self) -> usize {
        self.metrics.len()
    }

    /// True when no metrics are held.
    pub fn is_empty(&self) -> bool {
        self.metrics.is_empty()
    }

    /// Look up a counter/gauge value by name (integer metrics only).
    pub fn get(&self, name: &str) -> Option<u64> {
        self.metrics
            .iter()
            .find(|m| m.name == name)
            .and_then(|m| match m.value {
                MetricValue::Counter(v) | MetricValue::Gauge(v) => Some(v),
                _ => None,
            })
    }

    fn sorted(&self) -> Vec<&Metric> {
        let mut v: Vec<&Metric> = self.metrics.iter().collect();
        v.sort_by(|a, b| a.name.cmp(&b.name));
        v
    }

    /// The JSON form: `{"counters": {..}, "gauges": {..}, "histograms": {..}}`
    /// with every object sorted by metric name.
    pub fn to_json_value(&self) -> Value {
        let mut counters = Vec::new();
        let mut gauges = Vec::new();
        let mut hists = Vec::new();
        for m in self.sorted() {
            match &m.value {
                MetricValue::Counter(v) => counters.push((m.name.clone(), Value::UInt(*v))),
                MetricValue::Gauge(v) => gauges.push((m.name.clone(), Value::UInt(*v))),
                MetricValue::GaugeF(v) => gauges.push((m.name.clone(), Value::Float(*v))),
                MetricValue::Histogram(h) => {
                    hists.push((m.name.clone(), h.to_value()));
                }
            }
        }
        Value::Object(vec![
            ("counters".to_string(), Value::Object(counters)),
            ("gauges".to_string(), Value::Object(gauges)),
            ("histograms".to_string(), Value::Object(hists)),
        ])
    }

    /// Pretty JSON text (2-space indent, trailing newline), byte-stable for
    /// a given set of metric values.
    pub fn to_json(&self) -> String {
        let mut s = serde_json::to_string_pretty(&self.to_json_value())
            .expect("snapshot JSON render cannot fail");
        s.push('\n');
        s
    }

    /// Parse a snapshot back from its [`Self::to_json`] text.
    ///
    /// Help strings are not part of the JSON exposition, so they come back
    /// empty; everything else round-trips exactly
    /// (`from_json(s.to_json()).to_json() == s.to_json()`).
    pub fn from_json(text: &str) -> Result<Self, String> {
        let v: Value = serde_json::from_str(text).map_err(|e| format!("snapshot JSON: {e}"))?;
        let top = v
            .as_object()
            .ok_or_else(|| "snapshot must be a JSON object".to_string())?;
        let section = |name: &str| -> Result<&[(String, Value)], String> {
            match top.iter().find(|(k, _)| k == name) {
                None => Ok(&[]),
                Some((_, v)) => v
                    .as_object()
                    .ok_or_else(|| format!("snapshot '{name}' must be an object")),
            }
        };
        let mut snap = TelemetrySnapshot::new();
        for (name, v) in section("counters")? {
            let n = v
                .as_u64()
                .ok_or_else(|| format!("counter '{name}' must be a non-negative integer"))?;
            snap.counter(name, "", n);
        }
        for (name, v) in section("gauges")? {
            if let Some(n) = v.as_u64() {
                snap.gauge(name, "", n);
            } else if let Some(f) = v.as_f64() {
                snap.gauge_f64(name, "", f);
            } else {
                return Err(format!("gauge '{name}' must be a number"));
            }
        }
        for (name, v) in section("histograms")? {
            let h = Histogram::from_value(v).map_err(|e| format!("histogram '{name}': {e}"))?;
            snap.histogram(name, "", &h);
        }
        Ok(snap)
    }

    /// A deterministic plain-text rendering (sorted by metric name), the
    /// shared exposition `optmc inspect --format text` uses for service
    /// counters and engine vitals alike.
    pub fn render_text(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let width = self.metrics.iter().map(|m| m.name.len()).max().unwrap_or(0);
        for m in self.sorted() {
            match &m.value {
                MetricValue::Counter(v) | MetricValue::Gauge(v) => {
                    let _ = writeln!(out, "  {:width$}  {v}", m.name);
                }
                MetricValue::GaugeF(v) => {
                    let _ = writeln!(out, "  {:width$}  {v:.3}", m.name);
                }
                MetricValue::Histogram(h) => {
                    let _ = writeln!(
                        out,
                        "  {:width$}  count={} mean={:.1} p50={} p95={} max={}",
                        m.name,
                        h.count,
                        h.mean(),
                        h.p50().unwrap_or(0),
                        h.p95().unwrap_or(0),
                        h.max
                    );
                }
            }
        }
        out
    }

    /// The Prometheus text exposition format (`# HELP` / `# TYPE` / value
    /// lines, histograms as cumulative `_bucket{le=..}` series).
    pub fn to_prometheus(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        for m in self.sorted() {
            let _ = writeln!(out, "# HELP {} {}", m.name, m.help);
            match &m.value {
                MetricValue::Counter(v) => {
                    let _ = writeln!(out, "# TYPE {} counter", m.name);
                    let _ = writeln!(out, "{} {v}", m.name);
                }
                MetricValue::Gauge(v) => {
                    let _ = writeln!(out, "# TYPE {} gauge", m.name);
                    let _ = writeln!(out, "{} {v}", m.name);
                }
                MetricValue::GaugeF(v) => {
                    let _ = writeln!(out, "# TYPE {} gauge", m.name);
                    let _ = writeln!(out, "{} {v}", m.name);
                }
                MetricValue::Histogram(h) => {
                    let _ = writeln!(out, "# TYPE {} histogram", m.name);
                    let mut cumulative = 0u64;
                    for (i, &c) in h.buckets.iter().enumerate() {
                        cumulative += c;
                        // Bucket i holds [2^(i-1), 2^i); its inclusive upper
                        // bound is 2^i - 1 (bucket 0 holds exactly 0).
                        let le = if i == 0 { 0 } else { (1u64 << i) - 1 };
                        let _ = writeln!(out, "{}_bucket{{le=\"{le}\"}} {cumulative}", m.name);
                    }
                    let _ = writeln!(out, "{}_bucket{{le=\"+Inf\"}} {}", m.name, h.count);
                    let _ = writeln!(out, "{}_sum {}", m.name, h.sum);
                    let _ = writeln!(out, "{}_count {}", m.name, h.count);
                }
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn histogram_quantiles_bracket_samples() {
        let h = Histogram::from_samples([0, 1, 2, 3, 4, 100, 1000]);
        assert_eq!(h.count, 7);
        assert_eq!(h.max, 1000);
        assert!(h.p50().unwrap() >= 2 && h.p50().unwrap() <= 7);
        assert!(h.p99().unwrap() >= 100);
        assert!(h.quantile(1.0).unwrap() <= 1000);
        assert!((h.mean() - (1110.0 / 7.0)).abs() < 1e-9);
        assert_eq!(Histogram::new().p50(), None);
    }

    #[test]
    fn histogram_bucket_edges() {
        // 0 → bucket 0; 1 → bucket 1; 2,3 → bucket 2; 4..8 → bucket 3.
        let mut h = Histogram::new();
        for v in [0u64, 1, 2, 3, 4, 7] {
            h.record(v);
        }
        assert_eq!(h.buckets, vec![1, 1, 2, 2]);
    }

    #[test]
    fn snapshot_json_is_sorted_and_insertion_order_independent() {
        let mut a = TelemetrySnapshot::new();
        a.counter("z_total", "z", 1);
        a.counter("a_total", "a", 2);
        a.gauge("m_gauge", "m", 3);
        let mut b = TelemetrySnapshot::new();
        b.gauge("m_gauge", "m", 3);
        b.counter("a_total", "a", 2);
        b.counter("z_total", "z", 1);
        assert_eq!(a.to_json(), b.to_json());
        let json = a.to_json();
        assert!(json.find("a_total").unwrap() < json.find("z_total").unwrap());
        assert_eq!(a.get("a_total"), Some(2));
        assert_eq!(a.get("missing"), None);
    }

    #[test]
    fn snapshot_overwrites_by_name() {
        let mut s = TelemetrySnapshot::new();
        s.counter("x_total", "x", 1);
        s.counter("x_total", "x", 9);
        assert_eq!(s.len(), 1);
        assert_eq!(s.get("x_total"), Some(9));
    }

    #[test]
    fn prometheus_exposition_renders_all_kinds() {
        let mut s = TelemetrySnapshot::new();
        s.counter("runs_total", "Runs", 3);
        s.gauge_f64("ratio", "Ratio", 0.5);
        let h = Histogram::from_samples([1, 5]);
        s.histogram("lat", "Latency", &h);
        let text = s.to_prometheus();
        assert!(text.contains("# TYPE runs_total counter"));
        assert!(text.contains("runs_total 3"));
        assert!(text.contains("# TYPE ratio gauge"));
        assert!(text.contains("# TYPE lat histogram"));
        assert!(text.contains("lat_bucket{le=\"+Inf\"} 2"));
        assert!(text.contains("lat_sum 6"));
        assert!(text.contains("lat_count 2"));
    }

    #[test]
    fn snapshot_round_trips_through_json() {
        let mut s = TelemetrySnapshot::new();
        s.counter("plansvc_hits_total", "Cache hits", 12);
        s.gauge("plansvc_cached_plans", "Plans held", 4);
        s.gauge_f64("plansvc_hit_ratio", "Hit ratio", 0.75);
        s.histogram(
            "plansvc_lat",
            "Latency",
            &Histogram::from_samples([1, 8, 64]),
        );
        let text = s.to_json();
        let back = TelemetrySnapshot::from_json(&text).unwrap();
        assert_eq!(back.to_json(), text, "byte-stable round trip");
        assert_eq!(back.get("plansvc_hits_total"), Some(12));
        assert!(TelemetrySnapshot::from_json("[]").is_err());
        assert!(TelemetrySnapshot::from_json("{\"counters\": {\"x\": -1}}").is_err());
    }

    #[test]
    fn render_text_lists_every_metric() {
        let mut s = TelemetrySnapshot::new();
        s.counter("b_total", "b", 2);
        s.counter("a_total", "a", 1);
        s.histogram("lat", "Latency", &Histogram::from_samples([2, 2, 2]));
        let text = s.render_text();
        assert!(text.contains("a_total"));
        assert!(text.find("a_total").unwrap() < text.find("b_total").unwrap());
        assert!(text.contains("count=3"));
        assert!(text.contains("max=2"));
    }

    #[test]
    fn histogram_round_trips_through_json() {
        let h = Histogram::from_samples([3, 9, 27]);
        let text = serde_json::to_string(&h.to_value()).unwrap();
        let v = serde_json::from_str(&text).unwrap();
        let back = Histogram::from_value(&v).unwrap();
        assert_eq!(back, h);
    }
}
