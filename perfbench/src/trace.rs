//! In-memory span recorder for the traced run.
//!
//! A span is one call into a layer's public function, timed from outside:
//! name, start, end, parent span and op id.  Spans stay in memory while
//! the run measures and are written out once at exit; the per-layer
//! metrics are derived from them (self time = duration minus the
//! durations of the span's children).

use std::collections::BTreeMap;
use std::io::Write as _;
use std::path::Path;
use std::time::Instant;

/// Op id given to spans recorded during set-up.
pub const SETUP_OP: u64 = u64::MAX;

/// One recorded span.
#[derive(Debug, Clone, Copy)]
struct Span {
    /// Layer call, e.g. `flitsim.run`.
    name: &'static str,
    /// Start, in ns since the tracer was created.
    start_ns: u64,
    /// End, in ns since the tracer was created.
    end_ns: u64,
    /// Index of the enclosing span, if any.
    parent: Option<u32>,
    /// The op the span belongs to ([`SETUP_OP`] during set-up).
    op: u64,
}

/// Records spans and per-op counts.  A disabled tracer records nothing
/// and runs every closure directly.
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    op: u64,
    spans: Vec<Span>,
    parents: Vec<u32>,
    counts: BTreeMap<&'static str, f64>,
}

impl Tracer {
    /// A tracer that records only when `enabled`.
    #[must_use]
    pub fn new(enabled: bool) -> Self {
        Tracer {
            enabled,
            origin: Instant::now(),
            op: SETUP_OP,
            spans: Vec::new(),
            parents: Vec::new(),
            counts: BTreeMap::new(),
        }
    }

    /// Whether spans are being recorded.
    #[must_use]
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Attribute the following spans to op `op`.
    pub fn set_op(&mut self, op: u64) {
        self.op = op;
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Run `f` inside a span called `name`.
    pub fn span<R>(&mut self, name: &'static str, f: impl FnOnce(&mut Tracer) -> R) -> R {
        if !self.enabled {
            return f(self);
        }
        let idx = self.spans.len() as u32;
        let parent = self.parents.last().copied();
        self.spans.push(Span {
            name,
            start_ns: self.now_ns(),
            end_ns: 0,
            parent,
            op: self.op,
        });
        self.parents.push(idx);
        let out = f(self);
        self.parents.pop();
        self.spans[idx as usize].end_ns = self.now_ns();
        out
    }

    /// Record a child span of the current span that the callee timed
    /// itself (e.g. the engine's own `RunMeta::wall_ns`), ending now.
    pub fn child_span(&mut self, name: &'static str, duration_ns: u64) {
        if !self.enabled {
            return;
        }
        let end_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns: end_ns.saturating_sub(duration_ns),
            end_ns,
            parent: self.parents.last().copied(),
            op: self.op,
        });
    }

    /// End every span an unwinding op left open.
    pub fn close_open_spans(&mut self) {
        let now = self.now_ns();
        for idx in self.parents.drain(..) {
            self.spans[idx as usize].end_ns = now;
        }
    }

    /// Add `v` to the counter `name`.
    pub fn count(&mut self, name: &'static str, v: f64) {
        if self.enabled {
            *self.counts.entry(name).or_insert(0.0) += v;
        }
    }

    /// Summed counter value (0 when never counted).
    #[must_use]
    pub fn counter(&self, name: &str) -> f64 {
        self.counts.get(name).copied().unwrap_or(0.0)
    }

    /// Total self time per span name, split into set-up spans and op
    /// spans, plus the summed duration of top-level op spans.
    #[must_use]
    pub fn self_times(&self) -> SelfTimes {
        let mut own: Vec<i128> = self
            .spans
            .iter()
            .map(|s| i128::from(s.end_ns - s.start_ns))
            .collect();
        for s in &self.spans {
            if let Some(p) = s.parent {
                own[p as usize] -= i128::from(s.end_ns - s.start_ns);
            }
        }
        let mut out = SelfTimes::default();
        for (s, &ns) in self.spans.iter().zip(&own) {
            let ns = ns.max(0) as f64;
            let table = if s.op == SETUP_OP {
                &mut out.setup_ns
            } else {
                if s.parent.is_none() {
                    out.top_level_op_ns += (s.end_ns - s.start_ns) as f64;
                }
                &mut out.op_ns
            };
            *table.entry(s.name).or_insert(0.0) += ns;
        }
        out
    }

    /// Write every span as CSV (`op,span,parent,name,start_ns,end_ns`;
    /// set-up spans carry op `setup`, top-level spans parent `-`).
    ///
    /// # Errors
    /// On any I/O error.
    pub fn write_csv(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(w, "op,span,parent,name,start_ns,end_ns")?;
        for (i, s) in self.spans.iter().enumerate() {
            if s.op == SETUP_OP {
                write!(w, "setup,")?;
            } else {
                write!(w, "{},", s.op)?;
            }
            match s.parent {
                Some(p) => write!(w, "{i},{p},")?,
                None => write!(w, "{i},-,")?,
            }
            writeln!(w, "{},{},{}", s.name, s.start_ns, s.end_ns)?;
        }
        w.flush()
    }
}

/// Per-name self times from [`Tracer::self_times`].
#[derive(Debug, Default)]
pub struct SelfTimes {
    /// Self ns summed per span name over set-up spans.
    pub setup_ns: BTreeMap<&'static str, f64>,
    /// Self ns summed per span name over op spans.
    pub op_ns: BTreeMap<&'static str, f64>,
    /// Summed duration of op spans with no parent.
    pub top_level_op_ns: f64,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children_and_disabled_records_nothing() {
        let mut t = Tracer::new(true);
        t.set_op(0);
        let ms = std::time::Duration::from_millis(1);
        t.span("outer", |t| {
            t.span("inner", |_| std::thread::sleep(2 * ms));
            std::thread::sleep(ms);
            t.child_span("engine", 1_000_000);
        });
        let st = t.self_times();
        let outer = st.op_ns["outer"];
        let inner = st.op_ns["inner"];
        assert!(inner >= 2e6, "inner {inner}");
        assert!((st.op_ns["engine"] - 1e6).abs() < 1.0);
        assert!(
            (st.top_level_op_ns - (outer + inner + 1e6)).abs() < 1.0,
            "children partition the parent"
        );

        let mut off = Tracer::new(false);
        assert_eq!(off.span("x", |_| 7), 7);
        off.count("c", 1.0);
        assert!(off.self_times().op_ns.is_empty());
        assert_eq!(off.counter("c"), 0.0);
    }
}
