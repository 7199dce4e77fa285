//! # `perfbench` — the repository benchmark
//!
//! One closed-loop client on one thread drives a seeded workload through
//! the workspace crates' public entry points, checks every op's output,
//! and reports end-to-end metrics (set-up time, ops/s, p50/p90 op
//! latency, peak RSS).  The traced run (`--trace 1`) replaces each
//! wrapper call with the layer calls it makes ([`decomposed`]), records
//! spans around them ([`trace`]), and reports per-layer self times and
//! counts instead.
//!
//! Workloads (see `NOTES.md` for why each exists):
//! * `paper_figures` — every cell of Figs 2–4 through
//!   `campaign::pool::run_cell`, aggregated by
//!   `campaign::figure_from_records`;
//! * `loaded_poisson` — 64 overlapping Poisson-arrival multicasts per op
//!   through `optmc::run_concurrent`;
//! * `plan_service` — Zipf-keyed plan requests through
//!   `plansvc::step_blocking` with a 256-plan cache and certification.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::time::Instant;

pub mod decomposed;
pub mod output;
pub mod refs;
pub mod trace;
mod workloads;

pub use output::Output;
pub use refs::Refs;
pub use trace::Tracer;

/// Workload names, in the order `BENCHMARK.json` lists them.
pub const WORKLOADS: [&str; 3] = ["paper_figures", "loaded_poisson", "plan_service"];

/// The seed the recorded references (`references.txt`, `ref/*.csv`)
/// belong to; at any other seed only the invariant checks apply.
pub const REFERENCE_SEED: u64 = 1997;

/// Fewest input slots a workload's cycle has: the op percentiles are
/// taken over slots, and at least ten of them must lie beyond the 90th.
pub const MIN_SLOTS: u64 = 100;

/// Input cycles of op latencies a run keeps for the per-slot medians.
const KEPT_CYCLES: usize = 64;

/// Groups of set-ups timed before the first op.
const SETUP_REPS: usize = 11;

/// Shortest timed group of set-ups, in seconds.
const SETUP_GROUP_S: f64 = 1e-3;

/// End-to-end metrics of an untraced run: `(name, unit)`.
pub const END_TO_END: [(&str, &str); 5] = [
    ("setup_s", "s"),
    ("ops_per_s", "1/s"),
    ("op_p50_ms", "ms"),
    ("op_p90_ms", "ms"),
    ("peak_rss_mb", "MiB"),
];

/// Per-layer metrics of a traced run: `(name, unit)`.  A `_us` metric is
/// the mean self time per op of the span with the same name; a
/// `setup.…_ms` metric the mean self time per set-up of a set-up span;
/// counts are per op, except `flitsim.peak_heap_events` (mean over
/// simulations).  Workloads that never make a call report 0 for it.
pub const PER_LAYER: [(&str, &str); 32] = [
    ("topo.build_us", "us"),
    ("topo.route_table_us", "us"),
    ("topo.route_table_mb", "MiB"),
    ("topo.chain_us", "us"),
    ("optmc.placement_us", "us"),
    ("optmc.hops_us", "us"),
    ("mtree.opt_us", "us"),
    ("mtree.schedule_us", "us"),
    ("optmc.program_us", "us"),
    ("flitsim.setup_us", "us"),
    ("flitsim.run_us", "us"),
    ("flitsim.events", "count"),
    ("flitsim.events_per_s", "1/s"),
    ("flitsim.peak_heap_events", "count"),
    ("flitsim.blocked_cycles", "cycles"),
    ("optmc.concurrent_us", "us"),
    ("campaign.workload_us", "us"),
    ("campaign.aggregate_us", "us"),
    ("plansvc.service_us", "us"),
    ("plansvc.compute_us", "us"),
    ("plansvc.render_us", "us"),
    ("plansvc.hit_ratio", "ratio"),
    ("plansvc.evictions", "count"),
    ("netcheck.certify_us", "us"),
    ("unattributed_us", "us"),
    ("setup.campaign.spec_ms", "ms"),
    ("setup.topo.build_ms", "ms"),
    ("setup.topo.route_table_ms", "ms"),
    ("setup.topo.route_table_mb", "MiB"),
    ("setup.plansvc.engine_ms", "ms"),
    ("trace.overhead_pct", "%"),
    ("trace.ops_per_s", "1/s"),
];

/// What one run measures.
#[derive(Debug, Clone)]
pub struct Options {
    /// One of [`WORKLOADS`].
    pub workload: String,
    /// Seed the workload's inputs are generated from.
    pub seed: u64,
    /// Minimum measuring time; a run always ends on a whole input cycle.
    pub seconds: f64,
    /// Traced run: per-layer metrics instead of end-to-end ones.
    pub trace: bool,
    /// Checkout root (holds `specs/`, `results/` and `perfbench/`).
    pub root: PathBuf,
    /// Directory for run outputs (span CSVs, scratch figure files).
    pub out_dir: PathBuf,
    /// Recorded references; `None` runs the invariant checks only.
    pub refs: Option<Refs>,
}

/// One reported metric.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Metric name.
    pub name: &'static str,
    /// Measured value.
    pub value: f64,
    /// Unit.
    pub unit: &'static str,
}

/// A finished run.
#[derive(Debug, Clone)]
pub struct Report {
    /// Ops attempted.
    pub attempted: u64,
    /// Ops that panicked, returned an error or failed a check, plus
    /// failed whole-run checks.
    pub failed: u64,
    /// The metrics, in [`END_TO_END`] or [`PER_LAYER`] order.
    pub metrics: Vec<Metric>,
    /// The first few failure reasons.
    pub failures: Vec<String>,
}

impl Report {
    /// Every op and check passed.
    #[must_use]
    pub fn correct(&self) -> bool {
        self.failed == 0
    }

    /// The value of metric `name`, if reported.
    #[must_use]
    pub fn metric(&self, name: &str) -> Option<f64> {
        self.metrics
            .iter()
            .find(|m| m.name == name)
            .map(|m| m.value)
    }

    /// The one-line JSON result.
    #[must_use]
    pub fn to_json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                format!(
                    "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                    m.name,
                    json_number(m.value),
                    m.unit
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct(),
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

/// Shortest round-tripping decimal form; JSON has no NaN or infinity.
fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "null".to_string()
    }
}

/// One workload: generated inputs plus the program state built by
/// [`Workload::setup`].
pub(crate) trait Workload {
    /// One-time work before the first op.  Called several times; each
    /// call replaces the state the previous one built.
    fn setup(&mut self, tr: &mut Tracer) -> Result<(), String>;
    /// Drop the state [`Workload::setup`] built, so that the next timed
    /// set-up does not pay for freeing it.
    fn teardown(&mut self) {}
    /// Ops in one cycle of the input sequence, at least [`MIN_SLOTS`];
    /// runs end on a whole cycle.
    fn cycle_len(&self) -> usize;
    /// Op `i` through the public wrapper.
    fn op(&mut self, i: u64) -> Result<Output, String>;
    /// Op `i` through the traced decomposition of the same wrapper.
    fn op_traced(&mut self, i: u64, tr: &mut Tracer) -> Result<Output, String>;
    /// Invariants of op `i`'s output, and its reference when recorded.
    fn check(&self, i: u64, out: &Output) -> Result<(), String>;
    /// Whole-run checks after the last op; one message per failure.
    fn finish(&mut self) -> Vec<String> {
        Vec::new()
    }
    /// Reference entries `(id, digest)` at this workload's seed: by
    /// default one per op of the first input cycle, keyed by op index.
    fn record(&mut self) -> Result<Vec<(String, u64)>, String> {
        (0..self.cycle_len() as u64)
            .map(|i| {
                let out = self.op(i)?;
                self.check(i, &out)?;
                Ok((i.to_string(), output::digest(&out.canonical())))
            })
            .collect()
    }
}

/// Build the named workload's inputs.
fn workload(opts: &Options) -> Result<Box<dyn Workload>, String> {
    let refs = opts.refs.clone();
    Ok(match opts.workload.as_str() {
        "paper_figures" => Box::new(workloads::PaperFigures::new(
            opts.seed,
            &opts.root,
            &opts.out_dir,
            refs,
        )),
        "loaded_poisson" => Box::new(workloads::LoadedPoisson::new(opts.seed, refs)),
        "plan_service" => Box::new(workloads::PlanService::new(opts.seed, refs)),
        other => {
            return Err(format!(
                "unknown workload '{other}' (expected one of {})",
                WORKLOADS.join(", ")
            ))
        }
    })
}

fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    let text = payload
        .downcast_ref::<&str>()
        .map(|s| (*s).to_string())
        .or_else(|| payload.downcast_ref::<String>().cloned())
        .unwrap_or_else(|| "<non-string payload>".to_string());
    format!("panic: {text}")
}

/// Run `f` as one op: time it, and turn a panic into an error.
fn timed(f: impl FnOnce() -> Result<Output, String>) -> (Result<Output, String>, u64) {
    let t0 = Instant::now();
    let out = catch_unwind(AssertUnwindSafe(f)).unwrap_or_else(|p| Err(panic_message(p.as_ref())));
    (out, t0.elapsed().as_nanos() as u64)
}

/// Nearest-rank quantile of sorted samples (NaN when there are none).
fn quantile(sorted: &[u64], q: f64) -> f64 {
    if sorted.is_empty() {
        return f64::NAN;
    }
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1] as f64
}

fn median(mut xs: Vec<f64>) -> f64 {
    xs.sort_by(f64::total_cmp);
    let n = xs.len();
    if n % 2 == 1 {
        xs[n / 2]
    } else {
        (xs[n / 2 - 1] + xs[n / 2]) / 2.0
    }
}

/// Op latencies of whole input cycles spread evenly over the run, in a
/// buffer of fixed size touched up front: the log's memory does not grow
/// with the number of ops a run fits, so `peak_rss_mb` does not move
/// with op speed.  When the buffer is full, every other kept cycle is
/// dropped and from then on only every other cycle is kept.
struct LatencyLog {
    /// Ops per input cycle.
    cycle: usize,
    /// Up to [`KEPT_CYCLES`] rows of one cycle's latencies, in ns.
    rows: Vec<u32>,
    /// Rows filled, the last one possibly in part.
    kept: usize,
    /// Cycle `c` is kept when `c` is a multiple of this.
    stride: u64,
    /// Ops recorded, and their summed latency in ns.
    ops: u64,
    total_ns: u64,
}

impl LatencyLog {
    fn new(cycle: usize) -> Self {
        LatencyLog {
            cycle,
            // Non-zero, so that every page is written now, not on first use.
            rows: vec![u32::MAX; cycle * KEPT_CYCLES],
            kept: 0,
            stride: 1,
            ops: 0,
            total_ns: 0,
        }
    }

    /// Record op `i`'s latency; ops come in order, one cycle after another.
    fn record(&mut self, i: u64, ns: u64) {
        self.ops += 1;
        self.total_ns += ns;
        let (c, slot) = (i / self.cycle as u64, (i % self.cycle as u64) as usize);
        if !c.is_multiple_of(self.stride) {
            return;
        }
        if slot == 0 {
            if self.kept == KEPT_CYCLES {
                for r in 1..KEPT_CYCLES / 2 {
                    self.rows
                        .copy_within(2 * r * self.cycle..(2 * r + 1) * self.cycle, r * self.cycle);
                }
                self.kept = KEPT_CYCLES / 2;
                self.stride *= 2;
            }
            self.kept += 1;
        }
        self.rows[(self.kept - 1) * self.cycle + slot] = u32::try_from(ns).unwrap_or(u32::MAX);
    }

    /// Ops per second of op time, over every op.
    fn ops_per_s(&self) -> f64 {
        self.ops as f64 / (self.total_ns as f64 / 1e9)
    }

    /// The p50 and p90 over the input slots of each slot's median latency
    /// over the kept cycles, in ns.  A slot's median over the run's
    /// repeats of that input is its cost with the host's slow phases
    /// (seconds long, covering part of a run) filtered out; the p90 of
    /// raw op latencies jumps by a whole phase's slowdown once a phase
    /// covers a tenth of the run.
    fn slot_quantiles(&self) -> [f64; 2] {
        let mut medians: Vec<u64> = (0..self.cycle)
            .map(|slot| {
                let mut xs: Vec<u32> = (0..self.kept)
                    .map(|r| self.rows[r * self.cycle + slot])
                    .collect();
                xs.sort_unstable();
                u64::from(xs[(xs.len() - 1) / 2])
            })
            .collect();
        medians.sort_unstable();
        [quantile(&medians, 0.50), quantile(&medians, 0.90)]
    }
}

struct Failures {
    count: u64,
    first: Vec<String>,
}

impl Failures {
    fn add(&mut self, what: String) {
        self.count += 1;
        if self.first.len() < 8 {
            self.first.push(what);
        }
    }
}

/// Time one group of `group` set-ups of `w`, in seconds per set-up.
/// Freeing the previous state is not set-up work.  (Within a group of
/// sub-millisecond set-ups each still replaces the small state of the
/// one before.)
fn time_setups(w: &mut dyn Workload, tr: &mut Tracer, group: usize) -> Result<f64, String> {
    w.teardown();
    let t0 = Instant::now();
    for _ in 0..group {
        w.setup(tr)?;
    }
    Ok(t0.elapsed().as_secs_f64() / group as f64)
}

/// Run one workload as `opts` describes.
///
/// # Errors
/// When the workload is unknown or its set-up fails; failures of single
/// ops are counted in the report instead.
pub fn run(opts: &Options) -> Result<Report, String> {
    let mut w = workload(opts)?;
    let mut tr = Tracer::new(opts.trace);

    // `setup_s` is the median of set-ups timed before the first op and,
    // on a spare copy of the workload, once per input cycle through the
    // measured phase: the host runs a process slower in phases of up to
    // minutes, also right after it starts, and the median over set-ups
    // spread through the run filters them out as the slot medians do for
    // ops.  Set-ups far shorter than a millisecond are timed in groups,
    // so the clock's resolution does not dominate; a warm set-up sizes
    // them: the group doubles until it takes a millisecond.  A traced run
    // reports no `setup_s`: it times its set-up spans one set-up at a
    // time, before the first op only.
    w.setup(&mut tr)?;
    let mut group = 1;
    while !opts.trace
        && group < 100_000
        && time_setups(w.as_mut(), &mut tr, group)? * (group as f64) < SETUP_GROUP_S
    {
        group *= 2;
    }
    let mut setup_s = Vec::new();
    for _ in 0..SETUP_REPS {
        setup_s.push(time_setups(w.as_mut(), &mut tr, group)?);
    }
    // The set-up calls a traced run makes.
    let setups = 1 + SETUP_REPS;
    let mut spare = if opts.trace {
        None
    } else {
        let mut spare = workload(opts)?;
        spare.setup(&mut tr)?;
        Some(spare)
    };

    let cycle = w.cycle_len() as u64;
    let mut fails = Failures {
        count: 0,
        first: Vec::new(),
    };
    let mut log = LatencyLog::new(cycle as usize);
    let mut traced_ns: u64 = 0;
    let started = Instant::now();
    let mut i: u64 = 0;
    while !(i.is_multiple_of(cycle)
        && i >= cycle
        && started.elapsed().as_secs_f64() >= opts.seconds)
    {
        if i > 0 && i.is_multiple_of(cycle) {
            if let Some(spare) = spare.as_mut() {
                setup_s.push(time_setups(spare.as_mut(), &mut tr, group)?);
            }
        }
        tr.set_op(i);
        let (plain, traced) = if opts.trace {
            // Alternate which copy runs first, so neither always finds
            // the caches the other one warmed.
            let run_traced = |w: &mut Box<dyn Workload>, tr: &mut Tracer| {
                let r = timed(|| w.op_traced(i, tr));
                tr.close_open_spans();
                r
            };
            if i.is_multiple_of(2) {
                let a = timed(|| w.op(i));
                (a, Some(run_traced(&mut w, &mut tr)))
            } else {
                let b = run_traced(&mut w, &mut tr);
                (timed(|| w.op(i)), Some(b))
            }
        } else {
            (timed(|| w.op(i)), None)
        };
        let (out, ns) = plain;
        log.record(i, ns);
        let traced = traced.map(|(t_out, t_ns)| {
            traced_ns += t_ns;
            t_out
        });
        let verdict = out.and_then(|out| {
            w.check(i, &out)?;
            match traced {
                None => Ok(()),
                Some(t_out) => {
                    let t_out = t_out.map_err(|e| format!("traced: {e}"))?;
                    out.same_as(&t_out)
                        .map_err(|e| format!("traced output differs: {e}"))
                }
            }
        });
        if let Err(e) = verdict {
            fails.add(format!("op {i}: {e}"));
        }
        i += 1;
    }
    // Before the checks and metrics below allocate anything.
    let peak_rss_mb = decomposed::peak_rss_mib();
    for e in w.finish() {
        fails.add(e);
    }

    let attempted = i;
    let metrics = if opts.trace {
        let untraced_ns = log.total_ns;
        if let Err(e) = tr.write_csv(&opts.out_dir.join(format!("trace-{}.csv", opts.workload))) {
            eprintln!("could not write the span file: {e}");
        }
        layer_metrics(&tr, attempted, setups, traced_ns, untraced_ns)
    } else {
        let [p50, p90] = log.slot_quantiles();
        let values = [
            median(setup_s),
            log.ops_per_s(),
            p50 / 1e6,
            p90 / 1e6,
            peak_rss_mb,
        ];
        END_TO_END
            .iter()
            .zip(values)
            .map(|(&(name, unit), value)| Metric { name, value, unit })
            .collect()
    };
    Ok(Report {
        attempted,
        failed: fails.count,
        metrics,
        failures: fails.first,
    })
}

/// Derive every [`PER_LAYER`] metric from the recorded spans and counts.
fn layer_metrics(
    tr: &Tracer,
    ops: u64,
    setups: usize,
    traced_ns: u64,
    untraced_ns: u64,
) -> Vec<Metric> {
    let st = tr.self_times();
    let ops = ops.max(1) as f64;
    let setups = setups.max(1) as f64;
    let op_span = |span: &str| st.op_ns.get(span).copied().unwrap_or(0.0);
    let run_s = op_span("flitsim.run") / 1e9;
    PER_LAYER
        .iter()
        .map(|&(name, unit)| {
            let value = match name {
                "flitsim.events_per_s" if run_s > 0.0 => tr.counter("flitsim.events") / run_s,
                "flitsim.peak_heap_events" => {
                    tr.counter("flitsim.peak_heap_events") / tr.counter("flitsim.runs").max(1.0)
                }
                "unattributed_us" => (traced_ns as f64 - st.top_level_op_ns).max(0.0) / ops / 1e3,
                "trace.overhead_pct" if untraced_ns > 0 => {
                    (traced_ns as f64 / untraced_ns as f64 - 1.0) * 100.0
                }
                "trace.ops_per_s" if traced_ns > 0 => ops / (traced_ns as f64 / 1e9),
                "setup.topo.route_table_mb" => tr.counter(name) / setups,
                _ => {
                    if let Some(span) = name
                        .strip_prefix("setup.")
                        .and_then(|n| n.strip_suffix("_ms"))
                    {
                        st.setup_ns.get(span).copied().unwrap_or(0.0) / setups / 1e6
                    } else if let Some(span) = name.strip_suffix("_us") {
                        op_span(span) / ops / 1e3
                    } else {
                        tr.counter(name) / ops
                    }
                }
            };
            Metric { name, value, unit }
        })
        .collect()
}

/// Record the reference digests of every workload at [`REFERENCE_SEED`]
/// into `perfbench/references.txt` (and the recorded figure CSVs into
/// `perfbench/ref/`).
///
/// # Errors
/// On a failing op or an I/O error.
pub fn record_references(root: &std::path::Path, out_dir: &std::path::Path) -> Result<(), String> {
    let mut text = String::from(
        "# Reference outputs at seed 1997: <workload> <input id> <FNV-1a 64 of the\n\
         # canonical output>.  Regenerate with `perfbench --record-references`.\n",
    );
    for name in WORKLOADS {
        let opts = Options {
            workload: name.to_string(),
            seed: REFERENCE_SEED,
            seconds: 0.0,
            trace: false,
            root: root.to_path_buf(),
            out_dir: out_dir.to_path_buf(),
            refs: None,
        };
        let mut w = workload(&opts)?;
        w.setup(&mut Tracer::new(false))?;
        for (id, digest) in w.record()? {
            text.push_str(&format!("{name} {id} {digest:016x}\n"));
        }
    }
    let path = root.join("perfbench").join("references.txt");
    std::fs::write(&path, text).map_err(|e| format!("cannot write {}: {e}", path.display()))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn op_metrics_take_slot_medians() {
        let ms = 1_000_000u64;
        // Ten input slots costing 1..=10 ms, each run three times; one
        // repeat of slot 0 was slowed to 41 ms.  165 + 40 ms of op time
        // for 30 ops.
        let run = |slow: &[u64]| {
            let mut log = LatencyLog::new(10);
            for i in 0..30u64 {
                let slot = i % 10;
                let ns = if i == 0 {
                    41 * ms
                } else if slow.contains(&slot) {
                    50 * ms
                } else {
                    (slot + 1) * ms
                };
                log.record(i, ns);
            }
            log
        };
        let log = run(&[]);
        assert!((log.ops_per_s() - 30.0 / 0.205).abs() < 1e-9);
        assert_eq!(log.slot_quantiles(), [5e6, 9e6]);
        // Slowing every repeat of one input moves its median.
        assert_eq!(run(&[9]).slot_quantiles()[1], 9e6);
        assert_eq!(run(&[8, 9]).slot_quantiles()[1], 50e6);
        assert!(quantile(&[], 0.5).is_nan());
    }

    #[test]
    fn latency_log_keeps_evenly_spread_cycles() {
        // 200 cycles of two slots; op latency = its cycle (+1000 in slot 1).
        let mut log = LatencyLog::new(2);
        for i in 0..400u64 {
            log.record(i, i / 2 + 1000 * (i % 2));
        }
        // Cycles 0, 4, ..., 196 are kept; the lower median of those 50 is 96.
        assert_eq!((log.kept, log.stride), (50, 4));
        assert_eq!(log.slot_quantiles(), [96.0, 1096.0]);
        assert_eq!(log.ops, 400);
    }
}
