//! Shared harness for the figure/table regeneration binaries.
//!
//! Every binary prints a human-readable table to stdout and writes the same
//! series as CSV under `results/` (current directory), so EXPERIMENTS.md
//! rows can be checked against machine-readable data.

#![forbid(unsafe_code)]

use std::fmt::Write as _;
use std::fs;
use std::path::Path;

use flitsim::SimConfig;
use optmc::{experiments::run_trials, run_concurrent, Algorithm, McastSpec, TrialStats};
use pcm::{MsgSize, Time};
use topo::Topology;

// The figure dataset types (and their `results/` writers) live in the
// `campaign` crate so the sequential figure binaries and the campaign
// aggregation pass share one writer; re-exported here for the binaries.
pub use campaign::{Figure, Series};

/// The paper's three mesh algorithms with their plot labels.
pub fn paper_algorithms(topo: &dyn Topology) -> Vec<(Algorithm, String)> {
    Algorithm::PAPER_SET
        .iter()
        .map(|&a| (a, a.display_name(topo)))
        .collect()
}

/// Sweep message sizes for a fixed participant count (Figure 2 layout).
#[allow(clippy::too_many_arguments)]
pub fn sweep_msg_size(
    topo: &dyn Topology,
    cfg: &SimConfig,
    k: usize,
    sizes: &[MsgSize],
    trials: usize,
    seed: u64,
) -> Vec<Series> {
    paper_algorithms(topo)
        .into_iter()
        .map(|(alg, label)| Series {
            label,
            points: sizes
                .iter()
                .map(|&m| {
                    let s = run_trials(topo, cfg, alg, k, m, trials, seed);
                    (m as f64, s.mean_latency)
                })
                .collect(),
        })
        .collect()
}

/// Sweep participant counts for a fixed message size (Figure 3 layout).
pub fn sweep_nodes(
    topo: &dyn Topology,
    cfg: &SimConfig,
    ks: &[usize],
    bytes: MsgSize,
    trials: usize,
    seed: u64,
) -> Vec<Series> {
    paper_algorithms(topo)
        .into_iter()
        .map(|(alg, label)| Series {
            label,
            points: ks
                .iter()
                .map(|&k| {
                    let s = run_trials(topo, cfg, alg, k, bytes, trials, seed);
                    (k as f64, s.mean_latency)
                })
                .collect(),
        })
        .collect()
}

/// Detailed per-point stats for contention analyses.
pub fn stats_point(
    topo: &dyn Topology,
    cfg: &SimConfig,
    alg: Algorithm,
    k: usize,
    bytes: MsgSize,
    trials: usize,
    seed: u64,
) -> TrialStats {
    run_trials(topo, cfg, alg, k, bytes, trials, seed)
}

// ---------------------------------------------------------------------------
// Engine-vitals benchmarking (RunMeta aggregation).

/// Aggregated engine vitals for one benchmark workload: several multicast
/// runs of the same shape, with each run's [`flitsim::RunMeta`] folded in.
#[derive(Debug, Clone)]
pub struct SimBenchRecord {
    /// Workload id ("fig2_mesh_4k", ...).
    pub workload: String,
    /// Human description (topology, k, bytes).
    pub detail: String,
    /// Algorithm display name.
    pub algorithm: String,
    /// Runs aggregated.
    pub runs: usize,
    /// Total model events processed across all runs (deterministic; see
    /// [`flitsim::RunMeta::events_processed`]).
    pub events_processed: u64,
    /// Total events scheduled (deterministic).
    pub events_scheduled: u64,
    /// Max event-queue depth seen in any run (deterministic).
    pub peak_heap_events: usize,
    /// Max estimated peak heap bytes in any run (deterministic).
    pub peak_heap_bytes: u64,
    /// Total wall-clock nanoseconds inside `Engine::run` (non-deterministic).
    pub wall_ns: u64,
    /// Events per wall-clock second over the whole workload.
    pub events_per_sec: f64,
    /// Mean simulated multicast latency (cycles; deterministic).
    pub mean_latency: f64,
    /// Total simulated cycles across all runs (`SimResult::finish` summed;
    /// deterministic).
    pub sim_cycles: u64,
}

/// Run `runs` seeded placements of one multicast workload and aggregate the
/// engine vitals each [`optmc::RunOutcome`] now carries in `sim.meta`.
#[allow(clippy::too_many_arguments)]
pub fn bench_workload(
    workload: &str,
    detail: &str,
    topo: &dyn Topology,
    cfg: &SimConfig,
    alg: Algorithm,
    k: usize,
    bytes: MsgSize,
    runs: usize,
    seed: u64,
) -> SimBenchRecord {
    assert!(runs >= 1);
    let n = topo.graph().n_nodes();
    let mut rec = SimBenchRecord::empty(workload, detail, topo, alg, runs);
    let mut latency_sum = 0u64;
    for t in 0..runs {
        let parts = optmc::random_placement(n, k, seed + t as u64);
        let out = optmc::run_multicast(topo, cfg, alg, &parts, parts[0], bytes);
        rec.add_run(&out.sim);
        latency_sum += out.latency;
    }
    rec.finish(latency_sum, runs);
    rec
}

/// Timed repeats of each placement on each side of
/// [`bench_observed_pair`].
const OBS_REPEATS: usize = 9;

/// The observer-overhead pair: [`bench_workload`] under the default Null
/// observer and under the counters-only [`flitsim::TraceSink`] (per-event
/// tallies, slot reuse intact), returned as the `obs_null_{tag}` and
/// `obs_counters_{tag}` records; [`observer_overhead_failures`] compares
/// their throughput.  The two sides run interleaved on the same
/// placement, alternating which goes first, so a slow phase of the host
/// lands on both.  Each placement runs [`OBS_REPEATS`] times per side and
/// counts its fastest run: one run takes about 50 µs, so a single
/// preemption would otherwise move a side's total by several percent.
/// The deterministic fields are the same in every repeat.
#[allow(clippy::too_many_arguments)]
pub fn bench_observed_pair(
    tag: &str,
    detail: &str,
    topo: &dyn Topology,
    cfg: &SimConfig,
    alg: Algorithm,
    k: usize,
    bytes: MsgSize,
    runs: usize,
    seed: u64,
) -> [SimBenchRecord; 2] {
    assert!(runs >= 1);
    let n = topo.graph().n_nodes();
    let mut recs = ["obs_null_", "obs_counters_"]
        .map(|side| SimBenchRecord::empty(&format!("{side}{tag}"), detail, topo, alg, runs));
    let mut latency_sums = [0u64; 2];
    let opts = optmc::RunOptions::default();
    for t in 0..runs {
        let parts = optmc::random_placement(n, k, seed + t as u64);
        let mut fastest: [Option<optmc::RunOutcome>; 2] = [None, None];
        for repeat in 0..OBS_REPEATS {
            let order = if (t + repeat) % 2 == 0 {
                [0, 1]
            } else {
                [1, 0]
            };
            for side in order {
                let sink = (side == 1).then(flitsim::TraceSink::counters);
                let out = optmc::run_multicast_observed(
                    topo, cfg, alg, &parts, parts[0], bytes, &opts, sink,
                );
                if fastest[side]
                    .as_ref()
                    .is_none_or(|f| out.sim.meta.wall_ns < f.sim.meta.wall_ns)
                {
                    fastest[side] = Some(out);
                }
            }
        }
        for (side, out) in fastest.into_iter().enumerate() {
            let out = out.expect("at least one repeat");
            recs[side].add_run(&out.sim);
            latency_sums[side] += out.latency;
        }
    }
    for (rec, latency_sum) in recs.iter_mut().zip(latency_sums) {
        rec.finish(latency_sum, runs);
    }
    recs
}

/// Run `runs` seeded rounds of a `ways`-way concurrent multicast workload
/// (disjoint participant sets carved from one sampled placement, arrival
/// times staggered `stagger` cycles apart) and aggregate the joint run's
/// engine vitals.  The staggering pushes far-future events through the
/// engine's overflow path, which the closed figure workloads never exercise.
#[allow(clippy::too_many_arguments)]
pub fn bench_concurrent(
    workload: &str,
    detail: &str,
    topo: &dyn Topology,
    cfg: &SimConfig,
    alg: Algorithm,
    ways: usize,
    k: usize,
    bytes: MsgSize,
    stagger: Time,
    runs: usize,
    seed: u64,
) -> SimBenchRecord {
    assert!(runs >= 1 && ways >= 1 && k >= 2);
    let n = topo.graph().n_nodes();
    let mut rec = SimBenchRecord::empty(workload, detail, topo, alg, runs);
    let mut latency_sum = 0u64;
    for t in 0..runs {
        let placement = optmc::random_placement(n, ways * k, seed + t as u64);
        let specs: Vec<McastSpec> = placement
            .chunks(k)
            .enumerate()
            .map(|(i, chunk)| McastSpec {
                participants: chunk.to_vec(),
                src: chunk[0],
                bytes,
                start: stagger * i as Time,
            })
            .collect();
        let (outcomes, sim) = run_concurrent(topo, cfg, alg, &specs);
        rec.add_run(&sim);
        latency_sum += outcomes.iter().map(|o| o.latency).sum::<Time>();
    }
    rec.finish(latency_sum, runs * ways);
    rec
}

impl SimBenchRecord {
    /// A record of `runs` runs of `alg` on `topo`, nothing folded in yet.
    fn empty(
        workload: &str,
        detail: &str,
        topo: &dyn Topology,
        alg: Algorithm,
        runs: usize,
    ) -> Self {
        SimBenchRecord {
            workload: workload.to_string(),
            detail: detail.to_string(),
            algorithm: alg.display_name(topo),
            runs,
            events_processed: 0,
            events_scheduled: 0,
            peak_heap_events: 0,
            peak_heap_bytes: 0,
            wall_ns: 0,
            events_per_sec: 0.0,
            mean_latency: 0.0,
            sim_cycles: 0,
        }
    }

    /// Fold one run's vitals in.
    fn add_run(&mut self, sim: &flitsim::SimResult) {
        let m = &sim.meta;
        self.events_processed += m.events_processed;
        self.events_scheduled += m.events_scheduled;
        self.peak_heap_events = self.peak_heap_events.max(m.peak_heap_events);
        self.peak_heap_bytes = self.peak_heap_bytes.max(m.peak_heap_bytes);
        self.wall_ns += m.wall_ns;
        self.sim_cycles += sim.finish;
    }

    /// Set the mean over `samples` multicast latencies summing to
    /// `latency_sum`, and the throughput over every run folded in.
    fn finish(&mut self, latency_sum: Time, samples: usize) {
        self.mean_latency = latency_sum as f64 / samples as f64;
        if self.wall_ns > 0 {
            self.events_per_sec = self.events_processed as f64 * 1e9 / self.wall_ns as f64;
        }
    }

    /// The machine-readable form shared by `results/bench_sim.json` and the
    /// repo-root `BENCH_sim.json`.
    pub fn to_json(&self) -> serde_json::Value {
        serde_json::json!({
            "workload": self.workload,
            "detail": self.detail,
            "algorithm": self.algorithm,
            "runs": self.runs,
            "events_processed": self.events_processed,
            "events_scheduled": self.events_scheduled,
            "peak_heap_events": self.peak_heap_events,
            "peak_heap_bytes": self.peak_heap_bytes,
            "wall_ns": self.wall_ns,
            "events_per_sec": self.events_per_sec,
            "mean_latency": self.mean_latency,
            "sim_cycles": self.sim_cycles,
        })
    }
}

/// Render the vitals table for a set of workload records.
pub fn bench_table(records: &[SimBenchRecord]) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "{:<22} {:<10} {:>5} {:>12} {:>10} {:>12} {:>12}",
        "workload", "algorithm", "runs", "events", "peak-heap", "wall-ms", "events/sec"
    );
    for r in records {
        let _ = writeln!(
            out,
            "{:<22} {:<10} {:>5} {:>12} {:>10} {:>12.2} {:>12.0}",
            r.workload,
            r.algorithm,
            r.runs,
            r.events_processed,
            r.peak_heap_events,
            r.wall_ns as f64 / 1e6,
            r.events_per_sec,
        );
    }
    out
}

/// Write `results/bench_sim.json` (per-workload records) and the repo-root
/// `BENCH_sim.json` (records + totals + the generating seed, so `--check`
/// can re-run the exact committed workloads) and return both paths.
pub fn write_bench_sim(
    records: &[SimBenchRecord],
    seed: u64,
) -> std::io::Result<(std::path::PathBuf, std::path::PathBuf)> {
    let dir = Path::new("results");
    fs::create_dir_all(dir)?;
    let entries: Vec<_> = records.iter().map(SimBenchRecord::to_json).collect();
    let detail_path = dir.join("bench_sim.json");
    fs::write(
        &detail_path,
        serde_json::to_string_pretty(&serde_json::json!({
            "benchmark": "engine vitals (RunMeta) per figure workload",
            "seed": seed,
            "records": entries.clone(),
        }))?,
    )?;

    let total_events: u64 = records.iter().map(|r| r.events_processed).sum();
    let total_wall: u64 = records.iter().map(|r| r.wall_ns).sum();
    let overall = if total_wall > 0 {
        total_events as f64 * 1e9 / total_wall as f64
    } else {
        0.0
    };
    // Like-for-like throughput over just the paper figure workloads
    // (`fig*` ids) — comparable across baselines even as stress workloads
    // are added to the suite.
    let paper: Vec<_> = records
        .iter()
        .filter(|r| r.workload.starts_with("fig"))
        .collect();
    let paper_events: u64 = paper.iter().map(|r| r.events_processed).sum();
    let paper_wall: u64 = paper.iter().map(|r| r.wall_ns).sum();
    let paper_overall = if paper_wall > 0 {
        paper_events as f64 * 1e9 / paper_wall as f64
    } else {
        0.0
    };
    let root_path = std::path::PathBuf::from("BENCH_sim.json");
    fs::write(
        &root_path,
        serde_json::to_string_pretty(&serde_json::json!({
            "benchmark": "flit-level engine throughput over the paper's figure workloads",
            "seed": seed,
            "total_events_processed": total_events,
            "total_wall_ns": total_wall,
            "overall_events_per_sec": overall,
            "paper_overall_events_per_sec": paper_overall,
            "records": entries,
        }))?,
    )?;
    Ok((detail_path, root_path))
}

// ---------------------------------------------------------------------------
// Regression checking against a committed BENCH_sim.json.

/// The deterministic sentinels of one committed benchmark record.
#[derive(Debug, Clone, PartialEq)]
pub struct CommittedRecord {
    /// Workload id (matched against fresh records).
    pub workload: String,
    /// Algorithm display name (second half of the match key).
    pub algorithm: String,
    /// Runs the committed record aggregated — the check re-runs with the
    /// same count so event totals are comparable.
    pub runs: usize,
    /// Exact-match determinism sentinel.
    pub events_scheduled: u64,
    /// Exact-match determinism sentinel.
    pub peak_heap_events: usize,
    /// Exact-match determinism sentinel (f64 round-trips bit-exactly
    /// through the JSON writer).
    pub mean_latency: f64,
    /// Exact-match determinism sentinel: total simulated cycles.
    pub sim_cycles: u64,
}

/// A parsed committed `BENCH_sim.json`.
#[derive(Debug, Clone)]
pub struct CommittedBench {
    /// Seed the committed records were generated with.
    pub seed: u64,
    /// Committed overall throughput (the perf-regression baseline).
    pub overall_events_per_sec: f64,
    /// Per-workload records.
    pub records: Vec<CommittedRecord>,
}

/// Parse a committed `BENCH_sim.json`.  Files written before the `seed`
/// field (or the `sim_cycles` sentinel) existed are rejected — regenerate
/// the baseline first.
pub fn parse_bench_file(text: &str) -> Result<CommittedBench, String> {
    let v: serde_json::Value = serde_json::from_str(text).map_err(|e| format!("bad JSON: {e}"))?;
    let field = |obj: &serde_json::Value, key: &str| -> Result<serde_json::Value, String> {
        obj.get(key)
            .cloned()
            .ok_or_else(|| format!("missing `{key}`"))
    };
    let seed = field(&v, "seed")?
        .as_u64()
        .ok_or("`seed` is not an integer")?;
    let overall = field(&v, "overall_events_per_sec")?
        .as_f64()
        .ok_or("`overall_events_per_sec` is not a number")?;
    let mut records = Vec::new();
    for rec in field(&v, "records")?
        .as_array()
        .ok_or("`records` not an array")?
    {
        records.push(CommittedRecord {
            workload: field(rec, "workload")?
                .as_str()
                .ok_or("`workload` not a string")?
                .to_string(),
            algorithm: field(rec, "algorithm")?
                .as_str()
                .ok_or("`algorithm` not a string")?
                .to_string(),
            runs: field(rec, "runs")?
                .as_u64()
                .ok_or("`runs` not an integer")? as usize,
            events_scheduled: field(rec, "events_scheduled")?
                .as_u64()
                .ok_or("`events_scheduled` not an integer")?,
            peak_heap_events: field(rec, "peak_heap_events")?
                .as_u64()
                .ok_or("`peak_heap_events` not an integer")? as usize,
            mean_latency: field(rec, "mean_latency")?
                .as_f64()
                .ok_or("`mean_latency` not a number")?,
            sim_cycles: field(rec, "sim_cycles")?
                .as_u64()
                .ok_or("`sim_cycles` not an integer")?,
        });
    }
    if records.is_empty() {
        return Err("no records".into());
    }
    Ok(CommittedBench {
        seed,
        overall_events_per_sec: overall,
        records,
    })
}

/// Compare freshly-run records against a committed baseline.  Returns the
/// list of failures (empty = pass): the deterministic sentinels
/// (`events_scheduled`, `peak_heap_events`, `mean_latency`) must match
/// **exactly** — any drift means simulation results changed, not just
/// performance — and the fresh overall throughput must be at least
/// `min_throughput_ratio` × the committed one.
pub fn compare_bench(
    committed: &CommittedBench,
    fresh: &[SimBenchRecord],
    min_throughput_ratio: f64,
) -> Vec<String> {
    let mut failures = Vec::new();
    let mut matched_events = 0u64;
    let mut matched_wall = 0u64;
    for c in &committed.records {
        let Some(f) = fresh
            .iter()
            .find(|f| f.workload == c.workload && f.algorithm == c.algorithm)
        else {
            failures.push(format!(
                "{} [{}]: workload missing from fresh run",
                c.workload, c.algorithm
            ));
            continue;
        };
        matched_events += f.events_processed;
        matched_wall += f.wall_ns;
        if f.runs != c.runs {
            failures.push(format!(
                "{} [{}]: run count {} != committed {}",
                c.workload, c.algorithm, f.runs, c.runs
            ));
            continue;
        }
        if f.events_scheduled != c.events_scheduled {
            failures.push(format!(
                "{} [{}]: events_scheduled {} != committed {} (determinism sentinel)",
                c.workload, c.algorithm, f.events_scheduled, c.events_scheduled
            ));
        }
        if f.peak_heap_events != c.peak_heap_events {
            failures.push(format!(
                "{} [{}]: peak_heap_events {} != committed {} (determinism sentinel)",
                c.workload, c.algorithm, f.peak_heap_events, c.peak_heap_events
            ));
        }
        if f.mean_latency.to_bits() != c.mean_latency.to_bits() {
            failures.push(format!(
                "{} [{}]: mean_latency {} != committed {} (determinism sentinel)",
                c.workload, c.algorithm, f.mean_latency, c.mean_latency
            ));
        }
        if f.sim_cycles != c.sim_cycles {
            failures.push(format!(
                "{} [{}]: sim_cycles {} != committed {} (determinism sentinel)",
                c.workload, c.algorithm, f.sim_cycles, c.sim_cycles
            ));
        }
    }
    if matched_wall > 0 && committed.overall_events_per_sec > 0.0 {
        let fresh_overall = matched_events as f64 * 1e9 / matched_wall as f64;
        let floor = committed.overall_events_per_sec * min_throughput_ratio;
        if fresh_overall < floor {
            failures.push(format!(
                "overall throughput {fresh_overall:.0} events/sec below floor {floor:.0} \
                 ({min_throughput_ratio:.2}x committed {:.0})",
                committed.overall_events_per_sec
            ));
        }
    }
    failures
}

/// Enforce the counters-only observer's overhead ceiling: for every
/// `obs_null_<tag>` / `obs_counters_<tag>` record pair in `fresh`, the
/// counters throughput must be at least `min_ratio` x the Null one.
/// Both sides come from the same fresh run, so the committed baseline's
/// wall-clock never enters the comparison.
pub fn observer_overhead_failures(fresh: &[SimBenchRecord], min_ratio: f64) -> Vec<String> {
    let mut failures = Vec::new();
    for null in fresh.iter().filter(|r| r.workload.starts_with("obs_null_")) {
        let tag = &null.workload["obs_null_".len()..];
        let counters_id = format!("obs_counters_{tag}");
        let Some(counters) = fresh
            .iter()
            .find(|r| r.workload == counters_id && r.algorithm == null.algorithm)
        else {
            failures.push(format!(
                "{counters_id}: counters half of the observer pair is missing"
            ));
            continue;
        };
        if null.events_per_sec <= 0.0 {
            continue;
        }
        let ratio = counters.events_per_sec / null.events_per_sec;
        if ratio < min_ratio {
            failures.push(format!(
                "{counters_id} [{}]: counters-only observer at {:.1}% of NullObserver \
                 throughput ({:.0} vs {:.0} events/sec, floor {:.0}%)",
                counters.algorithm,
                100.0 * ratio,
                counters.events_per_sec,
                null.events_per_sec,
                100.0 * min_ratio,
            ));
        }
    }
    failures
}

/// Minimal `--flag value` argument lookup.
pub fn arg_value(args: &[String], flag: &str) -> Option<String> {
    args.iter()
        .position(|a| a == flag)
        .and_then(|i| args.get(i + 1).cloned())
}

/// Is a bare `--flag` present?
pub fn arg_present(args: &[String], flag: &str) -> bool {
    args.iter().any(|a| a == flag)
}

/// The paper's trial count (§5: 16 random placements per point).
pub const PAPER_TRIALS: usize = 16;

#[cfg(test)]
mod tests {
    use super::*;

    fn fresh(workload: &str, events_scheduled: u64, wall_ns: u64) -> SimBenchRecord {
        SimBenchRecord {
            workload: workload.to_string(),
            detail: String::new(),
            algorithm: "opt".to_string(),
            runs: 2,
            events_processed: events_scheduled,
            events_scheduled,
            peak_heap_events: 10,
            peak_heap_bytes: 0,
            wall_ns,
            events_per_sec: 0.0,
            mean_latency: 123.5,
            sim_cycles: 50_000,
        }
    }

    fn committed(records: Vec<CommittedRecord>, overall: f64) -> CommittedBench {
        CommittedBench {
            seed: 1997,
            overall_events_per_sec: overall,
            records,
        }
    }

    fn committed_of(f: &SimBenchRecord) -> CommittedRecord {
        CommittedRecord {
            workload: f.workload.clone(),
            algorithm: f.algorithm.clone(),
            runs: f.runs,
            events_scheduled: f.events_scheduled,
            peak_heap_events: f.peak_heap_events,
            mean_latency: f.mean_latency,
            sim_cycles: f.sim_cycles,
        }
    }

    #[test]
    fn compare_passes_on_identical_sentinels_and_equal_throughput() {
        let f = vec![fresh("a", 1000, 1000), fresh("b", 2000, 1000)];
        let c = committed(f.iter().map(committed_of).collect(), 3000.0 * 1e9 / 2000.0);
        assert_eq!(compare_bench(&c, &f, 0.75), Vec::<String>::new());
    }

    #[test]
    fn compare_flags_sentinel_drift_exactly() {
        let f = vec![fresh("a", 1000, 1000)];
        let mut c = committed(f.iter().map(committed_of).collect(), 0.0);
        c.records[0].events_scheduled += 1;
        c.records[0].mean_latency += 0.5;
        c.records[0].sim_cycles += 1;
        let fails = compare_bench(&c, &f, 0.75);
        assert_eq!(fails.len(), 3, "{fails:?}");
        assert!(fails[0].contains("events_scheduled"));
        assert!(fails[1].contains("mean_latency"));
        assert!(fails[2].contains("sim_cycles"));
    }

    #[test]
    fn compare_flags_missing_workload_and_throughput_floor() {
        let f = vec![fresh("a", 1000, 1_000_000)];
        let mut recs: Vec<CommittedRecord> = f.iter().map(committed_of).collect();
        recs.push(CommittedRecord {
            workload: "gone".to_string(),
            algorithm: "opt".to_string(),
            runs: 2,
            events_scheduled: 1,
            peak_heap_events: 1,
            mean_latency: 0.0,
            sim_cycles: 1,
        });
        // Committed overall is 10x what the fresh records achieve.
        let fresh_overall = 1000.0 * 1e9 / 1_000_000.0;
        let c = committed(recs, fresh_overall * 10.0);
        let fails = compare_bench(&c, &f, 0.75);
        assert_eq!(fails.len(), 2, "{fails:?}");
        assert!(fails[0].contains("missing"));
        assert!(fails[1].contains("below floor"));
    }

    #[test]
    fn parse_bench_file_round_trips_written_records() {
        let recs = vec![fresh("a", 1000, 1000), fresh("b", 2000, 3000)];
        let entries: Vec<_> = recs.iter().map(SimBenchRecord::to_json).collect();
        let text = serde_json::to_string_pretty(&serde_json::json!({
            "seed": 42u64,
            "overall_events_per_sec": 1234.5,
            "records": entries,
        }))
        .unwrap();
        let parsed = parse_bench_file(&text).unwrap();
        assert_eq!(parsed.seed, 42);
        assert_eq!(parsed.overall_events_per_sec.to_bits(), 1234.5f64.to_bits());
        assert_eq!(
            parsed.records,
            recs.iter().map(committed_of).collect::<Vec<_>>()
        );
        // A matching fresh set passes with no failures.
        assert_eq!(compare_bench(&parsed, &recs, 0.0), Vec::<String>::new());
    }

    #[test]
    fn parse_bench_file_rejects_seedless_baselines() {
        let err = parse_bench_file(r#"{"records": []}"#).unwrap_err();
        assert!(err.contains("seed"), "{err}");
    }

    #[test]
    fn observer_overhead_pairs_are_enforced() {
        let mut null = fresh("obs_null_mesh16", 10_000, 1_000_000);
        null.events_per_sec = 1000.0;
        let mut counters = fresh("obs_counters_mesh16", 10_000, 1_000_000);
        counters.events_per_sec = 960.0;
        let records = vec![null.clone(), counters.clone()];
        assert_eq!(
            observer_overhead_failures(&records, 0.95),
            Vec::<String>::new()
        );
        // Dropping below the floor fails with a diagnostic.
        let mut slow = counters.clone();
        slow.events_per_sec = 900.0;
        let fails = observer_overhead_failures(&[null.clone(), slow], 0.95);
        assert_eq!(fails.len(), 1, "{fails:?}");
        assert!(fails[0].contains("90.0% of NullObserver"), "{fails:?}");
        // A missing counters half is itself a failure.
        let fails = observer_overhead_failures(&[null], 0.95);
        assert_eq!(fails.len(), 1, "{fails:?}");
        assert!(fails[0].contains("missing"), "{fails:?}");
    }

    #[test]
    fn observed_bench_matches_unobserved_sentinels() {
        let mesh = topo::Mesh::new(&[8, 8]);
        let cfg = SimConfig::paragon_like();
        let [null, counters] =
            bench_observed_pair("t", "", &mesh, &cfg, Algorithm::OptArch, 12, 2048, 3, 7);
        assert_eq!(null.workload, "obs_null_t");
        assert_eq!(counters.workload, "obs_counters_t");
        // Observation must not perturb the simulation: every deterministic
        // sentinel is identical across the pair.
        assert_eq!(null.events_scheduled, counters.events_scheduled);
        assert_eq!(null.events_processed, counters.events_processed);
        assert_eq!(null.peak_heap_events, counters.peak_heap_events);
        assert_eq!(null.mean_latency.to_bits(), counters.mean_latency.to_bits());
        // Counters keep worm-slab slot reuse, so peak heap bytes agree too.
        assert_eq!(null.peak_heap_bytes, counters.peak_heap_bytes);
    }

    #[test]
    fn arg_parsing() {
        let args: Vec<String> = ["--nodes", "128", "--fast"]
            .iter()
            .map(std::string::ToString::to_string)
            .collect();
        assert_eq!(arg_value(&args, "--nodes").as_deref(), Some("128"));
        assert_eq!(arg_value(&args, "--seed"), None);
        assert!(arg_present(&args, "--fast"));
        assert!(!arg_present(&args, "--slow"));
    }
}
