//! Shared harness for the figure/table regeneration binaries.
//!
//! Every binary prints a human-readable table to stdout and writes the same
//! series as CSV under `results/` (current directory), so EXPERIMENTS.md
//! rows can be checked against machine-readable data.

#![forbid(unsafe_code)]

use std::fmt::Write as _;
use std::time::Instant;

use flitsim::SimConfig;
use optmc::{experiments::run_trials, Algorithm};
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

// ---------------------------------------------------------------------------
// Engine-vitals benchmarking (RunMeta aggregation).

/// Aggregated engine vitals for one benchmark workload: several multicast
/// runs of the same shape, with each run's [`flitsim::RunMeta`] folded in.
#[derive(Debug, Clone)]
pub struct SimBenchRecord {
    /// Workload id ("big_mesh_32x32", ...).
    pub workload: String,
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
    /// Wall-clock nanoseconds of the whole workload, end to end: the
    /// simulator state's set-up, every multicast's planning, run and drop
    /// (non-deterministic).  Against `wall_ns` it shows what `run()` alone
    /// leaves out.
    pub e2e_ns: u64,
    /// Events per wall-clock second over the whole workload.
    pub events_per_sec: f64,
    /// Mean simulated multicast latency (cycles; deterministic).
    pub mean_latency: f64,
    /// Total simulated cycles across all runs (`SimResult::finish` summed;
    /// deterministic).
    pub sim_cycles: u64,
}

/// Run `runs` seeded placements of one multicast workload on one
/// [`flitsim::Sim`] and aggregate the engine vitals each
/// [`optmc::RunOutcome`] carries in `sim.meta`, with the workload's end-to-end
/// wall time.
#[allow(clippy::too_many_arguments)]
pub fn bench_workload(
    workload: &str,
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
    let mut rec = SimBenchRecord::empty(workload, topo, alg, runs);
    let mut latency_sum = 0u64;
    let start = Instant::now();
    let mut sim = flitsim::Sim::new(topo.graph());
    for t in 0..runs {
        let parts = optmc::random_placement(n, k, seed + t as u64);
        let out = optmc::run_multicast_on(&mut sim, topo, cfg, alg, &parts, parts[0], bytes);
        rec.add_run(&out.sim);
        latency_sum += out.latency;
    }
    drop(sim);
    rec.e2e_ns = start.elapsed().as_nanos().try_into().unwrap_or(u64::MAX);
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
        .map(|side| SimBenchRecord::empty(&format!("{side}{tag}"), topo, alg, runs));
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

impl SimBenchRecord {
    /// A record of `runs` runs of `alg` on `topo`, nothing folded in yet.
    fn empty(workload: &str, topo: &dyn Topology, alg: Algorithm, runs: usize) -> Self {
        SimBenchRecord {
            workload: workload.to_string(),
            algorithm: alg.display_name(topo),
            runs,
            events_processed: 0,
            events_scheduled: 0,
            peak_heap_events: 0,
            peak_heap_bytes: 0,
            wall_ns: 0,
            e2e_ns: 0,
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
}

/// Render the vitals table for a set of workload records: `run()` wall
/// time in total, and per multicast both `run()` alone and end to end
/// (`-` where a record was not timed end to end).
pub fn bench_table(records: &[SimBenchRecord]) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "{:<22} {:<10} {:>5} {:>12} {:>10} {:>12} {:>12} {:>12} {:>12}",
        "workload",
        "algorithm",
        "runs",
        "events",
        "peak-heap",
        "wall-ms",
        "run-us/mc",
        "e2e-us/mc",
        "events/sec"
    );
    for r in records {
        let per_mc = |ns: u64| ns as f64 / 1e3 / r.runs as f64;
        let e2e = if r.e2e_ns == 0 {
            "-".to_string()
        } else {
            format!("{:.1}", per_mc(r.e2e_ns))
        };
        let _ = writeln!(
            out,
            "{:<22} {:<10} {:>5} {:>12} {:>10} {:>12.2} {:>12.1} {:>12} {:>12.0}",
            r.workload,
            r.algorithm,
            r.runs,
            r.events_processed,
            r.peak_heap_events,
            r.wall_ns as f64 / 1e6,
            per_mc(r.wall_ns),
            e2e,
            r.events_per_sec,
        );
    }
    out
}

/// Enforce the counters-only observer's overhead ceiling: for every
/// `obs_null_<tag>` / `obs_counters_<tag>` record pair in `fresh`, the
/// counters throughput must be at least `min_ratio` x the Null one.
/// Both sides come from the same run, so only their ratio matters, not
/// the host's speed.
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
            algorithm: "opt".to_string(),
            runs: 2,
            events_processed: events_scheduled,
            events_scheduled,
            peak_heap_events: 10,
            peak_heap_bytes: 0,
            wall_ns,
            e2e_ns: 0,
            events_per_sec: 0.0,
            mean_latency: 123.5,
            sim_cycles: 50_000,
        }
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
            bench_observed_pair("t", &mesh, &cfg, Algorithm::OptArch, 12, 2048, 3, 7);
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
