//! Planning-service throughput benchmark: drive the sans-io [`plansvc`]
//! engine with repeat-round request workloads (distinct keys × repeats, so
//! every workload mixes cold misses with warm hits) and record plans/sec,
//! hit/miss wall-latency log2-histogram summaries, and the cache-economics
//! counters.
//!
//! Writes `results/bench_plan.json` plus the repo-root `BENCH_plan.json`
//! (records + totals), alongside `BENCH_sim.json`, so plan-path
//! regressions show up in review diffs.
//!
//! ```text
//! cargo run --release -p optmc-bench --bin bench_plan
//! cargo run --release -p optmc-bench --bin bench_plan -- --check BENCH_plan.json
//! ```
//!
//! `--check` re-runs every workload recorded in the committed file and
//! requires the deterministic sentinels to match **exactly**: request /
//! hit / miss / DP-run / eviction counts and the FNV fingerprint of the
//! concatenated response bytes (any drift means the service answered
//! differently, not just slower).  It fails if overall throughput drops
//! below 75% of the committed figure, or if any workload's mean warm-hit
//! latency exceeds twice its committed `hit_latency.mean_ns`.

use std::process::ExitCode;
use std::time::Instant;

use campaign::key::fingerprint;
use optmc_bench::arg_value;
use plansvc::{step_blocking, Engine, EngineConfig, PlanOptions};
use telem::Histogram;

/// Throughput floor for `--check`, as a fraction of committed plans/sec.
const MIN_THROUGHPUT_RATIO: f64 = 0.75;

/// Hit-latency ceiling for `--check`, as a multiple of each workload's
/// committed mean hit latency.  A ceiling on hits, not a hit/miss ratio:
/// a ratio fails when misses get faster.  Hit means on a 2-core host
/// vary by up to 1.7x between runs of one binary, hence 2x rather than
/// the throughput floor's 1/0.75.
const MAX_HIT_LATENCY_RATIO: f64 = 2.0;

/// One benchmark workload: `distinct` request lines, each issued
/// `repeats` times round-robin, against a `capacity`-plan cache.
struct Workload {
    id: &'static str,
    detail: &'static str,
    capacity: usize,
    certify: bool,
    distinct: usize,
    repeats: usize,
    line: fn(usize) -> String,
}

const WORKLOADS: &[Workload] = &[
    Workload {
        id: "mesh16_32n_16k",
        detail: "16x16 mesh, 32 nodes, 16 KB, 32 placements x 8",
        capacity: 256,
        certify: false,
        distinct: 32,
        repeats: 8,
        line: |i| format!(r#"{{"topo": "mesh:16x16", "k": 32, "seed": {i}, "bytes": 16384}}"#),
    },
    Workload {
        id: "bmin512_32n_4k",
        detail: "512-node BMIN, 32 nodes, 4 KB, 32 placements x 8",
        capacity: 256,
        certify: false,
        distinct: 32,
        repeats: 8,
        line: |i| format!(r#"{{"topo": "bmin:512", "k": 32, "seed": {i}, "bytes": 4096}}"#),
    },
    Workload {
        id: "mesh8_certified",
        detail: "8x8 mesh, 8 nodes, 2 KB, verified certificates, 8 placements x 8",
        capacity: 64,
        certify: true,
        distinct: 8,
        repeats: 8,
        line: |i| format!(r#"{{"topo": "mesh:8x8", "k": 8, "seed": {i}, "bytes": 2048}}"#),
    },
    Workload {
        id: "evicting_mix",
        detail: "mesh:8x8 + bmin:64 mix, 48 keys through a 32-plan cache",
        capacity: 32,
        certify: false,
        distinct: 48,
        repeats: 6,
        line: |i| {
            let topo = if i % 2 == 0 { "mesh:8x8" } else { "bmin:64" };
            let k = 3 + (i % 6);
            format!(r#"{{"topo": "{topo}", "k": {k}, "seed": {i}, "bytes": 1024}}"#)
        },
    },
];

/// Measured results for one workload.
struct PlanBenchRecord {
    id: String,
    detail: String,
    // Deterministic sentinels.
    requests: u64,
    distinct: u64,
    hits: u64,
    misses: u64,
    dp_runs: u64,
    evictions: u64,
    response_fingerprint: u64,
    // Performance (wall-clock; floor-checked, never exact-matched).
    wall_ns: u64,
    plans_per_sec: f64,
    hit_ns: Histogram,
    miss_ns: Histogram,
}

impl PlanBenchRecord {
    fn hit_speedup(&self) -> f64 {
        let hit = self.hit_ns.mean();
        if hit > 0.0 {
            self.miss_ns.mean() / hit
        } else {
            0.0
        }
    }

    fn to_json(&self) -> serde_json::Value {
        let hist = |h: &Histogram| {
            serde_json::json!({
                "count": h.count,
                "mean_ns": h.mean(),
                "p50_ns": h.p50().unwrap_or(0),
                "p95_ns": h.p95().unwrap_or(0),
                "max_ns": h.max,
            })
        };
        serde_json::json!({
            "workload": self.id,
            "detail": self.detail,
            "requests": self.requests,
            "distinct": self.distinct,
            "hits": self.hits,
            "misses": self.misses,
            "dp_runs": self.dp_runs,
            "evictions": self.evictions,
            "response_fingerprint": self.response_fingerprint,
            "wall_ns": self.wall_ns,
            "plans_per_sec": self.plans_per_sec,
            "hit_latency": hist(&self.hit_ns),
            "miss_latency": hist(&self.miss_ns),
            "hit_speedup": self.hit_speedup(),
        })
    }
}

/// Run one workload: rounds of the distinct request lines, the first round
/// all cold, later rounds warm (or re-missing, when `capacity` is below
/// `distinct` — the eviction workload).  Responses are folded into an FNV
/// fingerprint so byte-level determinism is checkable without committing
/// megabytes of plans.
fn run_workload(w: &Workload) -> PlanBenchRecord {
    let mut engine = Engine::new(EngineConfig {
        capacity: w.capacity,
    });
    let opts = PlanOptions { certify: w.certify };
    let mut hit_ns = Histogram::new();
    let mut miss_ns = Histogram::new();
    let mut responses = String::new();
    let mut id = 0u64;
    let started = Instant::now();
    for _round in 0..w.repeats {
        for i in 0..w.distinct {
            id += 1;
            let line = (w.line)(i);
            let before = engine.stats();
            let req_started = Instant::now();
            let answered = step_blocking(&mut engine, id, &line, &opts);
            let elapsed = u64::try_from(req_started.elapsed().as_nanos()).unwrap_or(u64::MAX);
            let after = engine.stats();
            if after.hits > before.hits {
                hit_ns.record(elapsed);
            } else if after.misses > before.misses {
                miss_ns.record(elapsed);
            }
            for (_, text) in answered {
                responses.push_str(&text);
                responses.push('\n');
            }
        }
    }
    let wall_ns = u64::try_from(started.elapsed().as_nanos()).unwrap_or(u64::MAX);
    let stats = engine.stats();
    assert_eq!(
        stats.errors, 0,
        "{}: benchmark requests must be valid",
        w.id
    );
    PlanBenchRecord {
        id: w.id.to_string(),
        detail: w.detail.to_string(),
        requests: stats.requests,
        distinct: w.distinct as u64,
        hits: stats.hits,
        misses: stats.misses,
        dp_runs: stats.dp_runs,
        evictions: stats.evictions,
        response_fingerprint: fingerprint(&responses),
        wall_ns,
        plans_per_sec: if wall_ns > 0 {
            stats.requests as f64 * 1e9 / wall_ns as f64
        } else {
            0.0
        },
        hit_ns,
        miss_ns,
    }
}

fn table(records: &[PlanBenchRecord]) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    let _ = writeln!(
        out,
        "{:<16} {:>8} {:>6} {:>6} {:>8} {:>11} {:>12} {:>12} {:>9}",
        "workload",
        "requests",
        "hits",
        "misses",
        "evicted",
        "plans/sec",
        "hit-mean-us",
        "miss-mean-us",
        "speedup"
    );
    for r in records {
        let _ = writeln!(
            out,
            "{:<16} {:>8} {:>6} {:>6} {:>8} {:>11.0} {:>12.1} {:>12.1} {:>8.0}x",
            r.id,
            r.requests,
            r.hits,
            r.misses,
            r.evictions,
            r.plans_per_sec,
            r.hit_ns.mean() / 1e3,
            r.miss_ns.mean() / 1e3,
            r.hit_speedup(),
        );
    }
    out
}

fn overall_plans_per_sec(records: &[PlanBenchRecord]) -> f64 {
    let requests: u64 = records.iter().map(|r| r.requests).sum();
    let wall: u64 = records.iter().map(|r| r.wall_ns).sum();
    if wall > 0 {
        requests as f64 * 1e9 / wall as f64
    } else {
        0.0
    }
}

/// The hit-latency ceiling for one workload against its committed
/// record.  Skipped when the workload has no hits (the eviction mix).
fn hit_latency_failure(fresh: &PlanBenchRecord, committed: &serde_json::Value) -> Option<String> {
    if fresh.hit_ns.count == 0 {
        return None;
    }
    let Some(committed_mean) = committed
        .get("hit_latency")
        .and_then(|h| h.get("mean_ns"))
        .and_then(serde_json::Value::as_f64)
    else {
        return Some(format!(
            "{}: committed record lacks `hit_latency.mean_ns`",
            fresh.id
        ));
    };
    let ceiling = committed_mean * MAX_HIT_LATENCY_RATIO;
    let mean = fresh.hit_ns.mean();
    (mean > ceiling).then(|| {
        format!(
            "{}: mean hit latency {:.1}us above ceiling {:.1}us ({MAX_HIT_LATENCY_RATIO}x committed {:.1}us)",
            fresh.id,
            mean / 1e3,
            ceiling / 1e3,
            committed_mean / 1e3,
        )
    })
}

fn write_files(records: &[PlanBenchRecord]) -> std::io::Result<()> {
    let entries: Vec<_> = records.iter().map(PlanBenchRecord::to_json).collect();
    std::fs::create_dir_all("results")?;
    std::fs::write(
        "results/bench_plan.json",
        serde_json::to_string_pretty(&serde_json::json!({
            "benchmark": "plansvc engine throughput per request workload",
            "records": entries.clone(),
        }))?,
    )?;
    std::fs::write(
        "BENCH_plan.json",
        serde_json::to_string_pretty(&serde_json::json!({
            "benchmark": "multicast-planning service throughput (plan cache + OPT DP)",
            "overall_plans_per_sec": overall_plans_per_sec(records),
            "records": entries,
        }))?,
    )?;
    Ok(())
}

fn check(path: &str) -> ExitCode {
    let text = match std::fs::read_to_string(path) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("bench_plan check: cannot read {path}: {e}");
            return ExitCode::FAILURE;
        }
    };
    let committed: serde_json::Value = match serde_json::from_str(&text) {
        Ok(v) => v,
        Err(e) => {
            eprintln!("bench_plan check: cannot parse {path}: {e}");
            return ExitCode::FAILURE;
        }
    };
    let records: Vec<PlanBenchRecord> = WORKLOADS.iter().map(run_workload).collect();
    print!("{}", table(&records));
    let mut failures = Vec::new();

    let committed_records = committed
        .get("records")
        .and_then(|r| r.as_array().map(<[serde_json::Value]>::to_vec))
        .unwrap_or_default();
    if committed_records.is_empty() {
        failures.push(format!("{path}: no committed records"));
    }
    for c in &committed_records {
        let Some(id) = c.get("workload").and_then(|v| v.as_str()) else {
            failures.push("committed record without a workload id".to_string());
            continue;
        };
        let Some(fresh) = records.iter().find(|r| r.id == id) else {
            failures.push(format!("{id}: workload missing from this binary"));
            continue;
        };
        let sentinels: [(&str, u64); 7] = [
            ("requests", fresh.requests),
            ("distinct", fresh.distinct),
            ("hits", fresh.hits),
            ("misses", fresh.misses),
            ("dp_runs", fresh.dp_runs),
            ("evictions", fresh.evictions),
            ("response_fingerprint", fresh.response_fingerprint),
        ];
        for (key, fresh_value) in sentinels {
            match c.get(key).and_then(serde_json::Value::as_u64) {
                Some(want) if want == fresh_value => {}
                Some(want) => failures.push(format!(
                    "{id}: {key} {fresh_value} != committed {want} (determinism sentinel)"
                )),
                None => failures.push(format!("{id}: committed record lacks `{key}`")),
            }
        }
        failures.extend(hit_latency_failure(fresh, c));
    }
    if let Some(committed_overall) = committed
        .get("overall_plans_per_sec")
        .and_then(serde_json::Value::as_f64)
    {
        let fresh_overall = overall_plans_per_sec(&records);
        let floor = committed_overall * MIN_THROUGHPUT_RATIO;
        if fresh_overall < floor {
            failures.push(format!(
                "overall throughput {fresh_overall:.0} plans/sec below floor {floor:.0} \
                 ({MIN_THROUGHPUT_RATIO:.2}x committed {committed_overall:.0})"
            ));
        }
    } else {
        failures.push(format!("{path}: missing `overall_plans_per_sec`"));
    }

    if failures.is_empty() {
        println!(
            "\nbench_plan check: OK — {} records match {path} exactly, throughput and hit latency within bounds",
            committed_records.len()
        );
        ExitCode::SUCCESS
    } else {
        eprintln!("\nbench_plan check: FAILED against {path}:");
        for f in &failures {
            eprintln!("  - {f}");
        }
        ExitCode::FAILURE
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if let Some(path) = arg_value(&args, "--check") {
        return check(&path);
    }
    let records: Vec<PlanBenchRecord> = WORKLOADS.iter().map(run_workload).collect();
    print!("{}", table(&records));
    match write_files(&records) {
        Ok(()) => {
            println!("\n[json] results/bench_plan.json");
            println!("[json] BENCH_plan.json");
        }
        Err(e) => eprintln!("could not write bench_plan JSON: {e}"),
    }
    ExitCode::SUCCESS
}
