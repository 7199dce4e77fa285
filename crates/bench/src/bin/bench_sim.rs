//! Engine-vitals benchmark: run the paper's figure workloads plus
//! large-scale stress configurations (32x32 mesh, 1024-node BMIN, a 64-way
//! staggered concurrent multicast, a 128x128 mesh, a 4096-node BMIN, a
//! 256x256 mesh, a 16384-node BMIN) with the observability layer's
//! [`flitsim::RunMeta`] instrumentation and record events processed, peak
//! heap, wall-time and events/sec per workload.
//!
//! Writes `results/bench_sim.json` plus the repo-root `BENCH_sim.json`
//! (records + totals + seed), so regressions in simulator throughput show up
//! in review diffs alongside the latency figures.
//!
//! ```text
//! cargo run --release -p optmc-bench --bin bench_sim \
//!     [--runs 8] [--seed 1997]
//! cargo run --release -p optmc-bench --bin bench_sim -- --check BENCH_sim.json
//! ```
//!
//! `--check` re-runs every workload recorded in the committed file (with its
//! recorded run count and the file's seed), requires the deterministic
//! sentinels (`events_scheduled`, `peak_heap_events`, `mean_latency`,
//! `sim_cycles`) to match **exactly**, fails if overall throughput drops
//! below 75% of the committed figure, and holds the counters-only observer
//! within 5% of the Null observer.  Nothing is written in check mode.

use std::process::ExitCode;

use flitsim::SimConfig;
use optmc::Algorithm;
use optmc_bench::{
    arg_value, bench_concurrent, bench_observed_pair, bench_table, bench_workload, compare_bench,
    observer_overhead_failures, parse_bench_file, write_bench_sim, SimBenchRecord,
};
use topo::{Bmin, Mesh, Topology, UpPolicy};

/// Throughput floor for `--check`, as a fraction of the committed
/// events/sec.  Generous (wall-clock noise, shared CI machines) while still
/// catching order-of-magnitude hot-path regressions.
const MIN_THROUGHPUT_RATIO: f64 = 0.75;

/// Floor for the counters-only observer relative to the NullObserver,
/// measured within one fresh run (`obs_null_*` vs `obs_counters_*`, run
/// interleaved on the same placements, each placement's fastest of
/// several repeats), so machine speed and its slow phases cancel out.  The counters sink is a handful of `u64`
/// adds per event; 5% is the agreed overhead budget.
const MIN_OBS_RATIO: f64 = 0.95;

/// Run every benchmark workload.  `runs_for(workload_id, default)` decides
/// the per-workload run count: generation passes the defaults through,
/// `--check` substitutes each committed record's count so event totals are
/// comparable.
fn run_all(seed: u64, runs_for: &dyn Fn(&str, usize) -> usize) -> Vec<SimBenchRecord> {
    let mesh = Mesh::new(&[16, 16]);
    let bmin = Bmin::new(7, UpPolicy::Straight);
    let big_mesh = Mesh::new(&[32, 32]);
    let big_bmin = Bmin::new(10, UpPolicy::Straight);
    let huge_mesh = Mesh::new(&[128, 128]);
    let huge_bmin = Bmin::new(12, UpPolicy::Straight);
    let giant_mesh = Mesh::new(&[256, 256]);
    let giant_bmin = Bmin::new(14, UpPolicy::Straight);
    let cfg = SimConfig::paragon_like();

    // (id, detail, topology, k, bytes, default runs).  The big configs
    // default to fewer runs: each run is ~20x the events of a paper one.
    let workloads: [(&str, &str, &dyn Topology, usize, u64, usize); 5] = [
        (
            "fig2_mesh_msgsize",
            "16x16 mesh, 32 nodes, 16 KB",
            &mesh,
            32,
            16 * 1024,
            8,
        ),
        (
            "fig3_mesh_nodes",
            "16x16 mesh, 60 nodes, 4 KB",
            &mesh,
            60,
            4096,
            8,
        ),
        (
            "fig4_bmin",
            "128-node BMIN, 32 nodes, 4 KB",
            &bmin,
            32,
            4096,
            8,
        ),
        (
            "big_mesh_32x32",
            "32x32 mesh, 64 nodes, 16 KB",
            &big_mesh,
            64,
            16 * 1024,
            3,
        ),
        (
            "big_bmin_1024",
            "1024-node BMIN, 64 nodes, 4 KB",
            &big_bmin,
            64,
            4096,
            3,
        ),
    ];

    let mut records: Vec<SimBenchRecord> = Vec::new();
    for (id, detail, topo, k, bytes, default_runs) in workloads {
        let runs = runs_for(id, default_runs);
        for alg in Algorithm::PAPER_SET {
            records.push(bench_workload(
                id, detail, topo, &cfg, alg, k, bytes, runs, seed,
            ));
        }
    }

    // Observer-overhead pair: the same mesh workload under the default
    // Null observer and the counters-only sink, interleaved run by run
    // (see `bench_observed_pair` for the repeats).
    // Deterministic sentinels must agree across the pair (observation never
    // perturbs the simulation); the wall-clock ratio is the overhead
    // measurement.
    records.extend(bench_observed_pair(
        "mesh16",
        "16x16 mesh, 32 nodes, 16 KB, observer overhead pair",
        &mesh,
        &cfg,
        Algorithm::OptArch,
        32,
        16 * 1024,
        runs_for("obs_null_mesh16", 12),
        seed,
    ));

    // 64 concurrent 16-node multicasts on the large mesh, arrivals staggered
    // 2000 cycles apart — an open-loop workload whose far-future injections
    // exercise the event queue's overflow path.
    let id = "concurrent_64way";
    records.push(bench_concurrent(
        id,
        "32x32 mesh, 64 x 16-node multicasts, 4 KB, 2000-cycle stagger",
        &big_mesh,
        &cfg,
        Algorithm::OptArch,
        64,
        16,
        4096,
        2000,
        runs_for(id, 3),
        seed,
    ));

    // Huge single-multicast stress workloads (OptArch only — the point is
    // engine scale, not the algorithm comparison the paper set covers).
    let huge: [(&str, &str, &dyn Topology, usize, u64, usize); 4] = [
        (
            "big_mesh_128x128",
            "128x128 mesh, 128 nodes, 16 KB",
            &huge_mesh,
            128,
            16 * 1024,
            1,
        ),
        (
            "big_bmin_4096",
            "4096-node BMIN, 96 nodes, 4 KB",
            &huge_bmin,
            96,
            4096,
            1,
        ),
        (
            "big_mesh_256x256",
            "256x256 mesh, 128 nodes, 16 KB",
            &giant_mesh,
            128,
            16 * 1024,
            1,
        ),
        (
            "big_bmin_16384",
            "16384-node BMIN, 96 nodes, 4 KB",
            &giant_bmin,
            96,
            4096,
            1,
        ),
    ];
    for (id, detail, topo, k, bytes, default_runs) in huge {
        records.push(bench_workload(
            id,
            detail,
            topo,
            &cfg,
            Algorithm::OptArch,
            k,
            bytes,
            runs_for(id, default_runs),
            seed,
        ));
    }

    records
}

fn check(path: &str) -> ExitCode {
    let text = match std::fs::read_to_string(path) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("bench check: cannot read {path}: {e}");
            return ExitCode::FAILURE;
        }
    };
    let committed = match parse_bench_file(&text) {
        Ok(c) => c,
        Err(e) => {
            eprintln!("bench check: cannot parse {path}: {e}");
            return ExitCode::FAILURE;
        }
    };
    let fresh = run_all(committed.seed, &|id, default| {
        committed
            .records
            .iter()
            .find(|r| r.workload == id)
            .map_or(default, |r| r.runs)
    });
    let mut failures = compare_bench(&committed, &fresh, MIN_THROUGHPUT_RATIO);
    failures.extend(observer_overhead_failures(&fresh, MIN_OBS_RATIO));
    print!("{}", bench_table(&fresh));
    if failures.is_empty() {
        println!(
            "\nbench check: OK — {} records match {path} exactly, throughput within bounds",
            committed.records.len()
        );
        ExitCode::SUCCESS
    } else {
        eprintln!("\nbench check: FAILED against {path}:");
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
    let runs: Option<usize> = arg_value(&args, "--runs").map(|v| v.parse().expect("--runs"));
    let seed: u64 = arg_value(&args, "--seed").map_or(1997, |v| v.parse().expect("--seed"));

    let records = run_all(seed, &|_, default| runs.unwrap_or(default));
    print!("{}", bench_table(&records));
    match write_bench_sim(&records, seed) {
        Ok((detail, root)) => {
            println!("\n[json] {}", detail.display());
            println!("[json] {}", root.display());
        }
        Err(e) => eprintln!("could not write bench_sim JSON: {e}"),
    }
    ExitCode::SUCCESS
}
