//! Engine timing on large topologies, plus the counters-observer overhead
//! gate.
//!
//! Runs multicasts on six large shapes — the 32x32 mesh and the 1024-node
//! BMIN under the paper's three algorithms, the 128x128 and 256x256 meshes
//! and the 4096- and 16384-node BMINs under OPT-arch — and prints events,
//! peak event-queue depth, wall time, the time per multicast inside
//! `Engine::run` and end to end (the simulator state's set-up, planning,
//! run and drop), and events/sec per record.  Then it runs the observer
//! pair (one 16x16-mesh workload under the Null observer and under the
//! counters-only sink, interleaved) and exits 1 if the counters sink falls
//! below 0.95x the Null throughput.
//!
//! ```text
//! cargo run --release -p optmc-bench --bin bench_sim
//! ```
//!
//! The timings are printed, not gated.  The exact determinism sentinels
//! (event counts, `mean_latency`, simulated cycles) of these workloads are
//! pinned by `crates/bench/tests/sentinels.rs`.

use std::process::ExitCode;

use flitsim::SimConfig;
use optmc::Algorithm;
use optmc_bench::{bench_observed_pair, bench_table, bench_workload, observer_overhead_failures};
use topo::{Bmin, Mesh, Topology, UpPolicy};

const SEED: u64 = 1997;

/// Floor for the counters-only observer relative to the NullObserver,
/// measured within one run (`obs_null_*` vs `obs_counters_*`, run
/// interleaved on the same placements, each placement's fastest of
/// several repeats), so machine speed and its slow phases cancel out.  The
/// counters sink is a handful of `u64` adds per event; 5% is the agreed
/// overhead budget.
const MIN_OBS_RATIO: f64 = 0.95;

fn main() -> ExitCode {
    let cfg = SimConfig::paragon_like();
    let mesh = Mesh::new(&[16, 16]);
    let big_mesh = Mesh::new(&[32, 32]);
    let big_bmin = Bmin::new(10, UpPolicy::Straight);
    let huge_mesh = Mesh::new(&[128, 128]);
    let huge_bmin = Bmin::new(12, UpPolicy::Straight);
    let giant_mesh = Mesh::new(&[256, 256]);
    let giant_bmin = Bmin::new(14, UpPolicy::Straight);

    // (id, topology, k, bytes, runs), each under the paper set.
    let big: [(&str, &dyn Topology, usize, u64, usize); 2] = [
        ("big_mesh_32x32", &big_mesh, 64, 16 * 1024, 3),
        ("big_bmin_1024", &big_bmin, 64, 4096, 3),
    ];
    let mut records = Vec::new();
    for (id, topo, k, bytes, runs) in big {
        for alg in Algorithm::PAPER_SET {
            records.push(bench_workload(id, topo, &cfg, alg, k, bytes, runs, SEED));
        }
    }

    // Observer-overhead pair: the same mesh workload under the default
    // Null observer and the counters-only sink, interleaved run by run
    // (see `bench_observed_pair` for the repeats).
    records.extend(bench_observed_pair(
        "mesh16",
        &mesh,
        &cfg,
        Algorithm::OptArch,
        32,
        16 * 1024,
        12,
        SEED,
    ));

    // One OPT-arch multicast each: the point is engine scale, not the
    // algorithm comparison.
    // (id, topology, k, bytes).
    let huge: [(&str, &dyn Topology, usize, u64); 4] = [
        ("big_mesh_128x128", &huge_mesh, 128, 16 * 1024),
        ("big_bmin_4096", &huge_bmin, 96, 4096),
        ("big_mesh_256x256", &giant_mesh, 128, 16 * 1024),
        ("big_bmin_16384", &giant_bmin, 96, 4096),
    ];
    for (id, topo, k, bytes) in huge {
        records.push(bench_workload(
            id,
            topo,
            &cfg,
            Algorithm::OptArch,
            k,
            bytes,
            1,
            SEED,
        ));
    }

    print!("{}", bench_table(&records));
    let failures = observer_overhead_failures(&records, MIN_OBS_RATIO);
    if failures.is_empty() {
        println!(
            "\nbench_sim: OK — counters observer at or above {MIN_OBS_RATIO}x the Null throughput"
        );
        ExitCode::SUCCESS
    } else {
        eprintln!("\nbench_sim: FAILED:");
        for f in &failures {
            eprintln!("  - {f}");
        }
        ExitCode::FAILURE
    }
}
