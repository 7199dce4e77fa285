//! Exact determinism sentinels for the simulator at seed 1997.
//!
//! Each row re-runs one engine-vitals workload — the paper's figure
//! shapes, the large topologies, the counters-observer pair and a 64-way
//! staggered concurrent batch — and requires four values to equal the
//! pinned ones: events scheduled, peak event-queue depth, mean multicast
//! latency (bit for bit) and total simulated cycles.  Drift in any of them
//! means the simulation changed, not just its speed; wall-clock timing is
//! the job of the `perfbench/` benchmark and of `bench_sim`.

use flitsim::SimConfig;
use optmc::{run_concurrent, Algorithm, McastSpec};
use optmc_bench::{bench_observed_pair, bench_workload, SimBenchRecord};
use pcm::{MsgSize, Time};
use topo::{Bmin, Mesh, Topology, UpPolicy};

const SEED: u64 = 1997;

/// `events_scheduled`, `peak_heap_events`, `mean_latency`, `sim_cycles`.
type Sentinels = (u64, usize, f64, u64);

/// The pinned sentinels, keyed by workload id and algorithm.
#[rustfmt::skip]
const PINNED: [(&str, &str, Sentinels); 22] = [
    ("fig2_mesh_msgsize", "U-mesh", (4626, 14, 38117.5, 304940)),
    ("fig2_mesh_msgsize", "OPT-tree", (6694, 22, 29287.625, 234301)),
    ("fig2_mesh_msgsize", "OPT-mesh", (5146, 22, 27149.25, 217194)),
    ("fig3_mesh_nodes", "U-mesh", (8656, 26, 12782.0, 102256)),
    ("fig3_mesh_nodes", "OPT-tree", (13377, 41, 10770.0, 86160)),
    ("fig3_mesh_nodes", "OPT-mesh", (8900, 41, 9601.25, 76810)),
    ("fig4_bmin", "U-min", (4704, 14, 12000.75, 96006)),
    ("fig4_bmin", "OPT-tree", (6783, 22, 8834.125, 70673)),
    ("fig4_bmin", "OPT-min", (5400, 22, 8712.0, 69696)),
    ("big_mesh_32x32", "U-mesh", (5605, 26, 45770.0, 137310)),
    ("big_mesh_32x32", "OPT-tree", (9170, 44, 35591.0, 106773)),
    ("big_mesh_32x32", "OPT-mesh", (5985, 44, 31924.333333333332, 95773)),
    ("big_bmin_1024", "U-min", (5163, 26, 14430.666666666666, 43292)),
    ("big_bmin_1024", "OPT-tree", (7329, 44, 10293.333333333334, 30880)),
    ("big_bmin_1024", "OPT-min", (5539, 44, 10282.666666666666, 30848)),
    ("obs_null_mesh16", "OPT-mesh", (7726, 22, 27150.083333333332, 325801)),
    ("obs_counters_mesh16", "OPT-mesh", (7726, 22, 27150.083333333332, 325801)),
    ("concurrent_64way", "OPT-mesh", (110064, 84, 7208.09375, 399506)),
    ("big_mesh_128x128", "OPT-mesh", (13829, 87, 35630.0, 35630)),
    ("big_bmin_4096", "OPT-min", (3361, 67, 11076.0, 11076)),
    ("big_mesh_256x256", "OPT-mesh", (24417, 87, 35943.0, 35943)),
    ("big_bmin_16384", "OPT-min", (4061, 67, 11082.0, 11082)),
];

fn sentinels(r: &SimBenchRecord) -> (String, String, Sentinels) {
    (
        r.workload.clone(),
        r.algorithm.clone(),
        (
            r.events_scheduled,
            r.peak_heap_events,
            r.mean_latency,
            r.sim_cycles,
        ),
    )
}

/// The `concurrent_64way` batch: three rounds of 64 concurrent 16-node
/// OPT-arch multicasts of 4 KB on the 32x32 mesh, carved from one seeded
/// placement per round, roots starting 2000 cycles apart; the later starts
/// lie beyond the event queue's ring and go through its overflow heap.
fn concurrent_64way(mesh: &Mesh, cfg: &SimConfig) -> Sentinels {
    const WAYS: usize = 64;
    const K: usize = 16;
    const RUNS: usize = 3;
    let n = mesh.graph().n_nodes();
    let (mut events, mut peak, mut latency_sum, mut cycles) = (0, 0, 0, 0);
    for t in 0..RUNS {
        let placement = optmc::random_placement(n, WAYS * K, SEED + t as u64);
        let specs: Vec<McastSpec> = placement
            .chunks(K)
            .enumerate()
            .map(|(i, chunk)| McastSpec {
                participants: chunk.to_vec(),
                src: chunk[0],
                bytes: 4096,
                start: 2000 * i as Time,
            })
            .collect();
        let (outcomes, sim) = run_concurrent(mesh, cfg, Algorithm::OptArch, &specs);
        events += sim.meta.events_scheduled;
        peak = peak.max(sim.meta.peak_heap_events);
        cycles += sim.finish;
        latency_sum += outcomes.iter().map(|o| o.latency).sum::<Time>();
    }
    let mean = latency_sum as f64 / (RUNS * WAYS) as f64;
    (events, peak, mean, cycles)
}

/// Every workload's fresh sentinels, in [`PINNED`] order.
fn fresh() -> Vec<(String, String, Sentinels)> {
    let cfg = SimConfig::paragon_like();
    let mesh16 = Mesh::new(&[16, 16]);
    let bmin128 = Bmin::new(7, UpPolicy::Straight);
    let mesh32 = Mesh::new(&[32, 32]);
    let bmin1024 = Bmin::new(10, UpPolicy::Straight);
    let mesh128 = Mesh::new(&[128, 128]);
    let bmin4096 = Bmin::new(12, UpPolicy::Straight);
    let mesh256 = Mesh::new(&[256, 256]);
    let bmin16384 = Bmin::new(14, UpPolicy::Straight);

    // (id, topology, k, bytes, runs): the paper's three algorithms each.
    let paper_set: [(&str, &dyn Topology, usize, MsgSize, usize); 5] = [
        ("fig2_mesh_msgsize", &mesh16, 32, 16 * 1024, 8),
        ("fig3_mesh_nodes", &mesh16, 60, 4096, 8),
        ("fig4_bmin", &bmin128, 32, 4096, 8),
        ("big_mesh_32x32", &mesh32, 64, 16 * 1024, 3),
        ("big_bmin_1024", &bmin1024, 64, 4096, 3),
    ];
    let mut out = Vec::new();
    for (id, topo, k, bytes, runs) in paper_set {
        for alg in Algorithm::PAPER_SET {
            let r = bench_workload(id, topo, &cfg, alg, k, bytes, runs, SEED);
            out.push(sentinels(&r));
        }
    }
    let pair = bench_observed_pair(
        "mesh16",
        &mesh16,
        &cfg,
        Algorithm::OptArch,
        32,
        16 * 1024,
        12,
        SEED,
    );
    out.extend(pair.iter().map(sentinels));
    let alg = Algorithm::OptArch;
    out.push((
        "concurrent_64way".to_string(),
        alg.display_name(&mesh32),
        concurrent_64way(&mesh32, &cfg),
    ));
    // (id, topology, k, bytes): one OPT-arch run each.
    let large: [(&str, &dyn Topology, usize, MsgSize); 4] = [
        ("big_mesh_128x128", &mesh128, 128, 16 * 1024),
        ("big_bmin_4096", &bmin4096, 96, 4096),
        ("big_mesh_256x256", &mesh256, 128, 16 * 1024),
        ("big_bmin_16384", &bmin16384, 96, 4096),
    ];
    for (id, topo, k, bytes) in large {
        let r = bench_workload(id, topo, &cfg, alg, k, bytes, 1, SEED);
        out.push(sentinels(&r));
    }
    out
}

#[test]
fn simulator_sentinels_match_the_pinned_values() {
    let fresh = fresh();
    assert_eq!(fresh.len(), PINNED.len());
    let mut drift = Vec::new();
    for ((workload, algorithm, got), (want_workload, want_algorithm, want)) in
        fresh.iter().zip(PINNED)
    {
        assert_eq!(
            (workload.as_str(), algorithm.as_str()),
            (want_workload, want_algorithm)
        );
        let bits = |s: &Sentinels| (s.0, s.1, s.2.to_bits(), s.3);
        if bits(got) != bits(&want) {
            drift.push(format!(
                "{workload} [{algorithm}]: (events_scheduled, peak_heap_events, \
                 mean_latency, sim_cycles) = {got:?}, pinned {want:?}"
            ));
        }
    }
    assert!(drift.is_empty(), "sentinel drift:\n{}", drift.join("\n"));
}
