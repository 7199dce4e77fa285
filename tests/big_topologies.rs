//! A memory ceiling at the largest shapes the benchmarks use.
//!
//! Routing is closed-form and nothing per topology may grow faster than
//! its router and channel counts.  A structure quadratic in network size
//! (a dense routers × nodes table on `mesh:256x256` would take ~34 GB)
//! shows here as a peak RSS far above the ceiling, or as an abort.
//!
//! The file holds a single test so that the binary is its own process and
//! `VmHWM` (peak RSS, process-wide and never falling) measures only it.

use flitsim::SimConfig;
use optmc::experiments::random_placement;
use optmc::spec::parse_topology;
use optmc::{run_multicast, Algorithm};

/// Peak RSS ceiling for the whole run.
const CEILING_MIB: u64 = 128;

/// Peak resident set size of this process in MiB, `None` without `/proc`.
fn peak_rss_mib() -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let kib: u64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))?
        .trim()
        .trim_end_matches("kB")
        .trim()
        .parse()
        .ok()?;
    Some(kib / 1024)
}

#[test]
fn largest_shapes_multicast_under_the_memory_ceiling() {
    let cfg = SimConfig::paragon_like();
    for spec in ["mesh:256x256", "torus:256x256", "bmin:16384", "omega:16384"] {
        let topo = parse_topology(spec).unwrap();
        let n = topo.graph().n_nodes();
        let parts = random_placement(n, 128, 1997);
        let out = run_multicast(
            topo.as_ref(),
            &cfg,
            Algorithm::OptArch,
            &parts,
            parts[0],
            16384,
        );
        assert_eq!(out.sim.messages.len(), 127, "{spec}");
    }
    match peak_rss_mib() {
        Some(peak) => assert!(
            peak < CEILING_MIB,
            "peak RSS {peak} MiB reaches the {CEILING_MIB} MiB ceiling"
        ),
        None => eprintln!("SKIP memory ceiling: /proc/self/status is unavailable"),
    }
}
