//! The simulator's bytes, pinned.
//!
//! Each case hashes a run's canonical `SimResult::fingerprint()` JSON (the
//! whole result minus wall-clock and heap-size fields) with the stable
//! FNV-1a `campaign::key::fingerprint` and compares it with a recorded
//! constant.  Any change to event order, timing, blocking attribution,
//! per-channel telemetry or observer tallies changes a hash.  A change that
//! is meant to alter simulation results updates these constants in the
//! same commit and says why.

use flitsim::{SimConfig, SimResult, TraceSink};
use optmc::experiments::random_placement;
use optmc::{run_concurrent, run_multicast_observed, Algorithm, McastSpec, RunOptions};

/// Topologies covered by the single-run cases: one per routing family.
const TOPOS: [&str; 4] = ["mesh:16x16", "torus:8x8", "bmin:128", "omega:64"];

fn hash(sim: &SimResult) -> u64 {
    campaign::key::fingerprint(&sim.fingerprint())
}

/// One OPT-arch multicast exactly as `optmc run --alg opt-arch --nodes 12
/// --bytes 4096` runs it: the seed-1997 placement, rooted at its first node.
fn single_run(spec: &str, observer: Option<TraceSink>) -> SimResult {
    let topo = optmc::spec::parse_topology(spec).expect("valid spec");
    let parts = random_placement(topo.graph().n_nodes(), 12, 1997);
    let out = run_multicast_observed(
        topo.as_ref(),
        &SimConfig::paragon_like(),
        Algorithm::OptArch,
        &parts,
        parts[0],
        4096,
        &RunOptions::default(),
        observer,
    );
    out.sim
}

#[test]
fn single_multicasts_keep_their_fingerprints() {
    const PLAIN: [u64; 4] = [
        0x389f_1479_721a_36dd,
        0x6d63_e0e1_b503_a748,
        0x4ba5_22f5_87c1_95b3,
        0x6590_7825_feb5_7651,
    ];
    const COUNTED: [u64; 4] = [
        0x16c6_1ffa_a5fc_2a3a,
        0x2226_1ede_e37d_aec5,
        0x2420_84dc_e3d3_e21c,
        0x508f_741e_8139_9546,
    ];
    for (i, spec) in TOPOS.into_iter().enumerate() {
        let plain = single_run(spec, None);
        assert_eq!(hash(&plain), PLAIN[i], "{spec}, no observer");
        let counted = single_run(spec, Some(TraceSink::counters()));
        assert!(counted.counts.is_some(), "{spec}: counters sink reports");
        assert_eq!(hash(&counted), COUNTED[i], "{spec}, counters observer");
    }
}

#[test]
fn staggered_batch_keeps_its_fingerprint() {
    // Eight overlapping 8-node multicasts arriving 2000 cycles apart: later
    // roots inject while earlier trees still hold channels and node CPUs.
    let topo = optmc::spec::parse_topology("mesh:16x16").expect("valid spec");
    let n = topo.graph().n_nodes();
    let specs: Vec<McastSpec> = (0..8u64)
        .map(|i| {
            let participants = random_placement(n, 8, 1997 + i);
            McastSpec {
                src: participants[0],
                participants,
                bytes: 4096,
                start: 2000 * i,
            }
        })
        .collect();
    let (_, sim) = run_concurrent(
        topo.as_ref(),
        &SimConfig::paragon_like(),
        Algorithm::OptArch,
        &specs,
    );
    assert!(sim.blocked_cycles > 0, "the batch should contend");
    assert_eq!(hash(&sim), 0x7c60_4487_ca7e_0570);
}
