//! The exported telemetry bytes, pinned.
//!
//! `optmc inspect --telemetry-out` writes a run's
//! `flitsim::metrics::run_snapshot` as JSON or Prometheus text, and
//! `optmc serve --telemetry-out` writes `plansvc::EngineStats::record_into`
//! (plus the service's own gauges and wall-clock histograms).  Each case
//! hashes one exposition with the stable FNV-1a `campaign::key::fingerprint`
//! and compares it with a recorded constant, so a change to a metric's
//! name, help string, type or value shows here.  A change that is meant to
//! alter these bytes updates the constants in the same commit and says why.

use flitsim::metrics::run_snapshot;
use flitsim::{SimConfig, SimResult, TraceSink};
use optmc::experiments::random_placement;
use optmc::{run_multicast_observed, Algorithm, RunOptions};
use plansvc::EngineStats;
use telem::TelemetrySnapshot;

fn hash(text: &str) -> u64 {
    campaign::key::fingerprint(text)
}

/// The `mesh:16x16` single run of `tests/fingerprints.rs`: OPT-arch, the
/// seed-1997 12-node placement rooted at its first node, 4 KB.
fn mesh16_run(observer: Option<TraceSink>) -> SimResult {
    let topo = optmc::spec::parse_topology("mesh:16x16").expect("valid spec");
    let parts = random_placement(topo.graph().n_nodes(), 12, 1997);
    run_multicast_observed(
        topo.as_ref(),
        &SimConfig::paragon_like(),
        Algorithm::OptArch,
        &parts,
        parts[0],
        4096,
        &RunOptions::default(),
        observer,
    )
    .sim
}

#[test]
fn run_snapshot_exposition_keeps_its_bytes() {
    // (observer, JSON hash, Prometheus hash)
    let cases = [
        (None, 0xa394_14ad_0587_8116, 0xd924_9874_fdd3_328d),
        (
            Some(TraceSink::counters()),
            0x89d6_6370_bcc1_d87e,
            0x8527_3e10_df32_63f4,
        ),
    ];
    for (observer, json, prom) in cases {
        let counted = observer.is_some();
        let snap = run_snapshot(&mesh16_run(observer));
        let (j, p) = (snap.to_json(), snap.to_prometheus());
        assert_eq!(hash(&j), json, "counters observer: {counted}\n{j}");
        assert_eq!(hash(&p), prom, "counters observer: {counted}\n{p}");
    }
}

#[test]
fn engine_stats_exposition_keeps_its_bytes() {
    // Distinct values, so a metric that reads another's field shows.
    let stats = EngineStats {
        requests: 41,
        hits: 17,
        misses: 13,
        coalesced: 5,
        dp_runs: 11,
        evictions: 3,
        errors: 2,
    };
    let mut snap = TelemetrySnapshot::new();
    stats.record_into(&mut snap);
    let p = snap.to_prometheus();
    assert_eq!(hash(&p), 0x3439_cd91_6f07_29a3, "\n{p}");
}
