//! Exact determinism sentinels for the planning service.
//!
//! Four request workloads replay through [`step_blocking`]: `distinct`
//! request lines issued round-robin for `rounds` rounds against a
//! `capacity`-plan cache, so every workload mixes cold misses with warm
//! hits, and one thrashes its cache.  Each must reproduce the pinned
//! engine counters and the FNV fingerprint of its concatenated response
//! lines (each followed by `\n`): a changed count or byte means the
//! service answered differently, not just slower.  Wall-clock timing is
//! the job of the `perfbench/` benchmark.

use campaign::key::fingerprint;
use plansvc::{step_blocking, Engine, EngineConfig, PlanOptions};

/// One workload and its pinned sentinels.
struct Workload {
    id: &'static str,
    capacity: usize,
    certify: bool,
    distinct: usize,
    rounds: usize,
    line: fn(usize) -> String,
    /// `requests`, `hits`, `misses`, `dp_runs`, `evictions`.
    counts: [u64; 5],
    response_fingerprint: u64,
}

const WORKLOADS: [Workload; 4] = [
    Workload {
        id: "mesh16_32n_16k",
        capacity: 256,
        certify: false,
        distinct: 32,
        rounds: 8,
        line: |i| format!(r#"{{"topo": "mesh:16x16", "k": 32, "seed": {i}, "bytes": 16384}}"#),
        counts: [256, 224, 32, 32, 0],
        response_fingerprint: 4421166429913854537,
    },
    Workload {
        id: "bmin512_32n_4k",
        capacity: 256,
        certify: false,
        distinct: 32,
        rounds: 8,
        line: |i| format!(r#"{{"topo": "bmin:512", "k": 32, "seed": {i}, "bytes": 4096}}"#),
        counts: [256, 224, 32, 32, 0],
        response_fingerprint: 14994024813189282927,
    },
    Workload {
        id: "mesh8_certified",
        capacity: 64,
        certify: true,
        distinct: 8,
        rounds: 8,
        line: |i| format!(r#"{{"topo": "mesh:8x8", "k": 8, "seed": {i}, "bytes": 2048}}"#),
        counts: [64, 56, 8, 8, 0],
        response_fingerprint: 14822657996609239401,
    },
    Workload {
        id: "evicting_mix",
        capacity: 32,
        certify: false,
        distinct: 48,
        rounds: 6,
        line: |i| {
            let topo = if i % 2 == 0 { "mesh:8x8" } else { "bmin:64" };
            let k = 3 + (i % 6);
            format!(r#"{{"topo": "{topo}", "k": {k}, "seed": {i}, "bytes": 1024}}"#)
        },
        counts: [288, 0, 288, 288, 256],
        response_fingerprint: 15368644896504980133,
    },
];

/// Replay one workload; return its counts and response fingerprint.
fn replay(w: &Workload) -> ([u64; 5], u64) {
    let mut engine = Engine::new(EngineConfig {
        capacity: w.capacity,
    });
    let opts = PlanOptions { certify: w.certify };
    let mut responses = String::new();
    let mut id = 0;
    for _ in 0..w.rounds {
        for i in 0..w.distinct {
            id += 1;
            for (_, text) in step_blocking(&mut engine, id, &(w.line)(i), &opts) {
                responses.push_str(&text);
                responses.push('\n');
            }
        }
    }
    let s = engine.stats();
    assert_eq!(s.errors, 0, "{}: every request must be valid", w.id);
    let counts = [s.requests, s.hits, s.misses, s.dp_runs, s.evictions];
    (counts, fingerprint(&responses))
}

#[test]
fn plan_service_sentinels_match_the_pinned_values() {
    let mut drift = Vec::new();
    for w in &WORKLOADS {
        let got = replay(w);
        let want = (w.counts, w.response_fingerprint);
        if got != want {
            drift.push(format!(
                "{}: ([requests, hits, misses, dp_runs, evictions], fingerprint) = {got:?}, \
                 pinned {want:?}",
                w.id
            ));
        }
    }
    assert!(drift.is_empty(), "sentinel drift:\n{}", drift.join("\n"));
}
