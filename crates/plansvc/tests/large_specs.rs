//! The largest accepted specs answer with their recorded bytes.
//!
//! One certified k = 2 plan per family at the spec cap (2^20 nodes), from
//! node 0 to the last node, so the route crosses the whole network.  The
//! FNV fingerprint of each rendered response was recorded when building
//! these networks still filled a table per channel; the build's own cost
//! is bounded in `build_allocations.rs`.

use campaign::key::fingerprint;
use optmc::Algorithm;
use plansvc::{compute_plan, PlanOptions, PlanRequest};
use topo::NodeId;

#[test]
fn largest_specs_keep_their_certified_responses() {
    let cases: [(&str, u32, u64); 4] = [
        ("bmin:1048576", 1 << 20, 15776569333422660622),
        ("omega:1048576", 1 << 20, 7216355985900388314),
        ("mesh:1024x1024", 1 << 20, 15614247223629883536),
        ("torus:1024x1024", 1 << 20, 654311377987001391),
    ];
    let mut got = Vec::new();
    for (topo, n, _) in cases {
        let req = PlanRequest {
            topo: topo.to_string(),
            algorithm: Algorithm::OptArch,
            members: vec![NodeId(0), NodeId(n - 1)],
            bytes: 4096,
            params: None,
        };
        let body = compute_plan(&req, &PlanOptions { certify: true }).expect("plan");
        assert!(body.certificate.is_some(), "{topo}: no certificate");
        got.push((topo, fingerprint(&body.render_json())));
    }
    let expect: Vec<(&str, u64)> = cases.iter().map(|&(t, _, h)| (t, h)).collect();
    assert_eq!(got, expect, "a largest-spec response changed");
}
