//! What answering seeded requests through cache aliases must keep: the
//! responses, the counters and the cache's contents are those of drawing
//! every placement before keying.  The pinned fingerprints and lines were
//! recorded from the engine before it had aliases.

use campaign::key::fingerprint;
use plansvc::{parse_line, step_blocking, Engine, EngineConfig, ParsedLine, PlanOptions};

const SEEDED: &str = r#"{"id": 1, "topo": "mesh:8x8", "k": 6, "seed": 11, "bytes": 1024}"#;

/// `SEEDED` with its placement spelled out as explicit members.
fn explicit() -> String {
    let Ok(ParsedLine::Plan(request, _)) = parse_line(SEEDED) else {
        panic!("expected a plan request");
    };
    let members: Vec<String> = request.members.iter().map(|n| n.0.to_string()).collect();
    format!(
        r#"{{"id": 1, "topo": "mesh:8x8", "members": [{}], "bytes": 1024}}"#,
        members.join(", ")
    )
}

/// Serve `lines` in order through one engine: each line's responses.
fn serve(engine: &mut Engine, lines: &[&str]) -> Vec<String> {
    let mut out = Vec::new();
    for (i, line) in lines.iter().enumerate() {
        for (_, text) in step_blocking(engine, i as u64 + 1, line, &PlanOptions::default()) {
            out.push(text);
        }
    }
    out
}

fn fingerprint_of(responses: &[String]) -> u64 {
    fingerprint(&responses.concat())
}

fn hit_of(miss: &str) -> String {
    miss.replace(r#""cached":false"#, r#""cached":true"#)
}

#[test]
fn explicit_and_seeded_spellings_share_one_entry() {
    let explicit = explicit();
    for order in [[SEEDED, explicit.as_str()], [explicit.as_str(), SEEDED]] {
        let mut e = Engine::new(EngineConfig { capacity: 8 });
        let out = serve(&mut e, &[order[0], order[1], order[0], order[1]]);
        assert_eq!(out.len(), 4);
        assert!(out[0].contains(r#""cached":false"#), "{}", out[0]);
        for hit in &out[1..] {
            assert_eq!(*hit, hit_of(&out[0]), "the second spelling hits");
        }
        let s = e.stats();
        assert_eq!((s.requests, s.hits, s.misses, s.dp_runs), (4, 3, 1, 1));
        assert_eq!(e.cached_plans(), 1, "one entry for both spellings");
        // Both spellings carry id 1, so both orders answer the same bytes.
        assert_eq!(
            fingerprint_of(&out),
            13_383_465_659_221_933_812,
            "{order:?}"
        );
    }
}

#[test]
fn an_evicted_seeded_plan_is_recomputed_byte_identically() {
    let other = r#"{"id": 2, "topo": "bmin:64", "k": 5, "seed": 3, "bytes": 512}"#;
    let mut e = Engine::new(EngineConfig { capacity: 1 });
    let out = serve(&mut e, &[SEEDED, other, SEEDED, SEEDED]);
    assert_eq!(out[2], out[0], "a miss again, with identical bytes");
    assert_eq!(out[3], hit_of(&out[0]));
    let s = e.stats();
    assert_eq!((s.hits, s.misses, s.evictions), (1, 3, 2));
    assert_eq!(fingerprint_of(&out), 17_445_743_896_970_961_858);
}

#[test]
fn seeded_requests_are_validated_as_before() {
    let mut e = Engine::new(EngineConfig { capacity: 8 });
    let out = serve(
        &mut e,
        &[
            r#"{"id": 1, "topo": "mesh:4x4", "k": 0}"#,
            r#"{"id": 2, "topo": "mesh:4x4", "k": 1, "seed": 3}"#,
            r#"{"id": 3, "topo": "mesh:4x4", "k": 17}"#,
            r#"{"id": 4, "topo": "mesh:4x4", "k": 17, "seed": -1}"#,
            r#"{"id": 5, "topo": "mesh:4x4", "k": 4, "seed": -1}"#,
        ],
    );
    assert_eq!(
        out,
        [
            r#"{"id":1,"ok":false,"error":"a multicast needs at least 2 members"}"#,
            r#"{"id":2,"ok":false,"error":"a multicast needs at least 2 members"}"#,
            r#"{"id":3,"ok":false,"error":"k=17 out of range 2..=16 for mesh:4x4"}"#,
            r#"{"id":4,"ok":false,"error":"k=17 out of range 2..=16 for mesh:4x4"}"#,
            r#"{"id":5,"ok":false,"error":"'seed' must be a non-negative integer"}"#,
        ]
    );
    assert_eq!(e.stats().errors, 5);
    assert_eq!(e.stats().requests, 0);
}

#[test]
fn an_omitted_seed_is_seed_1997() {
    let mut e = Engine::new(EngineConfig { capacity: 8 });
    let out = serve(
        &mut e,
        &[
            r#"{"topo": "mesh:4x4", "k": 4}"#,
            r#"{"topo": "mesh:4x4", "k": 4, "seed": 1997}"#,
            r#"{"topo": "mesh:4x4", "k": 4}"#,
        ],
    );
    assert_eq!(out[1], hit_of(&out[0]));
    assert_eq!(out[2], out[1]);
    assert_eq!(e.stats().hits, 2);
    assert_eq!(fingerprint_of(&out), 8_854_145_008_381_665_766);
}
