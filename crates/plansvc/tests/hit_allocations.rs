//! A seeded hit does no work in the size of the network: answered through
//! the cache's alias for its seeded form, it never draws the placement (a
//! shuffle of all n nodes) nor builds the member-list key.  Measured with
//! the counting allocator, in a binary of its own so that no other test
//! allocates alongside.

use plansvc::{step_blocking, Engine, EngineConfig, PlanOptions};

#[global_allocator]
static ALLOC: allocmeter::Counting = allocmeter::Counting;

#[test]
fn a_seeded_hit_allocates_nothing_in_the_size_of_the_network() {
    // 65 536 nodes: drawing the placement alone allocates 256 KiB.
    let line = r#"{"topo": "mesh:256x256", "k": 4, "seed": 5}"#;
    let opts = PlanOptions::default();
    let mut engine = Engine::new(EngineConfig { capacity: 4 });
    let miss = step_blocking(&mut engine, 1, line, &opts);
    let before = allocmeter::allocated_bytes();
    let hit = step_blocking(&mut engine, 2, line, &opts);
    let bytes = allocmeter::allocated_bytes() - before;
    assert_eq!(engine.stats().hits, 1);
    assert_eq!(
        hit[0].1,
        miss[0].1.replace(r#""cached":false"#, r#""cached":true"#)
    );
    assert!(
        bytes < 64 << 10,
        "a seeded hit on mesh:256x256 allocated {bytes} bytes"
    );
}
