//! Building a network costs its shape, not its size: every family numbers
//! its channels by arithmetic, so a plan miss on the largest accepted spec
//! (2^20 nodes) builds no per-channel table.  The mesh alone keeps one
//! `u32` per router (its link prefix, a lookup on the simulator's hop).
//! Measured with the counting allocator, in a binary of its own so that no
//! other test allocates alongside.

use optmc::spec::parse_topology;

#[global_allocator]
static ALLOC: allocmeter::Counting = allocmeter::Counting;

#[test]
fn the_largest_specs_build_without_channel_tables() {
    for spec in [
        "bmin:1048576",
        "omega:1048576",
        "mesh:1024x1024",
        "torus:1024x1024",
    ] {
        let before = allocmeter::allocated_bytes();
        let topo = parse_topology(spec).expect("valid spec");
        let bytes = allocmeter::allocated_bytes() - before;
        let routers = topo.graph().n_routers() as u64;
        let prefix = if spec.starts_with("mesh") {
            4 * (routers + 1)
        } else {
            0
        };
        assert_eq!(topo.graph().n_nodes(), 1 << 20, "{spec}");
        assert!(
            bytes < (64 << 10) + prefix,
            "building {spec} allocated {bytes} bytes"
        );
    }
}
