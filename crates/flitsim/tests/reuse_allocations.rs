//! A run on a reused `Sim` costs what it touches, not the network: on
//! `mesh:256x256` (65 536 nodes, 392 192 channels) a fresh engine
//! allocates about 23 MB of channel state, totals and node state, while
//! the second one-message run on a kept `Sim` allocates only its result.
//! Measured with the counting allocator, in a binary of its own so that no
//! other test allocates alongside.

use flitsim::program::SinkProgram;
use flitsim::{Engine, SendReq, Sim, SimConfig, SimResult};
use topo::{Mesh, NodeId, Topology};

#[global_allocator]
static ALLOC: allocmeter::Counting = allocmeter::Counting;

/// One 4 KB message from corner to corner.
fn corner_to_corner(mesh: &Mesh, sim: &mut Sim<()>) -> SimResult {
    let far = NodeId(mesh.graph().n_nodes() as u32 - 1);
    let sends = vec![SendReq::to(far, 4096, ())];
    let mut e = Engine::with_sim(mesh, SimConfig::paragon_like(), SinkProgram, sim);
    e.start(NodeId(0), 0, sends);
    e.run().1
}

#[test]
fn a_warm_run_on_the_largest_mesh_allocates_only_its_result() {
    let mesh = Mesh::new(&[256, 256]);
    let mut sim = Sim::new(mesh.graph());
    let cold = corner_to_corner(&mesh, &mut sim);
    let before = allocmeter::allocated_bytes();
    let warm = corner_to_corner(&mesh, &mut sim);
    let bytes = allocmeter::allocated_bytes() - before;
    assert_eq!(warm.messages, cold.messages);
    assert_eq!(warm.channels, cold.channels);
    assert_eq!(warm.meta.events_processed, cold.meta.events_processed);
    // The path's 512 channels and their totals, not the network's.
    assert_eq!(warm.channels.touched().len(), 512);
    assert!(
        bytes < 64 << 10,
        "a warm run on mesh:256x256 allocated {bytes} bytes"
    );
}
