//! Contention anatomy: open up one OPT-tree run and show *where* the
//! blocking happens — which sends collide on which channels during which
//! cycles, statically predicted by the windowed replay of the run's own
//! schedule and dynamically observed — then show the OPT-mesh ordering
//! dissolving every collision.
//!
//! ```text
//! cargo run --release --example contention_anatomy
//! ```

use flitsim::SimConfig;
use optmc::experiments::random_placement;
use optmc::{check_schedule_windowed, run_multicast, Algorithm, OccupancyParams};
use topo::{Mesh, NodeId};

fn main() {
    let mesh = Mesh::new(&[16, 16]);
    let cfg = SimConfig::paragon_like();
    let bytes = 4096;
    let params = OccupancyParams::from_config(&cfg, bytes);
    let run = |alg: Algorithm, placement: &[NodeId]| {
        let out = run_multicast(&mesh, &cfg, alg, placement, placement[0], bytes);
        let chain = alg.chain(&mesh, placement, placement[0]);
        let overlaps = check_schedule_windowed(&mesh, &chain, &out.schedule, &params)
            .expect("mesh routes materialise");
        (out, overlaps)
    };

    // Find a placement where the unordered chain collides.
    let (placement, seed) = (0..)
        .map(|s| (random_placement(256, 16, s), s))
        .find(|(p, _)| !run(Algorithm::OptTree, p).1.is_empty())
        .expect("some placement collides");
    println!(
        "Placement (seed {seed}): {:?}\n",
        placement.iter().map(|n| n.0).collect::<Vec<_>>()
    );

    for alg in [Algorithm::OptTree, Algorithm::OptArch] {
        let (out, overlaps) = run(alg, &placement);
        println!("{}:", alg.display_name(&mesh));
        println!(
            "  static (send pair, channel) overlaps predicted: {}",
            overlaps.len()
        );
        for c in overlaps.iter().take(5) {
            let a = &out.schedule.sends[c.send_a];
            let b = &out.schedule.sends[c.send_b];
            let coord = |pos: usize| {
                let xy = mesh.coords(out.chain_nodes[pos]);
                format!("({},{})", xy[0], xy[1])
            };
            println!(
                "    {}->{} collides with {}->{} on channel {} during cycles [{} .. {})",
                coord(a.from),
                coord(a.to),
                coord(b.from),
                coord(b.to),
                c.channel.0,
                c.from,
                c.until
            );
        }
        println!(
            "  simulated: latency {} (bound {}), {} blocking episodes, {} blocked cycles\n",
            out.latency, out.analytic, out.sim.blocked_events, out.sim.blocked_cycles
        );
    }
}
