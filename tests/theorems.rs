//! Operational checks of the paper's two theorems.
//!
//! * Theorem 1: "The implementation of parameterized multicast trees in
//!   meshes using the OPT-mesh algorithm is optimal" — i.e. the
//!   dimension-ordered embedding is contention-free, so the flit-level run
//!   meets the model's lower bound.
//! * Theorem 2: the same for OPT-min on BMINs with turnaround routing.  In
//!   this reproduction the guarantee is operational: the adaptive up-phase
//!   resolves residual up-channel collisions, so simulated runs block for
//!   zero cycles.

use flitsim::SimConfig;
use mtree::Schedule;
use optmc::experiments::random_placement;
use optmc::{check_schedule_windowed, run_multicast, Algorithm, OccupancyParams};
use topo::{Bmin, Mesh, UpPolicy};

/// Theorem 1, static form: OPT-mesh and U-mesh schedules on random
/// placements of a 16×16 mesh, replayed under the engine's timing from 0
/// to 64 KB, never hold a channel while another send holds it.
#[test]
fn theorem1_static_contention_freedom() {
    let mesh = Mesh::new(&[16, 16]);
    let cfg = SimConfig::paragon_like();
    for seed in 0..30u64 {
        for k in [8usize, 32, 96] {
            let parts = random_placement(256, k, seed * 7 + k as u64);
            let src = parts[seed as usize % k];
            for alg in [Algorithm::OptArch, Algorithm::UArch] {
                let chain = alg.chain(&mesh, &parts, src);
                let splits = alg.splits(20, 55, k);
                let sched = Schedule::build(k, chain.src_pos(), &splits, 20, 55);
                for bytes in [0, 4096, 65536] {
                    let params = OccupancyParams::from_config(&cfg, bytes);
                    let conflicts = check_schedule_windowed(&mesh, &chain, &sched, &params)
                        .expect("mesh routes materialise");
                    assert!(
                        conflicts.is_empty(),
                        "seed {seed} k {k} {bytes} bytes {:?}: {conflicts:?}",
                        alg.display_name(&mesh)
                    );
                }
            }
        }
    }
}

/// Theorem 1, dynamic form: the flit-level OPT-mesh run blocks zero cycles
/// and lands within the distance-sensitivity slack of the model bound.
#[test]
fn theorem1_simulated_optimality() {
    let mesh = Mesh::new(&[16, 16]);
    let cfg = SimConfig::paragon_like();
    let slack = 2 * 30 * cfg.router_delay; // diameter of head-latency variation
    for seed in 0..10u64 {
        let parts = random_placement(256, 32, seed);
        let out = run_multicast(&mesh, &cfg, Algorithm::OptArch, &parts, parts[0], 4096);
        assert_eq!(out.sim.blocked_cycles, 0, "seed {seed}");
        assert!(
            out.overhead_signed().unsigned_abs() <= slack,
            "seed {seed}: latency {} vs bound {}",
            out.latency,
            out.analytic
        );
    }
}

/// Theorem 2, dynamic form: OPT-min and U-min on the 128-node BMIN with the
/// adaptive turnaround up-phase block zero cycles.
#[test]
fn theorem2_simulated_optimality() {
    let bmin = Bmin::new(7, UpPolicy::Straight);
    let cfg = SimConfig::paragon_like();
    for seed in 0..10u64 {
        for alg in [Algorithm::OptArch, Algorithm::UArch] {
            let parts = random_placement(128, 32, seed);
            let out = run_multicast(&bmin, &cfg, alg, &parts, parts[0], 4096);
            assert_eq!(
                out.sim.blocked_cycles,
                0,
                "seed {seed} {}",
                alg.display_name(&bmin)
            );
        }
    }
}

/// The converse: the untuned OPT-tree *does* contend on the mesh (that is
/// the paper's motivation), and the simulator agrees with the static
/// checker's verdict often enough to be its oracle.
#[test]
fn untuned_opt_tree_pays_for_its_ordering() {
    let mesh = Mesh::new(&[16, 16]);
    let cfg = SimConfig::paragon_like();
    let mut blocked_runs = 0;
    let trials = 12;
    for seed in 0..trials {
        let parts = random_placement(256, 32, seed);
        let out = run_multicast(&mesh, &cfg, Algorithm::OptTree, &parts, parts[0], 16384);
        blocked_runs += u32::from(out.sim.blocked_cycles > 0);
    }
    assert!(
        blocked_runs >= trials as u32 / 2,
        "only {blocked_runs}/{trials} OPT-tree runs contended"
    );
}

/// §5's cross-architecture claim: "the contention overhead in the OPT-tree
/// is less severe [on BMIN] ... extra paths allow the BMIN network to reduce
/// the effect of contention".
#[test]
fn bmin_softens_opt_tree_contention() {
    let mesh = Mesh::new(&[16, 16]);
    let bmin = Bmin::new(7, UpPolicy::Straight);
    let cfg = SimConfig::paragon_like();
    let (mut mesh_blocked, mut bmin_blocked) = (0u64, 0u64);
    for seed in 0..12u64 {
        let parts = random_placement(128, 32, seed);
        mesh_blocked += run_multicast(&mesh, &cfg, Algorithm::OptTree, &parts, parts[0], 16384)
            .sim
            .blocked_cycles;
        bmin_blocked += run_multicast(&bmin, &cfg, Algorithm::OptTree, &parts, parts[0], 16384)
            .sim
            .blocked_cycles;
    }
    assert!(
        bmin_blocked < mesh_blocked,
        "BMIN {bmin_blocked} vs mesh {mesh_blocked} blocked cycles"
    );
}
