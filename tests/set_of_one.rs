//! A single multicast is a schedule set of one: the windowed check of the
//! schedule the runner executes and `netcheck`'s set analysis of the
//! one-member set run the same occupancy replay through the same window
//! scan, so they must return the same conflicts in the same order — on
//! every topology family, for tuned and untuned algorithms alike.

use flitsim::SimConfig;
use netcheck::{analyze_set, ScheduleSet};
use optmc::experiments::random_placement;
use optmc::{check_schedule_windowed, run_multicast, Algorithm, McastSpec, OccupancyParams};
use topo::{Bmin, Mesh, Omega, Topology, Torus, UpPolicy};

#[test]
fn single_multicast_is_a_set_of_one() {
    let mesh = Mesh::new(&[8, 8]);
    let torus = Torus::new(&[4, 4]);
    let bmin = Bmin::new(6, UpPolicy::Straight);
    let omega = Omega::new(5);
    let topos: [(&dyn Topology, usize); 4] = [(&mesh, 14), (&torus, 8), (&bmin, 12), (&omega, 12)];
    let mut cfg = SimConfig::paragon_like();
    cfg.adaptive = false; // set analysis replays deterministic paths only
    let (mut cases, mut contended) = (0, 0);
    for (topo, k) in topos {
        for alg in [Algorithm::OptArch, Algorithm::UArch, Algorithm::OptTree] {
            for seed in 0..3u64 {
                for bytes in [0, 1024, 8192] {
                    let parts = random_placement(topo.graph().n_nodes(), k, seed);
                    let src = parts[0];
                    let out = run_multicast(topo, &cfg, alg, &parts, src, bytes);
                    let chain = alg.chain(topo, &parts, src);
                    let params = OccupancyParams::from_config(&cfg, bytes);
                    let single = check_schedule_windowed(topo, &chain, &out.schedule, &params)
                        .expect("deterministic routes materialise");
                    let set = ScheduleSet {
                        specs: vec![McastSpec {
                            participants: parts,
                            src,
                            bytes,
                            start: 0,
                        }],
                        algorithm: alg,
                    };
                    let analysis = analyze_set(topo, &cfg, &set).expect("routes materialise");
                    assert_eq!(
                        single,
                        analysis.conflicts,
                        "{} {alg:?} seed {seed} {bytes} bytes",
                        topo.name()
                    );
                    cases += 1;
                    contended += usize::from(!single.is_empty());
                }
            }
        }
    }
    // Both verdicts must occur, or the comparison proves little.
    assert!(contended > 0, "no case contended");
    assert!(contended < cases, "every case contended");
}
