//! The differential oracle: static analysis vs. the flit simulator.
//!
//! For a seeded random multicast configuration, the oracle runs both
//! sides of the same question —
//!
//! * **static**: the windowed contention checker
//!   ([`optmc::check_schedule_windowed`]) replays the schedule under the
//!   engine's contention-free timing and predicts whether any two worms
//!   ever want the same channel at the same time;
//! * **dynamic**: the wormhole simulator executes the schedule for real,
//!   with the [`crate::validate::Validator`] riding along, and reports the
//!   blocked cycles it actually observed —
//!
//! and demands they agree: *analyzer-says-clean ⇔ simulator-observes-zero
//! blocked time*.  The configuration must be non-adaptive: the windowed
//! replay materialises first-preference deterministic paths, and only then
//! is it an exact model of what the engine will do.
//!
//! [`differential_set_case`] asks the same question of a whole schedule
//! set: the caller's [`SetAnalysis`] (the same window scan, over every
//! member's windows) against one joint simulation of the set.

use flitsim::SimConfig;
use mtree::Schedule;
use optmc::{
    check_schedule_windowed, random_placement, run_concurrent, run_multicast_observed, Algorithm,
    OccupancyParams, RunOptions,
};
use pcm::MsgSize;
use topo::Topology;

use crate::schedset::{ScheduleSet, SetAnalysis};
use crate::validate::{ValidationSummary, Validator};

/// One differential comparison, with everything needed to reproduce it.
#[derive(Debug, Clone)]
pub struct OracleCase {
    /// Topology name (e.g. `mesh-8x8`).
    pub topology: String,
    /// Algorithm under test (Debug form, e.g. `OptArch`).
    pub algorithm: String,
    /// Placement seed.
    pub seed: u64,
    /// Multicast set size.
    pub k: usize,
    /// Conflicts the windowed checker predicted.
    pub conflicts: usize,
    /// Blocked cycles the simulator observed.
    pub blocked_cycles: u64,
    /// `conflicts == 0  ⇔  blocked_cycles == 0`.
    pub agree: bool,
    /// The runtime validator's verdict for the simulated run.
    pub validation: ValidationSummary,
}

/// Run one differential case: `algorithm` multicasting `bytes` among a
/// seeded random `k`-subset of `topo`'s nodes.
///
/// # Panics
/// If `cfg.adaptive` is set (the static replay would not be exact) or the
/// topology's routing fails to materialise a path (a bug `check_topology`
/// reports properly).
pub fn differential_case(
    topo: &dyn Topology,
    cfg: &SimConfig,
    algorithm: Algorithm,
    k: usize,
    bytes: MsgSize,
    seed: u64,
) -> OracleCase {
    assert!(
        !cfg.adaptive,
        "the differential oracle requires deterministic routing"
    );
    let g = topo.graph();
    let parts = random_placement(g.n_nodes(), k, seed);
    let src = parts[0];
    // Reconstruct exactly the schedule the runner will execute.
    let hops = optmc::runner::nominal_hops(topo, &parts, src);
    let (hold, end) = cfg.effective_pair_ports(hops, bytes, g.ports() as u64);
    let chain = algorithm.chain(topo, &parts, src);
    let splits = algorithm.splits(hold, end, k.max(2));
    let schedule = Schedule::build(k, chain.src_pos(), &splits, hold, end);
    let params = OccupancyParams::from_config(cfg, bytes);
    let conflicts = check_schedule_windowed(topo, &chain, &schedule, &params)
        .expect("deterministic routing materialises every scheduled path");

    let (validator, handle) = Validator::new(g);
    let out = run_multicast_observed(
        topo,
        cfg,
        algorithm,
        &parts,
        src,
        bytes,
        &RunOptions::default(),
        Some(validator.into_sink()),
    );
    let blocked_cycles = out.sim.blocked_cycles;
    OracleCase {
        topology: topo.name(),
        algorithm: format!("{algorithm:?}"),
        seed,
        k,
        conflicts: conflicts.len(),
        blocked_cycles,
        agree: conflicts.is_empty() == (blocked_cycles == 0),
        validation: handle.summary(),
    }
}

/// One schedule-*set* differential comparison.
#[derive(Debug, Clone)]
pub struct OracleSetCase {
    /// Topology name (e.g. `mesh-16x16`).
    pub topology: String,
    /// Algorithm under test (Debug form).
    pub algorithm: String,
    /// Number of multicasts in the set.
    pub n_mcasts: usize,
    /// Window overlaps the set analysis found (intra + cross).
    pub conflicts: usize,
    /// Member pairs sharing nodes while concurrently active.
    pub node_overlaps: usize,
    /// Whether the prover certified the set clean.
    pub certified_clean: bool,
    /// Blocked cycles the joint simulation observed.
    pub blocked_cycles: u64,
    /// Whether static verdict and simulator agree (see
    /// [`differential_set_case`] for the exact contract).
    pub agree: bool,
    /// Whether the agreement demanded was the strict biconditional
    /// (pairwise-independent members) or only the sound direction.
    pub strict: bool,
}

/// Run one schedule-set differential case: run `set` jointly in the
/// simulator and compare with `analysis`, the caller's
/// [`analyze_set`](crate::analyze_set) result for the same set under the
/// same `cfg`.
///
/// The contract depends on member independence:
///
/// * **Pairwise independent** (no concurrently-active node sharing): the
///   replay is engine-exact, so the check is the strict biconditional —
///   *certified clean ⇔ zero blocked cycles*.
/// * **Dependent members**: the set is never certified (`NC0212`), and the
///   replay may predict spurious conflicts, so only the sound direction is
///   checked: a certified-clean verdict (impossible here) would demand
///   zero blocked cycles; otherwise any simulator outcome is consistent.
///
/// # Panics
/// If `cfg.adaptive` is set (the analysis would not be exact).
pub fn differential_set_case(
    topo: &dyn Topology,
    cfg: &SimConfig,
    set: &ScheduleSet,
    analysis: &SetAnalysis,
) -> OracleSetCase {
    assert!(
        !cfg.adaptive,
        "the differential oracle requires deterministic routing"
    );
    let (_, sim) = run_concurrent(topo, cfg, set.algorithm, &set.specs);
    let strict = analysis.node_overlaps.is_empty();
    let certified_clean = analysis.is_clean();
    let agree = if strict {
        certified_clean == (sim.blocked_cycles == 0)
    } else {
        // Sound direction only; a clean certificate cannot exist here.
        !certified_clean || sim.blocked_cycles == 0
    };
    OracleSetCase {
        topology: topo.name(),
        algorithm: format!("{:?}", set.algorithm),
        n_mcasts: set.specs.len(),
        conflicts: analysis.conflicts.len(),
        node_overlaps: analysis.node_overlaps.len(),
        certified_clean,
        blocked_cycles: sim.blocked_cycles,
        agree,
        strict,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schedset::analyze_set;
    use optmc::McastSpec;
    use pcm::Time;
    use topo::Mesh;

    fn det_cfg() -> SimConfig {
        let mut cfg = SimConfig::paragon_like();
        cfg.adaptive = false;
        cfg
    }

    /// Analyze `set`, then run its differential case on that analysis.
    fn set_case(topo: &dyn Topology, cfg: &SimConfig, set: &ScheduleSet) -> OracleSetCase {
        let analysis = analyze_set(topo, cfg, set).unwrap();
        differential_set_case(topo, cfg, set, &analysis)
    }

    #[test]
    fn opt_mesh_case_is_clean_and_agrees() {
        let m = Mesh::new(&[6, 6]);
        let case = differential_case(&m, &det_cfg(), Algorithm::OptArch, 10, 1024, 7);
        assert!(case.agree, "{case:?}");
        assert_eq!(case.conflicts, 0, "{case:?}");
        assert_eq!(case.blocked_cycles, 0);
        assert!(case.validation.ok(), "{:?}", case.validation.violations);
    }

    /// Node-disjoint groups from one shuffled pool, starts spaced by `gap`.
    fn disjoint_specs(n: usize, k: usize, count: usize, gap: Time, seed: u64) -> Vec<McastSpec> {
        let pool = random_placement(n, k * count, seed);
        pool.chunks(k)
            .enumerate()
            .map(|(i, c)| McastSpec {
                participants: c.to_vec(),
                src: c[0],
                bytes: 2048,
                start: i as Time * gap,
            })
            .collect()
    }

    /// The acceptance bar: certificate-clean schedule sets show zero
    /// simulator blocked cycles across 24 seeded configurations.
    #[test]
    fn certified_clean_sets_never_block_across_24_seeds() {
        let m = Mesh::new(&[16, 16]);
        let cfg = det_cfg();
        let mut certified = 0;
        for seed in 0..24u64 {
            let set = ScheduleSet {
                specs: disjoint_specs(256, 8, 3, 2_000_000, seed),
                algorithm: Algorithm::OptArch,
            };
            let case = set_case(&m, &cfg, &set);
            assert!(case.strict, "disjoint groups must be independent");
            assert!(case.agree, "{case:?}");
            if case.certified_clean {
                certified += 1;
                assert_eq!(case.blocked_cycles, 0, "{case:?}");
            }
        }
        assert!(certified >= 20, "only {certified}/24 sets certified clean");
    }

    /// The refutation direction: simultaneous batches that the analysis
    /// flags really block, and the strict biconditional holds seed by seed.
    #[test]
    fn contended_sets_agree_strictly() {
        let m = Mesh::new(&[16, 16]);
        let cfg = det_cfg();
        let mut contended = 0;
        for seed in 0..6u64 {
            let set = ScheduleSet {
                specs: disjoint_specs(256, 24, 4, 0, seed),
                algorithm: Algorithm::OptArch,
            };
            let case = set_case(&m, &cfg, &set);
            assert!(case.strict);
            assert!(case.agree, "{case:?}");
            if !case.certified_clean {
                contended += 1;
                assert!(case.blocked_cycles > 0, "{case:?}");
            }
        }
        assert!(contended > 0, "no simultaneous batch contended");
    }

    /// Dependent members (shared nodes, simultaneous): never certified,
    /// and the sound direction of the contract holds.
    #[test]
    fn dependent_members_are_never_certified() {
        let m = Mesh::new(&[16, 16]);
        let cfg = det_cfg();
        let a = random_placement(256, 8, 101);
        let shared = a[1];
        let mut b: Vec<_> = random_placement(256, 12, 102)
            .into_iter()
            .filter(|&n| n != shared)
            .take(7)
            .collect();
        b.push(shared);
        let set = ScheduleSet {
            specs: vec![
                McastSpec {
                    src: a[0],
                    participants: a,
                    bytes: 2048,
                    start: 0,
                },
                McastSpec {
                    src: b[0],
                    participants: b,
                    bytes: 2048,
                    start: 0,
                },
            ],
            algorithm: Algorithm::OptArch,
        };
        let case = set_case(&m, &cfg, &set);
        assert!(!case.strict);
        assert!(!case.certified_clean);
        assert!(case.node_overlaps > 0);
        assert!(case.agree, "{case:?}");
    }

    #[test]
    fn opt_tree_cases_agree_even_when_contended() {
        let m = Mesh::new(&[8, 8]);
        let mut contended = 0;
        for seed in 0..10 {
            let case = differential_case(&m, &det_cfg(), Algorithm::OptTree, 14, 1024, seed);
            assert!(case.agree, "{case:?}");
            assert!(case.validation.ok(), "{:?}", case.validation.violations);
            if case.conflicts > 0 {
                contended += 1;
                assert!(case.blocked_cycles > 0);
            }
        }
        assert!(contended > 0, "no scrambled placement contended");
    }
}
