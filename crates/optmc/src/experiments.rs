//! The paper's experimental protocol: random processor placements and
//! multi-trial averaging.
//!
//! §5: "we perform 16 independent experiments with the same input
//! parameters, but different processor locations (randomly picked).  Each
//! data point ... is the average of the multicast latency from all 16
//! experiments."

use flitsim::{Sim, SimConfig};
use pcm::{MsgSize, Time};
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};
use topo::{NodeId, Topology};

use crate::algorithm::Algorithm;
use crate::runner::run_multicast_on;

// ---------------------------------------------------------------------------
// Seed derivation.
//
// Per-trial placement seeds are *mixed*, not added: `seed + t` makes the
// series for seed 1997 overlap the series for seed 1998 shifted by one, and
// couples unrelated experimental cells that happen to use nearby base
// seeds.  Instead every placement seed is
// `trial_seed(seed, placement_stream(topo, k), trial)` — a splitmix64 chain
// over (campaign seed, placement-cell identity, trial index).  The stream
// id is derived from exactly the parameters that determine a placement
// (topology identity and participant count), so all algorithms, message
// sizes, and simulator configurations of the same cell see identical
// placements (the paper's §5 protocol), while a campaign cell and a solo
// rerun of that cell are bit-identical by construction.

/// SplitMix64: the statistically strong 64-bit mixer used to derive seeds.
#[must_use]
pub fn splitmix64(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// FNV-1a over `bytes` — stable content hashing for cell identities.
#[must_use]
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x100_0000_01b3);
    }
    h
}

/// The placement-relevant identity of an experimental cell: topology name
/// and participant count.  Algorithms and message sizes deliberately do
/// *not* participate — the paper compares algorithms on identical
/// placements.
#[must_use]
pub fn placement_stream(topo_name: &str, k: usize) -> u64 {
    let mut key = topo_name.as_bytes().to_vec();
    key.push(b'#');
    key.extend_from_slice(&(k as u64).to_le_bytes());
    fnv1a64(&key)
}

/// Derive the placement seed for `trial` of the cell identified by
/// `stream` under campaign/base seed `seed` (a splitmix64 chain; shared by
/// [`run_trials`] and the `campaign` crate so solo and campaign runs of
/// the same cell are bit-identical).
#[must_use]
pub fn trial_seed(seed: u64, stream: u64, trial: usize) -> u64 {
    splitmix64(splitmix64(seed ^ splitmix64(stream)).wrapping_add(trial as u64))
}

/// Pick `k` distinct participant nodes (the first is a convenient source)
/// uniformly at random, in random order — the "placement order" the
/// architecture-independent OPT-tree has to live with.
pub fn random_placement(n_nodes: usize, k: usize, seed: u64) -> Vec<NodeId> {
    assert!(
        k <= n_nodes,
        "cannot place {k} participants on {n_nodes} nodes"
    );
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
    let mut all: Vec<NodeId> = (0..n_nodes as u32).map(NodeId).collect();
    all.shuffle(&mut rng);
    all.truncate(k);
    all
}

/// Aggregate over trials of one experimental point.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct TrialStats {
    /// Number of trials.
    pub trials: usize,
    /// Mean observed multicast latency.
    pub mean_latency: f64,
    /// Minimum / maximum observed latency.
    pub min_latency: Time,
    /// Maximum observed latency.
    pub max_latency: Time,
    /// Mean analytic (contention-free) latency of the constructed trees.
    pub mean_analytic: f64,
    /// Mean head-blocked cycles per run (contention overhead).
    pub mean_blocked: f64,
    /// Fraction of runs with zero blocking.
    pub contention_free_fraction: f64,
}

impl TrialStats {
    /// Aggregate per-trial outcomes in trial order (the arithmetic is
    /// order-stable, so parallel and sequential execution agree bit for
    /// bit).
    ///
    /// # Panics
    /// If `outcomes` is empty.
    #[must_use]
    pub fn from_outcomes(outcomes: &[TrialOutcome]) -> TrialStats {
        assert!(!outcomes.is_empty(), "cannot aggregate zero trials");
        let trials = outcomes.len();
        let latencies: Vec<Time> = outcomes.iter().map(|o| o.latency).collect();
        TrialStats {
            trials,
            mean_latency: latencies.iter().sum::<Time>() as f64 / trials as f64,
            min_latency: *latencies.iter().min().expect("at least one trial"),
            max_latency: *latencies.iter().max().expect("at least one trial"),
            mean_analytic: outcomes.iter().map(|o| o.analytic as f64).sum::<f64>() / trials as f64,
            mean_blocked: outcomes.iter().map(|o| o.blocked as f64).sum::<f64>() / trials as f64,
            contention_free_fraction: outcomes.iter().filter(|o| o.contention_free).count() as f64
                / trials as f64,
        }
    }
}

/// One trial of one experimental cell, with the engine vitals the
/// observability layer attaches to every run — the campaign runner uses
/// these for its progress metrics.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct TrialOutcome {
    /// Trial index within the cell.
    pub trial: usize,
    /// The derived placement seed ([`trial_seed`]).
    pub placement_seed: u64,
    /// Observed multicast latency (cycles).
    pub latency: Time,
    /// Analytic (contention-free) latency of the constructed tree.
    pub analytic: Time,
    /// Head-blocked cycles.
    pub blocked: Time,
    /// No head ever waited.
    pub contention_free: bool,
    /// Simulator events processed (deterministic).
    pub events: u64,
    /// Wall-clock nanoseconds inside the engine (non-deterministic).
    pub wall_ns: u64,
}

/// Run `trials` random placements of `k` participants, exactly mirroring
/// the paper's protocol, and return every trial's outcome in trial order.
/// `seed` makes the whole series reproducible; trial `i` uses placement
/// seed [`trial_seed`]`(seed, placement_stream(topo, k), i)` so all
/// algorithms see identical placements.
///
/// `workers` caps the scoped worker threads trials run on; `0` means one
/// per available core.  The result is identical for any worker count
/// (results land in fixed per-trial slots).  Each worker keeps one
/// [`Sim`] across its trials, so only the first trial sizes state by the
/// network.
#[allow(clippy::too_many_arguments)]
pub fn run_trials_detailed(
    topo: &dyn Topology,
    cfg: &SimConfig,
    algorithm: Algorithm,
    k: usize,
    bytes: MsgSize,
    trials: usize,
    seed: u64,
    workers: usize,
) -> Vec<TrialOutcome> {
    assert!(trials >= 1);
    let stream = placement_stream(&topo.name(), k);
    let one = |sim: &mut Sim<_>, t: usize| {
        let placement_seed = trial_seed(seed, stream, t);
        let placement = random_placement(topo.graph().n_nodes(), k, placement_seed);
        let src = placement[0];
        let out = run_multicast_on(sim, topo, cfg, algorithm, &placement, src, bytes);
        TrialOutcome {
            trial: t,
            placement_seed,
            latency: out.latency,
            analytic: out.analytic,
            blocked: out.sim.blocked_cycles,
            contention_free: out.sim.contention_free(),
            events: out.sim.meta.events_processed,
            wall_ns: out.sim.meta.wall_ns,
        }
    };
    let workers = if workers == 0 {
        std::thread::available_parallelism().map_or(1, std::num::NonZero::get)
    } else {
        workers
    }
    .min(trials);
    if workers <= 1 {
        let mut sim = Sim::new(topo.graph());
        return (0..trials).map(|t| one(&mut sim, t)).collect();
    }
    // Static block partition: worker w takes trials [lo, hi); results land
    // in a fixed slot per trial, so aggregation order is stable.
    let mut results = vec![
        TrialOutcome {
            trial: 0,
            placement_seed: 0,
            latency: 0,
            analytic: 0,
            blocked: 0,
            contention_free: false,
            events: 0,
            wall_ns: 0,
        };
        trials
    ];
    std::thread::scope(|scope| {
        let chunk = trials.div_ceil(workers);
        for (w, slots) in results.chunks_mut(chunk).enumerate() {
            let one = &one;
            scope.spawn(move || {
                let mut sim = Sim::new(topo.graph());
                for (i, slot) in slots.iter_mut().enumerate() {
                    *slot = one(&mut sim, w * chunk + i);
                }
            });
        }
    });
    results
}

/// Run `trials` random placements of `k` participants and average, exactly
/// mirroring the paper's protocol (see [`run_trials_detailed`] for the
/// seed derivation and parallelism contract).
pub fn run_trials(
    topo: &dyn Topology,
    cfg: &SimConfig,
    algorithm: Algorithm,
    k: usize,
    bytes: MsgSize,
    trials: usize,
    seed: u64,
) -> TrialStats {
    TrialStats::from_outcomes(&run_trials_detailed(
        topo, cfg, algorithm, k, bytes, trials, seed, 0,
    ))
}

/// Deterministic jitter helper for tests and ablations: a placement biased
/// toward a sub-region (densities stress contention differently).
pub fn clustered_placement(n_nodes: usize, k: usize, cluster: usize, seed: u64) -> Vec<NodeId> {
    assert!(cluster <= n_nodes && k <= cluster.max(1));
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
    let offset = if n_nodes > cluster {
        rng.gen_range(0..n_nodes - cluster)
    } else {
        0
    };
    let mut region: Vec<NodeId> = (offset..offset + cluster)
        .map(|i| NodeId(i as u32))
        .collect();
    region.shuffle(&mut rng);
    region.truncate(k);
    region
}

#[cfg(test)]
mod tests {
    use super::*;
    use topo::Mesh;

    #[test]
    fn placement_is_distinct_and_seeded() {
        let p1 = random_placement(256, 32, 7);
        let p2 = random_placement(256, 32, 7);
        let p3 = random_placement(256, 32, 8);
        assert_eq!(p1, p2, "same seed, same placement");
        assert_ne!(p1, p3, "different seed, different placement");
        let mut sorted = p1.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), 32, "participants must be distinct");
    }

    #[test]
    #[should_panic(expected = "cannot place")]
    fn oversized_placement_panics() {
        random_placement(16, 17, 0);
    }

    #[test]
    fn trials_average_and_bound() {
        let m = Mesh::new(&[8, 8]);
        let cfg = SimConfig::paragon_like();
        let s = run_trials(&m, &cfg, Algorithm::OptArch, 8, 512, 4, 42);
        assert_eq!(s.trials, 4);
        assert!(s.min_latency as f64 <= s.mean_latency);
        assert!(s.mean_latency <= s.max_latency as f64);
        assert!(s.mean_analytic > 0.0);
    }

    #[test]
    fn trial_seeds_are_mixed_not_added() {
        // The old `seed + t` derivation made (1997, t=1) collide with
        // (1998, t=0); the splitmix chain must not.
        let s = placement_stream("mesh-16x16", 32);
        assert_ne!(trial_seed(1997, s, 1), trial_seed(1998, s, 0));
        // Deterministic, distinct across trials and streams.
        assert_eq!(trial_seed(7, s, 3), trial_seed(7, s, 3));
        assert_ne!(trial_seed(7, s, 3), trial_seed(7, s, 4));
        assert_ne!(
            trial_seed(7, placement_stream("mesh-16x16", 32), 0),
            trial_seed(7, placement_stream("bmin-128", 32), 0)
        );
    }

    #[test]
    fn placements_are_shared_across_algorithms_and_sizes() {
        // The paper's protocol: one cell's placements depend only on
        // (topology, k, seed) — identical for every algorithm and message
        // size.
        let m = Mesh::new(&[8, 8]);
        let cfg = SimConfig::paragon_like();
        let a = run_trials_detailed(&m, &cfg, Algorithm::OptArch, 8, 512, 3, 42, 1);
        let b = run_trials_detailed(&m, &cfg, Algorithm::UArch, 8, 4096, 3, 42, 1);
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.placement_seed, y.placement_seed);
        }
    }

    #[test]
    fn detailed_trials_are_worker_count_invariant() {
        let m = Mesh::new(&[8, 8]);
        let cfg = SimConfig::paragon_like();
        let seq = run_trials_detailed(&m, &cfg, Algorithm::OptArch, 8, 512, 5, 42, 1);
        let par = run_trials_detailed(&m, &cfg, Algorithm::OptArch, 8, 512, 5, 42, 4);
        // wall_ns is non-deterministic; everything else must agree.
        for (a, b) in seq.iter().zip(&par) {
            assert_eq!(a.trial, b.trial);
            assert_eq!(a.placement_seed, b.placement_seed);
            assert_eq!(a.latency, b.latency);
            assert_eq!(a.analytic, b.analytic);
            assert_eq!(a.blocked, b.blocked);
            assert_eq!(a.events, b.events);
        }
        assert_eq!(
            TrialStats::from_outcomes(&seq),
            TrialStats::from_outcomes(&par)
        );
    }

    #[test]
    fn clustered_placement_is_contained() {
        let p = clustered_placement(256, 16, 32, 3);
        assert_eq!(p.len(), 16);
        let min = p.iter().map(|n| n.0).min().unwrap();
        let max = p.iter().map(|n| n.0).max().unwrap();
        assert!(max - min < 32);
    }
}
