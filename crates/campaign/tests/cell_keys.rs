//! Property: cell keys are injective over any campaign grid — two
//! distinct cells never share a key, across topologies, algorithms,
//! participant counts, sizes, trial counts, and seeds.

use std::collections::HashMap;

use campaign::{expand, CampaignSpec, Cell};
use optmc::Algorithm;
use proptest::prelude::*;

const TOPO_POOL: [&str; 5] = [
    "mesh:8x8",
    "mesh:16x16",
    "bmin:64",
    "torus:4x4",
    "hypercube:6",
];

fn build_spec(
    ntopos: usize,
    nalgs: usize,
    ks: &[usize],
    sizes: &[u64],
    trials: usize,
    seed: u64,
) -> CampaignSpec {
    let mut ks = ks.to_vec();
    ks.sort_unstable();
    ks.dedup();
    let mut sizes = sizes.to_vec();
    sizes.sort_unstable();
    sizes.dedup();
    CampaignSpec {
        name: "prop".into(),
        seed,
        trials,
        topos: TOPO_POOL[..ntopos]
            .iter()
            .map(|s| (*s).to_string())
            .collect(),
        algorithms: Algorithm::ALL[..nalgs].to_vec(),
        ks,
        sizes,
        budget_ms: None,
        figure: None,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(200))]

    #[test]
    fn cell_keys_are_injective_over_the_grid(
        ntopos in 1usize..6,
        nalgs in 1usize..6,
        ks in proptest::collection::vec(2usize..257, 1..5),
        sizes in proptest::collection::vec(0u64..65537, 1..5),
        trials in 1usize..33,
        seed in 0u64..100_000,
    ) {
        let spec = build_spec(ntopos, nalgs, &ks, &sizes, trials, seed);
        let cells = expand(&spec);
        let mut seen: HashMap<String, &Cell> = HashMap::new();
        for cell in &cells {
            if let Some(other) = seen.insert(cell.key(), cell) {
                panic!("key collision: {other:?} vs {cell:?} -> {}", cell.key());
            }
        }
        prop_assert_eq!(seen.len(), cells.len());
    }

    #[test]
    fn cell_keys_separate_trials_and_seeds(
        trials_a in 1usize..33,
        trials_b in 1usize..33,
        seed_a in 0u64..1000,
        seed_b in 0u64..1000,
    ) {
        prop_assume!(trials_a != trials_b || seed_a != seed_b);
        let a = expand(&build_spec(2, 2, &[8, 32], &[0, 4096], trials_a, seed_a));
        let b = expand(&build_spec(2, 2, &[8, 32], &[0, 4096], trials_b, seed_b));
        for (x, y) in a.iter().zip(&b) {
            prop_assert_ne!(x.key(), y.key());
        }
    }
}
