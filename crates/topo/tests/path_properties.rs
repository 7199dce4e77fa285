//! Property tests over randomly shaped networks: routing invariants the
//! simulator and schedulers silently rely on.

use proptest::prelude::*;
use topo::{Bmin, Mesh, NodeId, Omega, Topology, Torus, UpPolicy};

fn mesh_dims() -> impl Strategy<Value = Vec<usize>> {
    proptest::collection::vec(2usize..6, 1..4)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Every mesh path terminates at its destination, is cycle-free, and
    /// has exactly Manhattan-distance router hops.
    #[test]
    fn mesh_paths_are_minimal_and_simple(dims in mesh_dims(), sa in any::<u32>(), sb in any::<u32>()) {
        let m = Mesh::new(&dims);
        let n = m.graph().n_nodes() as u32;
        let (a, b) = (NodeId(sa % n), NodeId(sb % n));
        prop_assume!(a != b);
        let p = m.det_path(a, b);
        prop_assert_eq!(m.graph().dst_node(*p.last().unwrap()), Some(b));
        prop_assert_eq!(p.len() - 2, m.distance(a, b));
        for (i, c) in p.iter().enumerate() {
            prop_assert!(!p[..i].contains(c), "repeated channel in {:?}->{:?}", a, b);
        }
    }

    /// Chain keys are a total order on every mesh (all distinct).
    #[test]
    fn mesh_chain_keys_are_distinct(dims in mesh_dims()) {
        let m = Mesh::new(&dims);
        let mut keys: Vec<u64> =
            (0..m.graph().n_nodes() as u32).map(|i| m.chain_key(NodeId(i))).collect();
        keys.sort_unstable();
        let before = keys.len();
        keys.dedup();
        prop_assert_eq!(keys.len(), before);
    }

    /// Torus paths never exceed half the ring in any dimension.
    #[test]
    fn torus_paths_take_short_arcs(side in 2usize..8, sa in any::<u32>(), sb in any::<u32>()) {
        let t = Torus::new(&[side, side]);
        let n = (side * side) as u32;
        let (a, b) = (NodeId(sa % n), NodeId(sb % n));
        prop_assume!(a != b);
        let p = t.det_path(a, b);
        prop_assert_eq!(p.len() - 2, t.distance(a, b));
        prop_assert!(p.len() - 2 <= 2 * (side / 2) + 1);
    }

    /// BMIN routing is symmetric in hop count and respects the turn stage.
    #[test]
    fn bmin_hops_match_turn_stage(s in 2u32..7, sa in any::<u32>(), sb in any::<u32>()) {
        let b = Bmin::new(s, UpPolicy::Straight);
        let n = b.graph().n_nodes() as u32;
        let (x, y) = (NodeId(sa % n), NodeId(sb % n));
        prop_assume!(x != y);
        let fwd = b.det_path(x, y).len();
        let rev = b.det_path(y, x).len();
        prop_assert_eq!(fwd, rev, "turnaround distance must be symmetric");
        prop_assert_eq!(fwd, 2 * b.turn_stage(x, y) as usize + 2);
    }

    /// Omega: all paths have uniform length s+1 channels.
    #[test]
    fn omega_uniform_path_length(s in 2u32..7, sa in any::<u32>(), sb in any::<u32>()) {
        let o = Omega::new(s);
        let n = o.graph().n_nodes() as u32;
        let (x, y) = (NodeId(sa % n), NodeId(sb % n));
        prop_assume!(x != y);
        prop_assert_eq!(o.det_path(x, y).len(), s as usize + 1);
    }

    /// Sorting a chain is idempotent and preserves the node multiset.
    #[test]
    fn chain_sort_is_permutation(dims in mesh_dims(), seed in any::<u64>()) {
        use rand::seq::SliceRandom;
        use rand::SeedableRng;
        let m = Mesh::new(&dims);
        let n = m.graph().n_nodes();
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let mut nodes: Vec<NodeId> = (0..n as u32).map(NodeId).collect();
        nodes.shuffle(&mut rng);
        nodes.truncate((n / 2).max(1));
        let mut sorted = nodes.clone();
        m.sort_chain(&mut sorted);
        let mut resorted = sorted.clone();
        m.sort_chain(&mut resorted);
        prop_assert_eq!(&sorted, &resorted, "sort must be idempotent");
        let mut a = nodes;
        let mut b = sorted;
        a.sort_unstable();
        b.sort_unstable();
        prop_assert_eq!(a, b, "sort must be a permutation");
    }
}
