//! The routing functions, pinned.
//!
//! The simulator asks [`Topology::route_candidates`] for every hop of every
//! worm, so any change in what it returns silently changes simulation
//! results.  `route_candidates_are_pinned` hashes its whole output over the
//! (router, src, dest) product of small instances of every family and
//! compares the digest with a recorded constant; the instances cover what
//! `tests/fingerprints.rs` at the workspace root does not reach (the BMIN
//! `DestColumn` policy, 3-D and multi-port meshes, the unvirtualized torus).
//! `distance_is_the_deterministic_hop_count` pins the closed-form
//! `distance` overrides to the path walk they replace.

use topo::{Bmin, Mesh, NodeId, Omega, RouterId, Topology, Torus, UpPolicy};

/// 64-bit FNV-1a, folded over little-endian `u32` words.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn word(&mut self, w: u32) {
        for b in w.to_le_bytes() {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
    }
}

/// Digest of every candidate list `topo` returns, in (router, dest, src)
/// order, skipping `src == dest` (a node never routes to itself) and the
/// pairs `defined(router, dest)` rejects.  Each list is hashed as its
/// length followed by its channel ids.
fn digest(topo: &dyn Topology, defined: impl Fn(RouterId, NodeId) -> bool) -> u64 {
    let g = topo.graph();
    let mut h = Fnv::new();
    let mut out = Vec::new();
    let mut lists = 0u64;
    for r in (0..g.n_routers() as u32).map(RouterId) {
        for dest in (0..g.n_nodes() as u32).map(NodeId) {
            if !defined(r, dest) {
                continue;
            }
            for src in (0..g.n_nodes() as u32).map(NodeId) {
                if src == dest {
                    continue;
                }
                out.clear();
                topo.route_candidates(r, src, dest, &mut out);
                h.word(out.len() as u32);
                for c in &out {
                    h.word(c.0);
                }
                lists += 1;
            }
        }
    }
    assert!(lists > 0, "vacuous digest for {}", topo.name());
    h.0
}

/// Routing is defined everywhere on the mesh, torus and BMIN.
fn everywhere(_: RouterId, _: NodeId) -> bool {
    true
}

/// Omega routing is only defined at (router, dest) pairs its single path
/// can reach: the last stage only hosts its own two wires.
fn omega_reachable(o: &Omega) -> impl Fn(RouterId, NodeId) -> bool + '_ {
    move |r, dest| {
        let (l, idx) = o.stage_of(r);
        l + 1 < o.stages() as usize || dest.idx() >> 1 == idx
    }
}

fn meshes() -> Vec<Mesh> {
    vec![
        Mesh::new(&[5]),
        Mesh::new(&[4, 4]),
        Mesh::new(&[3, 3, 2]),
        Mesh::with_ports(&[4], 2),
        Mesh::hypercube(3),
    ]
}

fn tori() -> Vec<Torus> {
    vec![
        Torus::new(&[5]),
        Torus::new(&[4, 3]),
        Torus::new(&[2, 2]),
        Torus::unvirtualized(&[4, 4]),
    ]
}

fn bmins(stages: &[u32]) -> Vec<Bmin> {
    [UpPolicy::Straight, UpPolicy::DestColumn]
        .into_iter()
        .flat_map(|p| stages.iter().map(move |&s| Bmin::new(s, p)))
        .collect()
}

fn omegas(stages: &[u32]) -> Vec<Omega> {
    stages.iter().map(|&s| Omega::new(s)).collect()
}

#[test]
fn route_candidates_are_pinned() {
    let mut got: Vec<(String, u64)> = Vec::new();
    for t in meshes() {
        got.push((t.name(), digest(&t, everywhere)));
    }
    for t in tori() {
        got.push((t.name(), digest(&t, everywhere)));
    }
    for t in bmins(&[2, 3, 4]) {
        got.push((
            format!("{}-{:?}", t.name(), t.policy()),
            digest(&t, everywhere),
        ));
    }
    for t in omegas(&[2, 3, 4]) {
        got.push((t.name(), digest(&t, omega_reachable(&t))));
    }
    // Recorded before the mesh and torus coordinate decode was rewritten
    // to work in place; routing decisions must never change.
    let expect: &[(&str, u64)] = &[
        ("mesh-5", 0x7578_da39_74c3_7125),
        ("mesh-4x4", 0x8787_b599_cd5a_599f),
        ("mesh-3x3x2", 0x6fcf_1bee_fdeb_ad16),
        ("mesh-4-2port", 0xdbca_abf8_72ee_c421),
        ("mesh-2x2x2", 0x36ca_3b2a_4db5_3fbd),
        ("torus-5", 0x88fa_97aa_f52a_57e5),
        ("torus-4x3", 0x9af4_3f38_c3aa_ae65),
        ("torus-2x2", 0x5d81_8f49_eca1_96e5),
        ("torus-4x4-novc", 0xa7f7_f33b_7847_38a5),
        ("bmin-4x2x2-Straight", 0xd680_b904_58ba_5ae5),
        ("bmin-8x2x2-Straight", 0xb5ec_6d74_e157_aba5),
        ("bmin-16x2x2-Straight", 0x8f80_e658_5587_14a5),
        ("bmin-4x2x2-DestColumn", 0x869e_b666_1c5c_dae5),
        ("bmin-8x2x2-DestColumn", 0x386a_5bd3_3752_aba5),
        ("bmin-16x2x2-DestColumn", 0x74e1_3374_716b_14a5),
        ("omega-4", 0xb0c8_e1d7_1870_e4e5),
        ("omega-8", 0xc938_af0b_23b0_60a5),
        ("omega-16", 0x6497_49bf_1a4f_9da5),
    ];
    let got: Vec<(&str, u64)> = got.iter().map(|(n, d)| (n.as_str(), *d)).collect();
    assert_eq!(got, expect, "routing function output changed");
}

/// `distance` equals the hop count of the deterministic walk on every
/// pair, and 0 from a node to itself.
fn assert_distance_is_walk_length(t: &dyn Topology) {
    let n = t.graph().n_nodes() as u32;
    for a in (0..n).map(NodeId) {
        for b in (0..n).map(NodeId) {
            let walk = if a == b {
                0
            } else {
                t.det_path(a, b).len() - 2
            };
            assert_eq!(t.distance(a, b), walk, "{} {a:?} -> {b:?}", t.name());
        }
    }
}

#[test]
fn distance_is_the_deterministic_hop_count() {
    for t in meshes() {
        assert_distance_is_walk_length(&t);
    }
    for t in tori() {
        assert_distance_is_walk_length(&t);
    }
    for t in bmins(&[1, 2, 3, 4]) {
        assert_distance_is_walk_length(&t);
    }
    for t in omegas(&[1, 2, 3, 4]) {
        assert_distance_is_walk_length(&t);
    }
}
