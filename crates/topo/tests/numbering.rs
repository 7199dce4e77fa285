//! The channel numbering, pinned.
//!
//! Every channel id is an index into the simulator's per-channel state and
//! into `SimResult::channels`, and heatmaps, traces and certificates name
//! channels by id.  `channel_ids_are_pinned` hashes, per shape, the channel
//! and router counts, both endpoints of every channel in id order, and
//! every node's injection and consumption ids, and compares the digest with
//! a constant recorded before the numbering became arithmetic.  The routing
//! digests (`routing.rs`) pin only the ids routes take, and no endpoints.

use topo::{Bmin, ChannelId, Endpoint, Mesh, NodeId, Omega, Topology, Torus, UpPolicy};

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

    /// An endpoint as a kind tag (0 node, 1 router) and its index.
    fn endpoint(&mut self, e: Endpoint) {
        match e {
            Endpoint::Node(n) => {
                self.word(0);
                self.word(n.0);
            }
            Endpoint::Router(r) => {
                self.word(1);
                self.word(r.0);
            }
        }
    }
}

/// Digest of `topo`'s whole numbering.
fn digest(topo: &dyn Topology) -> u64 {
    let g = topo.graph();
    let mut h = Fnv::new();
    h.word(g.n_channels() as u32);
    h.word(g.n_routers() as u32);
    for c in 0..g.n_channels() as u32 {
        let ch = g.channel(ChannelId(c));
        h.endpoint(ch.src);
        h.endpoint(ch.dst);
    }
    for n in (0..g.n_nodes() as u32).map(NodeId) {
        for c in g.injections(n) {
            h.word(c.0);
        }
        for c in g.consumptions(n) {
            h.word(c.0);
        }
    }
    h.0
}

fn shapes() -> Vec<(String, Box<dyn Topology>)> {
    let mut out: Vec<(String, Box<dyn Topology>)> = Vec::new();
    let meshes = [
        Mesh::new(&[1]),
        Mesh::new(&[6]),
        Mesh::new(&[1, 5]),
        Mesh::new(&[4, 3, 2]),
        Mesh::with_ports(&[5, 7], 2),
        Mesh::new(&[2; 10]),
    ];
    for t in meshes {
        out.push((t.name(), Box::new(t)));
    }
    let tori = [
        Torus::new(&[5]),
        Torus::new(&[2, 2]),
        Torus::new(&[3, 5, 2]),
        Torus::unvirtualized(&[4, 4]),
    ];
    for t in tori {
        out.push((t.name(), Box::new(t)));
    }
    for policy in [UpPolicy::Straight, UpPolicy::DestColumn] {
        for s in 1..=7 {
            let t = Bmin::new(s, policy);
            out.push((format!("{}-{policy:?}", t.name()), Box::new(t)));
        }
    }
    for s in 1..=7 {
        let t = Omega::new(s);
        out.push((t.name(), Box::new(t)));
    }
    out
}

#[test]
fn channel_ids_are_pinned() {
    let got: Vec<(String, u64)> = shapes()
        .iter()
        .map(|(name, t)| (name.clone(), digest(t.as_ref())))
        .collect();
    // Recorded while every family still filled its graph through a builder.
    let expect: &[(&str, u64)] = &[
        ("mesh-1", 0x5937_71b2_34bd_09e7),
        ("mesh-6", 0xd49e_6688_204f_7215),
        ("mesh-1x5", 0xc195_b09e_52ab_e073),
        ("mesh-4x3x2", 0xba37_f84b_08e0_a8f1),
        ("mesh-5x7-2port", 0x74a4_6587_4570_3449),
        ("mesh-2x2x2x2x2x2x2x2x2x2", 0xd890_73b0_cd69_b4c9),
        ("torus-5", 0x56dc_0c23_ad38_33ff),
        ("torus-2x2", 0x48f2_7f5e_b8a8_bda9),
        ("torus-3x5x2", 0x2b10_a687_041f_c3f8),
        ("torus-4x4-novc", 0xd2e7_4b81_d1b3_5755),
        ("bmin-2x2x2-Straight", 0xcb9b_35dd_4f97_b050),
        ("bmin-4x2x2-Straight", 0x8675_6e1d_e9bd_9b51),
        ("bmin-8x2x2-Straight", 0xc185_6ffd_6e10_5e79),
        ("bmin-16x2x2-Straight", 0x2df1_1a65_12b3_a3a5),
        ("bmin-32x2x2-Straight", 0xa83b_25e9_44c8_f67a),
        ("bmin-64x2x2-Straight", 0xf383_080f_cc99_b674),
        ("bmin-128x2x2-Straight", 0xde5a_6ec2_6132_c8b3),
        ("bmin-2x2x2-DestColumn", 0xcb9b_35dd_4f97_b050),
        ("bmin-4x2x2-DestColumn", 0x8675_6e1d_e9bd_9b51),
        ("bmin-8x2x2-DestColumn", 0xc185_6ffd_6e10_5e79),
        ("bmin-16x2x2-DestColumn", 0x2df1_1a65_12b3_a3a5),
        ("bmin-32x2x2-DestColumn", 0xa83b_25e9_44c8_f67a),
        ("bmin-64x2x2-DestColumn", 0xf383_080f_cc99_b674),
        ("bmin-128x2x2-DestColumn", 0xde5a_6ec2_6132_c8b3),
        ("omega-2", 0xcb9b_35dd_4f97_b050),
        ("omega-4", 0x6e4d_c12f_abbc_154d),
        ("omega-8", 0xaec6_3073_6866_0469),
        ("omega-16", 0x1b25_5546_ab60_7bb5),
        ("omega-32", 0x216d_a208_b41c_a6b5),
        ("omega-64", 0x9529_3efc_d29f_c46a),
        ("omega-128", 0xe5c4_3763_70b3_78ee),
    ];
    let got: Vec<(&str, u64)> = got.iter().map(|(n, d)| (n.as_str(), *d)).collect();
    assert_eq!(got, expect, "channel numbering changed");
}
