//! The multicast algorithms of the paper's evaluation.

use mtree::SplitStrategy;
use pcm::Time;
use serde::{Deserialize, Serialize};
use topo::{Chain, NodeId, Topology};

/// How the participants are arranged into a chain.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Ordering {
    /// The architecture's contention-avoiding order: dimension-ordered on a
    /// mesh, lexicographic on a BMIN (the paper's tuning).
    Architecture,
    /// Whatever order the caller supplied (the portable, architecture-
    /// independent configuration — pays with contention).
    Placement,
}

/// Which split rule shapes the tree.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum SplitKind {
    /// The OPT-tree dynamic program on the measured `(t_hold, t_end)`.
    Opt,
    /// Recursive halving (binomial tree).
    Binomial,
    /// Peel one destination per send (sequential tree).
    Sequential,
}

/// A named multicast algorithm = ordering × split rule.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Algorithm {
    /// OPT-mesh (Alg. 3.1) / OPT-min (Alg. 4.1): optimal splits on the
    /// architecture chain.  Which name applies depends on the topology the
    /// run uses; the code is identical — that is the paper's point.
    OptArch,
    /// U-mesh / U-min: binomial splits on the architecture chain.
    UArch,
    /// OPT-tree: optimal splits, placement order (no tuning).
    OptTree,
    /// Binomial tree in placement order (an untuned U-mesh; not in the
    /// paper's plots but a useful ablation of "ordering vs splits").
    BinomialTree,
    /// Sequential tree in placement order (\[5\]).
    Sequential,
}

impl Algorithm {
    /// All algorithms the paper's mesh figures compare, in plot order.
    pub const PAPER_SET: [Algorithm; 3] =
        [Algorithm::UArch, Algorithm::OptTree, Algorithm::OptArch];

    /// Every algorithm, in a stable order.
    pub const ALL: [Algorithm; 5] = [
        Algorithm::OptArch,
        Algorithm::UArch,
        Algorithm::OptTree,
        Algorithm::BinomialTree,
        Algorithm::Sequential,
    ];

    /// Canonical, architecture-independent identifier — the stable name
    /// used in campaign specs, cell keys, and the CLI (`opt-arch`, …).
    /// Inverse of [`Algorithm::parse`].
    pub fn id(self) -> &'static str {
        match self {
            Algorithm::OptArch => "opt-arch",
            Algorithm::UArch => "u-arch",
            Algorithm::OptTree => "opt-tree",
            Algorithm::BinomialTree => "binomial",
            Algorithm::Sequential => "sequential",
        }
    }

    /// Parse an algorithm name (canonical ids plus the paper's
    /// architecture-specific aliases).
    pub fn parse(name: &str) -> Result<Algorithm, String> {
        match name {
            "opt-arch" | "opt-mesh" | "opt-min" => Ok(Algorithm::OptArch),
            "u-arch" | "u-mesh" | "u-min" => Ok(Algorithm::UArch),
            "opt-tree" => Ok(Algorithm::OptTree),
            "binomial" => Ok(Algorithm::BinomialTree),
            "sequential" | "seq" => Ok(Algorithm::Sequential),
            other => Err(format!(
                "unknown algorithm '{other}' (expected opt-arch / u-arch / opt-tree / binomial / sequential)"
            )),
        }
    }

    /// The ordering component.
    pub fn ordering(self) -> Ordering {
        match self {
            Algorithm::OptArch | Algorithm::UArch => Ordering::Architecture,
            _ => Ordering::Placement,
        }
    }

    /// The split-rule component.
    pub fn split_kind(self) -> SplitKind {
        match self {
            Algorithm::OptArch | Algorithm::OptTree => SplitKind::Opt,
            Algorithm::UArch | Algorithm::BinomialTree => SplitKind::Binomial,
            Algorithm::Sequential => SplitKind::Sequential,
        }
    }

    /// Display name, specialised to the topology (OPT-mesh vs OPT-min etc.).
    pub fn display_name(self, topo: &dyn Topology) -> String {
        let arch = if topo.name().starts_with("mesh") {
            "mesh"
        } else {
            "min"
        };
        match self {
            Algorithm::OptArch => format!("OPT-{arch}"),
            Algorithm::UArch => format!("U-{arch}"),
            Algorithm::OptTree => "OPT-tree".to_string(),
            Algorithm::BinomialTree => "binomial-unordered".to_string(),
            Algorithm::Sequential => "sequential".to_string(),
        }
    }

    /// Build the chain this algorithm uses over `participants` (source
    /// included, any position).
    pub fn chain(self, topo: &dyn Topology, participants: &[NodeId], src: NodeId) -> Chain {
        match self.ordering() {
            Ordering::Architecture => Chain::sorted(topo, participants, src),
            Ordering::Placement => Chain::unsorted(participants, src),
        }
    }

    /// Build the split strategy for `k` participants under the measured
    /// `(t_hold, t_end)` pair.
    pub fn splits(self, hold: Time, end: Time, k: usize) -> SplitStrategy {
        match self.split_kind() {
            SplitKind::Opt => SplitStrategy::opt(hold, end, k),
            SplitKind::Binomial => SplitStrategy::Binomial,
            SplitKind::Sequential => SplitStrategy::Sequential,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use topo::{Bmin, Mesh, UpPolicy};

    #[test]
    fn names_specialise_to_topology() {
        let mesh = Mesh::new(&[4, 4]);
        let bmin = Bmin::new(4, UpPolicy::Straight);
        assert_eq!(Algorithm::OptArch.display_name(&mesh), "OPT-mesh");
        assert_eq!(Algorithm::OptArch.display_name(&bmin), "OPT-min");
        assert_eq!(Algorithm::UArch.display_name(&mesh), "U-mesh");
        assert_eq!(Algorithm::UArch.display_name(&bmin), "U-min");
        assert_eq!(Algorithm::OptTree.display_name(&mesh), "OPT-tree");
    }

    #[test]
    fn components_decompose() {
        assert_eq!(Algorithm::OptArch.ordering(), Ordering::Architecture);
        assert_eq!(Algorithm::OptArch.split_kind(), SplitKind::Opt);
        assert_eq!(Algorithm::UArch.split_kind(), SplitKind::Binomial);
        assert_eq!(Algorithm::OptTree.ordering(), Ordering::Placement);
        assert_eq!(Algorithm::Sequential.split_kind(), SplitKind::Sequential);
    }

    #[test]
    fn chains_follow_ordering() {
        let mesh = Mesh::new(&[4, 4]);
        let parts = [NodeId(2), NodeId(9), NodeId(14)];
        // X-major keys on 4x4: 9=(1,2)->6, 2=(2,0)->8, 14=(2,3)->11.
        let sorted = Algorithm::OptArch.chain(&mesh, &parts, NodeId(9));
        assert_eq!(sorted.nodes(), &[NodeId(9), NodeId(2), NodeId(14)]);
        let placed = Algorithm::OptTree.chain(&mesh, &parts, NodeId(9));
        assert_eq!(placed.nodes(), &parts);
    }
}
