//! Chains — ordered sequences of the participating nodes.
//!
//! The architecture-dependent tuning of the paper is *precisely* the choice
//! of this order: OPT-mesh sorts participants into the dimension-ordered
//! chain, OPT-min into the lexicographic chain, while the portable OPT-tree
//! leaves them in whatever order the caller supplied (and pays for it with
//! contention).

use std::collections::HashSet;

use serde::{Deserialize, Serialize};

use crate::graph::NodeId;
use crate::topology::Topology;

/// Why a participant list could not be turned into a [`Chain`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ChainError {
    /// A node appears more than once among the participants.
    Duplicate(NodeId),
    /// The multicast source is not among the participants.
    MissingSource(NodeId),
}

impl std::fmt::Display for ChainError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ChainError::Duplicate(n) => write!(f, "duplicate participant {n:?}"),
            ChainError::MissingSource(n) => {
                write!(f, "source {n:?} not among the participants")
            }
        }
    }
}

impl std::error::Error for ChainError {}

/// Chains up to this long find duplicates by a pairwise scan, which is
/// faster than building a hash set at that size (the two break even at
/// about 48 nodes).
const SCAN_LEN: usize = 48;

/// The first node, in chain order, that repeats an earlier one.  Linear in
/// the chain's length beyond [`SCAN_LEN`].
fn first_repeat(nodes: &[NodeId]) -> Option<NodeId> {
    if nodes.len() <= SCAN_LEN {
        return nodes
            .iter()
            .enumerate()
            .find(|&(i, n)| nodes[..i].contains(n))
            .map(|(_, &n)| n);
    }
    let mut seen = HashSet::with_capacity(nodes.len());
    nodes.iter().copied().find(|&n| !seen.insert(n))
}

/// An ordered chain of participants with the source's position.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Chain {
    nodes: Vec<NodeId>,
    src_pos: usize,
}

impl Chain {
    /// Build a chain in the topology's architecture order (dimension-ordered
    /// for meshes, lexicographic for BMINs).  `participants` must contain
    /// `src` exactly once and no duplicates.
    ///
    /// # Panics
    /// If `participants` has duplicates or does not contain `src`.  Use
    /// [`Chain::try_sorted`] for a typed error instead.
    pub fn sorted<T: Topology + ?Sized>(topo: &T, participants: &[NodeId], src: NodeId) -> Self {
        Self::try_sorted(topo, participants, src).unwrap_or_else(|e| panic!("{e}"))
    }

    /// Fallible form of [`Chain::sorted`].
    pub fn try_sorted<T: Topology + ?Sized>(
        topo: &T,
        participants: &[NodeId],
        src: NodeId,
    ) -> Result<Self, ChainError> {
        let mut nodes = participants.to_vec();
        topo.sort_chain(&mut nodes);
        Self::try_from_ordered(nodes, src)
    }

    /// Build a chain that keeps the caller's order — the
    /// architecture-independent configuration (paper §2.2: node order
    /// unspecified, so a portable library sees arrival order).
    ///
    /// # Panics
    /// If `participants` has duplicates or does not contain `src`.  Use
    /// [`Chain::try_unsorted`] for a typed error instead.
    pub fn unsorted(participants: &[NodeId], src: NodeId) -> Self {
        Self::try_unsorted(participants, src).unwrap_or_else(|e| panic!("{e}"))
    }

    /// Fallible form of [`Chain::unsorted`].
    pub fn try_unsorted(participants: &[NodeId], src: NodeId) -> Result<Self, ChainError> {
        Self::try_from_ordered(participants.to_vec(), src)
    }

    fn try_from_ordered(nodes: Vec<NodeId>, src: NodeId) -> Result<Self, ChainError> {
        if let Some(n) = first_repeat(&nodes) {
            return Err(ChainError::Duplicate(n));
        }
        let src_pos = nodes
            .iter()
            .position(|&n| n == src)
            .ok_or(ChainError::MissingSource(src))?;
        Ok(Self { nodes, src_pos })
    }

    /// Number of participants (source included).
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// True when the chain holds just the source.
    pub fn is_empty(&self) -> bool {
        self.nodes.len() <= 1
    }

    /// Chain position of the source.
    pub fn src_pos(&self) -> usize {
        self.src_pos
    }

    /// Node at a chain position.
    pub fn node(&self, pos: usize) -> NodeId {
        self.nodes[pos]
    }

    /// All nodes in chain order.
    pub fn nodes(&self) -> &[NodeId] {
        &self.nodes
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mesh::Mesh;

    #[test]
    fn sorted_chain_orders_by_key() {
        let m = Mesh::new(&[4, 4]);
        // Keys are X-major on a 4x4 mesh: 5=(1,1)->5, 9=(1,2)->6,
        // 2=(2,0)->8, 14=(2,3)->11.
        let parts = [NodeId(9), NodeId(2), NodeId(14), NodeId(5)];
        let c = Chain::sorted(&m, &parts, NodeId(9));
        assert_eq!(c.nodes(), &[NodeId(5), NodeId(9), NodeId(2), NodeId(14)]);
        assert_eq!(c.src_pos(), 1);
        assert_eq!(c.len(), 4);
    }

    #[test]
    fn unsorted_chain_preserves_order() {
        let parts = [NodeId(9), NodeId(2), NodeId(14)];
        let c = Chain::unsorted(&parts, NodeId(14));
        assert_eq!(c.nodes(), &parts);
        assert_eq!(c.src_pos(), 2);
    }

    #[test]
    #[should_panic(expected = "not among the participants")]
    fn missing_source_panics() {
        Chain::unsorted(&[NodeId(1), NodeId(2)], NodeId(3));
    }

    #[test]
    #[should_panic(expected = "duplicate participant")]
    fn duplicate_panics() {
        Chain::unsorted(&[NodeId(1), NodeId(1)], NodeId(1));
    }

    #[test]
    fn try_variants_return_typed_errors() {
        assert_eq!(
            Chain::try_unsorted(&[NodeId(1), NodeId(2)], NodeId(3)),
            Err(ChainError::MissingSource(NodeId(3)))
        );
        assert_eq!(
            Chain::try_unsorted(&[NodeId(1), NodeId(1)], NodeId(1)),
            Err(ChainError::Duplicate(NodeId(1)))
        );
        let m = Mesh::new(&[4, 4]);
        assert!(Chain::try_sorted(&m, &[NodeId(2), NodeId(5)], NodeId(5)).is_ok());
    }

    #[test]
    fn the_first_repeat_in_chain_order_is_reported() {
        // On a 16x16 mesh node 3 = (3,0) has chain key 48 and node 200 =
        // (8,12) key 140, node 40 = (8,2) key 130 and node 60 = (12,3) key
        // 195.  Each case runs a short chain (pairwise scan) and one longer
        // than SCAN_LEN (hash set).
        let m = Mesh::new(&[16, 16]);
        let dup = |head: &[u32], tail: &[u32], len: u32| {
            let mut parts: Vec<NodeId> = head.iter().map(|&n| NodeId(n)).collect();
            parts.extend((100..100 + len).map(NodeId));
            parts.extend(tail.iter().map(|&n| NodeId(n)));
            let src = parts[0];
            (
                Chain::try_unsorted(&parts, src),
                Chain::try_sorted(&m, &parts, src),
            )
        };
        for len in [0, 100] {
            // 200 repeats before 3 does in the given order; sorted, the
            // lower key (3) comes first.
            assert_eq!(
                dup(&[200, 3], &[200, 3], len),
                (
                    Err(ChainError::Duplicate(NodeId(200))),
                    Err(ChainError::Duplicate(NodeId(3)))
                ),
                "len {len}"
            );
            // 60 appears after 40 but repeats first.
            assert_eq!(
                dup(&[40, 60], &[60, 40], len),
                (
                    Err(ChainError::Duplicate(NodeId(60))),
                    Err(ChainError::Duplicate(NodeId(40)))
                ),
                "len {len}"
            );
        }
    }

    #[test]
    fn singleton_chain() {
        let c = Chain::unsorted(&[NodeId(7)], NodeId(7));
        assert!(c.is_empty());
        assert_eq!(c.src_pos(), 0);
    }
}
