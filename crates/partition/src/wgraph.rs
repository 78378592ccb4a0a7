//! Weighted working graph used inside the multilevel partitioner.
//!
//! Coarse levels carry node weights (number of original nodes collapsed
//! into each super-node) and edge weights (number of original edges
//! crossing between two super-nodes), which is what keeps the balance
//! constraint (Eq. 2) meaningful across levels.

use glodyne_graph::Snapshot;

/// Adjacency-list weighted graph.
#[derive(Debug, Clone)]
pub struct WGraph {
    /// Node weights (collapsed original-node counts).
    pub vwgt: Vec<u64>,
    /// Per-node adjacency: (neighbor, edge weight). Sorted by neighbor.
    pub adj: Vec<Vec<(u32, u64)>>,
}

impl WGraph {
    /// Lift an unweighted snapshot into a weighted working graph with
    /// unit node and edge weights.
    pub fn from_snapshot(g: &Snapshot) -> Self {
        let n = g.num_nodes();
        let mut adj = Vec::with_capacity(n);
        for v in 0..n {
            adj.push(g.neighbors(v).iter().map(|&u| (u, 1u64)).collect());
        }
        WGraph {
            vwgt: vec![1; n],
            adj,
        }
    }

    /// Number of nodes.
    #[inline]
    pub fn len(&self) -> usize {
        self.vwgt.len()
    }

    /// Whether the graph has no nodes.
    pub fn is_empty(&self) -> bool {
        self.vwgt.is_empty()
    }

    /// Total node weight.
    pub fn total_weight(&self) -> u64 {
        self.vwgt.iter().sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use glodyne_graph::id::{Edge, NodeId};

    #[test]
    fn lifts_snapshot_with_unit_weights() {
        let g = Snapshot::from_edges(
            &[
                Edge::new(NodeId(0), NodeId(1)),
                Edge::new(NodeId(1), NodeId(2)),
            ],
            &[],
        );
        let w = WGraph::from_snapshot(&g);
        assert_eq!(w.len(), 3);
        assert_eq!(w.total_weight(), 3);
    }
}
