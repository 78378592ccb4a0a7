//! Dynamic networks: snapshot sequences and their construction from
//! timestamped edge streams (Definition 2 and §5.1.1).

use crate::diff::SnapshotDiff;
use crate::id::TimedEdge;
use crate::snapshot::Snapshot;
use crate::state::GraphState;

/// A dynamic network `G = (G^0, G^1, ..., G^T)`.
#[derive(Debug, Clone, Default)]
pub struct DynamicNetwork {
    snapshots: Vec<Snapshot>,
}

impl DynamicNetwork {
    /// Build from a timestamped edge stream using the paper's recipe
    /// (§5.1.1): snapshot `G^k` contains all edges with
    /// `time <= cutoffs[k]`; every snapshot is reduced to its largest
    /// connected component. Cutoffs must be non-decreasing.
    pub fn from_edge_stream(mut stream: Vec<TimedEdge>, cutoffs: &[u64]) -> Self {
        assert!(
            cutoffs.windows(2).all(|w| w[0] <= w[1]),
            "cutoff timestamps must be non-decreasing"
        );
        stream.sort_by_key(|te| te.time);
        let mut state = GraphState::new();
        let mut pos = 0usize;
        let mut snapshots = Vec::with_capacity(cutoffs.len());
        for &cut in cutoffs {
            while pos < stream.len() && stream[pos].time <= cut {
                let e = stream[pos].edge;
                state.add_edge(e.u, e.v);
                pos += 1;
            }
            snapshots.push(state.commit_lcc());
        }
        DynamicNetwork { snapshots }
    }

    /// Number of time steps.
    pub fn len(&self) -> usize {
        self.snapshots.len()
    }

    /// Whether the network has no snapshots.
    pub fn is_empty(&self) -> bool {
        self.snapshots.is_empty()
    }

    /// Snapshot at time step `t`.
    pub fn snapshot(&self, t: usize) -> &Snapshot {
        &self.snapshots[t]
    }

    /// All snapshots.
    pub fn snapshots(&self) -> &[Snapshot] {
        &self.snapshots
    }

    /// Append a snapshot (used by generators that evolve graphs directly,
    /// e.g. the AS733 analogue with node churn).
    pub fn push(&mut self, s: Snapshot) {
        self.snapshots.push(s);
    }

    /// Diff between steps `t-1` and `t`.
    pub fn diff_at(&self, t: usize) -> SnapshotDiff {
        assert!(t >= 1 && t < self.len(), "diff needs 1 <= t < len");
        SnapshotDiff::compute(&self.snapshots[t - 1], &self.snapshots[t])
    }

    /// Total nodes and edges summed over all snapshots — the "# of nodes
    /// / # of edges" rows of Table 4.
    pub fn totals(&self) -> (usize, usize) {
        self.snapshots
            .iter()
            .fold((0, 0), |(n, e), s| (n + s.num_nodes(), e + s.num_edges()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::id::NodeId;

    #[test]
    fn edge_stream_cutting() {
        let stream = vec![
            TimedEdge::new(NodeId(0), NodeId(1), 1),
            TimedEdge::new(NodeId(1), NodeId(2), 2),
            TimedEdge::new(NodeId(2), NodeId(3), 5),
        ];
        let net = DynamicNetwork::from_edge_stream(stream, &[1, 2, 10]);
        assert_eq!(net.len(), 3);
        assert_eq!(net.snapshot(0).num_nodes(), 2);
        assert_eq!(net.snapshot(1).num_nodes(), 3);
        assert_eq!(net.snapshot(2).num_nodes(), 4);
    }

    #[test]
    fn snapshots_are_lccs() {
        // At cutoff 1 the stream has two disconnected edges; the LCC rule
        // keeps only one of them.
        let stream = vec![
            TimedEdge::new(NodeId(0), NodeId(1), 0),
            TimedEdge::new(NodeId(5), NodeId(6), 0),
            TimedEdge::new(NodeId(1), NodeId(5), 2),
        ];
        let net = DynamicNetwork::from_edge_stream(stream, &[1, 2]);
        assert_eq!(net.snapshot(0).num_nodes(), 2);
        assert_eq!(net.snapshot(1).num_nodes(), 4);
    }

    #[test]
    fn unsorted_stream_is_sorted_internally() {
        let stream = vec![
            TimedEdge::new(NodeId(2), NodeId(3), 9),
            TimedEdge::new(NodeId(0), NodeId(1), 1),
        ];
        let net = DynamicNetwork::from_edge_stream(stream, &[1, 9]);
        assert_eq!(net.snapshot(0).num_edges(), 1);
        assert_eq!(net.snapshot(1).num_edges(), 1); // LCC keeps one edge of two disconnected
    }

    #[test]
    #[should_panic(expected = "non-decreasing")]
    fn decreasing_cutoffs_panic() {
        DynamicNetwork::from_edge_stream(vec![], &[5, 1]);
    }

    #[test]
    fn totals_sum_over_snapshots() {
        let stream = vec![
            TimedEdge::new(NodeId(0), NodeId(1), 0),
            TimedEdge::new(NodeId(1), NodeId(2), 1),
        ];
        let net = DynamicNetwork::from_edge_stream(stream, &[0, 1]);
        let (n, e) = net.totals();
        assert_eq!(n, 2 + 3);
        assert_eq!(e, 1 + 2);
    }

    #[test]
    fn diff_at_consecutive() {
        let stream = vec![
            TimedEdge::new(NodeId(0), NodeId(1), 0),
            TimedEdge::new(NodeId(1), NodeId(2), 1),
        ];
        let net = DynamicNetwork::from_edge_stream(stream, &[0, 1]);
        let d = net.diff_at(1);
        assert_eq!(d.added.len(), 1);
        assert!(d.removed.is_empty());
    }
}
