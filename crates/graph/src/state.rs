//! Incremental graph state for event streams.
//!
//! The batch pipeline re-cuts every snapshot from the full edge stream
//! (`DynamicNetwork::from_edge_stream`). A streaming session instead
//! keeps one mutable [`GraphState`], applies [`GraphEvent`]s as they
//! arrive, and takes a cheap [`GraphState::commit`] at each epoch
//! boundary — O(current graph) per snapshot instead of O(total stream),
//! with the produced [`Snapshot`]s identical to the batch recipe over
//! the same edge set.

use crate::components::largest_connected_component;
use crate::id::{Edge, NodeId, TimedEdge};
use crate::snapshot::Snapshot;
use std::collections::{BTreeMap, BTreeSet};

/// What happened to the graph (the payload of a [`GraphEvent`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum GraphEventKind {
    /// An undirected edge appeared (self-loops are ignored on apply).
    AddEdge(Edge),
    /// An undirected edge disappeared.
    RemoveEdge(Edge),
    /// A node left the network along with all incident edges (AS733's
    /// router churn).
    RemoveNode(NodeId),
}

/// A timestamped mutation of the dynamic network — the event-stream
/// generalisation of the paper's add-only `(v_i, v_j, timestamp)`
/// records (§5.1.1), extended with removals for churning networks.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GraphEvent {
    /// What changed.
    pub kind: GraphEventKind,
    /// Arbitrary monotone timestamp (same clock as [`TimedEdge`]).
    pub time: u64,
}

impl GraphEvent {
    /// An edge-addition event.
    pub fn add_edge(a: NodeId, b: NodeId, time: u64) -> Self {
        GraphEvent {
            kind: GraphEventKind::AddEdge(Edge::new(a, b)),
            time,
        }
    }

    /// An edge-removal event.
    pub fn remove_edge(a: NodeId, b: NodeId, time: u64) -> Self {
        GraphEvent {
            kind: GraphEventKind::RemoveEdge(Edge::new(a, b)),
            time,
        }
    }

    /// A node-removal event.
    pub fn remove_node(n: NodeId, time: u64) -> Self {
        GraphEvent {
            kind: GraphEventKind::RemoveNode(n),
            time,
        }
    }
}

impl From<TimedEdge> for GraphEvent {
    /// A timed edge from the add-only stream format is an addition.
    fn from(te: TimedEdge) -> Self {
        GraphEvent {
            kind: GraphEventKind::AddEdge(te.edge),
            time: te.time,
        }
    }
}

/// Mutable adjacency keyed by stable [`NodeId`], built up from
/// [`GraphEvent`]s and committed to immutable [`Snapshot`]s at epoch
/// boundaries.
///
/// Nodes exist exactly while they have at least one incident edge (the
/// same node-set rule as `Snapshot::from_edges`), so a commit after any
/// event sequence equals a batch build over the surviving edge set.
/// This is the workspace's one mutable graph: streaming sessions,
/// `DynamicNetwork::from_edge_stream` and the dataset generators all
/// build their snapshots through it.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct GraphState {
    adj: BTreeMap<NodeId, BTreeSet<NodeId>>,
    num_edges: usize,
}

impl GraphState {
    /// New empty state.
    pub fn new() -> Self {
        Self::default()
    }

    /// Apply one event; returns whether the graph actually changed
    /// (duplicate additions, missing removals, and self-loops don't).
    pub fn apply(&mut self, event: &GraphEvent) -> bool {
        match event.kind {
            GraphEventKind::AddEdge(e) => self.add_edge(e.u, e.v),
            GraphEventKind::RemoveEdge(e) => self.remove_edge(e.u, e.v),
            GraphEventKind::RemoveNode(n) => self.remove_node(n) > 0,
        }
    }

    /// Insert an undirected edge; returns true if it was new. Self-loops
    /// are ignored.
    pub fn add_edge(&mut self, a: NodeId, b: NodeId) -> bool {
        if a == b {
            return false;
        }
        let new = self.adj.entry(a).or_default().insert(b);
        if new {
            self.adj.entry(b).or_default().insert(a);
            self.num_edges += 1;
        }
        new
    }

    /// Remove an undirected edge; returns true if it was present.
    /// Endpoints left with no edges leave the node set.
    pub fn remove_edge(&mut self, a: NodeId, b: NodeId) -> bool {
        let removed = match self.adj.get_mut(&a) {
            Some(ns) => ns.remove(&b),
            None => false,
        };
        if removed {
            if self.adj[&a].is_empty() {
                self.adj.remove(&a);
            }
            let bn = self.adj.get_mut(&b).expect("symmetric adjacency");
            bn.remove(&a);
            if bn.is_empty() {
                self.adj.remove(&b);
            }
            self.num_edges -= 1;
        }
        removed
    }

    /// Remove a node and all incident edges; returns the number of edges
    /// removed.
    pub fn remove_node(&mut self, n: NodeId) -> usize {
        let Some(neighbors) = self.adj.remove(&n) else {
            return 0;
        };
        let removed = neighbors.len();
        for m in neighbors {
            let mn = self.adj.get_mut(&m).expect("symmetric adjacency");
            mn.remove(&n);
            if mn.is_empty() {
                self.adj.remove(&m);
            }
        }
        self.num_edges -= removed;
        removed
    }

    /// Whether the undirected edge is currently present.
    pub fn contains_edge(&self, a: NodeId, b: NodeId) -> bool {
        self.adj.get(&a).is_some_and(|ns| ns.contains(&b))
    }

    /// Whether the node currently exists (has at least one edge).
    pub fn contains_node(&self, n: NodeId) -> bool {
        self.adj.contains_key(&n)
    }

    /// Iterate current node ids in sorted order.
    pub fn nodes(&self) -> impl Iterator<Item = NodeId> + '_ {
        self.adj.keys().copied()
    }

    /// Iterate `n`'s current neighbours in sorted order (empty for an
    /// absent node).
    pub fn neighbors(&self, n: NodeId) -> impl Iterator<Item = NodeId> + '_ {
        self.adj.get(&n).into_iter().flatten().copied()
    }

    /// Current number of nodes (nodes with at least one edge).
    pub fn num_nodes(&self) -> usize {
        self.adj.len()
    }

    /// Current number of undirected edges.
    pub fn num_edges(&self) -> usize {
        self.num_edges
    }

    /// Commit the current state to an immutable snapshot.
    ///
    /// One pass over the (sorted, deduplicated) adjacency — no re-sort,
    /// no re-scan of the historical stream. The result is identical to
    /// `Snapshot::from_edges` over the current edge set.
    pub fn commit(&self) -> Snapshot {
        Snapshot::from_sorted_adjacency(&self.adj)
    }

    /// Commit restricted to the largest connected component, as the
    /// paper does for every dataset snapshot (§5.1.1).
    pub fn commit_lcc(&self) -> Snapshot {
        largest_connected_component(&self.commit())
    }

    /// Iterate current edges as canonical pairs in sorted order.
    pub fn edges(&self) -> impl Iterator<Item = Edge> + '_ {
        self.adj.iter().flat_map(|(&u, ns)| {
            ns.iter()
                .filter(move |&&v| v > u)
                .map(move |&v| Edge::new(u, v))
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn add_remove_round_trip() {
        let mut s = GraphState::new();
        assert!(s.add_edge(NodeId(0), NodeId(1)));
        assert!(!s.add_edge(NodeId(1), NodeId(0)), "duplicate either order");
        assert!(!s.add_edge(NodeId(2), NodeId(2)), "self-loop ignored");
        assert_eq!(s.num_edges(), 1);
        assert_eq!(s.num_nodes(), 2);
        assert!(s.remove_edge(NodeId(0), NodeId(1)));
        assert!(!s.remove_edge(NodeId(0), NodeId(1)));
        assert_eq!(s.num_nodes(), 0, "edgeless endpoints leave the node set");
    }

    #[test]
    fn remove_node_strips_incident_edges() {
        let mut s = GraphState::new();
        s.add_edge(NodeId(0), NodeId(1));
        s.add_edge(NodeId(0), NodeId(2));
        s.add_edge(NodeId(1), NodeId(2));
        assert_eq!(s.remove_node(NodeId(0)), 2);
        assert_eq!(s.num_edges(), 1);
        assert!(s.contains_edge(NodeId(1), NodeId(2)));
        assert_eq!(s.remove_node(NodeId(9)), 0);
    }

    #[test]
    fn add_remove_edge() {
        let mut s = GraphState::new();
        assert!(s.add_edge(NodeId(0), NodeId(1)));
        assert!(s.contains_edge(NodeId(0), NodeId(1)));
        assert!(s.contains_edge(NodeId(1), NodeId(0)), "undirected lookup");
        assert!(
            s.remove_edge(NodeId(1), NodeId(0)),
            "removal in either order"
        );
        assert!(!s.contains_edge(NodeId(0), NodeId(1)));
        assert_eq!(s.num_edges(), 0);
    }

    #[test]
    fn self_loops_ignored() {
        let mut s = GraphState::new();
        assert!(!s.add_edge(NodeId(3), NodeId(3)));
        assert!(!s.contains_node(NodeId(3)), "a self-loop adds no node");
        assert!(!s.remove_edge(NodeId(3), NodeId(3)));
        assert!(s.apply(&GraphEvent::add_edge(NodeId(3), NodeId(4), 1)));
        assert!(!s.apply(&GraphEvent::add_edge(NodeId(4), NodeId(4), 2)));
        assert_eq!(s.num_edges(), 1);
        assert_eq!(s.commit().num_edges(), 1);
    }

    #[test]
    fn remove_node_drops_it_from_commit() {
        let mut s = GraphState::new();
        s.add_edge(NodeId(0), NodeId(1));
        s.add_edge(NodeId(0), NodeId(2));
        s.add_edge(NodeId(1), NodeId(2));
        s.add_edge(NodeId(0), NodeId(3));
        assert_eq!(s.remove_node(NodeId(0)), 3);
        assert!(
            !s.contains_node(NodeId(3)),
            "leaf of the removed node goes too"
        );
        let snap = s.commit();
        assert_eq!(snap.node_ids(), &[NodeId(1), NodeId(2)]);
        assert_eq!(snap.num_edges(), 1);
    }

    #[test]
    fn events_apply() {
        let mut s = GraphState::new();
        assert!(s.apply(&GraphEvent::add_edge(NodeId(0), NodeId(1), 5)));
        assert!(s.apply(&GraphEvent::add_edge(NodeId(1), NodeId(2), 6)));
        assert!(!s.apply(&GraphEvent::add_edge(NodeId(0), NodeId(1), 7)));
        assert!(s.apply(&GraphEvent::remove_edge(NodeId(0), NodeId(1), 8)));
        assert!(s.apply(&GraphEvent::remove_node(NodeId(2), 9)));
        assert_eq!(s.num_edges(), 0);
        let ev: GraphEvent = TimedEdge::new(NodeId(4), NodeId(5), 10).into();
        assert!(s.apply(&ev));
        assert!(s.contains_edge(NodeId(4), NodeId(5)));
    }

    #[test]
    fn commit_matches_batch_build() {
        let pairs = [(3u32, 1u32), (1, 0), (3, 0), (7, 3), (5, 6)];
        let mut state = GraphState::new();
        let mut edges = BTreeSet::new();
        for &(a, b) in &pairs {
            state.add_edge(NodeId(a), NodeId(b));
            edges.insert(Edge::new(NodeId(a), NodeId(b)));
        }
        let fast = state.commit();
        let batch = Snapshot::from_edges(&edges.into_iter().collect::<Vec<_>>(), &[]);
        assert_eq!(fast.node_ids(), batch.node_ids());
        let fe: Vec<Edge> = fast.edges().collect();
        let be: Vec<Edge> = batch.edges().collect();
        assert_eq!(fe, be);
        for l in 0..fast.num_nodes() {
            assert_eq!(fast.neighbors(l), batch.neighbors(l), "node {l}");
        }

        // And the LCC commit matches the batch LCC rule.
        let fast_lcc = state.commit_lcc();
        let batch_lcc = largest_connected_component(&batch);
        assert_eq!(fast_lcc.node_ids(), batch_lcc.node_ids());
        assert_eq!(fast_lcc.num_edges(), batch_lcc.num_edges());
    }

    #[test]
    fn commit_after_removals_matches_batch_build() {
        let mut state = GraphState::new();
        let mut edges = BTreeSet::new();
        for &(a, b) in &[(0u32, 1u32), (1, 2), (2, 3), (3, 0), (1, 3)] {
            state.add_edge(NodeId(a), NodeId(b));
            edges.insert(Edge::new(NodeId(a), NodeId(b)));
        }
        state.remove_edge(NodeId(1), NodeId(3));
        edges.remove(&Edge::new(NodeId(1), NodeId(3)));
        state.remove_node(NodeId(0));
        edges.retain(|e| e.u != NodeId(0) && e.v != NodeId(0));
        let fast = state.commit();
        let batch = Snapshot::from_edges(&edges.into_iter().collect::<Vec<_>>(), &[]);
        assert_eq!(fast.node_ids(), batch.node_ids());
        assert_eq!(
            fast.edges().collect::<Vec<_>>(),
            batch.edges().collect::<Vec<_>>()
        );
    }

    #[test]
    fn edges_iterator_is_sorted_and_canonical() {
        let mut s = GraphState::new();
        s.add_edge(NodeId(5), NodeId(1));
        s.add_edge(NodeId(2), NodeId(1));
        let edges: Vec<Edge> = s.edges().collect();
        assert_eq!(
            edges,
            vec![
                Edge::new(NodeId(1), NodeId(2)),
                Edge::new(NodeId(1), NodeId(5))
            ]
        );
    }

    #[test]
    fn node_and_neighbor_accessors() {
        let mut s = GraphState::new();
        s.add_edge(NodeId(3), NodeId(1));
        s.add_edge(NodeId(3), NodeId(5));
        assert!(s.contains_node(NodeId(3)));
        assert!(!s.contains_node(NodeId(9)));
        assert_eq!(
            s.nodes().collect::<Vec<_>>(),
            vec![NodeId(1), NodeId(3), NodeId(5)]
        );
        assert_eq!(
            s.neighbors(NodeId(3)).collect::<Vec<_>>(),
            vec![NodeId(1), NodeId(5)]
        );
        assert_eq!(s.neighbors(NodeId(9)).count(), 0);

        // Same event history => equal states; diverging => unequal.
        let mut t = s.clone();
        assert_eq!(s, t);
        t.add_edge(NodeId(1), NodeId(5));
        assert_ne!(s, t);
    }

    #[test]
    fn commit_lcc_keeps_biggest_part() {
        let mut s = GraphState::new();
        // triangle (3 nodes) + single edge (2 nodes)
        s.add_edge(NodeId(0), NodeId(1));
        s.add_edge(NodeId(1), NodeId(2));
        s.add_edge(NodeId(0), NodeId(2));
        s.add_edge(NodeId(10), NodeId(11));
        let lcc = s.commit_lcc();
        assert_eq!(lcc.num_nodes(), 3);
        assert_eq!(lcc.num_edges(), 3);
    }

    #[test]
    fn empty_commit() {
        let s = GraphState::new();
        assert_eq!(s.commit().num_nodes(), 0);
        assert_eq!(s.commit_lcc().num_nodes(), 0);
    }
}
