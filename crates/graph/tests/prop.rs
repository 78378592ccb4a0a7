//! Property-based tests for the graph substrate.

use glodyne_graph::id::{Edge, NodeId, TimedEdge};
use glodyne_graph::{components, diff::SnapshotDiff, DynamicNetwork, GraphState, Snapshot};
use proptest::prelude::*;
use std::collections::BTreeSet;

fn arb_edges(max_node: u32, max_edges: usize) -> impl Strategy<Value = Vec<Edge>> {
    prop::collection::vec((0..max_node, 0..max_node), 0..max_edges).prop_map(|pairs| {
        pairs
            .into_iter()
            .filter(|(a, b)| a != b)
            .map(|(a, b)| Edge::new(NodeId(a), NodeId(b)))
            .collect()
    })
}

/// A snapshot's full content: its node table and every CSR row.
fn csr(s: &Snapshot) -> (Vec<NodeId>, Vec<Vec<u32>>) {
    let rows = (0..s.num_nodes())
        .map(|l| s.neighbors(l).to_vec())
        .collect();
    (s.node_ids().to_vec(), rows)
}

/// The batch build over an edge set, and its largest component.
fn batch(edges: &BTreeSet<Edge>) -> (Snapshot, Snapshot) {
    let all = Snapshot::from_edges(&edges.iter().copied().collect::<Vec<_>>(), &[]);
    let lcc = components::largest_connected_component(&all);
    (all, lcc)
}

proptest! {
    /// CSR round-trips the deduplicated canonical edge set.
    #[test]
    fn csr_round_trips_edges(edges in arb_edges(40, 120)) {
        let g = Snapshot::from_edges(&edges, &[]);
        let mut want = edges.clone();
        want.sort_unstable();
        want.dedup();
        let mut got: Vec<Edge> = g.edges().collect();
        got.sort_unstable();
        prop_assert_eq!(got, want);
    }

    /// Handshake lemma: sum of degrees equals twice the edge count.
    #[test]
    fn handshake_lemma(edges in arb_edges(40, 120)) {
        let g = Snapshot::from_edges(&edges, &[]);
        let degsum: usize = (0..g.num_nodes()).map(|i| g.degree(i)).sum();
        prop_assert_eq!(degsum, 2 * g.num_edges());
    }

    /// Component labels cover every node, and every edge joins same-label
    /// endpoints.
    #[test]
    fn components_are_consistent(edges in arb_edges(30, 80)) {
        let g = Snapshot::from_edges(&edges, &[]);
        let (labels, k) = components::connected_components(&g);
        prop_assert_eq!(labels.len(), g.num_nodes());
        for &l in &labels {
            prop_assert!((l as usize) < k);
        }
        for a in 0..g.num_nodes() {
            for &b in g.neighbors(a) {
                prop_assert_eq!(labels[a], labels[b as usize]);
            }
        }
    }

    /// LCC is connected and at least as large as any other component.
    #[test]
    fn lcc_is_largest(edges in arb_edges(30, 60)) {
        let g = Snapshot::from_edges(&edges, &[]);
        let lcc = components::largest_connected_component(&g);
        let (_, k) = components::connected_components(&lcc);
        prop_assert!(k <= 1);
        let (labels, kg) = components::connected_components(&g);
        let mut sizes = vec![0usize; kg];
        for &l in &labels { sizes[l as usize] += 1; }
        let max = sizes.iter().copied().max().unwrap_or(0);
        prop_assert_eq!(lcc.num_nodes(), max);
    }

    /// Diff of a snapshot with itself is empty; diff change counts equal
    /// the neighbour-set symmetric difference (Eq. 3 equivalence).
    #[test]
    fn diff_matches_set_ops(e1 in arb_edges(25, 50), e2 in arb_edges(25, 50)) {
        let a = Snapshot::from_edges(&e1, &[]);
        let b = Snapshot::from_edges(&e2, &[]);
        let d = SnapshotDiff::compute(&a, &b);
        prop_assert!(SnapshotDiff::compute(&a, &a).is_empty());
        let mut all_ids: Vec<NodeId> = a.node_ids().iter().chain(b.node_ids()).copied().collect();
        all_ids.sort_unstable();
        all_ids.dedup();
        for id in all_ids {
            let sa: std::collections::BTreeSet<_> = a.neighbor_ids(id).into_iter().collect();
            let sb: std::collections::BTreeSet<_> = b.neighbor_ids(id).into_iter().collect();
            let sym = sa.symmetric_difference(&sb).count() as u32;
            prop_assert_eq!(d.node_change(id), sym);
        }
    }

    /// Added and removed edge sets are disjoint and correctly oriented.
    #[test]
    fn diff_edge_sets_disjoint(e1 in arb_edges(20, 40), e2 in arb_edges(20, 40)) {
        let a = Snapshot::from_edges(&e1, &[]);
        let b = Snapshot::from_edges(&e2, &[]);
        let d = SnapshotDiff::compute(&a, &b);
        for e in &d.added {
            prop_assert!(b.has_edge_ids(e.u, e.v));
            prop_assert!(!a.has_edge_ids(e.u, e.v));
        }
        for e in &d.removed {
            prop_assert!(a.has_edge_ids(e.u, e.v));
            prop_assert!(!b.has_edge_ids(e.u, e.v));
        }
    }

    /// `GraphState` is the one mutable graph, so it must commit exactly
    /// the batch build over the edges it holds. Random add-edge,
    /// remove-edge and remove-node streams (self-loops and duplicates
    /// included) run against a `BTreeSet<Edge>` model; every return
    /// value, the edge iterator and both commits are checked along the
    /// way.
    #[test]
    fn graph_state_commits_match_batch_build(
        ops in prop::collection::vec((0u8..4, 0u32..16, 0u32..16), 0..160)
    ) {
        let mut state = GraphState::new();
        let mut model: BTreeSet<Edge> = BTreeSet::new();
        for (i, &(op, a, b)) in ops.iter().enumerate() {
            let (a, b) = (NodeId(a), NodeId(b));
            match op {
                // Additions are twice as likely so the graph grows.
                0 | 1 => {
                    let added = a != b && model.insert(Edge::new(a, b));
                    prop_assert_eq!(state.add_edge(a, b), added);
                }
                2 => prop_assert_eq!(state.remove_edge(a, b), model.remove(&Edge::new(a, b))),
                _ => {
                    let before = model.len();
                    model.retain(|e| e.u != a && e.v != a);
                    prop_assert_eq!(state.remove_node(a), before - model.len());
                }
            }
            prop_assert_eq!(state.contains_edge(a, b), model.contains(&Edge::new(a, b)));
            if i % 8 == 7 || i + 1 == ops.len() {
                prop_assert_eq!(state.edges().collect::<Vec<_>>(), model.iter().copied().collect::<Vec<_>>());
                prop_assert_eq!(state.num_edges(), model.len());
                let (all, lcc) = batch(&model);
                prop_assert_eq!(state.num_nodes(), all.num_nodes());
                prop_assert_eq!(csr(&state.commit()), csr(&all));
                prop_assert_eq!(csr(&state.commit_lcc()), csr(&lcc));
            }
        }
    }

    /// `from_edge_stream` cuts snapshot `k` as the largest component of
    /// the batch build over every edge with `time <= cutoffs[k]`, in any
    /// stream order.
    #[test]
    fn from_edge_stream_is_the_per_cutoff_batch_lcc(
        stream in prop::collection::vec((0u32..16, 0u32..16, 0u64..40), 0..90),
        cuts in prop::collection::vec(0u64..45, 0..6)
    ) {
        let stream: Vec<TimedEdge> = stream
            .into_iter()
            .map(|(a, b, t)| TimedEdge::new(NodeId(a), NodeId(b), t))
            .collect();
        let mut cutoffs = cuts;
        cutoffs.sort_unstable();
        let net = DynamicNetwork::from_edge_stream(stream.clone(), &cutoffs);
        prop_assert_eq!(net.len(), cutoffs.len());
        for (k, &cut) in cutoffs.iter().enumerate() {
            let upto: BTreeSet<Edge> = stream.iter().filter(|te| te.time <= cut).map(|te| te.edge).collect();
            let (_, lcc) = batch(&upto);
            prop_assert_eq!(csr(net.snapshot(k)), csr(&lcc));
        }
    }
}
