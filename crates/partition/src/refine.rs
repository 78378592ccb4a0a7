//! Refinement: greedy boundary Kernighan–Lin / Fiduccia–Mattheyses moves.
//!
//! During uncoarsening METIS "recursively swaps the collapsed nodes at
//! the border of sub-networks between two neighboring sub-networks, so as
//! to minimize the edge cut" (§4.1.1). This implementation performs
//! passes of greedy single-node moves: a boundary node moves to the
//! neighbouring part with the highest positive gain (external minus
//! internal connection weight), provided the balance bound of Eq. 2
//! stays satisfied.

use crate::wgraph::WGraph;
use std::cmp::Reverse;

/// Weighted edge cut of an assignment.
pub fn edge_cut(g: &WGraph, assignment: &[u32]) -> u64 {
    let mut cut = 0;
    for v in 0..g.len() {
        for &(u, w) in &g.adj[v] {
            if (u as usize) > v && assignment[v] != assignment[u as usize] {
                cut += w;
            }
        }
    }
    cut
}

/// Run up to `passes` refinement passes in place. Each pass visits every
/// node once; stops early when a pass makes no move.
///
/// A visit costs O(deg(v)), not O(K): `conn` is only written at the parts
/// `v`'s neighbours live in, `touched` lists those parts, and the
/// destination is chosen among them alone. A part with no neighbour of
/// `v` has gain `−conn[home] ≤ 0` and could never be moved to, so leaving
/// it out changes no assignment.
///
/// **Tie-break:** among eligible parts of equal gain the lowest part id
/// wins. `touched` is in neighbour order, not part order, so the
/// comparison carries the id explicitly.
///
/// The balance cap here rounds *up* (`ceil`) while
/// [`greedy_growing`](crate::initial::greedy_growing)'s rounds *down*;
/// both are kept as they are, since changing either changes assignments.
pub fn refine(g: &WGraph, assignment: &mut [u32], k: usize, epsilon: f64, passes: usize) {
    if k <= 1 || g.is_empty() {
        return;
    }
    let total = g.total_weight();
    let cap = ((1.0 + epsilon) * total as f64 / k as f64).ceil().max(1.0) as u64;

    let mut loads = vec![0u64; k];
    for v in 0..g.len() {
        loads[assignment[v] as usize] += g.vwgt[v];
    }

    // conn[p] = connection weight from the visited node to part p; zero
    // outside `touched`, which is what makes `conn[p] == 0` mean "not
    // listed yet" (edge weights are ≥ 1).
    let mut conn = vec![0u64; k];
    let mut touched: Vec<u32> = Vec::new();
    for _ in 0..passes {
        let mut moved = false;
        for v in 0..g.len() {
            let home = assignment[v] as usize;
            for &p in &touched {
                conn[p as usize] = 0;
            }
            touched.clear();
            for &(u, w) in &g.adj[v] {
                debug_assert!(w >= 1, "zero-weight edge {v}-{u}");
                let p = assignment[u as usize];
                if conn[p as usize] == 0 {
                    touched.push(p);
                }
                conn[p as usize] += w;
            }
            let vw = g.vwgt[v];
            // Best destination by gain (`conn[p] − conn[home]`, so by
            // `conn[p]`), respecting the balance cap and never emptying
            // the home part (Definition 5 requires K non-empty
            // sub-networks for node selection).
            let best = touched
                .iter()
                .map(|&p| p as usize)
                .filter(|&p| p != home && loads[p] + vw <= cap)
                .max_by_key(|&p| (conn[p], Reverse(p)));
            if let Some(p) = best {
                if conn[p] > conn[home] && loads[home] > vw {
                    assignment[v] = p as u32;
                    loads[home] -= vw;
                    loads[p] += vw;
                    moved = true;
                }
            }
        }
        if !moved {
            break;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use glodyne_graph::id::{Edge, NodeId};
    use glodyne_graph::Snapshot;

    fn two_cliques_with_bridge() -> WGraph {
        let mut edges = Vec::new();
        for c in 0..2u32 {
            let base = c * 6;
            for i in 0..6 {
                for j in (i + 1)..6 {
                    edges.push(Edge::new(NodeId(base + i), NodeId(base + j)));
                }
            }
        }
        edges.push(Edge::new(NodeId(0), NodeId(6)));
        WGraph::from_snapshot(&Snapshot::from_edges(&edges, &[]))
    }

    #[test]
    fn refinement_never_worsens_cut() {
        let g = two_cliques_with_bridge();
        // Deliberately bad split: interleave parts.
        let mut a: Vec<u32> = (0..g.len() as u32).map(|i| i % 2).collect();
        let before = edge_cut(&g, &a);
        refine(&g, &mut a, 2, 0.3, 8);
        let after = edge_cut(&g, &a);
        assert!(after <= before, "cut went {before} -> {after}");
    }

    #[test]
    fn finds_the_bridge_cut() {
        let g = two_cliques_with_bridge();
        let mut a: Vec<u32> = (0..g.len() as u32).map(|i| i % 2).collect();
        refine(&g, &mut a, 2, 0.3, 20);
        assert_eq!(edge_cut(&g, &a), 1);
    }

    #[test]
    fn respects_balance_cap() {
        let g = two_cliques_with_bridge();
        let mut a: Vec<u32> = (0..g.len() as u32).map(|i| i % 2).collect();
        refine(&g, &mut a, 2, 0.1, 20);
        let ones = a.iter().filter(|&&p| p == 1).count();
        let cap = ((1.1_f64) * 12.0 / 2.0).ceil() as usize;
        assert!(
            ones <= cap && (12 - ones) <= cap,
            "parts {ones}/{}",
            12 - ones
        );
    }

    #[test]
    fn never_empties_a_part() {
        // Star graph: hub strongly prefers the leaf part, but moving the
        // last member of a part is forbidden.
        let edges: Vec<Edge> = (1..6).map(|i| Edge::new(NodeId(0), NodeId(i))).collect();
        let g = WGraph::from_snapshot(&Snapshot::from_edges(&edges, &[]));
        let mut a = vec![0u32; 6];
        a[0] = 1; // hub alone in part 1
        refine(&g, &mut a, 2, 5.0, 10);
        let part1 = a.iter().filter(|&&p| p == 1).count();
        assert!(part1 >= 1, "part 1 must stay non-empty");
    }

    #[test]
    fn noop_for_k_one() {
        let g = two_cliques_with_bridge();
        let mut a = vec![0u32; g.len()];
        refine(&g, &mut a, 1, 0.1, 5);
        assert!(a.iter().all(|&p| p == 0));
    }
}
