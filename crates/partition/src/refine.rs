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
use std::collections::BTreeSet;

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

/// The balance cap `⌈(1 + ε)·W/K⌉` (at least 1) and each part's load.
fn cap_and_loads(g: &WGraph, assignment: &[u32], k: usize, epsilon: f64) -> (u64, Vec<u64>) {
    let cap = ((1.0 + epsilon) * g.total_weight() as f64 / k as f64)
        .ceil()
        .max(1.0);
    let mut loads = vec![0u64; k];
    for v in 0..g.len() {
        loads[assignment[v] as usize] += g.vwgt[v];
    }
    (cap as u64, loads)
}

/// One node's connection weight to each part its neighbours live in.
/// `conn` is zero outside `touched`, which is what makes `conn[p] == 0`
/// mean "not listed yet" (edge weights are ≥ 1); a scan resets only the
/// entries the previous one wrote, so it costs O(deg(v)), not O(K).
struct Conn {
    conn: Vec<u64>,
    touched: Vec<u32>,
}

impl Conn {
    fn new(k: usize) -> Conn {
        Conn {
            conn: vec![0; k],
            touched: Vec::new(),
        }
    }

    fn scan(&mut self, g: &WGraph, assignment: &[u32], v: usize) {
        for &p in &self.touched {
            self.conn[p as usize] = 0;
        }
        self.touched.clear();
        for &(u, w) in &g.adj[v] {
            debug_assert!(w >= 1, "zero-weight edge {v}-{u}");
            let p = assignment[u as usize];
            if self.conn[p as usize] == 0 {
                self.touched.push(p);
            }
            self.conn[p as usize] += w;
        }
    }

    /// The best-connected scanned part other than `home` that takes
    /// `vw` more without exceeding `cap`. Ties go to the lowest part
    /// id: `touched` is in neighbour order, not part order, so the
    /// comparison carries the id explicitly.
    fn best(&self, home: usize, vw: u64, loads: &[u64], cap: u64) -> Option<usize> {
        self.touched
            .iter()
            .map(|&p| p as usize)
            .filter(|&p| p != home && loads[p] + vw <= cap)
            .max_by_key(|&p| (self.conn[p], Reverse(p)))
    }
}

/// Run up to `passes` refinement passes in place. Each pass visits every
/// node once; stops early when a pass makes no move.
///
/// A visit costs O(deg(v)), not O(K): the destination is chosen among
/// the parts `v`'s neighbours live in (`Conn`). A part with no
/// neighbour of `v` has gain `−conn[home] ≤ 0` and could never be moved
/// to, so leaving it out changes no assignment. Among eligible parts of
/// equal gain the lowest part id wins.
///
/// The balance cap here rounds *up* (`ceil`) while
/// [`greedy_growing`](crate::initial::greedy_growing)'s rounds *down*;
/// both are kept as they are, since changing either changes assignments.
pub fn refine(g: &WGraph, assignment: &mut [u32], k: usize, epsilon: f64, passes: usize) {
    if k <= 1 || g.is_empty() {
        return;
    }
    let (cap, mut loads) = cap_and_loads(g, assignment, k, epsilon);
    let mut conn = Conn::new(k);
    for _ in 0..passes {
        let mut moved = false;
        for v in 0..g.len() {
            let home = assignment[v] as usize;
            conn.scan(g, assignment, v);
            let vw = g.vwgt[v];
            // Best destination by gain (`conn[p] − conn[home]`, so by
            // `conn[p]`), respecting the balance cap and never emptying
            // the home part (Definition 5 requires K non-empty
            // sub-networks for node selection).
            if let Some(p) = conn.best(home, vw, &loads, cap) {
                if conn.conn[p] > conn.conn[home] && loads[home] > vw {
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

/// Enforce Eq. 2's bound on the finest graph after refinement, which
/// only ever *keeps* the bound and so cannot restore one that
/// projection broke. One pass in node order moves each node of a part
/// still over the cap to the under-cap part it is best connected to (as
/// [`refine`] picks), or, with none, to the lightest part (ties toward
/// the lowest id). Returns whether it moved anything; with no part over
/// the cap it does nothing. O(|V| + |E| + K log K); the lightest-part
/// fallback relies on unit node weights, under which a part over the
/// cap leaves the lightest one under it.
pub fn rebalance(g: &WGraph, assignment: &mut [u32], k: usize, epsilon: f64) -> bool {
    if k <= 1 || g.is_empty() {
        return false;
    }
    let (cap, mut loads) = cap_and_loads(g, assignment, k, epsilon);
    if loads.iter().all(|&l| l <= cap) {
        return false;
    }
    let mut by_load: BTreeSet<(u64, usize)> = (0..k).map(|p| (loads[p], p)).collect();
    let mut conn = Conn::new(k);
    for v in 0..g.len() {
        let (home, vw) = (assignment[v] as usize, g.vwgt[v]);
        if loads[home] <= cap {
            continue;
        }
        conn.scan(g, assignment, v);
        let lightest = by_load.first().expect("k >= 2 parts").1;
        let p = conn.best(home, vw, &loads, cap).unwrap_or(lightest);
        by_load.remove(&(loads[home], home));
        by_load.remove(&(loads[p], p));
        assignment[v] = p as u32;
        loads[home] -= vw;
        loads[p] += vw;
        by_load.extend([(loads[home], home), (loads[p], p)]);
    }
    true
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
    fn rebalance_empties_over_cap_parts_and_leaves_balanced_ones() {
        let g = two_cliques_with_bridge();
        let cap = (1.1_f64 * 12.0 / 3.0).ceil() as usize;
        // Ten nodes in part 0 against a cap of 5.
        let mut a = vec![0u32; 12];
        a[5] = 1;
        a[11] = 2;
        assert!(rebalance(&g, &mut a, 3, 0.1));
        for p in 0..3 {
            let size = a.iter().filter(|&&x| x == p).count();
            assert!((1..=cap).contains(&size), "part {p} holds {size}");
        }
        let before = a.clone();
        assert!(!rebalance(&g, &mut a, 3, 0.1), "nothing over the cap");
        assert_eq!(a, before);
    }

    #[test]
    fn noop_for_k_one() {
        let g = two_cliques_with_bridge();
        let mut a = vec![0u32; g.len()];
        refine(&g, &mut a, 1, 0.1, 5);
        assert!(a.iter().all(|&p| p == 0));
    }
}
