//! Coarsening phase: heavy-edge matching (HEM).
//!
//! "The original network is recursively transformed into a series of
//! smaller and smaller abstract networks, via collapsing nodes ... until
//! the abstract network is small enough" (§4.1.1). HEM visits nodes in
//! random order and matches each unmatched node with its unmatched
//! neighbour of maximum edge weight, which empirically preserves cut
//! structure well (Karypis & Kumar 1998).

use crate::wgraph::WGraph;
use rand::seq::SliceRandom;
use rand::Rng;
use std::collections::HashMap;

/// One coarsening level: the coarse graph plus the fine→coarse node map.
#[derive(Debug)]
pub struct Level {
    /// The coarse graph produced at this level.
    pub graph: WGraph,
    /// For each fine node, the coarse node it collapsed into.
    pub map: Vec<u32>,
}

/// The full coarsening hierarchy. `levels[0].graph` is one step coarser
/// than the input; the last level is the coarsest.
#[derive(Debug)]
pub struct Hierarchy {
    /// The original (finest) graph.
    pub finest: WGraph,
    /// Successive coarsening levels, finest-first.
    pub levels: Vec<Level>,
}

impl Hierarchy {
    /// The coarsest graph (the finest if no coarsening happened).
    pub fn coarsest(&self) -> &WGraph {
        self.levels.last().map(|l| &l.graph).unwrap_or(&self.finest)
    }

    /// Project a coarsest-level assignment back to the finest graph,
    /// invoking `refine_hook(graph, assignment)` at every intermediate
    /// level (including the finest), mirroring METIS's uncoarsening
    /// phase.
    pub fn project_to_finest(
        &self,
        mut assignment: Vec<u32>,
        mut refine_hook: impl FnMut(&WGraph, &mut Vec<u32>),
    ) -> Vec<u32> {
        // Walk levels from coarsest-1 down to the finest graph.
        for i in (0..self.levels.len()).rev() {
            let map = &self.levels[i].map;
            let fine_graph = if i == 0 {
                &self.finest
            } else {
                &self.levels[i - 1].graph
            };
            let mut fine_assignment = vec![0u32; map.len()];
            for (fine, &coarse) in map.iter().enumerate() {
                fine_assignment[fine] = assignment[coarse as usize];
            }
            refine_hook(fine_graph, &mut fine_assignment);
            assignment = fine_assignment;
        }
        assignment
    }
}

/// Run one round of heavy-edge matching and build the coarse graph.
/// Returns `None` if matching failed to shrink the graph by at least 5%
/// (e.g. star graphs where everything is matched to one hub).
fn coarsen_once(g: &WGraph, rng: &mut impl Rng) -> Option<Level> {
    const UNMATCHED: u32 = u32::MAX;
    let n = g.len();
    let mut mate = vec![UNMATCHED; n];
    let mut order: Vec<u32> = (0..n as u32).collect();
    order.shuffle(rng);

    for &v in &order {
        if mate[v as usize] != UNMATCHED {
            continue;
        }
        // Heaviest unmatched neighbour.
        let mut best: Option<(u32, u64)> = None;
        for &(u, w) in &g.adj[v as usize] {
            if mate[u as usize] == UNMATCHED && u != v {
                match best {
                    Some((_, bw)) if bw >= w => {}
                    _ => best = Some((u, w)),
                }
            }
        }
        match best {
            Some((u, _)) => {
                mate[v as usize] = u;
                mate[u as usize] = v;
            }
            None => mate[v as usize] = v, // matched with itself
        }
    }

    // Assign coarse ids: each pair (or singleton) becomes one node.
    let mut map = vec![UNMATCHED; n];
    let mut next = 0u32;
    for v in 0..n {
        if map[v] != UNMATCHED {
            continue;
        }
        let m = mate[v] as usize;
        map[v] = next;
        map[m] = next; // m == v for singletons
        next += 1;
    }
    let coarse_n = next as usize;
    if coarse_n as f64 > 0.95 * n as f64 {
        return None;
    }

    // Build the coarse graph: sum vertex weights, merge parallel edges.
    let mut vwgt = vec![0u64; coarse_n];
    for v in 0..n {
        vwgt[map[v] as usize] += g.vwgt[v];
    }
    let mut adj: Vec<Vec<(u32, u64)>> = vec![Vec::new(); coarse_n];
    {
        let mut acc: HashMap<u32, u64> = HashMap::new();
        // Process fine nodes grouped by coarse id.
        let mut members: Vec<Vec<u32>> = vec![Vec::new(); coarse_n];
        for v in 0..n {
            members[map[v] as usize].push(v as u32);
        }
        for (c, ms) in members.iter().enumerate() {
            acc.clear();
            for &v in ms {
                for &(u, w) in &g.adj[v as usize] {
                    let cu = map[u as usize];
                    if cu as usize != c {
                        *acc.entry(cu).or_insert(0) += w;
                    }
                }
            }
            let mut list: Vec<(u32, u64)> = acc.iter().map(|(&u, &w)| (u, w)).collect();
            list.sort_unstable();
            adj[c] = list;
        }
    }

    Some(Level {
        graph: WGraph { vwgt, adj },
        map,
    })
}

/// Coarsen until at most `stop_at` nodes remain or shrinkage stalls.
pub fn coarsen(finest: WGraph, stop_at: usize, rng: &mut impl Rng) -> Hierarchy {
    let mut levels: Vec<Level> = Vec::new();
    loop {
        let current = levels.last().map_or(&finest, |l| &l.graph);
        if current.len() <= stop_at {
            break;
        }
        match coarsen_once(current, rng) {
            Some(level) => levels.push(level),
            None => break,
        }
    }
    Hierarchy { finest, levels }
}

#[cfg(test)]
mod tests {
    use super::*;
    use glodyne_graph::id::{Edge, NodeId};
    use glodyne_graph::Snapshot;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    fn ring(n: u32) -> WGraph {
        let edges: Vec<Edge> = (0..n)
            .map(|i| Edge::new(NodeId(i), NodeId((i + 1) % n)))
            .collect();
        WGraph::from_snapshot(&Snapshot::from_edges(&edges, &[]))
    }

    #[test]
    fn weight_is_conserved() {
        let g = ring(64);
        let mut rng = ChaCha8Rng::seed_from_u64(1);
        let h = coarsen(g, 8, &mut rng);
        assert_eq!(h.coarsest().total_weight(), 64);
        assert!(h.coarsest().len() <= 64);
        assert!(!h.levels.is_empty());
    }

    #[test]
    fn coarse_graph_has_no_self_loops() {
        let g = ring(32);
        let mut rng = ChaCha8Rng::seed_from_u64(2);
        let h = coarsen(g, 4, &mut rng);
        for level in &h.levels {
            for (v, ns) in level.graph.adj.iter().enumerate() {
                for &(u, _) in ns {
                    assert_ne!(u as usize, v, "self loop in coarse graph");
                }
            }
        }
    }

    #[test]
    fn coarse_adjacency_is_symmetric() {
        let g = ring(48);
        let mut rng = ChaCha8Rng::seed_from_u64(3);
        let h = coarsen(g, 6, &mut rng);
        for level in &h.levels {
            let cg = &level.graph;
            for v in 0..cg.len() {
                for &(u, w) in &cg.adj[v] {
                    let back = cg.adj[u as usize]
                        .iter()
                        .find(|&&(x, _)| x as usize == v)
                        .map(|&(_, bw)| bw);
                    assert_eq!(back, Some(w), "asymmetric coarse edge");
                }
            }
        }
    }

    #[test]
    fn projection_round_trips_identity() {
        let g = ring(32);
        let mut rng = ChaCha8Rng::seed_from_u64(4);
        let h = coarsen(g, 4, &mut rng);
        let coarse_assignment = vec![0u32; h.coarsest().len()];
        let fine = h.project_to_finest(coarse_assignment, |_, _| {});
        assert_eq!(fine.len(), 32);
        assert!(fine.iter().all(|&p| p == 0));
    }

    #[test]
    fn map_lengths_chain_correctly() {
        let g = ring(64);
        let mut rng = ChaCha8Rng::seed_from_u64(5);
        let h = coarsen(g, 8, &mut rng);
        let mut prev_len = h.finest.len();
        for level in &h.levels {
            assert_eq!(level.map.len(), prev_len);
            prev_len = level.graph.len();
        }
    }
}
