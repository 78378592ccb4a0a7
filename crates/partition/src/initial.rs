//! Initial partitioning of the coarsest graph: greedy graph growing.
//!
//! "A K-way partition algorithm is applied on the smallest abstract
//! network to get the initial partition of K sub-networks" (§4.1.1).
//! Greedy graph growing (GGGP): grow each region from a seed by
//! repeatedly absorbing the frontier node with the strongest connection
//! to the region, stopping when the region reaches its weight quota.

use crate::wgraph::WGraph;
use rand::seq::SliceRandom;
use rand::Rng;
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// Produce a `k`-way assignment of `g`'s nodes (values in `0..k`),
/// aiming for per-part weight at most `(1+epsilon)·W/k`.
///
/// Any node left unassigned after region growing (disconnected leftovers)
/// is placed in the lightest part, so the result always covers all nodes.
///
/// **Reset invariant:** `connection` is all-zero whenever a part starts
/// growing. A node's entry first leaves zero at the moment it is pushed
/// on the frontier (edge weights are ≥ 1), so `touched` — every node
/// pushed during this growth, whether it was later absorbed, skipped as
/// too heavy, or left on the frontier — is exactly the set to zero
/// afterwards, and growing all `k` parts costs O(|V| + |E|) in resets
/// rather than O(k·|V|).
///
/// The frontier pick itself stays a linear scan — its tie-break (the
/// last of the equally connected frontier nodes) is part of the output —
/// which is short where it matters: at the paper's K = α·|V| a region
/// holds 1/α nodes.
///
/// The balance cap here rounds *down* (`floor`) while
/// [`refine`](crate::refine::refine)'s rounds *up*; both are kept as they
/// are, since changing either changes assignments.
pub fn greedy_growing(g: &WGraph, k: usize, epsilon: f64, rng: &mut impl Rng) -> Vec<u32> {
    const UNASSIGNED: u32 = u32::MAX;
    let n = g.len();
    let mut assignment = vec![UNASSIGNED; n];
    if n == 0 {
        return assignment;
    }
    let total = g.total_weight();
    let quota = (total as f64 / k as f64).ceil();
    let cap = ((1.0 + epsilon) * total as f64 / k as f64).floor().max(1.0) as u64;
    let mut loads = vec![0u64; k];

    let mut order: Vec<u32> = (0..n as u32).collect();
    order.shuffle(rng);
    let mut order_pos = 0usize;

    // connection[v] = total edge weight from v into the region being grown
    let mut connection = vec![0u64; n];
    let mut frontier: Vec<u32> = Vec::new();
    let mut touched: Vec<u32> = Vec::new();

    for part in 0..k as u32 {
        // Pick an unassigned seed (prefer shuffled order).
        let seed = loop {
            if order_pos >= order.len() {
                break None;
            }
            let cand = order[order_pos];
            order_pos += 1;
            if assignment[cand as usize] == UNASSIGNED {
                break Some(cand);
            }
        };
        let Some(seed) = seed else { break };

        frontier.clear();
        frontier.push(seed);
        while let Some(pick_idx) = frontier
            .iter()
            .enumerate()
            .max_by_key(|(_, &v)| connection[v as usize])
            .map(|(i, _)| i)
        {
            let v = frontier.swap_remove(pick_idx);
            if assignment[v as usize] != UNASSIGNED {
                continue;
            }
            let w = g.vwgt[v as usize];
            if loads[part as usize] + w > cap && loads[part as usize] > 0 {
                continue; // too heavy for this part; leave for later parts
            }
            assignment[v as usize] = part;
            loads[part as usize] += w;
            if loads[part as usize] as f64 >= quota {
                break;
            }
            for &(u, ew) in &g.adj[v as usize] {
                debug_assert!(ew >= 1, "zero-weight edge {v}-{u}");
                if assignment[u as usize] == UNASSIGNED {
                    if connection[u as usize] == 0 {
                        frontier.push(u);
                        touched.push(u);
                    }
                    connection[u as usize] += ew;
                }
            }
        }
        for &v in &touched {
            connection[v as usize] = 0;
        }
        touched.clear();
    }

    // Sweep up leftovers into the lightest parts: a min-heap on
    // (load, part) pops the lowest-numbered of the lightest parts, and
    // only the part just added to changes its key.
    let mut lightest: BinaryHeap<Reverse<(u64, u32)>> = (0..k as u32)
        .map(|p| Reverse((loads[p as usize], p)))
        .collect();
    for v in 0..n {
        if assignment[v] == UNASSIGNED {
            let mut top = lightest.peek_mut().expect("k >= 1 parts");
            let Reverse((load, part)) = &mut *top;
            assignment[v] = *part;
            *load += g.vwgt[v];
        }
    }
    assignment
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
    fn covers_all_nodes() {
        let g = ring(20);
        let mut rng = ChaCha8Rng::seed_from_u64(1);
        let a = greedy_growing(&g, 4, 0.1, &mut rng);
        assert!(a.iter().all(|&p| p < 4));
    }

    #[test]
    fn roughly_balanced_on_uniform_ring() {
        let g = ring(40);
        let mut rng = ChaCha8Rng::seed_from_u64(2);
        let a = greedy_growing(&g, 4, 0.1, &mut rng);
        let mut sizes = [0usize; 4];
        for &p in &a {
            sizes[p as usize] += 1;
        }
        for s in sizes {
            assert!((5..=15).contains(&s), "sizes {sizes:?} badly unbalanced");
        }
    }

    #[test]
    fn regions_are_mostly_contiguous_on_ring() {
        // On a ring, GGGP regions should be arcs: the number of cut edges
        // should be about k (here 4), far below random (~n/2).
        let g = ring(40);
        let mut rng = ChaCha8Rng::seed_from_u64(3);
        let a = greedy_growing(&g, 4, 0.1, &mut rng);
        let mut cut = 0;
        for v in 0..40u32 {
            let u = (v + 1) % 40;
            if a[v as usize] != a[u as usize] {
                cut += 1;
            }
        }
        assert!(cut <= 12, "ring cut {cut} too high for grown regions");
    }

    #[test]
    fn handles_disconnected_graph() {
        let edges = vec![
            Edge::new(NodeId(0), NodeId(1)),
            Edge::new(NodeId(2), NodeId(3)),
            Edge::new(NodeId(4), NodeId(5)),
        ];
        let g = WGraph::from_snapshot(&Snapshot::from_edges(&edges, &[]));
        let mut rng = ChaCha8Rng::seed_from_u64(4);
        let a = greedy_growing(&g, 3, 0.2, &mut rng);
        assert!(a.iter().all(|&p| p < 3));
    }
}
