//! The O(K)-per-node loops `refine` and `greedy_growing` ran before the
//! touched lists, kept as the reference the linear-time versions are
//! pinned against: same signature, same RNG draws, and — the property
//! below — the same assignment on every input. Test-only.

use crate::coarsen;
use crate::wgraph::WGraph;
use crate::{multilevel, partition, PartitionConfig};
use glodyne_datasets::community::planted_partition;
use glodyne_graph::id::{Edge, NodeId};
use glodyne_graph::Snapshot;
use proptest::prelude::*;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

/// `refine` as it was: zeroes and scans all `k` entries of `conn` on
/// every visit.
pub(crate) fn refine_reference(
    g: &WGraph,
    assignment: &mut [u32],
    k: usize,
    epsilon: f64,
    passes: usize,
) {
    if k <= 1 || g.is_empty() {
        return;
    }
    let total = g.total_weight();
    let cap = ((1.0 + epsilon) * total as f64 / k as f64).ceil().max(1.0) as u64;

    let mut loads = vec![0u64; k];
    for v in 0..g.len() {
        loads[assignment[v] as usize] += g.vwgt[v];
    }

    // connection weight from node v to each part, computed per node visit
    let mut conn = vec![0u64; k];
    for _ in 0..passes {
        let mut moved = false;
        for v in 0..g.len() {
            let home = assignment[v] as usize;
            if g.adj[v].is_empty() {
                continue;
            }
            for c in conn.iter_mut() {
                *c = 0;
            }
            let mut is_boundary = false;
            for &(u, w) in &g.adj[v] {
                let p = assignment[u as usize] as usize;
                conn[p] += w;
                if p != home {
                    is_boundary = true;
                }
            }
            if !is_boundary {
                continue;
            }
            let vw = g.vwgt[v];
            // Best destination by gain, respecting the balance cap and
            // never emptying the home part (Definition 5 requires K
            // non-empty sub-networks for node selection).
            let mut best: Option<(usize, i64)> = None;
            for p in 0..k {
                if p == home || loads[p] + vw > cap {
                    continue;
                }
                let gain = conn[p] as i64 - conn[home] as i64;
                match best {
                    Some((_, bg)) if bg >= gain => {}
                    _ => best = Some((p, gain)),
                }
            }
            if let Some((p, gain)) = best {
                if gain > 0 && loads[home] > vw {
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

/// `greedy_growing` as it was: zeroes all `n` entries of `connection`
/// after every part and scans all `k` loads per leftover node.
pub(crate) fn greedy_growing_reference(
    g: &WGraph,
    k: usize,
    epsilon: f64,
    rng: &mut impl Rng,
) -> Vec<u32> {
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
                if assignment[u as usize] == UNASSIGNED {
                    if connection[u as usize] == 0 {
                        frontier.push(u);
                    }
                    connection[u as usize] += ew;
                }
            }
        }
        // Reset connection values touched during this growth.
        for &v in &frontier {
            connection[v as usize] = 0;
        }
        for v in 0..n {
            connection[v] = 0;
        }
    }

    // Sweep up leftovers into the lightest parts.
    for v in 0..n {
        if assignment[v] == UNASSIGNED {
            let lightest = (0..k).min_by_key(|&p| loads[p]).unwrap();
            assignment[v] = lightest as u32;
            loads[lightest] += g.vwgt[v];
        }
    }
    assignment
}

/// The whole K × ε grid on one graph and seed.
fn assert_matches_reference(g: &Snapshot, seed: u64) {
    let n = g.num_nodes();
    for k in [2, 3, n / 20, n / 10, n / 3, n - 1] {
        for epsilon in [0.0, 0.03, 0.1, 0.5] {
            let cfg = PartitionConfig {
                k,
                epsilon,
                seed,
                ..Default::default()
            };
            let want = multilevel(g, &cfg, greedy_growing_reference, refine_reference);
            let got = partition(g, &cfg);
            assert_eq!(got.k, want.k, "n={n} k={k} eps={epsilon} seed={seed}");
            assert!(
                got.assignment == want.assignment,
                "assignment differs from the reference: n={n} k={k} eps={epsilon} seed={seed}"
            );
        }
    }
}

fn snapshot(pairs: impl IntoIterator<Item = (u32, u32)>, extra: &[NodeId]) -> Snapshot {
    let edges: Vec<Edge> = pairs
        .into_iter()
        .map(|(a, b)| Edge::new(NodeId(a), NodeId(b)))
        .collect();
    Snapshot::from_edges(&edges, extra)
}

/// A random graph of one of four shapes: sparse uniform, hubs plus
/// noise, several components plus isolated nodes, or planted
/// communities. `n` reaches past `max(64, 8·K)` for the small K, so
/// those runs refine weighted coarse levels.
fn arb_graph() -> impl Strategy<Value = Snapshot> {
    (0u32..4, 40u32..400, 0u64..u64::MAX).prop_map(|(shape, n, seed)| {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let mut pairs: Vec<(u32, u32)> = Vec::new();
        let mut extra: Vec<NodeId> = Vec::new();
        match shape {
            0 => {
                for _ in 0..rng.gen_range(n..4 * n) {
                    pairs.push((rng.gen_range(0..n), rng.gen_range(0..n)));
                }
            }
            1 => {
                let hubs = rng.gen_range(1..4);
                for v in hubs..n {
                    pairs.push((rng.gen_range(0..hubs), v));
                }
                for _ in 0..n / 2 {
                    pairs.push((rng.gen_range(0..n), rng.gen_range(0..n)));
                }
            }
            2 => {
                let comps = rng.gen_range(2..6);
                for _ in 0..2 * n {
                    let c = rng.gen_range(0..comps);
                    let (a, b) = (rng.gen_range(0..n / comps), rng.gen_range(0..n / comps));
                    pairs.push((a * comps + c, b * comps + c));
                }
                extra.extend((n..n + rng.gen_range(1..10u32)).map(NodeId));
            }
            _ => {
                let size = rng.gen_range(5..30);
                return planted_partition(n - n % size, size, rng.gen());
            }
        }
        snapshot(pairs, &extra)
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(40))]

    #[test]
    fn assignment_equals_reference((g, seed) in (arb_graph(), 0u64..1_000)) {
        assert_matches_reference(&g, seed);
    }
}

#[test]
fn star_equals_reference() {
    // One hub: coarsening stalls at once, every leaf is a boundary node
    // with a single neighbour, and region growing skips most of them.
    let g = snapshot((1..200).map(|v| (0, v)), &[]);
    for seed in 0..4 {
        assert_matches_reference(&g, seed);
    }
}

#[test]
fn disconnected_equals_reference() {
    // Thirty triangles and twenty isolated nodes: regions run out of
    // frontier long before their quota, so the leftover sweep (and its
    // lowest-id-among-the-lightest tie-break) places most of the nodes.
    let triangles = (0..30u32).flat_map(|t| {
        let a = 3 * t;
        [(a, a + 1), (a + 1, a + 2), (a, a + 2)]
    });
    let isolated: Vec<NodeId> = (90..110).map(NodeId).collect();
    let g = snapshot(triangles, &isolated);
    for seed in 0..4 {
        assert_matches_reference(&g, seed);
    }
}

#[test]
fn weighted_coarse_levels_equal_reference() {
    let g = planted_partition(2_000, 50, 5);
    // K = 2 and 3 stop coarsening at 64 nodes: several levels of merged
    // nodes (weights > 1) and merged edges are refined on the way back.
    let mut rng = ChaCha8Rng::seed_from_u64(0);
    let hierarchy = coarsen::coarsen(WGraph::from_snapshot(&g), 64, &mut rng);
    assert!(hierarchy.levels.len() >= 3, "{}", hierarchy.levels.len());
    assert!(hierarchy.coarsest().vwgt.iter().any(|&w| w > 1));
    for seed in 0..3 {
        assert_matches_reference(&g, seed);
    }
}

#[test]
fn serving_size_equals_reference() {
    // The `serve_read` shape: n = 12 000, K = α·n = 1 200.
    let g = planted_partition(12_000, 50, 7);
    let cfg = PartitionConfig::with_k(1_200);
    let want = multilevel(&g, &cfg, greedy_growing_reference, refine_reference);
    assert!(partition(&g, &cfg).assignment == want.assignment);
}
