//! Churning process with node additions *and* deletions: the AS733
//! analogue. In the paper AS733 is the only dataset with node deletions,
//! which is what makes DynLINE and tNE "n/a" on it (§5.2).

use glodyne_graph::{DynamicNetwork, GraphState, NodeId};
use rand::seq::SliceRandom;
use rand::Rng;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

/// Router-mesh dynamic network: random mesh with a stable backbone core
/// plus per-step node/edge churn (devices "regularly connect to or
/// accidentally disconnect from routers", §1).
pub fn router_mesh(scale: f64, steps: usize, seed: u64) -> DynamicNetwork {
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let n0 = ((300.0 * scale) as u32).max(40);
    let core = (n0 / 5).max(8); // backbone routers never churn

    let mut graph = GraphState::new();
    let mut next_id = 0u32;
    let mut alive: Vec<u32> = Vec::new();

    // Backbone: a well-connected core mesh.
    for _ in 0..core {
        alive.push(next_id);
        next_id += 1;
    }
    for i in 0..core {
        let j = (i + 1) % core;
        graph.add_edge(NodeId(alive[i as usize]), NodeId(alive[j as usize]));
        // chord
        let k = (i + core / 2) % core;
        graph.add_edge(NodeId(alive[i as usize]), NodeId(alive[k as usize]));
    }

    // Leaf routers attach to 1–3 existing routers.
    let attach =
        |graph: &mut GraphState, alive: &mut Vec<u32>, next_id: &mut u32, rng: &mut ChaCha8Rng| {
            let v = *next_id;
            *next_id += 1;
            let links = rng.gen_range(1..=3usize);
            for _ in 0..links {
                let u = alive[rng.gen_range(0..alive.len())];
                graph.add_edge(NodeId(v), NodeId(u));
            }
            alive.push(v);
        };
    for _ in core..n0 {
        attach(&mut graph, &mut alive, &mut next_id, &mut rng);
    }

    let mut net = DynamicNetwork::default();
    net.push(graph.commit_lcc());

    for _ in 1..steps {
        // Deletions: ~2% of non-core routers drop out.
        let deletable: Vec<u32> = alive.iter().copied().filter(|&v| v >= core).collect();
        let drop_n = ((deletable.len() as f64) * 0.02).ceil() as usize;
        let mut shuffled = deletable;
        shuffled.shuffle(&mut rng);
        for &v in shuffled.iter().take(drop_n) {
            graph.remove_node(NodeId(v));
            alive.retain(|&a| a != v);
        }
        // Link failures: ~1% of edges, biased toward *peripheral* links
        // (an endpoint of low degree). Real AS churn drops transient
        // leaf connections while the backbone persists, which is what
        // makes deletions partially predictable (the paper's LP task
        // treats deleted edges as negatives).
        let snap_now = graph.commit();
        let mut edges: Vec<_> = graph.edges().collect();
        let deg_of = |id: NodeId| {
            snap_now
                .local_of(id)
                .map(|l| snap_now.degree(l))
                .unwrap_or(0)
        };
        edges.sort_by_key(|e| deg_of(e.u).min(deg_of(e.v)));
        let peripheral = (edges.len() / 3).max(1);
        let fail_n = ((edges.len() as f64) * 0.01).ceil() as usize;
        for _ in 0..fail_n {
            let e = edges[rng.gen_range(0..peripheral)];
            // never cut the backbone ring
            if e.u.0 < core && e.v.0 < core {
                continue;
            }
            graph.remove_edge(e.u, e.v);
        }
        // Additions: ~3% new routers plus fresh links.
        let add_n = ((alive.len() as f64) * 0.03).ceil() as usize;
        for _ in 0..add_n {
            attach(&mut graph, &mut alive, &mut next_id, &mut rng);
        }
        // New peerings mostly close triangles (ASes peer with their
        // neighbours' neighbours), with a small random component —
        // that topological locality is what makes future links
        // predictable from embeddings (the paper's LP task).
        let snap_mid = graph.commit();
        let relink = ((alive.len() as f64) * 0.05).ceil() as usize;
        for _ in 0..relink {
            if rng.gen::<f64>() < 0.8 {
                // triadic closure: a — b — c becomes a — c
                let Some(la) = snap_mid.local_of(NodeId(alive[rng.gen_range(0..alive.len())]))
                else {
                    continue;
                };
                let ns = snap_mid.neighbors(la);
                if ns.is_empty() {
                    continue;
                }
                let lb = ns[rng.gen_range(0..ns.len())] as usize;
                let ns_b = snap_mid.neighbors(lb);
                if ns_b.is_empty() {
                    continue;
                }
                let lc = ns_b[rng.gen_range(0..ns_b.len())] as usize;
                if lc != la {
                    graph.add_edge(snap_mid.node_id(la), snap_mid.node_id(lc));
                }
            } else {
                let a = alive[rng.gen_range(0..alive.len())];
                let b = alive[rng.gen_range(0..alive.len())];
                if a != b {
                    graph.add_edge(NodeId(a), NodeId(b));
                }
            }
        }
        net.push(graph.commit_lcc());
    }
    net
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn has_node_deletions() {
        let net = router_mesh(0.5, 10, 1);
        let mut deleted = false;
        for t in 1..net.len() {
            let prev = net.snapshot(t - 1);
            let curr = net.snapshot(t);
            if prev
                .node_ids()
                .iter()
                .any(|id| curr.local_of(*id).is_none())
            {
                deleted = true;
                break;
            }
        }
        assert!(deleted, "router mesh must delete nodes");
    }

    #[test]
    fn has_node_additions() {
        let net = router_mesh(0.5, 10, 2);
        let mut added = false;
        for t in 1..net.len() {
            let prev = net.snapshot(t - 1);
            let curr = net.snapshot(t);
            if curr
                .node_ids()
                .iter()
                .any(|id| prev.local_of(*id).is_none())
            {
                added = true;
                break;
            }
        }
        assert!(added);
    }

    #[test]
    fn every_snapshot_connected_and_nonempty() {
        let net = router_mesh(0.4, 8, 3);
        for (t, s) in net.snapshots().iter().enumerate() {
            assert!(s.num_nodes() > 0, "snapshot {t} empty");
            let (_, k) = glodyne_graph::components::connected_components(s);
            assert!(k <= 1, "snapshot {t} disconnected");
        }
    }

    #[test]
    fn backbone_core_survives() {
        let net = router_mesh(0.4, 12, 4);
        let last = net.snapshot(net.len() - 1);
        // node 0 is a core router and should persist across all churn
        assert!(last.local_of(NodeId(0)).is_some());
    }
}
