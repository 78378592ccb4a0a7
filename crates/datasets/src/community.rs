//! Community-structured generators: FBW (bursty localized activity),
//! the labelled SBM processes behind Cora/DBLP, and a static
//! planted-partition graph for sizing Step 1 on its own.
//!
//! The FBW process is the one that manufactures the paper's central
//! observation (Figure 1 d–f): "real-world dynamic networks usually have
//! some inactive sub-networks where no change occurs lasting for several
//! time steps". Only a fraction of communities is active at each step;
//! the rest receive no edges at all.

use crate::growth::preferential_pick;
use glodyne_graph::id::Edge;
use glodyne_graph::{DynamicNetwork, GraphState, NodeId, Snapshot};
use rand::Rng;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use std::collections::HashMap;

/// FBW analogue: `C` communities of users; each step a subset of
/// communities is "active" and generates wall posts (intra-community
/// edges with a little cross-community chatter).
pub fn wall_posts(scale: f64, steps: usize, seed: u64) -> DynamicNetwork {
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let n_comm = ((12.0 * scale).round() as usize).max(4);
    let per_comm = ((50.0 * scale) as usize).max(8);
    let n0 = (n_comm * per_comm) as u32;

    let comm_of = |v: u32| (v as usize) / per_comm;
    let mut graph = GraphState::new();
    let mut deg = vec![0u32; n0 as usize];

    // Intra-community backbone + initial posts.
    for c in 0..n_comm {
        let base = (c * per_comm) as u32;
        for i in 1..per_comm as u32 {
            let u = base + rng.gen_range(0..i);
            if graph.add_edge(NodeId(base + i), NodeId(u)) {
                deg[(base + i) as usize] += 1;
                deg[u as usize] += 1;
            }
        }
        for _ in 0..per_comm * 2 {
            let a = base + rng.gen_range(0..per_comm as u32);
            let b = base + rng.gen_range(0..per_comm as u32);
            if a != b && graph.add_edge(NodeId(a), NodeId(b)) {
                deg[a as usize] += 1;
                deg[b as usize] += 1;
            }
        }
    }
    // Sparse inter-community ties keep the graph connected.
    for c in 0..n_comm {
        let a = (c * per_comm) as u32;
        let b = (((c + 1) % n_comm) * per_comm) as u32;
        if graph.add_edge(NodeId(a), NodeId(b)) {
            deg[a as usize] += 1;
            deg[b as usize] += 1;
        }
    }

    let mut net = DynamicNetwork::default();
    net.push(graph.commit_lcc());

    // Stable activity profile: a third of communities are "hot" and post
    // most steps; the rest wake rarely — that persistence is what creates
    // multi-step inactive sub-networks.
    let hot: Vec<bool> = (0..n_comm).map(|c| c % 3 == 0).collect();
    let mut total_nodes = n0;
    for _ in 1..steps {
        for c in 0..n_comm {
            let active = if hot[c] {
                rng.gen::<f64>() < 0.9
            } else {
                rng.gen::<f64>() < 0.12
            };
            if !active {
                continue;
            }
            let base = (c * per_comm) as u32;
            // a few new members join active communities
            if rng.gen::<f64>() < 0.3 {
                let v = total_nodes;
                total_nodes += 1;
                deg.push(0);
                let u = base + rng.gen_range(0..per_comm as u32);
                if graph.add_edge(NodeId(v), NodeId(u)) {
                    deg[v as usize] += 1;
                    deg[u as usize] += 1;
                }
            }
            // wall posts within the community
            let posts = rng.gen_range(2..=(per_comm / 4).max(3));
            for _ in 0..posts {
                let a = base + rng.gen_range(0..per_comm as u32);
                let b = base + rng.gen_range(0..per_comm as u32);
                if a != b && graph.add_edge(NodeId(a), NodeId(b)) {
                    deg[a as usize] += 1;
                    deg[b as usize] += 1;
                }
            }
            // occasional cross-community post
            if rng.gen::<f64>() < 0.2 {
                let a = base + rng.gen_range(0..per_comm as u32);
                let b = rng.gen_range(0..n0);
                if a != b && comm_of(a) != comm_of(b) && graph.add_edge(NodeId(a), NodeId(b)) {
                    deg[a as usize] += 1;
                    deg[b as usize] += 1;
                }
            }
        }
        net.push(graph.commit_lcc());
    }
    net
}

/// A static planted-partition graph: `n` nodes in consecutive
/// communities of `community` nodes, every node linking to three random
/// members of its own community and, one time in five, to one random
/// node anywhere (mean degree ≈ 6.2 at `community` = 50). No node is
/// isolated, so the snapshot has exactly `n` nodes. This is the graph
/// the partitioner's scaling guard, its serving-size equality pin and
/// its `cargo bench` row are all measured on.
///
/// # Panics
/// If `community < 2` or `n` is not a multiple of it.
pub fn planted_partition(n: u32, community: u32, seed: u64) -> Snapshot {
    assert!(
        community >= 2 && n.is_multiple_of(community),
        "n must be whole communities of >= 2 nodes"
    );
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let mut edges = Vec::with_capacity(n as usize * 4);
    for v in 0..n {
        let base = v - v % community;
        for _ in 0..3 {
            // any member of the community but v itself
            let u = base + (v - base + 1 + rng.gen_range(0..community - 1)) % community;
            edges.push(Edge::new(NodeId(v), NodeId(u)));
        }
        if rng.gen::<f64>() < 0.2 {
            edges.push(Edge::new(NodeId(v), NodeId(rng.gen_range(0..n))));
        }
    }
    Snapshot::from_edges(&edges, &[])
}

/// Labelled growing SBM used by the Cora and DBLP analogues. Returns the
/// network and a label per node id. `clique_mode` adds co-author-style
/// triangles (DBLP) instead of single citation edges (Cora).
pub fn labelled_sbm(
    scale: f64,
    classes: usize,
    steps: usize,
    clique_mode: bool,
    seed: u64,
) -> (DynamicNetwork, HashMap<NodeId, usize>) {
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let init_per_class = ((14.0 * scale) as usize).max(4);
    let grow_per_class = ((6.0 * scale) as usize).max(2);
    let p_intra = 0.85;

    let mut labels: HashMap<NodeId, usize> = HashMap::new();
    let mut members: Vec<Vec<u32>> = vec![Vec::new(); classes];
    let mut deg: Vec<u32> = Vec::new();
    let mut graph = GraphState::new();
    let mut next_id = 0u32;

    let add_node = |class: usize,
                    graph: &mut GraphState,
                    members: &mut Vec<Vec<u32>>,
                    deg: &mut Vec<u32>,
                    labels: &mut HashMap<NodeId, usize>,
                    next_id: &mut u32,
                    rng: &mut ChaCha8Rng| {
        let v = *next_id;
        *next_id += 1;
        deg.push(0);
        labels.insert(NodeId(v), class);
        // "cite" 1–3 existing works, mostly within the class
        let cites = rng.gen_range(1..=3usize);
        let mut targets: Vec<u32> = Vec::new();
        for _ in 0..cites {
            let target_class = if rng.gen::<f64>() < p_intra || members.iter().all(|m| m.is_empty())
            {
                class
            } else {
                rng.gen_range(0..members.len())
            };
            let pool = if members[target_class].is_empty() {
                // fall back to any non-empty class
                match members.iter().find(|m| !m.is_empty()) {
                    Some(p) => p,
                    None => {
                        members[class].push(v);
                        return;
                    }
                }
            } else {
                &members[target_class]
            };
            // preferential within the pool
            let pool_deg: Vec<u32> = pool.iter().map(|&u| deg[u as usize]).collect();
            let u = pool[preferential_pick(&pool_deg, rng) as usize];
            if u != v && graph.add_edge(NodeId(v), NodeId(u)) {
                deg[v as usize] += 1;
                deg[u as usize] += 1;
                targets.push(u);
            }
        }
        if clique_mode && targets.len() >= 2 {
            // co-authors of the same paper also link to each other
            for i in 0..targets.len() {
                for j in (i + 1)..targets.len() {
                    if graph.add_edge(NodeId(targets[i]), NodeId(targets[j])) {
                        deg[targets[i] as usize] += 1;
                        deg[targets[j] as usize] += 1;
                    }
                }
            }
        }
        members[class].push(v);
    };

    // Initial population.
    for class in 0..classes {
        for _ in 0..init_per_class {
            add_node(
                class,
                &mut graph,
                &mut members,
                &mut deg,
                &mut labels,
                &mut next_id,
                &mut rng,
            );
        }
    }
    // Stitch classes together so the LCC spans them.
    for class in 1..classes {
        let a = members[class - 1][0];
        let b = members[class][0];
        if graph.add_edge(NodeId(a), NodeId(b)) {
            deg[a as usize] += 1;
            deg[b as usize] += 1;
        }
    }

    let mut net = DynamicNetwork::default();
    net.push(graph.commit_lcc());
    for _ in 1..steps {
        for class in 0..classes {
            for _ in 0..grow_per_class {
                add_node(
                    class,
                    &mut graph,
                    &mut members,
                    &mut deg,
                    &mut labels,
                    &mut next_id,
                    &mut rng,
                );
            }
        }
        net.push(graph.commit_lcc());
    }
    (net, labels)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn planted_partition_has_every_node_and_mostly_internal_edges() {
        let g = planted_partition(1_000, 50, 3);
        assert_eq!(g.num_nodes(), 1_000);
        let (mut internal, mut total) = (0usize, 0usize);
        for v in 0..g.num_nodes() {
            for &u in g.neighbors(v) {
                total += 1;
                internal += usize::from(g.node_id(v).0 / 50 == g.node_id(u as usize).0 / 50);
            }
        }
        let mean_degree = total as f64 / 1_000.0;
        assert!((5.0..7.0).contains(&mean_degree), "degree {mean_degree}");
        assert!(internal * 10 > total * 9, "{internal} of {total} internal");
    }

    #[test]
    fn wall_posts_have_inactive_communities() {
        // Count communities untouched for >= 3 consecutive steps using
        // true community ids (the experiment binary uses partitions).
        let scale = 0.5;
        let net = wall_posts(scale, 15, 1);
        let per_comm = ((50.0 * scale) as usize).max(8);
        let comm_of = |v: u32| (v as usize) / per_comm;
        let n_comm = ((12.0 * scale).round() as usize).max(4);
        let mut max_quiet = vec![0usize; n_comm];
        let mut quiet = vec![0usize; n_comm];
        for t in 1..net.len() {
            let diff = net.diff_at(t);
            let mut touched = vec![false; n_comm];
            for e in diff.added.iter().chain(diff.removed.iter()) {
                for v in [e.u.0, e.v.0] {
                    let c = comm_of(v);
                    if c < n_comm {
                        touched[c] = true;
                    }
                }
            }
            for c in 0..n_comm {
                if touched[c] {
                    quiet[c] = 0;
                } else {
                    quiet[c] += 1;
                    max_quiet[c] = max_quiet[c].max(quiet[c]);
                }
            }
        }
        let inactive = max_quiet.iter().filter(|&&q| q >= 3).count();
        assert!(
            inactive >= 1,
            "expected inactive communities, max_quiet = {max_quiet:?}"
        );
    }

    #[test]
    fn sbm_labels_cover_all_classes() {
        let (net, labels) = labelled_sbm(0.5, 6, 5, false, 2);
        let last = net.snapshot(net.len() - 1);
        let mut present = vec![false; 6];
        for id in last.node_ids() {
            present[labels[id]] = true;
        }
        assert!(present.iter().all(|&p| p), "classes present: {present:?}");
    }

    #[test]
    fn sbm_is_assortative() {
        // Most edges should join same-class nodes (what makes NC work).
        let (net, labels) = labelled_sbm(0.5, 6, 8, false, 3);
        let last = net.snapshot(net.len() - 1);
        let mut intra = 0usize;
        let mut total = 0usize;
        for e in last.edges() {
            total += 1;
            if labels[&e.u] == labels[&e.v] {
                intra += 1;
            }
        }
        assert!(
            intra as f64 / total as f64 > 0.6,
            "intra fraction {}",
            intra as f64 / total as f64
        );
    }

    #[test]
    fn clique_mode_has_more_triangles() {
        let (cora_net, _) = labelled_sbm(0.5, 5, 6, false, 4);
        let (dblp_net, _) = labelled_sbm(0.5, 5, 6, true, 4);
        let tri = |s: &glodyne_graph::Snapshot| {
            let mut count = 0usize;
            for a in 0..s.num_nodes() {
                let na = s.neighbors(a);
                for &b in na {
                    if (b as usize) < a {
                        continue;
                    }
                    for &c in s.neighbors(b as usize) {
                        if (c as usize) > b as usize && s.has_edge(a, c as usize) {
                            count += 1;
                        }
                    }
                }
            }
            count
        };
        let t_cora = tri(cora_net.snapshot(cora_net.len() - 1));
        let t_dblp = tri(dblp_net.snapshot(dblp_net.len() - 1));
        assert!(
            t_dblp > t_cora,
            "clique mode triangles {t_dblp} <= citation {t_cora}"
        );
    }

    #[test]
    fn networks_only_add_edges() {
        let net = wall_posts(0.4, 8, 5);
        for t in 1..net.len() {
            assert!(net.diff_at(t).removed.is_empty(), "FBW should only add");
        }
    }
}
