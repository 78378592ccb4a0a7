//! Additive growth processes (no deletions): Elec, HepPh, Hyperlink.

use glodyne_graph::{DynamicNetwork, GraphState, NodeId};
use rand::Rng;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

/// Pick a node preferentially by degree (degree + 1 smoothing) from the
/// ids `0..n`. `deg` is indexed by raw node id.
pub(crate) fn preferential_pick(deg: &[u32], rng: &mut impl Rng) -> u32 {
    let total: u64 = deg.iter().map(|&d| d as u64 + 1).sum();
    let mut draw = rng.gen_range(0..total);
    for (i, &d) in deg.iter().enumerate() {
        let w = d as u64 + 1;
        if draw < w {
            return i as u32;
        }
        draw -= w;
    }
    (deg.len() - 1) as u32
}

/// Connect a backbone so the LCC covers (almost) all nodes: each node
/// links to a random earlier node.
pub(crate) fn seed_backbone(
    graph: &mut GraphState,
    n: u32,
    deg: &mut Vec<u32>,
    rng: &mut impl Rng,
) {
    deg.resize(n as usize, 0);
    for v in 1..n {
        let u = rng.gen_range(0..v);
        if graph.add_edge(NodeId(v), NodeId(u)) {
            deg[v as usize] += 1;
            deg[u as usize] += 1;
        }
    }
}

/// Elec analogue: a moderately dense vote network. Additions only; a
/// small stream of new voters plus many new vote edges between existing
/// users each day (the paper's Elec grows by ~100 nodes / 1.6k edges
/// over 21 daily snapshots on a 7k-node base — slow node growth, steady
/// edge growth).
pub fn vote_network(scale: f64, steps: usize, seed: u64) -> DynamicNetwork {
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let n0 = ((400.0 * scale) as u32).max(30);
    let mut graph = GraphState::new();
    let mut deg: Vec<u32> = Vec::new();
    seed_backbone(&mut graph, n0, &mut deg, &mut rng);

    // Densify the initial snapshot: votes concentrate on "candidates"
    // (preferential targets).
    let initial_edges = (n0 as usize) * 6;
    for _ in 0..initial_edges {
        let a = rng.gen_range(0..n0);
        let b = preferential_pick(&deg, &mut rng);
        if a != b && graph.add_edge(NodeId(a), NodeId(b)) {
            deg[a as usize] += 1;
            deg[b as usize] += 1;
        }
    }

    let mut net = DynamicNetwork::default();
    net.push(graph.commit_lcc());
    for _ in 1..steps {
        // ~0.3% new voters per day; each casts a few votes.
        let newcomers = ((n0 as f64 * 0.004).ceil() as u32).max(1);
        for _ in 0..newcomers {
            let v = deg.len() as u32;
            deg.push(0);
            let votes = rng.gen_range(1..4);
            for _ in 0..votes {
                let b = preferential_pick(&deg[..v as usize], &mut rng);
                if graph.add_edge(NodeId(v), NodeId(b)) {
                    deg[v as usize] += 1;
                    deg[b as usize] += 1;
                }
            }
        }
        // Existing users vote: ~0.4% of |E| new edges.
        let new_votes = ((graph.num_edges() as f64 * 0.006).ceil() as usize).max(4);
        for _ in 0..new_votes {
            let a = rng.gen_range(0..deg.len() as u32);
            let b = preferential_pick(&deg, &mut rng);
            if a != b && graph.add_edge(NodeId(a), NodeId(b)) {
                deg[a as usize] += 1;
                deg[b as usize] += 1;
            }
        }
        net.push(graph.commit_lcc());
    }
    net
}

/// HepPh analogue: co-authorship by paper cliques. Each month a batch of
/// "papers" appears; each paper's author list mixes established authors
/// (preferential) and fresh ones, and contributes a clique.
pub fn coauthor_cliques(scale: f64, steps: usize, seed: u64) -> DynamicNetwork {
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let n0 = ((250.0 * scale) as u32).max(24);
    let mut graph = GraphState::new();
    let mut deg: Vec<u32> = Vec::new();
    seed_backbone(&mut graph, n0, &mut deg, &mut rng);

    let publish_batch =
        |graph: &mut GraphState, deg: &mut Vec<u32>, rng: &mut ChaCha8Rng, papers: usize| {
            for _ in 0..papers {
                let team = rng.gen_range(2..=5usize);
                let mut authors: Vec<u32> = Vec::with_capacity(team);
                for _ in 0..team {
                    // 15% chance of a brand-new author.
                    let a = if rng.gen::<f64>() < 0.15 {
                        deg.push(0);
                        (deg.len() - 1) as u32
                    } else {
                        preferential_pick(deg, rng)
                    };
                    if !authors.contains(&a) {
                        authors.push(a);
                    }
                }
                for i in 0..authors.len() {
                    for j in (i + 1)..authors.len() {
                        if graph.add_edge(NodeId(authors[i]), NodeId(authors[j])) {
                            deg[authors[i] as usize] += 1;
                            deg[authors[j] as usize] += 1;
                        }
                    }
                }
            }
        };

    // Dense initial literature.
    publish_batch(&mut graph, &mut deg, &mut rng, (n0 as usize) * 2);
    let mut net = DynamicNetwork::default();
    net.push(graph.commit_lcc());
    for _ in 1..steps {
        let papers = ((n0 as f64 * 0.12).ceil() as usize).max(3);
        publish_batch(&mut graph, &mut deg, &mut rng, papers);
        net.push(graph.commit_lcc());
    }
    net
}

/// Hyperlink analogue for the scale test: preferential attachment with a
/// larger base and steady daily growth.
pub fn hyperlink(scale: f64, steps: usize, seed: u64) -> DynamicNetwork {
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let n0 = ((2000.0 * scale) as u32).max(100);
    let mut graph = GraphState::new();
    let mut deg: Vec<u32> = Vec::new();
    seed_backbone(&mut graph, n0, &mut deg, &mut rng);
    for _ in 0..(n0 as usize * 8) {
        let a = rng.gen_range(0..n0);
        let b = preferential_pick(&deg, &mut rng);
        if a != b && graph.add_edge(NodeId(a), NodeId(b)) {
            deg[a as usize] += 1;
            deg[b as usize] += 1;
        }
    }
    let mut net = DynamicNetwork::default();
    net.push(graph.commit_lcc());
    for _ in 1..steps {
        let new_nodes = ((n0 as f64) * 0.001).ceil() as u32;
        for _ in 0..new_nodes.max(1) {
            let v = deg.len() as u32;
            deg.push(0);
            for _ in 0..3 {
                let b = preferential_pick(&deg[..v as usize], &mut rng);
                if graph.add_edge(NodeId(v), NodeId(b)) {
                    deg[v as usize] += 1;
                    deg[b as usize] += 1;
                }
            }
        }
        let new_links = ((graph.num_edges() as f64) * 0.002).ceil() as usize;
        for _ in 0..new_links {
            let a = rng.gen_range(0..deg.len() as u32);
            let b = preferential_pick(&deg, &mut rng);
            if a != b && graph.add_edge(NodeId(a), NodeId(b)) {
                deg[a as usize] += 1;
                deg[b as usize] += 1;
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
    fn preferential_pick_prefers_hubs() {
        let deg = vec![100, 0, 0, 0];
        let mut rng = ChaCha8Rng::seed_from_u64(0);
        let hits = (0..1000)
            .filter(|_| preferential_pick(&deg, &mut rng) == 0)
            .count();
        assert!(hits > 900, "hub hit only {hits}/1000");
    }

    #[test]
    fn vote_network_monotone_growth() {
        let net = vote_network(0.3, 8, 1);
        for t in 1..net.len() {
            assert!(net.snapshot(t).num_edges() >= net.snapshot(t - 1).num_edges());
        }
    }

    #[test]
    fn coauthor_is_dense() {
        let net = coauthor_cliques(0.3, 5, 2);
        let last = net.snapshot(net.len() - 1);
        assert!(
            last.mean_degree() > 4.0,
            "mean degree {}",
            last.mean_degree()
        );
    }

    #[test]
    fn hyperlink_scale_grows() {
        let net = hyperlink(0.1, 3, 3);
        assert!(net.snapshot(0).num_nodes() >= 100);
    }

    #[test]
    fn backbone_is_connected() {
        let mut rng = ChaCha8Rng::seed_from_u64(4);
        let mut b = GraphState::new();
        let mut deg = Vec::new();
        seed_backbone(&mut b, 50, &mut deg, &mut rng);
        let s = b.commit();
        let (_, k) = glodyne_graph::components::connected_components(&s);
        assert_eq!(k, 1);
    }
}
