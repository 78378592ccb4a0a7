//! Graph Reconstruction (§5.2.1).
//!
//! `P@k(v) = |Q(v)@k ∩ N(v)| / min(k, |N(v)|)` where `Q(v)@k` is the
//! top-k cosine-similar nodes in the embedding space, and
//! `MeanP@k = (Σ_v P@k(v)) / |V|` over all nodes of the current
//! snapshot. This is the task that directly measures *global topology
//! preservation*.

use glodyne_embed::kernel::dot_exact_run;
use glodyne_embed::Embedding;
use glodyne_graph::Snapshot;
use rayon::prelude::*;

/// Compute MeanP@k for several `k`s at once (sharing the similarity
/// computation). Nodes without an embedding score 0 at every `k` —
/// a method that failed to embed part of the snapshot is penalised, not
/// skipped. Isolated nodes (no ground-truth neighbours) are excluded as
/// in the paper (their `P@k` is undefined).
pub fn mean_precision_at_k(emb: &Embedding, snapshot: &Snapshot, ks: &[usize]) -> Vec<f64> {
    let n = snapshot.num_nodes();
    if n == 0 || ks.is_empty() {
        return vec![0.0; ks.len()];
    }
    let max_k = *ks.iter().max().unwrap();
    let dim = emb.dim();

    // Dense, L2-normalised matrix in snapshot-local order (zero rows for
    // missing embeddings -> cosine 0 with everything).
    let mut matrix = vec![0.0f32; n * dim];
    let mut has_emb = vec![false; n];
    for l in 0..n {
        if let Some(v) = emb.get(snapshot.node_id(l)) {
            let norm: f32 = v.iter().map(|x| x * x).sum::<f32>().sqrt();
            if norm > 0.0 {
                for (j, &x) in v.iter().enumerate() {
                    matrix[l * dim + j] = x / norm;
                }
                has_emb[l] = true;
            }
        }
    }

    let per_node: Vec<Vec<f64>> = (0..n)
        .into_par_iter()
        .filter(|&q| snapshot.degree(q) > 0)
        .map(|q| {
            if !has_emb[q] {
                return vec![0.0; ks.len()];
            }
            // Similarities of q to all other nodes: each row's dot
            // summed left to right, eight rows per pass. (The chain
            // starts from +0 where `f32: Sum` may start from -0: only
            // an exact-zero score's sign can differ, and the sort
            // ranks ±0 as equal.)
            let qrow = &matrix[q * dim..(q + 1) * dim];
            let mut sims: Vec<(f32, u32)> = Vec::with_capacity(n - 1);
            dot_exact_run(qrow, &matrix, n, |o, s| {
                if o != q {
                    sims.push((s, o as u32));
                }
            });
            // Partial top-max_k selection, then sort the head descending.
            let top = max_k.min(sims.len());
            sims.select_nth_unstable_by(top.saturating_sub(1), |a, b| {
                b.0.partial_cmp(&a.0).unwrap().then(a.1.cmp(&b.1))
            });
            sims.truncate(top);
            sims.sort_unstable_by(|a, b| b.0.partial_cmp(&a.0).unwrap().then(a.1.cmp(&b.1)));

            let neighbors = snapshot.neighbors(q);
            ks.iter()
                .map(|&k| {
                    let kk = k.min(sims.len());
                    let hits = sims[..kk]
                        .iter()
                        .filter(|&&(_, o)| neighbors.binary_search(&o).is_ok())
                        .count();
                    hits as f64 / k.min(neighbors.len()).max(1) as f64
                })
                .collect()
        })
        .collect();

    let queried = per_node.len().max(1);
    let mut out = vec![0.0; ks.len()];
    for row in &per_node {
        for (o, v) in out.iter_mut().zip(row) {
            *o += v;
        }
    }
    for o in out.iter_mut() {
        *o /= queried as f64;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use glodyne_graph::id::{Edge, NodeId};

    fn snap(edges: &[(u32, u32)]) -> Snapshot {
        let es: Vec<Edge> = edges
            .iter()
            .map(|&(a, b)| Edge::new(NodeId(a), NodeId(b)))
            .collect();
        Snapshot::from_edges(&es, &[])
    }

    /// Embedding where each node's vector equals its adjacency row —
    /// perfect reconstruction oracle for small graphs.
    fn adjacency_embedding(g: &Snapshot) -> Embedding {
        let n = g.num_nodes();
        let mut e = Embedding::new(n);
        for l in 0..n {
            let mut v = vec![0.0f32; n];
            v[l] = 0.5; // self-similarity anchor
            for &u in g.neighbors(l) {
                v[u as usize] = 1.0;
            }
            e.set(g.node_id(l), &v);
        }
        e
    }

    #[test]
    fn perfect_embedding_on_triangle() {
        let g = snap(&[(0, 1), (1, 2), (0, 2)]);
        let e = adjacency_embedding(&g);
        let scores = mean_precision_at_k(&e, &g, &[1, 2]);
        assert!(
            scores[1] > 0.99,
            "P@2 on a triangle should be 1, got {scores:?}"
        );
    }

    #[test]
    fn random_embedding_scores_low_on_sparse_graph() {
        use rand::{Rng, SeedableRng};
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(0);
        // 40-node ring: each node has 2 neighbours among 39 candidates.
        let edges: Vec<(u32, u32)> = (0..40).map(|i| (i, (i + 1) % 40)).collect();
        let g = snap(&edges);
        let mut e = Embedding::new(16);
        for l in 0..g.num_nodes() {
            let v: Vec<f32> = (0..16).map(|_| rng.gen_range(-1.0..1.0)).collect();
            e.set(g.node_id(l), &v);
        }
        let s = mean_precision_at_k(&e, &g, &[1]);
        assert!(s[0] < 0.3, "random should score low, got {}", s[0]);
    }

    #[test]
    fn missing_embeddings_penalised() {
        let g = snap(&[(0, 1), (1, 2), (0, 2)]);
        let full = adjacency_embedding(&g);
        let mut partial = Embedding::new(g.num_nodes());
        // only node 0 embedded
        partial.set(NodeId(0), full.get(NodeId(0)).unwrap());
        let s_full = mean_precision_at_k(&full, &g, &[2]);
        let s_partial = mean_precision_at_k(&partial, &g, &[2]);
        assert!(s_partial[0] < s_full[0]);
    }

    #[test]
    fn min_k_degree_denominator() {
        // star: center has 4 neighbours, leaves have 1.
        // With k=4 a perfect embedding still gets P@4(leaf)=1 because the
        // denominator is min(k, |N|) = 1.
        let g = snap(&[(0, 1), (0, 2), (0, 3), (0, 4)]);
        let e = adjacency_embedding(&g);
        let s = mean_precision_at_k(&e, &g, &[4]);
        assert!(s[0] > 0.95, "P@4 {s:?}");
    }

    #[test]
    fn empty_inputs() {
        let g = Snapshot::empty();
        let e = Embedding::new(4);
        assert_eq!(mean_precision_at_k(&e, &g, &[1, 5]), vec![0.0, 0.0]);
    }
}
