//! Owner-filtered fan-out `nearest` across per-shard embeddings.
//!
//! A sharded deployment holds one embedding per shard, and boundary
//! (halo) nodes are trained in *every* shard that mirrors them — so a
//! node id can carry different vectors in different shards. The global
//! read surface resolves that by **ownership**: the sharded view of
//! node `n` is the vector its owner shard trained; halo copies are
//! invisible. [`union_embedding`] materialises that view (the
//! executable spec), and [`nearest_exact`] computes its `top_k`
//! *without* materialising it: each shard scans only its owned rows
//! and all candidates merge through the shared
//! [`glodyne_embed::TopKSelector`] under
//! `rank_similarity` — the same kernel (`norm_cosine` over cached
//! norms) and the same total order as `Embedding::top_k`, so the
//! fan-out result is **bit-exact** with an unsharded exact scan of the
//! owner-filtered union. Property-pinned in `tests/prop.rs`.

use glodyne_ann::{BatchQuery, IvfIndex, SearchScratch};
use glodyne_embed::embedding::norm_cosine;
use glodyne_embed::{Embedding, TopKSelector};
use glodyne_graph::NodeId;

/// One shard's read surface offered to a fan-out query.
#[derive(Clone, Copy)]
pub struct ShardView<'a> {
    /// The shard id (must match what `owner` returns for its rows).
    pub shard: u32,
    /// The shard's (latest committed) embedding.
    pub embedding: &'a Embedding,
    /// The shard's IVF index over that embedding, when ANN is enabled.
    pub index: Option<&'a IvfIndex>,
}

/// The query vector of `node` as the sharded view defines it: the copy
/// trained by its owner shard. `None` when the node has no owner or
/// its owner hasn't embedded it yet (e.g. it arrived after the owner's
/// last committed step).
fn owned_query<'a>(
    views: &[ShardView<'a>],
    owner: impl Fn(NodeId) -> Option<u32>,
    node: NodeId,
) -> Option<(&'a [f32], f32)> {
    let shard = owner(node)?;
    let view = views.iter().find(|v| v.shard == shard)?;
    Some((view.embedding.get(node)?, view.embedding.norm(node)?))
}

/// Exact global `nearest`: fan out over every shard, scan only rows
/// the shard owns, merge through one bounded `k`-heap. Bit-exact with
/// `union_embedding(views, owner).top_k(node, k)`. Empty when `node`
/// has no owned vector.
pub fn nearest_exact(
    views: &[ShardView<'_>],
    owner: impl Fn(NodeId) -> Option<u32>,
    node: NodeId,
    k: usize,
) -> Vec<(NodeId, f32)> {
    let Some((q, qn)) = owned_query(views, &owner, node) else {
        return Vec::new();
    };
    if k == 0 {
        return Vec::new();
    }
    let mut select = TopKSelector::new(k);
    for view in views {
        for (id, v, vn) in view.embedding.iter_with_norms() {
            if id == node || owner(id) != Some(view.shard) {
                continue;
            }
            select.push((id, norm_cosine(q, qn, v, vn)));
        }
    }
    select.into_sorted()
}

/// Approximate global `nearest`: probe each shard's IVF index with
/// `nprobe` cells, drop hits the shard doesn't own (halo copies), and
/// merge the survivors through one bounded `k`-heap. Shards without an
/// index contribute nothing. Because the ownership filter runs *after*
/// the per-shard index scan, each shard is over-fetched by the
/// configured factor (`k * overfetch` candidates,
/// [`ShardConfig::ann_overfetch`](crate::ShardConfig::ann_overfetch))
/// so halo hits don't crowd owned rows out of its contribution; a very
/// boundary-heavy shard can still contribute fewer than `k` owned
/// candidates — this path is approximate by contract; its recall is
/// measured in `bench_shard`. Use [`nearest_exact`] for the exact
/// guarantee.
pub fn nearest_approx(
    views: &[ShardView<'_>],
    owner: impl Fn(NodeId) -> Option<u32>,
    node: NodeId,
    k: usize,
    nprobe: usize,
    overfetch: usize,
) -> Vec<(NodeId, f32)> {
    nearest_approx_with(
        views,
        owner,
        node,
        k,
        nprobe,
        overfetch,
        &mut SearchScratch::new(),
    )
}

/// [`nearest_approx`] with caller-owned scan scratch, reusable across
/// calls. Per-shard scans go through `IvfIndex::search_in` against the
/// shard's own embedding, so SQ8-quantized shards re-rank with the
/// exact kernel before the merge.
pub fn nearest_approx_with(
    views: &[ShardView<'_>],
    owner: impl Fn(NodeId) -> Option<u32>,
    node: NodeId,
    k: usize,
    nprobe: usize,
    overfetch: usize,
    scratch: &mut SearchScratch,
) -> Vec<(NodeId, f32)> {
    let Some((q, _)) = owned_query(views, &owner, node) else {
        return Vec::new();
    };
    if k == 0 {
        return Vec::new();
    }
    let fetch = k.saturating_mul(overfetch.max(1));
    let mut select = TopKSelector::new(k);
    for view in views {
        let Some(index) = view.index else { continue };
        for (id, sim) in index.search_in_with(view.embedding, q, fetch, nprobe, Some(node), scratch)
        {
            if owner(id) == Some(view.shard) {
                select.push((id, sim));
            }
        }
    }
    select.into_sorted()
}

/// [`nearest_approx`] for a whole batch against one set of shard
/// views: each shard answers the whole batch through
/// `IvfIndex::search_in_batch_with` (grouped where that pays, per
/// query otherwise — bit-identical either way, pinned in the ann
/// crate), and each query's shard contributions merge through its own
/// `k`-heap in the same view order as [`nearest_approx_with`] — so
/// every entry is bit-exact with the corresponding single-query call
/// over the same views. Positionally parallel to `nodes`; unowned
/// probes yield empty entries.
pub fn nearest_approx_batch(
    views: &[ShardView<'_>],
    owner: impl Fn(NodeId) -> Option<u32>,
    nodes: &[NodeId],
    k: usize,
    nprobe: usize,
    overfetch: usize,
) -> Vec<Vec<(NodeId, f32)>> {
    // An unowned probe is an empty query, which every index answers
    // with an empty list.
    let queries: Vec<BatchQuery<'_>> = nodes
        .iter()
        .map(|&node| BatchQuery {
            query: owned_query(views, &owner, node)
                .map(|(q, _)| q)
                .unwrap_or_default(),
            exclude: Some(node),
        })
        .collect();
    let fetch = k.saturating_mul(overfetch.max(1));
    let mut selectors: Vec<TopKSelector> = nodes.iter().map(|_| TopKSelector::new(k)).collect();
    let mut scratch = SearchScratch::new();
    for view in views {
        let Some(index) = view.index else { continue };
        let hits =
            index.search_in_batch_with(view.embedding, &queries, fetch, nprobe, &mut scratch);
        for (select, hits) in selectors.iter_mut().zip(hits) {
            for (id, sim) in hits {
                if owner(id) == Some(view.shard) {
                    select.push((id, sim));
                }
            }
        }
    }
    selectors
        .into_iter()
        .map(TopKSelector::into_sorted)
        .collect()
}

/// Materialise the sharded global view: every owned row of every
/// shard, copied in view order. The executable spec the fan-out paths
/// are pinned against — `nearest_exact` must equal this embedding's
/// `top_k`, bit for bit.
pub fn union_embedding(
    views: &[ShardView<'_>],
    owner: impl Fn(NodeId) -> Option<u32>,
) -> Embedding {
    let dim = views.first().map_or(0, |v| v.embedding.dim());
    let mut union = Embedding::new(dim);
    for view in views {
        for (id, v) in view.embedding.iter() {
            if owner(id) == Some(view.shard) {
                union.set(id, v);
            }
        }
    }
    union
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Deterministic pseudo-random embedding (the workspace's SplitMix
    /// mixing recipe).
    fn pseudo_random(ids: &[u32], dim: usize, salt: u64) -> Embedding {
        let mut e = Embedding::new(dim);
        let mut state = 0x9e37_79b9_7f4a_7c15u64 ^ salt;
        let mut next = move || {
            state = state.wrapping_mul(0xd129_42e2_96fe_94e3).wrapping_add(1);
            ((state >> 40) as f32) / 1e6 - 8.0
        };
        for &i in ids {
            let v: Vec<f32> = (0..dim).map(|_| next()).collect();
            e.set(NodeId(i), &v);
        }
        e
    }

    fn assert_bit_exact(a: &[(NodeId, f32)], b: &[(NodeId, f32)]) {
        assert_eq!(a.len(), b.len());
        for (x, y) in a.iter().zip(b) {
            assert_eq!(x.0, y.0);
            assert_eq!(x.1.to_bits(), y.1.to_bits());
        }
    }

    /// Two shards with overlapping populations (the overlap plays the
    /// halo): ownership by id parity.
    fn two_views() -> (Embedding, Embedding) {
        let a = pseudo_random(&[0, 2, 4, 6, 8, 1, 3], 6, 1); // owns evens; 1,3 are halos
        let b = pseudo_random(&[1, 3, 5, 7, 9, 0, 2], 6, 2); // owns odds; 0,2 are halos
        (a, b)
    }

    fn owner(id: NodeId) -> Option<u32> {
        (id.0 < 10).then_some(id.0 % 2)
    }

    #[test]
    fn fanout_exact_is_bit_exact_with_the_union_scan() {
        let (a, b) = two_views();
        let views = [
            ShardView {
                shard: 0,
                embedding: &a,
                index: None,
            },
            ShardView {
                shard: 1,
                embedding: &b,
                index: None,
            },
        ];
        let union = union_embedding(&views, owner);
        assert_eq!(union.len(), 10, "halo copies dropped, owners kept");
        for probe in [0u32, 1, 5, 8] {
            for k in [1usize, 3, 10, 50] {
                let fan = nearest_exact(&views, owner, NodeId(probe), k);
                let spec = union.top_k(NodeId(probe), k);
                assert_bit_exact(&fan, &spec);
            }
        }
    }

    #[test]
    fn halo_copies_never_surface() {
        let (a, b) = two_views();
        let views = [
            ShardView {
                shard: 0,
                embedding: &a,
                index: None,
            },
            ShardView {
                shard: 1,
                embedding: &b,
                index: None,
            },
        ];
        let hits = nearest_exact(&views, owner, NodeId(0), 20);
        assert_eq!(hits.len(), 9, "every owned node once, probe excluded");
        let mut ids: Vec<u32> = hits.iter().map(|&(id, _)| id.0).collect();
        ids.sort_unstable();
        ids.dedup();
        assert_eq!(ids.len(), 9, "no duplicate ids from halo copies");
        // The similarity of an odd node must come from shard 1's copy.
        let (_, sim3) = *hits.iter().find(|&&(id, _)| id == NodeId(3)).unwrap();
        let q = a.get(NodeId(0)).unwrap();
        let owner_copy = glodyne_embed::embedding::cosine(q, b.get(NodeId(3)).unwrap());
        assert_eq!(sim3.to_bits(), owner_copy.to_bits());
    }

    #[test]
    fn unowned_or_missing_probe_is_empty() {
        let (a, b) = two_views();
        let views = [
            ShardView {
                shard: 0,
                embedding: &a,
                index: None,
            },
            ShardView {
                shard: 1,
                embedding: &b,
                index: None,
            },
        ];
        assert!(nearest_exact(&views, owner, NodeId(77), 5).is_empty());
        assert!(nearest_exact(&views, owner, NodeId(0), 0).is_empty());
        // Node 11 would be owned by shard 1 per the map, but no shard
        // embedded it.
        assert!(nearest_exact(&views, |_| Some(1), NodeId(11), 5).is_empty());
    }

    #[test]
    fn fanout_ann_filters_halos_and_full_probe_matches_on_clean_splits() {
        use glodyne_ann::IvfConfig;
        // Disjoint populations (no halos): full-probe ANN fan-out must
        // equal the exact fan-out.
        let a = pseudo_random(&[0, 2, 4, 6, 8], 6, 3);
        let b = pseudo_random(&[1, 3, 5, 7, 9], 6, 4);
        let cfg = IvfConfig {
            cells: 2,
            ..Default::default()
        };
        let (ia, ib) = (IvfIndex::build(&a, &cfg), IvfIndex::build(&b, &cfg));
        let views = [
            ShardView {
                shard: 0,
                embedding: &a,
                index: Some(&ia),
            },
            ShardView {
                shard: 1,
                embedding: &b,
                index: Some(&ib),
            },
        ];
        for probe in [0u32, 3, 9] {
            let ann = nearest_approx(&views, owner, NodeId(probe), 4, usize::MAX, 2);
            let exact = nearest_exact(&views, owner, NodeId(probe), 4);
            assert_bit_exact(&ann, &exact);
        }
        // A view without an index contributes nothing (and doesn't
        // panic).
        let views = [
            ShardView {
                shard: 0,
                embedding: &a,
                index: Some(&ia),
            },
            ShardView {
                shard: 1,
                embedding: &b,
                index: None,
            },
        ];
        let hits = nearest_approx(&views, owner, NodeId(0), 10, usize::MAX, 2);
        assert!(hits.iter().all(|&(id, _)| id.0 % 2 == 0));
    }

    #[test]
    fn grouped_batch_fanout_is_bit_exact_with_per_query_calls() {
        use glodyne_ann::IvfConfig;
        // Overlapping populations (halos live on both shards) make the
        // ownership filter do real work inside the grouped scan.
        let (a, b) = two_views();
        let cfg = IvfConfig {
            cells: 3,
            ..Default::default()
        };
        let (ia, ib) = (IvfIndex::build(&a, &cfg), IvfIndex::build(&b, &cfg));
        let views = [
            ShardView {
                shard: 0,
                embedding: &a,
                index: Some(&ia),
            },
            ShardView {
                shard: 1,
                embedding: &b,
                index: Some(&ib),
            },
        ];
        // Batch mixes owned probes, a repeat, and an unowned id.
        let nodes: Vec<NodeId> = [0u32, 5, 3, 8, 0, 77].map(NodeId).to_vec();
        for nprobe in [1usize, 2, usize::MAX] {
            for overfetch in [1usize, 2, 4] {
                let batch = nearest_approx_batch(&views, owner, &nodes, 4, nprobe, overfetch);
                assert_eq!(batch.len(), nodes.len());
                let mut scratch = SearchScratch::new();
                for (&node, hits) in nodes.iter().zip(&batch) {
                    let single = nearest_approx_with(
                        &views,
                        owner,
                        node,
                        4,
                        nprobe,
                        overfetch,
                        &mut scratch,
                    );
                    assert_bit_exact(hits, &single);
                }
            }
        }
        assert!(
            nearest_approx_batch(&views, owner, &nodes, 0, 2, 2)
                .iter()
                .all(Vec::is_empty),
            "k = 0 short-circuits"
        );
    }
}
