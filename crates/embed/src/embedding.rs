//! The `NodeId`-keyed embedding matrix handed to downstream tasks.

use glodyne_graph::NodeId;
use std::cmp::Ordering;
use std::collections::HashMap;

/// A set of `d`-dimensional node embeddings (`Z^t ∈ R^{|V^t| × d}` of
/// Definition 4), keyed by stable [`NodeId`].
///
/// Each node's L2 norm is cached at write time (`set` is the only write
/// path), so cosine ranking over the whole store ([`Embedding::top_k`])
/// pays one dot product per candidate instead of three.
#[derive(Debug, Clone, Default)]
pub struct Embedding {
    dim: usize,
    index: HashMap<NodeId, u32>,
    ids: Vec<NodeId>,
    data: Vec<f32>,
    /// Per-node L2 norms, parallel to `ids`; entry `i` is recomputed
    /// whenever row `i` is overwritten.
    norms: Vec<f32>,
}

impl Embedding {
    /// Empty embedding store of dimensionality `dim`.
    pub fn new(dim: usize) -> Self {
        Embedding {
            dim,
            index: HashMap::new(),
            ids: Vec::new(),
            data: Vec::new(),
            norms: Vec::new(),
        }
    }

    /// Embedding dimensionality `d`.
    #[inline]
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// Number of embedded nodes.
    #[inline]
    pub fn len(&self) -> usize {
        self.ids.len()
    }

    /// Whether no node has an embedding.
    pub fn is_empty(&self) -> bool {
        self.ids.is_empty()
    }

    /// The vector for `id`, if present.
    pub fn get(&self, id: NodeId) -> Option<&[f32]> {
        self.index
            .get(&id)
            .map(|&i| &self.data[i as usize * self.dim..(i as usize + 1) * self.dim])
    }

    /// Insert or overwrite the vector for `id`, refreshing its cached
    /// norm.
    pub fn set(&mut self, id: NodeId, vector: &[f32]) {
        assert_eq!(vector.len(), self.dim, "vector dimension mismatch");
        let norm = l2_norm(vector);
        match self.index.get(&id) {
            Some(&i) => {
                self.data[i as usize * self.dim..(i as usize + 1) * self.dim]
                    .copy_from_slice(vector);
                self.norms[i as usize] = norm;
            }
            None => {
                let i = self.ids.len() as u32;
                self.index.insert(id, i);
                self.ids.push(id);
                self.data.extend_from_slice(vector);
                self.norms.push(norm);
            }
        }
    }

    /// The cached L2 norm of `id`'s vector, if present.
    pub fn norm(&self, id: NodeId) -> Option<f32> {
        self.index.get(&id).map(|&i| self.norms[i as usize])
    }

    /// Iterate `(id, vector)` in insertion order.
    pub fn iter(&self) -> impl Iterator<Item = (NodeId, &[f32])> {
        self.ids
            .iter()
            .enumerate()
            .map(move |(i, &id)| (id, &self.data[i * self.dim..(i + 1) * self.dim]))
    }

    /// Iterate `(id, vector, cached_norm)` in insertion order — the
    /// scan shape every cosine-ranking surface wants: one dot product
    /// per candidate with no per-row norm lookup. The sharded fan-out
    /// merge in `glodyne-shard` scans shard embeddings through this.
    pub fn iter_with_norms(&self) -> impl Iterator<Item = (NodeId, &[f32], f32)> {
        self.ids
            .iter()
            .zip(&self.norms)
            .enumerate()
            .map(move |(i, (&id, &norm))| (id, &self.data[i * self.dim..(i + 1) * self.dim], norm))
    }

    /// All embedded node ids in insertion order.
    pub fn ids(&self) -> &[NodeId] {
        &self.ids
    }

    /// Cosine similarity between two embedded nodes; `None` if either is
    /// missing. Zero vectors yield similarity 0.
    pub fn cosine(&self, a: NodeId, b: NodeId) -> Option<f32> {
        let va = self.get(a)?;
        let vb = self.get(b)?;
        Some(cosine(va, vb))
    }

    /// The `k` cosine-nearest embedded neighbours of `node` (excluding
    /// `node` itself), ordered by [`rank_similarity`]: most similar
    /// first, ties toward the smaller id, NaN similarities last. Empty
    /// if `node` has no embedding.
    ///
    /// Linear scan over all embedded nodes, using the cached norms —
    /// one dot product per candidate, with the `k` best kept in a
    /// bounded heap ([`TopKSelector`]): O(n·d + n·log k) per query
    /// instead of the full sort's O(n·log n). The right tool for
    /// interactive session queries; batch consumers should rank
    /// candidate sets themselves. Bit-exact with [`reference_top_k`].
    pub fn top_k(&self, node: NodeId, k: usize) -> Vec<(NodeId, f32)> {
        let (Some(q), Some(qn)) = (self.get(node), self.norm(node)) else {
            return Vec::new();
        };
        if k == 0 {
            return Vec::new(); // skip the scan, not just the keep
        }
        let mut select = TopKSelector::new(k);
        for (id, v, vn) in self.iter_with_norms() {
            if id == node {
                continue;
            }
            select.push((id, norm_cosine(q, qn, v, vn)));
        }
        select.into_sorted()
    }
}

/// Bounded top-`k` selection under the [`rank_similarity`] total order:
/// push any number of scored candidates, keep only the best `k`, read
/// them back fully ordered. n pushes cost O(n·log k) against the full
/// sort's O(n·log n).
///
/// Because [`rank_similarity`] is a *total* order, the k best
/// candidates are uniquely determined and the final sort restores the
/// exact order a sort-everything-then-truncate pass would produce — so
/// selection through this type is bit-exact with [`reference_top_k`].
/// It is the shared merge primitive of the exact scan
/// ([`Embedding::top_k`]) and the IVF posting-list scan in
/// `glodyne-ann`.
#[derive(Debug, Clone)]
pub struct TopKSelector {
    k: usize,
    /// Binary max-heap under `rank_similarity`: the *worst* kept
    /// candidate sits at the root, so a new candidate only has to beat
    /// the root to displace it.
    heap: Vec<(NodeId, f32)>,
}

impl TopKSelector {
    /// A selector keeping the best `k` candidates (`k = 0` keeps none).
    pub fn new(k: usize) -> Self {
        TopKSelector {
            k,
            heap: Vec::with_capacity(k.min(1024)),
        }
    }

    /// Offer one scored candidate.
    pub fn push(&mut self, candidate: (NodeId, f32)) {
        if self.k == 0 {
            return;
        }
        if self.heap.len() < self.k {
            self.heap.push(candidate);
            self.sift_up(self.heap.len() - 1);
        } else if rank_similarity(&candidate, &self.heap[0]) == Ordering::Less {
            self.heap[0] = candidate;
            self.sift_down(0);
        }
    }

    /// The kept candidates in [`rank_similarity`] order (best first).
    pub fn into_sorted(mut self) -> Vec<(NodeId, f32)> {
        self.heap.sort_by(rank_similarity);
        self.heap
    }

    fn sift_up(&mut self, mut i: usize) {
        while i > 0 {
            let parent = (i - 1) / 2;
            if rank_similarity(&self.heap[i], &self.heap[parent]) == Ordering::Greater {
                self.heap.swap(i, parent);
                i = parent;
            } else {
                break;
            }
        }
    }

    fn sift_down(&mut self, mut i: usize) {
        loop {
            let mut worst = i;
            for child in [2 * i + 1, 2 * i + 2] {
                if child < self.heap.len()
                    && rank_similarity(&self.heap[child], &self.heap[worst]) == Ordering::Greater
                {
                    worst = child;
                }
            }
            if worst == i {
                break;
            }
            self.heap.swap(i, worst);
            i = worst;
        }
    }
}

/// The canonical neighbour ordering shared by every ranking surface
/// (`Embedding::top_k`, `EmbedderSession::nearest`, the `glodyne-serve`
/// wire protocol): descending similarity, ties toward the smaller node
/// id, NaN similarities after every real number (mutually equal).
///
/// This is a total order, so it is safe under `sort_by` even when
/// stored vectors contain NaN components.
pub fn rank_similarity(a: &(NodeId, f32), b: &(NodeId, f32)) -> Ordering {
    let sim = match (a.1.is_nan(), b.1.is_nan()) {
        (true, true) => Ordering::Equal,
        (true, false) => Ordering::Less,
        (false, true) => Ordering::Greater,
        // Neither is NaN, so partial_cmp cannot fail.
        (false, false) => a.1.partial_cmp(&b.1).unwrap(),
    };
    sim.reverse().then(a.0.cmp(&b.0))
}

/// Executable specification of [`Embedding::top_k`]: the naive
/// from-scratch scan (full [`cosine`] per candidate, no cached norms),
/// ordered by the same [`rank_similarity`] contract.
///
/// Kept public as the shared test helper: the session layer, the
/// serving layer, and the norm-cache bit-exactness tests all compare
/// their ranking surfaces against this one function.
pub fn reference_top_k(emb: &Embedding, node: NodeId, k: usize) -> Vec<(NodeId, f32)> {
    let Some(q) = emb.get(node) else {
        return Vec::new();
    };
    if k == 0 {
        return Vec::new();
    }
    let mut scored: Vec<(NodeId, f32)> = emb
        .iter()
        .filter(|&(id, _)| id != node)
        .map(|(id, v)| (id, cosine(q, v)))
        .collect();
    scored.sort_by(rank_similarity);
    scored.truncate(k);
    scored
}

// The similarity kernels moved to [`crate::kernel`] (one exact
// accumulation order, one SIMD-shaped fast path); re-exported here so
// every historical `embedding::dot` / `embedding::cosine` path keeps
// resolving to the exact kernel.
pub use crate::kernel::{cosine, l2_norm, norm_cosine};

/// Dot product of two equal-length vectors in the frozen **exact**
/// accumulation order — an alias of [`crate::kernel::dot_exact`], kept
/// under the historical name so cached-norm scans (here and in
/// `glodyne-ann`) stay bit-exact with the from-scratch [`cosine`].
#[inline]
pub fn dot(a: &[f32], b: &[f32]) -> f32 {
    crate::kernel::dot_exact(a, b)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn set_get_round_trip() {
        let mut e = Embedding::new(3);
        e.set(NodeId(5), &[1.0, 2.0, 3.0]);
        assert_eq!(e.get(NodeId(5)), Some(&[1.0, 2.0, 3.0][..]));
        assert_eq!(e.get(NodeId(6)), None);
        assert_eq!(e.len(), 1);
    }

    #[test]
    fn overwrite_keeps_count() {
        let mut e = Embedding::new(2);
        e.set(NodeId(1), &[1.0, 0.0]);
        e.set(NodeId(1), &[0.0, 1.0]);
        assert_eq!(e.len(), 1);
        assert_eq!(e.get(NodeId(1)), Some(&[0.0, 1.0][..]));
    }

    #[test]
    fn cosine_identities() {
        let mut e = Embedding::new(2);
        e.set(NodeId(0), &[1.0, 0.0]);
        e.set(NodeId(1), &[0.0, 1.0]);
        e.set(NodeId(2), &[2.0, 0.0]);
        e.set(NodeId(3), &[0.0, 0.0]);
        assert!((e.cosine(NodeId(0), NodeId(1)).unwrap()).abs() < 1e-6);
        assert!((e.cosine(NodeId(0), NodeId(2)).unwrap() - 1.0).abs() < 1e-6);
        assert_eq!(e.cosine(NodeId(0), NodeId(3)), Some(0.0));
        assert_eq!(e.cosine(NodeId(0), NodeId(9)), None);
    }

    #[test]
    fn iter_in_insertion_order() {
        let mut e = Embedding::new(1);
        e.set(NodeId(9), &[9.0]);
        e.set(NodeId(3), &[3.0]);
        let ids: Vec<NodeId> = e.iter().map(|(id, _)| id).collect();
        assert_eq!(ids, vec![NodeId(9), NodeId(3)]);
    }

    #[test]
    #[should_panic(expected = "dimension mismatch")]
    fn wrong_dim_panics() {
        let mut e = Embedding::new(2);
        e.set(NodeId(0), &[1.0]);
    }

    #[test]
    fn top_k_ranks_by_cosine() {
        let mut e = Embedding::new(2);
        e.set(NodeId(0), &[1.0, 0.0]);
        e.set(NodeId(1), &[1.0, 0.1]); // closest to 0
        e.set(NodeId(2), &[0.0, 1.0]); // orthogonal
        e.set(NodeId(3), &[-1.0, 0.0]); // opposite
        let top = e.top_k(NodeId(0), 2);
        assert_eq!(top.len(), 2);
        assert_eq!(top[0].0, NodeId(1));
        assert_eq!(top[1].0, NodeId(2));
        assert!(top[0].1 > top[1].1);
    }

    #[test]
    fn iter_with_norms_agrees_with_point_lookups() {
        let mut e = Embedding::new(2);
        e.set(NodeId(4), &[3.0, 4.0]);
        e.set(NodeId(1), &[0.0, 2.0]);
        e.set(NodeId(4), &[6.0, 8.0]); // overwrite refreshes in place
        let rows: Vec<(NodeId, Vec<f32>, f32)> = e
            .iter_with_norms()
            .map(|(id, v, n)| (id, v.to_vec(), n))
            .collect();
        assert_eq!(rows.len(), 2);
        for (id, v, n) in rows {
            assert_eq!(e.get(id).unwrap(), &v[..]);
            assert_eq!(e.norm(id).unwrap().to_bits(), n.to_bits());
        }
    }

    #[test]
    fn norm_cache_tracks_writes() {
        let mut e = Embedding::new(2);
        e.set(NodeId(0), &[3.0, 4.0]);
        assert_eq!(e.norm(NodeId(0)), Some(5.0));
        assert_eq!(e.norm(NodeId(1)), None);
        // Overwrite must refresh the cached norm, not keep the stale one.
        e.set(NodeId(0), &[0.0, 2.0]);
        assert_eq!(e.norm(NodeId(0)), Some(2.0));
        e.set(NodeId(1), &[0.0, 0.0]);
        assert_eq!(e.norm(NodeId(1)), Some(0.0));
    }

    #[test]
    fn top_k_bit_exact_with_reference_scan() {
        // Deterministic pseudo-random vectors (SplitMix64-style mixing)
        // over a population large enough to exercise real float
        // accumulation, including one zero vector and overwrites.
        let dim = 17;
        let mut e = Embedding::new(dim);
        let mut state = 0x9e37_79b9_7f4a_7c15u64;
        let mut next = move || {
            state = state.wrapping_mul(0xd129_42e2_96fe_94e3).wrapping_add(1);
            ((state >> 40) as f32) / 1e6 - 8.0
        };
        for i in 0..60u32 {
            let v: Vec<f32> = (0..dim).map(|_| next()).collect();
            e.set(NodeId(i * 7 % 59), &v);
        }
        e.set(NodeId(1000), &vec![0.0; dim]);
        for &probe in &[NodeId(0), NodeId(7), NodeId(1000), NodeId(52)] {
            let fast = e.top_k(probe, 25);
            let slow = reference_top_k(&e, probe, 25);
            assert_eq!(fast.len(), slow.len());
            for (f, s) in fast.iter().zip(&slow) {
                assert_eq!(f.0, s.0, "probe {probe:?}");
                assert_eq!(
                    f.1.to_bits(),
                    s.1.to_bits(),
                    "probe {probe:?}: similarity drifted"
                );
            }
        }
    }

    #[test]
    fn nan_similarities_rank_last_and_never_panic() {
        let mut e = Embedding::new(2);
        e.set(NodeId(0), &[1.0, 0.0]);
        e.set(NodeId(1), &[1.0, 0.1]);
        e.set(NodeId(2), &[f32::NAN, 1.0]);
        e.set(NodeId(3), &[f32::NAN, 2.0]);
        e.set(NodeId(4), &[-1.0, 0.0]);
        let top = e.top_k(NodeId(0), 10);
        assert_eq!(top.len(), 4);
        assert_eq!(top[0].0, NodeId(1));
        assert_eq!(top[1].0, NodeId(4));
        // NaN candidates sink below every real similarity, mutual ties
        // broken toward the smaller id.
        assert_eq!(top[2].0, NodeId(2));
        assert_eq!(top[3].0, NodeId(3));
        assert!(top[2].1.is_nan() && top[3].1.is_nan());
        // Same contract from the reference scan.
        let slow = reference_top_k(&e, NodeId(0), 10);
        let ids: Vec<NodeId> = slow.iter().map(|&(id, _)| id).collect();
        assert_eq!(ids, vec![NodeId(1), NodeId(4), NodeId(2), NodeId(3)]);
        // Querying from a NaN vector is also total-order safe.
        let from_nan = e.top_k(NodeId(2), 10);
        assert_eq!(from_nan.len(), 4);
        assert!(from_nan.iter().all(|s| s.1.is_nan()));
        let ids: Vec<NodeId> = from_nan.iter().map(|&(id, _)| id).collect();
        assert_eq!(ids, vec![NodeId(0), NodeId(1), NodeId(3), NodeId(4)]);
    }

    #[test]
    fn selector_matches_full_sort_for_every_k() {
        // Pseudo-random scores with repeats, NaNs, and ±inf: the heap
        // select must agree with sort-then-truncate for every cut-off.
        let mut state = 7u64;
        let mut next = move || {
            state = state.wrapping_mul(0x5851_F42D_4C95_7F2D).wrapping_add(11);
            state
        };
        let mut candidates: Vec<(NodeId, f32)> = (0..120u32)
            .map(|i| {
                let raw = next();
                let sim = match raw % 11 {
                    0 => f32::NAN,
                    1 => f32::INFINITY,
                    2 => f32::NEG_INFINITY,
                    _ => ((raw >> 32) as f32) / 1e9 - 2.0,
                };
                (NodeId(i % 37), sim)
            })
            .collect();
        for k in [0usize, 1, 2, 7, 119, 120, 500] {
            let mut select = TopKSelector::new(k);
            for &c in &candidates {
                select.push(c);
            }
            let fast = select.into_sorted();
            let mut slow = candidates.clone();
            slow.sort_by(rank_similarity);
            slow.truncate(k);
            assert_eq!(fast.len(), slow.len(), "k={k}");
            for (f, s) in fast.iter().zip(&slow) {
                assert_eq!(f.0, s.0, "k={k}");
                assert_eq!(f.1.to_bits(), s.1.to_bits(), "k={k}");
            }
        }
        // Order of arrival must not matter either.
        candidates.reverse();
        let mut select = TopKSelector::new(9);
        for &c in &candidates {
            select.push(c);
        }
        let reversed_feed = select.into_sorted();
        candidates.sort_by(rank_similarity);
        candidates.truncate(9);
        assert_eq!(reversed_feed.len(), candidates.len());
        for (f, s) in reversed_feed.iter().zip(&candidates) {
            assert_eq!((f.0, f.1.to_bits()), (s.0, s.1.to_bits()));
        }
    }

    #[test]
    fn top_k_edge_cases() {
        let mut e = Embedding::new(1);
        e.set(NodeId(0), &[1.0]);
        assert!(e.top_k(NodeId(9), 3).is_empty(), "missing node");
        assert!(e.top_k(NodeId(0), 0).is_empty(), "k = 0");
        assert!(e.top_k(NodeId(0), 3).is_empty(), "no other nodes to return");
        e.set(NodeId(1), &[2.0]);
        let top = e.top_k(NodeId(0), 10);
        assert_eq!(top, vec![(NodeId(1), 1.0)], "k larger than population");
    }
}
