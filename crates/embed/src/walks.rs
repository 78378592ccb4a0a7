//! Truncated random walks (Step 3, Eq. 5).
//!
//! For an unweighted snapshot the transition probability of Eq. 5 is
//! uniform over the current node's neighbours — a DeepWalk-style walker.
//! Walk generation is embarrassingly parallel; we fan out over walks
//! with rayon, seeding each walk's RNG from a SplitMix64 mix of
//! `(seed, start, rep)` so that results are independent of thread
//! scheduling and distinct configured seeds yield distinct streams.
//!
//! [`generate_corpus`] / [`generate_corpus_all`] write straight into a
//! flat [`WalkCorpus`]: walk lengths are known up front (a walk stops
//! early only at an isolated *start*, because an undirected edge can
//! never lead to a degree-0 node), so the token arena is pre-sized
//! exactly and each walk is written in parallel into its own disjoint
//! slice. No per-walk allocation, no `NodeId` hashing.

use crate::corpus::WalkCorpus;
use glodyne_graph::Snapshot;
use rand::Rng;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use rayon::prelude::*;

/// Walk-generation parameters: `r` walks of length `l` per start node.
#[derive(Debug, Clone, Copy)]
pub struct WalkConfig {
    /// Walks per start node (`r`, paper default 10).
    pub walks_per_node: usize,
    /// Nodes per walk including the start (`l`, paper default 80).
    pub walk_length: usize,
    /// Base RNG seed.
    pub seed: u64,
}

impl Default for WalkConfig {
    fn default() -> Self {
        WalkConfig {
            walks_per_node: 10,
            walk_length: 80,
            seed: 0,
        }
    }
}

impl WalkConfig {
    /// Validate the walk parameters: at least one walk per node and a
    /// walk length of at least one node (the start itself).
    pub fn validate(&self) -> Result<(), crate::config::ConfigError> {
        crate::config::require(self.walks_per_node >= 1, "walks_per_node", "must be >= 1")?;
        crate::config::require(self.walk_length >= 1, "walk_length", "must be >= 1")?;
        Ok(())
    }
}

/// Advance a SplitMix64 state and return the next output. Shared by
/// the per-walk seed mixing below, the SGNS negative-sampling stream,
/// the IVF centroid initialisation in `glodyne-ann`, the shard router,
/// the serving quality probe, the CLI's retry jitter and the bench
/// data generators. The one other copy of these constants is in
/// `glodyne-chaos`, which has no dependencies and keeps its own.
#[inline]
pub fn splitmix64_next(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Stateless one-shot SplitMix64 mix of `z`.
#[inline]
fn splitmix64(mut z: u64) -> u64 {
    splitmix64_next(&mut z)
}

/// Per-walk RNG seed: a SplitMix64 chain over `(seed, start, rep)`.
///
/// The previous scheme multiplied `seed` by a constant, so the default
/// `seed = 0` collapsed every configured stream onto one that depended
/// only on `(start, rep)`. Chaining through SplitMix64 keeps all three
/// inputs live regardless of their values.
#[inline]
pub fn walk_rng_seed(seed: u64, start: u64, rep: u64) -> u64 {
    splitmix64(splitmix64(splitmix64(seed) ^ start) ^ rep)
}

/// Write one walk of local-index tokens into `out`, whose length must
/// already equal the walk's exact length (see [`walk_len`]). Each step
/// draws one neighbour uniformly (Eq. 5 on an unweighted snapshot).
fn random_walk_into(g: &Snapshot, start: usize, out: &mut [u32], rng: &mut impl Rng) {
    let mut cur = start;
    out[0] = start as u32;
    for slot in out[1..].iter_mut() {
        let ns = g.neighbors(cur);
        cur = ns[rng.gen_range(0..ns.len())] as usize;
        *slot = cur as u32;
    }
}

/// Exact length of a walk from `start`: `l`, unless the start is
/// isolated (degree 0), in which case the walk is just the start itself.
/// Mid-walk early stops are impossible on an undirected snapshot — every
/// node reached over an edge has that edge back, hence degree ≥ 1.
#[inline]
fn walk_len(g: &Snapshot, start: usize, l: usize) -> usize {
    if g.degree(start) == 0 {
        1
    } else {
        l
    }
}

/// Generate `r` walks from every node in `starts` (local indices)
/// directly into a flat [`WalkCorpus`] arena, in parallel.
/// Deterministic for a fixed config regardless of thread count.
pub fn generate_corpus(g: &Snapshot, starts: &[u32], cfg: &WalkConfig) -> WalkCorpus {
    let r = cfg.walks_per_node;
    let l = cfg.walk_length.max(1);
    let num_walks = starts.len() * r;

    // Pre-size the arena: every walk's length is known a priori.
    let mut offsets = Vec::with_capacity(num_walks + 1);
    offsets.push(0usize);
    let mut total = 0usize;
    for &start in starts {
        let len = walk_len(g, start as usize, l);
        for _ in 0..r {
            total += len;
            offsets.push(total);
        }
    }
    let mut tokens = vec![0u32; total];

    // Carve the arena into one disjoint slice per walk, then fill the
    // slices in parallel.
    let mut slices: Vec<&mut [u32]> = Vec::with_capacity(num_walks);
    let mut rest: &mut [u32] = &mut tokens;
    for w in 0..num_walks {
        let len = offsets[w + 1] - offsets[w];
        let (head, tail) = rest.split_at_mut(len);
        slices.push(head);
        rest = tail;
    }
    slices.into_par_iter().enumerate().for_each(|(w, slice)| {
        let start = starts[w / r];
        let rep = w % r;
        let mut rng = ChaCha8Rng::seed_from_u64(walk_rng_seed(cfg.seed, start as u64, rep as u64));
        random_walk_into(g, start as usize, slice, &mut rng);
    });

    WalkCorpus::from_raw_parts(tokens, offsets, g.node_ids().to_vec())
}

/// Flat-corpus walks from *all* nodes — the offline stage (`V^0_all`,
/// Algorithm 1 line 2) and the SGNS-retrain/increment variants.
pub fn generate_corpus_all(g: &Snapshot, cfg: &WalkConfig) -> WalkCorpus {
    let starts: Vec<u32> = (0..g.num_nodes() as u32).collect();
    generate_corpus(g, &starts, cfg)
}

#[cfg(test)]
mod tests {
    use super::*;
    use glodyne_graph::id::Edge;
    use glodyne_graph::NodeId;

    fn ring(n: u32) -> Snapshot {
        let edges: Vec<Edge> = (0..n)
            .map(|i| Edge::new(NodeId(i), NodeId((i + 1) % n)))
            .collect();
        Snapshot::from_edges(&edges, &[])
    }

    /// One walk of `length` nodes from `start` under `seed`.
    fn one_walk(g: &Snapshot, start: u32, length: usize, seed: u64) -> Vec<NodeId> {
        let cfg = WalkConfig {
            walks_per_node: 1,
            walk_length: length,
            seed,
        };
        generate_corpus(g, &[start], &cfg).walk_node_ids(0)
    }

    fn seeded(seed: u64) -> WalkConfig {
        WalkConfig {
            seed,
            ..Default::default()
        }
    }

    #[test]
    fn walk_has_requested_length() {
        assert_eq!(one_walk(&ring(10), 0, 15, 0).len(), 15);
    }

    #[test]
    fn consecutive_walk_nodes_are_adjacent() {
        let g = ring(12);
        let w = one_walk(&g, 3, 30, 1);
        for pair in w.windows(2) {
            assert!(
                g.has_edge_ids(pair[0], pair[1]),
                "{} -> {}",
                pair[0],
                pair[1]
            );
        }
    }

    #[test]
    fn isolated_node_walk_stops() {
        let g = Snapshot::from_edges(&[Edge::new(NodeId(0), NodeId(1))], &[NodeId(9)]);
        let iso = g.local_of(NodeId(9)).unwrap() as u32;
        assert_eq!(one_walk(&g, iso, 10, 2), vec![NodeId(9)]);
    }

    #[test]
    fn corpus_walk_counts() {
        let g = ring(8);
        let cfg = WalkConfig {
            walks_per_node: 3,
            walk_length: 5,
            seed: 7,
        };
        let corpus = generate_corpus_all(&g, &cfg);
        assert_eq!(corpus.num_walks(), 24);
        assert!(corpus.walks().all(|w| w.len() == 5));
    }

    #[test]
    fn walks_are_deterministic_across_runs() {
        let g = ring(16);
        let cfg = WalkConfig::default();
        let a = generate_corpus(&g, &[0, 5, 9], &cfg);
        let b = generate_corpus(&g, &[0, 5, 9], &cfg);
        assert_eq!(a.tokens(), b.tokens());
    }

    #[test]
    fn different_seeds_differ() {
        let g = ring(16);
        let a = generate_corpus(&g, &[0], &seeded(1));
        let b = generate_corpus(&g, &[0], &seeded(2));
        assert_ne!(a.tokens(), b.tokens());
    }

    #[test]
    fn zero_seed_no_longer_collapses_the_stream() {
        // Regression: the old mixing multiplied `seed` by a constant, so
        // the default seed 0 contributed nothing to the per-walk seed —
        // the stream was a function of `(start, rep)` alone, with the
        // seed's entropy confined to a single linear offset for other
        // values. The SplitMix chain keeps all three inputs live.
        let g = ring(16);
        let zero = generate_corpus(&g, &[0, 1], &seeded(0));
        let one = generate_corpus(&g, &[0, 1], &seeded(1));
        assert_ne!(zero.tokens(), one.tokens());
        // And the raw mix itself keeps all three inputs live.
        assert_ne!(walk_rng_seed(0, 3, 1), walk_rng_seed(1, 3, 1));
        assert_ne!(walk_rng_seed(0, 3, 1), walk_rng_seed(0, 4, 1));
        assert_ne!(walk_rng_seed(0, 3, 1), walk_rng_seed(0, 3, 2));
    }

    #[test]
    fn walker_visits_whole_ring_eventually() {
        let w = one_walk(&ring(6), 0, 500, 3);
        let distinct: std::collections::HashSet<_> = w.into_iter().collect();
        assert_eq!(distinct.len(), 6);
    }

    #[test]
    fn corpus_handles_isolated_starts() {
        let g = Snapshot::from_edges(&[Edge::new(NodeId(0), NodeId(1))], &[NodeId(9)]);
        let iso = g.local_of(NodeId(9)).unwrap() as u32;
        let cfg = WalkConfig {
            walks_per_node: 2,
            walk_length: 6,
            seed: 1,
        };
        let corpus = generate_corpus(&g, &[0, iso], &cfg);
        assert_eq!(corpus.num_walks(), 4);
        assert_eq!(corpus.walk(0).len(), 6);
        assert_eq!(
            corpus.walk(2).len(),
            1,
            "isolated start yields a length-1 walk"
        );
        assert_eq!(corpus.walk_node_ids(2), vec![NodeId(9)]);
        assert_eq!(
            corpus.num_tokens(),
            corpus.walks().map(<[u32]>::len).sum::<usize>()
        );
    }

    #[test]
    fn corpus_generation_is_deterministic() {
        let g = ring(30);
        let cfg = WalkConfig::default();
        let a = generate_corpus_all(&g, &cfg);
        let b = generate_corpus_all(&g, &cfg);
        assert_eq!(a.tokens(), b.tokens());
        assert_eq!(a.offsets(), b.offsets());
    }
}
