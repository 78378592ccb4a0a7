//! The flat walk corpus: one contiguous token arena for a whole
//! training step.
//!
//! The original pipeline materialised every walk as its own
//! `Vec<NodeId>`, then re-interned every token through a `HashMap` and
//! re-materialised the corpus a second time as `Vec<Vec<u32>>` inside
//! SGNS training — three allocations and a hash lookup per token on the
//! hottest path in the system. [`WalkCorpus`] replaces all of that with
//!
//! - **one contiguous `Vec<u32>` token arena** holding every walk
//!   back-to-back (tokens are *snapshot-local* indices — walk generation
//!   never touches a hash map),
//! - **walk offsets** (`offsets[i]..offsets[i+1]` bounds walk `i`), and
//! - a **node-id table** mapping tokens back to stable global
//!   [`NodeId`]s, cloned from the snapshot in one `O(|V|)` memcpy.
//!
//! [`crate::sgns::SgnsModel::train_corpus`] consumes the arena directly:
//! vocabulary growth costs one hash insert per *distinct* node (not per
//! token), and the training loop reads token slices straight out of the
//! arena with no per-walk allocation.
//!
//! Construction paths:
//! - [`crate::walks::generate_corpus`] /
//!   [`crate::walks::generate_corpus_all`] — the fast path: walks are
//!   written in parallel directly into the pre-sized arena.
//! - [`WalkCorpus::from_nodeid_walks`] — the compatibility path used by
//!   the legacy `train(&[Vec<NodeId>])` shim; interns ids in first-
//!   occurrence order (the order the historical trainer used) so the
//!   shim is bit-exact with `train_corpus` fed the equivalent corpus.

use crate::aligned::AlignedBuf;
use glodyne_graph::NodeId;
use std::collections::HashMap;

/// A flat, zero-copy walk corpus: token arena + walk offsets + id table.
///
/// Tokens are indices into [`WalkCorpus::node_ids`]; for a corpus built
/// from a snapshot they are exactly the snapshot's local indices.
#[derive(Debug, Clone, Default)]
pub struct WalkCorpus {
    /// All walks, concatenated. Cache-line aligned: SGNS reads this
    /// arena in one long sweep per train call.
    tokens: AlignedBuf<u32>,
    /// `offsets[i]..offsets[i+1]` bounds walk `i`; length `num_walks + 1`.
    offsets: Vec<usize>,
    /// Token → stable global id.
    node_ids: Vec<NodeId>,
}

impl WalkCorpus {
    /// An empty corpus over a fixed token → id table.
    pub fn new(node_ids: Vec<NodeId>) -> Self {
        WalkCorpus {
            tokens: AlignedBuf::new(),
            offsets: vec![0],
            node_ids,
        }
    }

    /// An empty corpus with arena capacity reserved for `walks` walks
    /// totalling `tokens` tokens.
    pub fn with_capacity(node_ids: Vec<NodeId>, walks: usize, tokens: usize) -> Self {
        let mut c = WalkCorpus::new(node_ids);
        c.tokens = AlignedBuf::with_capacity(tokens);
        c.offsets.reserve(walks);
        c
    }

    /// Assemble a corpus from pre-sized raw parts. `offsets` must start
    /// at 0, be non-decreasing, and end at `tokens.len()`; every token
    /// must index into `node_ids`.
    pub fn from_raw_parts(
        tokens: AlignedBuf<u32>,
        offsets: Vec<usize>,
        node_ids: Vec<NodeId>,
    ) -> Self {
        assert_eq!(offsets.first(), Some(&0), "offsets must start at 0");
        assert_eq!(
            offsets.last(),
            Some(&tokens.len()),
            "offsets must end at the arena length"
        );
        debug_assert!(
            offsets.windows(2).all(|w| w[0] <= w[1]),
            "offsets must be sorted"
        );
        debug_assert!(
            tokens.iter().all(|&t| (t as usize) < node_ids.len()),
            "token out of range of the node-id table"
        );
        WalkCorpus {
            tokens,
            offsets,
            node_ids,
        }
    }

    /// Compatibility path: build a corpus from `NodeId` walks, interning
    /// ids into the token table in first-occurrence order — the same
    /// order the historical trainer interned them, so the `train` shim
    /// assigns identical model rows and stays bit-exact with
    /// `train_corpus` on an equivalent corpus. (The training *engine*
    /// itself has changed since — sigmoid table, SplitMix64 negatives,
    /// target blocks — so outputs differ from earlier releases.)
    pub fn from_nodeid_walks(walks: &[Vec<NodeId>]) -> Self {
        let total: usize = walks.iter().map(Vec::len).sum();
        let mut corpus = WalkCorpus::with_capacity(Vec::new(), walks.len(), total);
        let mut index_of: HashMap<NodeId, u32> = HashMap::new();
        for walk in walks {
            for &id in walk {
                let tok = *index_of.entry(id).or_insert_with(|| {
                    corpus.node_ids.push(id);
                    (corpus.node_ids.len() - 1) as u32
                });
                corpus.tokens.push(tok);
            }
            corpus.offsets.push(corpus.tokens.len());
        }
        corpus
    }

    /// Append one walk of local-index tokens.
    pub fn push_walk(&mut self, walk: &[u32]) {
        debug_assert!(
            walk.iter().all(|&t| (t as usize) < self.node_ids.len()),
            "token out of range of the node-id table"
        );
        self.tokens.extend_from_slice(walk);
        self.offsets.push(self.tokens.len());
    }

    /// Number of walks.
    #[inline]
    pub fn num_walks(&self) -> usize {
        self.offsets.len() - 1
    }

    /// Total tokens across all walks.
    #[inline]
    pub fn num_tokens(&self) -> usize {
        self.tokens.len()
    }

    /// Whether the corpus holds no walks.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.num_walks() == 0
    }

    /// Walk `i` as a token slice into the arena.
    #[inline]
    pub fn walk(&self, i: usize) -> &[u32] {
        &self.tokens[self.offsets[i]..self.offsets[i + 1]]
    }

    /// Iterate all walks as token slices.
    pub fn walks(&self) -> impl Iterator<Item = &[u32]> + '_ {
        self.offsets.windows(2).map(|w| &self.tokens[w[0]..w[1]])
    }

    /// The whole token arena (cache-line aligned when non-empty).
    #[inline]
    pub fn tokens(&self) -> &[u32] {
        debug_assert!(
            self.tokens.is_empty()
                || (self.tokens.as_slice().as_ptr() as usize)
                    .is_multiple_of(crate::aligned::CACHE_LINE),
            "token arena lost its cache-line alignment"
        );
        self.tokens.as_slice()
    }

    /// The walk-boundary offsets (length `num_walks() + 1`).
    #[inline]
    pub fn offsets(&self) -> &[usize] {
        &self.offsets
    }

    /// The token → global-id table.
    #[inline]
    pub fn node_ids(&self) -> &[NodeId] {
        &self.node_ids
    }

    /// Global id of a token.
    #[inline]
    pub fn node_id_of(&self, token: u32) -> NodeId {
        self.node_ids[token as usize]
    }

    /// Walk `i` translated back to global ids (tests/diagnostics; the
    /// training path never materialises this).
    pub fn walk_node_ids(&self, i: usize) -> Vec<NodeId> {
        self.walk(i).iter().map(|&t| self.node_id_of(t)).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn push_walk_round_trips_boundaries() {
        let ids: Vec<NodeId> = (0..5).map(NodeId).collect();
        let mut c = WalkCorpus::new(ids);
        c.push_walk(&[0, 1, 2]);
        c.push_walk(&[4]);
        c.push_walk(&[]);
        c.push_walk(&[3, 3]);
        assert_eq!(c.num_walks(), 4);
        assert_eq!(c.num_tokens(), 6);
        assert_eq!(c.walk(0), &[0, 1, 2]);
        assert_eq!(c.walk(1), &[4]);
        assert_eq!(c.walk(2), &[] as &[u32]);
        assert_eq!(c.walk(3), &[3, 3]);
        let collected: Vec<&[u32]> = c.walks().collect();
        assert_eq!(collected.len(), 4);
        assert_eq!(collected[3], &[3, 3]);
    }

    #[test]
    fn from_nodeid_walks_interns_in_first_occurrence_order() {
        let walks = vec![
            vec![NodeId(30), NodeId(10), NodeId(30)],
            vec![NodeId(20), NodeId(10)],
        ];
        let c = WalkCorpus::from_nodeid_walks(&walks);
        assert_eq!(c.node_ids(), &[NodeId(30), NodeId(10), NodeId(20)]);
        assert_eq!(c.walk(0), &[0, 1, 0]);
        assert_eq!(c.walk(1), &[2, 1]);
        assert_eq!(c.walk_node_ids(1), vec![NodeId(20), NodeId(10)]);
    }

    #[test]
    fn empty_corpus() {
        let c = WalkCorpus::from_nodeid_walks(&[]);
        assert!(c.is_empty());
        assert_eq!(c.num_tokens(), 0);
        assert_eq!(c.walks().count(), 0);
    }

    #[test]
    fn from_raw_parts_validates_bounds() {
        let c = WalkCorpus::from_raw_parts(
            AlignedBuf::from(&[0u32, 1, 1, 0][..]),
            vec![0, 2, 4],
            vec![NodeId(7), NodeId(9)],
        );
        assert_eq!(c.num_walks(), 2);
        assert_eq!(c.walk(1), &[1, 0]);
    }

    #[test]
    #[should_panic(expected = "offsets must end")]
    fn from_raw_parts_rejects_bad_offsets() {
        WalkCorpus::from_raw_parts(
            AlignedBuf::from(&[0u32, 1][..]),
            vec![0, 1],
            vec![NodeId(0), NodeId(1)],
        );
    }

    #[test]
    fn token_arena_is_cache_line_aligned() {
        let mut c = WalkCorpus::new((0..4).map(NodeId).collect());
        c.push_walk(&[0, 1, 2, 3]);
        assert_eq!(c.tokens().as_ptr() as usize % crate::aligned::CACHE_LINE, 0);
    }
}
