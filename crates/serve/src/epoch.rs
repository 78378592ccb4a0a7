//! The epoch swap: immutable embedding snapshots published by the
//! trainer, read lock-free-in-spirit by any number of threads.
//!
//! After each committed step the trainer wraps the frozen state in an
//! `Arc<EmbeddingEpoch>` and swaps it into the [`EpochHandle`]. Readers
//! clone the `Arc` under a briefly-held read lock and then answer
//! queries entirely from their private clone — a reader mid-`nearest`
//! keeps its epoch alive even if the trainer publishes twice meanwhile.
//! Reads therefore never wait on a step; they may observe state one
//! epoch behind the write path, and never more.

use crate::protocol::{ErrorKind, NearestMode};
use crate::session::DEFAULT_NPROBE;
use glodyne::StepReport;
use glodyne_ann::{BatchQuery, IvfIndex, SearchScratch};
use glodyne_embed::Embedding;
use glodyne_graph::NodeId;
use glodyne_telemetry::Histogram;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock, PoisonError, RwLock};
use std::time::Instant;

/// One node's ranked neighbour list — the unit every `nearest`
/// surface returns.
pub type Neighbours = Vec<(NodeId, f32)>;

/// One frozen, immutable generation of the served embedding.
#[derive(Debug, Clone)]
pub struct EmbeddingEpoch {
    /// Monotone epoch id — the number of committed embedding steps
    /// behind this state (0 = nothing trained yet).
    pub epoch: u64,
    /// The embedding as of this epoch.
    pub embedding: Embedding,
    /// The step that produced this epoch (`None` for epoch 0).
    pub report: Option<StepReport>,
    /// IVF index over `embedding`, built once per epoch when the
    /// serving session has ANN enabled — the index rides the same
    /// `Arc` swap as the embedding, so a reader's epoch and index
    /// always agree. `None` when ANN is disabled.
    pub index: Option<IvfIndex>,
}

impl EmbeddingEpoch {
    /// The epoch before anything was trained: an empty embedding.
    pub fn initial(dim: usize) -> Self {
        EmbeddingEpoch {
            epoch: 0,
            embedding: Embedding::new(dim),
            report: None,
            index: None,
        }
    }

    /// The `k` nearest neighbours of `node` within this epoch, read the
    /// way `mode` says: the exact scan, or the IVF index probing
    /// `nprobe` cells ([`DEFAULT_NPROBE`] when `None`, clamped to the
    /// index's cell count). Returns the epoch id, the hits and — in ANN
    /// mode — the *effective* probe width, the one the wire echoes. An
    /// unknown node is [`ErrorKind::NotFound`] in either mode; ANN mode
    /// on an epoch without an index is [`ErrorKind::Unavailable`]. Both
    /// errors carry the epoch id too.
    ///
    /// The single home of the per-epoch read: the serving session, the
    /// wire `dispatch` and the quality probe all answer through it.
    pub fn nearest(
        &self,
        node: NodeId,
        k: usize,
        mode: NearestMode,
    ) -> Result<(u64, Neighbours, Option<usize>), (u64, ErrorKind)> {
        let Some(query) = self.embedding.get(node) else {
            return Err((self.epoch, ErrorKind::NotFound));
        };
        match mode {
            NearestMode::Exact => Ok((self.epoch, self.embedding.top_k(node, k), None)),
            NearestMode::Ann { nprobe } => {
                let index = self
                    .index
                    .as_ref()
                    .ok_or((self.epoch, ErrorKind::Unavailable))?;
                let nprobe = index.effective_nprobe(nprobe.unwrap_or(DEFAULT_NPROBE));
                // `search_in`: SQ8-quantized indexes re-rank against
                // this epoch's own embedding (the exact rows the index
                // was built from — they travel on the same Arc), so
                // served scores always come from the exact kernel.
                let hits = index.search_in(&self.embedding, query, k, nprobe, Some(node));
                Ok((self.epoch, hits, Some(nprobe)))
            }
        }
    }

    /// [`EmbeddingEpoch::nearest`] for a whole batch against this one
    /// frozen epoch. Results are positionally parallel to `nodes`, with
    /// `None` for an unknown node; each `Some` entry is bit-exact with
    /// the single-node call. ANN mode answers through one
    /// `IvfIndex::search_in_batch_with` call (grouped where that pays).
    /// `None` — a request-level refusal — when ANN mode meets an epoch
    /// without an index.
    pub fn nearest_batch(
        &self,
        nodes: &[NodeId],
        k: usize,
        mode: NearestMode,
    ) -> Option<(u64, Vec<Option<Neighbours>>, Option<usize>)> {
        let (hits, nprobe): (Vec<Neighbours>, _) = match mode {
            NearestMode::Exact => (
                nodes
                    .iter()
                    .map(|&node| self.embedding.top_k(node, k))
                    .collect(),
                None,
            ),
            NearestMode::Ann { nprobe } => {
                let index = self.index.as_ref()?;
                let nprobe = index.effective_nprobe(nprobe.unwrap_or(DEFAULT_NPROBE));
                // An unknown node is an empty query, which the index
                // answers with an empty list.
                let queries: Vec<BatchQuery<'_>> = nodes
                    .iter()
                    .map(|&node| BatchQuery {
                        query: self.embedding.get(node).unwrap_or_default(),
                        exclude: Some(node),
                    })
                    .collect();
                let scratch = &mut SearchScratch::new();
                let hits =
                    index.search_in_batch_with(&self.embedding, &queries, k, nprobe, scratch);
                (hits, Some(nprobe))
            }
        };
        let results = nodes
            .iter()
            .zip(hits)
            .map(|(&node, hits)| self.embedding.get(node).map(|_| hits))
            .collect();
        Some((self.epoch, results, nprobe))
    }
}

/// Shared handle to the most recently published [`EmbeddingEpoch`].
///
/// Cloning the handle is cheap; all clones observe the same epoch
/// stream. The lock is held only for the pointer swap or clone, never
/// across a query or a training step.
#[derive(Debug, Clone)]
pub struct EpochHandle {
    current: Arc<RwLock<Arc<EmbeddingEpoch>>>,
    freshness: Arc<Freshness>,
}

/// Publish-to-first-read freshness tracking, armed only when a
/// telemetry histogram is attached. `pending` holds the nanoseconds
/// (since `base`, offset by +1 so 0 means "nothing pending") of the
/// last publish no reader has observed yet; the first `load` after a
/// publish consumes it and records the lag. Lock-free on both sides —
/// an un-instrumented handle pays one relaxed load per read.
#[derive(Debug)]
struct Freshness {
    base: Instant,
    pending: AtomicU64,
    histogram: OnceLock<Arc<Histogram>>,
}

impl Freshness {
    fn new() -> Self {
        Freshness {
            base: Instant::now(),
            pending: AtomicU64::new(0),
            histogram: OnceLock::new(),
        }
    }

    fn nanos_since_base(&self) -> u64 {
        self.base.elapsed().as_nanos().min(u64::MAX as u128) as u64
    }
}

impl EpochHandle {
    /// A handle starting at `initial`.
    pub fn new(initial: EmbeddingEpoch) -> Self {
        EpochHandle {
            current: Arc::new(RwLock::new(Arc::new(initial))),
            freshness: Arc::new(Freshness::new()),
        }
    }

    /// Attach a freshness histogram: from now on, the lag between each
    /// `publish` and the *first* `load` that observes it is recorded
    /// (micros). One-shot — later calls are ignored.
    pub fn set_freshness_histogram(&self, histogram: Arc<Histogram>) {
        let _ = self.freshness.histogram.set(histogram);
    }

    /// The current epoch. The returned `Arc` stays valid (and
    /// unchanged) for as long as the caller holds it, regardless of
    /// how many epochs are published after.
    pub fn load(&self) -> Arc<EmbeddingEpoch> {
        if self.freshness.pending.load(Ordering::Relaxed) != 0 {
            let stamped = self.freshness.pending.swap(0, Ordering::Relaxed);
            if stamped != 0 {
                if let Some(hist) = self.freshness.histogram.get() {
                    let lag_nanos = self
                        .freshness
                        .nanos_since_base()
                        .saturating_sub(stamped - 1);
                    hist.record(lag_nanos / 1_000);
                }
            }
        }
        // A trainer panic while publishing poisons the lock; the stored
        // Arc is still a complete epoch, so serve it rather than
        // cascading the panic into every reader thread.
        self.current
            .read()
            .unwrap_or_else(PoisonError::into_inner)
            .clone()
    }

    /// The current epoch *without* consuming the freshness-lag stamp —
    /// for background observers (the quality probe) whose reads must
    /// not masquerade as a client's first sight of the epoch.
    pub fn load_untracked(&self) -> Arc<EmbeddingEpoch> {
        self.current
            .read()
            .unwrap_or_else(PoisonError::into_inner)
            .clone()
    }

    /// Swap in a freshly trained epoch (trainer-side).
    pub fn publish(&self, epoch: EmbeddingEpoch) {
        *self.current.write().unwrap_or_else(PoisonError::into_inner) = Arc::new(epoch);
        if self.freshness.histogram.get().is_some() {
            self.freshness
                .pending
                .store(self.freshness.nanos_since_base() + 1, Ordering::Relaxed);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn readers_keep_their_epoch_across_publishes() {
        let handle = EpochHandle::new(EmbeddingEpoch::initial(2));
        let before = handle.load();
        assert_eq!(before.epoch, 0);
        assert!(before.embedding.is_empty());

        let mut emb = Embedding::new(2);
        emb.set(NodeId(1), &[1.0, 0.0]);
        handle.publish(EmbeddingEpoch {
            epoch: 1,
            embedding: emb,
            report: Some(StepReport::default()),
            index: None,
        });

        // The old Arc still answers from the old state...
        assert!(before.embedding.is_empty());
        // ...while new loads see the new epoch.
        let after = handle.load();
        assert_eq!(after.epoch, 1);
        assert_eq!(after.embedding.len(), 1);
        assert!(after.report.is_some());
    }

    #[test]
    fn freshness_lag_is_recorded_on_first_read_only() {
        let handle = EpochHandle::new(EmbeddingEpoch::initial(2));
        let hist = Arc::new(Histogram::new());
        handle.set_freshness_histogram(Arc::clone(&hist));

        // Loads before any publish record nothing.
        handle.load();
        assert_eq!(hist.count(), 0);

        handle.publish(EmbeddingEpoch::initial(2));
        std::thread::sleep(std::time::Duration::from_millis(2));
        // A background observer (the probe) reads without consuming
        // the pending stamp...
        handle.load_untracked();
        assert_eq!(hist.count(), 0, "untracked reads record nothing");
        // ...so the first *client* read still measures the real lag.
        handle.load();
        assert_eq!(hist.count(), 1, "first read after publish records lag");
        assert!(hist.sum() >= 2_000, "lag covers the 2ms gap (micros)");
        handle.load();
        handle.load();
        assert_eq!(hist.count(), 1, "later reads of the same epoch do not");

        handle.publish(EmbeddingEpoch::initial(2));
        handle.load();
        assert_eq!(hist.count(), 2, "each publish arms one measurement");
    }

    #[test]
    fn clones_share_the_stream() {
        let a = EpochHandle::new(EmbeddingEpoch::initial(4));
        let b = a.clone();
        a.publish(EmbeddingEpoch {
            epoch: 7,
            embedding: Embedding::new(4),
            report: None,
            index: None,
        });
        assert_eq!(b.load().epoch, 7);
    }
}
