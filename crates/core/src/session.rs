//! Event-driven embedder sessions: the streaming entry point.
//!
//! The paper's incremental protocol (Definition 4) is batch-shaped:
//! someone hands the method fully materialised snapshot pairs. A live
//! system sees an *edge-event stream* instead. [`EmbedderSession`]
//! closes that gap: it owns a mutable [`GraphState`], ingests
//! [`GraphEvent`]s, decides snapshot boundaries with an [`EpochPolicy`],
//! runs one [`DynamicEmbedder::step`] per boundary, and answers
//! embedding queries at any moment from the live embedding.
//!
//! The offline/online split of Algorithm 1 falls out naturally: the
//! first committed snapshot is the offline stage (`prev = None`), every
//! later commit is an online step with the precomputed diff.
//!
//! The session is also the one owner of an epoch's vectors and its
//! approximate-search index: the embedding and the [`IvfIndex`] live
//! behind `Arc`s, the index is built (re-fitted from the previous one's
//! centroids) only by [`EmbedderSession::ensure_ann_index`], and a server
//! publishes the same handles ([`EmbedderSession::share_epoch`])
//! instead of copying them. A commit never looks at the rows: which of
//! them changed is decided once per build, by diffing the live
//! embedding against the one the previous index was built over.

use glodyne_ann::{BatchQuery, IvfConfig, IvfIndex, SearchScratch};
use glodyne_embed::config::ConfigError;
use glodyne_embed::traits::{CheckpointEmbedder, DynamicEmbedder, StepContext, StepReport};
use glodyne_embed::Embedding;
use glodyne_graph::id::TimedEdge;
use glodyne_graph::state::{GraphEvent, GraphState};
use glodyne_graph::{NodeId, Snapshot};
use std::sync::Arc;

/// When a session turns buffered events into a snapshot boundary.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EpochPolicy {
    /// Commit after every `n` effective (state-changing) events.
    EveryNEvents(usize),
    /// Commit whenever an incoming event's timestamp exceeds the
    /// timestamps already applied — i.e. one snapshot per distinct
    /// timestamp, matching the §5.1.1 "all edges no later than the
    /// cut-off" recipe with a cut at every boundary.
    TimestampBoundary,
    /// Commit only on explicit [`EmbedderSession::flush`] calls.
    Manual,
}

/// A streaming embedding session: graph state + epoch policy + any
/// step-style embedder.
///
/// ```
/// use glodyne::{EmbedderSession, EpochPolicy, GloDyNE, GloDyNEConfig};
/// use glodyne_graph::id::{NodeId, TimedEdge};
///
/// let cfg = GloDyNEConfig { alpha: 0.5, ..Default::default() };
/// let model = GloDyNE::new(cfg).unwrap();
/// let mut session = EmbedderSession::new(model, EpochPolicy::TimestampBoundary).unwrap();
/// let stream: Vec<TimedEdge> = (0..30u32)
///     .map(|i| TimedEdge::new(NodeId(i), NodeId(i + 1), (i / 10) as u64))
///     .collect();
/// session.ingest(&stream); // two boundaries crossed (t=0->1, 1->2)
/// let last = session.flush().unwrap(); // commit the final partial epoch
/// assert_eq!(session.steps(), 3);
/// assert!(last.trained_pairs > 0);
/// assert!(session.query(NodeId(0)).is_some());
/// ```
pub struct EmbedderSession<E: DynamicEmbedder> {
    embedder: E,
    state: GraphState,
    policy: EpochPolicy,
    lcc_only: bool,
    prev: Option<Snapshot>,
    /// Shared with every published epoch that still holds it; a commit
    /// swaps in a new `Arc` instead of writing through this one.
    latest: Arc<Embedding>,
    /// Committed embedding steps.
    steps: usize,
    /// The most recent committed step's report (`None` before the first
    /// commit, and after a resume until the next one).
    last_report: Option<StepReport>,
    /// Effective events applied since the last commit.
    pending: usize,
    /// Highest timestamp seen so far (a running max, so an out-of-order
    /// straggler can't drag the epoch clock backwards).
    current_time: Option<u64>,
    /// Optional approximate-search state; see
    /// [`EmbedderSession::with_ann`].
    ann: Option<AnnState>,
}

/// ANN configuration plus the most recently built index and the
/// embedding it was built over. The index is current while that
/// embedding is the session's live one; a commit swaps in a new
/// embedding and so makes it stale without touching it, and the next
/// [`EmbedderSession::ensure_ann_index`] builds from it — a session
/// that flushes many times between reads pays for one build per *read*
/// epoch instead of one per flush.
struct AnnState {
    config: IvfConfig,
    built: Option<(Arc<IvfIndex>, Arc<Embedding>)>,
}

impl<E: DynamicEmbedder> EmbedderSession<E> {
    /// New session over an embedder and a boundary policy. Snapshots are
    /// reduced to their largest connected component by default (the
    /// paper's §5.1.1 rule); see [`EmbedderSession::keep_full_graph`].
    ///
    /// Rejects degenerate policies (`EveryNEvents(0)`) instead of
    /// silently repairing them, like every other constructor in this
    /// workspace.
    pub fn new(embedder: E, policy: EpochPolicy) -> Result<Self, ConfigError> {
        if policy == EpochPolicy::EveryNEvents(0) {
            return Err(ConfigError::new(
                "policy",
                "EveryNEvents requires n >= 1 (0 would commit on every event boundary check)",
            ));
        }
        let latest = Arc::new(embedder.embedding());
        Ok(EmbedderSession {
            embedder,
            state: GraphState::new(),
            policy,
            lcc_only: true,
            prev: None,
            latest,
            steps: 0,
            last_report: None,
            pending: 0,
            current_time: None,
            ann: None,
        })
    }

    /// Commit full snapshots instead of reducing to the largest
    /// connected component.
    pub fn keep_full_graph(mut self) -> Self {
        self.lcc_only = false;
        self
    }

    /// Maintain an [`IvfIndex`] over the live embedding and answer
    /// [`nearest_batch_approx`](EmbedderSession::nearest_batch_approx)
    /// from it. A flush only leaves the index stale; the build — and
    /// the diff that tells it which rows changed — happens on
    /// [`ensure_ann_index`](EmbedderSession::ensure_ann_index) (which
    /// approximate reads call), so a stream of flushes with no reads in
    /// between costs nothing extra. The exact
    /// [`nearest`](EmbedderSession::nearest) path is untouched. Rejects
    /// an invalid `config` like every other constructor in this
    /// workspace.
    pub fn with_ann(mut self, config: IvfConfig) -> Result<Self, ConfigError> {
        self.set_ann(Some(config))?;
        Ok(self)
    }

    /// [`with_ann`](EmbedderSession::with_ann) on a session in place;
    /// `None` switches approximate search off. Either way any index
    /// built so far is dropped, so the next build is a cold one over
    /// the live embedding.
    pub fn set_ann(&mut self, config: Option<IvfConfig>) -> Result<(), ConfigError> {
        if let Some(config) = &config {
            config.validate()?;
        }
        self.ann = config.map(|config| AnnState {
            config,
            built: None,
        });
        Ok(())
    }

    /// Apply one event; returns `true` if it triggered an embedding
    /// step (policy boundary crossed).
    ///
    /// Events are expected in roughly non-decreasing time order; a
    /// late straggler with an older timestamp is folded into the
    /// current epoch (the epoch clock is a running max, so stragglers
    /// never cause spurious mid-epoch boundaries).
    pub fn apply(&mut self, event: GraphEvent) -> bool {
        let mut stepped = false;
        if let EpochPolicy::TimestampBoundary = self.policy {
            if self
                .current_time
                .is_some_and(|t0| event.time > t0 && self.pending > 0)
            {
                stepped = self.flush().is_some();
            }
        }
        if self.state.apply(&event) {
            self.pending += 1;
        }
        self.current_time = Some(self.current_time.map_or(event.time, |t| t.max(event.time)));
        if let EpochPolicy::EveryNEvents(n) = self.policy {
            if self.pending >= n {
                stepped |= self.flush().is_some();
            }
        }
        stepped
    }

    /// Ingest a batch of timed edges (additions) in order; returns the
    /// number of embedding steps triggered along the way.
    pub fn ingest(&mut self, edges: &[TimedEdge]) -> usize {
        edges.iter().filter(|&&te| self.apply(te.into())).count()
    }

    /// Commit the current graph state as a snapshot boundary and run one
    /// embedding step. Returns `None` when there is nothing new to
    /// commit (no effective events since the last boundary).
    pub fn flush(&mut self) -> Option<StepReport> {
        if self.pending == 0 {
            return None;
        }
        let snap = if self.lcc_only {
            self.state.commit_lcc()
        } else {
            self.state.commit()
        };
        let report = match self.prev.take() {
            None => self.embedder.step(StepContext::initial(&snap)),
            Some(prev) => {
                // Lazy diff: methods that read ΔE^t get it computed
                // once; methods that don't pay nothing.
                self.embedder
                    .step(StepContext::transition_lazy(&prev, &snap))
            }
        };
        // A new `Arc`, so any index built over the old one is stale.
        self.latest = Arc::new(self.embedder.embedding());
        self.prev = Some(snap);
        self.pending = 0;
        self.steps += 1;
        self.last_report = Some(report);
        Some(report)
    }

    /// The live embedding vector of a node, if it has one.
    pub fn query(&self, node: NodeId) -> Option<&[f32]> {
        self.latest.get(node)
    }

    /// The `k` cosine-nearest embedded neighbours of `node`.
    pub fn nearest(&self, node: NodeId, k: usize) -> Vec<(NodeId, f32)> {
        self.latest.top_k(node, k)
    }

    /// [`nearest`](EmbedderSession::nearest) for many nodes, positionally
    /// parallel to `nodes` (empty for a node without an embedding).
    pub fn nearest_batch(&self, nodes: &[NodeId], k: usize) -> Vec<Vec<(NodeId, f32)>> {
        nodes
            .iter()
            .map(|&node| self.latest.top_k(node, k))
            .collect()
    }

    /// [`nearest_batch_in`] the session's [`IvfIndex`] (built first if
    /// stale) and live embedding; `None` when ANN was not enabled
    /// ([`EmbedderSession::with_ann`]). At `nprobe >= cells` this is
    /// bit-exact with [`nearest`](EmbedderSession::nearest) — with SQ8
    /// storage, given a re-rank pool covering the epoch.
    pub fn nearest_batch_approx(
        &mut self,
        nodes: &[NodeId],
        k: usize,
        nprobe: usize,
    ) -> Option<Vec<Vec<(NodeId, f32)>>> {
        let (embedding, index) = self.share_epoch();
        let index = index?;
        Some(nearest_batch_in(&index, &embedding, nodes, k, nprobe))
    }

    /// Build the current epoch's ANN index if it is stale and return
    /// it; `None` when ANN is disabled. The one place an epoch's index
    /// is made: the first build is a cold k-means over the live
    /// embedding (empty before the first commit), every later one
    /// re-fits the previous index's centroids through
    /// [`IvfIndex::update_from`].
    ///
    /// The churn a build reports (`dirty_rows`) comes from the
    /// session's one diff, run here once per build however many commits
    /// came between: the live rows whose bits differ from, or are
    /// absent in, the embedding the previous index was built over, in
    /// ascending id order (`update_from` finds removed rows itself). So
    /// a row whose bits change and return to exactly their old value
    /// between two builds stays clean, where a diff at every commit
    /// would have counted it.
    pub fn ensure_ann_index(&mut self) -> Option<&IvfIndex> {
        let ann = self.ann.as_mut()?;
        let current = |(_, over): &(Arc<IvfIndex>, Arc<Embedding>)| Arc::ptr_eq(over, &self.latest);
        if !ann.built.as_ref().is_some_and(current) {
            // A session that never built — or one resumed from a
            // checkpoint — builds cold.
            let index = match &ann.built {
                Some((prev, over)) => IvfIndex::update_from(
                    prev,
                    &self.latest,
                    &changed_rows(over, &self.latest),
                    &ann.config,
                ),
                None => IvfIndex::build(&self.latest, &ann.config),
            };
            ann.built = Some((Arc::new(index), Arc::clone(&self.latest)));
        }
        ann.built.as_ref().map(|(index, _)| &**index)
    }

    /// The committed epoch as shared handles: the live embedding and,
    /// when ANN is enabled, its index (built first if stale, as by
    /// [`ensure_ann_index`](EmbedderSession::ensure_ann_index)). A
    /// server publishes these instead of copying the rows; the session
    /// never writes through them — a commit swaps in new ones.
    pub fn share_epoch(&mut self) -> (Arc<Embedding>, Option<Arc<IvfIndex>>) {
        self.ensure_ann_index();
        let built = self.ann.as_ref().and_then(|ann| ann.built.as_ref());
        (
            Arc::clone(&self.latest),
            built.map(|(index, _)| index.clone()),
        )
    }

    /// The live embedding (as of the last committed step).
    pub fn embedding(&self) -> &Embedding {
        &self.latest
    }

    /// Number of committed embedding steps.
    pub fn steps(&self) -> usize {
        self.steps
    }

    /// The most recent committed step's report — the one the committing
    /// [`apply`](EmbedderSession::apply) or
    /// [`flush`](EmbedderSession::flush) produced. `None` before the
    /// first commit, and on a resumed session until its next one
    /// (reports are not checkpointed).
    pub fn last_report(&self) -> Option<StepReport> {
        self.last_report
    }

    /// Effective (state-changing) events applied since the last commit
    /// — what the next [`EmbedderSession::flush`] would pick up.
    pub fn pending_events(&self) -> usize {
        self.pending
    }

    /// Highest event timestamp ingested so far, if any.
    pub fn current_time(&self) -> Option<u64> {
        self.current_time
    }

    /// The session's boundary policy.
    pub fn policy(&self) -> EpochPolicy {
        self.policy
    }

    /// The mutable graph state's current view (nodes/edges *including*
    /// uncommitted events).
    pub fn graph(&self) -> &GraphState {
        &self.state
    }

    /// The snapshot of the last committed boundary, if any.
    pub fn last_snapshot(&self) -> Option<&Snapshot> {
        self.prev.as_ref()
    }

    /// The wrapped embedder (diagnostics; e.g. GloDyNE's reservoir).
    pub fn embedder(&self) -> &E {
        &self.embedder
    }
}

/// The ids of `new`'s rows that are absent from `old` or differ from it
/// in any bit (so NaN components don't read as perpetual churn), in
/// ascending order.
fn changed_rows(old: &Embedding, new: &Embedding) -> Vec<NodeId> {
    fn bits(v: &[f32]) -> impl Iterator<Item = u32> + '_ {
        v.iter().map(|x| x.to_bits())
    }
    let mut changed: Vec<NodeId> = new
        .iter()
        .filter(|&(id, v)| old.get(id).is_none_or(|prev| bits(prev).ne(bits(v))))
        .map(|(id, _)| id)
        .collect();
    changed.sort_unstable();
    changed
}

/// The approximate `k` nearest neighbours of each of `nodes` among
/// `embedding`'s rows, through `index` (built over `embedding`) probing
/// `nprobe` coarse cells: one [`IvfIndex::search_in_batch_with`] call,
/// grouped where that pays, each answer bit-exact with a single-query
/// search. Positionally parallel to `nodes`; an unknown node is an
/// empty query, which the index answers with an empty list. Quantized
/// indexes re-rank against `embedding`, so scores always come from the
/// exact kernel.
pub fn nearest_batch_in(
    index: &IvfIndex,
    embedding: &Embedding,
    nodes: &[NodeId],
    k: usize,
    nprobe: usize,
) -> Vec<Vec<(NodeId, f32)>> {
    let queries: Vec<BatchQuery<'_>> = nodes
        .iter()
        .map(|&node| BatchQuery {
            query: embedding.get(node).unwrap_or_default(),
            exclude: Some(node),
        })
        .collect();
    index.search_in_batch_with(embedding, &queries, k, nprobe, &mut SearchScratch::new())
}

/// Everything beyond the embedding rows that a durable snapshot must
/// carry to resurrect an [`EmbedderSession`] at a committed boundary.
///
/// Produced by [`EmbedderSession::checkpoint`], consumed by
/// [`EmbedderSession::resume`]. The embedding itself travels separately
/// through the persist layer's binary format.
#[derive(Debug, Clone, PartialEq)]
pub struct SessionCheckpoint {
    /// Committed epoch count at the checkpoint.
    pub epoch: u64,
    /// Highest event timestamp ingested so far.
    pub current_time: Option<u64>,
    /// Whether snapshots reduce to the largest connected component.
    pub lcc_only: bool,
    /// Canonical edge list of the committed graph state (nodes exist
    /// iff they carry at least one edge, so edges describe it fully).
    pub edges: Vec<(NodeId, NodeId)>,
    /// The embedder's opaque hidden state
    /// ([`CheckpointEmbedder::export_state`]).
    pub embedder_state: Vec<u8>,
}

impl<E: CheckpointEmbedder> EmbedderSession<E> {
    /// Capture the session at its current committed boundary. `None`
    /// while effective events are pending — checkpoints only ever
    /// describe committed state, never a half-applied epoch (the
    /// bit-exact resume contract is defined at boundaries).
    pub fn checkpoint(&self) -> Option<SessionCheckpoint> {
        if self.pending != 0 {
            return None;
        }
        Some(SessionCheckpoint {
            epoch: self.steps() as u64,
            current_time: self.current_time,
            lcc_only: self.lcc_only,
            edges: self.state.edges().map(|e| (e.u, e.v)).collect(),
            embedder_state: self.embedder.export_state(),
        })
    }

    /// Resurrect a session from a checkpoint and the embedding that was
    /// persisted with it. `embedder` must be freshly constructed from
    /// the *same configuration* the checkpointed one used; its hidden
    /// state is overwritten from the checkpoint.
    ///
    /// The resumed session continues bit-exactly: its next committed
    /// epoch (over the same subsequent events, with deterministic
    /// training configured) equals what the uninterrupted session would
    /// have produced. Step reports are not persisted: `steps()` resumes
    /// at the checkpoint's epoch, `last_report()` starts empty.
    pub fn resume(
        mut embedder: E,
        policy: EpochPolicy,
        checkpoint: &SessionCheckpoint,
        embedding: &Embedding,
    ) -> Result<Self, String> {
        embedder.import_state(&checkpoint.embedder_state, embedding)?;
        let mut session = EmbedderSession::new(embedder, policy).map_err(|e| e.to_string())?;
        session.lcc_only = checkpoint.lcc_only;
        for &(a, b) in &checkpoint.edges {
            session.state.add_edge(a, b);
        }
        if checkpoint.epoch > 0 {
            // Recompute the previous-boundary snapshot from the restored
            // state — `commit` is deterministic in the state, so the
            // diff of the next online step is identical to the
            // uninterrupted run's.
            session.prev = Some(if session.lcc_only {
                session.state.commit_lcc()
            } else {
                session.state.commit()
            });
        }
        session.latest = Arc::new(session.embedder.embedding());
        session.steps = checkpoint.epoch as usize;
        session.current_time = checkpoint.current_time;
        Ok(session)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::{GloDyNE, GloDyNEConfig};
    use glodyne_embed::walks::WalkConfig;
    use glodyne_embed::SgnsConfig;
    use std::collections::BTreeSet;

    fn tiny_model() -> GloDyNE {
        GloDyNE::new(GloDyNEConfig {
            alpha: 0.5,
            walk: WalkConfig {
                walks_per_node: 2,
                walk_length: 8,
                seed: 3,
            },
            sgns: SgnsConfig {
                dim: 8,
                window: 2,
                negatives: 2,
                epochs: 1,
                parallel: false,
                ..Default::default()
            },
            ..Default::default()
        })
        .unwrap()
    }

    fn chain(times: &[u64]) -> Vec<TimedEdge> {
        times
            .iter()
            .enumerate()
            .map(|(i, &t)| TimedEdge::new(NodeId(i as u32), NodeId(i as u32 + 1), t))
            .collect()
    }

    #[test]
    fn timestamp_boundary_commits_per_distinct_time() {
        let mut s = EmbedderSession::new(tiny_model(), EpochPolicy::TimestampBoundary).unwrap();
        // times 0,0,0, 1,1, 2 => boundaries crossed entering 1 and 2.
        let steps = s.ingest(&chain(&[0, 0, 0, 1, 1, 2]));
        assert_eq!(steps, 2);
        assert!(s.flush().is_some(), "final partial epoch still pending");
        assert_eq!(s.steps(), 3);
        assert!(s.flush().is_none(), "nothing new after the final flush");
    }

    #[test]
    fn out_of_order_straggler_does_not_split_an_epoch() {
        let mut s = EmbedderSession::new(tiny_model(), EpochPolicy::TimestampBoundary).unwrap();
        // times 5, 3 (straggler), 5, 5: the t=3 event must fold into the
        // t=5 epoch instead of resetting the clock and forcing a bogus
        // mid-epoch boundary at the next t=5 event.
        let events = [
            TimedEdge::new(NodeId(0), NodeId(1), 5),
            TimedEdge::new(NodeId(1), NodeId(2), 3),
            TimedEdge::new(NodeId(2), NodeId(3), 5),
            TimedEdge::new(NodeId(3), NodeId(4), 5),
        ];
        assert_eq!(s.ingest(&events), 0, "no boundary inside one epoch");
        assert_eq!(s.ingest(&[TimedEdge::new(NodeId(0), NodeId(4), 6)]), 1);
        assert_eq!(s.steps(), 1);
        assert_eq!(
            s.last_snapshot().unwrap().num_edges(),
            4,
            "the straggler's edge belongs to the committed epoch"
        );
    }

    #[test]
    fn zero_event_policy_rejected() {
        match EmbedderSession::new(tiny_model(), EpochPolicy::EveryNEvents(0)) {
            Err(err) => assert_eq!(err.param(), "policy"),
            Ok(_) => panic!("EveryNEvents(0) must be rejected"),
        }
    }

    #[test]
    fn every_n_events_policy() {
        let mut s = EmbedderSession::new(tiny_model(), EpochPolicy::EveryNEvents(3)).unwrap();
        let steps = s.ingest(&chain(&[0, 1, 2, 3, 4, 5, 6]));
        assert_eq!(steps, 2, "7 events => commits at 3 and 6");
        s.flush();
        assert_eq!(s.steps(), 3);
    }

    #[test]
    fn manual_policy_only_flushes_explicitly() {
        let mut s = EmbedderSession::new(tiny_model(), EpochPolicy::Manual).unwrap();
        assert_eq!(s.ingest(&chain(&[0, 1, 2, 3])), 0);
        assert_eq!(s.steps(), 0);
        assert!(s.flush().is_some());
        assert_eq!(s.steps(), 1);
    }

    #[test]
    fn duplicate_events_do_not_pend() {
        let mut s = EmbedderSession::new(tiny_model(), EpochPolicy::Manual).unwrap();
        let e = TimedEdge::new(NodeId(0), NodeId(1), 0);
        s.ingest(&[e, e, e]);
        s.flush().unwrap();
        // Re-adding the same edge is not an effective change.
        s.ingest(&[e]);
        assert!(s.flush().is_none(), "duplicate edge must not re-commit");
    }

    #[test]
    fn queries_reflect_live_embedding() {
        let mut s = EmbedderSession::new(tiny_model(), EpochPolicy::Manual).unwrap();
        assert!(s.query(NodeId(0)).is_none(), "nothing before first flush");
        s.ingest(&chain(&[0, 0, 0, 0, 0]));
        let report = s.flush().unwrap();
        assert!(report.trained_pairs > 0);
        assert!(s.query(NodeId(0)).is_some());
        let near = s.nearest(NodeId(0), 3);
        assert!(!near.is_empty());
        assert!(near.iter().all(|&(id, _)| id != NodeId(0)));
    }

    #[test]
    fn nearest_matches_reference_contract() {
        // `nearest` must agree with the shared executable spec
        // (`reference_top_k`) on ordering, self-exclusion, and values —
        // the same contract the serving layer pins on its wire path.
        let mut s = EmbedderSession::new(tiny_model(), EpochPolicy::Manual).unwrap();
        s.ingest(&chain(&[0, 0, 0, 0, 0, 0]));
        s.flush().unwrap();
        let near = s.nearest(NodeId(2), 4);
        let spec = glodyne_embed::reference_top_k(s.embedding(), NodeId(2), 4);
        assert!(!near.is_empty());
        assert_eq!(near.len(), spec.len());
        for (a, b) in near.iter().zip(&spec) {
            assert_eq!(a.0, b.0);
            assert_eq!(a.1.to_bits(), b.1.to_bits());
        }
        assert!(near.iter().all(|&(id, _)| id != NodeId(2)), "self excluded");
    }

    /// The session's current index as its shared handle.
    fn shared_index<E: DynamicEmbedder>(s: &mut EmbedderSession<E>) -> Arc<IvfIndex> {
        s.share_epoch().1.expect("ann enabled")
    }

    fn assert_same_hits(a: &[(NodeId, f32)], b: &[(NodeId, f32)]) {
        assert_eq!(a.len(), b.len());
        for (x, y) in a.iter().zip(b) {
            assert_eq!(x.0, y.0);
            assert_eq!(x.1.to_bits(), y.1.to_bits());
        }
    }

    #[test]
    fn ann_session_full_probe_matches_exact_nearest() {
        let cfg = IvfConfig {
            cells: 4,
            ..Default::default()
        };
        let mut s = EmbedderSession::new(tiny_model(), EpochPolicy::Manual)
            .unwrap()
            .with_ann(cfg)
            .unwrap();
        // Before the first step the index is built over the empty
        // embedding, and answers every probe with an empty list.
        assert!(s.ensure_ann_index().is_some_and(IvfIndex::is_empty));
        assert_eq!(
            s.nearest_batch_approx(&[NodeId(0)], 3, 4),
            Some(vec![Vec::new()]),
            "enabled but nothing committed yet"
        );
        s.ingest(&chain(&[0, 0, 0, 0, 0, 0, 0]));
        s.flush().unwrap();
        let index = s.ensure_ann_index().expect("ann enabled");
        assert_eq!(index.len(), s.embedding().len());
        // Full probe: nprobe is clamped to the cell count inside search.
        let approx = s.nearest_batch_approx(&[NodeId(2)], 5, usize::MAX).unwrap();
        assert_same_hits(&approx[0], &s.nearest(NodeId(2), 5));
        // Low nprobe still returns well-formed, self-excluded results.
        let partial = s.nearest_batch_approx(&[NodeId(2)], 5, 1).unwrap();
        assert!(partial[0].len() <= 5);
        assert!(partial[0].iter().all(|&(id, _)| id != NodeId(2)));
        // A node without an embedding searches empty, not a panic.
        assert_eq!(
            s.nearest_batch_approx(&[NodeId(999)], 5, 2),
            Some(vec![Vec::new()])
        );
    }

    #[test]
    fn nearest_batch_matches_per_query_nearest_on_every_path() {
        for quantize in [false, true] {
            let cfg = IvfConfig {
                cells: 3,
                quantize,
                ..Default::default()
            };
            let mut s = EmbedderSession::new(tiny_model(), EpochPolicy::Manual)
                .unwrap()
                .with_ann(cfg)
                .unwrap();
            // Before anything commits: batch answers are well-formed.
            let nodes = [NodeId(0), NodeId(3), NodeId(999), NodeId(1)];
            assert_eq!(s.nearest_batch(&nodes, 3), vec![vec![]; 4]);
            assert_eq!(
                s.nearest_batch_approx(&nodes, 3, 2),
                Some(vec![vec![], vec![], vec![], vec![]])
            );
            s.ingest(&chain(&[0, 0, 0, 0, 0, 0, 0]));
            s.flush().unwrap();
            // Exact batch ≡ per-query exact.
            let batch = s.nearest_batch(&nodes, 4);
            for (&n, got) in nodes.iter().zip(&batch) {
                assert_same_hits(got, &s.nearest(n, 4));
            }
            // ANN batch ≡ per-query ANN, same epoch, one index build.
            let built = shared_index(&mut s);
            for nprobe in [1usize, usize::MAX] {
                let batch = s.nearest_batch_approx(&nodes, 4, nprobe).unwrap();
                for (&n, got) in nodes.iter().zip(&batch) {
                    let single = s.nearest_batch_approx(&[n], 4, nprobe).unwrap();
                    assert_same_hits(got, &single[0]);
                }
            }
            assert!(
                Arc::ptr_eq(&built, &shared_index(&mut s)),
                "the whole batch shares one build (quantize={quantize})"
            );
        }
    }

    #[test]
    fn ann_rebuild_is_lazy_and_shared() {
        use glodyne_ann::BuildKind;
        let cfg = IvfConfig {
            cells: 2,
            ..Default::default()
        };
        let mut s = EmbedderSession::new(tiny_model(), EpochPolicy::Manual)
            .unwrap()
            .with_ann(cfg)
            .unwrap();
        // Three flushes with no reads in between build nothing: the
        // first build is then a cold one with no previous index to
        // count churn against — a per-flush build would have left one.
        for round in 0..3u32 {
            s.ingest(&[TimedEdge::new(NodeId(round), NodeId(round + 1), 0)]);
            s.flush().unwrap();
        }
        let first = s.ensure_ann_index().expect("ann enabled");
        assert_eq!(first.build_kind(), BuildKind::Full);
        assert_eq!(first.dirty_rows(), 0, "flushes alone must not build");
        // Repeated reads of one epoch share its build.
        let built = shared_index(&mut s);
        s.nearest_batch_approx(&[NodeId(0)], 3, 2).unwrap();
        assert!(Arc::ptr_eq(&built, &shared_index(&mut s)));
        // A new committed step invalidates; the next read rebuilds.
        s.ingest(&[TimedEdge::new(NodeId(0), NodeId(9), 1)]);
        s.flush().unwrap();
        let rebuilt = shared_index(&mut s);
        assert!(!Arc::ptr_eq(&built, &rebuilt));
        // A no-op flush (nothing pending) must not invalidate.
        assert!(s.flush().is_none());
        assert!(
            Arc::ptr_eq(&rebuilt, &shared_index(&mut s)),
            "no-step flush keeps the index"
        );
        // The shared embedding is the session's own, not a copy.
        let (embedding, _) = s.share_epoch();
        assert!(std::ptr::eq(&*embedding, s.embedding()));
    }

    #[test]
    fn lazy_index_maintenance_counts_changed_rows_and_matches_full_builds() {
        use glodyne_ann::BuildKind;
        let cfg = IvfConfig {
            cells: 3,
            ..Default::default()
        };
        let mut s = EmbedderSession::new(tiny_model(), EpochPolicy::Manual)
            .unwrap()
            .with_ann(cfg)
            .unwrap();
        // Epoch 0's index, over the empty embedding (as a server
        // publishes it), is what the first commit's build counts
        // against.
        assert!(s.ensure_ann_index().unwrap().is_empty());
        s.ingest(&chain(&[0, 0, 0, 0, 0, 0]));
        s.flush().unwrap();
        let n = s.embedding().len();
        let first = s.ensure_ann_index().unwrap();
        assert_eq!(first.dirty_rows(), n, "the offline step dirties every row");
        assert_eq!(first.build_kind(), BuildKind::Full, "cold start is full");

        // Next epoch: the build re-fits the first one's centroids and
        // counts exactly the rows the step changed.
        let before = s.share_epoch().0;
        s.ingest(&[TimedEdge::new(NodeId(0), NodeId(9), 1)]);
        s.flush().unwrap();
        let changed = s
            .embedding()
            .iter()
            .filter(|&(id, v)| before.get(id).is_none_or(|old| bits(old) != bits(v)))
            .count();
        let index = shared_index(&mut s);
        assert!(index.dirty_rows() > 0);
        assert_eq!(index.build_kind(), BuildKind::Full);
        assert_eq!(index.len(), s.embedding().len());
        assert_eq!(
            index.dirty_rows(),
            changed,
            "the build counted exactly the changed rows"
        );
        // Full probe on the re-fitted index ≡ the exact scan.
        let approx = s.nearest_batch_approx(&[NodeId(2)], 4, usize::MAX).unwrap();
        assert_same_hits(&approx[0], &s.nearest(NodeId(2), 4));
    }

    fn bits(v: &[f32]) -> Vec<u32> {
        v.iter().map(|x| x.to_bits()).collect()
    }

    /// The diff the session used to run at every commit, accumulated
    /// into a dirty set until the next build drained it: the reference
    /// for the build-time [`changed_rows`].
    fn per_commit_diff(old: &Embedding, new: &Embedding, dirty: &mut BTreeSet<NodeId>) {
        for (id, v) in new.iter() {
            let changed = match old.get(id) {
                Some(prev) => prev.len() != v.len() || bits(prev) != bits(v),
                None => true,
            };
            if changed {
                dirty.insert(id);
            }
        }
    }

    #[test]
    fn build_time_diff_is_the_accumulated_per_commit_diff() {
        use glodyne_graph::state::GraphEvent;
        let add = |pairs: &[(u32, u32)], t| {
            let events = pairs
                .iter()
                .map(|&(a, b)| GraphEvent::add_edge(NodeId(a), NodeId(b), t));
            Some(events.collect::<Vec<_>>())
        };
        // `Some(events)` is one flush, `None` one build: three flushes
        // between two builds, one of them a node removal.
        let script = [
            add(
                &[
                    (0, 1),
                    (1, 2),
                    (2, 3),
                    (3, 4),
                    (4, 5),
                    (5, 6),
                    (6, 7),
                    (7, 8),
                ],
                0,
            ),
            None,
            add(&[(0, 2), (1, 3), (2, 4)], 1),
            Some(vec![GraphEvent::remove_node(NodeId(8), 2)]),
            add(&[(3, 9), (4, 10), (5, 11)], 3),
            None,
            add(&[(9, 12), (0, 6)], 4),
            None,
        ];
        for quantize in [false, true] {
            let cfg = IvfConfig {
                cells: 3,
                quantize,
                ..Default::default()
            };
            let mut s = EmbedderSession::new(tiny_model(), EpochPolicy::Manual)
                .unwrap()
                .with_ann(cfg)
                .unwrap();
            // Epoch 0's index, over the empty embedding.
            let (mut over, index) = s.share_epoch();
            let mut prev = index.unwrap();
            let mut reference = BTreeSet::new();
            let mut builds = 0;
            for step in &script {
                if let Some(events) = step {
                    let old = Arc::clone(&s.latest);
                    for &event in events {
                        s.apply(event);
                    }
                    s.flush().unwrap();
                    per_commit_diff(&old, &s.latest, &mut reference);
                    continue;
                }
                // A build: its diff is the union of the commits'
                // diffs, and its index is `update_from` over it.
                let (live, index) = s.share_epoch();
                let index = index.unwrap();
                let dirty: Vec<NodeId> = std::mem::take(&mut reference).into_iter().collect();
                assert_eq!(changed_rows(&over, &live), dirty);
                let want = IvfIndex::update_from(&prev, &live, &dirty, &cfg);
                let what = format!("quantize={quantize}");
                assert_eq!(index.dirty_rows(), want.dirty_rows(), "{what}");
                assert_eq!(bits(index.centroids()), bits(want.centroids()), "{what}");
                assert_eq!(index.cells(), want.cells(), "{what}");
                for c in 0..want.cells() {
                    assert_eq!(index.posting_list(c), want.posting_list(c), "{what}");
                }
                builds += 1;
                (over, prev) = (live, index);
            }
            assert_eq!(builds, 3);
        }
    }

    #[test]
    fn ann_disabled_and_invalid_configs() {
        let mut s = EmbedderSession::new(tiny_model(), EpochPolicy::Manual).unwrap();
        assert!(s.ensure_ann_index().is_none(), "ann not enabled");
        assert_eq!(s.nearest_batch_approx(&[NodeId(0)], 3, 1), None);
        assert!(s.share_epoch().1.is_none());
        let bad = IvfConfig {
            cells: 0,
            ..Default::default()
        };
        match EmbedderSession::new(tiny_model(), EpochPolicy::Manual)
            .unwrap()
            .with_ann(bad)
        {
            Err(err) => assert_eq!(err.param(), "cells"),
            Ok(_) => panic!("cells = 0 must be rejected"),
        }
        // The in-place form rejects the same config and switches off.
        assert_eq!(s.set_ann(Some(bad)).unwrap_err().param(), "cells");
        s.set_ann(Some(IvfConfig::default())).unwrap();
        assert!(s.ensure_ann_index().is_some());
        s.set_ann(None).unwrap();
        assert!(s.ensure_ann_index().is_none());
    }

    #[test]
    fn serving_accessors_track_state() {
        let mut s = EmbedderSession::new(tiny_model(), EpochPolicy::Manual).unwrap();
        assert_eq!(s.policy(), EpochPolicy::Manual);
        assert_eq!(s.pending_events(), 0);
        assert_eq!(s.current_time(), None);
        s.ingest(&chain(&[0, 1, 2]));
        assert_eq!(s.pending_events(), 3);
        assert_eq!(s.current_time(), Some(2));
        s.flush().unwrap();
        assert_eq!(s.pending_events(), 0);
        assert_eq!(s.current_time(), Some(2));
    }

    #[test]
    fn first_commit_is_offline_stage() {
        let mut s = EmbedderSession::new(tiny_model(), EpochPolicy::Manual).unwrap();
        s.ingest(&chain(&[0, 0, 0, 0]));
        let r0 = s.flush().unwrap();
        // Offline stage walks from every node of the committed LCC.
        assert_eq!(r0.selected, s.last_snapshot().unwrap().num_nodes());
        s.ingest(&[TimedEdge::new(NodeId(0), NodeId(9), 1)]);
        let r1 = s.flush().unwrap();
        assert!(
            r1.selected < s.last_snapshot().unwrap().num_nodes(),
            "online step selects a fraction"
        );
    }

    #[test]
    fn checkpoint_resume_is_bit_exact() {
        let mut s = EmbedderSession::new(tiny_model(), EpochPolicy::Manual).unwrap();
        s.ingest(&chain(&[0, 0, 0, 0, 0]));
        s.flush().unwrap();
        s.ingest(&[TimedEdge::new(NodeId(0), NodeId(9), 1)]);
        assert!(
            s.checkpoint().is_none(),
            "pending events forbid checkpoints"
        );
        s.flush().unwrap();

        let ckpt = s.checkpoint().unwrap();
        assert_eq!(ckpt.epoch, 2);
        let emb = s.embedding().clone();
        let mut r =
            EmbedderSession::resume(tiny_model(), EpochPolicy::Manual, &ckpt, &emb).unwrap();
        assert_eq!(r.steps(), s.steps());
        assert!(s.last_report().is_some());
        assert!(r.last_report().is_none(), "reports are not checkpointed");
        assert_eq!(r.current_time(), s.current_time());
        assert_eq!(r.graph(), s.graph());

        // Drive both through the same suffix: committed state must
        // stay bit-identical, including the embedding's row order (the
        // persist layer serialises rows in iteration order).
        let suffix = [
            TimedEdge::new(NodeId(2), NodeId(7), 2),
            TimedEdge::new(NodeId(3), NodeId(8), 2),
        ];
        s.ingest(&suffix);
        s.flush().unwrap();
        r.ingest(&suffix);
        r.flush().unwrap();
        let (a, b) = (s.embedding(), r.embedding());
        assert_eq!(a.len(), b.len());
        for ((ida, va), (idb, vb)) in a.iter().zip(b.iter()) {
            assert_eq!(ida, idb, "row order diverged");
            assert_eq!(va, vb, "row {ida} diverged");
        }
    }

    #[test]
    fn epoch_zero_checkpoint_resumes_before_first_commit() {
        let s = EmbedderSession::new(tiny_model(), EpochPolicy::Manual).unwrap();
        let ckpt = s.checkpoint().unwrap();
        assert_eq!(ckpt.epoch, 0);
        let mut r =
            EmbedderSession::resume(tiny_model(), EpochPolicy::Manual, &ckpt, &Embedding::new(8))
                .unwrap();
        assert_eq!(r.steps(), 0);
        assert!(r.last_snapshot().is_none(), "no boundary committed yet");
        // The first flush after resume is still the offline stage.
        r.ingest(&chain(&[0, 0, 0]));
        let report = r.flush().unwrap();
        assert_eq!(report.selected, r.last_snapshot().unwrap().num_nodes());
    }

    #[test]
    fn removals_flow_through_events() {
        use glodyne_graph::state::GraphEvent;
        let mut s = EmbedderSession::new(tiny_model(), EpochPolicy::Manual)
            .unwrap()
            .keep_full_graph();
        s.ingest(&chain(&[0, 0, 0, 0]));
        s.flush().unwrap();
        assert_eq!(s.last_snapshot().unwrap().num_nodes(), 5);
        s.apply(GraphEvent::remove_node(NodeId(4), 1));
        s.flush().unwrap();
        assert_eq!(s.last_snapshot().unwrap().num_nodes(), 4);
    }
}
