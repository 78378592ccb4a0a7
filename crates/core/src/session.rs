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

use glodyne_ann::{BatchQuery, IvfConfig, IvfIndex, SearchScratch};
use glodyne_embed::config::ConfigError;
use glodyne_embed::traits::{CheckpointEmbedder, DynamicEmbedder, StepContext, StepReport};
use glodyne_embed::Embedding;
use glodyne_graph::id::TimedEdge;
use glodyne_graph::state::{GraphEvent, GraphState};
use glodyne_graph::{NodeId, Snapshot};

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
/// let cfg = GloDyNEConfig::builder().alpha(0.5).build().unwrap();
/// let model = GloDyNE::new(cfg).unwrap();
/// let mut session = EmbedderSession::new(model, EpochPolicy::TimestampBoundary).unwrap();
/// let stream: Vec<TimedEdge> = (0..30u32)
///     .map(|i| TimedEdge::new(NodeId(i), NodeId(i + 1), (i / 10) as u64))
///     .collect();
/// session.ingest(&stream); // two boundaries crossed (t=0->1, 1->2)
/// session.flush();         // commit the final partial epoch
/// assert_eq!(session.reports().len(), 3);
/// assert!(session.query(NodeId(0)).is_some());
/// ```
pub struct EmbedderSession<E: DynamicEmbedder> {
    embedder: E,
    state: GraphState,
    policy: EpochPolicy,
    lcc_only: bool,
    prev: Option<Snapshot>,
    latest: Embedding,
    reports: Vec<StepReport>,
    /// Effective events applied since the last commit.
    pending: usize,
    /// Highest timestamp seen so far (a running max, so an out-of-order
    /// straggler can't drag the epoch clock backwards).
    current_time: Option<u64>,
    /// Optional approximate-search state; see
    /// [`EmbedderSession::with_ann`].
    ann: Option<AnnState>,
    /// Nodes whose embedding vector changed since the dirty set was
    /// last drained — computed by diffing the live embedding at each
    /// commit (bitwise row compare, so it is exact for any embedder,
    /// not an estimate). Ordered so drains are deterministic. Fed to
    /// [`IvfIndex::update_from`] by the lazy index maintenance and by
    /// external trainers via [`EmbedderSession::take_dirty`].
    dirty: std::collections::BTreeSet<NodeId>,
}

/// ANN configuration plus the lazily built index over the latest
/// committed embedding. A commit only marks the index stale; the build
/// happens on the first [`EmbedderSession::nearest_approx`] of the new
/// epoch, so sessions that flush many times between queries pay for at
/// most one build per *queried* epoch instead of one per flush.
struct AnnState {
    config: IvfConfig,
    index: Option<IvfIndex>,
    /// The most recently built index, retained across commits as the
    /// warm start for [`IvfIndex::update_from`]: the next lazy build
    /// reassigns only the rows the session's dirty set accumulated (or,
    /// on drift, re-fits this index's centroids) instead of re-running
    /// k-means from cold seeds.
    prev: Option<IvfIndex>,
    /// Index builds performed over the session's lifetime (telemetry;
    /// pins the build-on-first-query contract in tests).
    builds: u64,
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
        let latest = embedder.embedding();
        Ok(EmbedderSession {
            embedder,
            state: GraphState::new(),
            policy,
            lcc_only: true,
            prev: None,
            latest,
            reports: Vec::new(),
            pending: 0,
            current_time: None,
            ann: None,
            dirty: std::collections::BTreeSet::new(),
        })
    }

    /// Commit full snapshots instead of reducing to the largest
    /// connected component.
    pub fn keep_full_graph(mut self) -> Self {
        self.lcc_only = false;
        self
    }

    /// Maintain an [`IvfIndex`] over the live embedding and answer
    /// [`nearest_approx`](EmbedderSession::nearest_approx) from it.
    /// The index is built lazily — on the first `nearest_approx` after
    /// each committed step, not at the flush itself — so a stream of
    /// flushes with no queries in between costs nothing extra. The
    /// exact [`nearest`](EmbedderSession::nearest) path is untouched.
    /// Rejects an invalid `config` like every other constructor in
    /// this workspace.
    pub fn with_ann(mut self, config: IvfConfig) -> Result<Self, ConfigError> {
        config.validate()?;
        self.ann = Some(AnnState {
            config,
            index: None,
            prev: None,
            builds: 0,
        });
        Ok(self)
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
        let mut report = match self.prev.take() {
            None => self.embedder.step(StepContext::initial(&snap)),
            Some(prev) => {
                // Lazy diff: methods that read ΔE^t get it computed
                // once; methods that don't pay nothing.
                self.embedder
                    .step(StepContext::transition_lazy(&prev, &snap))
            }
        };
        // Diff the live embedding across the step (bitwise per row, so
        // NaN components don't read as perpetual churn) — the exact
        // dirty set the incremental index maintenance reassigns.
        // Removed rows aren't listed: `IvfIndex::update_from` detects
        // them from the embedding itself.
        let old = std::mem::replace(&mut self.latest, self.embedder.embedding());
        report.dirty_rows = 0;
        for (id, v) in self.latest.iter() {
            let changed = match old.get(id) {
                Some(prev_row) => {
                    prev_row.len() != v.len()
                        || prev_row
                            .iter()
                            .zip(v)
                            .any(|(a, b)| a.to_bits() != b.to_bits())
                }
                None => true,
            };
            if changed {
                report.dirty_rows += 1;
                self.dirty.insert(id);
            }
        }
        if let Some(ann) = &mut self.ann {
            // Only mark the index stale; the (incremental) rebuild
            // happens lazily on the first `nearest_approx` of the new
            // epoch. The last built index is kept as the warm start.
            if let Some(ix) = ann.index.take() {
                ann.prev = Some(ix);
            }
        }
        self.prev = Some(snap);
        self.pending = 0;
        self.reports.push(report);
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

    /// Approximate `k` nearest neighbours of `node` from the session's
    /// [`IvfIndex`], probing `nprobe` coarse cells. `None` when ANN was
    /// not enabled ([`EmbedderSession::with_ann`]); empty before the
    /// first committed step or for a node with no embedding. At
    /// `nprobe >= cells` this is bit-exact with
    /// [`nearest`](EmbedderSession::nearest) — with SQ8 storage, given
    /// a re-rank pool covering the epoch.
    ///
    /// The first call after a committed step builds the epoch's index
    /// (hence `&mut self`); further calls in the same epoch reuse it.
    /// Quantized indexes re-rank against the live embedding, so served
    /// scores always come from the exact kernel.
    pub fn nearest_approx(
        &mut self,
        node: NodeId,
        k: usize,
        nprobe: usize,
    ) -> Option<Vec<(NodeId, f32)>> {
        self.ann.as_ref()?;
        if self.ensure_ann_index().is_none() {
            // Enabled but nothing committed yet.
            return Some(Vec::new());
        }
        let index = self.ann.as_ref()?.index.as_ref()?;
        Some(match self.latest.get(node) {
            Some(query) => index.search_in(&self.latest, query, k, nprobe, Some(node)),
            None => Vec::new(),
        })
    }

    /// [`nearest_approx`](EmbedderSession::nearest_approx) for many
    /// nodes against one index build, through
    /// [`IvfIndex::search_in_batch_with`] (grouped where that pays).
    /// Results are positionally parallel to `nodes` (empty for a node
    /// without an embedding); bit-exact with per-node `nearest_approx`
    /// calls in the same epoch.
    pub fn nearest_batch_approx(
        &mut self,
        nodes: &[NodeId],
        k: usize,
        nprobe: usize,
    ) -> Option<Vec<Vec<(NodeId, f32)>>> {
        self.ann.as_ref()?;
        if self.ensure_ann_index().is_none() {
            return Some(nodes.iter().map(|_| Vec::new()).collect());
        }
        let index = self.ann.as_ref()?.index.as_ref()?;
        // An unknown node is an empty query, which the index answers
        // with an empty list.
        let queries: Vec<BatchQuery<'_>> = nodes
            .iter()
            .map(|&node| BatchQuery {
                query: self.latest.get(node).unwrap_or_default(),
                exclude: Some(node),
            })
            .collect();
        let scratch = &mut SearchScratch::new();
        Some(index.search_in_batch_with(&self.latest, &queries, k, nprobe, scratch))
    }

    /// Build the current epoch's ANN index if it is stale and return
    /// it — the explicit form of the lazy build
    /// [`nearest_approx`](EmbedderSession::nearest_approx) performs
    /// implicitly (the sharded fan-out calls this before snapshotting
    /// per-shard views). `None` when ANN is disabled or nothing has
    /// committed yet.
    pub fn ensure_ann_index(&mut self) -> Option<&IvfIndex> {
        if self.reports.is_empty() {
            // Nothing committed yet: don't burn a build on the empty
            // embedding just because a query raced the first flush.
            return None;
        }
        let ann = self.ann.as_mut()?;
        if ann.index.is_none() {
            ann.builds += 1;
            // Warm-start from the last built index when there is one:
            // only the rows the dirty set accumulated since that build
            // are reassigned (`update_from` re-fits the previous
            // centroids over every row on drift). A session that never
            // built — or one resumed from a checkpoint — builds cold.
            let dirty: Vec<NodeId> = std::mem::take(&mut self.dirty).into_iter().collect();
            ann.index = Some(match ann.prev.take() {
                Some(prev) => IvfIndex::update_from(&prev, &self.latest, &dirty, &ann.config),
                None => IvfIndex::build(&self.latest, &ann.config),
            });
        }
        ann.index.as_ref()
    }

    /// Drain the accumulated dirty set: every node whose embedding
    /// vector changed since the previous drain (or session start), in
    /// ascending id order. External trainers hand this to
    /// [`IvfIndex::update_from`] alongside the previous epoch's index;
    /// the session's own lazy maintenance
    /// ([`ensure_ann_index`](EmbedderSession::ensure_ann_index)) drains
    /// the same set, so a session should have one index-building
    /// consumer.
    pub fn take_dirty(&mut self) -> Vec<NodeId> {
        std::mem::take(&mut self.dirty).into_iter().collect()
    }

    /// Size of the accumulated dirty set (nodes changed since the last
    /// [`take_dirty`](EmbedderSession::take_dirty) / lazy index build).
    pub fn dirty_len(&self) -> usize {
        self.dirty.len()
    }

    /// The ANN index of the current epoch, when enabled and already
    /// built (a committed step marks it stale until the next
    /// [`nearest_approx`](EmbedderSession::nearest_approx) or
    /// [`ensure_ann_index`](EmbedderSession::ensure_ann_index)
    /// rebuilds it).
    pub fn ann_index(&self) -> Option<&IvfIndex> {
        self.ann.as_ref()?.index.as_ref()
    }

    /// How many times the session has built its ANN index — with lazy
    /// rebuilds this counts *queried* epochs, not flushes.
    pub fn ann_builds(&self) -> u64 {
        self.ann.as_ref().map_or(0, |ann| ann.builds)
    }

    /// The live embedding (as of the last committed step).
    pub fn embedding(&self) -> &Embedding {
        &self.latest
    }

    /// Every committed step's report, in order.
    pub fn reports(&self) -> &[StepReport] {
        &self.reports
    }

    /// Number of committed embedding steps.
    pub fn steps(&self) -> usize {
        self.reports.len()
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

    /// Consume the session, returning the embedder.
    pub fn into_embedder(self) -> E {
        self.embedder
    }
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
    /// have produced. Step reports before the checkpoint are not
    /// persisted — they refill with defaults so `steps()` stays honest.
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
        session.latest = session.embedder.embedding();
        session.reports = vec![StepReport::default(); checkpoint.epoch as usize];
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
        assert!(s.ann_index().is_none(), "no index before the first step");
        assert_eq!(
            s.nearest_approx(NodeId(0), 3, 4),
            Some(Vec::new()),
            "enabled but nothing committed yet"
        );
        s.ingest(&chain(&[0, 0, 0, 0, 0, 0, 0]));
        s.flush().unwrap();
        assert!(
            s.ann_index().is_none(),
            "flush only marks the index stale; the first query builds it"
        );
        // Full probe: nprobe is clamped to the cell count inside search.
        let approx = s.nearest_approx(NodeId(2), 5, usize::MAX).unwrap();
        let index = s.ann_index().expect("index built by the first query");
        assert_eq!(index.len(), s.embedding().len());
        let exact = s.nearest(NodeId(2), 5);
        assert_eq!(approx.len(), exact.len());
        for (a, b) in approx.iter().zip(&exact) {
            assert_eq!(a.0, b.0);
            assert_eq!(a.1.to_bits(), b.1.to_bits());
        }
        // Low nprobe still returns well-formed, self-excluded results.
        let partial = s.nearest_approx(NodeId(2), 5, 1).unwrap();
        assert!(partial.len() <= 5);
        assert!(partial.iter().all(|&(id, _)| id != NodeId(2)));
        // A node without an embedding searches empty, not a panic.
        assert_eq!(s.nearest_approx(NodeId(999), 5, 2), Some(Vec::new()));
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
                let single = s.nearest(n, 4);
                assert_eq!(got.len(), single.len());
                for (a, b) in got.iter().zip(&single) {
                    assert_eq!(a.0, b.0);
                    assert_eq!(a.1.to_bits(), b.1.to_bits());
                }
            }
            // ANN batch ≡ per-query ANN, same epoch, one index build.
            for nprobe in [1usize, usize::MAX] {
                let batch = s.nearest_batch_approx(&nodes, 4, nprobe).unwrap();
                for (&n, got) in nodes.iter().zip(&batch) {
                    let single = s.nearest_approx(n, 4, nprobe).unwrap();
                    assert_eq!(got.len(), single.len(), "quantize={quantize}");
                    for (a, b) in got.iter().zip(&single) {
                        assert_eq!(a.0, b.0);
                        assert_eq!(a.1.to_bits(), b.1.to_bits());
                    }
                }
            }
            assert_eq!(s.ann_builds(), 1, "the whole batch shares one build");
        }
    }

    #[test]
    fn ann_rebuild_is_lazy_and_counted() {
        let cfg = IvfConfig {
            cells: 2,
            ..Default::default()
        };
        let mut s = EmbedderSession::new(tiny_model(), EpochPolicy::Manual)
            .unwrap()
            .with_ann(cfg)
            .unwrap();
        // A query before anything commits doesn't build.
        assert_eq!(s.nearest_approx(NodeId(0), 3, 1), Some(Vec::new()));
        assert_eq!(s.ann_builds(), 0);
        // Three flushes with no queries in between: zero builds.
        for round in 0..3u32 {
            s.ingest(&[TimedEdge::new(NodeId(round), NodeId(round + 1), 0)]);
            s.flush().unwrap();
        }
        assert_eq!(s.ann_builds(), 0, "flushes alone must not build");
        // First query of the epoch builds once; repeats reuse it.
        s.nearest_approx(NodeId(0), 3, 2).unwrap();
        s.nearest_approx(NodeId(1), 3, 2).unwrap();
        assert_eq!(s.ann_builds(), 1, "one build per queried epoch");
        // A new committed step invalidates; the next query rebuilds.
        s.ingest(&[TimedEdge::new(NodeId(0), NodeId(9), 1)]);
        s.flush().unwrap();
        assert!(s.ann_index().is_none());
        s.nearest_approx(NodeId(0), 3, 2).unwrap();
        assert_eq!(s.ann_builds(), 2);
        // A no-op flush (nothing pending) must not invalidate.
        assert!(s.flush().is_none());
        assert!(s.ann_index().is_some(), "no-step flush keeps the index");
        s.nearest_approx(NodeId(0), 3, 2).unwrap();
        assert_eq!(s.ann_builds(), 2);
    }

    #[test]
    fn lazy_index_maintenance_is_incremental_and_matches_full_builds() {
        use glodyne_ann::BuildKind;
        let cfg = IvfConfig {
            cells: 3,
            // Disarm the staleness trigger: tiny test graphs churn a
            // large fraction of their rows per step.
            drift_stale_bp: 10_000,
            ..Default::default()
        };
        let mut s = EmbedderSession::new(tiny_model(), EpochPolicy::Manual)
            .unwrap()
            .with_ann(cfg)
            .unwrap();
        s.ingest(&chain(&[0, 0, 0, 0, 0, 0]));
        let r = s.flush().unwrap();
        assert!(r.dirty_rows > 0, "the offline step dirties every row");
        assert_eq!(r.dirty_rows, s.dirty_len());
        s.nearest_approx(NodeId(0), 3, 2).unwrap();
        let first = s.ann_index().unwrap();
        assert_eq!(first.build_kind(), BuildKind::Full, "cold start is full");
        assert_eq!(s.dirty_len(), 0, "the build drained the dirty set");

        // Next epoch: the lazy rebuild warm-starts from the first.
        s.ingest(&[TimedEdge::new(NodeId(0), NodeId(9), 1)]);
        let r = s.flush().unwrap();
        assert!(r.dirty_rows > 0);
        let approx = s.nearest_approx(NodeId(2), 4, usize::MAX).unwrap();
        let index = s.ann_index().unwrap();
        assert_eq!(index.build_kind(), BuildKind::Incremental);
        assert_eq!(index.len(), s.embedding().len());
        assert!(index.dirty_rows() > 0);
        // Full probe on the patched index ≡ the exact scan.
        let exact = s.nearest(NodeId(2), 4);
        assert_eq!(approx.len(), exact.len());
        for (a, b) in approx.iter().zip(&exact) {
            assert_eq!(a.0, b.0);
            assert_eq!(a.1.to_bits(), b.1.to_bits());
        }
        assert_eq!(s.ann_builds(), 2);
    }

    #[test]
    fn take_dirty_drains_the_diffed_churn() {
        let mut s = EmbedderSession::new(tiny_model(), EpochPolicy::Manual).unwrap();
        assert_eq!(s.take_dirty(), Vec::<NodeId>::new());
        s.ingest(&chain(&[0, 0, 0, 0]));
        let r = s.flush().unwrap();
        let dirty = s.take_dirty();
        assert_eq!(dirty.len(), r.dirty_rows);
        assert_eq!(
            dirty.len(),
            s.embedding().len(),
            "offline step touches every row"
        );
        assert!(dirty.windows(2).all(|w| w[0] < w[1]), "sorted drain order");
        assert_eq!(s.dirty_len(), 0);
        // Dirty accumulates across un-drained commits.
        s.ingest(&[TimedEdge::new(NodeId(0), NodeId(9), 1)]);
        s.flush().unwrap();
        s.ingest(&[TimedEdge::new(NodeId(1), NodeId(8), 2)]);
        s.flush().unwrap();
        let dirty = s.take_dirty();
        assert!(!dirty.is_empty());
        assert!(dirty.len() <= s.embedding().len());
    }

    #[test]
    fn ann_disabled_and_invalid_configs() {
        let mut s = EmbedderSession::new(tiny_model(), EpochPolicy::Manual).unwrap();
        assert_eq!(s.nearest_approx(NodeId(0), 3, 1), None, "ann not enabled");
        assert!(s.ann_index().is_none());
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
