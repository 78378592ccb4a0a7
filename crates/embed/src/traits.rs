//! The common interface every dynamic-network-embedding method
//! implements, mirroring Definition 4:
//! `Z^t = f^t(G^t, G^{t-1}, f^{t-1}, Z^{t-1})`.
//!
//! The interface is *step-shaped*: the driver hands the method a
//! [`StepContext`] (current snapshot, previous snapshot if any, and the
//! lazily computed [`SnapshotDiff`] between them) and receives a structured
//! [`StepReport`] back — phase timings, how many nodes were selected,
//! how many SGNS pairs were trained, how large the walk corpus was.
//! Every method reports through the same struct, so harnesses and the
//! streaming session layer read telemetry uniformly instead of through
//! per-method `last_*()` getters.
//!
//! Batch drivers ([`run_over`], [`run_over_reports`], [`step_with`])
//! adapt a plain snapshot sequence to the step interface — exactly the
//! paper's evaluation protocol ("we first take out the node embeddings
//! obtained by each method ... and then feed them to exactly the same
//! downstream tasks", §5.2).

use crate::embedding::Embedding;
use glodyne_graph::{Snapshot, SnapshotDiff};
use std::cell::OnceCell;
use std::time::Duration;

/// Wall-clock breakdown of one embedding step, matching the §5.2.4
/// scale test's reporting (partition+selection / walks / training).
///
/// Methods without a walk stage fold their whole step into `train`.
#[derive(Debug, Clone, Copy, Default)]
pub struct PhaseTimes {
    /// Steps 1–2: partition and node selection.
    pub select: Duration,
    /// Step 3: random walks.
    pub walks: Duration,
    /// Step 4: model training.
    pub train: Duration,
}

impl PhaseTimes {
    /// Total step time.
    pub fn total(&self) -> Duration {
        self.select + self.walks + self.train
    }
}

/// Everything a method may consume for one step of the incremental
/// protocol (the arguments of Definition 4).
///
/// `prev` is `None` at `t = 0` — the offline stage of Algorithm 1.
/// [`StepContext::diff`] yields the edge-stream difference `ΔE^t`
/// between `prev` and `curr`, computed lazily on first access, so
/// methods that never read it (most baselines) pay nothing.
#[derive(Debug)]
pub struct StepContext<'a> {
    /// `G^{t-1}`, absent at the offline step.
    pub prev: Option<&'a Snapshot>,
    /// `G^t`.
    pub curr: &'a Snapshot,
    /// The diff, computed on first access.
    lazy: OnceCell<SnapshotDiff>,
}

impl<'a> StepContext<'a> {
    /// The offline step context (`t = 0`): no previous snapshot.
    pub fn initial(curr: &'a Snapshot) -> Self {
        StepContext {
            prev: None,
            curr,
            lazy: OnceCell::new(),
        }
    }

    /// An online step context that computes the diff only if the method
    /// asks for it.
    pub fn transition_lazy(prev: &'a Snapshot, curr: &'a Snapshot) -> Self {
        StepContext {
            prev: Some(prev),
            curr,
            lazy: OnceCell::new(),
        }
    }

    /// `ΔE^t` between `prev` and `curr`; `None` at the offline step.
    /// Computed at most once per context.
    pub fn diff(&self) -> Option<&SnapshotDiff> {
        let prev = self.prev?;
        Some(
            self.lazy
                .get_or_init(|| SnapshotDiff::compute(prev, self.curr)),
        )
    }
}

/// Structured result of one embedding step, shared by all methods.
#[derive(Debug, Clone, Copy, Default)]
pub struct StepReport {
    /// Wall-clock phase breakdown.
    pub phases: PhaseTimes,
    /// Nodes whose vectors this step updated (`|V^t_sel|`; for
    /// full-graph methods this is `|V^t|`).
    pub selected: usize,
    /// Positive training pairs/samples consumed — the numerator of the
    /// pairs/sec throughput the scale test reports. 0 for methods
    /// without a pair-sampling objective.
    pub trained_pairs: usize,
    /// Total tokens in the walk corpus trained on this step. 0 for
    /// walk-free methods.
    pub corpus_tokens: usize,
}

impl StepReport {
    /// Total wall-clock time of the step.
    pub fn total_time(&self) -> Duration {
        self.phases.total()
    }
}

/// A dynamic network embedding method under the incremental protocol.
///
/// The driver (batch harness or streaming session) calls
/// [`DynamicEmbedder::step`] once per snapshot boundary; after each call
/// the method's latest embeddings are read with
/// [`DynamicEmbedder::embedding`] and fed to downstream consumers.
pub trait DynamicEmbedder {
    /// Consume the next snapshot boundary and report what was done.
    fn step(&mut self, ctx: StepContext<'_>) -> StepReport;

    /// The current embeddings `Z^t`.
    fn embedding(&self) -> Embedding;

    /// Human-readable method name (table row label).
    fn name(&self) -> &'static str;
}

/// A [`DynamicEmbedder`] whose hidden state can round-trip through a
/// byte checkpoint — the contract the durability layer snapshots
/// against.
///
/// The pinned property is *bit-exact resumption*: restore a method
/// from `(export_state(), embedding())` and drive both the original
/// and the restored instance through the same subsequent steps (with
/// deterministic training configured) — every later `embedding()` must
/// agree bit for bit.
///
/// The embedding rows themselves travel separately (via the persist
/// layer's binary format, which snapshots already write); the exported
/// state carries only what the embedding cannot reconstruct — RNG
/// stream positions, auxiliary matrices, method-internal counters.
pub trait CheckpointEmbedder: DynamicEmbedder {
    /// Serialise the method's hidden state. The format is private to
    /// the method; only [`CheckpointEmbedder::import_state`] reads it.
    fn export_state(&self) -> Vec<u8>;

    /// Restore hidden state exported by the same method, paired with
    /// the embedding that was persisted alongside it. Fails on
    /// malformed or mismatching bytes (wrong method, wrong config
    /// shape) — never panics on corrupt input.
    fn import_state(&mut self, bytes: &[u8], embedding: &Embedding) -> Result<(), String>;
}

/// Run one step over a `(prev, curr)` snapshot pair — the batch adapter
/// from the old `advance(prev, curr)` call shape to [`StepContext`].
/// The diff is provided lazily: only methods that read it pay for it.
pub fn step_with<E: DynamicEmbedder + ?Sized>(
    embedder: &mut E,
    prev: Option<&Snapshot>,
    curr: &Snapshot,
) -> StepReport {
    match prev {
        None => embedder.step(StepContext::initial(curr)),
        Some(p) => embedder.step(StepContext::transition_lazy(p, curr)),
    }
}

/// Drive an embedder across an entire snapshot sequence, returning the
/// embedding after each step.
pub fn run_over<E: DynamicEmbedder + ?Sized>(
    embedder: &mut E,
    snapshots: &[Snapshot],
) -> Vec<Embedding> {
    run_over_reports(embedder, snapshots)
        .into_iter()
        .map(|(emb, _)| emb)
        .collect()
}

/// Like [`run_over`], but also return every step's [`StepReport`].
pub fn run_over_reports<E: DynamicEmbedder + ?Sized>(
    embedder: &mut E,
    snapshots: &[Snapshot],
) -> Vec<(Embedding, StepReport)> {
    let mut out = Vec::with_capacity(snapshots.len());
    let mut prev: Option<&Snapshot> = None;
    for snap in snapshots {
        let report = step_with(embedder, prev, snap);
        out.push((embedder.embedding(), report));
        prev = Some(snap);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use glodyne_graph::id::{Edge, NodeId};

    /// A trivial embedder: every node's vector is its degree.
    struct DegreeEmbedder {
        emb: Embedding,
    }

    impl DynamicEmbedder for DegreeEmbedder {
        fn step(&mut self, ctx: StepContext<'_>) -> StepReport {
            for l in 0..ctx.curr.num_nodes() {
                self.emb
                    .set(ctx.curr.node_id(l), &[ctx.curr.degree(l) as f32]);
            }
            StepReport {
                selected: ctx.curr.num_nodes(),
                ..StepReport::default()
            }
        }
        fn embedding(&self) -> Embedding {
            self.emb.clone()
        }
        fn name(&self) -> &'static str {
            "degree"
        }
    }

    #[test]
    fn run_over_visits_all_snapshots() {
        let s0 = Snapshot::from_edges(&[Edge::new(NodeId(0), NodeId(1))], &[]);
        let s1 = Snapshot::from_edges(
            &[
                Edge::new(NodeId(0), NodeId(1)),
                Edge::new(NodeId(1), NodeId(2)),
            ],
            &[],
        );
        let mut e = DegreeEmbedder {
            emb: Embedding::new(1),
        };
        let embs = run_over(&mut e, &[s0, s1]);
        assert_eq!(embs.len(), 2);
        assert_eq!(embs[0].get(NodeId(1)), Some(&[1.0f32][..]));
        assert_eq!(embs[1].get(NodeId(1)), Some(&[2.0f32][..]));
    }

    #[test]
    fn reports_and_diff_are_provided() {
        struct DiffChecker {
            saw_initial: bool,
            saw_diff_edges: usize,
        }
        impl DynamicEmbedder for DiffChecker {
            fn step(&mut self, ctx: StepContext<'_>) -> StepReport {
                if ctx.prev.is_none() {
                    self.saw_initial = true;
                    assert!(ctx.diff().is_none());
                } else {
                    self.saw_diff_edges = ctx.diff().expect("online diff").num_changed_edges();
                }
                StepReport::default()
            }
            fn embedding(&self) -> Embedding {
                Embedding::new(0)
            }
            fn name(&self) -> &'static str {
                "diff-checker"
            }
        }
        let s0 = Snapshot::from_edges(&[Edge::new(NodeId(0), NodeId(1))], &[]);
        let s1 = Snapshot::from_edges(
            &[
                Edge::new(NodeId(0), NodeId(1)),
                Edge::new(NodeId(1), NodeId(2)),
            ],
            &[],
        );
        let mut c = DiffChecker {
            saw_initial: false,
            saw_diff_edges: 0,
        };
        let reports = run_over_reports(&mut c, &[s0, s1]);
        assert_eq!(reports.len(), 2);
        assert!(c.saw_initial);
        assert_eq!(c.saw_diff_edges, 1, "one edge added between snapshots");
    }

    #[test]
    fn lazy_diff_computes_once_and_precomputed_wins() {
        let s0 = Snapshot::from_edges(&[Edge::new(NodeId(0), NodeId(1))], &[]);
        let s1 = Snapshot::from_edges(
            &[
                Edge::new(NodeId(0), NodeId(1)),
                Edge::new(NodeId(1), NodeId(2)),
            ],
            &[],
        );
        let lazy = StepContext::transition_lazy(&s0, &s1);
        let a = lazy.diff().unwrap() as *const SnapshotDiff;
        let b = lazy.diff().unwrap() as *const SnapshotDiff;
        assert_eq!(a, b, "computed once, then cached");

        assert!(StepContext::initial(&s1).diff().is_none());
    }

    #[test]
    fn phase_times_total_sums() {
        let p = PhaseTimes {
            select: Duration::from_millis(1),
            walks: Duration::from_millis(2),
            train: Duration::from_millis(3),
        };
        assert_eq!(p.total(), Duration::from_millis(6));
        assert_eq!(
            StepReport {
                phases: p,
                ..Default::default()
            }
            .total_time(),
            Duration::from_millis(6)
        );
    }
}
