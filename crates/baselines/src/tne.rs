//! tNE / tNodeEmbed (Singer et al., IJCAI 2019) — the paper's \[18\].
//!
//! "tNE runs a static network embedding method to get node embeddings
//! for each snapshot, and then exploits the temporal dependence among
//! all available static node embeddings using Recurrent Neural
//! Networks." We adopt the paper's setup of "the link prediction
//! architecture of tNE" — the RNN is trained with a link-prediction
//! signal over the current snapshot's edges.
//!
//! Pipeline per time step `t`:
//! 1. run static SGNS on `G^t` (warm-started between steps, which
//!    doubles as tNodeEmbed's orthogonal-Procrustes alignment of
//!    consecutive static embeddings — both remove arbitrary rotation
//!    between steps);
//! 2. for every node, build the sequence of its static embeddings over
//!    `0..=t` (zeros before the node existed);
//! 3. train a shared vanilla RNN to map each node's sequence to a final
//!    embedding, with the loss `−log σ(y_i·y_j) − Σ log σ(−y_i·y_n)`
//!    over edges of `G^t` (the partner vector is treated as constant
//!    per update — a one-sided gradient, standard for siamese-style
//!    training loops);
//! 4. `Z^t` = RNN outputs.
//!
//! Cost grows with history length — tNE is among the slowest methods in
//! Table 4, which this reproduction reproduces naturally.
//!
//! **Cannot handle node deletions** (sequence bookkeeping assumes a
//! grow-only vocabulary) — n/a on AS733, as in the paper.

use glodyne_embed::config::ConfigError;
use glodyne_embed::traits::{DynamicEmbedder, PhaseTimes, StepContext, StepReport};
use glodyne_embed::walks::{generate_corpus_all, WalkConfig};
use glodyne_embed::{Embedding, SgnsConfig, SgnsModel};
use glodyne_graph::NodeId;
use glodyne_linalg::rnn::Rnn;
use rand::Rng;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use std::time::Instant;

/// tNE hyper-parameters.
#[derive(Debug, Clone)]
pub struct TneConfig {
    /// Static (per-snapshot) embedding dimensionality.
    pub static_dim: usize,
    /// RNN hidden width.
    pub hidden: usize,
    /// Output embedding dimensionality.
    pub dim: usize,
    /// Walk parameters for the static stage.
    pub walk: WalkConfig,
    /// SGNS parameters for the static stage.
    pub sgns: SgnsConfig,
    /// Edge samples for RNN training per step.
    pub rnn_samples: usize,
    /// Negative samples per positive in RNN training.
    pub negatives: usize,
    /// RNN learning rate.
    pub rnn_lr: f64,
    /// RNG seed.
    pub seed: u64,
}

impl Default for TneConfig {
    fn default() -> Self {
        TneConfig {
            static_dim: 128,
            hidden: 128,
            dim: 128,
            walk: WalkConfig::default(),
            sgns: SgnsConfig::default(),
            rnn_samples: 400,
            negatives: 2,
            rnn_lr: 0.02,
            seed: 0,
        }
    }
}

/// The tNE embedder.
pub struct TNE {
    cfg: TneConfig,
    static_model: SgnsModel,
    /// Static embedding per past time step.
    history: Vec<Embedding>,
    rnn: Rnn,
    rng: ChaCha8Rng,
    latest: Vec<NodeId>,
}

impl TneConfig {
    /// Validate the hyper-parameters, including the nested walk and
    /// SGNS configurations of the static stage.
    pub fn validate(&self) -> Result<(), ConfigError> {
        if self.static_dim < 1 {
            return Err(ConfigError::new("static_dim", "must be >= 1"));
        }
        if self.hidden < 1 {
            return Err(ConfigError::new("hidden", "must be >= 1"));
        }
        if self.dim < 1 {
            return Err(ConfigError::new("dim", "must be >= 1"));
        }
        if !(self.rnn_lr.is_finite() && self.rnn_lr > 0.0) {
            return Err(ConfigError::new(
                "rnn_lr",
                format!("must be a positive finite number, got {}", self.rnn_lr),
            ));
        }
        self.walk.validate()?;
        self.sgns.validate()?;
        Ok(())
    }
}

impl TNE {
    /// Build with a validated configuration.
    pub fn new(cfg: TneConfig) -> Result<Self, ConfigError> {
        cfg.validate()?;
        let mut rng = ChaCha8Rng::seed_from_u64(cfg.seed ^ 0x73E);
        let mut sgns = cfg.sgns.clone();
        sgns.dim = cfg.static_dim;
        let static_model = SgnsModel::new(sgns);
        let rnn = Rnn::new(cfg.static_dim, cfg.hidden, cfg.dim, &mut rng);
        Ok(TNE {
            cfg,
            static_model,
            history: Vec::new(),
            rnn,
            rng,
            latest: Vec::new(),
        })
    }

    /// A node's sequence of static embeddings over all steps so far.
    fn sequence_of(&self, id: NodeId) -> Vec<Vec<f64>> {
        self.history
            .iter()
            .map(|e| match e.get(id) {
                Some(v) => v.iter().map(|&x| x as f64).collect(),
                None => vec![0.0; self.cfg.static_dim],
            })
            .collect()
    }

    fn rnn_output(&self, id: NodeId) -> Vec<f32> {
        self.rnn
            .forward(&self.sequence_of(id))
            .into_iter()
            .map(|x| x as f32)
            .collect()
    }
}

impl DynamicEmbedder for TNE {
    fn step(&mut self, ctx: StepContext<'_>) -> StepReport {
        let curr = ctx.curr;
        // Stage 1: static embedding of the current snapshot.
        let walk_cfg = WalkConfig {
            seed: self.cfg.walk.seed ^ ((self.history.len() as u64) << 8),
            ..self.cfg.walk
        };
        let t0 = Instant::now();
        let corpus = generate_corpus_all(curr, &walk_cfg);
        let t1 = Instant::now();
        let pairs = self.static_model.train_corpus(&corpus);
        self.history.push(self.static_model.embedding());

        // Stage 2: RNN over embedding histories with link-prediction loss.
        let edges: Vec<(NodeId, NodeId)> = curr.edges().map(|e| (e.u, e.v)).collect();
        let ids: Vec<NodeId> = curr.node_ids().to_vec();
        if !edges.is_empty() && ids.len() >= 2 {
            for _ in 0..self.cfg.rnn_samples {
                let &(i, j) = &edges[self.rng.gen_range(0..edges.len())];
                // positive: pull y_i toward y_j (partner held constant)
                let target = self
                    .rnn_output(j)
                    .iter()
                    .map(|&x| x as f64)
                    .collect::<Vec<_>>();
                let seq = self.sequence_of(i);
                self.rnn.train_step(&seq, &target, self.cfg.rnn_lr);
                // negatives: push y_i away from random nodes by moving it
                // toward the negated partner output
                for _ in 0..self.cfg.negatives {
                    let n = ids[self.rng.gen_range(0..ids.len())];
                    if n == i || n == j || curr.has_edge_ids(i, n) {
                        continue;
                    }
                    let anti: Vec<f64> = self
                        .rnn_output(n)
                        .iter()
                        .map(|&x| -(x as f64) * 0.3)
                        .collect();
                    self.rnn.train_step(&seq, &anti, self.cfg.rnn_lr * 0.3);
                }
            }
        }
        let selected = ids.len();
        self.latest = ids;
        StepReport {
            phases: PhaseTimes {
                select: std::time::Duration::ZERO,
                walks: t1 - t0,
                train: t1.elapsed(),
            },
            selected,
            trained_pairs: pairs,
            corpus_tokens: corpus.num_tokens(),
        }
    }

    fn embedding(&self) -> Embedding {
        let mut e = Embedding::new(self.cfg.dim);
        for &id in &self.latest {
            e.set(id, &self.rnn_output(id));
        }
        e
    }

    fn name(&self) -> &'static str {
        "tNE"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use glodyne_embed::traits::{run_over, step_with};
    use glodyne_graph::id::Edge;
    use glodyne_graph::Snapshot;

    fn cfg() -> TneConfig {
        TneConfig {
            static_dim: 12,
            hidden: 12,
            dim: 8,
            walk: WalkConfig {
                walks_per_node: 3,
                walk_length: 10,
                seed: 2,
            },
            sgns: SgnsConfig {
                dim: 12,
                window: 3,
                negatives: 3,
                epochs: 3,
                parallel: false,
                ..Default::default()
            },
            rnn_samples: 150,
            ..Default::default()
        }
    }

    fn two_cliques() -> Snapshot {
        let mut edges = Vec::new();
        for c in 0..2u32 {
            let base = c * 6;
            for i in 0..6 {
                for j in (i + 1)..6 {
                    edges.push(Edge::new(NodeId(base + i), NodeId(base + j)));
                }
            }
        }
        edges.push(Edge::new(NodeId(0), NodeId(6)));
        Snapshot::from_edges(&edges, &[])
    }

    #[test]
    fn invalid_config_rejected() {
        assert!(TNE::new(TneConfig {
            hidden: 0,
            ..Default::default()
        })
        .is_err());
    }

    #[test]
    fn produces_embeddings_for_all_nodes() {
        let g = two_cliques();
        let mut m = TNE::new(cfg()).unwrap();
        let report = step_with(&mut m, None, &g);
        assert_eq!(report.selected, 12);
        assert!(report.corpus_tokens > 0);
        assert_eq!(m.embedding().len(), 12);
        assert_eq!(m.embedding().dim(), 8);
    }

    #[test]
    fn history_grows_each_step() {
        let g = two_cliques();
        let mut m = TNE::new(cfg()).unwrap();
        let _ = run_over(&mut m, &[g.clone(), g.clone(), g]);
        assert_eq!(m.history.len(), 3);
    }

    #[test]
    fn linked_nodes_closer_than_strangers() {
        let g = two_cliques();
        let mut m = TNE::new(cfg()).unwrap();
        step_with(&mut m, None, &g);
        step_with(&mut m, Some(&g), &g);
        let e = m.embedding();
        let intra = e.cosine(NodeId(1), NodeId(2)).unwrap();
        let inter = e.cosine(NodeId(1), NodeId(8)).unwrap();
        assert!(intra > inter, "intra {intra} <= inter {inter}");
    }

    #[test]
    fn new_node_gets_zero_padded_history() {
        let g0 = two_cliques();
        let mut edges: Vec<Edge> = g0.edges().collect();
        edges.push(Edge::new(NodeId(0), NodeId(30)));
        let g1 = Snapshot::from_edges(&edges, &[]);
        let mut m = TNE::new(cfg()).unwrap();
        step_with(&mut m, None, &g0);
        step_with(&mut m, Some(&g0), &g1);
        let seq = m.sequence_of(NodeId(30));
        assert_eq!(seq.len(), 2);
        assert!(seq[0].iter().all(|&x| x == 0.0), "pre-birth steps are zero");
        assert!(m.embedding().get(NodeId(30)).is_some());
    }
}
