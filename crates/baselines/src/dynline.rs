//! DynLINE (Du et al., IJCAI 2018) — the paper's \[14\].
//!
//! Extends LINE (Tang et al., 2015) to dynamic networks: embeddings are
//! trained with the second-order LINE objective (edge sampling with
//! negative sampling over vertex/context vectors), and at each new
//! snapshot only "the most affected nodes and new nodes" are updated.
//!
//! Objective per sampled edge `(i, j)`:
//! `log σ(u_i · c_j) + Σ_q E_{n~P} log σ(−u_i · c_n)`.
//!
//! Simplifications: uniform (not degree-weighted) edge sampling within
//! the affected set and a plain unigram negative table; both preserve
//! LINE's first/second-order behaviour at our scales.
//!
//! **Cannot handle node deletions** (vectors of deleted nodes linger and
//! there is no mechanism to rebalance) — the reason this method is n/a
//! on AS733 in the paper. The harness enforces that via
//! [`crate::supports_node_deletions`].

use glodyne_embed::config::ConfigError;
use glodyne_embed::traits::{DynamicEmbedder, PhaseTimes, StepContext, StepReport};
use glodyne_embed::Embedding;
use glodyne_graph::{NodeId, Snapshot};
use rand::Rng;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use std::collections::HashMap;
use std::time::Instant;

/// DynLINE hyper-parameters.
#[derive(Debug, Clone)]
pub struct DynLineConfig {
    /// Embedding dimensionality.
    pub dim: usize,
    /// Negative samples per edge.
    pub negatives: usize,
    /// Edge samples per node of the (affected) training set per step.
    pub samples_per_node: usize,
    /// SGD learning rate.
    pub learning_rate: f32,
    /// RNG seed.
    pub seed: u64,
}

impl Default for DynLineConfig {
    fn default() -> Self {
        DynLineConfig {
            dim: 128,
            negatives: 5,
            samples_per_node: 60,
            learning_rate: 0.025,
            seed: 0,
        }
    }
}

/// The DynLINE embedder.
pub struct DynLine {
    cfg: DynLineConfig,
    vertex: HashMap<NodeId, Vec<f32>>,
    context: HashMap<NodeId, Vec<f32>>,
    rng: ChaCha8Rng,
    latest: Vec<NodeId>,
}

impl DynLineConfig {
    /// Validate the hyper-parameters.
    pub fn validate(&self) -> Result<(), ConfigError> {
        if self.dim < 1 {
            return Err(ConfigError::new("dim", "must be >= 1"));
        }
        if self.negatives < 1 {
            return Err(ConfigError::new("negatives", "must be >= 1"));
        }
        if self.samples_per_node < 1 {
            return Err(ConfigError::new("samples_per_node", "must be >= 1"));
        }
        if !(self.learning_rate.is_finite() && self.learning_rate > 0.0) {
            return Err(ConfigError::new(
                "learning_rate",
                format!(
                    "must be a positive finite number, got {}",
                    self.learning_rate
                ),
            ));
        }
        Ok(())
    }
}

impl DynLine {
    /// Build with a validated configuration.
    pub fn new(cfg: DynLineConfig) -> Result<Self, ConfigError> {
        cfg.validate()?;
        let rng = ChaCha8Rng::seed_from_u64(cfg.seed ^ 0x11E);
        Ok(DynLine {
            cfg,
            vertex: HashMap::new(),
            context: HashMap::new(),
            rng,
            latest: Vec::new(),
        })
    }

    fn ensure(&mut self, id: NodeId) {
        let d = self.cfg.dim;
        let rng = &mut self.rng;
        self.vertex.entry(id).or_insert_with(|| {
            (0..d)
                .map(|_| rng.gen_range(-0.5 / d as f32..0.5 / d as f32))
                .collect()
        });
        self.context.entry(id).or_insert_with(|| vec![0.0; d]);
    }

    /// One SGD update on edge (i, j) with `q` negatives drawn from `pool`.
    fn update_edge(&mut self, i: NodeId, j: NodeId, pool: &[NodeId]) {
        let d = self.cfg.dim;
        let lr = self.cfg.learning_rate;
        let mut grad_i = vec![0.0f32; d];
        for q in 0..=self.cfg.negatives {
            let (target, label) = if q == 0 {
                (j, 1.0f32)
            } else {
                let n = pool[self.rng.gen_range(0..pool.len())];
                if n == j || n == i {
                    continue;
                }
                (n, 0.0)
            };
            let vi = self.vertex.get(&i).unwrap();
            let ct = self.context.get(&target).unwrap();
            let dot: f32 = vi.iter().zip(ct).map(|(a, b)| a * b).sum();
            let g = (label - sigmoid(dot)) * lr;
            for k in 0..d {
                grad_i[k] += g * ct[k];
            }
            let vi_copy: Vec<f32> = vi.clone();
            let ct = self.context.get_mut(&target).unwrap();
            for k in 0..d {
                ct[k] += g * vi_copy[k];
            }
        }
        let vi = self.vertex.get_mut(&i).unwrap();
        for k in 0..d {
            vi[k] += grad_i[k];
        }
    }

    fn train_nodes(&mut self, g: &Snapshot, train_set: &[u32]) {
        let pool: Vec<NodeId> = g.node_ids().to_vec();
        if pool.len() < 2 {
            return;
        }
        for &l in train_set {
            let id = g.node_id(l as usize);
            let neighbors = g.neighbors(l as usize);
            if neighbors.is_empty() {
                continue;
            }
            for _ in 0..self.cfg.samples_per_node {
                let j = neighbors[self.rng.gen_range(0..neighbors.len())];
                let jid = g.node_id(j as usize);
                self.update_edge(id, jid, &pool);
            }
        }
    }
}

impl DynamicEmbedder for DynLine {
    fn step(&mut self, ctx: StepContext<'_>) -> StepReport {
        let start = Instant::now();
        let curr = ctx.curr;
        for l in 0..curr.num_nodes() {
            self.ensure(curr.node_id(l));
        }
        let train_set: Vec<u32> = match ctx.prev {
            // Offline: all nodes.
            None => (0..curr.num_nodes() as u32).collect(),
            // Online: only the most affected + new nodes, read from the
            // step context's diff.
            Some(p) => {
                let diff = ctx.diff().expect("online step always has a diff");
                (0..curr.num_nodes() as u32)
                    .filter(|&l| {
                        let id = curr.node_id(l as usize);
                        diff.node_change(id) > 0 || p.local_of(id).is_none()
                    })
                    .collect()
            }
        };
        self.train_nodes(curr, &train_set);
        self.latest = curr.node_ids().to_vec();
        StepReport {
            phases: PhaseTimes {
                train: start.elapsed(),
                ..PhaseTimes::default()
            },
            selected: train_set.len(),
            trained_pairs: train_set.len() * self.cfg.samples_per_node,
            corpus_tokens: 0,
        }
    }

    fn embedding(&self) -> Embedding {
        let mut e = Embedding::new(self.cfg.dim);
        for &id in &self.latest {
            if let Some(v) = self.vertex.get(&id) {
                e.set(id, v);
            }
        }
        e
    }

    fn name(&self) -> &'static str {
        "DynLINE"
    }
}

#[inline]
fn sigmoid(x: f32) -> f32 {
    if x >= 0.0 {
        1.0 / (1.0 + (-x).exp())
    } else {
        let e = x.exp();
        e / (1.0 + e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use glodyne_embed::traits::step_with;
    use glodyne_graph::id::Edge;

    fn cfg() -> DynLineConfig {
        DynLineConfig {
            dim: 12,
            samples_per_node: 120,
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
        assert!(DynLine::new(DynLineConfig {
            dim: 0,
            ..Default::default()
        })
        .is_err());
    }

    #[test]
    fn separates_communities() {
        let g = two_cliques();
        let mut m = DynLine::new(cfg()).unwrap();
        step_with(&mut m, None, &g);
        let e = m.embedding();
        let intra = e.cosine(NodeId(1), NodeId(2)).unwrap();
        let inter = e.cosine(NodeId(1), NodeId(8)).unwrap();
        assert!(intra > inter, "intra {intra} <= inter {inter}");
    }

    #[test]
    fn online_step_only_moves_affected_nodes() {
        let g0 = two_cliques();
        let mut edges: Vec<Edge> = g0.edges().collect();
        edges.push(Edge::new(NodeId(3), NodeId(9)));
        let g1 = Snapshot::from_edges(&edges, &[]);
        let mut m = DynLine::new(cfg()).unwrap();
        let offline = step_with(&mut m, None, &g0);
        assert_eq!(offline.selected, g0.num_nodes());
        let before = m.embedding();
        let online = step_with(&mut m, Some(&g0), &g1);
        assert!(
            online.selected < g1.num_nodes(),
            "online step trains only affected nodes"
        );
        let after = m.embedding();
        // Node 5 was unaffected: its vertex vector can only have moved via
        // context updates — the vertex vector itself is untouched.
        assert_eq!(before.get(NodeId(5)), after.get(NodeId(5)));
        // Affected node 3 moved.
        assert_ne!(before.get(NodeId(3)), after.get(NodeId(3)));
    }

    #[test]
    fn new_nodes_are_embedded() {
        let g0 = two_cliques();
        let mut edges: Vec<Edge> = g0.edges().collect();
        edges.push(Edge::new(NodeId(0), NodeId(42)));
        let g1 = Snapshot::from_edges(&edges, &[]);
        let mut m = DynLine::new(cfg()).unwrap();
        step_with(&mut m, None, &g0);
        step_with(&mut m, Some(&g0), &g1);
        assert!(m.embedding().get(NodeId(42)).is_some());
    }
}
