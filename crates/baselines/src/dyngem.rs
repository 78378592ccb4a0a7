//! DynGEM (Goyal et al., 2017) — the paper's \[11\].
//!
//! "DynGEM continuously trains the adaptive auto-encoder model based on
//! the existing edges in a current snapshot", initialising each step's
//! model from the previous one. The original is an SDNE-style deep
//! auto-encoder with first/second-order losses and a net-widening
//! heuristic (PropSize).
//!
//! Simplifications here: a fixed-capacity input layer (node slots are
//! assigned once and reused, standing in for PropSize), a single hidden
//! layer on each side, and the second-order loss only (reconstruct the
//! β-reweighted adjacency row); β-reweighting of non-zero entries is
//! kept since it is what makes sparse rows learnable. These preserve the
//! behaviours the paper measures: warm-started convergence and
//! embeddings that reconstruct local neighbourhoods.

use glodyne_embed::config::ConfigError;
use glodyne_embed::traits::{DynamicEmbedder, PhaseTimes, StepContext, StepReport};
use glodyne_embed::Embedding;
use glodyne_graph::{NodeId, Snapshot};
use glodyne_linalg::mlp::Mlp;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use std::collections::HashMap;
use std::time::Instant;

/// DynGEM hyper-parameters.
#[derive(Debug, Clone)]
pub struct DynGemConfig {
    /// Embedding dimensionality `d` (encoder output width).
    pub dim: usize,
    /// Hidden layer width.
    pub hidden: usize,
    /// Maximum number of node slots (input width). Nodes beyond
    /// capacity are rejected with a panic — mirrors the original's
    /// GPU-memory failure mode on large graphs (n/a cells of Table 1).
    pub capacity: usize,
    /// Weight β applied to reconstructing *observed* edges (>1
    /// penalises missing a real neighbour more than inventing one).
    pub beta: f64,
    /// Training epochs per snapshot.
    pub epochs: usize,
    /// SGD learning rate.
    pub learning_rate: f64,
    /// RNG seed.
    pub seed: u64,
}

impl Default for DynGemConfig {
    fn default() -> Self {
        DynGemConfig {
            dim: 128,
            hidden: 256,
            capacity: 2048,
            beta: 8.0,
            epochs: 6,
            learning_rate: 0.1,
            seed: 0,
        }
    }
}

impl DynGemConfig {
    /// Validate the hyper-parameters.
    pub fn validate(&self) -> Result<(), ConfigError> {
        if self.dim < 1 {
            return Err(ConfigError::new("dim", "must be >= 1"));
        }
        if self.hidden < 1 {
            return Err(ConfigError::new("hidden", "must be >= 1"));
        }
        if self.capacity < 1 {
            return Err(ConfigError::new("capacity", "must be >= 1"));
        }
        if self.epochs < 1 {
            return Err(ConfigError::new("epochs", "must be >= 1"));
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
        if !(self.beta.is_finite() && self.beta > 0.0) {
            return Err(ConfigError::new(
                "beta",
                format!("must be a positive finite number, got {}", self.beta),
            ));
        }
        Ok(())
    }
}

/// The DynGEM embedder.
pub struct DynGem {
    cfg: DynGemConfig,
    /// Persistent node → input-slot assignment.
    slots: HashMap<NodeId, usize>,
    net: Mlp,
    rng: ChaCha8Rng,
    /// Nodes of the latest snapshot (embedding is emitted for these).
    latest: Vec<NodeId>,
    /// Latest snapshot's neighbour slots per node (for encoding after
    /// training without holding the snapshot itself).
    neighbor_cache: HashMap<NodeId, Vec<usize>>,
}

impl DynGem {
    /// Build with a validated configuration.
    pub fn new(cfg: DynGemConfig) -> Result<Self, ConfigError> {
        cfg.validate()?;
        let mut rng = ChaCha8Rng::seed_from_u64(cfg.seed ^ 0xD9E6);
        let net = Mlp::new(
            &[cfg.capacity, cfg.hidden, cfg.dim, cfg.hidden, cfg.capacity],
            &mut rng,
        );
        Ok(DynGem {
            cfg,
            slots: HashMap::new(),
            net,
            rng,
            latest: Vec::new(),
            neighbor_cache: HashMap::new(),
        })
    }

    fn slot_of(&mut self, id: NodeId) -> usize {
        let next = self.slots.len();
        let cap = self.cfg.capacity;
        *self.slots.entry(id).or_insert_with(|| {
            assert!(
                next < cap,
                "DynGEM capacity exhausted ({cap} slots) — the original runs out of GPU memory here"
            );
            next
        })
    }

    /// β-weighted adjacency row of a node in slot space.
    fn adjacency_row(&mut self, g: &Snapshot, local: usize) -> (Vec<f64>, Vec<f64>) {
        let mut row = vec![0.0; self.cfg.capacity];
        let mut weight = vec![1.0; self.cfg.capacity];
        let neighbor_slots: Vec<usize> = g
            .neighbors(local)
            .iter()
            .map(|&u| self.slot_of(g.node_id(u as usize)))
            .collect();
        for s in neighbor_slots {
            row[s] = 1.0;
            weight[s] = self.cfg.beta;
        }
        (row, weight)
    }

    fn encode(&self, row: &[f64]) -> Vec<f32> {
        // Encoder = first two layers.
        let h1 = self.net.layers[0].forward(row);
        let code = self.net.layers[1].forward(&h1);
        code.iter().map(|&x| x as f32).collect()
    }
}

impl DynamicEmbedder for DynGem {
    fn step(&mut self, ctx: StepContext<'_>) -> StepReport {
        let start = Instant::now();
        let curr = ctx.curr;
        // Assign slots up front (stable ordering) and cache neighbours.
        self.neighbor_cache.clear();
        for l in 0..curr.num_nodes() {
            let id = curr.node_id(l);
            self.slot_of(id);
            let slots: Vec<usize> = curr
                .neighbors(l)
                .iter()
                .map(|&u| curr.node_id(u as usize))
                .collect::<Vec<_>>()
                .into_iter()
                .map(|nid| self.slot_of(nid))
                .collect();
            self.neighbor_cache.insert(id, slots);
        }
        let mut order: Vec<usize> = (0..curr.num_nodes()).collect();
        for _ in 0..self.cfg.epochs {
            order.shuffle(&mut self.rng);
            for &l in &order {
                let (row, weight) = self.adjacency_row(curr, l);
                self.net
                    .train_step(&row, &row, Some(&weight), self.cfg.learning_rate);
            }
        }
        self.latest = curr.node_ids().to_vec();
        StepReport {
            phases: PhaseTimes {
                train: start.elapsed(),
                ..PhaseTimes::default()
            },
            selected: curr.num_nodes(),
            trained_pairs: curr.num_nodes() * self.cfg.epochs,
            corpus_tokens: 0,
        }
    }

    fn embedding(&self) -> Embedding {
        let mut e = Embedding::new(self.cfg.dim);
        for &id in &self.latest {
            e.set(id, &self.encode(&self.adjacency_row_of(id)));
        }
        e
    }

    fn name(&self) -> &'static str {
        "DynGEM"
    }
}

impl DynGem {
    /// Adjacency row of `id` as of the latest snapshot, rebuilt from the
    /// neighbour-slot cache recorded during `advance`.
    fn adjacency_row_of(&self, id: NodeId) -> Vec<f64> {
        self.neighbor_cache
            .get(&id)
            .map(|slots| {
                let mut row = vec![0.0; self.cfg.capacity];
                for &s in slots {
                    row[s] = 1.0;
                }
                row
            })
            .unwrap_or_else(|| vec![0.0; self.cfg.capacity])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use glodyne_embed::traits::{run_over, step_with};
    use glodyne_graph::id::Edge;

    fn cfg() -> DynGemConfig {
        DynGemConfig {
            dim: 8,
            hidden: 16,
            capacity: 64,
            epochs: 30,
            ..Default::default()
        }
    }

    fn two_cliques() -> Snapshot {
        let mut edges = Vec::new();
        for c in 0..2u32 {
            let base = c * 5;
            for i in 0..5 {
                for j in (i + 1)..5 {
                    edges.push(Edge::new(NodeId(base + i), NodeId(base + j)));
                }
            }
        }
        edges.push(Edge::new(NodeId(0), NodeId(5)));
        Snapshot::from_edges(&edges, &[])
    }

    #[test]
    fn invalid_config_rejected() {
        assert!(DynGem::new(DynGemConfig {
            capacity: 0,
            ..Default::default()
        })
        .is_err());
    }

    #[test]
    fn embeds_every_node() {
        let g = two_cliques();
        let mut m = DynGem::new(cfg()).unwrap();
        let report = step_with(&mut m, None, &g);
        assert_eq!(report.selected, 10);
        assert_eq!(m.embedding().len(), 10);
    }

    #[test]
    fn clique_members_embed_similarly() {
        let g = two_cliques();
        let mut m = DynGem::new(cfg()).unwrap();
        step_with(&mut m, None, &g);
        let e = m.embedding();
        let intra = e.cosine(NodeId(1), NodeId(2)).unwrap();
        let inter = e.cosine(NodeId(1), NodeId(7)).unwrap();
        assert!(intra > inter, "intra {intra} <= inter {inter}");
    }

    #[test]
    fn warm_start_across_steps() {
        let g = two_cliques();
        let mut m = DynGem::new(cfg()).unwrap();
        let embs = run_over(&mut m, &[g.clone(), g.clone()]);
        // Same graph re-trained from the warm model: embeddings stay
        // strongly correlated.
        let cos = glodyne_embed::kernel::cosine(
            embs[0].get(NodeId(3)).unwrap(),
            embs[1].get(NodeId(3)).unwrap(),
        );
        assert!(
            cos > 0.8,
            "warm start should keep vectors stable, cos {cos}"
        );
    }

    #[test]
    #[should_panic(expected = "capacity exhausted")]
    fn capacity_failure_mirrors_paper_oom() {
        let edges: Vec<Edge> = (0..100)
            .map(|i| Edge::new(NodeId(i), NodeId(i + 1)))
            .collect();
        let g = Snapshot::from_edges(&edges, &[]);
        let mut m = DynGem::new(DynGemConfig {
            capacity: 16,
            ..cfg()
        })
        .unwrap();
        step_with(&mut m, None, &g);
    }
}
