//! DynamicTriad (Zhou et al., AAAI 2018) — the paper's \[15\].
//!
//! "DynTriad models the triadic closure process, social homophily, and
//! temporal smoothness in its objective function", optimised per
//! snapshot over its existing edges. The loss here keeps the three
//! published terms in simplified form:
//!
//! 1. **social homophily** — logistic edge likelihood with negative
//!    sampling: `−log σ(z_i·z_j)` for edges, `−log σ(−z_i·z_n)` for
//!    sampled non-edges;
//! 2. **triadic closure** — for sampled open triads `(j, i, k)` (edges
//!    i–j and i–k present, j–k absent) a weak attractive term pulls
//!    `z_j·z_k` up, modelling the closure tendency mediated by the
//!    common neighbour;
//! 3. **temporal smoothness** — `β‖z_i^t − z_i^{t−1}‖²` toward the
//!    previous step's vector.
//!
//! Simplification vs the original: the closure probability is not
//! weighted by learned social strength; a constant closure weight is
//! used. The original's high result variance across runs (the ±20%
//! std-devs in Table 1) is reproduced naturally by its sensitivity to
//! the sampled triads.

use glodyne_embed::config::ConfigError;
use glodyne_embed::traits::{DynamicEmbedder, PhaseTimes, StepContext, StepReport};
use glodyne_embed::Embedding;
use glodyne_graph::NodeId;
use rand::Rng;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use std::collections::HashMap;
use std::time::Instant;

/// DynTriad hyper-parameters.
#[derive(Debug, Clone)]
pub struct DynTriadConfig {
    /// Embedding dimensionality.
    pub dim: usize,
    /// Epochs over the edge set per snapshot.
    pub epochs: usize,
    /// Negative samples per edge.
    pub negatives: usize,
    /// Weight of the triadic-closure term.
    pub closure_weight: f32,
    /// Temporal-smoothness weight β.
    pub beta: f32,
    /// Learning rate.
    pub learning_rate: f32,
    /// RNG seed.
    pub seed: u64,
}

impl Default for DynTriadConfig {
    fn default() -> Self {
        DynTriadConfig {
            dim: 128,
            epochs: 4,
            negatives: 4,
            closure_weight: 0.3,
            beta: 0.1,
            learning_rate: 0.03,
            seed: 0,
        }
    }
}

/// The DynTriad embedder.
pub struct DynTriad {
    cfg: DynTriadConfig,
    z: HashMap<NodeId, Vec<f32>>,
    prev_z: HashMap<NodeId, Vec<f32>>,
    rng: ChaCha8Rng,
    latest: Vec<NodeId>,
}

impl DynTriadConfig {
    /// Validate the hyper-parameters.
    pub fn validate(&self) -> Result<(), ConfigError> {
        if self.dim < 1 {
            return Err(ConfigError::new("dim", "must be >= 1"));
        }
        if self.epochs < 1 {
            return Err(ConfigError::new("epochs", "must be >= 1"));
        }
        if self.negatives < 1 {
            return Err(ConfigError::new("negatives", "must be >= 1"));
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
        if !(self.beta.is_finite() && self.beta >= 0.0) {
            return Err(ConfigError::new(
                "beta",
                format!("must be a non-negative finite number, got {}", self.beta),
            ));
        }
        Ok(())
    }
}

impl DynTriad {
    /// Build with a validated configuration.
    pub fn new(cfg: DynTriadConfig) -> Result<Self, ConfigError> {
        cfg.validate()?;
        let rng = ChaCha8Rng::seed_from_u64(cfg.seed ^ 0x7214D);
        Ok(DynTriad {
            cfg,
            z: HashMap::new(),
            prev_z: HashMap::new(),
            rng,
            latest: Vec::new(),
        })
    }

    fn ensure(&mut self, id: NodeId) {
        let d = self.cfg.dim;
        let rng = &mut self.rng;
        self.z
            .entry(id)
            .or_insert_with(|| (0..d).map(|_| rng.gen_range(-0.1..0.1)).collect());
    }

    /// Attract (label 1) or repel (label 0) the pair, scaled by `weight`.
    fn pair_update(&mut self, a: NodeId, b: NodeId, label: f32, weight: f32) {
        let d = self.cfg.dim;
        let lr = self.cfg.learning_rate * weight;
        let za = self.z.get(&a).unwrap().clone();
        let zb = self.z.get(&b).unwrap().clone();
        let dot: f32 = za.iter().zip(&zb).map(|(x, y)| x * y).sum();
        let g = (label - sigmoid(dot)) * lr;
        {
            let ra = self.z.get_mut(&a).unwrap();
            for k in 0..d {
                ra[k] += g * zb[k];
            }
        }
        let rb = self.z.get_mut(&b).unwrap();
        for k in 0..d {
            rb[k] += g * za[k];
        }
    }

    fn smooth_toward_previous(&mut self, id: NodeId) {
        if let Some(prev) = self.prev_z.get(&id) {
            let beta = self.cfg.beta * self.cfg.learning_rate;
            let cur = self.z.get_mut(&id).unwrap();
            for (c, &p) in cur.iter_mut().zip(prev) {
                *c -= beta * (*c - p);
            }
        }
    }
}

impl DynamicEmbedder for DynTriad {
    fn step(&mut self, ctx: StepContext<'_>) -> StepReport {
        let start = Instant::now();
        let curr = ctx.curr;
        for l in 0..curr.num_nodes() {
            self.ensure(curr.node_id(l));
        }
        let ids: Vec<NodeId> = curr.node_ids().to_vec();
        let edges: Vec<(NodeId, NodeId)> = curr.edges().map(|e| (e.u, e.v)).collect();
        if edges.is_empty() {
            self.latest = ids;
            return StepReport::default();
        }
        for _ in 0..self.cfg.epochs {
            // 1) social homophily over edges + negatives
            for &(i, j) in &edges {
                self.pair_update(i, j, 1.0, 1.0);
                for _ in 0..self.cfg.negatives {
                    let n = ids[self.rng.gen_range(0..ids.len())];
                    if n != i && n != j && !curr.has_edge_ids(i, n) {
                        self.pair_update(i, n, 0.0, 1.0);
                    }
                }
            }
            // 2) triadic closure on sampled open triads
            let triad_samples = edges.len();
            for _ in 0..triad_samples {
                let center = self.rng.gen_range(0..curr.num_nodes());
                let ns = curr.neighbors(center);
                if ns.len() < 2 {
                    continue;
                }
                let a = ns[self.rng.gen_range(0..ns.len())];
                let b = ns[self.rng.gen_range(0..ns.len())];
                if a == b || curr.has_edge(a as usize, b as usize) {
                    continue;
                }
                let (ja, jb) = (curr.node_id(a as usize), curr.node_id(b as usize));
                let w = self.cfg.closure_weight;
                self.pair_update(ja, jb, 1.0, w);
            }
            // 3) temporal smoothness
            for &id in &ids {
                self.smooth_toward_previous(id);
            }
        }
        self.prev_z = self.z.clone();
        let selected = ids.len();
        self.latest = ids;
        StepReport {
            phases: PhaseTimes {
                train: start.elapsed(),
                ..PhaseTimes::default()
            },
            selected,
            trained_pairs: edges.len() * self.cfg.epochs,
            corpus_tokens: 0,
        }
    }

    fn embedding(&self) -> Embedding {
        let mut e = Embedding::new(self.cfg.dim);
        for &id in &self.latest {
            if let Some(v) = self.z.get(&id) {
                e.set(id, v);
            }
        }
        e
    }

    fn name(&self) -> &'static str {
        "DynTriad"
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
    use glodyne_embed::traits::{run_over, step_with};
    use glodyne_graph::id::Edge;
    use glodyne_graph::Snapshot;

    fn cfg() -> DynTriadConfig {
        DynTriadConfig {
            dim: 12,
            epochs: 16,
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
        assert!(DynTriad::new(DynTriadConfig {
            epochs: 0,
            ..Default::default()
        })
        .is_err());
    }

    #[test]
    fn separates_communities() {
        let g = two_cliques();
        let mut m = DynTriad::new(cfg()).unwrap();
        step_with(&mut m, None, &g);
        let e = m.embedding();
        let intra = e.cosine(NodeId(1), NodeId(2)).unwrap();
        let inter = e.cosine(NodeId(1), NodeId(8)).unwrap();
        assert!(intra > inter, "intra {intra} <= inter {inter}");
    }

    #[test]
    fn temporal_smoothness_limits_drift() {
        let g = two_cliques();
        let mut smooth = DynTriad::new(DynTriadConfig { beta: 2.0, ..cfg() }).unwrap();
        let mut loose = DynTriad::new(DynTriadConfig { beta: 0.0, ..cfg() }).unwrap();
        let drift = |m: &mut DynTriad| {
            let embs = run_over(m, &[two_cliques(), two_cliques()]);
            embs[0]
                .iter()
                .map(|(id, v)| {
                    v.iter()
                        .zip(embs[1].get(id).unwrap())
                        .map(|(a, b)| ((a - b) as f64).powi(2))
                        .sum::<f64>()
                        .sqrt()
                })
                .sum::<f64>()
        };
        let _ = &g;
        let ds = drift(&mut smooth);
        let dl = drift(&mut loose);
        assert!(ds <= dl * 1.2, "smooth drift {ds} vs loose {dl}");
    }

    #[test]
    fn all_nodes_embedded() {
        let g = two_cliques();
        let mut m = DynTriad::new(cfg()).unwrap();
        let report = step_with(&mut m, None, &g);
        assert_eq!(report.selected, g.num_nodes());
        assert!(report.trained_pairs > 0);
        assert_eq!(m.embedding().len(), g.num_nodes());
    }
}
