//! BCGD: scalable temporal latent space inference (Zhu et al., TKDE
//! 2016) — the paper's \[9\].
//!
//! Objective (their Eq. 3): non-negative latent positions `Z_t` minimise
//!
//! ```text
//! Σ_t ‖A_t − Z_t Z_tᵀ‖_F² + λ Σ_t Σ_i ‖z_i^t − z_i^{t−1}‖²
//! ```
//!
//! optimised by block-coordinate gradient descent with projection onto
//! the non-negative orthant. Two published variants:
//!
//! - **BCGDg** (algorithm 2, "global"): keeps *all* historical snapshots
//!   and jointly, cyclically re-optimises every `Z_t` whenever a new
//!   snapshot arrives — the most expensive method in Table 4.
//! - **BCGDl** (algorithm 4, "local"): optimises only the current `Z_t`,
//!   initialised from and regularised toward `Z_{t−1}`.
//!
//! The gradient avoids materialising `Z Zᵀ` (|V|² entries): with
//! `G = ZᵀZ` (a `d×d` matrix), `∇ = 4(Z G − A Z) + 2λ(Z − Z_prev)`,
//! giving O(|V|d² + |E|d) per sweep.
//!
//! Simplifications vs the original release: uniform (unweighted) loss
//! over all node pairs instead of their locality-weighted variant, and a
//! fixed step size with non-negativity projection instead of their
//! exact line search.

use glodyne_embed::config::ConfigError;
use glodyne_embed::traits::{DynamicEmbedder, PhaseTimes, StepContext, StepReport};
use glodyne_embed::Embedding;
use glodyne_graph::{NodeId, Snapshot};
use rand::Rng;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use std::collections::HashMap;
use std::time::Instant;

/// Shared BCGD hyper-parameters.
#[derive(Debug, Clone)]
pub struct BcgdConfig {
    /// Latent dimensionality `d`.
    pub dim: usize,
    /// Temporal-smoothness weight λ.
    pub lambda: f32,
    /// Gradient steps per snapshot visit.
    pub iterations: usize,
    /// Step size.
    pub learning_rate: f32,
    /// Global sweeps over history per new snapshot (BCGDg only).
    pub global_cycles: usize,
    /// RNG seed.
    pub seed: u64,
}

impl Default for BcgdConfig {
    fn default() -> Self {
        BcgdConfig {
            dim: 128,
            lambda: 0.2,
            iterations: 12,
            learning_rate: 5e-3,
            global_cycles: 2,
            seed: 0,
        }
    }
}

impl BcgdConfig {
    /// Validate the hyper-parameters.
    pub fn validate(&self) -> Result<(), ConfigError> {
        if self.dim < 1 {
            return Err(ConfigError::new("dim", "must be >= 1"));
        }
        if self.iterations < 1 {
            return Err(ConfigError::new("iterations", "must be >= 1"));
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
        if !(self.lambda.is_finite() && self.lambda >= 0.0) {
            return Err(ConfigError::new(
                "lambda",
                format!("must be a non-negative finite number, got {}", self.lambda),
            ));
        }
        if self.global_cycles < 1 {
            return Err(ConfigError::new("global_cycles", "must be >= 1"));
        }
        Ok(())
    }
}

/// A [`StepReport`] for a full-graph gradient method: the whole step is
/// the training phase; every current node's position is updated.
fn dense_report(start: Instant, updated_nodes: usize, samples: usize) -> StepReport {
    StepReport {
        phases: PhaseTimes {
            train: start.elapsed(),
            ..PhaseTimes::default()
        },
        selected: updated_nodes,
        trained_pairs: samples,
        corpus_tokens: 0,
    }
}

/// Latent positions for one snapshot, keyed like the snapshot's local
/// indices.
struct LatentBlock {
    ids: Vec<NodeId>,
    z: Vec<f32>, // n × d row-major, non-negative
}

impl LatentBlock {
    fn new(
        snapshot: &Snapshot,
        dim: usize,
        warm: Option<&LatentBlock>,
        rng: &mut impl Rng,
    ) -> Self {
        let n = snapshot.num_nodes();
        let mut z = vec![0.0f32; n * dim];
        let warm_index: Option<HashMap<NodeId, usize>> =
            warm.map(|w| w.ids.iter().enumerate().map(|(i, &id)| (id, i)).collect());
        let scale = (1.0 / dim as f32).sqrt();
        for l in 0..n {
            let id = snapshot.node_id(l);
            let row = &mut z[l * dim..(l + 1) * dim];
            match warm_index.as_ref().and_then(|wi| wi.get(&id)) {
                Some(&w_l) => {
                    let w = warm.unwrap();
                    row.copy_from_slice(&w.z[w_l * dim..(w_l + 1) * dim]);
                }
                None => {
                    for x in row.iter_mut() {
                        *x = rng.gen_range(0.0..scale);
                    }
                }
            }
        }
        LatentBlock {
            ids: snapshot.node_ids().to_vec(),
            z,
        }
    }

    fn embedding(&self, dim: usize) -> Embedding {
        let mut e = Embedding::new(dim);
        for (l, &id) in self.ids.iter().enumerate() {
            e.set(id, &self.z[l * dim..(l + 1) * dim]);
        }
        e
    }
}

/// One block-coordinate gradient sweep on `Z` for snapshot `g`, with a
/// temporal anchor (rows matched by id) weighted λ.
fn gradient_sweep(
    z: &mut [f32],
    g: &Snapshot,
    dim: usize,
    anchor: Option<(&HashMap<NodeId, usize>, &[f32])>,
    lambda: f32,
    lr: f32,
    iterations: usize,
) {
    let n = g.num_nodes();
    if n == 0 {
        return;
    }
    let mut gram = vec![0.0f32; dim * dim];
    let mut az = vec![0.0f32; n * dim];
    for _ in 0..iterations {
        // G = ZᵀZ
        gram.iter_mut().for_each(|x| *x = 0.0);
        for l in 0..n {
            let row = &z[l * dim..(l + 1) * dim];
            for a in 0..dim {
                let ra = row[a];
                if ra == 0.0 {
                    continue;
                }
                let gr = &mut gram[a * dim..(a + 1) * dim];
                for (b, &rb) in row.iter().enumerate() {
                    gr[b] += ra * rb;
                }
            }
        }
        // AZ via edges (A is 0/1 symmetric).
        az.iter_mut().for_each(|x| *x = 0.0);
        for u in 0..n {
            for &v in g.neighbors(u) {
                let (urow, vrow) = (u * dim, v as usize * dim);
                for k in 0..dim {
                    az[urow + k] += z[vrow + k];
                }
            }
        }
        // Update: Z -= lr * (4(Z G − A Z) + 2λ(Z − anchor)); project >= 0.
        for l in 0..n {
            let base = l * dim;
            let anchor_row: Option<&[f32]> = anchor.and_then(|(index, prev_z)| {
                index
                    .get(&g.node_id(l))
                    .map(|&pl| &prev_z[pl * dim..(pl + 1) * dim])
            });
            let mut zg = vec![0.0f32; dim];
            for a in 0..dim {
                let za = z[base + a];
                if za == 0.0 {
                    continue;
                }
                let gr = &gram[a * dim..(a + 1) * dim];
                for b in 0..dim {
                    zg[b] += za * gr[b];
                }
            }
            for k in 0..dim {
                let mut grad = 4.0 * (zg[k] - az[base + k]);
                if let Some(arow) = anchor_row {
                    grad += 2.0 * lambda * (z[base + k] - arow[k]);
                }
                z[base + k] = (z[base + k] - lr * grad).max(0.0);
            }
        }
    }
}

/// BCGD-local: one latent block, warm-started and anchored to the
/// previous step.
pub struct BcgdLocal {
    cfg: BcgdConfig,
    rng: ChaCha8Rng,
    current: Option<LatentBlock>,
}

impl BcgdLocal {
    /// Build with a validated configuration.
    pub fn new(cfg: BcgdConfig) -> Result<Self, ConfigError> {
        cfg.validate()?;
        let rng = ChaCha8Rng::seed_from_u64(cfg.seed ^ 0xBC6D);
        Ok(BcgdLocal {
            cfg,
            rng,
            current: None,
        })
    }
}

impl DynamicEmbedder for BcgdLocal {
    fn step(&mut self, ctx: StepContext<'_>) -> StepReport {
        let start = Instant::now();
        let curr = ctx.curr;
        let dim = self.cfg.dim;
        let warm = self.current.take();
        let mut block = LatentBlock::new(curr, dim, warm.as_ref(), &mut self.rng);
        let anchor_index: Option<HashMap<NodeId, usize>> = warm
            .as_ref()
            .map(|w| w.ids.iter().enumerate().map(|(i, &id)| (id, i)).collect());
        let anchor = warm
            .as_ref()
            .zip(anchor_index.as_ref())
            .map(|(w, idx)| (idx, w.z.as_slice()));
        gradient_sweep(
            &mut block.z,
            curr,
            dim,
            anchor,
            self.cfg.lambda,
            self.cfg.learning_rate,
            self.cfg.iterations,
        );
        self.current = Some(block);
        dense_report(
            start,
            curr.num_nodes(),
            curr.num_nodes() * self.cfg.iterations,
        )
    }

    fn embedding(&self) -> Embedding {
        self.current
            .as_ref()
            .map(|b| b.embedding(self.cfg.dim))
            .unwrap_or_else(|| Embedding::new(self.cfg.dim))
    }

    fn name(&self) -> &'static str {
        "BCGDl"
    }
}

/// BCGD-global: retains all snapshots and cyclically re-optimises every
/// time step's latent block on each arrival.
pub struct BcgdGlobal {
    cfg: BcgdConfig,
    rng: ChaCha8Rng,
    history: Vec<Snapshot>,
    blocks: Vec<LatentBlock>,
}

impl BcgdGlobal {
    /// Build with a validated configuration.
    pub fn new(cfg: BcgdConfig) -> Result<Self, ConfigError> {
        cfg.validate()?;
        let rng = ChaCha8Rng::seed_from_u64(cfg.seed ^ 0x00BC_6D61);
        Ok(BcgdGlobal {
            cfg,
            rng,
            history: Vec::new(),
            blocks: Vec::new(),
        })
    }
}

impl DynamicEmbedder for BcgdGlobal {
    fn step(&mut self, ctx: StepContext<'_>) -> StepReport {
        let start = Instant::now();
        let curr = ctx.curr;
        let dim = self.cfg.dim;
        let warm = self.blocks.last();
        let block = LatentBlock::new(curr, dim, warm, &mut self.rng);
        self.history.push(curr.clone());
        self.blocks.push(block);

        // Joint cyclic optimisation over all time steps: each block is
        // anchored to its temporal predecessor (and successor through the
        // next cycle's visit of that block).
        for _ in 0..self.cfg.global_cycles {
            for t in 0..self.blocks.len() {
                let (before, rest) = self.blocks.split_at_mut(t);
                let block = &mut rest[0];
                let anchor_index: Option<HashMap<NodeId, usize>> = before
                    .last()
                    .map(|w| w.ids.iter().enumerate().map(|(i, &id)| (id, i)).collect());
                let anchor = before
                    .last()
                    .zip(anchor_index.as_ref())
                    .map(|(w, idx)| (idx, w.z.as_slice()));
                gradient_sweep(
                    &mut block.z,
                    &self.history[t],
                    dim,
                    anchor,
                    self.cfg.lambda,
                    self.cfg.learning_rate,
                    self.cfg.iterations,
                );
            }
        }
        // Every historical block's nodes get re-optimised each arrival.
        let updated: usize = self.blocks.iter().map(|b| b.ids.len()).sum();
        dense_report(start, updated, updated * self.cfg.iterations)
    }

    fn embedding(&self) -> Embedding {
        self.blocks
            .last()
            .map(|b| b.embedding(self.cfg.dim))
            .unwrap_or_else(|| Embedding::new(self.cfg.dim))
    }

    fn name(&self) -> &'static str {
        "BCGDg"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use glodyne_embed::traits::{run_over, step_with};
    use glodyne_graph::id::Edge;

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

    fn cfg() -> BcgdConfig {
        BcgdConfig {
            dim: 8,
            iterations: 40,
            learning_rate: 1e-2,
            ..Default::default()
        }
    }

    #[test]
    fn invalid_config_rejected() {
        assert!(BcgdLocal::new(BcgdConfig {
            dim: 0,
            ..Default::default()
        })
        .is_err());
        assert!(BcgdGlobal::new(BcgdConfig {
            learning_rate: f32::NAN,
            ..Default::default()
        })
        .is_err());
    }

    #[test]
    fn local_embeds_all_nodes_nonnegatively() {
        let g = two_cliques();
        let mut m = BcgdLocal::new(cfg()).unwrap();
        let report = step_with(&mut m, None, &g);
        assert_eq!(report.selected, 12);
        assert!(report.total_time() > std::time::Duration::ZERO);
        let e = m.embedding();
        assert_eq!(e.len(), 12);
        for (_, v) in e.iter() {
            assert!(v.iter().all(|&x| x >= 0.0), "non-negativity violated");
        }
    }

    #[test]
    fn reconstruction_separates_cliques() {
        let g = two_cliques();
        let mut m = BcgdLocal::new(cfg()).unwrap();
        step_with(&mut m, None, &g);
        let e = m.embedding();
        let intra = e.cosine(NodeId(1), NodeId(2)).unwrap();
        let inter = e.cosine(NodeId(1), NodeId(8)).unwrap();
        assert!(intra > inter, "intra {intra} <= inter {inter}");
    }

    #[test]
    fn local_warm_start_limits_drift() {
        let g = two_cliques();
        let mut m = BcgdLocal::new(cfg()).unwrap();
        step_with(&mut m, None, &g);
        let e0 = m.embedding();
        step_with(&mut m, Some(&g), &g); // identical snapshot
        let e1 = m.embedding();
        let drift: f32 = e0
            .iter()
            .map(|(id, v)| {
                v.iter()
                    .zip(e1.get(id).unwrap())
                    .map(|(a, b)| (a - b).abs())
                    .sum::<f32>()
            })
            .sum();
        assert!(
            drift < 2.0,
            "identical snapshot should barely move Z: {drift}"
        );
    }

    #[test]
    fn global_keeps_history_and_runs() {
        let g0 = two_cliques();
        let mut edges: Vec<Edge> = g0.edges().collect();
        edges.push(Edge::new(NodeId(2), NodeId(9)));
        let g1 = Snapshot::from_edges(&edges, &[]);
        let mut m = BcgdGlobal::new(BcgdConfig {
            global_cycles: 1,
            iterations: 10,
            ..cfg()
        })
        .unwrap();
        let embs = run_over(&mut m, &[g0, g1]);
        assert_eq!(embs.len(), 2);
        assert_eq!(embs[1].len(), 12);
    }

    #[test]
    fn handles_node_churn() {
        let g0 = two_cliques();
        // drop node 11, add node 20
        let edges: Vec<Edge> = g0
            .edges()
            .filter(|e| e.u != NodeId(11) && e.v != NodeId(11))
            .chain([Edge::new(NodeId(6), NodeId(20))])
            .collect();
        let g1 = Snapshot::from_edges(&edges, &[]);
        let mut m = BcgdLocal::new(cfg()).unwrap();
        let embs = run_over(&mut m, &[g0, g1]);
        assert!(embs[1].get(NodeId(20)).is_some());
        assert!(embs[1].get(NodeId(11)).is_none());
    }
}
