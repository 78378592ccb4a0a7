//! The ablation variants of §5.3.1–5.3.2.
//!
//! - [`SgnsStatic`] — train once at `t = 0`, reuse those embeddings
//!   forever (shows the *necessity* of DNE, Figure 3).
//! - [`SgnsRetrain`] — retrain a fresh model from scratch on every
//!   snapshot (the "naive DNE" of §2.1; no knowledge transfer).
//! - [`SgnsIncrement`] — keep one model and continue training it on
//!   walks from *all* nodes each step (`V^t_sel = V^t_all`); equivalent
//!   to GloDyNE with α = 1.0 minus the partitioning overhead
//!   (Figure 4, §5.3.2).

use glodyne_embed::config::ConfigError;
use glodyne_embed::traits::{DynamicEmbedder, PhaseTimes, StepContext, StepReport};
use glodyne_embed::walks::{generate_corpus_all, WalkConfig};
use glodyne_embed::{Embedding, SgnsConfig, SgnsModel, WalkCorpus};
use glodyne_graph::Snapshot;
use std::time::{Duration, Instant};

/// Shared configuration for the SGNS variants.
#[derive(Debug, Clone, Default)]
pub struct VariantConfig {
    /// Random-walk parameters.
    pub walk: WalkConfig,
    /// SGNS parameters.
    pub sgns: SgnsConfig,
}

impl VariantConfig {
    /// Validate both nested configurations.
    pub fn validate(&self) -> Result<(), ConfigError> {
        self.walk.validate()?;
        self.sgns.validate()?;
        Ok(())
    }
}

/// Walks-from-everywhere + training: generate a full-graph corpus,
/// train, and time both phases into a [`StepReport`] with all nodes
/// counted as selected — the shared step body of the variants.
fn walk_all_and_train(curr: &Snapshot, walk_cfg: &WalkConfig, model: &mut SgnsModel) -> StepReport {
    let t0 = Instant::now();
    let corpus: WalkCorpus = generate_corpus_all(curr, walk_cfg);
    let t1 = Instant::now();
    let pairs = model.train_corpus(&corpus);
    let t2 = Instant::now();
    StepReport {
        phases: PhaseTimes {
            select: Duration::ZERO,
            walks: t1 - t0,
            train: t2 - t1,
        },
        selected: curr.num_nodes(),
        trained_pairs: pairs,
        corpus_tokens: corpus.num_tokens(),
    }
}

/// SGNS-static: embeddings learned at `t = 0` and frozen.
#[derive(Debug)]
pub struct SgnsStatic {
    cfg: VariantConfig,
    model: SgnsModel,
    trained: bool,
}

impl SgnsStatic {
    /// Build from a validated variant configuration.
    pub fn new(cfg: VariantConfig) -> Result<Self, ConfigError> {
        cfg.validate()?;
        let model = SgnsModel::new(cfg.sgns.clone());
        Ok(SgnsStatic {
            cfg,
            model,
            trained: false,
        })
    }
}

impl DynamicEmbedder for SgnsStatic {
    fn step(&mut self, ctx: StepContext<'_>) -> StepReport {
        if self.trained {
            // Frozen: later snapshots are ignored entirely.
            return StepReport::default();
        }
        self.trained = true;
        let walk_cfg = self.cfg.walk;
        walk_all_and_train(ctx.curr, &walk_cfg, &mut self.model)
    }

    fn embedding(&self) -> Embedding {
        self.model.embedding()
    }

    fn name(&self) -> &'static str {
        "SGNS-static"
    }
}

/// SGNS-retrain: a fresh model trained from random init every step.
#[derive(Debug)]
pub struct SgnsRetrain {
    cfg: VariantConfig,
    model: SgnsModel,
    step: u64,
}

impl SgnsRetrain {
    /// Build from a validated variant configuration.
    pub fn new(cfg: VariantConfig) -> Result<Self, ConfigError> {
        cfg.validate()?;
        let model = SgnsModel::new(cfg.sgns.clone());
        Ok(SgnsRetrain {
            cfg,
            model,
            step: 0,
        })
    }
}

impl DynamicEmbedder for SgnsRetrain {
    fn step(&mut self, ctx: StepContext<'_>) -> StepReport {
        // Fresh random initialisation each step: no knowledge transfer.
        let mut sgns = self.cfg.sgns.clone();
        sgns.seed = sgns.seed.wrapping_add(self.step.wrapping_mul(0x5851_F42D));
        self.model = SgnsModel::new(sgns);
        let walk_cfg = WalkConfig {
            seed: self.cfg.walk.seed ^ (self.step << 16),
            ..self.cfg.walk
        };
        self.step += 1;
        walk_all_and_train(ctx.curr, &walk_cfg, &mut self.model)
    }

    fn embedding(&self) -> Embedding {
        self.model.embedding()
    }

    fn name(&self) -> &'static str {
        "SGNS-retrain"
    }
}

/// SGNS-increment: one model, continued training on all nodes each step.
#[derive(Debug)]
pub struct SgnsIncrement {
    cfg: VariantConfig,
    model: SgnsModel,
    step: u64,
}

impl SgnsIncrement {
    /// Build from a validated variant configuration.
    pub fn new(cfg: VariantConfig) -> Result<Self, ConfigError> {
        cfg.validate()?;
        let model = SgnsModel::new(cfg.sgns.clone());
        Ok(SgnsIncrement {
            cfg,
            model,
            step: 0,
        })
    }
}

impl DynamicEmbedder for SgnsIncrement {
    fn step(&mut self, ctx: StepContext<'_>) -> StepReport {
        let walk_cfg = WalkConfig {
            seed: self.cfg.walk.seed ^ (self.step << 16),
            ..self.cfg.walk
        };
        self.step += 1;
        walk_all_and_train(ctx.curr, &walk_cfg, &mut self.model)
    }

    fn embedding(&self) -> Embedding {
        self.model.embedding()
    }

    fn name(&self) -> &'static str {
        "SGNS-increment"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use glodyne_embed::traits::{run_over, run_over_reports};
    use glodyne_graph::id::{Edge, NodeId};

    fn cfg() -> VariantConfig {
        VariantConfig {
            walk: WalkConfig {
                walks_per_node: 3,
                walk_length: 10,
                seed: 1,
            },
            sgns: SgnsConfig {
                dim: 8,
                window: 2,
                negatives: 2,
                epochs: 2,
                parallel: false,
                ..Default::default()
            },
        }
    }

    fn ring(n: u32, extra: &[(u32, u32)]) -> Snapshot {
        let mut edges: Vec<Edge> = (0..n)
            .map(|i| Edge::new(NodeId(i), NodeId((i + 1) % n)))
            .collect();
        edges.extend(extra.iter().map(|&(a, b)| Edge::new(NodeId(a), NodeId(b))));
        Snapshot::from_edges(&edges, &[])
    }

    #[test]
    fn static_never_embeds_new_nodes() {
        let snaps = vec![ring(10, &[]), ring(10, &[(0, 10)])];
        let mut m = SgnsStatic::new(cfg()).unwrap();
        let results = run_over_reports(&mut m, &snaps);
        assert!(
            results[1].0.get(NodeId(10)).is_none(),
            "static must stay frozen"
        );
        // And frozen vectors are bit-identical across steps.
        assert_eq!(results[0].0.get(NodeId(0)), results[1].0.get(NodeId(0)));
        // The frozen step reports no work.
        assert!(results[0].1.trained_pairs > 0);
        assert_eq!(results[1].1.trained_pairs, 0);
        assert_eq!(results[1].1.selected, 0);
    }

    #[test]
    fn retrain_embeds_new_nodes() {
        let snaps = vec![ring(10, &[]), ring(10, &[(0, 10)])];
        let mut m = SgnsRetrain::new(cfg()).unwrap();
        let embs = run_over(&mut m, &snaps);
        assert!(embs[1].get(NodeId(10)).is_some());
    }

    #[test]
    fn retrain_vectors_change_across_steps() {
        let snaps = vec![ring(10, &[]), ring(10, &[])];
        let mut m = SgnsRetrain::new(cfg()).unwrap();
        let embs = run_over(&mut m, &snaps);
        assert_ne!(
            embs[0].get(NodeId(0)),
            embs[1].get(NodeId(0)),
            "fresh init each step implies different vectors"
        );
    }

    #[test]
    fn increment_preserves_and_extends() {
        let snaps = vec![ring(10, &[]), ring(10, &[(0, 10)])];
        let mut m = SgnsIncrement::new(cfg()).unwrap();
        let embs = run_over(&mut m, &snaps);
        assert!(embs[1].get(NodeId(10)).is_some(), "new node embedded");
        // Warm start: old vectors evolve but stay correlated.
        let v0 = embs[0].get(NodeId(5)).unwrap();
        let v1 = embs[1].get(NodeId(5)).unwrap();
        let cos = glodyne_embed::kernel::cosine(v0, v1);
        assert!(cos > 0.5, "warm-started vector drifted too far: cos={cos}");
    }

    #[test]
    fn invalid_configs_rejected_by_every_variant() {
        let bad = VariantConfig {
            sgns: SgnsConfig {
                dim: 0,
                ..Default::default()
            },
            ..cfg()
        };
        assert!(SgnsStatic::new(bad.clone()).is_err());
        assert!(SgnsRetrain::new(bad.clone()).is_err());
        assert!(SgnsIncrement::new(bad).is_err());
    }

    #[test]
    fn names_are_distinct() {
        let names = [
            SgnsStatic::new(cfg()).unwrap().name(),
            SgnsRetrain::new(cfg()).unwrap().name(),
            SgnsIncrement::new(cfg()).unwrap().name(),
        ];
        let set: std::collections::HashSet<_> = names.iter().collect();
        assert_eq!(set.len(), 3);
    }
}
