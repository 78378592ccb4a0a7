//! The GloDyNE embedder (Algorithm 1).

use crate::reservoir::Reservoir;
use crate::select::{select_nodes, Strategy};
use glodyne_embed::config::ConfigError;
use glodyne_embed::traits::{
    CheckpointEmbedder, DynamicEmbedder, PhaseTimes, StepContext, StepReport,
};
use glodyne_embed::walks::{generate_corpus, generate_corpus_all, WalkConfig};
use glodyne_embed::{Embedding, SgnsConfig, SgnsModel};
use glodyne_graph::{Snapshot, SnapshotDiff};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use std::time::{Duration, Instant};

/// Full GloDyNE configuration (Algorithm 1's inputs).
///
/// Fill the fields directly (struct update from the paper defaults)
/// and let [`GloDyNE::new`] validate:
///
/// ```
/// use glodyne::{GloDyNE, GloDyNEConfig};
/// let cfg = GloDyNEConfig { alpha: 0.2, seed: 7, ..Default::default() };
/// assert!(GloDyNE::new(cfg).is_ok());
/// let bad = GloDyNEConfig { alpha: 0.0, ..Default::default() };
/// assert_eq!(GloDyNE::new(bad).unwrap_err().param(), "alpha");
/// ```
#[derive(Debug, Clone)]
pub struct GloDyNEConfig {
    /// The free hyper-parameter `α ∈ (0, 1]` determining the number of
    /// selected nodes `K = α·|V^t|` (§5.3.5; paper default 0.1).
    pub alpha: f64,
    /// Balance tolerance ε of the partition constraint (Eq. 2).
    pub epsilon: f64,
    /// Random-walk parameters (`r`, `l`).
    pub walk: WalkConfig,
    /// SGNS parameters (`d`, `s`, `q`, learning rate, epochs).
    pub sgns: SgnsConfig,
    /// Node-selection strategy (S4 is the paper's method).
    pub strategy: Strategy,
    /// Seed for selection randomness.
    pub seed: u64,
}

impl Default for GloDyNEConfig {
    fn default() -> Self {
        GloDyNEConfig {
            alpha: 0.1,
            epsilon: 0.1,
            walk: WalkConfig::default(),
            sgns: SgnsConfig::default(),
            strategy: Strategy::S4,
            seed: 0,
        }
    }
}

impl GloDyNEConfig {
    /// Validate every hyper-parameter, including the nested walk and
    /// SGNS configurations.
    pub fn validate(&self) -> Result<(), ConfigError> {
        if !(self.alpha > 0.0 && self.alpha <= 1.0) {
            return Err(ConfigError::new(
                "alpha",
                format!("must be in (0, 1], got {}", self.alpha),
            ));
        }
        if !(self.epsilon.is_finite() && self.epsilon >= 0.0) {
            return Err(ConfigError::new(
                "epsilon",
                format!("must be a non-negative finite number, got {}", self.epsilon),
            ));
        }
        self.walk.validate()?;
        self.sgns.validate()?;
        Ok(())
    }
}

/// The GloDyNE dynamic network embedder.
#[derive(Debug)]
pub struct GloDyNE {
    cfg: GloDyNEConfig,
    model: SgnsModel,
    reservoir: Reservoir,
    rng: ChaCha8Rng,
    step: usize,
}

impl GloDyNE {
    /// Build an embedder from a configuration; rejects invalid
    /// hyper-parameters instead of panicking.
    pub fn new(cfg: GloDyNEConfig) -> Result<Self, ConfigError> {
        cfg.validate()?;
        let rng = ChaCha8Rng::seed_from_u64(cfg.seed ^ 0x610D_19E5);
        let model = SgnsModel::new(cfg.sgns.clone());
        Ok(GloDyNE {
            cfg,
            model,
            reservoir: Reservoir::new(),
            rng,
            step: 0,
        })
    }

    /// The configuration in use.
    pub fn config(&self) -> &GloDyNEConfig {
        &self.cfg
    }

    /// Read-only view of the reservoir (diagnostics/tests).
    pub fn reservoir(&self) -> &Reservoir {
        &self.reservoir
    }

    /// Offline stage (Algorithm 1 lines 1–5): walks from every node and
    /// initial SGNS training.
    fn offline(&mut self, g0: &Snapshot) -> StepReport {
        let t0 = Instant::now();
        let walk_cfg = WalkConfig {
            seed: self.cfg.walk.seed ^ (self.step as u64),
            ..self.cfg.walk
        };
        let corpus = generate_corpus_all(g0, &walk_cfg);
        let t1 = Instant::now();
        let pairs = self.model.train_corpus(&corpus);
        let t2 = Instant::now();
        StepReport {
            phases: PhaseTimes {
                select: Duration::ZERO,
                walks: t1 - t0,
                train: t2 - t1,
            },
            selected: g0.num_nodes(),
            trained_pairs: pairs,
            corpus_tokens: corpus.num_tokens(),
        }
    }

    /// Online stage (Algorithm 1 lines 6–18). `diff` is the `ΔE^t` of
    /// the step context (driver-supplied or lazily computed there).
    fn online(&mut self, prev: &Snapshot, curr: &Snapshot, diff: &SnapshotDiff) -> StepReport {
        // Lines 7, 9–10: K, edge streams, reservoir update.
        let t0 = Instant::now();
        let k = ((self.cfg.alpha * curr.num_nodes() as f64).round() as usize)
            .clamp(1, curr.num_nodes());
        self.reservoir.absorb(diff);

        // Lines 8, 11–13: partition + select representatives.
        let selected = select_nodes(
            self.cfg.strategy,
            curr,
            prev,
            &self.reservoir,
            k,
            self.cfg.epsilon,
            &mut self.rng,
        );
        // Line 14: remove selected nodes from the reservoir.
        for &l in &selected {
            self.reservoir.clear_node(curr.node_id(l as usize));
        }
        let t1 = Instant::now();

        // Line 15: walks from the selected nodes.
        let walk_cfg = WalkConfig {
            seed: self.cfg.walk.seed ^ ((self.step as u64) << 32),
            ..self.cfg.walk
        };
        let corpus = generate_corpus(curr, &selected, &walk_cfg);
        let t2 = Instant::now();

        // Lines 16–17: incremental SGNS training (f^t = f^{t-1}).
        let pairs = self.model.train_corpus(&corpus);
        let t3 = Instant::now();

        StepReport {
            phases: PhaseTimes {
                select: t1 - t0,
                walks: t2 - t1,
                train: t3 - t2,
            },
            selected: selected.len(),
            trained_pairs: pairs,
            corpus_tokens: corpus.num_tokens(),
        }
    }
}

impl DynamicEmbedder for GloDyNE {
    fn step(&mut self, ctx: StepContext<'_>) -> StepReport {
        let report = match ctx.prev {
            None => self.offline(ctx.curr),
            Some(p) => {
                let diff = ctx.diff().expect("online step always has a diff");
                self.online(p, ctx.curr, diff)
            }
        };
        self.step += 1;
        report
    }

    fn embedding(&self) -> Embedding {
        self.model.embedding()
    }

    fn name(&self) -> &'static str {
        "GloDyNE"
    }
}

/// Magic bytes of the GloDyNE hidden-state checkpoint format.
const STATE_MAGIC: &[u8; 4] = b"GDYN";
/// Version of the hidden-state checkpoint format.
const STATE_VERSION: u32 = 1;

/// A little-endian byte cursor for parsing checkpoint state without
/// ever panicking on truncated or corrupt input.
struct StateReader<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> StateReader<'a> {
    fn take(&mut self, n: usize) -> Result<&'a [u8], String> {
        let end = self
            .pos
            .checked_add(n)
            .filter(|&e| e <= self.bytes.len())
            .ok_or_else(|| "truncated GloDyNE state".to_string())?;
        let out = &self.bytes[self.pos..end];
        self.pos = end;
        Ok(out)
    }

    fn u32(&mut self) -> Result<u32, String> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }

    fn u64(&mut self) -> Result<u64, String> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    fn f32(&mut self) -> Result<f32, String> {
        Ok(f32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }
}

impl CheckpointEmbedder for GloDyNE {
    /// Serialise everything the persisted embedding cannot reconstruct:
    /// the step counter, both RNG keystream positions, the SGNS row
    /// order and context matrix, and the reservoir. The SGNS *input*
    /// matrix is exactly the embedding (row `i` = vector of `ids[i]`),
    /// so it travels via the persist layer instead of being duplicated
    /// here.
    fn export_state(&self) -> Vec<u8> {
        let ids = self.model.ids();
        let output = self.model.output_weights();
        let reservoir = self.reservoir.entries();
        let mut out =
            Vec::with_capacity(44 + ids.len() * 4 + output.len() * 4 + reservoir.len() * 12);
        out.extend_from_slice(STATE_MAGIC);
        out.extend_from_slice(&STATE_VERSION.to_le_bytes());
        out.extend_from_slice(&(self.step as u64).to_le_bytes());
        out.extend_from_slice(&self.rng.word_pos().to_le_bytes());
        out.extend_from_slice(&self.model.init_rng_word_pos().to_le_bytes());
        out.extend_from_slice(&(ids.len() as u32).to_le_bytes());
        for id in ids {
            out.extend_from_slice(&id.0.to_le_bytes());
        }
        for &w in output {
            out.extend_from_slice(&w.to_le_bytes());
        }
        out.extend_from_slice(&(reservoir.len() as u32).to_le_bytes());
        for (id, change) in reservoir {
            out.extend_from_slice(&id.0.to_le_bytes());
            out.extend_from_slice(&change.to_le_bytes());
        }
        out
    }

    /// Restore from [`CheckpointEmbedder::export_state`] bytes plus the
    /// embedding persisted alongside them. The receiver's configuration
    /// must match the exporter's (same seeds, same dimensions) for the
    /// bit-exact resumption guarantee to hold.
    fn import_state(&mut self, bytes: &[u8], embedding: &Embedding) -> Result<(), String> {
        let mut r = StateReader { bytes, pos: 0 };
        if r.take(4)? != STATE_MAGIC {
            return Err("not a GloDyNE state checkpoint (bad magic)".to_string());
        }
        let version = r.u32()?;
        if version != STATE_VERSION {
            return Err(format!("unsupported GloDyNE state version {version}"));
        }
        let step = r.u64()?;
        let select_pos = r.u64()?;
        let init_pos = r.u64()?;
        let dim = self.cfg.sgns.dim;
        if embedding.dim() != dim {
            return Err(format!(
                "embedding dim {} does not match configured dim {dim}",
                embedding.dim()
            ));
        }
        let vocab_len = r.u32()? as usize;
        let mut ids = Vec::with_capacity(vocab_len);
        for _ in 0..vocab_len {
            ids.push(glodyne_graph::NodeId(r.u32()?));
        }
        let mut input = Vec::with_capacity(vocab_len * dim);
        for &id in &ids {
            let row = embedding
                .get(id)
                .ok_or_else(|| format!("embedding is missing a row for {id}"))?;
            input.extend_from_slice(row);
        }
        let mut output = Vec::with_capacity(vocab_len * dim);
        for _ in 0..vocab_len * dim {
            output.push(r.f32()?);
        }
        let reservoir_len = r.u32()? as usize;
        let mut entries = Vec::with_capacity(reservoir_len);
        for _ in 0..reservoir_len {
            let id = glodyne_graph::NodeId(r.u32()?);
            entries.push((id, r.u64()?));
        }
        if r.pos != bytes.len() {
            return Err("trailing bytes after GloDyNE state".to_string());
        }

        let model = SgnsModel::restore(self.cfg.sgns.clone(), ids, input, output, init_pos)
            .map_err(|e| e.to_string())?;
        let mut rng = ChaCha8Rng::seed_from_u64(self.cfg.seed ^ 0x610D_19E5);
        rng.set_word_pos(select_pos);
        self.model = model;
        self.reservoir = Reservoir::from_entries(entries);
        self.rng = rng;
        self.step = step as usize;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use glodyne_embed::traits::{run_over, run_over_reports, step_with};
    use glodyne_graph::id::{Edge, NodeId};

    fn small_cfg() -> GloDyNEConfig {
        GloDyNEConfig {
            alpha: 0.2,
            walk: WalkConfig {
                walks_per_node: 4,
                walk_length: 12,
                seed: 3,
            },
            sgns: SgnsConfig {
                dim: 16,
                window: 3,
                negatives: 3,
                epochs: 2,
                parallel: false,
                ..Default::default()
            },
            ..Default::default()
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
    fn covers_all_snapshots_and_new_nodes() {
        let snaps = vec![
            ring(20, &[]),
            ring(20, &[(0, 20), (20, 21)]),
            ring(20, &[(0, 20), (20, 21), (21, 22)]),
        ];
        let mut m = GloDyNE::new(small_cfg()).unwrap();
        let embs = run_over(&mut m, &snaps);
        assert_eq!(embs.len(), 3);
        // new node 22 appears only at t=2; it will have an embedding iff a
        // walk reached it — with alpha=0.2 and active-node bias it should.
        assert!(embs[2].get(NodeId(21)).is_some() || embs[2].get(NodeId(22)).is_some());
        // all original nodes embedded from the offline stage
        for i in 0..20 {
            assert!(embs[0].get(NodeId(i)).is_some(), "node {i} missing at t=0");
        }
    }

    #[test]
    fn online_selects_about_alpha_fraction() {
        let snaps = [ring(50, &[]), ring(50, &[(0, 25)])];
        let mut m = GloDyNE::new(GloDyNEConfig {
            alpha: 0.1,
            ..small_cfg()
        })
        .unwrap();
        let offline = step_with(&mut m, None, &snaps[0]);
        assert_eq!(offline.selected, 50, "offline uses all nodes");
        let online = step_with(&mut m, Some(&snaps[0]), &snaps[1]);
        assert_eq!(online.selected, 5, "K = α|V| = 5");
    }

    #[test]
    fn selected_nodes_leave_reservoir() {
        let g0 = ring(30, &[]);
        let g1 = ring(30, &[(0, 15), (3, 18)]);
        let mut m = GloDyNE::new(GloDyNEConfig {
            alpha: 1.0, // select everything => reservoir fully drained
            ..small_cfg()
        })
        .unwrap();
        step_with(&mut m, None, &g0);
        step_with(&mut m, Some(&g0), &g1);
        assert!(
            m.reservoir().is_empty(),
            "alpha=1 must clear the whole reservoir"
        );
    }

    #[test]
    fn step_reports_are_populated() {
        let g0 = ring(20, &[]);
        let g1 = ring(20, &[(0, 10)]);
        let mut m = GloDyNE::new(small_cfg()).unwrap();
        let reports = run_over_reports(&mut m, &[g0, g1]);
        let offline = reports[0].1;
        assert!(offline.phases.train > Duration::ZERO);
        assert_eq!(offline.selected, 20);
        assert!(offline.trained_pairs > 0);
        assert!(offline.corpus_tokens > 0);
        let online = reports[1].1;
        assert!(online.total_time() > Duration::ZERO);
        assert!(online.selected < 20, "online selects a fraction");
        assert!(online.corpus_tokens > 0);
    }

    #[test]
    fn zero_alpha_rejected() {
        let err = GloDyNE::new(GloDyNEConfig {
            alpha: 0.0,
            ..Default::default()
        })
        .unwrap_err();
        assert_eq!(err.param(), "alpha");
        assert!(err.to_string().contains("(0, 1]"));
    }

    #[test]
    fn validation_covers_every_layer() {
        let invalid = |edit: fn(&mut GloDyNEConfig)| {
            let mut cfg = GloDyNEConfig::default();
            edit(&mut cfg);
            cfg.validate().err().map(|e| e.param().to_string())
        };
        assert_eq!(invalid(|c| c.alpha = 0.5), None);
        assert_eq!(invalid(|c| c.alpha = 1.5).unwrap(), "alpha");
        assert_eq!(invalid(|c| c.epsilon = -1.0).unwrap(), "epsilon");
        assert_eq!(invalid(|c| c.walk.walk_length = 0).unwrap(), "walk_length");
        assert_eq!(invalid(|c| c.sgns.dim = 0).unwrap(), "dim");
    }

    #[test]
    fn checkpoint_round_trip_resumes_bit_exactly() {
        // Export after the online step at t=1, import into a fresh
        // instance, then run t=2 on both: every embedding row must
        // agree bit for bit (deterministic config: parallel=false).
        let snaps = [
            ring(20, &[]),
            ring(20, &[(0, 20), (20, 21)]),
            ring(20, &[(0, 20), (20, 21), (21, 22), (5, 11)]),
        ];
        let mut original = GloDyNE::new(small_cfg()).unwrap();
        step_with(&mut original, None, &snaps[0]);
        step_with(&mut original, Some(&snaps[0]), &snaps[1]);

        let state = original.export_state();
        let emb = original.embedding();
        let mut restored = GloDyNE::new(small_cfg()).unwrap();
        restored.import_state(&state, &emb).unwrap();
        assert_eq!(
            restored.reservoir().total(),
            original.reservoir().total(),
            "reservoir mass must survive the round trip"
        );

        step_with(&mut original, Some(&snaps[1]), &snaps[2]);
        step_with(&mut restored, Some(&snaps[1]), &snaps[2]);
        let (a, b) = (original.embedding(), restored.embedding());
        assert_eq!(a.len(), b.len());
        for (id, va) in a.iter() {
            assert_eq!(va, b.get(id).unwrap(), "row {id} diverged after resume");
        }
    }

    #[test]
    fn import_state_rejects_corrupt_bytes() {
        let mut m = GloDyNE::new(small_cfg()).unwrap();
        step_with(&mut m, None, &ring(10, &[]));
        let state = m.export_state();
        let emb = m.embedding();
        for cut in [0usize, 3, 10, state.len() - 1] {
            let mut r = GloDyNE::new(small_cfg()).unwrap();
            assert!(r.import_state(&state[..cut], &emb).is_err(), "cut at {cut}");
        }
        let mut bad_magic = state.clone();
        bad_magic[0] ^= 0xFF;
        let mut r = GloDyNE::new(small_cfg()).unwrap();
        assert!(r.import_state(&bad_magic, &emb).is_err());
        // Missing embedding row: valid bytes, wrong embedding.
        let mut r = GloDyNE::new(small_cfg()).unwrap();
        assert!(r.import_state(&state, &Embedding::new(16)).is_err());
    }

    #[test]
    fn embedding_quality_neighbors_closer_than_strangers() {
        // After offline training on a two-community graph, a node should
        // be closer to its community than to the other one.
        let mut edges = Vec::new();
        for c in 0..2u32 {
            let base = c * 8;
            for i in 0..8 {
                for j in (i + 1)..8 {
                    edges.push(Edge::new(NodeId(base + i), NodeId(base + j)));
                }
            }
        }
        edges.push(Edge::new(NodeId(0), NodeId(8)));
        let g = Snapshot::from_edges(&edges, &[]);
        let mut cfg = small_cfg();
        cfg.sgns.epochs = 6;
        let mut m = GloDyNE::new(cfg).unwrap();
        step_with(&mut m, None, &g);
        let e = m.embedding();
        let intra = e.cosine(NodeId(1), NodeId(2)).unwrap();
        let inter = e.cosine(NodeId(1), NodeId(14)).unwrap();
        assert!(
            intra > inter,
            "intra {intra} should exceed inter {inter} after offline stage"
        );
    }
}
