//! Pipeline equivalence: in deterministic mode `GloDyNE`'s embeddings
//! must be bit-identical to Algorithm 1's loop composed by hand from
//! the same public pieces (`generate_corpus*` + `train_corpus`,
//! reservoir, selection) with the same seeds.

use glodyne::select::{select_nodes, Strategy};
use glodyne::{GloDyNE, GloDyNEConfig, Reservoir};
use glodyne_embed::traits::{step_with, DynamicEmbedder};
use glodyne_embed::walks::{generate_corpus, generate_corpus_all, WalkConfig};
use glodyne_embed::{SgnsConfig, SgnsModel};
use glodyne_graph::id::{Edge, NodeId};
use glodyne_graph::{Snapshot, SnapshotDiff};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

fn det_cfg() -> GloDyNEConfig {
    GloDyNEConfig {
        alpha: 0.25,
        epsilon: 0.1,
        walk: WalkConfig {
            walks_per_node: 4,
            walk_length: 14,
            seed: 21,
        },
        sgns: SgnsConfig {
            dim: 16,
            window: 3,
            negatives: 3,
            epochs: 2,
            parallel: false,
            ..Default::default()
        },
        strategy: Strategy::S4,
        seed: 9,
    }
}

fn ring(n: u32, extra: &[(u32, u32)]) -> Snapshot {
    let mut edges: Vec<Edge> = (0..n)
        .map(|i| Edge::new(NodeId(i), NodeId((i + 1) % n)))
        .collect();
    edges.extend(extra.iter().map(|&(a, b)| Edge::new(NodeId(a), NodeId(b))));
    Snapshot::from_edges(&edges, &[])
}

/// The GloDyNE loop, reproduced from the same public building blocks.
/// Mirrors `model.rs` line for line: offline walks from all nodes, then per
/// online step reservoir update → selection → walks from the selected
/// nodes → incremental training.
fn reference_pipeline(cfg: &GloDyNEConfig, snaps: &[Snapshot]) -> glodyne_embed::Embedding {
    let mut rng = ChaCha8Rng::seed_from_u64(cfg.seed ^ 0x610D_19E5);
    let mut model = SgnsModel::new(cfg.sgns.clone());
    let mut reservoir = Reservoir::new();

    // Offline stage at t = 0.
    let walk_cfg = WalkConfig {
        seed: cfg.walk.seed, // ^ step 0
        ..cfg.walk
    };
    model.train_corpus(&generate_corpus_all(&snaps[0], &walk_cfg));

    // Online stages.
    for (step, pair) in snaps.windows(2).enumerate() {
        let (prev, curr) = (&pair[0], &pair[1]);
        let k = ((cfg.alpha * curr.num_nodes() as f64).round() as usize).clamp(1, curr.num_nodes());
        let diff = SnapshotDiff::compute(prev, curr);
        reservoir.absorb(&diff);
        let selected = select_nodes(
            cfg.strategy,
            curr,
            prev,
            &reservoir,
            k,
            cfg.epsilon,
            &mut rng,
        );
        for &l in &selected {
            reservoir.clear_node(curr.node_id(l as usize));
        }
        let walk_cfg = WalkConfig {
            seed: cfg.walk.seed ^ (((step + 1) as u64) << 32),
            ..cfg.walk
        };
        model.train_corpus(&generate_corpus(curr, &selected, &walk_cfg));
    }
    model.embedding()
}

#[test]
fn glodyne_matches_legacy_pipeline_bit_exact() {
    let snaps = vec![
        ring(40, &[]),
        ring(40, &[(0, 40), (40, 41), (3, 20)]),
        ring(40, &[(0, 40), (40, 41), (41, 42), (7, 30)]),
    ];
    let cfg = det_cfg();

    let mut migrated = GloDyNE::new(cfg.clone()).unwrap();
    let mut prev: Option<&Snapshot> = None;
    for s in &snaps {
        step_with(&mut migrated, prev, s);
        prev = Some(s);
    }
    let new_emb = migrated.embedding();
    let old_emb = reference_pipeline(&cfg, &snaps);

    assert_eq!(new_emb.len(), old_emb.len(), "vocabulary size diverged");
    for (id, v_old) in old_emb.iter() {
        let v_new = new_emb
            .get(id)
            .unwrap_or_else(|| panic!("{id} missing after migration"));
        assert_eq!(v_old, v_new, "vector for {id} diverged");
    }
}

#[test]
fn glodyne_deterministic_mode_reproducible_across_runs() {
    let snaps = vec![ring(30, &[]), ring(30, &[(0, 15), (5, 25)])];
    let run = || {
        let mut m = GloDyNE::new(det_cfg()).unwrap();
        let mut prev: Option<&Snapshot> = None;
        for s in &snaps {
            step_with(&mut m, prev, s);
            prev = Some(s);
        }
        m.embedding()
    };
    let (a, b) = (run(), run());
    assert_eq!(a.len(), b.len());
    for (id, va) in a.iter() {
        assert_eq!(va, b.get(id).unwrap(), "run-to-run divergence at {id}");
    }
}
