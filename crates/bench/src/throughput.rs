//! Absolute SGNS training throughput, in positive pairs per second.
//!
//! The number ROADMAP aim 1 asks speed-ups to be claimed against:
//! `bench_e2e`'s layer table reports it for the online steps of its
//! four workloads (`embed.sgns_mpairs_per_s`), this module reports it
//! for an offline stage at the same three graph sizes, with nothing but [`SgnsModel::train_corpus`] inside the stopwatch:
//! interning a fresh model's vocabulary and building the negative table
//! are part of that call and counted, building the graph and generating
//! its walks are not. `benches/micro.rs` and `scale_test` both print
//! this table.

use glodyne_embed::walks::{generate_corpus_all, WalkConfig};
use glodyne_embed::{SgnsConfig, SgnsModel};
use glodyne_graph::id::{Edge, NodeId};
use glodyne_graph::Snapshot;
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use std::time::Instant;

/// A connected `n`-node graph: a ring (guarantees no isolated nodes)
/// plus `2n` random chords for realistic degree spread.
pub fn synthetic_graph(n: u32, seed: u64) -> Snapshot {
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let mut edges: Vec<Edge> = (0..n)
        .map(|i| Edge::new(NodeId(i), NodeId((i + 1) % n)))
        .collect();
    for _ in 0..2 * n {
        let a = rng.gen_range(0..n);
        let b = rng.gen_range(0..n);
        if a != b {
            edges.push(Edge::new(NodeId(a), NodeId(b)));
        }
    }
    Snapshot::from_edges(&edges, &[])
}

/// One row of the throughput table.
#[derive(Debug, Clone)]
pub struct SgnsRate {
    /// `"paper"` (10 walks × 80, window 10, 2 epochs — the CLI
    /// defaults, `bench_e2e`'s `paper_steps`) or `"serving"` (4 walks ×
    /// 20, window 5, 1 epoch — its other three workloads).
    pub profile: &'static str,
    /// Nodes in the graph; every node starts walks (an offline stage).
    pub nodes: usize,
    /// Threads that trained: 1 for `parallel: false`, otherwise what
    /// the rayon shim reports for this machine.
    pub threads: usize,
    /// Positive pairs trained per run (× epochs).
    pub pairs: usize,
    /// Median over the repetitions.
    pub mpairs_per_s: f64,
}

impl std::fmt::Display for SgnsRate {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "sgns_throughput: {} profile n={} threads={} pairs={}  {:.2} Mpairs/s",
            self.profile, self.nodes, self.threads, self.pairs, self.mpairs_per_s
        )
    }
}

/// Train a fresh d = 64, 5-negative model `reps` times on each of the
/// three graphs the end-to-end benchmark's workloads are sized at
/// (paper profile n = 200, serving profile n = 4 000 and 12 000), on
/// one thread and on all of them, and report the median rate of each.
pub fn sgns_rates(reps: usize) -> Vec<SgnsRate> {
    // (profile, walks per node, walk length, window, epochs, nodes)
    let rows = [
        ("paper", 10, 80, 10, 2, 200),
        ("serving", 4, 20, 5, 1, 4_000),
        ("serving", 4, 20, 5, 1, 12_000),
    ];
    let mut out = Vec::new();
    for (profile, walks_per_node, walk_length, window, epochs, nodes) in rows {
        let walk_cfg = WalkConfig {
            walks_per_node,
            walk_length,
            seed: 11,
        };
        let corpus = generate_corpus_all(&synthetic_graph(nodes, 99), &walk_cfg);
        for parallel in [false, true] {
            let cfg = SgnsConfig {
                dim: 64,
                window,
                negatives: 5,
                epochs,
                parallel,
                ..Default::default()
            };
            let mut pairs = 0;
            let mut secs: Vec<f64> = (0..reps.max(1))
                .map(|_| {
                    let mut model = SgnsModel::new(cfg.clone());
                    let t = Instant::now();
                    pairs = std::hint::black_box(model.train_corpus(&corpus));
                    t.elapsed().as_secs_f64()
                })
                .collect();
            secs.sort_by(f64::total_cmp);
            out.push(SgnsRate {
                profile,
                nodes: nodes as usize,
                threads: if parallel {
                    rayon::current_num_threads()
                } else {
                    1
                },
                pairs,
                mpairs_per_s: pairs as f64 / secs[secs.len() / 2].max(1e-12) / 1e6,
            });
        }
    }
    out
}
