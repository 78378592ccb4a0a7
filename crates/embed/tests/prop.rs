//! Property tests for the embedding machinery.

use glodyne_embed::alias::AliasTable;
use glodyne_embed::corpus::WalkCorpus;
use glodyne_embed::pairs;
use glodyne_embed::walks::{generate_corpus, walk_rng_seed, WalkConfig};
use glodyne_embed::{Embedding, SgnsConfig, SgnsModel};
use glodyne_graph::id::{Edge, NodeId};
use glodyne_graph::Snapshot;
use proptest::prelude::*;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

/// A random tree plus random extra edges (always connected), plus a
/// number of isolated (degree-0) nodes drawn from `isolated`.
fn arb_graph(isolated: std::ops::Range<u32>) -> impl Strategy<Value = Snapshot> {
    (
        2u32..40,
        prop::collection::vec((0u32..40, 0u32..40), 0..40),
        isolated,
    )
        .prop_map(|(n, extra, isolated)| {
            let mut rng = ChaCha8Rng::seed_from_u64(n as u64);
            let mut edges: Vec<Edge> = (1..n)
                .map(|v| {
                    let u = rand::Rng::gen_range(&mut rng, 0..v);
                    Edge::new(NodeId(v), NodeId(u))
                })
                .collect();
            edges.extend(
                extra
                    .into_iter()
                    .filter(|&(a, b)| a != b && a < n && b < n)
                    .map(|(a, b)| Edge::new(NodeId(a), NodeId(b))),
            );
            let isolated: Vec<NodeId> = (0..isolated).map(|i| NodeId(100 + i)).collect();
            Snapshot::from_edges(&edges, &isolated)
        })
}

/// The step-by-step walker `generate_corpus` is pinned against: one
/// `Vec` per walk, each neighbour drawn as it is reached, stopping
/// early at a node with no neighbours.
fn reference_walks(g: &Snapshot, starts: &[u32], cfg: &WalkConfig) -> Vec<Vec<NodeId>> {
    let mut walks = Vec::new();
    for &start in starts {
        for rep in 0..cfg.walks_per_node {
            let seed = walk_rng_seed(cfg.seed, start as u64, rep as u64);
            let mut rng = ChaCha8Rng::seed_from_u64(seed);
            let mut cur = start as usize;
            let mut walk = vec![g.node_id(cur)];
            for _ in 1..cfg.walk_length {
                let ns = g.neighbors(cur);
                if ns.is_empty() {
                    break;
                }
                cur = ns[rand::Rng::gen_range(&mut rng, 0..ns.len())] as usize;
                walk.push(g.node_id(cur));
            }
            walks.push(walk);
        }
    }
    walks
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Every consecutive pair of a walk is an edge of the graph, and the
    /// walk starts where asked.
    #[test]
    fn walks_follow_edges((g, seed) in (arb_graph(0..1), 0u64..100)) {
        let cfg = WalkConfig { walks_per_node: 1, walk_length: 25, seed };
        let start = (seed as usize) % g.num_nodes();
        let walk = generate_corpus(&g, &[start as u32], &cfg).walk_node_ids(0);
        prop_assert_eq!(walk[0], g.node_id(start));
        for pair in walk.windows(2) {
            prop_assert!(g.has_edge_ids(pair[0], pair[1]));
        }
    }

    /// Walk counts and lengths match the configuration.
    #[test]
    fn walk_generation_counts(g in arb_graph(0..1), r in 1usize..4, l in 2usize..20) {
        let cfg = WalkConfig { walks_per_node: r, walk_length: l, seed: 7 };
        let starts: Vec<u32> = (0..g.num_nodes() as u32).step_by(2).collect();
        let corpus = generate_corpus(&g, &starts, &cfg);
        prop_assert_eq!(corpus.num_walks(), starts.len() * r);
        for w in corpus.walks() {
            prop_assert_eq!(w.len(), l);
        }
    }

    /// `WalkCorpus` round-trips walk boundaries and tokens exactly: for
    /// any list of walks pushed into the flat arena, every walk comes
    /// back with the same tokens at the same index, and the offsets
    /// tile the arena without gaps.
    #[test]
    fn corpus_round_trips_walk_boundaries(
        walks in prop::collection::vec(prop::collection::vec(0u32..50, 0..30), 0..25),
    ) {
        let node_ids: Vec<NodeId> = (0..50).map(NodeId).collect();
        let mut c = WalkCorpus::new(node_ids);
        for w in &walks {
            c.push_walk(w);
        }
        prop_assert_eq!(c.num_walks(), walks.len());
        prop_assert_eq!(c.num_tokens(), walks.iter().map(Vec::len).sum::<usize>());
        for (i, w) in walks.iter().enumerate() {
            prop_assert_eq!(c.walk(i), w.as_slice(), "walk {} differs", i);
        }
        // Offsets tile the arena: sorted, starting at 0, ending at len.
        let offs = c.offsets();
        prop_assert_eq!(offs[0], 0);
        prop_assert_eq!(*offs.last().unwrap(), c.num_tokens());
        prop_assert!(offs.windows(2).all(|w| w[0] <= w[1]));
        // And the iterator view agrees with indexed access.
        for (i, w) in c.walks().enumerate() {
            prop_assert_eq!(w, c.walk(i));
        }
    }

    /// The NodeId compatibility path preserves walk structure and maps
    /// tokens back to the original ids.
    #[test]
    fn corpus_from_nodeid_walks_round_trips(
        walks in prop::collection::vec(prop::collection::vec(0u32..40, 0..20), 0..15),
    ) {
        let walks: Vec<Vec<NodeId>> = walks
            .into_iter()
            .map(|w| w.into_iter().map(NodeId).collect())
            .collect();
        let c = WalkCorpus::from_nodeid_walks(&walks);
        prop_assert_eq!(c.num_walks(), walks.len());
        for (i, w) in walks.iter().enumerate() {
            prop_assert_eq!(&c.walk_node_ids(i), w, "walk {} differs", i);
        }
    }

    /// The flat generation path emits exactly the walks of the
    /// step-by-step reference walker for every graph, start set, and
    /// seed — including isolated starts, whose walks stop after the
    /// start itself.
    #[test]
    fn corpus_generation_matches_legacy((g, seed) in (arb_graph(0..4), 0u64..50), r in 1usize..3, l in 2usize..12) {
        let cfg = WalkConfig { walks_per_node: r, walk_length: l, seed };
        let starts: Vec<u32> = (0..g.num_nodes() as u32)
            .filter(|&v| v % 3 == 0 || g.degree(v as usize) == 0)
            .collect();
        let reference = reference_walks(&g, &starts, &cfg);
        let corpus = generate_corpus(&g, &starts, &cfg);
        prop_assert_eq!(corpus.num_walks(), reference.len());
        for (i, w) in reference.iter().enumerate() {
            prop_assert_eq!(&corpus.walk_node_ids(i), w, "walk {} differs", i);
        }
    }

    /// Target-block training over arbitrary corpora — empty and
    /// one-token walks, two-node vocabularies where every negative
    /// draw hits the target or repeats, dimensions on both sides of
    /// the kernel's lane width: the pair count is the schedule's
    /// (Σ `pair_count` × epochs), every weight stays finite, and a
    /// sequential run repeats bit for bit.
    #[test]
    fn train_corpus_counts_pairs_stays_finite_and_repeats(
        walks in prop::collection::vec(prop::collection::vec(0u32..24, 0..30), 1..12),
        vocab in 2u32..24,
        window in 1usize..12,
        negatives in 1usize..7,
        epochs in 1usize..3,
        dim in 1usize..20,
        seed in 0u64..1000,
    ) {
        let node_ids: Vec<NodeId> = (0..vocab).map(|i| NodeId(i * 3 + 1)).collect();
        let mut corpus = WalkCorpus::new(node_ids);
        for w in &walks {
            let w: Vec<u32> = w.iter().map(|t| t % vocab).collect();
            corpus.push_walk(&w);
        }
        let cfg = SgnsConfig { dim, window, negatives, epochs, initial_lr: 0.05, seed, parallel: false };
        let run = || {
            let mut m = SgnsModel::new(cfg.clone());
            let pairs = m.train_corpus(&corpus);
            (pairs, m)
        };
        let (pairs, a) = run();
        let expected: usize = walks.iter().map(|w| pairs::pair_count(w.len(), window)).sum();
        prop_assert_eq!(pairs, expected * epochs);
        prop_assert!(a.output_weights().iter().all(|w| w.is_finite()));
        prop_assert!(a.embedding().iter().all(|(_, v)| v.iter().all(|w| w.is_finite())));

        let (_, b) = run();
        prop_assert_eq!(a.ids(), b.ids());
        let bits = |v: &[f32]| v.iter().map(|w| w.to_bits()).collect::<Vec<_>>();
        prop_assert_eq!(bits(a.output_weights()), bits(b.output_weights()));
        for (id, v) in a.embedding().iter() {
            prop_assert_eq!(bits(v), bits(b.embedding().get(id).unwrap()));
        }
    }

    /// Pair extraction is symmetric in count: (a,b) appears as often as
    /// (b,a) over a whole walk.
    #[test]
    fn pair_extraction_symmetric(walk in prop::collection::vec(0u32..20, 0..30), s in 1usize..6) {
        let walk: Vec<NodeId> = walk.into_iter().map(NodeId).collect();
        let ps = pairs::pairs(&walk, s);
        use std::collections::HashMap;
        let mut counts: HashMap<(NodeId, NodeId), i64> = HashMap::new();
        for (a, b) in ps {
            *counts.entry((a, b)).or_insert(0) += 1;
            *counts.entry((b, a)).or_insert(0) -= 1;
        }
        for ((a, b), c) in counts {
            prop_assert_eq!(c, 0, "pair ({},{}) asymmetric", a, b);
        }
    }

    /// The alias sampler's empirical distribution tracks the weights.
    #[test]
    fn alias_tracks_weights(weights in prop::collection::vec(0.0f64..10.0, 2..12)) {
        prop_assume!(weights.iter().sum::<f64>() > 1.0);
        let table = AliasTable::new(&weights);
        let mut rng = ChaCha8Rng::seed_from_u64(1);
        let draws = 30_000;
        let mut counts = vec![0usize; weights.len()];
        for _ in 0..draws {
            counts[table.sample(&mut rng)] += 1;
        }
        let total: f64 = weights.iter().sum();
        for (i, &w) in weights.iter().enumerate() {
            let expected = w / total;
            let got = counts[i] as f64 / draws as f64;
            prop_assert!((got - expected).abs() < 0.03,
                "outcome {i}: expected {expected:.3}, got {got:.3}");
        }
    }

    /// Embedding store: set/get round-trips arbitrary vectors.
    #[test]
    fn embedding_round_trips(entries in prop::collection::vec((0u32..100, prop::collection::vec(-10.0f32..10.0, 4)), 0..30)) {
        let mut e = Embedding::new(4);
        let mut last: std::collections::HashMap<u32, Vec<f32>> = Default::default();
        for (id, v) in &entries {
            e.set(NodeId(*id), v);
            last.insert(*id, v.clone());
        }
        prop_assert_eq!(e.len(), last.len());
        for (id, v) in last {
            prop_assert_eq!(e.get(NodeId(id)).unwrap(), v.as_slice());
        }
    }

    /// The blocked exact scan is the reference scan bit for bit, for
    /// every `n % 8` (a tail of 0..=7 rows after the full blocks), with
    /// the query row both inside a full block and in the tail.
    #[test]
    fn top_k_is_the_reference_scan_for_every_tail(
        blocks in 0usize..4,
        tail in 0usize..8,
        dim in 1usize..20,
        k in 1usize..12,
        seed in 0u64..1_000_000,
    ) {
        let n = blocks * 8 + tail;
        prop_assume!(n > 0);
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let mut e = Embedding::new(dim);
        for i in 0..n as u32 {
            let v: Vec<f32> = if i % 7 == 3 {
                vec![0.0; dim] // zero-norm rows score 0
            } else {
                (0..dim).map(|_| rand::Rng::gen_range(&mut rng, -4.0f32..4.0)).collect()
            };
            e.set(NodeId(i * 3), &v);
        }
        let ids = e.ids();
        let mut probes = Vec::new();
        if blocks > 0 {
            probes.push(ids[(blocks - 1) * 8 + 5]); // inside the last full block
        }
        if tail > 0 {
            probes.push(ids[n - 1]); // in the tail
        }
        for probe in probes {
            let got = e.top_k(probe, k);
            let want = glodyne_embed::reference_top_k(&e, probe, k);
            prop_assert_eq!(got.len(), want.len());
            for (g, w) in got.iter().zip(&want) {
                prop_assert_eq!(g.0, w.0);
                prop_assert_eq!(g.1.to_bits(), w.1.to_bits());
            }
        }
    }

    /// Cosine similarity is bounded and symmetric.
    #[test]
    fn cosine_bounded_symmetric(a in prop::collection::vec(-5.0f32..5.0, 8), b in prop::collection::vec(-5.0f32..5.0, 8)) {
        let c1 = glodyne_embed::kernel::cosine(&a, &b);
        let c2 = glodyne_embed::kernel::cosine(&b, &a);
        prop_assert!((c1 - c2).abs() < 1e-5);
        prop_assert!((-1.0001..=1.0001).contains(&c1));
    }
}
