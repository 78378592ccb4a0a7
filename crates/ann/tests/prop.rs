//! Property tests for the IVF index: `search` must never panic on
//! degenerate inputs, always respect its output contract, and recall
//! the exact scan's answers when every cell is probed.

use glodyne_ann::sq8::Sq8Arena;
use glodyne_ann::{BatchQuery, IvfConfig, IvfIndex, SearchScratch};
use glodyne_embed::{rank_similarity, reference_top_k, Embedding};
use glodyne_graph::NodeId;
use proptest::prelude::*;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use std::cmp::Ordering;

/// A random embedding seeded from `(n, dim, seed)`, salted with
/// degenerate rows: every 7th row is all zeros, every 11th row carries
/// a NaN component.
fn build_embedding(n: usize, dim: usize, seed: u64) -> Embedding {
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let mut emb = Embedding::new(dim);
    for i in 0..n {
        let mut v: Vec<f32> = (0..dim)
            .map(|_| rand::Rng::gen_range(&mut rng, -1.0f32..1.0))
            .collect();
        if i % 7 == 3 {
            v.iter_mut().for_each(|x| *x = 0.0);
        }
        if i % 11 == 5 {
            v[0] = f32::NAN;
        }
        emb.set(NodeId(i as u32), &v);
    }
    emb
}

/// Approximately-Gaussian components (sum of 12 uniforms − 6).
fn gaussian_embedding(n: usize, dim: usize, seed: u64) -> Embedding {
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let mut emb = Embedding::new(dim);
    for i in 0..n {
        let v: Vec<f32> = (0..dim)
            .map(|_| {
                (0..12)
                    .map(|_| rand::Rng::gen_range(&mut rng, 0.0f32..1.0))
                    .sum::<f32>()
                    - 6.0
            })
            .collect();
        emb.set(NodeId(i as u32), &v);
    }
    emb
}

/// `n` rows around `clusters` random centres (components uniform in
/// ±1, per-component noise uniform in ±0.3) — community-shaped like a
/// trained embedding, so partial-probe recall means something.
fn clustered_embedding(n: usize, dim: usize, clusters: usize, rng: &mut ChaCha8Rng) -> Embedding {
    let centres: Vec<f32> = (0..clusters * dim)
        .map(|_| rand::Rng::gen_range(&mut *rng, -1.0f32..1.0))
        .collect();
    let mut emb = Embedding::new(dim);
    for i in 0..n {
        let centre = &centres[(i % clusters) * dim..(i % clusters + 1) * dim];
        let v: Vec<f32> = centre
            .iter()
            .map(|c| c + rand::Rng::gen_range(&mut *rng, -0.3f32..0.3))
            .collect();
        emb.set(NodeId(i as u32), &v);
    }
    emb
}

/// Recall@10 of `index` at `nprobe` against the exact scan, over every
/// row as a probe.
fn recall_at_10(index: &IvfIndex, emb: &Embedding, nprobe: usize) -> f64 {
    let mut overlap = 0usize;
    let mut expected = 0usize;
    for &probe in emb.ids() {
        let exact = emb.top_k(probe, 10);
        let ann = index.search_in(emb, emb.get(probe).unwrap(), 10, nprobe, Some(probe));
        expected += exact.len();
        overlap += exact
            .iter()
            .filter(|(id, _)| ann.iter().any(|(aid, _)| aid == id))
            .count();
    }
    overlap as f64 / expected.max(1) as f64
}

fn longest_posting_list(index: &IvfIndex) -> usize {
    (0..index.cells())
        .map(|j| index.posting_list(j).len())
        .max()
        .unwrap_or(0)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(2))]

    /// The serving regime: 30 epochs, each perturbing ≥ 90 % of rows
    /// and adding and removing ~1 %, in f32 and SQ8. Every index after
    /// the first is a re-fit of the previous one's centroids. Every re-fit answers a
    /// full probe bit-exactly like the exact scan; a second, identical
    /// chain lays out identical posting lists; the longest list stays
    /// inside the imbalance bound; and at the end recall@10 at
    /// `nprobe = ⌈cells/10⌉` is within 0.02 of a cold build's.
    #[test]
    fn refit_chain_in_the_serving_regime(seed in 0u64..10_000) {
        let (n, dim, k) = (800usize, 8usize, 10usize);
        for quantize in [false, true] {
            let mut rng = ChaCha8Rng::seed_from_u64(seed);
            let mut emb = clustered_embedding(n, dim, 32, &mut rng);
            let cfg = IvfConfig {
                cells: 30,
                quantize,
                // A pool covering the epoch keeps SQ8 full probes exact.
                rerank_factor: n.div_ceil(k) + 1,
                ..Default::default()
            };
            let mut a = IvfIndex::build(&emb, &cfg);
            let mut b = a.clone();
            let mut next_id = n as u32;
            for epoch in 0..30 {
                let mut next = Embedding::new(dim);
                let mut dirty = Vec::new();
                for (id, v) in emb.iter() {
                    let roll = rand::Rng::gen_range(&mut rng, 0.0f32..1.0);
                    if roll < 0.01 {
                        continue; // removed
                    }
                    if roll < 0.96 {
                        let moved: Vec<f32> = v
                            .iter()
                            .map(|x| x + rand::Rng::gen_range(&mut rng, -0.05f32..0.05))
                            .collect();
                        next.set(id, &moved);
                        dirty.push(id);
                    } else {
                        next.set(id, v);
                    }
                }
                for _ in 0..n / 100 {
                    let donor = next.ids()[rand::Rng::gen_range(&mut rng, 0..next.len())];
                    let v = next.get(donor).unwrap().to_vec();
                    next.set(NodeId(next_id), &v);
                    next_id += 1;
                }
                prop_assert!(dirty.len() * 10 >= emb.len() * 9, "epoch {}: {} dirty", epoch, dirty.len());
                emb = next;

                let prev_longest = longest_posting_list(&a);
                a = IvfIndex::update_from(&a, &emb, &dirty, &cfg);
                b = IvfIndex::update_from(&b, &emb, &dirty, &cfg);
                prop_assert_eq!(a.cells(), cfg.cells);
                for j in 0..a.cells() {
                    prop_assert_eq!(a.posting_list(j), b.posting_list(j), "epoch {} cell {}", epoch, j);
                }
                // The re-fit's fall-back bound: 4× the larger of the
                // previous longest list and the ideal mean.
                let baseline = prev_longest.max(emb.len().div_ceil(a.cells()));
                prop_assert!(
                    longest_posting_list(&a) <= baseline * 4,
                    "epoch {}: longest list {} vs baseline {}", epoch, longest_posting_list(&a), baseline
                );
                for &probe in emb.ids().iter().step_by(37) {
                    let q = emb.get(probe).unwrap();
                    let ann = a.search_in(&emb, q, k, a.cells(), Some(probe));
                    let exact = emb.top_k(probe, k);
                    prop_assert_eq!(ann.len(), exact.len());
                    for (x, y) in ann.iter().zip(&exact) {
                        prop_assert_eq!(x.0, y.0);
                        prop_assert_eq!(x.1.to_bits(), y.1.to_bits());
                    }
                }
            }

            let nprobe = cfg.cells.div_ceil(10);
            let chain = recall_at_10(&a, &emb, nprobe);
            let cold = recall_at_10(&IvfIndex::build(&emb, &cfg), &emb, nprobe);
            prop_assert!(
                chain >= cold - 0.02,
                "quantize {}: chain recall@10 {} < cold {} - 0.02", quantize, chain, cold
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Build + search never panic — including the empty epoch, k = 0,
    /// k > n, a single cell, cells > n, nprobe = 0, nprobe > cells,
    /// zero vectors, and NaN rows — and the results always honour the
    /// contract: self excluded, no duplicates, at most k hits, sorted
    /// by `rank_similarity`.
    #[test]
    fn search_never_panics_and_output_is_well_formed(
        (n, dim) in (0usize..40, 1usize..9),
        seed in 0u64..500,
        cells in 1usize..50,
        kmeans_iters in 1usize..5,
        k in 0usize..50,
        nprobe in 0usize..60,
        probe in 0u32..50,
        quantize in (0u8..2).prop_map(|b| b == 1),
        rerank_factor in 1usize..5,
    ) {
        let emb = build_embedding(n, dim, seed);
        let cfg = IvfConfig { cells, kmeans_iters, seed, quantize, rerank_factor };
        let index = IvfIndex::build(&emb, &cfg);
        prop_assert_eq!(index.len(), n);
        prop_assert!(index.cells() <= cells.max(1));

        let probe = NodeId(probe);
        let hits = match emb.get(probe) {
            Some(q) => index.search(q, k, nprobe, Some(probe)),
            // Probe without an embedding: search an arbitrary query
            // vector instead (no exclusion).
            None => index.search(&vec![0.5f32; dim], k, nprobe, None),
        };
        prop_assert!(hits.len() <= k.min(n));
        prop_assert!(hits.iter().all(|&(id, _)| id != probe || emb.get(probe).is_none()));
        for w in hits.windows(2) {
            prop_assert!(
                rank_similarity(&w[0], &w[1]) != Ordering::Greater,
                "results must be sorted by rank_similarity"
            );
        }
        let mut ids: Vec<NodeId> = hits.iter().map(|&(id, _)| id).collect();
        ids.sort();
        ids.dedup();
        prop_assert_eq!(ids.len(), hits.len(), "no duplicate ids");

        // The re-ranking entry point honours the same contract on both
        // storage modes.
        let reranked = match emb.get(probe) {
            Some(q) => index.search_in(&emb, q, k, nprobe, Some(probe)),
            None => index.search_in(&emb, &vec![0.5f32; dim], k, nprobe, None),
        };
        prop_assert!(reranked.len() <= k.min(n));
        prop_assert!(reranked.iter().all(|&(id, _)| id != probe || emb.get(probe).is_none()));
        for w in reranked.windows(2) {
            prop_assert!(rank_similarity(&w[0], &w[1]) != Ordering::Greater);
        }
    }

    /// At `nprobe = cells` the candidate set is the whole epoch, so
    /// recall@10 against the executable spec (`reference_top_k`) is at
    /// least 0.9 on Gaussian embeddings. (It is in fact 1.0 — the
    /// kernel is shared bit-for-bit — but 0.9 is the contract.)
    #[test]
    fn full_probe_recall_at_10_is_high(
        n in 12usize..60,
        dim in 4usize..24,
        seed in 0u64..500,
        cells in 1usize..12,
    ) {
        let emb = gaussian_embedding(n, dim, seed);
        let cfg = IvfConfig { cells, ..Default::default() };
        let index = IvfIndex::build(&emb, &cfg);
        let mut overlap = 0usize;
        let mut expected = 0usize;
        for probe in (0..n as u32).step_by(5) {
            let probe = NodeId(probe);
            let exact = reference_top_k(&emb, probe, 10);
            let ann = index.search(emb.get(probe).unwrap(), 10, index.cells(), Some(probe));
            expected += exact.len();
            overlap += exact
                .iter()
                .filter(|(id, _)| ann.iter().any(|(aid, _)| aid == id))
                .count();
        }
        prop_assert!(expected > 0);
        let recall = overlap as f64 / expected as f64;
        prop_assert!(recall >= 0.9, "recall@10 = {recall} < 0.9 at nprobe = cells");
    }

    /// Rebuilding from the same embedding and config reproduces the
    /// same answers (the whole pipeline is deterministic).
    #[test]
    fn builds_are_reproducible(
        n in 1usize..30,
        seed in 0u64..200,
        cells in 1usize..8,
    ) {
        let emb = build_embedding(n, 6, seed);
        let cfg = IvfConfig { cells, ..Default::default() };
        let a = IvfIndex::build(&emb, &cfg);
        let b = IvfIndex::build(&emb, &cfg);
        for probe in 0..n as u32 {
            let probe = NodeId(probe);
            let q = emb.get(probe).unwrap();
            let ra = a.search(q, 5, 2, Some(probe));
            let rb = b.search(q, 5, 2, Some(probe));
            prop_assert_eq!(ra.len(), rb.len());
            for (x, y) in ra.iter().zip(&rb) {
                prop_assert_eq!(x.0, y.0);
                prop_assert_eq!(x.1.to_bits(), y.1.to_bits());
            }
        }
    }

    /// SQ8 round trip: every finite component dequantizes back within
    /// half a code step of its original value.
    #[test]
    fn sq8_round_trip_error_is_bounded(
        data in proptest::collection::vec(-100.0f32..100.0, 1..300),
    ) {
        let arena = Sq8Arena::quantize(&data);
        let bound = arena.max_component_error() * 1.001 + 1e-5;
        for (i, &x) in data.iter().enumerate() {
            let back = arena.dequantize(arena.row(i, 1)[0]);
            prop_assert!(
                (back - x).abs() <= bound,
                "i={} x={} back={} bound={}", i, x, back, bound
            );
        }
    }

    /// Quantized storage, full probe, and a re-rank pool covering every
    /// candidate: `search_in` must be **bit-exact** with the exact scan
    /// — the pool is the whole epoch and the re-rank is the exact
    /// kernel, so quantization cannot cost recall.
    #[test]
    fn quantized_full_probe_with_covering_rerank_is_exact(
        n in 5usize..60,
        dim in 2usize..16,
        seed in 0u64..300,
        cells in 1usize..8,
    ) {
        let emb = gaussian_embedding(n, dim, seed);
        let k = 10usize;
        let cfg = IvfConfig {
            cells,
            quantize: true,
            // Pool of rerank_factor·k >= n: every candidate is rescored
            // exactly.
            rerank_factor: n.div_ceil(k),
            ..Default::default()
        };
        let index = IvfIndex::build(&emb, &cfg);
        for probe in (0..n as u32).step_by(3) {
            let probe = NodeId(probe);
            let exact = reference_top_k(&emb, probe, k);
            let ann = index.search_in(&emb, emb.get(probe).unwrap(), k, index.cells(), Some(probe));
            prop_assert_eq!(ann.len(), exact.len());
            for (a, e) in ann.iter().zip(&exact) {
                prop_assert_eq!(a.0, e.0);
                prop_assert_eq!(a.1.to_bits(), e.1.to_bits());
            }
        }
    }

    /// Random churn streams: mutate/add rows step by step, follow them
    /// with an `update_from` chain, and compare a full probe against a
    /// fresh cold build of the same embedding. At `nprobe = cells` both
    /// scan every row with the exact kernel, so the result sets must be
    /// **identical bit for bit** no matter how the re-fits laid out the
    /// posting lists.
    #[test]
    fn update_from_chain_full_probe_matches_fresh_full_build(
        n in 12usize..48,
        dim in 2usize..10,
        seed in 0u64..200,
        cells in 1usize..6,
        steps in 1usize..4,
        quantize in (0u8..2).prop_map(|b| b == 1),
    ) {
        let mut emb = gaussian_embedding(n, dim, seed);
        let k = 10usize;
        let cfg = IvfConfig {
            cells,
            quantize,
            // Pool covers any epoch this test grows, so SQ8 full probes
            // are exact too.
            rerank_factor: 16,
            ..Default::default()
        };
        let mut index = IvfIndex::build(&emb, &cfg);
        let mut rng = ChaCha8Rng::seed_from_u64(seed ^ 0x9e37_79b9);
        for _ in 0..steps {
            // Churn ~10% of rows: mutate existing ids and append a new
            // one past the current population.
            let mut dirty = Vec::new();
            for _ in 0..(n / 10).max(1) {
                let id = NodeId(rand::Rng::gen_range(&mut rng, 0..emb.len() as u32 + 1));
                let v: Vec<f32> = (0..dim)
                    .map(|_| rand::Rng::gen_range(&mut rng, -1.0f32..1.0))
                    .collect();
                emb.set(id, &v);
                dirty.push(id);
            }
            index = IvfIndex::update_from(&index, &emb, &dirty, &cfg);
            let fresh = IvfIndex::build(&emb, &cfg);
            prop_assert_eq!(index.len(), fresh.len());
            prop_assert_eq!(index.cells(), fresh.cells());
            for probe in (0..emb.len() as u32).step_by(4) {
                let probe = NodeId(probe);
                let q = emb.get(probe).unwrap();
                let a = index.search_in(&emb, q, k, index.cells(), Some(probe));
                let b = fresh.search_in(&emb, q, k, fresh.cells(), Some(probe));
                prop_assert_eq!(a.len(), b.len());
                for (x, y) in a.iter().zip(&b) {
                    prop_assert_eq!(x.0, y.0);
                    prop_assert_eq!(x.1.to_bits(), y.1.to_bits());
                }
            }
        }
    }

    /// The batch scan (grouped or looped) must be bit-exact per query with the
    /// per-query scan — same hits, same scores to the bit — for both
    /// storage modes, partial and full probes, including queries that
    /// share cells, dimension-mismatched queries, and k > n.
    #[test]
    fn grouped_batch_scan_is_bit_exact_with_per_query_scan(
        (n, dim) in (1usize..40, 1usize..9),
        seed in 0u64..300,
        cells in 1usize..10,
        k in 1usize..20,
        nprobe in 1usize..12,
        batch in 1usize..9,
        quantize in (0u8..2).prop_map(|b| b == 1),
    ) {
        let emb = build_embedding(n, dim, seed);
        let cfg = IvfConfig { cells, quantize, ..Default::default() };
        let index = IvfIndex::build(&emb, &cfg);

        let bad_dim = vec![0.5f32; dim + 1];
        let queries: Vec<BatchQuery> = (0..batch)
            .map(|b| {
                let probe = NodeId(((b * 13) % n.max(1)) as u32);
                match emb.get(probe) {
                    // Every 5th query is dimension-mismatched: its slot
                    // must come back empty without poisoning the batch.
                    _ if b % 5 == 4 => BatchQuery { query: &bad_dim, exclude: None },
                    Some(q) => BatchQuery { query: q, exclude: Some(probe) },
                    None => BatchQuery { query: &bad_dim[..dim], exclude: None },
                }
            })
            .collect();

        let scratch = &mut SearchScratch::new();
        let grouped = index.search_in_batch_with(&emb, &queries, k, nprobe, scratch);
        prop_assert_eq!(grouped.len(), queries.len());
        for (q, batch_hits) in queries.iter().zip(&grouped) {
            let solo = index.search_in(&emb, q.query, k, nprobe, q.exclude);
            prop_assert_eq!(batch_hits.len(), solo.len());
            for (x, y) in batch_hits.iter().zip(&solo) {
                prop_assert_eq!(x.0, y.0);
                prop_assert_eq!(x.1.to_bits(), y.1.to_bits());
            }
        }

        // The storage-level batch entry point honours the same pin.
        let grouped = index.search_batch_with(&queries, k, nprobe, scratch);
        for (q, batch_hits) in queries.iter().zip(&grouped) {
            let solo = index.search(q.query, k, nprobe, q.exclude);
            prop_assert_eq!(batch_hits.len(), solo.len());
            for (x, y) in batch_hits.iter().zip(&solo) {
                prop_assert_eq!(x.0, y.0);
                prop_assert_eq!(x.1.to_bits(), y.1.to_bits());
            }
        }
    }
}
