//! Output checks and the two quality metrics, all read over the wire
//! and judged against the benchmark's own mirror graph.
//!
//! Two behaviours of the seed commit shape what is asserted here. An
//! unsharded server never drops the row of a removed node, so
//! `not_found` for a removed node is asserted only where it holds
//! (sharded) and counted as `ghost_rows` elsewhere; and a live node
//! may have no row yet (no walk has reached it, or its shard's
//! largest component excludes it), so `stats.nodes` is bounded by the
//! mirror, not pinned to it, on an unsharded server.

use crate::gen::{Mirror, Rng};
use crate::json::Json;
use crate::lifecycle::{lines, sample, Ops};
use crate::wire::Conn;
use crate::workloads::{DIM, TOP_K};
use std::collections::BTreeMap;
use std::io;

/// Probes of the recall measurement.
const RECALL_PROBES: usize = 500;
/// Nodes of the graph-reconstruction measurement.
const MEANP_NODES: usize = 1000;
/// Probes whose exact reply is recomputed by the benchmark.
const SCAN_PROBES: usize = 50;
/// Vectors fetched for that recomputation (every served node when
/// there are fewer).
const SCAN_VECTORS: usize = 2048;
/// Probes per `nearest_batch` of the quality measurements.
const QUALITY_BATCH: usize = 50;
/// Tolerance between a served f32 similarity and the benchmark's f64
/// cosine over the served f32 vectors.
const SIM_TOLERANCE: f64 = 1e-4;

/// Named pass/fail checks of one run.
#[derive(Debug, Default, Clone)]
pub struct Oracle {
    /// `(what was checked, whether it held)`; one entry per name, a
    /// failure anywhere sticks.
    pub checks: BTreeMap<String, bool>,
}

impl Oracle {
    /// Record the outcome of a check.
    pub fn check(&mut self, what: &str, held: bool) {
        *self.checks.entry(what.to_string()).or_insert(true) &= held;
    }

    /// Whether every check held.
    pub fn correct(&self) -> bool {
        self.checks.values().all(|&ok| ok)
    }

    /// The checks that failed.
    pub fn failures(&self) -> Vec<&str> {
        self.checks
            .iter()
            .filter(|(_, &ok)| !ok)
            .map(|(what, _)| what.as_str())
            .collect()
    }
}

/// One probe's neighbours, best first; `None` for an unknown probe.
pub type Hits = Option<Vec<(u32, f64)>>;

fn hits_of(value: &Json) -> Hits {
    value
        .as_arr()?
        .iter()
        .map(|pair| {
            let pair = pair.as_arr()?;
            Some((pair.first()?.as_u64()? as u32, pair.get(1)?.as_f64()?))
        })
        .collect()
}

/// The per-probe results of a `nearest_batch` reply, `None` when the
/// reply is not a success.
pub fn batch_results(reply: &Json) -> Option<Vec<Hits>> {
    if reply.get("ok")?.as_bool()? {
        let results = reply.get("results")?.as_arr()?;
        Some(
            results
                .iter()
                .map(|r| r.get("neighbours").and_then(hits_of))
                .collect(),
        )
    } else {
        None
    }
}

/// WAL events the server says its recovery replayed, from
/// `stats.durability.recovered_from` ("… + N wal events").
pub fn replayed_events(stats: &Json) -> Option<u64> {
    let from = stats.path(&["durability", "recovered_from"])?.as_str()?;
    let head = from.strip_suffix(" wal events")?;
    head.rsplit(' ').next()?.parse().ok()
}

/// The paper's graph-reconstruction MeanP@k over `nodes`: the share of
/// a node's `k` most similar nodes that are its true neighbours,
/// `hits / min(k, degree)`, averaged; a node without an answer scores
/// 0, a node without neighbours is skipped. The same definition as
/// `glodyne_tasks::gr::mean_precision_at_k` (a unit test pins the two
/// equal), fed with wire replies instead of an in-process embedding.
pub fn mean_precision(mirror: &Mirror, nodes: &[u32], results: &[Hits], k: usize) -> f64 {
    let (mut sum, mut asked) = (0.0, 0usize);
    for (&node, hits) in nodes.iter().zip(results) {
        let degree = mirror.degree(node);
        if degree == 0 {
            continue;
        }
        asked += 1;
        if let Some(hits) = hits {
            let found = hits
                .iter()
                .take(k)
                .filter(|(m, _)| mirror.has_edge(node, *m))
                .count();
            sum += found as f64 / k.min(degree) as f64;
        }
    }
    sum / asked.max(1) as f64
}

/// Share of the exact top-`k` that the approximate top-`k` found.
pub fn recall(exact: &[Hits], approx: &[Hits], k: usize) -> f64 {
    let (mut found, mut wanted) = (0usize, 0usize);
    for (e, a) in exact.iter().zip(approx) {
        let Some(e) = e else { continue };
        let truth: Vec<u32> = e.iter().take(k).map(|h| h.0).collect();
        wanted += truth.len();
        if let Some(a) = a {
            found += a.iter().take(k).filter(|h| truth.contains(&h.0)).count();
        }
    }
    found as f64 / wanted.max(1) as f64
}

fn cosine(a: &[f32], b: &[f32]) -> f64 {
    let dot: f64 = a.iter().zip(b).map(|(x, y)| *x as f64 * *y as f64).sum();
    let na: f64 = a.iter().map(|x| (*x as f64).powi(2)).sum::<f64>().sqrt();
    let nb: f64 = b.iter().map(|x| (*x as f64).powi(2)).sum::<f64>().sqrt();
    if na == 0.0 || nb == 0.0 {
        0.0
    } else {
        dot / (na * nb)
    }
}

/// Check one exact reply against the benchmark's own cosine scan over
/// `vectors` (a subset of the epoch): every scanned node more similar
/// than the reply's last entry must be in the reply, and every reply
/// entry that was scanned must carry the similarity the scan computes.
/// With every row scanned this is equality with a full scan.
pub fn agrees_with_scan(
    probe: u32,
    hits: &[(u32, f64)],
    vectors: &BTreeMap<u32, Vec<f32>>,
) -> bool {
    let Some(q) = vectors.get(&probe) else {
        return false;
    };
    let floor = hits.last().map_or(f64::NEG_INFINITY, |h| h.1);
    let full = hits.len() == TOP_K;
    vectors.iter().filter(|(&n, _)| n != probe).all(|(&n, v)| {
        let sim = cosine(q, v);
        match hits.iter().find(|h| h.0 == n) {
            Some(h) => (h.1 - sim).abs() <= SIM_TOLERANCE,
            None => full && sim <= floor + SIM_TOLERANCE,
        }
    })
}

/// Inputs of the quality measurement.
pub struct Quality<'a> {
    /// Benchmark seed (probe choice).
    pub seed: u64,
    /// The graph the server should hold.
    pub mirror: &'a Mirror,
    /// Live nodes the server answers for.
    pub served: &'a [u32],
    /// Nodes removed during the write phase.
    pub removed: &'a [u32],
    /// Whether the server is sharded.
    pub sharded: bool,
}

/// What the quality measurement found.
pub struct QualityResult {
    /// |ann top-10 ∩ exact top-10| / 10 over the recall probes.
    pub recall_at_10: f64,
    /// MeanP@10 of the wire-exact top-10 against the mirror.
    pub gr_meanp_at_10: f64,
    /// Removed nodes the server still answers `query` for.
    pub ghost_rows: usize,
    /// The `stats` reply the node count was checked on.
    pub stats: Json,
}

impl Quality<'_> {
    fn batches(
        &self,
        conn: &mut Conn,
        nodes: &[u32],
        mode: &str,
        ops: &mut Ops,
    ) -> io::Result<Vec<Hits>> {
        let mut out = Vec::with_capacity(nodes.len());
        for chunk in nodes.chunks(QUALITY_BATCH) {
            let reply = conn.call_json(&lines::batch(chunk, mode))?;
            let results = batch_results(&reply).filter(|r| r.len() == chunk.len());
            ops.count(results.is_some());
            out.extend(
                results.ok_or_else(|| io::Error::other(format!("bad batch reply: {reply}")))?,
            );
        }
        Ok(out)
    }

    /// Measure recall and MeanP and run every output check.
    pub fn measure(
        &self,
        conn: &mut Conn,
        oracle: &mut Oracle,
        ops: &mut Ops,
    ) -> io::Result<QualityResult> {
        let mut rng = Rng::new(self.seed, 7);

        // recall@10: ann against exact on the same probes.
        let probes = sample(self.served, RECALL_PROBES, &mut rng);
        let exact = self.batches(conn, &probes, "exact", ops)?;
        let approx = self.batches(conn, &probes, "ann", ops)?;
        let recall_at_10 = recall(&exact, &approx, TOP_K);

        // MeanP@10 over live nodes, served or not.
        let live = self.mirror.live_nodes();
        let nodes = sample(&live, MEANP_NODES, &mut rng);
        let topk = self.batches(conn, &nodes, "exact", ops)?;
        let gr_meanp_at_10 = mean_precision(self.mirror, &nodes, &topk, TOP_K);

        // Exact replies are sorted, exclude the probe, and hold k hits.
        let well_formed = probes
            .iter()
            .zip(&exact)
            .chain(nodes.iter().zip(&topk))
            .all(|(&probe, hits)| {
                hits.as_ref().is_none_or(|hits| {
                    hits.windows(2).all(|w| w[0].1 >= w[1].1)
                        && hits.iter().all(|h| h.0 != probe)
                        && hits.len() <= TOP_K
                })
            });
        oracle.check(
            "exact replies are sorted by similarity and exclude the probe",
            well_formed,
        );
        oracle.check(
            "served probes get a full top-10",
            exact
                .iter()
                .all(|h| h.as_ref().is_some_and(|h| h.len() == TOP_K)),
        );

        // stats.nodes against the mirror.
        let stats = conn.call_json("{\"cmd\":\"stats\"}")?;
        ops.count(true);
        let reported = stats.get("nodes").and_then(Json::as_u64).unwrap_or(0) as usize;
        let dim = stats.get("dim").and_then(Json::as_u64).unwrap_or(0) as usize;
        let nodes_ok = if self.sharded {
            reported == self.mirror.num_live()
        } else {
            // Rows are never dropped and appear once a walk reaches
            // the node: at least the nodes served, at most every id.
            reported >= self.served.len() && reported <= self.mirror.id_bound() as usize
        };
        oracle.check("stats.nodes agrees with the mirror graph", nodes_ok);
        oracle.check("stats.dim is the configured width", dim == DIM);

        // Sampled vectors: dim finite floats; also the scan's input.
        let scan_nodes = sample(self.served, SCAN_VECTORS, &mut rng);
        let mut vectors = BTreeMap::new();
        let mut vectors_ok = true;
        for &n in &scan_nodes {
            let reply = conn.call_json(&lines::query(n))?;
            let v: Option<Vec<f32>> = reply.get("vector").and_then(Json::as_arr).map(|a| {
                a.iter()
                    .filter_map(Json::as_f64)
                    .map(|x| x as f32)
                    .collect()
            });
            let ok = v
                .as_ref()
                .is_some_and(|v| v.len() == DIM && v.iter().all(|x| x.is_finite()));
            ops.count(ok);
            vectors_ok &= ok;
            if let Some(v) = v.filter(|_| ok) {
                vectors.insert(n, v);
            }
        }
        oracle.check("query returns dim finite floats", vectors_ok);

        // Removed nodes.
        let mut ghost_rows = 0;
        for &n in self.removed.iter().filter(|&&n| self.mirror.degree(n) == 0) {
            let reply = conn.call_json(&lines::query(n))?;
            let gone = reply.get("kind").and_then(Json::as_str) == Some("not_found");
            let answered = reply.get("ok").and_then(Json::as_bool) == Some(true);
            ops.count(gone || answered);
            ghost_rows += usize::from(answered);
        }
        if self.sharded {
            oracle.check("a removed node returns not_found", ghost_rows == 0);
        }

        // The benchmark's own cosine scan. Fan-out replies merge owner
        // rows from several epochs, so this is pinned unsharded only.
        if !self.sharded {
            let scan_probes = sample(&scan_nodes, SCAN_PROBES, &mut rng);
            let replies = self.batches(conn, &scan_probes, "exact", ops)?;
            let agree = scan_probes.iter().zip(&replies).all(|(&p, hits)| {
                hits.as_ref()
                    .is_some_and(|h| agrees_with_scan(p, h, &vectors))
            });
            oracle.check("exact replies equal the benchmark's own cosine scan", agree);
        }

        Ok(QualityResult {
            recall_at_10,
            gr_meanp_at_10,
            ghost_rows,
            stats,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::Event;
    use glodyne_embed::Embedding;
    use glodyne_graph::id::{Edge, NodeId};
    use glodyne_graph::Snapshot;

    /// A fixed graph and a fixed embedding with no similarity ties.
    fn fixture() -> (Vec<(u32, u32)>, Embedding) {
        let mut rng = Rng::new(5, 0);
        let n = 60u32;
        let mut edges = Vec::new();
        for u in 0..n {
            for d in 1..=3 {
                edges.push((u, (u + d) % n));
            }
            edges.push((u, rng.below(n as u64) as u32));
        }
        let mut emb = Embedding::new(8);
        for u in 0..n {
            // Neighbours on the ring get similar vectors, plus noise.
            let angle = u as f32 / n as f32 * std::f32::consts::TAU;
            let v: Vec<f32> = (0..8)
                .map(|j| (angle * (j + 1) as f32).cos() + 0.3 * rng.unit() as f32)
                .collect();
            emb.set(NodeId(u), &v);
        }
        (edges, emb)
    }

    #[test]
    fn meanp_equals_the_task_crates_definition() {
        let (edges, emb) = fixture();
        let mut mirror = Mirror::default();
        for &(u, v) in &edges {
            mirror.apply(Event::Add(u, v));
        }
        let es: Vec<Edge> = mirror
            .edges()
            .map(|(u, v)| Edge::new(NodeId(u), NodeId(v)))
            .collect();
        let snapshot = Snapshot::from_edges(&es, &[]);
        let reference = glodyne_tasks::gr::mean_precision_at_k(&emb, &snapshot, &[TOP_K])[0];

        let nodes = mirror.live_nodes();
        let results: Vec<Hits> = nodes
            .iter()
            .map(|&n| {
                Some(
                    emb.top_k(NodeId(n), TOP_K)
                        .into_iter()
                        .map(|(id, s)| (id.0, s as f64))
                        .collect(),
                )
            })
            .collect();
        let ours = mean_precision(&mirror, &nodes, &results, TOP_K);
        assert!(
            reference > 0.2 && reference < 1.0,
            "degenerate fixture: {reference}"
        );
        assert!((ours - reference).abs() < 1e-12, "{ours} vs {reference}");
    }

    #[test]
    fn meanp_scores_unanswered_nodes_zero_and_skips_isolated_ones() {
        let mut mirror = Mirror::default();
        mirror.apply(Event::Add(0, 1));
        mirror.apply(Event::Add(0, 2));
        let nodes = [0, 1, 9];
        let results = vec![Some(vec![(1, 0.9), (5, 0.8), (2, 0.7)]), None, None];
        // node 0: 2 hits / min(10, 2); node 1: unanswered = 0; node 9
        // has no neighbours and is skipped.
        assert_eq!(mean_precision(&mirror, &nodes, &results, 10), 0.5);
    }

    #[test]
    fn recall_counts_overlap_per_probe() {
        let exact = vec![
            Some(vec![(1, 0.9), (2, 0.8)]),
            Some(vec![(3, 0.9), (4, 0.8)]),
            None,
        ];
        let approx = vec![Some(vec![(2, 0.8), (7, 0.1)]), None, None];
        assert_eq!(recall(&exact, &approx, 2), 0.25);
    }

    #[test]
    fn scan_check_catches_a_wrong_neighbour_and_a_wrong_score() {
        let (_, emb) = fixture();
        let vectors: BTreeMap<u32, Vec<f32>> =
            emb.iter().map(|(id, v)| (id.0, v.to_vec())).collect();
        let good: Vec<(u32, f64)> = emb
            .top_k(NodeId(3), TOP_K)
            .into_iter()
            .map(|(id, s)| (id.0, s as f64))
            .collect();
        assert!(agrees_with_scan(3, &good, &vectors));
        let mut wrong_score = good.clone();
        wrong_score[0].1 -= 0.01;
        assert!(!agrees_with_scan(3, &wrong_score, &vectors));
        // Drop the best hit and shift: a more similar node is missing.
        let mut missing = good[1..].to_vec();
        missing.push((good[0].0 + 30, good[9].1 - 0.2));
        assert!(!agrees_with_scan(3, &missing, &vectors));
    }

    #[test]
    fn reads_the_recovery_provenance() {
        let stats = crate::json::parse(
            r#"{"durability":{"recovered_from":"snapshot seq 3401 (epoch 17) + 400 wal events"}}"#,
        )
        .unwrap();
        assert_eq!(replayed_events(&stats), Some(400));
        assert_eq!(replayed_events(&Json::Null), None);
    }

    #[test]
    fn a_failed_check_sticks() {
        let mut o = Oracle::default();
        o.check("a", true);
        o.check("a", false);
        o.check("a", true);
        o.check("b", true);
        assert!(!o.correct());
        assert_eq!(o.failures(), vec!["a"]);
    }
}
