//! `nearest` micro-benchmark: the exact heap-select scan
//! (`Embedding::top_k`) against the IVF index (`glodyne-ann`), on
//! embedding-shaped data — a mixture of Gaussian direction clusters,
//! which is what trained graph embeddings look like (communities).
//!
//! Emits one machine-readable JSON file (default `BENCH_nearest.json`)
//! with, per size tier:
//!
//! - the legacy comparable columns (exact/ann q/s, speedup, recall@10,
//!   build_ms) measured with f32 posting lists and per-query scratch,
//!   so rows stay comparable across benchmark generations;
//! - the SQ8 tier: quantized-scan + exact-re-rank q/s, recall@10,
//!   index bytes, and the compression ratio against f32 storage;
//! - a batch sweep ({1, 16, 64} probes per `SearchScratch`): the
//!   per-query loop for both storage modes (`batch`), and the f32
//!   batch entry point, grouped at batch ≥ 2 (`batch_grouped`) —
//!   mirroring the serving layer's `nearest_batch`;
//! - a freshness row: `update_from` with every row perturbed (the
//!   re-fit, the serving regime) against a cold build of the same
//!   epoch.
//!
//! A top-level `kernel` object reports the measured similarity-kernel
//! bandwidth (GB/s) for the exact dot row by row (`gbps_exact`), the
//! exact dot eight rows per pass (`gbps_exact_rows`) and the
//! SIMD-shaped fast dot (`gbps_fast`).
//!
//! `--assert-recall <t>` exits nonzero if any reported recall@10
//! against the exact top-10 (f32, SQ8, or the re-fit row) lands below
//! `t` — CI's bench-smoke uses this to pin the quantized re-rank
//! contract and the re-fit's quality. `--assert-grouped-speedup <r>`
//! exits nonzero unless, on the largest tier, the grouped f32 batch
//! runs at ≥ `r`× the q/s of the per-query loop over the same probes at
//! the sweep's largest batch.
//!
//! Two serving-observability sections ride the largest size tier:
//!
//! - `telemetry_overhead`: the same query loop with and without the
//!   per-request instrumentation the server performs (an `Instant`
//!   pair plus one lock-free histogram record), best-of-3 passes each.
//!   Reported, not gated: it measures −3.5 … +1.4 %, inside block noise.
//! - `probe_recall_at_10`: the serving layer's quality-probe
//!   definition (`glodyne_serve::probe_recall`) evaluated offline on
//!   the clustered embedding + IVF epoch; `--assert-probe-recall <t>`
//!   pins its floor in CI.
//! - `chaos_overhead`: the same loop with and without the *disarmed*
//!   failpoint checks the serving hot path now carries (one
//!   `fail_io` + one `shed` per request — each a relaxed atomic load
//!   when no failpoint is armed). Reported, not gated, for the same
//!   reason.
//!
//! ```text
//! cargo run --release -p glodyne-bench --bin bench_nearest
//! cargo run --release -p glodyne-bench --bin bench_nearest -- \
//!     --sizes 1000,10000,100000 --dim 128 --queries 200 \
//!     --assert-recall 0.95 --assert-probe-recall 0.9 \
//!     --out BENCH_nearest.json
//! ```

use glodyne_ann::{BatchQuery, IvfConfig, IvfIndex, SearchScratch};
use glodyne_bench::args::Args;
use glodyne_embed::kernel::{dot_exact, dot_exact_run, dot_fast};
use glodyne_embed::walks::splitmix64_next;
use glodyne_embed::Embedding;
use glodyne_graph::NodeId;
use glodyne_serve::{probe_recall, EmbeddingEpoch};
use glodyne_telemetry::Registry;
use std::sync::Arc;
use std::time::Instant;

const K: usize = 10;
const BATCH_SIZES: [usize; 3] = [1, 16, 64];

/// SplitMix64 stream over the workspace's shared generator.
struct SplitMix(u64);

impl SplitMix {
    fn next_u64(&mut self) -> u64 {
        splitmix64_next(&mut self.0)
    }

    fn uniform(&mut self) -> f64 {
        // 53 mantissa bits -> (0, 1).
        ((self.next_u64() >> 11) as f64 + 0.5) / (1u64 << 53) as f64
    }

    /// Standard normal via Box-Muller.
    fn gaussian(&mut self) -> f32 {
        let u1 = self.uniform();
        let u2 = self.uniform();
        ((-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos()) as f32
    }
}

/// `n` rows of dimension `dim` drawn around `clusters` Gaussian centres
/// (centre components ~ N(0,1), within-cluster noise sd 0.25) — tight
/// direction clusters, like the communities a trained embedding forms.
fn clustered_embedding(n: usize, dim: usize, clusters: usize, seed: u64) -> Embedding {
    let mut rng = SplitMix(seed);
    let centres: Vec<f32> = (0..clusters * dim).map(|_| rng.gaussian()).collect();
    let mut emb = Embedding::new(dim);
    let mut row = vec![0.0f32; dim];
    for i in 0..n {
        let centre = &centres[(i % clusters) * dim..(i % clusters + 1) * dim];
        for (x, &c) in row.iter_mut().zip(centre) {
            *x = c + 0.25 * rng.gaussian();
        }
        emb.set(NodeId(i as u32), &row);
    }
    emb
}

/// Measured kernel bandwidth: GB/s of matrix traffic through each dot
/// kernel (one `rows × dim` pass streams `rows·dim·4` bytes). The exact
/// kernel is measured both row by row (`dot_exact`) and eight rows per
/// pass (`dot_exact_run`, the shape every exact all-rows scan uses).
struct KernelResult {
    rows: usize,
    gbps_exact: f64,
    gbps_exact_rows: f64,
    gbps_fast: f64,
}

fn bench_kernel(dim: usize, seed: u64) -> KernelResult {
    // ~2 MiB of matrix at d=128: larger than L2 on small parts, so
    // this measures streaming throughput, not cache residency.
    let rows = 4096;
    let mut rng = SplitMix(seed ^ 0x9e37_79b9);
    let data: Vec<f32> = (0..rows * dim).map(|_| rng.gaussian()).collect();
    let query: Vec<f32> = (0..dim).map(|_| rng.gaussian()).collect();

    // `pass` scores the query against every row once.
    let gbps = |pass: &dyn Fn(&mut f32)| {
        let passes = 64usize;
        let mut sink = 0.0f32;
        // Warm pass, then timed passes.
        pass(&mut sink);
        let start = Instant::now();
        for _ in 0..passes {
            pass(&mut sink);
        }
        let secs = start.elapsed().as_secs_f64();
        std::hint::black_box(sink);
        (passes * rows * dim * 4) as f64 / secs / 1e9
    };
    let per_row = |dot: fn(&[f32], &[f32]) -> f32| {
        let (data, query) = (&data, &query);
        move |sink: &mut f32| {
            for row in data.chunks_exact(dim) {
                *sink += dot(query, row);
            }
        }
    };

    KernelResult {
        rows,
        gbps_exact: gbps(&per_row(dot_exact)),
        gbps_exact_rows: gbps(&|sink| dot_exact_run(&query, &data, rows, |_, dot| *sink += dot)),
        gbps_fast: gbps(&per_row(dot_fast)),
    }
}

struct BatchPoint {
    batch: usize,
    f32_qps: f64,
    sq8_qps: f64,
}

/// One point of the grouped batch sweep: the same f32 probes answered
/// through `search_in_batch_with`, which (at a partial probe, batch ≥ 2)
/// sweeps each probed posting list once per group of up to four
/// queries through the fused kernel. SQ8 batches run the per-query
/// loop, which `batch` already measures, so only f32 is swept here.
struct GroupedPoint {
    batch: usize,
    f32_qps: f64,
}

/// The serving regime's freshness axis: every row perturbed (SGNS
/// touches ~all rows per step), and `update_from` re-fits the previous
/// centroids with one Lloyd step — against a cold k-means build of the
/// same epoch.
struct RefitResult {
    dirty_rows: usize,
    cold_ms: f64,
    refit_ms: f64,
    /// `cold_ms / refit_ms`.
    speedup: f64,
    /// Recall@10 of the re-fit index against the exact top-10.
    recall_at_10: f64,
    /// Recall@10 of the cold build against the exact top-10.
    cold_recall_at_10: f64,
    /// `"full"`: the re-fit reassigns every row.
    build_kind: &'static str,
}

struct SizeResult {
    n: usize,
    cells: usize,
    nprobe: usize,
    // f32 storage, per-query scratch — comparable across generations.
    build_ms: f64,
    exact_qps: f64,
    ann_qps: f64,
    speedup: f64,
    recall_at_10: f64,
    index_bytes: usize,
    // SQ8 storage with exact re-rank.
    sq8_build_ms: f64,
    sq8_qps: f64,
    sq8_recall_at_10: f64,
    sq8_index_bytes: usize,
    sq8_compression: f64,
    // Scratch-reuse sweep, both storage modes.
    batch: Vec<BatchPoint>,
    // Grouped f32 batch sweep over the same points.
    batch_grouped: Vec<GroupedPoint>,
    // Re-fit axis (every row dirty).
    refit: RefitResult,
}

fn recall(exact: &[Vec<(NodeId, f32)>], approx: &[Vec<(NodeId, f32)>]) -> f64 {
    let mut overlap = 0usize;
    let mut expected = 0usize;
    for (e, a) in exact.iter().zip(approx) {
        expected += e.len();
        overlap += e
            .iter()
            .filter(|(id, _)| a.iter().any(|(aid, _)| aid == id))
            .count();
    }
    overlap as f64 / expected.max(1) as f64
}

/// Queries/sec through `index.search_in_with` with one scratch per
/// `batch` probes — the serving layer's `nearest_batch` access pattern.
fn batched_qps(
    index: &IvfIndex,
    emb: &Embedding,
    probes: &[NodeId],
    nprobe: usize,
    batch: usize,
) -> f64 {
    let start = Instant::now();
    for chunk in probes.chunks(batch) {
        let mut scratch = SearchScratch::new();
        for &p in chunk {
            let hits =
                index.search_in_with(emb, emb.get(p).unwrap(), K, nprobe, Some(p), &mut scratch);
            std::hint::black_box(hits);
        }
    }
    probes.len() as f64 / start.elapsed().as_secs_f64()
}

/// Queries/sec through `search_in_batch_with` with one scratch per
/// `batch` probes — the serving layer's `nearest_batch` access pattern.
/// Bit-exact with [`batched_qps`]'s per-query scans; only the
/// posting-list traversal order differs.
fn grouped_qps(
    index: &IvfIndex,
    emb: &Embedding,
    probes: &[NodeId],
    nprobe: usize,
    batch: usize,
) -> f64 {
    let start = Instant::now();
    for chunk in probes.chunks(batch) {
        let mut scratch = SearchScratch::new();
        let queries: Vec<BatchQuery<'_>> = chunk
            .iter()
            .map(|&p| BatchQuery {
                query: emb.get(p).unwrap(),
                exclude: Some(p),
            })
            .collect();
        let hits = index.search_in_batch_with(emb, &queries, K, nprobe, &mut scratch);
        std::hint::black_box(hits);
    }
    probes.len() as f64 / start.elapsed().as_secs_f64()
}

/// `emb` (ids `0..n`) with every row nudged by N(0, 0.05²) noise, plus
/// the list of nudged ids.
fn perturb(emb: &Embedding, seed: u64) -> (Embedding, Vec<NodeId>) {
    let mut rng = SplitMix(seed ^ 0xD1F7_BEEF);
    let mut perturbed = emb.clone();
    let mut dirty = Vec::with_capacity(emb.len());
    for i in 0..emb.len() {
        let id = NodeId(i as u32);
        let mut row = perturbed.get(id).unwrap().to_vec();
        for x in &mut row {
            *x += 0.05 * rng.gaussian();
        }
        perturbed.set(id, &row);
        dirty.push(id);
    }
    (perturbed, dirty)
}

/// Every probe's top-`K` through `index.search_in_with` at `nprobe`.
fn answers(
    index: &IvfIndex,
    emb: &Embedding,
    probes: &[NodeId],
    nprobe: usize,
) -> Vec<Vec<(NodeId, f32)>> {
    let mut scratch = SearchScratch::new();
    probes
        .iter()
        .map(|&p| index.search_in_with(emb, emb.get(p).unwrap(), K, nprobe, Some(p), &mut scratch))
        .collect()
}

/// The serving regime: perturb every row, then time a cold build
/// against `update_from(index, .., all ids)` — the re-fit — and
/// score both against the exact top-10 of the perturbed epoch.
fn bench_refit(
    index: &IvfIndex,
    emb: &Embedding,
    cfg: &IvfConfig,
    probes: &[NodeId],
    nprobe: usize,
    seed: u64,
) -> RefitResult {
    let (perturbed, dirty) = perturb(emb, seed.wrapping_add(1));

    let start = Instant::now();
    let cold = IvfIndex::build(&perturbed, cfg);
    let cold_ms = start.elapsed().as_secs_f64() * 1e3;
    let start = Instant::now();
    let refit = IvfIndex::update_from(index, &perturbed, &dirty, cfg);
    let refit_ms = start.elapsed().as_secs_f64() * 1e3;

    let exact: Vec<Vec<(NodeId, f32)>> = probes.iter().map(|&p| perturbed.top_k(p, K)).collect();
    RefitResult {
        dirty_rows: refit.dirty_rows(),
        cold_ms,
        refit_ms,
        speedup: cold_ms / refit_ms.max(1e-9),
        recall_at_10: recall(&exact, &answers(&refit, &perturbed, probes, nprobe)),
        cold_recall_at_10: recall(&exact, &answers(&cold, &perturbed, probes, nprobe)),
        build_kind: refit.build_kind().as_str(),
    }
}

struct TelemetryOverhead {
    plain_qps: f64,
    instrumented_qps: f64,
    /// Percent q/s lost to instrumentation (negative = noise favoured
    /// the instrumented pass).
    overhead_pct: f64,
}

/// The serving hot path's per-request telemetry cost, isolated: the
/// identical ANN query loop, plain vs wrapped in exactly what
/// `Server::handle_connection` adds per request — one `Instant` pair
/// and one lock-free histogram record. Best-of-3 passes each, so the
/// comparison pits peak against peak rather than noise against noise.
fn bench_telemetry_overhead(
    index: &IvfIndex,
    emb: &Embedding,
    probes: &[NodeId],
    nprobe: usize,
) -> TelemetryOverhead {
    let registry = Registry::new();
    let hist = registry.histogram(
        "glodyne_wire_latency_us",
        "request wall time",
        &[("cmd", "nearest")],
    );
    let pass = |instrumented: bool| {
        let mut scratch = SearchScratch::new();
        let start = Instant::now();
        for &p in probes {
            let t = instrumented.then(Instant::now);
            let hits =
                index.search_in_with(emb, emb.get(p).unwrap(), K, nprobe, Some(p), &mut scratch);
            std::hint::black_box(hits);
            if let Some(t) = t {
                hist.record_duration(t.elapsed());
            }
        }
        probes.len() as f64 / start.elapsed().as_secs_f64()
    };
    // Warm both paths, then alternate timed passes.
    pass(false);
    pass(true);
    let plain_qps = (0..3).map(|_| pass(false)).fold(0.0f64, f64::max);
    let instrumented_qps = (0..3).map(|_| pass(true)).fold(0.0f64, f64::max);
    TelemetryOverhead {
        plain_qps,
        instrumented_qps,
        overhead_pct: (1.0 - instrumented_qps / plain_qps) * 100.0,
    }
}

struct ChaosOverhead {
    plain_qps: f64,
    failpoint_qps: f64,
    /// Percent q/s lost to disarmed failpoint checks (negative = noise
    /// favoured the instrumented pass).
    overhead_pct: f64,
}

/// The cost of the fault-injection layer when *nothing is armed*: the
/// identical ANN query loop, plain vs carrying the failpoint checks a
/// served request passes through (`fail_io` on the socket sites plus a
/// `shed` on the ingest site — each one relaxed atomic load). This is
/// the whole production price of shipping failpoints compiled in.
fn bench_chaos_overhead(
    index: &IvfIndex,
    emb: &Embedding,
    probes: &[NodeId],
    nprobe: usize,
) -> ChaosOverhead {
    glodyne_chaos::disarm();
    let pass = |with_failpoints: bool| {
        let mut scratch = SearchScratch::new();
        let start = Instant::now();
        for &p in probes {
            if with_failpoints {
                glodyne_chaos::fail_io(glodyne_chaos::sites::SOCKET_READ)
                    .expect("disarmed failpoint never fires");
                if glodyne_chaos::shed(glodyne_chaos::sites::INGEST_ENQUEUE) {
                    unreachable!("disarmed failpoint never sheds");
                }
            }
            let hits =
                index.search_in_with(emb, emb.get(p).unwrap(), K, nprobe, Some(p), &mut scratch);
            std::hint::black_box(hits);
            if with_failpoints {
                glodyne_chaos::fail_io(glodyne_chaos::sites::SOCKET_WRITE)
                    .expect("disarmed failpoint never fires");
            }
        }
        probes.len() as f64 / start.elapsed().as_secs_f64()
    };
    pass(false);
    pass(true);
    let plain_qps = (0..3).map(|_| pass(false)).fold(0.0f64, f64::max);
    let failpoint_qps = (0..3).map(|_| pass(true)).fold(0.0f64, f64::max);
    ChaosOverhead {
        plain_qps,
        failpoint_qps,
        overhead_pct: (1.0 - failpoint_qps / plain_qps) * 100.0,
    }
}

fn bench_one(n: usize, dim: usize, clusters: usize, queries: usize, seed: u64) -> SizeResult {
    let emb = clustered_embedding(n, dim, clusters, seed);
    // √n coarse cells, probing ~a tenth of them (at least 4): the
    // classical IVF operating point.
    let cells = (n as f64).sqrt().round() as usize;
    let nprobe = (cells / 10).max(4);
    let probes: Vec<NodeId> = (0..queries)
        .map(|i| NodeId(((i * 37) % n) as u32))
        .collect();

    // Warm pass: fault the arena in before timing (the first scan
    // otherwise pays page-in cost that no steady-state query sees).
    std::hint::black_box(emb.top_k(probes[0], K));
    let start = Instant::now();
    let exact: Vec<Vec<(NodeId, f32)>> = probes.iter().map(|&p| emb.top_k(p, K)).collect();
    let exact_secs = start.elapsed().as_secs_f64();

    let cfg = IvfConfig {
        cells,
        seed,
        ..Default::default()
    };
    let start = Instant::now();
    let index = IvfIndex::build(&emb, &cfg);
    let build_ms = start.elapsed().as_secs_f64() * 1e3;

    for &p in &probes {
        std::hint::black_box(index.search(emb.get(p).unwrap(), K, nprobe, Some(p)));
    }
    let start = Instant::now();
    let ann: Vec<Vec<(NodeId, f32)>> = probes
        .iter()
        .map(|&p| index.search(emb.get(p).unwrap(), K, nprobe, Some(p)))
        .collect();
    let ann_secs = start.elapsed().as_secs_f64();

    let sq8_cfg = IvfConfig {
        cells,
        seed,
        quantize: true,
        ..Default::default()
    };
    let start = Instant::now();
    let sq8_index = IvfIndex::build(&emb, &sq8_cfg);
    let sq8_build_ms = start.elapsed().as_secs_f64() * 1e3;

    for &p in &probes {
        std::hint::black_box(sq8_index.search_in(&emb, emb.get(p).unwrap(), K, nprobe, Some(p)));
    }
    let start = Instant::now();
    let sq8: Vec<Vec<(NodeId, f32)>> = probes
        .iter()
        .map(|&p| sq8_index.search_in(&emb, emb.get(p).unwrap(), K, nprobe, Some(p)))
        .collect();
    let sq8_secs = start.elapsed().as_secs_f64();

    let batch = BATCH_SIZES
        .iter()
        .map(|&b| BatchPoint {
            batch: b,
            f32_qps: batched_qps(&index, &emb, &probes, nprobe, b),
            sq8_qps: batched_qps(&sq8_index, &emb, &probes, nprobe, b),
        })
        .collect();
    let batch_grouped = BATCH_SIZES
        .iter()
        .map(|&b| GroupedPoint {
            batch: b,
            f32_qps: grouped_qps(&index, &emb, &probes, nprobe, b),
        })
        .collect();
    let refit = bench_refit(&index, &emb, &cfg, &probes, nprobe, seed);

    SizeResult {
        n,
        cells,
        nprobe,
        build_ms,
        exact_qps: queries as f64 / exact_secs,
        ann_qps: queries as f64 / ann_secs,
        speedup: exact_secs / ann_secs,
        recall_at_10: recall(&exact, &ann),
        index_bytes: index.index_bytes(),
        sq8_build_ms,
        sq8_qps: queries as f64 / sq8_secs,
        sq8_recall_at_10: recall(&exact, &sq8),
        sq8_index_bytes: sq8_index.index_bytes(),
        sq8_compression: index.index_bytes() as f64 / sq8_index.index_bytes().max(1) as f64,
        batch,
        batch_grouped,
        refit,
    }
}

fn main() {
    let args = Args::from_env();
    let dim: usize = args.get("dim", 128);
    let clusters: usize = args.get("clusters", 64);
    let queries: usize = args.get("queries", 400);
    let seed: u64 = args.get("seed", 0);
    let assert_recall: f64 = args.get("assert-recall", 0.0);
    let assert_probe_recall: f64 = args.get("assert-probe-recall", 0.0);
    let assert_grouped_speedup: f64 = args.get("assert-grouped-speedup", 0.0);
    let out = args.get("out", "BENCH_nearest.json".to_string());
    let raw_sizes = args.get("sizes", "1000,10000,100000".to_string());
    let sizes: Vec<usize> = raw_sizes
        .split(',')
        .map(|s| s.trim().parse().unwrap_or(0))
        .collect();
    // Reject degenerate parameters with a message instead of panicking
    // on a modulo-by-zero mid-run.
    if dim == 0 || clusters == 0 || queries == 0 || sizes.contains(&0) {
        eprintln!(
            "bench_nearest: --dim, --clusters, --queries, and every --sizes entry \
             must be positive integers (got dim={dim} clusters={clusters} \
             queries={queries} sizes={raw_sizes})"
        );
        std::process::exit(2);
    }

    let kernel = bench_kernel(dim, seed);
    println!(
        "kernel d={dim} rows={}: exact={:.2} GB/s  exact_rows={:.2} GB/s  fast={:.2} GB/s",
        kernel.rows, kernel.gbps_exact, kernel.gbps_exact_rows, kernel.gbps_fast
    );

    let mut results = Vec::new();
    for &n in &sizes {
        let r = bench_one(n, dim, clusters, queries, seed);
        println!(
            "n={:>6}  cells={:>4} nprobe={:>3}  exact={:>9.0} q/s  ann={:>9.0} q/s  \
             speedup={:>5.2}x  recall@10={:.4}  build={:.1}ms",
            r.n, r.cells, r.nprobe, r.exact_qps, r.ann_qps, r.speedup, r.recall_at_10, r.build_ms
        );
        println!(
            "          sq8: {:>9.0} q/s  recall@10={:.4}  bytes={} ({:.2}x smaller)  build={:.1}ms",
            r.sq8_qps, r.sq8_recall_at_10, r.sq8_index_bytes, r.sq8_compression, r.sq8_build_ms
        );
        for (b, g) in r.batch.iter().zip(&r.batch_grouped) {
            println!(
                "          batch={:>2}: f32={:>9.0} q/s  sq8={:>9.0} q/s  \
                 grouped: f32={:>9.0} q/s",
                b.batch, b.f32_qps, b.sq8_qps, g.f32_qps
            );
        }
        let rf = &r.refit;
        println!(
            "          refit ({} dirty, {}): cold={:.1}ms  refit={:.1}ms  \
             speedup={:.2}x  recall@10={:.4} (cold {:.4})",
            rf.dirty_rows,
            rf.build_kind,
            rf.cold_ms,
            rf.refit_ms,
            rf.speedup,
            rf.recall_at_10,
            rf.cold_recall_at_10
        );
        results.push(r);
    }

    // Observability sections on the largest tier: the telemetry
    // hot-path overhead and the serving probe's recall definition.
    let n_big = *sizes.iter().max().unwrap();
    let emb = clustered_embedding(n_big, dim, clusters, seed);
    let cells = (n_big as f64).sqrt().round() as usize;
    let nprobe = (cells / 10).max(4);
    let index = IvfIndex::build(
        &emb,
        &IvfConfig {
            cells,
            seed,
            ..Default::default()
        },
    );
    let probes: Vec<NodeId> = (0..queries)
        .map(|i| NodeId(((i * 37) % n_big) as u32))
        .collect();
    let overhead = bench_telemetry_overhead(&index, &emb, &probes, nprobe);
    println!(
        "telemetry overhead (n={n_big}): plain={:.0} q/s  instrumented={:.0} q/s  \
         overhead={:.2}%",
        overhead.plain_qps, overhead.instrumented_qps, overhead.overhead_pct
    );
    let chaos = bench_chaos_overhead(&index, &emb, &probes, nprobe);
    println!(
        "chaos overhead (n={n_big}, disarmed): plain={:.0} q/s  failpoints={:.0} q/s  \
         overhead={:.2}%",
        chaos.plain_qps, chaos.failpoint_qps, chaos.overhead_pct
    );
    let epoch = EmbeddingEpoch {
        epoch: 1,
        embedding: Arc::new(emb),
        report: None,
        index: Some(Arc::new(index)),
    };
    let probed = probe_recall(&epoch, K, 32, seed.wrapping_add(1), nprobe)
        .expect("clustered epoch with an index is always measurable");
    println!("probe recall@{K} (n={n_big}, 32 sampled nodes): {probed:.4}");

    let mut json = String::from("{\n");
    json.push_str("  \"bench\": \"nearest\",\n");
    json.push_str(&format!("  \"dim\": {dim},\n  \"k\": {K},\n"));
    json.push_str(&format!(
        "  \"clusters\": {clusters},\n  \"queries\": {queries},\n  \"seed\": {seed},\n"
    ));
    json.push_str(&format!(
        "  \"kernel\": {{\"rows\": {}, \"gbps_exact\": {:.2}, \"gbps_exact_rows\": {:.2}, \
         \"gbps_fast\": {:.2}}},\n",
        kernel.rows, kernel.gbps_exact, kernel.gbps_exact_rows, kernel.gbps_fast
    ));
    json.push_str(&format!(
        "  \"telemetry_overhead\": {{\"n\": {n_big}, \"plain_qps\": {:.1}, \
         \"instrumented_qps\": {:.1}, \"overhead_pct\": {:.2}}},\n",
        overhead.plain_qps, overhead.instrumented_qps, overhead.overhead_pct
    ));
    json.push_str(&format!(
        "  \"chaos_overhead\": {{\"n\": {n_big}, \"plain_qps\": {:.1}, \
         \"failpoint_qps\": {:.1}, \"overhead_pct\": {:.2}}},\n",
        chaos.plain_qps, chaos.failpoint_qps, chaos.overhead_pct
    ));
    json.push_str(&format!(
        "  \"probe_recall_at_10\": {{\"n\": {n_big}, \"sample\": 32, \"nprobe\": {nprobe}, \
         \"recall\": {probed:.4}}},\n"
    ));
    json.push_str("  \"sizes\": [\n");
    for (i, r) in results.iter().enumerate() {
        json.push_str(&format!(
            "    {{\"n\": {}, \"cells\": {}, \"nprobe\": {}, \"build_ms\": {:.2}, \
             \"exact_qps\": {:.1}, \"ann_qps\": {:.1}, \"speedup\": {:.2}, \
             \"recall_at_10\": {:.4}, \"index_bytes\": {},\n",
            r.n,
            r.cells,
            r.nprobe,
            r.build_ms,
            r.exact_qps,
            r.ann_qps,
            r.speedup,
            r.recall_at_10,
            r.index_bytes,
        ));
        let rf = &r.refit;
        json.push_str(&format!(
            "     \"refit\": {{\"dirty_rows\": {}, \"cold_ms\": {:.2}, \"refit_ms\": {:.2}, \
             \"speedup\": {:.2}, \"recall_at_10\": {:.4}, \"cold_recall_at_10\": {:.4}, \
             \"build_kind\": \"{}\"}},\n",
            rf.dirty_rows,
            rf.cold_ms,
            rf.refit_ms,
            rf.speedup,
            rf.recall_at_10,
            rf.cold_recall_at_10,
            rf.build_kind,
        ));
        json.push_str(&format!(
            "     \"sq8\": {{\"build_ms\": {:.2}, \"qps\": {:.1}, \"recall_at_10\": {:.4}, \
             \"index_bytes\": {}, \"compression\": {:.2}}},\n",
            r.sq8_build_ms, r.sq8_qps, r.sq8_recall_at_10, r.sq8_index_bytes, r.sq8_compression,
        ));
        json.push_str("     \"batch\": [");
        for (j, b) in r.batch.iter().enumerate() {
            json.push_str(&format!(
                "{}{{\"batch\": {}, \"f32_qps\": {:.1}, \"sq8_qps\": {:.1}}}",
                if j > 0 { ", " } else { "" },
                b.batch,
                b.f32_qps,
                b.sq8_qps
            ));
        }
        json.push_str("],\n     \"batch_grouped\": [");
        for (j, g) in r.batch_grouped.iter().enumerate() {
            json.push_str(&format!(
                "{}{{\"batch\": {}, \"f32_qps\": {:.1}}}",
                if j > 0 { ", " } else { "" },
                g.batch,
                g.f32_qps
            ));
        }
        json.push_str(&format!(
            "]}}{}\n",
            if i + 1 < results.len() { "," } else { "" }
        ));
    }
    json.push_str("  ]\n}\n");
    std::fs::write(&out, &json).unwrap_or_else(|e| panic!("cannot write {out}: {e}"));
    println!("wrote {out}");

    if assert_recall > 0.0 {
        let worst = results
            .iter()
            .flat_map(|r| [r.recall_at_10, r.sq8_recall_at_10, r.refit.recall_at_10])
            .fold(f64::INFINITY, f64::min);
        if worst < assert_recall {
            eprintln!(
                "bench_nearest: recall@{K} {worst:.4} fell below the \
                 --assert-recall floor {assert_recall:.4}"
            );
            std::process::exit(1);
        }
        println!("recall floor {assert_recall:.4} held (worst observed {worst:.4})");
    }
    if assert_probe_recall > 0.0 {
        if probed < assert_probe_recall {
            eprintln!(
                "bench_nearest: probe recall@{K} {probed:.4} fell below the \
                 --assert-probe-recall floor {assert_probe_recall:.4}"
            );
            std::process::exit(1);
        }
        println!("probe recall floor {assert_probe_recall:.4} held ({probed:.4})");
    }
    // The grouped-batch gate reads the largest tier (CI's bench-smoke
    // points it at its 100k tier).
    let biggest = results
        .iter()
        .max_by_key(|r| r.n)
        .expect("at least one size tier");
    if assert_grouped_speedup > 0.0 {
        // The grouped f32 scan against the per-query loop over the same
        // probes at the same batch size — the largest of the sweep (both
        // sweeps follow `BATCH_SIZES`).
        let looped = biggest.batch.last().expect("batch sweep");
        let grouped = biggest.batch_grouped.last().expect("batch sweep");
        let batch = looped.batch;
        let ratio = grouped.f32_qps / looped.f32_qps;
        if ratio < assert_grouped_speedup {
            eprintln!(
                "bench_nearest: grouped f32 q/s over the per-query loop at batch={batch} \
                 ({ratio:.2}x) fell below the --assert-grouped-speedup floor \
                 {assert_grouped_speedup:.2}x at n={}",
                biggest.n
            );
            std::process::exit(1);
        }
        println!(
            "grouped batch speedup floor {assert_grouped_speedup:.2}x held \
             ({ratio:.2}x over the per-query loop at batch={batch}, n={})",
            biggest.n
        );
    }
}
