//! Criterion micro-benchmarks for the building blocks whose complexity
//! §4.3 analyses: partitioning (Step 1), selection scoring (Step 2),
//! random walks (Step 3), SGNS training (Step 4), and the GR metric —
//! plus the walk→train pipeline on a ≥10k-node synthetic graph
//! (`corpus_pipeline/flat_corpus`) and, after the groups, the absolute
//! `sgns_throughput` table (Mpairs/s; `glodyne_bench::throughput`).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use glodyne::reservoir::Reservoir;
use glodyne::select::{select_nodes, Strategy};
use glodyne_bench::throughput::{sgns_rates, synthetic_graph};
use glodyne_embed::pairs::pair_count;
use glodyne_embed::walks::{generate_corpus_all, generate_walks_all, WalkConfig};
use glodyne_embed::{SgnsConfig, SgnsModel};
use glodyne_graph::{Snapshot, SnapshotDiff};
use glodyne_partition::{partition, PartitionConfig};
use glodyne_tasks::gr::mean_precision_at_k;

fn dataset(scale: f64) -> (Snapshot, Snapshot) {
    let d = glodyne_datasets::fbw(scale, 7);
    let n = d.network.len();
    (
        d.network.snapshot(n - 2).clone(),
        d.network.snapshot(n - 1).clone(),
    )
}

fn bench_partition(c: &mut Criterion) {
    let mut group = c.benchmark_group("partition");
    for &scale in &[0.2, 0.5] {
        let (_, g) = dataset(scale);
        let k = (g.num_nodes() / 10).max(2);
        group.bench_with_input(
            BenchmarkId::new("multilevel_kway", g.num_nodes()),
            &g,
            |b, g| {
                b.iter(|| partition(g, &PartitionConfig::with_k(k)));
            },
        );
    }
    // Step 1 at the size `bench_e2e`'s `serve_read` steps at
    // (`partition.kway_ms` there): K = α·n = 1 200 parts.
    let g = glodyne_datasets::community::planted_partition(12_000, 50, 7);
    group.bench_with_input(
        BenchmarkId::new("serving_planted_k1200", g.num_nodes()),
        &g,
        |b, g| {
            b.iter(|| partition(g, &PartitionConfig::with_k(1_200)));
        },
    );
    group.finish();
}

fn bench_selection(c: &mut Criterion) {
    let (prev, curr) = dataset(0.5);
    let mut reservoir = Reservoir::new();
    reservoir.absorb(&SnapshotDiff::compute(&prev, &curr));
    let k = (curr.num_nodes() / 10).max(2);
    let mut group = c.benchmark_group("selection");
    for strat in [Strategy::S1, Strategy::S3, Strategy::S4] {
        group.bench_function(strat.label(), |b| {
            let mut rng: rand_chacha::ChaCha8Rng = rand::SeedableRng::seed_from_u64(9);
            b.iter(|| select_nodes(strat, &curr, &prev, &reservoir, k, 0.1, &mut rng));
        });
    }
    group.finish();
}

fn bench_walks(c: &mut Criterion) {
    let (_, g) = dataset(0.5);
    let cfg = WalkConfig {
        walks_per_node: 4,
        walk_length: 40,
        seed: 3,
    };
    c.bench_function("walks/all_nodes_legacy", |b| {
        b.iter(|| generate_walks_all(&g, &cfg));
    });
    c.bench_function("walks/all_nodes_corpus", |b| {
        b.iter(|| generate_corpus_all(&g, &cfg));
    });
}

/// The whole hot path on a ≥10k-node graph: generate walks into the
/// flat arena *and* train one SGNS epoch from it.
fn bench_corpus_pipeline(c: &mut Criterion) {
    let g = synthetic_graph(12_000, 99);
    let walk_cfg = WalkConfig {
        walks_per_node: 2,
        walk_length: 40,
        seed: 11,
    };
    let sgns_cfg = SgnsConfig {
        dim: 32,
        window: 5,
        negatives: 5,
        epochs: 1,
        parallel: true,
        ..Default::default()
    };
    let pairs_per_run =
        g.num_nodes() * walk_cfg.walks_per_node * pair_count(walk_cfg.walk_length, sgns_cfg.window);

    let mut group = c.benchmark_group("corpus_pipeline");
    group.throughput(Throughput::Elements(pairs_per_run as u64));
    group.bench_function("flat_corpus", |b| {
        b.iter(|| {
            let corpus = generate_corpus_all(&g, &walk_cfg);
            let mut model = SgnsModel::new(sgns_cfg.clone());
            model.train_corpus(&corpus)
        })
    });
    group.finish();
}

/// Absolute training-only rates, one `sgns_throughput:` line per row
/// (the lines CI's bench-smoke job shows). Timed by
/// `glodyne_bench::throughput`, not by criterion.
fn report_sgns_throughput(_: &mut Criterion) {
    for rate in sgns_rates(3) {
        println!("{rate}");
    }
}

fn bench_sgns(c: &mut Criterion) {
    let (_, g) = dataset(0.3);
    let walks = generate_walks_all(
        &g,
        &WalkConfig {
            walks_per_node: 2,
            walk_length: 30,
            seed: 4,
        },
    );
    c.bench_function("sgns/train_epoch", |b| {
        b.iter(|| {
            let mut model = SgnsModel::new(SgnsConfig {
                dim: 64,
                window: 5,
                negatives: 5,
                epochs: 1,
                parallel: true,
                ..Default::default()
            });
            model.train(&walks)
        });
    });
    let corpus = glodyne_embed::WalkCorpus::from_nodeid_walks(&walks);
    c.bench_function("sgns/train_epoch_corpus", |b| {
        b.iter(|| {
            let mut model = SgnsModel::new(SgnsConfig {
                dim: 64,
                window: 5,
                negatives: 5,
                epochs: 1,
                parallel: true,
                ..Default::default()
            });
            model.train_corpus(&corpus)
        });
    });
}

fn bench_gr_metric(c: &mut Criterion) {
    let (_, g) = dataset(0.3);
    let mut model = SgnsModel::new(SgnsConfig {
        dim: 64,
        epochs: 1,
        ..Default::default()
    });
    model.train(&generate_walks_all(
        &g,
        &WalkConfig {
            walks_per_node: 2,
            walk_length: 20,
            seed: 5,
        },
    ));
    let emb = model.embedding();
    c.bench_function("gr/mean_p_at_k", |b| {
        b.iter(|| mean_precision_at_k(&emb, &g, &[1, 5, 10, 20, 40]));
    });
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = bench_partition, bench_selection, bench_walks, bench_sgns, bench_gr_metric, bench_corpus_pipeline, report_sgns_throughput
}
criterion_main!(benches);
