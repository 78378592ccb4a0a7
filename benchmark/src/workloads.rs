//! The frozen workloads and the names of everything measured.
//!
//! Sizes were chosen on a 2-core box so that one run of a workload
//! (set-ups, write cycles, four read phases, quality, restarts) takes
//! about [`RUN_SECONDS`] seconds, and then frozen: `--seed` changes the
//! generated inputs, never these numbers.

use crate::gen::StreamShape;

/// Nominal length of one run; `--seconds` scales the cycle and request
/// counts by its ratio to this, so the run stays bounded by work.
pub const RUN_SECONDS: u64 = 25;

/// Embedding width of every workload: one kernel width throughout.
pub const DIM: usize = 64;

/// `k` of every `nearest`.
pub const TOP_K: usize = 10;

/// Probes in one `nearest_batch` of the batch read phase.
pub const BATCH_PROBES: usize = 32;

/// Equal blocks a read phase is split into; its rate is their median.
pub const BLOCKS: usize = 8;

/// Rate of the open-loop reader that runs beside the write phase of
/// the mixed workloads, requests per second.
pub const MIXED_RATE: f64 = 200.0;

/// A concurrent read slower than this (from its due time) has failed:
/// far above the few milliseconds a read takes, far below one training
/// step, so it fails exactly when reads wait for training.
pub const MIXED_LIMIT_MS: f64 = 100.0;

/// `--snapshot-every` of the durable workload, and the cycles run
/// before each kill so every kill lands equally far from a snapshot.
pub const SNAPSHOT_EVERY: usize = 4;

/// Kill-and-restart rounds at the end of every lifecycle.
pub const RESTART_ROUNDS: usize = 3;

/// Walk and SGNS hyper-parameters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Profile {
    /// The CLI defaults, which are the paper's: 10 walks of length 80,
    /// window 10, 5 negatives, 2 epochs.
    Paper,
    /// A serving profile: 4 walks of length 20, window 5, 1 epoch.
    Serving,
}

impl Profile {
    /// `(walks, walk length, window, negatives, epochs)`.
    pub fn params(self) -> (usize, usize, usize, usize, usize) {
        match self {
            Profile::Paper => (10, 80, 10, 5, 2),
            Profile::Serving => (4, 20, 5, 5, 1),
        }
    }
}

/// Requests in each read phase at the nominal run length.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Reads {
    /// `query` requests.
    pub query: usize,
    /// `nearest` mode `ann` requests.
    pub ann: usize,
    /// `nearest` mode `exact` requests.
    pub exact: usize,
    /// `nearest_batch` requests of [`BATCH_PROBES`] probes each.
    pub batch: usize,
}

/// One frozen workload.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Workload {
    /// Name, as `--workload` and `BENCHMARK.json` spell it.
    pub name: &'static str,
    /// Why the workload exists, in one line.
    pub why: &'static str,
    /// Nodes of the warm-start graph.
    pub nodes: u32,
    /// Write cycles.
    pub cycles: usize,
    /// Events per cycle.
    pub batch: usize,
    /// Training hyper-parameters.
    pub profile: Profile,
    /// `--shards` (1 = unsharded).
    pub shards: usize,
    /// `--drift` for the sharded workload.
    pub drift: f64,
    /// `--sq8` posting lists.
    pub sq8: bool,
    /// `--data-dir` with `--fsync flush --snapshot-every 4`.
    pub durable: bool,
    /// Run the open-loop reader beside the write phase.
    pub mixed_reader: bool,
    /// Mix of the event stream.
    pub shape: StreamShape,
    /// Read-phase request counts.
    pub reads: Reads,
}

impl Workload {
    /// `--cells`: the square root of the node count, rounded up.
    pub fn cells(&self) -> usize {
        (self.nodes as f64).sqrt().ceil() as usize
    }

    /// `--nprobe`: a tenth of the cells, rounded up.
    pub fn nprobe(&self) -> usize {
        self.cells().div_ceil(10)
    }
}

const QUIET: StreamShape = StreamShape {
    bridge_share: 0.20,
    new_node_share: 0.02,
};

/// The four workloads, in the order they run.
pub const WORKLOADS: [Workload; 4] = [
    Workload {
        name: "paper_steps",
        why: "paper hyper-parameters on a small graph: walks+SGNS do the work, reads are pure wire/JSON",
        nodes: 200,
        cycles: 16,
        batch: 40,
        profile: Profile::Paper,
        shards: 1,
        drift: 0.25,
        sq8: false,
        durable: false,
        mixed_reader: false,
        shape: QUIET,
        reads: Reads {
            query: 36_000,
            ann: 56_000,
            exact: 44_000,
            batch: 7_600,
        },
    },
    Workload {
        name: "serve_read",
        why: "epoch larger than L2, f32 postings: exact is scan-bound, ann/batch are cell-rank+posting-scan bound",
        nodes: 12_000,
        cycles: 8,
        batch: 200,
        profile: Profile::Serving,
        shards: 1,
        drift: 0.25,
        sq8: false,
        durable: false,
        mixed_reader: false,
        shape: QUIET,
        reads: Reads {
            query: 40_000,
            ann: 32_000,
            exact: 4_800,
            batch: 1_760,
        },
    },
    Workload {
        name: "serve_mixed_durable",
        why: "WAL+fsync+snapshots, single-thread SGNS, SQ8 scan+rerank and recovery, with a 200/s reader beside writes",
        nodes: 4_000,
        cycles: 18,
        batch: 200,
        profile: Profile::Serving,
        shards: 1,
        drift: 0.25,
        sq8: true,
        durable: true,
        mixed_reader: true,
        shape: QUIET,
        reads: Reads {
            query: 36_000,
            ann: 28_000,
            exact: 10_800,
            batch: 1_360,
        },
    },
    Workload {
        name: "serve_sharded",
        why: "two shards with bridge-heavy churn: router, halo mirroring, rebalance and fan-out merge work only here",
        nodes: 4_000,
        cycles: 20,
        batch: 200,
        profile: Profile::Serving,
        shards: 2,
        drift: 0.05,
        sq8: false,
        durable: false,
        mixed_reader: true,
        shape: StreamShape {
            bridge_share: 0.30,
            new_node_share: 0.10,
        },
        reads: Reads {
            query: 36_000,
            ann: 28_000,
            exact: 5_600,
            batch: 1_440,
        },
    },
];

/// Look a workload up by name.
pub fn workload(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

/// Whether a larger value of a metric is better.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Larger is better.
    Higher,
    /// Smaller is better.
    Lower,
}

/// `(name, unit, direction)` of the end-to-end metrics, as
/// `BENCHMARK.json` lists them. Bounds live only in `BENCHMARK.json`.
pub const END_TO_END: [(&str, &str, Better); 10] = [
    ("setup_s", "s", Better::Lower),
    ("freshness_ms", "ms", Better::Lower),
    ("query_qps", "1/s", Better::Higher),
    ("ann_qps", "1/s", Better::Higher),
    ("exact_qps", "1/s", Better::Higher),
    ("batch_qps", "probes/s", Better::Higher),
    ("recall_at_10", "ratio", Better::Higher),
    ("gr_meanp_at_10", "ratio", Better::Higher),
    ("recover_s", "s", Better::Lower),
    ("peak_rss_mb", "MB", Better::Lower),
];

/// `(name, unit, direction)` of the per-layer metrics of a traced run.
pub const PER_LAYER: [(&str, &str, Better); 80] = [
    ("graph.apply_us_per_event", "us", Better::Lower),
    ("graph.commit_ms", "ms", Better::Lower),
    ("partition.kway_ms", "ms", Better::Lower),
    ("partition.edge_cut_ratio", "ratio", Better::Lower),
    ("core.select_ms", "ms", Better::Lower),
    ("core.selected_nodes", "count", Better::Lower),
    ("core.step_ms", "ms", Better::Lower),
    ("core.offline_step_ms", "ms", Better::Lower),
    ("core.flush_other_ms", "ms", Better::Lower),
    ("embed.walks_ms", "ms", Better::Lower),
    ("embed.walk_tokens", "count", Better::Lower),
    ("embed.sgns_ms", "ms", Better::Lower),
    ("embed.sgns_pairs", "count", Better::Lower),
    ("embed.sgns_mpairs_per_s", "Mpairs/s", Better::Higher),
    ("embed.dot_exact_gbps", "GB/s", Better::Higher),
    ("embed.dot_fast_gbps", "GB/s", Better::Higher),
    ("embed.topk_exact_us", "us", Better::Lower),
    ("ann.cycle_build_ms", "ms", Better::Lower),
    ("ann.build_full_ms", "ms", Better::Lower),
    ("ann.update_incr_ms", "ms", Better::Lower),
    ("ann.incremental_share", "ratio", Better::Higher),
    ("ann.dirty_rows_ratio", "ratio", Better::Lower),
    ("ann.index_bytes", "bytes", Better::Lower),
    ("ann.search_f32_us", "us", Better::Lower),
    ("ann.search_sq8_us", "us", Better::Lower),
    ("ann.search_batch1_us", "us", Better::Lower),
    ("ann.search_batch32_us_per_probe", "us", Better::Lower),
    ("ann.scan_gbps", "GB/s", Better::Higher),
    ("ann.roofline_ratio", "ratio", Better::Higher),
    ("shard.route_us_per_event", "us", Better::Lower),
    ("shard.mirror_ratio", "ratio", Better::Lower),
    ("shard.rebalances", "count", Better::Lower),
    ("shard.migrated_nodes", "count", Better::Lower),
    ("shard.fanout_exact_us", "us", Better::Lower),
    ("shard.fanout_ann_us", "us", Better::Lower),
    ("shard.unserved_nodes", "count", Better::Lower),
    ("shard.unserved_reads", "count", Better::Lower),
    ("durable.wal_append_us_per_event", "us", Better::Lower),
    ("durable.wal_sync_ms", "ms", Better::Lower),
    ("durable.wal_bytes_per_event", "bytes", Better::Lower),
    ("durable.snapshot_write_ms", "ms", Better::Lower),
    ("durable.snapshot_bytes", "bytes", Better::Lower),
    ("durable.recover_load_ms", "ms", Better::Lower),
    ("durable.recover_replay_ms", "ms", Better::Lower),
    ("durable.replayed_steps", "count", Better::Lower),
    ("serve.parse_nearest_us", "us", Better::Lower),
    ("serve.parse_ingest_us", "us", Better::Lower),
    ("serve.encode_query_us", "us", Better::Lower),
    ("serve.encode_nearest_us", "us", Better::Lower),
    ("serve.encode_batch_us", "us", Better::Lower),
    ("serve.wire_floor_us", "us", Better::Lower),
    ("serve.ingest_ms", "ms", Better::Lower),
    ("serve.flush_ms", "ms", Better::Lower),
    ("serve.publish_lag_ms", "ms", Better::Lower),
    ("serve.publish_clone_ms", "ms", Better::Lower),
    ("serve.queue_high_water", "count", Better::Lower),
    ("serve.index_build_ms", "ms", Better::Lower),
    ("serve.index_incremental_share", "ratio", Better::Higher),
    ("serve.mixed_read_p50_ms", "ms", Better::Lower),
    ("serve.mixed_read_p99_ms", "ms", Better::Lower),
    ("serve.mixed_late_ms", "ms", Better::Lower),
    ("serve.query_p99_ms", "ms", Better::Lower),
    ("serve.ann_p99_ms", "ms", Better::Lower),
    ("serve.exact_p99_ms", "ms", Better::Lower),
    ("serve.batch_p99_ms", "ms", Better::Lower),
    ("serve.traced_freshness_ms", "ms", Better::Lower),
    ("cli.cold_start_ms", "ms", Better::Lower),
    ("telemetry.overhead_pct", "%", Better::Lower),
    ("trace.cycle_layers_ms", "ms", Better::Lower),
    ("trace.coverage_pct", "%", Better::Higher),
    ("trace.spans", "count", Better::Lower),
    ("host.calib_ms", "ms", Better::Lower),
    ("host.steal_pct", "%", Better::Lower),
    ("host.foreign_cpu_pct", "%", Better::Lower),
    ("host.disturbed_retries", "count", Better::Lower),
    ("wire.failed_share", "ratio", Better::Lower),
    ("wire.attempted", "count", Better::Higher),
    ("quality.ghost_rows", "count", Better::Lower),
    ("quality.recall_at_10", "ratio", Better::Higher),
    ("quality.gr_meanp_at_10", "ratio", Better::Higher),
];

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::Json;
    use std::collections::BTreeSet;

    #[test]
    fn names_are_unique_and_well_formed() {
        let mut seen = BTreeSet::new();
        let names = END_TO_END
            .iter()
            .chain(PER_LAYER.iter())
            .map(|m| m.0)
            .chain(WORKLOADS.iter().map(|w| w.name));
        for name in names {
            assert!(seen.insert(name), "{name} is used twice");
            assert!(name.len() <= 64 && name.chars().next().unwrap().is_ascii_alphanumeric());
            assert!(name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)));
        }
        for (_, unit, _) in END_TO_END.iter().chain(PER_LAYER.iter()) {
            assert!(unit.len() <= 16, "{unit}");
            assert!(unit
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)));
        }
    }

    /// `BENCHMARK.json` at the repository root is the contract the
    /// driver reads; it must name exactly what this package reports.
    #[test]
    fn benchmark_json_lists_what_the_code_reports() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let doc = crate::json::parse(&std::fs::read_to_string(path).unwrap()).unwrap();
        let listed = |key: &str, fields: &[&str]| -> Vec<Vec<String>> {
            doc.get(key)
                .and_then(Json::as_arr)
                .unwrap()
                .iter()
                .map(|m| {
                    fields
                        .iter()
                        .map(|f| m.get(f).and_then(Json::as_str).unwrap().to_string())
                        .collect()
                })
                .collect()
        };
        let direction = |b: Better| match b {
            Better::Higher => "higher",
            Better::Lower => "lower",
        };
        let expect = |metrics: &[(&str, &str, Better)]| -> Vec<Vec<String>> {
            metrics
                .iter()
                .map(|&(n, u, b)| vec![n.to_string(), u.to_string(), direction(b).to_string()])
                .collect()
        };
        let fields = ["name", "unit", "better"];
        for (key, metrics) in [
            ("end_to_end", &END_TO_END[..]),
            ("per_layer", &PER_LAYER[..]),
        ] {
            let (listed, expected) = (listed(key, &fields), expect(metrics));
            assert_eq!(listed.len(), expected.len(), "{key}");
            for (l, e) in listed.iter().zip(&expected) {
                assert_eq!(l, e, "{key}");
            }
        }
        let workloads: Vec<Vec<String>> = WORKLOADS
            .iter()
            .map(|w| vec![w.name.to_string(), w.why.to_string()])
            .collect();
        assert_eq!(listed("workloads", &["name", "why"]), workloads);
        assert_eq!(
            doc.get("run_seconds").and_then(Json::as_u64),
            Some(RUN_SECONDS)
        );
    }

    #[test]
    fn operating_point_follows_the_node_count() {
        let w = workload("serve_read").unwrap();
        assert_eq!((w.cells(), w.nprobe()), (110, 11));
        assert!(workload("nope").is_none());
    }

    #[test]
    fn durable_kills_land_between_snapshots() {
        // Epoch 1 is snapshotted at creation and every SNAPSHOT_EVERY
        // epochs after; the write phase must end off that grid, or
        // recovery would replay nothing.
        let w = workload("serve_mixed_durable").unwrap();
        assert_ne!(w.cycles % SNAPSHOT_EVERY, 0);
    }
}
