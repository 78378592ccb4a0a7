//! The serving stack's telemetry hub: one [`ServeTelemetry`] per
//! server wires the lock-free primitives from `glodyne-telemetry` into
//! every pipeline stage.
//!
//! What gets measured (metric names as exposed by the `metrics` op):
//!
//! | series | kind | what |
//! |---|---|---|
//! | `glodyne_wire_latency_us{cmd}` | histogram | per-request wall time by command |
//! | `glodyne_queue_depth` | gauge | ingest queue depth at scrape time |
//! | `glodyne_queue_depth_high_water` | gauge | deepest the queue has ever been |
//! | `glodyne_queue_wait_us` | histogram | enqueue → trainer pickup |
//! | `glodyne_stage_us{stage[,shard]}` | histogram | trainer step phases + index build |
//! | `glodyne_freshness_lag_us` | histogram | epoch publish → first read |
//! | `glodyne_wal_append_us` / `glodyne_wal_fsync_us` / `glodyne_snapshot_write_us` | histogram | durability I/O |
//! | `glodyne_probe_recall_at_k` | gauge | rolling ANN recall@k vs exact |
//! | `glodyne_probe_latency_us` | histogram | one probe round's cost |
//! | `glodyne_probes_total` | counter | probe rounds completed |
//! | `glodyne_slow_queries_total` | counter | requests over the slow threshold |
//! | `glodyne_health_degraded` | gauge | 1 while the trainer watchdog holds the server degraded |
//! | `glodyne_health_stale_epochs` | gauge | flush boundaries accepted but not yet committed |
//!
//! Recording is wait-free everywhere a request can touch (see the
//! `glodyne-telemetry` crate docs); the slow-query ring takes a short
//! mutex but only for requests that already blew the latency budget.

use crate::lock;
use glodyne::StepReport;
use glodyne_ann::{BuildKind, IvfIndex};
use glodyne_durable::DurableTiming;
use glodyne_telemetry::{Counter, Gauge, Histogram, HistogramSnapshot, Registry};
use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// Wire commands with a latency series (order fixed for stable output).
pub const WIRE_COMMANDS: [&str; 6] = [
    "query",
    "nearest",
    "nearest_batch",
    "ingest",
    "flush",
    "stats",
];

/// How many slow queries the ring remembers.
pub const SLOW_RING_CAPACITY: usize = 32;

/// Default slow-query threshold (micros) when none is configured.
pub const DEFAULT_SLOW_THRESHOLD_US: u64 = 10_000;

/// One request that exceeded the slow threshold.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SlowQuery {
    /// Wire command name.
    pub cmd: &'static str,
    /// Nodes the request touched (1 for point reads, batch/event
    /// counts for batched ops, 0 for `flush`/`stats`).
    pub nodes: usize,
    /// Epoch that answered the request.
    pub epoch: u64,
    /// Wall time the request took.
    pub micros: u64,
}

/// Per-trainer handles for the step-phase histograms. Sharded trainers
/// carry two handles per stage — the global series plus a
/// `shard`-labelled one — so both the aggregate and the per-shard
/// break-down stay live.
#[derive(Clone)]
pub(crate) struct TrainerStages {
    select: Vec<Arc<Histogram>>,
    walks: Vec<Arc<Histogram>>,
    train: Vec<Arc<Histogram>>,
    index_build: Vec<Arc<Histogram>>,
    /// Kind-split `index_build` series (`kind="full"` /
    /// `kind="incremental"`) so operators can see the cost gap the
    /// incremental maintenance buys — the aggregate series above mixes
    /// cheap patches with the occasional drift-triggered rebuild.
    index_build_full: Vec<Arc<Histogram>>,
    index_build_incremental: Vec<Arc<Histogram>>,
}

impl TrainerStages {
    /// Attribute one committed step's phase times (and the published
    /// index's build cost) to the stage histograms.
    pub(crate) fn record(&self, report: Option<&StepReport>, index: Option<&IvfIndex>) {
        if let Some(report) = report {
            for h in &self.select {
                h.record_duration(report.phases.select);
            }
            for h in &self.walks {
                h.record_duration(report.phases.walks);
            }
            for h in &self.train {
                h.record_duration(report.phases.train);
            }
        }
        if let Some(index) = index {
            for h in &self.index_build {
                h.record_duration(index.build_time());
            }
            let by_kind = match index.build_kind() {
                BuildKind::Full => &self.index_build_full,
                BuildKind::Incremental => &self.index_build_incremental,
            };
            for h in by_kind {
                h.record_duration(index.build_time());
            }
        }
    }
}

/// Durability I/O timing snapshots for the `stats` telemetry object.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DurabilityTelemetry {
    /// WAL `append` wall time (micros).
    pub wal_append: HistogramSnapshot,
    /// WAL fsync (`sync_data`) wall time.
    pub wal_fsync: HistogramSnapshot,
    /// Snapshot freeze (serialize + write + fsync + rename) wall time.
    pub snapshot_write: HistogramSnapshot,
}

/// Quality-probe state for the `stats` telemetry object.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ProbeTelemetry {
    /// Rolling recall@k in basis points (9_700 = 0.97) — kept integral
    /// so [`TelemetryStats`] stays `Eq`.
    pub recall_bp: u64,
    /// The probe's `k`.
    pub k: usize,
    /// Probe rounds completed.
    pub runs: u64,
    /// One probe round's latency.
    pub latency: HistogramSnapshot,
}

/// A point-in-time view of everything [`ServeTelemetry`] measures —
/// the `"telemetry"` object in the wire `stats` response.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TelemetryStats {
    /// Ingest queue depth when the stats were taken.
    pub queue_depth: usize,
    /// Deepest the ingest queue has ever been.
    pub queue_high_water: usize,
    /// Enqueue → trainer-pickup wait.
    pub queue_wait: HistogramSnapshot,
    /// Per-command wire latency, in [`WIRE_COMMANDS`] order.
    pub wire: Vec<(&'static str, HistogramSnapshot)>,
    /// Trainer stage durations: select, walks, train, index_build.
    pub stages: Vec<(&'static str, HistogramSnapshot)>,
    /// Epoch publish → first read lag.
    pub freshness: HistogramSnapshot,
    /// Durability I/O timings; `None` on in-memory servers.
    pub durability: Option<DurabilityTelemetry>,
    /// Quality probe state; `None` when no probe thread is attached.
    pub probe: Option<ProbeTelemetry>,
    /// The most recent slow queries, oldest first (bounded at
    /// [`SLOW_RING_CAPACITY`]).
    pub slow: Vec<SlowQuery>,
}

/// The names of the trainer stage series.
const STAGE_NAMES: [&str; 4] = ["select", "walks", "train", "index_build"];

/// All metric handles for one server, pre-registered so the record
/// path never touches the registry lock.
pub struct ServeTelemetry {
    registry: Registry,
    wire: [Arc<Histogram>; WIRE_COMMANDS.len()],
    queue_depth: Arc<Gauge>,
    queue_high_water: Arc<Gauge>,
    pub(crate) queue_wait: Arc<Histogram>,
    stages: [Arc<Histogram>; STAGE_NAMES.len()],
    /// `glodyne_stage_us{stage="index_build",kind=...}` — `[full,
    /// incremental]`.
    index_build_kind: [Arc<Histogram>; 2],
    pub(crate) freshness: Arc<Histogram>,
    wal_append: Arc<Histogram>,
    wal_fsync: Arc<Histogram>,
    snapshot_write: Arc<Histogram>,
    durable: AtomicBool,
    pub(crate) probe_recall: Arc<Gauge>,
    pub(crate) probe_latency: Arc<Histogram>,
    pub(crate) probes_run: Arc<Counter>,
    probe_k: AtomicU64,
    slow_total: Arc<Counter>,
    slow_threshold_us: u64,
    slow_ring: Mutex<VecDeque<SlowQuery>>,
    health_degraded: Arc<Gauge>,
    health_stale_epochs: Arc<Gauge>,
}

impl ServeTelemetry {
    /// Register every series and hand back the hub. `slow_threshold_us`
    /// is the latency above which a request lands in the slow ring.
    pub fn new(slow_threshold_us: u64) -> Self {
        let registry = Registry::new();
        let wire = WIRE_COMMANDS.map(|cmd| {
            registry.histogram(
                "glodyne_wire_latency_us",
                "Per-request wall time by wire command (micros)",
                &[("cmd", cmd)],
            )
        });
        let stages = STAGE_NAMES.map(|stage| {
            registry.histogram(
                "glodyne_stage_us",
                "Trainer pipeline stage wall time (micros)",
                &[("stage", stage)],
            )
        });
        let index_build_kind = ["full", "incremental"].map(|kind| {
            registry.histogram(
                "glodyne_stage_us",
                "Trainer pipeline stage wall time (micros)",
                &[("stage", "index_build"), ("kind", kind)],
            )
        });
        ServeTelemetry {
            wire,
            stages,
            index_build_kind,
            queue_depth: registry.gauge(
                "glodyne_queue_depth",
                "Events waiting in the ingest queue",
                &[],
            ),
            queue_high_water: registry.gauge(
                "glodyne_queue_depth_high_water",
                "Deepest the ingest queue has ever been",
                &[],
            ),
            queue_wait: registry.histogram(
                "glodyne_queue_wait_us",
                "Event enqueue to trainer pickup (micros)",
                &[],
            ),
            freshness: registry.histogram(
                "glodyne_freshness_lag_us",
                "Epoch publish to first read (micros)",
                &[],
            ),
            wal_append: registry.histogram(
                "glodyne_wal_append_us",
                "WAL record append wall time (micros)",
                &[],
            ),
            wal_fsync: registry.histogram(
                "glodyne_wal_fsync_us",
                "WAL fsync wall time (micros)",
                &[],
            ),
            snapshot_write: registry.histogram(
                "glodyne_snapshot_write_us",
                "Snapshot freeze wall time (micros)",
                &[],
            ),
            durable: AtomicBool::new(false),
            probe_recall: registry.gauge(
                "glodyne_probe_recall_at_k",
                "Rolling ANN recall@k measured by the quality probe",
                &[],
            ),
            probe_latency: registry.histogram(
                "glodyne_probe_latency_us",
                "One quality-probe round's wall time (micros)",
                &[],
            ),
            probes_run: registry.counter(
                "glodyne_probes_total",
                "Quality probe rounds completed",
                &[],
            ),
            probe_k: AtomicU64::new(0),
            slow_total: registry.counter(
                "glodyne_slow_queries_total",
                "Requests over the slow-query threshold",
                &[],
            ),
            slow_threshold_us,
            slow_ring: Mutex::new(VecDeque::with_capacity(SLOW_RING_CAPACITY)),
            health_degraded: registry.gauge(
                "glodyne_health_degraded",
                "1 while the trainer watchdog holds the server degraded",
                &[],
            ),
            health_stale_epochs: registry.gauge(
                "glodyne_health_stale_epochs",
                "Flush boundaries accepted but not yet committed by the trainer",
                &[],
            ),
            registry,
        }
    }

    /// The stage handles for one trainer: the global series and, for
    /// shard `i`'s trainer, a `shard="<i>"`-labelled one per stage too
    /// (the kind-split index-build series stays global either way — the
    /// per-shard break-down is on the aggregate stage only).
    pub(crate) fn trainer_stages(&self, shard: Option<usize>) -> TrainerStages {
        let series = |stage: usize| {
            let mut handles = vec![Arc::clone(&self.stages[stage])];
            if let Some(shard) = shard {
                handles.push(self.registry.histogram(
                    "glodyne_stage_us",
                    "Trainer pipeline stage wall time (micros)",
                    &[("stage", STAGE_NAMES[stage]), ("shard", &shard.to_string())],
                ));
            }
            handles
        };
        TrainerStages {
            select: series(0),
            walks: series(1),
            train: series(2),
            index_build: series(3),
            index_build_full: vec![Arc::clone(&self.index_build_kind[0])],
            index_build_incremental: vec![Arc::clone(&self.index_build_kind[1])],
        }
    }

    /// The durability timing sink to hand to `glodyne-durable` (also
    /// flips the `stats` durability section on).
    pub fn durable_timing(&self) -> Arc<DurableTiming> {
        self.durable.store(true, Ordering::Relaxed);
        Arc::new(DurableTiming {
            wal_append: Arc::clone(&self.wal_append),
            wal_fsync: Arc::clone(&self.wal_fsync),
            snapshot_write: Arc::clone(&self.snapshot_write),
        })
    }

    /// Mark that a quality probe with this `k` is attached (makes the
    /// probe section appear in [`TelemetryStats`]).
    pub(crate) fn set_probe_k(&self, k: usize) {
        self.probe_k.store(k as u64, Ordering::Relaxed);
    }

    /// Record one served request: its latency lands in the command's
    /// wire histogram, and over-threshold requests additionally land
    /// in the slow ring. `cmd` must be one of [`WIRE_COMMANDS`] (other
    /// ops — `metrics`, `shutdown`, parse errors — carry no series).
    pub(crate) fn observe_request(&self, cmd: &'static str, nodes: usize, epoch: u64, micros: u64) {
        if let Some(i) = WIRE_COMMANDS.iter().position(|&c| c == cmd) {
            self.wire[i].record(micros);
        }
        if micros >= self.slow_threshold_us {
            self.slow_total.inc();
            let mut ring = lock(&self.slow_ring);
            if ring.len() == SLOW_RING_CAPACITY {
                ring.pop_front();
            }
            ring.push_back(SlowQuery {
                cmd,
                nodes,
                epoch,
                micros,
            });
        }
    }

    /// The slow-query threshold (micros).
    pub fn slow_threshold_us(&self) -> u64 {
        self.slow_threshold_us
    }

    /// Refresh the queue gauges from the live queue counters (called
    /// before any export so scrapes see current values).
    pub(crate) fn sync_queue_gauges(&self, depth: usize, high_water: usize) {
        self.queue_depth.set(depth as f64);
        self.queue_high_water.set(high_water as f64);
    }

    /// Refresh the watchdog health gauges (called whenever health is
    /// evaluated — every `stats` and `metrics` request).
    pub(crate) fn sync_health_gauges(&self, degraded: bool, stale_epochs: u64) {
        self.health_degraded.set(if degraded { 1.0 } else { 0.0 });
        self.health_stale_epochs.set(stale_epochs as f64);
    }

    /// Prometheus text exposition of every registered series.
    pub fn render_prometheus(&self) -> String {
        self.registry.render_prometheus()
    }

    /// The structured `stats` view. `queue_depth`/`queue_high_water`
    /// are passed in by the owning session (they live on the queue).
    pub fn stats(&self, queue_depth: usize, queue_high_water: usize) -> TelemetryStats {
        self.sync_queue_gauges(queue_depth, queue_high_water);
        let probe_k = self.probe_k.load(Ordering::Relaxed);
        TelemetryStats {
            queue_depth,
            queue_high_water,
            queue_wait: self.queue_wait.snapshot(),
            wire: WIRE_COMMANDS
                .iter()
                .zip(&self.wire)
                .map(|(&cmd, h)| (cmd, h.snapshot()))
                .collect(),
            stages: STAGE_NAMES
                .iter()
                .zip(&self.stages)
                .map(|(&stage, h)| (stage, h.snapshot()))
                .collect(),
            freshness: self.freshness.snapshot(),
            durability: self
                .durable
                .load(Ordering::Relaxed)
                .then(|| DurabilityTelemetry {
                    wal_append: self.wal_append.snapshot(),
                    wal_fsync: self.wal_fsync.snapshot(),
                    snapshot_write: self.snapshot_write.snapshot(),
                }),
            probe: (probe_k > 0).then(|| ProbeTelemetry {
                recall_bp: (self.probe_recall.get() * 10_000.0).round() as u64,
                k: probe_k as usize,
                runs: self.probes_run.get(),
                latency: self.probe_latency.snapshot(),
            }),
            slow: lock(&self.slow_ring).iter().cloned().collect(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn slow_ring_is_bounded_and_ordered() {
        let t = ServeTelemetry::new(100);
        t.observe_request("query", 1, 1, 50); // under threshold
        for i in 0..40u64 {
            t.observe_request("nearest", 1, 2, 100 + i);
        }
        let stats = t.stats(0, 0);
        assert_eq!(stats.slow.len(), SLOW_RING_CAPACITY);
        assert_eq!(stats.slow[0].micros, 108, "oldest surviving entry");
        assert_eq!(stats.slow.last().unwrap().micros, 139, "newest entry");
        assert!(stats.slow.iter().all(|s| s.cmd == "nearest"));
        // The wire histogram saw everything, slow or not.
        let (_, query_hist) = stats.wire.iter().find(|(c, _)| *c == "query").unwrap();
        assert_eq!(query_hist.count, 1);
    }

    #[test]
    fn stats_sections_appear_when_armed() {
        let t = ServeTelemetry::new(DEFAULT_SLOW_THRESHOLD_US);
        let s = t.stats(3, 7);
        assert_eq!(s.queue_depth, 3);
        assert_eq!(s.queue_high_water, 7);
        assert_eq!(s.durability, None, "no durable timing attached");
        assert_eq!(s.probe, None, "no probe attached");
        assert_eq!(s.wire.len(), WIRE_COMMANDS.len());

        let _timing = t.durable_timing();
        t.set_probe_k(10);
        t.probe_recall.set(0.97);
        t.probes_run.inc();
        let s = t.stats(0, 7);
        assert!(s.durability.is_some());
        let probe = s.probe.expect("probe section armed");
        assert_eq!(probe.recall_bp, 9_700);
        assert_eq!(probe.k, 10);
        assert_eq!(probe.runs, 1);
    }

    #[test]
    fn prometheus_exposition_names_every_series() {
        let t = ServeTelemetry::new(DEFAULT_SLOW_THRESHOLD_US);
        t.observe_request("query", 1, 1, 12);
        t.sync_queue_gauges(2, 9);
        t.probe_recall.set(0.91);
        let text = t.render_prometheus();
        for name in [
            "glodyne_wire_latency_us",
            "glodyne_queue_depth",
            "glodyne_queue_depth_high_water",
            "glodyne_queue_wait_us",
            "glodyne_stage_us",
            "glodyne_freshness_lag_us",
            "glodyne_wal_append_us",
            "glodyne_wal_fsync_us",
            "glodyne_snapshot_write_us",
            "glodyne_probe_recall_at_k",
            "glodyne_probe_latency_us",
            "glodyne_probes_total",
            "glodyne_slow_queries_total",
            "glodyne_health_degraded",
            "glodyne_health_stale_epochs",
        ] {
            assert!(text.contains(&format!("# TYPE {name}")), "missing {name}");
        }
        assert!(text.contains("glodyne_queue_depth 2"));
        assert!(text.contains("glodyne_queue_depth_high_water 9"));
        assert!(text.contains("glodyne_probe_recall_at_k 0.91"));
        assert!(text.contains("glodyne_wire_latency_us_count{cmd=\"query\"} 1"));
    }

    #[test]
    fn health_gauges_reflect_the_watchdog() {
        let t = ServeTelemetry::new(DEFAULT_SLOW_THRESHOLD_US);
        t.sync_health_gauges(true, 3);
        let text = t.render_prometheus();
        assert!(text.contains("glodyne_health_degraded 1"));
        assert!(text.contains("glodyne_health_stale_epochs 3"));
        t.sync_health_gauges(false, 0);
        let text = t.render_prometheus();
        assert!(text.contains("glodyne_health_degraded 0"));
    }

    #[test]
    fn shard_stages_feed_both_series() {
        let t = ServeTelemetry::new(DEFAULT_SLOW_THRESHOLD_US);
        let stages = t.trainer_stages(Some(1));
        let report = StepReport {
            phases: glodyne::PhaseTimes {
                select: std::time::Duration::from_micros(10),
                walks: std::time::Duration::from_micros(20),
                train: std::time::Duration::from_micros(30),
            },
            ..Default::default()
        };
        stages.record(Some(&report), None);
        let stats = t.stats(0, 0);
        let (_, train) = stats.stages.iter().find(|(s, _)| *s == "train").unwrap();
        assert_eq!(train.count, 1, "global series sees the shard step");
        let text = t.render_prometheus();
        assert!(
            text.contains("glodyne_stage_us_count{stage=\"train\",shard=\"1\"} 1"),
            "per-shard series present:\n{text}"
        );
    }
}
