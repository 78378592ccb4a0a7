//! Turning a run into named metrics, a record file and the one-line
//! result the driver reads.

use crate::json::Json;
use crate::lifecycle::RunOutput;
use crate::replay::Layers;
use crate::stats;
use crate::workloads::{Workload, END_TO_END, PER_LAYER};
use std::collections::BTreeMap;

/// `(value, unit)` by metric name.
pub type Metrics = BTreeMap<&'static str, (f64, &'static str)>;

/// The end-to-end metrics of an untraced run: the median of each
/// metric's samples.
pub fn end_to_end(out: &RunOutput) -> Metrics {
    END_TO_END
        .iter()
        .map(|&(name, unit, _)| (name, (out.value(name).unwrap_or(0.0), unit)))
        .collect()
}

fn med(values: impl IntoIterator<Item = f64>) -> f64 {
    stats::median_or_zero(&values.into_iter().collect::<Vec<_>>())
}

/// `{name: {"value": v, "unit": u}}`, the shape the driver reads.
fn metrics_json(metrics: &Metrics) -> Json {
    Json::obj(metrics.iter().map(|(&name, &(value, unit))| {
        (
            name,
            Json::obj([("value", Json::Num(value)), ("unit", Json::str(unit))]),
        )
    }))
}

/// Index build cost and kind of one `stats` reply: `(ms, builds,
/// incremental builds)`, summed over shards on a sharded server.
fn index_builds(stats: &Json) -> (f64, usize, usize) {
    if let Some(shards) = stats.get("shards").and_then(Json::as_arr) {
        let ms = shards
            .iter()
            .filter_map(|s| s.get("ann_build_ms").and_then(Json::as_f64))
            .sum();
        let kinds: Vec<&str> = shards
            .iter()
            .filter_map(|s| s.get("ann_build_kind").and_then(Json::as_str))
            .collect();
        let incremental = kinds.iter().filter(|k| **k == "incremental").count();
        return (ms, kinds.len(), incremental);
    }
    let ms = stats.path(&["ann", "build_ms"]).and_then(Json::as_f64);
    let kind = stats.path(&["ann", "build_kind"]).and_then(Json::as_str);
    (
        ms.unwrap_or(0.0),
        usize::from(kind.is_some()),
        usize::from(kind == Some("incremental")),
    )
}

/// The per-layer metrics of a traced run: the client's spans and the
/// `stats` scrapes of the wire half, the in-process replay's layers,
/// and the cold-start time measured beside them.
pub fn per_layer(out: &RunOutput, layers: &Layers, cold_start_ms: f64) -> Metrics {
    let mut values: BTreeMap<&'static str, f64> = layers.clone();
    let cycles = &out.cycles;
    let freshness = med(cycles.iter().map(|c| c.freshness_ms));
    values.insert("serve.ingest_ms", med(cycles.iter().map(|c| c.ingest_ms)));
    values.insert("serve.flush_ms", med(cycles.iter().map(|c| c.flush_ms)));
    values.insert(
        "serve.publish_lag_ms",
        med(cycles.iter().map(|c| c.publish_lag_ms)),
    );
    values.insert("serve.traced_freshness_ms", freshness);

    let scrapes = &out.cycle_stats;
    let high_water = scrapes
        .iter()
        .filter_map(|s| s.get("queue_high_water").and_then(Json::as_f64))
        .fold(0.0, f64::max);
    values.insert("serve.queue_high_water", high_water);
    let builds: Vec<(f64, usize, usize)> = scrapes.iter().map(index_builds).collect();
    values.insert("serve.index_build_ms", med(builds.iter().map(|b| b.0)));
    let total: usize = builds.iter().map(|b| b.1).sum();
    let incremental: usize = builds.iter().map(|b| b.2).sum();
    values.insert(
        "serve.index_incremental_share",
        incremental as f64 / total.max(1) as f64,
    );

    let (mut p50, mut p99, mut late) = (0.0, 0.0, 0.0);
    if let Some(mixed) = &out.mixed {
        let latency: Vec<f64> = mixed.samples.iter().map(|s| s.latency_ms).collect();
        p50 = stats::median(&latency).unwrap_or(0.0);
        p99 = stats::percentile(&latency, 99.0).unwrap_or(0.0);
        late = stats::percentile(
            &mixed.samples.iter().map(|s| s.late_ms).collect::<Vec<_>>(),
            99.0,
        )
        .unwrap_or(0.0);
    }
    values.insert("serve.mixed_read_p50_ms", p50);
    values.insert("serve.mixed_read_p99_ms", p99);
    values.insert("serve.mixed_late_ms", late);
    let unserved_reads = out.mixed.as_ref().map_or(0, |m| m.unserved);
    values.insert("shard.unserved_reads", unserved_reads as f64);
    for (phase, result) in &out.phases {
        let name = match *phase {
            "query" => "serve.query_p99_ms",
            "ann" => "serve.ann_p99_ms",
            "exact" => "serve.exact_p99_ms",
            _ => "serve.batch_p99_ms",
        };
        values.insert(
            name,
            stats::percentile(&result.latencies_ms, 99.0).unwrap_or(0.0),
        );
    }
    values.insert("serve.wire_floor_us", out.wire_floor_us);
    values.insert("cli.cold_start_ms", cold_start_ms);
    values.insert("telemetry.overhead_pct", out.telemetry_overhead_pct);

    // The layers' share of what the wire saw: below 90 the trace is
    // missing a layer.
    let layer_sum = values.get("trace.cycle_layers_ms").copied().unwrap_or(0.0);
    values.insert(
        "trace.coverage_pct",
        100.0 * layer_sum / freshness.max(1e-9),
    );
    let spans = out.tracer.as_ref().map_or(0, |t| t.spans().len());
    values.insert("trace.spans", spans as f64);

    values.insert("host.calib_ms", out.calib_ms);
    values.insert("host.steal_pct", out.guard.worst_steal_pct);
    values.insert("host.foreign_cpu_pct", out.guard.worst_foreign_pct);
    values.insert("host.disturbed_retries", out.guard.retries as f64);
    values.insert("wire.attempted", out.ops.attempted as f64);
    values.insert(
        "wire.failed_share",
        out.ops.failed as f64 / out.ops.attempted.max(1) as f64,
    );
    values.insert("shard.unserved_nodes", out.unserved_nodes as f64);
    values.insert("quality.ghost_rows", out.ghost_rows as f64);
    values.insert(
        "quality.recall_at_10",
        out.value("recall_at_10").unwrap_or(0.0),
    );
    values.insert(
        "quality.gr_meanp_at_10",
        out.value("gr_meanp_at_10").unwrap_or(0.0),
    );

    PER_LAYER
        .iter()
        .map(|&(name, unit, _)| (name, (values.get(name).copied().unwrap_or(0.0), unit)))
        .collect()
}

/// The object printed as the last line of standard output.
pub fn result_line(correct: bool, attempted: u64, failed: u64, metrics: &Metrics) -> Json {
    Json::obj([
        ("correct", Json::Bool(correct)),
        ("attempted", Json::from(attempted.max(1))),
        ("failed", Json::from(failed)),
        ("metrics", metrics_json(metrics)),
    ])
}

/// Where a record came from.
pub struct Stamp<'a> {
    /// `git rev-parse HEAD`, or `unknown` outside a repository.
    pub commit: &'a str,
    /// `rustc -V`.
    pub rustc: &'a str,
    /// CPU model.
    pub cpu: &'a str,
    /// Benchmark seed.
    pub seed: u64,
    /// `--seconds`.
    pub seconds: u64,
}

/// Everything a run measured, for `<out>/<workload>.json`.
pub fn record(
    w: &Workload,
    stamp: &Stamp<'_>,
    out: &RunOutput,
    metrics: &Metrics,
    traced: bool,
) -> Json {
    let samples = Json::obj(out.samples.iter().map(|(&name, values)| {
        let s = stats::summarize(values);
        let tail = s.as_ref().and_then(|s| s.tail);
        (
            name,
            Json::obj([
                (
                    "median",
                    s.as_ref().map_or(Json::Null, |s| Json::Num(s.median)),
                ),
                ("count", Json::from(values.len())),
                (
                    "tail_percentile",
                    tail.map_or(Json::Null, |t| Json::Num(t.0)),
                ),
                ("tail", tail.map_or(Json::Null, |t| Json::Num(t.1))),
                (
                    "quartiles",
                    stats::quartiles(values).map_or(Json::Null, |q| Json::nums(&[q.0, q.1])),
                ),
                ("values", Json::nums(values)),
            ]),
        )
    }));
    let phases = Json::obj(out.phases.iter().map(|(phase, r)| {
        let tail = stats::supported_tail(&r.latencies_ms);
        (
            *phase,
            Json::obj([
                ("requests", Json::from(r.attempted)),
                ("failed", Json::from(r.failed)),
                ("block_rates", Json::nums(&r.block_rates)),
                (
                    "latency_p50_ms",
                    Json::Num(stats::median(&r.latencies_ms).unwrap_or(0.0)),
                ),
                (
                    "latency_tail_percentile",
                    tail.map_or(Json::Null, |t| Json::Num(t.0)),
                ),
                (
                    "latency_tail_ms",
                    tail.map_or(Json::Null, |t| Json::Num(t.1)),
                ),
            ]),
        )
    }));
    let cycles = Json::Arr(
        out.cycles
            .iter()
            .map(|c| Json::nums(&[c.ingest_ms, c.flush_ms, c.publish_lag_ms, c.freshness_ms]))
            .collect(),
    );
    let mixed = out.mixed.as_ref().map_or(Json::Null, |m| {
        let latency: Vec<f64> = m.samples.iter().map(|s| s.latency_ms).collect();
        let tail = stats::supported_tail(&latency);
        Json::obj([
            ("requests", Json::from(m.samples.len())),
            ("refused", Json::from(m.refused)),
            ("slower_than_limit", Json::from(m.slow)),
            ("unserved", Json::from(m.unserved)),
            (
                "first_refusal",
                m.first_refusal.as_deref().map_or(Json::Null, Json::str),
            ),
            (
                "latency_p50_ms",
                Json::Num(stats::median(&latency).unwrap_or(0.0)),
            ),
            (
                "latency_tail_percentile",
                tail.map_or(Json::Null, |t| Json::Num(t.0)),
            ),
            (
                "latency_tail_ms",
                tail.map_or(Json::Null, |t| Json::Num(t.1)),
            ),
        ])
    });
    Json::obj([
        ("workload", Json::str(w.name)),
        ("why", Json::str(w.why)),
        ("traced", Json::Bool(traced)),
        ("commit", Json::str(stamp.commit)),
        ("rustc", Json::str(stamp.rustc)),
        ("cpu", Json::str(stamp.cpu)),
        ("nproc", Json::from(crate::host::nproc())),
        ("seed", Json::from(stamp.seed)),
        ("seconds", Json::from(stamp.seconds)),
        ("parameters", Json::str(format!("{w:?}"))),
        ("correct", Json::Bool(out.oracle.correct())),
        (
            "oracle",
            Json::obj(
                out.oracle
                    .checks
                    .iter()
                    .map(|(k, &v)| (k.as_str(), Json::Bool(v))),
            ),
        ),
        ("attempted", Json::from(out.ops.attempted)),
        ("failed", Json::from(out.ops.failed)),
        ("metrics", metrics_json(metrics)),
        ("samples", samples),
        ("cycles_ingest_flush_lag_freshness_ms", cycles),
        ("read_phases", phases),
        ("mixed_reader", mixed),
        ("unserved_nodes", Json::from(out.unserved_nodes)),
        ("ghost_rows", Json::from(out.ghost_rows)),
        (
            "replayed_wal_events",
            Json::nums(
                &out.replayed_events
                    .iter()
                    .map(|&n| n as f64)
                    .collect::<Vec<_>>(),
            ),
        ),
        ("host_calib_ms", Json::Num(out.calib_ms)),
        ("host_worst_steal_pct", Json::Num(out.guard.worst_steal_pct)),
        (
            "host_worst_foreign_cpu_pct",
            Json::Num(out.guard.worst_foreign_pct),
        ),
        (
            "host_disturbed_retries",
            Json::from(out.guard.retries as u64),
        ),
        (
            "host_discarded",
            Json::Arr(
                out.guard
                    .discarded
                    .iter()
                    .map(|(phase, v)| {
                        Json::obj([
                            ("phase", Json::str(phase.as_str())),
                            ("value", Json::Num(*v)),
                        ])
                    })
                    .collect(),
            ),
        ),
        ("final_stats", out.final_stats.clone()),
    ])
}

/// The bounds of the end-to-end metrics, read from `BENCHMARK.json`.
pub fn bounds(benchmark_json: &Json) -> BTreeMap<String, f64> {
    benchmark_json
        .get("end_to_end")
        .and_then(Json::as_arr)
        .into_iter()
        .flatten()
        .filter_map(|m| {
            Some((
                m.get("name")?.as_str()?.to_string(),
                m.get("bound")?.as_f64()?,
            ))
        })
        .collect()
}

/// A/A verdict on one metric: the share by which two runs of the same
/// build differ, and whether that is inside the metric's bound.
pub fn aa_pair(first: f64, second: f64, bound: f64) -> (f64, bool) {
    let base = first.abs().min(second.abs());
    let diff = if base > 0.0 {
        (first - second).abs() / base
    } else {
        0.0
    };
    (diff, diff <= bound)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn result_line_has_exactly_the_contract_keys() {
        let mut m = Metrics::new();
        m.insert("setup_s", (0.8127, "s"));
        let line = result_line(true, 0, 0, &m).to_string();
        assert_eq!(
            line,
            r#"{"correct":true,"attempted":1,"failed":0,"metrics":{"setup_s":{"value":0.8127,"unit":"s"}}}"#
        );
    }

    #[test]
    fn aa_pair_is_symmetric_and_relative() {
        assert_eq!(aa_pair(100.0, 108.0, 0.10), (0.08, true));
        assert_eq!(aa_pair(108.0, 100.0, 0.10), (0.08, true));
        assert!(!aa_pair(100.0, 112.0, 0.10).1);
        assert!(aa_pair(0.0, 0.0, 0.10).1);
    }

    #[test]
    fn reads_index_builds_from_either_stats_shape() {
        let flat = crate::json::parse(
            r#"{"ann":{"build_ms":12.5,"build_kind":"incremental"},"shards":null}"#,
        )
        .unwrap();
        assert_eq!(index_builds(&flat), (12.5, 1, 1));
        let sharded = crate::json::parse(
            r#"{"ann":null,"shards":[{"ann_build_ms":3.0,"ann_build_kind":"full"},{"ann_build_ms":4.0,"ann_build_kind":"incremental"}]}"#,
        )
        .unwrap();
        assert_eq!(index_builds(&sharded), (7.0, 2, 1));
    }

    #[test]
    fn every_listed_layer_metric_is_reported() {
        let out = RunOutput::default();
        let metrics = per_layer(&out, &Layers::new(), 1.0);
        assert_eq!(metrics.len(), PER_LAYER.len());
        assert_eq!(metrics["cli.cold_start_ms"], (1.0, "ms"));
    }
}
