//! Subcommand implementations.

use crate::opts::Opts;
use crate::CliError;
use glodyne::{EmbedderSession, EpochPolicy, GloDyNE, GloDyNEConfig, IvfConfig, StepReport};
use glodyne_durable::{
    list_segments, list_snapshots, load_snapshot, replay, DurableConfig, DurableSession,
    FsyncPolicy, WalRecord, PAYLOAD_SESSION,
};
use glodyne_embed::persist;
use glodyne_embed::traits::{run_over_reports, step_with, DynamicEmbedder};
use glodyne_embed::walks::{splitmix64_next, WalkConfig};
use glodyne_embed::SgnsConfig;
use glodyne_graph::id::TimedEdge;
use glodyne_graph::io::read_edge_stream;
use glodyne_graph::{DynamicNetwork, NodeId};
use glodyne_partition::{partition, PartitionConfig};
use glodyne_serve::json::Json;
use glodyne_serve::{json, AnnSettings, ProbeSettings, ServeError, Server, ServerConfig};
use glodyne_shard::ShardConfig;
use glodyne_tasks::gr::mean_precision_at_k;
use glodyne_tasks::lp::{build_test_set, link_prediction_auc};
use std::fs::File;
use std::io::{BufReader, BufWriter};
use std::path::{Path, PathBuf};

/// Load an edge stream file.
fn load_stream(path: &str) -> Result<Vec<TimedEdge>, CliError> {
    let file = File::open(path).map_err(|e| CliError::Io {
        context: format!("cannot open {path}"),
        source: e,
    })?;
    let stream = read_edge_stream(BufReader::new(file)).map_err(|e| {
        if e.kind() == std::io::ErrorKind::InvalidData {
            CliError::Parse(format!("{path}: {e}"))
        } else {
            CliError::Io {
                context: format!("cannot read {path}"),
                source: e,
            }
        }
    })?;
    if stream.is_empty() {
        return Err(CliError::Parse(format!("{path}: no edges parsed")));
    }
    Ok(stream)
}

/// Cut a stream into at most `n` snapshots at equal-count timestamp
/// quantiles (§5.1.1 uses calendar days; without calendar semantics,
/// quantiles give evenly-filled snapshots).
///
/// Duplicate timestamps can make neighbouring quantiles coincide; those
/// cutoffs are deduplicated (and `n` is effectively clamped to the
/// number of distinct timestamps), so no two snapshots are identical
/// re-cuts of the same prefix.
pub fn cut_snapshots(stream: Vec<TimedEdge>, n: usize) -> DynamicNetwork {
    if stream.is_empty() || n == 0 {
        return DynamicNetwork::default();
    }
    let mut times: Vec<u64> = stream.iter().map(|e| e.time).collect();
    times.sort_unstable();
    let mut cutoffs: Vec<u64> = (1..=n)
        .map(|i| {
            let idx = (i * times.len()) / n;
            times[idx.saturating_sub(1).min(times.len() - 1)]
        })
        .collect();
    // Sorted quantiles are non-decreasing; drop repeats caused by
    // duplicate timestamps.
    cutoffs.dedup();
    DynamicNetwork::from_edge_stream(stream, &cutoffs)
}

fn glodyne_config(opts: &Opts) -> Result<GloDyNEConfig, CliError> {
    let cfg = GloDyNEConfig {
        alpha: opts.get("alpha", 0.1)?,
        epsilon: opts.get("epsilon", 0.1)?,
        walk: WalkConfig {
            walks_per_node: opts.get("walks", 10)?,
            walk_length: opts.get("walk-length", 80)?,
            seed: opts.get("seed", 0u64)?,
        },
        sgns: SgnsConfig {
            dim: opts.get("dim", 128)?,
            window: opts.get("window", 10)?,
            negatives: opts.get("negatives", 5)?,
            epochs: opts.get("epochs", 2)?,
            seed: opts.get("seed", 0u64)?,
            ..Default::default()
        },
        strategy: glodyne::Strategy::S4,
        seed: opts.get("seed", 0u64)?,
    };
    cfg.validate()?;
    Ok(cfg)
}

/// One human-readable progress line per embedding step, fed by the
/// method's [`StepReport`].
fn report_line(t: usize, nodes: usize, edges: usize, r: &StepReport) -> String {
    format!(
        "t={t}: |V|={nodes} |E|={edges} selected={} pairs={} tokens={} \
         select={:.0}ms walks={:.0}ms train={:.0}ms",
        r.selected,
        r.trained_pairs,
        r.corpus_tokens,
        r.phases.select.as_secs_f64() * 1e3,
        r.phases.walks.as_secs_f64() * 1e3,
        r.phases.train.as_secs_f64() * 1e3,
    )
}

/// `glodyne embed`: run GloDyNE over the stream, write one TSV per step.
pub fn embed(opts: &Opts) -> Result<String, CliError> {
    let input = opts.require("input")?;
    let n_snapshots = opts.get("snapshots", 10usize)?;
    let out_dir = opts.get_str("out-dir", ".");
    let mut model = GloDyNE::new(glodyne_config(opts)?)?;
    let stream = load_stream(input)?;
    let net = cut_snapshots(stream, n_snapshots);

    std::fs::create_dir_all(out_dir)?;
    let mut report = String::new();
    // One step at a time: each embedding is written and dropped before
    // the next step so memory stays at one |V|×d matrix.
    let mut prev = None;
    for (t, snap) in net.snapshots().iter().enumerate() {
        let step = step_with(&mut model, prev, snap);
        let emb = model.embedding();
        let path = Path::new(out_dir).join(format!("embedding_t{t:03}.tsv"));
        let mut w = BufWriter::new(File::create(&path)?);
        persist::write_tsv(&mut w, &emb)?;
        report.push_str(&report_line(t, snap.num_nodes(), snap.num_edges(), &step));
        report.push_str(&format!(" -> {}\n", path.display()));
        prev = Some(snap);
    }
    Ok(report)
}

/// Shared `--ann`/`--cells`/`--nprobe`/`--sq8`/`--rerank` parsing for
/// `stream` and `serve`: `None` unless `--ann` is given; the IVF seed
/// rides the shared `--seed`. `--sq8` stores posting lists quantized
/// to one byte per component and re-ranks the top `--rerank`×`k`
/// candidates with the exact kernel.
fn parse_ann(opts: &Opts) -> Result<Option<AnnSettings>, CliError> {
    if !opts.get("ann", false)? {
        return Ok(None);
    }
    let settings = AnnSettings {
        config: IvfConfig {
            cells: opts.get("cells", 64usize)?,
            seed: opts.get("seed", 0u64)?,
            quantize: opts.get("sq8", false)?,
            rerank_factor: opts.get("rerank", 4usize)?,
            ..Default::default()
        },
        default_nprobe: opts.get("nprobe", 8usize)?,
    };
    settings.validate().map_err(CliError::Config)?;
    Ok(Some(settings))
}

/// Parse `--query` as one node id or a comma-separated list
/// (`--query 0,5,9`): `None` when absent, a usage error on any
/// malformed id.
fn parse_query_nodes(opts: &Opts) -> Result<Option<Vec<NodeId>>, CliError> {
    let Some(raw) = opts.get_opt::<String>("query")? else {
        return Ok(None);
    };
    raw.split(',')
        .map(|tok| {
            tok.trim().parse::<u32>().map(NodeId).map_err(|_| {
                CliError::Usage(format!(
                    "invalid node id `{tok}` in --query \
                     (expected a u32 or a comma-separated list of them)"
                ))
            })
        })
        .collect::<Result<Vec<_>, _>>()
        .map(Some)
}

/// Refuse `--shards N` (`N ≠ 1`) where only one shard can run, naming
/// the flag and `why`.
fn refuse_shards(opts: &Opts, why: &str) -> Result<(), CliError> {
    match opts.get_opt::<usize>("shards")? {
        Some(n) if n != 1 => Err(CliError::Usage(format!("--shards {n}: {why}"))),
        _ => Ok(()),
    }
}

/// `--shards`/`--shard-epsilon`/`--shard-seed`/`--drift`/
/// `--ann-overfetch` parsing for `serve`: `None` without `--shards` (or
/// with `--shards 1`, the unsharded fast path). The partitioner seed
/// defaults to the shared `--seed`; `--ann-overfetch` trades per-shard
/// scan work for fan-out recall on halo-heavy graphs.
fn parse_shards(opts: &Opts) -> Result<Option<ShardConfig>, CliError> {
    let shards = opts.get_opt::<usize>("shards")?;
    let Some(shards) = shards.filter(|&s| s != 1) else {
        return Ok(None);
    };
    let defaults = ShardConfig::default();
    let cfg = ShardConfig {
        shards,
        epsilon: opts.get("shard-epsilon", 0.1)?,
        seed: opts.get("shard-seed", opts.get("seed", 0u64)?)?,
        drift_threshold: opts.get("drift", 0.25)?,
        ann_overfetch: opts.get("ann-overfetch", defaults.ann_overfetch)?,
        ..defaults
    };
    cfg.validate().map_err(CliError::Config)?;
    Ok(Some(cfg))
}

/// The embedder for shard `shard` of a configuration already validated
/// by [`glodyne_config`]. Each shard's walk/SGNS seeds are offset by its
/// shard id so shards don't train on identical random streams; shard 0
/// is the unsharded embedder.
fn shard_embedder(cfg: &GloDyNEConfig, shard: usize) -> GloDyNE {
    let mut cfg = cfg.clone();
    cfg.walk.seed = cfg.walk.seed.wrapping_add(shard as u64);
    cfg.sgns.seed = cfg.sgns.seed.wrapping_add(shard as u64);
    GloDyNE::new(cfg).expect("seed offsets keep a validated config valid")
}

/// One embedder session per shard (see [`shard_embedder`]).
fn shard_sessions(
    cfg: &GloDyNEConfig,
    policy: EpochPolicy,
    shards: usize,
) -> Result<Vec<EmbedderSession<GloDyNE>>, CliError> {
    (0..shards)
        .map(|shard| Ok(EmbedderSession::new(shard_embedder(cfg, shard), policy)?))
        .collect()
}

/// Shared durability parsing for `serve`: `None` without `--data-dir`;
/// with it, `--fsync` (`flush`, `off`, `every:<n>`), `--snapshot-every`,
/// `--keep-snapshots`, and `--segment-bytes` tune the lineage.
fn parse_durable(opts: &Opts) -> Result<Option<(PathBuf, DurableConfig)>, CliError> {
    let Some(dir) = opts.get_opt::<String>("data-dir")? else {
        return Ok(None);
    };
    let defaults = DurableConfig::default();
    let fsync = match opts.get_opt::<String>("fsync")? {
        None => defaults.fsync,
        Some(spec) => FsyncPolicy::parse(&spec)
            .map_err(|e| CliError::Usage(format!("invalid --fsync `{spec}`: {e}")))?,
    };
    let cfg = DurableConfig {
        segment_bytes: opts.get("segment-bytes", defaults.segment_bytes)?.max(1),
        fsync,
        snapshot_every: opts.get("snapshot-every", defaults.snapshot_every)?,
        keep_snapshots: opts.get("keep-snapshots", defaults.keep_snapshots)?.max(1),
    };
    Ok(Some((PathBuf::from(dir), cfg)))
}

/// Shared telemetry parsing for `serve`: `--telemetry` switches the
/// metrics registry on (any probe or slow-query flag implies it), the
/// probe cadence rides `--probe-every <ms>` / `--probe-k` /
/// `--probe-sample` / `--probe-seed`, and `--slow-us` sets the
/// slow-query ring threshold. Returns `(telemetry, probe, slow_us)`
/// ready to drop into a [`ServerConfig`].
fn parse_telemetry(opts: &Opts) -> Result<(bool, Option<ProbeSettings>, Option<u64>), CliError> {
    let probe_flags = opts.get_opt::<u64>("probe-every")?.is_some()
        || opts.get_opt::<usize>("probe-k")?.is_some()
        || opts.get_opt::<usize>("probe-sample")?.is_some();
    let slow_us = opts.get_opt::<u64>("slow-us")?;
    let telemetry = opts.get("telemetry", false)? || probe_flags || slow_us.is_some();
    if !telemetry {
        return Ok((false, None, None));
    }
    let defaults = ProbeSettings::default();
    let probe = ProbeSettings {
        period_ms: opts.get("probe-every", defaults.period_ms)?,
        k: opts.get("probe-k", defaults.k)?,
        sample: opts.get("probe-sample", defaults.sample)?,
        seed: opts.get("probe-seed", defaults.seed)?,
    };
    probe.validate().map_err(CliError::Config)?;
    Ok((true, Some(probe), slow_us))
}

/// Shared `--policy` parsing for `stream` and `serve`.
fn parse_policy(opts: &Opts) -> Result<EpochPolicy, CliError> {
    match opts.get_str("policy", "timestamp") {
        "timestamp" => Ok(EpochPolicy::TimestampBoundary),
        "every-n" => Ok(EpochPolicy::EveryNEvents(opts.get("every", 1000usize)?)),
        "manual" => Ok(EpochPolicy::Manual),
        other => Err(CliError::Usage(format!(
            "unknown --policy `{other}` (expected timestamp, every-n, or manual)"
        ))),
    }
}

/// `glodyne stream`: drive an [`EmbedderSession`] over the edge file
/// event-by-event and report each committed step.
pub fn stream(opts: &Opts) -> Result<String, CliError> {
    refuse_shards(
        opts,
        "`stream` embeds in one session; shard a server with `serve --shards`",
    )?;
    let input = opts.require("input")?;
    let mut events = load_stream(input)?;
    events.sort_by_key(|te| te.time);

    if let Some(addr) = opts.get_opt::<String>("addr")? {
        return stream_remote(opts, &addr, &events);
    }
    let policy = parse_policy(opts)?;
    let ann = parse_ann(opts)?;
    let model = GloDyNE::new(glodyne_config(opts)?)?;
    let mut session = EmbedderSession::new(model, policy)?;
    // A flush only marks the index stale, so without `--query` nothing
    // is built; with it, the one build is a cold one over the final
    // embedding.
    session.set_ann(ann.map(|settings| settings.config))?;

    let mut out = String::new();
    let mut t = 0usize;
    for &event in &events {
        if session.apply(event.into()) {
            let r = session.last_report().expect("apply committed a step");
            let snap = session.last_snapshot().expect("committed snapshot");
            out.push_str(&report_line(t, snap.num_nodes(), snap.num_edges(), &r));
            out.push('\n');
            t += 1;
        }
    }
    if let Some(r) = session.flush() {
        let snap = session.last_snapshot().expect("committed snapshot");
        out.push_str(&report_line(t, snap.num_nodes(), snap.num_edges(), &r));
        out.push('\n');
    }
    out.push_str(&format!(
        "{} events -> {} steps, {} embedded nodes\n",
        events.len(),
        session.steps(),
        session.embedding().len()
    ));

    if let Some(nodes) = parse_query_nodes(opts)? {
        let k = opts.get("top-k", 10usize)?;
        let exact = session.nearest_batch(&nodes, k);
        // The session's own index answers the ANN block, at the
        // effective probe width (the serve path's contract); SQ8
        // indexes re-rank against the session's exact rows.
        let approx = ann.and_then(|settings| {
            let index = session.ensure_ann_index()?;
            let (cells, nprobe) = (
                index.cells(),
                index.effective_nprobe(settings.default_nprobe),
            );
            let hits = session.nearest_batch_approx(&nodes, k, nprobe)?;
            Some((cells, nprobe, hits))
        });
        for (i, (&node, hits)) in nodes.iter().zip(&exact).enumerate() {
            let query = node.0;
            if session.query(node).is_none() {
                out.push_str(&format!("node {query}: no embedding\n"));
                continue;
            }
            out.push_str(&format!("nearest neighbours of {query} (exact):\n"));
            for &(id, sim) in hits {
                out.push_str(&format!("  {:>10}  cos={sim:.4}\n", id.0));
            }
            if let Some((cells, nprobe, approx)) = &approx {
                out.push_str(&format!(
                    "nearest neighbours of {query} (ann, cells={cells} nprobe={nprobe}):\n"
                ));
                for &(id, sim) in &approx[i] {
                    out.push_str(&format!("  {:>10}  cos={sim:.4}\n", id.0));
                }
            }
        }
    }
    Ok(out)
}

/// `glodyne stream --addr HOST:PORT`: feed the edge file to a running
/// server over the wire instead of embedding locally — ingest in
/// batches, flush, then answer `--query` probes with wire `nearest`.
/// Connect failures and `overloaded` sheds retry under one jittered
/// exponential-backoff budget (`--retry-budget` attempts); a partial
/// accept (server shed mid-batch) resumes from the first refused event
/// after a backoff delay.
fn stream_remote(opts: &Opts, addr: &str, events: &[TimedEdge]) -> Result<String, CliError> {
    let budget = opts.get("retry-budget", 5u32)?;
    let mut backoff = Backoff::new(budget);
    let mut sent = 0usize;
    while sent < events.len() {
        let chunk = &events[sent..(sent + 4096).min(events.len())];
        let mut line = String::from("{\"cmd\":\"ingest\",\"edges\":[");
        for (i, e) in chunk.iter().enumerate() {
            if i > 0 {
                line.push(',');
            }
            line.push_str(&format!("[{},{},{}]", e.edge.u.0, e.edge.v.0, e.time));
        }
        line.push_str("]}");
        let resp = wire_roundtrip_backoff(addr, &line, &mut backoff)?;
        if resp.get("ok") != Some(&Json::Bool(true)) {
            return Err(CliError::Parse(format!(
                "{addr}: ingest failed: {}",
                resp.get("error").and_then(Json::as_str).unwrap_or("?")
            )));
        }
        let accepted = resp
            .get("accepted")
            .and_then(Json::as_u64)
            .unwrap_or(chunk.len() as u64) as usize;
        sent += accepted;
        if accepted < chunk.len() {
            // Partial accept: the server shed the tail. Pay a backoff
            // delay before resuming from the first refused event.
            match backoff.next_delay() {
                Some(delay) => std::thread::sleep(delay),
                None => {
                    return Err(CliError::Parse(format!(
                        "{addr}: server still overloaded after {budget} \
                         backoff attempt(s); {sent}/{} events ingested",
                        events.len()
                    )))
                }
            }
        }
    }
    let flush = wire_roundtrip_backoff(addr, "{\"cmd\":\"flush\"}", &mut backoff)?;
    let mut out = format!(
        "{} events -> epoch {} at {addr}\n",
        events.len(),
        flush.get("epoch").and_then(Json::as_u64).unwrap_or(0),
    );
    if let Some(nodes) = parse_query_nodes(opts)? {
        let k = opts.get("top-k", 10usize)?;
        for node in nodes {
            let req = format!("{{\"cmd\":\"nearest\",\"node\":{},\"k\":{k}}}", node.0);
            let resp = wire_roundtrip_backoff(addr, &req, &mut backoff)?;
            if resp.get("ok") != Some(&Json::Bool(true)) {
                out.push_str(&format!(
                    "node {}: {}\n",
                    node.0,
                    resp.get("error").and_then(Json::as_str).unwrap_or("?")
                ));
                continue;
            }
            out.push_str(&format!("nearest neighbours of {} (wire):\n", node.0));
            for hit in resp.get("neighbours").and_then(Json::as_arr).unwrap_or(&[]) {
                let pair = hit.as_arr().unwrap_or(&[]);
                out.push_str(&format!(
                    "  {:>10}  cos={:.4}\n",
                    pair.first().and_then(Json::as_u64).unwrap_or(0),
                    pair.get(1).and_then(Json::as_f64).unwrap_or(f64::NAN),
                ));
            }
        }
    }
    Ok(out)
}

/// Build and bind the serving process for `glodyne serve`, returning
/// the running server plus the preamble to print before blocking.
///
/// Split from [`serve`] so tests can bind port 0, read the actual
/// address off the [`Server`], and drive the wire protocol directly.
pub fn start_server(opts: &Opts) -> Result<(Server, String), CliError> {
    if opts.get_opt::<String>("data-dir")?.is_some() {
        refuse_shards(
            opts,
            "a sharded server serves in memory; drop --data-dir or use --shards 1",
        )?;
    }
    // Fault injection opt-in: GLODYNE_CHAOS="site=rule;..." arms the
    // failpoint registry for the whole process. Off (one relaxed
    // atomic load per site) unless the variable is set.
    let chaos_armed = glodyne_chaos::configure_from_env()
        .map_err(|e| CliError::Usage(format!("bad GLODYNE_CHAOS spec: {e}")))?;
    let bind = opts.get_str("bind", "127.0.0.1:7878");
    let policy = parse_policy(opts)?;
    let ann = parse_ann(opts)?;
    let shard_cfg = parse_shards(opts)?;
    let (telemetry, probe, slow_us) = parse_telemetry(opts)?;
    let defaults = ServerConfig::default();
    let cfg = ServerConfig {
        max_connections: opts.get("threads", 64usize)?.max(1),
        queue_capacity: opts.get("queue", 1024usize)?.max(1),
        ann,
        telemetry,
        probe,
        slow_query_us: slow_us.unwrap_or(defaults.slow_query_us),
        fast_fail: opts.get("fast-fail", false)?,
        default_deadline_ms: opts.get_opt("deadline-ms")?,
        stall_after_ms: opts.get("stall-after-ms", defaults.stall_after_ms)?,
        write_timeout_ms: opts
            .get_opt("write-timeout-ms")?
            .map(Some)
            .unwrap_or(defaults.write_timeout_ms),
        ..defaults
    };
    let durable = parse_durable(opts)?;
    let bind_err = |e: ServeError| match e {
        ServeError::Bind { addr, source } => CliError::Io {
            context: format!("cannot bind {addr}"),
            source,
        },
        other => CliError::Usage(other.to_string()),
    };
    let dir_err = |what: &'static str, dir: &Path| {
        let dir = dir.display().to_string();
        move |source: std::io::Error| CliError::Io {
            context: format!("cannot {what} {dir}"),
            source,
        }
    };

    let mut preamble = String::new();
    if chaos_armed {
        preamble
            .push_str("chaos: failpoints ARMED from GLODYNE_CHAOS — not for production serving\n");
    }
    // The embedder configuration, built (and validated) once for every
    // mode; shard `i` offsets its seeds from it.
    let mut mcfg = glodyne_config(opts)?;
    if durable.is_some() {
        // Replay determinism requires single-threaded SGNS: a parallel
        // reduction reorders float adds and the recovered state would
        // drift from the logged run.
        mcfg.sgns.parallel = false;
        preamble.push_str("durable: sgns forced single-threaded for deterministic replay\n");
    }
    // The optional warm-start edge file, time-ordered. An existing
    // durable lineage takes precedence over it (and never opens it).
    let warm_start = || -> Result<Option<Vec<TimedEdge>>, CliError> {
        let Some(input) = opts.get_opt::<String>("input")? else {
            return Ok(None);
        };
        let mut events = load_stream(&input)?;
        events.sort_by_key(|te| te.time);
        Ok(Some(events))
    };
    let recovered_line = |preamble: &mut String, provenance: &str, wal_clean: bool| {
        preamble.push_str(&format!("durable: recovered from {provenance}\n"));
        if !wal_clean {
            preamble.push_str("durable: wal tail was torn and has been healed\n");
        }
        if opts.get_opt::<String>("input")?.is_some() {
            preamble.push_str("warm start skipped: existing durable lineage takes precedence\n");
        }
        Ok::<(), CliError>(())
    };

    let server = if let Some(shard_cfg) = shard_cfg {
        // Sharded, in memory (`--data-dir` was refused above): the
        // per-shard IVF indexes come from the serve layer
        // (ServerConfig.ann), not the sessions.
        let sessions = shard_sessions(&mcfg, policy, shard_cfg.shards)?;
        let server = Server::bind_sharded(sessions, shard_cfg, bind, cfg).map_err(bind_err)?;
        // Warm start rides the running session's router: ingest + flush
        // complete before the preamble (and hence the operator's
        // go-ahead) is printed.
        if let Some(events) = warm_start()? {
            let gevents: Vec<glodyne_graph::GraphEvent> =
                events.iter().map(|&te| te.into()).collect();
            let sharded = server.sharded().expect("sharded server");
            sharded
                .ingest(&gevents)
                .and_then(|_| sharded.flush())
                .map_err(|e| CliError::Usage(e.to_string()))?;
            let stats = server.stats();
            preamble.push_str(&format!(
                "warm start: {} events -> epoch {} across {} shards, {} live nodes\n",
                events.len(),
                stats.epoch,
                shard_cfg.shards,
                stats.nodes,
            ));
        }
        preamble.push_str(&format!(
            "sharded: {} partition-routed shards (epsilon={} seed={}; \
             stats reports a per-shard break-down)\n",
            shard_cfg.shards, shard_cfg.epsilon, shard_cfg.seed
        ));
        server
    } else {
        let has_lineage = |dir: &Path| -> Result<bool, CliError> {
            let inspect = dir_err("inspect", dir);
            Ok(!list_snapshots(dir).map_err(&inspect)?.is_empty()
                || !list_segments(dir).map_err(&inspect)?.is_empty())
        };
        match &durable {
            Some((dir, dcfg)) if has_lineage(dir)? => {
                let make = || shard_embedder(&mcfg, 0);
                let (recovered, report) = DurableSession::recover(dir, *dcfg, policy, false, make)
                    .map_err(dir_err("recover", dir))?;
                recovered_line(&mut preamble, &report.recovered_from, report.wal_clean)?;
                Server::bind(recovered, bind, cfg).map_err(bind_err)?
            }
            _ => {
                let mut session = EmbedderSession::new(shard_embedder(&mcfg, 0), policy)?;
                // Warm start: replay the edge file through the session
                // (and commit it) before the first connection is
                // accepted — and, when durable, before the lineage
                // exists: the committed state is frozen into the
                // initial snapshot, so it never needs to be replayed
                // from the WAL.
                if let Some(events) = warm_start()? {
                    session.ingest(&events);
                    session.flush();
                    preamble.push_str(&format!(
                        "warm start: {} events -> {} steps, {} embedded nodes\n",
                        events.len(),
                        session.steps(),
                        session.embedding().len()
                    ));
                }
                match &durable {
                    Some((dir, dcfg)) => {
                        let created = DurableSession::create(dir, session, *dcfg)
                            .map_err(dir_err("create durable lineage in", dir))?;
                        preamble.push_str(&format!(
                            "durable: fresh lineage at {} (fsync={}, snapshot every {} epoch(s))\n",
                            dir.display(),
                            dcfg.fsync,
                            dcfg.snapshot_every,
                        ));
                        Server::bind(created, bind, cfg).map_err(bind_err)?
                    }
                    None => Server::bind(session, bind, cfg).map_err(bind_err)?,
                }
            }
        }
    };
    if let Some(settings) = &ann {
        let storage = if settings.config.quantize {
            format!(
                ", sq8 posting lists, rerank x{}",
                settings.config.rerank_factor
            )
        } else {
            String::new()
        };
        preamble.push_str(&format!(
            "ann: ivf index per epoch (cells={} nprobe={}{storage}; \
             request with {{\"cmd\":\"nearest\",...,\"mode\":\"ann\"}})\n",
            settings.config.cells, settings.default_nprobe
        ));
    }
    if telemetry {
        preamble.push_str(
            "telemetry: metrics registry on \
             ({\"cmd\":\"metrics\"} scrapes Prometheus text, stats carries a telemetry object)\n",
        );
        if let Some(p) = &probe {
            if ann.is_some() {
                preamble.push_str(&format!(
                    "telemetry: quality probe every {}ms \
                     (recall@{} over {} sampled nodes, seed {})\n",
                    p.period_ms, p.k, p.sample, p.seed
                ));
            } else {
                preamble.push_str("telemetry: quality probe idle (no --ann index to probe)\n");
            }
        }
    }
    preamble.push_str(&format!(
        "serving on {} (line-delimited JSON; send {{\"cmd\":\"shutdown\"}} to stop)\n",
        server.local_addr()
    ));
    Ok((server, preamble))
}

/// `glodyne serve`: run the TCP serving process until a client sends
/// the `shutdown` sentinel (or the process is killed).
pub fn serve(opts: &Opts) -> Result<String, CliError> {
    let (server, preamble) = start_server(opts)?;
    // The preamble must reach the operator *before* the blocking join —
    // it carries the bound address.
    print!("{preamble}");
    std::io::Write::flush(&mut std::io::stdout())?;
    let served = server.join();
    Ok(format!("shut down cleanly after {served} connection(s)\n"))
}

/// Jittered exponential backoff with a retry budget, for wire requests
/// against a server that is down (connect refused) or shedding load
/// (`overloaded` responses). Full jitter — the delay is uniform in
/// `[base/2, base)` per doubling — so a fleet of retrying clients does
/// not re-converge on the same instant.
struct Backoff {
    attempt: u32,
    budget: u32,
    rng: u64,
}

impl Backoff {
    const BASE_MS: u64 = 100;
    const CAP_DOUBLINGS: u32 = 6; // 100ms .. 6.4s

    fn new(budget: u32) -> Self {
        Backoff {
            attempt: 0,
            budget,
            // Seed per process so concurrent CLI invocations jitter
            // differently; determinism is not a goal on this path.
            rng: 0x5eed ^ u64::from(std::process::id()),
        }
    }

    /// The next delay to sleep before retrying, `None` once the budget
    /// is spent.
    fn next_delay(&mut self) -> Option<std::time::Duration> {
        if self.attempt >= self.budget {
            return None;
        }
        let full = Self::BASE_MS << self.attempt.min(Self::CAP_DOUBLINGS);
        self.attempt += 1;
        let half = (full / 2).max(1);
        let jitter = splitmix64_next(&mut self.rng) % half;
        Some(std::time::Duration::from_millis(half + jitter))
    }
}

/// One wire round-trip: connect, send one request line, parse the one
/// response line.
fn wire_roundtrip(addr: &str, request: &str) -> Result<Json, CliError> {
    use std::io::{BufRead, Write};
    let conn_err = |source: std::io::Error| CliError::Io {
        context: format!("cannot reach server at {addr}"),
        source,
    };
    let stream = std::net::TcpStream::connect(addr).map_err(conn_err)?;
    let _ = stream.set_nodelay(true); // one-line round-trips: avoid Nagle stalls
    stream
        .set_read_timeout(Some(std::time::Duration::from_secs(10)))
        .map_err(conn_err)?;
    let mut writer = stream.try_clone().map_err(conn_err)?;
    // The line and its newline in one write: one segment on the wire.
    writer
        .write_all(format!("{request}\n").as_bytes())
        .map_err(conn_err)?;
    let mut line = String::new();
    BufReader::new(stream)
        .read_line(&mut line)
        .map_err(conn_err)?;
    if line.is_empty() {
        return Err(CliError::Parse(format!("{addr}: connection closed")));
    }
    json::parse(line.trim_end())
        .map_err(|e| CliError::Parse(format!("bad response from {addr}: {e}")))
}

/// [`wire_roundtrip`] behind a [`Backoff`]: retries connect failures
/// and `overloaded` responses; every other outcome (including other
/// structured errors) returns immediately.
fn wire_roundtrip_backoff(
    addr: &str,
    request: &str,
    backoff: &mut Backoff,
) -> Result<Json, CliError> {
    loop {
        let retry_after = match wire_roundtrip(addr, request) {
            Ok(resp) => {
                let kind = resp.get("kind").and_then(Json::as_str);
                if kind == Some("overloaded") {
                    backoff.next_delay()
                } else {
                    return Ok(resp);
                }
            }
            Err(CliError::Io { .. }) => backoff.next_delay(),
            Err(e) => return Err(e),
        };
        match retry_after {
            Some(delay) => std::thread::sleep(delay),
            None => {
                // Budget spent: surface the final attempt's outcome.
                return wire_roundtrip(addr, request);
            }
        }
    }
}

/// One wire round-trip: fetch the `stats` object from a running server.
fn fetch_stats(addr: &str, backoff: &mut Backoff) -> Result<Json, CliError> {
    wire_roundtrip_backoff(addr, "{\"cmd\":\"stats\"}", backoff)
}

fn stat_u64(v: &Json, key: &str) -> u64 {
    v.get(key).and_then(Json::as_u64).unwrap_or(0)
}

/// `n=<count> p50=<..> p99=<..> max=<..>` for one histogram snapshot
/// object out of the stats telemetry section.
fn fmt_hist(h: &Json) -> String {
    format!(
        "n={} p50={} p99={} max={}",
        stat_u64(h, "count"),
        stat_u64(h, "p50"),
        stat_u64(h, "p99"),
        stat_u64(h, "max"),
    )
}

/// Render one `stats` response for the terminal: the core serving
/// counters always, the telemetry section when the server runs with
/// `--telemetry` (and within it, only the sub-sections that exist).
fn render_stats(stats: &Json) -> String {
    let mut out = format!(
        "epoch {}  nodes {}  dim {}\n\
         queue: depth {}/{}  high-water {}  accepted {}\n",
        stat_u64(stats, "epoch"),
        stat_u64(stats, "nodes"),
        stat_u64(stats, "dim"),
        stat_u64(stats, "queue_depth"),
        stat_u64(stats, "queue_capacity"),
        stat_u64(stats, "queue_high_water"),
        stat_u64(stats, "events_accepted"),
    );
    if let Some(ann) = stats.get("ann").filter(|a| **a != Json::Null) {
        out.push_str(&format!(
            "ann: cells={} nprobe={} storage={} index={}B\n",
            stat_u64(ann, "cells"),
            stat_u64(ann, "nprobe_default"),
            ann.get("storage").and_then(Json::as_str).unwrap_or("?"),
            stat_u64(ann, "index_bytes"),
        ));
    }
    if let Some(shards) = stats.get("shards").and_then(Json::as_arr) {
        out.push_str(&format!("shards: {}\n", shards.len()));
        for sh in shards {
            out.push_str(&format!(
                "  shard {}: epoch {} nodes {} queue {} accepted {}\n",
                stat_u64(sh, "shard"),
                stat_u64(sh, "epoch"),
                stat_u64(sh, "nodes"),
                stat_u64(sh, "queue_depth"),
                stat_u64(sh, "events_accepted"),
            ));
        }
    }
    if let Some(h) = stats.get("health").filter(|h| **h != Json::Null) {
        let degraded = h.get("degraded") == Some(&Json::Bool(true));
        let alive = h.get("trainer_alive") != Some(&Json::Bool(false));
        out.push_str(&format!(
            "health: {}  trainer {}  stale epochs {}  stalled {}ms\n",
            if degraded { "DEGRADED" } else { "ok" },
            if alive { "alive" } else { "gone" },
            stat_u64(h, "stale_epochs"),
            stat_u64(h, "stalled_ms"),
        ));
    }
    if let Some(r) = stats.get("rebalance").filter(|r| **r != Json::Null) {
        out.push_str(&format!(
            "rebalance: {} batch(es)  {} migrated  {} pending\n",
            stat_u64(r, "rebalance_batches"),
            stat_u64(r, "migrated_nodes"),
            stat_u64(r, "pending_migrations"),
        ));
    }
    let Some(t) = stats.get("telemetry").filter(|t| **t != Json::Null) else {
        out.push_str("telemetry: off (serve with --telemetry)\n");
        return out;
    };
    out.push_str("telemetry:\n");
    if let Some(Json::Obj(cmds)) = t.get("wire_latency_us") {
        out.push_str("  wire latency (us):\n");
        for (cmd, h) in cmds {
            out.push_str(&format!("    {cmd:<14} {}\n", fmt_hist(h)));
        }
    }
    if let Some(Json::Obj(stages)) = t.get("stage_us") {
        out.push_str("  trainer stages (us):\n");
        for (stage, h) in stages {
            out.push_str(&format!("    {stage:<14} {}\n", fmt_hist(h)));
        }
    }
    if let Some(h) = t.get("queue_wait_us") {
        out.push_str(&format!("  queue wait (us): {}\n", fmt_hist(h)));
    }
    if let Some(h) = t.get("freshness_lag_us") {
        out.push_str(&format!("  freshness lag (us): {}\n", fmt_hist(h)));
    }
    if let Some(d) = t.get("durability").filter(|d| **d != Json::Null) {
        out.push_str("  durability (us):\n");
        for (key, label) in [
            ("wal_append_us", "wal append"),
            ("wal_fsync_us", "wal fsync"),
            ("snapshot_write_us", "snapshot"),
        ] {
            if let Some(h) = d.get(key) {
                out.push_str(&format!("    {label:<14} {}\n", fmt_hist(h)));
            }
        }
    }
    if let Some(p) = t.get("probe").filter(|p| **p != Json::Null) {
        out.push_str(&format!(
            "  probe: recall@{} = {:.4} over {} round(s), latency {}\n",
            stat_u64(p, "k"),
            p.get("recall").and_then(Json::as_f64).unwrap_or(0.0),
            stat_u64(p, "runs"),
            p.get("latency_us").map(fmt_hist).unwrap_or_default(),
        ));
    }
    if let Some(slow) = t.get("slow_queries").and_then(Json::as_arr) {
        if slow.is_empty() {
            out.push_str("  slow queries: none\n");
        } else {
            out.push_str(&format!("  slow queries (last {}):\n", slow.len()));
            for q in slow {
                out.push_str(&format!(
                    "    {:<14} nodes={} epoch={} {}us\n",
                    q.get("cmd").and_then(Json::as_str).unwrap_or("?"),
                    stat_u64(q, "nodes"),
                    stat_u64(q, "epoch"),
                    stat_u64(q, "micros"),
                ));
            }
        }
    }
    out
}

/// `glodyne stats`: one-shot (or `--watch` periodic) pretty-printed
/// snapshot of a running server's `stats` object.
pub fn stats_cmd(opts: &Opts) -> Result<String, CliError> {
    let addr = opts.get_str("addr", "127.0.0.1:7878");
    let budget = opts.get("retry-budget", 5u32)?;
    if !opts.get("watch", false)? {
        return Ok(render_stats(&fetch_stats(addr, &mut Backoff::new(budget))?));
    }
    let interval = std::time::Duration::from_millis(opts.get("interval-ms", 2000u64)?.max(1));
    let mut frames = 0u64;
    loop {
        // Fresh budget per frame: a server that sheds for one scrape
        // but recovers keeps the watch alive indefinitely.
        match fetch_stats(addr, &mut Backoff::new(budget)) {
            Ok(stats) => {
                frames += 1;
                print!("{}", render_stats(&stats));
                println!("---");
                std::io::Write::flush(&mut std::io::stdout())?;
            }
            // The first fetch failing (after its retry budget) is an
            // error; the server going away mid-watch is a clean exit.
            Err(e) if frames == 0 => return Err(e),
            Err(_) => {
                return Ok(format!(
                    "server at {addr} went away after {frames} frame(s)\n"
                ));
            }
        }
        std::thread::sleep(interval);
    }
}

/// One lineage directory's health: every snapshot's integrity, the WAL
/// segment/record totals, and how much a restart would replay.
fn inspect_lineage(dir: &Path) -> Result<String, CliError> {
    let ioerr = |source: std::io::Error| CliError::Io {
        context: format!("cannot inspect {}", dir.display()),
        source,
    };
    let mut out = String::from("[session]\n");
    let snapshots = list_snapshots(dir).map_err(&ioerr)?;
    let mut floor = 0u64;
    if snapshots.is_empty() {
        out.push_str("  no snapshots\n");
    }
    for (seq, path) in &snapshots {
        match load_snapshot(path) {
            Ok(snap) => {
                let kind = match snap.kind {
                    PAYLOAD_SESSION => "session",
                    _ => "unknown",
                };
                floor = floor.max(snap.seq);
                out.push_str(&format!(
                    "  snapshot seq={} epoch={} kind={kind} payload={}B ok\n",
                    snap.seq,
                    snap.epoch,
                    snap.payload.len()
                ));
            }
            Err(e) => out.push_str(&format!(
                "  snapshot seq={seq} CORRUPT ({e}) — recovery falls back to an older one\n"
            )),
        }
    }
    let segments = list_segments(dir).map_err(&ioerr)?;
    let replayed = replay(dir).map_err(&ioerr)?;
    let events = replayed
        .records
        .iter()
        .filter(|(_, r)| matches!(r, WalRecord::Event(_)))
        .count();
    let flushes = replayed.records.len() - events;
    let pending = replayed
        .records
        .iter()
        .filter(|&&(seq, r)| seq > floor && matches!(r, WalRecord::Event(_)))
        .count();
    out.push_str(&format!(
        "  wal: {} segment(s), {events} event(s) + {flushes} flush marker(s), {}\n",
        segments.len(),
        if replayed.clean {
            "clean tail"
        } else {
            "torn tail (healed on recovery)"
        },
    ));
    out.push_str(&format!(
        "  restart replays {pending} event(s) past snapshot seq {floor}\n"
    ));
    Ok(out)
}

/// `glodyne recover`: inspect a `--data-dir` without serving from it —
/// read-only, so it is safe to run next to a live server.
pub fn recover(opts: &Opts) -> Result<String, CliError> {
    let dir = PathBuf::from(opts.require("data-dir")?);
    if !dir.is_dir() {
        return Err(CliError::Usage(format!(
            "--data-dir {}: not a directory",
            dir.display()
        )));
    }
    let mut out = format!("durable lineage at {}\n", dir.display());
    out.push_str(&inspect_lineage(&dir)?);
    Ok(out)
}

/// `glodyne partition`: balanced k-way partition of the final snapshot.
pub fn partition_cmd(opts: &Opts) -> Result<String, CliError> {
    let input = opts.require("input")?;
    let stream = load_stream(input)?;
    let net = cut_snapshots(stream, 1);
    let g = net.snapshot(0);
    let cfg = PartitionConfig {
        k: opts.get("k", 8usize)?,
        epsilon: opts.get("epsilon", 0.1)?,
        seed: opts.get("seed", 0u64)?,
        ..Default::default()
    };
    let p = partition(g, &cfg);
    let mut out = String::with_capacity(g.num_nodes() * 8);
    out.push_str(&format!(
        "# {} nodes, {} parts, edge cut {}, imbalance {:.3}\n",
        g.num_nodes(),
        p.k,
        p.edge_cut(g),
        p.imbalance(g.num_nodes())
    ));
    for l in 0..g.num_nodes() {
        out.push_str(&format!("{} {}\n", g.node_id(l).0, p.assignment[l]));
    }
    Ok(out)
}

/// `glodyne evaluate`: GR MeanP@k and LP AUC of GloDyNE on the stream.
pub fn evaluate(opts: &Opts) -> Result<String, CliError> {
    let input = opts.require("input")?;
    let n_snapshots = opts.get("snapshots", 10usize)?;
    let stream = load_stream(input)?;
    let net = cut_snapshots(stream, n_snapshots);
    let snaps = net.snapshots();

    let mut model = GloDyNE::new(glodyne_config(opts)?)?;
    let embeddings: Vec<_> = run_over_reports(&mut model, snaps)
        .into_iter()
        .map(|(emb, _)| emb)
        .collect();

    let ks = [1usize, 5, 10, 20, 40];
    let mut gr_acc = vec![0.0; ks.len()];
    for (e, s) in embeddings.iter().zip(snaps) {
        for (a, v) in gr_acc.iter_mut().zip(mean_precision_at_k(e, s, &ks)) {
            *a += v;
        }
    }
    gr_acc.iter_mut().for_each(|a| *a /= snaps.len() as f64);

    let mut auc_acc = 0.0;
    let mut auc_n = 0usize;
    for t in 0..snaps.len().saturating_sub(1) {
        let test = build_test_set(&snaps[t], &snaps[t + 1], opts.get("seed", 0u64)? + t as u64);
        if !test.is_empty() {
            auc_acc += link_prediction_auc(&embeddings[t], &test);
            auc_n += 1;
        }
    }

    let mut out = String::new();
    out.push_str("graph reconstruction (mean over time steps):\n");
    for (k, v) in ks.iter().zip(&gr_acc) {
        out.push_str(&format!("  MeanP@{k:<3} = {:.4}\n", v));
    }
    if auc_n > 0 {
        out.push_str(&format!(
            "link prediction AUC (mean over transitions) = {:.4}\n",
            auc_acc / auc_n as f64
        ));
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use glodyne_graph::NodeId;
    use std::time::Duration;

    fn stream_fixture() -> Vec<TimedEdge> {
        // Growing triangle fan over 30 time units.
        let mut stream = Vec::new();
        for t in 0..30u64 {
            let v = t as u32;
            stream.push(TimedEdge::new(NodeId(v), NodeId(v + 1), t));
            stream.push(TimedEdge::new(NodeId(v), NodeId(v + 2), t));
        }
        stream
    }

    fn write_fixture(dir: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(dir);
        std::fs::create_dir_all(&dir).unwrap();
        let input = dir.join("edges.txt");
        let mut f = std::fs::File::create(&input).unwrap();
        glodyne_graph::io::write_edge_stream(&mut f, &stream_fixture()).unwrap();
        input
    }

    #[test]
    fn backoff_delays_double_with_jitter_then_exhaust() {
        let mut b = Backoff::new(3);
        let mut prev_half = 0u64;
        for attempt in 0..3u32 {
            let d = b.next_delay().expect("within budget");
            let half = (Backoff::BASE_MS << attempt) / 2;
            // Full jitter: uniform in [half, 2*half).
            assert!(d >= Duration::from_millis(half), "attempt {attempt}: {d:?}");
            assert!(
                d < Duration::from_millis(half * 2),
                "attempt {attempt}: {d:?}"
            );
            assert!(half > prev_half);
            prev_half = half;
        }
        assert_eq!(b.next_delay(), None, "budget of 3 spent");
        assert_eq!(b.next_delay(), None, "stays exhausted");
    }

    #[test]
    fn backoff_delay_caps_at_max_doublings() {
        let mut b = Backoff::new(64);
        let mut last = Duration::ZERO;
        for _ in 0..20 {
            last = b.next_delay().unwrap();
        }
        let cap_half = (Backoff::BASE_MS << Backoff::CAP_DOUBLINGS) / 2;
        assert!(last < Duration::from_millis(cap_half * 2));
    }

    #[test]
    fn cut_snapshots_quantiles() {
        let net = cut_snapshots(stream_fixture(), 3);
        assert_eq!(net.len(), 3);
        // Monotone growth across snapshots.
        assert!(net.snapshot(0).num_edges() <= net.snapshot(1).num_edges());
        assert!(net.snapshot(1).num_edges() <= net.snapshot(2).num_edges());
        // Final snapshot holds the full (LCC of the) stream.
        assert_eq!(net.snapshot(2).num_edges(), 60);
    }

    #[test]
    fn cut_snapshots_dedups_duplicate_timestamps() {
        // Regression: all edges share one timestamp, so every quantile
        // collapses onto it. The old code produced `n` identical
        // snapshots; now the cutoffs are deduplicated to one.
        let stream: Vec<TimedEdge> = (0..10u32)
            .map(|i| TimedEdge::new(NodeId(i), NodeId(i + 1), 7))
            .collect();
        let net = cut_snapshots(stream, 5);
        assert_eq!(net.len(), 1, "one distinct timestamp => one snapshot");
        assert_eq!(net.snapshot(0).num_edges(), 10);

        // Two distinct timestamps, ten requested cuts => two snapshots.
        let stream: Vec<TimedEdge> = (0..10u32)
            .map(|i| TimedEdge::new(NodeId(i), NodeId(i + 1), (i >= 5) as u64))
            .collect();
        let net = cut_snapshots(stream, 10);
        assert_eq!(net.len(), 2);
        assert!(net.snapshot(0).num_edges() < net.snapshot(1).num_edges());
    }

    #[test]
    fn cut_snapshots_degenerate_inputs() {
        assert!(cut_snapshots(Vec::new(), 5).is_empty());
        assert!(cut_snapshots(stream_fixture(), 0).is_empty());
    }

    #[test]
    fn end_to_end_embed_and_evaluate() {
        let input = write_fixture("glodyne_cli_test");
        let out_dir = input.parent().unwrap().join("emb");
        let opts = Opts::parse(&[
            "--input".into(),
            input.display().to_string(),
            "--snapshots".into(),
            "3".into(),
            "--out-dir".into(),
            out_dir.display().to_string(),
            "--dim".into(),
            "8".into(),
            "--walks".into(),
            "2".into(),
            "--walk-length".into(),
            "8".into(),
            "--epochs".into(),
            "1".into(),
        ]);
        let report = embed(&opts).unwrap();
        assert!(report.contains("t=2"));
        assert!(report.contains("train="), "step report line present");
        // Written TSVs parse back.
        let f = std::fs::File::open(out_dir.join("embedding_t002.tsv")).unwrap();
        let emb = persist::read_tsv(std::io::BufReader::new(f)).unwrap();
        assert!(emb.len() > 10);
        assert_eq!(emb.dim(), 8);

        let eval = evaluate(&opts).unwrap();
        assert!(eval.contains("MeanP@1"));
    }

    #[test]
    fn stream_command_end_to_end() {
        let input = write_fixture("glodyne_cli_stream");
        let opts = Opts::parse(&[
            "--input".into(),
            input.display().to_string(),
            "--policy".into(),
            "every-n".into(),
            "--every".into(),
            "20".into(),
            "--dim".into(),
            "8".into(),
            "--walks".into(),
            "2".into(),
            "--walk-length".into(),
            "8".into(),
            "--epochs".into(),
            "1".into(),
            "--query".into(),
            "0".into(),
            "--top-k".into(),
            "3".into(),
        ]);
        let out = stream(&opts).unwrap();
        assert!(out.contains("t=0"), "{out}");
        assert!(out.contains("steps"), "{out}");
        assert!(out.contains("nearest neighbours of 0 (exact)"), "{out}");
        assert!(!out.contains("(ann,"), "no ann block without --ann: {out}");

        let bad = Opts::parse(&[
            "--input".into(),
            input.display().to_string(),
            "--policy".into(),
            "hourly".into(),
        ]);
        assert!(matches!(stream(&bad), Err(CliError::Usage(_))));
    }

    #[test]
    fn stream_command_with_ann() {
        let input = write_fixture("glodyne_cli_stream_ann");
        let mut args = vec![
            "--input".into(),
            input.display().to_string(),
            "--policy".into(),
            "manual".into(),
            "--dim".into(),
            "8".into(),
            "--walks".into(),
            "2".into(),
            "--walk-length".into(),
            "8".into(),
            "--epochs".into(),
            "1".into(),
            "--query".into(),
            "0".into(),
            "--top-k".into(),
            "3".into(),
            "--ann".into(),
            "--cells".into(),
            "4".into(),
            "--nprobe".into(),
            "4".into(),
        ];
        let out = stream(&Opts::parse(&args)).unwrap();
        assert!(out.contains("nearest neighbours of 0 (exact)"), "{out}");
        assert!(
            out.contains("nearest neighbours of 0 (ann, cells=4 nprobe=4)"),
            "{out}"
        );
        // Probing every cell, the session's index answers exactly.
        let block = |header: &str| -> Vec<&str> {
            out.lines()
                .skip_while(|line| !line.starts_with(header))
                .skip(1)
                .take_while(|line| line.starts_with("  "))
                .collect()
        };
        let exact = block("nearest neighbours of 0 (exact)");
        assert!(!exact.is_empty(), "{out}");
        assert_eq!(exact, block("nearest neighbours of 0 (ann"), "{out}");

        // Degenerate ANN parameters surface as config errors.
        args.extend(["--cells".into(), "0".into()]);
        let err = stream(&Opts::parse(&args)).unwrap_err();
        assert!(matches!(err, CliError::Config(_)), "{err}");
        assert!(err.to_string().contains("cells"), "{err}");
    }

    #[test]
    fn stream_command_batch_query_and_sq8() {
        let input = write_fixture("glodyne_cli_stream_batch");
        let mut args = vec![
            "--input".into(),
            input.display().to_string(),
            "--policy".into(),
            "manual".into(),
            "--dim".into(),
            "8".into(),
            "--walks".into(),
            "2".into(),
            "--walk-length".into(),
            "8".into(),
            "--epochs".into(),
            "1".into(),
            "--query".into(),
            "0,5,404".into(),
            "--top-k".into(),
            "3".into(),
            "--ann".into(),
            "--cells".into(),
            "4".into(),
            "--nprobe".into(),
            "4".into(),
            "--sq8".into(),
            "--rerank".into(),
            "8".into(),
        ];
        let out = stream(&Opts::parse(&args)).unwrap();
        // Every probe in the comma-separated list is answered; the
        // unknown one degrades per node, not per request.
        assert!(out.contains("nearest neighbours of 0 (exact)"), "{out}");
        assert!(out.contains("nearest neighbours of 5 (exact)"), "{out}");
        assert!(
            out.contains("nearest neighbours of 5 (ann, cells=4 nprobe=4)"),
            "{out}"
        );
        assert!(out.contains("node 404: no embedding"), "{out}");

        // A malformed id anywhere in the list is a usage error.
        let query_idx = args.iter().position(|a| a == "0,5,404").unwrap();
        args[query_idx] = "0,x".into();
        let err = stream(&Opts::parse(&args)).unwrap_err();
        assert!(matches!(err, CliError::Usage(_)), "{err}");
        assert!(err.to_string().contains("invalid node id `x`"), "{err}");

        // --rerank is validated like the other ANN knobs.
        args[query_idx] = "0".into();
        args.extend(["--rerank".into(), "0".into()]);
        let err = stream(&Opts::parse(&args)).unwrap_err();
        assert!(matches!(err, CliError::Config(_)), "{err}");
        assert!(err.to_string().contains("rerank"), "{err}");
    }

    #[test]
    fn serve_command_sharded() {
        use std::io::{BufRead, BufReader, Write};
        let input = write_fixture("glodyne_cli_serve_sharded");
        let opts = Opts::parse(&[
            "--bind".into(),
            "127.0.0.1:0".into(),
            "--input".into(),
            input.display().to_string(),
            "--policy".into(),
            "manual".into(),
            "--shards".into(),
            "2".into(),
            "--dim".into(),
            "8".into(),
            "--walks".into(),
            "2".into(),
            "--walk-length".into(),
            "8".into(),
            "--epochs".into(),
            "1".into(),
        ]);
        let (server, preamble) = start_server(&opts).unwrap();
        assert!(preamble.contains("warm start"), "{preamble}");
        assert!(
            preamble.contains("sharded: 2 partition-routed shards"),
            "{preamble}"
        );

        let stream = std::net::TcpStream::connect(server.local_addr()).unwrap();
        let mut reader = BufReader::new(stream.try_clone().unwrap());
        let mut round_trip = move |req: &str| {
            let mut w = stream.try_clone().unwrap();
            w.write_all(req.as_bytes()).unwrap();
            w.write_all(b"\n").unwrap();
            let mut line = String::new();
            reader.read_line(&mut line).unwrap();
            line
        };
        // The warm start committed through the router; reads fan out.
        let stats = round_trip(r#"{"cmd":"stats"}"#);
        assert!(stats.contains("\"shards\":["), "{stats}");
        let q = round_trip(r#"{"cmd":"query","node":0}"#);
        assert!(q.contains("\"ok\":true"), "{q}");
        let near = round_trip(r#"{"cmd":"nearest","node":0,"k":3}"#);
        assert!(near.contains("\"neighbours\""), "{near}");
        round_trip(r#"{"cmd":"shutdown"}"#);
        server.join();
    }

    #[test]
    fn serve_command_end_to_end() {
        use std::io::{BufRead, BufReader, Write};
        let input = write_fixture("glodyne_cli_serve");
        let opts = Opts::parse(&[
            "--bind".into(),
            "127.0.0.1:0".into(),
            "--input".into(),
            input.display().to_string(),
            "--policy".into(),
            "manual".into(),
            "--threads".into(),
            "4".into(),
            "--dim".into(),
            "8".into(),
            "--walks".into(),
            "2".into(),
            "--walk-length".into(),
            "8".into(),
            "--epochs".into(),
            "1".into(),
        ]);
        let (server, preamble) = start_server(&opts).unwrap();
        assert!(preamble.contains("warm start"), "{preamble}");
        assert!(preamble.contains("serving on"), "{preamble}");

        let stream = std::net::TcpStream::connect(server.local_addr()).unwrap();
        let mut reader = BufReader::new(stream.try_clone().unwrap());
        let mut round_trip = move |req: &str| {
            let mut w = stream.try_clone().unwrap();
            w.write_all(req.as_bytes()).unwrap();
            w.write_all(b"\n").unwrap();
            let mut line = String::new();
            reader.read_line(&mut line).unwrap();
            line
        };
        // The warm start committed one epoch; reads work immediately.
        let stats = round_trip(r#"{"cmd":"stats"}"#);
        assert!(stats.contains("\"epoch\":1"), "{stats}");
        let q = round_trip(r#"{"cmd":"query","node":0}"#);
        assert!(q.contains("\"ok\":true"), "{q}");
        let bye = round_trip(r#"{"cmd":"shutdown"}"#);
        assert!(bye.contains("\"ok\":true"), "{bye}");
        assert_eq!(server.join(), 1);

        // A bad policy is a usage error before any socket is opened.
        let bad = Opts::parse(&[
            "--bind".into(),
            "127.0.0.1:0".into(),
            "--policy".into(),
            "yearly".into(),
        ]);
        assert!(matches!(start_server(&bad), Err(CliError::Usage(_))));
    }

    #[test]
    fn serve_command_with_ann() {
        use std::io::{BufRead, BufReader, Write};
        let input = write_fixture("glodyne_cli_serve_ann");
        let opts = Opts::parse(&[
            "--bind".into(),
            "127.0.0.1:0".into(),
            "--input".into(),
            input.display().to_string(),
            "--policy".into(),
            "manual".into(),
            "--dim".into(),
            "8".into(),
            "--walks".into(),
            "2".into(),
            "--walk-length".into(),
            "8".into(),
            "--epochs".into(),
            "1".into(),
            "--ann".into(),
            "--cells".into(),
            "4".into(),
            "--nprobe".into(),
            "2".into(),
        ]);
        let (server, preamble) = start_server(&opts).unwrap();
        assert!(preamble.contains("cells=4 nprobe=2"), "{preamble}");

        let stream = std::net::TcpStream::connect(server.local_addr()).unwrap();
        let mut reader = BufReader::new(stream.try_clone().unwrap());
        let mut round_trip = move |req: &str| {
            let mut w = stream.try_clone().unwrap();
            w.write_all(req.as_bytes()).unwrap();
            w.write_all(b"\n").unwrap();
            let mut line = String::new();
            reader.read_line(&mut line).unwrap();
            line
        };
        let near = round_trip(r#"{"cmd":"nearest","node":0,"k":3,"mode":"ann"}"#);
        assert!(near.contains("\"mode\":\"ann\""), "{near}");
        assert!(near.contains("\"nprobe\":2"), "{near}");
        let stats = round_trip(r#"{"cmd":"stats"}"#);
        assert!(stats.contains("\"cells\":4"), "{stats}");
        round_trip(r#"{"cmd":"shutdown"}"#);
        server.join();

        // --ann with a bad nprobe is a config error.
        let bad = Opts::parse(&[
            "--bind".into(),
            "127.0.0.1:0".into(),
            "--ann".into(),
            "--nprobe".into(),
            "0".into(),
        ]);
        match start_server(&bad) {
            Err(err) => assert!(matches!(err, CliError::Config(_)), "{err}"),
            Ok(_) => panic!("nprobe = 0 must be rejected"),
        }
    }

    fn durable_args(input: &std::path::Path, data_dir: &std::path::Path) -> Vec<String> {
        [
            "--bind",
            "127.0.0.1:0",
            "--input",
            &input.display().to_string(),
            "--policy",
            "manual",
            "--dim",
            "8",
            "--walks",
            "2",
            "--walk-length",
            "8",
            "--epochs",
            "1",
            "--data-dir",
            &data_dir.display().to_string(),
            "--snapshot-every",
            "1",
        ]
        .iter()
        .map(|s| s.to_string())
        .collect()
    }

    #[test]
    fn serve_command_durable_restart_and_recover_report() {
        use std::io::{BufRead, BufReader, Write};
        let input = write_fixture("glodyne_cli_serve_durable");
        let data_dir = std::env::temp_dir().join(format!(
            "glodyne_cli_durable_{}_{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_dir_all(&data_dir);
        let opts = Opts::parse(&durable_args(&input, &data_dir));

        let round_trip = |server: &Server, req: &str| {
            let stream = std::net::TcpStream::connect(server.local_addr()).unwrap();
            let mut reader = BufReader::new(stream.try_clone().unwrap());
            let mut w = stream.try_clone().unwrap();
            w.write_all(req.as_bytes()).unwrap();
            w.write_all(b"\n").unwrap();
            let mut line = String::new();
            reader.read_line(&mut line).unwrap();
            line
        };

        let (server, preamble) = start_server(&opts).unwrap();
        assert!(preamble.contains("durable: fresh lineage"), "{preamble}");
        assert!(preamble.contains("single-threaded"), "{preamble}");
        assert!(preamble.contains("warm start"), "{preamble}");
        let q_before = round_trip(&server, r#"{"cmd":"query","node":0}"#);
        assert!(q_before.contains("\"ok\":true"), "{q_before}");
        let stats = round_trip(&server, r#"{"cmd":"stats"}"#);
        assert!(stats.contains("\"durability\":{"), "{stats}");
        assert!(stats.contains("\"recovered_from\":null"), "{stats}");
        round_trip(&server, r#"{"cmd":"shutdown"}"#);
        server.join();

        // Same options, same directory: the lineage is recovered, the
        // warm start skipped, and reads come back byte-identical.
        let (server, preamble) = start_server(&opts).unwrap();
        assert!(
            preamble.contains("durable: recovered from snapshot seq"),
            "{preamble}"
        );
        assert!(preamble.contains("warm start skipped"), "{preamble}");
        let q_after = round_trip(&server, r#"{"cmd":"query","node":0}"#);
        assert_eq!(q_before, q_after, "restart must be bit-exact");
        let stats = round_trip(&server, r#"{"cmd":"stats"}"#);
        assert!(
            stats.contains("\"recovered_from\":\"snapshot seq"),
            "{stats}"
        );
        round_trip(&server, r#"{"cmd":"shutdown"}"#);
        server.join();

        // The inspection command reports the same directory's health.
        let report = recover(&Opts::parse(&[
            "--data-dir".into(),
            data_dir.display().to_string(),
        ]))
        .unwrap();
        assert!(report.contains("durable lineage at"), "{report}");
        assert!(report.contains("snapshot seq="), "{report}");
        assert!(report.contains("clean tail"), "{report}");
        assert!(report.contains("restart replays 0 event(s)"), "{report}");

        let err = recover(&Opts::parse(&[
            "--data-dir".into(),
            "/nonexistent/xyz".into(),
        ]))
        .unwrap_err();
        assert!(matches!(err, CliError::Usage(_)), "{err}");
        let _ = std::fs::remove_dir_all(&data_dir);
    }

    #[test]
    fn stream_and_serve_reject_shards_they_cannot_run() {
        let input = write_fixture("glodyne_cli_shards_usage");
        let data_dir = std::env::temp_dir().join(format!(
            "glodyne_cli_shards_usage_{}_{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_dir_all(&data_dir);

        // `serve --shards 2 --data-dir D`: a usage error naming both
        // flags, refused before anything is bound or created.
        let mut serve_args = durable_args(&input, &data_dir);
        serve_args.extend(["--shards".into(), "2".into()]);
        let err = start_server(&Opts::parse(&serve_args))
            .err()
            .expect("a sharded durable server is refused");
        assert!(matches!(err, CliError::Usage(_)), "{err}");
        let msg = err.to_string();
        assert!(
            msg.contains("--shards 2") && msg.contains("--data-dir"),
            "{msg}"
        );
        assert!(!data_dir.exists(), "nothing created before the error");

        // `stream --shards 2`: a usage error naming the flag.
        let mut stream_args: Vec<String> = vec![
            "--input".into(),
            input.display().to_string(),
            "--policy".into(),
            "manual".into(),
            "--shards".into(),
            "2".into(),
            "--dim".into(),
            "8".into(),
            "--walks".into(),
            "2".into(),
            "--walk-length".into(),
            "8".into(),
            "--epochs".into(),
            "1".into(),
            "--query".into(),
            "0".into(),
            "--top-k".into(),
            "3".into(),
        ];
        let err = stream(&Opts::parse(&stream_args)).unwrap_err();
        assert!(matches!(err, CliError::Usage(_)), "{err}");
        assert!(err.to_string().contains("--shards 2"), "{err}");

        // `--shards 1` is the unsharded path on both commands.
        stream_args[5] = "1".into();
        let out = stream(&Opts::parse(&stream_args)).unwrap();
        assert!(out.contains("nearest neighbours of 0 (exact)"), "{out}");
        *serve_args.last_mut().unwrap() = "1".into();
        let (server, preamble) = start_server(&Opts::parse(&serve_args)).unwrap();
        assert!(preamble.contains("durable: fresh lineage"), "{preamble}");
        assert!(!preamble.contains("sharded:"), "{preamble}");
        server.request_shutdown();
        server.join();
        let _ = std::fs::remove_dir_all(&data_dir);
    }

    #[test]
    fn parse_durable_flags() {
        assert!(parse_durable(&Opts::parse(&[])).unwrap().is_none());
        let opts = Opts::parse(&[
            "--data-dir".into(),
            "/tmp/x".into(),
            "--fsync".into(),
            "every:8".into(),
            "--snapshot-every".into(),
            "2".into(),
        ]);
        let (dir, cfg) = parse_durable(&opts).unwrap().unwrap();
        assert_eq!(dir, PathBuf::from("/tmp/x"));
        assert_eq!(cfg.fsync, FsyncPolicy::EveryNEvents(8));
        assert_eq!(cfg.snapshot_every, 2);

        let bad = Opts::parse(&[
            "--data-dir".into(),
            "/tmp/x".into(),
            "--fsync".into(),
            "sometimes".into(),
        ]);
        let err = parse_durable(&bad).unwrap_err();
        assert!(err.to_string().contains("--fsync"), "{err}");
    }

    #[test]
    fn invalid_config_surfaces_cleanly() {
        let input = write_fixture("glodyne_cli_cfg");
        let opts = Opts::parse(&[
            "--input".into(),
            input.display().to_string(),
            "--alpha".into(),
            "7.0".into(),
        ]);
        let err = embed(&opts).unwrap_err();
        assert!(matches!(err, CliError::Config(_)), "{err}");
        assert!(err.to_string().contains("alpha"));
    }

    #[test]
    fn partition_command_output() {
        let input = write_fixture("glodyne_cli_part");
        let opts = Opts::parse(&[
            "--input".into(),
            input.display().to_string(),
            "--k".into(),
            "4".into(),
        ]);
        let out = partition_cmd(&opts).unwrap();
        assert!(out.contains("4 parts"));
        assert!(out.lines().count() > 20);
    }

    #[test]
    fn missing_file_is_a_clean_error() {
        let opts = Opts::parse(&["--input".into(), "/nonexistent/xyz.txt".into()]);
        let err = embed(&opts).unwrap_err();
        assert!(err.to_string().contains("cannot open"));
        assert!(matches!(err, CliError::Io { .. }));
    }

    #[test]
    fn parse_telemetry_flags() {
        // Off by default.
        let (on, probe, slow) = parse_telemetry(&Opts::parse(&[])).unwrap();
        assert!(!on && probe.is_none() && slow.is_none());
        // --telemetry alone uses probe defaults.
        let (on, probe, _) = parse_telemetry(&Opts::parse(&["--telemetry".into()])).unwrap();
        assert!(on);
        assert_eq!(probe.unwrap(), ProbeSettings::default());
        // Any probe flag implies --telemetry.
        let (on, probe, slow) = parse_telemetry(&Opts::parse(&[
            "--probe-every".into(),
            "250".into(),
            "--probe-k".into(),
            "5".into(),
            "--slow-us".into(),
            "500".into(),
        ]))
        .unwrap();
        assert!(on);
        let probe = probe.unwrap();
        assert_eq!(probe.period_ms, 250);
        assert_eq!(probe.k, 5);
        assert_eq!(slow, Some(500));
        // Degenerate probe parameters are config errors.
        let err = parse_telemetry(&Opts::parse(&["--probe-k".into(), "0".into()])).unwrap_err();
        assert!(matches!(err, CliError::Config(_)), "{err}");
    }

    #[test]
    fn serve_command_with_telemetry_and_stats_watch() {
        use std::io::{BufRead, BufReader, Write};
        let input = write_fixture("glodyne_cli_serve_telemetry");
        let opts = Opts::parse(&[
            "--bind".into(),
            "127.0.0.1:0".into(),
            "--input".into(),
            input.display().to_string(),
            "--policy".into(),
            "manual".into(),
            "--dim".into(),
            "8".into(),
            "--walks".into(),
            "2".into(),
            "--walk-length".into(),
            "8".into(),
            "--epochs".into(),
            "1".into(),
            "--ann".into(),
            "--cells".into(),
            "4".into(),
            "--nprobe".into(),
            "4".into(),
            "--telemetry".into(),
            "--probe-every".into(),
            "10".into(),
            "--probe-k".into(),
            "3".into(),
        ]);
        let (server, preamble) = start_server(&opts).unwrap();
        assert!(
            preamble.contains("telemetry: metrics registry on"),
            "{preamble}"
        );
        assert!(
            preamble.contains("quality probe every 10ms (recall@3"),
            "{preamble}"
        );
        let addr = server.local_addr().to_string();

        // The one-shot pretty-printer sees the live telemetry section.
        let rendered = stats_cmd(&Opts::parse(&["--addr".into(), addr.clone()])).unwrap();
        assert!(rendered.contains("telemetry:"), "{rendered}");
        assert!(rendered.contains("wire latency (us):"), "{rendered}");
        assert!(rendered.contains("ann: cells=4"), "{rendered}");

        // The metrics op scrapes Prometheus text over the same wire
        // (pipeline a stats request behind it as the terminator).
        let stream = std::net::TcpStream::connect(server.local_addr()).unwrap();
        let mut reader = BufReader::new(stream.try_clone().unwrap());
        let mut w = stream.try_clone().unwrap();
        w.write_all(b"{\"cmd\":\"metrics\"}\n{\"cmd\":\"stats\"}\n")
            .unwrap();
        let mut text = String::new();
        loop {
            let mut line = String::new();
            reader.read_line(&mut line).unwrap();
            if line.starts_with(r#"{"ok":true,"cmd":"stats""#) {
                break;
            }
            text.push_str(&line);
        }
        assert!(text.contains("# TYPE glodyne_wire_latency_us"), "{text}");
        assert!(text.contains("glodyne_probe_recall_at_k"), "{text}");

        // --watch keeps printing frames and exits cleanly when the
        // server goes away.
        let watcher = std::thread::spawn(move || {
            stats_cmd(&Opts::parse(&[
                "--addr".into(),
                addr,
                "--watch".into(),
                "--interval-ms".into(),
                "20".into(),
            ]))
        });
        std::thread::sleep(std::time::Duration::from_millis(100));
        w.write_all(b"{\"cmd\":\"shutdown\"}\n").unwrap();
        let mut bye = String::new();
        reader.read_line(&mut bye).unwrap();
        server.join();
        let report = watcher.join().unwrap().unwrap();
        assert!(report.contains("went away"), "{report}");

        // Against a dead address, the first fetch is a clean error.
        let err = stats_cmd(&Opts::parse(&["--addr".into(), "127.0.0.1:1".into()])).unwrap_err();
        assert!(matches!(err, CliError::Io { .. }), "{err}");
    }

    #[test]
    fn render_stats_handles_telemetry_off() {
        let stats = glodyne_serve::json::parse(
            r#"{"ok":true,"cmd":"stats","epoch":2,"nodes":9,"dim":8,
                "queue_depth":0,"queue_capacity":64,"queue_high_water":3,
                "events_accepted":17,"ann":null,"shards":null,"telemetry":null}"#,
        )
        .unwrap();
        let out = render_stats(&stats);
        assert!(out.contains("epoch 2  nodes 9  dim 8"), "{out}");
        assert!(out.contains("high-water 3"), "{out}");
        assert!(out.contains("telemetry: off"), "{out}");
        assert!(!out.contains("ann:"), "{out}");
    }
}
