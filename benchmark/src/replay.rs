//! The in-process half of a traced run: rebuild the same state from
//! the same generated events by calling the library crates directly,
//! one span around each call into a layer.
//!
//! The spans come from the benchmark's own files — nothing inside the
//! program is instrumented — so a per-layer number here is what that
//! layer's public function costs on this workload's data. The write
//! side is replayed cycle by cycle in the server's configuration (one
//! session, or a router in front of one session per shard); the read
//! side and the storage layer are timed afterwards on the final epoch.

use crate::gen::Event;
use crate::lifecycle::ReplayInput;
use crate::stats;
use crate::trace::{SpanId, Tracer};
use crate::workloads::{Workload, BATCH_PROBES, DIM, SNAPSHOT_EVERY, TOP_K};
use glodyne::{
    EmbedderSession, EpochPolicy, GloDyNE, GloDyNEConfig, IvfConfig, IvfIndex, StepReport,
};
use glodyne_ann::{BatchQuery, SearchScratch};
use glodyne_durable::{
    encode_session_payload, load_snapshot, write_snapshot, DurableConfig, DurableSession,
    FsyncPolicy, WalWriter, PAYLOAD_SESSION,
};
use glodyne_embed::walks::WalkConfig;
use glodyne_embed::{kernel, Embedding, SgnsConfig};
use glodyne_graph::state::GraphEvent;
use glodyne_graph::NodeId;
use glodyne_partition::{partition, PartitionConfig};
use glodyne_serve::protocol;
use glodyne_shard::fanout::{self, ShardView};
use glodyne_shard::{ShardConfig, ShardRouter};
use std::collections::{BTreeMap, VecDeque};
use std::hint::black_box;
use std::io;
use std::path::Path;
use std::time::{Duration, Instant};

/// Rows the dot-product kernels stream per pass.
const KERNEL_ROWS: usize = 4096;
/// Probes timed per read-side measurement.
const READ_PROBES: usize = 256;
/// Shards of the router every workload's events are routed through
/// (the sharded workload's own count; elsewhere "if this were
/// sharded").
const ROUTER_SHARDS: usize = 2;
/// Cycles between the replay's snapshot and its end, so that recovery
/// has steps to replay.
const RECOVER_TAIL: usize = SNAPSHOT_EVERY / 2;

/// Layer metrics by name.
pub type Layers = BTreeMap<&'static str, f64>;

fn graph_event(ev: Event, t: u64) -> GraphEvent {
    match ev {
        Event::Add(u, v) => GraphEvent::add_edge(NodeId(u), NodeId(v), t),
        Event::RemoveEdge(u, v) => GraphEvent::remove_edge(NodeId(u), NodeId(v), t),
        Event::RemoveNode(n) => GraphEvent::remove_node(NodeId(n), t),
    }
}

fn ms(from: Instant) -> f64 {
    from.elapsed().as_secs_f64() * 1e3
}

fn millis(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

fn us(from: Instant) -> f64 {
    from.elapsed().as_secs_f64() * 1e6
}

fn other(e: impl std::fmt::Display) -> io::Error {
    io::Error::other(e.to_string())
}

/// The embedder configuration `glodyne serve` builds for `w` (its
/// `--seed` left at 0), for shard `shard`.
fn embedder_config(w: &Workload, shard: usize) -> GloDyNEConfig {
    let (walks, length, window, negatives, epochs) = w.profile.params();
    GloDyNEConfig {
        alpha: 0.1,
        epsilon: 0.1,
        walk: WalkConfig {
            walks_per_node: walks,
            walk_length: length,
            seed: shard as u64,
        },
        sgns: SgnsConfig {
            dim: DIM,
            window,
            negatives,
            epochs,
            seed: shard as u64,
            // `--data-dir` forces single-threaded SGNS in the CLI.
            parallel: !w.durable,
            ..Default::default()
        },
        ..Default::default()
    }
}

fn ivf_config(w: &Workload, quantize: bool) -> IvfConfig {
    IvfConfig {
        cells: w.cells(),
        quantize,
        ..Default::default()
    }
}

fn new_session(w: &Workload, shard: usize) -> io::Result<EmbedderSession<GloDyNE>> {
    let model = GloDyNE::new(embedder_config(w, shard)).map_err(other)?;
    let session = EmbedderSession::new(model, EpochPolicy::Manual).map_err(other)?;
    // Sharded sessions commit the full graph: a shard's snapshot is a
    // fragment, and its largest component would drop owned nodes.
    let session = if w.shards > 1 {
        session.keep_full_graph()
    } else {
        session
    };
    session.with_ann(ivf_config(w, w.sq8)).map_err(other)
}

/// What the write-side replay collects: one sample per measured cycle
/// under the name of the metric its median becomes, and the counters
/// the ratios are made of.
#[derive(Default)]
struct Cycles {
    samples: BTreeMap<&'static str, Vec<f64>>,
    incremental_builds: usize,
    builds: usize,
    routed_copies: usize,
    events: usize,
    migrated: usize,
}

impl Cycles {
    fn sample(&mut self, name: &'static str, value: f64) {
        self.samples.entry(name).or_default().push(value);
    }
}

/// The write side: sessions, the router in front of them, and the WAL
/// beside them.
struct WriteSide<'a> {
    w: &'a Workload,
    sessions: Vec<EmbedderSession<GloDyNE>>,
    router: ShardRouter,
    /// Migration events queued behind the per-flush budget.
    pending: VecDeque<(u32, GraphEvent)>,
    wal: WalWriter,
    seq: u64,
    cycles: Cycles,
}

impl WriteSide<'_> {
    /// Apply one batch and commit it, one span per layer call. Returns
    /// the step reports (one per session that stepped).
    fn cycle(
        &mut self,
        tracer: &mut Tracer,
        parent: SpanId,
        tag: u64,
        events: &[GraphEvent],
    ) -> io::Result<Vec<StepReport>> {
        // Routing is on the sharded server's path and inside its
        // cycle; on the other workloads it runs before the cycle's
        // clock starts ("if this were sharded") and drives nothing.
        let sharded = self.w.shards > 1;
        let early = sharded.then(|| tracer.begin("replay.cycle", Some(parent), tag));
        let span = tracer.begin("shard.route", early.or(Some(parent)), tag);
        let mut routed: Vec<(u32, GraphEvent)> = Vec::with_capacity(events.len() * 2);
        for &ev in events {
            routed.extend(self.router.route(ev));
        }
        self.cycles.routed_copies += routed.len();
        self.cycles.events += events.len();
        // The server rebalances at flush boundaries, and forwards the
        // migration events a rebalance queues a budget's worth per
        // flush, so one re-partition is spread over many cycles.
        if let Some(rb) = self.router.maybe_rebalance() {
            self.cycles.migrated += rb.moved;
            self.pending.extend(rb.events);
        }
        let budget = match self.router.config().rebalance_budget {
            0 => self.pending.len(),
            budget => budget.min(self.pending.len()),
        };
        routed.extend(self.pending.drain(..budget));
        let route_us = tracer.end(span);
        let cycle = early.unwrap_or_else(|| tracer.begin("replay.cycle", Some(parent), tag));

        let applied: Vec<(u32, GraphEvent)> = if sharded {
            routed
        } else {
            events.iter().map(|&ev| (0, ev)).collect()
        };
        // Session 0's stream is the lineage the storage layer logs.
        let own: Vec<GraphEvent> = applied.iter().filter(|a| a.0 == 0).map(|a| a.1).collect();
        let span = tracer.begin("graph.apply", Some(cycle), tag);
        for &(shard, ev) in &applied {
            self.sessions[shard as usize].apply(ev);
        }
        let apply_us = tracer.end(span);
        let reports = self.commit(tracer, cycle, tag, &own);
        tracer.end(cycle);
        let c = &mut self.cycles;
        c.sample("shard.route_us_per_event", route_us / events.len() as f64);
        c.sample(
            "graph.apply_us_per_event",
            apply_us / applied.len().max(1) as f64,
        );
        reports
    }

    /// WAL, flush, publish and index build for every session. `own`
    /// is the event stream of session 0, whose lineage the storage
    /// layer is timed on.
    fn commit(
        &mut self,
        tracer: &mut Tracer,
        cycle: SpanId,
        tag: u64,
        own: &[GraphEvent],
    ) -> io::Result<Vec<StepReport>> {
        // Log before commit, as the durable trainer does. On the
        // ephemeral workloads this runs but is no part of the cycle.
        let wal_parent = self.w.durable.then_some(cycle);
        let span = tracer.begin("durable.wal_append", wal_parent, tag);
        for ev in own {
            self.seq += 1;
            self.wal.append(self.seq, ev)?;
        }
        self.wal.append_flush(self.seq)?;
        let append_us = tracer.end(span);
        let span = tracer.begin("durable.wal_sync", wal_parent, tag);
        self.wal.sync()?;
        let sync_us = tracer.end(span);

        let mut reports = Vec::new();
        let (mut clone_us, mut index_us, mut other_us) = (0.0, 0.0, 0.0);
        let (mut dirty, mut rows) = (0usize, 0usize);
        for session in &mut self.sessions {
            let flush = tracer.begin("core.flush", Some(cycle), tag);
            let report = session.flush();
            let flush_us = tracer.end(flush);
            let Some(report) = report else { continue };
            // Lay the phases the step reports inside the call that
            // made them; what is left of the call is snapshot commit,
            // diff and embedding materialisation.
            let mut at = tracer.start_of(flush);
            for (name, d) in [
                ("core.select", report.phases.select),
                ("embed.walks", report.phases.walks),
                ("embed.sgns", report.phases.train),
            ] {
                let end = at + d.as_secs_f64() * 1e6;
                tracer.record(name, Some(flush), tag, at, end);
                at = end;
            }
            other_us += flush_us - report.total_time().as_secs_f64() * 1e6;
            reports.push(report);

            // Publish: the server clones the embedding into the epoch
            // it swaps in, then builds the epoch's index.
            let span = tracer.begin("serve.publish_clone", Some(cycle), tag);
            black_box(session.embedding().clone());
            clone_us += tracer.end(span);
            let span = tracer.begin("ann.build", Some(cycle), tag);
            let index = session.ensure_ann_index().expect("ann is configured");
            self.cycles.builds += 1;
            self.cycles.incremental_builds +=
                usize::from(index.build_kind().as_str() == "incremental");
            dirty += index.dirty_rows();
            rows += index.len();
            index_us += tracer.end(span);
        }
        let sum = |f: fn(&StepReport) -> f64| reports.iter().map(f).sum::<f64>();
        let c = &mut self.cycles;
        c.sample("core.select_ms", sum(|r| millis(r.phases.select)));
        c.sample("embed.walks_ms", sum(|r| millis(r.phases.walks)));
        c.sample("embed.sgns_ms", sum(|r| millis(r.phases.train)));
        c.sample("core.step_ms", sum(|r| millis(r.total_time())));
        c.sample("core.selected_nodes", sum(|r| r.selected as f64));
        c.sample("embed.walk_tokens", sum(|r| r.corpus_tokens as f64));
        c.sample("embed.sgns_pairs", sum(|r| r.trained_pairs as f64));
        c.sample("core.flush_other_ms", other_us / 1e3);
        c.sample("serve.publish_clone_ms", clone_us / 1e3);
        c.sample("ann.cycle_build_ms", index_us / 1e3);
        c.sample("ann.dirty_rows_ratio", dirty as f64 / rows.max(1) as f64);
        c.sample(
            "durable.wal_append_us_per_event",
            append_us / own.len().max(1) as f64,
        );
        c.sample("durable.wal_sync_ms", sync_us / 1e3);
        Ok(reports)
    }

    /// Off the cycle's clock: the graph and partition layers on the
    /// snapshot the cycle just committed.
    fn snapshot_layers(&mut self, tracer: &mut Tracer, parent: SpanId, tag: u64) {
        let session = &self.sessions[0];
        let span = tracer.begin("graph.commit", Some(parent), tag);
        black_box(session.graph().commit());
        self.cycles
            .sample("graph.commit_ms", tracer.end(span) / 1e3);
        let Some(snapshot) = session.last_snapshot() else {
            return;
        };
        let n = snapshot.num_nodes();
        let k = ((0.1 * n as f64).round() as usize).clamp(1, n.max(1));
        let span = tracer.begin("partition.kway", Some(parent), tag);
        let parts = partition(snapshot, &PartitionConfig::with_k(k));
        self.cycles
            .sample("partition.kway_ms", tracer.end(span) / 1e3);
        self.cycles.sample(
            "partition.edge_cut_ratio",
            parts.edge_cut(snapshot) as f64 / snapshot.num_edges().max(1) as f64,
        );
    }
}

/// What the layers account for in each measured cycle: the cycle's
/// duration minus its own self time, milliseconds.
fn cycle_layers_ms(tracer: &Tracer) -> Vec<f64> {
    let own = tracer.self_times_us();
    tracer
        .spans()
        .iter()
        .zip(own)
        .filter(|(s, _)| s.name == "replay.cycle" && s.tag > 0)
        .map(|(s, own)| (s.end_us - s.start_us - own) / 1e3)
        .collect()
}

fn med(values: &[f64]) -> f64 {
    stats::median(values).unwrap_or(0.0)
}

/// Median time of `f` over `probes`, microseconds.
fn time_each<T>(probes: &[NodeId], mut f: impl FnMut(NodeId) -> T) -> f64 {
    let times: Vec<f64> = probes
        .iter()
        .map(|&p| {
            let t0 = Instant::now();
            black_box(f(p));
            us(t0)
        })
        .collect();
    med(&times)
}

/// GB/s of a dot kernel streaming [`KERNEL_ROWS`] rows against one
/// query, best of several passes (a bandwidth figure, so the least
/// disturbed pass is the one to keep).
fn kernel_gbps(rows: &[f32], query: &[f32], dot: fn(&[f32], &[f32]) -> f32) -> f64 {
    let bytes = (rows.len() * 4) as f64;
    (0..64)
        .map(|_| {
            let t0 = Instant::now();
            let mut acc = 0.0f32;
            for row in rows.chunks_exact(query.len()) {
                acc += dot(black_box(row), query);
            }
            black_box(acc);
            bytes / t0.elapsed().as_secs_f64() / 1e9
        })
        .fold(0.0, f64::max)
}

/// The final epoch as one embedding: the session's own, or the union
/// of every shard's owned rows.
fn global_embedding(side: &WriteSide<'_>) -> Embedding {
    if side.w.shards == 1 {
        return side.sessions[0].embedding().clone();
    }
    let views: Vec<ShardView<'_>> = side
        .sessions
        .iter()
        .enumerate()
        .map(|(s, session)| ShardView {
            shard: s as u32,
            embedding: session.embedding(),
            index: None,
        })
        .collect();
    fanout::union_embedding(&views, |id| side.router.owner(id))
}

/// Read-side layers on the final epoch.
fn read_side(
    w: &Workload,
    emb: &Embedding,
    router: &ShardRouter,
    probes: &[NodeId],
    out: &mut Layers,
) {
    let nprobe = w.nprobe();
    let vectors: Vec<(NodeId, &[f32])> = probes
        .iter()
        .filter_map(|&p| emb.get(p).map(|v| (p, v)))
        .collect();
    let ids: Vec<NodeId> = vectors.iter().map(|v| v.0).collect();
    let query_of = |p: NodeId| emb.get(p).expect("probe has a row");

    // embed: the two dot kernels and the exhaustive top-k.
    let mut rows = Vec::with_capacity(KERNEL_ROWS * DIM);
    while rows.len() < KERNEL_ROWS * DIM {
        for (_, v) in emb.iter().take(KERNEL_ROWS - rows.len() / DIM) {
            rows.extend_from_slice(v);
        }
    }
    let q = vectors[0].1;
    out.insert(
        "embed.dot_exact_gbps",
        kernel_gbps(&rows, q, kernel::dot_exact),
    );
    let fast_gbps = kernel_gbps(&rows, q, kernel::dot_fast);
    out.insert("embed.dot_fast_gbps", fast_gbps);
    out.insert(
        "embed.topk_exact_us",
        time_each(&ids, |p| emb.top_k(p, TOP_K)),
    );

    // ann: full build in both storages, an incremental update with a
    // hundredth of the rows dirty, and every search entry point.
    let t0 = Instant::now();
    let f32_index = IvfIndex::build(emb, &ivf_config(w, false));
    out.insert("ann.build_full_ms", ms(t0));
    out.insert("ann.index_bytes", f32_index.index_bytes() as f64);
    let sq8_index = IvfIndex::build(emb, &ivf_config(w, true));
    let dirty: Vec<NodeId> = emb.ids().iter().copied().step_by(100).collect();
    let t0 = Instant::now();
    black_box(IvfIndex::update_from(
        &f32_index,
        emb,
        &dirty,
        &ivf_config(w, false),
    ));
    out.insert("ann.update_incr_ms", ms(t0));

    let mut scratch = SearchScratch::new();
    let f32_us = time_each(&ids, |p| {
        f32_index.search_with(query_of(p), TOP_K, nprobe, Some(p), &mut scratch)
    });
    out.insert("ann.search_f32_us", f32_us);
    out.insert(
        "ann.search_sq8_us",
        time_each(&ids, |p| {
            sq8_index.search_in_with(emb, query_of(p), TOP_K, nprobe, Some(p), &mut scratch)
        }),
    );
    let batch = |p: NodeId| BatchQuery {
        query: query_of(p),
        exclude: Some(p),
    };
    out.insert(
        "ann.search_batch1_us",
        time_each(&ids, |p| {
            f32_index.search_batch_with(&[batch(p)], TOP_K, nprobe, &mut scratch)
        }),
    );
    let per_batch: Vec<f64> = ids
        .chunks_exact(BATCH_PROBES)
        .map(|chunk| {
            let queries: Vec<BatchQuery<'_>> = chunk.iter().map(|&p| batch(p)).collect();
            let t0 = Instant::now();
            black_box(f32_index.search_batch_with(&queries, TOP_K, nprobe, &mut scratch));
            us(t0) / BATCH_PROBES as f64
        })
        .collect();
    out.insert("ann.search_batch32_us_per_probe", med(&per_batch));
    // Bytes one f32 query must touch, computed, not measured: every
    // centroid, then `nprobe` posting lists of the mean length.
    let cells = f32_index.cells().max(1);
    let scanned_rows = cells + emb.len() * f32_index.effective_nprobe(nprobe) / cells;
    let scan_gbps = (scanned_rows * DIM * 4) as f64 / (f32_us * 1e-6) / 1e9;
    out.insert("ann.scan_gbps", scan_gbps);
    out.insert("ann.roofline_ratio", scan_gbps / fast_gbps);

    // shard: the fan-out merge over the epoch split by ownership.
    let mut parts: Vec<Embedding> = (0..ROUTER_SHARDS).map(|_| Embedding::new(DIM)).collect();
    for (id, v) in emb.iter() {
        if let Some(shard) = router.owner(id) {
            parts[shard as usize].set(id, v);
        }
    }
    let indexes: Vec<IvfIndex> = parts
        .iter()
        .map(|p| IvfIndex::build(p, &ivf_config(w, false)))
        .collect();
    let views: Vec<ShardView<'_>> = parts
        .iter()
        .zip(&indexes)
        .enumerate()
        .map(|(s, (embedding, index))| ShardView {
            shard: s as u32,
            embedding,
            index: Some(index),
        })
        .collect();
    let owner = |id: NodeId| router.owner(id);
    let owned: Vec<NodeId> = ids
        .iter()
        .copied()
        .filter(|&p| owner(p).is_some())
        .collect();
    out.insert(
        "shard.fanout_exact_us",
        time_each(&owned, |p| fanout::nearest_exact(&views, owner, p, TOP_K)),
    );
    let overfetch = router.config().ann_overfetch;
    out.insert(
        "shard.fanout_ann_us",
        time_each(&owned, |p| {
            fanout::nearest_approx_with(&views, owner, p, TOP_K, nprobe, overfetch, &mut scratch)
        }),
    );

    // serve: the protocol's parse and encode functions.
    let (probe, probe_vec) = vectors[0];
    let hits = emb.top_k(probe, TOP_K);
    let nearest_req = crate::lifecycle::lines::nearest(probe.0, "ann");
    let batch_nodes: Vec<NodeId> = ids.iter().copied().take(BATCH_PROBES).collect();
    let batch_hits: Vec<Option<Vec<(NodeId, f32)>>> = batch_nodes
        .iter()
        .map(|&p| Some(emb.top_k(p, TOP_K)))
        .collect();
    let repeat = |f: &mut dyn FnMut()| {
        let times: Vec<f64> = (0..READ_PROBES)
            .map(|_| {
                let t0 = Instant::now();
                f();
                us(t0)
            })
            .collect();
        med(&times)
    };
    out.insert(
        "serve.parse_nearest_us",
        repeat(&mut || {
            black_box(protocol::parse_request(black_box(&nearest_req)).is_ok());
        }),
    );
    out.insert(
        "serve.encode_query_us",
        repeat(&mut || {
            black_box(protocol::query_line(1, probe, probe_vec));
        }),
    );
    out.insert(
        "serve.encode_nearest_us",
        repeat(&mut || {
            black_box(protocol::nearest_ann_line(1, probe, &hits, nprobe));
        }),
    );
    out.insert(
        "serve.encode_batch_us",
        repeat(&mut || {
            black_box(protocol::nearest_batch_line(
                1,
                &batch_nodes,
                &batch_hits,
                Some(nprobe),
            ));
        }),
    );
}

/// Replay `input` through the library crates in `w`'s configuration
/// and time every layer. `scratch` is a directory for the WAL and
/// snapshot the storage layer writes; spans go to `tracer`.
pub fn replay(
    w: &Workload,
    input: &ReplayInput,
    scratch: &Path,
    tracer: &mut Tracer,
) -> io::Result<Layers> {
    let _ = std::fs::remove_dir_all(scratch);
    let shards = w.shards.max(1);
    let router_cfg = ShardConfig {
        shards: ROUTER_SHARDS,
        drift_threshold: w.drift,
        ..Default::default()
    };
    let mut side = WriteSide {
        w,
        sessions: (0..shards)
            .map(|s| new_session(w, s))
            .collect::<io::Result<_>>()?,
        router: ShardRouter::new(router_cfg).map_err(other)?,
        pending: VecDeque::new(),
        wal: WalWriter::open(
            scratch,
            1,
            DurableConfig::default().segment_bytes,
            FsyncPolicy::EveryFlush,
        )?,
        seq: 0,
        cycles: Cycles::default(),
    };
    let mut out = Layers::new();
    let root = tracer.begin("replay", None, 0);

    // Offline stage: the warm-start graph, one step, the first index.
    let warm: Vec<GraphEvent> = input
        .warm
        .iter()
        .map(|&(u, v)| graph_event(Event::Add(u, v), 0))
        .collect();
    let reports = side.cycle(tracer, root, 0, &warm)?;
    let offline_ms = reports.iter().map(|r| millis(r.total_time())).sum::<f64>();
    out.insert("core.offline_step_ms", offline_ms);
    // The offline stage is not a cycle: its samples and its full index
    // build stay out of the per-cycle medians and shares.
    side.cycles.samples.clear();
    (side.cycles.builds, side.cycles.incremental_builds) = (0, 0);

    // Online steps, cycle by cycle.
    let snapshot_at = input.cycles.len().saturating_sub(RECOVER_TAIL);
    for (c, cycle) in input.cycles.iter().enumerate() {
        let t = c as u64 + 1;
        let line = crate::gen::ingest_line(&cycle.events, t);
        let span = tracer.begin("serve.parse_ingest", Some(root), t);
        black_box(protocol::parse_request(&line).is_ok());
        let parse_us = tracer.end(span);
        side.cycles.sample("serve.parse_ingest_us", parse_us);
        let events: Vec<GraphEvent> = cycle.events.iter().map(|&ev| graph_event(ev, t)).collect();
        side.cycle(tracer, root, t, &events)?;
        side.snapshot_layers(tracer, root, t);
        if c + 1 == snapshot_at {
            // Freeze session 0 here; the cycles after it are what the
            // recovery below has to replay.
            let session = &side.sessions[0];
            let ckpt = session.checkpoint().expect("just flushed");
            let span = tracer.begin("durable.snapshot_write", Some(root), t);
            let payload = encode_session_payload(&ckpt, session.embedding());
            write_snapshot(scratch, side.seq, ckpt.epoch, PAYLOAD_SESSION, &payload)?;
            out.insert("durable.snapshot_write_ms", tracer.end(span) / 1e3);
            out.insert("durable.snapshot_bytes", payload.len() as f64);
        }
    }

    // Storage layer: recover session 0's lineage into a new session.
    let wal_bytes = side.wal.stats().bytes;
    let shard0 = embedder_config(w, 0);
    let span = tracer.begin("durable.recover", Some(root), 0);
    let load = tracer.begin("durable.recover_load", Some(span), 0);
    for (_, path) in glodyne_durable::list_snapshots(scratch)? {
        black_box(load_snapshot(&path)?.payload.len());
    }
    let load_ms = tracer.end(load) / 1e3;
    let (recovered, report) = DurableSession::recover(
        scratch,
        DurableConfig::default(),
        EpochPolicy::Manual,
        w.shards > 1,
        || GloDyNE::new(shard0.clone()).expect("the config was valid above"),
    )?;
    let recover_ms = tracer.end(span) / 1e3;
    // `recover` loads the snapshot again before it replays; charge
    // the replay with what is left after one load.
    out.insert("durable.recover_load_ms", load_ms);
    out.insert(
        "durable.recover_replay_ms",
        (recover_ms - 2.0 * load_ms).max(0.0),
    );
    let replayed_steps = recovered.session().steps() as u64 - report.snapshot_epoch.unwrap_or(0);
    out.insert("durable.replayed_steps", replayed_steps as f64);
    drop(recovered);

    // Read side and the rest, on the final epoch.
    let emb = global_embedding(&side);
    let probes: Vec<NodeId> = input
        .probes
        .iter()
        .map(|&n| NodeId(n))
        .filter(|&n| emb.get(n).is_some())
        .take(READ_PROBES)
        .collect();
    if probes.len() < BATCH_PROBES {
        return Err(io::Error::other(
            "the replayed epoch holds almost none of the probes",
        ));
    }
    let span = tracer.begin("replay.read_side", Some(root), 0);
    read_side(w, &emb, &side.router, &probes, &mut out);
    tracer.end(span);
    tracer.end(root);

    // Medians over the measured cycles, then what is made of counters.
    let c = &side.cycles;
    for (&name, values) in &c.samples {
        out.insert(name, med(values));
    }
    let per = |count: usize, of: usize| count as f64 / of.max(1) as f64;
    for (name, value) in [
        (
            "embed.sgns_mpairs_per_s",
            out["embed.sgns_pairs"] / (out["embed.sgns_ms"] * 1e3).max(1e-9),
        ),
        ("ann.incremental_share", per(c.incremental_builds, c.builds)),
        ("shard.mirror_ratio", per(c.routed_copies, c.events)),
        ("shard.rebalances", side.router.stats().rebalances as f64),
        ("shard.migrated_nodes", c.migrated as f64),
        (
            "durable.wal_bytes_per_event",
            wal_bytes as f64 / side.seq.max(1) as f64,
        ),
        ("trace.cycle_layers_ms", med(&cycle_layers_ms(tracer))),
    ] {
        out.insert(name, value);
    }
    drop(side);
    let _ = std::fs::remove_dir_all(scratch);
    Ok(out)
}
