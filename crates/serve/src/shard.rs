//! [`ShardedSession`]: `S` per-shard trainer threads behind one
//! partition router — the concurrent, epoch-swapped form of
//! `glodyne_shard::ShardedState`.
//!
//! Each shard is one `spawn_trainer` call — the same function, the
//! same `trainer_loop`, the same [`Trainee`] hooks as the unsharded
//! session (`crate::session`): its own bounded queue, its own trainer
//! thread, its own epoch handle publishing an immutable
//! [`EmbeddingEpoch`] after every committed step. Whether the shards
//! are in-memory or durable is, again, the trainees' type; whether the
//! *router* is, is the [`RouterLineage`] handed to
//! [`ShardedSession::spawn`] — a bare [`ShardConfig`], or what
//! [`recover_sharded`] returned. What the sharded session adds is the
//! routing layer in front and the fan-out merge behind:
//!
//! - **Writes** take the router's write lock just long enough to route
//!   (cheap hash/partition-map lookups — never training) and then feed
//!   the per-shard queues; a full shard queue back-pressures the
//!   producer exactly like the unsharded path.
//! - **Reads** take the router's read lock to resolve ownership, clone
//!   each shard's current epoch `Arc`, and answer from those frozen
//!   epochs — they never wait on any trainer. A read can lag each
//!   shard's write path by at most one epoch, independently per shard.
//! - **Flush** first lets the router rebalance if drift accumulated,
//!   forwarding at most [`ShardConfig::rebalance_budget`] migration
//!   events per flush (the backlog carries over, and rides the queues
//!   ahead of the flush barrier), then commits every shard and reports
//!   `stepped = any`, `epoch = max` over shards; `stats` carries the
//!   full per-shard break-down plus rebalance and health objects.
//!
//! Global `nearest` is the owner-filtered fan-out of
//! [`glodyne_shard::fanout`]: exact mode is bit-exact with an
//! unsharded exact scan over the owner-filtered union of the shard
//! epochs; ANN mode probes each shard's index and merges owned hits.

use crate::epoch::{EmbeddingEpoch, Neighbours};
use crate::error::ServeError;
use crate::lock;
use crate::protocol::{ErrorKind, NearestMode};
use crate::queue::{Admission, FlushOutcome};
use crate::session::{
    health_of, spawn_trainer, AnnSettings, AnnStats, DurabilityStats, HealthStats, RebalanceStats,
    ServeStats, SessionSpec, Trainee, Trainer,
};
use crate::telemetry::ServeTelemetry;
use glodyne::{EmbedderSession, EpochPolicy};
use glodyne_ann::StorageMode;
use glodyne_durable::{
    decode_session_payload, list_snapshots, load_snapshot, prune_snapshots, remove_all_segments,
    replay_and_heal, write_snapshot, DurabilityCounters, DurableConfig, DurableSession,
    FsyncPolicy, WalRecord, WalWriter, PAYLOAD_ROUTER, PAYLOAD_SESSION,
};
use glodyne_embed::traits::CheckpointEmbedder;
use glodyne_embed::ConfigError;
use glodyne_graph::state::{GraphEvent, GraphEventKind};
use glodyne_graph::NodeId;
use glodyne_shard::{fanout, ShardConfig, ShardRouter, ShardView};
use std::collections::VecDeque;
use std::io;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, PoisonError, RwLock, RwLockReadGuard, RwLockWriteGuard};
use std::thread;
use std::time::{Duration, Instant};

/// One shard's slice of a `stats` response.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShardEpochStats {
    /// Shard id (`0..S`).
    pub shard: u32,
    /// The shard's published epoch id.
    pub epoch: u64,
    /// Embedded rows in that epoch (owned nodes *plus* halo copies —
    /// what the shard actually trains).
    pub nodes: usize,
    /// Events waiting in the shard's ingest queue (approximate).
    pub queue_depth: usize,
    /// Events the shard's queue accepted (mirror copies included, so
    /// the sum over shards can exceed the session-level count).
    pub events_accepted: u64,
    /// Build time of the shard epoch's IVF index, when ANN is on and
    /// the epoch carries one.
    pub ann_build: Option<Duration>,
    /// How the shard epoch's index was produced (`"full"`: every row
    /// reassigned by k-means, cold or re-fitted; `"incremental"`: dirty
    /// rows patched), when it carries one.
    pub ann_build_kind: Option<&'static str>,
    /// Rows the shard's index build reassigned, when it carries one.
    pub ann_dirty_rows: Option<usize>,
}

/// The flush-scoped rebalance throttle. Drift rebalancing used to run
/// inline on the ingest hot path; it now happens only at flush
/// boundaries, and even there forwards at most `budget` migration
/// events per flush, carrying the remainder here. The pending queue is
/// persisted inside every router barrier snapshot (and rebuilt by
/// router-WAL replay), so recovery drains it on exactly the same
/// schedule as the live run.
struct RebalanceControl {
    /// Migration events awaiting budget, in rebalance emission order.
    /// Mutated only under `write_order`; the mutex lets `stats` peek
    /// without stalling writers behind it.
    pending: Mutex<VecDeque<(u32, GraphEvent)>>,
    /// Flush boundaries that forwarded at least one migration event.
    batches: AtomicU64,
    /// Migration events forwarded since spawn.
    migrated: AtomicU64,
    /// Per-flush forwarding budget (`0` = unlimited), from
    /// [`ShardConfig::rebalance_budget`].
    budget: usize,
}

/// How many of `queued` migration events one flush boundary may forward
/// under a per-flush `budget` (`0` = unlimited).
fn drain_quota(budget: usize, queued: usize) -> usize {
    if budget == 0 {
        queued
    } else {
        budget.min(queued)
    }
}

impl RebalanceControl {
    fn new(budget: usize, pending: VecDeque<(u32, GraphEvent)>) -> Self {
        RebalanceControl {
            pending: Mutex::new(pending),
            batches: AtomicU64::new(0),
            migrated: AtomicU64::new(0),
            budget,
        }
    }

    fn stats(&self) -> RebalanceStats {
        RebalanceStats {
            rebalance_batches: self.batches.load(Ordering::Relaxed),
            migrated_nodes: self.migrated.load(Ordering::Relaxed),
            pending_migrations: lock(&self.pending).len(),
        }
    }
}

/// Magic prefix of a router snapshot payload that carries the pending
/// migration queue alongside the router state. Legacy payloads are the
/// bare router export (which starts with its own `GDRT` magic) and
/// decode as an empty queue.
const PENDING_MAGIC: &[u8; 4] = b"GDP1";

/// `GDP1 | u64 router_len | router | u64 n | n × (u32 shard, u64 time,
/// u8 kind, operands)` — the wrapped router snapshot payload.
fn encode_router_payload(router: &[u8], pending: &VecDeque<(u32, GraphEvent)>) -> Vec<u8> {
    let mut out = Vec::with_capacity(4 + 8 + router.len() + 8 + pending.len() * 21);
    out.extend_from_slice(PENDING_MAGIC);
    out.extend_from_slice(&(router.len() as u64).to_le_bytes());
    out.extend_from_slice(router);
    out.extend_from_slice(&(pending.len() as u64).to_le_bytes());
    for &(shard, event) in pending {
        out.extend_from_slice(&shard.to_le_bytes());
        out.extend_from_slice(&event.time.to_le_bytes());
        match event.kind {
            GraphEventKind::AddEdge(e) => {
                out.push(1);
                out.extend_from_slice(&e.u.0.to_le_bytes());
                out.extend_from_slice(&e.v.0.to_le_bytes());
            }
            GraphEventKind::RemoveEdge(e) => {
                out.push(2);
                out.extend_from_slice(&e.u.0.to_le_bytes());
                out.extend_from_slice(&e.v.0.to_le_bytes());
            }
            GraphEventKind::RemoveNode(n) => {
                out.push(3);
                out.extend_from_slice(&n.0.to_le_bytes());
            }
        }
    }
    out
}

/// Split a router snapshot payload back into `(router bytes, pending
/// queue)`; `None` when a wrapped payload is malformed. A payload
/// without the wrapper magic is a pre-throttle bare router export.
#[allow(clippy::type_complexity)]
fn decode_router_payload(payload: &[u8]) -> Option<(&[u8], VecDeque<(u32, GraphEvent)>)> {
    if !payload.starts_with(PENDING_MAGIC) {
        return Some((payload, VecDeque::new()));
    }
    let read_u64 = |at: usize| -> Option<u64> {
        Some(u64::from_le_bytes(
            payload.get(at..at + 8)?.try_into().ok()?,
        ))
    };
    let read_u32 = |at: usize| -> Option<u32> {
        Some(u32::from_le_bytes(
            payload.get(at..at + 4)?.try_into().ok()?,
        ))
    };
    let router_len = read_u64(4)? as usize;
    let router = payload.get(12..12 + router_len)?;
    let mut at = 12 + router_len;
    let n = read_u64(at)? as usize;
    at += 8;
    let mut pending = VecDeque::with_capacity(n);
    for _ in 0..n {
        let shard = read_u32(at)?;
        let time = read_u64(at + 4)?;
        let kind = *payload.get(at + 12)?;
        at += 13;
        let event = match kind {
            1 | 2 => {
                let u = NodeId(read_u32(at)?);
                let v = NodeId(read_u32(at + 4)?);
                at += 8;
                if kind == 1 {
                    GraphEvent::add_edge(u, v, time)
                } else {
                    GraphEvent::remove_edge(u, v, time)
                }
            }
            3 => {
                let n = NodeId(read_u32(at)?);
                at += 4;
                GraphEvent::remove_node(n, time)
            }
            _ => return None,
        };
        pending.push_back((shard, event));
    }
    if at != payload.len() {
        return None;
    }
    Some((router, pending))
}

/// The session-level durability state of a sharded session: the
/// authoritative router lineage (client-event WAL + `PAYLOAD_ROUTER`
/// snapshots under `dir/router`).
///
/// The router log records every *client* event, in acceptance order,
/// with explicit flush markers; the per-shard WALs (`dir/shard-<i>`)
/// are derived, regenerated at recovery by re-routing the router log —
/// a crash can tear a shard WAL mid frame-group (one client event
/// fanning out to several shards), so only the router log is trusted.
struct ShardedDurable {
    router_dir: PathBuf,
    /// The router-lineage WAL. Appends happen under `write_order`, so
    /// this mutex is uncontended; it exists so `stats` can read.
    wal: Mutex<WalWriter>,
    cfg: DurableConfig,
    /// Last client sequence assigned (mutated only under
    /// `write_order`; atomic so `stats`/barriers read without it).
    seq: AtomicU64,
    /// Epoch stamped on the newest barrier snapshot.
    last_snapshot_epoch: Mutex<Option<u64>>,
    recovered_from: Option<String>,
}

/// Where a sharded session's router starts from — the value that makes
/// sharded serving in-memory or durable. A bare [`ShardConfig`]
/// converts into the in-memory case (fresh router, nothing on disk);
/// [`recover_sharded`] returns the durable one together with the
/// per-shard trainees it belongs to.
pub struct RouterLineage {
    cfg: ShardConfig,
    /// The router and the rebalance throttle's undrained migration
    /// queue as restored from disk; `None` starts both empty.
    restored: Option<(ShardRouter, VecDeque<(u32, GraphEvent)>)>,
    durable: Option<ShardedDurable>,
}

impl From<ShardConfig> for RouterLineage {
    fn from(cfg: ShardConfig) -> Self {
        RouterLineage {
            cfg,
            restored: None,
            durable: None,
        }
    }
}

impl RouterLineage {
    /// What recovery found on disk (`None` when the directory was
    /// fresh, or the lineage is in-memory) — also surfaced through
    /// `stats`.
    pub fn recovered_from(&self) -> Option<&str> {
        self.durable.as_ref()?.recovered_from.as_deref()
    }
}

/// Where recovery starts from: the router, the rebalance throttle's
/// pending migration queue, every shard's session with the epoch its
/// snapshot was stamped with, and the barrier `(seq, epoch)` they were
/// all frozen at — or everything empty and `None` on a fresh directory.
type RecoveryBase<E> = (
    ShardRouter,
    VecDeque<(u32, GraphEvent)>,
    Vec<(EmbedderSession<E>, Option<u64>)>,
    Option<(u64, u64)>,
);

/// Open (or recover) the crash-recoverable sharded lineages rooted at
/// `dir` — the router's in `dir/router`, shard `i`'s in `dir/shard-<i>`
/// — and return one durable trainee per shard plus the router lineage,
/// ready for [`ShardedSession::spawn`]. On a fresh directory everything
/// starts empty; on an existing one it resumes from the newest *common
/// barrier* — the highest sequence at which a valid router snapshot and
/// a valid session snapshot in **every** shard directory coexist — then
/// re-routes the router WAL suffix through the normal apply path
/// (routing is deterministic, so the rebuilt placement, migrations, and
/// shard states are bit-exact with the pre-crash run).
///
/// `make_embedder` receives the shard index and must rebuild each
/// shard's embedder with the configuration the lineage was created
/// with.
pub fn recover_sharded<E, F>(
    dir: &Path,
    shard_cfg: ShardConfig,
    durable_cfg: DurableConfig,
    policy: EpochPolicy,
    make_embedder: F,
) -> io::Result<(Vec<DurableSession<E>>, RouterLineage)>
where
    E: CheckpointEmbedder + Send + 'static,
    F: Fn(usize) -> E,
{
    let cfg_io = |e: ConfigError| io::Error::new(io::ErrorKind::InvalidInput, e.to_string());
    let router_dir = dir.join("router");
    std::fs::create_dir_all(&router_dir)?;
    let shard_dirs: Vec<PathBuf> = (0..shard_cfg.shards)
        .map(|i| dir.join(format!("shard-{i}")))
        .collect();
    for sdir in &shard_dirs {
        std::fs::create_dir_all(sdir)?;
    }
    // Per-shard lineages snapshot *only* at barrier checkpoints: a
    // shard-local periodic snapshot would sit at a sequence the other
    // lineages never froze at, and its pruning could evict the common
    // barrier snapshot recovery depends on.
    let shard_durable_cfg = DurableConfig {
        snapshot_every: 0,
        ..durable_cfg
    };

    // Newest common barrier C*: walk router snapshots newest-first and
    // accept the first whose sequence every shard can resume.
    let mut restored: Option<RecoveryBase<E>> = None;
    'candidates: for (seq, path) in list_snapshots(&router_dir)?.into_iter().rev() {
        let Ok(snap) = load_snapshot(&path) else {
            continue;
        };
        if snap.kind != PAYLOAD_ROUTER {
            continue;
        }
        let Some((router_bytes, pending)) = decode_router_payload(&snap.payload) else {
            continue;
        };
        let Ok(router) = ShardRouter::restore(shard_cfg, router_bytes) else {
            continue;
        };
        let mut sessions = Vec::with_capacity(shard_dirs.len());
        for (i, sdir) in shard_dirs.iter().enumerate() {
            let Some((_, spath)) = list_snapshots(sdir)?.into_iter().find(|&(s, _)| s == seq)
            else {
                continue 'candidates;
            };
            let Ok(ssnap) = load_snapshot(&spath) else {
                continue 'candidates;
            };
            if ssnap.kind != PAYLOAD_SESSION {
                continue 'candidates;
            }
            let Ok((ckpt, embedding)) = decode_session_payload(&ssnap.payload) else {
                continue 'candidates;
            };
            let Ok(session) = EmbedderSession::resume(make_embedder(i), policy, &ckpt, &embedding)
            else {
                continue 'candidates;
            };
            sessions.push((session, Some(ssnap.epoch)));
        }
        restored = Some((router, pending, sessions, Some((seq, snap.epoch))));
        break;
    }
    let (mut router, mut pending, sessions, barrier) = match restored {
        Some(base) => base,
        None => {
            let mut sessions = Vec::with_capacity(shard_dirs.len());
            for i in 0..shard_dirs.len() {
                let session = EmbedderSession::new(make_embedder(i), policy).map_err(cfg_io)?;
                sessions.push((session.keep_full_graph(), None));
            }
            let router = ShardRouter::new(shard_cfg).map_err(cfg_io)?;
            (router, VecDeque::new(), sessions, None)
        }
    };
    let floor = barrier.map_or(0, |(seq, _)| seq);
    let mut durables = Vec::with_capacity(sessions.len());
    for ((session, shard_epoch), sdir) in sessions.into_iter().zip(&shard_dirs) {
        // The shard WAL tail may be torn mid frame-group; replay of the
        // authoritative router log rebuilds it deterministically.
        remove_all_segments(sdir)?;
        let frozen = shard_epoch.map(|epoch| (floor, epoch));
        durables.push(DurableSession::attach(
            sdir,
            session,
            shard_durable_cfg,
            floor,
            frozen,
        )?);
    }

    // Re-route the router log suffix exactly as live ingest/flush would
    // have: events route with no rebalancing; each flush boundary
    // computes the drift rebalance and drains the pending queue under
    // the same per-flush budget as the live run.
    let replayed = replay_and_heal(&router_dir)?;
    let mut last_seq = floor;
    let mut replayed_events = 0u64;
    for (seq, record) in &replayed.records {
        if *seq <= floor {
            continue;
        }
        match record {
            WalRecord::Event(event) => {
                for (shard, ev) in router.route(*event) {
                    durables[shard as usize].apply(*seq, ev)?;
                }
                replayed_events += 1;
            }
            WalRecord::Flush => {
                if let Some(rb) = router.maybe_rebalance() {
                    pending.extend(rb.events);
                }
                for _ in 0..drain_quota(shard_cfg.rebalance_budget, pending.len()) {
                    let (shard, ev) = pending.pop_front().expect("quota <= len");
                    durables[shard as usize].apply(*seq, ev)?;
                }
                for durable in &mut durables {
                    durable.flush()?;
                }
            }
        }
        last_seq = last_seq.max(*seq);
    }
    let recovered_from = match barrier {
        Some((seq, epoch)) => Some(format!(
            "barrier seq {seq} (epoch {epoch}) + {replayed_events} router events"
        )),
        None if !replayed.records.is_empty() => {
            Some(format!("router wal replay only ({replayed_events} events)"))
        }
        None => None,
    };
    let wal = WalWriter::open(
        &router_dir,
        last_seq + 1,
        durable_cfg.segment_bytes,
        durable_cfg.fsync,
    )?;
    Ok((
        durables,
        RouterLineage {
            cfg: shard_cfg,
            restored: Some((router, pending)),
            durable: Some(ShardedDurable {
                router_dir,
                wal: Mutex::new(wal),
                cfg: durable_cfg,
                seq: AtomicU64::new(last_seq),
                last_snapshot_epoch: Mutex::new(barrier.map(|(_, epoch)| epoch)),
                recovered_from,
            }),
        },
    ))
}

/// The concurrent sharded session (see the module docs).
pub struct ShardedSession {
    router: RwLock<ShardRouter>,
    /// One trainer per shard: its queue, epochs, watchdog and (when
    /// durable) lineage gauge.
    shards: Vec<Trainer>,
    ann: Option<AnnSettings>,
    /// Serialises writers end-to-end (route *and* enqueue) so every
    /// shard queue receives events in global routing order — held
    /// *instead of* the router lock across blocking queue sends, so a
    /// full queue back-pressures producers without ever blocking the
    /// read path's `router.read()`.
    write_order: Mutex<()>,
    /// Client events accepted (each counted once, however many shards
    /// it mirrored to).
    accepted: AtomicU64,
    /// The router lineage; `None` when serving in-memory.
    durable: Option<ShardedDurable>,
    /// Metrics hub; `None` when telemetry is disabled.
    telemetry: Option<Arc<ServeTelemetry>>,
    /// The flush-scoped rebalance throttle.
    rebalance: RebalanceControl,
}

impl ShardedSession {
    /// Move one trainee per shard onto its own trainer thread behind
    /// the router `lineage` describes: a [`ShardConfig`] for in-memory
    /// serving (with [`EmbedderSession`] trainees, each switched to
    /// full-graph commits), or the `(trainees, lineage)` pair
    /// [`recover_sharded`] returns for crash-recoverable serving.
    /// `trainees.len()` must equal the configured shard count.
    ///
    /// With telemetry, each shard's trainer records its step phases
    /// under a `shard="<i>"` label (and into the global stage series),
    /// all queues share the queue-wait histogram, every shard's epoch
    /// handle feeds the freshness-lag series, and the router WAL and
    /// every durable trainee report append/fsync/snapshot wall times.
    pub fn spawn<T: Trainee>(
        trainees: Vec<T>,
        lineage: impl Into<RouterLineage>,
        spec: SessionSpec,
    ) -> Result<ShardedSession, ConfigError> {
        spec.validate()?;
        let RouterLineage {
            cfg,
            restored,
            mut durable,
        } = lineage.into();
        let (router, pending) = match restored {
            Some(restored) => restored,
            None => (ShardRouter::new(cfg)?, VecDeque::new()),
        };
        if trainees.len() != cfg.shards {
            return Err(ConfigError::new(
                "shards",
                "one trainee (session) per shard is required",
            ));
        }
        if let (Some(d), Some(t)) = (&mut durable, &spec.telemetry) {
            d.wal
                .get_mut()
                .unwrap_or_else(PoisonError::into_inner)
                .set_timing(t.durable_timing());
        }
        let shards = trainees
            .into_iter()
            .enumerate()
            .map(|(i, trainee)| spawn_trainer(trainee.into_shard(), Some(i), &spec))
            .collect();
        Ok(ShardedSession {
            router: RwLock::new(router),
            shards,
            ann: spec.ann,
            write_order: Mutex::new(()),
            accepted: AtomicU64::new(0),
            durable,
            telemetry: spec.telemetry,
            rebalance: RebalanceControl::new(cfg.rebalance_budget, pending),
        })
    }

    /// The router for a read (poison-tolerant, like [`lock`]).
    fn routing(&self) -> RwLockReadGuard<'_, ShardRouter> {
        self.router.read().unwrap_or_else(PoisonError::into_inner)
    }

    /// The router for a routing or rebalance decision — held only for
    /// that (cheap) decision, never across a queue send.
    fn routing_mut(&self) -> RwLockWriteGuard<'_, ShardRouter> {
        self.router.write().unwrap_or_else(PoisonError::into_inner)
    }

    /// The session's ANN settings, when enabled.
    pub fn ann(&self) -> Option<AnnSettings> {
        self.ann
    }

    /// [`ShardedSession::ingest_with`] under [`Admission::Block`].
    pub fn ingest(&self, events: &[GraphEvent]) -> Result<usize, ServeError> {
        self.ingest_with(events, Admission::Block)
    }

    /// Route and enqueue events in order. Returns how many *client*
    /// events were accepted (each once, however many shards it mirrored
    /// to). Under [`Admission::Block`] a full shard queue back-pressures
    /// the producer; the other modes refuse an event — *before* the
    /// router WAL sees it — unless every shard queue has headroom for
    /// its worst-case fan-out, at once ([`Admission::Shed`] →
    /// [`ServeError::Overloaded`]) or once the deadline passes
    /// ([`Admission::Until`] → [`ServeError::DeadlineExceeded`]). A
    /// refusal of the first event is the error; mid-batch it is a
    /// partial accept.
    ///
    /// Back-pressure never blocks reads: the router's write lock is
    /// held only for the (cheap) routing decision; the blocking queue
    /// sends happen under the separate writer-order mutex, which the
    /// read path never takes. [`ServeError::Closed`] means a shard
    /// trainer is gone — the failing event may already be reflected in
    /// the router's global mirror but not in every shard, so a dead
    /// trainer is terminal for the session: shut it down rather than
    /// retrying (retries would be swallowed as mirror duplicates).
    ///
    /// Rebalancing never runs here: drift is drained at flush
    /// boundaries under [`ShardConfig::rebalance_budget`] (see
    /// [`ShardedSession::flush_with`]), so the ingest hot path stays
    /// two integer compares away from a pure route-and-enqueue.
    pub fn ingest_with(
        &self,
        events: &[GraphEvent],
        admission: Admission,
    ) -> Result<usize, ServeError> {
        let _order = lock(&self.write_order);
        for (i, &event) in events.iter().enumerate() {
            if let Err(e) = self.admit(admission) {
                return if i == 0 { Err(e) } else { Ok(i) };
            }
            self.accept_event(event)?;
        }
        Ok(events.len())
    }

    /// Decide whether one more client event may enter, *before* the
    /// router WAL append: shedding after the event is durable would let
    /// recovery replay an event the live run never applied to any
    /// shard. Callers hold `write_order`, so headroom only grows while
    /// this waits (the trainer side only drains) and the blocking sends
    /// that follow an `Ok` cannot stall.
    fn admit(&self, admission: Admission) -> Result<(), ServeError> {
        if glodyne_chaos::shed(glodyne_chaos::sites::INGEST_ENQUEUE) {
            return Err(self.shed_check().unwrap_or(ServeError::Overloaded {
                depth: self.shards.iter().map(|s| s.queue.depth()).sum(),
                capacity: self.shards.first().map_or(0, |s| s.queue.capacity()),
            }));
        }
        if admission == Admission::Block {
            return Ok(());
        }
        while let Some(full) = self.shed_check() {
            match admission {
                Admission::Until(at) if Instant::now() < at => {
                    thread::sleep(Duration::from_millis(1));
                }
                Admission::Until(_) => return Err(ServeError::DeadlineExceeded),
                _ => return Err(full),
            }
        }
        Ok(())
    }

    /// Overload pre-check for the non-blocking admissions: `Some` when
    /// a shard queue cannot absorb one more event. Each client event
    /// fans out to at most one copy per shard, so headroom of one
    /// everywhere is sufficient.
    fn shed_check(&self) -> Option<ServeError> {
        let full = self.shards.iter().find(|s| !s.queue.has_free(1))?;
        Some(full.queue.overloaded())
    }

    /// WAL-log (when durable), route, and enqueue one client event.
    /// Shared by every ingest mode; callers hold `write_order`.
    fn accept_event(&self, event: GraphEvent) -> Result<(), ServeError> {
        // Durable sessions log the client event to the router WAL
        // *before* routing (write-ahead): every event any shard
        // applies is recoverable by re-routing the router log.
        let seq = match &self.durable {
            Some(d) => {
                let next = d.seq.load(Ordering::Relaxed) + 1;
                let mut wal = lock(&d.wal);
                if let Err(e) = wal.append(next, &event) {
                    eprintln!("glodyne-serve: router wal append failed: {e}");
                }
                drop(wal);
                d.seq.store(next, Ordering::Relaxed);
                next
            }
            None => 0,
        };
        let routed = self.routing_mut().route(event);
        for (shard, ev) in routed {
            self.shards[shard as usize]
                .queue
                .send(seq, ev, Admission::Block)?;
        }
        self.accepted.fetch_add(1, Ordering::Relaxed);
        Ok(())
    }

    /// [`ShardedSession::flush_with`] under [`Admission::Block`].
    pub fn flush(&self) -> Result<FlushOutcome, ServeError> {
        self.flush_with(Admission::Block)
    }

    /// Queue any drifted-placement migrations, drain at most
    /// [`ShardConfig::rebalance_budget`] of them, then commit every
    /// shard's pending events and wait for all the steps. Migration
    /// events enter each shard's queue *before* its flush marker, so
    /// the committed layout includes this flush's budget-worth of
    /// moves; the remainder stays queued for later flushes (and rides
    /// barrier snapshots, so recovery resumes the same backlog).
    /// `stepped` is true when any shard stepped; `epoch` is the
    /// maximum shard epoch after the flush.
    ///
    /// Under [`Admission::Until`] each shard's commit acknowledgement
    /// is awaited at most until the deadline. The WAL marker and the
    /// budgeted rebalance drain always happen (they never wait on the
    /// trainer); a deadline that fires mid-wait leaves the flush queued
    /// — the shards still commit, only this caller stops waiting — so
    /// the epoch staleness accounting stays truthful.
    pub fn flush_with(&self, admission: Admission) -> Result<FlushOutcome, ServeError> {
        {
            // Writer-order mutex for the send, router lock only for
            // the rebalance decision — reads stay unblocked.
            let _order = lock(&self.write_order);
            let seq = match &self.durable {
                Some(d) => {
                    // Log the flush boundary so recovery replays the
                    // same rebalance-then-commit at the same point.
                    let seq = d.seq.load(Ordering::Relaxed);
                    let mut wal = lock(&d.wal);
                    if let Err(e) = wal.append_flush(seq) {
                        eprintln!("glodyne-serve: router wal flush marker failed: {e}");
                    }
                    if d.cfg.fsync == FsyncPolicy::EveryFlush {
                        if let Err(e) = wal.sync() {
                            eprintln!("glodyne-serve: router wal fsync failed: {e}");
                        }
                    }
                    seq
                }
                None => 0,
            };
            // Lock order: pending before router (barrier_checkpoint
            // matches), both under write_order.
            let mut pending = lock(&self.rebalance.pending);
            if let Some(rb) = self.routing_mut().maybe_rebalance() {
                pending.extend(rb.events);
            }
            let quota = drain_quota(self.rebalance.budget, pending.len());
            if quota > 0 {
                self.rebalance.batches.fetch_add(1, Ordering::Relaxed);
                self.rebalance
                    .migrated
                    .fetch_add(quota as u64, Ordering::Relaxed);
            }
            for _ in 0..quota {
                let (shard, ev) = pending.pop_front().expect("quota <= pending.len()");
                self.shards[shard as usize]
                    .queue
                    .send(seq, ev, Admission::Block)?;
            }
        }
        let mut outcome = FlushOutcome {
            stepped: false,
            epoch: 0,
        };
        for shard in &self.shards {
            let one = shard.flush(admission)?;
            outcome.stepped |= one.stepped;
            outcome.epoch = outcome.epoch.max(one.epoch);
        }
        if let Some(d) = &self.durable {
            if d.cfg.snapshot_every > 0 {
                let base = lock(&d.last_snapshot_epoch).unwrap_or(0);
                if outcome.epoch.saturating_sub(base) >= d.cfg.snapshot_every {
                    if let Err(e) = self.barrier_checkpoint() {
                        eprintln!("glodyne-serve: barrier checkpoint failed: {e}");
                    }
                }
            }
        }
        Ok(outcome)
    }

    /// Freeze a common barrier across every lineage: all shards
    /// snapshot at the current client sequence, then the router
    /// snapshots its state at the same sequence and prunes the covered
    /// router WAL prefix. Shards go first — a crash in between leaves
    /// shard snapshots without a matching router snapshot, and recovery
    /// simply falls back to the previous complete barrier (which every
    /// lineage still retains).
    fn barrier_checkpoint(&self) -> io::Result<()> {
        let Some(d) = &self.durable else {
            return Ok(());
        };
        let _order = lock(&self.write_order);
        let seq = d.seq.load(Ordering::Relaxed);
        // Lock order: pending before router (flush matches). The
        // undrained migration backlog rides the router snapshot so
        // recovery resumes with the same queue instead of re-deriving
        // (and potentially re-applying) moves already committed.
        let payload = {
            let pending = lock(&self.rebalance.pending);
            let router = self.routing().export_state();
            encode_router_payload(&router, &pending)
        };
        // Checkpoint messages ride each shard queue behind everything
        // already enqueued, so each lineage freezes exactly the
        // barrier prefix.
        for shard in &self.shards {
            shard
                .queue
                .request_checkpoint(seq)
                .map_err(|_| io::Error::new(io::ErrorKind::BrokenPipe, "shard trainer is gone"))?;
        }
        let epoch = self
            .epochs()
            .iter()
            .map(|e| e.epoch)
            .max()
            .unwrap_or_default();
        write_snapshot(&d.router_dir, seq, epoch, PAYLOAD_ROUTER, &payload)?;
        prune_snapshots(&d.router_dir, d.cfg.keep_snapshots)?;
        // Keep router WAL back to the *oldest* retained router
        // snapshot, mirroring the unsharded lineage's fallback rule.
        let floor = list_snapshots(&d.router_dir)?
            .first()
            .map_or(seq, |&(s, _)| s);
        lock(&d.wal).prune_covered(floor)?;
        *lock(&d.last_snapshot_epoch) = Some(epoch);
        Ok(())
    }

    /// Every shard's currently served epoch (cloned `Arc`s; frozen for
    /// as long as the caller holds them).
    pub fn epochs(&self) -> Vec<Arc<EmbeddingEpoch>> {
        self.shards.iter().map(|s| s.epochs.load()).collect()
    }

    /// Every shard's served epoch for background observers: same
    /// `Arc`s, but the freshness-lag stamps are left for the first
    /// *client* reads.
    pub fn probe_epochs(&self) -> Vec<Arc<EmbeddingEpoch>> {
        self.shards
            .iter()
            .map(|s| s.epochs.load_untracked())
            .collect()
    }

    /// The embedding vector of `node` in its owner shard's served
    /// epoch, with that epoch's id (0 when the node has no owner).
    pub fn query(&self, node: NodeId) -> (u64, Option<Vec<f32>>) {
        let router = self.routing();
        let Some(shard) = router.owner(node) else {
            return (0, None);
        };
        drop(router);
        let epoch = self.shards[shard as usize].epochs.load();
        (epoch.epoch, epoch.embedding.get(node).map(<[f32]>::to_vec))
    }

    /// Global `k`-nearest by `mode`, from one router read and one
    /// snapshot of every shard epoch. Exact mode merges per-shard scans
    /// of owned rows through the shared top-`k` heap — bit-exact with
    /// an unsharded exact scan over the owner-filtered union of the
    /// shard epochs. ANN mode probes each shard epoch's IVF index, drops
    /// halo hits and merges; its probe width is the request (the
    /// session default when `None`) clamped to the configured cell
    /// target — per-shard indexes may clamp tighter. The epoch id is
    /// the owner shard's (0 for a node without an owner). A node
    /// without an owned vector is `NotFound`, which wins over the
    /// `Unavailable` of ANN mode on a session without ANN.
    pub fn nearest(
        &self,
        node: NodeId,
        k: usize,
        mode: NearestMode,
    ) -> Result<(u64, Neighbours, Option<usize>), (u64, ErrorKind)> {
        let router = self.routing();
        let epochs = self.epochs();
        let owner = |id: NodeId| router.owner(id);
        let Some(shard) = owner(node) else {
            return Err((0, ErrorKind::NotFound));
        };
        let epoch = epochs[shard as usize].epoch;
        if epochs[shard as usize].embedding.get(node).is_none() {
            // Owned but not yet committed by its owner: still unknown
            // to the read surface.
            return Err((epoch, ErrorKind::NotFound));
        }
        let views = Self::views(&epochs);
        match mode {
            NearestMode::Exact => Ok((epoch, fanout::nearest_exact(&views, owner, node, k), None)),
            NearestMode::Ann { nprobe } => {
                let nprobe = self
                    .ann_nprobe(nprobe)
                    .ok_or((epoch, ErrorKind::Unavailable))?;
                let overfetch = router.config().ann_overfetch;
                let hits = fanout::nearest_approx(&views, owner, node, k, nprobe, overfetch);
                Ok((epoch, hits, Some(nprobe)))
            }
        }
    }

    /// [`ShardedSession::nearest`] for a whole batch: **one** router
    /// read and **one** epoch snapshot serve every probe. The reported
    /// epoch is the maximum shard epoch of the snapshot (the same
    /// session-level epoch `stats`/`flush` report); a `None` entry
    /// means "no owned vector", exactly like the single-node
    /// `NotFound`. Each `Some` entry is bit-exact with the single-node
    /// call against the same frozen snapshot. `None` overall when ANN
    /// mode meets a session without ANN.
    pub fn nearest_batch(
        &self,
        nodes: &[NodeId],
        k: usize,
        mode: NearestMode,
    ) -> Option<(u64, Vec<Option<Neighbours>>, Option<usize>)> {
        let nprobe = match mode {
            NearestMode::Exact => None,
            NearestMode::Ann { nprobe } => Some(self.ann_nprobe(nprobe)?),
        };
        let router = self.routing();
        let epochs = self.epochs();
        let views = Self::views(&epochs);
        let owner = |id: NodeId| router.owner(id);
        let hits: Vec<Neighbours> = match nprobe {
            None => nodes
                .iter()
                .map(|&node| fanout::nearest_exact(&views, owner, node, k))
                .collect(),
            Some(nprobe) => {
                let overfetch = router.config().ann_overfetch;
                fanout::nearest_approx_batch(&views, owner, nodes, k, nprobe, overfetch)
            }
        };
        let owned = |node: NodeId| {
            owner(node).is_some_and(|shard| epochs[shard as usize].embedding.get(node).is_some())
        };
        let results = nodes
            .iter()
            .zip(hits)
            .map(|(&node, hits)| owned(node).then_some(hits))
            .collect();
        let epoch = epochs.iter().map(|e| e.epoch).max().unwrap_or(0);
        Some((epoch, results, nprobe))
    }

    /// The probe width of an ANN read: the request, else the session
    /// default, clamped to the configured cell target. `None` when ANN
    /// is disabled on this session.
    fn ann_nprobe(&self, nprobe: Option<usize>) -> Option<usize> {
        let settings = self.ann?;
        Some(
            nprobe
                .unwrap_or(settings.default_nprobe)
                .clamp(1, settings.config.cells),
        )
    }

    /// The fan-out views over one epoch snapshot.
    fn views(epochs: &[Arc<EmbeddingEpoch>]) -> Vec<ShardView<'_>> {
        epochs
            .iter()
            .enumerate()
            .map(|(shard, epoch)| ShardView {
                shard: shard as u32,
                embedding: &epoch.embedding,
                index: epoch.index.as_ref(),
            })
            .collect()
    }

    /// Aggregate counters plus the per-shard break-down.
    pub fn stats(&self) -> ServeStats {
        let router = self.routing();
        let live_nodes = router.global().num_nodes();
        drop(router);
        let epochs = self.epochs();
        let per_shard: Vec<ShardEpochStats> = epochs
            .iter()
            .zip(&self.shards)
            .enumerate()
            .map(|(i, (epoch, handle))| ShardEpochStats {
                shard: i as u32,
                epoch: epoch.epoch,
                nodes: epoch.embedding.len(),
                queue_depth: handle.queue.depth(),
                events_accepted: handle.queue.accepted(),
                ann_build: epoch.index.as_ref().map(|ix| ix.build_time()),
                ann_build_kind: epoch.index.as_ref().map(|ix| ix.build_kind().as_str()),
                ann_dirty_rows: epoch.index.as_ref().map(|ix| ix.dirty_rows()),
            })
            .collect();
        ServeStats {
            epoch: per_shard.iter().map(|s| s.epoch).max().unwrap_or(0),
            nodes: live_nodes,
            dim: epochs.first().map_or(0, |e| e.embedding.dim()),
            queue_depth: per_shard.iter().map(|s| s.queue_depth).sum(),
            queue_capacity: self.shards.first().map_or(0, |s| s.queue.capacity()),
            // The worst backlog any one shard ever saw — a summed
            // high-water would mix moments that never coexisted.
            queue_high_water: self
                .shards
                .iter()
                .map(|s| s.queue.depth_high_water())
                .max()
                .unwrap_or(0),
            events_accepted: self.accepted.load(Ordering::Relaxed),
            ann: self.ann.as_ref().map(|settings| AnnStats {
                cells: settings.config.cells,
                default_nprobe: settings.default_nprobe,
                build: per_shard
                    .iter()
                    .filter_map(|s| s.ann_build)
                    .max()
                    .unwrap_or_default(),
                storage: if settings.config.quantize {
                    StorageMode::Sq8
                } else {
                    StorageMode::F32
                },
                index_bytes: epochs
                    .iter()
                    .filter_map(|e| e.index.as_ref())
                    .map(glodyne_ann::IvfIndex::index_bytes)
                    .sum(),
                // A session-level "incremental" only when every shard
                // took the cheap path — one drift-triggered rebuild is
                // the cost the operator needs to see.
                build_kind: if per_shard
                    .iter()
                    .all(|s| s.ann_build_kind == Some("incremental"))
                {
                    "incremental"
                } else {
                    "full"
                },
                dirty_rows: per_shard.iter().filter_map(|s| s.ann_dirty_rows).sum(),
            }),
            shards: Some(per_shard),
            durability: self.durable.as_ref().map(|d| {
                let wal = lock(&d.wal).stats();
                let mut agg = DurabilityCounters {
                    wal_segments: wal.segments,
                    wal_bytes: wal.bytes,
                    last_snapshot_epoch: *lock(&d.last_snapshot_epoch),
                    last_fsync: wal.last_fsync,
                    last_seq: d.seq.load(Ordering::Relaxed),
                };
                for gauge in self.shards.iter().filter_map(|s| s.durability.as_ref()) {
                    let shard = gauge.counters();
                    agg.wal_segments += shard.wal_segments;
                    agg.wal_bytes += shard.wal_bytes;
                    // The most recent fsync across lineages.
                    agg.last_fsync = agg.last_fsync.max(shard.last_fsync);
                }
                DurabilityStats::new(agg, d.recovered_from.clone())
            }),
            telemetry: self.telemetry.as_ref().map(|t| {
                t.stats(
                    self.shards.iter().map(|s| s.queue.depth()).sum(),
                    self.shards
                        .iter()
                        .map(|s| s.queue.depth_high_water())
                        .max()
                        .unwrap_or(0),
                )
            }),
            health: Some(self.health()),
            rebalance: Some(self.rebalance.stats()),
        }
    }

    /// Aggregate trainer health across shards: degraded when *any*
    /// shard is, alive only when *every* trainer is, staleness and
    /// stall age from the worst shard.
    pub fn health(&self) -> HealthStats {
        health_of(&self.shards, self.telemetry.as_deref())
    }

    /// The telemetry hub, when instrumentation is on.
    pub fn telemetry(&self) -> Option<&Arc<ServeTelemetry>> {
        self.telemetry.as_ref()
    }

    /// Stop every trainer and wait for them. Idempotent; reads keep
    /// working off the last published epochs, writes return
    /// [`ServeError::Closed`].
    pub fn shutdown(&self) {
        // Durable clean stop: commit pending work, then freeze a final
        // barrier so a restart replays nothing. If the trainers are
        // already gone (second call), both steps no-op.
        if self.durable.is_some() && self.flush().is_ok() {
            if let Err(e) = self.barrier_checkpoint() {
                eprintln!("glodyne-serve: final barrier failed: {e}");
            }
        }
        for shard in &self.shards {
            shard.stop();
        }
        for shard in &self.shards {
            shard.join();
        }
    }
}

impl Drop for ShardedSession {
    fn drop(&mut self) {
        self.shutdown();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use glodyne::{EpochPolicy, GloDyNE, IvfConfig};

    fn tiny_model(seed: u64) -> GloDyNE {
        crate::tests::tiny_model(seed, seed)
    }

    fn tiny_session(seed: u64) -> EmbedderSession<GloDyNE> {
        EmbedderSession::new(tiny_model(seed), EpochPolicy::Manual).unwrap()
    }

    fn sharded(shards: usize, ann: Option<AnnSettings>) -> ShardedSession {
        let sessions = (0..shards).map(|s| tiny_session(s as u64)).collect();
        ShardedSession::spawn(
            sessions,
            ShardConfig {
                shards,
                min_partition_nodes: 8,
                ..Default::default()
            },
            SessionSpec {
                ann,
                ..SessionSpec::new(64)
            },
        )
        .unwrap()
    }

    /// Two tight communities plus one bridge, as graph events.
    fn community_events() -> Vec<GraphEvent> {
        let mut events = Vec::new();
        for c in 0..2u32 {
            let base = c * 10;
            for i in 0..10 {
                for j in (i + 1)..10 {
                    events.push(GraphEvent::add_edge(NodeId(base + i), NodeId(base + j), 0));
                }
            }
        }
        events.push(GraphEvent::add_edge(NodeId(0), NodeId(10), 0));
        events
    }

    #[test]
    fn session_count_must_match_shard_count() {
        let sessions = vec![tiny_session(0)];
        match ShardedSession::spawn(sessions, ShardConfig::with_shards(2), SessionSpec::new(8)) {
            Err(err) => assert_eq!(err.param(), "shards"),
            Ok(_) => panic!("one session per shard must be enforced"),
        }
    }

    #[test]
    fn ingest_flush_query_round_trip_across_shards() {
        let serving = sharded(2, None);
        let events = community_events();
        assert_eq!(serving.ingest(&events).unwrap(), events.len());
        let outcome = serving.flush().unwrap();
        assert!(outcome.stepped);
        assert!(outcome.epoch >= 1);

        // Every live node answers through its owner shard.
        for n in (0..20u32).map(NodeId) {
            let (_, vector) = serving.query(n);
            assert!(vector.is_some(), "node {n:?}");
        }
        let (_, unknown) = serving.query(NodeId(999));
        assert!(unknown.is_none());
        serving.shutdown();
    }

    #[test]
    fn fanout_nearest_is_bit_exact_with_the_union_scan() {
        let serving = sharded(2, None);
        serving.ingest(&community_events()).unwrap();
        serving.flush().unwrap();

        let epochs = serving.epochs();
        let views: Vec<ShardView<'_>> = epochs
            .iter()
            .enumerate()
            .map(|(shard, e)| ShardView {
                shard: shard as u32,
                embedding: &e.embedding,
                index: None,
            })
            .collect();
        let router = serving.router.read().unwrap();
        let union = fanout::union_embedding(&views, |id| router.owner(id));
        drop(router);

        for probe in [0u32, 5, 10, 15] {
            let (_, hits, _) = serving
                .nearest(NodeId(probe), 6, NearestMode::Exact)
                .expect("probe is owned and embedded");
            let spec = union.top_k(NodeId(probe), 6);
            assert_eq!(hits.len(), spec.len());
            for (a, b) in hits.iter().zip(&spec) {
                assert_eq!(a.0, b.0);
                assert_eq!(a.1.to_bits(), b.1.to_bits());
            }
        }
        assert_eq!(
            serving.nearest(NodeId(999), 5, NearestMode::Exact),
            Err((0, ErrorKind::NotFound)),
            "unknown probe is not-found, not empty"
        );
        serving.shutdown();
    }

    #[test]
    fn ann_fanout_probes_per_shard_indexes() {
        let settings = AnnSettings {
            config: IvfConfig {
                cells: 4,
                ..Default::default()
            },
            default_nprobe: 2,
        };
        let serving = sharded(2, Some(settings));
        serving.ingest(&community_events()).unwrap();
        serving.flush().unwrap();

        for epoch in serving.epochs() {
            assert!(epoch.index.is_some(), "each shard publishes its index");
        }
        let mode = |nprobe| NearestMode::Ann { nprobe };
        let (_, hits, nprobe) = serving.nearest(NodeId(3), 5, mode(None)).unwrap();
        assert_eq!(nprobe, Some(2), "session default nprobe");
        assert!(!hits.is_empty());
        assert!(hits.iter().all(|&(id, _)| id != NodeId(3)));
        // Requested nprobe clamps to the configured cell target.
        let (_, _, wide) = serving.nearest(NodeId(3), 5, mode(Some(999))).unwrap();
        assert_eq!(wide, Some(4));

        // Every shard's epoch reports how its index was built, and the
        // session aggregate picks a kind plus the summed churn.
        let stats = serving.stats();
        let ann = stats.ann.as_ref().expect("ann enabled");
        assert!(matches!(ann.build_kind, "full" | "incremental"));
        let shards = stats.shards.as_ref().expect("sharded break-down");
        assert!(shards
            .iter()
            .all(|s| s.ann_build_kind.is_some() && s.ann_dirty_rows.is_some()));

        let none = sharded(2, None);
        none.ingest(&community_events()).unwrap();
        none.flush().unwrap();
        assert!(matches!(
            none.nearest(NodeId(0), 3, mode(None)),
            Err((_, ErrorKind::Unavailable))
        ));
        // An unknown node is not-found before it is unavailable.
        assert_eq!(
            none.nearest(NodeId(999), 3, mode(None)),
            Err((0, ErrorKind::NotFound))
        );
        serving.shutdown();
    }

    #[test]
    fn nearest_batch_matches_per_query_across_shards() {
        for quantize in [false, true] {
            let settings = AnnSettings {
                config: IvfConfig {
                    cells: 4,
                    quantize,
                    ..Default::default()
                },
                default_nprobe: 2,
            };
            let serving = sharded(2, Some(settings));
            serving.ingest(&community_events()).unwrap();
            serving.flush().unwrap();

            // Unknown probe in the middle; known nodes across both
            // communities (and so, typically, both shards).
            let nodes: Vec<NodeId> = [0u32, 5, 999, 10, 15].map(NodeId).to_vec();

            // Batch ≡ per-query, bit for bit, in exact mode and for
            // narrow and saturating ANN probes (scratch reuse must not
            // change results), with the None-vs-Some(empty)
            // distinction preserved.
            let modes = [None, Some(1), Some(usize::MAX)].map(|nprobe| NearestMode::Ann { nprobe });
            for mode in [NearestMode::Exact].into_iter().chain(modes) {
                let (batch_epoch, batch, eff) = serving.nearest_batch(&nodes, 6, mode).unwrap();
                assert_eq!(batch.len(), nodes.len());
                assert_eq!(batch_epoch, serving.stats().epoch);
                for (&node, got) in nodes.iter().zip(&batch) {
                    match (got, serving.nearest(node, 6, mode)) {
                        (Some(g), Ok((_, s, single_eff))) => {
                            assert_eq!(eff, single_eff);
                            assert_eq!(g.len(), s.len());
                            for (a, b) in g.iter().zip(&s) {
                                assert_eq!(a.0, b.0);
                                assert_eq!(a.1.to_bits(), b.1.to_bits());
                            }
                        }
                        (None, Err((_, ErrorKind::NotFound))) => assert_eq!(node, NodeId(999)),
                        _ => panic!("batch/single disagree on {node:?} presence ({mode:?})"),
                    }
                }
            }

            // Stats report the configured storage mode and the summed
            // per-shard index footprint.
            let ann = serving.stats().ann.expect("ann enabled");
            let expected = if quantize {
                StorageMode::Sq8
            } else {
                StorageMode::F32
            };
            assert_eq!(ann.storage, expected);
            assert!(ann.index_bytes > 0);

            // ANN-disabled sessions refuse the batch too.
            let none = sharded(2, None);
            let ann = NearestMode::Ann { nprobe: None };
            assert!(none.nearest_batch(&nodes, 5, ann).is_none());
            serving.shutdown();
        }
    }

    #[test]
    fn stats_carry_the_per_shard_break_down() {
        let serving = sharded(2, None);
        serving.ingest(&community_events()).unwrap();
        serving.flush().unwrap();
        let stats = serving.stats();
        assert_eq!(stats.events_accepted, community_events().len() as u64);
        assert_eq!(
            stats.nodes, 20,
            "live nodes, halo copies not double-counted"
        );
        assert_eq!(stats.dim, 8);
        let shards = stats.shards.as_ref().expect("sharded break-down");
        assert_eq!(shards.len(), 2);
        assert!(shards.iter().all(|s| s.queue_depth == 0));
        assert!(shards.iter().any(|s| s.epoch >= 1));
        assert_eq!(stats.epoch, shards.iter().map(|s| s.epoch).max().unwrap());
        // Mirrored copies make the per-shard sum >= the client count.
        let mirrored: u64 = shards.iter().map(|s| s.events_accepted).sum();
        assert!(mirrored >= stats.events_accepted);
        serving.shutdown();
    }

    #[test]
    fn shutdown_keeps_reads_and_fails_writes() {
        let serving = sharded(2, None);
        serving.ingest(&community_events()).unwrap();
        serving.flush().unwrap();
        serving.shutdown();
        serving.shutdown(); // idempotent

        let (_, vector) = serving.query(NodeId(0));
        assert!(vector.is_some(), "reads survive shutdown");
        assert!(matches!(
            serving.ingest(&[GraphEvent::add_edge(NodeId(50), NodeId(51), 9)]),
            Err(ServeError::Closed)
        ));
        assert!(matches!(serving.flush(), Err(ServeError::Closed)));
    }

    fn durable_dir(tag: &str) -> PathBuf {
        crate::tests::scratch_dir(&format!("shard-{tag}"))
    }

    fn spawn_sharded_durable(dir: &Path, dcfg: DurableConfig) -> (ShardedSession, Option<String>) {
        let shard_cfg = ShardConfig {
            shards: 2,
            min_partition_nodes: 8,
            ..Default::default()
        };
        let (trainees, lineage) = recover_sharded(dir, shard_cfg, dcfg, EpochPolicy::Manual, |i| {
            tiny_model(i as u64)
        })
        .unwrap();
        let recovered = lineage.recovered_from().map(str::to_owned);
        let serving = ShardedSession::spawn(trainees, lineage, SessionSpec::new(64)).unwrap();
        (serving, recovered)
    }

    /// One node's (id, owner shard, epoch, row bits).
    type NodeState = (u32, Option<u32>, u64, Option<Vec<u32>>);

    /// Every owned node's state — what a restart must reproduce exactly.
    fn full_state(serving: &ShardedSession) -> Vec<NodeState> {
        let router = serving.router.read().unwrap();
        (0..25u32)
            .map(|n| {
                let owner = router.owner(NodeId(n));
                let (epoch, row) = serving.query(NodeId(n));
                (
                    n,
                    owner,
                    epoch,
                    row.map(|v| v.iter().map(|x| x.to_bits()).collect()),
                )
            })
            .collect()
    }

    #[test]
    fn sharded_durable_clean_restart_is_bit_exact() {
        let dir = durable_dir("restart");
        let dcfg = DurableConfig {
            fsync: FsyncPolicy::Off,
            snapshot_every: 1,
            ..DurableConfig::default()
        };
        let (serving, recovered) = spawn_sharded_durable(&dir, dcfg);
        assert!(recovered.is_none(), "fresh directory has no lineage");
        serving.ingest(&community_events()).unwrap();
        assert!(serving.flush().unwrap().stepped);
        let dur = serving.stats().durability.expect("sharded durable stats");
        assert!(
            dur.wal_segments >= 3,
            "router + one lineage per shard: {dur:?}"
        );
        assert!(dur.last_snapshot_epoch.is_some(), "barrier after flush");
        let before = full_state(&serving);
        serving.shutdown();
        drop(serving);

        let (restarted, recovered) = spawn_sharded_durable(&dir, dcfg);
        let provenance = recovered.expect("lineage found on disk");
        assert!(
            provenance.contains("+ 0 router events"),
            "clean shutdown replays nothing: {provenance}"
        );
        assert_eq!(full_state(&restarted), before, "owners, epochs, and rows");
        assert_eq!(
            restarted
                .stats()
                .durability
                .unwrap()
                .recovered_from
                .as_deref(),
            Some(provenance.as_str())
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn sharded_durable_router_wal_replay_rebuilds_lost_snapshots() {
        let dir = durable_dir("replay");
        // snapshot_every: 0 — no mid-run barriers, so the router WAL
        // keeps the full event history for this test.
        let dcfg = DurableConfig {
            fsync: FsyncPolicy::EveryNEvents(1),
            snapshot_every: 0,
            ..DurableConfig::default()
        };
        let (serving, _) = spawn_sharded_durable(&dir, dcfg);
        let events = community_events();
        serving.ingest(&events[..events.len() / 2]).unwrap();
        serving.flush().unwrap();
        serving.ingest(&events[events.len() / 2..]).unwrap();
        serving.flush().unwrap();
        let before = full_state(&serving);
        serving.shutdown(); // final barrier written...
        drop(serving);

        // ...then every snapshot "corrupts away": recovery must fall
        // back to re-routing the full router WAL from scratch and
        // still land bit-exactly, flush boundaries included.
        for sub in ["router", "shard-0", "shard-1"] {
            for entry in std::fs::read_dir(dir.join(sub)).unwrap() {
                let path = entry.unwrap().path();
                if path.extension().is_some_and(|e| e == "glo") {
                    std::fs::remove_file(&path).unwrap();
                }
            }
        }
        let (restarted, recovered) = spawn_sharded_durable(&dir, dcfg);
        let provenance = recovered.expect("router wal found");
        assert!(
            provenance.contains("router wal replay only"),
            "{provenance}"
        );
        assert_eq!(full_state(&restarted), before, "owners, epochs, and rows");
        let _ = std::fs::remove_dir_all(&dir);
    }
}
