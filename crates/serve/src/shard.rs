//! [`ShardedSession`]: `S` per-shard trainer threads behind one
//! partition router.
//!
//! Each shard is one `spawn_trainer` call — the same function, the
//! same `trainer_loop`, the same [`Trainee`](crate::Trainee) hooks as
//! the unsharded session (`crate::session`): its own bounded queue, its
//! own trainer thread, its own epoch handle publishing an immutable
//! [`EmbeddingEpoch`] after every committed step. Shards serve in
//! memory: each one trains an [`EmbedderSession`] behind a fresh
//! [`ShardRouter`], and nothing of either is on disk. What the sharded
//! session adds is the routing layer in front and the fan-out merge
//! behind:
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
    health_of, spawn_trainer, AnnSettings, AnnStats, HealthStats, RebalanceStats, ServeStats,
    SessionSpec, Trainer,
};
use crate::telemetry::ServeTelemetry;
use glodyne::EmbedderSession;
use glodyne_ann::{BuildKind, StorageMode};
use glodyne_embed::{ConfigError, DynamicEmbedder};
use glodyne_graph::state::GraphEvent;
use glodyne_graph::NodeId;
use glodyne_shard::{fanout, ShardConfig, ShardRouter, ShardView};
use std::collections::VecDeque;
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
    /// How the shard epoch's index was produced (always `"full"`: every
    /// row assigned by k-means, cold or re-fitted), when it carries one.
    pub ann_build_kind: Option<&'static str>,
    /// Rows the shard's index build reassigned, when it carries one.
    pub ann_dirty_rows: Option<usize>,
}

/// The flush-scoped rebalance throttle. Drift rebalancing used to run
/// inline on the ingest hot path; it now happens only at flush
/// boundaries, and even there forwards at most `budget` migration
/// events per flush, carrying the remainder here.
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
    fn new(budget: usize) -> Self {
        RebalanceControl {
            pending: Mutex::new(VecDeque::new()),
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
    /// Metrics hub; `None` when telemetry is disabled.
    telemetry: Option<Arc<ServeTelemetry>>,
    /// The flush-scoped rebalance throttle.
    rebalance: RebalanceControl,
}

impl ShardedSession {
    /// Move one in-memory session per shard onto its own trainer thread
    /// behind a fresh router for `cfg`. `sessions.len()` must equal
    /// `cfg.shards`. Each session is switched to full-graph commits: a
    /// shard legitimately holds disconnected halo fragments, so it
    /// commits the full graph, not the largest connected component.
    ///
    /// With telemetry, each shard's trainer records its step phases
    /// under a `shard="<i>"` label (and into the global stage series),
    /// all queues share the queue-wait histogram, and every shard's
    /// epoch handle feeds the freshness-lag series.
    pub fn spawn<E: DynamicEmbedder + Send + 'static>(
        sessions: Vec<EmbedderSession<E>>,
        cfg: ShardConfig,
        spec: SessionSpec,
    ) -> Result<ShardedSession, ConfigError> {
        spec.validate()?;
        let router = ShardRouter::new(cfg)?;
        if sessions.len() != cfg.shards {
            return Err(ConfigError::new(
                "shards",
                "one trainee (session) per shard is required",
            ));
        }
        let shards = sessions
            .into_iter()
            .enumerate()
            .map(|(i, session)| spawn_trainer(session.keep_full_graph(), Some(i), &spec))
            .collect::<Result<_, _>>()?;
        Ok(ShardedSession {
            router: RwLock::new(router),
            shards,
            ann: spec.ann,
            write_order: Mutex::new(()),
            accepted: AtomicU64::new(0),
            telemetry: spec.telemetry,
            rebalance: RebalanceControl::new(cfg.rebalance_budget),
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
    /// router sees it — unless every shard queue has headroom for
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

    /// Decide whether one more client event may enter, *before* it is
    /// routed: routing records it in the router's global mirror, and
    /// shedding one of its routed copies afterwards would leave that
    /// shard behind the mirror. Callers hold `write_order`, so headroom
    /// only grows while this waits (the trainer side only drains) and
    /// the blocking sends that follow an `Ok` cannot stall.
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

    /// Route and enqueue one client event. Shared by every ingest mode;
    /// callers hold `write_order`.
    fn accept_event(&self, event: GraphEvent) -> Result<(), ServeError> {
        let routed = self.routing_mut().route(event);
        for (shard, ev) in routed {
            self.shards[shard as usize]
                .queue
                .send(ev, Admission::Block)?;
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
    /// moves; the remainder stays queued for later flushes.
    /// `stepped` is true when any shard stepped; `epoch` is the
    /// maximum shard epoch after the flush.
    ///
    /// Under [`Admission::Until`] each shard's commit acknowledgement
    /// is awaited at most until the deadline. The budgeted rebalance
    /// drain always happens (it never waits on the trainer); a deadline
    /// that fires mid-wait leaves the flush queued — the shards still
    /// commit, only this caller stops waiting — so the epoch staleness
    /// accounting stays truthful.
    pub fn flush_with(&self, admission: Admission) -> Result<FlushOutcome, ServeError> {
        {
            // Writer-order mutex for the send, router lock only for
            // the rebalance decision — reads stay unblocked.
            let _order = lock(&self.write_order);
            // Lock order: pending before router, both under write_order.
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
                    .send(ev, Admission::Block)?;
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
        Ok(outcome)
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

    /// Read `node`'s embedding vector in its owner shard's served
    /// epoch: `read` gets that epoch's id (0 when the node has no
    /// owner) and the row, borrowed in place from that one epoch.
    pub fn query<R>(&self, node: NodeId, read: impl FnOnce(u64, Option<&[f32]>) -> R) -> R {
        let router = self.routing();
        let Some(shard) = router.owner(node) else {
            return read(0, None);
        };
        drop(router);
        let epoch = self.shards[shard as usize].epochs.load();
        read(epoch.epoch, epoch.embedding.get(node))
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
                index: epoch.index.as_deref(),
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
                    .filter_map(|e| e.index.as_deref())
                    .map(glodyne_ann::IvfIndex::index_bytes)
                    .sum(),
                build_kind: BuildKind::Full.as_str(),
                dirty_rows: per_shard.iter().filter_map(|s| s.ann_dirty_rows).sum(),
            }),
            shards: Some(per_shard),
            durability: None,
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

    /// A `query` read that copies the row out, for assertions.
    fn owned(epoch: u64, row: Option<&[f32]>) -> (u64, Option<Vec<f32>>) {
        (epoch, row.map(<[f32]>::to_vec))
    }

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
            let (_, vector) = serving.query(n, owned);
            assert!(vector.is_some(), "node {n:?}");
        }
        let (_, unknown) = serving.query(NodeId(999), owned);
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
        // session aggregate reports the kind plus the summed churn.
        let stats = serving.stats();
        let ann = stats.ann.as_ref().expect("ann enabled");
        assert_eq!(ann.build_kind, "full");
        let shards = stats.shards.as_ref().expect("sharded break-down");
        assert!(shards
            .iter()
            .all(|s| s.ann_build_kind.is_some() && s.ann_dirty_rows.is_some()));
        let shard_churn: usize = shards.iter().filter_map(|s| s.ann_dirty_rows).sum();
        assert_eq!(ann.dirty_rows, shard_churn);

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

        let (_, vector) = serving.query(NodeId(0), owned);
        assert!(vector.is_some(), "reads survive shutdown");
        assert!(matches!(
            serving.ingest(&[GraphEvent::add_edge(NodeId(50), NodeId(51), 9)]),
            Err(ServeError::Closed)
        ));
        assert!(matches!(serving.flush(), Err(ServeError::Closed)));
    }
}
