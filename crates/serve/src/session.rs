//! [`ServingSession`]: an [`EmbedderSession`] split into a concurrent
//! read path and a back-pressured write path — and the one trainer loop
//! every serving mode runs.
//!
//! The paper's online stage is a single loop (for each snapshot: select
//! → walk → incremental SGNS, f^t initialised from f^{t−1}); serving is
//! that loop on a thread. A serving *mode* is a value handed to that one
//! code path, never a second copy of it:
//!
//! - what the trainer drives is a [`Trainee`]: an [`EmbedderSession`]
//!   (in-memory) or a [`DurableSession`] (WAL + snapshots). Durability
//!   is a *type* because it constrains the embedder: a `DynamicEmbedder`
//!   that cannot checkpoint must still serve in-memory.
//! - what rides along is a [`SessionSpec`]: queue bound, watchdog
//!   threshold, optional [`AnnSettings`], optional [`ServeTelemetry`]
//!   hub — `Option`s, because they change what is built and recorded
//!   around a step, not how the step runs.
//! - how long a write may wait is an [`Admission`], and how a `nearest`
//!   reads — exact scan or IVF probe — is a [`NearestMode`] argument.
//!
//! [`ServingSession::spawn`] hands both to `spawn_trainer`, which moves
//! the trainee onto a thread running `trainer_loop` (the sharded session
//! calls the same function once per shard, with in-memory trainees
//! only). From then on reads
//! ([`query`](ServingSession::query), [`nearest`](ServingSession::nearest),
//! …) answer from the last *published* [`EmbeddingEpoch`] and never wait
//! on training; writes ([`ingest`](ServingSession::ingest),
//! [`flush`](ServingSession::flush)) go through the bounded
//! [`IngestQueue`]. The trainer publishes a new epoch after every
//! committed step — whether the session's
//! [`EpochPolicy`](glodyne::EpochPolicy) crossed a boundary on its own or
//! a flush forced one.

use crate::epoch::{EmbeddingEpoch, EpochHandle, Neighbours};
use crate::error::ServeError;
use crate::lock;
use crate::protocol::{ErrorKind, NearestMode};
use crate::queue::{bounded, Admission, FlushOutcome, IngestQueue, TrainerInbox, TrainerMsg};
use crate::telemetry::{ServeTelemetry, TelemetryStats, TrainerStages};
use glodyne::EmbedderSession;
use glodyne_ann::{IvfConfig, StorageMode};
use glodyne_durable::{DurabilityCounters, DurableSession};
use glodyne_embed::traits::CheckpointEmbedder;
use glodyne_embed::{ConfigError, DynamicEmbedder};
use glodyne_graph::state::GraphEvent;
use glodyne_graph::NodeId;
use std::io;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::{self, JoinHandle};
use std::time::{Duration, Instant};

/// Default bound on the ingest queue.
pub const DEFAULT_QUEUE_CAPACITY: usize = 1024;

/// Default `nprobe` for ANN `nearest` requests that don't name one.
pub const DEFAULT_NPROBE: usize = 8;

/// Approximate-search settings for a serving session: when present,
/// the trainee's session builds an [`IvfIndex`](glodyne_ann::IvfIndex)
/// after every committed step and the trainer publishes it inside the
/// epoch, so `nearest` requests in `"ann"` mode are answered from the
/// index.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AnnSettings {
    /// IVF build parameters (cells, k-means iterations, seed).
    pub config: IvfConfig,
    /// `nprobe` used when an ANN request doesn't specify one.
    pub default_nprobe: usize,
}

impl Default for AnnSettings {
    fn default() -> Self {
        AnnSettings {
            config: IvfConfig::default(),
            default_nprobe: DEFAULT_NPROBE,
        }
    }
}

impl AnnSettings {
    /// Validate the settings (fallible-config convention).
    pub fn validate(&self) -> Result<(), ConfigError> {
        self.config.validate()?;
        if self.default_nprobe < 1 {
            return Err(ConfigError::new("default_nprobe", "must be >= 1"));
        }
        Ok(())
    }
}

/// The published epoch's ANN telemetry, surfaced through `stats` so
/// operators can see what each epoch's index costs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AnnStats {
    /// Effective coarse cells in the published index.
    pub cells: usize,
    /// Server-side default `nprobe`.
    pub default_nprobe: usize,
    /// Wall-clock time the published epoch's index build took.
    pub build: Duration,
    /// Posting-list storage of the published index (`f32` or `sq8`).
    pub storage: StorageMode,
    /// Resident bytes of the published index (summed across shards on
    /// sharded sessions) — the number `quantize` exists to shrink.
    pub index_bytes: usize,
    /// How the published index was produced: always `"full"` — every
    /// row assigned by k-means, from cold seeds or re-fitted from the
    /// previous epoch's centroids.
    pub build_kind: &'static str,
    /// The churn since the previous index: rows mutated, added, or
    /// removed (summed across shards) — 0 for a from-scratch build
    /// with no prior index.
    pub dirty_rows: usize,
}

/// Durability counters of a durable serving session, surfaced through
/// the `stats` op's `"durability"` object (`null` when serving
/// in-memory).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DurabilityStats {
    /// Live WAL segment files.
    pub wal_segments: u64,
    /// Bytes across live WAL segments.
    pub wal_bytes: u64,
    /// Committed epoch of the newest snapshot barrier, if any.
    pub last_snapshot_epoch: Option<u64>,
    /// Milliseconds since the last fsync completed; `None` before the
    /// first explicit sync.
    pub last_fsync_ms: Option<u64>,
    /// Recovery provenance of this boot (e.g. which snapshot was
    /// resumed, how many events replayed); `None` on a fresh lineage.
    pub recovered_from: Option<String>,
}

/// The live gauge behind [`DurabilityStats`]: the trainer thread owns
/// the [`DurableSession`] and pushes its counters here after every
/// message; `stats` reads take a snapshot. A mutex (not atomics)
/// because stats reads are rare and the update writes several fields
/// that must stay mutually consistent.
pub(crate) struct DurabilityShared {
    counters: Mutex<DurabilityCounters>,
    recovered_from: Option<String>,
}

impl DurabilityShared {
    pub(crate) fn counters(&self) -> DurabilityCounters {
        *lock(&self.counters)
    }
}

impl DurabilityStats {
    /// The `stats` view of one lineage's counters.
    pub(crate) fn new(live: DurabilityCounters, recovered_from: Option<String>) -> Self {
        DurabilityStats {
            wal_segments: live.wal_segments,
            wal_bytes: live.wal_bytes,
            last_snapshot_epoch: live.last_snapshot_epoch,
            last_fsync_ms: live
                .last_fsync
                .map(|at| Instant::now().saturating_duration_since(at).as_millis() as u64),
            recovered_from,
        }
    }
}

/// How long the trainer may go without observable progress — while
/// work is pending — before the watchdog declares the server degraded.
pub const DEFAULT_STALL_AFTER: Duration = Duration::from_secs(5);

/// The watchdog's verdict on the trainer, surfaced through the `stats`
/// op's `"health"` object and the `glodyne_health_*` Prometheus gauges.
///
/// Degraded mode is explicit, not inferred: reads keep serving the
/// last published epoch (they never blocked on the trainer to begin
/// with), writes get structured errors, and operators see *why* —
/// a panicked trainer (`trainer_alive == false`) or a stalled one
/// (`stalled_ms` past the threshold with work pending).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HealthStats {
    /// `true` when the trainer has panicked or stalled with work
    /// pending. Reads still answer; writes are rejected with a
    /// structured `degraded` error at the wire.
    pub degraded: bool,
    /// `false` once the trainer thread has panicked (its WAL was
    /// sealed on the way down; recovery replays the committed prefix).
    pub trainer_alive: bool,
    /// Flush boundaries accepted but not yet committed by the trainer
    /// — how many epochs behind the served embedding is.
    pub stale_epochs: u64,
    /// Milliseconds since the trainer last made progress, reported
    /// only while work is pending (0 on an idle, healthy session).
    pub stalled_ms: u64,
}

/// The watchdog ledger shared between the trainer thread (heartbeats,
/// completions, the panic flag) and readers (lazy evaluation on every
/// `stats`/dispatch — no dedicated watchdog thread to schedule, no
/// polling interval to tune).
pub(crate) struct HealthState {
    base: Instant,
    /// Microseconds since `base` of the trainer's last progress beat.
    heartbeat_us: AtomicU64,
    panicked: AtomicBool,
    flushes_requested: AtomicU64,
    flushes_completed: AtomicU64,
    stall_after_us: u64,
}

impl HealthState {
    pub(crate) fn new(stall_after: Duration) -> Self {
        let state = HealthState {
            base: Instant::now(),
            heartbeat_us: AtomicU64::new(0),
            panicked: AtomicBool::new(false),
            flushes_requested: AtomicU64::new(0),
            flushes_completed: AtomicU64::new(0),
            stall_after_us: stall_after.as_micros() as u64,
        };
        state.beat();
        state
    }

    fn now_us(&self) -> u64 {
        Instant::now()
            .saturating_duration_since(self.base)
            .as_micros() as u64
    }

    /// Trainer-side: record progress (called after every message).
    pub(crate) fn beat(&self) {
        self.heartbeat_us.fetch_max(self.now_us(), Ordering::AcqRel);
    }

    /// Trainer-side: the loop unwound — the server is degraded until
    /// restart, no matter how fresh the last heartbeat was.
    pub(crate) fn mark_panicked(&self) {
        self.panicked.store(true, Ordering::Release);
    }

    pub(crate) fn flush_requested(&self) {
        self.flushes_requested.fetch_add(1, Ordering::AcqRel);
    }

    /// Undo a `flush_requested` whose message never reached the
    /// trainer (channel closed) — it will never complete, and must not
    /// count as a stale epoch forever.
    pub(crate) fn flush_unrequested(&self) {
        self.flushes_requested.fetch_sub(1, Ordering::AcqRel);
    }

    pub(crate) fn flush_completed(&self) {
        self.flushes_completed.fetch_add(1, Ordering::AcqRel);
    }

    /// Evaluate the verdict right now. `queue_depth` is the caller's
    /// view of pending ingest: a silent trainer is only *stalled* when
    /// there is work it should be making progress on.
    ///
    /// An idle trainer is not a stalled trainer: the trainer only beats
    /// after a message, so an observation that finds nothing pending
    /// advances the heartbeat itself. Every write dispatch evaluates
    /// before it enqueues, so work arriving after an idle stretch gets
    /// a full stall window — and a trainer that wedges on that work is
    /// still reported once `stall_after` has passed.
    pub(crate) fn evaluate(&self, queue_depth: usize) -> HealthStats {
        let panicked = self.panicked.load(Ordering::Acquire);
        let stale_epochs = self
            .flushes_requested
            .load(Ordering::Acquire)
            .saturating_sub(self.flushes_completed.load(Ordering::Acquire));
        let pending = queue_depth > 0 || stale_epochs > 0;
        let now_us = self.now_us();
        if !pending {
            self.heartbeat_us.fetch_max(now_us, Ordering::AcqRel);
        }
        let age_us = now_us.saturating_sub(self.heartbeat_us.load(Ordering::Acquire));
        let stalled = pending && age_us > self.stall_after_us;
        HealthStats {
            degraded: panicked || stalled,
            trainer_alive: !panicked,
            stale_epochs,
            stalled_ms: if pending { age_us / 1000 } else { 0 },
        }
    }
}

/// Drift-rebalance throttling counters of a sharded session, surfaced
/// through the `stats` op's `"rebalance"` object (`null` when serving
/// unsharded).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct RebalanceStats {
    /// Flush boundaries that drained at least one queued migration.
    pub rebalance_batches: u64,
    /// Mirror events migrated across shards since spawn.
    pub migrated_nodes: u64,
    /// Migrations queued behind the per-flush budget right now.
    pub pending_migrations: usize,
}

/// A point-in-time view of the serving counters (the `stats` command).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ServeStats {
    /// Published epoch id (committed embedding steps). Sharded
    /// sessions report the maximum across shards.
    pub epoch: u64,
    /// Embedded nodes in the published epoch. Sharded sessions report
    /// the live (owned) node count of the router's global view.
    pub nodes: usize,
    /// Embedding dimensionality.
    pub dim: usize,
    /// Events waiting in the ingest queue (approximate; summed across
    /// shards when sharded).
    pub queue_depth: usize,
    /// The ingest queue's bound (per shard when sharded).
    pub queue_capacity: usize,
    /// The deepest the ingest queue has ever been (back-pressure
    /// high-water mark — the instantaneous `queue_depth` misses
    /// incidents that drained before the poll; this doesn't). Sharded
    /// sessions report the maximum across shards.
    pub queue_high_water: usize,
    /// Events accepted since the session was spawned (client events,
    /// not per-shard mirror copies).
    pub events_accepted: u64,
    /// ANN index parameters of the published epoch; `None` when ANN is
    /// disabled.
    pub ann: Option<AnnStats>,
    /// Per-shard break-down; `None` on unsharded sessions (the wire
    /// `stats` renders it as `"shards":null`, which pre-sharding
    /// clients never look at).
    pub shards: Option<Vec<crate::shard::ShardEpochStats>>,
    /// Durability counters; `None` when serving in-memory (rendered
    /// `"durability":null`, invisible to pre-durability clients).
    pub durability: Option<DurabilityStats>,
    /// Full telemetry snapshot; `None` when telemetry is disabled
    /// (rendered `"telemetry":null` on the wire, invisible to
    /// pre-telemetry clients).
    pub telemetry: Option<TelemetryStats>,
    /// Trainer watchdog verdict; always present on live sessions
    /// (sharded sessions aggregate: any degraded shard degrades the
    /// whole server, `stale_epochs` is the worst shard's).
    pub health: Option<HealthStats>,
    /// Rebalance throttling counters; `None` on unsharded sessions
    /// (rendered `"rebalance":null` on the wire).
    pub rebalance: Option<RebalanceStats>,
}

/// What a trainer thread drives: the session to train plus whatever
/// its serving mode needs *around* each step. The one trainer loop calls
/// these hooks in a fixed order — *log → apply → publish → snapshot →
/// ack → gauge → beat* — and an `Err` from any of them is logged and
/// serving continues: losing durability must not take reads down.
///
/// Public only because [`ServingSession::spawn`] names it. Implemented
/// by [`EmbedderSession`] (in-memory: nothing to log, every hook a
/// no-op) and [`DurableSession`] (WAL + snapshots).
pub trait Trainee: Send + Sized + 'static {
    /// The embedder the wrapped session trains.
    type Embedder: DynamicEmbedder;

    /// The wrapped session (what gets published after a step).
    fn session_mut(&mut self) -> &mut EmbedderSession<Self::Embedder>;

    /// Log (when durable), then apply one event; `Ok(true)` when the
    /// session's policy committed a step.
    fn apply(&mut self, event: GraphEvent) -> io::Result<bool>;

    /// Commit the pending epoch. Whether a step ran is read off the
    /// session's step count, not this result: a durable flush can fail
    /// its fsync *after* the step ran.
    fn flush(&mut self) -> io::Result<()>;

    /// A step was just published (the periodic-snapshot hook).
    fn committed(&mut self) -> io::Result<()> {
        Ok(())
    }

    /// The loop is over. `clean` (a stop request, or every producer
    /// gone): commit and persist what is pending — the loop publishes
    /// the step this may run. Otherwise the loop panicked: the session
    /// is untrusted, only make what was already logged durable.
    fn finish(&mut self, _clean: bool) -> io::Result<()> {
        Ok(())
    }

    /// Live durability counters and recovery provenance for `stats`;
    /// `None` when in-memory.
    fn durability(&self) -> Option<(DurabilityCounters, Option<&str>)> {
        None
    }

    /// Wire mode-specific I/O timings into the telemetry hub.
    fn instrument(&mut self, _telemetry: &ServeTelemetry) {}
}

impl<E: DynamicEmbedder + Send + 'static> Trainee for EmbedderSession<E> {
    type Embedder = E;

    fn session_mut(&mut self) -> &mut EmbedderSession<E> {
        self
    }

    fn apply(&mut self, event: GraphEvent) -> io::Result<bool> {
        Ok(EmbedderSession::apply(self, event))
    }

    fn flush(&mut self) -> io::Result<()> {
        EmbedderSession::flush(self);
        Ok(())
    }
}

impl<E: CheckpointEmbedder + Send + 'static> Trainee for DurableSession<E> {
    type Embedder = E;

    fn session_mut(&mut self) -> &mut EmbedderSession<E> {
        DurableSession::session_mut(self)
    }

    fn apply(&mut self, event: GraphEvent) -> io::Result<bool> {
        let seq = self.last_seq() + 1;
        DurableSession::apply(self, seq, event)
    }

    fn flush(&mut self) -> io::Result<()> {
        DurableSession::flush(self).map(|_| ())
    }

    fn committed(&mut self) -> io::Result<()> {
        self.maybe_snapshot().map(|_| ())
    }

    /// Clean: flush, fsync, final snapshot — a restart replays nothing.
    /// Panic: seal the WAL; every *accepted* event is already logged, so
    /// recovery replays a committed prefix through the normal path.
    fn finish(&mut self, clean: bool) -> io::Result<()> {
        if clean {
            self.finalize()
        } else {
            self.seal()
        }
    }

    fn durability(&self) -> Option<(DurabilityCounters, Option<&str>)> {
        Some((self.counters(), self.recovered_from()))
    }

    fn instrument(&mut self, telemetry: &ServeTelemetry) {
        self.set_timing(telemetry.durable_timing());
    }
}

/// The values every serving mode takes besides its trainee.
#[derive(Clone)]
pub struct SessionSpec {
    /// Bound of the ingest queue (per shard when sharded).
    pub queue_capacity: usize,
    /// When present, the trainee's session is switched to approximate
    /// search with these settings at spawn, and builds an
    /// [`IvfIndex`](glodyne_ann::IvfIndex) per published epoch on the
    /// trainer thread right after the step commits — readers keep
    /// answering from the previous epoch (and its index) meanwhile.
    pub ann: Option<AnnSettings>,
    /// When present, every stage records into this hub (wait-free):
    /// queue wait and depth, step phases, index build, publish-to-
    /// first-read lag and, for durable trainees, WAL and snapshot I/O.
    pub telemetry: Option<Arc<ServeTelemetry>>,
    /// How long the trainer may go silent — with work pending — before
    /// the watchdog reports the session degraded.
    pub stall_after: Duration,
}

impl SessionSpec {
    /// A spec with this queue bound, ANN and telemetry off, and the
    /// default stall threshold.
    pub fn new(queue_capacity: usize) -> Self {
        SessionSpec {
            queue_capacity,
            ann: None,
            telemetry: None,
            stall_after: DEFAULT_STALL_AFTER,
        }
    }

    /// Degenerate ANN settings are rejected up front, never repaired.
    pub(crate) fn validate(&self) -> Result<(), ConfigError> {
        self.ann.as_ref().map_or(Ok(()), AnnSettings::validate)
    }
}

/// One running trainer thread and the plumbing to talk to it. An
/// unsharded session holds one, a sharded session one per shard.
pub(crate) struct Trainer {
    pub(crate) queue: IngestQueue,
    pub(crate) epochs: EpochHandle,
    health: Arc<HealthState>,
    /// The trainee's live durability gauge; `None` when in-memory.
    pub(crate) durability: Option<Arc<DurabilityShared>>,
    join: Mutex<Option<JoinHandle<()>>>,
}

impl Trainer {
    /// Commit everything enqueued so far and wait for the step as
    /// `admission` allows. The watchdog counts the request as a stale
    /// epoch until the trainer completes it — also when the *wait*
    /// timed out, since the flush stays queued; only a request that
    /// never reached the trainer (channel closed) is un-counted.
    pub(crate) fn flush(&self, admission: Admission) -> Result<FlushOutcome, ServeError> {
        self.health.flush_requested();
        let outcome = self.queue.request_flush(admission);
        if matches!(outcome, Err(ServeError::Closed)) {
            self.health.flush_unrequested();
        }
        outcome
    }

    /// Ask the trainer to exit (idempotent; does not wait).
    pub(crate) fn stop(&self) {
        self.queue.send_shutdown();
    }

    /// Wait for the trainer to exit. One that panicked already published
    /// its last good epoch; surfacing the panic here would take the
    /// server's read path down with it.
    pub(crate) fn join(&self) {
        let handle = lock(&self.join).take();
        if let Some(handle) = handle {
            let _ = handle.join();
        }
    }
}

/// The watchdog verdict over one session's trainers — degraded when
/// *any* is, alive only when *every* one is, staleness and stall age
/// from the worst — synced to the `glodyne_health_*` gauges.
pub(crate) fn health_of<'a>(
    trainers: impl IntoIterator<Item = &'a Trainer>,
    telemetry: Option<&ServeTelemetry>,
) -> HealthStats {
    let mut agg = HealthStats {
        degraded: false,
        trainer_alive: true,
        stale_epochs: 0,
        stalled_ms: 0,
    };
    for trainer in trainers {
        let one = trainer.health.evaluate(trainer.queue.depth());
        agg.degraded |= one.degraded;
        agg.trainer_alive &= one.trainer_alive;
        agg.stale_epochs = agg.stale_epochs.max(one.stale_epochs);
        agg.stalled_ms = agg.stalled_ms.max(one.stalled_ms);
    }
    if let Some(t) = telemetry {
        t.sync_health_gauges(agg.degraded, agg.stale_epochs);
    }
    agg
}

/// Move `trainee` onto a trainer thread (`glodyne-trainer`, or
/// `glodyne-trainer-{i}` for shard `i`). Its current state — anything
/// ingested and flushed, or recovered, before the move — becomes the
/// initially served epoch. The spec's ANN settings replace whatever the
/// trainee's session had, so the first index is a cold build over that
/// state (nothing to warm-start from, in memory or after a recovery),
/// and every later one is re-fitted from the one before — partial-probe
/// answers may differ across a restart, exact and full-probe ones do
/// not (see `IvfIndex::update_from`).
pub(crate) fn spawn_trainer<T: Trainee>(
    mut trainee: T,
    shard: Option<usize>,
    spec: &SessionSpec,
) -> Result<Trainer, ConfigError> {
    let telemetry = spec.telemetry.as_deref();
    if let Some(t) = telemetry {
        trainee.instrument(t);
    }
    let session = trainee.session_mut();
    session.set_ann(spec.ann.map(|settings| settings.config))?;
    let epochs = EpochHandle::new(current_epoch(session));
    let durability = trainee.durability().map(|(counters, provenance)| {
        Arc::new(DurabilityShared {
            counters: Mutex::new(counters),
            recovered_from: provenance.map(str::to_owned),
        })
    });
    let (queue, inbox) = bounded(
        spec.queue_capacity,
        telemetry.map(|t| Arc::clone(&t.queue_wait)),
    );
    if let Some(t) = telemetry {
        epochs.set_freshness_histogram(Arc::clone(&t.freshness));
    }
    let stages = telemetry.map(|t| t.trainer_stages(shard));
    let health = Arc::new(HealthState::new(spec.stall_after));
    let name = shard.map_or("glodyne-trainer".into(), |i| format!("glodyne-trainer-{i}"));
    let (publisher, gauge, pulse) = (epochs.clone(), durability.clone(), Arc::clone(&health));
    let join = thread::Builder::new()
        .name(name)
        .spawn(move || trainer_loop(trainee, &inbox, &publisher, gauge, stages, &pulse))
        .expect("spawn trainer thread");
    Ok(Trainer {
        queue,
        epochs,
        health,
        durability,
        join: Mutex::new(Some(join)),
    })
}

/// The concurrent wrapper around a moved-away [`Trainee`].
///
/// All methods take `&self`; the struct is shared across connection
/// threads behind an `Arc`.
pub struct ServingSession {
    trainer: Trainer,
    ann: Option<AnnSettings>,
    telemetry: Option<Arc<ServeTelemetry>>,
}

impl ServingSession {
    /// Move `trainee` onto a trainer thread and return the concurrent
    /// handle. An [`EmbedderSession`] serves in-memory; a
    /// [`DurableSession`] (from [`DurableSession::create`] or
    /// [`DurableSession::recover`]) additionally WAL-logs every event
    /// before applying it, freezes committed epochs into snapshots, and
    /// finalizes the lineage on shutdown so a restart replays nothing.
    pub fn spawn<T: Trainee>(trainee: T, spec: SessionSpec) -> Result<ServingSession, ConfigError> {
        spec.validate()?;
        Ok(ServingSession {
            trainer: spawn_trainer(trainee, None, &spec)?,
            ann: spec.ann,
            telemetry: spec.telemetry,
        })
    }

    /// The session's ANN settings, when enabled.
    pub fn ann(&self) -> Option<AnnSettings> {
        self.ann
    }

    /// The session's telemetry hub, when instrumented.
    pub fn telemetry(&self) -> Option<&Arc<ServeTelemetry>> {
        self.telemetry.as_ref()
    }

    /// The currently served epoch (frozen; see [`EpochHandle::load`]).
    pub fn epoch(&self) -> Arc<EmbeddingEpoch> {
        self.trainer.epochs.load()
    }

    /// The served epoch for background observers: same `Arc`, but the
    /// freshness-lag stamp is left for the first *client* read.
    pub fn probe_epoch(&self) -> Arc<EmbeddingEpoch> {
        self.trainer.epochs.load_untracked()
    }

    /// Read `node`'s embedding vector in the served epoch: `read`
    /// gets the epoch id and the row, borrowed in place from that one
    /// epoch.
    pub fn query<R>(&self, node: NodeId, read: impl FnOnce(u64, Option<&[f32]>) -> R) -> R {
        let epoch = self.epoch();
        read(epoch.epoch, epoch.embedding.get(node))
    }

    /// The `k` nearest neighbours of `node` in the served epoch, read
    /// the way `mode` says, with the session's default `nprobe` when an
    /// ANN request names none — [`EmbeddingEpoch::nearest`] on one
    /// epoch load, so the reported epoch id, the embedding and the
    /// index always agree. Exact mode is the same contract as
    /// [`EmbedderSession::nearest`]; ANN mode is `Unavailable` when the
    /// session has no index.
    pub fn nearest(
        &self,
        node: NodeId,
        k: usize,
        mode: NearestMode,
    ) -> Result<(u64, Neighbours, Option<usize>), (u64, ErrorKind)> {
        self.epoch()
            .nearest(node, k, self.with_default_nprobe(mode))
    }

    /// [`ServingSession::nearest`] for a whole batch on one epoch load
    /// ([`EmbeddingEpoch::nearest_batch`]): one epoch id for every
    /// answer, `None` entries for unknown nodes, and `None` overall
    /// when ANN mode meets a session without an index.
    pub fn nearest_batch(
        &self,
        nodes: &[NodeId],
        k: usize,
        mode: NearestMode,
    ) -> Option<(u64, Vec<Option<Neighbours>>, Option<usize>)> {
        self.epoch()
            .nearest_batch(nodes, k, self.with_default_nprobe(mode))
    }

    /// `mode` with the session's default probe width filled in.
    fn with_default_nprobe(&self, mode: NearestMode) -> NearestMode {
        match mode {
            NearestMode::Ann { nprobe: None } => NearestMode::Ann {
                nprobe: self.ann.map(|settings| settings.default_nprobe),
            },
            mode => mode,
        }
    }

    /// [`ServingSession::ingest_with`] under [`Admission::Block`].
    pub fn ingest(&self, events: &[GraphEvent]) -> Result<usize, ServeError> {
        self.ingest_with(events, Admission::Block)
    }

    /// Enqueue events in order, each waiting for queue room as
    /// `admission` allows. Returns how many were accepted: a refusal on
    /// the *first* event is the error itself ([`ServeError::Overloaded`]
    /// when shedding, [`ServeError::DeadlineExceeded`] at a deadline,
    /// [`ServeError::Closed`] once the trainer is gone); mid-batch it is
    /// a partial accept (`Ok(i)` with `i < events.len()`).
    pub fn ingest_with(
        &self,
        events: &[GraphEvent],
        admission: Admission,
    ) -> Result<usize, ServeError> {
        let queue = &self.trainer.queue;
        for (i, &event) in events.iter().enumerate() {
            let sent = queue
                .enqueue_failpoint()
                .and_then(|()| queue.send(event, admission));
            if let Err(e) = sent {
                return if i == 0 { Err(e) } else { Ok(i) };
            }
        }
        Ok(events.len())
    }

    /// [`ServingSession::flush_with`] under [`Admission::Block`].
    pub fn flush(&self) -> Result<FlushOutcome, ServeError> {
        self.flush_with(Admission::Block)
    }

    /// Commit everything enqueued so far and wait for the step to
    /// finish. (The *next* read observes the new epoch; the call
    /// returning is the visibility barrier.) Under
    /// [`Admission::Until`] the wait for the commit ack is abandoned at
    /// the deadline with [`ServeError::DeadlineExceeded`]; the flush
    /// *stays queued* — the trainer will still commit it, and the
    /// watchdog counts it as a stale epoch until it does.
    pub fn flush_with(&self, admission: Admission) -> Result<FlushOutcome, ServeError> {
        self.trainer.flush(admission)
    }

    /// Evaluate the trainer watchdog right now (also syncs the
    /// `glodyne_health_*` Prometheus gauges when instrumented).
    pub fn health(&self) -> HealthStats {
        health_of([&self.trainer], self.telemetry.as_deref())
    }

    /// Serving counters plus the served epoch's identity.
    pub fn stats(&self) -> ServeStats {
        let epoch = self.epoch();
        ServeStats {
            epoch: epoch.epoch,
            nodes: epoch.embedding.len(),
            dim: epoch.embedding.dim(),
            queue_depth: self.trainer.queue.depth(),
            queue_capacity: self.trainer.queue.capacity(),
            queue_high_water: self.trainer.queue.depth_high_water(),
            events_accepted: self.trainer.queue.accepted(),
            ann: self.ann.as_ref().and_then(|settings| {
                epoch.index.as_ref().map(|index| AnnStats {
                    cells: index.cells(),
                    default_nprobe: settings.default_nprobe,
                    build: index.build_time(),
                    storage: index.storage_mode(),
                    index_bytes: index.index_bytes(),
                    build_kind: index.build_kind().as_str(),
                    dirty_rows: index.dirty_rows(),
                })
            }),
            shards: None,
            durability: (self.trainer.durability.as_ref())
                .map(|d| DurabilityStats::new(d.counters(), d.recovered_from.clone())),
            telemetry: self.telemetry.as_ref().map(|t| {
                t.stats(
                    self.trainer.queue.depth(),
                    self.trainer.queue.depth_high_water(),
                )
            }),
            health: Some(self.health()),
            rebalance: None,
        }
    }

    /// Stop the trainer and wait for it to exit. Idempotent; reads keep
    /// working off the last published epoch afterwards, writes return
    /// [`ServeError::Closed`].
    pub fn shutdown(&self) {
        self.trainer.stop();
        self.trainer.join();
    }
}

impl Drop for ServingSession {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// The trainer thread — the only loop in the crate that drains an
/// inbox, whatever the mode: apply events, publish an epoch (the
/// session's embedding plus its freshly built index, when ANN is on)
/// after every committed step, acknowledge flushes in queue order. What
/// differs between in-memory and durable serving lives behind the
/// [`Trainee`] hooks.
/// Loop exit — explicit shutdown *or* every producer handle dropping —
/// finishes the trainee cleanly; a panic finishes it as a crash.
fn trainer_loop<T: Trainee>(
    mut trainee: T,
    inbox: &TrainerInbox,
    epochs: &EpochHandle,
    gauge: Option<Arc<DurabilityShared>>,
    stages: Option<TrainerStages>,
    health: &HealthState,
) {
    let stages = stages.as_ref();
    let sync_gauge = |trainee: &T| {
        if let (Some(gauge), Some((counters, _))) = (&gauge, trainee.durability()) {
            *lock(&gauge.counters) = counters;
        }
    };
    // A committed step: publish it, then let the trainee snapshot.
    let commit = |trainee: &mut T| {
        publish(trainee.session_mut(), epochs, stages);
        if let Err(e) = trainee.committed() {
            eprintln!("glodyne-serve: snapshot failed: {e}");
        }
    };
    // AssertUnwindSafe: on panic the in-memory session is untrusted and
    // never applied to again — readers keep the last *published* epoch,
    // which a half-applied step can't have reached.
    let run = catch_unwind(AssertUnwindSafe(|| {
        while let Some(msg) = inbox.recv() {
            glodyne_chaos::slow(glodyne_chaos::sites::TRAINER_STEP);
            match msg {
                // The policy may commit on its own (timestamp / every-n
                // boundaries); publish whenever it does.
                TrainerMsg::Event { event, .. } => {
                    match trainee.apply(event) {
                        Ok(true) => commit(&mut trainee),
                        Ok(false) => {}
                        Err(e) => eprintln!("glodyne-serve: wal append failed: {e}"),
                    }
                    sync_gauge(&trainee);
                }
                TrainerMsg::Flush(ack) => {
                    // A step that ran is published and acked even when
                    // the durable flush failed after it (a failed fsync):
                    // the reply's epoch and the served epoch must agree.
                    let before = trainee.session_mut().steps();
                    if let Err(e) = trainee.flush() {
                        eprintln!("glodyne-serve: wal flush failed: {e}");
                    }
                    let epoch = trainee.session_mut().steps();
                    let stepped = epoch != before;
                    if stepped {
                        commit(&mut trainee);
                    }
                    // Before the ack: a `stats` sent after the reply
                    // must see this flush's WAL and snapshot.
                    sync_gauge(&trainee);
                    health.flush_completed();
                    let _ = ack.send(FlushOutcome {
                        stepped,
                        epoch: epoch as u64,
                    });
                }
                TrainerMsg::Shutdown => break,
            }
            health.beat();
        }
    }));
    match run {
        Ok(()) => {
            if let Err(e) = trainee.finish(true) {
                eprintln!("glodyne-serve: finalize failed: {e}");
            }
            // Finishing may have committed one last step.
            let session = trainee.session_mut();
            if session.steps() as u64 != epochs.load_untracked().epoch {
                publish(session, epochs, stages);
            }
        }
        Err(_) => {
            health.mark_panicked();
            if let Err(e) = trainee.finish(false) {
                eprintln!("glodyne-serve: wal seal after trainer panic failed: {e}");
            }
            eprintln!(
                "glodyne-serve: trainer thread panicked; reads continue degraded from the last \
                 published epoch"
            );
        }
    }
    sync_gauge(&trainee);
}

fn publish<E: DynamicEmbedder>(
    session: &mut EmbedderSession<E>,
    epochs: &EpochHandle,
    stages: Option<&TrainerStages>,
) {
    let epoch = current_epoch(session);
    // Stage attribution happens on the trainer thread, before the swap:
    // by the time readers can see the epoch its cost is already booked.
    if let Some(stages) = stages {
        stages.record(epoch.report.as_ref(), epoch.index.as_deref());
    }
    epochs.publish(epoch);
}

/// The session's committed epoch, ready to publish: its own embedding
/// and index handles, the index built first when ANN is on (here, on
/// the trainer thread, so it never blocks a reader).
fn current_epoch<E: DynamicEmbedder>(session: &mut EmbedderSession<E>) -> EmbeddingEpoch {
    let (embedding, index) = session.share_epoch();
    EmbeddingEpoch {
        epoch: session.steps() as u64,
        embedding,
        report: session.last_report(),
        index,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use glodyne::{EpochPolicy, GloDyNE};
    use glodyne_ann::IvfIndex;
    use glodyne_graph::id::TimedEdge;

    /// A `query` read that copies the row out, for assertions.
    fn owned(epoch: u64, row: Option<&[f32]>) -> (u64, Option<Vec<f32>>) {
        (epoch, row.map(<[f32]>::to_vec))
    }

    fn tiny_model() -> GloDyNE {
        crate::tests::tiny_model(3, 0)
    }

    fn tiny_session(policy: EpochPolicy) -> EmbedderSession<GloDyNE> {
        EmbedderSession::new(tiny_model(), policy).unwrap()
    }

    fn chain_events(n: u32, t: u64) -> Vec<GraphEvent> {
        (0..n)
            .map(|i| GraphEvent::add_edge(NodeId(i), NodeId(i + 1), t))
            .collect()
    }

    #[test]
    fn ingest_flush_query_round_trip() {
        let serving =
            ServingSession::spawn(tiny_session(EpochPolicy::Manual), SessionSpec::new(64)).unwrap();
        assert_eq!(serving.epoch().epoch, 0);
        assert_eq!(serving.query(NodeId(0), owned).1, None);

        serving.ingest(&chain_events(6, 0)).unwrap();
        let outcome = serving.flush().unwrap();
        assert!(outcome.stepped);
        assert_eq!(outcome.epoch, 1);

        let (epoch, vector) = serving.query(NodeId(0), owned);
        assert_eq!(epoch, 1);
        assert_eq!(vector.unwrap().len(), 8);
        let (_, near, _) = serving.nearest(NodeId(0), 3, NearestMode::Exact).unwrap();
        assert!(!near.is_empty());
        assert!(near.iter().all(|&(id, _)| id != NodeId(0)));

        // Flushing with nothing pending is a no-step.
        let outcome = serving.flush().unwrap();
        assert!(!outcome.stepped);
        assert_eq!(outcome.epoch, 1);
        serving.shutdown();
    }

    #[test]
    fn nearest_matches_the_shared_reference_contract() {
        let serving =
            ServingSession::spawn(tiny_session(EpochPolicy::Manual), SessionSpec::new(64)).unwrap();
        serving.ingest(&chain_events(8, 0)).unwrap();
        serving.flush().unwrap();
        let epoch = serving.epoch();
        let (_, fast, _) = serving.nearest(NodeId(3), 5, NearestMode::Exact).unwrap();
        let spec = glodyne_embed::reference_top_k(&epoch.embedding, NodeId(3), 5);
        assert_eq!(fast.len(), spec.len());
        for (a, b) in fast.iter().zip(&spec) {
            assert_eq!(a.0, b.0);
            assert_eq!(a.1.to_bits(), b.1.to_bits());
        }
    }

    #[test]
    fn policy_boundaries_publish_without_explicit_flush() {
        let serving = ServingSession::spawn(
            tiny_session(EpochPolicy::EveryNEvents(4)),
            SessionSpec::new(64),
        )
        .unwrap();
        serving.ingest(&chain_events(4, 0)).unwrap();
        // The 4th event crosses the boundary inside the trainer; wait
        // for the publish via the flush barrier (no-op step).
        let outcome = serving.flush().unwrap();
        assert_eq!(outcome.epoch, 1);
        assert!(!outcome.stepped, "policy already committed the batch");
        assert_eq!(serving.epoch().epoch, 1);
    }

    #[test]
    fn shutdown_keeps_reads_and_fails_writes() {
        let serving =
            ServingSession::spawn(tiny_session(EpochPolicy::Manual), SessionSpec::new(64)).unwrap();
        serving.ingest(&chain_events(5, 0)).unwrap();
        serving.flush().unwrap();
        serving.shutdown();
        serving.shutdown(); // idempotent

        assert_eq!(serving.epoch().epoch, 1, "reads survive shutdown");
        assert!(serving.query(NodeId(0), owned).1.is_some());
        assert!(matches!(
            serving.ingest(&chain_events(1, 9)),
            Err(ServeError::Closed)
        ));
        assert!(matches!(serving.flush(), Err(ServeError::Closed)));
    }

    #[test]
    fn spawn_serves_pretrained_state_as_initial_epoch() {
        let mut session = tiny_session(EpochPolicy::Manual);
        session.ingest(&[
            TimedEdge::new(NodeId(0), NodeId(1), 0),
            TimedEdge::new(NodeId(1), NodeId(2), 0),
            TimedEdge::new(NodeId(2), NodeId(3), 0),
        ]);
        session.flush().unwrap();
        let serving = ServingSession::spawn(session, SessionSpec::new(16)).unwrap();
        let epoch = serving.epoch();
        assert_eq!(epoch.epoch, 1);
        assert!(epoch.report.is_some());
        assert!(epoch.embedding.get(NodeId(1)).is_some());
    }

    #[test]
    fn stats_reflect_the_queue_and_epoch() {
        let serving =
            ServingSession::spawn(tiny_session(EpochPolicy::Manual), SessionSpec::new(16)).unwrap();
        serving.ingest(&chain_events(5, 0)).unwrap();
        serving.flush().unwrap();
        let stats = serving.stats();
        assert_eq!(stats.epoch, 1);
        assert_eq!(stats.dim, 8);
        assert!(stats.nodes >= 6);
        assert_eq!(stats.queue_capacity, 16);
        assert_eq!(stats.events_accepted, 5);
        assert_eq!(stats.queue_depth, 0, "flush drained the queue");
        assert!(
            stats.queue_high_water >= 1,
            "the 5-event burst left a high-water mark"
        );
        assert_eq!(stats.ann, None, "ann disabled by default");
        assert_eq!(stats.durability, None, "in-memory session has no lineage");
        assert_eq!(stats.telemetry, None, "telemetry off by default");
    }

    #[test]
    fn instrumented_session_records_stages_queue_and_freshness() {
        let hub = Arc::new(ServeTelemetry::new(u64::MAX));
        let serving = ServingSession::spawn(
            tiny_session(EpochPolicy::Manual),
            SessionSpec {
                ann: Some(ann_settings(2, 2)),
                telemetry: Some(Arc::clone(&hub)),
                ..SessionSpec::new(16)
            },
        )
        .unwrap();
        serving.ingest(&chain_events(6, 0)).unwrap();
        serving.flush().unwrap();
        // First read after the publish books the freshness lag.
        let _ = serving.query(NodeId(0), owned);

        let stats = serving.stats();
        let t = stats.telemetry.expect("instrumented session");
        assert!(t.queue_high_water >= 1);
        assert!(
            t.queue_wait.count >= 6,
            "every queued event recorded its wait"
        );
        for stage in ["select", "walks", "train", "index_build"] {
            let (_, h) = t.stages.iter().find(|(s, _)| *s == stage).unwrap();
            assert!(h.count >= 1, "stage {stage} recorded on the trainer step");
        }
        assert!(t.freshness.count >= 1, "first read measured the lag");
        assert_eq!(t.durability, None, "in-memory session");
        // And the same numbers are scrapeable as Prometheus text.
        let text = hub.render_prometheus();
        assert!(text.contains("glodyne_stage_us_count{stage=\"train\"} "));
        serving.shutdown();
    }

    fn durable_dir(tag: &str) -> std::path::PathBuf {
        crate::tests::scratch_dir(&format!("session-{tag}"))
    }

    #[test]
    fn durable_restart_resumes_epoch_and_stats_surface_durability() {
        use glodyne_durable::{DurableConfig, FsyncPolicy};
        let dir = durable_dir("restart");
        let cfg = DurableConfig {
            fsync: FsyncPolicy::Off,
            ..DurableConfig::default()
        };
        let durable = DurableSession::create(&dir, tiny_session(EpochPolicy::Manual), cfg).unwrap();
        let serving = ServingSession::spawn(durable, SessionSpec::new(64)).unwrap();
        serving.ingest(&chain_events(8, 0)).unwrap();
        assert!(serving.flush().unwrap().stepped);
        let stats = serving.stats();
        let dur = stats.durability.expect("durable session surfaces stats");
        assert!(dur.wal_segments >= 1);
        assert_eq!(dur.recovered_from, None, "fresh lineage, no recovery");
        let (epoch_before, row_before) = serving.query(NodeId(0), owned);
        serving.shutdown(); // finalize(): a restart must replay nothing

        let (recovered, report) =
            DurableSession::recover(&dir, cfg, EpochPolicy::Manual, false, tiny_model).unwrap();
        assert_eq!(report.replayed_events, 0, "final snapshot covers the log");
        let serving2 = ServingSession::spawn(recovered, SessionSpec::new(64)).unwrap();
        let (epoch_after, row_after) = serving2.query(NodeId(0), owned);
        assert_eq!(epoch_after, epoch_before);
        let (a, b) = (row_before.unwrap(), row_after.unwrap());
        assert_eq!(a.len(), b.len());
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.to_bits(), y.to_bits());
        }
        let dur = serving2.stats().durability.unwrap();
        assert_eq!(
            dur.recovered_from.as_deref(),
            Some(report.recovered_from.as_str())
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn durable_policy_epochs_snapshot_and_drop_without_shutdown_finalizes() {
        use glodyne_durable::{DurableConfig, FsyncPolicy};
        let dir = durable_dir("policy");
        let cfg = DurableConfig {
            fsync: FsyncPolicy::EveryNEvents(1),
            snapshot_every: 1,
            ..DurableConfig::default()
        };
        let durable =
            DurableSession::create(&dir, tiny_session(EpochPolicy::EveryNEvents(4)), cfg).unwrap();
        let serving = ServingSession::spawn(durable, SessionSpec::new(16)).unwrap();
        serving.ingest(&chain_events(8, 0)).unwrap();
        serving.flush().unwrap(); // barrier: both policy epochs committed
        assert_eq!(serving.epoch().epoch, 2);
        let dur = serving.stats().durability.unwrap();
        assert_eq!(
            dur.last_snapshot_epoch,
            Some(2),
            "snapshot_every=1 froze it"
        );
        assert!(dur.last_fsync_ms.is_some(), "per-event fsync recorded");
        drop(serving); // Drop -> shutdown -> trainer finalize
        let (recovered, report) =
            DurableSession::recover(&dir, cfg, EpochPolicy::EveryNEvents(4), false, tiny_model)
                .unwrap();
        assert_eq!(report.replayed_events, 0);
        assert_eq!(recovered.session().steps(), 2);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn durability_stats_after_a_flush_reply_include_that_flush() {
        use glodyne_durable::{DurableConfig, FsyncPolicy};
        let dir = durable_dir("gauge");
        let cfg = DurableConfig {
            fsync: FsyncPolicy::Off,
            snapshot_every: 1,
            ..DurableConfig::default()
        };
        let durable = DurableSession::create(&dir, tiny_session(EpochPolicy::Manual), cfg).unwrap();
        let serving = ServingSession::spawn(durable, SessionSpec::new(64)).unwrap();
        serving.ingest(&chain_events(6, 0)).unwrap();
        for t in 1..=40u32 {
            let reply = serving.flush().unwrap();
            assert!(reply.stepped);
            let dur = serving.stats().durability.unwrap();
            assert_eq!(dur.last_snapshot_epoch, Some(reply.epoch), "flush {t}");
            serving
                .ingest(&[GraphEvent::add_edge(NodeId(t), NodeId(t + 6), u64::from(t))])
                .unwrap();
        }
        serving.shutdown();
        let _ = std::fs::remove_dir_all(&dir);
    }

    fn spec_with_ann(queue_capacity: usize, settings: AnnSettings) -> SessionSpec {
        SessionSpec {
            ann: Some(settings),
            ..SessionSpec::new(queue_capacity)
        }
    }

    fn ann_settings(cells: usize, nprobe: usize) -> AnnSettings {
        AnnSettings {
            config: IvfConfig {
                cells,
                ..Default::default()
            },
            default_nprobe: nprobe,
        }
    }

    #[test]
    fn ann_epochs_publish_an_index_and_full_probe_is_exact() {
        let serving = ServingSession::spawn(
            tiny_session(EpochPolicy::Manual),
            spec_with_ann(64, ann_settings(4, 2)),
        )
        .unwrap();
        assert_eq!(serving.ann(), Some(ann_settings(4, 2)));
        // The initial (empty) epoch already carries an (empty) index.
        let epoch = serving.epoch();
        assert!(epoch.index.as_deref().is_some_and(IvfIndex::is_empty));

        serving.ingest(&chain_events(9, 0)).unwrap();
        serving.flush().unwrap();
        let epoch = serving.epoch();
        let index = epoch.index.as_ref().expect("index published with epoch");
        assert_eq!(index.len(), epoch.embedding.len());
        assert_eq!(index.cells(), 4);

        // Full probe == the exact wire path, bit for bit.
        let full = NearestMode::Ann {
            nprobe: Some(index.cells()),
        };
        let (e1, ann, nprobe) = serving.nearest(NodeId(3), 5, full).unwrap();
        assert_eq!(nprobe, Some(4));
        let (e2, exact, none) = serving.nearest(NodeId(3), 5, NearestMode::Exact).unwrap();
        assert_eq!(none, None, "exact reads echo no probe width");
        assert_eq!(e1, e2);
        assert_eq!(ann.len(), exact.len());
        for (a, b) in ann.iter().zip(&exact) {
            assert_eq!(a.0, b.0);
            assert_eq!(a.1.to_bits(), b.1.to_bits());
        }
        // Default nprobe (None) is the session's; unknown nodes are
        // not-found in either mode.
        let default = NearestMode::Ann { nprobe: None };
        let (_, some, nprobe) = serving.nearest(NodeId(3), 5, default).unwrap();
        assert!(some.len() <= 5);
        assert_eq!(nprobe, Some(2), "session default nprobe");
        for mode in [default, NearestMode::Exact] {
            assert_eq!(
                serving.nearest(NodeId(999), 5, mode),
                Err((e1, ErrorKind::NotFound))
            );
        }

        let stats = serving.stats();
        let ann_stats = stats.ann.expect("ann stats surface the index");
        assert_eq!(ann_stats.cells, 4);
        assert_eq!(ann_stats.default_nprobe, 2);
    }

    #[test]
    fn nearest_batch_matches_per_query_on_a_quiesced_session() {
        for quantize in [false, true] {
            let mut settings = ann_settings(3, 2);
            settings.config.quantize = quantize;
            let serving = ServingSession::spawn(
                tiny_session(EpochPolicy::Manual),
                spec_with_ann(64, settings),
            )
            .unwrap();
            serving.ingest(&chain_events(9, 0)).unwrap();
            serving.flush().unwrap();
            // Trainer quiesced: single and batch reads see one epoch.
            let nodes = [NodeId(0), NodeId(4), NodeId(777), NodeId(2)];
            let modes = [None, Some(1), Some(usize::MAX)].map(|nprobe| NearestMode::Ann { nprobe });
            for mode in [NearestMode::Exact].into_iter().chain(modes) {
                let (be, batch, beff) = serving.nearest_batch(&nodes, 5, mode).unwrap();
                for (&n, got) in nodes.iter().zip(&batch) {
                    // The single-probe read of the same node: `None`
                    // in the batch is `not_found` alone.
                    let single = serving.nearest(n, 5, mode);
                    let Some(got) = got else {
                        assert_eq!(single, Err((be, ErrorKind::NotFound)));
                        continue;
                    };
                    let (se, single, seff) = single.unwrap();
                    assert_eq!((be, beff), (se, seff));
                    assert_eq!(got.len(), single.len(), "quantize={quantize}");
                    for (a, b) in got.iter().zip(&single) {
                        assert_eq!(a.0, b.0);
                        assert_eq!(a.1.to_bits(), b.1.to_bits());
                    }
                }
                assert_eq!(batch[2], None, "node 777 is unknown");
            }
            // Stats surface the storage mode and the arena shrink.
            let ann_stats = serving.stats().ann.expect("ann stats present");
            let expected = if quantize {
                StorageMode::Sq8
            } else {
                StorageMode::F32
            };
            assert_eq!(ann_stats.storage, expected);
            assert!(ann_stats.index_bytes > 0);
        }
    }

    /// What pins an epoch's index: length, cells, the churn it counted
    /// and every posting list.
    type IndexRecord = (usize, usize, usize, Vec<Vec<NodeId>>);

    fn index_record(index: &IvfIndex) -> IndexRecord {
        let postings = (0..index.cells())
            .map(|c| index.posting_list(c).to_vec())
            .collect();
        (index.len(), index.cells(), index.dirty_rows(), postings)
    }

    #[test]
    fn served_chain_is_the_sessions_chain() {
        // Four flushes, one of them after a node removal.
        let script: Vec<Vec<GraphEvent>> = vec![
            chain_events(8, 0),
            (0..4)
                .map(|i| GraphEvent::add_edge(NodeId(i), NodeId(i + 2), 1))
                .collect(),
            vec![GraphEvent::remove_node(NodeId(8), 2)],
            (0..3)
                .map(|i| GraphEvent::add_edge(NodeId(i + 3), NodeId(i + 9), 3))
                .collect(),
        ];
        for quantize in [false, true] {
            let mut settings = ann_settings(3, 2);
            settings.config.quantize = quantize;
            let serving = ServingSession::spawn(
                tiny_session(EpochPolicy::Manual),
                spec_with_ann(64, settings),
            )
            .unwrap();
            let mut bare = tiny_session(EpochPolicy::Manual)
                .with_ann(settings.config)
                .unwrap();
            let served = |serving: &ServingSession| {
                let epoch = serving.epoch();
                let index = epoch.index.as_deref().expect("ann enabled");
                (epoch.epoch, index_record(index))
            };
            let mut served_chain = vec![served(&serving)];
            let mut bare_chain = vec![(0, index_record(bare.ensure_ann_index().unwrap()))];
            for events in &script {
                serving.ingest(events).unwrap();
                assert!(serving.flush().unwrap().stepped);
                served_chain.push(served(&serving));
                for &event in events {
                    bare.apply(event);
                }
                bare.flush().unwrap();
                let epoch = bare.steps() as u64;
                bare_chain.push((epoch, index_record(bare.ensure_ann_index().unwrap())));
            }
            assert_eq!(served_chain.len(), 5);
            assert_eq!(served_chain, bare_chain, "quantize={quantize}");
            serving.shutdown();
        }
    }

    #[test]
    fn ann_disabled_session_returns_none() {
        let serving =
            ServingSession::spawn(tiny_session(EpochPolicy::Manual), SessionSpec::new(8)).unwrap();
        serving.ingest(&chain_events(4, 0)).unwrap();
        serving.flush().unwrap();
        assert_eq!(serving.ann(), None);
        let ann = NearestMode::Ann { nprobe: None };
        assert_eq!(
            serving.nearest(NodeId(0), 3, ann),
            Err((1, ErrorKind::Unavailable))
        );
        // An unknown node is not-found before it is unavailable.
        assert_eq!(
            serving.nearest(NodeId(999), 3, ann),
            Err((1, ErrorKind::NotFound))
        );
        assert!(serving.nearest_batch(&[NodeId(0)], 3, ann).is_none());
        assert!(serving.epoch().index.is_none());
    }

    #[test]
    fn health_watchdog_verdicts() {
        // Zero tolerance, but no pending work: an idle trainer is not
        // a stalled trainer.
        let h = HealthState::new(Duration::ZERO);
        let s = h.evaluate(0);
        assert!(!s.degraded);
        assert!(s.trainer_alive);
        assert_eq!(s.stale_epochs, 0);
        assert_eq!(s.stalled_ms, 0, "no pending work, no stall clock");

        // Pending ingest + a heartbeat that stays silent past the
        // threshold — counted from the idle observation above, not
        // from before the idle stretch.
        std::thread::sleep(Duration::from_millis(2));
        let s = h.evaluate(3);
        assert!(s.degraded);
        assert!(s.trainer_alive, "stalled, not dead");
        assert!(s.stalled_ms >= 1);

        // Under a generous threshold the same silence is no verdict.
        assert!(
            !HealthState::new(Duration::from_secs(3600))
                .evaluate(3)
                .degraded
        );

        // Requested-but-uncommitted flush boundaries are stale epochs.
        h.flush_requested();
        h.flush_requested();
        assert_eq!(h.evaluate(0).stale_epochs, 2);
        h.flush_completed();
        assert_eq!(h.evaluate(0).stale_epochs, 1);
        h.flush_unrequested();
        assert_eq!(h.evaluate(0).stale_epochs, 0);

        // The panic flag dominates any threshold.
        h.mark_panicked();
        let s = h.evaluate(0);
        assert!(s.degraded);
        assert!(!s.trainer_alive);
    }

    #[test]
    fn live_session_surfaces_healthy_watchdog_in_stats() {
        let serving =
            ServingSession::spawn(tiny_session(EpochPolicy::Manual), SessionSpec::new(64)).unwrap();
        assert_eq!(
            serving
                .ingest_with(&chain_events(6, 0), Admission::Shed)
                .unwrap(),
            6,
            "fast-fail accepts everything while the queue has room"
        );
        assert!(serving.flush().unwrap().stepped);
        let health = serving.stats().health.expect("health always surfaced");
        assert!(!health.degraded);
        assert!(health.trainer_alive);
        assert_eq!(health.stale_epochs, 0, "the flush completion was counted");
        assert_eq!(serving.stats().rebalance, None, "unsharded session");
        serving.shutdown();
    }

    /// An epoch as a reader saw it: its id and every probed row's bits.
    type ObservedEpoch = (u64, Vec<Option<Vec<u32>>>);

    /// One script — events, a policy-triggered commit, flushes, a stop
    /// with events still pending — driven through the one trainer loop;
    /// returns every epoch observed at a barrier (id + row bits) and
    /// every flush outcome.
    fn run_contract_script<T: Trainee>(
        trainee: T,
        flush_before_stop: bool,
    ) -> (Vec<ObservedEpoch>, Vec<FlushOutcome>) {
        let serving = ServingSession::spawn(trainee, SessionSpec::new(16)).unwrap();
        let observe = |serving: &ServingSession| {
            let epoch = serving.epoch();
            let rows = (0..12u32)
                .map(|n| {
                    let row = epoch.embedding.get(NodeId(n));
                    row.map(|v| v.iter().map(|x| x.to_bits()).collect())
                })
                .collect();
            (epoch.epoch, rows)
        };
        let mut epochs = vec![observe(&serving)];
        let mut outcomes = Vec::new();
        // Four events cross the EveryNEvents(4) boundary inside the
        // trainer; the flush behind them is a no-step barrier.
        serving.ingest(&chain_events(4, 0)).unwrap();
        outcomes.push(serving.flush().unwrap());
        epochs.push(observe(&serving));
        // Three more (below the policy boundary) commit by flush.
        let skips: Vec<GraphEvent> = (0..5)
            .map(|i| GraphEvent::add_edge(NodeId(i), NodeId(i + 2), 1))
            .collect();
        serving.ingest(&skips[..3]).unwrap();
        outcomes.push(serving.flush().unwrap());
        epochs.push(observe(&serving));
        // Two events are still pending when the stop arrives.
        serving.ingest(&skips[3..]).unwrap();
        if flush_before_stop {
            outcomes.push(serving.flush().unwrap());
        }
        serving.shutdown();
        epochs.push(observe(&serving));
        (epochs, outcomes)
    }

    #[test]
    fn one_trainer_loop_serves_both_trainees_bit_identically() {
        use glodyne_durable::{DurableConfig, FsyncPolicy};
        let policy = EpochPolicy::EveryNEvents(4);
        let dir = durable_dir("contract");
        let cfg = DurableConfig {
            fsync: FsyncPolicy::Off,
            ..DurableConfig::default()
        };
        let durable = DurableSession::create(&dir, tiny_session(policy), cfg).unwrap();
        let (mem_epochs, mem_outcomes) = run_contract_script(tiny_session(policy), false);
        let (dur_epochs, dur_outcomes) = run_contract_script(durable, false);

        assert_eq!(mem_outcomes, dur_outcomes, "identical flush outcomes");
        // (The first flush found the policy had already committed.)
        let steps: Vec<_> = mem_outcomes.iter().map(|o| (o.stepped, o.epoch)).collect();
        assert_eq!(steps, [(false, 1), (true, 2)]);
        // Every epoch published while serving is the same epoch, bit
        // for bit, whichever trainee the loop drove.
        assert_eq!(mem_epochs[..3], dur_epochs[..3]);
        assert_eq!(mem_epochs[2].0, 2);
        // A clean stop: nothing to finish in memory (the pending events
        // are dropped with the session), while the durable trainee's
        // finalize commits them — and that step is published by the
        // time `shutdown` returns.
        assert_eq!(mem_epochs[3], mem_epochs[2]);
        assert_eq!(dur_epochs[3].0, 3, "finalize step published");
        // It is the step an explicit flush would have run.
        let (flushed, _) = run_contract_script(tiny_session(policy), true);
        assert_eq!(dur_epochs[3], flushed[3]);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn ann_settings_validation() {
        assert!(AnnSettings::default().validate().is_ok());
        assert_eq!(ann_settings(0, 4).validate().unwrap_err().param(), "cells");
        assert_eq!(
            ann_settings(4, 0).validate().unwrap_err().param(),
            "default_nprobe"
        );
        // spawn enforces the same validation — degenerate settings
        // never reach a running trainer.
        match ServingSession::spawn(
            tiny_session(EpochPolicy::Manual),
            spec_with_ann(8, ann_settings(4, 0)),
        ) {
            Err(err) => assert_eq!(err.param(), "default_nprobe"),
            Ok(_) => panic!("degenerate AnnSettings must be rejected at spawn"),
        }
    }
}
