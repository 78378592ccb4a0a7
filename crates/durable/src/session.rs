//! [`DurableSession`]: an [`EmbedderSession`] whose ingested events are
//! WAL-logged before application and whose committed epochs are
//! periodically frozen into snapshots — the crash-recoverable serving
//! state of this crate.
//!
//! The pinned property is **bit-exactness**: recover a lineage after a
//! crash (or clean shutdown), and the session's committed state —
//! embedding rows, epoch count, graph — equals what an uninterrupted
//! session fed the same durable event prefix would hold. Events are
//! replayed through the *normal* [`EmbedderSession::apply`] path with
//! deterministic training, so recovery is not a special interpreter
//! that can drift from the live one.

use crate::snapshot::{
    list_snapshots, load_snapshot, prune_snapshots, write_snapshot, PAYLOAD_SESSION,
};
use crate::timing::{timed, DurableTiming};
use crate::wal::{replay_and_heal, FsyncPolicy, WalRecord, WalStats, WalWriter};
use bytes::Bytes;
use glodyne::{EmbedderSession, EpochPolicy, SessionCheckpoint};
use glodyne_embed::persist;
use glodyne_embed::traits::{CheckpointEmbedder, StepReport};
use glodyne_embed::Embedding;
use glodyne_graph::state::GraphEvent;
use glodyne_graph::NodeId;
use std::io;
use std::path::{Path, PathBuf};
use std::sync::Arc;

/// Durability knobs for one lineage (one data directory).
#[derive(Debug, Clone, Copy)]
pub struct DurableConfig {
    /// Rotate WAL segments once they cross this many bytes.
    pub segment_bytes: u64,
    /// When appends fsync; see [`FsyncPolicy`].
    pub fsync: FsyncPolicy,
    /// Snapshot after every `n` committed epochs (`0` = only on
    /// explicit [`DurableSession::snapshot`] / shutdown).
    pub snapshot_every: u64,
    /// Snapshot files retained after pruning (older ones are the
    /// corruption fallback, so keep at least 2).
    pub keep_snapshots: usize,
}

impl Default for DurableConfig {
    fn default() -> Self {
        DurableConfig {
            segment_bytes: 4 << 20,
            fsync: FsyncPolicy::EveryFlush,
            snapshot_every: 4,
            keep_snapshots: 2,
        }
    }
}

/// What [`DurableSession::recover`] found on disk.
#[derive(Debug, Clone)]
pub struct RecoveryReport {
    /// Sequence number of the snapshot resumed from, if any.
    pub snapshot_seq: Option<u64>,
    /// Committed epoch of that snapshot.
    pub snapshot_epoch: Option<u64>,
    /// WAL events replayed on top of the snapshot.
    pub replayed_events: u64,
    /// `false` when the WAL had a torn/corrupt tail (now healed).
    pub wal_clean: bool,
    /// Human-readable provenance for the serving `stats` op.
    pub recovered_from: String,
}

/// Live durability counters, surfaced through the serving `stats` op.
#[derive(Debug, Clone, Copy)]
pub struct DurabilityCounters {
    /// Live WAL segment files.
    pub wal_segments: u64,
    /// Bytes across live WAL segments.
    pub wal_bytes: u64,
    /// Committed epoch of the newest snapshot, if any.
    pub last_snapshot_epoch: Option<u64>,
    /// When the last fsync completed, if any.
    pub last_fsync: Option<std::time::Instant>,
    /// Highest WAL sequence number appended or recovered.
    pub last_seq: u64,
}

/// Serialise a checkpoint + its embedding into a snapshot payload.
///
/// Layout: `u64 epoch | u8 has_time | u64 time | u8 lcc_only |
/// u64 n_edges | n × (u32, u32) | u64 state_len | embedder state |
/// embedding (persist binary format, to end)`.
pub fn encode_session_payload(ckpt: &SessionCheckpoint, embedding: &Embedding) -> Vec<u8> {
    let mut out = Vec::with_capacity(64 + ckpt.edges.len() * 8 + ckpt.embedder_state.len());
    out.extend_from_slice(&ckpt.epoch.to_le_bytes());
    out.push(ckpt.current_time.is_some() as u8);
    out.extend_from_slice(&ckpt.current_time.unwrap_or(0).to_le_bytes());
    out.push(ckpt.lcc_only as u8);
    out.extend_from_slice(&(ckpt.edges.len() as u64).to_le_bytes());
    for &(a, b) in &ckpt.edges {
        out.extend_from_slice(&a.0.to_le_bytes());
        out.extend_from_slice(&b.0.to_le_bytes());
    }
    out.extend_from_slice(&(ckpt.embedder_state.len() as u64).to_le_bytes());
    out.extend_from_slice(&ckpt.embedder_state);
    out.extend_from_slice(persist::to_bytes(embedding).as_ref());
    out
}

struct PayloadReader<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> PayloadReader<'a> {
    fn take(&mut self, n: usize) -> io::Result<&'a [u8]> {
        let end = self
            .pos
            .checked_add(n)
            .filter(|&e| e <= self.bytes.len())
            .ok_or_else(|| {
                io::Error::new(io::ErrorKind::InvalidData, "session payload truncated")
            })?;
        let out = &self.bytes[self.pos..end];
        self.pos = end;
        Ok(out)
    }

    fn u8(&mut self) -> io::Result<u8> {
        Ok(self.take(1)?[0])
    }

    fn u32(&mut self) -> io::Result<u32> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }

    fn u64(&mut self) -> io::Result<u64> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }
}

/// Inverse of [`encode_session_payload`]. Corruption yields
/// `InvalidData` — never a panic (the container CRC makes this path
/// unreachable for disk bit-rot, but recovery still refuses to trust
/// lengths).
pub fn decode_session_payload(bytes: &[u8]) -> io::Result<(SessionCheckpoint, Embedding)> {
    let bad = |what: &str| io::Error::new(io::ErrorKind::InvalidData, what.to_string());
    let mut r = PayloadReader { bytes, pos: 0 };
    let epoch = r.u64()?;
    let has_time = r.u8()?;
    let time = r.u64()?;
    let current_time = match has_time {
        0 => None,
        1 => Some(time),
        _ => return Err(bad("bad time flag")),
    };
    let lcc_only = match r.u8()? {
        0 => false,
        1 => true,
        _ => return Err(bad("bad lcc flag")),
    };
    let n_edges = r.u64()?;
    if n_edges > (bytes.len() as u64) / 8 {
        return Err(bad("edge count exceeds payload"));
    }
    let mut edges = Vec::with_capacity(n_edges as usize);
    for _ in 0..n_edges {
        let a = NodeId(r.u32()?);
        let b = NodeId(r.u32()?);
        edges.push((a, b));
    }
    let state_len = r.u64()?;
    if state_len > bytes.len() as u64 {
        return Err(bad("embedder state exceeds payload"));
    }
    let embedder_state = r.take(state_len as usize)?.to_vec();
    let embedding = persist::from_bytes(Bytes::from(bytes[r.pos..].to_vec()))?;
    Ok((
        SessionCheckpoint {
            epoch,
            current_time,
            lcc_only,
            edges,
            embedder_state,
        },
        embedding,
    ))
}

/// An embedder session with a WAL + snapshot lineage under it.
pub struct DurableSession<E: CheckpointEmbedder> {
    session: EmbedderSession<E>,
    wal: WalWriter,
    dir: PathBuf,
    cfg: DurableConfig,
    last_seq: u64,
    last_snapshot_seq: Option<u64>,
    last_snapshot_epoch: Option<u64>,
    /// Provenance computed by [`DurableSession::recover`]; `None` on a
    /// lineage this process created or attached.
    recovered_from: Option<String>,
    timing: Option<Arc<DurableTiming>>,
}

impl<E: CheckpointEmbedder> DurableSession<E> {
    /// Start a fresh lineage in `dir` around an existing session. The
    /// session must be at a committed boundary (no pending events) —
    /// its current state is immediately frozen into the lineage's first
    /// snapshot, so warm-started state survives a crash that happens
    /// before the first periodic snapshot.
    pub fn create(dir: &Path, session: EmbedderSession<E>, cfg: DurableConfig) -> io::Result<Self> {
        if session.pending_events() != 0 {
            return Err(io::Error::new(
                io::ErrorKind::InvalidInput,
                "durable lineage must start at a committed boundary (flush first)",
            ));
        }
        let wal = WalWriter::open(dir, 1, cfg.segment_bytes, cfg.fsync)?;
        let mut durable = DurableSession {
            session,
            wal,
            dir: dir.to_path_buf(),
            cfg,
            last_seq: 0,
            last_snapshot_seq: None,
            last_snapshot_epoch: None,
            recovered_from: None,
            timing: None,
        };
        durable.snapshot()?;
        Ok(durable)
    }

    /// Wrap an already-restored session without writing an initial
    /// snapshot: the sharded recovery path resumes each shard from a
    /// barrier snapshot it has *already* loaded, then replays the
    /// authoritative router log through [`DurableSession::apply`] —
    /// which needs the WAL open at `last_seq + 1` first.
    /// `last_snapshot` is the `(seq, epoch)` of the snapshot the
    /// session was restored from, if any, so periodic snapshot gating
    /// and the duplicate-snapshot guard carry across the restart.
    pub fn attach(
        dir: &Path,
        session: EmbedderSession<E>,
        cfg: DurableConfig,
        last_seq: u64,
        last_snapshot: Option<(u64, u64)>,
    ) -> io::Result<Self> {
        let wal = WalWriter::open(dir, last_seq + 1, cfg.segment_bytes, cfg.fsync)?;
        Ok(DurableSession {
            session,
            wal,
            dir: dir.to_path_buf(),
            cfg,
            last_seq,
            last_snapshot_seq: last_snapshot.map(|(seq, _)| seq),
            last_snapshot_epoch: last_snapshot.map(|(_, epoch)| epoch),
            recovered_from: None,
            timing: None,
        })
    }

    /// Attach I/O timing sinks (WAL append/fsync, snapshot writes).
    pub fn set_timing(&mut self, timing: Arc<DurableTiming>) {
        self.wal.set_timing(Arc::clone(&timing));
        self.timing = Some(timing);
    }

    /// Recover a lineage from `dir`: load the newest valid session
    /// snapshot (falling back to older ones on container corruption
    /// *or* semantic resume failure), heal and replay the WAL suffix
    /// through the normal ingest path, and reopen the log for
    /// appending. With no usable snapshot the whole WAL replays into a
    /// fresh session (`keep_full` configures it, mirroring
    /// [`EmbedderSession::keep_full_graph`]).
    ///
    /// `make_embedder` must build an embedder with the *same
    /// configuration* the lineage was created with; it may be called
    /// once per snapshot candidate.
    pub fn recover(
        dir: &Path,
        cfg: DurableConfig,
        policy: EpochPolicy,
        keep_full: bool,
        make_embedder: impl Fn() -> E,
    ) -> io::Result<(Self, RecoveryReport)> {
        let mut resumed: Option<(EmbedderSession<E>, u64, u64)> = None;
        for (_, path) in list_snapshots(dir)?.into_iter().rev() {
            let Ok(snap) = load_snapshot(&path) else {
                continue;
            };
            if snap.kind != PAYLOAD_SESSION {
                continue;
            }
            let Ok((ckpt, embedding)) = decode_session_payload(&snap.payload) else {
                continue;
            };
            match EmbedderSession::resume(make_embedder(), policy, &ckpt, &embedding) {
                Ok(session) => {
                    resumed = Some((session, snap.seq, snap.epoch));
                    break;
                }
                Err(_) => continue,
            }
        }
        let (mut session, snapshot_seq, snapshot_epoch) = match resumed {
            Some((session, seq, epoch)) => (session, Some(seq), Some(epoch)),
            None => {
                let fresh = EmbedderSession::new(make_embedder(), policy)
                    .map_err(|e| io::Error::new(io::ErrorKind::InvalidInput, e.to_string()))?;
                let fresh = if keep_full {
                    fresh.keep_full_graph()
                } else {
                    fresh
                };
                (fresh, None, None)
            }
        };

        let replayed = replay_and_heal(dir)?;
        let floor = snapshot_seq.unwrap_or(0);
        let mut last_seq = floor;
        let mut replayed_events = 0u64;
        for (seq, record) in &replayed.records {
            if *seq <= floor {
                continue;
            }
            match record {
                WalRecord::Event(event) => {
                    session.apply(*event);
                    replayed_events += 1;
                }
                // Flush markers re-run the explicit epoch boundaries of
                // the original run, keeping replay bit-exact even when
                // epochs were committed by `flush` rather than policy.
                WalRecord::Flush => {
                    session.flush();
                }
            }
            last_seq = last_seq.max(*seq);
        }

        let wal = WalWriter::open(dir, last_seq + 1, cfg.segment_bytes, cfg.fsync)?;
        let recovered_from = match snapshot_seq {
            Some(seq) => format!(
                "snapshot seq {seq} (epoch {}) + {replayed_events} wal events",
                snapshot_epoch.unwrap_or(0)
            ),
            None => format!("wal replay only ({replayed_events} events)"),
        };
        let report = RecoveryReport {
            snapshot_seq,
            snapshot_epoch,
            replayed_events,
            wal_clean: replayed.clean,
            recovered_from,
        };
        Ok((
            DurableSession {
                session,
                wal,
                dir: dir.to_path_buf(),
                cfg,
                last_seq,
                last_snapshot_seq: snapshot_seq,
                last_snapshot_epoch: snapshot_epoch,
                recovered_from: Some(report.recovered_from.clone()),
                timing: None,
            },
            report,
        ))
    }

    /// Log one event to the WAL, then apply it to the session — the
    /// write-ahead ordering that makes every applied event recoverable.
    /// `seq` must be non-decreasing (sharded lineages legitimately
    /// repeat a client sequence across a routed frame group). Returns
    /// whether the event triggered an embedding step.
    pub fn apply(&mut self, seq: u64, event: GraphEvent) -> io::Result<bool> {
        debug_assert!(seq >= self.last_seq, "WAL sequence went backwards");
        self.wal.append(seq, &event)?;
        self.last_seq = self.last_seq.max(seq);
        Ok(self.session.apply(event))
    }

    /// Commit the pending epoch (if any) and fsync the WAL when the
    /// policy is [`FsyncPolicy::EveryFlush`]. The flush boundary is
    /// logged as a WAL marker first, so recovery replays the same
    /// apply/flush sequence the live session executed.
    pub fn flush(&mut self) -> io::Result<Option<StepReport>> {
        self.wal.append_flush(self.last_seq)?;
        let report = self.session.flush();
        if self.cfg.fsync == FsyncPolicy::EveryFlush {
            self.wal.sync()?;
        }
        Ok(report)
    }

    /// Snapshot iff the session sits at a committed boundary and
    /// `snapshot_every` epochs have passed since the last snapshot.
    /// Under `TimestampBoundary` a boundary-crossing event leaves one
    /// pending event after its flush, so periodic snapshots defer to
    /// the next explicit flush; clean shutdown always snapshots.
    pub fn maybe_snapshot(&mut self) -> io::Result<bool> {
        if self.cfg.snapshot_every == 0 || self.session.pending_events() != 0 {
            return Ok(false);
        }
        let epoch = self.session.steps() as u64;
        let base = self.last_snapshot_epoch.unwrap_or(0);
        if epoch.saturating_sub(base) < self.cfg.snapshot_every {
            return Ok(false);
        }
        self.snapshot()?;
        Ok(true)
    }

    /// Freeze the current committed state into `snapshot-<seq>.glo`,
    /// then prune WAL segments it covers and old snapshot files.
    /// Requires a committed boundary (no pending events).
    pub fn snapshot(&mut self) -> io::Result<()> {
        let ckpt = self.session.checkpoint().ok_or_else(|| {
            io::Error::new(
                io::ErrorKind::InvalidInput,
                "cannot snapshot with pending events (flush first)",
            )
        })?;
        if self.last_snapshot_seq == Some(self.last_seq)
            && self.last_snapshot_epoch == Some(ckpt.epoch)
        {
            return Ok(()); // already frozen at exactly this point
        }
        // Everything the snapshot covers must be durable in the log
        // first, so a crash between here and the rename loses nothing.
        self.wal.sync()?;
        timed(
            &self.timing,
            |t| &t.snapshot_write,
            || {
                let payload = encode_session_payload(&ckpt, self.session.embedding());
                write_snapshot(
                    &self.dir,
                    self.last_seq,
                    ckpt.epoch,
                    PAYLOAD_SESSION,
                    &payload,
                )
            },
        )?;
        prune_snapshots(&self.dir, self.cfg.keep_snapshots)?;
        // Retain WAL back to the *oldest* kept snapshot, not the one
        // just written: if the newest turns out corrupt at recovery,
        // the fallback snapshot still needs its replay suffix.
        let floor = list_snapshots(&self.dir)?
            .first()
            .map_or(self.last_seq, |&(seq, _)| seq);
        self.wal.prune_covered(floor)?;
        self.last_snapshot_seq = Some(self.last_seq);
        self.last_snapshot_epoch = Some(ckpt.epoch);
        Ok(())
    }

    /// [`DurableSession::snapshot`] stamped with an externally chosen
    /// sequence number `seq >= last_seq` — the sharded barrier
    /// checkpoint, where every lineage must freeze at the *same*
    /// client sequence even though each shard saw only its routed
    /// subset of events.
    pub fn snapshot_at(&mut self, seq: u64) -> io::Result<()> {
        debug_assert!(seq >= self.last_seq, "snapshot sequence went backwards");
        self.last_seq = self.last_seq.max(seq);
        self.snapshot()
    }

    /// Clean shutdown: flush the pending epoch, fsync the WAL, write a
    /// final snapshot. A restart from this directory replays zero
    /// events.
    pub fn finalize(&mut self) -> io::Result<()> {
        self.wal.append_flush(self.last_seq)?;
        self.session.flush();
        self.wal.sync()?;
        self.snapshot()
    }

    /// Crash-path shutdown: fsync the WAL and nothing else. A trainer
    /// that panicked mid-step cannot trust its in-memory session state
    /// enough to snapshot it, but every *accepted* event is already in
    /// the log — sealing makes that prefix durable so recovery replays
    /// it bit-exactly through the normal apply path.
    pub fn seal(&mut self) -> io::Result<()> {
        self.wal.sync()
    }

    /// The wrapped session.
    pub fn session(&self) -> &EmbedderSession<E> {
        &self.session
    }

    /// The wrapped session, mutably (queries, flush-side effects).
    pub fn session_mut(&mut self) -> &mut EmbedderSession<E> {
        &mut self.session
    }

    /// Highest WAL sequence number appended or recovered — seed for
    /// the ingest queue's sequence counter.
    pub fn last_seq(&self) -> u64 {
        self.last_seq
    }

    /// Where [`DurableSession::recover`] resumed this lineage from (the
    /// report's provenance string); `None` on a fresh lineage.
    pub fn recovered_from(&self) -> Option<&str> {
        self.recovered_from.as_deref()
    }

    /// The lineage's data directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// Live durability counters for the serving `stats` op.
    pub fn counters(&self) -> DurabilityCounters {
        let WalStats {
            segments,
            bytes,
            last_fsync,
        } = self.wal.stats();
        DurabilityCounters {
            wal_segments: segments,
            wal_bytes: bytes,
            last_snapshot_epoch: self.last_snapshot_epoch,
            last_fsync,
            last_seq: self.last_seq,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use glodyne::{GloDyNE, GloDyNEConfig};
    use glodyne_embed::walks::WalkConfig;
    use glodyne_embed::SgnsConfig;
    use std::fs;

    fn tiny_model() -> GloDyNE {
        GloDyNE::new(GloDyNEConfig {
            alpha: 0.5,
            walk: WalkConfig {
                walks_per_node: 2,
                walk_length: 8,
                seed: 3,
            },
            sgns: SgnsConfig {
                dim: 8,
                window: 2,
                negatives: 2,
                epochs: 1,
                parallel: false,
                ..Default::default()
            },
            ..Default::default()
        })
        .unwrap()
    }

    fn tmp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "glodyne-durable-{tag}-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn events(n: u32) -> Vec<GraphEvent> {
        (0..n)
            .map(|i| GraphEvent::add_edge(NodeId(i % 12), NodeId((i + 1) % 12), (i / 6) as u64))
            .collect()
    }

    fn assert_rows_bit_equal(a: &Embedding, b: &Embedding) {
        assert_eq!(a.len(), b.len());
        for ((ida, va), (idb, vb)) in a.iter().zip(b.iter()) {
            assert_eq!(ida, idb, "row order diverged");
            assert_eq!(va, vb, "row {ida} diverged");
        }
    }

    #[test]
    fn payload_codec_round_trips() {
        let mut s = EmbedderSession::new(tiny_model(), EpochPolicy::Manual).unwrap();
        for e in events(10) {
            s.apply(e);
        }
        s.flush().unwrap();
        let ckpt = s.checkpoint().unwrap();
        let payload = encode_session_payload(&ckpt, s.embedding());
        let (back, emb) = decode_session_payload(&payload).unwrap();
        assert_eq!(back, ckpt);
        assert_rows_bit_equal(&emb, s.embedding());
        // Truncations never panic and always error.
        for cut in 0..payload.len() {
            assert!(decode_session_payload(&payload[..cut]).is_err());
        }
    }

    #[test]
    fn crash_recovery_is_bit_exact_with_uninterrupted_run() {
        let dir = tmp_dir("bit-exact");
        let policy = EpochPolicy::EveryNEvents(5);
        let stream = events(43);

        // Uninterrupted reference over the full stream.
        let mut reference = EmbedderSession::new(tiny_model(), policy).unwrap();
        for e in &stream {
            reference.apply(*e);
        }

        // Durable run: snapshot every 2 epochs, then "crash" (drop
        // without finalize — the WAL is synced per policy).
        let cfg = DurableConfig {
            segment_bytes: 256,
            fsync: FsyncPolicy::EveryNEvents(1),
            snapshot_every: 2,
            keep_snapshots: 2,
        };
        let session = EmbedderSession::new(tiny_model(), policy).unwrap();
        let mut durable = DurableSession::create(&dir, session, cfg).unwrap();
        for (i, e) in stream.iter().enumerate() {
            if durable.apply(i as u64 + 1, *e).unwrap() {
                durable.maybe_snapshot().unwrap();
            }
        }
        assert!(durable.counters().last_snapshot_epoch.is_some());
        let snapshots = list_snapshots(&dir).unwrap().len();
        assert!(snapshots >= 1 && snapshots <= cfg.keep_snapshots);
        drop(durable);

        let (recovered, report) =
            DurableSession::recover(&dir, cfg, policy, false, tiny_model).unwrap();
        assert!(report.snapshot_seq.is_some(), "periodic snapshot was used");
        assert!(report.wal_clean);
        assert_eq!(recovered.last_seq(), stream.len() as u64);
        assert_eq!(recovered.session().steps(), reference.steps());
        assert_eq!(recovered.session().current_time(), reference.current_time());
        assert_eq!(recovered.session().graph(), reference.graph());
        assert_rows_bit_equal(recovered.session().embedding(), reference.embedding());
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn explicit_flush_boundaries_replay_bit_exact() {
        let dir = tmp_dir("flush-markers");
        let policy = EpochPolicy::Manual;
        let stream = events(20);
        // Reference: explicit flush every 7 events — epochs committed
        // by `flush`, not by policy, so only the WAL's flush markers
        // can make replay reproduce them.
        let mut reference = EmbedderSession::new(tiny_model(), policy).unwrap();
        for (i, e) in stream.iter().enumerate() {
            reference.apply(*e);
            if (i + 1) % 7 == 0 {
                reference.flush();
            }
        }
        assert!(reference.steps() > 0);

        let cfg = DurableConfig {
            snapshot_every: 0,
            fsync: FsyncPolicy::Off,
            ..DurableConfig::default()
        };
        let session = EmbedderSession::new(tiny_model(), policy).unwrap();
        let mut durable = DurableSession::create(&dir, session, cfg).unwrap();
        for (i, e) in stream.iter().enumerate() {
            durable.apply(i as u64 + 1, *e).unwrap();
            if (i + 1) % 7 == 0 {
                durable.flush().unwrap();
            }
        }
        drop(durable); // crash without finalize

        let (recovered, report) =
            DurableSession::recover(&dir, cfg, policy, false, tiny_model).unwrap();
        assert!(report.wal_clean);
        assert_eq!(recovered.session().steps(), reference.steps());
        assert_rows_bit_equal(recovered.session().embedding(), reference.embedding());
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn clean_shutdown_replays_nothing() {
        let dir = tmp_dir("clean");
        let policy = EpochPolicy::EveryNEvents(4);
        let cfg = DurableConfig::default();
        let session = EmbedderSession::new(tiny_model(), policy).unwrap();
        let mut durable = DurableSession::create(&dir, session, cfg).unwrap();
        for (i, e) in events(17).iter().enumerate() {
            durable.apply(i as u64 + 1, *e).unwrap();
        }
        durable.finalize().unwrap();
        let steps = durable.session().steps();
        let emb = durable.session().embedding().clone();
        drop(durable);

        let (recovered, report) =
            DurableSession::recover(&dir, cfg, policy, false, tiny_model).unwrap();
        assert_eq!(report.replayed_events, 0, "final snapshot covers the log");
        assert_eq!(recovered.session().steps(), steps);
        assert_rows_bit_equal(recovered.session().embedding(), &emb);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn empty_dir_recovers_to_fresh_session() {
        let dir = tmp_dir("fresh");
        let cfg = DurableConfig::default();
        let (recovered, report) =
            DurableSession::recover(&dir, cfg, EpochPolicy::Manual, true, tiny_model).unwrap();
        assert!(report.snapshot_seq.is_none());
        assert_eq!(report.replayed_events, 0);
        assert_eq!(recovered.session().steps(), 0);
        assert_eq!(recovered.last_seq(), 0);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn create_rejects_pending_events() {
        let dir = tmp_dir("pending");
        let mut session = EmbedderSession::new(tiny_model(), EpochPolicy::Manual).unwrap();
        session.apply(GraphEvent::add_edge(NodeId(0), NodeId(1), 0));
        let err = match DurableSession::create(&dir, session, DurableConfig::default()) {
            Err(err) => err,
            Ok(_) => panic!("pending events must be rejected"),
        };
        assert_eq!(err.kind(), io::ErrorKind::InvalidInput);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn snapshot_prunes_covered_wal_segments() {
        let dir = tmp_dir("prune-wal");
        let policy = EpochPolicy::EveryNEvents(3);
        let cfg = DurableConfig {
            segment_bytes: 64,
            fsync: FsyncPolicy::Off,
            snapshot_every: 1,
            keep_snapshots: 2,
        };
        let session = EmbedderSession::new(tiny_model(), policy).unwrap();
        let mut durable = DurableSession::create(&dir, session, cfg).unwrap();
        // Every edge distinct, so every event is effective and steps
        // (hence snapshots) keep landing through the whole stream.
        for i in 0..30u32 {
            let e = GraphEvent::add_edge(NodeId(i), NodeId(i + 1), 0);
            if durable.apply(i as u64 + 1, e).unwrap() {
                durable.maybe_snapshot().unwrap();
            }
        }
        // Tiny segments + snapshot-per-epoch: pruning must keep the
        // live segment count far below the total ever created.
        assert!(durable.counters().wal_segments < 8);
        let _ = fs::remove_dir_all(&dir);
    }
}
