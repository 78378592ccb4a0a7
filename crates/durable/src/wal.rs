//! The segmented write-ahead log of ingested [`GraphEvent`]s.
//!
//! Layout: a data directory holds `wal-<base-seq>.seg` files. Each
//! segment starts with a 16-byte header (magic `GDWL`, format version,
//! the sequence number of its first frame) followed by length-prefixed
//! frames:
//!
//! ```text
//! u32 body_len | body | u32 crc32(body)
//! body = u64 seq | u8 kind | u64 time | event operands
//! ```
//!
//! Frames carry graph events (kinds 1–3) or a *flush marker* (kind 4):
//! the record of an explicit epoch flush. Markers make recovery replay
//! the exact apply/flush sequence the live session executed — without
//! them, epochs committed by explicit flushes (rather than by policy)
//! would not recur on replay and the recovered embedding would drift
//! from the pre-crash state.
//!
//! The writer appends on the trainer thread, rotating to a new segment
//! once the current one crosses the size threshold, and fsyncs
//! according to a [`FsyncPolicy`]. The reader replays a whole directory
//! and honours the same corruption contract the persist layer pins: an
//! arbitrarily truncated or corrupted tail yields the longest valid
//! prefix of events — never a panic. [`replay_and_heal`] additionally
//! truncates the torn tail so the lineage can continue appending.

use crate::crc::crc32;
use crate::timing::{timed, DurableTiming};
use glodyne_graph::state::{GraphEvent, GraphEventKind};
use glodyne_graph::NodeId;
use std::fs::{self, File, OpenOptions};
use std::io::{self, Read, Write};
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Instant;

/// Magic bytes opening every WAL segment.
pub const SEGMENT_MAGIC: &[u8; 4] = b"GDWL";
/// WAL segment format version.
pub const SEGMENT_VERSION: u32 = 1;
/// Bytes of a segment header: magic, version, base sequence number.
const HEADER_BYTES: usize = 16;
/// Upper bound on a frame body — far above any real event frame;
/// protects the reader from allocating garbage lengths.
const MAX_BODY_BYTES: u32 = 1 << 16;

/// When the WAL writer calls `fsync`.
///
/// Trade-off: `EveryNEvents(1)` bounds loss to zero events at ~one
/// disk flush per ingested event; `EveryFlush` bounds loss to the
/// current epoch's uncommitted tail; `Off` leaves flushing to the OS
/// (crash loss up to the page-cache horizon). Rotation, snapshots, and
/// shutdown always sync regardless of policy.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FsyncPolicy {
    /// Sync after every `n` appended events.
    EveryNEvents(u64),
    /// Sync only at epoch flushes (and rotations/snapshots/shutdown).
    EveryFlush,
    /// Never sync explicitly.
    Off,
}

impl FsyncPolicy {
    /// Parse the CLI spelling: `off`, `flush`, or `every:<n>`.
    pub fn parse(s: &str) -> Result<Self, String> {
        match s {
            "off" => Ok(FsyncPolicy::Off),
            "flush" | "every-flush" => Ok(FsyncPolicy::EveryFlush),
            _ => {
                let n = s
                    .strip_prefix("every:")
                    .and_then(|n| n.parse::<u64>().ok())
                    .filter(|&n| n >= 1)
                    .ok_or_else(|| {
                        format!("invalid fsync policy '{s}' (expected off, flush, or every:<n>)")
                    })?;
                Ok(FsyncPolicy::EveryNEvents(n))
            }
        }
    }
}

impl std::fmt::Display for FsyncPolicy {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FsyncPolicy::EveryNEvents(n) => write!(f, "every:{n}"),
            FsyncPolicy::EveryFlush => write!(f, "flush"),
            FsyncPolicy::Off => write!(f, "off"),
        }
    }
}

/// One decoded WAL frame: an ingested event or a flush boundary.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WalRecord {
    /// A graph event ingested at this sequence number.
    Event(GraphEvent),
    /// An explicit epoch flush (carries the sequence number of the
    /// last event it committed).
    Flush,
}

fn finish_frame(body: Vec<u8>) -> Vec<u8> {
    let mut frame = Vec::with_capacity(8 + body.len());
    frame.extend_from_slice(&(body.len() as u32).to_le_bytes());
    frame.extend_from_slice(&body);
    frame.extend_from_slice(&crc32(&body).to_le_bytes());
    frame
}

/// Serialise one event frame (length prefix + body + CRC).
pub fn encode_frame(seq: u64, event: &GraphEvent) -> Vec<u8> {
    let mut body = Vec::with_capacity(25);
    body.extend_from_slice(&seq.to_le_bytes());
    match event.kind {
        GraphEventKind::AddEdge(e) => {
            body.push(1);
            body.extend_from_slice(&event.time.to_le_bytes());
            body.extend_from_slice(&e.u.0.to_le_bytes());
            body.extend_from_slice(&e.v.0.to_le_bytes());
        }
        GraphEventKind::RemoveEdge(e) => {
            body.push(2);
            body.extend_from_slice(&event.time.to_le_bytes());
            body.extend_from_slice(&e.u.0.to_le_bytes());
            body.extend_from_slice(&e.v.0.to_le_bytes());
        }
        GraphEventKind::RemoveNode(n) => {
            body.push(3);
            body.extend_from_slice(&event.time.to_le_bytes());
            body.extend_from_slice(&n.0.to_le_bytes());
        }
    }
    finish_frame(body)
}

/// Serialise one flush-marker frame.
pub fn encode_flush_frame(seq: u64) -> Vec<u8> {
    let mut body = Vec::with_capacity(17);
    body.extend_from_slice(&seq.to_le_bytes());
    body.push(4);
    body.extend_from_slice(&0u64.to_le_bytes());
    finish_frame(body)
}

/// Parse one frame body back into `(seq, record)`; `None` on any shape
/// violation (unknown kind, wrong operand length).
fn decode_body(body: &[u8]) -> Option<(u64, WalRecord)> {
    if body.len() < 17 {
        return None;
    }
    let seq = u64::from_le_bytes(body[0..8].try_into().ok()?);
    let kind = body[8];
    let time = u64::from_le_bytes(body[9..17].try_into().ok()?);
    let rest = &body[17..];
    let record = match kind {
        1 | 2 if rest.len() == 8 => {
            let a = NodeId(u32::from_le_bytes(rest[0..4].try_into().ok()?));
            let b = NodeId(u32::from_le_bytes(rest[4..8].try_into().ok()?));
            WalRecord::Event(if kind == 1 {
                GraphEvent::add_edge(a, b, time)
            } else {
                GraphEvent::remove_edge(a, b, time)
            })
        }
        3 if rest.len() == 4 => {
            let n = NodeId(u32::from_le_bytes(rest[0..4].try_into().ok()?));
            WalRecord::Event(GraphEvent::remove_node(n, time))
        }
        4 if rest.is_empty() => WalRecord::Flush,
        _ => return None,
    };
    Some((seq, record))
}

fn segment_name(base_seq: u64) -> String {
    format!("wal-{base_seq:020}.seg")
}

/// All `wal-*.seg` files in `dir`, sorted by base sequence number.
pub fn list_segments(dir: &Path) -> io::Result<Vec<(u64, PathBuf)>> {
    let mut out = Vec::new();
    let entries = match fs::read_dir(dir) {
        Ok(e) => e,
        Err(err) if err.kind() == io::ErrorKind::NotFound => return Ok(out),
        Err(err) => return Err(err),
    };
    for entry in entries {
        let entry = entry?;
        let name = entry.file_name();
        let Some(name) = name.to_str() else { continue };
        if let Some(base) = name
            .strip_prefix("wal-")
            .and_then(|s| s.strip_suffix(".seg"))
            .and_then(|s| s.parse::<u64>().ok())
        {
            out.push((base, entry.path()));
        }
    }
    out.sort_unstable_by_key(|&(base, _)| base);
    Ok(out)
}

/// Writer-side statistics, surfaced through the serving `stats` op.
#[derive(Debug, Clone, Copy)]
pub struct WalStats {
    /// Live segment files (including the one being appended to).
    pub segments: u64,
    /// Total bytes across live segments.
    pub bytes: u64,
    /// When the last explicit fsync completed, if any.
    pub last_fsync: Option<Instant>,
}

/// Appends events to the current tail segment of a WAL directory.
pub struct WalWriter {
    dir: PathBuf,
    fsync: FsyncPolicy,
    segment_bytes: u64,
    file: File,
    current_len: u64,
    /// Bytes across all live segments including the current one.
    total_bytes: u64,
    segments: u64,
    since_sync: u64,
    last_fsync: Option<Instant>,
    timing: Option<Arc<DurableTiming>>,
}

impl WalWriter {
    /// Open a fresh tail segment whose first frame will carry
    /// `next_seq`. Existing segments in `dir` are left in place and
    /// counted into the stats; appends never touch them (recovery
    /// heals torn tails *before* reopening a writer).
    pub fn open(
        dir: &Path,
        next_seq: u64,
        segment_bytes: u64,
        fsync: FsyncPolicy,
    ) -> io::Result<Self> {
        fs::create_dir_all(dir)?;
        let existing = list_segments(dir)?;
        let mut total_bytes = 0u64;
        for (_, path) in &existing {
            total_bytes += fs::metadata(path)?.len();
        }
        let path = dir.join(segment_name(next_seq));
        let mut file = OpenOptions::new()
            .create(true)
            .truncate(true)
            .write(true)
            .open(&path)?;
        let mut header = Vec::with_capacity(HEADER_BYTES);
        header.extend_from_slice(SEGMENT_MAGIC);
        header.extend_from_slice(&SEGMENT_VERSION.to_le_bytes());
        header.extend_from_slice(&next_seq.to_le_bytes());
        file.write_all(&header)?;
        Ok(WalWriter {
            dir: dir.to_path_buf(),
            fsync,
            segment_bytes: segment_bytes.max(HEADER_BYTES as u64 + 1),
            file,
            current_len: HEADER_BYTES as u64,
            total_bytes: total_bytes + HEADER_BYTES as u64,
            segments: existing.len() as u64 + 1,
            since_sync: 0,
            last_fsync: None,
            timing: None,
        })
    }

    /// Attach I/O timing sinks: from now on every append and fsync
    /// records its wall time.
    pub fn set_timing(&mut self, timing: Arc<DurableTiming>) {
        self.timing = Some(timing);
    }

    /// Append one event frame; rotates to a new segment first when the
    /// current one has crossed the size threshold. Returns whether this
    /// append performed an fsync.
    pub fn append(&mut self, seq: u64, event: &GraphEvent) -> io::Result<bool> {
        self.append_frame(seq, encode_frame(seq, event))?;
        let mut synced = false;
        if let FsyncPolicy::EveryNEvents(n) = self.fsync {
            self.since_sync += 1;
            if self.since_sync >= n {
                self.sync()?;
                synced = true;
            }
        }
        Ok(synced)
    }

    /// Append one flush-marker frame, recording that the session
    /// committed an epoch at this point in the log. Markers do not
    /// count toward the `EveryNEvents` fsync budget (the flush path
    /// syncs explicitly when its policy says so).
    pub fn append_flush(&mut self, seq: u64) -> io::Result<()> {
        self.append_frame(seq, encode_flush_frame(seq))
    }

    fn append_frame(&mut self, seq: u64, frame: Vec<u8>) -> io::Result<()> {
        glodyne_chaos::fail_io(glodyne_chaos::sites::WAL_APPEND)?;
        if self.current_len >= self.segment_bytes {
            self.rotate(seq)?;
        }
        let timing = self.timing.clone();
        timed(&timing, |t| &t.wal_append, || self.file.write_all(&frame))?;
        self.current_len += frame.len() as u64;
        self.total_bytes += frame.len() as u64;
        Ok(())
    }

    /// Seal the current segment (fsync it) and start a new one whose
    /// first frame will carry `next_seq`.
    fn rotate(&mut self, next_seq: u64) -> io::Result<()> {
        self.sync()?;
        let path = self.dir.join(segment_name(next_seq));
        let mut file = OpenOptions::new()
            .create(true)
            .truncate(true)
            .write(true)
            .open(&path)?;
        let mut header = Vec::with_capacity(HEADER_BYTES);
        header.extend_from_slice(SEGMENT_MAGIC);
        header.extend_from_slice(&SEGMENT_VERSION.to_le_bytes());
        header.extend_from_slice(&next_seq.to_le_bytes());
        file.write_all(&header)?;
        self.file = file;
        self.current_len = HEADER_BYTES as u64;
        self.total_bytes += HEADER_BYTES as u64;
        self.segments += 1;
        Ok(())
    }

    /// Force an fsync of the current segment now (epoch flushes,
    /// snapshots, shutdown — regardless of policy, except that `Off`
    /// honours explicit calls too: they are barriers, not policy).
    pub fn sync(&mut self) -> io::Result<()> {
        glodyne_chaos::fail_io(glodyne_chaos::sites::WAL_FSYNC)?;
        timed(&self.timing, |t| &t.wal_fsync, || self.file.sync_data())?;
        self.since_sync = 0;
        self.last_fsync = Some(Instant::now());
        Ok(())
    }

    /// Delete segments wholly covered by a snapshot at `upto_seq`: a
    /// segment is covered when the *next* segment's base shows every
    /// frame in it has `seq <= upto_seq`. The tail segment is never
    /// deleted.
    pub fn prune_covered(&mut self, upto_seq: u64) -> io::Result<()> {
        let segments = list_segments(&self.dir)?;
        for window in segments.windows(2) {
            let (_, ref path) = window[0];
            let (next_base, _) = window[1];
            if next_base <= upto_seq.saturating_add(1) {
                let len = fs::metadata(path)?.len();
                fs::remove_file(path)?;
                self.total_bytes = self.total_bytes.saturating_sub(len);
                self.segments = self.segments.saturating_sub(1);
            } else {
                break;
            }
        }
        Ok(())
    }

    /// Current writer statistics.
    pub fn stats(&self) -> WalStats {
        WalStats {
            segments: self.segments,
            bytes: self.total_bytes,
            last_fsync: self.last_fsync,
        }
    }
}

/// The result of replaying a WAL directory.
#[derive(Debug)]
pub struct ReplayedWal {
    /// `(seq, record)` frames in log order — the longest valid prefix.
    pub records: Vec<(u64, WalRecord)>,
    /// `false` when a truncated or corrupted frame cut the replay
    /// short of the physical end of the log.
    pub clean: bool,
}

/// Replay every segment of `dir` in base-seq order, stopping at the
/// first truncated or corrupted frame. Read-only and panic-free on
/// arbitrary input.
pub fn replay(dir: &Path) -> io::Result<ReplayedWal> {
    replay_inner(dir, false)
}

/// [`replay`], plus healing: the torn frame (and everything after it)
/// is physically removed — the bad segment is truncated to its valid
/// prefix and any later segments are deleted — so a writer reopened on
/// this directory appends after the longest valid prefix.
pub fn replay_and_heal(dir: &Path) -> io::Result<ReplayedWal> {
    replay_inner(dir, true)
}

fn replay_inner(dir: &Path, heal: bool) -> io::Result<ReplayedWal> {
    let segments = list_segments(dir)?;
    let mut records = Vec::new();
    for (idx, (_, path)) in segments.iter().enumerate() {
        let mut bytes = Vec::new();
        File::open(path)?.read_to_end(&mut bytes)?;
        let (parsed, valid_end) = parse_segment(&bytes);
        records.extend(parsed);
        if valid_end == bytes.len() {
            continue;
        }
        // Torn or corrupt tail: everything past it is unreachable by
        // the longest-valid-prefix contract.
        if heal {
            if valid_end == 0 {
                fs::remove_file(path)?;
            } else {
                OpenOptions::new()
                    .write(true)
                    .open(path)?
                    .set_len(valid_end as u64)?;
            }
            for (_, later) in &segments[idx + 1..] {
                fs::remove_file(later)?;
            }
        }
        return Ok(ReplayedWal {
            records,
            clean: false,
        });
    }
    Ok(ReplayedWal {
        records,
        clean: true,
    })
}

/// Parse one segment's bytes: the decoded frames of the valid prefix
/// and the byte offset where that prefix ends (`bytes.len()` when the
/// whole segment is valid; `0` when even the header is bad).
fn parse_segment(bytes: &[u8]) -> (Vec<(u64, WalRecord)>, usize) {
    if bytes.len() < HEADER_BYTES
        || &bytes[0..4] != SEGMENT_MAGIC
        || u32::from_le_bytes(bytes[4..8].try_into().unwrap()) != SEGMENT_VERSION
    {
        return (Vec::new(), 0);
    }
    let mut records = Vec::new();
    let mut pos = HEADER_BYTES;
    loop {
        if pos == bytes.len() {
            return (records, pos); // clean end
        }
        let Some(len_bytes) = bytes.get(pos..pos + 4) else {
            return (records, pos);
        };
        let body_len = u32::from_le_bytes(len_bytes.try_into().unwrap());
        if body_len > MAX_BODY_BYTES {
            return (records, pos);
        }
        let body_end = pos + 4 + body_len as usize;
        let Some(body) = bytes.get(pos + 4..body_end) else {
            return (records, pos);
        };
        let Some(crc_bytes) = bytes.get(body_end..body_end + 4) else {
            return (records, pos);
        };
        if u32::from_le_bytes(crc_bytes.try_into().unwrap()) != crc32(body) {
            return (records, pos);
        }
        let Some(frame) = decode_body(body) else {
            return (records, pos);
        };
        records.push(frame);
        pos = body_end + 4;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "glodyne-wal-{tag}-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn sample_events(n: u64) -> Vec<GraphEvent> {
        (0..n)
            .map(|i| match i % 3 {
                0 => GraphEvent::add_edge(NodeId(i as u32), NodeId(i as u32 + 1), i),
                1 => GraphEvent::remove_edge(NodeId(i as u32), NodeId(i as u32 + 2), i),
                _ => GraphEvent::remove_node(NodeId(i as u32), i),
            })
            .collect()
    }

    /// Just the event frames of a replay, in log order.
    fn replayed_events(r: &ReplayedWal) -> Vec<(u64, GraphEvent)> {
        r.records
            .iter()
            .filter_map(|&(seq, rec)| match rec {
                WalRecord::Event(e) => Some((seq, e)),
                WalRecord::Flush => None,
            })
            .collect()
    }

    #[test]
    fn fsync_policy_parses_and_displays() {
        assert_eq!(FsyncPolicy::parse("off").unwrap(), FsyncPolicy::Off);
        assert_eq!(
            FsyncPolicy::parse("flush").unwrap(),
            FsyncPolicy::EveryFlush
        );
        assert_eq!(
            FsyncPolicy::parse("every:8").unwrap(),
            FsyncPolicy::EveryNEvents(8)
        );
        assert!(FsyncPolicy::parse("every:0").is_err());
        assert!(FsyncPolicy::parse("sometimes").is_err());
        assert_eq!(FsyncPolicy::EveryNEvents(3).to_string(), "every:3");
    }

    #[test]
    fn append_replay_round_trip() {
        let dir = tmp_dir("round-trip");
        let events = sample_events(50);
        let mut w = WalWriter::open(&dir, 1, 1 << 20, FsyncPolicy::EveryFlush).unwrap();
        for (i, e) in events.iter().enumerate() {
            w.append(i as u64 + 1, e).unwrap();
        }
        w.sync().unwrap();
        let replayed = replay(&dir).unwrap();
        assert!(replayed.clean);
        let got = replayed_events(&replayed);
        assert_eq!(got.len(), events.len());
        for (i, (seq, event)) in got.iter().enumerate() {
            assert_eq!(*seq, i as u64 + 1);
            assert_eq!(event, &events[i]);
        }
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn flush_markers_replay_in_log_order() {
        let dir = tmp_dir("markers");
        let events = sample_events(6);
        let mut w = WalWriter::open(&dir, 1, 1 << 20, FsyncPolicy::Off).unwrap();
        for (i, e) in events.iter().enumerate() {
            w.append(i as u64 + 1, e).unwrap();
            if (i + 1) % 3 == 0 {
                w.append_flush(i as u64 + 1).unwrap();
            }
        }
        w.sync().unwrap();
        let replayed = replay(&dir).unwrap();
        assert!(replayed.clean);
        assert_eq!(replayed.records.len(), 8);
        assert_eq!(replayed.records[3], (3, WalRecord::Flush));
        assert_eq!(replayed.records[7], (6, WalRecord::Flush));
        assert_eq!(replayed_events(&replayed).len(), events.len());
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn rotation_spreads_frames_across_segments() {
        let dir = tmp_dir("rotate");
        // Tiny threshold: every frame lands in its own segment.
        let mut w = WalWriter::open(&dir, 1, 32, FsyncPolicy::Off).unwrap();
        for (i, e) in sample_events(10).iter().enumerate() {
            w.append(i as u64 + 1, e).unwrap();
        }
        assert!(w.stats().segments > 3, "threshold 32B must force rotation");
        assert_eq!(
            list_segments(&dir).unwrap().len() as u64,
            w.stats().segments
        );
        let replayed = replay(&dir).unwrap();
        assert!(replayed.clean);
        assert_eq!(replayed.records.len(), 10);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn prune_covered_deletes_only_fully_covered_segments() {
        let dir = tmp_dir("prune");
        let mut w = WalWriter::open(&dir, 1, 32, FsyncPolicy::Off).unwrap();
        for (i, e) in sample_events(10).iter().enumerate() {
            w.append(i as u64 + 1, e).unwrap();
        }
        w.sync().unwrap();
        let before = list_segments(&dir).unwrap().len();
        w.prune_covered(5).unwrap();
        let after = list_segments(&dir).unwrap();
        assert!(after.len() < before);
        // Every surviving frame beyond the snapshot point is intact.
        let replayed = replay(&dir).unwrap();
        assert!(replayed.records.iter().any(|&(seq, _)| seq == 6));
        assert!(replayed.records.iter().all(|&(seq, _)| seq <= 10));
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn truncated_tail_yields_longest_valid_prefix() {
        let dir = tmp_dir("truncate");
        let events = sample_events(20);
        let mut w = WalWriter::open(&dir, 1, 1 << 20, FsyncPolicy::Off).unwrap();
        for (i, e) in events.iter().enumerate() {
            w.append(i as u64 + 1, e).unwrap();
        }
        w.sync().unwrap();
        let (_, path) = list_segments(&dir).unwrap().pop().unwrap();
        let full = fs::metadata(&path).unwrap().len();
        // Cut mid-frame at every byte offset: replay must never panic
        // and always return a prefix.
        for cut in (HEADER_BYTES as u64..full).step_by(7) {
            OpenOptions::new()
                .write(true)
                .open(&path)
                .unwrap()
                .set_len(cut)
                .unwrap();
            let replayed = replay(&dir).unwrap();
            let got = replayed_events(&replayed);
            assert!(got.len() <= events.len());
            for (i, (seq, event)) in got.iter().enumerate() {
                assert_eq!(*seq, i as u64 + 1);
                assert_eq!(event, &events[i]);
            }
        }
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn heal_truncates_and_new_writer_continues() {
        let dir = tmp_dir("heal");
        let events = sample_events(12);
        let mut w = WalWriter::open(&dir, 1, 1 << 20, FsyncPolicy::Off).unwrap();
        for (i, e) in events.iter().enumerate() {
            w.append(i as u64 + 1, e).unwrap();
        }
        w.sync().unwrap();
        drop(w);
        // Corrupt a byte two frames from the end.
        let (_, path) = list_segments(&dir).unwrap().pop().unwrap();
        let mut bytes = fs::read(&path).unwrap();
        let hit = bytes.len() - 40;
        bytes[hit] ^= 0xFF;
        fs::write(&path, &bytes).unwrap();

        let healed = replay_and_heal(&dir).unwrap();
        assert!(!healed.clean);
        let kept = healed.records.len();
        assert!(kept < events.len());
        // A fresh writer continues after the healed prefix; replay sees
        // the old prefix plus the new frames.
        let next = kept as u64 + 1;
        let mut w = WalWriter::open(&dir, next, 1 << 20, FsyncPolicy::Off).unwrap();
        w.append(next, &GraphEvent::add_edge(NodeId(100), NodeId(101), 99))
            .unwrap();
        w.sync().unwrap();
        let replayed = replay(&dir).unwrap();
        assert!(replayed.clean);
        assert_eq!(replayed.records.len(), kept + 1);
        assert_eq!(replayed.records.last().unwrap().0, next);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn garbage_segment_is_ignored_without_panic() {
        let dir = tmp_dir("garbage");
        fs::write(dir.join("wal-00000000000000000001.seg"), b"not a wal").unwrap();
        let replayed = replay(&dir).unwrap();
        assert!(replayed.records.is_empty());
        assert!(!replayed.clean);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn missing_dir_replays_empty() {
        let dir = std::env::temp_dir().join("glodyne-wal-definitely-missing");
        let _ = fs::remove_dir_all(&dir);
        let replayed = replay(&dir).unwrap();
        assert!(replayed.records.is_empty());
        assert!(replayed.clean);
    }
}
