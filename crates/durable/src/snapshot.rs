//! Epoch snapshot containers.
//!
//! A snapshot file `snapshot-<seq>.glo` freezes committed state as of
//! WAL sequence number `seq`:
//!
//! ```text
//! magic "GDSS" | u32 version | u64 seq | u64 epoch | u32 payload_kind
//!             | u64 payload_len | payload | u32 crc32(all prior bytes)
//! ```
//!
//! `payload_kind` selects the decoder. The one kind written is
//! [`PAYLOAD_SESSION`], a serialised `SessionCheckpoint` + embedding;
//! loaders skip a file of any other kind.
//!
//! Writes are atomic: the container is written to a temp file, fsynced,
//! then renamed into place, and the directory is fsynced. A crash
//! mid-snapshot leaves either the previous set of snapshots or the new
//! one — never a half-written visible file. Loads verify magic,
//! version, CRC, and exact length; corruption yields `InvalidData`, and
//! [`load_newest_valid`] falls back to older snapshots.

use crate::crc::crc32;
use std::fs::{self, File, OpenOptions};
use std::io::{self, Read, Write};
use std::path::{Path, PathBuf};

/// Magic bytes opening every snapshot container.
pub const SNAPSHOT_MAGIC: &[u8; 4] = b"GDSS";
/// Snapshot container format version.
pub const SNAPSHOT_VERSION: u32 = 1;
/// Payload: a session checkpoint (graph + embedder state + embedding).
pub const PAYLOAD_SESSION: u32 = 1;

const HEADER_BYTES: usize = 36; // magic + version + seq + epoch + kind + len

/// A decoded, integrity-checked snapshot container.
#[derive(Debug, Clone)]
pub struct SnapshotFile {
    /// WAL sequence number this snapshot covers (replay resumes after).
    pub seq: u64,
    /// Committed epoch at snapshot time.
    pub epoch: u64,
    /// Payload discriminator ([`PAYLOAD_SESSION`]).
    pub kind: u32,
    /// Opaque payload bytes.
    pub payload: Vec<u8>,
    /// The file this snapshot was loaded from.
    pub path: PathBuf,
}

fn snapshot_name(seq: u64) -> String {
    format!("snapshot-{seq:020}.glo")
}

/// All `snapshot-*.glo` files in `dir`, sorted ascending by sequence.
pub fn list_snapshots(dir: &Path) -> io::Result<Vec<(u64, PathBuf)>> {
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
        if let Some(seq) = name
            .strip_prefix("snapshot-")
            .and_then(|s| s.strip_suffix(".glo"))
            .and_then(|s| s.parse::<u64>().ok())
        {
            out.push((seq, entry.path()));
        }
    }
    out.sort_unstable_by_key(|&(seq, _)| seq);
    Ok(out)
}

/// Atomically write a snapshot container; returns its final path.
pub fn write_snapshot(
    dir: &Path,
    seq: u64,
    epoch: u64,
    kind: u32,
    payload: &[u8],
) -> io::Result<PathBuf> {
    glodyne_chaos::fail_io(glodyne_chaos::sites::SNAPSHOT_WRITE)?;
    fs::create_dir_all(dir)?;
    let mut bytes = Vec::with_capacity(HEADER_BYTES + payload.len() + 4);
    bytes.extend_from_slice(SNAPSHOT_MAGIC);
    bytes.extend_from_slice(&SNAPSHOT_VERSION.to_le_bytes());
    bytes.extend_from_slice(&seq.to_le_bytes());
    bytes.extend_from_slice(&epoch.to_le_bytes());
    bytes.extend_from_slice(&kind.to_le_bytes());
    bytes.extend_from_slice(&(payload.len() as u64).to_le_bytes());
    bytes.extend_from_slice(payload);
    let crc = crc32(&bytes);
    bytes.extend_from_slice(&crc.to_le_bytes());

    let final_path = dir.join(snapshot_name(seq));
    let tmp_path = dir.join(format!(".{}.tmp", snapshot_name(seq)));
    {
        let mut tmp = OpenOptions::new()
            .create(true)
            .truncate(true)
            .write(true)
            .open(&tmp_path)?;
        tmp.write_all(&bytes)?;
        tmp.sync_data()?;
    }
    fs::rename(&tmp_path, &final_path)?;
    // Make the rename itself durable.
    if let Ok(d) = File::open(dir) {
        let _ = d.sync_all();
    }
    Ok(final_path)
}

/// Load and verify one snapshot container. Any truncation, bit flip,
/// or shape violation yields `InvalidData` — never a panic.
pub fn load_snapshot(path: &Path) -> io::Result<SnapshotFile> {
    let bad = |what: &str| io::Error::new(io::ErrorKind::InvalidData, what.to_string());
    let mut bytes = Vec::new();
    File::open(path)?.read_to_end(&mut bytes)?;
    if bytes.len() < HEADER_BYTES + 4 {
        return Err(bad("snapshot truncated"));
    }
    if &bytes[0..4] != SNAPSHOT_MAGIC {
        return Err(bad("bad snapshot magic"));
    }
    if u32::from_le_bytes(bytes[4..8].try_into().unwrap()) != SNAPSHOT_VERSION {
        return Err(bad("unsupported snapshot version"));
    }
    let seq = u64::from_le_bytes(bytes[8..16].try_into().unwrap());
    let epoch = u64::from_le_bytes(bytes[16..24].try_into().unwrap());
    let kind = u32::from_le_bytes(bytes[24..28].try_into().unwrap());
    let payload_len = u64::from_le_bytes(bytes[28..36].try_into().unwrap());
    let expect = (HEADER_BYTES as u64)
        .checked_add(payload_len)
        .and_then(|n| n.checked_add(4))
        .ok_or_else(|| bad("snapshot length overflow"))?;
    if bytes.len() as u64 != expect {
        return Err(bad("snapshot length mismatch"));
    }
    let body_end = bytes.len() - 4;
    let stored_crc = u32::from_le_bytes(bytes[body_end..].try_into().unwrap());
    if crc32(&bytes[..body_end]) != stored_crc {
        return Err(bad("snapshot checksum mismatch"));
    }
    Ok(SnapshotFile {
        seq,
        epoch,
        kind,
        payload: bytes[HEADER_BYTES..body_end].to_vec(),
        path: path.to_path_buf(),
    })
}

/// The newest loadable snapshot of the given payload kind, falling
/// back to older files when the newest is corrupt. `Ok(None)` when no
/// valid snapshot exists at all.
pub fn load_newest_valid(dir: &Path, kind: u32) -> io::Result<Option<SnapshotFile>> {
    for (_, path) in list_snapshots(dir)?.into_iter().rev() {
        match load_snapshot(&path) {
            Ok(snap) if snap.kind == kind => return Ok(Some(snap)),
            Ok(_) | Err(_) => continue,
        }
    }
    Ok(None)
}

/// Delete all but the newest `keep` snapshot files.
pub fn prune_snapshots(dir: &Path, keep: usize) -> io::Result<()> {
    let snapshots = list_snapshots(dir)?;
    let excess = snapshots.len().saturating_sub(keep.max(1));
    for (_, path) in snapshots.into_iter().take(excess) {
        fs::remove_file(path)?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "glodyne-snap-{tag}-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn write_load_round_trip() {
        let dir = tmp_dir("round-trip");
        let payload = vec![7u8; 100];
        let path = write_snapshot(&dir, 42, 3, PAYLOAD_SESSION, &payload).unwrap();
        let snap = load_snapshot(&path).unwrap();
        assert_eq!(snap.seq, 42);
        assert_eq!(snap.epoch, 3);
        assert_eq!(snap.kind, PAYLOAD_SESSION);
        assert_eq!(snap.payload, payload);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn newest_valid_falls_back_past_corruption() {
        let dir = tmp_dir("fallback");
        write_snapshot(&dir, 10, 1, PAYLOAD_SESSION, b"old").unwrap();
        let newest = write_snapshot(&dir, 20, 2, PAYLOAD_SESSION, b"new").unwrap();
        // Flip a payload byte in the newest.
        let mut bytes = fs::read(&newest).unwrap();
        let hit = bytes.len() - 6;
        bytes[hit] ^= 0x01;
        fs::write(&newest, &bytes).unwrap();
        let snap = load_newest_valid(&dir, PAYLOAD_SESSION).unwrap().unwrap();
        assert_eq!(snap.seq, 10);
        assert_eq!(snap.payload, b"old");
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn corruption_at_every_offset_never_panics() {
        let dir = tmp_dir("corrupt");
        let path = write_snapshot(&dir, 5, 1, 2, &[1, 2, 3, 4, 5]).unwrap();
        let clean = fs::read(&path).unwrap();
        for i in 0..clean.len() {
            let mut bytes = clean.clone();
            bytes[i] ^= 0xA5;
            fs::write(&path, &bytes).unwrap();
            assert!(load_snapshot(&path).is_err(), "flip at byte {i} undetected");
        }
        for cut in 0..clean.len() {
            fs::write(&path, &clean[..cut]).unwrap();
            assert!(
                load_snapshot(&path).is_err(),
                "truncation at {cut} undetected"
            );
        }
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn prune_keeps_newest() {
        let dir = tmp_dir("prune");
        for seq in [1u64, 2, 3, 4] {
            write_snapshot(&dir, seq, seq, PAYLOAD_SESSION, b"x").unwrap();
        }
        prune_snapshots(&dir, 2).unwrap();
        let left: Vec<u64> = list_snapshots(&dir)
            .unwrap()
            .into_iter()
            .map(|(s, _)| s)
            .collect();
        assert_eq!(left, vec![3, 4]);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn kind_mismatch_is_skipped() {
        let dir = tmp_dir("kind");
        write_snapshot(&dir, 1, 1, 2, b"other").unwrap();
        assert!(load_newest_valid(&dir, PAYLOAD_SESSION).unwrap().is_none());
        let _ = fs::remove_dir_all(&dir);
    }
}
