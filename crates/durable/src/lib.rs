//! glodyne-durable: segmented event WAL + epoch snapshots —
//! crash-recoverable state for GloDyNE serving sessions.
//!
//! Three layers:
//!
//! - [`wal`] — an append-only log of ingested graph events in
//!   length-prefixed, CRC-checked frames across size-rotated segment
//!   files. Replay tolerates an arbitrarily truncated or corrupted
//!   tail: the longest valid prefix, never a panic.
//! - [`snapshot`] — atomic (`temp + rename`) containers freezing a
//!   committed epoch: the session checkpoint plus its embedding via the
//!   persist layer's binary format.
//! - [`session`] — [`DurableSession`], the write-ahead wrapper around
//!   [`glodyne::EmbedderSession`]: log, apply, periodically snapshot,
//!   prune; recover by resuming the newest valid snapshot (falling back
//!   on corruption) and replaying the WAL suffix through the normal
//!   ingest path.
//!
//! The contract pinned across all three: recovery is **bit-exact** —
//! with deterministic training, a recovered session's committed state
//! equals the uninterrupted run's over the same durable event prefix.

pub mod crc;
pub mod session;
pub mod snapshot;
pub mod timing;
pub mod wal;

pub use crc::crc32;
pub use session::{
    decode_session_payload, encode_session_payload, DurabilityCounters, DurableConfig,
    DurableSession, RecoveryReport,
};
pub use snapshot::{
    list_snapshots, load_newest_valid, load_snapshot, prune_snapshots, write_snapshot,
    SnapshotFile, PAYLOAD_SESSION,
};
pub use timing::DurableTiming;
pub use wal::{
    encode_flush_frame, encode_frame, list_segments, replay, replay_and_heal, FsyncPolicy,
    ReplayedWal, WalRecord, WalStats, WalWriter,
};
