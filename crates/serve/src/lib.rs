//! `glodyne-serve`: a long-lived serving process around an
//! [`EmbedderSession`](glodyne::EmbedderSession).
//!
//! The session API is `&mut self` end to end: every `query`/`nearest`
//! caller queues behind a full embedding step. This crate splits the
//! two paths so reads never wait on training:
//!
//! - **Read path** — after every committed step the trainer publishes
//!   an immutable [`EmbeddingEpoch`] (frozen embedding + epoch id +
//!   step report + optional IVF index, see [`AnnSettings`]) behind an
//!   [`EpochHandle`]. Reader threads clone the `Arc` and answer from
//!   that frozen epoch while the next step trains; a read may
//!   therefore lag the write path by one epoch, and never by more.
//! - **Write path** — ingest goes through a bounded queue
//!   ([`IngestQueue`], a `sync_channel`) feeding a dedicated trainer
//!   thread that owns the session. When the queue is full, a slow
//!   embedding step back-pressures producers at `send` instead of
//!   stalling readers — or sheds, or gives up at a deadline: each write
//!   says how long it may wait with one [`Admission`] value.
//!
//! There is one trainer loop (the paper's online stage — select → walk
//! → incremental SGNS per snapshot — on a thread) and every serving
//! mode is a *value* handed to it, not a variant of it: the
//! [`Trainee`] it drives is an `EmbedderSession` (in-memory) or a
//! `DurableSession` (WAL + snapshots) — a type, because durability
//! constrains the embedder; the [`SessionSpec`] carries the queue
//! bound, optional [`AnnSettings`], optional telemetry hub and watchdog
//! threshold — `Option`s, because they only change what is built and
//! recorded around a step. [`ServingSession::spawn`] packages both
//! paths around one trainer; [`ShardedSession::spawn`] scales them out
//! to `S` partition-routed in-memory shards, each one more call of the
//! same spawn (`glodyne-shard` supplies the router and the
//! owner-filtered fan-out merge); [`Server::bind`] /
//! [`Server::bind_sharded`] expose either over TCP with a line-delimited JSON protocol (`query`, `nearest`,
//! `ingest`, `flush`, `stats`, `shutdown`) — std-only, one thread per
//! connection, no async runtime. See [`protocol`] for the wire format.

pub mod epoch;
pub mod error;
pub mod json;
pub mod probe;
pub mod protocol;
pub mod queue;
pub mod server;
pub mod session;
pub mod shard;
pub mod telemetry;

pub use epoch::{EmbeddingEpoch, EpochHandle};
pub use error::ServeError;
pub use probe::{probe_recall, ProbeSettings};
pub use protocol::{ErrorKind, NearestMode, ProtocolError, Request};
pub use queue::{Admission, FlushOutcome, IngestQueue};
pub use server::{Server, ServerConfig};
pub use session::{
    AnnSettings, AnnStats, DurabilityStats, HealthStats, RebalanceStats, ServeStats,
    ServingSession, SessionSpec, Trainee, DEFAULT_STALL_AFTER,
};
pub use shard::{ShardEpochStats, ShardedSession};
pub use telemetry::{
    DurabilityTelemetry, ProbeTelemetry, ServeTelemetry, SlowQuery, TelemetryStats,
};

/// Lock `mutex`, shrugging off poisoning: nothing this crate guards is
/// left half-written by a panicking holder, and a poisoned read path
/// would turn one thread's panic into a dead server.
pub(crate) fn lock<T>(mutex: &std::sync::Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    mutex
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
}

/// Fixtures shared by the unit-test modules.
#[cfg(test)]
mod tests {
    use glodyne::{GloDyNE, GloDyNEConfig};
    use glodyne_embed::walks::WalkConfig;
    use glodyne_embed::SgnsConfig;

    /// A deterministic (single-threaded SGNS) model small enough to
    /// train in a millisecond.
    pub(crate) fn tiny_model(walk_seed: u64, sgns_seed: u64) -> GloDyNE {
        let cfg = GloDyNEConfig {
            alpha: 0.5,
            walk: WalkConfig {
                walks_per_node: 2,
                walk_length: 8,
                seed: walk_seed,
            },
            sgns: SgnsConfig {
                dim: 8,
                window: 2,
                negatives: 2,
                epochs: 1,
                parallel: false,
                seed: sgns_seed,
                ..Default::default()
            },
            ..Default::default()
        };
        GloDyNE::new(cfg).unwrap()
    }

    /// A fresh, empty directory unique to this test thread.
    pub(crate) fn scratch_dir(tag: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "glodyne-serve-{tag}-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }
}
