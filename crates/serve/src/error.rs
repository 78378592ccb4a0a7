//! Server-side failures (distinct from [`ProtocolError`], which is a
//! *client's* malformed request and travels back over the wire).
//!
//! [`ProtocolError`]: crate::protocol::ProtocolError

use glodyne_embed::ConfigError;
use std::error::Error;
use std::fmt;
use std::io;

/// A failure of the serving machinery itself.
#[derive(Debug)]
pub enum ServeError {
    /// The listener could not bind its address.
    Bind {
        /// The address that was requested.
        addr: String,
        /// The underlying I/O error.
        source: io::Error,
    },
    /// Invalid server configuration (e.g. degenerate ANN settings) —
    /// rejected at [`Server::bind`](crate::Server::bind), never
    /// silently repaired.
    Config(ConfigError),
    /// The trainer thread is gone (session shut down): ingest and
    /// flush can no longer be accepted, though reads keep working off
    /// the last published epoch.
    Closed,
    /// The bounded ingest queue was full and the caller asked to shed
    /// load instead of blocking (fast-fail ingest). Carries the queue
    /// gauge at rejection time for the structured wire error.
    Overloaded {
        /// Queue depth observed when the event was shed.
        depth: usize,
        /// The queue's bound.
        capacity: usize,
    },
    /// A deadline-bounded operation (ingest enqueue, flush ack) ran
    /// out of time before the trainer made room / answered.
    DeadlineExceeded,
}

impl fmt::Display for ServeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ServeError::Bind { addr, source } => write!(f, "cannot bind {addr}: {source}"),
            ServeError::Config(e) => write!(f, "invalid server configuration: {e}"),
            ServeError::Closed => write!(f, "serving session is shut down"),
            ServeError::Overloaded { depth, capacity } => {
                write!(f, "ingest queue overloaded ({depth}/{capacity})")
            }
            ServeError::DeadlineExceeded => write!(f, "deadline exceeded"),
        }
    }
}

impl Error for ServeError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            ServeError::Bind { source, .. } => Some(source),
            ServeError::Config(e) => Some(e),
            ServeError::Closed => None,
            ServeError::Overloaded { .. } => None,
            ServeError::DeadlineExceeded => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_and_source_chain() {
        let e = ServeError::Bind {
            addr: "127.0.0.1:1".into(),
            source: io::Error::new(io::ErrorKind::PermissionDenied, "denied"),
        };
        assert!(e.to_string().contains("127.0.0.1:1"));
        assert!(e.source().is_some());
        assert!(ServeError::Closed.source().is_none());
        assert!(ServeError::Closed.to_string().contains("shut down"));
    }
}
