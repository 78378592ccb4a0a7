//! Graph substrate for the GloDyNE reproduction.
//!
//! A dynamic network (Definition 2 in the paper) is a sequence of snapshots
//! `G^0, G^1, ...`; each snapshot is an immutable, undirected, unweighted
//! graph stored in CSR form. Nodes carry a *stable* global [`NodeId`] so
//! that embeddings persist across snapshots even when nodes appear or
//! disappear (as in AS733).
//!
//! Layout of the crate:
//! - [`id`] — stable node identifiers.
//! - [`snapshot`] — the immutable CSR snapshot type.
//! - [`components`] — connected components / largest connected component.
//! - [`traversal`] — BFS shortest paths and all-pairs proximity sums.
//! - [`diff`] — edge-stream differences between consecutive snapshots
//!   (the `ΔE^t` of Eq. 3).
//! - [`dynamic`] — the snapshot-sequence container and stream-cutting
//!   construction described in §5.1.1.
//! - [`state`] — the mutable graph ([`GraphState`]): apply
//!   [`state::GraphEvent`]s, commit cheap snapshots at epoch
//!   boundaries. Streaming sessions, `DynamicNetwork::from_edge_stream`
//!   and the dataset generators all drive it.
//! - [`io`] — plain-text edge-stream reading/writing.

pub mod components;
pub mod diff;
pub mod dynamic;
pub mod id;
pub mod io;
pub mod snapshot;
pub mod state;
pub mod traversal;

pub use diff::SnapshotDiff;
pub use dynamic::DynamicNetwork;
pub use id::NodeId;
pub use snapshot::Snapshot;
pub use state::{GraphEvent, GraphEventKind, GraphState};
