//! `glodyne-shard`: partition-routed sharding for GloDyNE sessions.
//!
//! The paper's Step 1 (§4.1.1) decomposes every snapshot into
//! `K = α·|V|` sub-networks whose representatives are updated
//! independently — which means a live deployment doesn't need one
//! global trainer at all. This crate supplies the layout layer that
//! turns that observation into a PowerGraph-style partition-parallel
//! serving stack:
//!
//! - [`ShardRouter`] assigns nodes to `S` shards with the workspace's
//!   from-scratch METIS (`glodyne-partition`), re-partitioning lazily
//!   when hash-placed drift accumulates and stable-mapping the new
//!   parts onto the old shard labels so unmoved regions stay put. It
//!   routes every [`GraphEvent`](glodyne_graph::GraphEvent): intra-shard
//!   edges to their one owner, cross-shard edges mirrored to both
//!   sides as **halo edges** (walks stitch across the boundary one hop
//!   deep and deterministically reflect — see the bias bound in the
//!   [`router`] docs).
//! - [`fanout`] merges per-shard `nearest` answers: each shard scans
//!   (or IVF-probes) its own rows, halo copies are filtered by
//!   ownership, and everything merges through the shared
//!   `TopKSelector` under `rank_similarity` — the exact path is
//!   bit-exact with an unsharded scan of the owner-filtered union.
//! - [`ShardedState`] is the synchronous composition (one
//!   [`EmbedderSession`](glodyne::EmbedderSession) per shard); the
//!   threaded, epoch-swapped version lives in `glodyne-serve` as
//!   `ShardedSession`.

pub mod fanout;
pub mod router;
pub mod state;

pub use fanout::{nearest_approx, nearest_approx_batch, nearest_exact, union_embedding, ShardView};
pub use router::{Rebalance, RouterStats, ShardConfig, ShardRouter};
pub use state::ShardedState;
