//! GloDyNE: Global Topology Preserving Dynamic Network Embedding.
//!
//! The paper's contribution (Algorithm 1), built on the workspace
//! substrates:
//!
//! - [`reservoir`] — the accumulated-topological-change reservoir `R`
//!   and the inertia-based scoring function of Eq. 3.
//! - [`select`] — the four node-selection strategies of §5.3.4 (S1–S3
//!   baselines and S4, the paper's partition-plus-softmax selection of
//!   Eq. 4).
//! - [`model`] — the [`GloDyNE`] embedder: offline stage at `t = 0`,
//!   online incremental stage for `t ≥ 1`, with the free hyper-parameter
//!   `α` controlling the effectiveness/efficiency trade-off (§5.3.5).
//! - [`variants`] — the ablation baselines of §5.3.1–5.3.2:
//!   SGNS-static, SGNS-retrain, SGNS-increment.
//! - [`session`] — the streaming entry point: [`EmbedderSession`] wraps
//!   any step-style embedder plus a mutable graph state and an
//!   [`EpochPolicy`], turning an edge-event stream into embedding steps
//!   and answering queries at any moment.
//!
//! # Quick start (batch)
//!
//! ```
//! use glodyne::{GloDyNE, GloDyNEConfig};
//! use glodyne_embed::traits::run_over;
//! use glodyne_graph::id::{Edge, NodeId};
//! use glodyne_graph::Snapshot;
//!
//! let g0 = Snapshot::from_edges(&[Edge::new(NodeId(0), NodeId(1)),
//!                                 Edge::new(NodeId(1), NodeId(2))], &[]);
//! let g1 = Snapshot::from_edges(&[Edge::new(NodeId(0), NodeId(1)),
//!                                 Edge::new(NodeId(1), NodeId(2)),
//!                                 Edge::new(NodeId(2), NodeId(3))], &[]);
//! let mut cfg = GloDyNEConfig::default();
//! cfg.sgns.dim = 16;
//! cfg.walk.walk_length = 10;
//! let mut method = GloDyNE::new(cfg).expect("valid config");
//! let embeddings = run_over(&mut method, &[g0, g1]);
//! assert_eq!(embeddings.len(), 2);
//! assert!(embeddings[1].get(NodeId(3)).is_some());
//! ```
//!
//! # Quick start (streaming)
//!
//! ```
//! use glodyne::{EmbedderSession, EpochPolicy, GloDyNE, GloDyNEConfig};
//! use glodyne_graph::id::{NodeId, TimedEdge};
//!
//! let mut cfg = GloDyNEConfig { alpha: 0.5, ..Default::default() };
//! cfg.sgns.dim = 16;
//! let mut session =
//!     EmbedderSession::new(GloDyNE::new(cfg).unwrap(), EpochPolicy::TimestampBoundary)
//!         .unwrap();
//! for i in 0..20u32 {
//!     session.apply(glodyne_graph::GraphEvent::add_edge(
//!         NodeId(i), NodeId(i + 1), (i / 10) as u64));
//! }
//! session.flush();
//! assert!(session.query(NodeId(3)).is_some());
//! let _neighbours = session.nearest(NodeId(3), 5);
//! # let _ = TimedEdge::new(NodeId(0), NodeId(1), 0);
//! ```

pub mod model;
pub mod reservoir;
pub mod select;
pub mod session;
pub mod variants;

pub use glodyne_ann::{IvfConfig, IvfIndex};
pub use glodyne_embed::config::ConfigError;
pub use glodyne_embed::traits::{CheckpointEmbedder, PhaseTimes, StepContext, StepReport};
pub use model::{GloDyNE, GloDyNEConfig};
pub use reservoir::Reservoir;
pub use select::Strategy;
pub use session::{nearest_batch_in, EmbedderSession, EpochPolicy, SessionCheckpoint};
pub use variants::{SgnsIncrement, SgnsRetrain, SgnsStatic};
