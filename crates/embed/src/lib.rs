//! Random-walk + Skip-Gram Negative Sampling embedding machinery —
//! Steps 3 and 4 of GloDyNE (§4.1.3–4.1.4), shared by the core method,
//! its variants, and several baselines.
//!
//! - [`alias`] — O(1) discrete sampling (alias method), used for negative
//!   sampling and for the paper's per-sub-network node selection.
//! - [`walks`] — truncated random walks (Eq. 5).
//! - [`corpus`] — the flat zero-copy walk corpus: one contiguous token
//!   arena + walk offsets shared by walk generation and SGNS training.
//! - [`pairs`] — sliding-window positive-pair extraction (§4.1.4).
//! - [`sgns`] — the incremental SGNS model (Eq. 6–11): warm-startable,
//!   Hogwild-parallel, with new-node vocabulary growth.
//! - [`embedding`] — the `NodeId`-keyed embedding matrix handed to
//!   downstream tasks, plus cosine-similarity and nearest-neighbour
//!   helpers.
//! - [`kernel`] — the similarity kernels: the frozen exact accumulation
//!   order every bit-exactness pin references, and the SIMD-shaped fast
//!   path approximate surfaces scan with.
//! - [`traits`] — the step-shaped `DynamicEmbedder` interface every
//!   method in this workspace implements: one `step(StepContext)` per
//!   snapshot boundary returning a structured `StepReport`, with batch
//!   adapters (`run_over`) mirroring the paper's protocol of feeding
//!   every method's output to identical downstream tasks.
//! - [`config`] — fallible hyper-parameter validation (`ConfigError`)
//!   shared by every method's constructor.

pub mod alias;
pub mod config;
pub mod corpus;
pub mod embedding;
pub mod kernel;
pub mod pairs;
pub mod persist;
pub mod sgns;
pub mod traits;
pub mod walks;

pub use config::ConfigError;
pub use corpus::WalkCorpus;
pub use embedding::{rank_similarity, reference_top_k, Embedding, TopKSelector};
pub use sgns::{SgnsConfig, SgnsModel};
pub use traits::{CheckpointEmbedder, DynamicEmbedder, PhaseTimes, StepContext, StepReport};
