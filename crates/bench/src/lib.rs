//! Experiment harness shared by the per-table/per-figure binaries.
//!
//! - [`args`] — a tiny `--key value` CLI parser (no external deps).
//! - [`methods`] — the method factory: every embedder of §5.1.2 plus
//!   the §5.3 variants behind one constructor, with harness-wide
//!   defaults scaled for laptop runs.
//! - [`runner`] — drives a method over a snapshot sequence, recording
//!   per-step wall-clock time (embedding only, excluding downstream
//!   tasks — the Table 4 protocol).
//! - [`table`] — plain-text table printing with mean ± std cells and
//!   the paper's significance markers.
//! - [`throughput`] — absolute SGNS training rate (Mpairs/s) at the
//!   end-to-end benchmark's three graph sizes, printed by `micro` and
//!   `scale_test`.

pub mod args;
pub mod eval;
pub mod methods;
pub mod runner;
pub mod table;
pub mod throughput;
