//! `bench_e2e`: the repo's end-to-end benchmark.
//!
//! It spawns the real `glodyne serve` binary, drives it over the
//! line-JSON wire through one work-bounded lifecycle per workload
//! ([`lifecycle`]), checks the answers ([`oracle`]) and — in a traced
//! run — replays the same inputs in-process to time each library
//! layer ([`replay`]). See `README.md` in this directory.

#![warn(missing_docs)]

pub mod gen;
pub mod host;
pub mod json;
pub mod lifecycle;
pub mod load;
pub mod oracle;
pub mod program;
pub mod replay;
pub mod report;
pub mod stats;
pub mod trace;
pub mod wire;
pub mod workloads;
