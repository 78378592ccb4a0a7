//! The `glodyne` command-line tool: end-user workflows over timestamped
//! edge-stream files.
//!
//! ```text
//! glodyne embed     --input edges.txt --snapshots 10 --out-dir embeddings/
//! glodyne stream    --input edges.txt --policy timestamp --query 42
//! glodyne partition --input edges.txt --k 8
//! glodyne evaluate  --input edges.txt --snapshots 10
//! ```
//!
//! Input format: `u v [timestamp]` per line (`#`/`%` comments allowed) —
//! the format the paper's SNAP/KONECT datasets ship in. Snapshots are
//! cut at equal-count timestamp quantiles and reduced to their largest
//! connected component, following §5.1.1; `stream` instead feeds the
//! edges one event at a time through an `EmbedderSession`.

pub mod commands;
pub mod opts;

use glodyne::ConfigError;
use std::error::Error;
use std::fmt;
use std::io;

/// A structured CLI-level error with a user-facing message and a
/// `source()` chain down to the underlying failure.
#[derive(Debug)]
pub enum CliError {
    /// An I/O failure, with the path or operation that failed.
    Io {
        /// What was being done (e.g. `"cannot open edges.txt"`).
        context: String,
        /// The underlying I/O error.
        source: io::Error,
    },
    /// Input that could not be parsed (bad edge line, empty stream…).
    Parse(String),
    /// An invalid embedder configuration, chained from [`ConfigError`].
    Config(ConfigError),
    /// Wrong command-line usage (unknown command, missing option…).
    Usage(String),
}

impl fmt::Display for CliError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CliError::Io { context, source } => write!(f, "{context}: {source}"),
            CliError::Parse(msg) => write!(f, "parse error: {msg}"),
            CliError::Config(e) => write!(f, "configuration error: {e}"),
            CliError::Usage(msg) => write!(f, "{msg}"),
        }
    }
}

impl Error for CliError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            CliError::Io { source, .. } => Some(source),
            CliError::Config(e) => Some(e),
            CliError::Parse(_) | CliError::Usage(_) => None,
        }
    }
}

impl From<io::Error> for CliError {
    fn from(e: io::Error) -> Self {
        CliError::Io {
            context: "io error".to_string(),
            source: e,
        }
    }
}

impl From<ConfigError> for CliError {
    fn from(e: ConfigError) -> Self {
        CliError::Config(e)
    }
}

/// Parse arguments and dispatch to a subcommand; returns the report to
/// print on success.
pub fn run(args: &[String]) -> Result<String, CliError> {
    let Some(cmd) = args.first() else {
        return Ok(usage());
    };
    let rest = &args[1..];
    match cmd.as_str() {
        "embed" => commands::embed(&opts::Opts::parse(rest)),
        "stream" => commands::stream(&opts::Opts::parse(rest)),
        "serve" => commands::serve(&opts::Opts::parse(rest)),
        "stats" => commands::stats_cmd(&opts::Opts::parse(rest)),
        "recover" => commands::recover(&opts::Opts::parse(rest)),
        "partition" => commands::partition_cmd(&opts::Opts::parse(rest)),
        "evaluate" => commands::evaluate(&opts::Opts::parse(rest)),
        "help" | "--help" | "-h" => Ok(usage()),
        other => Err(CliError::Usage(format!(
            "unknown command `{other}`\n\n{}",
            usage()
        ))),
    }
}

/// The help text.
pub fn usage() -> String {
    "glodyne — Global Topology Preserving Dynamic Network Embedding

USAGE:
  glodyne embed     --input <edges.txt> [--snapshots 10] [--out-dir .]
                    [--alpha 0.1] [--dim 128] [--walks 10] [--walk-length 80]
                    [--window 10] [--negatives 5] [--epochs 2] [--seed 0]
  glodyne stream    --input <edges.txt> [--policy timestamp|every-n|manual]
                    [--every 1000] [--query <node>] [--top-k 10]
                    [--ann] [--cells 64] [--nprobe 8]
                    [--alpha 0.1] [--dim 128] [--seed 0]
                    [--addr HOST:PORT] [--retry-budget 5]
  glodyne serve     [--bind 127.0.0.1:7878] [--threads 64] [--queue 1024]
                    [--policy timestamp|every-n|manual] [--every 1000]
                    [--ann] [--cells 64] [--nprobe 8]
                    [--shards N] [--shard-epsilon 0.1] [--shard-seed 0]
                    [--drift 0.25] [--ann-overfetch 2]
                    [--input <edges.txt>] [--alpha 0.1] [--dim 128] [--seed 0]
                    [--data-dir <dir>] [--fsync flush|off|every:<n>]
                    [--snapshot-every 4] [--keep-snapshots 2]
                    [--segment-bytes 4194304]
                    [--telemetry] [--probe-every 1000] [--probe-k 10]
                    [--probe-sample 16] [--probe-seed 42] [--slow-us 10000]
                    [--fast-fail] [--deadline-ms <ms>] [--stall-after-ms 5000]
                    [--write-timeout-ms 30000]
  glodyne stats     [--addr 127.0.0.1:7878] [--watch] [--interval-ms 2000]
                    [--retry-budget 5]
  glodyne recover   --data-dir <dir>
  glodyne partition --input <edges.txt> [--k 8] [--epsilon 0.1] [--seed 0]
  glodyne evaluate  --input <edges.txt> [--snapshots 10] [--alpha 0.1]
                    [--dim 128] [--seed 0]

Input: one `u v [timestamp]` edge per line; # and % comments ignored.
`embed` writes one TSV embedding file per snapshot into --out-dir.
`stream` feeds the edges event-by-event through an embedder session,
  printing one step report per committed snapshot boundary; with
  --query it prints the node's nearest neighbours at the end. With
  --addr it instead streams the edge file to a running server over the
  wire (batched ingest, then flush, then --query via wire `nearest`),
  retrying connect failures and `overloaded` sheds with jittered
  exponential backoff under a --retry-budget attempt budget.
`serve` runs a TCP serving process speaking line-delimited JSON
  (query/nearest/ingest/flush/stats/shutdown); reads are answered from
  an immutable epoch snapshot and never wait on training. --threads
  bounds concurrent connections, --queue bounds the ingest backlog,
  --input optionally warm-starts the session from an edge file.
With --ann, `stream` and `serve` additionally build an IVF index over
  each committed epoch (--cells coarse cells, --nprobe probe default);
  `serve` then accepts nearest requests with \"mode\":\"ann\".
With --shards N, `serve` partitions the event stream into N shards
  (min-cut partitioning, --shard-epsilon balance, re-partitioned when
  more than a --drift fraction of nodes is hash-placed); each shard
  trains its own in-memory session on its own trainer thread,
  cross-shard edges are mirrored to both sides as halo edges, `nearest`
  fans out across shards and merges owned hits (each shard over-fetched
  by --ann-overfetch before halo filtering: higher = better fan-out
  recall, more per-shard scan work), and `stats` reports a per-shard
  \"shards\" array. --shards 1 is the unsharded server; any other count
  is a usage error with --data-dir, and on `stream`.
With --data-dir, `serve` becomes crash-recoverable: every ingested
  event is appended to a segmented write-ahead log under the directory
  and committed epochs are periodically frozen into snapshot files.
  Restarting with the same --data-dir resumes the embedding bit-exactly
  (a clean `shutdown` replays zero events; after a crash the WAL suffix
  is replayed). --fsync trades durability for throughput (`flush` syncs
  at epoch boundaries, `every:<n>` after every n events, `off` leaves
  it to the OS); SGNS training is forced single-threaded so replay is
  deterministic. Warm-start --input is skipped when an existing lineage
  is recovered.
With --telemetry (implied by any probe or --slow-us flag), `serve`
  keeps lock-free latency histograms for every pipeline stage, answers
  the `metrics` op with Prometheus-style text (scrapable with nc), adds
  a \"telemetry\" object to `stats`, and keeps a ring of the last 32
  requests slower than --slow-us microseconds. With --ann it also runs
  a background quality probe every --probe-every ms: recall@--probe-k
  of the IVF index against an exact scan over --probe-sample sampled
  nodes, published as a live gauge. The probe reads the same immutable
  epoch snapshots as queries and never blocks serving.
Overload control: --fast-fail makes `serve` shed ingest with a
  structured `overloaded` error instead of blocking when the queue is
  full; --deadline-ms bounds every ingest/flush by a default deadline
  (requests may carry their own `deadline_ms`); --stall-after-ms is how
  long the trainer may go silent with work pending before `stats`
  reports health.degraded and writes get `degraded` errors (reads keep
  serving the last published epoch); --write-timeout-ms disconnects
  slow consumers instead of letting them wedge a server thread.
`stats` connects to a running server and pretty-prints its `stats`
  object once, or every --interval-ms with --watch (exits when the
  server goes away); connect failures and `overloaded` responses retry
  with jittered backoff under --retry-budget attempts.
`recover` inspects a --data-dir without serving: snapshot integrity,
  WAL segment health, and how much a restart would replay.
`partition` prints `node part` lines for the final snapshot.
`evaluate` reports graph-reconstruction MeanP@k and link-prediction AUC.
"
    .to_string()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn s(args: &[&str]) -> Vec<String> {
        args.iter().map(|a| a.to_string()).collect()
    }

    #[test]
    fn no_args_prints_usage() {
        let out = run(&[]).unwrap();
        assert!(out.contains("USAGE"));
    }

    #[test]
    fn unknown_command_errors() {
        let err = run(&s(&["frobnicate"])).unwrap_err();
        assert!(err.to_string().contains("unknown command"));
        assert!(matches!(err, CliError::Usage(_)));
    }

    #[test]
    fn help_flag_works() {
        assert!(run(&s(&["--help"])).unwrap().contains("glodyne"));
    }

    #[test]
    fn embed_requires_input() {
        let err = run(&s(&["embed"])).unwrap_err();
        assert!(err.to_string().contains("--input"));
    }

    /// A small edge file in the temp dir, unique per test.
    fn edge_file(name: &str) -> std::path::PathBuf {
        let path =
            std::env::temp_dir().join(format!("glodyne-cli-{name}-{}.txt", std::process::id()));
        std::fs::write(&path, "0 1 0\n1 2 1\n2 3 2\n3 0 3\n").unwrap();
        path
    }

    /// An option value that does not parse is a usage error naming the
    /// flag, never a silent fall-back to the default; `embed` fails
    /// before it writes anything.
    #[test]
    fn unparseable_option_values_are_usage_errors() {
        let input = edge_file("bad-values");
        let input = input.to_str().unwrap();
        let out_dir =
            std::env::temp_dir().join(format!("glodyne-cli-bad-dim-{}", std::process::id()));
        let out = out_dir.to_str().unwrap();
        for (args, flag) in [
            (s(&["partition", "--input", input, "--k", "abc"]), "--k"),
            (
                s(&["embed", "--input", input, "--dim", "1O", "--out-dir", out]),
                "--dim",
            ),
        ] {
            let err = run(&args).unwrap_err();
            assert!(matches!(err, CliError::Usage(_)), "{args:?}: {err}");
            assert!(
                err.to_string().contains(&format!("for {flag}")),
                "{args:?}: {err}"
            );
        }
        assert!(!out_dir.exists(), "embed wrote output for a bad --dim");
        let _ = std::fs::remove_file(input);
    }

    #[test]
    fn error_sources_chain() {
        use std::error::Error;
        let io_err = CliError::Io {
            context: "cannot open x".into(),
            source: std::io::Error::new(std::io::ErrorKind::NotFound, "gone"),
        };
        assert!(io_err.source().is_some());
        assert!(io_err.to_string().contains("cannot open x"));

        let cfg_err = CliError::from(ConfigError::new("alpha", "must be in (0, 1]"));
        let src = cfg_err.source().expect("config source");
        assert!(src.to_string().contains("alpha"));

        assert!(CliError::Parse("bad line".into()).source().is_none());
    }
}
