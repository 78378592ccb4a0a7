//! The line-delimited JSON wire protocol.
//!
//! Every request is one JSON object on one line with a `"cmd"` field;
//! every response is one JSON object on one line with an `"ok"` field.
//! Failures come back structured — `{"ok":false,"kind":...,"error":...}`
//! — and never tear down the connection (except `shutdown`, which ends
//! the whole server).
//!
//! | request | response |
//! |---|---|
//! | `{"cmd":"query","node":5}` | `{"ok":true,"cmd":"query","epoch":2,"node":5,"vector":[...]}` |
//! | `{"cmd":"nearest","node":5,"k":3}` | `{"ok":true,"cmd":"nearest","epoch":2,"node":5,"mode":"exact","neighbours":[[7,0.93],...]}` |
//! | `{"cmd":"nearest","node":5,"k":3,"mode":"ann","nprobe":4}` | `{"ok":true,"cmd":"nearest","epoch":2,"node":5,"mode":"ann","nprobe":4,"neighbours":[[7,0.93],...]}` |
//! | `{"cmd":"nearest_batch","nodes":[5,9],"k":3}` | `{"ok":true,"cmd":"nearest_batch","epoch":2,"mode":"exact","results":[{"node":5,"neighbours":[[7,0.93],...]},{"node":9,"neighbours":null}]}` |
//! | `{"cmd":"ingest","edges":[[0,1,3],...]}` | `{"ok":true,"cmd":"ingest","accepted":N}` |
//! | `{"cmd":"ingest","events":[{"op":"remove_node","node":4,"t":9},...]}` | same |
//! | `{"cmd":"flush"}` | `{"ok":true,"cmd":"flush","stepped":true,"epoch":3}` |
//! | `{"cmd":"stats"}` | `{"ok":true,"cmd":"stats","epoch":3,"nodes":...,...}` |
//! | `{"cmd":"metrics"}` | Prometheus text exposition (multi-line, **not** JSON; `unavailable` error when telemetry is off) |
//! | `{"cmd":"shutdown"}` | `{"ok":true,"cmd":"shutdown"}` then the server drains and exits |
//!
//! Reads (`query`/`nearest`) are answered from the most recently
//! *published* epoch, which may lag the write path by exactly the step
//! currently training (see the crate docs' consistency model).
//!
//! Overload control: `ingest` and `flush` accept an optional
//! `deadline_ms`; a request that cannot complete in time fails with
//! `kind:"deadline_exceeded"`. A server in fast-fail mode sheds full
//! queues with `kind:"overloaded"` instead of blocking, and a stalled
//! or dead trainer turns writes into `kind:"degraded"` while reads
//! keep answering from the last published epoch (see the `stats`
//! response's `health` object).
//!
//! Encoding: the hot read replies — `query`, `nearest` in both modes and
//! `nearest_batch` — are written straight into the connection's reply
//! buffer by `write_query`, `write_nearest` and `write_nearest_batch`,
//! with no [`Json`] tree and one `Display` per number (each `f32` as its
//! shortest round-trip decimal, `null` when not finite). Their bytes are
//! identical to the tree encoding they replaced, which the tests keep as
//! a byte reference (for integers below 2^53, the tree's exact `f64`
//! range; a node id is a `u32`). Cold replies (`stats`, `ingest`, `flush`, errors)
//! still build a `Json` tree.

use crate::json::{self, Json};
use crate::queue::FlushOutcome;
use crate::session::ServeStats;
use crate::telemetry::TelemetryStats;
use glodyne_graph::state::GraphEvent;
use glodyne_graph::NodeId;
use glodyne_telemetry::HistogramSnapshot;
use std::fmt::{self, Write as _};

/// Cap on one request line; longer lines are rejected with a
/// `too_large` error without buffering the payload.
pub const MAX_LINE_BYTES: usize = 1 << 20;

/// Default `k` for `nearest` when the request omits it.
pub const DEFAULT_K: usize = 10;

/// Maximum events accepted in a single `ingest` request (more must be
/// split across requests, keeping any one queue reservation bounded).
pub const MAX_INGEST_EVENTS: usize = 65_536;

/// Maximum probe nodes in a single `nearest_batch` request. The batch
/// answers from one frozen epoch, so an unbounded batch would pin that
/// epoch (and its index) for an unbounded scan.
pub const MAX_BATCH_NODES: usize = 1024;

/// A parsed client request.
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    /// The embedding vector of one node.
    Query {
        /// The node to look up.
        node: NodeId,
    },
    /// The `k` cosine-nearest neighbours of one node.
    Nearest {
        /// The probe node.
        node: NodeId,
        /// How many neighbours to return.
        k: usize,
        /// Exhaustive scan or IVF probe (`"mode"` field; exact when
        /// omitted, so pre-ANN clients are untouched).
        mode: NearestMode,
    },
    /// The `k` cosine-nearest neighbours of many nodes, answered from
    /// **one** frozen epoch with one fan-out/scan setup for the whole
    /// batch.
    NearestBatch {
        /// The probe nodes, in request order.
        nodes: Vec<NodeId>,
        /// How many neighbours to return per probe.
        k: usize,
        /// Same mode semantics as [`Request::Nearest`].
        mode: NearestMode,
    },
    /// Enqueue graph events for the trainer (back-pressured).
    Ingest {
        /// Events in arrival order.
        events: Vec<GraphEvent>,
        /// Per-request deadline (`"deadline_ms"` field): wait at most
        /// this long for queue headroom before answering
        /// `deadline_exceeded`. `None` follows the server's overload
        /// policy (block, or fast-fail when the server runs with
        /// `fast_fail` on).
        deadline_ms: Option<u64>,
    },
    /// Commit pending events as an epoch boundary and wait for the step.
    Flush {
        /// Per-request deadline (`"deadline_ms"` field): wait at most
        /// this long for the trainer's commit acknowledgement. The
        /// flush stays queued if the deadline fires first.
        deadline_ms: Option<u64>,
    },
    /// Serving counters and the current epoch id.
    Stats,
    /// Prometheus text exposition of every telemetry series. The only
    /// non-JSON response in the protocol — raw multi-line text, so
    /// `nc host port <<< '{"cmd":"metrics"}'` is a scrape.
    Metrics,
    /// Graceful shutdown sentinel: stop accepting, stop the trainer.
    Shutdown,
}

/// How a `nearest` request scans the epoch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NearestMode {
    /// Exhaustive scan over every embedded node (the default; bit-exact
    /// with `reference_top_k`).
    Exact,
    /// IVF probe of the `nprobe` most similar coarse cells; the server
    /// default applies when `nprobe` is `None`. Only valid on a server
    /// started with ANN enabled.
    Ann {
        /// Requested probe width, if the client named one.
        nprobe: Option<usize>,
    },
}

/// Machine-readable failure class, serialised into the `kind` field.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ErrorKind {
    /// Malformed JSON or a request that doesn't fit the schema.
    BadRequest,
    /// The named node has no embedding in the served epoch.
    NotFound,
    /// The request line exceeded [`MAX_LINE_BYTES`].
    TooLarge,
    /// The session is shutting down; writes are no longer accepted.
    ShuttingDown,
    /// The request needs a capability this server wasn't started with
    /// (e.g. ANN mode without an index).
    Unavailable,
    /// The ingest queue is full and the server is shedding load
    /// instead of blocking; retry with backoff.
    Overloaded,
    /// The request's `deadline_ms` elapsed before the work completed.
    DeadlineExceeded,
    /// The trainer is stalled or gone; reads still answer from the
    /// last published epoch, writes are refused until it recovers.
    Degraded,
}

impl ErrorKind {
    /// The wire spelling.
    pub fn as_str(self) -> &'static str {
        match self {
            ErrorKind::BadRequest => "bad_request",
            ErrorKind::NotFound => "not_found",
            ErrorKind::TooLarge => "too_large",
            ErrorKind::ShuttingDown => "shutting_down",
            ErrorKind::Unavailable => "unavailable",
            ErrorKind::Overloaded => "overloaded",
            ErrorKind::DeadlineExceeded => "deadline_exceeded",
            ErrorKind::Degraded => "degraded",
        }
    }
}

/// A structured request failure, rendered with [`error_line`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ProtocolError {
    /// Failure class.
    pub kind: ErrorKind,
    /// Human-readable detail.
    pub message: String,
}

impl ProtocolError {
    /// A `bad_request` error.
    pub fn bad(message: impl Into<String>) -> Self {
        ProtocolError {
            kind: ErrorKind::BadRequest,
            message: message.into(),
        }
    }
}

impl fmt::Display for ProtocolError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}: {}", self.kind.as_str(), self.message)
    }
}

impl std::error::Error for ProtocolError {}

/// Parse one request line.
pub fn parse_request(line: &str) -> Result<Request, ProtocolError> {
    let value = json::parse(line).map_err(|e| ProtocolError::bad(format!("invalid json: {e}")))?;
    let Json::Obj(_) = value else {
        return Err(ProtocolError::bad("request must be a json object"));
    };
    let cmd = value
        .get("cmd")
        .and_then(Json::as_str)
        .ok_or_else(|| ProtocolError::bad("missing string field `cmd`"))?;
    match cmd {
        "query" => Ok(Request::Query {
            node: node_field(&value, "node")?,
        }),
        "nearest" => {
            let node = node_field(&value, "node")?;
            let (k, mode) = parse_k_and_mode(&value)?;
            Ok(Request::Nearest { node, k, mode })
        }
        "nearest_batch" => {
            let nodes = match value.get("nodes") {
                // A client porting from single `nearest` keeps its old
                // `node` field: name the fix, don't just say "missing".
                None if value.get("node").is_some() => {
                    return Err(ProtocolError::bad(
                        "nearest_batch takes a `nodes` array, not `node` \
                         (use cmd \"nearest\" for a single probe)",
                    ))
                }
                None => return Err(ProtocolError::bad("missing `nodes` array")),
                Some(v) => {
                    let arr = v
                        .as_arr()
                        .ok_or_else(|| ProtocolError::bad("`nodes` must be an array"))?;
                    if arr.len() > MAX_BATCH_NODES {
                        return Err(ProtocolError::bad(format!(
                            "batch of {} probes exceeds the {MAX_BATCH_NODES}-node cap; \
                             split the request",
                            arr.len()
                        )));
                    }
                    arr.iter()
                        .enumerate()
                        .map(|(i, n)| {
                            n.as_u64()
                                .filter(|&n| n <= u32::MAX as u64)
                                .map(|n| NodeId(n as u32))
                                .ok_or_else(|| {
                                    ProtocolError::bad(format!(
                                        "nodes[{i}] must be an integer node id (u32)"
                                    ))
                                })
                        })
                        .collect::<Result<Vec<_>, _>>()?
                }
            };
            let (k, mode) = parse_k_and_mode(&value)?;
            Ok(Request::NearestBatch { nodes, k, mode })
        }
        "ingest" => parse_ingest(&value),
        "flush" => Ok(Request::Flush {
            deadline_ms: parse_deadline(&value)?,
        }),
        "stats" => Ok(Request::Stats),
        "metrics" => Ok(Request::Metrics),
        "shutdown" => Ok(Request::Shutdown),
        other => Err(ProtocolError::bad(format!(
            "unknown cmd `{other}` (expected query, nearest, nearest_batch, ingest, flush, \
             stats, metrics, or shutdown)"
        ))),
    }
}

/// The `k`/`mode`/`nprobe` trio shared by `nearest` and
/// `nearest_batch` — one parser, so the two commands cannot drift.
fn parse_k_and_mode(value: &Json) -> Result<(usize, NearestMode), ProtocolError> {
    let k = match value.get("k") {
        None => DEFAULT_K,
        Some(v) => v
            .as_u64()
            .filter(|&k| k >= 1)
            .ok_or_else(|| ProtocolError::bad("`k` must be a positive integer"))?
            .min(usize::MAX as u64) as usize,
    };
    let nprobe = match value.get("nprobe") {
        None => None,
        Some(v) => Some(
            v.as_u64()
                .filter(|&n| n >= 1)
                .ok_or_else(|| ProtocolError::bad("`nprobe` must be a positive integer"))?
                .min(usize::MAX as u64) as usize,
        ),
    };
    let mode = match value.get("mode").map(|m| (m, m.as_str())) {
        None => NearestMode::Exact,
        Some((_, Some("exact"))) => NearestMode::Exact,
        Some((_, Some("ann"))) => NearestMode::Ann { nprobe },
        Some(_) => return Err(ProtocolError::bad("`mode` must be \"exact\" or \"ann\"")),
    };
    if nprobe.is_some() && mode == NearestMode::Exact {
        // Silently ignoring it would hide a client that thinks
        // it is getting approximate answers cheaper.
        return Err(ProtocolError::bad(
            "`nprobe` only applies to \"mode\":\"ann\"",
        ));
    }
    Ok((k, mode))
}

fn node_field(value: &Json, key: &str) -> Result<NodeId, ProtocolError> {
    let id = value
        .get(key)
        .and_then(Json::as_u64)
        .filter(|&n| n <= u32::MAX as u64)
        .ok_or_else(|| ProtocolError::bad(format!("`{key}` must be an integer node id (u32)")))?;
    Ok(NodeId(id as u32))
}

fn parse_ingest(value: &Json) -> Result<Request, ProtocolError> {
    let mut events = Vec::new();
    match (value.get("edges"), value.get("events")) {
        (None, None) => {
            return Err(ProtocolError::bad(
                "ingest needs `edges` ([[u,v,t],...]) or `events` ([{op,...},...])",
            ))
        }
        // Accepting one and silently dropping the other would let the
        // graph diverge from what the client believes it ingested.
        (Some(_), Some(_)) => {
            return Err(ProtocolError::bad(
                "ingest takes `edges` or `events`, not both",
            ))
        }
        (Some(edges), None) => {
            let edges = edges
                .as_arr()
                .ok_or_else(|| ProtocolError::bad("`edges` must be an array"))?;
            check_batch(edges.len())?;
            for (i, e) in edges.iter().enumerate() {
                let triple = e
                    .as_arr()
                    .filter(|t| t.len() == 2 || t.len() == 3)
                    .ok_or_else(|| {
                        ProtocolError::bad(format!("edges[{i}] must be [u,v] or [u,v,t]"))
                    })?;
                let u = elem_u32(triple, 0, i)?;
                let v = elem_u32(triple, 1, i)?;
                let t = match triple.get(2) {
                    None => 0,
                    Some(t) => t.as_u64().ok_or_else(|| {
                        ProtocolError::bad(format!("edges[{i}][2] must be a timestamp"))
                    })?,
                };
                events.push(GraphEvent::add_edge(NodeId(u), NodeId(v), t));
            }
        }
        (None, Some(list)) => {
            let list = list
                .as_arr()
                .ok_or_else(|| ProtocolError::bad("`events` must be an array"))?;
            check_batch(list.len())?;
            for (i, ev) in list.iter().enumerate() {
                events.push(parse_event(ev, i)?);
            }
        }
    }
    Ok(Request::Ingest {
        events,
        deadline_ms: parse_deadline(value)?,
    })
}

/// The optional `deadline_ms` field shared by `ingest` and `flush`.
/// Zero is rejected — it would mean "fail unless already done", which
/// a client really asking for fast-fail spells via the server's
/// overload mode, not a degenerate deadline.
fn parse_deadline(value: &Json) -> Result<Option<u64>, ProtocolError> {
    match value.get("deadline_ms") {
        None => Ok(None),
        Some(v) => v
            .as_u64()
            .filter(|&ms| ms >= 1)
            .map(Some)
            .ok_or_else(|| ProtocolError::bad("`deadline_ms` must be a positive integer")),
    }
}

fn check_batch(len: usize) -> Result<(), ProtocolError> {
    if len > MAX_INGEST_EVENTS {
        return Err(ProtocolError::bad(format!(
            "ingest batch of {len} exceeds the {MAX_INGEST_EVENTS}-event cap; split the request"
        )));
    }
    Ok(())
}

fn elem_u32(arr: &[Json], idx: usize, at: usize) -> Result<u32, ProtocolError> {
    arr.get(idx)
        .and_then(Json::as_u64)
        .filter(|&n| n <= u32::MAX as u64)
        .map(|n| n as u32)
        .ok_or_else(|| ProtocolError::bad(format!("edges[{at}][{idx}] must be a node id (u32)")))
}

fn parse_event(ev: &Json, i: usize) -> Result<GraphEvent, ProtocolError> {
    let op = ev
        .get("op")
        .and_then(Json::as_str)
        .ok_or_else(|| ProtocolError::bad(format!("events[{i}] needs a string `op`")))?;
    let t = match ev.get("t") {
        None => 0,
        Some(t) => t
            .as_u64()
            .ok_or_else(|| ProtocolError::bad(format!("events[{i}].t must be a timestamp")))?,
    };
    let field = |key: &str| -> Result<NodeId, ProtocolError> {
        let n = ev
            .get(key)
            .and_then(Json::as_u64)
            .filter(|&n| n <= u32::MAX as u64)
            .ok_or_else(|| {
                ProtocolError::bad(format!("events[{i}].{key} must be a node id (u32)"))
            })?;
        Ok(NodeId(n as u32))
    };
    match op {
        "add" | "add_edge" => Ok(GraphEvent::add_edge(field("u")?, field("v")?, t)),
        "remove_edge" => Ok(GraphEvent::remove_edge(field("u")?, field("v")?, t)),
        "remove_node" => Ok(GraphEvent::remove_node(field("node")?, t)),
        other => Err(ProtocolError::bad(format!(
            "events[{i}]: unknown op `{other}` (expected add, remove_edge, or remove_node)"
        ))),
    }
}

// ---- response rendering (one line each, no trailing newline) ----

fn ok_obj(cmd: &str, rest: Vec<(String, Json)>) -> String {
    let mut pairs = vec![
        ("ok".to_string(), Json::Bool(true)),
        ("cmd".to_string(), Json::Str(cmd.to_string())),
    ];
    pairs.extend(rest);
    Json::Obj(pairs).to_string()
}

/// Render a structured failure.
pub fn error_line(err: &ProtocolError) -> String {
    Json::Obj(vec![
        ("ok".to_string(), Json::Bool(false)),
        ("kind".to_string(), Json::Str(err.kind.as_str().to_string())),
        ("error".to_string(), Json::Str(err.message.clone())),
    ])
    .to_string()
}

/// Append a successful `query` reply to `out`.
pub(crate) fn write_query(out: &mut String, epoch: u64, node: NodeId, vector: &[f32]) {
    let _ = write!(
        out,
        r#"{{"ok":true,"cmd":"query","epoch":{epoch},"node":{},"vector":["#,
        node.0
    );
    for (i, &x) in vector.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        json::write_f32(out, x);
    }
    out.push_str("]}");
}

/// Append a successful `nearest` reply in either mode to `out`:
/// `nprobe` is the effective probe width in ANN mode, `None` in exact
/// mode.
pub(crate) fn write_nearest(
    out: &mut String,
    epoch: u64,
    node: NodeId,
    neighbours: &[(NodeId, f32)],
    nprobe: Option<usize>,
) {
    let _ = write!(
        out,
        r#"{{"ok":true,"cmd":"nearest","epoch":{epoch},"node":{}"#,
        node.0
    );
    write_mode(out, nprobe);
    out.push_str(r#","neighbours":"#);
    write_hits(out, neighbours);
    out.push('}');
}

/// Append a successful `nearest_batch` reply to `out` (arguments as in
/// [`nearest_batch_line`]).
pub(crate) fn write_nearest_batch(
    out: &mut String,
    epoch: u64,
    nodes: &[NodeId],
    results: &[Option<Vec<(NodeId, f32)>>],
    nprobe: Option<usize>,
) {
    let _ = write!(out, r#"{{"ok":true,"cmd":"nearest_batch","epoch":{epoch}"#);
    write_mode(out, nprobe);
    out.push_str(r#","results":["#);
    for (i, (node, hits)) in nodes.iter().zip(results).enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(out, r#"{{"node":{},"neighbours":"#, node.0);
        match hits {
            None => out.push_str("null"),
            Some(hits) => write_hits(out, hits),
        }
        out.push('}');
    }
    out.push_str("]}");
}

/// The `"mode"` key, and `"nprobe"` after it in ANN mode.
fn write_mode(out: &mut String, nprobe: Option<usize>) {
    match nprobe {
        None => out.push_str(r#","mode":"exact""#),
        Some(nprobe) => {
            let _ = write!(out, r#","mode":"ann","nprobe":{nprobe}"#);
        }
    }
}

/// A hit list as `[[id,sim],...]`.
fn write_hits(out: &mut String, hits: &[(NodeId, f32)]) {
    out.push('[');
    for (i, &(id, sim)) in hits.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(out, "[{},", id.0);
        json::write_f32(out, sim);
        out.push(']');
    }
    out.push(']');
}

/// Render a successful `query`.
pub fn query_line(epoch: u64, node: NodeId, vector: &[f32]) -> String {
    let mut out = String::new();
    write_query(&mut out, epoch, node, vector);
    out
}

/// Render a successful exact-mode `nearest`.
pub fn nearest_line(epoch: u64, node: NodeId, neighbours: &[(NodeId, f32)]) -> String {
    let mut out = String::new();
    write_nearest(&mut out, epoch, node, neighbours, None);
    out
}

/// Render a successful ANN-mode `nearest`, echoing the effective
/// `nprobe` the scan used.
pub fn nearest_ann_line(
    epoch: u64,
    node: NodeId,
    neighbours: &[(NodeId, f32)],
    nprobe: usize,
) -> String {
    let mut out = String::new();
    write_nearest(&mut out, epoch, node, neighbours, Some(nprobe));
    out
}

/// Render a successful `nearest_batch`. `results` is
/// positionally parallel to `nodes`; a `None` entry renders as
/// `"neighbours":null` (the batch analogue of the single-path
/// `not_found` — one unknown probe must not fail its batchmates).
/// `nprobe` is the effective probe width in ANN mode, `None` in exact
/// mode.
pub fn nearest_batch_line(
    epoch: u64,
    nodes: &[NodeId],
    results: &[Option<Vec<(NodeId, f32)>>],
    nprobe: Option<usize>,
) -> String {
    let mut out = String::new();
    write_nearest_batch(&mut out, epoch, nodes, results, nprobe);
    out
}

/// Render a successful `ingest`.
pub fn ingest_line(accepted: usize) -> String {
    ok_obj(
        "ingest",
        vec![("accepted".to_string(), Json::Num(accepted as f64))],
    )
}

/// Render a successful `flush`.
pub fn flush_line(outcome: FlushOutcome) -> String {
    ok_obj(
        "flush",
        vec![
            ("stepped".to_string(), Json::Bool(outcome.stepped)),
            ("epoch".to_string(), Json::Num(outcome.epoch as f64)),
        ],
    )
}

/// Render a successful `stats`.
pub fn stats_line(s: &ServeStats) -> String {
    ok_obj(
        "stats",
        vec![
            ("epoch".to_string(), Json::Num(s.epoch as f64)),
            ("nodes".to_string(), Json::Num(s.nodes as f64)),
            ("dim".to_string(), Json::Num(s.dim as f64)),
            ("queue_depth".to_string(), Json::Num(s.queue_depth as f64)),
            (
                "queue_capacity".to_string(),
                Json::Num(s.queue_capacity as f64),
            ),
            (
                "queue_high_water".to_string(),
                Json::Num(s.queue_high_water as f64),
            ),
            (
                "events_accepted".to_string(),
                Json::Num(s.events_accepted as f64),
            ),
            (
                "ann".to_string(),
                match &s.ann {
                    None => Json::Null,
                    Some(a) => Json::Obj(vec![
                        ("cells".to_string(), Json::Num(a.cells as f64)),
                        (
                            "nprobe_default".to_string(),
                            Json::Num(a.default_nprobe as f64),
                        ),
                        (
                            "build_ms".to_string(),
                            Json::Num(a.build.as_secs_f64() * 1e3),
                        ),
                        (
                            "storage".to_string(),
                            Json::Str(a.storage.as_str().to_string()),
                        ),
                        ("index_bytes".to_string(), Json::Num(a.index_bytes as f64)),
                        // Added keys go last: pre-existing clients
                        // parse the object's old prefix unchanged.
                        (
                            "build_kind".to_string(),
                            Json::Str(a.build_kind.to_string()),
                        ),
                        ("dirty_rows".to_string(), Json::Num(a.dirty_rows as f64)),
                    ]),
                },
            ),
            // Per-shard break-down; null on unsharded servers, so a
            // pre-sharding client that never reads the key parses the
            // response unchanged.
            (
                "shards".to_string(),
                match &s.shards {
                    None => Json::Null,
                    Some(shards) => Json::Arr(
                        shards
                            .iter()
                            .map(|sh| {
                                Json::Obj(vec![
                                    ("shard".to_string(), Json::Num(sh.shard as f64)),
                                    ("epoch".to_string(), Json::Num(sh.epoch as f64)),
                                    ("nodes".to_string(), Json::Num(sh.nodes as f64)),
                                    ("queue_depth".to_string(), Json::Num(sh.queue_depth as f64)),
                                    (
                                        "events_accepted".to_string(),
                                        Json::Num(sh.events_accepted as f64),
                                    ),
                                    (
                                        "ann_build_ms".to_string(),
                                        match sh.ann_build {
                                            None => Json::Null,
                                            Some(build) => Json::Num(build.as_secs_f64() * 1e3),
                                        },
                                    ),
                                    (
                                        "ann_build_kind".to_string(),
                                        match sh.ann_build_kind {
                                            None => Json::Null,
                                            Some(kind) => Json::Str(kind.to_string()),
                                        },
                                    ),
                                    (
                                        "ann_dirty_rows".to_string(),
                                        match sh.ann_dirty_rows {
                                            None => Json::Null,
                                            Some(rows) => Json::Num(rows as f64),
                                        },
                                    ),
                                ])
                            })
                            .collect(),
                    ),
                },
            ),
            // Durability counters; null on in-memory servers, so a
            // pre-durability client that never reads the key parses
            // the response unchanged.
            (
                "durability".to_string(),
                match &s.durability {
                    None => Json::Null,
                    Some(d) => Json::Obj(vec![
                        ("wal_segments".to_string(), Json::Num(d.wal_segments as f64)),
                        ("wal_bytes".to_string(), Json::Num(d.wal_bytes as f64)),
                        (
                            "last_snapshot_epoch".to_string(),
                            match d.last_snapshot_epoch {
                                None => Json::Null,
                                Some(epoch) => Json::Num(epoch as f64),
                            },
                        ),
                        (
                            "last_fsync_ms".to_string(),
                            match d.last_fsync_ms {
                                None => Json::Null,
                                Some(ms) => Json::Num(ms as f64),
                            },
                        ),
                        (
                            "recovered_from".to_string(),
                            match &d.recovered_from {
                                None => Json::Null,
                                Some(from) => Json::Str(from.clone()),
                            },
                        ),
                    ]),
                },
            ),
            // Telemetry snapshot; null when the server runs without
            // instrumentation, so a pre-telemetry client that never
            // reads the key parses the response unchanged.
            (
                "telemetry".to_string(),
                match &s.telemetry {
                    None => Json::Null,
                    Some(t) => telemetry_json(t),
                },
            ),
            // Trainer health verdict; null only on stats snapshots that
            // predate the watchdog, so older clients parse unchanged.
            (
                "health".to_string(),
                match &s.health {
                    None => Json::Null,
                    Some(h) => Json::Obj(vec![
                        ("degraded".to_string(), Json::Bool(h.degraded)),
                        ("trainer_alive".to_string(), Json::Bool(h.trainer_alive)),
                        ("stale_epochs".to_string(), Json::Num(h.stale_epochs as f64)),
                        ("stalled_ms".to_string(), Json::Num(h.stalled_ms as f64)),
                    ]),
                },
            ),
            // Rebalance throttle counters; null on unsharded servers,
            // same null-compat convention as `shards`.
            (
                "rebalance".to_string(),
                match &s.rebalance {
                    None => Json::Null,
                    Some(r) => Json::Obj(vec![
                        (
                            "rebalance_batches".to_string(),
                            Json::Num(r.rebalance_batches as f64),
                        ),
                        (
                            "migrated_nodes".to_string(),
                            Json::Num(r.migrated_nodes as f64),
                        ),
                        (
                            "pending_migrations".to_string(),
                            Json::Num(r.pending_migrations as f64),
                        ),
                    ]),
                },
            ),
        ],
    )
}

/// Histogram snapshot as a JSON object (all micros).
fn hist_json(h: &HistogramSnapshot) -> Json {
    Json::Obj(vec![
        ("count".to_string(), Json::Num(h.count as f64)),
        ("sum".to_string(), Json::Num(h.sum as f64)),
        ("max".to_string(), Json::Num(h.max as f64)),
        ("p50".to_string(), Json::Num(h.p50 as f64)),
        ("p90".to_string(), Json::Num(h.p90 as f64)),
        ("p99".to_string(), Json::Num(h.p99 as f64)),
    ])
}

/// The `"telemetry"` object of the `stats` response.
fn telemetry_json(t: &TelemetryStats) -> Json {
    Json::Obj(vec![
        ("queue_depth".to_string(), Json::Num(t.queue_depth as f64)),
        (
            "queue_high_water".to_string(),
            Json::Num(t.queue_high_water as f64),
        ),
        ("queue_wait_us".to_string(), hist_json(&t.queue_wait)),
        (
            "wire_latency_us".to_string(),
            Json::Obj(
                t.wire
                    .iter()
                    .map(|(cmd, h)| ((*cmd).to_string(), hist_json(h)))
                    .collect(),
            ),
        ),
        (
            "stage_us".to_string(),
            Json::Obj(
                t.stages
                    .iter()
                    .map(|(stage, h)| ((*stage).to_string(), hist_json(h)))
                    .collect(),
            ),
        ),
        ("freshness_lag_us".to_string(), hist_json(&t.freshness)),
        (
            "durability".to_string(),
            match &t.durability {
                None => Json::Null,
                Some(d) => Json::Obj(vec![
                    ("wal_append_us".to_string(), hist_json(&d.wal_append)),
                    ("wal_fsync_us".to_string(), hist_json(&d.wal_fsync)),
                    (
                        "snapshot_write_us".to_string(),
                        hist_json(&d.snapshot_write),
                    ),
                ]),
            },
        ),
        (
            "probe".to_string(),
            match &t.probe {
                None => Json::Null,
                Some(p) => Json::Obj(vec![
                    (
                        "recall".to_string(),
                        Json::Num(p.recall_bp as f64 / 10_000.0),
                    ),
                    ("k".to_string(), Json::Num(p.k as f64)),
                    ("runs".to_string(), Json::Num(p.runs as f64)),
                    ("latency_us".to_string(), hist_json(&p.latency)),
                ]),
            },
        ),
        (
            "slow_queries".to_string(),
            Json::Arr(
                t.slow
                    .iter()
                    .map(|q| {
                        Json::Obj(vec![
                            ("cmd".to_string(), Json::Str(q.cmd.to_string())),
                            ("nodes".to_string(), Json::Num(q.nodes as f64)),
                            ("epoch".to_string(), Json::Num(q.epoch as f64)),
                            ("micros".to_string(), Json::Num(q.micros as f64)),
                        ])
                    })
                    .collect(),
            ),
        ),
    ])
}

/// Render a successful `shutdown` acknowledgement.
pub fn shutdown_line() -> String {
    ok_obj("shutdown", Vec::new())
}

#[cfg(test)]
mod tests {
    use super::*;
    use glodyne_embed::walks::splitmix64_next;

    #[test]
    fn parses_every_command() {
        assert_eq!(
            parse_request(r#"{"cmd":"query","node":7}"#).unwrap(),
            Request::Query { node: NodeId(7) }
        );
        assert_eq!(
            parse_request(r#"{"cmd":"nearest","node":7}"#).unwrap(),
            Request::Nearest {
                node: NodeId(7),
                k: DEFAULT_K,
                mode: NearestMode::Exact
            }
        );
        assert_eq!(
            parse_request(r#"{"cmd":"nearest","node":7,"k":3}"#).unwrap(),
            Request::Nearest {
                node: NodeId(7),
                k: 3,
                mode: NearestMode::Exact
            }
        );
        assert_eq!(
            parse_request(r#"{"cmd":"flush"}"#).unwrap(),
            Request::Flush { deadline_ms: None }
        );
        assert_eq!(parse_request(r#"{"cmd":"stats"}"#).unwrap(), Request::Stats);
        assert_eq!(
            parse_request(r#"{"cmd":"shutdown"}"#).unwrap(),
            Request::Shutdown
        );
    }

    #[test]
    fn nearest_modes_parse() {
        assert_eq!(
            parse_request(r#"{"cmd":"nearest","node":7,"mode":"exact"}"#).unwrap(),
            Request::Nearest {
                node: NodeId(7),
                k: DEFAULT_K,
                mode: NearestMode::Exact
            }
        );
        assert_eq!(
            parse_request(r#"{"cmd":"nearest","node":7,"mode":"ann"}"#).unwrap(),
            Request::Nearest {
                node: NodeId(7),
                k: DEFAULT_K,
                mode: NearestMode::Ann { nprobe: None }
            }
        );
        assert_eq!(
            parse_request(r#"{"cmd":"nearest","node":7,"k":3,"mode":"ann","nprobe":4}"#).unwrap(),
            Request::Nearest {
                node: NodeId(7),
                k: 3,
                mode: NearestMode::Ann { nprobe: Some(4) }
            }
        );
        for bad in [
            r#"{"cmd":"nearest","node":7,"mode":"fuzzy"}"#,
            r#"{"cmd":"nearest","node":7,"mode":7}"#,
            r#"{"cmd":"nearest","node":7,"mode":"ann","nprobe":0}"#,
            r#"{"cmd":"nearest","node":7,"mode":"ann","nprobe":"all"}"#,
            // nprobe without (or against) ann mode is an explicit error,
            // not silently ignored.
            r#"{"cmd":"nearest","node":7,"nprobe":4}"#,
            r#"{"cmd":"nearest","node":7,"mode":"exact","nprobe":4}"#,
        ] {
            let err = parse_request(bad).unwrap_err();
            assert_eq!(err.kind, ErrorKind::BadRequest, "{bad}");
        }
    }

    #[test]
    fn ingest_edges_and_events() {
        let r = parse_request(r#"{"cmd":"ingest","edges":[[0,1,3],[1,2]]}"#).unwrap();
        assert_eq!(
            r,
            Request::Ingest {
                events: vec![
                    GraphEvent::add_edge(NodeId(0), NodeId(1), 3),
                    GraphEvent::add_edge(NodeId(1), NodeId(2), 0),
                ],
                deadline_ms: None,
            }
        );
        let r = parse_request(
            r#"{"cmd":"ingest","events":[
                {"op":"add","u":0,"v":1,"t":1},
                {"op":"remove_edge","u":0,"v":1,"t":2},
                {"op":"remove_node","node":9,"t":3}]}"#
                .replace('\n', " ")
                .as_str(),
        )
        .unwrap();
        assert_eq!(
            r,
            Request::Ingest {
                events: vec![
                    GraphEvent::add_edge(NodeId(0), NodeId(1), 1),
                    GraphEvent::remove_edge(NodeId(0), NodeId(1), 2),
                    GraphEvent::remove_node(NodeId(9), 3),
                ],
                deadline_ms: None,
            }
        );
    }

    #[test]
    fn deadlines_parse_on_ingest_and_flush() {
        assert_eq!(
            parse_request(r#"{"cmd":"ingest","edges":[[0,1]],"deadline_ms":250}"#).unwrap(),
            Request::Ingest {
                events: vec![GraphEvent::add_edge(NodeId(0), NodeId(1), 0)],
                deadline_ms: Some(250),
            }
        );
        assert_eq!(
            parse_request(r#"{"cmd":"flush","deadline_ms":1000}"#).unwrap(),
            Request::Flush {
                deadline_ms: Some(1000),
            }
        );
        for bad in [
            r#"{"cmd":"flush","deadline_ms":0}"#,
            r#"{"cmd":"flush","deadline_ms":-5}"#,
            r#"{"cmd":"flush","deadline_ms":"soon"}"#,
            r#"{"cmd":"ingest","edges":[[0,1]],"deadline_ms":1.5}"#,
        ] {
            let err = parse_request(bad).unwrap_err();
            assert_eq!(err.kind, ErrorKind::BadRequest, "{bad}");
        }
    }

    #[test]
    fn overload_error_kinds_have_stable_wire_spellings() {
        assert_eq!(ErrorKind::Overloaded.as_str(), "overloaded");
        assert_eq!(ErrorKind::DeadlineExceeded.as_str(), "deadline_exceeded");
        assert_eq!(ErrorKind::Degraded.as_str(), "degraded");
        let line = error_line(&ProtocolError {
            kind: ErrorKind::Overloaded,
            message: "ingest queue overloaded (16/16)".into(),
        });
        assert!(line.contains(r#""kind":"overloaded""#), "{line}");
    }

    #[test]
    fn schema_violations_are_bad_requests() {
        for bad in [
            "null",
            "[]",
            r#"{"cmd":5}"#,
            r#"{"node":5}"#,
            r#"{"cmd":"warp"}"#,
            r#"{"cmd":"query"}"#,
            r#"{"cmd":"query","node":-1}"#,
            r#"{"cmd":"query","node":1.5}"#,
            r#"{"cmd":"query","node":4294967296}"#,
            r#"{"cmd":"nearest","node":1,"k":0}"#,
            r#"{"cmd":"nearest","node":1,"k":"many"}"#,
            r#"{"cmd":"ingest"}"#,
            r#"{"cmd":"ingest","edges":[[0,1]],"events":[{"op":"remove_node","node":5,"t":2}]}"#,
            r#"{"cmd":"ingest","edges":[[0,1,18446744073709551616]]}"#,
            r#"{"cmd":"ingest","edges":[[0]]}"#,
            r#"{"cmd":"ingest","edges":[[0,1,2,3]]}"#,
            r#"{"cmd":"ingest","edges":[[0,"x"]]}"#,
            r#"{"cmd":"ingest","events":[{"u":0,"v":1}]}"#,
            r#"{"cmd":"ingest","events":[{"op":"teleport","u":0,"v":1}]}"#,
            "not json at all",
        ] {
            let err = parse_request(bad).unwrap_err();
            assert_eq!(err.kind, ErrorKind::BadRequest, "{bad}");
        }
    }

    #[test]
    fn oversized_batch_is_rejected() {
        let mut line = String::from(r#"{"cmd":"ingest","edges":["#);
        for i in 0..(MAX_INGEST_EVENTS + 1) {
            if i > 0 {
                line.push(',');
            }
            line.push_str("[0,1]");
        }
        line.push_str("]}");
        let err = parse_request(&line).unwrap_err();
        assert!(err.message.contains("cap"), "{err}");
    }

    #[test]
    fn response_lines_are_single_line_json() {
        let lines = [
            query_line(2, NodeId(5), &[0.5, -1.0]),
            nearest_line(2, NodeId(5), &[(NodeId(7), 0.93), (NodeId(1), f32::NAN)]),
            ingest_line(14),
            flush_line(FlushOutcome {
                stepped: true,
                epoch: 3,
            }),
            shutdown_line(),
            error_line(&ProtocolError::bad("nope")),
        ];
        for line in &lines {
            assert!(!line.contains('\n'), "{line}");
            let v = json::parse(line).unwrap();
            assert!(v.get("ok").is_some(), "{line}");
        }
        assert!(lines[1].contains("[1,null]"), "NaN -> null: {}", lines[1]);
        assert!(lines[1].contains(r#""mode":"exact""#), "{}", lines[1]);
        assert!(lines[5].contains("bad_request"));
    }

    #[test]
    fn ann_response_lines_carry_mode_and_stats() {
        let line = nearest_ann_line(3, NodeId(5), &[(NodeId(7), 0.5)], 4);
        assert!(line.contains(r#""mode":"ann""#), "{line}");
        assert!(line.contains(r#""nprobe":4"#), "{line}");
        json::parse(&line).unwrap();

        let base = ServeStats {
            epoch: 2,
            nodes: 10,
            dim: 8,
            queue_depth: 0,
            queue_capacity: 16,
            queue_high_water: 0,
            events_accepted: 5,
            ann: None,
            shards: None,
            durability: None,
            telemetry: None,
            health: None,
            rebalance: None,
        };
        assert!(stats_line(&base).contains(r#""ann":null"#));
        let with_ann = ServeStats {
            ann: Some(crate::session::AnnStats {
                cells: 4,
                default_nprobe: 2,
                build: std::time::Duration::from_millis(3),
                storage: glodyne_ann::StorageMode::Sq8,
                index_bytes: 4096,
                build_kind: "full",
                dirty_rows: 17,
            }),
            ..base
        };
        let line = stats_line(&with_ann);
        assert!(
            line.contains(r#""ann":{"cells":4,"nprobe_default":2,"build_ms":3"#),
            "{line}"
        );
        assert!(line.contains(r#""storage":"sq8""#), "{line}");
        assert!(line.contains(r#""index_bytes":4096"#), "{line}");
        assert!(line.contains(r#""build_kind":"full""#), "{line}");
        assert!(line.contains(r#""dirty_rows":17"#), "{line}");
        json::parse(&line).unwrap();
    }

    /// Regression pin for the additive-keys contract: a pre-existing
    /// stats consumer that only reads the `"ann"` object's original
    /// keys (cells, nprobe_default, build_ms, storage, index_bytes)
    /// must parse a response from this server unchanged — the
    /// `build_kind`/`dirty_rows` keys are appended *after* them and
    /// never reorder or rename the old prefix.
    #[test]
    fn ann_stats_keys_stay_backward_compatible() {
        let stats = ServeStats {
            epoch: 5,
            nodes: 3,
            dim: 8,
            queue_depth: 0,
            queue_capacity: 16,
            queue_high_water: 2,
            events_accepted: 9,
            ann: Some(crate::session::AnnStats {
                cells: 8,
                default_nprobe: 3,
                build: std::time::Duration::from_millis(1),
                storage: glodyne_ann::StorageMode::F32,
                index_bytes: 128,
                build_kind: "full",
                dirty_rows: 0,
            }),
            shards: None,
            durability: None,
            telemetry: None,
            health: None,
            rebalance: None,
        };
        let line = stats_line(&stats);
        let parsed = json::parse(&line).unwrap();
        let ann = parsed.get("ann").expect("ann object present");
        // Every pre-existing key resolves exactly as before...
        for key in [
            "cells",
            "nprobe_default",
            "build_ms",
            "storage",
            "index_bytes",
        ] {
            assert!(ann.get(key).is_some(), "legacy ann key {key}: {line}");
        }
        // ...and the old prefix is byte-identical, so even a client
        // that string-matches the object head keeps working.
        assert!(
            line.contains(r#""ann":{"cells":8,"nprobe_default":3,"build_ms":1"#),
            "{line}"
        );
        assert!(ann.get("build_kind").is_some(), "{line}");
        assert!(ann.get("dirty_rows").is_some(), "{line}");
    }

    #[test]
    fn nearest_batch_parses_and_renders() {
        assert_eq!(
            parse_request(r#"{"cmd":"nearest_batch","nodes":[5,9],"k":3}"#).unwrap(),
            Request::NearestBatch {
                nodes: vec![NodeId(5), NodeId(9)],
                k: 3,
                mode: NearestMode::Exact
            }
        );
        assert_eq!(
            parse_request(r#"{"cmd":"nearest_batch","nodes":[5],"mode":"ann","nprobe":4}"#)
                .unwrap(),
            Request::NearestBatch {
                nodes: vec![NodeId(5)],
                k: DEFAULT_K,
                mode: NearestMode::Ann { nprobe: Some(4) }
            }
        );
        // An empty batch is well-formed (zero probes, zero results).
        assert_eq!(
            parse_request(r#"{"cmd":"nearest_batch","nodes":[]}"#).unwrap(),
            Request::NearestBatch {
                nodes: Vec::new(),
                k: DEFAULT_K,
                mode: NearestMode::Exact
            }
        );

        let line = nearest_batch_line(
            3,
            &[NodeId(5), NodeId(9)],
            &[Some(vec![(NodeId(7), 0.5)]), None],
            None,
        );
        assert!(!line.contains('\n'), "{line}");
        assert!(line.contains(r#""mode":"exact""#), "{line}");
        assert!(
            line.contains(r#"{"node":9,"neighbours":null}"#),
            "unknown probe renders null, not an error: {line}"
        );
        json::parse(&line).unwrap();
        let line = nearest_batch_line(3, &[NodeId(5)], &[Some(vec![])], Some(4));
        assert!(line.contains(r#""mode":"ann""#), "{line}");
        assert!(line.contains(r#""nprobe":4"#), "{line}");
        json::parse(&line).unwrap();
    }

    #[test]
    fn nearest_batch_schema_violations_are_bad_requests() {
        // The pre-batch single-probe shape against the batch command is
        // a structured bad_request that names the fix — never a panic.
        let err = parse_request(r#"{"cmd":"nearest_batch","node":5,"k":3}"#).unwrap_err();
        assert_eq!(err.kind, ErrorKind::BadRequest);
        assert!(err.message.contains("`nodes` array"), "{err}");
        for bad in [
            r#"{"cmd":"nearest_batch"}"#,
            r#"{"cmd":"nearest_batch","nodes":5}"#,
            r#"{"cmd":"nearest_batch","nodes":[5,"x"]}"#,
            r#"{"cmd":"nearest_batch","nodes":[-1]}"#,
            r#"{"cmd":"nearest_batch","nodes":[4294967296]}"#,
            r#"{"cmd":"nearest_batch","nodes":[5],"k":0}"#,
            r#"{"cmd":"nearest_batch","nodes":[5],"nprobe":4}"#,
            r#"{"cmd":"nearest_batch","nodes":[5],"mode":"fuzzy"}"#,
        ] {
            let err = parse_request(bad).unwrap_err();
            assert_eq!(err.kind, ErrorKind::BadRequest, "{bad}");
        }
        let mut line = String::from(r#"{"cmd":"nearest_batch","nodes":["#);
        for i in 0..(MAX_BATCH_NODES + 1) {
            if i > 0 {
                line.push(',');
            }
            line.push('7');
        }
        line.push_str("]}");
        let err = parse_request(&line).unwrap_err();
        assert!(err.message.contains("cap"), "{err}");
    }

    #[test]
    fn stats_shards_array_and_pre_sharding_compatibility() {
        let base = ServeStats {
            epoch: 3,
            nodes: 20,
            dim: 8,
            queue_depth: 1,
            queue_capacity: 16,
            queue_high_water: 4,
            events_accepted: 9,
            ann: None,
            shards: None,
            durability: None,
            telemetry: None,
            health: None,
            rebalance: None,
        };
        // Regression: an unsharded server renders "shards":null and
        // every pre-sharding field exactly as before, so a client
        // written against the PR 3/4 protocol parses it unchanged.
        let line = stats_line(&base);
        assert!(line.contains(r#""shards":null"#), "{line}");
        let parsed = json::parse(&line).unwrap();
        for key in [
            "epoch",
            "nodes",
            "dim",
            "queue_depth",
            "queue_capacity",
            "events_accepted",
            "ann",
        ] {
            assert!(
                parsed.get(key).is_some(),
                "pre-sharding field {key}: {line}"
            );
        }
        assert_eq!(parsed.get("shards"), Some(&Json::Null));

        let sharded = ServeStats {
            shards: Some(vec![
                crate::shard::ShardEpochStats {
                    shard: 0,
                    epoch: 3,
                    nodes: 12,
                    queue_depth: 1,
                    events_accepted: 6,
                    ann_build: Some(std::time::Duration::from_millis(2)),
                    ann_build_kind: Some("full"),
                    ann_dirty_rows: Some(0),
                },
                crate::shard::ShardEpochStats {
                    shard: 1,
                    epoch: 2,
                    nodes: 11,
                    queue_depth: 0,
                    events_accepted: 5,
                    ann_build: None,
                    ann_build_kind: None,
                    ann_dirty_rows: None,
                },
            ]),
            ..base
        };
        let line = stats_line(&sharded);
        assert!(
            line.contains(
                r#""shards":[{"shard":0,"epoch":3,"nodes":12,"queue_depth":1,"events_accepted":6,"ann_build_ms":2"#
            ),
            "{line}"
        );
        assert!(line.contains(r#""ann_build_ms":null"#), "{line}");
        json::parse(&line).unwrap();
    }

    #[test]
    fn stats_durability_object_and_pre_durability_compatibility() {
        let base = ServeStats {
            epoch: 1,
            nodes: 4,
            dim: 8,
            queue_depth: 0,
            queue_capacity: 16,
            queue_high_water: 0,
            events_accepted: 3,
            ann: None,
            shards: None,
            durability: None,
            telemetry: None,
            health: None,
            rebalance: None,
        };
        // Regression: an in-memory server renders "durability":null
        // and every pre-durability field exactly as before, so a
        // client written against the earlier protocol parses the
        // response unchanged.
        let line = stats_line(&base);
        assert!(line.contains(r#""durability":null"#), "{line}");
        let parsed = json::parse(&line).unwrap();
        for key in [
            "epoch",
            "nodes",
            "dim",
            "queue_depth",
            "queue_capacity",
            "events_accepted",
            "ann",
            "shards",
        ] {
            assert!(
                parsed.get(key).is_some(),
                "pre-durability field {key}: {line}"
            );
        }
        assert_eq!(parsed.get("durability"), Some(&Json::Null));

        let durable = ServeStats {
            durability: Some(crate::session::DurabilityStats {
                wal_segments: 3,
                wal_bytes: 4096,
                last_snapshot_epoch: Some(7),
                last_fsync_ms: None,
                recovered_from: Some("snapshot seq 40 (epoch 7) + 2 wal events".into()),
            }),
            ..base
        };
        let line = stats_line(&durable);
        assert!(
            line.contains(
                r#""durability":{"wal_segments":3,"wal_bytes":4096,"last_snapshot_epoch":7,"last_fsync_ms":null"#
            ),
            "{line}"
        );
        assert!(
            line.contains(r#""recovered_from":"snapshot seq 40 (epoch 7) + 2 wal events""#),
            "{line}"
        );
        json::parse(&line).unwrap();
    }

    #[test]
    fn metrics_command_parses() {
        assert_eq!(
            parse_request(r#"{"cmd":"metrics"}"#).unwrap(),
            Request::Metrics
        );
        // The unknown-cmd hint names the new op.
        let err = parse_request(r#"{"cmd":"warp"}"#).unwrap_err();
        assert!(err.message.contains("metrics"), "{err}");
    }

    #[test]
    fn stats_telemetry_object_and_pre_telemetry_compatibility() {
        let base = ServeStats {
            epoch: 2,
            nodes: 6,
            dim: 8,
            queue_depth: 1,
            queue_capacity: 16,
            queue_high_water: 5,
            events_accepted: 7,
            ann: None,
            shards: None,
            durability: None,
            telemetry: None,
            health: None,
            rebalance: None,
        };
        // Regression (wire compat): with telemetry disabled the
        // response renders "telemetry":null and every pre-telemetry
        // field exactly as before, so an older client parses it
        // unchanged.
        let line = stats_line(&base);
        assert!(line.contains(r#""telemetry":null"#), "{line}");
        assert!(line.contains(r#""queue_high_water":5"#), "{line}");
        let parsed = json::parse(&line).unwrap();
        for key in [
            "epoch",
            "nodes",
            "dim",
            "queue_depth",
            "queue_capacity",
            "events_accepted",
            "ann",
            "shards",
            "durability",
        ] {
            assert!(
                parsed.get(key).is_some(),
                "pre-telemetry field {key}: {line}"
            );
        }
        assert_eq!(parsed.get("telemetry"), Some(&Json::Null));

        // An instrumented server inlines the full snapshot.
        let hub = crate::telemetry::ServeTelemetry::new(100);
        hub.observe_request("nearest", 1, 2, 250);
        let _timing = hub.durable_timing();
        let instrumented = ServeStats {
            telemetry: Some(hub.stats(1, 5)),
            ..base
        };
        let line = stats_line(&instrumented);
        let parsed = json::parse(&line).unwrap();
        let t = parsed.get("telemetry").expect("telemetry object");
        assert!(t.get("queue_wait_us").is_some(), "{line}");
        assert!(t.get("freshness_lag_us").is_some(), "{line}");
        assert!(
            t.get("wire_latency_us")
                .and_then(|w| w.get("nearest"))
                .and_then(|h| h.get("count"))
                .and_then(Json::as_u64)
                == Some(1),
            "{line}"
        );
        assert!(
            t.get("stage_us").and_then(|s| s.get("train")).is_some(),
            "{line}"
        );
        assert!(
            t.get("durability")
                .and_then(|d| d.get("wal_fsync_us"))
                .is_some(),
            "{line}"
        );
        assert_eq!(t.get("probe"), Some(&Json::Null), "no probe attached");
        // The over-threshold request landed in the slow ring.
        let slow = t.get("slow_queries").and_then(Json::as_arr).unwrap();
        assert_eq!(slow.len(), 1, "{line}");
        assert!(
            slow[0].get("micros").and_then(Json::as_u64) == Some(250),
            "{line}"
        );
    }

    #[test]
    fn stats_health_and_rebalance_objects_and_compatibility() {
        let base = ServeStats {
            epoch: 2,
            nodes: 6,
            dim: 8,
            queue_depth: 1,
            queue_capacity: 16,
            queue_high_water: 5,
            events_accepted: 7,
            ann: None,
            shards: None,
            durability: None,
            telemetry: None,
            health: None,
            rebalance: None,
        };
        // Regression (wire compat): both new keys render null when
        // absent, appended after every pre-watchdog field, so older
        // clients parse the response unchanged.
        let line = stats_line(&base);
        assert!(line.contains(r#""health":null"#), "{line}");
        assert!(line.contains(r#""rebalance":null"#), "{line}");
        let parsed = json::parse(&line).unwrap();
        for key in [
            "epoch",
            "nodes",
            "dim",
            "queue_depth",
            "queue_capacity",
            "events_accepted",
            "ann",
            "shards",
            "durability",
            "telemetry",
        ] {
            assert!(
                parsed.get(key).is_some(),
                "pre-watchdog field {key}: {line}"
            );
        }

        let live = ServeStats {
            health: Some(crate::session::HealthStats {
                degraded: true,
                trainer_alive: false,
                stale_epochs: 3,
                stalled_ms: 1200,
            }),
            rebalance: Some(crate::session::RebalanceStats {
                rebalance_batches: 2,
                migrated_nodes: 40,
                pending_migrations: 5,
            }),
            ..base
        };
        let line = stats_line(&live);
        assert!(
            line.contains(
                r#""health":{"degraded":true,"trainer_alive":false,"stale_epochs":3,"stalled_ms":1200}"#
            ),
            "{line}"
        );
        assert!(
            line.contains(
                r#""rebalance":{"rebalance_batches":2,"migrated_nodes":40,"pending_migrations":5}"#
            ),
            "{line}"
        );
        json::parse(&line).unwrap();
    }

    /// Half raw bit patterns (NaN, infinities and subnormals included),
    /// half values in [-1, 1) like the similarities and vector entries
    /// a server sends.
    fn random_f32(state: &mut u64) -> f32 {
        let r = splitmix64_next(state);
        if r & 1 == 0 {
            f32::from_bits((r >> 32) as u32)
        } else {
            ((r >> 40) as f32 / (1u64 << 24) as f32) * 2.0 - 1.0
        }
    }

    /// Epochs, ids and probe widths below 2^53: the reference carried
    /// every integer as an `f64`, which is exact only up to there.
    fn random_int(state: &mut u64) -> u64 {
        splitmix64_next(state) >> (11 + splitmix64_next(state) % 53)
    }

    fn random_hits(state: &mut u64, len: usize) -> Vec<(NodeId, f32)> {
        (0..len)
            .map(|_| (NodeId(splitmix64_next(state) as u32), random_f32(state)))
            .collect()
    }

    fn write_f32_str(x: f32) -> String {
        let mut out = String::new();
        json::write_f32(&mut out, x);
        out
    }

    /// Every hot reply writer is byte-equal to the `Json`-tree encoder
    /// it replaced, over random epochs, ids, vectors and hit lists.
    #[test]
    fn reply_writers_match_the_json_tree_reference() {
        let mut state = 41;
        for _ in 0..200 {
            let epoch = random_int(&mut state);
            let node = NodeId(splitmix64_next(&mut state) as u32);
            let nprobe = Some(random_int(&mut state) as usize);
            for len in [0, 1, 64] {
                let vector: Vec<f32> = (0..len).map(|_| random_f32(&mut state)).collect();
                assert_eq!(
                    query_line(epoch, node, &vector),
                    reference::query_line(epoch, node, &vector)
                );
            }
            for len in [0, 10] {
                let hits = random_hits(&mut state, len);
                for nprobe in [None, nprobe] {
                    let mut out = String::new();
                    write_nearest(&mut out, epoch, node, &hits, nprobe);
                    assert_eq!(
                        out,
                        reference::nearest_line_with(epoch, node, &hits, nprobe)
                    );
                }
                assert_eq!(
                    nearest_line(epoch, node, &hits),
                    reference::nearest_line_with(epoch, node, &hits, None)
                );
                assert_eq!(
                    nearest_ann_line(epoch, node, &hits, 4),
                    reference::nearest_line_with(epoch, node, &hits, Some(4))
                );
            }
            let probes = (splitmix64_next(&mut state) % 6) as usize;
            let nodes: Vec<NodeId> = (0..probes)
                .map(|_| NodeId(splitmix64_next(&mut state) as u32))
                .collect();
            let results: Vec<Option<Vec<(NodeId, f32)>>> = (0..probes)
                .map(|_| match splitmix64_next(&mut state) % 3 {
                    0 => None,
                    1 => Some(Vec::new()),
                    _ => Some(random_hits(&mut state, 10)),
                })
                .collect();
            for nprobe in [None, nprobe] {
                assert_eq!(
                    nearest_batch_line(epoch, &nodes, &results, nprobe),
                    reference::nearest_batch_line(epoch, &nodes, &results, nprobe)
                );
            }
        }
    }

    #[test]
    fn special_floats_match_the_reference() {
        let mut specials = vec![
            f32::NAN,
            -f32::NAN,
            f32::INFINITY,
            f32::NEG_INFINITY,
            0.0,
            -0.0,
            f32::from_bits(1),
            -f32::from_bits(1),
            f32::from_bits(0x007F_FFFF),
            f32::MIN_POSITIVE,
            -f32::MIN_POSITIVE,
            f32::MAX,
            f32::MIN,
            f32::EPSILON,
            1.0,
            -1.0,
        ];
        for centre in [1e-7f32, -1e-7, 1e7, -1e7] {
            let bits = centre.to_bits();
            specials.extend((bits - 64..=bits + 64).map(f32::from_bits));
        }
        for &x in &specials {
            assert_eq!(
                write_f32_str(x),
                reference::num_f32(x).to_string(),
                "bits {:#010x}",
                x.to_bits()
            );
        }
        let hits: Vec<(NodeId, f32)> = specials.iter().map(|&x| (NodeId(3), x)).collect();
        assert_eq!(
            query_line(1, NodeId(2), &specials),
            reference::query_line(1, NodeId(2), &specials)
        );
        assert_eq!(
            nearest_line(1, NodeId(2), &hits),
            reference::nearest_line_with(1, NodeId(2), &hits, None)
        );
    }

    /// The f32 writer against the reference's format → parse → format
    /// round trip on every `stride`-th bit pattern from `start` to `end`;
    /// returns how many finite values it compared.
    fn sweep_f32_bits(start: u32, end: u32, stride: usize) -> usize {
        let mut compared = 0;
        let mut out = String::new();
        for bits in (start..=end).step_by(stride) {
            let x = f32::from_bits(bits);
            if !x.is_finite() {
                continue;
            }
            out.clear();
            json::write_f32(&mut out, x);
            assert_eq!(out, reference::num_f32(x).to_string(), "bits {bits:#010x}");
            compared += 1;
        }
        compared
    }

    #[test]
    fn f32_writer_matches_the_reference_on_a_strided_sweep() {
        assert!(sweep_f32_bits(0, u32::MAX, 4_099) > 1_000_000);
    }

    /// About 42M finite bit patterns plus 11M values in the similarity
    /// range; run optimised with
    /// `cargo test --release -p glodyne-serve --lib -- --ignored f32_writer_matches_the_reference_on_a_wide_sweep`.
    #[test]
    #[ignore = "wide sweep: ~40 s optimised"]
    fn f32_writer_matches_the_reference_on_a_wide_sweep() {
        assert!(sweep_f32_bits(0, u32::MAX, 101) > 42_000_000);
        assert!(sweep_f32_bits(0.01f32.to_bits(), 0.9f32.to_bits(), 5) > 10_000_000);
    }
}

/// The `Json`-tree encoders the direct reply writers replaced: the byte
/// reference the writers are pinned to.
#[cfg(test)]
mod reference {
    use super::*;

    /// The old `f32` number: format, re-parse as `f64`, format again.
    pub(super) fn num_f32(x: f32) -> Json {
        if x.is_finite() {
            Json::Num(format!("{x}").parse().unwrap_or(x as f64))
        } else {
            Json::Null
        }
    }

    pub(super) fn query_line(epoch: u64, node: NodeId, vector: &[f32]) -> String {
        ok_obj(
            "query",
            vec![
                ("epoch".to_string(), Json::Num(epoch as f64)),
                ("node".to_string(), Json::Num(node.0 as f64)),
                (
                    "vector".to_string(),
                    Json::Arr(vector.iter().map(|&x| num_f32(x)).collect()),
                ),
            ],
        )
    }

    fn hits_json(hits: &[(NodeId, f32)]) -> Json {
        Json::Arr(
            hits.iter()
                .map(|&(id, sim)| Json::Arr(vec![Json::Num(id.0 as f64), num_f32(sim)]))
                .collect(),
        )
    }

    fn mode_pairs(nprobe: Option<usize>) -> Vec<(String, Json)> {
        let mut pairs = vec![(
            "mode".to_string(),
            Json::Str(if nprobe.is_some() { "ann" } else { "exact" }.to_string()),
        )];
        if let Some(nprobe) = nprobe {
            pairs.push(("nprobe".to_string(), Json::Num(nprobe as f64)));
        }
        pairs
    }

    pub(super) fn nearest_line_with(
        epoch: u64,
        node: NodeId,
        neighbours: &[(NodeId, f32)],
        nprobe: Option<usize>,
    ) -> String {
        let mut rest = vec![
            ("epoch".to_string(), Json::Num(epoch as f64)),
            ("node".to_string(), Json::Num(node.0 as f64)),
        ];
        rest.extend(mode_pairs(nprobe));
        rest.push(("neighbours".to_string(), hits_json(neighbours)));
        ok_obj("nearest", rest)
    }

    pub(super) fn nearest_batch_line(
        epoch: u64,
        nodes: &[NodeId],
        results: &[Option<Vec<(NodeId, f32)>>],
        nprobe: Option<usize>,
    ) -> String {
        let mut rest = vec![("epoch".to_string(), Json::Num(epoch as f64))];
        rest.extend(mode_pairs(nprobe));
        rest.push((
            "results".to_string(),
            Json::Arr(
                nodes
                    .iter()
                    .zip(results)
                    .map(|(&node, hits)| {
                        Json::Obj(vec![
                            ("node".to_string(), Json::Num(node.0 as f64)),
                            (
                                "neighbours".to_string(),
                                match hits {
                                    None => Json::Null,
                                    Some(hits) => hits_json(hits),
                                },
                            ),
                        ])
                    })
                    .collect(),
            ),
        ));
        ok_obj("nearest_batch", rest)
    }
}
