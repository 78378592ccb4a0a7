//! End-to-end smoke test over a real `TcpStream`: spawn the server,
//! speak the wire protocol — ingest, flush, query, nearest, stats,
//! errors — and shut it down cleanly.

use glodyne::IvfConfig;
use glodyne::{EmbedderSession, EpochPolicy, GloDyNE, GloDyNEConfig};
use glodyne_embed::walks::WalkConfig;
use glodyne_embed::SgnsConfig;
use glodyne_serve::json::Json;
use glodyne_serve::{json, AnnSettings, Server, ServerConfig};
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::time::Duration;

fn tiny_session() -> EmbedderSession<GloDyNE> {
    let cfg = GloDyNEConfig {
        alpha: 0.5,
        walk: WalkConfig {
            walks_per_node: 2,
            walk_length: 8,
            seed: 3,
        },
        sgns: SgnsConfig {
            dim: 8,
            window: 2,
            negatives: 2,
            epochs: 1,
            parallel: false,
            ..Default::default()
        },
        ..Default::default()
    };
    EmbedderSession::new(GloDyNE::new(cfg).unwrap(), EpochPolicy::Manual).unwrap()
}

struct Client {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
}

impl Client {
    fn connect(addr: std::net::SocketAddr) -> Client {
        let stream = TcpStream::connect(addr).expect("connect");
        stream
            .set_read_timeout(Some(Duration::from_secs(30)))
            .unwrap();
        Client {
            reader: BufReader::new(stream.try_clone().unwrap()),
            writer: stream,
        }
    }

    /// Send one request line, read one response line, parse it.
    fn round_trip(&mut self, request: &str) -> Json {
        self.writer.write_all(request.as_bytes()).unwrap();
        self.writer.write_all(b"\n").unwrap();
        self.writer.flush().unwrap();
        let mut line = String::new();
        self.reader.read_line(&mut line).expect("read response");
        json::parse(line.trim_end()).unwrap_or_else(|e| panic!("bad response {line:?}: {e}"))
    }

    /// Read one raw response line, newline stripped.
    fn recv_line(&mut self) -> String {
        let mut line = String::new();
        self.reader.read_line(&mut line).expect("read response");
        assert!(line.ends_with('\n'), "unterminated response {line:?}");
        line.pop();
        line
    }
}

fn field_u64(v: &Json, key: &str) -> u64 {
    v.get(key)
        .and_then(Json::as_u64)
        .unwrap_or_else(|| panic!("missing {key} in {v}"))
}

fn is_ok(v: &Json) -> bool {
    v.get("ok") == Some(&Json::Bool(true))
}

#[test]
fn full_wire_session() {
    let server = Server::bind(tiny_session(), "127.0.0.1:0", ServerConfig::default()).unwrap();
    let addr = server.local_addr();
    let mut client = Client::connect(addr);

    // Fresh server: epoch 0, nothing embedded.
    let stats = client.round_trip(r#"{"cmd":"stats"}"#);
    assert!(is_ok(&stats), "{stats}");
    assert_eq!(field_u64(&stats, "epoch"), 0);
    assert_eq!(field_u64(&stats, "nodes"), 0);

    // Queries against the empty epoch are structured not_found errors.
    let miss = client.round_trip(r#"{"cmd":"query","node":0}"#);
    assert!(!is_ok(&miss));
    assert_eq!(miss.get("kind").and_then(Json::as_str), Some("not_found"));

    // Ingest a path graph, commit it.
    let ingest =
        client.round_trip(r#"{"cmd":"ingest","edges":[[0,1,0],[1,2,0],[2,3,0],[3,4,0],[4,5,0]]}"#);
    assert!(is_ok(&ingest), "{ingest}");
    assert_eq!(field_u64(&ingest, "accepted"), 5);
    let flush = client.round_trip(r#"{"cmd":"flush"}"#);
    assert!(is_ok(&flush), "{flush}");
    assert_eq!(flush.get("stepped"), Some(&Json::Bool(true)));
    assert_eq!(field_u64(&flush, "epoch"), 1);

    // Reads now answer from epoch 1.
    let q = client.round_trip(r#"{"cmd":"query","node":2}"#);
    assert!(is_ok(&q), "{q}");
    assert_eq!(field_u64(&q, "epoch"), 1);
    let vector = q.get("vector").and_then(Json::as_arr).unwrap();
    assert_eq!(vector.len(), 8);

    let near = client.round_trip(r#"{"cmd":"nearest","node":2,"k":3}"#);
    assert!(is_ok(&near), "{near}");
    assert_eq!(near.get("mode").and_then(Json::as_str), Some("exact"));
    let neighbours = near.get("neighbours").and_then(Json::as_arr).unwrap();
    assert!(!neighbours.is_empty() && neighbours.len() <= 3);
    for pair in neighbours {
        let pair = pair.as_arr().unwrap();
        assert_ne!(pair[0].as_u64(), Some(2), "self must be excluded");
    }

    // ANN mode on a server started without --ann is a structured
    // `unavailable` error, and the stats ann block is null.
    let ann = client.round_trip(r#"{"cmd":"nearest","node":2,"mode":"ann"}"#);
    assert!(!is_ok(&ann));
    assert_eq!(ann.get("kind").and_then(Json::as_str), Some("unavailable"));
    // ...but an *unknown* node is still `not_found` first, exactly as
    // pre-ANN clients observed it (regression: the existence check
    // precedes the capability check).
    let ann_miss = client.round_trip(r#"{"cmd":"nearest","node":404,"mode":"ann"}"#);
    assert_eq!(
        ann_miss.get("kind").and_then(Json::as_str),
        Some("not_found"),
        "{ann_miss}"
    );
    let stats = client.round_trip(r#"{"cmd":"stats"}"#);
    assert_eq!(stats.get("ann"), Some(&Json::Null), "{stats}");

    // Malformed requests keep the connection alive with structured
    // errors.
    let bad = client.round_trip("{nope");
    assert_eq!(bad.get("kind").and_then(Json::as_str), Some("bad_request"));
    let bad = client.round_trip(r#"{"cmd":"ingest","edges":[[0]]}"#);
    assert_eq!(bad.get("kind").and_then(Json::as_str), Some("bad_request"));

    // An oversized line is refused and the stream resynchronises.
    let huge = format!(
        r#"{{"cmd":"query","pad":"{}","node":2}}"#,
        "x".repeat(glodyne_serve::protocol::MAX_LINE_BYTES)
    );
    let too_large = client.round_trip(&huge);
    assert_eq!(
        too_large.get("kind").and_then(Json::as_str),
        Some("too_large")
    );
    let q = client.round_trip(r#"{"cmd":"query","node":2}"#);
    assert!(is_ok(&q), "connection must survive an oversized line: {q}");

    // A second concurrent client sees the same epoch.
    let mut other = Client::connect(addr);
    let stats = other.round_trip(r#"{"cmd":"stats"}"#);
    assert_eq!(field_u64(&stats, "epoch"), 1);
    assert_eq!(field_u64(&stats, "events_accepted"), 5);

    // Graceful shutdown: acknowledged, then the server exits.
    let bye = client.round_trip(r#"{"cmd":"shutdown"}"#);
    assert!(is_ok(&bye), "{bye}");
    let served = server.join();
    assert!(served >= 2, "two real connections were accepted");

    // Connections made after shutdown are refused (the listener is
    // closed once join returns).
    assert!(TcpStream::connect(addr).is_err());
}

#[test]
fn ann_mode_over_the_wire() {
    let cfg = ServerConfig {
        ann: Some(AnnSettings {
            config: IvfConfig {
                cells: 4,
                ..Default::default()
            },
            default_nprobe: 2,
        }),
        ..ServerConfig::default()
    };
    let server = Server::bind(tiny_session(), "127.0.0.1:0", cfg).unwrap();
    let mut client = Client::connect(server.local_addr());

    client.round_trip(
        r#"{"cmd":"ingest","edges":[[0,1,0],[1,2,0],[2,3,0],[3,4,0],[4,5,0],[5,6,0],[6,7,0]]}"#,
    );
    let flush = client.round_trip(r#"{"cmd":"flush"}"#);
    assert!(is_ok(&flush), "{flush}");

    // ANN at full probe width must agree exactly with the exact path
    // (shared similarity kernel, shared merge order).
    let exact = client.round_trip(r#"{"cmd":"nearest","node":3,"k":4}"#);
    assert!(is_ok(&exact), "{exact}");
    let ann = client.round_trip(r#"{"cmd":"nearest","node":3,"k":4,"mode":"ann","nprobe":4}"#);
    assert!(is_ok(&ann), "{ann}");
    assert_eq!(ann.get("mode").and_then(Json::as_str), Some("ann"));
    assert_eq!(field_u64(&ann, "nprobe"), 4);
    assert_eq!(
        ann.get("neighbours"),
        exact.get("neighbours"),
        "full probe == exact scan:\n{ann}\n{exact}"
    );

    // Default nprobe comes from the server settings.
    let ann = client.round_trip(r#"{"cmd":"nearest","node":3,"mode":"ann"}"#);
    assert!(is_ok(&ann), "{ann}");
    assert_eq!(field_u64(&ann, "nprobe"), 2, "server default nprobe");

    // An oversized request nprobe is clamped to the cell count and the
    // response echoes the *effective* width, not the request.
    let ann = client.round_trip(r#"{"cmd":"nearest","node":3,"mode":"ann","nprobe":1000}"#);
    assert!(is_ok(&ann), "{ann}");
    assert_eq!(field_u64(&ann, "nprobe"), 4, "clamped to cells");

    // Stats surface the published index's parameters and build cost.
    let stats = client.round_trip(r#"{"cmd":"stats"}"#);
    let ann_stats = stats.get("ann").expect("ann stats present");
    assert_eq!(ann_stats.get("cells").and_then(Json::as_u64), Some(4));
    assert_eq!(
        ann_stats.get("nprobe_default").and_then(Json::as_u64),
        Some(2)
    );
    assert!(
        ann_stats.get("build_ms").and_then(Json::as_f64).is_some(),
        "{stats}"
    );

    let bye = client.round_trip(r#"{"cmd":"shutdown"}"#);
    assert!(is_ok(&bye));
    server.join();

    // Degenerate ANN settings are rejected at bind, before any socket
    // or trainer exists.
    let bad = ServerConfig {
        ann: Some(AnnSettings {
            config: IvfConfig {
                cells: 0,
                ..Default::default()
            },
            default_nprobe: 2,
        }),
        ..ServerConfig::default()
    };
    assert!(matches!(
        Server::bind(tiny_session(), "127.0.0.1:0", bad),
        Err(glodyne_serve::ServeError::Config(_))
    ));
}

#[test]
fn writes_after_shutdown_are_structured_errors() {
    let server = Server::bind(tiny_session(), "127.0.0.1:0", ServerConfig::default()).unwrap();
    let addr = server.local_addr();
    let mut a = Client::connect(addr);
    let mut b = Client::connect(addr);
    a.round_trip(r#"{"cmd":"ingest","edges":[[0,1,0],[1,2,0],[2,3,0]]}"#);
    a.round_trip(r#"{"cmd":"flush"}"#);

    // Client A shuts the server down; client B's connection stays open.
    let bye = a.round_trip(r#"{"cmd":"shutdown"}"#);
    assert!(is_ok(&bye));
    let served = server.join();
    assert_eq!(served, 2);

    // B can still read from the final epoch, but writes are refused.
    let q = b.round_trip(r#"{"cmd":"query","node":1}"#);
    assert!(is_ok(&q), "reads survive shutdown: {q}");
    assert_eq!(field_u64(&q, "epoch"), 1);
    let ingest = b.round_trip(r#"{"cmd":"ingest","edges":[[7,8,1]]}"#);
    assert_eq!(
        ingest.get("kind").and_then(Json::as_str),
        Some("shutting_down"),
        "{ingest}"
    );
    let flush = b.round_trip(r#"{"cmd":"flush"}"#);
    assert_eq!(
        flush.get("kind").and_then(Json::as_str),
        Some("shutting_down")
    );
}

#[test]
fn sharded_wire_session() {
    use glodyne_shard::ShardConfig;
    // Two communities + a bridge, served by a 2-shard backend over the
    // same wire protocol.
    let sessions = vec![tiny_session(), tiny_session()];
    let server = Server::bind_sharded(
        sessions,
        ShardConfig {
            shards: 2,
            min_partition_nodes: 8,
            ..Default::default()
        },
        "127.0.0.1:0",
        ServerConfig::default(),
    )
    .unwrap();
    let mut client = Client::connect(server.local_addr());

    // Fresh sharded server: the shards array is present (and empty-ish),
    // pre-sharding fields intact.
    let stats = client.round_trip(r#"{"cmd":"stats"}"#);
    assert!(is_ok(&stats), "{stats}");
    let shards = stats.get("shards").and_then(Json::as_arr).unwrap();
    assert_eq!(shards.len(), 2);

    // Ingest two 6-cliques plus one bridge.
    let mut edges = Vec::new();
    for c in 0..2u32 {
        let base = c * 6;
        for i in 0..6 {
            for j in (i + 1)..6 {
                edges.push(format!("[{},{},0]", base + i, base + j));
            }
        }
    }
    edges.push("[0,6,0]".to_string());
    let ingest = client.round_trip(&format!(
        r#"{{"cmd":"ingest","edges":[{}]}}"#,
        edges.join(",")
    ));
    assert!(is_ok(&ingest), "{ingest}");
    assert_eq!(field_u64(&ingest, "accepted"), edges.len() as u64);

    let flush = client.round_trip(r#"{"cmd":"flush"}"#);
    assert!(is_ok(&flush), "{flush}");
    assert_eq!(flush.get("stepped"), Some(&Json::Bool(true)));

    // Every node queries through its owner shard.
    for n in 0..12u32 {
        let q = client.round_trip(&format!(r#"{{"cmd":"query","node":{n}}}"#));
        assert!(is_ok(&q), "node {n}: {q}");
    }
    // Global fan-out nearest: well-formed, self-excluded.
    let near = client.round_trip(r#"{"cmd":"nearest","node":2,"k":4}"#);
    assert!(is_ok(&near), "{near}");
    let hits = near.get("neighbours").and_then(Json::as_arr).unwrap();
    assert!(!hits.is_empty() && hits.len() <= 4);

    // Unknown node: structured not_found, same as unsharded.
    let miss = client.round_trip(r#"{"cmd":"query","node":404}"#);
    assert_eq!(miss.get("kind").and_then(Json::as_str), Some("not_found"));
    // ANN mode without --ann: structured unavailable, same as unsharded.
    let ann = client.round_trip(r#"{"cmd":"nearest","node":2,"mode":"ann"}"#);
    assert_eq!(ann.get("kind").and_then(Json::as_str), Some("unavailable"));
    // Unknown node in ANN mode: not_found wins over unavailable.
    let ann_miss = client.round_trip(r#"{"cmd":"nearest","node":404,"mode":"ann"}"#);
    assert_eq!(
        ann_miss.get("kind").and_then(Json::as_str),
        Some("not_found")
    );

    // Stats now carry per-shard epochs/nodes and the live node count.
    let stats = client.round_trip(r#"{"cmd":"stats"}"#);
    assert_eq!(field_u64(&stats, "nodes"), 12);
    let shards = stats.get("shards").and_then(Json::as_arr).unwrap();
    for sh in shards {
        assert!(sh.get("epoch").is_some());
        assert!(sh.get("nodes").is_some());
        assert!(sh.get("queue_depth").is_some());
        assert!(sh.get("ann_build_ms").is_some());
    }

    let bye = client.round_trip(r#"{"cmd":"shutdown"}"#);
    assert!(is_ok(&bye));
    server.join();
}

/// A pipeline of hot reads, error paths and a cold reply sent in one
/// write gets, line for line, the replies the same requests get one at
/// a time on fresh connections: the connection's reused request and
/// reply buffers carry nothing from one line into the next.
#[test]
fn pipelined_replies_equal_one_at_a_time_replies() {
    let max_line = 256;
    let cfg = ServerConfig {
        max_line_bytes: max_line,
        ann: Some(AnnSettings {
            config: IvfConfig {
                cells: 4,
                ..Default::default()
            },
            default_nprobe: 2,
        }),
        ..ServerConfig::default()
    };
    let server = Server::bind(tiny_session(), "127.0.0.1:0", cfg).unwrap();
    let addr = server.local_addr();
    let mut client = Client::connect(addr);
    client.round_trip(
        r#"{"cmd":"ingest","edges":[[0,1,0],[1,2,0],[2,3,0],[3,4,0],[4,5,0],[5,6,0],[6,7,0]]}"#,
    );
    let flush = client.round_trip(r#"{"cmd":"flush"}"#);
    assert!(is_ok(&flush), "{flush}");

    let over_cap = format!(
        r#"{{"cmd":"query","pad":"{}","node":2}}"#,
        "x".repeat(max_line)
    );
    let requests = [
        r#"{"cmd":"query","node":2}"#,
        r#"{"cmd":"nearest","node":3,"k":4}"#,
        r#"{"cmd":"nearest","node":3,"k":4,"mode":"ann","nprobe":2}"#,
        r#"{"cmd":"nearest_batch","nodes":[1,404,5],"k":3}"#,
        r#"{"cmd":"query","node":404}"#,
        "{nope",
        over_cap.as_str(),
        r#"{"cmd":"stats"}"#,
    ];
    let alone: Vec<String> = requests
        .iter()
        .map(|request| {
            let mut one = Client::connect(addr);
            one.writer
                .write_all(format!("{request}\n").as_bytes())
                .unwrap();
            one.recv_line()
        })
        .collect();
    let kinds: Vec<Option<String>> = alone
        .iter()
        .map(|line| {
            let v = json::parse(line).unwrap_or_else(|e| panic!("{line}: {e}"));
            v.get("kind").and_then(Json::as_str).map(str::to_string)
        })
        .collect();
    assert_eq!(
        kinds,
        [
            None,
            None,
            None,
            None,
            Some("not_found".to_string()),
            Some("bad_request".to_string()),
            Some("too_large".to_string()),
            None,
        ],
        "{alone:#?}"
    );
    assert!(
        alone[2].contains(r#""mode":"ann","nprobe":2"#),
        "{}",
        alone[2]
    );
    assert!(
        alone[3].contains(r#"{"node":404,"neighbours":null}"#),
        "{}",
        alone[3]
    );

    let mut pipelined = Client::connect(addr);
    let batch: String = requests.iter().map(|r| format!("{r}\n")).collect();
    pipelined.writer.write_all(batch.as_bytes()).unwrap();
    for (request, expected) in requests.iter().zip(&alone) {
        assert_eq!(&pipelined.recv_line(), expected, "reply to {request}");
    }

    let bye = client.round_trip(r#"{"cmd":"shutdown"}"#);
    assert!(is_ok(&bye));
    server.join();
}
