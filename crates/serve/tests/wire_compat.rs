//! Wire-compatibility regression: a client written against the
//! pre-batch protocol (single `nearest`, exact and ANN) must observe
//! byte-identical behaviour, and the new `nearest_batch` command must
//! degrade to structured errors — never a panic or a dropped
//! connection — when fed the old single-probe request shape.

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

    fn round_trip(&mut self, request: &str) -> Json {
        self.writer.write_all(request.as_bytes()).unwrap();
        self.writer.write_all(b"\n").unwrap();
        self.writer.flush().unwrap();
        let mut line = String::new();
        self.reader.read_line(&mut line).expect("read response");
        json::parse(line.trim_end()).unwrap_or_else(|e| panic!("bad response {line:?}: {e}"))
    }
}

fn is_ok(v: &Json) -> bool {
    v.get("ok") == Some(&Json::Bool(true))
}

fn kind(v: &Json) -> Option<&str> {
    v.get("kind").and_then(Json::as_str)
}

/// Start an ANN-enabled (optionally SQ8) server over a small path
/// graph, committed once.
fn ann_server(quantize: bool) -> Server {
    let cfg = ServerConfig {
        ann: Some(AnnSettings {
            config: IvfConfig {
                cells: 4,
                quantize,
                ..Default::default()
            },
            default_nprobe: 2,
        }),
        ..ServerConfig::default()
    };
    let server = Server::bind(tiny_session(), "127.0.0.1:0", cfg).unwrap();
    let mut client = Client::connect(server.local_addr());
    let ingest = client.round_trip(
        r#"{"cmd":"ingest","edges":[[0,1,0],[1,2,0],[2,3,0],[3,4,0],[4,5,0],[5,6,0],[6,7,0]]}"#,
    );
    assert!(is_ok(&ingest), "{ingest}");
    let flush = client.round_trip(r#"{"cmd":"flush"}"#);
    assert!(is_ok(&flush), "{flush}");
    server
}

#[test]
fn pre_batch_single_nearest_is_unchanged() {
    for quantize in [false, true] {
        let server = ann_server(quantize);
        let mut client = Client::connect(server.local_addr());

        // Exact single nearest: same shape as before the batch op —
        // top-level node, mode, neighbours; no `results` array.
        let near = client.round_trip(r#"{"cmd":"nearest","node":2,"k":3}"#);
        assert!(is_ok(&near), "{near}");
        assert_eq!(near.get("mode").and_then(Json::as_str), Some("exact"));
        assert_eq!(near.get("node").and_then(Json::as_u64), Some(2));
        assert!(near.get("results").is_none(), "{near}");
        let hits = near.get("neighbours").and_then(Json::as_arr).unwrap();
        assert!(!hits.is_empty() && hits.len() <= 3, "{near}");

        // ANN single nearest: mode/nprobe echoed exactly as before.
        let ann = client.round_trip(r#"{"cmd":"nearest","node":2,"k":3,"mode":"ann","nprobe":4}"#);
        assert!(is_ok(&ann), "{ann}");
        assert_eq!(ann.get("mode").and_then(Json::as_str), Some("ann"));
        assert_eq!(ann.get("nprobe").and_then(Json::as_u64), Some(4));
        assert!(ann.get("neighbours").and_then(Json::as_arr).is_some());

        // Unknown node: structured not_found, both modes, connection
        // kept.
        let miss = client.round_trip(r#"{"cmd":"nearest","node":404}"#);
        assert_eq!(kind(&miss), Some("not_found"), "{miss}");
        let miss = client.round_trip(r#"{"cmd":"nearest","node":404,"mode":"ann"}"#);
        assert_eq!(kind(&miss), Some("not_found"), "{miss}");

        let bye = client.round_trip(r#"{"cmd":"shutdown"}"#);
        assert!(is_ok(&bye));
        server.join();
    }
}

#[test]
fn old_shaped_nearest_batch_is_a_structured_bad_request() {
    let server = ann_server(false);
    let mut client = Client::connect(server.local_addr());

    // The single-probe shape against the batch command: a bad_request
    // naming the `nodes` array — never a panic, never a hangup.
    let old = client.round_trip(r#"{"cmd":"nearest_batch","node":5,"k":3}"#);
    assert!(!is_ok(&old), "{old}");
    assert_eq!(kind(&old), Some("bad_request"), "{old}");
    assert!(
        old.get("error")
            .and_then(Json::as_str)
            .is_some_and(|m| m.contains("`nodes` array")),
        "{old}"
    );

    // More malformed batches: every one a structured error with the
    // connection intact afterwards.
    for bad in [
        r#"{"cmd":"nearest_batch"}"#,
        r#"{"cmd":"nearest_batch","nodes":3}"#,
        r#"{"cmd":"nearest_batch","nodes":[3,"x"]}"#,
        r#"{"cmd":"nearest_batch","nodes":[3],"k":0}"#,
        r#"{"cmd":"nearest_batch","nodes":[3],"nprobe":2}"#,
    ] {
        let resp = client.round_trip(bad);
        assert_eq!(kind(&resp), Some("bad_request"), "{bad} -> {resp}");
    }
    let alive = client.round_trip(r#"{"cmd":"query","node":2}"#);
    assert!(is_ok(&alive), "connection survives bad batches: {alive}");

    let bye = client.round_trip(r#"{"cmd":"shutdown"}"#);
    assert!(is_ok(&bye));
    server.join();
}

#[test]
fn nearest_batch_matches_single_nearest_over_the_wire() {
    for quantize in [false, true] {
        let server = ann_server(quantize);
        let mut client = Client::connect(server.local_addr());

        // Exact batch over known + unknown probes: each known entry
        // equals the single-probe answer; the unknown probe is a null
        // entry, not an error.
        let batch = client.round_trip(r#"{"cmd":"nearest_batch","nodes":[0,3,404,6],"k":4}"#);
        assert!(is_ok(&batch), "{batch}");
        assert_eq!(batch.get("mode").and_then(Json::as_str), Some("exact"));
        let results = batch.get("results").and_then(Json::as_arr).unwrap();
        assert_eq!(results.len(), 4);
        for entry in results {
            let node = entry.get("node").and_then(Json::as_u64).unwrap();
            let neighbours = entry.get("neighbours").unwrap();
            if node == 404 {
                assert_eq!(neighbours, &Json::Null, "{batch}");
                continue;
            }
            let single = client.round_trip(&format!(r#"{{"cmd":"nearest","node":{node},"k":4}}"#));
            assert_eq!(
                Some(neighbours),
                single.get("neighbours"),
                "node {node}: batch vs single\n{batch}\n{single}"
            );
        }

        // ANN batch at full probe width (1000, echoed as the 4 cells)
        // and at a partial one (1: the grouped f32 scan, the per-probe
        // SQ8 loop): agrees with single ANN calls and echoes the
        // effective nprobe once for the whole batch.
        for (nprobe, echoed) in [(1000, 4), (1, 1)] {
            let batch = client.round_trip(&format!(
                r#"{{"cmd":"nearest_batch","nodes":[0,3,6],"k":4,"mode":"ann","nprobe":{nprobe}}}"#
            ));
            assert!(is_ok(&batch), "{batch}");
            assert_eq!(batch.get("mode").and_then(Json::as_str), Some("ann"));
            assert_eq!(batch.get("nprobe").and_then(Json::as_u64), Some(echoed));
            let results = batch.get("results").and_then(Json::as_arr).unwrap();
            for entry in results {
                let node = entry.get("node").and_then(Json::as_u64).unwrap();
                let single = client.round_trip(&format!(
                    r#"{{"cmd":"nearest","node":{node},"k":4,"mode":"ann","nprobe":{nprobe}}}"#
                ));
                assert_eq!(
                    entry.get("neighbours"),
                    single.get("neighbours"),
                    "node {node} (quantize={quantize})\n{batch}\n{single}"
                );
            }
        }

        // Stats surface the storage mode the server was started with.
        let stats = client.round_trip(r#"{"cmd":"stats"}"#);
        let ann_stats = stats.get("ann").expect("ann stats present");
        let expected = if quantize { "sq8" } else { "f32" };
        assert_eq!(
            ann_stats.get("storage").and_then(Json::as_str),
            Some(expected),
            "{stats}"
        );
        assert!(
            ann_stats
                .get("index_bytes")
                .and_then(Json::as_u64)
                .is_some_and(|b| b > 0),
            "{stats}"
        );

        let bye = client.round_trip(r#"{"cmd":"shutdown"}"#);
        assert!(is_ok(&bye));
        server.join();
    }
}

#[test]
fn nearest_batch_without_ann_is_unavailable() {
    let server = Server::bind(tiny_session(), "127.0.0.1:0", ServerConfig::default()).unwrap();
    let mut client = Client::connect(server.local_addr());
    client.round_trip(r#"{"cmd":"ingest","edges":[[0,1,0],[1,2,0]]}"#);
    client.round_trip(r#"{"cmd":"flush"}"#);

    // Exact batches work without --ann...
    let batch = client.round_trip(r#"{"cmd":"nearest_batch","nodes":[0,1]}"#);
    assert!(is_ok(&batch), "{batch}");
    // ...ANN batches are a request-level structured unavailable.
    let batch = client.round_trip(r#"{"cmd":"nearest_batch","nodes":[0,1],"mode":"ann"}"#);
    assert_eq!(kind(&batch), Some("unavailable"), "{batch}");

    let bye = client.round_trip(r#"{"cmd":"shutdown"}"#);
    assert!(is_ok(&bye));
    server.join();
}
