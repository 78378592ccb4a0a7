//! End-to-end durability over a real `TcpStream`: serve a durable
//! session, speak the wire protocol, stop the server, and restart
//! from the same data directory.
//!
//! Pins the tentpole contract at the outermost layer:
//! - a clean wire `shutdown` writes a final snapshot, so the restart
//!   replays **zero** WAL events;
//! - the restarted server answers `query`/`nearest` **bit-exactly**
//!   like the pre-restart one (same epoch id, same float bits — the
//!   responses are byte-identical JSON lines);
//! - `stats` surfaces the `"durability"` object, including the
//!   recovery provenance after a restart;
//! - with ANN on, exact and full-probe `nearest` replies survive a
//!   restart byte for byte, although the index before it was re-fitted
//!   along the epoch chain and the one after it is built cold;
//! - a corrupted WAL tail never panics the boot path.

use glodyne::{EmbedderSession, EpochPolicy, GloDyNE, GloDyNEConfig, IvfConfig};
use glodyne_durable::{DurableConfig, DurableSession, FsyncPolicy};
use glodyne_embed::walks::WalkConfig;
use glodyne_embed::SgnsConfig;
use glodyne_serve::json::Json;
use glodyne_serve::{json, recover_sharded, AnnSettings, Server, ServerConfig};
use glodyne_shard::ShardConfig;
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::path::PathBuf;
use std::time::Duration;

fn tiny_model() -> GloDyNE {
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
    GloDyNE::new(cfg).unwrap()
}

fn durable_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "glodyne-e2e-{tag}-{}-{:?}",
        std::process::id(),
        std::thread::current().id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
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

    /// One request, one raw response line (for byte-exact comparison).
    fn round_trip_raw(&mut self, request: &str) -> String {
        self.writer.write_all(request.as_bytes()).unwrap();
        self.writer.write_all(b"\n").unwrap();
        self.writer.flush().unwrap();
        let mut line = String::new();
        self.reader.read_line(&mut line).expect("read response");
        line.trim_end().to_string()
    }

    fn round_trip(&mut self, request: &str) -> Json {
        let line = self.round_trip_raw(request);
        json::parse(&line).unwrap_or_else(|e| panic!("bad response {line:?}: {e}"))
    }
}

fn is_ok(v: &Json) -> bool {
    v.get("ok") == Some(&Json::Bool(true))
}

const PROBES: [u32; 4] = [0, 3, 7, 999];

/// The raw `query` + `nearest` response lines for every probe — the
/// byte-exact read surface a restart must reproduce.
fn read_surface(client: &mut Client) -> Vec<String> {
    let mut lines = Vec::new();
    for n in PROBES {
        lines.push(client.round_trip_raw(&format!(r#"{{"cmd":"query","node":{n}}}"#)));
        lines.push(client.round_trip_raw(&format!(r#"{{"cmd":"nearest","node":{n},"k":5}}"#)));
    }
    lines
}

#[test]
fn durable_server_restart_is_byte_exact_over_the_wire() {
    let dir = durable_dir("restart");
    let dcfg = DurableConfig {
        fsync: FsyncPolicy::EveryFlush,
        ..DurableConfig::default()
    };
    let session = EmbedderSession::new(tiny_model(), EpochPolicy::Manual).unwrap();
    let durable = DurableSession::create(&dir, session, dcfg).unwrap();
    let server =
        Server::bind(durable, "127.0.0.1:0", ServerConfig::default()).expect("bind durable server");
    let mut client = Client::connect(server.local_addr());

    let ingest = client.round_trip(
        r#"{"cmd":"ingest","edges":[[0,1,0],[1,2,0],[2,3,0],[3,4,0],[4,5,0],[5,6,0],[6,7,0]]}"#,
    );
    assert!(is_ok(&ingest), "{ingest}");
    let flush = client.round_trip(r#"{"cmd":"flush"}"#);
    assert_eq!(flush.get("stepped"), Some(&Json::Bool(true)), "{flush}");

    // The stats durability object is live (and null-free where it
    // should be) on a fresh lineage.
    let stats = client.round_trip(r#"{"cmd":"stats"}"#);
    let durability = stats.get("durability").expect("durability key");
    assert_ne!(durability, &Json::Null, "{stats}");
    assert_eq!(durability.get("recovered_from"), Some(&Json::Null));
    assert!(durability.get("wal_segments").is_some());

    let before = read_surface(&mut client);
    // Clean wire shutdown: queue drained, WAL fsynced, final snapshot.
    let bye = client.round_trip(r#"{"cmd":"shutdown"}"#);
    assert!(is_ok(&bye), "{bye}");
    server.join();

    // Restart from the same directory.
    let (recovered, report) =
        DurableSession::recover(&dir, dcfg, EpochPolicy::Manual, false, tiny_model).unwrap();
    assert_eq!(
        report.replayed_events, 0,
        "clean shutdown must leave nothing to replay: {report:?}"
    );
    assert!(report.wal_clean);
    let server = Server::bind(recovered, "127.0.0.1:0", ServerConfig::default())
        .expect("rebind durable server");
    let mut client = Client::connect(server.local_addr());

    assert_eq!(
        read_surface(&mut client),
        before,
        "query/nearest responses must be byte-identical after restart"
    );
    let stats = client.round_trip(r#"{"cmd":"stats"}"#);
    let durability = stats.get("durability").expect("durability key");
    assert_eq!(
        durability.get("recovered_from").and_then(Json::as_str),
        Some(report.recovered_from.as_str()),
        "{stats}"
    );
    server.request_shutdown();
    server.join();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn ann_durable_server_restart_is_byte_exact_for_exact_and_full_probe_reads() {
    const CELLS: usize = 4;
    let dir = durable_dir("ann-restart");
    let dcfg = DurableConfig {
        fsync: FsyncPolicy::EveryFlush,
        ..DurableConfig::default()
    };
    let server_cfg = || ServerConfig {
        ann: Some(AnnSettings {
            config: IvfConfig {
                cells: CELLS,
                ..Default::default()
            },
            default_nprobe: 1,
        }),
        ..ServerConfig::default()
    };
    // Exact and full-probe ANN replies: the surface a restart must
    // reproduce. (Partial probes may differ: the index before the
    // restart is a function of the epoch chain, the one after is cold.)
    let ann_surface = |client: &mut Client| -> Vec<String> {
        let mut lines = Vec::new();
        for n in PROBES {
            lines.push(client.round_trip_raw(&format!(
                r#"{{"cmd":"nearest","node":{n},"k":5,"mode":"exact"}}"#
            )));
            lines.push(client.round_trip_raw(&format!(
                r#"{{"cmd":"nearest","node":{n},"k":5,"mode":"ann","nprobe":{CELLS}}}"#
            )));
        }
        lines
    };
    let ann_build = |client: &mut Client| {
        let stats = client.round_trip(r#"{"cmd":"stats"}"#);
        let ann = stats.get("ann").expect("ann stats").clone();
        let kind = ann
            .get("build_kind")
            .and_then(Json::as_str)
            .unwrap()
            .to_owned();
        let dirty = ann.get("dirty_rows").and_then(Json::as_u64).unwrap();
        (kind, dirty)
    };

    let session = EmbedderSession::new(tiny_model(), EpochPolicy::Manual).unwrap();
    let durable = DurableSession::create(&dir, session, dcfg).unwrap();
    let server = Server::bind(durable, "127.0.0.1:0", server_cfg()).expect("bind durable server");
    let mut client = Client::connect(server.local_addr());

    // Three flushes of a growing path: every step rewrites nearly every
    // row, so from the second flush on (the first has only the empty
    // spawn index behind it) the staleness trigger re-fits the previous
    // epoch's centroids. At 4 cells the re-fit cannot fall back cold —
    // its longest list is at most n ≤ 4 · ⌈n / 4⌉, inside the bound — so
    // a `"full"` build with dirty rows here *is* a re-fit.
    let mut refits = 0;
    for round in 0..3u32 {
        let edges: Vec<String> = (0..8)
            .map(|i| format!("[{},{},{round}]", round * 8 + i, round * 8 + i + 1))
            .collect();
        let ingest = client.round_trip(&format!(
            r#"{{"cmd":"ingest","edges":[{}]}}"#,
            edges.join(",")
        ));
        assert!(is_ok(&ingest), "{ingest}");
        let flush = client.round_trip(r#"{"cmd":"flush"}"#);
        assert_eq!(flush.get("stepped"), Some(&Json::Bool(true)), "{flush}");
        let (kind, dirty) = ann_build(&mut client);
        if round > 0 && kind == "full" && dirty > 0 {
            refits += 1;
        }
    }
    assert!(refits >= 1, "no flush re-fitted the index");

    let before = ann_surface(&mut client);
    let answered = before
        .iter()
        .filter(|l| l.contains(r#""mode":"ann""#) && l.contains(r#""ok":true"#))
        .count();
    assert_eq!(
        answered, 3,
        "every embedded probe answers in ANN mode: {before:?}"
    );
    let bye = client.round_trip(r#"{"cmd":"shutdown"}"#);
    assert!(is_ok(&bye), "{bye}");
    server.join();

    let (recovered, report) =
        DurableSession::recover(&dir, dcfg, EpochPolicy::Manual, false, tiny_model).unwrap();
    assert_eq!(report.replayed_events, 0, "{report:?}");
    let server =
        Server::bind(recovered, "127.0.0.1:0", server_cfg()).expect("rebind durable server");
    let mut client = Client::connect(server.local_addr());
    assert_eq!(
        ann_build(&mut client),
        ("full".to_owned(), 0),
        "the first index after a restart is cold"
    );
    assert_eq!(
        ann_surface(&mut client),
        before,
        "exact and full-probe nearest replies must be byte-identical after restart"
    );
    server.request_shutdown();
    server.join();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn sharded_durable_server_restart_is_byte_exact_over_the_wire() {
    let dir = durable_dir("sharded");
    let shard_cfg = ShardConfig {
        shards: 2,
        min_partition_nodes: 8,
        ..Default::default()
    };
    let dcfg = DurableConfig {
        fsync: FsyncPolicy::EveryFlush,
        snapshot_every: 1,
        ..DurableConfig::default()
    };
    let bind = |dir: &std::path::Path| {
        let (trainees, lineage) =
            recover_sharded(dir, shard_cfg, dcfg, EpochPolicy::Manual, |_| tiny_model())
                .expect("recover sharded lineages");
        let recovered = lineage.recovered_from().map(str::to_owned);
        let server =
            Server::bind_sharded(trainees, lineage, "127.0.0.1:0", ServerConfig::default())
                .expect("bind sharded durable server");
        (server, recovered)
    };
    let (server, recovered) = bind(&dir);
    assert!(recovered.is_none(), "fresh directory");
    let mut client = Client::connect(server.local_addr());

    // Two tight communities and a bridge, enough for a rebalance.
    let mut edges = Vec::new();
    for c in 0..2u32 {
        let base = c * 10;
        for i in 0..10 {
            for j in (i + 1)..10 {
                edges.push(format!("[{},{},0]", base + i, base + j));
            }
        }
    }
    edges.push("[0,10,0]".to_string());
    let ingest = client.round_trip(&format!(
        r#"{{"cmd":"ingest","edges":[{}]}}"#,
        edges.join(",")
    ));
    assert!(is_ok(&ingest), "{ingest}");
    let flush = client.round_trip(r#"{"cmd":"flush"}"#);
    assert!(is_ok(&flush), "{flush}");

    let before = read_surface(&mut client);
    let bye = client.round_trip(r#"{"cmd":"shutdown"}"#);
    assert!(is_ok(&bye), "{bye}");
    server.join();

    let (server, recovered) = bind(&dir);
    let provenance = recovered.expect("lineage found on restart");
    assert!(
        provenance.contains("+ 0 router events"),
        "clean shutdown replays nothing: {provenance}"
    );
    let mut client = Client::connect(server.local_addr());
    assert_eq!(
        read_surface(&mut client),
        before,
        "sharded query/nearest responses must be byte-identical after restart"
    );
    let stats = client.round_trip(r#"{"cmd":"stats"}"#);
    let durability = stats.get("durability").expect("durability key");
    assert_eq!(
        durability.get("recovered_from").and_then(Json::as_str),
        Some(provenance.as_str()),
        "{stats}"
    );
    server.request_shutdown();
    server.join();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn corrupted_wal_tail_still_boots_and_serves() {
    let dir = durable_dir("corrupt");
    let dcfg = DurableConfig {
        fsync: FsyncPolicy::EveryNEvents(1),
        snapshot_every: 0, // keep everything in the WAL
        ..DurableConfig::default()
    };
    let session = EmbedderSession::new(tiny_model(), EpochPolicy::EveryNEvents(4)).unwrap();
    let mut durable = DurableSession::create(&dir, session, dcfg).unwrap();
    for i in 0..17u32 {
        durable
            .apply(
                u64::from(i) + 1,
                glodyne_graph::state::GraphEvent::add_edge(
                    glodyne_graph::NodeId(i),
                    glodyne_graph::NodeId(i + 1),
                    0,
                ),
            )
            .unwrap();
    }
    drop(durable); // crash: no finalize, torn tail is fair game

    // Mangle the newest WAL segment: truncate mid-frame and flip a
    // byte further back.
    let mut segments: Vec<PathBuf> = std::fs::read_dir(&dir)
        .unwrap()
        .map(|e| e.unwrap().path())
        .filter(|p| p.extension().is_some_and(|e| e == "seg"))
        .collect();
    segments.sort();
    let newest = segments.last().expect("wal segment on disk");
    let mut bytes = std::fs::read(newest).unwrap();
    let cut = bytes.len() - bytes.len() / 4;
    bytes.truncate(cut.max(16));
    if bytes.len() > 20 {
        bytes[20] ^= 0xa5;
    }
    std::fs::write(newest, &bytes).unwrap();

    // Recovery heals to the longest valid prefix — never a panic —
    // and the server boots and answers.
    let (recovered, report) =
        DurableSession::recover(&dir, dcfg, EpochPolicy::EveryNEvents(4), false, tiny_model)
            .unwrap();
    assert!(!report.wal_clean, "the tail was torn: {report:?}");
    let server = Server::bind(recovered, "127.0.0.1:0", ServerConfig::default())
        .expect("bind after corruption");
    let mut client = Client::connect(server.local_addr());
    let q = client.round_trip(r#"{"cmd":"query","node":0}"#);
    assert!(
        is_ok(&q) || q.get("kind").and_then(Json::as_str) == Some("not_found"),
        "boot after corruption must serve structured responses: {q}"
    );
    let stats = client.round_trip(r#"{"cmd":"stats"}"#);
    assert_ne!(stats.get("durability"), Some(&Json::Null), "{stats}");
    server.request_shutdown();
    server.join();
    let _ = std::fs::remove_dir_all(&dir);
}
