//! Overload-control benchmark: read latency while the write path is
//! saturated and a drift rebalance is in flight.
//!
//! Boots a real sharded [`Server`] in fast-fail mode with a small
//! ingest queue, then for `--duration-ms`:
//!
//! - writer threads hammer wire `ingest` with batches of edges whose
//!   node ids drift upward, forcing hash-placed growth and therefore
//!   drift rebalances at flush boundaries;
//! - a flusher thread issues bounded `flush` requests so epochs keep
//!   publishing and the rebalance queue drains under its budget;
//! - the main thread measures wire `nearest` latency on its own
//!   connection, sample by sample.
//!
//! The point of the exercise: the epoch-swap read path must not care.
//! `--assert-read-p99-ms <ms>` exits nonzero if the read p99 exceeds
//! the bound, and the run also fails if overload never actually
//! happened (no `overloaded` sheds) or no rebalance batch ran —
//! a green gate on an idle system would be meaningless.
//!
//! ```text
//! cargo run --release -p glodyne-bench --bin bench_overload
//! cargo run --release -p glodyne-bench --bin bench_overload -- \
//!     --shards 2 --duration-ms 3000 --writers 2 --assert-read-p99-ms 50
//! ```

use glodyne::{EmbedderSession, EpochPolicy, GloDyNE, GloDyNEConfig};
use glodyne_bench::args::Args;
use glodyne_embed::walks::WalkConfig;
use glodyne_embed::SgnsConfig;
use glodyne_serve::{json, Server, ServerConfig};
use glodyne_shard::ShardConfig;
use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

fn model(seed: u64) -> GloDyNE {
    let cfg = GloDyNEConfig {
        alpha: 0.3,
        walk: WalkConfig {
            walks_per_node: 2,
            walk_length: 10,
            seed,
        },
        sgns: SgnsConfig {
            dim: 32,
            window: 3,
            negatives: 2,
            epochs: 1,
            parallel: false,
            seed,
            ..Default::default()
        },
        ..Default::default()
    };
    GloDyNE::new(cfg).unwrap()
}

struct Wire {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
}

impl Wire {
    fn connect(addr: SocketAddr) -> Wire {
        let stream = TcpStream::connect(addr).expect("connect");
        stream.set_nodelay(true).unwrap();
        stream
            .set_read_timeout(Some(Duration::from_secs(30)))
            .unwrap();
        Wire {
            reader: BufReader::new(stream.try_clone().unwrap()),
            writer: stream,
        }
    }

    fn round_trip(&mut self, request: &str) -> json::Json {
        // The line and its newline in one write: one segment on the wire.
        self.writer
            .write_all(format!("{request}\n").as_bytes())
            .unwrap();
        self.writer.flush().unwrap();
        let mut line = String::new();
        self.reader.read_line(&mut line).expect("read response");
        json::parse(line.trim()).unwrap_or_else(|e| panic!("bad response {line:?}: {e}"))
    }
}

fn percentile(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return f64::NAN;
    }
    let idx = ((sorted.len() as f64 - 1.0) * p).round() as usize;
    sorted[idx]
}

fn main() {
    let args = Args::from_env();
    let shards: usize = args.get("shards", 2);
    let writers: usize = args.get("writers", 2);
    let duration_ms: u64 = args.get("duration-ms", 3000);
    let assert_p99_ms: f64 = args.get("assert-read-p99-ms", 0.0);
    let out = args.get("out", "BENCH_overload.json".to_string());

    let shard_cfg = ShardConfig {
        shards,
        min_partition_nodes: 32,
        drift_threshold: 0.05,
        rebalance_budget: 64,
        ..Default::default()
    };
    // No default deadline: a request-level deadline routes writes to
    // the bounded-blocking path, and this run wants pure fast-fail
    // shedding (the flusher sends its own `deadline_ms`).
    let cfg = ServerConfig {
        queue_capacity: 64,
        fast_fail: true,
        ..ServerConfig::default()
    };
    let sessions = (0..shards)
        .map(|s| EmbedderSession::new(model(s as u64), EpochPolicy::Manual).unwrap())
        .collect();
    let server = Server::bind_sharded(sessions, shard_cfg, "127.0.0.1:0", cfg).expect("bind");
    let addr = server.local_addr();

    // Seed two tight communities + a bridge and publish epoch 1, so
    // readers have something to answer from before the storm starts.
    let mut seeder = Wire::connect(addr);
    let mut edges = Vec::new();
    for c in 0..2u32 {
        let base = c * 40;
        for i in 0..40 {
            edges.push(format!("[{},{},0]", base + i, base + (i + 1) % 40));
            edges.push(format!("[{},{},0]", base + i, base + (i + 7) % 40));
        }
    }
    edges.push("[0,40,0]".to_string());
    let resp = seeder.round_trip(&format!(
        r#"{{"cmd":"ingest","edges":[{}]}}"#,
        edges.join(",")
    ));
    assert_eq!(
        resp.get("ok"),
        Some(&json::Json::Bool(true)),
        "seed ingest failed: {resp}"
    );
    let resp = seeder.round_trip(r#"{"cmd":"flush"}"#);
    assert_eq!(
        resp.get("ok"),
        Some(&json::Json::Bool(true)),
        "seed flush failed: {resp}"
    );

    let stop = Arc::new(AtomicBool::new(false));
    let accepted = Arc::new(AtomicU64::new(0));
    let shed = Arc::new(AtomicU64::new(0));
    let deadline = Instant::now() + Duration::from_millis(duration_ms);

    // Writers: drifting node ids force hash placement and, at flush
    // boundaries, budgeted rebalance batches.
    let writer_handles: Vec<_> = (0..writers)
        .map(|w| {
            let stop = Arc::clone(&stop);
            let accepted = Arc::clone(&accepted);
            let shed = Arc::clone(&shed);
            std::thread::spawn(move || {
                let mut wire = Wire::connect(addr);
                let mut next = 100u64 + w as u64 * 1_000_000;
                let mut t = 1u64;
                while !stop.load(Ordering::Relaxed) {
                    let batch: Vec<String> = (0..64)
                        .map(|i| {
                            let u = (next + i) % 4_000;
                            let v = (next + i + 1) % 4_000;
                            format!("[{u},{v},{t}]")
                        })
                        .collect();
                    next += 64;
                    t += 1;
                    let sent = batch.len() as u64;
                    let resp = wire.round_trip(&format!(
                        r#"{{"cmd":"ingest","edges":[{}]}}"#,
                        batch.join(",")
                    ));
                    if resp.get("ok") == Some(&json::Json::Bool(true)) {
                        let n = resp
                            .get("accepted")
                            .and_then(json::Json::as_u64)
                            .unwrap_or(0);
                        accepted.fetch_add(n, Ordering::Relaxed);
                        // Fast-fail sheds mid-batch come back as a
                        // partial accept, not an error — both count as
                        // the queue refusing work.
                        if n < sent {
                            shed.fetch_add(1, Ordering::Relaxed);
                        }
                    } else {
                        shed.fetch_add(1, Ordering::Relaxed);
                    }
                }
            })
        })
        .collect();

    // Flusher: bounded flushes keep epochs publishing and drain the
    // rebalance queue under its per-flush budget.
    let flusher = {
        let stop = Arc::clone(&stop);
        std::thread::spawn(move || {
            let mut wire = Wire::connect(addr);
            while !stop.load(Ordering::Relaxed) {
                let _ = wire.round_trip(r#"{"cmd":"flush","deadline_ms":500}"#);
                std::thread::sleep(Duration::from_millis(50));
            }
        })
    };

    // Reader: the measurement. Every sample is one wire round-trip.
    let mut reader = Wire::connect(addr);
    let mut samples_ms: Vec<f64> = Vec::new();
    let mut probe = 0u32;
    while Instant::now() < deadline {
        let started = Instant::now();
        let resp = reader.round_trip(&format!(
            r#"{{"cmd":"nearest","node":{},"k":10}}"#,
            probe % 80
        ));
        let elapsed = started.elapsed().as_secs_f64() * 1e3;
        probe += 1;
        if resp.get("ok") == Some(&json::Json::Bool(true)) {
            samples_ms.push(elapsed);
        }
    }
    stop.store(true, Ordering::Relaxed);
    for h in writer_handles {
        let _ = h.join();
    }
    let _ = flusher.join();

    let stats = reader.round_trip(r#"{"cmd":"stats"}"#);
    let rebalance_batches = stats
        .get("rebalance")
        .and_then(|r| r.get("rebalance_batches"))
        .and_then(json::Json::as_u64)
        .unwrap_or(0);
    let migrated = stats
        .get("rebalance")
        .and_then(|r| r.get("migrated_nodes"))
        .and_then(json::Json::as_u64)
        .unwrap_or(0);
    server.request_shutdown();
    server.join();

    samples_ms.sort_by(|a, b| a.partial_cmp(b).unwrap());
    let p50 = percentile(&samples_ms, 0.50);
    let p99 = percentile(&samples_ms, 0.99);
    let reads = samples_ms.len();
    let accepted = accepted.load(Ordering::Relaxed);
    let shed = shed.load(Ordering::Relaxed);
    println!(
        "overload: {reads} reads in {duration_ms}ms  p50={p50:.2}ms p99={p99:.2}ms  \
         ingest accepted={accepted} shed_batches={shed}  \
         rebalance batches={rebalance_batches} migrated={migrated}"
    );

    let json_out = format!(
        "{{\n  \"bench\": \"overload\",\n  \"shards\": {shards},\n  \"writers\": {writers},\n  \
         \"duration_ms\": {duration_ms},\n  \"reads\": {reads},\n  \"read_p50_ms\": {p50:.3},\n  \
         \"read_p99_ms\": {p99:.3},\n  \"ingest_accepted\": {accepted},\n  \
         \"ingest_shed_batches\": {shed},\n  \"rebalance_batches\": {rebalance_batches},\n  \
         \"migrated_nodes\": {migrated}\n}}\n"
    );
    std::fs::write(&out, &json_out).unwrap_or_else(|e| panic!("cannot write {out}: {e}"));
    println!("wrote {out}");

    if assert_p99_ms > 0.0 {
        // A bound on an unloaded system proves nothing: require that
        // the write path actually shed and a rebalance actually ran.
        if shed == 0 {
            eprintln!("bench_overload: ingest was never overloaded; gate is meaningless");
            std::process::exit(1);
        }
        if rebalance_batches == 0 {
            eprintln!("bench_overload: no rebalance batch ran; gate is meaningless");
            std::process::exit(1);
        }
        if p99.is_nan() || p99 > assert_p99_ms {
            eprintln!(
                "bench_overload: read p99 {p99:.2}ms exceeded the \
                 --assert-read-p99-ms bound {assert_p99_ms:.2}ms"
            );
            std::process::exit(1);
        }
        println!("read p99 bound {assert_p99_ms:.2}ms held ({p99:.2}ms) under overload");
    }
}
