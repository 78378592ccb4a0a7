//! Chaos harness: drive the real server under seeded failpoint
//! schedules and pin the resilience contract end to end:
//!
//! - a stalled trainer flips `stats.health.degraded`, writes get
//!   structured `degraded` errors, and reads keep answering from the
//!   last published epoch — never blocking behind the write path;
//! - injected fsync/snapshot failures are absorbed as log lines: the
//!   read surface stays byte-stable and no panic escapes a thread;
//! - fast-fail ingest against a wedged trainer answers `overloaded`
//!   immediately while a concurrent reader stays fast;
//! - a write burst after an idle stretch longer than the stall
//!   threshold is served, not refused as if the idle trainer were stuck;
//! - every `Admission` answers a full queue behind a wedged trainer the
//!   way its contract says, unsharded and sharded alike;
//! - a crash (drop without finalize) under chaos recovers onto exactly
//!   the committed event prefix, bit-exact with a clean control run of
//!   that same prefix.
//!
//! The failpoint registry is process-global, so every test serializes
//! on [`CHAOS_LOCK`] and disarms on exit (panic included) via
//! [`Armed`].

use glodyne::{EmbedderSession, EpochPolicy, GloDyNE, GloDyNEConfig};
use glodyne_chaos::{sites, Action, Rule};
use glodyne_durable::{DurableConfig, DurableSession, FsyncPolicy};
use glodyne_embed::walks::WalkConfig;
use glodyne_embed::SgnsConfig;
use glodyne_graph::state::GraphEvent;
use glodyne_graph::NodeId;
use glodyne_serve::json::Json;
use glodyne_serve::{
    json, Admission, FlushOutcome, ServeError, ServeStats, Server, ServerConfig, ServingSession,
    SessionSpec, ShardedSession,
};
use glodyne_shard::ShardConfig;
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::sync::{Mutex, PoisonError};
use std::time::{Duration, Instant};

/// Registry-wide serialization: chaos sites are process globals.
static CHAOS_LOCK: Mutex<()> = Mutex::new(());

/// RAII guard: holds the registry lock and guarantees a disarmed
/// registry on the way out, even when an assertion fails.
struct Armed<'a>(#[allow(dead_code)] std::sync::MutexGuard<'a, ()>);

impl Armed<'_> {
    fn lock() -> Self {
        let guard = CHAOS_LOCK.lock().unwrap_or_else(PoisonError::into_inner);
        glodyne_chaos::disarm();
        Armed(guard)
    }
}

impl Drop for Armed<'_> {
    fn drop(&mut self) {
        glodyne_chaos::disarm();
    }
}

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

fn chaos_dir(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "glodyne-chaos-{tag}-{}-{:?}",
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

fn kind(v: &Json) -> Option<&str> {
    v.get("kind").and_then(Json::as_str)
}

/// Raw query/nearest lines for a few probes — the byte-stable read
/// surface chaos must not move.
fn read_surface(client: &mut Client) -> Vec<String> {
    let mut lines = Vec::new();
    for n in [0u32, 3, 7] {
        lines.push(client.round_trip_raw(&format!(r#"{{"cmd":"query","node":{n}}}"#)));
        lines.push(client.round_trip_raw(&format!(r#"{{"cmd":"nearest","node":{n},"k":5}}"#)));
    }
    lines
}

fn seed_edges() -> String {
    let mut edges = Vec::new();
    for i in 0..10u32 {
        edges.push(format!("[{},{},0]", i, i + 1));
        edges.push(format!("[{},{},0]", i, (i + 2) % 11));
    }
    format!(r#"{{"cmd":"ingest","edges":[{}]}}"#, edges.join(","))
}

/// Poll `stats` until the health object reports degraded (or time out).
fn wait_degraded(client: &mut Client, within: Duration) -> Json {
    let deadline = Instant::now() + within;
    loop {
        let stats = client.round_trip(r#"{"cmd":"stats"}"#);
        let health = stats.get("health").cloned().unwrap_or(Json::Null);
        if health.get("degraded") == Some(&Json::Bool(true)) {
            return stats;
        }
        assert!(
            Instant::now() < deadline,
            "health never went degraded: {stats}"
        );
        std::thread::sleep(Duration::from_millis(25));
    }
}

/// A stalled trainer degrades writes but the read path keeps answering
/// the last published epoch — and recovers once the stall clears.
#[test]
fn stalled_trainer_degrades_writes_reads_keep_serving() {
    let _armed = Armed::lock();
    let session = EmbedderSession::new(tiny_model(), EpochPolicy::Manual).unwrap();
    let cfg = ServerConfig {
        stall_after_ms: 100,
        default_deadline_ms: Some(400),
        ..ServerConfig::default()
    };
    let server = Server::bind(session, "127.0.0.1:0", cfg).expect("bind");
    let mut client = Client::connect(server.local_addr());

    // Healthy baseline: one committed epoch, health green.
    assert!(is_ok(&client.round_trip(&seed_edges())));
    let flush = client.round_trip(r#"{"cmd":"flush"}"#);
    assert!(is_ok(&flush), "{flush}");
    let stats = client.round_trip(r#"{"cmd":"stats"}"#);
    assert_eq!(
        stats.get("health").and_then(|h| h.get("degraded")),
        Some(&Json::Bool(false)),
        "{stats}"
    );
    let before = read_surface(&mut client);

    // Wedge the trainer on its next message.
    glodyne_chaos::set(sites::TRAINER_STEP, Rule::Always(Action::Stall));
    assert!(is_ok(
        &client.round_trip(r#"{"cmd":"ingest","edges":[[20,21,1]]}"#)
    ));
    // The flush deadline (server default 400ms) bounds the wait; the
    // trainer never picks the flush up, so the deadline fires.
    let flush = client.round_trip(r#"{"cmd":"flush"}"#);
    assert_eq!(kind(&flush), Some("deadline_exceeded"), "{flush}");

    // Watchdog: pending flush + silent trainer past stall_after_ms.
    let stats = wait_degraded(&mut client, Duration::from_secs(10));
    let health = stats.get("health").unwrap();
    assert_eq!(
        health.get("trainer_alive"),
        Some(&Json::Bool(true)),
        "{stats}"
    );
    assert!(
        health.get("stalled_ms").and_then(Json::as_u64).unwrap_or(0) > 0,
        "{stats}"
    );

    // Degraded mode: reads answer byte-identically from the published
    // epoch (on a fresh connection, proving no shared-thread luck);
    // writes get the structured `degraded` error.
    let mut reader = Client::connect(server.local_addr());
    assert_eq!(read_surface(&mut reader), before);
    let rejected = client.round_trip(r#"{"cmd":"ingest","edges":[[30,31,2]]}"#);
    assert_eq!(kind(&rejected), Some("degraded"), "{rejected}");
    let rejected = client.round_trip(r#"{"cmd":"flush"}"#);
    assert_eq!(kind(&rejected), Some("degraded"), "{rejected}");

    // Clear the stall: the trainer drains its backlog and health
    // returns green — degradation is a mode, not a ratchet.
    glodyne_chaos::disarm();
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        let flush = client.round_trip(r#"{"cmd":"flush"}"#);
        if is_ok(&flush) {
            break;
        }
        assert!(Instant::now() < deadline, "never recovered: {flush}");
        std::thread::sleep(Duration::from_millis(50));
    }
    let stats = client.round_trip(r#"{"cmd":"stats"}"#);
    assert_eq!(
        stats.get("health").and_then(|h| h.get("degraded")),
        Some(&Json::Bool(false)),
        "{stats}"
    );
    server.request_shutdown();
    server.join();
}

/// An idle trainer is not a stalled trainer. The trainer only beats
/// after handling a message, so after an idle stretch longer than
/// `stall_after_ms` its heartbeat is old — and a burst of pipelined
/// writes used to find "work pending + old heartbeat" on the second
/// request and be refused `degraded` although nothing was wrong.
#[test]
fn idle_then_write_is_not_refused() {
    let _armed = Armed::lock();
    let session = EmbedderSession::new(tiny_model(), EpochPolicy::Manual).unwrap();
    let cfg = ServerConfig {
        stall_after_ms: 100,
        ..ServerConfig::default()
    };
    let server = Server::bind(session, "127.0.0.1:0", cfg).expect("bind");
    let mut client = Client::connect(server.local_addr());
    for round in 0..20u32 {
        std::thread::sleep(Duration::from_millis(150));
        // ingest, ingest, flush — written to the socket in one go, so
        // the later requests are dispatched while the first batch is
        // still queued.
        let (a, b) = (100 * round, 100 * round + 50);
        let burst = format!(
            "{{\"cmd\":\"ingest\",\"edges\":[[{a},{b},{round}]]}}\n\
             {{\"cmd\":\"ingest\",\"edges\":[[{b},{},{round}]]}}\n\
             {{\"cmd\":\"flush\"}}\n",
            b + 1,
        );
        client.writer.write_all(burst.as_bytes()).unwrap();
        client.writer.flush().unwrap();
        for _ in 0..3 {
            let mut line = String::new();
            client.reader.read_line(&mut line).expect("read response");
            let response = json::parse(line.trim_end()).expect("structured response");
            assert!(is_ok(&response), "round {round}: {response}");
        }
    }
    server.request_shutdown();
    server.join();
}

/// Either serving shape, behind the four calls the admission table makes.
#[allow(clippy::large_enum_variant)] // one per scenario, never per message
enum Serving {
    Single(ServingSession),
    Sharded(ShardedSession),
}

impl Serving {
    /// `shards` in-memory trainers (1 = unsharded), `capacity`-bounded queues.
    fn spawn(shards: usize, capacity: usize) -> Serving {
        let mut sessions: Vec<_> = (0..shards)
            .map(|_| EmbedderSession::new(tiny_model(), EpochPolicy::Manual).unwrap())
            .collect();
        let spec = SessionSpec::new(capacity);
        if shards == 1 {
            return Serving::Single(ServingSession::spawn(sessions.remove(0), spec).unwrap());
        }
        let shard_cfg = ShardConfig {
            shards,
            min_partition_nodes: 8,
            ..Default::default()
        };
        Serving::Sharded(ShardedSession::spawn(sessions, shard_cfg, spec).unwrap())
    }

    fn ingest(&self, events: &[GraphEvent], admission: Admission) -> Result<usize, ServeError> {
        match self {
            Serving::Single(s) => s.ingest_with(events, admission),
            Serving::Sharded(s) => s.ingest_with(events, admission),
        }
    }

    fn flush(&self, admission: Admission) -> Result<FlushOutcome, ServeError> {
        match self {
            Serving::Single(s) => s.flush_with(admission),
            Serving::Sharded(s) => s.flush_with(admission),
        }
    }

    fn stats(&self) -> ServeStats {
        match self {
            Serving::Single(s) => s.stats(),
            Serving::Sharded(s) => s.stats(),
        }
    }

    fn shutdown(&self) {
        match self {
            Serving::Single(s) => s.shutdown(),
            Serving::Sharded(s) => s.shutdown(),
        }
    }

    /// Shed events one at a time into wedged trainers until a queue
    /// refuses *and* every trainer that holds messages has reached the
    /// stall (so no later pop can free a slot). Returns how many were
    /// accepted.
    fn fill(&self, next: &mut u32) -> u64 {
        let mut accepted = 0;
        loop {
            let stats = self.stats();
            let busy = match &stats.shards {
                Some(shards) => shards.iter().filter(|s| s.events_accepted > 0).count(),
                None => usize::from(stats.events_accepted > 0),
            };
            let settled = glodyne_chaos::fired(sites::TRAINER_STEP) == busy as u64;
            match self.ingest(&chain(*next, 1), Admission::Shed) {
                Ok(_) => (accepted, *next) = (accepted + 1, *next + 1),
                Err(_) if settled => return accepted,
                Err(_) => std::thread::sleep(Duration::from_millis(1)),
            }
        }
    }
}

fn chain(from: u32, n: u32) -> Vec<GraphEvent> {
    (from..from + n)
        .map(|i| GraphEvent::add_edge(NodeId(i), NodeId(i + 1), 0))
        .collect()
}

fn soon(ms: u64) -> Admission {
    Admission::Until(Instant::now() + Duration::from_millis(ms))
}

fn wedge_trainers() {
    glodyne_chaos::set(sites::TRAINER_STEP, Rule::Always(Action::Stall));
}

/// The admission table: `Admission × {single, sharded}`, one row per
/// behaviour the per-variant `ingest_*` / `flush_*` tests used to pin.
#[test]
fn admission_table_over_single_and_sharded() {
    let _armed = Armed::lock();
    for shards in [1usize, 2] {
        // ── Headroom: every admission accepts everything. ──
        let serving = Serving::spawn(shards, 64);
        assert_eq!(
            serving.ingest(&chain(0, 6), Admission::Shed).unwrap(),
            6,
            "shed accepts everything while the queue has room"
        );
        assert!(serving.flush(Admission::Block).unwrap().stepped);
        assert_eq!(serving.ingest(&chain(20, 4), soon(30_000)).unwrap(), 4);
        assert!(serving.flush(soon(30_000)).unwrap().stepped);
        // Past shutdown every admission fails like the blocking one —
        // and the never-delivered flush is not counted stale forever.
        serving.shutdown();
        let admissions = [Admission::Block, Admission::Shed, soon(1_000)];
        for (admission, edge) in admissions.into_iter().zip(40..) {
            assert!(matches!(
                serving.ingest(&chain(edge, 1), admission),
                Err(ServeError::Closed)
            ));
            assert!(matches!(serving.flush(admission), Err(ServeError::Closed)));
        }
        assert_eq!(serving.stats().health.unwrap().stale_epochs, 0);

        // ── Wedged trainers, queues of 2. ──
        wedge_trainers();
        let serving = Serving::spawn(shards, 2);
        let mut next = 0u32;
        // Shed mid-batch is a partial accept…
        let partial = serving.ingest(&chain(next, 16), Admission::Shed).unwrap();
        assert!(0 < partial && partial < 16, "partial accept, got {partial}");
        next += 16;
        let accepted = partial as u64 + serving.fill(&mut next);
        // …and on the first event it is the error, carrying the full
        // queue's gauge; the shed event is not half-accepted.
        match serving.ingest(&chain(next, 3), Admission::Shed) {
            Err(ServeError::Overloaded { depth, capacity }) => {
                assert_eq!((depth, capacity), (2, 2));
            }
            other => panic!("expected overloaded, got {other:?}"),
        }
        assert_eq!(serving.stats().events_accepted, accepted);
        // Until waits out its deadline against the same queues.
        let start = Instant::now();
        assert!(matches!(
            serving.ingest(&chain(next, 3), soon(30)),
            Err(ServeError::DeadlineExceeded)
        ));
        assert!(start.elapsed() >= Duration::from_millis(25));
        assert_eq!(serving.stats().events_accepted, accepted);
        // With a drain in flight the same calls succeed.
        glodyne_chaos::disarm();
        assert_eq!(serving.ingest(&chain(next, 3), soon(30_000)).unwrap(), 3);
        assert!(serving.flush(Admission::Shed).unwrap().stepped);
        serving.shutdown();

        // ── Until mid-batch is a partial accept too. ──
        wedge_trainers();
        let serving = Serving::spawn(shards, 2);
        let partial = serving.ingest(&chain(0, 16), soon(30)).unwrap();
        assert!(0 < partial && partial < 16, "partial accept, got {partial}");
        glodyne_chaos::disarm();
        serving.shutdown();

        // ── Flush under Until abandons the wait, not the flush. ──
        wedge_trainers();
        let serving = Serving::spawn(shards, 64);
        serving.ingest(&chain(0, 6), Admission::Block).unwrap();
        assert!(matches!(
            serving.flush(soon(20)),
            Err(ServeError::DeadlineExceeded)
        ));
        assert_eq!(
            serving.stats().health.unwrap().stale_epochs,
            1,
            "the flush stays queued and counted stale"
        );
        glodyne_chaos::disarm();
        while serving.stats().health.unwrap().stale_epochs > 0 {
            std::thread::sleep(Duration::from_millis(1));
        }
        // The abandoned flush (plus, sharded, this one for the shards
        // the early return never reached) committed.
        serving.flush(Admission::Block).unwrap();
        assert!(serving.stats().epoch >= 1);
        serving.shutdown();
    }
}

/// Durable serving under fsync + snapshot failures: writes keep being
/// accepted (durability errors are absorbed, not escalated), a flush
/// whose fsync fails after its step ran still publishes that step and
/// says so, and nothing panics.
#[test]
fn fsync_and_snapshot_failures_never_take_reads_down() {
    let _armed = Armed::lock();
    let dir = chaos_dir("fsync");
    let dcfg = DurableConfig {
        fsync: FsyncPolicy::EveryFlush,
        snapshot_every: 1,
        ..DurableConfig::default()
    };
    let session = EmbedderSession::new(tiny_model(), EpochPolicy::Manual).unwrap();
    let durable = DurableSession::create(&dir, session, dcfg).unwrap();
    let server =
        Server::bind(durable, "127.0.0.1:0", ServerConfig::default()).expect("bind durable");
    let mut client = Client::connect(server.local_addr());

    assert!(is_ok(&client.round_trip(&seed_edges())));
    let flush = client.round_trip(r#"{"cmd":"flush"}"#);
    assert!(is_ok(&flush), "{flush}");
    let seeded = flush.get("epoch").and_then(Json::as_u64).expect("epoch");
    let before = read_surface(&mut client);

    // Every fsync and snapshot write now fails.
    glodyne_chaos::set(sites::WAL_FSYNC, Rule::Always(Action::Fail));
    glodyne_chaos::set(sites::SNAPSHOT_WRITE, Rule::Always(Action::Fail));

    // Ingest still lands (append succeeds; the flush-time fsync error
    // is logged) and the server keeps answering structured responses.
    assert!(is_ok(
        &client.round_trip(r#"{"cmd":"ingest","edges":[[20,21,1]]}"#)
    ));
    // The step runs before the fsync fails: the flush says it stepped,
    // at the next epoch, and that epoch is the one served.
    let flush = client.round_trip(r#"{"cmd":"flush"}"#);
    assert!(is_ok(&flush), "{flush}");
    assert_eq!(flush.get("stepped"), Some(&Json::Bool(true)), "{flush}");
    assert_eq!(
        flush.get("epoch").and_then(Json::as_u64),
        Some(seeded + 1),
        "{flush}"
    );
    assert!(
        glodyne_chaos::fired(sites::WAL_FSYNC) > 0,
        "the fsync failpoint must actually have fired"
    );
    let stats = client.round_trip(r#"{"cmd":"stats"}"#);
    assert_eq!(
        stats.get("epoch").and_then(Json::as_u64),
        Some(seeded + 1),
        "{stats}"
    );

    // Reads: answered, structured, and from a published epoch.
    for line in read_surface(&mut client) {
        let v = json::parse(&line).expect("parseable under chaos");
        assert!(
            is_ok(&v) || kind(&v) == Some("not_found"),
            "read must stay structured under fsync chaos: {v}"
        );
    }

    // Heal the disk: a fresh ingest + flush publishes again and the
    // read surface evolves off the seeded epoch.
    glodyne_chaos::disarm();
    assert!(is_ok(
        &client.round_trip(r#"{"cmd":"ingest","edges":[[22,23,2]]}"#)
    ));
    let flush = client.round_trip(r#"{"cmd":"flush"}"#);
    assert!(is_ok(&flush), "{flush}");
    let after = read_surface(&mut client);
    assert_ne!(after, before, "post-heal flush must publish a new epoch");
    server.request_shutdown();
    server.join();
    let _ = std::fs::remove_dir_all(&dir);
}

/// Fast-fail mode: with the trainer wedged and the queue full, ingest
/// answers `overloaded` immediately — and a concurrent reader on its
/// own connection stays fast the whole time.
#[test]
fn fast_fail_overload_sheds_and_reader_never_blocks() {
    let _armed = Armed::lock();
    let session = EmbedderSession::new(tiny_model(), EpochPolicy::Manual).unwrap();
    let cfg = ServerConfig {
        queue_capacity: 2,
        fast_fail: true,
        ..ServerConfig::default()
    };
    let server = Server::bind(session, "127.0.0.1:0", cfg).expect("bind");
    let mut client = Client::connect(server.local_addr());
    assert!(is_ok(&client.round_trip(&seed_edges())));
    let flush = client.round_trip(r#"{"cmd":"flush"}"#);
    assert!(is_ok(&flush), "{flush}");

    glodyne_chaos::set(sites::TRAINER_STEP, Rule::Always(Action::Stall));
    // Fill the queue: the trainer stalls holding the first event, the
    // next two occupy the channel, and from then on fast-fail sheds.
    let mut shed = None;
    for i in 0..16u32 {
        let resp = client.round_trip(&format!(
            r#"{{"cmd":"ingest","edges":[[{},{},9]]}}"#,
            40 + i,
            41 + i
        ));
        if !is_ok(&resp) {
            shed = Some(resp);
            break;
        }
    }
    let shed = shed.expect("a full queue must shed in fast-fail mode");
    assert_eq!(kind(&shed), Some("overloaded"), "{shed}");
    assert!(
        shed.get("error")
            .and_then(Json::as_str)
            .is_some_and(|m| m.contains("overloaded")),
        "{shed}"
    );

    // The reader: short read timeout — if reads queued behind the
    // wedged write path this would time out, not answer.
    let reader_stream = TcpStream::connect(server.local_addr()).unwrap();
    reader_stream
        .set_read_timeout(Some(Duration::from_secs(5)))
        .unwrap();
    let mut reader = Client {
        reader: BufReader::new(reader_stream.try_clone().unwrap()),
        writer: reader_stream,
    };
    for _ in 0..10 {
        let q = reader.round_trip(r#"{"cmd":"nearest","node":0,"k":3}"#);
        assert!(is_ok(&q), "reads must answer during overload: {q}");
    }

    glodyne_chaos::disarm();
    server.request_shutdown();
    server.join();
}

/// Crash under chaos, recover, and land bit-exactly on the committed
/// prefix: a durable lineage written under snapshot failures and fsync
/// delays is dropped without finalize (kill semantics), recovered, and
/// compared float-for-float against a clean in-memory control run of
/// exactly the events the lineage committed.
#[test]
fn kill_under_chaos_recovers_bit_exact_committed_prefix() {
    let _armed = Armed::lock();
    let dir = chaos_dir("kill");
    let dcfg = DurableConfig {
        fsync: FsyncPolicy::EveryNEvents(1),
        snapshot_every: 2,
        ..DurableConfig::default()
    };
    let events: Vec<GraphEvent> = (0..40u32)
        .map(|i| GraphEvent::add_edge(NodeId(i % 13), NodeId((i + 1) % 13), u64::from(i)))
        .collect();
    let policy = EpochPolicy::EveryNEvents(8);
    let session = EmbedderSession::new(tiny_model(), policy).unwrap();
    let mut durable = DurableSession::create(&dir, session, dcfg).unwrap();
    // Chaos strikes after the lineage is born: every further snapshot
    // fails and fsyncs are intermittently slow. Neither may change
    // *what* is committed, only how it is recovered (all from the WAL,
    // since no mid-run snapshot ever lands).
    glodyne_chaos::set(sites::SNAPSHOT_WRITE, Rule::Always(Action::Fail));
    glodyne_chaos::set(sites::WAL_FSYNC, Rule::EveryNth(Action::Delay(5), 7));
    let mut acked = 0u64;
    for (i, event) in events.iter().enumerate() {
        let seq = i as u64 + 1;
        if durable.apply(seq, *event).is_ok() {
            acked = seq;
        }
        let _ = durable.maybe_snapshot(); // chaos makes these fail; must be absorbed
    }
    assert!(acked > 0, "chaos must not reject every event");
    drop(durable); // crash: no finalize, no final snapshot

    // Recovery runs with the registry still armed — fsync delays and
    // snapshot failures during replay must not corrupt it either.
    let (recovered, report) =
        DurableSession::recover(&dir, dcfg, policy, false, tiny_model).unwrap();
    let committed = recovered.last_seq();
    assert!(
        committed <= acked,
        "recovery invented events: committed {committed} > acked {acked}"
    );
    assert!(
        report.replayed_events > 0,
        "with every snapshot failing, recovery must replay the WAL: {report:?}"
    );
    glodyne_chaos::disarm();

    // Control: a clean, chaos-free, non-durable run of exactly the
    // committed prefix.
    let mut control = EmbedderSession::new(tiny_model(), policy).unwrap();
    for event in events.iter().take(committed as usize) {
        control.apply(*event);
    }
    for node in 0..13u32 {
        assert_eq!(
            recovered.session().query(NodeId(node)),
            control.query(NodeId(node)),
            "node {node}: recovered state diverged from the committed prefix"
        );
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// Socket-level chaos: injected read/write failures drop connections
/// but never the server — the next connection is served normally.
#[test]
fn socket_chaos_drops_connections_not_the_server() {
    let _armed = Armed::lock();
    let session = EmbedderSession::new(tiny_model(), EpochPolicy::Manual).unwrap();
    let server = Server::bind(session, "127.0.0.1:0", ServerConfig::default()).expect("bind");
    let mut client = Client::connect(server.local_addr());
    assert!(is_ok(&client.round_trip(&seed_edges())));
    assert!(is_ok(&client.round_trip(r#"{"cmd":"flush"}"#)));

    // Every third socket op fails; hammer the server with fresh
    // connections, tolerating the injected disconnects.
    glodyne_chaos::set(sites::SOCKET_READ, Rule::EveryNth(Action::Fail, 3));
    glodyne_chaos::set(sites::SOCKET_WRITE, Rule::EveryNth(Action::Fail, 4));
    let mut answered = 0u32;
    for _ in 0..20 {
        let stream = TcpStream::connect(server.local_addr()).unwrap();
        stream
            .set_read_timeout(Some(Duration::from_secs(5)))
            .unwrap();
        let mut c = Client {
            reader: BufReader::new(stream.try_clone().unwrap()),
            writer: stream,
        };
        c.writer.write_all(b"{\"cmd\":\"query\",\"node\":0}\n").ok();
        c.writer.flush().ok();
        let mut line = String::new();
        if c.reader.read_line(&mut line).is_ok() && !line.trim().is_empty() {
            let v = json::parse(line.trim()).expect("structured even under socket chaos");
            assert!(is_ok(&v) || kind(&v).is_some(), "{v}");
            answered += 1;
        }
    }
    assert!(answered > 0, "some requests must get through the chaos");
    glodyne_chaos::disarm();

    // The server survived: a clean connection round-trips.
    let mut after = Client::connect(server.local_addr());
    let q = after.round_trip(r#"{"cmd":"query","node":0}"#);
    assert!(is_ok(&q), "{q}");
    server.request_shutdown();
    server.join();
}
