//! The std-only TCP front end: one thread per connection, line-delimited
//! JSON requests in, one JSON line out per request.
//!
//! No async runtime (the vendor tree has none) and none needed: the
//! connection count is bounded by [`ServerConfig::max_connections`]
//! (further `accept`s wait for a slot — back-pressure at the door, like
//! the ingest queue inside), and each connection thread spends its life
//! blocked in `read`, which is exactly what OS threads are cheap at.
//!
//! Graceful shutdown: the `shutdown` command (or
//! [`Server::request_shutdown`]) flips a flag, wakes the accept loop
//! with a loopback connection, and [`Server::join`] then stops the
//! trainer. Connections that are still open keep being served until
//! their clients disconnect — reads still work off the final epoch,
//! writes get structured `shutting_down` errors.

use crate::epoch::{EmbeddingEpoch, Neighbours};
use crate::error::ServeError;
use crate::lock;
use crate::probe::{run_probe_round, ProbeSettings};
use crate::protocol::{self, ErrorKind, NearestMode, ProtocolError, Request};
use crate::queue::{Admission, FlushOutcome};
use crate::session::{AnnSettings, ServeStats, ServingSession, SessionSpec, Trainee};
use crate::shard::ShardedSession;
use crate::telemetry::ServeTelemetry;
use glodyne::EmbedderSession;
use glodyne_embed::DynamicEmbedder;
use glodyne_graph::state::GraphEvent;
use glodyne_graph::NodeId;
use glodyne_shard::ShardConfig;
use std::io::{self, BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex, PoisonError};
use std::thread::{self, JoinHandle};
use std::time::{Duration, Instant};

/// Tunables for [`Server::bind`].
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Concurrent connections served; further accepts wait for a slot.
    pub max_connections: usize,
    /// Per-request line cap; longer lines get a `too_large` error.
    pub max_line_bytes: usize,
    /// Bound of the ingest queue feeding the trainer.
    pub queue_capacity: usize,
    /// When present, build an IVF index per published epoch and accept
    /// `"mode":"ann"` on `nearest`; without it ANN requests get an
    /// `unavailable` error.
    pub ann: Option<AnnSettings>,
    /// Instrument the whole serving path (wire latency, queue wait,
    /// trainer stages, freshness lag, durability I/O): `stats` gains a
    /// `"telemetry"` object and the `metrics` op exposes Prometheus
    /// text. Off by default — the un-instrumented hot path records
    /// nothing.
    pub telemetry: bool,
    /// Run the background quality probe (requires `telemetry` *and*
    /// ANN): every `period_ms` it samples live nodes from the published
    /// epoch and measures ANN recall@k against the exact scan. Silently
    /// idle when ANN is off — there is nothing approximate to measure.
    pub probe: Option<ProbeSettings>,
    /// Requests at or above this wall time (micros) land in the
    /// telemetry slow-query ring.
    pub slow_query_us: u64,
    /// Shed ingest instead of blocking on it: with fast-fail on, an
    /// `ingest` against full queues answers `overloaded` immediately
    /// rather than parking the connection thread until the trainer
    /// drains. Reads are unaffected either way — they never touch the
    /// queue.
    pub fast_fail: bool,
    /// Deadline applied to `ingest`/`flush` requests that don't carry
    /// their own `deadline_ms`; `None` means no implicit deadline.
    pub default_deadline_ms: Option<u64>,
    /// How long the trainer may sit on pending work before the health
    /// watchdog reports the server degraded.
    pub stall_after_ms: u64,
    /// Socket write timeout per response line: a slow consumer that
    /// stops reading gets disconnected instead of pinning the
    /// connection thread (and its slot) forever. `None` disables.
    pub write_timeout_ms: Option<u64>,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            max_connections: 64,
            max_line_bytes: protocol::MAX_LINE_BYTES,
            queue_capacity: crate::session::DEFAULT_QUEUE_CAPACITY,
            ann: None,
            telemetry: false,
            probe: None,
            slow_query_us: crate::telemetry::DEFAULT_SLOW_THRESHOLD_US,
            fast_fail: false,
            default_deadline_ms: None,
            stall_after_ms: crate::session::DEFAULT_STALL_AFTER.as_millis() as u64,
            write_timeout_ms: Some(30_000),
        }
    }
}

impl ServerConfig {
    /// Reject degenerate overload settings before a socket exists.
    fn validate(&self) -> Result<(), glodyne_embed::ConfigError> {
        if self.default_deadline_ms == Some(0) {
            return Err(glodyne_embed::ConfigError::new(
                "default_deadline_ms",
                "a zero deadline would fail every write; use fast_fail for shed-on-full",
            ));
        }
        if self.stall_after_ms == 0 {
            return Err(glodyne_embed::ConfigError::new(
                "stall_after_ms",
                "must be at least 1ms, or the watchdog calls every busy trainer stalled",
            ));
        }
        if self.write_timeout_ms == Some(0) {
            return Err(glodyne_embed::ConfigError::new(
                "write_timeout_ms",
                "must be at least 1ms; use None to disable the write timeout",
            ));
        }
        Ok(())
    }

    /// The session-level slice of this config: queue bound, ANN
    /// settings, a fresh telemetry hub when telemetry is on, and the
    /// watchdog threshold.
    fn session_spec(&self) -> SessionSpec {
        SessionSpec {
            queue_capacity: self.queue_capacity,
            ann: self.ann,
            telemetry: self
                .telemetry
                .then(|| Arc::new(ServeTelemetry::new(self.slow_query_us))),
            stall_after: Duration::from_millis(self.stall_after_ms),
        }
    }

    /// The per-connection slice of this config.
    fn conn_policy(&self) -> ConnPolicy {
        ConnPolicy {
            max_line: self.max_line_bytes.max(1),
            write_timeout: self.write_timeout_ms.map(Duration::from_millis),
            fast_fail: self.fast_fail,
            default_deadline_ms: self.default_deadline_ms,
        }
    }
}

/// What a connection thread needs from [`ServerConfig`].
#[derive(Debug, Clone, Copy)]
struct ConnPolicy {
    max_line: usize,
    write_timeout: Option<Duration>,
    fast_fail: bool,
    default_deadline_ms: Option<u64>,
}

/// The serving engine behind a [`Server`]: one trainer (unsharded) or
/// one per shard (see [`Server::bind_sharded`]). Both expose the same
/// wire surface; `dispatch` is written against this enum so the two
/// modes cannot drift apart.
// One Backend is allocated per server and lives behind an Arc, so the
// size gap between the two variants is never paid per-message.
#[allow(clippy::large_enum_variant)]
pub(crate) enum Backend {
    /// One global session on one trainer thread.
    Single(ServingSession),
    /// Partition-routed shards, each with its own trainer.
    Sharded(ShardedSession),
}

impl Backend {
    fn query<R>(&self, node: NodeId, read: impl FnOnce(u64, Option<&[f32]>) -> R) -> R {
        match self {
            Backend::Single(s) => s.query(node, read),
            Backend::Sharded(s) => s.query(node, read),
        }
    }

    /// One `nearest` read: the epoch id, the hits and the probe width
    /// to echo (ANN mode), else `not_found` or `unavailable` with the
    /// epoch id. An unknown node reports `not_found` even when ANN is
    /// also unavailable — the pre-sharding wire order, which a protocol
    /// regression test pins.
    fn nearest(
        &self,
        node: NodeId,
        k: usize,
        mode: NearestMode,
    ) -> Result<(u64, Neighbours, Option<usize>), (u64, ErrorKind)> {
        match self {
            Backend::Single(s) => s.nearest(node, k, mode),
            Backend::Sharded(s) => s.nearest(node, k, mode),
        }
    }

    /// `nearest` for a whole batch from one frozen view; a `None` entry
    /// is an unknown probe (rendered `null`, not an error, so one bad
    /// probe doesn't fail its batchmates), while `None` overall means
    /// ANN is unavailable on this server (a request-level error).
    fn nearest_batch(
        &self,
        nodes: &[NodeId],
        k: usize,
        mode: NearestMode,
    ) -> Option<(u64, Vec<Option<Neighbours>>, Option<usize>)> {
        match self {
            Backend::Single(s) => s.nearest_batch(nodes, k, mode),
            Backend::Sharded(s) => s.nearest_batch(nodes, k, mode),
        }
    }

    fn ingest(&self, events: &[GraphEvent], admission: Admission) -> Result<usize, ServeError> {
        match self {
            Backend::Single(s) => s.ingest_with(events, admission),
            Backend::Sharded(s) => s.ingest_with(events, admission),
        }
    }

    fn flush(&self, admission: Admission) -> Result<FlushOutcome, ServeError> {
        match self {
            Backend::Single(s) => s.flush_with(admission),
            Backend::Sharded(s) => s.flush_with(admission),
        }
    }

    fn health(&self) -> crate::session::HealthStats {
        match self {
            Backend::Single(s) => s.health(),
            Backend::Sharded(s) => s.health(),
        }
    }

    fn stats(&self) -> ServeStats {
        match self {
            Backend::Single(s) => s.stats(),
            Backend::Sharded(s) => s.stats(),
        }
    }

    fn telemetry(&self) -> Option<&Arc<ServeTelemetry>> {
        match self {
            Backend::Single(s) => s.telemetry(),
            Backend::Sharded(s) => s.telemetry(),
        }
    }

    fn ann(&self) -> Option<AnnSettings> {
        match self {
            Backend::Single(s) => s.ann(),
            Backend::Sharded(s) => s.ann(),
        }
    }

    /// Every served epoch without consuming the freshness-lag stamps
    /// (one on unsharded servers, one per shard otherwise).
    fn probe_epochs(&self) -> Vec<Arc<EmbeddingEpoch>> {
        match self {
            Backend::Single(s) => vec![s.probe_epoch()],
            Backend::Sharded(s) => s.probe_epochs(),
        }
    }

    /// The epoch id a slow-query entry is attributed to (the max over
    /// shards in sharded mode). Untracked read — attribution must not
    /// eat a freshness measurement.
    fn epoch_id(&self) -> u64 {
        self.probe_epochs()
            .iter()
            .map(|e| e.epoch)
            .max()
            .unwrap_or(0)
    }

    fn stop(&self) {
        match self {
            Backend::Single(s) => s.shutdown(),
            Backend::Sharded(s) => s.shutdown(),
        }
    }
}

/// A running serving process.
pub struct Server {
    addr: SocketAddr,
    backend: Arc<Backend>,
    shutdown: Arc<AtomicBool>,
    slots: Arc<Slots>,
    accept: Option<JoinHandle<u64>>,
    probe: Option<JoinHandle<()>>,
}

impl Server {
    /// Move `trainee` into a [`ServingSession`] and serve it on `addr`
    /// (e.g. `"127.0.0.1:7878"`; port 0 picks a free port, see
    /// [`Server::local_addr`]). An [`EmbedderSession`] serves in-memory;
    /// a [`DurableSession`](glodyne_durable::DurableSession) (created
    /// or recovered) serves crash-recoverably — the wire `shutdown`
    /// command then drains the ingest queue, fsyncs the WAL, and writes
    /// a final snapshot before [`Server::join`] returns, so a clean
    /// stop never needs replay.
    pub fn bind<T: Trainee>(
        trainee: T,
        addr: &str,
        cfg: ServerConfig,
    ) -> Result<Server, ServeError> {
        // Degenerate ANN settings are rejected here, before a trainer
        // thread or a socket exists.
        let session =
            ServingSession::spawn(trainee, cfg.session_spec()).map_err(ServeError::Config)?;
        Server::bind_backend(Backend::Single(session), addr, &cfg)
    }

    /// Serve partition-routed in-memory shards (one session and one
    /// trainer thread each) behind the same wire protocol: events route
    /// through a `glodyne-shard` [`ShardRouter`](glodyne_shard::ShardRouter)
    /// built from `shards`, `nearest` fans out across the shard epochs,
    /// and `stats` gains the per-shard `"shards"` array (see
    /// [`ShardedSession::spawn`]).
    pub fn bind_sharded<E: DynamicEmbedder + Send + 'static>(
        sessions: Vec<EmbedderSession<E>>,
        shards: ShardConfig,
        addr: &str,
        cfg: ServerConfig,
    ) -> Result<Server, ServeError> {
        let session = ShardedSession::spawn(sessions, shards, cfg.session_spec())
            .map_err(ServeError::Config)?;
        Server::bind_backend(Backend::Sharded(session), addr, &cfg)
    }

    fn bind_backend(
        backend: Backend,
        addr: &str,
        cfg: &ServerConfig,
    ) -> Result<Server, ServeError> {
        cfg.validate().map_err(ServeError::Config)?;
        if let Some(settings) = &cfg.probe {
            settings.validate().map_err(ServeError::Config)?;
        }
        let listener = TcpListener::bind(addr).map_err(|source| ServeError::Bind {
            addr: addr.to_string(),
            source,
        })?;
        let local = listener.local_addr().map_err(|source| ServeError::Bind {
            addr: addr.to_string(),
            source,
        })?;
        let serving = Arc::new(backend);
        let shutdown = Arc::new(AtomicBool::new(false));
        let slots = Arc::new(Slots::new(cfg.max_connections.max(1)));
        let accept = {
            let serving = Arc::clone(&serving);
            let shutdown = Arc::clone(&shutdown);
            let slots = Arc::clone(&slots);
            let policy = cfg.conn_policy();
            thread::Builder::new()
                .name("glodyne-accept".into())
                .spawn(move || {
                    let mut served = 0u64;
                    loop {
                        let stream = match listener.accept() {
                            Ok((stream, _peer)) => stream,
                            Err(_) if shutdown.load(Ordering::SeqCst) => break,
                            Err(_) => continue,
                        };
                        // One-line request/response traffic is the
                        // textbook Nagle + delayed-ACK pathology:
                        // without this, every round-trip can stall for
                        // tens of ms waiting for an ACK that is itself
                        // delayed. Latency protocol — disable batching.
                        let _ = stream.set_nodelay(true);
                        if shutdown.load(Ordering::SeqCst) {
                            break; // woken by the loopback nudge
                        }
                        // With every slot taken this waits for one to
                        // free up — back-pressure at the door — but
                        // still aborts on shutdown: permit releases and
                        // `Slots::close` both wake the wait.
                        let Some(permit) = slots.acquire(&shutdown) else {
                            break;
                        };
                        served += 1;
                        let serving = Arc::clone(&serving);
                        let shutdown = Arc::clone(&shutdown);
                        let spawned =
                            thread::Builder::new()
                                .name("glodyne-conn".into())
                                .spawn(move || {
                                    let _permit = permit;
                                    let _ = handle_connection(
                                        stream, &serving, &shutdown, local, policy,
                                    );
                                });
                        // Spawn failure (resource exhaustion): the
                        // permit inside the closure was moved and is
                        // released with the dropped closure; just stop
                        // serving this connection.
                        drop(spawned);
                    }
                    served
                })
                .expect("spawn accept thread")
        };
        let probe = Server::spawn_probe(&serving, &shutdown, cfg.probe);
        Ok(Server {
            addr: local,
            backend: serving,
            shutdown,
            slots,
            accept: Some(accept),
            probe,
        })
    }

    /// Start the background quality probe when telemetry, probe
    /// settings, and ANN are all present. The probe only ever clones
    /// published epoch `Arc`s — the same read path queries take — so a
    /// round in flight never blocks the trainer or a request.
    fn spawn_probe(
        serving: &Arc<Backend>,
        shutdown: &Arc<AtomicBool>,
        settings: Option<ProbeSettings>,
    ) -> Option<JoinHandle<()>> {
        let settings = settings?;
        let telemetry = Arc::clone(serving.telemetry()?);
        // Without an index there is nothing approximate to measure.
        let nprobe = serving.ann()?.default_nprobe;
        telemetry.set_probe_k(settings.k);
        let serving = Arc::clone(serving);
        let shutdown = Arc::clone(shutdown);
        let handle = thread::Builder::new()
            .name("glodyne-probe".into())
            .spawn(move || {
                while !shutdown.load(Ordering::SeqCst) {
                    run_probe_round(&serving.probe_epochs(), &settings, nprobe, &telemetry);
                    // Sleep in short slices so shutdown stays prompt
                    // even with a long probe period.
                    let mut left = settings.period_ms;
                    while left > 0 && !shutdown.load(Ordering::SeqCst) {
                        let chunk = left.min(50);
                        thread::sleep(Duration::from_millis(chunk));
                        left -= chunk;
                    }
                }
            })
            .expect("spawn probe thread");
        Some(handle)
    }

    /// The bound address (useful with port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// The sharded session, when this server runs one; `None` in
    /// unsharded mode.
    pub fn sharded(&self) -> Option<&ShardedSession> {
        match &*self.backend {
            Backend::Single(_) => None,
            Backend::Sharded(s) => Some(s),
        }
    }

    /// Host-side serving counters — works in both modes.
    pub fn stats(&self) -> ServeStats {
        self.backend.stats()
    }

    /// Flip the shutdown flag and wake the accept loop — the host-side
    /// equivalent of the wire `shutdown` command.
    pub fn request_shutdown(&self) {
        initiate_shutdown(&self.shutdown, self.addr);
        // The accept loop may be parked in `Slots::acquire` rather than
        // `accept()`; close the semaphore so it observes the flag
        // without waiting for a permit to free up.
        self.slots.close();
    }

    /// Block until the server shuts down (via the wire command or
    /// [`Server::request_shutdown`]), then stop the trainer. Returns
    /// the number of connections accepted over the server's lifetime.
    pub fn join(mut self) -> u64 {
        let served = match self.accept.take() {
            Some(handle) => handle.join().unwrap_or(0),
            None => 0,
        };
        if let Some(handle) = self.probe.take() {
            let _ = handle.join();
        }
        self.backend.stop();
        served
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        if let Some(handle) = self.accept.take() {
            self.request_shutdown();
            let _ = handle.join();
        }
        if let Some(handle) = self.probe.take() {
            let _ = handle.join();
        }
        self.backend.stop();
    }
}

fn initiate_shutdown(flag: &AtomicBool, addr: SocketAddr) {
    flag.store(true, Ordering::SeqCst);
    // Nudge the blocking accept() so it observes the flag. A wildcard
    // bind (0.0.0.0 / ::) is not itself connectable everywhere; aim
    // the nudge at loopback on the same port instead.
    let mut nudge = addr;
    if nudge.ip().is_unspecified() {
        nudge.set_ip(match nudge.ip() {
            std::net::IpAddr::V4(_) => std::net::Ipv4Addr::LOCALHOST.into(),
            std::net::IpAddr::V6(_) => std::net::Ipv6Addr::LOCALHOST.into(),
        });
    }
    let _ = TcpStream::connect(nudge);
}

/// A counting semaphore over connection slots.
struct Slots {
    free: Mutex<usize>,
    cv: Condvar,
}

impl Slots {
    fn new(n: usize) -> Self {
        Slots {
            free: Mutex::new(n),
            cv: Condvar::new(),
        }
    }

    /// Wait for a free slot; `None` once shutdown is requested. The
    /// wait is a plain (untimed) condvar park: every permit release
    /// notifies it, and shutdown paths that can't release a permit call
    /// [`Slots::close`] — no polling.
    fn acquire(self: &Arc<Self>, shutdown: &AtomicBool) -> Option<SlotPermit> {
        let mut free = lock(&self.free);
        loop {
            if shutdown.load(Ordering::SeqCst) {
                return None;
            }
            if *free > 0 {
                break;
            }
            free = self.cv.wait(free).unwrap_or_else(PoisonError::into_inner);
        }
        *free -= 1;
        Some(SlotPermit(Arc::clone(self)))
    }

    /// Wake every waiter so it re-checks the shutdown flag. Callers
    /// set the flag *before* closing; taking the slot mutex here orders
    /// this notify after any in-flight flag check, so a waiter can't
    /// slip past both and park forever.
    fn close(&self) {
        let _free = lock(&self.free);
        self.cv.notify_all();
    }
}

/// RAII connection slot; freed when the connection thread exits.
struct SlotPermit(Arc<Slots>);

impl Drop for SlotPermit {
    fn drop(&mut self) {
        *lock(&self.0.free) += 1;
        self.0.cv.notify_one();
    }
}

/// One request line read off the socket.
enum LineRead<'a> {
    /// A complete line (newline stripped, `\r\n` tolerated), borrowed
    /// from the connection's line buffer.
    Data(&'a [u8]),
    /// The line exceeded the cap and was discarded up to its newline.
    Oversized,
    /// Clean end of stream.
    Eof,
}

/// Read one `\n`-terminated line into `acc` (cleared first) without
/// ever buffering more than `max` bytes of it. `acc` is the
/// connection's buffer, reused line after line.
fn read_line_limited<'a, R: BufRead>(
    reader: &mut R,
    max: usize,
    acc: &'a mut Vec<u8>,
) -> io::Result<LineRead<'a>> {
    acc.clear();
    loop {
        let buf = reader.fill_buf()?;
        if buf.is_empty() {
            // EOF: a dangling unterminated line still gets parsed (nc
            // sessions often end without a final newline).
            return Ok(if acc.is_empty() {
                LineRead::Eof
            } else {
                LineRead::Data(acc)
            });
        }
        match buf.iter().position(|&b| b == b'\n') {
            Some(pos) => {
                let fits = acc.len() + pos <= max;
                if fits {
                    acc.extend_from_slice(&buf[..pos]);
                }
                reader.consume(pos + 1);
                if !fits {
                    return Ok(LineRead::Oversized);
                }
                if acc.last() == Some(&b'\r') {
                    acc.pop();
                }
                return Ok(LineRead::Data(acc));
            }
            None => {
                let n = buf.len();
                if acc.len() + n > max {
                    reader.consume(n);
                    drain_past_newline(reader)?;
                    return Ok(LineRead::Oversized);
                }
                acc.extend_from_slice(buf);
                reader.consume(n);
            }
        }
    }
}

/// Discard input up to and including the next newline (or EOF).
fn drain_past_newline<R: BufRead>(reader: &mut R) -> io::Result<()> {
    loop {
        let buf = reader.fill_buf()?;
        if buf.is_empty() {
            return Ok(());
        }
        match buf.iter().position(|&b| b == b'\n') {
            Some(pos) => {
                reader.consume(pos + 1);
                return Ok(());
            }
            None => {
                let n = buf.len();
                reader.consume(n);
            }
        }
    }
}

fn handle_connection(
    stream: TcpStream,
    serving: &Backend,
    shutdown: &AtomicBool,
    local: SocketAddr,
    policy: ConnPolicy,
) -> io::Result<()> {
    // Slow-consumer guard: a client that stops reading its responses
    // eventually fills the socket buffer; the timeout turns that from a
    // permanently pinned slot into a dropped connection.
    stream.set_write_timeout(policy.write_timeout)?;
    let max_line = policy.max_line;
    let mut reader = BufReader::new(stream.try_clone()?);
    let mut writer = stream;
    // One request buffer and one reply buffer for the connection's
    // whole life, so neither is allocated again per request.
    let mut line_buf = Vec::new();
    let mut reply = String::new();
    loop {
        glodyne_chaos::fail_io(glodyne_chaos::sites::SOCKET_READ)?;
        reply.clear();
        let line = match read_line_limited(&mut reader, max_line, &mut line_buf)? {
            LineRead::Eof => return Ok(()),
            LineRead::Oversized => {
                reply.push_str(&protocol::error_line(&ProtocolError {
                    kind: ErrorKind::TooLarge,
                    message: format!("request line exceeds {max_line} bytes"),
                }));
                respond(&mut writer, &mut reply)?;
                continue;
            }
            LineRead::Data(bytes) => bytes,
        };
        let Ok(text) = std::str::from_utf8(line) else {
            reply.push_str(&protocol::error_line(&ProtocolError::bad(
                "request is not valid utf-8",
            )));
            respond(&mut writer, &mut reply)?;
            continue;
        };
        if text.trim().is_empty() {
            continue; // blank lines are telnet-friendly no-ops
        }
        let request = match protocol::parse_request(text) {
            Ok(request) => request,
            Err(e) => {
                reply.push_str(&protocol::error_line(&e));
                respond(&mut writer, &mut reply)?;
                continue;
            }
        };
        let wants_shutdown = request == Request::Shutdown;
        let wire = wire_command(&request);
        let started = Instant::now();
        dispatch(request, serving, shutdown, policy, &mut reply);
        if let (Some(telemetry), Some((cmd, nodes))) = (serving.telemetry(), wire) {
            telemetry.observe_request(
                cmd,
                nodes,
                serving.epoch_id(),
                started.elapsed().as_micros().min(u64::MAX as u128) as u64,
            );
        }
        respond(&mut writer, &mut reply)?;
        if wants_shutdown {
            initiate_shutdown(shutdown, local);
            return Ok(());
        }
    }
}

/// Send one reply line and its newline in one write, so a `nodelay`
/// socket puts the whole line in one segment.
fn respond(writer: &mut TcpStream, reply: &mut String) -> io::Result<()> {
    glodyne_chaos::fail_io(glodyne_chaos::sites::SOCKET_WRITE)?;
    reply.push('\n');
    writer.write_all(reply.as_bytes())?;
    writer.flush()
}

/// Append the reply to one request to `out`: the hot reads are written
/// in place, every other reply is rendered and copied in.
fn dispatch(
    request: Request,
    serving: &Backend,
    shutdown: &AtomicBool,
    policy: ConnPolicy,
    out: &mut String,
) {
    let line = match request {
        Request::Query { node } => {
            // The backend resolves the lookup and the reported epoch id
            // from one frozen view, even mid-publish, and the row is
            // written straight out of that view.
            return serving.query(node, |epoch, row| match row {
                Some(v) => protocol::write_query(out, epoch, node, v),
                None => out.push_str(&not_found(node, epoch)),
            });
        }
        // The echoed probe width is what the scan *used* (clamped), not
        // the raw request — clients tune recall/latency off this.
        Request::Nearest { node, k, mode } => match serving.nearest(node, k, mode) {
            Ok((epoch, neighbours, nprobe)) => {
                return protocol::write_nearest(out, epoch, node, &neighbours, nprobe)
            }
            Err((epoch, ErrorKind::NotFound)) => not_found(node, epoch),
            Err(_) => ann_unavailable(),
        },
        Request::NearestBatch { nodes, k, mode } => match serving.nearest_batch(&nodes, k, mode) {
            Some((epoch, results, nprobe)) => {
                return protocol::write_nearest_batch(out, epoch, &nodes, &results, nprobe)
            }
            None => ann_unavailable(),
        },
        Request::Ingest {
            events,
            deadline_ms,
        } => match write_refusal(serving, shutdown) {
            Some(line) => line,
            None => match serving.ingest(&events, admission(deadline_ms, policy)) {
                Ok(accepted) => protocol::ingest_line(accepted),
                Err(e) => write_error_line(e, serving),
            },
        },
        Request::Flush { deadline_ms } => match write_refusal(serving, shutdown) {
            Some(line) => line,
            None => match serving.flush(admission(deadline_ms, policy)) {
                Ok(outcome) => protocol::flush_line(outcome),
                Err(e) => write_error_line(e, serving),
            },
        },
        Request::Stats => protocol::stats_line(&serving.stats()),
        Request::Metrics => match serving.telemetry() {
            Some(telemetry) => {
                // `stats()` refreshes the queue gauges as a side effect
                // of snapshotting telemetry, so the scrape sees live
                // depth/high-water values.
                let _ = serving.stats();
                telemetry.render_prometheus().trim_end().to_string()
            }
            None => protocol::error_line(&ProtocolError {
                kind: ErrorKind::Unavailable,
                message: "telemetry is not enabled on this server (start with --telemetry)".into(),
            }),
        },
        Request::Shutdown => protocol::shutdown_line(),
    };
    out.push_str(&line);
}

/// `Some(error line)` when a write must be refused before it reaches
/// the queue: the server is shutting down, or the watchdog says the
/// trainer is degraded.
fn write_refusal(serving: &Backend, shutdown: &AtomicBool) -> Option<String> {
    if shutdown.load(Ordering::SeqCst) {
        return Some(shutting_down());
    }
    degraded_write_rejection(serving)
}

/// The telemetry name and touched-node count of a request, `None` for
/// ops without a wire-latency series (`metrics` itself, `shutdown`).
fn wire_command(request: &Request) -> Option<(&'static str, usize)> {
    match request {
        Request::Query { .. } => Some(("query", 1)),
        Request::Nearest { .. } => Some(("nearest", 1)),
        Request::NearestBatch { nodes, .. } => Some(("nearest_batch", nodes.len())),
        Request::Ingest { events, .. } => Some(("ingest", events.len())),
        Request::Flush { .. } => Some(("flush", 0)),
        Request::Stats => Some(("stats", 0)),
        Request::Metrics | Request::Shutdown => None,
    }
}

/// How long a write request may wait: until the request's own
/// `deadline_ms`, else the server default, else not at all on a
/// fast-fail server, else as long as it takes.
fn admission(deadline_ms: Option<u64>, policy: ConnPolicy) -> Admission {
    match deadline_ms.or(policy.default_deadline_ms) {
        Some(ms) => Admission::Until(Instant::now() + Duration::from_millis(ms)),
        None if policy.fast_fail => Admission::Shed,
        None => Admission::Block,
    }
}

/// `Some(error line)` when the watchdog says writes must be refused.
/// Blocking an ingest behind a stalled trainer would park the
/// connection thread (and, on a full queue, every later writer)
/// indefinitely; failing fast keeps the error structured and the
/// reader path untouched.
fn degraded_write_rejection(serving: &Backend) -> Option<String> {
    let health = serving.health();
    if !health.degraded {
        return None;
    }
    Some(protocol::error_line(&ProtocolError {
        kind: ErrorKind::Degraded,
        message: if health.trainer_alive {
            format!(
                "trainer stalled for {}ms with {} uncommitted flush(es); \
                 reads still serve the last published epoch",
                health.stalled_ms, health.stale_epochs
            )
        } else {
            "trainer is gone; reads still serve the last published epoch".into()
        },
    }))
}

/// Map a write-path [`ServeError`] to its structured wire error.
fn write_error_line(e: ServeError, serving: &Backend) -> String {
    match e {
        // A closed trainer channel is graceful shutdown *or* a dead
        // trainer thread; the watchdog tells them apart.
        ServeError::Closed => {
            if serving.health().trainer_alive {
                shutting_down()
            } else {
                degraded_write_rejection(serving).unwrap_or_else(shutting_down)
            }
        }
        ServeError::Overloaded { depth, capacity } => protocol::error_line(&ProtocolError {
            kind: ErrorKind::Overloaded,
            message: format!("ingest queue overloaded ({depth}/{capacity}); retry with backoff"),
        }),
        ServeError::DeadlineExceeded => protocol::error_line(&ProtocolError {
            kind: ErrorKind::DeadlineExceeded,
            message: "deadline exceeded before the write completed".into(),
        }),
        e => protocol::error_line(&ProtocolError::bad(e.to_string())),
    }
}

fn not_found(node: glodyne_graph::NodeId, epoch: u64) -> String {
    protocol::error_line(&ProtocolError {
        kind: ErrorKind::NotFound,
        message: format!("node {} has no embedding in epoch {epoch}", node.0),
    })
}

fn ann_unavailable() -> String {
    protocol::error_line(&ProtocolError {
        kind: ErrorKind::Unavailable,
        message: "ann index is not enabled on this server (start with --ann)".into(),
    })
}

fn shutting_down() -> String {
    protocol::error_line(&ProtocolError {
        kind: ErrorKind::ShuttingDown,
        message: "server is shutting down; writes are no longer accepted".into(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Cursor;

    fn line<'a>(input: &[u8], max: usize, acc: &'a mut Vec<u8>) -> LineRead<'a> {
        let mut cur = Cursor::new(input.to_vec());
        let mut reader = BufReader::with_capacity(4, &mut cur); // tiny buffer: force refills
        read_line_limited(&mut reader, max, acc).unwrap()
    }

    #[test]
    fn reads_lines_and_strips_terminators() {
        // One buffer throughout, as a connection reuses it.
        let acc = &mut Vec::new();
        let l = line(b"hello\nrest", 100, acc);
        assert!(matches!(l, LineRead::Data(d) if d == b"hello"));
        let l = line(b"crlf\r\nx", 100, acc);
        assert!(matches!(l, LineRead::Data(d) if d == b"crlf"));
        let l = line(b"", 100, acc);
        assert!(matches!(l, LineRead::Eof));
        let l = line(b"no newline at eof", 100, acc);
        assert!(matches!(l, LineRead::Data(d) if d == b"no newline at eof"));
    }

    #[test]
    fn oversized_lines_are_discarded_and_resync() {
        let input = b"aaaaaaaaaaaaaaaaaaaa\nnext\n";
        let mut cur = Cursor::new(input.to_vec());
        let mut reader = BufReader::with_capacity(4, &mut cur);
        let acc = &mut Vec::new();
        assert!(matches!(
            read_line_limited(&mut reader, 8, acc).unwrap(),
            LineRead::Oversized
        ));
        // The stream resynchronises on the following line.
        assert!(matches!(
            read_line_limited(&mut reader, 8, acc).unwrap(),
            LineRead::Data(d) if d == b"next"
        ));
        // Oversized with no trailing newline at all: clean EOF after.
        let l = line(b"bbbbbbbbbbbbbbbbbb", 4, acc);
        assert!(matches!(l, LineRead::Oversized));
    }

    #[test]
    fn exact_cap_is_not_oversized() {
        let acc = &mut Vec::new();
        let l = line(b"12345678\n", 8, acc);
        assert!(matches!(l, LineRead::Data(d) if d == b"12345678"));
        let l = line(b"123456789\n", 8, acc);
        assert!(matches!(l, LineRead::Oversized));
    }

    #[test]
    fn slots_bound_concurrency() {
        let shutdown = Arc::new(AtomicBool::new(false));
        let slots = Arc::new(Slots::new(2));
        let a = slots.acquire(&shutdown).unwrap();
        let _b = slots.acquire(&shutdown).unwrap();
        let taken = Arc::new(AtomicBool::new(false));
        let waiter = {
            let slots = Arc::clone(&slots);
            let taken = Arc::clone(&taken);
            let shutdown = Arc::clone(&shutdown);
            thread::spawn(move || {
                let _c = slots.acquire(&shutdown);
                taken.store(true, Ordering::SeqCst);
            })
        };
        thread::sleep(std::time::Duration::from_millis(30));
        assert!(!taken.load(Ordering::SeqCst), "third acquire must wait");
        drop(a);
        waiter.join().unwrap();
        assert!(taken.load(Ordering::SeqCst));
    }

    #[test]
    fn exhausted_slots_abort_acquire_on_shutdown() {
        let shutdown = Arc::new(AtomicBool::new(false));
        let slots = Arc::new(Slots::new(1));
        let _held = slots.acquire(&shutdown).unwrap();
        let waiter = {
            let slots = Arc::clone(&slots);
            let shutdown = Arc::clone(&shutdown);
            thread::spawn(move || slots.acquire(&shutdown).is_none())
        };
        thread::sleep(std::time::Duration::from_millis(30));
        // The permit is still held; the waiter parks untimed, so the
        // flag flip must be followed by an explicit close() wake.
        shutdown.store(true, Ordering::SeqCst);
        slots.close();
        assert!(
            waiter.join().unwrap(),
            "acquire must yield None on shutdown instead of waiting for the permit"
        );
    }

    #[test]
    fn released_permit_wakes_a_waiter_that_then_sees_shutdown() {
        // The wire-shutdown path has no Slots reference: the shutting
        // connection's own permit release is what wakes the acquire,
        // which must then observe the flag instead of taking the slot
        // blindly... unless a slot is genuinely free, in which case the
        // flag still wins (checked first).
        let shutdown = Arc::new(AtomicBool::new(false));
        let slots = Arc::new(Slots::new(1));
        let held = slots.acquire(&shutdown).unwrap();
        let waiter = {
            let slots = Arc::clone(&slots);
            let shutdown = Arc::clone(&shutdown);
            thread::spawn(move || slots.acquire(&shutdown).is_none())
        };
        thread::sleep(std::time::Duration::from_millis(30));
        shutdown.store(true, Ordering::SeqCst);
        drop(held); // permit release is the only wake-up
        assert!(
            waiter.join().unwrap(),
            "a woken waiter must re-check the shutdown flag before taking the freed slot"
        );
    }
}
