//! The work-bounded lifecycle every workload goes through, driven over
//! the wire against a real `glodyne serve` process.
//!
//! 1. *set-up*: write the warm-start file, spawn the server, wait for
//!    the first `stats` reply at epoch ≥ 1;
//! 2. *write phase*: a fixed number of cycles of `ingest` → `flush` →
//!    `nearest` until the reply shows the flushed epoch;
//! 3. *read phases*: `query`, `nearest` ann, `nearest` exact and
//!    `nearest_batch`, each a fixed request count in eight blocks;
//! 4. *quality and oracle* on the final epoch;
//! 5. *restart rounds*: kill, respawn, first `nearest` at the epoch
//!    the server must come back to;
//! 6. peak memory, shutdown, reap.
//!
//! Nothing is bounded by a time window, so request and step counts
//! repeat exactly and quality does not depend on the machine's speed.

use crate::gen::{self, Cycle, Generator, Rng};
use crate::host::{self, CpuClock, Disturbance, Guard};
use crate::json::Json;
use crate::load::{self, OpenResult, PhaseResult};
use crate::oracle::{self, Oracle};
use crate::stats;
use crate::trace::{SpanId, Tracer};
use crate::wire::{self, Conn, Server};
use crate::workloads::{
    Workload, BATCH_PROBES, BLOCKS, DIM, MIXED_RATE, RESTART_ROUNDS, SNAPSHOT_EVERY, TOP_K,
};
use std::collections::BTreeMap;
use std::io;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::Instant;

/// Distinct request lines a read phase draws from.
const POOL_LINES: usize = 1024;
/// Live nodes sampled to find nodes the server answers for.
const SERVED_SAMPLE: usize = 1024;
/// Vectors compared bit for bit across each durable recovery.
const RECOVERY_VECTORS: usize = 200;
/// Fresh-lineage set-ups of the durable workload beyond the first,
/// which its restarts (recoveries, not set-ups) cannot stand in for.
const EXTRA_DURABLE_SETUPS: usize = 2;

/// Where a run reads its program from and writes its files.
#[derive(Debug, Clone)]
pub struct Env {
    /// The `glodyne` binary.
    pub bin: PathBuf,
    /// Directory for inputs, server logs, data dirs and records.
    pub out: PathBuf,
}

/// Operations attempted and failed, per run.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct Ops {
    /// Requests sent.
    pub attempted: u64,
    /// Requests that failed or were refused.
    pub failed: u64,
}

impl Ops {
    /// Count one request; returns `ok` for chaining.
    pub fn count(&mut self, ok: bool) -> bool {
        self.attempted += 1;
        self.failed += u64::from(!ok);
        ok
    }

    fn add(&mut self, attempted: u64, failed: u64) {
        self.attempted += attempted;
        self.failed += failed;
    }
}

/// Client-side timing of one write cycle, milliseconds.
#[derive(Debug, Clone, Copy, Default)]
pub struct CycleTiming {
    /// `ingest` sent → acknowledged.
    pub ingest_ms: f64,
    /// `flush` sent → acknowledged (the step and the index build).
    pub flush_ms: f64,
    /// `flush` acknowledged → first `nearest` reply at its epoch.
    pub publish_lag_ms: f64,
    /// `ingest` sent → that `nearest` reply: the cycle's freshness.
    pub freshness_ms: f64,
}

/// Everything one run of one workload produced.
#[derive(Debug, Default)]
pub struct RunOutput {
    /// Samples behind each end-to-end metric (one value for the
    /// counts and ratios, several for the timings).
    pub samples: BTreeMap<&'static str, Vec<f64>>,
    /// Per-cycle client timings of the write phase.
    pub cycles: Vec<CycleTiming>,
    /// `stats` scraped at each cycle boundary (traced runs).
    pub cycle_stats: Vec<Json>,
    /// The four read phases, in order.
    pub phases: Vec<(&'static str, PhaseResult)>,
    /// The open-loop reader, on the mixed workloads.
    pub mixed: Option<OpenResult>,
    /// Operations attempted and failed.
    pub ops: Ops,
    /// Oracle verdicts.
    pub oracle: Oracle,
    /// Host-noise readings.
    pub guard: Guard,
    /// Calibration kernel time, milliseconds.
    pub calib_ms: f64,
    /// Live sampled nodes the server had no answer for.
    pub unserved_nodes: usize,
    /// Removed nodes the server still answered for.
    pub ghost_rows: usize,
    /// WAL events replayed by each durable recovery.
    pub replayed_events: Vec<u64>,
    /// The last `stats` reply before the restarts.
    pub final_stats: Json,
    /// Median round trip of the null handler (`query` of an unknown
    /// node), microseconds (traced runs).
    pub wire_floor_us: f64,
    /// Traced-versus-untraced `ann` rate difference, percent (traced
    /// runs).
    pub telemetry_overhead_pct: f64,
    /// Client spans (traced runs).
    pub tracer: Option<Tracer>,
    /// The generated input, kept for the in-process replay.
    pub replay: Option<ReplayInput>,
}

/// The inputs of the run, handed to the in-process layer replay.
#[derive(Debug, Clone)]
pub struct ReplayInput {
    /// Warm-start edges.
    pub warm: Vec<(u32, u32)>,
    /// The write phase's cycles.
    pub cycles: Vec<Cycle>,
    /// Nodes the read phases probed.
    pub probes: Vec<u32>,
}

impl RunOutput {
    /// The value reported for an end-to-end metric: the median of its
    /// samples.
    pub fn value(&self, name: &str) -> Option<f64> {
        self.samples.get(name).and_then(|v| stats::median(v))
    }

    fn push(&mut self, name: &'static str, value: f64) {
        self.samples.entry(name).or_default().push(value);
    }
}

/// Command line of the server for a workload.
pub fn server_args(
    w: &Workload,
    input: &Path,
    data_dir: Option<&Path>,
    telemetry: bool,
) -> Vec<String> {
    let (walks, length, window, negatives, epochs) = w.profile.params();
    let mut args: Vec<String> = vec![
        "--policy".into(),
        "manual".into(),
        "--input".into(),
        input.display().to_string(),
        "--dim".into(),
        DIM.to_string(),
        "--alpha".into(),
        "0.1".into(),
        "--walks".into(),
        walks.to_string(),
        "--walk-length".into(),
        length.to_string(),
        "--window".into(),
        window.to_string(),
        "--negatives".into(),
        negatives.to_string(),
        "--epochs".into(),
        epochs.to_string(),
        "--ann".into(),
        "--cells".into(),
        w.cells().to_string(),
        "--nprobe".into(),
        w.nprobe().to_string(),
    ];
    if w.sq8 {
        args.push("--sq8".into());
    }
    if w.shards > 1 {
        args.extend(["--shards".into(), w.shards.to_string()]);
        args.extend(["--drift".into(), w.drift.to_string()]);
    }
    if let Some(dir) = data_dir {
        args.extend(["--data-dir".into(), dir.display().to_string()]);
        args.extend(["--fsync".into(), "flush".into()]);
        args.extend(["--snapshot-every".into(), SNAPSHOT_EVERY.to_string()]);
    }
    if telemetry {
        args.push("--telemetry".into());
    }
    args
}

/// Request lines.
pub mod lines {
    use super::*;

    /// `query` of one node.
    pub fn query(node: u32) -> String {
        format!("{{\"cmd\":\"query\",\"node\":{node}}}")
    }

    /// `nearest` of one node, `k` = [`TOP_K`].
    pub fn nearest(node: u32, mode: &str) -> String {
        format!("{{\"cmd\":\"nearest\",\"node\":{node},\"k\":{TOP_K},\"mode\":\"{mode}\"}}")
    }

    /// `nearest_batch` of several nodes.
    pub fn batch(nodes: &[u32], mode: &str) -> String {
        let ids: Vec<String> = nodes.iter().map(u32::to_string).collect();
        format!(
            "{{\"cmd\":\"nearest_batch\",\"nodes\":[{}],\"k\":{TOP_K},\"mode\":\"{mode}\"}}",
            ids.join(",")
        )
    }
}

/// A seeded sample of `want` distinct items (all of them, in order,
/// when there are not more).
pub fn sample(items: &[u32], want: usize, rng: &mut Rng) -> Vec<u32> {
    if items.len() <= want {
        return items.to_vec();
    }
    let mut pool = items.to_vec();
    for i in 0..want {
        let j = i + rng.below((pool.len() - i) as u64) as usize;
        pool.swap(i, j);
    }
    pool.truncate(want);
    pool
}

/// One run in progress.
struct Run<'a> {
    w: &'a Workload,
    env: &'a Env,
    seed: u64,
    scale: f64,
    traced: bool,
    args: Vec<String>,
    log: PathBuf,
    out: RunOutput,
}

fn scaled(count: usize, scale: f64, floor: usize) -> usize {
    ((count as f64 * scale).round() as usize).max(floor)
}

impl Run<'_> {
    fn clock(&self, servers: &[&Server]) -> Option<CpuClock> {
        let pids: Vec<u32> = servers.iter().map(|s| s.pid()).collect();
        CpuClock::now(&pids)
    }

    fn disturbance(before: Option<CpuClock>, after: Option<CpuClock>) -> Option<Disturbance> {
        Some(Disturbance::between(&before?, &after?))
    }

    /// Open a client span, in a traced run.
    fn span(&mut self, name: &'static str, parent: Option<SpanId>, tag: u64) -> Option<SpanId> {
        self.out
            .tracer
            .as_mut()
            .map(|tr| tr.begin(name, parent, tag))
    }

    /// Close a span [`Run::span`] opened.
    fn end(&mut self, id: Option<SpanId>) {
        if let (Some(id), Some(tr)) = (id, self.out.tracer.as_mut()) {
            tr.end(id);
        }
    }

    /// Spawn a server and wait for its first `stats` at epoch ≥ 1.
    /// Returns the server and spawn → reply in seconds.
    fn start(&mut self, args: &[String]) -> io::Result<(Server, f64)> {
        let server = Server::spawn(&self.env.bin, args, &self.log)?;
        let mut conn = server.connect()?;
        let stats = conn.call_json("{\"cmd\":\"stats\"}")?;
        let ready = stats.get("epoch").and_then(Json::as_u64).unwrap_or(0) >= 1;
        let setup_s = server.spawned.elapsed().as_secs_f64();
        if !self.out.ops.count(ready) {
            return Err(io::Error::other(format!(
                "server is serving but has no epoch: {stats}"
            )));
        }
        Ok((server, setup_s))
    }

    /// One write cycle over `conn`.
    fn cycle(
        &mut self,
        conn: &mut Conn,
        cycle: &Cycle,
        t: u64,
        parent: Option<SpanId>,
    ) -> io::Result<(CycleTiming, u64)> {
        let line = gen::ingest_line(&cycle.events, t);
        let want = format!("\"accepted\":{}", cycle.events.len());

        let t0 = Instant::now();
        let id = self.span("serve.ingest", parent, t);
        let reply = conn.call(&line)?;
        let ok = wire::is_ok(reply) && reply.contains(&want);
        self.end(id);
        let t1 = Instant::now();
        self.out.ops.count(ok);

        let id = self.span("serve.flush", parent, t);
        let reply = conn.call("{\"cmd\":\"flush\"}")?;
        let epoch = wire::is_ok(reply).then(|| wire::epoch_of(reply)).flatten();
        let refused = epoch.is_none().then(|| reply.to_string());
        self.end(id);
        let t2 = Instant::now();
        self.out.ops.count(epoch.is_some());
        let Some(epoch) = epoch else {
            return Err(io::Error::other(format!(
                "flush failed: {}",
                refused.unwrap_or_default()
            )));
        };

        // The first read that can see the batch. A returned flush is
        // the visibility barrier, so one read is the expected count;
        // more would be a consistency defect and shows as latency. A
        // candidate the server has no row for (a sharded server
        // mid-migration) passes the turn to the next one.
        let id = self.span("serve.first_read", parent, t);
        let mut candidates = cycle.probes.iter();
        let mut probe = lines::nearest(*candidates.next().expect("a cycle has a probe"), "ann");
        loop {
            let reply = conn.call(&probe)?;
            if wire::is_ok(reply) {
                self.out.ops.count(true);
                if wire::epoch_of(reply).is_some_and(|e| e >= epoch) {
                    break;
                }
            } else if wire::error_kind(reply) == Some("not_found") {
                let Some(&next) = candidates.next() else {
                    self.out.ops.count(false);
                    return Err(io::Error::other(format!("no probe is served: {reply}")));
                };
                probe = lines::nearest(next, "ann");
            } else {
                self.out.ops.count(false);
                return Err(io::Error::other(format!("probe read failed: {reply}")));
            }
        }
        self.end(id);
        let t3 = Instant::now();
        let ms = |a: Instant, b: Instant| (b - a).as_secs_f64() * 1e3;
        Ok((
            CycleTiming {
                ingest_ms: ms(t0, t1),
                flush_ms: ms(t1, t2),
                publish_lag_ms: ms(t2, t3),
                freshness_ms: ms(t0, t3),
            },
            epoch,
        ))
    }

    /// The write phase: every cycle in turn, with the open-loop reader
    /// beside it on the mixed workloads. Returns the final epoch.
    fn write_phase(
        &mut self,
        server: &Server,
        gen: &Generator,
        cycles: &[Cycle],
    ) -> io::Result<u64> {
        let mut conn = server.connect()?;
        // Warm-start nodes still live after the last cycle were live
        // throughout (a removed node never returns), so the concurrent
        // reads are all answerable.
        let readable: Vec<u32> = gen
            .mirror
            .live_nodes()
            .into_iter()
            .filter(|&n| n < gen.warm_nodes())
            .collect();
        let reader_pool: Vec<String> = sample(&readable, POOL_LINES, &mut Rng::new(self.seed, 3))
            .iter()
            .map(|&n| lines::nearest(n, "ann"))
            .collect();
        let stop = AtomicBool::new(false);
        let before = self.clock(&[server]);
        let mut epoch = 0;
        let mixed = std::thread::scope(|s| -> io::Result<Option<OpenResult>> {
            let reader = self.w.mixed_reader.then(|| {
                let (addr, pool, stop, seed) = (&server.addr, &reader_pool, &stop, self.seed);
                s.spawn(move || load::open_loop(addr, pool, MIXED_RATE, seed, stop))
            });
            let written = (|| -> io::Result<()> {
                for (c, cycle) in cycles.iter().enumerate() {
                    let t = c as u64 + 1;
                    let parent = self.span("serve.cycle", None, t);
                    let (timing, e) = self.cycle(&mut conn, cycle, t, parent)?;
                    self.end(parent);
                    epoch = e;
                    self.out.cycles.push(timing);
                    self.out.push("freshness_ms", timing.freshness_ms);
                    if self.traced {
                        // Values the program already publishes, read
                        // between cycles so the scrape is on no
                        // measured path.
                        let stats = conn.call_json("{\"cmd\":\"stats\"}")?;
                        self.out.ops.count(true);
                        self.out.cycle_stats.push(stats);
                    }
                }
                Ok(())
            })();
            stop.store(true, Ordering::SeqCst);
            let mixed = reader
                .map(|h| h.join().expect("reader thread panicked"))
                .transpose();
            written.and(mixed)
        })?;
        let d = Self::disturbance(before, self.clock(&[server]));
        // Cycles move the state forward and cannot be measured again;
        // a disturbed write phase is reported, not repeated.
        self.out.guard.note(d);
        if let Some(mixed) = &mixed {
            // A read past the limit says reads waited for training —
            // unless the host took the cores away, which makes reads
            // late on any build; then it is reported, not failed.
            let host = d.is_some_and(|d| d.disturbed());
            let slow = if host { 0 } else { mixed.slow };
            self.out
                .ops
                .add(mixed.samples.len() as u64, mixed.refused + slow);
        }
        self.out.mixed = mixed;
        Ok(epoch)
    }

    /// Of a seeded sample of live nodes, those the server answers for.
    fn served_nodes(&mut self, conn: &mut Conn, live: &[u32]) -> io::Result<Vec<u32>> {
        let candidates = sample(live, SERVED_SAMPLE, &mut Rng::new(self.seed, 4));
        let mut served = Vec::with_capacity(candidates.len());
        for chunk in candidates.chunks(128) {
            let reply = conn.call_json(&lines::batch(chunk, "exact"))?;
            let results = oracle::batch_results(&reply);
            self.out.ops.count(results.is_some());
            let results = results.ok_or_else(|| io::Error::other("nearest_batch failed"))?;
            served.extend(
                chunk
                    .iter()
                    .zip(&results)
                    .filter(|(_, hits)| hits.is_some())
                    .map(|(&n, _)| n),
            );
        }
        Ok(served)
    }

    /// The four read phases against an otherwise idle server, as
    /// [`BLOCKS`] interleaved rounds of one block each: every phase's
    /// blocks then span the whole read window, so a slow second of the
    /// host costs each metric one block of eight instead of costing
    /// one metric all of them. A round the host disturbed is measured
    /// again (at most [`Guard::MAX_RETRIES`] times per run).
    fn read_phases(&mut self, server: &Server, served: &[u32]) -> io::Result<()> {
        let mut rng = Rng::new(self.seed, 5);
        let probes = sample(served, POOL_LINES, &mut rng);
        let batches: Vec<String> = (0..POOL_LINES / 4)
            .map(|_| {
                let nodes: Vec<u32> = (0..BATCH_PROBES).map(|_| *rng.pick(served)).collect();
                lines::batch(&nodes, "ann")
            })
            .collect();
        let reads = self.w.reads;
        let pools: [Vec<String>; 4] = [
            probes.iter().map(|&n| lines::query(n)).collect(),
            probes.iter().map(|&n| lines::nearest(n, "ann")).collect(),
            probes.iter().map(|&n| lines::nearest(n, "exact")).collect(),
            batches,
        ];
        let counts = [reads.query, reads.ann, reads.exact, reads.batch]
            .map(|count| scaled(count, self.scale, BLOCKS * load::IN_FLIGHT) / BLOCKS);
        let mut results: [PhaseResult; 4] = Default::default();
        let mut round = 0u64;
        while results[0].block_rates.len() < BLOCKS {
            round += 1;
            let before = self.clock(&[server]);
            let mut blocks = Vec::with_capacity(READ_PHASES.len());
            for (pool, &count) in pools.iter().zip(&counts) {
                blocks.push(load::closed_loop(
                    &server.addr,
                    pool,
                    count,
                    self.seed ^ round,
                )?);
            }
            let d = Self::disturbance(before, self.clock(&[server]));
            for block in &blocks {
                self.out.ops.add(block.timeline.len() as u64, block.failed);
            }
            if self.out.guard.observe("read round", d, blocks[1].rate) {
                continue;
            }
            for ((phase, result), block) in READ_PHASES.iter().zip(&mut results).zip(&blocks) {
                result.add(block);
                if let Some(tr) = self.out.tracer.as_mut() {
                    let span_us = block.timeline.last().map_or(0.0, |t| t.1) * 1e6;
                    let base = tr.at_us(block.started);
                    let span = tr.record(phase.block_span, None, round, base, base + span_us);
                    for (i, (sent, done)) in block.timeline.iter().enumerate() {
                        let (from, to) = (base + sent * 1e6, base + done * 1e6);
                        tr.record(phase.request_span, Some(span), i as u64, from, to);
                    }
                }
            }
        }
        for (phase, result) in READ_PHASES.iter().zip(results) {
            for rate in &result.block_rates {
                self.out.push(phase.metric, rate * phase.units);
            }
            self.out.phases.push((phase.name, result));
        }
        Ok(())
    }

    /// Kill the server and bring it back on the same command line;
    /// time kill → first `nearest` reply at `epoch`. Returns the new
    /// server, the recovery time and its spawn → ready time.
    fn restart(
        &mut self,
        server: Server,
        probes: &[u32],
        epoch: u64,
    ) -> io::Result<(Server, f64, f64)> {
        let args = self.args.clone();
        let t0 = Instant::now();
        server.kill()?;
        let (server, setup_s) = self.start(&args)?;
        let mut conn = server.connect()?;
        // As in a write cycle: the first candidate the server has a
        // row for answers.
        let mut back = false;
        for &probe in probes {
            let reply = conn.call(&lines::nearest(probe, "ann"))?;
            back = wire::is_ok(reply) && wire::epoch_of(reply).is_some_and(|e| e >= epoch);
            if back || wire::error_kind(reply) != Some("not_found") {
                break;
            }
        }
        let recover_s = t0.elapsed().as_secs_f64();
        if !self.out.ops.count(back) {
            return Err(io::Error::other(format!(
                "server did not come back at epoch {epoch}"
            )));
        }
        Ok((server, recover_s, setup_s))
    }

    /// Kill-and-restart rounds. An ephemeral server's only recovery is
    /// to train again from `--input`, so its restarts double as
    /// repeated set-ups. A durable server recovers from its lineage:
    /// the write phase ends part-way between two snapshots, and
    /// [`SNAPSHOT_EVERY`] more cycles after each restart put the next
    /// kill at the same distance, so every recovery replays the same
    /// number of steps. Those cycles follow a restart at once: on the
    /// seed commit a write that follows five idle seconds can be
    /// refused as `degraded` (the trainer's heartbeat only advances
    /// when it has work), and a refused write is a failed operation.
    fn restart_rounds(
        &mut self,
        mut server: Server,
        gen: &mut Generator,
        mut epoch: u64,
        probes: &[u32],
        served: &[u32],
    ) -> io::Result<Server> {
        let mut rounds = 0;
        let mut t = epoch;
        loop {
            let mut before_kill = Vec::new();
            if self.w.durable {
                before_kill = self.fetch_vectors(&mut server.connect()?, served)?;
            }
            let target = if self.w.durable { epoch } else { 1 };
            let before = self.clock(&[&server]);
            let (back, recover_s, setup_s) = self.restart(server, probes, target)?;
            server = back;
            let d = Self::disturbance(before, self.clock(&[&server]));
            if self.w.durable {
                let mut conn = server.connect()?;
                let after = self.fetch_vectors(&mut conn, served)?;
                self.out.oracle.check(
                    "vectors after recovery are bit-identical to those before the kill",
                    before_kill == after,
                );
                let stats = conn.call_json("{\"cmd\":\"stats\"}")?;
                self.out.ops.count(true);
                if let Some(n) = oracle::replayed_events(&stats) {
                    self.out.replayed_events.push(n);
                }
            }
            if !self.out.guard.observe("restart", d, recover_s) {
                self.out.push("recover_s", recover_s);
                if !self.w.durable {
                    self.out.push("setup_s", setup_s);
                }
                rounds += 1;
            }
            if rounds == RESTART_ROUNDS {
                break;
            }
            if self.w.durable {
                let mut conn = server.connect()?;
                for _ in 0..SNAPSHOT_EVERY {
                    let cycle = gen.next_cycle(self.w.batch);
                    t += 1;
                    epoch = self.cycle(&mut conn, &cycle, t, None)?.1;
                }
            }
        }
        if self.w.durable {
            let same = self.out.replayed_events.windows(2).all(|w| w[0] == w[1]);
            self.out.oracle.check(
                "every recovery replayed the same number of WAL events",
                same && self.out.replayed_events.first().is_some_and(|&n| n > 0),
            );
        }
        Ok(server)
    }

    /// The reply lines of `query` for the first [`RECOVERY_VECTORS`]
    /// served nodes: compared as text, so equality is bit-equality of
    /// what a client sees.
    fn fetch_vectors(&mut self, conn: &mut Conn, served: &[u32]) -> io::Result<Vec<String>> {
        served
            .iter()
            .take(RECOVERY_VECTORS)
            .map(|&n| {
                let reply = conn.call(&lines::query(n))?;
                self.out.ops.count(wire::is_ok(reply));
                // The epoch member differs across a restart only if the
                // recovery is wrong, which the caller checks by epoch;
                // compare the vector alone.
                Ok(reply
                    .split_once("\"vector\":")
                    .map_or(reply, |(_, v)| v)
                    .to_string())
            })
            .collect()
    }

    /// Fresh set-ups beyond the first, for the durable workload.
    fn extra_setups(&mut self, input: &Path) -> io::Result<()> {
        for i in 0..EXTRA_DURABLE_SETUPS {
            let dir = self.env.out.join(format!("{}-data-setup{i}", self.w.name));
            let _ = std::fs::remove_dir_all(&dir);
            let args = server_args(self.w, input, Some(&dir), false);
            let (server, setup_s) = self.start(&args)?;
            self.out.push("setup_s", setup_s);
            server.kill()?;
            let _ = std::fs::remove_dir_all(&dir);
        }
        Ok(())
    }

    /// Traced runs only: the `ann` phase against two fresh servers on
    /// the same input, one started with `--telemetry` and one without,
    /// rounds alternating — so the difference is the telemetry, not
    /// the epoch the server holds nor the minute it ran in.
    fn telemetry_overhead(&mut self, input: &Path, warm: u32) -> io::Result<()> {
        let (with, _) = self.start(&server_args(self.w, input, None, true))?;
        let (without, _) = self.start(&server_args(self.w, input, None, false))?;
        // Probe only nodes both servers answer for.
        let all: Vec<u32> = (0..warm).collect();
        let mut common = self.served_nodes(&mut with.connect()?, &all)?;
        let on_other = self.served_nodes(&mut without.connect()?, &all)?;
        common.retain(|n| on_other.contains(n));
        let pool: Vec<String> = sample(&common, POOL_LINES, &mut Rng::new(self.seed, 6))
            .iter()
            .map(|&n| lines::nearest(n, "ann"))
            .collect();
        let count = scaled(self.w.reads.ann, self.scale, BLOCKS * load::IN_FLIGHT) / BLOCKS;
        let mut rates = [Vec::new(), Vec::new()];
        for round in 0..BLOCKS as u64 {
            for (server, rates) in [&with, &without].into_iter().zip(&mut rates) {
                let block = load::closed_loop(&server.addr, &pool, count, self.seed ^ round)?;
                self.out.ops.add(block.timeline.len() as u64, block.failed);
                rates.push(block.rate);
            }
        }
        with.kill()?;
        without.kill()?;
        let [with, without] = rates.map(|r| stats::median(&r).unwrap_or(0.0));
        self.out.telemetry_overhead_pct = 100.0 * (without - with) / without.max(1e-9);
        Ok(())
    }

    /// Traced runs only: round trip of the null handler.
    fn wire_floor(&mut self, conn: &mut Conn) -> io::Result<()> {
        let line = lines::query(u32::MAX);
        let mut us = Vec::with_capacity(2000);
        for _ in 0..2000 {
            let t0 = Instant::now();
            let reply = conn.call(&line)?;
            us.push(t0.elapsed().as_secs_f64() * 1e6);
            self.out
                .ops
                .count(wire::error_kind(reply) == Some("not_found"));
        }
        self.out.wire_floor_us = stats::median(&us).unwrap_or(0.0);
        Ok(())
    }

    fn run(&mut self) -> io::Result<()> {
        let w = self.w;
        std::fs::create_dir_all(&self.env.out)?;
        let _ = std::fs::remove_file(&self.log);
        self.out.calib_ms = host::calibrate().as_secs_f64() * 1e3;

        let mut gen = Generator::new(self.seed, w.nodes, w.shape);
        let input = self.env.out.join(format!("{}-warm.txt", w.name));
        std::fs::write(&input, gen.warm_start_file())?;
        let warm: Vec<(u32, u32)> = gen.mirror.edges().collect();
        // The event stream is a function of the seed alone, never of a
        // reply, so it is generated before anything is timed. On the
        // durable workload the phase must end off the snapshot grid
        // whatever `--seconds` scaled it to.
        let count = scaled(w.cycles, self.scale, 2);
        let count = if w.durable && count.is_multiple_of(SNAPSHOT_EVERY) {
            count + SNAPSHOT_EVERY / 2
        } else {
            count
        };
        let cycles: Vec<Cycle> = (0..count).map(|_| gen.next_cycle(w.batch)).collect();
        let data_dir = self.env.out.join(format!("{}-data", w.name));
        let _ = std::fs::remove_dir_all(&data_dir);
        self.args = server_args(
            w,
            &input,
            w.durable.then_some(data_dir.as_path()),
            self.traced,
        );

        // 1. set-up. The durable workload's further set-ups come
        // first, so that the server that is kept goes straight from
        // its own set-up to its first write.
        if w.durable && !self.traced {
            self.extra_setups(&input)?;
        }
        let args = self.args.clone();
        let (server, setup_s) = self.start(&args)?;
        self.out.push("setup_s", setup_s);

        // 2. write phase.
        let epoch = self.write_phase(&server, &gen, &cycles)?;
        let last = cycles.last().expect("at least two cycles");

        // 3. read phases.
        let mut conn = server.connect()?;
        let live = gen.mirror.live_nodes();
        let served = self.served_nodes(&mut conn, &live)?;
        self.out.unserved_nodes = live.len().min(SERVED_SAMPLE) - served.len();
        if served.len() < BATCH_PROBES {
            return Err(io::Error::other(
                "the server answers for almost no live node",
            ));
        }
        self.read_phases(&server, &served)?;
        if self.traced {
            self.wire_floor(&mut conn)?;
        }

        // 4. quality and oracle on the final epoch.
        let removed: Vec<u32> = cycles.iter().map(|c| c.removed).collect();
        let quality = oracle::Quality {
            seed: self.seed,
            mirror: &gen.mirror,
            served: &served,
            removed: &removed,
            sharded: w.shards > 1,
        };
        let q = quality.measure(&mut conn, &mut self.out.oracle, &mut self.out.ops)?;
        self.out.push("recall_at_10", q.recall_at_10);
        self.out.push("gr_meanp_at_10", q.gr_meanp_at_10);
        self.out.ghost_rows = q.ghost_rows;
        self.out.final_stats = q.stats;

        // 6 (first half). peak memory, before the restarts replace
        // the process that did the work.
        self.out.push(
            "peak_rss_mb",
            host::peak_rss_mb(server.pid()).unwrap_or(0.0),
        );
        drop(conn);

        // 5. restart rounds; a traced run compares itself with an
        // untraced twin instead (its end-to-end numbers are not used).
        let server = if self.traced {
            self.telemetry_overhead(&input, gen.warm_nodes())?;
            server
        } else {
            self.restart_rounds(server, &mut gen, epoch, &last.probes, &served)?
        };

        // 6. shutdown and reap.
        server.shutdown()?;
        let _ = std::fs::remove_dir_all(&data_dir);
        let _ = std::fs::remove_file(&input);
        self.out.replay = Some(ReplayInput {
            warm,
            cycles,
            probes: served,
        });
        Ok(())
    }
}

/// One of the four read phases.
struct ReadPhase {
    name: &'static str,
    /// The end-to-end metric its block rates feed.
    metric: &'static str,
    /// Units of that metric per request.
    units: f64,
    block_span: &'static str,
    request_span: &'static str,
}

/// The read phases, in the order a round runs them.
const READ_PHASES: [ReadPhase; 4] = [
    ReadPhase {
        name: "query",
        metric: "query_qps",
        units: 1.0,
        block_span: "serve.read_block.query",
        request_span: "serve.request.query",
    },
    ReadPhase {
        name: "ann",
        metric: "ann_qps",
        units: 1.0,
        block_span: "serve.read_block.ann",
        request_span: "serve.request.ann",
    },
    ReadPhase {
        name: "exact",
        metric: "exact_qps",
        units: 1.0,
        block_span: "serve.read_block.exact",
        request_span: "serve.request.exact",
    },
    ReadPhase {
        name: "batch",
        metric: "batch_qps",
        units: BATCH_PROBES as f64,
        block_span: "serve.read_block.batch",
        request_span: "serve.request.batch",
    },
];

/// Run one workload through the lifecycle. `scale` multiplies the
/// cycle and request counts (`--seconds` over the nominal run length).
/// An `Err` is a run that could not finish; wrong answers finish and
/// are reported in [`RunOutput::oracle`].
pub fn run(w: &Workload, env: &Env, seed: u64, scale: f64, traced: bool) -> io::Result<RunOutput> {
    let mut run = Run {
        w,
        env,
        seed,
        scale,
        traced,
        args: Vec::new(),
        log: env.out.join(format!("{}-server.log", w.name)),
        out: RunOutput {
            tracer: traced.then(Tracer::default),
            ..Default::default()
        },
    };
    run.run()?;
    Ok(run.out)
}
