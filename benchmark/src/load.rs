//! Load generation: the closed-loop read phases and the open-loop
//! reader that runs beside the write phase.
//!
//! Closed loop: a connection sends its next request only when a reply
//! has arrived — callers that each wait for a reply, [`IN_FLIGHT`] of
//! them sharing each connection.
//! Open loop: requests are due on a fixed schedule whatever the server
//! does — independent users — and each is timed from when it was
//! *due*, so a stall is charged to every request it delays.

use crate::gen::Rng;
use crate::stats;
use crate::wire::{self, Conn};
use crate::workloads::MIXED_LIMIT_MS;
use std::io;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

/// Requests the closed-loop connection keeps in flight. With one, a
/// phase times the kernel's wake-up path between two threads — which
/// lands on the same core or across cores by chance, a coin the run
/// cannot control. With several the server always has a request
/// waiting, so the phase times the program's own work per request.
pub const IN_FLIGHT: usize = 8;

/// What one closed-loop block measured.
#[derive(Debug, Clone)]
pub struct Block {
    /// When the block's clock started.
    pub started: Instant,
    /// Requests per second over the block.
    pub rate: f64,
    /// When each request was sent and answered, seconds since the
    /// block started.
    pub timeline: Vec<(f64, f64)>,
    /// Requests whose reply was not a success.
    pub failed: u64,
}

/// Run one closed-loop block: `count` requests drawn by a seeded
/// uniform choice from `pool`, on one connection. Bounded by work,
/// never by time.
///
/// One connection, on purpose. This box has two cores: the generator
/// thread and the server's connection thread then have one each, and
/// nothing is left to the scheduler's choice. Two connections put
/// four busy threads on two cores, and which pairs shared a core
/// moved rates by a quarter between runs of the same build.
pub fn closed_loop(addr: &str, pool: &[String], count: usize, seed: u64) -> io::Result<Block> {
    // Everything that allocates happens before the clock starts; the
    // timed loop only writes and reads.
    let mut conn = Conn::connect(addr)?;
    let mut rng = Rng::new(seed, 100);
    let order: Vec<u32> = (0..count)
        .map(|_| rng.below(pool.len() as u64) as u32)
        .collect();
    let mut sent = Vec::with_capacity(count);
    let mut timeline = Vec::with_capacity(count);
    let mut failed = 0u64;
    let origin = Instant::now();
    for i in 0..count {
        // Keep the window full, then take one reply.
        while sent.len() < count.min(i + IN_FLIGHT) {
            conn.send(&pool[order[sent.len()] as usize])?;
            sent.push(origin.elapsed().as_secs_f64());
        }
        let ok = wire::is_ok(conn.recv()?);
        failed += u64::from(!ok);
        timeline.push((sent[i], origin.elapsed().as_secs_f64()));
    }
    let elapsed = timeline.last().map_or(0.0, |t| t.1);
    Ok(Block {
        started: origin,
        rate: stats::block_rates(&[0.0, elapsed], count)[0],
        timeline,
        failed,
    })
}

/// The blocks of one read phase, gathered over the interleaved rounds.
#[derive(Debug, Clone, Default)]
pub struct PhaseResult {
    /// Requests per second of each block.
    pub block_rates: Vec<f64>,
    /// Latency of every request, milliseconds (with [`IN_FLIGHT`]
    /// requests queued, so mostly queueing — a diagnostic).
    pub latencies_ms: Vec<f64>,
    /// Requests sent.
    pub attempted: u64,
    /// Requests whose reply was not a success.
    pub failed: u64,
}

impl PhaseResult {
    /// Fold one more block in.
    pub fn add(&mut self, block: &Block) {
        self.block_rates.push(block.rate);
        self.latencies_ms
            .extend(block.timeline.iter().map(|(s, d)| (d - s) * 1e3));
        self.attempted += block.timeline.len() as u64;
        self.failed += block.failed;
    }

    /// Median block rate — the phase's throughput.
    pub fn rate(&self) -> f64 {
        stats::median(&self.block_rates).unwrap_or(0.0)
    }
}

/// When request `i` of a fixed-rate schedule is due, as an offset from
/// the schedule's start.
pub fn due_at(i: u64, rate_per_s: f64) -> Duration {
    Duration::from_secs_f64(i as f64 / rate_per_s)
}

/// One request of an open-loop schedule, timed from its due time.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct OpenSample {
    /// How late the generator sent it, milliseconds.
    pub late_ms: f64,
    /// Due time to reply, milliseconds.
    pub latency_ms: f64,
}

/// Time one open-loop request given when it was due, sent and
/// answered (offsets from the schedule's start).
pub fn open_sample(due: Duration, sent: Duration, done: Duration) -> OpenSample {
    OpenSample {
        late_ms: sent.saturating_sub(due).as_secs_f64() * 1e3,
        latency_ms: done.saturating_sub(due).as_secs_f64() * 1e3,
    }
}

/// What the open-loop reader measured.
#[derive(Debug, Clone, Default)]
pub struct OpenResult {
    /// Every request, in schedule order.
    pub samples: Vec<OpenSample>,
    /// Requests refused with anything other than `not_found`.
    pub refused: u64,
    /// Replies later than [`MIXED_LIMIT_MS`] after their due time.
    pub slow: u64,
    /// Requests answered `not_found` although the node is live. On the
    /// seed commit a node a rebalance moved has no answer until its
    /// new owner has trained it, so this is reported on its own rather
    /// than failing a workload whose point is that rebalances happen.
    pub unserved: u64,
    /// The first reply that was not a success, for the record.
    pub first_refusal: Option<String>,
}

/// Issue requests from `pool` at `rate_per_s` on one connection until
/// `stop` is set. The schedule never slows when the server does: a
/// request that finds the connection still busy is sent as soon as it
/// is free and is charged the wait.
pub fn open_loop(
    addr: &str,
    pool: &[String],
    rate_per_s: f64,
    seed: u64,
    stop: &AtomicBool,
) -> io::Result<OpenResult> {
    let mut conn = Conn::connect(addr)?;
    let mut rng = Rng::new(seed, 200);
    let mut out = OpenResult::default();
    let start = Instant::now();
    for i in 0u64.. {
        let due = due_at(i, rate_per_s);
        if let Some(wait) = due.checked_sub(start.elapsed()) {
            std::thread::sleep(wait);
        }
        if stop.load(Ordering::SeqCst) {
            break;
        }
        let line = rng.pick(pool);
        let sent = start.elapsed();
        let reply = conn.call(line)?;
        let ok = wire::is_ok(reply);
        if !ok && out.first_refusal.is_none() {
            out.first_refusal = Some(format!("{line} -> {reply}"));
        }
        let unserved = !ok && wire::error_kind(reply) == Some("not_found");
        let sample = open_sample(due, sent, start.elapsed());
        out.unserved += u64::from(unserved);
        out.refused += u64::from(!ok && !unserved);
        out.slow += u64::from(sample.latency_ms > MIXED_LIMIT_MS);
        out.samples.push(sample);
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn schedule_is_fixed_rate() {
        assert_eq!(due_at(0, 200.0), Duration::ZERO);
        assert_eq!(due_at(1, 200.0), Duration::from_millis(5));
        assert_eq!(due_at(200, 200.0), Duration::from_secs(1));
    }

    #[test]
    fn open_loop_times_from_the_due_time() {
        let ms = Duration::from_millis;
        // Sent on time, answered 3 ms later.
        let s = open_sample(ms(10), ms(10), ms(13));
        assert_eq!((s.late_ms, s.latency_ms), (0.0, 3.0));
        // The previous reply held the connection for 40 ms: the wait
        // is charged to this request, not hidden.
        let s = open_sample(ms(10), ms(50), ms(52));
        assert_eq!((s.late_ms, s.latency_ms), (40.0, 42.0));
        // A send that beats its due time (clock skew) is not negative.
        let s = open_sample(ms(10), ms(9), ms(12));
        assert_eq!((s.late_ms, s.latency_ms), (0.0, 2.0));
    }
}
