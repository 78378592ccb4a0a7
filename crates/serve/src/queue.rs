//! The bounded ingest queue between producers and the trainer thread.
//!
//! A `std::sync::mpsc::sync_channel` of trainer messages. Producers
//! (connection threads, in-process callers) block in `send` when the
//! queue is full — that *is* the back-pressure: a slow embedding step
//! slows ingestion down to training speed instead of growing an
//! unbounded backlog, while readers keep answering from the published
//! epoch untouched. Flush requests ride the same channel, so a flush
//! observes every event enqueued before it.

use crate::error::ServeError;
use glodyne_graph::state::GraphEvent;
use glodyne_telemetry::Histogram;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::mpsc::{self, Receiver, SyncSender, TrySendError};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// What the trainer sees on its inbox.
pub(crate) enum TrainerMsg {
    /// One graph event to apply. `seq` is the durable WAL sequence
    /// number: `0` on non-durable and unsharded-durable sessions
    /// (the trainer assigns its own), the client event's sequence on
    /// sharded-durable sessions (every lineage logs the same number).
    /// `queued` stamps enqueue time so the trainer can attribute queue
    /// wait to telemetry.
    Event {
        seq: u64,
        event: GraphEvent,
        queued: Instant,
    },
    /// Commit now; reply with the outcome on the enclosed channel.
    Flush(mpsc::Sender<FlushOutcome>),
    /// Durable barrier: freeze a snapshot stamped with this sequence
    /// number, then ack. Non-durable trainers ack without snapshotting.
    Checkpoint { seq: u64, ack: mpsc::Sender<()> },
    /// Drain nothing further and exit.
    Shutdown,
}

/// What a flush accomplished.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FlushOutcome {
    /// Whether an embedding step actually ran (false when no effective
    /// events were pending).
    pub stepped: bool,
    /// The epoch id after the flush (== committed steps so far).
    pub epoch: u64,
}

/// How long a write may wait — for room in the queue (`ingest`) or for
/// the trainer's commit ack (`flush`). The serving mode a request runs
/// under is this one value, picked once per request from its
/// `deadline_ms` and the server's overload policy.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Admission {
    /// Wait as long as it takes: a full queue back-pressures the
    /// producer down to training speed.
    Block,
    /// Never wait for room: a full queue sheds the event with
    /// [`ServeError::Overloaded`] instead of holding the connection's
    /// reader hostage. A flush occupies no event slot, so it waits for
    /// its ack exactly like [`Admission::Block`].
    Shed,
    /// Wait at most until this instant, then give up with
    /// [`ServeError::DeadlineExceeded`] — bounds how long a producer
    /// can be held without shedding on a spike the trainer drains in
    /// time.
    Until(Instant),
}

/// Why the channel turned a message away.
enum Refused {
    Full,
    Closed,
}

/// Producer half: clonable; each send says how long it may wait.
#[derive(Clone)]
pub struct IngestQueue {
    tx: SyncSender<TrainerMsg>,
    depth: Arc<AtomicUsize>,
    high_water: Arc<AtomicUsize>,
    accepted: Arc<AtomicU64>,
    capacity: usize,
}

/// Trainer half: pops messages, maintaining the depth gauge.
pub(crate) struct TrainerInbox {
    rx: Receiver<TrainerMsg>,
    depth: Arc<AtomicUsize>,
    /// When present, each popped event's time-in-queue is recorded
    /// here (micros between enqueue and the trainer picking it up).
    wait: Option<Arc<Histogram>>,
}

/// A bounded queue of `capacity` in-flight messages; `wait`, when
/// present, is the queue-wait histogram fed by the trainer side.
pub(crate) fn bounded(
    capacity: usize,
    wait: Option<Arc<Histogram>>,
) -> (IngestQueue, TrainerInbox) {
    let (tx, rx) = mpsc::sync_channel(capacity.max(1));
    let depth = Arc::new(AtomicUsize::new(0));
    (
        IngestQueue {
            tx,
            depth: Arc::clone(&depth),
            high_water: Arc::new(AtomicUsize::new(0)),
            accepted: Arc::new(AtomicU64::new(0)),
            capacity: capacity.max(1),
        },
        TrainerInbox { rx, depth, wait },
    )
}

impl IngestQueue {
    /// Enqueue one event under `admission`; [`ServeError::Closed`]
    /// once the trainer exits. `seq` is the durable sequence number
    /// (`0` = the trainer assigns its own).
    ///
    /// The `ingest.enqueue` failpoint is *not* checked here: the
    /// sessions check it before anything durable happens to the event
    /// — on the sharded path that is the router WAL append, and
    /// shedding after it would let recovery replay an event the live
    /// run never applied.
    pub fn send(
        &self,
        seq: u64,
        event: GraphEvent,
        admission: Admission,
    ) -> Result<(), ServeError> {
        loop {
            let depth = self.depth.fetch_add(1, Ordering::Relaxed) + 1;
            // The high-water mark survives between polls: back-pressure
            // incidents show up in `stats` even after the queue drains.
            self.high_water.fetch_max(depth, Ordering::Relaxed);
            let msg = TrainerMsg::Event {
                seq,
                event,
                queued: Instant::now(),
            };
            let refused = match admission {
                Admission::Block => self.tx.send(msg).map_err(|_| Refused::Closed),
                _ => self.tx.try_send(msg).map_err(|e| match e {
                    TrySendError::Full(_) => Refused::Full,
                    TrySendError::Disconnected(_) => Refused::Closed,
                }),
            };
            let Err(refused) = refused else {
                self.accepted.fetch_add(1, Ordering::Relaxed);
                return Ok(());
            };
            self.depth.fetch_sub(1, Ordering::Relaxed);
            match (refused, admission) {
                (Refused::Closed, _) => return Err(ServeError::Closed),
                (Refused::Full, Admission::Until(at)) if Instant::now() < at => {
                    std::thread::sleep(Duration::from_millis(1));
                }
                (Refused::Full, Admission::Until(_)) => return Err(ServeError::DeadlineExceeded),
                (Refused::Full, _) => return Err(self.overloaded()),
            }
        }
    }

    /// The `ingest.enqueue` failpoint: delays and stalls take effect in
    /// place; an injected failure sheds the event as an overload.
    pub(crate) fn enqueue_failpoint(&self) -> Result<(), ServeError> {
        if glodyne_chaos::shed(glodyne_chaos::sites::INGEST_ENQUEUE) {
            return Err(self.overloaded());
        }
        Ok(())
    }

    /// The shed error, carrying the queue gauge at rejection time.
    pub(crate) fn overloaded(&self) -> ServeError {
        ServeError::Overloaded {
            depth: self.depth(),
            capacity: self.capacity,
        }
    }

    /// Enqueue a flush and wait for the trainer to commit everything
    /// sent before it. Under [`Admission::Until`] the *wait* gives up
    /// at the deadline with [`ServeError::DeadlineExceeded`]; the flush
    /// itself stays queued — a stalled trainer that later recovers
    /// still commits it — and the caller gets its thread back.
    pub fn request_flush(&self, admission: Admission) -> Result<FlushOutcome, ServeError> {
        let (ack_tx, ack_rx) = mpsc::channel();
        self.tx
            .send(TrainerMsg::Flush(ack_tx))
            .map_err(|_| ServeError::Closed)?;
        let Admission::Until(deadline) = admission else {
            return ack_rx.recv().map_err(|_| ServeError::Closed);
        };
        let wait = deadline.saturating_duration_since(Instant::now());
        match ack_rx.recv_timeout(wait) {
            Ok(outcome) => Ok(outcome),
            Err(mpsc::RecvTimeoutError::Timeout) => Err(ServeError::DeadlineExceeded),
            Err(mpsc::RecvTimeoutError::Disconnected) => Err(ServeError::Closed),
        }
    }

    /// Enqueue a durable barrier checkpoint stamped `seq` and wait for
    /// the trainer to freeze (or skip, when non-durable) its snapshot.
    pub(crate) fn request_checkpoint(&self, seq: u64) -> Result<(), ServeError> {
        let (ack_tx, ack_rx) = mpsc::channel();
        self.tx
            .send(TrainerMsg::Checkpoint { seq, ack: ack_tx })
            .map_err(|_| ServeError::Closed)?;
        ack_rx.recv().map_err(|_| ServeError::Closed)
    }

    /// Ask the trainer to exit; succeeds silently if it already has.
    pub(crate) fn send_shutdown(&self) {
        let _ = self.tx.send(TrainerMsg::Shutdown);
    }

    /// Events currently waiting in the queue (approximate gauge).
    pub fn depth(&self) -> usize {
        self.depth.load(Ordering::Relaxed)
    }

    /// The deepest the queue has ever been (back-pressure high-water
    /// mark; never resets).
    pub fn depth_high_water(&self) -> usize {
        self.high_water.load(Ordering::Relaxed)
    }

    /// The queue's bound.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Whether at least `n` slots are currently free (approximate, but
    /// conservative under a single writer: concurrent trainer drains
    /// only widen the headroom). The sharded fast-fail pre-check uses
    /// this to refuse an event *before* WAL-logging it, so a shed event
    /// is never half-accepted.
    pub(crate) fn has_free(&self, n: usize) -> bool {
        self.capacity.saturating_sub(self.depth()) >= n
    }

    /// Events accepted over the queue's lifetime.
    pub fn accepted(&self) -> u64 {
        self.accepted.load(Ordering::Relaxed)
    }
}

impl TrainerInbox {
    /// Next message, or `None` when every producer handle is gone.
    pub(crate) fn recv(&self) -> Option<TrainerMsg> {
        let msg = self.rx.recv().ok()?;
        if let TrainerMsg::Event { queued, .. } = &msg {
            self.depth.fetch_sub(1, Ordering::Relaxed);
            if let Some(wait) = &self.wait {
                wait.record_duration(queued.elapsed());
            }
        }
        Some(msg)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use glodyne_graph::NodeId;
    use std::time::Duration;

    fn ev(i: u32) -> GraphEvent {
        GraphEvent::add_edge(NodeId(i), NodeId(i + 1), 0)
    }

    #[test]
    fn depth_and_accepted_track_flow() {
        let (q, inbox) = bounded(8, None);
        q.send(0, ev(0), Admission::Block).unwrap();
        q.send(0, ev(1), Admission::Block).unwrap();
        assert_eq!(q.depth(), 2);
        assert_eq!(q.accepted(), 2);
        assert!(matches!(inbox.recv(), Some(TrainerMsg::Event { .. })));
        assert_eq!(q.depth(), 1);
        assert_eq!(q.accepted(), 2, "accepted is cumulative");
    }

    #[test]
    fn high_water_mark_outlives_the_drain() {
        let (q, inbox) = bounded(8, None);
        q.send(0, ev(0), Admission::Block).unwrap();
        q.send(0, ev(1), Admission::Block).unwrap();
        q.send(0, ev(2), Admission::Block).unwrap();
        assert_eq!(q.depth_high_water(), 3);
        for _ in 0..3 {
            inbox.recv();
        }
        assert_eq!(q.depth(), 0, "queue drained");
        assert_eq!(
            q.depth_high_water(),
            3,
            "high-water mark records the back-pressure peak after the fact"
        );
        q.send(0, ev(3), Admission::Block).unwrap();
        assert_eq!(q.depth_high_water(), 3, "shallower refills don't move it");
    }

    #[test]
    fn instrumented_inbox_records_queue_wait() {
        let wait = Arc::new(Histogram::new());
        let (q, inbox) = bounded(8, Some(Arc::clone(&wait)));
        q.send(0, ev(0), Admission::Block).unwrap();
        std::thread::sleep(Duration::from_millis(2));
        inbox.recv();
        assert_eq!(wait.count(), 1);
        assert!(wait.sum() >= 2_000, "waited at least the slept 2ms");
    }

    #[test]
    fn full_queue_back_pressures_until_drained() {
        let (q, inbox) = bounded(2, None);
        q.send(0, ev(0), Admission::Block).unwrap();
        q.send(0, ev(1), Admission::Block).unwrap();
        // Third send must block until the consumer frees a slot.
        let q2 = q.clone();
        let sender = std::thread::spawn(move || q2.send(0, ev(2), Admission::Block));
        std::thread::sleep(Duration::from_millis(30));
        assert!(
            !sender.is_finished(),
            "send should be blocked on full queue"
        );
        assert!(matches!(inbox.recv(), Some(TrainerMsg::Event { .. })));
        sender.join().unwrap().unwrap();
        assert_eq!(q.accepted(), 3);
    }

    #[test]
    fn checkpoint_rides_behind_events_and_carries_its_seq() {
        let (q, inbox) = bounded(8, None);
        q.send(7, ev(0), Admission::Block).unwrap();
        let q2 = q.clone();
        let barrier = std::thread::spawn(move || q2.request_checkpoint(7));
        match inbox.recv() {
            Some(TrainerMsg::Event { seq, .. }) => assert_eq!(seq, 7),
            _ => panic!("expected event message"),
        }
        match inbox.recv() {
            Some(TrainerMsg::Checkpoint { seq, ack }) => {
                assert_eq!(seq, 7);
                ack.send(()).unwrap();
            }
            _ => panic!("expected checkpoint message"),
        }
        barrier.join().unwrap().unwrap();
    }

    // What each `Admission` answers on a full queue with no trainer
    // draining it, and what it leaves behind. The session-level half —
    // `Admission × {single, sharded}` — is the table in `tests/chaos.rs`.

    #[test]
    fn try_send_sheds_on_full_and_reports_the_gauge() {
        let (q, inbox) = bounded(2, None);
        q.send(0, ev(0), Admission::Shed).unwrap();
        q.send(0, ev(1), Admission::Shed).unwrap();
        match q.send(0, ev(2), Admission::Shed) {
            Err(ServeError::Overloaded { depth, capacity }) => {
                assert_eq!(depth, 2);
                assert_eq!(capacity, 2);
            }
            other => panic!("expected overloaded, got {other:?}"),
        }
        assert_eq!(q.depth(), 2, "shed event must not leak depth");
        assert_eq!(q.accepted(), 2);
        assert!(!q.has_free(1));
        inbox.recv();
        assert!(q.has_free(1));
        q.send(0, ev(3), Admission::Shed).unwrap();
    }

    #[test]
    fn deadline_send_waits_then_gives_up() {
        let (q, inbox) = bounded(1, None);
        q.send(0, ev(0), Admission::Block).unwrap();
        // No drain: the deadline expires against a full queue.
        let deadline = Instant::now() + Duration::from_millis(30);
        let start = Instant::now();
        assert!(matches!(
            q.send(0, ev(1), Admission::Until(deadline)),
            Err(ServeError::DeadlineExceeded)
        ));
        assert!(start.elapsed() >= Duration::from_millis(25));
        // With a drain in flight the same call succeeds.
        let q2 = q.clone();
        let sender = std::thread::spawn(move || {
            let deadline = Instant::now() + Duration::from_secs(5);
            q2.send(0, ev(2), Admission::Until(deadline))
        });
        std::thread::sleep(Duration::from_millis(10));
        inbox.recv();
        sender.join().unwrap().unwrap();
    }

    #[test]
    fn deadline_flush_times_out_without_a_trainer_ack() {
        let (q, inbox) = bounded(4, None);
        let deadline = Instant::now() + Duration::from_millis(20);
        assert!(matches!(
            q.request_flush(Admission::Until(deadline)),
            Err(ServeError::DeadlineExceeded)
        ));
        // The flush stayed queued: a recovered trainer still sees it.
        match inbox.recv() {
            Some(TrainerMsg::Flush(ack)) => {
                // The requester is gone; the ack send fails silently.
                assert!(ack
                    .send(FlushOutcome {
                        stepped: false,
                        epoch: 0
                    })
                    .is_err());
            }
            _ => panic!("expected the timed-out flush to remain queued"),
        }
    }

    // The `ingest.enqueue` failpoint is exercised in the serialized
    // integration chaos suite (tests/chaos.rs): arming the shared
    // global site here would race the other unit tests' sends.

    #[test]
    fn closed_inbox_yields_closed_errors() {
        let (q, inbox) = bounded(2, None);
        drop(inbox);
        assert!(matches!(
            q.send(0, ev(0), Admission::Block),
            Err(ServeError::Closed)
        ));
        assert!(matches!(
            q.request_flush(Admission::Block),
            Err(ServeError::Closed)
        ));
        assert_eq!(q.depth(), 0, "failed send must not leak depth");
        q.send_shutdown(); // must not panic
    }

    #[test]
    fn flush_rides_behind_events() {
        let (q, inbox) = bounded(8, None);
        q.send(0, ev(0), Admission::Block).unwrap();
        let q2 = q.clone();
        let flusher = std::thread::spawn(move || q2.request_flush(Admission::Block));
        // The trainer side sees the event first, then the flush.
        assert!(matches!(inbox.recv(), Some(TrainerMsg::Event { .. })));
        match inbox.recv() {
            Some(TrainerMsg::Flush(ack)) => ack
                .send(FlushOutcome {
                    stepped: true,
                    epoch: 1,
                })
                .unwrap(),
            _ => panic!("expected flush message"),
        }
        assert_eq!(
            flusher.join().unwrap().unwrap(),
            FlushOutcome {
                stepped: true,
                epoch: 1
            }
        );
    }
}
