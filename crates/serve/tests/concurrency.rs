//! The acceptance proof for the epoch swap: while the trainer is
//! provably *mid-step*, reads answer instantly from the previous epoch;
//! after the step commits, the epoch id in `stats` advances and reads
//! see the new state.

use glodyne::{EmbedderSession, EpochPolicy, StepContext, StepReport};
use glodyne_embed::{DynamicEmbedder, Embedding};
use glodyne_graph::state::GraphEvent;
use glodyne_graph::NodeId;
use glodyne_serve::{NearestMode, ServingSession, SessionSpec};
use std::sync::mpsc::{Receiver, Sender};
use std::time::{Duration, Instant};

/// An embedder whose `step` blocks until the test releases it: sends
/// on `entered` when a step starts, then waits for a token on `gate`
/// (one token per step). The embedding stamps each node's vector with
/// the step number, so tests can tell epochs apart.
struct GatedEmbedder {
    entered: Sender<()>,
    gate: Receiver<()>,
    steps: usize,
    emb: Embedding,
}

impl DynamicEmbedder for GatedEmbedder {
    fn step(&mut self, ctx: StepContext<'_>) -> StepReport {
        let _ = self.entered.send(());
        self.gate.recv().expect("test must hold the gate sender");
        self.steps += 1;
        for l in 0..ctx.curr.num_nodes() {
            self.emb
                .set(ctx.curr.node_id(l), &[self.steps as f32, l as f32]);
        }
        StepReport {
            selected: ctx.curr.num_nodes(),
            ..StepReport::default()
        }
    }

    fn embedding(&self) -> Embedding {
        self.emb.clone()
    }

    fn name(&self) -> &'static str {
        "gated"
    }
}

/// A gated serving session plus the test's ends of both channels.
fn gated_serving(policy: EpochPolicy, queue: usize) -> (ServingSession, Sender<()>, Receiver<()>) {
    let (entered_tx, entered_rx) = std::sync::mpsc::channel();
    let (gate_tx, gate_rx) = std::sync::mpsc::channel();
    let embedder = GatedEmbedder {
        entered: entered_tx,
        gate: gate_rx,
        steps: 0,
        emb: Embedding::new(2),
    };
    let session = EmbedderSession::new(embedder, policy)
        .unwrap()
        .keep_full_graph();
    let serving = ServingSession::spawn(session, SessionSpec::new(queue)).unwrap();
    (serving, gate_tx, entered_rx)
}

fn chain(n: u32, t: u64) -> Vec<GraphEvent> {
    (0..n)
        .map(|i| GraphEvent::add_edge(NodeId(i), NodeId(i + 1), t))
        .collect()
}

#[test]
fn reads_never_wait_on_a_training_step() {
    let (serving, gate, entered) = gated_serving(EpochPolicy::Manual, 64);

    // Epoch 1: ingest, pre-release the step token, flush to completion.
    serving.ingest(&chain(4, 0)).unwrap();
    gate.send(()).unwrap();
    let outcome = serving.flush().unwrap();
    assert!(outcome.stepped);
    entered.recv_timeout(Duration::from_secs(10)).unwrap();
    assert_eq!(serving.stats().epoch, 1);
    let (epoch, v) = serving.query(NodeId(0));
    assert_eq!(epoch, 1);
    assert_eq!(v.unwrap()[0], 1.0, "epoch-1 vectors are stamped `1`");

    // Epoch 2: enqueue new events and a flush, but do NOT release the
    // gate yet — the trainer is provably stuck mid-step.
    serving.ingest(&chain(6, 1)).unwrap();
    std::thread::scope(|scope| {
        let flush_handle = scope.spawn(|| serving.flush().unwrap());
        entered
            .recv_timeout(Duration::from_secs(10))
            .expect("trainer entered the step");

        // The trainer is blocked inside `step`. Reads must return
        // immediately, answered from epoch 1.
        let t0 = Instant::now();
        let (epoch, v) = serving.query(NodeId(0));
        let (epoch_n, near, _) = serving.nearest(NodeId(0), 3, NearestMode::Exact).unwrap();
        let stats = serving.stats();
        let elapsed = t0.elapsed();

        assert_eq!(epoch, 1, "read served from the previous epoch");
        assert_eq!(epoch_n, 1);
        assert_eq!(v.unwrap()[0], 1.0, "previous epoch's values");
        assert!(!near.is_empty());
        assert_eq!(stats.epoch, 1);
        assert!(
            elapsed < Duration::from_secs(5),
            "reads must not wait for the in-flight step (took {elapsed:?})"
        );
        // Nodes 5..=6 only exist in the still-training epoch 2.
        assert_eq!(serving.query(NodeId(6)).1, None);

        // Release the step; the flush ack is the visibility barrier.
        gate.send(()).unwrap();
        let outcome = flush_handle.join().unwrap();
        assert!(outcome.stepped);
        assert_eq!(outcome.epoch, 2);
    });

    // After the flush: epoch advanced, new state visible.
    assert_eq!(serving.stats().epoch, 2, "epoch id advances after flush");
    let (epoch, v) = serving.query(NodeId(6));
    assert_eq!(epoch, 2);
    assert_eq!(v.unwrap()[0], 2.0, "epoch-2 vectors are stamped `2`");
    serving.shutdown();
}

#[test]
fn full_queue_back_pressures_ingest_without_blocking_reads() {
    // EveryNEvents(2): the trainer stalls inside a policy-triggered
    // step while the tiny queue fills behind it.
    let (serving, gate, entered) = gated_serving(EpochPolicy::EveryNEvents(2), 2);

    std::thread::scope(|scope| {
        let producer = scope.spawn(|| {
            // Events 1–2 trigger a step (the trainer blocks in it);
            // events 3–4 fill the depth-2 queue; event 5's send must
            // block until the gate opens — that is the back-pressure.
            serving.ingest(&chain(8, 0)).unwrap()
        });
        entered
            .recv_timeout(Duration::from_secs(10))
            .expect("trainer entered the policy step");
        std::thread::sleep(Duration::from_millis(50));
        assert!(!producer.is_finished(), "producer is back-pressured");

        // Reads still answer instantly from epoch 0.
        let t0 = Instant::now();
        let stats = serving.stats();
        assert_eq!(stats.epoch, 0);
        assert!(t0.elapsed() < Duration::from_secs(5));
        assert!(stats.queue_depth >= 2, "queue holds the backlog");

        // Release all four policy steps (8 events / every 2).
        for _ in 0..4 {
            gate.send(()).unwrap();
        }
        for _ in 0..3 {
            entered.recv_timeout(Duration::from_secs(10)).unwrap();
        }
        assert_eq!(producer.join().unwrap(), 8);
    });

    // All four boundaries committed; nothing left pending.
    let outcome = serving.flush().unwrap();
    assert!(!outcome.stepped);
    assert_eq!(outcome.epoch, 4);
    assert_eq!(serving.stats().epoch, 4);
    serving.shutdown();
}
