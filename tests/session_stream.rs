//! End-to-end test of the streaming session layer: ingesting a timed
//! edge stream event-by-event under `TimestampBoundary` must produce
//! embeddings equivalent to the batch `run_over` path on the same cuts
//! (same seeds, sequential training => bit-identical), and the step
//! trait must carry populated `StepReport`s for GloDyNE and baselines.

use glodyne::{EmbedderSession, EpochPolicy, GloDyNE, GloDyNEConfig};
use glodyne_baselines::{bcgd::BcgdConfig, dynline::DynLineConfig, BcgdLocal, DynLine};
use glodyne_embed::traits::{run_over, run_over_reports, DynamicEmbedder, StepReport};
use glodyne_embed::walks::WalkConfig;
use glodyne_embed::{Embedding, SgnsConfig};
use glodyne_graph::id::{NodeId, TimedEdge};
use glodyne_graph::DynamicNetwork;
use glodyne_tasks::gr::mean_precision_at_k;

/// A growing two-community stream over four distinct timestamps.
fn fixture_stream() -> Vec<TimedEdge> {
    let mut stream = Vec::new();
    // t=0: two 8-cliques plus one bridge.
    for c in 0..2u32 {
        let base = c * 8;
        for i in 0..8 {
            for j in (i + 1)..8 {
                stream.push(TimedEdge::new(NodeId(base + i), NodeId(base + j), 0));
            }
        }
    }
    stream.push(TimedEdge::new(NodeId(0), NodeId(8), 0));
    // t=1..3: a chain grows out of node 0, plus intra-community churn.
    for t in 1..4u64 {
        let v = 15 + t as u32;
        stream.push(TimedEdge::new(NodeId(v), NodeId(v + 1), t));
        stream.push(TimedEdge::new(NodeId(0), NodeId(v), t));
        stream.push(TimedEdge::new(NodeId(t as u32), NodeId(8 + t as u32), t));
    }
    stream
}

fn glodyne_cfg() -> GloDyNEConfig {
    GloDyNEConfig {
        alpha: 0.3,
        walk: WalkConfig {
            walks_per_node: 3,
            walk_length: 10,
            seed: 5,
        },
        sgns: SgnsConfig {
            dim: 16,
            window: 3,
            negatives: 3,
            epochs: 2,
            parallel: false, // sequential => bit-exact reproducible
            ..Default::default()
        },
        ..Default::default()
    }
}

fn assert_embeddings_identical(a: &Embedding, b: &Embedding, t: usize) {
    assert_eq!(a.len(), b.len(), "step {t}: node counts differ");
    for (id, v) in a.iter() {
        assert_eq!(b.get(id), Some(v), "step {t}: vector of {id} differs");
    }
}

#[test]
fn session_stream_equals_batch_run_over() {
    let stream = fixture_stream();

    // Batch path: cut the stream at every distinct timestamp, reduce to
    // LCCs, drive with run_over.
    let mut cuts: Vec<u64> = stream.iter().map(|e| e.time).collect();
    cuts.sort_unstable();
    cuts.dedup();
    let net = DynamicNetwork::from_edge_stream(stream.clone(), &cuts);
    let mut batch_model = GloDyNE::new(glodyne_cfg()).unwrap();
    let batch_embs = run_over(&mut batch_model, net.snapshots());

    // Streaming path: the same edges, one event at a time.
    let mut session = EmbedderSession::new(
        GloDyNE::new(glodyne_cfg()).unwrap(),
        EpochPolicy::TimestampBoundary,
    )
    .unwrap();
    let mut stream_embs: Vec<Embedding> = Vec::new();
    for &te in &stream {
        if session.apply(te.into()) {
            stream_embs.push(session.embedding().clone());
        }
    }
    session.flush();
    stream_embs.push(session.embedding().clone());

    assert_eq!(batch_embs.len(), stream_embs.len(), "same number of steps");
    for (t, (b, s)) in batch_embs.iter().zip(&stream_embs).enumerate() {
        assert_embeddings_identical(b, s, t);
    }

    // And the downstream-task quality matches exactly on the final cut.
    let last = net.snapshots().last().unwrap();
    let batch_gr = mean_precision_at_k(batch_embs.last().unwrap(), last, &[10])[0];
    let stream_gr = mean_precision_at_k(stream_embs.last().unwrap(), last, &[10])[0];
    assert_eq!(batch_gr, stream_gr, "tasks-level equivalence");
    assert!(batch_gr > 0.0);
}

/// Stream every edge through `session` and flush the last epoch,
/// keeping each step's report as the `apply` or `flush` that committed
/// it hands it over.
fn ingest_with_reports<E: DynamicEmbedder>(
    session: &mut EmbedderSession<E>,
    stream: &[TimedEdge],
) -> Vec<StepReport> {
    let mut reports = Vec::new();
    for &te in stream {
        if session.apply(te.into()) {
            reports.extend(session.last_report());
        }
    }
    reports.extend(session.flush());
    reports
}

#[test]
fn session_reports_are_populated() {
    let mut session = EmbedderSession::new(
        GloDyNE::new(glodyne_cfg()).unwrap(),
        EpochPolicy::TimestampBoundary,
    )
    .unwrap();
    let reports = ingest_with_reports(&mut session, &fixture_stream());
    assert_eq!(session.steps(), 4, "four distinct timestamps");
    assert_eq!(reports.len(), 4, "one report per committed step");
    let offline = &reports[0];
    assert!(offline.trained_pairs > 0);
    assert!(offline.corpus_tokens > 0);
    assert!(offline.selected > 0);
    for (t, r) in reports.iter().enumerate().skip(1) {
        assert!(r.selected > 0, "step {t} selected nothing");
        assert!(r.corpus_tokens > 0, "step {t} walked nothing");
    }
    // Queries answer from the live embedding.
    assert!(session.query(NodeId(0)).is_some());
    let near = session.nearest(NodeId(0), 5);
    assert_eq!(near.len(), 5);
}

#[test]
fn baselines_run_through_step_trait_with_reports() {
    let stream = fixture_stream();
    let mut cuts: Vec<u64> = stream.iter().map(|e| e.time).collect();
    cuts.sort_unstable();
    cuts.dedup();
    let net = DynamicNetwork::from_edge_stream(stream, &cuts);

    let mut methods: Vec<Box<dyn DynamicEmbedder>> = vec![
        Box::new(
            BcgdLocal::new(BcgdConfig {
                dim: 8,
                iterations: 5,
                ..Default::default()
            })
            .unwrap(),
        ),
        Box::new(
            DynLine::new(DynLineConfig {
                dim: 8,
                samples_per_node: 20,
                ..Default::default()
            })
            .unwrap(),
        ),
    ];
    for method in methods.iter_mut() {
        let results = run_over_reports(method.as_mut(), net.snapshots());
        assert_eq!(results.len(), net.len());
        for (t, (emb, report)) in results.iter().enumerate() {
            assert!(
                !emb.is_empty(),
                "{} step {t}: empty embedding",
                method.name()
            );
            assert!(
                report.selected > 0,
                "{} step {t}: StepReport.selected empty",
                method.name()
            );
        }
        // A baseline can also drive a full streaming session.
    }
}

#[test]
fn baseline_inside_a_session() {
    let model = BcgdLocal::new(BcgdConfig {
        dim: 8,
        iterations: 5,
        ..Default::default()
    })
    .unwrap();
    let mut session = EmbedderSession::new(model, EpochPolicy::TimestampBoundary).unwrap();
    let reports = ingest_with_reports(&mut session, &fixture_stream());
    assert_eq!(session.steps(), 4);
    assert!(session.query(NodeId(1)).is_some());
    assert!(reports.iter().all(|r| r.selected > 0));
}
