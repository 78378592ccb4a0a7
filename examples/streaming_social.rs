//! Streaming social network: daily wall-post snapshots with bursty
//! community activity (the paper's FBW motivation), embedded
//! incrementally and evaluated on dynamic link prediction at each step.
//!
//! Demonstrates the end-to-end production loop through the streaming
//! session API: wall-post edges arrive as timed add/remove events → the
//! session commits a snapshot per day (`EpochPolicy::TimestampBoundary`)
//! and updates embeddings in O(α·|V|) work → the live embeddings rank
//! candidate future interactions at any moment.
//!
//! Run: `cargo run --release --example streaming_social`

use glodyne::{EmbedderSession, EpochPolicy, GloDyNE, GloDyNEConfig, StepReport};
use glodyne_embed::walks::WalkConfig;
use glodyne_embed::SgnsConfig;
use glodyne_graph::GraphEvent;
use glodyne_tasks::lp::{build_test_set, link_prediction_auc};

fn main() {
    let dataset = glodyne_datasets::fbw(0.4, 2024);
    let snaps = dataset.network.snapshots();
    println!(
        "FBW-like stream: {} daily snapshots, |V| {} -> {}",
        snaps.len(),
        snaps[0].num_nodes(),
        snaps.last().unwrap().num_nodes()
    );

    // Re-linearise the snapshots into the timed event stream a
    // production ingest pipeline would see: day `d` brings additions
    // for its new edges and removals for yesterday's edges that
    // disappeared (the session's graph state dedups repeats).
    let mut events: Vec<GraphEvent> = Vec::new();
    for (day, snap) in snaps.iter().enumerate() {
        let t = day as u64;
        if day > 0 {
            for e in snaps[day - 1].edges() {
                if !snap.has_edge_ids(e.u, e.v) {
                    events.push(GraphEvent::remove_edge(e.u, e.v, t));
                }
            }
        }
        events.extend(snap.edges().map(|e| GraphEvent::add_edge(e.u, e.v, t)));
    }

    let cfg = GloDyNEConfig {
        alpha: 0.1,
        walk: WalkConfig {
            walks_per_node: 6,
            walk_length: 30,
            seed: 7,
        },
        sgns: SgnsConfig {
            dim: 64,
            window: 5,
            negatives: 5,
            epochs: 2,
            ..Default::default()
        },
        ..Default::default()
    };
    let mut session = EmbedderSession::new(
        GloDyNE::new(cfg).expect("valid config"),
        EpochPolicy::TimestampBoundary,
    )
    .expect("valid policy")
    // The generated snapshots are already exactly the daily graphs;
    // keep them whole so the LP test sets line up.
    .keep_full_graph();

    println!(
        "\n{:<6}{:>8}{:>10}{:>12}{:>10}",
        "day", "|V|", "K_sel", "step_ms", "LP AUC"
    );
    let mut aucs = Vec::new();
    let mut report_day = |t: usize, session: &EmbedderSession<GloDyNE>, r: StepReport| {
        let ms = r.total_time().as_secs_f64() * 1e3;
        // Predict tomorrow's changes from today's live embeddings.
        let auc = if t + 1 < snaps.len() {
            let test = build_test_set(&snaps[t], &snaps[t + 1], 99 + t as u64);
            let a = link_prediction_auc(session.embedding(), &test);
            aucs.push(a);
            format!("{a:.3}")
        } else {
            "-".to_string()
        };
        println!(
            "{:<6}{:>8}{:>10}{:>12.1}{:>10}",
            t,
            session.last_snapshot().map_or(0, |s| s.num_nodes()),
            r.selected,
            ms,
            auc
        );
    };

    let mut t = 0usize;
    for &ev in &events {
        if session.apply(ev) {
            let r = session.last_report().expect("apply committed a step");
            report_day(t, &session, r);
            t += 1;
        }
    }
    if let Some(r) = session.flush() {
        report_day(t, &session, r);
    }

    let mean_auc = aucs.iter().sum::<f64>() / aucs.len() as f64;
    println!("\nmean link-prediction AUC over the stream: {mean_auc:.3}");
    assert!(mean_auc > 0.55, "embeddings should beat chance at LP");
    println!("OK: incremental embeddings predict future interactions above chance");
}
