//! Halo-edge walk semantics: random walks over one shard's committed
//! snapshot stitch across the boundary exactly one hop deep,
//! deterministically reflect back off halo nodes, and spend at most a
//! `max_u cut(u)/deg(u)` fraction of their steps on the halo — the
//! bias bound documented in `glodyne_shard::router`.

use glodyne_embed::walks::{generate_corpus, WalkConfig};
use glodyne_graph::state::{GraphEvent, GraphState};
use glodyne_graph::{NodeId, Snapshot};
use glodyne_shard::{ShardConfig, ShardRouter};
use std::collections::BTreeSet;

/// Route a two-community graph (tight 20-cliques, two bridges) through
/// a 2-shard router, rebalance so each community owns one shard, and
/// return shard 0's local graph plus its owned node set.
fn sharded_community() -> (ShardRouter, GraphState, BTreeSet<NodeId>) {
    let mut router = ShardRouter::new(ShardConfig {
        shards: 2,
        min_partition_nodes: 8,
        ..Default::default()
    })
    .unwrap();
    let mut states = vec![GraphState::new(), GraphState::new()];
    let feed = |router: &mut ShardRouter, states: &mut Vec<GraphState>, ev: GraphEvent| {
        for (s, ev) in router.route(ev) {
            states[s as usize].apply(&ev);
        }
    };
    for c in 0..2u32 {
        let base = c * 20;
        for i in 0..20 {
            for j in (i + 1)..20 {
                feed(
                    &mut router,
                    &mut states,
                    GraphEvent::add_edge(NodeId(base + i), NodeId(base + j), 0),
                );
            }
        }
    }
    for (a, b) in [(0u32, 20u32), (1, 21)] {
        feed(
            &mut router,
            &mut states,
            GraphEvent::add_edge(NodeId(a), NodeId(b), 0),
        );
    }
    let rb = router.rebalance();
    for (s, ev) in rb.events {
        states[s as usize].apply(&ev);
    }
    let shard0 = states.swap_remove(0);
    let owned: BTreeSet<NodeId> = shard0
        .nodes()
        .filter(|&n| router.owner(n) == Some(0))
        .collect();
    (router, shard0, owned)
}

#[test]
fn walks_reflect_off_halo_nodes_within_the_bias_bound() {
    let (_router, shard0, owned) = sharded_community();
    let snap: Snapshot = shard0.commit();
    assert_eq!(owned.len(), 20, "one community owns shard 0");
    let halo: BTreeSet<NodeId> = shard0.nodes().filter(|n| !owned.contains(n)).collect();
    assert!(!halo.is_empty(), "the bridges mirror halo nodes in");
    for &h in &halo {
        for m in shard0.neighbors(h) {
            assert!(
                owned.contains(&m),
                "halo {h:?} may only touch owned nodes in the shard"
            );
        }
    }

    // The documented bound: max over owned nodes of cut(u)/deg(u),
    // where cut(u) counts halo neighbours. Owners hold a node's full
    // adjacency, so deg here equals the global degree.
    let max_frac = owned
        .iter()
        .map(|&u| {
            let (mut cut, mut deg) = (0usize, 0usize);
            for m in shard0.neighbors(u) {
                deg += 1;
                cut += usize::from(halo.contains(&m));
            }
            cut as f64 / deg as f64
        })
        .fold(0.0f64, f64::max);
    assert!(
        max_frac > 0.0 && max_frac < 0.2,
        "boundary exists, cut is small"
    );

    let cfg = WalkConfig {
        walks_per_node: 10,
        walk_length: 20,
        seed: 7,
    };
    let starts: Vec<u32> = snap
        .node_ids()
        .iter()
        .enumerate()
        .filter(|(_, id)| owned.contains(id))
        .map(|(local, _)| local as u32)
        .collect();
    let corpus = generate_corpus(&snap, &starts, &cfg);
    assert_eq!(corpus.num_walks(), starts.len() * cfg.walks_per_node);
    let walks: Vec<Vec<NodeId>> = (0..corpus.num_walks())
        .map(|i| corpus.walk_node_ids(i))
        .collect();

    let mut halo_steps = 0usize;
    let mut steps = 0usize;
    for walk in &walks {
        for (i, node) in walk.iter().enumerate() {
            if i > 0 {
                steps += 1;
                halo_steps += usize::from(halo.contains(node));
            }
            // Deterministic reflection: a halo visit is always followed
            // by an owned node (its truncated adjacency points only
            // back into the shard).
            if halo.contains(node) {
                if let Some(next) = walk.get(i + 1) {
                    assert!(owned.contains(next), "walk must reflect off the halo");
                }
            }
        }
    }
    let frac = halo_steps as f64 / steps as f64;
    assert!(
        frac <= max_frac,
        "halo-step fraction {frac:.4} exceeds the documented bound {max_frac:.4}"
    );

    // Reflection is deterministic: the same seed reproduces the walks.
    let again = generate_corpus(&snap, &starts, &cfg);
    assert_eq!(corpus.tokens(), again.tokens());
}
