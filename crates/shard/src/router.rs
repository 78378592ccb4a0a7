//! [`ShardRouter`]: partition-routed event fan-out with halo-mirrored
//! boundary edges and drift-triggered rebalancing.
//!
//! The router owns the *global* view of the dynamic network (a plain
//! [`GraphState`] mirror plus a node → shard assignment map) and turns
//! each incoming [`GraphEvent`] into the per-shard events that keep
//! every shard's local `GraphState` an exact sub-network:
//!
//! - an **intra-shard** edge goes to its one owning shard;
//! - a **cross-shard** edge is mirrored to *both* endpoint owners as a
//!   halo edge (see the module docs on halo semantics below);
//! - a node removal goes to the owner and to every shard holding a
//!   halo copy (i.e. the owners of the node's neighbours).
//!
//! **Placement invariant.** At every moment, edge `(u, v)` is present
//! in shard `s` iff `s ∈ {owner(u), owner(v)}`. Routing preserves it
//! event by event, and [`ShardRouter::rebalance`] preserves it across
//! ownership changes by emitting explicit migration events. The
//! invariant is what makes the union of the per-shard states (halo
//! mirrors deduplicated) exactly the unsharded state — property-pinned
//! in this crate's test suite.
//!
//! # Halo edges and walk stitching
//!
//! In shard `s`, a node owned elsewhere but mirrored in (a **halo
//! node**) carries exactly its cross edges into `s`-owned nodes —
//! never its full adjacency. Random walks over the shard's committed
//! snapshot therefore stitch across the boundary one hop deep: a walk
//! stepping onto a halo node *deterministically reflects* back into
//! the shard at the next step (all of the halo's local neighbours are
//! owned by `s`), because the walk machinery just keeps walking
//! whatever adjacency exists. Walks never dead-end at the boundary and
//! never leave the shard's node set.
//!
//! **Bias bound.** Relative to unsharded walks, the only distortion is
//! at the boundary: from an owned node `u` the one-step probability of
//! entering the halo is `cut(u)/deg(u)` (its cross-edge fraction), and
//! from a halo node the walk returns to owned nodes with probability
//! one. The expected fraction of walk steps spent on halo nodes is
//! hence at most `max_u cut(u)/deg(u)`, and a length-`L` walk visits
//! the halo at most `L·max_u cut(u)/deg(u)` times in expectation — the
//! exact quantity the METIS-style partitioner minimises (edge cut
//! under the balance constraint, Eq. 1–2 of the paper). The shard test
//! suite checks this bound empirically.

use glodyne_embed::config::ConfigError;
use glodyne_embed::walks::splitmix64_next;
use glodyne_graph::state::{GraphEvent, GraphEventKind, GraphState};
use glodyne_graph::NodeId;
use glodyne_partition::{partition, PartitionConfig};
use std::collections::HashMap;

/// Shard-layout parameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ShardConfig {
    /// Number of shards `S` (>= 1).
    pub shards: usize,
    /// Balance tolerance ε of the underlying partitioner (Eq. 2).
    pub epsilon: f64,
    /// Seed for the partitioner and the new-node fallback hash.
    pub seed: u64,
    /// Re-partition when more than this fraction of live nodes were
    /// placed by the fallback hash instead of the partitioner
    /// (drift). In `(0, 1]`.
    pub drift_threshold: f64,
    /// Don't run the partitioner below this many live nodes (tiny
    /// graphs stay on the hash placement, which is balanced enough).
    pub min_partition_nodes: usize,
    /// How many queued migration events a serving flush may forward
    /// per flush boundary when draining a drift rebalance (`0` means
    /// unlimited). Rebalancing is deferred to flush boundaries and
    /// spread across them under this budget, so a large re-partition
    /// cannot monopolise the write path.
    pub rebalance_budget: usize,
    /// ANN fan-out over-fetch factor (>= 1): each shard's IVF index is
    /// asked for `k * ann_overfetch` candidates before the ownership
    /// filter drops halo copies. Halo hits consume candidate slots, so
    /// `1` lets a boundary-heavy shard contribute fewer than `k` owned
    /// rows (lower recall); larger factors recover recall on heavily
    /// mirrored graphs at a linearly larger per-shard merge cost. The
    /// default `2` matches the historical hard-coded fan-out.
    pub ann_overfetch: usize,
}

impl Default for ShardConfig {
    fn default() -> Self {
        ShardConfig {
            shards: 2,
            epsilon: 0.1,
            seed: 0,
            drift_threshold: 0.25,
            min_partition_nodes: 64,
            rebalance_budget: 256,
            ann_overfetch: 2,
        }
    }
}

impl ShardConfig {
    /// A config with `shards` shards and default tolerances.
    pub fn with_shards(shards: usize) -> Self {
        ShardConfig {
            shards,
            ..Default::default()
        }
    }

    /// Validate the parameters (the workspace's fallible-config
    /// convention: degenerate values are rejected, never repaired).
    pub fn validate(&self) -> Result<(), ConfigError> {
        if self.shards < 1 {
            return Err(ConfigError::new("shards", "must be >= 1"));
        }
        if !(self.epsilon.is_finite() && self.epsilon >= 0.0) {
            return Err(ConfigError::new("epsilon", "must be finite and >= 0"));
        }
        if !(self.drift_threshold > 0.0 && self.drift_threshold <= 1.0) {
            return Err(ConfigError::new("drift_threshold", "must be in (0, 1]"));
        }
        if self.min_partition_nodes < 1 {
            return Err(ConfigError::new("min_partition_nodes", "must be >= 1"));
        }
        if self.ann_overfetch < 1 {
            return Err(ConfigError::new("ann_overfetch", "must be >= 1"));
        }
        Ok(())
    }
}

/// Where one node lives and how it got there.
#[derive(Debug, Clone, Copy)]
struct Placement {
    shard: u32,
    /// `true` when the partitioner placed it; `false` for the
    /// fallback-hash placement of a node first seen between
    /// re-partitions (the drift the router watches).
    pinned: bool,
}

/// Counters describing the router's life so far.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RouterStats {
    /// Live nodes in the global mirror.
    pub nodes: usize,
    /// Live edges in the global mirror.
    pub edges: usize,
    /// Live nodes currently placed by the fallback hash.
    pub hash_placed: usize,
    /// Re-partitions performed.
    pub rebalances: u64,
    /// Nodes moved across shards by the last rebalance.
    pub last_moved: usize,
}

/// What one rebalance did: the migration events to forward (in order)
/// plus how many nodes changed owner.
#[derive(Debug)]
pub struct Rebalance {
    /// `(shard, event)` pairs that move mirrored state between shards;
    /// forward them to the shard sessions *before* any further routed
    /// events.
    pub events: Vec<(u32, GraphEvent)>,
    /// Nodes whose owner changed.
    pub moved: usize,
}

/// The partition-routed event router (see the module docs).
#[derive(Debug, Clone)]
pub struct ShardRouter {
    cfg: ShardConfig,
    /// Global mirror of the dynamic network.
    global: GraphState,
    placement: HashMap<NodeId, Placement>,
    hash_placed: usize,
    /// Running max of event timestamps (migration events reuse it so
    /// they never drag a shard's epoch clock backwards).
    time: u64,
    rebalances: u64,
    last_moved: usize,
}

impl ShardRouter {
    /// A router over `cfg.shards` shards. Rejects a degenerate config.
    pub fn new(cfg: ShardConfig) -> Result<Self, ConfigError> {
        cfg.validate()?;
        Ok(ShardRouter {
            cfg,
            global: GraphState::new(),
            placement: HashMap::new(),
            hash_placed: 0,
            time: 0,
            rebalances: 0,
            last_moved: 0,
        })
    }

    /// Number of shards routed to.
    pub fn shards(&self) -> usize {
        self.cfg.shards
    }

    /// The router's configuration.
    pub fn config(&self) -> &ShardConfig {
        &self.cfg
    }

    /// The shard owning `node`, if it is live.
    pub fn owner(&self, node: NodeId) -> Option<u32> {
        self.placement.get(&node).map(|p| p.shard)
    }

    /// The global (unsharded) view of the network the router has seen.
    pub fn global(&self) -> &GraphState {
        &self.global
    }

    /// Life-so-far counters.
    pub fn stats(&self) -> RouterStats {
        RouterStats {
            nodes: self.global.num_nodes(),
            edges: self.global.num_edges(),
            hash_placed: self.hash_placed,
            rebalances: self.rebalances,
            last_moved: self.last_moved,
        }
    }

    /// Deterministic fallback placement for a node first seen between
    /// re-partitions.
    fn fallback_shard(&self, node: NodeId) -> u32 {
        let mut state = self.cfg.seed ^ (0x9e37_79b9_7f4a_7c15 ^ u64::from(node.0));
        (splitmix64_next(&mut state) % self.cfg.shards as u64) as u32
    }

    /// Current owner of `node`, placing it by hash if it has none.
    fn place(&mut self, node: NodeId) -> u32 {
        if let Some(p) = self.placement.get(&node) {
            return p.shard;
        }
        let shard = self.fallback_shard(node);
        self.placement.insert(
            node,
            Placement {
                shard,
                pinned: false,
            },
        );
        self.hash_placed += 1;
        shard
    }

    /// Drop the placement of a node that left the global mirror.
    fn unplace_if_gone(&mut self, node: NodeId) {
        if !self.global.contains_node(node) {
            if let Some(p) = self.placement.remove(&node) {
                if !p.pinned {
                    self.hash_placed -= 1;
                }
            }
        }
    }

    /// Route one event: apply it to the global mirror and return the
    /// `(shard, event)` copies to forward. Globally ineffective events
    /// (duplicate additions, removals of absent state, self-loops)
    /// route nowhere. A cross-shard edge event is returned once per
    /// endpoint owner — the halo mirror.
    pub fn route(&mut self, event: GraphEvent) -> Vec<(u32, GraphEvent)> {
        self.time = self.time.max(event.time);
        match event.kind {
            GraphEventKind::AddEdge(e) => {
                if !self.global.apply(&event) {
                    return Vec::new();
                }
                let (a, b) = (self.place(e.u), self.place(e.v));
                if a == b {
                    vec![(a, event)]
                } else {
                    vec![(a, event), (b, event)]
                }
            }
            GraphEventKind::RemoveEdge(e) => {
                // Owners looked up *before* the apply can orphan the
                // endpoints out of the placement map.
                let (a, b) = (self.owner(e.u), self.owner(e.v));
                if !self.global.apply(&event) {
                    return Vec::new();
                }
                let (a, b) = (
                    a.expect("live edge endpoint"),
                    b.expect("live edge endpoint"),
                );
                let targets = if a == b {
                    vec![(a, event)]
                } else {
                    vec![(a, event), (b, event)]
                };
                self.unplace_if_gone(e.u);
                self.unplace_if_gone(e.v);
                targets
            }
            GraphEventKind::RemoveNode(n) => {
                // Every shard holding state about `n` must hear this:
                // the owner plus each neighbour's owner (halo hosts).
                let neighbors: Vec<NodeId> = self.global.neighbors(n).collect();
                let mut targets: Vec<u32> = self
                    .owner(n)
                    .into_iter()
                    .chain(neighbors.iter().filter_map(|&m| self.owner(m)))
                    .collect();
                targets.sort_unstable();
                targets.dedup();
                if !self.global.apply(&event) {
                    return Vec::new();
                }
                self.unplace_if_gone(n);
                for m in neighbors {
                    self.unplace_if_gone(m);
                }
                targets.into_iter().map(|s| (s, event)).collect()
            }
        }
    }

    /// Whether enough drift has accumulated for [`ShardRouter::rebalance`]
    /// to be worth running: the graph is big enough to partition and
    /// either nothing is pinned yet or the hash-placed fraction
    /// exceeds the drift threshold.
    pub fn needs_rebalance(&self) -> bool {
        let n = self.global.num_nodes();
        if self.cfg.shards < 2 || n < self.cfg.min_partition_nodes {
            return false;
        }
        let pinned = self.placement.len() - self.hash_placed;
        pinned == 0 || self.hash_placed as f64 > self.cfg.drift_threshold * n as f64
    }

    /// Rebalance if drifted (see [`ShardRouter::needs_rebalance`]);
    /// `None` when nothing needed doing.
    pub fn maybe_rebalance(&mut self) -> Option<Rebalance> {
        self.needs_rebalance().then(|| self.rebalance())
    }

    /// Re-partition the global mirror into `S` balanced parts
    /// (minimum-cut, the paper's Step 1 machinery), stable-mapped onto
    /// the current shard labels so unmoved regions keep their shard,
    /// and emit the migration events that reconcile every shard's
    /// local state with the new ownership. Forward the returned events
    /// before any subsequently routed event.
    pub fn rebalance(&mut self) -> Rebalance {
        let snap = self.global.commit();
        let n = snap.num_nodes();
        if n == 0 || self.cfg.shards < 2 {
            self.rebalances += 1;
            self.last_moved = 0;
            return Rebalance {
                events: Vec::new(),
                moved: 0,
            };
        }
        let mut part = partition(
            &snap,
            &PartitionConfig {
                k: self.cfg.shards,
                epsilon: self.cfg.epsilon,
                seed: self.cfg.seed,
                ..Default::default()
            },
        );
        // Keep the label space at S shards and minimise migrations.
        part.relabel_to_match(self.cfg.shards, |local| self.owner(snap.node_id(local)));

        let new_owner: HashMap<NodeId, u32> = (0..n)
            .map(|local| (snap.node_id(local), part.assignment[local]))
            .collect();

        // Migration events: for each live edge, the shards that stop
        // hosting it get a removal, the ones that start get an
        // addition. Removals first so a shard both losing and gaining
        // state never sees a transient duplicate.
        let mut removals = Vec::new();
        let mut additions = Vec::new();
        for e in self.global.edges() {
            let old = owner_pair(self.owner(e.u), self.owner(e.v));
            let new = owner_pair(new_owner.get(&e.u).copied(), new_owner.get(&e.v).copied());
            for s in old.iter().flatten() {
                if !new.contains(&Some(*s)) {
                    removals.push((*s, GraphEvent::remove_edge(e.u, e.v, self.time)));
                }
            }
            for s in new.iter().flatten() {
                if !old.contains(&Some(*s)) {
                    additions.push((*s, GraphEvent::add_edge(e.u, e.v, self.time)));
                }
            }
        }
        let mut events = removals;
        events.extend(additions);

        let moved = new_owner
            .iter()
            .filter(|(&node, &shard)| self.owner(node) != Some(shard))
            .count();
        self.placement = new_owner
            .into_iter()
            .map(|(node, shard)| {
                (
                    node,
                    Placement {
                        shard,
                        pinned: true,
                    },
                )
            })
            .collect();
        self.hash_placed = 0;
        self.rebalances += 1;
        self.last_moved = moved;
        Rebalance { events, moved }
    }
}

/// The (up to two) owners hosting an edge.
fn owner_pair(a: Option<u32>, b: Option<u32>) -> [Option<u32>; 2] {
    if a == b {
        [a, None]
    } else {
        [a, b]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn apply_all(shards: usize, states: &mut Vec<GraphState>, routed: &[(u32, GraphEvent)]) {
        states.resize_with(shards, GraphState::new);
        for (s, ev) in routed {
            states[*s as usize].apply(ev);
        }
    }

    /// The union of the per-shard states (mirrors deduplicated) — the
    /// reconstruction the exactness property compares to the global
    /// mirror.
    fn union(states: &[GraphState]) -> GraphState {
        let mut u = GraphState::new();
        for s in states {
            for e in s.edges() {
                u.add_edge(e.u, e.v);
            }
        }
        u
    }

    fn router(shards: usize) -> ShardRouter {
        ShardRouter::new(ShardConfig::with_shards(shards)).unwrap()
    }

    #[test]
    fn config_validation() {
        assert!(ShardConfig::with_shards(4).validate().is_ok());
        let mut bad = ShardConfig::with_shards(0);
        assert_eq!(bad.validate().unwrap_err().param(), "shards");
        bad = ShardConfig {
            epsilon: f64::NAN,
            ..ShardConfig::default()
        };
        assert_eq!(bad.validate().unwrap_err().param(), "epsilon");
        bad = ShardConfig {
            drift_threshold: 0.0,
            ..ShardConfig::default()
        };
        assert_eq!(bad.validate().unwrap_err().param(), "drift_threshold");
        bad = ShardConfig {
            min_partition_nodes: 0,
            ..ShardConfig::default()
        };
        assert_eq!(bad.validate().unwrap_err().param(), "min_partition_nodes");
        bad = ShardConfig {
            ann_overfetch: 0,
            ..ShardConfig::default()
        };
        assert_eq!(bad.validate().unwrap_err().param(), "ann_overfetch");
        assert!(ShardRouter::new(ShardConfig::with_shards(0)).is_err());
    }

    #[test]
    fn intra_shard_edges_route_once_cross_edges_mirror() {
        let mut r = router(4);
        let mut seen_single = false;
        let mut seen_mirrored = false;
        for i in 0..40u32 {
            let routed = r.route(GraphEvent::add_edge(NodeId(i), NodeId(i + 40), 0));
            match routed.len() {
                1 => {
                    seen_single = true;
                    assert_eq!(routed[0].0, r.owner(NodeId(i)).unwrap());
                }
                2 => {
                    seen_mirrored = true;
                    let owners: Vec<u32> = routed.iter().map(|&(s, _)| s).collect();
                    assert!(owners.contains(&r.owner(NodeId(i)).unwrap()));
                    assert!(owners.contains(&r.owner(NodeId(i + 40)).unwrap()));
                    assert_ne!(owners[0], owners[1], "mirror goes to two distinct shards");
                }
                n => panic!("an edge routes to 1 or 2 shards, got {n}"),
            }
        }
        assert!(seen_single && seen_mirrored, "hash placement spreads nodes");
    }

    #[test]
    fn ineffective_events_route_nowhere() {
        let mut r = router(2);
        assert_eq!(
            r.route(GraphEvent::add_edge(NodeId(0), NodeId(0), 0)),
            vec![]
        );
        let first = r.route(GraphEvent::add_edge(NodeId(0), NodeId(1), 0));
        assert!(!first.is_empty());
        assert_eq!(
            r.route(GraphEvent::add_edge(NodeId(1), NodeId(0), 1)),
            vec![]
        );
        assert_eq!(
            r.route(GraphEvent::remove_edge(NodeId(5), NodeId(6), 1)),
            vec![]
        );
        assert_eq!(r.route(GraphEvent::remove_node(NodeId(9), 1)), vec![]);
    }

    #[test]
    fn remove_node_reaches_every_halo_host() {
        // Force a hub with neighbours across several shards, then
        // remove it: every shard hosting a mirror must hear about it.
        let mut r = router(4);
        let mut states = Vec::new();
        let hub = NodeId(1000);
        for i in 0..16u32 {
            let routed = r.route(GraphEvent::add_edge(hub, NodeId(i), 0));
            apply_all(4, &mut states, &routed);
        }
        let hosts: std::collections::BTreeSet<u32> = (0..16u32)
            .filter_map(|i| r.owner(NodeId(i)))
            .chain(r.owner(hub))
            .collect();
        let routed = r.route(GraphEvent::remove_node(hub, 1));
        let targets: std::collections::BTreeSet<u32> = routed.iter().map(|&(s, _)| s).collect();
        assert_eq!(targets, hosts);
        apply_all(4, &mut states, &routed);
        for s in &states {
            assert!(!s.contains_node(hub), "halo copies removed everywhere");
        }
        assert_eq!(r.owner(hub), None, "placement dropped with the node");
        assert_eq!(union(&states), *r.global());
    }

    #[test]
    fn routing_is_deterministic() {
        let events: Vec<GraphEvent> = (0..30u32)
            .map(|i| GraphEvent::add_edge(NodeId(i % 7), NodeId(i % 11 + 3), u64::from(i)))
            .collect();
        let mut a = router(3);
        let mut b = router(3);
        for &ev in &events {
            assert_eq!(a.route(ev), b.route(ev));
        }
    }

    #[test]
    fn rebalance_preserves_the_union_and_stabilises_labels() {
        // Two 40-cliques joined by one bridge, ingested edge by edge:
        // hash placement scatters them, the rebalance pulls each clique
        // onto one shard — and the union is untouched.
        let mut r = ShardRouter::new(ShardConfig {
            shards: 2,
            min_partition_nodes: 8,
            ..Default::default()
        })
        .unwrap();
        let mut states = Vec::new();
        for c in 0..2u32 {
            let base = c * 40;
            for i in 0..40 {
                for j in (i + 1)..40 {
                    let routed =
                        r.route(GraphEvent::add_edge(NodeId(base + i), NodeId(base + j), 0));
                    apply_all(2, &mut states, &routed);
                }
            }
        }
        let routed = r.route(GraphEvent::add_edge(NodeId(0), NodeId(40), 0));
        apply_all(2, &mut states, &routed);

        assert!(r.needs_rebalance(), "everything is hash-placed");
        let rb = r.rebalance();
        apply_all(2, &mut states, &rb.events);
        assert_eq!(union(&states), *r.global(), "rebalance keeps the union");
        assert_eq!(r.stats().rebalances, 1);
        assert_eq!(r.stats().hash_placed, 0);

        // Each clique now lives on one shard.
        for c in 0..2u32 {
            let base = c * 40;
            let owner = r.owner(NodeId(base)).unwrap();
            for i in 0..40 {
                assert_eq!(r.owner(NodeId(base + i)), Some(owner), "clique {c}");
            }
        }

        // A second rebalance on an unchanged graph moves (almost)
        // nothing: the stable relabelling keeps the parts in place.
        let rb2 = r.rebalance();
        assert_eq!(rb2.moved, 0, "stable mapping: unchanged graph, no moves");
        assert!(rb2.events.is_empty());

        // And routing after the rebalance still lands intra-clique
        // events on the clique's one shard.
        let routed = r.route(GraphEvent::remove_edge(NodeId(1), NodeId(39), 1));
        apply_all(2, &mut states, &routed);
        assert_eq!(routed.len(), 1, "intra-clique event routes to one shard");
        assert_eq!(routed[0].0, r.owner(NodeId(1)).unwrap());
        assert_eq!(union(&states), *r.global());
    }

    #[test]
    fn single_shard_router_never_rebalances_and_routes_everything_to_zero() {
        let mut r = router(1);
        for i in 0..100u32 {
            for (s, _) in r.route(GraphEvent::add_edge(NodeId(i), NodeId(i + 1), 0)) {
                assert_eq!(s, 0);
            }
        }
        assert!(!r.needs_rebalance());
        assert!(r.maybe_rebalance().is_none());
    }

    #[test]
    fn migration_timestamps_never_rewind_the_clock() {
        let mut r = ShardRouter::new(ShardConfig {
            shards: 2,
            min_partition_nodes: 4,
            ..Default::default()
        })
        .unwrap();
        for i in 0..20u32 {
            r.route(GraphEvent::add_edge(NodeId(i), NodeId(i + 1), u64::from(i)));
        }
        let rb = r.rebalance();
        for (_, ev) in &rb.events {
            assert_eq!(ev.time, 19, "migrations ride the running-max clock");
        }
    }
}
