//! Seeded inputs: the warm-start graph, the per-cycle event batches,
//! and the mirror graph the oracle and the quality metric read.
//!
//! The generator lives here and not in `glodyne-datasets` so that the
//! benchmark's inputs cannot change under a PR that edits the program.
//! The program never sees the seed, only the files and request lines
//! made from it: the same seed gives byte-identical inputs.
//!
//! Shape: communities of [`COMMUNITY`] nodes, each a ring lattice with
//! [`RING_REACH`] neighbours per side and a tenth of its edges rewired
//! inside the community, so the graph has local structure an embedding
//! can reconstruct without the task being trivial; plus a few bridges
//! between communities. Change arrives mostly as triadic closures
//! inside a *hot* fifth of the communities that rotates every
//! [`HOT_ROTATION`] cycles — the paper's point that the inactive
//! sub-networks still accumulate change that must not be ignored.

use std::collections::BTreeSet;
use std::fmt::Write as _;

/// Nodes per community.
pub const COMMUNITY: u32 = 100;
/// Ring-lattice neighbours on each side.
pub const RING_REACH: u32 = 4;
/// Share of lattice edges rewired inside their community.
const REWIRE: f64 = 0.10;
/// Bridges added to the warm-start graph, as a share of its edges.
const WARM_BRIDGES: f64 = 0.05;
/// Share of communities that are hot at any time.
const HOT_SHARE: f64 = 0.20;
/// Cycles after which the hot set moves on.
pub const HOT_ROTATION: usize = 8;
/// Share of a cycle's events that remove an edge.
const REMOVE_EDGE_SHARE: f64 = 0.15;
/// Probe candidates kept per cycle.
pub const PROBES: usize = 8;

/// SplitMix64: a tiny, well-mixed generator with a one-word state, so
/// the inputs depend on nothing outside this file.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A generator for `seed`; `stream` separates independent uses of
    /// one benchmark seed (graph, events, probes).
    pub fn new(seed: u64, stream: u64) -> Self {
        let mut r = Rng(seed ^ stream.wrapping_mul(0xa076_1d64_78bd_642f));
        r.next_u64();
        r
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`). The modulo bias at these ranges is
    /// below 2^-40 and identical for every build measured.
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// A uniformly chosen element of a non-empty slice.
    pub fn pick<'a, T>(&mut self, items: &'a [T]) -> &'a T {
        &items[self.below(items.len() as u64) as usize]
    }
}

/// One graph event, as the wire's `ingest` spells them.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Event {
    /// Add the undirected edge `(u, v)`.
    Add(u32, u32),
    /// Remove the undirected edge `(u, v)`.
    RemoveEdge(u32, u32),
    /// Remove a node and every edge on it.
    RemoveNode(u32),
}

/// The benchmark's own copy of the graph the server should hold:
/// every generated event is applied here first. A node is live while
/// it has an edge, the same rule `GraphState` documents.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Mirror {
    adj: Vec<BTreeSet<u32>>,
    live: usize,
    edges: usize,
}

impl Mirror {
    fn slot(&mut self, n: u32) -> &mut BTreeSet<u32> {
        if self.adj.len() <= n as usize {
            self.adj.resize_with(n as usize + 1, BTreeSet::new);
        }
        &mut self.adj[n as usize]
    }

    /// Apply one event; `true` when the graph changed.
    pub fn apply(&mut self, event: Event) -> bool {
        match event {
            Event::Add(u, v) => {
                if u == v || self.has_edge(u, v) {
                    return false;
                }
                for (a, b) in [(u, v), (v, u)] {
                    let s = self.slot(a);
                    if s.is_empty() {
                        self.live += 1;
                    }
                    self.slot(a).insert(b);
                }
                self.edges += 1;
                true
            }
            Event::RemoveEdge(u, v) => {
                if !self.has_edge(u, v) {
                    return false;
                }
                for (a, b) in [(u, v), (v, u)] {
                    let s = self.slot(a);
                    s.remove(&b);
                    if s.is_empty() {
                        self.live -= 1;
                    }
                }
                self.edges -= 1;
                true
            }
            Event::RemoveNode(n) => {
                let Some(ns) = self.adj.get_mut(n as usize).map(std::mem::take) else {
                    return false;
                };
                if ns.is_empty() {
                    return false;
                }
                self.live -= 1;
                self.edges -= ns.len();
                for m in ns {
                    let s = &mut self.adj[m as usize];
                    s.remove(&n);
                    if s.is_empty() {
                        self.live -= 1;
                    }
                }
                true
            }
        }
    }

    /// Whether the undirected edge is present.
    pub fn has_edge(&self, u: u32, v: u32) -> bool {
        self.adj.get(u as usize).is_some_and(|s| s.contains(&v))
    }

    /// Current degree (0 for a node that is not live).
    pub fn degree(&self, n: u32) -> usize {
        self.adj.get(n as usize).map_or(0, BTreeSet::len)
    }

    /// Sorted neighbours of `n`.
    pub fn neighbours(&self, n: u32) -> impl Iterator<Item = u32> + '_ {
        self.adj.get(n as usize).into_iter().flatten().copied()
    }

    /// Live nodes, ascending.
    pub fn live_nodes(&self) -> Vec<u32> {
        (0..self.adj.len() as u32)
            .filter(|&n| self.degree(n) > 0)
            .collect()
    }

    /// Number of live nodes.
    pub fn num_live(&self) -> usize {
        self.live
    }

    /// Number of edges.
    pub fn num_edges(&self) -> usize {
        self.edges
    }

    /// One past the largest node id ever mentioned.
    pub fn id_bound(&self) -> u32 {
        self.adj.len() as u32
    }

    /// Edges as `(u, v)` with `u < v`, ascending.
    pub fn edges(&self) -> impl Iterator<Item = (u32, u32)> + '_ {
        self.adj.iter().enumerate().flat_map(|(u, ns)| {
            let u = u as u32;
            ns.iter().filter(move |&&v| v > u).map(move |&v| (u, v))
        })
    }
}

/// What varies between workloads in the event stream.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StreamShape {
    /// Share of a cycle's additions that bridge two communities.
    pub bridge_share: f64,
    /// Share of a cycle's additions that bring a new node.
    pub new_node_share: f64,
}

/// One write cycle's worth of input.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Cycle {
    /// The batch, in order; every event changes the graph.
    pub events: Vec<Event>,
    /// Nodes the batch touched that are live after it and have been
    /// since the warm start, at most [`PROBES`] of them. The first one
    /// the server answers for shows the batch's epoch; a sharded
    /// server may be mid-migration on any single one.
    pub probes: Vec<u32>,
    /// The node this batch removed.
    pub removed: u32,
}

/// The seeded event source for one run.
#[derive(Debug, Clone)]
pub struct Generator {
    rng: Rng,
    shape: StreamShape,
    communities: u32,
    cycle: usize,
    /// The mirror graph, updated by every generated event.
    pub mirror: Mirror,
}

impl Generator {
    /// Build the warm-start graph for `nodes` nodes (rounded down to
    /// whole communities, at least two).
    pub fn new(seed: u64, nodes: u32, shape: StreamShape) -> Self {
        let communities = (nodes / COMMUNITY).max(2);
        let mut rng = Rng::new(seed, 1);
        let mut mirror = Mirror::default();
        for c in 0..communities {
            let base = c * COMMUNITY;
            for i in 0..COMMUNITY {
                for d in 1..=RING_REACH {
                    let u = base + i;
                    let v = if rng.unit() < REWIRE {
                        base + rng.below(COMMUNITY as u64) as u32
                    } else {
                        base + (i + d) % COMMUNITY
                    };
                    mirror.apply(Event::Add(u, v));
                }
            }
        }
        let n = communities * COMMUNITY;
        let bridges = (mirror.num_edges() as f64 * WARM_BRIDGES).round() as usize;
        let mut added = 0;
        while added < bridges {
            let u = rng.below(n as u64) as u32;
            let v = rng.below(n as u64) as u32;
            if u / COMMUNITY != v / COMMUNITY && mirror.apply(Event::Add(u, v)) {
                added += 1;
            }
        }
        Generator {
            rng: Rng::new(seed, 2),
            shape,
            communities,
            cycle: 0,
            mirror,
        }
    }

    /// The warm-start edge file: one `u v t` line per edge, `t = 0`.
    pub fn warm_start_file(&self) -> String {
        let mut out = String::with_capacity(self.mirror.num_edges() * 14);
        for (u, v) in self.mirror.edges() {
            let _ = writeln!(out, "{u} {v} 0");
        }
        out
    }

    /// Nodes of the warm-start graph (new nodes get ids from here up).
    pub fn warm_nodes(&self) -> u32 {
        self.communities * COMMUNITY
    }

    /// Communities hot during `cycle`: a contiguous fifth of the ring
    /// of communities, moved on by its own width every rotation.
    fn hot_communities(&self, cycle: usize) -> (u32, u32) {
        let width = ((self.communities as f64 * HOT_SHARE).round() as u32).max(1);
        let start = ((cycle / HOT_ROTATION) as u32 * width) % self.communities;
        (start, width)
    }

    /// A live warm-start node of a hot community with degree ≥ 2.
    fn hot_node(&mut self, cycle: usize) -> u32 {
        let (start, width) = self.hot_communities(cycle);
        loop {
            let c = (start + self.rng.below(width as u64) as u32) % self.communities;
            let n = c * COMMUNITY + self.rng.below(COMMUNITY as u64) as u32;
            if self.mirror.degree(n) >= 2 {
                return n;
            }
        }
    }

    /// A live warm-start node with degree ≥ 2, anywhere.
    fn any_node(&mut self) -> u32 {
        let n = self.warm_nodes() as u64;
        loop {
            let c = self.rng.below(n) as u32;
            if self.mirror.degree(c) >= 2 {
                return c;
            }
        }
    }

    /// Generate the next cycle of `batch` events (`batch >= 4`) and
    /// apply it to the mirror. Every event is effective, so the counts
    /// the server reports are a function of the seed alone.
    pub fn next_cycle(&mut self, batch: usize) -> Cycle {
        let cycle = self.cycle;
        self.cycle += 1;
        let removes = ((batch as f64 * REMOVE_EDGE_SHARE).round() as usize).max(1);
        let adds = batch - removes - 1;
        let bridges = (adds as f64 * self.shape.bridge_share).round() as usize;
        let new_nodes = (adds as f64 * self.shape.new_node_share).round() as usize;
        let closures = adds - bridges - new_nodes;

        let mut events = Vec::with_capacity(batch);
        let mut probes: Vec<u32> = Vec::with_capacity(PROBES);
        // Triadic closures inside the hot communities.
        while events.len() < closures {
            let u = self.hot_node(cycle);
            let ns: Vec<u32> = self.mirror.neighbours(u).collect();
            let (a, b) = (*self.rng.pick(&ns), *self.rng.pick(&ns));
            let ev = Event::Add(a, b);
            if self.mirror.apply(ev) {
                events.push(ev);
                if a < self.warm_nodes() && probes.len() < PROBES && !probes.contains(&a) {
                    probes.push(a);
                }
            }
        }
        // Bridges between two different communities.
        while events.len() < closures + bridges {
            let (u, v) = (self.any_node(), self.any_node());
            let ev = Event::Add(u, v);
            if u / COMMUNITY != v / COMMUNITY && self.mirror.apply(ev) {
                events.push(ev);
            }
        }
        // New nodes, each attached to one hot node.
        for _ in 0..new_nodes {
            let ev = Event::Add(self.hot_node(cycle), self.mirror.id_bound());
            self.mirror.apply(ev);
            events.push(ev);
        }
        assert!(
            !probes.is_empty(),
            "a cycle has a closure on a warm-start node"
        );
        // Edge removals that leave both ends with an edge, so removing
        // edges never removes a node.
        while events.len() < adds + removes {
            let u = self.any_node();
            let ns: Vec<u32> = self.mirror.neighbours(u).collect();
            let v = *self.rng.pick(&ns);
            if self.mirror.degree(v) >= 2 {
                let ev = Event::RemoveEdge(u, v);
                self.mirror.apply(ev);
                events.push(ev);
            }
        }
        // One node leaves. Not a probe, and none of its neighbours
        // may be left without an edge: exactly one node goes.
        let removed = loop {
            let n = self.any_node();
            if !probes.contains(&n)
                && self
                    .mirror
                    .neighbours(n)
                    .all(|m| self.mirror.degree(m) >= 2)
            {
                break n;
            }
        };
        self.mirror.apply(Event::RemoveNode(removed));
        events.push(Event::RemoveNode(removed));
        Cycle {
            events,
            probes,
            removed,
        }
    }
}

/// The `ingest` request line for a batch; `t` stamps every event.
pub fn ingest_line(events: &[Event], t: u64) -> String {
    let mut out = String::with_capacity(events.len() * 40 + 32);
    out.push_str("{\"cmd\":\"ingest\",\"events\":[");
    for (i, ev) in events.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = match *ev {
            Event::Add(u, v) => write!(out, "{{\"op\":\"add\",\"u\":{u},\"v\":{v},\"t\":{t}}}"),
            Event::RemoveEdge(u, v) => {
                write!(
                    out,
                    "{{\"op\":\"remove_edge\",\"u\":{u},\"v\":{v},\"t\":{t}}}"
                )
            }
            Event::RemoveNode(n) => {
                write!(out, "{{\"op\":\"remove_node\",\"node\":{n},\"t\":{t}}}")
            }
        };
    }
    out.push_str("]}");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    const SHAPE: StreamShape = StreamShape {
        bridge_share: 0.2,
        new_node_share: 0.02,
    };

    fn transcript(seed: u64) -> String {
        let mut g = Generator::new(seed, 400, SHAPE);
        let mut out = g.warm_start_file();
        for c in 0..10 {
            let cycle = g.next_cycle(60);
            out.push_str(&ingest_line(&cycle.events, c + 1));
            out.push_str(&format!(
                " probes={:?} removed={}\n",
                cycle.probes, cycle.removed
            ));
        }
        out
    }

    #[test]
    fn same_seed_same_bytes_other_seed_other_bytes() {
        assert_eq!(transcript(7), transcript(7));
        assert_ne!(transcript(7), transcript(8));
    }

    #[test]
    fn warm_start_is_a_rewired_lattice_with_bridges() {
        let g = Generator::new(3, 500, SHAPE);
        let m = &g.mirror;
        assert_eq!(m.num_live(), 500);
        // 4 edges per node before duplicates and self-loops drop out.
        let lattice = 500 * RING_REACH as usize;
        assert!(m.num_edges() > lattice * 95 / 100 && m.num_edges() < lattice * 106 / 100);
        let bridges = m
            .edges()
            .filter(|(u, v)| u / COMMUNITY != v / COMMUNITY)
            .count();
        assert!(bridges > 0 && bridges <= lattice * 6 / 100, "{bridges}");
    }

    #[test]
    fn every_event_is_effective_and_counts_are_exact() {
        let mut g = Generator::new(11, 300, SHAPE);
        let mut shadow = g.mirror.clone();
        let mut live = shadow.num_live();
        for _ in 0..20 {
            let cycle = g.next_cycle(50);
            assert_eq!(cycle.events.len(), 50);
            for &ev in &cycle.events {
                assert!(shadow.apply(ev), "{ev:?} was a no-op");
            }
            let new_nodes = (41.0 * SHAPE.new_node_share).round() as usize;
            live = live + new_nodes - 1;
            assert_eq!(shadow.num_live(), live);
            assert!(cycle.probes.iter().all(|&p| shadow.degree(p) > 0));
            assert_eq!(shadow.degree(cycle.removed), 0);
        }
        assert_eq!(shadow, g.mirror);
    }

    #[test]
    fn hot_set_rotates() {
        let g = Generator::new(1, 1000, SHAPE);
        assert_eq!(g.hot_communities(0), (0, 2));
        assert_eq!(g.hot_communities(HOT_ROTATION - 1), (0, 2));
        assert_eq!(g.hot_communities(HOT_ROTATION), (2, 2));
        assert_eq!(g.hot_communities(5 * HOT_ROTATION), (0, 2));
    }

    #[test]
    fn mirror_follows_graph_state_rules() {
        let mut m = Mirror::default();
        assert!(m.apply(Event::Add(1, 2)));
        assert!(!m.apply(Event::Add(2, 1)));
        assert!(!m.apply(Event::Add(3, 3)));
        assert!(m.apply(Event::Add(2, 3)));
        assert_eq!((m.num_live(), m.num_edges()), (3, 2));
        assert!(m.apply(Event::RemoveEdge(1, 2)));
        assert_eq!(m.live_nodes(), vec![2, 3]);
        assert!(!m.apply(Event::RemoveEdge(1, 2)));
        assert!(m.apply(Event::RemoveNode(2)));
        assert_eq!((m.num_live(), m.num_edges()), (0, 0));
        assert!(!m.apply(Event::RemoveNode(2)));
    }
}
