//! METIS-like multilevel k-way balanced graph partitioning.
//!
//! GloDyNE's Step 1 (§4.1.1) partitions each snapshot into
//! `K = α·|V^t|` non-overlapping sub-networks minimizing edge cut
//! (Eq. 1) subject to the balance constraint
//! `|V_k| ≤ (1 + ε)·|V|/K` (Eq. 2). The paper uses METIS
//! ([Karypis & Kumar 1998]); this crate re-implements the same
//! three-phase multilevel scheme from scratch:
//!
//! 1. **Coarsening** ([`coarsen`]) — heavy-edge matching collapses node
//!    pairs until the abstract graph is small.
//! 2. **Initial partitioning** ([`initial`]) — greedy graph growing
//!    produces a K-way partition of the coarsest graph.
//! 3. **Uncoarsening + refinement** ([`refine`]) — projects the partition
//!    back level by level, each time improving the cut with
//!    boundary Kernighan–Lin/Fiduccia–Mattheyses style gain moves that
//!    respect the balance bound.
//!
//! Complexity is O(|V| + |E| + K log K) per the paper's §4.3 citation,
//! and K = α·|V| grows with the graph, so no phase may walk a length-K
//! (or length-|V|) array per node. Refinement and region growing keep
//! their per-part / per-node connection arrays but record the entries a
//! visit wrote in a *touched list*: the best destination is chosen among
//! the touched parts only and only those entries are reset, which makes
//! a visit O(deg(v)). The leftover sweep takes the lightest part from a
//! min-heap keyed `(load, part)` — the K log K term. Both are
//! assignment-for-assignment identical to the O(K)-per-node loops they
//! replaced, which live on as the test-only `reference` module. One
//! scan is left: region growing picks from its frontier linearly, which
//! is bounded by the region's neighbourhood (a region is |V|/K = 1/α
//! nodes at the paper's K) but not by a constant when K is small.

pub mod coarsen;
pub mod initial;
#[cfg(test)]
mod reference;
pub mod refine;
pub mod wgraph;

use glodyne_graph::Snapshot;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use wgraph::WGraph;

/// Configuration for the multilevel partitioner.
#[derive(Debug, Clone)]
pub struct PartitionConfig {
    /// Number of parts `K` (clamped to `[1, |V|]`).
    pub k: usize,
    /// Balance tolerance ε of Eq. 2; each part holds at most
    /// `(1 + ε)·W/K` total node weight. METIS's default imbalance is ~3%;
    /// we default to 10% which is plenty for node selection.
    pub epsilon: f64,
    /// RNG seed (matching order, tie-breaking, seeds for region growing).
    pub seed: u64,
    /// Stop coarsening when the graph has at most
    /// `max(coarsen_threshold, 8·K)` nodes.
    pub coarsen_threshold: usize,
    /// Refinement passes per uncoarsening level.
    pub refine_passes: usize,
}

impl Default for PartitionConfig {
    fn default() -> Self {
        PartitionConfig {
            k: 2,
            epsilon: 0.1,
            seed: 42,
            coarsen_threshold: 64,
            refine_passes: 4,
        }
    }
}

impl PartitionConfig {
    /// Convenience constructor with default tolerances.
    pub fn with_k(k: usize) -> Self {
        PartitionConfig {
            k,
            ..Default::default()
        }
    }
}

/// A K-way partition of a snapshot's nodes.
#[derive(Debug, Clone)]
pub struct Partition {
    /// Part id (`0..k`) per local node index.
    pub assignment: Vec<u32>,
    /// Number of parts actually used.
    pub k: usize,
}

impl Partition {
    /// Group local node indices by part: `parts()[p]` lists the members
    /// of part `p`. Each node appears exactly once (Definition 5).
    pub fn parts(&self) -> Vec<Vec<u32>> {
        let mut out = vec![Vec::new(); self.k];
        for (node, &p) in self.assignment.iter().enumerate() {
            out[p as usize].push(node as u32);
        }
        out
    }

    /// Number of cut edges of this partition on `g`.
    pub fn edge_cut(&self, g: &Snapshot) -> usize {
        let mut cut = 0;
        for a in 0..g.num_nodes() {
            for &b in g.neighbors(a) {
                if (b as usize) > a && self.assignment[a] != self.assignment[b as usize] {
                    cut += 1;
                }
            }
        }
        cut
    }

    /// Relabel the parts to agree as much as possible with a previous
    /// labelling — the incremental API a sharded deployment needs: a
    /// fresh `partition()` numbers its parts arbitrarily, so applying
    /// it naively would migrate almost every node even when the cut
    /// barely moved. This maps each part onto one of `labels`
    /// (≥ `self.k`) distinct labels, greedily maximising the number of
    /// nodes whose label is unchanged (`prev(node)`); parts with no
    /// overlap get the lowest unused labels. Deterministic: ties break
    /// toward the smaller part id, then the smaller label.
    ///
    /// `prev` maps a local node index to its previous label (`None`
    /// for nodes that had none). After the call `self.k == labels`.
    ///
    /// # Panics
    /// If `labels < self.k` (fewer labels than parts cannot be a
    /// relabelling).
    pub fn relabel_to_match(&mut self, labels: usize, prev: impl Fn(usize) -> Option<u32>) {
        assert!(
            labels >= self.k,
            "relabel_to_match needs labels ({labels}) >= parts ({})",
            self.k
        );
        // Overlap matrix: how many nodes of part `p` previously carried
        // label `l`.
        let mut overlap = vec![0usize; self.k * labels];
        for (node, &p) in self.assignment.iter().enumerate() {
            if let Some(l) = prev(node) {
                if (l as usize) < labels {
                    overlap[p as usize * labels + l as usize] += 1;
                }
            }
        }
        let mut pairs: Vec<(usize, usize, usize)> = (0..self.k)
            .flat_map(|p| (0..labels).map(move |l| (p, l)))
            .filter_map(|(p, l)| {
                let c = overlap[p * labels + l];
                (c > 0).then_some((c, p, l))
            })
            .collect();
        // Largest overlap first; deterministic tie-breaks.
        pairs.sort_by(|a, b| b.0.cmp(&a.0).then(a.1.cmp(&b.1)).then(a.2.cmp(&b.2)));
        let mut label_of = vec![u32::MAX; self.k];
        let mut label_taken = vec![false; labels];
        for (_, p, l) in pairs {
            if label_of[p] == u32::MAX && !label_taken[l] {
                label_of[p] = l as u32;
                label_taken[l] = true;
            }
        }
        let mut next_free = 0usize;
        for l in label_of.iter_mut() {
            if *l == u32::MAX {
                while label_taken[next_free] {
                    next_free += 1;
                }
                *l = next_free as u32;
                label_taken[next_free] = true;
            }
        }
        for p in self.assignment.iter_mut() {
            *p = label_of[*p as usize];
        }
        self.k = labels;
    }

    /// Largest part size divided by the perfectly balanced size
    /// (`|V|/K`); 1.0 means perfect balance.
    pub fn imbalance(&self, n: usize) -> f64 {
        if n == 0 || self.k == 0 {
            return 1.0;
        }
        let mut sizes = vec![0usize; self.k];
        for &p in &self.assignment {
            sizes[p as usize] += 1;
        }
        let max = *sizes.iter().max().unwrap() as f64;
        max / (n as f64 / self.k as f64)
    }
}

/// Partition a snapshot into `cfg.k` balanced parts minimizing edge cut.
///
/// Degenerate cases are handled up front: `k <= 1` puts everything in one
/// part; `k >= |V|` gives every node its own part.
pub fn partition(g: &Snapshot, cfg: &PartitionConfig) -> Partition {
    multilevel(g, cfg, initial::greedy_growing, refine::refine)
}

/// The three phases around a given region grower and refiner, so the
/// tests can run the same pipeline over the reference pair.
fn multilevel(
    g: &Snapshot,
    cfg: &PartitionConfig,
    grow: impl Fn(&WGraph, usize, f64, &mut ChaCha8Rng) -> Vec<u32>,
    refine: impl Fn(&WGraph, &mut [u32], usize, f64, usize),
) -> Partition {
    let n = g.num_nodes();
    if n == 0 {
        return Partition {
            assignment: Vec::new(),
            k: 0,
        };
    }
    let k = cfg.k.clamp(1, n);
    if k == 1 {
        return Partition {
            assignment: vec![0; n],
            k: 1,
        };
    }
    if k == n {
        return Partition {
            assignment: (0..n as u32).collect(),
            k,
        };
    }

    let mut rng = ChaCha8Rng::seed_from_u64(cfg.seed);
    let base = WGraph::from_snapshot(g);
    let stop_at = cfg.coarsen_threshold.max(8 * k);

    // Phase 1: coarsen.
    let hierarchy = coarsen::coarsen(base, stop_at, &mut rng);

    // Phase 2: initial partition on the coarsest graph.
    let coarsest = hierarchy.coarsest();
    let mut assignment = grow(coarsest, k, cfg.epsilon, &mut rng);
    refine(coarsest, &mut assignment, k, cfg.epsilon, cfg.refine_passes);

    // Phase 3: uncoarsen with refinement at each level.
    let mut assignment = hierarchy.project_to_finest(assignment, |graph, asg| {
        refine(graph, asg, k, cfg.epsilon, cfg.refine_passes);
    });
    // Restore the balance bound where projection broke it, then win
    // back what the forced moves cost the cut, under the bound.
    let finest = &hierarchy.finest;
    if refine::rebalance(finest, &mut assignment, k, cfg.epsilon) {
        refine(finest, &mut assignment, k, cfg.epsilon, cfg.refine_passes);
    }

    Partition { assignment, k }
}

#[cfg(test)]
mod tests {
    use super::*;
    use glodyne_graph::id::{Edge, NodeId};

    fn grid(w: u32, h: u32) -> Snapshot {
        let mut edges = Vec::new();
        let at = |x: u32, y: u32| NodeId(y * w + x);
        for y in 0..h {
            for x in 0..w {
                if x + 1 < w {
                    edges.push(Edge::new(at(x, y), at(x + 1, y)));
                }
                if y + 1 < h {
                    edges.push(Edge::new(at(x, y), at(x, y + 1)));
                }
            }
        }
        Snapshot::from_edges(&edges, &[])
    }

    #[test]
    fn covers_all_nodes_once() {
        let g = grid(8, 8);
        let p = partition(&g, &PartitionConfig::with_k(4));
        assert_eq!(p.assignment.len(), 64);
        let parts = p.parts();
        let total: usize = parts.iter().map(|v| v.len()).sum();
        assert_eq!(total, 64);
    }

    #[test]
    fn respects_balance_bound() {
        let g = grid(10, 10);
        let cfg = PartitionConfig {
            k: 5,
            epsilon: 0.15,
            ..Default::default()
        };
        let p = partition(&g, &cfg);
        let bound = ((1.0 + cfg.epsilon) * 100.0 / 5.0).ceil() as usize;
        for part in p.parts() {
            assert!(
                part.len() <= bound,
                "part size {} exceeds bound {bound}",
                part.len()
            );
        }
    }

    #[test]
    fn multilevel_path_keeps_the_balance_bound_at_mid_range_k() {
        // The largest snapshot of `standard_suite(4.0, 1)`'s DBLP
        // analogue (the suite seeds DBLP with `seed + 2`): projection
        // left a part of 487 nodes against a cap of 306 at K = 16.
        let d = glodyne_datasets::dblp(4.0, 3);
        let g = d
            .network
            .snapshots()
            .iter()
            .max_by_key(|s| s.num_nodes())
            .unwrap();
        let cfg = PartitionConfig::with_k(16);
        let p = partition(g, &cfg);
        let cap = ((1.0 + cfg.epsilon) * g.num_nodes() as f64 / 16.0).ceil() as usize;
        let sizes: Vec<usize> = p.parts().iter().map(Vec::len).collect();
        assert_eq!(sizes.len(), 16);
        assert!(
            sizes.iter().all(|&s| (1..=cap).contains(&s)),
            "{sizes:?} vs cap {cap}"
        );
    }

    #[test]
    fn two_cliques_split_cleanly() {
        // Two 10-cliques joined by one bridge: optimal 2-way cut is 1.
        let mut edges = Vec::new();
        for c in 0..2u32 {
            let base = c * 10;
            for i in 0..10 {
                for j in (i + 1)..10 {
                    edges.push(Edge::new(NodeId(base + i), NodeId(base + j)));
                }
            }
        }
        edges.push(Edge::new(NodeId(0), NodeId(10)));
        let g = Snapshot::from_edges(&edges, &[]);
        let p = partition(&g, &PartitionConfig::with_k(2));
        assert_eq!(
            p.edge_cut(&g),
            1,
            "multilevel scheme should find the bridge"
        );
    }

    #[test]
    fn k_one_and_k_ge_n() {
        let g = grid(3, 3);
        let p1 = partition(&g, &PartitionConfig::with_k(1));
        assert!(p1.assignment.iter().all(|&p| p == 0));
        let pn = partition(&g, &PartitionConfig::with_k(100));
        assert_eq!(pn.k, 9);
        let mut seen: Vec<u32> = pn.assignment.clone();
        seen.sort_unstable();
        seen.dedup();
        assert_eq!(seen.len(), 9, "every node its own part");
    }

    #[test]
    fn empty_graph() {
        let p = partition(&Snapshot::empty(), &PartitionConfig::with_k(4));
        assert_eq!(p.k, 0);
        assert!(p.assignment.is_empty());
    }

    #[test]
    fn deterministic_for_same_seed() {
        let g = grid(12, 12);
        let cfg = PartitionConfig::with_k(6);
        let p1 = partition(&g, &cfg);
        let p2 = partition(&g, &cfg);
        assert_eq!(p1.assignment, p2.assignment);
    }

    #[test]
    fn relabel_recovers_a_permuted_labelling() {
        // Previous labels are a permutation of the fresh part ids; the
        // relabelling must recover it exactly (zero migrations).
        let g = grid(8, 8);
        let p = partition(&g, &PartitionConfig::with_k(4));
        let perm = [2u32, 0, 3, 1];
        let prev: Vec<u32> = p.assignment.iter().map(|&x| perm[x as usize]).collect();
        let mut relabelled = p.clone();
        relabelled.relabel_to_match(4, |node| Some(prev[node]));
        assert_eq!(relabelled.assignment, prev, "perfect overlap => no moves");
        assert_eq!(relabelled.k, 4);
    }

    #[test]
    fn relabel_spreads_into_a_larger_label_space() {
        // 2 parts relabelled into a 4-label space: part overlapping
        // label 3 keeps it, the other gets the lowest unused label, and
        // nodes with no previous label don't disturb the matching.
        let g = grid(6, 6);
        let mut p = partition(&g, &PartitionConfig::with_k(2));
        let witness = p.assignment.clone();
        p.relabel_to_match(4, |node| {
            if node % 3 == 0 {
                None
            } else {
                Some(if witness[node] == 1 { 3 } else { 0 })
            }
        });
        assert_eq!(p.k, 4);
        for (node, &w) in witness.iter().enumerate() {
            assert_eq!(
                p.assignment[node],
                if w == 1 { 3 } else { 0 },
                "node {node}"
            );
        }
    }

    #[test]
    fn relabel_with_no_history_keeps_distinct_labels() {
        let g = grid(5, 5);
        let mut p = partition(&g, &PartitionConfig::with_k(3));
        p.relabel_to_match(3, |_| None);
        let mut labels: Vec<u32> = p.assignment.clone();
        labels.sort_unstable();
        labels.dedup();
        assert_eq!(labels, vec![0, 1, 2], "fresh labels stay a bijection");
    }

    #[test]
    #[should_panic(expected = "labels")]
    fn relabel_rejects_shrinking_label_space() {
        let g = grid(4, 4);
        let mut p = partition(&g, &PartitionConfig::with_k(4));
        p.relabel_to_match(2, |_| None);
    }

    #[test]
    fn cut_beats_random_assignment() {
        use rand::Rng;
        let g = grid(12, 12);
        let p = partition(&g, &PartitionConfig::with_k(4));
        let mut rng = ChaCha8Rng::seed_from_u64(7);
        let random = Partition {
            assignment: (0..g.num_nodes()).map(|_| rng.gen_range(0..4)).collect(),
            k: 4,
        };
        assert!(
            p.edge_cut(&g) < random.edge_cut(&g),
            "multilevel cut {} should beat random cut {}",
            p.edge_cut(&g),
            random.edge_cut(&g)
        );
    }
}
