//! The inverted-file index: flat per-cell posting lists over one
//! epoch's embedding rows.

use crate::kmeans;
use crate::sq8::Sq8Arena;
use glodyne_embed::embedding::{l2_norm, norm_cosine};
use glodyne_embed::kernel::{dot_fast_multi, scaled_dot_fast};
use glodyne_embed::{AlignedBuf, ConfigError, Embedding, TopKSelector};
use glodyne_graph::NodeId;
use std::borrow::Cow;
use std::time::{Duration, Instant};

/// Build-time parameters of an [`IvfIndex`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct IvfConfig {
    /// Target number of coarse cells `c`. Clamped to the number of
    /// indexed rows at build time (an epoch smaller than `c` simply
    /// gets one row per cell).
    pub cells: usize,
    /// Lloyd iterations of a cold k-means build ([`IvfIndex::build`]).
    /// A drift re-fit in [`IvfIndex::update_from`] runs one iteration
    /// from the previous epoch's centroids instead, whatever this says.
    pub kmeans_iters: usize,
    /// Seed of the deterministic centroid initialisation.
    pub seed: u64,
    /// Store posting lists as SQ8 codes (u8 per component, one
    /// min/scale domain per index) instead of f32 — 4× less scan
    /// traffic and arena memory. Quantized scans are candidate
    /// generation only; [`IvfIndex::search_in`] re-ranks against the
    /// exact embedding (see `rerank_factor`).
    pub quantize: bool,
    /// With `quantize`, how many candidates the SQ8 scan hands to the
    /// exact re-rank, as a multiple of `k` (`rerank_factor * k` codes
    /// rescored with the exact f32 kernel). Must be ≥ 1; ignored
    /// without `quantize`.
    pub rerank_factor: usize,
    /// Drift trigger for [`IvfIndex::update_from`], in **basis points**
    /// (1/10000, an integer so the config keeps `Eq`): once the rows
    /// reassigned since the last full build — this update's dirty
    /// rows plus everything already patched before them — exceed this
    /// fraction of the epoch, the kept centroids are considered
    /// drifted and the update reassigns every row instead: a one-step
    /// re-fit of the previous centroids, or a cold build when those
    /// don't fit the epoch. In `[1, 10000]`; the default 2500 refreshes
    /// after a quarter of the epoch has churned.
    pub drift_stale_bp: u32,
    /// Cell-imbalance drift trigger for [`IvfIndex::update_from`], in
    /// **tenths** (40 = 4.0×, an integer so the config keeps `Eq`):
    /// after patching, if the largest posting list exceeds this factor
    /// times the larger of the previous index's largest list and the
    /// ideal mean (`⌈n / cells⌉`), churn has piled onto one stale
    /// centroid and the update re-fits every row. The same bound is
    /// the re-fit's safety net: a re-fit whose largest list breaks it
    /// is discarded for a cold build. Must be ≥ 10 (1.0×).
    pub drift_cell_factor_x10: u32,
}

impl Default for IvfConfig {
    fn default() -> Self {
        IvfConfig {
            cells: 64,
            kmeans_iters: 8,
            seed: 0,
            quantize: false,
            rerank_factor: 4,
            drift_stale_bp: 2500,
            drift_cell_factor_x10: 40,
        }
    }
}

impl IvfConfig {
    /// Validate the parameters, following the workspace's fallible
    /// config convention (reject degenerate values, never repair them
    /// silently).
    pub fn validate(&self) -> Result<(), ConfigError> {
        if self.cells < 1 {
            return Err(ConfigError::new("cells", "must be >= 1"));
        }
        if self.kmeans_iters < 1 {
            return Err(ConfigError::new("kmeans_iters", "must be >= 1"));
        }
        if self.rerank_factor < 1 {
            return Err(ConfigError::new("rerank_factor", "must be >= 1"));
        }
        if self.drift_stale_bp < 1 || self.drift_stale_bp > 10_000 {
            return Err(ConfigError::new(
                "drift_stale_bp",
                "must be in [1, 10000] basis points",
            ));
        }
        if self.drift_cell_factor_x10 < 10 {
            return Err(ConfigError::new(
                "drift_cell_factor_x10",
                "must be >= 10 (1.0x)",
            ));
        }
        Ok(())
    }
}

/// How an [`IvfIndex`] came to be — every row assigned by k-means, or
/// an incremental patch of the previous epoch's index
/// ([`IvfIndex::update_from`]). Surfaced through `stats.ann` and the
/// kind-labelled `index_build` telemetry histogram.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BuildKind {
    /// Every row reassigned by spherical k-means — from cold seeds
    /// ([`IvfIndex::build`]), or from the previous epoch's centroids
    /// (the drift re-fit in [`IvfIndex::update_from`]).
    Full,
    /// Warm-started centroids, only dirty rows reassigned.
    Incremental,
}

impl BuildKind {
    /// Wire/CLI spelling.
    pub fn as_str(self) -> &'static str {
        match self {
            BuildKind::Full => "full",
            BuildKind::Incremental => "incremental",
        }
    }
}

/// How an [`IvfIndex`] stores its posting-list vectors — surfaced
/// through `stats.ann` on the wire so operators can see what a running
/// epoch actually scans.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StorageMode {
    /// Full-precision f32 arena.
    F32,
    /// SQ8 codes (u8 per component) + exact re-rank.
    Sq8,
}

impl StorageMode {
    /// Wire/CLI spelling.
    pub fn as_str(self) -> &'static str {
        match self {
            StorageMode::F32 => "f32",
            StorageMode::Sq8 => "sq8",
        }
    }
}

/// The posting-list arena in one of the two storage modes. The f32
/// arena is cache-line aligned: partial-probe scans sweep it with the
/// SIMD-shaped fast kernel.
#[derive(Debug, Clone)]
enum PostingStorage {
    F32(AlignedBuf<f32>),
    Sq8(Sq8Arena),
}

/// Reusable scan buffers for [`IvfIndex::search_with`] /
/// [`IvfIndex::search_in_with`]: batched callers allocate one and
/// thread it through every query so cell-ranking and re-rank pools
/// reuse their allocations instead of growing fresh vectors per query.
#[derive(Debug, Default)]
pub struct SearchScratch {
    /// Per-cell centroid similarities, reused across queries.
    cell_sims: Vec<(NodeId, f32)>,
    /// SQ8 candidate pool awaiting exact re-rank.
    pool: Vec<(NodeId, f32)>,
    /// Grouped batch scan: `(cell, query index)` probe pairs, sorted by
    /// cell so each posting list is visited once per batch.
    probe_pairs: Vec<(u32, u32)>,
}

impl SearchScratch {
    /// Empty scratch; buffers grow to steady state over the first
    /// query and are reused afterwards.
    pub fn new() -> Self {
        SearchScratch::default()
    }
}

/// One query of a batch scan ([`IvfIndex::search_batch_with`] /
/// [`IvfIndex::search_in_batch_with`]): the query vector plus the
/// per-query self-exclusion the single-query path takes as an argument.
#[derive(Debug, Clone, Copy)]
pub struct BatchQuery<'a> {
    /// The query vector (`dim` components).
    pub query: &'a [f32],
    /// Node id to drop from this query's candidates (the probe node
    /// itself, matching `Embedding::top_k`'s self-exclusion).
    pub exclude: Option<NodeId>,
}

/// Lloyd iterations of the drift re-fit in [`IvfIndex::update_from`]:
/// one assign → mean step from the previous epoch's centroids, then the
/// final assignment — two O(n·c·d) passes where a cold build runs
/// `kmeans_iters + 1` from seeds. Re-fits compound along an epoch
/// chain, so after `kmeans_iters` re-fitted epochs the centroids have
/// had at least a cold build's refinement. Deliberately not a config
/// knob: `kmeans_iters` keeps meaning the cold budget.
const REFIT_ITERS: usize = 1;

/// One epoch's rows snapshotted in insertion order: the input of every
/// clustering run and of the posting-list layout.
struct Rows {
    ids: Vec<NodeId>,
    /// `n × dim`, row-major.
    data: Vec<f32>,
    norms: Vec<f32>,
}

impl Rows {
    fn snapshot(embedding: &Embedding) -> Rows {
        let dim = embedding.dim();
        let n = embedding.len();
        let mut ids = Vec::with_capacity(n);
        let mut data = Vec::with_capacity(n * dim);
        for (id, v) in embedding.iter() {
            ids.push(id);
            data.extend_from_slice(v);
        }
        let norms = (0..n)
            .map(|i| l2_norm(&data[i * dim..(i + 1) * dim]))
            .collect();
        Rows { ids, data, norms }
    }
}

/// An immutable IVF index over one epoch's [`Embedding`].
///
/// Storage is fully flat, mirroring `WalkCorpus`: one row-major vector
/// arena grouped by cell, a parallel node-id table, cached per-row L2
/// norms, and a `cells + 1` offset table bounding each posting list.
/// Building is O(iters·n·c·d); the index never mutates afterwards —
/// the serving layer rebuilds it per committed epoch and publishes it
/// behind the same `Arc` swap as the embedding itself.
#[derive(Debug, Clone)]
pub struct IvfIndex {
    dim: usize,
    config: IvfConfig,
    /// `cells × dim` centroid matrix.
    centroids: Vec<f32>,
    /// Per-centroid L2 norms.
    centroid_norms: Vec<f32>,
    /// `cells + 1` offsets into `ids`/`norms` (and, scaled by `dim`,
    /// into `vectors`): cell `j` owns rows `offsets[j]..offsets[j+1]`.
    cell_offsets: Vec<u32>,
    /// Node ids grouped by cell (insertion order within a cell).
    ids: Vec<NodeId>,
    /// Row-major vector arena, grouped like `ids` — f32 or SQ8 codes
    /// depending on `config.quantize`.
    storage: PostingStorage,
    /// Cached *true* (pre-quantization) L2 norms, parallel to `ids` —
    /// f32 storage only (the full-probe exact kernel divides by these);
    /// empty for SQ8 storage, whose scans only ever use the
    /// reciprocals.
    norms: Vec<f32>,
    /// Cached reciprocals of the true norms (0 for zero-norm rows) —
    /// the partial-probe scans multiply by these instead of dividing
    /// per candidate (see [`scaled_dot_fast`]).
    inv_norms: Vec<f32>,
    /// Cached reciprocals of `centroid_norms` for cell ranking.
    inv_centroid_norms: Vec<f32>,
    /// Wall-clock time [`IvfIndex::build`] took.
    build_time: Duration,
    /// Whether this index came from k-means over every row (cold or
    /// re-fit) or an incremental patch of the previous epoch's index.
    build_kind: BuildKind,
    /// Rows this build reassigned (0 for a fresh full build; for
    /// [`IvfIndex::update_from`], the changed + added + removed rows it
    /// actually patched — or the dirty count that tripped a drift
    /// fallback).
    dirty_rows: usize,
    /// Rows reassigned since the last full build (cold or re-fit),
    /// cumulative across an incremental chain — the centroid-staleness
    /// measure behind `drift_stale_bp`.
    stale_rows: usize,
}

impl IvfIndex {
    /// Cluster `embedding`'s rows and lay out the posting lists. The
    /// build is deterministic in `(embedding, config)`; degenerate
    /// inputs (empty embedding, `cells > n`, zero or NaN rows) produce
    /// a well-formed index rather than an error — searching them just
    /// returns what the data supports.
    pub fn build(embedding: &Embedding, config: &IvfConfig) -> IvfIndex {
        let start = Instant::now();
        let dim = embedding.dim();
        let n = embedding.len();
        if n == 0 {
            return IvfIndex {
                dim,
                config: *config,
                centroids: Vec::new(),
                centroid_norms: Vec::new(),
                cell_offsets: vec![0],
                ids: Vec::new(),
                storage: if config.quantize {
                    PostingStorage::Sq8(Sq8Arena::quantize(&[]))
                } else {
                    PostingStorage::F32(AlignedBuf::new())
                },
                norms: Vec::new(),
                inv_norms: Vec::new(),
                inv_centroid_norms: Vec::new(),
                build_time: start.elapsed(),
                build_kind: BuildKind::Full,
                dirty_rows: 0,
                stale_rows: 0,
            };
        }
        let c = config.cells.clamp(1, n);
        let rows = Rows::snapshot(embedding);
        let seeds = kmeans::seed_centroids(&rows.data, &rows.norms, dim, c, config.seed);
        let clustering =
            kmeans::cluster(&rows.data, &rows.norms, dim, c, seeds, config.kmeans_iters);
        IvfIndex::lay_out(rows, clustering, dim, config, start)
    }

    /// The drift re-fit: one Lloyd step ([`REFIT_ITERS`]) from `prev`'s
    /// centroids over every row of `embedding`, laid out like a cold
    /// build. `None` when the re-fit's largest posting list breaks
    /// `prev`'s cell-imbalance bound. The caller guarantees `prev` is
    /// compatible: same dim and config, and exactly
    /// `config.cells.clamp(1, n)` cells.
    fn refit(prev: &IvfIndex, embedding: &Embedding, start: Instant) -> Option<IvfIndex> {
        let rows = Rows::snapshot(embedding);
        let clustering = kmeans::cluster(
            &rows.data,
            &rows.norms,
            prev.dim,
            prev.cells(),
            prev.centroids.clone(),
            REFIT_ITERS,
        );
        let index = IvfIndex::lay_out(rows, clustering, prev.dim, &prev.config, start);
        (!prev.imbalanced(&index.cell_offsets, index.len())).then_some(index)
    }

    /// Counting-sort `rows` into flat per-cell arenas by `clustering`'s
    /// assignment (stable, so rows keep their insertion order within a
    /// cell — deterministic) and quantize them when configured.
    fn lay_out(
        rows: Rows,
        clustering: kmeans::Clustering,
        dim: usize,
        config: &IvfConfig,
        start: Instant,
    ) -> IvfIndex {
        let n = rows.ids.len();
        let c = clustering.centroid_norms.len();
        let mut cell_offsets = vec![0u32; c + 1];
        for &cell in &clustering.assignment {
            cell_offsets[cell as usize + 1] += 1;
        }
        for j in 0..c {
            cell_offsets[j + 1] += cell_offsets[j];
        }
        let mut cursor: Vec<u32> = cell_offsets[..c].to_vec();
        let mut ids = vec![NodeId(0); n];
        let mut vectors = AlignedBuf::<f32>::zeroed(n * dim);
        let mut norms = vec![0.0f32; n];
        for (i, &cell) in clustering.assignment.iter().enumerate() {
            let pos = cursor[cell as usize] as usize;
            cursor[cell as usize] += 1;
            ids[pos] = rows.ids[i];
            norms[pos] = rows.norms[i];
            vectors[pos * dim..(pos + 1) * dim].copy_from_slice(&rows.data[i * dim..(i + 1) * dim]);
        }

        // Quantization happens here, on the build (trainer) thread —
        // readers only ever see the finished arena.
        let storage = if config.quantize {
            PostingStorage::Sq8(Sq8Arena::quantize(&vectors))
        } else {
            PostingStorage::F32(vectors)
        };

        let inv = |n: &f32| if *n == 0.0 { 0.0 } else { 1.0 / *n };
        let inv_norms = norms.iter().map(inv).collect();
        let inv_centroid_norms = clustering.centroid_norms.iter().map(inv).collect();
        // SQ8 scans never touch the raw norms (quantized candidates
        // are scaled by the reciprocals; the re-rank uses the exact
        // embedding's own norm cache) — don't pay 4 bytes/row for them.
        let norms = if config.quantize { Vec::new() } else { norms };
        IvfIndex {
            dim,
            config: *config,
            centroids: clustering.centroids,
            centroid_norms: clustering.centroid_norms,
            cell_offsets,
            ids,
            storage,
            norms,
            inv_norms,
            inv_centroid_norms,
            build_time: start.elapsed(),
            build_kind: BuildKind::Full,
            dirty_rows: 0,
            stale_rows: 0,
        }
    }

    /// Incrementally maintain the index across one epoch: keep `prev`'s
    /// centroids (warm start — the coarse geometry of an embedding
    /// changes slowly between steps, the paper's incrementality insight
    /// applied to the index itself) and reassign only the **dirty**
    /// rows — nodes the step touched, plus any additions/removals the
    /// embedding diff implies — to their nearest existing centroid.
    /// Unchanged rows keep their cell, so the per-epoch index cost is
    /// proportional to *change*, not to graph size.
    ///
    /// `dirty` must contain every node whose vector differs between
    /// the embedding `prev` was built over and `embedding` (a superset
    /// is fine and merely reassigns more rows; additions and removals
    /// are detected from the embedding itself even when unlisted).
    ///
    /// When a **drift trigger** fires —
    ///
    /// - *staleness*: cumulative reassigned rows since the last full
    ///   build exceed `drift_stale_bp` basis points of the epoch, or
    /// - *cell imbalance*: the largest posting list after patching
    ///   exceeds `drift_cell_factor_x10 / 10 ×` the larger of `prev`'s
    ///   largest list and the ideal mean —
    ///
    /// every row is reassigned by a **re-fit** of `prev`'s centroids:
    /// assign each row to the nearest of them, recompute the means
    /// once, assign again. That is one Lloyd step (two assignment
    /// passes, where a cold [`IvfIndex::build`] runs `kmeans_iters + 1`
    /// from seeds) — the index follows the embedding the way GloDyNE's
    /// Skip-Gram model at `t` starts from the one at `t − 1`. The
    /// re-fit reports [`BuildKind::Full`], `stale_rows = 0` and the
    /// churn that tripped it as `dirty_rows`. It falls back to a cold
    /// build when its own largest list breaks the imbalance bound, or
    /// when `prev` doesn't have exactly `config.cells` clamped to this
    /// epoch's row count. A `prev` the warm start cannot use at all
    /// (empty, other dimensionality or config) also builds cold.
    ///
    /// **Chain contract.** A re-fit index is a function of the epoch
    /// *chain* (it starts from `prev`'s centroids), while the first
    /// index after a spawn or a restart is cold — a function of the
    /// embedding alone. Partial-probe answers (`nprobe < cells`) may
    /// therefore differ across a restart; exact answers and full probes
    /// (`nprobe = cells`) never do.
    ///
    /// SQ8 arenas **patch in place** under the same affine domain:
    /// survivor rows copy their codes byte for byte, changed rows
    /// quantize into the inherited domain — all cells re-quantize only
    /// when a changed component falls outside the domain (min/max
    /// drift). At `nprobe = cells` the result answers identically to a
    /// fresh full build over `embedding` (full probes scan every row
    /// with the exact kernel regardless of cell layout) — property-
    /// pinned in `tests/prop.rs`.
    pub fn update_from(
        prev: &IvfIndex,
        embedding: &Embedding,
        dirty: &[NodeId],
        config: &IvfConfig,
    ) -> IvfIndex {
        let start = Instant::now();
        let dim = embedding.dim();
        let n = embedding.len();
        // Warm start needs a compatible previous index: same build
        // parameters, same dimensionality, and at least one centroid.
        let warm = n > 0 && !prev.is_empty() && prev.dim == dim && prev.config == *config;
        let c = prev.cells();
        // Every row reassigned: re-fit `prev`'s centroids when they are
        // exactly the cells a cold build would make, else build cold.
        let full = |dirty_rows: usize| {
            let refit = (warm && c == config.cells.clamp(1, n))
                .then(|| IvfIndex::refit(prev, embedding, start))
                .flatten();
            let mut ix = refit.unwrap_or_else(|| IvfIndex::build(embedding, config));
            ix.dirty_rows = dirty_rows;
            ix.build_time = start.elapsed();
            ix
        };
        if !warm {
            return full(dirty.len());
        }

        // Membership tests below binary-search `dirty`; callers hand a
        // drained set (ascending, distinct), anything else is sorted.
        let dirty: Cow<'_, [NodeId]> = if dirty.windows(2).all(|w| w[0] < w[1]) {
            Cow::Borrowed(dirty)
        } else {
            let mut ids = dirty.to_vec();
            ids.sort_unstable();
            ids.dedup();
            Cow::Owned(ids)
        };
        let is_dirty = |id: &NodeId| dirty.binary_search(id).is_ok();

        // Churn accounting, decided before any O(n) map is built (the
        // drift path needs none): rows this update must reassign
        // (added, or surviving and dirty) plus removals.
        let mut surviving = 0usize;
        let mut surviving_dirty = 0usize;
        for id in &prev.ids {
            if embedding.get(*id).is_some() {
                surviving += 1;
                surviving_dirty += usize::from(is_dirty(id));
            }
        }
        let removed = prev.len() - surviving;
        let dirty_rows = (n - surviving) + surviving_dirty + removed;
        let stale_rows = prev.stale_rows + dirty_rows;
        if (stale_rows as u64) * 10_000 > u64::from(config.drift_stale_bp) * n as u64 {
            return full(dirty_rows);
        }

        // Previous layout: id → (cell, prev arena row).
        let mut prev_pos = std::collections::HashMap::with_capacity(prev.ids.len());
        for j in 0..c {
            let (lo, hi) = prev.cell_bounds(j);
            for i in lo..hi {
                prev_pos.insert(prev.ids[i], (j as u32, i as u32));
            }
        }

        // Assignment: survivors keep their cell, dirty/new rows go to
        // the nearest warm-started centroid. Row iteration follows
        // embedding insertion order, exactly like `build`, so the
        // within-cell order matches what a fresh build with the same
        // assignment would produce — deterministic.
        let mut row_ids = Vec::with_capacity(n);
        let mut data = Vec::with_capacity(n * dim);
        let mut assignment = Vec::with_capacity(n);
        // SQ8 in-place patch bookkeeping: prev arena row of each
        // survivor (u32::MAX = changed row, quantize fresh), and
        // whether any changed component escapes the inherited domain.
        let prev_arena = match &prev.storage {
            PostingStorage::Sq8(a) => Some(a),
            PostingStorage::F32(_) => None,
        };
        let mut prev_row: Vec<u32> = Vec::with_capacity(if prev_arena.is_some() { n } else { 0 });
        let mut domain_drifted = false;
        for (id, v) in embedding.iter() {
            let clean = !is_dirty(&id);
            let cell = match prev_pos.get(&id) {
                Some(&(cell, row)) if clean => {
                    if prev_arena.is_some() {
                        prev_row.push(row);
                    }
                    cell
                }
                _ => {
                    if let Some(arena) = prev_arena {
                        prev_row.push(u32::MAX);
                        domain_drifted = domain_drifted || v.iter().any(|&x| !arena.covers(x));
                    }
                    kmeans::nearest_centroid(
                        v,
                        l2_norm(v),
                        dim,
                        &prev.centroids,
                        &prev.centroid_norms,
                    )
                }
            };
            row_ids.push(id);
            data.extend_from_slice(v);
            assignment.push(cell);
        }

        // Counting sort into the new flat layout (same recipe as
        // `build`).
        let mut cell_offsets = vec![0u32; c + 1];
        for &cell in &assignment {
            cell_offsets[cell as usize + 1] += 1;
        }
        for j in 0..c {
            cell_offsets[j + 1] += cell_offsets[j];
        }

        // Cell-imbalance drift trigger: churn piled onto one stale
        // centroid.
        if prev.imbalanced(&cell_offsets, n) {
            return full(dirty_rows);
        }

        let mut cursor: Vec<u32> = cell_offsets[..c].to_vec();
        let mut ids = vec![NodeId(0); n];
        let mut positions = vec![0u32; n];
        for (i, &cell) in assignment.iter().enumerate() {
            let pos = cursor[cell as usize] as usize;
            cursor[cell as usize] += 1;
            ids[pos] = row_ids[i];
            positions[i] = pos as u32;
        }
        let mut norms = vec![0.0f32; n];
        for (i, &pos) in positions.iter().enumerate() {
            norms[pos as usize] = l2_norm(&data[i * dim..(i + 1) * dim]);
        }

        let storage = match prev_arena {
            None => {
                let mut vectors = AlignedBuf::<f32>::zeroed(n * dim);
                for (i, &pos) in positions.iter().enumerate() {
                    let pos = pos as usize;
                    vectors[pos * dim..(pos + 1) * dim]
                        .copy_from_slice(&data[i * dim..(i + 1) * dim]);
                }
                PostingStorage::F32(vectors)
            }
            Some(_) if domain_drifted => {
                // Min/max domain drift: re-quantize every cell from the
                // gathered f32 rows under a fresh domain.
                let mut vectors = vec![0.0f32; n * dim];
                for (i, &pos) in positions.iter().enumerate() {
                    let pos = pos as usize;
                    vectors[pos * dim..(pos + 1) * dim]
                        .copy_from_slice(&data[i * dim..(i + 1) * dim]);
                }
                PostingStorage::Sq8(Sq8Arena::quantize(&vectors))
            }
            Some(arena) => {
                // In-place patch under the inherited domain: survivors
                // copy codes byte for byte, changed rows encode fresh.
                let (min, scale) = arena.domain();
                let mut codes = vec![0u8; n * dim];
                for (i, &pos) in positions.iter().enumerate() {
                    let pos = pos as usize;
                    let dst = &mut codes[pos * dim..(pos + 1) * dim];
                    match prev_row[i] {
                        u32::MAX => {
                            for (code, &x) in dst.iter_mut().zip(&data[i * dim..(i + 1) * dim]) {
                                *code = arena.encode(x);
                            }
                        }
                        row => dst.copy_from_slice(arena.row(row as usize, dim)),
                    }
                }
                PostingStorage::Sq8(Sq8Arena::from_codes(codes, min, scale))
            }
        };

        let inv = |n: &f32| if *n == 0.0 { 0.0 } else { 1.0 / *n };
        let inv_norms = norms.iter().map(inv).collect();
        let norms = if config.quantize { Vec::new() } else { norms };
        IvfIndex {
            dim,
            config: *config,
            centroids: prev.centroids.clone(),
            centroid_norms: prev.centroid_norms.clone(),
            cell_offsets,
            ids,
            storage,
            norms,
            inv_norms,
            inv_centroid_norms: prev.inv_centroid_norms.clone(),
            build_time: start.elapsed(),
            build_kind: BuildKind::Incremental,
            dirty_rows,
            stale_rows,
        }
    }

    /// The `k` cosine-nearest indexed rows to `query`, probing the
    /// `nprobe` cells whose centroids are most similar to the query
    /// (`nprobe` is clamped to `[1, cells]`). `exclude` drops one node
    /// id from the candidates — pass the probe node itself to match
    /// `Embedding::top_k`'s self-exclusion.
    ///
    /// This is the **storage-level** scan. For f32 storage the merge
    /// order ([`rank_similarity`](glodyne_embed::rank_similarity)
    /// through [`TopKSelector`]) is shared with the exact scan and the
    /// kernel selection honours the exact-vs-fast contract: a **full
    /// probe** (`nprobe = cells`) scans with the frozen exact kernel
    /// and is bit-exact with `Embedding::top_k`, while partial probes
    /// — approximate by contract — scan with the SIMD-shaped fast
    /// kernel. For SQ8 storage the returned scores live in the
    /// quantized domain; production callers should go through
    /// [`IvfIndex::search_in`], which re-ranks against the exact
    /// embedding. A `query` of the wrong dimensionality returns empty
    /// instead of panicking (the serving read path must never unwind).
    pub fn search(
        &self,
        query: &[f32],
        k: usize,
        nprobe: usize,
        exclude: Option<NodeId>,
    ) -> Vec<(NodeId, f32)> {
        self.search_with(query, k, nprobe, exclude, &mut SearchScratch::new())
    }

    /// [`IvfIndex::search`] with caller-owned [`SearchScratch`] —
    /// batched callers thread one scratch through every query of a
    /// batch so the cell-ranking buffer is reused instead of
    /// reallocated per query.
    pub fn search_with(
        &self,
        query: &[f32],
        k: usize,
        nprobe: usize,
        exclude: Option<NodeId>,
        scratch: &mut SearchScratch,
    ) -> Vec<(NodeId, f32)> {
        if self.ids.is_empty() || k == 0 || query.len() != self.dim {
            return Vec::new();
        }
        let qn = l2_norm(query);
        let inv_qn = if qn == 0.0 { 0.0 } else { 1.0 / qn };
        let nprobe = self.effective_nprobe(nprobe);
        let full_probe = nprobe == self.cells();
        self.rank_cells(query, inv_qn, scratch);

        let mut select = TopKSelector::new(k);
        match &self.storage {
            PostingStorage::F32(vectors) => {
                for &(cell, _) in scratch.cell_sims.iter().take(nprobe) {
                    let (lo, hi) = self.cell_bounds(cell.0 as usize);
                    for i in lo..hi {
                        let id = self.ids[i];
                        if exclude == Some(id) {
                            continue;
                        }
                        let row = &vectors[i * self.dim..(i + 1) * self.dim];
                        // Kernel selection: the full probe is the
                        // bit-exactness surface, partial probes are
                        // approximate by contract.
                        let sim = if full_probe {
                            norm_cosine(query, qn, row, self.norms[i])
                        } else {
                            scaled_dot_fast(query, row, inv_qn * self.inv_norms[i])
                        };
                        select.push((id, sim));
                    }
                }
            }
            PostingStorage::Sq8(arena) => {
                let qsum: f32 = query.iter().sum();
                for &(cell, _) in scratch.cell_sims.iter().take(nprobe) {
                    let (lo, hi) = self.cell_bounds(cell.0 as usize);
                    for i in lo..hi {
                        let id = self.ids[i];
                        if exclude == Some(id) {
                            continue;
                        }
                        select.push((id, self.sq8_sim(arena, i, query, inv_qn, qsum)));
                    }
                }
            }
        }
        select.into_sorted()
    }

    /// The production search: storage-level candidate scan, then — for
    /// SQ8 storage — an **exact re-rank** of the best
    /// `rerank_factor · k` candidates against `exact` (the embedding
    /// this index was built from, which every epoch carries alongside
    /// it). Served similarities therefore always come from the exact
    /// f32 kernel; the quantized domain only chooses candidates. With
    /// f32 storage this is exactly [`IvfIndex::search`].
    ///
    /// At `nprobe = cells` with a `rerank_factor · k` pool covering
    /// every candidate, the SQ8 result is bit-exact with
    /// `Embedding::top_k` (property-pinned in `tests/prop.rs`): the
    /// pool is the whole epoch and the re-rank *is* the exact scan.
    pub fn search_in(
        &self,
        exact: &Embedding,
        query: &[f32],
        k: usize,
        nprobe: usize,
        exclude: Option<NodeId>,
    ) -> Vec<(NodeId, f32)> {
        self.search_in_with(exact, query, k, nprobe, exclude, &mut SearchScratch::new())
    }

    /// [`IvfIndex::search_in`] with caller-owned scratch (see
    /// [`IvfIndex::search_with`]).
    pub fn search_in_with(
        &self,
        exact: &Embedding,
        query: &[f32],
        k: usize,
        nprobe: usize,
        exclude: Option<NodeId>,
        scratch: &mut SearchScratch,
    ) -> Vec<(NodeId, f32)> {
        let PostingStorage::Sq8(arena) = &self.storage else {
            return self.search_with(query, k, nprobe, exclude, scratch);
        };
        if self.ids.is_empty() || k == 0 || query.len() != self.dim {
            return Vec::new();
        }
        let qn = l2_norm(query);
        let inv_qn = if qn == 0.0 { 0.0 } else { 1.0 / qn };
        let nprobe = self.effective_nprobe(nprobe);
        self.rank_cells(query, inv_qn, scratch);

        // Candidate generation in the quantized domain: keep the
        // rerank_factor·k best codes.
        let pool_k = self.config.rerank_factor.saturating_mul(k);
        let qsum: f32 = query.iter().sum();
        let mut pool_select = TopKSelector::new(pool_k);
        for &(cell, _) in scratch.cell_sims.iter().take(nprobe) {
            let (lo, hi) = self.cell_bounds(cell.0 as usize);
            for i in lo..hi {
                let id = self.ids[i];
                if exclude == Some(id) {
                    continue;
                }
                pool_select.push((id, self.sq8_sim(arena, i, query, inv_qn, qsum)));
            }
        }
        scratch.pool.clear();
        scratch.pool.extend(pool_select.into_sorted());

        // Exact re-rank: rescore the pool with the frozen exact kernel
        // against the true f32 rows. A pool id missing from `exact`
        // (callers passing a mismatched embedding) keeps its quantized
        // score rather than panicking.
        let mut select = TopKSelector::new(k);
        for &(id, sq8_sim) in scratch.pool.iter() {
            let sim = match (exact.get(id), exact.norm(id)) {
                (Some(row), Some(rn)) => norm_cosine(query, qn, row, rn),
                _ => sq8_sim,
            };
            select.push((id, sim));
        }
        select.into_sorted()
    }

    /// [`IvfIndex::search_with`] over a whole batch, one scratch for all
    /// of it; per query the result is **bit-exact** with the per-query
    /// scan (property-pinned in `tests/prop.rs`).
    ///
    /// A batch is the per-query scan run once per query, except in the
    /// one case where grouping was measured to pay: f32 storage, a
    /// partial probe (`nprobe < cells`) and at least two queries. There
    /// the batch's `(cell, query)` probe pairs are sorted by cell and
    /// each probed posting list is swept once per group of up to four
    /// queries through the fused kernel ([`dot_fast_multi`]), which
    /// loads each row once for the whole group. The win is that shared
    /// row load, not the posting-list reuse: a grouped sweep without
    /// the fused kernel lost to the per-query loop. SQ8 storage, full
    /// probes and one-query batches never beat the loop, so they run it.
    pub fn search_batch_with(
        &self,
        queries: &[BatchQuery<'_>],
        k: usize,
        nprobe: usize,
        scratch: &mut SearchScratch,
    ) -> Vec<Vec<(NodeId, f32)>> {
        let nprobe = self.effective_nprobe(nprobe);
        match &self.storage {
            PostingStorage::F32(vectors) if queries.len() > 1 && k > 0 && nprobe < self.cells() => {
                self.search_grouped(vectors, queries, k, nprobe, scratch)
            }
            _ => queries
                .iter()
                .map(|q| self.search_with(q.query, k, nprobe, q.exclude, scratch))
                .collect(),
        }
    }

    /// [`IvfIndex::search_in_with`] over a whole batch: the grouped
    /// scan of [`IvfIndex::search_batch_with`] for f32 storage, the
    /// per-query candidate scan + exact re-rank for SQ8. Per query,
    /// bit-exact with [`IvfIndex::search_in_with`].
    pub fn search_in_batch_with(
        &self,
        exact: &Embedding,
        queries: &[BatchQuery<'_>],
        k: usize,
        nprobe: usize,
        scratch: &mut SearchScratch,
    ) -> Vec<Vec<(NodeId, f32)>> {
        match self.storage {
            PostingStorage::F32(_) => self.search_batch_with(queries, k, nprobe, scratch),
            PostingStorage::Sq8(_) => queries
                .iter()
                .map(|q| self.search_in_with(exact, q.query, k, nprobe, q.exclude, scratch))
                .collect(),
        }
    }

    /// The grouped f32 partial-probe scan behind
    /// [`IvfIndex::search_batch_with`]. A query of the wrong
    /// dimensionality gets no probe pairs, so its result stays empty,
    /// matching the single-query contract.
    fn search_grouped(
        &self,
        vectors: &[f32],
        queries: &[BatchQuery<'_>],
        k: usize,
        nprobe: usize,
        scratch: &mut SearchScratch,
    ) -> Vec<Vec<(NodeId, f32)>> {
        scratch.probe_pairs.clear();
        let mut scan = Grouped {
            index: self,
            vectors,
            queries,
            inv_qns: Vec::with_capacity(queries.len()),
        };
        for (qi, q) in queries.iter().enumerate() {
            if q.query.len() != self.dim {
                scan.inv_qns.push(0.0);
                continue;
            }
            let qn = l2_norm(q.query);
            let inv_qn = if qn == 0.0 { 0.0 } else { 1.0 / qn };
            scan.inv_qns.push(inv_qn);
            self.rank_cells(q.query, inv_qn, scratch);
            for &(cell, _) in scratch.cell_sims.iter().take(nprobe) {
                scratch.probe_pairs.push((cell.0, qi as u32));
            }
        }
        scratch.probe_pairs.sort_unstable();

        let mut selectors: Vec<TopKSelector> =
            queries.iter().map(|_| TopKSelector::new(k)).collect();
        for run in scratch.probe_pairs.chunk_by(|a, b| a.0 == b.0) {
            let (lo, hi) = self.cell_bounds(run[0].0 as usize);
            for group in run.chunks(4) {
                match group.len() {
                    4 => scan.sweep::<4>(lo..hi, group, &mut selectors),
                    3 => scan.sweep::<3>(lo..hi, group, &mut selectors),
                    2 => scan.sweep::<2>(lo..hi, group, &mut selectors),
                    _ => scan.sweep::<1>(lo..hi, group, &mut selectors),
                }
            }
        }
        selectors
            .into_iter()
            .map(TopKSelector::into_sorted)
            .collect()
    }

    /// Rank every cell by centroid similarity into
    /// `scratch.cell_sims`, best first under `rank_similarity` — the
    /// fast kernel, since cell ranking only chooses which posting
    /// lists to visit (a full probe visits all of them regardless of
    /// order, so the bit-exactness pins don't depend on it).
    fn rank_cells(&self, query: &[f32], inv_qn: f32, scratch: &mut SearchScratch) {
        scratch.cell_sims.clear();
        for j in 0..self.cells() {
            let sim = scaled_dot_fast(
                query,
                &self.centroids[j * self.dim..(j + 1) * self.dim],
                inv_qn * self.inv_centroid_norms[j],
            );
            // Cell index riding in the NodeId slot; cells <= n so it
            // always fits u32.
            scratch.cell_sims.push((NodeId(j as u32), sim));
        }
        scratch
            .cell_sims
            .sort_unstable_by(glodyne_embed::rank_similarity);
    }

    /// The cell-imbalance bound of [`IvfConfig::drift_cell_factor_x10`]
    /// against this (previous) index: whether the layout `cell_offsets`
    /// over `n` rows has a posting list longer than the factor times
    /// the larger of this index's longest list and `⌈n / cells⌉`.
    fn imbalanced(&self, cell_offsets: &[u32], n: usize) -> bool {
        let max_cell = |offsets: &[u32]| {
            offsets
                .windows(2)
                .map(|w| (w[1] - w[0]) as usize)
                .max()
                .unwrap_or(0)
        };
        let baseline = max_cell(&self.cell_offsets).max(n.div_ceil(self.cells()));
        max_cell(cell_offsets) * 10 > baseline * self.config.drift_cell_factor_x10 as usize
    }

    /// The posting-row bounds of cell `j`.
    #[inline]
    fn cell_bounds(&self, j: usize) -> (usize, usize) {
        (
            self.cell_offsets[j] as usize,
            self.cell_offsets[j + 1] as usize,
        )
    }

    /// Guarded cosine of `query` against SQ8 row `i`, in the
    /// dequantized domain over the row's *true* cached norm (via its
    /// cached reciprocal — see [`scaled_dot_fast`] for the contract).
    #[inline]
    fn sq8_sim(&self, arena: &Sq8Arena, i: usize, query: &[f32], inv_qn: f32, qsum: f32) -> f32 {
        let scale = inv_qn * self.inv_norms[i];
        if scale == 0.0 {
            0.0
        } else {
            arena.dot(i, self.dim, query, qsum) * scale
        }
    }

    /// Embedding dimensionality the index was built over.
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// Number of indexed rows.
    pub fn len(&self) -> usize {
        self.ids.len()
    }

    /// Whether the index holds no rows (empty epoch).
    pub fn is_empty(&self) -> bool {
        self.ids.is_empty()
    }

    /// Effective number of coarse cells (the configured target clamped
    /// to the row count; 0 for an empty index).
    pub fn cells(&self) -> usize {
        self.centroid_norms.len()
    }

    /// The node ids of cell `cell`'s posting list, in scan order.
    /// Panics when `cell >= cells()`.
    pub fn posting_list(&self, cell: usize) -> &[NodeId] {
        let (lo, hi) = self.cell_bounds(cell);
        &self.ids[lo..hi]
    }

    /// The probe width [`IvfIndex::search`] will actually use for a
    /// requested `nprobe` — clamped into `[1, cells]`. The single home
    /// of that clamp: every surface that *reports* a probe width (the
    /// wire `nprobe` echo, the CLI output) derives it from here so it
    /// can never diverge from what the scan did.
    pub fn effective_nprobe(&self, nprobe: usize) -> usize {
        nprobe.min(self.cells()).max(1)
    }

    /// The configuration the index was built with.
    pub fn config(&self) -> &IvfConfig {
        &self.config
    }

    /// How the posting lists are stored (`f32` or `sq8`) — what
    /// `stats.ann` reports on the wire.
    pub fn storage_mode(&self) -> StorageMode {
        match self.storage {
            PostingStorage::F32(_) => StorageMode::F32,
            PostingStorage::Sq8(_) => StorageMode::Sq8,
        }
    }

    /// Resident bytes of the searchable structures: the posting arena
    /// (4 bytes/component for f32, 1 for SQ8) plus the id table,
    /// cached norms, offsets, and centroids. The memory story behind
    /// `quantize` — at d=128 the SQ8 arena shrinks this ~3.8×.
    pub fn index_bytes(&self) -> usize {
        let arena = match &self.storage {
            PostingStorage::F32(v) => std::mem::size_of_val(v.as_slice()),
            PostingStorage::Sq8(a) => a.bytes(),
        };
        arena
            + std::mem::size_of_val(self.ids.as_slice())
            + std::mem::size_of_val(self.norms.as_slice())
            + std::mem::size_of_val(self.inv_norms.as_slice())
            + std::mem::size_of_val(self.cell_offsets.as_slice())
            + std::mem::size_of_val(self.centroids.as_slice())
            + std::mem::size_of_val(self.centroid_norms.as_slice())
            + std::mem::size_of_val(self.inv_centroid_norms.as_slice())
    }

    /// Wall-clock time the build took — the per-epoch cost the serving
    /// layer reports through `stats`.
    pub fn build_time(&self) -> Duration {
        self.build_time
    }

    /// Whether this index came from k-means over every row (a cold
    /// [`IvfIndex::build`] or a drift re-fit) or an incremental patch
    /// ([`IvfIndex::update_from`]) — what `stats.ann.build_kind`
    /// reports on the wire.
    pub fn build_kind(&self) -> BuildKind {
        self.build_kind
    }

    /// Rows this build reassigned (see the field docs) — what
    /// `stats.ann.dirty_rows` reports on the wire.
    pub fn dirty_rows(&self) -> usize {
        self.dirty_rows
    }

    /// Cumulative rows reassigned since the last full build — the
    /// staleness measure the `drift_stale_bp` trigger compares against.
    pub fn stale_rows(&self) -> usize {
        self.stale_rows
    }
}

/// One batch of the grouped f32 scan: the arena, the queries and each
/// query's inverse norm.
struct Grouped<'a> {
    index: &'a IvfIndex,
    vectors: &'a [f32],
    queries: &'a [BatchQuery<'a>],
    inv_qns: Vec<f32>,
}

impl Grouped<'_> {
    /// One fused sweep of posting rows `rows` for the `N` queries in
    /// `group` (entries are `(cell, query)` probe pairs). Each row is
    /// loaded once and dotted against all `N` queries via
    /// [`dot_fast_multi`], whose per-slot result is bit-identical to a
    /// standalone `dot_fast` — so each query's score here matches the
    /// per-query scan's `scaled_dot_fast` to the bit, and the grouped
    /// path stays bit-exact while hiding FMA latency across independent
    /// accumulator chains.
    fn sweep<const N: usize>(
        &self,
        rows: std::ops::Range<usize>,
        group: &[(u32, u32)],
        selectors: &mut [TopKSelector],
    ) {
        debug_assert_eq!(group.len(), N);
        let qv: [&[f32]; N] = std::array::from_fn(|j| self.queries[group[j].1 as usize].query);
        let (index, dim) = (self.index, self.index.dim);
        for i in rows {
            let id = index.ids[i];
            let dots = dot_fast_multi::<N>(qv, &self.vectors[i * dim..(i + 1) * dim]);
            for j in 0..N {
                let qi = group[j].1 as usize;
                if self.queries[qi].exclude == Some(id) {
                    continue;
                }
                // Same scaling expression as the per-query kernel:
                // `scaled_dot_fast` computes `dot_fast(q, row) * scale`.
                selectors[qi].push((id, dots[j] * (self.inv_qns[qi] * index.inv_norms[i])));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use glodyne_embed::reference_top_k;

    /// Deterministic pseudo-random embedding (SplitMix64-style mixing,
    /// same recipe as the embed crate's bit-exactness test).
    fn pseudo_random_embedding(n: u32, dim: usize, salt: u64) -> Embedding {
        let mut e = Embedding::new(dim);
        let mut state = 0x9e37_79b9_7f4a_7c15u64 ^ salt;
        let mut next = move || {
            state = state.wrapping_mul(0xd129_42e2_96fe_94e3).wrapping_add(1);
            ((state >> 40) as f32) / 1e6 - 8.0
        };
        for i in 0..n {
            let v: Vec<f32> = (0..dim).map(|_| next()).collect();
            e.set(NodeId(i), &v);
        }
        e
    }

    fn assert_bit_exact(a: &[(NodeId, f32)], b: &[(NodeId, f32)]) {
        assert_eq!(a.len(), b.len());
        for (x, y) in a.iter().zip(b) {
            assert_eq!(x.0, y.0);
            assert_eq!(x.1.to_bits(), y.1.to_bits());
        }
    }

    #[test]
    fn empty_embedding_builds_and_searches_empty() {
        let e = Embedding::new(4);
        let ix = IvfIndex::build(&e, &IvfConfig::default());
        assert!(ix.is_empty());
        assert_eq!(ix.cells(), 0);
        assert_eq!(ix.len(), 0);
        assert!(ix.search(&[1.0, 0.0, 0.0, 0.0], 5, 3, None).is_empty());
    }

    #[test]
    fn full_probe_is_bit_exact_with_the_linear_scan() {
        let e = pseudo_random_embedding(80, 9, 42);
        let cfg = IvfConfig {
            cells: 7,
            ..Default::default()
        };
        let ix = IvfIndex::build(&e, &cfg);
        assert_eq!(ix.cells(), 7);
        assert_eq!(ix.len(), 80);
        for probe in [0u32, 13, 79] {
            let node = NodeId(probe);
            let q = e.get(node).unwrap();
            let ann = ix.search(q, 12, ix.cells(), Some(node));
            let exact = e.top_k(node, 12);
            assert_bit_exact(&ann, &exact);
            // ...which is itself pinned to the executable spec.
            assert_bit_exact(&exact, &reference_top_k(&e, node, 12));
        }
    }

    #[test]
    fn single_cell_index_is_the_exact_scan() {
        let e = pseudo_random_embedding(30, 5, 7);
        let cfg = IvfConfig {
            cells: 1,
            ..Default::default()
        };
        let ix = IvfIndex::build(&e, &cfg);
        assert_eq!(ix.cells(), 1);
        let node = NodeId(11);
        let ann = ix.search(e.get(node).unwrap(), 8, 1, Some(node));
        assert_bit_exact(&ann, &e.top_k(node, 8));
    }

    #[test]
    fn builds_are_deterministic() {
        let e = pseudo_random_embedding(60, 6, 3);
        let cfg = IvfConfig {
            cells: 5,
            seed: 99,
            ..Default::default()
        };
        let a = IvfIndex::build(&e, &cfg);
        let b = IvfIndex::build(&e, &cfg);
        assert_eq!(a.cell_offsets, b.cell_offsets);
        assert_eq!(a.ids, b.ids);
        assert_eq!(
            a.centroids.iter().map(|x| x.to_bits()).collect::<Vec<_>>(),
            b.centroids.iter().map(|x| x.to_bits()).collect::<Vec<_>>()
        );
        let q = e.get(NodeId(4)).unwrap();
        assert_bit_exact(
            &a.search(q, 10, 2, Some(NodeId(4))),
            &b.search(q, 10, 2, Some(NodeId(4))),
        );
    }

    #[test]
    fn cells_clamp_to_population_and_k_clamps_to_candidates() {
        let e = pseudo_random_embedding(4, 3, 1);
        let cfg = IvfConfig {
            cells: 64,
            ..Default::default()
        };
        let ix = IvfIndex::build(&e, &cfg);
        assert_eq!(ix.cells(), 4, "cells clamp to n");
        let node = NodeId(0);
        let hits = ix.search(e.get(node).unwrap(), 100, 64, Some(node));
        assert_eq!(hits.len(), 3, "k > n returns every other row");
        assert_bit_exact(&hits, &e.top_k(node, 100));
    }

    #[test]
    fn degenerate_rows_never_panic_and_rank_last_on_full_probe() {
        let mut e = pseudo_random_embedding(20, 4, 5);
        e.set(NodeId(100), &[0.0; 4]); // zero vector
        e.set(NodeId(101), &[f32::NAN, 1.0, 0.0, 0.0]); // NaN row
        e.set(NodeId(102), &[f32::INFINITY, 0.0, 0.0, 0.0]); // inf row
        let cfg = IvfConfig {
            cells: 4,
            ..Default::default()
        };
        let ix = IvfIndex::build(&e, &cfg);
        let node = NodeId(3);
        let ann = ix.search(e.get(node).unwrap(), 30, ix.cells(), Some(node));
        assert_bit_exact(&ann, &e.top_k(node, 30));
        // Both the NaN row and the inf row (inf/inf) score NaN and sink
        // below every real similarity, mutual tie toward the smaller id.
        let tail: Vec<NodeId> = ann[ann.len() - 2..].iter().map(|&(id, _)| id).collect();
        assert_eq!(
            tail,
            vec![NodeId(101), NodeId(102)],
            "NaN candidates sink last"
        );
        // Searching *from* degenerate vectors is also panic-free.
        for probe in [NodeId(100), NodeId(101), NodeId(102)] {
            let hits = ix.search(e.get(probe).unwrap(), 5, 2, Some(probe));
            assert!(hits.len() <= 5);
            assert!(hits.iter().all(|&(id, _)| id != probe));
        }
    }

    #[test]
    fn wrong_dimension_query_is_empty_not_a_panic() {
        let e = pseudo_random_embedding(10, 4, 2);
        let ix = IvfIndex::build(&e, &IvfConfig::default());
        assert!(ix.search(&[1.0, 2.0], 3, 1, None).is_empty());
    }

    #[test]
    fn clustered_data_recalls_its_cluster_at_low_nprobe() {
        // Three tight, well-separated direction clusters: probing one
        // cell out of three must already return same-cluster members.
        let dim = 8;
        let mut e = Embedding::new(dim);
        let mut state = 11u64;
        let mut jitter = move || {
            state = state.wrapping_mul(0xd129_42e2_96fe_94e3).wrapping_add(1);
            ((state >> 40) as f32) / 1e7 - 0.8
        };
        for i in 0..45u32 {
            let axis = (i % 3) as usize;
            let mut v = vec![0.0f32; dim];
            for (d, x) in v.iter_mut().enumerate() {
                *x = if d == axis { 10.0 } else { 0.0 } + jitter();
            }
            e.set(NodeId(i), &v);
        }
        let cfg = IvfConfig {
            cells: 3,
            kmeans_iters: 10,
            seed: 4,
            ..Default::default()
        };
        let ix = IvfIndex::build(&e, &cfg);
        let node = NodeId(0); // cluster: ids ≡ 0 (mod 3)
        let hits = ix.search(e.get(node).unwrap(), 10, 1, Some(node));
        assert_eq!(hits.len(), 10);
        assert!(
            hits.iter().all(|&(id, _)| id.0 % 3 == 0),
            "one probed cell must be the probe's own cluster: {hits:?}"
        );
        let exact: Vec<NodeId> = e.top_k(node, 10).iter().map(|&(id, _)| id).collect();
        let got: Vec<NodeId> = hits.iter().map(|&(id, _)| id).collect();
        assert_eq!(got, exact, "recall@10 = 1 on separable clusters");
    }

    #[test]
    fn config_validation_rejects_degenerates() {
        assert!(IvfConfig::default().validate().is_ok());
        let bad = IvfConfig {
            cells: 0,
            ..Default::default()
        };
        assert_eq!(bad.validate().unwrap_err().param(), "cells");
        let bad = IvfConfig {
            kmeans_iters: 0,
            ..Default::default()
        };
        assert_eq!(bad.validate().unwrap_err().param(), "kmeans_iters");
        let bad = IvfConfig {
            rerank_factor: 0,
            ..Default::default()
        };
        assert_eq!(bad.validate().unwrap_err().param(), "rerank_factor");
    }

    #[test]
    fn sq8_storage_shrinks_index_bytes_at_least_3_5x_at_d128() {
        // Enough rows that the arenas dominate the (shared-size)
        // centroid table, as in any production-sized epoch.
        let e = pseudo_random_embedding(2000, 128, 21);
        let cfg = IvfConfig {
            cells: 32,
            ..Default::default()
        };
        let f32_ix = IvfIndex::build(&e, &cfg);
        let sq8_ix = IvfIndex::build(
            &e,
            &IvfConfig {
                quantize: true,
                ..cfg
            },
        );
        assert_eq!(f32_ix.storage_mode(), StorageMode::F32);
        assert_eq!(sq8_ix.storage_mode(), StorageMode::Sq8);
        assert_eq!(f32_ix.storage_mode().as_str(), "f32");
        assert_eq!(sq8_ix.storage_mode().as_str(), "sq8");
        let ratio = f32_ix.index_bytes() as f64 / sq8_ix.index_bytes() as f64;
        assert!(
            ratio >= 3.5,
            "f32 {} bytes vs sq8 {} bytes: ratio {ratio:.2} < 3.5",
            f32_ix.index_bytes(),
            sq8_ix.index_bytes()
        );
    }

    #[test]
    fn quantized_full_probe_with_covering_rerank_is_bit_exact() {
        let e = pseudo_random_embedding(80, 9, 42);
        let cfg = IvfConfig {
            cells: 7,
            quantize: true,
            rerank_factor: 8, // 8 · 12 ≥ 80: the pool covers the epoch
            ..Default::default()
        };
        let ix = IvfIndex::build(&e, &cfg);
        for probe in [0u32, 13, 79] {
            let node = NodeId(probe);
            let q = e.get(node).unwrap();
            let ann = ix.search_in(&e, q, 12, ix.cells(), Some(node));
            assert_bit_exact(&ann, &e.top_k(node, 12));
        }
        // Degenerate rows stay panic-free through the quantized path
        // too.
        let mut e = e;
        e.set(NodeId(100), &[0.0; 9]);
        e.set(NodeId(101), &[f32::NAN; 9]);
        let ix = IvfIndex::build(&e, &cfg);
        for probe in [NodeId(0), NodeId(100), NodeId(101)] {
            let hits = ix.search_in(&e, e.get(probe).unwrap(), 5, 2, Some(probe));
            assert!(hits.len() <= 5);
            assert!(hits.iter().all(|&(id, _)| id != probe));
        }
    }

    #[test]
    fn update_from_reassigns_only_dirty_rows_and_keeps_centroids() {
        let e0 = pseudo_random_embedding(60, 6, 17);
        let cfg = IvfConfig {
            cells: 5,
            ..Default::default()
        };
        let prev = IvfIndex::build(&e0, &cfg);
        assert_eq!(prev.build_kind(), BuildKind::Full);
        assert_eq!(prev.dirty_rows(), 0);
        assert_eq!(prev.stale_rows(), 0);

        // Mutate two rows, add one.
        let mut e1 = e0.clone();
        e1.set(NodeId(3), &[1.0, 0.0, 0.0, 0.0, 0.0, 0.0]);
        e1.set(NodeId(40), &[0.0, 1.0, 0.0, 0.0, 0.0, 0.0]);
        e1.set(NodeId(60), &[0.0, 0.0, 1.0, 0.0, 0.0, 0.0]);
        let dirty = [NodeId(3), NodeId(40)];
        let ix = IvfIndex::update_from(&prev, &e1, &dirty, &cfg);
        assert_eq!(ix.build_kind(), BuildKind::Incremental);
        assert_eq!(ix.dirty_rows(), 3, "2 mutated + 1 added");
        assert_eq!(ix.stale_rows(), 3);
        assert_eq!(ix.len(), 61);
        // Warm start: the centroids are the previous epoch's, bit for
        // bit.
        assert_eq!(
            ix.centroids.iter().map(|x| x.to_bits()).collect::<Vec<_>>(),
            prev.centroids
                .iter()
                .map(|x| x.to_bits())
                .collect::<Vec<_>>()
        );
        // Full probe answers exactly like a fresh full build.
        let fresh = IvfIndex::build(&e1, &cfg);
        for probe in [0u32, 3, 40, 60] {
            let node = NodeId(probe);
            let q = e1.get(node).unwrap();
            assert_bit_exact(
                &ix.search(q, 10, ix.cells(), Some(node)),
                &fresh.search(q, 10, fresh.cells(), Some(node)),
            );
        }
        // Chaining accumulates staleness.
        let mut e2 = e1.clone();
        e2.set(NodeId(7), &[0.5; 6]);
        let ix2 = IvfIndex::update_from(&ix, &e2, &[NodeId(7)], &cfg);
        assert_eq!(ix2.build_kind(), BuildKind::Incremental);
        assert_eq!(ix2.dirty_rows(), 1);
        assert_eq!(ix2.stale_rows(), 4);
    }

    #[test]
    fn update_from_counts_removed_rows_and_drops_them() {
        let e0 = pseudo_random_embedding(30, 4, 8);
        let cfg = IvfConfig {
            cells: 4,
            ..Default::default()
        };
        let prev = IvfIndex::build(&e0, &cfg);
        // A shrunken epoch: rebuild the embedding without two nodes
        // (the sharded repartition path hands the trainer exactly this
        // shape).
        let mut e1 = Embedding::new(4);
        for (id, v) in e0.iter() {
            if id != NodeId(5) && id != NodeId(20) {
                e1.set(id, v);
            }
        }
        let ix = IvfIndex::update_from(&prev, &e1, &[], &cfg);
        assert_eq!(ix.build_kind(), BuildKind::Incremental);
        assert_eq!(ix.len(), 28);
        assert_eq!(ix.dirty_rows(), 2, "two removals count as churn");
        let hits = ix.search(e1.get(NodeId(0)).unwrap(), 30, ix.cells(), Some(NodeId(0)));
        assert!(hits
            .iter()
            .all(|&(id, _)| id != NodeId(5) && id != NodeId(20)));
        assert_bit_exact(&hits, &e1.top_k(NodeId(0), 30));
    }

    #[test]
    fn update_from_falls_back_to_full_on_drift_or_mismatch() {
        let e = pseudo_random_embedding(40, 5, 12);
        let cfg = IvfConfig {
            cells: 4,
            drift_stale_bp: 100, // 1%: a single dirty row of 40 trips it
            ..Default::default()
        };
        let prev = IvfIndex::build(&e, &cfg);
        let mut e1 = e.clone();
        e1.set(NodeId(2), &[9.0, 0.0, 0.0, 0.0, 0.0]);
        let ix = IvfIndex::update_from(&prev, &e1, &[NodeId(2)], &cfg);
        assert_eq!(
            ix.build_kind(),
            BuildKind::Full,
            "staleness trigger forces a full rebuild"
        );
        assert_eq!(ix.dirty_rows(), 1, "the tripping churn is still reported");
        assert_eq!(ix.stale_rows(), 0, "a full rebuild resets staleness");

        // A config change also disqualifies the warm start.
        let recfg = IvfConfig {
            cells: 8,
            ..Default::default()
        };
        let ix = IvfIndex::update_from(&prev, &e1, &[NodeId(2)], &recfg);
        assert_eq!(ix.build_kind(), BuildKind::Full);
        assert_eq!(ix.cells(), 8);

        // An empty previous index (cold start) builds full.
        let empty = IvfIndex::build(&Embedding::new(5), &cfg);
        let ix = IvfIndex::update_from(&empty, &e1, &[], &cfg);
        assert_eq!(ix.build_kind(), BuildKind::Full);
    }

    #[test]
    fn update_from_patches_sq8_codes_in_place_under_a_covered_domain() {
        let e0 = pseudo_random_embedding(50, 8, 33);
        let cfg = IvfConfig {
            cells: 4,
            quantize: true,
            rerank_factor: 16,
            ..Default::default()
        };
        let prev = IvfIndex::build(&e0, &cfg);
        let (min0, scale0) = match &prev.storage {
            PostingStorage::Sq8(a) => a.domain(),
            PostingStorage::F32(_) => unreachable!(),
        };
        // In-domain churn: new values inside the inherited domain keep
        // it (codes patch in place, no re-quantization).
        let mut e1 = e0.clone();
        e1.set(NodeId(10), &[0.25; 8]);
        let ix = IvfIndex::update_from(&prev, &e1, &[NodeId(10)], &cfg);
        assert_eq!(ix.build_kind(), BuildKind::Incremental);
        let (min1, scale1) = match &ix.storage {
            PostingStorage::Sq8(a) => a.domain(),
            PostingStorage::F32(_) => unreachable!(),
        };
        assert_eq!(min0.to_bits(), min1.to_bits(), "domain inherited");
        assert_eq!(scale0.to_bits(), scale1.to_bits(), "domain inherited");
        // ...and still answers exactly like a fresh quantized build at
        // full probe with a covering pool.
        for probe in [0u32, 10, 49] {
            let node = NodeId(probe);
            let q = e1.get(node).unwrap();
            assert_bit_exact(
                &ix.search_in(&e1, q, 10, ix.cells(), Some(node)),
                &e1.top_k(node, 10),
            );
        }
        // Out-of-domain churn drifts the domain: everything
        // re-quantizes under a fresh min/scale that covers the new
        // value.
        let mut e2 = e0.clone();
        e2.set(NodeId(10), &[1.0e4; 8]);
        let ix = IvfIndex::update_from(&prev, &e2, &[NodeId(10)], &cfg);
        assert_eq!(ix.build_kind(), BuildKind::Incremental);
        let (_, scale2) = match &ix.storage {
            PostingStorage::Sq8(a) => a.domain(),
            PostingStorage::F32(_) => unreachable!(),
        };
        assert!(scale2 > scale0, "domain widened to cover the outlier");
    }

    #[test]
    fn update_from_is_deterministic() {
        let e0 = pseudo_random_embedding(40, 6, 2);
        let cfg = IvfConfig {
            cells: 5,
            ..Default::default()
        };
        let prev = IvfIndex::build(&e0, &cfg);
        let mut e1 = e0.clone();
        e1.set(NodeId(9), &[0.1; 6]);
        e1.set(NodeId(40), &[0.2; 6]);
        let dirty = [NodeId(9)];
        let a = IvfIndex::update_from(&prev, &e1, &dirty, &cfg);
        let b = IvfIndex::update_from(&prev, &e1, &dirty, &cfg);
        assert_eq!(a.cell_offsets, b.cell_offsets);
        assert_eq!(a.ids, b.ids);
        let q = e1.get(NodeId(4)).unwrap();
        assert_bit_exact(
            &a.search(q, 10, 2, Some(NodeId(4))),
            &b.search(q, 10, 2, Some(NodeId(4))),
        );
    }

    /// Every row of `e` (ids `0..n`) nudged by a small deterministic
    /// offset — the serving regime, where SGNS touches nearly every row
    /// per step.
    fn perturb_all(e: &Embedding, salt: u64) -> Embedding {
        let noise = pseudo_random_embedding(e.len() as u32, e.dim(), salt);
        let mut out = Embedding::new(e.dim());
        for (id, v) in e.iter() {
            let row: Vec<f32> = v
                .iter()
                .zip(noise.get(id).unwrap())
                .map(|(x, d)| x + 0.05 * d)
                .collect();
            out.set(id, &row);
        }
        out
    }

    fn bits(v: &[f32]) -> Vec<u32> {
        v.iter().map(|x| x.to_bits()).collect()
    }

    /// Two indexes are the same build: centroids, layout, cached norms
    /// and posting storage, bit for bit.
    fn assert_same_index(a: &IvfIndex, b: &IvfIndex) {
        assert_eq!(bits(&a.centroids), bits(&b.centroids));
        assert_eq!(bits(&a.centroid_norms), bits(&b.centroid_norms));
        assert_eq!(a.cell_offsets, b.cell_offsets);
        assert_eq!(a.ids, b.ids);
        assert_eq!(bits(&a.norms), bits(&b.norms));
        assert_eq!(bits(&a.inv_norms), bits(&b.inv_norms));
        match (&a.storage, &b.storage) {
            (PostingStorage::F32(x), PostingStorage::F32(y)) => assert_eq!(bits(x), bits(y)),
            (PostingStorage::Sq8(x), PostingStorage::Sq8(y)) => {
                let (xm, xs) = x.domain();
                let (ym, ys) = y.domain();
                assert_eq!(bits(&[xm, xs]), bits(&[ym, ys]));
                assert_eq!(x.row(0, x.len()), y.row(0, y.len()));
            }
            _ => panic!("storage modes differ"),
        }
    }

    #[test]
    fn drift_refit_is_one_lloyd_step_from_the_previous_centroids() {
        let dim = 6;
        let e0 = pseudo_random_embedding(120, dim, 17);
        let cfg = IvfConfig {
            cells: 6,
            ..Default::default()
        };
        let prev = IvfIndex::build(&e0, &cfg);
        let e1 = perturb_all(&e0, 5);
        let ix = IvfIndex::update_from(&prev, &e1, e1.ids(), &cfg);
        assert_eq!(
            ix.build_kind(),
            BuildKind::Full,
            "every row dirty trips staleness"
        );
        assert_eq!(ix.dirty_rows(), 120, "the tripping churn is reported");
        assert_eq!(ix.stale_rows(), 0);

        // The Lloyd step by hand: nearest of prev's centroids, the mean
        // of each cell's members, then the final assignment.
        let rows = Rows::snapshot(&e1);
        let assign = |centroids: &[f32], norms: &[f32]| -> Vec<u32> {
            (0..rows.ids.len())
                .map(|i| {
                    let row = &rows.data[i * dim..(i + 1) * dim];
                    kmeans::nearest_centroid(row, rows.norms[i], dim, centroids, norms)
                })
                .collect()
        };
        let c = prev.cells();
        let mut sums = vec![0.0f32; c * dim];
        let mut counts = vec![0u32; c];
        for (i, &cell) in assign(&prev.centroids, &prev.centroid_norms)
            .iter()
            .enumerate()
        {
            let cell = cell as usize;
            for d in 0..dim {
                sums[cell * dim + d] += rows.data[i * dim + d];
            }
            counts[cell] += 1;
        }
        let mut centroids = prev.centroids.clone();
        for j in 0..c {
            if counts[j] > 0 {
                let inv = 1.0 / counts[j] as f32;
                for d in 0..dim {
                    centroids[j * dim + d] = sums[j * dim + d] * inv;
                }
            }
        }
        let norms: Vec<f32> = centroids.chunks(dim).map(l2_norm).collect();
        assert_eq!(bits(&ix.centroids), bits(&centroids));
        assert_eq!(bits(&ix.centroid_norms), bits(&norms));
        let last = assign(&centroids, &norms);
        for j in 0..c {
            let members: Vec<NodeId> = (0..rows.ids.len())
                .filter(|&i| last[i] as usize == j)
                .map(|i| rows.ids[i])
                .collect();
            assert_eq!(ix.posting_list(j), members.as_slice(), "cell {j}");
        }

        // Not what a cold build of the same epoch makes...
        let cold = IvfIndex::build(&e1, &cfg);
        assert_ne!(bits(&ix.centroids), bits(&cold.centroids));
        // ...but the same answers at full probe.
        for probe in [0u32, 57, 119] {
            let node = NodeId(probe);
            let q = e1.get(node).unwrap();
            assert_bit_exact(&ix.search(q, 10, c, Some(node)), &e1.top_k(node, 10));
        }
    }

    #[test]
    fn a_refit_resets_staleness_and_small_churn_patches_its_centroids() {
        let e0 = pseudo_random_embedding(200, 6, 23);
        let cfg = IvfConfig {
            cells: 8,
            ..Default::default()
        };
        let prev = IvfIndex::build(&e0, &cfg);
        let e1 = perturb_all(&e0, 9);
        let refit = IvfIndex::update_from(&prev, &e1, e1.ids(), &cfg);
        assert_eq!(refit.build_kind(), BuildKind::Full);
        assert_eq!(refit.stale_rows(), 0);

        // 1 % of rows dirty: back to the incremental patch, on the
        // re-fit's centroids.
        let mut e2 = e1.clone();
        e2.set(NodeId(4), &[1.0, 0.0, 0.0, 0.0, 0.0, 0.0]);
        e2.set(NodeId(150), &[0.0, 1.0, 0.0, 0.0, 0.0, 0.0]);
        let next = IvfIndex::update_from(&refit, &e2, &[NodeId(4), NodeId(150)], &cfg);
        assert_eq!(next.build_kind(), BuildKind::Incremental);
        assert_eq!(next.dirty_rows(), 2);
        assert_eq!(next.stale_rows(), 2);
        assert_eq!(bits(&next.centroids), bits(&refit.centroids));
    }

    #[test]
    fn incompatible_prev_drift_fallback_is_the_cold_build_bit_for_bit() {
        let e = pseudo_random_embedding(40, 5, 12);
        let e1 = perturb_all(&e, 3);
        for quantize in [false, true] {
            let cfg = IvfConfig {
                cells: 8,
                quantize,
                ..Default::default()
            };
            let cold = IvfIndex::build(&e1, &cfg);
            let other_dim = IvfIndex::build(&pseudo_random_embedding(40, 4, 12), &cfg);
            let other_config = IvfIndex::build(&e, &IvfConfig { seed: 7, ..cfg });
            // Same config, but 5 rows clamp it to 5 cells, not 8.
            let fewer_cells = IvfIndex::build(&pseudo_random_embedding(5, 5, 12), &cfg);
            assert_eq!(fewer_cells.cells(), 5);
            for prev in [&other_dim, &other_config, &fewer_cells] {
                let ix = IvfIndex::update_from(prev, &e1, e1.ids(), &cfg);
                assert_eq!(ix.build_kind(), BuildKind::Full);
                assert_same_index(&ix, &cold);
            }
        }
    }

    #[test]
    fn a_refit_piled_onto_one_centroid_falls_back_cold() {
        let dim = 6;
        let e0 = pseudo_random_embedding(160, dim, 31);
        // Both routes into the re-fit: the staleness trigger (every row
        // dirty against a 25 % budget) and the imbalance trigger (the
        // staleness budget disarmed, the patch piles up in cell 0).
        for drift_stale_bp in [2500, 10_000] {
            let cfg = IvfConfig {
                cells: 8,
                drift_stale_bp,
                drift_cell_factor_x10: 20,
                ..Default::default()
            };
            let prev = IvfIndex::build(&e0, &cfg);
            let prev_max = (0..prev.cells())
                .map(|j| prev.posting_list(j).len())
                .max()
                .unwrap();
            assert!(prev_max * 2 < 160, "the bound must be breakable");
            // Every row moved onto centroid 0.
            let mut e1 = Embedding::new(dim);
            for &id in e0.ids() {
                e1.set(id, &prev.centroids[..dim]);
            }
            let ix = IvfIndex::update_from(&prev, &e1, e1.ids(), &cfg);
            assert_eq!(ix.build_kind(), BuildKind::Full);
            assert_eq!(ix.dirty_rows(), 160);
            assert_same_index(&ix, &IvfIndex::build(&e1, &cfg));
        }
    }

    #[test]
    fn zero_dimensional_rows_build_and_refit_without_panicking() {
        let mut e = Embedding::new(0);
        for i in 0..10 {
            e.set(NodeId(i), &[]);
        }
        let cfg = IvfConfig {
            cells: 3,
            ..Default::default()
        };
        let prev = IvfIndex::build(&e, &cfg);
        assert_eq!(prev.cells(), 3);
        let ix = IvfIndex::update_from(&prev, &e, e.ids(), &cfg);
        assert_eq!(ix.build_kind(), BuildKind::Full);
        assert_eq!(ix.len(), 10);
    }

    #[test]
    fn drift_config_validation_rejects_degenerates() {
        let bad = IvfConfig {
            drift_stale_bp: 0,
            ..Default::default()
        };
        assert_eq!(bad.validate().unwrap_err().param(), "drift_stale_bp");
        let bad = IvfConfig {
            drift_stale_bp: 10_001,
            ..Default::default()
        };
        assert_eq!(bad.validate().unwrap_err().param(), "drift_stale_bp");
        let bad = IvfConfig {
            drift_cell_factor_x10: 9,
            ..Default::default()
        };
        assert_eq!(bad.validate().unwrap_err().param(), "drift_cell_factor_x10");
        assert_eq!(BuildKind::Full.as_str(), "full");
        assert_eq!(BuildKind::Incremental.as_str(), "incremental");
    }

    #[test]
    fn batch_scan_on_empty_index_and_k0_returns_per_query_empties() {
        let e = pseudo_random_embedding(10, 4, 3);
        let ix = IvfIndex::build(&e, &IvfConfig::default());
        let q0 = [1.0f32, 0.0, 0.0, 0.0];
        let queries = [
            BatchQuery {
                query: &q0,
                exclude: None,
            },
            BatchQuery {
                query: &q0,
                exclude: Some(NodeId(1)),
            },
        ];
        let scratch = &mut SearchScratch::new();
        assert_eq!(
            ix.search_batch_with(&queries, 0, 2, scratch),
            vec![vec![], vec![]]
        );
        let empty_ix = IvfIndex::build(&Embedding::new(4), &IvfConfig::default());
        assert_eq!(
            empty_ix.search_batch_with(&queries, 5, 2, scratch),
            vec![vec![], vec![]]
        );
        assert_eq!(
            empty_ix.search_in_batch_with(&e, &queries, 5, 2, scratch),
            vec![vec![], vec![]]
        );
    }

    #[test]
    fn scratch_reuse_changes_nothing() {
        let e = pseudo_random_embedding(50, 6, 9);
        for quantize in [false, true] {
            let cfg = IvfConfig {
                cells: 5,
                quantize,
                ..Default::default()
            };
            let ix = IvfIndex::build(&e, &cfg);
            let mut scratch = SearchScratch::new();
            for probe in 0..50u32 {
                let node = NodeId(probe);
                let q = e.get(node).unwrap();
                let fresh = ix.search_in(&e, q, 7, 2, Some(node));
                let reused = ix.search_in_with(&e, q, 7, 2, Some(node), &mut scratch);
                assert_bit_exact(&fresh, &reused);
            }
        }
    }
}
