//! The incremental Skip-Gram Negative Sampling model (Eq. 6–11).
//!
//! The model holds two weight matrices ("input"/center vectors — the
//! embeddings `Z` — and "output"/context vectors) over a growable
//! vocabulary of [`NodeId`]s. Training maximises Eq. 9/10 with SGD:
//!
//! ```text
//! max log σ(Z_i · Z'_j) + Σ_q E_{j'~P_D} [log σ(−Z_i · Z'_j')]
//! ```
//!
//! Negatives are drawn from the unigram distribution of the current
//! corpus raised to the 3/4 power (word2vec's `P_D`). The incremental
//! paradigm (Eq. 11) falls out naturally: call
//! [`SgnsModel::train_corpus`] again with a new corpus — existing
//! vectors are reused (`f^t = f^{t-1}`, Algorithm 1 line 17) and new
//! nodes get fresh random rows.
//!
//! The hot path consumes a flat [`WalkCorpus`] directly: tokens are read
//! straight out of the contiguous arena, vocabulary mapping costs one
//! array lookup per token (hashing happens once per *distinct* node),
//! and Hogwild workers are scheduled over contiguous *ranges* of walks
//! with one learning-rate reservation per walk and one scratch
//! allocation per range. The legacy [`SgnsModel::train`]`(&[Vec<NodeId>])`
//! entry point survives as a thin shim over the corpus path.
//!
//! # Target blocks
//!
//! Inside a walk the unit of work is a **target block**: one walk
//! position `xi`, whose node's *output* row is the positive target of
//! every centre within `window` of it. A block
//!
//! 1. draws the `q` negatives **once** (SplitMix64 stream seeded per
//!    `(seed, epoch, walk)`, alias table over the corpus's
//!    unigram^¾), dropping a draw that hits the target or repeats an
//!    earlier one;
//! 2. copies those ≤ `1 + q` output rows into per-range scratch;
//! 3. runs each of the ≤ `2·window` centres through them with plain
//!    **per-pair sequential SGD** — copy the centre row, then for each
//!    scratch row [`kernel::sgns_pair`] (`dot_fast` → sigmoid table →
//!    `g`; `grad += g·t`; `t += g·c`), then `centre += grad` — each
//!    pair at its own position of the linear learning-rate schedule;
//! 4. adds each scratch row's movement (`new − copied`) back to the
//!    shared output matrix.
//!
//! **Shared** across a window's pairs: the negative draw (20× fewer
//! alias samples at window 10) and the trips to shared memory — an
//! output row is read and written once per block instead of once per
//! pair, about 5× fewer shared-row writes, which is what two Hogwild
//! threads fight over on a 200-row model. **Not shared**: the update
//! itself. A walk of 80 on a 200-node graph revisits a node several
//! times inside one window; the "small GEMM" form (all `m × (1 + q)`
//! gradients from pre-update rows, then one apply) multiplies such a
//! node's step and was measured to cost a quarter of the paper's
//! graph-reconstruction MeanP@10 on exactly that workload, so every
//! pair sees the rows as the pair before it left them. The set of
//! positive pairs, their count and the schedule length are what they
//! were when each pair drew its own negatives.
//!
//! Sharing negatives across a window changes the sample stream, not
//! the objective: each pair still sees `q` draws from `P_D^{3/4}`, so
//! Eq. 9's expectation over negatives is the same; what is given up is
//! independence *between* the pairs of one window, as in every
//! shared-negative word2vec implementation.
//!
//! Measured on the 2-core box this was written on (d = 64, 5
//! negatives, Mpairs/s from `glodyne_bench::throughput`, per-pair loop
//! → target blocks; the AVX body of `sgns_pair` is 1.35–1.5× of the
//! second figure):
//!
//! | corpus | 1 thread | 2 threads |
//! |---|---|---|
//! | paper profile, n = 200 | 2.06 → 5.5 | 2.41 → 9.3 |
//! | serving profile, n = 4 000 | 1.77 → 5.0 | 2.27 → 8.5 |
//! | serving profile, n = 12 000 | 1.57 → 4.8 | 2.35 → 8.6 |
//!
//! Parallelism is word2vec-style Hogwild: threads update the shared
//! matrices without locks. Races lose the occasional update, which SGD
//! tolerates; set [`SgnsConfig::parallel`] to `false` for bit-exact
//! deterministic runs (tests, debugging, durable serving).

use crate::alias::AliasTable;
use crate::corpus::WalkCorpus;
use crate::embedding::Embedding;
use crate::kernel::{self, sigmoid32};
use crate::pairs;
use glodyne_graph::NodeId;
use rand::Rng;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use rayon::prelude::*;
use std::cell::UnsafeCell;
use std::collections::HashMap;
use std::sync::atomic::{AtomicUsize, Ordering};

/// SGNS hyper-parameters. Paper defaults (§5.1.2): `d=128`, window
/// `s=10`, `q=5` negatives; walks provide the corpus.
#[derive(Debug, Clone)]
pub struct SgnsConfig {
    /// Embedding dimensionality `d`.
    pub dim: usize,
    /// Sliding-window radius `s`.
    pub window: usize,
    /// Negative samples per positive sample `q`.
    pub negatives: usize,
    /// Passes over the walk corpus per `train` call.
    pub epochs: usize,
    /// Initial learning rate (word2vec default 0.025); decays linearly
    /// over the scheduled updates of one `train` call, floored at
    /// `initial_lr × 1e-2`.
    pub initial_lr: f32,
    /// RNG seed for initialisation and negative draws.
    pub seed: u64,
    /// Hogwild-parallel training (non-deterministic but fast). When
    /// false, training is sequential and bit-exact reproducible.
    pub parallel: bool,
}

impl Default for SgnsConfig {
    fn default() -> Self {
        SgnsConfig {
            dim: 128,
            window: 10,
            negatives: 5,
            epochs: 1,
            initial_lr: 0.025,
            seed: 0,
            parallel: true,
        }
    }
}

impl SgnsConfig {
    /// Validate the SGNS hyper-parameters.
    pub fn validate(&self) -> Result<(), crate::config::ConfigError> {
        use crate::config::require;
        require(self.dim >= 1, "dim", "must be >= 1")?;
        require(self.window >= 1, "window", "must be >= 1")?;
        require(self.negatives >= 1, "negatives", "must be >= 1")?;
        require(self.epochs >= 1, "epochs", "must be >= 1")?;
        require(
            self.initial_lr.is_finite() && self.initial_lr > 0.0,
            "initial_lr",
            format!("must be a positive finite number, got {}", self.initial_lr),
        )?;
        Ok(())
    }
}

/// Growable two-matrix SGNS model.
#[derive(Debug, Clone)]
pub struct SgnsModel {
    cfg: SgnsConfig,
    vocab: HashMap<NodeId, u32>,
    ids: Vec<NodeId>,
    /// Center ("input") vectors — the embeddings. Row-major `n × d`.
    input: Vec<f32>,
    /// Context ("output") vectors. Row-major `n × d`.
    output: Vec<f32>,
    /// Per-`train`-call corpus frequencies (the unigram table is built
    /// from the *current* corpus `D^t`, per Eq. 9's `P_{D^t}`).
    counts: Vec<u64>,
    init_rng: ChaCha8Rng,
}

impl SgnsModel {
    /// Fresh model with an empty vocabulary.
    pub fn new(cfg: SgnsConfig) -> Self {
        let init_rng = ChaCha8Rng::seed_from_u64(cfg.seed ^ 0xD1F3_5A7E);
        SgnsModel {
            cfg,
            vocab: HashMap::new(),
            ids: Vec::new(),
            input: Vec::new(),
            output: Vec::new(),
            counts: Vec::new(),
            init_rng,
        }
    }

    /// The configuration in use.
    pub fn config(&self) -> &SgnsConfig {
        &self.cfg
    }

    /// Vocabulary size.
    pub fn vocab_len(&self) -> usize {
        self.ids.len()
    }

    /// Node ids in model-row order: row `i` of both weight matrices
    /// belongs to `ids()[i]` (= interning order).
    pub fn ids(&self) -> &[NodeId] {
        &self.ids
    }

    /// The context ("output") matrix, row-major `n × d`. Exposed for
    /// checkpointing: the input matrix round-trips through the
    /// persisted embedding, but warm-started training also needs the
    /// context rows to resume bit-exactly.
    pub fn output_weights(&self) -> &[f32] {
        &self.output
    }

    /// Keystream position of the row-initialisation RNG. Checkpointing
    /// this position (instead of the raw cipher state) keeps the
    /// snapshot format independent of the RNG internals: restore
    /// reseeds from the config seed and fast-forwards.
    pub fn init_rng_word_pos(&self) -> u64 {
        self.init_rng.word_pos()
    }

    /// Rebuild a model from checkpointed state: `ids` in row order,
    /// both weight matrices, and the init-RNG keystream position.
    ///
    /// `counts` restores zeroed — it is per-call scratch that every
    /// [`SgnsModel::train_corpus`] resets before use (Eq. 9 samples
    /// negatives from the *current* corpus only), so it carries no
    /// state across steps. The restored model continues training
    /// bit-exactly where the checkpointed one left off (sequential
    /// mode).
    pub fn restore(
        cfg: SgnsConfig,
        ids: Vec<NodeId>,
        input: Vec<f32>,
        output: Vec<f32>,
        init_rng_word_pos: u64,
    ) -> Result<Self, crate::config::ConfigError> {
        use crate::config::require;
        cfg.validate()?;
        let expect = ids.len() * cfg.dim;
        require(
            input.len() == expect,
            "input",
            format!("expected {expect} weights for {} rows", ids.len()),
        )?;
        require(
            output.len() == expect,
            "output",
            format!("expected {expect} weights for {} rows", ids.len()),
        )?;
        let vocab: HashMap<NodeId, u32> = ids
            .iter()
            .enumerate()
            .map(|(i, &id)| (id, i as u32))
            .collect();
        require(
            vocab.len() == ids.len(),
            "ids",
            "duplicate node id in checkpoint",
        )?;
        let mut init_rng = ChaCha8Rng::seed_from_u64(cfg.seed ^ 0xD1F3_5A7E);
        init_rng.set_word_pos(init_rng_word_pos);
        let counts = vec![0; ids.len()];
        Ok(SgnsModel {
            cfg,
            vocab,
            ids,
            input,
            output,
            counts,
            init_rng,
        })
    }

    /// Register `id`, creating a randomly-initialised row on first sight
    /// (word2vec init: input uniform in ±0.5/d, output zero).
    fn intern(&mut self, id: NodeId) -> u32 {
        if let Some(&i) = self.vocab.get(&id) {
            return i;
        }
        let i = self.ids.len() as u32;
        self.vocab.insert(id, i);
        self.ids.push(id);
        let d = self.cfg.dim;
        let half = 0.5 / d as f32;
        for _ in 0..d {
            self.input.push(self.init_rng.gen_range(-half..half));
        }
        self.output.extend(std::iter::repeat_n(0.0, d));
        self.counts.push(0);
        i
    }

    /// Legacy entry point: train on materialised `NodeId` walks. A thin
    /// shim that flattens into a [`WalkCorpus`] (interning in first-
    /// occurrence order, as the historical implementation did) and
    /// delegates to [`SgnsModel::train_corpus`]; sequential results are
    /// bit-exact with the corpus path.
    pub fn train(&mut self, walks: &[Vec<NodeId>]) -> usize {
        if walks.is_empty() {
            return 0;
        }
        let corpus = WalkCorpus::from_nodeid_walks(walks);
        self.train_corpus(&corpus)
    }

    /// Train on a flat walk corpus (one incremental step). Returns the
    /// number of positive pairs processed.
    ///
    /// Scheduling: walks are processed in contiguous ranges (~4 per
    /// Hogwild worker). Each range reserves its learning-rate schedule
    /// positions with a single `fetch_add` per walk and owns one
    /// block scratch; with `parallel: false` the single range
    /// `0..num_walks` makes the run bit-exact reproducible. Inside a
    /// walk the unit of work is a target block — see the module doc.
    pub fn train_corpus(&mut self, corpus: &WalkCorpus) -> usize {
        let Some(Prepared {
            rows,
            negatives,
            total_pairs,
        }) = self.prepare(corpus)
        else {
            return 0;
        };

        let shared = SharedWeights {
            input: UnsafeCell::new(std::mem::take(&mut self.input)),
            output: UnsafeCell::new(std::mem::take(&mut self.output)),
        };
        let progress = AtomicUsize::new(0);
        let cfg = &self.cfg;
        let rows = &rows;
        let negatives = &negatives;
        let inv_total = 1.0 / total_pairs as f64;
        // Capture the whole struct reference (not its non-Sync fields)
        // so the closure is Sync via SharedWeights' unsafe impl.
        let shared_ref: &SharedWeights = &shared;

        // One contiguous range of walks, one block scratch.
        let run_range =
            |epoch: usize, walk_lo: usize, walk_hi: usize, scratch: &mut BlockScratch| {
                // SAFETY: Hogwild — concurrent unsynchronised f32 writes are
                // tolerated by SGD (word2vec). Rows are disjoint per update
                // except when threads collide on a node, which is rare and
                // only perturbs the stochastic gradient.
                let input = unsafe { &mut *shared_ref.input.get() };
                let output = unsafe { &mut *shared_ref.output.get() };
                for wi in walk_lo..walk_hi {
                    let walk = corpus.walk(wi);
                    let walk_pairs = pairs::pair_count(walk.len(), cfg.window);
                    if walk_pairs == 0 {
                        continue;
                    }
                    // Reserve this walk's slots in the global LR schedule
                    // in one shot.
                    let mut done = progress.fetch_add(walk_pairs, Ordering::Relaxed);
                    let mut rng = FastRng::for_walk(cfg.seed, epoch, wi);
                    let n = walk.len();
                    for xi in 0..n {
                        scratch.gather(
                            output,
                            rows[walk[xi] as usize] as usize,
                            (0..cfg.negatives).map(|_| negatives.sample(&mut rng)),
                        );
                        let lo = xi.saturating_sub(cfg.window);
                        let hi = (xi + cfg.window).min(n - 1);
                        for ci in lo..=hi {
                            if ci == xi {
                                continue;
                            }
                            let lr = learning_rate(cfg.initial_lr, done, inv_total);
                            done += 1;
                            scratch.pair(input, rows[walk[ci] as usize] as usize, lr);
                        }
                        scratch.scatter(output);
                    }
                }
            };

        let num_walks = corpus.num_walks();
        if cfg.parallel {
            // ~4 ranges per worker: large enough to amortise scratch
            // setup and scheduling, small enough to load-balance.
            let chunk = num_walks
                .div_ceil((rayon::current_num_threads() * 4).max(1))
                .max(1);
            for epoch in 0..cfg.epochs {
                let ranges: Vec<(usize, usize)> = (0..num_walks)
                    .step_by(chunk)
                    .map(|lo| (lo, (lo + chunk).min(num_walks)))
                    .collect();
                ranges.into_par_iter().for_each(|(lo, hi)| {
                    let mut scratch = BlockScratch::new(cfg.dim, cfg.negatives);
                    run_range(epoch, lo, hi, &mut scratch);
                });
            }
        } else {
            let mut scratch = BlockScratch::new(cfg.dim, cfg.negatives);
            for epoch in 0..cfg.epochs {
                run_range(epoch, 0, num_walks, &mut scratch);
            }
        }

        self.input = shared.input.into_inner();
        self.output = shared.output.into_inner();
        total_pairs
    }

    /// Everything a training call fixes before its first update: the
    /// token → model-row map (interning each distinct node the first
    /// time its token appears, = first-occurrence order in the token
    /// stream), the negative sampler over this corpus, and the length
    /// of the learning-rate schedule. `None` when there is nothing to
    /// train on.
    fn prepare(&mut self, corpus: &WalkCorpus) -> Option<Prepared> {
        if corpus.is_empty() {
            return None;
        }
        // Counts are reset per call: Eq. 9 samples negatives from the
        // unigram distribution of the *current* `D^t`, which also keeps
        // long-dead nodes (AS733 churn) out of the negative table.
        self.counts.fill(0);
        let node_ids = corpus.node_ids();
        let mut rows = vec![u32::MAX; node_ids.len()];
        // Model rows this corpus mentions, each once: an online step's
        // corpus starts at only α·|V| nodes, so the negative table is
        // built over these and not over the whole vocabulary.
        let mut distinct: Vec<u32> = Vec::new();
        for &tok in corpus.tokens() {
            let row = &mut rows[tok as usize];
            if *row == u32::MAX {
                *row = self.intern(node_ids[tok as usize]);
            }
            let count = &mut self.counts[*row as usize];
            if *count == 0 {
                distinct.push(*row);
            }
            *count += 1;
        }

        let total_pairs: usize = corpus
            .walks()
            .map(|w| pairs::pair_count(w.len(), self.cfg.window))
            .sum::<usize>()
            * self.cfg.epochs;
        if total_pairs == 0 {
            return None;
        }

        // Unigram^0.75 negative table over the current corpus.
        let weights: Vec<f64> = distinct
            .iter()
            .map(|&r| (self.counts[r as usize] as f64).powf(0.75))
            .collect();
        Some(Prepared {
            rows,
            negatives: NegativeTable {
                table: AliasTable::new(&weights),
                rows: distinct,
            },
            total_pairs,
        })
    }

    /// Current embedding (`Z^t` = the input/center vectors).
    pub fn embedding(&self) -> Embedding {
        let mut e = Embedding::new(self.cfg.dim);
        for (i, &id) in self.ids.iter().enumerate() {
            e.set(id, &self.input[i * self.cfg.dim..(i + 1) * self.cfg.dim]);
        }
        e
    }

    /// Average SGNS loss (negative Eq. 9) over a sample of pairs — a
    /// diagnostic used by tests to check training progress.
    pub fn corpus_loss(&self, walks: &[Vec<NodeId>]) -> f64 {
        let mut rng = ChaCha8Rng::seed_from_u64(self.cfg.seed ^ 0xBEEF);
        let mut total = 0.0f64;
        let mut count = 0usize;
        for walk in walks {
            let idx: Vec<Option<&u32>> = walk.iter().map(|id| self.vocab.get(id)).collect();
            for ci in 0..walk.len() {
                let Some(&c) = idx[ci] else { continue };
                let lo = ci.saturating_sub(self.cfg.window);
                let hi = (ci + self.cfg.window).min(walk.len().saturating_sub(1));
                for xi in lo..=hi {
                    if xi == ci {
                        continue;
                    }
                    let Some(&o) = idx[xi] else { continue };
                    let dot = self.dot_io(c as usize, o as usize);
                    total -= (sigmoid32(dot) as f64).max(1e-9).ln();
                    for _ in 0..self.cfg.negatives {
                        let t = rng.gen_range(0..self.ids.len());
                        let dot = self.dot_io(c as usize, t);
                        total -= (1.0 - sigmoid32(dot) as f64).max(1e-9).ln();
                    }
                    count += 1;
                }
            }
        }
        if count == 0 {
            0.0
        } else {
            total / count as f64
        }
    }

    fn dot_io(&self, center: usize, target: usize) -> f32 {
        let d = self.cfg.dim;
        let a = &self.input[center * d..(center + 1) * d];
        let b = &self.output[target * d..(target + 1) * d];
        a.iter().zip(b).map(|(x, y)| x * y).sum()
    }
}

/// Shared Hogwild weight buffers.
struct SharedWeights {
    input: UnsafeCell<Vec<f32>>,
    output: UnsafeCell<Vec<f32>>,
}
// SAFETY: see the Hogwild comment in `train_corpus` — racy f32 updates
// are an accepted part of the algorithm, as in the reference word2vec
// code.
unsafe impl Sync for SharedWeights {}

/// The rate of the pair at position `done` of a schedule `1 /
/// inv_total` pairs long: linear decay from `initial`, floored at
/// `initial × 1e-2`. The position is scaled in `f64` — an `f32` cannot
/// tell neighbouring positions apart beyond 2²⁴ pairs, and an offline
/// stage at paper defaults trains 10⁸.
#[inline]
fn learning_rate(initial: f32, done: usize, inv_total: f64) -> f32 {
    (initial * (1.0 - done as f64 * inv_total) as f32).max(initial * 1e-2)
}

/// See [`SgnsModel::prepare`].
struct Prepared {
    /// Corpus token → model row (`u32::MAX` for tokens the corpus never
    /// uses).
    rows: Vec<u32>,
    negatives: NegativeTable,
    /// Positive pairs × epochs: the length of the LR schedule.
    total_pairs: usize,
}

/// word2vec's `P_D`: the corpus's unigram distribution raised to 3/4,
/// over the rows the corpus mentions. Rows it does not mention have
/// weight 0 and were never drawn, so leaving them out of the alias
/// table changes its size, not the distribution.
struct NegativeTable {
    table: AliasTable,
    /// Alias outcome → model row.
    rows: Vec<u32>,
}

impl NegativeTable {
    #[inline]
    fn sample(&self, rng: &mut impl Rng) -> usize {
        self.rows[self.table.sample(rng)] as usize
    }
}

/// Per-range scratch of the target-block loop, allocated once per walk
/// range. A block is one walk position's output row (slot 0, label 1)
/// plus that position's distinct negatives (label 0), held here while
/// every centre of the window trains against them.
///
/// Nothing here scales with the window: a walk that revisits a node
/// inside one window must see that node's centre row *after* the
/// earlier visit's step, so centre rows are read from the model one
/// pair at a time and only the block's ≤ `1 + negatives` output rows
/// are held.
struct BlockScratch {
    /// Model row of each live slot.
    slot_rows: Vec<usize>,
    /// The slots' output rows, `dim` floats apiece, updated pair by
    /// pair.
    work: Vec<f32>,
    /// The same rows as [`BlockScratch::gather`] copied them.
    copied: Vec<f32>,
    centre: Vec<f32>,
    grad: Vec<f32>,
}

impl BlockScratch {
    fn new(dim: usize, negatives: usize) -> Self {
        BlockScratch {
            slot_rows: Vec::with_capacity(1 + negatives),
            work: vec![0.0; (1 + negatives) * dim],
            copied: vec![0.0; (1 + negatives) * dim],
            centre: vec![0.0; dim],
            grad: vec![0.0; dim],
        }
    }

    /// Open a block: copy `target`'s output row into slot 0, then one
    /// slot per drawn negative. A draw equal to the target or to an
    /// earlier slot is dropped, so every row in the block is updated
    /// through exactly one copy.
    fn gather(&mut self, output: &[f32], target: usize, negatives: impl Iterator<Item = usize>) {
        let dim = self.centre.len();
        self.slot_rows.clear();
        self.slot_rows.push(target);
        for row in negatives {
            if !self.slot_rows.contains(&row) {
                self.slot_rows.push(row);
            }
        }
        for (&row, slot) in self.slot_rows.iter().zip(self.work.chunks_exact_mut(dim)) {
            slot.copy_from_slice(&output[row * dim..(row + 1) * dim]);
        }
        let live = self.slot_rows.len() * dim;
        self.copied[..live].copy_from_slice(&self.work[..live]);
    }

    /// Train `centre`'s input row against every slot, in slot order,
    /// each slot seeing the steps of the pairs before it: plain
    /// per-pair SGD, with the output rows in scratch.
    fn pair(&mut self, input: &mut [f32], centre: usize, lr: f32) {
        let dim = self.centre.len();
        let centre_row = &mut input[centre * dim..(centre + 1) * dim];
        // Hoisted copy: under Hogwild the six dots below see one
        // version of the row even if another thread is writing it.
        self.centre.copy_from_slice(centre_row);
        self.grad.fill(0.0);
        let live = self.slot_rows.len() * dim;
        for (slot, target) in self.work[..live].chunks_exact_mut(dim).enumerate() {
            let label = if slot == 0 { 1.0 } else { 0.0 };
            kernel::sgns_pair(&self.centre, target, &mut self.grad, label, lr);
        }
        for (w, g) in centre_row.iter_mut().zip(&self.grad) {
            *w += g;
        }
    }

    /// Close the block: add what each slot moved by (`new − copied`) to
    /// its output row. A delta, not a store, so a step another Hogwild
    /// thread made on the same row in the meantime survives.
    fn scatter(&self, output: &mut [f32]) {
        let dim = self.centre.len();
        for ((&row, new), old) in self
            .slot_rows
            .iter()
            .zip(self.work.chunks_exact(dim))
            .zip(self.copied.chunks_exact(dim))
        {
            for ((w, n), o) in output[row * dim..(row + 1) * dim]
                .iter_mut()
                .zip(new)
                .zip(old)
            {
                *w += n - o;
            }
        }
    }
}

/// SplitMix64 negative-sampling stream: ~3ns per draw where the block
/// cipher costs ~10× that, and statistically plenty for picking noise
/// samples (reference word2vec uses a bare LCG here). Deterministic per
/// `(seed, epoch, walk)` like the ChaCha stream it replaces.
struct FastRng(u64);

impl FastRng {
    #[inline]
    fn new(seed: u64) -> Self {
        FastRng(seed)
    }

    /// The negative-draw stream of walk `wi` in `epoch`.
    #[inline]
    fn for_walk(seed: u64, epoch: usize, wi: usize) -> Self {
        FastRng::new(
            seed.wrapping_add((epoch as u64) << 40)
                .wrapping_add((wi as u64).wrapping_mul(0x9E37_79B9)),
        )
    }
}

impl rand::RngCore for FastRng {
    #[inline]
    fn next_u64(&mut self) -> u64 {
        crate::walks::splitmix64_next(&mut self.0)
    }

    #[inline]
    fn next_u32(&mut self) -> u32 {
        (self.next_u64() >> 32) as u32
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn seq_cfg(dim: usize) -> SgnsConfig {
        SgnsConfig {
            dim,
            window: 2,
            negatives: 3,
            epochs: 5,
            initial_lr: 0.05,
            seed: 1,
            parallel: false,
        }
    }

    /// Walks alternating inside two disjoint "communities".
    fn two_community_walks() -> Vec<Vec<NodeId>> {
        let mut walks = Vec::new();
        for rep in 0..30 {
            let a: Vec<NodeId> = (0..10).map(|i| NodeId((rep + i) % 5)).collect();
            let b: Vec<NodeId> = (0..10).map(|i| NodeId(5 + (rep + i) % 5)).collect();
            walks.push(a);
            walks.push(b);
        }
        walks
    }

    impl SgnsModel {
        /// The per-pair loop `train_corpus` ran before target blocks,
        /// kept as the quality reference: every positive pair draws its
        /// own `q` negatives and reads and writes the model's rows in
        /// place. Sequential only.
        fn train_corpus_reference(&mut self, corpus: &WalkCorpus) -> usize {
            assert!(!self.cfg.parallel, "the reference trainer is sequential");
            let Some(Prepared {
                rows,
                negatives,
                total_pairs,
            }) = self.prepare(corpus)
            else {
                return 0;
            };
            let cfg = &self.cfg;
            let dim = cfg.dim;
            let (input, output) = (&mut self.input, &mut self.output);
            let mut grad_acc = vec![0.0f32; dim];
            let mut center_buf = vec![0.0f32; dim];
            let mut done = 0usize;
            for epoch in 0..cfg.epochs {
                for wi in 0..corpus.num_walks() {
                    let walk = corpus.walk(wi);
                    let mut rng = FastRng::for_walk(cfg.seed, epoch, wi);
                    let n = walk.len();
                    for ci in 0..n {
                        let center = rows[walk[ci] as usize] as usize;
                        let lo = ci.saturating_sub(cfg.window);
                        let hi = (ci + cfg.window).min(n - 1);
                        for xi in lo..=hi {
                            if xi == ci {
                                continue;
                            }
                            let context = rows[walk[xi] as usize] as usize;
                            let lr = (cfg.initial_lr * (1.0 - done as f32 / total_pairs as f32))
                                .max(cfg.initial_lr * 1e-2);
                            done += 1;
                            grad_acc.fill(0.0);
                            center_buf.copy_from_slice(&input[center * dim..(center + 1) * dim]);
                            for neg in 0..=cfg.negatives {
                                let (target, label) = if neg == 0 {
                                    (context, 1.0f32)
                                } else {
                                    let t = negatives.sample(&mut rng);
                                    if t == context {
                                        continue;
                                    }
                                    (t, 0.0f32)
                                };
                                let trow = &mut output[target * dim..(target + 1) * dim];
                                let mut dot = 0.0f32;
                                for (c, t) in center_buf.iter().zip(trow.iter()) {
                                    dot += c * t;
                                }
                                let g = (label - kernel::sigmoid_table(dot)) * lr;
                                for ((acc, t), c) in
                                    grad_acc.iter_mut().zip(trow.iter_mut()).zip(&center_buf)
                                {
                                    *acc += g * *t;
                                    *t += g * c;
                                }
                            }
                            for (w, acc) in input[center * dim..(center + 1) * dim]
                                .iter_mut()
                                .zip(&grad_acc)
                            {
                                *w += acc;
                            }
                        }
                    }
                }
            }
            total_pairs
        }
    }

    /// `communities` ring lattices of 100 nodes, 4 neighbours a side,
    /// chained by one bridge edge each — the shape of the end-to-end
    /// benchmark's generated graphs.
    fn ring_lattice_communities(communities: u32) -> glodyne_graph::Snapshot {
        use glodyne_graph::id::Edge;
        let mut edges = Vec::new();
        for c in 0..communities {
            for i in 0..100 {
                for step in 1..=4 {
                    edges.push(Edge::new(
                        NodeId(c * 100 + i),
                        NodeId(c * 100 + (i + step) % 100),
                    ));
                }
            }
            edges.push(Edge::new(
                NodeId(c * 100),
                NodeId(((c + 1) % communities) * 100 + 50),
            ));
        }
        glodyne_graph::Snapshot::from_edges(&edges, &[])
    }

    /// Graph-reconstruction MeanP@10, the paper's metric (and
    /// `glodyne_tasks::gr`'s, which this crate cannot depend on): per
    /// node, the share of its cosine top-10 that are true neighbours,
    /// `hits / min(10, degree)`.
    fn gr_mean_p_at_10(e: &Embedding, g: &glodyne_graph::Snapshot) -> f64 {
        let mut sum = 0.0;
        for local in 0..g.num_nodes() {
            let hits = e
                .top_k(g.node_id(local), 10)
                .iter()
                .filter(|(id, _)| g.has_edge_ids(g.node_id(local), *id))
                .count();
            sum += hits as f64 / g.degree(local).min(10) as f64;
        }
        sum / g.num_nodes() as f64
    }

    #[test]
    fn target_blocks_keep_the_per_pair_loops_quality() {
        // Algorithm 1 in miniature, as `bench_e2e`'s `paper_steps`
        // runs it: an offline stage over every node, then warm-started
        // online steps from α = 0.1 of the nodes, walks of 80 under a
        // window of 10 on 100-node communities — so a walk revisits
        // nodes inside one window, the case that separates sequential
        // in-block SGD from a block that sums gradients taken at
        // pre-update rows (a revisited node's step is multiplied; that
        // form scores 0.70–0.74 here against the reference's 0.86 and
        // fails this test). Sized for an unoptimised test build: fewer
        // walks per node and one epoch, with the learning rate raised
        // to 0.1 so that 1.2 M pairs reach the regime the paper's
        // 0.025 reaches after sixteen full steps.
        let g = ring_lattice_communities(3);
        let walk_cfg = |walks_per_node, seed| crate::walks::WalkConfig {
            walks_per_node,
            walk_length: 80,
            seed,
        };
        let mut corpora = vec![crate::walks::generate_corpus_all(&g, &walk_cfg(1, 5))];
        for step in 0..8u32 {
            let starts: Vec<u32> = (0..g.num_nodes() as u32)
                .filter(|v| (v + step) % 10 == 0)
                .collect();
            let cfg = walk_cfg(2, 100 + step as u64);
            corpora.push(crate::walks::generate_corpus(&g, &starts, &cfg));
        }
        let cfg = SgnsConfig {
            dim: 32,
            window: 10,
            negatives: 5,
            epochs: 1,
            initial_lr: 0.1,
            seed: 3,
            parallel: false,
        };

        let mut blocks = SgnsModel::new(cfg.clone());
        let mut reference = SgnsModel::new(cfg.clone());
        for (step, corpus) in corpora.iter().enumerate() {
            let pairs = corpus.num_walks() * pairs::pair_count(80, 10);
            assert_eq!(blocks.train_corpus(corpus), pairs);
            assert_eq!(reference.train_corpus_reference(corpus), pairs);
            if step == 1 {
                // Two sequential runs are bit-equal, through a warm
                // start.
                let mut again = SgnsModel::new(cfg.clone());
                again.train_corpus(&corpora[0]);
                again.train_corpus(&corpora[1]);
                assert_eq!(again.input, blocks.input);
                assert_eq!(again.output, blocks.output);
            }
        }
        let new = gr_mean_p_at_10(&blocks.embedding(), &g);
        let old = gr_mean_p_at_10(&reference.embedding(), &g);
        assert!(old > 0.8, "reference trainer learns the graph: {old}");
        assert!(
            new >= old - 0.03,
            "target blocks MeanP@10 {new} vs per-pair reference {old}"
        );
    }

    /// One block, driven by hand: `slots` as the negative draw produced
    /// them, `centres` in window order.
    fn run_block(
        input: &mut [f32],
        output: &mut [f32],
        dim: usize,
        target: usize,
        draws: &[usize],
        centres: &[usize],
        lr: f32,
    ) -> Vec<usize> {
        let mut scratch = BlockScratch::new(dim, draws.len());
        scratch.gather(output, target, draws.iter().copied());
        for &c in centres {
            scratch.pair(input, c, lr);
        }
        scratch.scatter(output);
        scratch.slot_rows
    }

    #[test]
    fn block_updates_each_distinct_row_once_and_writes_back_the_sequential_result() {
        let dim = 9;
        let n = 6;
        let fill = |salt: u64| -> Vec<f32> {
            let mut state = salt;
            (0..n * dim)
                .map(|_| (crate::walks::splitmix64_next(&mut state) >> 40) as f32 / 1e7 - 0.8)
                .collect()
        };
        let (input0, output0) = (fill(1), fill(2));
        // Target row 2; the draw hits the target, repeats row 4, and
        // row 3 doubles as a centre (the matrices are separate). The
        // window revisits centre 0.
        let (target, draws, centres, lr) = (2, [4, 2, 5, 4, 3], [0, 3, 0, 1], 0.05);
        let (mut input, mut output) = (input0.clone(), output0.clone());
        let slots = run_block(&mut input, &mut output, dim, target, &draws, &centres, lr);
        assert_eq!(
            slots,
            [2, 4, 5, 3],
            "one slot per distinct row, target first"
        );

        // The same pairs as plain sequential SGD on the rows in place.
        let (mut seq_in, mut seq_out) = (input0.clone(), output0.clone());
        for &c in &centres {
            let centre = seq_in[c * dim..(c + 1) * dim].to_vec();
            let mut grad = vec![0.0f32; dim];
            for (slot, &row) in slots.iter().enumerate() {
                let label = if slot == 0 { 1.0 } else { 0.0 };
                kernel::sgns_pair(
                    &centre,
                    &mut seq_out[row * dim..(row + 1) * dim],
                    &mut grad,
                    label,
                    lr,
                );
            }
            for (w, g) in seq_in[c * dim..(c + 1) * dim].iter_mut().zip(&grad) {
                *w += g;
            }
        }
        assert_eq!(input, seq_in, "centre rows: bit-equal to in-place SGD");
        for row in 0..n {
            for i in row * dim..(row + 1) * dim {
                if slots.contains(&row) {
                    // The write-back adds `new − copied` to the row it
                    // copied: that sum, exactly, and the in-place
                    // result to within the one rounding it costs.
                    let delta = seq_out[i] - output0[i];
                    assert_eq!(output[i].to_bits(), (output0[i] + delta).to_bits());
                    assert!((output[i] - seq_out[i]).abs() <= 1e-6 * seq_out[i].abs().max(1.0));
                    assert_ne!(output[i], output0[i], "row {row} was trained");
                } else {
                    assert_eq!(
                        output[i].to_bits(),
                        output0[i].to_bits(),
                        "row {row} untouched"
                    );
                }
            }
        }
    }

    #[test]
    fn block_write_back_is_a_delta_not_a_store() {
        // What another Hogwild thread added to a row while the block
        // held its copy must survive the write-back.
        let dim = 4;
        let mut input = vec![0.1f32; 2 * dim];
        let mut output = vec![0.25f32; 2 * dim];
        let mut scratch = BlockScratch::new(dim, 1);
        scratch.gather(&output, 0, [1].into_iter());
        scratch.pair(&mut input, 1, 0.05);
        let moved: Vec<f32> = scratch
            .work
            .iter()
            .zip(&scratch.copied)
            .map(|(n, o)| n - o)
            .collect();
        output.iter_mut().for_each(|w| *w += 1.0);
        scratch.scatter(&mut output);
        for (w, d) in output.iter().zip(&moved) {
            assert_eq!(*w, 1.25 + d);
        }
    }

    #[test]
    fn negative_table_covers_only_rows_of_the_current_corpus() {
        let mut m = SgnsModel::new(seq_cfg(4));
        m.train(&two_community_walks());
        // A later corpus over two of the ten nodes, one of them three
        // times as frequent.
        let walks = vec![vec![NodeId(7), NodeId(2), NodeId(7), NodeId(7)]];
        let prepared = m.prepare(&WalkCorpus::from_nodeid_walks(&walks)).unwrap();
        let row = |id: u32| m.vocab[&NodeId(id)];
        assert_eq!(prepared.negatives.rows, [row(7), row(2)]);
        assert_eq!(prepared.rows, [row(7), row(2)]);
        let mut rng = FastRng::new(9);
        let draws = 20_000;
        let sevens = (0..draws)
            .filter(|_| prepared.negatives.sample(&mut rng) == row(7) as usize)
            .count();
        let expected = 3f64.powf(0.75) / (3f64.powf(0.75) + 1.0);
        assert!((sevens as f64 / draws as f64 - expected).abs() < 0.02);
    }

    #[test]
    fn learning_rate_decays_linearly_to_its_floor_past_two_to_the_24_pairs() {
        // An offline stage at paper defaults on 12k nodes: 3.6e8 pairs.
        let total = 360_000_000usize;
        let lr = |done| learning_rate(0.025, done, 1.0 / total as f64);
        assert_eq!(lr(0), 0.025);
        assert_eq!(lr(total / 4), 0.025 * 0.75);
        assert_eq!(lr(total / 2 + 1), 0.025 * (0.5 - 1.0 / total as f64) as f32);
        assert_eq!(lr(total - 1), 0.025 * 1e-2);
        assert!((0..total)
            .step_by(999_983)
            .all(|d| lr(d + 999_983) <= lr(d)));
    }

    #[test]
    fn vocabulary_grows_with_corpus() {
        let mut m = SgnsModel::new(seq_cfg(8));
        m.train(&[vec![NodeId(0), NodeId(1), NodeId(2)]]);
        assert_eq!(m.vocab_len(), 3);
        m.train(&[vec![NodeId(2), NodeId(3)]]);
        assert_eq!(m.vocab_len(), 4);
    }

    #[test]
    fn training_reduces_loss() {
        let walks = two_community_walks();
        let mut m = SgnsModel::new(seq_cfg(16));
        m.train(&walks[..2]); // intern vocab, minimal training
        let before = m.corpus_loss(&walks);
        m.train(&walks);
        m.train(&walks);
        let after = m.corpus_loss(&walks);
        assert!(after < before, "loss {before} -> {after}");
    }

    #[test]
    fn communities_separate_in_embedding_space() {
        let walks = two_community_walks();
        let mut m = SgnsModel::new(SgnsConfig {
            epochs: 20,
            ..seq_cfg(16)
        });
        m.train(&walks);
        let e = m.embedding();
        let intra = e.cosine(NodeId(0), NodeId(1)).unwrap();
        let inter = e.cosine(NodeId(0), NodeId(6)).unwrap();
        assert!(
            intra > inter,
            "intra-community cosine {intra} should exceed inter {inter}"
        );
    }

    #[test]
    fn sequential_training_is_deterministic() {
        let walks = two_community_walks();
        let run = || {
            let mut m = SgnsModel::new(seq_cfg(8));
            m.train(&walks);
            m.embedding()
        };
        let (a, b) = (run(), run());
        for (id, va) in a.iter() {
            assert_eq!(va, b.get(id).unwrap());
        }
    }

    #[test]
    fn train_corpus_bit_exact_with_legacy_shim() {
        // The shim flattens `NodeId` walks into a corpus; feeding an
        // equivalent corpus directly must produce identical bits in
        // sequential mode (same intern order, same LR schedule, same
        // RNG streams).
        let walks = two_community_walks();
        let mut via_shim = SgnsModel::new(seq_cfg(8));
        let shim_pairs = via_shim.train(&walks);

        let corpus = WalkCorpus::from_nodeid_walks(&walks);
        let mut via_corpus = SgnsModel::new(seq_cfg(8));
        let corpus_pairs = via_corpus.train_corpus(&corpus);

        assert_eq!(shim_pairs, corpus_pairs);
        let (a, b) = (via_shim.embedding(), via_corpus.embedding());
        assert_eq!(a.len(), b.len());
        for (id, va) in a.iter() {
            assert_eq!(va, b.get(id).unwrap(), "row for {id} diverged");
        }
    }

    #[test]
    fn incremental_train_corpus_warm_starts_like_train() {
        // Two-step incremental run through both entry points.
        let step1 = two_community_walks();
        let step2 = vec![vec![NodeId(0), NodeId(9), NodeId(0), NodeId(9)]];
        let mut shim = SgnsModel::new(seq_cfg(8));
        shim.train(&step1);
        shim.train(&step2);
        let mut direct = SgnsModel::new(seq_cfg(8));
        direct.train_corpus(&WalkCorpus::from_nodeid_walks(&step1));
        direct.train_corpus(&WalkCorpus::from_nodeid_walks(&step2));
        for (id, va) in shim.embedding().iter() {
            assert_eq!(va, direct.embedding().get(id).unwrap());
        }
    }

    #[test]
    fn incremental_training_preserves_old_vectors_roughly() {
        // Warm-start: vectors of untouched nodes must be identical after
        // a second train call on a disjoint corpus.
        let mut m = SgnsModel::new(seq_cfg(8));
        m.train(&two_community_walks());
        let before = m.embedding();
        m.train(&[vec![NodeId(100), NodeId(101), NodeId(100), NodeId(101)]]);
        let after = m.embedding();
        // old node 0..4 only move if they were sampled as negatives; with
        // a tiny new corpus the drift must be small
        let drift: f32 = before
            .iter()
            .map(|(id, v)| {
                let w = after.get(id).unwrap();
                v.iter().zip(w).map(|(a, b)| (a - b).abs()).sum::<f32>()
            })
            .sum();
        assert!(drift < 1.0, "warm-start drift too large: {drift}");
        assert!(after.get(NodeId(100)).is_some());
    }

    #[test]
    fn restore_resumes_training_bit_exactly() {
        // Checkpoint after step 1, restore, run step 2 on both the
        // original and the restored model. Step 2 introduces a brand
        // new node, so the restored init-RNG must be at the exact
        // keystream position the original left it at.
        let step1 = two_community_walks();
        let step2 = vec![vec![NodeId(0), NodeId(42), NodeId(9), NodeId(42)]];
        let mut original = SgnsModel::new(seq_cfg(8));
        original.train(&step1);

        let ids = original.ids().to_vec();
        let emb = original.embedding();
        let input: Vec<f32> = ids
            .iter()
            .flat_map(|&id| emb.get(id).unwrap().iter().copied())
            .collect();
        let mut restored = SgnsModel::restore(
            seq_cfg(8),
            ids,
            input,
            original.output_weights().to_vec(),
            original.init_rng_word_pos(),
        )
        .unwrap();

        original.train(&step2);
        restored.train(&step2);
        assert_eq!(original.vocab_len(), restored.vocab_len());
        for (id, va) in original.embedding().iter() {
            assert_eq!(va, restored.embedding().get(id).unwrap(), "row {id}");
        }
    }

    #[test]
    fn restore_rejects_mismatched_weights() {
        assert!(
            SgnsModel::restore(seq_cfg(8), vec![NodeId(1)], vec![0.0; 4], vec![0.0; 8], 0).is_err()
        );
        assert!(SgnsModel::restore(
            seq_cfg(8),
            vec![NodeId(1), NodeId(1)],
            vec![0.0; 16],
            vec![0.0; 16],
            0
        )
        .is_err());
    }

    #[test]
    fn empty_corpus_is_noop() {
        let mut m = SgnsModel::new(seq_cfg(4));
        assert_eq!(m.train(&[]), 0);
        assert_eq!(m.vocab_len(), 0);
        assert_eq!(m.train_corpus(&WalkCorpus::from_nodeid_walks(&[])), 0);
        assert_eq!(m.vocab_len(), 0);
    }

    #[test]
    fn parallel_training_matches_quality() {
        let walks = two_community_walks();
        let mut m = SgnsModel::new(SgnsConfig {
            parallel: true,
            epochs: 20,
            ..seq_cfg(16)
        });
        m.train(&walks);
        let e = m.embedding();
        let intra = e.cosine(NodeId(0), NodeId(1)).unwrap();
        let inter = e.cosine(NodeId(0), NodeId(6)).unwrap();
        assert!(intra > inter);
    }

    #[test]
    fn parallel_train_corpus_matches_quality() {
        let walks = two_community_walks();
        let corpus = WalkCorpus::from_nodeid_walks(&walks);
        let mut m = SgnsModel::new(SgnsConfig {
            parallel: true,
            epochs: 20,
            ..seq_cfg(16)
        });
        m.train_corpus(&corpus);
        let e = m.embedding();
        let intra = e.cosine(NodeId(0), NodeId(1)).unwrap();
        let inter = e.cosine(NodeId(0), NodeId(6)).unwrap();
        assert!(intra > inter);
    }
}
