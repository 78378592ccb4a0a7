//! Deterministic spherical k-means: the coarse quantiser behind
//! [`IvfIndex`](crate::IvfIndex).
//!
//! Rows are assigned to the centroid of highest cosine similarity (the
//! same guarded kernel the search path uses), centroids are the
//! arithmetic mean of their members, and the Lloyd loop starts from
//! whatever centroids the caller hands it: a SplitMix64-seeded draw
//! ([`seed_centroids`]) for a cold build — so a given
//! `(embedding, config)` pair always produces the same clustering — or
//! the previous epoch's centroids for a warm re-fit.

// The RNG and the similarity kernel are *shared* with `glodyne_embed`
// — not re-implemented — so the determinism conventions and the
// bit-exactness contract have a single home. Assignment scores rows
// with the fast kernel: clustering only decides row *grouping*, and
// full-probe search visits every group regardless, so the
// bit-exactness pins never depend on which cell a row landed in.
use glodyne_embed::kernel::{l2_norm, norm_cosine_fast};
use glodyne_embed::walks::splitmix64_next;

/// The result of one clustering run over `n` rows.
#[derive(Default)]
pub(crate) struct Clustering {
    /// `c × dim` centroid matrix, row-major.
    pub centroids: Vec<f32>,
    /// Per-centroid L2 norms, parallel to `centroids` rows.
    pub centroid_norms: Vec<f32>,
    /// Cell of each input row (`n` entries, each `< c`).
    pub assignment: Vec<u32>,
}

/// Cluster `n = norms.len()` rows of width `dim` (flat in `data`) into
/// `c` cells, starting from the `c × dim` matrix `centroids`, with
/// `iters` Lloyd iterations plus a final assignment pass (`iters + 1`
/// assignment passes in all). `1 <= c <= n` is the caller's contract
/// ([`IvfIndex::build`](crate::IvfIndex::build) clamps; a re-fit
/// requires the previous index to have exactly that many cells).
pub(crate) fn cluster(
    data: &[f32],
    norms: &[f32],
    dim: usize,
    c: usize,
    mut centroids: Vec<f32>,
    iters: usize,
) -> Clustering {
    let n = norms.len();
    debug_assert!(c >= 1 && c <= n);
    debug_assert_eq!(data.len(), n * dim);
    debug_assert_eq!(centroids.len(), c * dim);

    let mut centroid_norms: Vec<f32> = (0..c)
        .map(|j| l2_norm(&centroids[j * dim..(j + 1) * dim]))
        .collect();
    let mut assignment = vec![0u32; n];

    for _ in 0..iters {
        assign(
            data,
            norms,
            dim,
            &centroids,
            &centroid_norms,
            &mut assignment,
        );
        // Recompute each centroid as the mean of its finite members;
        // a cell that lost all members (or holds only non-finite rows)
        // keeps its previous centroid rather than collapsing to zero.
        let mut sums = vec![0.0f32; c * dim];
        let mut counts = vec![0u32; c];
        for (i, &cell) in assignment.iter().enumerate() {
            if !norms[i].is_finite() {
                continue; // NaN/inf rows must not poison a centroid
            }
            let row = &data[i * dim..(i + 1) * dim];
            let acc = &mut sums[cell as usize * dim..(cell as usize + 1) * dim];
            for (a, &x) in acc.iter_mut().zip(row) {
                *a += x;
            }
            counts[cell as usize] += 1;
        }
        for j in 0..c {
            if counts[j] == 0 {
                continue;
            }
            let inv = 1.0 / counts[j] as f32;
            let dst = &mut centroids[j * dim..(j + 1) * dim];
            let src = &sums[j * dim..(j + 1) * dim];
            for (d, &s) in dst.iter_mut().zip(src) {
                *d = s * inv;
            }
            centroid_norms[j] = l2_norm(dst);
        }
    }
    // Final assignment against the final centroids.
    assign(
        data,
        norms,
        dim,
        &centroids,
        &centroid_norms,
        &mut assignment,
    );
    Clustering {
        centroids,
        centroid_norms,
        assignment,
    }
}

/// The cold start: draw `c` distinct seed rows, preferring rows with a
/// finite norm when enough exist (a NaN seed centroid would attract
/// nothing and waste a cell).
pub(crate) fn seed_centroids(
    data: &[f32],
    norms: &[f32],
    dim: usize,
    c: usize,
    seed: u64,
) -> Vec<f32> {
    let n = norms.len();
    let finite = norms.iter().filter(|n| n.is_finite()).count();
    let finite_only = finite >= c;
    let mut state = seed;
    let mut chosen = vec![false; n];
    let mut centroids = Vec::with_capacity(c * dim);
    let mut picked = 0;
    while picked < c {
        let i = (splitmix64_next(&mut state) % n as u64) as usize;
        if chosen[i] || (finite_only && !norms[i].is_finite()) {
            continue;
        }
        chosen[i] = true;
        centroids.extend_from_slice(&data[i * dim..(i + 1) * dim]);
        picked += 1;
    }
    centroids
}

/// The centroid of highest guarded cosine similarity for one row, ties
/// (and all-NaN rows) toward the smallest centroid index — fully
/// deterministic. The assignment step of every Lloyd pass, cold or
/// re-fitted ([`IvfIndex::update_from`](crate::IvfIndex::update_from)).
pub(crate) fn nearest_centroid(
    row: &[f32],
    row_norm: f32,
    dim: usize,
    centroids: &[f32],
    centroid_norms: &[f32],
) -> u32 {
    let mut best = 0u32;
    let mut best_sim = f32::NEG_INFINITY;
    for (j, &cn) in centroid_norms.iter().enumerate() {
        let sim = norm_cosine_fast(row, row_norm, &centroids[j * dim..(j + 1) * dim], cn);
        // A NaN similarity is never `>`, so NaN rows stay at cell 0.
        if sim > best_sim {
            best_sim = sim;
            best = j as u32;
        }
    }
    best
}

/// Rows of independent work below which [`assign`] stays serial: the
/// scoped-thread spawn cost only pays for itself on epoch-sized inputs.
const PARALLEL_ASSIGN_MIN_ROWS: usize = 4096;

/// One assignment pass: each row goes to its [`nearest_centroid`].
///
/// Rows are independent, so the pass is chunked across threads with the
/// same contiguous-range idiom as Hogwild training (`chunks_mut` over
/// disjoint slices of the assignment table — no shared writes, no
/// reduction). Every slot's value depends only on its own row and the
/// frozen centroids, so the result is **identical** for any thread
/// count, and the centroid-mean reduction that follows in [`cluster`]
/// runs serially over rows in index order — the fixed reduction order
/// that keeps the full build deterministic and seed-reproducible.
fn assign(
    data: &[f32],
    norms: &[f32],
    dim: usize,
    centroids: &[f32],
    centroid_norms: &[f32],
    assignment: &mut [u32],
) {
    let n = assignment.len();
    let threads = std::thread::available_parallelism()
        .map(|t| t.get())
        .unwrap_or(1)
        .min(8);
    if threads <= 1 || n < PARALLEL_ASSIGN_MIN_ROWS {
        assign_range(data, norms, dim, centroids, centroid_norms, assignment, 0);
        return;
    }
    let chunk = n.div_ceil(threads);
    std::thread::scope(|scope| {
        for (t, slots) in assignment.chunks_mut(chunk).enumerate() {
            scope.spawn(move || {
                assign_range(
                    data,
                    norms,
                    dim,
                    centroids,
                    centroid_norms,
                    slots,
                    t * chunk,
                );
            });
        }
    });
}

/// Assign the rows `start..start + slots.len()` into `slots` — the
/// serial kernel both the single-threaded and the chunked pass share.
fn assign_range(
    data: &[f32],
    norms: &[f32],
    dim: usize,
    centroids: &[f32],
    centroid_norms: &[f32],
    slots: &mut [u32],
    start: usize,
) {
    for (off, slot) in slots.iter_mut().enumerate() {
        let i = start + off;
        *slot = nearest_centroid(
            &data[i * dim..(i + 1) * dim],
            norms[i],
            dim,
            centroids,
            centroid_norms,
        );
    }
}
