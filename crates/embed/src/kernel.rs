//! The similarity kernels: one exact accumulation order, one
//! SIMD-shaped fast path.
//!
//! Every cosine-ranking surface in this workspace bottoms out in a dot
//! product. This module is their single home, split into **two
//! precisions of the same mathematical function** with an explicit
//! contract:
//!
//! - **Exact kernel** ([`dot_exact`], [`norm_cosine`], [`l2_norm`],
//!   [`cosine`]): one element-by-element left-to-right accumulation
//!   order, frozen forever. Every bit-exactness pin in the workspace —
//!   `Embedding::top_k` ≡ `reference_top_k`, full-probe IVF ≡ the
//!   linear scan, sharded fan-out ≡ the union scan — holds because all
//!   of those surfaces score candidates through *this* order. Changing
//!   it is a semver-major event.
//! - **Fast kernel** ([`dot_fast`], [`norm_cosine_fast`]): the same
//!   reduction regrouped into [`LANES`] independent accumulators plus a
//!   scalar remainder loop — the shape LLVM auto-vectorizes to packed
//!   SIMD adds/muls and that breaks the loop-carried dependency chain
//!   even without SIMD. Because float addition is not associative the
//!   fast kernel is **not** bit-identical to the exact one; it is
//!   within ~1e-5 relative error on realistic embeddings
//!   (property-pinned in this module's tests) and may differ in last
//!   bits. It must therefore only be used on surfaces that are
//!   *approximate by contract*: IVF cell ranking, partial-probe
//!   candidate scans, k-means assignment. Exact surfaces (`top_k`,
//!   exact wire `nearest`, full-probe IVF, SQ8 re-ranking) must keep
//!   calling the exact kernel.
//!
//! The flat posting-list arenas in `glodyne-ann` scan contiguous
//! `dim`-strided rows, so the fast kernel's chunked loop runs over
//! cache-line-aligned-in-practice windows with no gather — the
//! "aligned arena variant" is the same function applied to arena rows.

/// Accumulator width of the fast kernel: 8 independent f32 lanes (two
/// SSE registers, one AVX register) — enough to break the dependency
/// chain on any x86-64 baseline without spilling on narrow ISAs.
pub const LANES: usize = 8;

/// Dot product in the frozen exact accumulation order (left-to-right,
/// single accumulator) — the bit-exactness reference every equivalence
/// pin in the workspace compares against.
#[inline]
pub fn dot_exact(a: &[f32], b: &[f32]) -> f32 {
    debug_assert_eq!(a.len(), b.len());
    let mut acc = 0.0f32;
    for (&x, &y) in a.iter().zip(b) {
        acc += x * y;
    }
    acc
}

/// Dot product regrouped into [`LANES`] independent accumulators plus a
/// scalar remainder — auto-vectorizes to packed SIMD on the default
/// x86-64 target. Same function as [`dot_exact`] up to float
/// reassociation (≤ ~1e-5 relative error on realistic data, pinned in
/// tests); **not** bit-identical, so approximate surfaces only.
#[inline]
pub fn dot_fast(a: &[f32], b: &[f32]) -> f32 {
    debug_assert_eq!(a.len(), b.len());
    let main = a.len() - a.len() % LANES;
    let mut acc = [0.0f32; LANES];
    for (ca, cb) in a[..main]
        .chunks_exact(LANES)
        .zip(b[..main].chunks_exact(LANES))
    {
        for lane in 0..LANES {
            acc[lane] += ca[lane] * cb[lane];
        }
    }
    let mut tail = 0.0f32;
    for (&x, &y) in a[main..].iter().zip(&b[main..]) {
        tail += x * y;
    }
    // Pairwise lane reduction (tree order, fixed): keeps the reduction
    // deterministic across calls even though it differs from the exact
    // left-to-right order.
    let even = (acc[0] + acc[4]) + (acc[2] + acc[6]);
    let odd = (acc[1] + acc[5]) + (acc[3] + acc[7]);
    (even + odd) + tail
}

/// `N` [`dot_fast`] computations sharing one pass over `b`: each of
/// the `N` queries keeps its own [`LANES`]-lane accumulator block,
/// scalar remainder, and pairwise reduction — exactly the operation
/// sequence of a standalone `dot_fast(a[j], b)` call, so every slot of
/// the result is **bit-identical** to the corresponding single call
/// (regression-pinned in tests). What fusing buys is instruction-level
/// parallelism: `N` independent accumulation chains interleave over
/// one load of each `b` chunk, hiding the FMA latency a single chain
/// stalls on. This is the mini-kernel under `glodyne-ann`'s
/// cell-grouped batch scan, where one posting row is scored for every
/// query probing its cell.
///
/// All `N` query slices must have `b`'s length (like `dot_fast`,
/// enforced by `debug_assert` only).
#[inline]
pub fn dot_fast_multi<const N: usize>(a: [&[f32]; N], b: &[f32]) -> [f32; N] {
    // Specialized bodies for the group widths the cell-grouped scan
    // emits: the nested `chunks_exact().zip()` shape is the one idiom
    // the autovectorizer reliably turns into branch-free vector code
    // (an array of iterators or manual indexing reintroduces bounds
    // checks and spills the accumulators). Other widths fall back to
    // per-slot `dot_fast`, which is the same computation by definition.
    match N {
        2 => {
            let (d0, d1) = dot_fast_x2(a[0], a[1], b);
            let mut out = [0.0f32; N];
            out[0] = d0;
            out[1] = d1;
            out
        }
        3 => {
            let (d0, d1) = dot_fast_x2(a[0], a[1], b);
            let mut out = [0.0f32; N];
            out[0] = d0;
            out[1] = d1;
            out[2] = dot_fast(a[2], b);
            out
        }
        4 => {
            let (d0, d1, d2, d3) = dot_fast_x4(a[0], a[1], a[2], a[3], b);
            let mut out = [0.0f32; N];
            out[0] = d0;
            out[1] = d1;
            out[2] = d2;
            out[3] = d3;
            out
        }
        _ => std::array::from_fn(|j| dot_fast(a[j], b)),
    }
}

/// Finish one fused accumulator block the way `dot_fast` does: the
/// query's scalar remainder, then the fixed pairwise lane reduction.
#[inline]
fn finish_lanes(acc: &[f32; LANES], a: &[f32], b: &[f32], main: usize) -> f32 {
    let mut tail = 0.0f32;
    for (&x, &y) in a[main..].iter().zip(&b[main..]) {
        tail += x * y;
    }
    let even = (acc[0] + acc[4]) + (acc[2] + acc[6]);
    let odd = (acc[1] + acc[5]) + (acc[3] + acc[7]);
    (even + odd) + tail
}

/// Two fused [`dot_fast`] chains over one pass of `b`.
#[inline]
fn dot_fast_x2(a0: &[f32], a1: &[f32], b: &[f32]) -> (f32, f32) {
    debug_assert_eq!(a0.len(), b.len());
    debug_assert_eq!(a1.len(), b.len());
    #[cfg(target_arch = "x86_64")]
    if std::arch::is_x86_feature_detected!("avx") {
        // SAFETY: the `avx` feature was just detected at runtime.
        return unsafe { dot_fast_x2_avx(a0, a1, b) };
    }
    let main = b.len() - b.len() % LANES;
    let mut acc0 = [0.0f32; LANES];
    let mut acc1 = [0.0f32; LANES];
    for ((c0, c1), cb) in a0[..main]
        .chunks_exact(LANES)
        .zip(a1[..main].chunks_exact(LANES))
        .zip(b[..main].chunks_exact(LANES))
    {
        for lane in 0..LANES {
            acc0[lane] += c0[lane] * cb[lane];
            acc1[lane] += c1[lane] * cb[lane];
        }
    }
    (
        finish_lanes(&acc0, a0, b, main),
        finish_lanes(&acc1, a1, b, main),
    )
}

/// AVX body of [`dot_fast_x2`]. One 8-lane `vmulps` + `vaddps` pair
/// per query per chunk — the exact per-lane IEEE operations of the
/// scalar loop (deliberately *not* FMA, which would fuse the rounding
/// step and break bit-identity with [`dot_fast`]) — so results stay
/// bit-identical to the portable path on every platform.
///
/// # Safety
/// Caller must ensure the `avx` target feature is available.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx")]
unsafe fn dot_fast_x2_avx(a0: &[f32], a1: &[f32], b: &[f32]) -> (f32, f32) {
    use std::arch::x86_64::*;
    let main = b.len() - b.len() % LANES;
    let mut v0 = _mm256_setzero_ps();
    let mut v1 = _mm256_setzero_ps();
    let mut i = 0;
    while i < main {
        // SAFETY: `i + LANES <= main <= len` of every slice, checked
        // by the debug asserts in the caller and the loop bound.
        unsafe {
            let cb = _mm256_loadu_ps(b.as_ptr().add(i));
            v0 = _mm256_add_ps(v0, _mm256_mul_ps(_mm256_loadu_ps(a0.as_ptr().add(i)), cb));
            v1 = _mm256_add_ps(v1, _mm256_mul_ps(_mm256_loadu_ps(a1.as_ptr().add(i)), cb));
        }
        i += LANES;
    }
    let mut acc0 = [0.0f32; LANES];
    let mut acc1 = [0.0f32; LANES];
    // SAFETY: `[f32; LANES]` holds exactly one 256-bit vector.
    unsafe {
        _mm256_storeu_ps(acc0.as_mut_ptr(), v0);
        _mm256_storeu_ps(acc1.as_mut_ptr(), v1);
    }
    (
        finish_lanes(&acc0, a0, b, main),
        finish_lanes(&acc1, a1, b, main),
    )
}

/// Four fused [`dot_fast`] chains over one pass of `b`.
#[inline]
fn dot_fast_x4(a0: &[f32], a1: &[f32], a2: &[f32], a3: &[f32], b: &[f32]) -> (f32, f32, f32, f32) {
    debug_assert_eq!(a0.len(), b.len());
    debug_assert_eq!(a1.len(), b.len());
    debug_assert_eq!(a2.len(), b.len());
    debug_assert_eq!(a3.len(), b.len());
    #[cfg(target_arch = "x86_64")]
    if std::arch::is_x86_feature_detected!("avx") {
        // SAFETY: the `avx` feature was just detected at runtime.
        return unsafe { dot_fast_x4_avx(a0, a1, a2, a3, b) };
    }
    let main = b.len() - b.len() % LANES;
    let mut acc0 = [0.0f32; LANES];
    let mut acc1 = [0.0f32; LANES];
    let mut acc2 = [0.0f32; LANES];
    let mut acc3 = [0.0f32; LANES];
    for ((((c0, c1), c2), c3), cb) in a0[..main]
        .chunks_exact(LANES)
        .zip(a1[..main].chunks_exact(LANES))
        .zip(a2[..main].chunks_exact(LANES))
        .zip(a3[..main].chunks_exact(LANES))
        .zip(b[..main].chunks_exact(LANES))
    {
        for lane in 0..LANES {
            acc0[lane] += c0[lane] * cb[lane];
            acc1[lane] += c1[lane] * cb[lane];
            acc2[lane] += c2[lane] * cb[lane];
            acc3[lane] += c3[lane] * cb[lane];
        }
    }
    (
        finish_lanes(&acc0, a0, b, main),
        finish_lanes(&acc1, a1, b, main),
        finish_lanes(&acc2, a2, b, main),
        finish_lanes(&acc3, a3, b, main),
    )
}

/// AVX body of [`dot_fast_x4`] — see [`dot_fast_x2_avx`] for why this
/// is mul+add rather than FMA and why it is bit-identical to the
/// portable path.
///
/// # Safety
/// Caller must ensure the `avx` target feature is available.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx")]
unsafe fn dot_fast_x4_avx(
    a0: &[f32],
    a1: &[f32],
    a2: &[f32],
    a3: &[f32],
    b: &[f32],
) -> (f32, f32, f32, f32) {
    use std::arch::x86_64::*;
    let main = b.len() - b.len() % LANES;
    let mut v0 = _mm256_setzero_ps();
    let mut v1 = _mm256_setzero_ps();
    let mut v2 = _mm256_setzero_ps();
    let mut v3 = _mm256_setzero_ps();
    let mut i = 0;
    while i < main {
        // SAFETY: `i + LANES <= main <= len` of every slice, checked
        // by the debug asserts in the caller and the loop bound.
        unsafe {
            let cb = _mm256_loadu_ps(b.as_ptr().add(i));
            v0 = _mm256_add_ps(v0, _mm256_mul_ps(_mm256_loadu_ps(a0.as_ptr().add(i)), cb));
            v1 = _mm256_add_ps(v1, _mm256_mul_ps(_mm256_loadu_ps(a1.as_ptr().add(i)), cb));
            v2 = _mm256_add_ps(v2, _mm256_mul_ps(_mm256_loadu_ps(a2.as_ptr().add(i)), cb));
            v3 = _mm256_add_ps(v3, _mm256_mul_ps(_mm256_loadu_ps(a3.as_ptr().add(i)), cb));
        }
        i += LANES;
    }
    let mut acc0 = [0.0f32; LANES];
    let mut acc1 = [0.0f32; LANES];
    let mut acc2 = [0.0f32; LANES];
    let mut acc3 = [0.0f32; LANES];
    // SAFETY: `[f32; LANES]` holds exactly one 256-bit vector.
    unsafe {
        _mm256_storeu_ps(acc0.as_mut_ptr(), v0);
        _mm256_storeu_ps(acc1.as_mut_ptr(), v1);
        _mm256_storeu_ps(acc2.as_mut_ptr(), v2);
        _mm256_storeu_ps(acc3.as_mut_ptr(), v3);
    }
    (
        finish_lanes(&acc0, a0, b, main),
        finish_lanes(&acc1, a1, b, main),
        finish_lanes(&acc2, a2, b, main),
        finish_lanes(&acc3, a3, b, main),
    )
}

/// Exact logistic function, stable on both tails.
#[inline]
pub(crate) fn sigmoid32(x: f32) -> f32 {
    if x >= 0.0 {
        1.0 / (1.0 + (-x).exp())
    } else {
        let e = x.exp();
        e / (1.0 + e)
    }
}

const SIGMOID_TABLE_SIZE: usize = 1024;
const SIGMOID_MAX_X: f32 = 6.0;

/// word2vec's EXP_TABLE: σ precomputed over `[-6, 6]` at bucket
/// midpoints. σ saturates to within 2.5e-3 of {0, 1} outside the range,
/// and the ~1e-2 in-range quantisation is far below SGD's noise floor.
static SIGMOID_TABLE: std::sync::LazyLock<[f32; SIGMOID_TABLE_SIZE]> =
    std::sync::LazyLock::new(|| {
        std::array::from_fn(|i| {
            let x = ((i as f32 + 0.5) / SIGMOID_TABLE_SIZE as f32) * (2.0 * SIGMOID_MAX_X)
                - SIGMOID_MAX_X;
            sigmoid32(x)
        })
    });

/// Table-lookup sigmoid for the training hot loop.
#[inline]
pub(crate) fn sigmoid_table(x: f32) -> f32 {
    if x >= SIGMOID_MAX_X {
        1.0
    } else if x <= -SIGMOID_MAX_X {
        0.0
    } else {
        let scale = SIGMOID_TABLE_SIZE as f32 / (2.0 * SIGMOID_MAX_X);
        // The `.min` is load-bearing: for the largest f32 below 6.0,
        // `x + 6.0` rounds up to exactly 12.0 and would index one past
        // the table.
        SIGMOID_TABLE[(((x + SIGMOID_MAX_X) * scale) as usize).min(SIGMOID_TABLE_SIZE - 1)]
    }
}

/// One SGNS pair update (Eq. 9's gradient step for one `(centre,
/// target)` sample): `g = (label − σ(centre · target)) · lr`, then
/// element-wise `grad += g · target` (the centre's accumulated step,
/// applied by the caller once all of the pair's targets are done) and
/// `target += g · centre`, each `grad[i]` reading `target[i]` *before*
/// it moves. The dot is [`dot_fast`] — the 8-lane order, not a scalar
/// dependency chain — and σ is the 1024-bucket table word2vec uses, so
/// the whole body is `dot_fast` plus two loops LLVM vectorises. Where
/// AVX is detected at run time an intrinsics body does the same
/// operations eight lanes at a time; a unit test pins both bodies bit
/// for bit against the sequence written out.
///
/// `label` is 1 for the positive sample and 0 for a negative. All three
/// slices must have the same length (`debug_assert` only, like the
/// dots; a shorter `target` or `grad` panics or is updated short, never
/// read out of bounds).
#[inline]
pub fn sgns_pair(centre: &[f32], target: &mut [f32], grad: &mut [f32], label: f32, lr: f32) {
    debug_assert_eq!(centre.len(), target.len());
    debug_assert_eq!(centre.len(), grad.len());
    #[cfg(target_arch = "x86_64")]
    if std::arch::is_x86_feature_detected!("avx") {
        // SAFETY: the `avx` feature was just detected at runtime.
        return unsafe { sgns_pair_avx(centre, target, grad, label, lr) };
    }
    sgns_pair_portable(centre, target, grad, label, lr);
}

/// Portable body of [`sgns_pair`], and its definition.
#[inline]
fn sgns_pair_portable(centre: &[f32], target: &mut [f32], grad: &mut [f32], label: f32, lr: f32) {
    let g = (label - sigmoid_table(dot_fast(centre, target))) * lr;
    for ((acc, t), &c) in grad.iter_mut().zip(target.iter_mut()).zip(centre) {
        *acc += g * *t;
        *t += g * c;
    }
}

/// AVX body of [`sgns_pair`]: the dot's eight lanes are one `vmulps` +
/// `vaddps` per chunk and the two updates one each — the exact
/// per-lane IEEE operations of the portable loops (not FMA, see
/// [`dot_fast_x2_avx`]), finished by the same [`finish_lanes`]
/// reduction, so every written float is bit-identical to
/// [`sgns_pair_portable`]'s (pinned in tests). Shipped on evidence:
/// on the paper profile it trains 1.35–1.5× the pairs per second of
/// the portable body built for baseline x86-64 (SSE2), and the
/// end-to-end `freshness_ms` followed.
///
/// # Safety
/// Caller must ensure the `avx` target feature is available.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx")]
unsafe fn sgns_pair_avx(centre: &[f32], target: &mut [f32], grad: &mut [f32], label: f32, lr: f32) {
    use std::arch::x86_64::*;
    let main = centre.len() - centre.len() % LANES;
    let mut dot = _mm256_setzero_ps();
    for (c, t) in centre[..main]
        .chunks_exact(LANES)
        .zip(target[..main].chunks_exact(LANES))
    {
        // SAFETY: `chunks_exact(LANES)` yields slices of exactly
        // `LANES` floats, one unaligned 256-bit load each.
        unsafe {
            let prod = _mm256_mul_ps(_mm256_loadu_ps(c.as_ptr()), _mm256_loadu_ps(t.as_ptr()));
            dot = _mm256_add_ps(dot, prod);
        }
    }
    let mut acc = [0.0f32; LANES];
    // SAFETY: `[f32; LANES]` holds exactly one 256-bit vector.
    unsafe { _mm256_storeu_ps(acc.as_mut_ptr(), dot) };
    let g = (label - sigmoid_table(finish_lanes(&acc, centre, target, main))) * lr;

    let gv = _mm256_set1_ps(g);
    for ((a, t), c) in grad[..main]
        .chunks_exact_mut(LANES)
        .zip(target[..main].chunks_exact_mut(LANES))
        .zip(centre[..main].chunks_exact(LANES))
    {
        // SAFETY: as above — every chunk is `LANES` floats, loaded and
        // stored whole; `a`, `t` and `c` come from three distinct
        // slices.
        unsafe {
            let tv = _mm256_loadu_ps(t.as_ptr());
            let av = _mm256_add_ps(_mm256_loadu_ps(a.as_ptr()), _mm256_mul_ps(gv, tv));
            _mm256_storeu_ps(a.as_mut_ptr(), av);
            let cv = _mm256_loadu_ps(c.as_ptr());
            _mm256_storeu_ps(t.as_mut_ptr(), _mm256_add_ps(tv, _mm256_mul_ps(gv, cv)));
        }
    }
    for ((acc, t), &c) in grad[main..]
        .iter_mut()
        .zip(target[main..].iter_mut())
        .zip(&centre[main..])
    {
        *acc += g * *t;
        *t += g * c;
    }
}

/// L2 norm with the one accumulation order every norm cache in this
/// workspace shares (sum of squares, then one sqrt): the norms stored
/// by `Embedding::set` and the ones `glodyne-ann` caches per posting
/// list agree bit-for-bit because both come from here.
#[inline]
pub fn l2_norm(v: &[f32]) -> f32 {
    v.iter().map(|&x| x * x).sum::<f32>().sqrt()
}

/// Guarded cosine similarity from precomputed norms — the shared
/// **exact** candidate kernel of `Embedding::top_k` and the full-probe
/// IVF scans in `glodyne-ann`: zero-norm operands score 0 (never a
/// division by zero), NaN operands propagate NaN. Keeping it
/// single-homed is what makes full-probe IVF results bit-exact with
/// the linear scan.
#[inline]
pub fn norm_cosine(a: &[f32], an: f32, b: &[f32], bn: f32) -> f32 {
    if an == 0.0 || bn == 0.0 {
        0.0
    } else {
        dot_exact(a, b) / (an * bn)
    }
}

/// [`norm_cosine`] through the fast kernel — same zero-norm and NaN
/// behaviour, reassociated accumulation. Approximate surfaces only
/// (IVF cell ranking, partial-probe scans, k-means assignment).
#[inline]
pub fn norm_cosine_fast(a: &[f32], an: f32, b: &[f32], bn: f32) -> f32 {
    if an == 0.0 || bn == 0.0 {
        0.0
    } else {
        dot_fast(a, b) / (an * bn)
    }
}

/// [`norm_cosine_fast`] with the `1/(an·bn)` factor precomputed by the
/// caller: the hot partial-probe scan multiplies each row's dot by a
/// cached reciprocal instead of dividing per row (a divide per
/// candidate is measurable at scan bandwidth). The caller owns the
/// zero-norm guard by storing `scale = 0` for zero-norm rows — the
/// product is then exactly 0, matching [`norm_cosine_fast`]; NaN dots
/// still propagate. Approximate surfaces only: reciprocal-multiply
/// rounds differently from the divide.
#[inline]
pub fn scaled_dot_fast(a: &[f32], b: &[f32], scale: f32) -> f32 {
    dot_fast(a, b) * scale
}

/// Cosine similarity of two equal-length vectors (0 for zero vectors),
/// delegating to [`dot_exact`] + [`l2_norm`] so there is exactly one
/// accumulation order per precision. Bit-exact with the historical
/// fused loop: that loop accumulated `dot`, `Σa²`, and `Σb²` each in
/// element order with independent accumulators — precisely what the
/// three delegated calls compute — and `sqrt(Σx²) == 0` iff `Σx² == 0`,
/// so the zero-vector guard is unchanged (regression-pinned in tests).
pub fn cosine(a: &[f32], b: &[f32]) -> f32 {
    debug_assert_eq!(a.len(), b.len());
    let na = l2_norm(a);
    let nb = l2_norm(b);
    if na == 0.0 || nb == 0.0 {
        0.0
    } else {
        dot_exact(a, b) / (na * nb)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The workspace's SplitMix mixing recipe, for deterministic
    /// pseudo-random test vectors.
    fn pseudo_random(len: usize, salt: u64) -> Vec<f32> {
        let mut state = 0x9e37_79b9_7f4a_7c15u64 ^ salt;
        (0..len)
            .map(|_| {
                state = state.wrapping_mul(0xd129_42e2_96fe_94e3).wrapping_add(1);
                ((state >> 40) as f32) / 1e6 - 8.0
            })
            .collect()
    }

    /// The fused dot/norm/norm loop `cosine` shipped with before it was
    /// collapsed onto the shared kernel — kept verbatim as the
    /// regression reference.
    fn cosine_old_fused(a: &[f32], b: &[f32]) -> f32 {
        let mut dot = 0.0f32;
        let mut na = 0.0f32;
        let mut nb = 0.0f32;
        for (&x, &y) in a.iter().zip(b) {
            dot += x * y;
            na += x * x;
            nb += y * y;
        }
        if na == 0.0 || nb == 0.0 {
            0.0
        } else {
            dot / (na.sqrt() * nb.sqrt())
        }
    }

    #[test]
    fn cosine_is_bit_exact_with_the_old_fused_loop() {
        for salt in 0..32u64 {
            for dim in [1usize, 2, 7, 8, 9, 16, 64, 128, 129] {
                let a = pseudo_random(dim, salt * 2 + 1);
                let b = pseudo_random(dim, salt * 2 + 2);
                assert_eq!(
                    cosine(&a, &b).to_bits(),
                    cosine_old_fused(&a, &b).to_bits(),
                    "salt={salt} dim={dim}"
                );
            }
        }
        // Zero-vector guard and degenerate inputs behave identically.
        let z = vec![0.0f32; 8];
        let v = pseudo_random(8, 9);
        assert_eq!(cosine(&z, &v).to_bits(), cosine_old_fused(&z, &v).to_bits());
        assert_eq!(cosine(&v, &z).to_bits(), cosine_old_fused(&v, &z).to_bits());
        let mut n = v.clone();
        n[3] = f32::NAN;
        assert_eq!(
            cosine(&n, &v).is_nan(),
            cosine_old_fused(&n, &v).is_nan(),
            "NaN propagates in both"
        );
    }

    #[test]
    fn fast_dot_is_within_1e5_relative_of_exact() {
        for salt in 0..64u64 {
            for dim in [1usize, 3, 7, 8, 9, 15, 16, 17, 31, 64, 127, 128, 200] {
                // Mixed-sign vectors: heavy cancellation makes the raw
                // dot an unstable scale, so bound the error relative to
                // ‖a‖·‖b‖ — the denominator every cosine divides by,
                // i.e. a ≤1e-5 error in similarity space.
                let a = pseudo_random(dim, salt * 2 + 100);
                let b = pseudo_random(dim, salt * 2 + 101);
                let exact = dot_exact(&a, &b);
                let fast = dot_fast(&a, &b);
                let scale = (l2_norm(&a) * l2_norm(&b)).max(1.0);
                assert!(
                    (fast - exact).abs() / scale <= 1e-5,
                    "salt={salt} dim={dim} exact={exact} fast={fast}"
                );
                // Non-cancelling vectors (all-positive): the dot itself
                // is a stable scale, so the plain relative error must
                // also sit within 1e-5.
                let ap: Vec<f32> = a.iter().map(|x| x.abs() + 0.125).collect();
                let bp: Vec<f32> = b.iter().map(|x| x.abs() + 0.125).collect();
                let exact = dot_exact(&ap, &bp);
                let fast = dot_fast(&ap, &bp);
                assert!(
                    (fast - exact).abs() / exact.abs().max(1.0) <= 1e-5,
                    "positive case salt={salt} dim={dim} exact={exact} fast={fast}"
                );
            }
        }
    }

    #[test]
    fn fast_dot_handles_every_remainder_length() {
        // Ones-dot-ones counts elements exactly in both kernels, so any
        // dropped or double-counted tail shows up as an integer error.
        for dim in 0..40usize {
            let a = vec![1.0f32; dim];
            assert_eq!(dot_fast(&a, &a), dim as f32);
            assert_eq!(dot_exact(&a, &a), dim as f32);
        }
    }

    #[test]
    fn fast_norm_cosine_matches_guards() {
        let v = pseudo_random(16, 5);
        let n = l2_norm(&v);
        assert_eq!(norm_cosine_fast(&v, 0.0, &v, n), 0.0);
        assert_eq!(norm_cosine_fast(&v, n, &v, 0.0), 0.0);
        let exact = norm_cosine(&v, n, &v, n);
        let fast = norm_cosine_fast(&v, n, &v, n);
        assert!((exact - fast).abs() <= 1e-5);
        assert!((exact - 1.0).abs() <= 1e-5, "self-similarity is 1");
    }

    #[test]
    fn empty_and_zero_length_inputs() {
        assert_eq!(dot_fast(&[], &[]), 0.0);
        assert_eq!(dot_exact(&[], &[]), 0.0);
        assert_eq!(cosine(&[], &[]), 0.0);
        assert_eq!(l2_norm(&[]), 0.0);
    }

    #[test]
    fn fused_multi_dot_is_bit_identical_to_single_calls() {
        // The fused kernel's whole contract: each slot IS dot_fast for
        // that query, to the last bit, at every width and remainder.
        for dim in [0usize, 1, 7, 8, 9, 16, 33, 128] {
            let b = pseudo_random(dim, 99);
            let qs: Vec<Vec<f32>> = (0..4).map(|s| pseudo_random(dim, s)).collect();
            let quad = dot_fast_multi::<4>([&qs[0], &qs[1], &qs[2], &qs[3]], &b);
            let pair = dot_fast_multi::<2>([&qs[0], &qs[1]], &b);
            let one = dot_fast_multi::<1>([&qs[2]], &b);
            for j in 0..4 {
                assert_eq!(
                    quad[j].to_bits(),
                    dot_fast(&qs[j], &b).to_bits(),
                    "dim={dim} j={j}"
                );
            }
            assert_eq!(pair[0].to_bits(), dot_fast(&qs[0], &b).to_bits());
            assert_eq!(pair[1].to_bits(), dot_fast(&qs[1], &b).to_bits());
            assert_eq!(one[0].to_bits(), dot_fast(&qs[2], &b).to_bits());
        }
    }

    #[test]
    fn sgns_pair_is_dot_fast_plus_the_updates_written_out() {
        for dim in [1usize, 7, 8, 9, 64, 128] {
            for salt in 0..24u64 {
                // Scales from "σ saturated" down to "σ mid-table", both
                // labels, and a gradient accumulator already in use.
                let scale = [1.0f32, 0.1, 0.02][salt as usize % 3];
                let centre: Vec<f32> = pseudo_random(dim, salt * 3 + 1)
                    .iter()
                    .map(|x| x * scale)
                    .collect();
                let target: Vec<f32> = pseudo_random(dim, salt * 3 + 2)
                    .iter()
                    .map(|x| x * scale)
                    .collect();
                let grad = pseudo_random(dim, salt * 3 + 3);
                let (label, lr) = ((salt % 2) as f32, 0.025 + salt as f32 * 1e-3);

                let g = (label - sigmoid_table(dot_fast(&centre, &target))) * lr;
                let mut want_grad = grad.clone();
                let mut want_target = target.clone();
                for i in 0..dim {
                    want_grad[i] += g * want_target[i];
                    want_target[i] += g * centre[i];
                }

                type Body = fn(&[f32], &mut [f32], &mut [f32], f32, f32);
                for (name, body) in [
                    ("dispatched", sgns_pair as Body),
                    ("portable", sgns_pair_portable as Body),
                ] {
                    let (mut got_target, mut got_grad) = (target.clone(), grad.clone());
                    body(&centre, &mut got_target, &mut got_grad, label, lr);
                    let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
                    assert_eq!(
                        bits(&got_target),
                        bits(&want_target),
                        "{name} dim={dim} salt={salt}"
                    );
                    assert_eq!(
                        bits(&got_grad),
                        bits(&want_grad),
                        "{name} dim={dim} salt={salt}"
                    );
                }
            }
        }
    }

    #[test]
    fn sigmoid_table_is_monotone_and_saturates() {
        assert_eq!(sigmoid_table(6.0), 1.0);
        assert_eq!(sigmoid_table(-6.0), 0.0);
        // The largest f32 below 6 rounds `x + 6` up to 12: last bucket,
        // not one past it.
        assert!(sigmoid_table(f32::from_bits(6.0f32.to_bits() - 1)) > 0.99);
        let mut last = 0.0;
        for i in -600..=600 {
            let y = sigmoid_table(i as f32 / 100.0);
            assert!(y >= last && (y - sigmoid32(i as f32 / 100.0)).abs() < 1e-2);
            last = y;
        }
    }
}
