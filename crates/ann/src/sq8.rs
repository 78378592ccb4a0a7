//! SQ8 scalar quantization: u8-per-component posting storage.
//!
//! One affine code domain per arena (per-index min/scale): component
//! `x` is stored as `code = round((x − min) / scale)`, clamped into
//! `[0, 255]` by Rust's saturating float→int cast — NaN components map
//! to code 0 and +∞ to 255, so degenerate rows quantize without
//! panicking (their true f32 norms, cached separately, still carry the
//! NaN/inf into the similarity where the ranking contract handles it).
//!
//! The similarity scan never dequantizes per component. With
//! `qsum = Σ_j q_j` precomputed once per query,
//!
//! ```text
//! Σ_j q_j · (min + scale · code_j)  =  min · qsum + scale · Σ_j q_j · code_j
//! ```
//!
//! so one fused f32×u8 dot over the codes (8-lane chunked, the same
//! SIMD shape as `glodyne_embed::kernel::dot_fast`) plus two scalar
//! multiplies reconstructs the dot product in the dequantized domain —
//! scanning ¼ of the memory an f32 arena would. The absolute error per
//! component is bounded by `scale / 2` (round-to-nearest), which is why
//! SQ8 scans are **candidate generation only**: callers re-rank the
//! top `rerank_factor · k` codes against the exact f32 embedding (see
//! `IvfIndex::search_in`) so the served scores and the recall contract
//! come from the exact kernel, not from the quantized domain.

use glodyne_embed::kernel::LANES;

/// A flat arena of SQ8-quantized rows sharing one `min`/`scale` code
/// domain.
#[derive(Debug, Clone)]
pub struct Sq8Arena {
    /// One u8 code per component, row-major — same layout as the f32
    /// arena it replaces, at a quarter of the bytes.
    codes: Vec<u8>,
    /// Value of code 0.
    min: f32,
    /// Dequantization step between adjacent codes.
    scale: f32,
}

impl Sq8Arena {
    /// Quantize a flat row-major f32 arena. The code domain spans the
    /// finite components' `[min, max]`; an arena with no finite
    /// component (or all components equal) gets a degenerate but valid
    /// domain (`scale = 1`), never a division by zero.
    pub fn quantize(data: &[f32]) -> Sq8Arena {
        let mut lo = f32::INFINITY;
        let mut hi = f32::NEG_INFINITY;
        for &x in data {
            if x.is_finite() {
                lo = lo.min(x);
                hi = hi.max(x);
            }
        }
        if !lo.is_finite() || !hi.is_finite() {
            lo = 0.0;
            hi = 0.0;
        }
        let scale = if hi > lo { (hi - lo) / 255.0 } else { 1.0 };
        let inv = 1.0 / scale;
        let codes = data
            .iter()
            // Saturating cast: NaN → 0, out-of-range → clamped.
            .map(|&x| ((x - lo) * inv).round() as u8)
            .collect();
        Sq8Arena {
            codes,
            min: lo,
            scale,
        }
    }

    /// The arena's affine code domain as `(min, scale)`: value of code
    /// 0 and the step between adjacent codes.
    pub fn domain(&self) -> (f32, f32) {
        (self.min, self.scale)
    }

    /// The codes of row `i` for rows of width `dim`.
    #[inline]
    pub fn row(&self, i: usize, dim: usize) -> &[u8] {
        &self.codes[i * dim..(i + 1) * dim]
    }

    /// Dequantize one code back into the value domain.
    #[inline]
    pub fn dequantize(&self, code: u8) -> f32 {
        self.min + self.scale * code as f32
    }

    /// Dot product of an f32 query against quantized row `i`, in the
    /// dequantized domain: `min · qsum + scale · (q ⋅ codes)` with
    /// `qsum = Σ_j query_j` precomputed by the caller (once per query,
    /// not per row).
    #[inline]
    pub fn dot(&self, i: usize, dim: usize, query: &[f32], qsum: f32) -> f32 {
        self.min * qsum + self.scale * dot_f32_u8(query, self.row(i, dim))
    }

    /// Worst-case absolute quantization error of any finite in-range
    /// component: half a code step (round-to-nearest).
    pub fn max_component_error(&self) -> f32 {
        self.scale * 0.5
    }

    /// Heap bytes of the code arena plus the code-domain scalars.
    pub fn bytes(&self) -> usize {
        self.codes.len() + 2 * std::mem::size_of::<f32>()
    }

    /// Number of stored codes (rows × dim).
    pub fn len(&self) -> usize {
        self.codes.len()
    }

    /// Whether the arena holds no codes.
    pub fn is_empty(&self) -> bool {
        self.codes.is_empty()
    }
}

/// f32 × u8 dot product in the fast kernel's chunked shape: [`LANES`]
/// independent accumulators plus a scalar remainder, so LLVM widens the
/// u8 loads and vectorizes the multiply-adds. Approximate surfaces
/// only, like every fast-kernel reduction.
#[inline]
pub fn dot_f32_u8(query: &[f32], codes: &[u8]) -> f32 {
    debug_assert_eq!(query.len(), codes.len());
    let main = query.len() - query.len() % LANES;
    let mut acc = [0.0f32; LANES];
    for (cq, cc) in query[..main]
        .chunks_exact(LANES)
        .zip(codes[..main].chunks_exact(LANES))
    {
        for lane in 0..LANES {
            acc[lane] += cq[lane] * cc[lane] as f32;
        }
    }
    let mut tail = 0.0f32;
    for (&q, &c) in query[main..].iter().zip(&codes[main..]) {
        tail += q * c as f32;
    }
    let even = (acc[0] + acc[4]) + (acc[2] + acc[6]);
    let odd = (acc[1] + acc[5]) + (acc[3] + acc[7]);
    (even + odd) + tail
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pseudo_random(len: usize, salt: u64) -> Vec<f32> {
        let mut state = 0x9e37_79b9_7f4a_7c15u64 ^ salt;
        (0..len)
            .map(|_| {
                state = state.wrapping_mul(0xd129_42e2_96fe_94e3).wrapping_add(1);
                ((state >> 40) as f32) / 1e6 - 8.0
            })
            .collect()
    }

    #[test]
    fn round_trip_error_is_within_half_a_step() {
        for salt in 0..16u64 {
            let data = pseudo_random(257, salt);
            let arena = Sq8Arena::quantize(&data);
            let bound = arena.max_component_error() * 1.001 + 1e-6;
            for (i, &x) in data.iter().enumerate() {
                let back = arena.dequantize(arena.codes[i]);
                assert!(
                    (back - x).abs() <= bound,
                    "salt={salt} i={i} x={x} back={back} bound={bound}"
                );
            }
        }
    }

    #[test]
    fn degenerate_components_saturate_instead_of_panicking() {
        let data = [f32::NAN, f32::INFINITY, f32::NEG_INFINITY, 0.5, -0.5];
        let arena = Sq8Arena::quantize(&data);
        assert_eq!(arena.codes[0], 0, "NaN saturates to 0");
        assert_eq!(arena.codes[1], 255, "+inf saturates to 255");
        assert_eq!(arena.codes[2], 0, "-inf saturates to 0");
        // Finite components still round-trip within the bound.
        assert!(
            (arena.dequantize(arena.codes[3]) - 0.5).abs() <= arena.max_component_error() + 1e-6
        );
    }

    #[test]
    fn constant_and_empty_arenas_are_valid() {
        let arena = Sq8Arena::quantize(&[2.5; 9]);
        assert_eq!(arena.scale, 1.0, "flat data gets the degenerate domain");
        assert!(arena.codes.iter().all(|&c| c == 0));
        assert_eq!(arena.dequantize(0), 2.5);

        let empty = Sq8Arena::quantize(&[]);
        assert!(empty.is_empty());
        assert_eq!(Sq8Arena::quantize(&[f32::NAN]).codes, vec![0]);
    }

    #[test]
    fn fused_dot_matches_per_component_dequantized_dot() {
        for salt in 0..8u64 {
            for dim in [1usize, 7, 8, 9, 64, 128, 130] {
                let data = pseudo_random(dim * 3, salt);
                let arena = Sq8Arena::quantize(&data);
                let query = pseudo_random(dim, salt + 100);
                let qsum: f32 = query.iter().sum();
                for row in 0..3 {
                    let fused = arena.dot(row, dim, &query, qsum);
                    let naive: f32 = arena
                        .row(row, dim)
                        .iter()
                        .zip(&query)
                        .map(|(&c, &q)| q * arena.dequantize(c))
                        .sum();
                    let scale = naive.abs().max(1.0);
                    assert!(
                        (fused - naive).abs() / scale <= 1e-4,
                        "salt={salt} dim={dim} row={row} fused={fused} naive={naive}"
                    );
                }
            }
        }
    }

    #[test]
    fn bytes_are_one_per_component() {
        let arena = Sq8Arena::quantize(&pseudo_random(1000, 1));
        assert_eq!(arena.bytes(), 1000 + 8);
        assert_eq!(arena.len(), 1000);
    }
}
