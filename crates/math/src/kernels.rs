//! Contiguous-slice scoring kernels for the dense serving path.
//!
//! The online crowd-selection query (paper Eq. 1) scores every candidate
//! worker against one projected task: `score(w) = w^i · c^j`. Served from the
//! per-worker [`crate::Vector`] storage that means a scattered
//! dimension-checked dot product per candidate per query. These kernels
//! score rows of a row-major `W × K` slice snapshot instead; the selection
//! driver in `crowd-core` walks that snapshot in [`GEMV_BLOCK_ROWS`]-row
//! blocks so each block of skill rows streams through the cache once for
//! every query of a batch.
//!
//! Every kernel accumulates in exactly the same *fixed* order, and the serial
//! selection scorer in `crowd-core` calls [`dot`] too, so dense/pooled
//! results stay **bit-identical** to the serial f64 oracle — the property the
//! selection layer's chunk-merge correctness argument rests on (see
//! DESIGN.md §6d and §10b). Since PR 8 that fixed order is the 4-lane form
//! below, not `Vector::dot`'s strict left-to-right sum; `Vector::dot` remains
//! the training-path accumulator and is deliberately untouched.

/// Accumulator lane count for [`dot`]. Four independent f64 lanes is the
/// widest portable shape that autovectorizes to one 256-bit FMA stream on
/// x86-64 and two 128-bit streams on aarch64 without `unsafe` intrinsics.
pub const DOT_LANES: usize = 4;

/// Dot product over two equal-length slices, 4-lane fixed-reduction order.
///
/// The slices are walked in `DOT_LANES`-wide chunks; lane `l` accumulates
/// elements `l, l+4, l+8, …` and the lanes are reduced as
/// `(lane0 + lane1) + (lane2 + lane3)`, then the `< 4` tail elements are
/// added left-to-right. Breaking the single serial dependency chain lets
/// the compiler keep four FMAs in flight (SIMD or superscalar); keeping the
/// chunking, lane assignment, and reduction tree *fixed* keeps the result
/// a pure function of the inputs — every caller (serial scorer, inline
/// and pooled chunks) sees bit-identical scores. Callers guarantee
/// `a.len() == b.len()`; in debug builds this is asserted.
#[inline]
pub fn dot(a: &[f64], b: &[f64]) -> f64 {
    debug_assert_eq!(a.len(), b.len(), "kernels::dot length mismatch");
    let mut lanes = [0.0f64; DOT_LANES];
    let chunks = a.chunks_exact(DOT_LANES);
    let tail_a = chunks.remainder();
    let b_chunks = b.chunks_exact(DOT_LANES);
    let tail_b = b_chunks.remainder();
    for (ca, cb) in chunks.zip(b_chunks) {
        lanes[0] += ca[0] * cb[0];
        lanes[1] += ca[1] * cb[1];
        lanes[2] += ca[2] * cb[2];
        lanes[3] += ca[3] * cb[3];
    }
    let mut acc = (lanes[0] + lanes[1]) + (lanes[2] + lanes[3]);
    for (x, y) in tail_a.iter().zip(tail_b) {
        acc += x * y;
    }
    acc
}

/// Accumulator lane count for [`dot_f32`]: eight f32 lanes fill the same
/// 256-bit vector width as four f64 lanes.
pub const DOT_F32_LANES: usize = 8;

/// f32 dot product with an 8-lane fixed-reduction order, for the opt-in
/// f32 serving path.
///
/// Lane `l` accumulates elements `l, l+8, …`; the lanes are reduced
/// pairwise as `((l0+l1)+(l2+l3)) + ((l4+l5)+(l6+l7))`, then the `< 8`
/// tail is added left-to-right. Like [`dot`], the order is fixed so the
/// f32 path is deterministic; its *accuracy* contract relative to the f64
/// oracle is the bounded-relative-error property pinned by the
/// `f32_serving_oracle` suite (DESIGN.md §10c).
#[inline]
pub fn dot_f32(a: &[f32], b: &[f32]) -> f32 {
    debug_assert_eq!(a.len(), b.len(), "kernels::dot_f32 length mismatch");
    let mut lanes = [0.0f32; DOT_F32_LANES];
    let chunks = a.chunks_exact(DOT_F32_LANES);
    let tail_a = chunks.remainder();
    let b_chunks = b.chunks_exact(DOT_F32_LANES);
    let tail_b = b_chunks.remainder();
    for (ca, cb) in chunks.zip(b_chunks) {
        for l in 0..DOT_F32_LANES {
            lanes[l] += ca[l] * cb[l];
        }
    }
    let mut acc = ((lanes[0] + lanes[1]) + (lanes[2] + lanes[3]))
        + ((lanes[4] + lanes[5]) + (lanes[6] + lanes[7]));
    for (x, y) in tail_a.iter().zip(tail_b) {
        acc += x * y;
    }
    acc
}

/// Row block size of the dense selection driver: 64 rows × K=32 × 8 bytes
/// is 16 KiB, comfortably inside L1 together with the query vectors, and
/// 64 f64 scores fill a 512-byte stack scratch.
pub const GEMV_BLOCK_ROWS: usize = 64;

/// Optimistic (UCB-style) score for one gathered row:
/// `mean · x + beta * sqrt(max(0, Σ_k vars[k] · x[k]²))`.
///
/// The variance accumulation runs left-to-right over `k`, matching the serial
/// loop in `TdpmModel::select_top_k_optimistic_serial`, so the dense
/// optimistic path is bit-identical to the serial one.
#[inline]
pub fn ucb_score(mean_row: &[f64], var_row: &[f64], x: &[f64], beta: f64) -> f64 {
    debug_assert_eq!(mean_row.len(), x.len(), "kernels::ucb_score mean length");
    debug_assert_eq!(var_row.len(), x.len(), "kernels::ucb_score var length");
    let mean = dot(mean_row, x);
    let mut var = 0.0;
    for (v, xk) in var_row.iter().zip(x) {
        var += v * xk * xk;
    }
    mean + beta * var.max(0.0).sqrt()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Vector;

    /// Transparent reference implementation of the documented 4-lane
    /// reduction order. [`dot`] must match it bitwise on every length —
    /// this pin is what lets every consumer (serial scorer, inline and
    /// pooled chunks) claim bit-identity with each other.
    fn dot_lane_reference(a: &[f64], b: &[f64]) -> f64 {
        let mut lanes = [0.0f64; DOT_LANES];
        let n4 = (a.len() / DOT_LANES) * DOT_LANES;
        for i in (0..n4).step_by(DOT_LANES) {
            for l in 0..DOT_LANES {
                lanes[l] += a[i + l] * b[i + l];
            }
        }
        let mut acc = (lanes[0] + lanes[1]) + (lanes[2] + lanes[3]);
        for i in n4..a.len() {
            acc += a[i] * b[i];
        }
        acc
    }

    #[test]
    fn dot_matches_lane_reference_bitwise_on_every_length() {
        for n in 0..=33 {
            let a: Vec<f64> = (0..n).map(|i| (i as f64).sin() * 1e3).collect();
            let b: Vec<f64> = (0..n).map(|i| (i as f64).cos() / 7.0).collect();
            assert_eq!(
                dot(&a, &b).to_bits(),
                dot_lane_reference(&a, &b).to_bits(),
                "length {n}"
            );
        }
    }

    #[test]
    fn dot_stays_close_to_sequential_sum() {
        // The lane reduction reorders additions, so exact equality with the
        // old left-to-right sum is not expected — but on well-conditioned
        // inputs the two must agree to ~1 ulp-per-term.
        let a: Vec<f64> = (0..257).map(|i| (i as f64).sin() * 1e3).collect();
        let b: Vec<f64> = (0..257).map(|i| (i as f64).cos() / 7.0).collect();
        let va = Vector::from_vec(a.clone());
        let vb = Vector::from_vec(b.clone());
        let sequential = va.dot(&vb).unwrap();
        let laned = dot(&a, &b);
        let scale: f64 = a.iter().zip(&b).map(|(x, y)| (x * y).abs()).sum();
        assert!(
            (laned - sequential).abs() <= 1e-13 * scale.max(1.0),
            "laned={laned} sequential={sequential}"
        );
    }

    #[test]
    fn dot_f32_matches_documented_reduction_on_every_length() {
        for n in 0..=41 {
            let a: Vec<f32> = (0..n).map(|i| (i as f32).sin() * 1e2).collect();
            let b: Vec<f32> = (0..n).map(|i| (i as f32).cos() / 7.0).collect();
            // Inline reference of the documented 8-lane order.
            let mut lanes = [0.0f32; DOT_F32_LANES];
            let n8 = (n / DOT_F32_LANES) * DOT_F32_LANES;
            for i in (0..n8).step_by(DOT_F32_LANES) {
                for l in 0..DOT_F32_LANES {
                    lanes[l] += a[i + l] * b[i + l];
                }
            }
            let mut want = ((lanes[0] + lanes[1]) + (lanes[2] + lanes[3]))
                + ((lanes[4] + lanes[5]) + (lanes[6] + lanes[7]));
            for i in n8..n {
                want += a[i] * b[i];
            }
            assert_eq!(dot_f32(&a, &b).to_bits(), want.to_bits(), "length {n}");
        }
    }

    #[test]
    fn ucb_score_matches_serial_formula() {
        let mean = vec![0.2, -0.4, 1.5];
        let var = vec![0.1, 0.3, 0.0];
        let x = vec![1.0, 2.0, -1.0];
        let beta = 0.7;
        let mut v = 0.0;
        for kk in 0..3 {
            v += var[kk] * x[kk] * x[kk];
        }
        let want = dot(&mean, &x) + beta * v.max(0.0).sqrt();
        assert_eq!(ucb_score(&mean, &var, &x, beta).to_bits(), want.to_bits());
    }

    #[test]
    fn ucb_negative_variance_clamped() {
        let mean = vec![1.0];
        let var = vec![-4.0];
        let x = vec![1.0];
        assert_eq!(ucb_score(&mean, &var, &x, 1.0), 1.0);
    }
}
