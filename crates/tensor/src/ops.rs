//! Numeric kernels: elementwise ops, matmul variants, row reductions.
//!
//! The arithmetic runs on the SIMD micro-kernel layer ([`crate::simd`]),
//! whose backends are bit-identical by construction.

use crate::simd;
use crate::tensor::Tensor;

// ----------------------------------------------------------------------
// Slice-level primitives (used by higher-level crates directly on weight
// buffers, without wrapping them in tensors)
// ----------------------------------------------------------------------

pub use crate::simd::{axpby, axpy, dist_sq, dot, scale};

/// The FedAsync server mixing step `w ← (1−α)·w + α·w_client`, in place.
pub use crate::simd::lerp as lerp_into;

// ----------------------------------------------------------------------
// Elementwise tensor ops
// ----------------------------------------------------------------------

impl Tensor {
    /// Elementwise sum.
    pub fn add(&self, other: &Tensor) -> Tensor {
        self.zip(other, |a, b| a + b)
    }

    /// Elementwise difference.
    pub fn sub(&self, other: &Tensor) -> Tensor {
        self.zip(other, |a, b| a - b)
    }

    /// Elementwise (Hadamard) product.
    pub fn mul(&self, other: &Tensor) -> Tensor {
        self.zip(other, |a, b| a * b)
    }

    /// Scalar multiple.
    pub fn scale(&self, alpha: f32) -> Tensor {
        self.map(|x| alpha * x)
    }

    /// In-place `self += alpha * other`.
    pub fn axpy_inplace(&mut self, alpha: f32, other: &Tensor) {
        self.assert_same_shape(other);
        axpy(alpha, other.data(), self.data_mut());
    }
}

// ----------------------------------------------------------------------
// Matrix multiplication variants
// ----------------------------------------------------------------------

/// Checks and returns `(m, k, n)` for `C[m,n] = A[m,k] · B[k,n]`.
fn mm_dims(a: &Tensor, b: &Tensor) -> (usize, usize, usize) {
    let (m, k) = a.shape().as_matrix();
    let (k2, n) = b.shape().as_matrix();
    assert_eq!(
        k,
        k2,
        "matmul inner-dim mismatch: {:?} · {:?}",
        a.dims(),
        b.dims()
    );
    (m, k, n)
}

impl Tensor {
    /// `C = A · B` for matrix-like tensors.
    ///
    /// The output storage comes from the scratch arena; recycle it when it
    /// dies to keep training loops allocation-free.
    pub fn matmul(&self, b: &Tensor) -> Tensor {
        let (m, k, n) = mm_dims(self, b);
        let mut out = Tensor::zeros_scratch(&[m, n]);
        matmul_into(self.data(), b.data(), out.data_mut(), m, k, n);
        out
    }

    /// `C = Aᵀ · B` where `self` is `[k, m]` and `b` is `[k, n]`.
    ///
    /// Used for weight gradients: `dW = Xᵀ · dY`.
    pub fn matmul_tn(&self, b: &Tensor) -> Tensor {
        let (k, m) = self.shape().as_matrix();
        let (k2, n) = b.shape().as_matrix();
        assert_eq!(k, k2, "matmul_tn inner-dim mismatch");
        let mut out = Tensor::zeros_scratch(&[m, n]);
        matmul_tn_into(self.data(), b.data(), out.data_mut(), m, k, n);
        out
    }

    /// `C = A · Bᵀ` where `self` is `[m, k]` and `b` is `[n, k]`.
    ///
    /// Used for input gradients: `dX = dY · Wᵀ`.
    pub fn matmul_nt(&self, b: &Tensor) -> Tensor {
        let (m, k) = self.shape().as_matrix();
        let (n, k2) = b.shape().as_matrix();
        assert_eq!(k, k2, "matmul_nt inner-dim mismatch");
        let mut out = Tensor::zeros_scratch(&[m, n]);
        matmul_nt_into(self.data(), b.data(), out.data_mut(), m, k, n);
        out
    }
}

/// `C[m,n] += A[m,k] · B[k,n]` on raw row-major slices.
///
/// Runs the register-blocked micro-kernel ([`simd::matmul_block`]), which
/// also backs the TN/NT variants and the im2col conv stage.
pub fn matmul_into(a: &[f32], b: &[f32], c: &mut [f32], m: usize, k: usize, n: usize) {
    assert_eq!(a.len(), m * k);
    assert_eq!(b.len(), k * n);
    assert_eq!(c.len(), m * n);
    simd::matmul_block(simd::Lhs::RowMajor(a, k), b, c, k, n);
}

/// `C[m,n] += Aᵀ · B` with `A[k,m]`, `B[k,n]`, on raw slices.
///
/// The micro-kernel reads `A` transposed in place (`Lhs::ColMajor` — the
/// `A` access is a scalar broadcast either way), so no `Aᵀ` is ever
/// materialized. Accumulation over `p` stays in ascending order for every
/// output element, exactly as the seed's `pij` loop.
pub fn matmul_tn_into(a: &[f32], b: &[f32], c: &mut [f32], m: usize, k: usize, n: usize) {
    assert_eq!(a.len(), k * m);
    assert_eq!(b.len(), k * n);
    assert_eq!(c.len(), m * n);
    simd::matmul_block(simd::Lhs::ColMajor(a, m), b, c, k, n);
}

/// `C[m,n] += A · Bᵀ` with `A[m,k]`, `B[n,k]`, on raw slices.
///
/// Materializes `Bᵀ` into a scratch-arena buffer once, then runs the same
/// cache-friendly vectorizable `ikj` kernel as [`matmul_into`]. Both
/// `dX = dY·Wᵀ` and the conv weight gradient land here, so this sits on
/// every backward pass.
pub fn matmul_nt_into(a: &[f32], b: &[f32], c: &mut [f32], m: usize, k: usize, n: usize) {
    assert_eq!(a.len(), m * k);
    assert_eq!(b.len(), n * k);
    assert_eq!(c.len(), m * n);
    // bt[p, j] = b[j, p] via the cache-blocked transpose. No zero-fill —
    // the transpose writes every element of the spare capacity exactly once.
    let mut bt = crate::scratch::take_empty(k * n);
    simd::transpose_uninit(b, &mut bt.spare_capacity_mut()[..k * n], n, k);
    // SAFETY: capacity ≥ k*n by `take_empty`, and every element of the
    // prefix was just initialized by the transpose.
    unsafe { bt.set_len(k * n) };
    simd::matmul_block(simd::Lhs::RowMajor(a, k), &bt, c, k, n);
    crate::scratch::recycle(bt);
}

// ----------------------------------------------------------------------
// Row-wise operations (batch dimension first)
// ----------------------------------------------------------------------

impl Tensor {
    /// Adds a bias row vector to every row.
    ///
    /// # Panics
    /// Panics if `bias.len()` differs from the column count.
    pub fn add_row_bias(&mut self, bias: &Tensor) {
        let (_, cols) = self.shape().as_matrix();
        assert_eq!(bias.len(), cols, "bias length mismatch");
        let b = bias.data();
        for row in self.data_mut().chunks_mut(cols) {
            simd::add_assign(row, b);
        }
    }

    /// Sums rows into a single row vector (the bias-gradient reduction).
    /// The output storage comes from the scratch arena.
    pub fn sum_rows(&self) -> Tensor {
        let (_, cols) = self.shape().as_matrix();
        let mut out = crate::scratch::take_zeroed(cols);
        self.add_rows_into(&mut out);
        Tensor::from_vec(out, &[cols])
    }

    /// Adds every row, first to last, onto `acc` — [`Self::sum_rows`]
    /// straight into a gradient that is zero at rest.
    ///
    /// # Panics
    /// Panics if `acc.len()` differs from the column count.
    pub fn add_rows_into(&self, acc: &mut [f32]) {
        let (_, cols) = self.shape().as_matrix();
        assert_eq!(acc.len(), cols, "row accumulator length mismatch");
        for row in self.data().chunks_exact(cols) {
            simd::add_assign(acc, row);
        }
    }

    /// Per-row argmax (predicted class per sample).
    pub fn argmax_rows(&self) -> Vec<usize> {
        let (rows, cols) = self.shape().as_matrix();
        (0..rows)
            .map(|r| {
                let row = &self.data()[r * cols..(r + 1) * cols];
                let mut best = 0usize;
                for (i, &v) in row.iter().enumerate().skip(1) {
                    if v > row[best] {
                        best = i;
                    }
                }
                best
            })
            .collect()
    }

    /// Numerically-stable row softmax.
    pub fn softmax_rows(&self) -> Tensor {
        let (rows, cols) = self.shape().as_matrix();
        let mut out = self.clone();
        for r in 0..rows {
            let row = &mut out.data_mut()[r * cols..(r + 1) * cols];
            softmax_inplace(row);
        }
        out
    }
}

/// Numerically-stable in-place softmax of one row.
pub fn softmax_inplace(row: &mut [f32]) {
    let max = row.iter().copied().fold(f32::NEG_INFINITY, f32::max);
    let mut sum = 0.0f32;
    for v in row.iter_mut() {
        *v = (*v - max).exp();
        sum += *v;
    }
    let inv = 1.0 / sum;
    simd::scale(row, inv);
}

/// Shard length (f32 elements) of the sharded aggregation kernels: 16 KiB
/// keeps an output shard L1-resident while the whole input cohort streams
/// through it.
pub const AGG_SHARD: usize = 4096;

/// Weighted average of several equally-shaped slices into `out`.
///
/// `out[i] = Σ_j weights[j] · inputs[j][i]`. This is the FedAvg/FedAT
/// aggregation primitive; weights need not sum to 1 (callers normalize).
///
/// The model dimension is walked in [`AGG_SHARD`]-element shards, and each
/// shard accumulates input-by-input with a vectorizable axpy. Every element
/// accumulates in input order starting from 0.0 — exactly the per-element
/// sum `Σ_j weights[j] · inputs[j][i]` evaluated left to right.
///
/// # Panics
/// Panics if lengths are inconsistent or no inputs are given.
pub fn weighted_sum_into(inputs: &[&[f32]], weights: &[f32], out: &mut [f32]) {
    assert!(
        !inputs.is_empty(),
        "weighted_sum_into needs at least one input"
    );
    assert_eq!(
        inputs.len(),
        weights.len(),
        "inputs/weights length mismatch"
    );
    for input in inputs {
        assert_eq!(input.len(), out.len(), "input length mismatch");
    }
    for (s, shard) in out.chunks_mut(AGG_SHARD).enumerate() {
        let start = s * AGG_SHARD;
        let end = start + shard.len();
        // The first input initializes the shard as `0.0 + w·x`, so a -0.0
        // product lands as +0.0 exactly like the per-element sum
        // (`0.0 + -0.0 == 0.0`).
        simd::wsum_first(shard, &inputs[0][start..end], weights[0]);
        for (input, &w) in inputs.iter().zip(weights.iter()).skip(1) {
            simd::axpy(w, &input[start..end], shard);
        }
    }
}

/// Selects the per-coordinate order statistic taken by [`robust_reduce_into`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RobustRule {
    /// Drop the `trim` smallest and `trim` largest values at each coordinate
    /// and average the rest (requires `2 * trim < k`).
    TrimmedMean {
        /// Values trimmed from *each* end of the sorted column.
        trim: usize,
    },
    /// The per-coordinate median; even counts average the two middle values.
    Median,
}

/// Per-coordinate robust reduction of `k` equally-shaped slices into `out`.
///
/// `out[i] = statistic(inputs[0][i], …, inputs[k-1][i])` where the statistic
/// is the trimmed mean or median selected by `rule`. This is the selection
/// kernel behind `AggRule::{TrimmedMean, CoordinateMedian}` in the server's
/// guard layer.
///
/// The model dimension is walked in [`AGG_SHARD`]-element shards exactly
/// like [`weighted_sum_into`]. Within a shard every
/// coordinate's `k` values are put in `f32::total_cmp` order, a total order
/// (it ranks every NaN bit pattern, so the kernel is deterministic even if
/// non-finite values slip past the guard): the default lanes sort
/// [`simd::ROBUST_TILE`] coordinates side by side with one compare-exchange
/// network built per call, the `SimdKernel::Scalar` lane sorts column by
/// column; integer order on the keys *is* `total_cmp` order, so the lanes
/// agree bitwise (`docs/PERF.md`, "Robust reduction").
/// The sorted column is a pure function of the input *multiset*: bitwise-
/// equal ties are interchangeable in every downstream statistic, so the
/// result is invariant under any permutation of the inputs (the tie-break
/// contract — "ties broken by client index" — is satisfied vacuously).
/// The kept values are summed left-to-right in f64 in sorted order, which
/// is likewise permutation-invariant.
///
/// # Panics
/// Panics if lengths are inconsistent, no inputs are given, or a trimmed
/// mean would drop every value.
pub fn robust_reduce_into(inputs: &[&[f32]], rule: RobustRule, out: &mut [f32]) {
    assert!(
        !inputs.is_empty(),
        "robust_reduce_into needs at least one input"
    );
    for input in inputs {
        assert_eq!(input.len(), out.len(), "input length mismatch");
    }
    let k = inputs.len();
    if let RobustRule::TrimmedMean { trim } = rule {
        assert!(
            2 * trim < k,
            "TrimmedMean {{ trim: {trim} }} drops all {k} inputs"
        );
    }
    let net = simd::sorting_network(k);
    for (s, shard) in out.chunks_mut(AGG_SHARD).enumerate() {
        simd::robust_reduce_shard(inputs, s * AGG_SHARD, rule, &net, shard);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::rng_for;

    fn naive_matmul(a: &Tensor, b: &Tensor) -> Tensor {
        let (m, k) = a.shape().as_matrix();
        let (_, n) = b.shape().as_matrix();
        let mut c = Tensor::zeros(&[m, n]);
        for i in 0..m {
            for j in 0..n {
                let mut acc = 0.0f64;
                for p in 0..k {
                    acc += a.data()[i * k + p] as f64 * b.data()[p * n + j] as f64;
                }
                *c.at_mut(&[i, j]) = acc as f32;
            }
        }
        c
    }

    fn assert_close(a: &Tensor, b: &Tensor, tol: f32) {
        assert_eq!(a.dims(), b.dims());
        for (x, y) in a.data().iter().zip(b.data().iter()) {
            assert!((x - y).abs() <= tol, "{x} vs {y}");
        }
    }

    #[test]
    fn matmul_matches_naive() {
        let mut rng = rng_for(2, 2);
        let a = Tensor::randn(&mut rng, &[13, 7], 0.0, 1.0);
        let b = Tensor::randn(&mut rng, &[7, 11], 0.0, 1.0);
        assert_close(&a.matmul(&b), &naive_matmul(&a, &b), 1e-4);
    }

    #[test]
    fn matmul_identity() {
        let mut rng = rng_for(4, 2);
        let a = Tensor::randn(&mut rng, &[5, 5], 0.0, 1.0);
        assert_close(&a.matmul(&Tensor::eye(5)), &a, 0.0);
        assert_close(&Tensor::eye(5).matmul(&a), &a, 0.0);
    }

    #[test]
    fn matmul_tn_matches_explicit_transpose() {
        let mut rng = rng_for(5, 2);
        let a = Tensor::randn(&mut rng, &[9, 4], 0.0, 1.0);
        let b = Tensor::randn(&mut rng, &[9, 6], 0.0, 1.0);
        assert_close(&a.matmul_tn(&b), &a.transpose().matmul(&b), 1e-4);
    }

    #[test]
    fn matmul_nt_matches_explicit_transpose() {
        let mut rng = rng_for(6, 2);
        let a = Tensor::randn(&mut rng, &[9, 4], 0.0, 1.0);
        let b = Tensor::randn(&mut rng, &[6, 4], 0.0, 1.0);
        assert_close(&a.matmul_nt(&b), &a.matmul(&b.transpose()), 1e-4);
    }

    #[test]
    fn softmax_rows_are_distributions() {
        let mut rng = rng_for(8, 2);
        let t = Tensor::randn(&mut rng, &[10, 6], 0.0, 3.0);
        let s = t.softmax_rows();
        for r in 0..10 {
            let row = s.row(r);
            let sum: f32 = row.iter().sum();
            assert!((sum - 1.0).abs() < 1e-5);
            assert!(row.iter().all(|&p| (0.0..=1.0).contains(&p)));
        }
    }

    #[test]
    fn softmax_handles_large_logits() {
        let mut row = [1000.0f32, 1000.0, 999.0];
        softmax_inplace(&mut row);
        assert!(row.iter().all(|v| v.is_finite()));
        assert!((row.iter().sum::<f32>() - 1.0).abs() < 1e-5);
        assert!(row[0] > row[2]);
    }

    #[test]
    fn argmax_rows_picks_first_max_on_ties() {
        let t = Tensor::from_vec(vec![0.0, 5.0, 5.0, 1.0, 0.0, -1.0], &[2, 3]);
        assert_eq!(t.argmax_rows(), vec![1, 0]);
    }

    #[test]
    fn bias_ops_roundtrip() {
        let mut x = Tensor::zeros(&[3, 4]);
        let b = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], &[4]);
        x.add_row_bias(&b);
        let g = x.sum_rows();
        assert_eq!(g.data(), &[3.0, 6.0, 9.0, 12.0]);
    }

    #[test]
    fn weighted_sum_recovers_average() {
        let a = vec![2.0f32; 5];
        let b = vec![4.0f32; 5];
        let mut out = vec![0.0f32; 5];
        weighted_sum_into(&[&a, &b], &[0.5, 0.5], &mut out);
        assert!(out.iter().all(|&v| (v - 3.0).abs() < 1e-6));
    }

    #[test]
    fn sharded_aggregation_matches_per_element_sum_bitwise() {
        // Many inputs over several shards: the vectorizable sharded kernel
        // must reproduce the per-element left-to-right sum exactly.
        let mut rng = rng_for(11, 2);
        let dim = 3 * AGG_SHARD + 17;
        let inputs: Vec<Vec<f32>> = (0..40)
            .map(|_| {
                let mut v = vec![0.0f32; dim];
                crate::rng::fill_normal(&mut rng, &mut v, 0.0, 1.0);
                v
            })
            .collect();
        let refs: Vec<&[f32]> = inputs.iter().map(|v| v.as_slice()).collect();
        let weights: Vec<f32> = (0..40).map(|i| (i as f32 + 1.0) / 820.0).collect();
        let reference: Vec<f32> = (0..dim)
            .map(|i| {
                let mut acc = 0.0f32;
                for (input, &w) in refs.iter().zip(&weights) {
                    acc += w * input[i];
                }
                acc
            })
            .collect();
        let mut sharded = vec![0.0f32; dim];
        weighted_sum_into(&refs, &weights, &mut sharded);
        assert_eq!(reference, sharded);
    }

    #[test]
    fn lerp_endpoints() {
        let mut a = vec![1.0f32, 2.0];
        lerp_into(&mut a, &[5.0, 6.0], 0.0);
        assert_eq!(a, vec![1.0, 2.0]);
        lerp_into(&mut a, &[5.0, 6.0], 1.0);
        assert_eq!(a, vec![5.0, 6.0]);
    }

    #[test]
    fn dot_and_dist() {
        assert_eq!(dot(&[1.0, 2.0, 3.0], &[4.0, 5.0, 6.0]), 32.0);
        assert_eq!(dist_sq(&[0.0, 0.0], &[3.0, 4.0]), 25.0);
    }

    #[test]
    fn robust_reduce_statistics() {
        // 5 inputs, 2 coordinates. Columns: [1, 2, 3, 4, 100] and
        // [-50, 0, 0, 1, 2] once sorted.
        let a = [1.0f32, 2.0];
        let b = [2.0f32, 0.0];
        let c = [3.0f32, -50.0];
        let d = [4.0f32, 1.0];
        let e = [100.0f32, 0.0];
        let inputs: Vec<&[f32]> = vec![&a, &b, &c, &d, &e];
        let mut out = vec![0.0f32; 2];
        robust_reduce_into(&inputs, RobustRule::Median, &mut out);
        assert_eq!(out, vec![3.0, 0.0]);
        robust_reduce_into(&inputs, RobustRule::TrimmedMean { trim: 1 }, &mut out);
        assert_eq!(out, vec![3.0, 1.0 / 3.0]);
        // Even count: the median averages the two middle values.
        let inputs4: Vec<&[f32]> = vec![&a, &b, &c, &d];
        robust_reduce_into(&inputs4, RobustRule::Median, &mut out);
        assert_eq!(out, vec![2.5, 0.5]);
    }

    #[test]
    fn robust_reduce_ignores_input_order() {
        use rand::RngExt;
        let mut rng = rng_for(11, 3);
        let dim = 3 * AGG_SHARD + 17;
        let cohort: Vec<Vec<f32>> = (0..7)
            .map(|_| (0..dim).map(|_| rng.random_range(-4.0..4.0)).collect())
            .collect();
        let fwd: Vec<&[f32]> = cohort.iter().map(|v| v.as_slice()).collect();
        let rev: Vec<&[f32]> = cohort.iter().rev().map(|v| v.as_slice()).collect();
        for rule in [RobustRule::Median, RobustRule::TrimmedMean { trim: 2 }] {
            let mut x = vec![0.0f32; dim];
            let mut y = vec![0.0f32; dim];
            robust_reduce_into(&fwd, rule, &mut x);
            robust_reduce_into(&rev, rule, &mut y);
            assert_eq!(x, y, "{rule:?} depended on input order");
        }
    }
}
