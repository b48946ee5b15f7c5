//! Softmax cross-entropy over integer class targets, in the two forms its
//! callers read: the mean loss evaluation reports, and the gradient with
//! respect to the logits that training feeds into `backward`.

use fedat_tensor::ops::softmax_block;
use fedat_tensor::{simd, Tensor};

/// Mean softmax cross-entropy of `logits` against integer class targets:
/// [`softmax_block`] on a scratch copy, then `−ln p_t` per row (each
/// probability clamped at `1e-12`) summed in `f64`.
///
/// # Panics
/// Panics if `targets.len()` differs from the logit row count or a target is
/// out of class range.
pub fn softmax_cross_entropy_loss(logits: &Tensor, targets: &[u32]) -> f32 {
    let (n, classes) = logits.shape().as_matrix();
    assert_eq!(targets.len(), n, "target count mismatch");
    let mut probs = logits.clone_scratch();
    softmax_block(probs.data_mut(), classes);
    let mut loss = 0.0f64;
    for (r, &t) in targets.iter().enumerate() {
        let t = t as usize;
        assert!(t < classes, "target {t} out of range for {classes} classes");
        let p = probs.row(r)[t].max(1e-12);
        loss -= (p as f64).ln();
    }
    probs.recycle();
    (loss / n as f64) as f32
}

/// The gradient of [`softmax_cross_entropy_loss`] with respect to the
/// logits, `(softmax − onehot) / N`, in a scratch-arena tensor.
///
/// One pass over the block where the definition takes three
/// ([`softmax_block`], then `row[t] −= 1`, then a scale by `1/N`), with
/// every element put through the same operations in the same order: the
/// row maximum is subtracted, [`simd::exp_in_place`] runs over the whole
/// block, and each element of a row with sum `Σ` becomes
/// `(p · (1/Σ) − [i = t]) · (1/N)`. The maximum is a `v > m` select
/// rather than the `f32::max` fold; the two differ only in the sign of a
/// zero maximum, and `exp(v − max)` erases that. `proptest_nn.rs` holds
/// the result to the three-pass definition bit for bit, bar the sign of a
/// NaN, which Rust leaves unspecified where two NaNs meet.
///
/// # Panics
/// Panics if `targets.len()` differs from the logit row count or a target is
/// out of class range.
pub fn softmax_cross_entropy_grad(logits: &Tensor, targets: &[u32]) -> Tensor {
    let (n, classes) = logits.shape().as_matrix();
    assert_eq!(targets.len(), n, "target count mismatch");
    let mut grad = logits.clone_scratch();
    let block = grad.data_mut();
    for row in block.chunks_exact_mut(classes) {
        let max = row
            .iter()
            .fold(f32::NEG_INFINITY, |m, &v| if v > m { v } else { m });
        for v in row.iter_mut() {
            *v -= max;
        }
    }
    simd::exp_in_place(block);
    let inv_n = 1.0 / n as f32;
    for (row, &t) in block.chunks_exact_mut(classes).zip(targets) {
        let t = t as usize;
        assert!(t < classes, "target {t} out of range for {classes} classes");
        let r = 1.0 / row.iter().fold(0.0f32, |s, &v| s + v);
        let p_t = row[t] * r;
        for v in row.iter_mut() {
            *v = *v * r * inv_n;
        }
        row[t] = (p_t - 1.0) * inv_n;
    }
    grad
}

/// Classification accuracy of logits against integer targets (no
/// allocation: each row's argmax is compared as it is found).
pub fn accuracy(logits: &Tensor, targets: &[u32]) -> f32 {
    let (rows, _) = logits.shape().as_matrix();
    let correct = (0..rows)
        .zip(targets)
        .filter(|&(r, &t)| fedat_tensor::ops::argmax(logits.row(r)) == t as usize)
        .count();
    correct as f32 / targets.len().max(1) as f32
}

#[cfg(test)]
mod tests {
    use super::*;
    use fedat_tensor::rng::rng_for;

    #[test]
    fn uniform_logits_give_log_c_loss() {
        let logits = Tensor::zeros(&[4, 10]);
        let targets = [0u32, 3, 7, 9];
        let loss = softmax_cross_entropy_loss(&logits, &targets);
        assert!((loss - (10.0f32).ln()).abs() < 1e-5);
    }

    #[test]
    fn perfect_logits_give_near_zero_loss() {
        let mut logits = Tensor::full(&[2, 3], -50.0);
        *logits.at_mut(&[0, 1]) = 50.0;
        *logits.at_mut(&[1, 2]) = 50.0;
        let loss = softmax_cross_entropy_loss(&logits, &[1, 2]);
        assert!(loss < 1e-5);
        assert_eq!(accuracy(&logits, &[1, 2]), 1.0);
    }

    #[test]
    fn gradient_rows_sum_to_zero() {
        let mut rng = rng_for(1, 1);
        let logits = Tensor::randn(&mut rng, &[5, 4], 0.0, 2.0);
        let grad = softmax_cross_entropy_grad(&logits, &[0, 1, 2, 3, 0]);
        for r in 0..5 {
            let s: f32 = grad.row(r).iter().sum();
            assert!(s.abs() < 1e-6, "row {r} gradient sums to {s}");
        }
    }

    #[test]
    fn xent_gradcheck() {
        let mut rng = rng_for(2, 1);
        let logits = Tensor::randn(&mut rng, &[3, 5], 0.0, 1.0);
        let targets = [1u32, 4, 2];
        let grad = softmax_cross_entropy_grad(&logits, &targets);
        let eps = 1e-3f32;
        for idx in [0usize, 6, 14] {
            let mut lp = logits.clone();
            lp.data_mut()[idx] += eps;
            let loss_p = softmax_cross_entropy_loss(&lp, &targets);
            let mut lm = logits.clone();
            lm.data_mut()[idx] -= eps;
            let loss_m = softmax_cross_entropy_loss(&lm, &targets);
            let num = (loss_p - loss_m) / (2.0 * eps);
            let ana = grad.data()[idx];
            assert!(
                (num - ana).abs() < 1e-3,
                "idx {idx}: numeric {num} vs analytic {ana}"
            );
        }
    }

    #[test]
    fn loss_and_gradient_bits_agree_across_lanes() {
        use fedat_tensor::ctx::{self, KernelCtx};
        use fedat_tensor::simd::SimdKernel;
        let mut rng = rng_for(3, 1);
        // Every tail width after whole 8-lane registers; per width, rows
        // with a NaN, a +inf, a -inf and a -1e30 among ordinary logits.
        for classes in [1usize, 7, 8, 9, 10, 62] {
            let mut logits = Tensor::randn(&mut rng, &[9, classes], 0.0, 4.0);
            for (r, v) in [f32::NAN, f32::INFINITY, f32::NEG_INFINITY, -1e30]
                .into_iter()
                .enumerate()
            {
                logits.row_mut(2 * r + 1)[r % classes] = v;
            }
            let targets: Vec<u32> = (0..9).map(|r| (r * 5 % classes) as u32).collect();
            let run = |simd| {
                let _g = ctx::install(KernelCtx {
                    simd,
                    ..ctx::snapshot()
                });
                let loss = softmax_cross_entropy_loss(&logits, &targets);
                let grad = softmax_cross_entropy_grad(&logits, &targets);
                let bits: Vec<u32> = grad.data().iter().map(|v| v.to_bits()).collect();
                (loss.to_bits(), bits)
            };
            assert_eq!(
                run(SimdKernel::Scalar),
                run(SimdKernel::Auto),
                "{classes} classes"
            );
        }
    }

    #[test]
    fn accuracy_counts_matches() {
        let logits = Tensor::from_vec(vec![1.0, 0.0, 0.0, 1.0, 1.0, 0.0], &[3, 2]);
        assert!((accuracy(&logits, &[0, 1, 1]) - 2.0 / 3.0).abs() < 1e-6);
    }
}
