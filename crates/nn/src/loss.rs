//! Loss functions. Each returns the (mean-reduced) loss *and* the gradient
//! with respect to the model output, ready to feed into `backward`.

use fedat_tensor::Tensor;

/// Softmax cross-entropy over integer class targets.
///
/// Returns `(mean loss, d_logits)` where `d_logits = (softmax − onehot) / N`.
///
/// # Panics
/// Panics if `targets.len()` differs from the logit row count or a target is
/// out of class range.
pub fn softmax_cross_entropy(logits: &Tensor, targets: &[u32]) -> (f32, Tensor) {
    let (n, classes) = logits.shape().as_matrix();
    assert_eq!(targets.len(), n, "target count mismatch");
    // Scratch-arena copy: the returned gradient reuses recycled storage.
    let mut probs = logits.clone_scratch();
    fedat_tensor::ops::softmax_block(probs.data_mut(), classes);
    let mut loss = 0.0f64;
    for (r, &t) in targets.iter().enumerate() {
        let t = t as usize;
        assert!(t < classes, "target {t} out of range for {classes} classes");
        let p = probs.row(r)[t].max(1e-12);
        loss -= (p as f64).ln();
    }
    let inv_n = 1.0 / n as f32;
    for (r, &t) in targets.iter().enumerate() {
        let row = probs.row_mut(r);
        row[t as usize] -= 1.0;
        fedat_tensor::simd::scale(row, inv_n);
    }
    ((loss / n as f64) as f32, probs)
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
        let (loss, _) = softmax_cross_entropy(&logits, &targets);
        assert!((loss - (10.0f32).ln()).abs() < 1e-5);
    }

    #[test]
    fn perfect_logits_give_near_zero_loss() {
        let mut logits = Tensor::full(&[2, 3], -50.0);
        *logits.at_mut(&[0, 1]) = 50.0;
        *logits.at_mut(&[1, 2]) = 50.0;
        let (loss, _) = softmax_cross_entropy(&logits, &[1, 2]);
        assert!(loss < 1e-5);
        assert_eq!(accuracy(&logits, &[1, 2]), 1.0);
    }

    #[test]
    fn gradient_rows_sum_to_zero() {
        let mut rng = rng_for(1, 1);
        let logits = Tensor::randn(&mut rng, &[5, 4], 0.0, 2.0);
        let (_, grad) = softmax_cross_entropy(&logits, &[0, 1, 2, 3, 0]);
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
        let (_, grad) = softmax_cross_entropy(&logits, &targets);
        let eps = 1e-3f32;
        for idx in [0usize, 6, 14] {
            let mut lp = logits.clone();
            lp.data_mut()[idx] += eps;
            let (loss_p, _) = softmax_cross_entropy(&lp, &targets);
            let mut lm = logits.clone();
            lm.data_mut()[idx] -= eps;
            let (loss_m, _) = softmax_cross_entropy(&lm, &targets);
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
                let (loss, grad) = softmax_cross_entropy(&logits, &targets);
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
