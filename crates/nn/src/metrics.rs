//! Batched evaluation helpers: the [`evaluate_batched`] sweep and its
//! accuracy-only twin [`accuracy_batched`].

use crate::layer::Mode;
use crate::loss::{accuracy, softmax_cross_entropy_loss};
use crate::model::{EvalResult, Model};
use fedat_tensor::Tensor;

/// Runs the eval forward on rows `[start, end)` of `(x, y)` as one
/// mini-batch and scores its logits with `score`.
fn eval_rows(
    model: &mut dyn Model,
    x: &Tensor,
    y: &[u32],
    (start, end): (usize, usize),
    score: fn(&Tensor, &[u32]) -> EvalResult,
) -> EvalResult {
    let (rows, cols) = x.shape().as_matrix();
    let targets_per_row = y.len() / rows;
    let n = end - start;
    let xb = Tensor::from_vec(
        fedat_tensor::scratch::take_copy(&x.data()[start * cols..end * cols]),
        &[n, cols],
    );
    let yb = &y[start * targets_per_row..end * targets_per_row];
    let logits = model.logits(&xb, Mode::Eval);
    xb.recycle();
    let batch = score(&logits, yb);
    logits.recycle();
    batch
}

/// Loss and accuracy of one batch's logits.
fn loss_and_accuracy(logits: &Tensor, y: &[u32]) -> EvalResult {
    EvalResult {
        loss: softmax_cross_entropy_loss(logits, y),
        accuracy: accuracy(logits, y),
        count: y.len(),
    }
}

/// Accuracy alone of one batch's logits (loss reads `0.0`).
fn accuracy_only(logits: &Tensor, y: &[u32]) -> EvalResult {
    EvalResult {
        loss: 0.0,
        accuracy: accuracy(logits, y),
        count: y.len(),
    }
}

/// The batch walk both sweeps share: `score` on every mini-batch of
/// `batch_size` rows, merged sample-weighted in row order.
fn walk_batches(
    model: &mut dyn Model,
    x: &Tensor,
    y: &[u32],
    batch_size: usize,
    score: fn(&Tensor, &[u32]) -> EvalResult,
) -> EvalResult {
    let (rows, _) = x.shape().as_matrix();
    assert!(batch_size > 0, "batch_size must be positive");
    assert_eq!(
        y.len() % rows,
        0,
        "targets must be a whole multiple of rows"
    );
    let mut total = EvalResult::default();
    let mut start = 0usize;
    while start < rows {
        let end = (start + batch_size).min(rows);
        total = total.merge(eval_rows(model, x, y, (start, end), score));
        start = end;
    }
    total
}

/// Evaluates `model` over `(x, y)` in mini-batches of `batch_size` rows,
/// merging results sample-weighted. Bounds peak memory on large test sets.
///
/// For sequence models, a "row" of `x` is one sequence and `y` must hold
/// `seq_len` targets per row (handled transparently by the target stride).
pub fn evaluate_batched(
    model: &mut dyn Model,
    x: &Tensor,
    y: &[u32],
    batch_size: usize,
) -> EvalResult {
    walk_batches(model, x, y, batch_size, loss_and_accuracy)
}

/// The accuracy [`evaluate_batched`] reports, without the softmax and `ln`
/// it computes for the loss: the same batches, merged with the
/// same arithmetic, so the value is bit-identical by construction.
pub fn accuracy_batched(model: &mut dyn Model, x: &Tensor, y: &[u32], batch_size: usize) -> f32 {
    walk_batches(model, x, y, batch_size, accuracy_only).accuracy
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::models::ModelSpec;
    use fedat_tensor::rng::rng_for;

    #[test]
    fn batched_eval_matches_full_eval() {
        let spec = ModelSpec::Mlp {
            input: 5,
            hidden: vec![8],
            classes: 3,
        };
        let mut m = spec.build(1);
        let mut rng = rng_for(2, 2);
        let x = Tensor::randn(&mut rng, &[23, 5], 0.0, 1.0);
        let y: Vec<u32> = (0..23).map(|i| (i % 3) as u32).collect();
        let full = m.evaluate(&x, &y);
        let batched = evaluate_batched(m.as_mut(), &x, &y, 7);
        assert_eq!(full.count, batched.count);
        assert!((full.loss - batched.loss).abs() < 1e-4);
        assert!((full.accuracy - batched.accuracy).abs() < 1e-6);
    }

    #[test]
    fn accuracy_sweep_is_the_full_sweeps_accuracy_bitwise() {
        let spec = ModelSpec::Mlp {
            input: 5,
            hidden: vec![8],
            classes: 3,
        };
        let mut m = spec.build(1);
        let mut rng = rng_for(2, 3);
        let x = Tensor::randn(&mut rng, &[41, 5], 0.0, 1.0);
        let y: Vec<u32> = (0..41).map(|i| (i % 3) as u32).collect();
        for batch in [1, 7, 64] {
            let full = evaluate_batched(m.as_mut(), &x, &y, batch);
            let acc = accuracy_batched(m.as_mut(), &x, &y, batch);
            assert_eq!(full.accuracy.to_bits(), acc.to_bits(), "batch {batch}");
        }
    }

    #[test]
    fn batched_eval_handles_sequences() {
        let spec = ModelSpec::LstmLm {
            vocab: 8,
            embed: 4,
            hidden: 5,
        };
        let mut m = spec.build(1);
        let x = Tensor::from_vec(vec![0.0, 1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0], &[2, 4]);
        let y: Vec<u32> = vec![1, 2, 3, 4, 5, 6, 7, 0];
        let r = evaluate_batched(m.as_mut(), &x, &y, 1);
        assert_eq!(r.count, 8);
        assert!(r.loss > 0.0);
    }
}
