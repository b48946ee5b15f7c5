//! Batched evaluation helpers: the [`evaluate_batched`] sweep and the
//! [`StreamingEvaluator`] that runs it on a thread-cached model.

use crate::layer::Mode;
use crate::loss::{accuracy, softmax_cross_entropy};
use crate::model::{EvalResult, Model};
use crate::models::{with_cached_model, ModelSpec};
use fedat_tensor::Tensor;

/// Evaluates rows `[start, end)` of `(x, y)` as one mini-batch.
fn eval_rows(model: &mut dyn Model, x: &Tensor, y: &[u32], start: usize, end: usize) -> EvalResult {
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
    let (loss, grad) = softmax_cross_entropy(&logits, yb);
    grad.recycle();
    let batch = EvalResult {
        loss,
        accuracy: accuracy(&logits, yb),
        count: yb.len(),
    };
    logits.recycle();
    batch
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
        total = total.merge(eval_rows(model, x, y, start, end));
        start = end;
    }
    total
}

/// A reusable streaming evaluator: [`evaluate_batched`] in fixed
/// mini-batches of `batch` rows on the calling thread's cached model
/// instance ([`with_cached_model`]), so evaluating costs no model build.
pub struct StreamingEvaluator {
    spec: ModelSpec,
    seed: u64,
    batch: usize,
}

impl StreamingEvaluator {
    /// Builds an evaluator for `spec` with the given mini-batch size.
    ///
    /// # Panics
    /// Panics if `batch` is zero.
    pub fn new(spec: ModelSpec, seed: u64, batch: usize) -> Self {
        assert!(batch > 0, "batch size must be positive");
        StreamingEvaluator { spec, seed, batch }
    }

    /// Loss/accuracy of `weights` over `(x, y)`.
    pub fn evaluate(&mut self, weights: &[f32], x: &Tensor, y: &[u32]) -> EvalResult {
        let (rows, _) = x.shape().as_matrix();
        if rows == 0 {
            return EvalResult::default();
        }
        with_cached_model(&self.spec, self.seed, |model| {
            model.set_weights(weights);
            evaluate_batched(model, x, y, self.batch)
        })
    }
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
    fn streaming_evaluator_matches_serial_sweep_bitwise() {
        let spec = ModelSpec::Mlp {
            input: 6,
            hidden: vec![10],
            classes: 4,
        };
        let weights = spec.build(3).weights();
        let mut rng = rng_for(4, 4);
        let x = Tensor::randn(&mut rng, &[150, 6], 0.0, 1.0);
        let y: Vec<u32> = (0..150).map(|i| (i % 4) as u32).collect();
        let mut model = spec.build(9);
        model.set_weights(&weights);
        let serial = evaluate_batched(model.as_mut(), &x, &y, 32);
        let mut streaming = StreamingEvaluator::new(spec, 3, 32);
        // Twice: the second pass reuses the thread's cached model.
        for _ in 0..2 {
            let cached = streaming.evaluate(&weights, &x, &y);
            assert_eq!(serial.loss, cached.loss);
            assert_eq!(serial.accuracy, cached.accuracy);
            assert_eq!(serial.count, cached.count);
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
