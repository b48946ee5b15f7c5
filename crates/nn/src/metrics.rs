//! Batched evaluation helpers: the serial [`evaluate_batched`] sweep and
//! the pool-backed [`StreamingEvaluator`].

use crate::layer::Mode;
use crate::loss::{accuracy, softmax_cross_entropy};
use crate::model::{EvalResult, Model};
use crate::models::{with_cached_model, ModelSpec};
use fedat_tensor::{parallel, Tensor};

/// Evaluates rows `[start, end)` of `(x, y)` as one mini-batch — the shared
/// per-batch kernel of [`evaluate_batched`] and [`StreamingEvaluator`], so
/// the serial and pooled paths are per-batch bit-identical.
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

/// A reusable streaming evaluator: a fixed mini-batch partition whose
/// per-batch results land in recycled slots, merged in batch order.
///
/// Batches are fanned out across the kernel pool and each worker evaluates
/// on its own thread-cached model instance.
/// The batch partition and the merge order are functions of the batch size
/// alone — never of the thread count — so the result is bit-identical to
/// the serial [`evaluate_batched`] sweep for any fan-out.
pub struct StreamingEvaluator {
    spec: ModelSpec,
    seed: u64,
    batch: usize,
    /// Reusable per-batch result slots, 3 floats each: loss, accuracy,
    /// count (counts are small integers, exactly representable).
    slots: Vec<f32>,
}

impl StreamingEvaluator {
    /// Builds an evaluator for `spec` with the given mini-batch size.
    ///
    /// # Panics
    /// Panics if `batch` is zero.
    pub fn new(spec: ModelSpec, seed: u64, batch: usize) -> Self {
        assert!(batch > 0, "batch size must be positive");
        StreamingEvaluator {
            spec,
            seed,
            batch,
            slots: Vec::new(),
        }
    }

    /// Loss/accuracy of `weights` over `(x, y)`.
    pub fn evaluate(&mut self, weights: &[f32], x: &Tensor, y: &[u32]) -> EvalResult {
        let (rows, cols) = x.shape().as_matrix();
        assert_eq!(
            y.len() % rows.max(1),
            0,
            "targets must be a whole multiple of rows"
        );
        if rows == 0 {
            return EvalResult::default();
        }
        let batch = self.batch;
        let n_batches = rows.div_ceil(batch);
        self.slots.clear();
        self.slots.resize(3 * n_batches, 0.0);
        let spec = &self.spec;
        let seed = self.seed;
        // Rough forward cost per batch (two f32 ops per weight would need
        // the model dimension; the input volume is a usable lower bound).
        let threads = parallel::plan_threads(n_batches, 4 * batch * cols);
        parallel::for_each_row_band(&mut self.slots, 3, threads, |first_batch, band| {
            with_cached_model(spec, seed, |model| {
                model.set_weights(weights);
                for (i, slot) in band.chunks_mut(3).enumerate() {
                    let b = first_batch + i;
                    let start = b * batch;
                    let end = ((b + 1) * batch).min(rows);
                    let r = eval_rows(model, x, y, start, end);
                    slot[0] = r.loss;
                    slot[1] = r.accuracy;
                    slot[2] = r.count as f32;
                }
            });
        });
        // Serial merge in batch order — identical to the serial sweep.
        let mut total = EvalResult::default();
        for slot in self.slots.chunks(3) {
            total = total.merge(EvalResult {
                loss: slot[0],
                accuracy: slot[1],
                count: slot[2] as usize,
            });
        }
        total
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
        for threads in [1usize, 2, 4, 8] {
            let _g = fedat_tensor::ctx::install(fedat_tensor::ctx::KernelCtx {
                max_threads: threads,
                ..fedat_tensor::ctx::snapshot()
            });
            let pooled = streaming.evaluate(&weights, &x, &y);
            assert_eq!(
                serial.loss, pooled.loss,
                "loss diverged at {threads} threads"
            );
            assert_eq!(serial.accuracy, pooled.accuracy);
            assert_eq!(serial.count, pooled.count);
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
