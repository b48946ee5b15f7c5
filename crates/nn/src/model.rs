//! The [`Model`] trait — the unit of federated training — and
//! [`Sequential`], the feed-forward implementation.

use crate::layer::{Layer, Mode};
use crate::loss::{accuracy, softmax_cross_entropy_grad, softmax_cross_entropy_loss};
use crate::optim::{Optimizer, ProxTerm};
use crate::param::Params;
use fedat_tensor::Tensor;

/// Loss/accuracy pair returned by evaluation.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct EvalResult {
    /// Mean loss over the evaluated samples.
    pub loss: f32,
    /// Fraction of correctly classified samples (or token positions).
    pub accuracy: f32,
    /// Number of samples evaluated.
    pub count: usize,
}

impl EvalResult {
    /// Sample-weighted merge of two evaluation results.
    pub fn merge(self, other: EvalResult) -> EvalResult {
        let count = self.count + other.count;
        if count == 0 {
            return EvalResult::default();
        }
        let wa = self.count as f32 / count as f32;
        let wb = other.count as f32 / count as f32;
        EvalResult {
            loss: wa * self.loss + wb * other.loss,
            accuracy: wa * self.accuracy + wb * other.accuracy,
            count,
        }
    }
}

/// A trainable classifier: the unit the FL strategies operate on.
///
/// Implementations must expose their weights as a single flat `Vec<f32>` in
/// a stable order; this vector is what the server aggregates and what the
/// polyline codec compresses.
pub trait Model: Send {
    /// Class logits for a batch (rows = samples or token positions).
    fn logits(&mut self, x: &Tensor, mode: Mode) -> Tensor;

    /// One optimizer step on a mini-batch. The step computes no loss:
    /// nothing a client uploads depends on it ([`Model::evaluate`] reports
    /// one).
    ///
    /// `prox` optionally adds the FedAT/FedProx constraint gradient
    /// `λ(w − w_global)` (Eq. 3) inside the optimizer update.
    fn train_batch(
        &mut self,
        x: &Tensor,
        y: &[u32],
        opt: &mut dyn Optimizer,
        prox: Option<&ProxTerm>,
    );

    /// Loss and accuracy on a labelled batch.
    fn evaluate(&mut self, x: &Tensor, y: &[u32]) -> EvalResult {
        let logits = self.logits(x, Mode::Eval);
        let result = EvalResult {
            loss: softmax_cross_entropy_loss(&logits, y),
            accuracy: accuracy(&logits, y),
            count: y.len(),
        };
        logits.recycle();
        result
    }

    /// Total scalar weight count.
    fn num_params(&self) -> usize;

    /// Flattens all weights into a canonical-order vector.
    fn weights(&self) -> Vec<f32>;

    /// Replaces all weights from a canonical-order vector.
    ///
    /// # Panics
    /// Panics if `flat.len() != num_params()`.
    fn set_weights(&mut self, flat: &[f32]);
}

/// A feed-forward stack of [`Layer`]s ending in class logits.
pub struct Sequential {
    layers: Vec<Box<dyn Layer>>,
    /// Every gradient is `+0.0`: true of a new model and after a completed
    /// [`Optimizer::step`], false once a backward pass starts — so after a
    /// step that panicked half-way, or a [`Sequential::backward`] driven
    /// from outside, the next `train_batch` clears them itself.
    grads_clean: bool,
}

impl Sequential {
    /// Builds a model from a layer pipeline.
    ///
    /// # Panics
    /// Panics if no layers are given.
    pub fn new(layers: Vec<Box<dyn Layer>>) -> Self {
        assert!(!layers.is_empty(), "Sequential needs at least one layer");
        Sequential {
            layers,
            grads_clean: true,
        }
    }

    /// Runs a full forward pass from a borrowed batch.
    ///
    /// The first layer reads `x` in place (or caches a scratch-arena copy
    /// when training requires it); no per-batch clone of the input is made.
    pub fn forward(&mut self, x: &Tensor, mode: Mode) -> Tensor {
        let (first, rest) = self
            .layers
            .split_first_mut()
            .expect("Sequential has at least one layer");
        let mut acc = first.forward_ref(x, mode);
        for layer in rest {
            acc = layer.forward(acc, mode);
        }
        acc
    }

    /// Runs a full backward pass (after a `Train` forward).
    pub fn backward(&mut self, grad: Tensor) -> Tensor {
        self.grads_clean = false;
        self.layers
            .iter_mut()
            .rev()
            .fold(grad, |acc, layer| layer.backward(acc))
    }

    /// Clears all gradients.
    pub fn zero_grad(&mut self) {
        for layer in &mut self.layers {
            layer.zero_grad();
        }
    }
}

impl Model for Sequential {
    fn logits(&mut self, x: &Tensor, mode: Mode) -> Tensor {
        self.forward(x, mode)
    }

    fn train_batch(
        &mut self,
        x: &Tensor,
        y: &[u32],
        opt: &mut dyn Optimizer,
        prox: Option<&ProxTerm>,
    ) {
        if !std::mem::take(&mut self.grads_clean) {
            self.zero_grad();
        }
        let logits = self.forward(x, Mode::Train);
        let d_logits = softmax_cross_entropy_grad(&logits, y);
        logits.recycle();
        // Nothing reads the gradient with respect to the batch itself.
        let (first, rest) = self
            .layers
            .split_first_mut()
            .expect("Sequential has at least one layer");
        let grad = rest
            .iter_mut()
            .rev()
            .fold(d_logits, |acc, layer| layer.backward(acc));
        first.backward_params_only(grad);
        opt.step(&mut self.layers, prox);
        self.grads_clean = true;
    }

    fn num_params(&self) -> usize {
        self.layers.scalar_count()
    }

    fn weights(&self) -> Vec<f32> {
        self.layers.flatten()
    }

    fn set_weights(&mut self, flat: &[f32]) {
        self.layers.load(flat);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layers::{Dense, Relu};
    use crate::optim::Adam;
    use fedat_tensor::rng::rng_for;

    fn tiny_mlp(seed: u64) -> Sequential {
        let mut rng = rng_for(seed, 3);
        Sequential::new(vec![
            Box::new(Dense::new(&mut rng, 4, 8)),
            Box::new(Relu::new()),
            Box::new(Dense::new(&mut rng, 8, 3)),
        ])
    }

    #[test]
    fn weights_roundtrip() {
        let m = tiny_mlp(1);
        let w = m.weights();
        assert_eq!(w.len(), m.num_params());
        assert_eq!(w.len(), 4 * 8 + 8 + 8 * 3 + 3);
        let mut m2 = tiny_mlp(2);
        assert_ne!(m2.weights(), w, "different seeds should differ");
        m2.set_weights(&w);
        assert_eq!(m2.weights(), w);
    }

    #[test]
    fn training_reduces_loss_on_separable_data() {
        let mut rng = rng_for(7, 1);
        let mut m = tiny_mlp(7);
        // Three Gaussian blobs, one per class.
        let n = 60;
        let mut xs = Vec::new();
        let mut ys = Vec::new();
        for i in 0..n {
            let class = (i % 3) as u32;
            let center = [(class as f32) * 4.0, -(class as f32) * 4.0, 1.0, -1.0];
            for (j, &c) in center.iter().enumerate() {
                let _ = j;
                xs.push(c + 0.3 * fedat_tensor::rng::standard_normal(&mut rng));
            }
            ys.push(class);
        }
        let x = Tensor::from_vec(xs, &[n, 4]);
        let mut opt = Adam::new(0.05);
        let first = m.evaluate(&x, &ys).loss;
        for _ in 0..100 {
            m.train_batch(&x, &ys, &mut opt, None);
        }
        let result = m.evaluate(&x, &ys);
        assert!(
            result.loss < first * 0.3,
            "loss should drop substantially: {first} → {}",
            result.loss
        );
        assert!(
            result.accuracy > 0.9,
            "accuracy {} too low",
            result.accuracy
        );
    }

    #[test]
    fn prox_term_keeps_weights_near_global() {
        let mut rng = rng_for(9, 1);
        let x = Tensor::randn(&mut rng, &[32, 4], 0.0, 1.0);
        let y: Vec<u32> = (0..32).map(|i| (i % 3) as u32).collect();

        let run = |lambda: f32| -> f32 {
            let mut m = tiny_mlp(5);
            let global = m.weights();
            let prox = ProxTerm::new(lambda, global.clone());
            let mut opt = Adam::new(0.1);
            for _ in 0..50 {
                m.train_batch(&x, &y, &mut opt, Some(&prox));
            }
            let w = m.weights();
            fedat_tensor::ops::dist_sq(&w, &global).sqrt()
        };
        let drift_free = run(0.0);
        let drift_prox = run(2.0);
        assert!(
            drift_prox < drift_free,
            "prox should restrain drift: {drift_prox} !< {drift_free}"
        );
    }

    #[test]
    fn eval_result_merge_weighs_by_count() {
        let a = EvalResult {
            loss: 1.0,
            accuracy: 1.0,
            count: 10,
        };
        let b = EvalResult {
            loss: 3.0,
            accuracy: 0.0,
            count: 30,
        };
        let m = a.merge(b);
        assert_eq!(m.count, 40);
        assert!((m.loss - 2.5).abs() < 1e-6);
        assert!((m.accuracy - 0.25).abs() < 1e-6);
    }
}
