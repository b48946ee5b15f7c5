//! The layer abstraction used by [`crate::model::Sequential`].
//!
//! **Gradients are zero at rest**: between training steps every
//! [`Param::grad`] holds `+0.0` — a new parameter's does, and
//! [`crate::optim::Optimizer::step`] leaves it so — and `backward`
//! *accumulates*. Dense and Conv2d run their weight-gradient GEMM and bias
//! reduction with the gradient itself as the accumulator: the ascending sum
//! from `+0.0` a scratch buffer would hold, without buffer, fill or copy.

use crate::param::Param;
use fedat_tensor::Tensor;

/// Whether a pass is training (dropout active, batch-norm uses batch stats)
/// or evaluation.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Mode {
    /// Training pass: stochastic layers are active and caches are kept for
    /// the subsequent backward pass.
    Train,
    /// Inference pass: deterministic, no caches required.
    Eval,
}

/// A differentiable layer.
///
/// Layers own their parameters and any caches needed to run `backward`
/// immediately after the matching `forward`. The contract is strictly
/// `forward(Train)` → `backward` with no interleaving; `Sequential`
/// enforces this ordering.
pub trait Layer: Send {
    /// Computes the layer output. `Train` mode must cache whatever the
    /// backward pass needs.
    fn forward(&mut self, input: Tensor, mode: Mode) -> Tensor;

    /// Computes the layer output from a *borrowed* input — the entry point
    /// [`crate::model::Sequential`] uses for the first layer, so the
    /// caller's batch tensor is never cloned per step. The default
    /// materializes a scratch-arena copy; layers that can read the input
    /// in place (Dense, Conv2d) override it to skip even that.
    fn forward_ref(&mut self, input: &Tensor, mode: Mode) -> Tensor {
        self.forward(input.clone_scratch(), mode)
    }

    /// Propagates the loss gradient, accumulating parameter gradients
    /// (onto whatever they hold — zeros, at rest) and returning the
    /// gradient with respect to the layer input.
    fn backward(&mut self, grad_out: Tensor) -> Tensor;

    /// [`Layer::backward`] for a layer whose input gradient nobody reads —
    /// the first layer of a [`crate::model::Sequential`] training step.
    /// Parameter gradients accumulate exactly as in `backward`; the default
    /// computes the input gradient and recycles it, layers where it is a
    /// matmul of its own (Dense, Conv2d) override this to skip it.
    fn backward_params_only(&mut self, grad_out: Tensor) {
        self.backward(grad_out).recycle();
    }

    /// Immutable access to the parameters, in a fixed deterministic order.
    fn params(&self) -> Vec<&Param>;

    /// Mutable access to the parameters, in the same order as [`Layer::params`].
    fn params_mut(&mut self) -> Vec<&mut Param>;

    /// Short human-readable layer name for diagnostics.
    fn name(&self) -> &'static str;

    /// Clears accumulated gradients.
    fn zero_grad(&mut self) {
        for p in self.params_mut() {
            p.zero_grad();
        }
    }

    /// Total scalar parameter count.
    fn num_params(&self) -> usize {
        self.params().iter().map(|p| p.len()).sum()
    }
}
