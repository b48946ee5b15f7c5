//! The layer abstraction used by [`crate::model::Sequential`].
//!
//! **Gradients are zero at rest**: between training steps every
//! [`Param::grad`] holds `+0.0` — a new parameter's does, and
//! [`crate::optim::Optimizer::step`] leaves it so — and `backward`
//! *accumulates*. Dense and Conv2d run their weight-gradient GEMM and bias
//! reduction with the gradient itself as the accumulator: the ascending sum
//! from `+0.0` a scratch buffer would hold, without buffer, fill or copy.

use crate::param::{Param, Params};
use fedat_tensor::Tensor;

/// Whether a pass is training or evaluation.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Mode {
    /// Training pass: caches are kept for the subsequent backward pass.
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

    /// Calls `f` on each parameter, in a fixed deterministic order. The
    /// default visits none: a layer with parameters must override both
    /// visitors.
    fn visit_params(&self, _f: &mut dyn FnMut(&Param)) {}

    /// Calls `f` on each parameter mutably, in the order of
    /// [`Layer::visit_params`].
    fn visit_params_mut(&mut self, _f: &mut dyn FnMut(&mut Param)) {}

    /// Clears accumulated gradients.
    fn zero_grad(&mut self) {
        self.visit_params_mut(&mut Param::zero_grad);
    }

    /// Total scalar parameter count.
    fn num_params(&self) -> usize {
        let mut n = 0;
        self.visit_params(&mut |p| n += p.len());
        n
    }
}

/// A layer stack's parameters: each layer's, in layer order.
impl Params for Vec<Box<dyn Layer>> {
    fn visit(&self, f: &mut dyn FnMut(&Param)) {
        self.iter().for_each(|l| l.visit_params(f));
    }

    fn visit_mut(&mut self, f: &mut dyn FnMut(&mut Param)) {
        self.iter_mut().for_each(|l| l.visit_params_mut(f));
    }
}
