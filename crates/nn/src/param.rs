//! Trainable parameters: a value tensor paired with its gradient.

use fedat_tensor::Tensor;

/// A trainable parameter and its accumulated gradient.
#[derive(Clone, Debug)]
pub struct Param {
    /// Current value.
    pub value: Tensor,
    /// Gradient accumulated by the last backward pass.
    pub grad: Tensor,
}

impl Param {
    /// Wraps a tensor as a parameter with a zeroed gradient.
    pub fn new(value: Tensor) -> Self {
        let grad = Tensor::zeros_like(&value);
        Param { value, grad }
    }

    /// Number of scalar weights.
    pub fn len(&self) -> usize {
        self.value.len()
    }

    /// Parameters always hold at least one weight.
    pub fn is_empty(&self) -> bool {
        false
    }

    /// Clears the gradient.
    pub fn zero_grad(&mut self) {
        self.grad.data_mut().fill(0.0);
    }
}

/// A model's parameters, walked in canonical order without collecting
/// references to them — what [`crate::optim::Optimizer::step`] steps and
/// what [`crate::model::Model::weights`] flattens. A training step makes no
/// allocation for its parameter list.
pub trait Params {
    /// Calls `f` on every parameter, in canonical order.
    fn visit(&self, f: &mut dyn FnMut(&Param));

    /// Calls `f` on every parameter mutably, in the order of [`Params::visit`].
    fn visit_mut(&mut self, f: &mut dyn FnMut(&mut Param));

    /// Number of parameters (tensors, not scalars).
    fn count(&self) -> usize {
        let mut n = 0;
        self.visit(&mut |_| n += 1);
        n
    }

    /// Total scalar weight count.
    fn scalar_count(&self) -> usize {
        let mut n = 0;
        self.visit(&mut |p| n += p.len());
        n
    }

    /// Every value, flattened into one canonical-order vector (its one
    /// allocation).
    fn flatten(&self) -> Vec<f32> {
        let mut flat = Vec::with_capacity(self.scalar_count());
        self.visit(&mut |p| flat.extend_from_slice(p.value.data()));
        flat
    }

    /// Overwrites every value from a canonical-order vector.
    ///
    /// # Panics
    /// Panics if `flat.len()` differs from [`Params::scalar_count`].
    fn load(&mut self, flat: &[f32]) {
        assert_eq!(
            self.scalar_count(),
            flat.len(),
            "weight vector size mismatch"
        );
        let mut off = 0usize;
        self.visit_mut(&mut |p| {
            let n = p.len();
            p.value.data_mut().copy_from_slice(&flat[off..off + n]);
            off += n;
        });
    }
}

/// A hand-built parameter list, e.g. `opt.step(&mut [&mut p, &mut q], None)`.
impl<const N: usize> Params for [&mut Param; N] {
    fn visit(&self, f: &mut dyn FnMut(&Param)) {
        self.iter().for_each(|p| f(p));
    }

    fn visit_mut(&mut self, f: &mut dyn FnMut(&mut Param)) {
        self.iter_mut().for_each(|p| f(p));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn new_param_has_zero_grad() {
        let p = Param::new(Tensor::ones(&[2, 3]));
        assert_eq!(p.len(), 6);
        assert!(p.grad.data().iter().all(|&g| g == 0.0));
    }

    #[test]
    fn zero_grad_clears() {
        let mut p = Param::new(Tensor::ones(&[4]));
        p.grad.data_mut().fill(3.0);
        p.zero_grad();
        assert!(p.grad.data().iter().all(|&g| g == 0.0));
    }
}
