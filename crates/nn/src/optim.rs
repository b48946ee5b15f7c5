//! Optimizers and the FedAT proximal term.
//!
//! The paper uses Adam as the local solver (§6, *Hyperparameters*) and adds
//! the constraint term of Eq. (3), `λ/2‖w − w_global‖²`, whose gradient
//! `λ(w − w_global)` ([`ProxTerm`]) joins the batch gradient inside
//! [`Optimizer::step`].
//!
//! **Gradients are zero at rest.** A step consumes the gradients it is
//! handed and leaves every one `+0.0`, so the next backward pass
//! accumulates straight into them ([`crate::layer`]) and nobody clears
//! them in between. Adam does all of it — prox term, moments, weight, the
//! zeroing store — in one sweep per parameter.

use crate::param::Params;
use fedat_tensor::simd::adam_sweep;

/// A first-order optimizer stepping a fixed parameter list.
///
/// State (Adam's moments) is indexed by parameter position, so
/// between two [`Optimizer::reset`]s an instance must be used with one
/// model. Federated clients are stateless between rounds: every local
/// round starts from a fresh or a reset optimizer, which are the same
/// thing bit for bit.
pub trait Optimizer: Send {
    /// Applies one update from the gradients accumulated in `params` —
    /// plus, with `prox`, the constraint gradient `λ(w − w_global)` — and
    /// leaves every gradient `+0.0`. State is matched to parameters by
    /// their position in the walk.
    fn step(&mut self, params: &mut dyn Params, prox: Option<&ProxTerm>);

    /// Forgets all state, as if newly built with the current learning
    /// rate; buffers may be kept, and may next meet a different model.
    fn reset(&mut self);

    /// Learning rate currently in effect.
    fn learning_rate(&self) -> f32;

    /// Overrides the learning rate.
    fn set_learning_rate(&mut self, lr: f32);
}

/// Adam (Kingma & Ba, 2014) with bias correction.
pub struct Adam {
    lr: f32,
    beta1: f32,
    beta2: f32,
    eps: f32,
    t: u32,
    m: Vec<Vec<f32>>,
    v: Vec<Vec<f32>>,
}

impl Adam {
    /// Adam with standard betas `(0.9, 0.999)` and `eps = 1e-8`.
    pub fn new(lr: f32) -> Self {
        assert!(lr > 0.0, "learning rate must be positive");
        Adam {
            lr,
            beta1: 0.9,
            beta2: 0.999,
            eps: 1e-8,
            t: 0,
            m: Vec::new(),
            v: Vec::new(),
        }
    }
}

impl Optimizer for Adam {
    fn step(&mut self, params: &mut dyn Params, prox: Option<&ProxTerm>) {
        // Virgin moments: whatever a previous life left in the buffers,
        // the sweep reads `0.0` — they need the right shape, not zeros.
        let virgin = self.t == 0;
        let count = params.count();
        if virgin {
            self.m.resize_with(count, Vec::new);
            self.v.resize_with(count, Vec::new);
            let mut moments = self.m.iter_mut().zip(&mut self.v);
            params.visit(&mut |p| {
                let (m, v) = moments.next().expect("one moment pair per parameter");
                m.resize(p.len(), 0.0);
                v.resize(p.len(), 0.0);
            });
        }
        assert_eq!(self.m.len(), count, "optimizer bound to a different model");
        self.t += 1;
        let step = fedat_tensor::simd::AdamParams {
            lr: self.lr,
            beta1: self.beta1,
            beta2: self.beta2,
            bc1: 1.0 - self.beta1.powi(self.t as i32),
            bc2: 1.0 - self.beta2.powi(self.t as i32),
            eps: self.eps,
        };
        // λ = 0 is no term at all (not `g + 0·(w − w_g)`, which would turn
        // a `-0.0` gradient into `+0.0`).
        let prox = prox.filter(|p| p.lambda != 0.0);
        if let Some(prox) = prox {
            prox.check_dims(params);
        }
        let mut off = 0usize;
        let mut moments = self.m.iter_mut().zip(&mut self.v);
        params.visit_mut(&mut |p| {
            let (m, v) = moments.next().expect("one moment pair per parameter");
            let (w, g) = (p.value.data_mut(), p.grad.data_mut());
            let n = w.len();
            match prox {
                Some(px) => {
                    let pull = (&px.global[off..off + n], px.lambda);
                    adam_sweep::<true>(w, g, m, v, pull, virgin, &step)
                }
                None => adam_sweep::<false>(w, g, m, v, (&[], 0.0), virgin, &step),
            }
            off += n;
        });
    }

    fn reset(&mut self) {
        self.t = 0;
    }

    fn learning_rate(&self) -> f32 {
        self.lr
    }

    fn set_learning_rate(&mut self, lr: f32) {
        self.lr = lr;
    }
}

/// The FedAT/FedProx proximal constraint of Eq. (3).
///
/// Holds the flattened global model `w_global` and the coefficient `λ`;
/// [`Optimizer::step`] adds `λ(w − w_global)` to each parameter gradient.
///
/// The global weights are held behind an `Arc`, so a server broadcasting
/// one model to many clients shares a single decoded copy instead of
/// cloning the full weight vector per dispatch.
pub struct ProxTerm {
    /// Constraint coefficient λ (the paper uses 0.4).
    pub lambda: f32,
    /// Flattened global weights in canonical parameter order (shared,
    /// zero-copy across concurrent client dispatches).
    pub global: std::sync::Arc<[f32]>,
}

impl ProxTerm {
    /// New proximal term around `global` with coefficient `lambda`.
    ///
    /// Accepts a `Vec<f32>` (owned) or an `Arc<[f32]>` (shared, zero-copy).
    pub fn new(lambda: f32, global: impl Into<std::sync::Arc<[f32]>>) -> Self {
        ProxTerm {
            lambda,
            global: global.into(),
        }
    }

    /// Asserts that the flattened parameter count equals `global.len()`.
    fn check_dims(&self, params: &dyn Params) {
        assert_eq!(
            params.scalar_count(),
            self.global.len(),
            "prox term dimension mismatch"
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::param::Param;
    use fedat_tensor::Tensor;

    fn param_with_grad(values: &[f32], grads: &[f32]) -> Param {
        let mut p = Param::new(Tensor::from_vec(values.to_vec(), &[values.len()]));
        p.grad = Tensor::from_vec(grads.to_vec(), &[grads.len()]);
        p
    }

    #[test]
    fn adam_first_step_is_lr_sized() {
        // With bias correction, |Δw| of the first Adam step ≈ lr.
        let mut p = param_with_grad(&[0.0], &[0.3]);
        let mut opt = Adam::new(0.01);
        opt.step(&mut [&mut p], None);
        assert!((p.value.data()[0].abs() - 0.01).abs() < 1e-4);
    }

    #[test]
    fn adam_converges_on_quadratic() {
        // Minimize f(w) = (w − 3)² starting from 0.
        let mut p = Param::new(Tensor::from_vec(vec![0.0], &[1]));
        let mut opt = Adam::new(0.1);
        for _ in 0..500 {
            let w = p.value.data()[0];
            p.grad.data_mut()[0] = 2.0 * (w - 3.0);
            opt.step(&mut [&mut p], None);
        }
        assert!((p.value.data()[0] - 3.0).abs() < 0.05);
    }

    /// λ = 0 is no term at all: the step equals the one without a prox
    /// term bit for bit. A `-0.0` gradient meeting a `-0.0` first moment
    /// keeps the moment `-0.0` (`g + 0·(w − w_g)` would be `+0.0`), and an
    /// infinite global weight is never read (`0·∞` is NaN).
    #[test]
    fn zero_lambda_prox_is_noop() {
        let step = |prox: Option<&ProxTerm>| {
            let mut p = param_with_grad(&[5.0, 5.0], &[-0.0, 0.25]);
            let mut opt = Adam::new(0.01);
            (opt.t, opt.m, opt.v) = (1, vec![vec![-0.0, 0.0]], vec![vec![0.0; 2]]);
            opt.step(&mut [&mut p], prox);
            let bits = |x: &[f32]| x.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
            [bits(p.value.data()), bits(&opt.m[0]), bits(&opt.v[0])]
        };
        let prox = ProxTerm::new(0.0, vec![1.0, f32::INFINITY]);
        assert_eq!(step(Some(&prox)), step(None));
    }

    #[test]
    #[should_panic(expected = "dimension mismatch")]
    fn prox_rejects_wrong_size() {
        let mut p = param_with_grad(&[1.0, 2.0], &[0.0, 0.0]);
        let prox = ProxTerm::new(0.4, vec![0.0]);
        Adam::new(0.01).step(&mut [&mut p], Some(&prox));
    }
}
