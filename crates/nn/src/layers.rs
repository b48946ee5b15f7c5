//! Concrete layers: Dense, Relu, Conv2d, MaxPool2d — every layer a
//! [`crate::models::ModelSpec`] builds.
//!
//! All layers exchange rank-2 tensors `[batch, features]`; the convolutional
//! layers carry their own spatial geometry and (un)flatten internally, which
//! keeps [`crate::model::Sequential`] a simple pipeline of matrices.

use crate::layer::{Layer, Mode};
use crate::param::Param;
use fedat_tensor::conv::{
    conv2d_backward_input, conv2d_backward_params_into, conv2d_forward, maxpool2d_backward,
    maxpool2d_forward, Conv2dSpec, ConvPlan,
};
use fedat_tensor::ops::matmul_tn_into;
use fedat_tensor::Tensor;
use rand::Rng;

// ----------------------------------------------------------------------
// Dense
// ----------------------------------------------------------------------

/// Fully-connected layer: `y = x·W + b` with `W: [in, out]`.
pub struct Dense {
    w: Param,
    b: Param,
    cached_input: Option<Tensor>,
}

impl Dense {
    /// Kaiming-initialized dense layer.
    pub fn new<R: Rng + ?Sized>(rng: &mut R, in_dim: usize, out_dim: usize) -> Self {
        Dense {
            w: Param::new(Tensor::kaiming(rng, &[in_dim, out_dim], in_dim)),
            b: Param::new(Tensor::zeros(&[out_dim])),
            cached_input: None,
        }
    }

    /// The parameter half of the backward pass; consumes the cached input.
    fn accumulate_grads(&mut self, grad_out: &Tensor) {
        let x = self
            .cached_input
            .take()
            .expect("Dense::backward called without a Train forward");
        // dW += xᵀ · dY and db += column sums of dY, straight onto the
        // gradients: they are zero at rest, so this is the sum itself.
        let ((batch, in_dim), dw) = (x.shape().as_matrix(), self.w.grad.data_mut());
        matmul_tn_into(x.data(), grad_out.data(), dw, in_dim, batch, self.b.len());
        x.recycle();
        grad_out.add_rows_into(self.b.grad.data_mut());
    }
}

impl Layer for Dense {
    fn forward(&mut self, input: Tensor, mode: Mode) -> Tensor {
        let mut out = input.matmul(&self.w.value);
        out.add_row_bias(&self.b.value);
        if mode == Mode::Train {
            self.cached_input = Some(input);
        } else {
            input.recycle();
        }
        out
    }

    fn forward_ref(&mut self, input: &Tensor, mode: Mode) -> Tensor {
        // Reads the batch in place: no input copy in Eval, and in Train the
        // backward cache is a scratch-arena copy instead of a fresh clone.
        let mut out = input.matmul(&self.w.value);
        out.add_row_bias(&self.b.value);
        if mode == Mode::Train {
            self.cached_input = Some(input.clone_scratch());
        }
        out
    }

    fn backward(&mut self, grad_out: Tensor) -> Tensor {
        self.accumulate_grads(&grad_out);
        // dX = dY · Wᵀ
        let dx = grad_out.matmul_nt(&self.w.value);
        grad_out.recycle();
        dx
    }

    fn backward_params_only(&mut self, grad_out: Tensor) {
        self.accumulate_grads(&grad_out);
        grad_out.recycle();
    }

    fn visit_params(&self, f: &mut dyn FnMut(&Param)) {
        f(&self.w);
        f(&self.b);
    }

    fn visit_params_mut(&mut self, f: &mut dyn FnMut(&mut Param)) {
        f(&mut self.w);
        f(&mut self.b);
    }
}

// ----------------------------------------------------------------------
// Relu
// ----------------------------------------------------------------------

/// Rectified linear unit.
#[derive(Default)]
pub struct Relu {
    mask: Option<Vec<bool>>,
    /// Retired mask buffer, reused by the next Train forward so steady-state
    /// training allocates nothing.
    spare_mask: Vec<bool>,
}

impl Relu {
    /// New ReLU layer.
    pub fn new() -> Self {
        Self::default()
    }
}

impl Layer for Relu {
    fn forward(&mut self, mut input: Tensor, mode: Mode) -> Tensor {
        if mode == Mode::Train {
            let mut mask = std::mem::take(&mut self.spare_mask);
            mask.clear();
            mask.extend(input.data().iter().map(|&x| x > 0.0));
            self.mask = Some(mask);
        }
        fedat_tensor::simd::relu(input.data_mut());
        input
    }

    fn backward(&mut self, mut grad_out: Tensor) -> Tensor {
        let mask = self
            .mask
            .take()
            .expect("Relu::backward without Train forward");
        // A select, not a branch: the mask is a coin flip per element.
        for (g, &keep) in grad_out.data_mut().iter_mut().zip(mask.iter()) {
            *g = f32::from_bits(g.to_bits() & (keep as u32).wrapping_neg());
        }
        self.spare_mask = mask;
        grad_out
    }
}

// ----------------------------------------------------------------------
// Conv2d + MaxPool2d (flat 2-D interface)
// ----------------------------------------------------------------------

/// 2-D convolution over inputs given as flattened rows
/// `[batch, in_channels·h·w]`; emits `[batch, out_channels·oh·ow]`.
pub struct Conv2d {
    plan: ConvPlan,
    weight: Param,
    bias: Param,
    /// The batch's column matrices, kept by a Train forward for backward.
    cached_cols: Option<Vec<f32>>,
}

impl Conv2d {
    /// New convolution layer for `h × w` inputs.
    pub fn new<R: Rng + ?Sized>(rng: &mut R, spec: Conv2dSpec, h: usize, w: usize) -> Self {
        let fan_in = spec.in_channels * spec.kernel * spec.kernel;
        Conv2d {
            plan: ConvPlan::new(spec, h, w),
            weight: Param::new(Tensor::kaiming(rng, &[spec.out_channels, fan_in], fan_in)),
            bias: Param::new(Tensor::zeros(&[spec.out_channels])),
            cached_cols: None,
        }
    }

    /// Flattened output feature count (`out_channels · oh · ow`).
    pub fn out_features(&self) -> usize {
        self.plan.spec.out_channels * self.plan.cols_dims().1
    }

    /// Restores `grad_out`'s `[batch, out_channels, oh, ow]` shape and
    /// accumulates the parameter gradients; consumes the cached columns.
    fn accumulate_grads(&mut self, grad_out: Tensor) -> Tensor {
        let cols = self
            .cached_cols
            .take()
            .expect("Conv2d::backward without Train forward");
        let spec = self.plan.spec;
        let (oh, ow) = spec.out_hw(self.plan.h(), self.plan.w());
        let batch = grad_out.dims()[0];
        let dy = grad_out.reshape(&[batch, spec.out_channels, oh, ow]);
        let (dw, db) = (self.weight.grad.data_mut(), self.bias.grad.data_mut());
        conv2d_backward_params_into(&dy, &cols, &self.plan, dw, db);
        fedat_tensor::scratch::recycle(cols);
        dy
    }
}

impl Layer for Conv2d {
    fn forward(&mut self, input: Tensor, mode: Mode) -> Tensor {
        let out = self.forward_ref(&input, mode);
        input.recycle();
        out
    }

    fn forward_ref(&mut self, input: &Tensor, mode: Mode) -> Tensor {
        // The im2col kernel reads the batch in place — no input copy in
        // either mode; Train retains only the column matrices.
        let (n, feat) = input.shape().as_matrix();
        let spec = self.plan.spec;
        assert_eq!(
            feat,
            spec.in_channels * self.plan.h() * self.plan.w(),
            "conv2d input features mismatch"
        );
        let (out, cols) = conv2d_forward(
            input,
            &self.weight.value,
            &self.bias.value,
            &self.plan,
            mode == Mode::Train,
        );
        if mode == Mode::Train {
            self.cached_cols = Some(cols);
        } else {
            fedat_tensor::scratch::recycle(cols);
        }
        let of = self.out_features();
        out.reshape(&[n, of])
    }

    fn backward(&mut self, grad_out: Tensor) -> Tensor {
        let dy = self.accumulate_grads(grad_out);
        let dx = conv2d_backward_input(&dy, &self.weight.value, &self.plan);
        let batch = dy.dims()[0];
        dy.recycle();
        dx.reshape(&[
            batch,
            self.plan.spec.in_channels * self.plan.h() * self.plan.w(),
        ])
    }

    fn backward_params_only(&mut self, grad_out: Tensor) {
        self.accumulate_grads(grad_out).recycle();
    }

    fn visit_params(&self, f: &mut dyn FnMut(&Param)) {
        f(&self.weight);
        f(&self.bias);
    }

    fn visit_params_mut(&mut self, f: &mut dyn FnMut(&mut Param)) {
        f(&mut self.weight);
        f(&mut self.bias);
    }
}

/// Non-overlapping `k × k` max pooling over flat `[batch, c·h·w]` rows.
pub struct MaxPool2d {
    c: usize,
    h: usize,
    w: usize,
    k: usize,
    /// Whether `argmax` holds a Train forward's routing for backward.
    cached: bool,
    /// The argmax indices of the last forward; the buffer is reused from
    /// batch to batch so steady-state training allocates nothing.
    argmax: Vec<u32>,
}

impl MaxPool2d {
    /// New pooling layer for `c`-channel `h × w` inputs.
    pub fn new(c: usize, h: usize, w: usize, k: usize) -> Self {
        assert!(
            h.is_multiple_of(k) && w.is_multiple_of(k),
            "pooling window must tile the input"
        );
        MaxPool2d {
            c,
            h,
            w,
            k,
            cached: false,
            argmax: Vec::new(),
        }
    }

    /// Flattened output feature count.
    pub fn out_features(&self) -> usize {
        self.c * (self.h / self.k) * (self.w / self.k)
    }
}

impl Layer for MaxPool2d {
    fn forward(&mut self, input: Tensor, mode: Mode) -> Tensor {
        let (n, feat) = input.shape().as_matrix();
        assert_eq!(
            feat,
            self.c * self.h * self.w,
            "maxpool input features mismatch"
        );
        let x = input.reshape(&[n, self.c, self.h, self.w]);
        let out = maxpool2d_forward(&x, self.k, &mut self.argmax);
        x.recycle();
        self.cached = mode == Mode::Train;
        out.reshape(&[n, self.out_features()])
    }

    fn backward(&mut self, grad_out: Tensor) -> Tensor {
        assert!(
            std::mem::take(&mut self.cached),
            "MaxPool2d::backward without Train forward"
        );
        let n = grad_out.shape().as_matrix().0;
        let (oh, ow) = (self.h / self.k, self.w / self.k);
        let dy = grad_out.reshape(&[n, self.c, oh, ow]);
        let dx = maxpool2d_backward(&dy, &self.argmax, n * self.c * self.h * self.w);
        dy.recycle();
        dx.reshape(&[n, self.c * self.h * self.w])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fedat_tensor::rng::rng_for;

    #[test]
    fn dense_forward_matches_manual() {
        let mut rng = rng_for(1, 1);
        let mut d = Dense::new(&mut rng, 3, 2);
        // Overwrite with known weights.
        d.w.value = Tensor::from_vec(vec![1.0, 0.0, 0.0, 1.0, 1.0, 1.0], &[3, 2]);
        d.b.value = Tensor::from_vec(vec![0.5, -0.5], &[2]);
        let x = Tensor::from_vec(vec![1.0, 2.0, 3.0], &[1, 3]);
        let y = d.forward(x, Mode::Eval);
        // y0 = 1·1 + 2·0 + 3·1 + 0.5 = 4.5 ; y1 = 1·0 + 2·1 + 3·1 − 0.5 = 4.5
        assert_eq!(y.data(), &[4.5, 4.5]);
    }

    #[test]
    fn dense_gradcheck() {
        let mut rng = rng_for(2, 1);
        let mut d = Dense::new(&mut rng, 4, 3);
        let x = Tensor::randn(&mut rng, &[5, 4], 0.0, 1.0);
        // Loss = sum(dense(x)) → dY = ones.
        let y = d.forward(x.clone(), Mode::Train);
        let dx = d.backward(Tensor::ones(y.dims()));
        let eps = 1e-2f32;
        // Check dW numerically at a few positions.
        for wi in [0usize, 5, 11] {
            let orig = d.w.value.data()[wi];
            d.w.value.data_mut()[wi] = orig + eps;
            let lp = d.forward(x.clone(), Mode::Eval).sum();
            d.w.value.data_mut()[wi] = orig - eps;
            let lm = d.forward(x.clone(), Mode::Eval).sum();
            d.w.value.data_mut()[wi] = orig;
            let num = (lp - lm) / (2.0 * eps);
            let ana = d.w.grad.data()[wi];
            assert!(
                (num - ana).abs() < 2e-2,
                "dW[{wi}] numeric {num} vs analytic {ana}"
            );
        }
        // Check dx numerically at one position.
        let mut x2 = x.clone();
        let xi = 7;
        let orig = x2.data()[xi];
        x2.data_mut()[xi] = orig + eps;
        let lp = d.forward(x2.clone(), Mode::Eval).sum();
        x2.data_mut()[xi] = orig - eps;
        let lm = d.forward(x2.clone(), Mode::Eval).sum();
        let num = (lp - lm) / (2.0 * eps);
        assert!((num - dx.data()[xi]).abs() < 2e-2);
    }

    #[test]
    fn relu_masks_gradient() {
        let mut r = Relu::new();
        let x = Tensor::from_vec(vec![-1.0, 2.0, -3.0, 4.0], &[1, 4]);
        let y = r.forward(x, Mode::Train);
        assert_eq!(y.data(), &[0.0, 2.0, 0.0, 4.0]);
        let g = r.backward(Tensor::ones(&[1, 4]));
        assert_eq!(g.data(), &[0.0, 1.0, 0.0, 1.0]);
    }

    #[test]
    fn conv_layer_shapes_flow() {
        let mut rng = rng_for(4, 1);
        let spec = Conv2dSpec {
            in_channels: 3,
            out_channels: 8,
            kernel: 3,
            stride: 1,
            padding: 1,
        };
        let mut conv = Conv2d::new(&mut rng, spec, 8, 8);
        let x = Tensor::randn(&mut rng, &[2, 3 * 64], 0.0, 1.0);
        let y = conv.forward(x, Mode::Train);
        assert_eq!(y.dims(), &[2, 8 * 64]);
        let dx = conv.backward(Tensor::ones(y.dims()));
        assert_eq!(dx.dims(), &[2, 3 * 64]);
        assert!(conv.weight.grad.norm() > 0.0);
    }

    #[test]
    fn maxpool_layer_halves_spatial_dims() {
        let mut rng = rng_for(5, 1);
        let mut pool = MaxPool2d::new(4, 8, 8, 2);
        let x = Tensor::randn(&mut rng, &[3, 4 * 64], 0.0, 1.0);
        let y = pool.forward(x, Mode::Train);
        assert_eq!(y.dims(), &[3, 4 * 16]);
        let dx = pool.backward(Tensor::ones(y.dims()));
        assert_eq!(dx.dims(), &[3, 4 * 64]);
        // Pool routes each gradient to exactly one input: total mass conserved.
        assert_eq!(dx.sum(), (3 * 4 * 16) as f32);
    }
}
