//! Convolution and pooling kernels (NCHW layout) via im2col.
//!
//! Sized for the reproduction's `cnn_lite` models: correctness and
//! determinism first, with the matmul stage reusing the kernels in
//! [`crate::ops`] — and therefore the SIMD micro-kernel layer
//! ([`crate::simd`]) backing them.

use crate::ops::{matmul_into, matmul_nt_into, matmul_tn_into};
use crate::tensor::Tensor;

/// Geometry of a 2-D convolution or pooling window.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Conv2dSpec {
    /// Input channels.
    pub in_channels: usize,
    /// Output channels (ignored by pooling).
    pub out_channels: usize,
    /// Square kernel side.
    pub kernel: usize,
    /// Stride in both dimensions.
    pub stride: usize,
    /// Zero padding on every border.
    pub padding: usize,
}

impl Conv2dSpec {
    /// Output spatial size for an `h × w` input.
    ///
    /// # Panics
    /// Panics if the window does not fit the padded input.
    pub fn out_hw(&self, h: usize, w: usize) -> (usize, usize) {
        let ph = h + 2 * self.padding;
        let pw = w + 2 * self.padding;
        assert!(
            ph >= self.kernel && pw >= self.kernel,
            "kernel {} does not fit padded input {ph}×{pw}",
            self.kernel
        );
        (
            (ph - self.kernel) / self.stride + 1,
            (pw - self.kernel) / self.stride + 1,
        )
    }
}

/// Where every tap of a convolution over `h × w` planes reads: one entry
/// per `(ky, kx, oy, ox)`, built once per layer, the same for every channel
/// and sample. [`ConvPlan::im2col`] and [`ConvPlan::col2im`] walk it instead
/// of re-deriving (and bounds-testing) `iy`/`ix` per element.
#[derive(Clone, Debug)]
pub struct ConvPlan {
    /// The convolution's geometry.
    pub spec: Conv2dSpec,
    /// Input plane height.
    pub h: usize,
    /// Input plane width.
    pub w: usize,
    /// `[K·K, OH·OW]` pairs `(offset, keep)`: the plane offset a tap reads
    /// and all ones — or, where the tap falls in the zero padding, some
    /// in-range offset (a different one from entry to entry) and zero.
    /// `keep` is data, not a predicate, so the consumers below stay a load,
    /// an AND and a store per element, with no branch for the compiler to
    /// rediscover.
    taps: Vec<(u32, u32)>,
}

impl ConvPlan {
    /// Plans `spec` over `h × w` input planes.
    ///
    /// # Panics
    /// Panics if the window does not fit the padded input, or a plane has
    /// more than 2³² elements.
    pub fn new(spec: Conv2dSpec, h: usize, w: usize) -> Self {
        let (oh, ow) = spec.out_hw(h, w);
        assert!(spec.kernel > 0, "conv kernel must be positive");
        assert!(h * w <= u32::MAX as usize, "conv plane too large to plan");
        let (k, stride, pad) = (spec.kernel, spec.stride, spec.padding as isize);
        let mut taps = Vec::with_capacity(k * k * oh * ow);
        for ky in 0..k {
            for kx in 0..k {
                for oy in 0..oh {
                    let iy = (oy * stride + ky) as isize - pad;
                    for ox in 0..ow {
                        let ix = (ox * stride + kx) as isize - pad;
                        taps.push(
                            if iy >= 0 && iy < h as isize && ix >= 0 && ix < w as isize {
                                ((iy as usize * w + ix as usize) as u32, u32::MAX)
                            } else {
                                (((oy * ow + ox) % (h * w)) as u32, 0)
                            },
                        );
                    }
                }
            }
        }
        ConvPlan { spec, h, w, taps }
    }

    /// `(rows, columns)` of one sample's column matrix: `(C_in·K·K, OH·OW)`.
    pub fn cols_dims(&self) -> (usize, usize) {
        let kk = self.spec.kernel * self.spec.kernel;
        (self.spec.in_channels * kk, self.taps.len() / kk)
    }

    /// Unfolds one image `[C, H, W]` into its `[C·K·K, OH·OW]` column
    /// matrix. Writes every element of `cols`, which may start
    /// uninitialized.
    ///
    /// # Panics
    /// Panics if `img` is not `C·H·W` long or `cols` not the
    /// [`Self::cols_dims`] product.
    pub fn im2col(&self, img: &[f32], cols: &mut [std::mem::MaybeUninit<f32>]) {
        let hw = self.h * self.w;
        assert_eq!(img.len(), self.spec.in_channels * hw, "image size mismatch");
        assert_eq!(
            cols.len(),
            self.spec.in_channels * self.taps.len(),
            "cols size mismatch"
        );
        for (plane, rows) in img
            .chunks_exact(hw)
            .zip(cols.chunks_exact_mut(self.taps.len()))
        {
            for (out, &(at, keep)) in rows.iter_mut().zip(&self.taps) {
                out.write(f32::from_bits(plane[at as usize].to_bits() & keep));
            }
        }
    }

    /// Folds a `[C·K·K, OH·OW]` column matrix back into an image,
    /// accumulating overlapping contributions tap by tap (the adjoint of
    /// [`Self::im2col`]).
    ///
    /// # Panics
    /// Panics on the size mismatches [`Self::im2col`] panics on.
    pub fn col2im(&self, cols: &[f32], img: &mut [f32]) {
        let hw = self.h * self.w;
        assert_eq!(img.len(), self.spec.in_channels * hw, "image size mismatch");
        assert_eq!(
            cols.len(),
            self.spec.in_channels * self.taps.len(),
            "cols size mismatch"
        );
        for (plane, rows) in img
            .chunks_exact_mut(hw)
            .zip(cols.chunks_exact(self.taps.len()))
        {
            for (&v, &(at, keep)) in rows.iter().zip(&self.taps) {
                // A padding tap adds -0.0, the one addend that leaves every
                // f32 as it was (+0.0 included).
                let add = (v.to_bits() & keep) | ((-0.0f32).to_bits() & !keep);
                plane[at as usize] += f32::from_bits(add);
            }
        }
    }
}

/// Forward convolution.
///
/// * `input` — `[N, C_in, H, W]`
/// * `weight` — `[C_out, C_in · K · K]` (pre-flattened filter bank)
/// * `bias` — `[C_out]`
///
/// Returns `[N, C_out, OH, OW]` and, with `keep_cols`, the samples' column
/// matrices back to back (`[N, C_in·K·K, OH·OW]`, one scratch buffer) for
/// the backward pass; without it one sample-sized buffer is reused and
/// comes back holding the last sample's. Recycle it either way.
pub fn conv2d_forward(
    input: &Tensor,
    weight: &Tensor,
    bias: &Tensor,
    plan: &ConvPlan,
    keep_cols: bool,
) -> (Tensor, Vec<f32>) {
    let n = input.dims()[0];
    let cout = plan.spec.out_channels;
    let img_len = plan.spec.in_channels * plan.h * plan.w;
    let (col_rows, col_cols) = plan.cols_dims();
    let sample = col_rows * col_cols;
    assert_eq!(input.len(), n * img_len, "conv input size mismatch");
    assert_eq!(
        weight.dims(),
        &[cout, col_rows],
        "conv weight shape mismatch"
    );
    assert_eq!(bias.len(), cout, "conv bias shape mismatch");
    let (oh, ow) = plan.spec.out_hw(plan.h, plan.w);

    let mut out = Tensor::zeros_scratch(&[n, cout, oh, ow]);
    let mut cols = crate::scratch::take_empty(if keep_cols { n * sample } else { sample });
    for (img, out_slice) in input
        .data()
        .chunks_exact(img_len)
        .zip(out.data_mut().chunks_exact_mut(cout * col_cols))
    {
        if !keep_cols {
            cols.clear();
        }
        let start = cols.len();
        plan.im2col(img, &mut cols.spare_capacity_mut()[..sample]);
        // SAFETY: `take_empty` reserved room for every sample's columns
        // (one sample's when they are not kept), and `im2col` just
        // initialized all `sample` elements past `start`.
        unsafe { cols.set_len(start + sample) };
        matmul_into(
            weight.data(),
            &cols[start..],
            out_slice,
            cout,
            col_rows,
            col_cols,
        );
        for (plane, &b) in out_slice.chunks_exact_mut(col_cols).zip(bias.data()) {
            crate::simd::add_scalar(plane, b);
        }
    }
    (out, cols)
}

/// The parameter half of the backward pass: `(d_weight, d_bias)` from the
/// column matrices [`conv2d_forward`] kept.
pub fn conv2d_backward_params(d_out: &Tensor, cols: &[f32], plan: &ConvPlan) -> (Tensor, Tensor) {
    let cout = plan.spec.out_channels;
    let mut d_weight = Tensor::zeros_scratch(&[cout, plan.cols_dims().0]);
    let mut d_bias = Tensor::zeros_scratch(&[cout]);
    conv2d_backward_params_into(d_out, cols, plan, d_weight.data_mut(), d_bias.data_mut());
    (d_weight, d_bias)
}

/// [`conv2d_backward_params`] accumulated onto the caller's `d_weight`
/// (`[C_out, C_in·K·K]`) and `d_bias` (`[C_out]`) — a layer's gradients,
/// zero at rest, so nothing is summed into a scratch pair and copied over.
pub fn conv2d_backward_params_into(
    d_out: &Tensor,
    cols: &[f32],
    plan: &ConvPlan,
    d_weight: &mut [f32],
    d_bias: &mut [f32],
) {
    let n = d_out.dims()[0];
    let cout = plan.spec.out_channels;
    let (col_rows, col_cols) = plan.cols_dims();
    let sample = col_rows * col_cols;
    assert_eq!(d_out.len(), n * cout * col_cols, "conv d_out size mismatch");
    assert_eq!(cols.len(), n * sample, "saved cols batch mismatch");
    assert_eq!(d_bias.len(), cout, "conv d_bias size mismatch");

    for (dy, cols) in d_out
        .data()
        .chunks_exact(cout * col_cols)
        .zip(cols.chunks_exact(sample))
    {
        // dW += dY · colsᵀ  (dY: [cout, col_cols], cols: [col_rows, col_cols])
        matmul_nt_into(dy, cols, d_weight, cout, col_cols, col_rows);
        // d_bias += row sums of dY
        for (db, plane) in d_bias.iter_mut().zip(dy.chunks_exact(col_cols)) {
            *db += plane.iter().sum::<f32>();
        }
    }
}

/// The input half of the backward pass: `d_input` (`[N, C_in, H, W]`).
pub fn conv2d_backward_input(d_out: &Tensor, weight: &Tensor, plan: &ConvPlan) -> Tensor {
    let n = d_out.dims()[0];
    let (cin, cout) = (plan.spec.in_channels, plan.spec.out_channels);
    let (col_rows, col_cols) = plan.cols_dims();
    let sample = col_rows * col_cols;
    assert_eq!(d_out.len(), n * cout * col_cols, "conv d_out size mismatch");
    assert_eq!(
        weight.dims(),
        &[cout, col_rows],
        "conv weight shape mismatch"
    );

    let mut d_input = Tensor::zeros_scratch(&[n, cin, plan.h, plan.w]);
    let mut d_cols = crate::scratch::take_empty(sample);
    for (dy, d_img) in d_out
        .data()
        .chunks_exact(cout * col_cols)
        .zip(d_input.data_mut().chunks_exact_mut(cin * plan.h * plan.w))
    {
        // dCols = Wᵀ · dY  ([col_rows, col_cols])
        d_cols.clear();
        d_cols.resize(sample, 0.0);
        matmul_tn_into(weight.data(), dy, &mut d_cols, col_rows, cout, col_cols);
        plan.col2im(&d_cols, d_img);
    }
    crate::scratch::recycle(d_cols);
    d_input
}

/// Forward max pooling over `[N, C, H, W]` with a `k × k` window and stride
/// `k` (non-overlapping). Returns the pooled tensor and fills `argmax` (the
/// caller's buffer, so a layer can reuse one) with the flat indices into
/// the input that the backward pass routes through.
pub fn maxpool2d_forward(input: &Tensor, k: usize, argmax: &mut Vec<u32>) -> Tensor {
    let dims = input.dims();
    assert_eq!(dims.len(), 4, "maxpool expects NCHW input");
    let (n, c, h, w) = (dims[0], dims[1], dims[2], dims[3]);
    assert!(
        k > 0 && h >= k && w >= k,
        "pool window {k} too large for {h}×{w}"
    );
    let oh = h / k;
    let ow = w / k;
    let mut out = Tensor::zeros_scratch(&[n, c, oh, ow]);
    argmax.clear();
    argmax.resize(n * c * oh * ow, 0);
    let src = input.data();
    let dst = out.data_mut();
    for img in 0..n * c {
        let plane = &src[img * h * w..];
        for oy in 0..oh {
            for ox in 0..ow {
                let mut best = f32::NEG_INFINITY;
                let mut best_idx = 0usize;
                for dy in 0..k {
                    for dx in 0..k {
                        let iy = oy * k + dy;
                        let ix = ox * k + dx;
                        let idx = iy * w + ix;
                        let v = plane[idx];
                        if v > best {
                            best = v;
                            best_idx = idx;
                        }
                    }
                }
                let o = img * oh * ow + oy * ow + ox;
                dst[o] = best;
                argmax[o] = (img * h * w + best_idx) as u32;
            }
        }
    }
    out
}

/// Backward max pooling: routes each output gradient to its argmax input.
pub fn maxpool2d_backward(d_out: &Tensor, argmax: &[u32], input_len: usize) -> Tensor {
    assert_eq!(d_out.len(), argmax.len(), "argmax/d_out length mismatch");
    let mut d_in = crate::scratch::take_zeroed(input_len);
    for (g, &idx) in d_out.data().iter().zip(argmax.iter()) {
        d_in[idx as usize] += g;
    }
    let dims = d_out.dims();
    // Shape is restored by the caller (who knows H and W); return flat here.
    Tensor::from_vec(d_in, &[dims[0], input_len / dims[0]])
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::rng_for;

    /// Direct (quadruple-loop) convolution for cross-checking.
    fn naive_conv(
        input: &Tensor,
        weight: &Tensor,
        bias: &Tensor,
        h: usize,
        w: usize,
        spec: &Conv2dSpec,
    ) -> Tensor {
        let n = input.dims()[0];
        let (oh, ow) = spec.out_hw(h, w);
        let k = spec.kernel;
        let mut out = Tensor::zeros(&[n, spec.out_channels, oh, ow]);
        for i in 0..n {
            for co in 0..spec.out_channels {
                for oy in 0..oh {
                    for ox in 0..ow {
                        let mut acc = bias.data()[co];
                        for ci in 0..spec.in_channels {
                            for ky in 0..k {
                                for kx in 0..k {
                                    let iy =
                                        (oy * spec.stride + ky) as isize - spec.padding as isize;
                                    let ix =
                                        (ox * spec.stride + kx) as isize - spec.padding as isize;
                                    if iy >= 0 && iy < h as isize && ix >= 0 && ix < w as isize {
                                        let iv = input.data()[((i * spec.in_channels + ci) * h
                                            + iy as usize)
                                            * w
                                            + ix as usize];
                                        let wv = weight.data()[co * spec.in_channels * k * k
                                            + ci * k * k
                                            + ky * k
                                            + kx];
                                        acc += iv * wv;
                                    }
                                }
                            }
                        }
                        out.data_mut()[((i * spec.out_channels + co) * oh + oy) * ow + ox] = acc;
                    }
                }
            }
        }
        out
    }

    #[test]
    fn out_hw_formula() {
        let spec = Conv2dSpec {
            in_channels: 1,
            out_channels: 1,
            kernel: 3,
            stride: 1,
            padding: 1,
        };
        assert_eq!(spec.out_hw(8, 8), (8, 8));
        let spec2 = Conv2dSpec {
            in_channels: 1,
            out_channels: 1,
            kernel: 2,
            stride: 2,
            padding: 0,
        };
        assert_eq!(spec2.out_hw(8, 8), (4, 4));
    }

    #[test]
    fn im2col_conv_matches_naive() {
        let mut rng = rng_for(10, 1);
        let spec = Conv2dSpec {
            in_channels: 3,
            out_channels: 4,
            kernel: 3,
            stride: 1,
            padding: 1,
        };
        let (h, w) = (6, 5);
        let input = Tensor::randn(&mut rng, &[2, 3, h, w], 0.0, 1.0);
        let weight = Tensor::randn(&mut rng, &[4, 3 * 9], 0.0, 0.5);
        let bias = Tensor::randn(&mut rng, &[4], 0.0, 0.1);
        let (got, _) = conv2d_forward(&input, &weight, &bias, &ConvPlan::new(spec, h, w), false);
        let want = naive_conv(&input, &weight, &bias, h, w, &spec);
        assert_eq!(got.dims(), want.dims());
        for (g, e) in got.data().iter().zip(want.data().iter()) {
            assert!((g - e).abs() < 1e-4, "{g} vs {e}");
        }
    }

    #[test]
    fn strided_no_padding_conv_matches_naive() {
        let mut rng = rng_for(11, 1);
        let spec = Conv2dSpec {
            in_channels: 2,
            out_channels: 3,
            kernel: 2,
            stride: 2,
            padding: 0,
        };
        let (h, w) = (8, 8);
        let input = Tensor::randn(&mut rng, &[1, 2, h, w], 0.0, 1.0);
        let weight = Tensor::randn(&mut rng, &[3, 2 * 4], 0.0, 0.5);
        let bias = Tensor::zeros(&[3]);
        let (got, _) = conv2d_forward(&input, &weight, &bias, &ConvPlan::new(spec, h, w), false);
        let want = naive_conv(&input, &weight, &bias, h, w, &spec);
        for (g, e) in got.data().iter().zip(want.data().iter()) {
            assert!((g - e).abs() < 1e-4);
        }
    }

    #[test]
    fn col2im_is_adjoint_of_im2col() {
        // <im2col(x), y> must equal <x, col2im(y)> — the defining property of
        // the adjoint, which backprop correctness relies on.
        let mut rng = rng_for(12, 1);
        let spec = Conv2dSpec {
            in_channels: 2,
            out_channels: 1,
            kernel: 3,
            stride: 1,
            padding: 1,
        };
        let (c, h, w) = (2, 5, 4);
        let (oh, ow) = spec.out_hw(h, w);
        let x = Tensor::randn(&mut rng, &[c, h, w], 0.0, 1.0);
        let y = Tensor::randn(&mut rng, &[c * 9, oh * ow], 0.0, 1.0);
        let plan = ConvPlan::new(spec, h, w);
        let mut cols = Vec::with_capacity(c * 9 * oh * ow);
        plan.im2col(x.data(), cols.spare_capacity_mut());
        // SAFETY: `im2col` initialized the whole (exactly sized) capacity.
        unsafe { cols.set_len(c * 9 * oh * ow) };
        let lhs: f64 = cols
            .iter()
            .zip(y.data())
            .map(|(&a, &b)| a as f64 * b as f64)
            .sum();
        let mut back = vec![0.0f32; c * h * w];
        plan.col2im(y.data(), &mut back);
        let rhs: f64 = x
            .data()
            .iter()
            .zip(back.iter())
            .map(|(&a, &b)| a as f64 * b as f64)
            .sum();
        assert!((lhs - rhs).abs() < 1e-3, "{lhs} vs {rhs}");
    }

    #[test]
    fn conv_backward_gradients_match_finite_differences() {
        let mut rng = rng_for(13, 1);
        let spec = Conv2dSpec {
            in_channels: 1,
            out_channels: 2,
            kernel: 3,
            stride: 1,
            padding: 1,
        };
        let (h, w) = (4, 4);
        let input = Tensor::randn(&mut rng, &[1, 1, h, w], 0.0, 1.0);
        let mut weight = Tensor::randn(&mut rng, &[2, 9], 0.0, 0.5);
        let bias = Tensor::zeros(&[2]);

        // Loss = sum(conv(input)); d_out = ones.
        let plan = ConvPlan::new(spec, h, w);
        let (out, cols) = conv2d_forward(&input, &weight, &bias, &plan, true);
        let d_out = Tensor::ones(out.dims());
        let (d_w, d_b) = conv2d_backward_params(&d_out, &cols, &plan);

        let eps = 1e-3f32;
        for wi in [0usize, 4, 8, 13] {
            let orig = weight.data()[wi];
            weight.data_mut()[wi] = orig + eps;
            let (out_p, _) = conv2d_forward(&input, &weight, &bias, &plan, false);
            weight.data_mut()[wi] = orig - eps;
            let (out_m, _) = conv2d_forward(&input, &weight, &bias, &plan, false);
            weight.data_mut()[wi] = orig;
            let num = (out_p.sum() - out_m.sum()) / (2.0 * eps);
            let ana = d_w.data()[wi];
            assert!(
                (num - ana).abs() < 2e-2,
                "dW[{wi}]: numeric {num} vs analytic {ana}"
            );
        }
        // Bias gradient of sum-loss is simply the number of output pixels.
        let (oh, ow) = spec.out_hw(h, w);
        for b in d_b.data() {
            assert!((b - (oh * ow) as f32).abs() < 1e-3);
        }
    }

    #[test]
    fn maxpool_forward_and_routing() {
        let input = Tensor::from_vec(
            vec![
                1.0, 2.0, 5.0, 4.0, //
                3.0, 0.0, 1.0, 1.0, //
                0.0, 0.0, 9.0, 1.0, //
                0.0, 7.0, 1.0, 1.0,
            ],
            &[1, 1, 4, 4],
        );
        let mut argmax = Vec::new();
        let out = maxpool2d_forward(&input, 2, &mut argmax);
        assert_eq!(out.dims(), &[1, 1, 2, 2]);
        assert_eq!(out.data(), &[3.0, 5.0, 7.0, 9.0]);
        let d_out = Tensor::from_vec(vec![1.0, 1.0, 1.0, 1.0], &[1, 1, 2, 2]);
        let d_in = maxpool2d_backward(&d_out, &argmax, 16);
        let expect_hot = [4usize, 2, 13, 10];
        for (i, v) in d_in.data().iter().enumerate() {
            let want = if expect_hot.contains(&i) { 1.0 } else { 0.0 };
            assert_eq!(*v, want, "at {i}");
        }
    }
}
