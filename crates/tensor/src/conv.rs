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

/// Whether an `h × w` plane has fewer than 2³¹ elements, so every offset
/// into it is a non-negative `i32`: the index type of `vpgatherdd`.
fn plane_fits_gather(h: usize, w: usize) -> bool {
    h.checked_mul(w).is_some_and(|hw| hw <= i32::MAX as usize)
}

/// Where every tap of a convolution over `h × w` planes reads, and where
/// every input pixel's taps land: built once per layer, the same for every
/// channel and sample. [`ConvPlan::im2col`] and [`ConvPlan::col2im`] walk
/// it instead of re-deriving (and bounds-testing) `iy`/`ix` per element.
///
/// The plane size and the tap tables are private: `im2col`'s AVX2 lane
/// gathers through the offsets unchecked, on the bound [`Self::new`]
/// proved, so nothing may change them after it.
///
/// ```compile_fail
/// use fedat_tensor::conv::{Conv2dSpec, ConvPlan};
/// let spec = Conv2dSpec { in_channels: 1, out_channels: 1, kernel: 3, stride: 1, padding: 0 };
/// let mut plan = ConvPlan::new(spec, 9, 9);
/// plan.h = 1; // error[E0616]: field `h` is private
/// ```
#[derive(Clone, Debug)]
pub struct ConvPlan {
    /// The convolution's geometry.
    pub spec: Conv2dSpec,
    /// Input plane height ([`Self::h`]).
    h: usize,
    /// Input plane width ([`Self::w`]).
    w: usize,
    /// `[K·K, OH·OW]`: the plane offset each tap reads — where the tap
    /// falls in the zero padding, some in-range offset (a different one
    /// from entry to entry). [`Self::new`] checks every offset is inside
    /// the plane, whose size it bounds by `i32::MAX`, so the AVX2 lane of
    /// `im2col` gathers eight through signed 32-bit indices with no
    /// per-call check.
    taps: Vec<u32>,
    /// `[K·K, OH·OW]`, beside `taps`: all ones where the tap reads a pixel,
    /// zero where it falls in the padding. Data, not a predicate, so
    /// `im2col` is a load, an AND and a store per tap — or eight of each
    /// per gather — with no branch.
    keep: Vec<u32>,
    /// Per input pixel, the taps that read it, ascending `(ky, kx)`: pixel
    /// `p`'s are `sources[starts[p]..starts[p + 1]]`, each the position
    /// `t·C·K·K + ky·K + kx` of output pixel `t`'s tap in channel 0 of a
    /// `[OH·OW, C·K·K]` matrix (channel `c` adds `c·K·K`). Padding taps
    /// read no pixel and appear nowhere.
    sources: Vec<u32>,
    starts: Vec<u32>,
}

impl ConvPlan {
    /// Plans `spec` over `h × w` input planes.
    ///
    /// # Panics
    /// Panics if the window does not fit the padded input, a plane has 2³¹
    /// elements or more, or a sample's column matrix more than 2³².
    pub fn new(spec: Conv2dSpec, h: usize, w: usize) -> Self {
        let (oh, ow) = spec.out_hw(h, w);
        assert!(spec.kernel > 0, "conv kernel must be positive");
        assert!(plane_fits_gather(h, w), "conv plane too large to plan");
        let (k, stride, pad) = (spec.kernel, spec.stride, spec.padding as isize);
        let row = spec.in_channels * k * k;
        assert!(
            oh * ow * row <= u32::MAX as usize,
            "conv columns too large to plan"
        );
        let mut taps = Vec::with_capacity(k * k * oh * ow);
        let mut keep = Vec::with_capacity(k * k * oh * ow);
        for ky in 0..k {
            for kx in 0..k {
                for oy in 0..oh {
                    let iy = (oy * stride + ky) as isize - pad;
                    for ox in 0..ow {
                        let ix = (ox * stride + kx) as isize - pad;
                        let (at, on) = if iy >= 0 && iy < h as isize && ix >= 0 && ix < w as isize {
                            (iy as usize * w + ix as usize, u32::MAX)
                        } else {
                            ((oy * ow + ox) % (h * w), 0)
                        };
                        taps.push(at as u32);
                        keep.push(on);
                    }
                }
            }
        }
        // The one bound check `im2col`'s unchecked gather relies on.
        assert!(
            taps.iter().all(|&at| (at as usize) < h * w),
            "conv tap outside its plane"
        );
        // Output coordinate `o` whose tap at offset `d` reads input
        // coordinate `i`: `o·stride + d − pad = i`.
        let out_at = |i: usize, d: usize, len: usize| {
            let s = (i + spec.padding).checked_sub(d)?;
            (s.is_multiple_of(stride) && s / stride < len).then_some(s / stride)
        };
        let mut sources = Vec::with_capacity(k * k * oh * ow);
        let mut starts = Vec::with_capacity(h * w + 1);
        starts.push(0);
        for iy in 0..h {
            for ix in 0..w {
                for ky in 0..k {
                    for kx in 0..k {
                        if let (Some(oy), Some(ox)) = (out_at(iy, ky, oh), out_at(ix, kx, ow)) {
                            sources.push(((oy * ow + ox) * row + ky * k + kx) as u32);
                        }
                    }
                }
                starts.push(sources.len() as u32);
            }
        }
        ConvPlan {
            spec,
            h,
            w,
            taps,
            keep,
            sources,
            starts,
        }
    }

    /// Input plane height.
    pub fn h(&self) -> usize {
        self.h
    }

    /// Input plane width.
    pub fn w(&self) -> usize {
        self.w
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
        // SAFETY: `new` checked every offset in `taps` is below `h·w` and
        // `h·w` at most `i32::MAX`; `taps`, `h` and `w` are private and no
        // method changes them, so that still holds. The kernel checks the
        // slice lengths itself.
        unsafe { crate::simd::im2col(img, hw, &self.taps, &self.keep, cols) }
    }

    /// Folds a *transposed* column matrix `[OH·OW, C·K·K]` back into an
    /// image, accumulating onto `img` (the adjoint of [`Self::im2col`], up
    /// to the transpose). Each pixel gathers its taps in ascending
    /// `(ky, kx)` order onto its own value — the order a tap-by-tap scatter
    /// reaches it in — so the two forms add the same addends in the same
    /// order; the scatter's padding taps added `-0.0`, which leaves every
    /// value an addition can produce as it was.
    ///
    /// # Panics
    /// Panics on the size mismatches [`Self::im2col`] panics on.
    pub fn col2im(&self, cols_t: &[f32], img: &mut [f32]) {
        let hw = self.h * self.w;
        let kk = self.spec.kernel * self.spec.kernel;
        assert_eq!(img.len(), self.spec.in_channels * hw, "image size mismatch");
        assert_eq!(
            cols_t.len(),
            self.spec.in_channels * self.taps.len(),
            "cols size mismatch"
        );
        let cin = self.spec.in_channels;
        let whole = cin - cin % 8;
        for (p, span) in self.starts.windows(2).enumerate() {
            let sources = &self.sources[span[0] as usize..span[1] as usize];
            for c in (0..whole).step_by(8) {
                Self::gather_pixel::<8>(sources, &cols_t[c * kk..], &mut img[c * hw + p..], hw, kk);
            }
            for c in whole..cin {
                Self::gather_pixel::<1>(sources, &cols_t[c * kk..], &mut img[c * hw + p..], hw, kk);
            }
        }
    }

    /// One pixel of `L` consecutive channels: `img[l·hw]` += the taps at
    /// `cols[at + l·kk]`, `at` over `sources` in order — `L` independent
    /// sums side by side, each in its own pixel's order.
    #[inline(always)]
    fn gather_pixel<const L: usize>(
        sources: &[u32],
        cols: &[f32],
        img: &mut [f32],
        hw: usize,
        kk: usize,
    ) {
        let mut acc = [0.0f32; L];
        for l in 0..L {
            acc[l] = img[l * hw];
        }
        for &at in sources {
            let tap = &cols[at as usize..at as usize + (L - 1) * kk + 1];
            for l in 0..L {
                acc[l] += tap[l * kk];
            }
        }
        for l in 0..L {
            img[l * hw] = acc[l];
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
///
/// Defined per sample as `dCols = Wᵀ · dY` (`[C_in·K·K, OH·OW]`, each
/// element summing `W[co, r] · dY[co, t]` over ascending `co` from `+0.0`,
/// terms with `W[co, r] == 0.0` skipped) folded into the image by
/// [`ConvPlan::col2im`]. It is computed as `dColsᵀ = dYᵀ · W` instead: with
/// `dY` on the left the matmul skips the entries max pooling routed no
/// gradient to (three in four in the models, more after the ReLU mask)
/// rather than multiplying through them. The bits are the same whenever
/// `W` and `dY` are finite: every element adds the same products in the
/// same order, a finite product has the same bits in either operand order,
/// and a term only one side skips is `w · 0` or `0 · dy`, a `±0` that
/// cannot change a sum which started at `+0.0` (such a sum is never
/// `-0.0`). A sample whose `dY` — or a call whose `W` — holds a NaN or an
/// infinity takes the definition itself, transposed into place.
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
    // Folds, not `all`: no exit inside the scan, so it vectorizes.
    let finite = |s: &[f32]| s.iter().fold(true, |ok, v| ok & v.is_finite());
    let weight_finite = finite(weight.data());

    let mut d_input = Tensor::zeros_scratch(&[n, cin, plan.h, plan.w]);
    let mut d_cols_t = crate::scratch::take_empty(sample);
    for (dy, d_img) in d_out
        .data()
        .chunks_exact(cout * col_cols)
        .zip(d_input.data_mut().chunks_exact_mut(cin * plan.h * plan.w))
    {
        d_cols_t.clear();
        d_cols_t.resize(sample, 0.0);
        if weight_finite && finite(dy) {
            // dColsᵀ = dYᵀ · W  ([col_cols, col_rows])
            matmul_tn_into(dy, weight.data(), &mut d_cols_t, col_cols, cout, col_rows);
        } else {
            // dCols = Wᵀ · dY  ([col_rows, col_cols]), then into place.
            let mut d_cols = crate::scratch::take_zeroed(sample);
            matmul_tn_into(weight.data(), dy, &mut d_cols, col_rows, cout, col_cols);
            crate::simd::transpose(&d_cols, &mut d_cols_t, col_rows, col_cols);
            crate::scratch::recycle(d_cols);
        }
        plan.col2im(&d_cols_t, d_img);
    }
    crate::scratch::recycle(d_cols_t);
    d_input
}

/// Forward max pooling over `[N, C, H, W]` with a `k × k` window and stride
/// `k` (non-overlapping; see [`crate::simd::maxpool`] for ties, NaN and
/// the lanes). Returns the pooled tensor and fills `argmax` (the caller's
/// buffer, so a layer can reuse one) with the flat indices into the input
/// that the backward pass routes through.
///
/// A window of only NaN and `-inf` routes to its own first pixel, never to
/// a pixel of another window. No model builds such a window, so no pinned
/// result depends on the rule: every pool in `CnnLite` and `CnnPaper`
/// follows a ReLU, which maps NaN and `-inf` to `+0.0`.
pub fn maxpool2d_forward(input: &Tensor, k: usize, argmax: &mut Vec<u32>) -> Tensor {
    let dims = input.dims();
    assert_eq!(dims.len(), 4, "maxpool expects NCHW input");
    let (n, c, h, w) = (dims[0], dims[1], dims[2], dims[3]);
    assert!(
        k > 0 && h >= k && w >= k,
        "pool window {k} too large for {h}×{w}"
    );
    let mut out = Tensor::zeros_scratch(&[n, c, h / k, w / k]);
    // No clear: the kernel writes every entry.
    argmax.resize(out.len(), 0);
    crate::simd::maxpool(input.data(), (h, w), k, out.data_mut(), argmax);
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
    fn a_plane_fits_the_gather_below_two_to_the_31() {
        let max = i32::MAX as usize;
        assert!(plane_fits_gather(1, max));
        assert!(plane_fits_gather(max, 1));
        assert!(!plane_fits_gather(1, max + 1));
        assert!(!plane_fits_gather(max + 1, 1));
        // 46 340² < 2³¹ − 1 < 46 341².
        assert!(plane_fits_gather(46_340, 46_340));
        assert!(!plane_fits_gather(46_341, 46_341));
        assert!(!plane_fits_gather(usize::MAX, 2));
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
        // <im2col(x), y> must equal <x, col2im(yᵀ)> — the defining property
        // of the adjoint, which backprop correctness relies on.
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
        let mut y_t = vec![0.0f32; c * 9 * oh * ow];
        crate::simd::transpose(y.data(), &mut y_t, c * 9, oh * ow);
        let mut back = vec![0.0f32; c * h * w];
        plan.col2im(&y_t, &mut back);
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

    #[test]
    fn a_window_without_a_maximum_routes_to_its_own_first_pixel() {
        // Two planes; in each, the top-right window holds only NaN and -inf
        // and the bottom-left one only -inf. Their gradient must land on
        // their own first pixel, not on pixel 0 of the plane.
        let (nan, ninf) = (f32::NAN, f32::NEG_INFINITY);
        let plane = [
            1.0, 2.0, nan, ninf, //
            3.0, 0.0, ninf, nan, //
            ninf, ninf, 9.0, 1.0, //
            ninf, ninf, 1.0, 1.0,
        ];
        let input = Tensor::from_vec([plane, plane].concat(), &[1, 2, 4, 4]);
        for simd in [
            crate::simd::SimdKernel::Scalar,
            crate::simd::SimdKernel::Auto,
        ] {
            let _g = crate::ctx::install(crate::ctx::KernelCtx {
                simd,
                ..crate::ctx::snapshot()
            });
            let mut argmax = Vec::new();
            let out = maxpool2d_forward(&input, 2, &mut argmax);
            assert_eq!(out.data(), &[3.0, ninf, ninf, 9.0, 3.0, ninf, ninf, 9.0]);
            assert_eq!(argmax, [4, 2, 8, 10, 20, 18, 24, 26], "{simd:?}");
            let d_out = Tensor::ones(&[1, 2, 2, 2]);
            let d_in = maxpool2d_backward(&d_out, &argmax, 32);
            for (i, v) in d_in.data().iter().enumerate() {
                let want = if argmax.contains(&(i as u32)) {
                    1.0
                } else {
                    0.0
                };
                assert_eq!(*v, want, "at {i} ({simd:?})");
            }
        }
    }
}
