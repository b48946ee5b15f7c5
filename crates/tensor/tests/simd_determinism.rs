//! SIMD-vs-scalar bitwise equality for every kernel of `fedat_tensor::simd`
//! that has lanes (the element-wise ones are one plain loop each — there is
//! nothing to compare), over awkward shapes (non-multiple-of-8 tails,
//! dims in 1..=17), plus the portable
//! fallback (ISA-independence: `Auto` must not depend on what the host
//! detects). The matmul lanes are also driven at the shapes training runs
//! and past the non-zero list's chunk, with `A` from dense to all zero
//! (`-0.0` and all-zero rows included), non-finite `B` and a pre-filled
//! `C`; the conv stage forward and backward, against the scalar lane and
//! against a per-sample reference kept below. The fused optimizer sweep is
//! held to the three reference passes it replaces, on every lane.
//!
//! Every backend choice is scoped with a thread-local
//! [`ctx::install`], so concurrent tests in this binary never see each
//! other's settings and the `FEDAT_SIMD=scalar` default survives untouched.

use fedat_tensor::conv::{
    conv2d_backward_input, conv2d_backward_params, conv2d_backward_params_into, conv2d_forward,
    Conv2dSpec, ConvPlan,
};
use fedat_tensor::ctx::{self, KernelCtx, OverlayGuard};
use fedat_tensor::ops::{
    dist_sq, dot, matmul_into, matmul_nt_into, matmul_tn_into, robust_reduce_into,
    weighted_sum_into, RobustRule, AGG_SHARD,
};
use fedat_tensor::rng::rng_for;
use fedat_tensor::simd::{self, AdamParams, SimdKernel, ROBUST_TILE};
use fedat_tensor::Tensor;
use proptest::prelude::*;
use rand::RngExt;

/// The three lanes: reference, ISA (where detected), portable.
const LANES: [SimdKernel; 3] = [SimdKernel::Scalar, SimdKernel::Auto, SimdKernel::Portable];
/// The two lanes held to the reference.
const FAST_LANES: [SimdKernel; 2] = [SimdKernel::Auto, SimdKernel::Portable];

/// Scopes the SIMD lane to the calling thread for the guard's lifetime.
fn scoped(simd: SimdKernel) -> OverlayGuard {
    ctx::install(KernelCtx {
        simd,
        ..ctx::snapshot()
    })
}

fn filled(len: usize, seed: u64) -> Vec<f32> {
    let mut rng = rng_for(seed, 63);
    let mut v = vec![0.0f32; len];
    fedat_tensor::rng::fill_normal(&mut rng, &mut v, 0.0, 1.0);
    v
}

/// Zeroes a deterministic subset of a buffer (the post-ReLU sparsity
/// pattern the matmul zero-skip fast path reacts to).
fn sparsify(v: &mut [f32], seed: u64) {
    for (i, x) in v.iter_mut().enumerate() {
        if (i as u64).wrapping_mul(2654435761) % 7 < (seed % 4) {
            *x = 0.0;
        }
    }
}

/// Bit patterns a sort by `<` or a float `min`/`max` would mishandle. The
/// first six are NaNs of both signs with quiet, all-ones and signalling
/// payloads; the rest are signed zeros, infinities and subnormals.
const AWKWARD_BITS: [u32; 13] = [
    0x7fc0_0000,
    0xffc0_0000,
    0x7fff_ffff,
    0xffff_ffff,
    0x7f80_0001,
    0xff80_0001,
    0x0000_0000,
    0x8000_0000,
    0x7f80_0000,
    0xff80_0000,
    0x0000_0001,
    0x8000_0001,
    0x007f_ffff,
];

/// `k` inputs of `len` normal draws. One value in eight is replaced by a
/// non-NaN awkward pattern and one in eight by another input's value at
/// that coordinate (an exact duplicate); NaNs land at a per-seed density
/// from none to one in eight, so both NaN-free tiles and tiles with
/// several NaNs in one column occur.
fn awkward_cohort(k: usize, len: usize, seed: u64) -> Vec<Vec<f32>> {
    let mut cohort: Vec<Vec<f32>> = (0..k)
        .map(|j| filled(len, seed ^ ((j as u64 + 1) << 12)))
        .collect();
    // One NaN per this many values (0: none).
    let nan_one_in = [0usize, 4096, 256, 8][seed as usize % 4];
    let mut rng = rng_for(seed, 64);
    for n in 0..k * len {
        let (j, i) = (n / len, n % len);
        if nan_one_in != 0 && rng.random_range(0..nan_one_in) == 0 {
            cohort[j][i] = f32::from_bits(AWKWARD_BITS[rng.random_range(0..6usize)]);
            continue;
        }
        match rng.random_range(0..8u32) {
            0 => cohort[j][i] = f32::from_bits(AWKWARD_BITS[rng.random_range(6..13usize)]),
            1 => cohort[j][i] = cohort[rng.random_range(0..k)][i],
            _ => {}
        }
    }
    cohort
}

/// The obviously-right robust reduction: gather the column, sort it with
/// `f32::total_cmp`, add the kept values left to right in f64.
fn robust_reference(inputs: &[&[f32]], rule: RobustRule) -> Vec<u32> {
    let k = inputs.len();
    (0..inputs[0].len())
        .map(|i| {
            let mut column: Vec<f32> = inputs.iter().map(|input| input[i]).collect();
            column.sort_unstable_by(f32::total_cmp);
            let stat = match rule {
                RobustRule::TrimmedMean { trim } => {
                    let kept = &column[trim..k - trim];
                    let mut acc = 0.0f64;
                    for &v in kept {
                        acc += v as f64;
                    }
                    (acc / kept.len() as f64) as f32
                }
                RobustRule::Median if k % 2 == 1 => column[k / 2],
                RobustRule::Median => {
                    ((column[k / 2 - 1] as f64 + column[k / 2] as f64) * 0.5) as f32
                }
            };
            stat.to_bits()
        })
        .collect()
}

/// Bit patterns with every NaN folded to one: which operand's payload an
/// add of two NaNs keeps is the instruction's operand order, which neither
/// Rust nor the lanes pin. Signed zeros, infinities and subnormals count.
fn bits(v: &[f32]) -> Vec<u32> {
    v.iter()
        .map(|x| {
            if x.is_nan() {
                f32::NAN.to_bits()
            } else {
                x.to_bits()
            }
        })
        .collect()
}

/// Runs `kernel` (writing into a fresh zeroed buffer) under
/// `SimdKernel::Scalar` as the reference, then under `Auto` (where
/// detected) and `Portable`, asserting bitwise equality throughout.
fn assert_simd_invariant(out_len: usize, kernel: impl Fn(&mut [f32])) -> Result<(), TestCaseError> {
    assert_simd_invariant_from(&vec![0.0f32; out_len], kernel)
}

/// [`assert_simd_invariant`] with the output buffer starting as `init`;
/// compares [`bits`], so NaN-ness and signed zeros count.
fn assert_simd_invariant_from(
    init: &[f32],
    kernel: impl Fn(&mut [f32]),
) -> Result<(), TestCaseError> {
    let mut reference = init.to_vec();
    {
        let _g = scoped(SimdKernel::Scalar);
        kernel(&mut reference);
    }
    for lane in FAST_LANES {
        let _g = scoped(lane);
        let mut got = init.to_vec();
        kernel(&mut got);
        prop_assert_eq!(
            bits(&reference),
            bits(&got),
            "{:?} diverged from scalar",
            lane
        );
    }
    Ok(())
}

/// A logical `[rows, cols]` left operand whose entries are zero with
/// probability `quarters / 4`, every other zero a `-0.0`; between the
/// extremes one row is all zero and one is left without any.
fn sparse_lhs(rows: usize, cols: usize, quarters: usize, seed: u64) -> Vec<f32> {
    let mut a = filled(rows * cols, seed);
    let mut rng = rng_for(seed, 65);
    let (zero_row, dense_row) = (seed as usize % rows, (seed as usize / 7) % rows);
    for (i, v) in a.iter_mut().enumerate() {
        let forced = (1..4).contains(&quarters) && i / cols == zero_row;
        let spared = (1..4).contains(&quarters) && i / cols == dense_row && dense_row != zero_row;
        if forced || (!spared && rng.random_range(0..4usize) < quarters) {
            *v = if i % 2 == 0 { 0.0 } else { -0.0 };
        }
    }
    a
}

/// Normal draws with one value in twelve replaced by ±inf, a NaN, a
/// subnormal or `-0.0`: a lane that multiplies where the reference skips
/// shows up as `0 · inf = NaN`.
fn awkward_rhs(len: usize, seed: u64) -> Vec<f32> {
    let mut b = filled(len, seed);
    let mut rng = rng_for(seed, 66);
    for v in b.iter_mut() {
        if rng.random_range(0..12u32) == 0 {
            *v = f32::from_bits(AWKWARD_BITS[rng.random_range(0..AWKWARD_BITS.len())]);
        }
    }
    b
}

/// `(m, k, n)` of the matmuls a training step issues (batch 10 and a ragged
/// 7 against every layer width, conv2's and conv1's per-sample GEMMs in all
/// three roles) and shapes whose `k` crosses the 256-entry list chunk once
/// and twice, on and off its edge; then column counts one off two and four
/// vectors under row counts that end in a 2-, a 1- and no single-row tile.
const TRAINING_SHAPES: [(usize, usize, usize); 17] = [
    (10, 64, 128),
    (10, 128, 62),
    (10, 128, 10),
    (10, 64, 9),
    (7, 128, 64),
    (32, 144, 16),
    (32, 16, 144),
    (144, 32, 16),
    (16, 64, 9),
    (16, 9, 64),
    (10, 256, 16),
    (10, 257, 33),
    (7, 513, 144),
    (5, 600, 10),
    (10, 64, 15),
    (9, 128, 17),
    (20, 32, 33),
];

/// The obviously-right conv stage, one sample and one output element at a
/// time, in the accumulation order im2col + matmul + col2im define: ascending
/// `(ci, ky, kx)` for the forward sum and `dCols`, ascending `(sample, oy,
/// ox)` for `dW`, ascending `(ky, kx, oy, ox)` into each input pixel — zero
/// left-operand entries skipped, padding taps multiplied in as `0.0`.
struct NaiveConv {
    out: Vec<f32>,
    d_weight: Vec<f32>,
    d_bias: Vec<f32>,
    d_input: Vec<f32>,
}

fn naive_conv(
    input: &[f32],
    weight: &[f32],
    bias: &[f32],
    d_out: &[f32],
    (n, h, w): (usize, usize, usize),
    spec: &Conv2dSpec,
) -> NaiveConv {
    let (cin, cout, k) = (spec.in_channels, spec.out_channels, spec.kernel);
    let (oh, ow) = spec.out_hw(h, w);
    let (rows, cols) = (cin * k * k, oh * ow);
    // The input pixel row `r = (ci, ky, kx)` reads for output pixel `t`.
    let tap = |r: usize, t: usize| -> Option<usize> {
        let (ci, ky, kx) = (r / (k * k), r / k % k, r % k);
        let iy = (t / ow * spec.stride + ky) as isize - spec.padding as isize;
        let ix = (t % ow * spec.stride + kx) as isize - spec.padding as isize;
        (iy >= 0 && iy < h as isize && ix >= 0 && ix < w as isize)
            .then(|| (ci * h + iy as usize) * w + ix as usize)
    };
    let mut res = NaiveConv {
        out: vec![0.0; n * cout * cols],
        d_weight: vec![0.0; cout * rows],
        d_bias: vec![0.0; cout],
        d_input: vec![0.0; n * cin * h * w],
    };
    for i in 0..n {
        let img = &input[i * cin * h * w..(i + 1) * cin * h * w];
        let dy = &d_out[i * cout * cols..(i + 1) * cout * cols];
        let col = |r: usize, t: usize| tap(r, t).map_or(0.0, |at| img[at]);
        for co in 0..cout {
            for t in 0..cols {
                let mut acc = 0.0f32;
                for r in 0..rows {
                    if weight[co * rows + r] != 0.0 {
                        acc += weight[co * rows + r] * col(r, t);
                    }
                }
                res.out[(i * cout + co) * cols + t] = acc + bias[co];
            }
            for r in 0..rows {
                for t in 0..cols {
                    if dy[co * cols + t] != 0.0 {
                        res.d_weight[co * rows + r] += dy[co * cols + t] * col(r, t);
                    }
                }
            }
            res.d_bias[co] += dy[co * cols..(co + 1) * cols].iter().sum::<f32>();
        }
        let d_img = &mut res.d_input[i * cin * h * w..(i + 1) * cin * h * w];
        for r in 0..rows {
            for t in 0..cols {
                let mut d_col = 0.0f32;
                for co in 0..cout {
                    if weight[co * rows + r] != 0.0 {
                        d_col += weight[co * rows + r] * dy[co * cols + t];
                    }
                }
                if let Some(at) = tap(r, t) {
                    d_img[at] += d_col;
                }
            }
        }
    }
    res
}

/// One conv stage through the library: forward with the columns kept, both
/// backward halves.
fn conv_stage(
    input: &Tensor,
    weight: &Tensor,
    bias: &Tensor,
    d_out: &Tensor,
    plan: &ConvPlan,
) -> [Vec<u32>; 4] {
    let (out, cols) = conv2d_forward(input, weight, bias, plan, true);
    let (d_weight, d_bias) = conv2d_backward_params(d_out, &cols, plan);
    let d_input = conv2d_backward_input(d_out, weight, plan);
    [out, d_weight, d_bias, d_input].map(|t| bits(t.data()))
}

/// A conv problem drawn from `seed`: ReLU-like input, three gradients in
/// four zero (what pooling and the ReLU mask leave), one zero weight.
#[allow(clippy::type_complexity)]
fn conv_problem(
    (batch, cin, cout): (usize, usize, usize),
    (h, w): (usize, usize),
    spec: &Conv2dSpec,
    seed: u64,
) -> (Tensor, Tensor, Tensor, Tensor) {
    let (oh, ow) = spec.out_hw(h, w);
    let kk = spec.kernel * spec.kernel;
    let input: Vec<f32> = filled(batch * cin * h * w, seed)
        .iter()
        .map(|v| v.max(0.0))
        .collect();
    let mut weight = filled(cout * cin * kk, seed ^ 5);
    weight[seed as usize % (cout * cin * kk)] = 0.0;
    let d_out = sparse_lhs(batch * cout, oh * ow, 3, seed ^ 7);
    (
        Tensor::from_vec(input, &[batch, cin, h, w]),
        Tensor::from_vec(weight, &[cout, cin * kk]),
        Tensor::from_vec(filled(cout, seed ^ 6), &[cout]),
        Tensor::from_vec(d_out, &[batch, cout, oh, ow]),
    )
}

/// The two geometries in use: the models' 3×3 same-size window and a
/// strided window without padding.
fn conv_spec(strided: bool, cin: usize, cout: usize) -> Conv2dSpec {
    Conv2dSpec {
        in_channels: cin,
        out_channels: cout,
        kernel: if strided { 2 } else { 3 },
        stride: if strided { 2 } else { 1 },
        padding: if strided { 0 } else { 1 },
    }
}

/// Replaces one value in six of `v` by a signed zero, a subnormal, an
/// infinity or a NaN.
fn sprinkle_awkward(v: &mut [f32], seed: u64) {
    let mut rng = rng_for(seed, 67);
    for x in v.iter_mut() {
        if rng.random_range(0..6u32) == 0 {
            *x = f32::from_bits(AWKWARD_BITS[rng.random_range(0..AWKWARD_BITS.len())]);
        }
    }
}

/// Parameter lengths the sweep property draws from: empty, below, on and
/// past one, two and four vectors, the logistic model, and a tail past a
/// 4 096 block.
const SWEEP_LENS: [usize; 12] = [0, 1, 7, 8, 9, 15, 16, 17, 31, 33, 330, 4097];

proptest! {
    #[test]
    fn matmul_nn_simd_matches_scalar_bitwise(
        m in 1usize..=17, k in 1usize..=17, n in 1usize..=17, seed in 0u64..500
    ) {
        let mut a = filled(m * k, seed);
        sparsify(&mut a, seed);
        let b = filled(k * n, seed ^ 1);
        assert_simd_invariant(m * n, |c| matmul_into(&a, &b, c, m, k, n))?;
    }

    #[test]
    fn matmul_tn_simd_matches_scalar_bitwise(
        m in 1usize..=17, k in 1usize..=17, n in 1usize..=17, seed in 0u64..500
    ) {
        let mut a = filled(k * m, seed);
        sparsify(&mut a, seed);
        let b = filled(k * n, seed ^ 2);
        assert_simd_invariant(m * n, |c| matmul_tn_into(&a, &b, c, m, k, n))?;
    }

    #[test]
    fn matmul_nt_simd_matches_scalar_bitwise(
        m in 1usize..=17, k in 1usize..=17, n in 1usize..=17, seed in 0u64..500
    ) {
        let mut a = filled(m * k, seed);
        sparsify(&mut a, seed);
        let b = filled(n * k, seed ^ 3);
        assert_simd_invariant(m * n, |c| matmul_nt_into(&a, &b, c, m, k, n))?;
    }

    #[test]
    fn large_matmul_simd_matches_scalar_bitwise(seed in 0u64..50) {
        // Past the 4-row × 16-column register tile: covers full tiles plus
        // row/column tails in one shape.
        let (m, k, n) = (61, 37, 53);
        let a = filled(m * k, seed);
        let b = filled(k * n, seed ^ 4);
        assert_simd_invariant(m * n, |c| matmul_into(&a, &b, c, m, k, n))?;
    }

    #[test]
    fn matmul_training_shapes_simd_match_scalar_bitwise(
        shape in 0usize..TRAINING_SHAPES.len() + 6,
        variant in 0usize..3,
        quarters in 0usize..=4,
        c_init in 0usize..3,
        seed in 0u64..1000,
    ) {
        // Past the table: small shapes, so column tails meet NaNs too.
        let (m, k, n) = TRAINING_SHAPES.get(shape).copied().unwrap_or((
            1 + seed as usize % 17,
            1 + (seed as usize / 17) % 40,
            1 + (seed as usize / 680) % 17,
        ));
        let a = sparse_lhs(m, k, quarters, seed);
        let b = awkward_rhs(k * n, seed ^ 1);
        let init = match c_init {
            0 => vec![0.0f32; m * n],
            1 => vec![-0.0f32; m * n],
            _ => filled(m * n, seed ^ 2),
        };
        match variant {
            0 => assert_simd_invariant_from(&init, |c| matmul_into(&a, &b, c, m, k, n))?,
            1 => {
                // `matmul_tn_into` reads `A` as `[k, m]`.
                let mut at = vec![0.0f32; k * m];
                simd::transpose(&a, &mut at, m, k);
                assert_simd_invariant_from(&init, |c| matmul_tn_into(&at, &b, c, m, k, n))?
            }
            _ => {
                // `matmul_nt_into` reads `B` as `[n, k]`.
                let mut bt = vec![0.0f32; n * k];
                simd::transpose(&b, &mut bt, k, n);
                assert_simd_invariant_from(&init, |c| matmul_nt_into(&a, &bt, c, m, k, n))?
            }
        }
    }

    #[test]
    fn conv_backward_simd_matches_scalar_bitwise(
        batch in 1usize..4, cin in 1usize..4, cout in 1usize..6, strided in 0usize..2, seed in 0u64..300
    ) {
        let (h, w) = (6usize, 8usize);
        let spec = conv_spec(strided == 1, cin, cout);
        let plan = ConvPlan::new(spec, h, w);
        let (input, weight, bias, d_out) = conv_problem((batch, cin, cout), (h, w), &spec, seed);
        let reference = {
            let _g = scoped(SimdKernel::Scalar);
            conv_stage(&input, &weight, &bias, &d_out, &plan)
        };
        for lane in FAST_LANES {
            let _g = scoped(lane);
            let got = conv_stage(&input, &weight, &bias, &d_out, &plan);
            prop_assert_eq!(&reference, &got, "conv stage ({:?}) diverged from scalar", lane);
        }
    }

    #[test]
    fn conv_stage_matches_naive_reference_bitwise(
        batch in 1usize..4, cin in 1usize..4, cout in 1usize..6, strided in 0usize..2, seed in 0u64..300
    ) {
        let (h, w) = (4usize, 6usize);
        let spec = conv_spec(strided == 1, cin, cout);
        let plan = ConvPlan::new(spec, h, w);
        let (input, weight, bias, d_out) = conv_problem((batch, cin, cout), (h, w), &spec, seed);
        let want = naive_conv(
            input.data(), weight.data(), bias.data(), d_out.data(), (batch, h, w), &spec,
        );
        let got = conv_stage(&input, &weight, &bias, &d_out, &plan);
        prop_assert_eq!(&got[0], &bits(&want.out), "forward");
        prop_assert_eq!(&got[1], &bits(&want.d_weight), "d_weight");
        prop_assert_eq!(&got[2], &bits(&want.d_bias), "d_bias");
        prop_assert_eq!(&got[3], &bits(&want.d_input), "d_input");
    }

    #[test]
    fn conv_forward_simd_matches_scalar_bitwise(
        batch in 1usize..4, cin in 1usize..4, cout in 1usize..6, seed in 0u64..300
    ) {
        let (h, w) = (7usize, 9usize);
        let spec = Conv2dSpec { in_channels: cin, out_channels: cout, kernel: 3, stride: 1, padding: 1 };
        let plan = ConvPlan::new(spec, h, w);
        let input = Tensor::from_vec(filled(batch * cin * h * w, seed), &[batch, cin, h, w]);
        let weight = Tensor::from_vec(filled(cout * cin * 9, seed ^ 5), &[cout, cin * 9]);
        let bias = Tensor::from_vec(filled(cout, seed ^ 6), &[cout]);
        let (reference, _) = {
            let _g = scoped(SimdKernel::Scalar);
            conv2d_forward(&input, &weight, &bias, &plan, false)
        };
        let _g = scoped(SimdKernel::Auto);
        let (got, _) = conv2d_forward(&input, &weight, &bias, &plan, false);
        prop_assert_eq!(reference.data(), got.data());
    }

    #[test]
    fn adam_sweep_matches_three_passes_bitwise(
        len_ix in 0usize..SWEEP_LENS.len(),
        prox in 0usize..2,
        virgin in 0usize..2,
        lambda_ix in 0usize..3,
        step in 1i32..=40,
        seed in 0u64..1000,
    ) {
        let len = SWEEP_LENS[len_ix];
        let (prox, virgin) = (prox == 1, virgin == 1);
        let lambda = [0.4f32, 1e-30, 3e38][lambda_ix];
        let mut w0 = filled(len, seed);
        let mut g0 = filled(len, seed ^ 1);
        sprinkle_awkward(&mut g0, seed ^ 2);
        // `w − w_g` small, and awkward where `w_g` is: from a zero weight of
        // the right sign the difference is the awkward value itself.
        let mut global: Vec<f32> = w0
            .iter()
            .zip(filled(len, seed ^ 3))
            .map(|(w, d)| w - 0.01 * d)
            .collect();
        let plain = global.clone();
        sprinkle_awkward(&mut global, seed ^ 4);
        for ((w, wg), was) in w0.iter_mut().zip(&global).zip(&plain) {
            if wg.to_bits() != was.to_bits() {
                *w = if wg.to_bits() == 0 { -0.0 } else { 0.0 };
            }
        }
        // Moments of an optimizer in mid-life; with `virgin` they are what
        // a previous life left behind and must not be read.
        let mut m0 = filled(len, seed ^ 5);
        let mut v0: Vec<f32> = filled(len, seed ^ 6).iter().map(|v| v * v).collect();
        if virgin {
            sprinkle_awkward(&mut m0, seed ^ 7);
            sprinkle_awkward(&mut v0, seed ^ 8);
        }
        let p = AdamParams {
            lr: 0.003,
            beta1: 0.9,
            beta2: 0.999,
            bc1: 1.0 - 0.9f32.powi(step),
            bc2: 1.0 - 0.999f32.powi(step),
            eps: 1e-8,
        };

        // The definition: three passes over explicitly zeroed moments.
        let want = {
            let _g = scoped(SimdKernel::Scalar);
            let (mut w, mut g) = (w0.clone(), g0.clone());
            let (mut m, mut v) = if virgin {
                (vec![0.0; len], vec![0.0; len])
            } else {
                (m0.clone(), v0.clone())
            };
            if prox {
                simd::prox_grad(&mut g, &w, &global, lambda);
            }
            simd::adam_step(&mut w, &g, &mut m, &mut v, &p);
            g.fill(0.0);
            [w, g, m, v].map(|x| bits(&x))
        };
        for kernel in LANES {
            let _g = scoped(kernel);
            let (mut w, mut g, mut m, mut v) = (w0.clone(), g0.clone(), m0.clone(), v0.clone());
            if prox {
                simd::adam_sweep::<true>(&mut w, &mut g, &mut m, &mut v, (&global, lambda), virgin, &p);
            } else {
                simd::adam_sweep::<false>(&mut w, &mut g, &mut m, &mut v, (&[], 0.0), virgin, &p);
            }
            prop_assert_eq!(
                &want,
                &[w, g, m, v].map(|x| bits(&x)),
                "sweep ({:?}) diverged from the three passes: [w, g, m, v], len {}",
                kernel, len
            );
        }
    }

    #[test]
    fn conv_backward_params_into_matches_returned_pair_bitwise(
        batch in 1usize..4, cin in 1usize..4, cout in 1usize..6, strided in 0usize..2, seed in 0u64..300
    ) {
        let (h, w) = (6usize, 8usize);
        let spec = conv_spec(strided == 1, cin, cout);
        let plan = ConvPlan::new(spec, h, w);
        let (input, weight, bias, d_out) = conv_problem((batch, cin, cout), (h, w), &spec, seed);
        for kernel in LANES {
            let _g = scoped(kernel);
            let (_, cols) = conv2d_forward(&input, &weight, &bias, &plan, true);
            let (want_w, want_b) = conv2d_backward_params(&d_out, &cols, &plan);
            // A layer's gradients at rest.
            let (mut got_w, mut got_b) = (vec![0.0f32; weight.len()], vec![0.0f32; cout]);
            conv2d_backward_params_into(&d_out, &cols, &plan, &mut got_w, &mut got_b);
            prop_assert_eq!(bits(want_w.data()), bits(&got_w), "d_weight ({:?})", kernel);
            prop_assert_eq!(bits(want_b.data()), bits(&got_b), "d_bias ({:?})", kernel);
        }
    }

    #[test]
    fn reductions_simd_match_scalar_bitwise(len_ix in 0usize..9, seed in 0u64..500) {
        // On and around one and two 8-lane vectors (every tail), and long.
        let len = [1usize, 7, 8, 9, 15, 16, 17, 33, 199][len_ix];
        let x = filled(len, seed);
        let y = filled(len, seed ^ 11);
        let run = |lane| {
            let _g = scoped(lane);
            let mut q = vec![0.0f32; len];
            simd::quantize_into(&mut q, &x, -3.0, 255.0 / 6.0, 255.0);
            (dot(&x, &y).to_bits(), dist_sq(&x, &y).to_bits(), bits(&q))
        };
        let reference = run(SimdKernel::Scalar);
        for lane in FAST_LANES {
            prop_assert_eq!(&reference, &run(lane), "(dot, dist_sq, quantize_into) on {:?}, len {}", lane, len);
        }
    }

    #[test]
    fn weighted_sum_simd_matches_scalar_bitwise(
        n_inputs in 1usize..12, dim in 1usize..600, seed in 0u64..300
    ) {
        let inputs: Vec<Vec<f32>> = (0..n_inputs)
            .map(|j| filled(dim, seed ^ ((j as u64) << 9)))
            .collect();
        let refs: Vec<&[f32]> = inputs.iter().map(|v| v.as_slice()).collect();
        let weights: Vec<f32> = (0..n_inputs).map(|j| (j + 1) as f32 * 0.1).collect();
        assert_simd_invariant(dim, |out| weighted_sum_into(&refs, &weights, out))?;
    }

    #[test]
    fn robust_reduce_simd_matches_reference_bitwise(
        k in 1usize..=33, pick in 0usize..64, len_ix in 0usize..8, seed in 0u64..1000
    ) {
        // `pick` selects among every legal trim plus the median (odd and
        // even `k` both occur); lengths straddle the tile and shard edges.
        let trims = (k - 1) / 2 + 1;
        let rule = match pick % (trims + 1) {
            t if t < trims => RobustRule::TrimmedMean { trim: t },
            _ => RobustRule::Median,
        };
        let len = [
            1,
            ROBUST_TILE - 1,
            ROBUST_TILE,
            ROBUST_TILE + 1,
            AGG_SHARD - 1,
            AGG_SHARD,
            AGG_SHARD + 1,
            2 * AGG_SHARD + 5,
        ][len_ix];
        let cohort = awkward_cohort(k, len, seed);
        let refs: Vec<&[f32]> = cohort.iter().map(|v| v.as_slice()).collect();
        let reference = robust_reference(&refs, rule);
        for simd in LANES {
            let _g = scoped(simd);
            let mut got = vec![0.0f32; len];
            robust_reduce_into(&refs, rule, &mut got);
            let bits: Vec<u32> = got.iter().map(|v| v.to_bits()).collect();
            prop_assert_eq!(
                &reference,
                &bits,
                "{:?} at k={} ({:?}) diverged from the reference",
                rule, k, simd
            );
        }
    }

    #[test]
    fn transpose_matches_naive_gather(rows in 1usize..50, cols in 1usize..50, seed in 0u64..300) {
        // The cache-blocked transpose vs the seed's per-element gather.
        let src = filled(rows * cols, seed);
        let mut naive = Vec::with_capacity(rows * cols);
        for c in 0..cols {
            naive.extend((0..rows).map(|r| src[r * cols + c]));
        }
        let mut blocked = vec![0.0f32; rows * cols];
        simd::transpose(&src, &mut blocked, rows, cols);
        prop_assert_eq!(naive, blocked);
    }
}
