//! SIMD-vs-scalar bitwise equality for every kernel rewired through
//! `fedat_tensor::simd`, over awkward shapes (non-multiple-of-8 tails,
//! dims in 1..=17) × thread counts {1, 2, 4, 8}, plus the portable
//! fallback (ISA-independence: `Auto` must not depend on what the host
//! detects).
//!
//! Every backend/thread-cap choice is scoped with a thread-local
//! [`ctx::install`], so concurrent tests in this binary never see each
//! other's settings and the `FEDAT_SIMD=scalar` default survives untouched.

use fedat_tensor::conv::{conv2d_forward, Conv2dSpec};
use fedat_tensor::ctx::{self, KernelCtx, OverlayGuard};
use fedat_tensor::ops::{
    axpby, axpy, dist_sq, dot, lerp_into, matmul_into, matmul_nt_into, matmul_tn_into,
    robust_reduce_into, scale, weighted_sum_into, RobustRule, AGG_SHARD,
};
use fedat_tensor::rng::rng_for;
use fedat_tensor::simd::{self, AdamParams, SimdKernel, ROBUST_TILE};
use fedat_tensor::Tensor;
use proptest::prelude::*;
use rand::RngExt;

const THREAD_SWEEP: [usize; 4] = [1, 2, 4, 8];

/// Scopes the SIMD backend, the portable-only override and the thread cap
/// to the calling thread for the guard's lifetime.
fn scoped(simd: SimdKernel, portable_only: bool, max_threads: usize) -> OverlayGuard {
    ctx::install(KernelCtx {
        simd,
        portable_only,
        max_threads,
        ..ctx::snapshot()
    })
}

/// A named in-place kernel under test.
type Case<'a> = (&'a str, Box<dyn Fn(&mut [f32]) + 'a>);

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

/// Runs `kernel` (writing into a fresh zeroed buffer) under
/// `SimdKernel::Scalar` at one thread as the reference, then under `Auto`
/// (ISA path and portable fallback) across the thread sweep, asserting
/// bitwise equality throughout.
fn assert_simd_invariant(out_len: usize, kernel: impl Fn(&mut [f32])) -> Result<(), TestCaseError> {
    let mut reference = vec![0.0f32; out_len];
    {
        let _g = scoped(SimdKernel::Scalar, false, 1);
        kernel(&mut reference);
    }
    for portable in [false, true] {
        for &t in &THREAD_SWEEP {
            let _g = scoped(SimdKernel::Auto, portable, t);
            let mut got = vec![0.0f32; out_len];
            kernel(&mut got);
            prop_assert_eq!(
                &reference,
                &got,
                "SIMD kernel (portable={}) diverged from scalar at {} threads",
                portable,
                t
            );
        }
    }
    Ok(())
}

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
    fn conv_forward_simd_matches_scalar_bitwise(
        batch in 1usize..4, cin in 1usize..4, cout in 1usize..6, seed in 0u64..300
    ) {
        let (h, w) = (7usize, 9usize);
        let spec = Conv2dSpec { in_channels: cin, out_channels: cout, kernel: 3, stride: 1, padding: 1 };
        let input = Tensor::from_vec(filled(batch * cin * h * w, seed), &[batch, cin, h, w]);
        let weight = Tensor::from_vec(filled(cout * cin * 9, seed ^ 5), &[cout, cin * 9]);
        let bias = Tensor::from_vec(filled(cout, seed ^ 6), &[cout]);
        let (reference, _) = {
            let _g = scoped(SimdKernel::Scalar, false, 1);
            conv2d_forward(&input, &weight, &bias, h, w, &spec)
        };
        for &t in &THREAD_SWEEP {
            let _g = scoped(SimdKernel::Auto, false, t);
            let (got, _) = conv2d_forward(&input, &weight, &bias, h, w, &spec);
            prop_assert_eq!(reference.data(), got.data(), "conv diverged at {} threads", t);
        }
    }

    #[test]
    fn elementwise_kernels_simd_match_scalar_bitwise(
        len in 1usize..100, alpha in -3.0f32..3.0, beta in -2.0f32..2.0, seed in 0u64..500
    ) {
        let x = filled(len, seed);
        let base = filled(len, seed ^ 7);
        let sweep = |f: &dyn Fn(&mut [f32])| -> (Vec<f32>, Vec<f32>) {
            let run = |simd| {
                let _g = scoped(simd, false, 1);
                let mut y = base.clone();
                f(&mut y);
                y
            };
            (run(SimdKernel::Scalar), run(SimdKernel::Auto))
        };
        let t = (alpha / 3.0 + 1.0) / 2.0;
        let cases: Vec<Case> = vec![
            ("axpy", Box::new(|y: &mut [f32]| axpy(alpha, &x, y))),
            ("axpby", Box::new(|y: &mut [f32]| axpby(alpha, &x, beta, y))),
            ("lerp", Box::new(|y: &mut [f32]| lerp_into(y, &x, t))),
            ("scale", Box::new(|y: &mut [f32]| scale(y, alpha))),
            ("mul_assign", Box::new(|y: &mut [f32]| simd::mul_assign(y, &x))),
            ("add_assign", Box::new(|y: &mut [f32]| simd::add_assign(y, &x))),
            ("add_scalar", Box::new(|y: &mut [f32]| simd::add_scalar(y, alpha))),
            ("wsum_first", Box::new(|y: &mut [f32]| simd::wsum_first(y, &x, alpha))),
            ("relu", Box::new(|y: &mut [f32]| simd::relu(y))),
            ("tanh_grad", Box::new(|y: &mut [f32]| simd::tanh_grad(y, &x))),
            ("sigmoid_grad", Box::new(|y: &mut [f32]| simd::sigmoid_grad(y, &x))),
            ("prox_grad", Box::new(|y: &mut [f32]| simd::prox_grad(y, &x, &base, alpha))),
        ];
        for (name, f) in &cases {
            let (want, got) = sweep(f);
            prop_assert_eq!(want, got, "{} diverged from scalar", name);
        }
    }

    #[test]
    fn optimizer_steps_simd_match_scalar_bitwise(len in 1usize..100, seed in 0u64..500) {
        let g = filled(len, seed);
        let w0 = filled(len, seed ^ 8);
        let s0 = filled(len, seed ^ 9);
        let v0: Vec<f32> = filled(len, seed ^ 10).iter().map(|v| v * v).collect();
        let adam = AdamParams { lr: 0.01, beta1: 0.9, beta2: 0.999, bc1: 0.1, bc2: 0.001, eps: 1e-8 };
        let run = |kernel: SimdKernel| {
            let _guard = scoped(kernel, false, 1);
            let (mut w, mut s, mut v) = (w0.clone(), s0.clone(), v0.clone());
            simd::sgd_momentum_step(&mut w, &g, &mut s, 0.9, 0.05);
            simd::adam_step(&mut w, &g, &mut s, &mut v, &adam);
            (w, s, v)
        };
        prop_assert_eq!(run(SimdKernel::Scalar), run(SimdKernel::Auto));
    }

    #[test]
    fn reductions_simd_match_scalar_bitwise(len in 1usize..200, seed in 0u64..500) {
        let x = filled(len, seed);
        let y = filled(len, seed ^ 11);
        let (d_ref, q_ref) = {
            let _g = scoped(SimdKernel::Scalar, false, 1);
            (dot(&x, &y), dist_sq(&x, &y))
        };
        for portable in [false, true] {
            let _g = scoped(SimdKernel::Auto, portable, 1);
            prop_assert_eq!(dot(&x, &y).to_bits(), d_ref.to_bits(), "dot (portable={})", portable);
            prop_assert_eq!(dist_sq(&x, &y).to_bits(), q_ref.to_bits(), "dist_sq (portable={})", portable);
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
        for (simd, portable) in [
            (SimdKernel::Scalar, false),
            (SimdKernel::Auto, false),
            (SimdKernel::Auto, true),
        ] {
            for t in [1usize, 2, 4] {
                let _g = scoped(simd, portable, t);
                let mut got = vec![0.0f32; len];
                robust_reduce_into(&refs, rule, &mut got);
                let bits: Vec<u32> = got.iter().map(|v| v.to_bits()).collect();
                prop_assert_eq!(
                    &reference,
                    &bits,
                    "{:?} at k={} ({:?}, portable={}) diverged from the reference at {} threads",
                    rule, k, simd, portable, t
                );
            }
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
