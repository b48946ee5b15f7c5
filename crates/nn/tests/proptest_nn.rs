//! Property-based tests for layers, losses, and optimizers.

use fedat_nn::layer::Mode;
use fedat_nn::layers::{Dense, Relu};
use fedat_nn::loss::{softmax_cross_entropy_grad, softmax_cross_entropy_loss};
use fedat_nn::model::{Model, Sequential};
use fedat_nn::models::ModelSpec;
use fedat_nn::optim::{Adam, Optimizer, ProxTerm};
use fedat_nn::param::Param;
use fedat_tensor::ctx::{self, KernelCtx};
use fedat_tensor::rng::rng_for;
use fedat_tensor::simd::SimdKernel;
use fedat_tensor::Tensor;
use proptest::prelude::*;

fn logits_and_targets() -> impl Strategy<Value = (Tensor, Vec<u32>)> {
    (1usize..8, 2usize..6).prop_flat_map(|(rows, classes)| {
        (
            prop::collection::vec(-5.0f32..5.0, rows * classes),
            prop::collection::vec(0u32..classes as u32, rows),
        )
            .prop_map(move |(data, y)| (Tensor::from_vec(data, &[rows, classes]), y))
    })
}

/// The logit values the fused gradient must treat like its definition:
/// signed zeros, infinities, a NaN and magnitudes whose `exp` saturates.
const EDGE_LOGITS: [f32; 7] = [
    0.0,
    -0.0,
    f32::NEG_INFINITY,
    f32::INFINITY,
    f32::NAN,
    1e30,
    -1e30,
];

/// `N × classes` logits for `N` in 1..=64 and 1..=70 classes, plus one
/// target per row. Each entry is an [`EDGE_LOGITS`] value with a chance
/// drawn per case (from 7 in 7 to 7 in 400), an ordinary one otherwise, so
/// some cases are all edges and some have whole rows without one.
fn edge_logits_and_targets() -> impl Strategy<Value = (Tensor, Vec<u32>)> {
    (1usize..=64, 1usize..=70, 7usize..400).prop_flat_map(|(rows, classes, spread)| {
        (
            prop::collection::vec((0..spread, -20.0f32..20.0), rows * classes),
            prop::collection::vec(0u32..classes as u32, rows),
        )
            .prop_map(move |(draws, y)| {
                let data = draws
                    .into_iter()
                    .map(|(pick, v)| EDGE_LOGITS.get(pick).copied().unwrap_or(v))
                    .collect();
                (Tensor::from_vec(data, &[rows, classes]), y)
            })
    })
}

/// The logit gradient by its definition, in three passes:
/// `softmax_block` (an `f32::max` fold for the row maximum), then
/// `row[t] −= 1`, then a scale by `1/N`.
fn two_pass_gradient(logits: &Tensor, y: &[u32]) -> Vec<f32> {
    let (n, classes) = logits.shape().as_matrix();
    let mut probs = logits.data().to_vec();
    fedat_tensor::ops::softmax_block(&mut probs, classes);
    let inv_n = 1.0 / n as f32;
    for (row, &t) in probs.chunks_exact_mut(classes).zip(y) {
        row[t as usize] -= 1.0;
        fedat_tensor::simd::scale(row, inv_n);
    }
    probs
}

/// Each value's bits, with every NaN as one quiet NaN. Where both operands
/// of an operation are NaNs of different sign (a row holding a NaN and a
/// `−∞ − (−∞)`), Rust leaves the sign of the result unspecified, and two
/// compilations of the same product may pick either operand's; every other
/// bit is compared as it is.
fn bits(values: &[f32]) -> Vec<u32> {
    values
        .iter()
        .map(|v| if v.is_nan() { f32::NAN } else { *v }.to_bits())
        .collect()
}

proptest! {
    #[test]
    fn xent_loss_is_nonnegative_and_grad_rows_sum_zero((logits, y) in logits_and_targets()) {
        let loss = softmax_cross_entropy_loss(&logits, &y);
        let grad = softmax_cross_entropy_grad(&logits, &y);
        prop_assert!(loss >= 0.0);
        let (rows, cols) = (logits.dims()[0], logits.dims()[1]);
        for r in 0..rows {
            let s: f32 = grad.data()[r * cols..(r + 1) * cols].iter().sum();
            prop_assert!(s.abs() < 1e-5, "row {} sums to {}", r, s);
        }
    }

    #[test]
    fn xent_gradient_magnitude_bounded((logits, y) in logits_and_targets()) {
        // Each entry of (softmax − onehot)/N lies in [−1/N, 1/N].
        let grad = softmax_cross_entropy_grad(&logits, &y);
        let n = y.len() as f32;
        for &g in grad.data() {
            prop_assert!(g.abs() <= 1.0 / n + 1e-6);
        }
    }

    #[test]
    fn fused_xent_gradient_is_the_two_pass_definition_bitwise(
        (logits, y) in edge_logits_and_targets()
    ) {
        let want = bits(&two_pass_gradient(&logits, &y));
        for simd in [SimdKernel::Auto, SimdKernel::Scalar] {
            let _g = ctx::install(KernelCtx { simd, ..ctx::snapshot() });
            let grad = softmax_cross_entropy_grad(&logits, &y);
            prop_assert_eq!(bits(grad.data()), want, "{:?} lane", simd);
            grad.recycle();
        }
    }

    #[test]
    fn dense_is_affine(scale in 0.1f32..3.0, seed in 0u64..500) {
        // dense(a·x) − dense(0) == a·(dense(x) − dense(0)) for linear part.
        let mut rng = rng_for(seed, 1);
        let mut layer = Dense::new(&mut rng, 5, 3);
        let x = Tensor::randn(&mut rng, &[2, 5], 0.0, 1.0);
        let zero = Tensor::zeros(&[2, 5]);
        let f0 = layer.forward_test(&zero);
        let fx = layer.forward_test(&x);
        let fsx = layer.forward_test(&x.scale(scale));
        for i in 0..fx.len() {
            let lhs = fsx.data()[i] - f0.data()[i];
            let rhs = scale * (fx.data()[i] - f0.data()[i]);
            prop_assert!((lhs - rhs).abs() < 1e-3 + 1e-3 * rhs.abs());
        }
    }

    #[test]
    fn relu_output_nonnegative(data in prop::collection::vec(-10.0f32..10.0, 1..64)) {
        let n = data.len();
        let mut r = Relu::new();
        use fedat_nn::layer::Layer;
        let y = r.forward(Tensor::from_vec(data, &[1, n]), Mode::Eval);
        prop_assert!(y.data().iter().all(|&v| v >= 0.0));
    }

    #[test]
    fn model_weight_roundtrip(hidden in 1usize..12, classes in 2usize..6, seed in 0u64..100) {
        let spec = ModelSpec::Mlp { input: 4, hidden: vec![hidden], classes };
        let a = spec.build(seed);
        let w = a.weights();
        prop_assert_eq!(w.len(), a.num_params());
        let mut b = spec.build(seed.wrapping_add(1));
        b.set_weights(&w);
        prop_assert_eq!(b.weights(), w);
    }

    #[test]
    fn adam_bounded_first_step(lr in 0.001f32..0.1, g in prop::collection::vec(-10.0f32..10.0, 1..16)) {
        // Adam's first bias-corrected step magnitude is ≈ lr per coordinate.
        let n = g.len();
        let mut p = Param::new(Tensor::zeros(&[n]));
        p.grad = Tensor::from_vec(g.clone(), &[n]);
        let mut opt = Adam::new(lr);
        opt.step(&mut [&mut p], None);
        for (i, w) in p.value.data().iter().enumerate() {
            if g[i].abs() > 1e-3 {
                prop_assert!(w.abs() <= lr * 1.01, "step {} exceeds lr {}", w, lr);
            }
        }
    }
}

/// Extension trait so the proptest above can run an eval-mode forward
/// without mutating test ergonomics.
trait ForwardTest {
    fn forward_test(&mut self, x: &Tensor) -> Tensor;
}

impl ForwardTest for Dense {
    fn forward_test(&mut self, x: &Tensor) -> Tensor {
        use fedat_nn::layer::Layer;
        self.forward(x.clone(), Mode::Eval)
    }
}

#[test]
fn sequential_training_is_deterministic() {
    let run = || {
        let mut rng = rng_for(5, 5);
        let mut m = Sequential::new(vec![
            Box::new(Dense::new(&mut rng, 6, 8)),
            Box::new(Relu::new()),
            Box::new(Dense::new(&mut rng, 8, 3)),
        ]);
        let x = Tensor::randn(&mut rng, &[12, 6], 0.0, 1.0);
        let y: Vec<u32> = (0..12).map(|i| (i % 3) as u32).collect();
        let mut opt = Adam::new(0.01);
        for _ in 0..20 {
            m.train_batch(&x, &y, &mut opt, None);
        }
        m.weights()
    };
    assert_eq!(run(), run());
}

#[test]
fn training_is_bit_identical_across_simd_kernels() {
    // End-to-end pin for the rewired nn sweeps (activations, dropout,
    // loss, optimizer steps) on both model families: forcing the scalar
    // kernel must reproduce the Auto weights bit-for-bit.
    let specs = [
        ModelSpec::Mlp {
            input: 10,
            hidden: vec![16, 9],
            classes: 4,
        },
        ModelSpec::CnnLite {
            channels: 2,
            height: 8,
            width: 8,
            classes: 3,
        },
    ];
    for spec in specs {
        let run = |kernel: SimdKernel| {
            let _g = ctx::install(KernelCtx {
                simd: kernel,
                ..ctx::snapshot()
            });
            let mut m = spec.build(11);
            let mut rng = rng_for(6, 6);
            let feat = match spec {
                ModelSpec::Mlp { input, .. } => input,
                ModelSpec::CnnLite {
                    channels,
                    height,
                    width,
                    ..
                } => channels * height * width,
                _ => unreachable!(),
            };
            let x = Tensor::randn(&mut rng, &[10, feat], 0.0, 1.0);
            let y: Vec<u32> = (0..10).map(|i| (i % 3) as u32).collect();
            let global = m.weights();
            let prox = ProxTerm::new(0.4, global);
            let mut opt = Adam::new(0.01);
            for _ in 0..6 {
                m.train_batch(&x, &y, &mut opt, Some(&prox));
            }
            let mut plain = Adam::new(0.05);
            for _ in 0..3 {
                m.train_batch(&x, &y, &mut plain, None);
            }
            m.weights()
        };
        let auto = run(SimdKernel::Auto);
        let scalar = run(SimdKernel::Scalar);
        assert_eq!(
            auto.iter().map(|w| w.to_bits()).collect::<Vec<_>>(),
            scalar.iter().map(|w| w.to_bits()).collect::<Vec<_>>(),
            "training diverged between SIMD kernels for {spec:?}"
        );
    }
}
