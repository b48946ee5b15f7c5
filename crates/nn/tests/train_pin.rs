//! Bit-exact pins for a local training step on every model family — the
//! net under any change to the matmul lanes, the conv data movement, the
//! `Layer` API or an activation's backward.
//!
//! `strategy_pin.rs` and `codec_pin.rs` train `sent140_like`'s logistic
//! model (no ReLU, no conv, no hidden layer), and
//! `training_is_bit_identical_across_simd_kernels` compares `Auto` with
//! `Scalar`, which cannot see drift in code both lanes share. Here each
//! model runs 18 `train_batch` calls (Adam 0.003, `ProxTerm` λ = 0.4, a
//! fresh normal batch of 10 per call, every sixth a ragged 7, every third
//! with its negative inputs clamped to zero so layer 0 also reads exact
//! zeros) and one evaluation-sized forward (batch 64); every batch loss
//! (of the weights the batch's step starts from: `train_batch` computes
//! none), the final weights and the logits fold into FNV-1a digests
//! compared with literals.
//!
//! The literals hold on the default lane and under `SimdKernel::Scalar`
//! (`FEDAT_SIMD=scalar`) — each test checks both. They fold in libm's `exp`/`ln` through the loss, so
//! they are pinned to the reference host's libm, like `strategy_pin.rs`.
//!
//! Below the five families sit the solver rows — the net under any change
//! to how a step hands its gradient to the optimizer: Adam *without* a prox
//! term (the FedAvg / TiFL / FedAsync path), a step whose gradient is exactly zero somewhere in every
//! parameter while the batch carries `-0.0`, and one `LstmLm` step.

use fedat_nn::layer::Mode;
use fedat_nn::loss::softmax_cross_entropy_loss;
use fedat_nn::model::Model;
use fedat_nn::models::ModelSpec;
use fedat_nn::optim::{Adam, Optimizer, ProxTerm};
use fedat_tensor::ctx::{self, KernelCtx};
use fedat_tensor::rng::rng_for;
use fedat_tensor::simd::SimdKernel;
use fedat_tensor::Tensor;
use rand::RngExt;

const SEED: u64 = 29;
const BATCHES: usize = 18;

fn fnv(h: &mut u64, bits: u32) {
    for b in bits.to_le_bytes() {
        *h ^= b as u64;
        *h = h.wrapping_mul(0x100000001b3);
    }
}

fn digest(values: impl IntoIterator<Item = f32>) -> u64 {
    let mut h = 0xcbf29ce484222325u64;
    for v in values {
        fnv(&mut h, v.to_bits());
    }
    h
}

/// The local solver of a pinned run.
#[derive(Clone, Copy, Debug)]
enum Solver {
    /// Adam 0.003 under `ProxTerm` λ = 0.4 — FedAT's own step.
    AdamProx,
    /// Adam 0.003, no prox term.
    Adam,
}

impl Solver {
    fn build(self, model: &dyn Model) -> (Box<dyn Optimizer>, Option<ProxTerm>) {
        let prox = || Some(ProxTerm::new(0.4, model.weights()));
        match self {
            Solver::AdamProx => (Box::new(Adam::new(0.003)), prox()),
            Solver::Adam => (Box::new(Adam::new(0.003)), None),
        }
    }
}

/// `(train digest, eval digest)` of `spec` on the calling thread's lane.
fn run(spec: &ModelSpec, features: usize, classes: u32, solver: Solver) -> (u64, u64) {
    let mut model = spec.build(SEED);
    let (mut opt, prox) = solver.build(model.as_ref());
    let mut rng = rng_for(SEED, 7);
    let mut seen = Vec::new();
    for step in 0..BATCHES {
        let rows = if step % 6 == 5 { 7 } else { 10 };
        let mut x = Tensor::randn(&mut rng, &[rows, features], 0.0, 1.0);
        if step % 3 == 2 {
            x.map_inplace(|v| v.max(0.0));
        }
        let y: Vec<u32> = (0..rows).map(|_| rng.random_range(0..classes)).collect();
        seen.push(pinned_step(
            model.as_mut(),
            &x,
            &y,
            opt.as_mut(),
            prox.as_ref(),
        ));
    }
    assert!(seen.iter().all(|l| l.is_finite()), "{solver:?} diverged");
    seen.extend(model.weights());
    let x = Tensor::randn(&mut rng, &[64, features], 0.0, 1.0);
    let logits = model.logits(&x, Mode::Eval);
    (digest(seen), digest(logits.data().iter().copied()))
}

/// One pinned step: the batch loss of the pre-step weights (the mean
/// softmax cross-entropy of the batch's `Mode::Eval` logits, the value
/// the step's gradient is the derivative of), then `train_batch`.
fn pinned_step(
    model: &mut dyn Model,
    x: &Tensor,
    y: &[u32],
    opt: &mut dyn Optimizer,
    prox: Option<&ProxTerm>,
) -> f32 {
    let logits = model.logits(x, Mode::Eval);
    let loss = softmax_cross_entropy_loss(&logits, y);
    logits.recycle();
    model.train_batch(x, y, opt, prox);
    loss
}

/// Runs `run` on the default and the scalar lane; each must reproduce
/// `want`.
fn check_lanes(what: &str, want: (u64, u64), run: impl Fn() -> (u64, u64)) {
    let lanes = [
        ("default", ctx::snapshot()),
        (
            "scalar",
            KernelCtx {
                simd: SimdKernel::Scalar,
                ..ctx::snapshot()
            },
        ),
    ];
    for (lane, kernel_ctx) in lanes {
        let _g = ctx::install(kernel_ctx);
        let got = run();
        assert_eq!(
            got, want,
            "{what} on the {lane} lane: training moved — digests ({:#018x}, {:#018x}), \
             pinned ({:#018x}, {:#018x})",
            got.0, got.1, want.0, want.1
        );
    }
}

fn check_solver(spec: ModelSpec, features: usize, classes: u32, solver: Solver, want: (u64, u64)) {
    check_lanes(&format!("{spec:?} with {solver:?}"), want, || {
        run(&spec, features, classes, solver)
    });
}

fn check(spec: ModelSpec, features: usize, classes: u32, want: (u64, u64)) {
    check_solver(spec, features, classes, Solver::AdamProx, want);
}

#[test]
fn cnn_lite_1x8x8() {
    let spec = ModelSpec::CnnLite {
        channels: 1,
        height: 8,
        width: 8,
        classes: 10,
    };
    check(spec, 64, 10, (0xe33be5d469af9432, 0x91163825866df6ae));
}

#[test]
fn cnn_lite_3x8x12() {
    let spec = ModelSpec::CnnLite {
        channels: 3,
        height: 8,
        width: 12,
        classes: 5,
    };
    check(
        spec,
        3 * 8 * 12,
        5,
        (0x93b4043edf919d25, 0xdceb0fee8df75c97),
    );
}

#[test]
fn cnn_paper_2x8x8() {
    let spec = ModelSpec::CnnPaper {
        channels: 2,
        height: 8,
        width: 8,
        classes: 4,
    };
    check(spec, 2 * 8 * 8, 4, (0xd07c0d657f6c5432, 0xf27c27310c4d497a));
}

#[test]
fn mlp_64_128_128_62() {
    let spec = ModelSpec::Mlp {
        input: 64,
        hidden: vec![128, 128],
        classes: 62,
    };
    check(spec, 64, 62, (0x43da04dd36eac8b3, 0xabfa7950248f73d5));
}

#[test]
fn logistic_32_10() {
    let spec = ModelSpec::Logistic {
        input: 32,
        classes: 10,
    };
    check(spec, 32, 10, (0x1d96eb3779772646, 0x743951b928187024));
}

// ----------------------------------------------------------------------
// Solver rows
// ----------------------------------------------------------------------

fn mlp() -> ModelSpec {
    ModelSpec::Mlp {
        input: 64,
        hidden: vec![128, 128],
        classes: 62,
    }
}

fn cnn_lite() -> ModelSpec {
    ModelSpec::CnnLite {
        channels: 1,
        height: 8,
        width: 8,
        classes: 10,
    }
}

#[test]
fn mlp_adam_without_prox() {
    check_solver(
        mlp(),
        64,
        62,
        Solver::Adam,
        (0x4d24ea360e0f73af, 0xcf8a96bf1ddd6e66),
    );
}

#[test]
fn cnn_lite_adam_without_prox() {
    check_solver(
        cnn_lite(),
        64,
        10,
        Solver::Adam,
        (0xaf8813605aa03323, 0x52c7c2b7547cf9a5),
    );
}

/// An MLP 24-16-6 step whose gradient is exactly zero somewhere in every
/// parameter, on a batch that carries `-0.0`: input columns 0..4 are zeros
/// of alternating sign (rows 0..4 of `W1` get no gradient), hidden units 3
/// and 7 are dead behind a −1000 bias (their `W1` columns, `b1` entries and
/// `W2` rows get none) and class 5 sits behind a −10 000 bias and is never
/// a label, so its softmax underflows to exactly 0.0 (`W2` column 5 and
/// `b2[5]` get none). Under Adam + prox a weight with a zero gradient that
/// still equals its global value must not move at all — asserted, so the
/// batch is known to do what this says — and everything folds into the
/// digests as above.
fn run_zero_gradients() -> (u64, u64) {
    const IN: usize = 24;
    const HIDDEN: usize = 16;
    const CLASSES: usize = 6;
    let spec = ModelSpec::Mlp {
        input: IN,
        hidden: vec![HIDDEN],
        classes: CLASSES,
    };
    let mut model = spec.build(SEED);
    let mut w0 = model.weights();
    let b1 = IN * HIDDEN;
    let w2 = b1 + HIDDEN;
    let b2 = w2 + HIDDEN * CLASSES;
    w0[b1 + 3] = -1000.0;
    w0[b1 + 7] = -1000.0;
    w0[b2 + 5] = -10_000.0;
    model.set_weights(&w0);
    // Flat indices whose gradient is exactly zero on every step.
    let mut frozen: Vec<usize> = (0..4 * HIDDEN).collect();
    for unit in [3, 7] {
        frozen.extend((0..IN).map(|i| i * HIDDEN + unit));
        frozen.push(b1 + unit);
        frozen.extend((0..CLASSES).map(|c| w2 + unit * CLASSES + c));
    }
    frozen.extend((0..HIDDEN).map(|h| w2 + h * CLASSES + 5));
    frozen.push(b2 + 5);
    // Dead units × zero columns × the silent class overlap.
    frozen.sort_unstable();
    frozen.dedup();

    let prox = ProxTerm::new(0.4, w0.clone());
    let mut opt = Adam::new(0.003);
    let mut rng = rng_for(SEED, 8);
    let mut seen = Vec::new();
    for _ in 0..6 {
        let mut x = Tensor::randn(&mut rng, &[10, IN], 0.0, 1.0);
        for (i, v) in x.data_mut().iter_mut().enumerate() {
            if i % IN < 4 {
                *v = if i % 2 == 0 { 0.0 } else { -0.0 };
            }
        }
        let y: Vec<u32> = (0..10).map(|_| rng.random_range(0..5)).collect();
        seen.push(pinned_step(model.as_mut(), &x, &y, &mut opt, Some(&prox)));
    }
    let w = model.weights();
    for &i in &frozen {
        assert_eq!(
            w[i].to_bits(),
            w0[i].to_bits(),
            "weight {i} moved: its gradient was not exactly zero"
        );
    }
    let moved = (0..w.len()).filter(|&i| w[i] != w0[i]).count();
    assert_eq!(moved, w.len() - frozen.len(), "a live weight stood still");
    seen.extend(w);
    let x = Tensor::randn(&mut rng, &[64, IN], 0.0, 1.0);
    let logits = model.logits(&x, Mode::Eval);
    (digest(seen), digest(logits.data().iter().copied()))
}

#[test]
fn mlp_zero_gradients_and_negative_zero_inputs() {
    check_lanes(
        "MLP 24-16-6 with zero gradients",
        (0x7cf5f77d27b5f5a3, 0xbf6f0e376f1e9713),
        run_zero_gradients,
    );
}

/// `LstmLm` (embedding + LSTM + projection): six Adam + prox steps on
/// batches of four 5-token windows, then a forward over eight windows.
fn run_lstm() -> (u64, u64) {
    const VOCAB: usize = 12;
    let spec = ModelSpec::LstmLm {
        vocab: VOCAB,
        embed: 6,
        hidden: 8,
    };
    let mut model = spec.build(SEED);
    let (mut opt, prox) = Solver::AdamProx.build(model.as_ref());
    let mut rng = rng_for(SEED, 9);
    let mut windows = |n: usize| {
        let ids: Vec<f32> = (0..n * 5)
            .map(|_| rng.random_range(0..VOCAB) as f32)
            .collect();
        Tensor::from_vec(ids, &[n, 5])
    };
    let mut seen = Vec::new();
    for _ in 0..6 {
        let x = windows(4);
        // Target: the next token of a cyclic language, per position.
        let y: Vec<u32> = x
            .data()
            .iter()
            .map(|&t| (t as u32 + 1) % VOCAB as u32)
            .collect();
        seen.push(pinned_step(
            model.as_mut(),
            &x,
            &y,
            opt.as_mut(),
            prox.as_ref(),
        ));
    }
    seen.extend(model.weights());
    let logits = model.logits(&windows(8), Mode::Eval);
    (digest(seen), digest(logits.data().iter().copied()))
}

#[test]
fn lstm_lm_12_6_8() {
    check_lanes(
        "LstmLm 12-6-8",
        (0x016f0abcca16e3c9, 0x7c2feed244e7fb73),
        run_lstm,
    );
}
