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
//! zeros) and one evaluation-sized forward (batch 64); every batch loss,
//! the final weights and the logits fold into FNV-1a digests compared with
//! literals.
//!
//! The literals hold on the default lane, under `SimdKernel::Scalar`
//! (`FEDAT_SIMD=scalar`) and with `portable_only` installed — each test
//! checks all three. They fold in libm's `exp`/`ln` through the loss, so
//! they are pinned to the reference host's libm, like `strategy_pin.rs`.

use fedat_nn::layer::Mode;
use fedat_nn::models::ModelSpec;
use fedat_nn::optim::{Adam, ProxTerm};
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

/// `(train digest, eval digest)` of `spec` on the calling thread's lane.
fn run(spec: &ModelSpec, features: usize, classes: u32) -> (u64, u64) {
    let mut model = spec.build(SEED);
    let prox = ProxTerm::new(0.4, model.weights());
    let mut opt = Adam::new(0.003);
    let mut rng = rng_for(SEED, 7);
    let mut seen = Vec::new();
    for step in 0..BATCHES {
        let rows = if step % 6 == 5 { 7 } else { 10 };
        let mut x = Tensor::randn(&mut rng, &[rows, features], 0.0, 1.0);
        if step % 3 == 2 {
            x.map_inplace(|v| v.max(0.0));
        }
        let y: Vec<u32> = (0..rows).map(|_| rng.random_range(0..classes)).collect();
        seen.push(model.train_batch(&x, &y, &mut opt, Some(&prox)));
    }
    seen.extend(model.weights());
    let x = Tensor::randn(&mut rng, &[64, features], 0.0, 1.0);
    let logits = model.logits(&x, Mode::Eval);
    (digest(seen), digest(logits.data().iter().copied()))
}

fn check(spec: ModelSpec, features: usize, classes: u32, want: (u64, u64)) {
    let lanes = [
        ("default", ctx::snapshot()),
        (
            "scalar",
            KernelCtx {
                simd: SimdKernel::Scalar,
                ..ctx::snapshot()
            },
        ),
        (
            "portable",
            KernelCtx {
                simd: SimdKernel::Auto,
                portable_only: true,
                ..ctx::snapshot()
            },
        ),
    ];
    for (lane, kernel_ctx) in lanes {
        let _g = ctx::install(kernel_ctx);
        let got = run(&spec, features, classes);
        assert_eq!(
            got, want,
            "{spec:?} on the {lane} lane: training moved — digests ({:#018x}, {:#018x}), \
             pinned ({:#018x}, {:#018x})",
            got.0, got.1, want.0, want.1
        );
    }
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
