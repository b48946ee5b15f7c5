//! Wall-clock lane comparator of the SIMD micro-kernel layer: every kernel
//! with more than one lane, timed under `SimdKernel::Scalar` (the seed's
//! plain loops, what autovectorization alone gave) and `SimdKernel::Auto`
//! (runtime-dispatched AVX2+FMA, the scalar reference without them). The
//! rows, by section of `BENCH_tensor_kernels.json`:
//!
//! * `matmul` — the three matmul variants, square and dense;
//! * `matmul_training_shapes` — the same at the shapes a training step
//!   issues, with `A` at 0 %, 50 % and 75 % zeros;
//! * `transpose` — the `Bᵀ` transpose every NT matmul starts with;
//! * `slice_primitives` — `quantize_into`, the one element-wise kernel that
//!   still has a lane (the rest are one plain loop each);
//! * `robust_reduce` — the trimmed-mean and median reduction;
//! * `optimizer_sweep` — the fused optimizer sweep, whose scalar lane is the
//!   three passes it fuses;
//! * `conv_stage` — CnnLite's conv stage: the `im2col` lane at both
//!   convolutions, the max-pool lane at both pools and conv2's input
//!   gradient on a pooled, ReLU-masked `dY`;
//! * `softmax_cross_entropy` — the logit gradient of a batch (its `exp`
//!   lane).
//!
//! Every row is set up, then timed by one loop, `alternate`: the two lanes
//! alternate every repetition, each on its own output, and their output
//! bits are compared after each repetition and after every call of a first,
//! untimed pass. The lanes are bit-identical by construction; a row whose
//! bits differ panics.
//!
//! ```text
//! cargo run --release -p fedat-bench --bin bench_tensor_kernels -- \
//!     [--out FILE] [--seed N]
//! ```
//!
//! See `docs/PERF.md`, "The lane comparator" for how to read the output.

use fedat_nn::loss::softmax_cross_entropy_grad;
use fedat_tensor::conv;
use fedat_tensor::ctx::{self, KernelCtx, OverlayGuard};
use fedat_tensor::ops::{self, matmul_into, matmul_nt_into, matmul_tn_into, RobustRule};
use fedat_tensor::rng::{fill_normal, rng_for};
use fedat_tensor::simd::{self, SimdKernel};
use fedat_tensor::Tensor;
use std::hint::black_box;
use std::time::Instant;

/// Timed repetitions per lane; the minimum is reported (noise-robust).
const REPEATS: usize = 3;

/// Distinct `A` operands a training-shape row cycles through, so the zero
/// pattern is fresh on every call and no branch predictor can learn it;
/// also the length of the untimed, call-by-call checked pass.
const PATTERNS: usize = 64;

/// Whole-model weight counts of the benchmark's three model families: the
/// logistic model, CnnLite 1×8×8 and the cohort MLP.
const MODEL_LENS: [usize; 3] = [330, 13_706, 32_830];

/// One section of the record: its key, the keys its two lanes' values are
/// written under (`Scalar`'s first), their unit, the work units per unit
/// of value (`1e9` for GFLOP/s; `0` for a section that records µs per
/// call) and their decimals.
struct Section {
    name: &'static str,
    keys: [&'static str; 2],
    unit: &'static str,
    scale: f64,
    decimals: usize,
}

#[rustfmt::skip]
static MATMUL: Section = Section { name: "matmul", keys: ["scalar_gflops", "simd_gflops"], unit: "GF/s", scale: 1e9, decimals: 3 };
#[rustfmt::skip]
static SHAPES: Section = Section { name: "matmul_training_shapes", keys: ["scalar_nominal_gflops", "simd_nominal_gflops"], unit: "GF/s", scale: 1e9, decimals: 3 };
#[rustfmt::skip]
static TRANSPOSE: Section = Section { name: "transpose", keys: ["scalar_gelems_per_sec", "simd_gelems_per_sec"], unit: "Ge/s", scale: 1e9, decimals: 3 };
#[rustfmt::skip]
static SLICE: Section = Section { name: "slice_primitives", keys: ["scalar_gelems_per_sec", "simd_gelems_per_sec"], unit: "Ge/s", scale: 1e9, decimals: 3 };
#[rustfmt::skip]
static ROBUST: Section = Section { name: "robust_reduce", keys: ["scalar_melems_per_sec", "simd_melems_per_sec"], unit: "Me/s", scale: 1e6, decimals: 1 };
#[rustfmt::skip]
static SWEEP: Section = Section { name: "optimizer_sweep", keys: ["three_pass_melems_per_sec", "fused_melems_per_sec"], unit: "Me/s", scale: 1e6, decimals: 1 };
#[rustfmt::skip]
static CONV_STAGE: Section = Section { name: "conv_stage", keys: ["scalar_us", "simd_us"], unit: "us", scale: 0.0, decimals: 3 };
#[rustfmt::skip]
static SOFTMAX: Section = Section { name: "softmax_cross_entropy", keys: ["scalar_us", "simd_us"], unit: "us", scale: 0.0, decimals: 3 };

/// One row of the record: its section, its label fields as `(key, JSON
/// value)` pairs, and the two lanes' values, `Scalar`'s first.
struct Row {
    section: &'static Section,
    labels: Vec<(&'static str, String)>,
    values: [f64; 2],
}

impl Row {
    /// `Auto`'s gain over `Scalar`.
    fn speedup(&self) -> f64 {
        let [scalar, simd] = self.values;
        if self.section.scale == 0.0 {
            scalar / simd.max(1e-12)
        } else {
            simd / scalar.max(1e-12)
        }
    }

    /// The section and label values, for messages and text lines.
    fn name(&self) -> String {
        let labels = self.labels.iter().map(|(_, v)| v.trim_matches('"'));
        let words: Vec<&str> = std::iter::once(self.section.name).chain(labels).collect();
        words.join(" ")
    }
}

/// Sets a row's kernel up, times it and returns the two lanes' values.
type Measure = Box<dyn FnOnce(&str) -> [f64; 2]>;

/// A row still to measure.
struct Case {
    row: Row,
    measure: Measure,
}

impl Case {
    /// A row of `section` whose `time` returns each lane's best seconds for
    /// `iters` calls of `work` units each (unused by a µs section).
    fn new(
        section: &'static Section,
        labels: Vec<(&'static str, String)>,
        work: f64,
        iters: usize,
        time: impl FnOnce(&str, usize) -> [f64; 2] + 'static,
    ) -> Case {
        let value = move |secs: f64| match section.scale {
            0.0 => secs / iters as f64 * 1e6,
            scale => work * iters as f64 / secs.max(1e-12) / scale,
        };
        let values = [0.0; 2];
        Case {
            row: Row {
                section,
                labels,
                values,
            },
            measure: Box::new(move |what| time(what, iters).map(value)),
        }
    }
}

/// A label value as a JSON string.
fn text(s: &str) -> String {
    format!("\"{s}\"")
}

fn filled(len: usize, seed: u64) -> Vec<f32> {
    let mut v = vec![0.0f32; len];
    fill_normal(&mut rng_for(seed, 91), &mut v, 0.0, 1.0);
    v
}

fn bits(v: &[f32]) -> Vec<u32> {
    v.iter().map(|x| x.to_bits()).collect()
}

/// Pins the SIMD lane on this thread's overlay for the guard's lifetime:
/// the comparator isolates the kernel; what the pool adds is the repository
/// benchmark's `core.exec.speculative_speedup`.
fn lane(simd: SimdKernel) -> OverlayGuard {
    ctx::install(KernelCtx {
        simd,
        ..ctx::snapshot()
    })
}

/// The one timing loop: each lane's best seconds for `iters` calls of
/// `call`, `Scalar`'s first, each lane on its own state from `side`. A
/// first, untimed pass alternates the lanes call by call, up to `PATTERNS`
/// calls, and compares the states' `bits` after every call: it warms both
/// lanes and checks every `A` a training-shape row cycles through. Then the
/// lanes alternate every timed repetition, and the bits are compared after
/// each.
fn alternate<S>(
    what: &str,
    iters: usize,
    side: impl Fn() -> S,
    call: impl Fn(&mut S),
    bits: impl Fn(&S) -> Vec<u32>,
) -> [f64; 2] {
    let lanes = [SimdKernel::Scalar, SimdKernel::Auto];
    let mut sides = [side(), side()];
    let check = |sides: &[S; 2]| {
        let same = bits(&sides[0]) == bits(&sides[1]);
        assert!(same, "SIMD {what} diverged from scalar");
    };
    for _ in 0..iters.min(PATTERNS) {
        for (state, simd) in sides.iter_mut().zip(lanes) {
            let _g = lane(simd);
            call(state);
        }
        check(&sides);
    }
    let mut best = [f64::INFINITY; 2];
    for _ in 0..REPEATS {
        for ((state, simd), best) in sides.iter_mut().zip(lanes).zip(&mut best) {
            let _g = lane(simd);
            let t0 = Instant::now();
            for _ in 0..iters {
                call(state);
            }
            *best = best.min(t0.elapsed().as_secs_f64());
        }
        check(&sides);
    }
    best
}

/// A matmul row of `variant` at `(m, k, n)`: `patterns` distinct `A`
/// operands with `zeros_pct` of their entries exactly zero, cycled call by
/// call, and one `B`; a repetition is `budget` flops, at least `min_iters`
/// calls. GFLOP/s are nominal (`2·m·k·n` per call, skipped terms
/// included), so a row reads as "how fast this product got done".
fn matmul(
    section: &'static Section,
    labels: Vec<(&'static str, String)>,
    (variant, m, k, n): (&'static str, usize, usize, usize),
    (zeros_pct, patterns): (usize, usize),
    (budget, min_iters): (f64, usize),
    seed: u64,
) -> Case {
    let flops = 2.0 * (m * k * n) as f64;
    let iters = ((budget / flops) as usize).max(min_iters);
    Case::new(section, labels, flops, iters, move |what, iters| {
        let a: Vec<Vec<f32>> = (0..patterns as u64)
            .map(|i| {
                let mut a = filled(m * k, seed ^ (i << 20));
                for (j, v) in a.iter_mut().enumerate() {
                    let draw = (j as u64 ^ (i << 32)).wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 40;
                    if (draw % 100) < zeros_pct as u64 {
                        *v = 0.0;
                    }
                }
                a
            })
            .collect();
        let b = filled(k * n, seed ^ 1);
        let mm = match variant {
            "nn" => matmul_into,
            "tn" => matmul_tn_into,
            _ => matmul_nt_into,
        };
        let call = |(c, next): &mut (Vec<f32>, usize)| {
            *next = (*next + 1) % patterns;
            c.fill(0.0);
            mm(black_box(&a[*next]), black_box(&b), black_box(c), m, k, n);
        };
        let side = || (vec![0.0f32; m * n], 0);
        alternate(what, iters, side, call, |(c, _)| bits(c))
    })
}

/// The matmuls of one training step, by the role that fixes `(m, k, n)`:
/// forward `Y = X·W` (nn), weight gradient `dW = Xᵀ·dY` (tn), input gradient
/// `dX = dY·Wᵀ` (nt) of the two wide dense layers at batch 10, and the
/// per-sample GEMMs of CnnLite's two conv layers (`W·cols`, `Wᵀ·dY`,
/// `dY·colsᵀ`).
const TRAINING_SHAPES: [(&str, &str, usize, usize, usize); 12] = [
    ("dense 128→128", "nn", 10, 128, 128),
    ("dense 128→128", "tn", 128, 10, 128),
    ("dense 128→128", "nt", 10, 128, 128),
    ("dense 128→62", "nn", 10, 128, 62),
    ("dense 128→62", "tn", 128, 10, 62),
    ("dense 128→62", "nt", 10, 62, 128),
    ("conv2 16→32 4×4", "nn", 32, 144, 16),
    ("conv2 16→32 4×4", "tn", 144, 32, 16),
    ("conv2 16→32 4×4", "nt", 32, 16, 144),
    ("conv1 1→16 8×8", "nn", 16, 9, 64),
    ("conv1 1→16 8×8", "tn", 9, 16, 64),
    ("conv1 1→16 8×8", "nt", 16, 64, 9),
];

/// `simd::transpose` of a `rows × cols` matrix.
fn transpose(rows: usize, cols: usize, seed: u64) -> Case {
    let labels = vec![("rows", rows.to_string()), ("cols", cols.to_string())];
    let (len, iters) = (rows * cols, (100_000_000 / (rows * cols)).max(16));
    Case::new(&TRANSPOSE, labels, len as f64, iters, move |what, iters| {
        let src = filled(len, seed);
        let call =
            |dst: &mut Vec<f32>| simd::transpose(black_box(&src), black_box(dst), rows, cols);
        alternate(what, iters, || vec![0.0f32; len], call, |dst| bits(dst))
    })
}

/// `simd::quantize_into` over a whole model, as the quantizing codecs
/// sweep it.
fn quantize(len: usize, seed: u64) -> Case {
    let labels = vec![("kernel", text("quantize_into")), ("len", len.to_string())];
    let iters = (200_000_000 / len).max(16);
    Case::new(&SLICE, labels, len as f64, iters, move |what, iters| {
        let x = filled(len, seed);
        let call = |y: &mut Vec<f32>| {
            simd::quantize_into(black_box(y), black_box(&x), -3.0, 255.0 / 6.0, 255.0)
        };
        alternate(what, iters, || filled(len, seed ^ 2), call, |y| bits(y))
    })
}

/// `robust_reduce_into` over the robust-churn intra-tier step's ten client
/// updates of 32 768 weights: the scalar lane sorts column by column,
/// `Auto` runs the sorting network over tiles. Throughput counts input
/// elements (`k · len` per call).
fn robust(name: &'static str, rule: RobustRule, seed: u64) -> Case {
    let (k, len) = (10, 32 * 1024);
    let labels = vec![
        ("rule", text(name)),
        ("k", k.to_string()),
        ("len", len.to_string()),
    ];
    Case::new(&ROBUST, labels, (k * len) as f64, 64, move |what, iters| {
        let cohort: Vec<Vec<f32>> = (0..k)
            .map(|j| filled(len, seed ^ ((j as u64 + 1) << 8)))
            .collect();
        let inputs: Vec<&[f32]> = cohort.iter().map(|v| v.as_slice()).collect();
        let call =
            |out: &mut Vec<f32>| ops::robust_reduce_into(black_box(&inputs), rule, black_box(out));
        alternate(what, iters, || vec![0.0f32; len], call, |out| bits(out))
    })
}

/// One optimizer step over a `len`-weight parameter. `adam_sweep`'s
/// `Scalar` lane *is* the sequence it fuses — `prox_grad`, `adam_step`,
/// `fill(0.0)`, three passes of plain loops — and `Auto` the fused one. A
/// call refills the gradient as a backward pass would, and every 18th
/// starts a dispatch (downloaded weights, virgin moments — which also keeps
/// the moments out of the subnormals a converged loop would time). The
/// bits compared are the weights, gradient and both moments.
fn sweep(len: usize, prox: bool, seed: u64) -> Case {
    let labels = vec![("len", len.to_string()), ("prox", prox.to_string())];
    let iters = (30_000_000 / len).max(64);
    Case::new(&SWEEP, labels, len as f64, iters, move |what, iters| {
        let w0 = filled(len, seed ^ 2);
        let g0 = filled(len, seed);
        let global = filled(len, seed ^ 1);
        let p = simd::AdamParams {
            lr: 0.003,
            beta1: 0.9,
            beta2: 0.999,
            bc1: 1.0 - 0.9f32.powi(5),
            bc2: 1.0 - 0.999f32.powi(5),
            eps: 1e-8,
        };
        // `[w, g, m, v]` and the call count, per lane.
        let side = || ([w0.clone(), g0.clone(), vec![0.0; len], vec![0.0; len]], 0);
        let call = |([w, g, m, v], calls): &mut ([Vec<f32>; 4], usize)| {
            let virgin = *calls % 18 == 0;
            *calls += 1;
            if virgin {
                w.copy_from_slice(&w0);
            }
            g.copy_from_slice(black_box(&g0));
            if prox {
                simd::adam_sweep::<true>(w, g, m, v, (&global, 0.4), virgin, &p);
            } else {
                simd::adam_sweep::<false>(w, g, m, v, (&[], 0.0), virgin, &p);
            }
        };
        let state_bits =
            |(state, _): &([Vec<f32>; 4], usize)| state.iter().flat_map(|s| bits(s)).collect();
        alternate(what, iters, side, call, state_bits)
    })
}

/// A µs-per-call row of `section`, labelled by `kernel` and `shape`.
fn stage(
    section: &'static Section,
    (kernel, shape): (&'static str, &'static str),
    iters: usize,
    time: impl FnOnce(&str, usize) -> [f64; 2] + 'static,
) -> Case {
    let labels = vec![("kernel", text(kernel)), ("shape", text(shape))];
    Case::new(section, labels, 0.0, iters, time)
}

/// `softmax_cross_entropy_grad` over a `[10, classes]` batch of logits —
/// the logit gradient of one local step: the row maxima, the block `exp`
/// (the lane), each row's reciprocal sum and the `1/N` scale.
fn softmax_ce(shape: &'static str, classes: usize, seed: u64) -> Case {
    let kernel = ("softmax_cross_entropy_grad", shape);
    stage(&SOFTMAX, kernel, 200_000, move |what, iters| {
        let logits: Vec<f32> = filled(10 * classes, seed).iter().map(|v| 4.0 * v).collect();
        let logits = Tensor::from_vec(logits, &[10, classes]);
        let targets: Vec<u32> = (0..10).map(|r| (r * 7 % classes) as u32).collect();
        let call = |grad: &mut Tensor| {
            let g = softmax_cross_entropy_grad(&logits, &targets);
            std::mem::replace(grad, g).recycle();
        };
        alternate(
            what,
            iters,
            || Tensor::zeros(&[1]),
            call,
            |g| bits(g.data()),
        )
    })
}

/// `maxpool2d_forward` with a 2 × 2 window over a post-ReLU `[10, c, h, h]`
/// batch — one of CnnLite's two pools.
fn maxpool(shape: &'static str, (c, h): (usize, usize), seed: u64) -> Case {
    stage(
        &CONV_STAGE,
        ("maxpool2d_forward", shape),
        20_000,
        move |what, iters| {
            let x = filled(10 * c * h * h, seed)
                .iter()
                .map(|v| v.max(0.0))
                .collect();
            let x = Tensor::from_vec(x, &[10, c, h, h]);
            let call = |(out, argmax): &mut (Tensor, Vec<u32>)| {
                std::mem::replace(out, conv::maxpool2d_forward(&x, 2, argmax)).recycle();
            };
            let out_bits = |(out, argmax): &(Tensor, Vec<u32>)| {
                bits(out.data())
                    .into_iter()
                    .chain(argmax.iter().copied())
                    .collect()
            };
            alternate(
                what,
                iters,
                || (Tensor::zeros(&[1]), Vec::new()),
                call,
                out_bits,
            )
        },
    )
}

/// `ConvPlan::im2col` over a `[10, c, h, h]` batch with CnnLite's 3 × 3
/// window and padding 1 — the column build of one of its two convolutions
/// for a local step's ten samples.
fn im2col(shape: &'static str, (c, h): (usize, usize), seed: u64) -> Case {
    stage(
        &CONV_STAGE,
        ("im2col", shape),
        20_000,
        move |what, iters| {
            let spec = conv::Conv2dSpec {
                in_channels: c,
                out_channels: 1,
                kernel: 3,
                stride: 1,
                padding: 1,
            };
            let plan = conv::ConvPlan::new(spec, h, h);
            let x = filled(10 * c * h * h, seed);
            let (rows, width) = plan.cols_dims();
            let sample = rows * width;
            let call = |cols: &mut Vec<f32>| {
                cols.clear();
                let spare = &mut cols.spare_capacity_mut()[..10 * sample];
                for (img, out) in x
                    .chunks_exact(c * h * h)
                    .zip(spare.chunks_exact_mut(sample))
                {
                    plan.im2col(img, out);
                }
                // SAFETY: the ten calls initialized the first `10 * sample`
                // elements, which the capacity holds.
                unsafe { cols.set_len(10 * sample) };
            };
            alternate(
                what,
                iters,
                || Vec::with_capacity(10 * sample),
                call,
                |cols| bits(cols),
            )
        },
    )
}

/// conv2's `conv2d_backward_input` in CnnLite 1×8×8 (16 → 32 channels,
/// 3 × 3 over 4 × 4, batch 10), on a `dY` shaped the way the layers above
/// it leave one: pool2 routes each 2 × 2 window's gradient to its maximum
/// and ReLU2 drops it where that maximum is not positive — at most one
/// non-zero in four.
fn conv2_backward_input(seed: u64) -> Case {
    let kernel = ("conv2d_backward_input", "dY 10x32x4x4");
    stage(&CONV_STAGE, kernel, 5_000, move |what, iters| {
        let spec = conv::Conv2dSpec {
            in_channels: 16,
            out_channels: 32,
            kernel: 3,
            stride: 1,
            padding: 1,
        };
        let plan = conv::ConvPlan::new(spec, 4, 4);
        let weight = Tensor::from_vec(filled(32 * 144, seed), &[32, 144]);
        let (pre, grad) = (
            filled(10 * 32 * 16, seed ^ 1),
            filled(10 * 32 * 16, seed ^ 2),
        );
        let mut dy = vec![0.0f32; 10 * 32 * 16];
        for window in 0..10 * 32 * 4 {
            let first = window / 2 * 8 + window % 2 * 2;
            let at = [0, 1, 4, 5]
                .map(|d| first + d)
                .into_iter()
                .fold(first, |best, i| if pre[i] > pre[best] { i } else { best });
            if pre[at] > 0.0 {
                dy[at] = grad[at];
            }
        }
        let dy = Tensor::from_vec(dy, &[10, 32, 4, 4]);
        let call = |d_input: &mut Tensor| {
            let d = conv::conv2d_backward_input(&dy, &weight, &plan);
            std::mem::replace(d_input, d).recycle();
        };
        alternate(
            what,
            iters,
            || Tensor::zeros(&[1]),
            call,
            |d| bits(d.data()),
        )
    })
}

/// Every row of the record, in its order, unmeasured.
fn plan(seed: u64) -> Vec<Case> {
    let mut cases = Vec::new();
    for dim in [64usize, 128, 256] {
        for (variant, salt) in [("nn", 0), ("tn", 10), ("nt", 20)] {
            let labels = vec![("variant", text(variant)), ("dim", dim.to_string())];
            let shape = (variant, dim, dim, dim);
            cases.push(matmul(
                &MATMUL,
                labels,
                shape,
                (0, 1),
                (4e8, 8),
                seed ^ salt,
            ));
        }
    }
    for (i, &(layer, variant, m, k, n)) in TRAINING_SHAPES.iter().enumerate() {
        for zeros_pct in [0, 50, 75] {
            let labels = vec![
                ("layer", text(layer)),
                ("variant", text(variant)),
                ("m", m.to_string()),
                ("k", k.to_string()),
                ("n", n.to_string()),
                ("a_zeros_pct", zeros_pct.to_string()),
            ];
            let (shape, pattern) = ((variant, m, k, n), (zeros_pct, PATTERNS));
            let seed = seed ^ (30 + i as u64);
            cases.push(matmul(
                &SHAPES,
                labels,
                shape,
                pattern,
                (6e7, PATTERNS),
                seed,
            ));
        }
    }
    // W of the widest dense layer, and one sample's conv2 column matrix.
    cases.push(transpose(128, 128, seed ^ 50));
    cases.push(transpose(144, 16, seed ^ 51));
    for len in MODEL_LENS {
        cases.push(quantize(len, seed ^ 4));
    }
    let trim = RobustRule::TrimmedMean { trim: 2 };
    cases.push(robust("trimmed_mean_2", trim, seed ^ 6));
    cases.push(robust("median", RobustRule::Median, seed ^ 7));
    // A run sweeps per parameter, the largest 16 384; these are whole models.
    for len in MODEL_LENS {
        for prox in [false, true] {
            cases.push(sweep(len, prox, seed ^ 8));
        }
    }
    // CnnLite 1×8×8's two column builds, two pools and conv2's input
    // gradient, batch 10.
    cases.push(im2col("10x1x8x8", (1, 8), seed ^ 12));
    cases.push(im2col("10x16x4x4", (16, 4), seed ^ 13));
    cases.push(maxpool("10x16x8x8", (16, 8), seed ^ 9));
    cases.push(maxpool("10x32x4x4", (32, 4), seed ^ 10));
    cases.push(conv2_backward_input(seed ^ 11));
    // The loss of a batch of ten: the paper's ten classes, FEMNIST's 62.
    cases.push(softmax_ce("10x10", 10, seed ^ 12));
    cases.push(softmax_ce("10x62", 62, seed ^ 13));
    cases
}

/// The one writer: the record and the text lines of `rows`, which come
/// grouped by section in record order.
fn render(seed: u64, backend: &str, rows: &[Row]) -> (String, String) {
    let mut json = format!(
        "{{\n  \"bench\": \"tensor_kernels\",\n  \"seed\": {seed},\n  \"simd_backend\": \"{backend}\",\n  \
         \"kernel_threads\": 1,\n  \"scalar_baseline\": \"SimdKernel::Scalar: plain loops, compiler \
         autovectorization only (the seed's loops for matmul)\",\n"
    );
    let mut lines = String::new();
    let sections: Vec<&[Row]> = rows
        .chunk_by(|a, b| a.section.name == b.section.name)
        .collect();
    for (s, section) in sections.iter().enumerate() {
        let Section {
            name,
            keys: [scalar_key, simd_key],
            unit,
            decimals: d,
            ..
        } = section[0].section;
        json.push_str(&format!("  \"{name}\": [\n"));
        for (i, row) in section.iter().enumerate() {
            let labels: String = row
                .labels
                .iter()
                .map(|(k, v)| format!("\"{k}\": {v}, "))
                .collect();
            let ([scalar, simd], speedup) = (row.values, row.speedup());
            let comma = if i + 1 < section.len() { "," } else { "" };
            json.push_str(&format!(
                "    {{ {labels}\"{scalar_key}\": {scalar:.d$}, \"{simd_key}\": {simd:.d$}, \
                 \"speedup\": {speedup:.3} }}{comma}\n"
            ));
            lines.push_str(&format!(
                "{:<56} scalar {scalar:>8.2} {unit:<4}  simd {simd:>8.2} {unit:<4}  speedup {speedup:>5.2}x\n",
                row.name()
            ));
        }
        json.push_str(if s + 1 < sections.len() {
            "  ],\n"
        } else {
            "  ]\n}\n"
        });
    }
    (json, lines)
}

fn main() {
    let mut args = std::env::args().skip(1);
    let (mut out_path, mut seed) = (String::from("BENCH_tensor_kernels.json"), 9u64);
    while let Some(flag) = args.next() {
        match (flag.as_str(), args.next()) {
            ("--out", Some(path)) => out_path = path,
            ("--seed", Some(n)) => seed = n.parse().expect("--seed takes an integer"),
            _ => {
                eprintln!("unknown flag or missing value: {flag}");
                std::process::exit(2);
            }
        }
    }
    let backend = {
        let _g = lane(SimdKernel::Auto);
        simd::backend_name()
    };
    eprintln!("[bench_tensor_kernels] Auto dispatches to: {backend}");

    let mut rows: Vec<Row> = Vec::new();
    for Case { mut row, measure } in plan(seed) {
        if rows
            .last()
            .is_none_or(|r| r.section.name != row.section.name)
        {
            eprintln!("[bench_tensor_kernels] {} ...", row.section.name);
        }
        row.values = measure(&row.name());
        rows.push(row);
    }
    let (json, lines) = render(seed, backend, &rows);
    std::fs::write(&out_path, &json).expect("writing benchmark record");
    print!("{lines}");
    eprintln!("[bench_tensor_kernels] wrote {out_path}");
}

#[cfg(test)]
mod tests {
    use super::*;

    /// One entry per row of a rendered record — its section and its
    /// `(key, value)` pairs, each value under a `measured` key blanked —
    /// and one per top-level key, with section `""` and its value blanked.
    fn structure(json: &str, measured: &[&str]) -> Vec<(String, Vec<(String, String)>)> {
        let mut section = String::new();
        let mut entries = Vec::new();
        for line in json.lines().map(str::trim) {
            if let Some(row) = line.strip_prefix("{ ") {
                let row = row.trim_end_matches(',').trim_end_matches(" }");
                let pairs = row
                    .split(", ")
                    .map(|pair| {
                        let (key, value) = pair.split_once(": ").expect("a `key: value` pair");
                        let key = key.trim_matches('"');
                        let value = if measured.contains(&key) { "" } else { value };
                        (key.to_string(), value.to_string())
                    })
                    .collect();
                entries.push((section.clone(), pairs));
            } else if let Some((key, value)) = line.split_once(": ") {
                let key = key.trim_matches('"').to_string();
                if value == "[" {
                    section = key;
                } else {
                    entries.push((String::new(), vec![(key, String::new())]));
                }
            }
        }
        entries
    }

    /// Adding, dropping, reordering or relabelling a row without
    /// regenerating `BENCH_tensor_kernels.json` fails here; nothing is
    /// timed.
    #[test]
    fn the_rows_match_the_committed_record() {
        let rows: Vec<Row> = plan(9).into_iter().map(|case| case.row).collect();
        let measured: Vec<&str> = rows
            .iter()
            .flat_map(|r| r.section.keys)
            .chain(["speedup"])
            .collect();
        let committed = structure(
            include_str!("../../../../BENCH_tensor_kernels.json"),
            &measured,
        );
        let rendered = structure(&render(9, "avx2+fma", &rows).0, &measured);
        let sections = |entries: &[(String, Vec<(String, String)>)]| {
            let mut counts: Vec<(String, usize)> = Vec::new();
            for (section, _) in entries {
                match counts.last_mut() {
                    Some((last, n)) if last == section => *n += 1,
                    _ => counts.push((section.clone(), 1)),
                }
            }
            counts
        };
        assert_eq!(
            sections(&rendered),
            sections(&committed),
            "sections or row counts differ from BENCH_tensor_kernels.json: regenerate it"
        );
        for (got, want) in rendered.iter().zip(&committed) {
            assert_eq!(
                got, want,
                "a row differs from BENCH_tensor_kernels.json: regenerate it"
            );
        }
    }
}
