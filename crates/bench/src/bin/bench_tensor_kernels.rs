//! Wall-clock microbenchmark of the SIMD micro-kernel layer: the three
//! matmul variants (square and dense, then at the shapes a training step
//! issues with `A` at 0 %, 50 % and 75 % zeros), the `Bᵀ` transpose, the
//! element-wise kernels that still have a lane (`dot`, `dist_sq`,
//! `quantize_into` — the rest are one plain loop each, there is nothing to
//! compare), the robust (trimmed-mean / median) reduction and the optimizer
//! sweep (whose scalar lane is the three passes it fuses), each timed under
//! `SimdKernel::Auto`
//! (runtime-dispatched AVX2+FMA or the portable fallback) and
//! `SimdKernel::Scalar` (the seed's plain loops, what autovectorization
//! alone gave). Writes both throughputs and the speedup to
//! `BENCH_tensor_kernels.json`.
//!
//! The two kernels are bit-identical by construction — asserted here on
//! every shape before timing.
//!
//! ```text
//! cargo run --release -p fedat-bench --bin bench_tensor_kernels -- \
//!     [--out FILE] [--seed N]
//! ```
//!
//! See `docs/PERF.md` for how to read the output.

use fedat_tensor::ctx::{self, KernelCtx, OverlayGuard};
use fedat_tensor::ops;
use fedat_tensor::ops::{matmul_into, matmul_nt_into, matmul_tn_into, RobustRule};
use fedat_tensor::rng::{fill_normal, rng_for};
use fedat_tensor::simd::{self, SimdKernel};
use std::hint::black_box;
use std::time::Instant;

/// Timed repeats per kernel; the minimum is reported (noise-robust).
const REPEATS: usize = 3;

/// Pins the SIMD backend for the guard's lifetime: this benchmark isolates
/// the micro-kernel itself; what the pool adds is the repository
/// benchmark's `core.exec.speculative_speedup`.
fn with_kernel(simd: SimdKernel) -> OverlayGuard {
    ctx::install(KernelCtx {
        simd,
        ..ctx::snapshot()
    })
}

fn filled(len: usize, seed: u64) -> Vec<f32> {
    let mut v = vec![0.0f32; len];
    fill_normal(&mut rng_for(seed, 91), &mut v, 0.0, 1.0);
    v
}

/// Times `iters` calls of `f`, three repeats, returns best seconds.
fn time_best(iters: usize, mut f: impl FnMut()) -> f64 {
    let mut best = f64::INFINITY;
    for _ in 0..REPEATS {
        let t0 = Instant::now();
        for _ in 0..iters {
            f();
        }
        best = best.min(t0.elapsed().as_secs_f64());
    }
    best
}

struct MatmulSample {
    variant: &'static str,
    dim: usize,
    scalar_gflops: f64,
    simd_gflops: f64,
}

impl MatmulSample {
    fn speedup(&self) -> f64 {
        self.simd_gflops / self.scalar_gflops.max(1e-12)
    }
}

fn bench_matmul(
    variant: &'static str,
    dim: usize,
    seed: u64,
    mm: impl Fn(&[f32], &[f32], &mut [f32], usize),
) -> MatmulSample {
    let a = filled(dim * dim, seed);
    let b = filled(dim * dim, seed ^ 1);
    let mut c = vec![0.0f32; dim * dim];

    // Bit-identity check before timing.
    let mut once = |kernel: SimdKernel| {
        let _g = with_kernel(kernel);
        c.fill(0.0);
        mm(&a, &b, &mut c, dim);
        c.clone()
    };
    assert_eq!(
        once(SimdKernel::Scalar),
        once(SimdKernel::Auto),
        "SIMD {variant} {dim} diverged from scalar"
    );

    let flops = 2.0 * (dim * dim * dim) as f64;
    let iters = ((400_000_000.0 / flops) as usize).max(8);
    let mut measure = |kernel: SimdKernel| {
        let _g = with_kernel(kernel);
        // One warm-up call per kernel so timed runs start cache-warm.
        c.fill(0.0);
        mm(&a, &b, &mut c, dim);
        let secs = time_best(iters, || {
            c.fill(0.0);
            mm(black_box(&a), black_box(&b), black_box(&mut c), dim);
        });
        flops * iters as f64 / secs.max(1e-12) / 1e9
    };
    let scalar_gflops = measure(SimdKernel::Scalar);
    let simd_gflops = measure(SimdKernel::Auto);
    MatmulSample {
        variant,
        dim,
        scalar_gflops,
        simd_gflops,
    }
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

/// Distinct `A` operands a timed loop cycles through, so the zero pattern is
/// fresh on every call and no branch predictor can learn it.
const PATTERNS: usize = 64;

struct ShapeSample {
    layer: &'static str,
    variant: &'static str,
    m: usize,
    k: usize,
    n: usize,
    zeros_pct: usize,
    scalar_gflops: f64,
    simd_gflops: f64,
}

impl ShapeSample {
    fn speedup(&self) -> f64 {
        self.simd_gflops / self.scalar_gflops.max(1e-12)
    }
}

/// One training-shape matmul with `zeros_pct` of `A` exactly zero. GFLOP/s
/// are nominal (`2·m·k·n` per call, skipped terms included), so a row reads
/// as "how fast this layer's product got done".
fn bench_shape(
    (layer, variant, m, k, n): (&'static str, &'static str, usize, usize, usize),
    zeros_pct: usize,
    seed: u64,
) -> ShapeSample {
    let pool: Vec<Vec<f32>> = (0..PATTERNS as u64)
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
    let mut c = vec![0.0f32; m * n];
    let mm = |a: &[f32], b: &[f32], c: &mut [f32]| match variant {
        "nn" => matmul_into(a, b, c, m, k, n),
        "tn" => matmul_tn_into(a, b, c, m, k, n),
        _ => matmul_nt_into(a, b, c, m, k, n),
    };

    // Bit-identity check before timing, on every pattern.
    for a in &pool {
        let mut once = |kernel: SimdKernel| {
            let _g = with_kernel(kernel);
            c.fill(0.0);
            mm(a, &b, &mut c);
            c.clone()
        };
        assert_eq!(
            once(SimdKernel::Scalar),
            once(SimdKernel::Auto),
            "SIMD {variant} {m}x{k}x{n} at {zeros_pct}% zeros diverged from scalar"
        );
    }

    let flops = 2.0 * (m * k * n) as f64;
    let iters = ((60_000_000.0 / flops) as usize).max(PATTERNS);
    let mut measure = |kernel: SimdKernel| {
        let _g = with_kernel(kernel);
        let mut next = 0usize;
        let secs = time_best(iters, || {
            next = (next + 1) % PATTERNS;
            c.fill(0.0);
            mm(black_box(&pool[next]), black_box(&b), black_box(&mut c));
        });
        flops * iters as f64 / secs.max(1e-12) / 1e9
    };
    let scalar_gflops = measure(SimdKernel::Scalar);
    let simd_gflops = measure(SimdKernel::Auto);
    ShapeSample {
        layer,
        variant,
        m,
        k,
        n,
        zeros_pct,
        scalar_gflops,
        simd_gflops,
    }
}

struct TransposeSample {
    rows: usize,
    cols: usize,
    scalar_gelems: f64,
    simd_gelems: f64,
}

impl TransposeSample {
    fn speedup(&self) -> f64 {
        self.simd_gelems / self.scalar_gelems.max(1e-12)
    }
}

/// The `Bᵀ` materialization every NT matmul starts with.
fn bench_transpose(rows: usize, cols: usize, seed: u64) -> TransposeSample {
    let src = filled(rows * cols, seed);
    let mut dst = vec![0.0f32; rows * cols];
    let mut once = |kernel: SimdKernel| {
        let _g = with_kernel(kernel);
        simd::transpose(&src, &mut dst, rows, cols);
        dst.clone()
    };
    assert_eq!(
        once(SimdKernel::Scalar),
        once(SimdKernel::Auto),
        "SIMD transpose {rows}x{cols} diverged from scalar"
    );
    let iters = (100_000_000 / (rows * cols)).max(16);
    let mut measure = |kernel: SimdKernel| {
        let _g = with_kernel(kernel);
        let secs = time_best(iters, || {
            simd::transpose(black_box(&src), black_box(&mut dst), rows, cols);
        });
        (rows * cols) as f64 * iters as f64 / secs.max(1e-12) / 1e9
    };
    TransposeSample {
        rows,
        cols,
        scalar_gelems: measure(SimdKernel::Scalar),
        simd_gelems: measure(SimdKernel::Auto),
    }
}

/// Whole-model weight counts of the benchmark's three model families.
const MODEL_LENS: [usize; 3] = [330, 13_706, 32_830];

struct SliceSample {
    kernel: &'static str,
    len: usize,
    scalar_gelems: f64,
    simd_gelems: f64,
}

impl SliceSample {
    fn speedup(&self) -> f64 {
        self.simd_gelems / self.scalar_gelems.max(1e-12)
    }
}

fn bench_slice(
    kernel: &'static str,
    len: usize,
    seed: u64,
    mut f: impl FnMut(&[f32], &mut [f32]),
) -> SliceSample {
    let x = filled(len, seed);
    let mut y = filled(len, seed ^ 2);
    let iters = (200_000_000 / len).max(16);
    let mut measure = |k: SimdKernel| {
        let _g = with_kernel(k);
        f(&x, &mut y);
        let secs = time_best(iters, || {
            f(black_box(&x), black_box(&mut y));
        });
        len as f64 * iters as f64 / secs.max(1e-12) / 1e9
    };
    let scalar_gelems = measure(SimdKernel::Scalar);
    let simd_gelems = measure(SimdKernel::Auto);
    SliceSample {
        kernel,
        len,
        scalar_gelems,
        simd_gelems,
    }
}

struct RobustSample {
    rule: &'static str,
    k: usize,
    len: usize,
    scalar_melems: f64,
    simd_melems: f64,
}

impl RobustSample {
    fn speedup(&self) -> f64 {
        self.simd_melems / self.scalar_melems.max(1e-12)
    }
}

/// `robust_reduce_into` over `k` inputs of `len`: the scalar lane sorts
/// column by column, `Auto` runs the sorting network over tiles.
/// Throughput counts input elements (`k · len` per call).
fn bench_robust(
    name: &'static str,
    rule: RobustRule,
    k: usize,
    len: usize,
    seed: u64,
) -> RobustSample {
    let cohort: Vec<Vec<f32>> = (0..k)
        .map(|j| filled(len, seed ^ ((j as u64 + 1) << 8)))
        .collect();
    let inputs: Vec<&[f32]> = cohort.iter().map(|v| v.as_slice()).collect();
    let mut out = vec![0.0f32; len];

    // Bit-identity check before timing.
    let mut once = |kernel: SimdKernel| {
        let _g = with_kernel(kernel);
        ops::robust_reduce_into(&inputs, rule, &mut out);
        out.iter().map(|v| v.to_bits()).collect::<Vec<u32>>()
    };
    assert_eq!(
        once(SimdKernel::Scalar),
        once(SimdKernel::Auto),
        "SIMD robust_reduce {name} diverged from scalar"
    );

    let mut measure = |kernel: SimdKernel, iters: usize| {
        let _g = with_kernel(kernel);
        let secs = time_best(iters, || {
            ops::robust_reduce_into(black_box(&inputs), rule, black_box(&mut out));
        });
        (k * len) as f64 * iters as f64 / secs.max(1e-12) / 1e6
    };
    let scalar_melems = measure(SimdKernel::Scalar, 40);
    let simd_melems = measure(SimdKernel::Auto, 400);
    RobustSample {
        rule: name,
        k,
        len,
        scalar_melems,
        simd_melems,
    }
}

struct SweepSample {
    len: usize,
    prox: bool,
    three_pass_melems: f64,
    fused_melems: f64,
}

/// One optimizer step over a `len`-weight parameter. `adam_sweep`'s
/// `Scalar` lane *is* the sequence it fuses — `prox_grad`, `adam_step`,
/// `fill(0.0)`, three passes of plain loops — and `Auto` the fused one. A
/// call refills the gradient as a backward pass would, every 18th starts a
/// dispatch (downloaded weights, virgin moments — which also keeps the
/// moments out of the subnormals a converged loop would time), and every
/// repetition ends with both sides' weights and moments compared bit for bit.
fn bench_sweep(len: usize, prox: bool, seed: u64) -> SweepSample {
    let (w0, g0, global) = (
        filled(len, seed ^ 2),
        filled(len, seed),
        filled(len, seed ^ 1),
    );
    let p = simd::AdamParams {
        lr: 0.003,
        beta1: 0.9,
        beta2: 0.999,
        bc1: 1.0 - 0.9f32.powi(5),
        bc2: 1.0 - 0.999f32.powi(5),
        eps: 1e-8,
    };
    // `[w, g, m, v]` per side.
    let start = [w0.clone(), g0.clone(), vec![0.0; len], vec![0.0; len]];
    let mut sides = [start.clone(), start];
    let iters = (30_000_000 / len).max(64);
    let mut best = [f64::INFINITY; 2];
    for _ in 0..REPEATS {
        for (side, kernel) in [SimdKernel::Scalar, SimdKernel::Auto]
            .into_iter()
            .enumerate()
        {
            let _g = with_kernel(kernel);
            let [w, g, m, v] = &mut sides[side];
            let t0 = Instant::now();
            for it in 0..iters {
                let virgin = it % 18 == 0;
                if virgin {
                    w.copy_from_slice(&w0);
                }
                g.copy_from_slice(black_box(&g0));
                if prox {
                    simd::adam_sweep::<true>(w, g, m, v, (&global, 0.4), virgin, &p);
                } else {
                    simd::adam_sweep::<false>(w, g, m, v, (&[], 0.0), virgin, &p);
                }
            }
            best[side] = best[side].min(t0.elapsed().as_secs_f64());
        }
        assert_eq!(
            sides[0], sides[1],
            "fused sweep {len} diverged from the three passes"
        );
    }
    let melems = |secs: f64| len as f64 * iters as f64 / secs.max(1e-12) / 1e6;
    SweepSample {
        len,
        prox,
        three_pass_melems: melems(best[0]),
        fused_melems: melems(best[1]),
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut out_path = String::from("BENCH_tensor_kernels.json");
    let mut seed = 9u64;
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--out" => {
                i += 1;
                out_path = args[i].clone();
            }
            "--seed" => {
                i += 1;
                seed = args[i].parse().expect("--seed takes an integer");
            }
            other => {
                eprintln!("unknown flag: {other}");
                std::process::exit(2);
            }
        }
        i += 1;
    }

    let backend = {
        let _g = with_kernel(SimdKernel::Auto);
        simd::backend_name()
    };
    eprintln!("[bench_tensor_kernels] Auto dispatches to: {backend}");

    let mut matmuls = Vec::new();
    for dim in [64usize, 128, 256] {
        eprintln!("[bench_tensor_kernels] matmul variants at {dim}x{dim} ...");
        matmuls.push(bench_matmul("nn", dim, seed, |a, b, c, d| {
            matmul_into(a, b, c, d, d, d)
        }));
        matmuls.push(bench_matmul("tn", dim, seed ^ 10, |a, b, c, d| {
            matmul_tn_into(a, b, c, d, d, d)
        }));
        matmuls.push(bench_matmul("nt", dim, seed ^ 20, |a, b, c, d| {
            matmul_nt_into(a, b, c, d, d, d)
        }));
    }

    eprintln!("[bench_tensor_kernels] matmul at training shapes, A at 0/50/75% zeros ...");
    let mut shapes = Vec::new();
    for (i, &shape) in TRAINING_SHAPES.iter().enumerate() {
        for zeros_pct in [0, 50, 75] {
            shapes.push(bench_shape(shape, zeros_pct, seed ^ (30 + i as u64)));
        }
    }

    // W of the widest dense layer, and one sample's conv2 column matrix.
    eprintln!("[bench_tensor_kernels] transpose ...");
    let transposes = vec![
        bench_transpose(128, 128, seed ^ 50),
        bench_transpose(144, 16, seed ^ 51),
    ];

    // Whole-model lengths of the logistic model, CnnLite 1×8×8 and the
    // cohort MLP — what the guard's norms and the quantizing codecs sweep.
    eprintln!("[bench_tensor_kernels] element-wise kernels with a lane ...");
    let mut slices = Vec::new();
    for len in MODEL_LENS {
        slices.push(bench_slice("dot", len, seed ^ 5, |x, y| {
            black_box(ops::dot(x, y));
        }));
        slices.push(bench_slice("dist_sq", len, seed ^ 3, |x, y| {
            black_box(ops::dist_sq(x, y));
        }));
        slices.push(bench_slice("quantize_into", len, seed ^ 4, |x, y| {
            simd::quantize_into(y, x, -3.0, 255.0 / 6.0, 255.0)
        }));
    }

    // The robust-churn intra-tier step: ten client updates per tier round.
    let model_dim = 32 * 1024;
    eprintln!("[bench_tensor_kernels] robust reduction (10 x {model_dim} elements) ...");
    let robust = vec![
        bench_robust(
            "trimmed_mean_2",
            RobustRule::TrimmedMean { trim: 2 },
            10,
            model_dim,
            seed ^ 6,
        ),
        bench_robust("median", RobustRule::Median, 10, model_dim, seed ^ 7),
    ];

    // The same lengths (a run sweeps per parameter, the largest 16 384).
    eprintln!("[bench_tensor_kernels] optimizer sweep ...");
    let mut sweeps = Vec::new();
    for len in MODEL_LENS {
        for prox in [false, true] {
            sweeps.push(bench_sweep(len, prox, seed ^ 8));
        }
    }

    let key = matmuls
        .iter()
        .find(|s| s.variant == "nn" && s.dim == 128)
        .expect("128x128 nn sample");

    let mut json = String::from("{\n");
    json.push_str("  \"bench\": \"tensor_kernels\",\n");
    json.push_str(&format!("  \"seed\": {seed},\n"));
    json.push_str(&format!("  \"simd_backend\": \"{backend}\",\n"));
    json.push_str("  \"kernel_threads\": 1,\n");
    json.push_str(
        "  \"scalar_baseline\": \"SimdKernel::Scalar: plain loops, compiler autovectorization only (seed's loops for matmul; lane-decomposed scalar form for dot / dist_sq, whose definition moved — see docs/PERF.md)\",\n",
    );
    json.push_str(&format!(
        "  \"matmul_128_speedup\": {:.3},\n",
        key.speedup()
    ));
    json.push_str("  \"matmul\": [\n");
    for (i, s) in matmuls.iter().enumerate() {
        json.push_str(&format!(
            "    {{ \"variant\": \"{}\", \"dim\": {}, \"scalar_gflops\": {:.3}, \"simd_gflops\": {:.3}, \"speedup\": {:.3} }}{}\n",
            s.variant,
            s.dim,
            s.scalar_gflops,
            s.simd_gflops,
            s.speedup(),
            if i + 1 < matmuls.len() { "," } else { "" }
        ));
    }
    json.push_str("  ],\n");
    json.push_str("  \"matmul_training_shapes\": [\n");
    for (i, s) in shapes.iter().enumerate() {
        json.push_str(&format!(
            "    {{ \"layer\": \"{}\", \"variant\": \"{}\", \"m\": {}, \"k\": {}, \"n\": {}, \"a_zeros_pct\": {}, \"scalar_nominal_gflops\": {:.3}, \"simd_nominal_gflops\": {:.3}, \"speedup\": {:.3} }}{}\n",
            s.layer,
            s.variant,
            s.m,
            s.k,
            s.n,
            s.zeros_pct,
            s.scalar_gflops,
            s.simd_gflops,
            s.speedup(),
            if i + 1 < shapes.len() { "," } else { "" }
        ));
    }
    json.push_str("  ],\n");
    json.push_str("  \"transpose\": [\n");
    for (i, s) in transposes.iter().enumerate() {
        json.push_str(&format!(
            "    {{ \"rows\": {}, \"cols\": {}, \"scalar_gelems_per_sec\": {:.3}, \"simd_gelems_per_sec\": {:.3}, \"speedup\": {:.3} }}{}\n",
            s.rows,
            s.cols,
            s.scalar_gelems,
            s.simd_gelems,
            s.speedup(),
            if i + 1 < transposes.len() { "," } else { "" }
        ));
    }
    json.push_str("  ],\n");
    json.push_str("  \"slice_primitives\": [\n");
    for (i, s) in slices.iter().enumerate() {
        json.push_str(&format!(
            "    {{ \"kernel\": \"{}\", \"len\": {}, \"scalar_gelems_per_sec\": {:.3}, \"simd_gelems_per_sec\": {:.3}, \"speedup\": {:.3} }}{}\n",
            s.kernel,
            s.len,
            s.scalar_gelems,
            s.simd_gelems,
            s.speedup(),
            if i + 1 < slices.len() { "," } else { "" }
        ));
    }
    json.push_str("  ],\n");
    json.push_str("  \"robust_reduce\": [\n");
    for (i, s) in robust.iter().enumerate() {
        json.push_str(&format!(
            "    {{ \"rule\": \"{}\", \"k\": {}, \"len\": {}, \"scalar_melems_per_sec\": {:.1}, \"simd_melems_per_sec\": {:.1}, \"speedup\": {:.3} }}{}\n",
            s.rule,
            s.k,
            s.len,
            s.scalar_melems,
            s.simd_melems,
            s.speedup(),
            if i + 1 < robust.len() { "," } else { "" }
        ));
    }
    json.push_str("  ],\n");
    json.push_str("  \"optimizer_sweep\": [\n");
    for (i, s) in sweeps.iter().enumerate() {
        json.push_str(&format!(
            "    {{ \"len\": {}, \"prox\": {}, \"three_pass_melems_per_sec\": {:.1}, \"fused_melems_per_sec\": {:.1}, \"speedup\": {:.3} }}{}\n",
            s.len,
            s.prox,
            s.three_pass_melems,
            s.fused_melems,
            s.fused_melems / s.three_pass_melems.max(1e-12),
            if i + 1 < sweeps.len() { "," } else { "" }
        ));
    }
    json.push_str("  ]\n}\n");
    std::fs::write(&out_path, &json).expect("writing benchmark record");

    println!("{json}");
    for s in &matmuls {
        println!(
            "matmul {:<2} {:>4}  scalar {:>7.2} GF/s  simd {:>7.2} GF/s  speedup {:>5.2}x",
            s.variant,
            s.dim,
            s.scalar_gflops,
            s.simd_gflops,
            s.speedup()
        );
    }
    for s in &shapes {
        println!(
            "{:<16} {:<2} {:>3}x{:>3}x{:>3} A {:>2}% zero  scalar {:>6.2} GF/s  simd {:>6.2} GF/s  speedup {:>5.2}x",
            s.layer,
            s.variant,
            s.m,
            s.k,
            s.n,
            s.zeros_pct,
            s.scalar_gflops,
            s.simd_gflops,
            s.speedup()
        );
    }
    for s in &transposes {
        println!(
            "transpose {:>3}x{:<3}  scalar {:>6.2} Ge/s  simd {:>6.2} Ge/s  speedup {:>5.2}x",
            s.rows,
            s.cols,
            s.scalar_gelems,
            s.simd_gelems,
            s.speedup()
        );
    }
    for s in &slices {
        println!(
            "{:<13} {:>6}  scalar {:>6.2} Ge/s  simd {:>6.2} Ge/s  speedup {:>5.2}x",
            s.kernel,
            s.len,
            s.scalar_gelems,
            s.simd_gelems,
            s.speedup()
        );
    }
    for s in &robust {
        println!(
            "robust {:<14} k={:<2} {:>6}  scalar {:>7.1} Me/s  simd {:>7.1} Me/s  speedup {:>5.2}x",
            s.rule,
            s.k,
            s.len,
            s.scalar_melems,
            s.simd_melems,
            s.speedup()
        );
    }
    eprintln!("[bench_tensor_kernels] wrote {out_path}");
}
