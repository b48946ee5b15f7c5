//! Wall-clock microbenchmark of the SIMD micro-kernel layer: the three
//! matmul variants, the slice primitives, the lane-decomposed reductions
//! and the robust (trimmed-mean / median) reduction, each timed under
//! `SimdKernel::Auto` (runtime-dispatched AVX2+FMA or the portable
//! fallback) and `SimdKernel::Scalar` (the seed's plain loops, what
//! autovectorization alone gave). Writes both throughputs and the speedup
//! to `BENCH_tensor_kernels.json`.
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

/// Pins the SIMD backend at one kernel thread for the guard's lifetime:
/// this benchmark isolates the micro-kernel itself; what the pool adds is
/// the repository benchmark's `core.exec.speculative_speedup`.
fn with_kernel(simd: SimdKernel) -> OverlayGuard {
    ctx::install(KernelCtx {
        simd,
        max_threads: 1,
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
    let y0 = filled(len, seed ^ 2);
    let mut y = y0.clone();
    let iters = (200_000_000 / len).max(16);
    let mut measure = |k: SimdKernel| {
        let _g = with_kernel(k);
        y.copy_from_slice(&y0);
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

    // The model-dimension sweeps: sized like the large-cohort model.
    let model_dim = 32 * 1024;
    eprintln!("[bench_tensor_kernels] slice primitives ({model_dim} elements) ...");
    let slices = vec![
        bench_slice("axpy", model_dim, seed, |x, y| ops::axpy(0.25, x, y)),
        bench_slice("lerp", model_dim, seed ^ 3, |x, y| {
            ops::lerp_into(y, x, 0.125)
        }),
        bench_slice("scale", model_dim, seed ^ 4, |_, y| ops::scale(y, 1.0001)),
        bench_slice("dot", model_dim, seed ^ 5, |x, y| {
            black_box(ops::dot(x, y));
        }),
    ];

    // The robust-churn intra-tier step: ten client updates per tier round.
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
        "  \"scalar_baseline\": \"SimdKernel::Scalar: plain loops, compiler autovectorization only (seed's loops for matmul/elementwise; lane-decomposed scalar form for dot, whose definition moved — see docs/PERF.md)\",\n",
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
    for s in &slices {
        println!(
            "{:<6} {:>6}  scalar {:>6.2} Ge/s  simd {:>6.2} Ge/s  speedup {:>5.2}x",
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
