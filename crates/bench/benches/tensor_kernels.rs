//! Tensor-kernel microbenchmarks: matmul variants (serial vs parallel,
//! SIMD vs scalar) and im2col convolution — the compute underlying every
//! client round. The JSON-emitting twin is `bench_tensor_kernels`.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use fedat_tensor::conv::{conv2d_forward, Conv2dSpec};
use fedat_tensor::ctx::{self, KernelCtx};
use fedat_tensor::rng::rng_for;
use fedat_tensor::simd::SimdKernel;
use fedat_tensor::Tensor;
use std::hint::black_box;

fn bench_matmul(c: &mut Criterion) {
    let mut rng = rng_for(1, 1);
    let mut group = c.benchmark_group("tensor/matmul");
    group.sample_size(20);
    for n in [64usize, 128, 256] {
        let a = Tensor::randn(&mut rng, &[n, n], 0.0, 1.0);
        let b = Tensor::randn(&mut rng, &[n, n], 0.0, 1.0);
        group.throughput(Throughput::Elements((2 * n * n * n) as u64));
        for (label, max_threads) in [("serial", 1), ("parallel8", 8)] {
            group.bench_function(BenchmarkId::new(label, n), |bench| {
                let _g = ctx::install(KernelCtx {
                    max_threads,
                    ..ctx::snapshot()
                });
                bench.iter(|| black_box(a.matmul(black_box(&b))));
            });
        }
    }
    group.finish();
}

fn bench_matmul_variants(c: &mut Criterion) {
    let mut rng = rng_for(2, 1);
    let a = Tensor::randn(&mut rng, &[128, 128], 0.0, 1.0);
    let b = Tensor::randn(&mut rng, &[128, 128], 0.0, 1.0);
    let mut group = c.benchmark_group("tensor/matmul-variants");
    group.sample_size(20);
    group.bench_function("nn", |bench| bench.iter(|| black_box(a.matmul(&b))));
    group.bench_function("tn", |bench| bench.iter(|| black_box(a.matmul_tn(&b))));
    group.bench_function("nt", |bench| bench.iter(|| black_box(a.matmul_nt(&b))));
    group.finish();
}

fn bench_simd_kernels(c: &mut Criterion) {
    let mut rng = rng_for(4, 1);
    let a = Tensor::randn(&mut rng, &[128, 128], 0.0, 1.0);
    let b = Tensor::randn(&mut rng, &[128, 128], 0.0, 1.0);
    let mut group = c.benchmark_group("tensor/simd");
    group.sample_size(20);
    for (label, simd) in [
        ("matmul128-scalar", SimdKernel::Scalar),
        ("matmul128-auto", SimdKernel::Auto),
    ] {
        group.bench_function(label, |bench| {
            let _g = ctx::install(KernelCtx {
                simd,
                ..ctx::snapshot()
            });
            bench.iter(|| black_box(a.matmul(black_box(&b))));
        });
    }
    group.finish();
}

fn bench_conv(c: &mut Criterion) {
    let mut rng = rng_for(3, 1);
    let spec = Conv2dSpec {
        in_channels: 3,
        out_channels: 16,
        kernel: 3,
        stride: 1,
        padding: 1,
    };
    let input = Tensor::randn(&mut rng, &[10, 3, 8, 8], 0.0, 1.0);
    let weight = Tensor::randn(&mut rng, &[16, 27], 0.0, 0.3);
    let bias = Tensor::zeros(&[16]);
    let mut group = c.benchmark_group("tensor/conv2d");
    group.sample_size(20);
    group.bench_function("forward-batch10-8x8", |b| {
        b.iter(|| black_box(conv2d_forward(&input, &weight, &bias, 8, 8, &spec)))
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_matmul,
    bench_matmul_variants,
    bench_simd_kernels,
    bench_conv
);
criterion_main!(benches);
