//! Host-speed calibration: a fixed, benchmark-owned loop timed next to every
//! repetition, so that wall and CPU time can be stated in seconds of the
//! *quiet* reference host.
//!
//! The reference host is a shared 2-vCPU sandbox whose speed moves in regimes
//! that last minutes: whole 25 s windows of one workload differ by up to 1.7×
//! and no estimator over the repetitions inside a window (median, minimum,
//! mean) removes that, because a window sits inside one regime. A loop timed
//! right before and after a repetition sees the same regime. Over ten windows
//! per workload on a busy afternoon, dividing by it cut the inter-quartile
//! spread of the window medians from 22/19/20/32% to 14/5/4/13%
//! (`table1-cnn` … `async-overhead`).
//!
//! The loop is three small kernels — vectorisable float, integer/branch/sort,
//! dependent floating-point chain — run on as many threads as the host has
//! cores, which is how many the workloads keep busy. It touches under 1 MB,
//! so it does not show in `peak_rss_mb`. Larger streaming and gather kernels
//! were measured too and tracked the regimes no better. It shares no code
//! with the program under test: no change outside this directory can move it.

use std::hint::black_box;
use std::time::Instant;

/// Seconds the loop takes on the quiet reference host (10th percentile of
/// 318 timings). Only sets the scale: with it, corrected times read as
/// seconds of that host.
const REFERENCE_S: f64 = 0.042;

/// `y ← 0.999·y + 0.001·x` over 256 KB + 256 KB, L2-resident.
fn float_kernel(y: &mut [f32], x: &[f32]) {
    for _ in 0..1000 {
        for (y, x) in y.iter_mut().zip(x) {
            *y = *y * 0.999 + *x * 0.001;
        }
        black_box(&mut *y);
    }
}

/// FNV-style hashing with a data-dependent branch and a small sort.
fn integer_kernel() -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    let mut kept: Vec<u64> = Vec::with_capacity(80);
    for i in 0..6_000_000u64 {
        h = (h ^ i).wrapping_mul(0x0000_0100_0000_01b3);
        if h & 7 == 0 {
            kept.push(h);
        }
        if kept.len() > 64 {
            kept.sort_unstable();
            h ^= kept[32];
            kept.clear();
        }
    }
    h
}

/// A chain of dependent multiply-adds: latency-bound.
fn chain_kernel() -> f64 {
    let mut x = 1.0f64;
    for i in 0..5_000_000u64 {
        x = x * 1.000_000_1 + (i as f64) * 1e-12;
    }
    x
}

fn one_thread() {
    let mut y = vec![1.0f32; 64 * 1024];
    let x = vec![0.5f32; 64 * 1024];
    float_kernel(&mut y, &x);
    black_box(integer_kernel());
    black_box(chain_kernel());
}

/// How much slower than the quiet reference host this host is right now
/// (≈ 1 when quiet): the loop's wall time on every core at once, over
/// [`REFERENCE_S`].
pub fn host_slowdown() -> f64 {
    let threads = std::thread::available_parallelism().map_or(1, |c| c.get());
    let started = Instant::now();
    // The scope joins every thread and propagates a panic.
    std::thread::scope(|scope| {
        for _ in 1..threads {
            scope.spawn(one_thread);
        }
        one_thread();
    });
    started.elapsed().as_secs_f64() / REFERENCE_S
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn slowdown_is_a_sane_positive_factor() {
        let s = host_slowdown();
        assert!(s.is_finite() && s > 0.05 && s < 100.0, "slowdown {s}");
    }
}
