//! Deterministic randomness utilities.
//!
//! Every experiment in the reproduction is driven by a single master seed.
//! Components (data generation, partitioning, client sampling, weight init,
//! latency jitter, …) each derive an *independent* stream from that seed via
//! [`split_seed`], a SplitMix64 mix of the master seed and a purpose tag.
//! This keeps results bit-reproducible while guaranteeing that, e.g., adding
//! one extra draw to the data generator cannot perturb client sampling.

use rand::rngs::StdRng;
use rand::{Rng, RngExt, SeedableRng};

/// SplitMix64 finalizer: a high-quality 64-bit mixing function.
///
/// Used to derive child seeds; the constants are from Steele et al.,
/// "Fast Splittable Pseudorandom Number Generators" (OOPSLA'14).
#[inline]
pub fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// Derives an independent child seed from `(master, tag)`.
///
/// Distinct tags yield decorrelated streams; the same `(master, tag)` pair
/// always yields the same child seed.
#[inline]
pub fn split_seed(master: u64, tag: u64) -> u64 {
    splitmix64(master ^ splitmix64(tag.wrapping_add(0xA076_1D64_78BD_642F)))
}

/// Builds a seeded [`StdRng`] for a `(master, tag)` pair.
pub fn rng_for(master: u64, tag: u64) -> StdRng {
    StdRng::seed_from_u64(split_seed(master, tag))
}

/// Purpose tags used across the workspace, centralized to avoid collisions.
pub mod tags {
    /// Dataset feature generation.
    pub const DATA: u64 = 1;
    /// Partitioning samples across clients.
    pub const PARTITION: u64 = 2;
    /// Model weight initialization.
    pub const INIT: u64 = 3;
    /// Client sampling per round.
    pub const SAMPLING: u64 = 4;
    /// Straggler delay injection.
    pub const DELAYS: u64 = 5;
    /// Mini-batch shuffling.
    pub const BATCHES: u64 = 6;
    /// Unstable-client selection.
    pub const UNSTABLE: u64 = 8;
    /// Evaluation-subset sampling.
    pub const EVAL: u64 = 9;
    /// Transient up/down flapping intervals (churn engine).
    pub const CHURN_FLAPS: u64 = 10;
    /// Correlated dropout storms (churn engine).
    pub const CHURN_STORM: u64 = 12;
    /// Slow compute-drift rates (churn engine).
    pub const CHURN_DRIFT: u64 = 13;
    /// Corrupted-uplink decisions (churn engine).
    pub const CHURN_CORRUPT: u64 = 14;
}

/// Samples a standard normal value via the Box–Muller transform.
///
/// `rand` ships only uniform distributions; Box–Muller keeps us inside the
/// approved dependency set at negligible cost for our workloads.
pub fn standard_normal<R: Rng + ?Sized>(rng: &mut R) -> f32 {
    // Draw u1 in (0, 1] to keep ln() finite.
    let u1: f64 = 1.0 - rng.random::<f64>();
    let u2: f64 = rng.random::<f64>();
    box_muller(u1, u2)
}

/// [`standard_normal`]'s transform of its two uniforms.
#[inline]
fn box_muller(u1: f64, u2: f64) -> f32 {
    let r = (-2.0 * u1.ln()).sqrt();
    let theta = 2.0 * std::f64::consts::PI * u2;
    (r * theta.cos()) as f32
}

/// Values per pool job of [`fill_standard_normal`]: ≈ 0.1 ms of
/// transforms, long enough to amortise a hand-off to a worker.
pub const NORMAL_CHUNK: usize = 4096;

/// Chunks [`fill_standard_normal`] keeps submitted while it draws the next.
const NORMAL_CHUNKS_IN_FLIGHT: usize = 4;

/// Fills `out` with the next `out.len()` values of [`standard_normal`],
/// bit for bit, and leaves `rng` where that loop would leave it.
///
/// This thread draws every uniform, serially and in the loop's order; the
/// transforms — `ln`, `sqrt` and `cos`, ≈ 24 of the ≈ 27 ns a value costs —
/// run as [`crate::pool::submit`]ted jobs of [`NORMAL_CHUNK`] values, a few
/// in flight while this thread draws the next chunk and helps at each join.
/// Each value is the same f64 expression of the same two uniforms wherever
/// it runs, so neither the pool size nor the job cap moves a bit. A fill
/// shorter than one chunk runs inline.
pub fn fill_standard_normal<R: Rng + ?Sized>(rng: &mut R, out: &mut [f32]) {
    if out.len() < NORMAL_CHUNK {
        for v in out.iter_mut() {
            *v = standard_normal(rng);
        }
        return;
    }
    let len = out.len();
    let mut in_flight = std::collections::VecDeque::with_capacity(NORMAL_CHUNKS_IN_FLIGHT);
    let mut land = |(at, job): (usize, crate::pool::JobHandle<Vec<f64>>)| {
        let u = job.join();
        for (v, &z) in out[at..at + u.len() / 2].iter_mut().zip(&u) {
            *v = z as f32;
        }
        u
    };
    for at in (0..len).step_by(NORMAL_CHUNK) {
        // The oldest chunk lands first, and its buffer carries the next.
        let mut u = if in_flight.len() == NORMAL_CHUNKS_IN_FLIGHT {
            land(in_flight.pop_front().expect("a chunk is in flight"))
        } else {
            Vec::with_capacity(2 * NORMAL_CHUNK)
        };
        u.clear();
        for _ in at..(at + NORMAL_CHUNK).min(len) {
            u.push(1.0 - rng.random::<f64>());
            u.push(rng.random::<f64>());
        }
        in_flight.push_back((
            at,
            crate::pool::submit(move || {
                transform_pairs(&mut u);
                u
            }),
        ));
    }
    for job in in_flight {
        land(job);
    }
}

/// Overwrites the first half of `u`, read as `(u1, u2)` pairs the way
/// [`standard_normal`] draws them, with each pair's transform (an `f32`
/// held exactly). Pair `i` is read before slot `i` is written, since
/// `i <= 2i`.
fn transform_pairs(u: &mut [f64]) {
    for i in 0..u.len() / 2 {
        u[i] = f64::from(box_muller(u[2 * i], u[2 * i + 1]));
    }
}

/// Fills `out` with i.i.d. normal samples with the given mean and std-dev:
/// `mean + std · z` over [`fill_standard_normal`]'s `z`.
pub fn fill_normal<R: Rng + ?Sized>(rng: &mut R, out: &mut [f32], mean: f32, std: f32) {
    fill_standard_normal(rng, out);
    for v in out.iter_mut() {
        *v = mean + std * *v;
    }
}

/// In-place Fisher–Yates shuffle.
///
/// Implemented here (rather than via `rand::seq`) so the shuffle order is a
/// stable function of this crate alone and survives `rand` API churn.
pub fn shuffle<R: Rng + ?Sized, T>(rng: &mut R, items: &mut [T]) {
    let n = items.len();
    if n < 2 {
        return;
    }
    for i in (1..n).rev() {
        let j = rng.random_range(0..=i);
        items.swap(i, j);
    }
}

/// Draws `k` distinct indices from `0..n` (uniformly, without replacement).
///
/// # Panics
/// Panics if `k > n`.
pub fn sample_without_replacement<R: Rng + ?Sized>(rng: &mut R, n: usize, k: usize) -> Vec<usize> {
    assert!(k <= n, "cannot sample {k} items from a population of {n}");
    // Partial Fisher–Yates over an index vector: O(n) setup, O(k) swaps.
    let mut idx: Vec<usize> = (0..n).collect();
    for i in 0..k {
        let j = rng.random_range(i..n);
        idx.swap(i, j);
    }
    idx.truncate(k);
    idx
}

/// Returns a uniformly random f64 in `[lo, hi)`.
pub fn uniform<R: Rng + ?Sized>(rng: &mut R, lo: f64, hi: f64) -> f64 {
    debug_assert!(hi >= lo);
    lo + (hi - lo) * rng.random::<f64>()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn split_seed_is_deterministic_and_tag_sensitive() {
        assert_eq!(split_seed(42, 1), split_seed(42, 1));
        assert_ne!(split_seed(42, 1), split_seed(42, 2));
        assert_ne!(split_seed(42, 1), split_seed(43, 1));
    }

    #[test]
    fn rng_for_reproduces_streams() {
        let mut a = rng_for(7, tags::DATA);
        let mut b = rng_for(7, tags::DATA);
        for _ in 0..16 {
            assert_eq!(a.random::<u64>(), b.random::<u64>());
        }
    }

    #[test]
    fn standard_normal_moments_are_sane() {
        let mut rng = rng_for(123, 99);
        let n = 20_000;
        let samples: Vec<f32> = (0..n).map(|_| standard_normal(&mut rng)).collect();
        let mean = samples.iter().sum::<f32>() / n as f32;
        let var = samples.iter().map(|x| (x - mean) * (x - mean)).sum::<f32>() / n as f32;
        assert!(mean.abs() < 0.05, "mean {mean} too far from 0");
        assert!((var - 1.0).abs() < 0.1, "variance {var} too far from 1");
    }

    /// The lengths [`fill_standard_normal`]'s chunking can get wrong.
    const FILL_LENGTHS: [usize; 6] = [
        0,
        1,
        NORMAL_CHUNK - 1,
        NORMAL_CHUNK,
        NORMAL_CHUNK + 1,
        5 * NORMAL_CHUNK + 3,
    ];

    /// Asserts that `fill_standard_normal` writes what a `standard_normal`
    /// loop returns, bit for bit, and leaves the rng where the loop does.
    fn assert_fill_is_the_serial_loop(len: usize, seed: u64) {
        let mut serial = rng_for(seed, 77);
        let want: Vec<u32> = (0..len)
            .map(|_| standard_normal(&mut serial).to_bits())
            .collect();
        let mut filled = rng_for(seed, 77);
        let mut got = vec![f32::NAN; len];
        fill_standard_normal(&mut filled, &mut got);
        let got: Vec<u32> = got.iter().map(|v| v.to_bits()).collect();
        assert!(got == want, "fill of {len} differs from the serial loop");
        assert_eq!(
            filled.random::<u64>(),
            serial.random::<u64>(),
            "fill of {len} left the rng elsewhere"
        );
    }

    #[test]
    fn fill_standard_normal_is_the_serial_loop_under_every_job_cap() {
        for max_pool_jobs in [0, 1, usize::MAX] {
            let _cap = crate::ctx::install(crate::ctx::KernelCtx {
                max_pool_jobs,
                ..crate::ctx::snapshot()
            });
            for (seed, len) in FILL_LENGTHS.into_iter().enumerate() {
                assert_fill_is_the_serial_loop(len, seed as u64);
            }
        }
    }

    #[test]
    fn shuffle_is_a_permutation() {
        let mut rng = rng_for(5, 5);
        let mut v: Vec<usize> = (0..100).collect();
        shuffle(&mut rng, &mut v);
        let mut sorted = v.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..100).collect::<Vec<_>>());
        // With 100 elements the identity permutation is astronomically unlikely.
        assert_ne!(v, (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn sampling_without_replacement_is_distinct_and_in_range() {
        let mut rng = rng_for(11, 3);
        for _ in 0..50 {
            let picks = sample_without_replacement(&mut rng, 20, 8);
            assert_eq!(picks.len(), 8);
            let mut dedup = picks.clone();
            dedup.sort_unstable();
            dedup.dedup();
            assert_eq!(dedup.len(), 8, "duplicates in {picks:?}");
            assert!(picks.iter().all(|&p| p < 20));
        }
    }

    #[test]
    fn sampling_full_population_is_permutation() {
        let mut rng = rng_for(1, 2);
        let mut picks = sample_without_replacement(&mut rng, 10, 10);
        picks.sort_unstable();
        assert_eq!(picks, (0..10).collect::<Vec<_>>());
    }

    #[test]
    #[should_panic(expected = "cannot sample")]
    fn oversampling_panics() {
        let mut rng = rng_for(1, 2);
        let _ = sample_without_replacement(&mut rng, 3, 4);
    }
}
