//! The arithmetic inner loops of the training hot path, and the explicit
//! SIMD lanes of the few that need one.
//!
//! Every arithmetic inner loop of the reproduction — the three matmul
//! variants (and therefore the im2col conv stage), the slice primitives
//! backing aggregation and server mixing, the activation/loss/optimizer
//! elementwise sweeps, the codec sweeps — funnels through this module.
//!
//! ## Which kernels have lanes
//!
//! An element-wise kernel is **one function**: a plain loop, which the
//! compiler vectorizes at the target's baseline ISA. Each used to carry a
//! hand-written AVX2 twin, bit-identical by contract; measured at the
//! lengths runs use, none of them moved a workload (`docs/PERF.md`, "The
//! element-wise lanes, measured before deletion"), so the twins are gone and
//! [`SimdKernel`] does not reach these kernels at all.
//!
//! Seven kernels keep lanes, because a plain loop cannot express what the
//! lane does:
//!
//! | kernel | scalar (reference) | portable | AVX2 + FMA | why |
//! |---|---|---|---|---|
//! | [`matmul_block`] | the seed's loops, a zero test per term | 4 × 8-lane accumulator tiles / non-zero lists | 4 × 2 `ymm` register tiles / lists | register blocking |
//! | `robust_reduce_shard` | per-coordinate `sort_unstable_by` | sorting network over `i32` keys | the network as `vpminsd` / `vpmaxsd` | a different algorithm |
//! | [`transpose`] | 32 × 32 blocked copy | the same copy | 8 × 8 in-register blocks | shuffles |
//! | [`dot`], [`dist_sq`] | 8 f64 partial sums in an array | the same code | two `ymm` f64 accumulators, `vfmadd` | f32 → f64 widening |
//! | [`quantize_into`] | `f32::floor` per element | the same code | `vroundps` | baseline x86-64 has no vector `floor` |
//! | [`adam_sweep`] | `prox_grad`, `adam_step`, `fill` — three passes | the same code | one fused pass | three sweeps in one |
//!
//! **Scalar** (`SimdKernel::Scalar`) is the reference every other lane is
//! held to and the `BENCH_tensor_kernels.json` "before": the seed's loops
//! byte-for-byte for the matmuls, the scalar form of the lane decomposition
//! for the reductions (the seed's single-accumulator `dot`/`dist_sq` could
//! not be vectorized without changing bits, so their *definition* moved).
//! **Portable** (`SimdKernel::Portable`, and `Auto` where AVX2 + FMA are
//! not detected) is arrays of eight accumulators, which the compiler
//! vectorizes at whatever ISA the target offers. **AVX2** (`Auto` where
//! detected) is `std::arch`, 8 f32 lanes per register — eight also where
//! AVX-512F is detected: a bit-identical 16-lane instantiation of the
//! matmul tiles ran 1.4–1.85× on its own and the paper's CNN setting 4 %
//! *slower*, because 512-bit FP holds the whole thread at a lower clock
//! (`docs/PERF.md`, "… sixteen lanes do not pay").
//!
//! ## Determinism
//!
//! The lanes are **bit-identical by construction**, so neither the
//! [`SimdKernel`] setting nor the host ISA can ever change a result:
//!
//! * The matmul micro-kernel, `quantize_into` and `adam_sweep` vectorize
//!   only across the *output/column* dimension. Each output element is
//!   computed by one lane executing exactly the scalar expression tree —
//!   same operations, same rounding points, same accumulation order over
//!   `k` — so every lane reproduces the scalar reference bit-for-bit. In
//!   particular the f32 paths never use FMA *contraction*: a fused `a*b + c`
//!   rounds once where the scalar reference rounds twice, so the AVX2
//!   kernels stick to `mul` + `add` exactly like the reference.
//! * `dot`-style reductions are *defined* as a fixed 8-lane partial-sum
//!   decomposition with a pinned pairwise merge
//!   (`((l0+l1)+(l2+l3)) + ((l4+l5)+(l6+l7))`, then the tail appended
//!   serially), which the scalar code computes with the identical f64 lane
//!   arithmetic. The f64 lanes *may* use FMA: an f32×f32 product is exact
//!   in f64 (48 < 53 mantissa bits), so fused and unfused rounds are the
//!   same bits.
//! * The matmul contract includes the reference kernel's zero skip — a
//!   term whose `a[i,p] == 0.0` is not added — but only the scalar lane
//!   branches on it. The other two scan `A` once: no zero
//!   means a test-free register tile (the reference skips nothing there
//!   either), any zero means each `A` row's non-zero `(p, a)` pairs are
//!   compacted, in order, into a stack list the columns then accumulate
//!   over — the same terms in the same ascending `p` (see `matmul_block`).
//! * The robust reduction (trimmed mean / median) is the one kernel whose
//!   lanes run different *algorithms*: the scalar lane sorts each
//!   coordinate's column with `f32::total_cmp`, the other two run a
//!   sorting network over integer keys whose order is `total_cmp` order.
//!   Both leave every coordinate with the same sorted column and then
//!   evaluate the same expression on it (see `robust_reduce_shard`).
//!
//! The active kernel is a [`crate::ctx::KernelCtx`] setting: `Auto` by
//! default, `FEDAT_SIMD=scalar` flips the default so CI can run the whole
//! suite on the scalar path, and a thread-local overlay scopes it per run.
//
// Index-based loops are used deliberately throughout: they keep the lane
// structure and the pinned accumulation order visible.
#![allow(clippy::needless_range_loop)]

// ----------------------------------------------------------------------
// Kernel selection
// ----------------------------------------------------------------------

/// Selects the lane of every kernel in this module that has more than one
/// (see the module docs for which do). All three are bit-identical.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SimdKernel {
    /// Runtime-dispatch to the best available lane (AVX2+FMA where
    /// detected, the portable 8-lane formulation otherwise). The default.
    Auto,
    /// The portable lane on any host — what `Auto` means without AVX2 + FMA.
    /// For ISA-independence checks, not a perf setting.
    Portable,
    /// The plain scalar reference loops — the measured baseline for
    /// `BENCH_tensor_kernels.json`.
    Scalar,
}

/// The active [`SimdKernel`] (see [`crate::ctx`] for how it resolves).
pub fn simd_kernel() -> SimdKernel {
    crate::ctx::snapshot().simd
}

#[cfg(target_arch = "x86_64")]
fn avx2_available() -> bool {
    static AVX2: std::sync::OnceLock<bool> = std::sync::OnceLock::new();
    *AVX2.get_or_init(|| {
        std::arch::is_x86_feature_detected!("avx2") && std::arch::is_x86_feature_detected!("fma")
    })
}

#[derive(Clone, Copy, PartialEq, Eq)]
enum Backend {
    Scalar,
    #[cfg(target_arch = "x86_64")]
    Avx2,
    Portable,
}

fn active() -> Backend {
    match simd_kernel() {
        SimdKernel::Scalar => Backend::Scalar,
        #[cfg(target_arch = "x86_64")]
        SimdKernel::Auto if avx2_available() => Backend::Avx2,
        SimdKernel::Auto | SimdKernel::Portable => Backend::Portable,
    }
}

/// Human-readable name of the lane the active [`SimdKernel`] dispatches to
/// right now (recorded in the benchmark JSON so numbers are comparable
/// across hosts).
pub fn backend_name() -> &'static str {
    match active() {
        Backend::Scalar => "scalar",
        #[cfg(target_arch = "x86_64")]
        Backend::Avx2 => "avx2+fma",
        Backend::Portable => "portable",
    }
}

/// The AVX2 lane where `active()` selects it, the scalar code otherwise —
/// the dispatch of the kernels whose portable lane *is* their scalar code.
macro_rules! avx2_or_scalar {
    ($avx2:expr, $scalar:expr) => {
        match active() {
            #[cfg(target_arch = "x86_64")]
            // SAFETY: `active()` returns `Avx2` only when `avx2_available()`
            // confirmed AVX2+FMA at runtime, which is each `avx2::*` fn's
            // sole `#[target_feature]` precondition; slice-length contracts
            // are asserted by the public wrapper before dispatch.
            Backend::Avx2 => unsafe { $avx2 },
            _ => $scalar,
        }
    };
}

// ----------------------------------------------------------------------
// Elementwise kernels: one plain loop each, no lanes
// ----------------------------------------------------------------------

/// `y[i] += alpha * x[i]`.
///
/// # Panics
/// Panics if lengths differ.
pub fn axpy(alpha: f32, x: &[f32], y: &mut [f32]) {
    assert_eq!(x.len(), y.len(), "axpy length mismatch");
    for (yi, &xi) in y.iter_mut().zip(x.iter()) {
        *yi += alpha * xi;
    }
}

/// `y[i] = alpha * x[i] + beta * y[i]`.
///
/// # Panics
/// Panics if lengths differ.
pub fn axpby(alpha: f32, x: &[f32], beta: f32, y: &mut [f32]) {
    assert_eq!(x.len(), y.len(), "axpby length mismatch");
    for (yi, &xi) in y.iter_mut().zip(x.iter()) {
        *yi = alpha * xi + beta * *yi;
    }
}

/// `a[i] = (1 - t) * a[i] + t * b[i]` — the FedAsync mixing step.
///
/// # Panics
/// Panics if lengths differ.
pub fn lerp(a: &mut [f32], b: &[f32], t: f32) {
    assert_eq!(a.len(), b.len(), "lerp length mismatch");
    let s = 1.0 - t;
    for (ai, &bi) in a.iter_mut().zip(b.iter()) {
        *ai = s * *ai + t * bi;
    }
}

/// `x[i] *= alpha`.
pub fn scale(x: &mut [f32], alpha: f32) {
    for v in x.iter_mut() {
        *v *= alpha;
    }
}

/// `y[i] *= m[i]` (dropout masks and similar gating sweeps).
///
/// # Panics
/// Panics if lengths differ.
pub fn mul_assign(y: &mut [f32], m: &[f32]) {
    assert_eq!(y.len(), m.len(), "mul_assign length mismatch");
    for (yi, &mi) in y.iter_mut().zip(m.iter()) {
        *yi *= mi;
    }
}

/// `y[i] += x[i]` (bias adds, row-sum reductions).
///
/// # Panics
/// Panics if lengths differ.
pub fn add_assign(y: &mut [f32], x: &[f32]) {
    assert_eq!(y.len(), x.len(), "add_assign length mismatch");
    for (yi, &xi) in y.iter_mut().zip(x.iter()) {
        *yi += xi;
    }
}

/// `x[i] += c` (the conv bias broadcast).
pub fn add_scalar(x: &mut [f32], c: f32) {
    for v in x.iter_mut() {
        *v += c;
    }
}

/// `out[i] = 0.0 + w * x[i]` — the first-input pass of the sharded
/// aggregation kernel. The explicit `0.0 +` keeps `-0.0` products
/// bit-compatible with the fused accumulator formulation.
///
/// # Panics
/// Panics if lengths differ.
pub fn wsum_first(out: &mut [f32], x: &[f32], w: f32) {
    assert_eq!(out.len(), x.len(), "wsum_first length mismatch");
    for (o, &xi) in out.iter_mut().zip(x.iter()) {
        *o = 0.0f32 + w * xi;
    }
}

/// ReLU: `x[i] = if x[i] > 0.0 { x[i] } else { 0.0 }` (NaN → 0.0).
pub fn relu(x: &mut [f32]) {
    for v in x.iter_mut() {
        *v = if *v > 0.0 { *v } else { 0.0 };
    }
}

/// Tanh backward: `g[i] *= 1 - y[i]²` where `y = tanh(x)`.
///
/// # Panics
/// Panics if lengths differ.
pub fn tanh_grad(g: &mut [f32], y: &[f32]) {
    assert_eq!(g.len(), y.len(), "tanh_grad length mismatch");
    for (gi, &yi) in g.iter_mut().zip(y.iter()) {
        *gi *= 1.0 - yi * yi;
    }
}

/// Sigmoid backward: `g[i] *= y[i] * (1 - y[i])` where `y = σ(x)`.
///
/// # Panics
/// Panics if lengths differ.
pub fn sigmoid_grad(g: &mut [f32], y: &[f32]) {
    assert_eq!(g.len(), y.len(), "sigmoid_grad length mismatch");
    for (gi, &yi) in g.iter_mut().zip(y.iter()) {
        *gi *= yi * (1.0 - yi);
    }
}

/// Proximal gradient: `grad[i] += lambda * (w[i] - global[i])` — Eq. (3).
///
/// # Panics
/// Panics if lengths differ.
pub fn prox_grad(grad: &mut [f32], w: &[f32], global: &[f32], lambda: f32) {
    assert_eq!(grad.len(), w.len(), "prox_grad length mismatch");
    assert_eq!(grad.len(), global.len(), "prox_grad length mismatch");
    for ((gi, &wi), &wg) in grad.iter_mut().zip(w.iter()).zip(global.iter()) {
        *gi += lambda * (wi - wg);
    }
}

/// SGD-with-momentum step: `v = momentum*v + g; w -= lr*v`.
///
/// # Panics
/// Panics if lengths differ.
pub fn sgd_momentum_step(w: &mut [f32], g: &[f32], v: &mut [f32], momentum: f32, lr: f32) {
    assert_eq!(w.len(), g.len(), "sgd step length mismatch");
    assert_eq!(w.len(), v.len(), "sgd step length mismatch");
    for ((wi, &gi), vi) in w.iter_mut().zip(g.iter()).zip(v.iter_mut()) {
        *vi = momentum * *vi + gi;
        *wi -= lr * *vi;
    }
}

/// Bias-corrected Adam step hyperparameters (per [`adam_step`] call).
#[derive(Clone, Copy, Debug)]
pub struct AdamParams {
    /// Learning rate.
    pub lr: f32,
    /// First-moment decay β₁.
    pub beta1: f32,
    /// Second-moment decay β₂.
    pub beta2: f32,
    /// Bias correction `1 - β₁ᵗ`.
    pub bc1: f32,
    /// Bias correction `1 - β₂ᵗ`.
    pub bc2: f32,
    /// Denominator fuzz ε.
    pub eps: f32,
}

/// One Adam update over a flat parameter slice — the reference pass
/// [`adam_sweep`] is defined by.
///
/// # Panics
/// Panics if lengths differ.
pub fn adam_step(w: &mut [f32], g: &[f32], m: &mut [f32], v: &mut [f32], p: &AdamParams) {
    assert_eq!(w.len(), g.len(), "adam step length mismatch");
    assert_eq!(w.len(), m.len(), "adam step length mismatch");
    assert_eq!(w.len(), v.len(), "adam step length mismatch");
    let (b1c, b2c) = (1.0 - p.beta1, 1.0 - p.beta2);
    for (((wi, &gi), mi), vi) in w
        .iter_mut()
        .zip(g.iter())
        .zip(m.iter_mut())
        .zip(v.iter_mut())
    {
        *mi = p.beta1 * *mi + b1c * gi;
        *vi = p.beta2 * *vi + b2c * gi * gi;
        let m_hat = *mi / p.bc1;
        let v_hat = *vi / p.bc2;
        *wi -= p.lr * m_hat / (v_hat.sqrt() + p.eps);
    }
}

/// A whole optimizer step in one pass over a parameter: with `PROX`,
/// `g += lambda * (w - global)` ([`prox_grad`]; `prox` is `(global,
/// lambda)`, ignored without), then [`adam_step`], then `g = 0.0`. `virgin`
/// moments count as zero whatever they hold — the first step after a reset
/// evaluates the same expressions with a constant `0.0` where the moment
/// load was, so stale buffers are neither read nor pre-zeroed.
///
/// The scalar lane is those passes, literally; the AVX2 lane runs their
/// expression trees per 8 lanes in one loop (`sqrt` and `div` are
/// IEEE-correctly-rounded in both forms), so the lanes agree bit for bit
/// (`adam_sweep_matches_three_passes_bitwise`).
///
/// # Panics
/// Panics if lengths differ.
pub fn adam_sweep<const PROX: bool>(
    w: &mut [f32],
    g: &mut [f32],
    m: &mut [f32],
    v: &mut [f32],
    prox: (&[f32], f32),
    virgin: bool,
    p: &AdamParams,
) {
    assert_eq!(w.len(), g.len(), "adam sweep length mismatch");
    assert_eq!(w.len(), m.len(), "adam sweep length mismatch");
    assert_eq!(w.len(), v.len(), "adam sweep length mismatch");
    assert!(
        !PROX || w.len() == prox.0.len(),
        "adam sweep length mismatch"
    );
    avx2_or_scalar!(
        if virgin {
            avx2::adam_sweep::<PROX, true>(w, g, m, v, prox, p)
        } else {
            avx2::adam_sweep::<PROX, false>(w, g, m, v, prox, p)
        },
        {
            if virgin {
                m.fill(0.0);
                v.fill(0.0);
            }
            if PROX {
                prox_grad(g, w, prox.0, prox.1);
            }
            adam_step(w, g, m, v, p);
            g.fill(0.0);
        }
    )
}

// ----------------------------------------------------------------------
// Wire-codec kernels (fedat-compress): plain loops except the quantizer
// ----------------------------------------------------------------------

/// `out[i] = a[i] - b[i]` — the uplink delta against the decoded broadcast
/// reference.
///
/// # Panics
/// Panics if lengths differ.
pub fn sub_into(out: &mut [f32], a: &[f32], b: &[f32]) {
    assert_eq!(out.len(), a.len(), "sub_into length mismatch");
    assert_eq!(out.len(), b.len(), "sub_into length mismatch");
    for ((o, &ai), &bi) in out.iter_mut().zip(a.iter()).zip(b.iter()) {
        *o = ai - bi;
    }
}

/// `out[i] = |x[i]|` — clears the sign bit (NaN payloads included), the
/// magnitude pass of top-k selection.
///
/// # Panics
/// Panics if lengths differ.
pub fn abs_into(out: &mut [f32], x: &[f32]) {
    assert_eq!(out.len(), x.len(), "abs_into length mismatch");
    for (o, &xi) in out.iter_mut().zip(x.iter()) {
        *o = xi.abs();
    }
}

/// `out[i] = b + a * x[i]` — the dequantization sweep (`lo + q·step`).
///
/// # Panics
/// Panics if lengths differ.
pub fn affine_into(out: &mut [f32], x: &[f32], a: f32, b: f32) {
    assert_eq!(out.len(), x.len(), "affine_into length mismatch");
    for (o, &xi) in out.iter_mut().zip(x.iter()) {
        *o = b + a * xi;
    }
}

/// `out[i] = min(max(floor((x[i] - lo) * scale + 0.5), 0), levels)` — the
/// round-half-up linear quantizer. `floor(t + 0.5)` is used instead of
/// `round` deliberately: scalar `f32::round` is half-away-from-zero while
/// the vector rounding instruction is half-to-even, so only the
/// floor formulation is backend-invariant (`floor`/`max`/`min` are
/// IEEE-exact and operand-ordered identically in both lanes).
///
/// # Panics
/// Panics if lengths differ.
pub fn quantize_into(out: &mut [f32], x: &[f32], lo: f32, scale: f32, levels: f32) {
    assert_eq!(out.len(), x.len(), "quantize_into length mismatch");
    avx2_or_scalar!(
        avx2::quantize_into(out, x, lo, scale, levels),
        for (o, &xi) in out.iter_mut().zip(x.iter()) {
            let t = (xi - lo) * scale + 0.5;
            *o = t.floor().max(0.0).min(levels);
        }
    )
}

/// `out[i] = w[i].to_bits() ^ r[i].to_bits()` — the lossless bit-level
/// delta of the DeltaRle codec.
///
/// # Panics
/// Panics if lengths differ.
pub fn delta_bits_into(out: &mut [u32], w: &[f32], r: &[f32]) {
    assert_eq!(out.len(), w.len(), "delta_bits_into length mismatch");
    assert_eq!(out.len(), r.len(), "delta_bits_into length mismatch");
    for ((o, &wi), &ri) in out.iter_mut().zip(w.iter()).zip(r.iter()) {
        *o = wi.to_bits() ^ ri.to_bits();
    }
}

/// `out[i] = f32::from_bits(bits[i] ^ r[i].to_bits())` — inverse of
/// [`delta_bits_into`].
///
/// # Panics
/// Panics if lengths differ.
pub fn apply_delta_bits_into(out: &mut [f32], bits: &[u32], r: &[f32]) {
    assert_eq!(
        out.len(),
        bits.len(),
        "apply_delta_bits_into length mismatch"
    );
    assert_eq!(out.len(), r.len(), "apply_delta_bits_into length mismatch");
    for ((o, &bi), &ri) in out.iter_mut().zip(bits.iter()).zip(r.iter()) {
        *o = f32::from_bits(bi ^ ri.to_bits());
    }
}

// ----------------------------------------------------------------------
// Reductions (pinned 8-lane decomposition)
// ----------------------------------------------------------------------

/// The pinned merge order of the 8 partial sums: pairwise, then the tail.
#[inline]
fn merge_lanes(l: &[f64; 8]) -> f64 {
    ((l[0] + l[1]) + (l[2] + l[3])) + ((l[4] + l[5]) + (l[6] + l[7]))
}

/// Dot product with f64 lane accumulation.
///
/// Defined as: lane `l` sums `x[i]·y[i]` (exact f64 products) over
/// `i ≡ l (mod 8)` of the 8-aligned prefix, lanes merge pairwise in the
/// pinned order, and the tail is appended serially — every backend
/// computes this same decomposition, so the result is ISA-independent.
///
/// # Panics
/// Panics if lengths differ.
pub fn dot(x: &[f32], y: &[f32]) -> f32 {
    assert_eq!(x.len(), y.len(), "dot length mismatch");
    avx2_or_scalar!(avx2::dot(x, y), scalar::dot(x, y))
}

/// Squared Euclidean distance, same lane decomposition as [`dot`]
/// (differences are rounded in f32 first, exactly like the seed kernel).
///
/// # Panics
/// Panics if lengths differ.
pub fn dist_sq(x: &[f32], y: &[f32]) -> f32 {
    assert_eq!(x.len(), y.len(), "dist_sq length mismatch");
    avx2_or_scalar!(avx2::dist_sq(x, y), scalar::dist_sq(x, y))
}

// ----------------------------------------------------------------------
// Robust reduction: a sorting network over tiles of coordinates
// ----------------------------------------------------------------------

/// Coordinates the robust-reduction network sorts side by side: one row of
/// the key block is 32 lanes (four AVX2 vectors), so a `k × 32` block of
/// `i32` keys stays L1-resident for any cohort the server aggregates.
/// Measured on the reference host: the network is bound by its stores to
/// the block, and a compare-exchange of four vectors lets the out-of-order
/// window span more of the network than one of eight (AVX2 lane 186 µs at
/// 32 against 216 µs at 64 and 224 µs at 16 for k = 10 × 32 830; the
/// portable lane is flat between 32 and 64).
pub const ROBUST_TILE: usize = 32;
// The trimmed-mean finish walks a tile sixteen lanes at a time.
const _: () = assert!(ROBUST_TILE.is_multiple_of(16));

/// The `f32::total_cmp` key of a bit pattern: flipping the magnitude bits
/// of negative values makes signed-integer order equal `total_cmp` order
/// for *every* pair of patterns (−NaN < −∞ < … < −0 < +0 < … < +∞ < +NaN,
/// payloads ranked). The map is its own inverse.
#[inline(always)]
const fn total_order_key(bits: i32) -> i32 {
    bits ^ (((bits >> 31) as u32) >> 1) as i32
}

/// A compare-exchange network that sorts `k` rows: Batcher's merge
/// exchange (Knuth, TAOCP 5.2.2, Algorithm M), which works for any `k ≥ 1`,
/// not only powers of two. After applying every `(i, j)` in order — each
/// has `i < j < k` and leaves the smaller key in row `i` — the rows ascend.
pub(crate) fn sorting_network(k: usize) -> Vec<(usize, usize)> {
    let mut pairs = Vec::new();
    let top = k.next_power_of_two() / 2;
    let mut p = top;
    while p > 0 {
        let (mut q, mut r, mut d) = (top, 0, p);
        loop {
            for i in 0..k - d {
                if i & p == r {
                    pairs.push((i, i + d));
                }
            }
            if q == p {
                break;
            }
            (d, q, r) = (q - p, q / 2, p);
        }
        p /= 2;
    }
    pairs
}

/// One shard of [`crate::ops::robust_reduce_into`]: `out[i]` becomes the
/// `rule` statistic of `inputs[0..k][start + i]`.
///
/// The scalar lane gathers each coordinate's column and sorts it with
/// `f32::total_cmp`. The portable and AVX2 lanes gather a tile of
/// [`ROBUST_TILE`] coordinates into a `k × tile` block of
/// [`total_order_key`]s, run `net` across the block as integer `min`/`max`
/// (one lane per coordinate), map the kept rows back and finish with the
/// scalar lane's own expression per lane. Key order *is* `total_cmp`
/// order, a sorting network and a sort agree on every row of a column,
/// and each coordinate still adds its kept values in ascending order in
/// f64 — so the three lanes return the same bits for every input. Only
/// the payload of a NaN added to a NaN is left open by IEEE 754 (and by
/// the compiler, which may commute the operands), so a tile with a NaN
/// among its kept values runs the scalar lane's code itself.
///
/// `net` must be [`sorting_network`]`(inputs.len())`.
///
/// # Panics
/// Panics if an input does not cover `start..start + out.len()` or a
/// trimmed mean would drop every value.
pub(crate) fn robust_reduce_shard(
    inputs: &[&[f32]],
    start: usize,
    rule: crate::ops::RobustRule,
    net: &[(usize, usize)],
    out: &mut [f32],
) {
    for input in inputs {
        assert!(input.len() >= start + out.len(), "input shorter than shard");
    }
    match active() {
        Backend::Scalar => scalar::robust_reduce(inputs, start, rule, out),
        #[cfg(target_arch = "x86_64")]
        // SAFETY: `active()` returns `Avx2` only after `avx2_available()`
        // confirmed the target feature at runtime.
        Backend::Avx2 => unsafe { avx2::robust_reduce(inputs, start, rule, net, out) },
        Backend::Portable => portable::robust_reduce(inputs, start, rule, net, out),
    }
}

/// The tile loop shared by the portable and AVX2 lanes; only the
/// compare-exchange of two key rows differs between them. Always inlined,
/// so the gather, un-key and accumulate loops are compiled (and
/// autovectorized) at the instantiating lane's ISA.
#[inline(always)]
fn robust_reduce_tiles(
    inputs: &[&[f32]],
    start: usize,
    rule: crate::ops::RobustRule,
    net: &[(usize, usize)],
    out: &mut [f32],
    compare_exchange: impl Fn(&mut [i32; ROBUST_TILE], &mut [i32; ROBUST_TILE]),
) {
    use crate::ops::RobustRule;
    const T: usize = ROBUST_TILE;
    // Every NaN key lies outside the keys of ±∞.
    const NEG_INF_KEY: i32 = total_order_key(f32::NEG_INFINITY.to_bits() as i32);
    const POS_INF_KEY: i32 = total_order_key(f32::INFINITY.to_bits() as i32);
    let value = |key: i32| f32::from_bits(total_order_key(key) as u32);
    let k = inputs.len();
    let keep = match rule {
        RobustRule::TrimmedMean { trim } => trim..k - trim,
        RobustRule::Median => (k - 1) / 2..k / 2 + 1,
    };
    // One key block per shard from the calling thread's arena. Short tiles
    // leave stale keys in their unused lanes: lanes never interact, and
    // only the first `tile.len()` lanes are read back.
    let mut block = crate::scratch::take_zeroed(k * T);
    // SAFETY: `f32` and `i32` have the same size and alignment and every
    // bit pattern is valid for both; `block` is exclusively borrowed here
    // and not touched as `f32` again until `recycle`.
    let keys = unsafe { std::slice::from_raw_parts_mut(block.as_mut_ptr().cast::<i32>(), k * T) };
    let (rows, _) = keys.as_chunks_mut::<T>();
    for (t, tile) in out.chunks_mut(T).enumerate() {
        let at = start + t * T;
        for (row, input) in rows.iter_mut().zip(inputs) {
            for (key, v) in row.iter_mut().zip(&input[at..at + tile.len()]) {
                *key = total_order_key(v.to_bits() as i32);
            }
        }
        for &(i, j) in net {
            let (head, tail) = rows.split_at_mut(j);
            compare_exchange(&mut head[i], &mut tail[0]);
        }
        // Kept rows ascend, so a NaN among them shows in the first
        // (negative NaNs) or the last (positive NaNs).
        let kept = &rows[keep.clone()];
        let (first, last) = (&kept[0][..tile.len()], &kept[kept.len() - 1][..tile.len()]);
        if first.iter().any(|&key| key < NEG_INF_KEY) || last.iter().any(|&key| key > POS_INF_KEY) {
            scalar::robust_reduce(inputs, at, rule, tile);
            continue;
        }
        let mut res = [0.0f32; T];
        match rule {
            RobustRule::TrimmedMean { .. } => {
                // Sixteen lanes at a time, so the f64 accumulators stay in
                // registers across the rows.
                for (lane, chunk) in res.chunks_exact_mut(16).enumerate() {
                    let mut acc = [0.0f64; 16];
                    for row in kept {
                        for l in 0..16 {
                            acc[l] += value(row[lane * 16 + l]) as f64;
                        }
                    }
                    for l in 0..16 {
                        chunk[l] = (acc[l] / kept.len() as f64) as f32;
                    }
                }
            }
            RobustRule::Median if kept.len() == 1 => {
                for l in 0..T {
                    res[l] = value(kept[0][l]);
                }
            }
            RobustRule::Median => {
                for l in 0..T {
                    res[l] = ((value(kept[0][l]) as f64 + value(kept[1][l]) as f64) * 0.5) as f32;
                }
            }
        }
        tile.copy_from_slice(&res[..tile.len()]);
    }
    crate::scratch::recycle(block);
}

// ----------------------------------------------------------------------
// The matmul micro-kernel
// ----------------------------------------------------------------------

/// How the micro-kernel reads the left operand `A`.
///
/// Parameterizing the `A` access (always a scalar broadcast) lets one
/// micro-kernel back all three matmul variants: `NN`/`NT` read `A`
/// row-major, `TN` reads `A[k,m]` transposed in place without
/// materializing `Aᵀ`.
#[derive(Clone, Copy)]
pub enum Lhs<'a> {
    /// `a(i, p) = a[i * k + p]` — `A` stored `[m, k]` row-major.
    RowMajor(&'a [f32], usize),
    /// `a(i, p) = a[p * m + i]` — `A` stored `[k, m]`, read transposed.
    ColMajor(&'a [f32], usize),
}

/// Longest stretch of `k` whose non-zero `A` entries one [`NonZeros`] list
/// holds (a power of two: the list index is masked, not bounds-checked).
const LIST_CHUNK: usize = 256;

/// The non-zero entries of one `A` row over one `k`-chunk, in ascending `p`:
/// `val[t] = a(i, p0 + at[t])` for `t < len`. Lives on the caller's stack.
struct NonZeros {
    at: [u32; LIST_CHUNK],
    val: [f32; LIST_CHUNK],
    len: usize,
}

impl NonZeros {
    fn new() -> Self {
        NonZeros {
            at: [0; LIST_CHUNK],
            val: [0.0; LIST_CHUNK],
            len: 0,
        }
    }

    /// Appends `(t, a)` and keeps it only if `a != 0.0` — the reference's
    /// `if a == 0.0 { continue }` as arithmetic on the length: `-0.0` is
    /// dropped and NaN is kept, exactly as `==` decides.
    #[inline(always)]
    fn push(&mut self, t: usize, a: f32) {
        let slot = self.len & (LIST_CHUNK - 1);
        self.at[slot] = t as u32;
        self.val[slot] = a;
        self.len += (a != 0.0) as usize;
    }
}

impl Lhs<'_> {
    /// Whether any `a(i, p)` with `i < rows`, `p < k` equals `0.0` (either
    /// sign) — what sends a product to the list kernel.
    #[inline(always)]
    fn has_zero(&self, rows: usize, k: usize) -> bool {
        // A fold, not `any`: no exit inside a run, so the scan vectorizes.
        let run = |s: &[f32]| s.iter().fold(false, |z, &a| z | (a == 0.0));
        match *self {
            Lhs::RowMajor(a, stride) => (0..rows).any(|i| run(&a[i * stride..i * stride + k])),
            Lhs::ColMajor(a, stride) => (0..k).any(|p| run(&a[p * stride..p * stride + rows])),
        }
    }

    /// Fills `list` with the non-zero `a(i, p0..p0 + len)`, ascending.
    #[inline(always)]
    fn compact(&self, i: usize, p0: usize, len: usize, list: &mut NonZeros) {
        debug_assert!(len <= LIST_CHUNK);
        list.len = 0;
        match *self {
            Lhs::RowMajor(a, stride) => {
                let row = &a[i * stride + p0..i * stride + p0 + len];
                for (t, &v) in row.iter().enumerate() {
                    list.push(t, v);
                }
            }
            Lhs::ColMajor(a, stride) => {
                for t in 0..len {
                    list.push(t, a[(p0 + t) * stride + i]);
                }
            }
        }
    }

    /// The list kernel's driver over an `A` that holds zeros: per C row and
    /// per `k`-chunk, in ascending order, compacts the `A` row and hands
    /// `row` the list, the chunk's `[len, n]` rows of `B` and the C row.
    #[inline(always)]
    fn for_each_list(
        &self,
        b: &[f32],
        c: &mut [f32],
        k: usize,
        n: usize,
        mut row: impl FnMut(&NonZeros, &[f32], &mut [f32]),
    ) {
        let mut list = NonZeros::new();
        for (r, crow) in c.chunks_exact_mut(n).enumerate() {
            for p0 in (0..k).step_by(LIST_CHUNK) {
                let len = (k - p0).min(LIST_CHUNK);
                self.compact(r, p0, len, &mut list);
                row(&list, &b[p0 * n..(p0 + len) * n], crow);
            }
        }
    }

    #[inline(always)]
    fn at(&self, i: usize, p: usize) -> f32 {
        match *self {
            Lhs::RowMajor(a, k) => a[i * k + p],
            Lhs::ColMajor(a, m) => a[p * m + i],
        }
    }

    /// The layout as a walk from row `i0`: `a(i0 + r, p)` sits at
    /// `start.add(r * row_step + p * p_step)`. Resolved once per tile, so
    /// the tile's inner loop steps an index instead of re-deciding the
    /// layout for every element it broadcasts. (`wrapping_add`: with `k = 0`
    /// the operand is empty and `start` is never read.)
    #[inline(always)]
    fn walk_from(&self, i0: usize) -> (*const f32, usize, usize) {
        match *self {
            Lhs::RowMajor(a, k) => (a.as_ptr().wrapping_add(i0 * k), k, 1),
            Lhs::ColMajor(a, m) => (a.as_ptr().wrapping_add(i0), 1, m),
        }
    }
}

/// `c[i, j] += Σ_p a(i, p) · b[p, j]` — the body of all three
/// `matmul_*_into` variants.
///
/// Each `C[i,j]` accumulates over `p = 0..k` in ascending order with
/// unfused `mul`+`add`, and a term whose `a(i, p) == 0.0` is not added
/// (`-0.0` is skipped, NaN is not). The scalar backend tests per term; the
/// others choose once from the operand — a test-free tile when `A` holds
/// no zero, otherwise a walk over each row's compacted non-zeros — so
/// every backend produces identical bits.
///
/// # Panics
/// Panics if `c` is not a whole number of `n`-length rows, `b` is not
/// `[k, n]`, or the `lhs` operand does not cover rows `0..c.len()/n` — the
/// AVX2 backend reads `A` unchecked, so the extent must be proven here, not
/// per element.
pub fn matmul_block(lhs: Lhs, b: &[f32], c: &mut [f32], k: usize, n: usize) {
    assert_eq!(b.len(), k * n, "matmul_block rhs shape mismatch");
    assert_eq!(c.len() % n.max(1), 0, "matmul_block ragged C");
    if n == 0 || c.is_empty() {
        return;
    }
    let rows = c.len() / n;
    match lhs {
        Lhs::RowMajor(a, stride) => {
            assert!(stride >= k, "matmul_block lhs row stride shorter than k");
            assert!(
                a.len() >= (rows - 1) * stride + k,
                "matmul_block lhs does not cover the C rows"
            );
        }
        Lhs::ColMajor(a, stride) => {
            assert!(
                stride >= rows,
                "matmul_block lhs column shorter than the C rows"
            );
            assert!(
                k == 0 || a.len() >= (k - 1) * stride + rows,
                "matmul_block lhs does not cover k rows"
            );
        }
    }
    match active() {
        Backend::Scalar => scalar::matmul_block(&lhs, b, c, k, n),
        #[cfg(target_arch = "x86_64")]
        // SAFETY: `active()` returns `Avx2` only after `avx2_available()`
        // confirmed the target features at runtime, and the shape asserts
        // above prove the extents the AVX2 kernel reads unchecked.
        Backend::Avx2 => unsafe { avx2::matmul_block(&lhs, b, c, k, n) },
        Backend::Portable => portable::matmul_block(&lhs, b, c, k, n),
    }
}

/// Number of `C` rows one register tile covers (the `MR` of the
/// micro-kernel: 4 rows × 2 vector columns of 8 lanes).
pub const MR: usize = 4;

// ----------------------------------------------------------------------
// Transpose
// ----------------------------------------------------------------------

/// `dst[c, r] = src[r, c]` for `src: [rows, cols]`, used to materialize `Bᵀ`
/// for the NT matmul: 8×8 blocks transposed in registers on the AVX2
/// backend, a cache-blocked element copy (32×32 tiles, both streams stay
/// cache-resident) otherwise and on the block edges. Pure data movement:
/// no rounding, bit-exact on every backend by definition. Writes every
/// destination element exactly once, so the output may start uninitialized
/// (no zero-fill on the backward hot path).
///
/// # Panics
/// Panics if `src` and `dst` are not both `rows * cols` long.
pub fn transpose_uninit(
    src: &[f32],
    dst: &mut [std::mem::MaybeUninit<f32>],
    rows: usize,
    cols: usize,
) {
    assert_eq!(src.len(), rows * cols, "transpose src shape mismatch");
    assert_eq!(dst.len(), rows * cols, "transpose dst shape mismatch");
    // The element copy over `src[r0..r1, c0..c1]`, 32×32 tiles.
    let mut copy = |r0: usize, r1: usize, c0: usize, c1: usize| {
        const TB: usize = 32;
        for rb in (r0..r1).step_by(TB) {
            for cb in (c0..c1).step_by(TB) {
                for r in rb..(rb + TB).min(r1) {
                    for c in cb..(cb + TB).min(c1) {
                        dst[c * rows + r].write(src[r * cols + c]);
                    }
                }
            }
        }
    };
    #[cfg(target_arch = "x86_64")]
    if active() == Backend::Avx2 {
        // Whole 8×8 blocks in registers, then the right and bottom edges.
        let (rows8, cols8) = (rows & !7, cols & !7);
        copy(0, rows, cols8, cols);
        copy(rows8, rows, 0, cols8);
        // SAFETY: `active()` returns `Avx2` only after `avx2_available()`
        // confirmed the target features at runtime; the asserts above give
        // both slices the `rows * cols` extent the kernel indexes.
        unsafe { avx2::transpose_blocks(src, dst, rows, cols) };
        return;
    }
    copy(0, rows, 0, cols);
}

/// [`transpose_uninit`] over an already-initialized destination.
pub fn transpose(src: &[f32], dst: &mut [f32], rows: usize, cols: usize) {
    // SAFETY: `MaybeUninit<f32>` has the same layout as `f32`, and
    // `transpose_uninit` only ever writes initialized values.
    let uninit = unsafe {
        std::slice::from_raw_parts_mut(
            dst.as_mut_ptr() as *mut std::mem::MaybeUninit<f32>,
            dst.len(),
        )
    };
    transpose_uninit(src, uninit, rows, cols);
}

// ----------------------------------------------------------------------
// Scalar reference lane
// ----------------------------------------------------------------------

mod scalar {
    use super::{merge_lanes, Lhs};
    use crate::ops::RobustRule;

    pub fn dot(x: &[f32], y: &[f32]) -> f32 {
        let main = x.len() - x.len() % 8;
        let mut lanes = [0.0f64; 8];
        for (xc, yc) in x[..main].chunks_exact(8).zip(y[..main].chunks_exact(8)) {
            for l in 0..8 {
                lanes[l] += xc[l] as f64 * yc[l] as f64;
            }
        }
        let mut acc = merge_lanes(&lanes);
        for (&a, &b) in x[main..].iter().zip(y[main..].iter()) {
            acc += a as f64 * b as f64;
        }
        acc as f32
    }

    pub fn dist_sq(x: &[f32], y: &[f32]) -> f32 {
        let main = x.len() - x.len() % 8;
        let mut lanes = [0.0f64; 8];
        for (xc, yc) in x[..main].chunks_exact(8).zip(y[..main].chunks_exact(8)) {
            for l in 0..8 {
                let d = (xc[l] - yc[l]) as f64;
                lanes[l] += d * d;
            }
        }
        let mut acc = merge_lanes(&lanes);
        for (&a, &b) in x[main..].iter().zip(y[main..].iter()) {
            let d = (a - b) as f64;
            acc += d * d;
        }
        acc as f32
    }

    /// The reference lane: gather one coordinate's column, sort it with
    /// `f32::total_cmp` (a total order over all bit patterns, so the sorted
    /// column is a pure function of the value multiset), take the statistic.
    pub fn robust_reduce(inputs: &[&[f32]], start: usize, rule: RobustRule, out: &mut [f32]) {
        let k = inputs.len();
        let mut column = vec![0.0f32; k];
        for (i, o) in out.iter_mut().enumerate() {
            for (slot, input) in column.iter_mut().zip(inputs.iter()) {
                *slot = input[start + i];
            }
            column.sort_unstable_by(f32::total_cmp);
            *o = match rule {
                RobustRule::TrimmedMean { trim } => {
                    let kept = &column[trim..k - trim];
                    let mut acc = 0.0f64;
                    for &v in kept {
                        acc += v as f64;
                    }
                    (acc / kept.len() as f64) as f32
                }
                RobustRule::Median => {
                    if k % 2 == 1 {
                        column[k / 2]
                    } else {
                        ((column[k / 2 - 1] as f64 + column[k / 2] as f64) * 0.5) as f32
                    }
                }
            };
        }
    }

    /// The seed's loops, verbatim: `ikj` for row-major `A`, `pij` for
    /// transposed `A` (streams `A` rows instead of striding columns).
    pub fn matmul_block(lhs: &Lhs, b: &[f32], c: &mut [f32], k: usize, n: usize) {
        match *lhs {
            Lhs::RowMajor(a, stride) => {
                for (i, crow) in c.chunks_mut(n).enumerate() {
                    let arow = &a[i * stride..i * stride + k];
                    for (p, &aip) in arow.iter().enumerate() {
                        if aip == 0.0 {
                            continue;
                        }
                        let brow = &b[p * n..(p + 1) * n];
                        for (cj, &bj) in crow.iter_mut().zip(brow.iter()) {
                            *cj += aip * bj;
                        }
                    }
                }
            }
            Lhs::ColMajor(a, stride) => {
                let rows = c.len() / n;
                for p in 0..k {
                    let brow = &b[p * n..(p + 1) * n];
                    let arow = &a[p * stride..(p + 1) * stride];
                    for r in 0..rows {
                        let aip = arow[r];
                        if aip == 0.0 {
                            continue;
                        }
                        let crow = &mut c[r * n..(r + 1) * n];
                        for (cj, &bj) in crow.iter_mut().zip(brow.iter()) {
                            *cj += aip * bj;
                        }
                    }
                }
            }
        }
    }
}

// ----------------------------------------------------------------------
// Portable lane (matmul micro-kernel and the robust-reduction network)
// ----------------------------------------------------------------------

mod portable {
    use super::{Lhs, NonZeros, MR, ROBUST_TILE};
    use crate::ops::RobustRule;

    pub fn robust_reduce(
        inputs: &[&[f32]],
        start: usize,
        rule: RobustRule,
        net: &[(usize, usize)],
        out: &mut [f32],
    ) {
        super::robust_reduce_tiles(inputs, start, rule, net, out, |lo, hi| {
            for l in 0..ROBUST_TILE {
                let (a, b) = (lo[l], hi[l]);
                lo[l] = a.min(b);
                hi[l] = a.max(b);
            }
        });
    }

    pub fn matmul_block(lhs: &Lhs, b: &[f32], c: &mut [f32], k: usize, n: usize) {
        let rows = c.len() / n;
        if lhs.has_zero(rows, k) {
            return lhs.for_each_list(b, c, k, n, |list, b, crow| list_row(list, b, crow, n));
        }
        let mut r = 0;
        while r + MR <= rows {
            dense_tile::<MR>(lhs, b, &mut c[r * n..(r + MR) * n], r, k, n);
            r += MR;
        }
        while r < rows {
            dense_tile::<1>(lhs, b, &mut c[r * n..(r + 1) * n], r, k, n);
            r += 1;
        }
    }

    /// The tile of an `A` that holds no zero: `R` C-rows × 8-lane
    /// accumulator arrays (they vectorize reliably on any ISA), no test in
    /// the loop. Lane `j` executes the scalar expression for `C[i, j]`
    /// exactly — same `p` order, and the reference skips nothing here
    /// either — so the tile is bit-identical to it.
    fn dense_tile<const R: usize>(
        lhs: &Lhs,
        b: &[f32],
        crows: &mut [f32],
        i0: usize,
        k: usize,
        n: usize,
    ) {
        let mut j = 0usize;
        while j + 8 <= n {
            let mut acc = [[0.0f32; 8]; R];
            for r in 0..R {
                acc[r].copy_from_slice(&crows[r * n + j..r * n + j + 8]);
            }
            for p in 0..k {
                let bv = &b[p * n + j..p * n + j + 8];
                for r in 0..R {
                    let a = lhs.at(i0 + r, p);
                    for l in 0..8 {
                        acc[r][l] += a * bv[l];
                    }
                }
            }
            for r in 0..R {
                crows[r * n + j..r * n + j + 8].copy_from_slice(&acc[r]);
            }
            j += 8;
        }
        if j < n {
            for r in 0..R {
                for p in 0..k {
                    let a = lhs.at(i0 + r, p);
                    let brow = &b[p * n..(p + 1) * n];
                    for jj in j..n {
                        crows[r * n + jj] += a * brow[jj];
                    }
                }
            }
        }
    }

    /// One C row over one `k`-chunk of an `A` that holds zeros, in 32-, 8-
    /// and 1-column panels.
    fn list_row(list: &NonZeros, b: &[f32], crow: &mut [f32], n: usize) {
        let mut j = 0usize;
        while j + 32 <= n {
            list_panel::<32>(list, &b[j..], &mut crow[j..], n);
            j += 32;
        }
        while j + 8 <= n {
            list_panel::<8>(list, &b[j..], &mut crow[j..], n);
            j += 8;
        }
        while j < n {
            list_panel::<1>(list, &b[j..], &mut crow[j..], n);
            j += 1;
        }
    }

    /// `W` columns of one C row accumulating `val[t] · b[at[t], ..]` over the
    /// list in order — ascending `p` over exactly the terms the reference
    /// does not skip, unfused. `b` and `crow` start at the panel's column.
    #[inline(always)]
    fn list_panel<const W: usize>(list: &NonZeros, b: &[f32], crow: &mut [f32], n: usize) {
        let mut acc = [0.0f32; W];
        acc.copy_from_slice(&crow[..W]);
        for (&t, &a) in list.at[..list.len].iter().zip(&list.val) {
            let bv = &b[t as usize * n..t as usize * n + W];
            for l in 0..W {
                acc[l] += a * bv[l];
            }
        }
        crow[..W].copy_from_slice(&acc);
    }
}

// ----------------------------------------------------------------------
// AVX2+FMA backend
// ----------------------------------------------------------------------

#[cfg(target_arch = "x86_64")]
mod avx2 {
    use super::{merge_lanes, AdamParams, Lhs, NonZeros, LIST_CHUNK, MR, ROBUST_TILE};
    use crate::ops::RobustRule;
    use std::arch::x86_64::*;

    // `adam_sweep` and `quantize_into` process 8 lanes per iteration with
    // the exact scalar expression tree (unfused mul+add), then finish the
    // tail with the scalar expression itself.

    // SAFETY: requires AVX2+FMA — every call path reaches here through a
    // dispatcher that checked `avx2_available()` first. Pointer arithmetic
    // stays within the slice extents checked by the safe wrappers.
    #[target_feature(enable = "avx2", enable = "fma")]
    pub unsafe fn adam_sweep<const PROX: bool, const VIRGIN: bool>(
        w: &mut [f32],
        g: &mut [f32],
        m: &mut [f32],
        v: &mut [f32],
        (global, lambda): (&[f32], f32),
        p: &AdamParams,
    ) {
        let n = w.len();
        let (b1c, b2c) = (1.0 - p.beta1, 1.0 - p.beta2);
        let b1v = _mm256_set1_ps(p.beta1);
        let b2v = _mm256_set1_ps(p.beta2);
        let b1cv = _mm256_set1_ps(b1c);
        let b2cv = _mm256_set1_ps(b2c);
        let bc1v = _mm256_set1_ps(p.bc1);
        let bc2v = _mm256_set1_ps(p.bc2);
        let lrv = _mm256_set1_ps(p.lr);
        let epsv = _mm256_set1_ps(p.eps);
        let lv = _mm256_set1_ps(lambda);
        let zero = _mm256_setzero_ps();
        let (wp, gp, wgp) = (w.as_mut_ptr(), g.as_mut_ptr(), global.as_ptr());
        let (mp, vp) = (m.as_mut_ptr(), v.as_mut_ptr());
        let mut i = 0;
        while i + 8 <= n {
            let wv = _mm256_loadu_ps(wp.add(i));
            let mut gv = _mm256_loadu_ps(gp.add(i));
            if PROX {
                let d = _mm256_sub_ps(wv, _mm256_loadu_ps(wgp.add(i)));
                gv = _mm256_add_ps(gv, _mm256_mul_ps(lv, d));
            }
            let (m0, v0) = if VIRGIN {
                (zero, zero)
            } else {
                (_mm256_loadu_ps(mp.add(i)), _mm256_loadu_ps(vp.add(i)))
            };
            let mi = _mm256_add_ps(_mm256_mul_ps(b1v, m0), _mm256_mul_ps(b1cv, gv));
            _mm256_storeu_ps(mp.add(i), mi);
            let vi = _mm256_add_ps(
                _mm256_mul_ps(b2v, v0),
                _mm256_mul_ps(_mm256_mul_ps(b2cv, gv), gv),
            );
            _mm256_storeu_ps(vp.add(i), vi);
            let m_hat = _mm256_div_ps(mi, bc1v);
            let v_hat = _mm256_div_ps(vi, bc2v);
            let denom = _mm256_add_ps(_mm256_sqrt_ps(v_hat), epsv);
            let step = _mm256_div_ps(_mm256_mul_ps(lrv, m_hat), denom);
            _mm256_storeu_ps(wp.add(i), _mm256_sub_ps(wv, step));
            _mm256_storeu_ps(gp.add(i), zero);
            i += 8;
        }
        while i < n {
            if PROX {
                g[i] += lambda * (w[i] - global[i]);
            }
            let (m0, v0) = if VIRGIN { (0.0, 0.0) } else { (m[i], v[i]) };
            m[i] = p.beta1 * m0 + b1c * g[i];
            v[i] = p.beta2 * v0 + b2c * g[i] * g[i];
            let m_hat = m[i] / p.bc1;
            let v_hat = v[i] / p.bc2;
            w[i] -= p.lr * m_hat / (v_hat.sqrt() + p.eps);
            g[i] = 0.0;
            i += 1;
        }
    }

    // SAFETY: requires AVX2+FMA — every call path reaches here through a
    // dispatcher that checked `avx2_available()` first. Pointer arithmetic
    // stays within the slice extents checked by the safe wrappers.
    #[target_feature(enable = "avx2", enable = "fma")]
    pub unsafe fn quantize_into(out: &mut [f32], x: &[f32], lo: f32, scale: f32, levels: f32) {
        let n = out.len();
        let lov = _mm256_set1_ps(lo);
        let sv = _mm256_set1_ps(scale);
        let half = _mm256_set1_ps(0.5);
        let zero = _mm256_setzero_ps();
        let lvv = _mm256_set1_ps(levels);
        let (op, xp) = (out.as_mut_ptr(), x.as_ptr());
        let mut i = 0;
        while i + 8 <= n {
            let d = _mm256_sub_ps(_mm256_loadu_ps(xp.add(i)), lov);
            let t = _mm256_add_ps(_mm256_mul_ps(d, sv), half);
            // floor is IEEE-exact; max/min keep the scalar operand order
            // (value first, bound second) so the clamp is bit-identical.
            let f = _mm256_floor_ps(t);
            let c = _mm256_min_ps(_mm256_max_ps(f, zero), lvv);
            _mm256_storeu_ps(op.add(i), c);
            i += 8;
        }
        while i < n {
            let t = (x[i] - lo) * scale + 0.5;
            out[i] = t.floor().max(0.0).min(levels);
            i += 1;
        }
    }

    // SAFETY: requires AVX2 — the dispatcher checked `avx2_available()`
    // first. The compare-exchange touches exactly the two `ROBUST_TILE`-
    // long rows it is handed, eight lanes at a time.
    #[target_feature(enable = "avx2")]
    pub unsafe fn robust_reduce(
        inputs: &[&[f32]],
        start: usize,
        rule: RobustRule,
        net: &[(usize, usize)],
        out: &mut [f32],
    ) {
        super::robust_reduce_tiles(inputs, start, rule, net, out, |lo, hi| {
            let (lp, hp) = (lo.as_mut_ptr(), hi.as_mut_ptr());
            for l in (0..ROBUST_TILE).step_by(8) {
                // SAFETY: `l + 8 <= ROBUST_TILE`, the length of both rows.
                unsafe {
                    let a = _mm256_loadu_si256(lp.add(l) as *const __m256i);
                    let b = _mm256_loadu_si256(hp.add(l) as *const __m256i);
                    _mm256_storeu_si256(lp.add(l) as *mut __m256i, _mm256_min_epi32(a, b));
                    _mm256_storeu_si256(hp.add(l) as *mut __m256i, _mm256_max_epi32(a, b));
                }
            }
        });
    }

    /// Sums the two f64 accumulator vectors into the pinned 8-lane array
    /// (lanes 0..4 from the low f32 half, 4..8 from the high half).
    // SAFETY: requires AVX2+FMA — every call path reaches here through a
    // dispatcher that checked `avx2_available()` first. Pointer arithmetic
    // stays within the slice extents checked by the safe wrappers.
    #[target_feature(enable = "avx2", enable = "fma")]
    unsafe fn spill_lanes(lo: __m256d, hi: __m256d) -> [f64; 8] {
        let mut lanes = [0.0f64; 8];
        _mm256_storeu_pd(lanes.as_mut_ptr(), lo);
        _mm256_storeu_pd(lanes.as_mut_ptr().add(4), hi);
        lanes
    }

    // SAFETY: requires AVX2+FMA — every call path reaches here through a
    // dispatcher that checked `avx2_available()` first. Pointer arithmetic
    // stays within the slice extents checked by the safe wrappers.
    #[target_feature(enable = "avx2", enable = "fma")]
    pub unsafe fn dot(x: &[f32], y: &[f32]) -> f32 {
        let n = x.len();
        let (xp, yp) = (x.as_ptr(), y.as_ptr());
        // f32×f32 products are exact in f64, so fmadd here rounds exactly
        // like the portable mul-then-add lanes.
        let mut lo = _mm256_setzero_pd();
        let mut hi = _mm256_setzero_pd();
        let mut i = 0;
        while i + 8 <= n {
            let xv = _mm256_loadu_ps(xp.add(i));
            let yv = _mm256_loadu_ps(yp.add(i));
            let xl = _mm256_cvtps_pd(_mm256_castps256_ps128(xv));
            let xh = _mm256_cvtps_pd(_mm256_extractf128_ps(xv, 1));
            let yl = _mm256_cvtps_pd(_mm256_castps256_ps128(yv));
            let yh = _mm256_cvtps_pd(_mm256_extractf128_ps(yv, 1));
            lo = _mm256_fmadd_pd(xl, yl, lo);
            hi = _mm256_fmadd_pd(xh, yh, hi);
            i += 8;
        }
        let mut acc = merge_lanes(&spill_lanes(lo, hi));
        while i < n {
            acc += x[i] as f64 * y[i] as f64;
            i += 1;
        }
        acc as f32
    }

    // SAFETY: requires AVX2+FMA — every call path reaches here through a
    // dispatcher that checked `avx2_available()` first. Pointer arithmetic
    // stays within the slice extents checked by the safe wrappers.
    #[target_feature(enable = "avx2", enable = "fma")]
    pub unsafe fn dist_sq(x: &[f32], y: &[f32]) -> f32 {
        let n = x.len();
        let (xp, yp) = (x.as_ptr(), y.as_ptr());
        let mut lo = _mm256_setzero_pd();
        let mut hi = _mm256_setzero_pd();
        let mut i = 0;
        while i + 8 <= n {
            // The difference rounds in f32 first (seed semantics), then the
            // square accumulates exactly in f64.
            let dv = _mm256_sub_ps(_mm256_loadu_ps(xp.add(i)), _mm256_loadu_ps(yp.add(i)));
            let dl = _mm256_cvtps_pd(_mm256_castps256_ps128(dv));
            let dh = _mm256_cvtps_pd(_mm256_extractf128_ps(dv, 1));
            lo = _mm256_fmadd_pd(dl, dl, lo);
            hi = _mm256_fmadd_pd(dh, dh, hi);
            i += 8;
        }
        let mut acc = merge_lanes(&spill_lanes(lo, hi));
        while i < n {
            let d = (x[i] - y[i]) as f64;
            acc += d * d;
            i += 1;
        }
        acc as f32
    }

    /// `dst[c, r] = src[r, c]` over the whole 8×8 blocks of `src: [rows,
    /// cols]` (the caller copies the edges): eight row loads, three rounds
    /// of in-register interleaves, eight column-block stores. Moves bits,
    /// computes nothing.
    // SAFETY: requires AVX2+FMA — every call path reaches here through a
    // dispatcher that checked `avx2_available()` first. Both slices are
    // `rows * cols` long (asserted by `transpose_uninit`); a block at
    // `(rb, cb)` with `rb + 8 <= rows`, `cb + 8 <= cols` reads
    // `src[(rb + i) * cols + cb..][..8]` and writes
    // `dst[(cb + i) * rows + rb..][..8]` for `i < 8`, all inside them.
    #[target_feature(enable = "avx2", enable = "fma")]
    pub unsafe fn transpose_blocks(
        src: &[f32],
        dst: &mut [std::mem::MaybeUninit<f32>],
        rows: usize,
        cols: usize,
    ) {
        let sp = src.as_ptr();
        let dp = dst.as_mut_ptr() as *mut f32;
        for rb in (0..rows & !7).step_by(8) {
            for cb in (0..cols & !7).step_by(8) {
                let mut v = [_mm256_setzero_ps(); 8];
                for i in 0..8 {
                    v[i] = _mm256_loadu_ps(sp.add((rb + i) * cols + cb));
                }
                // 32-bit then 64-bit interleaves transpose each 4×4 quadrant
                // pair; the 128-bit swap puts the quadrants in place.
                let mut t = [_mm256_setzero_ps(); 8];
                for i in 0..4 {
                    t[2 * i] = _mm256_unpacklo_ps(v[2 * i], v[2 * i + 1]);
                    t[2 * i + 1] = _mm256_unpackhi_ps(v[2 * i], v[2 * i + 1]);
                }
                for h in 0..2 {
                    let (a, b, c, d) = (t[4 * h], t[4 * h + 1], t[4 * h + 2], t[4 * h + 3]);
                    v[4 * h] = _mm256_shuffle_ps::<0x44>(a, c);
                    v[4 * h + 1] = _mm256_shuffle_ps::<0xEE>(a, c);
                    v[4 * h + 2] = _mm256_shuffle_ps::<0x44>(b, d);
                    v[4 * h + 3] = _mm256_shuffle_ps::<0xEE>(b, d);
                }
                for i in 0..4 {
                    let lo = _mm256_permute2f128_ps::<0x20>(v[i], v[i + 4]);
                    let hi = _mm256_permute2f128_ps::<0x31>(v[i], v[i + 4]);
                    _mm256_storeu_ps(dp.add((cb + i) * rows + rb), lo);
                    _mm256_storeu_ps(dp.add((cb + i + 4) * rows + rb), hi);
                }
            }
        }
    }

    // SAFETY: requires AVX2+FMA — every call path reaches here through a
    // dispatcher that checked `avx2_available()` first. Pointer arithmetic
    // stays within the slice extents checked by the safe wrappers.
    #[target_feature(enable = "avx2", enable = "fma")]
    pub unsafe fn matmul_block(lhs: &Lhs, b: &[f32], c: &mut [f32], k: usize, n: usize) {
        let rows = c.len() / n;
        if lhs.has_zero(rows, k) {
            return lhs.for_each_list(b, c, k, n, |list, b, crow| {
                // SAFETY: AVX2+FMA as for this function; `crow` is one
                // `n`-length C row and `b` the `[len, n]` rows of `B` that
                // the list's `at[t] < len` index.
                unsafe { list_row(list, b, crow, n) }
            });
        }
        let mut r = 0;
        while r + MR <= rows {
            dense_tile::<MR>(lhs, b, &mut c[r * n..(r + MR) * n], r, k, n);
            r += MR;
        }
        while r < rows {
            dense_tile::<1>(lhs, b, &mut c[r * n..(r + 1) * n], r, k, n);
            r += 1;
        }
    }

    /// Lanes `0..lanes` on, `1 <= lanes <= 8`: the mask of a C row's last
    /// vector, partial when `n` is no multiple of 8. A masked-off lane is
    /// neither read nor written (it computes on `0.0` and is dropped), so
    /// column tails run at vector speed without touching a neighbour.
    // SAFETY: requires AVX2+FMA — every call path reaches here through a
    // dispatcher that checked `avx2_available()` first; `8 - lanes` is in
    // `0..=7`, so the 8-element load stays inside the 16-element table.
    #[inline]
    #[target_feature(enable = "avx2", enable = "fma")]
    unsafe fn lane_mask(lanes: usize) -> __m256i {
        const ON_THEN_OFF: [i32; 16] = [-1, -1, -1, -1, -1, -1, -1, -1, 0, 0, 0, 0, 0, 0, 0, 0];
        debug_assert!((1..=8).contains(&lanes));
        _mm256_loadu_si256(ON_THEN_OFF.as_ptr().add(8 - lanes) as *const __m256i)
    }

    /// The register tiles of `R` C-rows whose `A` rows hold no zero: 16
    /// columns at a time, then what is left of the row as one narrower
    /// tile with its last vector masked.
    // SAFETY: requires AVX2+FMA — every call path reaches here through a
    // dispatcher that checked `avx2_available()` first. `crows` is `R`
    // rows of `n`, `b` is `[k, n]` and `lhs` covers rows `i0..i0 + R` by
    // the asserts of the safe `matmul_block`; each `dense_cols` call is
    // handed columns `j..` that end at or before `n`.
    #[target_feature(enable = "avx2", enable = "fma")]
    unsafe fn dense_tile<const R: usize>(
        lhs: &Lhs,
        b: &[f32],
        crows: &mut [f32],
        i0: usize,
        k: usize,
        n: usize,
    ) {
        let (bp, cp) = (b.as_ptr(), crows.as_mut_ptr());
        let full = _mm256_setzero_si256();
        let mut j = 0usize;
        while j + 16 <= n {
            dense_cols::<R, 2, false>(lhs, bp.add(j), cp.add(j), i0, k, n, full);
            j += 16;
        }
        match n - j {
            0 => {}
            8 => dense_cols::<R, 1, false>(lhs, bp.add(j), cp.add(j), i0, k, n, full),
            rem @ 1..=7 => {
                dense_cols::<R, 1, true>(lhs, bp.add(j), cp.add(j), i0, k, n, lane_mask(rem))
            }
            rem => {
                dense_cols::<R, 2, true>(lhs, bp.add(j), cp.add(j), i0, k, n, lane_mask(rem - 8))
            }
        }
    }

    /// One register tile: `R` C-rows × `V` vector columns of accumulators
    /// held in registers across the whole `k` loop, each `B` row load reused
    /// by all `R` rows, no test in the loop. Unfused mul+add per lane keeps
    /// every lane's op sequence identical to the scalar reference, which
    /// skips nothing here either. With `PARTIAL`, the last vector column
    /// moves under `last`.
    // SAFETY: requires AVX2+FMA (see `dense_tile`, the only caller). `bp`
    // and `cp` point at the tile's first column inside `[k, n]` / `[R, n]`
    // buffers; the tile spans `8 * V` columns of which the caller promises
    // all (or, with `PARTIAL`, the lanes of `last` in the final vector) lie
    // before column `n`, so every unmasked lane touched is in bounds. `lhs`
    // covers rows `i0..i0 + R` over `p < k` (the asserts of the safe
    // `matmul_block`), which is every element `walk_from`'s strides reach.
    #[inline]
    #[target_feature(enable = "avx2", enable = "fma")]
    unsafe fn dense_cols<const R: usize, const V: usize, const PARTIAL: bool>(
        lhs: &Lhs,
        bp: *const f32,
        cp: *mut f32,
        i0: usize,
        k: usize,
        n: usize,
        last: __m256i,
    ) {
        let (ap, row_step, p_step) = lhs.walk_from(i0);
        let mut acc = [[_mm256_setzero_ps(); V]; R];
        for r in 0..R {
            for v in 0..V {
                acc[r][v] = load::<PARTIAL>(cp.add(r * n + 8 * v), v + 1 == V, last);
            }
        }
        for p in 0..k {
            let mut bv = [_mm256_setzero_ps(); V];
            for v in 0..V {
                bv[v] = load::<PARTIAL>(bp.add(p * n + 8 * v), v + 1 == V, last);
            }
            for r in 0..R {
                let av = _mm256_set1_ps(*ap.add(r * row_step + p * p_step));
                for v in 0..V {
                    acc[r][v] = _mm256_add_ps(acc[r][v], _mm256_mul_ps(av, bv[v]));
                }
            }
        }
        for r in 0..R {
            for v in 0..V {
                store::<PARTIAL>(cp.add(r * n + 8 * v), v + 1 == V, last, acc[r][v]);
            }
        }
    }

    /// Eight floats from `p`, or — for the final vector of a `PARTIAL` tile
    /// — the lanes of `mask` (the others read as `0.0`).
    // SAFETY: requires AVX2+FMA; the caller guarantees the eight (or the
    // masked-on) elements at `p` are readable.
    #[inline]
    #[target_feature(enable = "avx2", enable = "fma")]
    unsafe fn load<const PARTIAL: bool>(p: *const f32, is_last: bool, mask: __m256i) -> __m256 {
        if PARTIAL && is_last {
            _mm256_maskload_ps(p, mask)
        } else {
            _mm256_loadu_ps(p)
        }
    }

    /// The store matching [`load`].
    // SAFETY: requires AVX2+FMA; the caller guarantees the eight (or the
    // masked-on) elements at `p` are writable.
    #[inline]
    #[target_feature(enable = "avx2", enable = "fma")]
    unsafe fn store<const PARTIAL: bool>(p: *mut f32, is_last: bool, mask: __m256i, v: __m256) {
        if PARTIAL && is_last {
            _mm256_maskstore_ps(p, mask, v)
        } else {
            _mm256_storeu_ps(p, v)
        }
    }

    /// One C row over one `k`-chunk of an `A` that holds zeros, in panels
    /// of up to 64 columns (the row's last vector masked): few passes over
    /// the list, because each ends in a loop exit no predictor can learn.
    /// `b` is the chunk's `[len, n]` rows of `B`.
    // SAFETY: requires AVX2+FMA — every call path reaches here through a
    // dispatcher that checked `avx2_available()` first. `crow` is `n` long
    // and every `at[t]` indexes a whole `n`-length row of `b` (`compact`
    // only emits `t < len`); a panel starts at column `j < n`, spans
    // `width <= n - j` columns, and `lane_mask` switches off the lanes of
    // its last vector past `width`.
    #[target_feature(enable = "avx2", enable = "fma")]
    unsafe fn list_row(list: &NonZeros, b: &[f32], crow: &mut [f32], n: usize) {
        debug_assert!(crow.len() == n && list.len <= LIST_CHUNK);
        let (at, val) = (&list.at[..list.len], &list.val[..list.len]);
        let mut j = 0usize;
        while j < n {
            let width = (n - j).min(64);
            let vecs = width.div_ceil(8);
            let last = lane_mask(width - 8 * (vecs - 1));
            let (bp, cp) = (b.as_ptr().add(j), crow.as_mut_ptr().add(j));
            match vecs {
                1 => list_panel::<1>(at, val, bp, cp, n, last),
                2 => list_panel::<2>(at, val, bp, cp, n, last),
                3 => list_panel::<3>(at, val, bp, cp, n, last),
                4 => list_panel::<4>(at, val, bp, cp, n, last),
                5 => list_panel::<5>(at, val, bp, cp, n, last),
                6 => list_panel::<6>(at, val, bp, cp, n, last),
                7 => list_panel::<7>(at, val, bp, cp, n, last),
                _ => list_panel::<8>(at, val, bp, cp, n, last),
            }
            j += width;
        }
    }

    /// `V` vector columns of one C row accumulating `val[t] · b[at[t], ..]`
    /// over the list in order — ascending `p` over exactly the terms the
    /// reference does not skip, unfused. The last column moves under
    /// `last` (all lanes on when the panel is whole).
    // SAFETY: requires AVX2+FMA (see `list_row`, the only caller). `cp`
    // points at the panel's first column in the C row and `bp` at the same
    // column of the chunk's first `B` row; `at[t] * n` steps to a whole row
    // of the chunk, and of the panel's `8 * V` columns only the lanes `last`
    // keeps in the final vector may lie at or past column `n`.
    #[inline]
    #[target_feature(enable = "avx2", enable = "fma")]
    unsafe fn list_panel<const V: usize>(
        at: &[u32],
        val: &[f32],
        bp: *const f32,
        cp: *mut f32,
        n: usize,
        last: __m256i,
    ) {
        let mut acc = [_mm256_setzero_ps(); V];
        for v in 0..V {
            acc[v] = load::<true>(cp.add(8 * v), v + 1 == V, last);
        }
        for (&t, &a) in at.iter().zip(val) {
            let av = _mm256_set1_ps(a);
            let brow = bp.add(t as usize * n);
            for v in 0..V {
                let bv = load::<true>(brow.add(8 * v), v + 1 == V, last);
                acc[v] = _mm256_add_ps(acc[v], _mm256_mul_ps(av, bv));
            }
        }
        for v in 0..V {
            store::<true>(cp.add(8 * v), v + 1 == V, last, acc[v]);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::rng_for;

    fn filled(len: usize, seed: u64) -> Vec<f32> {
        let mut rng = rng_for(seed, 77);
        let mut v = vec![0.0f32; len];
        crate::rng::fill_normal(&mut rng, &mut v, 0.0, 1.0);
        v
    }

    #[test]
    fn transpose_round_trips() {
        let (r, c) = (37, 53);
        let src = filled(r * c, 1);
        let mut t = vec![0.0f32; r * c];
        transpose(&src, &mut t, r, c);
        let mut back = vec![0.0f32; r * c];
        transpose(&t, &mut back, c, r);
        assert_eq!(src, back);
        assert_eq!(t[5 * r + 3], src[3 * c + 5]);
    }

    /// Scopes the lane selection to the calling test thread.
    fn backend(simd: SimdKernel) -> crate::ctx::OverlayGuard {
        crate::ctx::install(crate::ctx::KernelCtx {
            simd,
            ..crate::ctx::snapshot()
        })
    }

    /// On and around one and two 8-lane vectors, so every tail is hit.
    const TAIL_LENS: [usize; 9] = [1, 7, 8, 9, 15, 16, 17, 33, 1003];

    #[test]
    fn dot_matches_lane_definition_on_all_backends() {
        for len in TAIL_LENS {
            let (x, y) = (filled(len, 2), filled(len, 3));
            let run = |simd| {
                let _g = backend(simd);
                (dot(&x, &y).to_bits(), dist_sq(&x, &y).to_bits())
            };
            let reference = run(SimdKernel::Scalar);
            assert_eq!(run(SimdKernel::Auto), reference, "isa, len {len}");
            assert_eq!(run(SimdKernel::Portable), reference, "portable, len {len}");
        }
    }

    /// Every seventh element, from `phase` on, becomes a NaN, ±inf or `-0.0`.
    fn sprinkle(v: &mut [f32], phase: usize, neg_zero: bool) {
        let awkward = [f32::NAN, f32::INFINITY, f32::NEG_INFINITY, -0.0];
        for (i, x) in v.iter_mut().enumerate().skip(phase).step_by(7) {
            *x = awkward[i % (3 + neg_zero as usize)];
        }
    }

    /// The ISA and the portable lane against the scalar one: every row
    /// remainder of the register tile (rows 1..=11) against column counts
    /// on and around whole vectors, `k` from none to conv2's 144, both `A`
    /// layouts, `A` without a zero (the tiles) and about half zero (the
    /// list kernel), non-finite values in both operands, a pre-filled `C`.
    #[test]
    fn matmul_block_is_backend_invariant_on_awkward_shapes() {
        // Every NaN folded to one: which operand's payload an add of two
        // NaNs keeps is not pinned. Signed zeros and infinities count.
        let bits = |c: &[f32]| -> Vec<u32> {
            let fold = |x: &f32| if x.is_nan() { f32::NAN } else { *x }.to_bits();
            c.iter().map(fold).collect()
        };
        for m in 1..=11usize {
            for n in [
                1usize, 7, 8, 9, 10, 15, 16, 17, 31, 32, 33, 62, 64, 127, 128, 129,
            ] {
                for k in [0usize, 1, 9, 10, 144] {
                    let seed = (m * 1000 + n * 5 + k) as u64;
                    let (mut a, mut b) = (filled(m * k, seed), filled(k * n, seed ^ 5));
                    sprinkle(&mut a, 3, false);
                    sprinkle(&mut b, 5, true);
                    let c0 = filled(m * n, 99);
                    for sparse in [false, true] {
                        for (i, v) in a.iter_mut().enumerate().filter(|_| sparse) {
                            match i.wrapping_mul(0x9E37_79B1) >> 16 & 3 {
                                0 => *v = 0.0,
                                1 => *v = -0.0,
                                _ => {}
                            }
                        }
                        for lhs in [Lhs::RowMajor(&a, k), Lhs::ColMajor(&a, m)] {
                            let run = |kernel: SimdKernel| {
                                let _g = backend(kernel);
                                let mut c = c0.clone();
                                matmul_block(lhs, &b, &mut c, k, n);
                                bits(&c)
                            };
                            let want = run(SimdKernel::Scalar);
                            let shape = format!("{m}x{k}x{n} sparse={sparse}");
                            assert_eq!(want, run(SimdKernel::Auto), "isa {shape}");
                            assert_eq!(want, run(SimdKernel::Portable), "portable {shape}");
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn codec_kernels_are_backend_invariant() {
        for len in TAIL_LENS {
            let (w, r) = (filled(len, 11), filled(len, 12));
            let run = |kernel: SimdKernel| {
                let _g = backend(kernel);
                let mut q = vec![0.0f32; len];
                quantize_into(&mut q, &w, -3.0, 255.0 / 6.0, 255.0);
                q
            };
            let reference = run(SimdKernel::Scalar);
            assert_eq!(reference, run(SimdKernel::Auto), "isa, len {len}");
            assert_eq!(reference, run(SimdKernel::Portable), "portable, len {len}");
            // The bit-delta roundtrip is exact by construction.
            let mut bits = vec![0u32; len];
            delta_bits_into(&mut bits, &w, &r);
            let mut back = vec![0.0f32; len];
            apply_delta_bits_into(&mut back, &bits, &r);
            let as_bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<u32>>();
            assert_eq!(as_bits(&w), as_bits(&back));
        }
    }

    #[test]
    fn total_order_key_ranks_like_total_cmp_and_inverts() {
        let patterns = [
            0xffff_ffffu32,
            0xffc0_0000,
            0xff80_0001,
            0xff80_0000,
            0xbf80_0000,
            0x8000_0001,
            0x8000_0000,
            0x0000_0000,
            0x0000_0001,
            0x3f80_0000,
            0x7f80_0000,
            0x7f80_0001,
            0x7fc0_0000,
            0x7fff_ffff,
        ];
        for &a in &patterns {
            assert_eq!(total_order_key(total_order_key(a as i32)) as u32, a);
            for &b in &patterns {
                assert_eq!(
                    total_order_key(a as i32).cmp(&total_order_key(b as i32)),
                    f32::from_bits(a).total_cmp(&f32::from_bits(b)),
                    "{a:08x} vs {b:08x}"
                );
            }
        }
    }

    #[test]
    fn sorting_network_sorts_every_binary_input() {
        // The 0-1 principle: a network that sorts every 0/1 input sorts
        // every input. Exhaustive for k ≤ 12, which covers the odd sizes
        // Batcher's construction has to get right.
        for k in 1..=12usize {
            let net = sorting_network(k);
            assert!(net.iter().all(|&(i, j)| i < j && j < k));
            for mask in 0u32..1 << k {
                let mut rows: Vec<u32> = (0..k).map(|b| mask >> b & 1).collect();
                for &(i, j) in &net {
                    if rows[i] > rows[j] {
                        rows.swap(i, j);
                    }
                }
                assert!(rows.is_sorted(), "k={k} input {mask:b}");
            }
        }
        assert_eq!(sorting_network(10).len(), 31);
    }

    #[test]
    fn zero_lhs_elements_are_skipped_identically() {
        let (m, k, n) = (9, 11, 19);
        let mut a = filled(m * k, 4);
        // Sprinkle exact zeros (post-ReLU pattern).
        for (i, v) in a.iter_mut().enumerate() {
            if i % 3 == 0 {
                *v = 0.0;
            }
        }
        let b = filled(k * n, 6);
        let run = |kernel: SimdKernel| {
            let _g = backend(kernel);
            let mut c = vec![0.0f32; m * n];
            matmul_block(Lhs::RowMajor(&a, k), &b, &mut c, k, n);
            c
        };
        assert_eq!(run(SimdKernel::Scalar), run(SimdKernel::Auto));
    }
}
