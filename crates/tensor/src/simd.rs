//! The arithmetic inner loops of the training hot path, and the explicit
//! SIMD lanes of the few that need one.
//!
//! Every arithmetic inner loop of the reproduction — the three matmul
//! variants (and therefore the im2col conv stage), max pooling, the slice
//! primitives backing aggregation and server mixing, the
//! activation/loss/optimizer elementwise sweeps, the codec sweeps —
//! funnels through this module.
//!
//! ## Which kernels have lanes
//!
//! An element-wise kernel is **one function**: a plain loop, which the
//! compiler vectorizes at the target's baseline ISA. Each used to carry a
//! hand-written AVX2 twin, bit-identical by contract; measured at the
//! lengths runs use, none of them moved a workload (`docs/PERF.md`, "Closed
//! experiments": the element-wise twins), so the twins are gone and
//! [`SimdKernel`] does not reach these kernels at all.
//!
//! Eight kernels keep lanes, because a plain loop cannot express what the
//! lane does:
//!
//! | kernel | scalar (reference) | AVX2 + FMA | why |
//! |---|---|---|---|
//! | [`matmul_block`] | the seed's loops, a zero test per term | 4 × 2 `ymm` register tiles / non-zero lists | register blocking |
//! | `robust_reduce_shard` | per-coordinate `sort_unstable_by` | sorting network over `i32` keys as `vpminsd` / `vpmaxsd` | a different algorithm |
//! | [`transpose`] | 32 × 32 blocked copy | 8 × 8 in-register blocks | shuffles |
//! | [`quantize_into`] | `f32::floor` per element | `vroundps` | baseline x86-64 has no vector `floor` |
//! | [`adam_sweep`] | `prox_grad`, `adam_step`, `fill` — three passes | one fused pass | three sweeps in one |
//! | [`maxpool`] | one window at a time, a compare per pixel | eight windows per `ymm`: gather, `_CMP_GT_OQ`, two blends | a gather |
//! | `im2col` | a load, an AND and a store per tap | eight taps per `vpgatherdd`, one AND, one store | a gather |
//! | [`exp_in_place`] | `f32::exp` (libm's `expf`) per element | libm's own algorithm eight lanes wide, in `f64` | a call per element |
//!
//! **Scalar** (`SimdKernel::Scalar`, and `Auto` where AVX2 + FMA are not
//! detected) is the reference the AVX2 lane is held to and the
//! `BENCH_tensor_kernels.json` "before": the seed's loops byte-for-byte for
//! the matmuls. **AVX2** (`Auto` where detected) is `std::arch`, 8 f32
//! lanes per register — eight also where AVX-512F is detected: a
//! bit-identical 16-lane instantiation of the matmul tiles ran 1.4–1.85× on
//! its own and the paper's CNN setting 4 % *slower*, because 512-bit FP
//! holds the whole thread at a lower clock (`docs/PERF.md`, "Closed
//! experiments": 16-lane matmul and Adam).
//!
//! ## Determinism
//!
//! The lanes are **bit-identical by construction**, so neither the
//! [`SimdKernel`] setting nor the host ISA can ever change a result (the
//! `exp` lane: wherever libm's `expf` is glibc's `__expf_fma`, below):
//!
//! * The matmul micro-kernel, `quantize_into` and `adam_sweep` vectorize
//!   only across the *output/column* dimension. Each output element is
//!   computed by one lane executing exactly the scalar expression tree —
//!   same operations, same rounding points, same accumulation order over
//!   `k` — so every lane reproduces the scalar reference bit-for-bit. In
//!   particular the f32 paths never use FMA *contraction*: a fused `a*b + c`
//!   rounds once where the scalar reference rounds twice, so the AVX2
//!   kernels stick to `mul` + `add` exactly like the reference.
//! * The `im2col` lane computes nothing: it moves each tap's bits and ANDs
//!   them with the tap's keep mask, as the scalar lane does one at a time.
//!   Its gather reads unchecked, so the bound is proven where the tap
//!   tables are built: `ConvPlan::new` checks every offset against a plane
//!   of fewer than 2³¹ elements, once per plan, and a call checks only
//!   that it was handed whole planes (see `im2col`).
//! * The max-pool lane vectorizes across windows: lane `l` makes window
//!   `o + l`'s decisions in the scalar order — the same pixels, the same
//!   `>` (`_CMP_GT_OQ` is false on NaN, like the scalar compare), the same
//!   seed — and moves values without computing any (see [`maxpool`]).
//! * The matmul contract includes the reference kernel's zero skip — a
//!   term whose `a[i,p] == 0.0` is not added — but only the scalar lane
//!   branches on it. The AVX2 lane scans `A` once: no zero
//!   means a test-free register tile (the reference skips nothing there
//!   either), any zero means each `A` row's non-zero `(p, a)` pairs are
//!   compacted, eight at a time and in order (a `_CMP_NEQ_UQ` compare is
//!   the reference's `!=`), into a stack list the columns then accumulate
//!   over — the same terms in the same ascending `p` (see `matmul_block`).
//! * The `exp` lane is the one that fuses, because its reference does:
//!   `f32::exp` is glibc's `__expf_fma` on an AVX2 + FMA host, and the lane
//!   repeats its table lookup, its fused `f64` steps and its one narrowing
//!   per element (see [`exp_in_place`]). It agrees with the scalar lane
//!   wherever libm's `expf` is that routine; an exhaustive test checks a
//!   host on all 2³² inputs.
//! * The robust reduction (trimmed mean / median) is the one kernel whose
//!   lanes run different *algorithms*: the scalar lane sorts each
//!   coordinate's column with `f32::total_cmp`, the AVX2 lane runs a
//!   sorting network over integer keys whose order is `total_cmp` order.
//!   Both leave every coordinate with the same sorted column and then
//!   evaluate the same expression on it (see `robust_reduce_shard`).
//!
//! `simd_determinism.rs` sweeps every lane against its reference, and
//! `train_pin.rs` (in `fedat-nn`) pins whole training steps in both lanes,
//! so code the lanes share cannot drift unseen either.
//!
//! The active kernel is a [`crate::ctx::KernelCtx`] setting: `Auto` by
//! default, `FEDAT_SIMD=scalar` flips the default so CI can run the whole
//! suite on the scalar path, and a thread-local overlay scopes it per run.
#![allow(
    clippy::needless_range_loop,
    reason = "index-based loops keep the lane structure and the pinned accumulation order visible"
)]

// ----------------------------------------------------------------------
// Kernel selection
// ----------------------------------------------------------------------

/// Selects the lane of every kernel in this module that has more than one
/// (see the module docs for which do). Both are bit-identical.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SimdKernel {
    /// Runtime-dispatch to the AVX2+FMA lane where detected, the scalar
    /// reference otherwise. The default.
    Auto,
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
}

fn active() -> Backend {
    match simd_kernel() {
        #[cfg(target_arch = "x86_64")]
        SimdKernel::Auto if avx2_available() => Backend::Avx2,
        _ => Backend::Scalar,
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
    }
}

/// The AVX2 lane where `active()` selects it, the scalar code otherwise —
/// the dispatch of every kernel with lanes.
macro_rules! avx2_or_scalar {
    ($avx2:expr, $scalar:expr) => {
        match active() {
            #[cfg(target_arch = "x86_64")]
            // SAFETY: `active()` returns `Avx2` only when `avx2_available()`
            // confirmed AVX2+FMA at runtime, which is each `avx2::*` fn's
            // sole `#[target_feature]` precondition; slice-length contracts
            // are asserted by the public wrapper before dispatch.
            Backend::Avx2 => unsafe { $avx2 },
            Backend::Scalar => $scalar,
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

/// `x[i] = x[i].exp()` — softmax's exponential, over a whole logit block.
///
/// The scalar lane is `f32::exp` per element. The AVX2 lane is glibc's
/// `__expf_fma` (`sysdeps/ieee754/flt-32/e_expf.c` built with FMA, the
/// variant libm's `expf` resolves to on an AVX2 + FMA host) eight lanes at
/// a time, as two 4-lane `f64` halves: the same 32-entry table, the same
/// fused steps and the same single narrowing, so each lane returns libm's
/// bits. A lane libm sends down its special-case branch (`|x| ≥ 88`, ±∞,
/// NaN) takes `f32::exp` itself; the `< 8` tail is padded to a whole
/// step. The lanes agree wherever `f32::exp` is that glibc routine;
/// `exp_lane_equals_libm_on_every_f32` (`tests/simd_determinism.rs`,
/// `--ignored`) checks a host on all 2³² inputs.
pub fn exp_in_place(x: &mut [f32]) {
    avx2_or_scalar!(avx2::exp_in_place(x), {
        for v in x.iter_mut() {
            *v = v.exp();
        }
    })
}

/// Asks the cache for every 64-byte line of `data` ahead of its first use:
/// one `prefetcht0` per line on x86-64, nothing elsewhere. A prefetch is a
/// hint that loads nothing into a register and never faults, so it moves
/// no bit, in either lane. Local training calls it on a client's feature
/// rows before its first batch: a large cohort's rows outgrow the L2, and
/// the batch gather otherwise stalls on each cold row in turn.
pub fn prefetch(data: &[f32]) {
    #[cfg(target_arch = "x86_64")]
    {
        use std::arch::x86_64::{_mm_prefetch, _MM_HINT_T0};
        let bytes = std::mem::size_of_val(data);
        let base = data.as_ptr().cast::<i8>();
        // Every 64th byte, then the last: a stride from an unaligned start
        // can stop one line short.
        for offset in (0..bytes).step_by(64).chain(bytes.checked_sub(1)) {
            // SAFETY: `offset < bytes`, so the address lies inside `data`;
            // SSE (the prefetch's only feature) is baseline on x86-64.
            unsafe { _mm_prefetch::<_MM_HINT_T0>(base.add(offset)) };
        }
    }
    #[cfg(not(target_arch = "x86_64"))]
    let _ = data;
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
// Reduction (pinned 8-lane decomposition)
// ----------------------------------------------------------------------

/// Squared Euclidean distance with f64 lane accumulation: one plain
/// function.
///
/// Defined as: the difference rounds in f32 first (seed semantics), lane
/// `l` sums its exact f64 square over `i ≡ l (mod 8)` of the 8-aligned
/// prefix, the lanes merge pairwise
/// (`((l0+l1)+(l2+l3)) + ((l4+l5)+(l6+l7))`), and the tail is appended
/// serially.
///
/// # Panics
/// Panics if lengths differ.
pub fn dist_sq(x: &[f32], y: &[f32]) -> f32 {
    assert_eq!(x.len(), y.len(), "dist_sq length mismatch");
    let main = x.len() - x.len() % 8;
    let mut lanes = [0.0f64; 8];
    for (xc, yc) in x[..main].chunks_exact(8).zip(y[..main].chunks_exact(8)) {
        for l in 0..8 {
            let d = (xc[l] - yc[l]) as f64;
            lanes[l] += d * d;
        }
    }
    let l = &lanes;
    let mut acc = ((l[0] + l[1]) + (l[2] + l[3])) + ((l[4] + l[5]) + (l[6] + l[7]));
    for (&a, &b) in x[main..].iter().zip(y[main..].iter()) {
        let d = (a - b) as f64;
        acc += d * d;
    }
    acc as f32
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
/// 32 against 216 µs at 64 and 224 µs at 16 for k = 10 × 32 830).
pub const ROBUST_TILE: usize = 32;
// The trimmed-mean finish walks a tile sixteen lanes at a time.
const _: () = assert!(ROBUST_TILE.is_multiple_of(16));

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
/// `f32::total_cmp`. The AVX2 lane gathers a tile of [`ROBUST_TILE`]
/// coordinates into a `k × tile` block of `total_cmp` keys, runs `net`
/// across the block as integer `min`/`max` (one lane per coordinate), maps
/// the kept rows back and finishes with the scalar lane's own expression
/// per lane. Key order *is* `total_cmp` order, a sorting network and a sort
/// agree on every row of a column, and each coordinate still adds its kept
/// values in ascending order in f64 — so both lanes return the same bits
/// for every input. Only the payload of a NaN added to a NaN is left open
/// by IEEE 754 (and by the compiler, which may commute the operands), so a
/// tile with a NaN among its kept values runs the scalar lane's code
/// itself. A selection network would put the right *set* in the kept rows
/// but not in order; f64 addition does not associate, so the full sort is
/// what pins the accumulation order.
///
/// `net` must be [`sorting_network`]`(inputs.len())`.
///
/// # Panics
/// Panics if an input does not cover `start..start + out.len()` or a
/// trimmed mean would drop every value.
#[cfg_attr(
    not(target_arch = "x86_64"),
    expect(unused_variables, reason = "only the AVX2 lane runs the network")
)]
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
    avx2_or_scalar!(
        avx2::robust_reduce(inputs, start, rule, net, out),
        scalar::robust_reduce(inputs, start, rule, out)
    )
}

// ----------------------------------------------------------------------
// The matmul micro-kernel
// ----------------------------------------------------------------------

/// How the micro-kernel reads the left operand `A`.
///
/// Parameterizing the `A` access (always a scalar broadcast) lets one
/// micro-kernel back all three matmul variants: `NN`/`NT` read `A`
/// row-major, `TN` reads `A[k,m]` transposed — in place in the dense tile,
/// from a transposed copy in the AVX2 list kernel.
#[derive(Clone, Copy)]
pub enum Lhs<'a> {
    /// `a(i, p) = a[i * k + p]` — `A` stored `[m, k]` row-major.
    RowMajor(&'a [f32], usize),
    /// `a(i, p) = a[p * m + i]` — `A` stored `[k, m]`, read transposed.
    ColMajor(&'a [f32], usize),
}

/// `c[i, j] += Σ_p a(i, p) · b[p, j]` — the body of all three
/// `matmul_*_into` variants.
///
/// Each `C[i,j]` accumulates over `p = 0..k` in ascending order with
/// unfused `mul`+`add`, and a term whose `a(i, p) == 0.0` is not added
/// (`-0.0` is skipped, NaN is not). The scalar backend tests per term; the
/// AVX2 one chooses once from the operand — a test-free tile when `A` holds
/// no zero, otherwise a walk over each row's compacted non-zeros — so both
/// backends produce identical bits.
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
    // The shape asserts above prove the extents the AVX2 kernel reads
    // unchecked.
    avx2_or_scalar!(
        avx2::matmul_block(&lhs, b, c, k, n),
        scalar::matmul_block(&lhs, b, c, k, n)
    )
}

/// Number of `C` rows one register tile covers (the `MR` of the
/// micro-kernel: 4 rows × 2 vector columns of 8 lanes).
pub const MR: usize = 4;

// ----------------------------------------------------------------------
// Transpose
// ----------------------------------------------------------------------

/// `dst[c, r] = src[r, c]` for `src: [rows, cols]`: 8×8 blocks transposed
/// in registers on the AVX2 backend, a cache-blocked element copy (32×32
/// tiles, both streams stay cache-resident) otherwise and on the block
/// edges. Pure data movement: no rounding, bit-exact on every backend by
/// definition.
///
/// # Panics
/// Panics if `src` and `dst` are not both `rows * cols` long.
pub fn transpose(src: &[f32], dst: &mut [f32], rows: usize, cols: usize) {
    assert_eq!(src.len(), rows * cols, "transpose src shape mismatch");
    // SAFETY: `MaybeUninit<f32>` has the same layout as `f32`, and
    // `transpose_strided` only ever writes initialized values.
    let uninit = unsafe {
        std::slice::from_raw_parts_mut(
            dst.as_mut_ptr() as *mut std::mem::MaybeUninit<f32>,
            dst.len(),
        )
    };
    transpose_strided(src, cols, uninit, rows, cols);
}

/// The [`transpose`] of the `rows × cols` matrix whose row `r` is
/// `src[r * stride..][..cols]`, in a scratch-arena buffer the caller hands
/// back with [`crate::scratch::recycle`]: `Bᵀ` for the NT matmul, `Aᵀ` for
/// the list kernel's `TN`. Writes every element exactly once, so there is
/// no zero-fill on the backward hot path.
///
/// # Panics
/// Panics if `stride < cols` or `src` ends before the last row does.
pub(crate) fn transposed_scratch(src: &[f32], stride: usize, rows: usize, cols: usize) -> Vec<f32> {
    let mut t = crate::scratch::take_empty(rows * cols);
    transpose_strided(
        src,
        stride,
        &mut t.spare_capacity_mut()[..rows * cols],
        rows,
        cols,
    );
    // SAFETY: capacity ≥ rows * cols by `take_empty`, and the transpose
    // initialized every element of the prefix.
    unsafe { t.set_len(rows * cols) };
    t
}

/// The body of [`transpose`] and [`transposed_scratch`]: row `r` of the
/// source is `src[r * stride..][..cols]`, and `dst` may start
/// uninitialized.
fn transpose_strided(
    src: &[f32],
    stride: usize,
    dst: &mut [std::mem::MaybeUninit<f32>],
    rows: usize,
    cols: usize,
) {
    assert!(
        stride >= cols && (rows == 0 || src.len() >= (rows - 1) * stride + cols),
        "transpose src shape mismatch"
    );
    assert_eq!(dst.len(), rows * cols, "transpose dst shape mismatch");
    // The element copy over `src[r0..r1, c0..c1]`, 32×32 tiles.
    let mut copy = |r0: usize, r1: usize, c0: usize, c1: usize| {
        const TB: usize = 32;
        for rb in (r0..r1).step_by(TB) {
            for cb in (c0..c1).step_by(TB) {
                for r in rb..(rb + TB).min(r1) {
                    for c in cb..(cb + TB).min(c1) {
                        dst[c * rows + r].write(src[r * stride + c]);
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
        // `src` every row's `cols` elements and `dst` its `rows * cols`.
        unsafe { avx2::transpose_blocks(src, stride, dst, rows, cols) };
        return;
    }
    copy(0, rows, 0, cols);
}

// ----------------------------------------------------------------------
// Max pooling
// ----------------------------------------------------------------------

/// `k × k` max pooling with stride `k` over `h × w` planes stored back to
/// back in `src` (floor semantics: a partial window at the right or bottom
/// edge is dropped). Window `o`, in plane-major, row-major order, writes
/// its maximum to `out[o]` and the flat `src` index it came from to
/// `argmax[o]`.
///
/// The maximum is the first pixel in `(dy, dx)` order that is `>` every
/// pixel before it, starting from `-inf`: ties keep the earlier pixel (so
/// `+0.0` does not displace `-0.0`), NaN never wins, and a window of only
/// NaN and `-inf` yields `-inf` at its own first pixel. The scalar lane
/// walks one window at a time; the AVX2 lane walks eight side by side,
/// each step a gather, a `_CMP_GT_OQ` compare (false on NaN, exactly the
/// scalar `>`) and two blends — the same sequence of decisions per window,
/// so both lanes return the same bits.
///
/// # Panics
/// Panics if `k` is zero or larger than a side, `src` is not a whole number
/// of planes, `out` and `argmax` do not hold one entry per window, or `src`
/// has 2³¹ elements or more (the indices are 31-bit).
pub fn maxpool(src: &[f32], (h, w): (usize, usize), k: usize, out: &mut [f32], argmax: &mut [u32]) {
    assert!(
        k > 0 && h >= k && w >= k,
        "pool window {k} too large for {h}×{w}"
    );
    assert_eq!(src.len() % (h * w), 0, "maxpool input is not whole planes");
    let windows = src.len() / (h * w) * (h / k) * (w / k);
    assert_eq!(out.len(), windows, "maxpool output size mismatch");
    assert_eq!(argmax.len(), windows, "maxpool argmax size mismatch");
    assert!(src.len() <= i32::MAX as usize, "maxpool input too large");
    avx2_or_scalar!(
        avx2::maxpool(src, (h, w), k, out, argmax),
        scalar::maxpool(src, (h, w), k, out, argmax)
    )
}

// ----------------------------------------------------------------------
// Column build (the conv stage's im2col)
// ----------------------------------------------------------------------

/// Unfolds the `hw`-element planes of `img` through one tap table: plane
/// `c`'s row of `cols` (`at.len()` long) holds, at `i`, the bits of
/// `img[c·hw + at[i]]` ANDed with `keep[i]` — the pixel where `keep[i]` is
/// all ones, `+0.0` where it is zero. Only bits move, so both lanes return
/// the same bits, NaN payloads included. The scalar lane is a load, an AND
/// and a store per tap; the AVX2 lane gathers eight taps per `vpgatherdd`,
/// ANDs them with eight masks and stores them at once (a row's last
/// `at.len() % 8` taps one at a time).
///
/// # Safety
///
/// Every `at[i]` is below `hw`, and `hw` is at most `i32::MAX`: the AVX2
/// lane gathers without a bounds check, through signed 32-bit indices.
/// [`crate::conv::ConvPlan::new`] proves both once per plan.
///
/// # Panics
/// Panics if `img` is not whole planes, `keep` not as long as `at`, or
/// `cols` not one `at.len()` row per plane.
pub(crate) unsafe fn im2col(
    img: &[f32],
    hw: usize,
    at: &[u32],
    keep: &[u32],
    cols: &mut [std::mem::MaybeUninit<f32>],
) {
    assert_eq!(img.len() % hw, 0, "im2col image is not whole planes");
    assert_eq!(keep.len(), at.len(), "im2col tap tables differ in length");
    assert_eq!(cols.len(), img.len() / hw * at.len(), "cols size mismatch");
    avx2_or_scalar!(
        avx2::im2col(img, hw, at, keep, cols),
        scalar::im2col(img, hw, at, keep, cols)
    )
}

// ----------------------------------------------------------------------
// Scalar reference lane
// ----------------------------------------------------------------------

mod scalar {
    use super::Lhs;
    use crate::ops::RobustRule;
    use std::mem::MaybeUninit;

    /// A load, an AND and a store per tap, each load bounds-checked.
    pub fn im2col(img: &[f32], hw: usize, at: &[u32], keep: &[u32], cols: &mut [MaybeUninit<f32>]) {
        for (plane, row) in img.chunks_exact(hw).zip(cols.chunks_exact_mut(at.len())) {
            for ((out, &at), &keep) in row.iter_mut().zip(at).zip(keep) {
                out.write(f32::from_bits(plane[at as usize].to_bits() & keep));
            }
        }
    }

    /// One window at a time, each seeded with its own first pixel.
    pub fn maxpool(
        src: &[f32],
        (h, w): (usize, usize),
        k: usize,
        out: &mut [f32],
        argmax: &mut [u32],
    ) {
        let (oh, ow) = (h / k, w / k);
        for img in 0..src.len() / (h * w) {
            let plane = &src[img * h * w..];
            for oy in 0..oh {
                for ox in 0..ow {
                    let mut best = f32::NEG_INFINITY;
                    let mut best_idx = oy * k * w + ox * k;
                    for dy in 0..k {
                        for dx in 0..k {
                            let iy = oy * k + dy;
                            let ix = ox * k + dx;
                            let idx = iy * w + ix;
                            let v = plane[idx];
                            if v > best {
                                best = v;
                                best_idx = idx;
                            }
                        }
                    }
                    let o = img * oh * ow + oy * ow + ox;
                    out[o] = best;
                    argmax[o] = (img * h * w + best_idx) as u32;
                }
            }
        }
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
// AVX2+FMA backend
// ----------------------------------------------------------------------

#[cfg(target_arch = "x86_64")]
mod avx2 {
    use super::{AdamParams, Lhs, MR, ROBUST_TILE};
    use crate::ops::RobustRule;
    use std::arch::x86_64::*;
    use std::mem::MaybeUninit;

    /// Longest stretch of `k` whose non-zero `A` entries one `NonZeros` list
    /// holds (a power of two: the list index is masked, not bounds-checked).
    const LIST_CHUNK: usize = 256;

    /// `LANES[mask]` lists the set bits of `mask` in ascending order (the
    /// entries past its popcount are 0): the `vpermps` index that packs the
    /// lanes a compare kept to the front of a register, in their order.
    pub(super) static LANES: [[u8; 8]; 256] = {
        let mut table = [[0u8; 8]; 256];
        let mut i = 0;
        while i < 256 * 8 {
            let (mask, lane) = (i / 8, i % 8);
            if mask >> lane & 1 == 1 {
                table[mask][(mask & ((1 << lane) - 1)).count_ones() as usize] = lane as u8;
            }
            i += 1;
        }
        table
    };

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

        /// Fills the list with the non-zero entries of `row` (one chunk),
        /// ascending, eight at a time: `_CMP_NEQ_UQ` is the reference's
        /// `a != 0.0` (true on NaN, false on `±0.0`), its movemask picks the
        /// `LANES` entry that packs the kept values and their `t` to the
        /// front in order, and both are stored whole at `len` — which is at
        /// most the `t` of the group, so the eight slots lie inside the
        /// chunk — before `len` grows by the count kept. The `< 8` tail is
        /// pushed one by one.
        ///
        /// # Safety
        ///
        /// Requires AVX2+FMA — every call path reaches here through a
        /// dispatcher that checked `avx2_available()` first.
        #[inline]
        #[target_feature(enable = "avx2", enable = "fma")]
        unsafe fn compact(&mut self, row: &[f32]) {
            debug_assert!(row.len() <= LIST_CHUNK);
            let (mut len, eight) = (0, _mm256_set1_epi32(8));
            let mut t = _mm256_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7);
            let mut groups = row.chunks_exact(8);
            for group in &mut groups {
                let v = _mm256_loadu_ps(group.as_ptr());
                let keep = _mm256_movemask_ps(_mm256_cmp_ps::<_CMP_NEQ_UQ>(v, _mm256_setzero_ps()));
                let lanes = LANES[keep as usize].as_ptr() as *const __m128i;
                let order = _mm256_cvtepu8_epi32(_mm_loadl_epi64(lanes));
                let at = self.at.as_mut_ptr().add(len) as *mut __m256i;
                _mm256_storeu_si256(at, _mm256_permutevar8x32_epi32(t, order));
                let val = self.val.as_mut_ptr().add(len);
                _mm256_storeu_ps(val, _mm256_permutevar8x32_ps(v, order));
                len += keep.count_ones() as usize;
                t = _mm256_add_epi32(t, eight);
            }
            self.len = len;
            let done = row.len() - groups.remainder().len();
            for (t, &a) in groups.remainder().iter().enumerate() {
                self.push(done + t, a);
            }
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

    // `adam_sweep` and `quantize_into` process 8 lanes per iteration with
    // the exact scalar expression tree (unfused mul+add), then finish the
    // tail with the scalar expression itself.

    /// # Safety
    ///
    /// Requires AVX2+FMA — every call path reaches here through a
    /// dispatcher that checked `avx2_available()` first. Pointer arithmetic
    /// stays within the slice extents checked by the safe wrappers.
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

    /// # Safety
    ///
    /// Requires AVX2+FMA — every call path reaches here through a
    /// dispatcher that checked `avx2_available()` first. Pointer arithmetic
    /// stays within the slice extents checked by the safe wrappers.
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

    /// glibc's `__exp2f_data` for `N = 32` (`e_exp2f_data.c`; libm's
    /// `.rodata` holds the same words): `EXP_TAB[i]` is the bit pattern of
    /// `2^(i/32)` minus `i << 47`, so adding `k << 47` for any `k ≡ i (mod
    /// 32)` yields `2^(k/32)`.
    #[rustfmt::skip]
    const EXP_TAB: [u64; 32] = [
        0x3ff0000000000000, 0x3fefd9b0d3158574, 0x3fefb5586cf9890f, 0x3fef9301d0125b51,
        0x3fef72b83c7d517b, 0x3fef54873168b9aa, 0x3fef387a6e756238, 0x3fef1e9df51fdee1,
        0x3fef06fe0a31b715, 0x3feef1a7373aa9cb, 0x3feedea64c123422, 0x3feece086061892d,
        0x3feebfdad5362a27, 0x3feeb42b569d4f82, 0x3feeab07dd485429, 0x3feea47eb03a5585,
        0x3feea09e667f3bcd, 0x3fee9f75e8ec5f74, 0x3feea11473eb0187, 0x3feea589994cce13,
        0x3feeace5422aa0db, 0x3feeb737b0cdc5e5, 0x3feec49182a3f090, 0x3feed503b23e255d,
        0x3feee89f995ad3ad, 0x3feeff76f2fb5e47, 0x3fef199bdd85529c, 0x3fef3720dcef9069,
        0x3fef5818dcfba487, 0x3fef7c97337b9b5f, 0x3fefa4afa2a490da, 0x3fefd0765b6e4540,
    ];
    /// `0x1.71547652b82fep+5`: `N / ln 2`.
    const INV_LN2_N: f64 = f64::from_bits(0x4047_1547_652b_82fe);
    /// `0x1.8p+52`: adding it rounds `x · N / ln 2` to an integer in the
    /// low mantissa bits.
    const SHIFT: f64 = f64::from_bits(0x4338_0000_0000_0000);
    /// `0x1.c6af84b912394p-20`, `0x1.ebfce50fac4f3p-13`,
    /// `0x1.62e42ff0c52d6p-6`: the cubic for `2^(r/N)`, scaled by `N`.
    const EXP_POLY: [f64; 3] = [
        f64::from_bits(0x3ebc_6af8_4b91_2394),
        f64::from_bits(0x3f2e_bfce_50fa_c4f3),
        f64::from_bits(0x3f96_2e42_ff0c_52d6),
    ];
    /// libm's special-case test: a float whose `(bits >> 20) & 0x7ff` is
    /// above this (`|x| ≥ 88`, ±∞, NaN) leaves the table path.
    const EXP_SPECIAL_TOP: i32 = 0x42a;

    /// `__expf_fma`'s table path on four widened floats, up to the final
    /// narrowing: `kd = x·N/ln2 + SHIFT` fused, its low bits `ki` the table
    /// index and exponent, `r = x·N/ln2 − (kd − SHIFT)` fused,
    /// `s = 2^(ki/N)` from the table, then `(C0·r + C1)·r² + (C2·r + 1)` as
    /// three fusions and one product, times `s`.
    ///
    /// # Safety
    ///
    /// Requires AVX2+FMA (see `exp_in_place`, the only caller). The gather
    /// index is `ki & 31`, always inside `EXP_TAB`.
    #[inline]
    #[target_feature(enable = "avx2", enable = "fma")]
    #[expect(
        clippy::disallowed_methods,
        reason = "R2: the reference is libm's expf, which itself fuses these steps; unfused, this lane would leave it"
    )]
    unsafe fn exp4(xd: __m256d) -> __m256d {
        let inv = _mm256_set1_pd(INV_LN2_N);
        let shift = _mm256_set1_pd(SHIFT);
        let kd = _mm256_fmadd_pd(inv, xd, shift);
        let ki = _mm256_castpd_si256(kd);
        let kd = _mm256_sub_pd(kd, shift);
        let r = _mm256_fmsub_pd(inv, xd, kd);
        let at = _mm256_and_si256(ki, _mm256_set1_epi64x(31));
        let t = _mm256_i64gather_epi64::<8>(EXP_TAB.as_ptr() as *const i64, at);
        let s = _mm256_castsi256_pd(_mm256_add_epi64(t, _mm256_slli_epi64::<47>(ki)));
        let [c0, c1, c2] = EXP_POLY;
        let z = _mm256_fmadd_pd(_mm256_set1_pd(c0), r, _mm256_set1_pd(c1));
        let r2 = _mm256_mul_pd(r, r);
        let y = _mm256_fmadd_pd(_mm256_set1_pd(c2), r, _mm256_set1_pd(1.0));
        _mm256_mul_pd(_mm256_fmadd_pd(z, r2, y), s)
    }

    /// Eight floats per step through [`exp8`]; the `< 8` tail is padded
    /// out to one more step, so every element takes the same lane path.
    ///
    /// # Safety
    ///
    /// Requires AVX2+FMA — every call path reaches here through a
    /// dispatcher that checked `avx2_available()` first.
    #[target_feature(enable = "avx2", enable = "fma")]
    pub unsafe fn exp_in_place(x: &mut [f32]) {
        let (chunks, tail) = x.as_chunks_mut::<8>();
        for chunk in chunks {
            exp8(chunk);
        }
        if !tail.is_empty() {
            let mut pad = [0.0f32; 8];
            pad[..tail.len()].copy_from_slice(tail);
            exp8(&mut pad);
            tail.copy_from_slice(&pad[..tail.len()]);
        }
    }

    /// Eight floats through [`exp4`], each half narrowed once
    /// (`vcvtpd2ps`, libm's `vcvtsd2ss`); a lane above
    /// [`EXP_SPECIAL_TOP`] is then redone by `f32::exp`.
    ///
    /// # Safety
    ///
    /// Requires AVX2+FMA (see `exp_in_place`, the only caller).
    #[inline]
    #[target_feature(enable = "avx2", enable = "fma")]
    unsafe fn exp8(x: &mut [f32; 8]) {
        let v = _mm256_loadu_ps(x.as_ptr());
        let top = _mm256_and_si256(
            _mm256_srli_epi32::<20>(_mm256_castps_si256(v)),
            _mm256_set1_epi32(0x7ff),
        );
        let special = _mm256_cmpgt_epi32(top, _mm256_set1_epi32(EXP_SPECIAL_TOP));
        let odd = _mm256_movemask_ps(_mm256_castsi256_ps(special));
        let lo = exp4(_mm256_cvtps_pd(_mm256_castps256_ps128(v)));
        let hi = exp4(_mm256_cvtps_pd(_mm256_extractf128_ps::<1>(v)));
        _mm256_storeu_ps(
            x.as_mut_ptr(),
            _mm256_set_m128(_mm256_cvtpd_ps(hi), _mm256_cvtpd_ps(lo)),
        );
        if odd != 0 {
            let mut orig = [0.0f32; 8];
            _mm256_storeu_ps(orig.as_mut_ptr(), v);
            for (l, &xl) in orig.iter().enumerate().filter(|&(l, _)| odd >> l & 1 == 1) {
                x[l] = xl.exp();
            }
        }
    }

    /// The `f32::total_cmp` key of a bit pattern: flipping the magnitude bits
    /// of negative values makes signed-integer order equal `total_cmp` order
    /// for *every* pair of patterns (−NaN < −∞ < … < −0 < +0 < … < +∞ < +NaN,
    /// payloads ranked). The map is its own inverse.
    #[inline(always)]
    pub(super) const fn total_order_key(bits: i32) -> i32 {
        bits ^ (((bits >> 31) as u32) >> 1) as i32
    }

    /// The AVX2 lane of `robust_reduce_shard`: tile by tile, the block of
    /// keys, `net` as `vpminsd` / `vpmaxsd` over two rows at a time, and the
    /// scalar lane's expression on the kept rows.
    ///
    /// # Safety
    ///
    /// Requires AVX2 — the dispatcher checked `avx2_available()`
    /// first. The compare-exchange touches exactly the two `ROBUST_TILE`-
    /// long rows it is handed, eight lanes at a time.
    #[target_feature(enable = "avx2")]
    pub unsafe fn robust_reduce(
        inputs: &[&[f32]],
        start: usize,
        rule: RobustRule,
        net: &[(usize, usize)],
        out: &mut [f32],
    ) {
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
        let keys =
            unsafe { std::slice::from_raw_parts_mut(block.as_mut_ptr().cast::<i32>(), k * T) };
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
                let (lp, hp) = (head[i].as_mut_ptr(), tail[0].as_mut_ptr());
                // `l + 8 <= ROBUST_TILE`, the length of both rows.
                for l in (0..T).step_by(8) {
                    let a = _mm256_loadu_si256(lp.add(l) as *const __m256i);
                    let b = _mm256_loadu_si256(hp.add(l) as *const __m256i);
                    _mm256_storeu_si256(lp.add(l) as *mut __m256i, _mm256_min_epi32(a, b));
                    _mm256_storeu_si256(hp.add(l) as *mut __m256i, _mm256_max_epi32(a, b));
                }
            }
            // Kept rows ascend, so a NaN among them shows in the first
            // (negative NaNs) or the last (positive NaNs).
            let kept = &rows[keep.clone()];
            let (first, last) = (&kept[0][..tile.len()], &kept[kept.len() - 1][..tile.len()]);
            if first.iter().any(|&key| key < NEG_INF_KEY)
                || last.iter().any(|&key| key > POS_INF_KEY)
            {
                super::scalar::robust_reduce(inputs, at, rule, tile);
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
                        res[l] =
                            ((value(kept[0][l]) as f64 + value(kept[1][l]) as f64) * 0.5) as f32;
                    }
                }
            }
            tile.copy_from_slice(&res[..tile.len()]);
        }
        crate::scratch::recycle(block);
    }

    /// `dst[c, r] = src[r, c]` over the whole 8×8 blocks of `src: [rows,
    /// cols]` (the caller copies the edges): eight row loads, three rounds
    /// of in-register interleaves, eight column-block stores. Moves bits,
    /// computes nothing.
    ///
    /// # Safety
    ///
    /// Requires AVX2+FMA — every call path reaches here through a
    /// dispatcher that checked `avx2_available()` first. `src` holds
    /// `rows` rows of `cols` at `stride` and `dst` is `rows * cols` long
    /// (asserted by `transpose_strided`); a block at `(rb, cb)` with
    /// `rb + 8 <= rows`, `cb + 8 <= cols` reads
    /// `src[(rb + i) * stride + cb..][..8]` and writes
    /// `dst[(cb + i) * rows + rb..][..8]` for `i < 8`, all inside them.
    #[target_feature(enable = "avx2", enable = "fma")]
    pub unsafe fn transpose_blocks(
        src: &[f32],
        stride: usize,
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
                    v[i] = _mm256_loadu_ps(sp.add((rb + i) * stride + cb));
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

    /// Eight pooling windows side by side: lane `l` holds window `o + l`'s
    /// running maximum and its index, seeded with `-inf` at the window's
    /// first pixel; each `(dy, dx)` step gathers one pixel per window and
    /// blends both registers where it is `>` (ordered, so NaN never wins).
    /// Each lane's window cursor — column, row and first pixel — advances
    /// eight windows per group in registers: eight windows are so many
    /// planes, rows and columns, and adding them carries at most once from
    /// the column into the row and once from the row into the plane. The
    /// last group runs under a lane mask.
    ///
    /// # Safety
    ///
    /// Requires AVX2+FMA — the dispatcher checked `avx2_available()`
    /// first. The safe `maxpool` asserted `src` is whole `h × w` planes of
    /// fewer than 2³¹ elements, `h, w >= k`, and `out` / `argmax` hold one
    /// entry per window. On lane `l` of group `o`, the cursor holds window
    /// `o + l`'s first pixel `plane·h·w + oy·k·w + ox·k`; for a window that
    /// exists every index it adds `dy·w + dx` to is inside `src` and fits an
    /// `i32`, and its stores are inside `out` / `argmax`. Lanes past the
    /// last window are masked off: neither gathered nor stored.
    #[target_feature(enable = "avx2", enable = "fma")]
    pub unsafe fn maxpool(
        src: &[f32],
        (h, w): (usize, usize),
        k: usize,
        out: &mut [f32],
        argmax: &mut [u32],
    ) {
        let (oh, ow) = (h / k, w / k);
        let (sp, op, ap) = (
            src.as_ptr(),
            out.as_mut_ptr(),
            argmax.as_mut_ptr() as *mut i32,
        );
        // Lane `l` starts at window `l`.
        let (mut col, mut row, mut first) = ([0i32; 8], [0i32; 8], [0i32; 8]);
        for l in 0..8 {
            let (plane, q) = (l / (oh * ow), l % (oh * ow));
            (col[l], row[l]) = ((q % ow) as i32, (q / ow) as i32);
            first[l] = (plane * h * w + q / ow * k * w + q % ow * k) as i32;
        }
        let mut col = _mm256_loadu_si256(col.as_ptr() as *const __m256i);
        let mut row = _mm256_loadu_si256(row.as_ptr() as *const __m256i);
        let mut first = _mm256_loadu_si256(first.as_ptr() as *const __m256i);
        // Eight windows are `planes` planes, `rows` rows and `cols` columns.
        let (planes, rows, cols) = (8 / (oh * ow), 8 % (oh * ow) / ow, 8 % (oh * ow) % ow);
        let step = _mm256_set1_epi32((planes * h * w + rows * k * w + cols * k) as i32);
        let (col_step, row_step) = (
            _mm256_set1_epi32(cols as i32),
            _mm256_set1_epi32(rows as i32),
        );
        let (last_col, last_row) = (
            _mm256_set1_epi32(ow as i32 - 1),
            _mm256_set1_epi32(oh as i32 - 1),
        );
        let (ow_v, oh_v) = (_mm256_set1_epi32(ow as i32), _mm256_set1_epi32(oh as i32));
        // A column carry moves to the next row's first window, a row carry
        // to the next plane's.
        let col_carry = _mm256_set1_epi32((k * w - ow * k) as i32);
        let row_carry = _mm256_set1_epi32((h * w - oh * k * w) as i32);
        let mut o = 0usize;
        while o < out.len() {
            let lanes = (out.len() - o).min(8);
            let on = lane_mask(lanes);
            let mut best = _mm256_set1_ps(f32::NEG_INFINITY);
            let mut at = _mm256_castsi256_ps(first);
            for dy in 0..k {
                for dx in 0..k {
                    let idx = _mm256_add_epi32(first, _mm256_set1_epi32((dy * w + dx) as i32));
                    let v = _mm256_mask_i32gather_ps::<4>(
                        _mm256_setzero_ps(),
                        sp,
                        idx,
                        _mm256_castsi256_ps(on),
                    );
                    let gt = _mm256_cmp_ps::<_CMP_GT_OQ>(v, best);
                    best = _mm256_blendv_ps(best, v, gt);
                    at = _mm256_blendv_ps(at, _mm256_castsi256_ps(idx), gt);
                }
            }
            if lanes == 8 {
                _mm256_storeu_ps(op.add(o), best);
                _mm256_storeu_si256(ap.add(o) as *mut __m256i, _mm256_castps_si256(at));
            } else {
                _mm256_maskstore_ps(op.add(o), on, best);
                _mm256_maskstore_epi32(ap.add(o), on, _mm256_castps_si256(at));
            }
            o += lanes;
            // Advance every lane eight windows; a carry mask is all ones.
            col = _mm256_add_epi32(col, col_step);
            let cx = _mm256_cmpgt_epi32(col, last_col);
            col = _mm256_sub_epi32(col, _mm256_and_si256(cx, ow_v));
            row = _mm256_sub_epi32(_mm256_add_epi32(row, row_step), cx);
            let cy = _mm256_cmpgt_epi32(row, last_row);
            row = _mm256_sub_epi32(row, _mm256_and_si256(cy, oh_v));
            first = _mm256_add_epi32(first, step);
            first = _mm256_add_epi32(first, _mm256_and_si256(cx, col_carry));
            first = _mm256_add_epi32(first, _mm256_and_si256(cy, row_carry));
        }
    }

    /// Eight taps per step: eight offsets and eight masks loaded, one
    /// `vpgatherdd` from the plane, one AND, one store; a row's last
    /// `at.len() % 8` taps run the scalar lane's loop.
    ///
    /// # Safety
    ///
    /// Requires AVX2+FMA — the dispatcher checked `avx2_available()`
    /// first. The safe checks of `im2col` gave `img` whole `hw`-planes,
    /// `keep` the length of `at` and `cols` one `at.len()` row per plane,
    /// so every load and store below is inside its slice; its caller
    /// proved every `at[i] < hw <= i32::MAX`, so each gathered index is a
    /// non-negative `i32` inside its plane.
    #[target_feature(enable = "avx2", enable = "fma")]
    pub unsafe fn im2col(
        img: &[f32],
        hw: usize,
        at: &[u32],
        keep: &[u32],
        cols: &mut [MaybeUninit<f32>],
    ) {
        let taps = at.len();
        let whole = taps - taps % 8;
        for (plane, row) in img.chunks_exact(hw).zip(cols.chunks_exact_mut(taps)) {
            let (pp, rp) = (plane.as_ptr() as *const i32, row.as_mut_ptr() as *mut i32);
            for i in (0..whole).step_by(8) {
                let idx = _mm256_loadu_si256(at.as_ptr().add(i) as *const __m256i);
                let on = _mm256_loadu_si256(keep.as_ptr().add(i) as *const __m256i);
                let v = _mm256_i32gather_epi32::<4>(pp, idx);
                _mm256_storeu_si256(rp.add(i) as *mut __m256i, _mm256_and_si256(v, on));
            }
            for i in whole..taps {
                row[i].write(f32::from_bits(plane[at[i] as usize].to_bits() & keep[i]));
            }
        }
    }

    /// # Safety
    ///
    /// Requires AVX2+FMA — every call path reaches here through a
    /// dispatcher that checked `avx2_available()` first. Pointer arithmetic
    /// stays within the slice extents checked by the safe wrappers.
    #[target_feature(enable = "avx2", enable = "fma")]
    pub unsafe fn matmul_block(lhs: &Lhs, b: &[f32], c: &mut [f32], k: usize, n: usize) {
        let rows = c.len() / n;
        if lhs.has_zero(rows, k) {
            return match *lhs {
                Lhs::RowMajor(a, stride) => list_rows(a, stride, b, c, k, n),
                Lhs::ColMajor(a, stride) => {
                    // The list kernel compacts `A` rows at stride one, so a
                    // column-major `A` is transposed once, into the arena.
                    let at = super::transposed_scratch(a, stride, k, rows);
                    list_rows(&at, k, b, c, k, n);
                    crate::scratch::recycle(at);
                }
            };
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
    ///
    /// # Safety
    ///
    /// Requires AVX2+FMA — every call path reaches here through a
    /// dispatcher that checked `avx2_available()` first; `8 - lanes` is in
    /// `0..=7`, so the 8-element load stays inside the 16-element table.
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
    ///
    /// # Safety
    ///
    /// Requires AVX2+FMA — every call path reaches here through a
    /// dispatcher that checked `avx2_available()` first. `crows` is `R`
    /// rows of `n`, `b` is `[k, n]` and `lhs` covers rows `i0..i0 + R` by
    /// the asserts of the safe `matmul_block`; each `dense_cols` call is
    /// handed columns `j..` that end at or before `n`.
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
    ///
    /// # Safety
    ///
    /// Requires AVX2+FMA (see `dense_tile`, the only caller). `bp`
    /// and `cp` point at the tile's first column inside `[k, n]` / `[R, n]`
    /// buffers; the tile spans `8 * V` columns of which the caller promises
    /// all (or, with `PARTIAL`, the lanes of `last` in the final vector) lie
    /// before column `n`, so every unmasked lane touched is in bounds. `lhs`
    /// covers rows `i0..i0 + R` over `p < k` (the asserts of the safe
    /// `matmul_block`), which is every element `walk_from`'s strides reach.
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
    ///
    /// # Safety
    ///
    /// Requires AVX2+FMA; the caller guarantees the eight (or the
    /// masked-on) elements at `p` are readable.
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
    ///
    /// # Safety
    ///
    /// Requires AVX2+FMA; the caller guarantees the eight (or the
    /// masked-on) elements at `p` are writable.
    #[inline]
    #[target_feature(enable = "avx2", enable = "fma")]
    unsafe fn store<const PARTIAL: bool>(p: *mut f32, is_last: bool, mask: __m256i, v: __m256) {
        if PARTIAL && is_last {
            _mm256_maskstore_ps(p, mask, v)
        } else {
            _mm256_storeu_ps(p, v)
        }
    }

    /// The list kernel over a row-major `A` (row `i` at `a[i * stride..]`)
    /// that holds zeros: per C row and per `k`-chunk, in ascending order,
    /// compacts the `A` row's chunk and accumulates the C row over it.
    ///
    /// # Safety
    ///
    /// Requires AVX2+FMA (see `matmul_block`, the only caller, which also
    /// asserted `b` is `[k, n]`); the `A` rows are sliced, so checked.
    #[target_feature(enable = "avx2", enable = "fma")]
    unsafe fn list_rows(a: &[f32], stride: usize, b: &[f32], c: &mut [f32], k: usize, n: usize) {
        let mut list = NonZeros::new();
        for (i, crow) in c.chunks_exact_mut(n).enumerate() {
            for p0 in (0..k).step_by(LIST_CHUNK) {
                let len = (k - p0).min(LIST_CHUNK);
                list.compact(&a[i * stride + p0..][..len]);
                list_row(&list, &b[p0 * n..(p0 + len) * n], crow, n);
            }
        }
    }

    /// One C row over one `k`-chunk of an `A` that holds zeros, in panels
    /// of up to 64 columns (the row's last vector masked): few passes over
    /// the list, because each ends in a loop exit no predictor can learn.
    /// `b` is the chunk's `[len, n]` rows of `B`.
    ///
    /// # Safety
    ///
    /// Requires AVX2+FMA — every call path reaches here through a
    /// dispatcher that checked `avx2_available()` first. `crow` is `n` long
    /// and every `at[t]` indexes a whole `n`-length row of `b` (`compact`
    /// only emits `t < len`); a panel starts at column `j < n`, spans
    /// `width <= n - j` columns, and `lane_mask` switches off the lanes of
    /// its last vector past `width`.
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
    ///
    /// # Safety
    ///
    /// Requires AVX2+FMA (see `list_row`, the only caller). `cp`
    /// points at the panel's first column in the C row and `bp` at the same
    /// column of the chunk's first `B` row; `at[t] * n` steps to a whole row
    /// of the chunk, and of the panel's `8 * V` columns only the lanes `last`
    /// keeps in the final vector may lie at or past column `n`.
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

    /// Every seventh element, from `phase` on, becomes a NaN, ±inf or `-0.0`.
    fn sprinkle(v: &mut [f32], phase: usize, neg_zero: bool) {
        let awkward = [f32::NAN, f32::INFINITY, f32::NEG_INFINITY, -0.0];
        for (i, x) in v.iter_mut().enumerate().skip(phase).step_by(7) {
            *x = awkward[i % (3 + neg_zero as usize)];
        }
    }

    /// The ISA lane against the scalar one: every row
    /// remainder of the register tile (rows 1..=11) against column counts
    /// on and around whole vectors, `k` from none to past one `LIST_CHUNK`
    /// (conv2's 144 and the 8-lane compaction's edges among them), both
    /// `A` layouts (column-major also at a stride past its rows), `A`
    /// without a zero (the tiles) and about half zero (the list kernel),
    /// non-finite values in both operands, a pre-filled `C`.
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
                for k in [0usize, 1, 7, 8, 9, 10, 15, 16, 17, 144, 255, 256, 257] {
                    let seed = (m * 1000 + n * 5 + k) as u64;
                    let (mut a, mut b) = (filled((m + 3) * k, seed), filled(k * n, seed ^ 5));
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
                        let wide = Lhs::ColMajor(&a, m + 3);
                        for lhs in [Lhs::RowMajor(&a, k), Lhs::ColMajor(&a, m), wide] {
                            let run = |kernel: SimdKernel| {
                                let _g = backend(kernel);
                                let mut c = c0.clone();
                                matmul_block(lhs, &b, &mut c, k, n);
                                bits(&c)
                            };
                            let want = run(SimdKernel::Scalar);
                            let shape = format!("{m}x{k}x{n} sparse={sparse}");
                            assert_eq!(want, run(SimdKernel::Auto), "isa {shape}");
                        }
                    }
                }
            }
        }
    }

    #[cfg(target_arch = "x86_64")]
    #[test]
    fn compaction_lane_table_lists_set_lanes_ascending() {
        for (mask, entry) in avx2::LANES.iter().enumerate() {
            let set: Vec<u8> = (0..8).filter(|&l| mask >> l & 1 == 1).collect();
            assert_eq!(entry[..set.len()], set[..], "mask {mask:08b}");
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
            // The bit-delta roundtrip is exact by construction.
            let mut bits = vec![0u32; len];
            delta_bits_into(&mut bits, &w, &r);
            let mut back = vec![0.0f32; len];
            apply_delta_bits_into(&mut back, &bits, &r);
            let as_bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<u32>>();
            assert_eq!(as_bits(&w), as_bits(&back));
        }
    }

    #[cfg(target_arch = "x86_64")]
    #[test]
    fn total_order_key_ranks_like_total_cmp_and_inverts() {
        use avx2::total_order_key;
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
