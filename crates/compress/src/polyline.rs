//! The Encoded Polyline wire format.
//!
//! Per value: round to `10^precision`, zig-zag to a non-negative integer,
//! split into little-endian 5-bit chunks, OR continuation bit `0x20` on all
//! but the last chunk, add 63 → printable ASCII (`?`..`~`). Delta mode
//! encodes the difference between consecutive *rounded* integers, so the
//! reconstruction error never accumulates. Differences wrap in `i64` on both
//! sides, so every finite input encodes and decodes in every build profile.
//!
//! ## Lanes
//!
//! [`encode_stream`] and [`decode_stream`] follow the lane contract of
//! [`fedat_tensor::simd`]: the active [`SimdKernel`] picks one of three
//! lanes that emit the same bytes and decode to the same bits (proptest
//! `polyline_lanes_agree_bytewise`).
//!
//! | lane | encode | decode |
//! |---|---|---|
//! | `Scalar` | [`quantize`] + [`encode_int`] per value — the reference | [`decode_int`] + [`dequantize`] per value — the reference |
//! | `Portable` | blocks: round pass, SWAR chunk spread, one 8-byte store per value | the reference (the intrinsic-free window decoders prototyped for this kernel lost to its byte loop) |
//! | `Auto` (AVX2 + BMI) | blocks: vector round pass, `lzcnt`/`pdep`/`bzhi`, one 8-byte store per value | 32-byte terminator bitmaps, eight (or four) values per window by `tzcnt`/`pext`, vector divide pass |
//!
//! [`roundtrip_stream`] — what a simulated transfer calls, since nobody
//! reads the bytes — takes the same lanes: `Scalar` is literally
//! `decode_stream(encode_stream(..))`; the other two share the block
//! encoder's round pass, sum each value's chunk count and divide the rounded
//! integers back, without a stream in between (proptest
//! `roundtrip_equals_decode_of_encode`).
//!
//! The AVX2 + BMI lane needs AVX2, BMI1, BMI2 and LZCNT and detects them
//! itself (`simd`'s own AVX2 lanes only ask for AVX2 + FMA); a host without
//! them takes the portable lane. `pdep`/`pext` are microcoded on AMD Zen 1
//! and Zen 2 (≈ 18 cycles each): the lane is still correct there, but those
//! hosts are better served by `SimdKernel::Portable`.
//!
//! Why the fast lanes agree with the reference bit for bit:
//!
//! * **Exact product.** An `f32` carries 24 significant bits and `10^p`
//!   (`p ≤ 7`) at most 24, so `v as f64 * 10^p` is exact in `f64` — scalar
//!   and vector multiplies have nothing to round, let alone round twice.
//! * **Rounding.** `f64::round` is half-away-from-zero. For `|x| < 2^31`,
//!   `trunc(x + copysign(0.5 − 2⁻⁵⁴, x))` is the same integer: the bias is
//!   the largest double below ½, so a fraction below ½ can never be carried
//!   to the next integer by the add's own rounding, while a fraction of
//!   exactly ½ lands within 2⁻⁵⁴ of the next integer and rounds onto it.
//!   A block holding a value outside that range (or a non-finite one) is
//!   encoded by the reference loop itself.
//! * **Chunks.** Spreading 5-bit groups to bytes, OR-ing `0x20` under a
//!   length mask and adding `0x3F` to every byte is the chunk loop unrolled;
//!   no byte can carry into its neighbour (`0x3F + 0x3F < 0x100`).
//! * **Division.** Decode divides by `10^p` in `f64` and narrows to `f32`
//!   in every lane — multiplying by `10⁻ᵖ` would round differently.
//! * **Accept / reject.** Any byte below 63 makes the reference return
//!   `None` — it is either reached inside a value or left over as trailing
//!   garbage — so the window decoder may reject on sight. A window holding
//!   eight continuation bytes in a row (a value longer than eight chunks) or
//!   fewer than four values, and the last 40 bytes or 8 values of a stream,
//!   go through [`decode_int`]'s own chunk loop one value at a time.
//!
//! * **Roundtrip.** `encode_int` / `decode_int` are inverse on all of `i64`
//!   and the decoder's wrapping sum undoes the encoder's wrapping
//!   difference, so every value of an honest stream decodes to
//!   `dequantize(quantize(v))` and occupies as many bytes as its
//!   (difference's) zig-zag has 5-bit chunks — neither needs the bytes.
//!
//! The kernel is deliberately *not* sharded on the kernel pool: decode
//! cannot split a stream without a chunk index on the wire, and encode at
//! ≥ 1 GB/s spends ≈ 90 µs on the largest benchmarked model — below the
//! fork-join payoff.

use fedat_tensor::simd::{self, SimdKernel};

/// Maximum supported decimal precision. `10^7` keeps every rounded weight
/// comfortably inside `i64` even for badly-scaled models.
pub const MAX_PRECISION: u8 = 7;

/// Encodes one signed integer into polyline ASCII chunks.
pub fn encode_int(mut value: i64, out: &mut Vec<u8>) {
    // Zig-zag: left-shift one bit, invert when negative.
    value = if value < 0 { !(value << 1) } else { value << 1 };
    let mut v = value as u64;
    while v >= 0x20 {
        out.push((0x20 | (v & 0x1F)) as u8 + 63);
        v >>= 5;
    }
    out.push(v as u8 + 63);
}

/// Decodes one signed integer; returns `(value, bytes_consumed)` or `None`
/// on truncated/corrupt input.
pub fn decode_int(bytes: &[u8]) -> Option<(i64, usize)> {
    decode_zigzag(bytes).map(|(r, used)| (unzigzag(r), used))
}

/// The chunk loop of [`decode_int`]: the value still zig-zagged.
fn decode_zigzag(bytes: &[u8]) -> Option<(u64, usize)> {
    let mut result: u64 = 0;
    let mut shift = 0u32;
    for (i, &b) in bytes.iter().enumerate() {
        let chunk = b.checked_sub(63)? as u64;
        result |= (chunk & 0x1F) << shift;
        if chunk & 0x20 == 0 {
            return Some((result, i + 1));
        }
        shift += 5;
        if shift > 63 {
            return None; // overflow: corrupt stream
        }
    }
    None // ran out of bytes mid-value
}

/// Inverse of the zig-zag map, on the unsigned value so bit 63 is data and
/// not a sign to smear.
#[inline(always)]
fn unzigzag(r: u64) -> i64 {
    (r >> 1) as i64 ^ -((r & 1) as i64)
}

/// The zig-zag map of [`encode_int`], branch-free.
#[inline(always)]
fn zigzag_of(d: i64) -> u64 {
    ((d << 1) ^ (d >> 63)) as u64
}

/// Bytes [`encode_int`] emits for a zig-zagged value: ⌈significant bits / 5⌉,
/// at least one.
#[inline(always)]
fn chunk_count(zz: u64) -> u32 {
    (68 - (zz | 1).leading_zeros()) / 5
}

/// Rounds a float at `precision` decimal places to its integer lattice.
#[inline]
pub fn quantize(value: f32, precision: u8) -> i64 {
    let scale = 10f64.powi(precision as i32);
    (value as f64 * scale).round() as i64
}

/// Inverse of [`quantize`].
#[inline]
pub fn dequantize(value: i64, precision: u8) -> f32 {
    let scale = 10f64.powi(precision as i32);
    (value as f64 / scale) as f32
}

enum Lane {
    Scalar,
    Portable,
    #[cfg(target_arch = "x86_64")]
    Avx2Bmi,
}

fn lane() -> Lane {
    match simd::simd_kernel() {
        SimdKernel::Scalar => Lane::Scalar,
        #[cfg(target_arch = "x86_64")]
        SimdKernel::Auto if x86::available() => Lane::Avx2Bmi,
        SimdKernel::Auto | SimdKernel::Portable => Lane::Portable,
    }
}

/// Encodes a float stream at the given precision.
///
/// `delta = true` reproduces the original polyline algorithm (differences
/// between consecutive rounded values); `delta = false` encodes each value
/// independently.
///
/// # Panics
/// Panics if `precision > MAX_PRECISION` or any value is non-finite.
pub fn encode_stream(values: &[f32], precision: u8, delta: bool) -> Vec<u8> {
    assert!(precision <= MAX_PRECISION, "precision {precision} too high");
    match lane() {
        Lane::Scalar => {
            // Typical encoded weights need 2-3 bytes each at precision 4.
            let mut out = Vec::with_capacity(values.len() * 3);
            encode_reference(values, precision, delta, &mut 0, &mut out);
            out
        }
        Lane::Portable => encode_blocks(values, precision, delta, quantize_block, spread_swar),
        #[cfg(target_arch = "x86_64")]
        // SAFETY: `lane()` returns `Avx2Bmi` only after `x86::available()`
        // detected every target feature `x86::encode` is compiled with.
        Lane::Avx2Bmi => unsafe { x86::encode(values, precision, delta) },
    }
}

/// Decodes a stream produced by [`encode_stream`]. Returns `None` on
/// corrupt input or if the stream does not hold exactly `count` values.
pub fn decode_stream(bytes: &[u8], count: usize, precision: u8, delta: bool) -> Option<Vec<f32>> {
    // Every value occupies at least one byte, so a larger `count` cannot be
    // honest — and the output allocation stays bounded by the payload
    // whatever a header claims.
    if count > bytes.len() {
        return None;
    }
    match lane() {
        Lane::Scalar | Lane::Portable => decode_reference(bytes, count, precision, delta),
        #[cfg(target_arch = "x86_64")]
        // SAFETY: `lane()` returns `Avx2Bmi` only after `x86::available()`
        // detected every target feature `x86::decode` is compiled with.
        Lane::Avx2Bmi => unsafe { x86::decode(bytes, count, precision, delta) },
    }
}

/// What a receiver would decode from `encode_stream(values, ..)`, written
/// over `values`; returns that stream's length. The simulator's transfers
/// need only these two — nobody reads the bytes — so the fast lanes never
/// build them: per 512-value block, the encoder's round pass, a sum of
/// per-value chunk counts, and [`dequantize`] straight from the rounded
/// integers. The `Scalar` lane is the literal `decode_stream(encode_stream)`.
///
/// # Panics
/// As [`encode_stream`]. On a non-finite value the fast lanes have already
/// overwritten the blocks before it.
pub fn roundtrip_stream(values: &mut [f32], precision: u8, delta: bool) -> usize {
    assert!(precision <= MAX_PRECISION, "precision {precision} too high");
    match lane() {
        Lane::Scalar => {
            let bytes = encode_stream(values, precision, delta);
            let decoded = decode_stream(&bytes, values.len(), precision, delta)
                .expect("an encoder's own stream decodes");
            values.copy_from_slice(&decoded);
            bytes.len()
        }
        Lane::Portable => roundtrip_blocks(values, precision, delta, quantize_block),
        #[cfg(target_arch = "x86_64")]
        // SAFETY: `lane()` returns `Avx2Bmi` only after `x86::available()`
        // detected every target feature `x86::roundtrip` is compiled with.
        Lane::Avx2Bmi => unsafe { x86::roundtrip(values, precision, delta) },
    }
}

/// The reference encoder, one value at a time. `prev` is the last rounded
/// value (delta mode only), so a block kernel can hand a single block over
/// and carry on.
fn encode_reference(values: &[f32], precision: u8, delta: bool, prev: &mut i64, out: &mut Vec<u8>) {
    for &v in values {
        assert!(v.is_finite(), "cannot polyline-encode non-finite value {v}");
        let q = quantize(v, precision);
        if delta {
            encode_int(q.wrapping_sub(*prev), out);
            *prev = q;
        } else {
            encode_int(q, out);
        }
    }
}

/// The reference decoder, one byte at a time.
fn decode_reference(bytes: &[u8], count: usize, precision: u8, delta: bool) -> Option<Vec<f32>> {
    let mut out = Vec::with_capacity(count);
    let mut cursor = 0usize;
    let mut prev = 0i64;
    for _ in 0..count {
        let (v, used) = decode_int(&bytes[cursor..])?;
        cursor += used;
        let q = if delta {
            prev = prev.wrapping_add(v);
            prev
        } else {
            v
        };
        out.push(dequantize(q, precision));
    }
    if cursor == bytes.len() {
        Some(out)
    } else {
        None // trailing garbage
    }
}

/// [`encode_reference`] then [`decode_reference`] of one block without the
/// bytes in between: `encode_int` and `decode_int` are inverse on all of
/// `i64` and the decoder's wrapping sum undoes the encoder's wrapping
/// difference, so every value comes back as `dequantize(quantize(v))` and
/// costs [`chunk_count`] bytes of its (difference's) zig-zag.
fn roundtrip_reference(values: &mut [f32], precision: u8, delta: bool, prev: &mut i64) -> usize {
    let mut bytes = 0usize;
    for v in values {
        assert!(v.is_finite(), "cannot polyline-encode non-finite value {v}");
        let q = quantize(*v, precision);
        let sent = if delta {
            q.wrapping_sub(std::mem::replace(prev, q))
        } else {
            q
        };
        bytes += chunk_count(zigzag_of(sent)) as usize;
        *v = dequantize(q, precision);
    }
    bytes
}

// ----------------------------------------------------------------------
// Block kernels (portable and AVX2 + BMI lanes)
// ----------------------------------------------------------------------

/// Values rounded per pass; the `i32` block (2 KiB) stays in L1.
const BLOCK: usize = 512;
/// The most chunks one value can occupy: ⌈64 / 5⌉.
const MAX_CHUNKS: usize = 13;
/// The five payload bits of each byte.
const LOW5: u64 = 0x1F1F_1F1F_1F1F_1F1F;
/// The continuation bit of each byte.
const CONT: u64 = 0x2020_2020_2020_2020;
/// The ASCII offset (63, `?`) of each byte.
const ASCII: u64 = 0x3F3F_3F3F_3F3F_3F3F;
/// The largest double below ½ (½ − 2⁻⁵⁴).
const ROUND_BIAS: f64 = f64::from_bits(0x3FDF_FFFF_FFFF_FFFF);
/// Scaled values strictly inside `±I32_LIMIT` round to an `i32`.
const I32_LIMIT: f64 = i32::MAX as f64;

/// The portable round pass: `q[i] = round(values[i] · scale)` for the block,
/// or `false` when some value is non-finite or rounds outside `i32` (the
/// contents of `q` are then unspecified).
#[inline(always)]
fn quantize_block(values: &[f32], scale: f64, q: &mut [i32]) -> bool {
    let mut in_range = true;
    for (q, &v) in q.iter_mut().zip(values) {
        let x = v as f64 * scale;
        in_range &= x.abs() < I32_LIMIT; // false for NaN
        *q = (x + ROUND_BIAS.copysign(x)) as i32;
    }
    in_range
}

/// Moves the eight 5-bit groups of `zz`'s low 40 bits to the low five bits
/// of eight bytes — `pdep(zz, LOW5)` in three shift-and-mask steps.
#[inline(always)]
fn spread_swar(zz: u64) -> u64 {
    let x = (zz & 0xF_FFFF) | ((zz & 0xFF_FFF0_0000) << 12);
    let x = (x & 0x0000_03FF_0000_03FF) | ((x & 0x000F_FC00_000F_FC00) << 6);
    (x & 0x001F_001F_001F_001F) | ((x & 0x03E0_03E0_03E0_03E0) << 3)
}

/// The block encoder shared by the portable and AVX2 + BMI lanes; only the
/// round pass and the chunk spread differ between them. Always inlined, so
/// the other loops are compiled at the instantiating lane's ISA (where the
/// difference pass vectorises, `leading_zeros` is `lzcnt` and the length
/// mask `bzhi`).
#[inline(always)]
fn encode_blocks(
    values: &[f32],
    precision: u8,
    delta: bool,
    quantize_block: impl Fn(&[f32], f64, &mut [i32]) -> bool,
    spread: impl Fn(u64) -> u64,
) -> Vec<u8> {
    // What one block may write: its first value through the chunk loop,
    // every other value at most eight bytes further (its store is 8 wide).
    let room = |len: usize| MAX_CHUNKS + 8 * len;
    let scale = 10f64.powi(precision as i32);
    // Typical encoded weights need 2-3 bytes each at precision 4; the
    // slack keeps `reserve` below from ever reallocating such a stream.
    let mut out = Vec::with_capacity(values.len() * 3 + room(values.len().min(BLOCK)));
    let mut rounded = [0i32; BLOCK];
    let mut zigzag = [0u64; BLOCK];
    let mut prev = 0i64;
    for block in values.chunks(BLOCK) {
        let rounded = &mut rounded[..block.len()];
        if !quantize_block(block, scale, rounded) {
            // The reference names the first non-finite value in its panic
            // and saturates past `i32` the way `as i64` does.
            encode_reference(block, precision, delta, &mut prev, &mut out);
            continue;
        }
        out.reserve(room(block.len()));
        // The one difference that can need more than eight chunks is the
        // first: `prev` may be anything the reference loop left behind.
        let first = rounded[0] as i64;
        let back = if delta { prev } else { 0 };
        encode_int(first.wrapping_sub(back), &mut out);
        prev = rounded[block.len() - 1] as i64;
        // Every later value differs from an `i32` by an `i32`: |d| < 2^32,
        // its zig-zag < 2^33, seven chunks at most.
        let zigzag = &mut zigzag[..block.len() - 1];
        for (zz, pair) in zigzag.iter_mut().zip(rounded.windows(2)) {
            let d = pair[1] as i64 - if delta { pair[0] as i64 } else { 0 };
            *zz = zigzag_of(d);
        }
        let base = out.as_mut_ptr();
        let mut pos = out.len();
        for &zz in zigzag.iter() {
            let chunks = chunk_count(zz);
            let word = (spread(zz) | (CONT & ((1u64 << (8 * (chunks - 1))) - 1))) + ASCII;
            // SAFETY: `reserve` left `room(len)` bytes past the block's
            // start; the first value took ≤ MAX_CHUNKS of them and each
            // later one advances `pos` by `chunks` ≤ 7, so the 8 bytes
            // written here end inside the allocation.
            unsafe {
                base.add(pos)
                    .cast::<[u8; 8]>()
                    .write_unaligned(word.to_le_bytes())
            };
            pos += chunks as usize;
        }
        // SAFETY: `pos` is within capacity (above), and every byte below
        // it was written: each store covers the `chunks` bytes it
        // advances over.
        unsafe { out.set_len(pos) };
    }
    out
}

/// The block roundtrip shared by the portable and AVX2 + BMI lanes
/// ([`roundtrip_stream`]); only the round pass differs between them. Always
/// inlined, so the count and divide passes are compiled — and vectorised —
/// at the instantiating lane's ISA.
#[inline(always)]
fn roundtrip_blocks(
    values: &mut [f32],
    precision: u8,
    delta: bool,
    quantize_block: impl Fn(&[f32], f64, &mut [i32]) -> bool,
) -> usize {
    let scale = 10f64.powi(precision as i32);
    let mut rounded = [0i32; BLOCK];
    let mut prev = 0i64;
    let mut bytes = 0usize;
    for block in values.chunks_mut(BLOCK) {
        let rounded = &mut rounded[..block.len()];
        if !quantize_block(block, scale, rounded) {
            // Same hand-over as `encode_blocks`: the reference names the
            // first non-finite value and saturates past `i32`.
            bytes += roundtrip_reference(block, precision, delta, &mut prev);
            continue;
        }
        // As in `encode_blocks`, only a block's first difference can leave
        // 33 bits: `prev` may be anything the reference loop left behind.
        let back = if delta { prev } else { 0 };
        bytes += chunk_count(zigzag_of((rounded[0] as i64).wrapping_sub(back))) as usize;
        prev = rounded[block.len() - 1] as i64;
        // Every later value differs from an `i32` by an `i32`. With
        // `m = d` for `d ≥ 0` and `−d − 1` below, the zig-zag is `2m` or
        // `2m + 1`: one bit longer than `m` (one bit when `m = 0`), so it
        // takes a chunk, and one more for each 5 bits `m` has past 4 —
        // `chunk_count` as six compares that vectorise. `m < 2³²` comes out
        // of 32-bit lanes: the wrapped difference, inverted when `a < b`.
        let mut chunks = 0u32;
        for pair in rounded.windows(2) {
            let (a, b) = (pair[1], if delta { pair[0] } else { 0 });
            let m = (a.wrapping_sub(b) ^ -i32::from(a < b)) as u32;
            chunks += 1 + [4, 9, 14, 19, 24, 29]
                .iter()
                .map(|&bits| u32::from(m >> bits != 0))
                .sum::<u32>();
        }
        bytes += chunks as usize;
        // `dequantize` on an `i32`: the same `f64` divide, the same narrowing.
        for (v, &q) in block.iter_mut().zip(rounded.iter()) {
            *v = (q as f64 / scale) as f32;
        }
    }
    bytes
}

#[cfg(target_arch = "x86_64")]
mod x86 {
    //! The AVX2 + BMI1/BMI2 + LZCNT lane. No FMA is enabled here, so no
    //! multiply-add in this module can fuse.

    use super::{dequantize, unzigzag, ASCII, BLOCK, I32_LIMIT, LOW5, ROUND_BIAS};
    use std::arch::x86_64::*;

    pub fn available() -> bool {
        static AVAILABLE: std::sync::OnceLock<bool> = std::sync::OnceLock::new();
        *AVAILABLE.get_or_init(|| {
            std::arch::is_x86_feature_detected!("avx2")
                && std::arch::is_x86_feature_detected!("bmi1")
                && std::arch::is_x86_feature_detected!("bmi2")
                && std::arch::is_x86_feature_detected!("lzcnt")
        })
    }

    #[target_feature(enable = "avx2,bmi1,bmi2,lzcnt")]
    pub fn encode(values: &[f32], precision: u8, delta: bool) -> Vec<u8> {
        super::encode_blocks(
            values,
            precision,
            delta,
            |values, scale, q| quantize_block(values, scale, q),
            |zz| _pdep_u64(zz, LOW5),
        )
    }

    #[target_feature(enable = "avx2,bmi1,bmi2,lzcnt")]
    pub fn roundtrip(values: &mut [f32], precision: u8, delta: bool) -> usize {
        super::roundtrip_blocks(values, precision, delta, |values, scale, q| {
            quantize_block(values, scale, q)
        })
    }

    /// [`super::quantize_block`], four values per step: `cvtps_pd`, the
    /// exact multiply, the biased add and `cvttpd_epi32`; the range check is
    /// one compare mask ANDed across the block.
    #[target_feature(enable = "avx2")]
    fn quantize_block(values: &[f32], scale: f64, q: &mut [i32]) -> bool {
        let sign = _mm256_set1_pd(-0.0);
        let bias = _mm256_set1_pd(ROUND_BIAS);
        let limit = _mm256_set1_pd(I32_LIMIT);
        let scale4 = _mm256_set1_pd(scale);
        let mut in_range = _mm256_castsi256_pd(_mm256_set1_epi64x(-1));
        let (quads, tail) = values.as_chunks::<4>();
        let (q_quads, q_tail) = q.as_chunks_mut::<4>();
        for (q, v) in q_quads.iter_mut().zip(quads) {
            // SAFETY: `v` is four readable `f32`s.
            let x = _mm256_mul_pd(_mm256_cvtps_pd(unsafe { _mm_loadu_ps(v.as_ptr()) }), scale4);
            let magnitude = _mm256_andnot_pd(sign, x);
            in_range = _mm256_and_pd(in_range, _mm256_cmp_pd::<_CMP_LT_OQ>(magnitude, limit));
            let biased = _mm256_add_pd(x, _mm256_or_pd(_mm256_and_pd(x, sign), bias));
            // SAFETY: `q` is four writable `i32`s.
            unsafe { _mm_storeu_si128(q.as_mut_ptr().cast(), _mm256_cvttpd_epi32(biased)) };
        }
        (_mm256_movemask_pd(in_range) == 0xF) & super::quantize_block(tail, scale, q_tail)
    }

    /// Bytes a window step may read past `cursor`: the 32-byte window plus
    /// the 8-byte load of a value starting on its last byte.
    const WINDOW_REACH: usize = 40;

    #[target_feature(enable = "avx2,bmi1,bmi2,lzcnt")]
    pub fn decode(bytes: &[u8], count: usize, precision: u8, delta: bool) -> Option<Vec<f32>> {
        let ascii = _mm256_set1_epi8(63);
        let mut out = Vec::with_capacity(count);
        // Zig-zag values until `finish_block` turns them into lattice points.
        let mut block = [0i64; BLOCK];
        let mut filled = 0usize;
        let mut cursor = 0usize;
        let mut prev = 0i64;
        let mut left = count;
        while left > 0 {
            if filled + 8 > BLOCK {
                finish_block(&mut block[..filled], delta, &mut prev, precision, &mut out);
                filled = 0;
            }
            // How many values this step takes from a window, and the
            // bitmap of bytes that end one.
            let (take, mut ends) = if left >= 8 && bytes.len() - cursor >= WINDOW_REACH {
                // SAFETY: 32 ≤ WINDOW_REACH bytes are readable at `cursor`.
                let window = unsafe { _mm256_loadu_si256(bytes.as_ptr().add(cursor).cast()) };
                // A byte below 63 anywhere in the stream makes the
                // reference return `None` (module docs), so it may be
                // rejected before it is reached.
                let valid = _mm256_cmpeq_epi8(_mm256_max_epu8(window, ascii), window);
                if _mm256_movemask_epi8(valid) != -1 {
                    return None;
                }
                // Bit 5 of `byte − 63` (moved to bit 7 for `movemask`) is
                // the continuation flag; every clear bit ends a value.
                let chunks = _mm256_sub_epi8(window, ascii);
                let more = _mm256_movemask_epi8(_mm256_slli_epi16::<2>(chunks)) as u32;
                let ends = !more;
                // Eight continuation bytes in a row: some value here is
                // longer than the 8-byte load below.
                let run2 = more & (more >> 1);
                let run4 = run2 & (run2 >> 2);
                let long = run4 & (run4 >> 4) != 0;
                // A fixed number of values per window, so the loop below
                // unrolls and ends without a data-dependent branch.
                let take = match ends.count_ones() {
                    8.. if !long => 8,
                    4.. if !long => 4,
                    _ => 0,
                };
                (take, ends)
            } else {
                (0, 0)
            };
            if take == 0 {
                // Stream tail, a value longer than eight chunks, or a
                // window of fewer than four values: the reference decides.
                let (r, used) = super::decode_zigzag(&bytes[cursor..])?;
                block[filled] = r as i64;
                filled += 1;
                cursor += used;
                left -= 1;
                continue;
            }
            let mut taken = 0u32; // bytes of the window consumed
            for slot in &mut block[filled..filled + take] {
                let end = ends.trailing_zeros() + 1;
                // SAFETY: `taken` ≤ 31, so these 8 bytes end within
                // WINDOW_REACH of `cursor`.
                let word = u64::from_le_bytes(unsafe {
                    bytes
                        .as_ptr()
                        .add(cursor + taken as usize)
                        .cast::<[u8; 8]>()
                        .read_unaligned()
                });
                // No byte of the value is below 63, so the subtraction
                // borrows only out of bytes the mask drops.
                let kept = _bzhi_u64(LOW5, 8 * (end - taken));
                *slot = _pext_u64(word.wrapping_sub(ASCII), kept) as i64;
                ends &= ends - 1;
                taken = end;
            }
            filled += take;
            left -= take;
            cursor += taken as usize;
        }
        finish_block(&mut block[..filled], delta, &mut prev, precision, &mut out);
        (cursor == bytes.len()).then_some(out)
    }

    /// Turns a block of zig-zag values into lattice points in place (undo
    /// the zig-zag; in delta mode, the wrapping running sum from `prev`) and
    /// appends [`dequantize`] of each to `out`, four per step: `i64 → f64`
    /// by the 2⁵² + 2⁵¹ bias trick (exact for |q| < 2⁵¹, like `as f64`),
    /// then `div_pd` and `cvtpd_ps`. A block holding a larger `q` is redone
    /// by [`dequantize`] itself.
    #[target_feature(enable = "avx2")]
    fn finish_block(q: &mut [i64], delta: bool, prev: &mut i64, precision: u8, out: &mut Vec<f32>) {
        const HALF_RANGE: i64 = 1 << 51;
        const MAGIC: f64 = ((1u64 << 52) + (1 << 51)) as f64;
        if delta {
            for q in q.iter_mut() {
                *prev = prev.wrapping_add(unzigzag(*q as u64));
                *q = *prev;
            }
        } else {
            for q in q.iter_mut() {
                *q = unzigzag(*q as u64);
            }
        }
        let scale = _mm256_set1_pd(10f64.powi(precision as i32));
        let magic = _mm256_set1_pd(MAGIC);
        let half_range = _mm256_set1_epi64x(HALF_RANGE);
        let mut beyond = _mm256_setzero_si256();
        let (quads, tail) = q.as_chunks::<4>();
        out.reserve(q.len());
        let dst = out.spare_capacity_mut();
        for (i, quad) in quads.iter().enumerate() {
            // SAFETY: `quad` is four readable `i64`s.
            let v = unsafe { _mm256_loadu_si256(quad.as_ptr().cast()) };
            let shifted = _mm256_add_epi64(v, half_range);
            beyond = _mm256_or_si256(beyond, _mm256_srli_epi64::<52>(shifted));
            let x = _mm256_sub_pd(
                _mm256_castsi256_pd(_mm256_add_epi64(v, _mm256_castpd_si256(magic))),
                magic,
            );
            let narrowed = _mm256_cvtpd_ps(_mm256_div_pd(x, scale));
            // SAFETY: `4·i + 4 ≤ q.len()`, which `reserve` made available.
            unsafe { _mm_storeu_ps(dst.as_mut_ptr().add(4 * i).cast(), narrowed) };
        }
        if _mm256_testz_si256(beyond, beyond) == 0 {
            out.extend(q.iter().map(|&q| dequantize(q, precision)));
            return;
        }
        // SAFETY: the loop above initialised the first `4·quads.len()`
        // spare elements.
        unsafe { out.set_len(out.len() + 4 * quads.len()) };
        out.extend(tail.iter().map(|&q| dequantize(q, precision)));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fedat_tensor::ctx::{self, KernelCtx};

    /// The worked example from Google's polyline documentation:
    /// -179.9832104 (already rounded: -17998321) encodes to `` `~oia@ ``.
    /// We feed the rounded integer directly — the reference value has more
    /// significant digits than an `f32` carries.
    #[test]
    fn google_reference_vector() {
        let mut out = Vec::new();
        encode_int(-17_998_321, &mut out);
        assert_eq!(out, b"`~oia@");
        let (v, used) = decode_int(&out).unwrap();
        assert_eq!(used, 6);
        assert_eq!(v, -17_998_321);
    }

    /// Second reference: the polyline of points (38.5,-120.2),
    /// (40.7,-120.95), (43.252,-126.453) encodes to
    /// `_p~iF~ps|U_ulLnnqC_mqNvxq`@` in delta mode at precision 5.
    /// Checked on the rounded-integer stream for f32-precision independence.
    #[test]
    fn google_reference_polyline() {
        // Google deltas are per coordinate (lat chain and lng chain are
        // independent); the documented byte stream is the encoding of this
        // pre-differenced integer list.
        let deltas: [i64; 6] = [3_850_000, -12_020_000, 220_000, -75_000, 255_200, -550_300];
        let mut out = Vec::new();
        for &v in &deltas {
            encode_int(v, &mut out);
        }
        assert_eq!(out, b"_p~iF~ps|U_ulLnnqC_mqNvxq`@");
    }

    /// End-to-end f32 pair roundtrip at precision 5 (values chosen to be
    /// exactly representable so the byte stream is the documented one).
    #[test]
    fn f32_pair_roundtrips_through_delta_stream() {
        let enc = encode_stream(&[38.5, -120.25], 5, true);
        let dec = decode_stream(&enc, 2, 5, true).unwrap();
        assert!((dec[0] - 38.5).abs() < 1e-4);
        assert!((dec[1] + 120.25).abs() < 1e-4);
    }

    #[test]
    fn zero_encodes_to_one_byte() {
        let mut out = Vec::new();
        encode_int(0, &mut out);
        assert_eq!(out, b"?");
        assert_eq!(decode_int(&out).unwrap(), (0, 1));
    }

    #[test]
    fn int_roundtrip_extremes() {
        for v in [
            0i64,
            1,
            -1,
            31,
            -32,
            1_000_000,
            -1_000_000,
            i32::MAX as i64,
            i32::MIN as i64,
            i64::MAX,
            i64::MIN,
        ] {
            let mut out = Vec::new();
            encode_int(v, &mut out);
            let (d, used) = decode_int(&out).unwrap();
            assert_eq!(d, v);
            assert_eq!(used, out.len());
        }
    }

    #[test]
    fn output_is_printable_ascii() {
        let enc = encode_stream(&[1.5, -2.25, 0.0, 1e-4, -3.9], 5, true);
        assert!(
            enc.iter().all(|&b| (63..=126).contains(&b)),
            "non-printable byte in {enc:?}"
        );
    }

    #[test]
    fn stream_roundtrip_bounded_error() {
        let values: Vec<f32> = (0..500).map(|i| ((i as f32) * 0.7).sin() * 2.0).collect();
        for precision in 1..=6u8 {
            for delta in [false, true] {
                let enc = encode_stream(&values, precision, delta);
                let dec = decode_stream(&enc, values.len(), precision, delta).unwrap();
                // Half the lattice step plus f32 rounding slack of the
                // dequantized value.
                let tol = 0.5 * 10f32.powi(-(precision as i32)) * 1.01 + 2.0 * 4.0 * f32::EPSILON;
                for (o, d) in values.iter().zip(dec.iter()) {
                    assert!(
                        (o - d).abs() <= tol,
                        "precision {precision} delta {delta}: {o} vs {d}"
                    );
                }
            }
        }
    }

    #[test]
    fn delta_mode_error_does_not_accumulate() {
        // A long ramp is the worst case for naive delta-of-floats; the
        // rounded-integer delta must stay within one half-ULP of the lattice.
        let values: Vec<f32> = (0..10_000).map(|i| i as f32 * 1.00007).collect();
        let enc = encode_stream(&values, 3, true);
        let dec = decode_stream(&enc, values.len(), 3, true).unwrap();
        let last_err = (values[9999] - dec[9999]).abs();
        assert!(
            last_err <= 0.5e-3 * 1.5 + 1.0,
            "error accumulated: {last_err}"
        );
        // Relative check on a mid value too.
        assert!((values[5000] - dec[5000]).abs() / values[5000] < 1e-3);
    }

    #[test]
    fn higher_precision_costs_more_bytes() {
        let values: Vec<f32> = (0..200)
            .map(|i| ((i * 37 % 100) as f32 - 50.0) / 50.0)
            .collect();
        let p3 = encode_stream(&values, 3, false).len();
        let p6 = encode_stream(&values, 6, false).len();
        assert!(
            p6 > p3,
            "precision 6 ({p6} B) should exceed precision 3 ({p3} B)"
        );
    }

    #[test]
    fn decode_rejects_truncation_and_garbage() {
        let enc = encode_stream(&[1.0, 2.0, 3.0], 5, true);
        assert!(decode_stream(&enc[..enc.len() - 1], 3, 5, true).is_none());
        let mut padded = enc.clone();
        padded.push(b'?');
        assert!(decode_stream(&padded, 3, 5, true).is_none());
        assert!(
            decode_int(&[0x01]).is_none(),
            "byte below 63 must be rejected"
        );
    }

    #[test]
    #[should_panic(expected = "non-finite")]
    fn nan_rejected() {
        let _ = encode_stream(&[f32::NAN], 4, true);
    }

    /// The three `SimdKernel` values, one per lane, scoped to the calling
    /// thread.
    fn each_lane(mut f: impl FnMut(&str)) {
        for (name, simd) in [
            ("scalar", SimdKernel::Scalar),
            ("auto", SimdKernel::Auto),
            ("portable", SimdKernel::Portable),
        ] {
            let _g = ctx::install(KernelCtx {
                simd,
                ..ctx::snapshot()
            });
            f(name);
        }
    }

    /// Saturated neighbours (`-3e38`, `3e38` round to `i64::MIN`/`MAX`) are
    /// finite input: the difference wraps, in debug builds too, and the
    /// decoder wraps back.
    #[test]
    fn extreme_finite_values_encode_and_wrap_back() {
        each_lane(|lane| {
            let enc = encode_stream(&[-3e38, 3e38, 0.25, -0.5, 1.0], 4, true);
            let dec = decode_stream(&enc, 5, 4, true).expect(lane);
            let (lo, hi) = (dequantize(i64::MIN, 4), dequantize(i64::MAX, 4));
            assert_eq!(dec, [lo, hi, 0.25, -0.5, 1.0]);
        });
    }

    /// In a block the fast lanes hand to the reference loop, the panic
    /// still names the first non-finite value.
    #[test]
    fn panic_names_the_first_non_finite_value_in_every_lane() {
        each_lane(|lane| {
            let mut values = vec![0.5f32; 700];
            values[600] = f32::NEG_INFINITY;
            values[650] = f32::NAN;
            let err = std::panic::catch_unwind(|| encode_stream(&values, 4, true)).unwrap_err();
            let msg = err.downcast_ref::<String>().expect("formatted panic");
            assert!(msg.ends_with("non-finite value -inf"), "{lane}: {msg}");
        });
    }

    /// A header may claim any `count`; the decoder must answer `None`
    /// without trying to reserve it.
    #[test]
    fn absurd_counts_are_rejected_before_allocating() {
        for count in [usize::MAX, usize::MAX / 2, 1 << 40, 5] {
            assert!(decode_stream(b"????", count, 4, true).is_none());
        }
        assert_eq!(decode_stream(b"????", 4, 4, true), Some(vec![0.0; 4]));
    }

    #[test]
    fn swar_spread_matches_the_chunk_loop() {
        let mut zz = 0x9E37_79B9_7F4A_7C15u64;
        for _ in 0..10_000 {
            zz = zz.wrapping_mul(0x2545_F491_4F6C_DD1D).rotate_left(17) ^ 0x5555;
            let v = zz >> (24 + zz % 40);
            let by_loop = (0..8).fold(0u64, |acc, i| acc | ((v >> (5 * i)) & 0x1F) << (8 * i));
            assert_eq!(spread_swar(v), by_loop, "{v:#x}");
        }
    }

    #[test]
    fn round_bias_is_the_double_below_one_half() {
        assert_eq!(ROUND_BIAS, 0.5 - 2f64.powi(-54));
        assert!(ROUND_BIAS < 0.5 && ROUND_BIAS + 2f64.powi(-54) == 0.5);
    }
}
