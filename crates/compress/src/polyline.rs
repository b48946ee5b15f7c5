//! The Encoded Polyline wire format.
//!
//! Per value: round to `10^precision`, zig-zag to a non-negative integer,
//! split into little-endian 5-bit chunks, OR continuation bit `0x20` on all
//! but the last chunk, add 63 → printable ASCII (`?`..`~`). Delta mode
//! encodes the difference between consecutive *rounded* integers, so the
//! reconstruction error never accumulates. Differences wrap in `i64` on both
//! sides, so every finite input encodes and decodes in every build profile.
//!
//! ## The definition and the transfer
//!
//! [`encode_stream`] and [`decode_stream`] are the format's definition: one
//! value at a time, [`quantize`] + [`encode_int`] on the way out,
//! [`decode_int`] + [`dequantize`] on the way back. No run calls them — a
//! simulated transfer needs only what the receiver would decode and how
//! many bytes it took, which [`roundtrip_stream`] computes without the
//! stream in between:
//!
//! * **Roundtrip.** `encode_int` / `decode_int` are inverse on all of `i64`
//!   and the decoder's wrapping sum undoes the encoder's wrapping
//!   difference, so every value of an honest stream decodes to
//!   `dequantize(quantize(v))` and occupies as many bytes as its
//!   (difference's) zig-zag has 5-bit chunks — neither needs the bytes
//!   (proptests `honest_polyline_streams_decode_to_the_lattice` and
//!   `roundtrip_equals_decode_of_encode`).
//!
//! `roundtrip_stream` follows the lane contract of [`fedat_tensor::simd`]:
//! the active [`SimdKernel`](fedat_tensor::simd::SimdKernel) picks one of
//! two lanes that return the same bits and the same byte count.
//!
//! | lane | roundtrip |
//! |---|---|
//! | `Scalar` | `decode_stream(encode_stream(..))` — the definition itself |
//! | `Auto` (AVX2 + LZCNT) | per 512-value block: a round pass as `cvtps_pd` · `mul_pd` · `cvttpd_epi32`, a chunk-count pass, a divide pass |
//!
//! The AVX2 lane detects its features itself (`simd`'s own AVX2 lanes ask
//! for AVX2 + FMA); a host without them takes the scalar lane.
//!
//! Why the block lane agrees with the definition bit for bit:
//!
//! * **Exact product.** An `f32` carries 24 significant bits and `10^p`
//!   (`p ≤ 7`) at most 24, so `v as f64 * 10^p` is exact in `f64` — scalar
//!   and vector multiplies have nothing to round, let alone round twice.
//! * **Rounding.** `f64::round` is half-away-from-zero. For `|x| < 2^31`,
//!   `trunc(x + copysign(0.5 − 2⁻⁵⁴, x))` is the same integer: the bias is
//!   the largest double below ½, so a fraction below ½ can never be carried
//!   to the next integer by the add's own rounding, while a fraction of
//!   exactly ½ lands within 2⁻⁵⁴ of the next integer and rounds onto it.
//!   A block holding a value outside that range (or a non-finite one) goes
//!   through the reference loop itself.
//! * **Division.** Both sides divide by `10^p` in `f64` and narrow to `f32`
//!   — multiplying by `10⁻ᵖ` would round differently.
//!
//! The stream is deliberately not chunked: decode cannot split a stream
//! without a chunk index on the wire.

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
    let mut result: u64 = 0;
    let mut shift = 0u32;
    for (i, &b) in bytes.iter().enumerate() {
        let chunk = b.checked_sub(63)? as u64;
        result |= (chunk & 0x1F) << shift;
        if chunk & 0x20 == 0 {
            // Undo the zig-zag on the unsigned value, so bit 63 is data and
            // not a sign to smear.
            return Some(((result >> 1) as i64 ^ -((result & 1) as i64), i + 1));
        }
        shift += 5;
        if shift > 63 {
            return None; // overflow: corrupt stream
        }
    }
    None // ran out of bytes mid-value
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
    // Typical encoded weights need 2-3 bytes each at precision 4.
    let mut out = Vec::with_capacity(values.len() * 3);
    let mut prev = 0i64;
    for &v in values {
        assert!(v.is_finite(), "cannot polyline-encode non-finite value {v}");
        let q = quantize(v, precision);
        let sent = if delta {
            q.wrapping_sub(std::mem::replace(&mut prev, q))
        } else {
            q
        };
        encode_int(sent, &mut out);
    }
    out
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
    (cursor == bytes.len()).then_some(out) // otherwise trailing garbage
}

/// What a receiver would decode from `encode_stream(values, ..)`, written
/// over `values`; returns that stream's length. The simulator's transfers
/// need only these two — nobody reads the bytes — so the AVX2 lane never
/// builds them: per 512-value block, a round pass, a sum of per-value chunk
/// counts, and [`dequantize`] straight from the rounded integers. The
/// `Scalar` lane is the literal `decode_stream(encode_stream)`.
///
/// # Panics
/// As [`encode_stream`]. On a non-finite value the AVX2 lane has already
/// overwritten the blocks before it.
pub fn roundtrip_stream(values: &mut [f32], precision: u8, delta: bool) -> usize {
    assert!(precision <= MAX_PRECISION, "precision {precision} too high");
    #[cfg(target_arch = "x86_64")]
    if x86::selected() {
        // SAFETY: `x86::selected()` holds only where every target feature
        // `x86::roundtrip` is compiled with was detected.
        return unsafe { x86::roundtrip(values, precision, delta) };
    }
    let bytes = encode_stream(values, precision, delta);
    let decoded = decode_stream(&bytes, values.len(), precision, delta)
        .expect("an encoder's own stream decodes");
    values.copy_from_slice(&decoded);
    bytes.len()
}

#[cfg(target_arch = "x86_64")]
mod x86 {
    //! The AVX2 lane of [`super::roundtrip_stream`]: the round pass in
    //! intrinsics, the count and divide passes compiled at AVX2 (and
    //! `chunk_count` as `lzcnt`). No FMA is enabled here, so no
    //! multiply-add in this module can fuse.

    use super::{dequantize, quantize};
    use fedat_tensor::simd::{simd_kernel, SimdKernel};
    use std::arch::x86_64::*;

    /// Values rounded per pass; the `i32` block (2 KiB) stays in L1.
    const BLOCK: usize = 512;
    /// The largest double below ½ (½ − 2⁻⁵⁴).
    pub(super) const ROUND_BIAS: f64 = f64::from_bits(0x3FDF_FFFF_FFFF_FFFF);
    /// Scaled values strictly inside `±I32_LIMIT` round to an `i32`.
    const I32_LIMIT: f64 = i32::MAX as f64;

    /// The zig-zag map of [`encode_int`](super::encode_int), branch-free.
    #[inline(always)]
    fn zigzag_of(d: i64) -> u64 {
        ((d << 1) ^ (d >> 63)) as u64
    }

    /// Bytes [`encode_int`](super::encode_int) emits for a zig-zagged value:
    /// ⌈significant bits / 5⌉, at least one.
    #[inline(always)]
    fn chunk_count(zz: u64) -> u32 {
        (68 - (zz | 1).leading_zeros()) / 5
    }

    /// `encode_stream` then `decode_stream` of one block without the bytes
    /// in between (`polyline`'s module docs, "Roundtrip"): every value comes
    /// back as `dequantize(quantize(v))` and costs [`chunk_count`] bytes of
    /// its (difference's) zig-zag. `prev` is the last rounded value, so the
    /// block loop can hand a single block over and carry on.
    fn roundtrip_reference(
        values: &mut [f32],
        precision: u8,
        delta: bool,
        prev: &mut i64,
    ) -> usize {
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

    /// The round pass of a tail shorter than a vector: `q[i] =
    /// round(values[i] · scale)`, or `false` when some value is non-finite
    /// or rounds outside `i32` (the contents of `q` are then unspecified).
    #[inline(always)]
    fn quantize_tail(values: &[f32], scale: f64, q: &mut [i32]) -> bool {
        let mut in_range = true;
        for (q, &v) in q.iter_mut().zip(values) {
            let x = v as f64 * scale;
            in_range &= x.abs() < I32_LIMIT; // false for NaN
            *q = (x + ROUND_BIAS.copysign(x)) as i32;
        }
        in_range
    }

    /// Whether this lane runs: `SimdKernel::Auto` on a host with AVX2 and
    /// LZCNT.
    pub fn selected() -> bool {
        static AVAILABLE: std::sync::OnceLock<bool> = std::sync::OnceLock::new();
        simd_kernel() == SimdKernel::Auto
            && *AVAILABLE.get_or_init(|| {
                std::arch::is_x86_feature_detected!("avx2")
                    && std::arch::is_x86_feature_detected!("lzcnt")
            })
    }

    /// The AVX2 lane of [`super::roundtrip_stream`], block by block.
    ///
    /// # Safety
    ///
    /// Requires AVX2 and LZCNT: call it only once [`selected`] returned
    /// `true`, as `super::roundtrip_stream` does.
    #[target_feature(enable = "avx2,lzcnt")]
    pub fn roundtrip(values: &mut [f32], precision: u8, delta: bool) -> usize {
        let scale = 10f64.powi(precision as i32);
        let mut rounded = [0i32; BLOCK];
        let mut prev = 0i64;
        let mut bytes = 0usize;
        for block in values.chunks_mut(BLOCK) {
            let rounded = &mut rounded[..block.len()];
            if !quantize_block(block, scale, rounded) {
                // The reference names the first non-finite value in its panic
                // and saturates past `i32` the way `as i64` does.
                bytes += roundtrip_reference(block, precision, delta, &mut prev);
                continue;
            }
            // Only a block's first difference can leave 33 bits: `prev` may be
            // anything the reference loop left behind.
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

    /// [`quantize_tail`], four values per step: `cvtps_pd`, the exact
    /// multiply, the biased add and `cvttpd_epi32`; the range check is one
    /// compare mask ANDed across the block.
    ///
    /// # Safety
    ///
    /// Requires AVX2: its one caller is [`roundtrip`], which runs only once
    /// [`selected`] returned `true`.
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
        (_mm256_movemask_pd(in_range) == 0xF) & quantize_tail(tail, scale, q_tail)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fedat_tensor::ctx::{self, KernelCtx};
    use fedat_tensor::simd::SimdKernel;

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

    /// The two `SimdKernel` values, one per `roundtrip_stream` lane,
    /// scoped to the calling thread.
    fn each_lane(mut f: impl FnMut(&str)) {
        for (name, simd) in [("scalar", SimdKernel::Scalar), ("auto", SimdKernel::Auto)] {
            let _g = ctx::install(KernelCtx {
                simd,
                ..ctx::snapshot()
            });
            f(name);
        }
    }

    /// Saturated neighbours (`-3e38`, `3e38` round to `i64::MIN`/`MAX`) are
    /// finite input: the difference wraps, in debug builds too, and the
    /// decoder wraps back — in the stream and in every roundtrip lane.
    #[test]
    fn extreme_finite_values_encode_and_wrap_back() {
        let values = [-3e38, 3e38, 0.25, -0.5, 1.0];
        let enc = encode_stream(&values, 4, true);
        let (lo, hi) = (dequantize(i64::MIN, 4), dequantize(i64::MAX, 4));
        let want = [lo, hi, 0.25, -0.5, 1.0];
        assert_eq!(decode_stream(&enc, 5, 4, true).unwrap(), want);
        each_lane(|lane| {
            let mut got = values;
            assert_eq!(roundtrip_stream(&mut got, 4, true), enc.len(), "{lane}");
            assert_eq!(got, want, "{lane}");
        });
    }

    /// In a block a roundtrip lane hands to the reference loop, the panic
    /// still names the first non-finite value, as the encoder's does.
    #[test]
    fn panic_names_the_first_non_finite_value_in_every_lane() {
        let mut values = vec![0.5f32; 700];
        values[600] = f32::NEG_INFINITY;
        values[650] = f32::NAN;
        let message = |err: Box<dyn std::any::Any + Send>| {
            err.downcast_ref::<String>()
                .expect("formatted panic")
                .clone()
        };
        let err = std::panic::catch_unwind(|| encode_stream(&values, 4, true)).unwrap_err();
        assert!(message(err).ends_with("non-finite value -inf"));
        each_lane(|lane| {
            let err = std::panic::catch_unwind(|| roundtrip_stream(&mut values.clone(), 4, true))
                .unwrap_err();
            let msg = message(err);
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

    #[cfg(target_arch = "x86_64")]
    #[test]
    fn round_bias_is_the_double_below_one_half() {
        use x86::ROUND_BIAS;
        assert_eq!(ROUND_BIAS, 0.5 - 2f64.powi(-54));
        assert!(ROUND_BIAS < 0.5 && ROUND_BIAS + 2f64.powi(-54) == 0.5);
    }
}
