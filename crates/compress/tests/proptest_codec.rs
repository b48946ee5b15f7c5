//! Property-based tests for the polyline wire format and every codec in
//! the [`WireCodec`] family: lossless round-trips are bitwise (including
//! `-0.0`, subnormals, `3e38`, and NaN payloads — mirroring the LEAF writer
//! tests), lossy round-trips bound max per-weight error by the configured
//! precision, arbitrary bytes never panic a decoder, every honest polyline
//! stream decodes bitwise to its rounding lattice, and every codec's
//! in-place [`WireCodec::roundtrip`] — the only entry the transport calls —
//! equals `decode(encode(..))` in every lane (`Scalar`, AVX2),
//! values bitwise and wire size exactly.

use fedat_compress::codec::{
    codec_for, CodecKind, CompressedBlob, NoCompression, PolylineCodec, WireCodec,
    BLOB_HEADER_BYTES,
};
use fedat_compress::polyline::{
    decode_int, decode_stream, dequantize, encode_int, encode_stream, quantize,
};
use fedat_compress::quantized::QuantizedCodec;
use fedat_compress::topk::{k_for, ErrorFeedback, TopKCodec};
use fedat_compress::DeltaRleCodec;
use fedat_tensor::ctx::{self, KernelCtx};
use fedat_tensor::simd::SimdKernel;
use proptest::prelude::*;

/// Fully arbitrary `f32` bit patterns: normals, subnormals, ±0, ±inf, NaNs
/// with payloads — the lossless codecs must round-trip all of them.
fn any_bits_vec(len: impl Into<prop::collection::SizeRange>) -> BoxedStrategy<Vec<f32>> {
    prop::collection::vec(any::<u32>().prop_map(f32::from_bits), len).boxed()
}

fn bits(v: &[f32]) -> Vec<u32> {
    v.iter().map(|x| x.to_bits()).collect()
}

/// The boundary specials every lossless strategy run must include at least
/// once (prepended rather than hoped-for): -0.0, a subnormal, and 3e38.
fn with_specials(mut v: Vec<f32>) -> Vec<f32> {
    v.extend_from_slice(&[-0.0, f32::MIN_POSITIVE / 4.0, 3e38, -3e38]);
    v
}

/// The reference lane, and every lane a fused roundtrip is checked in.
const REFERENCE_LANE: SimdKernel = SimdKernel::Scalar;
const ALL_LANES: [SimdKernel; 2] = [REFERENCE_LANE, SimdKernel::Auto];

fn in_lane<T>(simd: SimdKernel, f: impl FnOnce() -> T) -> T {
    let _g = ctx::install(KernelCtx {
        simd,
        ..ctx::snapshot()
    });
    f()
}

/// xorshift64* — the streams below need far more draws than a strategy
/// tuple can carry.
struct Draw(u64);

impl Draw {
    fn next(&mut self) -> u64 {
        self.0 ^= self.0 >> 12;
        self.0 ^= self.0 << 25;
        self.0 ^= self.0 >> 27;
        self.0.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }
    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }
    fn unit(&mut self) -> f64 {
        (self.next() >> 11) as f64 / (1u64 << 53) as f64
    }
    fn normal(&mut self, sigma: f64) -> f32 {
        let (u1, u2) = (self.unit().max(1e-300), self.unit());
        ((-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos() * sigma) as f32
    }
}

/// One finite weight vector per regime; every regime is built to reach a
/// different corner of the rounding lattice and of the block roundtrip.
fn polyline_values(regime: usize, len: usize, precision: u8, d: &mut Draw) -> Vec<f32> {
    // How often a regime's special value replaces a trained-like one: from
    // every block down to one block in a few, so fast blocks and
    // reference-loop blocks alternate and `prev` crosses between them.
    let one_in = [16, 512, 2048][d.below(3)];
    let scale = 10f64.powi(precision as i32);
    (0..len)
        .map(|i| match regime {
            0 => d.normal(0.1),
            1 => d.normal(50.0),
            2 => {
                // Any finite bit pattern (exponent 0xFF folded to 0x7F).
                let b = d.next() as u32;
                let v = f32::from_bits(b);
                if v.is_finite() {
                    v
                } else {
                    f32::from_bits(b ^ 0x4000_0000)
                }
            }
            3 => {
                // (k + ½)·10⁻ᵖ is an f32 exactly when it is m / 2^(p+1)
                // with m odd; its two f32 neighbours sit just off the tie.
                let width = 4 + d.below(20);
                let m = (d.below(1 << width) as i64 * 2 + 1) * [1, -1][d.below(2)];
                let tie = m as f32 / (1u32 << (precision + 1)) as f32;
                [tie, tie.next_up(), tie.next_down()][d.below(3)]
            }
            4 if d.below(one_in) == 0 => {
                let specials = [
                    0.0,
                    -0.0,
                    3e38,
                    -3e38,
                    f32::MAX,
                    f32::MIN,
                    f32::MIN_POSITIVE / 4.0,
                    -f32::MIN_POSITIVE / 4.0,
                    f32::from_bits(1),
                ];
                specials[d.below(specials.len())]
            }
            5 if d.below(one_in) == 0 => {
                // Around the i32 edge of the rounded lattice, both signs.
                let q = i32::MAX as f64 + (d.below(9) as f64 - 4.0) * 64.0;
                (q / scale) as f32 * [1.0, -1.0][d.below(2)]
            }
            // One-byte values: 32 terminators in a 32-byte window.
            6 => ((i + d.below(2)) % 3) as f32 / scale as f32,
            _ => d.normal(0.1),
        })
        .collect()
}

/// Where two lane results part ways — a failure should not print 4 097
/// values twice.
fn first_difference<T: PartialEq + std::fmt::Debug>(got: &[T], want: &[T]) -> String {
    match got.iter().zip(want).position(|(g, w)| g != w) {
        Some(i) => format!("index {i}: {:?} vs {:?}", got[i], want[i]),
        None => format!("lengths {} vs {}", got.len(), want.len()),
    }
}

/// The panic message of `f`, which must panic with a formatted one.
fn panic_message<T>(f: impl FnOnce() -> T) -> String {
    let err = std::panic::catch_unwind(std::panic::AssertUnwindSafe(f))
        .err()
        .expect("must panic");
    err.downcast_ref::<String>()
        .expect("formatted panic")
        .clone()
}

/// A fused lane that meets a non-finite value says what the encoder says:
/// the first one, by value — wherever in a block it sits.
#[test]
fn roundtrip_panics_like_encode_on_non_finite_polyline_input() {
    for lane in ALL_LANES {
        for (at, then) in [(0usize, 1usize), (511, 512), (600, 650), (1300, 1301)] {
            let mut values = vec![0.5f32; 1400];
            values[at] = f32::NEG_INFINITY;
            values[then] = f32::NAN;
            let c = PolylineCodec::new(4);
            let by_encode = in_lane(lane, || panic_message(|| c.encode(&values)));
            let by_roundtrip = in_lane(lane, || {
                panic_message(|| c.roundtrip(&mut values.clone(), None))
            });
            assert!(by_encode.ends_with("non-finite value -inf"), "{by_encode}");
            assert_eq!(
                by_roundtrip, by_encode,
                "{lane:?}, first non-finite at {at}"
            );
        }
    }
}

proptest! {
    /// The oracle of every fused lane: what `roundtrip` leaves in place and
    /// returns is `decode_with_ref(encode_with_ref(..))` and its
    /// `wire_bytes`, taken in the reference lane.
    #[test]
    fn roundtrip_equals_decode_of_encode(
        seed in any::<u64>(),
        precision in 1u8..=7,
        delta in any::<bool>(),
        len_ix in 0usize..7,
        regime in 0usize..7,
        kind_ix in 0usize..6,
        with_ref in any::<bool>(),
    ) {
        // Both sides of every 512-value block edge of the fused lanes.
        let len = [0, 1, 3, 511, 512, 513, 4097][len_ix];
        let mut d = Draw(seed | 1);
        let kind = [
            CodecKind::None,
            CodecKind::Polyline { precision, delta },
            CodecKind::DeltaRle,
            CodecKind::Quantized { bits: 8 },
            CodecKind::Quantized { bits: 4 },
            CodecKind::TopK { per_mille: [1, 50, 500, 1000][d.below(4)] },
        ][kind_ix];
        // Regime 5 leaves `i32` (the reference loop takes those blocks),
        // 4 and the specials carry `-0.0`, a subnormal and `±3e38`.
        let mut values = polyline_values(regime, len, precision, &mut d);
        if d.below(2) == 0 {
            values = with_specials(values);
        }
        if !matches!(kind, CodecKind::Polyline { .. }) && d.below(4) == 0 {
            // Only polyline refuses non-finite input.
            for v in values.iter_mut() {
                *v = f32::from_bits(d.next() as u32);
            }
        }
        // A model one local pass away, or the very same one (zero delta).
        let drift = [0.0, 0.01][d.below(2)];
        let reference: Vec<f32> = values.iter().map(|v| v + d.normal(drift)).collect();
        let reference = with_ref.then_some(reference.as_slice());

        let c = codec_for(kind);
        let (want, want_bytes) = in_lane(REFERENCE_LANE, || {
            let blob = c.encode_with_ref(&values, reference);
            (bits(&c.decode_with_ref(&blob, reference)), blob.wire_bytes())
        });
        for lane in ALL_LANES {
            let mut got = values.clone();
            let got_bytes = in_lane(lane, || c.roundtrip(&mut got, reference));
            prop_assert!(
                got_bytes == want_bytes,
                "{} charged {} B on {:?}, the blob weighs {} (regime {}, len {}, seed {})",
                c.name(), got_bytes, lane, want_bytes, regime, len, seed
            );
            let got = bits(&got);
            prop_assert!(
                got == want,
                "{} roundtrip diverged on {:?} (regime {}, len {}, ref {}, seed {}) at {}",
                c.name(), lane, regime, len, with_ref, seed, first_difference(&got, &want)
            );
        }
    }

    #[test]
    fn int_roundtrip(v in any::<i64>(), shift in 0u32..64) {
        // Every magnitude class of the full range, not only its top.
        let v = v >> shift;
        let mut out = Vec::new();
        encode_int(v, &mut out);
        let (d, used) = decode_int(&out).unwrap();
        prop_assert_eq!(d, v);
        prop_assert_eq!(used, out.len());
        prop_assert!(out.iter().all(|&b| (63..=126).contains(&b)));
    }

    /// What the tolerance tests only approximate: every honest stream —
    /// and the one whose bytes carry chunk bits above `0x20`, which the
    /// decoder ignores — decodes to exactly `dequantize(quantize(v))`.
    #[test]
    fn honest_polyline_streams_decode_to_the_lattice(
        seed in any::<u64>(),
        precision in 1u8..=7,
        delta in any::<bool>(),
        len_ix in 0usize..9,
        regime in 0usize..7,
    ) {
        // Both sides of every 512-value block edge of the fused roundtrip.
        let len = [0, 1, 7, 8, 9, 511, 512, 513, 4097][len_ix];
        let mut d = Draw(seed | 1);
        let values = polyline_values(regime, len, precision, &mut d);
        let lattice: Vec<u32> = values
            .iter()
            .map(|&v| dequantize(quantize(v, precision), precision).to_bits())
            .collect();
        let honest = encode_stream(&values, precision, delta);
        let mut raised = honest.clone();
        for b in raised.iter_mut() {
            if d.below(16) == 0 {
                *b += [64, 128][d.below(2)];
            }
        }
        for (what, bytes) in [("honest", &honest), ("raised by 64 or 128", &raised)] {
            let got = decode_stream(bytes, len, precision, delta).map(|v| bits(&v));
            let verdict = match &got {
                Some(got) if got == &lattice => continue,
                Some(got) => first_difference(got, &lattice),
                None => "rejected".into(),
            };
            prop_assert!(
                false,
                "{} stream is off the lattice (regime {}, len {}, p{}, delta {}, seed {}): {}",
                what, regime, len, precision, delta, seed, verdict
            );
        }
    }

    #[test]
    fn stream_roundtrip_error_bound(
        values in prop::collection::vec(-100.0f32..100.0, 1..200),
        precision in 1u8..=6,
        delta in any::<bool>(),
    ) {
        let enc = encode_stream(&values, precision, delta);
        let dec = decode_stream(&enc, values.len(), precision, delta).unwrap();
        let tol = 0.5 * 10f32.powi(-(precision as i32)) * 1.02
            + 100.0 * f32::EPSILON; // f64→f32 rounding slack at large magnitudes
        for (a, b) in values.iter().zip(dec.iter()) {
            prop_assert!((a - b).abs() <= tol, "{} vs {} (p{})", a, b, precision);
        }
    }

    #[test]
    fn encoding_is_deterministic(values in prop::collection::vec(-10.0f32..10.0, 1..100)) {
        let a = encode_stream(&values, 4, true);
        let b = encode_stream(&values, 4, true);
        prop_assert_eq!(a, b);
    }

    #[test]
    fn polyline_idempotent_after_first_loss(
        values in prop::collection::vec(-5.0f32..5.0, 1..100),
        precision in 1u8..=5,
    ) {
        // Encoding an already-quantized stream must be lossless: the codec's
        // loss is idempotent.
        let c = PolylineCodec::new(precision);
        let once = c.decode(&c.encode(&values));
        let twice = c.decode(&c.encode(&once));
        for (a, b) in once.iter().zip(twice.iter()) {
            prop_assert!((a - b).abs() <= f32::EPSILON * 10.0, "{} vs {}", a, b);
        }
    }

    #[test]
    fn raw_codec_is_bitwise_lossless(values in any_bits_vec(0..100)) {
        let values = with_specials(values);
        let c = NoCompression;
        let blob = c.encode(&values);
        prop_assert_eq!(blob.wire_bytes(), BLOB_HEADER_BYTES + 4 * values.len());
        prop_assert_eq!(bits(&c.decode(&blob)), bits(&values));
    }

    #[test]
    fn delta_rle_is_bitwise_lossless(values in any_bits_vec(0..300)) {
        let values = with_specials(values);
        let c = DeltaRleCodec;
        prop_assert_eq!(bits(&c.decode(&c.encode(&values))), bits(&values));
    }

    #[test]
    fn delta_rle_is_bitwise_lossless_against_reference(
        values in any_bits_vec(1..300),
        seed in any::<u32>(),
    ) {
        let values = with_specials(values);
        // A reference with its own arbitrary-ish bit patterns.
        let reference: Vec<f32> = values
            .iter()
            .enumerate()
            .map(|(i, v)| f32::from_bits(v.to_bits() ^ seed.rotate_left(i as u32)))
            .collect();
        let c = DeltaRleCodec;
        let blob = c.encode_with_ref(&values, Some(&reference));
        let back = c.decode_with_ref(&blob, Some(&reference));
        prop_assert_eq!(bits(&back), bits(&values));
    }

    #[test]
    fn quantized_error_bounded_by_width(
        values in prop::collection::vec(-2.0f32..2.0, 1..300),
        deltas in prop::collection::vec(-0.05f32..0.05, 300),
        wide in any::<bool>(),
    ) {
        let bits_cfg = if wide { 8u8 } else { 4 };
        let reference = values.clone();
        let weights: Vec<f32> = values
            .iter()
            .zip(deltas.iter())
            .map(|(v, d)| v + d)
            .collect();
        let c = QuantizedCodec::new(bits_cfg);
        let blob = c.encode_with_ref(&weights, Some(&reference));
        let back = c.decode_with_ref(&blob, Some(&reference));
        let levels = ((1u32 << bits_cfg) - 1) as f32;
        let step = (blob.aux[1] - blob.aux[0]) / levels;
        // Half a step of quantization error plus float slack from the two
        // rounded adds (delta and reconstruction).
        let tol = step * 0.51 + 1e-5;
        for (a, b) in weights.iter().zip(back.iter()) {
            prop_assert!((a - b).abs() <= tol, "{} vs {} (step {}, b{})", a, b, step, bits_cfg);
        }
    }

    #[test]
    fn topk_is_reference_except_k_exact_coords(
        reference in prop::collection::vec(-1.0f32..1.0, 10..200),
        per_mille in 1u16..=1000,
        seed in any::<u64>(),
    ) {
        let n = reference.len();
        let weights: Vec<f32> = reference
            .iter()
            .enumerate()
            .map(|(i, r)| {
                let h = (seed ^ i as u64).wrapping_mul(0x9E3779B97F4A7C15);
                r + ((h >> 40) as f32 / (1u64 << 24) as f32 - 0.5) * 0.2
            })
            .collect();
        let c = TopKCodec::new(per_mille);
        let blob = c.encode_with_ref(&weights, Some(&reference));
        let back = c.decode_with_ref(&blob, Some(&reference));
        let k = k_for(n, per_mille);
        let mut exact = 0usize;
        for i in 0..n {
            if back[i].to_bits() == weights[i].to_bits() {
                exact += 1;
            } else {
                // Unselected coordinates decode to the reference, bitwise.
                prop_assert_eq!(back[i].to_bits(), reference[i].to_bits(), "coord {}", i);
            }
        }
        // At least k coords are exact (more if reference coords equal the
        // weight by chance).
        prop_assert!(exact >= k, "{} exact < k {}", exact, k);
    }

    #[test]
    fn error_feedback_residual_is_exactly_compensated_minus_decoded(
        reference in prop::collection::vec(-1.0f32..1.0, 8..120),
        per_mille in 1u16..=1000,
        seed in any::<u64>(),
        rounds in 1usize..5,
    ) {
        let n = reference.len();
        let c = TopKCodec::new(per_mille);
        let mut fb = ErrorFeedback::new();
        for round in 0..rounds {
            let weights: Vec<f32> = reference
                .iter()
                .enumerate()
                .map(|(i, r)| {
                    let h = (seed ^ ((round as u64) << 32) ^ i as u64)
                        .wrapping_mul(0x9E3779B97F4A7C15);
                    r + ((h >> 40) as f32 / (1u64 << 24) as f32 - 0.5) * 0.2
                })
                .collect();
            let compensated = fb.compensate(&weights);
            let blob = c.encode_with_ref(&compensated, Some(&reference));
            let decoded = c.decode_with_ref(&blob, Some(&reference));
            fb.absorb(&compensated, &decoded);
            for i in 0..n {
                // The invariant the accumulator exists for, bitwise.
                prop_assert_eq!(
                    fb.residual()[i].to_bits(),
                    (compensated[i] - decoded[i]).to_bits(),
                    "coord {} round {}", i, round
                );
                // Transmitted coordinates carry exact bits, so their
                // residual clears to +0.0 exactly.
                if decoded[i].to_bits() == compensated[i].to_bits() {
                    prop_assert_eq!(
                        fb.residual()[i].to_bits(), 0u32,
                        "transmitted coord {} must clear", i
                    );
                }
            }
        }
    }

    #[test]
    fn error_feedback_pipeline_is_bitwise_deterministic(
        reference in prop::collection::vec(-1.0f32..1.0, 8..120),
        per_mille in 1u16..=500,
        seed in any::<u64>(),
    ) {
        let c = TopKCodec::new(per_mille);
        let run = || {
            let mut fb = ErrorFeedback::new();
            let mut outputs: Vec<Vec<u32>> = Vec::new();
            for round in 0u64..4 {
                let weights: Vec<f32> = reference
                    .iter()
                    .enumerate()
                    .map(|(i, r)| {
                        let h = (seed ^ (round << 32) ^ i as u64)
                            .wrapping_mul(0x9E3779B97F4A7C15);
                        r + ((h >> 40) as f32 / (1u64 << 24) as f32 - 0.5) * 0.2
                    })
                    .collect();
                let compensated = fb.compensate(&weights);
                let blob = c.encode_with_ref(&compensated, Some(&reference));
                let decoded = c.decode_with_ref(&blob, Some(&reference));
                fb.absorb(&compensated, &decoded);
                outputs.push(bits(&decoded));
                outputs.push(bits(fb.residual()));
            }
            outputs
        };
        prop_assert_eq!(run(), run(), "same upload sequence, different bits");
    }

    #[test]
    fn error_feedback_at_full_density_is_lossless_with_zero_residual(
        weights in prop::collection::vec(-3.0f32..3.0, 1..150),
        seed in any::<u32>(),
    ) {
        // per_mille = 1000 keeps every coordinate: the roundtrip is exact
        // and nothing is ever carried.
        let reference: Vec<f32> = weights
            .iter()
            .enumerate()
            .map(|(i, w)| w + ((seed ^ i as u32) % 7) as f32 * 0.01)
            .collect();
        let c = TopKCodec::new(1000);
        let mut fb = ErrorFeedback::new();
        let compensated = fb.compensate(&weights);
        prop_assert_eq!(&compensated, &weights, "fresh accumulator must be the identity");
        let blob = c.encode_with_ref(&compensated, Some(&reference));
        let decoded = c.decode_with_ref(&blob, Some(&reference));
        prop_assert_eq!(bits(&decoded), bits(&compensated));
        fb.absorb(&compensated, &decoded);
        prop_assert!(
            fb.residual().iter().all(|r| r.to_bits() == 0),
            "lossless roundtrip left a residual"
        );
    }

    #[test]
    fn arbitrary_bytes_never_panic_any_decoder(
        payload in prop::collection::vec(any::<u8>(), 0..600),
        aux in prop::collection::vec(any::<u32>().prop_map(f32::from_bits), 0..4),
        count in 0usize..600,
        absurd_count in 0usize..6,
        kind_sel in 0usize..7,
        with_ref in any::<bool>(),
    ) {
        // Half the cases claim a count no payload could back (and no
        // reference could match): a decoder must refuse it before sizing
        // anything by it.
        let absurd = [usize::MAX, usize::MAX / 2, 1 << 40].get(absurd_count).copied();
        let count = absurd.unwrap_or(count);
        let kinds = [
            CodecKind::None,
            CodecKind::Polyline { precision: 4, delta: true },
            CodecKind::DeltaRle,
            CodecKind::Quantized { bits: 8 },
            CodecKind::Quantized { bits: 4 },
            CodecKind::TopK { per_mille: 100 },
            CodecKind::TopK { per_mille: 1000 },
        ];
        let kind = kinds[kind_sel];
        let blob = CompressedBlob {
            payload,
            count,
            kind,
            aux,
        };
        let reference = vec![0.25f32; if absurd.is_some() { 0 } else { count }];
        let r = if with_ref && absurd.is_none() { Some(reference.as_slice()) } else { None };
        for probe in kinds {
            // Every decoder must return (Ok or Err), never panic, on every
            // kind/byte combination — including mismatched kinds.
            let _ = codec_for(probe).try_decode_with_ref(&blob, r);
        }
    }

    #[test]
    fn wire_size_monotone_in_value_count(
        base in prop::collection::vec(-1.0f32..1.0, 10..50),
    ) {
        let c = PolylineCodec::new(4);
        let small = c.encode(&base).wire_bytes();
        let mut doubled = base.clone();
        doubled.extend_from_slice(&base);
        let large = c.encode(&doubled).wire_bytes();
        prop_assert!(large > small);
    }
}
