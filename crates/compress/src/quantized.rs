//! Reference-aware linear quantization at 4 or 8 bits per weight.
//!
//! The uplink transfers a *delta*: `d = w - reference` (the decoded
//! broadcast the client trained from), quantized linearly over the blob's
//! own `[lo, hi]` delta range. One local pass moves weights little, so the
//! delta range is narrow and the quantization step small — this is what
//! buys a 4× (8-bit) / 8× (4-bit) smaller uplink payload at negligible
//! accuracy cost (`repro codec` prints the ratios of whole runs, blob
//! headers included). Without a reference the codec quantizes the weights
//! directly (absolute mode, used on the shared downlink broadcast).
//!
//! ## Determinism
//!
//! Lossy but exactly reproducible per config: the range fold is serial, the
//! quantize/dequantize sweeps run on [`fedat_tensor::simd`] kernels that are
//! bit-identical across backends (`floor(x + 0.5)` rather than `round`,
//! because scalar `round` is half-away-from-zero while the vector rounding
//! instruction is half-to-even), and the sweeps walk fixed [`CODEC_CHUNK`]
//! chunks.

use crate::codec::{
    check_reference, decode_reference, reference_lane, roundtrip_via_blob, CodecError, CodecKind,
    CompressedBlob, WireCodec, BLOB_HEADER_BYTES, CODEC_CHUNK,
};
use fedat_tensor::{scratch, simd};

/// Reference-aware linear quantizer; `bits` ∈ {4, 8}.
#[derive(Clone, Copy, Debug)]
pub struct QuantizedCodec {
    bits: u8,
}

impl QuantizedCodec {
    /// A quantizer at the given width.
    ///
    /// # Panics
    /// Panics unless `bits` is 4 or 8.
    pub fn new(bits: u8) -> Self {
        assert!(bits == 4 || bits == 8, "quantizer width {bits} unsupported");
        QuantizedCodec { bits }
    }

    /// Bits per encoded weight.
    pub fn bits(&self) -> u8 {
        self.bits
    }
}

fn levels(bits: u8) -> f32 {
    ((1u32 << bits) - 1) as f32
}

fn packed_len(count: usize, bits: u8) -> Option<usize> {
    match bits {
        8 => Some(count),
        4 => Some(count.div_ceil(2)),
        _ => None,
    }
}

/// Serial min/max fold over the delta (a single cheap pass).
fn delta_range(d: &[f32]) -> (f32, f32) {
    let lo = d.iter().copied().fold(f32::INFINITY, f32::min);
    let hi = d.iter().copied().fold(f32::NEG_INFINITY, f32::max);
    if lo.is_finite() && hi.is_finite() {
        if hi > lo {
            (lo, hi)
        } else {
            // Constant delta: park the range just above it so every value
            // lands on level 0 and decodes to exactly `lo`.
            (lo, lo + 1.0)
        }
    } else {
        (0.0, 1.0) // non-finite deltas: degenerate but deterministic
    }
}

/// The encoder's three sweeps — delta vs the reference, range fold, levels
/// — returning the level buffer (a scratch take: recycle it) and the range.
fn quantize_levels(bits: u8, weights: &[f32], reference: Option<&[f32]>) -> (Vec<f32>, f32, f32) {
    let n = weights.len();
    // Delta vs the reference (standing scratch buffers; recycled below).
    let mut delta_buf = Vec::new();
    let d: &[f32] = match reference {
        Some(r) => {
            delta_buf = scratch::take_zeroed(n);
            for (ci, chunk) in delta_buf.chunks_mut(CODEC_CHUNK).enumerate() {
                let (start, end) = (ci * CODEC_CHUNK, ci * CODEC_CHUNK + chunk.len());
                simd::sub_into(chunk, &weights[start..end], &r[start..end]);
            }
            &delta_buf
        }
        None => weights,
    };
    let (lo, hi) = delta_range(d);
    let lv = levels(bits);
    let scale = lv / (hi - lo);
    let mut q = scratch::take_zeroed(n);
    for (ci, chunk) in q.chunks_mut(CODEC_CHUNK).enumerate() {
        let start = ci * CODEC_CHUNK;
        simd::quantize_into(chunk, &d[start..start + chunk.len()], lo, scale, lv);
    }
    if !delta_buf.is_empty() {
        scratch::recycle(delta_buf);
    }
    (q, lo, hi)
}

/// The decoder's sweep: `out = lo + step · q (+ reference)`.
fn dequantize_levels(
    out: &mut [f32],
    q: &[f32],
    bits: u8,
    (lo, hi): (f32, f32),
    reference: Option<&[f32]>,
) {
    let step = (hi - lo) / levels(bits);
    for (ci, chunk) in out.chunks_mut(CODEC_CHUNK).enumerate() {
        let (start, end) = (ci * CODEC_CHUNK, ci * CODEC_CHUNK + chunk.len());
        simd::affine_into(chunk, &q[start..end], step, lo);
        if let Some(r) = reference {
            simd::add_assign(chunk, &r[start..end]);
        }
    }
}

impl WireCodec for QuantizedCodec {
    fn encode_with_ref(&self, weights: &[f32], reference: Option<&[f32]>) -> CompressedBlob {
        check_reference(weights, reference);
        let (q, lo, hi) = quantize_levels(self.bits, weights, reference);
        // Byte packing: `q` holds exact small integers (NaN deltas clamp to
        // level 0 inside the kernel), so the cast is exact.
        let payload: Vec<u8> = match self.bits {
            8 => q.iter().map(|&v| v as u8).collect(),
            _ => q
                .chunks(2)
                .map(|pair| {
                    let lo_nib = pair[0] as u8 & 0x0F;
                    let hi_nib = pair.get(1).map_or(0, |&v| v as u8) & 0x0F;
                    lo_nib | (hi_nib << 4)
                })
                .collect(),
        };
        scratch::recycle(q);
        CompressedBlob {
            payload,
            count: weights.len(),
            kind: CodecKind::Quantized { bits: self.bits },
            aux: vec![lo, hi],
        }
    }

    fn try_decode_with_ref(
        &self,
        blob: &CompressedBlob,
        reference: Option<&[f32]>,
    ) -> Result<Vec<f32>, CodecError> {
        let bits = match blob.kind {
            CodecKind::Quantized { bits } if bits == 4 || bits == 8 => bits,
            CodecKind::Quantized { .. } => {
                return Err(CodecError::Malformed("unsupported quantizer width"))
            }
            _ => return Err(CodecError::WrongKind),
        };
        let n = blob.count;
        let reference = decode_reference(n, reference)?;
        if packed_len(n, bits) != Some(blob.payload.len()) {
            return Err(CodecError::Malformed("quantized payload size mismatch"));
        }
        if blob.aux.len() < 2 {
            return Err(CodecError::Malformed("quantized range missing"));
        }
        // Unpack to exact integer levels, then dequantize on the SIMD path.
        let mut q = scratch::take_empty(n);
        match bits {
            8 => q.extend(blob.payload.iter().map(|&b| b as f32)),
            _ => {
                for (i, &b) in blob.payload.iter().enumerate() {
                    q.push((b & 0x0F) as f32);
                    if 2 * i + 1 < n {
                        q.push((b >> 4) as f32);
                    }
                }
            }
        }
        let mut out = vec![0.0f32; n];
        dequantize_levels(&mut out, &q, bits, (blob.aux[0], blob.aux[1]), reference);
        scratch::recycle(q);
        Ok(out)
    }

    /// The encoder's sweeps straight into the decoder's, without the bytes
    /// between them: the levels are exact integers in `0..=levels` (NaN
    /// clamps to 0 inside the kernel), which the `u8` / nibble pack and
    /// unpack hand back unchanged, and `lo` / `hi` cross the wire as the
    /// `f32`s they are.
    fn roundtrip(&self, weights: &mut [f32], reference: Option<&[f32]>) -> usize {
        if reference_lane() {
            return roundtrip_via_blob(self, weights, reference);
        }
        check_reference(weights, reference);
        let (q, lo, hi) = quantize_levels(self.bits, weights, reference);
        dequantize_levels(weights, &q, self.bits, (lo, hi), reference);
        scratch::recycle(q);
        let packed = packed_len(weights.len(), self.bits).expect("width checked at construction");
        BLOB_HEADER_BYTES + packed + 2 * std::mem::size_of::<f32>()
    }

    fn name(&self) -> String {
        format!("quantized{}", self.bits)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn wiggly(n: usize) -> Vec<f32> {
        (0..n).map(|i| ((i as f32) * 0.23).sin() * 0.1).collect()
    }

    #[test]
    fn error_is_bounded_by_half_step() {
        for bits in [4u8, 8] {
            let w = wiggly(3000);
            let r: Vec<f32> = w.iter().map(|v| v * 0.98).collect();
            let c = QuantizedCodec::new(bits);
            let blob = c.encode_with_ref(&w, Some(&r));
            let back = c.decode_with_ref(&blob, Some(&r));
            let (lo, hi) = (blob.aux[0], blob.aux[1]);
            let step = (hi - lo) / levels(bits);
            for (a, b) in w.iter().zip(back.iter()) {
                assert!(
                    (a - b).abs() <= step * 0.51 + 1e-6,
                    "bits {bits}: {a} vs {b} (step {step})"
                );
            }
        }
    }

    #[test]
    fn wire_sizes_match_the_width() {
        let w = wiggly(1001);
        let b8 = QuantizedCodec::new(8).encode(&w);
        let b4 = QuantizedCodec::new(4).encode(&w);
        assert_eq!(b8.payload.len(), 1001);
        assert_eq!(b4.payload.len(), 501);
    }

    #[test]
    fn constant_delta_recovers_exactly() {
        let r = wiggly(64);
        let w: Vec<f32> = r.iter().map(|v| v + 0.125).collect();
        let c = QuantizedCodec::new(8);
        let back = c.decode_with_ref(&c.encode_with_ref(&w, Some(&r)), Some(&r));
        for (a, b) in w.iter().zip(back.iter()) {
            assert!((a - b).abs() <= 1e-6, "{a} vs {b}");
        }
    }

    #[test]
    fn odd_count_nibble_packing_roundtrips() {
        let w = wiggly(7);
        let c = QuantizedCodec::new(4);
        let back = c.decode(&c.encode(&w));
        assert_eq!(back.len(), 7);
    }

    #[test]
    fn corrupt_blobs_error() {
        let c = QuantizedCodec::new(8);
        let mut blob = c.encode(&wiggly(50));
        blob.aux.clear();
        assert!(c.try_decode_with_ref(&blob, None).is_err());
        let mut short = c.encode(&wiggly(50));
        short.count = 60;
        assert!(c.try_decode_with_ref(&short, None).is_err());
        let weird = CompressedBlob {
            payload: vec![0u8; 10],
            count: 10,
            kind: CodecKind::Quantized { bits: 3 },
            aux: vec![0.0, 1.0],
        };
        assert!(c.try_decode_with_ref(&weird, None).is_err());
    }
}
