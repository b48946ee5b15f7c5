//! The wire-codec abstraction used by the FL transport.
//!
//! A [`WireCodec`] turns a weight vector into a [`CompressedBlob`] (what the
//! simulator's traffic meter charges to the network) and back:
//! [`WireCodec::encode_with_ref`] and [`WireCodec::try_decode_with_ref`]
//! *define* each wire format, byte for byte. The simulator's transport
//! calls neither — a simulated transfer needs the decoded values and the
//! blob's size, not the bytes — but [`WireCodec::roundtrip`], which returns
//! exactly those two, in place, and is tested against the definition.
//! Codecs come in two families:
//!
//! * **absolute** codecs encode the weight vector alone
//!   ([`NoCompression`], [`PolylineCodec`]),
//! * **reference-aware** codecs encode against a model both endpoints
//!   already hold — the decoded broadcast the client trained from —
//!   via [`WireCodec::encode_with_ref`]
//!   ([`crate::delta_rle::DeltaRleCodec`],
//!   [`crate::quantized::QuantizedCodec`], [`crate::topk::TopKCodec`]).
//!
//! Every decoder is total: [`WireCodec::try_decode_with_ref`] returns
//! [`CodecError`] on arbitrary corrupt bytes instead of panicking (pinned by
//! proptest). The panicking [`WireCodec::decode`]/[`WireCodec::decode_with_ref`]
//! conveniences exist because inside the simulator a decode failure is a
//! programming error, not a recoverable condition.

use crate::delta_rle::DeltaRleCodec;
use crate::polyline::{decode_stream, encode_stream, roundtrip_stream};
use crate::quantized::QuantizedCodec;
use crate::topk::TopKCodec;
use fedat_tensor::simd::{self, SimdKernel};

/// Identifies how a blob was encoded (carried in the blob header).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CodecKind {
    /// Raw little-endian `f32`s — 4 bytes per value, bit-exact, inert.
    None,
    /// Polyline at a given precision; `delta` selects difference coding.
    Polyline {
        /// Decimal precision (1–7).
        precision: u8,
        /// Difference coding enabled.
        delta: bool,
    },
    /// Lossless bit-delta vs the reference + byte-plane RLE packing.
    DeltaRle,
    /// Linear quantization of the delta vs the reference at `bits` ∈ {4, 8}.
    Quantized {
        /// Quantizer width in bits per weight (4 or 8).
        bits: u8,
    },
    /// Sparse top-k delta: the `per_mille`/1000 largest-magnitude delta
    /// coordinates travel as exact values, the rest decode to the reference.
    TopK {
        /// Selected fraction in thousandths (1–1000).
        per_mille: u16,
    },
}

/// Values per codec shard: encode/decode work walks fixed
/// `CODEC_CHUNK`-value chunks whose boundaries depend on nothing but this
/// constant (`delta_rle` frames each chunk on the wire).
pub const CODEC_CHUNK: usize = 4096;

/// A decode failure: the blob's bytes are inconsistent with its header.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CodecError {
    /// `blob.kind` does not name a blob this codec can decode.
    WrongKind,
    /// Payload, aux, or count are inconsistent with the claimed kind.
    Malformed(&'static str),
}

impl std::fmt::Display for CodecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CodecError::WrongKind => write!(f, "blob kind does not match this codec"),
            CodecError::Malformed(why) => write!(f, "malformed blob: {why}"),
        }
    }
}

impl std::error::Error for CodecError {}

/// An encoded weight vector plus the header a receiver needs to decode it.
///
/// [`CompressedBlob::wire_bytes`] is what the simulator's traffic meter
/// charges to the network: payload + a small fixed header (codec id,
/// precision, value count).
#[derive(Clone, Debug)]
pub struct CompressedBlob {
    /// Encoded payload.
    pub payload: Vec<u8>,
    /// Number of `f32` values encoded.
    pub count: usize,
    /// Codec identification for decode.
    pub kind: CodecKind,
    /// Extra decode parameters (quantization range for the quantizers).
    pub aux: Vec<f32>,
}

/// Size of the fixed blob header on the wire.
pub const BLOB_HEADER_BYTES: usize = 16;

impl CompressedBlob {
    /// Total bytes this blob occupies on the wire.
    pub fn wire_bytes(&self) -> usize {
        BLOB_HEADER_BYTES + self.payload.len() + self.aux.len() * 4
    }
}

/// A lossy or lossless weight-vector codec.
///
/// The `reference` is the model both endpoints already hold (the decoded
/// broadcast a client trained from). Absolute codecs ignore it; the
/// reference-aware codecs encode the difference against it, which is why
/// the transport threads the same reference through both
/// [`encode_with_ref`](WireCodec::encode_with_ref) and
/// [`try_decode_with_ref`](WireCodec::try_decode_with_ref).
pub trait WireCodec: Send + Sync {
    /// Encodes a weight vector, optionally against a reference model.
    ///
    /// # Panics
    /// Panics if `reference` is present with a different length than
    /// `weights` — that is a caller bug, not a data condition.
    fn encode_with_ref(&self, weights: &[f32], reference: Option<&[f32]>) -> CompressedBlob;

    /// Decodes a blob, optionally against the reference it was encoded
    /// with. Never panics on corrupt payload bytes: any inconsistency
    /// surfaces as a [`CodecError`].
    fn try_decode_with_ref(
        &self,
        blob: &CompressedBlob,
        reference: Option<&[f32]>,
    ) -> Result<Vec<f32>, CodecError>;

    /// Short name for reports (e.g. `polyline-p4`).
    fn name(&self) -> String;

    /// Encodes without a reference.
    fn encode(&self, weights: &[f32]) -> CompressedBlob {
        self.encode_with_ref(weights, None)
    }

    /// Decodes a blob produced by [`WireCodec::encode`].
    ///
    /// # Panics
    /// Panics on corrupt input — a decode failure in the simulator is a
    /// programming error, not a recoverable condition.
    fn decode(&self, blob: &CompressedBlob) -> Vec<f32> {
        self.decode_with_ref(blob, None)
    }

    /// Decodes against a reference, panicking on corrupt input (the
    /// in-simulator convenience over [`WireCodec::try_decode_with_ref`]).
    ///
    /// # Panics
    /// Panics on corrupt input.
    fn decode_with_ref(&self, blob: &CompressedBlob, reference: Option<&[f32]>) -> Vec<f32> {
        match self.try_decode_with_ref(blob, reference) {
            Ok(w) => w,
            Err(e) => panic!("{} blob failed to decode: {e}", self.name()),
        }
    }

    /// One simulated transfer, in place: `weights` become what the receiver
    /// would decode and the return is the blob's
    /// [`wire_bytes`](CompressedBlob::wire_bytes). This body — encode, then
    /// decode — is the definition; an override computes the same two things
    /// without building the blob, keeps this composition as its
    /// `SimdKernel::Scalar` lane, and is held to it bit for bit by the
    /// `roundtrip_equals_decode_of_encode` proptest.
    ///
    /// # Panics
    /// As [`encode_with_ref`](WireCodec::encode_with_ref).
    fn roundtrip(&self, weights: &mut [f32], reference: Option<&[f32]>) -> usize {
        roundtrip_via_blob(self, weights, reference)
    }
}

/// Whether the calling thread runs the reference lane, in which a
/// [`WireCodec::roundtrip`] override defers to [`roundtrip_via_blob`].
pub(crate) fn reference_lane() -> bool {
    simd::simd_kernel() == SimdKernel::Scalar
}

/// [`WireCodec::roundtrip`]'s default body, for overrides to fall back on.
pub(crate) fn roundtrip_via_blob(
    codec: &(impl WireCodec + ?Sized),
    weights: &mut [f32],
    reference: Option<&[f32]>,
) -> usize {
    let blob = codec.encode_with_ref(weights, reference);
    weights.copy_from_slice(&codec.decode_with_ref(&blob, reference));
    blob.wire_bytes()
}

/// Checks the encode-side reference contract shared by every codec.
pub(crate) fn check_reference(weights: &[f32], reference: Option<&[f32]>) {
    if let Some(r) = reference {
        assert_eq!(
            r.len(),
            weights.len(),
            "encode reference length mismatch: {} vs {} weights",
            r.len(),
            weights.len()
        );
    }
}

/// Validates the decode-side reference length without panicking.
pub(crate) fn decode_reference(
    count: usize,
    reference: Option<&[f32]>,
) -> Result<Option<&[f32]>, CodecError> {
    match reference {
        Some(r) if r.len() != count => Err(CodecError::Malformed("reference length mismatch")),
        other => Ok(other),
    }
}

/// Identity codec: 4 bytes per value on the wire, bit-exact. The inert
/// default — `CodecKind::None` runs charge exactly the pre-codec byte
/// counts (16-byte header + 4·n payload).
#[derive(Clone, Copy, Debug, Default)]
pub struct NoCompression;

impl WireCodec for NoCompression {
    fn encode_with_ref(&self, weights: &[f32], reference: Option<&[f32]>) -> CompressedBlob {
        check_reference(weights, reference);
        let mut payload = vec![0u8; weights.len() * 4];
        for (bytes, w) in payload.chunks_exact_mut(4).zip(weights) {
            bytes.copy_from_slice(&w.to_le_bytes());
        }
        CompressedBlob {
            payload,
            count: weights.len(),
            kind: CodecKind::None,
            aux: Vec::new(),
        }
    }

    fn try_decode_with_ref(
        &self,
        blob: &CompressedBlob,
        _reference: Option<&[f32]>,
    ) -> Result<Vec<f32>, CodecError> {
        if blob.kind != CodecKind::None {
            return Err(CodecError::WrongKind);
        }
        if blob.count.checked_mul(4) != Some(blob.payload.len()) {
            return Err(CodecError::Malformed("raw blob size mismatch"));
        }
        Ok(blob
            .payload
            .chunks_exact(4)
            .map(|c| f32::from_le_bytes([c[0], c[1], c[2], c[3]]))
            .collect())
    }

    /// The identity: `to_le_bytes` / `from_le_bytes` keep every bit pattern.
    fn roundtrip(&self, weights: &mut [f32], reference: Option<&[f32]>) -> usize {
        if reference_lane() {
            return roundtrip_via_blob(self, weights, reference);
        }
        check_reference(weights, reference);
        BLOB_HEADER_BYTES + 4 * weights.len()
    }

    fn name(&self) -> String {
        "none".to_string()
    }
}

/// The FedAT polyline codec (§4.3). The paper's default is precision 4.
/// Absolute: the reference is ignored.
#[derive(Clone, Copy, Debug)]
pub struct PolylineCodec {
    precision: u8,
    delta: bool,
}

impl PolylineCodec {
    /// Polyline codec in the paper's configuration (delta coding on).
    ///
    /// # Panics
    /// Panics if `precision` is 0 or exceeds
    /// [`MAX_PRECISION`](crate::polyline::MAX_PRECISION).
    pub fn new(precision: u8) -> Self {
        Self::with_mode(precision, true)
    }

    /// Polyline codec with explicit delta/absolute mode (the `ablate-delta`
    /// experiment).
    pub fn with_mode(precision: u8, delta: bool) -> Self {
        assert!(
            (1..=crate::polyline::MAX_PRECISION).contains(&precision),
            "precision {precision} out of range"
        );
        PolylineCodec { precision, delta }
    }

    /// Decimal precision.
    pub fn precision(&self) -> u8 {
        self.precision
    }
}

impl WireCodec for PolylineCodec {
    fn encode_with_ref(&self, weights: &[f32], reference: Option<&[f32]>) -> CompressedBlob {
        check_reference(weights, reference);
        let payload = encode_stream(weights, self.precision, self.delta);
        CompressedBlob {
            payload,
            count: weights.len(),
            kind: CodecKind::Polyline {
                precision: self.precision,
                delta: self.delta,
            },
            aux: Vec::new(),
        }
    }

    fn try_decode_with_ref(
        &self,
        blob: &CompressedBlob,
        _reference: Option<&[f32]>,
    ) -> Result<Vec<f32>, CodecError> {
        match blob.kind {
            CodecKind::Polyline { precision, delta } => {
                decode_stream(&blob.payload, blob.count, precision, delta)
                    .ok_or(CodecError::Malformed("corrupt polyline stream"))
            }
            _ => Err(CodecError::WrongKind),
        }
    }

    /// [`roundtrip_stream`] carries the lanes, the reference one included.
    fn roundtrip(&self, weights: &mut [f32], reference: Option<&[f32]>) -> usize {
        check_reference(weights, reference);
        BLOB_HEADER_BYTES + roundtrip_stream(weights, self.precision, self.delta)
    }

    fn name(&self) -> String {
        format!(
            "polyline-p{}{}",
            self.precision,
            if self.delta { "" } else { "-abs" }
        )
    }
}

/// Builds a codec from a kind tag (the reverse of blob headers; useful for
/// config files and the bench harness).
pub fn codec_for(kind: CodecKind) -> Box<dyn WireCodec> {
    match kind {
        CodecKind::None => Box::new(NoCompression),
        CodecKind::Polyline { precision, delta } => {
            Box::new(PolylineCodec::with_mode(precision, delta))
        }
        CodecKind::DeltaRle => Box::new(DeltaRleCodec),
        CodecKind::Quantized { bits } => Box::new(QuantizedCodec::new(bits)),
        CodecKind::TopK { per_mille } => Box::new(TopKCodec::new(per_mille)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn wiggly(n: usize) -> Vec<f32> {
        (0..n).map(|i| ((i as f32) * 0.31).sin() * 0.2).collect()
    }

    #[test]
    fn raw_roundtrip_is_exact() {
        let w = wiggly(100);
        let c = NoCompression;
        let blob = c.encode(&w);
        assert_eq!(c.decode(&blob), w);
        assert_eq!(blob.wire_bytes(), BLOB_HEADER_BYTES + 400);
    }

    #[test]
    fn polyline_roundtrip_within_half_lattice() {
        let w = wiggly(1000);
        for p in 1..=6u8 {
            let c = PolylineCodec::new(p);
            let blob = c.encode(&w);
            let r = c.decode(&blob);
            let tol = 0.5 * 10f32.powi(-(p as i32)) * 1.01;
            for (a, b) in w.iter().zip(r.iter()) {
                assert!((a - b).abs() <= tol, "p{p}: {a} vs {b}");
            }
        }
    }

    #[test]
    fn polyline_beats_raw_for_typical_weights() {
        // Kaiming-style small weights at precision 4 should compress well
        // below 4 bytes/value; the smaller ones common after training reach
        // the paper's band ("up to 3.5×" — asserted here as > 1.8×).
        let kaiming: Vec<f32> = (0..10_000)
            .map(|i| ((i as f32) * 0.017).sin() * 0.05)
            .collect();
        let trained: Vec<f32> = (0..50_000)
            .map(|i| ((i as f64 * 0.37).sin() * 0.03) as f32)
            .collect();
        let c = PolylineCodec::new(4);
        for (w, band) in [(kaiming, 1.5), (trained, 1.8)] {
            let blob = c.encode(&w);
            let raw = NoCompression.encode(&w);
            let ratio = raw.wire_bytes() as f64 / blob.wire_bytes() as f64;
            assert!(ratio > band, "compression ratio {ratio} below {band}");
        }
    }

    #[test]
    fn codec_names_are_stable() {
        assert_eq!(NoCompression.name(), "none");
        assert_eq!(PolylineCodec::new(4).name(), "polyline-p4");
        assert_eq!(PolylineCodec::with_mode(3, false).name(), "polyline-p3-abs");
        assert_eq!(DeltaRleCodec.name(), "delta-rle");
        assert_eq!(QuantizedCodec::new(8).name(), "quantized8");
        assert_eq!(QuantizedCodec::new(4).name(), "quantized4");
        assert_eq!(TopKCodec::new(50).name(), "topk-50pm");
    }

    #[test]
    fn codec_for_roundtrips_kind() {
        let w = wiggly(64);
        for kind in [
            CodecKind::None,
            CodecKind::Polyline {
                precision: 4,
                delta: true,
            },
            CodecKind::DeltaRle,
            CodecKind::Quantized { bits: 8 },
            CodecKind::Quantized { bits: 4 },
            CodecKind::TopK { per_mille: 100 },
        ] {
            let c = codec_for(kind);
            let blob = c.encode(&w);
            assert_eq!(blob.kind, kind);
            let r = c.decode(&blob);
            assert_eq!(r.len(), w.len());
        }
    }

    #[test]
    fn decoding_with_wrong_codec_errors() {
        let blob = PolylineCodec::new(4).encode(&[1.0]);
        assert_eq!(
            NoCompression.try_decode_with_ref(&blob, None),
            Err(CodecError::WrongKind)
        );
    }

    #[test]
    #[should_panic(expected = "failed to decode")]
    fn panicking_decode_names_the_codec() {
        let blob = PolylineCodec::new(4).encode(&[1.0]);
        let _ = NoCompression.decode(&blob);
    }
}
