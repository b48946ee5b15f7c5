//! # fedat-compress — the compressed wire path
//!
//! FedAT compresses every uplink and downlink model transfer; the paper's
//! codec is the Encoded Polyline Algorithm (§4.3): each weight is rounded
//! to a configurable decimal precision, zig-zag shifted, split into 5-bit
//! chunks, and emitted as printable ASCII — exactly Google's polyline
//! format generalized from lat/lng pairs to arbitrary `f32` streams. This
//! crate holds that codec plus the rest of the pluggable [`codec::WireCodec`]
//! family the transport layer charges real wire bytes through:
//!
//! * [`polyline`] — the polyline wire format: value/stream encode + decode,
//!   in both *delta* mode (successive differences, as in the original
//!   algorithm) and *absolute* mode (the `ablate-delta` experiment compares
//!   them),
//! * [`codec`] — the [`codec::WireCodec`] trait with the absolute codecs
//!   [`codec::NoCompression`] (the inert default) and
//!   [`codec::PolylineCodec`] (precision 1–7),
//! * [`delta_rle`] — lossless bit-delta vs the broadcast reference +
//!   byte-plane RLE (bitwise round-trip, proptest-pinned),
//! * [`quantized`] — reference-aware 4/8-bit linear delta quantization,
//! * [`topk`] — sparse top-k delta selection with exact values,
//! * [`stats`] — compression ratio and reconstruction-error accounting.
//!
//! Encode/decode inner loops (delta, quantize/dequantize) run on the
//! bit-exact [`fedat_tensor::simd`] kernels over fixed
//! [`codec::CODEC_CHUNK`] chunks (top-k's magnitude pass is one plain
//! loop), on whichever thread transfers the model,
//! so lossless codecs round-trip bit-identically and lossy codecs are
//! exactly reproducible under every `SimdKernel`. The polyline stream is
//! the exception in shape, not in contract: a varint stream cannot be
//! chunked without an index on the wire, so its encoder and decoder are one
//! per-value loop each, and the in-place roundtrip a transfer runs carries
//! its own scalar / AVX2 lanes, selected by the same
//! `SimdKernel` setting and bit-identical to each other.
//!
//! ```
//! use fedat_compress::codec::{PolylineCodec, WireCodec};
//!
//! let weights = vec![0.12345_f32, -0.5, 0.000071, 2.5];
//! let codec = PolylineCodec::new(4);
//! let blob = codec.encode(&weights);
//! let restored = codec.decode(&blob);
//! for (w, r) in weights.iter().zip(restored.iter()) {
//!     assert!((w - r).abs() <= 0.5e-4);
//! }
//! ```

pub mod codec;
pub mod delta_rle;
pub mod polyline;
pub mod quantized;
pub mod stats;
pub mod topk;

pub use codec::{
    codec_for, CodecError, CodecKind, CompressedBlob, NoCompression, PolylineCodec, WireCodec,
};
pub use delta_rle::DeltaRleCodec;
pub use quantized::QuantizedCodec;
pub use topk::TopKCodec;
