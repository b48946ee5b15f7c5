//! Lossless delta + byte-plane RLE codec.
//!
//! The only truly lossless compressed wire format in the stack: every bit
//! pattern round-trips, including `-0.0`, subnormals, and NaN payloads
//! (pinned by proptest). The encoder:
//!
//! 1. XORs each weight's bit pattern with the reference model's (the decoded
//!    broadcast both endpoints hold) — weights drift little in one local
//!    training pass, so the XOR zeroes most sign/exponent/high-mantissa
//!    bits. Without a reference the XOR is against zero (identity).
//! 2. Splits each [`CODEC_CHUNK`]-value chunk of XOR words into four byte
//!    planes (plane `b` holds byte `b` of every word), concentrating the
//!    zero bytes into long runs,
//! 3. Packs each plane with a byte-oriented RLE (PackBits-style: literal
//!    runs up to 128 bytes, repeat runs of 3–130 bytes).
//!
//! Chunk boundaries are a function of [`CODEC_CHUNK`] alone and every chunk
//! is encoded/decoded independently, so the byte stream and the decoded
//! weights are bit-identical under every `SimdKernel` — the XOR inner loop
//! is pure integer arithmetic with one possible answer.
//!
//! Wire layout: `[u32-LE segment length × n_chunks] ++ segments`, each
//! segment the concatenation of its four packed planes (a plane's packed
//! length is implicit: the decoder consumes tokens until the plane's
//! `chunk_len` bytes are reproduced).

use crate::codec::{
    check_reference, decode_reference, CodecError, CodecKind, CompressedBlob, WireCodec,
    CODEC_CHUNK,
};
use fedat_tensor::simd;

/// Longest literal run one token can carry.
const MAX_LITERAL: usize = 128;
/// Shortest byte run worth a repeat token (a repeat costs 2 bytes).
const MIN_RUN: usize = 3;
/// Longest byte run one repeat token can carry.
const MAX_RUN: usize = MIN_RUN + 127;

fn flush_literals(bytes: &[u8], from: usize, to: usize, out: &mut Vec<u8>) {
    let mut p = from;
    while p < to {
        let take = (to - p).min(MAX_LITERAL);
        out.push((take - 1) as u8);
        out.extend_from_slice(&bytes[p..p + take]);
        p += take;
    }
}

/// Greedy PackBits-style packing of one byte plane. Deterministic: a pure
/// function of the plane bytes.
fn pack_plane(bytes: &[u8], out: &mut Vec<u8>) {
    let n = bytes.len();
    let mut lit_start = 0usize;
    let mut i = 0usize;
    while i < n {
        let mut j = i + 1;
        while j < n && bytes[j] == bytes[i] {
            j += 1;
        }
        let run = j - i;
        if run >= MIN_RUN {
            flush_literals(bytes, lit_start, i, out);
            let mut pos = i;
            let mut rem = run;
            while rem >= MIN_RUN {
                let take = rem.min(MAX_RUN);
                out.push(0x80 + (take - MIN_RUN) as u8);
                out.push(bytes[pos]);
                pos += take;
                rem -= take;
            }
            // A 1–2 byte remainder joins the following literal region.
            lit_start = pos;
        }
        i = j;
    }
    flush_literals(bytes, lit_start, n, out);
}

/// Unpacks exactly `plane.len()` bytes from `input` starting at `*cursor`.
fn unpack_plane(input: &[u8], cursor: &mut usize, plane: &mut [u8]) -> Result<(), CodecError> {
    let n = plane.len();
    let mut filled = 0usize;
    while filled < n {
        let t = *input
            .get(*cursor)
            .ok_or(CodecError::Malformed("truncated rle stream"))?;
        *cursor += 1;
        if t < 0x80 {
            let len = t as usize + 1;
            if filled + len > n {
                return Err(CodecError::Malformed("literal run overruns plane"));
            }
            let src = input
                .get(*cursor..*cursor + len)
                .ok_or(CodecError::Malformed("truncated literal run"))?;
            plane[filled..filled + len].copy_from_slice(src);
            *cursor += len;
            filled += len;
        } else {
            let len = (t - 0x80) as usize + MIN_RUN;
            if filled + len > n {
                return Err(CodecError::Malformed("repeat run overruns plane"));
            }
            let b = *input
                .get(*cursor)
                .ok_or(CodecError::Malformed("truncated repeat run"))?;
            *cursor += 1;
            plane[filled..filled + len].fill(b);
            filled += len;
        }
    }
    Ok(())
}

/// Encodes one chunk's XOR words into its byte segment.
fn encode_chunk(words: &[u32], seg: &mut Vec<u8>) {
    let mut plane = vec![0u8; words.len()];
    for b in 0..4 {
        for (p, &w) in plane.iter_mut().zip(words.iter()) {
            *p = (w >> (8 * b)) as u8;
        }
        pack_plane(&plane, seg);
    }
}

/// Decodes one chunk's byte segment back into XOR words. The segment must
/// be consumed exactly.
fn decode_chunk(seg: &[u8], words: &mut [u32]) -> Result<(), CodecError> {
    let mut plane = vec![0u8; words.len()];
    let mut cursor = 0usize;
    for b in 0..4 {
        unpack_plane(seg, &mut cursor, &mut plane)?;
        for (w, &p) in words.iter_mut().zip(plane.iter()) {
            *w |= (p as u32) << (8 * b);
        }
    }
    if cursor != seg.len() {
        return Err(CodecError::Malformed("trailing bytes in chunk segment"));
    }
    Ok(())
}

/// The lossless delta-RLE wire codec. See the module docs for the format.
#[derive(Clone, Copy, Debug, Default)]
pub struct DeltaRleCodec;

impl WireCodec for DeltaRleCodec {
    fn encode_with_ref(&self, weights: &[f32], reference: Option<&[f32]>) -> CompressedBlob {
        check_reference(weights, reference);
        let n = weights.len();
        let n_chunks = n.div_ceil(CODEC_CHUNK);
        let mut segs: Vec<Vec<u8>> = vec![Vec::new(); n_chunks];
        for (ci, seg) in segs.iter_mut().enumerate() {
            let lo = ci * CODEC_CHUNK;
            let hi = (lo + CODEC_CHUNK).min(n);
            let mut words = vec![0u32; hi - lo];
            match reference {
                Some(r) => simd::delta_bits_into(&mut words, &weights[lo..hi], &r[lo..hi]),
                None => {
                    for (w, &v) in words.iter_mut().zip(weights[lo..hi].iter()) {
                        *w = v.to_bits();
                    }
                }
            }
            encode_chunk(&words, seg);
        }
        let table_len = 4 * n_chunks;
        let total: usize = table_len + segs.iter().map(Vec::len).sum::<usize>();
        let mut payload = Vec::with_capacity(total);
        for seg in &segs {
            payload.extend_from_slice(&(seg.len() as u32).to_le_bytes());
        }
        for seg in &segs {
            payload.extend_from_slice(seg);
        }
        CompressedBlob {
            payload,
            count: n,
            kind: CodecKind::DeltaRle,
            aux: Vec::new(),
        }
    }

    fn try_decode_with_ref(
        &self,
        blob: &CompressedBlob,
        reference: Option<&[f32]>,
    ) -> Result<Vec<f32>, CodecError> {
        if blob.kind != CodecKind::DeltaRle {
            return Err(CodecError::WrongKind);
        }
        let n = blob.count;
        let reference = decode_reference(n, reference)?;
        let n_chunks = n.div_ceil(CODEC_CHUNK);
        let table_len = n_chunks
            .checked_mul(4)
            .ok_or(CodecError::Malformed("chunk table overflow"))?;
        if blob.payload.len() < table_len {
            return Err(CodecError::Malformed("chunk table truncated"));
        }
        // Segment offsets: a prefix scan over the chunk table.
        let mut offsets = Vec::with_capacity(n_chunks + 1);
        let mut cursor = table_len;
        for ci in 0..n_chunks {
            let b = &blob.payload[ci * 4..ci * 4 + 4];
            let len = u32::from_le_bytes([b[0], b[1], b[2], b[3]]) as usize;
            offsets.push(cursor);
            cursor = cursor
                .checked_add(len)
                .ok_or(CodecError::Malformed("segment length overflow"))?;
        }
        offsets.push(cursor);
        if cursor != blob.payload.len() {
            return Err(CodecError::Malformed(
                "segment lengths disagree with payload",
            ));
        }
        let mut out = vec![0.0f32; n];
        for (ci, chunk) in out.chunks_mut(CODEC_CHUNK).enumerate() {
            let lo = ci * CODEC_CHUNK;
            let seg = &blob.payload[offsets[ci]..offsets[ci + 1]];
            let mut words = vec![0u32; chunk.len()];
            decode_chunk(seg, &mut words)?;
            match reference {
                Some(r) => simd::apply_delta_bits_into(chunk, &words, &r[lo..lo + chunk.len()]),
                None => {
                    for (o, &w) in chunk.iter_mut().zip(words.iter()) {
                        *o = f32::from_bits(w);
                    }
                }
            }
        }
        Ok(out)
    }

    fn name(&self) -> String {
        "delta-rle".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn specials() -> Vec<f32> {
        let mut v = vec![
            0.0,
            -0.0,
            1.0,
            -1.0,
            f32::MIN_POSITIVE,
            f32::MIN_POSITIVE / 2.0, // subnormal
            3e38,
            -3e38,
            f32::INFINITY,
            f32::NEG_INFINITY,
            f32::NAN,
            f32::from_bits(0x7fc0_dead), // NaN payload
        ];
        v.extend((0..5000).map(|i| ((i as f32) * 0.013).sin() * 0.2));
        v
    }

    fn bits(v: &[f32]) -> Vec<u32> {
        v.iter().map(|x| x.to_bits()).collect()
    }

    #[test]
    fn roundtrip_is_bitwise_without_reference() {
        let w = specials();
        let c = DeltaRleCodec;
        let blob = c.encode(&w);
        assert_eq!(bits(&c.decode(&blob)), bits(&w));
    }

    #[test]
    fn roundtrip_is_bitwise_against_reference() {
        let w = specials();
        let r: Vec<f32> = w.iter().map(|v| v * 0.99 + 0.001).collect();
        let c = DeltaRleCodec;
        let blob = c.encode_with_ref(&w, Some(&r));
        let back = c.decode_with_ref(&blob, Some(&r));
        assert_eq!(bits(&back), bits(&w));
    }

    #[test]
    fn near_reference_updates_compress_well() {
        // A sparse local update leaves most weights untouched; the XOR
        // planes are then mostly zero and RLE-friendly.
        let r: Vec<f32> = (0..20_000)
            .map(|i| ((i as f32) * 0.017).sin() * 0.05)
            .collect();
        let mut w = r.clone();
        for i in (0..w.len()).step_by(8) {
            w[i] += 1e-4;
        }
        let c = DeltaRleCodec;
        let with_ref = c.encode_with_ref(&w, Some(&r)).wire_bytes();
        let raw = 16 + 4 * w.len();
        assert!(
            (with_ref as f64) < raw as f64 / 2.0,
            "delta-rle vs raw: {with_ref} vs {raw}"
        );
    }

    #[test]
    fn chunking_is_exercised_past_one_chunk() {
        let w: Vec<f32> = (0..(CODEC_CHUNK * 3 + 17))
            .map(|i| (i as f32 * 0.001).cos())
            .collect();
        let c = DeltaRleCodec;
        let blob = c.encode(&w);
        assert_eq!(bits(&c.decode(&blob)), bits(&w));
    }

    #[test]
    fn corrupt_streams_error_instead_of_panicking() {
        let w: Vec<f32> = (0..100).map(|i| i as f32 * 0.1).collect();
        let c = DeltaRleCodec;
        let good = c.encode(&w);
        // Truncated payload.
        let mut cut = good.clone();
        cut.payload.truncate(cut.payload.len() - 3);
        assert!(c.try_decode_with_ref(&cut, None).is_err());
        // Inflated count.
        let mut grown = good.clone();
        grown.count = 5_000;
        assert!(c.try_decode_with_ref(&grown, None).is_err());
        // Wrong kind.
        let mut rekinded = good;
        rekinded.kind = CodecKind::None;
        assert_eq!(
            c.try_decode_with_ref(&rekinded, None),
            Err(CodecError::WrongKind)
        );
    }

    #[test]
    fn rle_plane_roundtrip_on_awkward_runs() {
        // Runs crossing every token boundary: 1, 2, 3, 130, 131 repeats and
        // >128-byte literal stretches.
        let mut plane = Vec::new();
        for (i, len) in [1usize, 2, 3, 130, 131, 200, 1].iter().enumerate() {
            plane.extend(std::iter::repeat_n((i * 37) as u8, *len));
            plane.push(0xAB); // break the run
        }
        plane.extend((0..300).map(|i| (i % 251) as u8)); // long literal tail
        let mut packed = Vec::new();
        pack_plane(&plane, &mut packed);
        let mut back = vec![0u8; plane.len()];
        let mut cursor = 0;
        unpack_plane(&packed, &mut cursor, &mut back).unwrap();
        assert_eq!(cursor, packed.len());
        assert_eq!(back, plane);
    }
}
