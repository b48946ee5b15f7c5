//! Sparse top-k delta encoding.
//!
//! Only the `k = ⌈count · per_mille / 1000⌉` coordinates whose delta vs the
//! reference has the largest magnitude travel on the wire; every other
//! coordinate decodes back to the reference value. Selected coordinates
//! carry their *exact* weight bits (not the delta), so the update is
//! lossless where it matters and costs `varint(index gap) + 4` bytes per
//! selected weight.
//!
//! ## Determinism
//!
//! Selection is a total order — magnitude descending ([`f32::total_cmp`]),
//! index ascending on ties — so the selected set is unique regardless of
//! partition order or backend; the magnitude sweep is one plain pass of
//! `|w − r|` (or `|w|`) — one rounded subtract and a sign clear per
//! coordinate, the same bits on every host.

use crate::codec::{
    check_reference, decode_reference, CodecError, CodecKind, CompressedBlob, WireCodec,
};
use fedat_tensor::scratch;

/// Selected weights for a blob of `count` values at `per_mille`.
pub fn k_for(count: usize, per_mille: u16) -> usize {
    if count == 0 {
        return 0;
    }
    // u128: `count` may come straight from a hostile blob header.
    (((count as u128 * per_mille as u128).div_ceil(1000)) as usize).clamp(1, count)
}

fn push_varint(mut v: u64, out: &mut Vec<u8>) {
    while v >= 0x80 {
        out.push(0x80 | (v & 0x7F) as u8);
        v >>= 7;
    }
    out.push(v as u8);
}

fn read_varint(bytes: &[u8], cursor: &mut usize) -> Result<u64, CodecError> {
    let mut v = 0u64;
    let mut shift = 0u32;
    loop {
        let b = *bytes
            .get(*cursor)
            .ok_or(CodecError::Malformed("truncated varint"))?;
        *cursor += 1;
        v |= ((b & 0x7F) as u64) << shift;
        if b & 0x80 == 0 {
            return Ok(v);
        }
        shift += 7;
        if shift > 63 {
            return Err(CodecError::Malformed("varint overflow"));
        }
    }
}

/// Error-feedback accumulator for one uplink sender (EF-TopK).
///
/// Pure top-k sparsification *silently drops* the unselected coordinates
/// every round; a coordinate whose per-round delta never cracks the top k
/// simply stops training, and accuracy collapses as `per_mille` shrinks.
/// Error feedback is the standard fix: the dropped mass is carried as a
/// *residual* and added back before the next round's selection, so
/// suppressed coordinates accumulate until they win a slot — updates
/// arrive late, never never.
///
/// Per upload: `compensated = weights + residual`, the codec encodes
/// `compensated` against the shared reference, and the new residual is
/// `compensated − decoded` — which is exactly `+0.0` at every transmitted
/// coordinate (the wire carries the exact f32 bits of the compensated
/// value) and the suppressed displacement elsewhere.
///
/// ## Determinism
///
/// Both steps are elementwise f32 arithmetic in index order — no
/// reductions, no partition sensitivity — so the residual sequence is a
/// pure function of the upload sequence and is bit-identical across
/// kernels and execution modes. One accumulator serves one
/// sender: the transport layer keys them per client.
#[derive(Clone, Debug, Default)]
pub struct ErrorFeedback {
    residual: Vec<f32>,
}

impl ErrorFeedback {
    /// A fresh accumulator with no carried error.
    pub fn new() -> Self {
        Self::default()
    }

    /// Returns `weights + residual`, the vector the codec should encode.
    /// A model-size change (never expected mid-run) voids the residual.
    pub fn compensate(&mut self, weights: &[f32]) -> Vec<f32> {
        if self.residual.len() != weights.len() {
            self.residual = vec![0.0; weights.len()];
        }
        weights
            .iter()
            .zip(self.residual.iter())
            .map(|(w, r)| w + r)
            .collect()
    }

    /// Stores `compensated − decoded` as the next upload's residual.
    ///
    /// # Panics
    /// Panics if the lengths disagree.
    pub fn absorb(&mut self, compensated: &[f32], decoded: &[f32]) {
        assert_eq!(
            compensated.len(),
            decoded.len(),
            "encode/decode length mismatch"
        );
        self.residual.clear();
        self.residual
            .extend(compensated.iter().zip(decoded.iter()).map(|(c, d)| c - d));
    }

    /// The currently carried residual (empty before the first upload).
    pub fn residual(&self) -> &[f32] {
        &self.residual
    }
}

/// The sparse top-k wire codec. See the module docs for the format.
#[derive(Clone, Copy, Debug)]
pub struct TopKCodec {
    per_mille: u16,
}

impl TopKCodec {
    /// Keeps the top `per_mille`/1000 of coordinates by delta magnitude.
    ///
    /// # Panics
    /// Panics unless `1 <= per_mille <= 1000`.
    pub fn new(per_mille: u16) -> Self {
        assert!(
            (1..=1000).contains(&per_mille),
            "per_mille {per_mille} out of range"
        );
        TopKCodec { per_mille }
    }

    /// Selected fraction in thousandths.
    pub fn per_mille(&self) -> u16 {
        self.per_mille
    }
}

impl WireCodec for TopKCodec {
    fn encode_with_ref(&self, weights: &[f32], reference: Option<&[f32]>) -> CompressedBlob {
        check_reference(weights, reference);
        let n = weights.len();
        let k = k_for(n, self.per_mille);
        // Magnitude of the delta (or of the weights when no reference).
        let mut mag = scratch::take_zeroed(n);
        match reference {
            Some(r) => {
                for ((m, &w), &r) in mag.iter_mut().zip(weights).zip(r) {
                    *m = (w - r).abs();
                }
            }
            None => {
                for (m, &w) in mag.iter_mut().zip(weights) {
                    *m = w.abs();
                }
            }
        }
        // Unique selection: magnitude descending, index ascending on ties.
        let mut idx: Vec<u32> = (0..n as u32).collect();
        let by_magnitude =
            |a: &u32, b: &u32| mag[*b as usize].total_cmp(&mag[*a as usize]).then(a.cmp(b));
        if k < n {
            idx.select_nth_unstable_by(k - 1, by_magnitude);
            idx.truncate(k);
        }
        scratch::recycle(mag);
        idx.sort_unstable();
        let mut payload = Vec::with_capacity(k * 6);
        let mut prev = 0u64;
        for &i in &idx {
            push_varint(i as u64 - prev, &mut payload);
            payload.extend_from_slice(&weights[i as usize].to_le_bytes());
            prev = i as u64 + 1;
        }
        CompressedBlob {
            payload,
            count: n,
            kind: CodecKind::TopK {
                per_mille: self.per_mille,
            },
            aux: Vec::new(),
        }
    }

    fn try_decode_with_ref(
        &self,
        blob: &CompressedBlob,
        reference: Option<&[f32]>,
    ) -> Result<Vec<f32>, CodecError> {
        let per_mille = match blob.kind {
            CodecKind::TopK { per_mille } if (1..=1000).contains(&per_mille) => per_mille,
            CodecKind::TopK { .. } => return Err(CodecError::Malformed("per_mille out of range")),
            _ => return Err(CodecError::WrongKind),
        };
        let n = blob.count;
        let reference = decode_reference(n, reference)?;
        let k = k_for(n, per_mille);
        // Parse before allocating the output: k entries cost ≥5 bytes each.
        if blob.payload.len() < k.saturating_mul(5) {
            return Err(CodecError::Malformed("top-k payload too short"));
        }
        let mut out = match reference {
            Some(r) => r.to_vec(),
            None => vec![0.0f32; n],
        };
        let mut cursor = 0usize;
        let mut prev = 0u64;
        for _ in 0..k {
            let gap = read_varint(&blob.payload, &mut cursor)?;
            let i = prev
                .checked_add(gap)
                .ok_or(CodecError::Malformed("index overflow"))?;
            if i >= n as u64 {
                return Err(CodecError::Malformed("index out of range"));
            }
            let b = blob
                .payload
                .get(cursor..cursor + 4)
                .ok_or(CodecError::Malformed("truncated value"))?;
            cursor += 4;
            out[i as usize] = f32::from_le_bytes([b[0], b[1], b[2], b[3]]);
            prev = i + 1;
        }
        if cursor != blob.payload.len() {
            return Err(CodecError::Malformed("trailing bytes after k entries"));
        }
        Ok(out)
    }

    fn name(&self) -> String {
        format!("topk-{}pm", self.per_mille)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn wiggly(n: usize) -> Vec<f32> {
        (0..n).map(|i| ((i as f32) * 0.41).sin() * 0.3).collect()
    }

    #[test]
    fn selected_coordinates_are_exact_rest_are_reference() {
        let r = wiggly(2000);
        let mut w = r.clone();
        // Push 20 spikes well above the background delta (which is zero).
        for s in 0..20 {
            w[s * 97] += 1.0 + s as f32;
        }
        let c = TopKCodec::new(10); // 1% of 2000 = 20
        let blob = c.encode_with_ref(&w, Some(&r));
        let back = c.decode_with_ref(&blob, Some(&r));
        for s in 0..20 {
            let i = s * 97;
            assert_eq!(back[i].to_bits(), w[i].to_bits(), "spike {i} not exact");
        }
        for (i, (b, rr)) in back.iter().zip(r.iter()).enumerate() {
            if i % 97 != 0 || i / 97 >= 20 {
                assert_eq!(b.to_bits(), rr.to_bits(), "coord {i} not reference");
            }
        }
    }

    #[test]
    fn k_formula_is_pinned() {
        assert_eq!(k_for(0, 100), 0);
        assert_eq!(k_for(1, 1), 1);
        assert_eq!(k_for(1000, 50), 50);
        assert_eq!(k_for(1001, 50), 51); // ceiling
        assert_eq!(k_for(10, 1000), 10);
        assert_eq!(k_for(usize::MAX, 1000), usize::MAX); // no overflow on a hostile count
    }

    #[test]
    fn no_reference_decodes_against_zeros() {
        let w = wiggly(500);
        let c = TopKCodec::new(1000); // keep everything
        let back = c.decode(&c.encode(&w));
        for (a, b) in w.iter().zip(back.iter()) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
    }

    #[test]
    fn ties_break_toward_lower_indices() {
        // Four equal-magnitude values; k = 1 must pick index 0.
        let w = vec![0.5f32, 0.5, 0.5, 0.5];
        let c = TopKCodec::new(250);
        let blob = c.encode(&w);
        let back = c.decode(&blob);
        assert_eq!(back[0], 0.5);
        assert_eq!(&back[1..], &[0.0, 0.0, 0.0]);
    }

    #[test]
    fn corrupt_blobs_error() {
        let c = TopKCodec::new(100);
        let good = c.encode(&wiggly(100));
        let mut cut = good.clone();
        cut.payload.truncate(cut.payload.len() - 2);
        assert!(c.try_decode_with_ref(&cut, None).is_err());
        let mut grown = good.clone();
        grown.count = 5;
        assert!(c.try_decode_with_ref(&grown, None).is_err());
        let mut bad_pm = good;
        bad_pm.kind = CodecKind::TopK { per_mille: 0 };
        assert!(c.try_decode_with_ref(&bad_pm, None).is_err());
    }

    #[test]
    fn error_feedback_accumulates_and_clears() {
        let mut fb = ErrorFeedback::new();
        assert!(fb.residual().is_empty());
        // Coordinate 0 is "suppressed" (decoded kept the reference 0.0),
        // coordinate 1 transmitted exactly.
        let c1 = fb.compensate(&[1.0, 2.0]);
        assert_eq!(c1, vec![1.0, 2.0]);
        fb.absorb(&c1, &[0.0, 2.0]);
        assert_eq!(fb.residual(), &[1.0, 0.0]);
        // The carried error re-offers the suppressed coordinate.
        let c2 = fb.compensate(&[1.0, 2.0]);
        assert_eq!(c2, vec![2.0, 2.0]);
        // A model-size change voids the stale residual.
        let c3 = fb.compensate(&[5.0, 5.0, 5.0]);
        assert_eq!(c3, vec![5.0, 5.0, 5.0]);
        assert_eq!(fb.residual(), &[0.0, 0.0, 0.0]);
    }

    #[test]
    fn varint_roundtrips() {
        for v in [0u64, 1, 127, 128, 300, 1 << 20, u32::MAX as u64] {
            let mut out = Vec::new();
            push_varint(v, &mut out);
            let mut cursor = 0;
            assert_eq!(read_varint(&out, &mut cursor).unwrap(), v);
            assert_eq!(cursor, out.len());
        }
    }
}
