//! Codec-mediated model transfers with traffic accounting.
//!
//! Every download (server → client) and upload (client → server) passes
//! through the configured codec: the byte count is charged to the traffic
//! meter *and* the weights actually take the lossy roundtrip, so compression
//! precision genuinely affects training (Fig. 5).
//!
//! What the simulator computes is not what the wire format defines. The
//! format is [`WireCodec::encode_with_ref`] / `decode_with_ref` — a byte
//! stream, pinned by `codec_pin.rs`. A simulated transfer needs two things
//! of it, the values the receiver would decode and the stream's size, and
//! nobody reads the bytes: every leg here is one in-place
//! [`WireCodec::roundtrip`], which is held to `decode(encode(..))` bit for
//! bit and byte count for byte count by the codec crate's proptests.
//!
//! ## Zero-copy broadcast
//!
//! A tier round sends the *same* global model to every selected client.
//! [`Transport::broadcast`] therefore roundtrips the model exactly once per
//! round, in the `Arc<[f32]>` every client then shares. The encode counters
//! (one tick per roundtrip) expose this invariant to the regression tests.

use fedat_compress::codec::{codec_for, CodecKind, WireCodec};
use fedat_compress::topk::ErrorFeedback;
use fedat_sim::runtime::SimCtx;
use std::collections::BTreeMap;
use std::sync::Arc;

/// Whether a codec kind is reference-aware (delta-family): it encodes
/// against a model both endpoints hold, which only the *uplink* has (the
/// broadcast the client trained from). The downlink broadcast is shared by
/// a whole cohort and reference-free, so these kinds apply to the uplink
/// leg only and the broadcast travels uncompressed.
pub fn is_delta_family(kind: CodecKind) -> bool {
    matches!(
        kind,
        CodecKind::DeltaRle | CodecKind::Quantized { .. } | CodecKind::TopK { .. }
    )
}

/// The uplink/downlink channel of one experiment.
///
/// Absolute codecs (`None`, `Polyline`) apply to both legs.
/// Delta-family codecs ([`is_delta_family`]) apply to the uplink only: the
/// downlink broadcast has no reference model to encode against — absolute
/// 4-bit quantization of the full global model every round would destroy
/// training, while the uplink's *delta* vs the just-received broadcast is
/// narrow and quantizes almost for free.
pub struct Transport {
    codec: Box<dyn WireCodec>,
    down_codec: Box<dyn WireCodec>,
    kind: CodecKind,
    downlink_encodes: u64,
    uplink_encodes: u64,
    /// Per-client error-feedback accumulators, engaged for
    /// [`CodecKind::TopK`] uplinks only: top-k is the one codec that
    /// silently *drops* coordinates, so the suppressed mass is carried as a
    /// residual and re-offered at the next upload (see
    /// [`fedat_compress::topk::ErrorFeedback`]). BTreeMap keeps iteration
    /// deterministic.
    feedback: BTreeMap<usize, ErrorFeedback>,
}

impl Transport {
    /// Builds the transport for a codec kind.
    pub fn new(kind: CodecKind) -> Self {
        let down_codec = if is_delta_family(kind) {
            codec_for(CodecKind::None)
        } else {
            codec_for(kind)
        };
        Transport {
            codec: codec_for(kind),
            down_codec,
            kind,
            downlink_encodes: 0,
            uplink_encodes: 0,
            feedback: BTreeMap::new(),
        }
    }

    /// The codec kind in use.
    pub fn kind(&self) -> CodecKind {
        self.kind
    }

    /// Number of downlink (server → client) encode operations performed.
    /// With the broadcast path this is one per tier round, *not* one per
    /// selected client.
    pub fn downlink_encode_count(&self) -> u64 {
        self.downlink_encodes
    }

    /// Number of uplink (client → server) encode operations performed.
    pub fn uplink_encode_count(&self) -> u64 {
        self.uplink_encodes
    }

    /// Server → clients broadcast: roundtrips `weights` once, charges every
    /// client's downlink, and returns the post-roundtrip model as a shared
    /// `Arc<[f32]>` together with the per-client wire size.
    pub fn broadcast(
        &mut self,
        ctx: &mut SimCtx,
        clients: &[usize],
        weights: &[f32],
    ) -> (Arc<[f32]>, usize) {
        let mut shared: Arc<[f32]> = weights.into();
        let model = Arc::get_mut(&mut shared).expect("nobody else holds a new Arc");
        let bytes = self.down_codec.roundtrip(model, None);
        self.downlink_encodes += 1;
        ctx.traffic.record_download(bytes * clients.len());
        (shared, bytes)
    }

    /// Server → client transfer: [`Transport::broadcast`] to one client.
    pub fn download(
        &mut self,
        ctx: &mut SimCtx,
        client: usize,
        weights: &[f32],
    ) -> (Arc<[f32]>, usize) {
        self.broadcast(ctx, &[client], weights)
    }

    /// Client → server transfer of the trained `weights`, against the
    /// broadcast the client trained from when there is one: charges uplink
    /// bytes and hands the same allocation back holding the weights as the
    /// server will see them, plus the wire size (so the strategy can charge
    /// the uplink transfer time at completion).
    ///
    /// Delta-family codecs ([`CodecKind::DeltaRle`], [`CodecKind::Quantized`],
    /// [`CodecKind::TopK`], and polyline in delta mode via its own stream
    /// format) shrink dramatically when encoding *against the broadcast the
    /// client trained from*. Both ends hold that reference: the client keeps
    /// the decoded downlink it received at dispatch, and the server keeps the
    /// same `Arc` in its in-flight table — so no extra reference traffic is
    /// ever charged. The downlink [`Transport::broadcast`] stays
    /// reference-free because its payload is shared by the whole cohort.
    ///
    /// [`CodecKind::TopK`] uplinks additionally run per-client error
    /// feedback: the client's carried residual is added to `weights` before
    /// encoding and the post-roundtrip loss becomes the next residual, so
    /// coordinates the sparsifier suppresses arrive late instead of never.
    pub fn upload(
        &mut self,
        ctx: &mut SimCtx,
        client: usize,
        mut weights: Vec<f32>,
        reference: Option<&[f32]>,
    ) -> (Vec<f32>, usize) {
        let feedback = matches!(self.kind, CodecKind::TopK { .. }).then(|| {
            let fb = self.feedback.entry(client).or_default();
            let compensated = fb.compensate(&weights);
            weights.copy_from_slice(&compensated);
            (fb, compensated)
        });
        let bytes = self.codec.roundtrip(&mut weights, reference);
        self.uplink_encodes += 1;
        ctx.traffic.record_upload(bytes);
        if let Some((fb, compensated)) = feedback {
            fb.absorb(&compensated, &weights);
        }
        (weights, bytes)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fedat_sim::fleet::{ClusterConfig, Fleet};
    use fedat_sim::runtime::{run, Completion, EventHandler, RunLimits, SimCtx};

    /// Drives one download + upload of `weights` through a real `SimCtx`,
    /// checking that each leg charges what the wire format weighs; returns
    /// the weights as the server sees them and that weight.
    fn one_transfer(kind: CodecKind, weights: &[f32]) -> (Vec<f32>, usize) {
        struct OneTransfer {
            transport: Transport,
            weights: Vec<f32>,
            expected_bytes: usize,
            up_result: Option<Vec<f32>>,
        }
        impl EventHandler for OneTransfer {
            fn on_start(&mut self, ctx: &mut SimCtx) {
                let (w, bytes) = self.transport.download(ctx, 0, &self.weights);
                assert_eq!(w.len(), self.weights.len());
                assert_eq!(bytes, self.expected_bytes);
                assert_eq!(ctx.traffic.downlink_bytes(), bytes as u64);
                ctx.dispatch(0, 0, 1);
            }
            fn on_completion(&mut self, ctx: &mut SimCtx, _c: Completion) {
                let (w, bytes) = self.transport.upload(ctx, 0, self.weights.clone(), None);
                assert_eq!(bytes, self.expected_bytes);
                assert_eq!(ctx.traffic.uplink_bytes(), bytes as u64);
                self.up_result = Some(w);
            }
            fn finished(&self) -> bool {
                self.up_result.is_some()
            }
        }
        let cfg = ClusterConfig::paper_medium(1)
            .with_clients(4)
            .without_dropouts();
        let fleet = Fleet::new(&cfg, vec![10; 4]);
        let mut h = OneTransfer {
            transport: Transport::new(kind),
            weights: weights.to_vec(),
            expected_bytes: codec_for(kind).encode(weights).wire_bytes(),
            up_result: None,
        };
        run(&mut h, &fleet, 1, RunLimits::default());
        assert_eq!(h.transport.downlink_encode_count(), 1);
        assert_eq!(h.transport.uplink_encode_count(), 1);
        (h.up_result.expect("upload happened"), h.expected_bytes)
    }

    #[test]
    fn transfers_charge_both_directions() {
        let weights: Vec<f32> = (0..1000).map(|i| (i as f32 * 0.01).sin() * 0.1).collect();
        let kind = CodecKind::Polyline {
            precision: 4,
            delta: true,
        };
        let (up, bytes) = one_transfer(kind, &weights);
        for (a, b) in up.iter().zip(weights.iter()) {
            assert!(
                (a - b).abs() <= 0.5e-4 * 1.01,
                "lossy roundtrip out of tolerance"
            );
        }
        assert!(bytes < 4000, "polyline should beat raw 4000 B: {bytes}");
    }

    #[test]
    fn broadcast_encodes_once_for_many_clients() {
        let cfg = ClusterConfig::paper_medium(2)
            .with_clients(8)
            .without_dropouts();
        let fleet = Fleet::new(&cfg, vec![10; 8]);
        struct Broadcaster {
            transport: Transport,
            done: bool,
        }
        impl EventHandler for Broadcaster {
            fn on_start(&mut self, ctx: &mut SimCtx) {
                let w: Vec<f32> = (0..256).map(|i| i as f32 * 0.01).collect();
                let clients: Vec<usize> = (0..8).collect();
                let (shared, bytes) = self.transport.broadcast(ctx, &clients, &w);
                assert_eq!(shared.len(), 256);
                assert!(bytes > 0);
                // All eight downlinks charged, one encode performed.
                assert_eq!(ctx.traffic.downlink_bytes(), 8 * bytes as u64);
                assert_eq!(self.transport.downlink_encode_count(), 1);
                self.done = true;
            }
            fn on_completion(&mut self, _ctx: &mut SimCtx, _c: Completion) {}
            fn finished(&self) -> bool {
                self.done
            }
        }
        let mut h = Broadcaster {
            transport: Transport::new(CodecKind::None),
            done: false,
        };
        run(&mut h, &fleet, 2, RunLimits::default());
        assert!(h.done);
    }

    #[test]
    fn raw_transport_is_lossless() {
        let w: Vec<f32> = (0..64).map(|i| i as f32 * 0.125).collect();
        assert_eq!(one_transfer(CodecKind::None, &w), (w, 16 + 64 * 4));
    }

    #[test]
    fn delta_family_codecs_apply_to_the_uplink_only() {
        let cfg = ClusterConfig::paper_medium(1)
            .with_clients(2)
            .without_dropouts();
        let fleet = Fleet::new(&cfg, vec![10; 2]);
        struct Split {
            transport: Transport,
            done: bool,
        }
        impl EventHandler for Split {
            fn on_start(&mut self, ctx: &mut SimCtx) {
                let w: Vec<f32> = (0..512).map(|i| (i as f32 * 0.013).sin() * 0.1).collect();
                // Downlink: uncompressed and bit-exact.
                let (shared, down_bytes) = self.transport.download(ctx, 0, &w);
                assert_eq!(down_bytes, 16 + 512 * 4, "broadcast must travel raw");
                for (a, b) in shared.iter().zip(w.iter()) {
                    assert_eq!(a.to_bits(), b.to_bits());
                }
                // Uplink: quantized delta vs the broadcast reference —
                // roughly one byte per weight instead of four.
                let trained: Vec<f32> = shared.iter().map(|v| v + 0.001).collect();
                let (_, up_bytes) = self.transport.upload(ctx, 0, trained, Some(&shared));
                assert!(up_bytes < down_bytes / 3, "{up_bytes} vs {down_bytes}");
                self.done = true;
            }
            fn on_completion(&mut self, _ctx: &mut SimCtx, _c: Completion) {}
            fn finished(&self) -> bool {
                self.done
            }
        }
        let mut h = Split {
            transport: Transport::new(CodecKind::Quantized { bits: 8 }),
            done: false,
        };
        run(&mut h, &fleet, 3, RunLimits::default());
        assert!(h.done);
        assert!(is_delta_family(CodecKind::DeltaRle));
        assert!(is_delta_family(CodecKind::TopK { per_mille: 50 }));
        assert!(!is_delta_family(CodecKind::None));
        assert!(!is_delta_family(CodecKind::Polyline {
            precision: 4,
            delta: true
        }));
    }

    #[test]
    fn topk_uplink_error_feedback_recovers_suppressed_coordinates() {
        let cfg = ClusterConfig::paper_medium(4)
            .with_clients(2)
            .without_dropouts();
        let fleet = Fleet::new(&cfg, vec![10; 2]);
        struct Ef {
            transport: Transport,
            done: bool,
        }
        impl EventHandler for Ef {
            fn on_start(&mut self, ctx: &mut SimCtx) {
                // k = 1 of 8: each upload transmits only the largest-delta
                // coordinate. Coordinate 0 (delta 1.0) always beats
                // coordinate 7 (delta 0.1) in a memoryless sparsifier.
                let mut w = vec![0.0f32; 8];
                w[0] = 1.0;
                w[7] = 0.1;
                let reference = vec![0.0f32; 8];
                let kind = CodecKind::TopK { per_mille: 125 };
                // Without feedback (raw codec): dropped forever.
                let raw = codec_for(kind);
                for _ in 0..15 {
                    let blob = raw.encode_with_ref(&w, Some(&reference));
                    let decoded = raw.decode_with_ref(&blob, Some(&reference));
                    assert_eq!(decoded[7], 0.0, "raw top-k must keep dropping it");
                }
                // With feedback: the carried residual grows by 0.1 per
                // upload until coordinate 7 outranks the spike and arrives.
                let mut recovered = None;
                for round in 0..15 {
                    let (decoded, _) = self.transport.upload(ctx, 0, w.clone(), Some(&reference));
                    if decoded[7] != 0.0 {
                        recovered = Some(round);
                        break;
                    }
                }
                let round = recovered.expect("feedback never recovered the coordinate");
                assert!(round >= 5, "recovery needs rounds of accumulation: {round}");
                // Residuals are per-client: client 1's first upload still
                // suppresses coordinate 7.
                let (other, _) = self.transport.upload(ctx, 1, w.clone(), Some(&reference));
                assert_eq!(other[7], 0.0, "residuals leaked across clients");
                self.done = true;
            }
            fn on_completion(&mut self, _ctx: &mut SimCtx, _c: Completion) {}
            fn finished(&self) -> bool {
                self.done
            }
        }
        let mut h = Ef {
            transport: Transport::new(CodecKind::TopK { per_mille: 125 }),
            done: false,
        };
        run(&mut h, &fleet, 4, RunLimits::default());
        assert!(h.done);
    }

    #[test]
    fn polyline_transport_names_and_sizes() {
        let kind = CodecKind::Polyline {
            precision: 3,
            delta: true,
        };
        let w = vec![0.001f32; 512];
        assert!(one_transfer(kind, &w).1 < one_transfer(CodecKind::None, &w).1);
    }
}
